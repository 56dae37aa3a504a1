"""Command-line surface.

Every command reads a JSON instance file, prints a JSON run report to stdout
(diagnostics go to stderr), and follows one exit-code contract:

    0  the checked property holds / the value was computed
    1  the property fails; a witness is part of the report
    2  usage or input error

Verdicts always carry exact values or a witness object, never a bare flag.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from fractions import Fraction
from itertools import combinations
from math import comb

from .certify import (
    ProofTrace,
    _replay,
    certify_fragmentation,
    certify_level,
    minimum_sequence_length,
    select_parameters,
)
from .errors import (
    BoolMeasureError,
    CertificationError,
    ConstructionError,
    ContractError,
    HallViolationError,
    InputError,
    InternalError,
    SizeError,
)
from .expanders import VERIFY_BUDGET, choice_function, verify_expansion
from .fragmentation import (
    FragmentationViolation,
    GradedWitness,
    from_measure,
    from_submeasure,
    max_antichain,
    require_valid,
)
from .generators import gen_collection, gen_expander, gen_fragmentation, gen_measure, gen_submeasure
from .intersection import intersection_number, intersection_number_bruteforce
from .jsonio import (
    ATOM_COUNT_CAP,
    InstanceFile,
    dumps_instance,
    element_to_json,
    expander_to_json,
    format_rational,
    load_instance,
    measure_to_json,
)
from .measures import measure_eval, measure_from_collection


def _pq(value: Fraction) -> str:
    value = Fraction(value)
    return f"{value.numerator}/{value.denominator}"


def _digest(path: str) -> str:
    try:
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None


def _emit(report: dict) -> None:
    print(json.dumps(report, indent=2, sort_keys=True))


def _report(command: str, digest: str, verdict: str, started: float, **sections) -> dict:
    out = {
        "command": command,
        "inputs_digest": digest,
        "verdict": verdict,
        "wall_time_s": round(time.perf_counter() - started, 6),
    }
    out.update(sections)
    return out


def _trace_to_json(trace: ProofTrace, level: int) -> dict:
    params = trace.parameters
    out: dict = {
        "parameters": {"K": params.K, "m": params.m, "k": params.k, "p": params.p, "level": level},
        "cells": [
            {"signature": sorted(sig), "cell": element_to_json(cell)}
            for sig, cell in sorted(trace.partition.cells.items(), key=lambda kv: sorted(kv[0]))
        ],
        "expander": expander_to_json(trace.expander) if trace.expander else None,
        "a_table": (
            [
                {"i": i, "j": j, "element": element_to_json(e)}
                for (i, j), e in sorted(trace.a_table.items())
            ]
            if trace.a_table is not None
            else None
        ),
        "notes": list(trace.notes),
    }
    v = trace.verdict
    verdict: dict = {"kind": v.kind}
    if v.witness is not None:
        verdict["indices"] = list(v.witness.indices)
        verdict["atom"] = v.witness.atom
        verdict["ratio"] = _pq(v.witness.ratio)
    if v.failing_step is not None:
        verdict.update(
            {
                "index": v.index,
                "failing_step": v.failing_step,
                "level": v.level,
                "whole": element_to_json(v.whole),
                "part": element_to_json(v.part),
            }
        )
    out["verdict"] = verdict
    return out


def _need(inst: InstanceFile, section: str):
    value = getattr(inst, section)
    if value is None:
        raise InputError(f'input file has no "{section}" section')
    return value


def _cmd_kappa(args) -> int:
    started = time.perf_counter()
    digest = _digest(args.input)
    inst = load_instance(args.input)
    coll = _need(inst, "collection")
    sol = intersection_number(coll)
    values = {
        "kappa": _pq(sol.value),
        "atom_weights": [format_rational(w) for w in sol.atom_weights],
        "member_weights": [format_rational(w) for w in sol.member_weights],
    }
    if args.brute is not None:
        # bare --brute defaults to the value's denominator, which suffices
        # to witness tightness
        if args.brute == "auto":
            max_len = sol.value.denominator
        else:
            try:
                max_len = int(args.brute)
            except ValueError:
                raise InputError(f"--brute expects an integer, got {args.brute!r}") from None
        brute = intersection_number_bruteforce(coll, max_len)
        values["brute_value"] = _pq(brute)
        values["brute_max_len"] = max_len
        values["agreement"] = brute == sol.value
    _emit(_report("kappa", digest, "computed", started, values=values))
    return 0


def _cmd_measure(args) -> int:
    started = time.perf_counter()
    digest = _digest(args.input)
    inst = load_instance(args.input)
    coll = _need(inst, "collection")
    m, kappa = measure_from_collection(coll)
    values = {
        "kappa": _pq(kappa),
        "measure": measure_to_json(m),
        "member_values": [format_rational(measure_eval(m, c)) for c in coll.members],
        "strictly_positive": m.strictly_positive,
    }
    _emit(_report("measure", digest, "computed", started, values=values))
    return 0


def _frag_from_instance(inst: InstanceFile) -> tuple:
    if inst.fragmentation is not None:
        return inst.fragmentation, []
    if inst.measure is not None:
        return from_measure(inst.measure), ["fragmentation derived from measure thresholds"]
    if inst.submeasure is not None:
        return from_submeasure(inst.submeasure), ["fragmentation derived from submeasure thresholds"]
    raise InputError('input file has no "fragmentation", "measure", or "submeasure" section')


def _violation_witness(exc: ContractError) -> dict:
    """The JSON witness of a failed validation; re-raises any other contract failure."""
    v = exc.violation
    if isinstance(v, FragmentationViolation):
        return {
            "fragmentation_violation": {
                "kind": v.kind,
                "level": v.level,
                "elements": [element_to_json(e) for e in v.elements],
            }
        }
    if isinstance(v, GradedWitness):
        return {
            "graded_violation": {
                "level": v.level,
                "whole": element_to_json(v.whole),
                "part": element_to_json(v.part),
            }
        }
    raise exc


def _cmd_certify(args) -> int:
    started = time.perf_counter()
    digest = _digest(args.input)
    inst = load_instance(args.input)
    frag, notes = _frag_from_instance(inst)

    try:
        if args.level is None:
            full = certify_fragmentation(frag)
            certs, measure = full.level_certificates, full.measure
        else:
            certs, measure = (certify_level(frag, args.level),), None
    except ContractError as exc:
        witnesses = _violation_witness(exc)
        _emit(_report("certify", digest, "fails", started, witnesses=witnesses, notes=notes))
        return 1
    except CertificationError as exc:
        witness = exc.witness or {}
        _emit(
            _report(
                "certify",
                digest,
                "fails",
                started,
                witnesses={
                    "certification_failure": {
                        "level": witness.get("level"),
                        "kappa": _pq(witness["kappa"]) if "kappa" in witness else None,
                        "bound": _pq(witness["bound"]) if "bound" in witness else None,
                        "K": witness.get("K"),
                        "member_weights": [format_rational(w) for w in witness.get("member_weights", ())],
                        "members": [element_to_json(e) for e in witness.get("members", ())],
                    }
                },
                levels=[],
                notes=notes,
            )
        )
        return 1

    level_reports = []
    traces = []
    for cert in certs:
        entry = {
            "level": cert.level,
            "kappa": _pq(cert.kappa) if cert.kappa is not None else None,
            "K": cert.K,
            "bound": _pq(cert.bound) if cert.bound is not None else None,
            "measure": measure_to_json(cert.measure),
            "notes": list(cert.notes),
        }
        if cert.kappa is not None:
            params = select_parameters(cert.K, minimum_sequence_length(cert.K))
            entry["parameters"] = {
                "K": params.K,
                "m": params.m,
                "k": params.k,
                "p": params.p,
            }
        level_reports.append(entry)
        if args.trace and cert.kappa is not None:
            members = frag.canonical_level(cert.level)
            length = minimum_sequence_length(cert.K)
            sequence = [members[i % len(members)] for i in range(length)]
            # frag passed validation and the sequence comes from the level, so
            # the replay starts from the certified K
            trace = _replay(frag, cert.level, sequence, args.seed, cert.K)
            traces.append(_trace_to_json(trace, cert.level))

    sections = {"levels": level_reports, "notes": notes}
    if measure is not None:
        sections["measure"] = measure_to_json(measure)
    if args.trace:
        sections["traces"] = traces
    _emit(_report("certify", digest, "holds", started, **sections))
    return 0


def _cmd_check_frag(args) -> int:
    started = time.perf_counter()
    digest = _digest(args.input)
    inst = load_instance(args.input)
    frag, notes = _frag_from_instance(inst)
    values = {"levels": frag.depth, "valid": True, "graded": True}
    try:
        require_valid(frag, graded=True)
    except ContractError as exc:
        witnesses = _violation_witness(exc)
        sections = {"witnesses": witnesses, "notes": notes}
        if "graded_violation" in witnesses:
            sections["values"] = dict(values, graded=False)
        _emit(_report("check-frag", digest, "fails", started, **sections))
        return 1
    _emit(_report("check-frag", digest, "holds", started, values=values, notes=notes))
    return 0


def _cmd_antichain(args) -> int:
    started = time.perf_counter()
    digest = _digest(args.input)
    inst = load_instance(args.input)
    frag, notes = _frag_from_instance(inst)
    try:
        report = max_antichain(frag, args.level)
    except ContractError as exc:
        witnesses = _violation_witness(exc)
        _emit(_report("antichain", digest, "fails", started, witnesses=witnesses, notes=notes))
        return 1
    values = {
        "level": report.level,
        "K": report.size,
        "witness": [element_to_json(e) for e in report.witness],
    }
    _emit(_report("antichain", digest, "computed", started, values=values, notes=notes))
    return 0


def _cmd_kr_verify(args) -> int:
    started = time.perf_counter()
    digest = _digest(args.input)
    inst = load_instance(args.input)
    family = _need(inst, "expander")
    report = verify_expansion(family)
    if not report.ok:
        _emit(
            _report(
                "kr-verify",
                digest,
                "fails",
                started,
                witnesses={"violating_indices": list(report.violating)},
                values={"checked": report.checked},
            )
        )
        return 1
    values = {"checked": report.checked, "m": family.m_size, "p": family.p_size, "k": family.k}
    if args.choices:
        k = min(family.k, family.m_size)
        total = sum(comb(family.m_size, j) for j in range(1, k + 1))
        if total > VERIFY_BUDGET:
            raise SizeError(
                f"{total} index sets exceed the choice-function budget of {VERIFY_BUDGET}"
            )
        count = 0
        for j in range(1, k + 1):
            for idx in combinations(range(family.m_size), j):
                choice_function(family, idx)
                count += 1
        if count != total:
            raise InternalError(f"extracted {count} choice functions, expected {total}")
        values["choice_functions"] = count
    _emit(_report("kr-verify", digest, "holds", started, values=values))
    return 0


def _cmd_gen(args) -> int:
    params = {}
    for item in (args.params or "").split(","):
        if not item:
            continue
        if "=" not in item:
            raise InputError(f"--params entries must look like key=value, got {item!r}")
        key, value = item.split("=", 1)
        try:
            params[key.strip()] = int(value)
        except ValueError:
            raise InputError(f"--params values must be integers, got {item!r}") from None

    kind = args.kind
    atom_count = params.get("p", 0) if kind == "expander" else args.atoms
    if atom_count > ATOM_COUNT_CAP:
        raise SizeError(f"atom_count {atom_count} exceeds the cap of {ATOM_COUNT_CAP}")
    if kind == "measure":
        inst = InstanceFile(
            args.atoms,
            measure=gen_measure(args.atoms, args.seed, max_weight=params.pop("max_weight", 32)),
        )
    elif kind == "submeasure":
        inst = InstanceFile(
            args.atoms,
            submeasure=gen_submeasure(
                args.atoms,
                args.seed,
                components=params.pop("components", 3),
                max_weight=params.pop("max_weight", 32),
            ),
        )
    elif kind == "fragmentation":
        inst = InstanceFile(
            args.atoms,
            fragmentation=gen_fragmentation(
                args.atoms, args.seed, max_weight=params.pop("max_weight", 32)
            ),
        )
    elif kind == "collection":
        inst = InstanceFile(
            args.atoms,
            collection=gen_collection(args.atoms, args.seed, size=params.pop("size", 6)),
        )
    else:  # expander; the point set doubles as the atom space
        try:
            m, p, k = params.pop("m"), params.pop("p"), params.pop("k")
        except KeyError as exc:
            raise InputError(f"--kind expander needs --params m=..,p=..,k=.. (missing {exc})") from None
        inst = InstanceFile(p, expander=gen_expander(m, p, k, args.seed))
    if params:
        raise InputError(f"unknown --params keys for kind {kind}: {sorted(params)}")

    text = dumps_instance(inst)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="boolmeasure",
        description="Exact intersection numbers, measures, fragmentations, and certificates "
        "on finite Boolean set algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("kappa", help="exact intersection number of a collection")
    p.add_argument("--input", required=True)
    p.add_argument("--brute", nargs="?", const="auto", default=None, metavar="MAXLEN",
                   help="also run the brute-force oracle up to this sequence length "
                        "(default: the denominator of the LP value)")
    p.set_defaults(func=_cmd_kappa)

    p = sub.add_parser("measure", help="measure bounding a collection from below")
    p.add_argument("--input", required=True)
    p.set_defaults(func=_cmd_measure)

    p = sub.add_parser("certify", help="certify level intersection-number bounds")
    p.add_argument("--input", required=True)
    p.add_argument("--level", type=int, default=None,
                   help="certify only this level (default: every level)")
    p.add_argument("--trace", action="store_true", help="emit a proof trace per level")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("check-frag", help="validate a fragmentation and its gradedness")
    p.add_argument("--input", required=True)
    p.set_defaults(func=_cmd_check_frag)

    p = sub.add_parser("antichain", help="exact maximal antichain of one level")
    p.add_argument("--input", required=True)
    p.add_argument("--level", type=int, required=True)
    p.set_defaults(func=_cmd_antichain)

    p = sub.add_parser("kr-verify", help="verify the expansion property of a family")
    p.add_argument("--input", required=True)
    p.add_argument("--choices", action="store_true",
                   help="also extract a choice function for every index set up to k")
    p.set_defaults(func=_cmd_kr_verify)

    p = sub.add_parser("gen", help="generate a deterministic instance file")
    p.add_argument("--kind", required=True,
                   choices=["measure", "submeasure", "fragmentation", "collection", "expander"])
    p.add_argument("--atoms", type=int, default=4)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--params", default="", help="comma-separated key=value extras")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_gen)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = 2
    except (ContractError, CertificationError, HallViolationError, ConstructionError) as exc:
        print(f"property failed: {exc}", file=sys.stderr)
        code = 1
    except BoolMeasureError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        code = 2
    except Exception as exc:  # keep the 0/1/2 exit contract even for bugs
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        code = 2
    if argv is None:
        sys.exit(code)
    return code


if __name__ == "__main__":
    main()

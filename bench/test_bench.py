"""Self-test of the benchmark code: python3 -m pytest bench/test_bench.py"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import run
import tracing
from checks import CheckError, check_fragmentation_certificate, check_replay
from workloads import WORKLOADS, Op, pairwise_intersecting

SPEC = json.loads((run.BENCH.parent / "BENCHMARK.json").read_text())


def _run(capsys, monkeypatch, tmp_path, workload, trace, seed=3):
    monkeypatch.setattr(run, "OUT", tmp_path)
    assert run.main(
        ["--workload", workload, "--seed", str(seed), "--seconds", "0.5", "--trace", str(trace)]
    ) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return lines[0], json.loads(lines[-1])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_run_prints_every_metric(capsys, monkeypatch, tmp_path, workload):
    assert workload in {w["name"] for w in SPEC["workloads"]}
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        _, result = _run(capsys, monkeypatch, tmp_path, workload, trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        expected = {m["name"]: m["unit"] for m in SPEC[section]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    # Self times of all spans, the root's included, account for the traced wall.
    self_sum = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    assert self_sum == pytest.approx(metrics["trace.wall_s"], rel=1e-9)
    assert metrics["trace.absent_functions"] == 0
    assert (tmp_path / f"spans-{workload}-seed3.jsonl.gz").is_file()


def test_per_layer_names_match_the_tracer():
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == tracing.metric_names()


def test_same_seed_gives_same_values_and_counts(capsys, monkeypatch, tmp_path):
    first_line, first = _run(capsys, monkeypatch, tmp_path, "proof-replay", 1)
    second_line, second = _run(capsys, monkeypatch, tmp_path, "proof-replay", 1)
    digest = [part for part in first_line.split() if part.startswith("values_sha256=")]
    assert digest and digest[0] in second_line.split()
    for name in ("simplex.exact_lp_solve.calls", "expanders.index_sets_checked",
                 "certify.verdict.witness", "certify.verdict.descent_violation"):
        assert first["metrics"][name] == second["metrics"][name]
    assert first["metrics"]["certify.verdict.descent_violation"]["value"] >= 1


def test_tampered_outputs_count_as_failures():
    run.import_library()
    from boolmeasure import certify, fragmentation, generators

    frag = fragmentation.from_measure(generators.gen_measure(5, 1))
    cert = certify.certify_fragmentation(frag)
    check_fragmentation_certificate(frag, cert, of_measure=True)
    level = cert.level_certificates[0]
    for bad in (
        dataclasses.replace(level, kappa=level.kappa + Fraction(1, 1000)),
        dataclasses.replace(level, kappa=level.kappa - Fraction(1, 1000)),
        dataclasses.replace(
            level, antichain=dataclasses.replace(level.antichain, size=level.K + 1)
        ),
    ):
        tampered = dataclasses.replace(cert, level_certificates=(bad,) + cert.level_certificates[1:])
        with pytest.raises(CheckError):
            check_fragmentation_certificate(frag, tampered, of_measure=True)

    members, fixture = pairwise_intersecting(
        sys.modules["boolmeasure.algebra"], fragmentation, 100
    )
    trace = certify.replay_proof(fixture, 1, members, 5, trust_fragmentation=True)
    check_replay(trace, members, "descent_violation", 1)
    pieces = dict(trace.a_table)
    del pieces[next(iter(pieces))]
    with pytest.raises(CheckError):
        check_replay(dataclasses.replace(trace, a_table=pieces), members, "descent_violation", 1)
    with pytest.raises(CheckError):
        check_replay(trace, members, "witness", 1)

    tally = run.Tally()
    op = Op("tampered", lambda: None, lambda r: check_replay(r, members, "witness", 1))
    tally.record((0, 0), op, trace, None)
    assert tally.attempted == 1 and len(tally.failures) == 1


def test_absent_function_is_reported_and_wrappers_are_restored(monkeypatch):
    run.import_library()
    from boolmeasure import certify, intersection

    original = intersection.intersection_number
    monkeypatch.setattr(tracing, "TARGETS", tracing.TARGETS + (("simplex", "gone"),))
    with tracing.Tracer() as tracer:
        assert intersection.intersection_number is not original
        assert certify.intersection_number is intersection.intersection_number
    assert tracer.absent == ["simplex.gone"]
    assert intersection.intersection_number is original and certify.intersection_number is original


def test_without_library_sources_it_fails_without_a_result(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.BENCH.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "proof-replay", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0 and done.stdout == ""

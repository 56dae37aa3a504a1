"""JSON interchange for all value types.

One instance file carries an atom count plus any of: a collection, a measure,
a submeasure, a fragmentation, an expander family.  Rationals travel as
strings ("p/q" or "p", lowest terms on output) so no value is ever forced
through a float.  Elements are sorted, duplicate-free arrays of atom indices;
a submeasure table keys each element by those indices comma-joined ("" for
zero).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Any

from .algebra import AtomSpace, Collection, Element, canonical_key
from .errors import InputError, SizeError
from .expanders import ExpanderFamily
from .fragmentation import Fragmentation, Submeasure
from .measures import Measure

#: Widest atom space an instance file may declare.  Per-atom reports and
#: tables grow with it before any cap of an exhaustive operation applies; the
#: widest legitimate input, the pairwise-intersecting replay fixture on m
#: members, has C(m, 2) atoms, 7,140 at m = 120.
ATOM_COUNT_CAP = 10_000


def format_rational(value: Fraction) -> str:
    return str(Fraction(value))


def parse_rational(text: Any) -> Fraction:
    if isinstance(text, bool) or not isinstance(text, (str, int)):
        raise InputError(f"rational must be a string like 'p/q' or an integer, got {text!r}")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"cannot parse rational {text!r}: {exc}") from None


def element_to_json(e: Element) -> list[int]:
    return list(e.atoms)


def element_from_json(space: AtomSpace, data: Any) -> Element:
    if not isinstance(data, list) or any(isinstance(a, bool) or not isinstance(a, int) for a in data):
        raise InputError(f"element must be an array of atom indices, got {data!r}")
    if sorted(set(data)) != data:
        raise InputError(f"element array must be sorted and duplicate-free, got {data!r}")
    return space.element(data)


def collection_to_json(c: Collection) -> list[list[int]]:
    return [element_to_json(e) for e in c.members]


def collection_from_json(space: AtomSpace, data: Any) -> Collection:
    if not isinstance(data, list):
        raise InputError("collection must be an array of elements")
    return Collection(space, tuple(element_from_json(space, item) for item in data))


def measure_to_json(m: Measure) -> dict:
    return {"weights": [format_rational(w) for w in m.atom_weights]}


def measure_from_json(space: AtomSpace, data: Any) -> Measure:
    if not isinstance(data, dict) or "weights" not in data:
        raise InputError('measure must be an object with a "weights" array')
    weights = data["weights"]
    if not isinstance(weights, list):
        raise InputError("measure weights must be an array")
    return Measure(space, tuple(parse_rational(w) for w in weights))


def _element_key(e: Element) -> str:
    return ",".join(str(a) for a in e.atoms)


def submeasure_to_json(phi: Submeasure) -> dict:
    items = sorted(phi.values.items(), key=lambda kv: canonical_key(kv[0]))
    return {"values": {_element_key(e): format_rational(v) for e, v in items}}


def submeasure_from_json(space: AtomSpace, data: Any) -> Submeasure:
    if not isinstance(data, dict) or "values" not in data:
        raise InputError('submeasure must be an object with a "values" table')
    table = data["values"]
    if not isinstance(table, dict):
        raise InputError("submeasure values must be an object")
    values: dict[Element, Fraction] = {}
    for key, v in table.items():
        try:
            atoms = [int(part) for part in key.split(",")] if key else []
        except ValueError:
            raise InputError(f"submeasure key {key!r} is not comma-separated atom indices") from None
        e = space.element(atoms)
        if _element_key(e) != key:  # one spelling per element, so no key shadows another
            raise InputError(f"submeasure key {key!r} is not sorted, duplicate-free atom indices")
        values[e] = parse_rational(v)
    return Submeasure(space, values)


def fragmentation_to_json(f: Fragmentation) -> dict:
    return {
        "levels": [
            [element_to_json(e) for e in sorted(level, key=canonical_key)] for level in f.levels
        ]
    }


def fragmentation_from_json(space: AtomSpace, data: Any) -> Fragmentation:
    if not isinstance(data, dict) or "levels" not in data:
        raise InputError('fragmentation must be an object with a "levels" array')
    levels = data["levels"]
    if not isinstance(levels, list) or not levels:
        raise InputError("fragmentation levels must be a nonempty array")
    if not all(isinstance(level, list) for level in levels):
        raise InputError("each fragmentation level must be an array of elements")
    return Fragmentation(
        space,
        tuple(frozenset(element_from_json(space, item) for item in level) for level in levels),
    )


def expander_to_json(f: ExpanderFamily) -> dict:
    return {"m": f.m_size, "p": f.p_size, "k": f.k, "sets": [list(s) for s in f.sets]}


def expander_from_json(data: Any) -> ExpanderFamily:
    if not isinstance(data, dict):
        raise InputError("expander must be an object")
    try:
        m, p, k, sets = data["m"], data["p"], data["k"], data["sets"]
    except KeyError as exc:
        raise InputError(f"expander is missing key {exc}") from None
    if not isinstance(sets, list) or not all(isinstance(s, list) for s in sets):
        raise InputError("expander sets must be an array of 3-element arrays")
    return ExpanderFamily(m, p, k, tuple(tuple(s) for s in sets))


@dataclass(frozen=True)
class InstanceFile:
    atom_count: int
    collection: Collection | None = None
    measure: Measure | None = None
    submeasure: Submeasure | None = None
    fragmentation: Fragmentation | None = None
    expander: ExpanderFamily | None = None

    @property
    def space(self) -> AtomSpace:
        return AtomSpace(self.atom_count)


def instance_to_json(inst: InstanceFile) -> dict:
    out: dict[str, Any] = {"atom_count": inst.atom_count}
    if inst.collection is not None:
        out["collection"] = collection_to_json(inst.collection)
    if inst.measure is not None:
        out["measure"] = measure_to_json(inst.measure)
    if inst.submeasure is not None:
        out["submeasure"] = submeasure_to_json(inst.submeasure)
    if inst.fragmentation is not None:
        out["fragmentation"] = fragmentation_to_json(inst.fragmentation)
    if inst.expander is not None:
        out["expander"] = expander_to_json(inst.expander)
    return out


def instance_from_json(data: Any) -> InstanceFile:
    if not isinstance(data, dict):
        raise InputError("instance file must be a JSON object")
    if "atom_count" in data:
        atom_count = data["atom_count"]
    elif "expander" in data and isinstance(data["expander"], dict):
        atom_count = data["expander"].get("p")
    else:
        raise InputError('instance file needs an "atom_count"')
    if isinstance(atom_count, bool) or not isinstance(atom_count, int) or atom_count < 1:
        raise InputError(f"atom_count must be a positive integer, got {atom_count!r}")
    if atom_count > ATOM_COUNT_CAP:
        raise SizeError(f"atom_count {atom_count} exceeds the cap of {ATOM_COUNT_CAP}")
    space = AtomSpace(atom_count)
    return InstanceFile(
        atom_count=atom_count,
        collection=(
            collection_from_json(space, data["collection"]) if "collection" in data else None
        ),
        measure=measure_from_json(space, data["measure"]) if "measure" in data else None,
        submeasure=(
            submeasure_from_json(space, data["submeasure"]) if "submeasure" in data else None
        ),
        fragmentation=(
            fragmentation_from_json(space, data["fragmentation"])
            if "fragmentation" in data
            else None
        ),
        expander=expander_from_json(data["expander"]) if "expander" in data else None,
    )


def dumps_instance(inst: InstanceFile) -> str:
    return json.dumps(instance_to_json(inst), indent=2, sort_keys=True) + "\n"


def _refuse_repeated_keys(pairs: list[tuple[str, Any]]) -> dict:
    obj: dict[str, Any] = {}
    for key, value in pairs:
        if key in obj:  # json.load would keep the last value silently
            raise InputError(f"JSON object repeats the key {key!r}")
        obj[key] = value
    return obj


def load_instance(path: str) -> InstanceFile:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh, object_pairs_hook=_refuse_repeated_keys)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise InputError(f"malformed JSON in {path}: {exc}") from None
    return instance_from_json(data)

"""Deterministic seeded generators for test corpora and CLI fixtures.

Every generator is a pure function of its arguments; the same seed always
produces the identical value.  Submeasures are finite maxima of strictly
positive measures, which makes them monotone and subadditive by construction.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .algebra import AtomSpace, Collection, enumerate_nonzero
from .errors import InputError
from .expanders import ExpanderFamily, build_expander
from .fragmentation import Fragmentation, Submeasure, from_measure
from .measures import Measure, subset_sums

#: ``gen_collection`` and ``gen_submeasure`` refuse larger counts before generating.
COLLECTION_SIZE_CAP = 100_000
SUBMEASURE_COMPONENT_CAP = 64


def gen_measure(atom_count: int, seed: int, *, max_weight: int = 32) -> Measure:
    """A strictly positive measure with denominator at most atoms*max_weight."""
    if max_weight < 1:
        raise InputError("max_weight must be positive")
    rng = random.Random(("measure", atom_count, seed, max_weight).__repr__())
    raw = [rng.randint(1, max_weight) for _ in range(atom_count)]
    total = sum(raw)
    return Measure(AtomSpace(atom_count), tuple(Fraction(r, total) for r in raw))


def gen_submeasure(
    atom_count: int, seed: int, *, components: int = 3, max_weight: int = 32
) -> Submeasure:
    """The pointwise maximum of a few random measures, tabulated."""
    if not 1 <= components <= SUBMEASURE_COMPONENT_CAP:
        raise InputError(f"components must be in 1..{SUBMEASURE_COMPONENT_CAP}, got {components}")
    space = AtomSpace(atom_count)
    elements = enumerate_nonzero(space)  # refuses before the 2^n tables are built
    tables = [
        subset_sums(gen_measure(atom_count, seed * components + j, max_weight=max_weight).atom_weights)
        for j in range(components)
    ]
    values = {e: max(table[e.mask] for table in tables) for e in elements}
    return Submeasure(space, values)


def gen_fragmentation(atom_count: int, seed: int, *, max_weight: int = 32) -> Fragmentation:
    """Threshold fragmentation of a random strictly positive measure."""
    return from_measure(gen_measure(atom_count, seed, max_weight=max_weight))


def gen_collection(atom_count: int, seed: int, *, size: int = 6) -> Collection:
    """Uniformly random nonzero elements; repetition possible."""
    if not 1 <= size <= COLLECTION_SIZE_CAP:
        raise InputError(f"collection size must be in 1..{COLLECTION_SIZE_CAP}, got {size}")
    space = AtomSpace(atom_count)
    rng = random.Random(("collection", atom_count, seed, size).__repr__())
    members = tuple(space.from_mask(rng.randint(1, space.unit_mask)) for _ in range(size))
    return Collection(space, members)


def gen_expander(m: int, p: int, k: int, seed: int) -> ExpanderFamily:
    return build_expander(m, p, k, seed)

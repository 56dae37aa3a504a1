"""Finitely additive measures and their synthesis.

A measure is a nonnegative rational weight per atom, summing to one;
``m(a)`` is the weight of the atoms of ``a``, so m(0) = 0, m(1) = 1 and
disjoint additivity hold by construction (``check_measure_axioms`` is an
independent exhaustive oracle).  A ``Measure`` also holds its weights as
integers over their least common denominator D, so member sums, threshold
tests and axiom checks compare Python integers and build at most one
``Fraction`` per reported value.  ``measure_from_collection`` turns a
positive intersection number into a measure bounding the collection from
below (Kelley's theorem, realized here as the finite LP dual rather than via
Hahn-Banach).  ``combine_measures`` blends per-level measures across a
covering fragmentation into a strictly positive one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Sequence

from .algebra import AtomSpace, Collection, Element, enumerate_nonzero
from .errors import ContractError, InputError, SizeError
from .intersection import intersection_number, over_common_denominator

#: ``check_measure_axioms`` enumerates 3^n disjoint pairs; it refuses beyond this.
AXIOM_CHECK_CAP = 12


@dataclass(frozen=True)
class Measure:
    """A normalized, finitely additive set function given by atom weights.

    ``atom_weights[x] == Fraction(numerators[x], denominator)``, where
    ``denominator`` is the least common denominator D of the weights.
    """

    space: AtomSpace
    atom_weights: tuple[Fraction, ...]
    numerators: tuple[int, ...] = field(init=False, repr=False, compare=False)
    denominator: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        weights = tuple(Fraction(w) for w in self.atom_weights)
        if len(weights) != self.space.atom_count:
            raise InputError("one weight per atom is required")
        numerators, denominator = over_common_denominator(weights)
        if any(v < 0 for v in numerators):
            raise InputError("atom weights must be nonnegative")
        if sum(numerators) != denominator:
            raise InputError("atom weights must sum to exactly 1")
        object.__setattr__(self, "atom_weights", weights)
        object.__setattr__(self, "numerators", tuple(numerators))
        object.__setattr__(self, "denominator", denominator)

    @property
    def strictly_positive(self) -> bool:
        return all(v > 0 for v in self.numerators)


def measure_eval(m: Measure, a: Element) -> Fraction:
    """m(a): the sum of the weights of the atoms of ``a``."""
    if a.space != m.space:
        raise InputError("element belongs to a different atom space than the measure")
    return Fraction(sum(m.numerators[x] for x in a.atoms), m.denominator)


def measure_from_collection(collection: Collection) -> tuple[Measure, Fraction]:
    """A measure m with ``m(c) >= kappa`` for every c in the collection.

    The atom-side optimum of the intersection game is exactly such a measure,
    and ``intersection_number`` has checked ``min_c m(c) == kappa`` over the
    members; it need not be strictly positive.  Returns ``(m, kappa)``.
    """
    sol = intersection_number(collection)
    return Measure(collection.space, sol.atom_weights), sol.value


def combine_measures(measures: Sequence[Measure]) -> Measure:
    """Blend level measures m_1, ..., m_N into sum_n 2^-n m_n / sum_n 2^-n.

    When each m_n is positive on level n of a covering fragmentation, every
    nonzero element picks up weight from some level, so the blend is strictly
    positive.  Those level bounds are for the level certificates to prove;
    the blend does not check them.
    """
    if not measures:
        raise InputError("at least one level measure is required")
    space = measures[0].space
    if any(m_n.space != space for m_n in measures):
        raise InputError("the level measures live on different atom spaces")
    # in integers over the common denominator (2^N - 1) * lcm(D_n) of N levels
    depth = len(measures)
    common = lcm(*(m_n.denominator for m_n in measures))
    scales = [(common // m_n.denominator) << (depth - n) for n, m_n in enumerate(measures, 1)]
    total = common * ((1 << depth) - 1)
    weights = [
        Fraction(sum(s * m_n.numerators[x] for s, m_n in zip(scales, measures)), total)
        for x in range(space.atom_count)
    ]
    return Measure(space, tuple(weights))


def subset_sums(weights: Sequence[int]) -> list[int]:
    """Sum of ``weights`` over the atoms of every mask, by subset DP.

    Given a measure's ``numerators`` it gives D times the measure of every
    mask in integers; any other numbers, ``Fraction`` weights included, add
    the same way.
    """
    n = len(weights)
    sums = [0] * (1 << n)
    for mask in range(1, 1 << n):
        low = mask & -mask
        sums[mask] = sums[mask ^ low] + weights[low.bit_length() - 1]
    return sums


def check_measure_axioms(m: Measure) -> None:
    """Exhaustively verify normalization, positivity and disjoint additivity.

    Positivity here means ``m(a) > 0`` for every nonzero ``a``; raises
    :class:`ContractError` on the first violation found.  An independent
    oracle: no library path calls it, and it stays in the library because
    the benchmark traces it.
    """
    if m.space.atom_count > AXIOM_CHECK_CAP:
        raise SizeError(
            f"axiom check over {m.space.atom_count} atoms exceeds the cap of {AXIOM_CHECK_CAP}"
        )
    sums = subset_sums(m.numerators)  # D * m(mask), in integers
    if sums[0] != 0:
        raise ContractError("m(0) must be 0")
    if sums[m.space.unit_mask] != m.denominator:
        raise ContractError("m(1) must be 1")
    for e in enumerate_nonzero(m.space):
        if sums[e.mask] <= 0:
            raise ContractError(f"m must be positive on nonzero element {e.atoms}")
    unit = m.space.unit_mask
    for a_mask in range(unit + 1):
        rest = unit & ~a_mask
        b_mask = rest
        while True:  # enumerate subsets of the complement: all disjoint pairs
            if sums[a_mask | b_mask] != sums[a_mask] + sums[b_mask]:
                raise ContractError(
                    f"additivity fails on disjoint masks {a_mask:b}, {b_mask:b}"
                )
            if b_mask == 0:
                break
            b_mask = (b_mask - 1) & rest

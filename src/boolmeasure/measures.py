"""Finitely additive measures and their synthesis.

A measure is a nonnegative rational weight per atom, summing to one;
``m(a)`` is the weight of the atoms of ``a``, which makes additivity on
disjoint elements hold by construction.  ``measure_from_collection`` turns a
positive intersection number into a measure bounding the collection from
below (Kelley's theorem, realized here as the finite LP dual rather than via
Hahn-Banach).  ``combine_measures`` merges per-level measures across a
covering fragmentation into a strictly positive one.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Sequence

from .algebra import AtomSpace, Collection, Element, enumerate_nonzero
from .errors import ContractError, InputError, SizeError
from .intersection import intersection_number

if TYPE_CHECKING:  # avoid a runtime import cycle with fragmentation
    from .fragmentation import Fragmentation

#: Exhaustive axiom checks enumerate 3^n disjoint pairs; refuse beyond this.
AXIOM_CHECK_CAP = 12


@dataclass(frozen=True)
class Measure:
    """A normalized, finitely additive set function given by atom weights."""

    space: AtomSpace
    atom_weights: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "atom_weights", tuple(Fraction(w) for w in self.atom_weights))
        if len(self.atom_weights) != self.space.atom_count:
            raise InputError("one weight per atom is required")
        if any(w < 0 for w in self.atom_weights):
            raise InputError("atom weights must be nonnegative")
        if sum(self.atom_weights) != 1:
            raise InputError("atom weights must sum to exactly 1")

    @property
    def strictly_positive(self) -> bool:
        return all(w > 0 for w in self.atom_weights)


def measure_eval(m: Measure, a: Element) -> Fraction:
    """m(a): the sum of the weights of the atoms of ``a``."""
    if a.space != m.space:
        raise InputError("element belongs to a different atom space than the measure")
    return sum((m.atom_weights[x] for x in a.atoms), Fraction(0))


def measure_from_collection(collection: Collection) -> tuple[Measure, Fraction]:
    """A measure m with ``m(c) >= kappa`` for every c in the collection.

    The atom-side optimum of the intersection game is exactly such a measure,
    and ``intersection_number`` has checked ``min_c m(c) == kappa`` over the
    members; it need not be strictly positive.  Returns ``(m, kappa)``.
    """
    sol = intersection_number(collection)
    return Measure(collection.space, sol.atom_weights), sol.value


def combine_measures(
    levels: Sequence[tuple[Measure, Fraction]],
    fragmentation: "Fragmentation",
    *,
    check: bool = True,
) -> Measure:
    """Blend per-level measures with weights 2^-n into a strictly positive one.

    Requires ``m_n(c) >= kappa_n > 0`` on level n for every n (checked
    exhaustively against the explicit level sets unless ``check`` is off).
    Because the levels cover B+, every nonzero element picks up weight from
    some level, so the result is strictly positive whenever the fragmentation
    is covering.
    """
    if not levels:
        raise InputError("at least one level measure is required")
    if len(levels) != len(fragmentation.levels):
        raise InputError(
            f"{len(levels)} measures supplied for {len(fragmentation.levels)} levels"
        )
    space = fragmentation.space
    for n, ((m_n, kappa_n), level) in enumerate(zip(levels, fragmentation.levels), start=1):
        if m_n.space != space:
            raise InputError(f"measure for level {n} lives on a different atom space")
        if not check:
            continue
        if kappa_n <= 0:
            raise ContractError(f"level {n} bound must be positive, got {kappa_n}")
        for c in level:
            if measure_eval(m_n, c) < kappa_n:
                raise ContractError(
                    f"level {n} measure gives {measure_eval(m_n, c)} < {kappa_n} "
                    f"on member with atoms {c.atoms}"
                )
    total = sum((Fraction(1, 2**n) for n in range(1, len(levels) + 1)), Fraction(0))
    weights = [
        sum(
            (Fraction(1, 2**n) * m_n.atom_weights[x] for n, (m_n, _) in enumerate(levels, 1)),
            Fraction(0),
        )
        / total
        for x in range(space.atom_count)
    ]
    return Measure(space, tuple(weights))


def subset_sums(weights: Sequence[Fraction]) -> list[Fraction]:
    """Value of the induced measure on every mask, by subset DP."""
    n = len(weights)
    sums = [Fraction(0)] * (1 << n)
    for mask in range(1, 1 << n):
        low = mask & -mask
        sums[mask] = sums[mask ^ low] + weights[low.bit_length() - 1]
    return sums


def require_axiom_checkable(space: AtomSpace) -> None:
    """Refuse, before any work, a space too wide for ``check_measure_axioms``."""
    if space.atom_count > AXIOM_CHECK_CAP:
        raise SizeError(
            f"axiom check over {space.atom_count} atoms exceeds the cap of {AXIOM_CHECK_CAP}"
        )


def check_measure_axioms(m: Measure) -> None:
    """Exhaustively verify normalization, positivity and disjoint additivity.

    Positivity here means ``m(a) > 0`` for every nonzero ``a``; raises
    :class:`ContractError` on the first violation found.
    """
    require_axiom_checkable(m.space)
    sums = subset_sums(m.atom_weights)
    if sums[0] != 0:
        raise ContractError("m(0) must be 0")
    if sums[m.space.unit_mask] != 1:
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

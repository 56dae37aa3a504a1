"""Finite Boolean set algebras over an indexed atom space.

An element is a subset of ``{0, ..., atom_count - 1}`` stored as a bitmask,
so lattice questions like "is the meet of these sets nonzero" reduce to
integer arithmetic.  All values are immutable and all operations are pure
functions; everything here is safe to evaluate concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Iterable

from .errors import InputError, SizeError

#: Exhaustive enumeration of B+ refuses beyond this many atoms.
ENUMERATION_CAP = 16


@dataclass(frozen=True)
class AtomSpace:
    """The algebra of all subsets of a ground set of ``atom_count`` atoms."""

    atom_count: int

    def __post_init__(self):
        if not isinstance(self.atom_count, int) or self.atom_count < 1:
            raise InputError(f"atom_count must be a positive integer, got {self.atom_count!r}")

    @property
    def unit_mask(self) -> int:
        return (1 << self.atom_count) - 1

    @property
    def zero(self) -> "Element":
        return Element(self, 0)

    @property
    def unit(self) -> "Element":
        return Element(self, self.unit_mask)

    def element(self, atoms: Iterable[int]) -> "Element":
        """Build an element from atom indices; duplicates are collapsed."""
        mask = 0
        for a in atoms:
            if not isinstance(a, int) or a < 0 or a >= self.atom_count:
                raise InputError(f"atom index {a!r} out of range for {self.atom_count} atoms")
            mask |= 1 << a
        return Element(self, mask)

    def from_mask(self, mask: int) -> "Element":
        if not isinstance(mask, int) or mask < 0 or mask > self.unit_mask:
            raise InputError(f"mask {mask!r} out of range for {self.atom_count} atoms")
        return Element(self, mask)

    def singleton(self, atom: int) -> "Element":
        return self.element((atom,))


@dataclass(frozen=True)
class Element:
    """A member of the set algebra: a subset of the atom space."""

    space: AtomSpace
    mask: int

    @property
    def atoms(self) -> tuple[int, ...]:
        mask, out = self.mask, []
        while mask:
            low = mask & -mask
            out.append(low.bit_length() - 1)
            mask ^= low
        return tuple(out)

    @property
    def size(self) -> int:
        return self.mask.bit_count()

    @property
    def is_zero(self) -> bool:
        return self.mask == 0

    def union(self, other: "Element") -> "Element":
        _require_same_space(self, other)
        return Element(self.space, self.mask | other.mask)

    def intersection(self, other: "Element") -> "Element":
        _require_same_space(self, other)
        return Element(self.space, self.mask & other.mask)

    def complement(self) -> "Element":
        return Element(self.space, self.space.unit_mask & ~self.mask)

    def difference(self, other: "Element") -> "Element":
        _require_same_space(self, other)
        return Element(self.space, self.mask & ~other.mask)

    def leq(self, other: "Element") -> bool:
        _require_same_space(self, other)
        return self.mask & ~other.mask == 0

    def disjoint(self, other: "Element") -> bool:
        _require_same_space(self, other)
        return self.mask & other.mask == 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Element({set(self.atoms) if self.mask else '{}'} of {self.space.atom_count})"


def _require_same_space(a: Element, b: Element) -> None:
    if a.space != b.space:
        raise InputError(
            f"elements live in different atom spaces ({a.space.atom_count} vs {b.space.atom_count})"
        )


def canonical_key(e: Element) -> tuple[int, int]:
    """Sort key fixing the canonical order: by size, then lexicographic.

    Of two sets of one size, the lexicographically smaller owns the lowest
    atom where they differ: it has the larger bit-reversed mask."""
    reversed_mask = int(f"{e.mask:0{e.space.atom_count}b}"[::-1], 2)
    return (e.mask.bit_count(), -reversed_mask)


def minimal_elements(members: Iterable[Element]) -> list[Element]:
    """Distinct inclusion-minimal members, in the order they first occur.

    Members are visited by size, and one is minimal iff it contains no
    minimal member kept before it: a proper subset is smaller, and lies above
    some smaller minimal member.
    """
    first: dict[int, Element] = {}
    for e in members:
        first.setdefault(e.mask, e)
    kept: list[int] = []
    for mask in sorted(first, key=int.bit_count):
        if all(k & mask != k for k in kept):
            kept.append(mask)
    minimal = set(kept)
    return [e for mask, e in first.items() if mask in minimal]


@lru_cache(maxsize=32)
def _enumerate_cached(atom_count: int) -> tuple[Element, ...]:
    space, atoms = AtomSpace(atom_count), range(atom_count)
    # combinations of one size come out in lexicographic order
    sets = (c for size in range(1, atom_count + 1) for c in combinations(atoms, size))
    return tuple(Element(space, sum(1 << x for x in c)) for c in sets)


def enumerate_nonzero(space: AtomSpace) -> tuple[Element, ...]:
    """All 2^n - 1 nonzero elements in canonical order (size, then lex).

    Refuses when the atom count exceeds ``ENUMERATION_CAP``.
    """
    if space.atom_count > ENUMERATION_CAP:
        raise SizeError(
            f"enumeration over {space.atom_count} atoms exceeds the cap of {ENUMERATION_CAP}"
        )
    return _enumerate_cached(space.atom_count)


@dataclass(frozen=True)
class Collection:
    """A finite list of nonzero elements; repetition is allowed."""

    space: AtomSpace
    members: tuple[Element, ...]

    def __post_init__(self):
        object.__setattr__(self, "members", tuple(self.members))
        for m in self.members:
            if m.space != self.space:
                raise InputError("collection member belongs to a different atom space")
            if m.is_zero:
                raise InputError("collection members must be nonzero")

    def __len__(self) -> int:
        return len(self.members)

"""Fragmentations: nested, upward-closed levels covering the nonzero elements.

Each level is read as a 2^n-bit truth table whose bit ``mask`` marks
membership, so nestedness, covering, upward closure and the minimal members
take n big-integer operations per level, each a subset zeta transform step
(Yates 1937).  Level sets given by the caller are turned into tables once; the
threshold cut and the graded extraction write tables and derive the sets.
Gradedness ("whenever a union lands in a level, one part lands in the next")
is checked over complemented splits of inclusion-minimal level members only;
both reductions are sound given nestedness and upward closure and are
validated against brute force in the test suite.

Threshold families of a strictly positive measure or submeasure at 1/2^n are
fragmentations, are graded, and have level antichains of size at most 2^n;
``from_measure`` / ``from_submeasure`` build them.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache, reduce
from operator import or_
from typing import Iterable, Mapping, Sequence

from .algebra import (
    ENUMERATION_CAP,
    AtomSpace,
    Element,
    canonical_key,
    enumerate_nonzero,
    minimal_elements,
)
from .errors import ContractError, InputError, SizeError
from .intersection import _solve, over_common_denominator
from .measures import Measure, subset_sums

#: Node budget for the exact maximum-antichain search.
ANTICHAIN_NODE_BUDGET = 1_000_000


@dataclass(frozen=True)
class Fragmentation:
    """Levels C_1, ..., C_N as explicit sets of nonzero elements."""

    space: AtomSpace
    levels: tuple[frozenset[Element], ...]

    def __post_init__(self):
        object.__setattr__(self, "levels", tuple(frozenset(lv) for lv in self.levels))
        if not self.levels:
            raise InputError("a fragmentation needs at least one level")
        for lv in self.levels:
            for e in lv:
                if e.space != self.space:
                    raise InputError("level member belongs to a different atom space")
                if e.is_zero:
                    raise InputError("levels may only contain nonzero elements")

    @property
    def depth(self) -> int:
        return len(self.levels)

    def level(self, n: int) -> frozenset[Element]:
        """Level C_n; levels are numbered from 1."""
        if not 1 <= n <= len(self.levels):
            raise InputError(f"level {n} does not exist (1..{len(self.levels)})")
        return self.levels[n - 1]

    def canonical_level(self, n: int) -> list[Element]:
        """Level C_n in canonical order, read off its table."""
        self.level(n)  # refuses a level that does not exist
        return _members(self._tables[n - 1], self.space)

    @cached_property
    def _tables(self) -> tuple[int, ...]:
        return tuple(_table(self.space, (e.mask for e in lv)) for lv in self.levels)


def _of_tables(space: AtomSpace, tables: Sequence[int]) -> Fragmentation:
    """The fragmentation of nested level ``tables``, seeded with them.  Level n
    is level n-1 plus its band's members, the shared ``enumerate_nonzero``
    elements, so the constructor's member checks hold and are skipped."""
    frag, levels = object.__new__(Fragmentation), [frozenset()]
    for below, table in zip([0, *tables], tables):
        levels.append(levels[-1].union(_members(table & ~below, space)))
    frag.__dict__.update(space=space, levels=tuple(levels[1:]), _tables=tuple(tables))
    return frag


@dataclass(frozen=True)
class Submeasure:
    """A monotone, subadditive, normalized table vanishing only at zero."""

    space: AtomSpace
    values: Mapping[Element, Fraction]


@dataclass(frozen=True)
class FragmentationViolation:
    kind: str  # "nested" | "upward" | "covering"
    level: int
    elements: tuple[Element, ...]


@dataclass(frozen=True)
class FragmentationReport:
    valid: bool
    violation: FragmentationViolation | None


@dataclass(frozen=True)
class GradedWitness:
    level: int
    whole: Element
    part: Element


@dataclass(frozen=True)
class GradedReport:
    graded: bool
    witness: GradedWitness | None


@dataclass(frozen=True)
class AntichainReport:
    level: int
    size: int  # the K_n constant: no pairwise-disjoint subfamily is larger
    witness: tuple[Element, ...]


@lru_cache(maxsize=32)
def _lacking(atom_count: int) -> tuple[int, ...]:
    """L_x for each atom x: the table of the masks that lack x."""
    every = (1 << (1 << atom_count)) - 1
    return tuple(every // ((1 << (2 << x)) - 1) * ((1 << (1 << x)) - 1) for x in range(atom_count))


def _table(space: AtomSpace, masks: Iterable[int]) -> int:
    """The 2^n-bit table whose bit ``mask`` is set for each of ``masks``."""
    enumerate_nonzero(space)  # refuses over the cap before any table is built
    digits = bytearray(b"0") * (1 << space.atom_count)
    for mask in masks:
        digits[mask] = ord("1")
    return int(digits[::-1], 2)


def _members(table: int, space: AtomSpace) -> list[Element]:
    """The members of ``table`` in canonical order."""
    bits = f"{table:0{1 << space.atom_count}b}"[::-1]
    return [e for e in enumerate_nonzero(space) if bits[e.mask] == "1"]


def _nested_upward_violation(frag: Fragmentation) -> FragmentationViolation | None:
    """Each check names the least canonical member of its violation table;
    an upward escape pairs it with the least atom it escapes through."""
    tables, space = frag._tables, frag.space
    for n in range(len(tables) - 1):
        missing = tables[n] & ~tables[n + 1]
        if missing:
            return FragmentationViolation("nested", n + 1, (_members(missing, space)[0],))
    for n, table in enumerate(tables):
        # one-step covers suffice: upward closure fails iff some member plus
        # a single atom escapes the level
        escapes = [table & lx & ~(table >> (1 << x)) for x, lx in enumerate(_lacking(space.atom_count))]
        if any(escapes):
            e = _members(reduce(or_, escapes), space)[0]
            x = next(x for x, esc in enumerate(escapes) if esc >> e.mask & 1)
            return FragmentationViolation("upward", n + 1, (e, Element(space, e.mask | 1 << x)))
    return None


def _minimal_members(table: int, space: AtomSpace) -> list[int]:
    """Masks of the minimal members of an upward-closed level table, in
    canonical order: those no member one atom smaller lies below."""
    above = ((table & lx) << (1 << x) for x, lx in enumerate(_lacking(space.atom_count)))
    return [e.mask for e in _members(table & ~reduce(or_, above, 0), space)]


def _refuse(violation: FragmentationViolation | GradedWitness | None) -> None:
    """Raise :class:`ContractError` carrying ``violation``, if there is one."""
    if isinstance(violation, GradedWitness):
        raise ContractError(
            f"fragmentation is not graded at level {violation.level} (whole "
            f"{violation.whole.atoms}, part {violation.part.atoms}); "
            "run extract_graded_subfragmentation first",
            violation,
        )
    if violation is not None:
        raise ContractError(
            f"not a valid fragmentation: {violation.kind} fails at level {violation.level}",
            violation,
        )


def check_fragmentation(frag: Fragmentation) -> FragmentationReport:
    """Exhaustively verify nestedness, upward closure, and covering."""
    violation = _nested_upward_violation(frag)  # refuses over the cap before any scan
    uncovered = ((1 << (1 << frag.space.atom_count)) - 2) & ~frag._tables[-1]
    if violation is None and uncovered:
        # the levels are nested, so the last one holds every member
        violation = FragmentationViolation("covering", frag.depth, (_members(uncovered, frag.space)[0],))
    return FragmentationReport(violation is None, violation)


def require_valid(frag: Fragmentation, *, graded: bool) -> list[list[int]]:
    """The one validation path: nestedness, upward closure and covering, then
    gradedness when ``graded`` is set.

    Returns the masks of each level's minimal members in canonical order.  Raises
    :class:`ContractError` whose ``violation`` is the first
    :class:`FragmentationViolation` or :class:`GradedWitness` found.
    """
    _refuse(check_fragmentation(frag).violation)
    mins = [_minimal_members(table, frag.space) for table in frag._tables]
    if graded:
        _refuse(_graded_witness(frag, mins))
    return mins


def _graded_step_violation(
    space: AtomSpace, minimal_members: Sequence[int], next_table: int
) -> tuple[Element, Element] | None:
    """First (whole, part) whose complemented split misses the next level.

    Checking complemented splits of minimal members suffices: an arbitrary
    union c = a | b reduces to the split (a & c', c' - a) of a minimal c' <= c,
    and upward closure lifts the landing part back above a or b.
    """
    landed = f"{next_table:0{1 << space.atom_count}b}"[::-1]  # character a is "1" iff a lands
    for cmask in minimal_members:
        a = 0
        while True:
            a = (a - cmask) & cmask  # the next submask, ascending
            b = cmask ^ a
            if a >= b:
                break  # each unordered split once, smaller part named
            if landed[a] == "0" and landed[b] == "0":
                return Element(space, cmask), Element(space, a)
    return None


def _graded_witness(frag: Fragmentation, mins: Iterable[list[int]]) -> GradedWitness | None:
    """First gradedness failure of a nested, upward-closed fragmentation,
    given the masks of its levels' minimal members in canonical order."""
    for n, level_mins in zip(range(frag.depth - 1), mins):
        hit = _graded_step_violation(frag.space, level_mins, frag._tables[n + 1])
        if hit is not None:
            return GradedWitness(n + 1, *hit)
    return None


def check_graded(frag: Fragmentation) -> GradedReport:
    """Check gradedness level by level (the top level is exempt).

    Requires nestedness and upward closure, not covering, so threshold-style
    partial fragmentations can be checked too; raises :class:`ContractError`
    when those fail, and :class:`SizeError` over ``ENUMERATION_CAP`` atoms.
    """
    _refuse(_nested_upward_violation(frag))
    witness = _graded_witness(frag, (_minimal_members(t, frag.space) for t in frag._tables))
    return GradedReport(witness is None, witness)


def max_disjoint_family(members: Iterable[Element], space: AtomSpace) -> tuple[int, tuple[Element, ...]]:
    """Exact maximum pairwise-disjoint subfamily by branch and bound.

    Search runs over inclusion-minimal members (any disjoint family shrinks
    onto minimal members without losing size), capped at the root by the
    fractional-packing LP bound floor(1/kappa).
    """
    cands = sorted(minimal_elements(members), key=canonical_key)
    return _max_disjoint_minimal([e.mask for e in cands], space)


def _max_disjoint_minimal(cands: list[int], space: AtomSpace) -> tuple[int, tuple[Element, ...]]:
    """``max_disjoint_family`` of distinct minimal masks in canonical order."""
    if not cands:
        return 0, ()
    bound = len(cands)
    if space.atom_count <= ENUMERATION_CAP:  # keeps the LP off very wide atom spaces
        bound = math.floor(1 / _solve(cands, cands, space).value)
    return search_disjoint_family(cands, space, bound)


def search_disjoint_family(
    cands: Sequence[int], space: AtomSpace, bound: int
) -> tuple[int, tuple[Element, ...]]:
    """Largest pairwise-disjoint subfamily of ``cands``, by branch and bound.

    ``cands`` are distinct inclusion-minimal masks in canonical order, and so
    is the witness; ``bound`` is an upper bound on the answer, such as
    floor(1/kappa) of the family: the search stops once a family reaches it.
    """
    best: tuple[int, ...] = ()
    used = 0
    for mask in cands:  # greedy incumbent, smallest members first
        if mask & used == 0:
            best = best + (mask,)
            used |= mask
    ub = min(len(cands), bound)

    if len(best) < ub:
        nodes = 0
        stack: list[tuple[int, int, tuple[int, ...]]] = [(0, 0, ())]
        while stack:
            i, used, chosen = stack.pop()
            nodes += 1
            if nodes > ANTICHAIN_NODE_BUDGET:
                raise SizeError(
                    f"antichain search exceeded the node budget of {ANTICHAIN_NODE_BUDGET}"
                )
            if len(chosen) > len(best):
                best = chosen
                if len(best) >= ub:
                    break
            if i == len(cands):
                continue
            if len(chosen) + (len(cands) - i) <= len(best):
                continue
            free = space.atom_count - used.bit_count()
            if len(chosen) + free // cands[i].bit_count() <= len(best):
                continue  # members from i on are at least this large
            stack.append((i + 1, used, chosen))
            if cands[i] & used == 0:
                stack.append((i + 1, used | cands[i], chosen + (cands[i],)))

    return len(best), tuple(Element(space, mask) for mask in best)


def max_antichain(frag: Fragmentation, n: int, *, validate: bool = True) -> AntichainReport:
    """Exact maximal-antichain constant K_n of level n, with a witness."""
    mins = require_valid(frag, graded=False) if validate else None
    level = frag.level(n)
    if mins is None:
        return AntichainReport(n, *max_disjoint_family(level, frag.space))
    return AntichainReport(n, *_max_disjoint_minimal(mins[n - 1], frag.space))


def _threshold_levels(space: AtomSpace, sums: Sequence[int], unit: int) -> Fragmentation:
    """Levels C_n = {mask : sums[mask] / unit >= 1/2^n}, down to the first
    level that holds every singleton; level n is level n-1 plus the next band
    of masks by sum, those with sums[mask] >= ceil(unit / 2^n)."""
    order = sorted(range(1, space.unit_mask + 1), key=sums.__getitem__)
    minimum = min(sums[1 << x] for x in range(space.atom_count))
    tables, top = [0], len(order)
    bar = unit + 1  # above every value, so there is at least one level
    while minimum < bar:
        bar = -(-unit >> len(tables))
        cut = bisect_left(order, bar, hi=top, key=sums.__getitem__)
        tables.append(tables[-1] | _table(space, order[cut:top]))
        top = cut
    return _of_tables(space, tables[1:])


def from_measure(m: Measure) -> Fragmentation:
    """Threshold fragmentation of a strictly positive measure at 1/2^n.

    The number of levels is minimal with the last level equal to all of B+.
    """
    if not m.strictly_positive:
        raise InputError("threshold fragmentation needs a strictly positive measure")
    enumerate_nonzero(m.space)  # refuses before the 2^n table is built
    return _threshold_levels(m.space, subset_sums(m.numerators), m.denominator)


def check_submeasure(phi: Submeasure) -> tuple[list[int], int]:
    """Validate the submeasure table exhaustively; raises InputError.

    Monotonicity is checked on one-atom extensions and subadditivity on
    disjoint pairs, which imply both properties in general.  Returns
    ``(table, D)``: ``table[mask]`` is the integer D * phi(mask), over the
    least common denominator D of the values.
    """
    space = phi.space
    elements = enumerate_nonzero(space)  # refuses over the cap before the table is built
    vals = [Fraction(0)] * (space.unit_mask + 1)
    for e in elements:
        v = phi.values.get(e)
        if v is None:
            raise InputError(f"submeasure table misses element {e.atoms}")
        v = Fraction(v)
        if not 0 < v <= 1:
            raise InputError(f"submeasure value {v} at {e.atoms} is outside (0, 1]")
        vals[e.mask] = v
    zero = space.zero
    if zero in phi.values and Fraction(phi.values[zero]) != 0:
        raise InputError("submeasure must vanish at zero")
    if vals[space.unit_mask] != 1:
        raise InputError("submeasure must be 1 on the unit")
    table, unit = over_common_denominator(vals)
    for mask in range(1, space.unit_mask + 1):
        value = table[mask]
        rest = space.unit_mask & ~mask
        probe = rest
        while probe:
            low = probe & -probe
            probe ^= low
            if value > table[mask | low]:
                raise InputError(
                    f"submeasure is not monotone between masks {mask:b} and {mask | low:b}"
                )
        # each disjoint pair once, from its smaller mask: the least mask in a
        # violating pair is its smaller one, so the same violation is named
        b = rest
        while b > mask:
            if table[mask | b] > value + table[b]:
                raise InputError(
                    f"submeasure is not subadditive on disjoint masks {mask:b}, {b:b}"
                )
            b = (b - 1) & rest
    return table, unit


def from_submeasure(phi: Submeasure) -> Fragmentation:
    """Threshold fragmentation of a valid submeasure at 1/2^n.

    Gradedness of the result is exactly subadditivity made executable: if
    phi(a | b) >= 1/2^n then one of phi(a), phi(b) is >= 1/2^(n+1).
    """
    table, unit = check_submeasure(phi)
    return _threshold_levels(phi.space, table, unit)


def extract_graded_subfragmentation(frag: Fragmentation) -> Fragmentation:
    """Greedy graded subfragmentation.

    Starting from the first level, repeatedly jump to the least later level
    that absorbs one part of every complemented split of the current level's
    members; a top level equal to B+ (appended when absent) always does, so
    the greedy step cannot fail.  The selected levels pass ``check_graded``.
    """
    _refuse(_nested_upward_violation(frag))
    tables, full = list(frag._tables), (1 << (1 << frag.space.atom_count)) - 2
    if tables[-1] != full:
        tables.append(full)

    picks = [0]
    while picks[-1] < len(tables) - 1:
        mins = _minimal_members(tables[picks[-1]], frag.space)
        later = range(picks[-1] + 1, len(tables))
        nxt = next((k for k in later if _graded_step_violation(frag.space, mins, tables[k]) is None), None)
        if nxt is None:
            raise ContractError("no absorbing level found; the top level must equal B+")
        picks.append(nxt)
    return _of_tables(frag.space, [tables[i] for i in picks])

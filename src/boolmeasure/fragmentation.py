"""Fragmentations: nested, upward-closed levels covering the nonzero elements.

A fragmentation is materialized as explicit level sets so that nestedness,
upward closure, covering, gradedness, and antichain bounds are all directly
checkable.  Gradedness ("whenever a union lands in a level, one part lands in
the next") is checked over complemented splits of inclusion-minimal level
members only; both reductions are sound given nestedness and upward closure
and are validated against brute force in the test suite.

Threshold families of a strictly positive measure or submeasure at 1/2^n are
fragmentations, are graded, and have level antichains of size at most 2^n;
``from_measure`` / ``from_submeasure`` build them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .algebra import (
    ENUMERATION_CAP,
    AtomSpace,
    Collection,
    Element,
    canonical_key,
    enumerate_nonzero,
    minimal_elements,
)
from .errors import ContractError, InputError, SizeError
from .intersection import intersection_number, over_common_denominator
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


def _mask_sets(frag: Fragmentation) -> list[frozenset[int]]:
    return [frozenset(e.mask for e in lv) for lv in frag.levels]


def _nested_upward_violation(
    frag: Fragmentation, masks: list[frozenset[int]]
) -> FragmentationViolation | None:
    for n in range(len(masks) - 1):
        if not masks[n] <= masks[n + 1]:
            missing = min(
                (e for e in frag.levels[n] if e.mask not in masks[n + 1]), key=canonical_key
            )
            return FragmentationViolation("nested", n + 1, (missing,))
    bits = [1 << x for x in range(frag.space.atom_count)]
    for n, lv in enumerate(frag.levels):
        # one-step covers suffice: upward closure fails iff some member plus
        # a single atom escapes the level; sorting only names the first
        escapes = [(e, e.mask | b) for e in lv for b in bits if (e.mask | b) not in masks[n]]
        if escapes:
            e = min((e for e, _ in escapes), key=canonical_key)
            sup = next(sup for member, sup in escapes if member is e)
            return FragmentationViolation("upward", n + 1, (e, Element(frag.space, sup)))
    return None


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
    elements = enumerate_nonzero(frag.space)  # refuses over the cap before any scan
    masks = _mask_sets(frag)
    violation = _nested_upward_violation(frag, masks)
    if violation is None and len(masks[-1]) < len(elements):
        # the levels are nested, so the last one holds every member
        missing = next(e for e in elements if e.mask not in masks[-1])
        violation = FragmentationViolation("covering", frag.depth, (missing,))
    return FragmentationReport(violation is None, violation)


def require_valid(frag: Fragmentation, *, graded: bool) -> list[list[Element]]:
    """The one validation path: nestedness, upward closure and covering, then
    gradedness when ``graded`` is set.

    Returns each level's minimal members in canonical order.  Raises
    :class:`ContractError` whose ``violation`` is the first
    :class:`FragmentationViolation` or :class:`GradedWitness` found.
    """
    _refuse(check_fragmentation(frag).violation)
    mins = [_minimal_sorted(lv) for lv in frag.levels]
    if graded:
        _refuse(_graded_witness(frag, _mask_sets(frag), mins))
    return mins


def _submasks_ascending(mask: int) -> list[int]:
    subs = []
    sub = mask
    while sub:
        subs.append(sub)
        sub = (sub - 1) & mask
    subs.reverse()
    return subs


def _graded_step_violation(
    space: AtomSpace, minimal_members: Sequence[Element], next_masks: frozenset[int]
) -> tuple[Element, Element] | None:
    """First (whole, part) whose complemented split misses the next level.

    Checking complemented splits of minimal members suffices: an arbitrary
    union c = a | b reduces to the split (a & c', c' - a) of a minimal c' <= c,
    and upward closure lifts the landing part back above a or b.
    """
    for c in minimal_members:
        cmask = c.mask
        if cmask.bit_count() < 2:
            continue
        for a in _submasks_ascending(cmask):
            b = cmask ^ a
            if a >= b:
                break  # each unordered split once, smaller part named
            if a not in next_masks and b not in next_masks:
                return c, Element(space, a)
    return None


def _minimal_sorted(level: Iterable[Element]) -> list[Element]:
    """Minimal members of an upward-closed level, in canonical order."""
    return sorted(minimal_elements(level, closed_upward=True), key=canonical_key)


def _graded_witness(
    frag: Fragmentation, masks: list[frozenset[int]], mins: Iterable[list[Element]]
) -> GradedWitness | None:
    """First gradedness failure of a nested, upward-closed fragmentation,
    given its levels' minimal members in canonical order."""
    for n, level_mins in zip(range(len(frag.levels) - 1), mins):
        hit = _graded_step_violation(frag.space, level_mins, masks[n + 1])
        if hit is not None:
            return GradedWitness(n + 1, *hit)
    return None


def check_graded(frag: Fragmentation) -> GradedReport:
    """Check gradedness level by level (the top level is exempt).

    Requires nestedness and upward closure (covering is not needed and is not
    demanded, so threshold-style partial fragmentations can be checked too);
    raises :class:`ContractError` when those prerequisites fail.
    """
    masks = _mask_sets(frag)
    _refuse(_nested_upward_violation(frag, masks))
    witness = _graded_witness(frag, masks, map(_minimal_sorted, frag.levels))
    return GradedReport(witness is None, witness)


def max_disjoint_family(members: Iterable[Element], space: AtomSpace) -> tuple[int, tuple[Element, ...]]:
    """Exact maximum pairwise-disjoint subfamily by branch and bound.

    Search runs over inclusion-minimal members (any disjoint family shrinks
    onto minimal members without losing size), capped at the root by the
    fractional-packing LP bound floor(1/kappa).
    """
    return _max_disjoint_minimal(
        sorted(minimal_elements(members, closed_upward=False), key=canonical_key), space
    )


def _max_disjoint_minimal(
    cands: Sequence[Element], space: AtomSpace
) -> tuple[int, tuple[Element, ...]]:
    """``max_disjoint_family`` of distinct minimal members in canonical order."""
    if not cands:
        return 0, ()
    bound = len(cands)
    if space.atom_count <= ENUMERATION_CAP:  # keeps the LP off very wide atom spaces
        bound = math.floor(1 / intersection_number(Collection(space, tuple(cands))).value)
    return search_disjoint_family(cands, space, bound)


def search_disjoint_family(
    cands: Sequence[Element], space: AtomSpace, bound: int
) -> tuple[int, tuple[Element, ...]]:
    """Largest pairwise-disjoint subfamily of ``cands``, by branch and bound.

    ``cands`` are distinct inclusion-minimal members in canonical order and
    ``bound`` an upper bound on the answer, such as floor(1/kappa) of the
    family; the search stops as soon as a family reaches it.
    """
    masks = [e.mask for e in cands]
    best: tuple[Element, ...] = ()
    used = 0
    for e in cands:  # greedy incumbent, smallest members first
        if e.mask & used == 0:
            best = best + (e,)
            used |= e.mask
    ub = min(len(cands), bound)

    if len(best) < ub:
        nodes = 0
        stack: list[tuple[int, int, tuple[Element, ...]]] = [(0, 0, ())]
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
            if len(chosen) + free // masks[i].bit_count() <= len(best):
                continue  # members from i on are at least this large
            stack.append((i + 1, used, chosen))
            if masks[i] & used == 0:
                stack.append((i + 1, used | masks[i], chosen + (cands[i],)))

    witness = tuple(sorted(best, key=canonical_key))
    return len(witness), witness


def max_antichain(frag: Fragmentation, n: int, *, validate: bool = True) -> AntichainReport:
    """Exact maximal-antichain constant K_n of level n, with a witness."""
    mins = require_valid(frag, graded=False) if validate else None
    level = frag.level(n)
    if mins is None:
        return AntichainReport(n, *max_disjoint_family(level, frag.space))
    return AntichainReport(n, *_max_disjoint_minimal(mins[n - 1], frag.space))


def _threshold_levels(
    space: AtomSpace, sums: Sequence[int], unit: int, elements: Sequence[Element]
) -> Fragmentation:
    """Levels C_n = {e : sums[e.mask] / unit >= 1/2^n}, down to the first
    level that holds every singleton.  ``sums`` holds integers, so the test
    sums[mask] << n >= unit reads sums[mask] >= ceil(unit / 2^n)."""
    minimum = min(sums[1 << x] for x in range(space.atom_count))
    levels: list[frozenset[Element]] = []
    bar = unit + 1  # above every value, so there is at least one level
    while minimum < bar:
        bar = -(-unit >> (len(levels) + 1))
        levels.append(frozenset(e for e in elements if sums[e.mask] >= bar))
    return Fragmentation(space, tuple(levels))


def from_measure(m: Measure) -> Fragmentation:
    """Threshold fragmentation of a strictly positive measure at 1/2^n.

    The number of levels is minimal with the last level equal to all of B+.
    """
    if not m.strictly_positive:
        raise InputError("threshold fragmentation needs a strictly positive measure")
    elements = enumerate_nonzero(m.space)  # refuses before the 2^n table is built
    return _threshold_levels(m.space, subset_sums(m.numerators), m.denominator, elements)


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
    return _threshold_levels(phi.space, table, unit, enumerate_nonzero(phi.space))


def extract_graded_subfragmentation(frag: Fragmentation) -> Fragmentation:
    """Greedy graded subfragmentation.

    Starting from the first level, repeatedly jump to the least later level
    that absorbs one part of every complemented split of the current level's
    members; a top level equal to B+ (appended when absent) always does, so
    the greedy step cannot fail.  The selected levels pass ``check_graded``.
    """
    _refuse(_nested_upward_violation(frag, _mask_sets(frag)))
    levels = list(frag.levels)
    full = frozenset(enumerate_nonzero(frag.space))
    if levels[-1] != full:
        levels.append(full)
    masks = [frozenset(e.mask for e in lv) for lv in levels]

    picks = [0]
    cur = 0
    while cur < len(levels) - 1:
        mins = _minimal_sorted(levels[cur])
        nxt = None
        for k in range(cur + 1, len(levels)):
            if _graded_step_violation(frag.space, mins, masks[k]) is None:
                nxt = k
                break
        if nxt is None:
            raise ContractError("no absorbing level found; the top level must equal B+")
        picks.append(nxt)
        cur = nxt
    return Fragmentation(frag.space, tuple(levels[i] for i in picks))

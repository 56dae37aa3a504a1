"""Indexed families of 3-point sets with the expansion property.

A family {A_i : i in M} of 3-subsets of P = {0..p-1} "expands up to k" when
every index set I with |I| <= k satisfies |union of A_i| > |I|.  Such families
exist with positive probability whenever p/k >= 15 m/p (a counting argument),
so construction here is randomized with verification and retries.  Only
index sets connected through shared points need checking, since a violator of
least size is connected; verification enumerates exactly those.
Strict expansion implies Hall's condition on every I with |I| <= k, so an
injective choice function exists and is extracted by augmenting-path matching.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Mapping

from .errors import ConstructionError, HallViolationError, InputError, SizeError

#: Retry cap for the randomized construction.
RETRY_CAP = 1000

#: Cap on the number of index sets verify_expansion will enumerate.
VERIFY_BUDGET = 2_000_000


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class ExpanderFamily:
    """m three-point subsets of {0..p-1}, expanding up to k when verified."""

    m_size: int
    p_size: int
    k: int
    sets: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        if not all(_is_int(v) and v >= 1 for v in (self.m_size, self.p_size, self.k)):
            raise InputError("family parameters must be positive integers")
        if len(self.sets) != self.m_size:
            raise InputError(f"expected {self.m_size} sets, got {len(self.sets)}")
        normalized = []
        for i, s in enumerate(self.sets):
            if not all(_is_int(x) for x in s):
                raise InputError(f"set {i} holds a point that is not an integer: {s!r}")
            t = tuple(sorted(s))
            if len(t) != 3 or len(set(t)) != 3:
                raise InputError(f"set {i} is not a 3-element set: {s!r}")
            if t[0] < 0 or t[-1] >= self.p_size:
                raise InputError(f"set {i} leaves the point range 0..{self.p_size - 1}")
            normalized.append(t)
        object.__setattr__(self, "sets", tuple(normalized))

    def masks(self) -> list[int]:
        return [(1 << a) | (1 << b) | (1 << c) for (a, b, c) in self.sets]


@dataclass(frozen=True)
class ChoiceFunction:
    """An injective selection f(i) in A_i over the index set I."""

    indices: tuple[int, ...]
    assignment: Mapping[int, int]


@dataclass(frozen=True)
class ExpansionReport:
    ok: bool
    violating: tuple[int, ...] | None
    checked: int


def check_preconditions(m: int, p: int, k: int) -> bool:
    """Whether (m, p, k) admits the counting argument: 3 <= k <= p and
    p/k >= 15 m/p, as the exact integer test p*p >= 15*m*k."""
    if m < 1 or p < 1:
        return False
    return 3 <= k <= p and p * p >= 15 * m * k


def verify_expansion(family: ExpanderFamily) -> ExpansionReport:
    """Check |union over I| > |I| for every connected I with 1 <= |I| <= k.

    I is connected when the graph joining two indices whose 3-sets share a
    point is connected on I.  A violator of least size is connected, since
    disjoint parts add up their unions and one part would violate with fewer
    indices; so checking connected sets decides expansion, and the violator
    reported is the least one in (size, lex) order over all index sets.
    Connected sets are enumerated depth-first by ESU (Wernicke 2006), each
    once and all of them whatever the verdict; ``checked`` counts them and
    :class:`SizeError` is raised once it passes ``VERIFY_BUDGET``.
    """
    m, k = family.m_size, min(family.k, family.m_size)
    masks = family.masks()
    holders: dict[int, int] = {}  # point -> bit mask of the indices whose set holds it
    for i, s in enumerate(family.sets):
        for point in s:
            holders[point] = holders.get(point, 0) | 1 << i
    neighbours = [
        (holders[a] | holders[b] | holders[c]) & ~(1 << i) for i, (a, b, c) in enumerate(family.sets)
    ]
    checked = 0
    least: tuple[int, tuple[int, ...]] | None = None
    for v in range(m):
        # ESU from v: the sets whose least index is v.  A set grows by an
        # index from its extension, whose neighbours above v that neither lie
        # in the set nor neighbour it join the extension of the larger set.
        above = -1 << (v + 1)
        stack = [(1 << v, neighbours[v] & above, neighbours[v] | 1 << v, masks[v], 1)]
        while stack:
            members, extension, closed, union, size = stack.pop()
            checked += 1
            if checked > VERIFY_BUDGET:
                raise SizeError(
                    f"connected index sets of size <= {k} exceed the verification "
                    f"budget of {VERIFY_BUDGET}"
                )
            if union.bit_count() <= size:
                violating = (size, tuple(i for i in range(v, m) if members >> i & 1))
                if least is None or violating < least:
                    least = violating
            if size == k:
                continue
            while extension:
                low = extension & -extension
                extension ^= low
                w = low.bit_length() - 1
                stack.append(
                    (
                        members | low,
                        extension | (neighbours[w] & above & ~closed),
                        closed | neighbours[w],
                        union | masks[w],
                        size + 1,
                    )
                )
    if least is None:
        return ExpansionReport(True, None, checked)
    return ExpansionReport(False, least[1], checked)


def build_expander(m: int, p: int, k: int, seed: int) -> ExpanderFamily:
    """Sample random 3-subsets until exhaustive verification succeeds.

    Deterministic in ``seed``; raises :class:`ConstructionError` with the
    attempt count when the retry cap is exhausted.
    """
    if not check_preconditions(m, p, k):
        raise InputError(
            f"(m={m}, p={p}, k={k}) fails the construction precondition "
            "(need 3 <= k <= p and p*p >= 15*m*k)"
        )
    rng = random.Random(seed)
    for _ in range(RETRY_CAP):
        sets = tuple(tuple(sorted(rng.sample(range(p), 3))) for _ in range(m))
        family = ExpanderFamily(m, p, k, sets)
        if verify_expansion(family).ok:
            return family
    raise ConstructionError(
        f"no verified family within {RETRY_CAP} attempts at (m={m}, p={p}, k={k})",
        attempts=RETRY_CAP,
    )


def choice_function(family: ExpanderFamily, indices: Iterable[int]) -> ChoiceFunction:
    """Injective f with f(i) in A_i for all i in I, via augmenting paths.

    For a verified family this succeeds whenever |I| <= k (strict expansion
    gives Hall's condition with slack).  When no perfect matching exists a
    :class:`HallViolationError` carries a deficient subset of I.
    """
    idx = tuple(sorted(set(indices)))
    for i in idx:
        if not 0 <= i < family.m_size:
            raise InputError(f"index {i} outside 0..{family.m_size - 1}")
    if len(idx) > family.k:
        raise InputError(f"|I| = {len(idx)} exceeds the family's k = {family.k}")

    match_of_point: dict[int, int] = {}

    def augment(i: int, banned: set[int]) -> bool:
        for point in family.sets[i]:
            if point in banned:
                continue
            banned.add(point)
            holder = match_of_point.get(point)
            if holder is None or augment(holder, banned):
                match_of_point[point] = i
                return True
        return False

    for i in idx:
        if not augment(i, set()):
            deficient = _deficient_subset(family, idx, match_of_point, i)
            raise HallViolationError(
                f"no injective choice on I = {idx}: indices {deficient} reach only "
                f"{len(set().union(*(set(family.sets[j]) for j in deficient)))} points",
                deficient=deficient,
            )
    assignment = {i: p for p, i in match_of_point.items()}
    return ChoiceFunction(idx, assignment)


def _deficient_subset(
    family: ExpanderFamily,
    idx: tuple[int, ...],
    match_of_point: dict[int, int],
    unmatched: int,
) -> tuple[int, ...]:
    """Indices reachable from an unmatched one by alternating paths; their
    point neighbourhood is one smaller, witnessing Hall's failure."""
    reach = {unmatched}
    frontier = [unmatched]
    while frontier:
        i = frontier.pop()
        for point in family.sets[i]:
            holder = match_of_point.get(point)
            if holder is not None and holder not in reach:
                reach.add(holder)
                frontier.append(holder)
    return tuple(sorted(reach))

"""Independent oracles used to freeze expected values.

Each routine here deliberately avoids the code path it checks: the LP oracle
enumerates basic solutions instead of pivoting, the packing oracle runs a
mask DP instead of branch and bound, the gradedness oracle enumerates
every decomposition (overlapping ones included) instead of complemented
splits of minimal members, the violation oracle scans ``Element`` sets
instead of per-level truth tables, the submeasure oracle adds ``Fraction``s
over every ordered disjoint pair instead of integers over each unordered
one, the threshold oracle tests every element against every 1/2^n in
``Fraction``s instead of cutting integer sums into truth tables, and the
expansion oracles run over every index set instead of only the connected
ones.  ``reconstruct`` reads a signature partition back into its members.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Mapping

from boolmeasure.algebra import AtomSpace, Element
from boolmeasure.certify import SignaturePartition
from boolmeasure.expanders import ExpanderFamily
from boolmeasure.fragmentation import Fragmentation


def _solve_square(rows: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction] | None:
    n = len(rows)
    aug = [list(rows[i]) + [rhs[i]] for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if piv is None:
            return None  # singular: no unique solution through this subset
        aug[col], aug[piv] = aug[piv], aug[col]
        pv = aug[col][col]
        aug[col] = [v / pv for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    return [aug[r][-1] for r in range(n)]


def lp_optimum_by_vertex_enumeration(
    objective,
    constraints: list[tuple],
    *,
    maximize: bool = False,
) -> Fraction | None:
    """Optimal value over x >= 0 by enumerating all candidate vertices, or
    None if no vertex is feasible.  Each constraint is a ``(coeffs, relation,
    rhs)`` tuple with relation ``"<="``, ``">="`` or ``"="``.  Only suitable
    for small bounded-feasible programs."""
    objective = [Fraction(v) for v in objective]
    n = len(objective)
    cons = [([Fraction(c) for c in coeffs], rel, Fraction(rhs)) for coeffs, rel, rhs in constraints]
    planes: list[tuple[list[Fraction], Fraction]] = [(coeffs, rhs) for coeffs, _, rhs in cons]
    for j in range(n):
        row = [Fraction(0)] * n
        row[j] = Fraction(1)
        planes.append((row, Fraction(0)))

    def feasible(x: list[Fraction]) -> bool:
        if any(v < 0 for v in x):
            return False
        for coeffs, rel, rhs in cons:
            lhs = sum((c * v for c, v in zip(coeffs, x)), Fraction(0))
            if rel == "<=" and lhs > rhs:
                return False
            if rel == ">=" and lhs < rhs:
                return False
            if rel == "=" and lhs != rhs:
                return False
        return True

    best: Fraction | None = None
    for subset in combinations(range(len(planes)), n):
        rows = [planes[i][0] for i in subset]
        rhs = [planes[i][1] for i in subset]
        x = _solve_square(rows, rhs)
        if x is None or not feasible(x):
            continue
        value = sum((c * v for c, v in zip(objective, x)), Fraction(0))
        if best is None or (value > best if maximize else value < best):
            best = value
    return best


def max_packing_by_mask_dp(members: list[Element], space: AtomSpace) -> int:
    """Exact maximum pairwise-disjoint subfamily size by DP over atom masks."""
    masks = sorted({e.mask for e in members})
    memo: dict[int, int] = {0: 0}

    def solve(avail: int) -> int:
        if avail in memo:
            return memo[avail]
        low = avail & -avail
        best = solve(avail ^ low)  # leave the lowest free atom uncovered
        for mk in masks:
            if mk & low and mk & avail == mk:
                best = max(best, 1 + solve(avail ^ mk))
        memo[avail] = best
        return best

    return solve(space.unit_mask)


def graded_by_full_decomposition(frag: Fragmentation) -> bool:
    """Gradedness checked over every union decomposition, overlaps included."""
    mask_levels = [frozenset(e.mask for e in lv) for lv in frag.levels]
    for n in range(frag.depth - 1):
        nxt = mask_levels[n + 1]
        for c in frag.levels[n]:
            cmask = c.mask
            subs = []
            sub = cmask
            while sub:
                subs.append(sub)
                sub = (sub - 1) & cmask
            subs.append(0)
            for a in subs:
                for b in subs:
                    if a | b == cmask and a not in nxt and b not in nxt:
                        return False
    return True


def minimal_by_definition(level) -> list[Element]:
    """Members of ``level`` with no other member strictly below them."""
    return [c for c in level if not any(d != c and d.mask & c.mask == d.mask for d in level)]


def fragmentation_violation(frag: Fragmentation) -> tuple[str, int, tuple[Element, ...]] | None:
    """The ``(kind, level, elements)`` violation a fragmentation check names.

    Checks run in order: nestedness over every level, then upward closure
    over every level, then covering.  Each names the least member in
    canonical order (size, then atoms) of the first level that fails; an
    upward violation pairs it with its union with the least atom that
    leaves the level.
    """
    space = frag.space

    def least(members):
        return min(members, key=lambda e: (e.size, e.atoms))

    for n in range(frag.depth - 1):
        missing = [e for e in frag.levels[n] if e not in frag.levels[n + 1]]
        if missing:
            return "nested", n + 1, (least(missing),)
    for n, level in enumerate(frag.levels):
        escaping = [
            e for e in level
            if any(e.union(space.singleton(x)) not in level for x in range(space.atom_count))
        ]
        if escaping:
            e = least(escaping)
            x = min(x for x in range(space.atom_count) if e.union(space.singleton(x)) not in level)
            return "upward", n + 1, (e, e.union(space.singleton(x)))
    nonzero = map(space.from_mask, range(1, space.unit_mask + 1))
    uncovered = [e for e in nonzero if e not in frag.levels[-1]]
    if uncovered:
        return "covering", frag.depth, (least(uncovered),)
    return None


def submeasure_violation(space: AtomSpace, values: Mapping[Element, Fraction]) -> str | None:
    """The message of the first submeasure axiom ``values`` fails, or None.

    Values are read in canonical order (size, then atoms), then checked for
    vanishing at zero and normalization.  Monotonicity and subadditivity run
    in ``Fraction``s over every ordered pair: masks ascending, for each its
    one-atom extensions by ascending atom, then every nonzero disjoint partner
    in descending order.
    """
    n = space.atom_count
    unit = (1 << n) - 1

    def atoms(mask: int) -> tuple[int, ...]:
        return tuple(x for x in range(n) if mask >> x & 1)

    phi = [Fraction(0)] * (unit + 1)
    for mask in sorted(range(1, unit + 1), key=lambda m: (m.bit_count(), atoms(m))):
        e = space.from_mask(mask)
        if e not in values:
            return f"submeasure table misses element {atoms(mask)}"
        v = Fraction(values[e])
        if not 0 < v <= 1:
            return f"submeasure value {v} at {atoms(mask)} is outside (0, 1]"
        phi[mask] = v
    if values.get(space.zero, 0) != 0:
        return "submeasure must vanish at zero"
    if phi[unit] != 1:
        return "submeasure must be 1 on the unit"
    for a in range(1, unit + 1):
        for x in range(n):
            if not a >> x & 1 and phi[a] > phi[a | 1 << x]:
                return f"submeasure is not monotone between masks {a:b} and {a | 1 << x:b}"
        for b in range(unit, 0, -1):
            if a & b == 0 and phi[a | b] > phi[a] + phi[b]:
                return f"submeasure is not subadditive on disjoint masks {a:b}, {b:b}"
    return None


def threshold_levels(values: Mapping[Element, Fraction]) -> list[frozenset[Element]]:
    """The threshold levels {e : values[e] >= 1/2^n} of the nonzero elements
    ``values`` names, for n = 1, 2, ... up to the first level holding every
    one of them."""
    levels: list[frozenset[Element]] = []
    while not levels or len(levels[-1]) < len(values):
        bar = Fraction(1, 2 ** (len(levels) + 1))
        levels.append(frozenset(e for e, v in values.items() if v >= bar))
    return levels


def reconstruct(partition: SignaturePartition, i: int) -> Element:
    """The union of the cells whose signature holds i: member i again."""
    mask = 0
    for sig, cell in partition.cells.items():
        if i in sig:
            mask |= cell.mask
    return Element(partition.sequence[i].space, mask)


def expansion_violation_bruteforce(family: ExpanderFamily) -> tuple[int, ...] | None:
    """The least index set I in (size, lex) order with |union of A_i| <= |I|
    among all I with 1 <= |I| <= k, or None when the family expands."""
    for j in range(1, min(family.k, family.m_size) + 1):
        for idx in combinations(range(family.m_size), j):
            if len(set().union(*(family.sets[i] for i in idx))) <= j:
                return idx
    return None


def connected_index_set_count(family: ExpanderFamily) -> int:
    """How many I with 1 <= |I| <= k are connected when indices whose sets
    share a point are joined, by a search inside every combination."""
    count = 0
    for j in range(1, min(family.k, family.m_size) + 1):
        for idx in combinations(range(family.m_size), j):
            reached = {idx[0]}
            frontier = [idx[0]]
            while frontier:
                i = frontier.pop()
                for o in idx:
                    if o not in reached and set(family.sets[i]) & set(family.sets[o]):
                        reached.add(o)
                        frontier.append(o)
            count += len(reached) == j
    return count

"""Exact packing LP by the single-phase primal simplex method.

The library solves one LP shape, the packing LP of a collection: one column
per member (an atom bitmask), one row per atom, and

    maximize sum(y)  subject to  sum(y_c for c containing x) <= 1  for each
    row atom x,  y >= 0.

It is feasible at y = 0, so the slack basis is a feasible start and no
phase 1 is needed, and it is bounded because every column meets a row.

Every coefficient is a ``fractions.Fraction``; no floating point enters any
computation.  Pivoting uses Bland's smallest-index rule, which rules out
cycling and guarantees termination.  Problem sizes here are desk scale, so a
dense tableau plus the anti-cycling rule is the right trade.

The solver returns an optimal basic solution together with exact dual values,
one per row: the final reduced costs of the slack columns.  Every right-hand
side is one, so ``sum(duals)`` equals the optimal objective.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import InternalError

_MAX_PIVOTS_BASE = 20_000
_ZERO, _ONE = Fraction(0), Fraction(1)


@dataclass(frozen=True)
class LPSolution:
    objective: Fraction
    variables: tuple[Fraction, ...]
    duals: tuple[Fraction, ...]


def exact_lp_solve(columns: Sequence[int], rows: Sequence[int]) -> LPSolution:
    """Maximize ``sum(y)`` over the packing LP of ``columns`` on ``rows``.

    ``columns[j]`` is the atom bitmask of member j and ``rows[i]`` the atom
    whose constraint is row i.  ``variables`` holds y per column and
    ``duals`` the optimal atom prices per row.
    """
    n, m = len(columns), len(rows)
    width = n + m
    # One row per atom: the 0/1 incidence columns, the slack identity, and
    # the right-hand side one.  The slacks form the starting basis.
    tableau = [
        [_ONE if (mask >> x) & 1 else _ZERO for mask in columns]
        + [_ONE if r == i else _ZERO for r in range(m)]
        + [_ONE]
        for i, x in enumerate(rows)
    ]
    basis = list(range(n, width))
    # Reduced costs of the maximization; a negative entry may enter, and the
    # last entry is the objective value of the current basis.
    cost = [-_ONE] * n + [_ZERO] * (m + 1)

    max_pivots = _MAX_PIVOTS_BASE + 50 * (m + width)
    for _ in range(max_pivots + 1):  # the budget fails on pivot max_pivots + 1
        enter = next((j for j in range(width) if cost[j] < 0), -1)  # Bland
        if enter < 0:
            break
        leave = -1
        best: Fraction | None = None
        for r, row in enumerate(tableau):
            coef = row[enter]
            if coef > 0:
                ratio = row[-1] / coef
                if best is None or ratio < best or (ratio == best and basis[r] < basis[leave]):
                    best, leave = ratio, r
        if leave < 0:
            raise InternalError(f"packing column {enter} meets no row, so the LP is unbounded")
        piv = tableau[leave][enter]
        prow = tableau[leave] = [v / piv for v in tableau[leave]]
        support = [(j, v) for j, v in enumerate(prow) if v]
        for r, row in enumerate(tableau):
            f = row[enter]
            if r != leave and f != 0:
                for j, v in support:
                    row[j] -= f * v
        f = cost[enter]
        for j, v in support:
            cost[j] -= f * v
        basis[leave] = enter
    else:
        raise InternalError("pivot budget exceeded; anti-cycling rule violated?")

    variables = [_ZERO] * n
    for r, b in enumerate(basis):
        if b < n:
            variables[b] = tableau[r][-1]
    duals = cost[n:width]
    if sum(duals, _ZERO) != cost[-1]:
        raise InternalError("dual values do not reproduce the optimal objective")
    return LPSolution(cost[-1], tuple(variables), tuple(duals))

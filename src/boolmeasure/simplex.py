"""Exact packing LP by the single-phase primal simplex method.

The library solves one LP shape, the packing LP of a collection: one column
per member (an atom bitmask), one row per atom, and

    maximize sum(y)  subject to  sum(y_c for c containing x) <= 1  for each
    row atom x,  y >= 0.

It is feasible at y = 0, so the slack basis is a feasible start and no
phase 1 is needed, and it is bounded because every column meets a row.

The tableau is fraction-free (Edmonds 1967; Bareiss 1968): every entry is a
Python integer over one common denominator, the determinant of the current
basis, which starts at 1 and stays positive because every pivot entry is.
Each pivot divides exactly, so no ``Fraction`` and no floating point enters
the pivot loop, and a ``Fraction`` is built only for each returned value.
Pivoting uses Bland's smallest-index rule, which rules out cycling and
guarantees termination.  Problem sizes here are desk scale, so a dense
tableau plus the anti-cycling rule is the right trade.

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
    # the right-hand side one.  The slacks form the starting basis.  Every
    # entry is an integer over the common denominator det.
    tableau = [
        [(mask >> x) & 1 for mask in columns] + [int(r == i) for r in range(m)] + [1]
        for i, x in enumerate(rows)
    ]
    basis = list(range(n, width))
    # Reduced costs of the maximization, over det as well; a negative entry
    # may enter, and the last entry is the objective value of the basis.
    cost = [-1] * n + [0] * (m + 1)
    det = 1  # determinant of the basis; positive, since every pivot is

    max_pivots = _MAX_PIVOTS_BASE + 50 * (m + width)
    for _ in range(max_pivots + 1):  # the budget fails on pivot max_pivots + 1
        enter = next((j for j in range(width) if cost[j] < 0), -1)  # Bland
        if enter < 0:
            break
        # Ratio test rhs/coef over the positive coefficients, cross-multiplied;
        # ties go to the smallest basic index (Bland).
        leave, best_rhs, best_coef = -1, 0, 1
        for r, row in enumerate(tableau):
            coef = row[enter]
            if coef > 0:
                lhs, rhs = row[-1] * best_coef, best_rhs * coef
                if leave < 0 or lhs < rhs or (lhs == rhs and basis[r] < basis[leave]):
                    leave, best_rhs, best_coef = r, row[-1], coef
        if leave < 0:
            raise InternalError(f"packing column {enter} meets no row, so the LP is unbounded")
        # Integer-preserving pivot (Edmonds 1967, Bareiss 1968): the pivot
        # row stays, every other row r becomes (r*piv - r[enter]*prow) / det,
        # which divides exactly, and the pivot becomes the new denominator.
        prow = tableau[leave]
        piv = prow[enter]
        for r, row in enumerate(tableau):
            if r != leave:
                tableau[r] = _eliminate(row, prow, piv, det, enter)
        cost = _eliminate(cost, prow, piv, det, enter)
        det = piv
        basis[leave] = enter
    else:
        raise InternalError("pivot budget exceeded; anti-cycling rule violated?")

    duals = cost[n:width]
    if sum(duals) != cost[-1]:
        raise InternalError("dual values do not reproduce the optimal objective")
    variables = [0] * n
    for r, b in enumerate(basis):
        if b < n:
            variables[b] = tableau[r][-1]
    return LPSolution(
        Fraction(cost[-1], det),
        tuple(Fraction(v, det) for v in variables),
        tuple(Fraction(d, det) for d in duals),
    )


def _eliminate(row: list[int], prow: list[int], piv: int, det: int, enter: int) -> list[int]:
    """``row`` after the pivot on ``prow[enter]``, over the new denominator ``piv``."""
    f = row[enter]
    if f == 0:
        if piv == det:
            return row
        return [v * piv // det for v in row]
    return [(v * piv - f * p) // det for v, p in zip(row, prow)]

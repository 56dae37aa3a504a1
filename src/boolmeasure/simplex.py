"""Exact-arithmetic linear programming by the two-phase primal simplex method.

Every coefficient is a ``fractions.Fraction``; no floating point enters any
computation.  Pivoting uses Bland's smallest-index rule in both phases, which
rules out cycling and guarantees termination.  Problem sizes here are desk
scale, so a dense tableau plus the anti-cycling rule is the right trade.

The solver returns an optimal basic solution together with exact dual values,
one per input constraint, normalized so that ``sum(duals[i] * rhs[i])`` equals
the optimal objective.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import InputError, InternalError, LPInfeasibleError, LPUnboundedError

LEQ, GEQ, EQ = "<=", ">=", "="

_MAX_PIVOTS_BASE = 20_000


@dataclass(frozen=True)
class LPConstraint:
    coeffs: tuple[Fraction, ...]
    relation: str
    rhs: Fraction

    def __post_init__(self):
        if self.relation not in (LEQ, GEQ, EQ):
            raise InputError(f"unknown constraint relation {self.relation!r}")


@dataclass(frozen=True)
class LPSolution:
    objective: Fraction
    variables: tuple[Fraction, ...]
    duals: tuple[Fraction, ...]


def constraint(coeffs: Iterable, relation: str, rhs) -> LPConstraint:
    return LPConstraint(tuple(Fraction(c) for c in coeffs), relation, Fraction(rhs))


def exact_lp_solve(
    objective: Sequence,
    constraints: Sequence[LPConstraint],
    *,
    maximize: bool = False,
    free_variables: Iterable[int] = (),
) -> LPSolution:
    """Optimize ``objective . x`` subject to ``constraints``.

    Variables are nonnegative unless their index appears in ``free_variables``
    (free variables are split internally).  Infeasibility and unboundedness
    are reported as distinct error kinds.
    """
    c_orig = [Fraction(v) for v in objective]
    nvars = len(c_orig)
    free = set(free_variables)
    for f in free:
        if not 0 <= f < nvars:
            raise InputError(f"free variable index {f} out of range")
    for con in constraints:
        if len(con.coeffs) != nvars:
            raise InputError("constraint length does not match objective length")

    # Column layout: columns for the original variables (two per free
    # variable), then one slack/surplus column per inequality row, then
    # artificial columns.  The internal problem is always a minimization.
    var_cols: list[tuple[int, int]] = []
    for j in range(nvars):
        var_cols.append((j, 1))
        if j in free:
            var_cols.append((j, -1))
    sense = -1 if maximize else 1
    c_std = [sense * c_orig[j] * s for (j, s) in var_cols]

    rows: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    sigma: list[int] = []  # row normalization sign applied to reach rhs >= 0
    relations: list[str] = []
    for con in constraints:
        row = [con.coeffs[j] * s for (j, s) in var_cols]
        b = con.rhs
        sig, rel = 1, con.relation
        if b < 0:
            row = [-v for v in row]
            b, sig = -b, -1
            rel = {LEQ: GEQ, GEQ: LEQ, EQ: EQ}[rel]
        rows.append(row)
        rhs.append(b)
        sigma.append(sig)
        relations.append(rel)

    m = len(rows)
    slack_of_row: list[int | None] = [None] * m
    for i, rel in enumerate(relations):
        if rel == EQ:
            continue
        col = len(c_std)
        unit = Fraction(1) if rel == LEQ else Fraction(-1)
        for r in range(m):
            rows[r].append(unit if r == i else Fraction(0))
        c_std.append(Fraction(0))
        if rel == LEQ:
            slack_of_row[i] = col
    n_real = len(c_std)

    basis: list[int] = [0] * m
    artificial_rows = [i for i in range(m) if slack_of_row[i] is None]
    for i in range(m):
        if slack_of_row[i] is not None:
            basis[i] = slack_of_row[i]
    for pos, i in enumerate(artificial_rows):
        basis[i] = n_real + pos
        for r in range(m):
            rows[r].append(Fraction(r == i))

    tableau = [rows[r] + [rhs[r]] for r in range(m)]
    a_original = [t[:n_real] for t in rows]  # pre-pivot matrix, real columns
    row_origin = list(range(m))
    ncols = n_real + len(artificial_rows)
    max_pivots = _MAX_PIVOTS_BASE + 50 * (m + ncols)

    def pivot(r: int, s: int, cost: list[Fraction]) -> None:
        piv = tableau[r][s]
        tableau[r] = [v / piv for v in tableau[r]]
        trow = tableau[r]
        for rr in range(len(tableau)):
            if rr != r and tableau[rr][s] != 0:
                f = tableau[rr][s]
                tableau[rr] = [a - f * b for a, b in zip(tableau[rr], trow)]
        if cost[s] != 0:
            f = cost[s]
            for j in range(len(cost)):
                cost[j] -= f * trow[j]
        basis[r] = s

    def run(cost: list[Fraction], allowed_cols: int, phase: int) -> None:
        pivots = 0
        while True:
            enter = -1
            for j in range(allowed_cols):  # Bland: smallest improving index
                if cost[j] < 0:
                    enter = j
                    break
            if enter < 0:
                return
            leave = -1
            best: Fraction | None = None
            for r in range(len(tableau)):
                coef = tableau[r][enter]
                if coef > 0:
                    ratio = tableau[r][-1] / coef
                    if best is None or ratio < best or (ratio == best and basis[r] < basis[leave]):
                        best = ratio
                        leave = r
            if leave < 0:
                if phase == 1:
                    raise InternalError("phase-1 subproblem cannot be unbounded")
                raise LPUnboundedError("objective is unbounded in the optimization direction")
            pivot(leave, enter, cost)
            pivots += 1
            if pivots > max_pivots:
                raise InternalError("pivot budget exceeded; anti-cycling rule violated?")

    if artificial_rows:
        cost1 = [Fraction(0)] * ncols + [Fraction(0)]
        for j in range(n_real, ncols):
            cost1[j] = Fraction(1)
        for r in range(m):
            if basis[r] >= n_real:
                cost1 = [a - b for a, b in zip(cost1, tableau[r])]
        run(cost1, ncols, phase=1)
        if -cost1[-1] != 0:
            raise LPInfeasibleError("constraints admit no feasible point")
        # Pivot leftover zero-valued artificials out; drop redundant rows.
        r = 0
        while r < len(tableau):
            if basis[r] >= n_real:
                s = next((j for j in range(n_real) if tableau[r][j] != 0), None)
                if s is None:
                    del tableau[r]
                    del basis[r]
                    del row_origin[r]
                    continue
                pivot(r, s, cost1)
            r += 1
        tableau = [t[:n_real] + [t[-1]] for t in tableau]

    cost2 = list(c_std) + [Fraction(0)]
    for r in range(len(tableau)):
        if cost2[basis[r]] != 0:
            f = cost2[basis[r]]
            cost2 = [a - f * b for a, b in zip(cost2, tableau[r])]
    run(cost2, n_real, phase=2)
    obj_internal = -cost2[-1]

    x_std = [Fraction(0)] * n_real
    for r, b in enumerate(basis):
        x_std[b] = tableau[r][-1]
    x = [Fraction(0)] * nvars
    for col, (j, s) in enumerate(var_cols):
        x[j] += s * x_std[col]

    y = _basis_duals(a_original, row_origin, basis, c_std)
    duals = [Fraction(0)] * m
    for pos, orig in enumerate(row_origin):
        duals[orig] = sigma[orig] * y[pos]
    if maximize:
        duals = [-d for d in duals]
    objective_value = sense * obj_internal

    check = sum((duals[i] * constraints[i].rhs for i in range(m)), Fraction(0))
    if check != objective_value:
        raise InternalError("dual values do not reproduce the optimal objective")
    return LPSolution(objective_value, tuple(x), tuple(duals))


def _basis_duals(
    a_original: list[list[Fraction]],
    row_origin: list[int],
    basis: list[int],
    c_std: list[Fraction],
) -> list[Fraction]:
    """Solve ``y^T B = c_B`` for the final basis B by exact elimination."""
    k = len(basis)
    aug = [
        [a_original[row_origin[r]][basis[c]] for r in range(k)] + [c_std[basis[c]]]
        for c in range(k)
    ]
    for col in range(k):
        piv = next((r for r in range(col, k) if aug[r][col] != 0), None)
        if piv is None:
            raise InternalError("singular basis matrix during dual extraction")
        aug[col], aug[piv] = aug[piv], aug[col]
        pv = aug[col][col]
        aug[col] = [v / pv for v in aug[col]]
        for r in range(k):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    return [aug[r][-1] for r in range(k)]

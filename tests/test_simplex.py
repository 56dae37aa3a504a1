import random
from fractions import Fraction as F
from itertools import combinations

import pytest

from boolmeasure.errors import InternalError
from boolmeasure.simplex import exact_lp_solve

from _oracles import lp_optimum_by_vertex_enumeration


def _masks(subsets) -> list[int]:
    return [sum(1 << x for x in subset) for subset in subsets]


def _packing_constraints(columns, rows) -> list[tuple]:
    return [([(mask >> x) & 1 for mask in columns], "<=", 1) for x in rows]


def _check_optimality(columns, rows, sol) -> None:
    # primal and dual feasibility plus equal objectives prove optimality
    assert all(y >= 0 for y in sol.variables)
    for x in rows:
        assert sum(y for mask, y in zip(columns, sol.variables) if (mask >> x) & 1) <= 1
    assert all(d >= 0 for d in sol.duals)
    for mask in columns:
        assert sum(d for x, d in zip(rows, sol.duals) if (mask >> x) & 1) >= 1
    assert sum(sol.variables) == sol.objective
    assert sum(sol.duals) == sol.objective


def test_kappa_lp_all_pairs_of_four():
    # packing form of the intersection game for all 2-subsets of 4 atoms
    columns = _masks(combinations(range(4), 2))
    sol = exact_lp_solve(columns, range(4))
    assert sol.objective == 2  # game value 1/2
    assert sol.duals == (F(1, 2),) * 4  # uniform measure after normalization
    _check_optimality(columns, range(4), sol)
    constraints = _packing_constraints(columns, range(4))
    assert lp_optimum_by_vertex_enumeration([1] * len(columns), constraints, maximize=True) == 2


def test_degenerate_program_terminates():
    # every 3-subset of 6 atoms, twice over: most vertices are degenerate,
    # and Bland's rule must still terminate at the optimum 6/3
    columns = _masks(combinations(range(6), 3)) * 2
    sol = exact_lp_solve(columns, range(6))
    assert sol.objective == 2
    _check_optimality(columns, range(6), sol)


def test_column_meeting_no_row_is_an_internal_error():
    # a column outside every row could grow without bound; the library never
    # builds one, so the solver reports a bug rather than an LP verdict
    with pytest.raises(InternalError):
        exact_lp_solve([0b1, 0b10], [0])


@pytest.mark.parametrize("seed", range(30))
def test_random_lps_match_vertex_enumeration(seed):
    # random 0/1 packing LPs; rows are atoms, not positions, and columns may
    # repeat or nest
    rng = random.Random(seed)
    rows = sorted(rng.sample(range(7), rng.randint(1, 5)))
    columns: list[int] = []
    for _ in range(rng.randint(1, 6)):
        pick = rng.random()
        fresh = sum(1 << x for x in rows if rng.random() < 0.5) or 1 << rng.choice(rows)
        if columns and pick < 0.25:
            columns.append(rng.choice(columns))
        elif columns and pick < 0.5:
            columns.append(rng.choice(columns) | fresh)
        else:
            columns.append(fresh)
    sol = exact_lp_solve(columns, rows)
    oracle = lp_optimum_by_vertex_enumeration(
        [1] * len(columns), _packing_constraints(columns, rows), maximize=True
    )
    assert sol.objective == oracle
    _check_optimality(columns, rows, sol)

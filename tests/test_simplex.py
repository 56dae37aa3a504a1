import random
from fractions import Fraction as F
from itertools import combinations

import pytest

from boolmeasure.errors import InputError, LPInfeasibleError, LPUnboundedError
from boolmeasure.simplex import EQ, GEQ, LEQ, constraint, exact_lp_solve

from _oracles import lp_optimum_by_vertex_enumeration


def test_free_variable_maximum():
    # maximize t subject to mu0 >= t, mu0 + mu1 = 1, mu >= 0
    cons = [constraint([1, 0, -1], GEQ, 0), constraint([1, 1, 0], EQ, 1)]
    sol = exact_lp_solve([0, 0, 1], cons, maximize=True, free_variables=(2,))
    assert sol.objective == 1
    assert sol.variables == (F(1), F(0), F(1))


def test_kappa_lp_all_pairs_of_four():
    # packing form of the intersection game for all 2-subsets of 4 atoms
    members = list(combinations(range(4), 2))
    cons = [constraint([1 if x in c else 0 for c in members], LEQ, 1) for x in range(4)]
    sol = exact_lp_solve([1] * len(members), cons, maximize=True)
    assert sol.objective == 2  # game value 1/2
    assert sol.duals == (F(1, 2),) * 4  # uniform measure after normalization
    oracle = lp_optimum_by_vertex_enumeration([1] * len(members), cons, maximize=True)
    assert oracle == 2


def test_kappa_lp_all_pairs_mu_form():
    # same game in the 5-variable form: maximize t subject to mu(c) >= t for
    # every 2-subset c and sum(mu) = 1
    members = list(combinations(range(4), 2))
    objective = [0, 0, 0, 0, 1]
    cons = [
        constraint([1 if x in c else 0 for x in range(4)] + [-1], GEQ, 0) for c in members
    ]
    cons.append(constraint([1, 1, 1, 1, 0], EQ, 1))
    sol = exact_lp_solve(objective, cons, maximize=True, free_variables=(4,))
    assert sol.objective == F(1, 2)
    assert sol.variables[:4] == (F(1, 4),) * 4  # uniform atom mixture
    oracle = lp_optimum_by_vertex_enumeration(
        objective, cons, maximize=True, free_variables=(4,)
    )
    assert oracle == F(1, 2)


def test_error_kinds_are_distinct():
    with pytest.raises(LPInfeasibleError):
        exact_lp_solve([1], [constraint([1], LEQ, -1)])
    with pytest.raises(LPUnboundedError):
        exact_lp_solve([1], [constraint([1], GEQ, 1)], maximize=True)
    with pytest.raises(InputError):
        exact_lp_solve([1, 2], [constraint([1], LEQ, 1)])


def test_equality_and_negative_rhs_handling():
    # minimize x + y subject to x - y = -3, x + y >= 5
    sol = exact_lp_solve([1, 1], [constraint([1, -1], EQ, -3), constraint([1, 1], GEQ, 5)])
    assert sol.objective == 5
    assert sol.variables == (F(1), F(4))
    assert sum(d * r for d, r in zip(sol.duals, [F(-3), F(5)])) == 5


def test_degenerate_program_terminates():
    # Classic cycling-prone instance; Bland's rule must terminate.
    cons = [
        constraint([F(1, 4), -8, -1, 9], LEQ, 0),
        constraint([F(1, 2), -12, F(-1, 2), 3], LEQ, 0),
        constraint([0, 0, 1, 0], LEQ, 1),
    ]
    objective = [F(-3, 4), 20, F(-1, 2), 6]
    sol = exact_lp_solve(objective, cons)
    assert sol.objective == F(-5, 4)
    assert lp_optimum_by_vertex_enumeration(objective, cons) == F(-5, 4)


@pytest.mark.parametrize("seed", range(30))
def test_random_lps_match_vertex_enumeration(seed):
    rng = random.Random(seed)
    nvars = rng.randint(1, 3)
    ncons = rng.randint(1, 3)
    cons = []
    for _ in range(ncons):
        coeffs = [F(rng.randint(-3, 3)) for _ in range(nvars)]
        rel = rng.choice([LEQ, GEQ, EQ])
        cons.append(constraint(coeffs, rel, F(rng.randint(-4, 4))))
    # bound the feasible region so the instance is never unbounded
    for j in range(nvars):
        row = [F(0)] * nvars
        row[j] = F(1)
        cons.append(constraint(row, LEQ, 10))
    objective = [F(rng.randint(-3, 3)) for _ in range(nvars)]
    maximize = rng.random() < 0.5
    oracle = lp_optimum_by_vertex_enumeration(objective, cons, maximize=maximize)
    try:
        sol = exact_lp_solve(objective, cons, maximize=maximize)
    except LPInfeasibleError:
        assert oracle is None
        return
    assert oracle is not None
    assert sol.objective == oracle
    # duals reproduce the objective exactly against the original right sides
    assert sum(d * c.rhs for d, c in zip(sol.duals, cons)) == sol.objective


def test_redundant_equality_rows_are_dropped():
    cons = [
        constraint([1, 1], EQ, 2),
        constraint([1, 1], EQ, 2),  # duplicate row; phase 1 must shed it
        constraint([1, 0], LEQ, 1),
    ]
    sol = exact_lp_solve([1, 3], cons)
    assert sol.objective == 4
    assert sol.variables == (F(1), F(1))
    assert sum(d * c.rhs for d, c in zip(sol.duals, cons)) == 4
    assert lp_optimum_by_vertex_enumeration([1, 3], cons) == 4

    scaled = [constraint([1, 1], EQ, 1), constraint([2, 2], EQ, 2)]
    assert exact_lp_solve([5, 1], scaled).objective == 1


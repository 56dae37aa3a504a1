import dataclasses
import random
import time
from fractions import Fraction as F
from itertools import combinations
from math import comb, lcm

import pytest
from hypothesis import given, settings, strategies as st

from boolmeasure.algebra import AtomSpace, Collection, canonical_key, minimal_elements
from boolmeasure import intersection
from boolmeasure.errors import InputError, InternalError, SizeError
from boolmeasure.fragmentation import from_measure
from boolmeasure.generators import gen_measure
from boolmeasure.intersection import (
    intersection_number,
    intersection_number_bruteforce,
    kappa_of_sequence,
)


def _random_collection(rng, max_atoms=5, max_size=6):
    sp = AtomSpace(rng.randint(1, max_atoms))
    members = tuple(sp.from_mask(rng.randint(1, sp.unit_mask)) for _ in range(rng.randint(1, max_size)))
    return Collection(sp, members)


def test_kappa_of_sequence_examples():
    sp = AtomSpace(3)
    single = kappa_of_sequence([sp.element([0, 1])])
    assert single.ratio == F(1) and single.depth == single.length == 1

    disjoint = kappa_of_sequence([sp.singleton(i) for i in range(3)])
    assert disjoint.ratio == F(1, 3)
    assert disjoint.depth == 1
    assert disjoint.atom == 0 and disjoint.indices == (0,)

    mixed = kappa_of_sequence([sp.element([0]), sp.element([0, 1]), sp.element([1, 2])])
    assert mixed.depth == 2 and mixed.atom == 0 and mixed.indices == (0, 1)


def test_kappa_of_sequence_validation():
    sp = AtomSpace(2)
    with pytest.raises(InputError):
        kappa_of_sequence([])
    with pytest.raises(InputError):
        kappa_of_sequence([sp.zero])
    with pytest.raises(InputError):
        kappa_of_sequence([sp.unit, AtomSpace(3).unit])


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_repetition_invariance(data):
    # repeating every term t times leaves the score unchanged
    n = data.draw(st.integers(1, 5))
    sp = AtomSpace(n)
    seq = data.draw(st.lists(st.integers(1, sp.unit_mask), min_size=1, max_size=5))
    t = data.draw(st.integers(1, 4))
    base = [sp.from_mask(m) for m in seq]
    repeated = [e for e in base for _ in range(t)]
    assert kappa_of_sequence(base).ratio == kappa_of_sequence(repeated).ratio


def test_intersection_number_examples():
    sp = AtomSpace(4)
    assert intersection_number(Collection(sp, (sp.element([0, 1]),))).value == 1

    sp3 = AtomSpace(3)
    disjoint = Collection(sp3, tuple(sp3.singleton(i) for i in range(3)))
    sol = intersection_number(disjoint)
    assert sol.value == F(1, 3)
    assert intersection_number_bruteforce(disjoint, 3) == F(1, 3)

    pairs = Collection(sp, tuple(sp.element(c) for c in combinations(range(4), 2)))
    sol = intersection_number(pairs)
    assert sol.value == F(1, 2)
    assert sol.atom_weights == (F(1, 4),) * 4
    assert intersection_number_bruteforce(pairs, 6) == F(1, 2)
    # the sequence of all six 2-subsets attains 1/2 with depth 3
    score = kappa_of_sequence(pairs.members)
    assert score.depth == 3 and score.ratio == F(1, 2)


def test_bruteforce_examples():
    sp = AtomSpace(2)
    single = Collection(sp, (sp.element([0]),))
    assert intersection_number_bruteforce(single, 4) == 1
    two = Collection(sp, (sp.element([0]), sp.element([1])))
    assert intersection_number_bruteforce(two, 2) == F(1, 2)


def test_bruteforce_budget_refusal():
    sp = AtomSpace(5)
    coll = Collection(sp, tuple(sp.from_mask(m) for m in range(1, 21)))
    total = sum(comb(20 + length - 1, length) for length in range(1, 13))
    with pytest.raises(SizeError, match=f"^{total} multisets exceed"):
        intersection_number_bruteforce(coll, 12)
    # the count is closed-form: a huge length refuses at once
    started = time.perf_counter()
    with pytest.raises(SizeError):
        intersection_number_bruteforce(coll, 10**9)
    assert time.perf_counter() - started < 1


def test_empty_collection_rejected():
    sp = AtomSpace(2)
    with pytest.raises(InputError):
        intersection_number(Collection(sp, ()))
    with pytest.raises(InputError):
        intersection_number_bruteforce(Collection(sp, ()), 2)


def test_game_solution_invariants_random():
    rng = random.Random(7)
    for _ in range(60):
        coll = _random_collection(rng)
        sol = intersection_number(coll)
        assert sum(sol.atom_weights) == 1 and sum(sol.member_weights) == 1
        assert all(w >= 0 for w in sol.atom_weights)
        assert all(w >= 0 for w in sol.member_weights)
        measures = [sum(sol.atom_weights[a] for a in c.atoms) for c in coll.members]
        assert min(measures) == sol.value
        loads = [
            sum(w for c, w in zip(coll.members, sol.member_weights) if (c.mask >> x) & 1)
            for x in range(coll.space.atom_count)
        ]
        assert max(loads) == sol.value


def test_every_sequence_scores_at_least_kappa():
    rng = random.Random(21)
    for _ in range(40):
        coll = _random_collection(rng)
        kappa = intersection_number(coll).value
        for _ in range(10):
            seq = [coll.members[rng.randrange(len(coll.members))] for _ in range(rng.randint(1, 6))]
            assert kappa_of_sequence(seq).ratio >= kappa


def test_monotonicity_under_collection_growth():
    rng = random.Random(33)
    for _ in range(40):
        sp = AtomSpace(rng.randint(1, 5))
        small = tuple(sp.from_mask(rng.randint(1, sp.unit_mask)) for _ in range(rng.randint(1, 4)))
        extra = tuple(sp.from_mask(rng.randint(1, sp.unit_mask)) for _ in range(rng.randint(1, 3)))
        k_small = intersection_number(Collection(sp, small)).value
        k_big = intersection_number(Collection(sp, small + extra)).value
        assert k_big <= k_small


def test_disjoint_members_cap_kappa():
    rng = random.Random(55)
    for _ in range(30):
        sp = AtomSpace(6)
        split = sorted(rng.sample(range(1, 6), rng.randint(1, 3))) + [6]
        parts = []
        prev = 0
        for cut in split:
            parts.append(sp.element(range(prev, cut)))
            prev = cut
        extra = tuple(sp.from_mask(rng.randint(1, sp.unit_mask)) for _ in range(rng.randint(0, 3)))
        coll = Collection(sp, tuple(parts) + extra)
        assert intersection_number(coll).value <= F(1, len(parts))


def test_lp_matches_bruteforce_at_value_denominator():
    rng = random.Random(99)
    for _ in range(60):
        coll = _random_collection(rng)
        kappa = intersection_number(coll).value
        assert intersection_number_bruteforce(coll, kappa.denominator) == kappa


def test_duplicates_and_supersets_do_not_change_kappa():
    sp = AtomSpace(4)
    base = (sp.element([0]), sp.element([1]))
    padded = base + (sp.element([0]), sp.element([0, 2]), sp.element([0, 1, 3]))
    assert intersection_number(Collection(sp, base)).value == intersection_number(
        Collection(sp, padded)
    ).value


def test_optimal_basis_is_frozen():
    # These games have many optimal strategy pairs; these are the ones the
    # simplex's column order and Bland's rule pick, which the reports show.
    # Entering by smallest index plays {1,2,3} before {3,4,5}, and the
    # three-way ratio tie on {1,2,3} puts the price on its smallest atom's row.
    sp = AtomSpace(7)
    members = (sp.element([1, 2, 3]), sp.element([3, 4, 5]), sp.element([0, 6]))
    sol = intersection_number(Collection(sp, members))
    assert sol.value == F(1, 2)
    assert sol.atom_weights == (F(1, 2), 0, 0, F(1, 2), 0, 0, 0)
    assert sol.member_weights == (F(1, 2), 0, F(1, 2))

    # all pairs of 5 atoms: Dantzig pricing would mix other pairs
    sp = AtomSpace(5)
    sol = intersection_number(Collection(sp, tuple(sp.element(p) for p in combinations(range(5), 2))))
    assert sol.value == F(2, 5)
    assert sol.atom_weights == (F(1, 5),) * 5
    assert sol.member_weights == (0, 0, 0, F(2, 5), F(1, 5), F(1, 5), 0, F(1, 5), 0, 0)

    # level 1 of a near-uniform 8-atom measure: 55 minimal 4-sets, degenerate
    frag = from_measure(gen_measure(8, 3, max_weight=2))
    mins = minimal_elements(sorted(frag.level(1), key=canonical_key))
    sol = intersection_number(Collection(frag.space, tuple(mins)))
    assert len(mins) == 55
    assert sol.value == F(1, 2)
    assert sol.atom_weights == (F(1, 6), 0, F(1, 6), F(1, 6), F(1, 6), F(1, 6), 0, F(1, 6))
    assert [(mins[i].atoms, w) for i, w in enumerate(sol.member_weights) if w] == [
        ((0, 5, 6, 7), F(1, 2)),
        ((1, 2, 3, 4), F(1, 2)),
    ]


def test_fourteen_atom_level_one_lp():
    # near-uniform weights make level 1 of 14 atoms wide and degenerate
    frag = from_measure(gen_measure(14, 1, max_weight=2))
    mins = minimal_elements(sorted(frag.level(1), key=canonical_key))
    sol = intersection_number(Collection(frag.space, tuple(mins)))
    assert len(mins) == 2135
    assert sol.value == F(11, 21)


def _level_game(atoms, seed, max_weight, n) -> Collection:
    """Minimal members of level n of a generated measure's fragmentation."""
    frag = from_measure(gen_measure(atoms, seed, max_weight=max_weight))
    mins = minimal_elements(sorted(frag.level(n), key=canonical_key))
    return Collection(frag.space, tuple(mins))


def _solve_then(monkeypatch, alter) -> None:
    solve = intersection.exact_lp_solve
    monkeypatch.setattr(intersection, "exact_lp_solve", lambda cols, rows: alter(solve(cols, rows)))


@pytest.mark.parametrize("game", [(9, 4, 7, 2), (10, 1, 32, 2)])
@pytest.mark.parametrize("shift", [1, 2, 3])
def test_saddle_point_check_catches_permuted_duals(monkeypatch, game, shift):
    # the prices still sum to one, so only the integer min check can see it
    coll = _level_game(*game)
    sol = intersection_number(coll)
    rotated = sol.atom_weights[shift:] + sol.atom_weights[:shift]
    assert min(sum(rotated[a] for a in c.atoms) for c in coll.members) < sol.value

    def rotate(s):
        return dataclasses.replace(s, duals=s.duals[shift:] + s.duals[:shift])

    _solve_then(monkeypatch, rotate)
    with pytest.raises(InternalError, match="atom-side optimum"):
        intersection_number(coll)


@pytest.mark.parametrize("game", [(9, 4, 7, 2), (9, 1, 32, 2)])
@pytest.mark.parametrize("move", ["up", "down", "across"])
def test_saddle_point_check_catches_primal_moved_by_one_unit(monkeypatch, game, move):
    # one primal value moves by 1/D, D the least common denominator of the
    # primal; "across" moves 1/D between two played members, keeping the sum
    coll = _level_game(*game)

    def shift(sol):
        unit = F(1, lcm(*(y.denominator for y in sol.variables)))
        assert unit < 1
        played = [j for j, y in enumerate(sol.variables) if y]
        moved = list(sol.variables)
        if move in ("up", "across"):
            moved[played[-1]] += unit
        if move in ("down", "across"):
            moved[played[0]] -= unit
        if move == "across":  # some atom is now overloaded
            columns = [e.mask for e in coll.members]
            assert any(
                sum(y for mask, y in zip(columns, moved) if (mask >> x) & 1) > 1
                for x in range(coll.space.atom_count)
            )
        return dataclasses.replace(sol, variables=tuple(moved))

    _solve_then(monkeypatch, shift)
    with pytest.raises(InternalError):
        intersection_number(coll)

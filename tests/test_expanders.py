import random
from itertools import combinations

import pytest
from _oracles import connected_index_set_count, expansion_violation_bruteforce

from boolmeasure.errors import (
    ConstructionError,
    HallViolationError,
    InputError,
    SizeError,
)
from boolmeasure.expanders import (
    VERIFY_BUDGET,
    ExpanderFamily,
    build_expander,
    check_preconditions,
    choice_function,
    verify_expansion,
)


def test_check_preconditions_examples():
    assert check_preconditions(20, 30, 3)  # 30*30 = 900 = 15*20*3, equality holds
    assert not check_preconditions(9, 9, 3)  # 81 < 405
    assert check_preconditions(100, 99, 3)  # 9801 >= 4500
    assert not check_preconditions(10, 30, 2)  # k below 3
    assert not check_preconditions(10, 4, 5)  # k above p


def test_family_validation():
    with pytest.raises(InputError):
        ExpanderFamily(2, 9, 3, ((0, 1, 2),))  # wrong count
    with pytest.raises(InputError):
        ExpanderFamily(1, 9, 3, ((0, 1, 1),))  # repeated point
    with pytest.raises(InputError):
        ExpanderFamily(1, 3, 3, ((1, 2, 3),))  # out of range
    fam = ExpanderFamily(1, 9, 3, ((2, 0, 1),))
    assert fam.sets == ((0, 1, 2),)  # normalized sorted


def test_disjoint_triples_expand():
    fam = ExpanderFamily(3, 9, 3, ((0, 1, 2), (3, 4, 5), (6, 7, 8)))
    report = verify_expansion(fam)
    assert report.ok and report.violating is None
    assert report.checked == 3  # no two triples share a point: only singletons connect


def test_identical_sets_boundary():
    two_same = ExpanderFamily(2, 9, 2, ((0, 1, 2), (0, 1, 2)))
    assert verify_expansion(two_same).ok  # |union| = 3 > 2

    three_same = ExpanderFamily(3, 9, 3, ((0, 1, 2), (0, 1, 2), (0, 1, 2)))
    report = verify_expansion(three_same)
    assert not report.ok
    assert report.violating == (0, 1, 2)  # lexicographically least violator


def test_verify_budget_refusal(monkeypatch):
    import boolmeasure.expanders as ex

    fam = ExpanderFamily(3, 9, 3, ((0, 1, 2), (3, 4, 5), (6, 7, 8)))
    monkeypatch.setattr(ex, "VERIFY_BUDGET", 3)  # the three singletons are the connected sets
    assert verify_expansion(fam).checked == 3
    monkeypatch.setattr(ex, "VERIFY_BUDGET", 2)
    with pytest.raises(SizeError):
        verify_expansion(fam)


def test_verify_expansion_matches_the_exhaustive_oracle():
    # few points make violations, identical sets among them, common
    rng = random.Random(20061)
    outcomes = set()
    for _ in range(2000):
        m, p, k = rng.randint(1, 10), rng.randint(3, 8), rng.randint(1, 5)
        sets = tuple(tuple(rng.sample(range(p), 3)) for _ in range(m))
        fam = ExpanderFamily(m, p, k, sets)
        report = verify_expansion(fam)
        violating = expansion_violation_bruteforce(fam)
        assert (report.ok, report.violating) == (violating is None, violating), fam
        assert report.checked == connected_index_set_count(fam), fam  # each connected set once
        outcomes.add(report.ok if report.ok else len(violating))
    assert outcomes >= {True, 3, 4, 5}


def test_build_expander_at_m_400_verifies_within_budget():
    # C(400, <= 3) = 10,667,000 index sets, of which 50,665 are connected
    fam = build_expander(400, 199, 3, seed=1)
    report = verify_expansion(fam)
    assert report.ok and report.checked == 50_665 <= VERIFY_BUDGET


def test_build_expander_deterministic_and_verified():
    fam1 = build_expander(20, 30, 3, seed=42)
    fam2 = build_expander(20, 30, 3, seed=42)
    assert fam1 == fam2
    assert verify_expansion(fam1).ok
    fam3 = build_expander(20, 30, 3, seed=43)
    assert verify_expansion(fam3).ok


def test_build_expander_rejects_bad_parameters():
    with pytest.raises(InputError):
        build_expander(9, 9, 3, seed=0)


def test_build_expander_retry_exhaustion(monkeypatch):
    import boolmeasure.expanders as ex

    monkeypatch.setattr(ex, "verify_expansion", lambda fam: ex.ExpansionReport(False, (0,), 1))
    monkeypatch.setattr(ex, "RETRY_CAP", 5)
    with pytest.raises(ConstructionError) as err:
        ex.build_expander(20, 30, 3, seed=0)
    assert err.value.attempts == 5


def test_choice_function_complete_bipartite():
    fam = ExpanderFamily(3, 3, 3, ((0, 1, 2), (0, 1, 2), (0, 1, 2)))
    f = choice_function(fam, (0, 1, 2))
    assert sorted(f.assignment) == [0, 1, 2]
    assert sorted(f.assignment.values()) == [0, 1, 2]
    assert all(f.assignment[i] in fam.sets[i] for i in (0, 1, 2))


def test_choice_function_disjoint_triples():
    fam = ExpanderFamily(3, 9, 3, ((0, 1, 2), (3, 4, 5), (6, 7, 8)))
    for size in (1, 2, 3):
        for idx in combinations(range(3), size):
            f = choice_function(fam, idx)
            assert len(set(f.assignment.values())) == len(idx)
            assert all(f.assignment[i] in fam.sets[i] for i in idx)


def test_choice_function_hall_violation_witness():
    fam = ExpanderFamily(4, 9, 4, ((0, 1, 2),) * 4)
    with pytest.raises(HallViolationError) as err:
        choice_function(fam, (0, 1, 2, 3))
    deficient = err.value.deficient
    assert deficient is not None and len(deficient) == 4
    union = set()
    for i in deficient:
        union |= set(fam.sets[i])
    assert len(union) < len(deficient)


def test_choice_function_argument_validation():
    fam = ExpanderFamily(3, 9, 2, ((0, 1, 2), (3, 4, 5), (6, 7, 8)))
    with pytest.raises(InputError):
        choice_function(fam, (0, 1, 2))  # exceeds k
    with pytest.raises(InputError):
        choice_function(fam, (7,))


def test_expansion_implies_choice_everywhere():
    fam = build_expander(20, 30, 3, seed=5)
    assert verify_expansion(fam).ok
    for size in (1, 2, 3):
        for idx in combinations(range(20), size):
            f = choice_function(fam, idx)
            assert len(set(f.assignment.values())) == size

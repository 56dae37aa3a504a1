import random
from fractions import Fraction as F
from itertools import combinations
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from boolmeasure.algebra import AtomSpace, Collection, enumerate_nonzero
from boolmeasure.errors import ContractError, InputError, SizeError
from boolmeasure.fragmentation import from_measure
from boolmeasure.generators import gen_measure
from boolmeasure.measures import (
    Measure,
    check_measure_axioms,
    combine_measures,
    measure_eval,
    measure_from_collection,
    subset_sums,
)


def test_measure_eval_examples():
    sp = AtomSpace(4)
    m = Measure(sp, (F(1, 4),) * 4)
    assert measure_eval(m, sp.element([0, 1])) == F(1, 2)
    assert measure_eval(m, sp.zero) == 0
    assert measure_eval(m, sp.unit) == 1
    assert measure_eval(m, sp.element([2])) == F(1, 4)


def test_measure_validation():
    sp = AtomSpace(2)
    with pytest.raises(InputError):
        Measure(sp, (F(1, 2),))
    with pytest.raises(InputError):
        Measure(sp, (F(3, 4), F(3, 4)))
    with pytest.raises(InputError):
        Measure(sp, (F(-1, 2), F(3, 2)))
    with pytest.raises(InputError):
        measure_eval(Measure(sp, (F(1, 2), F(1, 2))), AtomSpace(3).unit)


def test_measure_holds_integers_over_the_least_common_denominator():
    m = Measure(AtomSpace(3), (F(1, 2), F(1, 3), F(1, 6)))
    assert m.denominator == 6 and m.numerators == (3, 2, 1)
    m = gen_measure(10, 1)
    assert all(F(v, m.denominator) == w for v, w in zip(m.numerators, m.atom_weights))
    assert m.denominator == lcm(*(w.denominator for w in m.atom_weights))


def test_measure_rejects_a_sum_one_unit_off():
    # weights summing to 1 +- 1/D must fail the integer sum check
    m = gen_measure(10, 1)
    unit = F(1, m.denominator)
    for delta in (unit, -unit):
        weights = m.atom_weights[:-1] + (m.atom_weights[-1] + delta,)
        with pytest.raises(InputError, match="sum to exactly 1"):
            Measure(m.space, weights)


def test_strictly_positive_flag():
    sp = AtomSpace(2)
    assert Measure(sp, (F(1, 2), F(1, 2))).strictly_positive
    assert not Measure(sp, (F(1), F(0))).strictly_positive


def test_measure_from_collection_examples():
    sp2 = AtomSpace(2)
    m, kappa = measure_from_collection(Collection(sp2, (sp2.element([0]),)))
    assert kappa == 1
    assert m.atom_weights == (F(1), F(0))
    assert not m.strictly_positive

    m, kappa = measure_from_collection(Collection(sp2, (sp2.element([0]), sp2.element([1]))))
    assert kappa == F(1, 2)
    assert m.atom_weights == (F(1, 2), F(1, 2))

    sp4 = AtomSpace(4)
    pairs = Collection(sp4, tuple(sp4.element(c) for c in combinations(range(4), 2)))
    m, kappa = measure_from_collection(pairs)
    assert kappa == F(1, 2)
    assert m.atom_weights == (F(1, 4),) * 4
    assert all(measure_eval(m, c) == F(1, 2) for c in pairs.members)


def test_lower_bound_contract_random():
    rng = random.Random(11)
    for _ in range(60):
        sp = AtomSpace(rng.randint(1, 5))
        members = tuple(
            sp.from_mask(rng.randint(1, sp.unit_mask)) for _ in range(rng.randint(1, 6))
        )
        m, kappa = measure_from_collection(Collection(sp, members))
        assert all(measure_eval(m, c) >= kappa for c in members)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 6), st.data())
def test_additivity_on_disjoint_pairs(n, data):
    sp = AtomSpace(n)
    raw = data.draw(st.lists(st.integers(1, 16), min_size=n, max_size=n))
    total = sum(raw)
    m = Measure(sp, tuple(F(r, total) for r in raw))
    a_mask = data.draw(st.integers(0, sp.unit_mask))
    b_mask = data.draw(st.integers(0, sp.unit_mask)) & ~a_mask
    a, b = sp.from_mask(a_mask), sp.from_mask(b_mask)
    assert measure_eval(m, a.union(b)) == measure_eval(m, a) + measure_eval(m, b)


def test_subset_sums_matches_eval():
    sp = AtomSpace(4)
    m = Measure(sp, (F(1, 2), F(1, 4), F(1, 8), F(1, 8)))
    sums = subset_sums(m.atom_weights)
    for e in enumerate_nonzero(sp):
        assert sums[e.mask] == measure_eval(m, e)


def test_combine_single_level_is_identity():
    sp = AtomSpace(2)
    m = Measure(sp, (F(1, 3), F(2, 3)))
    out = combine_measures([m])
    assert out.atom_weights == m.atom_weights


def test_combine_two_levels_blend_arithmetic():
    # weights 1/2 and 1/4, normalized by 3/4
    sp = AtomSpace(2)
    m1 = Measure(sp, (F(1), F(0)))
    m2 = Measure(sp, (F(0), F(1)))
    out = combine_measures([m1, m2])
    assert out.atom_weights == (F(2, 3), F(1, 3))
    assert out.strictly_positive


def test_combine_rejects_violated_level():
    # a level's bound m_n >= kappa_n is for its certificate to prove, and is
    # checked from outside by test_combine_lower_bounds_per_level and
    # test_certify_fragmentation_measure_pipeline; the blend refuses only
    # input it cannot blend
    with pytest.raises(InputError):
        combine_measures([])
    halves = Measure(AtomSpace(2), (F(1, 2),) * 2)
    thirds = Measure(AtomSpace(3), (F(1, 3),) * 3)
    with pytest.raises(InputError):
        combine_measures([halves, thirds])


def test_combine_lower_bounds_per_level():
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randint(1, 8)
        sp = AtomSpace(n)
        raw = [rng.randint(1, 16) for _ in range(n)]
        m = Measure(sp, tuple(F(r, sum(raw)) for r in raw))
        frag = from_measure(m)
        pairs = []
        for level in frag.levels:
            mm, kappa = measure_from_collection(Collection(sp, tuple(level)))
            assert all(measure_eval(mm, c) >= kappa for c in level)
            pairs.append((mm, kappa))
        out = combine_measures([mm for mm, _ in pairs])
        assert out.strictly_positive
        total = sum(F(1, 2**k) for k in range(1, frag.depth + 1))
        for k, level in enumerate(frag.levels, start=1):
            floor = F(1, 2**k) * pairs[k - 1][1] / total
            for c in level:
                assert measure_eval(out, c) >= floor


def test_check_measure_axioms():
    sp = AtomSpace(3)
    check_measure_axioms(Measure(sp, (F(1, 2), F(1, 4), F(1, 4))))
    with pytest.raises(ContractError):
        check_measure_axioms(Measure(sp, (F(1, 2), F(1, 2), F(0))))
    with pytest.raises(SizeError):
        check_measure_axioms(Measure(AtomSpace(13), (F(1, 13),) * 13))

import random
from collections import Counter
from fractions import Fraction as F

import pytest

from boolmeasure import fragmentation, generators
from boolmeasure.algebra import AtomSpace, canonical_key, enumerate_nonzero
from boolmeasure.errors import ContractError, InputError, SizeError
from boolmeasure.fragmentation import (
    Fragmentation,
    Submeasure,
    check_fragmentation,
    check_graded,
    check_submeasure,
    extract_graded_subfragmentation,
    from_measure,
    from_submeasure,
    max_antichain,
    max_disjoint_family,
    minimal_elements,
    require_valid,
)
from boolmeasure.generators import gen_measure, gen_submeasure
from boolmeasure.measures import Measure, subset_sums

from _oracles import (
    fragmentation_violation,
    graded_by_full_decomposition,
    max_packing_by_mask_dp,
    minimal_by_definition,
    submeasure_violation,
    threshold_levels,
)


def _random_measure(rng, n):
    raw = [rng.randint(1, 16) for _ in range(n)]
    return Measure(AtomSpace(n), tuple(F(r, sum(raw)) for r in raw))


def _upward_close(space, seeds):
    out = set()
    for e in seeds:
        rest = space.unit_mask & ~e.mask
        sub = rest
        while True:
            out.add(space.from_mask(e.mask | sub))
            if sub == 0:
                break
            sub = (sub - 1) & rest
    return frozenset(out)


def _random_valid_fragmentation(rng, n, levels=3):
    """Nested, upward-closed, covering levels from random seed elements."""
    space = AtomSpace(n)
    all_elems = enumerate_nonzero(space)
    lv = []
    current = set()
    for i in range(levels - 1):
        seeds = [all_elems[rng.randrange(len(all_elems))] for _ in range(rng.randint(1, 3))]
        current |= _upward_close(space, seeds)
        lv.append(frozenset(current))
    lv.append(frozenset(all_elems))
    return Fragmentation(space, tuple(lv))


def test_single_full_level_is_valid():
    sp = AtomSpace(3)
    frag = Fragmentation(sp, (frozenset(enumerate_nonzero(sp)),))
    assert check_fragmentation(frag).valid
    assert check_graded(frag).graded  # no next level: vacuous


def test_upward_closure_violation_witnessed():
    sp = AtomSpace(2)
    bad = Fragmentation(sp, (frozenset([sp.element([0])]), frozenset(enumerate_nonzero(sp))))
    report = check_fragmentation(bad)
    assert not report.valid
    assert report.violation.kind == "upward"
    assert report.violation.level == 1
    a, b = report.violation.elements
    assert a == sp.element([0]) and b == sp.unit


def test_nested_violation_witnessed():
    sp = AtomSpace(2)
    up0 = _upward_close(sp, [sp.element([0])])
    up1 = _upward_close(sp, [sp.element([1])])
    bad = Fragmentation(sp, (up0, up1))
    report = check_fragmentation(bad)
    assert not report.valid
    assert report.violation.kind == "nested"


def test_covering_violation_witnessed():
    sp = AtomSpace(2)
    frag = Fragmentation(sp, (frozenset([sp.unit]),))
    report = check_fragmentation(frag)
    assert not report.valid
    assert report.violation.kind == "covering"
    assert report.violation.elements[0] == sp.element([0])


def _random_fragmentation(rng, n):
    """A valid fragmentation with a member or two toggled and, now and then,
    its full top level dropped: mostly invalid, in every way."""
    frag = _random_valid_fragmentation(rng, n, levels=rng.randint(1, 4))
    levels = [set(lv) for lv in frag.levels]
    if len(levels) > 1 and rng.random() < 0.3:
        levels.pop()
    for _ in range(rng.choice((0, 1, 1, 2))):
        rng.choice(levels).symmetric_difference_update({frag.space.from_mask(rng.randint(1, 2**n - 1))})
    return Fragmentation(frag.space, tuple(map(frozenset, levels)))


def _named(violation):
    return violation and (violation.kind, violation.level, violation.elements)


def test_violations_and_minimal_members_match_definition():
    # every check names the violation an Element-set scan names, and a valid
    # fragmentation's minimal members are those of the definition
    rng = random.Random(53)
    kinds = Counter()
    for _ in range(1500):
        frag = _random_fragmentation(rng, rng.randint(1, 6))
        expected = fragmentation_violation(frag)
        kinds[expected[0] if expected else "valid"] += 1
        assert _named(check_fragmentation(frag).violation) == expected
        if expected is None:
            assert require_valid(frag, graded=False) == [
                [e.mask for e in sorted(minimal_by_definition(lv), key=lambda e: (e.size, e.atoms))]
                for lv in frag.levels
            ]
            continue
        with pytest.raises(ContractError) as err:
            require_valid(frag, graded=False)
        assert _named(err.value.violation) == expected
        if expected[0] != "covering":
            with pytest.raises(ContractError) as err:
                check_graded(frag)
            assert _named(err.value.violation) == expected
    assert min(kinds.values()) >= 100 and kinds["valid"] < 500, kinds


def test_fragmentation_constructor_rejects_bad_levels():
    sp = AtomSpace(2)
    with pytest.raises(InputError):
        Fragmentation(sp, ())
    with pytest.raises(InputError):
        Fragmentation(sp, (frozenset([sp.zero]),))
    with pytest.raises(InputError):
        Fragmentation(sp, (frozenset([AtomSpace(3).unit]),))


def test_check_fragmentation_cap():
    sp = AtomSpace(17)
    frag = Fragmentation(sp, (frozenset([sp.unit]),))
    with pytest.raises(SizeError):
        check_fragmentation(frag)
    with pytest.raises(SizeError, match="exceeds the cap of 16"):
        check_graded(frag)


def test_antichain_node_budget_refusal(monkeypatch):
    # greedy takes {1,2} and stops at 1, below the LP bound of 2, so the
    # branch and bound runs; a budget of one node refuses it
    sp = AtomSpace(6)
    members = [sp.element([1, 2]), sp.element([0, 1, 5]), sp.element([2, 3, 4])]
    assert max_disjoint_family(members, sp)[0] == 2
    monkeypatch.setattr(fragmentation, "ANTICHAIN_NODE_BUDGET", 1)
    with pytest.raises(SizeError):
        max_disjoint_family(members, sp)


def test_graded_violation_example():
    # C_1 = C_2 = {1} on two atoms: 1 = {0} | {1} but neither part advances.
    sp = AtomSpace(2)
    unit_only = frozenset([sp.unit])
    frag = Fragmentation(sp, (unit_only, unit_only))
    report = check_graded(frag)
    assert not report.graded
    assert report.witness.level == 1
    assert report.witness.whole == sp.unit
    assert report.witness.part == sp.element([0])


def test_check_graded_requires_nested_and_upward():
    sp = AtomSpace(2)
    up0 = _upward_close(sp, [sp.element([0])])
    with pytest.raises(ContractError):
        check_graded(Fragmentation(sp, (up0, frozenset([sp.unit]))))


def test_measure_thresholds_are_graded():
    rng = random.Random(3)
    for _ in range(25):
        frag = from_measure(_random_measure(rng, rng.randint(1, 10)))
        assert check_fragmentation(frag).valid
        assert check_graded(frag).graded


def test_check_graded_agrees_with_full_decomposition_bruteforce():
    rng = random.Random(17)
    agree_false = 0
    for _ in range(120):
        frag = _random_valid_fragmentation(rng, rng.randint(2, 5), levels=rng.randint(2, 4))
        ours = check_graded(frag).graded
        oracle = graded_by_full_decomposition(frag)
        assert ours == oracle
        agree_false += not ours
    assert agree_false > 0  # the sample must exercise the violating side


def test_from_measure_uniform_four():
    sp = AtomSpace(4)
    frag = from_measure(Measure(sp, (F(1, 4),) * 4))
    assert frag.depth == 2
    assert frag.levels[0] == frozenset(e for e in enumerate_nonzero(sp) if e.size >= 2)
    assert frag.levels[1] == frozenset(enumerate_nonzero(sp))


def test_from_measure_skewed_weights():
    sp = AtomSpace(4)
    frag = from_measure(Measure(sp, (F(1, 2), F(1, 4), F(1, 8), F(1, 8))))
    assert frag.depth == 3
    assert sp.element([0]) in frag.levels[0]
    assert sp.element([1, 2, 3]) in frag.levels[0]
    assert sp.element([1]) not in frag.levels[0]


def test_from_measure_requires_strict_positivity():
    sp = AtomSpace(2)
    with pytest.raises(InputError):
        from_measure(Measure(sp, (F(1), F(0))))


def test_minimal_elements_agree_between_modes():
    rng = random.Random(29)
    for _ in range(30):
        sp = AtomSpace(rng.randint(2, 6))
        seeds = [sp.from_mask(rng.randint(1, sp.unit_mask)) for _ in range(rng.randint(1, 4))]
        family = _upward_close(sp, seeds)
        validated = require_valid(Fragmentation(sp, (family, frozenset(enumerate_nonzero(sp)))), graded=False)
        assert validated[0] == [e.mask for e in sorted(minimal_elements(family), key=canonical_key)]


def test_minimal_elements_general_mode_matches_definition():
    # repeated masks, no closure: a member is minimal when no other distinct
    # member is a proper subset; each minimal mask once, at its first occurrence
    rng = random.Random(43)
    for _ in range(200):
        sp = AtomSpace(rng.randint(1, 7))
        pool = [sp.from_mask(rng.randint(0, sp.unit_mask)) for _ in range(rng.randint(1, 6))]
        family = [rng.choice(pool) for _ in range(rng.randint(1, 20))]
        expected, seen = [], set()
        for e in family:
            proper_subset = any(d.mask != e.mask and d.mask & e.mask == d.mask for d in family)
            if e.mask not in seen and not proper_subset:
                expected.append(e)
            seen.add(e.mask)
        assert minimal_elements(family) == expected


def test_max_antichain_examples():
    sp = AtomSpace(5)
    full = Fragmentation(sp, (frozenset(enumerate_nonzero(sp)),))
    report = max_antichain(full, 1)
    assert report.size == 5
    assert {e.atoms for e in report.witness} == {(0,), (1,), (2,), (3,), (4,)}

    unit_level = Fragmentation(sp, (_upward_close(sp, [sp.unit]), frozenset(enumerate_nonzero(sp))))
    assert max_antichain(unit_level, 1).size == 1


def test_max_antichain_validates():
    sp = AtomSpace(2)
    bad = Fragmentation(sp, (frozenset([sp.element([0])]),))
    with pytest.raises(ContractError):
        max_antichain(bad, 1)
    good = Fragmentation(sp, (frozenset(enumerate_nonzero(sp)),))
    with pytest.raises(InputError):
        max_antichain(good, 2)


def test_max_antichain_matches_mask_dp_oracle():
    rng = random.Random(41)
    for _ in range(40):
        sp = AtomSpace(rng.randint(2, 8))
        members = [sp.from_mask(rng.randint(1, sp.unit_mask)) for _ in range(rng.randint(1, 12))]
        size, witness = max_disjoint_family(members, sp)
        assert size == max_packing_by_mask_dp(members, sp)
        masks = [e.mask for e in witness]
        assert len(masks) == size
        union = 0
        for mk in masks:
            assert mk & union == 0
            union |= mk
        assert all(e in set(members) for e in witness)


def test_antichain_pigeonhole_bound_on_thresholds():
    rng = random.Random(53)
    for _ in range(20):
        frag = from_measure(_random_measure(rng, rng.randint(1, 9)))
        for n in range(1, frag.depth + 1):
            assert max_antichain(frag, n, validate=False).size <= 2**n


def test_submeasure_from_capped_double():
    # phi = min(1, 2 m) for the uniform measure on two atoms
    sp = AtomSpace(2)
    m = Measure(sp, (F(1, 2), F(1, 2)))
    sums = subset_sums(m.atom_weights)
    values = {e: min(F(1), 2 * sums[e.mask]) for e in enumerate_nonzero(sp)}
    phi = Submeasure(sp, values)
    check_submeasure(phi)
    frag = from_submeasure(phi)
    assert frag.depth == 1
    assert check_fragmentation(frag).valid
    assert check_graded(frag).graded


def test_submeasure_validation_rejections():
    sp = AtomSpace(2)
    good = {sp.element([0]): F(1, 2), sp.element([1]): F(1, 2), sp.unit: F(1)}
    check_submeasure(Submeasure(sp, good))

    not_subadd = {sp.element([0]): F(1, 4), sp.element([1]): F(1, 4), sp.unit: F(1)}
    with pytest.raises(InputError):
        check_submeasure(Submeasure(sp, not_subadd))

    short_by_one_twelfth = {sp.element([0]): F(1, 2), sp.element([1]): F(5, 12), sp.unit: F(1)}
    with pytest.raises(InputError):
        check_submeasure(Submeasure(sp, short_by_one_twelfth))

    missing = {sp.element([0]): F(1, 2), sp.unit: F(1)}
    with pytest.raises(InputError):
        check_submeasure(Submeasure(sp, missing))

    not_positive = {sp.element([0]): F(0), sp.element([1]): F(1), sp.unit: F(1)}
    with pytest.raises(InputError):
        check_submeasure(Submeasure(sp, not_positive))

    bad_unit = {sp.element([0]): F(1, 2), sp.element([1]): F(1, 2), sp.unit: F(1, 2)}
    with pytest.raises(InputError):
        check_submeasure(Submeasure(sp, bad_unit))

    decreasing = {sp.element([0]): F(1), sp.element([1]): F(1, 2), sp.unit: F(3, 4)}
    with pytest.raises(InputError):
        check_submeasure(Submeasure(sp, decreasing))


def test_submeasure_thresholds_are_graded():
    from boolmeasure.generators import gen_submeasure

    for seed in range(8):
        phi = gen_submeasure(5, seed)
        frag = from_submeasure(phi)
        assert check_fragmentation(frag).valid
        assert check_graded(frag).graded


def test_check_submeasure_names_the_oracles_first_violation():
    # one value of a valid table scaled by a ratio in [1/2, 3/2]: tables that
    # pass, and tables failing on range, the unit, monotonicity and
    # subadditivity, each named as the Fraction oracle names it
    rng = random.Random(97)
    kinds = ("outside", "unit", "monotone", "subadditive")
    seen = set()
    for i in range(320):
        phi = gen_submeasure(1 + i % 9, rng.randrange(1000))
        values = dict(phi.values)
        values[rng.choice(enumerate_nonzero(phi.space))] *= F(rng.randint(4, 12), 8)
        expected = submeasure_violation(phi.space, values)
        if expected is None:
            check_submeasure(Submeasure(phi.space, values))
        else:
            with pytest.raises(InputError) as exc:
                check_submeasure(Submeasure(phi.space, values))
            assert str(exc.value) == expected
        seen.add(next(k for k in kinds if k in expected) if expected else "valid")
    assert seen == {"valid", *kinds}


def test_submeasure_threshold_cut_on_exact_boundaries():
    # min(1, mu) over four atoms, least common denominator 12: values exactly
    # 1/2 and 1/4, 1/6 = 1/4 - 1/12, and 1/12 < 1/8 with 12 / 8 not an
    # integer.  Three atoms cannot hold 1/6 beside 1/4 and 1/2: a value 1/6
    # needs an atom worth at most 1/6, the other two then sum to at least
    # 5/6, and the table then cannot also take both 1/4 and 1/2.
    sp = AtomSpace(4)
    mu = (F(1, 12), F(1, 6), F(1, 2), F(1, 2))
    values = {e: min(F(1), sum(mu[x] for x in e.atoms)) for e in enumerate_nonzero(sp)}
    assert {F(1, 2), F(1, 4), F(1, 6), F(1, 12)} <= set(values.values())
    depth = next(n for n in range(1, 10) if min(mu) >= F(1, 2**n))
    assert depth == 4
    expected = tuple(
        frozenset(e for e, v in values.items() if v >= F(1, 2**n)) for n in range(1, depth + 1)
    )
    assert from_submeasure(Submeasure(sp, values)).levels == expected


def test_threshold_cut_matches_definition_and_shares_elements():
    # the cut writes tables and derives the level sets: they are the levels
    # by definition, their members are the enumeration's own elements, and
    # a set-built copy has the same tables and extracts the same levels
    rng = random.Random(83)
    for i in range(320):
        atoms, seed = rng.randint(1, 9), rng.randrange(1000)
        if i % 2:
            phi = gen_submeasure(atoms, seed, components=rng.randint(1, 4))
            frag, values = from_submeasure(phi), phi.values
        else:
            m = gen_measure(atoms, seed, max_weight=rng.choice([1, 2, 32, 1000]))
            frag = from_measure(m)
            values = {e: sum(m.atom_weights[x] for x in e.atoms) for e in enumerate_nonzero(m.space)}
        expected = threshold_levels(values)
        assert frag.depth == len(expected)
        assert list(frag.levels) == expected
        canon = {e.mask: e for e in enumerate_nonzero(frag.space)}
        assert all(e is canon[e.mask] for lv in frag.levels for e in lv)
        copy = Fragmentation(frag.space, frag.levels)
        assert copy == frag and copy._tables == frag._tables
        assert extract_graded_subfragmentation(copy) == extract_graded_subfragmentation(frag)


def test_table_built_copy_extracts_like_the_set_built_one():
    rng = random.Random(89)
    for _ in range(100):
        frag = _random_valid_fragmentation(rng, rng.randint(1, 6), levels=rng.randint(1, 5))
        copy = fragmentation._of_tables(frag.space, frag._tables)
        assert copy == frag
        assert extract_graded_subfragmentation(copy) == extract_graded_subfragmentation(frag)


def test_extract_already_graded_unchanged():
    rng = random.Random(61)
    frag = from_measure(_random_measure(rng, 5))
    out = extract_graded_subfragmentation(frag)
    assert out.levels == frag.levels


def test_extract_example_skips_duplicate_level():
    sp = AtomSpace(2)
    full = frozenset(enumerate_nonzero(sp))
    unit_only = frozenset([sp.unit])
    frag = Fragmentation(sp, (unit_only, unit_only, full))
    out = extract_graded_subfragmentation(frag)
    assert out.levels == (unit_only, full)
    assert check_graded(out).graded


def test_extract_appends_full_level_when_absent():
    sp = AtomSpace(2)
    unit_only = frozenset([sp.unit])
    frag = Fragmentation(sp, (unit_only, unit_only))
    out = extract_graded_subfragmentation(frag)
    assert out.levels[-1] == frozenset(enumerate_nonzero(sp))
    assert check_graded(out).graded
    assert check_fragmentation(out).valid


def test_extract_duplicated_measure_level():
    rng = random.Random(71)
    m = _random_measure(rng, 6)
    frag = from_measure(m)
    doubled = Fragmentation(frag.space, (frag.levels[0],) + frag.levels)
    out = extract_graded_subfragmentation(doubled)
    assert check_graded(out).graded
    mask_levels = [frozenset(e.mask for e in lv) for lv in doubled.levels]
    for lv in out.levels:
        assert frozenset(e.mask for e in lv) in mask_levels


def test_extract_output_is_subsequence_of_input_levels():
    rng = random.Random(73)
    for _ in range(20):
        frag = _random_valid_fragmentation(rng, rng.randint(2, 5), levels=rng.randint(2, 5))
        out = extract_graded_subfragmentation(frag)
        assert check_graded(out).graded
        # every selected level appears in the (possibly extended) input
        pool = list(frag.levels) + [frozenset(enumerate_nonzero(frag.space))]
        positions = []
        for lv in out.levels:
            positions.append(next(i for i, cand in enumerate(pool) if cand == lv))
        assert positions == sorted(positions)


def test_enumeration_cap_checked_before_subset_table(monkeypatch):
    def refuse(weights):
        raise AssertionError(f"2^{len(weights)} subset table built before the cap check")

    monkeypatch.setattr(fragmentation, "subset_sums", refuse)
    monkeypatch.setattr(generators, "subset_sums", refuse)
    with pytest.raises(SizeError):
        from_measure(gen_measure(17, 0))
    with pytest.raises(SizeError):
        gen_submeasure(17, 0)

import random
from itertools import combinations

import pytest

from boolmeasure.algebra import (
    AtomSpace,
    Collection,
    canonical_key,
    enumerate_nonzero,
)
from boolmeasure.errors import InputError, SizeError


def test_boolean_op_examples():
    sp = AtomSpace(3)
    assert sp.element([0, 1]).union(sp.element([1, 2])) == sp.element([0, 1, 2])
    assert sp.zero.union(sp.unit) == sp.unit


def test_mismatched_spaces_rejected():
    a = AtomSpace(2).element([0])
    b = AtomSpace(3).element([0])
    with pytest.raises(InputError):
        a.union(b)


def test_element_validation():
    sp = AtomSpace(3)
    with pytest.raises(InputError):
        sp.element([3])
    with pytest.raises(InputError):
        sp.element([-1])
    with pytest.raises(InputError):
        AtomSpace(0)
    assert sp.element([1, 1, 0]).atoms == (0, 1)


@pytest.mark.parametrize("n,count", [(1, 1), (2, 3), (3, 7), (4, 15), (5, 31), (12, 4095)])
def test_enumerate_counts(n, count):
    elems = enumerate_nonzero(AtomSpace(n))
    assert len(elems) == count
    assert len({e.mask for e in elems}) == count
    assert all(not e.is_zero for e in elems)
    assert list(elems) == sorted(elems, key=lambda e: (e.size, e.atoms))


def test_canonical_key_orders_by_size_then_atoms():
    for n in range(1, 11):
        sp = AtomSpace(n)
        every = [sp.from_mask(m) for m in range(sp.unit_mask + 1)]
        assert sorted(every, key=canonical_key) == sorted(every, key=lambda e: (e.size, e.atoms))


def test_canonical_key_on_the_replay_fixture():
    # 120 members of 119 atoms each over 7,140 pair-atoms: one size, so the
    # order is decided far from the low bits; smaller random sets added
    pairs = list(combinations(range(120), 2))
    sp = AtomSpace(len(pairs))
    members = [sp.element(x for x, pr in enumerate(pairs) if i in pr) for i in range(120)]
    rng = random.Random(41)
    members += [sp.element(rng.sample(range(len(pairs)), rng.randint(1, 119))) for _ in range(80)]
    rng.shuffle(members)
    assert sorted(members, key=canonical_key) == sorted(members, key=lambda e: (e.size, e.atoms))


def test_enumerate_small_examples():
    sp = AtomSpace(2)
    assert [e.atoms for e in enumerate_nonzero(sp)] == [(0,), (1,), (0, 1)]


def test_enumerate_cap():
    with pytest.raises(SizeError):
        enumerate_nonzero(AtomSpace(17))


def test_collection_rejects_zero_and_foreign_members():
    sp = AtomSpace(2)
    with pytest.raises(InputError):
        Collection(sp, (sp.zero,))
    with pytest.raises(InputError):
        Collection(sp, (AtomSpace(3).element([0]),))
    c = Collection(sp, (sp.element([0]), sp.element([0])))
    assert len(c.members) == 2  # repetition allowed

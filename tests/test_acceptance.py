"""Acceptance suite.

Each criterion prints one PASS/FAIL line (run with ``pytest -s`` to see them
on success).  All comparisons are exact rational arithmetic; the stated
runtime ceilings are asserted as hard limits.
"""

import random
import time
from fractions import Fraction as F
from itertools import combinations

import pytest

from boolmeasure.algebra import AtomSpace, Collection
from boolmeasure.certify import (
    build_signature_partition,
    certify_fragmentation,
    replay_proof,
    select_parameters,
)
from boolmeasure.expanders import build_expander, choice_function, verify_expansion
from boolmeasure.fragmentation import (
    Fragmentation,
    check_fragmentation,
    check_graded,
    from_measure,
    from_submeasure,
    max_antichain,
)
from boolmeasure.generators import gen_measure, gen_submeasure
from boolmeasure.intersection import intersection_number, intersection_number_bruteforce
from boolmeasure.measures import check_measure_axioms, measure_eval, measure_from_collection

from _oracles import reconstruct


def _line(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def collection_corpus():
    rng = random.Random(101)
    out = []
    for _ in range(200):
        sp = AtomSpace(rng.randint(1, 5))
        members = tuple(
            sp.from_mask(rng.randint(1, sp.unit_mask)) for _ in range(rng.randint(1, 6))
        )
        out.append(Collection(sp, members))
    return out


@pytest.fixture(scope="module")
def fragmentation_corpus():
    atom_counts = [2 + (i % 9) for i in range(100)]  # 2..10, each size repeatedly
    out = []
    for i, n in enumerate(atom_counts):
        m = gen_measure(n, 300 + i)
        out.append((m, from_measure(m)))
    return out


@pytest.fixture(scope="module")
def submeasure_corpus():
    out = []
    for i in range(20):
        n = 3 + (i % 7)  # 3..9 atoms
        phi = gen_submeasure(n, 800 + i)
        out.append(from_submeasure(phi))
    return out


@pytest.fixture(scope="module")
def certificates(fragmentation_corpus):
    return [certify_fragmentation(frag) for _, frag in fragmentation_corpus]


def test_criterion_1_lp_oracle_equivalence(collection_corpus):
    started = time.perf_counter()
    solutions = []
    for coll in collection_corpus:
        sol = intersection_number(coll)
        brute = intersection_number_bruteforce(coll, sol.value.denominator)
        assert brute == sol.value, (coll, sol.value, brute)
        solutions.append(sol)
    elapsed = time.perf_counter() - started
    ok = elapsed < 120
    _line(1, ok, f"{len(collection_corpus)} collections, LP == brute force, {elapsed:.1f}s")


def test_criterion_2_measure_lower_bound(collection_corpus):
    checked = 0
    for coll in collection_corpus:
        m, kappa = measure_from_collection(coll)
        for c in coll.members:
            assert measure_eval(m, c) >= kappa
            checked += 1
    _line(2, True, f"m(c) >= kappa exactly on {checked} member evaluations")


def test_criterion_3_threshold_pipeline(fragmentation_corpus):
    started = time.perf_counter()
    levels_checked = 0
    for _, frag in fragmentation_corpus:
        assert check_fragmentation(frag).valid
        assert check_graded(frag).graded
        for n in range(1, frag.depth + 1):
            assert max_antichain(frag, n, validate=False).size <= 2**n
            levels_checked += 1
    elapsed = time.perf_counter() - started
    ok = elapsed < 300
    _line(
        3,
        ok,
        f"{len(fragmentation_corpus)} measures, {levels_checked} levels valid+graded, "
        f"K_n <= 2^n, {elapsed:.1f}s",
    )


def test_criterion_4_level_bounds(fragmentation_corpus, submeasure_corpus, certificates):
    checked = 0
    for cert in certificates:
        for level_cert in cert.level_certificates:
            assert level_cert.kappa is not None
            assert level_cert.kappa >= level_cert.bound == F(1, 30 * level_cert.K**2)
            checked += 1
    for frag in submeasure_corpus:
        cert = certify_fragmentation(frag)
        for level_cert in cert.level_certificates:
            assert level_cert.kappa is not None
            assert level_cert.kappa >= level_cert.bound
            checked += 1
    _line(4, True, f"kappa_n >= 1/(30 K^2) exactly on {checked} levels, zero failures")


def test_criterion_5_parameter_arithmetic():
    p1 = select_parameters(1, 100)
    assert (p1.k, p1.p) == (3, 99)
    p2 = select_parameters(2, 400)
    assert (p2.k, p2.p) == (3, 199)
    for K in (1, 2, 3):
        params = select_parameters(K, 100 * K * K)
        assert params.p**2 >= 15 * params.m * params.k
        assert params.p * K < params.m
    _line(5, True, "k=3,p=99 at (1,100); k=3,p=199 at (2,400); inequalities hold for K=1..3")


def test_criterion_6_expander_tight_point():
    started = time.perf_counter()
    successes = 0
    family = None
    for seed in range(10):
        try:
            family = build_expander(20, 30, 3, seed=seed)
            successes += 1
        except Exception:  # noqa: BLE001 - a failed seed only lowers the tally
            continue
    assert family is not None
    report = verify_expansion(family)
    assert report.ok and report.checked == 195  # connected index sets of seed 9's family
    assert sum(len(list(combinations(range(20), j))) for j in (1, 2, 3)) == 1350
    choices = 0
    for j in (1, 2, 3):
        for idx in combinations(range(20), j):
            f = choice_function(family, idx)
            assert len(set(f.assignment.values())) == j
            choices += 1
    elapsed = time.perf_counter() - started
    ok = successes >= 9 and elapsed < 60
    _line(
        6,
        ok,
        f"{successes}/10 seeds built at (20,30,3); {report.checked} connected subsets verified; "
        f"{choices} choice functions; {elapsed:.1f}s",
    )


def _pairwise_intersecting_fixture(m=100):
    pairs = list(combinations(range(m), 2))
    atom_of = {pr: x for x, pr in enumerate(pairs)}
    sp = AtomSpace(len(pairs))
    members = [
        sp.element([atom_of[tuple(sorted((i, o)))] for o in range(m) if o != i])
        for i in range(m)
    ]
    level = frozenset(members)
    return members, Fragmentation(sp, (level, level, level))


def test_criterion_7_trace_identities():
    rng = random.Random(700)
    for _ in range(50):
        sp = AtomSpace(rng.randint(1, 8))
        seq = [sp.from_mask(rng.randint(1, sp.unit_mask)) for _ in range(rng.randint(1, 8))]
        part = build_signature_partition(seq)
        union, total = 0, 0
        for cell in part.cells.values():
            union |= cell.mask
            total += cell.size
        assert union == sp.unit_mask and total == sp.atom_count
        for i in range(len(seq)):
            assert reconstruct(part, i) == seq[i]

    members, frag = _pairwise_intersecting_fixture()
    traces = 0
    for seed in (11, 12):
        trace = replay_proof(frag, 1, members, seed=seed, trust_fragmentation=True)
        assert trace.a_table is not None and trace.expander is not None
        assert trace.verdict.kind == "descent_violation"
        columns = {}
        for (i, j), e in trace.a_table.items():
            columns.setdefault(j, []).append(e)
        for col in columns.values():
            union, total = 0, 0
            for e in col:
                union |= e.mask
                total += e.size
            assert union.bit_count() == total
        for i, c in enumerate(members):
            mask = 0
            for j in trace.expander.sets[i]:
                if (i, j) in trace.a_table:
                    mask |= trace.a_table[(i, j)].mask
            assert mask == c.mask
        traces += 1
    _line(7, True, f"partition identities on 50 sequences; a_ij identities on {traces} fixture traces")


def test_criterion_8_end_to_end(fragmentation_corpus, certificates):
    for (_, frag), cert in zip(fragmentation_corpus, certificates):
        m = cert.measure
        assert m.strictly_positive
        assert all(w > 0 for w in m.atom_weights)
        check_measure_axioms(m)
    _line(8, True, f"{len(certificates)} strictly positive measures pass the axioms exhaustively")

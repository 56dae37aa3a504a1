import json
import random
from fractions import Fraction as F
from itertools import combinations

import pytest

from boolmeasure import algebra, certify, cli, fragmentation, intersection, measures
from boolmeasure.algebra import AtomSpace, Collection, enumerate_nonzero
from boolmeasure.certify import (
    build_signature_partition,
    certify_fragmentation,
    certify_level,
    intersection_bound,
    minimum_sequence_length,
    replay_proof,
    select_parameters,
)
from boolmeasure.cli import main
from boolmeasure.errors import CertificationError, ContractError, InputError, SizeError
from boolmeasure.fragmentation import Fragmentation, from_measure, from_submeasure
from boolmeasure.generators import gen_measure, gen_submeasure
from boolmeasure.intersection import intersection_number, kappa_of_sequence
from boolmeasure.measures import Measure, check_measure_axioms, measure_eval

from _oracles import minimal_by_definition, reconstruct


def test_select_parameters_examples():
    p1 = select_parameters(1, 100)
    assert (p1.k, p1.p) == (3, 99)
    assert 3 * 30 < 100 <= 4 * 30  # k maximal by the defining inequalities
    assert 99 * 1 < 100 <= 100 * 1  # p maximal

    p2 = select_parameters(2, 400)
    assert (p2.k, p2.p) == (3, 199)
    assert p2.p * p2.p == 39601 and 15 * p2.m * p2.k == 18000
    assert p2.p * p2.p >= 15 * p2.m * p2.k

    with pytest.raises(InputError):
        select_parameters(1, 99)
    with pytest.raises(InputError):
        select_parameters(0, 100)


@pytest.mark.parametrize("K", [1, 2, 3, 4, 5])
def test_select_parameters_inequalities(K):
    for m in (100 * K * K, 100 * K * K + 1, 200 * K * K + 7):
        params = select_parameters(K, m)
        d = 30 * K * K
        assert params.k >= 3
        assert params.k * d < m <= (params.k + 1) * d
        assert params.k <= params.p
        assert params.p * K < m <= (params.p + 1) * K
        assert params.p * params.p >= 15 * params.m * params.k
        assert params.p < m


def test_witness_intersection_trivia():
    # the replay's witness is the sequence score: a deepest atom and J
    sp = AtomSpace(3)
    allsame = [sp.unit] * 5
    wit = kappa_of_sequence(allsame)
    assert wit.indices == (0, 1, 2, 3, 4)
    assert wit.ratio == 1 >= F(1, 2)

    disjoint = [sp.singleton(i) for i in range(3)]
    wit = kappa_of_sequence(disjoint)
    assert len(wit.indices) == 1 and wit.ratio == F(1, 3) < F(1, 2)


def test_signature_partition_small_example():
    sp = AtomSpace(2)
    part = build_signature_partition([sp.element([0]), sp.element([0, 1])])
    assert part.cells == {
        frozenset({0, 1}): sp.element([0]),
        frozenset({1}): sp.element([1]),
    }


def test_signature_partition_constant_sequence():
    sp = AtomSpace(3)
    c = sp.element([0, 2])
    part = build_signature_partition([c] * 4)
    assert set(part.cells) == {frozenset({0, 1, 2, 3}), frozenset()}
    assert part.cells[frozenset({0, 1, 2, 3})] == c
    assert part.cells[frozenset()] == sp.from_mask(sp.unit_mask & ~c.mask)


def test_signature_partition_identities_random():
    rng = random.Random(13)
    for _ in range(50):
        sp = AtomSpace(rng.randint(1, 8))
        seq = [sp.from_mask(rng.randint(1, sp.unit_mask)) for _ in range(rng.randint(1, 7))]
        part = build_signature_partition(seq)
        union = 0
        total = 0
        for cell in part.cells.values():
            union |= cell.mask
            total += cell.size
        assert union == sp.unit_mask and total == sp.atom_count  # disjoint cover of 1
        for i in range(len(seq)):
            assert reconstruct(part, i) == seq[i]


def _trivial_level_fragmentation():
    sp = AtomSpace(1)
    return Fragmentation(sp, (frozenset([sp.unit]),))


def test_certify_level_trivial():
    cert = certify_level(_trivial_level_fragmentation(), 1)
    assert cert.kappa == 1
    assert cert.K == 1
    assert cert.bound == F(1, 30)
    assert cert.measure.atom_weights == (F(1),)


def test_certify_level_uniform_four():
    sp = AtomSpace(4)
    frag = from_measure(Measure(sp, (F(1, 4),) * 4))
    cert = certify_level(frag, 1)
    assert cert.K == 4  # level 3 is B+ by extension, antichain = atoms
    assert cert.bound == F(1, 480)
    assert cert.kappa == F(1, 2)
    assert cert.kappa >= cert.bound


def test_certify_level_validation_and_errors():
    sp = AtomSpace(2)
    not_covering = Fragmentation(sp, (frozenset([sp.unit]),))
    with pytest.raises(ContractError):
        certify_level(not_covering, 1)
    with pytest.raises(InputError):
        certify_level(_trivial_level_fragmentation(), 2)


def _failing_bound(monkeypatch):
    """Make the certified bound exceed every kappa, as it would on levels
    mislabeled as graded, and return a valid fragmentation to certify."""
    monkeypatch.setattr(certify, "intersection_bound", lambda K: F(K + 1))
    return from_measure(gen_measure(6, 1))


def test_certification_error_on_mislabeled_levels(monkeypatch):
    # the failure carries the LP witness over the level's minimal members
    frag = _failing_bound(monkeypatch)
    with pytest.raises(CertificationError) as err:
        certify_level(frag, 1)
    witness = err.value.witness
    level = frag.level(1)
    K = fragmentation.max_antichain(frag, min(3, frag.depth)).size
    assert witness["level"] == 1
    assert witness["kappa"] == intersection_number(Collection(frag.space, tuple(level))).value
    assert witness["K"] == K
    assert witness["bound"] == K + 1
    by_size_then_atoms = sorted(minimal_by_definition(level), key=lambda e: (len(e.atoms), e.atoms))
    assert list(witness["members"]) == by_size_then_atoms
    assert len(witness["member_weights"]) == len(witness["members"])


def test_cli_certify_reports_certification_failure(monkeypatch, tmp_path, capsys):
    frag = _failing_bound(monkeypatch)
    with pytest.raises(CertificationError) as err:
        certify_fragmentation(frag)
    path = str(tmp_path / "m.json")
    assert main(["gen", "--kind", "measure", "--atoms", "6", "--seed", "1", "--out", path]) == 0
    capsys.readouterr()
    assert main(["certify", "--input", path]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == "fails" and report["levels"] == []
    witness = err.value.witness
    assert report["witnesses"]["certification_failure"] == {
        "level": 1,
        "kappa": f"{witness['kappa'].numerator}/{witness['kappa'].denominator}",
        "bound": f"{witness['K'] + 1}/1",
        "K": witness["K"],
        "member_weights": [str(w) for w in witness["member_weights"]],
        "members": [list(e.atoms) for e in witness["members"]],
    }


def test_certify_fragmentation_single_full_level_two_atoms():
    sp = AtomSpace(2)
    frag = Fragmentation(sp, (frozenset(enumerate_nonzero(sp)),))
    cert = certify_fragmentation(frag)
    # exact LP value: the best mixture plays the two singletons evenly
    assert cert.level_certificates[0].kappa == F(1, 2)
    assert cert.measure.atom_weights == (F(1, 2), F(1, 2))


def test_certify_fragmentation_measure_pipeline():
    rng = random.Random(19)
    for _ in range(10):
        m = gen_measure(rng.randint(1, 8), rng.randint(0, 10**6))
        frag = from_measure(m)
        cert = certify_fragmentation(frag)
        out = cert.measure
        assert out.strictly_positive
        check_measure_axioms(out)
        for level_cert, level in zip(cert.level_certificates, frag.levels):
            assert level_cert.kappa >= level_cert.bound
            assert all(
                measure_eval(level_cert.measure, c) >= level_cert.kappa for c in level
            )


def test_certify_fragmentation_submeasure_pipeline():
    for seed in range(5):
        phi = gen_submeasure(5, seed)
        frag = from_submeasure(phi)
        cert = certify_fragmentation(frag)
        assert cert.measure.strictly_positive
        check_measure_axioms(cert.measure)


def test_certify_bound_sweep_small():
    rng = random.Random(23)
    for _ in range(15):
        frag = from_measure(gen_measure(rng.randint(1, 8), rng.randint(0, 10**6)))
        for n in range(1, frag.depth + 1):
            cert = certify_level(frag, n)
            assert cert.kappa >= cert.bound
            assert cert.kappa == intersection_number(
                Collection(frag.space, tuple(frag.level(n)))
            ).value


def test_certify_rejects_non_graded():
    sp = AtomSpace(2)
    unit_only = frozenset([sp.unit])
    full = frozenset(enumerate_nonzero(sp))
    frag = Fragmentation(sp, (unit_only, unit_only, full))
    with pytest.raises(ContractError):
        certify_fragmentation(frag)


def test_replay_constant_sequence_closes_by_witness():
    sp = AtomSpace(2)
    level = frozenset([sp.unit, sp.element([0]), sp.element([1])])
    frag = Fragmentation(sp, (level,))
    K = 2  # the two singletons are disjoint
    seq = [sp.unit] * minimum_sequence_length(K)
    trace = replay_proof(frag, 1, seq, seed=0)
    assert trace.verdict.kind == "witness"
    assert trace.verdict.witness.ratio == 1
    assert trace.expander is None and trace.a_table is None
    assert trace.notes  # levels were extended with B+


def test_replay_measure_fragmentation_random_sequences():
    rng = random.Random(31)
    for _ in range(6):
        m = gen_measure(rng.randint(2, 6), rng.randint(0, 10**6))
        frag = from_measure(m)
        n = rng.randint(1, frag.depth)
        members = sorted(frag.level(n), key=lambda e: e.mask)
        levels_ext = list(frag.levels) + [frag.levels[-1]] * 2
        from boolmeasure.fragmentation import max_disjoint_family

        K, _ = max_disjoint_family(levels_ext[n + 1], frag.space)
        length = minimum_sequence_length(K)
        seq = [members[rng.randrange(len(members))] for _ in range(length)]
        trace = replay_proof(frag, n, seq, seed=7)
        assert trace.verdict.kind == "witness"
        # the witness really is a common-atom index set of qualifying ratio
        wit = trace.verdict.witness
        assert all((seq[i].mask >> wit.atom) & 1 for i in wit.indices)
        assert F(len(wit.indices), length) >= intersection_bound(K)
        assert len(wit.indices) >= trace.parameters.k + 1


def test_replay_validates_inputs():
    sp = AtomSpace(2)
    level = frozenset([sp.unit])
    frag = Fragmentation(sp, (level,))
    with pytest.raises(ContractError):
        replay_proof(frag, 1, [sp.unit] * 100, seed=0)  # not covering
    good = Fragmentation(sp, (frozenset(enumerate_nonzero(sp)),))
    with pytest.raises(InputError):
        replay_proof(good, 1, [], seed=0)
    with pytest.raises(InputError):
        replay_proof(good, 1, [sp.unit] * 10, seed=0)  # too short for K = 2
    with pytest.raises(ContractError):
        # member outside the level
        biglevel = frozenset([sp.unit])
        frag2 = Fragmentation(sp, (biglevel, biglevel, frozenset(enumerate_nonzero(sp))))
        replay_proof(frag2, 1, [sp.element([0])] * 100, seed=0, trust_fragmentation=True)


def _pairwise_intersecting_fixture(m=100):
    """m sets over pair-atoms: every two members share exactly one atom, every
    atom sits in exactly two members.  Pairwise intersecting, so the explicit
    level has antichain constant 1, yet the maximal depth is only 2 < k + 1;
    labeled graded although it is not, it drives the replay into the full
    contradiction route."""
    pairs = list(combinations(range(m), 2))
    atom_of = {pr: x for x, pr in enumerate(pairs)}
    sp = AtomSpace(len(pairs))
    members = []
    for i in range(m):
        atoms = [atom_of[tuple(sorted((i, o)))] for o in range(m) if o != i]
        members.append(sp.element(atoms))
    level = frozenset(members)
    return sp, members, Fragmentation(sp, (level, level, level))


def test_replay_corrupted_fixture_reaches_table_and_pinpoints_descent():
    sp, members, frag = _pairwise_intersecting_fixture()
    trace = replay_proof(frag, 1, members, seed=11, trust_fragmentation=True)
    assert trace.parameters.K == 1
    assert (trace.parameters.k, trace.parameters.p) == (3, 99)
    assert trace.verdict.kind == "descent_violation"
    assert "gradedness" in trace.verdict.failing_step
    assert trace.expander is not None and trace.a_table is not None

    # trace identities: per-column disjointness and member reconstruction
    columns = {}
    for (i, j), e in trace.a_table.items():
        columns.setdefault(j, []).append(e)
        assert e.mask & ~members[i].mask == 0
    for col in columns.values():
        union = 0
        total = 0
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


def test_replay_deterministic():
    sp, members, frag = _pairwise_intersecting_fixture()
    t1 = replay_proof(frag, 1, members, seed=3, trust_fragmentation=True)
    t2 = replay_proof(frag, 1, members, seed=3, trust_fragmentation=True)
    assert t1.expander == t2.expander
    assert t1.a_table == t2.a_table
    assert t1.verdict == t2.verdict


def count_calls(monkeypatch, module, name) -> list[int]:
    """Patch module.name with a wrapper that counts its calls."""
    original, calls = getattr(module, name), [0]

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def count_everywhere(monkeypatch, name) -> list[int]:
    """Count the calls of algebra.name, at every module that binds it."""
    original, calls = getattr(algebra, name), [0]

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    for module in (algebra, intersection, fragmentation, certify, cli):
        if getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("atoms", [4, 6, 8, 10])
def test_certify_fragmentation_analyses_each_level_once(monkeypatch, atoms):
    # each level's LP also bounds the antichain search two levels below, and
    # levels past the last are the last level, so depth LPs suffice; the
    # threshold cut hands validation its tables, so none is built from level
    # sets, and certify works on the minimal-member masks validation finds:
    # nothing reduces or sorts a level again
    frag = from_measure(gen_measure(atoms, 1))
    lp = count_calls(monkeypatch, intersection, "exact_lp_solve")
    scans = count_calls(monkeypatch, fragmentation, "_nested_upward_violation")
    tables = count_calls(monkeypatch, fragmentation, "_table")
    keys = count_everywhere(monkeypatch, "canonical_key")
    reductions = count_everywhere(monkeypatch, "minimal_elements")
    cert = certify_fragmentation(frag)
    assert lp[0] == frag.depth
    assert scans[0] == 1
    assert tables[0] == 0
    assert reductions[0] == 0
    assert keys[0] <= sum(c.K for c in cert.level_certificates)


def test_cli_certify_certifies_once(monkeypatch, tmp_path, capsys):
    # CLI certify validates and certifies once, then reports what it got;
    # the traces start from the certified K instead of solving its LP again
    path = str(tmp_path / "m.json")
    assert main(["gen", "--kind", "measure", "--atoms", "6", "--seed", "1", "--out", path]) == 0
    depth = from_measure(gen_measure(6, 1)).depth
    for trace in ([], ["--trace"]):
        lp = count_calls(monkeypatch, intersection, "exact_lp_solve")
        scans = count_calls(monkeypatch, fragmentation, "_nested_upward_violation")
        capsys.readouterr()
        assert main(["certify", "--input", path] + trace) == 0
        report = json.loads(capsys.readouterr().out)
        assert len(report["levels"]) == depth
        assert len(report.get("traces", [])) == (depth if trace else 0)
        assert lp[0] == depth
        assert scans[0] == 1


def test_cli_certify_trace_reads_levels_in_enumeration_order(monkeypatch, tmp_path, capsys):
    # each trace's sequence is read off the level's table in the enumeration's
    # order, so neither certify nor the traces sort or reduce a level
    path = str(tmp_path / "m.json")
    assert main(["gen", "--kind", "measure", "--atoms", "8", "--seed", "1", "--out", path]) == 0
    keys = count_everywhere(monkeypatch, "canonical_key")
    reductions = count_everywhere(monkeypatch, "minimal_elements")
    capsys.readouterr()
    assert main(["certify", "--input", path, "--trace"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert len(report["traces"]) == len(report["levels"])
    assert reductions[0] == 0
    assert keys[0] <= sum(level["K"] for level in report["levels"])


@pytest.mark.parametrize("atoms", [4, 6])
def test_certify_fragmentation_checks_each_member_once(monkeypatch, atoms):
    # the saddle-point check sees each minimal member of each level once; the
    # other members contain one of them, and a Measure's axioms hold by
    # construction, so nothing evaluates the measures again
    frag = from_measure(gen_measure(atoms, 1))
    assert not hasattr(certify, "measure_eval") and not hasattr(certify, "check_measure_axioms")
    evals = count_calls(monkeypatch, measures, "measure_eval")
    axioms = count_calls(monkeypatch, measures, "check_measure_axioms")
    original, checked = intersection._check_game_solution, [0]

    def counted(members, *args):
        checked[0] += len(members)
        return original(members, *args)

    monkeypatch.setattr(intersection, "_check_game_solution", counted)
    certify_fragmentation(frag)
    assert evals[0] == 0
    assert axioms[0] == 0
    assert checked[0] == sum(len(minimal_by_definition(level)) for level in frag.levels)


def test_certify_runs_to_the_enumeration_cap_and_refuses_past_it(monkeypatch, tmp_path, capsys):
    # a full certify takes up to ENUMERATION_CAP = 16 atoms, and refuses a
    # wider input before any level LP
    cert = certify_fragmentation(from_measure(gen_measure(13, 1)))
    assert cert.measure.strictly_positive
    path = str(tmp_path / "m13.json")
    assert main(["gen", "--kind", "measure", "--atoms", "13", "--seed", "1", "--out", path]) == 0
    capsys.readouterr()
    assert main(["certify", "--input", path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert all(F(w) > 0 for w in report["measure"]["weights"])

    def no_lp(*args):
        raise AssertionError("a level LP ran before the enumeration-cap refusal")

    monkeypatch.setattr(intersection, "exact_lp_solve", no_lp)
    message = "enumeration over 17 atoms exceeds the cap of 16"
    sp = AtomSpace(17)
    with pytest.raises(SizeError, match=message):
        certify_fragmentation(Fragmentation(sp, (frozenset([sp.unit]),)))
    path = str(tmp_path / "m17.json")
    assert main(["gen", "--kind", "measure", "--atoms", "17", "--seed", "1", "--out", path]) == 0
    capsys.readouterr()
    assert main(["certify", "--input", path]) == 2
    assert message in capsys.readouterr().err

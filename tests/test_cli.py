import contextlib
import io
import json
import subprocess
import sys
import time

from hypothesis import example, given, settings, strategies as st

from boolmeasure.cli import main


def run_cli(args: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "boolmeasure", *args], capture_output=True, text=True
    )


def write(tmp_path, name, payload) -> str:
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def test_gen_is_byte_identical_and_parses(tmp_path):
    a = run_cli(["gen", "--kind", "measure", "--atoms", "4", "--seed", "7"])
    b = run_cli(["gen", "--kind", "measure", "--atoms", "4", "--seed", "7"])
    assert a.returncode == 0 and b.returncode == 0
    assert a.stdout == b.stdout
    data = json.loads(a.stdout)
    assert data["atom_count"] == 4


def test_gen_kinds_produce_usable_sections(tmp_path):
    for kind, extra in [
        ("measure", []),
        ("submeasure", []),
        ("fragmentation", []),
        ("collection", ["--params", "size=4"]),
    ]:
        res = run_cli(["gen", "--kind", kind, "--atoms", "4", "--seed", "3", *extra])
        assert res.returncode == 0, res.stderr
        assert kind in json.loads(res.stdout)
    res = run_cli(["gen", "--kind", "expander", "--seed", "3", "--params", "m=20,p=30,k=3"])
    assert res.returncode == 0, res.stderr
    data = json.loads(res.stdout)
    assert data["expander"]["m"] == 20 and data["atom_count"] == 30


def test_gen_bad_params_exit_2():
    assert run_cli(["gen", "--kind", "expander", "--seed", "1"]).returncode == 2
    assert run_cli(["gen", "--kind", "measure", "--atoms", "3", "--seed", "1",
                    "--params", "bogus=1"]).returncode == 2


def test_gen_refuses_atom_counts_its_loader_refuses(tmp_path):
    out = tmp_path / "wide.json"
    for args in (["--kind", "measure", "--atoms", "10001"],
                 ["--kind", "expander", "--params", "m=20,p=10001,k=3"]):
        res = run_cli(["gen", *args, "--seed", "1", "--out", str(out)])
        assert res.returncode == 2 and "exceeds the cap of 10000" in res.stderr
        assert not out.exists()
    res = run_cli(["gen", "--kind", "measure", "--atoms", "10000", "--seed", "1", "--out", str(out)])
    assert res.returncode == 0 and json.loads(out.read_text())["atom_count"] == 10000


def test_gen_refuses_huge_counts_before_generating(tmp_path):
    # unbounded, a collection grows until memory runs out and each
    # submeasure component costs a 2^n table
    out = tmp_path / "huge.json"
    for kind, params in (("collection", "size=1000000000"), ("submeasure", "components=1000000000"),
                         ("collection", "size=100001"), ("submeasure", "components=65")):
        res = subprocess.run([sys.executable, "-m", "boolmeasure", "gen", "--kind", kind, "--atoms", "2",
                              "--seed", "1", "--params", params, "--out", str(out)],
                             capture_output=True, text=True, timeout=10)
        assert res.returncode == 2 and "error:" in res.stderr
        assert not out.exists()
    res = run_cli(["gen", "--kind", "collection", "--atoms", "2", "--seed", "1", "--params", "size=100000"])
    assert res.returncode == 0 and len(json.loads(res.stdout)["collection"]) == 100_000
    res = run_cli(["gen", "--kind", "submeasure", "--atoms", "2", "--seed", "1", "--params", "components=64"])
    assert res.returncode == 0 and "submeasure" in json.loads(res.stdout)


def test_kappa_brute_refuses_a_huge_length_at_once(tmp_path):
    path = write(tmp_path, "c.json", {"atom_count": 5, "collection": [[0, 1], [1, 2], [2, 3]]})
    res = subprocess.run([sys.executable, "-m", "boolmeasure", "kappa", "--input", path,
                          "--brute", "1000000000"], capture_output=True, text=True, timeout=10)
    assert res.returncode == 2 and "brute-force budget" in res.stderr


def test_kappa_and_measure_refuse_a_wide_lp_at_once(tmp_path, capsys):
    # 100 random members of 10,000 atoms make a 10,000 x 10,100 tableau,
    # which would run for minutes
    path = str(tmp_path / "wide.json")
    assert main(["gen", "--kind", "collection", "--atoms", "10000", "--seed", "1",
                 "--params", "size=100", "--out", path]) == 0
    res = subprocess.run([sys.executable, "-m", "boolmeasure", "kappa", "--input", path],
                         capture_output=True, text=True, timeout=10)
    assert res.returncode == 2 and res.stderr.startswith("error:")
    assert "tableau cells" in res.stderr
    assert main(["measure", "--input", path]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_kappa_singleton(tmp_path):
    path = write(tmp_path, "single.json", {"atom_count": 2, "collection": [[0, 1]]})
    res = run_cli(["kappa", "--input", path])
    assert res.returncode == 0
    report = json.loads(res.stdout)
    assert report["values"]["kappa"] == "1/1"
    assert report["verdict"] == "computed"


def test_kappa_disjoint_pair_with_brute(tmp_path):
    path = write(tmp_path, "pair.json", {"atom_count": 2, "collection": [[0], [1]]})
    res = run_cli(["kappa", "--input", path, "--brute", "2"])
    assert res.returncode == 0
    report = json.loads(res.stdout)
    assert report["values"]["kappa"] == "1/2"
    assert report["values"]["brute_value"] == "1/2"
    assert report["values"]["agreement"] is True


def test_kappa_all_pairs_of_four(tmp_path):
    members = [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]]
    path = write(tmp_path, "pairs.json", {"atom_count": 4, "collection": members})
    res = run_cli(["kappa", "--input", path, "--brute", "6"])
    report = json.loads(res.stdout)
    assert report["values"]["kappa"] == "1/2"
    assert report["values"]["agreement"] is True


def test_kappa_bare_brute_defaults_to_denominator(tmp_path):
    path = write(tmp_path, "tri.json",
                 {"atom_count": 3, "collection": [[0, 1], [1, 2], [0, 2]]})
    res = run_cli(["kappa", "--input", path, "--brute"])
    assert res.returncode == 0
    report = json.loads(res.stdout)
    assert report["values"]["kappa"] == "2/3"
    assert report["values"]["brute_max_len"] == 3
    assert report["values"]["agreement"] is True
    assert run_cli(["kappa", "--input", path, "--brute", "xyz"]).returncode == 2


def test_certify_submeasure_auto_conversion(tmp_path):
    gen = run_cli(["gen", "--kind", "submeasure", "--atoms", "4", "--seed", "6",
                   "--out", str(tmp_path / "s.json")])
    assert gen.returncode == 0
    res = run_cli(["certify", "--input", str(tmp_path / "s.json")])
    assert res.returncode == 0, res.stderr
    report = json.loads(res.stdout)
    assert report["verdict"] == "holds"
    assert "submeasure thresholds" in " ".join(report["notes"])


def test_certify_submeasure_key_out_of_canonical_form_exits_2(tmp_path, capsys):
    # "0,0" names the element {0} again; it must not silently replace "0"
    values = {"0": "1/2", "1": "1/2", "0,1": "1", "0,0": "3/4"}
    path = write(tmp_path, "s.json", {"atom_count": 2, "submeasure": {"values": values}})
    assert main(["certify", "--input", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "submeasure key '0,0'" in captured.err


def test_certify_submeasure_repeated_key_exits_2(tmp_path, capsys):
    # the second "0" must not silently replace the first
    path = tmp_path / "s.json"
    path.write_text(
        '{"atom_count": 2, "submeasure": {"values": '
        '{"": "0", "0": "1/2", "1": "1/2", "0,1": "1", "0": "3/4"}}}',
        encoding="utf-8",
    )
    assert main(["certify", "--input", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "repeats the key '0'" in captured.err


def test_kappa_input_errors_exit_2(tmp_path):
    missing = write(tmp_path, "m.json", {"atom_count": 2})
    assert run_cli(["kappa", "--input", missing]).returncode == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert run_cli(["kappa", "--input", str(bad)]).returncode == 2
    assert run_cli(["kappa", "--input", str(tmp_path / "absent.json")]).returncode == 2
    empty = write(tmp_path, "e.json", {"atom_count": 2, "collection": []})
    assert run_cli(["kappa", "--input", empty]).returncode == 2


def test_input_that_is_not_utf8_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe" + '{"atom_count": 2}'.encode("utf-16-le"))
    assert main(["check-frag", "--input", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: malformed JSON in ")
    assert "can't decode byte 0xff" in captured.err


def test_oversized_atom_count_exits_2_at_once(tmp_path, capsys):
    # a 50-byte file must not make the per-atom reports millions of entries long
    path = write(tmp_path, "wide.json", {"atom_count": 3000000, "collection": [[0], [1]]})
    for command in ("kappa", "measure"):
        start = time.perf_counter()
        code = main([command, "--input", path])
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert code == 2
        assert "atom_count 3000000 exceeds the cap" in captured.err
        assert captured.out == ""
        assert elapsed < 1.0


def test_measure_command(tmp_path):
    path = write(tmp_path, "c.json", {"atom_count": 2, "collection": [[0], [1]]})
    res = run_cli(["measure", "--input", path])
    assert res.returncode == 0
    report = json.loads(res.stdout)
    assert report["values"]["kappa"] == "1/2"
    assert report["values"]["measure"]["weights"] == ["1/2", "1/2"]
    assert report["values"]["member_values"] == ["1/2", "1/2"]


def test_certify_from_measure_file(tmp_path):
    gen = run_cli(["gen", "--kind", "measure", "--atoms", "5", "--seed", "2",
                   "--out", str(tmp_path / "m.json")])
    assert gen.returncode == 0
    res = run_cli(["certify", "--input", str(tmp_path / "m.json")])
    assert res.returncode == 0, res.stderr
    report = json.loads(res.stdout)
    assert report["verdict"] == "holds"
    assert "measure" in report
    for level in report["levels"]:
        assert level["kappa"] is not None and level["bound"] is not None


def test_certify_single_level_and_trace(tmp_path):
    path = write(
        tmp_path, "f.json",
        {"atom_count": 2, "fragmentation": {"levels": [[[0], [1], [0, 1]]]}},
    )
    res = run_cli(["certify", "--input", path, "--level", "1", "--trace", "--seed", "5"])
    assert res.returncode == 0, res.stderr
    report = json.loads(res.stdout)
    assert report["levels"][0]["kappa"] == "1/2"
    trace = report["traces"][0]
    assert trace["verdict"]["kind"] == "witness"
    assert trace["parameters"]["K"] == 2


def test_certify_non_graded_fixture_exits_1(tmp_path):
    # C_1 = C_2 = {1}, C_3 = B+: valid fragmentation, but not graded
    frag = {"levels": [[[0, 1]], [[0, 1]], [[0], [1], [0, 1]]]}
    path = write(tmp_path, "bad.json", {"atom_count": 2, "fragmentation": frag})
    res = run_cli(["certify", "--input", path])
    assert res.returncode == 1
    report = json.loads(res.stdout)
    assert report["verdict"] == "fails"
    witness = report["witnesses"]["graded_violation"]
    assert witness["level"] == 1
    assert witness["whole"] == [0, 1] and witness["part"] == [0]


def test_certify_invalid_fragmentation_exits_1(tmp_path):
    frag = {"levels": [[[0]]]}  # not upward closed, not covering
    path = write(tmp_path, "bad2.json", {"atom_count": 2, "fragmentation": frag})
    res = run_cli(["certify", "--input", path])
    assert res.returncode == 1
    report = json.loads(res.stdout)
    assert report["witnesses"]["fragmentation_violation"]["kind"] == "upward"


def test_check_frag_holds_and_fails(tmp_path):
    good = run_cli(["gen", "--kind", "fragmentation", "--atoms", "4", "--seed", "9",
                    "--out", str(tmp_path / "g.json")])
    assert good.returncode == 0
    res = run_cli(["check-frag", "--input", str(tmp_path / "g.json")])
    assert res.returncode == 0
    report = json.loads(res.stdout)
    assert report["values"]["valid"] and report["values"]["graded"]

    bad = write(tmp_path, "b.json",
                {"atom_count": 2, "fragmentation": {"levels": [[[0, 1]], [[0, 1]],
                                                               [[0], [1], [0, 1]]]}})
    res = run_cli(["check-frag", "--input", bad])
    assert res.returncode == 1
    assert "graded_violation" in json.loads(res.stdout)["witnesses"]


def test_antichain_command(tmp_path):
    path = write(
        tmp_path, "f.json",
        {"atom_count": 3, "fragmentation": {"levels": [[[0], [1], [2], [0, 1], [0, 2],
                                                        [1, 2], [0, 1, 2]]]}},
    )
    res = run_cli(["antichain", "--input", path, "--level", "1"])
    assert res.returncode == 0
    report = json.loads(res.stdout)
    assert report["values"]["K"] == 3
    assert report["values"]["witness"] == [[0], [1], [2]]
    assert run_cli(["antichain", "--input", path, "--level", "2"]).returncode == 2


def test_antichain_invalid_fragmentation_exits_1_with_witness(tmp_path, capsys):
    # the only level is empty, so the fragmentation does not cover atom 0
    path = write(tmp_path, "empty.json", {"atom_count": 1, "fragmentation": {"levels": [[]]}})
    assert main(["antichain", "--input", path, "--level", "1"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["command"] == "antichain" and report["verdict"] == "fails"
    violation = report["witnesses"]["fragmentation_violation"]
    assert violation == {"kind": "covering", "level": 1, "elements": [[0]]}


def test_kr_verify_roundtrip(tmp_path):
    gen = run_cli(["gen", "--kind", "expander", "--seed", "4",
                   "--params", "m=20,p=30,k=3", "--out", str(tmp_path / "x.json")])
    assert gen.returncode == 0
    res = run_cli(["kr-verify", "--input", str(tmp_path / "x.json"), "--choices"])
    assert res.returncode == 0, res.stderr
    report = json.loads(res.stdout)
    assert report["values"]["checked"] == 224  # connected index sets, of 1,350
    assert report["values"]["choice_functions"] == 1350


def test_kr_verify_choices_refuses_past_the_budget(tmp_path, capsys):
    # 50,665 connected index sets verify; C(400, <= 3) = 10,667,000 choice
    # functions would not finish
    path = str(tmp_path / "x.json")
    assert main(["gen", "--kind", "expander", "--seed", "1",
                 "--params", "m=400,p=199,k=3", "--out", path]) == 0
    assert main(["kr-verify", "--input", path]) == 0
    assert json.loads(capsys.readouterr().out)["values"]["checked"] == 50_665
    start = time.perf_counter()
    assert main(["kr-verify", "--input", path, "--choices"]) == 2
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "10667000 index sets exceed the choice-function budget" in captured.err
    assert elapsed < 5.0


def test_kr_verify_failure_witness(tmp_path):
    payload = {
        "atom_count": 9,
        "expander": {"m": 3, "p": 9, "k": 3,
                     "sets": [[0, 1, 2], [0, 1, 2], [0, 1, 2]]},
    }
    path = write(tmp_path, "x.json", payload)
    res = run_cli(["kr-verify", "--input", path])
    assert res.returncode == 1
    report = json.loads(res.stdout)
    assert report["witnesses"]["violating_indices"] == [0, 1, 2]


def test_exit_codes_never_other(tmp_path):
    # a large sample of malformed invocations must map onto {0, 1, 2}
    outcomes = set()
    outcomes.add(run_cli(["kappa"]).returncode)
    outcomes.add(run_cli(["nope"]).returncode)
    outcomes.add(run_cli([]).returncode)
    path = write(tmp_path, "c.json", {"atom_count": 2, "collection": [[0]]})
    outcomes.add(run_cli(["kappa", "--input", path]).returncode)
    assert outcomes <= {0, 1, 2}


SMOKE_FIXTURES = {
    "measure": ["--atoms", "4"],
    "submeasure": ["--atoms", "4"],
    "fragmentation": ["--atoms", "4"],
    "collection": ["--atoms", "4"],
    "expander": ["--params", "m=20,p=30,k=3"],
}

# each subcommand with the fixture kinds whose section it reads
SMOKE_COMMANDS = [
    (["kappa"], {"collection"}),
    (["kappa", "--brute"], {"collection"}),
    (["measure"], {"collection"}),
    (["certify"], {"measure", "submeasure", "fragmentation"}),
    (["certify", "--level", "1", "--trace"], {"measure", "submeasure", "fragmentation"}),
    (["check-frag"], {"measure", "submeasure", "fragmentation"}),
    (["antichain", "--level", "1"], {"measure", "submeasure", "fragmentation"}),
    (["kr-verify"], {"expander"}),
    (["kr-verify", "--choices"], {"expander"}),
]


def _check_parameters_block(params: dict) -> None:
    # the inequalities of the KRParameters docstring, from the report's integers
    K, m, k, p = params["K"], params["m"], params["k"], params["p"]
    assert m == 100 * K * K
    assert k >= 3 and k * 30 * K * K < m
    assert p >= k and p * K < m
    assert p * p >= 15 * m * k


def test_every_subcommand_on_every_fixture_kind(tmp_path, capsys):
    # an internal error also exits 2, so the exit code alone cannot tell a bug
    # from bad input; stderr must never report one
    paths = {}
    for kind, extra in SMOKE_FIXTURES.items():
        paths[kind] = str(tmp_path / f"{kind}.json")
        assert main(["gen", "--kind", kind, "--seed", "3", *extra, "--out", paths[kind]]) == 0
    capsys.readouterr()

    parameter_blocks = 0
    for command, kinds in SMOKE_COMMANDS:
        for kind, path in paths.items():
            code = main([command[0], "--input", path, *command[1:]])
            out, err = capsys.readouterr()
            case = f"{' '.join(command)} on {kind}: exit {code}, stderr {err!r}"
            assert code in (0, 1, 2), case
            assert "internal error" not in err, case
            if kind not in kinds:
                assert code == 2, case
                assert err.startswith("error: ") and ' no "' in err, case
                assert err.rstrip().endswith('" section'), case
                continue
            report = json.loads(out)
            assert report["command"] == command[0], case
            if command[0] == "certify" and code == 0:
                assert report["levels"], case
                for level in report["levels"]:
                    if level["kappa"] is not None:
                        _check_parameters_block(level["parameters"])
                        parameter_blocks += 1
    assert parameter_blocks > 0


# Random and malformed instance files.  Atom counts stay at most 6 and
# expanders at most 8 sets, so every exhaustive path stays small.
_JUNK = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 6) | st.floats(-2, 2) | st.text("0123,/ab-", max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text("0,a", max_size=3), inner, max_size=3),
    max_leaves=6,
)
_ELEMENT = st.lists(st.integers(-1, 6), max_size=4)
_RATIONAL = st.sampled_from(["1/2", "1/3", "1/6", "1", "0", "2/3", "-1/2", "1/0", "x"]) | _JUNK
_INSTANCE = st.fixed_dictionaries(
    {},
    optional={
        "atom_count": st.integers(0, 6) | _JUNK,
        "collection": st.lists(_ELEMENT | _JUNK, max_size=4) | _JUNK,
        "measure": st.fixed_dictionaries({"weights": st.lists(_RATIONAL, max_size=6)}) | _JUNK,
        "submeasure": st.fixed_dictionaries(
            {"values": st.dictionaries(st.text("0123,a", max_size=5), _RATIONAL, max_size=6)}
        )
        | _JUNK,
        "fragmentation": st.fixed_dictionaries(
            {"levels": st.lists(st.lists(_ELEMENT, max_size=4) | _JUNK, max_size=3)}
        )
        | _JUNK,
        "expander": st.fixed_dictionaries(
            {
                "m": st.integers(1, 8) | _JUNK,
                "p": st.integers(1, 6) | _JUNK,
                "k": st.integers(1, 4) | _JUNK,
                "sets": st.lists(st.lists(st.integers(0, 6), max_size=4) | _JUNK, max_size=8),
            }
        )
        | _JUNK,
    },
)

_CONTRACT_COMMANDS = [
    ["kappa"],
    ["kappa", "--brute", "3"],
    ["measure"],
    ["certify"],
    ["certify", "--level", "1", "--trace"],
    ["check-frag"],
    ["antichain", "--level", "1"],
    ["kr-verify"],
    ["kr-verify", "--choices"],
]


@settings(max_examples=60, deadline=None)
@given(instance=_INSTANCE)
@example(instance={"atom_count": 2, "submeasure": {"values": {"a": "1"}}})
@example(instance={"atom_count": 2, "submeasure": {"values": {"0,": "1"}}})
@example(instance={"atom_count": 2, "fragmentation": {"levels": [3]}})
@example(instance={"expander": {"m": "1", "p": 6, "k": 3, "sets": [[0, 1, 2]]}})
@example(instance={"expander": {"m": 1, "p": 6, "k": 3, "sets": [5]}})
@example(instance={"atom_count": 1, "fragmentation": {"levels": [[]]}})
def test_cli_contract_on_random_instances(tmp_path_factory, instance):
    path = tmp_path_factory.getbasetemp() / "contract-instance.json"
    path.write_text(json.dumps(instance), encoding="utf-8")
    for command in _CONTRACT_COMMANDS:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command[0], "--input", str(path), *command[1:]])
        case = f"{' '.join(command)} on {instance!r}: exit {code}, stderr {err.getvalue()!r}"
        assert code in (0, 1, 2), case
        assert "internal error" not in err.getvalue(), case
        if code in (0, 1):  # both promise a JSON report, exit 1 with its witness
            assert json.loads(out.getvalue())["command"] == command[0], case

"""Pins the CLI's reports and exit codes on small generated instances.

Each run is ``cli.main`` in process over a ``gen`` fixture; its report, less
``wall_time_s``, is hashed together with its exit code and compared with the
committed table ``pinned_reports.json``.  A change that alters any report
fails here and names the first run that differs.

After a deliberate change of the reports, rewrite the table with

    PYTHONPATH=src python tests/test_reports.py
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

from boolmeasure.cli import main

TABLE = Path(__file__).with_name("pinned_reports.json")
ATOMS = range(2, 10)
SEEDS = (0, 1, 2)
LEVEL_COMMANDS = (
    ("certify",),
    ("certify", "--trace"),
    ("certify", "--level", "1"),
    ("check-frag",),
    ("antichain", "--level", "1"),
)
COLLECTION_COMMANDS = (("kappa",), ("measure",))
EXPANDER_PARAMS = ("m=20,p=30,k=3", "m=12,p=30,k=3")
EXPANDER_COMMANDS = (("kr-verify",), ("kr-verify", "--choices"))


def _runs():
    """(name, gen arguments, command) of every pinned run."""
    for atoms in ATOMS:
        for seed in SEEDS:
            for kind in ("measure", "submeasure", "fragmentation"):
                gen = ["--kind", kind, "--atoms", str(atoms), "--seed", str(seed)]
                for command in LEVEL_COMMANDS:
                    yield f"{kind}-{atoms}-{seed} {' '.join(command)}", gen, command
            gen = ["--kind", "collection", "--atoms", str(atoms), "--seed", str(seed)]
            for command in COLLECTION_COMMANDS:
                yield f"collection-{atoms}-{seed} {' '.join(command)}", gen, command
    for params in EXPANDER_PARAMS:
        gen = ["--kind", "expander", "--seed", "1", "--params", params]
        for command in EXPANDER_COMMANDS:
            yield f"expander-{params}-1 {' '.join(command)}", gen, command


def _digest(code: int, stdout: str) -> str:
    report = json.loads(stdout) if stdout else None
    if report is not None:
        report.pop("wall_time_s")
    text = json.dumps({"exit": code, "report": report}, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def digests(workdir: Path) -> dict[str, str]:
    """The digest of every pinned run, with fixtures written to ``workdir``."""
    out = {}
    for name, gen, command in _runs():
        path = workdir / f"{'-'.join(gen[1::2])}.json"
        if not path.exists():
            assert main(["gen", *gen, "--out", str(path)]) == 0
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            code = main([command[0], "--input", str(path), *command[1:]])
        out[name] = _digest(code, stdout.getvalue())
    return out


def test_reports_match_the_pinned_table(tmp_path):
    expected = json.loads(TABLE.read_text(encoding="utf-8"))
    actual = digests(tmp_path)
    assert list(actual) == list(expected), "the pinned runs changed; rewrite the table"
    differing = [name for name in expected if actual[name] != expected[name]]
    assert not differing, f"{len(differing)} reports differ, first: {differing[0]}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as workdir:
        table = digests(Path(workdir))
    TABLE.write_text(json.dumps(table, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(table)} digests to {TABLE}", file=sys.stderr)

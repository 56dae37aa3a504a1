#!/usr/bin/env python3
"""Benchmark of the boolmeasure library, one workload per run.

    python3 bench/run.py --workload corpus-certify --seed 1 --seconds 40 --trace 0

Run from the root of a checkout.  The library is imported from this
checkout's ``src/`` and driven through its public functions, in one process
and one thread.  Inputs come from ``--seed`` alone, and every op's output is
checked exactly outside the timed region.

``--trace 0`` times whole cycles of ops until ``--seconds`` of op time are
measured and reports the end-to-end metrics.  Op latency and throughput are
given in units of a fixed reference computation timed next to every op, so
that drift in the machine's speed cancels; the line before the result gives
them in seconds too.  ``--trace 1`` runs a fixed
number of cycles, sized from ``--seconds``, once plainly and once with spans
around every layer entry point; it reports the per-layer metrics and writes
the spans to ``bench/out/``.  The last line of stdout is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
See ``bench/README.md`` for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import random
import resource
import statistics
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

from checks import CheckError
from tracing import Tracer
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / "out"

#: Set-up (import plus input generation) is repeated and its median reported.
SETUP_REPEATS = 5

#: Each op's latency is divided by the median time of the reference work run
#: after each op at most this many ops away from it.
REFERENCE_WINDOW = 2


def reference_work() -> int:
    """Fixed stdlib work of the kind the library does: exact Fraction sums,
    bit masks and hashed sets.  Timed next to every op, it measures how fast
    the machine runs at that moment, which drifts by up to 2x on shared VMs."""
    total = Fraction(0)
    masks = set()
    for i in range(1, 300):
        total += Fraction(i % 7 + 1, i % 61 + 1)
        masks.add((i * 2654435761) & 0x3FF)
    return total.numerator + len(masks)


def in_reference_units(latencies: list[float], references: list[float]) -> list[float]:
    """Each latency over the median reference time around it."""
    w = REFERENCE_WINDOW
    return [
        t / statistics.median(references[max(0, i - w) : i + w + 1])
        for i, t in enumerate(latencies)
    ]


def import_library() -> None:
    """Import boolmeasure afresh from this checkout's src/, never from elsewhere."""
    package = SRC / "boolmeasure"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"bench: no library sources at {package}")
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "boolmeasure" or n.startswith("boolmeasure.")]:
        del sys.modules[name]
    library = importlib.import_module("boolmeasure")
    if Path(library.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"bench: boolmeasure was imported from {library.__file__}")


def setup(workload, seed: int, repeats: int):
    """Import and build the input pool ``repeats`` times; median seconds and pool."""
    times = []
    for _ in range(repeats):
        gc.collect()
        start = perf_counter()
        import_library()
        pool = workload.build(random.Random(f"{workload.name}:{seed}"), workload.pool_cycles)
        times.append(perf_counter() - start)
    return statistics.median(times), pool


class Tally:
    """Attempted and failed ops, and the exact values each input produced."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.values: dict[tuple[int, int], tuple] = {}

    def record(self, key: tuple[int, int], op, result, error) -> None:
        self.attempted += 1
        if error is not None:
            self.failures.append(f"{op.label}: {type(error).__name__}: {error}")
            return
        try:
            values = op.check(result)
        except CheckError as exc:
            self.failures.append(f"{op.label}: check failed: {exc}")
            return
        first = self.values.setdefault(key, values)
        if first != values:
            self.failures.append(f"{op.label}: values changed on a repeated input")

    def digest(self) -> str:
        """Hash of the first pool cycle's values: equal on every run of a seed."""
        first = [v for (cycle, _), v in sorted(self.values.items()) if cycle == 0]
        return hashlib.sha256(repr(first).encode()).hexdigest()[:16]


def relative_total(cycles: list[tuple[list[float], list[float]]]) -> float:
    """Summed op time, in reference units, of cycles as ``run_cycle`` returns them."""
    return sum(sum(in_reference_units(*cycle)) for cycle in cycles)


def run_cycle(pool, cycle: int, tally: Tally, call=None) -> tuple[list[float], list[float]]:
    """Run one cycle of ops, checking each; returns the op latencies and the
    time of the reference work run after each op."""
    index = cycle % len(pool)
    latencies, references = [], []
    for position, op in enumerate(pool[index]):
        error = result = None
        start = perf_counter()
        try:
            result = op.run() if call is None else call(op.run, tally.attempted)
        except Exception as exc:  # a failing op is counted, and the run goes on
            error = exc
        between = perf_counter()
        reference_work()
        references.append(perf_counter() - between)
        latencies.append(between - start)
        tally.record((index, position), op, result, error)
    return latencies, references


def measure(workload, seed: int, seconds: float):
    setup_s, pool = setup(workload, seed, SETUP_REPEATS)
    tally = Tally()
    latencies: list[float] = []
    references: list[float] = []
    cycle = 0
    # Whole cycles only, so every run times the same mix; stop at the cycle
    # boundary nearest to the requested op time.
    while True:
        times, refs = run_cycle(pool, cycle, tally)
        latencies += times
        references += refs
        cycle += 1
        timed = sum(latencies)
        if timed + timed / cycle / 2 >= seconds:
            break
    relative = in_reference_units(latencies, references)
    deciles = statistics.quantiles(relative, n=10)
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_kref": (1000 * len(relative) / sum(relative), "1/kref"),
        "op_p50_ref": (deciles[4], "ref"),
        "op_p90_ref": (deciles[8], "ref"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    seconds_deciles = statistics.quantiles(latencies, n=10)
    notes = (
        f"cycles={cycle} latency_samples={len(latencies)} timed_s={timed:.3f} "
        f"ops_per_s={len(latencies) / timed:.4f} op_p50_s={seconds_deciles[4]:.6f} "
        f"op_p90_s={seconds_deciles[8]:.6f} reference_ms={1000 * statistics.median(references):.4f}"
    )
    return tally, metrics, notes


def trace(workload, seed: int, seconds: float):
    _, pool = setup(workload, seed, 1)
    # A third of the time per pass leaves room for the traced pass's overhead
    # and for a machine slower than the one that set cycle_seconds.
    cycles = max(1, int(seconds / 3 / workload.cycle_seconds))
    tally = Tally()
    plain = [run_cycle(pool, c, tally) for c in range(cycles)]
    with Tracer() as tracer:
        traced = [run_cycle(pool, c, tally, call=tracer.root) for c in range(cycles)]
    untraced_wall = sum(sum(times) for times, _ in plain)
    overhead = relative_total(traced) / relative_total(plain)
    metrics = tracer.metrics(untraced_wall, overhead)
    tracer.write_spans(OUT / f"spans-{workload.name}-seed{seed}.jsonl.gz")
    notes = (
        f"cycles={cycles} spans={len(tracer.span_start)} "
        f"absent={','.join(tracer.absent) or '-'} uncounted={','.join(sorted(tracer.unreadable)) or '-'}"
    )
    return tally, metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    workload = WORKLOADS[args.workload]

    tally, metrics, notes = (trace if args.trace else measure)(workload, args.seed, args.seconds)
    failed = len(tally.failures)
    print(
        f"# {workload.name} seed={args.seed} trace={args.trace} {notes} "
        f"fail_ratio={failed / tally.attempted} values_sha256={tally.digest()}"
    )
    for failure in tally.failures[:20]:
        print(f"# failed: {failure}")
    result = {
        "correct": failed == 0,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

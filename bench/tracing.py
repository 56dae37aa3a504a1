"""Spans and work counts for the traced run.

Inside a ``Tracer`` block every layer entry point in ``TARGETS`` is replaced,
at every import site in the ``boolmeasure`` package, by a wrapper that records
a span; on exit the originals are put back.  Nothing in the library changes.
Spans (name, start, end, parent, op) stay in memory in flat arrays until
``write_spans``.  A wrapped function called outside an op's root span runs
unrecorded, so the output checks never show up in the trace.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
from array import array
from time import perf_counter

#: Layer entry points, as (module, function).  Per-element helpers such as
#: ``measure_eval``, ``canonical_key`` and ``Element`` methods are left out:
#: they run millions of times and a span each would swamp what it measures.
TARGETS = (
    ("simplex", "exact_lp_solve"),
    ("intersection", "intersection_number"),
    ("intersection", "kappa_of_sequence"),
    ("measures", "check_measure_axioms"),
    ("measures", "combine_measures"),
    ("fragmentation", "from_measure"),
    ("fragmentation", "from_submeasure"),
    ("fragmentation", "check_fragmentation"),
    ("fragmentation", "check_graded"),
    ("fragmentation", "max_disjoint_family"),
    ("expanders", "build_expander"),
    ("expanders", "verify_expansion"),
    ("expanders", "choice_function"),
    ("certify", "certify_fragmentation"),
    ("certify", "certify_level"),
    ("certify", "replay_proof"),
    ("certify", "build_signature_partition"),
)

#: The root span of one op; its self time is op time spent outside every target.
ROOT = "bench.op"

#: Verdict kinds ``replay_proof`` returns; each is reported even when unseen.
VERDICT_KINDS = ("witness", "descent_violation")

COUNTERS = (
    "simplex.lp_columns",
    "simplex.lp_rows",
    "intersection.members_in",
    "expanders.index_sets_checked",
) + tuple(f"certify.verdict.{kind}" for kind in VERDICT_KINDS)


def _arg(args, kwargs, position, name):
    return args[position] if len(args) > position else kwargs[name]


def _count_lp(counters, args, kwargs, result):
    counters["simplex.lp_columns"] += len(_arg(args, kwargs, 0, "objective"))
    counters["simplex.lp_rows"] += len(_arg(args, kwargs, 1, "constraints"))


def _count_members(counters, args, kwargs, result):
    counters["intersection.members_in"] += len(_arg(args, kwargs, 0, "collection").members)


def _count_index_sets(counters, args, kwargs, result):
    counters["expanders.index_sets_checked"] += result.checked


def _count_verdict(counters, args, kwargs, result):
    key = f"certify.verdict.{result.verdict.kind}"
    counters[key] = counters.get(key, 0) + 1


#: Work counts read off a target's arguments or result after it returns.
HOOKS = {
    "simplex.exact_lp_solve": _count_lp,
    "intersection.intersection_number": _count_members,
    "expanders.verify_expansion": _count_index_sets,
    "certify.replay_proof": _count_verdict,
}


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric the traced run reports, with its unit."""
    names = []
    for module, function in TARGETS:
        names += [
            (f"{module}.{function}.calls", "count"),
            (f"{module}.{function}.total_s", "s"),
            (f"{module}.{function}.self_s", "s"),
        ]
    names += [(counter, "count") for counter in COUNTERS]
    names += [
        ("intersection.reduction_ratio", "ratio"),
        ("expanders.attempts_per_build", "ratio"),
        (f"{ROOT}.self_s", "s"),
        ("trace.wall_s", "s"),
        ("trace.untraced_wall_s", "s"),
        ("trace.overhead_ratio", "ratio"),
        ("trace.absent_functions", "count"),
    ]
    return names


class Tracer:
    """Installs the wrappers on enter, restores the originals on exit."""

    def __init__(self):
        self.names = [ROOT] + [f"{m}.{f}" for m, f in TARGETS]
        self.calls = [0] * len(self.names)
        self.total = [0.0] * len(self.names)
        self.self_time = [0.0] * len(self.names)
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.absent: list[str] = []
        self.unreadable: set[str] = set()  # targets whose work count could not be read
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[list] = []  # [span index, time covered by children]
        self._op = -1
        self._patched: list[tuple[object, str, object]] = []

    def __enter__(self):
        modules = [
            mod
            for name, mod in list(sys.modules.items())
            if name == "boolmeasure" or name.startswith("boolmeasure.")
        ]
        for name_id, (module_name, function) in enumerate(TARGETS, start=1):
            name = self.names[name_id]
            module = sys.modules.get(f"boolmeasure.{module_name}")
            original = getattr(module, function, None)
            if not callable(original):
                self.absent.append(name)
                continue
            wrapper = self._wrap(original, name_id, HOOKS.get(name))
            # `from .x import y` binds y in every importing module; a lazy
            # import inside a function reads the defining module at call time.
            sites = [
                (mod, attr) for mod in modules for attr, value in vars(mod).items()
                if value is original
            ]
            for mod, attr in sites:
                self._patched.append((mod, attr, original))
                setattr(mod, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()
        return False

    def _wrap(self, fn, name_id, hook):
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            index = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index, name_id)
            if hook is not None:
                try:
                    hook(self.counters, args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError):
                    # A changed signature or result loses the count, not the run.
                    self.unreadable.add(self.names[name_id])
            return result

        return wrapper

    def _open(self, name_id: int) -> int:
        index = len(self.span_start)
        self.span_name.append(name_id)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_op.append(self._op)
        self.span_end.append(0.0)
        self._stack.append([index, 0.0])
        self.span_start.append(perf_counter())
        return index

    def _close(self, index: int, name_id: int) -> None:
        end = perf_counter()
        self.span_end[index] = end
        _, children = self._stack.pop()
        duration = end - self.span_start[index]
        self.calls[name_id] += 1
        self.total[name_id] += duration
        self.self_time[name_id] += duration - children
        if self._stack:
            self._stack[-1][1] += duration

    def root(self, fn, op_id: int):
        """Run one op under its root span and return its result."""
        self._op = op_id
        index = self._open(0)
        try:
            return fn()
        finally:
            self._close(index, 0)

    def metrics(self, untraced_wall: float, overhead: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics; ``overhead`` is traced over untraced op time,
        both in reference units so that drift in machine speed cancels."""
        out: dict[str, tuple[float, str]] = {}
        for name_id, name in enumerate(self.names[1:], start=1):
            out[f"{name}.calls"] = (self.calls[name_id], "count")
            out[f"{name}.total_s"] = (self.total[name_id], "s")
            out[f"{name}.self_s"] = (self.self_time[name_id], "s")
        for counter in COUNTERS:
            out[counter] = (self.counters[counter], "count")
        members = self.counters["intersection.members_in"]
        builds = self.calls[self.names.index("expanders.build_expander")]
        verifies = self.calls[self.names.index("expanders.verify_expansion")]
        out["intersection.reduction_ratio"] = (
            self.counters["simplex.lp_columns"] / members if members else 0.0,
            "ratio",
        )
        out["expanders.attempts_per_build"] = (verifies / builds if builds else 0.0, "ratio")
        out[f"{ROOT}.self_s"] = (self.self_time[0], "s")
        out["trace.wall_s"] = (self.total[0], "s")  # the root spans: traced op time
        out["trace.untraced_wall_s"] = (untraced_wall, "s")
        out["trace.overhead_ratio"] = (overhead, "ratio")
        out["trace.absent_functions"] = (len(self.absent), "count")
        return out

    def write_spans(self, path) -> None:
        """Write the span names, then one ``[name, start, end, parent, op]``
        row per line, gzipped; rows are streamed, not built in memory."""
        rows = zip(self.span_name, self.span_start, self.span_end, self.span_parent, self.span_op)
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as out:
            out.write(json.dumps({"names": self.names}) + "\n")
            for row in rows:
                out.write(json.dumps(row) + "\n")

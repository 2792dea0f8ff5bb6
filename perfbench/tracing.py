"""Per-layer tracing by rebinding steploc's cross-module names.

``Tracer.install`` replaces each boundary name in ``BOUNDARIES`` (for
example ``steploc.wbs._scan_values``, the scan kernel as the wbs module
sees it) with a wrapper that records a span: id, parent id, start, end and
the operation it belongs to.  Nothing in the source tree changes, and a
boundary name that no longer exists is reported as absent instead of
failing the run.  Spans nest per thread; a span opened on a worker thread
of the ``--jobs`` map takes the open map span as its parent.  A span's self
time is its duration minus the durations of its same-thread children.

Durations are summed over every traced operation.  Counters (calls, scan
points, candidates, ...) are only accumulated while ``counting`` is set,
which the run loop does for a fixed set of operations so that the counts
repeat exactly from run to run.
"""

from __future__ import annotations

import importlib
import itertools
import os
import threading
import time
from collections import Counter, defaultdict


def _count_l0(tracer, args, result):
    n = len(args[0])
    tracer.count("l0.candidates_computed", n * (n + 1) // 2)


def _count_scan(tracer, args, result):
    s, e = int(args[1]), int(args[2])
    tracer.count("cusum.scan_points", e - s - 1)
    tracer.windows().add((s, e))


def _count_detect(tracer, args, result):
    windows = tracer.windows()
    tracer.count("cusum.scan_distinct", len(windows))
    windows.clear()
    tracer.count("wbs.change_points", len(result.change_points))


def _count_values(tracer, args, result):
    tracer.count("cli.values_parsed", len(result))


# (module, attribute, span name, counter).  Span names start with the
# steploc module (layer) that the wrapped call belongs to.
BOUNDARIES = (
    ("steploc.experiments", "solve_l0", "l0.solve", _count_l0),
    ("steploc.cli", "solve_l0", "l0.solve", _count_l0),
    ("steploc.l0", "segment_prefix", "l0.prefix", None),
    ("steploc.l0", "prefix_sums", "cusum.prefix", None),
    ("steploc.wbs", "scan_prefix", "cusum.prefix", None),
    ("steploc.wbs", "_scan_values", "cusum.scan", _count_scan),
    ("steploc.experiments", "sample_intervals", "wbs.sample_intervals", None),
    ("steploc.cli", "sample_intervals", "wbs.sample_intervals", None),
    ("steploc.experiments", "wbs_detect", "wbs.detect", _count_detect),
    ("steploc.experiments", "bs_detect", "wbs.detect", _count_detect),
    ("steploc.cli", "wbs_detect", "wbs.detect", _count_detect),
    ("steploc.cli", "bs_detect", "wbs.detect", _count_detect),
    ("steploc.experiments", "sample", "noise.sample", None),
    ("steploc.noise", "evaluate", "signal.evaluate", None),
    ("steploc.experiments", "localization_report", "metrics.report", None),
    ("steploc.cli", "estimate_sigma", "metrics.estimate_sigma", None),
    ("steploc.experiments", "_replicate", "experiments.replicate", None),
    ("steploc.cli", "rate_check", "experiments.map", None),
    ("steploc.cli", "run_experiment", "experiments.map", None),
    ("steploc.cli", "read_series", "cli.read_series", _count_values),
    ("steploc.cli", "main", "cli.main", None),
    ("steploc.cli", "json_dumps", "serialize.emit", None),
    ("steploc.cli", "write_csv", "serialize.emit", None),
)

# Spans whose CPU time is taken as well, for the map's parallelism.
CPU_SPANS = ("experiments.map",)


def _cpu_seconds() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


class Tracer:
    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._installed: list[tuple[object, str, object]] = []
        self.present: set[str] = set()
        self.absent: list[str] = []
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.cpu = defaultdict(float)
        self.counts = Counter()
        self.counting = False
        self.keep_spans = False
        self.spans: list[dict] = []
        self.op = None
        self.cross_parent = None

    # --- installation -------------------------------------------------
    def install(self) -> None:
        self.absent = []
        for module_name, attr, name, counter in BOUNDARIES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if not callable(original):
                self.absent.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self._wrap(original, name, counter))
            self._installed.append((module, attr, original))
            self.present.add(name)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    # --- recording ----------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def windows(self) -> set:
        windows = getattr(self._local, "windows", None)
        if windows is None:
            windows = self._local.windows = set()
        return windows

    def count(self, key: str, amount: int = 1) -> None:
        with self._lock:
            self.counts[key] += amount

    def _wrap(self, fn, name: str, counter):
        tracer = self
        with_cpu = name in CPU_SPANS

        def traced(*args, **kwargs):
            stack = tracer._stack()
            sid = next(tracer._ids)
            parent = stack[-1][0] if stack else tracer.cross_parent
            frame = [sid, 0.0]
            stack.append(frame)
            if with_cpu:
                tracer.cross_parent = sid
                cpu0 = _cpu_seconds()
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                duration = t1 - t0
                if stack:
                    stack[-1][1] += duration
                with tracer._lock:
                    tracer.total[name] += duration
                    tracer.self_time[name] += duration - frame[1]
                    if with_cpu:
                        tracer.cpu[name] += _cpu_seconds() - cpu0
                        tracer.cross_parent = None
                    if tracer.counting:
                        tracer.counts[name + ".calls"] += 1
                    if tracer.keep_spans:
                        tracer.spans.append({"id": sid, "parent": parent, "op": tracer.op,
                                             "name": name, "start": t0, "end": t1})
            if counter is not None and tracer.counting:
                counter(tracer, args, result)
            return result

        return traced


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# name -> (unit, span it needs); per-operation times are "s/op", counts
# cover the fixed counted operations.
LAYER_METRICS = {
    "l0.solve_calls": ("count", "l0.solve"),
    "l0.solve_s": ("s/op", "l0.solve"),
    "l0.prefix_s": ("s/op", "l0.prefix"),
    "l0.candidates_computed": ("count", "l0.solve"),
    "cusum.scan_calls": ("count", "cusum.scan"),
    "cusum.scan_points": ("count", "cusum.scan"),
    "cusum.scan_s": ("s/op", "cusum.scan"),
    "cusum.scan_distinct_ratio": ("ratio", "cusum.scan"),
    "cusum.prefix_calls": ("count", "cusum.prefix"),
    "cusum.prefix_s": ("s/op", "cusum.prefix"),
    "wbs.sample_intervals_calls": ("count", "wbs.sample_intervals"),
    "wbs.sample_intervals_s": ("s/op", "wbs.sample_intervals"),
    "wbs.detect_calls": ("count", "wbs.detect"),
    "wbs.detect_s": ("s/op", "wbs.detect"),
    "wbs.detect_self_s": ("s/op", "wbs.detect"),
    "wbs.change_points": ("count", "wbs.detect"),
    "experiments.replications_run": ("count", "experiments.replicate"),
    "experiments.replication_yield": ("ratio", "experiments.replicate"),
    "experiments.map_s": ("s/op", "experiments.map"),
    "experiments.map_parallelism": ("ratio", "experiments.map"),
    "experiments.self_s": ("s/op", "experiments.replicate"),
    "cli.read_series_s": ("s/op", "cli.read_series"),
    "cli.values_parsed": ("count", "cli.read_series"),
    "cli.self_s": ("s/op", "cli.main"),
    "serialize.emit_s": ("s/op", "serialize.emit"),
    "noise.sample_s": ("s/op", "noise.sample"),
    "signal.evaluate_s": ("s/op", "signal.evaluate"),
    "metrics.report_s": ("s/op", "metrics.report"),
    "metrics.estimate_sigma_s": ("s/op", "metrics.estimate_sigma"),
    "trace.overhead_ratio": ("ratio", None),
}


def layer_metrics(tracer: Tracer, traced_ops: int, requested_reps: int,
                  overhead_ratio: float) -> tuple[dict, list[str]]:
    """Per-layer metric values, and the names whose boundaries are absent.

    ``requested_reps`` counts the replications that the counted operations
    asked for; ``overhead_ratio`` is traced over untraced operations per
    second.  Ratios whose base is zero on a workload read 0.
    """
    c, total, own = tracer.counts, tracer.total, tracer.self_time

    def per_op(value):
        return value / traced_ops

    values = {
        "l0.solve_calls": c["l0.solve.calls"],
        "l0.solve_s": per_op(total["l0.solve"]),
        "l0.prefix_s": per_op(total["l0.prefix"]),
        "l0.candidates_computed": c["l0.candidates_computed"],
        "cusum.scan_calls": c["cusum.scan.calls"],
        "cusum.scan_points": c["cusum.scan_points"],
        "cusum.scan_s": per_op(total["cusum.scan"]),
        "cusum.scan_distinct_ratio": _ratio(c["cusum.scan_distinct"], c["cusum.scan.calls"]),
        "cusum.prefix_calls": c["cusum.prefix.calls"],
        "cusum.prefix_s": per_op(total["cusum.prefix"]),
        "wbs.sample_intervals_calls": c["wbs.sample_intervals.calls"],
        "wbs.sample_intervals_s": per_op(total["wbs.sample_intervals"]),
        "wbs.detect_calls": c["wbs.detect.calls"],
        "wbs.detect_s": per_op(total["wbs.detect"]),
        "wbs.detect_self_s": per_op(own["wbs.detect"]),
        "wbs.change_points": c["wbs.change_points"],
        "experiments.replications_run": c["experiments.replicate.calls"],
        "experiments.replication_yield": _ratio(requested_reps, c["experiments.replicate.calls"]),
        "experiments.map_s": per_op(total["experiments.map"]),
        "experiments.map_parallelism": _ratio(tracer.cpu["experiments.map"], total["experiments.map"]),
        "experiments.self_s": per_op(own["experiments.replicate"]),
        "cli.read_series_s": per_op(total["cli.read_series"]),
        "cli.values_parsed": c["cli.values_parsed"],
        "cli.self_s": per_op(own["cli.main"]),
        "serialize.emit_s": per_op(total["serialize.emit"]),
        "noise.sample_s": per_op(total["noise.sample"]),
        "signal.evaluate_s": per_op(total["signal.evaluate"]),
        "metrics.report_s": per_op(total["metrics.report"]),
        "metrics.estimate_sigma_s": per_op(total["metrics.estimate_sigma"]),
        "trace.overhead_ratio": overhead_ratio,
    }
    absent = [name for name, (_, span) in LAYER_METRICS.items()
              if span is not None and span not in tracer.present]
    return {k: v for k, v in values.items() if k not in absent}, absent

"""steploc benchmark: one seeded workload per run, closed loop, one client.

Run from the repository root:

    python3 perfbench/run.py --workload mc-l0 [--seed 12345] [--seconds 20] [--trace 0|1]

Workloads are ``mc-l0``, ``mc-wbs``, ``mc-spike`` and ``cli-mix`` (see
``workloads.py`` and ``README.md``).  The run sets up three times (a fresh
interpreter importing steploc, input generation, warm-up) and reports the
median as ``setup_s``, then issues operations one after another until
``--seconds`` of operation time have passed, at least ``MIN_OPS``
operations are done and, on ``cli-mix``, the request cycle is whole.  Each
output is checked outside the timed region; any exception, non-zero exit
or failed check counts as a failed operation.

With ``--trace 0`` the last line of stdout is a JSON object holding the
end-to-end metrics.  With ``--trace 1`` every operation runs twice, once
plain and once with the layer boundaries rebound (``tracing.py``); the
last line then holds the per-layer metrics, and ``trace.overhead_ratio``
compares the two executions.  Either way the lines above it name each
metric with its unit, the sample count, the failure ratio, the machine and
the ``output_digest``: a hash of the outputs of the first ``COUNTED_OPS``
operations, which must not change when a change claims identical results.

The program is imported from ``src/`` of the checkout; without it the run
exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

DEFAULT_SEED = 12345
# 110 samples leave at least ten beyond the 90th percentile.
MIN_OPS = 110
# Operations whose outputs feed the digest and whose layer counts are
# reported; fixed so both repeat exactly between runs.
COUNTED_OPS = 40
SETUP_REPS = 3
# ops_per_s is the lower quartile of the rate over blocks of this many
# consecutive operations (one cli-mix cycle, about a second): the rate that
# three blocks in four reach.  The host drifts between spells of 10-25 %
# faster or slower execution; the quartile is steadier from run to run than
# the whole-run mean, which follows the share of fast spells.
BLOCK_OPS = 20


def _import_in_fresh_interpreter() -> None:
    """Start a new interpreter that imports steploc, as a user's call would."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    subprocess.run([sys.executable, "-c", "import steploc"], env=env, check=True,
                   capture_output=True, timeout=120)


class Loop:
    """Runs and checks operations, counting attempts and failures."""

    def __init__(self, workload):
        self.w = workload
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def execute(self, key):
        """One timed operation; returns (seconds, output or None)."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            out = self.w.run(key)
        except Exception:
            elapsed = time.perf_counter() - start
            self.fail([f"operation raised: {traceback.format_exc(limit=4)}"])
            return elapsed, None
        elapsed = time.perf_counter() - start
        try:
            errors = self.w.check(key, out)
        except Exception:
            errors = [f"check raised: {traceback.format_exc(limit=4)}"]
        if errors:
            self.fail(errors)
        return elapsed, out

    def fail(self, errors: list[str]) -> None:
        self.failed += 1
        if len(self.errors) < 10:
            self.errors.extend(errors)


def set_up(workload, loop: Loop, seed: int, workdir: Path) -> float:
    start = time.perf_counter()
    _import_in_fresh_interpreter()
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    workload.prepare(seed, workdir)
    for key in workload.warmup_keys():
        loop.execute(key)
    return time.perf_counter() - start


def measure(workload, loop: Loop, seconds: float, min_ops: int, counted: int, tracer=None):
    """The closed loop.  Returns (plain times, traced times, digest, requested reps)."""
    plain, traced = [], []
    digest = hashlib.sha256()
    requested = 0
    i = 0
    while sum(plain) + sum(traced) < seconds or i < min_ops or i % workload.granule:
        key = workload.key(i)
        if tracer is None:
            elapsed, out = loop.execute(key)
            plain.append(elapsed)
            if i < counted and out is not None:
                digest.update(workload.digest(key, out))
        else:
            outputs = {}
            # alternate which execution goes first, so warm caches favour neither
            for traced_run in ((False, True) if i % 2 == 0 else (True, False)):
                if traced_run:
                    tracer.counting, tracer.keep_spans, tracer.op = i < counted, i == 0, i
                    tracer.install()
                    try:
                        elapsed, out = loop.execute(key)
                    finally:
                        tracer.uninstall()
                    traced.append(elapsed)
                else:
                    elapsed, out = loop.execute(key)
                    plain.append(elapsed)
                outputs[traced_run] = None if out is None else workload.digest(key, out)
            if outputs[False] != outputs[True]:
                loop.fail([f"op {i}: traced output differs from the plain run"])
            if i < counted:
                requested += workload.requested_reps(key)
                if outputs[False] is not None:
                    digest.update(outputs[False])
        i += 1
    return plain, traced, digest.hexdigest(), requested


def machine_record(loadavg) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg_start": [round(x, 2) for x in loadavg],
    }


def _print_metric(name: str, value, unit: str) -> None:
    print(f"{name:32s} {value!r} {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every input and the operation count (smoke tests)")
    args = parser.parse_args(argv)
    loadavg = os.getloadavg()

    if not (SRC / "steploc" / "__init__.py").is_file():
        print(f"perfbench: no steploc source under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import steploc

    if Path(steploc.__file__).resolve().parent != SRC / "steploc":
        print(f"perfbench: imported steploc from {steploc.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    try:
        workload = workloads.build(args.workload, tiny=args.tiny)
    except KeyError:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {workloads.NAMES}",
              file=sys.stderr)
        return 2
    min_ops = workload.granule if args.tiny else max(MIN_OPS, workload.granule)
    min_ops += -min_ops % workload.granule
    counted = min(COUNTED_OPS, min_ops)

    workdir = HERE / ".work" / f"{args.workload}-{os.getpid()}"
    loop = Loop(workload)
    tracer = tracing.Tracer() if args.trace else None
    try:
        setups = [set_up(workload, loop, args.seed, workdir) for _ in range(SETUP_REPS)]
        plain, traced, digest, requested = measure(workload, loop, args.seconds, min_ops, counted, tracer)
    finally:
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload {workload.name}, isolating layer {workload.layer}")
    print(f"seed {args.seed}, {args.seconds:g} s of operations, closed loop, one client")
    print(f"machine {json.dumps(machine_record(loadavg))}")

    ms = sorted(t * 1e3 for t in plain)
    deciles = statistics.quantiles(ms, n=10, method="inclusive") if len(ms) > 1 else ms * 9
    p50, p90 = deciles[4], deciles[8]
    beyond = sum(v > p90 for v in ms)
    print(f"samples {len(ms)} plain operations ({beyond} beyond p90)"
          + (f", {len(traced)} traced" if traced else ""))
    print(f"fail_ratio {loop.failed / loop.attempted!r} ({loop.failed}/{loop.attempted})")
    for err in loop.errors:
        print(f"  failure: {err.strip()}")
    print(f"output_digest sha256:{digest} (first {counted} operations)")

    blocks = [plain[j:j + BLOCK_OPS] for j in range(0, len(plain) - BLOCK_OPS + 1, BLOCK_OPS)] or [plain]
    rates = [len(b) / sum(b) for b in blocks]
    ops_per_s = statistics.quantiles(rates, n=4, method="inclusive")[0] if len(rates) > 1 else rates[0]
    if tracer is None:
        metrics = {
            "ops_per_s": (ops_per_s, "1/s"),
            "op_ms_p50": (p50, "ms"),
            "op_ms_p90": (p90, "ms"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    else:
        overhead = sum(plain) / sum(traced)
        values, absent = tracing.layer_metrics(tracer, len(traced), requested, overhead)
        metrics = {name: (value, tracing.LAYER_METRICS[name][0]) for name, value in values.items()}
        if absent or tracer.absent:
            print(f"absent boundaries {tracer.absent}; metrics not reported: {absent}")
        spans_file = HERE / "out" / f"spans-{workload.name}.jsonl"
        spans_file.parent.mkdir(exist_ok=True)
        spans_file.write_text("".join(json.dumps(s) + "\n" for s in tracer.spans))
        print(f"spans of operation 0 written to {spans_file.relative_to(ROOT)}; "
              f"counts cover the first {counted} operations, times are per traced operation")
    for name, (value, unit) in metrics.items():
        _print_metric(name, value, unit)

    print(json.dumps({
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The four benchmark workloads.

A workload turns the run seed into inputs (``prepare``), maps operation
``i`` of the closed loop to a key, runs one operation per key (the timed
call), checks each output against an independent reference (``check``,
outside the timed region) and hands the bytes of each output to the run
digest.  The ``mc-*`` workloads run the acceptance configurations of
``tests/test_acceptance.py`` unchanged; ``cli-mix`` drives the command line
in-process on generated series files.
"""

from __future__ import annotations

import contextlib
import io
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
import steploc.cli
import steploc.experiments
from steploc.experiments import ExperimentConfig
from steploc.signal import spike_signal
from steploc.wbs import min_intervals

# Warm-up replications come from a range the measured loop never reaches,
# so no measured replication has been seen before.
WARMUP_BASE = 1_000_000
WARMUP_OPS = 3


class Capture:
    """Rebinds one steploc name so the benchmark sees the detector's
    arguments and result; the call itself is unchanged."""

    def __init__(self, module, attr: str):
        self.module, self.attr = module, attr
        self.original = getattr(module, attr, None)
        self.last = None
        if self.original is not None:
            setattr(module, attr, self._call)

    def _call(self, *args, **kwargs):
        result = self.original(*args, **kwargs)
        self.last = (args, result)
        return result

    def close(self) -> None:
        if self.original is not None:
            setattr(self.module, self.attr, self.original)


class MonteCarlo:
    """``run_replication(cfg, r)`` for r = 0, 1, 2, ... on one config."""

    granule = 1

    def __init__(self, name: str, layer: str, make_cfg, truth, detector: str):
        self.name, self.layer = name, layer
        self._make_cfg, self.truth, self.detector = make_cfg, tuple(truth), detector
        self.cfg = None
        self.capture = None

    def prepare(self, seed: int, workdir: Path) -> None:
        self.cfg = self._make_cfg(seed)
        if self.capture is None:
            self.capture = Capture(steploc.experiments, self.detector)

    def close(self) -> None:
        if self.capture is not None:
            self.capture.close()

    def key(self, i: int) -> int:
        return i

    def warmup_keys(self) -> list[int]:
        return [WARMUP_BASE + j for j in range(WARMUP_OPS)]

    def requested_reps(self, key) -> int:
        return 1

    def run(self, key):
        self.capture.last = None
        row = steploc.experiments.run_replication(self.cfg, key)
        return row, self.capture.last

    def _estimate(self, result) -> tuple[int, ...]:
        if self.detector == "solve_l0":
            return result.segmentation.boundaries
        return result.change_points

    def check(self, key, out) -> list[str]:
        row, seen = out
        if seen is None:
            return [f"detector output not observed: steploc.experiments.{self.detector} was not called"]
        args, result = seen
        y, param = args[0], args[-1]
        est = self._estimate(result)
        if self.detector == "solve_l0":
            errors = checks.l0_errors(y, param, est, self.truth, result.objective)
        else:
            errors = checks.wbs_errors(y, param, est, result.per_cp_diagnostics)
        return errors + checks.row_errors(row, est, self.truth)

    def digest(self, key, out) -> bytes:
        """The row without its wall time, plus the estimated change points."""
        row, seen = out
        est = self._estimate(seen[1]) if seen is not None else None
        fields = (row.rep, row.snr, row.method, row.k_true, row.k_est, row.k_correct,
                  row.max_err, row.hausdorff, est)
        return repr(fields).encode()


@dataclass(frozen=True)
class Request:
    kind: str
    argv: tuple[str, ...]
    n: int = 0
    reps: int = 0
    summary: Path | None = None


@dataclass(frozen=True)
class Series:
    y: np.ndarray
    truth: tuple[int, ...]
    path: Path


def _write_series(rng, path: Path, n: int, k: int, kappa: float) -> Series:
    truth = tuple(n * (i + 1) // (k + 1) for i in range(k))
    mean = np.zeros(n)
    for i, cp in enumerate(truth):
        mean[cp:] = kappa * ((i + 1) % 2)
    y = mean + rng.normal(0.0, 1.0, size=n)
    path.write_text("y\n" + "\n".join(format(v, ".17g") for v in y) + "\n")
    return Series(y, truth, path)


class CliMix:
    """A fixed cycle of in-process ``steploc.cli.main`` calls.

    The cycle holds ``weights[kind]`` requests of each kind in a seeded
    order; the loop only stops on whole cycles, so every run has the same
    request shares.  Kinds are ordered fast to slow, l0-500 < rate < bs-100k
    < l0-8000, and the weights put the 50th percentile in the middle of the
    l0-500 block (0-60 %) and the 90th inside the bs-100k block (80-95 %),
    never on a boundary between kinds.
    """

    name = "cli-mix"
    weights = {"l0-500": 12, "rate": 4, "bs-100k": 3, "l0-8000": 1}
    granule = sum(weights.values())

    layer = "cli"

    def __init__(self, tiny: bool):
        self.tiny = tiny
        self.cycle: list[Request] = []
        self.series: dict[str, Series] = {}
        self.reference: dict[int, bytes] = {}

    def prepare(self, seed: int, workdir: Path) -> None:
        rng = np.random.default_rng(seed)
        sizes = {"l0-500": (500, 3, 2.0), "bs-100k": (100_000, 9, 1.0), "l0-8000": (8000, 3, 2.0)}
        if self.tiny:
            sizes = {"l0-500": (60, 3, 2.0), "bs-100k": (1000, 9, 1.0), "l0-8000": (200, 3, 2.0)}
        self.series = {kind: _write_series(rng, workdir / f"{kind}.txt", *spec)
                       for kind, spec in sizes.items()}
        rate_n, reps = (60, 2) if self.tiny else (300, 6)
        kinds = [kind for kind, w in self.weights.items() for _ in range(w)]
        self.cycle = []
        for j, kind in enumerate(str(k) for k in rng.permutation(kinds)):
            if kind == "rate":
                summary = workdir / f"rate-{j}.json"
                argv = ("rate", "--n", str(rate_n), "--k", "2", "--kappa", "2", "--sigma", "1",
                        "--method", "l0", "--reps", str(reps), "--jobs", "2",
                        "--seed", str(seed), "--summary", str(summary))
                self.cycle.append(Request(kind, argv, reps=reps, summary=summary))
            else:
                s = self.series[kind]
                method = "bs" if kind.startswith("bs") else "l0"
                self.cycle.append(Request(kind, ("detect", str(s.path), "--method", method), n=s.y.size))
        self.reference = {}

    def close(self) -> None:
        pass

    def key(self, i: int) -> int:
        return i % len(self.cycle)

    def warmup_keys(self) -> list[int]:
        first = {}
        for j, req in enumerate(self.cycle):
            first.setdefault(req.kind, j)
        return list(first.values())

    def requested_reps(self, key) -> int:
        return self.cycle[key].reps

    def run(self, key):
        """Returns (exit code, stdout, stderr, summary file text)."""
        req = self.cycle[key]
        out, err = io.StringIO(), io.StringIO()
        if req.summary is not None:
            req.summary.unlink(missing_ok=True)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = steploc.cli.main(list(req.argv))
            except SystemExit as exc:
                code = exc.code
        summary = req.summary.read_text() if req.summary is not None and req.summary.exists() else ""
        return code, out.getvalue(), err.getvalue(), summary

    def check(self, key, out) -> list[str]:
        req = self.cycle[key]
        code, stdout, stderr, summary = out
        if code != 0:
            return [f"{req.kind}: exit code {code!r}: {stderr.strip()[:200]}"]
        if req.kind == "rate":
            errors = checks.rate_errors(stdout, summary, req.reps, "l0")
        else:
            doc, errors = checks.detect_errors(stdout, req.n, req.argv[-1])
            if doc is not None and not errors and req.argv[-1] == "l0":
                s = self.series[req.kind]
                errors = checks.l0_errors(s.y, doc["params"]["lambda"], doc["change_points"], s.truth)
        data = self.digest(key, out)
        if self.reference.setdefault(key, data) != data:
            errors.append("output differs from the first run of the same request")
        return [f"{req.kind}: {e}" for e in errors]

    def digest(self, key, out) -> bytes:
        """Stdout plus the summary file, the bytes a repeated request must reproduce."""
        return (out[1] + out[3]).encode()


def _mc_l0(tiny: bool) -> MonteCarlo:
    n, k, delta = (200, 3, 50) if tiny else (2000, 3, 500)

    def make(seed):
        return ExperimentConfig(n=n, method="l0", sigma=1.0, base_seed=seed, k=k, delta=delta,
                                kappa=2.0, lam=2 * math.log(n))

    return MonteCarlo("mc-l0", "l0", make, [delta * (i + 1) for i in range(k)], "solve_l0")


def _mc_wbs(tiny: bool) -> MonteCarlo:
    n, k, delta = (200, 3, 50) if tiny else (2000, 3, 500)

    def make(seed):
        return ExperimentConfig(n=n, method="wbs", sigma=1.0, base_seed=seed, k=k, delta=delta,
                                kappa=2.0, tau=1.5 * math.sqrt(math.log(n)),
                                intervals=min_intervals(n, delta), max_len=2 * delta)

    return MonteCarlo("mc-wbs", "cusum", make, [delta * (i + 1) for i in range(k)], "wbs_detect")


def _mc_spike(tiny: bool) -> MonteCarlo:
    n = 128 if tiny else 1024
    sig = spike_signal(n, n // 2, math.sqrt(64 * math.log(n)))

    def make(seed):
        return ExperimentConfig(n=n, method="wbs", sigma=1.0, base_seed=seed, signal=sig,
                                tau=2.0 * math.sqrt(math.log(n)), intervals=2 * n, max_len=16)

    return MonteCarlo("mc-spike", "wbs", make, sig.change_points, "wbs_detect")


def build(name: str, tiny: bool = False):
    """The workload called ``name``; ``tiny`` shrinks every input for tests."""
    if name == "cli-mix":
        return CliMix(tiny)
    makers = {"mc-l0": _mc_l0, "mc-wbs": _mc_wbs, "mc-spike": _mc_spike}
    if name not in makers:
        raise KeyError(name)
    return makers[name](tiny)


NAMES = ("mc-l0", "mc-wbs", "mc-spike", "cli-mix")

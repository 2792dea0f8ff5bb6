"""Seeded Monte Carlo harness for the detectors.

A configuration fixes the signal regime (either an explicit signal or the
default evenly spaced construction with alternating jumps), the noise,
the detection method with its parameters, and a base seed.  Replication
``r`` consumes the derived streams ``subseed(base_seed, r, 0)`` (noise)
and ``subseed(base_seed, r, 1)`` (random intervals), so tables are
reproducible regardless of how the replications are scheduled.

Each replication runs once and yields one :class:`ExperimentRow`; the CSV,
the summary and the rate fractions are all computed from those rows.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import IO, Iterable

import numpy as np

from steploc.l0 import DEFAULT_C_LAMBDA, default_lambda, solve_l0
from steploc.metrics import localization_report
from steploc.noise import FAMILIES, NoiseSpec, check_seed, sample, subseed
from steploc.serialize import fmt_float
from steploc.signal import PiecewiseSignal, make_signal, min_spacing, snr as signal_snr
from steploc.wbs import (
    DEFAULT_C_TAU,
    bs_detect,
    default_tau,
    min_intervals,
    sample_intervals,
    wbs_detect,
)

__all__ = [
    "METHODS",
    "CSV_HEADER",
    "ExperimentConfig",
    "ExperimentRow",
    "build_signal",
    "run_replication",
    "run_experiment",
    "sweep_snr",
    "rate_check",
    "is_success",
    "summarize",
    "write_csv",
]

METHODS = ("l0", "bs", "wbs")

CSV_HEADER = "rep,snr,method,k_true,k_est,k_correct,max_err,hausdorff,ms"


@dataclass(frozen=True)
class ExperimentConfig:
    """One Monte Carlo scenario.

    Either ``signal`` is given explicitly, or the harness builds a signal
    of length ``n`` with ``k`` change points spaced ``delta`` apart
    (``delta`` defaults to ``n // (k + 1)``) and levels alternating between
    0 and ``kappa``.  Method parameters left as ``None`` fall back to the
    calibrated defaults where those are defined (``sigma > 0``); with
    ``sigma == 0`` they must be supplied explicitly.
    """

    n: int
    method: str
    sigma: float
    base_seed: int
    replications: int = 1
    k: int | None = None
    delta: int | None = None
    kappa: float | None = None
    family: str = "gaussian"
    signal: PiecewiseSignal | None = None
    lam: float | None = None
    tau: float | None = None
    intervals: int | None = None
    max_len: int | None = None
    c_lambda: float = DEFAULT_C_LAMBDA
    c_tau: float = DEFAULT_C_TAU

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}, expected one of {METHODS}")
        if self.family not in FAMILIES:
            raise ValueError(f"unknown noise family {self.family!r}")
        if self.replications < 1:
            raise ValueError(f"replications must be >= 1, got {self.replications!r}")
        if not (math.isfinite(self.sigma) and self.sigma >= 0):
            raise ValueError(f"sigma must be finite and >= 0, got {self.sigma!r}")
        check_seed(self.base_seed)
        if self.signal is not None and self.signal.n != self.n:
            raise ValueError(f"explicit signal has n = {self.signal.n}, config says {self.n}")
        if self.signal is None and self.k is None and self.delta is None:
            raise ValueError("need an explicit signal, or k and/or delta")


@dataclass(frozen=True)
class ExperimentRow:
    """One replication outcome.

    ``snr`` is ``inf`` for noiseless runs and ``nan`` for constant signals;
    ``max_err`` is ``nan`` unless the change point count was correct;
    ``hausdorff`` is ``inf`` when exactly one of truth/estimate is empty.
    ``per_cp_error`` is the report's per-change-point error: present
    exactly when the count was correct, and not written to the CSV.
    """

    rep: int
    snr: float
    method: str
    k_true: int
    k_est: int
    k_correct: bool
    max_err: float
    hausdorff: float
    ms: float
    per_cp_error: tuple[int, ...] | None = None


def build_signal(cfg: ExperimentConfig) -> PiecewiseSignal:
    """The ground-truth signal for a configuration."""
    if cfg.signal is not None:
        return cfg.signal
    if cfg.k is not None:
        k = cfg.k
        delta = cfg.delta if cfg.delta is not None else cfg.n // (k + 1)
    else:
        delta = cfg.delta
        k = cfg.n // delta - 1
    if k == 0:
        return make_signal(cfg.n, [], [0.0])
    if cfg.kappa is None or cfg.kappa == 0:
        raise ValueError("kappa must be nonzero for a signal with change points")
    if delta < 1 or (k + 1) * delta > cfg.n:
        raise ValueError(f"cannot place {k} change points with spacing {delta} in n = {cfg.n}")
    cps = [delta * (i + 1) for i in range(k)]
    levels = [0.0 if i % 2 == 0 else float(cfg.kappa) for i in range(k + 1)]
    return make_signal(cfg.n, cps, levels)


def _resolve_lambda(cfg: ExperimentConfig) -> float:
    if cfg.lam is not None:
        return cfg.lam
    if cfg.sigma == 0:
        raise ValueError("sigma = 0 has no default penalty; pass lam explicitly")
    return default_lambda(cfg.sigma, cfg.n, cfg.c_lambda)


def _resolve_tau(cfg: ExperimentConfig) -> float:
    if cfg.tau is not None:
        return cfg.tau
    if cfg.sigma == 0:
        raise ValueError("sigma = 0 has no default threshold; pass tau explicitly")
    return default_tau(cfg.sigma, cfg.n, cfg.c_tau)


def _detect(cfg: ExperimentConfig, sig: PiecewiseSignal, y: np.ndarray, rep: int):
    if cfg.method == "l0":
        return solve_l0(y, _resolve_lambda(cfg)).segmentation.boundaries
    tau = _resolve_tau(cfg)
    if cfg.method == "bs":
        return bs_detect(y, tau).change_points
    spacing = min_spacing(sig)
    m = cfg.intervals if cfg.intervals is not None else min_intervals(cfg.n, spacing)
    max_len = cfg.max_len if cfg.max_len is not None else max(2, 2 * spacing)
    ivals = sample_intervals(cfg.n, m, subseed(cfg.base_seed, rep, 1), max_len=max_len)
    return wbs_detect(y, ivals, tau).change_points


def _replicate(cfg: ExperimentConfig, rep: int) -> ExperimentRow:
    sig = build_signal(cfg)
    y = sample(sig, NoiseSpec(cfg.family, cfg.sigma), subseed(cfg.base_seed, rep, 0))
    start = time.perf_counter()
    est = _detect(cfg, sig, y, rep)
    ms = (time.perf_counter() - start) * 1e3
    report = localization_report(est, sig)

    if sig.k == 0:
        snr_val = math.nan
    elif cfg.sigma == 0:
        snr_val = math.inf
    else:
        snr_val = signal_snr(sig, cfg.sigma)

    if report.k_correct:
        max_err = float(max(report.per_cp_error)) if report.k_true else 0.0
    else:
        max_err = math.nan

    return ExperimentRow(
        rep=rep,
        snr=snr_val,
        method=cfg.method,
        k_true=report.k_true,
        k_est=report.k_est,
        k_correct=report.k_correct,
        max_err=max_err,
        hausdorff=report.hausdorff,
        ms=ms,
        per_cp_error=report.per_cp_error,
    )


def run_replication(cfg: ExperimentConfig, rep: int) -> ExperimentRow:
    """Run one replication; deterministic in (cfg, rep)."""
    return _replicate(cfg, rep)


def run_experiment(cfg: ExperimentConfig, jobs: int = 1) -> list[ExperimentRow]:
    """All replications of one configuration, ordered by replication index.

    ``jobs > 1`` fans the replications out to a thread pool; sub-seeds are
    derived up front from the replication index, so the table does not
    depend on scheduling.
    """
    reps = range(cfg.replications)
    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(lambda r: _replicate(cfg, r), reps))
    return [_replicate(cfg, r) for r in reps]


def sweep_snr(base_cfg: ExperimentConfig, snr_grid, reps: int, jobs: int = 1) -> list[ExperimentRow]:
    """Run the scenario across a grid of signal-to-noise ratios.

    For each grid value the jump size is rescaled so that
    ``kappa * sqrt(delta) / sigma`` equals the grid value exactly; the same
    seed streams are reused across grid points (common random numbers).
    """
    if base_cfg.sigma <= 0:
        raise ValueError("snr sweep needs sigma > 0")
    if base_cfg.signal is not None:
        raise ValueError("snr sweep rescales the parametric signal; pass n/k/delta, not a signal")
    rows: list[ExperimentRow] = []
    for value in snr_grid:
        if not value > 0:
            raise ValueError(f"snr grid values must be positive, got {value!r}")
        probe = build_signal(replace(base_cfg, kappa=1.0))
        kappa = value * base_cfg.sigma / math.sqrt(min_spacing(probe))
        cfg = replace(base_cfg, kappa=kappa, replications=reps)
        rows.extend(run_experiment(cfg, jobs=jobs))
    return rows


def rate_check(cfg: ExperimentConfig, c_eps_grid, rows) -> dict[float, float]:
    """Fraction of replications with max_k kappa_k^2 |err_k| <= c * sigma^2 log n.

    ``rows`` are the replications of ``cfg``, as :func:`run_experiment`
    returns them; each change point's error is weighted by its own jump.
    Replications with the wrong change point count fail every grid value.
    """
    sig = build_signal(cfg)
    if sig.k < 1:
        raise ValueError("rate check needs at least one change point")
    jumps = sig.jumps()
    bound_unit = cfg.sigma * cfg.sigma * math.log(cfg.n)
    norms = [
        max(jump * jump * err for jump, err in zip(jumps, row.per_cp_error))
        if row.k_correct else math.inf
        for row in rows
    ]
    return {
        float(c): sum(v <= c * bound_unit for v in norms) / len(norms)
        for c in c_eps_grid
    }


def is_success(row: ExperimentRow, spacing: int) -> bool:
    """Correct count and every change point located within spacing / 4."""
    if not row.k_correct:
        return False
    return row.k_true == 0 or row.max_err <= spacing / 4


def summarize(cfg: ExperimentConfig, rows: Iterable[ExperimentRow]) -> dict:
    """JSON-ready summary: config echo, success rate, error quantiles.

    Quantiles are taken over replications with the correct count; runs with
    an infinite Hausdorff marker count as failures and are excluded.
    """
    rows = list(rows)
    # spacing does not depend on the jump size, so a placeholder kappa is
    # fine for configs (e.g. snr sweeps) that leave it unset
    probe = cfg if cfg.kappa is not None or cfg.signal is not None else replace(cfg, kappa=1.0)
    spacing = min_spacing(build_signal(probe))
    successes = sum(is_success(r, spacing) for r in rows)
    errs = sorted(r.max_err for r in rows if r.k_correct)
    haus = sorted(r.hausdorff for r in rows if math.isfinite(r.hausdorff))

    def quantiles(values):
        if not values:
            return {"p50": None, "p90": None, "max": None}
        arr = np.asarray(values, dtype=float)
        return {
            "p50": float(np.quantile(arr, 0.50)),
            "p90": float(np.quantile(arr, 0.90)),
            "max": float(arr.max()),
        }

    config = {
        "n": cfg.n,
        "method": cfg.method,
        "sigma": cfg.sigma,
        "family": cfg.family,
        "k": cfg.k,
        "delta": cfg.delta,
        "kappa": cfg.kappa,
        "lam": cfg.lam,
        "tau": cfg.tau,
        "intervals": cfg.intervals,
        "max_len": cfg.max_len,
        "replications": cfg.replications,
        "base_seed": cfg.base_seed,
    }
    if cfg.signal is not None:
        config["signal"] = {
            "n": cfg.signal.n,
            "change_points": list(cfg.signal.change_points),
            "levels": list(cfg.signal.levels),
        }
    return {
        "config": config,
        "success_rate": successes / len(rows) if rows else None,
        "rows": len(rows),
        "correct_count_rate": len(errs) / len(rows) if rows else None,
        "quantiles": {"max_err": quantiles(errs), "hausdorff": quantiles(haus)},
    }


def write_csv(rows: Iterable[ExperimentRow], out: IO[str], include_timing: bool = False) -> None:
    """Emit rows under the fixed header.

    Timing is zeroed unless requested: wall time is the one nondeterministic
    field, and default output must be byte-identical across runs.
    """
    out.write(CSV_HEADER + "\n")
    for r in rows:
        ms = fmt_float(r.ms) if include_timing else "0"
        out.write(
            f"{r.rep},{fmt_float(r.snr)},{r.method},{r.k_true},{r.k_est},"
            f"{'true' if r.k_correct else 'false'},{fmt_float(r.max_err)},"
            f"{fmt_float(r.hausdorff)},{ms}\n"
        )

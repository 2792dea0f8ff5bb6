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

import functools
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import IO, Iterable

import numpy as np

from steploc.cusum import check_integer, check_observations
from steploc.l0 import default_lambda, solve_l0
from steploc.metrics import localization_report
from steploc.noise import NoiseSpec, check_seed, check_sigma, sample, subseed
from steploc.serialize import fmt_float
from steploc.signal import PiecewiseSignal, make_signal, min_spacing, snr as signal_snr
from steploc.wbs import bs_detect, default_tau, min_intervals, sample_intervals, wbs_detect

__all__ = [
    "METHODS",
    "CSV_HEADER",
    "MAX_DEFAULT_INTERVALS",
    "ExperimentConfig",
    "ExperimentRow",
    "build_signal",
    "draw_replication",
    "detect",
    "run_replication",
    "run_experiment",
    "sweep_snr",
    "rate_check",
    "check_rate_inputs",
    "is_success",
    "summarize",
    "write_csv",
]

METHODS = ("l0", "bs", "wbs")

CSV_HEADER = "rep,snr,method,k_true,k_est,k_correct,max_err,hausdorff,ms"

# The largest default wbs interval count; a larger one takes minutes and gigabytes.
MAX_DEFAULT_INTERVALS = 2**20

# detect's default lam/tau at sigma = 0, where the formulas give 0 (bs/wbs raise it further).
_NOISELESS_PARAM = 1e-12


@dataclass(frozen=True)
class ExperimentConfig:
    """One Monte Carlo scenario.

    Either ``signal`` is given explicitly, or the harness builds a signal
    of length ``n`` with ``k`` change points spaced ``delta`` apart
    (``delta`` defaults to ``n // (k + 1)``) and levels alternating between
    0 and ``kappa``.  Method parameters left as ``None`` fall back to the
    defaults of :func:`detect`, which checks them and the multipliers at
    each replication, except ``max_len``, which falls back to
    ``max(2, 2 * spacing)`` for the signal's minimal spacing; with
    ``sigma == 0`` a replication raises ``ValueError`` unless ``lam`` (l0)
    or ``tau`` (bs, wbs) is given.  ``n``, ``k``, ``delta``,
    ``replications`` and ``base_seed`` are checked here and stored as
    Python ints.
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
    c_lambda: float | None = None
    c_tau: float | None = None

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}, expected one of {METHODS}")
        NoiseSpec(self.family, self.sigma)
        store = functools.partial(object.__setattr__, self)
        store("replications", check_integer(self.replications, 1, None,
                                            "replications must be >= 1, got %r", self.replications))
        store("base_seed", check_seed(self.base_seed))
        store("n", check_integer(self.n, 1, None, "n must be a positive integer, got %r", self.n))
        if self.signal is not None and self.signal.n != self.n:
            raise ValueError(f"explicit signal has n = {self.signal.n}, config says {self.n}")
        if self.signal is None and self.k is None and self.delta is None:
            raise ValueError("need an explicit signal, or k and/or delta")
        if self.k is not None:
            store("k", check_integer(self.k, 0, None, "k must be >= 0, got %r", self.k))
        if self.delta is not None:
            store("delta", check_integer(self.delta, 1, self.n, "delta must lie in [1, %s], got %r",
                                         self.n, self.delta))


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


def draw_replication(cfg: ExperimentConfig, rep: int) -> tuple[PiecewiseSignal, np.ndarray]:
    """The signal of ``cfg`` and the observations of replication ``rep``:
    the signal plus ``cfg``'s noise from the replication's noise stream
    (see the module docstring).  ``steploc simulate`` prints replication 0."""
    sig = build_signal(cfg)
    return sig, sample(sig, NoiseSpec(cfg.family, cfg.sigma), subseed(cfg.base_seed, rep, 0))


def detect(y, method: str, sigma: float, *, spacing: int | None = None, seed: int, lam=None,
           tau=None, c_lambda=None, c_tau=None, intervals=None, max_len=None):
    """Change points of ``y`` by ``method``, and the parameters it ran with
    (the ``params`` that ``steploc detect`` prints) as its result reports
    them, so a ``tau`` below the scan's rounding floor is printed raised.

    ``lam``/``tau`` default to ``default_lambda``/``default_tau`` of ``sigma``,
    ``n`` (2 for one value, which has only the empty partition) and
    ``c_lambda``/``c_tau``, and to 1e-12 when ``sigma == 0``
    (exactly noiseless input), where those would be 0.
    wbs samples ``intervals`` intervals (by default the ``min_intervals``
    count for ``n`` and ``spacing``, which defaults to ``max(1, n // 10)``)
    of length at most ``max_len`` from ``seed``.  A ``y`` that is not 1-D
    and finite with at least 1 value (l0) or 2 (bs, wbs), an unknown method,
    a ``sigma`` that is negative or not finite, a given ``c_lambda`` or
    ``c_tau`` that is not positive, a given ``spacing`` outside [1, n],
    ``intervals`` below 1 or ``max_len`` below 2, each whether used or not,
    a default ``lam``/``tau`` that underflows or overflows, or a default
    interval count above ``MAX_DEFAULT_INTERVALS`` raises ``ValueError``;
    a given ``intervals`` is never capped.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}, expected one of {METHODS}")
    check_sigma(sigma)
    for name, c in (("c_lambda", c_lambda), ("c_tau", c_tau)):
        if c is not None and not c > 0:
            raise ValueError(f"{name} must be positive, got {c!r}")
    y = check_observations(y, least=1 if method == "l0" else 2)
    n = y.size
    if spacing is not None:
        spacing = check_integer(spacing, 1, n, "spacing must be an integer in [1, %s], got %r",
                                n, spacing)
    if intervals is not None:
        intervals = check_integer(intervals, 1, None,
                                  "intervals must be a positive integer, got %r", intervals)
    if max_len is not None and not max_len >= 2:
        raise ValueError(f"max_len must be at least 2, got {max_len!r}")
    if method == "l0":
        if lam is None:
            lam = default_lambda(sigma, max(n, 2), c_lambda) if sigma > 0 else _NOISELESS_PARAM
        res = solve_l0(y, lam)
        return res.segmentation.boundaries, {"lambda": res.lam}
    if tau is None:
        tau = default_tau(sigma, n, c_tau) if sigma > 0 else _NOISELESS_PARAM
    if method == "bs":
        res = bs_detect(y, tau)
        return res.change_points, {"tau": res.tau}
    spacing = spacing if spacing is not None else max(1, n // 10)
    m = intervals if intervals is not None else min_intervals(n, spacing)
    if intervals is None and m > MAX_DEFAULT_INTERVALS:
        raise ValueError(f"the default wbs interval count for n = {n} and spacing {spacing} is "
                         f"{m}, above {MAX_DEFAULT_INTERVALS}; give the count (--intervals)")
    res = wbs_detect(y, sample_intervals(n, m, seed, max_len=max_len), tau)
    # sample_intervals has checked the seed, so int() only converts a numpy one.
    params = {"tau": res.tau, "intervals": m, "max_len": max_len, "seed": int(seed)}
    return res.change_points, params


def _replicate(cfg: ExperimentConfig, rep: int) -> ExperimentRow:
    if cfg.sigma == 0 and cfg.method == "l0" and cfg.lam is None:
        raise ValueError("sigma = 0 has no default penalty; pass lam explicitly")
    if cfg.sigma == 0 and cfg.method != "l0" and cfg.tau is None:
        raise ValueError("sigma = 0 has no default threshold; pass tau explicitly")
    sig, y = draw_replication(cfg, rep)
    spacing = min_spacing(sig)
    start = time.perf_counter()
    est, _ = detect(
        y, cfg.method, cfg.sigma, spacing=spacing, seed=subseed(cfg.base_seed, rep, 1),
        lam=cfg.lam, tau=cfg.tau, c_lambda=cfg.c_lambda, c_tau=cfg.c_tau, intervals=cfg.intervals,
        max_len=cfg.max_len if cfg.max_len is not None else max(2, 2 * spacing),
    )
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
    depend on scheduling.  ``jobs`` below 1 raises ``ValueError``.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs!r}")
    reps = range(cfg.replications)
    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(lambda r: _replicate(cfg, r), reps))
    return [_replicate(cfg, r) for r in reps]


def _spacing(cfg: ExperimentConfig) -> int:
    """Minimal spacing of the signal, which kappa (unset in snr sweeps) does not change."""
    return min_spacing(build_signal(replace(cfg, kappa=1.0)))


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
    snr_grid = list(snr_grid)
    for value in snr_grid:
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"snr grid values must be positive and finite, got {value!r}")
    rows: list[ExperimentRow] = []
    root_spacing = math.sqrt(_spacing(base_cfg))
    for value in snr_grid:
        kappa = value * base_cfg.sigma / root_spacing
        cfg = replace(base_cfg, kappa=kappa, replications=reps)
        rows.extend(run_experiment(cfg, jobs=jobs))
    return rows


def rate_check(cfg: ExperimentConfig, c_eps_grid, rows) -> dict[float, float]:
    """Fraction of replications with max_k kappa_k^2 |err_k| <= c * sigma^2 log n.

    ``rows`` are the replications of ``cfg``, as :func:`run_experiment`
    returns them; each change point's error is weighted by its own jump.
    Replications with the wrong change point count fail every grid value.
    Raises ``ValueError`` as :func:`check_rate_inputs` does.
    """
    c_eps_grid = list(c_eps_grid)
    check_rate_inputs(cfg, c_eps_grid)
    sig = build_signal(cfg)
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


def check_rate_inputs(cfg: ExperimentConfig, c_eps_grid) -> None:
    """Raise ``ValueError`` where :func:`rate_check` would: ``cfg`` has no
    change point, or a multiplier is negative or not finite.  Run it before
    the replications that ``rate_check`` scores."""
    if build_signal(cfg).k < 1:
        raise ValueError("rate check needs at least one change point")
    for c in c_eps_grid:
        if not (math.isfinite(c) and c >= 0):
            raise ValueError(f"c_eps grid values must be finite and >= 0, got {c!r}")


def is_success(row: ExperimentRow, spacing: int) -> bool:
    """Correct count and every change point located within spacing / 4."""
    if not row.k_correct:
        return False
    return row.k_true == 0 or row.max_err <= spacing / 4


def summarize(cfg: ExperimentConfig, rows: Iterable[ExperimentRow]) -> dict:
    """JSON-ready summary: config echo, success rate, error quantiles.

    The echo holds the ``echoed`` fields of ``cfg``, in that order, and the
    explicit signal when there is one.

    Quantiles are taken over replications with the correct count; runs with
    an infinite Hausdorff marker count as failures and are excluded.
    """
    rows = list(rows)
    spacing = _spacing(cfg)
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

    echoed = ("n", "method", "sigma", "family", "k", "delta", "kappa", "lam", "tau",
              "intervals", "max_len", "replications", "base_seed")
    config = {name: getattr(cfg, name) for name in echoed}
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

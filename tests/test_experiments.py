import io
import math
import re

import numpy as np
import pytest

from steploc.experiments import (
    CSV_HEADER,
    ExperimentConfig,
    ExperimentRow,
    build_signal,
    detect,
    is_success,
    rate_check,
    run_experiment,
    run_replication,
    summarize,
    sweep_snr,
    write_csv,
)
from steploc.l0 import solve_l0
from steploc.noise import NoiseSpec, sample, subseed
from steploc.signal import make_signal, min_spacing


def test_build_signal_even_spacing():
    cfg = ExperimentConfig(n=2000, method="l0", sigma=1.0, base_seed=0, k=3, delta=500,
                           kappa=2.0, lam=1.0)
    sig = build_signal(cfg)
    assert sig.change_points == (500, 1000, 1500)
    assert sig.levels == (0.0, 2.0, 0.0, 2.0)
    assert min_spacing(sig) == 500


def test_build_signal_from_delta_only():
    cfg = ExperimentConfig(n=100, method="l0", sigma=1.0, base_seed=0, delta=25,
                           kappa=1.0, lam=1.0)
    assert build_signal(cfg).change_points == (25, 50, 75)


def test_build_signal_constant():
    cfg = ExperimentConfig(n=50, method="l0", sigma=1.0, base_seed=0, k=0, lam=1.0)
    assert build_signal(cfg).k == 0


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(n=10, method="ols", sigma=1.0, base_seed=0, k=1)
    with pytest.raises(ValueError):
        ExperimentConfig(n=10, method="l0", sigma=1.0, base_seed=0)  # no signal spec
    with pytest.raises(ValueError):
        ExperimentConfig(n=10, method="l0", sigma=1.0, base_seed=0, k=1, replications=0)
    with pytest.raises(ValueError):
        run_replication(
            ExperimentConfig(n=20, method="l0", sigma=0.0, base_seed=0, k=1, kappa=1.0), 0
        )  # sigma=0 needs explicit lam


def test_detect_checks_method_and_sigma():
    y = np.repeat([0.0, 2.0], 20)
    with pytest.raises(ValueError, match="unknown method 'ols'"):
        detect(y, "ols", 1.0, spacing=20, seed=0)
    for sigma in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="sigma must be finite and >= 0"):
            detect(y, "bs", sigma, spacing=20, seed=0, tau=1.0)
    assert detect(y, "l0", 1.0, spacing=20, seed=0, lam=1.0) == ((20,), {"lambda": 1.0})


def test_noiseless_l0_replication_is_exact():
    cfg = ExperimentConfig(n=60, method="l0", sigma=0.0, base_seed=3, k=2, delta=20,
                           kappa=1.0, lam=1e-6)
    row = run_replication(cfg, 0)
    assert row.k_correct and row.max_err == 0.0 and row.hausdorff == 0.0
    assert math.isinf(row.snr)


def test_replication_deterministic():
    cfg = ExperimentConfig(n=200, method="wbs", sigma=1.0, base_seed=5, k=1, delta=100,
                           kappa=2.0, tau=3.0, intervals=80, max_len=150)
    a = run_replication(cfg, 4)
    b = run_replication(cfg, 4)
    assert (a.k_est, a.max_err, a.hausdorff, a.snr) == (b.k_est, b.max_err, b.hausdorff, b.snr)


def test_null_signal_wbs_stays_empty():
    cfg = ExperimentConfig(n=200, method="wbs", sigma=1.0, base_seed=77, replications=30,
                           k=0, tau=2.5 * math.sqrt(math.log(200)), intervals=100)
    rows = run_experiment(cfg)
    assert all(r.k_correct and r.k_est == 0 for r in rows)
    assert all(math.isnan(r.snr) for r in rows)


def test_thread_parallelism_matches_serial():
    cfg = ExperimentConfig(n=300, method="l0", sigma=1.0, base_seed=6, replications=12,
                           k=2, delta=100, kappa=2.0, lam=2 * math.log(300))
    serial = run_experiment(cfg, jobs=1)
    threaded = run_experiment(cfg, jobs=4)
    for a, b in zip(serial, threaded):
        assert (a.rep, a.k_est, a.max_err, a.hausdorff) == (b.rep, b.k_est, b.max_err, b.hausdorff)


def test_sweep_snr_shape_and_scaling():
    base = ExperimentConfig(n=100, method="l0", sigma=2.0, base_seed=9, k=1, delta=50,
                            lam=2 * 4 * math.log(100))
    rows = sweep_snr(base, [1.0, 5.0], reps=2)
    assert len(rows) == 4
    assert rows[0].snr == pytest.approx(1.0)
    assert rows[2].snr == pytest.approx(5.0)


def test_sweep_snr_huge_signal_always_succeeds():
    base = ExperimentConfig(n=100, method="wbs", sigma=1.0, base_seed=78, k=1, delta=50,
                            tau=2.5 * math.sqrt(math.log(100)), intervals=64)
    rows = sweep_snr(base, [1e6], reps=20)
    assert all(is_success(r, 50) for r in rows)


def test_sweep_low_snr_fails_high_snr_succeeds():
    # Desk-scale echo of the detectability transition: jumps far below the
    # noise-threshold scale are never localized, comfortably above it they
    # almost always are.
    low = 0.25 * math.sqrt(math.log(500))
    high = 8 * math.sqrt(math.log(500))
    for method in ("l0", "wbs"):
        base_low = ExperimentConfig(
            n=500, method=method, sigma=1.0, base_seed=13, k=3, delta=5,
            lam=2 * math.log(500) if method == "l0" else None,
            tau=2.0 * math.sqrt(math.log(500)) if method == "wbs" else None,
            intervals=600 if method == "wbs" else None,
            max_len=10 if method == "wbs" else None,
        )
        rows = sweep_snr(base_low, [low], reps=100)
        assert sum(is_success(r, 5) for r in rows) / 100 < 0.5

        base_high = ExperimentConfig(
            n=500, method=method, sigma=1.0, base_seed=13, k=3, delta=50,
            lam=2 * math.log(500) if method == "l0" else None,
            tau=2.0 * math.sqrt(math.log(500)) if method == "wbs" else None,
            intervals=600 if method == "wbs" else None,
            max_len=100 if method == "wbs" else None,
        )
        rows = sweep_snr(base_high, [high], reps=100)
        assert sum(is_success(r, 50) for r in rows) / 100 >= 0.95


def test_rate_check_zero_noise_passes_everything():
    cfg = ExperimentConfig(n=100, method="l0", sigma=0.0, base_seed=19, replications=5,
                           k=2, delta=30, kappa=1.0, lam=1e-9)
    assert rate_check(cfg, [0.5, 1.0], run_experiment(cfg)) == {0.5: 1.0, 1.0: 1.0}


@pytest.mark.parametrize("c", [-1.0, math.nan, math.inf])
def test_rate_check_rejects_a_negative_or_non_finite_multiplier(c):
    cfg = ExperimentConfig(n=200, method="l0", sigma=0.0, base_seed=1, replications=2,
                           k=1, kappa=1.0, lam=1.0)
    rows = run_experiment(cfg)
    assert rate_check(cfg, [0.0, 2.0], rows) == {0.0: 1.0, 2.0: 1.0}
    with pytest.raises(ValueError, match="c_eps grid values must be finite and >= 0"):
        rate_check(cfg, [2.0, c], rows)


def test_rate_check_locally_adaptive_in_jump_size():
    # The normalized error kappa^2 |err| / (sigma^2 log n) has a passing
    # threshold that does not move when kappa doubles.
    grid = [0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0]

    def passing_c(kappa):
        cfg = ExperimentConfig(n=500, method="l0", sigma=1.0, base_seed=19, replications=100,
                               k=3, delta=125, kappa=kappa, lam=2 * math.log(500))
        fractions = rate_check(cfg, grid, run_experiment(cfg))
        return min(c for c in grid if fractions[c] >= 0.85)

    c1, c2 = passing_c(1.0), passing_c(2.0)
    assert abs(math.log2(c1) - math.log2(c2)) <= 1.0


def test_rate_check_weights_each_error_by_its_own_jump():
    # Jumps 1 and 2: the second change point's error counts four times as
    # much as the first's.  The expected fractions are computed from the
    # raw per-point errors, without the harness.
    n, sigma, seed, reps = 300, 1.0, 23, 40
    sig = make_signal(n, [100, 200], [0.0, 1.0, 3.0])
    lam = 2 * math.log(n)
    cfg = ExperimentConfig(n=n, method="l0", sigma=sigma, base_seed=seed, replications=reps,
                           signal=sig, lam=lam)
    grid = [0.25, 0.5, 1.0, 2.0, 4.0]
    bound_unit = sigma * sigma * math.log(n)

    def fractions(weights):
        norms = []
        for r in range(reps):
            y = sample(sig, NoiseSpec("gaussian", sigma), subseed(seed, r, 0))
            est = solve_l0(y, lam).segmentation.boundaries
            if len(est) != 2:
                norms.append(math.inf)
                continue
            errs = [abs(h - t) for h, t in zip(sorted(est), (100, 200))]
            norms.append(max(w * e for w, e in zip(weights, errs)))
        return {c: sum(v <= c * bound_unit for v in norms) / reps for c in grid}

    expected = fractions((1.0, 4.0))
    assert expected != fractions((1.0, 1.0))
    assert expected != fractions((4.0, 4.0))
    assert rate_check(cfg, grid, run_experiment(cfg, jobs=2)) == expected


def test_csv_format_exact():
    rows = [
        ExperimentRow(rep=0, snr=4.0, method="l0", k_true=1, k_est=1, k_correct=True,
                      max_err=2.0, hausdorff=2.0, ms=12.5),
        ExperimentRow(rep=1, snr=4.0, method="l0", k_true=1, k_est=0, k_correct=False,
                      max_err=math.nan, hausdorff=math.inf, ms=9.0),
    ]
    buf = io.StringIO()
    write_csv(rows, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == CSV_HEADER
    assert lines[1] == "0,4,l0,1,1,true,2,2,0"
    assert lines[2] == "1,4,l0,1,0,false,nan,inf,0"

    buf = io.StringIO()
    write_csv(rows[:1], buf, include_timing=True)
    assert buf.getvalue().splitlines()[1].endswith(",12.5")


def test_summarize_counts_infinite_hausdorff_as_failure():
    cfg = ExperimentConfig(n=60, method="l0", sigma=0.0, base_seed=3, k=1, delta=20,
                           kappa=1.0, lam=1e-6, replications=2)
    rows = [
        run_replication(cfg, 0),
        ExperimentRow(rep=1, snr=1.0, method="l0", k_true=1, k_est=0, k_correct=False,
                      max_err=math.nan, hausdorff=math.inf, ms=0.0),
    ]
    doc = summarize(cfg, rows)
    assert doc["success_rate"] == 0.5
    assert doc["quantiles"]["max_err"]["max"] == 0.0
    assert doc["config"]["n"] == 60


def test_explicit_signal_config():
    sig = make_signal(40, [10], [0, 3.0])
    cfg = ExperimentConfig(n=40, method="bs", sigma=0.0, base_seed=1, signal=sig, tau=0.5)
    row = run_replication(cfg, 0)
    assert row.k_correct and row.max_err == 0.0
    with pytest.raises(ValueError):
        ExperimentConfig(n=41, method="bs", sigma=0.0, base_seed=1, signal=sig, tau=0.5)


@pytest.mark.parametrize("jobs", [0, -2])
def test_run_experiment_rejects_jobs_below_one(jobs):
    cfg = ExperimentConfig(n=100, method="l0", sigma=1.0, base_seed=0, k=1, replications=2)
    with pytest.raises(ValueError, match="jobs must be at least 1"):
        run_experiment(cfg, jobs=jobs)


@pytest.mark.parametrize("field, value, message", [
    ("family", "cauchy", "unknown noise family 'cauchy'"),
    ("sigma", -1.0, "sigma must be finite and >= 0, got -1.0"),
    ("sigma", math.nan, "sigma must be finite and >= 0, got nan"),
])
def test_config_checks_the_noise_as_noise_spec_does(field, value, message):
    args = dict(n=100, method="l0", sigma=1.0, base_seed=0, k=1, family="gaussian")
    with pytest.raises(ValueError, match=re.escape(message)):
        ExperimentConfig(**{**args, field: value})


def test_summarize_echoes_an_explicit_signal():
    sig = make_signal(40, [10], [0, 3.0])
    cfg = ExperimentConfig(n=40, method="bs", sigma=0.0, base_seed=1, signal=sig, tau=0.5,
                           replications=2)
    doc = summarize(cfg, run_experiment(cfg))
    assert doc["config"]["signal"] == {"n": 40, "change_points": [10], "levels": [0.0, 3.0]}
    assert doc["success_rate"] == 1.0


@pytest.mark.parametrize("changes, message", [
    (dict(sigma=0.0), "snr sweep needs sigma > 0"),
    (dict(signal=make_signal(100, [50], [0, 1.0])), "snr sweep rescales the parametric signal"),
])
def test_sweep_snr_rejects_noiseless_and_explicit_signal_configs(changes, message):
    cfg = ExperimentConfig(**{**dict(n=100, method="l0", sigma=1.0, base_seed=0, k=1, lam=1.0),
                              **changes})
    with pytest.raises(ValueError, match=message):
        sweep_snr(cfg, [2.0], reps=1)


def test_detect_resolves_the_noiseless_defaults():
    y = np.repeat([0.0, 2.0, 0.0], 20)
    assert detect(y, "l0", 0.0, seed=0) == ((20, 40), {"lambda": 1e-12})
    assert detect(y, "bs", 0.0, seed=0) == ((20, 40), {"tau": 1e-12})
    # The spacing defaults to n // 10 = 6, which sizes the interval pool.
    assert detect(y, "wbs", 0.0, seed=0) == (
        (20, 40), {"tau": 1e-12, "intervals": 3685, "max_len": None, "seed": 0})


def test_detect_runs_l0_on_one_value_at_the_two_point_penalty():
    # A one-value series has only the empty partition, so any penalty gives it.
    assert detect(np.array([1.0]), "l0", 1.0, seed=0) == ((), {"lambda": 2.0 * math.log(2)})


# tests/test_cli.py checks --delta-hint 0, --intervals -1 and --max-len 1.
@pytest.mark.parametrize("changes, message", [
    ({"spacing": 41}, "spacing must be an integer in [1, 40], got 41"),
    ({"spacing": 2.5}, "spacing must be an integer in [1, 40], got 2.5"),
    ({"spacing": 0, "intervals": 50}, "spacing must be an integer in [1, 40], got 0"),
    ({"intervals": 3.0}, "intervals must be a positive integer, got 3.0"),
])
@pytest.mark.parametrize("method", ["l0", "bs", "wbs"])
def test_detect_checks_the_wbs_sizing_whether_used_or_not(method, changes, message):
    y = np.repeat([0.0, 2.0], 20)
    with pytest.raises(ValueError, match=re.escape(message)):
        detect(y, method, 1.0, seed=0, **changes)


@pytest.mark.parametrize("method", ["l0", "bs", "wbs"])
def test_the_harness_refuses_sigma_0_without_the_parameter(method):
    cfg = ExperimentConfig(n=60, method=method, sigma=0.0, base_seed=3, k=1, kappa=1.0)
    message = ("sigma = 0 has no default penalty; pass lam explicitly" if method == "l0"
               else "sigma = 0 has no default threshold; pass tau explicitly")
    with pytest.raises(ValueError, match=re.escape(message)):
        run_replication(cfg, 0)


@pytest.mark.parametrize("value", [0.0, -1.0, math.nan])
@pytest.mark.parametrize("name", ["c_lambda", "c_tau"])
@pytest.mark.parametrize("method", ["l0", "bs", "wbs"])
def test_detect_checks_both_multipliers_whether_used_or_not(method, name, value):
    y = np.repeat([0.0, 2.0], 20)
    with pytest.raises(ValueError, match=re.escape(f"{name} must be positive, got {value!r}")):
        detect(y, method, 1.0, spacing=20, seed=0, lam=1.0, tau=1.0, **{name: value})


def test_build_signal_needs_a_jump_and_room_for_the_change_points():
    with pytest.raises(ValueError, match="kappa must be nonzero for a signal with change points"):
        build_signal(ExperimentConfig(n=100, method="l0", sigma=1.0, base_seed=0, k=2))
    with pytest.raises(ValueError,
                       match=re.escape("cannot place 3 change points with spacing 40 in n = 100")):
        build_signal(ExperimentConfig(n=100, method="l0", sigma=1.0, base_seed=0, k=3, delta=40,
                                      kappa=1.0))

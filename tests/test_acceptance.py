"""Acceptance suite: one test per exit criterion, each printing a PASS/FAIL
line (run with ``pytest tests/test_acceptance.py -v -s``).

Monte Carlo criteria use the fixed seed 12345 and the replication counts
given in the criterion; nothing is resampled until green.  Where a
criterion leaves method parameters open (5 and 6), the values used here
were calibrated once by pilot runs and then frozen.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np

from oracles import brute_force_l0, contrast, cusum, project, single_cp_cusum
from steploc.cusum import _scan_values, scan_prefix
from steploc.experiments import ExperimentConfig, run_experiment
from steploc.l0 import segment_cost, segment_prefix, solve_l0
from steploc.signal import evaluate, make_signal, spike_signal, two_point_pair
from steploc.wbs import IntervalSet, bs_detect, min_intervals, wbs_detect

SEED = 12345


def _verdict(num: int, name: str, ok: bool, detail: str = "") -> bool:
    state = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"\nACCEPTANCE {num} {name}: {state}{suffix}")
    return ok


def test_criterion_1_dp_matches_exhaustive_enumeration():
    rng = np.random.default_rng(SEED)
    start = time.perf_counter()
    ok = True
    for _ in range(500):
        n = int(rng.integers(1, 13))
        y = rng.normal(size=n)
        lam = float(10 ** rng.uniform(-2, 2))
        res = solve_l0(y, lam)
        best, bounds = brute_force_l0(y.tolist(), lam)
        if abs(res.objective - best) > 1e-8 * max(abs(best), 1e-300):
            ok = False
        if res.segmentation.boundaries != bounds:
            ok = False
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 10.0
    assert _verdict(1, "dp oracle equivalence", ok, f"{elapsed:.1f}s")


def test_criterion_2_identity_suite():
    rng = np.random.default_rng(SEED)
    start = time.perf_counter()
    n = 3000
    y = rng.normal(size=n) * 2.0 + 0.5
    prefix = segment_prefix(y)
    ok = True

    for _ in range(10_000):  # merging identity
        i = int(rng.integers(1, n - 1))
        m = int(rng.integers(i, n))
        j = int(rng.integers(m + 1, n + 1))
        union = segment_cost(prefix, i, j)
        n1, n2 = m - i + 1, j - m
        glue = n1 * n2 / (n1 + n2) * (y[i - 1 : m].mean() - y[m:j].mean()) ** 2
        if abs(union - (segment_cost(prefix, i, m) + segment_cost(prefix, m + 1, j) + glue)) > 1e-9 * max(1.0, abs(union)):
            ok = False

    for _ in range(10_000):  # projection / variance-decomposition identity
        s = int(rng.integers(0, n - 2))
        e = int(rng.integers(s + 2, min(s + 400, n) + 1))
        d = int(rng.integers(s + 1, e))
        x = y[s:e]
        lhs = float(np.sum((x - project(x, s, e, d)) ** 2))
        rhs = float(np.sum((x - x.mean()) ** 2) - np.dot(x, contrast(s, e, d)) ** 2)
        if abs(lhs - rhs) > 1e-9 * max(1.0, abs(lhs)):
            ok = False

    for _ in range(10_000):  # scan value = inner product with contrast
        s = int(rng.integers(0, n - 2))
        e = int(rng.integers(s + 2, min(s + 400, n) + 1))
        t = int(rng.integers(s + 1, e))
        v = cusum(y, s, e, t)
        if abs(v - float(np.dot(y[s:e], contrast(s, e, t)))) > 1e-9 * max(1.0, abs(v)):
            ok = False

    for _ in range(10_000):  # single-change-point closed form
        m = int(rng.integers(6, 80))
        eta = int(rng.integers(2, m - 1))
        kappa = float(rng.choice([0.5, 1.0, 2.0]))
        sig = make_signal(m, [eta], [0.0, kappa])
        s = int(rng.integers(0, eta))
        e = int(rng.integers(eta + 1, m + 1))
        closed = single_cp_cusum(sig, s, e)
        if abs(closed - abs(cusum(evaluate(sig), s, e, eta))) > 1e-9 * max(1.0, closed):
            ok = False

    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 5.0
    assert _verdict(2, "identity suite", ok, f"{elapsed:.1f}s")


def _localization_success_rate(method: str, tau_mult: float | None = None) -> tuple[float, float]:
    n, k, delta, kappa, sigma = 2000, 3, 500, 2.0, 1.0
    bound = 8 * sigma**2 * math.log(n) / kappa**2
    kw = dict(n=n, method=method, sigma=sigma, base_seed=SEED, replications=200,
              k=k, delta=delta, kappa=kappa)
    if method == "l0":
        kw["lam"] = 2 * sigma**2 * math.log(n)
    else:
        kw["tau"] = 1.5 * sigma * math.sqrt(math.log(n))
        kw["intervals"] = min_intervals(n, delta)
        kw["max_len"] = 2 * delta
    start = time.perf_counter()
    rows = run_experiment(ExperimentConfig(**kw))
    elapsed = time.perf_counter() - start
    rate = sum(r.k_correct and r.max_err <= bound for r in rows) / len(rows)
    return rate, elapsed


def test_criterion_3_l0_localization_rate():
    rate, elapsed = _localization_success_rate("l0")
    ok = rate >= 0.95 and elapsed < 120.0
    assert _verdict(3, "l0 localization rate", ok, f"success {rate:.3f}, {elapsed:.0f}s")


def test_criterion_4_wbs_localization_rate():
    # Constants are pinned by the criterion: M = min_intervals(n, delta),
    # max_len = 2 delta, tau = 1.5 sigma sqrt(log n).  With this tau the
    # randomized scan false-positives on pure noise in roughly a fifth of
    # replications (the noise supremum over the clipped-interval family
    # sits at 4.1-5.3 while tau = 4.135; a 1.75-2.0 multiplier passes), so
    # the bar is not reachable; the test states the criterion as written
    # rather than recalibrating it.
    rate, elapsed = _localization_success_rate("wbs")
    ok = rate >= 0.95 and elapsed < 180.0
    assert _verdict(4, "wbs localization rate", ok, f"success {rate:.3f}, {elapsed:.0f}s")


def _spike_success_rate(method: str, n: int, c: float) -> float:
    height = math.sqrt(c * math.log(n))
    sig = spike_signal(n, n // 2, height)
    kw = dict(n=n, method=method, sigma=1.0, base_seed=SEED, replications=200, signal=sig)
    if method == "l0":
        kw["lam"] = 2 * math.log(n)
    else:
        # calibrated by pilot: short intervals so a window tight around the
        # spike exists, threshold above the short-interval noise supremum
        kw["tau"] = 2.0 * math.sqrt(math.log(n))
        kw["intervals"] = 2 * n
        kw["max_len"] = 16
    rows = run_experiment(ExperimentConfig(**kw))
    return sum(r.k_correct and r.max_err <= 0.25 for r in rows) / len(rows)


def test_criterion_5_phase_transition_bracket():
    rates = {
        (method, n, c): _spike_success_rate(method, n, c)
        for method in ("l0", "wbs")
        for n in (256, 1024)
        for c in (0.25, 64.0)
    }
    low_ok = all(rates[(m, n, 0.25)] < 0.5 for m in ("l0", "wbs") for n in (256, 1024))
    high_ok = all(rates[(m, n, 64.0)] >= 0.9 for m in ("l0", "wbs") for n in (256, 1024))
    detail = ", ".join(f"{m}/n={n}/c={c}: {v:.2f}" for (m, n, c), v in sorted(rates.items()))
    # The wbs high-SNR clause needs both shoulders of the one-point spike:
    # after a split b the recursion passes (s, b] and (b, e], which
    # partition the window, so the right shoulder b + 1 stays reachable
    # once the left one is found.
    assert _verdict(5, "phase transition bracket", low_ok and high_ok, detail)


def test_criterion_6_rate_scaling_and_floor():
    allowed = 1.5 * math.log(4 * 500) / math.log(500)

    def p90(method, n):
        sig = make_signal(n, [125, 250, 375], [0.0, 1.0, 0.0, 1.0])
        kw = dict(n=n, method=method, sigma=1.0, base_seed=SEED, replications=200, signal=sig)
        if method == "l0":
            kw["lam"] = 2 * math.log(n)
        else:
            kw["tau"] = 2.0 * math.sqrt(math.log(n))
            kw["intervals"] = 600
            kw["max_len"] = 250
        rows = run_experiment(ExperimentConfig(**kw))
        errs = [r.max_err for r in rows if r.k_correct]
        assert len(errs) >= 160  # quantile needs a solid base
        return float(np.quantile(np.asarray(errs), 0.9))

    ratios = {}
    for method in ("l0", "wbs"):
        base, quad = p90(method, 500), p90(method, 2000)
        ratios[method] = quad / base if base > 0 else math.inf
    scaling_ok = all(r <= allowed for r in ratios.values())

    medians = {}
    for method in ("l0", "wbs"):
        errors = []
        for sig in two_point_pair(500, 200, math.ceil(1 / 0.5**2), 0.5):
            kw = dict(n=500, method=method, sigma=1.0, base_seed=SEED, replications=100,
                      signal=sig)
            if method == "l0":
                kw["lam"] = 2 * math.log(500)
            else:
                kw["tau"] = 2.0 * math.sqrt(math.log(500))
                kw["intervals"] = 600
                kw["max_len"] = 400
            rows = run_experiment(ExperimentConfig(**kw))
            errors += [r.max_err if r.k_correct else math.inf for r in rows]
        medians[method] = float(np.median(errors))
    floor_ok = all(m >= 1.0 for m in medians.values())

    detail = (
        f"p90 ratios l0 {ratios['l0']:.2f}, wbs {ratios['wbs']:.2f} (allowed {allowed:.2f}); "
        f"two-point medians l0 {medians['l0']:.0f}, wbs {medians['wbs']:.0f}"
    )
    assert _verdict(6, "rate scaling and two-point floor", scaling_ok and floor_ok, detail)


def test_criterion_7_bs_cancellation_characterization():
    # Symmetric up-down-up instance; the two jumps partially cancel in the
    # full-window scan.
    L = 100
    sig = make_signal(3 * L, [L, 2 * L], [1.0, 0.0, 1.0])
    y = evaluate(sig)
    spacing = L

    b_root = 1 + int(np.argmax(np.abs(_scan_values(scan_prefix(y), 0, 3 * L))))
    root_far_from_truth = min(abs(b_root - L), abs(b_root - 2 * L)) > spacing / 4

    straddlers = IntervalSet(
        3 * L, ((L // 2, 3 * L // 2), (3 * L // 2, 5 * L // 2), (0, 3 * L))
    )
    tau = (math.sqrt(L / 6) + math.sqrt(L / 4)) / 2  # between root peak and straddle peak
    wbs_exact = wbs_detect(y, straddlers, tau).change_points == (L, 2 * L)
    bs_blind = bs_detect(y, tau).change_points == ()

    # First clause as stated: the noiseless root argmax should be far from
    # both true change points.  It cannot be: the scan of a piecewise
    # constant mean attains its maximum absolute value at a true change
    # point, so b_root lands exactly on one.
    # The cancellation is real but shows up in the peak VALUE, which a
    # threshold between sqrt(L/6) and sqrt(L/4) turns into total blindness
    # of plain binary segmentation (bs_blind above, asserted in the unit
    # suite as the honest characterization).
    ok = root_far_from_truth and wbs_exact and bs_blind
    detail = f"b_root={b_root}, wbs_exact={wbs_exact}, bs_blind={bs_blind}"
    assert _verdict(7, "bs cancellation characterization", ok, detail)


def _run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "steploc.cli", *args], capture_output=True, text=True
    )


def test_criterion_8_cli_byte_determinism(tmp_path):
    sweep_args = ("sweep", "--n", "300", "--k", "2", "--sigma", "1.0", "--method", "wbs",
                  "--snr-grid", "2,10", "--reps", "4", "--seed", "777",
                  "--intervals", "120", "--max-len", "200")
    runs = [_run_cli(*sweep_args, "--jobs", str(j)) for j in (1, 4, 1)]
    sweep_ok = all(r.returncode == 0 for r in runs) and len({r.stdout for r in runs}) == 1

    series = tmp_path / "y.txt"
    rng = np.random.default_rng(4)
    series.write_text("".join(f"{v}\n" for v in rng.normal(size=80)))
    detects = [_run_cli("detect", str(series), "--method", "wbs", "--seed", "5") for _ in range(2)]
    detect_ok = detects[0].stdout == detects[1].stdout and detects[0].returncode == 0

    sims = [_run_cli("simulate", "--n", "50", "--k", "1", "--kappa", "1", "--sigma", "0.5",
                     "--seed", "9") for _ in range(2)]
    sim_ok = sims[0].stdout == sims[1].stdout

    rates = [_run_cli("rate", "--n", "200", "--k", "1", "--kappa", "2", "--sigma", "1",
                      "--method", "l0", "--reps", "5", "--seed", "3",
                      "--c-eps-grid", "1,4", "--jobs", str(j)) for j in (1, 3)]
    rate_ok = rates[0].stdout == rates[1].stdout

    ok = sweep_ok and detect_ok and sim_ok and rate_ok
    assert _verdict(8, "cli byte determinism", ok,
                    f"sweep={sweep_ok} detect={detect_ok} simulate={sim_ok} rate={rate_ok}")

import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import contrast, cusum, cusum_direct, project, single_cp_cusum
from steploc.cusum import PASS_POINTS, _scan_values, prefix_sums, scan_prefix, scan_windows
from steploc.signal import evaluate, make_signal


def _scan(y, s, e):
    """Scan values of the one window (s, e] of ``y``, through the detectors' kernel."""
    return _scan_values(scan_prefix(y), s, e)


def test_constant_input_gives_zero():
    y = np.full(9, 3.25)
    assert cusum(y, 0, 9, 4) == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(_scan(y, 2, 8), 0.0, atol=1e-12)


def test_pointwise_examples():
    y = np.array([0.0, 0.0, 2.0, 2.0])
    assert cusum(y, 0, 4, 2) == pytest.approx(-2.0)
    assert cusum(y, 0, 4, 1) == pytest.approx(-4 / math.sqrt(12))


def test_scan_example():
    y = np.array([0.0, 0.0, 2.0, 2.0])
    assert _scan(y, 0, 4) == pytest.approx([-4 / math.sqrt(12), -2.0, -4 / math.sqrt(12)])


def test_index_validation():
    y = np.zeros(6)
    with pytest.raises(ValueError):
        cusum(y, 2, 2, 2)
    with pytest.raises(ValueError):
        cusum(y, 0, 7, 3)
    with pytest.raises(ValueError):
        cusum(y, 1, 4, 4)


@pytest.mark.parametrize("s,d,e", [(0, 1, 2), (0, 3, 7), (2, 5, 11), (1, 2, 30)])
def test_contrast_unit_norm(s, d, e):
    psi = contrast(s, e, d)
    assert psi.shape == (e - s,)
    assert np.dot(psi, psi) == pytest.approx(1.0, rel=1e-12)


def test_project_examples():
    x = np.array([1.0, 1.0, 3.0, 3.0])
    assert project(x, 0, 4, 2) == pytest.approx([1, 1, 3, 3])
    x = np.array([1.0, 3.0, 5.0, 7.0])
    assert project(x, 0, 4, 2) == pytest.approx([2, 2, 6, 6])


def test_single_cp_examples():
    sig = make_signal(4, [2], [0, 2])
    assert single_cp_cusum(sig, 0, 4) == pytest.approx(2.0)
    sig2 = make_signal(4, [1], [0, 1])
    assert single_cp_cusum(sig2, 0, 4) == pytest.approx(math.sqrt(3) / 2)


def test_single_cp_scales_linearly():
    base = single_cp_cusum(make_signal(12, [5], [0, 1]), 1, 10)
    scaled = single_cp_cusum(make_signal(12, [5], [0, 3.5]), 1, 10)
    assert scaled == pytest.approx(3.5 * base, rel=1e-12)


def test_single_cp_requires_exactly_one():
    sig = make_signal(10, [3, 6], [0, 1, 0])
    with pytest.raises(ValueError):
        single_cp_cusum(sig, 0, 10)
    with pytest.raises(ValueError):
        single_cp_cusum(sig, 3, 6)


@given(st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_scan_matches_pointwise(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 60))
    y = rng.normal(size=n) * rng.choice([0.1, 1.0, 10.0])
    s = int(rng.integers(0, n - 1))
    e = int(rng.integers(s + 2, n + 1))
    scan = _scan(y, s, e)
    for t in range(s + 1, e):
        assert scan[t - s - 1] == pytest.approx(cusum(y, s, e, t), abs=1e-10)
        assert cusum(y, s, e, t) == pytest.approx(cusum_direct(y, s, e, t), abs=1e-10)


@given(st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_scan_windows_concatenates_single_window_scans(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 60))
    y = rng.normal(size=n)
    lo = rng.integers(0, n - 1, size=int(rng.integers(1, 6)))
    hi = np.array([int(rng.integers(s + 2, n + 1)) for s in lo])
    values = scan_windows(scan_prefix(y), lo, hi)
    expected = np.concatenate([_scan(y, int(s), int(e)) for s, e in zip(lo, hi)])
    assert values.tobytes() == expected.tobytes()


@given(st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_inner_product_identity(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 50))
    y = rng.normal(size=n)
    s = int(rng.integers(0, n - 2))
    e = int(rng.integers(s + 2, n + 1))
    t = int(rng.integers(s + 1, e))
    assert cusum(y, s, e, t) == pytest.approx(float(np.dot(y[s:e], contrast(s, e, t))), abs=1e-10)


@given(st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_projection_identity(seed):
    # ||x - P(x)||^2 = ||x - mean||^2 - <x, psi>^2
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 80))
    x = rng.normal(size=n) * 3.0
    s, e = 0, n
    d = int(rng.integers(1, n))
    lhs = float(np.sum((x - project(x, s, e, d)) ** 2))
    rhs = float(np.sum((x - x.mean()) ** 2) - np.dot(x, contrast(s, e, d)) ** 2)
    assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)


def test_location_scale_equivariance():
    rng = np.random.default_rng(7)
    y = rng.normal(size=120)
    for a, b in [(2.0, 5.0), (-0.5, 100.0), (1.0, -3.0)]:
        for t in (10, 47, 99):
            assert cusum(a * y + b, 4, 110, t) == pytest.approx(
                a * cusum(y, 4, 110, t), rel=1e-9, abs=1e-9
            )
    scan0 = _scan(y, 0, 120)
    scan1 = _scan(y + 7.5, 0, 120)
    assert np.max(np.abs(scan0 - scan1)) < 1e-10


def test_single_cp_matches_scan():
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = int(rng.integers(6, 60))
        eta = int(rng.integers(2, n - 1))
        kappa = float(rng.choice([0.5, 1.0, 2.5]))
        sig = make_signal(n, [eta], [0.0, kappa])
        s = int(rng.integers(0, eta))
        e = int(rng.integers(eta + 1, n + 1))
        f = evaluate(sig)
        assert single_cp_cusum(sig, s, e) == pytest.approx(
            abs(cusum(f, s, e, eta)), abs=1e-10
        )


@pytest.mark.parametrize("c1", [0.25, 0.5])
def test_straddling_interval_lower_bound(c1):
    # One change point with both margins >= c1 * spacing implies the scan of
    # the mean vector peaks at least at (c1/2) * jump * spacing / sqrt(e - s).
    rng = np.random.default_rng(23)
    for _ in range(40):
        delta = int(rng.integers(4, 40))
        n = int(rng.integers(3 * delta, 6 * delta))
        eta = int(rng.integers(delta, n - delta))
        kappa = float(rng.choice([0.5, 1.0, 3.0]))
        sig = make_signal(n, [eta], [0.0, kappa])
        margin = math.ceil(c1 * delta)
        s = eta - margin
        e = eta + margin
        f = evaluate(sig)
        peak = float(np.max(np.abs(_scan(f, s, e))))
        assert peak >= (c1 / 2) * kappa * delta / math.sqrt(e - s) - 1e-9


def test_long_series_precision():
    # O(1)-per-split scan agrees with direct slice sums at n = 1e6.
    rng = np.random.default_rng(3)
    n = 1_000_000
    y = rng.normal(size=n)
    scan = _scan(y, 0, n)
    for t in rng.integers(1, n - 1, size=40):
        t = int(t)
        assert abs(scan[t - 1] - cusum(y, 0, n, t)) < 1e-10


def test_prefix_sums_compensation():
    rng = np.random.default_rng(17)
    y = rng.normal(size=200_000)
    p = prefix_sums(y)
    for idx in (1, 137, 100_000, 200_000):
        assert p[idx] == pytest.approx(math.fsum(y[:idx].tolist()), abs=1e-10)


@pytest.mark.parametrize("y", [
    [1e308] * 4 + [-1e308] * 4,  # the mean overflows
    [1e308, -1e308, -1e308, 1e308],  # finite prefix sums, a window sum overflows
    [1.5e308, -1.5e308],  # finite window sums, the scan value overflows
])
def test_scan_rejects_observations_whose_partial_sums_overflow(y):
    # With warnings as errors, the check must also keep numpy quiet.
    with pytest.raises(ValueError, match=re.escape("observations too large: their partial sums overflow")):
        scan_prefix(y)


def test_steploc_cusum_is_the_module():
    import types

    import steploc
    import steploc.cusum

    assert isinstance(steploc.cusum, types.ModuleType)
    assert steploc.cusum.scan_windows is scan_windows


@pytest.mark.parametrize("splits", [PASS_POINTS - 1, PASS_POINTS, PASS_POINTS + 1, 3 * PASS_POINTS + 7])
def test_one_window_scan_is_exact_across_slice_boundaries(splits):
    # A window of more than PASS_POINTS splits is scored in slices; the
    # values must not depend on where the slices fall.
    rng = np.random.default_rng(splits)
    n = splits + 40
    y = rng.normal(size=n) + np.repeat([0.0, 1.5], [n // 3, n - n // 3])
    prefix = scan_prefix(y)
    s, e = 17, 17 + splits + 1
    values = _scan_values(prefix, s, e)
    assert values.size == splits
    reference = np.array([cusum(y, s, e, t) for t in range(s + 1, e)])
    assert np.max(np.abs(values - reference)) <= 1e-10
    # The same window between two others, so that it starts and ends
    # inside a slice of a multi-window scan.
    ragged = scan_windows(prefix, np.array([3, s, 0]), np.array([10, e, 5]))
    assert ragged[6:6 + splits].tobytes() == values.tobytes()
    assert ragged[:6].tobytes() == _scan_values(prefix, 3, 10).tobytes()
    assert ragged[6 + splits:].tobytes() == _scan_values(prefix, 0, 5).tobytes()


def test_one_window_scan_holds_no_length_n_temporaries():
    # Besides the values it returns, a scan holds temporaries of at most a
    # slice each, however long the window.
    prefix = scan_prefix(np.random.default_rng(8).normal(size=200_000))
    tracemalloc.start()
    try:
        values = _scan_values(prefix, 0, 200_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < values.nbytes + 16 * PASS_POINTS * 8

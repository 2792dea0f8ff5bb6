import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import hausdorff_brute
from steploc.metrics import EmptySetError, estimate_sigma, hausdorff, localization_report
from steploc.noise import NoiseSpec, sample
from steploc.signal import evaluate, make_signal

point_sets = st.sets(st.integers(1, 60), min_size=1, max_size=8)


def test_hausdorff_examples():
    assert hausdorff({4, 9}, {4, 9}) == 0.0
    assert hausdorff({2, 8}, {3}) == 5.0
    assert hausdorff({3}, {2, 8}) == 5.0


def test_hausdorff_empty_raises():
    with pytest.raises(EmptySetError):
        hausdorff([], [1])
    with pytest.raises(EmptySetError):
        hausdorff([1], [])


@given(point_sets, point_sets)
@settings(max_examples=200, deadline=None)
def test_hausdorff_matches_brute_force_and_symmetry(e1, e2):
    d = hausdorff(e1, e2)
    assert d == hausdorff_brute(e1, e2)
    assert d == hausdorff(e2, e1)
    assert (d == 0.0) == (set(e1) == set(e2))


@given(point_sets, point_sets, point_sets)
@settings(max_examples=200, deadline=None)
def test_hausdorff_triangle_inequality(e1, e2, e3):
    assert hausdorff(e1, e3) <= hausdorff(e1, e2) + hausdorff(e2, e3) + 1e-9


def test_report_exact_match():
    truth = make_signal(100, [30, 60], [0, 1, 0])
    rep = localization_report([30, 60], truth)
    assert rep.k_correct and rep.per_cp_error == (0, 0) and rep.hausdorff == 0.0


def test_report_small_error():
    truth = make_signal(100, [50], [0, 1])
    rep = localization_report([53], truth)
    assert rep.k_correct
    assert rep.per_cp_error == (3,)
    assert rep.hausdorff == 3.0


def test_report_missed_detection():
    truth = make_signal(100, [50], [0, 1])
    rep = localization_report([], truth)
    assert not rep.k_correct
    assert rep.per_cp_error is None
    assert math.isinf(rep.hausdorff)


def test_report_constant_truth():
    truth = make_signal(100, [], [0])
    rep = localization_report([], truth)
    assert rep.k_correct and rep.hausdorff == 0.0
    rep2 = localization_report([10], truth)
    assert not rep2.k_correct and math.isinf(rep2.hausdorff)


def test_report_sorted_order_matching():
    truth = make_signal(100, [20, 80], [0, 1, 0])
    rep = localization_report([25, 70], truth)
    assert rep.per_cp_error == (5, 10)


def test_report_rejects_duplicates():
    truth = make_signal(100, [50], [0, 1])
    with pytest.raises(ValueError):
        localization_report([10, 10], truth)


def test_estimate_sigma_zero_noise():
    assert estimate_sigma(np.full(50, 3.0)) == 0.0
    # one jump: the single nonzero difference is killed by the median
    assert estimate_sigma(evaluate(make_signal(50, [25], [0, 5]))) == 0.0


def test_estimate_sigma_gaussian_calibration():
    rng = np.random.default_rng(2718)
    y = rng.normal(size=100_000)
    assert abs(estimate_sigma(y) - 1.0) <= 0.05


def test_estimate_sigma_robust_to_level_shifts():
    rng = np.random.default_rng(5)
    noise = rng.normal(size=10_000)
    base = estimate_sigma(noise)
    cps = list(range(400, 10_000 - 400, 400))
    levels = [float(i % 2) * 10 for i in range(len(cps) + 1)]
    shifted = noise + evaluate(make_signal(10_000, cps, levels))
    assert abs(estimate_sigma(shifted) - base) <= 0.10 * base


def test_estimate_sigma_needs_two_points():
    with pytest.raises(ValueError):
        estimate_sigma(np.array([1.0]))


def test_estimate_sigma_rejects_an_overflowing_estimate():
    with pytest.raises(ValueError, match="noise-scale estimate"):
        estimate_sigma(np.array([1e308, -1e308] * 10))

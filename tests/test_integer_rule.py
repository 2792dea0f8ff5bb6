"""The one integer rule, ``steploc.cusum.check_integer``, at every entry point
that takes a count or a position: Python and numpy integers are accepted
and stored or returned as Python ints, anything else fails on entry with
the entry point's own message."""

import re

import numpy as np
import pytest

from steploc.cusum import argmax_abs, check_integer, cusum_scan
from steploc.experiments import ExperimentConfig, detect, run_experiment, summarize
from steploc.l0 import Segmentation
from steploc.noise import check_seed
from steploc.serialize import json_dumps
from steploc.signal import PiecewiseSignal, spike_signal, two_point_pair
from steploc.wbs import IntervalSet, min_intervals, sample_intervals


def test_check_integer_returns_a_python_int_within_its_bounds():
    assert type(check_integer(np.int32(4), 1, 4, "unused")) is int
    assert check_integer(np.uint64(2**63), 0, None, "unused") == 2**63
    assert check_integer(0, 0, 0, "unused") == 0


@pytest.mark.parametrize("value", [0, 5, 2.0, np.float64(3.0), "3", None])
def test_check_integer_raises_the_callers_message(value):
    with pytest.raises(ValueError) as caught:
        check_integer(value, 1, 4, "x must lie in [1, %s], got %r", 4, value)
    assert str(caught.value) == f"x must lie in [1, 4], got {value!r}"


def test_check_integer_formats_its_message_only_on_failure():
    # The message takes two arguments and is given none, so formatting it would raise TypeError.
    assert check_integer(3, 1, None, "%s %s") == 3


def _interval_set(v):
    return (IntervalSet(v(10), ((0, 10),)).n, IntervalSet.from_arrays(v(10), [0], [10]).n)


def _sampled(v):
    ivals = sample_intervals(v(10), v(3), v(1))
    return ivals.n, len(ivals.intervals), ivals.seed


def _detected(v):
    cps, params = detect(np.repeat([0.0, 2.0], 10), "wbs", 0.0, spacing=v(5), intervals=v(40),
                         seed=v(3))
    return (*cps, params["intervals"], params["seed"])


def _signals(*signals):
    return tuple(x for sig in signals for x in (sig.n, *sig.change_points))


def _segmentation(v):
    seg = Segmentation(v(10), (v(3), v(8)))
    return seg.n, *seg.boundaries


def _config(v):
    cfg = ExperimentConfig(n=v(100), method="l0", sigma=1.0, base_seed=v(5), replications=v(2),
                           k=v(2), delta=v(30), kappa=1.0)
    return cfg.n, cfg.k, cfg.delta, cfg.replications, cfg.base_seed


def _scanned(v):
    scan = cusum_scan(np.repeat([0.0, 1.0], 4), v(1), v(7))
    return scan.s, scan.e, argmax_abs(scan)[0]


# Each entry point, called with every count and position built by ``v``;
# each returns what it stored or returned for them.
ENTRY_POINTS = {
    "IntervalSet": _interval_set,
    "sample_intervals": _sampled,
    "min_intervals": lambda v: (min_intervals(v(50), v(5)),),
    "detect": _detected,
    "spike_signal": lambda v: _signals(spike_signal(v(10), v(4), 1.0)),
    "two_point_pair": lambda v: _signals(*two_point_pair(10, v(3), v(2), 1.0)),
    "PiecewiseSignal": lambda v: _signals(PiecewiseSignal(v(10), (v(3), v(7)), (0.0, 1.0, 0.0))),
    "Segmentation": _segmentation,
    "ExperimentConfig": _config,
    "cusum_scan": _scanned,
    "check_seed": lambda v: (check_seed(v(7)),),
}


@pytest.mark.parametrize("dtype", [np.int64, np.int32])
@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_numpy_integers_are_accepted_and_kept_as_python_ints(entry, dtype):
    values = ENTRY_POINTS[entry](dtype)
    assert values == ENTRY_POINTS[entry](int)
    assert [type(x) for x in values] == [int] * len(values)


@pytest.mark.parametrize("field, value, message", [
    ("n", 100.5, "n must be a positive integer, got 100.5"),
    ("k", 2.0, "k must be >= 0, got 2.0"),
    ("delta", 25.0, "delta must lie in [1, 100], got 25.0"),
    ("replications", 3.0, "replications must be >= 1, got 3.0"),
])
def test_config_rejects_a_fractional_count_on_entry(field, value, message):
    args = dict(n=100, method="l0", sigma=1.0, base_seed=0, k=2, kappa=1.0)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ExperimentConfig(**{**args, field: value})


def test_a_config_of_numpy_integers_summarizes_as_one_of_python_ints():
    def summary(v):
        cfg = ExperimentConfig(n=v(60), method="l0", sigma=1.0, base_seed=v(3), replications=v(2),
                               k=v(1), delta=v(30), kappa=2.0)
        return json_dumps(summarize(cfg, run_experiment(cfg)))

    assert summary(np.int64) == summary(int)

"""steploc: offline localization of mean shifts in univariate signals.

Two estimators are provided, a penalized least-squares segmentation solved
exactly by dynamic programming (`steploc.l0`) and wild binary segmentation
driven by interval scan statistics (`steploc.wbs`), together with signal
generators, evaluation metrics and a seeded Monte Carlo harness.
"""

from steploc.signal import (
    PiecewiseSignal,
    NoChangePointsError,
    make_signal,
    evaluate,
    min_spacing,
    min_jump,
    snr,
    spike_signal,
    two_point_pair,
)
from steploc.noise import NoiseSpec, sample, subseed
from steploc.l0 import Segmentation, L0Result, solve_l0, recompute_objective, default_lambda
from steploc.wbs import (
    IntervalSet,
    DetectionResult,
    sample_intervals,
    wbs_detect,
    bs_detect,
    default_tau,
    min_intervals,
)
from steploc.metrics import LocalizationReport, hausdorff, localization_report, estimate_sigma
from steploc.experiments import ExperimentConfig, ExperimentRow, run_replication, run_experiment

__version__ = "0.1.0"

__all__ = [
    "PiecewiseSignal",
    "NoChangePointsError",
    "make_signal",
    "evaluate",
    "min_spacing",
    "min_jump",
    "snr",
    "spike_signal",
    "two_point_pair",
    "NoiseSpec",
    "sample",
    "subseed",
    "Segmentation",
    "L0Result",
    "solve_l0",
    "recompute_objective",
    "default_lambda",
    "IntervalSet",
    "DetectionResult",
    "sample_intervals",
    "wbs_detect",
    "bs_detect",
    "default_tau",
    "min_intervals",
    "LocalizationReport",
    "hausdorff",
    "localization_report",
    "estimate_sigma",
    "ExperimentConfig",
    "ExperimentRow",
    "run_replication",
    "run_experiment",
]

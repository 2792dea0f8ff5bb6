"""steploc: offline localization of mean shifts in univariate signals.

Two estimators are provided, a penalized least-squares segmentation solved
exactly by dynamic programming (`steploc.l0`) and wild binary segmentation
driven by interval scan statistics (`steploc.wbs`), together with signal
generators, evaluation metrics and a seeded Monte Carlo harness.
"""

__version__ = "0.1.0"

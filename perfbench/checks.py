"""Per-operation output checks for the benchmark.

Every reference here is computed from the raw data with plain numpy slices
and never calls back into steploc, so a defect in the code under test
cannot also hide in the check.  Each function returns a list of problems;
an empty list means the output passed.
"""

from __future__ import annotations

import json
import math

import numpy as np

# Relative tolerance for agreement between the program's prefix-sum
# arithmetic and the direct slice sums below (float64, n <= 1e5).
RTOL = 1e-8


def change_point_errors(cps, n: int) -> list[str]:
    """Change points must be strictly increasing integers in [1, n - 1]."""
    cps = list(cps)
    errors = []
    if any(not isinstance(c, int) for c in cps):
        errors.append(f"non-integer change point in {cps}")
    elif any(b <= a for a, b in zip(cps, cps[1:])):
        errors.append(f"change points not strictly increasing: {cps}")
    elif cps and not (1 <= cps[0] and cps[-1] <= n - 1):
        errors.append(f"change points outside [1, {n - 1}]: {cps}")
    return errors


def l0_objective(y: np.ndarray, bounds, lam: float) -> float:
    """Penalized SSE of the partition with segment ends ``bounds``."""
    edges = [0, *bounds, y.size]
    sse = 0.0
    for a, b in zip(edges, edges[1:]):
        chunk = y[a:b]
        sse += float(np.sum((chunk - chunk.mean()) ** 2))
    return sse + lam * len(bounds)


def l0_errors(y, lam: float, bounds, truth, objective: float | None = None) -> list[str]:
    """The returned partition is no worse than the true and the empty one.

    ``objective`` is the value the solver reported, checked against a
    direct evaluation of its own partition when given.
    """
    y = np.asarray(y, dtype=np.float64)
    errors = change_point_errors(bounds, y.size)
    if errors:
        return errors
    got = l0_objective(y, bounds, lam)
    tol = RTOL * max(1.0, abs(got))
    if objective is not None and abs(objective - got) > tol:
        errors.append(f"reported objective {objective!r} != recomputed {got!r}")
    for label, ref in (("true", truth), ("empty", ())):
        ref_value = l0_objective(y, ref, lam)
        if got > ref_value + tol:
            errors.append(f"objective {got!r} worse than the {label} partition's {ref_value!r}")
    return errors


def scan_value(y: np.ndarray, s: int, e: int, b: int) -> float:
    """Scan statistic of window (s, e] at split b, from direct slice sums."""
    left = float(np.sum(y[s:b]))
    right = float(np.sum(y[b:e]))
    span = e - s
    return math.sqrt((e - b) / (span * (b - s))) * left - math.sqrt((b - s) / (span * (e - b))) * right


def wbs_errors(y, tau: float, change_points, detections) -> list[str]:
    """Each detection's score re-derives from its window and clears tau."""
    y = np.asarray(y, dtype=np.float64)
    n = y.size
    errors = change_point_errors(change_points, n)
    if sorted(d.b for d in detections) != list(change_points):
        errors.append(f"diagnostics {[d.b for d in detections]} do not match {list(change_points)}")
    for d in detections:
        if not (0 <= d.s < d.b < d.e <= n):
            errors.append(f"detection {d} has no valid window")
            continue
        ref = abs(scan_value(y, d.s, d.e, d.b))
        if abs(ref - d.a) > RTOL * max(1.0, ref):
            errors.append(f"detection at {d.b}: score {d.a!r}, reference {ref!r}")
        if not d.a > tau:
            errors.append(f"detection at {d.b}: score {d.a!r} does not exceed tau {tau!r}")
    return errors


def _hausdorff(est, truth) -> float:
    if not est and not truth:
        return 0.0
    if not est or not truth:
        return math.inf
    one = max(min(abs(a - b) for b in truth) for a in est)
    two = max(min(abs(a - b) for a in est) for b in truth)
    return float(max(one, two))


def _same(a: float, b: float) -> bool:
    return (math.isnan(a) and math.isnan(b)) or a == b


def row_errors(row, est, truth) -> list[str]:
    """An ExperimentRow agrees with the estimate it was scored from."""
    est, truth = sorted(est), list(truth)
    k_correct = len(est) == len(truth)
    if k_correct:
        max_err = float(max((abs(a - b) for a, b in zip(est, truth)), default=0))
    else:
        max_err = math.nan
    expected = (len(truth), len(est), k_correct, max_err, _hausdorff(est, truth))
    got = (row.k_true, row.k_est, row.k_correct, row.max_err, row.hausdorff)
    if not all(_same(float(a), float(b)) for a, b in zip(expected, got)):
        return [f"row (k_true, k_est, k_correct, max_err, hausdorff) = {got}, expected {expected}"]
    return []


def detect_errors(stdout: str, n: int, method: str) -> tuple[dict | None, list[str]]:
    """``steploc detect`` printed one JSON document with valid change points."""
    try:
        doc = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return None, [f"stdout is not JSON: {exc}"]
    if not isinstance(doc, dict) or not isinstance(doc.get("change_points"), list):
        return None, ["detect output has no change_points list"]
    errors = []
    if doc.get("method") != method or doc.get("n") != n:
        errors.append(f"detect output says method={doc.get('method')!r} n={doc.get('n')!r}")
    errors += change_point_errors(doc["change_points"], n)
    return doc, errors


def rate_errors(csv_text: str, summary_text: str, reps: int, method: str) -> list[str]:
    """``steploc rate`` printed one row per replication and a sane summary."""
    lines = csv_text.splitlines()
    errors = []
    if not lines or lines[0] != "rep,snr,method,k_true,k_est,k_correct,max_err,hausdorff,ms":
        errors.append(f"unexpected CSV header {lines[:1]}")
    rows = [line.split(",") for line in lines[1:]]
    if [r[0] for r in rows] != [str(i) for i in range(reps)]:
        errors.append(f"expected reps 0..{reps - 1}, got {[r[0] for r in rows]}")
    if any(len(r) != 9 or r[2] != method for r in rows):
        errors.append("malformed CSV row")
    try:
        fractions = json.loads(summary_text)["rate_fractions"]
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        return errors + [f"summary has no rate_fractions: {exc!r}"]
    values = [fractions[c] for c in sorted(fractions, key=float)]
    if any(not 0.0 <= v <= 1.0 for v in values) or values != sorted(values):
        errors.append(f"rate fractions not a non-decreasing share: {fractions}")
    return errors

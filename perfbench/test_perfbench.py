"""Tests of the benchmark itself: ``python3 -m pytest perfbench``.

A tiny-size smoke run of every workload, traced and untraced, must print
every metric that ``BENCHMARK.json`` names, with its unit; corrupted
outputs must count as failed operations.
"""

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from steploc.l0 import solve_l0  # noqa: E402
from steploc.wbs import sample_intervals, wbs_detect  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_prints_every_metric_with_unit(workload, trace):
    proc = _bench(ROOT, "--workload", workload, "--seed", "7", "--seconds", "0.2",
                  "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, unit in expected.items():
        value = result["metrics"][name]["value"]
        assert isinstance(value, (int, float)) and math.isfinite(value)
        assert any(line.split()[:1] == [name] and line.endswith(" " + unit) for line in lines)
    assert any(line.startswith("output_digest sha256:") for line in lines)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work", "out", "__pycache__"))
    proc = _bench(tmp_path, "--workload", "mc-l0", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


@pytest.fixture
def noisy_step():
    rng = np.random.default_rng(3)
    y = np.r_[np.zeros(100), np.full(100, 3.0)] + rng.normal(size=200)
    return y, (100,)


def test_l0_check_accepts_the_solver_and_rejects_a_worse_partition(noisy_step):
    y, truth = noisy_step
    res = solve_l0(y, 2 * math.log(y.size))
    assert checks.l0_errors(y, res.lam, res.segmentation.boundaries, truth, res.objective) == []
    assert checks.l0_errors(y, res.lam, (37,), truth)
    assert checks.l0_errors(y, res.lam, res.segmentation.boundaries, truth, res.objective + 1.0)


def test_wbs_check_rejects_a_wrong_score_or_split(noisy_step):
    y, _ = noisy_step
    tau = 2.0 * math.sqrt(math.log(y.size))
    res = wbs_detect(y, sample_intervals(y.size, 100, seed=5), tau)
    dets = res.per_cp_diagnostics
    assert dets and checks.wbs_errors(y, tau, res.change_points, dets) == []
    wrong_a = (dataclasses.replace(dets[0], a=dets[0].a * 1.01),) + dets[1:]
    assert checks.wbs_errors(y, tau, res.change_points, wrong_a)
    assert checks.wbs_errors(y, dets[0].a + 1.0, res.change_points, dets)
    assert checks.change_point_errors([120, 100], 200)
    assert checks.change_point_errors([0, 100], 200)


def test_corrupted_outputs_count_as_failures(tmp_path):
    w = workloads.build("mc-wbs", tiny=True)
    w.prepare(7, tmp_path)
    try:
        loop = run.Loop(w)
        loop.execute(0)
        assert loop.failed == 0

        honest = w.run

        def corrupt_score(key):
            row, (args, res) = honest(key)
            dets = tuple(dataclasses.replace(d, a=d.a + 0.5) for d in res.per_cp_diagnostics)
            return row, (args, dataclasses.replace(res, per_cp_diagnostics=dets))

        def wrong_count(key):
            row, seen = honest(key)
            return dataclasses.replace(row, k_est=row.k_est + 1), seen

        for bad in (corrupt_score, wrong_count):
            w.run = bad
            before = loop.failed
            loop.execute(1)
            assert loop.failed == before + 1
    finally:
        w.close()


def test_cli_check_rejects_unsorted_points_bad_exit_and_changed_bytes(tmp_path):
    w = workloads.build("cli-mix", tiny=True)
    w.prepare(7, tmp_path)
    key = next(j for j, r in enumerate(w.cycle) if r.kind == "bs-100k")
    code, stdout, stderr, summary = w.run(key)
    assert w.check(key, (code, stdout, stderr, summary)) == []
    doc = json.loads(stdout)
    doc["change_points"] = [5, 3]
    assert w.check(key, (0, json.dumps(doc), "", ""))
    assert w.check(key, (3, stdout, "input error", ""))
    assert w.check(key, (0, stdout.replace("}", " }"), "", ""))


def test_missing_boundary_is_reported_absent_not_fatal(monkeypatch):
    import steploc.cli

    monkeypatch.delattr(steploc.cli, "read_series")
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["steploc.cli.read_series"]
    values, absent = tracing.layer_metrics(tracer, traced_ops=1, requested_reps=0, overhead_ratio=1.0)
    assert absent == ["cli.read_series_s", "cli.values_parsed"]
    assert set(values) == set(tracing.LAYER_METRICS) - set(absent)

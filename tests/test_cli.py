import contextlib
import hashlib
import io
import itertools
import json
import math
import re
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import steploc.experiments
from steploc import cli
from steploc.cli import InputParseError, build_parser, main, read_series
from steploc.serialize import fmt_float, json_dumps


def run_cli(*args, input_text=None):
    return subprocess.run(
        [sys.executable, "-m", "steploc.cli", *args],
        capture_output=True,
        text=True,
        input=input_text,
    )


def test_detect_zeros_file(tmp_path):
    path = tmp_path / "zeros.txt"
    path.write_text("".join("0.0\n" for _ in range(100)))
    proc = run_cli("detect", str(path), "--method", "wbs")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["change_points"] == []
    assert doc["n"] == 100
    assert doc["sigma_hat"] == 0


def test_detect_noiseless_step_l0(tmp_path):
    path = tmp_path / "step.txt"
    values = [0.0] * 50 + [5.0] * 50
    path.write_text("".join(f"{v}\n" for v in values))
    proc = run_cli("detect", str(path), "--method", "l0")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["change_points"] == [50]


def test_detect_reports_nan_line(tmp_path):
    path = tmp_path / "bad.txt"
    lines = ["1.0"] * 6 + ["nan"] + ["2.0"] * 5
    path.write_text("\n".join(lines) + "\n")
    proc = run_cli("detect", str(path), "--method", "l0")
    assert proc.returncode == 3
    assert "line 7" in proc.stderr


def test_detect_reports_garbage_line(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("y\n1.0\n2.0\nhello\n")
    proc = run_cli("detect", str(path), "--method", "l0")
    assert proc.returncode == 3
    assert "line 4" in proc.stderr


def test_detect_comments_and_header_skipped(tmp_path):
    path = tmp_path / "series.csv"
    path.write_text("# a comment\ny\n1.0\n2.0\n1.5, # trailing\n9.0\n")
    proc = run_cli("detect", str(path), "--method", "bs", "--tau", "0.1")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["n"] == 4


def test_usage_error_exit_code():
    proc = run_cli("detect", "missing-file", "--method", "nope")
    assert proc.returncode == 2
    proc = run_cli("sweep", "--n", "100", "--sigma", "1.0", "--method", "l0",
                   "--snr-grid", "abc", "--k", "1")
    assert proc.returncode == 2


def test_missing_file_is_input_error():
    proc = run_cli("detect", "does-not-exist.txt", "--method", "l0")
    assert proc.returncode == 3


@pytest.mark.parametrize("kind", ["directory", "not-utf-8"])
def test_unreadable_input_is_input_error(tmp_path, capsys, kind):
    if kind == "directory":
        path = tmp_path
    else:
        path = tmp_path / "y.txt"
        path.write_bytes(b"1.0\n\xff\xfe2.0\n3.0\n")
    assert main(["detect", str(path), "--method", "l0"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("steploc: input error: ")


def test_simulate_round_trip(tmp_path):
    sim = run_cli("simulate", "--n", "100", "--k", "1", "--kappa", "2", "--sigma", "0",
                  "--seed", "1")
    assert sim.returncode == 0
    truth = json.loads(sim.stdout.splitlines()[0].split("signal:", 1)[1])
    assert truth["change_points"] == [50]

    det = run_cli("detect", "-", "--method", "l0", input_text=sim.stdout)
    assert det.returncode == 0
    assert json.loads(det.stdout)["change_points"] == truth["change_points"]


def test_simulate_values_match_signal_exactly():
    sim = run_cli("simulate", "--n", "12", "--k", "2", "--delta", "4", "--kappa", "1.5",
                  "--sigma", "0", "--seed", "3")
    values = [float(v) for v in sim.stdout.splitlines()[3:]]
    assert values == [0.0] * 4 + [1.5] * 4 + [0.0] * 4


def test_byte_identical_runs_and_thread_counts(tmp_path):
    args = ("sweep", "--n", "200", "--k", "1", "--sigma", "1.0", "--method", "l0",
            "--snr-grid", "2,8", "--reps", "5", "--seed", "11")
    one = run_cli(*args, "--jobs", "1")
    two = run_cli(*args, "--jobs", "4")
    again = run_cli(*args, "--jobs", "1")
    assert one.returncode == 0
    assert one.stdout == two.stdout == again.stdout


def test_sweep_one_row_per_grid_point(tmp_path):
    out = tmp_path / "rows.csv"
    summary = tmp_path / "summary.json"
    proc = run_cli("sweep", "--n", "120", "--k", "1", "--sigma", "1.0", "--method", "l0",
                   "--snr-grid", "1,4,16", "--reps", "1", "--seed", "2",
                   "--out", str(out), "--summary", str(summary))
    assert proc.returncode == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 4  # header + 3 grid points x 1 rep
    doc = json.loads(summary.read_text())
    assert doc["rows"] == 3


def test_rate_subcommand(tmp_path):
    summary = tmp_path / "rate.json"
    proc = run_cli("rate", "--n", "200", "--k", "1", "--kappa", "2", "--sigma", "1.0",
                   "--method", "l0", "--reps", "10", "--seed", "4",
                   "--c-eps-grid", "1,8", "--out", str(tmp_path / "r.csv"),
                   "--summary", str(summary))
    assert proc.returncode == 0
    doc = json.loads(summary.read_text())
    assert set(doc["rate_fractions"]) == {"1", "8"}
    assert 0.0 <= doc["rate_fractions"]["1"] <= 1.0


@pytest.mark.parametrize("method, digest", [
    pytest.param("l0", "1d79648bbada8fc69000bc98131d24b7a85f431f64a23ece7e2c5c0bcd7db839", id="l0"),
    pytest.param("wbs", "f1bd04dd5414fabfc8dff4273629b9df9d5753280e2c488d1b8f101e39450310", id="wbs"),
])
def test_rate_runs_each_replication_once(tmp_path, capsys, monkeypatch, method, digest):
    replicate = steploc.experiments._replicate
    reps_run = []

    def counting(cfg, rep):
        reps_run.append(rep)
        return replicate(cfg, rep)

    monkeypatch.setattr(steploc.experiments, "_replicate", counting)
    summary = tmp_path / "rate.json"
    assert main(["rate", "--n", "300", "--k", "2", "--kappa", "2", "--sigma", "1",
                 "--method", method, "--reps", "6", "--jobs", "2", "--seed", "31",
                 "--summary", str(summary)]) == 0
    assert sorted(reps_run) == list(range(6))
    # The digests pin the CSV and the summary (rows and rate fractions) as
    # the rate check gave them when it ran the replications a second time.
    out = capsys.readouterr().out.encode() + summary.read_bytes()
    assert hashlib.sha256(out).hexdigest() == digest


def test_rate_without_change_points_fails_before_replicating(capsys, monkeypatch):
    def replicate(cfg, rep):
        raise AssertionError("a replication ran")

    monkeypatch.setattr(steploc.experiments, "_replicate", replicate)
    assert main(["rate", "--n", "200", "--k", "0", "--sigma", "1", "--method", "l0",
                 "--reps", "100"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "rate check needs at least one change point" in captured.err


@pytest.mark.parametrize("grid", ["1,2,-1", "1,inf", "1,nan", "1,0"])
def test_sweep_rejects_a_bad_grid_value_before_replicating(capsys, monkeypatch, grid):
    def replicate(cfg, rep):
        raise AssertionError("a replication ran")

    monkeypatch.setattr(steploc.experiments, "_replicate", replicate)
    assert main(["sweep", "--n", "200", "--k", "1", "--sigma", "1", "--method", "l0",
                 f"--snr-grid={grid}", "--reps", "20"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "snr grid values must be positive and finite" in captured.err


@pytest.mark.parametrize("grid", ["-1,2", "nan", "1,inf", "2,-inf"])
def test_rate_rejects_a_negative_or_non_finite_multiplier_before_replicating(
    capsys, monkeypatch, grid
):
    def replicate(cfg, rep):
        raise AssertionError("a replication ran")

    monkeypatch.setattr(steploc.experiments, "_replicate", replicate)
    assert main(["rate", "--n", "200", "--k", "1", "--kappa", "2", "--sigma", "1",
                 "--method", "l0", f"--c-eps-grid={grid}", "--reps", "20"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "c_eps grid values must be finite and >= 0" in captured.err


def test_detect_json_formatting(tmp_path):
    path = tmp_path / "y.txt"
    rng = np.random.default_rng(0)
    path.write_text("".join(f"{v}\n" for v in rng.normal(size=50)))
    proc = run_cli("detect", str(path), "--method", "l0", "--lambda", "8.0")
    doc = json.loads(proc.stdout)
    assert set(doc) == {"method", "n", "sigma_hat", "params", "change_points"}
    # floats carry 17 significant digits
    sigma_text = proc.stdout.split('"sigma_hat": ')[1].split(",")[0]
    assert float(sigma_text) == doc["sigma_hat"]
    assert len(sigma_text.replace(".", "").replace("-", "").lstrip("0")) >= 16


def test_fmt_float_17_digits():
    assert fmt_float(1 / 3) == "0.33333333333333331"
    assert fmt_float(float("nan")) == "nan"
    assert fmt_float(float("inf")) == "inf"
    assert fmt_float(2.0) == "2"


def test_json_dumps_deterministic_and_valid():
    doc = {"b": [1.5, float("inf")], "a": {"x": None, "y": True}}
    text = json_dumps(doc)
    assert text == '{"b": [1.5, "inf"], "a": {"x": null, "y": true}}'
    json.loads(text)


def test_json_dumps_escapes_every_control_character():
    text = "".join(map(chr, range(0x20))) + '"\\\x7f é 😀'
    doc = {text: [text, "plain"]}
    assert json.loads(json_dumps(doc)) == doc


def test_main_returns_zero(tmp_path, capsys):
    path = tmp_path / "y.txt"
    path.write_text("1.0\n1.0\n9.0\n9.0\n")
    assert main(["detect", str(path), "--method", "l0", "--lambda", "1.0"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["change_points"] == [2]


@pytest.mark.parametrize("flag", ["--c-lambda", "--c-tau"])
@pytest.mark.parametrize("value", ["0", "-1"])
def test_detect_rejects_nonpositive_multiplier(tmp_path, capsys, flag, value):
    path = tmp_path / "y.txt"
    path.write_text("".join(f"{v}\n" for v in np.random.default_rng(0).normal(size=40)))
    method = "l0" if flag == "--c-lambda" else "wbs"
    assert main(["detect", str(path), "--method", method, flag, value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "must be positive" in captured.err


@pytest.mark.parametrize("method", ["l0", "bs", "wbs"])
def test_detect_default_parameters_are_scale_equivariant(tmp_path, capsys, method):
    # Scaling by a power of two is exact, so sigma_hat, the default
    # lambda/tau and every cost scale exactly and the change points stay.
    y = np.repeat([0.0, 3.0, 0.0], [60, 50, 90]) + np.random.default_rng(1).normal(size=200)
    found = []
    for scale in (1.0, 2.0**-30):
        path = tmp_path / "y.txt"
        path.write_text("".join(f"{v!r}\n" for v in (y * scale).tolist()))
        assert main(["detect", str(path), "--method", method]) == 0
        doc = json.loads(capsys.readouterr().out)
        found.append(doc["change_points"])
    assert found[0] == found[1]
    assert found[0]


@pytest.mark.parametrize("kind", ["detect-out-directory", "rate-summary-missing-directory",
                                  "simulate-out-directory"])
def test_unwritable_output_is_output_error(tmp_path, capsys, kind):
    series = tmp_path / "y.txt"
    series.write_text("1.0\n1.0\n9.0\n9.0\n")
    argv = {
        "detect-out-directory": ["detect", str(series), "--method", "l0", "--out", str(tmp_path)],
        "rate-summary-missing-directory": [
            "rate", "--n", "100", "--k", "1", "--kappa", "2", "--sigma", "1", "--method", "l0",
            "--reps", "2", "--out", str(tmp_path / "r.csv"),
            "--summary", str(tmp_path / "missing" / "x.json")],
        "simulate-out-directory": ["simulate", "--n", "20", "--k", "1", "--kappa", "2",
                                   "--sigma", "1", "--out", str(tmp_path)],
    }[kind]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("steploc: output error: ")


@pytest.mark.parametrize("method", ["wbs", "bs"])
def test_detect_rejects_infinite_tau(tmp_path, capsys, method):
    path = tmp_path / "y.txt"
    path.write_text("".join(f"{v}\n" for v in [0.0] * 20 + [3.0] * 20))
    assert main(["detect", str(path), "--method", method, "--tau", "inf"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "tau must be positive and finite" in captured.err


@pytest.mark.parametrize("explicit", [False, True], ids=["default", "explicit"])
@pytest.mark.parametrize("method", ["l0", "bs", "wbs"])
@pytest.mark.parametrize("sigma", ["-1", "nan", "inf"])
def test_detect_rejects_a_negative_or_non_finite_sigma(tmp_path, capsys, sigma, method, explicit):
    path = tmp_path / "y.txt"
    path.write_text("".join(f"{v}\n" for v in [0.0] * 20 + [3.0] * 20))
    param = ["--lambda" if method == "l0" else "--tau", "1"] if explicit else []
    assert main(["detect", str(path), "--method", method, "--sigma", sigma, *param]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"steploc: error: sigma must be finite and >= 0, got {float(sigma)!r}\n"


_BOM_SERIES ="5\n0\n0\n0\n3\n3\n3\n"


@pytest.mark.parametrize("header", ["", "y\n"], ids=["no-header", "header"])
@pytest.mark.parametrize("source", ["file", "stdin"])
def test_detect_drops_a_leading_byte_order_mark(tmp_path, capsys, monkeypatch, header, source):
    docs = []
    for text in (header + _BOM_SERIES, "\ufeff" + header + _BOM_SERIES):
        if source == "file":
            path = tmp_path / "y.txt"
            path.write_bytes(text.encode("utf-8"))
            arg = str(path)
        else:
            monkeypatch.setattr(sys, "stdin", io.StringIO(text))
            arg = "-"
        assert main(["detect", arg, "--method", "l0", "--lambda", "1"]) == 0
        docs.append(json.loads(capsys.readouterr().out))
    assert docs[0] == docs[1]
    assert docs[1]["n"] == 7
    assert docs[1]["change_points"] == [1, 4]


@pytest.mark.parametrize("command", ["rate", "sweep"])
@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_jobs_below_one_is_rejected(capsys, command, jobs):
    argv = {
        "rate": ["rate", "--n", "100", "--k", "1", "--kappa", "2", "--sigma", "1"],
        "sweep": ["sweep", "--n", "100", "--k", "1", "--sigma", "1", "--snr-grid", "2"],
    }[command]
    assert main([*argv, "--method", "l0", "--reps", "2", "--jobs", jobs]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "jobs must be at least 1" in captured.err


@pytest.mark.parametrize("extra", [[], ["--lambda", "1"]])
def test_detect_rejects_observations_whose_squares_overflow(tmp_path, extra):
    path = tmp_path / "big.txt"
    path.write_text("0\n0\n0\n1e200\n1e200\n1e200\n")
    proc = run_cli("detect", str(path), "--method", "l0", *extra)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "steploc: error: observations too large: their sum of squares overflows\n"


def test_main_builds_its_parser_once(tmp_path, capsys, monkeypatch):
    # Consecutive in-process calls share one parser and give the bytes a
    # fresh parser gives: a detection, a usage error, then a rate check.
    path = tmp_path / "y.txt"
    rng = np.random.default_rng(5)
    path.write_text("".join(f"{v:.17g}\n" for v in rng.normal(size=200) + np.repeat([0.0, 3.0], 100)))
    calls = [
        ["detect", str(path), "--method", "l0"],
        ["detect", str(path), "--method", "nope"],
        ["rate", "--n", "120", "--k", "1", "--kappa", "2", "--sigma", "1", "--method", "l0",
         "--reps", "3", "--seed", "9"],
    ]

    def run(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    fresh = []
    for argv in calls:
        cli._parser.cache_clear()
        fresh.append(run(argv))
    assert [code for code, _, _ in fresh] == [0, 2, 0]

    built = []
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build_parser())
    cli._parser.cache_clear()
    assert [run(argv) for argv in calls + calls] == fresh + fresh
    assert built == [1]


def _line_parser(stream):
    """read_series as it was before the one-sweep conversion: one line at a
    time from the stream, every line through the same rules."""
    values = []
    header_allowed = True
    lines = iter(stream)
    head = [next(lines, "").removeprefix("\ufeff")]
    for line_no, raw in enumerate(itertools.chain(head, lines), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        token = line.rstrip(",").strip()
        try:
            value = float(token)
        except ValueError:
            if header_allowed:
                header_allowed = False
                continue
            raise InputParseError(line_no, f"not a number: {token!r}") from None
        header_allowed = False
        if not math.isfinite(value):
            raise InputParseError(line_no, f"non-finite value: {token}")
        values.append(value)
    if len(values) < 2:
        raise InputParseError(0, f"need at least 2 finite values, got {len(values)}")
    return np.asarray(values, dtype=np.float64)


_NUMBER = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-1000, 1000).map(str),
)
# "\x0c", "\x1c" and "\x85" are whitespace to str.strip and line breaks to
# str.splitlines, but not to a text stream.
_DECORATED = st.tuples(
    st.sampled_from(["", " ", "\t", "\x0c"]),
    _NUMBER,
    st.sampled_from(["", " ", ",", " ,", " # note", "\x85", "\x1c"]),
).map("".join)
_OTHER = st.sampled_from(
    ["", "   ", "# comment", "#", "y", "value,", "nan", "inf", "-Infinity", "1e999",
     "1.5.2", "1,2", "--1", "abc", "1_000"]
)


@given(
    lines=st.lists(st.one_of(_NUMBER, _DECORATED, _NUMBER, _OTHER), max_size=30),
    newline=st.sampled_from(["\n", "\r\n", "\r"]),
    bom=st.booleans(),
    final_newline=st.booleans(),
    chunk=st.sampled_from([1, 2, 5, cli.READ_CHUNK]),
)
@settings(max_examples=400, deadline=None)
def test_read_series_matches_the_line_parser(lines, newline, bom, final_newline, chunk):
    text = ("\ufeff" if bom else "") + newline.join(lines) + (newline if final_newline else "")
    data = text.encode("utf-8")

    def parse(parser):
        stream = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")
        try:
            return parser(stream).tobytes()
        except InputParseError as exc:
            return str(exc), exc.line_no

    saved = cli.READ_CHUNK
    cli.READ_CHUNK = chunk
    try:
        assert parse(read_series) == parse(_line_parser)
    finally:
        cli.READ_CHUNK = saved


def _pinned_calls(tmp_path):
    """The argv lists of the pinned corpus: every detect option set on three
    series, then sweep and rate for each method."""
    rng = np.random.default_rng(3)
    noisy = np.repeat([0.0, 2.5, -1.0, 1.0], [120, 90, 110, 80]) + rng.normal(size=400)
    series = {
        "noisy": "".join(f"{v!r}\n" for v in noisy.tolist()),
        "zeros": "0\n" * 60,
        "step": "0\n" * 40 + "5\n" * 40,
    }
    options = [
        [],
        ["--sigma", "0.7", "--c-lambda", "3", "--c-tau", "1.2"],
        ["--lambda", "4", "--tau", "2.5"],
        ["--sigma", "0"],
        ["--intervals", "50", "--max-len", "40", "--seed", "9"],
        ["--delta-hint", "60"],
    ]
    calls = []
    for name, text in series.items():
        path = tmp_path / name
        path.write_text(text)
        for method in ("l0", "bs", "wbs"):
            calls.extend(["detect", str(path), "--method", method, *extra] for extra in options)
    for method in ("l0", "bs", "wbs"):
        mc = ["--n", "200", "--k", "2", "--method", method, "--reps", "3", "--seed", "5"]
        calls += [
            ["sweep", *mc, "--sigma", "1", "--snr-grid", "1,4"],
            ["sweep", *mc, "--sigma", "1", "--snr-grid", "2", "--jobs", "2",
             "--c-tau", "2", "--intervals", "100", "--max-len", "50"],
            ["rate", *mc, "--kappa", "2", "--sigma", "1", "--c-eps-grid", "1,4"],
            ["rate", *mc, "--kappa", "2", "--sigma", "0"],
            ["rate", *mc, "--kappa", "2", "--sigma", "0", "--lambda", "1", "--tau", "1"],
        ]
    return calls


def test_cli_bytes_are_pinned(tmp_path, capsys):
    # Exit code, stdout and stderr of each call, as the CLI gave them when
    # detect and the harness each resolved their parameters on their own.
    digest = hashlib.sha256()
    summary = tmp_path / "summary.json"
    for argv in _pinned_calls(tmp_path):
        if argv[0] == "rate":
            argv = [*argv, "--summary", str(summary)]
        code = main(argv)
        captured = capsys.readouterr()
        digest.update(f"{code}\n{captured.out}\n{captured.err}\n".encode())
        if argv[0] == "rate" and code == 0:
            digest.update(summary.read_bytes())
    assert digest.hexdigest() == "5f94cf5342e6394df8e5525f0e2e620bbe1d3b3be04079f3b388688823957539"


def _readme_commands():
    """The argv of each ``steploc`` line in README's sh blocks, with
    continuations joined, output redirection dropped and each value of the
    block's loop variables substituted."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    for block in re.findall(r"```sh\n(.*?)```", text, re.S):
        loops = re.findall(r"for (\w+) in ([^;]+); do", block)
        block = block.replace("\\\n", " ").replace("> /dev/null", "")
        for line in block.splitlines():
            if shlex.split(line, comments=True)[:1] != ["steploc"]:
                continue
            for values in itertools.product(*(vals.split() for _, vals in loops)):
                command = line
                for (var, _), value in zip(loops, values):
                    command = command.replace(f"${var}", value)
                yield shlex.split(command, comments=True)[1:]


def test_readme_examples_parse():
    commands = list(_readme_commands())
    assert {argv[0] for argv in commands} == {"detect", "simulate", "sweep", "rate"}
    parser = build_parser()
    for argv in commands:
        assert "$" not in " ".join(argv)
        parser.parse_args(argv)


@pytest.mark.parametrize("method", ["l0", "bs", "wbs"])
def test_detect_rejects_a_noise_scale_estimate_that_overflows(tmp_path, method):
    path = tmp_path / "huge.txt"
    path.write_text("1e308\n-1e308\n" * 20)
    proc = run_cli("detect", str(path), "--method", method)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("steploc: error: the noise-scale estimate")
    assert "--sigma" in proc.stderr and "Warning" not in proc.stderr


@pytest.mark.parametrize("method", ["bs", "wbs"])
def test_detect_keeps_overflow_warnings_off_stderr(tmp_path, method):
    # One difference overflows; the median, and so sigma_hat, stays finite.
    values = np.random.default_rng(1).normal(size=40)
    values[20:22] = 1e308, -1e308
    path = tmp_path / "pair.txt"
    path.write_text("".join(f"{v!r}\n" for v in values.tolist()))
    proc = run_cli("detect", str(path), "--method", method)
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert math.isfinite(json.loads(proc.stdout)["sigma_hat"])


@pytest.mark.parametrize("method", ["l0", "bs", "wbs"])
def test_detect_on_quantized_noise_keeps_a_positive_scale(tmp_path, capsys, method):
    # More than half of the first differences are 0, so their median is 0;
    # the scale falls back to their 75th percentile.
    y = np.round(0.4 * np.random.default_rng(3).normal(size=1000))
    y[500:] += 1
    path = tmp_path / "quantized.txt"
    path.write_text("".join(f"{v!r}\n" for v in y.tolist()))
    assert main(["detect", str(path), "--method", method]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["sigma_hat"] == pytest.approx(0.615, abs=5e-4)
    assert doc["change_points"] == [500]


@st.composite
def _fuzz_series(draw):
    """Finite series of at most 200 values: small integers, halves or
    Gaussian floats, with a few large magnitudes (up to 1e150) mixed in."""
    n = draw(st.integers(1, 200))
    kind = draw(st.sampled_from(["integers", "halves", "gaussian"]))
    if kind == "gaussian":
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        y = rng.normal(scale=draw(st.sampled_from([1e-3, 1.0, 1e3])), size=n)
    else:
        ints = np.array(draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n)), dtype=np.float64)
        y = ints if kind == "integers" else ints / 2
    big = st.sampled_from([1e150, -1e150, 1e100, -1e40, 1e8])
    for i, v in draw(st.lists(st.tuples(st.integers(0, n - 1), big), max_size=3)):
        y[i] = v
    return y


def _detect_bytes(path, method):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(["detect", str(path), "--method", method])
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("method", ["l0", "bs", "wbs"])
@given(y=_fuzz_series())
@settings(max_examples=60, deadline=None)
def test_detect_fuzz_exits_cleanly_with_sorted_in_range_output(method, y):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "y.txt"
        path.write_text("".join(f"{v!r}\n" for v in y.tolist()))
        first = _detect_bytes(path, method)
        assert _detect_bytes(path, method) == first
    code, out, _ = first
    assert code in (0, 2, 3)
    if code == 0:
        cps = json.loads(out)["change_points"]
        assert all(a < b for a, b in zip(cps, cps[1:]))
        assert all(1 <= c <= y.size - 1 for c in cps)

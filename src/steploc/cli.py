"""Command-line interface: detect change points in a series file, or run
seeded simulations and Monte Carlo sweeps.

Exit codes: 0 on success, 2 on usage/configuration errors and when a
result cannot be written to its ``--out``/``--summary`` path (reported as
``steploc: output error``), 3 when the input series cannot be read or
parsed (``steploc: input error``).  All randomness flows from ``--seed``
(default 1729, fixed rather than drawn from entropy, so documented example
invocations reproduce exactly), and all emitted floats carry 17
significant digits, except in the ``# signal:`` header of ``simulate``,
which is ``json.dumps`` output (Python's shortest round-trip repr);
repeated invocations are byte-identical.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import itertools
import math
import sys

import numpy as np

import steploc.l0
import steploc.wbs
from steploc.experiments import (
    METHODS,
    ExperimentConfig,
    check_rate_inputs,
    detect,
    draw_replication,
    rate_check,
    run_experiment,
    summarize,
    sweep_snr,
    write_csv,
)
from steploc.metrics import estimate_sigma
from steploc.noise import FAMILIES
from steploc.serialize import fmt_float, json_dumps
from steploc.signal import signal_to_json

# Unused here, but perfbench/tracing.py wraps them in this module (ROADMAP: "One instrument").
from steploc.l0 import solve_l0  # noqa: F401
from steploc.wbs import bs_detect, sample_intervals, wbs_detect  # noqa: F401

__all__ = ["main", "read_series", "InputParseError"]

DEFAULT_SEED = 1729

# Lines converted per sweep by read_series after the first value.
READ_CHUNK = 4096


class InputError(Exception):
    """The input series could not be opened, decoded or parsed."""


class OutputError(Exception):
    """A result could not be written to its output path."""


class InputParseError(InputError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def read_series(stream) -> np.ndarray:
    """Parse one numeric series: one value per line, '#' comments allowed,
    a single leading non-numeric header line is skipped.  One leading
    U+FEFF (a UTF-8 byte order mark) is dropped, so it never turns the
    first value into a header.

    The line rules find the first value.  The lines after it are taken
    ``READ_CHUNK`` at a time: when each is one finite number, numpy converts
    the chunk in one call, by ``float``'s rules; otherwise the line rules walk
    the chunk, which gives the same values or reports the faulty line."""
    lines = iter(stream)
    head = next(lines, "").removeprefix("\ufeff")
    first = next(_line_values(itertools.chain([head], lines)), None)
    if first is None:
        raise InputParseError(0, "need at least 2 finite values, got 0")
    line_no, value = first
    parts = [np.array([value])]
    while chunk := list(itertools.islice(lines, READ_CHUNK)):
        try:
            part = np.array(chunk, dtype=np.float64)
        except ValueError:
            part = None
        if part is None or not np.isfinite(part).all():
            walk = _line_values(chunk, line_no + 1, header_allowed=False)
            part = np.array([value for _, value in walk], dtype=np.float64)
        parts.append(part)
        line_no += len(chunk)
    values = np.concatenate(parts)
    if values.size < 2:
        raise InputParseError(0, f"need at least 2 finite values, got {values.size}")
    return values


def _line_values(lines, start: int = 1, header_allowed: bool = True):
    """(line number, value) for each value line of ``lines``, numbered from
    ``start``; raises :class:`InputParseError` at a faulty line."""
    for line_no, raw in enumerate(lines, start=start):
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
        yield line_no, value


def _read_input(path) -> np.ndarray:
    """The series in the file ``path``, or on stdin for ``-``."""
    try:
        if path == "-":
            return read_series(sys.stdin)
        with open(path) as stream:
            return read_series(stream)
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(exc) from exc


@contextlib.contextmanager
def _output(path):
    """A text stream to ``path``, or stdout for None; a failure to open,
    write or close the file is raised as :class:`OutputError`."""
    if path is None:
        yield sys.stdout
        return
    try:
        with open(path, "w") as out:
            yield out
    except OSError as exc:
        raise OutputError(exc) from exc


def _emit(text: str, path) -> None:
    with _output(path) as out:
        out.write(text)


def _cmd_detect(args) -> int:
    y = _read_input(args.input)
    sigma_hat = args.sigma if args.sigma is not None else estimate_sigma(y)
    cps, params = detect(
        y, args.method, sigma_hat, spacing=args.delta_hint, seed=args.seed, lam=args.lam,
        tau=args.tau, c_lambda=args.c_lambda, c_tau=args.c_tau, intervals=args.intervals,
        max_len=args.max_len,
    )
    doc = {
        "method": args.method,
        "n": int(y.size),
        "sigma_hat": float(sigma_hat),
        "params": params,
        "change_points": list(cps),
    }
    _emit(json_dumps(doc) + "\n", args.out)
    return 0


def _cmd_simulate(args) -> int:
    cfg = _config_from(args, method="l0")
    sig, y = draw_replication(cfg, 0)
    lines = [
        f"# signal: {signal_to_json(sig)}",
        f"# family: {cfg.family} sigma: {fmt_float(cfg.sigma)} seed: {cfg.base_seed}",
        "y",
    ]
    lines.extend(fmt_float(v) for v in y)
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _config_from(args, **fixed) -> ExperimentConfig:
    """The configuration of simulate, sweep or rate: each given option whose
    destination names an :class:`ExperimentConfig` field sets that field,
    ``fixed`` sets others, and the dataclass defaults fill in the rest."""
    names = {field.name for field in dataclasses.fields(ExperimentConfig)}
    given = {k: v for k, v in vars(args).items() if k in names and v is not None}
    return ExperimentConfig(**given, **fixed)


def _parse_grid(text: str) -> list[float]:
    try:
        grid = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise ValueError(f"bad grid {text!r}; expected comma-separated numbers") from None
    if not grid:
        raise ValueError("grid is empty")
    return grid


def _cmd_sweep(args) -> int:
    base = _config_from(args)
    rows = sweep_snr(base, _parse_grid(args.snr_grid), reps=base.replications, jobs=args.jobs)
    with _output(args.out) as out:
        write_csv(rows, out, include_timing=args.timing)
    if args.summary is not None:
        _emit(json_dumps(summarize(base, rows)) + "\n", args.summary)
    return 0


def _cmd_rate(args) -> int:
    cfg = _config_from(args)
    grid = _parse_grid(args.c_eps_grid)
    check_rate_inputs(cfg, grid)
    rows = run_experiment(cfg, jobs=args.jobs)
    fractions = rate_check(cfg, grid, rows)
    with _output(args.out) as out:
        write_csv(rows, out, include_timing=args.timing)
    doc = summarize(cfg, rows)
    doc["rate_fractions"] = {fmt_float(c): f for c, f in fractions.items()}
    if args.summary is not None:
        _emit(json_dumps(doc) + "\n", args.summary)
    return 0


def _add_method_params(p: argparse.ArgumentParser) -> None:
    p.add_argument("--lambda", dest="lam", type=float, default=None, help="l0 penalty")
    p.add_argument("--tau", type=float, default=None, help="bs/wbs threshold")
    p.add_argument("--intervals", type=int, default=None, help="number of random intervals (wbs)")
    p.add_argument("--max-len", dest="max_len", type=int, default=None, help="interval length cap")
    # An unset multiplier stays None; the help names the default that then
    # applies, read from the module that owns it when the parser is built.
    p.add_argument("--c-lambda", dest="c_lambda", type=float,
                   help="multiplier for the default penalty sigma^2 log n "
                        f"(default {steploc.l0.DEFAULT_C_LAMBDA:g})")
    p.add_argument("--c-tau", dest="c_tau", type=float,
                   help="multiplier for the default threshold sigma sqrt(log n) "
                        f"(default {steploc.wbs.DEFAULT_C_TAU:g})")


def _add_signal_params(p: argparse.ArgumentParser, need_kappa: bool) -> None:
    p.add_argument("--n", type=int, required=True, help="series length")
    p.add_argument("--k", type=int, default=None, help="number of change points")
    p.add_argument("--delta", type=int, default=None, help="spacing between change points")
    if need_kappa:
        p.add_argument("--kappa", type=float, default=None, help="jump size")
    p.add_argument("--sigma", type=float, required=True, help="noise scale")
    p.add_argument("--family", choices=FAMILIES,
                   help=f"noise family (default {ExperimentConfig.family})")


def _add_harness_params(p: argparse.ArgumentParser, grid_flag: str, **grid) -> None:
    """The options of sweep and rate, with their grid option ``grid_flag``
    after ``--method`` (argparse lists options in the order they are added)."""
    p.add_argument("--method", choices=METHODS, required=True)
    p.add_argument(grid_flag, **grid)
    _add_method_params(p)
    p.add_argument("--reps", dest="replications", metavar="REPS", type=int, default=100)
    p.add_argument("--seed", dest="base_seed", metavar="SEED", type=int, default=DEFAULT_SEED)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--timing", action="store_true", help="emit wall times (not byte-reproducible)")
    p.add_argument("--out", default=None, help="CSV path (default stdout)")
    p.add_argument("--summary", default=None, help="write a JSON summary here")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="steploc", description="Offline localization of mean shifts in univariate series."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("detect", help="detect change points in a series file")
    p.add_argument("input", help="series file, or - for stdin")
    p.add_argument("--method", choices=METHODS, required=True)
    p.add_argument("--sigma", type=float, default=None,
                   help="noise scale; estimated from first differences when omitted")
    p.add_argument("--delta-hint", dest="delta_hint", type=int, default=None,
                   help="expected minimal spacing, used to size the interval pool (default n/10)")
    _add_method_params(p)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--out", default=None, help="write JSON here instead of stdout")
    p.set_defaults(func=_cmd_detect)

    p = sub.add_parser("simulate", help="emit one seeded replication (series + truth)")
    _add_signal_params(p, need_kappa=True)
    p.add_argument("--seed", dest="base_seed", metavar="SEED", type=int, default=DEFAULT_SEED)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("sweep", help="success frequency across a signal-to-noise grid")
    _add_signal_params(p, need_kappa=False)
    _add_harness_params(p, "--snr-grid", dest="snr_grid", required=True,
                        help="comma-separated snr values; jump size is rescaled per value")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("rate", help="localization error against c * sigma^2 log(n) / kappa^2")
    _add_signal_params(p, need_kappa=True)
    _add_harness_params(p, "--c-eps-grid", dest="c_eps_grid", default="1,2,4,8,16",
                        help="comma-separated error-bound multipliers")
    p.set_defaults(func=_cmd_rate)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of :func:`main`, built on its first call: building takes
    far longer than parsing, and parsing leaves the parser unchanged."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"steploc: input error: {exc}", file=sys.stderr)
        return 3
    except OutputError as exc:
        print(f"steploc: output error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"steploc: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

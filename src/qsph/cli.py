"""Command-line front end: `qsph run` for curves, `qsph sweep` for RMS vs m.

This module only parses. ``ExperimentConfig`` owns each setting's default,
type and valid range, and ``run_convergence_sweep`` the sweep's m_max: a
sweep runs the config at its qubits (--m-min), then each larger m up to
m_max. Their defaults are ``SWEEP_M_RANGE``; the choices and the defaults
in the help come from there. Every flag of a subcommand can also come from
a JSON config file (--config FILE) whose keys are its long flag names with
dashes as underscores; explicit flags override file values.
Exit codes: 0 success, 1 the table could not be written (stdout closed
early, or a write or flush failed), 2 configuration error (an --out that
cannot be opened, or more query points than fit in memory, among them),
3 numerical failure (non-finite values, a target that is zero at every
particle, or a readout scale c N ||a|| that is not a positive normal
double).
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys
from contextlib import nullcontext

from . import harness  # its writers, looked up per call: bench/tracing.py wraps them
from .harness import (
    BOUNDARY_MODES,
    ESTIMATORS,
    NORM_MODES,
    SWEEP_M_RANGE,
    ConfigError,
    ExperimentConfig,
    ReadoutScaleError,
    all_finite,
    run_convergence_sweep,
    run_experiment,
)
from .kernels import DERIVATIVE_ORDERS, KernelFamily
from .sph_encoding import ZeroSamplesError

EXIT_OK = 0
EXIT_WRITE = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
# argparse takes -inf and -nan for options, and before Python 3.13 -1e-3 as
# well; matched here, they reach the config's checks, which name the field
NEGATIVE_NUMBER = re.compile(r"^-(?:(?:\d+\.?\d*|\.\d+)(?:e[-+]?\d+)?|inf(?:inity)?|nan)$",
                             re.IGNORECASE)


def _common_flags(p: argparse.ArgumentParser, d: ExperimentConfig) -> list[argparse.Action]:
    """The flags run and sweep share; the help shows the defaults of d."""
    return [
        p.add_argument("--kernel", choices=[k.value for k in KernelFamily],
                       help=f"kernel family (default {d.kernel.value})"),
        p.add_argument("--order", dest="derivative_order", type=int, choices=DERIVATIVE_ORDERS,
                       help=f"derivative order to approximate (default {d.derivative_order})"),
        p.add_argument("--points", dest="eval_points", type=int, metavar="POINTS",
                       help=f"number of query points (default {d.eval_points})"),
        p.add_argument("--domain", type=float, nargs=2, metavar=("A", "B"),
                       help=f"interval [A, B] (default {d.domain[0]} {d.domain[1]})"),
        p.add_argument("--boundary-particles", type=int,
                       help="ghost particles per end (default derived from the kernel support)"),
        p.add_argument("--h", dest="smoothing_length", type=float, metavar="H",
                       help="explicit smoothing length (default 2 dx, dx = (B - A) / 2^m)"),
        p.add_argument("--norm", dest="norm_mode", choices=NORM_MODES,
                       help=f"norm of the coefficient vector (default {d.norm_mode})"),
        p.add_argument("--estimator", choices=ESTIMATORS,
                       help=f"overlap readout (default {d.estimator})"),
        p.add_argument("--shots", type=int,
                       help=f"measurement shots, --estimator sampled (default {d.shots})"),
        p.add_argument("--pe-qubits", type=int,
                       help=f"angle-register qubits, --estimator phase (default {d.pe_qubits})"),
        p.add_argument("--seed", type=int,
                       help=f"base seed for sampled estimation (default {d.seed})"),
        p.add_argument("--boundary", dest="boundary_values", choices=BOUNDARY_MODES,
                       help=f"ghost-particle function values (default {d.boundary_values})"),
        p.add_argument("--out", metavar="FILE", help="output CSV path (default stdout)"),
    ]


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process, at its first use."""
    d, (m_min, m_max) = ExperimentConfig(), SWEEP_M_RANGE
    parser = argparse.ArgumentParser(
        prog="qsph",
        description="Register-encoded SPH approximation experiments.")
    sub = parser.add_subparsers(dest="command", required=True)
    # SUPPRESS: a flag the user did not give stays out of the namespace
    run = sub.add_parser("run", help="per-point approximation curve CSV",
                         argument_default=argparse.SUPPRESS)
    run_flags = [run.add_argument("--qubits", type=int,
                                  help=f"register size m; 2^m particles (default {d.qubits})")]
    sweep = sub.add_parser("sweep", help="RMS-vs-m convergence CSV",
                           argument_default=argparse.SUPPRESS)
    sweep_flags = [
        sweep.add_argument("--m-min", dest="qubits", type=int, metavar="M_MIN",
                           help=f"smallest register size (default {m_min})"),
        sweep.add_argument("--m-max", type=int, help=f"largest register size (default {m_max})")]
    for p, flags in ((run, run_flags), (sweep, sweep_flags)):
        p._negative_number_matcher = NEGATIVE_NUMBER
        p.add_argument("--config", metavar="FILE",
                       help="JSON file supplying any of the other flags")
        flags += _common_flags(p, d)
        # config-file key (the long flag, dashes as underscores) -> setting name
        p.set_defaults(config_keys={a.option_strings[0][2:].replace("-", "_"): a.dest
                                    for a in flags})
    return parser


def _load_config_file(path: str, keys: dict[str, str]) -> dict:
    """The file's settings, keyed by dest. JSON text is UTF-8 (RFC 8259), so
    the file is read as UTF-8 whatever the locale."""
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        # bad JSON or UTF-8, an integer past Python's digit limit for int(),
        # or arrays nested past the recursion limit
        except (ValueError, RecursionError) as exc:
            raise ConfigError(f"config file {path}: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path}: top level must be a JSON object")
    unknown = sorted(set(data) - set(keys))
    if unknown:
        raise ConfigError(f"config file {path}: unknown keys {unknown}")
    return {keys[k]: v for k, v in data.items()}


def _cmd_run(settings: dict, out: str | None) -> int:
    curve = run_experiment(ExperimentConfig(**settings))
    if not all_finite(curve):
        print("numerical failure: non-finite values in the result curve",
              file=sys.stderr)
        return EXIT_NUMERIC
    return _write(out, harness.write_rows, curve)


def _cmd_sweep(settings: dict, out: str | None) -> int:
    m_max = settings.pop("m_max", SWEEP_M_RANGE[1])
    config = ExperimentConfig(**{"qubits": SWEEP_M_RANGE[0], **settings})
    entries = run_convergence_sweep(config, m_max)
    if not all(math.isfinite(rms) for _, rms in entries):
        print("numerical failure: non-finite RMS in the sweep", file=sys.stderr)
        return EXIT_NUMERIC
    return _write(out, harness.write_sweep, entries, config.kernel, config.derivative_order)


def _write(out: str | None, write, *args) -> int:
    """write(stream, *args) to the file out, opened only once the run has
    succeeded, or to stdout. A failure to open is the caller's. A write or
    flush that fails exits 1 and names the destination, unless stdout was
    closed early (``| head``), which ends the run quietly. A partial out
    file is removed; stdout goes to os.devnull for the interpreter's last
    flush."""
    dest = nullcontext(sys.stdout) if out is None else open(out, "w", newline="")
    try:
        with dest as fh:
            write(fh, *args)
            fh.flush()
    except OSError as exc:
        if out is None:
            with open(os.devnull, "w") as devnull:
                os.dup2(devnull.fileno(), sys.stdout.fileno())
        elif os.path.isfile(out):  # never a device such as /dev/full
            os.remove(out)
        if not isinstance(exc, BrokenPipeError):
            print(f"write error: {'stdout' if out is None else out}: {exc}", file=sys.stderr)
        return EXIT_WRITE
    return EXIT_OK


def main(argv=None) -> int:
    given = vars(build_parser().parse_args(argv))
    command, keys = given.pop("command"), given.pop("config_keys")
    try:
        path = given.pop("config", None)
        # the user's values only: the config file's, then the flags'
        settings = (_load_config_file(path, keys) if path is not None else {}) | given
        out = settings.pop("out", None)
        if out is not None and not isinstance(out, str):
            raise ConfigError(f"out: expected a file path, got {out!r}")
        if command == "run":
            return _cmd_run(settings, out)
        return _cmd_sweep(settings, out)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    # the layout and the CSV blocks are bounded; only the query points are not
    except MemoryError as exc:
        print(f"config error: eval_points: the query points do not fit in memory: {exc}",
              file=sys.stderr)
        return EXIT_CONFIG
    # e.g. the target, or the readout scale c N ||a||, underflows to 0
    except (ZeroSamplesError, ReadoutScaleError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())

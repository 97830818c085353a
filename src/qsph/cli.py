"""Command-line front end: `qsph run` for curves, `qsph sweep` for RMS vs m.

Every option can also come from a JSON config file (--config FILE) whose
keys are the long flag names with dashes as underscores; explicit flags
override file values. Exit codes: 0 success, 2 configuration error,
3 non-finite numerics.
"""
from __future__ import annotations

import argparse
import json
import math
import sys

from .discretization import DiscretisationError, Domain
from .harness import (
    ConfigError,
    ExperimentConfig,
    all_finite,
    run_convergence_sweep,
    run_experiment,
    write_rows,
    write_rows_path,
    write_sweep,
    write_sweep_path,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

_DEFAULTS = {
    "kernel": "gaussian",
    "order": 0,
    "qubits": 8,
    "points": 300,
    "domain": (-1.0, 1.0),
    "boundary_particles": None,  # derived from the kernel support
    "h": None,
    "norm": "exact",
    "estimator": "exact",
    "shots": 10_000,
    "pe_qubits": 8,
    "seed": 0,
    "boundary": "analytic",
    "out": None,
    "m_min": 4,
    "m_max": 8,
}


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    # defaults stay None so a config file can fill unset flags
    p.add_argument("--config", metavar="FILE",
                   help="JSON file supplying any of the flags below")
    p.add_argument("--kernel", choices=["gaussian", "wendland"])
    p.add_argument("--order", type=int, choices=[0, 1, 2],
                   help="derivative order of the approximation")
    p.add_argument("--qubits", type=int, help="register size m; 2^m particles")
    p.add_argument("--points", type=int, help="number of query points (default 300)")
    p.add_argument("--domain", type=float, nargs=2, metavar=("A", "B"))
    p.add_argument("--boundary-particles", type=int,
                   help="ghost particles per end (default derived: "
                        "ceil(support radius / dx) + 1)")
    p.add_argument("--h", type=float,
                   help="explicit smoothing length (default rule: 4/2^m)")
    p.add_argument("--norm", choices=["exact", "integral"],
                   help="norm of the coefficient vector: exact or integral estimate")
    p.add_argument("--estimator", choices=["exact", "sampled", "phase"])
    p.add_argument("--shots", type=int, help="measurement shots for --estimator sampled")
    p.add_argument("--pe-qubits", type=int,
                   help="angle-register qubits for --estimator phase")
    p.add_argument("--seed", type=int, help="base seed for sampled estimation")
    p.add_argument("--boundary", choices=["analytic", "zero"],
                   help="ghost-particle function values (default analytic)")
    p.add_argument("--out", metavar="FILE", help="output CSV path (default stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qsph",
        description="Register-encoded SPH approximation experiments.")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="per-point approximation curve CSV")
    _add_common_flags(run_p)

    sweep_p = sub.add_parser("sweep", help="RMS-vs-m convergence CSV")
    _add_common_flags(sweep_p)
    sweep_p.add_argument("--m-min", type=int, help="smallest register size (default 4)")
    sweep_p.add_argument("--m-max", type=int, help="largest register size (default 8)")
    return parser


def _load_config_file(path: str) -> dict:
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path}: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path}: top level must be a JSON object")
    unknown = sorted(set(data) - set(_DEFAULTS))
    if unknown:
        raise ConfigError(f"config file {path}: unknown keys {unknown}")
    return data


def _merge_settings(ns: argparse.Namespace) -> dict:
    merged = dict(_DEFAULTS)
    if ns.config is not None:
        merged.update(_load_config_file(ns.config))
    for key in _DEFAULTS:
        value = getattr(ns, key, None)
        if value is not None:
            merged[key] = value
    return merged


def _as_int(merged: dict, key: str) -> int:
    v = merged[key]
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(f"{key}: expected an integer, got {v!r}")
    return v


def _config_from(merged: dict) -> ExperimentConfig:
    dom = merged["domain"]
    if not (isinstance(dom, (list, tuple)) and len(dom) == 2):
        raise ConfigError(f"domain: expected two endpoints, got {dom!r}")
    try:
        domain = Domain(float(dom[0]), float(dom[1]))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"domain: {exc}") from None
    ghosts = merged["boundary_particles"]
    if ghosts is not None:
        ghosts = _as_int(merged, "boundary_particles")
    h = merged["h"]
    if h is not None:
        try:
            h = float(h)
        except (TypeError, ValueError):
            raise ConfigError(f"h: expected a number, got {h!r}") from None
    return ExperimentConfig(
        kernel=merged["kernel"],
        derivative_order=_as_int(merged, "order"),
        qubits=_as_int(merged, "qubits"),
        domain=domain,
        eval_points=_as_int(merged, "points"),
        boundary_particles=ghosts,
        smoothing_length=h,
        norm_mode=merged["norm"],
        estimator=merged["estimator"],
        shots=_as_int(merged, "shots"),
        seed=_as_int(merged, "seed"),
        pe_qubits=_as_int(merged, "pe_qubits"),
        boundary_values=merged["boundary"],
        output_path=merged["out"],
    )


def _cmd_run(ns: argparse.Namespace) -> int:
    config = _config_from(_merge_settings(ns))
    curve = run_experiment(config)
    if not all_finite(curve):
        print("numerical failure: non-finite values in the result curve",
              file=sys.stderr)
        return EXIT_NUMERIC
    if config.output_path:
        write_rows_path(config.output_path, curve)
    else:
        write_rows(sys.stdout, curve)
    return EXIT_OK


def _cmd_sweep(ns: argparse.Namespace) -> int:
    merged = _merge_settings(ns)
    m_min = _as_int(merged, "m_min")
    m_max = _as_int(merged, "m_max")
    if not 2 <= m_min <= 16:
        raise ConfigError(f"m_min: must lie in [2, 16], got {m_min}")
    if not 2 <= m_max <= 16:
        raise ConfigError(f"m_max: must lie in [2, 16], got {m_max}")
    if m_min > m_max:
        raise ConfigError(f"m_min: {m_min} exceeds m_max {m_max}")
    merged["qubits"] = m_min  # per-m validation happens via replace() in the sweep
    config = _config_from(merged)
    entries = run_convergence_sweep(config, range(m_min, m_max + 1))
    if not all(math.isfinite(rms) for _, rms in entries):
        print("numerical failure: non-finite RMS in the sweep", file=sys.stderr)
        return EXIT_NUMERIC
    if config.output_path:
        write_sweep_path(config.output_path, entries, config.kernel,
                         config.derivative_order)
    else:
        write_sweep(sys.stdout, entries, config.kernel, config.derivative_order)
    return EXIT_OK


def main(argv=None) -> int:
    ns = build_parser().parse_args(argv)
    try:
        if ns.command == "run":
            return _cmd_run(ns)
        return _cmd_sweep(ns)
    except (ConfigError, DiscretisationError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark of `qsph run` / `qsph sweep`, end to end and per module.

    python3 bench/run.py --workload dense-register --seed 1 --seconds 36 --trace 0

Run from the root of a source checkout (qsph is imported from ./src). The
process repeats whole passes of the workload's invocations, each one
`qsph.cli.main([...])` in-process writing CSV to a file, until --seconds
have passed, and checks every output against the independent reference.
--trace 0 reports the end-to-end metrics; --trace 1 alternates untraced and
traced passes and reports the per-layer metrics. The last line of stdout is
one JSON object: correct, attempted, failed, metrics.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
from tracing import METRICS, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# At most two pool workers: the program's own thread pool stays in play,
# without asking a small machine for more threads than it has cores.
WORKERS = min(2, os.cpu_count() or 1)
END_TO_END = [
    ("pass_s", "s"),
    ("query_points_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]


def import_cli():
    """qsph.cli from this checkout's src/, never from an installed copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import qsph.cli
    if src not in Path(qsph.cli.__file__).resolve().parents:
        raise SystemExit(f"qsph was imported from {qsph.cli.__file__}, not from {src}")
    return qsph.cli


def time_setup(workload: str, seed: int) -> float:
    """Seconds from starting a fresh interpreter to `import qsph` done and
    the first pass's inputs built (the child says so on stdout)."""
    start = time.perf_counter()
    child = subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), "--setup-only",
         "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    line = child.stdout.readline()
    elapsed = time.perf_counter() - start
    child.stdout.close()
    if child.wait() != 0 or line.strip() != "ready":
        raise SystemExit(f"set-up of {workload} failed (exit {child.returncode})")
    return elapsed


def cpu_ticks() -> tuple[int, int]:
    """(steal, total) jiffies of all CPUs from /proc/stat, or (0, 0)."""
    try:
        with open("/proc/stat") as fh:
            fields = [int(v) for v in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    return (fields[7] if len(fields) > 7 else 0), sum(fields[:8])


def invoke(cli, argv, tracer):
    """Exit code of one in-process invocation, or "exception" if it raised."""
    try:
        if tracer is None:
            return cli.main(argv)
        return tracer.call("cli.main", cli.main, (argv,))
    except SystemExit as exc:  # argparse rejects bad flags this way
        return exc.code
    except Exception:  # the benchmark counts the failure and goes on
        traceback.print_exc()
        return "exception"


def run_pass(cli, invocations, workdir: Path, reference, tracer):
    """Run one pass; returns (seconds per invocation, failed, wrong, csv bytes)."""
    times = []
    failed = wrong = csv_bytes = 0
    for i, inv in enumerate(invocations):
        out = workdir / f"{i}.csv"
        out.unlink(missing_ok=True)
        gc.collect()
        start = time.perf_counter()
        code = invoke(cli, inv.argv(str(out)), tracer)
        times.append(time.perf_counter() - start)
        if code != 0:
            print(f"FAILED {inv}: exit {code}", file=sys.stderr)
            failed += 1
            continue
        csv_bytes += out.stat().st_size
        try:
            checks.check(inv, str(out), reference)
        except (checks.CheckFailed, OSError, ValueError) as exc:
            print(f"WRONG {inv}: {exc}", file=sys.stderr)
            failed += 1
            wrong += 1
    return times, failed, wrong, csv_bytes


def median_pass(passes: list[list[float]]) -> float:
    """A pass made of each invocation's median time over the passes; every
    invocation keeps its own median, so one slow stretch of the machine
    moves the figure only as far as it moves that invocation."""
    return sum(statistics.median(slot) for slot in zip(*passes))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    os.environ["QSPH_THREADS"] = str(WORKERS)
    make = WORKLOADS[args.workload]

    if args.setup_only:
        import_cli()
        make(random.Random(args.seed))
        print("ready", flush=True)
        return 0

    cli = import_cli()
    rng = random.Random(args.seed)
    reference = checks.Reference()
    tracer = Tracer() if args.trace else None
    workdir = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)

    plain, traced, layers, setup = [], [], [], []
    attempted = failed = wrong = 0
    query_points = 0
    start = time.perf_counter()
    steal_start, total_start = cpu_ticks()
    last = 0.0
    try:
        # whole passes while the next one, as long as the last, still fits;
        # a traced run needs one pass of each kind. The machine's speed drifts
        # over tens of seconds, so set-up is timed before every pass and once
        # after the last, not all at once.
        while (time.perf_counter() - start + last < args.seconds
               or not plain or (tracer is not None and not traced)):
            pass_start = time.perf_counter()
            setup.append(time_setup(args.workload, args.seed))
            invocations = make(rng)
            query_points = sum(inv.query_points for inv in invocations)
            trace_this = tracer is not None and len(plain) > len(traced)
            if trace_this:
                first = len(tracer.spans)
                tracer.install()
            try:
                times, f, w, csv_bytes = run_pass(
                    cli, invocations, workdir, reference, tracer if trace_this else None)
            finally:
                if trace_this:
                    tracer.uninstall()
            attempted += len(invocations)
            failed += f
            wrong += w
            print(f"pass {len(plain) + len(traced)}{' traced' if trace_this else ''}: "
                  + " ".join(f"{t:.3f}" for t in times), file=sys.stderr)
            if trace_this:
                traced.append(times)
                layers.append({**tracer.layer_metrics(first), "harness.csv_bytes": csv_bytes})
            else:
                plain.append(times)
            last = time.perf_counter() - pass_start
        setup.append(time_setup(args.workload, args.seed))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if tracer is None:
        pass_s = median_pass(plain)
        values = {
            "pass_s": pass_s,
            "query_points_per_s": query_points / pass_s,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    else:
        values = {name: statistics.median(p[name] for p in layers)
                  for name, _, _ in METRICS if name != "trace.overhead_s"}
        values["trace.overhead_s"] = median_pass(traced) - median_pass(plain)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in METRICS}
        tracer.write(str(OUT / f"trace-{args.workload}.csv"))

    result = {"correct": wrong == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    steal, total = cpu_ticks()
    if total > total_start:
        # time the hypervisor gave to other guests; it slows every timing here
        print(f"host steal: {100 * (steal - steal_start) / (total - total_start):.1f}% "
              "of CPU time during the run", file=sys.stderr)
    print(f"workload {args.workload}, seed {args.seed}, {WORKERS} workers, "
          f"{len(plain)} untraced and {len(traced)} traced passes of "
          f"{attempted // (len(plain) + len(traced))} invocations")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

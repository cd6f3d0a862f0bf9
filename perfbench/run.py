"""Benchmark of the plap command line.

Run from the repository root; the process imports plap from ./src:

    python3 perfbench/run.py --workload sweep-1d-p3 --seed 1 --seconds 40 --trace 0

Workloads are defined in workloads.py: sweep-1d-p3, sweep-2d-p3 and modes.
A run repeats rounds of the workload's CLI invocations, in this one
single-threaded process, until the next round would end after --seconds.
Metrics are medians over rounds; the first round of an untraced run only
warms up.  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics; attempted
and failed count output checks, exit codes included.

--trace 0 reports the end-to-end metrics, from untraced rounds, in reference
seconds: a Pacer (pace.py) times a fixed probe every 25 ms and scales each
timing by how fast the host ran while it was taken.  setup_s adds the median
first import of plap.cli over three fresh processes (import_sample.py),
paced the same way.
--trace 1 reports the per-layer metrics, unscaled: rounds cycle through one
untraced and two traced ones, the work counts of the traced rounds must agree
exactly, and trace.overhead_s is the median traced minus the median untraced
round.  Spans are written to perfbench/work/<workload>-trace/spans.tsv at the end.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("sweep-1d-p3", "sweep-2d-p3", "modes")
# one thread per BLAS and OpenMP pool: on a 2-core host, extra pool threads make runs incomparable
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
IMPORT_SAMPLES = 3


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds positive")
    return args


def _run_rounds(bench, workload, seconds, tracer):
    """Rounds until the next one would end after seconds.

    Untraced runs make at least two rounds, traced ones at least U, T, T.
    """
    from workloads import Round

    rounds = []
    start = time.perf_counter()
    longest = 0.0
    while True:
        traced = tracer is not None and len(rounds) % 3 != 0
        rnd = Round(traced=traced)
        if traced:
            tracer.run_id = len(rounds)
            tracer.install()
        t0 = time.perf_counter()
        try:
            workload.run(bench, rnd)
        finally:
            if traced:
                tracer.uninstall()
        longest = max(longest, time.perf_counter() - t0)
        rounds.append(rnd)
        enough = len(rounds) >= (3 if tracer is not None else 2)
        if enough and time.perf_counter() - start + longest > seconds:
            return rounds


def _import_s():
    """Median over fresh processes of the first import of plap.cli, in reference seconds."""
    samples = []
    for _ in range(IMPORT_SAMPLES):
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "import_sample.py")],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def _end_to_end(rounds, import_s):
    """Medians over the rounds after the first, which warms caches and lazy imports.

    A round cut short by a failed invocation can lack some timings; the run
    then reports correct: false and those metrics fall back to 0.
    """
    med = statistics.median
    starts = sum(r.starts for r in rounds)
    converged = 1.0 - sum(r.failed_starts for r in rounds) / starts if starts else 0.0
    timed = rounds[1:]
    return {
        "wall_s": (med(r.wall_s for r in timed), "s"),
        "setup_s": (import_s + med(r.setup_s for r in timed), "s"),
        "cells_per_s": (med(r.cells / r.cell_wall_s if r.cell_wall_s else 0.0 for r in timed), "cells/s"),
        "converged_start_share": (converged, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def _per_layer(rounds, tracer):
    """Per-layer metrics over the traced rounds, and the checks that their counts repeat."""
    import spans

    traced = [i for i, r in enumerate(rounds) if r.traced]
    per_round = [spans.layer_metrics(spans.RunView(tracer, i)) for i in traced]
    out, checks = {}, []
    for name in per_round[0]:
        values = [m[name] for m in per_round]
        unit = spans.unit_of(name)
        if spans.is_exact(name):
            checks.append((f"trace: {name} repeats across traced rounds", len(set(values)) == 1, f"got {values}"))
            out[name] = (values[0], unit)
        else:
            out[name] = (statistics.median(values), unit)
    overhead = statistics.median(rounds[i].wall_s for i in traced) - statistics.median(
        r.wall_s for r in rounds if not r.traced
    )
    out["trace.overhead_s"] = (overhead, "s")
    return out, checks


def main(argv=None):
    args = _parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("PLAP_OUT", None)
    src = ROOT / "src"
    if not (src / "plap" / "cli.py").is_file():
        print(f"perfbench: plap sources not found under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    import plap.cli as cli

    if Path(cli.__file__).resolve().parent != (src / "plap").resolve():
        print(f"perfbench: imported plap from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    import plap.config

    import pace
    import spans
    import workloads

    work_dir = ROOT / "perfbench" / "work" / f"{args.workload}-{'trace' if args.trace else 'plain'}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    start = time.perf_counter()
    tracer = spans.Tracer() if args.trace else None
    pacer = None
    if tracer is None:
        import_s = _import_s()
        pacer = pace.Pacer(pace.kernel_probe, pace.KERNEL_REF_S)
        pacer.arm()
    bench = workloads.Bench(cli, plap.config, work_dir, args.seed, tracer, pacer)
    try:
        seconds = args.seconds - (time.perf_counter() - start)
        rounds = _run_rounds(bench, workloads.WORKLOADS[args.workload], seconds, tracer)
    finally:
        if pacer is not None:
            pacer.disarm()

    checks = [c for r in rounds for c in r.checks]
    if tracer is None:
        metrics = _end_to_end(rounds, import_s)
    else:
        metrics, trace_checks = _per_layer(rounds, tracer)
        checks += trace_checks
        tracer.write(work_dir / "spans.tsv")
    failures = [(name, detail) for name, ok, detail in checks if not ok]
    with open(work_dir / "rounds.json", "w", encoding="utf-8") as handle:
        json.dump([{**vars(r), "checks": len(r.checks)} for r in rounds], handle, indent=1)
    for name, detail in failures:
        print(f"perfbench: check failed: {name}: {detail}", file=sys.stderr)
    result = {
        "correct": not failures,
        "attempted": len(checks),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(f"perfbench: {args.workload} seed {args.seed}: {len(rounds)} rounds", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

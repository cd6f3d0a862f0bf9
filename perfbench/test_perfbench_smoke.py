"""Toy-size smoke test of the benchmark harness.

    python3 -m pytest -q perfbench
"""

import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import plap.bvp  # noqa: E402
import plap.cli  # noqa: E402
import plap.config  # noqa: E402
import plap.functions  # noqa: E402
import plap.regions  # noqa: E402

import exact_eigen  # noqa: E402
import pace  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

TOY_1D = workloads.SweepWorkload(
    base={
        "domain": {"kind": "interval", "bounds": [0.0, 1.0], "resolution": 32},
        "p": 3.0,
        "q": 1.5,
        "weights": {"m": 1, "a": 1, "f": 1},
    },
    lam_fracs=(0.8, 1.9),
    etas=(0.0, 0.2),
    classes={
        (0.8, 0.0): ["positive"],
        (0.8, 0.2): ["positive"],
        (1.9, 0.0): ["negative"],
        (1.9, 0.2): ["negative"],
    },
    lam1_ref=(exact_eigen.interval_eigenvalue(1, 3.0, 1.0), exact_eigen.interval_tolerance(32)),
)


def _toy_run(tmp_path, traced=True, pacer=None):
    tracer = spans.Tracer() if traced else None
    bench = workloads.Bench(plap.cli, plap.config, tmp_path, 7, tracer, pacer)
    return tracer, run._run_rounds(bench, TOY_1D, 0.0, tracer)


def _failed_checks(checks):
    return [(name, detail) for name, ok, detail in checks if not ok]


def test_untraced_round_passes_checks_and_reports_every_metric(tmp_path):
    _, rounds = _toy_run(tmp_path, traced=False)
    assert len(rounds) == 2
    assert _failed_checks([c for r in rounds for c in r.checks]) == []
    metrics = run._end_to_end(rounds, import_s=0.5)
    assert all(value > 0 for value, _ in metrics.values()), metrics


def test_paced_rounds_report_reference_seconds(tmp_path):
    pacer = pace.Pacer(pace.kernel_probe, pace.KERNEL_REF_S, period=0.005)
    pacer.arm()
    try:
        _, rounds = _toy_run(tmp_path, traced=False, pacer=pacer)
    finally:
        pacer.disarm()
    assert pacer.durations and _failed_checks([c for r in rounds for c in r.checks]) == []
    for rnd in rounds:
        assert set(rnd.slowdown) == {"eigen", "sweep"}
        assert all(value > 0 for value in rnd.slowdown.values())
        assert all(value > 0 for value in rnd.wall.values())


def test_reference_seconds_remove_the_probes_and_scale_by_their_speed():
    pacer = pace.Pacer(pace.bytecode_probe, 1.0)
    pacer.starts = [0.5, 1.5, 2.5, 3.5, 9.0]
    pacer.durations = [0.25, 0.25, 0.25, 0.25, 1.0]
    pacer.spent = [0.5, 0.5, 0.5, 0.5, 2.0]
    # four ticks inside [0, 4): 2 s in the handler, each probe at 0.25x its reference time
    assert pacer.slowdown(4.0, 0) == 0.25
    assert pacer.reference_seconds(0.0, 4.0, 0, repeats=2) == (4.0 - 2.0) / 2 / 0.25
    # a region holding fewer than four probes also uses the ones before it
    assert pacer.slowdown(9.5, 4) == 2.0 / 5


def test_import_sample_prints_reference_seconds():
    proc = subprocess.run(
        [sys.executable, "perfbench/import_sample.py"],
        cwd=HERE.parent,
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    assert float(proc.stdout) > 0


def test_traced_counts_repeat_exactly(tmp_path):
    tracer, rounds = _toy_run(tmp_path)
    assert [r.traced for r in rounds] == [False, True, True]
    assert _failed_checks([c for r in rounds for c in r.checks]) == []
    metrics, checks = run._per_layer(rounds, tracer)
    assert checks and _failed_checks(checks) == []
    assert metrics["bvp.multi_start_solve.calls"] == (4, "count")
    assert metrics["eigen.second_eigenvalue_1d.calls"] == (1, "count")
    # failed bvp.solve spans are the failed rows of sweep.csv
    assert metrics["bvp.solve.fail"][0] == rounds[1].failed_starts


def test_cell_counts_equal_the_sum_over_its_starts(tmp_path):
    tracer, _ = _toy_run(tmp_path)
    view = spans.RunView(tracer, 1)
    cell_names = ("bvp.multi_start_solve",)
    solve_names = ("bvp.solve",)
    for cell in view.of("bvp.multi_start_solve"):
        starts = [s for s in view.of("bvp.solve") if view.ancestor(s, cell_names) == cell]
        assert len(starts) == 11  # zero and +-t*phi1 for five t
        for kernel in ("fem.p_flux", "fem.p_flux_jacobian", "fem.solve_sparse"):
            calls = view.of(kernel)
            in_cell = sum(view.ancestor(k, cell_names) == cell for k in calls)
            per_start = sum(sum(view.ancestor(k, solve_names) == s for k in calls) for s in starts)
            assert in_cell == per_start > 0, kernel


def test_uninstall_restores_every_binding():
    originals = (
        plap.bvp.solve,
        plap.regions.multi_start_solve,
        plap.cli.principal_eigenpair,
        plap.functions.Weight.__dict__["values"],
    )
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert plap.regions.multi_start_solve is not originals[1]
        assert plap.cli.principal_eigenpair is not originals[2]
    finally:
        tracer.uninstall()
    assert (
        plap.bvp.solve,
        plap.regions.multi_start_solve,
        plap.cli.principal_eigenpair,
        plap.functions.Weight.__dict__["values"],
    ) == originals


def test_exits_nonzero_without_plap_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("work", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "modes", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""

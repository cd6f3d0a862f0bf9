"""The benchmark's workloads and the checks on their outputs.

A workload is a round of ``plap`` command-line invocations, run in-process
through ``plap.cli.main`` on JSON configs written to the work directory.  The
runner repeats rounds for the run length and reports medians over rounds.
Every round checks every output against references that share no code with
plap's kernels: closed-form or independently assembled eigenvalues, the
theory's inequalities, and per-cell sign classes recorded from plap 0.1.0.

Randomness: ``--seed`` is passed to every invocation.  The sweeps run with
``n_random = 0``, because with plap's two random starts per cell the seed
alone moved the 1D sweep between 19 s and 26 s (33 against 42 failed starts)
on identical grids.  The seed still drives the random starts of ``modes``'
critval and the random trials of its picone-check.
"""

from __future__ import annotations

import csv
import json
import math
import shutil
import time
from dataclasses import dataclass, field

import numpy as np

import exact_eigen

CRIT10 = {
    "domain": {"kind": "interval", "bounds": [0.0, 1.0], "resolution": 64},
    "p": 2.0,
    "q": 1.5,
    "weights": {"m": 1, "a": 1, "f": 1},
}


@dataclass
class Round:
    """Timings, work and check results of one pass over a workload."""

    traced: bool
    wall: dict = field(default_factory=dict)  # mode -> summed invocation time, reference seconds when paced
    slowdown: dict = field(default_factory=dict)  # mode -> host slowdown while it ran, when paced
    setup_s: float = 0.0
    cells: int = 0
    cell_wall_s: float = 0.0
    starts: int = 0
    failed_starts: int = 0
    checks: list = field(default_factory=list)  # (name, ok, detail)

    def check(self, name, ok, detail=""):
        self.checks.append((name, bool(ok), detail))
        return bool(ok)

    def check_close(self, name, got, want, rel_tol):
        err = abs(got - want) / abs(want)
        return self.check(name, err <= rel_tol, f"got {got!r}, want {want!r}, rel err {err:.3g} > {rel_tol:.3g}")

    @property
    def wall_s(self):
        return sum(self.wall.values())


class Bench:
    """Runs CLI invocations for one process and times them."""

    def __init__(self, cli, config_module, work_dir, seed, tracer=None, pacer=None):
        self.cli = cli
        self.config = config_module
        self.work_dir = work_dir
        self.seed = seed
        self.tracer = tracer
        self.pacer = pacer  # when set, times are reference seconds (see pace.py)
        self._references = {}

    def reference(self, key, compute):
        """Reference value computed once per process, outside every timed region."""
        if key not in self._references:
            self._references[key] = compute()
        return self._references[key]

    def invoke(self, rnd, tag, mode, config, multi_start=False, repeat=1):
        """Run ``plap <mode>`` on config repeat times; returns the output directory, or None on a bad exit.

        The round records the mean time of the repeats, in reference seconds
        when the bench has a pacer: short invocations are repeated so that
        each timing covers about 0.5 s.
        Traced rounds run every invocation once, so their counts are per pass.
        """
        out_dir = self.work_dir / tag
        shutil.rmtree(out_dir, ignore_errors=True)
        out_dir.mkdir(parents=True)
        text = json.dumps({**config, "mode": mode}, sort_keys=True)
        cfg_path = out_dir / "config.json"
        cfg_path.write_text(text, encoding="utf-8")
        argv = [mode, "--config", str(cfg_path), "--out", str(out_dir), "--seed", str(self.seed)]
        codes = []
        mark = self._mark()
        start = time.perf_counter()
        for _ in range(1 if rnd.traced else repeat):
            if rnd.traced:
                with self.tracer.span(f"cli.{mode}"):
                    codes.append(self.cli.main(argv))
            else:
                codes.append(self.cli.main(argv))
        end = time.perf_counter()
        wall = self._seconds(start, end, mark, len(codes))
        if self.pacer is not None:
            rnd.slowdown[tag] = self.pacer.slowdown(end, mark)
        rnd.wall[mode] = rnd.wall.get(mode, 0.0) + wall
        if multi_start:
            rnd.cell_wall_s += wall
        if not rnd.traced:
            rnd.setup_s += self._setup_s(text, out_dir)
        ok = rnd.check(f"{tag}: exit codes", set(codes) == {0}, f"got {codes}")
        return out_dir if ok else None

    def _mark(self):
        return self.pacer.mark() if self.pacer is not None else 0

    def _seconds(self, start, end, mark, repeats=1):
        """Seconds per repeat of the work timed from start to end: reference seconds when paced."""
        if self.pacer is None:
            return (end - start) / repeats
        return self.pacer.reference_seconds(start, end, mark, repeats)

    def _setup_s(self, text, base_dir):
        """parse_config, build_mesh and every weight's nodal values, as the CLI does them."""
        mark = self._mark()
        start = time.perf_counter()
        cfg = self.config.parse_config(text, base_dir=str(base_dir))
        mesh = self.config.build_mesh(cfg)
        for weight in cfg.weights.values():
            weight.values(mesh)
        return self._seconds(start, time.perf_counter(), mark)


def _report(out_dir, mode):
    with open(out_dir / f"{mode.replace('-', '_')}_report.json", encoding="utf-8") as handle:
        return json.load(handle)["result"]


def _check_eta_star(rnd, tag, result):
    value, lower = result["value"], result["lower_bound"]
    rnd.check(f"{tag}: eta* finite", isinstance(value, float) and math.isfinite(value), f"got {value!r}")
    rnd.check(f"{tag}: lower bound reported", isinstance(lower, float) and lower > 0, f"got {lower!r}")
    if isinstance(value, float) and isinstance(lower, float):
        rnd.check(f"{tag}: eta* >= lower bound", value >= lower, f"eta* {value!r} < bound {lower!r}")


@dataclass
class SweepWorkload:
    """``plap eigen`` for lam1, then ``plap sweep`` on a grid placed at multiples of lam1.

    classes maps each grid cell (lam fraction, eta) to the distinct sign
    classes plap 0.1.0 found there.
    """

    base: dict
    lam_fracs: tuple
    etas: tuple
    classes: dict
    lam1_ref: tuple  # (value, relative tolerance)

    def run(self, bench, rnd):
        out = bench.invoke(rnd, "eigen", "eigen", self.base)
        if out is None:
            return
        lam1 = _report(out, "eigen")["lam"]
        rnd.check_close("eigen: lam1", lam1, *self.lam1_ref)

        lam_grid = [f * lam1 for f in self.lam_fracs]
        params = {"lam_grid": lam_grid, "eta_grid": list(self.etas), "n_random": 0}
        out = bench.invoke(rnd, "sweep", "sweep", {**self.base, "mode_params": params}, multi_start=True)
        if out is None:
            return
        summary = _report(out, "sweep")
        rnd.check("sweep: no counterexample", summary["counterexample_count"] == 0, f"{summary['counterexamples']}")
        rnd.check_close("sweep: lam1", summary["lam1"], *self.lam1_ref)
        if self.base["domain"]["kind"] == "interval":
            x0, x1 = self.base["domain"]["bounds"]
            want = exact_eigen.interval_eigenvalue(2, self.base["p"], x1 - x0)
            rnd.check_close("sweep: lam2_bound", summary["lam2_bound"], want, 1e-8)
        else:
            rnd.check("sweep: lam2_bound skipped in 2D", summary["lam2_bound"] == "inf", f"got {summary['lam2_bound']!r}")

        with open(out / "sweep.csv", newline="", encoding="utf-8") as handle:
            rows = list(csv.DictReader(handle))
        cells = {}
        for row in rows:
            cells.setdefault((float(row["lam"]), float(row["eta"])), []).append(row["sign_class"])
        expected = [(lam, frac, eta) for lam, frac in zip(lam_grid, self.lam_fracs) for eta in self.etas]
        rnd.check("sweep: cell grid", list(cells) == [(lam, eta) for lam, _, eta in expected], f"got {list(cells)}")
        for lam, frac, eta in expected:
            found = sorted({c for c in cells.get((lam, eta), []) if c != "failed"})
            want = self.classes[(frac, eta)]
            rnd.check(f"sweep: classes at {frac}*lam1, eta={eta}", found == want, f"got {found}, want {want}")
        rnd.cells += len(cells)
        rnd.starts += len(rows)
        rnd.failed_starts += sum(row["sign_class"] == "failed" for row in rows)


# lam1 of the unit square at p = 3 has no closed form; plap 0.1.0 gives this
# value on the 24x24 mesh, with eigen residual tolerance 1e-6
_SQUARE_P3_LAM1 = 62.687409744717336


SWEEP_1D = SweepWorkload(
    base={
        "domain": {"kind": "interval", "bounds": [0.0, 1.0], "resolution": 256},
        "p": 3.0,
        "q": 1.5,
        "weights": {"m": 1, "a": 1, "f": 1},
    },
    lam_fracs=(0.8, 1.9),
    etas=(0.0, 0.2),
    classes={
        **{(0.8, eta): ["positive"] for eta in (0.0, 0.2)},
        **{(1.9, eta): ["negative"] for eta in (0.0, 0.2)},
    },
    lam1_ref=(exact_eigen.interval_eigenvalue(1, 3.0, 1.0), exact_eigen.interval_tolerance(256)),
)

SWEEP_2D = SweepWorkload(
    base={
        "domain": {"kind": "rectangle", "bounds": [0.0, 1.0, 0.0, 1.0], "resolution": 24},
        "p": 3.0,
        "q": 1.5,
        "weights": {"m": 1, "a": 1, "f": "1 + 0.5*sin(3*x)*cos(2*y)"},
    },
    lam_fracs=(0.8, 1.2),
    etas=(0.0, 0.1),
    classes={
        **{(0.8, eta): ["positive"] for eta in (0.0, 0.1)},
        **{(1.2, eta): ["negative"] for eta in (0.0, 0.1)},
    },
    lam1_ref=(_SQUARE_P3_LAM1, 1e-5),
)


# 128x128 weighted p = 2 eigenproblem; the numpy form of the weight feeds the reference
_WEIGHTED_M = "1 + 0.5*sin(6*x)*sin(5*y)"


def _weighted_m(x, y):
    return 1.0 + 0.5 * np.sin(6.0 * x) * np.sin(5.0 * y)


def _nonuniformity_cells(result, params):
    """(lam, eta) points the nonuniformity run solved: two probes per member plus its lam scan.

    The scan walks n_lam points upward from lam1 and stops after the first
    one that is not all-negative; delta_hat marks the last all-negative point.
    """
    n_lam = params["n_lam"]
    lam1 = result["lam1"]
    scan = np.linspace(lam1 * (1.0 + 2e-3), lam1 + params["delta_span"], n_lam)
    cells = 0
    for member in result["members"]:
        if member["delta_hat"] == 0.0:
            scanned = 1
        else:
            last = int(np.argmin(np.abs(scan - lam1 - member["delta_hat"])))
            scanned = min(last + 2, n_lam)
        cells += 2 + scanned
    return cells


class ModesWorkload:
    """Every CLI mode except sweep: eigen at large n and on a weighted square, critval, solve, picone-check, nonuniformity."""

    def run(self, bench, rnd):
        base_4096 = {**SWEEP_1D.base, "domain": {"kind": "interval", "bounds": [0.0, 1.0], "resolution": 4096}}
        out = bench.invoke(rnd, "eigen-4096", "eigen", base_4096)
        if out is not None:
            want = exact_eigen.interval_eigenvalue(1, 3.0, 1.0)
            rnd.check_close("eigen-4096: lam1", _report(out, "eigen")["lam"], want, exact_eigen.interval_tolerance(4096))

        square = {
            "domain": {"kind": "rectangle", "bounds": [0.0, 1.0, 0.0, 1.0], "resolution": 128},
            "p": 2.0,
            "q": 1.5,
            "weights": {"m": _WEIGHTED_M, "a": 1, "f": "2 + cos(4*x)*exp(-y)"},
        }
        out = bench.invoke(rnd, "eigen-128x128", "eigen", square)
        if out is not None:
            want = bench.reference(
                "square128", lambda: exact_eigen.rectangle_eigenvalue_p2((0.0, 1.0, 0.0, 1.0), 128, 128, _weighted_m)
            )
            rnd.check_close("eigen-128x128: lam1", _report(out, "eigen")["lam"], want, 1e-8)

        params = {"lam_frac": 0.5, "n_starts": 32}
        out = bench.invoke(rnd, "critval", "critval", {**SWEEP_1D.base, "mode_params": params})
        if out is not None:
            _check_eta_star(rnd, "critval", _report(out, "critval"))

        out = bench.invoke(rnd, "solve", "solve", {**CRIT10, "mode_params": {"lam": 3.0, "eta": 0.1}})
        if out is not None:
            result = _report(out, "solve")
            rnd.check("solve: positive below lam1", result["sign_class"] == "positive", f"got {result['sign_class']}")

        out = bench.invoke(rnd, "picone-check", "picone-check", {**CRIT10, "mode_params": {"discrete_trials": 3}})
        if out is not None:
            result = _report(out, "picone-check")
            # p = 2: the polynomial is (q-1)(s+1)^2 >= 0; in 1D the discrete inequality holds cell by cell
            rnd.check("picone-check: polynomial holds", result["polynomial"]["holds"] is True)
            rnd.check("picone-check: no discrete violation", result["discrete"]["violations"] == 0, f"{result['discrete']}")

        params = {
            "family": [{"center": 0.958, "radius": 0.03}],
            "n_lam": 4,
            "delta_span": 0.8,
            "t_grid": [1.0],
            "n_random": 0,
        }
        out = bench.invoke(
            rnd, "nonuniformity", "nonuniformity", {**CRIT10, "mode_params": params}, multi_start=True, repeat=30
        )
        if out is not None:
            result = _report(out, "nonuniformity")
            member = result["members"][0]
            for key in ("classes_eta0", "classes_eta_small"):
                rnd.check(f"nonuniformity: {key}", member[key] == ["sign_changing"], f"got {member[key]}")
            rnd.check("nonuniformity: delta_hat", math.isclose(member["delta_hat"], 0.8, rel_tol=1e-12), f"got {member['delta_hat']}")
            rnd.cells += _nonuniformity_cells(result, params)
            # only the two probes per member report their failed starts; a
            # probe runs the zero start plus +-t*phi1 for every t in t_grid
            per_probe = 1 + 2 * len(params["t_grid"]) + params["n_random"]
            rnd.starts += 2 * per_probe * len(result["members"])
            rnd.failed_starts += sum(sum(m["failures"].values()) for m in result["members"])


WORKLOADS = {
    "sweep-1d-p3": SWEEP_1D,
    "sweep-2d-p3": SWEEP_2D,
    "modes": ModesWorkload(),
}

"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
"""

import contextlib
import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

import oracles
from plap import (
    DiscreteFunction,
    EtaStarOptions,
    ProblemSpec,
    SolveOptions,
    SubdomainMask,
    Weight,
    build_interval,
    discrete_picone_check,
    energy_smoothed,
    eta_star,
    jacobian,
    multi_start_solve,
    nonuniformity_experiment,
    picone_polynomial,
    picone_polynomial_check,
    principal_eigenpair,
    residual,
    solve,
    subdomain_eigenvalue,
    sweep,
    sup_norm,
)

ONE = Weight.constant(1.0)


@contextlib.contextmanager
def criterion(number, title):
    try:
        yield
    except BaseException:
        print(f"[ACCEPTANCE] criterion {number:2d} ({title}): FAIL")
        raise
    print(f"[ACCEPTANCE] criterion {number:2d} ({title}): PASS")


def spec_for(mesh, p, q=1.5, lam=0.0, eta=0.0, m=ONE, a=ONE, f=ONE):
    return ProblemSpec(mesh, p, q, lam, eta, m, a, f)


def test_criterion_1_eigenvalue_accuracy():
    with criterion(1, "eigenvalue accuracy and runtime"):
        mesh = build_interval(0, 1, 512)
        t0 = time.perf_counter()
        pair2 = principal_eigenpair(mesh, ONE, 2.0)
        runtime2 = time.perf_counter() - t0
        lam_oracle, _, _ = oracles.linear_eig_oracle_1d(512)
        assert abs(pair2.lam - math.pi**2) < 1e-2
        assert abs(pair2.lam - lam_oracle) < 1e-6
        assert runtime2 < 5.0

        t0 = time.perf_counter()
        pair3 = principal_eigenpair(mesh, ONE, 3.0)
        runtime3 = time.perf_counter() - t0
        lam_shoot = oracles.plap_shooting_oracle_1d(3.0)
        assert abs(pair3.lam - lam_shoot) / lam_shoot < 0.01
        assert runtime3 < 60.0


def test_criterion_2_domain_monotonicity(interval_512, pair_p2_512):
    with criterion(2, "domain monotonicity"):
        mask = SubdomainMask.from_predicate(interval_512, lambda x: x < 0.5)
        half = subdomain_eigenvalue(mask, ONE, 2.0)
        assert half.lam > pair_p2_512.lam
        assert abs(half.lam - 4 * math.pi**2) < 4e-2


@pytest.mark.parametrize("p", [2.0, 3.0])
def test_criterion_3_mp_region(p, interval_256):
    with criterion(3, f"MP region, p={p:g}"):
        pair = principal_eigenpair(interval_256, ONE, p)
        est = eta_star(
            interval_256, ONE, ONE, ONE, p, 1.5, 0.95 * pair.lam,
            EtaStarOptions(n_starts=16),
        )
        eta_small = 0.3 * est.value
        assert eta_small < est.value  # the positive eta stays below the estimate
        lam_grid = [f * pair.lam for f in (0.2, 0.5, 0.8, 0.95)]
        region_map = sweep(
            spec_for(interval_256, p),
            lam_grid,
            [-eta_small, 0.0, eta_small],
            SolveOptions(),
        )
        for cell in region_map.cells.values():
            assert cell.classes == ["positive"], (cell.lam, cell.eta, cell.classes)
        assert region_map.counterexamples == []


def test_criterion_4_amp_region_p2(interval_256, pair_p2_256):
    with criterion(4, "AMP region, p=2 full interval"):
        lam1 = pair_p2_256.lam
        lam_grid = np.linspace(1.05 * lam1 + 0.05, 3.8 * math.pi**2, 12)
        opts = SolveOptions(lam1=lam1, t_grid=(1.0, 4.0), n_random=1)
        for lam in lam_grid:
            ms = multi_start_solve(spec_for(interval_256, 2.0, lam=float(lam)), opts)
            assert len(ms.outcomes) >= 1
            for out in ms.outcomes:
                assert out.sign_class == "negative", (lam, out.sign_class)
                u_oracle = oracles.linear_bvp_oracle_1d(float(lam), np.ones(257), 256)
                assert np.max(np.abs(out.u.values - u_oracle)) < 1e-3


def test_criterion_4_amp_region_p3(interval_256, pair_p3_256):
    with criterion(4, "AMP region, p=3 measured half-width"):
        lam1 = pair_p3_256.lam
        lam_grid = [lam1 * (1 + f) for f in (0.01, 0.02, 0.04, 0.06, 0.08, 0.10)]
        region_map = sweep(spec_for(interval_256, 3.0), lam_grid, [0.0], SolveOptions())
        assert region_map.delta_hat_amp > 0.0
        first = region_map.cells[(0, 0)]
        assert first.classes == ["negative"]


def test_criterion_5_nonnegativity_region(interval_256, pair_p2_256):
    with criterion(5, "nonnegativity region below lam1"):
        lam1 = pair_p2_256.lam
        allowed = {"positive", "nonneg_with_zeros", "zero"}
        prev = None
        counterexamples = 0
        for frac in (0.0, 0.25, 0.5, 0.75, 0.95):
            lam = frac * lam1
            opts = EtaStarOptions(
                n_starts=12,
                extra_starts=[prev.minimizer] if prev is not None and prev.minimizer else [],
            )
            est = eta_star(interval_256, ONE, ONE, ONE, 2.0, 1.5, lam, opts)
            eta_grid = [0.0] + [s * est.value for s in (0.3, 0.6, 0.9)]
            region_map = sweep(
                spec_for(interval_256, 2.0),
                [lam],
                eta_grid,
                SolveOptions(t_grid=(1.0, 2.0), n_random=1),
            )
            counterexamples += len(region_map.counterexamples)
            for cell in region_map.cells.values():
                assert set(cell.classes) <= allowed, (cell.lam, cell.eta, cell.classes)
                # no strictly negative interior vertex below -tau, by classification
            prev = est
        assert counterexamples == 0


def test_criterion_6_eta_star_bracketing(interval_256, pair_p2_256):
    with criterion(6, "eta* bracketing and monotone collapse"):
        lam1 = pair_p2_256.lam
        values = []
        prev = None
        for frac in (0.0, 0.25, 0.5, 0.75):
            opts = EtaStarOptions(
                extra_starts=[prev.minimizer] if prev is not None and prev.minimizer else [],
            )
            res = eta_star(interval_256, ONE, ONE, ONE, 2.0, 1.5, frac * lam1, opts)
            assert math.isfinite(res.value)
            assert res.lower_bound is not None
            assert res.value >= res.lower_bound - 1e-9
            values.append(res.value)
            prev = res
        assert values[0] > values[1] > values[2] > values[3]


def test_criterion_7_picone_suite():
    with criterion(7, "Picone polynomial and discrete inequality"):
        for q in np.linspace(1.01, 1.99, 50):
            assert picone_polynomial_check(2.0, float(q)).holds
        failing = picone_polynomial_check(3.0, 1.5)
        assert not failing.holds
        assert picone_polynomial(3.0, 1.5, 0.0) == -0.5  # exact at s = 0
        assert failing.min_value <= -0.5

        mesh = build_interval(0, 1, 64)
        fine = build_interval(0, 1, 128)
        violations = 0
        for p in (1.5, 2.0, 3.0):
            for eps in (1e-1, 1e-3):
                rng = np.random.default_rng(int(p * 1000 + eps * 1e6))
                for _ in range(200):
                    uv = np.zeros(mesh.n_vertices)
                    uv[mesh.interior_vertices] = rng.random(len(mesh.interior_vertices))
                    pv = np.zeros(mesh.n_vertices)
                    pv[mesh.interior_vertices] = rng.standard_normal(len(mesh.interior_vertices))
                    chk = discrete_picone_check(
                        DiscreteFunction(mesh, uv), DiscreteFunction(mesh, pv), p, eps
                    )
                    if not chk.holds:
                        uf = np.interp(fine.vertices[:, 0], mesh.vertices[:, 0], uv)
                        pf = np.interp(fine.vertices[:, 0], mesh.vertices[:, 0], pv)
                        chk = discrete_picone_check(
                            DiscreteFunction(fine, uf), DiscreteFunction(fine, pf), p, eps
                        )
                        if not chk.holds:
                            violations += 1
        assert violations == 0


def test_criterion_8_gradient_jacobian_consistency():
    with criterion(8, "finite-difference consistency"):
        rng = np.random.default_rng(8)
        mesh = build_interval(0, 1, 12)
        for p, q in ((1.5, 1.2), (2.0, 1.5), (3.0, 1.5)):
            for _ in range(20):
                spec = spec_for(mesh, p, q=q, lam=rng.uniform(-1, 3), eta=rng.uniform(-1, 1))
                vals = np.zeros(mesh.n_vertices)
                vals[mesh.interior_vertices] = rng.standard_normal(len(mesh.interior_vertices))
                u = DiscreteFunction(mesh, vals)
                r = residual(spec, u)
                fd = np.zeros_like(r)
                for k, vtx in enumerate(mesh.interior_vertices):
                    h = 1e-5 * (1 + abs(vals[vtx]))
                    up, dn = vals.copy(), vals.copy()
                    up[vtx] += h
                    dn[vtx] -= h
                    fd[k] = (
                        energy_smoothed(spec, DiscreteFunction(mesh, up))
                        - energy_smoothed(spec, DiscreteFunction(mesh, dn))
                    ) / (2 * h)
                assert np.max(np.abs(r - fd)) / (1 + np.max(np.abs(fd))) < 1e-6

                J = jacobian(spec, u).toarray()
                fd_jac = np.zeros_like(J)
                for k, vtx in enumerate(mesh.interior_vertices):
                    # smaller step than the gradient test: for p < 2 the
                    # kernel curvature near degenerate gradients makes the
                    # truncation term the binding error
                    h = 1e-7 * (1 + abs(vals[vtx]))
                    up, dn = vals.copy(), vals.copy()
                    up[vtx] += h
                    dn[vtx] -= h
                    fd_jac[:, k] = (
                        residual(spec, DiscreteFunction(mesh, up))
                        - residual(spec, DiscreteFunction(mesh, dn))
                    ) / (2 * h)
                assert np.max(np.abs(J - fd_jac)) / (1 + np.max(np.abs(fd_jac))) < 1e-5


def test_criterion_9_nonuniformity_trend(interval_512, pair_p2_512):
    with criterion(9, "nonuniformity of the AMP"):
        family = [
            ("b1", Weight.expression("bump(0.958, 0.012)")),
            ("b2", Weight.expression("bump(0.97, 0.012)")),
            ("b3", Weight.expression("bump(0.982, 0.012)")),
        ]
        report = nonuniformity_experiment(
            interval_512, 2.0, 1.5, ONE, ONE, 1.0, family,
            eta_small=0.05, n_lam=26, delta_span=1.0,
            opts=SolveOptions(t_grid=(1.0,), n_random=1),
        )
        lam = report.lam_probe
        for label, f in family:
            out = solve(
                spec_for(interval_512, 2.0, lam=lam, f=f),
                opts=SolveOptions(lam1=report.lam1),
            )
            u_oracle = oracles.linear_bvp_oracle_1d(lam, f.values(interval_512), 512)
            scale = 1 + np.max(np.abs(u_oracle))
            assert np.max(np.abs(out.u.values - u_oracle)) < 1e-8 * scale
            assert out.sign_class == "sign_changing"
        for member in report.members:
            assert member["classes_eta0"] == ["sign_changing"]
        d = report.delta_hats
        assert d[0] > d[1] > d[2] > 0


def _run_cli(mode, cfg, tmp_path, out=None, seed=None, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    cmd = [sys.executable, "-m", "plap", mode, "--config", str(path), "--out", str(out or tmp_path)]
    if seed is not None:
        cmd += ["--seed", str(seed)]
    return subprocess.run(cmd, capture_output=True, text=True)


def test_criterion_10_determinism_and_interfaces(tmp_path):
    with criterion(10, "determinism and CLI exit codes"):
        base = {
            "domain": {"kind": "interval", "bounds": [0, 1], "resolution": 64},
            "p": 2.0,
            "q": 1.5,
            "weights": {"m": 1, "a": 1, "f": 1},
            "seed": 3,
        }

        def cfg(mode, **mode_params):
            out = json.loads(json.dumps(base))
            out["mode"] = mode
            out["mode_params"] = mode_params
            return out

        # byte-identical CSV for identical config + seed
        sweep_cfg = cfg("sweep", lam_grid=[2.0, 12.0], eta_grid=[-0.2, 0.0, 0.2], t_grid=[1.0], n_random=1)
        o1, o2 = tmp_path / "o1", tmp_path / "o2"
        assert _run_cli("sweep", sweep_cfg, tmp_path, out=o1).returncode == 0
        assert _run_cli("sweep", sweep_cfg, tmp_path, out=o2).returncode == 0
        assert (o1 / "sweep.csv").read_bytes() == (o2 / "sweep.csv").read_bytes()

        # every subcommand end-to-end
        assert _run_cli("eigen", cfg("eigen"), tmp_path).returncode == 0
        assert _run_cli("solve", cfg("solve", lam=3.0, eta=0.1), tmp_path).returncode == 0
        assert _run_cli("critval", cfg("critval", lam_frac=0.5, n_starts=4), tmp_path).returncode == 0
        assert _run_cli("picone-check", cfg("picone-check", discrete_trials=3), tmp_path).returncode == 0
        nu = cfg(
            "nonuniformity",
            family=[{"center": 0.958, "radius": 0.03}],
            n_lam=4, delta_span=0.8, t_grid=[1.0], n_random=0,
        )
        assert _run_cli("nonuniformity", nu, tmp_path).returncode == 0

        # exit-code contracts
        bad = cfg("eigen")
        bad["q"] = 2.5
        assert _run_cli("eigen", bad, tmp_path).returncode == 2
        stall = cfg("eigen", tol=1e-15, max_outer=2)
        stall["p"] = 3.0
        assert _run_cli("eigen", stall, tmp_path).returncode == 3
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        assert _run_cli("eigen", cfg("eigen"), tmp_path, out=blocker / "x").returncode == 4
        cex = cfg("sweep", lam_grid=[3.0], eta_grid=[0.0], lam1=1.0, t_grid=[1.0], n_random=0)
        assert _run_cli("sweep", cex, tmp_path).returncode == 5

import math

import numpy as np
import pytest

import oracles
from plap import (
    DiscreteFunction,
    InvalidConfig,
    NonConvergence,
    ProblemSpec,
    SolveOptions,
    Weight,
    build_interval,
    build_rectangle,
    classify_sign,
    energy,
    energy_smoothed,
    grad_energy,
    jacobian,
    multi_start_solve,
    residual,
    solve,
    sup_norm,
)


def make_spec(mesh, p=2.0, q=1.5, lam=0.0, eta=0.0, m=1.0, a=1.0, f=1.0):
    return ProblemSpec(
        mesh, p, q, lam, eta, Weight.constant(m), Weight.constant(a), Weight.constant(f)
    )


def test_spec_validates_exponents(interval_256):
    with pytest.raises(Exception):
        make_spec(interval_256, p=2.0, q=2.5)
    with pytest.raises(Exception):
        make_spec(interval_256, p=2.0, q=1.0)


def test_energy_of_zero(interval_256):
    for p, q, lam, eta in ((2.0, 1.5, 3.0, -1.0), (3.0, 1.2, -2.0, 0.7)):
        spec = make_spec(interval_256, p=p, q=q, lam=lam, eta=eta)
        assert energy(spec, DiscreteFunction.zeros(interval_256)) == 0.0


def test_energy_vanishes_at_eigenpair(interval_256, pair_p2_256):
    spec = make_spec(interval_256, lam=pair_p2_256.lam, f=0.0)
    assert abs(energy(spec, pair_p2_256.phi)) < 1e-10


def test_energy_torsion_value():
    # u = x(1-x)/2 minimizes (1/2) int u'^2 - int u; exact integrals give
    # E = (1/2)(1/12) - 1/12 = -1/24
    mesh = build_interval(0, 1, 1024)
    spec = make_spec(mesh)
    x = mesh.vertices[:, 0]
    u = DiscreteFunction(mesh, x * (1 - x) / 2)
    assert energy(spec, u) == pytest.approx(-1.0 / 24.0, abs=1e-6)


def test_residual_zero_state(interval_256):
    spec = make_spec(interval_256, p=3.0, lam=2.0, eta=0.5, f=0.0)
    r = residual(spec, DiscreteFunction.zeros(interval_256))
    assert np.max(np.abs(r)) == 0.0


def test_residual_at_eigenpair(interval_256, pair_p2_256, pair_p3_256):
    for pair, p, tol in ((pair_p2_256, 2.0, 1e-8), (pair_p3_256, 3.0, 1e-6)):
        spec = make_spec(interval_256, p=p, lam=pair.lam, f=0.0)
        r = residual(spec, pair.phi)
        assert np.linalg.norm(r) <= 1.5 * tol


@pytest.mark.parametrize("p,q", [(1.5, 1.2), (2.0, 1.5), (3.0, 1.5)])
def test_residual_is_energy_gradient(p, q, rng):
    mesh = build_interval(0, 1, 12)
    spec = make_spec(mesh, p=p, q=q, lam=1.7, eta=0.6)
    vals = np.zeros(mesh.n_vertices)
    vals[mesh.interior_vertices] = rng.standard_normal(len(mesh.interior_vertices))
    u = DiscreteFunction(mesh, vals)
    r = residual(spec, u)
    fd = np.zeros_like(r)
    for k, vtx in enumerate(mesh.interior_vertices):
        h = 1e-5 * (1 + abs(vals[vtx]))
        up = vals.copy()
        up[vtx] += h
        dn = vals.copy()
        dn[vtx] -= h
        fd[k] = (
            energy_smoothed(spec, DiscreteFunction(mesh, up))
            - energy_smoothed(spec, DiscreteFunction(mesh, dn))
        ) / (2 * h)
    assert np.max(np.abs(r - fd)) / (1 + np.max(np.abs(fd))) < 1e-6


def test_jacobian_linear_case_is_stiffness_minus_mass(interval_256, rng):
    spec = make_spec(interval_256, lam=3.7)
    vals = np.zeros(interval_256.n_vertices)
    vals[interval_256.interior_vertices] = rng.standard_normal(len(interval_256.interior_vertices))
    J = jacobian(spec, DiscreteFunction(interval_256, vals))
    # closed-form P1 stiffness on a uniform grid: tridiag(-1, 2, -1) / h
    n, h = len(interval_256.interior_vertices), 1.0 / 256
    K = (2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)) / h
    lumped = interval_256.lumped_volumes[interval_256.interior_vertices]
    diff = J.toarray() - K + 3.7 * np.diag(lumped)
    assert np.max(np.abs(diff)) < 1e-12
    # and independent of u
    J0 = jacobian(spec, DiscreteFunction.zeros(interval_256))
    assert np.max(np.abs((J - J0).toarray())) < 1e-12


@pytest.mark.parametrize("p,q", [(2.0, 1.5), (3.0, 1.5)])
def test_jacobian_matches_fd_residual(p, q, rng):
    mesh = build_interval(0, 1, 10)
    spec = make_spec(mesh, p=p, q=q, lam=1.2, eta=0.4)
    vals = np.zeros(mesh.n_vertices)
    vals[mesh.interior_vertices] = rng.standard_normal(len(mesh.interior_vertices))
    u = DiscreteFunction(mesh, vals)
    J = jacobian(spec, u).toarray()
    fd = np.zeros_like(J)
    for k, vtx in enumerate(mesh.interior_vertices):
        h = 1e-5 * (1 + abs(vals[vtx]))
        up = vals.copy()
        up[vtx] += h
        dn = vals.copy()
        dn[vtx] -= h
        fd[:, k] = (residual(spec, DiscreteFunction(mesh, up)) - residual(spec, DiscreteFunction(mesh, dn))) / (
            2 * h
        )
    assert np.max(np.abs(J - fd)) / (1 + np.max(np.abs(fd))) < 1e-5


def test_jacobian_symmetry(rng):
    mesh = build_rectangle(0, 1, 0, 1, 5, 5)
    spec = make_spec(mesh, p=3.0, q=1.5, lam=2.0, eta=1.0)
    vals = rng.standard_normal(mesh.n_vertices)
    vals[mesh.boundary_vertices] = 0.0
    J = jacobian(spec, DiscreteFunction(mesh, vals))
    assert abs(J - J.T).max() <= 1e-12


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_kernel_linearization_eigenvalue_bounds(p, rng):
    # the per-cell linearization |z|^{p-2} (I + (p-2) z z^T/|z|^2) has
    # eigenvalues |z|^{p-2} and (p-1)|z|^{p-2}
    for _ in range(10):
        z = rng.standard_normal(2)
        zn = np.linalg.norm(z)
        A = zn ** (p - 2) * (np.eye(2) + (p - 2) * np.outer(z, z) / zn**2)
        eigs = np.linalg.eigvalsh(A)
        lo = min(1.0, p - 1.0) * zn ** (p - 2)
        hi = max(1.0, p - 1.0) * zn ** (p - 2)
        assert np.all(eigs >= lo - 1e-12 * hi)
        assert np.all(eigs <= hi + 1e-12 * hi)
        np.testing.assert_allclose(sorted(eigs), sorted([zn ** (p - 2), (p - 1) * zn ** (p - 2)]), rtol=1e-12)


def test_solve_torsion(interval_256):
    spec = make_spec(interval_256)
    out = solve(spec)
    x = interval_256.vertices[:, 0]
    assert sup_norm(out.u - DiscreteFunction(interval_256, x * (1 - x) / 2)) < 1e-4
    assert out.sign_class == "positive"
    assert np.all(out.boundary_flux_sign == -1)


def test_solve_amp_closed_form(interval_256):
    lam = 1.5 * math.pi**2
    spec = make_spec(interval_256, lam=lam)
    out = solve(spec, opts=SolveOptions(lam1=math.pi**2))
    x = interval_256.vertices[:, 0]
    closed = (1 / lam) * (np.cos(math.sqrt(lam) * (x - 0.5)) / math.cos(math.sqrt(lam) / 2) - 1)
    assert sup_norm(out.u - DiscreteFunction(interval_256, closed)) < 1e-3
    assert out.sign_class == "negative"
    assert np.all(out.boundary_flux_sign == 1)


def test_solve_rejects_an_unknown_init_name(interval_256):
    with pytest.raises(InvalidConfig, match="bogus"):
        solve(make_spec(interval_256), "bogus")


def test_solve_zero_data(interval_256):
    spec = make_spec(interval_256, lam=5.0, f=0.0)
    out = solve(spec, opts=SolveOptions(lam1=math.pi**2))
    assert out.sign_class == "zero"
    assert out.sup_norm == 0.0


def test_solution_scaling_law(interval_256, pair_p3_256):
    # if u solves (lam, 0, f) then c*u solves (lam, 0, c^{p-1} f)
    c, p = 2.0, 3.0
    spec1 = make_spec(interval_256, p=p, lam=2.0)
    spec2 = make_spec(interval_256, p=p, lam=2.0, f=c ** (p - 1))
    opts = SolveOptions(lam1=pair_p3_256.lam)
    u1 = solve(spec1, opts=opts).u
    u2 = solve(spec2, opts=opts).u
    assert sup_norm(u2 - c * u1) < 1e-6 * sup_norm(u2)


@pytest.mark.parametrize("p", [2.0, 3.0])
def test_below_lam1_energy_coercivity(p, interval_256, pair_p2_256, pair_p3_256):
    pair = pair_p2_256 if p == 2.0 else pair_p3_256
    spec = make_spec(interval_256, p=p, lam=0.9 * pair.lam)
    out = solve(spec, opts=SolveOptions(lam1=pair.lam))
    # the zero function has zero energy; a global minimizer with int f u > 0 beats it
    assert out.energy <= 1e-12


def test_sup_bound_diagnostic_reported(interval_256):
    out = solve(make_spec(interval_256))
    ratio = out.diagnostics["sup_bound_ratio"]
    assert math.isfinite(ratio) and ratio > 0


def test_multi_start_unique_linear(interval_256, pair_p2_256):
    for lam in (0.5 * pair_p2_256.lam, 1.2 * pair_p2_256.lam):
        spec = make_spec(interval_256, lam=lam)
        ms = multi_start_solve(spec, SolveOptions(lam1=pair_p2_256.lam))
        assert len(ms) == 1
        assert ms[0].residual_norm < 1e-9


def test_multi_start_p3_below_lam1_all_positive(interval_256, pair_p3_256):
    spec = make_spec(interval_256, p=3.0, lam=0.95 * pair_p3_256.lam)
    ms = multi_start_solve(spec, SolveOptions(lam1=pair_p3_256.lam))
    assert len(ms.outcomes) >= 1
    assert all(o.sign_class == "positive" for o in ms.outcomes)


def test_multi_start_never_raises_at_resonance(interval_256, pair_p2_256):
    spec = make_spec(interval_256, lam=pair_p2_256.lam)
    ms = multi_start_solve(spec, SolveOptions(lam1=pair_p2_256.lam))
    assert len(ms.per_start) >= 1  # never aborts the batch


def test_multi_start_without_phi1_solves_its_own_eigenpair(interval_256, pair_p3_256):
    # own fills in lam1 from its eigensolve; given sets it by hand
    spec = make_spec(interval_256, p=3.0, lam=0.5 * pair_p3_256.lam)
    own = multi_start_solve(spec, SolveOptions(n_random=1))
    given = multi_start_solve(spec, SolveOptions(n_random=1, lam1=pair_p3_256.lam))
    assert len(own.per_start) == 12  # zero, +-t*phi1 for five t, random0
    for (label, out, err), (label_g, out_g, err_g) in zip(own.per_start, given.per_start, strict=True):
        assert (label, err) == (label_g, err_g)
        assert (out is None) == (out_g is None)
        if out is not None:
            assert out.u.values.tobytes() == out_g.u.values.tobytes()
            assert (out.residual_norm, out.newton_iters) == (out_g.residual_norm, out_g.newton_iters)


def test_multi_start_drops_phi1_starts_when_the_eigensolve_fails(interval_256):
    # m = -1 has no positive part, so there is no principal eigenpair and no +-t*phi1 start
    ms = multi_start_solve(make_spec(interval_256, p=3.0, lam=1.0, m=-1.0), SolveOptions(n_random=1))
    assert [label for label, _, _ in ms.per_start] == ["zero", "random0"]


def test_margin_that_drops_every_interior_vertex_keeps_them_all():
    # 0.1 * diameter is about 1 here, ten times the width of the strip
    mesh = build_rectangle(0.0, 10.0, 0.0, 0.1, 20, 4)
    vals = np.zeros(mesh.n_vertices)
    vals[mesh.interior_vertices] = 1.0
    vals[mesh.interior_vertices[0]] = -1.0
    u = DiscreteFunction(mesh, vals)
    assert classify_sign(u, margin=0.1) == classify_sign(u) == "sign_changing"
    assert classify_sign(DiscreteFunction(mesh, np.abs(vals)), margin=0.1) == "positive"


def test_classifier_thresholds(interval_256):
    n = interval_256.n_vertices
    interior = interval_256.interior_vertices
    vals = np.zeros(n)
    assert classify_sign(DiscreteFunction(interval_256, vals)) == "zero"
    vals[interior] = 1.0
    assert classify_sign(DiscreteFunction(interval_256, vals)) == "positive"
    assert classify_sign(DiscreteFunction(interval_256, -vals)) == "negative"
    vals[interior[0]] = 0.0
    assert classify_sign(DiscreteFunction(interval_256, vals)) == "nonneg_with_zeros"
    assert classify_sign(DiscreteFunction(interval_256, -vals)) == "nonpos_with_zeros"
    vals[interior[0]] = -1.0
    assert classify_sign(DiscreteFunction(interval_256, vals)) == "sign_changing"


def test_solver_matches_linear_oracle(interval_512, pair_p2_512):
    lam = 0.5 * math.pi**2
    out = solve(make_spec(interval_512, lam=lam), opts=SolveOptions(lam1=pair_p2_512.lam))
    u_oracle = oracles.linear_bvp_oracle_1d(lam, np.ones(513), 512)
    assert np.max(np.abs(out.u.values - u_oracle)) < 1e-9
    assert out.sign_class == "positive"


# Per start at eta = 0 (p=3, q=1.5, m=a=f=1, n=256, n_random=0): (sign class,
# sup norm, Newton iterations) of each converged start.  At 0.8 lam1 an energy
# step frees neg_phi1_t2 and neg_phi1_t4 from the stall near u = 0, which
# failed them before the rescue; 1.9 lam1 lies above lam1, where the rescue is
# off and every start ends as before it.
STALL_CELL_CONVERGED = {
    0.8: {
        "zero": ("positive", 0.543517094, 9),
        "pos_phi1_t0.5": ("positive", 0.543517094, 5),
        "neg_phi1_t0.5": ("positive", 0.543517094, 9),
        "pos_phi1_t1": ("positive", 0.543517094, 6),
        "neg_phi1_t1": ("positive", 0.543517094, 8),
        "pos_phi1_t2": ("positive", 0.543517094, 7),
        "neg_phi1_t2": ("positive", 0.543517094, 26),
        "pos_phi1_t4": ("positive", 0.543517094, 8),
        "neg_phi1_t4": ("positive", 0.543517094, 33),
        "pos_phi1_t8": ("positive", 0.543517094, 9),
    },
    1.9: {
        "zero": ("negative", 0.268247332, 9),
        "pos_phi1_t0.5": ("negative", 0.268247332, 16),
        "neg_phi1_t0.5": ("negative", 0.268247332, 6),
        "neg_phi1_t1": ("negative", 0.268247332, 7),
        "neg_phi1_t2": ("negative", 0.268247332, 8),
        "neg_phi1_t4": ("negative", 0.268247332, 9),
        "neg_phi1_t8": ("negative", 0.268247332, 10),
    },
}
# residual evaluations of the cell's failed starts when a rung could only end
# by exhausting its line search (t <= 1e-10) or max_newton: the three failed
# starts at 0.8 lam1 and the four at 1.9 lam1
STALL_CELL_FAILED_EVALS_BEFORE = {0.8: 7647, 1.9: 11407}


def _check_stall_cell(lam_frac, interval_256, pair_p3_256, monkeypatch):
    import plap.bvp as bvp
    import plap.fem as fem

    calls = [0]  # residual evaluations: one per vector, one per row of a stack
    p_flux, solve_one = fem.p_flux, bvp.solve

    def counting_p_flux(mesh, values, *args, **kw):
        calls[0] += 1 if values.ndim == 1 else len(values)
        return p_flux(mesh, values, *args, **kw)

    failed_evals = []

    def counting_solve(*args, **kw):
        before = calls[0]
        try:
            return solve_one(*args, **kw)
        except NonConvergence:
            failed_evals.append(calls[0] - before)
            raise

    monkeypatch.setattr(fem, "p_flux", counting_p_flux)
    monkeypatch.setattr(bvp, "solve", counting_solve)
    spec = make_spec(interval_256, p=3.0, lam=lam_frac * pair_p3_256.lam)
    ms = multi_start_solve(spec, SolveOptions(n_random=0, lam1=pair_p3_256.lam))

    converged = {
        label: (out.sign_class, round(out.sup_norm, 9), out.newton_iters)
        for label, out, _ in ms.per_start
        if out is not None
    }
    assert converged == STALL_CELL_CONVERGED[lam_frac]
    assert len(failed_evals) == len(ms.per_start) - len(converged) == {0.8: 1, 1.9: 4}[lam_frac]
    assert sum(failed_evals) <= STALL_CELL_FAILED_EVALS_BEFORE[lam_frac] / 3
    assert all(err.startswith("NonConvergence: Newton stalled: residual") for _, err in ms.failures)


def test_stalled_starts_fail_cheaply(interval_256, pair_p3_256, monkeypatch):
    _check_stall_cell(0.8, interval_256, pair_p3_256, monkeypatch)


def test_stalled_starts_fail_cheaply_above_lam1(interval_256, pair_p3_256, monkeypatch):
    _check_stall_cell(1.9, interval_256, pair_p3_256, monkeypatch)


def test_failed_start_names_its_energy_steps(interval_256, pair_p3_256):
    # on the bump grid at 0.8 lam1 the final rung of -phi1 takes an energy step,
    # then runs out of its 20 iterations
    spec = make_spec(interval_256, p=3.0, lam=0.8 * pair_p3_256.lam)
    spec = spec.replace(f=Weight.expression("bump(0.9, 0.05)"))
    opts = SolveOptions(n_random=0, lam1=pair_p3_256.lam, max_newton=20)
    ms = multi_start_solve(spec, opts)
    errors = dict(ms.failures)
    assert errors["neg_phi1_t1"].startswith("NonConvergence: Newton max_newton after 1 energy step: residual")
    with pytest.raises(NonConvergence, match="Newton stalled: residual"):
        # the same start without lam1 takes no energy step
        solve(spec, -pair_p3_256.phi.values, SolveOptions(max_newton=20))


def test_failed_start_names_max_newton(interval_256, pair_p3_256):
    # one Newton iteration per rung is too few for the zero start and most others
    spec = make_spec(interval_256, p=3.0, lam=0.8 * pair_p3_256.lam)
    opts = SolveOptions(n_random=0, lam1=pair_p3_256.lam, max_newton=1)
    with pytest.raises(NonConvergence, match="Newton max_newton"):
        solve(spec, opts=opts)
    ms = multi_start_solve(spec, opts)
    assert len(ms.failures) >= 9
    assert all(err.startswith("NonConvergence: Newton max_newton") for _, err in ms.failures)


@pytest.mark.parametrize(
    "build",
    [
        lambda: build_interval(0.0, 1.0, 2),
        lambda: build_interval(0.0, 1.0, 64),
        lambda: build_interval(0.0, 1.0, 256),
        lambda: build_interval(-1.0, 2.0, 4096),
        lambda: build_rectangle(0.0, 1.0, 0.0, 1.0, 24, 24),
        lambda: build_rectangle(0.0, 1.0, 0.0, 1.0, 128, 128),
        lambda: build_rectangle(0.0, 2.0, 0.0, 1.0, 16, 5),
        lambda: build_rectangle(-1.0, 1.0, 0.0, 0.5, 2, 7),
    ],
    ids=["interval-2", "interval-64", "interval-256", "interval-4096", "square-24", "square-128", "rect-16x5", "rect-2x7"],
)
def test_nearest_interior_vertex_matches_kd_tree(build):
    from scipy.spatial import cKDTree

    from plap.bvp import _nearest_interior

    mesh = build()
    _, want = cKDTree(mesh.vertices[mesh.interior_vertices]).query(mesh.vertices[mesh.boundary_vertices])
    np.testing.assert_array_equal(_nearest_interior(mesh), want)
    assert _nearest_interior(mesh) is _nearest_interior(mesh)


@pytest.mark.parametrize("module", ["scipy.spatial", "scipy.fft"])
def test_cli_import_skips_scipy_spatial(module):
    import subprocess
    import sys

    code = f"import sys, plap.cli; print({module!r} in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"

import math
import re
import warnings

import numpy as np
import pytest

import oracles
from plap import (
    EigenOptions,
    EmptyAdmissibleSet,
    SubdomainMask,
    Weight,
    build_interval,
    build_rectangle,
    principal_eigenpair,
    principal_eigenpair_negative,
    second_eigenvalue_1d,
    subdomain_eigenvalue,
    sup_norm,
)


def test_principal_p2_matches_oracle(interval_512, one, pair_p2_512):
    lam_oracle, _, phi_oracle = oracles.linear_eig_oracle_1d(512)
    assert pair_p2_512.lam == pytest.approx(math.pi**2, abs=1e-2)
    assert pair_p2_512.lam == pytest.approx(lam_oracle, rel=1e-8)
    # same discretization, so the eigenvectors agree to solver tolerance
    assert np.max(np.abs(pair_p2_512.phi.values - phi_oracle)) < 1e-6


def test_principal_p3_matches_shooting(pair_p3_512):
    lam_shoot = oracles.plap_shooting_oracle_1d(3.0)
    assert abs(pair_p3_512.lam - lam_shoot) / lam_shoot < 0.01


def test_weight_scaling(interval_256, one, pair_p2_256):
    scaled = principal_eigenpair(interval_256, Weight.constant(3.0), 2.0)
    assert scaled.lam == pytest.approx(pair_p2_256.lam / 3.0, rel=1e-7)
    assert np.max(np.abs(scaled.phi.values - pair_p2_256.phi.values)) < 1e-6


def test_eigenpair_contract(pair_p2_512, pair_p3_512, one):
    from plap import weighted_power_integral

    for pair, p in ((pair_p2_512, 2.0), (pair_p3_512, 3.0)):
        assert np.all(pair.phi.values >= 0)
        assert sup_norm(pair.phi) == pytest.approx(1.0, abs=1e-14)
        assert weighted_power_integral(one, pair.phi, p) > 0
        hist = pair.rq_history
        assert all(b <= a + 1e-9 * (1 + abs(a)) for a, b in zip(hist, hist[1:]))


def test_interior_positivity(pair_p2_512, pair_p3_512):
    for pair in (pair_p2_512, pair_p3_512):
        interior = pair.phi.mesh.interior_vertices
        assert np.all(pair.phi.values[interior] > 0)


def test_negative_principal(interval_512):
    pair = principal_eigenpair_negative(interval_512, Weight.constant(-1.0), 2.0)
    assert pair.lam == pytest.approx(-math.pi**2, abs=1e-2)
    assert np.all(pair.phi.values >= 0)


def test_negative_requires_negative_part(interval_512, one):
    with pytest.raises(EmptyAdmissibleSet):
        principal_eigenpair_negative(interval_512, one, 2.0)


def test_indefinite_symmetric_weight(interval_512):
    x = interval_512.vertices[:, 0]
    m = Weight.nodal(np.sign(x - 0.5))
    m_flip = Weight.nodal(-np.sign(x - 0.5))
    pos = principal_eigenpair(interval_512, m, 2.0)
    neg_weight = principal_eigenpair(interval_512, m_flip, 2.0)
    assert pos.lam > 0
    assert principal_eigenpair_negative(interval_512, m, 2.0).lam == pytest.approx(
        -neg_weight.lam, rel=1e-9
    )
    # reflection symmetry m(1-x) = -m(x)
    assert pos.lam == pytest.approx(neg_weight.lam, rel=1e-7)


def test_empty_admissible_set(interval_256):
    with pytest.raises(EmptyAdmissibleSet):
        principal_eigenpair(interval_256, Weight.constant(-1.0), 2.0)


def test_mask_without_an_interior_vertex_is_empty(interval_256, one):
    mask = SubdomainMask(interval_256, interval_256.boundary_vertices)
    with pytest.raises(EmptyAdmissibleSet, match="no interior vertices"):
        principal_eigenpair(mask, one, 2.0)
    assert subdomain_eigenvalue(mask, one, 2.0).lam == math.inf


def test_subdomain_half_interval(interval_512, one):
    mask = SubdomainMask.from_predicate(interval_512, lambda x: x < 0.5)
    lam_half_oracle, _, _ = oracles.linear_eig_oracle_1d(256, length=0.5)
    pair = subdomain_eigenvalue(mask, one, 2.0)
    assert pair.lam == pytest.approx(4 * math.pi**2, abs=4e-2)
    assert pair.lam == pytest.approx(lam_half_oracle, rel=1e-7)


def test_domain_monotonicity(interval_512, one, pair_p2_512):
    mask = SubdomainMask.from_predicate(interval_512, lambda x: x < 0.7)
    sub = subdomain_eigenvalue(mask, one, 2.0)
    assert sub.lam > pair_p2_512.lam


def test_subdomain_sentinel(interval_256):
    mask = SubdomainMask.from_predicate(interval_256, lambda x: x < 0.5)
    pair = subdomain_eigenvalue(mask, Weight.constant(-2.0), 2.0)
    assert pair.lam == math.inf
    assert sup_norm(pair.phi) == 0.0


def test_second_eigenvalue_p2():
    lam2 = second_eigenvalue_1d(0.0, 1.0, 2.0)
    assert lam2 == pytest.approx(4 * math.pi**2, abs=1e-3)


def test_second_eigenvalue_length_scaling():
    lam2 = second_eigenvalue_1d(0.0, 2.0, 2.0)
    assert lam2 == pytest.approx(math.pi**2, abs=1e-3)


def test_second_eigenvalue_rejects_reversed_bounds():
    from plap import InvalidConfig

    with pytest.raises(InvalidConfig, match="x1 > x0"):
        second_eigenvalue_1d(1.0, 0.0, 3.0)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_second_is_2_to_p_times_first(p):
    lam1 = oracles.plap_shooting_oracle_1d(p)
    lam2 = second_eigenvalue_1d(0.0, 1.0, p)
    assert lam2 == pytest.approx(2.0**p * lam1, rel=1e-5)


def test_simplicity_random_starts(interval_256, one):
    a = principal_eigenpair(interval_256, one, 3.0, EigenOptions(init="random", seed=11))
    b = principal_eigenpair(interval_256, one, 3.0, EigenOptions(init="random", seed=77))
    assert np.max(np.abs(a.phi.values - b.phi.values)) < 1e-5


def test_random_start_without_weighted_mass_falls_back_to_the_positive_part():
    # seed 0's random start has weighted mass -1.8e-3 under m = x - 0.7, so
    # the solve starts from max(m, 0) instead
    mesh = build_interval(0, 1, 64)
    m, p = Weight.expression("x - 0.7"), 3.0
    free = mesh.interior_vertices
    start = np.zeros(mesh.n_vertices)
    start[free] = np.random.default_rng(0).random(len(free)) * mesh.distance_to_boundary()[free]
    assert np.dot(mesh.lumped_volumes, m.values(mesh) * start**p) < 0
    pair = principal_eigenpair(mesh, m, p, EigenOptions(init="random", seed=0))
    default = principal_eigenpair(mesh, m, p)
    tol = EigenOptions().resolved_tol(p)
    assert np.all(pair.phi.values >= 0) and sup_norm(pair.phi) == 1.0
    assert pair.residual_norm <= tol
    hist = pair.rq_history
    assert all(b <= a + 1e-9 * (1 + abs(a)) for a, b in zip(hist, hist[1:]))
    assert pair.lam == pytest.approx(default.lam, rel=tol)
    assert np.max(np.abs(pair.phi.values - default.phi.values)) < 10 * tol


def test_refinement_cauchy_differences(one):
    lams = [principal_eigenpair(build_interval(0, 1, n), one, 2.0).lam for n in (64, 128, 256, 512)]
    diffs = [abs(a - b) for a, b in zip(lams, lams[1:])]
    assert diffs[0] > diffs[1] > diffs[2]


def test_square_eigenvalue(one):
    mesh = build_rectangle(0, 1, 0, 1, 24, 24)
    pair = principal_eigenpair(mesh, one, 2.0)
    assert pair.lam == pytest.approx(2 * math.pi**2, rel=5e-3)
    # tensor symmetry of the square's eigenfunction
    vals = pair.phi.values.reshape(25, 25)
    assert np.max(np.abs(vals - vals.T)) < 1e-6
    assert np.max(np.abs(vals - vals[::-1, :])) < 1e-6


def test_nonconvergence_budget(interval_256, one):
    from plap import NonConvergence

    with pytest.raises(NonConvergence):
        principal_eigenpair(interval_256, one, 3.0, EigenOptions(max_outer=2, tol=1e-12))


def test_inner_newton_stops_at_roundoff_stall(one, monkeypatch):
    """The inner solve ends once fem.newton meets its goal, at most 1e-8 of the load norm.

    Before the inner solve had a goal it could reach, it ran all of its
    iterations, accepting roundoff-level steps: the n=4096 p=3 eigensolve
    assembled 480 Jacobians.  The assemblies go through fem.p_flux_jacobian,
    where perfbench/spans.py counts them as eigen.inner_newton_iters.
    """
    from plap import fem

    n, p = 4096, 3.0
    assembled = []
    assemble = fem.p_flux_jacobian

    def counting(*args, **kwargs):
        assembled.append(1)
        return assemble(*args, **kwargs)

    monkeypatch.setattr(fem, "p_flux_jacobian", counting)
    pair = principal_eigenpair(build_interval(0.0, 1.0, n), one, p)
    assert 1 <= len(assembled) <= 60
    pi_p = 2.0 * math.pi / (p * math.sin(math.pi / p))
    exact = (p - 1.0) * pi_p**p  # closed-form lam1 of the unit interval
    assert abs(pair.lam - exact) <= 3.0 / n**2 * exact  # P1 error is O(h^2)


@pytest.mark.parametrize("n", [64, 256])
@pytest.mark.parametrize("p", [1.5, 1.8])
def test_principal_below_p_2_matches_the_closed_form(one, p, n):
    pair = principal_eigenpair(build_interval(0.0, 1.0, n), one, p)
    pi_p = 2.0 * math.pi / (p * math.sin(math.pi / p))
    exact = (p - 1.0) * pi_p**p
    assert abs(pair.lam - exact) <= 3.0 / n**2 * exact


def test_p10_eigensolve_does_not_stall_on_the_inner_goal(one):
    # with the inner goal at 1e-8 ||load|| alone the inner solve returned its
    # start here, and the residual stayed at 2.4e-6 for all max_outer iterations
    p = 10.0
    pair = principal_eigenpair(build_interval(0.0, 1.0, 64), one, p)
    assert pair.iterations <= 20
    pi_p = 2.0 * math.pi / (p * math.sin(math.pi / p))
    assert pair.lam == pytest.approx((p - 1.0) * pi_p**p, rel=1e-2)  # coarse grid, large p


def test_p10_overflowing_inner_trials_warn_nothing():
    # inner line-search trials overflow here: fem.newton rejects a trial whose
    # ||r||^2 is not finite, and the inner solve silences the warnings of such trials
    from plap import NonConvergence

    message = "eigensolver residual 1.986e+00 above tol 1.0e-06 after 500 iterations"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonConvergence, match=re.escape(message)):
            principal_eigenpair(build_rectangle(0.0, 1.0, 0.0, 1.0, 24, 24), Weight.expression("cos(6*x)"), 10.0)


def test_inner_solve_cold_restart_converges(monkeypatch):
    # the first inner solve at the floor fails; the cold restart down the eps_g
    # values of fem.EPS_LADDER converges at the floor, and so does the eigensolve
    from plap import fem, weighted_power_integral

    solves = []  # (eps_g, reason) of every inner fem.newton call
    weak_form, newton = fem.weak_form, fem.newton

    def spy_form(mesh, op, p, eps_g, *args):
        solves.append(eps_g)
        return weak_form(mesh, op, p, eps_g, *args)

    def spy_newton(*args, **kw):
        out = newton(*args, **kw)
        solves[-1] = (solves[-1], out[0])
        return out

    monkeypatch.setattr(fem, "weak_form", spy_form)
    monkeypatch.setattr(fem, "newton", spy_newton)
    m = Weight.expression("bump(0.5, 0.3)")
    pair = principal_eigenpair(build_interval(0.0, 1.0, 64), m, 4.0)
    floor = fem.EPS_GRAD_FLOOR
    assert [eps for eps, _ in solves[:5]] == [floor] + [eps for eps, _ in fem.EPS_LADDER]
    assert solves[0][1] != "converged" and solves[4] == (floor, "converged")
    assert pair.lam == pytest.approx(237.862, rel=1e-5) and pair.iterations == 7
    assert np.all(pair.phi.values >= 0) and sup_norm(pair.phi) == 1.0
    assert weighted_power_integral(m, pair.phi, 4.0) > 0 and pair.residual_norm <= 1e-6
    hist = pair.rq_history
    assert all(b <= a + 1e-9 * (1 + abs(a)) for a, b in zip(hist, hist[1:]))


@pytest.mark.parametrize(
    "bounds, nx, ny", [((-1.0, 1.0, 0.0, 0.5), 12, 7), ((-1.0, 1.0, 0.0, 0.5), 2, 7)], ids=["12x7", "2x7"]
)
def test_p2_lam1_on_rectangles_matches_the_closed_form(one, bounds, nx, ny):
    x0, x1, y0, y1 = bounds
    hx, hy = (x1 - x0) / nx, (y1 - y0) / ny
    exact = ((hy / hx) * (2 - 2 * math.cos(math.pi / nx)) + (hx / hy) * (2 - 2 * math.cos(math.pi / ny))) / (hx * hy)
    K, mass, _, _ = oracles.five_point_rectangle(bounds, nx, ny)
    assert np.linalg.eigvalsh(K)[0] / (hx * hy) == pytest.approx(exact, rel=1e-12)
    pair = principal_eigenpair(build_rectangle(*bounds, nx, ny), one, 2.0)
    assert pair.lam == pytest.approx(exact, rel=1e-10)


def test_p2_indefinite_weight_on_a_rectangle_matches_dense_oracle():
    # m = x - 0.3 changes sign, so the inner solve carries the positivity shift
    bounds, nx, ny = (0.0, 1.0, 0.0, 1.0), 12, 9
    K, mass, x, _ = oracles.five_point_rectangle(bounds, nx, ny)
    want = oracles.principal_generalized_eigenvalue(K, mass * (x - 0.3))
    pair = principal_eigenpair(build_rectangle(*bounds, nx, ny), Weight.expression("x - 0.3"), 2.0)
    assert pair.lam == pytest.approx(want, rel=1e-10)


@pytest.mark.parametrize("m_expr", ["1", "x - 0.3"], ids=["constant", "indefinite"])
def test_p2_eigensolve_on_a_grid_builds_no_operator_and_no_factor(m_expr, monkeypatch):
    from plap import fem

    calls = []
    init, factorize = fem.Operator.__init__, fem.Operator.factorize

    def counting_init(self, *args):
        calls.append("init")
        init(self, *args)

    def counting_factorize(self, data):
        calls.append("factorize")
        return factorize(self, data)

    monkeypatch.setattr(fem.Operator, "__init__", counting_init)
    monkeypatch.setattr(fem.Operator, "factorize", counting_factorize)
    principal_eigenpair(build_rectangle(0, 1, 0, 1, 10, 8), Weight.expression(m_expr), 2.0)
    assert calls == []


def _perturbed_square(n, seed, amplitude):
    """build_rectangle's n x n unit square with each interior vertex moved by a uniform draw: obtuse triangles."""
    from plap import Mesh

    grid = build_rectangle(0, 1, 0, 1, n, n)
    vertices = grid.vertices.copy()
    shift = np.random.default_rng(seed).uniform(-amplitude, amplitude, (len(grid.interior_vertices), 2))
    vertices[grid.interior_vertices] += shift
    return Mesh(2, vertices, grid.cells, grid.boundary_vertices, grid.bounds)


def test_eigensolve_stalls_where_no_damped_step_lowers_the_quotient():
    # on obtuse triangles an exact inverse-power step can raise the Rayleigh
    # quotient; here no damping of it down to t = 1e-6 lowers it again
    from plap import NonConvergence

    message = "eigensolver stalled with residual 3.921e+08 above tol 1.0e-06"
    with pytest.raises(NonConvergence, match=re.escape(message)):
        principal_eigenpair(_perturbed_square(12, 28, 0.035), Weight.expression("1 - 3*step(0.5 - y)"), 4.0)


def test_eigensolve_accepts_a_damped_step_and_converges(monkeypatch):
    # grad_energy scores rq0 and each accepted iterate once; a damped trial
    # scores one more, so the trial count exceeds the recorded quotients
    from plap import eigen

    scored = []
    energy = eigen.grad_energy
    monkeypatch.setattr(eigen, "grad_energy", lambda *args: scored.append(1) or energy(*args))
    pair = principal_eigenpair(_perturbed_square(8, 282, 0.45 / 8), Weight.expression("1 - 3*step(0.5 - y)"), 8.0)
    assert pair.lam == pytest.approx(21639.18, rel=1e-6) and pair.iterations == 91
    assert len(scored) > len(pair.rq_history) and pair.residual_norm <= 1e-6
    hist = pair.rq_history
    assert all(b <= a + 1e-12 * (1 + abs(a)) for a, b in zip(hist, hist[1:]))


def test_inner_solve_that_never_converges_raises(one, monkeypatch):
    from plap import NonConvergence, fem

    monkeypatch.setattr(fem, "newton", lambda *args: ("stalled", None))
    with pytest.raises(NonConvergence, match="inner p-Laplacian solve did not converge"):
        principal_eigenpair(build_interval(0.0, 1.0, 16), one, 3.0)

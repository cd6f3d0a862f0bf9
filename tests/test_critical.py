import math

import numpy as np
import pytest

import oracles
from plap import (
    DiscreteFunction,
    EtaStarOptions,
    InvalidConfig,
    Weight,
    build_interval,
    build_rectangle,
    critical,
    discrete_picone_check,
    eta_star,
    eta_star_lower_bound,
    eta_star_objective,
    fem,
    picone_constant,
    picone_polynomial,
    picone_polynomial_check,
)


def test_constant_factor():
    assert picone_constant(2.0, 1.5) == pytest.approx(2.0, rel=1e-12)


def test_eta_star_zero_at_lam1(interval_256, one, pair_p2_256):
    res = eta_star(
        interval_256, one, one, one, 2.0, 1.5, pair_p2_256.lam,
        EtaStarOptions(n_starts=4),
    )
    assert res.value <= 1e-8


def test_eta_star_sentinel_for_nonpositive_a(interval_256, one, pair_p2_256):
    res = eta_star(
        interval_256, one, Weight.constant(-1.0), one, 2.0, 1.5, 0.5 * pair_p2_256.lam,
        EtaStarOptions(),
    )
    assert res.value == math.inf
    assert res.minimizer is None


def test_eta_star_bracketed_by_bound_and_bump_family(interval_256, one, pair_p2_256):
    lam = 0.5 * pair_p2_256.lam
    res = eta_star(
        interval_256, one, one, one, 2.0, 1.5, lam,
        EtaStarOptions(),
    )
    assert res.starts_used >= 32
    assert math.isfinite(res.value)
    assert res.value >= res.lower_bound - 1e-9
    # the brute-force bump family can only do worse than the optimizer
    upper = oracles.eta_star_bump_oracle(2.0, 1.5, lam)
    assert res.value <= upper * (1 + 1e-6)
    assert res.value == min(res.all_start_values)
    assert math.isfinite(res.gap) and res.gap >= -1e-9


def test_every_start_converges_to_one_value(interval_256, one, pair_p3_256):
    res = eta_star(
        interval_256, one, one, one, 3.0, 1.5, 0.5 * pair_p3_256.lam,
        EtaStarOptions(n_starts=32),
    )
    assert len(res.start_iterations) == res.starts_used == 32
    assert max(res.start_iterations) < EtaStarOptions().max_iter
    values = np.array(res.all_start_values)
    assert np.max(values) - np.min(values) <= 1e-9 * np.min(values)
    # the plain projected gradient descent reaches this after 20,000 steps
    assert res.value <= 3.5474346819
    assert res.value >= res.lower_bound


def test_eta_star_active_set_at_the_cone_boundary(one):
    # a changes sign, so minimizers vanish on part of the square and the
    # descent must keep those vertices at zero
    mesh = build_rectangle(0, 1, 0, 1, 32, 32)
    from plap import principal_eigenpair

    pair = principal_eigenpair(mesh, one, 2.0)
    res = eta_star(
        mesh, one, Weight.expression("x - 0.3"), one, 2.0, 1.5, 0.5 * pair.lam,
        EtaStarOptions(n_starts=4),
    )
    assert res.value >= res.lower_bound
    # the plain projected gradient descent from 16 starts gives 24.03381
    assert res.value <= 24.0338


def _stacked_starts(mesh, phi, n_random, seed):
    """phi1, the distance bump and random bumps, as eta_star builds its starts."""
    dist = mesh.distance_to_boundary()
    rng = np.random.default_rng(seed)
    return np.array([phi.values, dist] + [rng.random(mesh.n_vertices) * dist for _ in range(n_random)])


LOCKSTEP_CASES = pytest.mark.parametrize(
    "shape, p, a_expr, lam_frac, n_random",
    [
        (256, 3.0, "1", 0.5, 30),  # the benchmark's critval config
        ((24, 24), 3.0, "1", 0.5, 6),
        ((32, 32), 2.0, "x - 0.3", 0.5, 6),  # the active sets are non-empty
        (256, 2.0, "1", 1.0, 6),  # lam = lam1: every start ends on a zero quotient
    ],
    ids=["1d-p3", "square24-p3", "indefinite32", "lam1"],
)


def _lockstep_case(shape, p, a_expr, n_random):
    mesh = build_interval(0.0, 1.0, shape) if isinstance(shape, int) else build_rectangle(0, 1, 0, 1, *shape)
    from plap import principal_eigenpair

    pair = principal_eigenpair(mesh, Weight.constant(1.0), p)
    ones = np.ones(mesh.n_vertices)
    a_vals = Weight.expression(a_expr).values(mesh)
    return mesh, pair, ones, a_vals, _stacked_starts(mesh, pair.phi, n_random, seed=5)


@LOCKSTEP_CASES
def test_lockstep_rows_match_their_start_alone(shape, p, a_expr, lam_frac, n_random):
    mesh, pair, ones, a_vals, starts = _lockstep_case(shape, p, a_expr, n_random)
    lam = lam_frac * pair.lam
    values, minimizers, iterations = critical._descend(mesh, ones, a_vals, ones, p, 1.5, lam, starts, 600)
    for k, start in enumerate(starts):
        alone = critical._descend(mesh, ones, a_vals, ones, p, 1.5, lam, start[None, :], 600)
        assert values[k] == alone[0][0]
        assert iterations[k] == alone[2][0]
        np.testing.assert_array_equal(minimizers[k], alone[1][0])
    if lam_frac == 1.0:
        # phi1 starts at G ~ 0; every other start descends until h_lam <= 0 makes G exactly 0
        assert values[0] <= 1e-8
        assert np.all(values[1:] == 0.0) and np.all(iterations[1:] > 0)


def test_lockstep_factorizes_no_more_than_one_start_at_a_time(monkeypatch):
    mesh, pair, ones, a_vals, starts = _lockstep_case((32, 32), 2.0, "x - 0.3", 6)
    calls = []
    factorize = fem.Operator.factorize

    def counting(self, data):
        calls.append(1)
        return factorize(self, data)

    monkeypatch.setattr(fem.Operator, "factorize", counting)
    critical._descend(mesh, ones, a_vals, ones, 2.0, 1.5, 0.5 * pair.lam, starts, 600)
    lockstep = len(calls)
    del calls[:]
    for start in starts:
        critical._descend(mesh, ones, a_vals, ones, 2.0, 1.5, 0.5 * pair.lam, start[None, :], 600)
    assert 0 < lockstep <= len(calls)


@pytest.mark.parametrize(
    "mesh", [build_interval(0.0, 1.0, 16), build_rectangle(0, 1, 0, 1, 6, 5)], ids=["interval", "square"]
)
def test_preconditioner_solves_each_rows_restriction(mesh, rng):
    precondition = critical._Preconditioner(mesh)
    dense = precondition.op.matrix(precondition.op.stiffness).toarray()
    n = len(mesh.interior_vertices)
    rows = np.array([3, 0, 7, 2])
    for _ in range(3):  # repeated calls reuse and replace the cached factors
        rhs = rng.standard_normal((len(rows), n))
        active = rng.random((len(rows), n)) < 0.3
        active[1] = False  # rows with empty active sets share the factor of K
        active[3] = False
        got = precondition(rows, rhs, active)
        for k in range(len(rows)):
            keep = ~active[k]
            assert np.all(got[k, active[k]] == 0.0)
            want = np.linalg.solve(dense[np.ix_(keep, keep)], rhs[k, keep])
            np.testing.assert_allclose(got[k, keep], want, rtol=1e-12, atol=1e-12)


def test_preconditioner_builds_the_stiffness_only_to_pin(rng):
    mesh = build_rectangle(0, 1, 0, 1, 6, 5)
    precondition = critical._Preconditioner(mesh)
    n = len(mesh.interior_vertices)
    rows = np.array([0, 1])
    precondition(rows, rng.standard_normal((2, n)), np.zeros((2, n), dtype=bool))
    assert "op" not in vars(precondition)
    active = np.zeros((2, n), dtype=bool)
    active[1, 3] = True
    precondition(rows, rng.standard_normal((2, n)), active)
    assert "op" in vars(precondition) and "stiffness" in vars(precondition.op)


def test_start_with_zero_gradient_energy_gives_inf(interval_256, one, pair_p3_256):
    res = eta_star(
        interval_256, one, one, one, 3.0, 1.5, 0.5 * pair_p3_256.lam,
        EtaStarOptions(
            n_starts=6,
            extra_starts=[-np.ones(interval_256.n_vertices)],
        ),
    )
    # starts: phi1, the bump on the support of a, a_+, the extra start, then random ones
    assert res.all_start_values[3] == math.inf
    assert res.start_iterations[3] == 0
    assert math.isfinite(res.value)


@pytest.mark.parametrize(
    "values, best",
    [
        ([3.0 + 4e-12, 3.0 + 2e-12, 3.0, 3.0 + 1e-13, 5.0], 1),  # ties within a relative 1e-12 of 3: the lowest
        ([3.0 + 4e-12, 3.0, 3.0, 5.0], 1),
        ([math.inf, 0.0, 0.0], 1),
        ([-1.0 + 1e-13, -1.0], 0),
    ],
    ids=["ties", "exact-tie", "zero", "negative"],
)
def test_minimizer_is_the_lowest_start_that_ties_the_least_value(values, best, interval_256, one, pair_p3_256, monkeypatch):
    # the descent's own values tie to rounding; this takes the rows' values as given
    values = np.array(values)
    rows = np.arange(len(values), dtype=float)[:, None] * np.ones(interval_256.n_vertices)

    def descend(*args):
        return values, rows, np.ones(len(values), dtype=np.int64)

    monkeypatch.setattr(critical, "_descend", descend)
    res = eta_star(interval_256, one, one, one, 3.0, 1.5, 0.5 * pair_p3_256.lam, EtaStarOptions(n_starts=len(values)))
    assert res.value == max(float(values.min()), 0.0)
    assert np.array_equal(res.minimizer.values, rows[best])


@pytest.mark.parametrize("a_value, eigensolves", [(1.0, 0), (2.0, 1)])
def test_lower_bound_reuses_lam1_when_the_clamped_weight_is_m(one, pair_p3_256, monkeypatch, a_value, eigensolves):
    from plap import eigen, principal_eigenpair

    mesh = build_interval(0.0, 1.0, 256)  # fresh, so the eigenpair memo holds nothing for it yet
    a = Weight.constant(a_value)
    power = np.full(mesh.n_vertices, a_value ** (2.0 / 0.5))
    lam1_aplus = principal_eigenpair(mesh, Weight.nodal(power), 3.0).lam
    want = eta_star_lower_bound(1.0, 3.0, 1.5, 0.5 * pair_p3_256.lam, pair_p3_256.lam, lam1_aplus)
    calls = []
    solve = eigen.principal_eigenpair

    def counting(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(eigen, "principal_eigenpair", counting)
    res = eta_star(mesh, one, a, one, 3.0, 1.5, 0.5 * pair_p3_256.lam, EtaStarOptions(n_starts=4))
    assert len(calls) == 1 + eigensolves  # m's solve, then a's unless its power weight has m's values
    assert res.lower_bound == want


def test_eta_star_rejects_bad_lam(interval_256, one, pair_p2_256):
    opts = EtaStarOptions()
    with pytest.raises(InvalidConfig):
        eta_star(interval_256, one, one, one, 2.0, 1.5, -0.5, opts)
    with pytest.raises(InvalidConfig):
        eta_star(interval_256, one, one, one, 2.0, 1.5, 1.2 * pair_p2_256.lam, opts)
    with pytest.raises(InvalidConfig):
        eta_star(interval_256, one, one, Weight.expression("x - 0.5"), 2.0, 1.5, 1.0, opts)


def test_objective_zero_homogeneous(interval_256, one, pair_p2_256):
    x = interval_256.vertices[:, 0]
    u = DiscreteFunction(interval_256, np.maximum(np.sin(np.pi * x) - 0.2, 0.0))
    lam = 0.5 * pair_p2_256.lam
    base = eta_star_objective(interval_256, one, one, one, 2.0, 1.5, lam, u)
    for t in (0.1, 1.0, 10.0):
        val = eta_star_objective(interval_256, one, one, one, 2.0, 1.5, lam, t * u)
        assert val == pytest.approx(base, rel=1e-10)


@pytest.mark.parametrize(
    "a_src, lam_frac, f_value, want",
    [("x - 0.7", 0.5, 1.0, math.inf), ("1", 8.0, 1.0, 0.0), ("1", 0.5, 0.0, 0.0)],
    ids=["off-cone", "h_lam<=0", "int_fu=0"],
)
def test_objective_branches(interval_256, one, pair_p2_256, a_src, lam_frac, f_value, want):
    # u is a tent on [0, 0.5], where a = x - 0.7 < 0, so int a u^q < 0; its Rayleigh quotient 48 lies below
    # 8 lam1 = 8 pi^2, so lam = 8 lam1 gives int |grad u|^2 - lam int u^2 < 0; f = 0 gives int f u = 0
    x = interval_256.vertices[:, 0]
    u = DiscreteFunction(interval_256, np.maximum(0.25 - np.abs(x - 0.25), 0.0))
    a, f = Weight.expression(a_src), Weight.constant(f_value)
    assert eta_star_objective(interval_256, one, a, f, 2.0, 1.5, lam_frac * pair_p2_256.lam, u) == want


def test_lower_bound_formula_values(pair_p2_256):
    lam1 = pair_p2_256.lam
    # lam = 0 plugs in directly
    direct = eta_star_lower_bound(1.0, 2.0, 1.5, 0.0, lam1, lam1)
    assert direct == pytest.approx(picone_constant(2.0, 1.5) * math.sqrt(lam1), rel=1e-12)
    # continuity: the bound collapses as lam -> lam1
    tiny = eta_star_lower_bound(1.0, 2.0, 1.5, 0.999999 * lam1, lam1, lam1)
    assert tiny == pytest.approx(0.0, abs=1e-2)
    assert tiny > 0
    # strictly decreasing in lam
    vals = [eta_star_lower_bound(1.0, 2.0, 1.5, frac * lam1, lam1, lam1) for frac in (0.0, 0.3, 0.6, 0.9)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_lower_bound_rejects_bad_input(pair_p2_256):
    with pytest.raises(InvalidConfig):
        eta_star_lower_bound(0.0, 2.0, 1.5, 1.0, pair_p2_256.lam, pair_p2_256.lam)
    with pytest.raises(InvalidConfig):
        eta_star_lower_bound(1.0, 2.0, 1.5, pair_p2_256.lam, pair_p2_256.lam, pair_p2_256.lam)


def test_polynomial_p2_factorization():
    # for p = 2: (q-1) s^2 + (2q-2) s + (q-1) = (q-1)(s+1)^2
    for q in np.linspace(1.02, 1.98, 50):
        chk = picone_polynomial_check(2.0, float(q))
        assert chk.holds
        assert chk.min_value == pytest.approx(q - 1.0, rel=1e-10)


def test_polynomial_p3_failure():
    chk = picone_polynomial_check(3.0, 1.5)
    assert not chk.holds
    assert picone_polynomial(3.0, 1.5, 0.0) == -0.5
    assert chk.min_value == pytest.approx(2.0 - 2.0 * math.sqrt(2.0), rel=1e-10)
    assert chk.argmin == pytest.approx(math.sqrt(2.0) - 1.0, rel=1e-6)


def test_polynomial_check_with_q_close_to_p():
    # (p/(q-1))^{2/(p-q)} overflows a float here
    chk = picone_polynomial_check(10.0, 9.9999)
    assert chk.holds
    # the other terms outweigh -(p-q)s = -1e-4 s at every s >= 0
    assert 0.0 < chk.min_value <= picone_polynomial(10.0, 9.9999, 0.0)


def test_holds_implies_superhomogeneous_exponent_gap():
    # wherever the condition holds, q - p + 1 >= 0 (the value at s = 0)
    rng = np.random.default_rng(3)
    for _ in range(60):
        p = rng.uniform(1.2, 4.0)
        q = rng.uniform(1.01, p - 0.01)
        if q <= 1.0:
            continue
        chk = picone_polynomial_check(p, q)
        if chk.holds:
            assert q - p + 1.0 >= -1e-12


def test_discrete_picone_equality_case(pair_p2_256):
    phi = pair_p2_256.phi
    chk = discrete_picone_check(phi, phi, 2.0, 1e-3)
    assert chk.holds and chk.lhs <= chk.rhs
    # saturation toward equality as eps -> 0
    ratios = []
    for eps in (1e-1, 1e-3, 1e-6, 1e-9):
        c = discrete_picone_check(phi, phi, 2.0, eps)
        assert c.holds
        ratios.append(c.lhs / c.rhs)
    assert ratios[-1] == pytest.approx(1.0, abs=1e-6)
    assert all(b >= a - 1e-12 for a, b in zip(ratios, ratios[1:]))


def test_discrete_picone_zero_phi(interval_256):
    u = DiscreteFunction(interval_256, np.ones(interval_256.n_vertices))
    chk = discrete_picone_check(u, DiscreteFunction.zeros(interval_256), 3.0, 1e-2)
    assert chk.lhs == 0.0 and chk.rhs == 0.0 and chk.holds


def test_discrete_picone_validation(interval_256):
    u = DiscreteFunction(interval_256, np.ones(interval_256.n_vertices))
    with pytest.raises(InvalidConfig):
        discrete_picone_check(u, u, 2.0, 0.0)
    with pytest.raises(InvalidConfig):
        discrete_picone_check(-1.0 * u, u, 2.0, 1e-3)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("eps", [1e-1, 1e-3])
def test_discrete_picone_random_campaign(p, eps):
    mesh = build_interval(0, 1, 64)
    fine = build_interval(0, 1, 128)
    rng = np.random.default_rng(hash((p, eps)) % 2**32)
    for _ in range(40):
        uv = np.zeros(mesh.n_vertices)
        uv[mesh.interior_vertices] = rng.random(len(mesh.interior_vertices))
        pv = np.zeros(mesh.n_vertices)
        pv[mesh.interior_vertices] = rng.standard_normal(len(mesh.interior_vertices))
        chk = discrete_picone_check(DiscreteFunction(mesh, uv), DiscreteFunction(mesh, pv), p, eps)
        if not chk.holds:
            # refinement recheck: interpolate both fields to the finer mesh
            uf = np.interp(fine.vertices[:, 0], mesh.vertices[:, 0], uv)
            pf = np.interp(fine.vertices[:, 0], mesh.vertices[:, 0], pv)
            chk = discrete_picone_check(DiscreteFunction(fine, uf), DiscreteFunction(fine, pf), p, eps)
        assert chk.holds


def test_discrete_picone_2d_smooth(one):
    mesh = build_rectangle(0, 1, 0, 1, 12, 12)
    from plap import principal_eigenpair

    pair = principal_eigenpair(mesh, one, 2.0)
    chk = discrete_picone_check(pair.phi, pair.phi, 2.0, 1e-3)
    assert chk.holds

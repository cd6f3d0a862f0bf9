import math

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


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_second_is_2_to_p_times_first(p):
    lam1 = oracles.plap_shooting_oracle_1d(p)
    lam2 = second_eigenvalue_1d(0.0, 1.0, p)
    assert lam2 == pytest.approx(2.0**p * lam1, rel=1e-5)


def test_simplicity_random_starts(interval_256, one):
    a = principal_eigenpair(interval_256, one, 3.0, EigenOptions(init="random", seed=11))
    b = principal_eigenpair(interval_256, one, 3.0, EigenOptions(init="random", seed=77))
    assert np.max(np.abs(a.phi.values - b.phi.values)) < 1e-5


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
    """The inner Newton ends once a step no longer halves a gradient below its loose goal.

    Before, it ran all max_inner iterations there, accepting roundoff-level
    steps: the n=4096 p=3 eigensolve assembled 480 Jacobians.
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
    assert len(assembled) <= 60
    pi_p = 2.0 * math.pi / (p * math.sin(math.pi / p))
    exact = (p - 1.0) * pi_p**p  # closed-form lam1 of the unit interval
    assert abs(pair.lam - exact) <= 3.0 / n**2 * exact  # P1 error is O(h^2)

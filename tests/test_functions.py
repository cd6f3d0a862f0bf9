import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plap import (
    DiscreteFunction,
    EigenOptions,
    EtaStarOptions,
    InvalidConfig,
    ProblemSpec,
    Weight,
    build_interval,
    build_rectangle,
    discrete_picone_check,
    eta_star,
    grad_energy,
    negative_part,
    positive_part,
    principal_eigenpair,
    solve,
    sup_norm,
    weighted_power_integral,
)


@pytest.fixture()
def two_cell():
    return build_interval(0.0, 1.0, 2)


def test_grad_energy_parabola_p2(two_cell):
    u = DiscreteFunction(two_cell, [0.0, 0.25, 0.0])  # interpolant of x(1-x)
    assert grad_energy(u, 2.0) == pytest.approx(0.25, abs=1e-15)


def test_grad_energy_parabola_p3(two_cell):
    u = DiscreteFunction(two_cell, [0.0, 0.25, 0.0])
    assert grad_energy(u, 3.0) == pytest.approx(0.125, abs=1e-15)


def test_grad_energy_zero(two_cell):
    u = DiscreteFunction.zeros(two_cell)
    for p in (1.5, 2.0, 3.0, 4.7):
        assert grad_energy(u, p) == 0.0


def test_grad_energy_rejects_small_p(two_cell):
    with pytest.raises(InvalidConfig):
        grad_energy(DiscreteFunction.zeros(two_cell), 1.0)


def test_partition_of_unity():
    mesh = build_interval(0, 1, 4)
    u = DiscreteFunction(mesh, np.ones(5))
    assert weighted_power_integral(Weight.constant(1.0), u, 2.0) == pytest.approx(1.0, abs=1e-15)


def test_weight_linearity():
    mesh = build_interval(0, 1, 7)
    u = DiscreteFunction(mesh, np.sin(2 * np.pi * mesh.vertices[:, 0]))
    base = weighted_power_integral(Weight.constant(1.0), u, 2.0)
    doubled = weighted_power_integral(Weight.constant(2.0), u, 2.0)
    assert doubled == pytest.approx(2.0 * base, rel=1e-14)


def test_lumping_rule_hat(two_cell):
    u = DiscreteFunction(two_cell, [0.0, 1.0, 0.0])
    assert weighted_power_integral(Weight.constant(1.0), u, 2.0) == pytest.approx(0.5, abs=1e-15)


def test_signed_integral_is_load():
    mesh = build_interval(0, 1, 16)
    u = DiscreteFunction(mesh, mesh.vertices[:, 0] - 0.4)
    signed = weighted_power_integral(Weight.constant(1.0), u, 1.0, signed=True)
    direct = float(np.dot(mesh.lumped_volumes, u.values))
    assert signed == pytest.approx(direct, rel=1e-14)


def test_parts_and_sup():
    mesh = build_interval(0, 1, 3)
    u = DiscreteFunction(mesh, [0.0, -2.0, 3.0, 0.0])
    assert sup_norm(u) == 3.0
    np.testing.assert_allclose(positive_part(u).values, [0, 0, 3, 0])
    np.testing.assert_allclose(negative_part(u).values, [0, 2, 0, 0])


def test_negative_part_of_nonneg():
    mesh = build_interval(0, 1, 3)
    u = DiscreteFunction(mesh, [0.0, 1.0, 0.5, 0.0])
    assert np.all(negative_part(u).values == 0)


@settings(max_examples=40, deadline=None)
@given(
    vals=st.lists(st.floats(min_value=-10, max_value=10), min_size=5, max_size=5),
    t=st.floats(min_value=-8, max_value=8),
)
def test_parts_identity_and_sup_homogeneity(vals, t):
    mesh = build_interval(0, 1, 4)
    u = DiscreteFunction(mesh, vals)
    plus, minus = positive_part(u), negative_part(u)
    np.testing.assert_allclose(plus.values - minus.values, u.values, atol=1e-15)
    assert np.all(plus.values * minus.values == 0)
    assert sup_norm(t * u) == pytest.approx(abs(t) * sup_norm(u), rel=1e-12, abs=1e-300)


@settings(max_examples=25, deadline=None)
@given(
    t=st.floats(min_value=0.05, max_value=20),
    p=st.sampled_from([1.5, 2.0, 2.7, 3.0]),
)
def test_grad_energy_p_homogeneous(t, p):
    mesh = build_interval(0, 1, 8)
    u = DiscreteFunction(mesh, np.sin(np.pi * mesh.vertices[:, 0]))
    assert grad_energy(t * u, p) == pytest.approx(t**p * grad_energy(u, p), rel=1e-12)


@settings(max_examples=25, deadline=None)
@given(t=st.floats(min_value=0.05, max_value=20), r=st.sampled_from([1.0, 1.5, 2.0, 3.0]))
def test_weighted_integral_r_homogeneous(t, r):
    mesh = build_interval(0, 1, 8)
    w = Weight.expression("1 + x")
    u = DiscreteFunction(mesh, np.cos(3 * mesh.vertices[:, 0]))
    assert weighted_power_integral(w, t * u, r) == pytest.approx(
        t**r * weighted_power_integral(w, u, r), rel=1e-12
    )


def test_quadrature_consistency_orders():
    # closed forms: int (pi cos(pi x))^2 = pi^2/2 and int sin(pi x)^2 = 1/2
    def orders(errors):
        # a vanishing error is better than any order (the uniform-grid Riemann
        # sum of sin^2 is exactly 1/2, so the mass error can be roundoff only)
        return [
            np.log2(a / b) if b > 1e-14 else np.inf for a, b in zip(errors, errors[1:])
        ]

    grad_errors, mass_errors = [], []
    for n in (16, 32, 64, 128):
        mesh = build_interval(0, 1, n)
        u = DiscreteFunction(mesh, np.sin(np.pi * mesh.vertices[:, 0]))
        grad_errors.append(abs(grad_energy(u, 2.0) - np.pi**2 / 2))
        mass_errors.append(abs(weighted_power_integral(Weight.constant(1.0), u, 2.0) - 0.5))
    assert all(order >= 1.9 for order in orders(grad_errors))
    assert all(order >= 1.9 for order in orders(mass_errors))


def test_weight_sign_summary():
    mesh = build_interval(0, 1, 8)
    assert Weight.constant(0.0).sign_summary(mesh) == "zero"
    assert Weight.constant(2.0).sign_summary(mesh) == "nonnegative"
    assert Weight.constant(-1.0).sign_summary(mesh) == "nonpositive"
    assert Weight.expression("x - 0.5").sign_summary(mesh) == "indefinite"


def test_nodal_weight_length_mismatch():
    mesh = build_interval(0, 1, 8)
    with pytest.raises(InvalidConfig):
        Weight.nodal([1.0, 2.0]).values(mesh)


def test_nodal_weight_leaves_the_callers_array_writable(two_cell):
    a = np.array([0.0, 1.0, 0.0])
    w = Weight.nodal(a)
    assert w.values(two_cell).tolist() == [0.0, 1.0, 0.0]
    a[1] = 2.0  # values() made the weight's own copy read-only, not a
    assert w.values(two_cell).tolist() == [0.0, 1.0, 0.0]


def test_weighted_integral_rejects_small_r():
    mesh = build_interval(0, 1, 4)
    with pytest.raises(InvalidConfig):
        weighted_power_integral(Weight.constant(1.0), DiscreteFunction.zeros(mesh), 0.5)


_ONES = np.ones(9)
_WRONG_LENGTH = "has 3 values, mesh has 9 vertices"


def _on_two_cells():
    return DiscreteFunction.zeros(build_interval(0.0, 1.0, 2))  # 3 values


def _eigen(mesh, m=_ONES, init="distance_bump"):
    return principal_eigenpair(mesh, m, 2.0, EigenOptions(init=init))


def _solve(mesh, m=_ONES, init="zero"):
    return solve(ProblemSpec(mesh, 3.0, 1.5, 1.0, 0.0, m, _ONES, _ONES), init)


def _eta_star(mesh, m=_ONES, extra=()):
    return eta_star(mesh, m, _ONES, _ONES, 3.0, 1.5, 1.0, EtaStarOptions(extra_starts=list(extra)))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda mesh: _eigen(mesh, m=np.ones(3)), _WRONG_LENGTH),
        (lambda mesh: _solve(mesh, m=np.ones(3)), _WRONG_LENGTH),
        (lambda mesh: _solve(mesh, init=np.ones(3)), _WRONG_LENGTH),
        (lambda mesh: _eta_star(mesh, m=np.ones(3)), _WRONG_LENGTH),
        (lambda mesh: _solve(mesh, init=_on_two_cells()), _WRONG_LENGTH),
        (lambda mesh: _eta_star(mesh, extra=[np.ones(3)]), _WRONG_LENGTH),
        (lambda mesh: _eta_star(mesh, extra=[_on_two_cells()]), _WRONG_LENGTH),
        (lambda mesh: _eigen(mesh, init=_on_two_cells()), _WRONG_LENGTH),
        (lambda mesh: _eigen(mesh, init="bump"), "unknown init 'bump'"),
        (lambda mesh: discrete_picone_check(DiscreteFunction.zeros(mesh), _on_two_cells(), 3.0, 1e-3), _WRONG_LENGTH),
    ],
    ids=[
        "eigenpair-m",
        "solve-m",
        "solve-init",
        "eta-star-m",
        "solve-init-function",
        "eta-star-extra-array",
        "eta-star-extra-function",
        "eigenpair-init-function",
        "eigenpair-init-name",
        "picone-phi",
    ],
)
def test_nodal_arrays_of_the_wrong_length_are_rejected(call, message):
    with pytest.raises(InvalidConfig, match=message):
        call(build_interval(0.0, 1.0, 8))


def test_nodal_data_from_another_mesh_of_the_same_size_is_rejected():
    # 15 vertices each; the check used to run and return lhs 0.0, rhs 534.1
    u = DiscreteFunction(build_interval(0.0, 1.0, 14), np.ones(15))
    phi = DiscreteFunction(build_rectangle(0.0, 1.0, 0.0, 1.0, 4, 2), np.random.default_rng(0).random(15))
    with pytest.raises(InvalidConfig, match="phi lives on another mesh"):
        discrete_picone_check(u, phi, 3.0, 1e-3)
    with pytest.raises(InvalidConfig, match="init lives on another mesh"):
        one = Weight.constant(1.0)
        solve(ProblemSpec(u.mesh, 3.0, 1.5, 1.0, 0.0, one, one, one), phi)
    # a mesh built again from the same arguments is the same mesh
    again = DiscreteFunction(build_interval(0.0, 1.0, 14), np.linspace(0.0, 1.0, 15))
    assert discrete_picone_check(u, again, 3.0, 1e-3).holds

import gc
import weakref

import numpy as np
import pytest

from plap import (
    DiscreteFunction,
    ProblemSpec,
    SingularJacobian,
    Weight,
    boundary_strip,
    build_interval,
    build_rectangle,
    fem,
    grad_energy,
    jacobian,
)


def dense_loop_jacobian(mesh, values, p, eps, diag, free):
    """Cell-by-cell dense assembly of the linearized gradient term, restricted to free."""
    K = np.zeros((mesh.n_vertices, mesh.n_vertices))
    eye = np.eye(mesh.dimension)
    for cell, vol, G in zip(mesh.cells, mesh.cell_volumes, mesh.cell_gradients):
        g = G.T @ values[cell]
        g2 = g @ g + eps * eps
        kappa = g2 ** (0.5 * (p - 2))
        A = kappa * (eye + (p - 2) * np.outer(g, g) / g2)
        K[np.ix_(cell, cell)] += vol * G @ A @ G.T
    K += np.diag(diag)
    return K[np.ix_(free, free)]


def interior_free(mesh):
    return mesh.interior_vertices


def strip_free(mesh):
    interior = mesh.interior_vertices
    return interior[boundary_strip(mesh, 0.3 * mesh.diameter()).indicator()[interior]]


@pytest.mark.parametrize("p", [2.0, 3.0])
@pytest.mark.parametrize("free_set", [interior_free, strip_free])
@pytest.mark.parametrize(
    "mesh", [build_rectangle(0.0, 1.0, 0.0, 2.0, 5, 5), build_interval(0.0, 1.0, 12)], ids=["5x5", "n12"]
)
def test_operator_matches_dense_loop_assembly(mesh, free_set, p, rng):
    free = free_set(mesh)
    values = np.zeros(mesh.n_vertices)
    values[mesh.interior_vertices] = rng.standard_normal(len(mesh.interior_vertices))
    diag = rng.standard_normal(mesh.n_vertices)
    op = fem.operator(mesh, free)
    got = op.matrix(fem.p_flux_jacobian(op, values, p, 1e-3, diag)).toarray()
    want = dense_loop_jacobian(mesh, values, p, 1e-3, diag, free)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    assert np.array_equal(got, got.T)


# (mesh, half-bandwidth of its interior numbering): an nx x ny grid has
# half-bandwidth nx, so the 66 x 3 strip is the one beyond fem.MAX_BAND
SOLVER_CASES = pytest.mark.parametrize(
    "mesh, band",
    [
        (build_interval(0.0, 1.0, 16), 1),
        (build_rectangle(0.0, 1.0, 0.0, 1.0, 4, 4), 4),
        (build_rectangle(0.0, 4.0, 0.0, 1.0, 66, 3), None),
    ],
    ids=["banded", "banded-2d", "splu"],
)


def test_band_rule_boundary():
    mesh = build_rectangle(0.0, 1.0, 0.0, 1.0, fem.MAX_BAND, 3)
    assert fem.operator(mesh, mesh.interior_vertices).band == fem.MAX_BAND
    mesh = build_rectangle(0.0, 1.0, 0.0, 1.0, fem.MAX_BAND + 1, 3)
    assert fem.operator(mesh, mesh.interior_vertices).band is None


@SOLVER_CASES
def test_singular_system_raises(mesh, band):
    op = fem.operator(mesh, mesh.interior_vertices)
    assert op.band == band
    zero_jacobian = fem.p_flux_jacobian(op, np.zeros(mesh.n_vertices), 3.0, 0.0)
    with pytest.raises(SingularJacobian):
        fem.solve_sparse(op, zero_jacobian, np.ones(len(mesh.interior_vertices)))


@SOLVER_CASES
def test_solve_matches_dense_solve(mesh, band, rng):
    free = mesh.interior_vertices
    op = fem.operator(mesh, free)
    assert op.band == band
    data = fem.p_flux_jacobian(op, np.zeros(mesh.n_vertices), 2.0, 0.0, rng.random(mesh.n_vertices))
    rhs = rng.standard_normal(len(free))
    want = np.linalg.solve(op.matrix(data).toarray(), rhs)
    np.testing.assert_allclose(fem.solve_sparse(op, data, rhs), want, rtol=1e-12, atol=1e-12)


@SOLVER_CASES
def test_jacobian_is_csc_on_every_storage(mesh, band, rng):
    one = Weight.constant(1.0)
    spec = ProblemSpec(mesh, 3.0, 1.5, 2.0, 0.5, one, one, one)
    values = np.zeros(mesh.n_vertices)
    values[mesh.interior_vertices] = rng.standard_normal(len(mesh.interior_vertices))
    got = jacobian(spec, DiscreteFunction(mesh, values), eps_grad=1e-3, eps_zero=1e-3)
    assert got.format == "csc"
    lump = mesh.lumped_volumes
    diag = -2.0 * lump * fem.smoothed_odd_power_deriv(values, 3.0, 1e-3)
    diag -= 0.5 * lump * fem.smoothed_odd_power_deriv(values, 1.5, 1e-3)
    want = dense_loop_jacobian(mesh, values, 3.0, 1e-3, diag, mesh.interior_vertices)
    assert np.max(np.abs(got.toarray() - want)) <= 1e-13 * np.max(np.abs(want))


def test_cached_operator_dies_with_its_mesh():
    mesh = build_rectangle(0.0, 1.0, 0.0, 1.0, 4, 4)
    op = fem.operator(mesh, mesh.interior_vertices)
    assert fem.operator(mesh, mesh.interior_vertices.copy()) is op
    mesh_ref, op_ref = weakref.ref(mesh), weakref.ref(op)
    del mesh, op
    gc.collect()
    assert mesh_ref() is None
    assert op_ref() is None


def test_matrix_shares_no_array_with_operator(rng):
    mesh = build_rectangle(0.0, 1.0, 0.0, 1.0, 4, 4)
    op = fem.operator(mesh, mesh.interior_vertices)
    data = fem.p_flux_jacobian(op, np.zeros(mesh.n_vertices), 2.0, 0.0, rng.random(mesh.n_vertices))
    want = op.matrix(data).toarray()
    scratch = op.matrix(data)
    scratch.data[:] = 0.0
    scratch.eliminate_zeros()  # rewrites indices and indptr in place
    assert np.array_equal(op.matrix(data).toarray(), want)


# The einsum formulas the Gradients kernel replaced, kept as its oracle: the
# kernel sums in the same order, so the results must agree bit for bit.
def einsum_cell_terms(mesh, values, eps):
    g = np.einsum("ci,cid->cd", values[mesh.cells], mesh.cell_gradients)
    gg = np.einsum("cid,cd->ci", mesh.cell_gradients, g)
    g2 = np.einsum("cd,cd->c", g, g) + eps * eps
    return g, gg, g2


def einsum_p_flux(mesh, values, p, eps):
    _, gg, g2 = einsum_cell_terms(mesh, values, eps)
    if eps == 0.0 and p < 2:
        kappa = np.zeros_like(g2)
        nz = g2 > 0
        kappa[nz] = g2[nz] ** (0.5 * (p - 2))
    else:
        kappa = g2 ** (0.5 * (p - 2))
    flux = (mesh.cell_volumes * kappa)[:, None] * gg
    return np.bincount(mesh.cells.ravel(), weights=flux.ravel(), minlength=mesh.n_vertices)


def einsum_jacobian_data(op, mesh, values, p, eps):
    if p == 2.0:
        blocks = op.gram
    else:
        _, gg, g2 = einsum_cell_terms(mesh, values, eps)
        kappa = g2 ** (0.5 * (p - 2))
        ratio = np.where(g2 > 0, (p - 2.0) * kappa / np.where(g2 > 0, g2, 1.0), 0.0)
        blocks = gg[:, :, None] * gg[:, None, :]
        blocks *= (mesh.cell_volumes * ratio)[:, None, None]
        blocks += kappa[:, None, None] * op.gram
    return np.bincount(op.scatter, weights=blocks.ravel(), minlength=op.size + 1)[: op.size]


def einsum_grad_energy(mesh, values, p):
    g = np.einsum("ci,cid->cd", values[mesh.cells], mesh.cell_gradients)
    return float(np.dot(mesh.cell_volumes, np.sqrt(np.einsum("cd,cd->c", g, g)) ** p))


@pytest.mark.parametrize("eps", [0.0, 1e-2])
@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
@pytest.mark.parametrize(
    "mesh", [build_interval(0.0, 1.0, 12), build_rectangle(0.0, 1.0, 0.0, 2.0, 5, 5)], ids=["n12", "5x5"]
)
def test_gradient_kernel_matches_einsum_formulas(mesh, p, eps, rng):
    values = rng.standard_normal(mesh.n_vertices)
    op = fem.operator(mesh, mesh.interior_vertices)
    assert np.array_equal(fem.p_flux(mesh, values, p, eps), einsum_p_flux(mesh, values, p, eps))
    assert np.array_equal(fem.p_flux_jacobian(op, values, p, eps), einsum_jacobian_data(op, mesh, values, p, eps))
    u = DiscreteFunction(mesh, values)
    assert np.array_equal(u.cell_gradients(), einsum_cell_terms(mesh, values, eps)[0])
    assert grad_energy(u, p) == einsum_grad_energy(mesh, values, p)

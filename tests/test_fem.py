import gc
import weakref

import numpy as np
import pytest

from plap import SingularJacobian, boundary_strip, build_interval, build_rectangle, fem


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


@pytest.mark.parametrize(
    "mesh", [build_interval(0.0, 1.0, 16), build_rectangle(0.0, 1.0, 0.0, 1.0, 4, 4)], ids=["banded", "splu"]
)
def test_singular_system_raises(mesh):
    op = fem.operator(mesh, mesh.interior_vertices)
    zero_jacobian = fem.p_flux_jacobian(op, np.zeros(mesh.n_vertices), 3.0, 0.0)
    with pytest.raises(SingularJacobian):
        fem.solve_sparse(op, zero_jacobian, np.ones(len(mesh.interior_vertices)))


@pytest.mark.parametrize(
    "mesh", [build_interval(0.0, 1.0, 16), build_rectangle(0.0, 1.0, 0.0, 1.0, 4, 4)], ids=["banded", "splu"]
)
def test_solve_matches_dense_solve(mesh, rng):
    free = mesh.interior_vertices
    op = fem.operator(mesh, free)
    data = fem.p_flux_jacobian(op, np.zeros(mesh.n_vertices), 2.0, 0.0, rng.random(mesh.n_vertices))
    rhs = rng.standard_normal(len(free))
    want = np.linalg.solve(op.matrix(data).toarray(), rhs)
    np.testing.assert_allclose(fem.solve_sparse(op, data, rhs), want, rtol=1e-12, atol=1e-12)


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

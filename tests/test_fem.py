import gc
import warnings
import weakref

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

import oracles
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
from plap.bvp import _NewtonDriver
from plap.eigen import _inner_solve


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


@pytest.mark.parametrize(
    "mesh, routine",
    [
        (build_interval(0.0, 1.0, 16), "dgttrf"),
        (build_interval(0.0, 1.0, 3), "dgbtrf"),
        (build_rectangle(0.0, 1.0, 0.0, 1.0, 4, 4), "dgbtrf"),
    ],
    ids=["tridiagonal", "two-unknowns", "banded-2d"],
)
def test_band_factor_is_computed_once(mesh, routine, rng, monkeypatch):
    calls = []
    factor = getattr(scipy.linalg.lapack, routine)

    def counting_factor(*args, **kwargs):
        calls.append(1)
        return factor(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg.lapack, routine, counting_factor)
    op = fem.operator(mesh, mesh.interior_vertices)
    data = fem.p_flux_jacobian(op, np.zeros(mesh.n_vertices), 2.0, 0.0, rng.random(mesh.n_vertices))
    solve = op.factorize(data)
    ab = data.reshape(-1, len(op.free))
    for _ in range(3):
        rhs = rng.standard_normal(len(op.free))
        want = scipy.linalg.solve_banded((op.band, op.band), ab, rhs)
        np.testing.assert_allclose(solve(rhs), want, rtol=1e-12, atol=1e-12)
    assert len(calls) == 1


@SOLVER_CASES
def test_pinned_system_solves_the_restriction(mesh, band, rng):
    op = fem.operator(mesh, mesh.interior_vertices)
    data = fem.p_flux_jacobian(op, np.zeros(mesh.n_vertices), 2.0, 0.0)
    pinned = rng.random(len(op.free)) < 0.3
    keep = ~pinned
    rhs = rng.standard_normal(len(op.free))
    got = op.factorize(op.pin(data, pinned))(np.where(pinned, 0.0, rhs))
    dense = op.matrix(data).toarray()
    assert np.all(got[pinned] == 0.0)
    want = np.linalg.solve(dense[np.ix_(keep, keep)], rhs[keep])
    np.testing.assert_allclose(got[keep], want, rtol=1e-12, atol=1e-12)


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


def _local_blocks(mesh, free):
    """Row and column in free of each entry (i, j) of each cell's block, and whether it leaves free."""
    loc = np.full(mesh.n_vertices, -1, dtype=np.int64)
    loc[free] = np.arange(len(free))
    local = loc[mesh.cells]
    rows, cols = local[:, :, None], local[:, None, :]
    return rows, cols, (rows < 0) | (cols < 0)


def unique_searchsorted_pattern(mesh, free):
    """The CSC pattern, slots and diagonal positions from np.unique and two searchsorted."""
    n = len(free)
    rows, cols, outside = _local_blocks(mesh, free)
    keys = cols * n + rows
    keys[outside] = n * n
    diagonal_keys = np.arange(n) * (n + 1)
    pattern = np.unique(np.concatenate([keys.ravel(), diagonal_keys]))
    pattern = pattern[pattern < n * n]
    indptr = np.zeros(n + 1, dtype=np.intc)
    np.cumsum(np.bincount(pattern // n, minlength=n), out=indptr[1:])
    slots = np.searchsorted(pattern, keys)
    slots[outside] = len(pattern)
    return (pattern % n).astype(np.intc), indptr, slots.ravel(), np.searchsorted(pattern, diagonal_keys)


def block_scatter(mesh, free, band):
    """(position in the data of each cell-block entry, data size); entries leaving free go to the size.

    Band storage puts a[i, j] at ab[band + i - j, j]; a CSC pattern is
    unique_searchsorted_pattern's.
    """
    if band is None:
        indices, _, slots, _ = unique_searchsorted_pattern(mesh, free)
        return slots, len(indices)
    n = len(free)
    rows, cols, outside = _local_blocks(mesh, free)
    size = (2 * band + 1) * n
    slots = (band + rows - cols) * n + cols
    slots[outside] = size
    return slots.ravel(), size


def repeat_pin(op, data, pinned):
    """Operator.pin with each slot's row and column formed anew on every call."""
    n = len(op.free)
    if op.band is None:
        rows, cols = op.indices, np.repeat(np.arange(n), np.diff(op.indptr))
    else:
        slot = np.arange(op.size)
        cols = slot % n
        rows = np.clip(cols + slot // n - op.band, 0, n - 1)
    out = data.copy()
    out[pinned[rows] | pinned[cols]] = 0.0
    out[op.diagonal[pinned]] = 1.0
    return out


@pytest.mark.parametrize("free_set", [interior_free, strip_free])
@pytest.mark.parametrize("max_band", [fem.MAX_BAND, -1], ids=["band", "csc"])
def test_pattern_and_pin_match_the_previous_construction(free_set, max_band, rng, monkeypatch):
    monkeypatch.setattr(fem, "MAX_BAND", max_band)
    mesh = build_rectangle(0.0, 1.0, 0.0, 1.0, 12, 9)
    free = free_set(mesh)
    op = fem.Operator(mesh, free)
    if op.band is None:
        indices, indptr, _, diagonal = unique_searchsorted_pattern(mesh, free)
        assert op.indices.dtype == indices.dtype and np.array_equal(op.indices, indices)
        assert op.indptr.dtype == indptr.dtype and np.array_equal(op.indptr, indptr)
        assert np.array_equal(op.diagonal, diagonal)
    values = rng.standard_normal(mesh.n_vertices)
    data = fem.p_flux_jacobian(op, values, 3.0, 1e-3)
    # the full blocks summed by the band-slot formula or unique_searchsorted_pattern, bit for bit
    assert np.array_equal(data, einsum_jacobian_data(mesh, free, op.band, values, 3.0, 1e-3))
    for _ in range(2):
        pinned = rng.random(len(free)) < 0.3
        assert np.array_equal(op.pin(data, pinned), repeat_pin(op, data, pinned))


def _assert_stack_matches_rows(mesh, p, eps, rows, rng):
    values = rng.standard_normal((rows, mesh.n_vertices))
    values[-1, :] = 0.0  # a row with zero gradients, where p < 2 takes the limit
    for _ in range(2):
        stacked = fem.p_flux(mesh, values, p, eps)
        assert stacked.shape == values.shape
        for row, want in zip(values, stacked):
            assert np.array_equal(fem.p_flux(mesh, row, p, eps), want)


@pytest.mark.parametrize("eps", [0.0, 1e-2])
@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
@pytest.mark.parametrize(
    "mesh", [build_interval(0.0, 1.0, 12), build_rectangle(0.0, 1.0, 0.0, 2.0, 5, 5)], ids=["n12", "5x5"]
)
def test_stacked_p_flux_matches_each_row(mesh, p, eps, rng):
    _assert_stack_matches_rows(mesh, p, eps, 4, rng)


# the 66 x 3 strip is the grid whose interior operator is CSC (beyond fem.MAX_BAND)
STACK_MESHES = pytest.mark.parametrize(
    "mesh",
    [build_interval(0.0, 1.0, 12), build_rectangle(0.0, 1.0, 0.0, 2.0, 5, 5), build_rectangle(0.0, 4.0, 0.0, 1.0, 66, 3)],
    ids=["n12", "5x5", "66x3"],
)


@pytest.mark.parametrize("rows", [1, 2, 13])
@STACK_MESHES
def test_stacks_of_1_2_and_13_rows_match_each_row(mesh, rows, rng):
    for p in (1.5, 3.0):
        for eps in (0.0, 1e-2):
            _assert_stack_matches_rows(mesh, p, eps, rows, rng)


def _closure_stack(mesh, rng, rows=5):
    """rows random nodal functions, zero on the boundary, and their free parts."""
    free = mesh.interior_vertices
    values = np.zeros((rows, mesh.n_vertices))
    values[:, free] = rng.standard_normal((rows, len(free)))
    return values, values[:, free]


def _assert_rows(res, values, s):
    stacked = res(values, s)
    assert stacked.flags.c_contiguous  # fem.newton takes each row's BLAS dot as a single trial's
    for k, want in enumerate(stacked):
        assert np.array_equal(res(values[k], s[k]), want)


@pytest.mark.parametrize("eta", [0.0, 0.4])
@pytest.mark.parametrize("eps_s", [0.0, 1e-3])
@STACK_MESHES
def test_bvp_residual_closure_on_a_stack_equals_its_rows(mesh, eps_s, eta, rng):
    spec = ProblemSpec(mesh, 3.0, 1.5, 7.0, eta, Weight.constant(1.0), Weight.expression("x - 0.3"), Weight.constant(1.0))
    _assert_rows(_NewtonDriver(spec).residual(7.0, eta, 1e-2, eps_s), *_closure_stack(mesh, rng))


@pytest.mark.parametrize("shift", [0.0, 2.5])
@STACK_MESHES
def test_eigen_residual_closure_on_a_stack_equals_its_rows(mesh, shift, rng, monkeypatch):
    closures = []
    newton = fem.newton

    def keep(values, free, res, *args):
        closures.append(res)
        return newton(values, free, res, *args)

    monkeypatch.setattr(fem, "newton", keep)
    free = mesh.interior_vertices
    load = rng.random(len(free)) * mesh.lumped_volumes[free]
    _inner_solve(mesh, fem.operator(mesh, free), 3.0, shift, load, np.zeros(mesh.n_vertices), 1e-6)
    _assert_rows(closures[0], *_closure_stack(mesh, rng))


@pytest.mark.parametrize("with_q", [False, True], ids=["p_term", "p_and_q_terms"])
@pytest.mark.parametrize("p", [1.5, 3.0])
@pytest.mark.parametrize(
    "mesh", [build_interval(0.0, 1.0, 12), build_rectangle(0.0, 1.0, 0.0, 2.0, 5, 4)], ids=["n12", "5x4"]
)
def test_weak_form_energy_is_the_oracle_and_res_is_its_gradient(mesh, p, with_q, rng):
    free = mesh.interior_vertices
    x = mesh.vertices[:, 0]
    f = np.cos(3.0 * x)
    # (parameter * weight, exponent) per zeroth-order term, the weight as nodal values
    weights = [(2.7 * (1.0 + 0.5 * x), p)] + ([(0.6 * (x - 0.3), 0.5 * (1.0 + p))] if with_q else [])
    eps_g, eps_s = 1e-2, 1e-3
    terms = [(w * mesh.lumped_volumes, r) for w, r in weights]
    load = (mesh.lumped_volumes * f)[free]
    res, _, energy = fem.weak_form(mesh, fem.operator(mesh, free), p, eps_g, eps_s, terms, load)
    values = np.zeros(mesh.n_vertices)
    values[free] = rng.standard_normal(len(free))

    want = oracles.regularized_energy(mesh.vertices, mesh.cells, free, values, p, eps_g, eps_s, weights, f)
    assert energy(values, values[free]) == pytest.approx(want, rel=1e-12)

    fd = np.empty(len(free))
    for k, vertex in enumerate(free):
        h = 1e-5 * (1.0 + abs(values[vertex]))
        up, down = values.copy(), values.copy()
        up[vertex] += h
        down[vertex] -= h
        fd[k] = (energy(up, up[free]) - energy(down, down[free])) / (2.0 * h)
    r = res(values, values[free])
    assert np.max(np.abs(r - fd)) / (1.0 + np.max(np.abs(fd))) < 1e-7


def test_gradient_kernel_holds_only_arrays_and_sparse_matrices():
    mesh = build_rectangle(0.0, 1.0, 0.0, 1.0, 4, 4)
    kernel = fem.gradients(mesh)
    assert all(isinstance(value, np.ndarray) or sp.issparse(value) for value in vars(kernel).values())
    D = kernel.matrix
    assert D.format == "csr" and D.shape == (2 * len(mesh.cells), mesh.n_vertices)
    assert D.indices.dtype == np.int32 and D.indptr.dtype == np.int32
    # D^T is a view of D's arrays, not a copy
    assert kernel.transpose.format == "csc"
    assert all(np.shares_memory(getattr(kernel.transpose, a), getattr(D, a)) for a in ("data", "indices", "indptr"))
    assert np.shares_memory(kernel.entries, D.data)
    mesh_ref = weakref.ref(mesh)
    del mesh
    gc.collect()
    assert mesh_ref() is None


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


# The einsum formulas the Gradients kernel replaced, kept as its oracle.
def einsum_cell_terms(mesh, values, eps):
    g = np.einsum("ci,cid->cd", values[mesh.cells], mesh.cell_gradients)
    gg = np.einsum("cid,cd->ci", mesh.cell_gradients, g)
    g2 = np.einsum("cd,cd->c", g, g) + eps * eps
    return g, gg, g2


def einsum_weights(mesh, values, p, eps):
    """vol * kappa per cell, and the per-cell, per-local-vertex products grad hat_i . grad u."""
    _, gg, g2 = einsum_cell_terms(mesh, values, eps)
    if eps == 0.0 and p < 2:
        kappa = np.zeros_like(g2)
        nz = g2 > 0
        kappa[nz] = g2[nz] ** (0.5 * (p - 2))
    else:
        kappa = g2 ** (0.5 * (p - 2))
    return mesh.cell_volumes * kappa, gg


def einsum_p_flux(mesh, values, p, eps):
    w, gg = einsum_weights(mesh, values, p, eps)
    return np.bincount(mesh.cells.ravel(), weights=(w[:, None] * gg).ravel(), minlength=mesh.n_vertices)


def p_flux_rounding_bound(mesh, values, p, eps):
    """Componentwise bound on |fem.p_flux - einsum_p_flux| from the arithmetic of the two.

    Both sum the same exact terms grad_k hat_i * g_k * w over the cells c
    holding vertex v and the axes k (g = grad u and w = vol kappa are the same
    floats in both), in different orders.  fem.p_flux forms z = g_k w, then
    adds the d m_v products grad_k hat_i * z onto 0 (m_v cells hold v): at
    most d m_v + 1 roundings per term.  The oracle sums the d products of
    each cell's pairing, scales it by w and adds the m_v pairings onto 0: at
    most d + m_v <= d m_v + 1 roundings per term.  With K = d m_v + 1, each
    result is within gamma_K = K u / (1 - K u) (u the unit roundoff) of the
    exact sum, relative to the sum of the terms' absolute values (Higham,
    Accuracy and Stability of Numerical Algorithms, 2nd ed., 2002, sec. 3.1),
    so the two differ by at most 2 gamma_K times that sum.
    """
    w, _ = einsum_weights(mesh, values, p, eps)
    g = np.einsum("ci,cid->cd", values[mesh.cells], mesh.cell_gradients)
    terms = np.abs(mesh.cell_gradients) * np.abs(g * w[:, None])[:, None, :]  # (c, i, k)
    absolute = np.bincount(mesh.cells.ravel(), weights=terms.sum(axis=2).ravel(), minlength=mesh.n_vertices)
    K = mesh.dimension * np.bincount(mesh.cells.ravel(), minlength=mesh.n_vertices) + 1
    u = np.finfo(float).eps / 2
    return 2.0 * (K * u / (1.0 - K * u)) * absolute


def einsum_jacobian_data(mesh, free, band, values, p, eps):
    """Cell blocks vol kappa G G^T + vol (p-2) kappa / g2 (G z)(G z)^T by einsum, summed into the data by bincount."""
    gram = np.einsum("cid,cjd->cij", mesh.cell_gradients, mesh.cell_gradients) * mesh.cell_volumes[:, None, None]
    if p == 2.0:
        blocks = gram
    else:
        _, gg, g2 = einsum_cell_terms(mesh, values, eps)
        kappa = g2 ** (0.5 * (p - 2))
        ratio = np.where(g2 > 0, (p - 2.0) * kappa / np.where(g2 > 0, g2, 1.0), 0.0)
        blocks = gg[:, :, None] * gg[:, None, :]
        blocks *= (mesh.cell_volumes * ratio)[:, None, None]
        blocks += kappa[:, None, None] * gram
    slots, size = block_scatter(mesh, free, band)
    return np.bincount(slots, weights=blocks.ravel(), minlength=size + 1)[:size]


def einsum_grad_energy(mesh, values, p):
    g = np.einsum("ci,cid->cd", values[mesh.cells], mesh.cell_gradients)
    return float(np.dot(mesh.cell_volumes, np.sqrt(np.einsum("cd,cd->c", g, g)) ** p))


# meshes whose vertex coordinates and hat gradients are not dyadic, so that
# products and sums round
NON_DYADIC_MESHES = [build_interval(0.0, 3.0, 100), build_rectangle(0.0, 1.0, 0.0, 2.0, 7, 5)]


@pytest.mark.parametrize("eps", [0.0, 1e-2])
@pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 6.0])
@pytest.mark.parametrize(
    "mesh",
    [build_interval(0.0, 1.0, 12), build_rectangle(0.0, 1.0, 0.0, 2.0, 5, 5), *NON_DYADIC_MESHES],
    ids=["n12", "5x5", "n100-on-0-3", "7x5"],
)
def test_gradient_kernel_matches_einsum_formulas(mesh, p, eps, rng):
    values = rng.standard_normal(mesh.n_vertices)
    op = fem.operator(mesh, mesh.interior_vertices)
    # the Jacobian, the cell gradients and the gradient energy sum in the oracle's order: bit for bit
    want = einsum_jacobian_data(mesh, op.free, op.band, values, p, eps)
    assert np.array_equal(fem.p_flux_jacobian(op, values, p, eps), want)
    u = DiscreteFunction(mesh, values)
    assert np.array_equal(u.cell_gradients(), einsum_cell_terms(mesh, values, eps)[0])
    assert grad_energy(u, p) == einsum_grad_energy(mesh, values, p)
    # p_flux sums the same terms in another order; on a cell with zero
    # gradient it takes kappa's limit at p < 2, eps = 0
    values[mesh.cells[0]] = 0.0
    error = np.abs(fem.p_flux(mesh, values, p, eps) - einsum_p_flux(mesh, values, p, eps))
    assert np.all(error <= p_flux_rounding_bound(mesh, values, p, eps))


# (mesh, free set, MAX_BAND, whether the storage is CSC): boundary strips on
# band storage, and the CSC path both beyond the band limit (the 66 x 3
# strip) and with the limit lowered
JACOBIAN_ORACLE_CASES = pytest.mark.parametrize(
    "mesh, free_set, max_band, csc",
    [
        (build_rectangle(0.0, 1.0, 0.0, 2.0, 7, 5), strip_free, fem.MAX_BAND, False),
        (build_rectangle(0.0, 1.0, 0.0, 2.0, 7, 5), strip_free, -1, True),
        (build_rectangle(0.0, 4.0, 0.0, 1.0, 66, 3), interior_free, fem.MAX_BAND, True),
        (build_interval(0.0, 3.0, 100), strip_free, fem.MAX_BAND, False),
    ],
    ids=["7x5-strip", "7x5-strip-csc", "66x3-csc", "n100-strip"],
)


@pytest.mark.parametrize("eps", [0.0, 1e-8, 1e-2])
@pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 6.0])
@JACOBIAN_ORACLE_CASES
def test_jacobian_matches_the_einsum_oracle_bit_for_bit(mesh, free_set, max_band, csc, p, eps, rng, monkeypatch):
    monkeypatch.setattr(fem, "MAX_BAND", max_band)
    free = free_set(mesh)
    op = fem.Operator(mesh, free)
    assert (op.band is None) == csc
    values = rng.standard_normal(mesh.n_vertices)
    values[mesh.cells[0]] = 0.0  # a cell with zero gradient
    if p < 2 and eps == 0.0:
        with pytest.raises(SingularJacobian, match=r"eps_grad = 0 with p < 2"):
            fem.p_flux_jacobian(op, values, p, eps)
        values = rng.standard_normal(mesh.n_vertices)
    want = einsum_jacobian_data(mesh, free, op.band, values, p, eps)
    assert np.array_equal(fem.p_flux_jacobian(op, values, p, eps), want)


def test_operator_holds_only_arrays_and_sparse_matrices(rng):
    mesh = build_rectangle(0.0, 1.0, 0.0, 2.0, 7, 5)
    op = fem.operator(mesh, strip_free(mesh))
    values = rng.standard_normal(mesh.n_vertices)
    for p in (2.0, 3.0):  # fills the cached stiffness
        data = fem.p_flux_jacobian(op, values, p, 1e-3)
    op.pin(data, rng.random(len(op.free)) < 0.3)  # fills the cached slot positions
    assert {"stiffness", "_slot_positions"} <= set(vars(op))
    sizes = {"size": int, "band": int}
    for name, value in vars(op).items():
        assert isinstance(value, sizes.get(name, np.ndarray)) or sp.issparse(value), name
    mesh_ref = weakref.ref(mesh)
    del mesh
    gc.collect()
    assert mesh_ref() is None


@pytest.mark.parametrize(
    "mesh", [build_interval(0.0, 1.0, 12), build_rectangle(0.0, 1.0, 0.0, 2.0, 7, 5)], ids=["n12", "7x5"]
)
def test_writing_into_p2_data_leaves_the_next_call_unchanged(mesh, rng):
    op = fem.operator(mesh, mesh.interior_vertices)
    zeros = np.zeros(mesh.n_vertices)
    want = fem.p_flux_jacobian(op, zeros, 2.0, 0.0).copy()
    for diag in (None, rng.random(mesh.n_vertices)):
        data = fem.p_flux_jacobian(op, zeros, 2.0, 0.0, diag)
        data[:] = 7.0
        assert np.array_equal(fem.p_flux_jacobian(op, zeros, 2.0, 0.0), want)
    assert not op.stiffness.flags.writeable


@pytest.mark.parametrize("rows", [1, 2, 13])
@pytest.mark.parametrize("mesh", NON_DYADIC_MESHES, ids=["n100-on-0-3", "7x5"])
def test_stacks_on_non_dyadic_meshes_match_each_row(mesh, rows, rng):
    for p in (1.5, 3.0):
        for eps in (0.0, 1e-2):
            _assert_stack_matches_rows(mesh, p, eps, rows, rng)
    values = rng.standard_normal((rows, mesh.n_vertices))
    kernel = fem.gradients(mesh)
    stacked = kernel.gradient(values)
    assert stacked.shape == (mesh.dimension, rows, len(mesh.cells)) and stacked.flags.c_contiguous
    for k, row in enumerate(values):
        assert np.array_equal(kernel.gradient(row), stacked[:, k])


def test_jacobian_without_gradient_smoothing_below_p2_is_singular():
    mesh = build_interval(0.0, 1.0, 8)
    one = Weight.constant(1.0)
    spec = ProblemSpec(mesh, 1.5, 1.2, 1.0, 0.0, one, one, one)
    with pytest.raises(SingularJacobian, match=r"eps_grad = 0 with p < 2"):
        jacobian(spec, DiscreteFunction.zeros(mesh), 0.0, 0.0)
    # away from zero gradients the linearization is finite
    values = np.zeros(mesh.n_vertices)
    values[mesh.interior_vertices] = np.arange(1.0, 8.0) ** 2
    assert np.all(np.isfinite(jacobian(spec, DiscreteFunction(mesh, values), 0.0, 1e-3).toarray()))


def _q_below_2_spec():
    mesh = build_interval(0.0, 1.0, 8)
    one = Weight.constant(1.0)
    return ProblemSpec(mesh, 3.0, 1.5, 1.0, 0.5, one, one, one)


def test_jacobian_without_zero_smoothing_at_a_zero_value_is_singular():
    spec = _q_below_2_spec()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularJacobian, match=r"eps_zero = 0"):
            jacobian(spec, DiscreteFunction.zeros(spec.mesh), 1e-3, 0.0)


def test_jacobian_without_zero_smoothing_ignores_the_boundary_zeros():
    spec = _q_below_2_spec()
    mesh = spec.mesh
    free = mesh.interior_vertices
    values = np.zeros(mesh.n_vertices)
    values[free] = 0.3
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no 0^(q-2) on the boundary values
        got = jacobian(spec, DiscreteFunction(mesh, values), 1e-3, 0.0).toarray()
    lump = mesh.lumped_volumes
    diag = np.zeros(mesh.n_vertices)
    diag[free] = -lump[free] * (2.0 * 0.3**1.0 + 0.5 * 0.5 * 0.3**-0.5)  # -lam m (p-1)|s|^(p-2) - eta a (q-1)|s|^(q-2)
    want = dense_loop_jacobian(mesh, values, 3.0, 1e-3, diag, free)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("shift", [0.0, 2.5])
@pytest.mark.parametrize(
    "bounds, nx, ny",
    [((-1.0, 1.0, 0.0, 0.5), 6, 5), ((-1.0, 1.0, 0.0, 0.5), 2, 7), ((0.0, 1.0, 0.0, 1.0), 24, 24)],
    ids=["6x5", "2x7", "24x24"],
)
def test_stiffness_solver_on_a_grid_matches_dense_solve(bounds, nx, ny, shift, rng):
    K, mass, _, _ = oracles.five_point_rectangle(bounds, nx, ny)
    A = K + shift * np.diag(mass)
    mesh = build_rectangle(*bounds, nx, ny)
    solve = fem.stiffness_solver(mesh, mesh.interior_vertices, shift)
    rhs = rng.standard_normal(len(A))
    np.testing.assert_allclose(solve(rhs), np.linalg.solve(A, rhs), rtol=1e-12, atol=1e-12)
    block = rng.standard_normal((len(A), 3))
    got = solve(block)
    assert got.shape == block.shape
    np.testing.assert_allclose(got, np.linalg.solve(A, block), rtol=1e-12, atol=1e-12)


def test_stiffness_solver_on_a_grid_builds_no_operator(monkeypatch):
    built = []
    init = fem.Operator.__init__

    def counting(self, *args):
        built.append(1)
        init(self, *args)

    monkeypatch.setattr(fem.Operator, "__init__", counting)
    mesh = build_rectangle(0.0, 1.0, 0.0, 1.0, 9, 7)
    fem.stiffness_solver(mesh, mesh.interior_vertices, 1.0)(np.ones(len(mesh.interior_vertices)))
    assert built == []


@pytest.mark.parametrize("shift", [0.0, 2.5])
@pytest.mark.parametrize(
    "mesh, free_set",
    [
        (build_rectangle(0.0, 1.0, 0.0, 1.0, 9, 7), strip_free),
        (build_interval(0.0, 1.0, 16), interior_free),
    ],
    ids=["strip", "interval"],
)
def test_stiffness_solver_factorizes_off_the_grid_interior(mesh, free_set, shift, rng, monkeypatch):
    calls = []
    factorize = fem.Operator.factorize

    def counting(self, data):
        calls.append(1)
        return factorize(self, data)

    monkeypatch.setattr(fem.Operator, "factorize", counting)
    free = free_set(mesh)
    solve = fem.stiffness_solver(mesh, free, shift)
    assert len(calls) == 1
    op = fem.operator(mesh, free)
    data = fem.p_flux_jacobian(op, np.zeros(mesh.n_vertices), 2.0, 0.0, shift * mesh.lumped_volumes)
    rhs = rng.standard_normal(len(free))
    np.testing.assert_allclose(solve(rhs), np.linalg.solve(op.matrix(data).toarray(), rhs), rtol=1e-12, atol=1e-12)

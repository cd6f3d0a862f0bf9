"""Assembly kernels for the regularized p-Laplacian weak form.

Internal machinery shared by the eigensolver and the BVP solver.  The gradient
term uses the smoothed kernel (|z|^2 + eps_g^2)^{(p-2)/2}, whose linearization
per cell is

    A(z) = (|z|^2 + eps^2)^{(p-2)/2} * (I + (p-2) z (x) z / (|z|^2 + eps^2)),

a symmetric positive definite matrix for p > 1.  Zeroth-order odd powers
|s|^{r-2} s are smoothed as (s^2 + eps_s^2)^{(r-2)/2} s, which for q < 2
removes the unbounded derivative at s = 0.

Linearized systems live on an Operator: the Jacobian restricted to one set of
free vertices, with its storage pattern, the scatter map from each cell's
local block into that storage and the per-cell Gram blocks vol * G G^T built
once per (mesh, free set).  A Newton iteration then only evaluates

    block_T = vol kappa G G^T + vol (p-2) kappa / (|z|^2 + eps^2) (G z)(G z)^T,

which is symmetric by construction, and sums the blocks into the fixed
storage with one bincount.

The solver follows the dimension.  In 1D the storage is LAPACK band storage
for scipy.linalg.solve_banded; on an interval mesh the free unknowns are
consecutive vertices and the band is tridiagonal.  In 2D the storage is the
data of a CSC matrix with fixed indices, factorized by SuperLU with a
minimum-degree ordering on A^T + A, as the pattern is symmetric.  A banded
solver is not used in 2D: the bandwidth of a structured n x n grid is about
n, so band storage grows like n^3 (50 MB at 128 x 128) and its factorization
becomes slower than SuperLU's beyond about 128 vertices per side.
"""

from __future__ import annotations

import weakref

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import SingularJacobian

__all__ = [
    "smoothed_odd_power",
    "smoothed_odd_power_deriv",
    "odd_power",
    "Operator",
    "operator",
    "p_flux",
    "p_flux_jacobian",
    "restrict",
    "solve_sparse",
]


def odd_power(s, r):
    """|s|^{r-2} s with the value 0 at s = 0 (valid for r > 1)."""
    s = np.asarray(s, dtype=float)
    out = np.zeros_like(s)
    nz = s != 0
    out[nz] = np.abs(s[nz]) ** (r - 1) * np.sign(s[nz])
    return out


def smoothed_odd_power(s, r, eps):
    """(s^2 + eps^2)^{(r-2)/2} s; equals |s|^{r-2} s when eps = 0."""
    if eps == 0.0:
        return odd_power(s, r)
    s = np.asarray(s, dtype=float)
    return (s * s + eps * eps) ** (0.5 * (r - 2)) * s


def smoothed_odd_power_deriv(s, r, eps):
    """d/ds of smoothed_odd_power: (s^2+eps^2)^{(r-4)/2} ((r-1) s^2 + eps^2)."""
    s = np.asarray(s, dtype=float)
    if eps == 0.0:
        return (r - 1) * np.abs(s) ** (r - 2)
    t = s * s + eps * eps
    return t ** (0.5 * (r - 4)) * ((r - 1) * s * s + eps * eps)


def _cell_terms(cells, gradients, values, eps):
    """Per cell: G g (local hat gradients against g = grad u) and |g|^2 + eps^2."""
    g = np.einsum("ci,cid->cd", values[cells], gradients)
    gg = np.einsum("cid,cd->ci", gradients, g)
    g2 = np.einsum("cd,cd->c", g, g) + eps * eps
    return gg, g2


def p_flux(mesh, values, p, eps=0.0):
    """Vector with entries sum_T vol_T kappa(grad u) grad u . grad hat_i, all vertices.

    With eps = 0 this is the exact discrete p-Laplacian pairing; the i-th entry
    is the gradient part of the weak residual at vertex i.
    """
    gg, g2 = _cell_terms(mesh.cells, mesh.cell_gradients, values, eps)
    if eps == 0.0 and p < 2:
        # |z|^{p-2} z is continuous with value 0 at z = 0; force that limit.
        kappa = np.zeros_like(g2)
        nz = g2 > 0
        kappa[nz] = g2[nz] ** (0.5 * (p - 2))
    else:
        kappa = g2 ** (0.5 * (p - 2))
    flux = (mesh.cell_volumes * kappa)[:, None] * gg
    return np.bincount(mesh.cells.ravel(), weights=flux.ravel(), minlength=mesh.n_vertices)


class Operator:
    """Fixed-pattern storage of linearized operators on the free vertices of a mesh.

    Attributes:
        free: sorted int array of the free vertex indices; row/column k of a
            stored matrix belongs to vertex free[k].
        size: length of the stored data vector.
        band: half-bandwidth of the band storage in 1D, None in 2D.
        indices, indptr: the fixed CSC pattern in 2D.
        scatter: (n_cells * (d+1)^2,) position in the data of each local block
            entry; entries touching a vertex outside free point at index size.
        diagonal: (len(free),) position of each diagonal entry in the data.
        gram: (n_cells, d+1, d+1) blocks vol * G G^T, exactly symmetric.

    Only arrays are kept, never the mesh, so an Operator cached under a mesh
    does not keep that mesh alive.
    """

    def __init__(self, mesh, free):
        self.free = np.asarray(free, dtype=np.int64)
        self.cells = mesh.cells
        self.gradients = mesh.cell_gradients
        self.volumes = mesh.cell_volumes
        n = len(self.free)
        gram = np.einsum("cid,cjd->cij", self.gradients, self.gradients)
        gram *= self.volumes[:, None, None]
        self.gram = gram
        loc = np.full(mesh.n_vertices, -1, dtype=np.int64)
        loc[self.free] = np.arange(n)
        local = loc[self.cells]
        rows, cols = local[:, :, None], local[:, None, :]  # entry (i, j) of each cell's block
        outside = (rows < 0) | (cols < 0)
        if mesh.dimension == 1:
            # LAPACK band storage: ab[band + i - j, j] = a[i, j]
            self.band = int(np.max(np.abs(rows - cols), where=~outside, initial=0))
            self.size = (2 * self.band + 1) * n
            slots = (self.band + rows - cols) * n + cols
            self.diagonal = self.band * n + np.arange(n)
        else:
            # keys col * n + row sort in CSC order; the diagonal is always stored
            self.band = None
            keys = cols * n + rows
            keys[outside] = n * n
            diagonal_keys = np.arange(n) * (n + 1)
            pattern = np.unique(np.concatenate([keys.ravel(), diagonal_keys]))
            pattern = pattern[pattern < n * n]
            self.size = len(pattern)
            self.indices = (pattern % n).astype(np.intc)
            self.indptr = np.zeros(n + 1, dtype=np.intc)
            np.cumsum(np.bincount(pattern // n, minlength=n), out=self.indptr[1:])
            slots = np.searchsorted(pattern, keys)
            self.diagonal = np.searchsorted(pattern, diagonal_keys)
        slots[outside] = self.size
        self.scatter = slots.ravel()

    def add_diagonal(self, data, diag):
        """Add diag (one value per mesh vertex) to the diagonal of data in place."""
        data[self.diagonal] += diag[self.free]

    def matrix(self, data):
        """The stored matrix as a new scipy CSC matrix that shares no array with the operator."""
        n = len(self.free)
        if self.band is None:
            return sp.csc_matrix((data, self.indices, self.indptr), shape=(n, n), copy=True)
        offsets = np.arange(self.band, -self.band - 1, -1)
        return sp.dia_matrix((data.reshape(-1, n), offsets), shape=(n, n)).tocsc()

    def factorize(self, data):
        """Factor the stored matrix once; returns solve(rhs).

        Raises SingularJacobian when the factorization fails or a solution is
        not finite.  The banded solve factors data at each call, so data must
        not change while solve is in use.
        """
        n = len(self.free)
        if self.band is None:
            matrix = sp.csc_matrix((data, self.indices, self.indptr), shape=(n, n))
            try:
                lu = spla.splu(matrix, permc_spec="MMD_AT_PLUS_A")
            except RuntimeError as exc:  # SuperLU signals singularity this way
                raise SingularJacobian(str(exc)) from exc
            return lambda rhs: _finite(lu.solve(rhs))
        ab = data.reshape(-1, n)

        def solve(rhs):
            try:
                sol = scipy.linalg.solve_banded((self.band, self.band), ab, rhs, check_finite=False)
            except np.linalg.LinAlgError as exc:
                raise SingularJacobian(str(exc)) from exc
            return _finite(sol)

        return solve


def _finite(sol):
    if not np.all(np.isfinite(sol)):
        raise SingularJacobian("factorization produced non-finite values")
    return sol


# mesh -> {free vertex bytes: Operator}; weak keys, so entries die with their mesh
_OPERATORS = weakref.WeakKeyDictionary()


def operator(mesh, free):
    """The Operator of (mesh, free), built on first use and cached per mesh."""
    free = np.asarray(free, dtype=np.int64)
    per_mesh = _OPERATORS.setdefault(mesh, {})
    key = free.tobytes()
    if key not in per_mesh:
        per_mesh[key] = Operator(mesh, free)
    return per_mesh[key]


def p_flux_jacobian(op, values, p, eps, diag=None):
    """Stored data of the linearized gradient term on op's free vertices.

    values are nodal values on all vertices; diag, when given, holds one value
    per vertex and is added to the diagonal.  op.matrix(data) is the matrix.
    """
    if p == 2.0:
        blocks = op.gram  # the kernel is identically 1
    else:
        gg, g2 = _cell_terms(op.cells, op.gradients, values, eps)
        kappa = g2 ** (0.5 * (p - 2))
        # the anisotropic part needs g2 > 0 (g2 = 0 is degenerate for p > 2
        # and singular for p < 2)
        ratio = np.where(g2 > 0, (p - 2.0) * kappa / np.where(g2 > 0, g2, 1.0), 0.0)
        blocks = gg[:, :, None] * gg[:, None, :]
        blocks *= (op.volumes * ratio)[:, None, None]
        blocks += kappa[:, None, None] * op.gram
    data = np.bincount(op.scatter, weights=blocks.ravel(), minlength=op.size + 1)[: op.size]
    if diag is not None:
        op.add_diagonal(data, diag)
    return data


def restrict(matrix, free):
    """Submatrix on the free degrees of freedom."""
    return matrix[np.ix_(free, free)].tocsc() if sp.issparse(matrix) else matrix[np.ix_(free, free)]


def solve_sparse(op, data, rhs):
    """Solve op's matrix with stored values data against rhs; one factorization.

    Raises SingularJacobian when the factorization fails or the solution is
    not finite.
    """
    return op.factorize(data)(rhs)

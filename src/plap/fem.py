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

Per-cell gradients come from one Gradients kernel per mesh, built on first
use: it keeps each local vertex's column of the cell array and each hat
gradient coefficient as contiguous arrays, so grad u, G g and |g|^2 are
(d+1) d multiply-adds on vectors of length n_cells.

The storage follows the half-bandwidth b of the free-vertex numbering.  When
b <= MAX_BAND it is LAPACK band storage for scipy.linalg.solve_banded (in 1D
the free unknowns are consecutive vertices and b = 1); beyond that it is the
data of a CSC matrix with fixed indices, factorized by SuperLU with a
minimum-degree ordering on A^T + A, as the pattern is symmetric.  On an
n x n grid b is about n, so band storage grows like n^3 and band LU costs
O(n^4) against SuperLU's fill-reducing order.  Factor + solve of an
indefinite p = 3 Jacobian on the interior of an n x n grid (one core of a
shared x86-64 VM, numpy/scipy with OpenBLAS, one thread):

    n x n     16^2     24^2     32^2     48^2     64^2      96^2    128^2
    SuperLU   0.60 ms  2.12 ms  2.59 ms  7.3 ms   15.3 ms   41 ms   82 ms
    banded    0.10 ms  0.42 ms  0.72 ms  3.0 ms   8.6 ms    41 ms   84 ms

so MAX_BAND = 64 keeps every grid up to 64 x 64 on the band solver (6 MB of
band workspace at 64 x 64) and moves 96 x 96 and beyond to SuperLU.
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
    "Gradients",
    "gradients",
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


class Gradients:
    """P1 gradient kernel of one mesh, with its arrays laid out per local vertex.

    Attributes:
        columns: d+1 contiguous (n_cells,) arrays; columns[i] is column i of
            mesh.cells, the i-th vertex of every cell.
        coefficients: coefficients[i][k] is the contiguous (n_cells,) array of
            the k-th component of the gradient of the i-th local hat function.

    Sums run over the local vertex (or the axis) in increasing order, the
    order numpy's einsum uses for the same contractions.  Only arrays are
    kept, never the mesh.
    """

    def __init__(self, mesh):
        d = mesh.dimension
        self.cells = mesh.cells
        self.n_vertices = mesh.n_vertices
        self.columns = tuple(np.ascontiguousarray(mesh.cells[:, i]) for i in range(d + 1))
        self.coefficients = tuple(
            tuple(np.ascontiguousarray(mesh.cell_gradients[:, i, k]) for k in range(d)) for i in range(d + 1)
        )

    def gradient(self, values):
        """(d, n_cells) array: row k holds the k-th component of grad u on every cell."""
        local = [values[col] for col in self.columns]
        g = np.empty((len(self.coefficients[0]), len(self.cells)))
        for k, row in enumerate(g):
            np.multiply(local[0], self.coefficients[0][k], out=row)
            for vals, coef in zip(local[1:], self.coefficients[1:]):
                row += vals * coef[k]
        return g

    @staticmethod
    def dot(a, b):
        """Per-cell dot product of two gradient fields from gradient()."""
        out = a[0] * b[0]
        for ak, bk in zip(a[1:], b[1:]):
            out += ak * bk
        return out

    def pairings(self, g, scale=None):
        """(n_cells, d+1) array G g: entry (c, i) is grad hat_i . g on cell c, times scale[c]."""
        out = np.empty((len(self.cells), len(self.columns)))
        for i, coef in enumerate(self.coefficients):
            acc = coef[0] * g[0]
            for ck, gk in zip(coef[1:], g[1:]):
                acc += ck * gk
            if scale is not None:
                acc *= scale
            out[:, i] = acc
        return out

    def scatter(self, per_cell):
        """Vertex sums of an (n_cells, d+1) array of per-cell, per-local-vertex values."""
        return np.bincount(self.cells.ravel(), weights=per_cell.ravel(), minlength=self.n_vertices)


# mesh -> Gradients; weak keys, so entries die with their mesh
_GRADIENTS = weakref.WeakKeyDictionary()


def gradients(mesh):
    """The Gradients kernel of mesh, built on first use and cached per mesh."""
    try:
        return _GRADIENTS[mesh]
    except KeyError:
        kernel = _GRADIENTS[mesh] = Gradients(mesh)
        return kernel


def _cell_terms(kernel, values, eps):
    """Per cell: g = grad u as a (d, n_cells) array and |g|^2 + eps^2."""
    g = kernel.gradient(values)
    g2 = kernel.dot(g, g)
    if eps:
        g2 += eps * eps
    return g, g2


def p_flux(mesh, values, p, eps=0.0):
    """Vector with entries sum_T vol_T kappa(grad u) grad u . grad hat_i, all vertices.

    With eps = 0 this is the exact discrete p-Laplacian pairing; the i-th entry
    is the gradient part of the weak residual at vertex i.
    """
    kernel = gradients(mesh)
    g, g2 = _cell_terms(kernel, values, eps)
    if eps == 0.0 and p < 2:
        # |z|^{p-2} z is continuous with value 0 at z = 0; force that limit.
        kappa = np.zeros_like(g2)
        nz = g2 > 0
        kappa[nz] = g2[nz] ** (0.5 * (p - 2))
    else:
        kappa = g2 ** (0.5 * (p - 2))
    return kernel.scatter(kernel.pairings(g, mesh.cell_volumes * kappa))


# widest half-bandwidth kept in LAPACK band storage; see the module docstring
MAX_BAND = 64


class Operator:
    """Fixed-pattern storage of linearized operators on the free vertices of a mesh.

    Attributes:
        free: sorted int array of the free vertex indices; row/column k of a
            stored matrix belongs to vertex free[k].
        size: length of the stored data vector.
        band: half-bandwidth of the band storage, None when the half-bandwidth
            exceeds MAX_BAND and the storage is CSC.
        indices, indptr: the fixed CSC pattern when band is None.
        scatter: (n_cells * (d+1)^2,) position in the data of each local block
            entry; entries touching a vertex outside free point at index size.
        diagonal: (len(free),) position of each diagonal entry in the data.
        gram: (n_cells, d+1, d+1) blocks vol * G G^T, exactly symmetric.

    Only arrays are kept, never the mesh, so an Operator cached under a mesh
    does not keep that mesh alive.
    """

    def __init__(self, mesh, free):
        self.free = np.asarray(free, dtype=np.int64)
        self.kernel = gradients(mesh)
        self.volumes = mesh.cell_volumes
        n = len(self.free)
        gram = np.einsum("cid,cjd->cij", mesh.cell_gradients, mesh.cell_gradients)
        gram *= self.volumes[:, None, None]
        self.gram = gram
        loc = np.full(mesh.n_vertices, -1, dtype=np.int64)
        loc[self.free] = np.arange(n)
        local = loc[mesh.cells]
        rows, cols = local[:, :, None], local[:, None, :]  # entry (i, j) of each cell's block
        outside = (rows < 0) | (cols < 0)
        band = int(np.max(np.abs(rows - cols), where=~outside, initial=0))
        if band <= MAX_BAND:
            # LAPACK band storage: ab[band + i - j, j] = a[i, j]
            self.band = band
            self.size = (2 * band + 1) * n
            slots = (band + rows - cols) * n + cols
            self.diagonal = band * n + np.arange(n)
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
        g, g2 = _cell_terms(op.kernel, values, eps)
        gg = op.kernel.pairings(g)
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

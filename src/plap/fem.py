"""The regularized p-Laplacian weak form, its assembly kernels and the damped-Newton loop (newton).

Internal machinery shared by the eigensolver and the BVP solver.  Both solve
the one regularized weak residual that weak_form defines on a set of free
vertices s = u[free],

    r(u) = p_flux(u; p, eps_g)[free] - sum_k c_k (s^2 + eps_s^2)^{(r_k-2)/2} s - load,

with its Jacobian on an Operator: the BVP rungs with the terms
(lam lump m, p) and (eta lump a, q), the eigensolver's inner solve with
(-shift lump, p).  The gradient term uses the smoothed kernel
(|z|^2 + eps_g^2)^{(p-2)/2}, whose linearization per cell is

    A(z) = (|z|^2 + eps^2)^{(p-2)/2} * (I + (p-2) z (x) z / (|z|^2 + eps^2)),

a symmetric positive definite matrix for p > 1.  Zeroth-order odd powers
|s|^{r-2} s are smoothed as (s^2 + eps_s^2)^{(r-2)/2} s, which for q < 2
removes the unbounded derivative at s = 0.  The floors of the two
smoothings, EPS_GRAD_FLOOR and EPS_ZERO_FLOOR, are the ones every solve
ends on, at the foot of the one ladder of smoothings, EPS_LADDER.

Linearized systems live on an Operator: the Jacobian restricted to one set of
free vertices, with its storage pattern, the scatter map from each cell's
local block into that storage and the per-cell Gram blocks vol * G G^T built
once per (mesh, free set).  A Newton iteration then only evaluates

    block_T = vol kappa G G^T + vol (p-2) kappa / (|z|^2 + eps^2) (G z)(G z)^T,

which is symmetric by construction, and sums the blocks into the fixed
storage with one bincount.

Per-cell gradients come from one gradient matrix per mesh (Gradients): D,
in CSR form with int32 indices, has row k n_cells + c hold the k-th
component of cell c's hat gradients in its d+1 vertex columns.  grad u is
D u, and p_flux is D^T (w D u) with w = vol kappa per cell and D^T the CSC
view of D's arrays.  A product adds a row's entries in stored order: D u
adds a cell's vertices in increasing order, as einsum does, and D^T z a
vertex's terms in (axis, cell) order.  Both also take a stack of functions,
one per row, as the columns of one multi-vector product, with the same
arithmetic per row as a call on that row alone.  A stack shares one call's
overhead among its rows (newton's line search stacks its trials).  Time per
row of one stacked call at p = 3 against a call on one vector, in
microseconds (one thread, best of 7, the lower of two runs on a shared
2-core Xeon host with 2 MB of L2 per core):

    mesh     cells   vector   1 row   2 rows    4     8    16    32
    n=256      256      8        9       7      4     2     1     1
    n=1024    1024     12       11      14      8     6     4     4
    n=4096    4096     23       25      40     25    21    30    44
    24^2      1152     18       18      20     13    10     7     7
    48^2      4608     47       48      64     44    38    73    74
    64^2      8192     81       81     116     78    70    67   112

A stack of one costs about what the vector call does (it takes the same
one-vector routine); newton evaluates a single trial as a vector.  newton's
chunks hold at most 34 rows, the step sizes above its 1e-10 floor; on the
benchmark's sweep grids (the n = 256 interval and the 24^2 square) they
reach 23 and 27 rows, where stacks of four or more rows pay and one of two
costs about what two vector calls do.  From a few thousand cells a stack of
two costs 1.4 to 1.7 times two vector calls, and past about 2^16 rows x
cells a stack's temporaries outgrow L2 and a row costs as much as a vector
call or more (n = 4096 and 48^2 from 16 rows, 64^2 at 32).  No search
stacks there in the benchmark: the eigensolver's inner solve at n = 4096
takes full steps, one vector per search.  So p_flux evaluates every stack
in one call.

The storage follows the half-bandwidth b of the free-vertex numbering.  When
b <= MAX_BAND it is LAPACK band storage, factored once by gbtrf and solved by
gbtrs (in 1D the free unknowns are consecutive vertices, b = 1, and the
tridiagonal gttrf/gttrs do the same); beyond that it is the
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

The p = 2 stiffness K + c diag(lumped volumes), the one matrix that every
iteration of a caller reuses (the p = 2 eigensolve, the eta* preconditioner,
the random BVP starts), is solved by stiffness_solver.  The rule: on the
whole interior of a build_rectangle grid (mesh.grid is set) K is the 5-point
stencil, which the 2D DST-I diagonalizes, so a solve is two 2D sine
transforms (numpy's rfft) and a division, with nothing to factor; on any
other free set (boundary strips, and intervals, where gttrf is already O(n))
K is assembled on the Operator and factored once as above.  Factor + one
solve (f+s) and each further solve (s) of the p = 2 stiffness on the
interior of an n x n grid (same machine, one thread, best of three runs):

    n x n           24^2             64^2            128^2
    SuperLU  f+s/s  1.7 / 0.067 ms   10.7 / 0.33 ms  70 / 1.9 ms
    banded   f+s/s  0.29 / 0.035 ms  5.0 / 0.43 ms   74 / 7.2 ms
    DST      s      0.086 ms         0.145 ms        0.45 ms

On small grids a band solve is cheaper than the transform; only a caller
that factors once for a few solves gains there.
"""

from __future__ import annotations

import functools
import math

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse import _sparsetools

from .errors import SingularJacobian

__all__ = [
    "EPS_GRAD_FLOOR",
    "EPS_ZERO_FLOOR",
    "EPS_LADDER",
    "odd_power",
    "odd_powers",
    "smoothed_odd_power_deriv",
    "Gradients",
    "gradients",
    "Operator",
    "operator",
    "p_flux",
    "p_flux_jacobian",
    "weak_form",
    "newton",
    "restrict",
    "solve_sparse",
    "stiffness_solver",
]


# smoothing floors of the weak form: the gradient kernel's eps_g and the
# zeroth-order powers' eps_s at the end of every solve
EPS_GRAD_FLOOR = 1e-8
EPS_ZERO_FLOOR = 1e-9
# (eps_g, eps_s) down to the floors: the BVP rungs march it, the eigensolver's cold restart its eps_g
EPS_LADDER = ((1e-2, 1e-3), (1e-4, 1e-5), (1e-6, 1e-7), (EPS_GRAD_FLOOR, EPS_ZERO_FLOOR))


def odd_power(s, r):
    """|s|^{r-2} s with the value 0 at s = 0 (valid for r > 1)."""
    s = np.asarray(s, dtype=float)
    out = np.zeros_like(s)
    nz = s != 0
    out[nz] = np.abs(s[nz]) ** (r - 1) * np.sign(s[nz])
    return out


def odd_powers(s, eps, exponents):
    """(s^2 + eps^2)^{(r-2)/2} s for each r in exponents, sharing s^2 + eps^2; |s|^{r-2} s when eps = 0."""
    if eps == 0.0:
        return [odd_power(s, r) for r in exponents]
    t = s * s + eps * eps
    return [t ** (0.5 * (r - 2)) * s for r in exponents]


def smoothed_odd_power_deriv(s, r, eps):
    """d/ds of the smoothed odd power: (s^2+eps^2)^{(r-4)/2} ((r-1) s^2 + eps^2)."""
    s = np.asarray(s, dtype=float)
    if eps == 0.0:
        return (r - 1) * np.abs(s) ** (r - 2)
    t = s * s + eps * eps
    return t ** (0.5 * (r - 4)) * ((r - 1) * s * s + eps * eps)


class Gradients:
    """P1 gradient matrix D of one mesh; the module docstring gives its layout.

    Attributes:
        matrix: D, a (d n_cells, n_vertices) CSR matrix with int32 indices.
        transpose: D^T, the CSC view of D's arrays (no copy).
        entries: (d, n_cells, d+1) view of D's data; entries[k, c, i] is the
            k-th component of grad hat_i on cell c, in column cells[c, i].

    Only arrays and sparse matrices are kept, never the mesh, as
    mesh.derived requires of the values it keeps.
    """

    def __init__(self, mesh):
        d = mesh.dimension
        n_rows = d * len(mesh.cells)
        indptr = np.arange(0, n_rows * (d + 1) + 1, d + 1, dtype=np.int32)
        indices = np.tile(mesh.cells.astype(np.int32), (d, 1)).ravel()
        data = mesh.cell_gradients.transpose(2, 0, 1).ravel()
        self.matrix = sp.csr_matrix((data, indices, indptr), shape=(n_rows, mesh.n_vertices))
        self.transpose = self.matrix.T
        self.entries = self.matrix.data.reshape(d, -1, d + 1)

    def by_cell(self, columns):
        """D x as a (d, n_cells, ...) array, for x of shape (n_vertices, ...): grad of each column."""
        return _product(self.matrix, columns).reshape(self.entries.shape[:2] + columns.shape[1:])

    def gradient(self, values):
        """(d, ..., n_cells) C-contiguous array: row k holds the k-th component of grad u on every cell.

        values holds one value per vertex, or has shape (rows, n_vertices) for a
        stack of functions; the rows then form the middle axis.
        """
        g = self.by_cell(values.T)
        return g if values.ndim == 1 else np.ascontiguousarray(g.transpose(0, 2, 1))

    @staticmethod
    def dot(a, b):
        """Per-cell dot product of two gradient fields from gradient() or by_cell()."""
        out = a[0] * b[0]
        for ak, bk in zip(a[1:], b[1:]):
            out += ak * bk
        return out

    def pairings(self, g):
        """(n_cells, d+1) array G g of a (d, n_cells) field g: entry (c, i) is grad hat_i . g on cell c."""
        out = self.entries[0] * g[0][:, None]
        for ek, gk in zip(self.entries[1:], g[1:]):
            out += ek * gk[:, None]
        return out


def gradients(mesh):
    """The Gradients kernel of mesh, built on first use and kept in mesh.derived."""
    return mesh.derived(Gradients, lambda: Gradients(mesh))


def _squares(g, eps):
    """|g|^2 + eps^2 per cell of a gradient field g from Gradients.by_cell or Gradients.gradient."""
    g2 = Gradients.dot(g, g)
    if eps:
        g2 += eps * eps
    return g2


def p_flux(mesh, values, p, eps=0.0):
    """Vector with entries sum_T vol_T kappa(grad u) grad u . grad hat_i, all vertices.

    With eps = 0 this is the exact discrete p-Laplacian pairing; the i-th entry
    is the gradient part of the weak residual at vertex i.  It is D^T (w D u)
    with D the gradient matrix and w = vol kappa on each cell.  values of
    shape (rows, n_vertices) give one such vector per row, each bit for bit
    the vector of that row alone, as an F-ordered (rows, n_vertices) array.
    """
    kernel = gradients(mesh)
    g = kernel.by_cell(values.T)  # a stack's rows as columns, the layout of a product
    w = mesh.cell_volumes if values.ndim == 1 else mesh.cell_volumes[:, None]
    if p != 2.0:  # at p = 2 the kernel is identically 1
        w = kappa(_squares(g, eps), p, eps) * w
    g *= w
    return _product(kernel.transpose, g.reshape((-1,) + g.shape[2:])).T


def _product(matrix, x):
    """CSR or CSC matrix @ x, x of shape (n,) or (n, k), by the sparsetools routine @ runs.

    @'s checks around it cost 1.6 us a product, a sixth of p_flux at n = 64.
    """
    m, n = matrix.shape
    out = np.zeros((m,) + x.shape[1:])
    arrays = matrix.indptr, matrix.indices, matrix.data, x.ravel(), out.ravel()
    if x.size == n:  # one vector: the multi-vector routine costs more per entry for it, as @ knows
        getattr(_sparsetools, matrix.format + "_matvec")(m, n, *arrays)
    else:
        getattr(_sparsetools, matrix.format + "_matvecs")(m, n, x.shape[1], *arrays)
    return out


def kappa(g2, p, eps):
    """The flux kernel (|z|^2 + eps^2)^{(p-2)/2} per cell, from g2 = |z|^2 + eps^2."""
    if eps == 0.0 and p < 2:
        # |z|^{p-2} z is continuous with value 0 at z = 0; force that limit.
        out = np.zeros_like(g2)
        nz = g2 > 0
        out[nz] = g2[nz] ** (0.5 * (p - 2))
        return out
    return g2 ** (0.5 * (p - 2))


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

    Only arrays are kept, never the mesh, so an Operator kept in
    mesh.derived does not keep that mesh alive.
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
            # keys col * n + row sort in CSC order; the diagonal is always stored.
            # A key's slot is its position among the distinct keys.
            self.band = None
            keys = cols * n + rows
            keys[outside] = n * n
            every = np.concatenate([keys.ravel(), np.arange(n) * (n + 1)])
            pattern, slot = np.unique(every, return_inverse=True)
            pattern = pattern[pattern < n * n]
            self.size = len(pattern)
            self.indices = (pattern % n).astype(np.intc)
            self.indptr = np.zeros(n + 1, dtype=np.intc)
            np.cumsum(np.bincount(pattern // n, minlength=n), out=self.indptr[1:])
            slots = slot[: keys.size].reshape(keys.shape)
            self.diagonal = slot[keys.size :]
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

    def pin(self, data, pinned):
        """Copy of data with the rows and columns of the pinned free vertices set to the identity.

        pinned is a boolean mask over free.  Solving the result against a
        right-hand side that vanishes on pinned gives the solution of the
        system restricted to the other free vertices, and zero on pinned.
        """
        rows, cols = self._slot_positions
        out = data.copy()
        out[pinned[rows] | pinned[cols]] = 0.0
        out[self.diagonal[pinned]] = 1.0
        return out

    @functools.cached_property
    def _slot_positions(self):
        """(row, column) of every data slot, formed on the first pin."""
        n = len(self.free)
        if self.band is None:
            return self.indices, np.repeat(np.arange(n), np.diff(self.indptr))
        slot = np.arange(self.size)
        cols = slot % n
        # the unused corners of band storage map outside [0, n); they hold zeros
        return np.clip(cols + slot // n - self.band, 0, n - 1), cols

    def factorize(self, data):
        """Factor the stored matrix once; returns solve(rhs).

        Raises SingularJacobian when the factorization fails or a solution is
        not finite.  The factor is a copy, so data may change afterwards.
        """
        n = len(self.free)
        if self.band is None:
            matrix = sp.csc_matrix((data, self.indices, self.indptr), shape=(n, n))
            try:
                lu = spla.splu(matrix, permc_spec="MMD_AT_PLUS_A")
            except RuntimeError as exc:  # SuperLU signals singularity this way
                raise SingularJacobian(str(exc)) from exc
            return lambda rhs: _finite(lu.solve(rhs))
        b = self.band
        if b == 1 and n > 2:
            # tridiagonal, as on every interval: gttrf/gttrs split the gtsv that
            # solve_banded runs there, and take half the time of gbtrf/gbtrs
            # (scipy's gttrf wrapper rejects n = 2)
            ab = data.reshape(3, n)
            dl, d, du, du2, pivots, info = scipy.linalg.lapack.dgttrf(ab[2, :-1], ab[1], ab[0, 1:])

            def substitute(rhs):
                return scipy.linalg.lapack.dgttrs(dl, d, du, du2, pivots, rhs)[0]
        else:
            # gbtrf wants b extra rows above the matrix for the fill of row pivoting
            work = np.zeros((3 * b + 1, n), order="F")
            work[b:] = data.reshape(-1, n)
            lu, pivots, info = scipy.linalg.lapack.dgbtrf(work, b, b, overwrite_ab=1)

            def substitute(rhs):
                return scipy.linalg.lapack.dgbtrs(lu, b, b, rhs, pivots)[0]
        if info > 0:
            raise SingularJacobian(f"band LU: U[{info - 1}, {info - 1}] is exactly zero")
        return lambda rhs: _finite(substitute(rhs))


def _finite(sol):
    if not np.all(np.isfinite(sol)):
        raise SingularJacobian("factorization produced non-finite values")
    return sol


def operator(mesh, free):
    """The Operator of (mesh, free), built on first use and kept in mesh.derived."""
    free = np.asarray(free, dtype=np.int64)
    return mesh.derived((Operator, free.tobytes()), lambda: Operator(mesh, free))


def p_flux_jacobian(op, values, p, eps, diag=None):
    """Stored data of the linearized gradient term on op's free vertices.

    values are nodal values on all vertices; diag, when given, holds one value
    per vertex and is added to the diagonal.  op.matrix(data) is the matrix.
    Raises SingularJacobian when p < 2 and a cell's |grad u|^2 + eps^2 is 0
    (eps = 0 there): the linearization is unbounded at that cell.
    """
    if p == 2.0:
        blocks = op.gram  # the kernel is identically 1
    else:
        g = op.kernel.by_cell(values)
        g2 = _squares(g, eps)
        if p < 2 and not g2.all():
            raise SingularJacobian("eps_grad = 0 with p < 2: the linearization is unbounded where grad u = 0")
        gg = op.kernel.pairings(g)
        kappa = g2 ** (0.5 * (p - 2))
        # the anisotropic part needs g2 > 0 (g2 = 0 is degenerate for p > 2)
        ratio = np.where(g2 > 0, (p - 2.0) * kappa / np.where(g2 > 0, g2, 1.0), 0.0)
        blocks = gg[:, :, None] * gg[:, None, :]
        blocks *= (op.volumes * ratio)[:, None, None]
        blocks += kappa[:, None, None] * op.gram
    data = np.bincount(op.scatter, weights=blocks.ravel(), minlength=op.size + 1)[: op.size]
    if diag is not None:
        op.add_diagonal(data, diag)
    return data


def weak_form(mesh, op, p, eps_g, eps_s, terms, load):
    """(res, jac, energy) of the regularized weak residual on op's free vertices, as newton takes them.

        r(u) = p_flux(u; p, eps_g)[free] - sum_k c_k (s^2 + eps_s^2)^{(r_k-2)/2} s - load,

    s = u[free].  terms is a sequence of (c_k, r_k) with c_k over all
    vertices, load is over free; the terms are subtracted in order, then the
    load.  res(values, s) takes nodal values on all vertices with their free
    part, or a (rows, n_vertices) stack with its (rows, len(free)) free part,
    and returns one C-ordered residual row per row, each bit for bit that
    row's.  jac(values) is the stored data on op of the Jacobian: the
    linearized gradient term plus the diagonal -sum_k c_k d/ds of the
    smoothed powers.  energy(values, s) is the regularized energy whose
    gradient in s is r,

        E(u) = (1/p) sum_T vol_T (|grad u|^2 + eps_g^2)^{p/2}
               - sum_k (1/r_k) sum c_k (s^2 + eps_s^2)^{r_k/2} - load . s,

    on one vector of nodal values.
    """
    free = op.free
    coefs = [c[free] for c, _ in terms]
    exponents = [r for _, r in terms]

    def res(values, s):
        r = p_flux(mesh, values, p, eps_g).take(free, axis=-1)
        if terms:
            for c, power in zip(coefs, odd_powers(s, eps_s, exponents)):
                r -= c * power
        r -= load
        return r

    def jac(values):
        data = p_flux_jacobian(op, values, p, eps_g)
        if terms:
            diag = np.zeros(len(values))
            for c, r in terms:
                diag -= c * smoothed_odd_power_deriv(values, r, eps_s)
            op.add_diagonal(data, diag)
        return data

    def energy(values, s):
        g2 = _squares(op.kernel.by_cell(values), eps_g)
        e = float(np.dot(op.volumes, g2 ** (0.5 * p))) / p
        s2 = s * s + eps_s * eps_s
        for c, r in zip(coefs, exponents):
            e -= float(np.dot(c, s2 ** (0.5 * r))) / r
        return e - float(np.dot(load, s))

    return res, jac, energy


def stiffness_solver(mesh, free, shift=0.0):
    """solve(rhs) for the p = 2 stiffness K + shift * diag(lumped volumes) on the free vertices.

    rhs is a vector over free or an (len(free), k) block, as for the solve of
    Operator.factorize.  On the interior of a build_rectangle grid K is the
    5-point stencil and the solve is closed form (_sine_solver); otherwise K
    is assembled on the cached Operator and factorized once.
    """
    free = np.asarray(free, dtype=np.int64)
    if mesh.grid is not None and np.array_equal(free, mesh.interior_vertices):
        return _sine_solver(mesh, shift)
    op = operator(mesh, free)
    data = p_flux_jacobian(op, np.zeros(mesh.n_vertices), 2.0, 0.0)
    if shift:
        op.add_diagonal(data, shift * mesh.lumped_volumes)
    return op.factorize(data)


def _dst(x):
    """DST-I along the last axis: y_k = sum_j x_j sin(pi j k / N) for j, k = 1 .. N-1.

    y is minus the imaginary part of numpy's rfft of (0, x) padded with zeros
    to length 2N.  Padding instead of the odd extension (0, x, 0, -reversed
    x), whose transform is -2i y, saves a copy; the two agree to roundoff.
    """
    n = x.shape[-1] + 1
    padded = np.zeros(x.shape[:-1] + (2 * n,))
    padded[..., 1:n] = x
    return -np.fft.rfft(padded)[..., 1:n].imag


def _sine_solver(mesh, shift):
    """Closed-form solve of K + shift * hx hy I on the interior of an nx x ny grid.

    Interior vertex (i, j), i = 1 .. nx-1, j = 1 .. ny-1, has row-major
    position (j-1)(nx-1) + i-1.  The products sin(k pi i / nx) sin(l pi j / ny)
    are the eigenvectors, with eigenvalues
    (hy/hx)(2 - 2cos(k pi / nx)) + (hx/hy)(2 - 2cos(l pi / ny)) + shift hx hy,
    so the solve is a 2D DST-I, a division and a second 2D DST-I scaled by
    4 / (nx ny) (Buzbee, Golub & Nielson, SIAM J. Numer. Anal. 7, 1970).
    """
    nx, ny = mesh.grid
    x0, x1, y0, y1 = mesh.bounds
    hx, hy = (x1 - x0) / nx, (y1 - y0) / ny
    ex = 2.0 - 2.0 * np.cos(np.pi * np.arange(1, nx) / nx)
    ey = 2.0 - 2.0 * np.cos(np.pi * np.arange(1, ny) / ny)
    # (k, l) entry for the mode of x-frequency k and y-frequency l, the axis order of the swapped block
    scale = (4.0 / (nx * ny)) / ((hy / hx) * ex[:, None] + (hx / hy) * ey[None, :] + shift * hx * hy)

    def solve(rhs):
        block = rhs.T.reshape(-1, ny - 1, nx - 1)
        coef = _dst(_dst(block).swapaxes(1, 2)) * scale
        out = _dst(_dst(coef).swapaxes(1, 2))
        return out.reshape(len(block), -1).T if rhs.ndim == 2 else out.ravel()

    return solve


def restrict(matrix, free):
    """Submatrix on the free degrees of freedom."""
    return matrix[np.ix_(free, free)].tocsc() if sp.issparse(matrix) else matrix[np.ix_(free, free)]


def solve_sparse(op, data, rhs):
    """Solve op's matrix with stored values data against rhs; one factorization.

    Raises SingularJacobian when the factorization fails or the solution is
    not finite.
    """
    return op.factorize(data)(rhs)


def newton(values, free, res, jac, op, goal, max_iter, stall, energy=None, width=1):
    """Damped Newton with a backtracking line search on the squared residual norm.

    values holds nodal values on all vertices and is updated in place on the
    free vertices; the others never change.  res(values, values[free]) is the
    residual on free, jac(values) the stored data of its Jacobian on op, and
    goal(values[free]) the norm at which an iterate has converged.  res also
    takes a stack, (rows, n_vertices) values with their (rows, len(free))
    free parts, and returns one C-ordered residual row per row, each bit for
    bit the residual of that row alone.  Returns (reason, iterations,
    final_norm, width, energy_steps), where reason names the test that ended
    the loop:

      * converged: ||r|| <= goal;
      * stalled: the trial that passed Armijo lowers ||r||^2 by less than the
        relative stall, and is not taken (stall = 0 switches this off);
      * line_search: t fell to 1e-10 with no trial passing;
      * max_newton: max_iter iterations;
      * singular: the Jacobian could not be formed or factored.

    Each iteration halves t from 1 until the trial passes Armijo,
    ||r_trial||^2 <= (1 - 2e-4 t) ||r||^2; a trial whose ||r_trial||^2 is
    not finite fails.  Unless the loop converged, values hold the last
    accepted iterate.

    energy, when given, is E(values, values[free]) with gradient res, and
    rescues a search that would end the loop as stalled or line_search: if
    the step descends E (r . step < 0), an energy step takes the first
    t = 1, 1/2, ... above the 1e-10 floor with a finite E(s + t step) <=
    E(s) + 1e-4 t (r . step) (Armijo on E; Nocedal & Wright 2006, ch. 3),
    and the loop goes on from there under the ||r||^2 test.  With no such t
    the loop ends with the search's reason.  The energy search also stops
    where the decrease it asks for falls below E's rounding error
    (_energy_step): near a root, where ||r||^2 stalls on roundoff, E's
    differences are roundoff too.  energy_steps counts the energy steps
    taken.  A caller passes energy only where E is coercive, where the
    solutions it seeks minimize E; at a saddle an energy step can lead away
    from the root.

    The trials are evaluated in chunks: the next k step sizes t, t/2, ...,
    t/2^(k-1) above the 1e-10 floor, as the rows of one stacked res call,
    and the first row in order that passes Armijo is taken.  Each row's
    residual and its dot product are those of the trial alone, so the step,
    the tests and the values are those of a search that evaluates one trial
    at a time; a chunk only adds trials past the accepted one.  k is the
    number of trials the previous search evaluated, all of them when none
    passed; the first search takes k = width, which the caller carries from
    the width this returns for its previous call on the same start (1 on a
    start's first call).  So a search that backtracks as deeply as the last
    one costs one call, where most of a call on a few hundred vertices is
    per-call overhead; a rung that stalls on its first iteration after a
    rung that stalled as deep makes one call, not one per trial.  A one-row
    chunk calls res on the vector, which costs no more than a stack of one
    (the table in the module docstring).
    """
    s = values[free]
    r = res(values, s)
    rn = float(np.linalg.norm(r))
    tol = goal(s)
    trial = values.copy()  # one-row buffer; its fixed vertices never change
    energy_steps = 0
    for it in range(max_iter):
        if rn <= tol:
            return "converged", it, rn, width, energy_steps
        try:
            step = solve_sparse(op, jac(values), -r)
        except SingularJacobian:
            return "singular", it, rn, width, energy_steps
        merit0 = rn * rn
        ended = "line_search"
        for tried, (t, s_trial, r_trial) in enumerate(_trials(trial, free, res, s, step, width), 1):
            merit = float(np.dot(r_trial, r_trial))
            if math.isfinite(merit) and merit <= (1.0 - 2e-4 * t) * merit0:
                ended = "stalled" if merit > (1.0 - stall) * merit0 else None
                break
        width = tried
        if ended:
            s_trial = None if energy is None else _energy_step(energy, trial, free, values, s, r, step)
            if s_trial is None:
                return ended, it + 1, rn, width, energy_steps
            energy_steps += 1
            r_trial = res(trial, s_trial)  # _energy_step left s_trial in trial
            merit = float(np.dot(r_trial, r_trial))
        values[free] = s = s_trial
        r, rn = r_trial, math.sqrt(merit)  # np.linalg.norm of a vector is sqrt(r.dot(r))
        tol = goal(s)
    return ("converged" if rn <= tol else "max_newton"), max_iter, rn, width, energy_steps


def _energy_step(energy, trial, free, values, s, r, step):
    """s + t * step for the first t = 1, 1/2, ... above the 1e-10 floor that passes Armijo on energy.

    None when step does not descend the energy or no t passes; a trial whose
    energy is not finite fails.  The search also stops where the decrease it
    asks for, 1e-4 t |r . step|, falls below len(s) eps |E(s)| (eps the
    machine epsilon), the size of E's rounding error: past that point a
    trial passes or fails on noise.  The trials are written into trial,
    which holds the iterate's fixed vertices; on success it holds the
    returned one.
    """
    slope = float(np.dot(r, step))
    if not slope < 0.0:
        return None
    e0 = energy(values, s)
    noise = len(s) * np.finfo(float).eps * abs(e0)
    t = 1.0
    while t > 1e-10 and -1e-4 * t * slope > noise:
        trial[free] = s_trial = s + t * step
        e = energy(trial, s_trial)
        if math.isfinite(e) and e <= e0 + 1e-4 * t * slope:
            return s_trial
        t *= 0.5
    return None


def _trials(trial, free, res, s, step, width):
    """(t, s + t * step, its residual) for t = 1, 1/2, ... above the 1e-10 floor.

    The trials are evaluated width at a time, as the rows of one res call;
    a single t is evaluated in trial, which holds the iterate's fixed
    vertices.
    """
    t = 1.0
    while t > 1e-10:
        sizes = [t]
        while len(sizes) < width and sizes[-1] * 0.5 > 1e-10:
            sizes.append(sizes[-1] * 0.5)
        if len(sizes) == 1:
            trial[free] = s_trial = s + t * step
            yield t, s_trial, res(trial, s_trial)
        else:
            s_trials = s + np.multiply.outer(sizes, step)
            trials = np.repeat(trial[None], len(sizes), axis=0)
            trials[:, free] = s_trials
            yield from zip(sizes, s_trials, res(trials, s_trials))
        t = sizes[-1] * 0.5

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
free vertices, with its storage pattern, built once per (mesh, free set).  One
stable sort of the cell blocks' entries by CSC key col n + row gives the
pattern (Cuvelier, Japhet & Scarella, BIT Numer. Math. 56, 2016): the distinct
keys are the entries (rows, cols), and each run of equal keys lists its block
entries in cell order.  One formula places an entry in the data (filled): its
band slot (band + row - col) n + col, or its CSC rank.  Storage is decided
only there and in factorize.  The linearized gradient term's block on a cell,

    block_T = vol kappa G G^T + vol (p-2) kappa / (|z|^2 + eps^2) (G z)(G z)^T,

is exactly symmetric, so only its 3 (1D) or 6 (2D) entries i <= j are formed,
as a (pairs, n_cells) array, and summed into the storage by one product with a
fixed 0/1 matrix whose rows are those runs.  Each entry gets the arithmetic of
its full block and each position adds onto 0 in cell order, so the data is bit
for bit a bincount of the full blocks.  Per call at p = 3 near a solution, in
microseconds (one thread, best of 7, the lower of two runs on a shared 2-core
Xeon host):

    mesh                   n=256    24^2    64^2    100^2 (CSC)
    pairs and product         20      54     388      713

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
O(n^4) against SuperLU's fill-reducing order.  Factor + one solve of an
indefinite p = 3 Jacobian on the interior of an n x n grid (one thread, best
of 7 runs, 2 at 256^2, on a shared 2-core Xeon host):

    n x n       24^2      64^2     96^2      128^2     256^2
    band        0.12 ms   2.6 ms   9.6 ms    24.6 ms   326 ms
    SuperLU     0.85 ms   5.5 ms   13.5 ms   28.1 ms   179 ms
    band work   0.3 MB    6 MB     21 MB     50 MB     400 MB

Band LU stays ahead up to 128 x 128, but by less as n grows, and its
workspace grows like n^3; SuperLU is ahead at 256 x 256.  MAX_BAND = 64 keeps
every grid up to 64 x 64 on the band solver, where it is twice as fast, and
moves 96 x 96 and beyond, where the two are within 30% of each other, to
SuperLU and its smaller memory.

The p = 2 stiffness K + c diag(lumped volumes), the one matrix that every
iteration of a caller reuses (the p = 2 eigensolve, the eta* preconditioner,
the random BVP starts), is solved by stiffness_solver.  The rule: on the
whole interior of a build_rectangle grid (mesh.grid is set) K is the 5-point
stencil, which the 2D DST-I diagonalizes, so a solve is two 2D sine
transforms (numpy's rfft) and a division, with nothing to factor; on any
other free set (boundary strips, and intervals, where gttrf is already O(n))
K is a copy of the Operator's stiffness with the shift on its diagonal,
factored once as above.  Factor + one solve (f+s) and each further solve (s)
of the p = 2 stiffness on the interior of an n x n grid (one core of a shared
x86-64 VM, one thread, best of three runs):

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
        rows, cols, filled: the row, the column and the data position of each
            entry that blocks reach, in CSC order (by column, then row).
        diagonal: (len(free),) data position of each diagonal entry.
        gradient, entries, volumes: the mesh's D (shared), a (d, d+1, n_cells)
            C-contiguous copy of its entries by vertex, and the cell volumes.
        pairs, gram: (2, m) local vertices i <= j of the block entries formed
            (m = 3 in 1D, 6 in 2D), and their (m, n_cells) values vol G G^T.
        assembly: the 0/1 CSR matrix that sums terms laid out as gram into
            the entries, a row per entry.
        stiffness: read-only data of the p = 2 stiffness, built on first use.

    Only sizes, arrays and sparse matrices are kept, never the mesh, so an
    Operator kept in mesh.derived does not keep that mesh alive.
    """

    def __init__(self, mesh, free):
        self.free = np.asarray(free, dtype=np.int64)
        n, n_cells, d = len(self.free), len(mesh.cells), mesh.dimension
        self.gradient = gradients(mesh).matrix
        self.entries = np.ascontiguousarray(gradients(mesh).entries.transpose(0, 2, 1))
        self.volumes = mesh.cell_volumes
        gram = np.einsum("cid,cjd->cij", mesh.cell_gradients, mesh.cell_gradients)
        gram *= self.volumes[:, None, None]
        self.pairs = np.array(np.nonzero(np.arange(d + 1)[:, None] <= np.arange(d + 1)))  # i <= j, row by row
        self.gram = np.ascontiguousarray(gram[:, self.pairs[0], self.pairs[1]].T)
        loc = np.full(mesh.n_vertices, -1, dtype=np.int64)
        loc[self.free] = np.arange(n)
        local = loc[mesh.cells]
        rows, cols = local[:, :, None], local[:, None, :]  # entry (i, j) of each cell's block
        inside = (rows >= 0) & (cols >= 0)
        # block entry (c, i, j) takes pair (min, max) on cell c; the distinct
        # keys hold the diagonal, as every free vertex lies in a cell
        i, j = self.pairs
        pair = np.empty((d + 1, d + 1), dtype=np.int64)
        pair[i, j] = pair[j, i] = np.arange(len(i))
        columns = (pair * n_cells + np.arange(n_cells)[:, None, None])[inside]
        keys = (cols * n + rows)[inside]
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        starts = np.flatnonzero(np.diff(keys, prepend=-1))
        self.cols, self.rows = np.divmod(keys[starts], n)
        band = int(np.max(np.abs(self.rows - self.cols), initial=0))
        if band <= MAX_BAND:
            # LAPACK band storage: ab[band + i - j, j] = a[i, j]
            self.band = band
            self.size = (2 * band + 1) * n
            self.filled = (band + self.rows - self.cols) * n + self.cols
        else:
            self.band = None
            self.size = len(starts)
            self.filled = np.arange(self.size)
            self.indices = self.rows.astype(np.intc)
            self.indptr = np.searchsorted(self.cols, np.arange(n + 1)).astype(np.intc)
        self.diagonal = self.filled[self.rows == self.cols]
        arrays = (np.ones(len(order)), columns[order].astype(np.int32), np.append(starts, len(keys)).astype(np.int32))
        self.assembly = sp.csr_matrix(arrays, shape=(len(starts), self.gram.size))

    def assemble(self, terms):
        """Stored data of the blocks whose entries i <= j are terms, laid out as gram."""
        data = np.zeros(self.size)
        data[self.filled] = _product(self.assembly, terms.ravel())
        return data

    @functools.cached_property
    def stiffness(self):
        data = self.assemble(self.gram)
        data.flags.writeable = False
        return data

    def add_diagonal(self, data, values):
        """Add values (one per free vertex) to the diagonal of data in place."""
        data[self.diagonal] += values

    def matrix(self, data):
        """The stored matrix as a new scipy CSC matrix that shares no array with the operator."""
        n = len(self.free)
        return sp.csc_matrix((data[self.filled], (self.rows, self.cols)), shape=(n, n))

    def pin(self, data, pinned):
        """Copy of data with the rows and columns of the pinned free vertices set to the identity.

        pinned is a boolean mask over free.  Solving the result against a
        right-hand side that vanishes on pinned gives the solution of the
        system restricted to the other free vertices, and zero on pinned.
        """
        out = data.copy()
        out[self.filled[pinned[self.rows] | pinned[self.cols]]] = 0.0
        out[self.diagonal[pinned]] = 1.0
        return out

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


def p_flux_jacobian(op, values, p, eps):
    """Stored data of the linearized gradient term on op's free vertices, a new array.

    values are nodal values on all vertices.  op.matrix(data) is the matrix,
    and op.add_diagonal adds a diagonal to it.  Raises SingularJacobian when
    p < 2 and a cell's |grad u|^2 + eps^2 is 0 (eps = 0 there): the
    linearization is unbounded at that cell.
    """
    if p == 2.0:
        return op.stiffness.copy()  # the kernel is identically 1
    g = _product(op.gradient, values).reshape(len(op.entries), -1)
    g2 = _squares(g, eps)
    if p < 2 and not g2.all():
        raise SingularJacobian("eps_grad = 0 with p < 2: the linearization is unbounded where grad u = 0")
    gg = op.entries[0] * g[0]  # entry (i, c) is grad hat_i . grad u on cell c
    for ek, gk in zip(op.entries[1:], g[1:]):
        gg += ek * gk
    kap = kappa(g2, p, eps)
    # the anisotropic part needs g2 > 0 (g2 = 0 is degenerate for p > 2)
    ratio = np.where(g2 > 0, (p - 2.0) * kap / np.where(g2 > 0, g2, 1.0), 0.0)
    i, j = op.pairs
    terms = gg[i] * gg[j]
    terms *= op.volumes * ratio
    terms += kap * op.gram
    return op.assemble(terms)


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
    smoothed powers; at eps_s = 0 it raises SingularJacobian when some
    r_k < 2 and a free value is 0, where that derivative is unbounded.
    energy(values, s) is the regularized energy whose gradient in s is r,

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
            s = values[free]
            if eps_s == 0.0 and min(exponents) < 2 and not s.all():
                raise SingularJacobian("eps_zero = 0 with a power r < 2: the linearization is unbounded where u = 0")
            diag = np.zeros(len(s))
            for c, r in zip(coefs, exponents):
                diag -= c * smoothed_odd_power_deriv(s, r, eps_s)
            op.add_diagonal(data, diag)
        return data

    def energy(values, s):
        g2 = _squares(gradients(mesh).by_cell(values), eps_g)
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
    is a copy of the cached Operator's stiffness, with the shift added by
    Operator.add_diagonal, factorized once.
    """
    free = np.asarray(free, dtype=np.int64)
    if mesh.grid is not None and np.array_equal(free, mesh.interior_vertices):
        return _sine_solver(mesh, shift)
    op = operator(mesh, free)
    data = op.stiffness.copy()
    if shift:
        op.add_diagonal(data, shift * mesh.lumped_volumes[free])
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

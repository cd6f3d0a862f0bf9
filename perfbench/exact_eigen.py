"""Reference eigenvalues that share no code with plap's kernels.

The 1D values are closed forms of the p-Laplacian spectrum on an interval
(del Pino, Elgueta & Manasevich 1989): with pi_p = 2 pi / (p sin(pi / p)),

    lam_k = (p - 1) (k pi_p / L)^p.

The 2D value is for p = 2 only.  On a rectangle split into right triangles
whose diagonals all point the same way, the P1 stiffness matrix is exactly
the 5-point stencil and the lumped mass of an interior vertex is
h_x h_y m(vertex), so the discrete principal eigenvalue is the smallest
eigenvalue of that pencil, found here with scipy's ARPACK in shift-invert mode.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla


def pi_p(p):
    return 2.0 * math.pi / (p * math.sin(math.pi / p))


def interval_eigenvalue(k, p, length):
    """k-th Dirichlet eigenvalue of the 1D p-Laplacian with unit weight."""
    return (p - 1.0) * (k * pi_p(p) / length) ** p


def interval_tolerance(n_cells):
    """Relative tolerance for a P1 eigenvalue on n_cells segments.

    The discretization error is O(h^2); at p = 3 it measures 1.5 / n^2 at
    both n = 256 and n = 4096, so this allows twice that.
    """
    return 3.0 / n_cells**2


def rectangle_eigenvalue_p2(bounds, nx, ny, weight):
    """Principal eigenvalue of -Lap u = lam m u on the structured P1 rectangle mesh.

    weight(x, y) evaluates m on arrays of vertex coordinates and must be
    positive at every interior vertex.
    """
    x0, x1, y0, y1 = bounds
    hx, hy = (x1 - x0) / nx, (y1 - y0) / ny
    xs = np.linspace(x0, x1, nx + 1)[1:-1]
    ys = np.linspace(y0, y1, ny + 1)[1:-1]
    X, Y = np.meshgrid(xs, ys, indexing="xy")  # x runs fastest, as in plap's vertex order
    m = weight(X, Y).ravel()
    if np.any(m <= 0):
        raise ValueError("the reference needs a positive weight")

    def second_difference(n, scale):
        return sp.diags([-scale, 2.0 * scale, -scale], [-1, 0, 1], shape=(n, n))

    K = sp.kron(sp.identity(ny - 1), second_difference(nx - 1, hy / hx)) + sp.kron(
        second_difference(ny - 1, hx / hy), sp.identity(nx - 1)
    )
    M = sp.diags(hx * hy * m)
    vals = spla.eigsh(K.tocsc(), k=1, M=M.tocsc(), sigma=0.0, which="LM", return_eigenvectors=False)
    return float(vals[0])

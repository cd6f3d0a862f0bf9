"""Independent oracles for the test suite.

These share no numerical kernels with the package (assembly, Newton,
eigensolver): the tridiagonal arrays, the vectorized RK4 stepper, the Thomas
solve, the 5-point rectangle stencil, the bump-family quadrature and the
per-simplex gradients and lumped masses of the regularized energy are
written from scratch here, so agreement with the package is evidence rather
than tautology.
"""

import math

import numpy as np
import scipy.linalg


def linear_eig_oracle_1d(n, m_values=None, length=1.0):
    """Two smallest eigenvalues of -u'' = lam m u, zero Dirichlet data.

    Dense/banded eigensolve of the standard 3-point Laplacian against the
    lumped mass h*diag(m) on a uniform n-cell mesh; requires m > 0.  Returns
    (lam1, lam2, phi1_samples) with phi1 normalized to sup norm 1.
    """
    h = length / n
    m_in = np.ones(n - 1) if m_values is None else np.asarray(m_values, float)[1:-1]
    if np.any(m_in <= 0):
        raise ValueError("oracle needs a positive weight")
    diag = np.full(n - 1, 2.0 / h)
    off = np.full(n - 2, -1.0 / h)
    scale = 1.0 / np.sqrt(h * m_in)
    vals, vecs = scipy.linalg.eigh_tridiagonal(
        diag * scale * scale, off * scale[:-1] * scale[1:], select="i", select_range=(0, 1)
    )
    phi = np.zeros(n + 1)
    phi[1:-1] = vecs[:, 0] * scale
    phi /= phi[np.argmax(np.abs(phi))]
    return float(vals[0]), float(vals[1]), phi


def _shoot_endpoints(p, lams, length, n_steps):
    """Endpoint values u(length) of the IVP u(0)=0, u'(0)=1, batched over lams."""
    lams = np.asarray(lams, float)
    u = np.zeros_like(lams)
    w = np.ones_like(lams)  # w = |u'|^{p-2} u', so u'(0) = 1 gives w = 1
    h = length / n_steps
    expo = 1.0 / (p - 1.0)

    def rhs(u, w):
        du = np.sign(w) * np.abs(w) ** expo
        dw = -lams * np.sign(u) * np.abs(u) ** (p - 1.0)
        return du, dw

    for _ in range(n_steps):
        k1u, k1w = rhs(u, w)
        k2u, k2w = rhs(u + 0.5 * h * k1u, w + 0.5 * h * k1w)
        k3u, k3w = rhs(u + 0.5 * h * k2u, w + 0.5 * h * k2w)
        k4u, k4w = rhs(u + h * k3u, w + h * k3w)
        u = u + h / 6.0 * (k1u + 2 * k2u + 2 * k3u + k4u)
        w = w + h / 6.0 * (k1w + 2 * k2w + 2 * k3w + k4w)
    return u


def plap_shooting_oracle_1d(p, lam_bracket=None, length=1.0):
    """First Dirichlet eigenvalue of the 1D p-Laplacian with unit weight.

    Fixed-step RK4 shooting: the endpoint value u(length) is positive below
    the first eigenvalue and negative between the first and second, so a
    sign bracket is narrowed by repeated 16-point grid bisection.
    """
    if lam_bracket is None:
        lo = 1.0
        while _shoot_endpoints(p, [lo], length, 800)[0] <= 0:
            lo *= 0.5
            if lo < 1e-8:
                raise RuntimeError("could not bracket from below")
        hi = 2.0 * lo
        while _shoot_endpoints(p, [hi], length, 800)[0] > 0:
            hi *= 2.0
            if hi > 1e10:
                raise RuntimeError("could not bracket from above")
    else:
        lo, hi = lam_bracket
    for n_steps in (3000, 3000, 6000, 12000, 24000, 24000, 48000):
        grid = np.linspace(lo, hi, 17)
        vals = _shoot_endpoints(p, grid, length, n_steps)
        idx = np.nonzero(vals <= 0)[0]
        if len(idx) == 0 or idx[0] == 0:
            raise RuntimeError("sign bracket lost during bisection")
        lo, hi = grid[idx[0] - 1], grid[idx[0]]
    return 0.5 * (lo + hi)


def _thomas_solve(lower, diag, upper, rhs):
    """Tridiagonal solve by forward elimination and back substitution."""
    n = len(diag)
    c = np.zeros(n)
    d = np.zeros(n)
    c[0] = upper[0] / diag[0]
    d[0] = rhs[0] / diag[0]
    for i in range(1, n):
        denom = diag[i] - lower[i - 1] * c[i - 1]
        c[i] = upper[i] / denom if i < n - 1 else 0.0
        d[i] = (rhs[i] - lower[i - 1] * d[i - 1]) / denom
    x = np.zeros(n)
    x[-1] = d[-1]
    for i in range(n - 2, -1, -1):
        x[i] = d[i] - c[i] * x[i + 1]
    return x


def linear_bvp_oracle_1d(lam, f_values, n, length=1.0):
    """Samples of the solution of -u'' - lam u = f on a uniform n-cell mesh.

    Direct tridiagonal solve of (K - lam*M) u = h*f; raises near resonance
    (lam within 1e-6 of a discrete eigenvalue).
    """
    h = length / n
    eigs = scipy.linalg.eigvalsh_tridiagonal(np.full(n - 1, 2.0 / (h * h)), np.full(n - 2, -1.0 / (h * h)))
    if np.min(np.abs(eigs - lam)) < 1e-6 * max(1.0, abs(lam)):
        raise RuntimeError(f"lam = {lam} is within 1e-6 of a discrete eigenvalue")
    f_in = np.asarray(f_values, float)[1:-1]
    diag = np.full(n - 1, 2.0 / h - lam * h)
    off = np.full(n - 2, -1.0 / h)
    u = np.zeros(n + 1)
    u[1:-1] = _thomas_solve(off, diag, off, h * f_in)
    return u


def eta_star_bump_oracle(p, q, lam, n_fine=20001):
    """Brute-force scan of the critical-value objective over a bump family.

    Evaluates C(p,q) * H^{(q-1)/(p-1)} * F^{(p-q)/(p-1)} / D with exact-grid
    trapezoid quadrature for u(x) = max(0, 1 - |x-c|/w)^s over a coarse
    (center, width, sharpness) grid on (0,1) with m = a = f = 1.  An upper
    bound for the true infimum, used as a sanity bracket from above.
    """
    c_pq = (p - 1.0) / ((p - q) ** ((p - q) / (p - 1.0)) * (q - 1.0) ** ((q - 1.0) / (p - 1.0)))
    xs = np.linspace(0.0, 1.0, n_fine)
    best = np.inf
    for c in (0.3, 0.4, 0.5, 0.6):
        for w in (0.2, 0.3, 0.4, min(c, 1 - c) - 1e-9):
            if w <= 0:
                continue
            for s in (1.0, 1.5, 2.0, 3.0):
                u = np.maximum(0.0, 1.0 - np.abs(xs - c) / w) ** s
                du = np.gradient(u, xs)
                energy = np.trapezoid(np.abs(du) ** p, xs)
                mass_p = np.trapezoid(u**p, xs)
                h_lam = energy - lam * mass_p
                f_term = np.trapezoid(u, xs)
                denom = np.trapezoid(u**q, xs)
                if denom <= 0 or h_lam <= 0 or f_term <= 0:
                    continue
                val = c_pq * h_lam ** ((q - 1.0) / (p - 1.0)) * f_term ** ((p - q) / (p - 1.0)) / denom
                best = min(best, val)
    return best


def five_point_rectangle(bounds, nx, ny):
    """Dense 5-point stiffness and lumped mass on the interior of an nx x ny grid.

    Interior vertex (i, j), i = 1 .. nx-1, j = 1 .. ny-1, is unknown
    (j-1)(nx-1) + i-1.  The stiffness holds 2(hy/hx + hx/hy) on the diagonal,
    -hy/hx between x-neighbours and -hx/hy between y-neighbours, each entry
    written from its stencil; the lumped mass of every interior vertex is
    hx*hy.  Returns (K, mass, x, y) with x, y the interior coordinates.
    """
    x0, x1, y0, y1 = bounds
    hx, hy = (x1 - x0) / nx, (y1 - y0) / ny
    n = (nx - 1) * (ny - 1)
    K = np.zeros((n, n))
    x = np.empty(n)
    y = np.empty(n)
    for j in range(1, ny):
        for i in range(1, nx):
            k = (j - 1) * (nx - 1) + i - 1
            x[k], y[k] = x0 + i * hx, y0 + j * hy
            K[k, k] = 2.0 * (hy / hx + hx / hy)
            if i > 1:
                K[k, k - 1] = -hy / hx
            if i < nx - 1:
                K[k, k + 1] = -hy / hx
            if j > 1:
                K[k, k - (nx - 1)] = -hx / hy
            if j < ny - 1:
                K[k, k + (nx - 1)] = -hx / hy
    return K, np.full(n, hx * hy), x, y


def principal_generalized_eigenvalue(K, mass_diag):
    """Smallest positive lam with K u = lam diag(mass_diag) u, for SPD K and any sign of mass.

    With K = L L^T, the positive eigenvalues are the reciprocals of the
    positive eigenvalues mu of the symmetric L^{-1} diag(mass) L^{-T}, so
    lam1 = 1 / max(mu).
    """
    L = np.linalg.cholesky(K)
    Linv = scipy.linalg.solve_triangular(L, np.eye(len(K)), lower=True)
    mu = np.linalg.eigvalsh(Linv @ np.diag(mass_diag) @ Linv.T)
    if mu[-1] <= 0:
        raise ValueError("mass has no positive part")
    return 1.0 / mu[-1]


def regularized_energy(vertices, cells, free, values, p, eps_g, eps_s, terms, f_values):
    """Regularized energy of nodal values on a simplicial P1 mesh, from its definition.

        E(u) = (1/p) sum_T |T| (|grad u_T|^2 + eps_g^2)^{p/2}
               - sum_k (1/r_k) sum_{i in free} w_k(i) M_i (u_i^2 + eps_s^2)^{r_k/2}
               - sum_{i in free} M_i f_i u_i,

    where grad u_T solves E_T grad u_T = (u_j - u_0)_j for the edge vectors
    E_T of cell T from its first vertex, |T| = |det E_T| / d!, and M_i, the
    lumped mass, is |T| / (d + 1) summed over the cells at vertex i.  terms
    holds (w_k, r_k) with w_k one weight value per vertex (a spectral or
    perturbation parameter already multiplied in).
    """
    vertices = np.asarray(vertices, float)
    d = vertices.shape[1]
    corners = vertices[cells]  # (n_cells, d + 1, d)
    edges = corners[:, 1:, :] - corners[:, :1, :]
    rises = values[cells[:, 1:]] - values[cells[:, :1]]
    grads = np.linalg.solve(edges, rises[:, :, None])[:, :, 0]
    volumes = np.abs(np.linalg.det(edges)) / math.factorial(d)
    mass = np.zeros(len(vertices))
    for k in range(d + 1):
        np.add.at(mass, cells[:, k], volumes / (d + 1))
    energy = np.sum(volumes * (np.sum(grads * grads, axis=1) + eps_g**2) ** (p / 2)) / p
    u = values[free]
    for weight, r in terms:
        energy -= np.sum(weight[free] * mass[free] * (u * u + eps_s**2) ** (r / 2)) / r
    return float(energy - np.sum(mass[free] * f_values[free] * u))

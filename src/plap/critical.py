"""Critical perturbation size eta* and the Picone inequality checks.

For nonnegative f and 0 <= lam <= lambda_1(m), solutions of the perturbed
problem stay nonnegative while eta < eta*_lam(a), where

    eta*_lam(a) = C(p,q) * inf over {u >= 0, int a u^q > 0} of
        (int |grad u|^p - lam int m u^p)^{(q-1)/(p-1)}
        * (int f u)^{(p-q)/(p-1)}  /  int a u^q,

    C(p,q) = (p-1) / ((p-q)^{(p-q)/(p-1)} (q-1)^{(q-1)/(p-1)}),

with eta* = +infinity when the admissible cone is empty.  The functional is
0-homogeneous and generally nonconvex; the desk-scale surrogate minimizes it
over the nodal nonnegative cone by projected gradient descent from many
starts, so the computed value is an upper estimate of the discrete infimum.
The closed-form lower bound

    C(p,q) * c^{(p-q)/(p-1)} * lambda_1(a_+^{(p-1)/(q-1)})^{(q-1)/(p-1)}
           * (1 - lam/lambda_1(m))^{(q-1)/(p-1)}     (valid when f >= c > 0)

brackets it from below.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.optimize

from . import fem
from .errors import InvalidConfig
from .functions import DiscreteFunction, Weight, grad_energy, weight_values, weighted_power_integral

__all__ = [
    "EtaStarOptions",
    "EtaStarResult",
    "PolynomialCheck",
    "PiconeCheckResult",
    "picone_constant",
    "eta_star_objective",
    "eta_star",
    "eta_star_lower_bound",
    "picone_polynomial",
    "picone_polynomial_check",
    "discrete_picone_check",
]


def picone_constant(p, q):
    """C(p,q) = (p-1) / ((p-q)^{(p-q)/(p-1)} (q-1)^{(q-1)/(p-1)})."""
    return (p - 1.0) / ((p - q) ** ((p - q) / (p - 1.0)) * (q - 1.0) ** ((q - 1.0) / (p - 1.0)))


@dataclass
class EtaStarOptions:
    n_starts: int = 32
    max_iter: int = 600
    seed: int = 0
    lam1: float | None = None
    phi1: DiscreteFunction | None = None
    extra_starts: list = field(default_factory=list)


@dataclass
class EtaStarResult:
    value: float
    minimizer: DiscreteFunction | None
    lower_bound: float | None
    starts_used: int
    all_start_values: list
    lam1: float = math.nan

    @property
    def gap(self):
        """value - lower_bound; reported without interpretation."""
        if self.lower_bound is None or not math.isfinite(self.value):
            return math.nan
        return self.value - self.lower_bound


def eta_star_objective(mesh, m, a, f, p, q, lam, u):
    """The 0-homogeneous quotient at the positive part of u; +inf off the cone."""
    u = u.with_values(np.maximum(u.values, 0.0))
    denom = weighted_power_integral(a, u, q)
    if denom <= 0.0:
        return math.inf
    h_lam = grad_energy(u, p) - lam * weighted_power_integral(m, u, p)
    f_term = weighted_power_integral(f, u, 1.0, signed=True)
    if h_lam <= 0.0 or f_term <= 0.0:
        return 0.0
    alpha = (q - 1.0) / (p - 1.0)
    beta = (p - q) / (p - 1.0)
    return picone_constant(p, q) * h_lam**alpha * f_term**beta / denom


def _projected_gradient(mesh, m_vals, a_vals, f_vals, p, q, lam, start, max_iter):
    free = mesh.interior_vertices
    lump = mesh.lumped_volumes
    alpha = (q - 1.0) / (p - 1.0)
    beta = (p - q) / (p - 1.0)
    c_pq = picone_constant(p, q)

    def pieces(vals):
        u = DiscreteFunction(mesh, vals)
        h_lam = grad_energy(u, p) - lam * float(np.dot(lump, m_vals * vals**p))
        f_term = float(np.dot(lump, f_vals * vals))
        denom = float(np.dot(lump, a_vals * vals**q))
        return h_lam, f_term, denom

    def value(h_lam, f_term, denom):
        if denom <= 0.0:
            return math.inf
        if h_lam <= 0.0 or f_term <= 0.0:
            return 0.0
        return c_pq * h_lam**alpha * f_term**beta / denom

    vals = np.maximum(start, 0.0)
    vals[mesh.boundary_vertices] = 0.0
    e = grad_energy(DiscreteFunction(mesh, vals), p)
    if e <= 0.0:
        return math.inf, vals
    vals = vals / e ** (1.0 / p)
    h_lam, f_term, denom = pieces(vals)
    g = value(h_lam, f_term, denom)
    if not math.isfinite(g) or g == 0.0:
        return g, vals
    step = 0.1
    for _ in range(max_iter):
        # gradient of log G (the objective is 0-homogeneous, so this is
        # tangent to the normalization and no constraint correction is needed)
        grad_h = p * (fem.p_flux(mesh, vals, p, 0.0) - lam * lump * m_vals * vals ** (p - 1.0))
        grad_f = lump * f_vals
        grad_d = q * lump * a_vals * vals ** (q - 1.0)
        direction = g * (alpha * grad_h / h_lam + beta * grad_f / f_term - grad_d / denom)
        moved = False
        while step > 1e-14:
            trial = np.maximum(vals - step * direction, 0.0)
            trial[mesh.boundary_vertices] = 0.0
            e = grad_energy(DiscreteFunction(mesh, trial), p)
            if e > 0.0:
                trial /= e ** (1.0 / p)
                h_t, f_t, d_t = pieces(trial)
                g_t = value(h_t, f_t, d_t)
                if g_t < g - 1e-14 * (1.0 + abs(g)):
                    vals, g = trial, g_t
                    h_lam, f_term, denom = h_t, f_t, d_t
                    step *= 1.3
                    moved = True
                    break
                if g_t == 0.0:
                    return 0.0, trial
            step *= 0.5
        if not moved or g == 0.0:
            break
    return g, vals


def eta_star(mesh, m, a, f, p, q, lam, opts=None):
    """Critical perturbation size by multi-start projected gradient descent.

    Requires f >= 0 nodally and 0 <= lam <= lambda_1(m) (up to a 1e-6 relative
    margin).  Returns the +infinity sentinel when no start attains a positive
    denominator (empty admissible cone).  The lower_bound field carries the
    closed-form bound when min f > 0 and the power-weight eigenvalue exists.
    """
    opts = opts or EtaStarOptions()
    if not 1.0 < q < p:
        raise InvalidConfig(f"exponents must satisfy 1 < q < p, got q={q}, p={p}")
    m_vals = weight_values(m, mesh)
    a_vals = weight_values(a, mesh)
    f_vals = weight_values(f, mesh)
    if np.any(f_vals < 0):
        raise InvalidConfig("source weight must be nonnegative for the critical value")

    lam1, phi1 = opts.lam1, opts.phi1
    if lam1 is None:
        from .eigen import principal_eigenpair

        pair = principal_eigenpair(mesh, m, p)
        lam1, phi1 = pair.lam, pair.phi
    if lam < 0 or lam > lam1 * (1.0 + 1e-6):
        raise InvalidConfig(f"lam must lie in [0, lambda_1 ~ {lam1:.6g}], got {lam}")

    free = mesh.interior_vertices
    lower = None
    c_f = float(np.min(f_vals))
    a_plus_power = np.maximum(a_vals, 0.0) ** ((p - 1.0) / (q - 1.0))
    if c_f > 0 and lam < lam1 and np.any(a_plus_power[free] > 0):
        from .eigen import principal_eigenpair

        lam1_aplus = principal_eigenpair(mesh, Weight.nodal(a_plus_power), p).lam
        lower = eta_star_lower_bound(c_f, p, q, lam, lam1, lam1_aplus)

    if not np.any(a_vals[free] > 0):
        return EtaStarResult(math.inf, None, lower, 0, [], lam1)

    dist = mesh.distance_to_boundary()
    starts = []
    if phi1 is not None:
        starts.append(("phi1", phi1.values.copy()))
    starts.append(("bump_on_a", dist * (a_vals > 0)))
    starts.append(("a_plus", np.maximum(a_vals, 0.0)))
    for k, extra in enumerate(opts.extra_starts):
        vals = extra.values if isinstance(extra, DiscreteFunction) else np.asarray(extra, float)
        starts.append((f"extra{k}", vals.copy()))
    rng = np.random.default_rng(opts.seed)
    while len(starts) < opts.n_starts:
        starts.append((f"random{len(starts)}", rng.random(mesh.n_vertices) * dist))

    best_val, best_vals = math.inf, None
    all_values = []
    for _, start in starts:
        val, vals = _projected_gradient(mesh, m_vals, a_vals, f_vals, p, q, lam, start, opts.max_iter)
        all_values.append(val)
        if val < best_val:
            best_val, best_vals = val, vals
    if not math.isfinite(best_val):
        return EtaStarResult(math.inf, None, lower, len(starts), all_values, lam1)
    best_val = max(best_val, 0.0)
    return EtaStarResult(
        value=best_val,
        minimizer=DiscreteFunction(mesh, best_vals),
        lower_bound=lower,
        starts_used=len(starts),
        all_start_values=all_values,
        lam1=lam1,
    )


def eta_star_lower_bound(c_f, p, q, lam, lam1_m, lam1_aplus):
    """Closed-form positive lower bound for the critical value.

    c_f is a uniform lower bound for f; lam1_aplus is the principal eigenvalue
    with weight a_+^{(p-1)/(q-1)}.  Valid for 0 <= lam < lam1_m.
    """
    if c_f <= 0:
        raise InvalidConfig(f"uniform source bound must be positive, got {c_f}")
    if not 0 <= lam < lam1_m:
        raise InvalidConfig(f"lam must lie in [0, {lam1_m}), got {lam}")
    expo = (q - 1.0) / (p - 1.0)
    return (
        picone_constant(p, q)
        * c_f ** ((p - q) / (p - 1.0))
        * lam1_aplus**expo
        * (1.0 - lam / lam1_m) ** expo
    )


def picone_polynomial(p, q, s):
    """(q-1) s^p + q s^{p-1} - (p-q) s + (q-p+1), elementwise in s >= 0."""
    s = np.asarray(s, dtype=float)
    return (q - 1.0) * s**p + q * s ** (p - 1.0) - (p - q) * s + (q - p + 1.0)


@dataclass
class PolynomialCheck:
    holds: bool
    min_value: float
    argmin: float


def picone_polynomial_check(p, q, n_grid=4000):
    """Check the polynomial condition for the generalized Picone route.

    Evaluates on a log-uniform grid over [0, s_max] with
    s_max = max(10, (p/(q-1))^{2/(p-q)}) (the leading term dominates beyond),
    refines every bracketed local minimum, and holds iff the minimum clears
    -1e-12.  For p = 2 the expression factors as (q-1)(s+1)^2, so it holds for
    every q in (1, 2).
    """
    if not 1.0 < q < p:
        raise InvalidConfig(f"exponents must satisfy 1 < q < p, got q={q}, p={p}")
    s_max = max(10.0, (p / (q - 1.0)) ** (2.0 / (p - q)))
    grid = np.concatenate([[0.0], np.geomspace(1e-8, s_max, n_grid)])
    vals = picone_polynomial(p, q, grid)
    best_idx = int(np.argmin(vals))
    min_value, argmin = float(vals[best_idx]), float(grid[best_idx])
    interior = np.nonzero((vals[1:-1] <= vals[:-2]) & (vals[1:-1] <= vals[2:]))[0] + 1
    for i in interior:
        res = scipy.optimize.minimize_scalar(
            lambda s: float(picone_polynomial(p, q, s)),
            bounds=(grid[i - 1], grid[i + 1]),
            method="bounded",
            options={"xatol": 1e-14},
        )
        if res.fun < min_value:
            min_value, argmin = float(res.fun), float(res.x)
    return PolynomialCheck(holds=bool(min_value >= -1e-12), min_value=min_value, argmin=argmin)


@dataclass
class PiconeCheckResult:
    lhs: float
    rhs: float
    holds: bool
    slack: float


def discrete_picone_check(u, phi, p, eps, slack_coeff=0.5):
    """Discrete weak Picone inequality with nodally interpolated test function.

    Forms w = |phi|^p / (u + eps)^{p-1} at the vertices, differentiates it as a
    P1 interpolant, and checks

        int |grad u|^{p-2} grad u . grad w  <=  int |grad phi|^p  +  slack.

    The continuum inequality is exact; interpolating w commits an O(h) crime
    (none at all in 1D, where the per-cell inequality is exact), so
    slack = (1e-8 + slack_coeff * h) * (1 + |rhs|) with h the mesh size.
    """
    if eps <= 0:
        raise InvalidConfig(f"eps must be positive, got {eps}")
    if np.any(u.values < 0):
        raise InvalidConfig("u must be nonnegative at every vertex")
    mesh = u.mesh
    w_vals = np.abs(phi.values) ** p / (u.values + eps) ** (p - 1.0)
    kernel = fem.gradients(mesh)
    gu = kernel.gradient(u.values)
    gw = kernel.gradient(w_vals)
    g2 = kernel.dot(gu, gu)
    kappa = np.zeros_like(g2)
    nz = g2 > 0
    kappa[nz] = g2[nz] ** (0.5 * (p - 2.0))
    lhs = float(np.dot(mesh.cell_volumes * kappa, kernel.dot(gu, gw)))
    rhs = grad_energy(phi, p)
    slack = (1e-8 + slack_coeff * mesh.mesh_size()) * (1.0 + abs(rhs))
    return PiconeCheckResult(lhs=lhs, rhs=rhs, holds=bool(lhs <= rhs + slack), slack=slack)

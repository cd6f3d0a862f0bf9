"""Critical perturbation size eta* and the Picone inequality checks.

For nonnegative f and 0 <= lam <= lambda_1(m), solutions of the perturbed
problem stay nonnegative while eta < eta*_lam(a), where

    eta*_lam(a) = C(p,q) * inf over {u >= 0, int a u^q > 0} of
        (int |grad u|^p - lam int m u^p)^{(q-1)/(p-1)}
        * (int f u)^{(p-q)/(p-1)}  /  int a u^q,

    C(p,q) = (p-1) / ((p-q)^{(p-q)/(p-1)} (q-1)^{(q-1)/(p-1)}),

with eta* = +infinity when the admissible cone is empty.  The functional is
0-homogeneous and generally nonconvex; the desk-scale surrogate minimizes it
over the nodal nonnegative cone from many starts, so the computed value is an
upper estimate of the discrete infimum.

The descent is projected and preconditioned in the H^1_0 metric (a Sobolev
gradient): the direction is K_I^{-1} applied to the nodal gradient of G,
with K the p = 2 stiffness on the free vertices and I the inactive set, the
free vertices except those where u = 0 and the nodal gradient is positive
(the step would push u below zero).  The direction is 0 on that active set,
which keeps the scaling valid on the cone.  The steps are those of the
spectral projected gradient method (Birgin, Martinez & Raydan, SIAM J.
Optim. 10 (2000)) in this metric:

- step.  The first trial step along a start's first direction is 1.  From
  its second direction d = K_I^{-1} g on, it is the Barzilai-Borwein step
  (IMA J. Numer. Anal. 8 (1988)) alpha = s.y / y.(d - d_prev), with s the
  change in the start's free values and y the change in its nodal gradient
  g between its last two direction points.  While the active set stays put,
  d - d_prev = K_I^{-1} y, so this is the preconditioned BB2 step and needs
  no extra kernel call or solve.  alpha is clipped to [1e-6, 1e6]
  (_STEP_CLIP); where s.y <= 0 or y.(d - d_prev) <= 0 the step is kept.
  A rejected trial halves the step.
- accept.  Each trial is clamped to u >= 0 and renormalized to unit
  gradient energy, and accepted when its G lies below the largest of the
  start's last 5 accepted G (_MEMORY) by 1e-14 (1 + |G|): the nonmonotone
  reference of Grippo, Lampariello & Lucidi (SIAM J. Numer. Anal. 23
  (1986)).  G may thus rise along a path, and a start reports the lowest G
  it accepted and the iterate there.
- stop.  A start stops when the first trial along a fresh direction
  predicts a decrease alpha <g, d> of at most 1e-14 (1 + |G|), below the
  acceptance margin; after twenty rejections in a row (its step at most
  2^-20 times its first trial step along the direction, or at 1e-14); or
  after max_iter directions.

The scaling removes the mesh dependence of plain projected gradient, and
the spectral step its linear rate, so on the 256-cell interval at p = 3
every start stops within about 40 directions, and max_iter is only a cap.

All starts descend in lockstep as rows of one (n_starts, n_vertices) array,
in rounds.  In each round the rows that took a step in the last round get a
new direction from one stacked fem.p_flux call, and every live row then
makes one line-search trial, normalized and evaluated over all the rows at
once.  What is shared: the gradient kernel calls, the stiffness K, and one
solve with K (fem.stiffness_solver: closed form on a rectangle grid, one
factor of K elsewhere) that serves every row whose active set is empty as
one multi-right-hand-side solve.  What each row keeps: its step size and
last direction point, its recent and lowest accepted G, its accept/reject
test, its stops, its zero-quotient exit and, while its active set is not
empty, the factor of that set.  A row leaves the array when it stops.  The
rows do not interact: every per-row reduction (the gradient energy, the
weighted sums and the inner products of the step and the stop) is a numpy
sum along one C-contiguous row, the maximum over its recent G is exact, and
every other step is elementwise, so a row's numbers do not depend on which
other rows share the array.  A matrix-vector product would not do: BLAS
dgemv need not give a row the bits it gives that row alone, and neither
would a sum along the rows of an F-ordered array such as fem.p_flux's.

The closed-form lower bound

    C(p,q) * c^{(p-q)/(p-1)} * lambda_1(a_+^{(p-1)/(q-1)})^{(q-1)/(p-1)}
           * (1 - lam/lambda_1(m))^{(q-1)/(p-1)}     (valid when f >= c > 0)

brackets it from below.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import fem
from .eigen import _LAM1_MARGIN, _principal, _principal_or_none
from .errors import InvalidConfig
from .functions import (
    DiscreteFunction, check_exponents, grad_energy, nodal_values, weight_values, weighted_power_integral
)

__all__ = [
    "EtaStarOptions",
    "EtaStarResult",
    "PolynomialCheck",
    "PiconeCheckResult",
    "picone_constant",
    "eta_star_objective",
    "eta_star",
    "eta_star_bound",
    "eta_star_lower_bound",
    "picone_polynomial",
    "picone_polynomial_check",
    "discrete_picone_check",
]

_MEMORY = 5  # accepted values of G behind the nonmonotone acceptance reference
_STEP_CLIP = (1e-6, 1e6)  # bounds of the spectral step


def picone_constant(p, q):
    """C(p,q) = (p-1) / ((p-q)^{(p-q)/(p-1)} (q-1)^{(q-1)/(p-1)})."""
    return (p - 1.0) / ((p - q) ** ((p - q) / (p - 1.0)) * (q - 1.0) ** ((q - 1.0) / (p - 1.0)))


@dataclass
class EtaStarOptions:
    n_starts: int = 32
    max_iter: int = 600
    seed: int = 0
    extra_starts: list = field(default_factory=list)


@dataclass
class EtaStarResult:
    value: float
    minimizer: DiscreteFunction | None
    lower_bound: float | None
    starts_used: int
    all_start_values: list
    lam1: float = math.nan
    start_iterations: list = field(default_factory=list)  # descent directions (gradient evaluations) per start

    @property
    def gap(self):
        """value - lower_bound; reported without interpretation."""
        if self.lower_bound is None or not math.isfinite(self.value):
            return math.nan
        return self.value - self.lower_bound


def _quotient(p, q, h_lam, f_term, denom):
    """The eta* quotient C(p,q) h_lam^alpha f_term^beta / denom, alpha = (q-1)/(p-1), beta = (p-q)/(p-1).

    Elementwise over arrays (or floats) of one shape: +inf where denom <= 0
    (off the cone), else 0 where h_lam <= 0 or f_term <= 0.
    """
    on_cone = denom > 0.0
    inside = on_cone & (h_lam > 0.0) & (f_term > 0.0)
    h, f, d = (np.where(inside, x, 1.0) for x in (h_lam, f_term, denom))
    g = picone_constant(p, q) * h ** ((q - 1.0) / (p - 1.0)) * f ** ((p - q) / (p - 1.0)) / d
    return np.where(inside, g, np.where(on_cone, 0.0, math.inf))


def eta_star_objective(mesh, m, a, f, p, q, lam, u):
    """The 0-homogeneous quotient at the positive part of u; +inf off the cone."""
    u = u.with_values(np.maximum(u.values, 0.0))
    h_lam = grad_energy(u, p) - lam * weighted_power_integral(m, u, p)
    f_term = weighted_power_integral(f, u, 1.0, signed=True)
    return float(_quotient(p, q, h_lam, f_term, weighted_power_integral(a, u, q)))


class _Preconditioner:
    """K_I^{-1} for a stack of descent rows: K the p = 2 stiffness on the free vertices, I a row's inactive set.

    Rows with an empty active set share one solve with K
    (fem.stiffness_solver: closed form on a rectangle grid, one factor of K
    elsewhere), applied to all of them as one multi-right-hand-side solve.
    A row with a non-empty active set keeps the factor of its latest active
    set, since that set rarely changes from one descent step to the next;
    the factor is dropped when the set empties or the row stops.  The
    restriction is formed by pinning the active rows and columns to the
    identity on the cached Operator's storage, so nothing is cached per
    active set under the mesh.  The Operator and K are built on the first
    pin: on a rectangle grid a descent whose active sets stay empty builds
    neither.
    """

    def __init__(self, mesh):
        self.mesh = mesh
        self.pinned = {}  # row -> (active mask, solve)

    @functools.cached_property
    def shared(self):
        return fem.stiffness_solver(self.mesh, self.mesh.interior_vertices)

    @functools.cached_property
    def op(self):
        return fem.operator(self.mesh, self.mesh.interior_vertices)

    def __call__(self, rows, rhs, active):
        """K_I^{-1} rhs[k] for row rows[k], 0 on active[k] (masks over the free vertices)."""
        out = np.empty_like(rhs)
        some = active.any(axis=1)
        if not some.all():
            out[~some] = self.shared(rhs[~some].T).T
        for k in np.flatnonzero(some):
            cached = self.pinned.get(rows[k])
            if cached is None or not np.array_equal(active[k], cached[0]):
                op = self.op
                cached = self.pinned[rows[k]] = (active[k], op.factorize(op.pin(op.stiffness, active[k])))
            out[k] = cached[1](np.where(active[k], 0.0, rhs[k]))
        self.drop(rows[~some])
        return out

    def drop(self, rows):
        for row in rows:
            self.pinned.pop(row, None)


def _row_dot(x, y):
    """Each row's inner product, a sum along one C-contiguous row (bit for bit that row's alone)."""
    return np.ascontiguousarray(x * y).sum(axis=1)


def _descend(mesh, m_vals, a_vals, f_vals, p, q, lam, starts, max_iter):
    """Sobolev-preconditioned spectral projected descent of G from every start, in lockstep.

    starts is an (n_starts, n_vertices) array.  Returns (G, nodal values,
    descent iterations), one entry or row per start: the lowest G a start
    accepted on its path and the iterate there, and the number of its
    directions (gradient evaluations), at most max_iter.  A start with zero
    gradient energy keeps G = +inf and takes no step.  Each row's result is
    bit for bit that of its start descending alone.
    """
    free = mesh.interior_vertices
    lump = mesh.lumped_volumes
    kernel = fem.gradients(mesh)
    alpha = (q - 1.0) / (p - 1.0)
    beta = (p - q) / (p - 1.0)
    precondition = _Preconditioner(mesh)
    grad_f = lump * f_vals
    lam_m = lam * lump * m_vals
    lump_a = lump * a_vals
    a_q = q * lump * a_vals

    def normalized(u):
        # u's rows scaled to unit gradient energy, and the rows (G, h_lam, f_term, denom) there;
        # a zero row stays zero, with denom = 0 and so G = +inf
        g = kernel.gradient(u)
        e = (mesh.cell_volumes * np.sqrt(kernel.dot(g, g)) ** p).sum(axis=1)
        u = u / np.where(e > 0.0, e, 1.0)[:, None] ** (1.0 / p)
        h_lam = 1.0 - (lam_m * u**p).sum(axis=1)
        f_term = (grad_f * u).sum(axis=1)
        denom = (lump_a * u**q).sum(axis=1)
        return u, np.array([_quotient(p, q, h_lam, f_term, denom), h_lam, f_term, denom])

    n_rows = len(starts)
    vals = np.maximum(starts, 0.0)
    vals[:, mesh.boundary_vertices] = 0.0
    vals, state = normalized(vals)
    value = state[0]  # a view: G of every row
    live = np.flatnonzero(np.isfinite(value) & (value != 0.0))
    best, best_vals = value.copy(), vals.copy()
    recent = np.repeat(value[:, None], _MEMORY, axis=1)  # each row's last accepted G, oldest first

    step = np.ones(n_rows)
    first_step = np.ones(n_rows)  # each row's first trial step along its current direction
    iterations = np.zeros(n_rows, dtype=np.int64)
    direction = np.zeros((n_rows, mesh.n_vertices))
    last = np.zeros((3, n_rows, len(free)))  # free values, raw gradient and direction at each row's last direction
    fresh = np.ones(n_rows, dtype=bool)  # the row took a step and needs a new direction
    while True:
        # a start stops after max_iter directions, or after 20 rejections in a row (or at a step of 1e-14)
        floor = np.maximum(1e-14, 2.0**-20 * first_step[live])
        stop = (fresh[live] & (iterations[live] >= max_iter)) | (step[live] <= floor)
        precondition.drop(live[stop])
        live = live[~stop]
        if not len(live):
            break
        new = live[fresh[live]]
        if len(new):
            fresh[new] = False
            u = vals[new]
            # nodal gradient of G, one row per start
            grad_h = p * (fem.p_flux(mesh, u, p, 0.0) - lam_m * u ** (p - 1.0))
            grad_d = a_q * u ** (q - 1.0)
            g, h, f, d = state[:, new, None]
            raw = (g * (alpha * grad_h / h + beta * grad_f / f - grad_d / d))[:, free]
            # active: u = 0 and the step would push u below zero; those vertices stay put
            active = (u[:, free] == 0.0) & (raw > 0.0)
            point = np.stack([u[:, free], raw, precondition(new, raw, active)])
            # the BB2 step s.y / y.H y in the K_I metric, from the second direction on and where both are positive
            s, y, dd = point - last[:, new]
            sy, ydd = _row_dot(s, y), _row_dot(y, dd)
            spectral = (iterations[new] > 0) & (sy > 0.0) & (ydd > 0.0)
            step[new[spectral]] = np.clip(sy[spectral] / ydd[spectral], *_STEP_CLIP)
            first_step[new] = step[new]
            last[:, new] = point
            iterations[new] += 1
            direction[np.ix_(new, free)] = point[2]
            # the first trial's predicted decrease is below the acceptance margin: no trial can pass
            flat = step[new] * _row_dot(raw, point[2]) <= 1e-14 * (1.0 + np.abs(value[new]))
            precondition.drop(new[flat])
            live = np.setdiff1d(live, new[flat], assume_unique=True)
            if not len(live):
                break

        # one line-search trial per live row, against the largest of its recent accepted G
        trial, trial_state = normalized(np.maximum(vals[live] - step[live, None] * direction[live], 0.0))
        g, g_t = value[live], trial_state[0]
        accept = g_t < recent[live].max(axis=1) - 1e-14 * (1.0 + np.abs(g))
        took = accept | (g_t == 0.0)
        rows = live[took]
        vals[rows], state[:, rows] = trial[took], trial_state[:, took]
        lower = rows[value[rows] < best[rows]]
        best[lower], best_vals[lower] = value[lower], vals[lower]
        step[live[~accept]] *= 0.5
        rows = live[accept]
        recent[rows] = np.column_stack([recent[rows, 1:], value[rows]])
        fresh[rows] = True
        step[live[g_t == 0.0]] = 0.0  # a zero quotient ends the start
    return best, best_vals, iterations


def eta_star(mesh, m, a, f, p, q, lam, opts=None):
    """Critical perturbation size by multi-start preconditioned spectral projected descent.

    Requires f >= 0 nodally and 0 <= lam <= lambda_1(m) (up to the relative
    margin eigen._LAM1_MARGIN); lambda_1(m) and phi1, the first start, come
    from eigen._principal.
    Returns the +infinity sentinel when no start attains a positive
    denominator (empty admissible cone).  value is the least start value,
    and minimizer the first start within a relative 1e-12 of it: start
    values often agree to rounding, and a last-bit change must not move the
    reported minimizer to another start.  The lower_bound field carries the
    closed-form bound (eta_star_bound) when it applies and is finite.
    """
    opts = opts or EtaStarOptions()
    check_exponents(p, q)
    m_vals = weight_values(m, mesh)
    a_vals = weight_values(a, mesh)
    f_vals = weight_values(f, mesh)
    if np.any(f_vals < 0):
        raise InvalidConfig("source weight must be nonnegative for the critical value")

    pair = _principal(mesh, m, p)
    lam1 = pair.lam
    if lam < 0 or lam > lam1 * (1.0 + _LAM1_MARGIN):
        raise InvalidConfig(f"lam must lie in [0, lambda_1 ~ {lam1:.6g}], got {lam}")

    free = mesh.interior_vertices
    bound = eta_star_bound(mesh, f_vals, np.maximum(a_vals, 0.0), p, q, lam1) if lam < lam1 else None
    lower = value if bound and (value := bound(lam)) < math.inf else None  # inf: empty cone, none reported

    if not np.any(a_vals[free] > 0):
        return EtaStarResult(math.inf, None, lower, 0, [], lam1)

    dist = mesh.distance_to_boundary()
    # phi1, a bump on the support of a, and a_+
    starts = [pair.phi.values, dist * (a_vals > 0), np.maximum(a_vals, 0.0)]
    for extra in opts.extra_starts:
        starts.append(nodal_values(extra, mesh, "extra start"))
    rng = np.random.default_rng(opts.seed)
    while len(starts) < opts.n_starts:
        starts.append(rng.random(mesh.n_vertices) * dist)

    values, minimizers, iterations = _descend(mesh, m_vals, a_vals, f_vals, p, q, lam, np.array(starts), opts.max_iter)
    all_values, iterations = values.tolist(), iterations.tolist()
    least = values.min()
    if not math.isfinite(least):
        return EtaStarResult(math.inf, None, lower, len(starts), all_values, lam1, iterations)
    best = int(np.flatnonzero(values - least <= 1e-12 * abs(least))[0])
    return EtaStarResult(
        value=max(float(least), 0.0),
        minimizer=DiscreteFunction(mesh, minimizers[best]),
        lower_bound=lower,
        starts_used=len(starts),
        all_start_values=all_values,
        lam1=lam1,
        start_iterations=iterations,
    )


def eta_star_bound(mesh, f_vals, clamped, p, q, lam1):
    """lam -> eta_star_lower_bound with a_+ = clamped, or None where the bound does not apply.

    It applies when min f > 0, lam1 is finite and the power weight
    clamped^{(p-1)/(q-1)} has a lambda_1: eigen._principal_or_none solves it
    once per (mesh, nodal values, p), so a power weight with m's values shares
    m's solve.  clamped holds nodal values (a_- for eta < 0).  The bound is
    +inf when the power weight vanishes on every interior vertex (empty
    admissible cone), 0 from lam1 = lambda_1(m) up, and below lam = 0 the bound at 0.
    """
    c_f = float(np.min(f_vals))
    if c_f <= 0 or not math.isfinite(lam1):
        return None
    power = clamped ** ((p - 1.0) / (q - 1.0))
    if not np.any(power[mesh.interior_vertices] > 0):
        return lambda lam: math.inf
    pair = _principal_or_none(mesh, power, p)
    if pair is None:
        return None
    return lambda lam: eta_star_lower_bound(c_f, p, q, max(lam, 0.0), lam1, pair.lam) if lam < lam1 else 0.0


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


def picone_polynomial_check(p, q):
    """Check the polynomial condition for the generalized Picone route.

    Evaluates on a log-uniform grid of 4000 points over [0, s_max] with
    s_max = max(10, (p/(q-1))^{2/(p-q)}) (the leading term dominates beyond),
    refines every bracketed local minimum, and holds iff the minimum clears
    -1e-12.  Where that s_max overflows (q close to p) it is
    max(10, ((p-q)/(q-1))^{1/(p-1)}): past this point (q-1)s^p - (p-q)s and
    q s^{p-1} + (q-p+1) are both >= 0 and the polynomial increases.  For
    p = 2 the expression factors as (q-1)(s+1)^2, so it holds for every q in
    (1, 2).
    """
    import scipy.optimize  # deferred: only the Picone checks need it

    check_exponents(p, q)
    try:
        s_max = math.pow(p / (q - 1.0), 2.0 / (p - q))
    except OverflowError:
        s_max = math.pow((p - q) / (q - 1.0), 1.0 / (p - 1.0))
    s_max = max(10.0, s_max)
    grid = np.concatenate([[0.0], np.geomspace(1e-8, s_max, 4000)])
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


def discrete_picone_check(u, phi, p, eps):
    """Discrete weak Picone inequality with nodally interpolated test function.

    phi is a DiscreteFunction or nodal values on u's mesh.  Forms
    w = |phi|^p / (u + eps)^{p-1} at the vertices, differentiates it as a
    P1 interpolant, and checks

        int |grad u|^{p-2} grad u . grad w  <=  int |grad phi|^p  +  slack.

    The continuum inequality is exact; interpolating w commits an O(h) crime
    (none at all in 1D, where the per-cell inequality is exact), so
    slack = (1e-8 + h/2) * (1 + |rhs|) with h the mesh size.
    """
    if eps <= 0:
        raise InvalidConfig(f"eps must be positive, got {eps}")
    if np.any(u.values < 0):
        raise InvalidConfig("u must be nonnegative at every vertex")
    mesh = u.mesh
    phi = DiscreteFunction(mesh, nodal_values(phi, mesh, "phi"))
    w_vals = np.abs(phi.values) ** p / (u.values + eps) ** (p - 1.0)
    kernel = fem.gradients(mesh)
    gu = kernel.gradient(u.values)
    gw = kernel.gradient(w_vals)
    kappa = fem.kappa(kernel.dot(gu, gu), p, 0.0)
    lhs = float(np.dot(mesh.cell_volumes * kappa, kernel.dot(gu, gw)))
    rhs = grad_energy(phi, p)
    slack = (1e-8 + 0.5 * mesh.mesh_size()) * (1.0 + abs(rhs))
    return PiconeCheckResult(lhs=lhs, rhs=rhs, holds=bool(lhs <= rhs + slack), slack=slack)

"""Principal eigenpairs of the weighted p-Laplacian with zero boundary data.

The eigenvalue lambda_1(m) is the infimum of the Rayleigh quotient

    R(u) = integral |grad u|^p / integral m |u|^p

over zero-trace functions with positive denominator.  It is computed by the
inverse-power analogue for the p-Laplacian: alternately

  (a) minimize the strictly convex functional
      (1/p) * integral |grad v|^p  -  integral m |u_k|^{p-2} u_k v
      (for p != 2, below 2 as above it, fem.newton on its gradient, the
      regularized weak form of fem.weak_form that the BVP rungs solve too,
      with the term -shift * lump and the same smoothing floors; for p = 2
      one linear solve with K + shift * lumped mass, K the stiffness, from
      fem.stiffness_solver: closed form by a discrete sine transform on the
      interior of a rectangle grid, elsewhere one factor, rebuilt when the
      shift changes),
  (b) clamp to the nonnegative cone and renormalize so integral m |v|^p = 1,
  (c) update the Rayleigh quotient.

The iteration stops when the discrete residual of -Lap_p(phi) = lam m phi^{p-1}
drops below tolerance on the sup-normalized eigenfunction.  A backtracking
safeguard keeps the recorded Rayleigh quotients nonincreasing, and the solve
stalls where no damped step lowers the quotient.  It fires only on meshes with
obtuse triangles: on build_interval and build_rectangle meshes the discrete
comparison principle keeps an exact step nonnegative, and Hoelder's inequality
with the nonnegative weight lam m + shift then keeps its quotient from rising.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import fem
from .errors import EmptyAdmissibleSet, InvalidConfig, NonConvergence, PlapError
from .functions import (
    DiscreteFunction, Weight, check_exponents, grad_energy, nodal_values, weight_values, weighted_power_integral,
)
from .mesh import SubdomainMask

__all__ = [
    "EigenOptions",
    "EigenPair",
    "principal_eigenpair",
    "principal_eigenpair_negative",
    "subdomain_eigenvalue",
    "second_eigenvalue_1d",
]

# Rayleigh-quotient backtracking never needs to be this fine unless the
# iterate is already stationary.
_RQ_SLACK = 1e-12
# Newton iteration cap of the inner solve
_MAX_INNER = 80


@dataclass
class EigenOptions:
    """Knobs for principal_eigenpair.

    tol: residual tolerance on the sup-normalized eigenfunction; defaults to
        1e-8 for p = 2 and 1e-6 otherwise (degenerate diffusion slows Newton
        for p far from 2).
    init: "distance_bump" (default), "random", or nodal data (a
        DiscreteFunction or an array of nodal values).
    """

    tol: float | None = None
    max_outer: int = 500
    init: object = "distance_bump"
    seed: int = 0

    def resolved_tol(self, p):
        if self.tol is not None:
            return self.tol
        return 1e-8 if p == 2 else 1e-6


@dataclass
class EigenPair:
    """Converged eigenpair: phi >= 0 nodally, sup_norm(phi) = 1, nonincreasing rq_history."""

    lam: float
    phi: DiscreteFunction
    domain_mask: SubdomainMask | None
    iterations: int
    rq_history: list = field(default_factory=list)
    residual_norm: float = math.nan


def _free_vertices(mesh, mask):
    if mask is None:
        return mesh.interior_vertices
    interior = mesh.interior_vertices
    return interior[mask.indicator()[interior]]


def _eigen_residual(mesh, m_vals, values, lam, p, free):
    flux = fem.p_flux(mesh, values, p, 0.0)
    r = flux - lam * mesh.lumped_volumes * m_vals * fem.odd_power(values, p)
    return r[free]


def _inner_solve(mesh, op, p, shift, load, v_init, goal):
    """Minimizer of (1/p) integral |grad v|^p + (shift/p) sum lumped |v|^p - <load, v> for p != 2.

    The zeroth-order shift >= 0 is zero for nonnegative weights; for
    indefinite weights the caller chooses it so that the iteration source
    (lam*m + shift) u^{p-1} stays nonnegative, which keeps the iterates
    positive (the fixed point is unchanged: the shift cancels at the
    eigenpair).

    The minimizer is the root of the gradient, fem.weak_form with the term
    (-shift * lump, p), found by fem.newton at the floor fem.EPS_GRAD_FLOOR
    down to the norm goal.  The functional is strictly convex and its
    Jacobian SPD, so ||r||^2 has no minimum other than the root and the
    progress test is off (stall = 0).  A failed solve restarts cold from
    v_init down the eps_g values of fem.EPS_LADDER, warm-starting each
    stage.
    """
    terms = [(-shift * mesh.lumped_volumes, p)] if shift else []

    def converged(values, eps):
        res, jac, _ = fem.weak_form(mesh, op, p, eps, fem.EPS_ZERO_FLOOR, terms, load)
        return fem.newton(values, op.free, res, jac, op, lambda s: goal, _MAX_INNER, 0.0)[0] == "converged"

    with np.errstate(over="ignore", invalid="ignore"):  # trials that overflow at large p fail in fem.newton
        v = v_init.copy()
        if not converged(v, fem.EPS_GRAD_FLOOR):
            v = v_init.copy()
            for eps, _ in fem.EPS_LADDER[:-1]:
                converged(v, eps)
            if not converged(v, fem.EPS_GRAD_FLOOR):
                raise NonConvergence("inner p-Laplacian solve did not converge")
    return v


def principal_eigenpair(mesh_or_mask, m, p, opts=None):
    """First eigenpair of -Lap_p(u) = lam m |u|^{p-2} u on a mesh or vertex mask.

    Requires the positive part of m to be nontrivial on the active vertex set,
    otherwise EmptyAdmissibleSet is raised.  Returns an EigenPair with phi >= 0,
    sup_norm(phi) = 1 and the residual of the discrete eigenvalue equation
    below opts.tol; raises NonConvergence after opts.max_outer iterations or a stall.
    """
    opts = opts or EigenOptions()
    check_exponents(p)
    if isinstance(mesh_or_mask, SubdomainMask):
        mask, mesh = mesh_or_mask, mesh_or_mask.mesh
    else:
        mask, mesh = None, mesh_or_mask
    free = _free_vertices(mesh, mask)
    if len(free) == 0:
        raise EmptyAdmissibleSet("mask has no interior vertices")
    m_vals = weight_values(m, mesh)
    if not np.any(m_vals[free] > 0):
        raise EmptyAdmissibleSet("weight has no positive part on the active vertex set")
    tol = opts.resolved_tol(p)

    u = np.zeros(mesh.n_vertices)
    if not isinstance(opts.init, str):
        u[free] = np.maximum(nodal_values(opts.init, mesh, "init")[free], 0.0)
    elif opts.init == "random":
        rng = np.random.default_rng(opts.seed)
        u[free] = rng.random(len(free)) * mesh.distance_to_boundary()[free]
    elif opts.init == "distance_bump":
        u[free] = mesh.distance_to_boundary()[free] * (m_vals[free] > 0)
    else:
        raise InvalidConfig(f"unknown init {opts.init!r}")
    if weighted_power_integral(m_vals, DiscreteFunction(mesh, u), p) <= 0:
        # fall back to a start supported strictly inside {m > 0}
        u[:] = 0.0
        u[free] = np.maximum(m_vals[free], 0.0)
    u /= weighted_power_integral(m_vals, DiscreteFunction(mesh, u), p) ** (1.0 / p)

    rq0 = grad_energy(DiscreteFunction(mesh, u), p)
    # indefinite weights need the positivity-preserving shift; the Rayleigh
    # quotient is nonincreasing, so a shift sized by the current quotient keeps
    # (lam*m + shift) >= 0.  Oversizing it slows the contraction, so tighten it
    # as the quotient descends.
    m_min = float(np.min(m_vals[free]))
    shift = 0.0 if m_min >= 0 else 1.1 * rq0 * (-m_min)
    if p == 2:
        stiffness = fem.stiffness_solver(mesh, free, shift)
    else:
        op = fem.operator(mesh, free)
    rq_history = [rq0]
    residual_norm = math.inf
    for iterations in range(1, opts.max_outer + 1):
        lam = rq_history[-1]
        if m_min < 0 and 1.1 * lam * (-m_min) < 0.6 * shift:
            shift = 1.1 * lam * (-m_min)
            if p == 2:
                stiffness = fem.stiffness_solver(mesh, free, shift)
        smax = np.max(u)
        residual_norm = float(np.linalg.norm(_eigen_residual(mesh, m_vals, u / smax, lam, p, free)))
        if residual_norm <= tol:
            break
        load = ((lam * m_vals + shift) * mesh.lumped_volumes * fem.odd_power(u, p))[free]
        if p == 2:
            v = np.zeros(mesh.n_vertices)
            v[free] = stiffness(load)
        else:
            # At v = u the inner residual is, up to the smoothing, the eigen residual
            # of u, of norm residual_norm * smax^(p-1).  The inner solve cuts it at
            # least a hundredfold: with a goal above it the solve would return u and
            # the iteration would stall above tol (p = 10, n = 64 with 1e-8 ||load||).
            goal = min(1e-8 * np.linalg.norm(load), 1e-2 * residual_norm * smax ** (p - 1))
            v = _inner_solve(mesh, op, p, shift, load, u, goal)
        v = np.maximum(v, 0.0)
        mass = weighted_power_integral(m_vals, DiscreteFunction(mesh, v), p)
        if mass <= 0:
            # outside the admissible cone: rescale by the sup norm and retry
            # from there without updating the quotient
            u = v / np.max(v)
            rq_history.append(lam)
            continue
        v /= mass ** (1.0 / p)
        rq = grad_energy(DiscreteFunction(mesh, v), p)
        if rq > lam + _RQ_SLACK * (1.0 + abs(lam)):
            # damp toward the previous iterate until the quotient stops rising
            t = 0.5
            while t > 1e-6:
                w = np.maximum((1 - t) * u + t * v, 0.0)
                mass_w = weighted_power_integral(m_vals, DiscreteFunction(mesh, w), p)
                if mass_w > 0:
                    w /= mass_w ** (1.0 / p)
                    rq_w = grad_energy(DiscreteFunction(mesh, w), p)
                    if rq_w <= lam + _RQ_SLACK * (1.0 + abs(lam)):
                        v, rq = w, rq_w
                        break
                t *= 0.5
            else:  # no damped step lowers the quotient: stationary up to backtracking resolution
                raise NonConvergence(
                    f"eigensolver stalled with residual {residual_norm:.3e} above tol {tol:.1e}"
                )
        u = v
        rq_history.append(rq)
    else:
        raise NonConvergence(
            f"eigensolver residual {residual_norm:.3e} above tol {tol:.1e} "
            f"after {opts.max_outer} iterations"
        )
    phi = DiscreteFunction(mesh, u / np.max(u))
    return EigenPair(
        lam=rq_history[-1],
        phi=phi,
        domain_mask=mask,
        iterations=iterations,
        rq_history=rq_history,
        residual_norm=residual_norm,
    )


def _principal(mesh, m, p):
    """principal_eigenpair(mesh, m, p) with default options, solved once per (mesh, nodal values of m, p).

    m is a Weight or nodal values.  A PlapError is kept as its type and
    message and raised afresh; no other error is kept.  The entries in
    mesh.derived hold phi's values, never the mesh, so they die with it.
    """

    def build():
        try:
            pair = principal_eigenpair(mesh, m, p)
        except PlapError as exc:
            return None, (type(exc), str(exc))
        return replace(pair, phi=None), pair.phi.values

    pair, phi = mesh.derived((weight_values(m, mesh).tobytes(), p), build)
    if pair is None:
        error, message = phi
        raise error(message)
    return replace(pair, phi=DiscreteFunction(mesh, phi))


def _principal_or_none(mesh, m, p):
    """_principal(mesh, m, p), or None when it fails: the fallback of every caller that can go without the pair."""
    try:
        return _principal(mesh, m, p)
    except PlapError:
        return None


def principal_eigenpair_negative(mesh, m, p, opts=None):
    """Negative principal eigenvalue -lam_1(-m) with its positive eigenfunction.

    Requires the negative part of m to be nontrivial; raises EmptyAdmissibleSet
    when m >= 0 everywhere on the active set.
    """
    m_vals = weight_values(m, mesh.mesh if isinstance(mesh, SubdomainMask) else mesh)
    pair = principal_eigenpair(mesh, Weight.nodal(-m_vals), p, opts)
    pair.lam = -pair.lam
    pair.rq_history = [-r for r in pair.rq_history]
    return pair


def subdomain_eigenvalue(mask, m, p, opts=None):
    """Eigenpair on a vertex mask, zero values enforced outside it.

    When the mask has no interior vertex or the weight has no positive part
    on it, the admissible set is empty (principal_eigenpair's
    EmptyAdmissibleSet) and the +infinity sentinel is returned instead.
    """
    try:
        return principal_eigenpair(mask, m, p, opts)
    except EmptyAdmissibleSet:
        return EigenPair(
            lam=math.inf,
            phi=DiscreteFunction.zeros(mask.mesh),
            domain_mask=mask,
            iterations=0,
            rq_history=[],
            residual_norm=0.0,
        )


def second_eigenvalue_1d(x0, x1, p):
    """Second Dirichlet eigenvalue of the 1D p-Laplacian with unit weight.

    Closed form lam_2 = (p-1) (2 pi_p / L)^p with L = x1 - x0 and
    pi_p = 2 pi / (p sin(pi/p)): the second eigenfunction is the first one
    on each half of the interval, with opposite signs (del Pino, Elgueta &
    Manasevich, J. Differential Equations 80, 1989).  Used to bound sweep
    ranges.
    """
    if not x1 > x0:
        raise InvalidConfig("interval bounds must satisfy x1 > x0")
    check_exponents(p)
    pi_p = 2.0 * math.pi / (p * math.sin(math.pi / p))
    return (p - 1.0) * (2.0 * pi_p / (x1 - x0)) ** p

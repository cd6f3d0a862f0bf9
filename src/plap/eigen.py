"""Principal eigenpairs of the weighted p-Laplacian with zero boundary data.

The eigenvalue lambda_1(m) is the infimum of the Rayleigh quotient

    R(u) = integral |grad u|^p / integral m |u|^p

over zero-trace functions with positive denominator.  It is computed by the
inverse-power analogue for the p-Laplacian: alternately

  (a) minimize the strictly convex functional
      (1/p) * integral |grad v|^p  -  integral m |u_k|^{p-2} u_k v
      (damped Newton on the regularized energy; for p = 2 a single factorized
      linear solve),
  (b) clamp to the nonnegative cone and renormalize so integral m |v|^p = 1,
  (c) update the Rayleigh quotient.

The iteration stops when the discrete residual of -Lap_p(phi) = lam m phi^{p-1}
drops below tolerance on the sup-normalized eigenfunction.  A backtracking
safeguard keeps the recorded Rayleigh quotients nonincreasing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import fem
from .errors import EmptyAdmissibleSet, InvalidConfig, NonConvergence
from .functions import DiscreteFunction, Weight, grad_energy, weight_values
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
# smoothing width for the zeroth-order |v|^{p-2} v shift term
_EPS_ZERO = 1e-9


@dataclass
class EigenOptions:
    """Knobs for principal_eigenpair.

    tol: residual tolerance on the sup-normalized eigenfunction; defaults to
        1e-8 for p = 2 and 1e-6 otherwise (degenerate diffusion slows Newton
        for p far from 2).
    init: "distance_bump" (default), "random", or a DiscreteFunction.
    """

    tol: float | None = None
    max_outer: int = 500
    max_inner: int = 80
    eps_floor: float = 1e-8
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


def _weighted_mass(mesh, m_vals, values, p):
    return float(np.dot(mesh.lumped_volumes, m_vals * np.abs(values) ** p))


def _eigen_residual(mesh, m_vals, values, lam, p, free):
    flux = fem.p_flux(mesh, values, p, 0.0)
    r = flux - lam * mesh.lumped_volumes * m_vals * fem.odd_power(values, p)
    return r[free]


class _InnerSolver:
    """Minimizes (1/p) integral |grad v|^p + (c/p) sum lumped |v|^p - <load, v>.

    The zeroth-order shift c >= 0 is zero for nonnegative weights; for
    indefinite weights it is chosen by the caller so that the iteration source
    (lam*m + c) u^{p-1} stays nonnegative, which keeps the iterates positive
    (the fixed point is unchanged: the shift cancels at the eigenpair).
    """

    def __init__(self, mesh, p, free, eps_floor, max_inner, shift=0.0):
        self.mesh = mesh
        self.p = p
        self.free = free
        self.eps_floor = eps_floor
        self.max_inner = max_inner
        self.shift = shift
        self.op = fem.operator(mesh, free)
        self._lu_solve = None
        self._stiffness = None
        if p == 2:
            self._stiffness = fem.p_flux_jacobian(self.op, np.zeros(mesh.n_vertices), 2.0, 0.0)
            self._factorize()

    def _factorize(self):
        K = self._stiffness
        if self.shift:
            K = K.copy()
            self.op.add_diagonal(K, self.shift * self.mesh.lumped_volumes)
        self._lu_solve = self.op.factorize(K)

    def set_shift(self, shift):
        if shift != self.shift:
            self.shift = shift
            if self.p == 2:
                self._factorize()

    def solve(self, load_free, v_init):
        if self.p == 2:
            out = np.zeros(self.mesh.n_vertices)
            out[self.free] = self._lu_solve(load_free)
            return out
        v = v_init.copy()
        scale = max(np.linalg.norm(load_free), 1e-300)
        if not self._newton(v, load_free, self.eps_floor, scale):
            # cold restart through an eps ladder, warm-starting each stage
            v = v_init.copy()
            for eps in (1e-2, 1e-4, 1e-6):
                if eps > self.eps_floor:
                    self._newton(v, load_free, eps, scale)
            if not self._newton(v, load_free, self.eps_floor, scale):
                raise NonConvergence("inner p-Laplacian solve did not converge")
        return v

    def _objective(self, values, load_free, eps):
        kernel = self.op.kernel
        g = kernel.gradient(values)
        g2 = kernel.dot(g, g) + eps * eps
        energy = float(np.dot(self.mesh.cell_volumes, g2 ** (0.5 * self.p))) / self.p
        if self.shift:
            vv = values * values + _EPS_ZERO * _EPS_ZERO
            energy += self.shift / self.p * float(np.dot(self.mesh.lumped_volumes, vv ** (0.5 * self.p)))
        return energy - float(np.dot(load_free, values[self.free]))

    def _newton(self, values, load_free, eps, scale):
        # target is the strict goal; "loose" accepts a roundoff-limited stall,
        # which still leaves the inner error far below the outer tolerance.
        # A stall is a step that no longer halves the gradient norm: past that
        # point the line search only accepts roundoff-level steps.
        mesh, p, free = self.mesh, self.p, self.free
        target, loose = 1e-11 * scale, 1e-8 * scale
        lump = mesh.lumped_volumes
        gn = previous = math.inf
        trial = values.copy()  # line-search buffer; its fixed vertices never change
        for _ in range(self.max_inner):
            grad = fem.p_flux(mesh, values, p, eps)[free] - load_free
            if self.shift:
                grad += self.shift * (lump * fem.smoothed_odd_power(values, p, _EPS_ZERO))[free]
            gn = float(np.linalg.norm(grad))
            if gn <= target or (gn <= loose and gn > 0.5 * previous):
                return True
            previous = gn
            diag = self.shift * lump * fem.smoothed_odd_power_deriv(values, p, _EPS_ZERO) if self.shift else None
            H = fem.p_flux_jacobian(self.op, values, p, eps, diag)
            step = fem.solve_sparse(self.op, H, -grad)
            j0 = self._objective(values, load_free, eps)
            slope = float(np.dot(grad, step))
            start = values[free]
            t = 1.0
            while t > 1e-12:
                trial[free] = moved = start + t * step
                if self._objective(trial, load_free, eps) <= j0 + 1e-4 * t * slope:
                    values[free] = moved
                    break
                t *= 0.5
            else:
                return gn <= loose
        return gn <= loose


def principal_eigenpair(mesh_or_mask, m, p, opts=None):
    """First eigenpair of -Lap_p(u) = lam m |u|^{p-2} u on a mesh or vertex mask.

    Requires the positive part of m to be nontrivial on the active vertex set,
    otherwise EmptyAdmissibleSet is raised.  Returns an EigenPair with phi >= 0,
    sup_norm(phi) = 1 and the residual of the discrete eigenvalue equation
    below opts.tol; raises NonConvergence after opts.max_outer iterations.
    """
    opts = opts or EigenOptions()
    if p <= 1:
        raise InvalidConfig(f"exponent p must exceed 1, got {p}")
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
    if isinstance(opts.init, DiscreteFunction):
        u[free] = np.maximum(opts.init.values[free], 0.0)
    elif opts.init == "random":
        rng = np.random.default_rng(opts.seed)
        u[free] = rng.random(len(free)) * mesh.distance_to_boundary()[free]
    else:
        u[free] = mesh.distance_to_boundary()[free] * (m_vals[free] > 0)
    if _weighted_mass(mesh, m_vals, u, p) <= 0:
        # fall back to a start supported strictly inside {m > 0}
        u[:] = 0.0
        u[free] = np.maximum(m_vals[free], 0.0)
    u /= _weighted_mass(mesh, m_vals, u, p) ** (1.0 / p)

    rq0 = grad_energy(DiscreteFunction(mesh, u), p)
    # indefinite weights need the positivity-preserving shift; the Rayleigh
    # quotient is nonincreasing, so a shift sized by the current quotient keeps
    # (lam*m + shift) >= 0.  Oversizing it slows the contraction, so tighten it
    # as the quotient descends.
    m_min = float(np.min(m_vals[free]))
    shift = 0.0 if m_min >= 0 else 1.1 * rq0 * (-m_min)
    inner = _InnerSolver(mesh, p, free, opts.eps_floor, opts.max_inner, shift=shift)
    rq_history = [rq0]
    residual_norm = math.inf
    iterations = 0
    for iterations in range(1, opts.max_outer + 1):
        lam = rq_history[-1]
        if m_min < 0 and 1.1 * lam * (-m_min) < 0.6 * inner.shift:
            inner.set_shift(1.1 * lam * (-m_min))
        shift = inner.shift
        smax = np.max(u)
        residual_norm = float(np.linalg.norm(_eigen_residual(mesh, m_vals, u / smax, lam, p, free)))
        if residual_norm <= tol:
            break
        load = ((lam * m_vals + shift) * mesh.lumped_volumes * fem.odd_power(u, p))[free]
        v = np.maximum(inner.solve(load, u), 0.0)
        mass = _weighted_mass(mesh, m_vals, v, p)
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
            t, accepted = 0.5, False
            while t > 1e-6:
                w = np.maximum((1 - t) * u + t * v, 0.0)
                mass_w = _weighted_mass(mesh, m_vals, w, p)
                if mass_w > 0:
                    w /= mass_w ** (1.0 / p)
                    rq_w = grad_energy(DiscreteFunction(mesh, w), p)
                    if rq_w <= lam + _RQ_SLACK * (1.0 + abs(lam)):
                        v, rq, accepted = w, rq_w, True
                        break
                t *= 0.5
            if not accepted:
                break  # stationary up to backtracking resolution; residual check decides
        u = v
        rq_history.append(rq)
    else:
        raise NonConvergence(
            f"eigensolver residual {residual_norm:.3e} above tol {tol:.1e} "
            f"after {opts.max_outer} iterations"
        )
    if residual_norm > tol:
        raise NonConvergence(
            f"eigensolver stalled with residual {residual_norm:.3e} above tol {tol:.1e}"
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

    When the weight has no positive part on the mask the admissible set is
    empty and the +infinity sentinel is returned instead of an error.
    """
    mesh = mask.mesh
    free = _free_vertices(mesh, mask)
    m_vals = weight_values(m, mesh)
    if len(free) == 0 or not np.any(m_vals[free] > 0):
        return EigenPair(
            lam=math.inf,
            phi=DiscreteFunction.zeros(mesh),
            domain_mask=mask,
            iterations=0,
            rq_history=[],
            residual_norm=0.0,
        )
    return principal_eigenpair(mask, m, p, opts)


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
    if p <= 1:
        raise InvalidConfig(f"exponent p must exceed 1, got {p}")
    pi_p = 2.0 * math.pi / (p * math.sin(math.pi / p))
    return (p - 1.0) * (2.0 * pi_p / (x1 - x0)) ** p

"""Discrete energy, residual, Jacobian and Newton continuation for the problem

    -Lap_p(u) = lam * m |u|^{p-2} u + eta * a |u|^{q-2} u + f,   u = 0 on the boundary,

with 1 < q < p.  The energy is

    E(u) = (1/p) (int |grad u|^p - lam int m |u|^p) - (eta/q) int a |u|^q - int f u,

evaluated with exact per-cell gradients and mass-lumped lower-order terms.  The
solver runs damped Newton on the regularized weak form with a continuation
ladder: spectral parameter first (from a safe value below the principal
eigenvalue when the target sits below it), then the sublinear strength eta,
then the regularizations downward to their floors.  Two smoothings are used:

  * gradient kernel (|grad u|^2 + eps_g^2)^{(p-2)/2}, marched 1e-2 -> 1e-8;
    the raw kernel is the zero matrix at grad u = 0 for p > 2 and unbounded
    for p < 2;
  * zeroth-order odd powers (u^2 + eps_s^2)^{(r-2)/2} u, marched 1e-3 -> 1e-9;
    for q < 2 the raw power has unbounded slope at u = 0 (dead cores).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from . import fem
from .errors import InvalidConfig, NonConvergence, PlapError, ResonantParameter, SingularJacobian
from .functions import DiscreteFunction, Weight, grad_energy, sup_norm, weight_values, weighted_power_integral

__all__ = [
    "EPS_GRAD_FLOOR",
    "EPS_ZERO_FLOOR",
    "ProblemSpec",
    "SolveOutcome",
    "SolveOptions",
    "MultiStartResult",
    "classify_sign",
    "energy",
    "energy_smoothed",
    "residual",
    "jacobian",
    "solve",
    "multi_start_solve",
]

EPS_GRAD_FLOOR = 1e-8
EPS_ZERO_FLOOR = 1e-9
_EPS_LADDER = ((1e-2, 1e-3), (1e-4, 1e-5), (1e-6, 1e-7), (EPS_GRAD_FLOOR, EPS_ZERO_FLOOR))

SIGN_CLASSES = (
    "positive",
    "negative",
    "nonneg_with_zeros",
    "nonpos_with_zeros",
    "sign_changing",
    "zero",
)


@dataclass
class ProblemSpec:
    """One instance of the boundary value problem."""

    mesh: object
    p: float
    q: float
    lam: float
    eta: float
    m: Weight
    a: Weight
    f: Weight

    def __post_init__(self):
        if not 1.0 < self.q < self.p:
            raise InvalidConfig(f"exponents must satisfy 1 < q < p, got q={self.q}, p={self.p}")

    def replace(self, **kw):
        data = dict(
            mesh=self.mesh, p=self.p, q=self.q, lam=self.lam, eta=self.eta,
            m=self.m, a=self.a, f=self.f,
        )
        data.update(kw)
        return ProblemSpec(**data)


@dataclass
class SolveOutcome:
    """A converged solution with its sign classification and diagnostics."""

    u: DiscreteFunction
    residual_norm: float
    energy: float
    newton_iters: int
    continuation_steps: int
    sign_class: str
    boundary_flux_sign: np.ndarray
    sup_norm: float
    sobolev_seminorm: float
    start_strategy: str = ""
    resonant: bool = False
    diagnostics: dict = field(default_factory=dict)


@dataclass
class SolveOptions:
    """Solver knobs; see module docstring for the continuation ladder."""

    newton_tol: float = 1e-10
    max_newton: int = 60
    lam1: float | None = None  # precomputed principal eigenvalue estimate
    lam_rungs: int = 4
    eta_rungs: int = 3
    t_grid: tuple = (0.5, 1.0, 2.0, 4.0, 8.0)
    n_random: int = 2
    dedup_tol: float = 1e-6
    seed: int = 0


def _fields(spec):
    mesh = spec.mesh
    return weight_values(spec.m, mesh), weight_values(spec.a, mesh), weight_values(spec.f, mesh)


def energy(spec, u):
    """Exact (unregularized) energy of a zero-trace function."""
    m_int = weighted_power_integral(spec.m, u, spec.p)
    a_int = weighted_power_integral(spec.a, u, spec.q)
    f_int = weighted_power_integral(spec.f, u, 1.0, signed=True)
    h_lam = grad_energy(u, spec.p) - spec.lam * m_int
    return h_lam / spec.p - spec.eta / spec.q * a_int - f_int


def energy_smoothed(spec, u, eps_grad=EPS_GRAD_FLOOR, eps_zero=EPS_ZERO_FLOOR):
    """Regularized energy whose nodal gradient is residual() at the same eps."""
    mesh = spec.mesh
    m_vals, a_vals, f_vals = _fields(spec)
    kernel = fem.gradients(mesh)
    g = kernel.gradient(u.values)
    g2 = kernel.dot(g, g) + eps_grad**2
    grad_term = float(np.dot(mesh.cell_volumes, g2 ** (0.5 * spec.p))) / spec.p
    s2 = u.values**2 + eps_zero**2
    m_term = float(np.dot(mesh.lumped_volumes, m_vals * s2 ** (0.5 * spec.p))) / spec.p
    a_term = float(np.dot(mesh.lumped_volumes, a_vals * s2 ** (0.5 * spec.q))) / spec.q
    f_term = float(np.dot(mesh.lumped_volumes, f_vals * u.values))
    return grad_term - spec.lam * m_term - spec.eta * a_term - f_term


def residual(spec, u, eps_grad=EPS_GRAD_FLOOR, eps_zero=EPS_ZERO_FLOOR):
    """Weak-form residual over the interior vertices (regularization active).

    Component i is the pairing of the regularized operator with the hat
    function at vertex i; the zero vector characterizes a discrete solution.
    """
    res = _NewtonDriver(spec).residual(spec.lam, spec.eta, eps_grad, eps_zero)
    return res(u.values, u.values[spec.mesh.interior_vertices])


def jacobian(spec, u, eps_grad=EPS_GRAD_FLOOR, eps_zero=EPS_ZERO_FLOOR):
    """Sparse symmetric Jacobian of residual() over the interior vertices."""
    driver = _NewtonDriver(spec)
    return driver.op.matrix(driver.jacobian(u.values, spec.lam, spec.eta, eps_grad, eps_zero))


def classify_sign(u, boundary_excluded=True, margin=0.0):
    """Sign class of a DiscreteFunction from its interior nodal values.

    Thresholds: zero iff sup <= 1e-12; strict sign iff every interior value
    clears +-tau with tau = 1e-8 * sup; the *_with_zeros classes allow values
    inside [-tau, tau].  With margin > 0, vertices within margin * diameter of
    the boundary are dropped first (interior-only claims).
    """
    mesh = u.mesh
    idx = mesh.interior_vertices if boundary_excluded else np.arange(mesh.n_vertices)
    if margin > 0.0:
        dist = mesh.distance_to_boundary()
        idx = idx[dist[idx] >= margin * mesh.diameter()]
    smax = sup_norm(u)
    if smax <= 1e-12:
        return "zero"
    vals = u.values[idx]
    tau = 1e-8 * smax
    mn, mx = float(np.min(vals)), float(np.max(vals))
    if mn > tau:
        return "positive"
    if mx < -tau:
        return "negative"
    if mn >= -tau:
        return "nonneg_with_zeros"
    if mx <= tau:
        return "nonpos_with_zeros"
    return "sign_changing"


def _boundary_flux_sign(u):
    """Per-boundary-vertex sign of the one-sided outward-derivative estimate.

    Approximates du/dnu by (0 - u(nearest interior vertex)) / distance; only
    the sign is reported, as a diagnostic.
    """
    mesh = u.mesh
    if len(mesh.interior_vertices) == 0:
        return np.zeros(len(mesh.boundary_vertices), dtype=int)
    tree = cKDTree(mesh.vertices[mesh.interior_vertices])
    _, nearest = tree.query(mesh.vertices[mesh.boundary_vertices])
    inner_vals = u.values[mesh.interior_vertices[nearest]]
    return np.sign(-inner_vals).astype(int)


def _odd_powers(s, eps, exponents):
    """fem.smoothed_odd_power(s, r, eps) for each r in exponents, sharing s^2 + eps^2."""
    if eps == 0.0:
        return [fem.odd_power(s, r) for r in exponents]
    t = s * s + eps * eps
    return [t ** (0.5 * (r - 2)) * s for r in exponents]


class _NewtonDriver:
    def __init__(self, spec):
        self.spec = spec
        self.free = spec.mesh.interior_vertices
        self.op = fem.operator(spec.mesh, self.free)
        self.m_vals, self.a_vals, self.f_vals = _fields(spec)
        self.lump = spec.mesh.lumped_volumes
        # free-vertex coefficients of the zeroth-order terms, shared by every rung
        self.load = (self.lump * self.f_vals)[self.free]
        self.load_norm = np.linalg.norm(self.load)
        self.lump_m = (self.lump * self.m_vals)[self.free]
        self.lump_a = (self.lump * self.a_vals)[self.free]
        self.singular_stall = False

    def residual(self, lam, eta, eps_g, eps_s):
        """The residual on the free vertices at one rung, as res(values, values[free]).

        lam*lump*m and eta*lump*a are formed here, once per rung, and the
        zeroth-order powers share s^2 + eps_s^2.
        """
        spec, free = self.spec, self.free
        coef_m = (lam * self.lump * self.m_vals)[free]
        coef_a = (eta * self.lump * self.a_vals)[free]
        exponents = (spec.p, spec.q) if eta != 0.0 else (spec.p,)

        def res(vals, s):
            r = fem.p_flux(spec.mesh, vals, spec.p, eps_g)[free]
            powers = _odd_powers(s, eps_s, exponents)
            r -= coef_m * powers[0]
            if eta != 0.0:
                r -= coef_a * powers[1]
            r -= self.load
            return r

        return res

    def jacobian(self, values, lam, eta, eps_g, eps_s):
        """Stored data of the Jacobian of residual() at values (all vertices)."""
        p, q = self.spec.p, self.spec.q
        diag = -lam * self.lump * self.m_vals * fem.smoothed_odd_power_deriv(values, p, eps_s)
        if eta != 0.0:
            diag -= eta * self.lump * self.a_vals * fem.smoothed_odd_power_deriv(values, q, eps_s)
        return fem.p_flux_jacobian(self.op, values, p, eps_g, diag)

    def _scale(self, s, lam, eta):
        """1 + the size of the right-hand side at free values s; sets the rung's goal."""
        exponents = (self.spec.p, self.spec.q) if eta != 0.0 else (self.spec.p,)
        powers = _odd_powers(s, EPS_ZERO_FLOOR, exponents)
        ref = self.load_norm + abs(lam) * np.linalg.norm(self.lump_m * powers[0])
        if eta != 0.0:
            ref += abs(eta) * np.linalg.norm(self.lump_a * powers[1])
        return 1.0 + ref

    def newton(self, values, lam, eta, eps_g, eps_s, tol, max_iter):
        """Damped Newton with line search on the squared residual norm.

        Mutates values in place; returns (converged, iterations, final_norm).
        """
        free = self.free
        res = self.residual(lam, eta, eps_g, eps_s)
        s = values[free]
        r = res(values, s)
        rn = float(np.linalg.norm(r))
        goal = tol * self._scale(s, lam, eta)
        trial = values.copy()  # line-search buffer; its fixed vertices never change
        for it in range(max_iter):
            if rn <= goal:
                return True, it, rn
            J = self.jacobian(values, lam, eta, eps_g, eps_s)
            try:
                step = fem.solve_sparse(self.op, J, -r)
            except SingularJacobian:
                self.singular_stall = True
                return rn <= goal, it, rn
            merit0 = rn * rn
            t = 1.0
            while t > 1e-10:
                s_trial = s + t * step
                trial[free] = s_trial
                r_trial = res(trial, s_trial)
                if float(np.dot(r_trial, r_trial)) <= (1.0 - 2e-4 * t) * merit0:
                    values[free] = s = s_trial
                    r, rn = r_trial, float(np.linalg.norm(r_trial))
                    break
                t *= 0.5
            else:
                return rn <= goal, it + 1, rn
            goal = tol * self._scale(s, lam, eta)
        return rn <= goal, max_iter, rn


def _continuation_stages(spec, opts, lam1):
    """(lam, eta, eps_g, eps_s, is_final) ladder per the continuation order."""
    lam_t, eta_t = spec.lam, spec.eta
    if spec.p == 2.0 and eta_t == 0.0:
        # linear problem: the smoothings are no-ops and Newton is exact
        return [(lam_t, 0.0, EPS_GRAD_FLOOR, EPS_ZERO_FLOOR, True)]
    eps0 = _EPS_LADDER[0]
    stages = []
    if lam1 is not None and math.isfinite(lam1) and 0.9 * lam1 < lam_t <= lam1:
        # approach a just-below-resonance target from a safe value
        for lam in np.linspace(0.9 * lam1, lam_t, opts.lam_rungs)[:-1]:
            if abs(lam - lam1) >= 0.05 * abs(lam1):
                stages.append((float(lam), 0.0, *eps0, False))
    stages.append((lam_t, 0.0, *eps0, False))
    if eta_t != 0.0:
        for k in range(1, opts.eta_rungs + 1):
            stages.append((lam_t, eta_t * k / opts.eta_rungs, *eps0, False))
    for eps_g, eps_s in _EPS_LADDER[1:]:
        stages.append((lam_t, eta_t, eps_g, eps_s, False))
    # re-flag the last stage as final
    lam, eta, eg, es, _ = stages[-1]
    stages[-1] = (lam, eta, eg, es, True)
    return stages


def solve(spec, init="zero", opts=None):
    """Solve the boundary value problem by damped Newton with continuation.

    init is a DiscreteFunction, an array of nodal values, or the name of a
    start ("zero").  Raises NonConvergence when the final stage fails, and
    ResonantParameter when it fails with a singular linearization (the
    spectral parameter sits numerically on an eigenvalue).
    """
    opts = opts or SolveOptions()
    mesh = spec.mesh
    if isinstance(init, DiscreteFunction):
        values = init.values.copy()
    elif isinstance(init, np.ndarray):
        values = init.astype(float).copy()
    elif init == "zero":
        values = np.zeros(mesh.n_vertices)
    else:
        raise InvalidConfig(f"unknown init {init!r}")
    values[mesh.boundary_vertices] = 0.0

    driver = _NewtonDriver(spec)
    stages = _continuation_stages(spec, opts, opts.lam1)
    total_iters = 0
    rn = math.inf
    resonant_seen = False
    for lam, eta, eps_g, eps_s, is_final in stages:
        tol = opts.newton_tol if is_final else max(1e-6, opts.newton_tol)
        driver.singular_stall = False
        ok, iters, rn = driver.newton(values, lam, eta, eps_g, eps_s, tol, opts.max_newton)
        total_iters += iters
        if not ok:
            resonant_seen = resonant_seen or driver.singular_stall
            if is_final:
                if driver.singular_stall:
                    raise ResonantParameter(
                        f"Newton stalled with singular linearization at lam={lam}, eta={eta}"
                    )
                raise NonConvergence(
                    f"Newton residual {rn:.3e} above tolerance at lam={lam}, eta={eta}"
                )
            # non-final rung failures only cost the warm start

    u = DiscreteFunction(mesh, values)
    smax = sup_norm(u)
    semi = grad_energy(u, spec.p) ** (1.0 / spec.p)
    r_norm = 2.0 * spec.p  # exponent for the sup-norm growth diagnostic
    u_r = weighted_power_integral(Weight.constant(1.0), u, r_norm) ** (1.0 / r_norm)
    outcome = SolveOutcome(
        u=u,
        residual_norm=rn,
        energy=energy(spec, u),
        newton_iters=total_iters,
        continuation_steps=len(stages),
        sign_class=classify_sign(u),
        boundary_flux_sign=_boundary_flux_sign(u),
        sup_norm=smax,
        sobolev_seminorm=semi,
        resonant=resonant_seen,
        diagnostics={
            "H_lam": grad_energy(u, spec.p) - spec.lam * weighted_power_integral(spec.m, u, spec.p),
            "sup_bound_ratio": smax / (1.0 + u_r),
        },
    )
    return outcome


def _random_smooth_starts(mesh, rng, count):
    """Zero-trace smooth random fields: one Laplace solve of white noise each."""
    if count <= 0:
        return []
    op = fem.operator(mesh, mesh.interior_vertices)
    laplace_solve = op.factorize(fem.p_flux_jacobian(op, np.zeros(mesh.n_vertices), 2.0, 0.0))
    starts = []
    for _ in range(count):
        noise = rng.standard_normal(len(mesh.interior_vertices)) * mesh.lumped_volumes[mesh.interior_vertices]
        vals = np.zeros(mesh.n_vertices)
        vals[mesh.interior_vertices] = laplace_solve(noise)
        peak = np.max(np.abs(vals))
        if peak > 0:
            vals *= float(rng.choice((0.5, 2.0, 8.0))) / peak
        starts.append(vals)
    return starts


class MultiStartResult:
    """Distinct converged outcomes plus the per-start record.

    Iterating yields the distinct outcomes (the deduplicated solution set);
    per_start has one (strategy, outcome_or_None, error_message) triple per
    attempted start, preserving start order.
    """

    def __init__(self, outcomes, per_start):
        self.outcomes = outcomes
        self.per_start = per_start

    @property
    def failures(self):
        return [(s, err) for s, out, err in self.per_start if out is None]

    def __iter__(self):
        return iter(self.outcomes)

    def __len__(self):
        return len(self.outcomes)

    def __getitem__(self, i):
        return self.outcomes[i]


def multi_start_solve(spec, opts=None, phi1=None):
    """Run solve() from the start family {zero, +-t*phi1, random} and deduplicate.

    Per-start failures are recorded, never raised.  Outcomes within
    dedup_tol * (1 + min sup) of each other in the sup norm count as one
    solution.  phi1 may be passed to skip the eigensolve for the +-t starts;
    when the eigensolve fails (e.g. m <= 0) those starts are dropped.
    """
    opts = opts or SolveOptions()
    mesh = spec.mesh
    starts = [("zero", "zero")]
    if phi1 is None:
        from .eigen import principal_eigenpair

        try:
            pair = principal_eigenpair(mesh, spec.m, spec.p)
            phi1 = pair.phi
            if opts.lam1 is None:
                opts = SolveOptions(**{**opts.__dict__, "lam1": pair.lam})
        except PlapError:
            phi1 = None
    if phi1 is not None:
        for t in opts.t_grid:
            starts.append((f"pos_phi1_t{t:g}", t * phi1.values))
            starts.append((f"neg_phi1_t{t:g}", -t * phi1.values))
    rng = np.random.default_rng(opts.seed)
    for k, vals in enumerate(_random_smooth_starts(mesh, rng, opts.n_random)):
        starts.append((f"random{k}", vals))

    per_start = []
    outcomes = []
    for label, init in starts:
        try:
            out = solve(spec, init, opts)
        except (NonConvergence, ResonantParameter, SingularJacobian) as exc:
            per_start.append((label, None, f"{type(exc).__name__}: {exc}"))
            continue
        out.start_strategy = label
        per_start.append((label, out, ""))
        duplicate = False
        for kept in outcomes:
            gap = sup_norm(out.u - kept.u)
            if gap <= opts.dedup_tol * (1.0 + min(out.sup_norm, kept.sup_norm)):
                duplicate = True
                break
        if not duplicate:
            outcomes.append(out)
    return MultiStartResult(outcomes, per_start)

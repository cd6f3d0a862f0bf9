"""Discrete energy, residual, Jacobian and Newton continuation for the problem

    -Lap_p(u) = lam * m |u|^{p-2} u + eta * a |u|^{q-2} u + f,   u = 0 on the boundary,

with 1 < q < p.  The energy is

    E(u) = (1/p) (int |grad u|^p - lam int m |u|^p) - (eta/q) int a |u|^q - int f u,

evaluated with exact per-cell gradients and mass-lumped lower-order terms.  The
solver runs damped Newton on the regularized weak form with a continuation
ladder: spectral parameter first (from a safe value below the principal
eigenvalue when the target sits below it), then the sublinear strength eta,
then the regularizations downward to their floors.  Each rung solves
fem.weak_form, the regularized weak residual the eigensolver's inner solve
shares, with the terms (lam lump m, p) and, when eta != 0, (eta lump a, q).
Its two smoothings, marched down fem.EPS_LADDER, are:

  * gradient kernel (|grad u|^2 + eps_g^2)^{(p-2)/2}, from 1e-2 down to
    fem.EPS_GRAD_FLOOR = 1e-8; the raw kernel is the zero matrix at
    grad u = 0 for p > 2 and unbounded for p < 2;
  * zeroth-order odd powers (u^2 + eps_s^2)^{(r-2)/2} u, from 1e-3 down to
    fem.EPS_ZERO_FLOOR = 1e-9; for q < 2 the raw power has unbounded slope
    at u = 0 (dead cores).

Each rung runs fem.newton, the damped-Newton loop the eigensolver's inner
solve shares: each line search tries t = 1, 1/2, 1/4, ... and takes the
first trial that passes the Armijo test on the squared residual norm,
||r_trial||^2 <= (1 - 2e-4 t) ||r||^2 (fem.newton evaluates the trials in
stacked chunks, as many as the start's last search needed, carried from
rung to rung, with the result of a search that tries one t at a time).  The
loop ends on one of the reasons fem.newton names: converged (||r|| <= the
rung's tolerance * (1 + size of the right-hand side)), stalled,
line_search, max_newton or singular.  A rung has stalled when the trial
that passed Armijo lowers ||r||^2 by less than the relative STALL_DECREASE
= 1e-5; that trial is not taken.  Armijo alone asks for 2e-4 t, so only
steps damped below t ~ 0.05 can trip this test (Dennis & Schnabel 1996,
section 6.3 and A6.3.1).

Every reason but converged ends the rung at its last accepted iterate, which
warm-starts the next rung; on the final rung solve raises NonConvergence
naming the reason and the energy steps of that rung (ResonantParameter for
singular).  The progress test ends a rung, not a start: many starts that
stall near the degenerate point u = 0 of the p > 2 operator recover on a
later rung.  Why 1e-5, on the 1D benchmark grid (n = 256, p = 3, lam in
{0.8, 1.9} lam1, eta in {0, 0.2}, no random starts), measured before the
energy rescue below and with one residual call per trial: without it, 41
rungs accepted steps at t <= 2^-14 and none of them converged, yet they
made 27,067 of the grid's 30,226 residual evaluations; with it the grid
made 7,314, the same 10 starts failed (a median of 299 evaluations each
instead of 2,242) and each cell found the same solutions.  A t floor of
1e-6 instead would cut converging rungs: one 1D f = 1 rung needs t = 2^-32.
(The eigensolver's inner solve runs the loop with the test off: its problem
is strictly convex, so ||r||^2 has no stall to catch.)

Below lam1 a rung that would end can step on the energy instead.  The
residual is the gradient of the regularized energy E of fem.weak_form, and
int |grad u|^p >= lam1 int m |u|^p, so for 0 <= lam < lam1 (and for lam < 0
when m >= 0) E is coercive and the solutions there minimize it; above lam1
they come from linking and are saddles of E, where a step down E can lead
away from every root.  So on rungs with lam below lam1, when lam1 is known
(opts.lam1, which _fill_lam1 fills in for multi_start_solve and plap
solve), the driver hands fem.newton the energy: when the ||r||^2 search
would end the rung as stalled or line_search and the step descends E, an
Armijo step on E is taken and the rung goes on under the ||r||^2 test
(Nocedal & Wright 2006, ch. 3).
Without it, starts on the wrong side of u = 0 slide into the degenerate
point and stall there: on the grid above, 6 of the 10 failed starts stalled
at 0.8 lam1 with ||r|| of 5.5-5.8e-2, close to ||load|| = 6.2e-2.  With it
5 of them reach the cell's solution after one energy step each (35 energy
evaluations on the grid), 5 starts fail (4 at 1.9 lam1), and the grid makes
1,116 residual calls (6,152 trials) for 693 Newton iterations, against
1,898 calls for 741 iterations before.  The step at every lam, saddles
included, made the 2D grid's sweep take 1.6-1.8 times as long (CHANGES.md),
as rescued starts above lam1 crawl toward their roots.  Rungs that never
stall, rungs above lam1, solves without lam1 and the eigensolver's inner
solve run as without the rescue, bit for bit.

solve states its work as plans, each a list of rungs (stage, goal, cap,
shared), and _run executes a plan: it alone runs _NewtonDriver.newton and
reads or fills the row store.  The ladder is one plan.  Its first rungs do
not read eta: the lam rungs and (lam, 0) at the first smoothing, the
unperturbed problem the eta term is switched on from.  Every cell of one
lam row runs them alike, so they are shared: _solve_row hands the row's
solves one private store (solve's _prefix), and each start runs them once
per row.  regions.sweep solves each of its lam rows there, and
regions.nonuniformity_experiment its two probes, eta = 0 and eta_small.  A
later cell replays a shared rung's record.  That is exact: Newton is
deterministic, and the key, the start's bytes and the rungs run so far,
fixes everything the rung reads.  The ladder's results stay bit-identical;
the row's first cell pays for the shared rungs.

A row also continues in eta (natural continuation; Allgower & Georg,
Introduction to Numerical Continuation Methods, SIAM 2003).  It solves the
row's anchor cell, the eta nearest 0 (_anchor), first, by the ladder alone,
then the cells on each side of it, outward.  Continuation follows
solutions, not starts: a cell's starts mostly reach one or two of them.  So
each distinct solution of the neighbouring cell toward the anchor is
continued once.  Every start that converged there is handed the solution
its dedup matched, as the first start that found it reached it
(MultiStartResult.matched), and first runs a one-rung plan from it (solve's
_warm): the final stage, with the final rung's goal and at most
_WARM_NEWTON = 10 iterations, shared, so the starts of one solution share
one rung and its bits.  A warm rung that converges gives a root of the same
final residual to newton_tol, but not the ladder's bits, and it may be
another root than the ladder reaches.  One that fails costs its iterations
once, and each start of it runs its own ladder with the row store,
bit-identical to a lone solve.  So the anchor column and every start that
falls back are bit-identical to solving the cell alone; the starts that
converge warm are not.  Why the cap, on the census rows of
tests/test_census_sweep.py: the 14 of 26 warm rungs that converged took 3-9
iterations; on the bump rows none of 12 converged, and without the cap 11
of them ran until max_newton.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import fem
from .eigen import _principal_or_none
from .errors import InvalidConfig, NonConvergence, ResonantParameter, SingularJacobian
from .functions import (
    DiscreteFunction, Weight, check_exponents, grad_energy, nodal_values, sup_norm, weight_values,
    weighted_power_integral,
)

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

EPS_GRAD_FLOOR = fem.EPS_GRAD_FLOOR
EPS_ZERO_FLOOR = fem.EPS_ZERO_FLOOR
STALL_DECREASE = 1e-5  # relative drop of ||r||^2 below which a rung has stalled; see above
_LAM_RUNGS = 4  # lam values, the target included, on the approach from 0.9 lam1
_ETA_RUNGS = 3  # eta values, the target included, on the way up from eta = 0
_WARM_NEWTON = 10  # iteration cap of a warm rung from a neighbouring cell's solution; see above

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
        check_exponents(self.p, self.q)

    def replace(self, **kw):
        return replace(self, **kw)


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
    lam1: float | None = None  # principal eigenvalue, None for unknown; _fill_lam1 fills in the computed one
    t_grid: tuple = (0.5, 1.0, 2.0, 4.0, 8.0)
    n_random: int = 2
    dedup_tol: float = 1e-6
    seed: int = 0


def _fields(spec):
    mesh = spec.mesh
    return weight_values(spec.m, mesh), weight_values(spec.a, mesh), weight_values(spec.f, mesh)


def energy(spec, u):
    """Exact (unregularized) energy of a zero-trace function."""
    return _h_lam_and_energy(spec, u, grad_energy(u, spec.p))[1]


def _h_lam_and_energy(spec, u, grad):
    """(H_lam(u), energy(spec, u)) from grad = grad_energy(u, spec.p)."""
    h_lam = grad - spec.lam * weighted_power_integral(spec.m, u, spec.p)
    a_int = weighted_power_integral(spec.a, u, spec.q)
    f_int = weighted_power_integral(spec.f, u, 1.0, signed=True)
    return h_lam, h_lam / spec.p - spec.eta / spec.q * a_int - f_int


def energy_smoothed(spec, u, eps_grad=EPS_GRAD_FLOOR, eps_zero=EPS_ZERO_FLOOR):
    """Regularized energy whose nodal gradient is residual() at the same eps (fem.weak_form's energy)."""
    energy = _NewtonDriver(spec).weak_form(spec.lam, spec.eta, eps_grad, eps_zero)[2]
    return energy(u.values, u.values[spec.mesh.interior_vertices])


def residual(spec, u, eps_grad=EPS_GRAD_FLOOR, eps_zero=EPS_ZERO_FLOOR):
    """Weak-form residual over the interior vertices (regularization active).

    Component i is the pairing of the regularized operator with the hat
    function at vertex i; the zero vector characterizes a discrete solution.
    """
    res = _NewtonDriver(spec).residual(spec.lam, spec.eta, eps_grad, eps_zero)
    return res(u.values, u.values[spec.mesh.interior_vertices])


def jacobian(spec, u, eps_grad=EPS_GRAD_FLOOR, eps_zero=EPS_ZERO_FLOOR):
    """Sparse symmetric Jacobian of residual() over the interior vertices.

    Raises SingularJacobian at eps_grad = 0 with p < 2 where grad u vanishes
    on a cell, and at eps_zero = 0 with p or q below 2 where an interior
    value of u is 0: the linearization is unbounded there.
    """
    driver = _NewtonDriver(spec)
    return driver.op.matrix(driver.jacobian(u.values, spec.lam, spec.eta, eps_grad, eps_zero))


def classify_sign(u, margin=0.0):
    """Sign class of a DiscreteFunction from its interior nodal values.

    Thresholds: zero iff sup <= 1e-12; strict sign iff every interior value
    clears +-tau with tau = 1e-8 * sup; the *_with_zeros classes allow values
    inside [-tau, tau].  With margin > 0, vertices within margin * diameter of
    the boundary are dropped first (interior-only claims).  On a domain too
    thin for that (a rectangle of aspect ratio above about 4.9 at margin 0.1)
    the margin would drop every interior vertex; the class is then taken on
    all interior vertices.
    """
    mesh = u.mesh
    idx = mesh.interior_vertices
    if margin > 0.0:
        dist = mesh.distance_to_boundary()
        inner = idx[dist[idx] >= margin * mesh.diameter()]
        if len(inner):
            idx = inner
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


def _nearest_interior(mesh):
    """Position in mesh.interior_vertices of each boundary vertex's nearest interior vertex.

    Computed once per mesh and kept in mesh.derived, like fem.gradients, by
    brute force over blocks of about 2^18 distances.
    """

    def build():
        inner = mesh.vertices[mesh.interior_vertices]
        outer = mesh.vertices[mesh.boundary_vertices]
        nearest = np.empty(len(outer), dtype=np.int64)
        block = max(1, 2**18 // len(inner))
        for lo in range(0, len(outer), block):
            pts = outer[lo : lo + block]
            d2 = sum((pts[:, k, None] - inner[None, :, k]) ** 2 for k in range(mesh.dimension))
            nearest[lo : lo + block] = np.argmin(d2, axis=1)
        nearest.setflags(write=False)
        return nearest

    return mesh.derived(_nearest_interior, build)


def _boundary_flux_sign(u):
    """Per-boundary-vertex sign of the one-sided outward-derivative estimate.

    Approximates du/dnu by (0 - u(nearest interior vertex)) / distance; only
    the sign is reported, as a diagnostic.
    """
    mesh = u.mesh
    if len(mesh.interior_vertices) == 0:
        return np.zeros(len(mesh.boundary_vertices), dtype=int)
    inner_vals = u.values[mesh.interior_vertices[_nearest_interior(mesh)]]
    return np.sign(-inner_vals).astype(int)


class _NewtonDriver:
    """The rungs of one plan (_run): each rung's weak form, goal and energy rescue, and the carried chunk width.

    lam1 is the principal eigenvalue of (m, p), None when unknown; it gates
    the energy rescue (_coercive).  width is the chunk width fem.newton
    returned for the plan's last rung, and energy_steps the rescue steps of
    that rung; solve gives each plan a fresh driver.
    """

    def __init__(self, spec, lam1=None):
        self.spec = spec
        self.lam1 = lam1
        self.width = 1
        self.energy_steps = 0
        self.free = spec.mesh.interior_vertices
        self.op = fem.operator(spec.mesh, self.free)
        self.m_vals, self.a_vals, self.f_vals = _fields(spec)
        self.lump = spec.mesh.lumped_volumes
        # free-vertex coefficients of the zeroth-order terms, shared by every rung
        self.load = (self.lump * self.f_vals)[self.free]
        self.load_norm = np.linalg.norm(self.load)
        self.lump_m = (self.lump * self.m_vals)[self.free]
        self.lump_a = (self.lump * self.a_vals)[self.free]

    def weak_form(self, lam, eta, eps_g, eps_s):
        """fem.weak_form of one rung, (res, jac, energy): terms (lam*lump*m, p) and, when eta != 0, (eta*lump*a, q)."""
        spec = self.spec
        terms = [(lam * self.lump * self.m_vals, spec.p)]
        if eta != 0.0:
            terms.append((eta * self.lump * self.a_vals, spec.q))
        return fem.weak_form(spec.mesh, self.op, spec.p, eps_g, eps_s, terms, self.load)

    def residual(self, lam, eta, eps_g, eps_s):
        """The residual on the free vertices at one rung, as res(values, values[free])."""
        return self.weak_form(lam, eta, eps_g, eps_s)[0]

    def jacobian(self, values, lam, eta, eps_g, eps_s):
        """Stored data of the Jacobian of residual() at values (all vertices)."""
        return self.weak_form(lam, eta, eps_g, eps_s)[1](values)

    def _scale(self, s, lam, eta):
        """1 + the size of the right-hand side at free values s; sets the rung's goal."""
        exponents = (self.spec.p, self.spec.q) if eta != 0.0 else (self.spec.p,)
        powers = fem.odd_powers(s, EPS_ZERO_FLOOR, exponents)
        ref = self.load_norm + abs(lam) * np.linalg.norm(self.lump_m * powers[0])
        if eta != 0.0:
            ref += abs(eta) * np.linalg.norm(self.lump_a * powers[1])
        return 1.0 + ref

    def _coercive(self, lam):
        """True when lam lies below lam1, where the energy is coercive: 0 <= lam < lam1, or lam < 0 with m >= 0."""
        if self.lam1 is None:
            return False
        return 0.0 <= lam < self.lam1 or (lam < 0.0 and bool(np.all(self.lump_m >= 0.0)))

    def newton(self, values, lam, eta, eps_g, eps_s, tol, max_iter):
        """One rung: fem.newton on this rung's residual, with the STALL_DECREASE progress test.

        The energy rescue runs where _coercive(lam), and the first search
        takes the chunk width of the start's last one.  Mutates values in
        place; returns (reason, iterations, final_norm), where reason names
        the test that ended the rung (see the module docstring).
        """
        res, jac, energy = self.weak_form(lam, eta, eps_g, eps_s)
        reason, iters, rn, self.width, self.energy_steps = fem.newton(
            values,
            self.free,
            res,
            jac,
            self.op,
            lambda s: tol * self._scale(s, lam, eta),
            max_iter,
            STALL_DECREASE,
            energy if self._coercive(lam) else None,
            self.width,
        )
        return reason, iters, rn


def _continuation_stages(spec, lam1):
    """(lam, eta, eps_g, eps_s) ladder per the continuation order; the last stage is the final one."""
    lam_t, eta_t = spec.lam, spec.eta
    if spec.p == 2.0 and eta_t == 0.0:
        # linear problem: the smoothings are no-ops and Newton is exact
        return [(lam_t, 0.0, EPS_GRAD_FLOOR, EPS_ZERO_FLOOR)]
    eps0 = fem.EPS_LADDER[0]
    stages = []
    if lam1 is not None and math.isfinite(lam1) and 0.9 * lam1 < lam_t <= lam1:
        # approach a just-below-resonance target from a safe value
        for lam in np.linspace(0.9 * lam1, lam_t, _LAM_RUNGS)[:-1]:
            if abs(lam - lam1) >= 0.05 * abs(lam1):
                stages.append((float(lam), 0.0, *eps0))
    stages.append((lam_t, 0.0, *eps0))
    if eta_t != 0.0:
        for k in range(1, _ETA_RUNGS + 1):
            stages.append((lam_t, eta_t * k / _ETA_RUNGS, *eps0))
    for eps_g, eps_s in fem.EPS_LADDER[1:]:
        stages.append((lam_t, eta_t, eps_g, eps_s))
    return stages


def _run(driver, values, plan, store):
    """Run plan's rungs in order on values, in place; returns (reason, norm, iterations, singular).

    A rung (stage, goal, cap, shared) is driver.newton at stage = (lam, eta,
    eps_g, eps_s) to tolerance goal for at most cap iterations, from the last
    rung's iterate, whatever reason that one ended on.  reason and norm are
    the last rung's; iterations and singular (a rung ended singular) cover
    them all.  With a store, each shared rung is looked up there, under the
    initial values' bytes and the rungs run so far, and replayed, or run and
    recorded as (iterate, reason, iterations, norm, chunk width).
    """
    key = (values.tobytes(),) if store is not None else None
    total, singular = 0, False
    for rung in plan:
        stage, goal, cap, shared = rung
        key = None if key is None else (*key, rung)
        kept = shared and key is not None
        if kept and key in store:
            stored, reason, iters, rn, driver.width = store[key]
            values[:] = stored
        else:
            reason, iters, rn = driver.newton(values, *stage, goal, cap)
            if kept:
                store[key] = (values.copy(), reason, iters, rn, driver.width)
        total += iters
        singular = singular or reason == "singular"
    return reason, rn, total, singular


def solve(spec, init="zero", opts=None, *, _prefix=None, _warm=None):
    """Solve the boundary value problem by damped Newton with continuation.

    init is a DiscreteFunction, an array of nodal values, or the name of a
    start ("zero").  solve builds plans of rungs for _run (see the module
    docstring): the ladder from init, one rung per stage, and with _warm a
    one-rung plan before it; the first plan that converges gives the
    outcome.  Raises NonConvergence when the ladder's final rung fails, and
    ResonantParameter when it fails with a singular linearization (the
    spectral parameter sits numerically on an eigenvalue).

    _prefix is a private rung store (a dict) for solves that differ only in
    eta, the cells of one row (_solve_row): same mesh, p, q, m, a, f, lam
    and opts.  A replayed rung still counts in newton_iters and a singular
    one still sets resonant; results are bit-identical to solves without a
    store.

    _warm is a private warm start (a DiscreteFunction or nodal values), the
    solution in the neighbouring cell of its row that this start's solution
    there matched.  Its plan is the final stage for at most _WARM_NEWTON
    iterations, shared; an outcome from it carries diagnostics["warm_start"]
    = True.  When it fails, the result is bit-identical to solving without
    _warm.
    """
    opts = opts or SolveOptions()
    mesh = spec.mesh
    if not isinstance(init, str):
        values = nodal_values(init, mesh, "init").copy()
    elif init == "zero":
        values = np.zeros(mesh.n_vertices)
    else:
        raise InvalidConfig(f"unknown init {init!r}")
    values[mesh.boundary_vertices] = 0.0

    stages = _continuation_stages(spec, opts.lam1)
    final = len(stages) - 1
    ladder = [
        (stage, opts.newton_tol if k == final else max(1e-6, opts.newton_tol), opts.max_newton,
         stage[1] == 0.0 and stage[2:] == fem.EPS_LADDER[0])
        for k, stage in enumerate(stages)
    ]
    plans = [(values, ladder)]
    if _warm is not None:
        warm = nodal_values(_warm, mesh, "warm start").copy()
        plans.insert(0, (warm, [(stages[final], opts.newton_tol, _WARM_NEWTON, True)]))
    for start, plan in plans:
        driver = _NewtonDriver(spec, opts.lam1)
        reason, rn, iters, singular = _run(driver, start, plan, _prefix)
        if reason == "converged":
            outcome = _outcome(spec, start, rn, iters, len(plan), singular)
            if plan is not ladder:
                outcome.diagnostics["warm_start"] = True
            return outcome
    lam, eta = stages[final][:2]
    steps = driver.energy_steps
    after = f" after {steps} energy step{'s' if steps > 1 else ''}" if steps else ""
    if reason == "singular":
        raise ResonantParameter(f"Newton stalled{after} with singular linearization at lam={lam}, eta={eta}")
    raise NonConvergence(f"Newton {reason}{after}: residual {rn:.3e} above tolerance at lam={lam}, eta={eta}")


def _outcome(spec, values, rn, iters, steps, resonant):
    """The SolveOutcome of converged nodal values, with its sign class and diagnostics."""
    u = DiscreteFunction(spec.mesh, values)
    smax = sup_norm(u)
    grad = grad_energy(u, spec.p)
    h_lam, e = _h_lam_and_energy(spec, u, grad)
    r_norm = 2.0 * spec.p  # exponent for the sup-norm growth diagnostic
    u_r = weighted_power_integral(Weight.constant(1.0), u, r_norm) ** (1.0 / r_norm)
    return SolveOutcome(
        u=u,
        residual_norm=rn,
        energy=e,
        newton_iters=iters,
        continuation_steps=steps,
        sign_class=classify_sign(u),
        boundary_flux_sign=_boundary_flux_sign(u),
        sup_norm=smax,
        sobolev_seminorm=grad ** (1.0 / spec.p),
        resonant=resonant,
        diagnostics={
            "H_lam": h_lam,
            "sup_bound_ratio": smax / (1.0 + u_r),
        },
    )


def _random_smooth_starts(mesh, rng, count):
    """Zero-trace smooth random fields: one Laplace solve of white noise each."""
    if count <= 0:
        return []
    laplace_solve = fem.stiffness_solver(mesh, mesh.interior_vertices)
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
    attempted start, preserving start order.  matched maps the label of
    each converged start to the distinct outcome its dedup matched, which is
    its own outcome when it found that solution first.  warm_starts and
    warm_fallbacks count the starts that converged from a neighbouring
    cell's solution and the ones that fell back to the ladder
    (multi_start_solve's _warm).
    """

    def __init__(self, outcomes, per_start, warm_starts=0, warm_fallbacks=0, matched=None):
        self.outcomes = outcomes
        self.per_start = per_start
        self.warm_starts = warm_starts
        self.warm_fallbacks = warm_fallbacks
        self.matched = matched or {}

    @property
    def failures(self):
        return [(s, err) for s, out, err in self.per_start if out is None]

    def __iter__(self):
        return iter(self.outcomes)

    def __len__(self):
        return len(self.outcomes)

    def __getitem__(self, i):
        return self.outcomes[i]


def _fill_lam1(spec, opts):
    """(opts, pair) with pair = eigen._principal_or_none(mesh, m, p) and an unset opts.lam1 set to pair.lam.

    A failed eigensolve (pair None) leaves opts as given.  The library solve
    never calls it: there lam1 = None means unknown.
    """
    pair = _principal_or_none(spec.mesh, spec.m, spec.p)
    if pair is not None and opts.lam1 is None:
        opts = replace(opts, lam1=pair.lam)
    return opts, pair


def multi_start_solve(spec, opts=None, *, _prefix=None, _warm=None):
    """Run solve() from the start family {zero, +-t*phi1, random} and deduplicate.

    Per-start failures are recorded, never raised.  Outcomes within
    dedup_tol * (1 + min sup) of each other in the sup norm count as one
    solution.  phi1, and lam1 for an unset opts.lam1, come from _fill_lam1;
    when its eigensolve fails (e.g. m <= 0) the +-t starts are dropped.
    _solve_row passes its row's store as _prefix to every solve() (see
    there).

    _warm maps a start label to the distinct outcome that start matched in
    the neighbouring cell of its row (that cell's matched; _solve_row); a
    start found there runs solve() with the outcome's solution as its _warm
    start, so starts that matched one outcome share its warm rung through
    _prefix.  The result counts the starts that converged from it
    (warm_starts) and the ones that fell back to the ladder
    (warm_fallbacks).
    """
    opts, pair = _fill_lam1(spec, opts or SolveOptions())
    mesh = spec.mesh
    starts = [("zero", "zero")]
    if pair is not None:
        for t in opts.t_grid:
            starts.append((f"pos_phi1_t{t:g}", t * pair.phi.values))
            starts.append((f"neg_phi1_t{t:g}", -t * pair.phi.values))
    rng = np.random.default_rng(opts.seed)
    for k, vals in enumerate(_random_smooth_starts(mesh, rng, opts.n_random)):
        starts.append((f"random{k}", vals))

    _warm = _warm or {}
    per_start = []
    outcomes = []
    matched = {}  # converged start's label -> the kept outcome its dedup matched
    for label, init in starts:
        neighbour = _warm.get(label)
        try:
            out = solve(spec, init, opts, _prefix=_prefix, _warm=None if neighbour is None else neighbour.u)
        except (NonConvergence, ResonantParameter, SingularJacobian) as exc:
            per_start.append((label, None, f"{type(exc).__name__}: {exc}"))
            continue
        out.start_strategy = label
        per_start.append((label, out, ""))
        kept = out
        for other in outcomes:
            gap = sup_norm(out.u - other.u)
            if gap <= opts.dedup_tol * (1.0 + min(out.sup_norm, other.sup_norm)):
                kept = other
                break
        else:
            outcomes.append(out)
        matched[label] = kept
    offered = sum(label in _warm for label, _ in starts)
    warm_starts = sum(out is not None and "warm_start" in out.diagnostics for _, out, _ in per_start)
    return MultiStartResult(outcomes, per_start, warm_starts, offered - warm_starts, matched)


def _anchor(etas):
    """Index of the eta nearest 0, the lower one on a tie: a row's first cell and regions' eta = 0 column."""
    return int(np.argmin(np.abs(np.asarray(etas))))


def _solve_row(template, lam, etas, opts):
    """The multi_start_solve result of each cell (lam, eta) of one row, in the order of etas.

    template is a ProblemSpec whose lam/eta fields are ignored.  The anchor
    cell (_anchor) is solved first, then the cells on each side of it,
    outward.  All of them share the row's rung store (solve's _prefix), and
    every cell but the anchor hands each start that converged in the
    neighbouring cell toward the anchor the distinct outcome it matched
    there (MultiStartResult.matched) as a warm start (multi_start_solve's
    _warm), so each distinct solution runs one warm rung; see the module
    docstring.
    """
    if not etas:
        return []
    j0 = _anchor(etas)
    prefix = {}  # the row's shared rungs, eta-free and warm, each run once
    row = [None] * len(etas)
    for j in (j0, *range(j0 + 1, len(etas)), *range(j0 - 1, -1, -1)):
        warm = None
        if j != j0:
            warm = (row[j - 1] if j > j0 else row[j + 1]).matched
        spec = template.replace(lam=lam, eta=etas[j])
        row[j] = multi_start_solve(spec, opts, _prefix=prefix, _warm=warm)
    return row

"""Sweep the (lam, eta) plane and compare solution signs against predictions.

Each machine-checkable statement becomes a TheoremPrediction.  Existentially
quantified statements (there exists delta > 0 ...) cannot bind individual grid
cells; they are emitted for the record and drive the measured quantities
delta_hat_mp / delta_hat_amp / eta_bounds instead.  Statements with explicit
parameter regions (the nonnegativity region below the principal eigenvalue,
and the no-nonnegative-solution region above it) bind cells: wherever their
hypotheses hold and the cell lies in the region, every observed sign class
must fall inside the claim, otherwise a counterexample record is emitted.

Coverage caveat: "any solution" claims are checked against the multi-start
solution set only; reports label coverage as "all found solutions", since
completeness of the solution set is undecidable here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bvp import ProblemSpec, SolveOptions, _anchor, _solve_row, classify_sign, multi_start_solve
from .critical import eta_star_bound, picone_polynomial_check
from .eigen import _principal, _principal_or_none, second_eigenvalue_1d
from .errors import InvalidConfig
from .functions import weight_values, weighted_power_integral

__all__ = [
    "TheoremPrediction",
    "RowRecord",
    "CellRecord",
    "RegionMap",
    "check_hypotheses",
    "sweep",
    "nonuniformity_experiment",
    "NonuniformityReport",
]

_NONNEGATIVE = frozenset({"positive", "nonneg_with_zeros", "zero"})
_NOT_NONNEGATIVE = frozenset({"negative", "nonpos_with_zeros", "sign_changing"})
_POSITIVE = frozenset({"positive"})
_NEGATIVE = frozenset({"negative"})

# relative guard band around the computed principal eigenvalue inside which
# binding regions stay silent (the eigenvalue itself is known to solver tol)
_LAM1_MARGIN = 1e-6
# on 2D sweeps, the sign class is also taken without the vertices within this
# fraction of the diameter of the boundary (interior-only claims)
_INTERIOR_MARGIN = 0.1


@dataclass
class TheoremPrediction:
    """A sign claim with its checked hypotheses.

    region(lam, eta) -> bool delimits where the claim binds; None marks an
    existentially quantified neighborhood (non-binding, measured instead).
    """

    id: str
    hypothesis_report: list
    claim: frozenset
    region: object = None
    conditional: bool = False
    interior_only: bool = False
    note: str = ""

    @property
    def applicable(self):
        return all(ok is not False for _, ok in self.hypothesis_report)


@dataclass
class RowRecord:
    strategy: str
    sign_class: str
    residual_norm: float
    sup_norm: float
    energy: float


@dataclass
class CellRecord:
    lam: float
    eta: float
    rows: list
    classes: list
    predicted: list
    consistent: object  # True / False / None for not-applicable
    n_failures: int
    # interior-only classification (boundary margin dropped); used by the
    # MP/AMP measurements on 2D meshes where corner behavior is not certified
    margin_classes: list | None = None
    # starts that converged from the neighbouring cell's solution, and starts
    # that fell back to the ladder (sweep)
    warm_starts: int = 0
    warm_fallbacks: int = 0


@dataclass
class RegionMap:
    lam_grid: list
    eta_grid: list
    cells: dict
    lam1: float
    lam2_bound: float
    p: float
    q: float
    delta_hat_mp: float = math.nan
    delta_hat_amp: float = math.nan
    eta_bounds: dict = field(default_factory=dict)
    predictions: list = field(default_factory=list)
    counterexamples: list = field(default_factory=list)

    def summary(self):
        return {
            "lam1": self.lam1,
            "lam2_bound": self.lam2_bound,
            "delta_hat_mp": self.delta_hat_mp,
            "delta_hat_amp": self.delta_hat_amp,
            "eta_bounds": {f"{lam:.17g}": h for lam, h in self.eta_bounds.items()},
            "counterexample_count": len(self.counterexamples),
            "warm_starts": sum(cell.warm_starts for cell in self.cells.values()),
            "warm_fallbacks": sum(cell.warm_fallbacks for cell in self.cells.values()),
            "counterexamples": self.counterexamples,
            "predictions": [
                {
                    "id": pr.id,
                    "hypotheses": [[name, ok] for name, ok in pr.hypothesis_report],
                    "claim": sorted(pr.claim),
                    "binding": pr.region is not None,
                    "conditional": pr.conditional,
                    "interior_only": pr.interior_only,
                    "note": pr.note,
                }
                for pr in self.predictions
            ],
        }


def _vanishing_strip_width(mesh, vals):
    """Largest rho with vals == 0 at every vertex closer than rho to the boundary."""
    dist = mesh.distance_to_boundary()
    nz = dist[vals != 0]
    if len(nz) == 0:
        return float(np.max(dist))
    rho = float(np.min(nz))
    return rho if rho > 0 else None


def check_hypotheses(template, lam1, phi1, eta_threshold_pos=None, eta_threshold_neg=None):
    """Evaluate machine-checkable hypotheses and emit predictions.

    eta_threshold_pos/neg(lam) give certified lower bounds for the critical
    perturbation sizes on each side of eta = 0 (None when unavailable); the
    nonnegativity region binds only below them.  Boundary-derivative
    statements depend on the boundary point property, which is not machine
    checkable, so those predictions are downgraded to interior claims.
    """
    mesh = template.mesh
    q = template.q
    a_vals = weight_values(template.a, mesh)
    f_vals = weight_values(template.f, mesh)
    m_vals = weight_values(template.m, mesh)

    f_nonneg = bool(np.all(f_vals >= 0))
    f_nontrivial = bool(np.any(f_vals != 0))
    a_nonneg = bool(np.all(a_vals >= 0))
    m_nonneg = bool(np.all(m_vals >= 0))
    if phi1 is not None:
        a_phi = weighted_power_integral(a_vals, phi1, q)
        f_phi = weighted_power_integral(f_vals, phi1, 1.0, signed=True)
    else:
        a_phi = math.nan
        f_phi = math.nan
    # the zero-pairing case is numerically a band around zero
    pairing_tol = 1e-10 * (1.0 + float(np.max(np.abs(a_vals))))
    a_phi_positive = a_phi > pairing_tol
    a_phi_zero = abs(a_phi) <= pairing_tol

    # source condition: certified by f >= 0, f not identically 0; otherwise
    # conditional when the eigenfunction pairing is positive
    f_condition = f_nonneg and f_nontrivial
    f_conditional = (not f_condition) and f_phi > 0

    phi_entry = ("boundary point property", None)  # never machine-checkable
    preds = []

    def f_entries():
        if f_condition:
            return [("f >= 0 and f nontrivial (certifies the source condition)", True)]
        if f_conditional:
            return [("source condition (only the eigenfunction pairing checked)", None)]
        return [("source condition", False)]

    # --- local MP: positive solutions just below lam1 for small eta <= 0
    preds.append(
        TheoremPrediction(
            id="thm0",
            hypothesis_report=[("int a phi1^q > 0", bool(a_phi_positive))] + f_entries() + [phi_entry],
            claim=_POSITIVE,
            conditional=f_conditional,
            interior_only=True,
        )
    )

    # --- local AMP: negative solutions just above lam1 for small eta >= 0
    if a_phi_positive or phi1 is None:
        pairing_entry = [("int a phi1^q > 0", bool(a_phi_positive))]
        note = ""
    elif a_phi_zero:
        poly = picone_polynomial_check(template.p, q)
        pairing_entry = [
            ("int a phi1^q = 0", True),
            ("polynomial condition for the generalized Picone route", bool(poly.holds)),
        ]
        note = ""
    else:
        pairing_entry = [("int a phi1^q > 0 after flipping a and eta", True)]
        note = "pairing negative: applies to (-a, -eta)"
    preds.append(
        TheoremPrediction(
            id="thm1",
            hypothesis_report=pairing_entry + f_entries() + [phi_entry],
            claim=_NEGATIVE,
            conditional=f_conditional,
            interior_only=True,
            note=note,
        )
    )

    # --- symmetric eta intervals without a pairing sign assumption
    preds.append(
        TheoremPrediction(
            id="thm-1",
            hypothesis_report=f_entries() + [phi_entry],
            claim=frozenset({"positive", "negative"}),
            conditional=f_conditional,
            interior_only=True,
            note="positive below lam1, negative above, for eta in a symmetric interval",
        )
    )

    # --- weighted variants: a vanishes on a boundary strip; the MP side needs
    # f >= 0 there, the AMP side f = 0, and either side alone suffices
    rho_a = _vanishing_strip_width(mesh, a_vals)
    if rho_a:
        dist = mesh.distance_to_boundary()
        strip = dist < rho_a
        f_nonneg_strip = bool(np.all(f_vals[strip] >= 0))
        f_zero_strip = bool(np.all(f_vals[strip] == 0))
        claim = set()
        if f_nonneg_strip:
            claim.add("positive")
        if f_zero_strip:
            claim.add("negative")
        strip_entries = [
            (f"a = 0 on the boundary strip (rho = {rho_a:.6g})", True),
            ("f >= 0 on the strip (MP side)", True if f_nonneg_strip else None),
            ("f = 0 on the strip (AMP side)", True if f_zero_strip else None),
            ("at least one strip side certified", bool(claim)),
        ]
        preds.append(
            TheoremPrediction(
                id="thm1-w",
                hypothesis_report=[("int a phi1^q > 0", bool(a_phi_positive))]
                + strip_entries
                + f_entries(),
                claim=frozenset(claim),
                conditional=f_conditional,
                note="no boundary regularity needed; strict sign in the whole domain",
            )
        )
        preds.append(
            TheoremPrediction(
                id="thm-1ww",
                hypothesis_report=list(strip_entries) + f_entries(),
                claim=frozenset(claim),
                conditional=f_conditional,
                note="symmetric eta interval variant of the strip result",
            )
        )

    # --- nonnegativity region below lam1 (binding); for m >= 0 it extends to
    # every lam < 0 as well
    if f_nonneg and math.isfinite(lam1):
        lo = lam1 * (1.0 - _LAM1_MARGIN)
        lam_floor = -math.inf if m_nonneg else 0.0

        def nonneg_region(lam, eta, _lo=lo, _floor=lam_floor):
            if not _floor <= lam <= _lo:
                return False
            if eta >= 0.0:
                bound = eta_threshold_pos(max(lam, 0.0)) if eta_threshold_pos else 0.0
                return eta < bound or eta == 0.0
            bound = eta_threshold_neg(max(lam, 0.0)) if eta_threshold_neg else 0.0
            return -eta < bound

        preds.append(
            TheoremPrediction(
                id="prop-noneg",
                hypothesis_report=[
                    ("f >= 0", True),
                    (
                        "eta inside the certified critical-value bounds",
                        True if (eta_threshold_pos or eta_threshold_neg) else None,
                    ),
                ],
                claim=_NONNEGATIVE,
                region=nonneg_region,
            )
        )

    # --- no nonnegative solutions above lam1 (binding)
    if a_nonneg and f_nonneg and f_nontrivial and math.isfinite(lam1):
        hi = lam1 * (1.0 + _LAM1_MARGIN)

        preds.append(
            TheoremPrediction(
                id="prop-nonex",
                hypothesis_report=[("a >= 0", True), ("f >= 0 and f nontrivial", True)],
                claim=_NOT_NONNEGATIVE,
                region=lambda lam, eta, _hi=hi: lam > _hi and eta >= 0.0,
            )
        )

    # --- interior AMP on compact subsets (weak assumptions, unquantified delta)
    preds.append(
        TheoremPrediction(
            id="cor-amp-loc",
            hypothesis_report=f_entries()
            + [("f >= 0 near the boundary (AMP side)", f_nonneg)],
            claim=frozenset({"positive", "negative"}),
            conditional=f_conditional,
            interior_only=True,
            note="sign asserted on compact subsets only (square corners allowed)",
        )
    )

    extra = []
    if m_nonneg:
        extra.append(("m >= 0 (nonnegativity extends to lam < 0)", True))
    for pr in preds:
        pr.hypothesis_report.extend(extra)
    # a prediction is emitted only when every machine-checkable hypothesis
    # passed; entries that are None mark not-machine-checkable conditions
    return [pr for pr in preds if pr.applicable]


def _eta_threshold_closures(template, lam1):
    """Certified per-lam lower bounds for the critical value on each eta side.

    (pos, neg): critical.eta_star_bound of a_+ and of a_-, each None where
    the bound does not apply.  A power weight with m's nodal values
    (m = a = 1, say) shares m's eigensolve.
    """
    mesh = template.mesh
    f_vals = weight_values(template.f, mesh)
    a_vals = weight_values(template.a, mesh)
    return tuple(
        eta_star_bound(mesh, f_vals, clamped, template.p, template.q, lam1)
        for clamped in (np.maximum(a_vals, 0.0), np.maximum(-a_vals, 0.0))
    )


def _all_in(classes, claim):
    return len(classes) > 0 and all(c in claim for c in classes)


def _last_of_run(items, holds):
    """The last item of the leading run of items for which holds(item) is true, None when the first fails.

    Stops at the first item that fails: holds is not called past it.
    """
    last = None
    for item in items:
        if not holds(item):
            break
        last = item
    return last


def sweep(template, lam_grid, eta_grid, opts=None):
    """Run multi-start solves over the grid and join them with predictions.

    template is a ProblemSpec whose lam/eta fields are ignored.  Cell solves
    that fail are recorded as rows with sign_class "failed", never fatal.
    opts is the SolveOptions of every cell's multi_start_solve.  Returns the
    RegionMap with the predictions and measured MP/AMP half-widths.
    (lam1, phi1) come from eigen._principal_or_none (lam1 = inf when it
    fails), as in every cell; a set opts.lam1 stands in for lam1.  The eta
    thresholds are critical.eta_star_bound's: where it does not apply (its
    power weight's eigensolve fails, say) prop-noneg binds at eta = 0 only.

    Each lam row is solved by bvp._solve_row, outward from the eta nearest
    0, with the eta-free rungs shared and warm starts from the neighbouring
    cell (see the bvp module docstring).  The anchor column and every start
    that falls back are bit-identical to solving the cell alone.  Each
    CellRecord counts the warm_starts and warm_fallbacks, and the summary
    their totals.  RegionMap.cells, and so the CSV, stay in grid order.
    """
    opts = opts or SolveOptions()
    mesh = template.mesh
    lam_grid = [float(v) for v in lam_grid]
    eta_grid = [float(v) for v in eta_grid]

    pair = _principal_or_none(mesh, template.m, template.p)
    phi1, lam1 = (None, math.inf) if pair is None else (pair.phi, pair.lam)
    if opts.lam1 is not None:
        lam1 = opts.lam1

    m_vals = weight_values(template.m, mesh)
    lam2_bound = math.inf
    if mesh.dimension == 1 and m_vals[0] > 0 and np.all(m_vals == m_vals[0]):
        lam2_bound = second_eigenvalue_1d(mesh.bounds[0], mesh.bounds[1], template.p) / float(m_vals[0])

    thr_pos, thr_neg = _eta_threshold_closures(template, lam1)
    predictions = check_hypotheses(template, lam1, phi1, thr_pos, thr_neg)
    binding = [pr for pr in predictions if pr.region is not None]

    cells = {}
    counterexamples = []
    for i, lam in enumerate(lam_grid):
        row = _solve_row(template, lam, eta_grid, opts)
        for j, eta in enumerate(eta_grid):
            ms = row[j]
            rows = []
            for strategy, out, err in ms.per_start:
                if out is None:
                    rows.append(RowRecord(strategy, "failed", math.nan, math.nan, math.nan))
                else:
                    rows.append(
                        RowRecord(strategy, out.sign_class, out.residual_norm, out.sup_norm, out.energy)
                    )
            classes = sorted({o.sign_class for o in ms.outcomes})
            margin_classes = None
            if mesh.dimension == 2:
                margin_classes = sorted({classify_sign(o.u, margin=_INTERIOR_MARGIN) for o in ms.outcomes})
            predicted = [pr.id for pr in binding if pr.region(lam, eta)]
            consistent = None
            if predicted:
                consistent = True
                for pr in binding:
                    if pr.region(lam, eta) and classes and not _all_in(classes, pr.claim):
                        consistent = False
                        counterexamples.append(
                            {
                                "lam": lam,
                                "eta": eta,
                                "prediction": pr.id,
                                "claim": sorted(pr.claim),
                                "observed": classes,
                                "strategies": [r.strategy for r in rows],
                                "coverage": "all found solutions",
                            }
                        )
            cells[(i, j)] = CellRecord(
                lam, eta, rows, classes, predicted, consistent, len(ms.failures), margin_classes,
                ms.warm_starts, ms.warm_fallbacks,
            )

    region_map = RegionMap(
        lam_grid=lam_grid,
        eta_grid=eta_grid,
        cells=cells,
        lam1=lam1,
        lam2_bound=lam2_bound,
        p=template.p,
        q=template.q,
        predictions=predictions,
        counterexamples=counterexamples,
    )
    _measure(region_map)
    return region_map


def _measure(region_map):
    """Fill delta_hat_mp, delta_hat_amp and the per-lam eta half-widths."""
    lam1 = region_map.lam1
    lams, etas = region_map.lam_grid, region_map.eta_grid
    if not math.isfinite(lam1) or not etas:
        return
    j0 = _anchor(etas)
    if abs(etas[j0]) > 1e-12:
        return  # no eta = 0 column to measure on

    def cell_all(i, j, claim):
        cell = region_map.cells[(i, j)]
        classes = cell.margin_classes if cell.margin_classes is not None else cell.classes
        return _all_in(classes, claim)

    below = [i for i, lam in enumerate(lams) if lam < lam1 * (1.0 - _LAM1_MARGIN)]
    run_start = _last_of_run(reversed(below), lambda i: cell_all(i, j0, _POSITIVE))
    region_map.delta_hat_mp = lam1 - lams[run_start] if run_start is not None else 0.0

    above = [i for i, lam in enumerate(lams) if lam > lam1 * (1.0 + _LAM1_MARGIN)]
    run_end = _last_of_run(above, lambda i: cell_all(i, j0, _NEGATIVE))
    region_map.delta_hat_amp = lams[run_end] - lam1 if run_end is not None else 0.0

    for i, lam in enumerate(lams):
        if lam < lam1 * (1.0 - _LAM1_MARGIN):
            claim = _POSITIVE
        elif lam > lam1 * (1.0 + _LAM1_MARGIN):
            claim = _NEGATIVE
        else:
            continue
        if not cell_all(i, j0, claim):
            region_map.eta_bounds[lam] = 0.0
            continue
        j_pos = _last_of_run(range(j0 + 1, len(etas)), lambda j: cell_all(i, j, claim))
        j_neg = _last_of_run(range(j0 - 1, -1, -1), lambda j: cell_all(i, j, claim))
        reach_pos = etas[j_pos] if j_pos is not None else 0.0
        reach_neg = -etas[j_neg] if j_neg is not None else 0.0
        region_map.eta_bounds[lam] = min(reach_pos, reach_neg)


@dataclass
class NonuniformityReport:
    lam1: float
    lam_probe: float
    members: list  # dicts with label, classes at the probe, classes at small eta, delta_hat

    @property
    def delta_hats(self):
        return [m["delta_hat"] for m in self.members]


def nonuniformity_experiment(
    mesh, p, q, m, a, eps_lambda, f_family, eta_small=0.05, n_lam=40, delta_span=None, opts=None
):
    """Probe how the AMP interval shrinks as the source concentrates.

    f_family is a list of (label, Weight) sources, ordered so that supports
    separate from the eigenfunction mass.  At lam = lam1 + eps_lambda each
    member's probes eta = 0 and eta_small are solved as one row by
    bvp._solve_row, like a sweep row: the eta_small cell warm-starts from
    the eta = 0 solutions.  Their sign classes and failed starts are
    recorded; for each member the AMP half-width delta_hat (largest
    contiguous all-negative lam prefix above lam1 at eta = 0) is measured on
    a shared lam grid, one lone multi-start solve per lam.  Requires a >= 0;
    raises InvalidConfig otherwise.
    """
    solve_opts = opts or SolveOptions()
    a_vals = weight_values(a, mesh)
    if np.any(a_vals < 0):
        raise InvalidConfig(f"a: must be >= 0 for the nonuniformity probe, min value {float(a_vals.min()):g}")
    lam1 = _principal(mesh, m, p).lam
    lam_probe = lam1 + eps_lambda
    span = delta_span if delta_span is not None else max(1.5 * eps_lambda, 0.1 * lam1)
    lam_scan = np.linspace(lam1 * (1.0 + 2e-3), lam1 + span, n_lam)

    members = []
    for label, f in f_family:
        spec = ProblemSpec(mesh, p, q, lam_probe, 0.0, m, a, f)
        entry = {"label": label, "failures": {}}
        probes = _solve_row(spec, lam_probe, [0.0, eta_small], solve_opts)
        for key, ms in zip(("classes_eta0", "classes_eta_small"), probes):
            entry[key] = sorted({o.sign_class for o in ms.outcomes})
            entry["failures"][key] = len(ms.failures)

        def all_negative(lam):
            ms = multi_start_solve(spec.replace(lam=lam), solve_opts)
            return _all_in({o.sign_class for o in ms.outcomes}, _NEGATIVE)

        reach = _last_of_run(map(float, lam_scan), all_negative)
        entry["delta_hat"] = reach - lam1 if reach is not None else 0.0
        members.append(entry)
    return NonuniformityReport(lam1=lam1, lam_probe=lam_probe, members=members)

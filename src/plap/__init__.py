"""Finite-element toolkit for sign properties of perturbed p-Laplacian problems.

Discretizes -Lap_p(u) = lam*m*|u|^{p-2}u + eta*a*|u|^{q-2}u + f with zero
Dirichlet data on intervals and rectangles, computes principal eigenpairs,
solves the problem by Newton continuation, evaluates the critical perturbation
size eta*, checks Picone inequalities, and maps maximum/antimaximum-principle
regions of the (lam, eta) plane.
"""

from .bvp import (
    MultiStartResult,
    ProblemSpec,
    SolveOptions,
    SolveOutcome,
    classify_sign,
    energy,
    energy_smoothed,
    jacobian,
    multi_start_solve,
    residual,
    solve,
)
from .critical import (
    EtaStarOptions,
    EtaStarResult,
    discrete_picone_check,
    eta_star,
    eta_star_lower_bound,
    eta_star_objective,
    picone_constant,
    picone_polynomial,
    picone_polynomial_check,
)
from .eigen import (
    EigenOptions,
    EigenPair,
    principal_eigenpair,
    principal_eigenpair_negative,
    second_eigenvalue_1d,
    subdomain_eigenvalue,
)
from .errors import (
    EmptyAdmissibleSet,
    EvalError,
    InvalidConfig,
    IoError,
    NonConvergence,
    ParseError,
    PlapError,
    ResonantParameter,
    SingularJacobian,
)
from .expr import eval_expr, format_expr, parse_expr
from .functions import (
    DiscreteFunction,
    Weight,
    grad_energy,
    negative_part,
    positive_part,
    sup_norm,
    weighted_power_integral,
)
from .mesh import Mesh, SubdomainMask, boundary_strip, build_interval, build_rectangle
from .regions import (
    NonuniformityReport,
    RegionMap,
    TheoremPrediction,
    check_hypotheses,
    nonuniformity_experiment,
    sweep,
)

__version__ = "0.1.0"

"""Solution census: no (lam, eta) cell may lose a solution it had.

Each cell lists the distinct solutions multi_start_solve finds there (start
family {zero, +-t*phi1}, n_random = 0) as (sign class, sup norm to 1e-6),
recorded before the Newton rung got its progress test.  A change to the
solver may find more solutions in a cell, never fewer.  A gained solution
must pass the residual check at newton_tol, is reported as a warning, and
belongs in CHANGES.md.

Grids: p = 3, q = 1.5, m = 1 throughout.
  * 1d-bump: n = 256 interval, a = 1, f = bump(0.9, 0.05), the eight cells
    where an energy line search lost the dead-core nonneg_with_zeros solution
    (eta = -0.5) and the small sign_changing one (eta = 0.2);
  * 1d-f1: n = 256, a = f = 1;
  * 1d-indefinite-a: n = 256, a = x - 0.3, f = 1;
  * 2d-f1: 24x24 unit square, a = f = 1, with the sign_changing cells at
    1.9 lam1.
"""

import warnings

import numpy as np
import pytest

from plap import ProblemSpec, SolveOptions, Weight, build_rectangle, multi_start_solve, principal_eigenpair
from plap.bvp import _NewtonDriver, residual

P, Q = 3.0, 1.5

WEIGHTS = {
    "1d-bump": ("1", "bump(0.9, 0.05)"),
    "1d-f1": ("1", "1"),
    "1d-indefinite-a": ("x - 0.3", "1"),
    "2d-f1": ("1", "1"),
}

# (grid, lam / lam1, eta) -> distinct solutions as (sign class, sup norm)
CENSUS = {
    ("1d-bump", 0.5, -0.5): [("nonneg_with_zeros", 0.010678)],
    ("1d-bump", 0.8, -0.5): [("nonneg_with_zeros", 0.010709)],
    ("1d-bump", 0.95, -0.5): [("nonneg_with_zeros", 0.010724)],
    ("1d-bump", 0.8, 0.2): [("positive", 0.14801), ("sign_changing", 0.017488)],
    ("1d-bump", 0.95, 0.2): [("positive", 0.364311), ("sign_changing", 0.017589)],
    ("1d-bump", 1.05, -0.5): [("nonneg_with_zeros", 0.010734)],
    ("1d-bump", 1.2, -0.5): [("negative", 0.260294), ("nonneg_with_zeros", 0.010748)],
    ("1d-bump", 1.9, -0.5): [("negative", 0.099885), ("nonneg_with_zeros", 0.01085)],
    ("1d-f1", 0.8, 0.0): [("positive", 0.543517)],
    ("1d-f1", 1.05, -0.5): [("negative", 1.337797)],
    ("1d-f1", 1.9, 0.2): [("negative", 0.257242)],
    ("1d-indefinite-a", 1.9, -0.5): [("negative", 0.273741)],
    ("2d-f1", 0.8, 0.0): [("positive", 0.46162)],
    ("2d-f1", 1.05, 0.0): [("negative", 0.955829)],
    ("2d-f1", 1.9, 0.0): [("sign_changing", 0.258196)],
    ("2d-f1", 1.9, 0.2): [("sign_changing", 0.25108)],
}

SUP_TOL = 1e-6


def _weight(src):
    return Weight.constant(1.0) if src == "1" else Weight.expression(src)


@pytest.fixture(scope="module")
def square_24():
    return build_rectangle(0.0, 1.0, 0.0, 1.0, 24, 24)


@pytest.fixture(scope="module")
def pair_p3_square_24(square_24):
    return principal_eigenpair(square_24, Weight.constant(1.0), P)


def _match(recorded, found):
    """(lost, gained): recorded entries with no found match, found entries left over."""
    left = list(found)
    lost = []
    for cls, sup in recorded:
        hit = next((k for k, (c, s) in enumerate(left) if c == cls and abs(s - sup) <= SUP_TOL), None)
        if hit is None:
            lost.append((cls, sup))
        else:
            left.pop(hit)
    return lost, left


@pytest.mark.parametrize("cell", sorted(CENSUS), ids=lambda c: f"{c[0]}-lam{c[1]}-eta{c[2]}")
def test_cell_keeps_its_solutions(cell, interval_256, pair_p3_256, square_24, pair_p3_square_24):
    grid, lam_frac, eta = cell
    mesh, pair = (square_24, pair_p3_square_24) if grid.startswith("2d") else (interval_256, pair_p3_256)
    a_src, f_src = WEIGHTS[grid]
    one = Weight.constant(1.0)
    spec = ProblemSpec(mesh, P, Q, lam_frac * pair.lam, eta, one, _weight(a_src), _weight(f_src))
    opts = SolveOptions(n_random=0, lam1=pair.lam)
    ms = multi_start_solve(spec, opts, phi1=pair.phi)
    found = [(o.sign_class, o.sup_norm) for o in ms.outcomes]
    lost, gained = _match(CENSUS[cell], found)
    report = [f"lost {cell} {c} {s:.6f}" for c, s in lost]
    report += [f"gained {cell} {c} {s:.6f}" for c, s in gained]
    assert not lost, "\n".join(report)
    driver = _NewtonDriver(spec)
    free = mesh.interior_vertices
    for out in ms.outcomes:
        if (out.sign_class, out.sup_norm) not in gained:
            continue
        norm = float(np.linalg.norm(residual(spec, out.u)))
        goal = opts.newton_tol * driver._scale(out.u.values[free], spec.lam, spec.eta)
        assert norm <= goal, f"gained {cell} {out.sign_class} {out.sup_norm:.6f}: residual {norm:.3e} > {goal:.3e}"
        warnings.warn(f"census gained {cell} {out.sign_class} {out.sup_norm:.6f}", stacklevel=1)

"""Solution census along sweep rows: no census cell may lose a solution in a sweep.

test_census.py solves each cell alone.  A sweep solves each lam row outward
from its eta = 0 column, and each start of a later cell first runs one rung
from its solution in the neighbouring cell (regions._solve_row).  Here each
census grid's rows are swept over eta in {-0.5, 0, 0.2} with the census
options (n_random = 0, lam1 given).  Every census cell must keep its recorded
solutions; a gained solution must pass the residual check at newton_tol and
is reported as a warning, as in the census.
"""

import warnings

import numpy as np
import pytest

import plap.regions as regions
from plap import ProblemSpec, SolveOptions, Weight, build_rectangle, principal_eigenpair, sweep
from plap.bvp import _NewtonDriver, residual
from test_census import CENSUS, P, Q, WEIGHTS, _match, _weight

ETAS = (-0.5, 0.0, 0.2)


@pytest.fixture(scope="module")
def square_24():
    return build_rectangle(0.0, 1.0, 0.0, 1.0, 24, 24)


@pytest.mark.parametrize("grid", sorted(WEIGHTS))
def test_swept_rows_keep_the_census_solutions(grid, interval_256, pair_p3_256, square_24, monkeypatch):
    one = Weight.constant(1.0)
    mesh = square_24 if grid.startswith("2d") else interval_256
    lam1 = principal_eigenpair(square_24, one, P).lam if grid.startswith("2d") else pair_p3_256.lam
    cells = {}  # (lam, eta) -> (spec, result) of every cell the sweep solves
    inner = regions.multi_start_solve

    def spy(spec, opts=None, **kw):
        ms = inner(spec, opts, **kw)
        cells[(spec.lam, spec.eta)] = (spec, ms)
        return ms

    monkeypatch.setattr(regions, "multi_start_solve", spy)
    a_src, f_src = WEIGHTS[grid]
    census = {(frac, eta): recorded for (g, frac, eta), recorded in CENSUS.items() if g == grid}
    fracs = sorted({frac for frac, _ in census})
    opts = SolveOptions(n_random=0, lam1=lam1)
    sweep(ProblemSpec(mesh, P, Q, 0.0, 0.0, one, _weight(a_src), _weight(f_src)), [f * lam1 for f in fracs], ETAS, opts)
    assert len(cells) == len(fracs) * len(ETAS)
    free = mesh.interior_vertices
    for (frac, eta), recorded in sorted(census.items()):
        cell = (grid, frac, eta)
        spec, ms = cells[(frac * lam1, eta)]
        lost, gained = _match(recorded, [(o.sign_class, o.sup_norm) for o in ms.outcomes])
        report = [f"lost {cell} {c} {s:.6f}" for c, s in lost]
        report += [f"gained {cell} {c} {s:.6f}" for c, s in gained]
        assert not lost, "\n".join(report)
        driver = _NewtonDriver(spec)
        for out in ms.outcomes:
            if (out.sign_class, out.sup_norm) not in gained:
                continue
            norm = float(np.linalg.norm(residual(spec, out.u)))
            goal = opts.newton_tol * driver._scale(out.u.values[free], spec.lam, spec.eta)
            assert norm <= goal, f"gained {cell} {out.sign_class} {out.sup_norm:.6f}: residual {norm:.3e} > {goal:.3e}"
            warnings.warn(f"census sweep gained {cell} {out.sign_class} {out.sup_norm:.6f}", stacklevel=1)

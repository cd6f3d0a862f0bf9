"""Solution census along sweep rows: no census cell may lose a solution in a sweep.

test_census.py solves each cell alone.  A sweep solves each lam row outward
from its eta = 0 column, and each start of a later cell first runs one rung
from its solution in the neighbouring cell (regions._solve_row).  Here each
census grid's rows are swept over eta in {-0.5, 0, 0.2} with the census
options (n_random = 0, lam1 given).  Every census cell must keep its recorded
solutions; a gained solution must pass the residual check at newton_tol and
is reported as a warning, as in the census.

The whole-sweep census holds every cell of the two 9x5 default-style sweeps
(p = 3, q = 1.5, m = a = f = 1, n_random = 0): the n = 256 interval and the
24x24 unit square, lam = linspace(0, 2 lam1, 9) and eta =
linspace(-eta_bar, eta_bar, 5), eta_bar the eta* at lam1 / 2 (seed 7), as
the CLI places them when both grids are omitted.  The grids are stored as the
floats they came to, and each cell's solutions were recorded before the
Operator's storage pattern was rebuilt from one sort.  The cells at lam1,
eta = 0 are resonant and have none.
"""

import warnings

import numpy as np
import pytest

import plap.regions as regions
from plap import ProblemSpec, SolveOptions, Weight, build_rectangle, principal_eigenpair, sweep
from plap.bvp import _NewtonDriver, residual
from test_census import CENSUS, P, Q, WEIGHTS, _match, _weight

ETAS = (-0.5, 0.0, 0.2)

# grid -> (lam grid, eta grid, solutions): solutions[i][j] lists cell (lam[i], eta[j])'s as (sign class, sup norm)
WHOLE_SWEEPS = {
    "1d": (
        (
            0.0, 7.072025606869467, 14.144051213738933, 21.2160768206084, 28.288102427477867,
            35.36012803434733, 42.4321536412168, 49.50417924808627, 56.57620485495573,
        ),
        (-3.5474346817526876, -1.7737173408763438, 0.0, 1.773717340876344, 3.5474346817526876),
        (
            (
                [("positive", 0.074942)],
                [("positive", 0.147443)],
                [("positive", 0.235717)],
                [("positive", 0.324007)],
                [("positive", 0.407754)],
            ),
            (
                [("positive", 0.079611)],
                [("positive", 0.165547)],
                [("positive", 0.274741)],
                [("positive", 0.38444)],
                [("positive", 0.488093)],
            ),
            (
                [("positive", 0.085386)],
                [("positive", 0.192785)],
                [("positive", 0.339725)],
                [("positive", 0.488454)],
                [("positive", 0.628108)],
            ),
            (
                [("positive", 0.092857)],
                [("positive", 0.242819)],
                [("positive", 0.485173)],
                [("positive", 0.734684)],
                [("positive", 0.96596)],
            ),
            (
                [("positive", 0.103282)],
                [("positive", 0.447782)],
                [],
                [("negative", 0.453407)],
                [("negative", 0.127877)],
            ),
            (
                [("negative", 0.979185), ("positive", 0.12027)],
                [("negative", 0.745928)],
                [("negative", 0.495092)],
                [("negative", 0.254901)],
                [("sign_changing", 0.124539)],
            ),
            (
                [("negative", 0.64588), ("positive", 0.180848)],
                [("negative", 0.503952)],
                [("negative", 0.353759)],
                [("negative", 0.208742)],
                [("sign_changing", 0.122896)],
            ),
            (
                [("negative", 0.509278)],
                [("negative", 0.403176)],
                [("negative", 0.291942)],
                [("negative", 0.184646)],
                [("sign_changing", 0.121507)],
            ),
            (
                [("negative", 0.431777)],
                [("negative", 0.345459)],
                [("negative", 0.255602)],
                [("negative", 0.169342)],
                [("sign_changing", 0.120384)],
            ),
        ),
    ),
    "2d": (
        (
            0.0, 15.67185243617933, 31.34370487235866, 47.01555730853799, 62.68740974471732,
            78.35926218089665, 94.03111461707599, 109.7029670532553, 125.37481948943464,
        ),
        (-4.484235875016218, -2.242117937508109, 0.0, 2.242117937508109, 4.484235875016218),
        (
            (
                [("positive", 0.049498)],
                [("positive", 0.11159)],
                [("positive", 0.186524)],
                [("positive", 0.26016)],
                [("positive", 0.329423)],
            ),
            (
                [("positive", 0.053411)],
                [("positive", 0.128392)],
                [("positive", 0.221995)],
                [("positive", 0.314411)],
                [("positive", 0.401102)],
            ),
            (
                [("positive", 0.058436)],
                [("positive", 0.153623)],
                [("positive", 0.280605)],
                [("positive", 0.407092)],
                [("positive", 0.525197)],
            ),
            (
                [("positive", 0.06512)],
                [("positive", 0.199541)],
                [("positive", 0.410108)],
                [("positive", 0.624156)],
                [("positive", 0.821916)],
            ),
            (
                [("positive", 0.074599)],
                [("positive", 0.383225)],
                [],
                [("negative", 0.400529)],
                [("sign_changing", 0.162133)],
            ),
            (
                [("negative", 0.862244), ("positive", 0.090036)],
                [("negative", 0.658301)],
                [("negative", 0.440128)],
                [("sign_changing", 0.239509)],
                [("sign_changing", 0.159663)],
            ),
            (
                [("negative", 0.579332), ("positive", 0.136427)],
                [("negative", 0.454257)],
                [("sign_changing", 0.32387)],
                [("sign_changing", 0.208552)],
                [("sign_changing", 0.16047)],
            ),
            (
                [("sign_changing", 0.465642)],
                [("sign_changing", 0.371674)],
                [("sign_changing", 0.275781)],
                [("sign_changing", 0.194477), ("sign_changing", 0.194501)],
                [("sign_changing", 0.16216)],
            ),
            (
                [("sign_changing", 0.402491)],
                [("sign_changing", 0.325772)],
                [("sign_changing", 0.24903)],
                [("sign_changing", 0.18651)],
                [("sign_changing", 0.163429)],
            ),
        ),
    ),
}


@pytest.fixture(scope="module")
def square_24():
    return build_rectangle(0.0, 1.0, 0.0, 1.0, 24, 24)


@pytest.mark.parametrize("grid", sorted(WEIGHTS))
def test_swept_rows_keep_the_census_solutions(grid, interval_256, pair_p3_256, square_24, monkeypatch):
    one = Weight.constant(1.0)
    mesh = square_24 if grid.startswith("2d") else interval_256
    lam1 = principal_eigenpair(square_24, one, P).lam if grid.startswith("2d") else pair_p3_256.lam
    cells = _spy_cells(monkeypatch)
    a_src, f_src = WEIGHTS[grid]
    census = {(frac, eta): recorded for (g, frac, eta), recorded in CENSUS.items() if g == grid}
    fracs = sorted({frac for frac, _ in census})
    opts = SolveOptions(n_random=0, lam1=lam1)
    sweep(ProblemSpec(mesh, P, Q, 0.0, 0.0, one, _weight(a_src), _weight(f_src)), [f * lam1 for f in fracs], ETAS, opts)
    assert len(cells) == len(fracs) * len(ETAS)
    for (frac, eta), recorded in sorted(census.items()):
        _check_cell((grid, frac, eta), recorded, *cells[(frac * lam1, eta)], opts)


@pytest.mark.parametrize("grid", sorted(WHOLE_SWEEPS))
def test_whole_default_sweep_keeps_its_census(grid, interval_256, square_24, monkeypatch):
    one = Weight.constant(1.0)
    mesh = square_24 if grid == "2d" else interval_256
    lams, etas, solutions = WHOLE_SWEEPS[grid]
    cells = _spy_cells(monkeypatch)
    opts = SolveOptions(seed=7, n_random=0)
    sweep(ProblemSpec(mesh, P, Q, 0.0, 0.0, one, one, one), list(lams), list(etas), opts)
    assert len(cells) == len(lams) * len(etas)
    for i, lam in enumerate(lams):
        for j, eta in enumerate(etas):
            _check_cell((grid, i, j), solutions[i][j], *cells[(lam, eta)], opts)


def _spy_cells(monkeypatch):
    """(lam, eta) -> (spec, result) of every cell a sweep solves from here on."""
    cells = {}
    inner = regions.multi_start_solve

    def spy(spec, opts=None, **kw):
        ms = inner(spec, opts, **kw)
        cells[(spec.lam, spec.eta)] = (spec, ms)
        return ms

    monkeypatch.setattr(regions, "multi_start_solve", spy)
    return cells


def _check_cell(cell, recorded, spec, ms, opts):
    """The census rule: no recorded solution lost; each gained one passes the residual check and warns."""
    lost, gained = _match(recorded, [(o.sign_class, o.sup_norm) for o in ms.outcomes])
    report = [f"lost {cell} {c} {s:.6f}" for c, s in lost]
    report += [f"gained {cell} {c} {s:.6f}" for c, s in gained]
    assert not lost, "\n".join(report)
    driver = _NewtonDriver(spec)
    free = spec.mesh.interior_vertices
    for out in ms.outcomes:
        if (out.sign_class, out.sup_norm) not in gained:
            continue
        norm = float(np.linalg.norm(residual(spec, out.u)))
        goal = opts.newton_tol * driver._scale(out.u.values[free], spec.lam, spec.eta)
        assert norm <= goal, f"gained {cell} {out.sign_class} {out.sup_norm:.6f}: residual {norm:.3e} > {goal:.3e}"
        warnings.warn(f"census sweep gained {cell} {out.sign_class} {out.sup_norm:.6f}", stacklevel=1)

"""fem.newton, the one damped-Newton loop, against the BVP rung loop it replaced.

_reference_rung is the loop bvp._NewtonDriver.newton ran before the loop
moved to fem.newton, kept verbatim as the reference.  Every rung of the
solves below runs through both, from the same values, and must return the
same (reason, iterations, norm) and the same nodal values bit for bit.  The
solves are census cells (tests/test_census.py: p = 3, q = 1.5, m = 1) from
starts whose rungs end in every reason a census rung reaches: converged,
stalled, max_newton, and line_search once newton_tol sits below roundoff.
"""

import numpy as np
import pytest

from plap import NonConvergence, ProblemSpec, SolveOptions, Weight, build_rectangle, fem, principal_eigenpair, solve
from plap.bvp import STALL_DECREASE, _NewtonDriver
from plap.errors import SingularJacobian

P, Q = 3.0, 1.5


def _reference_rung(driver, values, lam, eta, eps_g, eps_s, tol, max_iter):
    free = driver.free
    res = driver.residual(lam, eta, eps_g, eps_s)
    s = values[free]
    r = res(values, s)
    rn = float(np.linalg.norm(r))
    goal = tol * driver._scale(s, lam, eta)
    trial = values.copy()
    for it in range(max_iter):
        if rn <= goal:
            return "converged", it, rn
        J = driver.jacobian(values, lam, eta, eps_g, eps_s)
        try:
            step = fem.solve_sparse(driver.op, J, -r)
        except SingularJacobian:
            return "singular", it, rn
        merit0 = rn * rn
        t = 1.0
        while t > 1e-10:
            s_trial = s + t * step
            trial[free] = s_trial
            r_trial = res(trial, s_trial)
            merit = float(np.dot(r_trial, r_trial))
            if merit <= (1.0 - 2e-4 * t) * merit0:
                break
            t *= 0.5
        else:
            return "line_search", it + 1, rn
        if merit > (1.0 - STALL_DECREASE) * merit0:
            return "stalled", it + 1, rn
        values[free] = s = s_trial
        r, rn = r_trial, float(np.linalg.norm(r_trial))
        goal = tol * driver._scale(s, lam, eta)
    return ("converged" if rn <= goal else "max_newton"), max_iter, rn


# (grid, lam / lam1, eta, a, f, start as a multiple of phi1 or "zero", newton_tol)
CASES = [
    ("1d", 0.8, 0.0, "1", "1", -2.0, 1e-10),  # stalled rungs near u = 0
    ("1d", 0.8, 0.0, "1", "1", "zero", 1e-14),  # line_search on the final rung
    ("1d", 1.9, -0.5, "1", "bump(0.9, 0.05)", 0.5, 1e-10),  # max_newton
    ("1d", 1.9, -0.5, "x - 0.3", "1", 1.0, 1e-10),
    ("2d", 1.9, 0.2, "1", "1", 1.0, 1e-10),  # stalled rungs on the square
    ("2d", 0.8, 0.0, "1", "1", "zero", 1e-15),  # line_search on the square
]


@pytest.fixture(scope="module")
def square_24():
    return build_rectangle(0.0, 1.0, 0.0, 1.0, 24, 24)


def _weight(src):
    return Weight.constant(1.0) if src == "1" else Weight.expression(src)


def test_fem_newton_matches_the_reference_rung_loop(interval_256, pair_p3_256, square_24, monkeypatch):
    one = Weight.constant(1.0)
    pairs = {"1d": (interval_256, pair_p3_256), "2d": (square_24, principal_eigenpair(square_24, one, P))}
    rung = _NewtonDriver.newton
    reasons = []

    def both(driver, values, *args):
        expected_values = values.copy()
        expected = _reference_rung(driver, expected_values, *args)
        got = rung(driver, values, *args)
        assert got == expected, args
        assert values.tobytes() == expected_values.tobytes(), args
        reasons.append(got[0])
        return got

    monkeypatch.setattr(_NewtonDriver, "newton", both)
    for grid, lam_frac, eta, a_src, f_src, start, tol in CASES:
        mesh, pair = pairs[grid]
        spec = ProblemSpec(mesh, P, Q, lam_frac * pair.lam, eta, one, _weight(a_src), _weight(f_src))
        init = "zero" if start == "zero" else start * pair.phi.values
        try:
            solve(spec, init, SolveOptions(newton_tol=tol, lam1=pair.lam))
        except NonConvergence:
            pass
    assert {"converged", "stalled", "line_search", "max_newton"} <= set(reasons)

"""fem.newton, whose line search evaluates its trials in chunks, against serial loops.

_reference_rung is the loop bvp._NewtonDriver.newton ran before the loop
moved to fem.newton, kept verbatim as the reference: it builds the rung's
residual, Jacobian, goal and stall test from the driver itself.  Every rung
of the census solves runs through both, from the same values, and must
return the same (reason, iterations, norm) and the same nodal values bit for
bit.

_serial_newton is the loop fem.newton ran before its line search evaluated
trials in chunks: one residual call per trial, t = 1, 1/2, 1/4, ..., with
the caller's residual, Jacobian and goal passed in.  _checked stands in for
fem.newton with _Both, which runs the serial loop on a copy of the values
and fem.newton on the values themselves and keeps each call's trials per
search (serial) and rows per residual call (chunked); it also checks each
BVP rung against _reference_rung.  The eigensolver's inner solve, which has
no BVP rung, is checked against _serial_newton alone.

The solves are census cells (tests/test_census.py: p = 3, q = 1.5, m = 1)
from starts whose rungs end in every reason fem.newton names, the
eigensolver's inner solve, and random small problems.
"""

import contextlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plap import (
    NonConvergence,
    ProblemSpec,
    SolveOptions,
    Weight,
    build_interval,
    build_rectangle,
    fem,
    principal_eigenpair,
    solve,
)
from plap.bvp import STALL_DECREASE, _NewtonDriver
from plap.errors import PlapError, SingularJacobian

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


def _serial_newton(values, free, res, jac, op, goal, max_iter, stall):
    s = values[free]
    r = res(values, s)
    rn = float(np.linalg.norm(r))
    tol = goal(s)
    trial = values.copy()
    for it in range(max_iter):
        if rn <= tol:
            return "converged", it, rn
        J = jac(values)
        try:
            step = fem.solve_sparse(op, J, -r)
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
        if merit > (1.0 - stall) * merit0:
            return "stalled", it + 1, rn
        values[free] = s = s_trial
        r, rn = r_trial, float(np.linalg.norm(r_trial))
        tol = goal(s)
    return ("converged" if rn <= tol else "max_newton"), max_iter, rn


def _searches(events):
    """Residual rows per search from a call's events: "J" per Jacobian, rows per residual call."""
    searches = []
    for event in events[1:]:  # the first residual call is the starting iterate's
        if event == "J":
            searches.append([])
        else:
            searches[-1].append(event)
    return searches


class _Both:
    """fem.newton checked against _serial_newton on every call; keeps each call's record.

    rungs holds (outcome, trials per serial search, rows per chunked residual
    call grouped by search), one entry per call.
    """

    def __init__(self):
        self.rungs = []
        self._chunked = fem.newton

    def __call__(self, values, free, res, jac, op, goal, max_iter, stall):
        logs = [], []

        def logged(log):
            def res_logged(vals, s):
                log.append(1 if vals.ndim == 1 else len(vals))
                return res(vals, s)

            def jac_logged(vals):
                log.append("J")
                return jac(vals)

            return res_logged, jac_logged

        expected_values = values.copy()
        expected = _serial_newton(expected_values, free, *logged(logs[0]), op, goal, max_iter, stall)
        got = self._chunked(values, free, *logged(logs[1]), op, goal, max_iter, stall)
        assert got == expected
        assert values.tobytes() == expected_values.tobytes()
        serial = [sum(search) for search in _searches(logs[0])]
        self.rungs.append((got, serial, _searches(logs[1])))
        return got


def _against_reference(rung):
    """rung, checked against _reference_rung from a copy of the same values."""

    def checked(driver, values, *args):
        expected_values = values.copy()
        expected = _reference_rung(driver, expected_values, *args)
        got = rung(driver, values, *args)
        assert got == expected, args
        assert values.tobytes() == expected_values.tobytes(), args
        return got

    return checked


@contextlib.contextmanager
def _checked():
    """fem.newton against _serial_newton, and every BVP rung against _reference_rung."""
    check = _Both()
    newton, rung = fem.newton, _NewtonDriver.newton
    fem.newton, _NewtonDriver.newton = check, _against_reference(rung)
    try:
        yield check
    finally:
        fem.newton, _NewtonDriver.newton = newton, rung


@pytest.fixture()
def both():
    with _checked() as check:
        yield check


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


@pytest.fixture(scope="module")
def pairs(interval_256, pair_p3_256, square_24):
    return {"1d": (interval_256, pair_p3_256), "2d": (square_24, principal_eigenpair(square_24, Weight.constant(1.0), P))}


def _weight(src):
    return Weight.constant(1.0) if src == "1" else Weight.expression(src)


def _solve_case(pairs, grid, lam_frac, eta, a_src, f_src, start, tol):
    mesh, pair = pairs[grid]
    one = Weight.constant(1.0)
    spec = ProblemSpec(mesh, P, Q, lam_frac * pair.lam, eta, one, _weight(a_src), _weight(f_src))
    init = "zero" if start == "zero" else start * pair.phi.values
    try:
        solve(spec, init, SolveOptions(newton_tol=tol, lam1=pair.lam))
    except NonConvergence:
        pass


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


def test_deep_backtracking_rung_is_the_serial_one(pairs, both):
    _solve_case(pairs, "1d", 0.8, 0.2, "1", "1", -2.0, 1e-10)
    deep = [(serial, chunks) for (_, iters, _), serial, chunks in both.rungs if iters == 58]
    assert len(deep) == 1
    serial, chunks = deep[0]
    assert sum(serial) == 690  # 691 residual evaluations with the starting iterate's
    # 79 residual calls evaluate every serial trial, and 110 rows past accepted ones
    assert sum(len(search) for search in chunks) == 79
    assert sum(map(sum, chunks)) == 800


def test_line_search_floor_inside_a_chunk(pairs, both):
    _solve_case(pairs, "2d", 0.8, 0.0, "1", "1", "zero", 1e-15)
    ends = [chunks[-1] for (reason, _, _), _, chunks in both.rungs if reason == "line_search"]
    assert ends
    last = ends[-1]
    # 34 step sizes, 1 .. 2^-33, lie above the floor; the last chunk is cut short by it
    assert sum(last) == 34 and last[-1] < last[0]


def test_stalled_rung_passes_mid_chunk(pairs, both):
    _solve_case(pairs, "1d", 0.8, 0.2, "1", "1", -2.0, 1e-10)
    mid = [
        (serial[-1], chunks[-1])
        for (reason, _, _), serial, chunks in both.rungs
        if reason == "stalled" and len(chunks[-1]) > 1 and sum(chunks[-1]) > serial[-1]
    ]
    assert mid  # the passing trial is not the last row of its chunk


def test_singular_rung(interval_256, both):
    one = Weight.constant(1.0)
    driver = _NewtonDriver(ProblemSpec(interval_256, P, Q, 0.0, 0.0, one, one, one))
    # at eps_g = 0 the p = 3 Jacobian vanishes where grad u = 0, and lam = 0 adds no diagonal
    outcome = driver.newton(np.zeros(interval_256.n_vertices), 0.0, 0.0, 0.0, 1e-9, 1e-10, 60)
    assert outcome[:2] == ("singular", 0) and outcome == both.rungs[-1][0]


# at p = 10 every inner step is a full one; at p = 1.5 some searches take stacks
@pytest.mark.parametrize("p, n, stacked", [(10.0, 64, False), (1.5, 256, True)])
def test_eigen_inner_solve_matches_the_serial_loop(p, n, stacked, both):
    principal_eigenpair(build_interval(0.0, 1.0, n), Weight.constant(1.0), p)
    assert both.rungs
    assert any(max(search) > 1 for _, _, chunks in both.rungs for search in chunks) == stacked


_MESHES = {n: build_interval(0.0, 1.0, n) for n in (8, 16, 33, 64)}
_MESHES["5x5"] = build_rectangle(0.0, 1.0, 0.0, 1.0, 5, 5)


@settings(max_examples=40, deadline=None)
@given(
    mesh_key=st.sampled_from(sorted(_MESHES, key=str)),
    p=st.sampled_from([1.5, 3.0, 4.0]),
    lam=st.floats(min_value=-10.0, max_value=60.0),
    eta=st.floats(min_value=-1.0, max_value=1.0),
    modes=st.lists(st.tuples(st.integers(1, 3), st.floats(min_value=-2.0, max_value=2.0)), min_size=1, max_size=3),
)
def test_chunked_search_is_the_serial_search(mesh_key, p, lam, eta, modes):
    mesh = _MESHES[mesh_key]
    x = mesh.vertices
    start = np.zeros(mesh.n_vertices)
    for k, amplitude in modes:
        start += amplitude * np.prod(np.sin(k * math.pi * x), axis=1)
    one = Weight.constant(1.0)
    with _checked() as check:
        try:
            solve(ProblemSpec(mesh, p, (1.0 + p) / 2, lam, eta, one, one, one), start, SolveOptions(max_newton=30))
        except PlapError:
            pass
    assert check.rungs

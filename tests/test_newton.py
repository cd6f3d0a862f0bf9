"""fem.newton, whose line search evaluates its trials in chunks, against serial loops.

_reference_rung is the loop bvp._NewtonDriver.newton ran before the loop
moved to fem.newton, kept verbatim as the reference: it builds the rung's
residual, Jacobian, goal and stall test from the driver itself.  It is the
reference for every rung without the energy rescue: rungs above lam1, and
every rung of a solve that does not know lam1.  _reference_rescued_rung is
the reference for the rungs below lam1: the same loop, plus an energy step
where the ||r||^2 search would end the rung, on the energy of
tests/oracles.py (regularized_energy), not the one fem builds.  Every rung of
the census solves runs through the driver and its reference, from the same
values, and must return the same (reason, iterations, norm) and the same
nodal values bit for bit.

_serial_newton is the loop fem.newton ran before its line search evaluated
trials in chunks: one residual call per trial, t = 1, 1/2, 1/4, ..., with
the caller's residual, Jacobian, goal and energy passed in.  _checked stands
in for fem.newton with _Both, which runs the serial loop on a copy of the
values and fem.newton on the values themselves and keeps each call's trials
per search (serial) and rows per residual call (chunked); it also checks
each BVP rung against its reference.  The eigensolver's inner solve, which
has no BVP rung, is checked against _serial_newton alone.

The solves are census cells (tests/test_census.py: p = 3, q = 1.5, m = 1)
from starts whose rungs end in every reason fem.newton names, the
eigensolver's inner solve, and random small problems.  The rungs the energy
rescue leaves alone are also pinned to the outcomes recorded before it
existed.
"""

import contextlib
import hashlib
import math

import numpy as np
import oracles
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


def _serial_rescue(energy, values, trial, free, s, r, step):
    """s + t * step for the first t = 1, 1/2, ... passing Armijo on energy (a function of nodal values), or None."""
    slope = float(np.dot(r, step))
    if not slope < 0.0:
        return None
    e0 = energy(values)
    noise = len(s) * np.finfo(float).eps * abs(e0)  # below this a decrease is E's roundoff
    t = 1.0
    while t > 1e-10 and -1e-4 * t * slope > noise:
        s_trial = s + t * step
        trial[free] = s_trial
        e = energy(trial)
        if math.isfinite(e) and e <= e0 + 1e-4 * t * slope:
            return s_trial
        t *= 0.5
    return None


def _oracle_energy(driver, lam, eta, eps_g, eps_s):
    """The rung's regularized energy from tests/oracles.py, as a function of nodal values."""
    spec = driver.spec
    terms = [(lam * driver.m_vals, spec.p)]
    if eta != 0.0:
        terms.append((eta * driver.a_vals, spec.q))
    mesh = spec.mesh

    def energy(values):
        return oracles.regularized_energy(
            mesh.vertices, mesh.cells, driver.free, values, spec.p, eps_g, eps_s, terms, driver.f_vals
        )

    return energy


def _reference_rescued_rung(driver, values, lam, eta, eps_g, eps_s, tol, max_iter):
    free = driver.free
    res = driver.residual(lam, eta, eps_g, eps_s)
    energy = _oracle_energy(driver, lam, eta, eps_g, eps_s)
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
        ended = "line_search"
        while t > 1e-10:
            s_trial = s + t * step
            trial[free] = s_trial
            r_trial = res(trial, s_trial)
            merit = float(np.dot(r_trial, r_trial))
            if merit <= (1.0 - 2e-4 * t) * merit0:
                ended = "stalled" if merit > (1.0 - STALL_DECREASE) * merit0 else None
                break
            t *= 0.5
        if ended:
            s_trial = _serial_rescue(energy, values, trial, free, s, r, step)
            if s_trial is None:
                return ended, it + 1, rn
            trial[free] = s_trial
            r_trial = res(trial, s_trial)
        values[free] = s = s_trial
        r, rn = r_trial, float(np.linalg.norm(r_trial))
        goal = tol * driver._scale(s, lam, eta)
    return ("converged" if rn <= goal else "max_newton"), max_iter, rn


def _rescue_on(driver, lam):
    """Whether a rung at lam gets the energy rescue: lam1 known, 0 <= lam < lam1, or lam < 0 with m >= 0."""
    lam1 = driver.lam1
    return lam1 is not None and (0.0 <= lam < lam1 or (lam < 0.0 and driver.m_vals.min() >= 0.0))


def _serial_newton(values, free, res, jac, op, goal, max_iter, stall, energy=None):
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
        ended = "line_search"
        while t > 1e-10:
            s_trial = s + t * step
            trial[free] = s_trial
            r_trial = res(trial, s_trial)
            merit = float(np.dot(r_trial, r_trial))
            if merit <= (1.0 - 2e-4 * t) * merit0:
                ended = "stalled" if merit > (1.0 - stall) * merit0 else None
                break
            t *= 0.5
        if ended:
            s_trial = None
            if energy is not None:
                s_trial = _serial_rescue(lambda v: energy(v, v[free]), values, trial, free, s, r, step)
            if s_trial is None:
                return ended, it + 1, rn
            trial[free] = s_trial
            r_trial = res(trial, s_trial)
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
    call grouped by search), one entry per call; carried holds (width passed
    in, width returned, energy steps) per call.
    """

    def __init__(self):
        self.rungs = []
        self.carried = []
        self._chunked = fem.newton

    def __call__(self, values, free, res, jac, op, goal, max_iter, stall, energy=None, width=1):
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
        expected = _serial_newton(expected_values, free, *logged(logs[0]), op, goal, max_iter, stall, energy)
        got = self._chunked(values, free, *logged(logs[1]), op, goal, max_iter, stall, energy, width)
        assert got[:3] == expected
        assert values.tobytes() == expected_values.tobytes()
        serial = [sum(search) for search in _searches(logs[0])]
        self.rungs.append((got[:3], serial, _searches(logs[1])))
        self.carried.append((width, got[3], got[4]))
        return got


def _against_reference(rung, record=None):
    """rung, checked against its reference loop from a copy of the same values.

    record, when given, gets (outcome, rescue on, energy steps) per rung.
    """

    def checked(driver, values, lam, *args):
        rescued = _rescue_on(driver, lam)
        reference = _reference_rescued_rung if rescued else _reference_rung
        expected_values = values.copy()
        expected = reference(driver, expected_values, lam, *args)
        got = rung(driver, values, lam, *args)
        assert got == expected, (lam, *args)
        assert values.tobytes() == expected_values.tobytes(), (lam, *args)
        if record is not None:
            record.append((got, rescued, driver.energy_steps))
        return got

    return checked


@contextlib.contextmanager
def _checked():
    """fem.newton against _serial_newton, and every BVP rung against its reference."""
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
    ("1d", 0.8, 0.0, "1", "1", -2.0, 1e-10),  # an energy step out of the stall near u = 0
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


def _solve_case(pairs, grid, lam_frac, eta, a_src, f_src, start, tol, lam1=True):
    """solve() of one case; lam1=False leaves lam1 unknown, which turns the energy rescue off."""
    mesh, pair = pairs[grid]
    one = Weight.constant(1.0)
    spec = ProblemSpec(mesh, P, Q, lam_frac * pair.lam, eta, one, _weight(a_src), _weight(f_src))
    init = "zero" if start == "zero" else start * pair.phi.values
    try:
        return solve(spec, init, SolveOptions(newton_tol=tol, lam1=pair.lam if lam1 else None))
    except NonConvergence as exc:
        return str(exc)


def test_fem_newton_matches_the_reference_rung_loop(pairs, monkeypatch):
    record = []
    monkeypatch.setattr(_NewtonDriver, "newton", _against_reference(_NewtonDriver.newton, record))
    for case in CASES:
        _solve_case(pairs, *case)
    assert {"converged", "stalled", "line_search", "max_newton"} <= {got[0] for got, _, _ in record}
    # both references ran, and the rescued one took an energy step
    assert any(not rescued for _, rescued, _ in record)
    assert any(rescued and steps for _, rescued, steps in record)


def test_energy_step_frees_the_stall_below_lam1(pairs, both):
    out = _solve_case(pairs, "1d", 0.8, 0.0, "1", "1", -2.0, 1e-10)
    assert out.sign_class == "positive" and round(out.sup_norm, 9) == 0.543517094
    # the first rung stalled near u = 0 at its 19th iteration; one energy step moves it on
    assert [outcome[:2] for outcome, _, _ in both.rungs][0] == ("converged", 24)
    assert [steps for _, _, steps in both.carried] == [1, 0, 0, 0]


def test_rescue_runs_only_below_lam1(interval_256):
    one = Weight.constant(1.0)
    m_pos = ProblemSpec(interval_256, P, Q, 0.0, 0.0, one, one, one)
    m_sign_changing = m_pos.replace(m=Weight.expression("x - 0.3"))
    below = _NewtonDriver(m_pos, lam1=10.0)
    assert [below._coercive(lam) for lam in (-3.0, 0.0, 9.5, 10.0, 12.0)] == [True, True, True, False, False]
    # lam < 0 is coercive only for m >= 0; without lam1 the rescue is off
    assert [_NewtonDriver(m_sign_changing, lam1=10.0)._coercive(lam) for lam in (-3.0, 5.0)] == [False, True]
    assert not _NewtonDriver(m_pos)._coercive(5.0)


def test_roundoff_stall_takes_no_energy_step(pairs, both):
    # at newton_tol 1e-14 the final rung stalls on roundoff, where E cannot tell trials apart
    out = _solve_case(pairs, "1d", 0.8, 0.0, "1", "1", "zero", 1e-14)
    assert out.startswith("Newton line_search: residual")
    assert [outcome[:2] for outcome, _, _ in both.rungs][-1] == ("line_search", 5)
    assert all(steps == 0 for _, _, steps in both.carried)


def test_first_search_takes_the_carried_width(pairs, both):
    _solve_case(pairs, "1d", 1.9, -0.5, "x - 0.3", "1", 1.0, 1e-10)
    assert len(both.carried) == 7
    assert both.carried[0][0] == 1
    for (_, width_out, _), (width_in, _, _) in zip(both.carried, both.carried[1:]):
        assert width_in == width_out
    for (_, _, chunks), (width_in, _, _) in zip(both.rungs, both.carried):
        assert chunks[0][0] == width_in
    # the last three rungs stall on their first iteration in one residual call each, not one per trial
    assert [(outcome[:2], len(chunks[0])) for outcome, _, chunks in both.rungs[-3:]] == [(("stalled", 1), 1)] * 3


def test_replayed_rung_hands_on_its_chunk_width(pairs, monkeypatch):
    widths = []
    newton = fem.newton

    def spy(values, free, res, jac, op, goal, max_iter, stall, energy=None, width=1):
        widths.append(width)
        return newton(values, free, res, jac, op, goal, max_iter, stall, energy, width)

    monkeypatch.setattr(fem, "newton", spy)
    mesh, pair = pairs["1d"]
    one = Weight.constant(1.0)
    spec = ProblemSpec(mesh, P, Q, 1.9 * pair.lam, -0.5, one, _weight("x - 0.3"), one)
    opts = SolveOptions(lam1=pair.lam)

    def run(spec, prefix=None):
        widths.clear()
        with contextlib.suppress(NonConvergence):
            solve(spec, pair.phi.values, opts, _prefix=prefix)
        return list(widths)

    alone = run(spec)
    prefix = {}
    run(spec.replace(eta=0.0), prefix)  # stores the eta-free first rung
    in_row = run(spec, prefix)
    # the stored rung is replayed, and the next rung starts at the width it ended on
    assert len(in_row) == len(alone) - 1
    assert in_row == alone[1:] and in_row[0] > 1


def test_deep_backtracking_rung_is_the_serial_one(pairs, both):
    # without lam1 there is no energy rescue, and the start stalls near u = 0 as before it
    _solve_case(pairs, "1d", 0.8, 0.2, "1", "1", -2.0, 1e-10, lam1=False)
    deep = [(serial, chunks) for (_, iters, _), serial, chunks in both.rungs if iters == 58]
    assert len(deep) == 1
    serial, chunks = deep[0]
    assert sum(serial) == 690  # 691 residual evaluations with the starting iterate's
    # the first search takes the 19 rows of the rung before; 68 residual calls
    # evaluate every serial trial, and 117 rows past accepted ones
    assert chunks[0][0] == 19
    assert sum(len(search) for search in chunks) == 68
    assert sum(map(sum, chunks)) == 807


# (reason, iterations, final norm) of each rung, recorded before the energy
# rescue and the carried chunk width; neither may move a rung without the rescue.
# The square's norms were re-recorded when p_flux became D^T (w D u), which
# rounds differently on the square (same reasons and iterations).
SQUARE_STALLED_RUNGS = [  # ("2d", 1.9 lam1, eta 0.2) from phi1: above lam1
    ("stalled", 11, 0.03403928464285348),
    ("stalled", 5, 0.03437328146952307),
    ("stalled", 3, 0.03470258777099481),
    ("stalled", 2, 0.03502370880708472),
    ("stalled", 1, 0.03502070801744243),
    ("stalled", 1, 0.03502070746454537),
    ("stalled", 1, 0.03502070746449007),
]
NO_LAM1_RUNGS = [  # ("1d", 0.8 lam1, eta 0.2) from -2 phi1, solved without lam1
    ("stalled", 19, 0.058372666631709536),
    ("stalled", 4, 0.0590008644585278),
    ("stalled", 3, 0.05961844737539828),
    ("stalled", 58, 0.05836488355435444),
    ("stalled", 1, 0.058355678385240244),
    ("stalled", 1, 0.05835567722409059),
    ("stalled", 1, 0.05835567722397444),
]
# the p = 1.5 principal eigensolve on the n = 256 interval: lam1, the first 16
# hex digits of the sha256 of phi1's bytes, and each inner solve
EIGEN_P15 = (5.3186628696150295, "f8c07444181553b5")
EIGEN_P15_INNER = [
    ("converged", 8, 1.0979321062394124e-12),
    ("converged", 3, 6.612807053623761e-10),
    ("converged", 2, 1.5413423907313687e-10),
    ("converged", 2, 4.301960920383413e-12),
    ("converged", 1, 8.511597962775848e-10),
    ("converged", 1, 8.570440224851644e-12),
]


@pytest.mark.parametrize(
    "case, lam1, want",
    [
        (("2d", 1.9, 0.2, "1", "1", 1.0, 1e-10), True, SQUARE_STALLED_RUNGS),
        (("1d", 0.8, 0.2, "1", "1", -2.0, 1e-10), False, NO_LAM1_RUNGS),
    ],
    ids=["square-above-lam1", "no-lam1"],
)
def test_rungs_without_the_rescue_are_pinned(pairs, both, case, lam1, want):
    assert _solve_case(pairs, *case, lam1=lam1).startswith("Newton stalled: residual")
    assert [outcome for outcome, _, _ in both.rungs] == want
    assert all(steps == 0 for _, _, steps in both.carried)


def test_eigen_inner_solves_are_pinned(both):
    pair = principal_eigenpair(build_interval(0.0, 1.0, 256), Weight.constant(1.0), 1.5)
    assert (pair.lam, hashlib.sha256(pair.phi.values.tobytes()).hexdigest()[:16]) == EIGEN_P15
    assert [outcome for outcome, _, _ in both.rungs] == EIGEN_P15_INNER
    # no energy rescue, and each inner solve starts at chunk width 1
    assert all(width_in == 1 and steps == 0 for width_in, _, steps in both.carried)


def test_line_search_floor_inside_a_chunk(pairs, both):
    _solve_case(pairs, "2d", 0.8, 0.0, "1", "1", 1.0, 1e-15)
    ends = [chunks[-1] for (reason, _, _), _, chunks in both.rungs if reason == "line_search"]
    assert ends
    last = ends[-1]
    # 34 step sizes, 1 .. 2^-33, lie above the floor; the last chunk is cut short by it
    assert sum(last) == 34 and last[-1] < last[0]


def test_stalled_rung_passes_mid_chunk(pairs, both):
    _solve_case(pairs, "1d", 0.8, 0.2, "1", "1", -2.0, 1e-10, lam1=False)
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

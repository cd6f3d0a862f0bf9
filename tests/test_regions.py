import json
import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

import oracles
from plap import (
    DiscreteFunction,
    InvalidConfig,
    ProblemSpec,
    SolveOptions,
    Weight,
    build_interval,
    build_rectangle,
    check_hypotheses,
    multi_start_solve,
    nonuniformity_experiment,
    principal_eigenpair,
    solve,
    sweep,
)
from plap.report import write_report


def template(mesh, p=2.0, q=1.5, m=1.0, a=1.0, f=1.0):
    mk = lambda w: w if isinstance(w, Weight) else Weight.constant(w)
    return ProblemSpec(mesh, p, q, 0.0, 0.0, mk(m), mk(a), mk(f))


def by_id(preds, pid):
    return [p for p in preds if p.id == pid]


def test_hypotheses_all_positive_weights(interval_256, pair_p2_256):
    preds = check_hypotheses(template(interval_256), pair_p2_256.lam, pair_p2_256.phi)
    thm1 = by_id(preds, "thm1")[0]
    assert thm1.applicable and not thm1.conditional
    assert ("int a phi1^q > 0", True) in thm1.hypothesis_report
    thm0 = by_id(preds, "thm0")[0]
    assert thm0.applicable and thm0.interior_only
    assert by_id(preds, "prop-noneg") and by_id(preds, "prop-nonex")


def test_hypotheses_negative_pairing_reduced(interval_256, pair_p2_256):
    preds = check_hypotheses(
        template(interval_256, a=-1.0), pair_p2_256.lam, pair_p2_256.phi
    )
    thm1 = by_id(preds, "thm1")[0]
    assert "(-a, -eta)" in thm1.note
    assert not by_id(preds, "prop-nonex")  # needs a >= 0
    assert not by_id(preds, "thm0")  # its pairing hypothesis fails, so not emitted


def test_hypotheses_without_an_eigenpair_emit_no_pairing_prediction():
    # a sweep whose eigensolve fails has no phi1: the pairing is unknown, not negative
    preds = check_hypotheses(template(build_interval(0, 1, 32), p=3.0), math.inf, None)
    assert not by_id(preds, "thm0") and not by_id(preds, "thm1")
    assert by_id(preds, "thm-1")


def test_hypotheses_sign_changing_source_conditional(interval_256, pair_p2_256):
    f = Weight.expression("sin(3.141592653589793*x) - 0.2")  # pairing > 0 but f dips negative
    preds = check_hypotheses(template(interval_256, f=f), pair_p2_256.lam, pair_p2_256.phi)
    thm1 = by_id(preds, "thm1")[0]
    assert thm1.conditional
    assert not by_id(preds, "prop-noneg")  # needs f >= 0


def test_hypotheses_zero_pairing_uses_polynomial(interval_256):
    # an antisymmetric a has zero pairing with the symmetric eigenfunction
    x = interval_256.vertices[:, 0]
    a = Weight.nodal(x - 0.5)
    pair = principal_eigenpair(interval_256, Weight.constant(1.0), 2.0)
    preds = check_hypotheses(template(interval_256, a=a), pair.lam, pair.phi)
    thm1 = by_id(preds, "thm1")[0]
    names = [name for name, _ in thm1.hypothesis_report]
    assert any("polynomial condition" in n for n in names)
    assert thm1.applicable  # p = 2 factorizes, so the condition holds


def test_hypotheses_strip_variants(interval_256, pair_p2_256):
    a = Weight.expression("step(x - 0.25) * step(0.75 - x)")
    preds = check_hypotheses(template(interval_256, a=a), pair_p2_256.lam, pair_p2_256.phi)
    thm1w = by_id(preds, "thm1-w")
    assert thm1w, "strip prediction missing"
    names = [name for name, ok in thm1w[0].hypothesis_report if ok]
    assert any("a = 0 on the boundary strip" in n for n in names)
    assert by_id(preds, "thm-1ww")


def test_sweep_mp_amp_and_measurements(interval_256, pair_p2_256):
    lam1 = pair_p2_256.lam
    lam_grid = [0.3 * lam1, 0.6 * lam1, 0.9 * lam1, 1.2 * lam1, 1.8 * lam1]
    eta_grid = [-0.3, 0.0, 0.3]
    opts = SolveOptions(t_grid=(1.0,), n_random=1)
    region_map = sweep(template(interval_256), lam_grid, eta_grid, opts)
    assert region_map.counterexamples == []
    assert region_map.lam1 == pytest.approx(lam1, rel=1e-9)
    assert region_map.lam2_bound == pytest.approx(4 * math.pi**2, abs=1e-2)
    # MP cells below lam1 at eta = 0 are positive
    for i in (0, 1, 2):
        assert region_map.cells[(i, 1)].classes == ["positive"]
    # AMP cells above lam1 (below the second eigenvalue) are negative
    for i in (3, 4):
        assert region_map.cells[(i, 1)].classes == ["negative"]
        assert "prop-nonex" in region_map.cells[(i, 1)].predicted
        assert region_map.cells[(i, 1)].consistent is True
    assert region_map.delta_hat_mp == pytest.approx(lam1 - lam_grid[0], rel=1e-12)
    assert region_map.delta_hat_amp == pytest.approx(lam_grid[4] - lam1, rel=1e-12)
    assert region_map.eta_bounds[lam_grid[0]] == pytest.approx(0.3)
    # nonnegativity region cells are flagged and consistent
    cell = region_map.cells[(0, 1)]
    assert "prop-noneg" in cell.predicted and cell.consistent is True


def test_sweep_counterexample_machinery(interval_256):
    # a deliberately false eigenvalue override makes the no-nonnegative-solution
    # region swallow genuinely positive cells, which must surface as records
    opts = SolveOptions(lam1=1.0, t_grid=(1.0,), n_random=0)
    region_map = sweep(template(interval_256), [3.0], [0.0], opts)
    assert len(region_map.counterexamples) == 1
    record = region_map.counterexamples[0]
    assert record["prediction"] == "prop-nonex"
    assert record["observed"] == ["positive"]
    assert region_map.cells[(0, 0)].consistent is False


def test_sweep_handles_empty_grid(interval_256):
    region_map = sweep(template(interval_256), [], [], SolveOptions())
    assert region_map.cells == {}


def test_sweep_with_an_empty_eta_grid_solves_no_cell(interval_256, monkeypatch):
    calls = _spy_cells(monkeypatch)
    region_map = sweep(template(interval_256), [1.0, 2.0], [], SolveOptions())
    assert region_map.cells == {} and calls == []
    assert math.isnan(region_map.delta_hat_mp) and region_map.eta_bounds == {}


def test_sweep_without_an_eta_zero_column_measures_nothing(interval_256, pair_p2_256, tmp_path):
    # the widths are measured on the eta = 0 column; this grid has none
    lam1 = pair_p2_256.lam
    opts = SolveOptions(t_grid=(1.0,), n_random=0)
    region_map = sweep(template(interval_256), [0.5 * lam1, 1.5 * lam1], [-0.2, 0.2], opts)
    assert sorted(region_map.cells) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert math.isnan(region_map.delta_hat_mp) and math.isnan(region_map.delta_hat_amp)
    assert region_map.eta_bounds == {}
    write_report(region_map, tmp_path / "sweep_report.json")
    result = json.loads((tmp_path / "sweep_report.json").read_text())["result"]
    assert (result["delta_hat_mp"], result["delta_hat_amp"], result["eta_bounds"]) == ("nan", "nan", {})


def test_sweep_amp_interval_matches_linear_oracle(interval_512, pair_p2_512):
    lam1 = pair_p2_512.lam
    lam_grid = np.linspace(1.1 * lam1, 3.6 * math.pi**2, 5)
    opts = SolveOptions(t_grid=(1.0,), n_random=1)
    region_map = sweep(template(interval_512), lam_grid, [0.0], opts)
    for i, lam in enumerate(lam_grid):
        assert region_map.cells[(i, 0)].classes == ["negative"]
        u_oracle = oracles.linear_bvp_oracle_1d(float(lam), np.ones(513), 512)
        assert np.all(u_oracle[1:-1] < 0)


def test_interior_amp_on_square(one):
    # corners break boundary smoothness, so negativity is asserted only on a
    # compact subsquare
    mesh = build_rectangle(0, 1, 0, 1, 24, 24)
    pair = principal_eigenpair(mesh, one, 2.0)
    spec = ProblemSpec(mesh, 2.0, 1.5, 1.05 * pair.lam, 0.0, one, one, one)
    out = solve(spec, opts=SolveOptions(lam1=pair.lam))
    inner = [
        i
        for i, (x, y) in enumerate(mesh.vertices)
        if 0.2 <= x <= 0.8 and 0.2 <= y <= 0.8
    ]
    assert np.all(out.u.values[inner] < 0)


def test_nonuniformity_trend(interval_512, one):
    family = [
        ("b1", Weight.expression("bump(0.958, 0.012)")),
        ("b2", Weight.expression("bump(0.97, 0.012)")),
        ("b3", Weight.expression("bump(0.982, 0.012)")),
    ]
    report = nonuniformity_experiment(
        interval_512, 2.0, 1.5, one, one, 1.0, family,
        eta_small=0.05, n_lam=26, delta_span=1.0,
        opts=SolveOptions(t_grid=(1.0,), n_random=1),
    )
    for member in report.members:
        assert member["classes_eta0"] == ["sign_changing"]
        assert set(member["classes_eta_small"]) <= {"sign_changing", "nonpos_with_zeros"}
    d = report.delta_hats
    assert d[0] > d[1] > d[2] > 0


def test_nonuniformity_rejects_negative_a(interval_256, one):
    # a >= 0 is a precondition of the probe, so it fails before any solve
    family = [("b1", Weight.expression("bump(0.958, 0.012)"))]
    with pytest.raises(InvalidConfig, match="a: must be >= 0"):
        nonuniformity_experiment(interval_256, 2.0, 1.5, one, Weight.expression("x - 0.5"), 1.0, family)


def test_nonuniformity_control_below_lam1(interval_512, one, pair_p2_512):
    f = Weight.expression("bump(0.958, 0.012)")
    spec = ProblemSpec(interval_512, 2.0, 1.5, 0.5 * pair_p2_512.lam, 0.0, one, one, f)
    ms = multi_start_solve(spec, SolveOptions(lam1=pair_p2_512.lam, t_grid=(1.0,), n_random=1))
    assert sorted({o.sign_class for o in ms.outcomes}) == ["positive"]


def test_nonuniformity_exact_linear_crosscheck(interval_512, one, pair_p2_512):
    f = Weight.expression("bump(0.97, 0.012)")
    lam = pair_p2_512.lam + 1.0
    spec = ProblemSpec(interval_512, 2.0, 1.5, lam, 0.0, one, one, f)
    out = solve(spec, opts=SolveOptions(lam1=pair_p2_512.lam))
    u_oracle = oracles.linear_bvp_oracle_1d(lam, f.values(interval_512), 512)
    assert np.max(np.abs(out.u.values - u_oracle)) < 1e-8 * (1 + np.max(np.abs(u_oracle)))
    assert out.sign_class == "sign_changing"


def test_eigensolve_programming_errors_propagate(monkeypatch):
    import plap.eigen

    def broken(*args, **kwargs):
        raise TypeError("bug inside the eigensolver")

    # a fresh mesh: the eigenpair memo never saw it, so each call reaches the eigensolver
    mesh = build_interval(0.0, 1.0, 256)
    monkeypatch.setattr(plap.eigen, "principal_eigenpair", broken)
    spec = template(mesh, p=3.0).replace(lam=1.0)
    with pytest.raises(TypeError):
        multi_start_solve(spec)
    with pytest.raises(TypeError):
        sweep(template(mesh, p=3.0), [1.0], [0.0])


def _spy_cells(monkeypatch):
    """Record (spec, opts, result, warm) of every row cell bvp._solve_row solves, in call order.

    warm is the call's _warm map (start label -> neighbouring outcome), None for the anchor cell.
    """
    import plap.bvp as bvp

    calls = []
    inner = bvp.multi_start_solve

    def spy(spec, opts=None, **kw):
        ms = inner(spec, opts, **kw)
        calls.append((spec, opts, ms, kw.get("_warm")))
        return ms

    monkeypatch.setattr(bvp, "multi_start_solve", spy)
    return calls


def _assert_same_start(shared, alone):
    """Two per_start triples of one start: the same label, error and outcome, bit for bit."""
    (label, a, err), (label_alone, b, err_alone) = shared, alone
    assert (label, err) == (label_alone, err_alone)
    assert (a is None) == (b is None)
    if a is not None:
        assert np.array_equal(a.u.values, b.u.values)
        assert (a.newton_iters, a.residual_norm, a.energy, a.resonant, a.continuation_steps) == (
            b.newton_iters, b.residual_norm, b.energy, b.resonant, b.continuation_steps
        )


def _assert_bit_identical(shared, alone):
    assert [s for s, _, _ in shared.per_start] == [s for s, _, _ in alone.per_start]
    for a, b in zip(shared.per_start, alone.per_start):
        _assert_same_start(a, b)
    assert [o.start_strategy for o in shared] == [o.start_strategy for o in alone]


def _assert_solves(spec, opts, out):
    """out passes the final rung's residual test at opts.newton_tol."""
    from plap.bvp import _NewtonDriver, residual

    norm = float(np.linalg.norm(residual(spec, out.u)))
    goal = opts.newton_tol * _NewtonDriver(spec)._scale(out.u.values[spec.mesh.interior_vertices], spec.lam, spec.eta)
    assert norm <= goal, f"{out.start_strategy}: residual {norm:.3e} > {goal:.3e}"


def _assert_row_rule(calls):
    """The row rule on _spy_cells' record; returns the number of starts that converged warm.

    The anchor cell and every start that falls back match the lone solve bit
    for bit, every start that converges warm passes the residual check at
    newton_tol, and no solution of the lone solve is lost.
    """
    warm_converged = 0
    for spec, solve_opts, ms, warm in calls:
        alone = multi_start_solve(spec, solve_opts)
        if warm is None:
            _assert_bit_identical(ms, alone)
            continue
        assert ms.warm_starts + ms.warm_fallbacks == len(warm)
        assert [s for s, _, _ in ms.per_start] == [s for s, _, _ in alone.per_start]
        converged = 0
        for shared, lone in zip(ms.per_start, alone.per_start):
            out = shared[1]
            if out is not None and out.diagnostics.get("warm_start"):
                assert shared[0] in warm
                converged += 1
                _assert_solves(spec, solve_opts, out)
            else:
                _assert_same_start(shared, lone)
        assert converged == ms.warm_starts
        warm_converged += converged
        found = [(o.sign_class, o.sup_norm) for o in ms]
        for o in alone:
            assert any(c == o.sign_class and abs(s - o.sup_norm) <= 1e-6 for c, s in found), o.start_strategy
    return warm_converged


@pytest.mark.parametrize(
    "mesh, p, lam_fracs",
    [
        (build_interval(0.0, 1.0, 128), 3.0, (0.95, 1.2)),
        (build_rectangle(0.0, 1.0, 0.0, 1.0, 10, 10), 3.0, (0.95,)),
        (build_interval(0.0, 1.0, 128), 2.0, (0.95, 1.5)),
    ],
    ids=["1d-p3", "2d-p3", "1d-p2"],
)
def test_sweep_rows_match_independent_cells(mesh, p, lam_fracs, monkeypatch):
    # the anchor column (eta = 0) replays the row's shared eta-free rungs and
    # must come out as if solved alone (0.95 lam1 puts lam rungs in the prefix);
    # a start of another cell either converges from its neighbour's solution,
    # and must solve the cell, or falls back to the ladder, bit for bit
    lam1 = principal_eigenpair(mesh, Weight.constant(1.0), p).lam
    calls = _spy_cells(monkeypatch)
    opts = SolveOptions(t_grid=(0.5, 2.0), n_random=2)
    sweep(template(mesh, p=p), [f * lam1 for f in lam_fracs], [-0.3, 0.0, 0.3], opts)
    assert len(calls) == 3 * len(lam_fracs)
    assert all((warm is None) == (spec.eta == 0.0) for spec, _, _, warm in calls)
    assert _assert_row_rule(calls) > 0


def test_failed_warm_rungs_fall_back_to_the_lone_ladder(interval_256, pair_p3_256, monkeypatch):
    # on this bump row every warm rung fails, at its iteration cap: each cell
    # must be its lone solve, bit for bit, a failed rung costs at most
    # _WARM_NEWTON Jacobians, and the starts that share a neighbour solution
    # share its one rung
    import plap.bvp as bvp
    import plap.fem as fem

    jacobians = [0]
    p_flux_jacobian = fem.p_flux_jacobian

    def counting_jacobian(*args, **kw):
        jacobians[0] += 1
        return p_flux_jacobian(*args, **kw)

    rungs = []  # (max_iter, reason, Jacobians) of every rung
    newton = bvp._NewtonDriver.newton

    def recording(self, *args):
        before = jacobians[0]
        result = newton(self, *args)
        rungs.append((args[-1], result[0], jacobians[0] - before))
        return result

    monkeypatch.setattr(fem, "p_flux_jacobian", counting_jacobian)
    monkeypatch.setattr(bvp._NewtonDriver, "newton", recording)
    calls = _spy_cells(monkeypatch)
    lam1 = pair_p3_256.lam
    tmpl = template(interval_256, p=3.0).replace(f=Weight.expression("bump(0.9, 0.05)"))
    region_map = sweep(tmpl, [0.8 * lam1], [-0.5, 0.0, 0.2], SolveOptions(n_random=0, lam1=lam1))
    warm_rungs = [(reason, jac) for cap, reason, jac in rungs if cap == bvp._WARM_NEWTON]
    offered = sum(len(warm) for _, _, _, warm in calls if warm is not None)
    distinct = sum(len({id(out) for out in warm.values()}) for _, _, _, warm in calls if warm is not None)
    assert len(warm_rungs) == distinct > 0
    assert all(reason == "max_newton" and jac <= bvp._WARM_NEWTON for reason, jac in warm_rungs)
    summary = region_map.summary()
    assert (summary["warm_starts"], summary["warm_fallbacks"]) == (0, offered)
    for spec, solve_opts, ms, _ in calls:
        _assert_bit_identical(ms, multi_start_solve(spec, solve_opts))


def test_each_neighbour_solution_runs_one_warm_rung(monkeypatch):
    # a start of a further cell warm-starts from the kept outcome its dedup
    # matched in the neighbouring cell; the starts of one group share that
    # outcome's one warm rung, so they fall back together or converge
    # together, to the same bits
    import plap.bvp as bvp

    warm_rungs = Counter()  # (lam, eta) -> warm rungs run in that cell
    newton = bvp._NewtonDriver.newton

    def counting(self, *args):
        warm_rungs[self.spec.lam, self.spec.eta] += args[-1] == bvp._WARM_NEWTON
        return newton(self, *args)

    monkeypatch.setattr(bvp._NewtonDriver, "newton", counting)
    calls = _spy_cells(monkeypatch)
    mesh = build_interval(0.0, 1.0, 128)
    lam1 = principal_eigenpair(mesh, Weight.constant(1.0), 3.0).lam
    etas = [-0.4, -0.2, 0.0, 0.2, 0.4]
    sweep(template(mesh, p=3.0), [0.95 * lam1, 1.2 * lam1], etas, SolveOptions(t_grid=(0.5, 2.0), n_random=2))
    assert len(calls) == 2 * len(etas)
    shared = 0
    for spec, _, ms, warm in calls:
        run = warm_rungs[spec.lam, spec.eta]
        if warm is None:
            assert run == 0
            continue
        assert run == len({id(out) for out in warm.values()}) > 0
        groups = {}
        for label, out, _ in ms.per_start:
            if label in warm:
                groups.setdefault(id(warm[label]), []).append(out)
        for outs in groups.values():
            converged = [out for out in outs if out is not None and out.diagnostics.get("warm_start")]
            assert len(converged) in (0, len(outs))
            for out in converged[1:]:
                assert np.array_equal(out.u.values, converged[0].u.values)
                assert (out.residual_norm, out.sup_norm) == (converged[0].residual_norm, converged[0].sup_norm)
            shared += len(converged) > 1
    assert shared > 0


def test_sweep_row_runs_its_prefix_once(interval_256, pair_p3_256, monkeypatch):
    import plap.bvp as bvp
    import plap.fem as fem

    flux_calls = [0]  # residual evaluations: one per vector, one per row of a stack
    p_flux = fem.p_flux

    def counting_p_flux(mesh, values, *args, **kw):
        flux_calls[0] += 1 if values.ndim == 1 else len(values)
        return p_flux(mesh, values, *args, **kw)

    cell_cost = []  # (eta, residual evaluations) per cell, in solve order
    inner = bvp.multi_start_solve

    def costed(spec, *args, **kw):
        before = flux_calls[0]
        ms = inner(spec, *args, **kw)
        cell_cost.append((spec.eta, flux_calls[0] - before))
        return ms

    monkeypatch.setattr(fem, "p_flux", counting_p_flux)
    monkeypatch.setattr(bvp, "multi_start_solve", costed)
    lam = 0.95 * pair_p3_256.lam
    etas = [-0.3, 0.0, 0.3]
    solve_opts = SolveOptions(t_grid=(0.5, 2.0), n_random=0)
    sweep(template(interval_256, p=3.0), [lam], etas, solve_opts)
    in_row, cell_cost[:] = cell_cost[:], []
    sweep(template(interval_256, p=3.0), [lam], etas, solve_opts)
    assert cell_cost == in_row  # nothing carries from one sweep call to the next
    assert [eta for eta, _ in in_row] == [0.0, 0.3, -0.3]  # outward from the anchor column
    alone = {}
    for eta in etas:
        spec = template(interval_256, p=3.0).replace(lam=lam, eta=eta)
        before = flux_calls[0]
        multi_start_solve(spec, replace(solve_opts, lam1=pair_p3_256.lam))
        alone[eta] = flux_calls[0] - before
    assert in_row[0][1] == alone[0.0]  # the anchor cell pays for the prefix
    assert all(cost < alone[eta] for eta, cost in in_row[1:])
    assert sum(cost for _, cost in in_row) < sum(alone.values())


@pytest.mark.parametrize(
    "n, p, bump, eps_lambda, opts, min_warm",
    [
        (64, 2.0, "bump(0.958, 0.03)", 1.0, SolveOptions(t_grid=(1.0,), n_random=0), 1),
        (256, 3.0, "bump(0.9, 0.05)", 0.5, SolveOptions(t_grid=(0.5, 2.0), n_random=1), 0),
    ],
    ids=["benchmark-probe", "p3-bump"],
)
def test_nonuniformity_probes_keep_the_row_rule(n, p, bump, eps_lambda, opts, min_warm, one, monkeypatch):
    # the eta = 0 and eta_small probes are one row: the eta_small cell warm
    # starts from the eta = 0 solutions, as every sweep cell does; on the
    # p = 3 bump row no warm rung converges, so every start falls back
    calls = _spy_cells(monkeypatch)
    report = nonuniformity_experiment(
        build_interval(0.0, 1.0, n), p, 1.5, one, one, eps_lambda, [("b1", Weight.expression(bump))],
        eta_small=0.05, n_lam=2, delta_span=1.0, opts=opts,
    )
    assert [(spec.lam, spec.eta, warm is None) for spec, _, _, warm in calls] == [
        (report.lam_probe, 0.0, True), (report.lam_probe, 0.05, False),
    ]
    member = report.members[0]
    for key, (_, _, ms, _) in zip(("classes_eta0", "classes_eta_small"), calls):
        assert member[key] == sorted({o.sign_class for o in ms})
    assert _assert_row_rule(calls) >= min_warm


def _count_eigensolves(monkeypatch):
    """The list to which every principal_eigenpair call from now on appends its arguments."""
    import plap.eigen

    solves = []
    inner = plap.eigen.principal_eigenpair

    def counting(*args, **kw):
        solves.append(args)
        return inner(*args, **kw)

    monkeypatch.setattr(plap.eigen, "principal_eigenpair", counting)
    return solves


@pytest.mark.parametrize("a, eigensolves", [(1.0, 1), (2.0, 2)])
def test_sweep_reuses_its_eigenpair_for_the_threshold(a, eigensolves, monkeypatch):
    # with a = m = 1 the clamped weight max(a, 0)^((p-1)/(q-1)) has m's nodal values
    from plap.critical import eta_star_lower_bound
    from plap.regions import _eta_threshold_closures

    mesh = build_interval(0.0, 1.0, 256)  # fresh, so the memo holds nothing for it yet
    solves = _count_eigensolves(monkeypatch)
    tmpl = template(mesh, p=3.0, a=a)
    region_map = sweep(tmpl, [], [], SolveOptions())
    assert len(solves) == eigensolves
    lam1 = region_map.lam1
    shared = _eta_threshold_closures(tmpl, lam1)[0]
    assert len(solves) == eigensolves  # the sweep's solves are remembered
    lam1_w = principal_eigenpair(mesh, Weight.nodal(np.full(mesh.n_vertices, a**4.0)), 3.0).lam
    alone = [eta_star_lower_bound(1.0, 3.0, 1.5, f * lam1, lam1, lam1_w) for f in (0.0, 0.5, 0.9)]
    assert [shared(f * lam1) for f in (0.0, 0.5, 0.9)] == alone


@pytest.mark.parametrize(
    "build, m",
    [
        (lambda: build_rectangle(0.0, 10.0, 0.0, 0.1, 20, 4), 1.0),  # the eigensolve does not converge
        (lambda: build_interval(0.0, 1.0, 256), -1.0),  # no positive part: no eigenpair
    ],
    ids=["thin-rectangle", "m-negative"],
)
def test_failed_eigensolve_runs_once_per_sweep(build, m, monkeypatch):
    solves = _count_eigensolves(monkeypatch)
    opts = SolveOptions(n_random=1)
    region_map = sweep(template(build(), m=m), [1.0, 2.0, 3.0], [0.0, 0.1], opts)
    assert len(region_map.cells) == 6
    assert len(solves) == 1
    assert region_map.lam1 == math.inf
    assert all([row.strategy for row in cell.rows] == ["zero", "random0"] for cell in region_map.cells.values())


def test_eigenpair_memo_keeps_a_failure_as_a_fresh_error(monkeypatch):
    from plap import EmptyAdmissibleSet, eigen

    solves = _count_eigensolves(monkeypatch)
    mesh = build_interval(0.0, 1.0, 64)
    errors = []
    for _ in range(2):
        with pytest.raises(EmptyAdmissibleSet) as info:
            eigen._principal(mesh, np.full(mesh.n_vertices, -1.0), 3.0)  # m = -1: no positive part
        errors.append(info.value)
    assert len(solves) == 1
    assert str(errors[0]) == str(errors[1]) == "weight has no positive part on the active vertex set"
    assert errors[0] is not errors[1]


def test_eigenpair_memo_forgets_its_mesh():
    import gc
    import weakref

    from plap import eigen

    mesh = build_interval(0.0, 1.0, 64)
    pair = eigen._principal(mesh, Weight.constant(1.0), 3.0)
    assert pair.phi.values.tobytes() == principal_eigenpair(mesh, Weight.constant(1.0), 3.0).phi.values.tobytes()
    assert eigen._principal(mesh, Weight.nodal(np.ones(65)), 3.0).lam == pair.lam  # keyed by nodal values
    alive = weakref.ref(mesh)
    del mesh, pair
    gc.collect()
    assert alive() is None


@pytest.mark.parametrize(
    "m, c",
    [
        (Weight.constant(2.0), 2.0),
        (Weight.expression("2"), 2.0),
        (Weight.nodal(np.full(257, 2.0)), 2.0),
        (Weight.expression("1 + x"), None),
    ],
    ids=["constant", "expression", "nodal", "varying"],
)
def test_sweep_lam2_bound_of_a_constant_weight(interval_256, m, c):
    # lam2 of a constant weight c > 0 is lam2(1) / c; no bound is known for other weights
    from plap import second_eigenvalue_1d

    region_map = sweep(template(interval_256, m=m), [], [], SolveOptions())
    assert region_map.lam2_bound == (second_eigenvalue_1d(0.0, 1.0, 2.0) / c if c else math.inf)

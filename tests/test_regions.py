import math
from dataclasses import replace

import numpy as np
import pytest

import oracles
from plap import (
    DiscreteFunction,
    InvalidConfig,
    ProblemSpec,
    SolveOptions,
    SweepOptions,
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
    opts = SweepOptions(solve_opts=SolveOptions(t_grid=(1.0,), n_random=1))
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
    opts = SweepOptions(solve_opts=SolveOptions(lam1=1.0, t_grid=(1.0,), n_random=0))
    region_map = sweep(template(interval_256), [3.0], [0.0], opts)
    assert len(region_map.counterexamples) == 1
    record = region_map.counterexamples[0]
    assert record["prediction"] == "prop-nonex"
    assert record["observed"] == ["positive"]
    assert region_map.cells[(0, 0)].consistent is False


def test_sweep_handles_empty_grid(interval_256):
    region_map = sweep(template(interval_256), [], [], SweepOptions())
    assert region_map.cells == {}


def test_sweep_amp_interval_matches_linear_oracle(interval_512, pair_p2_512):
    lam1 = pair_p2_512.lam
    lam_grid = np.linspace(1.1 * lam1, 3.6 * math.pi**2, 5)
    opts = SweepOptions(solve_opts=SolveOptions(t_grid=(1.0,), n_random=1))
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
    ms = multi_start_solve(spec, SolveOptions(lam1=pair_p2_512.lam, t_grid=(1.0,), n_random=1), phi1=pair_p2_512.phi)
    assert sorted({o.sign_class for o in ms.outcomes}) == ["positive"]


def test_nonuniformity_exact_linear_crosscheck(interval_512, one, pair_p2_512):
    f = Weight.expression("bump(0.97, 0.012)")
    lam = pair_p2_512.lam + 1.0
    spec = ProblemSpec(interval_512, 2.0, 1.5, lam, 0.0, one, one, f)
    out = solve(spec, opts=SolveOptions(lam1=pair_p2_512.lam))
    u_oracle = oracles.linear_bvp_oracle_1d(lam, f.values(interval_512), 512)
    assert np.max(np.abs(out.u.values - u_oracle)) < 1e-8 * (1 + np.max(np.abs(u_oracle)))
    assert out.sign_class == "sign_changing"


def test_eigensolve_programming_errors_propagate(interval_256, monkeypatch):
    import plap.eigen

    def broken(*args, **kwargs):
        raise TypeError("bug inside the eigensolver")

    monkeypatch.setattr(plap.eigen, "principal_eigenpair", broken)
    spec = template(interval_256, p=3.0).replace(lam=1.0)
    with pytest.raises(TypeError):
        multi_start_solve(spec)
    with pytest.raises(TypeError):
        sweep(template(interval_256, p=3.0), [1.0], [0.0])


def _spy_cells(monkeypatch):
    """Record (spec, opts, phi1, result) of every multi_start_solve that regions makes."""
    import plap.regions as regions

    calls = []
    inner = regions.multi_start_solve

    def spy(spec, opts=None, phi1=None, **kw):
        ms = inner(spec, opts, phi1=phi1, **kw)
        calls.append((spec, opts, phi1, ms))
        return ms

    monkeypatch.setattr(regions, "multi_start_solve", spy)
    return calls


def _assert_bit_identical(shared, alone):
    assert [(s, err) for s, _, err in shared.per_start] == [(s, err) for s, _, err in alone.per_start]
    for (_, a, _), (_, b, _) in zip(shared.per_start, alone.per_start):
        assert (a is None) == (b is None)
        if a is not None:
            assert np.array_equal(a.u.values, b.u.values)
            assert (a.newton_iters, a.residual_norm, a.energy, a.resonant, a.continuation_steps) == (
                b.newton_iters, b.residual_norm, b.energy, b.resonant, b.continuation_steps
            )
    assert [o.start_strategy for o in shared] == [o.start_strategy for o in alone]


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
    # within a row every cell replays the shared eta-free rungs; each cell must
    # come out as if it were solved alone (0.95 lam1 puts lam rungs in the prefix)
    lam1 = principal_eigenpair(mesh, Weight.constant(1.0), p).lam
    calls = _spy_cells(monkeypatch)
    opts = SweepOptions(solve_opts=SolveOptions(t_grid=(0.5, 2.0), n_random=2), predictions=False)
    sweep(template(mesh, p=p), [f * lam1 for f in lam_fracs], [-0.3, 0.0, 0.3], opts)
    assert len(calls) == 3 * len(lam_fracs)
    for spec, solve_opts, phi1, ms in calls:
        _assert_bit_identical(ms, multi_start_solve(spec, solve_opts, phi1=phi1))


def test_sweep_row_runs_its_prefix_once(interval_256, pair_p3_256, monkeypatch):
    import plap.fem as fem
    import plap.regions as regions

    flux_calls = [0]  # residual evaluations: one per vector, one per row of a stack
    p_flux = fem.p_flux

    def counting_p_flux(mesh, values, *args, **kw):
        flux_calls[0] += 1 if values.ndim == 1 else len(values)
        return p_flux(mesh, values, *args, **kw)

    cell_cost = []
    inner = regions.multi_start_solve

    def costed(*args, **kw):
        before = flux_calls[0]
        ms = inner(*args, **kw)
        cell_cost.append(flux_calls[0] - before)
        return ms

    monkeypatch.setattr(fem, "p_flux", counting_p_flux)
    monkeypatch.setattr(regions, "multi_start_solve", costed)
    lam = 0.95 * pair_p3_256.lam
    etas = [-0.3, 0.0, 0.3]
    solve_opts = SolveOptions(t_grid=(0.5, 2.0), n_random=0)
    opts = SweepOptions(solve_opts=solve_opts, predictions=False)
    sweep(template(interval_256, p=3.0), [lam], etas, opts)
    in_row, cell_cost[:] = cell_cost[:], []
    sweep(template(interval_256, p=3.0), [lam], etas, opts)
    assert cell_cost == in_row  # nothing carries from one sweep call to the next
    alone = []
    for eta in etas:
        spec = template(interval_256, p=3.0).replace(lam=lam, eta=eta)
        before = flux_calls[0]
        multi_start_solve(spec, replace(solve_opts, lam1=pair_p3_256.lam), phi1=pair_p3_256.phi)
        alone.append(flux_calls[0] - before)
    assert in_row[0] == alone[0]  # the first cell of a row pays for the prefix
    assert in_row[1] < alone[1] and in_row[2] < alone[2]
    assert sum(in_row) < sum(alone)


def test_nonuniformity_probes_match_independent_cells(interval_256, one, monkeypatch):
    # p = 3: the eta = 0 and eta_small probes share the (lam, 0) rung per start
    calls = _spy_cells(monkeypatch)
    family = [("b1", Weight.expression("bump(0.9, 0.05)"))]
    report = nonuniformity_experiment(
        interval_256, 3.0, 1.5, one, one, 0.5, family,
        eta_small=0.05, n_lam=2, delta_span=1.0,
        opts=SolveOptions(t_grid=(0.5, 2.0), n_random=1),
    )
    assert len(report.members) == 1 and len(calls) >= 2
    for spec, solve_opts, phi1, ms in calls:
        _assert_bit_identical(ms, multi_start_solve(spec, solve_opts, phi1=phi1))


@pytest.mark.parametrize("a, eigensolves", [(1.0, 1), (2.0, 2)])
def test_sweep_reuses_its_eigenpair_for_the_threshold(interval_256, a, eigensolves, monkeypatch):
    # with a = m = 1 the clamped weight max(a, 0)^((p-1)/(q-1)) has m's nodal values
    import plap.eigen
    from plap.regions import _eta_threshold_closures

    solves = []
    inner = plap.eigen.principal_eigenpair

    def counting(*args, **kw):
        solves.append(args)
        return inner(*args, **kw)

    monkeypatch.setattr(plap.eigen, "principal_eigenpair", counting)
    tmpl = template(interval_256, p=3.0, a=a)
    region_map = sweep(tmpl, [], [], SweepOptions())
    assert len(solves) == eigensolves
    pair = inner(interval_256, tmpl.m, 3.0)
    shared = _eta_threshold_closures(tmpl, region_map.lam1, pair)[0]
    alone = _eta_threshold_closures(tmpl, region_map.lam1)[0]
    assert [shared(f * pair.lam) for f in (0.0, 0.5, 0.9)] == [alone(f * pair.lam) for f in (0.0, 0.5, 0.9)]

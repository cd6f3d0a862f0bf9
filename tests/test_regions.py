import math

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
    opts = SweepOptions(
        solve_opts=SolveOptions(t_grid=(1.0,), n_random=0), lam1_override=1.0
    )
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

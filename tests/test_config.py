import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plap import (
    EigenOptions,
    EtaStarOptions,
    InvalidConfig,
    ParseError,
    ProblemSpec,
    SolveOptions,
    SweepOptions,
    Weight,
    sweep,
)
from plap.config import DEFAULT_SEED, MODE_PARAMS, MODES, SOLVE_OPTIONS, build_mesh, parse_config
from plap.report import write_csv, write_report


MINIMAL = {
    "domain": {"kind": "interval", "bounds": [0, 1], "resolution": 256},
    "p": 2.0,
    "q": 1.5,
    "weights": {"m": 1, "a": 1, "f": 1},
    "mode": "eigen",
}


def cfg_text(**overrides):
    raw = json.loads(json.dumps(MINIMAL))
    raw.update(overrides)
    return json.dumps(raw)


def test_minimal_config_parses():
    cfg = parse_config(cfg_text())
    assert cfg.mode == "eigen"
    assert cfg.seed == DEFAULT_SEED
    assert cfg.weights["m"].kind == "constant"
    mesh = build_mesh(cfg)
    assert mesh.n_vertices == 257
    assert cfg.echo["output"]["report"] == "eigen_report.json"


def test_eigen_needs_only_m():
    cfg = parse_config(cfg_text(weights={"m": 1}))
    mesh = build_mesh(cfg)
    # a and f default to zero and the defaults are echoed
    assert cfg.weights["a"].sign_summary(mesh) == "zero"
    assert cfg.weights["f"].sign_summary(mesh) == "zero"
    assert cfg.echo["weights"]["a"] == 0.0


def test_q_ordering_rejected():
    with pytest.raises(InvalidConfig) as info:
        parse_config(cfg_text(q=2.5))
    assert str(info.value).startswith("q:")
    with pytest.raises(InvalidConfig):
        parse_config(cfg_text(q=1.0))


def test_unknown_weight_function_named():
    bad = json.loads(cfg_text())
    bad["weights"]["a"] = "wobble(x)"
    with pytest.raises(InvalidConfig) as info:
        parse_config(json.dumps(bad))
    msg = str(info.value)
    assert "weights.a" in msg and "wobble" in msg and "position" in msg


def test_bad_json_is_parse_error():
    for text in (b"{not json", b"\xff{}", b"[" * 100_000, b'{"p": 1' + b"0" * 5000 + b"}"):
        with pytest.raises(ParseError):
            parse_config(text)


def test_field_path_errors():
    cases = [
        ({"domain": {"kind": "disk"}}, "domain.kind"),
        ({"domain": {"kind": "interval", "bounds": [1, 0], "resolution": 8}}, "domain.bounds"),
        ({"domain": {"kind": "interval", "bounds": [0, 1], "resolution": 1}}, "domain.resolution"),
        ({"p": "two"}, "p:"),
        ({"mode": "dance"}, "mode"),
        ({"seed": -3}, "seed"),
        ({"mode_params": 7}, "mode_params"),
        ({"mode": "critval"}, "mode_params: needs either lam or lam_frac"),
        ({"mode": "picone-check", "mode_params": {"q_grid": [1.2, 2.5]}}, "mode_params.q_grid[1]"),
        ({"output": {"report": ["r.json"]}}, "output.report"),
        ({"weights": {"m": {"kind": "nodal", "path": 3}}}, "weights.m.path"),
        ({"weights": {"a": 1, "f": 1}}, "weights.m"),
        ({"weights": {"m": True, "a": 1, "f": 1}}, "weights.m"),
        ({"weights": {"m": {"kind": "nodal", "values": []}, "a": 1, "f": 1}}, "weights.m.values"),
    ]
    for overrides, needle in cases:
        with pytest.raises(InvalidConfig) as info:
            parse_config(cfg_text(**overrides))
        assert needle in str(info.value), (overrides, str(info.value))


def test_non_finite_numbers_rejected():
    for overrides, needle in [
        ({"p": float("nan")}, "p:"),
        ({"domain": {"kind": "interval", "bounds": [0, float("inf")], "resolution": 8}}, "domain.bounds[1]"),
        ({"weights": {"m": float("-inf")}}, "weights.m"),
        ({"weights": {"m": {"kind": "nodal", "values": [1.0, float("nan")]}}}, "weights.m.values[1]"),
    ]:
        with pytest.raises(InvalidConfig, match="finite") as info:
            parse_config(cfg_text(**overrides))
        assert needle in str(info.value), (overrides, str(info.value))
    # an integer literal beyond the float range is not finite either
    with pytest.raises(InvalidConfig, match="^q: must be finite"):
        parse_config(cfg_text().replace('"q": 1.5', '"q": 1' + "0" * 400))


def test_mode_params_defaults_match_library_options():
    # the CLI builds option objects from the table, so its defaults are the library's
    solve_mp = parse_config(cfg_text(mode="solve", mode_params={"lam": 1.0})).mode_params
    assert SolveOptions(**{k: solve_mp[k] for k in SOLVE_OPTIONS}) == SolveOptions()
    eigen_mp = parse_config(cfg_text()).mode_params
    assert EigenOptions(tol=eigen_mp["tol"], max_outer=eigen_mp["max_outer"], init=eigen_mp["init"]) == EigenOptions()
    crit_mp = parse_config(cfg_text(mode="critval", mode_params={"lam": 1.0})).mode_params
    assert EtaStarOptions(n_starts=crit_mp["n_starts"], max_iter=crit_mp["max_iter"]) == EtaStarOptions()


def test_mode_params_typed_and_echoed_as_given():
    raw = {"family": [{"center": 1, "radius": 0.5}], "n_lam": 3, "t_grid": [1]}
    cfg = parse_config(cfg_text(mode="nonuniformity", mode_params=raw))
    assert cfg.echo["mode_params"] is not cfg.mode_params
    assert json.dumps(cfg.echo["mode_params"]) == json.dumps(raw)
    mp = cfg.mode_params
    assert mp["family"] == ({"center": 1.0, "radius": 0.5},) and type(mp["family"][0]["center"]) is float
    assert mp["t_grid"] == (1.0,) and mp["n_lam"] == 3 and mp["delta_span"] is None
    assert mp["eps_lambda"] == 1.0 and mp["n_random"] == 2


_KEYS = sorted({key for table in MODE_PARAMS.values() for key in table} | {"rho", "part", "center", "radius"})
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
    | st.sampled_from(["distance_bump", "random", "zero", "strip", "complement"]),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.sampled_from(_KEYS) | st.text(max_size=6), children, max_size=5),
    max_leaves=12,
)


def _leaves(value):
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, (list, tuple)):
        return [leaf for item in value for leaf in _leaves(item)]
    return [value]


# mostly objects keyed by the mode's own fields, so that many draws get past the key check
_MODE_AND_PARAMS = st.sampled_from(MODES).flatmap(
    lambda mode: st.tuples(
        st.just(mode), st.dictionaries(st.sampled_from(sorted(MODE_PARAMS[mode])), _JSON, max_size=4) | _JSON
    )
)


@settings(max_examples=300, deadline=None)
@given(mode_and_params=_MODE_AND_PARAMS)
def test_mode_params_validate_or_raise_config_errors(mode_and_params):
    mode, params = mode_and_params
    text = json.dumps({**MINIMAL, "mode": mode, "mode_params": params})
    try:
        cfg = parse_config(text)
    except (InvalidConfig, ParseError):
        return
    assert set(cfg.mode_params) == set(MODE_PARAMS[mode])
    assert json.dumps(cfg.echo["mode_params"]) == json.dumps(params)
    assert all(math.isfinite(v) for v in _leaves(cfg.mode_params) if isinstance(v, float))


def _edit(obj_and_key):
    """obj less key if it has key, else obj with key (an unknown field) set to 1; key None changes nothing."""
    obj, key = obj_and_key
    if key in obj:
        del obj[key]
    elif key is not None:
        obj[key] = 1
    return obj


def _objects(fields):
    """Objects with the given fields, each drawn from its strategy; at times one is left out or one added."""
    edits = st.sampled_from([None] * 8 + sorted(fields) + ["bogus"])
    return st.tuples(st.fixed_dictionaries(fields), edits).map(_edit)


_EXPRESSIONS = st.sampled_from(["x", "1 - x", "x*y - 0.5", "bump(0.5, 0.1)", "1/x", "exp(1000)", "1e400", "(x"])
_WEIGHT_SPECS = (
    st.floats(-2, 2)
    | _EXPRESSIONS
    | _JSON
    | _objects(
        {
            "kind": st.sampled_from(["constant", "expression", "nodal"]) | _JSON,
            "value": _JSON,
            "src": _EXPRESSIONS | _JSON,
            "values": st.lists(st.floats(-2, 2), min_size=1, max_size=4) | _JSON,
            "path": st.sampled_from(["absent.json", "", 3]),  # none names a readable file
            "gamma": _JSON,
        }
    )
)
# Each level is a valid value or a draw, so that many configs reach the levels after it.
_VALID_PARAMS = {
    "solve": {"lam": 1.0},
    "critval": {"lam_frac": 0.5},
    "nonuniformity": {"family": [{"center": 0.5, "radius": 0.1}]},
}
_CONFIGS = _MODE_AND_PARAMS.flatmap(
    lambda mode_and_params: _objects(
        {
            "domain": st.sampled_from(
                [
                    {"kind": "interval", "bounds": [0, 1], "resolution": 8},
                    {"kind": "rectangle", "bounds": [0, 1, 0, 2], "resolution": [3, 4]},
                ]
            )
            | _objects(
                {
                    "kind": st.sampled_from(["interval", "rectangle"]) | _JSON,
                    "bounds": st.lists(st.floats() | st.integers(), max_size=5) | _JSON,
                    "resolution": st.integers(0, 40) | st.lists(st.integers(0, 40), max_size=3) | _JSON,
                }
            ),
            "p": st.just(3.0) | _JSON,
            "q": st.just(1.5) | _JSON,
            "weights": st.just({"m": 1, "a": "x - 0.5"})
            | _objects({"m": _WEIGHT_SPECS, "a": _WEIGHT_SPECS, "f": _WEIGHT_SPECS}),
            "mode": st.just(mode_and_params[0]),
            "mode_params": st.sampled_from([_VALID_PARAMS.get(mode_and_params[0], {})] * 2 + [mode_and_params[1]]),
            "seed": st.integers(-1, 2**64),
            "output": _objects(
                {"dir": st.text(max_size=6) | _JSON, "csv": st.text(max_size=6), "report": st.text(max_size=6)}
            ),
        }
    )
)


@settings(max_examples=300, deadline=None)
@given(raw=_CONFIGS)
def test_whole_configs_validate_or_raise_config_errors(raw):
    try:
        cfg = parse_config(json.dumps(raw))
    except (InvalidConfig, ParseError):
        return
    assert cfg.mode in MODES and set(cfg.weights) == {"m", "a", "f"}
    assert set(cfg.output) == {"dir", "csv", "report"} and all(isinstance(v, str) for v in cfg.output.values())
    assert all(math.isfinite(v) for v in [cfg.p, cfg.q, *cfg.domain["bounds"]])
    assert json.dumps(cfg.echo["mode_params"]) == json.dumps(raw.get("mode_params", {}))
    weight_objects = [spec for spec in raw["weights"].values() if isinstance(spec, dict)]
    assert all("bogus" not in obj for obj in [raw, raw["domain"], raw["weights"], raw.get("output", {}), *weight_objects])


def test_readme_example_parses():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    (example,) = re.findall(r"```json\n(.*?)```", readme, re.S)
    cfg = parse_config(example)
    assert cfg.mode == "sweep" and cfg.mode_params["lam_grid"] == (2.0, 5.0, 12.0)


def test_missing_nodal_file(tmp_path):
    raw = json.loads(cfg_text())
    raw["weights"]["f"] = {"kind": "nodal", "path": "absent.json"}
    with pytest.raises(InvalidConfig) as info:
        parse_config(json.dumps(raw), base_dir=str(tmp_path))
    assert "does not exist" in str(info.value)


def test_nodal_file_roundtrip(tmp_path):
    values = list(np.linspace(-1, 1, 9))
    (tmp_path / "w.json").write_text(json.dumps(values))
    raw = json.loads(cfg_text(domain={"kind": "interval", "bounds": [0, 1], "resolution": 8}))
    raw["weights"]["m"] = {"kind": "nodal", "path": "w.json", "gamma": 3.0}
    cfg = parse_config(json.dumps(raw), base_dir=str(tmp_path))
    mesh = build_mesh(cfg)
    np.testing.assert_allclose(cfg.weights["m"].values(mesh), values)
    assert cfg.echo["weights"]["m"]["gamma"] == 3.0


def test_rectangle_domain_and_expression_weight():
    raw = json.loads(cfg_text())
    raw["domain"] = {"kind": "rectangle", "bounds": [0, 1, 0, 2], "resolution": [4, 6]}
    raw["weights"]["a"] = "x * y - 0.5"
    cfg = parse_config(json.dumps(raw))
    mesh = build_mesh(cfg)
    assert mesh.n_vertices == 5 * 7
    assert cfg.weights["a"].sign_summary(mesh) == "indefinite"


def _tiny_map(seed):
    mesh = build_mesh(parse_config(cfg_text(domain={"kind": "interval", "bounds": [0, 1], "resolution": 32})))
    one = Weight.constant(1.0)
    tmpl = ProblemSpec(mesh, 2.0, 1.5, 0.0, 0.0, one, one, one)
    opts = SweepOptions(solve_opts=SolveOptions(t_grid=(1.0,), n_random=2, seed=seed))
    return sweep(tmpl, [2.0], [0.0, 0.4], opts)


def test_csv_rows_and_determinism(tmp_path):
    m1 = _tiny_map(7)
    m2 = _tiny_map(7)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(m1, p1)
    write_csv(m2, p2)
    assert p1.read_bytes() == p2.read_bytes()
    lines = p1.read_text().splitlines()
    # one row per (lam, eta, start): 2 cells x (zero + 2 phi starts + 2 random)
    assert lines[0].startswith("lam,eta,p,q,sign_class")
    assert len(lines) == 1 + 2 * 5
    m3 = _tiny_map(8)
    p3 = tmp_path / "c.csv"
    write_csv(m3, p3)
    assert p1.read_bytes() != p3.read_bytes()  # random starts move with the seed


def test_empty_sweep_header_only(tmp_path):
    mesh = build_mesh(parse_config(cfg_text()))
    one = Weight.constant(1.0)
    tmpl = ProblemSpec(mesh, 2.0, 1.5, 0.0, 0.0, one, one, one)
    region_map = sweep(tmpl, [], [], SweepOptions())
    path = tmp_path / "empty.csv"
    write_csv(region_map, path)
    assert path.read_text() == "lam,eta,p,q,sign_class,residual_norm,sup_norm,energy,predicted_by,consistent\n"


def test_report_is_deterministic_json(tmp_path, pair_p2_256):
    p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
    write_report(pair_p2_256, p1, config_echo={"seed": 1})
    write_report(pair_p2_256, p2, config_echo={"seed": 1})
    assert p1.read_bytes() == p2.read_bytes()
    payload = json.loads(p1.read_text())
    assert payload["result"]["lam"] == pytest.approx(pair_p2_256.lam)
    assert payload["config"]["seed"] == 1


def test_report_arrays_convert_as_element_by_element(tmp_path, pair_p2_256, monkeypatch):
    from plap import report

    payload = {
        "pair": pair_p2_256,
        "special": np.array([1.5, np.nan, np.inf, -np.inf, -0.0, 0.0, 1e-300]),
        "ints": np.arange(-3, 4),
        "flags": np.array([True, False]),
        "single": np.array([0.1, np.nan], dtype=np.float32),
        "grid": np.array([[1.0, np.nan], [-np.inf, -0.0], [2.0, np.inf]]),
        "scalar": np.float64(-np.inf),
        "empty": np.zeros((0, 3)),
    }
    fast = tmp_path / "fast.json"
    report.write_report(payload, fast)
    convert = report.to_jsonable

    def per_element(obj):
        # the conversion before arrays took one tolist(): one call per element
        if isinstance(obj, np.ndarray):
            return [per_element(v) for v in obj.tolist()]
        return convert(obj)

    monkeypatch.setattr(report, "to_jsonable", per_element)
    slow = tmp_path / "slow.json"
    report.write_report(payload, slow)
    assert fast.read_bytes() == slow.read_bytes()
    assert '"nan"' in fast.read_text() and '"-inf"' in fast.read_text()

"""Run-configuration parsing (JSON) and validation.

A config names the domain, exponents, weights, the mode and its parameters:

    {
      "domain": {"kind": "interval", "bounds": [0, 1], "resolution": 256},
      "p": 2.0, "q": 1.5,
      "weights": {"m": 1.0, "a": "1 - x", "f": {"kind": "nodal", "path": "f.json"}},
      "mode": "sweep",
      "mode_params": {"lam_grid": [...], "eta_grid": [...]},
      "seed": 12345,
      "output": {"dir": ".", "csv": "sweep.csv", "report": "report.json"}
    }

Weights may be numbers (constants), strings (expressions over x, y), or
objects: {"kind": "nodal", "values": [...]} / {"kind": "nodal", "path": ...}
(a JSON file holding the value list) / {"kind": "constant", "value": c} /
{"kind": "expression", "src": ...}; an optional "gamma" key carries the
integrability exponent as metadata.  Every number must be finite, and a bool
is never read as a number.

Each mode accepts the mode_params keys listed in its MODE_PARAMS table, with
their types, ranges and defaults; an unknown key is an error.  parse_config
hands the runners the validated, defaulted values in RunConfig.mode_params.
Every error names the offending field path, e.g. mode_params.family[0].radius.
The report echo carries the parsed domain, exponents, seed and output block,
and the weights and mode_params exactly as given.  Seeds default to a fixed
constant so bare runs reproduce.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

from .errors import EvalError, InvalidConfig, ParseError
from .expr import parse_expr
from .functions import Weight
from .mesh import build_interval, build_rectangle

__all__ = ["RunConfig", "parse_config", "build_mesh", "MODES", "MODE_PARAMS", "SOLVE_OPTIONS", "DEFAULT_SEED"]

MODES = ("eigen", "solve", "sweep", "critval", "picone-check", "nonuniformity")
DEFAULT_SEED = 12345


@dataclass
class RunConfig:
    domain: dict
    p: float
    q: float
    weights: dict  # name -> Weight
    mode: str
    mode_params: dict  # validated and defaulted, per MODE_PARAMS[mode]
    seed: int
    output: dict
    echo: dict = field(default_factory=dict)


def _fail(path, reason):
    raise InvalidConfig(f"{path}: {reason}")


def _require_number(obj, path, low=None, high=None):
    if not isinstance(obj, (int, float)) or isinstance(obj, bool):
        _fail(path, f"expected a number, got {type(obj).__name__}")
    try:
        val = float(obj)
    except OverflowError:  # an integer literal beyond the float range
        val = math.inf
    if not math.isfinite(val):
        _fail(path, f"must be finite, got {val}")
    if low is not None and val < low:
        _fail(path, f"must be >= {low}, got {val}")
    if high is not None and val > high:
        _fail(path, f"must be <= {high}, got {val}")
    return val


def _require_int(obj, path, low=None):
    if isinstance(obj, bool) or not isinstance(obj, int):
        _fail(path, f"expected an integer, got {type(obj).__name__}")
    if low is not None and obj < low:
        _fail(path, f"must be >= {low}, got {obj}")
    return obj


_REQUIRED = object()  # default of a field that has none


def _positive(obj, path):
    val = _require_number(obj, path)
    if val <= 0:
        _fail(path, f"must be positive, got {val}")
    return val


def _count(low):
    return lambda obj, path: _require_int(obj, path, low=low)


def _flag(obj, path):
    if not isinstance(obj, bool):
        _fail(path, f"expected true or false, got {type(obj).__name__}")
    return obj


def _choice(*allowed):
    def check(obj, path):
        if not isinstance(obj, str) or obj not in allowed:
            _fail(path, f"expected one of {allowed}, got {obj!r}")
        return obj

    return check


def _list_of(item, nonempty=False):
    def check(obj, path):
        if not isinstance(obj, list) or (nonempty and not obj):
            _fail(path, "expected a nonempty list" if nonempty else "expected a list")
        return tuple(item(v, f"{path}[{i}]") for i, v in enumerate(obj))

    return check


def _object(fields):
    return lambda obj, path: _check_fields(obj, fields, path)


def _check_fields(raw, fields, path):
    """Validate the object raw against fields (name -> (check, default))."""
    if not isinstance(raw, dict):
        _fail(path, "expected an object")
    for key in raw:
        if key not in fields:
            _fail(f"{path}.{key}", f"unknown field; expected one of {', '.join(fields)}")
    out = {}
    for key, (check, default) in fields.items():
        if key in raw:
            out[key] = check(raw[key], f"{path}.{key}")
        elif default is _REQUIRED:
            _fail(f"{path}.{key}", "missing required field")
        else:
            out[key] = default
    return out


# The mode_params keys that are SolveOptions fields, for the multi-start modes.
SOLVE_OPTIONS = {
    "newton_tol": (_require_number, 1e-10),
    "max_newton": (_count(1), 60),
    "lam1": (_require_number, None),
    "t_grid": (_list_of(_require_number), (0.5, 1.0, 2.0, 4.0, 8.0)),
    "n_random": (_count(0), 2),
    "dedup_tol": (_require_number, 1e-6),
}

# mode -> mode_params key -> (check, default); check(raw, path) returns the typed value.
MODE_PARAMS = {
    "eigen": {
        "tol": (_require_number, None),
        "max_outer": (_count(1), 500),
        "init": (_choice("distance_bump", "random"), "distance_bump"),
        "negative": (_flag, False),
        "subdomain": (
            _object({"rho": (_positive, _REQUIRED), "part": (_choice("strip", "complement"), "strip")}),
            None,
        ),
    },
    "solve": {
        "lam": (_require_number, _REQUIRED),
        "eta": (_require_number, 0.0),
        "init": (_choice("zero"), "zero"),
        **SOLVE_OPTIONS,
    },
    "sweep": {
        "lam_grid": (_list_of(_require_number), None),
        "eta_grid": (_list_of(_require_number), None),
        "n_lam": (_count(1), 61),
        "n_eta": (_count(1), 21),
        "eta_star_starts": (_count(1), 32),
        **SOLVE_OPTIONS,
    },
    "critval": {
        # one of lam and lam_frac is required; lam wins when both are given
        "lam": (_require_number, None),
        "lam_frac": (_require_number, None),
        "n_starts": (_count(1), 32),
        "max_iter": (_count(1), 600),
    },
    "picone-check": {
        "q_grid": (_list_of(_require_number), ()),
        "discrete_trials": (_count(0), 0),
        "eps": (_list_of(_positive), (0.1, 1e-3)),
    },
    "nonuniformity": {
        "family": (
            _list_of(
                _object({"center": (_require_number, _REQUIRED), "radius": (_positive, _REQUIRED)}), nonempty=True
            ),
            _REQUIRED,
        ),
        "eps_lambda": (_require_number, 1.0),
        "eta_small": (_require_number, 0.05),
        "n_lam": (_count(1), 40),
        "delta_span": (_positive, None),
        **SOLVE_OPTIONS,
    },
}


def _parse_domain(raw, path):
    if not isinstance(raw, dict):
        _fail(path, "expected an object")
    kind = raw.get("kind")
    if kind not in ("interval", "rectangle"):
        _fail(f"{path}.kind", f"expected 'interval' or 'rectangle', got {kind!r}")
    bounds = raw.get("bounds")
    if kind == "interval":
        if not (isinstance(bounds, list) and len(bounds) == 2):
            _fail(f"{path}.bounds", "interval needs [x0, x1]")
        x0 = _require_number(bounds[0], f"{path}.bounds[0]")
        x1 = _require_number(bounds[1], f"{path}.bounds[1]")
        if x1 <= x0:
            _fail(f"{path}.bounds", f"x1 must exceed x0, got [{x0}, {x1}]")
        res = _require_int(raw.get("resolution", 256), f"{path}.resolution", low=2)
        return {"kind": kind, "bounds": [x0, x1], "resolution": res}
    if not (isinstance(bounds, list) and len(bounds) == 4):
        _fail(f"{path}.bounds", "rectangle needs [x0, x1, y0, y1]")
    vals = [_require_number(b, f"{path}.bounds[{i}]") for i, b in enumerate(bounds)]
    if vals[1] <= vals[0] or vals[3] <= vals[2]:
        _fail(f"{path}.bounds", f"degenerate rectangle {vals}")
    res = raw.get("resolution", [16, 16])
    if isinstance(res, int):
        res = [res, res]
    if not (isinstance(res, list) and len(res) == 2):
        _fail(f"{path}.resolution", "rectangle needs [nx, ny] or a single integer")
    nx = _require_int(res[0], f"{path}.resolution[0]", low=2)
    ny = _require_int(res[1], f"{path}.resolution[1]", low=2)
    return {"kind": kind, "bounds": vals, "resolution": [nx, ny]}


def _parse_weight(raw, path, base_dir):
    gamma = None
    if isinstance(raw, dict) and "gamma" in raw:
        gamma = _require_number(raw["gamma"], f"{path}.gamma", low=1.0)
    if isinstance(raw, (int, float)) and not isinstance(raw, bool):
        return Weight.constant(_require_number(raw, path), gamma)
    if isinstance(raw, str):
        try:
            return Weight("expression", parse_expr(raw), gamma)
        except ParseError as exc:
            _fail(path, f"bad expression: {exc}")
    if isinstance(raw, dict):
        kind = raw.get("kind")
        if kind == "constant":
            return Weight.constant(_require_number(raw.get("value"), f"{path}.value"), gamma)
        if kind == "expression":
            src = raw.get("src")
            if not isinstance(src, str):
                _fail(f"{path}.src", "expected an expression string")
            try:
                return Weight("expression", parse_expr(src), gamma)
            except ParseError as exc:
                _fail(f"{path}.src", f"bad expression: {exc}")
        if kind == "nodal":
            if "path" in raw:
                if not isinstance(raw["path"], str):
                    _fail(f"{path}.path", "expected a file path string")
                file_path = os.path.join(base_dir, raw["path"])
                if not os.path.exists(file_path):
                    _fail(f"{path}.path", f"referenced file {file_path!r} does not exist")
                try:
                    with open(file_path, "r", encoding="utf-8") as handle:
                        values = json.load(handle)
                except (OSError, ValueError) as exc:  # ValueError covers bad JSON and bad UTF-8
                    _fail(f"{path}.path", f"could not read nodal values: {exc}")
            else:
                values = raw.get("values")
            if not isinstance(values, list) or not values:
                _fail(f"{path}.values", "expected a nonempty list of numbers")
            vals = [_require_number(v, f"{path}.values[{i}]") for i, v in enumerate(values)]
            return Weight.nodal(vals, gamma)
        _fail(f"{path}.kind", f"expected 'constant', 'expression' or 'nodal', got {kind!r}")
    _fail(path, f"expected a number, expression string or weight object, got {type(raw).__name__}")


def parse_config(text, base_dir="."):
    """Parse and validate a JSON run configuration.

    Raises InvalidConfig with the field path and reason for every violated
    invariant.  Returns a RunConfig whose mode_params hold the validated,
    defaulted values and whose echo holds the parsed configuration, with
    mode_params as given.
    """
    try:
        if isinstance(text, bytes):
            text = text.decode("utf-8")
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"config is not valid JSON: {exc.msg}", exc.pos)
    except ValueError as exc:  # bad UTF-8, or an integer literal too long to convert
        raise ParseError(f"config is not valid JSON: {exc}")
    except RecursionError:
        raise ParseError("config is not valid JSON: nested too deeply")
    if not isinstance(raw, dict):
        _fail("<root>", "top level must be an object")
    for key in ("domain", "p", "q", "weights", "mode"):
        if key not in raw:
            _fail(key, "missing required field")

    domain = _parse_domain(raw["domain"], "domain")
    p = _require_number(raw["p"], "p")
    if p <= 1.0:
        _fail("p", f"must exceed 1, got {p}")
    q = _require_number(raw["q"], "q")
    if not 1.0 < q < p:
        _fail("q", f"must satisfy 1 < q < p = {p}, got {q}")

    weights_raw = raw["weights"]
    if not isinstance(weights_raw, dict):
        _fail("weights", "expected an object with keys m, a, f")
    if "m" not in weights_raw:
        _fail("weights.m", "missing weight")
    weights = {}
    for name in ("m", "a", "f"):
        # a and f default to zero (the unperturbed, source-free problem)
        spec = weights_raw.get(name, 0.0)
        weights[name] = _parse_weight(spec, f"weights.{name}", base_dir)

    mode = raw["mode"]
    if mode not in MODES:
        _fail("mode", f"expected one of {MODES}, got {mode!r}")
    mode_params_raw = raw.get("mode_params", {})
    mode_params = _check_fields(mode_params_raw, MODE_PARAMS[mode], "mode_params")
    if mode == "critval" and mode_params["lam"] is None and mode_params["lam_frac"] is None:
        _fail("mode_params", "needs either lam or lam_frac")
    if mode == "picone-check":
        for i, qv in enumerate(mode_params["q_grid"]):
            if not 1.0 < qv < p:
                _fail(f"mode_params.q_grid[{i}]", f"must satisfy 1 < q < p = {p}, got {qv}")
    seed = raw.get("seed", DEFAULT_SEED)
    seed = _require_int(seed, "seed", low=0)
    output_raw = raw.get("output", {})
    if not isinstance(output_raw, dict):
        _fail("output", "expected an object")
    output = {"dir": ".", "csv": "sweep.csv", "report": f"{mode.replace('-', '_')}_report.json"}
    for key in output:
        if key in output_raw:
            if not isinstance(output_raw[key], str) or "\0" in output_raw[key]:
                _fail(f"output.{key}", "expected a path string")
            output[key] = output_raw[key]

    echo = {
        "domain": domain,
        "p": p,
        "q": q,
        "weights": {name: weights_raw.get(name, 0.0) for name in ("m", "a", "f")},
        "mode": mode,
        "mode_params": mode_params_raw,
        "seed": seed,
        "output": output,
    }
    return RunConfig(
        domain=domain,
        p=p,
        q=q,
        weights=weights,
        mode=mode,
        mode_params=mode_params,
        seed=seed,
        output=output,
        echo=echo,
    )


def build_mesh(config):
    """Construct the Mesh named by a RunConfig's domain block.

    Every weight is evaluated on it here (Weight.values caches the result), so
    a weight that fails on this mesh is an InvalidConfig naming weights.<name>.
    """
    dom = config.domain
    if dom["kind"] == "interval":
        x0, x1 = dom["bounds"]
        mesh = build_interval(x0, x1, dom["resolution"])
    else:
        x0, x1, y0, y1 = dom["bounds"]
        nx, ny = dom["resolution"]
        mesh = build_rectangle(x0, x1, y0, y1, nx, ny)
    for name, weight in config.weights.items():
        try:
            weight.values(mesh)
        except (EvalError, InvalidConfig) as exc:
            _fail(f"weights.{name}", str(exc))
    return mesh

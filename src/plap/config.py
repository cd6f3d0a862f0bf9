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

Every level has a table of its fields, name -> (check, default), and
_check_fields validates an object against it: an unknown key is an error, and
an omitted key reads as its default, checked like a given value (None stays
None); an option's default is its field's in SolveOptions, EigenOptions or
EtaStarOptions.  The top level picks its table, and so the MODE_PARAMS table of
mode_params, by "mode"; the domain and a weight object pick theirs by "kind".
Every error names the field path, e.g. mode_params.family[0].radius.

Weights may be numbers (constants), strings (expressions over x, y), or
objects: {"kind": "nodal", "values": [...]} / {"kind": "nodal", "path": ...}
(a JSON file holding the value list) / {"kind": "constant", "value": c} /
{"kind": "expression", "src": ...}, with an optional "gamma" >= 1 that is
only echoed.  Numbers must be finite, and a bool is never read as a number;
build_mesh checks that expression weights are finite at every vertex.  The
report echo carries the parsed domain, exponents, seed and output block, and
the weights and mode_params exactly as given.  Seeds default to a fixed
constant so bare runs reproduce.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

from .bvp import SolveOptions
from .critical import EtaStarOptions
from .eigen import EigenOptions
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
    # the top level's path is "", so its fields' paths start with a dot
    raise InvalidConfig(f"{path.removeprefix('.') or '<root>'}: {reason}")


def _require_number(obj, path, low=None):
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
    return val


_REQUIRED = object()  # default of a field that has none


def _given(obj, path):
    return obj


def _above(low):
    def check(obj, path):
        val = _require_number(obj, path)
        if val <= low:
            _fail(path, f"must exceed {low}, got {val}")
        return val

    return check


_positive = _above(0)


def _count(low):
    def check(obj, path):
        if isinstance(obj, bool) or not isinstance(obj, int):
            _fail(path, f"expected an integer, got {type(obj).__name__}")
        if obj < low:
            _fail(path, f"must be >= {low}, got {obj}")
        return obj

    return check


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


def _path_string(obj, path):
    if not isinstance(obj, str) or "\0" in obj:
        _fail(path, "expected a path string")
    return obj


def _expression(obj, path):
    if not isinstance(obj, str):
        _fail(path, "expected an expression string")
    try:
        return parse_expr(obj)
    except ParseError as exc:
        _fail(path, f"bad expression: {exc}")


def _list_of(item, nonempty=False):
    def check(obj, path):
        if not isinstance(obj, list) or (nonempty and not obj):
            _fail(path, "expected a nonempty list" if nonempty else "expected a list")
        return tuple(item(v, f"{path}[{i}]") for i, v in enumerate(obj))

    return check


def _bounds(size):
    """[x0, x1] or [x0, x1, y0, y1], each upper bound above its lower one."""
    numbers = _list_of(_require_number)

    def check(obj, path):
        vals = list(numbers(obj, path))
        if len(vals) != size or any(hi <= lo for lo, hi in zip(vals[::2], vals[1::2])):
            _fail(path, f"expected {size} numbers, each upper bound above its lower one, got {vals}")
        return vals

    return check


def _cells(obj, path):
    """A rectangle's [nx, ny] cell counts; one integer n stands for [n, n]."""
    counts = [obj, obj] if isinstance(obj, int) else obj
    if not (isinstance(counts, list) and len(counts) == 2):
        _fail(path, "expected [nx, ny] or a single integer")
    return [_count(2)(n, f"{path}[{i}]") for i, n in enumerate(counts)]


def _object(fields):
    return lambda obj, path: _check_fields(obj, fields, path)


def _by_kind(tag, tables):
    """Check an object whose tag field names the table of its fields."""
    tables = {kind: {tag: (_given, _REQUIRED), **fields} for kind, fields in tables.items()}
    pick = _choice(*tables)

    def check(obj, path):
        if not isinstance(obj, dict):
            _fail(path, "expected an object")
        return _check_fields(obj, tables[pick(obj.get(tag), f"{path}.{tag}")], path)

    return check


def _check_fields(raw, fields, path):
    """Validate the object raw against fields (name -> (check, default))."""
    if not isinstance(raw, dict):
        _fail(path, "expected an object")
    for key in raw:
        if key not in fields:
            _fail(f"{path}.{key}", f"unknown field; expected one of {', '.join(fields)}")
    out = {}
    for key, (check, default) in fields.items():
        sub = f"{path}.{key}"
        if key in raw:
            out[key] = check(raw[key], sub)
        elif default is _REQUIRED:
            _fail(sub, "missing required field")
        else:
            out[key] = None if default is None else check(default, sub)
    return out


# The mode_params keys that are SolveOptions fields, for the multi-start modes (t_grid's default as a list).
SOLVE_OPTIONS = {
    "newton_tol": (_require_number, SolveOptions.newton_tol),
    "max_newton": (_count(1), SolveOptions.max_newton),
    "lam1": (_require_number, SolveOptions.lam1),
    "t_grid": (_list_of(_require_number), list(SolveOptions.t_grid)),
    "n_random": (_count(0), SolveOptions.n_random),
    "dedup_tol": (_require_number, SolveOptions.dedup_tol),
}

# mode -> mode_params key -> (check, default); check(raw, path) returns the typed value.
MODE_PARAMS = {
    "eigen": {
        "tol": (_require_number, EigenOptions.tol),
        "max_outer": (_count(1), EigenOptions.max_outer),
        "init": (_choice("distance_bump", "random"), EigenOptions.init),
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
        "eta_star_starts": (_count(1), EtaStarOptions.n_starts),
        **SOLVE_OPTIONS,
    },
    "critval": {
        # one of lam and lam_frac is required; lam wins when both are given
        "lam": (_require_number, None),
        "lam_frac": (_require_number, None),
        "n_starts": (_count(1), EtaStarOptions.n_starts),
        "max_iter": (_count(1), EtaStarOptions.max_iter),
    },
    "picone-check": {
        "q_grid": (_list_of(_require_number), []),
        "discrete_trials": (_count(0), 0),
        "eps": (_list_of(_positive), [0.1, 1e-3]),
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

_DOMAINS = {
    "interval": {"bounds": (_bounds(2), _REQUIRED), "resolution": (_count(2), 256)},
    "rectangle": {"bounds": (_bounds(4), _REQUIRED), "resolution": (_cells, 16)},
}

_GAMMA = (lambda obj, path: _require_number(obj, path, low=1.0), None)  # only echoed
_NODAL_VALUES = _list_of(_require_number, nonempty=True)
_WEIGHT_OBJECT = _by_kind(
    "kind",
    {
        "constant": {"value": (_require_number, _REQUIRED), "gamma": _GAMMA},
        "expression": {"src": (_expression, _REQUIRED), "gamma": _GAMMA},
        # _parse_weight checks nodal values once they are read, from the config or a file
        "nodal": {"values": (_given, None), "path": (_path_string, None), "gamma": _GAMMA},
    },
)


def _top_level(mode):
    # _parse_weight checks each weight; a and f default to zero (no perturbation, no source)
    report = f"{mode.replace('-', '_')}_report.json"
    output = {"dir": (_path_string, "."), "csv": (_path_string, "sweep.csv"), "report": (_path_string, report)}
    return {
        "domain": (_by_kind("kind", _DOMAINS), _REQUIRED),
        "p": (_above(1), _REQUIRED),
        "q": (_require_number, _REQUIRED),  # 1 < q < p, checked in parse_config
        "weights": (_object({"m": (_given, _REQUIRED), "a": (_given, 0.0), "f": (_given, 0.0)}), _REQUIRED),
        "mode_params": (_object(MODE_PARAMS[mode]), {}),
        "seed": (_count(0), DEFAULT_SEED),
        "output": (_object(output), {}),
    }


_CONFIG = _by_kind("mode", {mode: _top_level(mode) for mode in MODES})


def _parse_weight(raw, path, base_dir):
    if isinstance(raw, (int, float)) and not isinstance(raw, bool):
        return Weight.constant(_require_number(raw, path))
    if isinstance(raw, str):
        return Weight("expression", _expression(raw, path))
    if not isinstance(raw, dict):
        _fail(path, f"expected a number, expression string or weight object, got {type(raw).__name__}")
    spec = _WEIGHT_OBJECT(raw, path)
    if spec["kind"] == "constant":
        return Weight.constant(spec["value"])
    if spec["kind"] == "expression":
        return Weight("expression", spec["src"])
    values = spec["values"]
    if spec["path"] is not None:
        file_path = os.path.join(base_dir, spec["path"])
        if not os.path.exists(file_path):
            _fail(f"{path}.path", f"referenced file {file_path!r} does not exist")
        try:
            with open(file_path, "r", encoding="utf-8") as handle:
                values = json.load(handle)
        except (OSError, ValueError, RecursionError) as exc:  # ValueError covers bad JSON and bad UTF-8
            _fail(f"{path}.path", f"could not read nodal values: {exc}")
    return Weight.nodal(_NODAL_VALUES(values, f"{path}.values"))


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
    cfg = _CONFIG(raw, "")
    p, q, mode, mode_params = cfg["p"], cfg["q"], cfg["mode"], cfg["mode_params"]
    if not 1.0 < q < p:
        _fail("q", f"must satisfy 1 < q < p = {p}, got {q}")
    weights = {name: _parse_weight(spec, f"weights.{name}", base_dir) for name, spec in cfg["weights"].items()}
    if mode == "critval" and mode_params["lam"] is None and mode_params["lam_frac"] is None:
        _fail("mode_params", "needs either lam or lam_frac")
    if mode == "picone-check":
        for i, qv in enumerate(mode_params["q_grid"]):
            if not 1.0 < qv < p:
                _fail(f"mode_params.q_grid[{i}]", f"must satisfy 1 < q < p = {p}, got {qv}")
    echo = {**cfg, "mode_params": raw.get("mode_params", {})}
    return RunConfig(cfg["domain"], p, q, weights, mode, mode_params, cfg["seed"], cfg["output"], echo)


def build_mesh(config):
    """Construct the Mesh named by a RunConfig's domain block.

    Every weight is evaluated on it here (Weight.values memoizes the result in mesh.derived), so
    a weight that fails on this mesh is an InvalidConfig naming weights.<name>.
    """
    dom = config.domain
    if dom["kind"] == "interval":
        mesh = build_interval(*dom["bounds"], dom["resolution"])
    else:
        mesh = build_rectangle(*dom["bounds"], *dom["resolution"])
    for name, weight in config.weights.items():
        try:
            weight.values(mesh)
        except (EvalError, InvalidConfig) as exc:
            _fail(f"weights.{name}", str(exc))
    return mesh

"""Deterministic CSV and JSON report writers.

Identical inputs and seeds produce byte-identical files: fixed column order,
17 significant digits for CSV numbers, "\n" newlines, sorted JSON keys.
"""

from __future__ import annotations

import dataclasses
import json
import math

import numpy as np

from .errors import IoError
from .functions import DiscreteFunction

__all__ = ["write_csv", "write_report", "to_jsonable"]

CSV_COLUMNS = (
    "lam",
    "eta",
    "p",
    "q",
    "sign_class",
    "residual_norm",
    "sup_norm",
    "energy",
    "predicted_by",
    "consistent",
)


def _fmt(x):
    if isinstance(x, float):
        if math.isnan(x):
            return "nan"
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        return f"{x:.17g}"
    return str(x)


def write_csv(region_map, path):
    """One row per (lam, eta, start); cells in grid order, starts in run order."""
    lines = [",".join(CSV_COLUMNS)]
    consistency = {True: "true", False: "false", None: "na"}
    for i in range(len(region_map.lam_grid)):
        for j in range(len(region_map.eta_grid)):
            cell = region_map.cells[(i, j)]
            predicted = ";".join(cell.predicted)
            cons = consistency[cell.consistent]
            for row in cell.rows:
                lines.append(
                    ",".join(
                        (
                            _fmt(cell.lam),
                            _fmt(cell.eta),
                            _fmt(region_map.p),
                            _fmt(region_map.q),
                            row.sign_class,
                            _fmt(row.residual_norm),
                            _fmt(row.sup_norm),
                            _fmt(row.energy),
                            predicted,
                            cons,
                        )
                    )
                )
    data = ("\n".join(lines) + "\n").encode("utf-8")
    try:
        with open(path, "wb") as handle:
            handle.write(data)
    except OSError as exc:
        raise IoError(f"could not write CSV {path!r}: {exc}") from exc


def to_jsonable(obj):
    """Recursively convert results (dataclasses, arrays, maps) to JSON values."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        if math.isnan(obj):
            return "nan"
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        return obj
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return to_jsonable(float(obj))
    if isinstance(obj, np.ndarray):
        if obj.dtype.kind not in "biuf" or obj.ndim == 0:
            return to_jsonable(obj.tolist())
        # one tolist(); only the non-finite floats need a JSON spelling
        values = obj.tolist()
        for index in zip(*np.nonzero(~np.isfinite(obj))):
            row = values
            for i in index[:-1]:
                row = row[i]
            row[index[-1]] = to_jsonable(row[index[-1]])
        return values
    if isinstance(obj, DiscreteFunction):
        return {"values": to_jsonable(obj.values)}
    if hasattr(obj, "summary") and callable(obj.summary):
        return to_jsonable(obj.summary())
    if dataclasses.is_dataclass(obj):
        out = {}
        for f in dataclasses.fields(obj):
            if f.name in ("mesh", "domain_mask"):
                continue
            out[f.name] = to_jsonable(getattr(obj, f.name))
        return out
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set, frozenset)):
        seq = sorted(obj) if isinstance(obj, (set, frozenset)) else obj
        return [to_jsonable(v) for v in seq]
    return repr(obj)


def write_report(obj, path, config_echo=None):
    """JSON report with sorted keys; the config echo rides along when given."""
    payload = {"result": to_jsonable(obj)}
    if config_echo is not None:
        payload["config"] = to_jsonable(config_echo)
    data = (json.dumps(payload, sort_keys=True, indent=2) + "\n").encode("utf-8")
    try:
        with open(path, "wb") as handle:
            handle.write(data)
    except OSError as exc:
        raise IoError(f"could not write report {path!r}: {exc}") from exc

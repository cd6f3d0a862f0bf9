"""The benchmark's --trace 1 wraps plap functions by name; a rename must fail here, not silently."""

import importlib
import importlib.util
from pathlib import Path


def load_spans():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves():
    for module_name, attr in load_spans().TARGETS:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            owner = getattr(owner, part)
        assert callable(owner), f"{module_name}.{attr}"

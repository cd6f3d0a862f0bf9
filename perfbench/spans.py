"""Span recorder that wraps plap's public functions from outside the package.

Installing a Tracer replaces every binding of each target function -- the
defining module's attribute, every ``from ... import`` copy in another plap
module, and class attributes for methods -- with a wrapper that records one
span per call: name, start, end, parent span and run id.  Functions imported
lazily inside a function body read the defining module's attribute at call
time, so they are covered too.  Spans stay in memory until ``write`` is
called at the end of the run.

Per-layer metrics are computed from the spans of one run id: inclusive busy
time (nested calls of the same name counted once), self time (duration minus
direct children), call and failure counts, and counts of one span name under
another (for example flux evaluations under ``bvp.solve``).
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from contextlib import contextmanager

# (module, attribute) pairs; "Class.method" wraps the method on the class.
# Pure kernels called once per vertex or per residual term (eval_expr,
# smoothed_odd_power, ...) are left out: their spans would cost more than the
# work they time.
TARGETS = (
    ("plap.config", "parse_config"),
    ("plap.config", "build_mesh"),
    ("plap.mesh", "build_interval"),
    ("plap.mesh", "build_rectangle"),
    ("plap.mesh", "boundary_strip"),
    ("plap.expr", "parse_expr"),
    ("plap.functions", "Weight.values"),
    ("plap.functions", "grad_energy"),
    ("plap.fem", "p_flux"),
    ("plap.fem", "p_flux_jacobian"),
    ("plap.fem", "restrict"),
    ("plap.fem", "solve_sparse"),
    ("plap.eigen", "principal_eigenpair"),
    ("plap.eigen", "principal_eigenpair_negative"),
    ("plap.eigen", "subdomain_eigenvalue"),
    ("plap.eigen", "second_eigenvalue_1d"),
    ("plap.bvp", "solve"),
    ("plap.bvp", "multi_start_solve"),
    ("plap.bvp", "energy"),
    ("plap.critical", "eta_star"),
    ("plap.critical", "picone_polynomial_check"),
    ("plap.critical", "discrete_picone_check"),
    ("plap.regions", "sweep"),
    ("plap.regions", "check_hypotheses"),
    ("plap.regions", "nonuniformity_experiment"),
    ("plap.report", "write_csv"),
    ("plap.report", "write_report"),
)

# values read off return values, summed per span name
OBSERVERS = {
    "eigen.principal_eigenpair": lambda pair: {"outer_iters": pair.iterations},
    "critical.eta_star": lambda res: {"starts": res.starts_used},
    "bvp.multi_start_solve": lambda ms: {"distinct": len(ms.outcomes), "attempted": len(ms.per_start)},
}

CLI_MODES = ("eigen", "solve", "sweep", "critval", "picone-check", "nonuniformity")


def _span_name(module, attr):
    return f"{module.removeprefix('plap.')}.{attr}"


class Tracer:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self):
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.runs = []
        self.failed = []
        self.observed = []
        self.run_id = 0
        self._stack = []
        self._restore = []

    def _open(self, name):
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.runs.append(self.run_id)
        self.failed.append(False)
        self.observed.append(None)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def _close(self, idx):
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        idx = self._open(name)
        try:
            yield
        except BaseException:
            self.failed[idx] = True
            raise
        finally:
            self._close(idx)

    def _wrap(self, fn, name):
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                self.failed[idx] = True
                raise
            finally:
                self._close(idx)
            if observe is not None:
                self.observed[idx] = observe(out)
            return out

        return traced

    def install(self):
        """Replace every binding of every target inside the loaded plap modules."""
        modules = [m for n, m in sorted(sys.modules.items()) if n == "plap" or n.startswith("plap.")]
        for module_name, attr in TARGETS:
            name = _span_name(module_name, attr)
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                setattr(cls, meth, self._wrap(original, name))
                self._restore.append((cls, meth, original))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(original, name)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._restore.append((module, key, original))

    def uninstall(self):
        for target, key, original in reversed(self._restore):
            setattr(target, key, original)
        self._restore.clear()

    def write(self, path):
        """Write every span as one tab-separated line."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("run\tid\tparent\tname\tstart_s\tend_s\tfailed\n")
            for i, name in enumerate(self.names):
                handle.write(
                    f"{self.runs[i]}\t{i}\t{self.parents[i]}\t{name}\t"
                    f"{self.starts[i]:.9f}\t{self.ends[i]:.9f}\t{int(self.failed[i])}\n"
                )


class RunView:
    """Spans of one run id with the aggregate queries the metrics need."""

    def __init__(self, tracer, run_id):
        self.t = tracer
        self.by_name = {}
        self.child_time = {}
        for i, run in enumerate(tracer.runs):
            if run != run_id:
                continue
            self.by_name.setdefault(tracer.names[i], []).append(i)
            parent = tracer.parents[i]
            if parent >= 0:
                self.child_time[parent] = self.child_time.get(parent, 0.0) + self.dur(i)

    def dur(self, i):
        return self.t.ends[i] - self.t.starts[i]

    def of(self, name):
        return self.by_name.get(name, [])

    def ancestor(self, i, names):
        """Nearest enclosing span whose name is in names, or -1."""
        parent = self.t.parents[i]
        while parent >= 0 and self.t.names[parent] not in names:
            parent = self.t.parents[parent]
        return parent

    def calls(self, name):
        return len(self.of(name))

    def busy_s(self, name):
        """Inclusive time, counting a call nested in another of the same name once."""
        return sum((self.dur(i) for i in self.of(name) if self.ancestor(i, (name,)) < 0), 0.0)

    def self_s(self, name):
        return sum((self.dur(i) - self.child_time.get(i, 0.0) for i in self.of(name)), 0.0)

    def fails(self, name):
        return sum(self.t.failed[i] for i in self.of(name))

    def observed_sum(self, name, key):
        return sum(self.t.observed[i][key] for i in self.of(name) if self.t.observed[i])

    def under(self, name, owner, owners=None):
        """Spans called name whose nearest enclosing span among owners is an owner span.

        owners defaults to (owner,), which makes this "anywhere below owner".
        """
        owners = owners or (owner,)
        count = 0
        for i in self.of(name):
            a = self.ancestor(i, owners)
            if a >= 0 and self.t.names[a] == owner:
                count += 1
        return count


# span names that own the kernel calls below them
_OWNERS = ("bvp.solve", "eigen.principal_eigenpair", "critical.eta_star")


def layer_metrics(v):
    """Per-layer metrics of one RunView; counts are exact, times in seconds."""
    out = {
        "config.parse_config.s": v.busy_s("config.parse_config"),
        "config.build_mesh.s": v.busy_s("config.build_mesh"),
        "mesh.build_rectangle.s": v.busy_s("mesh.build_rectangle"),
        "functions.Weight.values.calls": v.calls("functions.Weight.values"),
        "functions.Weight.values.s": v.busy_s("functions.Weight.values"),
    }
    for kernel in ("p_flux", "p_flux_jacobian", "restrict", "solve_sparse"):
        out[f"fem.{kernel}.calls"] = v.calls(f"fem.{kernel}")
        out[f"fem.{kernel}.s"] = v.busy_s(f"fem.{kernel}")
    out["fem.solve_sparse.fail"] = v.fails("fem.solve_sparse")

    solve_s = v.busy_s("bvp.solve")
    failed_solve_s = sum(v.dur(i) for i in v.of("bvp.solve") if v.t.failed[i])
    newton = v.under("fem.p_flux_jacobian", "bvp.solve")
    residuals = v.under("fem.p_flux", "bvp.solve")
    attempted = v.observed_sum("bvp.multi_start_solve", "attempted")
    out.update(
        {
            "bvp.solve.calls": v.calls("bvp.solve"),
            "bvp.solve.s": solve_s,
            "bvp.solve.fail": v.fails("bvp.solve"),
            "bvp.multi_start_solve.calls": v.calls("bvp.multi_start_solve"),
            "bvp.multi_start_solve.s": v.busy_s("bvp.multi_start_solve"),
            "bvp.newton_iters": newton,
            "bvp.residual_evals": residuals,
            "bvp.residual_evals_per_iter": residuals / newton if newton else 0.0,
            "bvp.failed_start_s_share": failed_solve_s / solve_s if solve_s else 0.0,
            "bvp.distinct_per_start": (
                v.observed_sum("bvp.multi_start_solve", "distinct") / attempted if attempted else 0.0
            ),
            "eigen.principal_eigenpair.calls": v.calls("eigen.principal_eigenpair"),
            "eigen.principal_eigenpair.s": v.busy_s("eigen.principal_eigenpair"),
            "eigen.principal_eigenpair.outer_iters": v.observed_sum("eigen.principal_eigenpair", "outer_iters"),
            "eigen.inner_newton_iters": v.under("fem.p_flux_jacobian", "eigen.principal_eigenpair", _OWNERS),
            "eigen.second_eigenvalue_1d.calls": v.calls("eigen.second_eigenvalue_1d"),
            "eigen.second_eigenvalue_1d.s": v.busy_s("eigen.second_eigenvalue_1d"),
            "critical.eta_star.calls": v.calls("critical.eta_star"),
            "critical.eta_star.s": v.busy_s("critical.eta_star"),
            "critical.eta_star.starts": v.observed_sum("critical.eta_star", "starts"),
            "critical.grad_evals": v.under("fem.p_flux", "critical.eta_star", _OWNERS),
            "functions.grad_energy.calls": v.calls("functions.grad_energy"),
            "functions.grad_energy.s": v.busy_s("functions.grad_energy"),
            "critical.picone_polynomial_check.s": v.busy_s("critical.picone_polynomial_check"),
        }
    )
    cells = [v.dur(i) for i in v.of("bvp.multi_start_solve") if v.ancestor(i, ("regions.sweep",)) >= 0]
    out.update(
        {
            "regions.sweep.s": v.busy_s("regions.sweep"),
            "regions.sweep.self_s": v.self_s("regions.sweep"),
            "regions.cell_s_p50": statistics.median(cells) if cells else 0.0,
            "regions.cell_s_max": max(cells) if cells else 0.0,
            "report.write_csv.s": v.busy_s("report.write_csv"),
            "report.write_report.s": v.busy_s("report.write_report"),
        }
    )
    for mode in ("eigen", "critval"):
        out[f"cli.{mode}.s"] = v.busy_s(f"cli.{mode}")
    for mode in CLI_MODES:
        out[f"cli.{mode}.self_s"] = v.self_s(f"cli.{mode}")
    return out


def unit_of(name):
    """Unit of a per-layer metric, read off its name."""
    if name.endswith((".s", ".self_s", "_s_p50", "_s_max", "overhead_s")):
        return "s"
    if name.endswith(("_share", "_per_iter", "_per_start")):
        return "ratio"
    return "count"


def is_exact(name):
    """True for metrics computed from counts only, which must repeat exactly."""
    return unit_of(name) != "s" and "_s_" not in name

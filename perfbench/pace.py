"""Host-speed probes: a fixed piece of work timed every few milliseconds during a run.

The benchmark runs on a few cores of a shared host.  Other tenants slow every
instruction on those cores, in bursts of a fraction of a second (a hyperthread
sibling gets busy) and for tens of seconds (the whole host gets busy), by up
to 2.5x; timings of identical work then differ by far more than any code
change the benchmark should resolve.

A Pacer arms an interval timer whose signal handler runs a probe and records
how long it took.  While a region of work runs, the probes that fall inside
it measure how fast the host is going, and ``reference_seconds`` turns the
region's time into seconds on the reference host, where the probe takes its
reference time:

    reference s = (wall - time in probes inside) * probe reference time / mean probe time inside

Interference that slows plap and the probe alike cancels; a change to plap
moves the region's time and not the probe's.  The probes share no code with
plap:

- ``kernel_probe`` has the mix of plap's inner loop: small numpy array
  operations, a sparse COO -> CSR build, an index restriction and a SuperLU
  solve, for a 1D p = 3 Laplacian on 256 nodes.
- ``bytecode_probe`` loads and runs a compiled module body, as an import
  does; it needs nothing beyond the standard library, so it can time the
  first import of numpy, scipy and plap.

This module imports only the standard library; numpy and scipy are imported
by the first ``kernel_probe`` call.
"""

from __future__ import annotations

import gc
import marshal
import signal
import statistics
import time

# warm probe runs per tick, after one untimed run
WARM_RUNS = 2
# fastest warm probe times on the reference host, a 2-vCPU Intel Xeon VM
KERNEL_REF_S = 5.0e-4
BYTECODE_REF_S = 1.2e-4

_MODULE_BODY = '''
import math

SCALE = 2.5
NAMES = tuple("name%d" % i for i in range(40))


class Record:
    """A small record type."""

    __slots__ = ("key", "value")

    def __init__(self, key, value):
        self.key = key
        self.value = value

    def __repr__(self):
        return "Record(%r, %r)" % (self.key, self.value)


def build(n):
    return [Record(NAMES[i % len(NAMES)], math.sqrt(i) * SCALE) for i in range(n)]


TABLE = {r.key: r.value for r in build(120)}
INDEX = sorted(TABLE, key=TABLE.get)
'''
_MODULE_CODE = marshal.dumps(compile(_MODULE_BODY, "<probe module>", "exec"))


def bytecode_probe():
    """Unmarshal and execute a small module body in a fresh namespace."""
    namespace = {"__name__": "probe_module"}
    exec(marshal.loads(_MODULE_CODE), namespace)
    return namespace["INDEX"]


_KERNEL = {}


def kernel_probe():
    """One Newton-like step of a 1D p = 3 Laplacian on 256 nodes: Jacobian, flux and sparse solve."""
    if not _KERNEL:
        import numpy as np
        import scipy.sparse as sp
        import scipy.sparse.linalg as spla

        n = 256
        cells = np.stack([np.arange(n - 1), np.arange(1, n)], axis=1)
        _KERNEL.update(
            np=np,
            sp=sp,
            spla=spla,
            n=n,
            cells=cells,
            grads=np.stack([-np.ones(n - 1), np.ones(n - 1)], axis=1)[:, :, None] * (n - 1.0),
            vols=np.full(n - 1, 1.0 / (n - 1)),
            free=np.arange(1, n - 1),
            u=np.sin(np.pi * np.linspace(0.0, 1.0, n)),
        )
    k = _KERNEL
    np, n, cells, grads, vols = k["np"], k["n"], k["cells"], k["grads"], k["vols"]
    g = np.einsum("ci,cid->cd", k["u"][cells], grads)
    kappa = np.sqrt(np.einsum("cd,cd->c", g, g) + 1e-12)
    blocks = np.einsum("c,cid,cjd->cij", vols * 2.0 * kappa, grads, grads)
    rows = np.repeat(cells, 2, axis=1).ravel()
    cols = np.tile(cells, (1, 2)).ravel()
    mat = k["sp"].coo_matrix((blocks.ravel(), (rows, cols)), shape=(n, n)).tocsr()
    mat = mat[np.ix_(k["free"], k["free"])].tocsc()
    flux = np.einsum("c,cd,cid->ci", vols * kappa, g, grads)
    res = np.zeros(n)
    np.add.at(res, cells.ravel(), flux.ravel())
    return k["spla"].spsolve(mat, res[k["free"]])


class Pacer:
    """Runs probe every period seconds of wall time while armed and keeps every probe's start and duration."""

    def __init__(self, probe, reference_s, period=0.04):
        self.probe = probe
        self.reference_s = reference_s
        self.period = period
        self.starts = []
        self.durations = []  # mean time of one warm probe run, per tick
        self.spent = []  # time in the handler, per tick
        self._previous = None

    def _tick(self, signum, frame):
        # The work evicts the probe's code and data from the caches between
        # ticks, so a first run would time the memory system; only the warm
        # runs after it are timed, and the whole tick is taken off the work.
        # A garbage collection that the probe's allocations happen to trigger
        # would scan the whole process; it is left to the work that made the garbage.
        collecting = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            self.probe()
            warm = time.perf_counter()
            for _ in range(WARM_RUNS):
                self.probe()
            end = time.perf_counter()
            self.starts.append(start)
            self.durations.append((end - warm) / WARM_RUNS)
            self.spent.append(end - start)
        finally:
            if collecting:
                gc.enable()

    def arm(self):
        for _ in range(20):  # warm the probe's code paths
            self.probe()
        for _ in range(4):  # work timed right away has probes to go by
            self._tick(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)

    def disarm(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def mark(self):
        """A position in the probe record, to pass to reference_seconds."""
        return len(self.durations)

    def slowdown(self, end, since):
        """Mean probe time over the reference time, for the probes from mark since up to end.

        A region too short to hold four probes also uses the eight before it.
        """
        inside = [d for s, d in zip(self.starts[since:], self.durations[since:]) if s < end]
        window = inside if len(inside) >= 4 else self.durations[max(0, since - 8) : since] + inside
        return statistics.fmean(window) / self.reference_s if window else 1.0

    def reference_seconds(self, start, end, since, repeats=1):
        """Reference seconds per repeat of the work that ran from start to end (perf_counter).

        since is the mark taken at start.  The probes inside the region are
        subtracted from its wall time.
        """
        probes = sum(d for s, d in zip(self.starts[since:], self.spent[since:]) if s < end)
        return ((end - start) - probes) / repeats / self.slowdown(end, since)

"""Piecewise-linear functions on a mesh and the integrals built from them.

P1 elements make the gradient constant per cell, so the gradient integral is
evaluated exactly.  All lower-order terms use mass-lumped (vertex) quadrature:
the quadrature weight of a vertex is the sum of adjacent cell volumes divided
by dimension+1.  Lumping keeps the zeroth-order nonlinearities diagonal in the
nodal values and its consistency error is second order, matching P1.

Weights (the coefficient fields m, a, f) are sampled at vertices; a
discontinuous weight must be supplied as nodal data aligned with the mesh.
"""

from __future__ import annotations

import numpy as np

from . import fem
from .errors import InvalidConfig
from .expr import eval_expr_array, format_expr, parse_expr

__all__ = [
    "DiscreteFunction",
    "Weight",
    "weight_values",
    "grad_energy",
    "weighted_power_integral",
    "sup_norm",
    "positive_part",
    "negative_part",
]


class DiscreteFunction:
    """Nodal coefficient vector of a piecewise-linear function on a mesh."""

    def __init__(self, mesh, values):
        self.mesh = mesh
        self.values = nodal_values(values, mesh, "function").copy()
        self.values.setflags(write=False)

    @classmethod
    def zeros(cls, mesh):
        return cls(mesh, np.zeros(mesh.n_vertices))

    def with_values(self, values):
        return DiscreteFunction(self.mesh, values)

    def cell_gradients(self):
        """(n_cells, dimension) array of the constant per-cell gradients."""
        # grad u|_T = sum_i u_i * grad hat_i
        return fem.gradients(self.mesh).gradient(self.values).T.copy()

    def __sub__(self, other):
        return DiscreteFunction(self.mesh, self.values - other.values)

    def __add__(self, other):
        return DiscreteFunction(self.mesh, self.values + other.values)

    def __mul__(self, t):
        return DiscreteFunction(self.mesh, self.values * float(t))

    __rmul__ = __mul__

    def __repr__(self):
        return f"DiscreteFunction({self.mesh!r}, sup={sup_norm(self):.3g})"


class Weight:
    """A coefficient field given as a constant, an expression string, or nodal data."""

    def __init__(self, kind, payload):
        if kind not in ("constant", "expression", "nodal"):
            raise InvalidConfig(f"unknown weight kind {kind!r}")
        self.kind = kind
        self.payload = payload
        # the samples' key in Mesh.derived; raw bytes keep -0.0 apart from 0.0
        data = format_expr(payload) if kind == "expression" else np.asarray(payload, dtype=float).tobytes()
        self._key = (Weight, kind, data)

    @classmethod
    def constant(cls, value):
        return cls("constant", float(value))

    @classmethod
    def expression(cls, src):
        return cls("expression", parse_expr(src))

    @classmethod
    def nodal(cls, values):
        return cls("nodal", np.array(values, dtype=float))  # a copy: values() makes it read-only

    def values(self, mesh):
        """Nodal samples of the weight on the mesh, read-only, memoized in mesh.derived."""
        return mesh.derived(self._key, lambda: self._sample(mesh))

    def _sample(self, mesh):
        if self.kind == "constant":
            vals = np.full(mesh.n_vertices, self.payload)
        elif self.kind == "nodal":
            vals = nodal_values(self.payload, mesh)
        else:
            y = mesh.vertices[:, 1] if mesh.dimension == 2 else None
            vals = eval_expr_array(self.payload, mesh.vertices[:, 0], y)
        vals.setflags(write=False)
        return vals

    def sign_summary(self, mesh):
        """One of 'zero', 'nonnegative', 'nonpositive', 'indefinite' from the nodal values."""
        v = self.values(mesh)
        if np.all(v == 0):
            return "zero"
        if np.all(v >= 0):
            return "nonnegative"
        if np.all(v <= 0):
            return "nonpositive"
        return "indefinite"

    def __repr__(self):
        return f"Weight({self.kind}, {self.payload!r})"


def weight_values(w, mesh):
    """Nodal values of w on mesh: a Weight's memoized samples, or nodal_values(w, mesh)."""
    return w.values(mesh) if isinstance(w, Weight) else nodal_values(w, mesh)


def nodal_values(data, mesh, what="nodal weight"):
    """The nodal values of data, a DiscreteFunction or an array, as floats (not copied).

    Raises InvalidConfig, naming what, unless data holds one value per vertex of mesh.
    """
    vals = np.asarray(data.values if isinstance(data, DiscreteFunction) else data, dtype=float)
    if vals.shape != (mesh.n_vertices,):
        raise InvalidConfig(f"{what} has {vals.size} values, mesh has {mesh.n_vertices} vertices")
    return vals


def check_exponents(p, q=None):
    """Raise InvalidConfig unless p > 1 and, when q is given, 1 < q < p."""
    if q is None and p <= 1:
        raise InvalidConfig(f"exponent p must exceed 1, got {p}")
    if q is not None and not 1.0 < q < p:
        raise InvalidConfig(f"exponents must satisfy 1 < q < p, got q={q}, p={p}")


def grad_energy(u, p):
    """Integral of |grad u|^p, exact for the P1 interpolant.

    Requires p > 1.  The caller is responsible for zero boundary values when
    the integral is meant over the zero-trace space.
    """
    check_exponents(p)
    kernel = fem.gradients(u.mesh)
    g = kernel.gradient(u.values)
    mag = np.sqrt(kernel.dot(g, g))
    return float(np.dot(u.mesh.cell_volumes, mag**p))


def weighted_power_integral(w, u, r, signed=False):
    """Mass-lumped integral of w * |u|^r (or the signed variant).

    Unsigned:  sum_v lumped(v) * w(v) * |u(v)|^r.
    Signed:    sum_v lumped(v) * w(v) * sign(u(v)) * |u(v)|^r, so r=1 gives the
               load integral of w*u.
    Requires r >= 1.
    """
    if r < 1:
        raise InvalidConfig(f"power r must be >= 1, got {r}")
    integrand = weight_values(w, u.mesh) * np.abs(u.values) ** r
    if signed:
        integrand = integrand * np.sign(u.values)
    return float(np.dot(u.mesh.lumped_volumes, integrand))


def sup_norm(u):
    """Nodal max of |u|."""
    return float(np.max(np.abs(u.values))) if len(u.values) else 0.0


def positive_part(u):
    """Nodal clamp max(u, 0)."""
    return u.with_values(np.maximum(u.values, 0.0))


def negative_part(u):
    """Nodal clamp max(-u, 0); u == positive_part(u) - negative_part(u) nodally."""
    return u.with_values(np.maximum(-u.values, 0.0))

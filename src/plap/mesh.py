"""Simplicial meshes of intervals and axis-aligned rectangles.

Only these two geometries are supported: they admit exact distance-to-boundary
formulas (needed for boundary strips) and closed-form oracles.  A mesh's
geometry is immutable after construction; what other modules derive from it
(gradient kernels, operators, weight samples, eigenpairs) is built on first
use and kept in the mesh's memo, Mesh.derived.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidConfig

__all__ = ["Mesh", "SubdomainMask", "build_interval", "build_rectangle", "boundary_strip"]


class Mesh:
    """Simplicial P1 mesh of an interval (dimension 1) or rectangle (dimension 2).

    Attributes:
        dimension: 1 or 2.
        vertices: (nv, dimension) float array of coordinates.
        cells: (nc, dimension+1) int array; segments in 1D, triangles in 2D.
        boundary_vertices: sorted int array of vertex indices on the boundary.
        interior_vertices: sorted int array of the remaining vertex indices.
        cell_volumes: (nc,) positive cell measures; every vertex lies in a cell.
        bounds: the bounding box (x0, x1) or (x0, x1, y0, y1); used for the
            exact distance-to-boundary formula.
        grid: (nx, ny) for a build_rectangle grid, else None; the p = 2
            stiffness of its interior has a closed-form solve
            (fem.stiffness_solver).

    Derived quantities precomputed for assembly:
        lumped_volumes: (nv,) vertex quadrature weights (sum of adjacent cell
            volumes divided by dimension+1).
        cell_gradients: (nc, dimension+1, dimension) gradients of the local
            hat functions, constant per cell.

    The attributes above never change after construction.  Data that other
    modules derive from them lives in one memo (derived), so it lasts as long
    as the mesh and no longer.
    """

    def __init__(self, dimension, vertices, cells, boundary_vertices, bounds, grid=None):
        self.dimension = int(dimension)
        self.vertices = np.asarray(vertices, dtype=float)
        self.cells = np.asarray(cells, dtype=np.int64)
        self.boundary_vertices = np.sort(np.asarray(boundary_vertices, dtype=np.int64))
        mask = np.ones(len(self.vertices), dtype=bool)
        mask[self.boundary_vertices] = False
        self.interior_vertices = np.nonzero(mask)[0]
        self.bounds = tuple(float(b) for b in bounds)
        self.grid = grid
        self.cell_volumes, self.cell_gradients = self._geometry()
        self.lumped_volumes = np.zeros(len(self.vertices))
        np.add.at(
            self.lumped_volumes,
            self.cells.ravel(),
            np.repeat(self.cell_volumes / (self.dimension + 1), self.dimension + 1),
        )
        if not self.lumped_volumes.all():  # with positive cell volumes, 0 marks a vertex in no cell
            raise InvalidConfig(f"mesh vertex {np.argmin(self.lumped_volumes)} lies in no cell")
        self.vertices.setflags(write=False)
        self.cells.setflags(write=False)
        self.lumped_volumes.setflags(write=False)
        self._derived = {}

    def derived(self, key, build):
        """The value memoized under key, from build() on the first call with that key.

        A key names the kind of value and what it depends on besides the
        mesh, such as (fem.Operator, free vertex bytes).  A value must not
        refer to the mesh: the memo would then keep the mesh alive in a
        reference cycle, which only the garbage collector frees.
        """
        try:
            return self._derived[key]
        except KeyError:
            value = self._derived[key] = build()
            return value

    def _geometry(self):
        pts = self.vertices[self.cells]  # (nc, d+1, d)
        if self.dimension == 1:
            det = pts[:, 1, 0] - pts[:, 0, 0]
        else:
            e1 = pts[:, 1] - pts[:, 0]
            e2 = pts[:, 2] - pts[:, 0]
            det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
        vols = np.abs(det) / self.dimension  # |det| / d!, and d! = d for d <= 2
        if np.any(vols <= 0):  # before any division by det
            raise InvalidConfig("mesh has a cell with nonpositive volume")
        if self.dimension == 1:
            return vols, np.stack([-1.0 / det, 1.0 / det], axis=1)[:, :, None]
        # grad of barycentric coordinate i is (rotated opposite edge) / (2*area)
        grads = np.empty((len(self.cells), 3, 2))
        for i in range(3):
            a = pts[:, (i + 1) % 3]
            b = pts[:, (i + 2) % 3]
            grads[:, i, 0] = (a[:, 1] - b[:, 1]) / det
            grads[:, i, 1] = (b[:, 0] - a[:, 0]) / det
        return vols, grads

    @property
    def n_vertices(self):
        return len(self.vertices)

    def distance_to_boundary(self):
        """Exact distance from each vertex to the boundary of the bounding box."""
        pts = self.vertices
        if self.dimension == 1:
            x0, x1 = self.bounds
            return np.minimum(pts[:, 0] - x0, x1 - pts[:, 0])
        x0, x1, y0, y1 = self.bounds
        return np.minimum.reduce([pts[:, 0] - x0, x1 - pts[:, 0], pts[:, 1] - y0, y1 - pts[:, 1]])

    def diameter(self):
        if self.dimension == 1:
            return self.bounds[1] - self.bounds[0]
        x0, x1, y0, y1 = self.bounds
        return float(np.hypot(x1 - x0, y1 - y0))

    def mesh_size(self):
        """Largest cell diameter (longest edge)."""
        pts = self.vertices[self.cells]
        if self.dimension == 1:
            return float(np.max(np.abs(pts[:, 1, 0] - pts[:, 0, 0])))
        edges = [pts[:, i] - pts[:, (i + 1) % 3] for i in range(3)]
        return float(max(np.max(np.hypot(e[:, 0], e[:, 1])) for e in edges))

    def __repr__(self):
        kind = "interval" if self.dimension == 1 else "rectangle"
        return f"Mesh({kind}, {self.n_vertices} vertices, {len(self.cells)} cells)"


class SubdomainMask:
    """A vertex subset of a mesh, typically the strip {dist(x, boundary) < rho}.

    Attributes:
        mesh: the underlying Mesh.
        active_vertices: sorted int array of selected vertex indices.
        rho: strip width when the mask came from boundary_strip, else None.
    """

    def __init__(self, mesh, active_vertices, rho=None):
        self.mesh = mesh
        self.active_vertices = np.unique(np.asarray(active_vertices, dtype=np.int64))
        self.rho = rho

    @classmethod
    def from_predicate(cls, mesh, predicate):
        """Mask of vertices where predicate(x) (1D) or predicate(x, y) (2D) is true."""
        coords = mesh.vertices
        if mesh.dimension == 1:
            keep = [i for i, v in enumerate(coords) if predicate(v[0])]
        else:
            keep = [i for i, v in enumerate(coords) if predicate(v[0], v[1])]
        return cls(mesh, keep)

    def complement(self):
        """Mask of all vertices not in this mask."""
        keep = np.setdiff1d(np.arange(self.mesh.n_vertices), self.active_vertices)
        return SubdomainMask(self.mesh, keep)

    def indicator(self):
        """Boolean array over all vertices, True on active ones."""
        flag = np.zeros(self.mesh.n_vertices, dtype=bool)
        flag[self.active_vertices] = True
        return flag

    def __len__(self):
        return len(self.active_vertices)


def build_interval(x0, x1, n_cells):
    """Uniform mesh of (x0, x1) with n_cells segments.

    The two endpoints are the boundary vertices.  Raises InvalidConfig when
    x1 <= x0 or n_cells < 2.
    """
    if not x1 > x0:
        raise InvalidConfig(f"interval bounds must satisfy x1 > x0, got ({x0}, {x1})")
    if n_cells < 2:
        raise InvalidConfig(f"n_cells must be >= 2, got {n_cells}")
    xs = np.linspace(x0, x1, n_cells + 1)
    vertices = xs[:, None]
    cells = np.column_stack([np.arange(n_cells), np.arange(1, n_cells + 1)])
    return Mesh(1, vertices, cells, [0, n_cells], (x0, x1))


def build_rectangle(x0, x1, y0, y1, nx, ny):
    """Structured triangulation of (x0, x1) x (y0, y1), each grid cell split in two.

    (nx+1)*(ny+1) vertices; boundary vertices are exactly those on the edges.
    """
    if not (x1 > x0 and y1 > y0):
        raise InvalidConfig(f"degenerate rectangle bounds ({x0}, {x1}) x ({y0}, {y1})")
    if nx < 2 or ny < 2:
        raise InvalidConfig(f"nx and ny must be >= 2, got ({nx}, {ny})")
    xs = np.linspace(x0, x1, nx + 1)
    ys = np.linspace(y0, y1, ny + 1)
    X, Y = np.meshgrid(xs, ys, indexing="xy")
    vertices = np.column_stack([X.ravel(), Y.ravel()])
    vid = np.arange((nx + 1) * (ny + 1)).reshape(ny + 1, nx + 1)  # vid[j, i]
    v00, v10 = vid[:-1, :-1].ravel(), vid[:-1, 1:].ravel()
    v01, v11 = vid[1:, :-1].ravel(), vid[1:, 1:].ravel()
    # grid cell (i, j), row by row, splits into (v00, v10, v11) then (v00, v11, v01)
    cells = np.stack([v00, v10, v11, v00, v11, v01], axis=1).reshape(-1, 3)
    on_edge = np.zeros(vid.shape, dtype=bool)
    on_edge[[0, -1], :] = True
    on_edge[:, [0, -1]] = True
    return Mesh(2, vertices, cells, vid[on_edge], (x0, x1, y0, y1), grid=(int(nx), int(ny)))


def boundary_strip(mesh, rho):
    """Mask of vertices at distance < rho from the boundary.

    Distance is computed analytically from the bounding box, so the mask is
    exact on these structured meshes.  Requires 0 < rho < diameter/2.
    """
    if not 0 < rho < 0.5 * mesh.diameter():
        raise InvalidConfig(f"strip width must lie in (0, diameter/2), got {rho}")
    dist = mesh.distance_to_boundary()
    return SubdomainMask(mesh, np.nonzero(dist < rho)[0], rho=rho)

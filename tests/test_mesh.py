import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plap import InvalidConfig, Mesh, SubdomainMask, boundary_strip, build_interval, build_rectangle


def test_interval_vertices_and_boundary():
    mesh = build_interval(0.0, 1.0, 4)
    np.testing.assert_allclose(mesh.vertices[:, 0], [0.0, 0.25, 0.5, 0.75, 1.0])
    assert set(mesh.boundary_vertices) == {0, 4}


def test_smallest_legal_interval():
    mesh = build_interval(0.0, 1.0, 2)
    assert list(mesh.interior_vertices) == [1]
    assert mesh.vertices[1, 0] == 0.5


def test_uniform_cell_volumes():
    mesh = build_interval(-1.0, 1.0, 8)
    np.testing.assert_allclose(mesh.cell_volumes, 0.25)


@pytest.mark.parametrize("bad", [(1.0, 0.0, 4), (0.0, 0.0, 4), (0.0, 1.0, 1)])
def test_interval_rejects_bad_input(bad):
    with pytest.raises(InvalidConfig):
        build_interval(*bad)


def test_rectangle_counts():
    mesh = build_rectangle(0, 1, 0, 1, 2, 2)
    assert mesh.n_vertices == 9
    assert len(mesh.cells) == 8
    assert len(mesh.boundary_vertices) == 8
    assert len(mesh.interior_vertices) == 1
    assert abs(mesh.cell_volumes.sum() - 1.0) < 1e-14


def test_rectangle_area_conservation():
    mesh = build_rectangle(0, 2, 0, 1, 4, 2)
    assert abs(mesh.cell_volumes.sum() - 2.0) < 1e-14


def test_rectangle_conforming():
    # every interior edge belongs to exactly two triangles
    mesh = build_rectangle(0, 1, 0, 1, 3, 3)
    edge_count = {}
    for cell in mesh.cells:
        for i in range(3):
            edge = tuple(sorted((cell[i], cell[(i + 1) % 3])))
            edge_count[edge] = edge_count.get(edge, 0) + 1
    boundary = set(mesh.boundary_vertices)
    for (v0, v1), count in edge_count.items():
        if count == 1:
            assert v0 in boundary and v1 in boundary
        else:
            assert count == 2


def test_rectangle_rejects_degenerate():
    with pytest.raises(InvalidConfig):
        build_rectangle(0, 0, 0, 1, 2, 2)
    with pytest.raises(InvalidConfig):
        build_rectangle(0, 1, 0, 1, 1, 2)


def test_mesh_rejects_a_vertex_in_no_cell():
    # vertex 3 at x = 2 belongs to no segment of (0, 1)
    vertices = [[0.0], [0.5], [1.0], [2.0]]
    with pytest.raises(InvalidConfig, match="vertex 3 lies in no cell"):
        Mesh(1, vertices, [[0, 1], [1, 2]], [0, 2], (0.0, 1.0))


@pytest.mark.parametrize(
    "dimension, vertices, cells, boundary, bounds",
    [
        # a segment of zero length
        (1, [[0.0], [0.0], [1.0]], [[0, 1], [1, 2]], [0, 2], (0.0, 1.0)),
        # a triangle whose three vertices lie on y = 0
        (2, [[0, 0], [1, 0], [0.5, 0], [0.5, 1]], [[0, 2, 1], [0, 1, 3]], [0, 1, 2, 3], (0, 1, 0, 1)),
    ],
    ids=["1d", "2d"],
)
def test_mesh_rejects_a_degenerate_cell_before_dividing_by_it(dimension, vertices, cells, boundary, bounds):
    # the warning filter of the tier-1 run turns a division by the zero volume into the failure
    with pytest.raises(InvalidConfig, match="nonpositive volume"):
        Mesh(dimension, vertices, cells, boundary, bounds)


def test_strip_exact_distances():
    mesh = build_interval(0, 1, 10)
    mask = boundary_strip(mesh, 0.15)
    xs = sorted(mesh.vertices[mask.active_vertices, 0])
    np.testing.assert_allclose(xs, [0.0, 0.1, 0.9, 1.0])


def test_strip_boundary_only():
    mesh = build_interval(0, 1, 10)
    mask = boundary_strip(mesh, 0.05)
    assert set(mask.active_vertices) == set(mesh.boundary_vertices)


def test_strip_complement_square_center():
    mesh = build_rectangle(0, 1, 0, 1, 4, 4)
    comp = boundary_strip(mesh, 0.3).complement()
    assert len(comp) == 1
    np.testing.assert_allclose(mesh.vertices[comp.active_vertices[0]], [0.5, 0.5])


def test_strip_rho_out_of_range():
    mesh = build_interval(0, 1, 10)
    with pytest.raises(InvalidConfig):
        boundary_strip(mesh, 0.6)
    with pytest.raises(InvalidConfig):
        boundary_strip(mesh, 0.0)


def test_refinement_preserves_volume():
    for n in (8, 16, 32):
        coarse = build_interval(0, 3, n)
        fine = build_interval(0, 3, 2 * n)
        assert abs(coarse.cell_volumes.sum() - fine.cell_volumes.sum()) < 1e-12
    coarse = build_rectangle(0, 2, 0, 1, 4, 3)
    fine = build_rectangle(0, 2, 0, 1, 8, 6)
    assert abs(coarse.cell_volumes.sum() - fine.cell_volumes.sum()) < 1e-12


@settings(max_examples=30, deadline=None)
@given(
    rho1=st.floats(min_value=0.01, max_value=0.49),
    rho2=st.floats(min_value=0.01, max_value=0.49),
)
def test_strip_monotone_in_rho(rho1, rho2):
    mesh = build_interval(0, 1, 20)
    if rho1 > rho2:
        rho1, rho2 = rho2, rho1
    small = set(boundary_strip(mesh, rho1).active_vertices)
    large = set(boundary_strip(mesh, rho2).active_vertices)
    assert small <= large


def test_complement_is_far_set():
    mesh = build_rectangle(0, 1, 0, 1, 6, 6)
    rho = 0.25
    comp = boundary_strip(mesh, rho).complement()
    dist = mesh.distance_to_boundary()
    expected = set(np.nonzero(dist >= rho)[0])
    assert set(comp.active_vertices) == expected


def test_mask_from_predicate_and_indicator():
    mesh = build_interval(0, 1, 10)
    mask = SubdomainMask.from_predicate(mesh, lambda x: x < 0.5)
    assert mask.indicator().sum() == 5
    assert set(mask.active_vertices) | set(mask.complement().active_vertices) == set(
        range(mesh.n_vertices)
    )

    square = build_rectangle(0, 1, 0, 1, 2, 2)
    lower_left = SubdomainMask.from_predicate(square, lambda x, y: x + y < 0.75)
    assert lower_left.active_vertices.tolist() == [0, 1, 3]


def test_rectangle_2x2_layout():
    mesh = build_rectangle(0, 1, 0, 1, 2, 2)
    assert mesh.vertices.tolist() == [
        [0.0, 0.0], [0.5, 0.0], [1.0, 0.0],
        [0.0, 0.5], [0.5, 0.5], [1.0, 0.5],
        [0.0, 1.0], [0.5, 1.0], [1.0, 1.0],
    ]
    assert mesh.cells.tolist() == [
        [0, 1, 4], [0, 4, 3], [1, 2, 5], [1, 5, 4],
        [3, 4, 7], [3, 7, 6], [4, 5, 8], [4, 8, 7],
    ]
    assert mesh.boundary_vertices.tolist() == [0, 1, 2, 3, 5, 6, 7, 8]
    assert mesh.interior_vertices.tolist() == [4]


def test_every_derived_value_is_built_once_and_dies_with_its_mesh(monkeypatch):
    # the memo's values must not refer to the mesh: with the collector off, a
    # reference cycle through one would keep the mesh alive
    import gc
    import weakref

    from plap import EmptyAdmissibleSet, Weight, eigen, fem
    from plap.bvp import _nearest_interior

    solve, solves = eigen.principal_eigenpair, []
    monkeypatch.setattr(eigen, "principal_eigenpair", lambda *args: solves.append(args[1:]) or solve(*args))
    collecting = gc.isenabled()
    gc.disable()
    try:
        mesh = build_interval(0.0, 1.0, 64)
        kernel, op, nearest = fem.gradients(mesh), fem.operator(mesh, mesh.interior_vertices), _nearest_interior(mesh)
        assert fem.gradients(mesh) is kernel
        assert fem.operator(mesh, mesh.interior_vertices.copy()) is op
        assert _nearest_interior(mesh) is nearest
        pair = eigen._principal(mesh, Weight.constant(1.0), 3.0)
        assert pair.phi.values.tobytes() == solve(mesh, Weight.constant(1.0), 3.0).phi.values.tobytes()
        assert eigen._principal(mesh, Weight.nodal(np.ones(65)), 3.0).lam == pair.lam  # keyed by nodal values
        messages = []
        for _ in range(2):
            try:
                eigen._principal(mesh, np.full(65, -1.0), 3.0)  # no positive part: a memoized PlapError
            except EmptyAdmissibleSet as exc:
                messages.append(str(exc))
        assert messages == ["weight has no positive part on the active vertex set"] * 2
        assert len(solves) == 2  # one per key
        samples = Weight.expression("1 + x").values(mesh)
        assert Weight.expression("1+x").values(mesh) is samples and not samples.flags.writeable
        zero, minus_zero = Weight.constant(0.0).values(mesh), Weight.constant(-0.0).values(mesh)
        assert zero is not minus_zero and not np.signbit(zero).any() and np.signbit(minus_zero).all()
        refs = [weakref.ref(value) for value in (mesh, kernel, op, nearest, samples, zero, minus_zero)]
        del mesh, kernel, op, nearest, pair, samples, zero, minus_zero
        assert [ref() for ref in refs] == [None] * 7
    finally:
        if collecting:
            gc.enable()


def test_no_module_keeps_a_weak_keyed_cache():
    # data derived from a mesh goes in Mesh.derived, not in a weak dictionary
    # built anywhere in plap, at module level or inside a function or class
    import ast
    from pathlib import Path

    import plap

    found = []
    for path in sorted(Path(plap.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            func = node.func if isinstance(node, ast.Call) else None
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in ("WeakKeyDictionary", "WeakValueDictionary"):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []

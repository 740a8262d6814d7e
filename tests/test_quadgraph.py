"""Quad graph construction, stars, strips, and dual traversal."""

import numpy as np
import pytest

from hypnet.errors import (
    ClosedStripDetected,
    DisconnectedMesh,
    NonManifold,
    NonOrientable,
    NotAQuad,
    NotStronglyRegular,
)
from hypnet.quadgraph import build
from hypnet.synthetic import (
    cylinder_quads,
    grid_graph,
    moebius_quads,
    umbrella_graph,
)

from oracles import reference_graph

MESH_CASES = [
    grid_graph(1, 1),
    grid_graph(2, 2),
    grid_graph(3, 1),
    grid_graph(3, 3),
    grid_graph(4, 2),
    umbrella_graph(3),
    umbrella_graph(5),
    umbrella_graph(6),
]


def interior_vertices(g):
    return np.flatnonzero((g.degrees > 0) & ~g.boundary).tolist()


def side_of(g, f, e):
    """Position ``k`` of edge ``e`` in face ``f`` (half-edge ``4 f + k``)."""
    return g.face_edges[f].tolist().index(e)


# --- construction -----------------------------------------------------------


def test_grid_builds_with_one_interior_degree4_vertex():
    g = build(*grid_graph(2, 2))
    assert g.face_count == 4
    assert interior_vertices(g) == [4]
    assert g.degrees[4] == 4


@pytest.mark.parametrize("vertex_count,quads", MESH_CASES)
def test_half_edge_involutions(vertex_count, quads):
    g = build(vertex_count, quads)
    tail = g.face_vertices.ravel()
    head = np.roll(g.face_vertices, -1, axis=1).ravel()
    sides = g.face_edges.ravel()
    for h, t in enumerate(g.twin.tolist()):
        if t < 0:
            assert -1 in g.edge_faces[sides[h]]
            continue
        assert g.twin[t] == h and t // 4 != h // 4
        assert sides[t] == sides[h]
        assert (tail[t], head[t]) == (head[h], tail[h])
    assert np.count_nonzero(g.twin < 0) == np.count_nonzero(g.edge_faces < 0)
    # the boundary is a union of closed loops: two boundary edges per
    # boundary vertex
    rim = g.edges[np.any(g.edge_faces < 0, axis=1)]
    per_vertex = np.bincount(rim.ravel(), minlength=vertex_count)
    assert np.array_equal(np.flatnonzero(per_vertex), np.flatnonzero(g.boundary))
    assert set(per_vertex[g.boundary].tolist()) <= {2}
    for f in range(g.face_count):
        assert len(set(g.face_vertices[f].tolist())) == 4
        for k in range(4):
            u, v = g.face_vertices[f, k], g.face_vertices[f, (k + 1) % 4]
            assert g.edges[g.face_edges[f, k]].tolist() == sorted((u, v))
            assert f in g.edge_faces[g.face_edges[f, k]]


def test_rejects_non_quads():
    with pytest.raises(NotAQuad):
        build(4, [(0, 1, 2)])
    with pytest.raises(NotAQuad):
        build(4, [(0, 1, 2, 2)])
    with pytest.raises(NotAQuad):
        build(3, [(0, 1, 2, 3)])


def test_rejects_two_faces_sharing_two_edges():
    with pytest.raises(NotStronglyRegular):
        build(5, [(0, 1, 2, 3), (1, 0, 4, 2)])


def test_rejects_face_glued_to_itself():
    # quad listing an edge forward and backward cannot occur with four
    # distinct vertices, but two copies of one face can
    with pytest.raises(NotStronglyRegular):
        build(4, [(0, 1, 2, 3), (0, 1, 2, 3)])


def test_rejects_moebius_band():
    with pytest.raises(NonOrientable):
        build(*moebius_quads())


def test_rejects_three_faces_on_one_edge():
    with pytest.raises(NonManifold):
        build(8, [(0, 1, 2, 3), (1, 0, 4, 5), (0, 1, 6, 7)])


def test_rejects_bowtie_vertex():
    with pytest.raises(NonManifold):
        build(7, [(0, 1, 2, 3), (0, 4, 5, 6)])


def test_flipped_input_faces_are_reoriented():
    # same grid, second face listed clockwise
    g_ref = build(*grid_graph(2, 1))
    quads = [(0, 1, 4, 3), (4, 1, 2, 5)]
    g = build(6, quads)
    assert set(g.face_vertices[1].tolist()) == {1, 2, 4, 5}
    for e, (fa, fb) in enumerate(g.edge_faces.tolist()):
        if fa >= 0 and fb >= 0:
            ka, kb = side_of(g, fa, e), side_of(g, fb, e)
            assert g.face_vertices[fa, ka] == g.face_vertices[fb, (kb + 1) % 4]
    assert g.edge_count == g_ref.edge_count == 7


# --- stars and degrees ------------------------------------------------------


def test_vertex_star_center_of_grid_cyclic():
    g = build(*grid_graph(2, 2))
    neighbors, faces = g.vertex_star(4)
    assert sorted(neighbors) == [1, 3, 5, 7]
    assert sorted(faces) == [0, 1, 2, 3]
    k = len(neighbors)
    for i in range(k):  # consecutive neighbors share a face with the center
        a, b = neighbors[i], neighbors[(i + 1) % k]
        shared = [
            f
            for f in range(g.face_count)
            if {4, a, b} <= set(g.face_vertices[f].tolist())
        ]
        assert len(shared) == 1


def test_vertex_star_boundary_path_order():
    g = build(*grid_graph(2, 2))
    corner_neighbors, corner_faces = g.vertex_star(0)
    assert sorted(corner_neighbors) == [1, 3]
    assert corner_faces == [0]
    mid_neighbors, mid_faces = g.vertex_star(1)
    assert sorted(mid_neighbors) == [0, 2, 4]
    # path order: endpoints are the boundary-edge neighbors
    assert {mid_neighbors[0], mid_neighbors[-1]} == {0, 2}
    assert mid_neighbors[1] == 4
    assert len(mid_faces) == 2


def test_vertex_star_umbrella_center():
    g = build(*umbrella_graph(6))
    neighbors, faces = g.vertex_star(0)
    assert sorted(neighbors) == list(range(1, 7))
    assert len(faces) == 6


def test_interior_degrees_even():
    ok, offenders = build(*grid_graph(3, 3)).interior_degrees_even()
    assert ok and offenders == []
    ok, offenders = build(*umbrella_graph(3)).interior_degrees_even()
    assert not ok and offenders == [0]
    ok, offenders = build(*umbrella_graph(6)).interior_degrees_even()
    assert ok and offenders == []


def test_interior_degree_handshake():
    for vertex_count, quads in MESH_CASES:
        g = build(vertex_count, quads)
        interior = set(interior_vertices(g))
        total = sum(int(g.degrees[v]) for v in interior)
        both = sum(
            1 for u, v in g.edges.tolist() if u in interior and v in interior
        )
        one = sum(
            1 for u, v in g.edges.tolist() if (u in interior) != (v in interior)
        )
        assert total == 2 * both + one


# --- strips -------------------------------------------------------------------


def test_strips_2x2_block():
    strips = build(*grid_graph(2, 2)).strips()
    assert sorted(len(faces) for faces, _ in strips) == [2, 2, 2, 2]


def test_strips_row_of_three():
    strips = build(*grid_graph(3, 1)).strips()
    assert sorted(len(faces) for faces, _ in strips) == [1, 1, 1, 3]
    long, _ = max(strips, key=lambda strip: len(strip[0]))
    assert long in ([0, 1, 2], [2, 1, 0])


def test_strips_single_face():
    strips = build(*grid_graph(1, 1)).strips()
    assert sorted(len(faces) for faces, _ in strips) == [1, 1]


def test_strips_umbrella_cross_center_in_pairs():
    # every strip of an umbrella covers two faces glued along a spoke,
    # one strip per spoke
    g = build(*umbrella_graph(6))
    strips = g.strips()
    assert sorted(len(faces) for faces, _ in strips) == [2] * 6
    for _, rails in strips:
        shared = rails[0][1]
        assert shared == rails[1][0]
        assert 0 in g.edges[shared]


@pytest.mark.parametrize("vertex_count,quads", MESH_CASES)
def test_strip_rails_chain_and_cover(vertex_count, quads):
    g = build(vertex_count, quads)
    strips = g.strips()
    per_face = {f: 0 for f in range(g.face_count)}
    rail_count = {e: 0 for e in range(g.edge_count)}
    for faces, rails in strips:
        assert len(rails) == len(faces)
        for f, (l, r) in zip(faces, rails):
            per_face[f] += 1
            assert g.face_edges[f, (side_of(g, f, l) + 2) % 4] == r
            rail_count[l] += 1
            rail_count[r] += 1
        for i in range(len(faces) - 1):
            assert rails[i][1] == rails[i + 1][0]
    assert all(c == 2 for c in per_face.values())
    for e in range(g.edge_count):
        # interior rail edges are counted once per side, boundary ends once
        expected = 1 if -1 in g.edge_faces[e] else 2
        assert rail_count[e] == expected


def test_closed_strip_detected_on_ring():
    g = build(*cylinder_quads())
    with pytest.raises(ClosedStripDetected):
        g.strips()


# --- dual spanning tree ---------------------------------------------------------


def test_dual_tree_2x2():
    g = build(*grid_graph(2, 2))
    tree = g.dual_spanning_tree(0)
    assert len(tree) == 3
    assert [f for f, _, _ in tree] == [1, 2, 3]
    for f, parent, e in tree:
        assert set(g.edge_faces[e].tolist()) == {f, parent}


def test_dual_tree_single_face_empty():
    g = build(*grid_graph(1, 1))
    assert g.dual_spanning_tree(0) == []


def test_dual_tree_3x3_bfs_layers():
    g = build(*grid_graph(3, 3))
    tree = g.dual_spanning_tree(4)
    assert len(tree) == 8
    layer1 = [f for f, parent, _ in tree if parent == 4]
    assert sorted(layer1) == [1, 3, 5, 7]
    layer2 = [f for f, parent, _ in tree if parent != 4]
    assert sorted(layer2) == [0, 2, 6, 8]
    assert all(parent in layer1 for _, parent, _ in tree[4:])
    # BFS: layer 1 precedes layer 2
    assert [f for f, _, _ in tree[:4]] == sorted(layer1)


def test_dual_tree_disconnected():
    g = build(8, [(0, 1, 2, 3), (4, 5, 6, 7)])
    with pytest.raises(DisconnectedMesh):
        g.dual_spanning_tree(0)


# --- misc ---------------------------------------------------------------------


def test_euler_characteristic():
    # a disc has Euler characteristic 1
    assert build(*grid_graph(3, 2)).euler_characteristic == 1
    assert build(*umbrella_graph(5)).euler_characteristic == 1
    assert build(*cylinder_quads()).euler_characteristic == 0
    assert build(8, [(0, 1, 2, 3), (4, 5, 6, 7)]).euler_characteristic == 2


def test_opposite_edge_is_involution():
    g = build(*grid_graph(3, 2))
    for f in range(g.face_count):
        edges = g.face_edges[f].tolist()
        for k, e in enumerate(edges):
            o = edges[(k + 2) % 4]
            assert o != e
            assert not set(g.edges[o].tolist()) & set(g.edges[e].tolist())
            assert edges[(k + 4) % 4] == e


def test_build_is_deterministic():
    a = build(*grid_graph(3, 3))
    b = build(*grid_graph(3, 3))
    for name in ("face_vertices", "face_edges", "edges", "edge_faces", "twin",
                 "degrees", "boundary", "star_offsets", "star_neighbors",
                 "star_faces"):
        assert np.array_equal(getattr(a, name), getattr(b, name))
    assert a.strips() == b.strips()
    assert a.dual_spanning_tree(4) == b.dual_spanning_tree(4)


# --- against the half-edge object build ---------------------------------------------


def scrambled(vertex_count, quads, seed, reverse=0.5):
    """The same mesh with relabelled vertices, each face rotated and
    reversed with probability ``reverse``, and the faces reordered."""
    rng = np.random.default_rng(seed)
    relabel = rng.permutation(vertex_count)
    faces = []
    for quad in quads:
        quad = [int(relabel[v]) for v in quad]
        k = int(rng.integers(4))
        quad = quad[k:] + quad[:k]
        faces.append(tuple(quad[::-1] if rng.random() < reverse else quad))
    return vertex_count, [faces[k] for k in rng.permutation(len(faces))]


DIFFERENTIAL_CASES = MESH_CASES + [
    scrambled(*grid_graph(5, 4), 1),
    scrambled(*grid_graph(5, 4), 2),
    scrambled(*grid_graph(12, 12), 3),
    scrambled(*umbrella_graph(6), 4),
    scrambled(*umbrella_graph(6), 5),
]


def outcome(call):
    """``("ok", value)`` or the type name and message of what it raised."""
    try:
        return "ok", call()
    except Exception as exc:  # noqa: BLE001 - compared, not handled
        return type(exc).__name__, str(exc)


@pytest.mark.parametrize("vertex_count,quads", DIFFERENTIAL_CASES)
def test_arrays_equal_the_half_edge_object_build(vertex_count, quads):
    g = build(vertex_count, quads)
    ref = reference_graph(vertex_count, quads)
    faces = range(g.face_count)
    assert g.face_vertices.tolist() == [list(ref.face_vertices(f)) for f in faces]
    assert g.face_edges.tolist() == [list(ref.face_edges(f)) for f in faces]
    assert g.edges.tolist() == [list(e) for e in ref.edges]
    assert g.edge_faces.tolist() == [
        [-1 if f is None else f for f in ref.edge_faces(e)] for e in range(g.edge_count)
    ]
    for v in range(vertex_count):
        assert g.vertex_star(v) == ref.vertex_star(v)
        assert g.degrees[v] == ref.degree(v)
    assert outcome(g.strips) == outcome(ref.strips)
    for seed in np.random.default_rng(vertex_count).integers(g.face_count, size=3):
        assert g.dual_spanning_tree(int(seed)) == ref.dual_spanning_tree(int(seed))


def shifted(quads, by):
    return [tuple(v + by for v in q) for q in quads]


_, UMBRELLA = umbrella_graph(4)
# four quads around vertex 0 again, on spokes 9..12 and rims 13..16
SECOND_FAN = [(0, 9, 13, 10), (0, 10, 14, 11), (0, 11, 15, 12), (0, 12, 16, 9)]

# meshes with several offenders of one mesh error, each case's faces
# ordered so that the first offender by face, by edge key and by vertex
# id differ where they can
ERROR_CASES = {
    "face sizes": (
        (10, [(0, 1, 2, 3), (1, 2, 3), (0, 1, 2, 3, 4), (4, 4, 5, 6)]),
        "NotAQuad", "face 1 has 3 vertices",
    ),
    "repeats before range": (
        (10, [(0, 1, 2, 3), (4, 5, 5, 6), (0, 1, 2, 99), (7, 7, 8, 9)]),
        "NotAQuad", "face 1 repeats a vertex: (4, 5, 5, 6)",
    ),
    "range before repeats": (
        (10, [(0, 1, 2, 3), (0, 1, 12, 11), (4, 5, 5, 6)]),
        "NotAQuad", "face 1 references vertex 12",
    ),
    "three faces on two edges": (
        (14, [(5, 6, 7, 8), (6, 5, 9, 10), (0, 1, 2, 3), (1, 0, 4, 11),
              (5, 6, 12, 13), (0, 1, 12, 13)]),
        "NonManifold", "edge (5, 6) has 3 incident faces",
    ),
    "two face pairs sharing two edges": (
        (10, [(5, 6, 7, 8), (6, 5, 9, 7), (0, 1, 2, 3), (1, 0, 4, 2)]),
        "NotStronglyRegular", "faces (0, 1) share edges (5, 6) and (6, 7)",
    ),
    "two Moebius bands": (
        (12, shifted(moebius_quads()[1], 6) + moebius_quads()[1]),
        "NonOrientable", "faces 1 and 2 cannot be oriented consistently "
        "across edge (8, 11)",
    ),
    "two pinched vertices": (
        # arrivals at 5 come from 2 and 3, at 6 from 0 and 1: the sorted
        # scan of boundary sides meets vertex 6 twice first
        (15, [(2, 5, 11, 12), (3, 5, 13, 14), (0, 6, 7, 8), (1, 6, 9, 10)]),
        "NonManifold", "vertex 6 lies on more than one boundary arc",
    ),
    "two bow ties": (
        (34, shifted(UMBRELLA + SECOND_FAN, 17) + UMBRELLA + SECOND_FAN),
        "NonManifold", "vertex 0 joins multiple face fans (bow tie)",
    ),
    "a bow tie with a boundary fan": (
        (12, [(11, 9, 10, 0)] + UMBRELLA),
        "NonManifold", "vertex 0 joins multiple face fans (bow tie)",
    ),
}


@pytest.mark.parametrize("case", sorted(ERROR_CASES))
def test_mesh_errors_name_the_first_offender_of_the_object_build(case):
    (vertex_count, quads), kind, message = ERROR_CASES[case]
    got = outcome(lambda: build(vertex_count, quads))
    assert got == outcome(lambda: reference_graph(vertex_count, quads))
    assert got == (kind, message)


DISCONNECTED = (12, [(0, 1, 2, 3), (4, 5, 6, 7), (1, 0, 8, 9), (10, 11, 6, 5)])


@pytest.mark.parametrize("vertex_count,quads", [cylinder_quads(), DISCONNECTED])
def test_traversal_errors_equal_the_object_build(vertex_count, quads):
    g = build(vertex_count, quads)
    ref = reference_graph(vertex_count, quads)
    assert outcome(g.strips) == outcome(ref.strips)
    for seed in range(g.face_count):
        tree = outcome(lambda: g.dual_spanning_tree(seed))
        assert tree == outcome(lambda: ref.dual_spanning_tree(seed))


def test_disconnected_tree_lists_every_unreached_face():
    with pytest.raises(DisconnectedMesh, match=r"faces \[0, 2\] unreachable from 1"):
        build(*DISCONNECTED).dual_spanning_tree(1)


# --- orientation and strips against the object build ----------------------------------


def union(*meshes):
    """Disjoint union of ``(vertex_count, quads)`` meshes."""
    count, quads = 0, []
    for vertex_count, faces in meshes:
        quads += shifted(faces, count)
        count += vertex_count
    return count, quads


def reversed_faces(quads, seed):
    """``quads`` with each face reversed with probability one half."""
    rng = np.random.default_rng(seed)
    return [tuple(q[::-1]) if rng.random() < 0.5 else tuple(q) for q in quads]


# a disc whose side faces form a closed belt
LIDLESS_CUBE = (8, [(0, 3, 2, 1), (0, 1, 5, 4), (1, 2, 6, 5), (2, 3, 7, 6), (3, 0, 4, 7)])
# a row of four quads whose last far side is glued to the side (0, 1) of
# the first: the strip along the row crosses that face a second time,
# through its other side pair
LASSO = (8, [(0, 1, 2, 3), (1, 4, 5, 2), (4, 6, 7, 5), (6, 1, 0, 7)])
LASSO_FROM_ITS_SECOND_FACE = (8, [LASSO[1][k] for k in (1, 0, 2, 3)])

ORIENTABLE_CASES = MESH_CASES + [cylinder_quads(), LIDLESS_CUBE, LASSO]


@pytest.mark.parametrize("vertex_count,quads", ORIENTABLE_CASES)
def test_consistently_oriented_scrambles_reverse_no_face(vertex_count, quads):
    for seed in range(4):
        count, faces = scrambled(vertex_count, quads, seed, reverse=0.0)
        every = [tuple(q[::-1]) for q in faces]
        for listed in (faces, every):
            g = build(count, listed)
            assert g.face_vertices.tolist() == [list(q) for q in listed]
            ref = reference_graph(count, listed)
            assert [tuple(q) for q in g.face_vertices.tolist()] == [
                ref.face_vertices(f) for f in range(g.face_count)
            ]


@pytest.mark.parametrize("vertex_count,quads", ORIENTABLE_CASES)
def test_random_face_reversals_orient_like_the_object_build(vertex_count, quads):
    for seed in range(6):
        faces = reversed_faces(quads, seed)
        g = build(vertex_count, faces)
        ref = reference_graph(vertex_count, faces)
        assert [tuple(q) for q in g.face_vertices.tolist()] == [
            ref.face_vertices(f) for f in range(g.face_count)
        ]


NON_ORIENTABLE_CASES = [
    moebius_quads(),
    union(grid_graph(2, 2), moebius_quads()),
    union(moebius_quads(), umbrella_graph(4), moebius_quads()),
]


@pytest.mark.parametrize("vertex_count,quads", NON_ORIENTABLE_CASES)
def test_random_face_reversals_clash_where_the_object_build_does(vertex_count, quads):
    for seed in range(6):
        faces = reversed_faces(quads, seed)
        got = outcome(lambda: build(vertex_count, faces))
        assert got[0] == "NonOrientable"
        assert got == outcome(lambda: reference_graph(vertex_count, faces))


STRIP_ERRORS = {
    "ring": (cylinder_quads(), "strip through face 0 returns to it"),
    "belt of a lidless cube": (LIDLESS_CUBE, "strip through face 1 returns to it"),
    "lasso from its crossing face": (LASSO, "strip through face 0 returns to it"),
    "lasso from another face": (
        LASSO_FROM_ITS_SECOND_FACE, "strip through face 0 self-intersects"
    ),
    "grid, then a lasso": (
        union(grid_graph(2, 2), LASSO_FROM_ITS_SECOND_FACE),
        "strip through face 4 self-intersects",
    ),
    "grid, then a belt": (
        union(grid_graph(3, 1), LIDLESS_CUBE), "strip through face 4 returns to it"
    ),
}


@pytest.mark.parametrize("case", sorted(STRIP_ERRORS))
def test_strips_that_close_or_cross_themselves_fail_like_the_object_build(case):
    (vertex_count, quads), message = STRIP_ERRORS[case]
    got = outcome(build(vertex_count, quads).strips)
    assert got == ("ClosedStripDetected", message)
    assert got == outcome(reference_graph(vertex_count, quads).strips)
    for seed in range(4):
        count, faces = scrambled(vertex_count, quads, seed)
        got = outcome(build(count, faces).strips)
        assert got[0] == "ClosedStripDetected"
        assert got == outcome(reference_graph(count, faces).strips)


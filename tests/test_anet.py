"""Planar-star validation, face frames, diagonals, and twist signs."""

import re
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

import hypnet.anet
import hypnet.plucker
from hypnet.anet import (
    FACE_VOLUME_EPS,
    PENCIL_RANK_TOL,
    SKEW_PAIR_EPS,
    ANet,
    _by_degree,
    _certified_pencils,
    _collect_violations,
    _pencil_bounds,
    diagnose_anet,
    star_plane,
    validate_anet,
)
from hypnet.errors import DegenerateFace, NonGenericPair, NonPlanarStar
from hypnet.plucker import (
    Tolerances,
    _basis_gram,
    _span_signatures,
    hom,
    incidence_matrix,
    line_from_points,
    plucker_product,
    span,
)
from hypnet.quadgraph import build
from hypnet.synthetic import (
    grid_graph,
    quadric_grid,
    random_grid3x3_net,
    random_umbrella_net,
    umbrella_graph,
)

from oracles import (
    edge_id,
    exact_det4,
    face_volume_ratio,
    in_span,
    proj_distance,
    reference_axis,
    reference_star_plane,
    reference_walk,
    regulus_orientation,
    skew_matrix,
)

SPEC_QUAD = np.array(
    [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 1.0, 1.0], [0.0, 1.0, 0.0]]
)


def single_quad_net(points):
    g = build(4, [(0, 1, 2, 3)])
    return g, validate_anet(g, np.asarray(points, dtype=float))


def twist_of(net, f, e):
    """Twist sign of the opposite-edge pair of face ``f`` through edge
    ``e``, read from the net's ``face_twists``."""
    return int(net.face_twists[f, net.graph.face_edges[f].tolist().index(e) % 2])


def random_skew_quad(rng):
    while True:
        pts = rng.uniform(-1, 1, size=(4, 3))
        if face_volume_ratio(pts, (0, 1, 2, 3)) > 1e-2:
            return pts


# --- validation ---------------------------------------------------------------


def test_quadric_grid_is_valid_with_tangent_contact_planes():
    n, quads, pos = quadric_grid(3, 3)
    net = validate_anet(build(n, quads), pos)
    for v in range(n):
        x0, y0, z0 = pos[v]
        expected = np.array([y0, x0, -1.0, -x0 * y0])
        got = net.contact_planes[v]
        cos = abs(expected @ got) / (
            np.linalg.norm(expected) * np.linalg.norm(got)
        )
        assert cos > 1 - 1e-12
        assert net.planarity_residuals[v] < 1e-12


def test_quadric_grid_stars_planar_by_exact_determinants():
    n, quads, pos = quadric_grid(2, 2)
    g = build(n, quads)
    for v in range(n):
        neighbors, _ = g.vertex_star(v)
        star = [pos[v]] + [pos[u] for u in neighbors]
        rows = [
            [Fraction(int(c)) for c in p] + [Fraction(1)] for p in star
        ]
        for subset in combinations(rows, 4):
            assert exact_det4(list(subset)) == 0


def test_flat_grid_rejected_as_degenerate():
    n, quads = grid_graph(2, 2)
    pos = np.array([[ix, iy, 0.0] for iy in range(3) for ix in range(3)])
    with pytest.raises(DegenerateFace) as exc:
        validate_anet(build(n, quads), pos)
    assert exc.value.data["face"] == 0


def test_perturbed_vertex_breaks_star_planarity():
    n, quads, pos = quadric_grid(3, 3)
    center = 5  # interior vertex of the 4x4 vertex grid
    pos = pos.copy()
    pos[center] += (1e-3, 0.0, 1e-3)
    g = build(n, quads)
    with pytest.raises(NonPlanarStar) as exc:
        validate_anet(g, pos)
    neighbors, _ = g.vertex_star(center)
    assert exc.value.data["vertex"] in {center, *neighbors}


def test_zero_length_edge_rejected():
    pts = SPEC_QUAD.copy()
    pts[1] = pts[0]
    g = build(4, [(0, 1, 2, 3)])
    with pytest.raises(NonGenericPair) as exc:
        validate_anet(g, pts)
    assert exc.value.data["reason"] == "zero-length edge"


def test_random_generators_produce_valid_nets():
    rng = np.random.default_rng(7)
    for _ in range(5):
        n, quads, pos = random_grid3x3_net(rng)
        net = validate_anet(build(n, quads), pos)
        assert np.nanmax(net.planarity_residuals) < 1e-10
    for k in (3, 4, 6):
        n, quads, pos = random_umbrella_net(k, rng)
        net = validate_anet(build(n, quads), pos)
        assert np.nanmax(net.planarity_residuals) < 1e-10


def test_contact_elements_are_valid_and_carry_edge_lines():
    n, quads, pos = quadric_grid(2, 2)
    g = build(n, quads)
    net = validate_anet(g, pos)
    for v in range(n):
        point = hom(pos[v])
        plane = net.contact_planes[v]
        assert abs(plane @ point) < 1e-8
        lines = [
            net.edge_lines[e] for e in np.flatnonzero(np.any(g.edges == v, axis=1))
        ]
        pencil = span(np.array(lines), rank_tol=PENCIL_RANK_TOL)
        assert pencil.signature == (0, 0, 2)
        # the pencil's lines pass through the vertex inside its plane
        for row in pencil.basis:
            assert np.linalg.norm(incidence_matrix(row) @ point) < 1e-8
            assert np.linalg.norm(skew_matrix(row) @ plane) < 1e-8
        for line in lines:
            assert in_span(pencil.basis, line, tol=1e-8)


# --- face frames -----------------------------------------------------------------


def test_spec_quad_frame_signatures():
    _, net = single_quad_net(SPEC_QUAD)
    frame = net.face_frame(0)
    assert reference_axis(frame)[1] == (1, 1, 0)
    for g_diag in frame.diagonals:
        assert abs(plucker_product(g_diag, g_diag)) < 1e-12
        assert in_span(reference_axis(frame)[0], g_diag, tol=1e-8)
    assert abs(plucker_product(*frame.diagonals)) > 1e-3


def test_frame_roles_follow_entry_half_edge():
    n, quads, pos = quadric_grid(2, 2)
    g = build(n, quads)
    net = validate_anet(g, pos)
    for f in range(g.face_count):
        edges = g.face_edges[f].tolist()
        for k in range(4):
            frame = net.face_frame(f, 4 * f + k)
            x, x1, x2, x12 = frame.corners
            assert g.face_vertices[f, k] == x and g.face_vertices[f, (k + 1) % 4] == x2
            # entry edge plays the second-family base role, its opposite
            # the second-family shift
            assert frame.h_edges[2] == edges[k]
            assert frame.h_edges[3] == edges[(k + 2) % 4]
            assert edges[(edges.index(frame.h_edges[0]) + 2) % 4] == frame.h_edges[1]
            # role lines pass through the right corners
            assert frame.h_edges[0] == edge_id(g, x, x1)
            assert frame.h_edges[1] == edge_id(g, x2, x12)
            assert frame.h_edges[2] == edge_id(g, x, x2)
            assert frame.h_edges[3] == edge_id(g, x1, x12)
            assert frame.opposite_in_family(frame.h_edges[0]) == frame.h_edges[1]
        assert net.face_corners(f) == net.face_frame(f).corners


def test_axis_meets_quadric_exactly_in_the_diagonals():
    rng = np.random.default_rng(21)
    for _ in range(25):
        pts = random_skew_quad(rng)
        _, net = single_quad_net(pts)
        frame = net.face_frame(0)
        b1, b2 = reference_axis(frame)[0]
        s11 = plucker_product(b1, b1)
        s12 = plucker_product(b1, b2)
        s22 = plucker_product(b2, b2)
        if abs(s11) < 1e-12:
            points = [b1, -s22 * b1 + 2 * s12 * b2]
        else:
            disc = np.sqrt(s12**2 - s11 * s22)
            points = [
                ((-s12 + sign * disc) / s11) * b1 + b2 for sign in (1, -1)
            ]
        got = sorted(
            [p / np.linalg.norm(p) for p in points],
            key=lambda p: proj_distance(p, frame.diagonals[0]),
        )
        assert proj_distance(got[0], frame.diagonals[0]) < 1e-7
        assert proj_distance(got[1], frame.diagonals[1]) < 1e-7


def test_edge_lines_shared_between_adjacent_frames():
    n, quads, pos = quadric_grid(2, 2)
    g = build(n, quads)
    net = validate_anet(g, pos)
    for e, (fa, fb) in enumerate(g.edge_faces.tolist()):
        if fa < 0 or fb < 0:
            continue
        la = net.face_frame(fa).line_of_edge(e)
        lb = net.face_frame(fb).line_of_edge(e)
        assert proj_distance(la, lb) < 1e-14


# --- twist ----------------------------------------------------------------------


def test_spec_quad_twist_frozen_values():
    g, net = single_quad_net(SPEC_QUAD)
    e_ab = edge_id(g, 0, 1)
    e_bc = edge_id(g, 1, 2)
    assert twist_of(net, 0, e_ab) == -1
    assert twist_of(net, 0, e_bc) == +1
    # same pairings through the opposite edges
    assert twist_of(net, 0, edge_id(g, 2, 3)) == -1
    assert twist_of(net, 0, edge_id(g, 3, 0)) == +1
    frame = net.face_frame(0)
    assert twist_of(net, 0, frame.h_edges[2]) == -1  # entry edge (0,1)
    assert twist_of(net, 0, frame.h_edges[0]) == +1


def test_twist_pairs_are_opposite_and_relabel_invariant():
    rng = np.random.default_rng(5)
    for _ in range(20):
        pts = random_skew_quad(rng)
        g, net = single_quad_net(pts)
        frame = net.face_frame(0)
        assert twist_of(net, 0, frame.h_edges[0]) == -twist_of(
            net, 0, frame.h_edges[2]
        )
        base = twist_of(net, 0, edge_id(g, 0, 1))
        # relabel the same spatial quad by pairing-preserving symmetries
        for relabel in [(1, 2, 3, 0), (2, 3, 0, 1), (3, 2, 1, 0)]:
            g2 = build(4, [tuple(relabel)])
            net2 = validate_anet(g2, pts)
            assert twist_of(net2, 0, edge_id(g2, 0, 1)) == base


def test_twist_matches_regulus_orientation_of_cross_transversals():
    rng = np.random.default_rng(11)
    for _ in range(20):
        pts = random_skew_quad(rng)
        g, net = single_quad_net(pts)
        frame = net.face_frame(0)
        x, x1, x2, x12 = (pts[v] for v in frame.corners)
        t = twist_of(net, 0, frame.h_edges[0])
        for _ in range(5):
            u, w = rng.uniform(0.1, 0.9, size=2)
            p = (1 - u) * x + u * x2
            q = (1 - w) * x1 + w * x12
            m = line_from_points(hom([p])[0], hom([q])[0])
            assert (
                regulus_orientation(frame.h_lines[0], frame.h_lines[1], m)
                == t
            )


def exact_twist(net, f, k):
    """Twist sign of the pair through edge ``k`` of face ``f``, exactly:
    the corners from that edge on, with the pair's edges run in parallel."""
    quad = net.graph.face_vertices[f].tolist()
    c = [quad[(k + i) % 4] for i in range(4)]
    rows = [
        [Fraction(float(x)) for x in net.positions[v]] + [Fraction(1)]
        for v in (c[0], c[1], c[3], c[2])
    ]
    return 1 if exact_det4(rows) > 0 else -1


def test_face_twist_table_matches_exact_twists_through_every_edge():
    rng = np.random.default_rng(17)
    nets = [validate_anet(build(n, q), p) for n, q, p in (
        quadric_grid(3, 2), random_grid3x3_net(rng), random_umbrella_net(4, rng),
    )]
    for net in nets:
        g = net.graph
        table = net.face_twists
        assert table.shape == (g.face_count, 2)
        for f in range(g.face_count):
            for k in range(4):
                assert exact_twist(net, f, k) == table[f, k % 2]
        assert net.face_twists is table  # computed once per net


def test_face_twist_table_guards_flat_faces():
    n, quads = grid_graph(2, 2)
    pos = np.array([[ix, iy, ix * iy] for iy in range(3) for ix in range(3)],
                   dtype=float)
    pos[[0, 1, 3, 4], 2] = 0.0  # face 0 flat
    net = ANet(build(n, quads), pos, None, None, None, None)
    with pytest.raises(DegenerateFace) as exc:
        net.face_twists
    assert exc.value.data["face"] == 0


def test_the_walk_hands_its_face_signs_to_the_net(monkeypatch):
    # one _face_volumes pass per chunk of faces, all in the face stage
    n, quads, pos = quadric_grid(23, 12)
    g = build(n, quads)
    calls = []
    real = hypnet.anet._face_volumes
    monkeypatch.setattr(
        hypnet.anet, "_face_volumes", lambda *args: calls.append(1) or real(*args)
    )
    report = diagnose_anet(g, pos)
    assert report["valid"] and report["equi_twisted"]
    assert len(calls) == -(-g.face_count // hypnet.anet.CHUNK) == 2
    net = validate_anet(g, pos)
    assert len(calls) == 4
    alone = ANet(g, pos, None, None, None, None).face_twists
    assert len(calls) == 5  # a net built without the walk computes them
    assert report["face_twists"] == alone.tolist()
    assert np.array_equal(net.face_twists, alone)
    assert net.face_twists.dtype == alone.dtype


# --- equi-twist ------------------------------------------------------------------


def test_quadric_grid_is_equi_twisted():
    n, quads, pos = quadric_grid(3, 2)
    net = validate_anet(build(n, quads), pos)
    verdict, report = net.equi_twisted()
    assert verdict
    assert report["interior_degrees_even"]
    assert all(s["uniform"] for s in report["strips"])


def test_single_face_is_equi_twisted():
    _, net = single_quad_net(SPEC_QUAD)
    verdict, report = net.equi_twisted()
    assert verdict
    assert len(report["strips"]) == 2


def test_odd_umbrella_never_equi_twisted():
    rng = np.random.default_rng(3)
    for _ in range(5):
        n, quads, pos = random_umbrella_net(3, rng)
        net = validate_anet(build(n, quads), pos)
        verdict, report = net.equi_twisted()
        assert not verdict
        assert not report["interior_degrees_even"]
        assert report["odd_degree_vertices"] == [0]
        assert any(not s["uniform"] for s in report["strips"])


# --- frames by BFS -------------------------------------------------------------------


def test_frames_from_seed_assign_entry_edges():
    n, quads, pos = quadric_grid(2, 2)
    g = build(n, quads)
    net = validate_anet(g, pos)
    frames, tree = net.frames_from(0)
    assert tree.tolist() == [list(step) for step in g.dual_spanning_tree(0)]
    assert frames.faces.tolist() == [0] + tree[:, 0].tolist()
    assert frames[0].entry_half_edge == 0
    # row k + 1 is the face of tree step k, entered across the shared edge
    assert np.array_equal(frames.h_edges[1:, 2], tree[:, 2])


def test_stacked_frames_equal_the_one_face_calls():
    n, quads, pos = quadric_grid(4, 3, spacing=0.3, origin=(-1.0, 0.5))
    g = build(n, quads)
    net = validate_anet(g, pos)
    frames, tree = net.frames_from(5)
    entries = {5: 20}
    entries.update({
        face: 4 * face + g.face_edges[face].tolist().index(shared)
        for face, _, shared in tree.tolist()
    })
    assert len(frames) == g.face_count
    for k in range(len(frames)):
        frame = frames[k]
        alone = net.face_frame(frame.face, entries[frame.face])
        assert frame.entry_half_edge == alone.entry_half_edge
        assert frame.corners == alone.corners
        assert frame.h_edges == alone.h_edges
        assert np.array_equal(frame.h_lines, alone.h_lines)
        assert np.array_equal(frame.diagonals, alone.diagonals)
        assert reference_axis(frame)[1] == (1, 1, 0)


@pytest.mark.parametrize("face", [-1, 9])
def test_face_ids_out_of_range_raise_a_value_error(face):
    n, quads, pos = quadric_grid(3, 3)
    net = validate_anet(build(n, quads), pos)
    message = re.escape(f"face {face} is not a face id (net has 9 faces)")
    with pytest.raises(ValueError, match=message):
        net.face_frame(face)
    with pytest.raises(ValueError, match=message):
        net.frames([0, face], [0, 4 * face])
    with pytest.raises(ValueError, match=f"face {face} is not a face id"):
        net.frames_from(face)


def test_frame_genericity_is_read_in_face_local_coordinates():
    # small faces far from the origin: global Pluecker coordinates of
    # their edge lines are too badly conditioned for a signature read
    n, quads, pos = quadric_grid(20, 20, spacing=0.01, origin=(30.0, 30.0))
    net = validate_anet(build(n, quads), pos)
    frames, _ = net.frames_from(0)
    assert len(frames) == 400


def test_first_non_generic_frame_in_the_given_order_is_raised():
    n, quads, pos = quadric_grid(3, 3)
    net = validate_anet(build(n, quads), pos, Tolerances(sig=0.5))
    g = net.graph
    order = [4, 7, 0]
    with pytest.raises(NonGenericPair) as err:
        net.frames(order, [4 * f for f in order])
    assert err.value.data["face"] == 4
    with pytest.raises(NonGenericPair) as err:
        net.face_frame(7)
    assert err.value.data["face"] == 7


# --- diagnose --------------------------------------------------------------------


def test_diagnose_reports_all_flat_faces():
    n, quads = grid_graph(2, 2)
    pos = np.array([[ix, iy, 0.0] for iy in range(3) for ix in range(3)])
    report = diagnose_anet(build(n, quads), pos)
    assert not report["valid"]
    flat = [v for v in report["violations"] if v["kind"] == "degenerate_face"]
    assert [v["face"] for v in flat] == [0, 1, 2, 3]


def test_diagnose_valid_net_carries_twists_and_strips():
    n, quads, pos = quadric_grid(2, 2)
    report = diagnose_anet(build(n, quads), pos)
    assert report["valid"]
    assert report["equi_twisted"]
    assert len(report["face_twists"]) == 4
    assert all(a == -b for a, b in report["face_twists"])


def test_diagnose_reports_a_fully_collapsed_net_without_raising():
    n, quads, pos = quadric_grid(2, 2)
    g = build(n, quads)
    report = diagnose_anet(g, np.zeros_like(pos))
    assert not report["valid"]
    found = report["violations"]
    assert [v["edges"] for v in found[:12]] == [[e] for e in range(12)]
    assert all(v["reason"] == "zero-length edge" for v in found[:12])
    assert [v["face"] for v in found[12:16]] == [0, 1, 2, 3]
    assert all(v["kind"] == "degenerate_face" for v in found[12:16])
    pencils = found[16:]
    assert [v["vertex"] for v in pencils] == list(range(9))
    for v in pencils:
        assert v["kind"] == "non_generic_pair"
        assert v["pencil_dim"] == -1 and v["pencil_signature"] == [0, 0, 0]
    with pytest.raises(NonGenericPair) as exc:
        validate_anet(g, np.zeros_like(pos))
    assert exc.value.data["edges"] == (0,)


# --- the batched walk against the one-at-a-time oracle ----------------------------


_KINDS = {
    "non_planar_star": NonPlanarStar,
    "degenerate_face": DegenerateFace,
    "non_generic_pair": NonGenericPair,
}


def assert_walk_matches_oracle(g, pos, tol=Tolerances()):
    """The walk finds the oracle's violations in its order with its
    values; residuals and diameters are equal bit for bit, planes and
    edge lines to 1e-15; ``validate_anet`` raises the first violation
    and ``diagnose_anet`` lists them all.  Returns the violations."""
    pos = np.asarray(pos, dtype=float)
    found, planes, residuals, diameters, lines = reference_walk(
        g, pos, tol.planar, tol.sig, FACE_VOLUME_EPS, SKEW_PAIR_EPS,
        PENCIL_RANK_TOL,
    )
    walk = _collect_violations(g, pos, False, tol)
    assert walk.violations == found
    np.testing.assert_array_equal(walk.residuals, residuals)
    np.testing.assert_array_equal(walk.diameters, diameters)
    np.testing.assert_allclose(walk.planes, planes, rtol=0, atol=1e-15)
    np.testing.assert_allclose(walk.edge_lines, lines, rtol=0, atol=1e-15)
    report = diagnose_anet(g, pos, tol)
    assert report["valid"] == (not found)
    assert [v["kind"] for v in report["violations"]] == [k for k, _ in found]
    for entry, (_, data) in zip(report["violations"], found):
        assert entry == {
            "kind": entry["kind"],
            **{k: list(v) if isinstance(v, tuple) else v for k, v in data.items()},
        }
    if found:
        kind, data = found[0]
        with pytest.raises(_KINDS[kind]) as exc:
            validate_anet(g, pos, tol)
        assert exc.value.data == data
    else:
        net = validate_anet(g, pos, tol)
        np.testing.assert_array_equal(net.planarity_residuals, residuals)
        np.testing.assert_array_equal(net.edge_lines, walk.edge_lines)
    return found


def test_walk_matches_oracle_on_valid_nets():
    rng = np.random.default_rng(29)
    nets = [
        quadric_grid(3, 3),
        quadric_grid(4, 2, spacing=0.37, origin=(-1.3, 0.6)),
        *(random_grid3x3_net(rng) for _ in range(3)),
        *(random_umbrella_net(k, rng) for k in (3, 4, 5, 6)),
    ]
    for n, quads, pos in nets:
        assert assert_walk_matches_oracle(build(n, quads), pos) == []


def test_walk_matches_oracle_with_an_unreferenced_vertex():
    n, quads, pos = quadric_grid(2, 2)
    pos = np.vstack([pos, [[7.0, -1.0, 2.0]]])
    g = build(n + 1, quads)
    assert assert_walk_matches_oracle(g, pos) == []
    walk = _collect_violations(g, pos, False, Tolerances())
    assert np.isnan(walk.planes[n]).all() and np.isnan(walk.residuals[n])


def _planted():
    n, quads, pos = quadric_grid(3, 3)
    lifted = pos.copy()
    lifted[5] += (1e-3, 0.0, 1e-3)
    n2, quads2, pos2 = quadric_grid(2, 2)
    short = pos2.copy()
    short[1] = short[0]
    flat = pos2.copy()
    flat[[0, 1, 3, 4], 2] = 0.0
    flat[4, 2] = 1e-12  # face 0 nearly flat, with a nonzero volume ratio
    collinear = pos2.copy()
    collinear[0] = (collinear[1] + collinear[3]) / 2
    # name: (net, a kind or a data key the planted violation carries)
    return {
        "lifted_vertex": ((n, quads, lifted), "non_planar_star"),
        "zero_length_edge": ((n2, quads2, short), "reason"),
        "flat_face": ((n2, quads2, flat), "degenerate_face"),
        # far from the origin the unit edge lines of a small face nearly meet
        "meeting_pair": ((n, quads, 0.01 * pos + 1e4), "product"),
        "collinear_pencil": ((n2, quads2, collinear), "pencil_dim"),
    }


@pytest.mark.parametrize("planted", sorted(_planted()))
def test_walk_matches_oracle_on_planted_violations(planted):
    (n, quads, pos), mark = _planted()[planted]
    found = assert_walk_matches_oracle(build(n, quads), pos)
    assert any(kind == mark or mark in data for kind, data in found)


def test_walk_matches_oracle_on_pencil_signatures():
    rng = np.random.default_rng(31)
    n, quads, pos = random_grid3x3_net(rng)
    found = assert_walk_matches_oracle(build(n, quads), pos, Tolerances(sig=1e-30))
    assert any(data.get("pencil_signature", (0, 0, 2)) != (0, 0, 2)
               for _, data in found)


def test_walk_matches_oracle_past_one_chunk():
    n, quads, pos = quadric_grid(40, 40, spacing=0.05, origin=(-1.0, -1.0))
    g = build(n, quads)
    assert n > hypnet.anet.CHUNK and g.edge_count > 3 * hypnet.anet.CHUNK
    pos = pos.copy()
    pos[1638] += (1e-4, 0.0, 1e-4)  # an interior vertex in the last chunk
    pos[1680] = pos[1679]  # the last edge and the last face collapse
    found = assert_walk_matches_oracle(g, pos)
    assert ("degenerate_face", {"face": 1599, "ratio": 0.0}) in found
    assert any(data.get("vertex") == 1638 for kind, data in found
               if kind == "non_planar_star")
    assert any(data.get("edges") == (3279,) for _, data in found)


def test_star_plane_of_one_star_equals_the_stacked_fit():
    rng = np.random.default_rng(37)
    stars = rng.normal(size=(50, 5, 3)) * rng.uniform(0.01, 100, size=(50, 1, 1))
    planes, residuals, diameters = star_plane(stars)
    for k, star in enumerate(stars):
        plane, residual, diameter = star_plane(star)
        ref_plane, ref_residual, ref_diameter = reference_star_plane(star)
        assert residual == residuals[k] == ref_residual
        assert diameter == diameters[k] == ref_diameter
        np.testing.assert_array_equal(plane, planes[k])
        np.testing.assert_allclose(plane, ref_plane, rtol=0, atol=1e-15)


def test_face_volume_kernel_equals_the_one_face_ratio():
    rng = np.random.default_rng(41)
    pos = rng.normal(size=(400, 3)) * rng.uniform(0.01, 100, size=(400, 1))
    quads = rng.permutation(400).reshape(-1, 4)
    pos[quads[::3, 3]] = pos[quads[::3, 2]]  # some collapsed edges
    pos[quads[1::3, 3]] = (pos[quads[1::3, 0]] + pos[quads[1::3, 2]]) / 2  # flat
    _, ratio = hypnet.anet._face_volumes(pos, quads)
    assert ratio.tolist() == [face_volume_ratio(pos, q) for q in quads]


def count_calls(monkeypatch, module, name, calls):
    """Count the calls of ``module.name`` under the key ``name``."""
    func = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls[name] += 1
        return func(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)


def test_diagnose_makes_no_per_vertex_span_or_svd_calls(monkeypatch):
    n, quads, pos = quadric_grid(10, 10)
    g = build(n, quads)
    calls = {"span": 0, "svd": 0}
    for module in (hypnet.plucker, hypnet.anet):
        # anet imports no span today; the spy still catches one it gains
        monkeypatch.setattr(module, "span", hypnet.plucker.span, raising=False)
        count_calls(monkeypatch, module, "span", calls)
    count_calls(monkeypatch, np.linalg, "svd", calls)
    assert diagnose_anet(g, pos)["valid"]
    # one stacked SVD per star group: the 3 vertex degrees of a grid, each
    # group in one chunk; the pencil stage certifies every exact pencil
    assert calls["span"] == 0
    assert calls["svd"] == 3


def test_exact_wide_grid_reads_its_pencils_without_an_svd(monkeypatch):
    n, quads, pos = quadric_grid(80, 80, spacing=0.03, origin=(-1.7, -1.2))
    g = build(n, quads)
    calls = {"svd": 0, "_span_signatures": 0}
    count_calls(monkeypatch, np.linalg, "svd", calls)
    count_calls(monkeypatch, hypnet.anet, "_span_signatures", calls)
    assert diagnose_anet(g, pos)["valid"]
    assert calls["_span_signatures"] == 0
    assert calls["svd"] == len(list(_by_degree(g.degrees)))


# --- the closed-form pencil certificate ------------------------------------------


def random_rotation(rng, n=6):
    """A random orthogonal ``n`` x ``n`` matrix."""
    q, r = np.linalg.qr(rng.normal(size=(n, n)))
    return q * np.sign(np.diag(r))


def form_rotation(rng):
    """A random orthogonal 6x6 matrix that keeps the Pluecker form: the
    same 3x3 rotation on both halves of a 6-vector."""
    return np.kron(np.eye(2), random_rotation(rng, 3))


def star_basis(rng, count):
    """``count`` orthonormal triples ``(p, q, n)`` in the lines through a
    random point: ``p, q`` span the lines of a random plane through it
    (a pencil), ``n`` a line through it off that plane."""
    bases = []
    for _ in range(count):
        x = hom(rng.normal(size=3))
        d = rng.normal(size=(3, 3))
        lines = np.array([line_from_points(x, hom(x[:3] + di)) for di in d])
        bases.append(np.linalg.qr(lines.T)[0].T)
    return np.array(bases)


def pencil_rows(basis, angles):
    """Rows ``cos t p + sin t q`` of each basis ``(B, 2.., 6)`` at the
    angles ``(B, k)``."""
    return np.cos(angles)[..., None] * basis[:, :1] + np.sin(angles)[..., None] * basis[:, 1:2]


def certificate_stacks(rng, sig, count=160):
    """Stacks of edge-line sets ``(count, 4, 6)`` that straddle every cut
    of the pencil reading at ``sig``."""
    spread = rng.uniform(0, np.pi, size=(count, 4))
    basis = star_basis(rng, count)
    exact = pencil_rows(basis, spread)
    stacks = {"exact": exact}
    # a line leaves the plane, staying on the point: a third singular value
    # swept across the rank cut
    leak = exact.copy()
    leak[:, 1] += np.geomspace(1e-9, 1e-4, count)[:, None] * basis[:, 2]
    stacks["s3_sweep"] = leak / np.linalg.norm(leak, axis=-1, keepdims=True)
    # lines of nearly one direction: the second singular value swept
    # across the rank cut
    narrow = np.geomspace(1e-8, 1e-3, count)[:, None] * np.linspace(0, 1, 4)
    stacks["s2_sweep"] = pencil_rows(basis, spread[:, :1] + narrow)
    # generators of a plane that is not isotropic: the form swept across sig
    tilt = np.geomspace(1e-3, 20, count)[:, None, None] * rng.normal(size=(count, 2, 6))
    tilted = pencil_rows(basis[:, :2] + sig * tilt, spread)
    stacks["form_sweep"] = tilted / np.linalg.norm(tilted, axis=-1, keepdims=True)
    # an isotropic line and a short row whose unit form is swept across
    # sig: the form bound is attained to within 1 %
    half = 0.5 * np.arcsin(np.minimum(sig * np.geomspace(0.05, 20, count), 1.0))
    tight = np.zeros((count, 2, 6))
    tight[:, 0, 0] = 1.0
    tight[:, 1, 1], tight[:, 1, 4] = 0.1 * np.cos(half), 0.1 * np.sin(half)
    turn = np.array([form_rotation(rng) for _ in range(count)])
    stacks["form_tight"] = tight @ turn.swapaxes(1, 2)
    # the whole set scaled across the zero floor
    stacks["scale_sweep"] = exact * np.geomspace(1e-15, 1e-11, count)[:, None, None]
    signs = rng.choice([-1.0, 1.0], size=(count, 4, 1))
    stacks["collinear"] = exact[:, :1] * signs
    zeros = exact.copy()
    zeros[: count // 2, 0] = 0.0
    zeros[count // 2:] = 0.0
    stacks["zero_rows"] = zeros
    n, quads, pos = quadric_grid(6, 6, spacing=0.1, origin=(-0.4, -0.3))
    g = build(n, quads)
    by_vertex = np.argsort(g.edges.ravel(), kind="stable") // 2
    verts = np.flatnonzero(g.degrees == 4)
    incident = by_vertex[g.star_offsets[verts][:, None] + np.arange(4)]
    for shift in (0.0, 30.0, 1e3, 1e4):
        walk = _collect_violations(g, pos + shift, False, Tolerances(sig=sig))
        stacks[f"net_shifted_{shift:g}"] = walk.edge_lines[incident]
    return stacks


def svd_reading(lines, sig):
    """The three largest singular values ``(B, 3)`` of each set (0 past
    its row count) and the largest eigenvalue magnitude ``(B,)`` of the
    form over its top two right singular vectors, as
    :func:`_span_signatures` computes them."""
    _, s, vt = np.linalg.svd(lines)
    gram = _basis_gram(vt[:, :2], sig)[1]
    lam = np.linalg.eigvalsh(0.5 * (gram + gram.swapaxes(1, 2)))
    s = np.pad(s, [(0, 0), (0, max(0, 3 - s.shape[1]))])
    return s[:, :3], np.abs(lam).max(axis=1)


@pytest.mark.parametrize(
    "sig", [1e-30, 1e-15, 3e-15, 1e-14, 1e-12, 1e-9, 1e-6, 1e-3, 0.5]
)
def test_certified_pencils_pass_the_svd_reading_with_room(sig):
    rng = np.random.default_rng(43)
    accepted = {}
    for name, lines in certificate_stacks(rng, sig).items():
        ok = _certified_pencils(lines, sig)
        rank, signatures, _ = _span_signatures(lines, PENCIL_RANK_TOL, sig)
        assert (rank[ok] == 2).all(), name
        assert (signatures[ok] == (0, 0, 2)).all(), name
        # each cut is cleared by at least half the certificate's margin
        s, lam = svd_reading(lines[ok], sig)
        assert (s[:, 0] >= 5e-14).all(), name
        assert (s[:, 1] >= 5 * PENCIL_RANK_TOL * s[:, 0]).all(), name
        assert (s[:, 2] <= PENCIL_RANK_TOL / 5 * s[:, 0]).all(), name
        assert (lam <= sig / 2).all(), name
        accepted[name] = int(ok.sum())
    if sig >= 1e-9:
        # every genuine pencil passes, also on nets far from the origin,
        # and each sweep has sets on both sides of its cut
        assert accepted["exact"] == 160
        assert all(accepted[f"net_shifted_{shift:g}"] == 25
                   for shift in (0.0, 30.0, 1e3, 1e4))
        for name in ("s3_sweep", "form_sweep", "form_tight", "scale_sweep"):
            assert 0 < accepted[name] < 160, name
    if sig >= 1e-3:
        assert 0 < accepted["s2_sweep"] < 160


def tight_stacks(rng, count=300):
    """Sets on which each pencil bound is attained up to rounding."""
    frames = np.array([random_rotation(rng) for _ in range(count)])
    p, q, n = frames[:, 0], frames[:, 1], frames[:, 2]
    t = rng.uniform(0.1, 0.9, size=(count, 1))
    eta = 1e-8 * rng.uniform(1, 2, size=(count, 1))
    # an isotropic row a and a row c with <a, c> = 0 and <c, c> != 0,
    # turned by a map that keeps the form
    a = np.zeros((count, 6))
    a[:, 0] = 1.0
    c = np.zeros((count, 6))
    c[:, [1, 2, 4, 5]] = rng.normal(size=(count, 4))
    c /= np.linalg.norm(c, axis=1, keepdims=True)
    turn = np.array([form_rotation(rng) for _ in range(count)])
    a, c = (turn @ a[..., None])[..., 0], (turn @ c[..., None])[..., 0]
    return {
        "s1_lo: orthogonal rows": np.stack([p, t * q], axis=1),
        "s1_hi: equal rows": np.stack([p, p, p, p], axis=1),
        "s2_lo: a tiny orthogonal row": np.stack([p, eta * q], axis=1),
        "s3_hi: three orthogonal rows": np.stack([p, q, t * 1e-3 * n], axis=1),
        "gram_hi: an isotropic row and a tiny one": np.stack([a, 1e-8 * c], axis=1),
    }


def test_pencil_bounds_hold_for_the_svd_values_where_they_are_tight():
    rng = np.random.default_rng(47)
    for name, lines in tight_stacks(rng).items():
        s1_lo, s1_hi, s2_lo, s3_hi, gram_hi = _pencil_bounds(lines)
        s, lam = svd_reading(lines, 1e-9)
        assert (s1_lo <= s[:, 0]).all() and (s[:, 0] <= s1_hi).all(), name
        assert (s2_lo <= s[:, 1]).all(), name
        # the other two bounds exist where two rows are independent
        two = s2_lo > 0
        assert two.any() or name.startswith("s1_hi"), name
        assert (s[two, 2] <= s3_hi[two]).all(), name
        assert (lam[two] <= gram_hi[two]).all(), name

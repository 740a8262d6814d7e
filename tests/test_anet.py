"""Planar-star validation, face frames, diagonals, and twist signs."""

from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from hypnet.anet import (
    PENCIL_RANK_TOL,
    ANet,
    diagnose_anet,
    face_volume_ratio,
    star_plane,
    validate_anet,
)
from hypnet.errors import DegenerateFace, NonGenericPair, NonPlanarStar
from hypnet.plucker import (
    hom,
    incidence_matrix,
    line_from_points,
    plucker_product,
    proj_distance,
    regulus_orientation,
    self_product,
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

from oracles import exact_det4, in_span, skew_matrix

SPEC_QUAD = np.array(
    [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 1.0, 1.0], [0.0, 1.0, 0.0]]
)


def single_quad_net(points):
    g = build(4, [(0, 1, 2, 3)])
    return g, validate_anet(g, np.asarray(points, dtype=float))


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
            net.edge_lines[g.half_edges[h].edge]
            for h in g.outgoing_half_edges(v)
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
    assert frame.H_line.signature == (1, 1, 0)
    for g_diag in frame.diagonals:
        assert abs(self_product(g_diag)) < 1e-12
        assert in_span(frame.H_line.basis, g_diag, tol=1e-8)
    assert abs(plucker_product(*frame.diagonals)) > 1e-3


def test_frame_roles_follow_entry_half_edge():
    n, quads, pos = quadric_grid(2, 2)
    g = build(n, quads)
    net = validate_anet(g, pos)
    for f in range(g.face_count):
        for entry in g.faces[f]:
            frame = net.face_frame(f, entry)
            x, x1, x2, x12 = frame.corners
            he = g.half_edges[entry]
            assert he.origin == x and g.dest(entry) == x2
            # entry edge plays the second-family base role
            assert frame.h_edges[2] == he.edge
            assert g.opposite_edge(f, frame.h_edges[2]) == frame.h_edges[3]
            assert g.opposite_edge(f, frame.h_edges[0]) == frame.h_edges[1]
            # role lines pass through the right corners
            assert frame.h_edges[0] == g.edge_id(x, x1)
            assert frame.h_edges[1] == g.edge_id(x2, x12)
            assert frame.h_edges[2] == g.edge_id(x, x2)
            assert frame.h_edges[3] == g.edge_id(x1, x12)
            assert frame.family_of_edge(frame.h_edges[1]) == 1
            assert frame.family_of_edge(frame.h_edges[3]) == 2
            assert frame.opposite_in_family(frame.h_edges[0]) == frame.h_edges[1]
        assert net.face_corners(f) == net.face_frame(f).corners


def test_axis_meets_quadric_exactly_in_the_diagonals():
    rng = np.random.default_rng(21)
    for _ in range(25):
        pts = random_skew_quad(rng)
        _, net = single_quad_net(pts)
        frame = net.face_frame(0)
        b1, b2 = frame.H_line.basis
        s11 = self_product(b1)
        s12 = plucker_product(b1, b2)
        s22 = self_product(b2)
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
    for e in range(g.edge_count):
        fa, fb = g.edge_faces(e)
        if fa is None or fb is None:
            continue
        la = net.face_frame(fa).line_of_edge(e)
        lb = net.face_frame(fb).line_of_edge(e)
        assert proj_distance(la, lb) < 1e-14


# --- twist ----------------------------------------------------------------------


def test_spec_quad_twist_frozen_values():
    g, net = single_quad_net(SPEC_QUAD)
    e_ab = g.edge_id(0, 1)
    e_bc = g.edge_id(1, 2)
    assert net.twist_for_edge(0, e_ab) == -1
    assert net.twist_for_edge(0, e_bc) == +1
    # same pairings through the opposite edges
    assert net.twist_for_edge(0, g.edge_id(2, 3)) == -1
    assert net.twist_for_edge(0, g.edge_id(3, 0)) == +1
    frame = net.face_frame(0)
    assert net.twist_for_edge(0, frame.h_edges[2]) == -1  # entry edge (0,1)
    assert net.twist_for_edge(0, frame.h_edges[0]) == +1


def test_twist_pairs_are_opposite_and_relabel_invariant():
    rng = np.random.default_rng(5)
    for _ in range(20):
        pts = random_skew_quad(rng)
        g, net = single_quad_net(pts)
        frame = net.face_frame(0)
        assert net.twist_for_edge(0, frame.h_edges[0]) == -net.twist_for_edge(
            0, frame.h_edges[2]
        )
        base = net.twist_for_edge(0, g.edge_id(0, 1))
        # relabel the same spatial quad by pairing-preserving symmetries
        for relabel in [(1, 2, 3, 0), (2, 3, 0, 1), (3, 2, 1, 0)]:
            g2 = build(4, [tuple(relabel)])
            net2 = validate_anet(g2, pts)
            assert net2.twist_for_edge(0, g2.edge_id(0, 1)) == base


def test_twist_matches_regulus_orientation_of_cross_transversals():
    rng = np.random.default_rng(11)
    for _ in range(20):
        pts = random_skew_quad(rng)
        g, net = single_quad_net(pts)
        frame = net.face_frame(0)
        x, x1, x2, x12 = (pts[v] for v in frame.corners)
        t = net.twist_for_edge(0, frame.h_edges[0])
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
    quad = net.graph.face_vertices(f)
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
            edges = g.face_edges(f)
            for k in range(4):
                assert exact_twist(net, f, k) == table[f, k % 2]
                assert net.twist_for_edge(f, edges[k]) == table[f, k % 2]
        assert net.face_twists is table  # computed once per net


def test_face_twist_table_guards_flat_faces():
    n, quads = grid_graph(2, 2)
    pos = np.array([[ix, iy, ix * iy] for iy in range(3) for ix in range(3)],
                   dtype=float)
    pos[[0, 1, 3, 4], 2] = 0.0  # face 0 flat
    net = ANet(build(n, quads), pos, None, None, None, None)
    for f in range(net.graph.face_count):
        with pytest.raises(DegenerateFace) as exc:
            net.twist_for_edge(f, net.graph.face_edges(f)[0])
        assert exc.value.data["face"] == 0


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
    assert set(frames) == set(range(g.face_count))
    assert frames[0].entry_half_edge == g.faces[0][0]
    for face, _parent, shared in tree:
        assert frames[face].h_edges[2] == shared


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

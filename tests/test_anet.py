"""Planar-star validation, face frames, diagonals, and twist signs."""

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
    _collect_violations,
    diagnose_anet,
    star_plane,
    validate_anet,
)
from hypnet.errors import DegenerateFace, NonGenericPair, NonPlanarStar
from hypnet.plucker import (
    Tolerances,
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
    assert net.twist_for_edge(0, e_ab) == -1
    assert net.twist_for_edge(0, e_bc) == +1
    # same pairings through the opposite edges
    assert net.twist_for_edge(0, edge_id(g, 2, 3)) == -1
    assert net.twist_for_edge(0, edge_id(g, 3, 0)) == +1
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
        base = net.twist_for_edge(0, edge_id(g, 0, 1))
        # relabel the same spatial quad by pairing-preserving symmetries
        for relabel in [(1, 2, 3, 0), (2, 3, 0, 1), (3, 2, 1, 0)]:
            g2 = build(4, [tuple(relabel)])
            net2 = validate_anet(g2, pts)
            assert net2.twist_for_edge(0, edge_id(g2, 0, 1)) == base


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
            edges = g.face_edges[f].tolist()
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
            net.twist_for_edge(f, int(net.graph.face_edges[f, 0]))
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
    assert frames[0].entry_half_edge == 0
    for face, _parent, shared in tree:
        assert frames[face].h_edges[2] == shared


def test_stacked_frames_equal_the_one_face_calls():
    n, quads, pos = quadric_grid(4, 3, spacing=0.3, origin=(-1.0, 0.5))
    g = build(n, quads)
    net = validate_anet(g, pos)
    frames, tree = net.frames_from(5)
    entries = {5: 20}
    entries.update({
        face: 4 * face + g.face_edges[face].tolist().index(shared)
        for face, _, shared in tree
    })
    for f, frame in frames.items():
        alone = net.face_frame(f, entries[f])
        assert frame.corners == alone.corners
        assert frame.h_edges == alone.h_edges
        assert np.array_equal(frame.h_lines, alone.h_lines)
        assert np.array_equal(frame.diagonals, alone.diagonals)
        assert reference_axis(frame)[1] == (1, 1, 0)


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


def test_diagnose_makes_no_per_vertex_span_or_svd_calls(monkeypatch):
    n, quads, pos = quadric_grid(10, 10)
    g = build(n, quads)
    calls = {"span": 0, "svd": 0}

    def counting(name, func):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return func(*args, **kwargs)
        return wrapper

    spy = counting("span", hypnet.plucker.span)
    for module in (hypnet.plucker, hypnet.anet):
        # anet imports no span today; the spy still catches one it gains
        monkeypatch.setattr(module, "span", spy, raising=False)
    monkeypatch.setattr(np.linalg, "svd", counting("svd", np.linalg.svd))
    assert diagnose_anet(g, pos)["valid"]
    # one stacked SVD per (stage, group, chunk): stars and pencils, each
    # grouped by the 3 vertex degrees of a grid, each group in one chunk
    assert calls["span"] == 0
    assert calls["svd"] <= 2 * 3

"""Planar-star validation, face frames, diagonals, and twist signs."""

import math
import re
import tracemalloc
from fractions import Fraction
from itertools import combinations
from types import SimpleNamespace

import numpy as np
import pytest

import hypnet.anet
import hypnet.plucker
from hypnet.anet import (
    FACE_VOLUME_EPS,
    PENCIL_RANK_TOL,
    PLANAR_EPS,
    ANet,
    _by_degree,
    _certified_pencils,
    _collect_violations,
    _face_stage,
    _face_volumes,
    _pencil_bounds,
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
    reference_face_lines,
    reference_polar,
    reference_span,
    reference_star_plane,
    reference_walk,
    regulus_orientation,
    row_certified_pencils,
    row_edge_lines,
    row_face_volumes,
    row_scatter_normals,
    row_star_plane,
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


def test_the_walk_hands_its_face_signs_to_the_net(monkeypatch):
    # one _face_volumes pass per chunk of faces, all in the face stage;
    # 12 rows of faces, a few more faces than one chunk
    n, quads, pos = quadric_grid(hypnet.anet.CHUNK // 12 + 1, 12)
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
    twists = net.face_twists
    assert len(calls) == 4  # the net reads the signs the walk kept
    positive = _face_volumes(pos.T, g.face_vertices)[0] > 0
    alone = ANet(g, pos, None, None, None, None, positive)
    assert report["face_twists"] == twists.tolist() == alone.face_twists.tolist()
    assert np.array_equal(twists, alone.face_twists)
    assert twists.dtype == alone.face_twists.dtype


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
    # the walk gates the faces at sig as the frames do: at sig = 0.5 it
    # stops at face 1, the lowest whose pair product falls below it
    with pytest.raises(NonGenericPair) as err:
        validate_anet(build(n, quads), pos, Tolerances(sig=0.5))
    assert err.value.data["face"] == 1
    net = validate_anet(build(n, quads), pos)
    net.tol = Tolerances(sig=0.5)
    order = [4, 7, 0]
    with pytest.raises(NonGenericPair) as err:
        net.frames(order, [4 * f for f in order])
    assert err.value.data["face"] == 4
    with pytest.raises(NonGenericPair) as err:
        net.face_frame(7)
    assert err.value.data["face"] == 7


@pytest.mark.parametrize("lift", [2e-10, 5e-10, 1e-9, 2e-9])
def test_the_walk_passes_exactly_the_faces_the_frames_pass(lift):
    # a unit square with a corner lifted: its volume ratio passes
    # FACE_VOLUME_EPS at every lift, and both of its pair products fall
    # below the default sig up to a lift of 1e-9
    square = SPEC_QUAD.copy()
    square[2] = (1.0, 1.0, lift)
    g = build(4, [(0, 1, 2, 3)])
    report = diagnose_anet(g, square)
    if lift < 2e-9:
        assert [(v["kind"], v["edges"]) for v in report["violations"]] == [
            ("non_generic_pair", [0, 2]), ("non_generic_pair", [1, 3])]
        net = ANet(g, square, None, np.zeros((g.edge_count, 6)), None, None, None)
        with pytest.raises(NonGenericPair):
            net.face_frame(0)
    else:
        assert report["valid"]
        validate_anet(g, square).face_frame(0)


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


def star_tilts(g, pos):
    """The closed-form tilt bound of every vertex's star, one star at a
    time; NaN for an unreferenced vertex."""
    tilts = np.full(len(pos), np.nan)
    for v in range(len(pos)):
        if g.is_referenced(v):
            neighbors, _ = g.vertex_star(v)
            pts = pos[[v] + neighbors]
            tilts[v] = row_scatter_normals((pts - pts.mean(axis=0))[None])[2][0]
    return tilts


def assert_star_planes_match_oracle(planes, residuals, diameters, tilts, ref, planar):
    """Star planes against the SVD oracle's ``ref = (planes, residuals,
    diameters)``: diameters equal bit for bit; a star the closed form
    settles (tilt at most ``_STAR_TILT = 1e-10``, residual widened by ``2
    tilt diameter`` under a tenth of the gate) passes the oracle's gate, with
    its residual within that widening of the oracle's and its plane, up
    to sign, within ``3 tilt (1 + |centroid|)``; every other star reads
    the oracle's residual bit for bit and its plane to 1e-15."""
    ref_planes, ref_residuals, ref_diameters = ref
    np.testing.assert_array_equal(diameters, ref_diameters)
    allowance = 2 * tilts * diameters
    # 1e-10 is the documented cap on a settled star's tilt, which bounds
    # how far any report may move from the SVD reading
    settled = (tilts <= 1e-10) & (residuals + allowance <= planar * diameters / 10)
    np.testing.assert_array_equal(residuals[~settled], ref_residuals[~settled])
    assert np.all(np.abs(residuals - ref_residuals)[settled] <= allowance[settled])
    assert np.all(ref_residuals[settled] <= planar * diameters[settled])
    assert np.all(np.isfinite(planes[settled]))
    # the plane's offset is its normal against the star's centroid
    reach = 1 + np.abs(ref_planes[:, 3]) / np.linalg.norm(ref_planes[:, :3], axis=-1)
    slack = np.where(settled, 3 * tilts * reach, 0) + 1e-15
    # the canonical sign of a plane whose two largest entries tie in size
    # follows their last bits
    gaps = np.abs(planes - ref_planes).max(axis=-1)
    gaps[settled] = np.minimum(gaps, np.abs(planes + ref_planes).max(axis=-1))[settled]
    assert np.all(gaps[~np.isnan(ref_residuals)] <= slack[~np.isnan(ref_residuals)])
    return settled


#: the absolute agreement the walk keeps with the oracles on each face
#: figure: both read them in other units or in another order
FACE_FIGURES = {"product": 1e-14, "ratio": 1e-13}


def near_face_figures(violations):
    """``violations`` with each pair product compared to 1e-14 and each
    volume ratio to 1e-13: the walk reads both in closed form in
    face-local units, the oracle the products from the face-local lines
    and the ratio from LAPACK's determinant of the global sides."""
    return [
        (kind, {**data, **{key: pytest.approx(data[key], rel=0, abs=near)
                           for key, near in FACE_FIGURES.items() if key in data}})
        for kind, data in violations
    ]


def assert_walk_matches_oracle(g, pos, tol=Tolerances()):
    """The walk finds the oracle's violations in its order with its
    values (pair products to 1e-14, volume ratios to 1e-13); star diameters and the residuals of the stars the SVD reads
    are equal bit for bit, the residuals of the others within their
    stated bound (:func:`assert_star_planes_match_oracle`); edge lines
    agree to 1e-15; ``validate_anet`` raises the first violation and
    ``diagnose_anet`` lists them all.  Returns the violations."""
    pos = np.asarray(pos, dtype=float)
    found, planes, residuals, diameters, lines = reference_walk(
        g, pos, tol.planar, tol.sig, FACE_VOLUME_EPS, PENCIL_RANK_TOL,
    )
    walk = _collect_violations(g, pos, False, tol)
    found = near_face_figures(found)
    assert walk.violations == found
    assert_star_planes_match_oracle(
        walk.planes, walk.residuals, walk.diameters, star_tilts(g, pos),
        (planes, residuals, diameters), tol.planar,
    )
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
        np.testing.assert_array_equal(net.planarity_residuals, walk.residuals)
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
    # a unit square with a corner lifted by 1.03e-10: its volume ratio
    # passes FACE_VOLUME_EPS, its face-local pair products do not pass
    # the default sig
    lifted_corner = SPEC_QUAD.copy()
    lifted_corner[2] = (1.0, 1.0, 1.03e-10)
    # name: (net, a kind or a data key the planted violation carries)
    return {
        "lifted_vertex": ((n, quads, lifted), "non_planar_star"),
        "zero_length_edge": ((n2, quads2, short), "reason"),
        "flat_face": ((n2, quads2, flat), "degenerate_face"),
        "meeting_pair": ((4, [(0, 1, 2, 3)], lifted_corner), "product"),
        "collinear_pencil": ((n2, quads2, collinear), "pencil_dim"),
    }


@pytest.mark.parametrize("planted", sorted(_planted()))
def test_walk_matches_oracle_on_planted_violations(planted):
    (n, quads, pos), mark = _planted()[planted]
    found = assert_walk_matches_oracle(build(n, quads), pos)
    assert any(kind == mark or mark in data for kind, data in found)


@pytest.mark.parametrize("planar", [1e-30, 1e-14, 1e-12, 1e-3])
def test_walk_matches_oracle_at_other_planarity_gates(planar):
    rng = np.random.default_rng(47)
    n, quads, pos = quadric_grid(6, 5, spacing=0.2, origin=(-0.7, -0.4))
    noisy = pos + rng.normal(scale=1e-7, size=pos.shape)
    nets = [(n, quads, pos), (n, quads, pos + 1e3), (n, quads, noisy),
            random_grid3x3_net(rng), random_umbrella_net(5, rng),
            _planted()["lifted_vertex"][0]]
    for n, quads, pos in nets:
        assert_walk_matches_oracle(build(n, quads), pos, Tolerances(planar=planar))


def test_walk_matches_oracle_past_one_chunk():
    # the least s x s grid with more than 3 chunks of edges (40 x 40 at a
    # chunk of 1024): 2 s (s + 1) edges, s^2 faces, (s - 1)^2 interior stars
    chunk = hypnet.anet.CHUNK
    s = math.isqrt(3 * chunk // 2) + 1
    n, quads, pos = quadric_grid(s, s, spacing=2.0 / s, origin=(-1.0, -1.0))
    g = build(n, quads)
    assert n > chunk and g.edge_count > 3 * chunk
    # the last interior vertex, face and edge, each in the last batch
    interior = np.flatnonzero(g.degrees == 4)
    vertex, face, edge = int(interior[-1]), g.face_count - 1, g.edge_count - 1
    assert len(interior) > chunk and face >= chunk and edge >= 3 * chunk
    pos = pos.copy()
    pos[vertex] += (1e-4, 0.0, 1e-4)
    pos[n - 1] = pos[n - 2]  # the last edge and the last face collapse
    found = assert_walk_matches_oracle(g, pos)
    assert ("degenerate_face", {"face": face, "ratio": 0.0}) in found
    assert any(data.get("vertex") == vertex for kind, data in found
               if kind == "non_planar_star")
    assert any(data.get("edges") == (edge,) for _, data in found)


def walk_transient_memory(size):
    """Traced memory that ``validate_anet`` holds on a ``size`` x ``size``
    grid beyond what its net keeps: the peak less the final current."""
    n, quads, pos = quadric_grid(size, size)
    g = build(n, quads)
    tracemalloc.start()
    try:
        net = validate_anet(g, pos)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del net
    return peak - current


def test_the_walk_transient_memory_does_not_grow_with_the_net():
    # the batches bound the walk's temporaries: four times the vertices add
    # only the walk's one (3, n) copy of the positions and the ids of the
    # vertices of one degree, 32 bytes a vertex, 0.35 MB from 60x60 to
    # 120x120; whole-net edge arrays would add 0.75 MB
    walk_transient_memory(3)  # imports and caches outside the measurement
    assert walk_transient_memory(120) <= walk_transient_memory(60) + 0.5e6


def test_star_plane_of_one_star_equals_the_stacked_fit():
    rng = np.random.default_rng(37)
    stars = rng.normal(size=(100, 5, 3)) * rng.uniform(0.01, 100, size=(100, 1, 1))
    stars[::2, :, 2] = 0.0  # planar stars, which the closed form settles
    stars[::2] = stars[::2] @ random_rotation(rng, 3) + rng.normal(size=3)
    planes, residuals, diameters = star_plane(stars)
    for k, star in enumerate(stars):
        plane, residual, diameter = star_plane(star)
        assert residual == residuals[k] and diameter == diameters[k]
        np.testing.assert_array_equal(plane, planes[k])
    tilts = row_scatter_normals(stars - stars.mean(axis=1, keepdims=True))[2]
    ref = [np.array(column) for column in zip(*map(reference_star_plane, stars))]
    settled = assert_star_planes_match_oracle(
        planes, residuals, diameters, tilts, ref, PLANAR_EPS
    )
    assert settled.tolist() == [True, False] * 50


@pytest.mark.parametrize("size", range(3, 10))
def test_star_kernel_equals_the_row_major_oracle_bit_for_bit(size):
    # stars of every kind the walk meets, including the ones the SVD reads
    # (collinear, coincident, lifted past the gate), at scales far beyond
    # the net's, and random clouds
    rng = np.random.default_rng(61 + size)
    stars = np.concatenate([*star_cases(rng, size - 1).values(),
                            rng.normal(size=(40, size, 3))])
    for scale in 10.0 ** np.arange(-40, 41, 10):
        got = star_plane(stars * scale)
        expected = row_star_plane(stars * scale, PLANAR_EPS)
        for a, b in zip(got, expected):
            assert np.array_equal(a, b), f"scale {scale:g}"


@pytest.mark.parametrize("through_the_svd", [False, True])
def test_walk_arrays_equal_the_row_major_kernels_bit_for_bit(monkeypatch, through_the_svd):
    from test_invariance import fixtures  # which imports this module

    if through_the_svd:
        reject_star_planes(monkeypatch)
    # the stars near or above the gate, which the SVD reads in either case
    near_the_gate = 0
    for n, quads, pos in fixtures().values():
        g = build(n, quads)
        pos = np.asarray(pos, dtype=float)
        walk = _collect_violations(g, pos, False, Tolerances())
        for v in np.flatnonzero(g.degrees).tolist():
            star = pos[[v] + g.vertex_star(v)[0]][None]
            plane, residual, diameter = row_star_plane(star, PLANAR_EPS)
            assert np.array_equal(walk.planes[v], plane[0])
            assert walk.residuals[v] == residual[0] and walk.diameters[v] == diameter[0]
            near_the_gate += bool(residual[0] > PLANAR_EPS * diameter[0] / 10)
        # plucker._join, the reading of the lines before the zero-length
        # test read the star diameters: the same minors over the same norm
        ends = hom(pos[g.edges])
        lines, _ = hypnet.plucker._join(ends[:, 0], ends[:, 1])
        assert np.array_equal(walk.edge_lines, lines)
    assert near_the_gate > 0


def benchmark_nets(seed):
    """The three benchmark inputs at ``seed``, drawn as the benchmark
    draws them: an exact 20x20 grid (spacing in [0.05, 0.2], origin in
    [-2, 0]^2), an exact 80x80 one (spacing in [0.02, 0.05]) and a 20x20
    one whose interior carries uniform noise of +-5e-5."""
    nets = {}
    for name, size, spacings in (("extend_grid", 20, (0.05, 0.2)),
                                 ("check_wide", 80, (0.02, 0.05))):
        rng = np.random.default_rng(seed)
        spacing = float(rng.uniform(*spacings))
        origin = tuple(float(c) for c in rng.uniform(-2.0, 0.0, size=2))
        nets[f"{name} {seed}"] = quadric_grid(size, size, spacing=spacing, origin=origin)
    n, quads, pos = quadric_grid(20, 20)
    interior = ~build(n, quads).boundary
    noisy = pos.copy()
    rng = np.random.default_rng(seed)
    noisy[interior] += rng.uniform(-5e-5, 5e-5, size=(int(interior.sum()), 3))
    nets[f"fit_noisy {seed}"] = (n, quads, noisy)
    return nets


def walk_nets():
    """The tier-1 fixtures and the benchmark inputs at seeds 0 and 1."""
    from test_invariance import fixtures  # which imports this module

    return {**fixtures(), **benchmark_nets(0), **benchmark_nets(1)}


def face_gate_verdicts(ratio, products, edges, sig):
    """``(kind, face, edges)`` of what the face stage reports, read from
    the figures of every face."""
    flat = ratio < FACE_VOLUME_EPS
    meet = (np.abs(products) < sig) & ~flat[:, None]
    found = []
    for f in np.flatnonzero(flat | meet.any(axis=1)).tolist():
        if flat[f]:
            found.append(("degenerate_face", f, None))
        found += [("non_generic_pair", f, (int(edges[f, k]), int(edges[f, k + 2])))
                  for k in np.flatnonzero(meet[f]).tolist()]
    return found


def walk_face_verdicts(walk):
    return [
        (kind, data["face"], data.get("edges"))
        for kind, data in walk.violations if "face" in data
    ]


@pytest.mark.parametrize("scale", 10.0 ** np.arange(-76, 77, 19))
def test_edge_and_face_stages_equal_their_row_major_forms(scale):
    # the edge lines bit for bit wherever the squares of the row-major
    # minors stay in range (the noisy net's minors reach about 8e3, so
    # their squares overflow at 1e76); the face figures, read in
    # face-local units, to their rounding, and every face verdict as the
    # global reading gives it wherever LAPACK's determinants stay in range
    tol = Tolerances()
    for name, (n, quads, pos) in walk_nets().items():
        g = build(n, quads)
        pos = np.asarray(pos, dtype=float) * scale
        walk = _collect_violations(g, pos, False, tol)
        kept = walk.edge_lines.any(axis=1)
        zero = [data["edges"][0] for _, data in walk.violations
                if data.get("reason") == "zero-length edge"]
        assert np.flatnonzero(~kept).tolist() == zero, name
        if 1e-60 < scale < 1e60:
            lines = row_edge_lines(pos, g.edges)
            assert np.array_equal(walk.edge_lines[kept], lines[kept]), name
        det, ratio, products = row_face_volumes(pos, g.face_vertices)
        assert np.array_equal(walk.positive_volumes, det > 0), name
        assert walk_face_verdicts(walk) == face_gate_verdicts(
            ratio, products, g.face_edges, tol.sig), name
        if scale != 1.0:
            continue
        _, got_ratio, got_products = _face_volumes(pos.T, g.face_vertices)
        both = np.isfinite(ratio) & np.isfinite(got_ratio)
        assert np.all(np.abs(got_ratio - ratio)[both] <= 1e-13), name
        both = np.isfinite(products) & np.isfinite(got_products)
        gap = np.abs(got_products - products)[both]
        assert np.all(gap <= 1e-12 * (1 + np.abs(products[both]))), name


@pytest.mark.parametrize("scale", [1e78, 1e100])
def test_edge_lines_past_the_range_of_their_squares(scale):
    # the squares of the minors overflow from about 1e77 on; read at an
    # exact power-of-two scale, the lines stay unit lines through the
    # scaled points
    n, quads, pos = quadric_grid(3, 3)
    g = build(n, quads)
    with np.errstate(over="raise", invalid="raise"):
        report = diagnose_anet(g, pos * scale)
        walk = _collect_violations(g, pos * scale, True, Tolerances())
    assert report["valid"] and report["violations"] == []
    np.testing.assert_allclose(np.linalg.norm(walk.edge_lines, axis=1), 1.0, rtol=1e-15)
    # the minors of the scaled ends are (s^2 m, s d) for those (m, d) of the
    # unit ends: over s, (s m, d), whose squares stay in range
    unit = row_edge_lines(pos, g.edges) * np.array([scale, scale, 1, 1, 1, scale])
    expected = unit / np.linalg.norm(unit, axis=1)[:, None]
    np.testing.assert_allclose(walk.edge_lines, expected, rtol=1e-13, atol=1e-15)


def test_a_tilted_planar_net_reads_every_face_degenerate_at_any_scale():
    # LAPACK's determinant of the global sides overflows past about 1e102;
    # the face-local volume does not
    n, quads, pos = quadric_grid(3, 3)
    pos[:, 2] = 0.3 * pos[:, 0] + 0.7 * pos[:, 1]
    g = build(n, quads)
    for scale in (1.0, 1e-120, 1e120):
        report = diagnose_anet(g, pos * scale)
        faces = [v["face"] for v in report["violations"] if v["kind"] == "degenerate_face"]
        assert faces == list(range(9)), f"scaled {scale:g}"
        assert all(v["ratio"] < FACE_VOLUME_EPS for v in report["violations"]
                   if v["kind"] == "degenerate_face")


def test_faces_whose_figures_overflow_fail_their_gates():
    # an infinite corner leaves the figures of its four faces NaN; the
    # face stage must refuse those faces itself, as ``ANet.frames`` does,
    # not leave the verdict to a later stage, and read none of their
    # volumes as positive (the corners are turned by one, so the other
    # faces' volumes are)
    n, quads, pos = quadric_grid(3, 3)
    g = build(n, np.roll(quads, 1, axis=1))
    pos[5] = np.inf
    walk = SimpleNamespace(positive_volumes=np.zeros(g.face_count, dtype=bool))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        found = _face_stage(g, np.ascontiguousarray(pos.T), Tolerances().sig, walk)
    assert sorted({v["face"] for _, v in found}) == [0, 1, 3, 4]
    assert {kind for kind, _ in found} <= {"degenerate_face", "non_generic_pair"}
    assert np.flatnonzero(~walk.positive_volumes).tolist() == [0, 1, 3, 4]


def test_the_face_stage_reads_faces_whose_corner_sums_overflow():
    # corners past a quarter of the largest float overflow the plain sum
    # of their centroid; it is summed at an exact scale, so the figures
    # stay finite and the faces of an exact net pass
    n, quads, pos = quadric_grid(3, 3)
    g = build(n, quads)
    big = pos * 1e307 + 5e307
    assert np.isfinite(big).all()
    with np.errstate(over="ignore"):
        assert np.isinf(big[list(quads[0])].sum(axis=0)).any()
    walk = SimpleNamespace(positive_volumes=np.zeros(g.face_count, dtype=bool))
    assert _face_stage(g, np.ascontiguousarray(big.T), Tolerances().sig, walk) == []
    # volumes, ratios and products are read in face-local units
    read = _face_volumes(np.ascontiguousarray(big.T), g.face_vertices)
    expected = _face_volumes(np.ascontiguousarray(pos.T), g.face_vertices)
    for got, want in zip(read, expected):
        np.testing.assert_allclose(got, want, rtol=1e-12)


def star_cases(rng, degree):
    """Stacks of stars ``(40, degree + 1, 3)``, a centre then its
    neighbours, by name: planar ones with the neighbours spread around
    the centre, at scales 1e-8 to 1e8 and far off the origin; planar ones
    with the first neighbour on the centre; nearly collinear ones;
    collinear and coincident points; and planar ones with every point
    lifted off the plane by 0.05, 0.5, 2 and 20 times the planarity
    gate."""
    turn = 2 * np.pi / max(degree, 4)
    angles = (rng.uniform(0, 2 * np.pi, size=(40, 1)) + turn * np.arange(degree)
              + rng.uniform(-0.3, 0.3, size=(40, degree)))
    radii = rng.uniform(0.5, 1.5, size=(40, degree))
    ring = np.stack([radii * np.cos(angles), radii * np.sin(angles), 0 * radii], axis=-1)
    rotation = random_rotation(rng, 3)
    flat = np.concatenate([np.zeros((40, 1, 3)), ring], axis=1) @ rotation
    line = rng.normal(size=(40, degree + 1, 1)) * rng.normal(size=(40, 1, 3))
    off = rng.normal(size=(40, 1, 3))
    cases = {f"planar at {s:g}": s * (flat + off) for s in 10.0 ** np.arange(-8, 9, 2)}
    cases["planar at 1e4 off the origin"] = flat + 1e4 * off
    cases["neighbour on the centre"] = flat.copy()
    cases["neighbour on the centre"][:, 1] = flat[:, 0]
    cases["nearly collinear"] = line + 1e-9 * flat
    cases["collinear"] = line + off
    cases["coincident"] = np.repeat(off, degree + 1, axis=1)
    diameters = np.array([reference_star_plane(star)[2] for star in flat])
    lift = rng.choice([-1.0, 1.0], size=(40, degree + 1)) * diameters[:, None]
    for k in (0.05, 0.5, 2, 20):
        cases[f"lifted by {k:g} gates"] = (
            flat + k * PLANAR_EPS * lift[..., None] * rotation[2]
        )
    return cases


@pytest.mark.parametrize("degree", [2, 3, 4, 5, 6])
def test_star_planes_are_settled_within_their_bound_or_read_by_the_svd(degree):
    rng = np.random.default_rng(43 + degree)
    cases = star_cases(rng, degree)
    stars = np.concatenate(list(cases.values()))
    planes, residuals, diameters = star_plane(stars)
    assert np.isfinite(planes).all() and np.isfinite(residuals).all()
    for k, star in enumerate(stars):
        plane, residual, _ = star_plane(star)
        assert residual == residuals[k]
        np.testing.assert_array_equal(plane, planes[k])
    ref = [np.array(column) for column in zip(*map(reference_star_plane, stars))]
    tilts = row_scatter_normals(stars - stars.mean(axis=1, keepdims=True))[2]
    settled = assert_star_planes_match_oracle(
        planes, residuals, diameters, tilts, ref, PLANAR_EPS
    )
    gate = PLANAR_EPS * diameters
    np.testing.assert_array_equal(residuals > gate, ref[1] > gate)
    # every star near or above the gate goes through the SVD
    assert not settled[ref[1] > gate / 10].any()
    routes = dict(zip(cases, np.split(settled, len(cases))))
    for name, route in routes.items():
        if name.startswith("planar") or name == "neighbour on the centre" and degree > 2:
            assert route.all(), name
        if name in ("collinear", "coincident"):
            assert not route.any(), name
    if degree > 2:  # three points always lie in a plane
        assert (ref[1] > gate)[-40:].any()


@pytest.mark.parametrize("shift", [0.0, 30.0, 1e3, 1e4])
def test_shifted_grids_read_their_stars_in_closed_form(shift):
    n, quads, pos = quadric_grid(20, 20, spacing=0.05, origin=(-0.5, -0.5))
    g = build(n, quads)
    pos = pos + shift
    walk = _collect_violations(g, pos, True, Tolerances())
    stars = (pos[[v] + g.vertex_star(v)[0]] for v in range(n))
    ref = [np.array(column) for column in zip(*map(reference_star_plane, stars))]
    settled = assert_star_planes_match_oracle(
        walk.planes, walk.residuals, walk.diameters, star_tilts(g, pos), ref,
        PLANAR_EPS,
    )
    assert settled.all()
    assert not any(kind == "non_planar_star" for kind, _ in walk.violations)


@pytest.mark.parametrize("scale", [1e155, 1e-155])
def test_star_stage_reads_huge_and_tiny_nets_like_unit_ones(scale):
    # squared coordinate differences overflow (or underflow) at this size;
    # the star stage must read them at an exact scale instead
    n, quads, pos = quadric_grid(3, 3)
    g = build(n, quads)
    lifted = pos.copy()
    lifted[5, 2] += 3.0
    expected = _collect_violations(g, lifted, True, Tolerances()).violations
    scaled = pos * scale
    scaled[5, 2] += 3.0 * scale
    with np.errstate(over="raise", invalid="raise"):
        got = _collect_violations(g, scaled, True, Tolerances()).violations
    assert [(kind, data["vertex"]) for kind, data in got] == [
        ("non_planar_star", v) for v in (5, 6, 9)
    ]
    assert [data["vertex"] for _, data in expected] == [5, 6, 9]
    for (_, data), (_, unit) in zip(got, expected):
        ratio = data["residual"] / data["tolerance"]
        assert ratio == pytest.approx(unit["residual"] / unit["tolerance"], rel=1e-13)


def test_face_volume_kernel_equals_the_one_face_ratio():
    rng = np.random.default_rng(41)
    pos = rng.normal(size=(400, 3)) * rng.uniform(0.01, 100, size=(400, 1))
    quads = rng.permutation(400).reshape(-1, 4)
    pos[quads[::3, 3]] = pos[quads[::3, 2]]  # some collapsed edges
    pos[quads[1::3, 3]] = (pos[quads[1::3, 0]] + pos[quads[1::3, 2]]) / 2  # flat
    _, ratio, _ = hypnet.anet._face_volumes(pos.T, quads)
    expected = [face_volume_ratio(pos, q) for q in quads]
    np.testing.assert_allclose(ratio, expected, rtol=0, atol=FACE_FIGURES["ratio"])


def count_calls(monkeypatch, module, name, calls):
    """Count the calls of ``module.name`` under the key ``name``."""
    func = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls[name] += 1
        return func(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)


def reject_star_planes(patch):
    """Make the closed-form star planes settle no star, so every star goes
    through the SVD reading."""
    patch.setattr(hypnet.anet, "_STAR_TILT", -np.inf)


def test_diagnose_makes_no_per_vertex_span_or_svd_calls(monkeypatch):
    n, quads, pos = quadric_grid(10, 10)
    g = build(n, quads)
    calls = {"span": 0, "svd": 0}
    for module in (hypnet.plucker, hypnet.anet):
        # anet imports no span today; the spy still catches one it gains
        monkeypatch.setattr(module, "span", hypnet.plucker.span, raising=False)
        count_calls(monkeypatch, module, "span", calls)
    count_calls(monkeypatch, np.linalg, "svd", calls)
    # the closed forms settle every exact star and pencil
    assert diagnose_anet(g, pos)["valid"]
    assert calls == {"span": 0, "svd": 0}
    # else one stacked SVD per star group: the 3 vertex degrees of a grid,
    # each group in one chunk
    reject_star_planes(monkeypatch)
    assert diagnose_anet(g, pos)["valid"]
    assert calls == {"span": 0, "svd": 3}


def test_exact_wide_grid_reads_its_pencils_without_an_svd(monkeypatch):
    n, quads, pos = quadric_grid(80, 80, spacing=0.03, origin=(-1.7, -1.2))
    g = build(n, quads)
    calls = {"svd": 0}
    count_calls(monkeypatch, np.linalg, "svd", calls)
    assert diagnose_anet(g, pos)["valid"]
    assert calls == {"svd": 0}
    reject_star_planes(monkeypatch)
    assert diagnose_anet(g, pos)["valid"]
    assert calls == {"svd": len(list(_by_degree(g.degrees)))}


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
    of the pencil reading, sets whose plane is tilted off the isotropic
    ones by multiples of ``sig``, and the unit edge directions ``(25, 4,
    3)`` of the interior stars of a net moved off the origin."""
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
    # an isotropic line and a short row whose unit form is swept across sig
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
        # the unit edge directions the walk reads its pencils from
        walk = _collect_violations(g, pos + shift, False, Tolerances(sig=sig))
        directions = walk.edge_lines[:, 2:5][incident]
        stacks[f"net_shifted_{shift:g}"] = directions / np.linalg.norm(
            directions, axis=-1, keepdims=True)
    return stacks


def svd_reading(lines):
    """The three largest singular values ``(B, 3)`` of each set (0 past
    its row count) and its rank at ``PENCIL_RANK_TOL``, as the SVD
    reads them."""
    s = np.linalg.svd(lines, compute_uv=False)
    rank = (s > PENCIL_RANK_TOL * s[:, :1]).sum(axis=1) * (s[:, 0] >= 1e-14)
    return np.pad(s, [(0, 0), (0, max(0, 3 - s.shape[1]))])[:, :3], rank


@pytest.mark.parametrize(
    "sig", [1e-30, 1e-15, 3e-15, 1e-14, 1e-12, 1e-9, 1e-6, 1e-3, 0.5]
)
def test_certified_pencils_pass_the_svd_reading_with_room(sig):
    # the certificate reads ranks alone: whatever sig tilts a plane off
    # the isotropic ones, a set of rank 2 with room is certified
    rng = np.random.default_rng(43)
    accepted = {}
    for name, lines in certificate_stacks(rng, sig).items():
        ok = _certified_pencils(lines.T)
        # the coordinate-first kernel sums in another order than the
        # row-major one, and certifies the same sets
        assert np.array_equal(ok, row_certified_pencils(lines)), name
        s, rank = svd_reading(lines)
        assert (rank[ok] == 2).all(), name
        # each cut is cleared by at least half the certificate's margin
        assert (s[ok, 0] >= 5e-14).all(), name
        assert (s[ok, 1] >= 5 * PENCIL_RANK_TOL * s[ok, 0]).all(), name
        assert (s[ok, 2] <= PENCIL_RANK_TOL / 5 * s[ok, 0]).all(), name
        accepted[name] = int(ok.sum())
    # every genuine pencil passes, also on nets far from the origin, and
    # so does every tilted plane; each sweep has sets on both sides of its
    # cut
    for name in ("exact", "form_sweep", "form_tight"):
        assert accepted[name] == 160, name
    assert all(accepted[f"net_shifted_{shift:g}"] == 25
               for shift in (0.0, 30.0, 1e3, 1e4))
    for name in ("s3_sweep", "s2_sweep", "scale_sweep"):
        assert 0 < accepted[name] < 160, name
    assert accepted["collinear"] == accepted["zero_rows"] == 0


def tight_stacks(rng, count=300):
    """Sets on which each pencil bound is attained up to rounding."""
    frames = np.array([random_rotation(rng) for _ in range(count)])
    p, q, n = frames[:, 0], frames[:, 1], frames[:, 2]
    t = rng.uniform(0.1, 0.9, size=(count, 1))
    eta = 1e-8 * rng.uniform(1, 2, size=(count, 1))
    return {
        "s1_lo: orthogonal rows": np.stack([p, t * q], axis=1),
        "s1_hi: equal rows": np.stack([p, p, p, p], axis=1),
        "s2_lo: a tiny orthogonal row": np.stack([p, eta * q], axis=1),
        "s3_hi: three orthogonal rows": np.stack([p, q, t * 1e-3 * n], axis=1),
    }


def test_pencil_bounds_hold_for_the_svd_values_where_they_are_tight():
    rng = np.random.default_rng(47)
    for name, lines in tight_stacks(rng).items():
        s1_lo, s1_hi, s2_lo, s3_hi = _pencil_bounds(lines.T)
        s, _ = svd_reading(lines)
        assert (s1_lo <= s[:, 0]).all() and (s[:, 0] <= s1_hi).all(), name
        assert (s2_lo <= s[:, 1]).all(), name
        # the third bound exists where two rows are independent
        two = s2_lo > 0
        assert two.any() or name.startswith("s1_hi"), name
        assert (s[two, 2] <= s3_hi[two]).all(), name


# --- face frames from the pair products ----------------------------------------------


def skew_and_flattening_quads(rng, count=160):
    """Quads ``(2 count, 4, 3)`` in cycle order: random skew ones, then
    ones whose corner 2 sweeps onto the plane of the other three."""
    corners = rng.normal(size=(count, 4, 3))
    x0, x1, x3 = corners[:, 0], corners[:, 1], corners[:, 3]
    normal = np.cross(x1 - x0, x3 - x0)
    normal /= np.linalg.norm(normal, axis=1, keepdims=True)
    flat = corners.copy()
    flat[:, 2] = x1 + x3 - x0 + np.geomspace(1e-13, 1.0, count)[:, None] * normal
    return np.concatenate([corners, flat])


#: (scale, shift) placements of a point set of diameter about 3
PLACEMENTS = [(1.0, 0.0), (1e-6, 0.0), (1e6, 0.0), (1.0, 3e4), (1e-3, 10.0)]


def test_face_products_are_those_of_the_face_local_lines():
    rng = np.random.default_rng(53)
    quads = skew_and_flattening_quads(rng)
    ids = np.arange(4 * len(quads)).reshape(-1, 4)
    for scale, shift in PLACEMENTS:
        pos = (quads * scale + shift).reshape(-1, 3)
        _, _, products = _face_volumes(pos.T, ids)
        for k in range(len(quads)):
            lines = np.array(reference_face_lines(pos, ids[k]))
            expected = [plucker_product(lines[0], lines[2]),
                        plucker_product(lines[1], lines[3])]
            np.testing.assert_allclose(products[k], expected, rtol=0, atol=1e-14)
            # the only nonzero entries of their Gram matrix: its
            # eigenvalues are +-p and +-q
            if k % 40 == 0:
                gram = lines @ hypnet.plucker.METRIC @ lines.T
                np.testing.assert_allclose(
                    np.linalg.eigvalsh(gram),
                    np.sort(np.concatenate([products[k], -products[k]])),
                    rtol=0, atol=1e-14,
                )


@pytest.mark.parametrize("sig", [1e-12, 1e-9, 1e-6, 1e-3, 0.5])
def test_frames_fail_exactly_where_a_pair_product_falls_below_sig(sig):
    rng = np.random.default_rng(59)
    quads = skew_and_flattening_quads(rng, 40)
    count = len(quads)
    g = build(4 * count, np.arange(4 * count).reshape(-1, 4).tolist())
    for scale, shift in PLACEMENTS:
        pos = (quads * scale + shift).reshape(-1, 3)
        _, _, products = _face_volumes(pos.T, g.face_vertices)
        net = ANet(g, pos, None, np.zeros((g.edge_count, 6)), None, None, None,
                   Tolerances(sig=sig))
        least = np.abs(products).min(axis=1)
        for f in range(count):
            if least[f] < sig:
                with pytest.raises(NonGenericPair) as err:
                    net.face_frame(f)
                assert err.value.data["face"] == f
                assert err.value.data["signature"] != (2, 2, 0)
                continue
            net.face_frame(f)
            if f < count // 2 and least[f] >= 10 * sig:
                # a skew quad the closed form passes with room passes the
                # SVD reading of its face-local lines
                lines = np.array(reference_face_lines(pos, g.face_vertices[f]))
                assert reference_polar(lines, sig)[1] == (1, 1, 0)
                assert reference_span(lines, 1e-10, sig)[1] == (2, 2, 0)

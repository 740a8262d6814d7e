"""Tests for adapted quadrics per face and their propagation."""

import math
import re

import numpy as np
import pytest

from hypnet.anet import ANet, _face_volumes, star_plane, validate_anet
from hypnet.errors import (
    ClosureViolation,
    DegenerateParameter,
    DisconnectedMesh,
    NonGenericPair,
    OddVertexDegree,
    ProjectionDegenerate,
)
from hypnet.hyperboloid import (
    CLOSURE_EPS,
    _members,
    _scales,
    project_tau,
    propagate_all,
    transport_parameter,
)
import hypnet.anet
import hypnet.patch
import hypnet.plucker
from hypnet.patch import bilinear_parameter
from hypnet.plucker import (
    Tolerances,
    canonical,
    hom,
    line_from_points,
    normalized,
    plucker_product,
    span,
)
from hypnet.quadgraph import build
from hypnet.synthetic import (
    quadric_grid,
    random_grid3x3_net,
    random_umbrella_net,
)

import oracles
from oracles import (
    family_of_edge,
    family_parameter_of,
    in_span,
    member,
    member_pairs,
    proj_distance,
    propagate_face,
    random_projection_setup,
    reference_axis,
    reference_propagate,
    ruling_planes,
    tangency_residual,
)


def spec_face():
    """The standard skew quad as a one-face net."""
    graph = build(4, [(0, 1, 2, 3)])
    positions = np.array(
        [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 1.0, 1.0], [0.0, 1.0, 0.0]]
    )
    return validate_anet(graph, positions)


def quadric_net(n):
    count, quads, positions = quadric_grid(n, n)
    return validate_anet(build(count, quads), positions)


def random_net(rng):
    count, quads, positions = random_grid3x3_net(rng)
    return validate_anet(build(count, quads), positions)


def umbrella_net(k, rng):
    count, quads, positions = random_umbrella_net(k, rng)
    return validate_anet(build(count, quads), positions)


def _pt(p):
    return hom([np.asarray(p, dtype=float)])[0]


# --- construction from the family parameter --------------------------------


def test_polar_pair_splits_with_opposite_signs():
    a = spec_face()
    frame = a.face_frame(0)
    hb = member(frame, 1.0, a.positions)
    assert plucker_product(hb.q1, hb.q1) * plucker_product(hb.q2, hb.q2) < 0.0
    assert abs(plucker_product(hb.q1, hb.q2)) < 1e-14
    for h in frame.h_lines:
        assert abs(plucker_product(hb.q1, normalized(h))) < 1e-12
        assert abs(plucker_product(hb.q2, normalized(h))) < 1e-12
    assert in_span(reference_axis(frame)[0], hb.q1)
    assert in_span(reference_axis(frame)[0], hb.q2)


def test_ruling_planes_are_mutually_polar_with_opposite_signatures():
    a = spec_face()
    frame = a.face_frame(0)
    hb = member(frame, 0.7, a.positions)
    (p1, sig1), (p2, sig2) = ruling_planes(hb)
    assert len(p1) == 3 and len(p2) == 3
    assert hb.signatures == (sig1, sig2)
    assert {sig1, sig2} == {(2, 1, 0), (1, 2, 0)}
    expected = (2, 1, 0) if plucker_product(hb.q1, hb.q1) > 0 else (1, 2, 0)
    assert sig1 == expected
    cross = np.array([[plucker_product(u, v) for v in p2] for u in p1])
    assert np.max(np.abs(cross)) < 1e-10


def test_plane_signatures_swap_when_labels_swap():
    a = spec_face()
    frame = a.face_frame(0)
    plus = member(frame, 0.7, a.positions)
    minus = member(frame, -0.7, a.positions)
    assert proj_distance(minus.q1, plus.q2) < 1e-12
    assert proj_distance(minus.q2, plus.q1) < 1e-12
    assert minus.signatures == plus.signatures[::-1]


@pytest.mark.parametrize("lam", [0.0, math.inf, -math.inf, math.nan])
def test_degenerate_parameters_are_refused(lam):
    a = spec_face()
    frame = a.face_frame(0)
    with pytest.raises(DegenerateParameter):
        member(frame, lam, a.positions)


def test_family_parameter_roundtrip():
    a = spec_face()
    frame = a.face_frame(0)
    rng = np.random.default_rng(7)
    for _ in range(20):
        lam = float(
            rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-3.0, 3.0)
        )
        hb = member(frame, lam, a.positions)
        assert family_parameter_of(frame, hb.q1) == pytest.approx(
            lam, rel=1e-9
        )
        assert family_parameter_of(frame, hb.q2) == pytest.approx(
            -lam, rel=1e-9
        )


def test_family_parameter_of_the_diagonals():
    a = spec_face()
    frame = a.face_frame(0)
    assert family_parameter_of(frame, frame.diagonals[0]) == pytest.approx(
        0.0, abs=1e-12
    )
    with pytest.raises(DegenerateParameter):
        family_parameter_of(frame, frame.diagonals[1])


# --- the central projection -------------------------------------------------


def test_projection_fixes_points_polar_to_the_target():
    rng = np.random.default_rng(5)
    for _ in range(20):
        center, target, _, _ = random_projection_setup(rng)
        # build a point polar to the *target* instead
        _, _, q, _ = random_projection_setup(rng)
        w = np.concatenate([target[3:], target[:3]])
        q = q - (plucker_product(q, target) / plucker_product(w, target)) * w
        image = project_tau(q, center, target)
        assert proj_distance(image, q) < 1e-12


def test_projection_collapses_the_pencil_through_the_center():
    rng = np.random.default_rng(6)
    for _ in range(20):
        center, target, q, _ = random_projection_setup(rng)
        w = np.concatenate([target[3:], target[:3]])
        p = q - (plucker_product(q, target) / plucker_product(w, target)) * w
        if np.linalg.norm(p) < 1e-6:
            continue
        image = project_tau(normalized(center) + p, center, target)
        assert proj_distance(image, p) < 1e-12


def test_projection_degenerate_when_center_polar_to_target():
    # two lines through a common point have product zero
    common = _pt([0.0, 0.0, 0.0])
    center = line_from_points(common, _pt([1.0, 0.0, 0.0]))
    target = line_from_points(common, _pt([0.0, 1.0, 0.0]))
    q = line_from_points(_pt([0.0, 0.0, 1.0]), _pt([1.0, 1.0, 1.0]))
    with pytest.raises(ProjectionDegenerate):
        project_tau(q, center, target)


def test_projection_preserves_polarity_in_the_center_polar():
    rng = np.random.default_rng(11)
    for _ in range(200):
        center, target, q, qprime = random_projection_setup(rng)
        assert abs(plucker_product(q, qprime)) < 1e-10
        tq = project_tau(q, center, target)
        tqp = project_tau(qprime, center, target)
        assert abs(plucker_product(tq, tqp)) < 1e-10


def test_projection_preserves_self_product_signs():
    rng = np.random.default_rng(12)
    for _ in range(50):
        center, target, q, _ = random_projection_setup(rng)
        if abs(plucker_product(q, q)) < 1e-8:
            continue
        image = project_tau(q, center, target)
        assert math.copysign(1.0, plucker_product(image, image)) == math.copysign(
            1.0, plucker_product(q, q)
        )


# --- propagation across one edge --------------------------------------------


def _frames_by_face(a, seed):
    """The frames of ``a.frames_from(seed)`` by face id, and its tree as
    a list of ``(face, parent, shared)``."""
    stack, tree = a.frames_from(seed)
    frames = {f: stack[k] for k, f in enumerate(stack.faces.tolist())}
    return frames, [tuple(step) for step in tree.tolist()]


def _tree_steps(a, seed=0):
    """Frames, propagated quadrics, and the spanning tree from a seed."""
    frames, tree = _frames_by_face(a, seed)
    hbs = {seed: member(frames[seed], 0.8, a.positions)}
    for face, parent, shared in tree:
        hbs[face] = propagate_face(hbs[parent], shared, frames[face], a.positions)
    return frames, tree, hbs


def test_propagation_is_an_involution():
    rng = np.random.default_rng(21)
    a = random_net(rng)
    frames, tree, hbs = _tree_steps(a)
    face, parent, shared = tree[0]
    back = propagate_face(hbs[face], shared, frames[parent], a.positions)
    assert proj_distance(back.q1, hbs[parent].q1) < 1e-11
    assert proj_distance(back.q2, hbs[parent].q2) < 1e-11


def test_propagated_pair_lands_on_the_neighbor_axis():
    rng = np.random.default_rng(22)
    for net in (random_net(rng), quadric_net(3)):
        frames, tree, hbs = _tree_steps(net)
        for face, _parent, _shared in tree:
            hb = hbs[face]
            assert in_span(reference_axis(frames[face])[0], hb.q1, tol=1e-8)
            assert in_span(reference_axis(frames[face])[0], hb.q2, tol=1e-8)
            for h in frames[face].h_lines:
                assert abs(plucker_product(hb.q1, normalized(h))) < 1e-9
                assert abs(plucker_product(hb.q2, normalized(h))) < 1e-9


def test_adjacent_quadrics_are_tangent_along_the_shared_edge():
    rng = np.random.default_rng(23)
    a = random_net(rng)
    frames, tree, hbs = _tree_steps(a)
    for face, parent, shared in tree:
        assert tangency_residual(hbs[parent], hbs[face], shared) < 1e-8


def _vertex_cycle(a, v, lam):
    """Chain the pair around vertex ``v`` and return (seed, final, frames)."""
    _, faces = a.graph.vertex_star(v)
    frames = {f: a.face_frame(f) for f in faces}
    seed = member(frames[faces[0]], lam, a.positions)
    hb = seed
    n = len(faces)
    for k in range(n):
        f_now = faces[k]
        f_next = faces[(k + 1) % n]
        shared = set(a.graph.face_edges[f_now].tolist()) & set(
            a.graph.face_edges[f_next].tolist()
        )
        assert len(shared) == 1
        hb = propagate_face(hb, shared.pop(), frames[f_next], a.positions)
    return seed, hb, frames, faces


@pytest.mark.parametrize("lam", [0.5, -2.0, 3.0])
def test_cycle_around_an_even_vertex_is_the_identity(lam):
    rng = np.random.default_rng(31)
    a = random_net(rng)
    seed, final, _, _ = _vertex_cycle(a, 4, lam)
    assert proj_distance(final.q1, seed.q1) < 1e-9
    assert proj_distance(final.q2, seed.q2) < 1e-9


def test_cycle_around_a_degree_six_vertex_is_the_identity():
    rng = np.random.default_rng(32)
    a = umbrella_net(6, rng)
    seed, final, _, _ = _vertex_cycle(a, 0, 1.3)
    assert proj_distance(final.q1, seed.q1) < 1e-9
    assert proj_distance(final.q2, seed.q2) < 1e-9


def test_odd_cycle_fixes_the_quadric_but_crosses_the_labels():
    # Around an odd vertex the composed projection is the geometric
    # identity on the axis (each step fixes the diagonal through the
    # traversed vertex), yet the family bookkeeping crosses the pair:
    # the quadric returns to itself with its ruling families exchanged.
    rng = np.random.default_rng(34)
    a = umbrella_net(3, rng)
    seed, final, frames, faces = _vertex_cycle(a, 0, 0.9)
    assert proj_distance(final.q1, seed.q2) < 1e-9
    assert proj_distance(final.q2, seed.q1) < 1e-9
    frame = frames[faces[0]]
    lam_seed = family_parameter_of(frame, seed.q1)
    assert family_parameter_of(frame, final.q1) == pytest.approx(
        -lam_seed, rel=1e-9
    )


def test_odd_cycle_transports_each_diagonal_to_itself():
    rng = np.random.default_rng(33)
    a = umbrella_net(3, rng)
    _, faces = a.graph.vertex_star(0)
    frames = {f: a.face_frame(f) for f in faces}
    g1 = canonical(frames[faces[0]].diagonals[0])
    g2 = canonical(frames[faces[0]].diagonals[1])
    image1, image2 = g1, g2
    swaps = 0
    n = len(faces)
    for k in range(n):
        f_now, f_next = faces[k], faces[(k + 1) % n]
        shared = (
            set(a.graph.face_edges[f_now].tolist()) & set(a.graph.face_edges[f_next].tolist())
        ).pop()
        center = frames[f_now].line_of_edge(shared)
        far_edge = frames[f_next].opposite_in_family(shared)
        far = frames[f_next].line_of_edge(far_edge)
        image1 = project_tau(image1, center, far)
        image2 = project_tau(image2, center, far)
        if family_of_edge(frames[f_now], shared) != family_of_edge(
            frames[f_next], shared
        ):
            swaps += 1
    assert proj_distance(image1, g1) < 1e-9
    assert proj_distance(image2, g2) < 1e-9
    assert swaps % 2 == 1


# --- propagation over the whole net ------------------------------------------


def test_propagate_all_on_a_single_face():
    a = spec_face()
    hbs, report = propagate_all(a, 0, 1.5)
    assert set(hbs) == {0}
    assert report["closure_residuals"] == {}
    assert report["worst_closure_residual"] == 0.0
    assert report["seed_face"] == 0
    assert report["lambda"] == 1.5


def test_propagate_all_closes_on_an_exact_net():
    a = quadric_net(4)
    hbs, report = propagate_all(a, 0, 1.7)
    assert set(hbs) == set(range(16))
    assert report["worst_closure_residual"] < CLOSURE_EPS
    assert len(report["closure_residuals"]) > 0
    for f, hb in hbs.items():
        frame = hb.frame
        assert in_span(reference_axis(frame)[0], hb.q1, tol=1e-8)
        assert sorted(report["face_signatures"][f]) == [[1, 2, 0], [2, 1, 0]]


def test_propagate_all_is_deterministic():
    a = quadric_net(3)
    hbs1, report1 = propagate_all(a, 2, -0.6)
    hbs2, report2 = propagate_all(a, 2, -0.6)
    pairs1, pairs2 = member_pairs(hbs1, a.positions), member_pairs(hbs2, a.positions)
    for f in hbs1:
        assert np.array_equal(pairs1[f].q1, pairs2[f].q1)
        assert np.array_equal(pairs1[f].q2, pairs2[f].q2)
    assert report1["closure_residuals"] == report2["closure_residuals"]


def test_propagate_all_recovers_the_global_quadric():
    a = quadric_net(3)
    frame = a.face_frame(0)
    rulings_x = span(
        np.array(
            [
                line_from_points(_pt([k, 0.0, 0.0]), _pt([k, 1.0, k]))
                for k in range(3)
            ]
        )
    )
    rulings_y = span(
        np.array(
            [
                line_from_points(_pt([0.0, k, 0.0]), _pt([1.0, k, k]))
                for k in range(3)
            ]
        )
    )
    assert rulings_x.dim == 2 and rulings_y.dim == 2

    # the seed coordinate of the globally adapted quadric: intersect the
    # face's axis with the plane of the x = const rulings
    basis = np.stack(
        [canonical(frame.diagonals[0]), canonical(frame.diagonals[1])],
        axis=1,
    )
    m = np.hstack([basis, -rulings_x.basis.T])
    _, s, vt = np.linalg.svd(m)
    assert s[-1] < 1e-10
    coeff = vt[-1][:2]
    q_global = basis @ coeff
    lam = family_parameter_of(frame, q_global)
    hbs, report = propagate_all(a, 0, lam)
    assert report["worst_closure_residual"] < 1e-9

    def matches(p, rulings):
        stacked = np.vstack([p, rulings.basis])
        s = np.linalg.svd(stacked, compute_uv=False)
        return s[3] / s[0] < 1e-8

    pairs = member_pairs(hbs, a.positions)
    for f in hbs:
        planes = [basis for basis, _ in ruling_planes(pairs[f])]
        hit_x = [matches(p, rulings_x) for p in planes]
        hit_y = [matches(p, rulings_y) for p in planes]
        assert sorted(hit_x) == [False, True]
        assert sorted(hit_y) == [False, True]
        assert hit_x != hit_y


def test_propagate_all_refuses_odd_interior_degrees():
    rng = np.random.default_rng(41)
    a = umbrella_net(3, rng)
    with pytest.raises(OddVertexDegree) as err:
        propagate_all(a, 0, 1.0)
    assert err.value.data["vertices"] == (0,)


def _forced_anet(count, quads, positions):
    """Assemble a net without validation (for broken inputs)."""
    graph = build(count, quads)
    positions = np.asarray(positions, dtype=float)
    planes = np.full((count, 4), np.nan)
    residuals = np.full(count, np.nan)
    diameters = np.full(count, np.nan)
    for v in range(count):
        if not graph.is_referenced(v):
            continue
        neighbors, _ = graph.vertex_star(v)
        pts = np.array([positions[v]] + [positions[n] for n in neighbors])
        planes[v], residuals[v], diameters[v] = star_plane(pts)
    edge_lines = np.array(
        [
            line_from_points(_pt(positions[u]), _pt(positions[v]))
            for u, v in graph.edges
        ]
    )
    return ANet(
        graph=graph,
        positions=positions,
        contact_planes=planes,
        edge_lines=edge_lines,
        planarity_residuals=residuals,
        star_diameters=diameters,
        positive_volumes=_face_volumes(positions.T, graph.face_vertices)[0] > 0,
    )


def test_propagate_all_flags_closure_violations():
    count, quads, positions = quadric_grid(2, 2)
    positions = positions.copy()
    positions[4, 2] += 1e-4  # break planarity at the interior vertex
    a = _forced_anet(count, quads, positions)
    with pytest.raises(ClosureViolation) as err:
        propagate_all(a, 0, 1.0)
    assert err.value.data["residual"] > CLOSURE_EPS
    assert err.value.data["edge"] is not None
    assert "report" in err.value.data


def test_propagate_all_closes_an_exact_net_at_scale():
    # global Pluecker coordinates drifted past CLOSURE_EPS here
    count, quads, positions = quadric_grid(130, 130)
    a = validate_anet(build(count, quads), positions)
    _, report = propagate_all(a, 0, bilinear_parameter(a.face_frame(0), a.positions))
    assert report["worst_closure_residual"] < CLOSURE_EPS


# --- the scalar transport -------------------------------------------------------------


def test_transport_parameter_is_the_projection_of_the_pair():
    rng = np.random.default_rng(61)
    for net in (random_net(rng), random_net(rng), quadric_net(3)):
        frames, tree = _frames_by_face(net, 0)
        lam = 0.8
        for face, parent, shared in tree[:4]:
            image = propagate_face(
                member(frames[parent], lam, net.positions), shared, frames[face],
                net.positions,
            )
            moved = transport_parameter(net, frames[parent], shared, frames[face], lam)
            assert moved == pytest.approx(
                family_parameter_of(frames[face], image.q1), rel=1e-10
            )


@pytest.mark.parametrize("degree", [4, 6, 3, 5])
def test_transport_around_a_vertex_returns_the_parameter_up_to_sign(degree):
    rng = np.random.default_rng(62)
    a = umbrella_net(degree, rng)
    _, faces = a.graph.vertex_star(0)
    frames = [a.face_frame(f) for f in faces]
    lam = -1.7
    for k, frame in enumerate(frames):
        neighbor = frames[(k + 1) % degree]
        (shared,) = set(a.graph.face_edges[frame.face].tolist()) & set(
            a.graph.face_edges[neighbor.face].tolist()
        )
        lam = transport_parameter(a, frame, shared, neighbor, lam)
    assert lam == pytest.approx(-1.7 if degree % 2 == 0 else 1.7, rel=1e-12)


def test_transport_across_a_degenerate_crossing_raises():
    # f's diagonal through u and g's diagonal through w made coplanar:
    # the transport ratio across the shared edge (u, w) vanishes.  With
    # a planar star at w this would flatten g, so that star is broken.
    count, quads, positions = random_grid3x3_net(np.random.default_rng(63))
    graph = build(count, quads)
    (shared,) = set(graph.face_edges[0].tolist()) & set(graph.face_edges[1].tolist())
    u, w = graph.edges[shared]

    def diagonal_to(face, v):
        corners = graph.face_vertices[face].tolist()
        return corners[(corners.index(v) + 2) % 4]

    p, r = positions[u], positions[diagonal_to(0, u)]
    normal = np.cross(positions[w] - p, r - p)
    normal /= np.linalg.norm(normal)
    moved = positions.copy()
    v = diagonal_to(1, w)
    moved[v] -= ((moved[v] - p) @ normal) * normal
    moved[diagonal_to(1, u)] += 0.3 * normal
    a = _forced_anet(count, quads, moved)
    with pytest.raises(ProjectionDegenerate) as err:
        transport_parameter(a, a.face_frame(0), shared, a.face_frame(1), 0.5)
    assert err.value.data["edge"] == shared
    with pytest.raises(ProjectionDegenerate) as err:
        propagate_all(a, 0, 0.5)
    assert err.value.data["edge"] == shared


# --- propagate_all against the projection oracle ------------------------------------------


def _oracle_nets():
    rng = np.random.default_rng(71)
    for n, spacing, origin in ((4, 1.0, (0.0, 0.0)), (5, 0.3, (-1.5, -0.5)),
                               (6, 0.1, (1.0, 2.0))):
        count, quads, positions = quadric_grid(n, n, spacing=spacing, origin=origin)
        a = validate_anet(build(count, quads), positions)
        yield a, bilinear_parameter(a.face_frame(0), a.positions)
    for _ in range(3):
        yield random_net(rng), float(rng.uniform(0.2, 3.0))
    for k in (4, 6):
        yield umbrella_net(k, rng), -0.9


def test_propagate_all_matches_the_projection_oracle():
    for a, lam in _oracle_nets():
        hbs, report = propagate_all(a, 0, lam)
        pairs, expected = reference_propagate(a, 0, lam)
        assert report["face_signatures"] == expected["face_signatures"]
        assert set(report["closure_residuals"]) == set(expected["closure_residuals"])
        assert report["worst_closure_residual"] < CLOSURE_EPS
        for f, hb in hbs.items():
            frame = hb.frame
            assert frame.corners == pairs[f].frame.corners
            reference = family_parameter_of(frame, pairs[f].q1)
            assert hb.lam == pytest.approx(reference, rel=1e-10)
            assert family_parameter_of(frame, hb.q1) == pytest.approx(hb.lam, rel=1e-10)


def _read_at_sig(graph, positions, sig):
    """The net validated at the default cutoff, its frames and ruling
    planes then read at ``sig``: the walk gates the face products at sig
    as well, so a net validated at a cutoff above one of them stops in
    the walk before propagation reads it."""
    net = validate_anet(graph, positions)
    net.tol = Tolerances(sig=sig)
    return net


def _failing_cases():
    rng = np.random.default_rng(81)
    count, quads, positions = quadric_grid(3, 3)
    exact = validate_anet(build(count, quads), positions)
    yield "odd degree", umbrella_net(3, rng), 1.0
    disjoint = np.array([[0.0, 0, 0], [1, 0, 0], [1, 1, 1], [0, 1, 0]])
    graph = build(8, [(0, 1, 2, 3), (4, 5, 6, 7)])
    two = validate_anet(graph, np.vstack([disjoint, disjoint + 5.0]))
    yield "disconnected", two, 1.0
    # signature cutoffs that fail a face other than the seed
    yield "frames", _read_at_sig(exact.graph, positions, 0.05), 1.0
    # two cutoffs whose first failing face differs: face 8 at 1e-2, face 2
    # at 3e-2 (face 8 is later in the walk)
    yield "ruling planes", _read_at_sig(exact.graph, positions, 1e-2), 0.3
    yield "ruling planes 3e-2", _read_at_sig(exact.graph, positions, 3e-2), 0.3
    # a generic net, whose diagonal joins differ in length, so that the
    # face-local coordinate of a member is not +-lam: face 1 reads 0.073
    # there, and face 3 would fail first if the coordinate were lam * k
    count, quads, generic = random_grid3x3_net(np.random.default_rng(81))
    yield "ruling planes, generic", _read_at_sig(build(count, quads), generic, 0.075), 1.0
    for lam in (0.0, math.nan, 1e15):
        yield f"parameter {lam}", exact, lam
    count, quads, small = quadric_grid(2, 2)
    bumped = small.copy()
    bumped[4, 2] += 1e-4
    yield "bump", _forced_anet(count, quads, bumped), 1.0
    noisy = positions + np.random.default_rng(5).normal(scale=1e-7, size=positions.shape)
    noisy_net = validate_anet(exact.graph, noisy, Tolerances(planar=1e-3))
    yield "noise", noisy_net, bilinear_parameter(noisy_net.face_frame(0), noisy)


@pytest.mark.parametrize("case", [c[0] for c in _failing_cases()])
def test_propagate_all_fails_at_the_oracles_first_offender(case):
    a, lam = next((a, lam) for name, a, lam in _failing_cases() if name == case)
    kinds = (OddVertexDegree, DisconnectedMesh, NonGenericPair,
             DegenerateParameter, ClosureViolation)
    with pytest.raises(kinds) as expected:
        reference_propagate(a, 0, lam)
    with pytest.raises(type(expected.value)) as err:
        propagate_all(a, 0, lam)
    data = getattr(err.value, "data", {})
    for key in ("vertices", "face", "edge"):
        assert data.get(key) == getattr(expected.value, "data", {}).get(key)


def _gate_cases():
    """``(net, lam)`` where the member ``lam`` of every face fails a gate:
    the parameter, the partner, the split or the ruling planes."""
    count, quads, positions = quadric_grid(3, 3)
    exact = validate_anet(build(count, quads), positions)
    for lam in (0.0, math.nan, math.inf, 1e13, -3e12, 1e11):
        yield f"parameter {lam}", exact, lam
    for sig in (1e-2, 3e-2):
        yield f"ruling planes {sig}", _read_at_sig(exact.graph, positions, sig), 0.3
    count, quads, generic = random_grid3x3_net(np.random.default_rng(81))
    yield "ruling planes, generic", _read_at_sig(build(count, quads), generic, 0.075), 3.0
    # a flat net at a zero signature cutoff: the face-local products
    # vanish, which only the split gate sees
    count, quads, positions = quadric_grid(2, 2)
    flat = _forced_anet(count, quads, positions * [1.0, 1.0, 0.0])
    flat.tol = Tolerances(sig=0.0)
    yield "split", flat, 1.0


def _gate_text(err):
    return re.sub(r"-?\d\.\d{3}e[+-]\d\d|nan", "#", str(err))


@pytest.mark.parametrize("case", [c[0] for c in _gate_cases()])
def test_member_gates_fail_like_the_pair_oracle(case):
    # each closed-form gate fails the face the 6-vector pairs fail, with
    # the same text and data up to the rounding of the products
    a, lam = next((a, lam) for name, a, lam in _gate_cases() if name == case)
    frames, _ = a.frames_from(0)
    lams = np.full(len(frames), lam)
    with pytest.raises(DegenerateParameter) as expected:
        oracles._pairs(a.positions, frames, lams)
    with pytest.raises(DegenerateParameter) as err:
        _members(a.positions, frames, lams, _scales(a.positions, frames))
    assert _gate_text(err.value) == _gate_text(expected.value)
    data, reference = err.value.data, expected.value.data
    assert data.keys() == reference.keys()
    assert data["face"] == reference["face"]
    if "lam" in data:
        assert data["lam"] == reference["lam"] or math.isnan(lam)
    if case == "split":
        # the pairs' partner is 0 / 0 there; the closed form reads both zero
        assert data["products"] == (0.0, -0.0) and math.isnan(reference["products"][1])
    elif "products" in data:
        assert data["products"] == pytest.approx(reference["products"], rel=1e-5)


def test_propagate_all_reads_spans_in_stacked_calls(monkeypatch):
    # every face gate is read in closed form: no SVD, eigenvalue solve or
    # span on any net, exact, generic or far from the origin
    calls = {"span": 0, "svd": 0, "eigvalsh": 0}
    rng = np.random.default_rng(73)
    count, quads, positions = quadric_grid(30, 30, spacing=0.07, origin=(-1.7, -1.2))
    nets = [quadric_net(3), quadric_net(10), validate_anet(build(count, quads), positions)]
    nets += [random_net(rng) for _ in range(3)] + [umbrella_net(k, rng) for k in (4, 6)]
    count, quads, positions = quadric_grid(20, 20, spacing=0.05, origin=(-0.5, -0.5))
    nets.append(validate_anet(build(count, quads), positions + 1e4))
    count, quads, positions = quadric_grid(20, 20, spacing=0.01, origin=(30.0, 30.0))
    nets.append(validate_anet(build(count, quads), positions))

    def spy(name, func):
        def counted(*args, **kwargs):
            calls[name] += 1
            return func(*args, **kwargs)
        return counted

    for a in nets:
        lam = bilinear_parameter(a.face_frame(0), a.positions)
        with monkeypatch.context() as patch:
            for name in ("svd", "eigvalsh"):
                patch.setattr(np.linalg, name, spy(name, getattr(np.linalg, name)))
            # no module imports span today; the spy catches one it gains
            for module in (hypnet.anet, hypnet.hyperboloid, hypnet.patch):
                patch.setattr(module, "span", spy("span", span), raising=False)
            propagate_all(a, 0, lam)
        assert calls == {"span": 0, "svd": 0, "eigvalsh": 0}

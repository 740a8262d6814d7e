"""Tests for adapted quadrics per face and their propagation."""

import math

import numpy as np
import pytest

from hypnet.anet import ANet, star_plane, validate_anet
from hypnet.errors import (
    ClosureViolation,
    DegenerateParameter,
    OddVertexDegree,
    ProjectionDegenerate,
)
from hypnet.hyperboloid import (
    CLOSURE_EPS,
    family_parameter_of,
    hyperboloid_from_parameter,
    project_tau,
    propagate_all,
    propagate_face,
)
from hypnet.plucker import (
    canonical,
    hom,
    line_from_points,
    normalized,
    plucker_product,
    proj_distance,
    self_product,
    span,
)
from hypnet.quadgraph import build
from hypnet.synthetic import (
    quadric_grid,
    random_grid3x3_net,
    random_umbrella_net,
)

from oracles import in_span, random_projection_setup, tangency_residual


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
    hb = hyperboloid_from_parameter(frame, 1.0)
    assert self_product(hb.q1) * self_product(hb.q2) < 0.0
    assert abs(plucker_product(hb.q1, hb.q2)) < 1e-14
    for h in frame.h_lines:
        assert abs(plucker_product(hb.q1, normalized(h))) < 1e-12
        assert abs(plucker_product(hb.q2, normalized(h))) < 1e-12
    assert in_span(frame.H_line.basis, hb.q1)
    assert in_span(frame.H_line.basis, hb.q2)


def test_ruling_planes_are_mutually_polar_with_opposite_signatures():
    a = spec_face()
    frame = a.face_frame(0)
    hb = hyperboloid_from_parameter(frame, 0.7)
    assert hb.P1.dim == 2 and hb.P2.dim == 2
    assert {hb.P1.signature, hb.P2.signature} == {(2, 1, 0), (1, 2, 0)}
    expected = (2, 1, 0) if self_product(hb.q1) > 0 else (1, 2, 0)
    assert hb.P1.signature == expected
    cross = np.array(
        [
            [plucker_product(u, v) for v in hb.P2.basis]
            for u in hb.P1.basis
        ]
    )
    assert np.max(np.abs(cross)) < 1e-10


def test_plane_signatures_swap_when_labels_swap():
    a = spec_face()
    frame = a.face_frame(0)
    plus = hyperboloid_from_parameter(frame, 0.7)
    minus = hyperboloid_from_parameter(frame, -0.7)
    assert proj_distance(minus.q1, plus.q2) < 1e-12
    assert proj_distance(minus.q2, plus.q1) < 1e-12
    assert (minus.P1.signature, minus.P2.signature) == (
        plus.P2.signature,
        plus.P1.signature,
    )


@pytest.mark.parametrize("lam", [0.0, math.inf, -math.inf, math.nan])
def test_degenerate_parameters_are_refused(lam):
    a = spec_face()
    frame = a.face_frame(0)
    with pytest.raises(DegenerateParameter):
        hyperboloid_from_parameter(frame, lam)


def test_family_parameter_roundtrip():
    a = spec_face()
    frame = a.face_frame(0)
    rng = np.random.default_rng(7)
    for _ in range(20):
        lam = float(
            rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-3.0, 3.0)
        )
        hb = hyperboloid_from_parameter(frame, lam)
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
        if abs(self_product(q)) < 1e-8:
            continue
        image = project_tau(q, center, target)
        assert math.copysign(1.0, self_product(image)) == math.copysign(
            1.0, self_product(q)
        )


# --- propagation across one edge --------------------------------------------


def _tree_steps(a, seed=0):
    """Frames, propagated quadrics, and the spanning tree from a seed."""
    frames, tree = a.frames_from(seed)
    hbs = {seed: hyperboloid_from_parameter(frames[seed], 0.8)}
    for face, parent, shared in tree:
        hbs[face] = propagate_face(hbs[parent], shared, frames[face])
    return frames, tree, hbs


def test_propagation_is_an_involution():
    rng = np.random.default_rng(21)
    a = random_net(rng)
    frames, tree, hbs = _tree_steps(a)
    face, parent, shared = tree[0]
    back = propagate_face(hbs[face], shared, frames[parent])
    assert proj_distance(back.q1, hbs[parent].q1) < 1e-11
    assert proj_distance(back.q2, hbs[parent].q2) < 1e-11


def test_propagated_pair_lands_on_the_neighbor_axis():
    rng = np.random.default_rng(22)
    for net in (random_net(rng), quadric_net(3)):
        frames, tree, hbs = _tree_steps(net)
        for face, _parent, _shared in tree:
            hb = hbs[face]
            assert in_span(frames[face].H_line.basis, hb.q1, tol=1e-8)
            assert in_span(frames[face].H_line.basis, hb.q2, tol=1e-8)
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
    seed = hyperboloid_from_parameter(frames[faces[0]], lam)
    hb = seed
    n = len(faces)
    for k in range(n):
        f_now = faces[k]
        f_next = faces[(k + 1) % n]
        shared = set(a.graph.face_edges(f_now)) & set(
            a.graph.face_edges(f_next)
        )
        assert len(shared) == 1
        hb = propagate_face(hb, shared.pop(), frames[f_next])
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
            set(a.graph.face_edges(f_now)) & set(a.graph.face_edges(f_next))
        ).pop()
        center = frames[f_now].line_of_edge(shared)
        far_edge = frames[f_next].opposite_in_family(shared)
        far = frames[f_next].line_of_edge(far_edge)
        image1 = project_tau(image1, center, far)
        image2 = project_tau(image2, center, far)
        if frames[f_now].family_of_edge(shared) != frames[
            f_next
        ].family_of_edge(shared):
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
        assert in_span(frame.H_line.basis, hb.q1, tol=1e-8)
        assert {hb.P1.signature, hb.P2.signature} == {(2, 1, 0), (1, 2, 0)}


def test_propagate_all_is_deterministic():
    a = quadric_net(3)
    hbs1, report1 = propagate_all(a, 2, -0.6)
    hbs2, report2 = propagate_all(a, 2, -0.6)
    for f in hbs1:
        assert np.array_equal(hbs1[f].q1, hbs2[f].q1)
        assert np.array_equal(hbs1[f].q2, hbs2[f].q2)
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
        stacked = np.vstack([p.basis, rulings.basis])
        s = np.linalg.svd(stacked, compute_uv=False)
        return s[3] / s[0] < 1e-8

    for f, hb in hbs.items():
        hit_x = [matches(p, rulings_x) for p in (hb.P1, hb.P2)]
        hit_y = [matches(p, rulings_y) for p in (hb.P1, hb.P2)]
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

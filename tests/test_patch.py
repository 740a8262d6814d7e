"""Tests for bounded hyperboloid patches, sampling, and C1 reports."""

import dataclasses
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hypnet.patch
from hypnet.anet import validate_anet
from hypnet.errors import NoAdaptedPatch, NumericallyInfinitePoint, PatchError
from hypnet.hyperboloid import (
    HyperboloidStack,
    propagate_all,
)
from hypnet.patch import (
    CUSP_DELTA,
    CUSP_OFFSET_FLOOR,
    EDGE_CORNERS,
    HyperboloidPatch,
    PatchStack,
    bilinear_parameter,
    bilinear_patches,
    check_c1,
    restrict_all,
    restrict_to_patch,
    sample,
    sample_all,
)
from hypnet.plucker import (
    hom,
    incidence_matrix,
    line_from_points,
    normalized,
    plucker_product,
)
from hypnet.quadgraph import CHUNK, build
from hypnet.synthetic import quadric_grid, random_grid3x3_net, random_umbrella_net

import oracles
from oracles import (
    _pairing,
    conic_arc,
    edge_id,
    member,
    member_pairs,
    proj_distance,
    regulus_orientation,
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


def adapted_parameter(a, f, magnitude):
    """The sign of the family coordinate whose hyperboloid patches face f."""
    frame = a.face_frame(f)
    for lam in (magnitude, -magnitude):
        hb = member(frame, lam, a.positions)
        try:
            restrict_to_patch(hb, frame, a.positions)
        except NoAdaptedPatch:
            continue
        return lam
    raise AssertionError("neither sign of the coordinate admits a patch")


def propagated_hyperboloids(a, seed, magnitude=0.8):
    hbs, _ = propagate_all(a, seed, adapted_parameter(a, seed, magnitude))
    return hbs


def propagated_patches(a, seed, magnitude=0.8):
    hbs = propagated_hyperboloids(a, seed, magnitude)
    return {f: restrict_to_patch(hb, hb.frame, a.positions) for f, hb in hbs.items()}


def as_stack(hbs, positions):
    """A mapping from face id to member of a net at ``positions`` as one
    :class:`HyperboloidStack`."""
    if isinstance(hbs, HyperboloidStack):
        return hbs
    return HyperboloidStack.of(hbs.values(), positions)


def bilinear_hyperboloids(a):
    out = {}
    for f in range(a.graph.face_count):
        frame = a.face_frame(f)
        lam = bilinear_parameter(frame, a.positions)
        out[f] = member(frame, lam, a.positions)
    return out


SADDLE = spec_face()
SADDLE_FRAME = SADDLE.face_frame(0)
SADDLE_LAMBDA = adapted_parameter(SADDLE, 0, 0.8)
SADDLE_HB = member(SADDLE_FRAME, SADDLE_LAMBDA, SADDLE.positions)
SADDLE_PATCH = restrict_to_patch(SADDLE_HB, SADDLE_FRAME, SADDLE.positions)


def graph_surface_pair(x_second, z_scale):
    """Two faces of the saddle graph sharing the edge x = 1.

    The second face runs from x = 1 toward ``x_second``; values below 1
    double the surface back over the first cell, values above continue it.
    """
    positions = np.array(
        [
            [0.0, 0.0, 0.0],
            [1.0, 0.0, 0.0],
            [x_second, 0.0, 0.0],
            [0.0, 1.0, 0.0],
            [1.0, 1.0, 1.0],
            [x_second, 1.0, z_scale],
        ]
    )
    graph = build(6, [(0, 1, 4, 3), (1, 2, 5, 4)])
    return validate_anet(graph, positions)


# --- conic arcs (the oracle's rulings) -------------------------------------------


def test_arc_runs_between_the_endpoint_lines():
    arc = conic_arc(
        SADDLE_FRAME.h_lines[0], SADDLE_FRAME.h_lines[1], SADDLE_HB.q1, 1
    )
    assert proj_distance(arc(0.0), SADDLE_FRAME.h_lines[0]) < 1e-12
    assert proj_distance(arc(1.0), SADDLE_FRAME.h_lines[1]) < 1e-12


def test_arc_points_are_isotropic_on_both_branches():
    for branch in (1, -1):
        arc = conic_arc(
            SADDLE_FRAME.h_lines[0], SADDLE_FRAME.h_lines[1], SADDLE_HB.q1, branch
        )
        for t in np.linspace(0.0, 1.0, 17):
            h = arc(t)
            assert abs(plucker_product(h, h)) < 1e-12 * float(h @ h)


def test_arc_weight_matches_the_polarity_oracle():
    h0 = normalized(SADDLE_FRAME.h_lines[2])
    h1 = normalized(SADDLE_FRAME.h_lines[3])
    arc = conic_arc(h0, h1, SADDLE_HB.q2, -1)
    expected = -_pairing(arc.q, arc.q) / (2.0 * _pairing(arc.h0, arc.h1))
    assert arc.c == pytest.approx(expected, rel=1e-15)


def test_arc_rejects_intersecting_endpoints():
    with pytest.raises(ValueError, match="intersect"):
        conic_arc(
            SADDLE_FRAME.h_lines[0], SADDLE_FRAME.h_lines[2], SADDLE_HB.q1, 1
        )


def test_arc_rejects_isotropic_plane_point():
    with pytest.raises(ValueError, match="isotropic"):
        conic_arc(
            SADDLE_FRAME.h_lines[0],
            SADDLE_FRAME.h_lines[1],
            SADDLE_FRAME.h_lines[2],
            1,
        )


def test_arc_rejects_bad_branch():
    with pytest.raises(ValueError, match="branch"):
        conic_arc(SADDLE_FRAME.h_lines[0], SADDLE_FRAME.h_lines[1], SADDLE_HB.q1, 2)


@settings(max_examples=40, deadline=None)
@given(
    lam=st.floats(0.05, 8.0),
    sign=st.sampled_from([1.0, -1.0]),
    branch=st.sampled_from([1, -1]),
    t=st.floats(0.0, 1.0),
)
def test_arc_isotropy_property(lam, sign, branch, t):
    hb = member(SADDLE_FRAME, sign * lam, SADDLE.positions)
    arc = conic_arc(SADDLE_FRAME.h_lines[0], SADDLE_FRAME.h_lines[1], hb.q1, branch)
    h = arc(t)
    assert abs(plucker_product(h, h)) < 1e-10 * float(h @ h)


# --- restriction ------------------------------------------------------------------


def test_patch_rulings_start_and_end_on_the_edge_lines():
    p = SADDLE_PATCH
    assert proj_distance(p.ruling1(0.0), SADDLE_FRAME.h_lines[0]) < 1e-12
    assert proj_distance(p.ruling1(1.0), SADDLE_FRAME.h_lines[1]) < 1e-12
    assert proj_distance(p.ruling2(0.0), SADDLE_FRAME.h_lines[2]) < 1e-12
    assert proj_distance(p.ruling2(1.0), SADDLE_FRAME.h_lines[3]) < 1e-12


def test_cross_family_rulings_meet_everywhere():
    p = SADDLE_PATCH
    for t in np.linspace(0.0, 1.0, 6):
        for s in np.linspace(0.0, 1.0, 6):
            prod = plucker_product(normalized(p.ruling1(t)), normalized(p.ruling2(s)))
            assert abs(prod) < 1e-10


def test_exactly_one_sign_of_the_coordinate_patches():
    for magnitude in (0.8, 2.5):
        outcomes = []
        for lam in (magnitude, -magnitude):
            hb = member(SADDLE_FRAME, lam, SADDLE.positions)
            try:
                restrict_to_patch(hb, SADDLE_FRAME, SADDLE.positions)
            except NoAdaptedPatch:
                outcomes.append(False)
            else:
                outcomes.append(True)
        assert outcomes.count(True) == 1


def no_patch_message(face):
    return f"no ruling branch of family (1) sweeps the quad of face {face}"


def test_swapped_family_labels_admit_no_patch():
    # exchanging the pair's labels gives the member of opposite coordinate
    swapped = member(SADDLE_FRAME, -SADDLE_LAMBDA, SADDLE.positions)
    assert proj_distance(swapped.q1, SADDLE_HB.q2) < 1e-12
    assert proj_distance(swapped.q2, SADDLE_HB.q1) < 1e-12
    with pytest.raises(NoAdaptedPatch) as err:
        restrict_to_patch(swapped, SADDLE_FRAME, SADDLE.positions)
    assert str(err.value) == no_patch_message(0)
    assert err.value.data == {"face": 0, "family": 1}


def test_restriction_fails_closed_on_a_coordinate_that_is_not_a_number():
    members = HyperboloidStack.of([SADDLE_HB], SADDLE.positions)
    members = dataclasses.replace(members, lams=np.array([np.nan]))
    with pytest.raises(NoAdaptedPatch) as err:
        restrict_all(members, SADDLE.positions)
    assert err.value.data == {"face": 0, "family": 1}


def test_carved_weights_are_positive_with_a_unit_first_corner():
    a = quadric_net(3)
    stack = restrict_all(propagated_hyperboloids(a, 0, 0.37), a.positions)
    assert np.all(stack.weights[:, 0] == 1.0)
    assert np.all(stack.weights > 0.0)


def test_carved_weights_carry_one_weight_per_diagonal():
    a = random_net(np.random.default_rng(3))
    hbs = {f: member(hb.frame, 2.5 * hb.lam, a.positions)
           for f, hb in bilinear_hyperboloids(a).items()}
    weights = restrict_all(as_stack(hbs, a.positions), a.positions).weights
    assert np.array_equal(weights[:, [0, 3]], np.ones((len(weights), 2)))
    assert np.array_equal(weights[:, 1], weights[:, 2])
    assert np.allclose(weights[:, 1] ** 2, 2.5, rtol=1e-15)
    # the bilinear member carries all ones
    ones = [p.weights for p in bilinear_patches(a).values()]
    assert np.array_equal(ones, np.ones((len(ones), 4)))


def test_restriction_rejects_a_mismatched_frame():
    other = quadric_net(2)
    with pytest.raises(ValueError):
        restrict_to_patch(SADDLE_HB, other.face_frame(0), other.positions)


def test_ruling_orientation_agrees_with_the_edge_pair_twist():
    p = SADDLE_PATCH
    triple1 = (p.ruling1(0.0), p.ruling1(0.5), p.ruling1(1.0))
    triple2 = (p.ruling2(0.0), p.ruling2(0.5), p.ruling2(1.0))
    first, second = SADDLE_FRAME.h_edges[0], SADDLE_FRAME.h_edges[2]
    edges = SADDLE.graph.face_edges[0].tolist()
    twists = SADDLE.face_twists[0, [edges.index(first) % 2, edges.index(second) % 2]]
    assert regulus_orientation(*triple1) == twists[0]
    assert regulus_orientation(*triple2) == twists[1]


def test_corner_map_lists_the_role_vertices():
    x, x1, x2, x12 = SADDLE_FRAME.corners
    assert SADDLE_PATCH.corner_map == {
        (0, 0): x,
        (0, 1): x1,
        (1, 0): x2,
        (1, 1): x12,
    }


# --- sampling ---------------------------------------------------------------------


def test_two_by_two_sample_is_the_quad():
    pts = sample(SADDLE_PATCH, 2, 2)
    pos = SADDLE.positions
    for (i, j), v in SADDLE_PATCH.corner_map.items():
        assert np.allclose(pts[i, j], pos[v], atol=1e-9)


def test_sample_rows_are_collinear_along_the_second_family():
    p = SADDLE_PATCH
    pts = sample(p, 6, 5)
    for j, s in enumerate(np.linspace(0.0, 1.0, 5)):
        ruling = normalized(p.ruling2(s))
        m = incidence_matrix(ruling)
        for i in range(6):
            residual = np.linalg.norm(m @ hom([pts[i, j]])[0])
            assert residual < 1e-10 * (1.0 + np.linalg.norm(pts[i, j]))


def test_boundary_samples_stay_on_the_edge_segments():
    pos = SADDLE.positions
    x, x1, x2, x12 = SADDLE_FRAME.corners
    pts = sample(SADDLE_PATCH, 9, 9)
    boundaries = [
        (pts[0, :], pos[x], pos[x1]),
        (pts[-1, :], pos[x2], pos[x12]),
        (pts[:, 0], pos[x], pos[x2]),
        (pts[:, -1], pos[x1], pos[x12]),
    ]
    for row, A, B in boundaries:
        d = B - A
        for pt in row:
            u = float((pt - A) @ d) / float(d @ d)
            assert -1e-12 <= u <= 1.0 + 1e-12
            assert np.linalg.norm(pt - (A + u * d)) < 1e-10


def test_sample_reproduces_the_saddle_graph():
    lam = bilinear_parameter(SADDLE_FRAME, SADDLE.positions)
    hb = member(SADDLE_FRAME, lam, SADDLE.positions)
    patch = restrict_to_patch(hb, SADDLE_FRAME, SADDLE.positions)
    pts = sample(patch, 7, 6)
    flat = pts.reshape(-1, 3)
    assert np.max(np.abs(flat[:, 2] - flat[:, 0] * flat[:, 1])) < 1e-10


def test_sample_needs_two_per_direction():
    with pytest.raises(ValueError):
        sample(SADDLE_PATCH, 1, 4)


def test_sample_reports_points_at_infinity_with_indices():
    weights = np.array([0.0, 1.0, 1.0, 1.0])
    broken = HyperboloidPatch(0, SADDLE_FRAME, SADDLE_PATCH.points, weights)
    with pytest.raises(NumericallyInfinitePoint, match=r"^sample \(0, 0\) of face 0 "):
        sample(broken, 2, 2)


def test_stacked_sampling_names_the_face_and_indices_of_a_vanishing_denominator():
    # the weights cancel at the patch centre, the first such point in row-major order
    weights = np.array([1.0, 1.0, 1.0, -3.0])
    frame = dataclasses.replace(SADDLE_FRAME, face=7)
    broken = HyperboloidPatch(7, frame, SADDLE_PATCH.points, weights)
    stack = PatchStack.of([SADDLE_PATCH, broken])
    with pytest.raises(NumericallyInfinitePoint, match=r"^sample \(1, 2\) of face 7 "):
        sample_all(stack, 3, 5)


# --- bilinear interpolants --------------------------------------------------------


def test_bilinear_coordinate_recovers_the_graph_quadric():
    a = quadric_net(2)
    report = check_c1(bilinear_patches(a), a)
    assert report["edge_count"] == 4
    assert report["max_angle"] < 1e-10
    assert report["cusp_edges"] == []


def test_bilinear_patches_on_a_generic_net_are_only_position_continuous():
    a = random_net(np.random.default_rng(7))
    patches = bilinear_patches(a)
    assert len(patches) == a.graph.face_count
    report = check_c1(patches, a)
    assert report["max_angle"] > 1e-2
    # the stacked pass carves what one-face calls carve, bit for bit
    for f, hb in bilinear_hyperboloids(a).items():
        single = restrict_to_patch(hb, hb.frame, a.positions)
        assert np.array_equal(patches[f].weights, single.weights)


def far_quadric_net(n, origin):
    count, quads, positions = quadric_grid(n, n, spacing=0.01, origin=origin)
    return validate_anet(build(count, quads), positions)


def umbrella_net(k, seed):
    count, quads, positions = random_umbrella_net(k, np.random.default_rng(seed))
    return validate_anet(build(count, quads), positions)


@pytest.mark.parametrize(
    "net",
    [
        spec_face,
        lambda: quadric_net(1),
        lambda: quadric_net(6),
        lambda: random_net(np.random.default_rng(3)),
        lambda: random_net(np.random.default_rng(7)),
        lambda: graph_surface_pair(x_second=0.4, z_scale=0.4),
        lambda: umbrella_net(6, 1),
        lambda: far_quadric_net(20, (30.0, 30.0)),
        lambda: far_quadric_net(10, (10.0, 10.0)),
    ],
    ids=[
        "spec quad", "1x1 on z = xy", "6x6 on z = xy", "random net 3",
        "random net 7", "folded pair", "umbrella of 6", "20x20 at (30, 30)",
        "10x10 at (10, 10)",
    ],
)
def test_bilinear_parameter_matches_the_span_route(net):
    # the two routes measured 1.3e-12 apart at worst, on the far grids
    a = net()
    faces = np.repeat(np.arange(a.graph.face_count), 4)
    entries = 4 * faces + np.tile(np.arange(4), a.graph.face_count)
    for frame in a.frames(faces.tolist(), entries.tolist()):
        expected = oracles.reference_bilinear_parameter(frame, a.positions)
        got = bilinear_parameter(frame, a.positions)
        assert got == pytest.approx(expected, rel=2e-12, abs=0.0)


# --- tangent continuity reports ---------------------------------------------------


def test_propagated_patches_meet_with_tangent_continuity():
    a = quadric_net(3)
    assert a.equi_twisted()[0]
    patches = propagated_patches(a, seed=0, magnitude=0.37)
    report = check_c1(patches, a, samples_per_edge=7)
    assert report["edge_count"] == 12
    assert report["max_angle"] < 1e-7
    assert report["cusp_edges"] == []


def test_propagation_over_a_non_equi_twisted_net_fails_to_patch():
    a = random_net(np.random.default_rng(11))
    assert not a.equi_twisted()[0]
    with pytest.raises(NoAdaptedPatch):
        propagated_patches(a, seed=0)


def test_report_is_deterministic():
    a = random_net(np.random.default_rng(3))
    first = check_c1(bilinear_patches(a), a)
    second = check_c1(bilinear_patches(a), a)
    assert first == second


def test_single_face_net_has_an_empty_report():
    report = check_c1({0: SADDLE_PATCH}, SADDLE)
    assert report["edge_count"] == 0
    assert report["max_angle"] == 0.0
    assert report["worst_edge"] is None


def test_fold_back_onto_the_same_quadric_is_flagged_as_a_cusp():
    a = graph_surface_pair(x_second=0.4, z_scale=0.4)
    report = check_c1(bilinear_patches(a), a)
    e = edge_id(a.graph, 1, 4)
    assert report["edges"][e]["max_angle"] < 1e-10
    assert report["edges"][e]["cusp"] is True
    assert report["cusp_edges"] == [e]


def test_smooth_continuation_is_not_flagged():
    a = graph_surface_pair(x_second=1.6, z_scale=1.6)
    report = check_c1(bilinear_patches(a), a)
    e = edge_id(a.graph, 1, 4)
    assert report["edges"][e]["max_angle"] < 1e-10
    assert report["edges"][e]["cusp"] is False
    assert report["cusp_edges"] == []


# --- closed forms against the conic-arc search and per-point meets --------------


def differential_cases():
    """(net, hyperboloids) pairs: a propagated family on an exact quadric
    net and independent bilinear members on it and on generic random
    nets, each member as its pair."""
    a = quadric_net(3)
    members = propagated_hyperboloids(a, 0, 0.37)
    pairs = member_pairs(members, a.positions)
    yield a, {f: pairs[f] for f in members}
    yield a, bilinear_hyperboloids(a)
    for seed in (3, 7, 11, 19):
        b = random_net(np.random.default_rng(seed))
        yield b, bilinear_hyperboloids(b)


def reference_patches(a, hbs):
    return {f: oracles.reference_patch(hb, a.positions) for f, hb in hbs.items()}


def test_batched_sampling_matches_the_reference_meets():
    # the samples lie on the oracle's rulings, met at the arc parameters
    # that carry its rulings onto the carved weights
    for a, hbs in differential_cases():
        stack = restrict_all(as_stack(hbs, a.positions), a.positions)
        points = sample_all(stack, 6, 5)
        for k, ref_patch in enumerate(reference_patches(a, hbs).values()):
            ref = oracles.reference_weighted_sample(
                ref_patch, a.positions, stack.weights[k], 6, 5
            )
            assert np.all(np.abs(points[k] - ref) <= 1e-12 * (1.0 + np.abs(ref)))


#: the closed-form angle may read below a sampled one by rounding only
#: (6.3e-16 at worst on the cases below)
C1_ROUNDING = 1e-12

#: a sampling of step h misses a smooth maximum by at most |theta''| h^2 / 8;
#: refined to h = 2e-6 around the best of 1001 points, this allows
#: |theta''| up to 2000 (1.8e-11 seen at worst on the cases below)
C1_RESOLUTION = 1e-9


def assert_c1_bounds_dense_sampling(report, patches, graph, positions):
    """Every edge's closed-form angle is at least every sampled one, and
    within ``C1_RESOLUTION`` of the densest unless the planes turn through
    a right angle; returns the edge counts ``(right angles, compared)``."""
    grid = np.linspace(0.0, 1.0, 1001)
    coarse = oracles.reference_c1_angles(patches, graph, positions, grid)
    step = np.linspace(-1e-3, 1e-3, 1001)
    fine = oracles.reference_c1_angles(patches, graph, positions, {
        e: np.clip(at + step, 0.0, 1.0) for e, (_, at, _) in coarse.items()
    })
    poles = compared = 0
    for e, (top, _, flips) in coarse.items():
        got = report["edges"][e]["max_angle"]
        assert got >= max(top, fine[e][0]) - C1_ROUNDING
        if flips:
            assert got == 0.5 * np.pi
            poles += 1
        elif got < 0.5 * np.pi:
            assert got <= fine[e][0] + C1_RESOLUTION
            compared += 1
    return poles, compared


def test_batched_c1_report_matches_the_reference_walk():
    rng = np.random.default_rng(0)
    cases = list(differential_cases())
    cases += [
        (b, bilinear_hyperboloids(b))
        for b in (
            graph_surface_pair(x_second=0.4, z_scale=0.4),
            graph_surface_pair(x_second=1.6, z_scale=1.6),
            *(random_net(rng) for _ in range(6)),
        )
    ]
    poles = compared = 0
    for a, hbs in cases:
        stack = restrict_all(as_stack(hbs, a.positions), a.positions)
        report = check_c1(stack, a, samples_per_edge=7)
        patches = reference_patches(a, hbs)
        ref = oracles.reference_c1_edges(
            patches, a.graph, a.positions, 7, CUSP_DELTA, CUSP_OFFSET_FLOOR,
        )
        u = np.arange(1, 100) / 100.0
        sampled = oracles.reference_c1_angles(patches, a.graph, a.positions, u)
        assert sorted(report["edges"]) == sorted(ref)
        for e, (angle, cusp) in ref.items():
            assert report["edges"][e]["cusp"] is cusp
            # the supremum over the whole edge bounds every sample
            got = report["edges"][e]["max_angle"]
            assert got >= max(angle, sampled[e][0]) - C1_ROUNDING
        counts = assert_c1_bounds_dense_sampling(report, patches, a.graph, a.positions)
        poles, compared = poles + counts[0], compared + counts[1]
        assert report["cusp_edges"] == [e for e, (_, cusp) in ref.items() if cusp]
        angles = [report["edges"][e]["max_angle"] for e in sorted(ref)]
        worst = sorted(ref)[angles.index(max(angles))] if max(angles) > 0.0 else None
        assert report["max_angle"] == max(angles)
        assert report["worst_edge"] == worst
    assert poles > 10 and compared > 10


def test_c1_report_bounds_dense_sampling_where_the_stars_are_not_planar():
    # lifted vertices and random weights: the sides' planes differ at the
    # edge's ends too, so c(u) need not vanish there
    rng = np.random.default_rng(23)
    compared = 0
    for _ in range(6):
        a = random_net(rng)
        positions = a.positions.copy()
        positions[rng.choice(len(positions), 4, replace=False)] += rng.normal(
            scale=0.05, size=(4, 3)
        )
        patches = {
            f: HyperboloidPatch(f, p.frame, positions[list(p.frame.corners)],
                                rng.uniform(0.5, 2.0, size=4))
            for f, p in bilinear_patches(a).items()
        }
        net = SimpleNamespace(graph=a.graph, positions=positions)
        report = check_c1(patches, net)
        _, edges = assert_c1_bounds_dense_sampling(report, patches, a.graph, positions)
        compared += edges
    assert compared > 8


def sweep_cases(ratios, signs=(1.0, -1.0)):
    """``(net, member, ratio)`` for every face of the fixtures and three
    random nets and every member ``ratio`` times the face's bilinear
    coordinate, for each ratio of ``ratios`` times each of ``signs``."""
    nets = [quadric_net(3), SADDLE] + [
        random_net(np.random.default_rng(seed)) for seed in (3, 7, 11)
    ]
    for a in nets:
        for f in range(a.graph.face_count):
            frame = a.face_frame(f)
            lam_bil = bilinear_parameter(frame, a.positions)
            for ratio in np.multiply.outer(signs, ratios).ravel().tolist():
                yield a, member(frame, ratio * lam_bil, a.positions), ratio


def test_adapted_branch_verdicts_match_the_reference():
    # the sign rule: a member patches its quad exactly where the oracle's
    # branch search finds one branch per family, and that is where its
    # coordinate has the bilinear member's sign
    checked = {"patch": 0, "no": 0}
    for a, hb, ratio in sweep_cases((1e-3, 0.1, 0.5, 1.0, 2.0, 10.0, 1e3)):
        ref = oracles.reference_patch(hb, a.positions)
        assert (ref is not None) == (ratio > 0.0)
        if ref is None:
            with pytest.raises(NoAdaptedPatch) as err:
                restrict_to_patch(hb, hb.frame, a.positions)
            assert str(err.value) == no_patch_message(hb.face)
            assert err.value.data == {"face": hb.face, "family": 1}
            checked["no"] += 1
        else:
            restrict_to_patch(hb, hb.frame, a.positions)
            checked["patch"] += 1
    assert checked["patch"] > 10 and checked["no"] > 10


def test_carved_patches_match_the_reference_patch():
    # the oracle's own two rulings agree on its cross-ratio to 2e-13 at
    # ratios 1/2 to 2 and to 9e-13 at 1/4, so the sweep keeps within 3
    for a, hb, ratio in sweep_cases((1.0 / 3.0, 0.5, 1.0, 2.0, 3.0), signs=(1.0,)):
        patch = restrict_to_patch(hb, hb.frame, a.positions)
        ref = oracles.reference_patch(hb, a.positions)
        w00, w01, w10, w11 = patch.weights
        expected = oracles.reference_cross_ratio(ref, a.positions)
        assert w00 * w11 / (w01 * w10) == pytest.approx(expected, rel=1e-12, abs=0.0)
        ref_points = oracles.reference_weighted_sample(ref, a.positions, patch.weights, 5, 5)
        miss = np.abs(sample(patch, 5, 5) - ref_points)
        assert np.all(miss <= 1e-12 * (1.0 + np.abs(ref_points)))


def bit_for_bit_cases():
    a = quadric_net(4)
    yield a, propagated_hyperboloids(a, 0, 0.37)
    b = random_net(np.random.default_rng(5))
    yield b, bilinear_hyperboloids(b)


@pytest.mark.parametrize("case", [0, 1])
def test_stacked_calls_equal_one_face_calls_bit_for_bit(case):
    a, hbs = list(bit_for_bit_cases())[case]
    stack = restrict_all(as_stack(hbs, a.positions), a.positions)
    singles = {f: restrict_to_patch(hb, hb.frame, a.positions) for f, hb in hbs.items()}
    points = sample_all(stack, 9, 7)
    for k, (f, patch) in enumerate(singles.items()):
        assert stack.faces[k] == f
        assert np.array_equal(stack.weights[k], patch.weights)
        assert np.array_equal(stack.points[k], patch.points)
        assert np.array_equal(points[k], sample(patch, 9, 7))
    assert check_c1(stack, a) == check_c1(singles, a)


# --- failure modes of the tangent-continuity report ------------------------------


def pair_with_patch(edit):
    """The smooth two-face pair, its shared edge, and its bilinear patches
    with face 1's replaced by ``edit(points, weights, edge corners)``."""
    a = graph_surface_pair(x_second=1.6, z_scale=1.6)
    patches = bilinear_patches(a)
    e = edge_id(a.graph, 1, 4)
    p = patches[1]
    on_edge = EDGE_CORNERS[p.frame.h_edges.index(e)]
    points, weights = edit(p.points.copy(), p.weights.copy(), on_edge)
    patches[1] = HyperboloidPatch(face=1, frame=p.frame, points=points, weights=weights)
    return a, e, patches


def test_c1_report_raises_for_a_degenerate_edge_schedule():
    def flip(points, weights, on_edge):
        weights[on_edge[1]] = -weights[on_edge[1]]
        return points, weights

    a, e, patches = pair_with_patch(flip)
    with pytest.raises(PatchError, match=rf"^degenerate ruling schedule on edge {e}$"):
        check_c1(patches, a)


def test_c1_report_raises_where_a_ruling_end_is_at_infinity():
    # the far corners' weights cancel halfway along the opposite edge
    def cancel(points, weights, on_edge):
        far = [k for k in range(4) if k not in on_edge]
        weights[:] = 1.0
        weights[far[1]] = -1.0
        return points, weights

    a, e, patches = pair_with_patch(cancel)
    # the report names the point where they cancel: t = 1, halfway along s
    message = r"^sample \(1\.0, 0\.5\) of face 1 "
    with pytest.raises(NumericallyInfinitePoint, match=message):
        check_c1(patches, a)


def test_c1_report_raises_where_a_probe_is_at_infinity():
    # the weights cancel a probe step into the patch, all along the edge
    def cancel(points, weights, on_edge):
        weights[:] = 1.0
        weights[[k for k in range(4) if k not in on_edge]] = 1.0 - 1.0 / CUSP_DELTA
        return points, weights

    a, e, patches = pair_with_patch(cancel)
    role = list(patches[1].frame.h_edges).index(e)
    into = CUSP_DELTA if role % 2 == 0 else 1.0 - CUSP_DELTA
    label = rf"\({into}, .*\)" if role < 2 else rf"\(.*, {into}\)"
    with pytest.raises(NumericallyInfinitePoint, match=rf"^sample {label} of face 1 "):
        check_c1(patches, a)


def test_c1_report_raises_where_a_ruling_is_parallel_to_the_edge():
    # the far corners slide along the edge, so every cross ruling does too
    def collapse(points, weights, on_edge):
        near = points[on_edge]
        far = [k for k in range(4) if k not in on_edge]
        points[far] = near + 2.0 * (near[1] - near[0])
        return points, weights

    a, e, patches = pair_with_patch(collapse)
    with pytest.raises(PatchError, match="parallel to the edge") as err:
        check_c1(patches, a)
    assert err.value.data == {"edge": e}


@pytest.mark.parametrize("samples", [0, -3])
def test_c1_report_needs_a_probe_point_per_edge(samples):
    a = graph_surface_pair(x_second=1.6, z_scale=1.6)
    with pytest.raises(ValueError, match="^samples_per_edge must be at least 1"):
        check_c1(bilinear_patches(a), a, samples_per_edge=samples)


# --- slices of the carving and the C1 report ---------------------------------------


def wide_patches(n):
    """An n x n net on z = xy, its propagated members and their patches."""
    a = quadric_net(n)
    members, _ = propagate_all(a, 0, bilinear_parameter(a.face_frame(0), a.positions))
    return a, members, restrict_all(members, a.positions)


def transient_memory(call):
    """Traced memory that ``call()`` allocates and frees again, at its peak."""
    call()
    tracemalloc.start()
    try:
        result = call()  # alive while measured, so that it counts as current
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del result
    return peak - current


@pytest.mark.parametrize("stage", ["restrict_all", "check_c1"])
def test_carving_and_the_c1_report_hold_a_bounded_working_set(stage):
    transient = []
    for n in (40, 80):
        a, members, patches = wide_patches(n)
        if stage == "restrict_all":
            transient.append(transient_memory(lambda: restrict_all(members, a.positions)))
        else:
            transient.append(transient_memory(lambda: check_c1(patches, a)))
    # a slice's temporaries do not grow with the net; the whole stack's grow 4x
    assert transient[1] < 2 * transient[0]


def test_sampling_a_wide_stack_holds_a_bounded_working_set():
    # the dyadic 200 x 200 grid of CI's extend step: its 40,000 faces'
    # 3 x 3 samples fill 8.6 MB; evaluated in one pass the stack's
    # temporaries took another 17.7 MB, in CHUNK slices they take 0.6 MB
    spacing = 2.0**-7
    origin = (-100 * spacing, -100 * spacing)
    count, quads, positions = quadric_grid(200, 200, spacing=spacing, origin=origin)
    a = validate_anet(build(count, quads), positions)
    members, _ = propagate_all(a, 0, bilinear_parameter(a.face_frame(0), a.positions))
    patches = restrict_all(members, a.positions)
    assert transient_memory(lambda: sample_all(patches, 3, 3)) < 1e6


def test_sampling_in_slices_keeps_the_bits_and_the_first_refusal(monkeypatch):
    a, _, patches = wide_patches(40)
    points = sample_all(patches, 3, 5)
    with monkeypatch.context() as patch:
        patch.setattr(hypnet.patch, "CHUNK", 10**9)
        assert sample_all(patches, 3, 5).tobytes() == points.tobytes()
    # the weights cancel at the patch centre of two faces past the first slice
    late, later = CHUNK + 7, CHUNK + 300
    weights = patches.weights.copy()
    weights[[late, later]] = [1.0, 1.0, 1.0, -3.0]
    broken = dataclasses.replace(patches, weights=weights)
    error = raised(lambda: sample_all(broken, 3, 5))
    assert error == unsliced(monkeypatch, lambda: sample_all(broken, 3, 5))
    face = int(patches.faces[late])
    assert error[:2] == (NumericallyInfinitePoint, f"sample (1, 2) of face {face} is numerically at infinity")


def raised(call):
    """Type, message and data of the exception ``call()`` raises."""
    with pytest.raises(Exception) as err:
        call()
    return type(err.value), str(err.value), getattr(err.value, "data", None)


def unsliced(monkeypatch, call):
    """:func:`raised` with every face and edge in one slice."""
    with monkeypatch.context() as patch:
        patch.setattr(hypnet.patch, "CHUNK", 10**9)
        return raised(call)


@pytest.mark.parametrize("fault", ["swapped", "not_a_number"])
def test_a_failing_face_past_the_first_slice_raises_as_one_stacked_pass(monkeypatch, fault):
    a, members, _ = wide_patches(40)
    late, later = CHUNK + 7, CHUNK + 300
    lams = members.lams.copy()
    # exchanged family labels are the member of opposite coordinate
    lams[later] = -lams[later]
    lams[late] = -lams[late] if fault == "swapped" else np.nan
    broken = dataclasses.replace(members, lams=lams)
    error = raised(lambda: restrict_all(broken, a.positions))
    assert error == unsliced(monkeypatch, lambda: restrict_all(broken, a.positions))
    face = int(members.frames.faces[late])
    assert error == (NoAdaptedPatch, no_patch_message(face), {"face": face, "family": 1})


@pytest.mark.parametrize("corner", [0, 1, 2, 3])
def test_a_degenerate_edge_past_the_first_slice_raises_as_one_stacked_pass(
    monkeypatch, corner
):
    a, _, patches = wide_patches(30)
    g = a.graph
    interior = np.flatnonzero((g.edge_faces < g.face_count).all(axis=1)).tolist()
    weights = patches.weights.copy()
    # a corner weight of opposite sign breaks the edges of two faces
    for k in (len(patches) - 1, len(patches) - 40):
        weights[k, corner] = -weights[k, corner]
    broken = dataclasses.replace(patches, weights=weights)
    error = raised(lambda: check_c1(broken, a))
    assert error == unsliced(monkeypatch, lambda: check_c1(broken, a))
    assert issubclass(error[0], (PatchError, NumericallyInfinitePoint))
    edges = {e for k in (len(patches) - 1, len(patches) - 40)
             for e in patches.frames.h_edges[k].tolist()}
    assert min(interior.index(e) for e in edges if e in interior) >= CHUNK

"""Tests for bounded hyperboloid patches, sampling, and C1 reports."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypnet.anet import validate_anet
from hypnet.errors import (
    DegenerateConic,
    NoAdaptedPatch,
    NumericallyInfinitePoint,
    SkewLines,
)
from hypnet.hyperboloid import (
    FaceHyperboloid,
    hyperboloid_from_parameter,
    propagate_all,
)
from hypnet.patch import (
    CUSP_DELTA,
    CUSP_OFFSET_FLOOR,
    HyperboloidPatch,
    bilinear_parameter,
    bilinear_patches,
    check_c1,
    conic_arc,
    restrict_to_patch,
    sample,
)
from hypnet.plucker import (
    hom,
    incidence_matrix,
    line_from_points,
    normalized,
    plucker_product,
    proj_distance,
    regulus_orientation,
    self_product,
)
from hypnet.quadgraph import build
from hypnet.synthetic import quadric_grid, random_grid3x3_net

import oracles
from oracles import _pairing


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
        hb = hyperboloid_from_parameter(frame, lam)
        try:
            restrict_to_patch(hb, frame, a.positions)
        except NoAdaptedPatch:
            continue
        return lam
    raise AssertionError("neither sign of the coordinate admits a patch")


def propagated_patches(a, seed, magnitude=0.8):
    lam = adapted_parameter(a, seed, magnitude)
    hbs, _ = propagate_all(a, seed, lam)
    return {f: restrict_to_patch(hb, hb.frame, a.positions) for f, hb in hbs.items()}


SADDLE = spec_face()
SADDLE_FRAME = SADDLE.face_frame(0)
SADDLE_LAMBDA = adapted_parameter(SADDLE, 0, 0.8)
SADDLE_HB = hyperboloid_from_parameter(SADDLE_FRAME, SADDLE_LAMBDA)
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


# --- conic arcs -------------------------------------------------------------------


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
            assert abs(self_product(h)) < 1e-12 * float(h @ h)


def test_arc_weight_matches_the_polarity_oracle():
    h0 = normalized(SADDLE_FRAME.h_lines[2])
    h1 = normalized(SADDLE_FRAME.h_lines[3])
    arc = conic_arc(h0, h1, SADDLE_HB.q2, -1)
    expected = -_pairing(arc.q, arc.q) / (2.0 * _pairing(arc.h0, arc.h1))
    assert arc.c == pytest.approx(expected, rel=1e-15)


def test_arc_rejects_intersecting_endpoints():
    with pytest.raises(DegenerateConic):
        conic_arc(
            SADDLE_FRAME.h_lines[0], SADDLE_FRAME.h_lines[2], SADDLE_HB.q1, 1
        )


def test_arc_rejects_isotropic_plane_point():
    with pytest.raises(DegenerateConic):
        conic_arc(
            SADDLE_FRAME.h_lines[0],
            SADDLE_FRAME.h_lines[1],
            SADDLE_FRAME.h_lines[2],
            1,
        )


def test_arc_rejects_bad_branch():
    with pytest.raises(ValueError):
        conic_arc(SADDLE_FRAME.h_lines[0], SADDLE_FRAME.h_lines[1], SADDLE_HB.q1, 2)


@settings(max_examples=40, deadline=None)
@given(
    lam=st.floats(0.05, 8.0),
    sign=st.sampled_from([1.0, -1.0]),
    branch=st.sampled_from([1, -1]),
    t=st.floats(0.0, 1.0),
)
def test_arc_isotropy_property(lam, sign, branch, t):
    hb = hyperboloid_from_parameter(SADDLE_FRAME, sign * lam)
    arc = conic_arc(SADDLE_FRAME.h_lines[0], SADDLE_FRAME.h_lines[1], hb.q1, branch)
    h = arc(t)
    assert abs(self_product(h)) < 1e-10 * float(h @ h)


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
            hb = hyperboloid_from_parameter(SADDLE_FRAME, lam)
            try:
                restrict_to_patch(hb, SADDLE_FRAME, SADDLE.positions)
            except NoAdaptedPatch:
                outcomes.append(False)
            else:
                outcomes.append(True)
        assert outcomes.count(True) == 1


def test_swapped_family_labels_admit_no_patch():
    swapped = FaceHyperboloid(
        face=SADDLE_HB.face,
        frame=SADDLE_HB.frame,
        q1=SADDLE_HB.q2,
        q2=SADDLE_HB.q1,
        P1=SADDLE_HB.P2,
        P2=SADDLE_HB.P1,
    )
    with pytest.raises(NoAdaptedPatch) as err:
        restrict_to_patch(swapped, SADDLE_FRAME, SADDLE.positions)
    assert err.value.data["face"] == 0


def test_restriction_rejects_a_mismatched_frame():
    other = quadric_net(2)
    with pytest.raises(ValueError):
        restrict_to_patch(SADDLE_HB, other.face_frame(0), other.positions)


def test_ruling_orientation_agrees_with_the_edge_pair_twist():
    p = SADDLE_PATCH
    triple1 = (p.ruling1(0.0), p.ruling1(0.5), p.ruling1(1.0))
    triple2 = (p.ruling2(0.0), p.ruling2(0.5), p.ruling2(1.0))
    first, second = SADDLE_FRAME.h_edges[0], SADDLE_FRAME.h_edges[2]
    assert regulus_orientation(*triple1) == SADDLE.twist_for_edge(0, first)
    assert regulus_orientation(*triple2) == SADDLE.twist_for_edge(0, second)


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
    hb = hyperboloid_from_parameter(SADDLE_FRAME, lam)
    patch = restrict_to_patch(hb, SADDLE_FRAME, SADDLE.positions)
    pts = sample(patch, 7, 6)
    flat = pts.reshape(-1, 3)
    assert np.max(np.abs(flat[:, 2] - flat[:, 0] * flat[:, 1])) < 1e-10


def test_sample_needs_two_per_direction():
    with pytest.raises(ValueError):
        sample(SADDLE_PATCH, 1, 4)


def test_sample_reports_points_at_infinity_with_indices():
    pts = hom([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 0.0]])
    a = line_from_points(pts[0], pts[1])
    b = line_from_points(pts[2], pts[3])
    broken = HyperboloidPatch(
        face=0,
        frame=None,
        ruling1=lambda t: a,
        ruling2=lambda s: b,
        corner_map={},
    )
    with pytest.raises(NumericallyInfinitePoint, match=r"\(0, 0\)"):
        sample(broken, 2, 2)


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
    e = a.graph.edge_id(1, 4)
    assert report["edges"][e]["max_angle"] < 1e-10
    assert report["edges"][e]["cusp"] is True
    assert report["cusp_edges"] == [e]


def test_smooth_continuation_is_not_flagged():
    a = graph_surface_pair(x_second=1.6, z_scale=1.6)
    report = check_c1(bilinear_patches(a), a)
    e = a.graph.edge_id(1, 4)
    assert report["edges"][e]["max_angle"] < 1e-10
    assert report["edges"][e]["cusp"] is False
    assert report["cusp_edges"] == []


# --- batched consumers against per-point reference meets --------------------------


def differential_cases():
    """(net, patches) pairs: a propagated family on an exact quadric net
    and independent bilinear patches on generic random nets."""
    a = quadric_net(3)
    yield a, propagated_patches(a, seed=0, magnitude=0.37)
    yield a, bilinear_patches(a)
    for seed in (3, 7, 11, 19):
        b = random_net(np.random.default_rng(seed))
        yield b, bilinear_patches(b)


def test_batched_sampling_matches_the_reference_meets():
    for _, patches in differential_cases():
        for patch in patches.values():
            pts = sample(patch, 6, 5)
            ref = oracles.reference_sample(patch.ruling1, patch.ruling2, 6, 5)
            assert np.all(np.abs(pts - ref) <= 1e-12 * (1.0 + np.abs(ref)))


def test_batched_c1_report_matches_the_reference_walk():
    cases = list(differential_cases())
    cases += [
        (b, bilinear_patches(b))
        for b in (
            graph_surface_pair(x_second=0.4, z_scale=0.4),
            graph_surface_pair(x_second=1.6, z_scale=1.6),
        )
    ]
    for a, patches in cases:
        report = check_c1(patches, a, samples_per_edge=7)
        ref = oracles.reference_c1_edges(
            patches, a.graph, a.positions, 7, CUSP_DELTA, CUSP_OFFSET_FLOOR
        )
        assert sorted(report["edges"]) == sorted(ref)
        for e, (angle, cusp) in ref.items():
            assert abs(report["edges"][e]["max_angle"] - angle) <= 1e-12
            assert report["edges"][e]["cusp"] is cusp
        assert report["cusp_edges"] == [e for e, (_, cusp) in ref.items() if cusp]
        angles = sorted((angle for angle, _ in ref.values()), reverse=True)
        worst = max(ref, key=lambda e: ref[e][0])
        if len(angles) < 2 or angles[0] - angles[1] > 1e-12:
            assert report["worst_edge"] == worst
        else:  # roundoff-level angles: any edge within the tolerance is worst
            assert ref[report["worst_edge"]][0] >= angles[0] - 1e-12


def test_adapted_branch_verdicts_match_the_reference():
    nets = [quadric_net(3), SADDLE] + [
        random_net(np.random.default_rng(seed)) for seed in (3, 7, 11)
    ]
    checked = {"patch": 0, "none": 0}
    for a in nets:
        for f in range(a.graph.face_count):
            frame = a.face_frame(f)
            x, x1, x2, x12 = (a.positions[v] for v in frame.corners)
            lines = frame.h_lines
            for lam in (0.8, -0.8, 2.5, -2.5):
                hb = hyperboloid_from_parameter(frame, lam)
                swapped = FaceHyperboloid(
                    face=hb.face, frame=hb.frame, q1=hb.q2, q2=hb.q1,
                    P1=hb.P2, P2=hb.P1,
                )
                for candidate in (hb, swapped):
                    winners = [
                        oracles.reference_branches(
                            lines[0], lines[1], candidate.q1,
                            ((x, x2), (x1, x12)), lines[2:],
                        ),
                        oracles.reference_branches(
                            lines[2], lines[3], candidate.q2,
                            ((x, x1), (x2, x12)), lines[:2],
                        ),
                    ]
                    failing = [k + 1 for k, w in enumerate(winners) if len(w) != 1]
                    if failing:
                        with pytest.raises(NoAdaptedPatch) as err:
                            restrict_to_patch(candidate, frame, a.positions)
                        assert err.value.data["family"] == failing[0]
                        checked["none"] += 1
                    else:
                        patch = restrict_to_patch(candidate, frame, a.positions)
                        assert patch.ruling1.branch == winners[0][0]
                        assert patch.ruling2.branch == winners[1][0]
                        checked["patch"] += 1
    assert min(checked.values()) > 10


@pytest.mark.parametrize(
    "far_line, error, message",
    [  # a parallel and a skew partner of the x axis
        ([[0, 1, 0], [1, 1, 0]], NumericallyInfinitePoint, r"^sample \(.*\) of face 1"),
        ([[0, 0, 1], [0, 1, 1]], SkewLines, r"^edge \d+: lines are skew"),
    ],
)
def test_c1_report_raises_where_a_sides_rulings_do_not_meet(far_line, error, message):
    a = graph_surface_pair(x_second=1.6, z_scale=1.6)
    patches = bilinear_patches(a)
    pts = hom(np.array([[0, 0, 0], [1, 0, 0], *far_line], dtype=float))
    lines = (line_from_points(pts[0], pts[1]), line_from_points(pts[2], pts[3]))
    patches[1] = HyperboloidPatch(
        face=1,
        frame=patches[1].frame,
        ruling1=lambda t: lines[0],
        ruling2=lambda s: lines[1],
        corner_map={},
    )
    with pytest.raises(error, match=message):
        check_c1(patches, a)

"""Tests of the Pluecker line geometry core."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypnet import plucker as pl
from hypnet.errors import CoincidentLines, CoincidentPoints, SkewLines, ZeroSpan

import oracles

ORIGIN = np.array([0.0, 0.0, 0.0, 1.0])
EX = np.array([1.0, 0.0, 0.0, 1.0])
EY = np.array([0.0, 1.0, 0.0, 1.0])
EZ = np.array([0.0, 0.0, 1.0, 1.0])


def ruling(a):
    """Ruling x = a of the quadric z = x*y."""
    return pl.line_from_points(
        np.array([a, 0.0, 0.0, 1.0]), np.array([a, 1.0, a, 1.0])
    )


# --- product and constructors -------------------------------------------


def test_product_of_basis_lines():
    a = np.array([1.0, 0, 0, 0, 0, 0])
    b = np.array([0.0, 0, 0, 1, 0, 0])
    assert pl.plucker_product(a, b) == 1.0
    assert pl.plucker_product(a, a) == 0.0


def test_product_signature_is_3_3():
    gram = pl.METRIC
    sig = pl.signature_of_gram(gram)
    assert sig == (3, 3, 0)


def test_axis_lines_frozen_values():
    hx = pl.line_from_points(ORIGIN, EX)
    hy = pl.line_from_points(ORIGIN, EY)
    assert np.allclose(hx, [0, 0, -1, 0, 0, 0])
    assert np.allclose(hy, [0, 0, 0, 0, 1, 0])
    assert pl.plucker_product(hx, hy) == pytest.approx(0.0, abs=1e-15)


def test_line_from_points_unit_norm_and_antisymmetry():
    rng = np.random.default_rng(7)
    for _ in range(25):
        x = pl.hom(rng.normal(size=3))
        y = pl.hom(rng.normal(size=3))
        h = pl.line_from_points(x, y)
        assert np.linalg.norm(h) == pytest.approx(1.0)
        assert np.allclose(pl.line_from_points(y, x), -h)
        assert abs(pl.plucker_product(h, h)) < 1e-14


def test_coincident_points_rejected():
    with pytest.raises(CoincidentPoints):
        pl.line_from_points(ORIGIN, 2.0 * ORIGIN)


def test_stacked_lines_products_and_signatures_equal_single_calls():
    rng = np.random.default_rng(13)
    x = pl.hom(rng.normal(size=(6, 5, 3)) * 10.0 ** rng.uniform(-2, 2, (6, 5, 1)))
    y = pl.hom(rng.normal(size=(6, 5, 3)))
    lines = pl.line_from_points(x, y)
    assert lines.shape == (6, 5, 6)
    products = pl.plucker_product(lines[:, :-1], lines[:, 1:])
    grams = rng.normal(size=(6, 3, 3))
    signatures = pl.signature_of_gram(grams, 0.5)
    for i in range(6):
        for j in range(5):
            single = pl.line_from_points(x[i, j], y[i, j])
            np.testing.assert_array_equal(lines[i, j], single)
        for j in range(4):
            assert products[i, j] == pl.plucker_product(lines[i, j], lines[i, j + 1])
        assert tuple(signatures[i]) == pl.signature_of_gram(grams[i], 0.5)
    y[3, 2] = 2.0 * x[3, 2]
    y[4, 0] = x[4, 0]
    with pytest.raises(CoincidentPoints) as exc:
        pl.line_from_points(x, y)
    assert str(exc.value) == f"points {x[3, 2]} and {y[3, 2]} do not span a line"


def test_line_matches_exact_minors():
    rng = np.random.default_rng(11)
    for _ in range(50):
        x, y = oracles.random_line(rng)
        exact = oracles.float_line((x, y))
        xf = np.array([float(c) for c in x])
        yf = np.array([float(c) for c in y])
        got = pl.line_from_points(xf, yf)
        assert oracles.proj_distance(got, exact) < 1e-10


def test_incidence_matrix_annihilates_the_span():
    rng = np.random.default_rng(3)
    for _ in range(50):
        x, y = oracles.random_line(rng)
        xf = np.array([float(c) for c in x])
        yf = np.array([float(c) for c in y])
        h = pl.line_from_points(xf, yf)
        m = pl.incidence_matrix(h)
        assert np.linalg.norm(m @ xf) < 1e-10 * np.linalg.norm(xf)
        assert np.linalg.norm(m @ yf) < 1e-10 * np.linalg.norm(yf)
        combo = 0.3 * xf - 1.7 * yf
        assert np.linalg.norm(m @ combo) < 1e-9 * np.linalg.norm(combo)


# --- intersections ----------------------------------------------------------


def test_intersect_axes_at_origin():
    hx = pl.line_from_points(ORIGIN, EX)
    hy = pl.line_from_points(ORIGIN, EY)
    p = pl.intersect_lines(hx, hy)
    assert oracles.proj_distance(p, ORIGIN) < 1e-10


def test_intersect_recovers_exact_common_point():
    rng = np.random.default_rng(13)
    for _ in range(50):
        (x1, y1), (x2, y2), _ = oracles.line_pair(rng, intersecting=True)
        a = pl.normalized(oracles.float_line((x1, y1)))
        b = pl.normalized(oracles.float_line((x2, y2)))
        p = pl.intersect_lines(a, b)
        common = np.array([float(c) for c in x1])
        assert oracles.proj_distance(p, common) < 1e-8


def test_skew_lines_rejected():
    hx = pl.line_from_points(ORIGIN, EX)
    shifted = pl.line_from_points(
        np.array([0.0, 0.0, 1.0, 1.0]), np.array([0.0, 1.0, 1.0, 1.0])
    )
    with pytest.raises(SkewLines):
        pl.intersect_lines(hx, shifted)


def test_coincident_lines_rejected():
    hx = pl.line_from_points(ORIGIN, EX)
    with pytest.raises(CoincidentLines):
        pl.intersect_lines(hx, -hx)


# --- subspaces ---------------------------------------------------------------


def test_span_of_pencil_is_isotropic():
    # three lines through the origin inside the plane z = 0
    lines = [
        pl.line_from_points(ORIGIN, pl.hom([np.cos(t), np.sin(t), 0.0]))
        for t in (0.1, 0.9, 2.2)
    ]
    s = pl.span(lines)
    assert s.dim == 1
    assert s.signature == (0, 0, 2)


def test_span_of_skew_quad_edges():
    quad = [
        np.array([0.0, 0, 0]),
        np.array([1.0, 0, 0]),
        np.array([1.0, 1, 1]),
        np.array([0.0, 1, 0]),
    ]
    hp = [pl.hom(q) for q in quad]
    edges = [pl.line_from_points(hp[i], hp[(i + 1) % 4]) for i in range(4)]
    s = pl.span(edges)
    assert s.dim == 3
    assert s.signature == (2, 2, 0)


def test_zero_span():
    with pytest.raises(ZeroSpan):
        pl.span([np.zeros(6), np.zeros(6)])
    # generators below the absolute floor 1e-14 span nothing either
    with pytest.raises(ZeroSpan):
        pl.span([np.full(6, 1e-15), np.zeros(6)])
    assert pl.span([np.full(6, 1e-13), np.zeros(6)]).dim == 0


# --- regulus orientation ------------------------------------------------------


def test_orientation_of_quadric_rulings_frozen():
    h = [ruling(a) for a in (0.0, 1.0, 2.0)]
    assert oracles.regulus_orientation(*h) == 1
    sig = pl.span(h).signature
    assert sig == (1, 2, 0)


def test_orientation_of_other_family_is_opposite():
    def other(b):
        return pl.line_from_points(
            np.array([0.0, b, 0.0, 1.0]), np.array([1.0, b, b, 1.0])
        )

    h = [other(b) for b in (0.0, 1.0, 2.0)]
    assert oracles.regulus_orientation(*h) == -1
    assert pl.span(h).signature == (2, 1, 0)


def test_orientation_invariances():
    h = [ruling(a) for a in (0.3, 1.1, 2.4)]
    base = oracles.regulus_orientation(*h)
    assert oracles.regulus_orientation(h[2], h[0], h[1]) == base
    assert oracles.regulus_orientation(-h[0], h[1], -h[2]) == base


def test_orientation_sign_matches_eigen_inertia():
    rng = np.random.default_rng(37)
    for _ in range(50):
        lines = []
        while len(lines) < 3:
            cand = pl.line_from_points(
                pl.hom(rng.normal(size=3) * 2), pl.hom(rng.normal(size=3) * 2)
            )
            if all(
                abs(pl.plucker_product(cand, p)) > 1e-3 for p in lines
            ):
                lines.append(cand)
        s = pl.span(lines)
        got = oracles.regulus_orientation(*lines)
        assert s.signature in ((1, 2, 0), (2, 1, 0))
        assert got == (1 if s.signature == (1, 2, 0) else -1)


# --- helpers -------------------------------------------------------------------


def test_canonical_sign():
    v = np.array([0.0, -3.0, 1.0, 0.0, 0.0, 0.0])
    c = pl.canonical(v)
    assert c[1] > 0
    assert np.allclose(pl.canonical(-v), c)


def test_canonical_of_a_stack_equals_each_rows_own_call():
    rng = np.random.default_rng(19)
    rows = rng.normal(size=(4, 50, 6)) * 10.0 ** rng.uniform(-3, 3, (4, 50, 1))
    stacked = pl.canonical(rows)
    for v, c in zip(rows.reshape(-1, 6), stacked.reshape(-1, 6)):
        u = v / np.linalg.norm(v)
        expected = -u if u[np.argmax(np.abs(u))] < 0 else u
        np.testing.assert_array_equal(c, expected)
        np.testing.assert_array_equal(pl.canonical(v), expected)
    rows[2, 7] = 0.0
    with pytest.raises(ValueError):
        pl.canonical(rows)


def test_contact_element_validity():
    # the pencil of lines through the origin inside the plane z = 0
    point, plane = ORIGIN, np.array([0.0, 0.0, 1.0, 0.0])
    pencil = pl.span(
        [
            pl.line_from_points(ORIGIN, EX),
            pl.line_from_points(ORIGIN, EY),
        ]
    )
    assert abs(plane @ point) < 1e-8
    assert pencil.signature == (0, 0, 2)
    for row in pencil.basis:
        assert np.linalg.norm(pl.incidence_matrix(row) @ point) < 1e-8
        assert np.linalg.norm(oracles.skew_matrix(row) @ plane) < 1e-8


# --- property tests ---------------------------------------------------------------

coord = st.integers(min_value=-50, max_value=50)
point = st.tuples(coord, coord, coord)


@settings(max_examples=60, deadline=None)
@given(point, point, point, point)
def test_product_symmetry_property(a, b, c, d):
    pa, pb, pc, pd = (pl.hom(np.array(p, dtype=float)) for p in (a, b, c, d))
    try:
        h1 = pl.line_from_points(pa, pb)
        h2 = pl.line_from_points(pc, pd)
    except CoincidentPoints:
        return
    assert pl.plucker_product(h1, h2) == pytest.approx(
        pl.plucker_product(h2, h1), abs=1e-12
    )
    assert abs(pl.plucker_product(h1, h1)) < 1e-12


@settings(max_examples=60, deadline=None)
@given(point, point, point)
def test_intersection_iff_product_vanishes_property(a, b, c):
    # two edges out of a common point always intersect there
    pa, pb, pc = (pl.hom(np.array(p, dtype=float)) for p in (a, b, c))
    try:
        h1 = pl.line_from_points(pa, pb)
        h2 = pl.line_from_points(pa, pc)
    except CoincidentPoints:
        return
    assert abs(pl.plucker_product(h1, h2)) < 1e-12
    try:
        meet = pl.intersect_lines(h1, h2)
    except CoincidentLines:
        return
    assert oracles.proj_distance(meet, pa) < 1e-7


# --- stacked meets ----------------------------------------------------------------


def meeting_pairs(triples):
    """Unit line pairs through a common point, from integer point triples."""
    pairs = []
    for common, p, q in triples:
        pc, pp, pq = (pl.hom(np.array(v, dtype=float)) for v in (common, p, q))
        try:
            pairs.append((pl.line_from_points(pc, pp), pl.line_from_points(pc, pq)))
        except CoincidentPoints:
            continue
    return pairs


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(point, point, point), min_size=1, max_size=12))
def test_stacked_meets_equal_single_pair_meets_property(triples):
    pairs = meeting_pairs(triples)
    singles = []
    for a, b in pairs:
        try:
            singles.append(pl.intersect_lines(a, b))
        except CoincidentLines:
            return
    if not pairs:
        return
    stacked = pl.intersect_lines(
        np.array([a for a, _ in pairs]), np.array([b for _, b in pairs])
    )
    assert stacked.shape == (len(pairs), 4)
    assert np.max(np.abs(stacked - np.array(singles))) <= 1e-14


def five_meeting_pairs():
    rng = np.random.default_rng(5)
    pairs = []
    for _ in range(5):
        (x1, y1), (x2, y2), _ = oracles.line_pair(rng, intersecting=True)
        pairs.append((oracles.float_line((x1, y1)), oracles.float_line((x2, y2))))
    return np.array([a for a, _ in pairs]), np.array([b for _, b in pairs])


def test_a_skew_row_raises_with_its_index():
    a, b = five_meeting_pairs()
    hx = pl.line_from_points(ORIGIN, EX)
    b[3] = pl.line_from_points(np.array([0.0, 0.0, 1.0, 1.0]), EY + EZ - ORIGIN)
    a[3] = hx
    with pytest.raises(SkewLines, match=r"^pair 3: lines are skew"):
        pl.intersect_lines(a, b)


def test_a_coincident_row_raises_with_its_index():
    a, b = five_meeting_pairs()
    b[1] = -a[1]
    b[3] = pl.line_from_points(ORIGIN, EX)  # a later skew row is not reported
    with pytest.raises(CoincidentLines, match=r"^pair 1: lines coincide"):
        pl.intersect_lines(a, b)
    with pytest.raises(CoincidentLines, match=r"^pair \(0, 1\): "):
        pl.intersect_lines(a[:4].reshape(2, 2, 6), b[:4].reshape(2, 2, 6))


def test_single_pairs_keep_their_shapes_and_messages():
    hx = pl.line_from_points(ORIGIN, EX)
    hy = pl.line_from_points(ORIGIN, EY)
    assert pl.intersect_lines(hx, hy).shape == (4,)
    assert pl.intersect_lines(hx[None], hy).shape == (1, 4)
    with pytest.raises(CoincidentLines, match=r"^lines coincide"):
        pl.intersect_lines(hx, 2.0 * hx)
    with pytest.raises(ValueError):
        pl.intersect_lines(np.array([hx, np.zeros(6)]), hy)


def test_stacked_incidence_matrices_match_the_skew_matrix_rule():
    h = np.random.default_rng(9).normal(size=(3, 2, 6))
    stacked = pl.incidence_matrix(h)
    assert stacked.shape == (3, 2, 4, 4)
    for index in np.ndindex(3, 2):
        expected = oracles.skew_matrix(oracles.dual_coordinates(h[index]))
        assert np.array_equal(stacked[index], expected)

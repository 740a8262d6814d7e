"""Independent exact-arithmetic oracles used by the test suite.

Everything in here is written directly from the definitions (2x2 minors,
wedge expansions, exhaustive search) without importing package internals,
so agreement with the package is meaningful evidence of correctness.  The
propagation and quad graph oracles raise the package's public exception
classes, so that first offenders can be compared; the propagation oracle
reads its frames through the one-face ``ANet.face_frame``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

# storage order of line coordinates: indices into (x, y, z, w)
MINOR_INDEX = ((0, 1), (0, 2), (0, 3), (2, 3), (3, 1), (1, 2))


def exact_line(x, y):
    """Exact minors of the line through two rational homogeneous points."""
    return tuple(x[i] * y[j] - x[j] * y[i] for i, j in MINOR_INDEX)


def exact_product(a, b):
    """Exact Pluecker product in the storage order (rational arithmetic)."""
    return (
        a[0] * b[3] + a[1] * b[4] + a[2] * b[5]
        + a[3] * b[0] + a[4] * b[1] + a[5] * b[2]
    )


def exact_point_on_line(p, x, y):
    """Whether p lies on the line through x and y: all 3x3 minors vanish."""
    m = [list(x), list(y), list(p)]
    for cols in ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)):
        det = _det3([[row[c] for c in cols] for row in m])
        if det != 0:
            return False
    return True


def _det3(m):
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def exact_det4(rows):
    """Exact 4x4 determinant by Laplace expansion along the first row."""
    total = 0
    for j in range(4):
        minor = [
            [rows[i][k] for k in range(4) if k != j] for i in range(1, 4)
        ]
        sign = -1 if j % 2 else 1
        total += sign * rows[0][j] * _det3(minor)
    return total


def rational_point(rng, span=6, denominator=5):
    """Random finite rational homogeneous point with w = 1."""
    num = rng.integers(-span * denominator, span * denominator + 1, size=3)
    return tuple(Fraction(int(n), denominator) for n in num) + (Fraction(1),)


def random_line(rng):
    """A random rational line given by two distinct sample points."""
    while True:
        x = rational_point(rng)
        y = rational_point(rng)
        if any(c != 0 for c in exact_line(x, y)):
            return x, y


def line_pair(rng, intersecting):
    """Two rational lines, sharing a point iff ``intersecting``.

    Skew pairs are drawn with a normalized product margin above 1e-6 so
    floating point classification has room to agree with the oracle.
    """
    while True:
        if intersecting:
            common = rational_point(rng)
            x1, y1 = common, rational_point(rng)
            x2, y2 = common, rational_point(rng)
        else:
            x1, y1 = random_line(rng)
            x2, y2 = random_line(rng)
        try:
            a = exact_line(x1, y1)
            b = exact_line(x2, y2)
        except ZeroDivisionError:  # pragma: no cover
            continue
        if not any(c != 0 for c in a) or not any(c != 0 for c in b):
            continue
        prod = exact_product(a, b)
        if intersecting:
            if prod != 0:  # pragma: no cover - construction guarantees 0
                continue
            # distinct lines only
            af = np.array([float(c) for c in a])
            bf = np.array([float(c) for c in b])
            cos = abs(af @ bf) / (np.linalg.norm(af) * np.linalg.norm(bf))
            if cos > 1.0 - 1e-6:
                continue
            return (x1, y1), (x2, y2), prod
        if prod == 0:
            continue
        af = np.array([float(c) for c in a])
        bf = np.array([float(c) for c in b])
        margin = abs(float(prod)) / (np.linalg.norm(af) * np.linalg.norm(bf))
        if margin > 1e-6:
            return (x1, y1), (x2, y2), prod


def float_line(pair):
    """Unnormalized float coordinate vector of a rational two-point line."""
    x, y = pair
    return np.array([float(c) for c in exact_line(x, y)])


def fit_plane_residual(points):
    """Max distance of points to their best-fit affine plane (SVD oracle)."""
    pts = np.asarray(points, dtype=float)
    center = pts.mean(axis=0)
    _, _, vt = np.linalg.svd(pts - center)
    normal = vt[-1]
    return float(np.max(np.abs((pts - center) @ normal)))


def skew_matrix(h):
    """Antisymmetric 4x4 matrix ``P`` with ``P[i, j] = p_ij``.

    For a line ``h = x ^ y`` this equals ``x y^T - y x^T``; its column
    space is the set of points on the line, and ``P @ e`` is the point
    where the line pierces the plane with covector ``e`` (zero when the
    line lies in that plane).
    """
    p01, p02, p03, p23, p31, p12 = np.asarray(h, dtype=float)
    return np.array(
        [
            [0.0, p01, p02, p03],
            [-p01, 0.0, p12, -p31],
            [-p02, -p12, 0.0, p23],
            [-p03, p31, -p23, 0.0],
        ]
    )


def dual_coordinates(h):
    """Swap the two coordinate triples (line as plane-pair intersection)."""
    h = np.asarray(h, dtype=float)
    return np.concatenate([h[3:], h[:3]])


def in_span(basis, v, tol=1e-9):
    """Whether the direction of ``v`` lies in the row span of the
    orthonormal ``basis``: the residue of its unit vector after
    orthogonal projection is below ``tol``."""
    basis = np.asarray(basis, dtype=float)
    u = np.asarray(v, dtype=float) / np.linalg.norm(v)
    return float(np.linalg.norm(u - basis.T @ (basis @ u))) < tol


def proj_distance(a, b):
    """Distance of projective points: min over signs of |ua -+ ub|."""
    ua, ub = (np.asarray(v, dtype=float) / np.linalg.norm(v) for v in (a, b))
    return min(float(np.linalg.norm(ua - ub)), float(np.linalg.norm(ua + ub)))


def regulus_orientation(h0, h1, h2):
    """Orientation (+1 or -1) of the regulus through three skew lines.

    The sign of the Gram determinant ``2 <h0,h1> <h0,h2> <h1,h2>`` of
    their unit vectors: positive when the three lines span a plane of
    signature (1, 2), negative for (2, 1).  It does not depend on the
    order or the signs of the inputs.  ``ValueError`` when some pair is
    not skew (normalized product below 1e-10).
    """
    u = [np.asarray(h, dtype=float) / np.linalg.norm(h) for h in (h0, h1, h2)]
    products = [_pairing(u[i], u[j]) for i, j in ((0, 1), (0, 2), (1, 2))]
    if min(abs(p) for p in products) < 1e-10:
        raise ValueError(f"lines are not pairwise skew: products {products}")
    return 1 if math.prod(products) > 0 else -1


def reference_polar(lines, sig):
    """``(basis, signature)`` of the polar of the span of ``lines``: the
    null space of that span's rows mapped through the Pluecker form,
    read like :func:`reference_span` at the cutoff ``sig``."""
    span_basis, _ = reference_span(lines, 1e-10, sig)
    _, _, vt = np.linalg.svd(span_basis @ _METRIC)
    return reference_span(vt[len(span_basis):], 1e-10, sig)


def reference_axis(frame):
    """``(basis, signature)`` of a face's axis, the polar of the span of
    its edge lines, read with the frame's signature cutoff."""
    return reference_polar(frame.h_lines, frame.sig_eps)


def family_parameter_of(frame, q):
    """Coordinate ``lam`` with ``q`` proportional to ``g1 + lam g2`` on
    the face's sign-fixed unit diagonals, by least squares;
    ``DegenerateParameter`` for a point (numerically) on the second
    diagonal, whose coordinate is infinite."""
    from hypnet.errors import DegenerateParameter

    basis = np.stack([_sign_fixed(d) for d in frame.diagonals], axis=1)
    u = np.asarray(q, dtype=float) / np.linalg.norm(q)
    (alpha, beta), *_ = np.linalg.lstsq(basis, u, rcond=None)
    if abs(alpha) < 1e-12 * math.hypot(alpha, beta):
        raise DegenerateParameter("point on the second diagonal", face=frame.face)
    return float(beta / alpha)


def reference_bilinear_parameter(frame, positions):
    """Family coordinate of the bilinear interpolant of a face's corners
    by the span route: the first-family edge lines and the line joining
    the midpoints of the two second-family edges span the first-family
    ruling plane, which meets the face's axis in the family's plane
    point, the axis direction whose residue after projection onto the
    plane is smallest."""
    x, x1, x2, x12 = (np.append(positions[v], 1.0) for v in frame.corners)
    mid = _reference_join(0.5 * (x + x2), 0.5 * (x1 + x12))
    lines = np.vstack([frame.h_lines[:2], mid])
    plane, _ = reference_span(lines, 1e-10, frame.sig_eps)
    axis, _ = reference_axis(frame)
    residue = axis.T - plane.T @ (plane @ axis.T)
    _, _, vt = np.linalg.svd(residue, full_matrices=False)
    return family_parameter_of(frame, axis.T @ vt[-1])


def family_of_edge(frame, e) -> int:
    """1 or 2 according to which role pair of ``frame`` edge ``e`` is in."""
    return 1 + list(frame.h_edges).index(e) // 2


def ruling_planes(hb):
    """``((basis, signature), (basis, signature))`` of the ruling planes
    ``span(first family, q1)`` and ``span(second family, q2)`` of a
    labeled pair, read with its frame's signature cutoff."""
    lines = hb.frame.h_lines
    return tuple(
        reference_span(np.vstack([family, q]), 1e-10, hb.frame.sig_eps)
        for family, q in ((lines[:2], hb.q1), (lines[2:], hb.q2))
    )


def tangency_residual(a, b, shared_edge):
    """How far two neighboring face quadrics are from tangency along an edge.

    For each pair of corresponding ruling planes (matched by the family
    role the shared edge plays in each frame), the stacked plane bases
    together with the shared edge line must span at most four
    dimensions; returns the worst fifth-singular-value ratio.
    """
    fam_a = family_of_edge(a.frame, shared_edge)
    fam_b = family_of_edge(b.frame, shared_edge)
    (a1, _), (a2, _) = ruling_planes(a)
    (b1, _), (b2, _) = ruling_planes(b)
    if fam_a == fam_b:
        pairs = ((a1, b1), (a2, b2))
    else:
        pairs = ((a1, b2), (a2, b1))
    shared = a.frame.line_of_edge(shared_edge)
    shared = shared / np.linalg.norm(shared)
    worst = 0.0
    for pa, pb in pairs:
        stacked = np.vstack([pa, pb, shared])
        s = np.linalg.svd(stacked, compute_uv=False)
        worst = max(worst, float(s[4] / s[0]))
    return worst


def _pairing(a, b):
    """Pluecker pairing of float 6-vectors (restated for independence)."""
    return float(a[:3] @ b[3:] + a[3:] @ b[:3])


def _into_polar(v, h):
    """Component of ``v`` lying in the polar hyperplane of the line ``h``."""
    w = np.concatenate([h[3:], h[:3]])
    return v - (_pairing(v, h) / _pairing(w, h)) * w


def random_projection_setup(rng):
    """Random admissible input for a line-space central projection.

    Returns ``(center, target, q, qprime)``: two unit line vectors whose
    normalized pairing is bounded away from zero, and a polar pair
    ``<q, qprime> = 0`` of unit vectors in the polar hyperplane of
    ``center``, neither proportional to ``center``.
    """
    while True:
        center = float_line(random_line(rng))
        center = center / np.linalg.norm(center)
        target = float_line(random_line(rng))
        target = target / np.linalg.norm(target)
        if abs(_pairing(center, target)) > 0.05:
            break
    while True:
        q = _into_polar(rng.standard_normal(6), center)
        if np.linalg.norm(q) > 0.1:
            q = q / np.linalg.norm(q)
            break
    while True:
        raw = _into_polar(rng.standard_normal(6), center)
        corrector = _into_polar(np.concatenate([q[3:], q[:3]]), center)
        denom = _pairing(corrector, q)
        if abs(denom) < 1e-3:
            continue
        qprime = raw - (_pairing(raw, q) / denom) * corrector
        if np.linalg.norm(qprime) > 1e-3:
            qprime = qprime / np.linalg.norm(qprime)
            break
    return center, target, q, qprime


# --- per-point line meets and the walks built on them ------------------------------


def _direction_moment(h):
    """Direction ``Y - X`` and moment ``X x Y`` of the line through finite
    points ``X``, ``Y``, read off its stored minors (of each row of a
    stack of lines)."""
    h = np.asarray(h, dtype=float)
    return (
        np.stack([-h[..., 2], h[..., 4], -h[..., 3]], axis=-1),
        np.stack([h[..., 5], -h[..., 1], h[..., 0]], axis=-1),
    )


def reference_meet(a, b):
    """Affine common point of two intersecting finite lines, or ``None``
    when they are skew (normalized pairing above 1e-6) or parallel.

    Each line is its foot point ``d x m / |d|^2`` plus multiples of its
    direction; the parameter of the meet along ``a`` solves
    ``(x_a + t d_a - x_b) x d_b = 0``.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if abs(_pairing(a, b)) > 1e-6 * np.linalg.norm(a) * np.linalg.norm(b):
        return None
    (da, ma), (db, mb) = _direction_moment(a), _direction_moment(b)
    n = np.cross(da, db)
    if n @ n < 1e-18 * (da @ da) * (db @ db):
        return None
    xa = np.cross(da, ma) / (da @ da)
    xb = np.cross(db, mb) / (db @ db)
    t = np.cross(xb - xa, db) @ n / (n @ n)
    return xa + t * da


def reference_sample(ruling1, ruling2, n, m):
    """``(n, m, 3)`` grid of ``reference_meet(ruling1(t_i), ruling2(s_j))``."""
    return np.array(
        [
            [reference_meet(ruling1(t), ruling2(s)) for s in np.linspace(0, 1, m)]
            for t in np.linspace(0, 1, n)
        ]
    )


def _sign_fixed(v):
    """Unit vector whose first largest-magnitude component is positive."""
    u = np.asarray(v, dtype=float) / np.linalg.norm(v)
    return -u if u[np.argmax(np.abs(u))] < 0 else u


def reference_branches(h, h_opposite, q, segments, cross_lines):
    """Branches (+1, -1) of the ruling conic from ``h`` to ``h_opposite``
    through plane point ``q`` whose middle ruling crosses both
    ``segments`` ``(A, B)`` in their interiors, meeting each along the
    matching line of ``cross_lines``.

    The conic is ``(1-t)^2 h0 + c t^2 h1 + branch t(1-t) q`` on
    sign-fixed unit inputs, with ``c = -<q,q> / (2 <h0,h1>)`` making
    every point isotropic.
    """
    h0, h1, qh = _sign_fixed(h), _sign_fixed(h_opposite), _sign_fixed(q)
    c = -_pairing(qh, qh) / (2.0 * _pairing(h0, h1))
    winners = []
    for branch in (1, -1):
        mid = 0.25 * h0 + 0.25 * c * h1 + 0.25 * branch * qh
        inside = True
        for (A, B), cross in zip(segments, cross_lines):
            p = reference_meet(mid, cross)
            if p is None:
                inside = False
                break
            d = B - A
            u = (p - A) @ d / (d @ d)
            inside = inside and 0.0 < u < 1.0
        if inside:
            winners.append(branch)
    return winners


@dataclass(frozen=True, eq=False)
class ConicArc:
    """Rational quadratic arc of ruling lines between two edge lines.

    ``arc(t) = (1-t)^2 h0 + c t^2 h1 + branch t (1-t) q`` with the
    weight ``c`` chosen so that every point of the arc is isotropic,
    hence a real line.  ``branch`` selects one of the two complementary
    arcs of the conic through ``h0`` and ``h1``.
    """

    h0: np.ndarray
    h1: np.ndarray
    q: np.ndarray
    c: float
    branch: int

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        return (
            np.multiply.outer((1.0 - t) ** 2, self.h0)
            + np.multiply.outer(self.c * t**2, self.h1)
            + np.multiply.outer(self.branch * t * (1.0 - t), self.q)
        )


def conic_arc(h, h_opposite, q, branch):
    """Arc of the ruling conic from ``h`` to ``h_opposite`` through plane
    point ``q`` on the branch ``+1`` or ``-1``, on sign-fixed unit
    inputs.  Raises ``ValueError`` for another branch, for endpoint lines
    that intersect and for an isotropic ``q``."""
    if branch not in (1, -1):
        raise ValueError("branch must be +1 or -1")
    h0, h1, qh = _sign_fixed(h), _sign_fixed(h_opposite), _sign_fixed(q)
    pairing = _pairing(h0, h1)
    if abs(pairing) < 1e-10:
        raise ValueError(f"endpoint lines intersect: <h, h'> = {pairing:.3e}")
    s_q = _pairing(qh, qh)
    if abs(s_q) < 1e-10:
        raise ValueError("plane point is isotropic; the arc collapses")
    return ConicArc(h0=h0, h1=h1, q=qh, c=-s_q / (2.0 * pairing), branch=branch)


@dataclass(frozen=True, eq=False)
class ReferencePatch:
    """A carved patch as its two ruling arcs, met point by point."""

    face: int
    frame: object
    ruling1: ConicArc
    ruling2: ConicArc


def reference_patch(hb, positions):
    """The patch of ``hb`` over its quad by the two-branch search: per
    family the single branch of :func:`reference_branches`, or ``None``
    when some family has no branch or both."""
    frame = hb.frame
    x, x1, x2, x12 = (np.asarray(positions, dtype=float)[v] for v in frame.corners)
    lines = frame.h_lines
    families = (
        (lines[0], lines[1], hb.q1, ((x, x2), (x1, x12)), lines[2:]),
        (lines[2], lines[3], hb.q2, ((x, x1), (x2, x12)), lines[:2]),
    )
    arcs = []
    for h, h_opposite, q, segments, cross in families:
        winners = reference_branches(h, h_opposite, q, segments, cross)
        if len(winners) != 1:
            return None
        arcs.append(conic_arc(h, h_opposite, q, winners[0]))
    return ReferencePatch(frame.face, frame, *arcs)


def reference_c1_edges(patches, graph, positions, samples_per_edge, delta, floor):
    """Per shared edge ``(max_angle, cusp)`` by a walk over its samples.

    Each side maps an edge coordinate ``u`` to the parameter of its
    cross-family ruling through the fractional-linear schedule fitted to
    the edge coordinates of three ruling meets; the tangent plane is
    spanned by the edge and that ruling, and ``max_angle`` is the
    largest angle of :func:`reference_c1_angles` at the samples.  The
    fold probe meets the two families a parameter step ``delta`` into
    each patch at ``u + delta`` and flags offsets from the first side's
    plane that share a sign and exceed ``floor`` times the edge length.
    """
    pos = np.asarray(positions, dtype=float)
    u = (np.arange(samples_per_edge) + 1.0) / (samples_per_edge + 1.0)
    out = {}
    for e, (angle, _, _) in reference_c1_angles(patches, graph, positions, u).items():
        f1, f2 = graph.edge_faces[e].tolist()
        A, B = pos[graph.edges[e]]
        d = B - A
        sides = [_reference_side(patches[f], e, A, d) for f in (f1, f2)]
        cusp = False
        for x in u.tolist():
            n1 = sides[0]["normal"](x)
            base = A + x * d
            offsets = [n1 @ (side["probe"](x + delta, delta) - base) for side in sides]
            least = min(abs(offsets[0]), abs(offsets[1]))
            if offsets[0] * offsets[1] > 0 and least > floor * np.linalg.norm(d):
                cusp = True
        out[e] = (angle, cusp)
    return out


def reference_c1_angles(patches, graph, positions, u):
    """Per shared edge ``(max_angle, at, flips)``: the largest angle
    between the two sides' tangent planes at the edge coordinates ``u``
    (an array, or a dict of arrays by edge id), the coordinate where it
    is attained, and whether ``n1 . n2`` takes both signs there (the
    planes turn through a right angle).  Each side's normal is read from
    its cross-family ruling, as in :func:`reference_c1_edges`, at all
    points of an edge at once."""
    pos = np.asarray(positions, dtype=float)
    out = {}
    for e, (f1, f2) in enumerate(graph.edge_faces.tolist()):
        if f1 not in patches or f2 not in patches:
            continue
        A, B = pos[graph.edges[e]]
        d = B - A
        at = np.asarray(u[e] if isinstance(u, dict) else u, dtype=float)
        n1, n2 = (_reference_side(patches[f], e, A, d)["normal"](at) for f in (f1, f2))
        dots = np.sum(n1 * n2, axis=-1)
        angles = np.arctan2(np.linalg.norm(np.cross(n1, n2), axis=-1), np.abs(dots))
        k = int(np.argmax(angles))
        out[e] = (float(angles[k]), float(at[k]), bool(dots.min() < 0.0 < dots.max()))
    return out


def _reference_side(patch, e, A, d):
    role = list(patch.frame.h_edges).index(e)

    def params(sigma, into):
        into = into if role % 2 == 0 else 1.0 - into
        return (into, sigma) if role < 2 else (sigma, into)

    def point(sigma, into):
        t, s = params(sigma, into)
        return reference_meet(patch.ruling1(t), patch.ruling2(s))

    a, b, c = ((point(sigma, 0.0) - A) @ d / (d @ d) for sigma in (0.0, 0.5, 1.0))
    gamma = (2.0 * b - a - c) / (c - b)
    alpha = c * (gamma + 1.0) - a

    def sigma_at(u):
        return (u - a) / (alpha - u * gamma)

    def normal(u):
        cross = patch.ruling2 if role < 2 else patch.ruling1
        n = np.cross(d, _direction_moment(cross(sigma_at(u)))[0])
        return n / np.linalg.norm(n, axis=-1, keepdims=True)

    return {"normal": normal, "probe": lambda u, into: point(sigma_at(u), into)}


# --- the validation walk, one vertex, edge and face at a time ----------------------

# matrix of the Pluecker form in the storage order (restated for independence)
_METRIC = np.block([[np.zeros((3, 3)), np.eye(3)], [np.eye(3), np.zeros((3, 3))]])


def face_volume_ratio(positions, quad):
    """|det of edge span| normalized by cubed mean edge length."""
    p = [np.asarray(positions[v], dtype=float) for v in quad]
    det = np.linalg.det(np.array([p[1] - p[0], p[2] - p[0], p[3] - p[0]]))
    edges = [p[(k + 1) % 4] - p[k] for k in range(4)]
    scale = np.mean([np.linalg.norm(e) for e in edges])
    if scale == 0.0:
        return 0.0
    return abs(det) / scale**3


def reference_star_plane(points):
    """``(plane, residual, diameter)`` of one point cloud: the canonical
    covector of its best-fit plane, the largest distance from that plane
    and the largest pairwise distance."""
    pts = np.asarray(points, dtype=float)
    centroid = pts.mean(axis=0)
    centered = pts - centroid
    _, _, vt = np.linalg.svd(centered, full_matrices=True)
    normal = vt[-1]
    residual = float(np.max(np.abs(centered @ normal)))
    diffs = pts[:, None, :] - pts[None, :, :]
    diameter = float(np.sqrt(np.max(np.sum(diffs**2, axis=-1))))
    plane = _sign_fixed(np.append(normal, -normal @ centroid))
    return plane, residual, diameter


# --- the walk's kernels on row-major stacks -----------------------------------------
#
# ``hypnet.anet`` read its stars, pencils, edges and faces on row-major
# stacks (``(B, m, 3)`` for stars) before its kernels moved to
# coordinate-first arrays (``(3, m, B)``).  These are those kernels as
# they were: the star oracle's planes, residuals and diameters and the
# edge oracle's lines are the ones the walk must keep bit for bit.

# the entries (xx, yy, zz, xy, xz, yz) of a symmetric 3x3 matrix: their
# coordinate pairs, their 3x3 layout and the two products whose
# difference is each entry of the adjugate (restated for independence)
_SYM_PAIRS = np.array([[0, 1, 2, 0, 0, 1], [0, 1, 2, 1, 2, 2]])
_SYM = np.array([[0, 3, 4], [3, 1, 5], [4, 5, 2]])
_ADJ_TERMS = np.array([[1, 0, 0, 4, 3, 3], [2, 2, 1, 5, 5, 4],
                       [5, 4, 3, 3, 4, 0], [5, 4, 3, 2, 1, 5]])


def row_scatter_normals(centered):
    """Closed-form normals ``(B, 3)`` of centred clouds ``(B, m, 3)``,
    their residuals ``max |A n|`` and tilt bounds ``(B,)``: the largest
    adjugate column of each scatter, and the Davis-Kahan bound of
    ``hypnet.anet._scatter_normals``."""
    from hypnet.anet import _PENCIL_SLACK

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        s = (centered[..., _SYM_PAIRS[0]] * centered[..., _SYM_PAIRS[1]]).sum(axis=1)
        trace = s[:, 0] + s[:, 1] + s[:, 2]
        x = s[:, _ADJ_TERMS]
        adjugate = x[:, 0] * x[:, 1] - x[:, 2] * x[:, 3]
        columns = adjugate[:, _SYM]
        size = (columns * columns).sum(axis=2)
        k = size.argmax(axis=1)
        rows = np.arange(len(s))
        normal = columns[rows, k] / np.sqrt(size[rows, k])[:, None]
        moved = (s[:, _SYM] * normal[:, None, :]).sum(axis=2)
        rho = (moved * normal).sum(axis=1)
        miss = moved - rho[:, None] * normal
        slack = _PENCIL_SLACK * centered.shape[1] * trace
        gap = adjugate[:, :3].sum(axis=1) / trace - 2 * rho - slack
        tilt = 2 * (np.sqrt((miss * miss).sum(axis=1)) + slack) / np.maximum(gap, 0)
        residual = np.max(np.abs((centered @ normal[..., None])[..., 0]), axis=-1)
    return normal, residual, tilt


def row_star_plane(points, planar):
    """``hypnet.anet.star_plane`` on a row-major stack ``(B, m, 3)``:
    planes ``(B, 4)``, residuals and diameters ``(B,)``, the SVD reading
    the stars whose closed-form tilt exceeds ``hypnet.anet._STAR_TILT``
    (read at call time) or whose residual comes within 10x of the
    gate."""
    import hypnet.anet
    from hypnet.plucker import _rowdot, canonical

    stack = np.asarray(points, dtype=float)
    centroid = stack.mean(axis=1)
    centered = stack - centroid[:, None, :]
    _, exponent = np.frexp(np.abs(centered).max(axis=(1, 2), initial=0.0))
    scale = np.ldexp(1.0, -exponent)[:, None, None]
    i, j = np.triu_indices(stack.shape[1], 1)
    gaps = (stack[:, i] - stack[:, j]) * scale
    diameter = np.sqrt((gaps * gaps).sum(axis=-1).max(axis=1, initial=0.0))
    normal, residual, tilt = row_scatter_normals(centered * scale)
    diameter, residual = diameter / scale[:, 0, 0], residual / scale[:, 0, 0]
    settled = (tilt <= hypnet.anet._STAR_TILT) & (
        residual + 2 * tilt * diameter <= planar * diameter / 10
    )
    open_rows = np.flatnonzero(~settled)
    if open_rows.size:
        rest = centered[open_rows]
        _, _, vt = np.linalg.svd(rest, full_matrices=rest.shape[1] < 3)
        normal[open_rows] = vt[:, -1]
        lean = (rest @ vt[:, -1, :, None])[..., 0]
        residual[open_rows] = np.max(np.abs(lean), axis=-1)
    offset = _rowdot(-normal, centroid)[:, None]
    plane = np.concatenate([normal, offset], axis=-1)
    _, exponent = np.frexp(np.abs(plane).max(axis=-1))
    plane = canonical(plane * np.ldexp(1.0, -exponent)[:, None])
    return plane, residual, diameter


def row_pencil_bounds(lines):
    """``(s1_lo, s1_hi, s2_lo, s3_hi)`` of ``hypnet.anet._pencil_bounds``
    on a row-major stack of vector sets ``(B, k, n)``."""
    from hypnet.anet import _PENCIL_SLACK
    from hypnet.plucker import _rowdot

    sq = _rowdot(lines, lines)
    frob = np.sqrt(sq.sum(axis=1))
    slack = _PENCIL_SLACK * frob
    rows = np.arange(len(lines))
    a, a2 = lines[:, :1], sq[:, :1]
    with np.errstate(divide="ignore", invalid="ignore"):
        perp = lines - (_rowdot(lines, a) / a2)[..., None] * a
        p2 = _rowdot(perp, perp)
        j = p2.argmax(axis=1)
        b_perp, bp2 = perp[rows, j][:, None], p2[rows, j]
        rest = perp - (_rowdot(perp, b_perp) / bp2[:, None])[..., None] * b_perp
        s2_lo = np.sqrt(a2[:, 0] * bp2 / (a2[:, 0] + sq[rows, j])) - slack
    s1_lo = np.sqrt(sq.max(axis=1)) - slack
    s1_hi = frob + slack
    s3_hi = np.sqrt(_rowdot(rest, rest).sum(axis=1)) + slack
    return s1_lo, s1_hi, s2_lo, s3_hi


def row_certified_pencils(lines):
    """``hypnet.anet._certified_pencils`` on a row-major stack ``(B, k,
    n)``: the sets whose :func:`row_pencil_bounds` clear every cut of the
    rank-2 reading by 10x."""
    from hypnet.anet import PENCIL_RANK_TOL

    s1_lo, s1_hi, s2_lo, s3_hi = row_pencil_bounds(lines)
    return (
        (s1_lo >= 1e-13)
        & (s2_lo >= 10 * PENCIL_RANK_TOL * s1_hi)
        & (s3_hi <= PENCIL_RANK_TOL / 10 * s1_lo)
    )


def row_edge_lines(positions, edges):
    """Unit lines ``(E, 6)`` of ``edges`` ``(E, 2)`` as the walk's edge
    stage read them on row-major stacks: the minors of the homogeneous
    ends, unscaled, over the norm of their row; zero where that norm is
    zero."""
    from hypnet.plucker import _minors, _rowdot, hom

    pos = np.asarray(positions, dtype=float)
    h = _minors(hom(pos[edges[:, 0]]), hom(pos[edges[:, 1]]))
    norm = np.sqrt(_rowdot(h, h))
    with np.errstate(invalid="ignore"):
        return np.divide(h, norm[:, None], out=np.zeros_like(h), where=norm[:, None] > 0.0)


def row_face_volumes(positions, quads):
    """``(det, ratio, products)`` of quads ``(B, 4)`` as the walk's face
    stage read them on row-major stacks: ``det`` the global determinant
    ``det(c1 - c0, c2 - c0, c3 - c0)`` from LAPACK, ``ratio`` its
    magnitude over the cubed mean global side length, and the products
    of the pairs (0, 2) and (1, 3) read in face-local units from that
    determinant and the global sides."""
    from hypnet.plucker import _rowdot

    p = np.asarray(positions, dtype=float)[quads]
    det = np.linalg.det(p[:, 1:] - p[:, :1])
    edges = np.roll(p, -1, axis=1) - p
    squares = _rowdot(edges, edges)
    scale = np.mean(np.sqrt(squares), axis=-1)
    ratio = np.divide(np.abs(det), np.float_power(scale, 3),
                      out=np.zeros_like(det), where=scale != 0.0)
    x = np.ascontiguousarray(p.T)
    x -= ((x[:, 0] + x[:, 1] + x[:, 2] + x[:, 3]) / 4)[:, None]
    radii = x[0] * x[0] + x[1] * x[1] + x[2] * x[2]
    unit = radii.max(axis=0)
    flip = quads.T > quads.T[[1, 2, 3, 0]]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        inv = 1.0 / np.sqrt(unit)
        x *= inv
        e = edges.T * inv
        along = x[0] * e[0] + x[1] * e[1] + x[2] * e[2]
        norms = np.sqrt(squares.T / unit * (1.0 + radii / unit) - along * along)
        volume = det * inv * inv * inv
        products = np.stack([
            np.where(flip[0] == flip[2], -volume, volume) / (norms[0] * norms[2]),
            np.where(flip[1] == flip[3], volume, -volume) / (norms[1] * norms[3]),
        ], axis=1)
    return det, ratio, products


def _reference_join(x, y):
    """Unit minors of the line through homogeneous points, or ``None``
    when they vanish relative to the points."""
    h = np.array([x[i] * y[j] - x[j] * y[i] for i, j in MINOR_INDEX])
    norm = np.linalg.norm(h)
    scale = np.linalg.norm(x) * np.linalg.norm(y)
    if scale == 0.0 or norm <= 1e-12 * scale:
        return None
    return h / norm


def reference_face_lines(positions, quad):
    """Unit lines of a quad's sides in cycle order, each oriented from
    its lower vertex id, in face-local coordinates: origin at the
    centroid of the corners, unit their largest distance from it;
    ``None`` for a side whose ends coincide."""
    p = np.array([positions[v] for v in quad], dtype=float)
    local = p - p.mean(axis=0)
    local /= max(np.linalg.norm(row) for row in local)
    lines = []
    for k in range(4):
        a, b = sorted((k, (k + 1) % 4), key=lambda c: quad[c])
        lines.append(_reference_join(np.append(local[a], 1.0), np.append(local[b], 1.0)))
    return lines


def reference_span(lines, rank_tol, sig):
    """``(basis, signature)`` of the span of ``lines``: sign-fixed
    orthonormal rows and the inertia of their Gram matrix, eigenvalues
    below ``sig`` times the largest (at least 1) counting as zero; an
    empty basis when every line is numerically zero."""
    _, s, vt = np.linalg.svd(lines)
    if s[0] < 1e-14:
        return np.zeros((0, 6)), (0, 0, 0)
    rank = int(np.sum(s > rank_tol * s[0]))
    basis = np.array([_sign_fixed(row) for row in vt[:rank]])
    gram = basis @ _METRIC @ basis.T
    lam = np.linalg.eigvalsh(0.5 * (gram + gram.T))
    cut = sig * max(float(np.max(np.abs(lam))), 1.0)
    plus, minus = int(np.sum(lam > cut)), int(np.sum(lam < -cut))
    return basis, (plus, minus, len(lam) - plus - minus)


def _reference_unit_minors(x, y):
    """Minors of the line through homogeneous points over their norm;
    zero where they all vanish."""
    h = np.array([x[i] * y[j] - x[j] * y[i] for i, j in MINOR_INDEX])
    norm = np.linalg.norm(h)
    return h / norm if norm else h


def _reference_pencil(vertex, ends, lines, rank_tol, sig):
    """``(dim, signature)`` of the pencil of edge lines at ``vertex``,
    each from ``vertex`` to the point of ``ends`` in star-local
    coordinates (origin at the vertex), a zero line where the global
    line in ``lines`` is zero; ``(-1, (0, 0, 0))`` when every line is
    numerically zero."""
    local = np.zeros((len(ends), 6))
    for k, (end, line) in enumerate(zip(ends, lines)):
        if np.any(line):
            local[k] = _reference_unit_minors(np.array([0.0, 0, 0, 1]),
                                              np.append(end - vertex, 1.0))
    basis, signature = reference_span(local, rank_tol, sig)
    return len(basis) - 1, signature


def reference_walk(graph, positions, planar, sig, face_eps, rank_tol):
    """Every validation violation of a net, found one vertex, edge and
    face at a time, with the walk's arrays.

    Returns ``(violations, planes, residuals, diameters, edge_lines)``.
    ``violations`` lists ``(kind, data)`` in order: non-planar stars by
    ascending vertex, zero-length edges (no longer than 1e-12 times the
    larger diameter of their end stars) by ascending edge, per ascending
    face a degenerate face or else its opposite pairs (0, 2) and (1, 3)
    whose product, read on face-local lines
    (:func:`reference_face_lines`), falls below ``sig``, then vertex
    pencils that are not a rank-2 span of signature (0, 0, 2), read on
    star-local lines, by ascending vertex.  Unreferenced vertices keep
    NaN rows, zero-length edges zero lines.
    """
    pos = np.asarray(positions, dtype=float)
    n = len(pos)
    planes = np.full((n, 4), np.nan)
    residuals = np.full(n, np.nan)
    diameters = np.full(n, np.nan)
    lines = np.zeros((graph.edge_count, 6))
    found = []
    for v in range(n):
        if not graph.is_referenced(v):
            continue
        neighbors, _ = graph.vertex_star(v)
        planes[v], residuals[v], diameters[v] = reference_star_plane(
            pos[[v] + neighbors]
        )
        if residuals[v] > planar * diameters[v]:
            found.append(("non_planar_star", {
                "vertex": v, "residual": float(residuals[v]),
                "tolerance": planar * float(diameters[v]),
            }))
    for e, (u, v) in enumerate(graph.edges.tolist()):
        line = _reference_unit_minors(np.append(pos[u], 1.0), np.append(pos[v], 1.0))
        length = np.linalg.norm(pos[v] - pos[u])
        if length <= 1e-12 * max(diameters[u], diameters[v]) or not np.any(line):
            found.append(("non_generic_pair", {
                "edges": (e,), "vertices": (u, v), "reason": "zero-length edge",
            }))
        else:
            lines[e] = line
    for f in range(graph.face_count):
        ratio = face_volume_ratio(pos, graph.face_vertices[f])
        if ratio < face_eps:
            found.append(("degenerate_face", {"face": f, "ratio": float(ratio)}))
            continue
        edges = graph.face_edges[f].tolist()
        local = reference_face_lines(pos, graph.face_vertices[f].tolist())
        for a, b in ((0, 2), (1, 3)):
            prod = _pairing(local[a], local[b])
            if abs(prod) < sig:
                found.append(("non_generic_pair", {
                    "edges": (edges[a], edges[b]), "face": f, "product": prod,
                }))
    for v in range(n):
        if not graph.is_referenced(v):
            continue
        incident = [
            e for e, ends in enumerate(graph.edges.tolist()) if v in ends
        ]
        others = [sum(graph.edges[e].tolist()) - v for e in incident]
        dim, signature = _reference_pencil(
            pos[v], pos[others], lines[incident], rank_tol, sig
        )
        if dim != 1 or signature != (0, 0, 2):
            found.append(("non_generic_pair", {
                "vertex": v, "edges": tuple(incident[:2]),
                "pencil_signature": signature, "pencil_dim": dim,
            }))
    return found, planes, residuals, diameters, lines


# --- propagation by central projections in line space -----------------------------

#: the gates of the projection oracle, restated
PROJECTION_EPS = 1e-10


def reference_project(q, center, target):
    """Central projection of ``q`` through the line ``center`` into the
    polar hyperplane of the line ``target``, sign-fixed; raises
    ``ProjectionDegenerate`` when the center is polar to the target or
    the image vanishes."""
    from hypnet.errors import ProjectionDegenerate

    qh, hc, hf = (np.asarray(v, dtype=float) / np.linalg.norm(v)
                  for v in (q, center, target))
    den = _pairing(hc, hf)
    if abs(den) < PROJECTION_EPS:
        raise ProjectionDegenerate(f"center polar to target ({den:.3e})",
                                   product=den)
    image = qh - (_pairing(qh, hf) / den) * hc
    if np.linalg.norm(image) < 1e-12:
        raise ProjectionDegenerate("point is the center", product=den)
    return _sign_fixed(image)


@dataclass(frozen=True, eq=False)
class ReferencePair:
    """A labeled polar pair on a face's axis, built by the oracle."""

    face: int
    frame: object
    q1: np.ndarray
    q2: np.ndarray
    signatures: tuple


def face_local_map(positions, corners):
    """The 6x6 map of line coordinates into a face's local units: the
    second compound of the point map ``x -> (x - c) / u``, ``c`` the
    centroid of the corners and ``u`` their largest distance from it,
    so that it takes the join of two points to the join of their
    images."""
    p = np.array([positions[v] for v in corners], dtype=float)
    c = p.mean(axis=0)
    u = max(np.linalg.norm(row - c) for row in p)
    m = np.eye(4)
    m[:3, :3] /= u
    m[:3, 3] = -c / u
    return np.array([
        [m[i, k] * m[j, l] - m[i, l] * m[j, k] for k, l in MINOR_INDEX]
        for i, j in MINOR_INDEX
    ])


def reference_pair(frame, q1, q2, positions):
    """The pair ``(q1, q2)`` on ``frame``, a face of a net at
    ``positions``, after the checks of a member: self-products of
    opposite signs, then ruling planes that are not flat in face-local
    units.  There the pair's points, mapped by :func:`face_local_map`,
    must have unit self-products of magnitude at least the frame's
    signature cutoff, and the ruling planes ``span(first family, q1)``
    and ``span(second family, q2)``, mapped likewise, read signatures
    (2,1,0) and (1,2,0) in some order by the signs of their Gram
    eigenvalues; ``DegenerateParameter`` else."""
    from hypnet.errors import DegenerateParameter

    s1, s2 = _pairing(q1, q1), _pairing(q2, q2)
    if not s1 * s2 < 0.0:
        raise DegenerateParameter("pair does not split", face=frame.face)
    local = face_local_map(positions, frame.corners)
    lines = frame.h_lines @ local.T
    points = [local @ q for q in (q1, q2)]
    if min(abs(_pairing(q, q)) / (q @ q) for q in points) < frame.sig_eps:
        raise DegenerateParameter("ruling planes degenerate", face=frame.face)
    signatures = tuple(
        reference_span(np.vstack([family, q]), 1e-10, 0.0)[1]
        for family, q in ((lines[:2], points[0]), (lines[2:], points[1]))
    )
    if set(signatures) != {(2, 1, 0), (1, 2, 0)}:
        raise DegenerateParameter("ruling planes degenerate", face=frame.face)
    return ReferencePair(frame.face, frame, _sign_fixed(q1), _sign_fixed(q2), signatures)


def reference_member(frame, lam, positions):
    """The member ``g1 + lam g2`` of the face's family and its polar
    partner, as a checked :class:`ReferencePair`."""
    from hypnet.errors import DegenerateParameter

    if lam == 0.0 or not np.isfinite(lam):
        raise DegenerateParameter("isotropic parameter", face=frame.face)
    g1, g2 = (_sign_fixed(d) for d in frame.diagonals)
    q1 = _sign_fixed(g1 + lam * g2)
    den = _pairing(q1, g2)
    if abs(den) < 1e-12:
        raise DegenerateParameter("indeterminate partner", face=frame.face)
    return reference_pair(frame, q1, g1 - (_pairing(q1, g1) / den) * g2, positions)


def member(frame, lam, positions):
    """The member ``lam`` of the face family of ``frame``, on a net at
    ``positions``, as the package's stacked formation reads it for one
    face."""
    from hypnet.anet import FrameStack
    from hypnet.hyperboloid import _pairs

    return _pairs(positions, FrameStack.of([frame]), [float(lam)])[frame.face]


def propagate_face(hb, across, neighbor_frame, positions):
    """Transport a labeled pair across a shared edge by projecting both
    points through the shared edge line into the polar hyperplane of the
    neighbor's opposite edge; the labels swap exactly when the shared
    edge plays different family roles in the two frames."""
    center = hb.frame.line_of_edge(across)
    far = neighbor_frame.line_of_edge(neighbor_frame.opposite_in_family(across))
    t1 = reference_project(hb.q1, center, far)
    t2 = reference_project(hb.q2, center, far)
    same = family_of_edge(hb.frame, across) == family_of_edge(neighbor_frame, across)
    return reference_pair(neighbor_frame, *((t1, t2) if same else (t2, t1)), positions)


def reference_propagate(a, seed, lam):
    """Propagation of the member ``lam`` of face ``seed`` over the net
    ``a`` by vector projections, one face at a time.

    The frames are one-face ``a.face_frame`` calls with the dual BFS
    tree's entries.  Returns ``(pairs, report)`` like
    ``propagate_all``; raises ``OddVertexDegree``, ``DisconnectedMesh``,
    ``NonGenericPair``, ``DegenerateParameter``,
    ``ProjectionDegenerate`` or ``ClosureViolation`` at the first
    offender in that walk.
    """
    from hypnet.errors import ClosureViolation, OddVertexDegree

    g = a.graph
    even, offenders = g.interior_degrees_even()
    if not even:
        raise OddVertexDegree("odd interior degree", vertices=tuple(offenders))
    tree = g.dual_spanning_tree(seed)
    frames = {seed: a.face_frame(seed)}
    for face, _parent, shared in tree:
        side = g.face_edges[face].tolist().index(shared)
        frames[face] = a.face_frame(face, 4 * face + side)
    pairs = {seed: reference_member(frames[seed], lam, a.positions)}
    for face, parent, shared in tree:
        pairs[face] = propagate_face(pairs[parent], shared, frames[face], a.positions)
    residuals = {}
    tree_edges = {shared for _, _, shared in tree}
    for e, (f, h) in enumerate(g.edge_faces.tolist()):
        if f < 0 or h < 0 or e in tree_edges:
            continue
        image = propagate_face(pairs[min(f, h)], e, frames[max(f, h)], a.positions)
        held = pairs[max(f, h)]
        residuals[e] = max(proj_distance(image.q1, held.q1),
                           proj_distance(image.q2, held.q2))
    worst, worst_edge = 0.0, None
    for e, residual in residuals.items():
        if residual > worst:
            worst, worst_edge = residual, e
    report = {
        "seed_face": seed,
        "lambda": lam,
        "closure_residuals": residuals,
        "worst_closure_residual": worst,
        "worst_closure_edge": worst_edge,
        "face_signatures": {
            f: [list(sig) for sig in p.signatures] for f, p in sorted(pairs.items())
        },
    }
    if worst > a.tol.closure:
        raise ClosureViolation("routes disagree", edge=worst_edge, residual=worst)
    return pairs, report


# --- the quad graph as half-edge objects, one element at a time ---------------------


@dataclass
class _HalfEdge:
    origin: int
    face: int | None
    next: int = -1
    twin: int = -1
    edge: int = -1


class ReferenceGraph:
    """Half-edge build of a strongly regular quad mesh: dicts keyed by
    directed and undirected vertex pairs, explicit boundary half-edges
    appended after the four of every face, and traversals that walk
    those objects one element at a time.  Raises the package's mesh
    errors at the first offender of the same checks."""

    def __init__(self, vertex_count, quads):
        from hypnet.errors import NotAQuad

        self.vertex_count = int(vertex_count)
        self.input_quads = [tuple(int(i) for i in q) for q in quads]
        for f, quad in enumerate(self.input_quads):
            if len(quad) != 4:
                raise NotAQuad(f"face {f} has {len(quad)} vertices")
            if len(set(quad)) != 4:
                raise NotAQuad(f"face {f} repeats a vertex: {quad}")
            for v in quad:
                if not 0 <= v < self.vertex_count:
                    raise NotAQuad(f"face {f} references vertex {v}")
        self._build_half_edges(self._orient_faces())
        self._check_vertex_fans()

    def _orient_faces(self):
        from collections import deque

        from hypnet.errors import NonManifold, NonOrientable, NotStronglyRegular

        quads = self.input_quads
        incident = {}
        for f, quad in enumerate(quads):
            for k in range(4):
                u, v = quad[k], quad[(k + 1) % 4]
                incident.setdefault((min(u, v), max(u, v)), []).append((f, u < v))
        pair_seen = {}
        for key, users in incident.items():
            if len(users) > 2:
                raise NonManifold(f"edge {key} has {len(users)} incident faces")
            faces = [f for f, _ in users]
            if len(faces) == 2:
                pair = (min(faces), max(faces))
                if pair in pair_seen:
                    raise NotStronglyRegular(
                        f"faces {pair} share edges {pair_seen[pair]} and {key}"
                    )
                pair_seen[pair] = key
        flip = [None] * len(quads)
        for start in range(len(quads)):
            if flip[start] is not None:
                continue
            flip[start] = False
            queue = deque([start])
            while queue:
                f = queue.popleft()
                for k in range(4):
                    u, v = quads[f][k], quads[f][(k + 1) % 4]
                    key = (min(u, v), max(u, v))
                    for g, g_dir in incident[key]:
                        if g == f:
                            continue
                        g_flip = g_dir != (not ((u < v) != flip[f]))
                        if flip[g] is None:
                            flip[g] = g_flip
                            queue.append(g)
                        elif flip[g] != g_flip:
                            raise NonOrientable(
                                f"faces {f} and {g} cannot be oriented "
                                f"consistently across edge {key}"
                            )
        return [tuple(reversed(q)) if flip[f] else q for f, q in enumerate(quads)]

    def _build_half_edges(self, oriented):
        from hypnet.errors import NonManifold

        self.half_edges, self.faces, directed = [], [], {}
        for f, quad in enumerate(oriented):
            for k in range(4):
                self.half_edges.append(
                    _HalfEdge(origin=quad[k], face=f, next=4 * f + (k + 1) % 4)
                )
                directed[(quad[k], quad[(k + 1) % 4])] = 4 * f + k
            self.faces.append(tuple(range(4 * f, 4 * f + 4)))
        self.edges, self._edge_index = [], {}
        for he in self.half_edges:
            u, v = he.origin, self.half_edges[he.next].origin
            key = (min(u, v), max(u, v))
            if key not in self._edge_index:
                self._edge_index[key] = len(self.edges)
                self.edges.append(key)
            he.edge = self._edge_index[key]
        boundary_out = {}
        for (u, v), he_id in sorted(directed.items()):
            if (v, u) in directed:
                self.half_edges[he_id].twin = directed[(v, u)]
                continue
            b = _HalfEdge(origin=v, face=None, twin=he_id,
                          edge=self.half_edges[he_id].edge)
            self.half_edges[he_id].twin = len(self.half_edges)
            self.half_edges.append(b)
            if v in boundary_out:
                raise NonManifold(f"vertex {v} lies on more than one boundary arc")
            boundary_out[v] = len(self.half_edges) - 1
        for b_id in boundary_out.values():
            b = self.half_edges[b_id]
            b.next = boundary_out[self.half_edges[b.twin].origin]
        self._outgoing = {}
        for he_id, he in enumerate(self.half_edges):
            self._outgoing.setdefault(he.origin, []).append(he_id)
        self._edge_faces = []
        for u, v in self.edges:
            he = self.half_edges[directed.get((u, v), directed.get((v, u)))]
            self._edge_faces.append((he.face, self.half_edges[he.twin].face))

    def _check_vertex_fans(self):
        from hypnet.errors import NonManifold

        for v, outgoing in sorted(self._outgoing.items()):
            start, seen = min(outgoing), 1
            cur = self.rotate(start)
            while cur != start and seen <= len(outgoing):
                seen += 1
                cur = self.rotate(cur)
            if seen != len(outgoing):
                raise NonManifold(f"vertex {v} joins multiple face fans (bow tie)")

    def rotate(self, he_id):
        return self.half_edges[self.half_edges[he_id].twin].next

    def dest(self, he_id):
        return self.half_edges[self.half_edges[he_id].twin].origin

    def face_vertices(self, f):
        return tuple(self.half_edges[h].origin for h in self.faces[f])

    def face_edges(self, f):
        return tuple(self.half_edges[h].edge for h in self.faces[f])

    def edge_faces(self, e):
        return self._edge_faces[e]

    def degree(self, v):
        return len(self._outgoing.get(v, ()))

    def vertex_star(self, v):
        outgoing = self._outgoing.get(v)
        if not outgoing:
            return [], []
        start = min(outgoing)
        for h in outgoing:
            if self.half_edges[h].face is None:
                start = h
                break
        order = [start]
        cur = self.rotate(start)
        while cur != start:
            order.append(cur)
            cur = self.rotate(cur)
        faces = [self.half_edges[h].face for h in order]
        return [self.dest(h) for h in order], [f for f in faces if f is not None]

    def _walk_strip(self, f, exit_edge):
        faces, rails = [], []
        cur, exit_e = f, exit_edge
        while True:
            fa, fb = self._edge_faces[exit_e]
            nxt = fb if fa == cur else fa
            if nxt is None:
                return faces, rails, False
            if nxt == f:
                return faces, rails, True
            edges = self.face_edges(nxt)
            entry, exit_e = exit_e, edges[(edges.index(exit_e) + 2) % 4]
            faces.append(nxt)
            rails.append((entry, exit_e))
            cur = nxt

    def strips(self):
        """``(faces, rails)`` per strip, in the order of first face and
        side pair; raises ``ClosedStripDetected``."""
        from hypnet.errors import ClosedStripDetected

        strips, visited = [], set()
        for f in range(len(self.faces)):
            e = self.face_edges(f)
            for p, (ea, eb) in enumerate(((e[0], e[2]), (e[1], e[3]))):
                if (f, p) in visited:
                    continue
                back_faces, back_rails, closed_b = self._walk_strip(f, ea)
                fwd_faces, fwd_rails, closed_f = self._walk_strip(f, eb)
                if closed_b or closed_f:
                    raise ClosedStripDetected(f"strip through face {f} returns to it")
                faces = back_faces[::-1] + [f] + fwd_faces
                if len(set(faces)) != len(faces):
                    raise ClosedStripDetected(f"strip through face {f} self-intersects")
                rails = [(r, l) for l, r in back_rails[::-1]] + [(ea, eb)] + fwd_rails
                for g, (le, _) in zip(faces, rails):
                    visited.add((g, self.face_edges(g).index(le) % 2))
                strips.append((faces, rails))
        return strips

    def dual_spanning_tree(self, seed):
        from collections import deque

        from hypnet.errors import DisconnectedMesh

        seen, tree, queue = {seed}, [], deque([seed])
        while queue:
            f = queue.popleft()
            neighbors = []
            for h in self.faces[f]:
                other = self.half_edges[self.half_edges[h].twin].face
                if other is not None:
                    neighbors.append((other, self.half_edges[h].edge))
            for g, e in sorted(neighbors):
                if g not in seen:
                    seen.add(g)
                    tree.append((g, f, e))
                    queue.append(g)
        if len(seen) != len(self.faces):
            missing = sorted(set(range(len(self.faces))) - seen)
            raise DisconnectedMesh(f"faces {missing} unreachable from {seed}")
        return tree


def reference_dual_tree(graph, seed):
    """``graph.dual_spanning_tree(seed)`` by a queue, one face at a time,
    on the arrays of a built quad graph: each face's neighbors in
    ascending face id, each kept where the queue first meets it."""
    from collections import deque

    from hypnet.errors import DisconnectedMesh

    count = graph.face_count
    if not 0 <= seed < count:
        raise ValueError(f"face {seed} is not a face id (mesh has {count} faces)")
    across = np.where(graph.twin >= 0, graph.twin // 4, count).reshape(-1, 4)
    ranked = np.argsort(across, axis=1, kind="stable")
    neighbors = np.take_along_axis(across, ranked, axis=1).tolist()
    shared = np.take_along_axis(graph.face_edges, ranked, axis=1).tolist()
    seen = bytearray(count)
    seen[seed] = 1
    tree = []
    queue = deque([seed])
    while queue:
        f = queue.popleft()
        for g, e in zip(neighbors[f], shared[f]):
            if g < count and not seen[g]:
                seen[g] = 1
                tree.append((g, f, e))
                queue.append(g)
    if len(tree) + 1 != count:
        missing = [f for f in range(count) if not seen[f]]
        raise DisconnectedMesh(f"faces {missing} unreachable from {seed}")
    return tree


def reference_graph(vertex_count, quads) -> ReferenceGraph:
    """The quad graph built as half-edge objects (see :class:`ReferenceGraph`)."""
    return ReferenceGraph(vertex_count, quads)


def strips_of(graph):
    """``(faces, rails)`` per strip of ``graph.strip_sides()``: the faces
    in traversal order and, per face, the opposite edge pair ``(l, r)``
    where ``l`` faces the previous strip member and ``r`` the next one;
    the form :meth:`ReferenceGraph.strips` gives."""
    sides, starts = graph.strip_sides()
    edges = graph.face_edges.ravel()
    faces = (sides >> 2).tolist()
    rails = list(zip(edges[sides ^ 2].tolist(), edges[sides].tolist()))
    bounds = starts.tolist() + [len(sides)]
    return [(faces[a:b], rails[a:b]) for a, b in zip(bounds, bounds[1:])]


def edge_id(graph, u, v) -> int:
    """Id of the edge joining vertices ``u`` and ``v`` of a quad graph."""
    (e,) = np.flatnonzero(np.all(graph.edges == sorted((u, v)), axis=1))
    return int(e)


CORNER_KEYS = ((0, 0), (0, 1), (1, 0), (1, 1))


def reference_oriented_grid(points, corner_map: dict, corners):
    """``meshio.oriented_grid`` by relabelling the four parameter corners
    in a dict: ``points`` reindexed so that ``corners[0]`` sits at
    ``[0, 0]``, axis 0 runs toward ``corners[2]`` and axis 1 toward
    ``corners[1]``.  Raises :class:`ValueError` when the corner sets
    differ or the order is not a rigid relabelling of the grid."""
    inverse = {v: key for key, v in corner_map.items()}
    if set(inverse) != set(corners):
        raise ValueError("grid corners do not match the requested corners")
    a, b = inverse[corners[0]]
    final = {v: (i ^ a, j ^ b) for v, (i, j) in inverse.items()}
    swap = final[corners[2]][0] == 0
    if swap:
        final = {v: (j, i) for v, (i, j) in final.items()}
    if tuple(final[v] for v in corners) != CORNER_KEYS:
        raise ValueError("corner roles are not a rigid relabeling of the grid")
    out = np.asarray(points)
    if a:
        out = out[::-1]
    if b:
        out = out[:, ::-1]
    if swap:
        out = np.swapaxes(out, 0, 1)
    return np.ascontiguousarray(out)


def _reference_sample_key(face, corners, n, m, i, j):
    """Weld key of grid point ``(i, j)``: quad corners merge by vertex
    id, edge samples by (edge vertex pair, position, count), interior
    points stay private to the face."""
    x, x1, x2, x12 = corners
    on_i = i in (0, n - 1)
    on_j = j in (0, m - 1)
    if on_i and on_j:
        corner = {(0, 0): x, (0, m - 1): x1, (n - 1, 0): x2,
                  (n - 1, m - 1): x12}[(i, j)]
        return ("v", corner)
    if on_i:
        a, b = (x, x1) if i == 0 else (x2, x12)
        k, count = j, m
    elif on_j:
        a, b = (x, x2) if j == 0 else (x1, x12)
        k, count = i, n
    else:
        return ("f", face, i, j)
    if a > b:
        a, b, k = b, a, count - 1 - k
    return ("e", a, b, k, count)


def reference_write_mesh(path, grids: dict, weld: bool = True) -> None:
    """``meshio.write_mesh`` as one dict lookup per sample point, with
    each ``"%.17g"`` value and each row formatted on its own."""
    index = {}
    vertices = []
    quads = []
    for face in sorted(grids):
        points, corners = grids[face]
        points = np.asarray(points, dtype=float)
        n, m = points.shape[:2]
        local = np.empty((n, m), dtype=int)
        for i in range(n):
            for j in range(m):
                if weld:
                    key = _reference_sample_key(face, corners, n, m, i, j)
                else:
                    key = ("f", face, i, j)
                at = index.get(key)
                if at is None:
                    at = len(vertices)
                    index[key] = at
                    vertices.append(points[i, j])
                local[i, j] = at
        for i in range(n - 1):
            for j in range(m - 1):
                quads.append(
                    (local[i, j], local[i + 1, j],
                     local[i + 1, j + 1], local[i, j + 1])
                )
    lines = ["v " + " ".join("%.17g" % float(c) for c in p) for p in vertices]
    lines += ["f %d %d %d %d" % tuple(int(k) + 1 for k in q) for q in quads]
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("\n".join(lines) + "\n")


def reference_read_mesh(path):
    """``meshio.read_mesh`` one line at a time: every record split, parsed
    and checked in turn, the face indices checked against the vertex count
    at the end; a leading UTF-8 byte-order mark is skipped."""
    from hypnet.errors import NonQuadFace, ParseError

    positions = []
    quads = []
    face_lines = []
    with open(path, "r", encoding="utf-8-sig") as handle:
        for number, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            tokens = line.split()
            record = tokens[0]
            if record == "v":
                if len(tokens) < 4:
                    raise ParseError(
                        f"line {number}: vertex needs three coordinates"
                    )
                try:
                    positions.append([float(t) for t in tokens[1:4]])
                except ValueError as exc:
                    raise ParseError(f"line {number}: {exc}") from None
            elif record == "f":
                indices = []
                for token in tokens[1:]:
                    head = token.split("/", 1)[0]
                    try:
                        index = int(head)
                    except ValueError:
                        raise ParseError(
                            f"line {number}: bad face index {token!r}"
                        ) from None
                    if index < 1:
                        raise ParseError(
                            f"line {number}: face indices are 1-based "
                            f"and positive, got {index}"
                        )
                    indices.append(index - 1)
                if len(indices) != 4:
                    raise NonQuadFace(
                        f"line {number}: face has {len(indices)} vertices, "
                        "expected 4"
                    )
                quads.append(tuple(indices))
                face_lines.append(number)
    for number, quad in zip(face_lines, quads):
        for index in quad:
            if index >= len(positions):
                raise ParseError(
                    f"line {number}: face references vertex {index + 1} "
                    f"but only {len(positions)} are defined"
                )
    return np.asarray(positions, dtype=float).reshape(-1, 3), quads


def reference_write_positions_mesh(path, positions, quads) -> None:
    """``meshio.write_positions_mesh`` as one ``%`` pass over all
    coordinates and another over all face ids, writing one whole-file
    string."""
    coords = np.asarray(positions, dtype=float).reshape(-1, 3)
    indices = np.asarray(quads, dtype=np.int64).reshape(-1, 4) + 1
    text = ("v %.17g %.17g %.17g\n" * len(coords)) % tuple(coords.ravel().tolist())
    text += ("f %d %d %d %d\n" * len(indices)) % tuple(indices.ravel().tolist())
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text or "\n")


# --- the CLI report as strict JSON data, converted value by value ----------------


def reference_plain(value):
    """Recursively convert a report to strict JSON-serializable data.

    Lists of plain ints pass as they are and lists of plain floats take
    one finiteness pass; every other item is converted on its own.
    """
    if isinstance(value, dict):
        return {str(k): reference_plain(v) for k, v in value.items()}
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if isinstance(value, (list, tuple, set, frozenset)):
        items = sorted(value) if isinstance(value, (set, frozenset)) else value
        if all(type(v) is int for v in items):
            return list(items)
        if all(type(v) is float for v in items):
            return [v if math.isfinite(v) else None for v in items]
        return [reference_plain(v) for v in items]
    if isinstance(value, (np.floating, float)):
        out = float(value)
        return out if math.isfinite(out) else None
    if isinstance(value, (np.bool_, bool)):
        return bool(value)
    if isinstance(value, (np.integer, int)):
        return int(value)
    return value


def reference_render(report) -> str:
    """``cli.render_report`` as ``json.dumps`` of :func:`reference_plain`."""
    return json.dumps(
        reference_plain(report), indent=2, sort_keys=True, allow_nan=False
    )


def reference_boundary_residuals(grids, corners):
    """``cli._boundary_residuals`` with every boundary sample of a face
    in one row and its edge's axis formed per sample."""
    n, m = grids.shape[1:3]
    samples = np.concatenate(
        [grids[:, 0], grids[:, -1], grids[:, :, 0], grids[:, :, -1]], axis=1
    )
    ends = np.repeat([[0, 1], [2, 3], [0, 2], [1, 3]], [m, m, n, n], axis=0)
    a, b = corners[:, ends[:, 0]], corners[:, ends[:, 1]]
    axis = (b - a) / np.linalg.norm(b - a, axis=-1, keepdims=True)
    offsets = samples - a
    rejection = offsets - np.sum(offsets * axis, axis=-1, keepdims=True) * axis
    return np.linalg.norm(rejection, axis=-1).max(axis=1)


def reference_tetrahedra(graph, vertex_count):
    """Every 4-subset of every vertex star, one vertex at a time."""
    from itertools import combinations

    tets = []
    for v in range(vertex_count):
        if not graph.is_referenced(v):
            continue
        neighbors, _ = graph.vertex_star(v)
        star = sorted([v] + neighbors)
        tets.extend(combinations(star, 4))
    return np.array(tets, dtype=int) if tets else np.zeros((0, 4), dtype=int)


def free_jacobian(problem, free, blocks):
    """Sparse Jacobian of the fit residuals over the free coordinates.

    Row ``t`` is tetrahedron ``t``; column ``3 * i + k`` is axis ``k`` of
    vertex ``free[i]``; ``blocks`` are the per-corner derivatives that
    ``hypnet.fit._residuals`` returns.
    """
    from scipy.sparse import csr_matrix

    column_of = np.full(len(problem.initial_positions), -1)
    column_of[free] = np.arange(len(free))
    corner_columns = column_of[problem.tetrahedra]
    keep = np.repeat(corner_columns[:, :, None] >= 0, 3, axis=2)
    rows = np.broadcast_to(
        np.arange(len(problem.tetrahedra))[:, None, None], keep.shape
    )[keep]
    columns = (3 * corner_columns[:, :, None] + np.arange(3))[keep]
    shape = (len(problem.tetrahedra), 3 * len(free))
    return csr_matrix((blocks[keep], (rows, columns)), shape=shape)


def reference_lm_step(problem, positions, mu):
    """Damped Gauss-Newton step ``(m, 3)`` over the free vertices
    (ascending) by SuperLU: ``(J^T J + mu * scale * I) delta = -J^T r``
    with ``scale`` the largest diagonal entry of ``J^T J``."""
    from scipy.sparse import identity
    from scipy.sparse.linalg import spsolve

    from hypnet.fit import _gradient, _residuals

    free = np.array(problem.free_vertices, dtype=int)
    r, blocks, _ = _residuals(problem, positions)
    jac = free_jacobian(problem, free, blocks)
    normal = (jac.T @ jac).tocsc()
    scale = float(normal.diagonal().max())
    rhs = -0.5 * _gradient(problem, r, blocks)[free].ravel()
    eye = identity(3 * len(free), format="csr")
    return spsolve(normal + (mu * scale) * eye, rhs).reshape(-1, 3)


# --- the fit's band layout, one level structure per root tried --------------------


def _reference_group(keys):
    """Stable argsort of ``keys`` and the first position in it of each
    run of equal keys."""
    order = np.argsort(keys, kind="stable")
    ranked = keys[order]
    return order, np.flatnonzero(
        np.concatenate([[True], ranked[1:] != ranked[:-1]])
    )


def _reference_neighbors(offsets, adjacent, nodes):
    """Neighbors of ``nodes``, concatenated in their order, and the
    position in ``nodes`` of the node each one belongs to."""
    counts = offsets[nodes + 1] - offsets[nodes]
    owner = np.repeat(np.arange(len(nodes)), counts)
    first = offsets[nodes] - np.cumsum(counts) + counts
    return adjacent[first[owner] + np.arange(len(owner))], owner


def _reference_cuthill_mckee(offsets, adjacent, degree, start, visited):
    """Cuthill-McKee levels of ``start``'s component, one array per
    level, and marks them in ``visited``.

    A level's nodes come by the position of their first neighbor in the
    level before, then by degree, then by the sum of the positions of
    all their neighbors there; nodes that tie on all three are settled
    by :func:`_reference_settle_ties`.
    """
    level = np.array([start])
    visited[start] = True
    levels = []
    while level.size:
        levels.append(level)
        nodes, owner = _reference_neighbors(offsets, adjacent, level)
        fresh = ~visited[nodes]
        nodes, owner = nodes[fresh], owner[fresh]
        if not nodes.size:
            break
        # owners ascend, so a node's first entry is its first parent
        order, starts = _reference_group(nodes)
        total = np.add.reduceat(owner[order], starts)
        nodes, owner = nodes[order[starts]], owner[order[starts]]
        key = np.stack([total, degree[nodes], owner])
        rank = np.lexsort(np.vstack([nodes, key]))
        level, key = nodes[rank], key[:, rank]
        tied = np.all(key[:, 1:] == key[:, :-1], axis=0)
        if tied.any():
            level = _reference_settle_ties(level, tied, offsets, adjacent)
        visited[level] = True
    return levels


def _reference_settle_ties(level, tied, offsets, adjacent):
    """Reorder each run of tied nodes (``tied[i]``: ``level[i + 1]``
    ties with ``level[i]``), runs in level order, by the position of
    their first neighbor in the level outside an unsettled run, then by
    id.  Mirror-image nodes thus follow the first choice between them,
    which keeps the band of a symmetric net as narrow whatever the
    numbering."""
    starts = np.flatnonzero(np.concatenate([[True], ~tied]))
    sizes = np.diff(np.append(starts, len(level)))
    settled = np.repeat(sizes == 1, sizes)
    where = np.full(len(offsets) - 1, -1)
    where[level] = np.arange(len(level))
    runs = sizes > 1
    for lo, size in zip(starts[runs].tolist(), sizes[runs].tolist()):
        run = level[lo:lo + size]
        nodes, owner = _reference_neighbors(offsets, adjacent, run)
        at = where[nodes]
        near = at >= 0
        near[near] = settled[at[near]]
        first = np.full(size, len(level))
        np.minimum.at(first, owner[near], at[near])
        run = run[np.lexsort((run, first))]
        level[lo:lo + size] = run
        where[run] = np.arange(lo, lo + size)
        settled[lo:lo + size] = True
    return level


def _reference_band_order(offsets, adjacent):
    """Reverse Cuthill-McKee order of a graph given by neighbor lists.

    Each component starts at a pseudo-peripheral node (George & Liu,
    1979): from its lowest-degree node, move to the lowest-degree node
    of the last level while that deepens the level structure.  Nodes
    without neighbors come last.
    """
    degree = np.diff(offsets)
    visited = degree == 0
    parts = []
    while not visited.all():
        open_nodes = np.flatnonzero(~visited)
        start = open_nodes[np.argmin(degree[open_nodes])]
        levels = _reference_cuthill_mckee(offsets, adjacent, degree, start,
                                          visited.copy())
        while True:
            last = levels[-1]
            deeper = _reference_cuthill_mckee(
                offsets, adjacent, degree, last[np.argmin(degree[last])],
                visited.copy())
            if len(deeper) <= len(levels):
                break
            levels = deeper
        parts.extend(levels)
        visited[np.concatenate(levels)] = True
    order = np.concatenate(parts + [np.flatnonzero(degree == 0)])
    return order[::-1]


def _reference_coupling(corners, count):
    """Neighbor lists ``(offsets, adjacent)`` of the nodes
    ``0 .. count - 1`` that share a row of ``corners`` (``-1`` for no
    node), each list ascending."""
    a, b = np.triu_indices(4, 1)
    ends = np.stack([corners[:, a].ravel(), corners[:, b].ravel()])
    ends = ends[:, np.all(ends >= 0, axis=0)]
    tails = np.concatenate([ends[0], ends[1]])
    heads = np.concatenate([ends[1], ends[0]])
    order, starts = _reference_group(tails * count + heads)
    pairs = order[starts]
    per_node = np.bincount(tails[pairs], minlength=count)
    return np.concatenate([[0], np.cumsum(per_node)]), heads[pairs]


def reference_band_layout(problem, free):
    """``hypnet.fit._band_layout`` as first written: the coupling from the
    six corner pairs of every tetrahedron, a full Cuthill-McKee level
    structure from every root tried, and the band's entry map through
    ``(P, 9)`` masks over every ordered pair of free corners.

    Returns ``(moved, normal_band)``: ``moved`` lists the free vertices
    in band order, so band coordinate ``3 * p + k`` is axis ``k`` of
    vertex ``moved[p]``, and ``normal_band(blocks)`` maps the
    ``hypnet.fit._residuals`` blocks to the ``(w + 1, 3 * len(free))`` array
    with ``band[i - j, j] = (J^T J)[i, j]`` for ``0 <= i - j <= w``,
    the lower storage :func:`scipy.linalg.solveh_banded` reads.  Each
    entry sums its products in ascending tetrahedron order.
    """
    column_of = np.full(len(problem.initial_positions), -1)
    column_of[free] = np.arange(len(free))
    corners = column_of[problem.tetrahedra]
    moved = free[_reference_band_order(*_reference_coupling(corners,
                                                             len(free)))]

    # entries in the lower band: for each pair of free corners (a, b) of a
    # tetrahedron with a placed no earlier than b, the products of axis i
    # of a with axis j of b; a corner paired with itself keeps i >= j
    rank = np.full(len(problem.initial_positions), -1)
    rank[moved] = np.arange(len(moved))
    place = rank[problem.tetrahedra]
    a, b = np.divmod(np.arange(16), 4)
    t, pair = np.nonzero((place[:, b] >= 0) & (place[:, a] >= place[:, b]))
    a, b = a[pair], b[pair]
    i, j = np.divmod(np.arange(9), 3)
    offset = (3 * (place[t, a] - place[t, b]))[:, None] + (i - j)
    keep = offset >= 0
    size = 3 * len(free)
    width = int(np.max(offset, initial=0))
    col = (3 * place[t, b])[:, None] + j
    target = (col * (width + 1) + offset)[keep]
    left = ((12 * t + 3 * a)[:, None] + i)[keep]
    right = ((12 * t + 3 * b)[:, None] + j)[keep]

    def normal_band(blocks):
        flat = blocks.reshape(-1)
        # column-major, the layout LAPACK factors in place
        return np.bincount(
            target, weights=flat[left] * flat[right],
            minlength=size * (width + 1),
        ).reshape(size, width + 1).T

    return moved, normal_band

"""Independent exact-arithmetic oracles used by the test suite.

Everything in here is written directly from the definitions (2x2 minors,
wedge expansions, exhaustive search) without importing package internals,
so agreement with the package is meaningful evidence of correctness.
"""

from __future__ import annotations

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


def tangency_residual(a, b, shared_edge):
    """How far two neighboring face quadrics are from tangency along an edge.

    For each pair of corresponding ruling planes (matched by the family
    role the shared edge plays in each frame), the stacked plane bases
    together with the shared edge line must span at most four
    dimensions; returns the worst fifth-singular-value ratio.
    """
    fam_a = a.frame.family_of_edge(shared_edge)
    fam_b = b.frame.family_of_edge(shared_edge)
    if fam_a == fam_b:
        pairs = ((a.P1, b.P1), (a.P2, b.P2))
    else:
        pairs = ((a.P1, b.P2), (a.P2, b.P1))
    shared = a.frame.line_of_edge(shared_edge)
    shared = shared / np.linalg.norm(shared)
    worst = 0.0
    for pa, pb in pairs:
        stacked = np.vstack([pa.basis, pb.basis, shared])
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
    points ``X``, ``Y``, read off its stored minors."""
    h = np.asarray(h, dtype=float)
    return np.array([-h[2], h[4], -h[3]]), np.array([h[5], -h[1], h[0]])


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


def reference_c1_edges(patches, graph, positions, samples_per_edge, delta, floor):
    """Per shared edge ``(max_angle, cusp)`` by a walk over its samples.

    Each side maps an edge coordinate ``u`` to the parameter of its
    cross-family ruling through the fractional-linear schedule fitted to
    the edge coordinates of three ruling meets; the tangent plane is
    spanned by the edge and that ruling.  The fold probe meets the two
    families a parameter step ``delta`` into each patch at ``u + delta``
    and flags offsets from the first side's plane that share a sign and
    exceed ``floor`` times the edge length.
    """
    pos = np.asarray(positions, dtype=float)
    out = {}
    for e in range(graph.edge_count):
        f1, f2 = graph.edge_faces(e)
        if f1 is None or f2 is None or f1 not in patches or f2 not in patches:
            continue
        A, B = (pos[v] for v in graph.edge_vertices(e))
        d = B - A
        sides = [_reference_side(patches[f], e, A, d) for f in (f1, f2)]
        angle, cusp = 0.0, False
        for i in range(samples_per_edge):
            u = (i + 1.0) / (samples_per_edge + 1.0)
            n1, n2 = (side["normal"](u) for side in sides)
            angle = max(
                angle,
                float(np.arctan2(np.linalg.norm(np.cross(n1, n2)), abs(n1 @ n2))),
            )
            base = A + u * d
            offsets = [n1 @ (side["probe"](u + delta, delta) - base) for side in sides]
            least = min(abs(offsets[0]), abs(offsets[1]))
            if offsets[0] * offsets[1] > 0 and least > floor * np.linalg.norm(d):
                cusp = True
        out[e] = (angle, cusp)
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
        return n / np.linalg.norm(n)

    return {"normal": normal, "probe": lambda u, into: point(sigma_at(u), into)}

"""Hyperboloid patches bounded by a quad as rational bilinear patches.

The patch a face's adapted hyperboloid cuts out of its quad is the
rational bilinear patch (a rational tensor-product patch of degree 1)

    X(t, s) = sum w_ij B_i(t) B_j(s) x_ij / sum w_ij B_i(t) B_j(s)

over the corners ``x_00, x_01, x_10, x_11 = x, x1, x2, x12``, with
``B_0(t) = 1 - t``, ``B_1(t) = t`` and corner weights ``w_ij``.  Its
lines of constant ``t`` are the first-family rulings and its lines of
constant ``s`` the second-family ones.  A fractional-linear change of
``t`` or ``s`` scales the weights of one side's two corners by a common
factor, so up to reparametrization the patch is fixed by the weight
cross-ratio ``rho = w00 w11 / (w01 w10)``.

The member of the face's family that the patch lies on follows in
closed form.  The first-family ruling at ``t`` joins ``X(t, 0) ~ w00
(1-t) x + w10 t x2`` to ``X(t, 1) ~ w01 (1-t) x1 + w11 t x12``
(homogeneous points), and its join ``J`` expands to ``(1-t)^2 w00 w01
J(x, x1) + t^2 w10 w11 J(x2, x12) + t(1-t) q1`` with

    q1 ~ w00 w11 J(x, x12) + w01 w10 J(x2, x1),

a point on the face's axis: the family's plane point.  With the
diagonal joins ``J1 = sigma1 J(x, x12)`` and ``J2 = sigma2 J(x1, x2)``
run from their lower vertex ids (``sigma_i = +-1``), ``q1 ~ J1 + mu J2``
with ``mu = -sigma1 sigma2 / rho``.  The family coordinate ``lam`` is
``mu`` times the factor ``k`` of ``hyperboloid._scales``, and the
bilinear interpolant (``rho = 1``) has ``lam_bil = -sigma1 sigma2 k``
(:func:`bilinear_parameter`), so

    rho = lam_bil / lam.

The member ``lam`` is carved with the weights ``(1, s, s, 1)``, ``s =
sqrt(lam / lam_bil)``: one weight per diagonal, a form every relabeling
of the quad keeps up to a common factor, and all ones on the bilinear
member.  The patch is
bounded exactly when ``rho > 0``: then all four weights are positive and
so is the denominator over the whole quad, while for ``rho < 0`` two
corners carry weights of opposite sign and the denominator, bilinear in
``t`` and ``s``, vanishes on a curve across the quad.  This is the sign
half-line of the family: one sign of ``lam / lam_bil`` patches the quad
and the other does not.

Carving, sampling and the tangent-continuity report are stacked
evaluations over all faces, in elementwise arithmetic only, so each
face's row of a stacked call equals that face's own call bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoAdaptedPatch, NumericallyInfinitePoint, PatchError
from .anet import FrameStack
from .plucker import W_TOL, hom, line_from_points
from .hyperboloid import FaceHyperboloid, HyperboloidStack, _members, _scales
from .quadgraph import CHUNK

#: Largest normalized Pluecker product for which two rulings of a patch
#: still meet, looser than the generic line-meet tolerance.  Only
#: ``bench/micro.py`` reads it, as the tolerance of the ruling meets it
#: times; the package does not.
PATCH_MEET_TOL = 1e-6

#: Parameter step for the second-order fold probes of the C1 report.
CUSP_DELTA = 1e-3

#: Offsets below this fraction of the edge length are treated as noise by
#: the fold probe rather than as evidence of a cusp.
CUSP_OFFSET_FLOOR = 1e-13

#: Corner indices (role order x, x1, x2, x12) of the edge in each role,
#: in the order its own parameter runs: role 0 is ``t = 0``, role 1
#: ``t = 1``, role 2 ``s = 0`` and role 3 ``s = 1``.
EDGE_CORNERS = np.array([[0, 1], [2, 3], [0, 2], [1, 3]])


def _dot3(a, b):
    """Dot products of vectors stored coordinate first, ``(3, ...)``."""
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _cross3(a, b):
    """Cross products of vectors stored coordinate first, ``(3, ...)``."""
    return np.stack([
        a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0]
    ])


def _evaluate(points, weights, t, s, out=None):
    """``X(t, s)`` of patches with corners ``points`` ``(..., 4, 3)`` and
    weights ``(..., 4)``; ``t`` and ``s`` broadcast against the leading
    axes.  Returns the points ``(..., 3)``, written into ``out`` when it
    is given, and the mask of parameters whose denominator vanishes
    relative to its terms (the points there are meaningless).  Each
    coordinate is summed and divided in place in its column of the
    output, so that every pass runs over the whole broadcast shape and
    no second copy of the points is made."""
    terms = [
        weights[..., 0] * ((1.0 - t) * (1.0 - s)),
        weights[..., 1] * ((1.0 - t) * s),
        weights[..., 2] * (t * (1.0 - s)),
        weights[..., 3] * (t * s),
    ]
    den = terms[0] + terms[1] + terms[2] + terms[3]
    size = abs(terms[0]) + abs(terms[1]) + abs(terms[2]) + abs(terms[3])
    bad = ~(np.abs(den) > W_TOL * size)
    del size
    den = np.where(bad, 1.0, den)
    shape = np.broadcast_shapes(den.shape, points.shape[:-2])
    if out is None:
        out = np.empty(shape + (3,))
    term = np.empty(shape)
    for c in range(3):
        num = out[..., c]
        np.multiply(terms[0], points[..., 0, c], out=num)
        for k in (1, 2, 3):
            np.add(num, np.multiply(terms[k], points[..., k, c], out=term), out=num)
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(num, den, out=num)
    return out, bad


def _infinite(face, label):
    return NumericallyInfinitePoint(
        f"sample {label} of face {face} is numerically at infinity"
    )


@dataclass(frozen=True, eq=False)
class HyperboloidPatch:
    """Piece of a face's hyperboloid bounded by the quad's edges.

    ``points`` are the quad's corner positions in the frame's role
    order ``x, x1, x2, x12`` and ``weights`` their rational weights
    ``(1, w01, w10, w11)``.  ``ruling1(t)`` is the line through
    ``X(t, 0)`` and ``X(t, 1)``, running from the first-family edge line
    at ``t = 0`` to its opposite at ``t = 1``; ``ruling2(s)`` is the
    line through ``X(0, s)`` and ``X(1, s)``.  ``corner_map`` sends the
    parameter corners ``(0, 0), (0, 1), (1, 0), (1, 1)`` to the vertex
    ids in the roles ``x, x1, x2, x12``.
    """

    face: int
    frame: object
    points: np.ndarray
    weights: np.ndarray

    @property
    def corner_map(self) -> dict:
        return dict(zip(((0, 0), (0, 1), (1, 0), (1, 1)), self.frame.corners))

    def _line(self, t0, s0, t1, s1):
        a, _ = _evaluate(self.points, self.weights, np.asarray(t0, dtype=float), s0)
        b, _ = _evaluate(self.points, self.weights, np.asarray(t1, dtype=float), s1)
        return line_from_points(hom(a), hom(b))

    def ruling1(self, t):
        """First-family ruling line(s) at ``t``: a 6-vector, or ``(k, 6)``
        for a 1-D parameter array."""
        return self._line(t, 0.0, t, 1.0)

    def ruling2(self, s):
        """Second-family ruling line(s) at ``s``."""
        return self._line(0.0, s, 1.0, s)


@dataclass(frozen=True, eq=False)
class PatchStack:
    """The patches of several faces, with a leading face axis: their
    ``frames`` (a :class:`~hypnet.anet.FrameStack`, whose ``faces`` are
    the stack's), ``points`` ``(F, 4, 3)`` and ``weights`` ``(F, 4)``.
    Row ``k`` is the :class:`HyperboloidPatch` ``stack[k]``."""

    frames: FrameStack
    points: np.ndarray
    weights: np.ndarray

    @classmethod
    def of(cls, patches) -> "PatchStack":
        patches = list(patches)
        return cls(
            FrameStack.of(p.frame for p in patches),
            np.array([p.points for p in patches], dtype=float).reshape(-1, 4, 3),
            np.array([p.weights for p in patches], dtype=float).reshape(-1, 4),
        )

    @property
    def faces(self) -> np.ndarray:
        return self.frames.faces

    def __len__(self) -> int:
        return len(self.weights)

    def __getitem__(self, k: int) -> HyperboloidPatch:
        row = (int(self.faces[k]), self.frames[k], self.points[k], self.weights[k])
        return HyperboloidPatch(*row)


# --- carving -------------------------------------------------------------------------


def restrict_all(members: HyperboloidStack, positions) -> PatchStack:
    """Bounded patches of the rows of a :class:`HyperboloidStack`, stacked
    in its ascending face order.

    Each face's weights are ``(1, s, s, 1)`` with ``s = sqrt(lam /
    lam_bil)``, where ``lam_bil`` is the face's bilinear coordinate
    (:func:`bilinear_parameter`), read from the stack's ``scales``: the
    patch of cross-ratio ``lam_bil / lam`` (the module docstring).
    Raises :class:`NoAdaptedPatch` for the first face whose ratio ``lam /
    lam_bil`` is not positive, where no bounded patch exists.  Faces are
    carved :data:`CHUNK` at a time, in order; every step is elementwise
    per face, so a slice's rows equal the whole stack's.
    """
    frames = members.frames
    points = np.asarray(positions, dtype=float)[frames.corners]
    weights = np.ones((len(points), 4))
    for lo in range(0, len(points), CHUNK):
        rows = slice(lo, lo + CHUNK)
        ratio = members.lams[rows] / _bilinear_parameters(
            frames.corners[rows], members.scales[rows]
        )
        failing = np.flatnonzero(~(ratio > 0.0))
        if failing.size:
            face = int(frames.faces[lo + int(failing[0])])
            raise NoAdaptedPatch(
                f"no ruling branch of family (1) sweeps the quad of face {face}",
                face=face,
                family=1,
            )
        weights[rows, 1:3] = np.sqrt(ratio)[:, None]
    return PatchStack(frames=frames, points=points, weights=weights)


def restrict_to_patch(hb: FaceHyperboloid, frame, positions) -> HyperboloidPatch:
    """Bounded patch of ``hb`` over its quad, or :class:`NoAdaptedPatch`:
    the one-face call of :func:`restrict_all`."""
    if tuple(frame.h_edges) != tuple(hb.frame.h_edges) or not np.array_equal(
        frame.h_lines, hb.frame.h_lines
    ):
        raise ValueError("frame does not match the hyperboloid's role frame")
    return restrict_all(HyperboloidStack.of([hb], positions), positions)[0]


# --- sampling ------------------------------------------------------------------------


def sample_all(patches: PatchStack, n: int, m: int) -> np.ndarray:
    """``(F, n, m, 3)`` surface points of every patch at uniform parameters.

    Point ``(k, i, j)`` is ``X(t_i, s_j)`` of row ``k``; rows of
    constant ``j`` are collinear along ``ruling2(s_j)`` and the four
    parameter corners evaluate to the quad's vertices.  Raises
    :class:`NumericallyInfinitePoint` naming the face and ``(i, j)`` of
    the first point, in row-major order, whose denominator vanishes.
    Faces are evaluated :data:`CHUNK` at a time into the output, so the
    temporaries do not grow with the stack.
    """
    if n < 2 or m < 2:
        raise ValueError("need at least two samples per direction")
    t = np.linspace(0.0, 1.0, n)[:, None]
    s = np.linspace(0.0, 1.0, m)
    out = np.empty((len(patches), n, m, 3))
    for lo in range(0, len(patches), CHUNK):
        rows = slice(lo, lo + CHUNK)
        bad = _evaluate(
            patches.points[rows, None, None], patches.weights[rows, None, None],
            t, s, out[rows],
        )[1]
        if bad.any():
            k, i, j = (int(x) for x in np.unravel_index(np.argmax(bad), bad.shape))
            raise _infinite(int(patches.faces[lo + k]), (i, j))
    return out


def sample(p: HyperboloidPatch, n: int, m: int) -> np.ndarray:
    """``(n, m, 3)`` grid of ``p`` at uniform parameters: the one-face
    call of :func:`sample_all`."""
    return sample_all(PatchStack.of([p]), n, m)[0]


# --- independent per-face interpolants ---------------------------------------------


def _bilinear_parameters(corners, scales) -> np.ndarray:
    """Family coordinates ``(F,)`` of the bilinear interpolants of faces
    with role corners ``corners`` and factors ``scales`` of
    ``hyperboloid._scales``, each equal bit for bit to its own call."""
    # sigma1 * sigma2 = +1 when both diagonals run alike from their lower ids
    alike = (corners[:, 0] < corners[:, 3]) == (corners[:, 1] < corners[:, 2])
    return np.where(alike, -scales, scales)


def bilinear_parameter(frame, positions) -> float:
    """Family coordinate of the bilinear interpolant of the quad corners.

    The doubly ruled surface traced bilinearly between the four corner
    positions is the member of weight cross-ratio 1, so by the module
    docstring its coordinate is ``-sigma1 sigma2 k`` for the factor ``k``
    of ``hyperboloid._scales``, where ``sigma_i`` is +1 when diagonal
    ``i`` already runs from its lower id in the role order (x to x12,
    x1 to x2).
    """
    frames = FrameStack.of([frame])
    return float(_bilinear_parameters(frames.corners, _scales(positions, frames))[0])


def bilinear_patches(a) -> dict:
    """Independent corner-interpolating bilinear patch for every face.

    The patches share boundary curves (the straight edges) but their
    quadrics are chosen face by face, so across a generic net they meet
    only with position continuity.  Useful as a contrast to a
    propagated family, which meets tangent-plane continuously.  Every
    face is entered by its lowest-indexed half-edge, as
    :meth:`~hypnet.anet.ANet.face_frame` does; the frames, members and
    patches are each formed in one stacked pass.
    """
    faces = np.arange(a.graph.face_count)
    if not faces.size:
        return {}
    frames = a.frames(faces, 4 * faces)
    scales = _scales(a.positions, frames)
    lams = _bilinear_parameters(frames.corners, scales)
    members, _ = _members(a.positions, frames, lams, scales)
    stack = restrict_all(members, a.positions)
    return {f: stack[f] for f in faces.tolist()}


# --- tangent-plane continuity report -----------------------------------------------


def check_c1(patches, a, samples_per_edge: int = 9) -> dict:
    """Tangent-plane continuity report across interior edges, over each
    whole edge.

    ``patches`` is a :class:`PatchStack` or a dict from face id to
    :class:`HyperboloidPatch`.  Along an edge the tangent planes of a
    patch form a pencil (the tangent planes of a quadric along a
    ruling): for the edge ``a -> b`` of a side with opposite corners
    ``a', b'``, weights ``w`` and ``d = x_b - x_a``, the normal a fraction
    ``r`` from ``a`` is ``(1 - r) w_b w_a' d x (x_a' - x_a) + r w_a w_b'
    d x (x_b' - x_b)``.  With both sides on the edge coordinate ``u``
    from the lower vertex id, ``c(u) = d . (n1 x n2)`` and ``e(u) = n1 .
    n2`` are quadratics, so the largest angle between the two sides'
    planes (folded to ``[0, pi/2]``) over ``0 <= u <= 1`` is the largest
    of the angles at ``u = 0``, ``u = 1`` and the roots in ``(0, 1)`` of
    ``c' e - c e'``, each read from the two normals there; it is
    ``pi/2`` where ``e`` changes sign inside the edge.  That supremum is
    each edge's ``max_angle``.

    Second-order probes ``X`` a step ``CUSP_DELTA`` into each patch, at
    edge coordinate ``u + CUSP_DELTA`` for ``samples_per_edge`` uniform
    interior points ``u`` (the report's ``samples_per_edge`` counts
    these probe points), flag edges where both surface sheets leave the
    first side's tangent plane at ``u`` to the same side -- a fold
    (cusp) that plane angles alone cannot see.  The point a fraction
    ``r`` from the edge corner of weight ``wa`` toward the corner of
    weight ``wb`` has the side's edge parameter ``r wa / (r wa + (1 - r)
    wb)``, so a probe's homogeneous coordinates are linear in ``u`` and
    its offset is a quadratic in ``u`` over a linear one and the length
    of the normal.  Kinks and folds never raise; the report only
    describes them.

    A degenerate edge raises for the lowest such edge id, checked in
    this order: corner weights of opposite sign along the edge
    (:class:`PatchError`); opposite corners' weights of opposite sign,
    which put a ruling end at infinity
    (:class:`NumericallyInfinitePoint`, naming that point's parameters);
    a pencil normal that vanishes on the edge, where a ruling runs
    parallel to it (:class:`PatchError`); then per probe point the two
    sides' probes at infinity.  Every step is elementwise over edges,
    so an edge's entry does not depend on the other faces in the call,
    and the edges are read :data:`CHUNK` at a time, in ascending order.
    """
    if samples_per_edge < 1:
        raise ValueError(
            f"samples_per_edge must be at least 1, got {samples_per_edge}"
        )
    stack = patches if isinstance(patches, PatchStack) else PatchStack.of(
        patches.values()
    )
    g = a.graph
    rows = np.full(g.face_count + 1, -1)  # the last entry stands for "no face"
    rows[stack.faces] = np.arange(len(stack))
    side_rows = rows[g.edge_faces]
    shared = np.flatnonzero(np.all(side_rows >= 0, axis=1))
    E = len(shared)
    pos = np.asarray(a.positions, dtype=float).T
    angles, cusps = np.empty(E), np.empty(E, dtype=bool)
    for lo in range(0, E, CHUNK):
        edges = shared[lo:lo + CHUNK]
        angles[lo:lo + CHUNK], cusps[lo:lo + CHUNK] = _edge_continuity(
            stack, g.edges, pos, edges, side_rows[edges].ravel(), samples_per_edge
        )
    shared = shared.tolist()
    angles = angles.tolist()
    worst = int(np.argmax(angles)) if E else 0
    max_angle = angles[worst] if E else 0.0
    return {
        "samples_per_edge": samples_per_edge,
        "edge_count": E,
        "max_angle": max_angle,
        "worst_edge": shared[worst] if max_angle > 0.0 else None,
        "cusp_edges": [shared[k] for k in np.flatnonzero(cusps).tolist()],
        "edges": {
            e: {"max_angle": angle, "cusp": cusp}
            for e, angle, cusp in zip(shared, angles, cusps.tolist())
        },
    }


def _edge_continuity(stack, edge_ends, pos, shared, row, S):
    """Whole-edge angles ``(E,)`` and cusp flags ``(E,)`` of the interior
    edges ``shared`` of one slice of :func:`check_c1`, whose two sides are
    the stack rows ``row`` ``(2 E,)``; ``edge_ends`` are the net's edge
    vertex pairs and ``pos`` its positions coordinate first ``(3, n)``.
    Raises as :func:`check_c1` does for the slice's lowest degenerate
    edge."""
    edge = np.repeat(shared, 2)
    role = np.argmax(stack.frames.h_edges[row] == edge[:, None], axis=1)
    E = len(shared)
    # one entry per side, two per edge on the last axis; vectors coordinate first
    ends = edge_ends[edge]
    A, d = pos[:, ends[:, 0]], pos[:, ends[:, 1]] - pos[:, ends[:, 0]]
    # corners a, b of the edge and a', b' across the face, in the side's order
    corners = np.concatenate([EDGE_CORNERS[role], EDGE_CORNERS[role ^ 1]], axis=1).T
    forward = stack.frames.corners[row, corners[0]] == ends[:, 0]
    wa, wb, wa_far, wb_far = stack.weights.T[corners, row]
    points = stack.points.transpose(2, 1, 0)[:, corners, row] - A[:, None]
    xa, xb, xa_far, xb_far = points.transpose(1, 0, 2)  # relative to A

    # the pencil's ends: cross rulings at a and b, and the normals they give
    rulings = np.stack([wb * wa_far * (xa_far - xa), wa * wb_far * (xb_far - xb)], 1)
    normals = _cross3(d[:, None], rulings)
    # where the normal is shortest on the edge it must not vanish on its ruling
    nn, pq = _dot3(normals, normals), _dot3(normals[:, 0], normals[:, 1])
    with np.errstate(divide="ignore", invalid="ignore"):
        low = np.clip((nn[0] - pq) / (nn[0] - 2.0 * pq + nn[1]), 0.0, 1.0)
    low = np.where(np.isfinite(low), low, 0.0)
    shortest = (1.0 - low) * normals[:, 0] + low * normals[:, 1]
    ruling = (1.0 - low) * rulings[:, 0] + low * rulings[:, 1]
    parallel = ~(
        np.sqrt(_dot3(shortest, shortest))
        > 1e-14 * np.sqrt(_dot3(d, d) * _dot3(ruling, ruling))
    )

    # per edge, side k's normal at u is (1 - u) start[..., k] + u end[..., k]
    start = np.where(forward, normals[:, 0], normals[:, 1]).reshape(3, E, 2)
    end = np.where(forward, normals[:, 1], normals[:, 0]).reshape(3, E, 2)
    de = d[:, ::2]

    def quadratic(f):
        """Power-basis coefficients of the quadratic ``f(n1(u), n2(u))``."""
        b0 = f(start[..., 0], start[..., 1])
        b1 = 0.5 * (f(start[..., 0], end[..., 1]) + f(end[..., 0], start[..., 1]))
        b2 = f(end[..., 0], end[..., 1])
        return b0, 2.0 * (b1 - b0), b0 - 2.0 * b1 + b2

    c0, c1, c2 = quadratic(lambda n1, n2: _dot3(de, _cross3(n1, n2)))
    e0, e1, e2 = quadratic(_dot3)
    # stationary points of c / e: q2 u^2 + 2 q1 u + q0 = 0
    q2, q1, q0 = c2 * e1 - c1 * e2, c2 * e0 - c0 * e2, c1 * e0 - c0 * e1
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        q = -(q1 + np.copysign(np.sqrt(q1 * q1 - q2 * q0), q1))
        U = np.stack([np.zeros(E), np.ones(E), q / q2, q0 / q])
        vertex = -e1 / (2.0 * e2)
    U[2:] = np.where((U[2:] > 0.0) & (U[2:] < 1.0), U[2:], 0.0)
    n1, n2 = ((1.0 - U) * start[:, None, :, k] + U * end[:, None, :, k] for k in (0, 1))
    sine, cosine = np.sqrt(_dot3(_cross3(n1, n2), _cross3(n1, n2))), _dot3(n1, n2)
    angles = np.arctan2(sine, np.abs(cosine)).max(axis=0)
    # e changes sign between the edge's ends, or on both sides of its extremum
    inside = (vertex > 0.0) & (vertex < 1.0)
    extremum = e0 + vertex * (e1 + vertex * e2)
    flips = (cosine[0] * cosine[1] < 0.0) | (inside & (cosine[0] * extremum < 0.0))
    angles = np.where(flips, 0.5 * np.pi, angles)

    # the probes, per point (axis 0) and side: homogeneous points
    # (1 - r) h0 + r h1 a step into the patch, relative to A, and their
    # offsets from side 1's plane at u
    u = ((np.arange(S) + 1.0) / (S + 1.0))[:, None]
    r = np.where(forward, u + CUSP_DELTA, 1.0 - (u + CUSP_DELTA))
    near, into = 1.0 - CUSP_DELTA, CUSP_DELTA
    h0 = wb * (near * wa * xa + into * wa_far * xa_far)
    h1 = wa * (near * wb * xb + into * wb_far * xb_far)
    w0, w1 = wb * (near * wa + into * wa_far), wa * (near * wb + into * wb_far)
    size0 = abs(wb) * (near * abs(wa) + into * abs(wa_far))
    size1 = abs(wa) * (near * abs(wb) + into * abs(wb_far))
    den = (1.0 - r) * w0 + r * w1
    lost = ~(np.abs(den) > W_TOL * ((1.0 - r) * size0 + r * size1))
    s1, t1 = start[..., 0], end[..., 0]
    ss, st, tt = _dot3(s1, s1), _dot3(s1, t1), _dot3(t1, t1)
    length = np.sqrt((1.0 - u) * ((1.0 - u) * ss + 2.0 * u * st) + u * u * tt)
    first = np.repeat(s1, 2, axis=1), np.repeat(t1, 2, axis=1)
    t00, t01, t10, t11 = (_dot3(n, h) for n in first for h in (h0, h1))
    num = (1.0 - u) * ((1.0 - r) * t00 + r * t01) + u * ((1.0 - r) * t10 + r * t11)
    with np.errstate(divide="ignore", invalid="ignore"):
        offsets = (num / np.where(lost, 1.0, den)).reshape(S, E, 2) / length[..., None]
    floor = CUSP_OFFSET_FLOOR * np.sqrt(_dot3(de, de))
    cusps = (offsets[..., 0] * offsets[..., 1] > 0.0) & (
        np.minimum(np.abs(offsets[..., 0]), np.abs(offsets[..., 1])) > floor
    )

    # every check of an edge in order, one column each
    checks = np.concatenate([
        ~(wa * wb > 0.0).reshape(E, 2),
        ~(wa_far * wb_far > 0.0).reshape(E, 2),
        parallel.reshape(E, 2),
        lost.reshape(S, E, 2).transpose(1, 0, 2).reshape(E, 2 * S),
    ], axis=1)
    if checks.any():
        edge = int(np.argmax(checks.any(axis=1)))
        column = int(np.argmax(checks[edge]))
        e = int(shared[edge])
        if column < 2:
            raise PatchError(f"degenerate ruling schedule on edge {e}", edge=e)
        if 4 <= column < 6:
            raise PatchError("ruling is parallel to the edge; no tangent plane", edge=e)
        if column < 4:  # the far corners' weights cancel at this far-edge parameter
            k = 2 * edge + column - 2
            with np.errstate(divide="ignore", invalid="ignore"):
                at, across = wa_far[k] / (wa_far[k] - wb_far[k]), 1.0
        else:
            i, side = divmod(column - 6, 2)
            k = 2 * edge + side
            at = r[i, k] * wa[k] / (r[i, k] * wa[k] + (1.0 - r[i, k]) * wb[k])
            across = into
        across = across if role[k] % 2 == 0 else 1.0 - across
        label = (float(at), across) if role[k] >= 2 else (across, float(at))
        raise _infinite(int(stack.faces[row[k]]), label)
    return np.fmax(angles, 0.0), cusps.any(axis=0)

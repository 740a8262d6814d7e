"""Hyperboloid patches bounded by a quad as rational bilinear patches.

The patch a face's adapted hyperboloid cuts out of its quad is the
rational bilinear patch (a rational tensor-product patch of degree 1)

    X(t, s) = sum w_ij B_i(t) B_j(s) x_ij / sum w_ij B_i(t) B_j(s)

over the corners ``x_00, x_01, x_10, x_11 = x, x1, x2, x12``, with
``B_0(t) = 1 - t``, ``B_1(t) = t`` and corner weights
``(1, w01, w10, w11)``.  Its lines of constant ``t`` are the
first-family rulings and its lines of constant ``s`` the second-family
ones.  Each family is a conic of lines in its ruling plane; the middle
ruling of the conic arc between the family's two edge lines crosses the
opposite edges where ``X(1/2, .)`` or ``X(., 1/2)`` does, which fixes
the weight ratio of each crossed edge.  A bounded patch exists only
when exactly one of the two conic branches crosses both opposite edges
inside the quad; none does when the ruling orientation disagrees with
the twist of the edge pair, e.g. after exchanging the family labels.

Carving, sampling and the tangent-continuity report are stacked
evaluations over all faces, in elementwise arithmetic only, so each
face's row of a stacked call equals that face's own call bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateConic,
    NoAdaptedPatch,
    NumericallyInfinitePoint,
    PatchError,
)
from .plucker import W_TOL, hom, line_from_points
from .hyperboloid import FaceHyperboloid, _pairs, _scales

#: Pairing threshold below which two arc endpoint lines intersect and the
#: rational quadratic between them degenerates.
DEGENERATE_CONIC_EPS = 1e-10

#: Largest normalized Pluecker product for which a middle ruling still
#: meets an edge line.  Looser than the generic line-meet tolerance
#: because propagated rulings inherit the net's planarity and closure
#: residuals.
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


def _dot(a, b):
    """Row dot products over the last axis, summed in index order."""
    out = a[..., 0] * b[..., 0]
    for k in range(1, a.shape[-1]):
        out = out + a[..., k] * b[..., k]
    return out


def _cross(a, b):
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    return np.stack([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0], axis=-1)


def _pairing(a, b):
    """Pluecker products of the rows of two 6-vector stacks."""
    return _dot(a[..., :3], b[..., 3:]) + _dot(a[..., 3:], b[..., :3])


def _evaluate(points, weights, t, s):
    """``X(t, s)`` of patches with corners ``points`` ``(..., 4, 3)`` and
    weights ``(..., 4)``; ``t`` and ``s`` broadcast against the leading
    axes.  Returns the points ``(..., 3)`` and the mask of parameters
    whose denominator vanishes relative to its terms (the points there
    are meaningless)."""
    terms = [
        weights[..., 0] * ((1.0 - t) * (1.0 - s)),
        weights[..., 1] * ((1.0 - t) * s),
        weights[..., 2] * (t * (1.0 - s)),
        weights[..., 3] * (t * s),
    ]
    den = terms[0] + terms[1] + terms[2] + terms[3]
    num = terms[0][..., None] * points[..., 0, :]
    for k in (1, 2, 3):
        num = num + terms[k][..., None] * points[..., k, :]
    size = abs(terms[0]) + abs(terms[1]) + abs(terms[2]) + abs(terms[3])
    bad = ~(np.abs(den) > W_TOL * size)
    with np.errstate(divide="ignore", invalid="ignore"):
        return num / np.where(bad, 1.0, den)[..., None], bad


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
    """The patches of several faces, with a leading face axis: ``faces``
    ``(F,)``, ``frames`` (``F`` frames), ``points`` ``(F, 4, 3)`` and
    ``weights`` ``(F, 4)``.  Row ``k`` is the :class:`HyperboloidPatch`
    ``stack[k]``."""

    faces: np.ndarray
    frames: tuple
    points: np.ndarray
    weights: np.ndarray

    @classmethod
    def of(cls, patches) -> "PatchStack":
        patches = list(patches)
        return cls(
            np.array([p.face for p in patches], dtype=int),
            tuple(p.frame for p in patches),
            np.array([p.points for p in patches], dtype=float).reshape(-1, 4, 3),
            np.array([p.weights for p in patches], dtype=float).reshape(-1, 4),
        )

    def __len__(self) -> int:
        return len(self.frames)

    def __getitem__(self, k: int) -> HyperboloidPatch:
        row = (int(self.faces[k]), self.frames[k], self.points[k], self.weights[k])
        return HyperboloidPatch(*row)


# --- carving -------------------------------------------------------------------------


def restrict_all(hyperboloids, positions) -> PatchStack:
    """Bounded patches of a sequence of :class:`FaceHyperboloid`, stacked.

    Per face and ruling family, the arc ``(1-t)^2 h0 + c t^2 h1 +
    branch t(1-t) q`` between the family's edge lines (``c`` makes every
    arc point a line) is tried on both branches: a branch qualifies when
    its middle ruling meets both opposite edge lines (normalized pairing
    at most ``PATCH_MEET_TOL``, not parallel) inside their segments.  A
    crossing that divides its segment ``a : b`` is where ``X`` runs
    through the middle parameter, so the qualifying branches' crossings
    give the weight ratios ``w10 / w00``, ``w01 / w00`` and
    ``w11 / w10``.

    Raises for the first failing face: :class:`DegenerateConic` when a
    family's edge lines intersect or its plane point is isotropic, else
    :class:`NoAdaptedPatch` naming the first family without exactly one
    qualifying branch.
    """
    hbs = list(hyperboloids)
    frames = tuple(hb.frame for hb in hbs)
    lines = np.array([fr.h_lines for fr in frames], dtype=float).reshape(-1, 4, 6)
    q = np.array([(hb.q1, hb.q2) for hb in hbs], dtype=float).reshape(-1, 2, 6)
    points = np.asarray(positions, dtype=float)[
        np.array([fr.corners for fr in frames], dtype=int).reshape(-1, 4)
    ]
    # axes: face, family, branch, crossed segment
    h0, h1 = lines[:, [0, 2]], lines[:, [1, 3]]
    pairing, s_q = _pairing(h0, h1), _pairing(q, q)
    branch = np.array([1.0, -1.0])[:, None]
    cross = lines[:, [[2, 3], [0, 1]]][:, :, None]
    A = points[:, [[0, 1], [0, 2]]][:, :, None]
    B = points[:, [[2, 3], [1, 3]]][:, :, None]
    D = B - A
    # a degenerate conic (raised below) leaves non-finite values here
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        c = (-s_q / (2.0 * pairing))[..., None, None]
        mids = h0[:, :, None] + c * h1[:, :, None] + branch * q[:, :, None]
        mids = mids[..., None, :]
        # the ruling is the line {X : X x d = m}; it divides A B in the ratio a : b
        d = np.stack([-mids[..., 2], mids[..., 4], -mids[..., 3]], axis=-1)
        m = np.stack([mids[..., 5], -mids[..., 1], mids[..., 0]], axis=-1)
        n = _cross(D, d)
        a = _dot(m - _cross(A, d), n)
        b = _dot(_cross(B, d) - m, n)
        meets = np.abs(_pairing(mids, cross)) <= PATCH_MEET_TOL * np.sqrt(
            _dot(mids, mids) * _dot(cross, cross)
        )
        # a ruling parallel to the edge meets it at infinity
        finite = _dot(n, n) >= W_TOL**2 * _dot(D, D) * _dot(d, d)
        sweeps = np.all(meets & finite & (a > 0.0) & (b > 0.0), axis=-1)

    degenerate = np.minimum(np.abs(pairing), np.abs(s_q)) < DEGENERATE_CONIC_EPS
    wins = sweeps.sum(axis=-1)
    failing = np.flatnonzero((degenerate | (wins != 1)).any(axis=1))
    if failing.size:
        k = int(failing[0])
        face = frames[k].face
        for pair, s_qq in zip(pairing[k], s_q[k]):
            if abs(pair) < DEGENERATE_CONIC_EPS:
                message = f"endpoint lines intersect: <h, h'> = {pair:.3e}"
                raise DegenerateConic(message, face=face)
            if abs(s_qq) < DEGENERATE_CONIC_EPS:
                message = "plane point is isotropic; the arc collapses"
                raise DegenerateConic(message, face=face)
        family = int(np.argmax(wins[k] != 1))
        reason = "no" if wins[k, family] == 0 else "both"
        raise NoAdaptedPatch(
            f"{reason} ruling branch of family ({family + 1}) sweeps the "
            f"quad of face {face}",
            face=face,
            family=family + 1,
        )
    chosen = np.argmax(sweeps, axis=-1)[..., None, None]
    a = np.take_along_axis(a, chosen, axis=2)[:, :, 0]
    b = np.take_along_axis(b, chosen, axis=2)[:, :, 0]
    ratio = a / b  # (face, family, segment)
    w10, w01 = ratio[:, 0, 0], ratio[:, 1, 0]
    weights = np.stack([np.ones_like(w10), w01, w10, w10 * ratio[:, 1, 1]], axis=-1)
    faces = np.array([fr.face for fr in frames], dtype=int)
    return PatchStack(faces=faces, frames=frames, points=points, weights=weights)


def restrict_to_patch(hb: FaceHyperboloid, frame, positions) -> HyperboloidPatch:
    """Bounded patch of ``hb`` over its quad, or :class:`NoAdaptedPatch`:
    the one-face call of :func:`restrict_all`."""
    if tuple(frame.h_edges) != tuple(hb.frame.h_edges) or not np.array_equal(
        frame.h_lines, hb.frame.h_lines
    ):
        raise ValueError("frame does not match the hyperboloid's role frame")
    return restrict_all([hb], positions)[0]


# --- sampling ------------------------------------------------------------------------


def sample_all(patches: PatchStack, n: int, m: int) -> np.ndarray:
    """``(F, n, m, 3)`` surface points of every patch at uniform parameters.

    Point ``(k, i, j)`` is ``X(t_i, s_j)`` of row ``k``; rows of
    constant ``j`` are collinear along ``ruling2(s_j)`` and the four
    parameter corners evaluate to the quad's vertices.  Raises
    :class:`NumericallyInfinitePoint` naming the face and ``(i, j)`` of
    the first point, in row-major order, whose denominator vanishes.
    """
    if n < 2 or m < 2:
        raise ValueError("need at least two samples per direction")
    t = np.linspace(0.0, 1.0, n)[:, None]
    s = np.linspace(0.0, 1.0, m)
    out, bad = _evaluate(
        patches.points[:, None, None], patches.weights[:, None, None], t, s
    )
    if bad.any():
        k, i, j = (int(x) for x in np.unravel_index(np.argmax(bad), bad.shape))
        raise _infinite(int(patches.faces[k]), (i, j))
    return out


def sample(p: HyperboloidPatch, n: int, m: int) -> np.ndarray:
    """``(n, m, 3)`` grid of ``p`` at uniform parameters: the one-face
    call of :func:`sample_all`."""
    return sample_all(PatchStack.of([p]), n, m)[0]


# --- independent per-face interpolants ---------------------------------------------


def _bilinear_parameters(frames, positions) -> np.ndarray:
    """Family coordinates ``(F,)`` of the bilinear interpolants of the
    faces of ``frames``, each equal bit for bit to its own call."""
    corners = np.array([fr.corners for fr in frames], dtype=np.intp).reshape(-1, 4)
    # sigma1 * sigma2 = +1 when both diagonals run alike from their lower ids
    alike = (corners[:, 0] < corners[:, 3]) == (corners[:, 1] < corners[:, 2])
    k = _scales(positions, frames)
    return np.where(alike, -k, k)


def bilinear_parameter(frame, positions) -> float:
    """Family coordinate of the bilinear interpolant of the quad corners.

    The doubly ruled surface traced bilinearly between the four corner
    positions is a member of the face's hyperboloid family.  Its
    first-family rulings join ``(1-t) x + t x2`` to ``(1-t) x1 + t x12``,
    and the join ``J`` of that pair expands to ``(1-t)^2 J(x, x1) + t^2
    J(x2, x12) + t(1-t) q1``: the family's plane point on the axis is
    ``q1 ~ J(x, x12) - J(x1, x2)``.  With both diagonal joins run from
    the lower vertex id, as ``hyperboloid._scales`` reads them, that is
    ``J1 - sigma1 sigma2 J2``, where ``sigma_i`` is +1 when diagonal
    ``i`` already runs from its lower id in the role order (x to x12,
    x1 to x2); so the coordinate is ``-sigma1 sigma2 k`` for the factor
    ``k`` of ``_scales``.
    """
    return float(_bilinear_parameters([frame], positions)[0])


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
    faces = list(range(a.graph.face_count))
    if not faces:
        return {}
    frames = a.frames(faces, [4 * f for f in faces])
    members = _pairs(frames, _bilinear_parameters(frames, a.positions))
    stack = restrict_all(members, a.positions)
    return {int(f): stack[k] for k, f in enumerate(stack.faces)}


# --- tangent-plane continuity report -----------------------------------------------


def check_c1(patches, a, samples_per_edge: int = 9) -> dict:
    """Tangent-plane continuity report across interior edges.

    ``patches`` is a :class:`PatchStack` or a dict from face id to
    :class:`HyperboloidPatch`.  At uniform interior points of every
    shared edge the tangent plane of each side is spanned by the edge
    and that side's straight cross-family ruling through the point; the
    report records the largest angle between the two sides' planes
    (folded to ``[0, pi/2]``).  A side maps the edge coordinate to its
    ruling parameter in closed form: the point a fraction ``r`` from the
    edge corner of weight ``wa`` toward the corner of weight ``wb`` has
    parameter ``r wa / (r wa + (1 - r) wb)``.  Second-order probes
    ``X`` a step ``CUSP_DELTA`` into each patch flag edges where both
    surface sheets leave the common tangent plane to the same side -- a
    fold (cusp) that plane angles alone cannot see.  Kinks and folds
    never raise; the report only describes them.

    A degenerate edge -- corner weights of opposite sign along it, a
    ruling end or probe at infinity, a ruling parallel to the edge --
    raises for the lowest such edge id, with the exception that a walk
    over that edge (both schedules, then per sample the two normals and
    the two probes) meets first.
    """
    if isinstance(patches, PatchStack):
        stack, faces = patches, patches.faces
    else:
        stack, faces = PatchStack.of(patches.values()), list(patches)
    g = a.graph
    pos = np.asarray(a.positions, dtype=float)
    rows = np.full(g.face_count + 1, -1)  # the last entry stands for "no face"
    rows[faces] = np.arange(len(faces))
    side_rows = rows[g.edge_faces]
    shared = np.flatnonzero(np.all(side_rows >= 0, axis=1))
    row = side_rows[shared].ravel()
    edge = np.repeat(shared, 2)
    h_edges = np.array([fr.h_edges for fr in stack.frames], dtype=int).reshape(-1, 4)
    role = np.argmax(h_edges[row] == edge[:, None], axis=1)
    shared = shared.tolist()
    E, S = len(shared), samples_per_edge
    ends = g.edges[edge]
    A, d = pos[ends[:, 0]], pos[ends[:, 1]] - pos[ends[:, 0]]
    every = np.arange(2 * E)
    corners = EDGE_CORNERS[role]
    vertices = np.array([stack.frames[k].corners for k in row], dtype=int)
    forward = vertices.reshape(-1, 4)[every, corners[:, 0]] == ends[:, 0]
    W = stack.weights[row]
    wa, wb = W[every, corners[:, 0], None], W[every, corners[:, 1], None]
    u = (np.arange(S) + 1.0) / (S + 1.0)
    uu = np.concatenate([u, u + CUSP_DELTA])
    r = np.where(forward[:, None], uu, 1.0 - uu)
    with np.errstate(divide="ignore", invalid="ignore"):
        sigma = r * wa / (r * wa + (1.0 - r) * wb)
    along_t = (role >= 2)[:, None]
    # per side and sample: both ends of the cross-family ruling through
    # the edge point, then the probe a step into the patch
    depth = np.where(role % 2 == 1, 1.0 - CUSP_DELTA, CUSP_DELTA)[:, None]
    near = sigma[:, :S]
    params = [
        (np.where(along_t, sig, fixed), np.where(along_t, fixed, sig))
        for sig, fixed in ((near, 0.0), (near, 1.0), (sigma[:, S:], depth))
    ]
    (x0, bad0), (x1, bad1), (probes, far) = (
        _evaluate(stack.points[row][:, None], W[:, None], t, s) for t, s in params
    )
    ruling = x1 - x0
    normals = _cross(d[:, None], ruling)
    norm = np.sqrt(_dot(normals, normals))
    parallel = ~(norm > 1e-14 * np.sqrt(_dot(d, d)[:, None] * _dot(ruling, ruling)))
    normals = normals / np.where(parallel, 1.0, norm)[..., None]

    pair = (E, 2, S)
    n1, n2 = normals.reshape(*pair, 3).transpose(1, 0, 2, 3)
    sine = np.sqrt(_dot(_cross(n1, n2), _cross(n1, n2)))
    angles = np.arctan2(sine, np.abs(_dot(n1, n2)))
    base = A[::2, None] + u[:, None] * d[::2, None]
    offsets = _dot(n1[:, None], probes.reshape(*pair, 3) - base[:, None])
    floor = CUSP_OFFSET_FLOOR * np.sqrt(_dot(d[::2], d[::2]))
    cusps = (offsets[:, 0] * offsets[:, 1] > 0.0) & (
        np.min(np.abs(offsets), axis=1) > floor[:, None]
    )

    # every check of an edge in walk order, one column each
    normal_bad = (bad0 | bad1 | parallel).reshape(pair)
    probe_bad = far.reshape(pair)
    walk = np.stack(
        [normal_bad[:, 0], normal_bad[:, 1], probe_bad[:, 0], probe_bad[:, 1]], axis=-1
    )
    checks = np.concatenate([~(wa * wb > 0.0).reshape(E, 2), walk.reshape(E, 4 * S)], 1)
    if checks.any():
        edge = int(np.argmax(checks.any(axis=1)))
        column = int(np.argmax(checks[edge]))
        e = shared[edge]
        if column < 2:
            raise PatchError(f"degenerate ruling schedule on edge {e}", edge=e)
        i, check = divmod(column - 2, 4)
        k = 2 * edge + check % 2
        ends_or_probe = zip((bad0, bad1), params) if check < 2 else [(far, params[2])]
        for bad, (t, s) in ends_or_probe:
            if bad[k, i]:
                label = (float(t[k, i]), float(s[k, i]))
                raise _infinite(int(stack.faces[row[k]]), label)
        raise PatchError("ruling is parallel to the edge; no tangent plane", edge=e)
    edges, cusp_edges, max_angle, worst_edge = {}, [], 0.0, None
    for e, angle, cusp in zip(shared, angles.max(axis=1), cusps.any(axis=1)):
        angle = max(0.0, float(angle))
        edges[e] = {"max_angle": angle, "cusp": bool(cusp)}
        if cusp:
            cusp_edges.append(e)
        if angle > max_angle:
            max_angle, worst_edge = angle, e
    return {
        "samples_per_edge": samples_per_edge,
        "edge_count": E,
        "max_angle": max_angle,
        "worst_edge": worst_edge,
        "cusp_edges": cusp_edges,
        "edges": edges,
    }

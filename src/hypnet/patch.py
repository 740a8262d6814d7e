"""Hyperboloid patches bounded by a quad: ruling arcs, sampling, C1 reports.

Each ruling family of a face's adapted hyperboloid is a conic in its
ruling plane.  The arc of that conic between the face's two opposite
edge lines is a rational quadratic curve; evaluating it sweeps the
straight rulings of the patch, and intersecting the two families
samples the surface point grid.  A patch bounded by the quad exists
only when the swept rulings actually cross the quad, which singles out
one of the two conic branches per family -- and no branch at all when
the ruling orientation disagrees with the twist of the corresponding
edge pair, for instance after exchanging the two family labels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    DegenerateConic,
    NoAdaptedPatch,
    NumericallyInfinitePoint,
    PatchError,
)
from .plucker import (
    W_TOL,
    _meet,
    canonical,
    hom,
    line_direction,
    line_from_points,
    plucker_product,
    self_product,
    span,
)
from .hyperboloid import FaceHyperboloid, family_parameter_of, hyperboloid_from_parameter

#: Pairing threshold below which two arc endpoint lines intersect and the
#: rational quadratic between them degenerates.
DEGENERATE_CONIC_EPS = 1e-10

#: Skewness tolerance used when intersecting rulings of opposite families.
#: Looser than the generic line-meet tolerance because the cross products
#: of propagated rulings inherit the net's planarity and closure residuals.
PATCH_MEET_TOL = 1e-6

#: Parameter step for the second-order fold probes of the C1 report.
CUSP_DELTA = 1e-3

#: Offsets below this fraction of the edge length are treated as noise by
#: the fold probe rather than as evidence of a cusp.
CUSP_OFFSET_FLOOR = 1e-13

#: Shared edges whose C1 meets go into one stack; bounds the memory of
#: ``check_c1`` independently of the net's size.
C1_EDGE_CHUNK = 64


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
        w0 = (1.0 - t) ** 2
        w1 = self.c * t**2
        wq = self.branch * t * (1.0 - t)
        return (
            np.multiply.outer(w0, self.h0)
            + np.multiply.outer(w1, self.h1)
            + np.multiply.outer(wq, self.q)
        )


def conic_arc(h, h_opposite, q, branch: int) -> ConicArc:
    """Arc of the ruling conic from ``h`` to ``h_opposite`` through plane
    point ``q``, on the branch ``+1`` or ``-1``.

    The three 6-vectors must span a plane in which ``q`` is polar to
    both endpoint lines (the configuration produced by an adapted
    hyperboloid).  The returned callable evaluates to isotropic
    6-vectors for every parameter, exactly in the algebra and to
    roundoff in floats.  Raises :class:`DegenerateConic` when the two
    endpoint lines intersect or when ``q`` itself is isotropic.
    """
    if branch not in (1, -1):
        raise ValueError("branch must be +1 or -1")
    h0 = canonical(h)
    h1 = canonical(h_opposite)
    qh = canonical(q)
    pairing = plucker_product(h0, h1)
    if abs(pairing) < DEGENERATE_CONIC_EPS:
        raise DegenerateConic(
            f"endpoint lines intersect: <h, h'> = {pairing:.3e}"
        )
    s_q = self_product(qh)
    if abs(s_q) < DEGENERATE_CONIC_EPS:
        raise DegenerateConic("plane point is isotropic; the arc collapses")
    c = -s_q / (2.0 * pairing)
    return ConicArc(h0=h0, h1=h1, q=qh, c=float(c), branch=int(branch))


@dataclass(frozen=True, eq=False)
class HyperboloidPatch:
    """Piece of a face's hyperboloid bounded by the quad's edges.

    ``ruling1(t)`` runs from the first-family edge line at ``t = 0`` to
    its opposite at ``t = 1``; ``ruling2(s)`` does the same for the
    second family.  ``corner_map`` sends the parameter corners
    ``(0, 0), (0, 1), (1, 0), (1, 1)`` to the vertex ids in the roles
    ``x, x1, x2, x12``.  :func:`sample` and :func:`check_c1` call the
    rulings on 1-D parameter arrays and expect one 6-vector per
    parameter, as :class:`ConicArc` gives; a ruling that returns a
    single 6-vector is read as constant.
    """

    face: int
    frame: object
    ruling1: Callable
    ruling2: Callable
    corner_map: dict


def _rulings(arc, params) -> np.ndarray:
    """``(k, 6)`` ruling lines of ``arc`` at the 1-D ``params``; a ruling
    that returns a single 6-vector is constant."""
    return np.broadcast_to(arc(params), (len(params), 6))


def _meet_points(meets):
    """Affine points ``(..., 3)`` of a stack of ruling meets, and the mask
    of pairs without one: a meet fault or a point numerically at
    infinity (the points there are meaningless)."""
    w = meets.points[..., 3]
    bad = ~meets.ok | (np.abs(w) < W_TOL)
    return meets.points[..., :3] / np.where(bad, 1.0, w)[..., None], bad


def _meet_failure(meets, index, label, face, where=None):
    """The exception for a failed meet: the meet's own fault, or else its
    point ``label`` of ``face`` lying numerically at infinity."""
    if meets.fault[index]:
        return meets.error(index, where)
    return NumericallyInfinitePoint(
        f"sample {label} of face {face} is numerically at infinity"
    )


def restrict_to_patch(hb: FaceHyperboloid, frame, positions) -> HyperboloidPatch:
    """Bounded patch of ``hb`` over its quad, or :class:`NoAdaptedPatch`.

    For each ruling family the two conic branches between the opposite
    edge lines are tried; the adapted branch is the one whose middle
    ruling crosses both opposite closed edge segments in their
    interiors.  Exactly one branch qualifies when the hyperboloid
    sweeps the quad; none does when the family's orientation is
    incompatible with the quad's twist (e.g. swapped family labels).
    The eight crossings of a face are met in one stack; the arcs of
    both families are built, and :class:`DegenerateConic` raised,
    before either family's branches are judged.
    """
    if tuple(frame.h_edges) != tuple(hb.frame.h_edges) or not np.array_equal(
        frame.h_lines, hb.frame.h_lines
    ):
        raise ValueError("frame does not match the hyperboloid's role frame")
    pos = np.asarray(positions, dtype=float)
    x, x1, x2, x12 = (pos[v] for v in frame.corners)
    lines = frame.h_lines
    # per family: its edge lines, plane point, and the opposite edge
    # segments its middle ruling must cross, with their supporting lines
    families = (
        (lines[0], lines[1], hb.q1, ((x, x2), (x1, x12)), lines[2:]),
        (lines[2], lines[3], hb.q2, ((x, x1), (x2, x12)), lines[:2]),
    )
    arcs = [
        [conic_arc(h, h_opp, q, branch) for branch in (1, -1)]
        for h, h_opp, q, _, _ in families
    ]
    mids = np.array([[arc(0.5) for arc in pair] for pair in arcs])
    cross = np.array([family[4] for family in families])
    segments = np.array([family[3] for family in families])
    # axes: family, branch, segment
    points, bad = _meet_points(
        _meet(mids[:, :, None], cross[:, None], PATCH_MEET_TOL)
    )
    A = segments[:, None, :, 0]
    d = segments[:, None, :, 1] - A
    u = np.sum((points - A) * d, axis=-1) / np.sum(d * d, axis=-1)
    sweeps = np.all(~bad & (0.0 < u) & (u < 1.0), axis=-1)
    for family, wins in enumerate(sweeps, start=1):
        if wins.sum() != 1:
            reason = "no" if not wins.any() else "both"
            raise NoAdaptedPatch(
                f"{reason} ruling branch of family ({family}) sweeps the "
                f"quad of face {frame.face}",
                face=frame.face,
                family=family,
            )
    return HyperboloidPatch(
        face=frame.face,
        frame=frame,
        ruling1=arcs[0][int(np.argmax(sweeps[0]))],
        ruling2=arcs[1][int(np.argmax(sweeps[1]))],
        corner_map={
            (0, 0): frame.corners[0],
            (0, 1): frame.corners[1],
            (1, 0): frame.corners[2],
            (1, 1): frame.corners[3],
        },
    )


def sample(p: HyperboloidPatch, n: int, m: int) -> np.ndarray:
    """``(n, m, 3)`` grid of surface points at uniform parameters.

    Point ``(i, j)`` is the intersection of ``ruling1(t_i)`` with
    ``ruling2(s_j)``; rows of constant ``j`` are collinear along
    ``ruling2(s_j)`` and the four parameter corners evaluate to the
    quad's vertices.  Each ruling is evaluated once on its parameter
    array and the ``n x m`` pairs are met in one stack.  Raises for the
    first failing ``(i, j)`` in row-major order:
    :class:`NumericallyInfinitePoint` naming the indices when the grid
    point escapes to infinity, or the meet's :class:`SkewLines` /
    :class:`CoincidentLines`, whose message names the same indices.
    """
    if n < 2 or m < 2:
        raise ValueError("need at least two samples per direction")
    lines1 = _rulings(p.ruling1, np.linspace(0.0, 1.0, n))
    lines2 = _rulings(p.ruling2, np.linspace(0.0, 1.0, m))
    meets = _meet(lines1[:, None], lines2[None], PATCH_MEET_TOL)
    points, bad = _meet_points(meets)
    if bad.any():
        i, j = (int(k) for k in np.unravel_index(np.argmax(bad), bad.shape))
        raise _meet_failure(meets, (i, j), (i, j), p.face)
    return points


# --- independent per-face interpolants ---------------------------------------------


def bilinear_parameter(frame, positions) -> float:
    """Family coordinate of the bilinear interpolant of the quad corners.

    The doubly ruled surface traced bilinearly between the four corner
    positions is a member of the face's hyperboloid family; its
    first-family plane contains the line joining the midpoints of the
    two second-family edges, which pins down the axis point and hence
    the coordinate.
    """
    pos = np.asarray(positions, dtype=float)
    x, x1, x2, x12 = (pos[v] for v in frame.corners)
    mids = hom([0.5 * (x + x2), 0.5 * (x1 + x12)])
    mid = canonical(line_from_points(mids[0], mids[1]))
    plane = span(np.vstack([frame.h_lines[0], frame.h_lines[1], mid]))
    b = frame.H_line.basis.T
    residue = b - plane.basis.T @ (plane.basis @ b)
    _, _, vt = np.linalg.svd(residue, full_matrices=False)
    q = canonical(frame.H_line.basis.T @ vt[-1])
    return float(family_parameter_of(frame, q))


def bilinear_patches(a) -> dict:
    """Independent corner-interpolating bilinear patch for every face.

    The patches share boundary curves (the straight edges) but their
    quadrics are chosen face by face, so across a generic net they meet
    only with position continuity.  Useful as a contrast to a
    propagated family, which meets tangent-plane continuously.
    """
    out = {}
    for f in range(a.graph.face_count):
        frame = a.face_frame(f)
        lam = bilinear_parameter(frame, a.positions)
        hb = hyperboloid_from_parameter(frame, lam)
        out[f] = restrict_to_patch(hb, frame, a.positions)
    return out


# --- tangent-plane continuity report -----------------------------------------------


def _c1_chunk(patches: dict, g, pos, chunk, u):
    """Plane angles ``(E, S)`` and cusp flags ``(E, S)`` of the shared
    edges ``chunk`` (a list of ``(e, f1, f2)``) at edge coordinates ``u``.

    Each side of an edge parametrizes it through the cross-family ruling
    arc ("along"), whose parameter follows the edge by the
    fractional-linear schedule fitted to three meets, and the arc of the
    edge's own family ("into"), whose parameter leaves the edge.  All
    meets of the chunk are made in two stacks; the failure rule is
    :func:`check_c1`'s.
    """
    E, S = len(chunk), len(u)
    ends = np.array([pos[list(g.edge_vertices(e))] for e, _, _ in chunk])
    A = np.repeat(ends[:, 0], 2, axis=0)
    d = np.repeat(ends[:, 1] - ends[:, 0], 2, axis=0)
    sides = []
    for e, f1, f2 in chunk:
        for f in (f1, f2):
            patch = patches[f]
            role = patch.frame.h_edges.index(e)
            along, into = (
                (patch.ruling2, patch.ruling1)
                if role < 2
                else (patch.ruling1, patch.ruling2)
            )
            sides.append((patch.face, role, along, into))
    roles = np.array([role for _, role, _, _ in sides])
    # into-parameters of the edge itself and of the probe depth
    depth = np.array([0.0, CUSP_DELTA])
    depth = np.where((roles % 2 == 1)[:, None], 1.0 - depth, depth)
    into_lines = np.array(
        [_rulings(into, t) for (_, _, _, into), t in zip(sides, depth)]
    )
    first_into = (roles < 2)[:, None, None]

    def meet(into_line, along_lines):
        into_line = np.broadcast_to(into_line[:, None], along_lines.shape)
        return _meet(
            np.where(first_into, into_line, along_lines),
            np.where(first_into, along_lines, into_line),
            PATCH_MEET_TOL,
        )

    def label(k, sigma, into_t):
        """The ``(t, s)`` parameters of side ``k``'s meet, for messages."""
        pair = (float(into_t), float(sigma))
        return pair if roles[k] < 2 else pair[::-1]

    knots = np.array([0.0, 0.5, 1.0])
    knot_lines = np.array([_rulings(along, knots) for _, _, along, _ in sides])
    knot_meets = meet(into_lines[:, 0], knot_lines)
    knot_points, knot_bad = _meet_points(knot_meets)
    coord = np.sum((knot_points - A[:, None]) * d[:, None], axis=-1) / np.sum(
        d * d, axis=-1
    )[:, None]
    a, b, c = coord.T
    degenerate = np.abs(c - b) < 1e-12
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        gamma = (2.0 * b - a - c) / (c - b)
        alpha = (c * (gamma + 1.0) - a)[:, None]
        beta = a[:, None]
        gamma = gamma[:, None]
        uu = np.concatenate([u, u + CUSP_DELTA])
        den = alpha - uu * gamma
        pole = np.abs(den) < 1e-14 * (np.abs(alpha) + np.abs(uu * gamma) + 1.0)
        sigma = (uu - beta) / den
    # failed schedules and poles leave garbage here; their edges raise below
    sigma = np.where(np.isfinite(sigma) & ~pole, sigma, 0.0)
    along_lines = np.array(
        [_rulings(along, s) for (_, _, along, _), s in zip(sides, sigma)]
    )
    normals = np.cross(d[:, None], line_direction(along_lines[:, :S]))
    norm = np.linalg.norm(normals, axis=-1)
    parallel = norm < 1e-14
    normals = normals / np.where(parallel, 1.0, norm)[..., None]
    probe_meets = meet(into_lines[:, 1], along_lines[:, S:])
    probes, probe_bad = _meet_points(probe_meets)

    pair = (E, 2, S)
    n1, n2 = normals.reshape(*pair, 3).transpose(1, 0, 2, 3)
    sine = np.linalg.norm(np.cross(n1, n2), axis=-1)
    cosine = np.abs(np.sum(n1 * n2, axis=-1))
    base = ends[:, None, 0] + u[:, None] * (ends[:, None, 1] - ends[:, None, 0])
    offsets = np.sum(
        n1[:, None] * (probes.reshape(*pair, 3) - base[:, None]), axis=-1
    )
    floor = CUSP_OFFSET_FLOOR * np.linalg.norm(ends[:, 1] - ends[:, 0], axis=-1)
    cusps = (offsets[:, 0] * offsets[:, 1] > 0.0) & (
        np.min(np.abs(offsets), axis=1) > floor[:, None]
    )

    # every check of an edge in walk order, one column each
    pole_n, pole_p = pole[:, :S].reshape(pair), pole[:, S:].reshape(pair)
    parallel, probe_bad = parallel.reshape(pair), probe_bad.reshape(pair)
    schedule_checks = np.concatenate(
        [knot_bad, degenerate[:, None]], axis=1
    ).reshape(E, 8)
    sample_checks = np.stack(
        [
            pole_n[:, 0], parallel[:, 0], pole_n[:, 1], parallel[:, 1],
            pole_p[:, 0], probe_bad[:, 0], pole_p[:, 1], probe_bad[:, 1],
        ],
        axis=-1,
    ).reshape(E, 8 * S)
    checks = np.concatenate([schedule_checks, sample_checks], axis=1)
    if checks.any():
        edge = int(np.argmax(checks.any(axis=1)))
        column = int(np.argmax(checks[edge]))
        e = chunk[edge][0]
        if column < 8:
            k = 2 * edge + column // 4
            knot = column % 4
            if knot == 3:
                raise PatchError(f"degenerate ruling schedule on edge {e}", edge=e)
            raise _meet_failure(
                knot_meets, (k, knot), label(k, knots[knot], depth[k, 0]),
                sides[k][0], where=f"edge {e}",
            )
        i, check = divmod(column - 8, 8)
        k = 2 * edge + (check // 2) % 2
        if check in (0, 2, 4, 6):
            raise PatchError("edge schedule has a pole inside the segment")
        if check in (1, 3):
            raise PatchError("ruling is parallel to the edge; no tangent plane")
        raise _meet_failure(
            probe_meets, (k, i), label(k, sigma[k, S + i], depth[k, 1]),
            sides[k][0], where=f"edge {e}",
        )
    return np.arctan2(sine, cosine), cusps


def check_c1(patches: dict, a, samples_per_edge: int = 9) -> dict:
    """Tangent-plane continuity report across interior edges.

    At uniform interior points of every shared edge the tangent plane
    of each side is spanned by the edge and the cross-family ruling
    through the point; the report records the largest angle between the
    two sides' planes (folded to ``[0, pi/2]``).  Second-order probes a
    small parameter step into each patch flag edges where both surface
    sheets leave the common tangent plane to the same side -- a fold
    (cusp) that plane angles alone cannot see.  Kinks and folds never
    raise; the report only describes them.

    The meets of up to ``C1_EDGE_CHUNK`` edges go into one stack: per
    edge side 3 schedule meets and ``samples_per_edge`` probe meets.
    A degenerate edge -- no ruling schedule,
    a meet without a finite point, a ruling parallel to the edge --
    raises for the lowest such edge id, with the exception that a walk
    over that edge (both schedules, then per sample the two normals and
    the two probes) meets first; a meet's own fault names the edge.
    """
    g = a.graph
    pos = np.asarray(a.positions, dtype=float)
    shared = []
    for e in range(g.edge_count):
        f1, f2 = g.edge_faces(e)
        if f1 in patches and f2 in patches and None not in (f1, f2):
            shared.append((e, f1, f2))
    u = (np.arange(samples_per_edge) + 1.0) / (samples_per_edge + 1.0)
    edges = {}
    cusp_edges = []
    max_angle = 0.0
    worst_edge = None
    for start in range(0, len(shared), C1_EDGE_CHUNK):
        chunk = shared[start : start + C1_EDGE_CHUNK]
        angles, cusps = _c1_chunk(patches, g, pos, chunk, u)
        for (e, _, _), angle, cusp in zip(chunk, angles.max(axis=1), cusps.any(axis=1)):
            angle = max(0.0, float(angle))
            edges[e] = {"max_angle": angle, "cusp": bool(cusp)}
            if cusp:
                cusp_edges.append(e)
            if angle > max_angle:
                max_angle = angle
                worst_edge = e
    return {
        "samples_per_edge": samples_per_edge,
        "edge_count": len(edges),
        "max_angle": max_angle,
        "worst_edge": worst_edge,
        "cusp_edges": cusp_edges,
        "edges": edges,
    }

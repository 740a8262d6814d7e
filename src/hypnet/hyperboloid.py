"""Adapted doubly ruled quadrics per face and their propagation.

Every face of a net with planar stars carries a 1-parameter family of
doubly ruled quadrics containing its four edge lines.  A member is
encoded by a labeled polar pair ``(q1, q2)`` on the face's axis, the
line of line space through the face's two diagonals ``g1``, ``g2`` (its
isotropic points): ``q1`` is ``g1 + lam * g2`` and ``q2`` the point of
the axis polar to it.  ``q1`` spans, together with the first-family
edge lines, the plane of one ruling family in line space, and ``q2``
does the same for the second family.

Crossing an edge, the pair is transported by a central projection in
line space whose center is the shared edge line (:func:`project_tau`).
Planar vertex stars make that projection send the diagonal of one face
through an end ``v`` of the shared edge onto ``alpha_v`` times the
neighbor's diagonal through ``v``, where, with ``J`` the unnormalised
joins of the diagonals and ``X`` the neighbor's other diagonal,

    alpha_v = <J_f(v), X> / <J_g(v), X>.

The center drops out because the shared edge meets ``X``.  Since
``<J(a, b), J(c, d)>`` is proportional to ``det(b - a, c - a, d - a)``,
these ratios are ratios of tetrahedron volumes: they do not depend on
where the net sits in space, unlike the Pluecker coordinates of its
lines.  In the basis of unnormalised joins a member is one coordinate
``mu`` with ``q1 ~ J1 + mu * J2`` and polar partner ``-mu``, so a
crossing is a scalar map ``mu -> c * mu`` or ``mu -> c / mu`` (the sign
of ``c`` also records whether the shared edge plays different family
roles on its two sides, which exchanges the labels).  Propagation walks
the dual spanning tree with these maps and forms every face's pair from
its coordinate in stacked passes.  Each remaining interior edge is
checked by projecting one side's pair across it, in coordinates local
to the edge, against the pair the other side holds: that sees both a
disagreement of the two routes and a vertex star that is not planar,
which the scalar maps assume.

Around interior vertices of even degree the maps compose to the
identity, so one seed quadric spreads consistently over a simply
connected net; around an odd vertex the quadric returns to itself with
its two ruling families exchanged (``mu`` comes back as ``-mu``), so no
consistently labeled extension exists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .anet import ANet, FaceFrame, diagonal_ends
from .errors import (
    ClosureViolation,
    DegenerateParameter,
    OddVertexDegree,
    ProjectionDegenerate,
)
from .plucker import (
    CLOSURE_EPS,  # the default closure gate, importable from here
    _minors,
    _rowdot,
    _span_signatures,
    canonical,
    hom,
    normalized,
    plucker_product,
)

# A unit edge line whose product with the projection target falls below
# this is (numerically) polar to it, so the central projection is
# undefined; the same floor bounds the normalized tetrahedron volumes of
# a transport ratio.  Generic nets stay far away from this.
PROJECTION_EPS = 1e-10

_RULING_PLANES = {((2, 1, 0), (1, 2, 0)), ((1, 2, 0), (2, 1, 0))}


@dataclass(frozen=True, eq=False)
class FaceHyperboloid:
    """Labeled polar pair on a face's axis.

    ``lam`` is the family coordinate of the member.  ``q1`` and ``q2``
    are canonical 6-vectors with ``<q1, q2> = 0`` and self-products of
    opposite signs.  ``signatures`` are those of the ruling planes
    ``span(first family, q1)`` and ``span(second family, q2)``:
    (2,1,0) and (1,2,0) in some order; their intersections with the
    quadric of lines are the two reguli.
    """

    face: int
    frame: FaceFrame
    lam: float
    q1: np.ndarray
    q2: np.ndarray
    signatures: tuple


def _pairs(frames, lams) -> list:
    """The members ``lams`` of the faces of ``frames`` (one net), formed
    and checked in stacked passes.

    Raises :class:`DegenerateParameter` for the first face in order
    whose coordinate is 0 or not finite, whose polar partner is
    indeterminate, whose pair fails to split into self-products of
    opposite sign, or whose ruling planes are not a (2,1,0)/(1,2,0)
    pair, each read with the frame's ``sig_eps``.
    """
    lam = np.asarray(lams, dtype=float)
    diagonals = canonical(np.array([fr.diagonals for fr in frames]).reshape(-1, 2, 6))
    g1, g2 = diagonals[:, 0], diagonals[:, 1]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        q1 = canonical(g1 + lam[:, None] * g2)
        den = plucker_product(q1, g2)
        q2 = canonical(g1 - (plucker_product(q1, g1) / den)[:, None] * g2)
        s1, s2 = plucker_product(q1, q1), plucker_product(q2, q2)
        early = (lam == 0.0) | ~np.isfinite(lam) | ~(np.abs(den) >= 1e-12)
        early |= ~(s1 * s2 < 0.0)
    n = int(np.argmax(early)) if early.any() else len(frames)
    lines = np.array([fr.h_lines for fr in frames[:n]]).reshape(n, 4, 6)
    planes = np.concatenate(
        [np.concatenate([lines[:, :2], q1[:n, None]], axis=1),
         np.concatenate([lines[:, 2:], q2[:n, None]], axis=1)]
    )
    sig_eps = frames[0].sig_eps
    _, signatures, _ = _span_signatures(planes, 1e-10, sig_eps)
    signatures = [tuple(s) for s in signatures.tolist()]
    pairs = list(zip(signatures[:n], signatures[n:]))
    failing = [k for k, p in enumerate(pairs) if p not in _RULING_PLANES]
    if failing:
        n = failing[0]
    if n < len(frames):
        face, value = frames[n].face, float(lam[n])
        if value == 0.0 or math.isinf(value) or math.isnan(value):
            raise DegenerateParameter(
                f"family parameter {value!r} selects an isotropic diagonal, "
                "where the quadric degenerates to two planes",
                face=face,
                lam=value,
            )
        if not abs(den[n]) >= 1e-12:
            raise DegenerateParameter(
                "polar partner is indeterminate: the parameter is numerically "
                "at the second isotropic diagonal",
                face=face,
                lam=value,
            )
        if not s1[n] * s2[n] < 0.0:
            raise DegenerateParameter(
                "labeled pair fails to split into points of opposite sign "
                f"({s1[n]:.3e}, {s2[n]:.3e}); the quadric degenerates to two "
                "planes",
                face=face,
                products=(float(s1[n]), float(s2[n])),
            )
        raise DegenerateParameter(
            "ruling planes have signatures "
            f"{pairs[n][0]} and {pairs[n][1]}, expected a (2,1,0)/(1,2,0) "
            "pair",
            face=face,
            signatures=pairs[n],
        )
    return [
        FaceHyperboloid(
            face=fr.face, frame=fr, lam=float(lam[k]), q1=q1[k], q2=q2[k],
            signatures=pairs[k],
        )
        for k, fr in enumerate(frames)
    ]


def hyperboloid_from_parameter(frame: FaceFrame, t) -> FaceHyperboloid:
    """Member of the face's family with coordinate ``t``.

    ``q1`` is ``g1 + lam * g2`` in the normalized diagonal basis and
    ``q2`` the point of the axis polar to it (for exactly isotropic
    diagonals ``q2 = g1 - lam * g2``); the pair and its ruling planes
    are signature-checked with the frame's ``sig_eps``.  The one-face
    call of the stacked formation :func:`propagate_all` uses.
    """
    return _pairs([frame], [float(t)])[0]


def project_tau(q, center, target_polar) -> np.ndarray:
    """Central projection of ``q`` into the polar hyperplane of a line.

    The image is the intersection of the pencil spanned by ``q`` and
    ``center`` with the polar hyperplane of ``target_polar``; it fixes
    that hyperplane pointwise and preserves products between vectors
    polar to ``center``.  Propagation uses its scalar form (the module
    docstring); this vector form stays for the benchmark's per-call
    timing of the projection.
    """
    qh = normalized(q)
    hc = normalized(center)
    hf = normalized(target_polar)
    den = plucker_product(hc, hf)
    if abs(den) < PROJECTION_EPS:
        raise ProjectionDegenerate(
            "projection center lies in the polar hyperplane of the target "
            f"line (product {den:.3e})",
            product=float(den),
        )
    image = qh - (plucker_product(qh, hf) / den) * hc
    if float(np.linalg.norm(image)) < 1e-12:
        raise ProjectionDegenerate(
            "point to project coincides with the projection center",
            product=float(den),
        )
    return canonical(image)


def _scales(positions, frames) -> np.ndarray:
    """Per frame the factor ``k`` with ``lam = k * mu``: ``q1 ~ g1 + lam
    g2 ~ J1 + mu J2`` for the unnormalised diagonal joins ``J`` and
    their canonical units ``g = sign * J / |J|``."""
    diagonals = np.array([fr.diagonals for fr in frames]).reshape(-1, 2, 6)
    sign = np.sign(_rowdot(canonical(diagonals), diagonals))
    corners = np.array([fr.corners for fr in frames], dtype=np.intp).reshape(-1, 4)
    ends = hom(np.asarray(positions, dtype=float)[diagonal_ends(corners)])
    joins = _minors(ends[..., 0, :], ends[..., 1, :])
    signed = sign * np.sqrt(_rowdot(joins, joins))
    return signed[:, 1] / signed[:, 0]


def _volumes(points, a, b, c, d):
    """``<J(a, b), J(c, d)>`` up to one common factor for vertex id
    stacks, each join oriented from its lower id, and the volume over
    the product of its three edge lengths."""
    a, b = np.minimum(a, b), np.maximum(a, b)
    c, d = np.minimum(c, d), np.maximum(c, d)
    origin = points[a]
    u, v, w = points[b] - origin, points[c] - origin, points[d] - origin
    cross = np.stack(
        [v[:, 1] * w[:, 2] - v[:, 2] * w[:, 1],
         v[:, 2] * w[:, 0] - v[:, 0] * w[:, 2],
         v[:, 0] * w[:, 1] - v[:, 1] * w[:, 0]], axis=-1
    )
    volume = _rowdot(u, cross)
    lengths = np.sqrt(_rowdot(u, u) * _rowdot(v, v) * _rowdot(w, w))
    return volume, np.abs(volume) / lengths


class _Crossings(NamedTuple):
    """Vertex ids of crossings ``(frame_f, edge, frame_g)`` from face f
    into its neighbor g across their shared edge, as ``(S,)`` arrays:
    ``u1`` the end of the edge on f's first diagonal, ``u2`` the other;
    ``f1``, ``f2`` and ``g1``, ``g2`` the corners of f and of g across
    their diagonals from ``u1`` and ``u2`` (``g1``, ``g2`` span g's far
    edge); ``cf``, ``cg`` the role corners ``(S, 4)``.  ``inverse``
    marks ``u1`` off g's first diagonal and ``swap`` an edge of
    different family roles in the two frames."""

    u1: np.ndarray
    u2: np.ndarray
    f1: np.ndarray
    f2: np.ndarray
    g1: np.ndarray
    g2: np.ndarray
    cf: np.ndarray
    cg: np.ndarray
    inverse: np.ndarray
    swap: np.ndarray

    def rows(self, lo: int, hi: int) -> "_Crossings":
        return _Crossings(*(field[lo:hi] for field in self))


def _crossings(graph, steps) -> _Crossings:
    cf = np.array([s[0].corners for s in steps], dtype=np.intp).reshape(-1, 4)
    cg = np.array([s[2].corners for s in steps], dtype=np.intp).reshape(-1, 4)
    ends = graph.edges[np.array([s[1] for s in steps], dtype=np.intp)]
    rows = np.arange(len(steps))

    def on_first(corners, v):
        return (corners[:, 0] == v) | (corners[:, 3] == v)

    def across(corners, v):
        return corners[rows, 3 - np.argmax(corners == v[:, None], axis=1)]

    first = on_first(cf, ends[:, 0])
    u1 = np.where(first, ends[:, 0], ends[:, 1])
    u2 = np.where(first, ends[:, 1], ends[:, 0])
    swap = [f.family_of_edge(e) != g.family_of_edge(e) for f, e, g in steps]
    return _Crossings(
        u1, u2, across(cf, u1), across(cf, u2), across(cg, u1), across(cg, u2),
        cf, cg, ~on_first(cg, u1), np.array(swap, dtype=bool).reshape(-1),
    )


def _transports(positions, x: _Crossings):
    """Scalar maps of crossings: ``(coef, measure)`` ``(S,)`` with
    ``mu_g`` equal to ``coef * mu_f``, or to ``coef / mu_f`` where
    ``x.inverse`` is set.  ``measure`` is the smallest normalized volume
    among the two ratios and the pair of shared and far edge (the
    projection's own denominator); NaN where the map is not finite."""
    pos = np.asarray(positions, dtype=float)
    num1, m1 = _volumes(pos, x.u1, x.f1, x.u2, x.g2)
    num2, m2 = _volumes(pos, x.u2, x.f2, x.u1, x.g1)
    _, m_far = _volumes(pos, x.u1, x.u2, x.g1, x.g2)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        coef = np.where(x.swap, -1.0, 1.0) * np.where(
            x.inverse, num1 / num2, num2 / num1
        )
    measure = np.minimum(np.minimum(m1, m2), m_far)
    return coef, np.where(np.isfinite(coef), measure, np.nan)


def _check_transports(steps, measure, lo: int, hi: int) -> None:
    """Raise :class:`ProjectionDegenerate` for the first of the crossings
    ``steps[lo:hi]`` whose map degenerates."""
    bad = np.flatnonzero(~(measure[lo:hi] >= PROJECTION_EPS))
    if bad.size:
        k = lo + int(bad[0])
        e = steps[k][1]
        raise ProjectionDegenerate(
            f"transport across edge {e} degenerates (normalized volume "
            f"{measure[k]:.3e})",
            edge=e,
            product=float(measure[k]),
        )


def _apply(coef: float, inverse: bool, mu: float) -> float:
    if not inverse:
        return coef * mu
    return coef / mu if mu else math.inf


def _closure_residuals(positions, x: _Crossings, mu_f, mu_g):
    """Distance between the pair of f projected across the shared edge
    and the pair g holds, per crossing.

    Both pairs are ``J1 +- mu J2`` on their diagonal joins, formed in
    coordinates local to the crossing (origin at the middle of the
    shared edge, unit the largest distance of a corner from it), where
    the projection through the shared edge line into the polar
    hyperplane of g's far edge line is well conditioned.  The distance
    is that of projective points between unit 6-vectors, the larger
    over the two labels.
    """
    pos = np.asarray(positions, dtype=float)
    cf, cg = x.cf, x.cg
    center = 0.5 * (pos[x.u1] + pos[x.u2])
    spread = pos[np.concatenate([cf, cg], axis=1)] - center[:, None]
    unit = np.sqrt(_rowdot(spread, spread)).max(axis=1)

    def local(v):
        return hom((pos[v] - center) / unit[:, None])

    def pairs(corners, mu):
        ends = diagonal_ends(corners)
        j1, j2 = (_minors(local(ends[:, k, 0]), local(ends[:, k, 1])) for k in (0, 1))
        step = np.asarray(mu, dtype=float)[:, None] * j2
        return np.stack([j1 + step, j1 - step], axis=1)

    held = pairs(cg, mu_g)
    q = pairs(cf, mu_f)
    q = np.where(x.swap[:, None, None], q[:, ::-1], q)
    center_line = _minors(local(x.u1), local(x.u2))[:, None]
    far = _minors(local(x.g1), local(x.g2))[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        image = q - (plucker_product(q, far) / plucker_product(center_line, far))[
            ..., None] * center_line
        image /= np.sqrt(_rowdot(image, image))[..., None]
        held /= np.sqrt(_rowdot(held, held))[..., None]
    minus, plus = image - held, image + held
    distance = np.minimum(np.sqrt(_rowdot(minus, minus)), np.sqrt(_rowdot(plus, plus)))
    return distance.max(axis=1)


def transport_parameter(a: ANet, frame: FaceFrame, across: int,
                        neighbor_frame: FaceFrame, lam) -> float:
    """Family coordinate on ``neighbor_frame`` of the member ``lam`` of
    ``frame``'s face, carried across their shared edge ``across``.

    The scalar form of projecting the labeled pair through the shared
    edge line into the neighbor's axis: labels follow the ruling
    families, so they swap exactly when the edge plays different family
    roles in the two frames.  Raises :class:`ProjectionDegenerate` when
    the transport ratio vanishes or is not finite.
    """
    steps = [(frame, across, neighbor_frame)]
    crossing = _crossings(a.graph, steps)
    coef, measure = _transports(a.positions, crossing)
    _check_transports(steps, measure, 0, 1)
    k_f, k_g = _scales(a.positions, [frame, neighbor_frame])
    return k_g * _apply(float(coef[0]), bool(crossing.inverse[0]), float(lam) / k_f)


def propagate_all(a: ANet, seed_face: int, t):
    """Spread one face's adapted quadric over the whole net.

    Walks the dual spanning tree from ``seed_face``, carrying the family
    coordinate across each tree edge by its scalar transport, then
    checks every remaining interior edge for agreement of the two
    routes: the pair predicted across the edge against the pair the
    face holds, in the distance of projective points.  Returns
    ``(hyperboloids, report)`` with one :class:`FaceHyperboloid` per
    face; the report records the seed, the parameter, all closure
    residuals, and the per-face ruling-plane signatures.

    Raises, in this order: :class:`OddVertexDegree` if any interior
    vertex has odd degree (no consistent propagation exists);
    ``DisconnectedMesh`` from the dual tree; ``NonGenericPair`` from the
    frames; :class:`ProjectionDegenerate` for a tree edge whose
    transport degenerates; :class:`DegenerateParameter` for the first
    face in BFS order whose member degenerates; ``ProjectionDegenerate``
    for a non-tree edge; and :class:`ClosureViolation` if a non-tree
    edge disagrees beyond ``a.tol.closure``, as happens on nets that
    only approximately have planar stars or on non-simply-connected
    meshes with monodromy.
    """
    even, offenders = a.graph.interior_degrees_even()
    if not even:
        raise OddVertexDegree(
            f"interior vertices {offenders} have odd degree, so no "
            "consistent propagation exists",
            vertices=tuple(offenders),
        )
    lam = float(t)
    frames, tree = a.frames_from(seed_face)
    order = list(frames)  # BFS order, the seed first
    row = {f: k for k, f in enumerate(order)}
    edge_faces = a.graph.edge_faces
    interior = np.all(edge_faces >= 0, axis=1)
    interior[[shared for _, _, shared in tree]] = False
    ends = np.sort(edge_faces[interior], axis=1).tolist()
    closing = [
        (e, src, dst)
        for e, (src, dst) in zip(np.flatnonzero(interior).tolist(), ends)
    ]
    steps = [(frames[parent], shared, frames[face]) for face, parent, shared in tree]
    steps += [(frames[src], e, frames[dst]) for e, src, dst in closing]
    crossings = _crossings(a.graph, steps)
    coef, measure = _transports(a.positions, crossings)
    _check_transports(steps, measure, 0, len(tree))

    scale = _scales(a.positions, [frames[f] for f in order])
    mu = [lam / float(scale[0])]
    maps = zip(coef.tolist(), crossings.inverse.tolist(), tree)
    for c, inverse, (_, parent, _) in maps:
        mu.append(_apply(c, inverse, mu[row[parent]]))
    lams = np.array(mu) * scale
    lams[0] = lam
    members = _pairs([frames[f] for f in order], lams)
    _check_transports(steps, measure, len(tree), len(steps))

    closure_residuals = {}
    worst = 0.0
    worst_edge = None
    if closing:
        closure = crossings.rows(len(tree), len(steps))
        residuals = _closure_residuals(
            a.positions,
            closure,
            [mu[row[src]] for _, src, _ in closing],
            [mu[row[dst]] for _, _, dst in closing],
        )
        for (e, _, _), residual in zip(closing, residuals.tolist()):
            closure_residuals[e] = residual
            if residual > worst:
                worst = residual
                worst_edge = e

    hyperboloids = {hb.face: hb for hb in members}
    report = {
        "seed_face": seed_face,
        "lambda": lam,
        "closure_residuals": closure_residuals,
        "worst_closure_residual": worst,
        "worst_closure_edge": worst_edge,
        "face_signatures": {
            f: hb.signatures for f, hb in sorted(hyperboloids.items())
        },
    }
    if worst > a.tol.closure:
        raise ClosureViolation(
            f"propagation around edge {worst_edge} disagrees by {worst:.3e} "
            f"(tolerance {a.tol.closure:.1e})",
            edge=worst_edge,
            residual=worst,
            report=report,
        )
    return hyperboloids, report

"""Adapted doubly ruled quadrics per face and their propagation.

Every face of a net with planar stars carries a 1-parameter family of
doubly ruled quadrics containing its four edge lines.  A member is
encoded by a labeled polar pair ``(q1, q2)`` on the face's axis, the
line of line space through the face's two diagonals ``g1``, ``g2`` (its
isotropic points): ``q1`` is ``g1 + lam * g2`` and ``q2`` the point of
the axis polar to it.  ``q1`` spans, together with the first-family
edge lines, the plane of one ruling family in line space, and ``q2``
does the same for the second family.  A member is held as ``lam`` alone.

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
the dual spanning tree with these maps and checks every face's
coordinate in stacked passes.  Each remaining interior edge is
checked by projecting one side's pair across it, in coordinates local
to the edge, against the pair the other side holds: that sees both a
disagreement of the two routes and a vertex star that is not planar,
which the scalar maps assume.

The signatures of both ruling planes of a member are read in closed
form: two opposite edge lines ``a``, ``b`` are isotropic with product
``p = <a, b>`` and polar to the axis, so the plane they span with ``q``
has the inertia of ``[[0, p], [p, 0]]`` plus the sign of ``<q, q>``.
The joins are isotropic too, so ``<J1 + mu J2, J1 + mu J2> = 2 mu <J1,
J2>`` and the partner ``J1 - mu J2`` has the negative: the first plane
reads (2,1,0) exactly when ``mu <J1, J2>``, a positive multiple of
``lam <g1, g2>``, is positive, and the pair splits whenever it is
nonzero (:func:`_members`).  That sign is exact once the coordinate and
the face volume are finite and nonzero; the signature cutoff reads its
size in face-local units.

Around interior vertices of even degree the maps compose to the
identity, so one seed quadric spreads consistently over a simply
connected net; around an odd vertex the quadric returns to itself with
its two ruling families exchanged (``mu`` comes back as ``-mu``), so no
consistently labeled extension exists.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .anet import ANet, FaceFrame, FrameStack, diagonal_ends
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

# the signatures of a ruling plane pair, in this order or reversed
_RULING_PLANES = np.array([[2, 1, 0], [1, 2, 0]])


@dataclass(frozen=True, eq=False)
class FaceHyperboloid:
    """The member ``lam`` of a face: one row of a
    :class:`HyperboloidStack`, read as ``stack[face]``."""

    face: int
    frame: FaceFrame
    lam: float

    @property
    def q1(self) -> np.ndarray:
        """The member's first point, the canonical ``g1 + lam g2``."""
        g1, g2 = canonical(self.frame.diagonals)
        return canonical(g1 + self.lam * g2)


@dataclass(frozen=True, eq=False)
class HyperboloidStack(Mapping):
    """The members of several faces of one net, one row per face in
    ascending face order: their ``frames`` (a :class:`FrameStack`),
    coordinates ``lams`` ``(F,)`` and ``scales`` ``(F,)``, the factor
    ``k`` of :func:`_scales` in ``lam = k * mu`` for the coordinate
    ``mu`` on the unnormalised diagonal joins.  Read as a mapping it
    sends every face id, ascending, to its :class:`FaceHyperboloid`."""

    frames: FrameStack
    lams: np.ndarray
    scales: np.ndarray

    @classmethod
    def of(cls, members, positions) -> "HyperboloidStack":
        members = sorted(members, key=lambda hb: hb.face)
        frames = FrameStack.of(hb.frame for hb in members)
        lams = np.array([hb.lam for hb in members], dtype=float)
        return cls(frames, lams, _scales(positions, frames))

    def __len__(self) -> int:
        return len(self.lams)

    def __iter__(self):
        return iter(self.frames.faces.tolist())

    def __getitem__(self, face) -> FaceHyperboloid:
        faces = self.frames.faces
        k = int(np.searchsorted(faces, face))
        if k == len(faces) or faces[k] != face:
            raise KeyError(face)
        return FaceHyperboloid(int(faces[k]), self.frames[k], float(self.lams[k]))


def _members(positions, frames: FrameStack, lams, scales):
    """The members ``lams`` of the faces of ``frames``, on a net at
    ``positions`` where :func:`_scales` reads ``scales``, checked in
    stacked passes: ``(members, signatures)``, the
    :class:`HyperboloidStack` and the ruling-plane signatures ``(F, 2,
    3)`` in ascending face order.

    Raises :class:`DegenerateParameter` for the first face in the order
    of ``frames`` whose coordinate is 0 or not finite; whose polar
    partner is indeterminate (``|<q1, g2>| = |<g1, g2>| / |g1 + lam
    g2|`` below ``1e-12 |<g1, g2>|``); or whose face-local unit
    self-products of ``j1 +- mu j2`` (``mu = lam / k``), ``+-2 mu <j1,
    j2> / |j1 +- mu j2|^2`` as joins are isotropic, fail to take
    opposite signs or fall below the frames' ``sig_eps``.  The first
    plane reads (2,1,0) where the first is positive (module docstring).
    """
    lam = np.asarray(lams, dtype=float)
    g1, g2 = np.moveaxis(canonical(frames.diagonals), 1, 0)
    # the diagonal joins in face-local units: origin at the centroid of
    # the corners, unit their largest distance from it
    ends = np.asarray(positions, dtype=float)[diagonal_ends(frames.corners)]
    ends -= ends.mean(axis=(1, 2), keepdims=True)
    ends /= np.sqrt(_rowdot(ends, ends).max(axis=(1, 2)))[:, None, None, None]
    j1, j2 = np.moveaxis(_minors(hom(ends[:, :, 0]), hom(ends[:, :, 1])), 1, 0)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # |g1 + lam g2|^2 of the unit diagonals against (1e12)^2
        partner = 1.0 + lam * (2.0 * _rowdot(g1, g2) + lam) <= 1e24
        mu = lam / scales
        twice = 2.0 * mu * plucker_product(j1, j2)
        square = _rowdot(j1, j1) + mu * mu * _rowdot(j2, j2)
        cross = 2.0 * mu * _rowdot(j1, j2)
        units = np.stack([twice / (square + cross), -twice / (square - cross)], axis=1)
    split = units[:, 0] * units[:, 1] < 0.0
    flat = ~(np.abs(units).min(axis=1) >= frames.sig_eps)
    failing = (lam == 0.0) | ~np.isfinite(lam) | ~partner | ~split | flat
    if failing.any():
        n = int(np.argmax(failing))
        face, value = int(frames.faces[n]), float(lam[n])
        if value == 0.0 or math.isinf(value) or math.isnan(value):
            raise DegenerateParameter(
                f"family parameter {value!r} selects an isotropic diagonal, "
                "where the quadric degenerates to two planes",
                face=face,
                lam=value,
            )
        if not partner[n]:
            raise DegenerateParameter(
                "polar partner is indeterminate: the parameter is numerically "
                "at the second isotropic diagonal",
                face=face,
                lam=value,
            )
        first, second = units[n].tolist()
        if not split[n]:
            raise DegenerateParameter(
                "labeled pair fails to split into points of opposite sign "
                f"({first:.3e}, {second:.3e}); the quadric degenerates to two "
                "planes",
                face=face,
                products=(first, second),
            )
        raise DegenerateParameter(
            f"ruling planes are degenerate: the labeled pair's face-local "
            f"self-products ({first:.3e}, {second:.3e}) fall below the "
            f"signature cutoff {frames.sig_eps:.1e}",
            face=face,
            products=(first, second),
        )
    signatures = _RULING_PLANES[np.where(units[:, :1] > 0.0, [0, 1], [1, 0])]
    order = np.argsort(frames.faces, kind="stable")
    return HyperboloidStack(frames.take(order), lam[order], scales[order]), signatures[order]


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


def _scales(positions, frames: FrameStack) -> np.ndarray:
    """Per frame the factor ``k`` with ``lam = k * mu``: ``q1 ~ g1 + lam
    g2 ~ J1 + mu J2`` for the unnormalised diagonal joins ``J`` and
    their canonical units ``g = sign * J / |J|``."""
    sign = np.sign(_rowdot(canonical(frames.diagonals), frames.diagonals))
    ends = hom(np.asarray(positions, dtype=float)[diagonal_ends(frames.corners)])
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
    """Vertex ids of crossings from face f into its neighbor g across
    their shared edge, as ``(S,)`` arrays: ``u1`` the end of the edge on
    f's first diagonal, ``u2`` the other; ``f1``, ``f2`` and ``g1``,
    ``g2`` the corners of f and of g across their diagonals from ``u1``
    and ``u2`` (``g1``, ``g2`` span g's far edge); ``cf``, ``cg`` the
    role corners ``(S, 4)``.  ``inverse`` marks ``u1`` off g's first
    diagonal and ``swap`` an edge of different family roles in the two
    frames."""

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


def _crossings(graph, frames: FrameStack, f, edges, g) -> _Crossings:
    """The crossings from the rows ``f`` of ``frames`` into the rows
    ``g`` across the shared ``edges``, all ``(S,)`` arrays."""
    cf, cg = frames.corners[f], frames.corners[g]
    ends = graph.edges[edges]
    rows = np.arange(len(ends))

    def on_first(corners, v):
        return (corners[:, 0] == v) | (corners[:, 3] == v)

    def across(corners, v):
        return corners[rows, 3 - np.argmax(corners == v[:, None], axis=1)]

    def first_family(row):
        return np.argmax(frames.h_edges[row] == edges[:, None], axis=1) < 2

    first = on_first(cf, ends[:, 0])
    u1 = np.where(first, ends[:, 0], ends[:, 1])
    u2 = np.where(first, ends[:, 1], ends[:, 0])
    return _Crossings(
        u1, u2, across(cf, u1), across(cf, u2), across(cg, u1), across(cg, u2),
        cf, cg, ~on_first(cg, u1), first_family(f) != first_family(g),
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


def _check_transports(edges, measure, lo: int, hi: int) -> None:
    """Raise :class:`ProjectionDegenerate` for the first of the crossings
    ``lo`` to ``hi`` (across ``edges[lo:hi]``) whose map degenerates."""
    bad = np.flatnonzero(~(measure[lo:hi] >= PROJECTION_EPS))
    if bad.size:
        k = lo + int(bad[0])
        e = int(edges[k])
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
    frames = FrameStack.of([frame, neighbor_frame])
    if not (frames.h_edges == across).any(axis=1).all():
        raise KeyError(f"edge {across} does not bound both faces")
    edges = np.array([across])
    crossing = _crossings(a.graph, frames, [0], edges, [1])
    coef, measure = _transports(a.positions, crossing)
    _check_transports(edges, measure, 0, 1)
    k_f, k_g = _scales(a.positions, frames)
    return k_g * _apply(float(coef[0]), bool(crossing.inverse[0]), float(lam) / k_f)


def propagate_all(a: ANet, seed_face: int, t):
    """Spread one face's adapted quadric over the whole net.

    Walks the dual spanning tree from ``seed_face``, carrying the family
    coordinate across each tree edge by its scalar transport, then
    checks every remaining interior edge for agreement of the two
    routes: the pair predicted across the edge against the pair the
    face holds, in the distance of projective points.  Returns
    ``(hyperboloids, report)``: the members as one
    :class:`HyperboloidStack`, a read-only mapping from every face id,
    ascending, to its :class:`FaceHyperboloid` (the walk itself runs in
    BFS order); the report records the seed, the parameter, all closure
    residuals, and the per-face ruling-plane signatures.

    Raises, in this order: :class:`OddVertexDegree` if any interior
    vertex has odd degree (no consistent propagation exists);
    ``ValueError`` for a seed that is not a face id and
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
    # rows of the frames: the seed, then every tree face in BFS order
    row = np.empty(len(frames), dtype=np.intp)
    row[frames.faces] = np.arange(len(frames))
    edge_faces = a.graph.edge_faces
    interior = np.all(edge_faces >= 0, axis=1)
    interior[tree[:, 2]] = False
    closing = np.flatnonzero(interior)
    src, dst = np.sort(edge_faces[closing], axis=1).T
    # the tree crossings, then the closing ones
    f_rows = np.concatenate([row[tree[:, 1]], row[src]])
    g_rows = np.concatenate([np.arange(1, len(frames)), row[dst]])
    edges = np.concatenate([tree[:, 2], closing])
    crossings = _crossings(a.graph, frames, f_rows, edges, g_rows)
    coef, measure = _transports(a.positions, crossings)
    steps = len(tree)
    _check_transports(edges, measure, 0, steps)

    scale = _scales(a.positions, frames)
    mu = [lam / float(scale[0])]
    maps = zip(coef.tolist(), crossings.inverse.tolist(), f_rows[:steps].tolist())
    for c, inverse, parent in maps:
        mu.append(_apply(c, inverse, mu[parent]))
    mu = np.array(mu)
    lams = mu * scale
    lams[0] = lam
    members, signatures = _members(a.positions, frames, lams, scale)
    _check_transports(edges, measure, steps, len(edges))

    residuals = _closure_residuals(
        a.positions, crossings.rows(steps, len(edges)),
        mu[f_rows[steps:]], mu[g_rows[steps:]],
    )
    # the first largest residual, where one is positive (NaN never is)
    positive = np.append(np.where(residuals > 0.0, residuals, 0.0), 0.0)
    k = int(np.argmax(positive))
    worst = float(positive[k])
    worst_edge = int(closing[k]) if worst > 0.0 else None
    report = {
        "seed_face": seed_face,
        "lambda": lam,
        "closure_residuals": dict(zip(closing.tolist(), residuals.tolist())),
        "worst_closure_residual": worst,
        "worst_closure_edge": worst_edge,
        "face_signatures": dict(zip(members.frames.faces.tolist(), signatures.tolist())),
    }
    if worst > a.tol.closure:
        raise ClosureViolation(
            f"propagation around edge {worst_edge} disagrees by {worst:.3e} "
            f"(tolerance {a.tol.closure:.1e})",
            edge=worst_edge,
            residual=worst,
            report=report,
        )
    return members, report

"""Adapted doubly ruled quadrics per face and their propagation.

Every face of a net with planar stars carries a 1-parameter family of
doubly ruled quadrics containing its four edge lines.  A member is
encoded by a labeled polar pair ``(q1, q2)`` on the face's axis: ``q1``
spans, together with the first-family edge lines, the plane of one
ruling family in line space, and ``q2`` does the same for the second
family.  Crossing an edge, the pair is transported by a central
projection in line space whose center is the shared edge line; planar
vertex stars are exactly what makes the image land on the neighbor's
axis.  Around interior vertices of even degree these projections
compose to the identity, so one seed quadric spreads consistently over
a simply connected net; around an odd vertex the quadric returns to
itself with its two ruling families exchanged, so no consistently
labeled extension exists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .anet import ANet, FaceFrame
from .errors import (
    ClosureViolation,
    DegenerateParameter,
    OddVertexDegree,
    ProjectionDegenerate,
)
from .plucker import (
    CLOSURE_EPS,  # the default closure gate, importable from here
    Subspace,
    canonical,
    normalized,
    plucker_product,
    proj_distance,
    self_product,
    span,
)

# A unit edge line whose product with the projection target falls below
# this is (numerically) polar to it, so the central projection is
# undefined; generic nets stay far away from this.
PROJECTION_EPS = 1e-10


@dataclass(frozen=True, eq=False)
class FaceHyperboloid:
    """Labeled polar pair on a face's axis with its two ruling planes.

    ``q1`` and ``q2`` are canonical 6-vectors with ``<q1, q2> = 0`` and
    self-products of opposite signs.  ``P1 = span(first family, q1)``
    and ``P2 = span(second family, q2)`` are mutually polar planes of
    signatures (2,1,0) and (1,2,0) in some order; their intersections
    with the quadric of lines are the two reguli.
    """

    face: int
    frame: FaceFrame
    q1: np.ndarray
    q2: np.ndarray
    P1: Subspace
    P2: Subspace


def _assemble(frame: FaceFrame, q1, q2) -> FaceHyperboloid:
    s1 = self_product(q1)
    s2 = self_product(q2)
    if not s1 * s2 < 0.0:
        raise DegenerateParameter(
            "labeled pair fails to split into points of opposite sign "
            f"({s1:.3e}, {s2:.3e}); the quadric degenerates to two planes",
            face=frame.face,
            products=(float(s1), float(s2)),
        )
    p1 = span(np.vstack([frame.h_lines[:2], q1]), sig_eps=frame.sig_eps)
    p2 = span(np.vstack([frame.h_lines[2:], q2]), sig_eps=frame.sig_eps)
    if {p1.signature, p2.signature} != {(2, 1, 0), (1, 2, 0)}:
        raise DegenerateParameter(
            "ruling planes have signatures "
            f"{p1.signature} and {p2.signature}, expected a (2,1,0)/(1,2,0) "
            "pair",
            face=frame.face,
            signatures=(p1.signature, p2.signature),
        )
    return FaceHyperboloid(
        face=frame.face,
        frame=frame,
        q1=canonical(q1),
        q2=canonical(q2),
        P1=p1,
        P2=p2,
    )


def hyperboloid_from_parameter(frame: FaceFrame, t) -> FaceHyperboloid:
    """Member of the face's family with coordinate ``t``.

    ``q1`` is ``g1 + lam * g2`` in the normalized diagonal basis and
    ``q2`` the point of the axis polar to it (for exactly isotropic
    diagonals ``q2 = g1 - lam * g2``); the pair and its ruling planes
    are signature-checked with the frame's ``sig_eps``.
    """
    lam = float(t)
    if lam == 0.0 or math.isinf(lam) or math.isnan(lam):
        raise DegenerateParameter(
            f"family parameter {lam!r} selects an isotropic diagonal, "
            "where the quadric degenerates to two planes",
            face=frame.face,
            lam=lam,
        )
    g1 = canonical(frame.diagonals[0])
    g2 = canonical(frame.diagonals[1])
    q1 = canonical(g1 + lam * g2)
    num = plucker_product(q1, g1)
    den = plucker_product(q1, g2)
    if abs(den) < 1e-12:
        raise DegenerateParameter(
            "polar partner is indeterminate: the parameter is numerically "
            "at the second isotropic diagonal",
            face=frame.face,
            lam=lam,
        )
    q2 = canonical(g1 - (num / den) * g2)
    return _assemble(frame, q1, q2)


def family_parameter_of(frame: FaceFrame, q) -> float:
    """Coordinate ``lam`` with ``q`` proportional to ``g1 + lam * g2``.

    Least-squares in the face's normalized diagonal basis; a point on
    (or numerically at) the second diagonal has no finite coordinate.
    """
    basis = np.stack(
        [canonical(frame.diagonals[0]), canonical(frame.diagonals[1])],
        axis=1,
    )
    coef, *_ = np.linalg.lstsq(basis, normalized(q), rcond=None)
    alpha, beta = float(coef[0]), float(coef[1])
    if abs(alpha) < 1e-12 * float(np.linalg.norm(coef)):
        raise DegenerateParameter(
            "point lies on the second isotropic diagonal; its family "
            "coordinate is infinite",
            face=frame.face,
        )
    return beta / alpha


def project_tau(q, center, target_polar) -> np.ndarray:
    """Central projection of ``q`` into the polar hyperplane of a line.

    The image is the intersection of the pencil spanned by ``q`` and
    ``center`` with the polar hyperplane of ``target_polar``; it fixes
    that hyperplane pointwise and preserves products between vectors
    polar to ``center``.
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


def propagate_face(
    hb: FaceHyperboloid, across: int, neighbor_frame: FaceFrame
) -> FaceHyperboloid:
    """Transport a labeled pair across a shared edge.

    Both points are projected through the shared edge line into the
    polar hyperplane of the neighbor's opposite edge; labels follow the
    ruling families, which continue straight across the edge, so they
    swap exactly when the shared edge plays different family roles in
    the two frames.
    """
    center = hb.frame.line_of_edge(across)
    far_edge = neighbor_frame.opposite_in_family(across)
    far = neighbor_frame.line_of_edge(far_edge)
    t1 = project_tau(hb.q1, center, far)
    t2 = project_tau(hb.q2, center, far)
    same_role = hb.frame.family_of_edge(across) == neighbor_frame.family_of_edge(
        across
    )
    q1, q2 = (t1, t2) if same_role else (t2, t1)
    return _assemble(neighbor_frame, q1, q2)


def propagate_all(a: ANet, seed_face: int, t):
    """Spread one face's adapted quadric over the whole net.

    Walks the dual spanning tree from ``seed_face``, transporting the
    labeled pair across each tree edge, then checks every remaining
    interior edge for agreement of the two routes.  Returns
    ``(hyperboloids, report)`` with one :class:`FaceHyperboloid` per
    face; the report records the seed, the parameter, all closure
    residuals, and the per-face ruling-plane signatures.

    Raises :class:`OddVertexDegree` if any interior vertex has odd
    degree (no consistent propagation exists) and
    :class:`ClosureViolation` if a non-tree edge disagrees beyond
    ``a.tol.closure``, as happens on nets that only approximately have planar
    stars or on non-simply-connected meshes with monodromy.
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
    hyperboloids = {seed_face: hyperboloid_from_parameter(frames[seed_face], lam)}
    tree_edges = set()
    for face, parent, shared in tree:
        tree_edges.add(shared)
        hyperboloids[face] = propagate_face(
            hyperboloids[parent], shared, frames[face]
        )

    closure_residuals = {}
    worst = 0.0
    worst_edge = None
    for e in range(a.graph.edge_count):
        f, g = a.graph.edge_faces(e)
        if f is None or g is None or e in tree_edges:
            continue
        src, dst = min(f, g), max(f, g)
        image = propagate_face(hyperboloids[src], e, frames[dst])
        held = hyperboloids[dst]
        residual = max(
            proj_distance(image.q1, held.q1),
            proj_distance(image.q2, held.q2),
        )
        closure_residuals[e] = residual
        if residual > worst:
            worst = residual
            worst_edge = e

    report = {
        "seed_face": seed_face,
        "lambda": lam,
        "closure_residuals": closure_residuals,
        "worst_closure_residual": worst,
        "worst_closure_edge": worst_edge,
        "face_signatures": {
            f: (hb.P1.signature, hb.P2.signature)
            for f, hb in sorted(hyperboloids.items())
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

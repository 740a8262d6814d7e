"""Nets with planar vertex stars over a quad mesh.

A net assigns a spatial position to every vertex of a :class:`QuadGraph`
such that each vertex and all its neighbors are coplanar.  The edges
then carry well-defined lines (the discrete asymptotic lines); per face,
the four edge lines span a rank-4 subspace of line space whose polar is
a projective line of signature (1,1,0), and the two spatial diagonals of
the face are exactly its isotropic points.

Validation enforces, per face, that the quad is non-planar and that
opposite edge lines are skew; per vertex, that the incident edge lines
form a genuine pencil (rank 2).  These are the genericity conditions the
construction algorithms rely on; global pairwise skewness of all edge
lines is deliberately not enforced.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import (
    CoincidentPoints,
    DegenerateFace,
    NonGenericPair,
    NonPlanarStar,
)
from .plucker import (
    PLANAR_EPS,  # the default star-planarity gate, importable from here
    Subspace,
    Tolerances,
    canonical,
    hom,
    line_from_points,
    plucker_product,
    polar,
    span,
)
from .quadgraph import QuadGraph

FACE_VOLUME_EPS = 1e-10
SKEW_PAIR_EPS = 1e-10
# Faces per batch of ANet.face_twists: small batches keep its temporary
# arrays at about 100 kB, so the twist table adds nothing to the peak
# memory of checking a large net.
TWIST_CHUNK = 1024
# Rank cutoff for vertex pencils of edge lines.  A net passing the
# planarity check at PLANAR_EPS can carry spurious pencil directions of
# comparable relative size, so this must sit well above PLANAR_EPS while
# staying far below the O(1) singular values of genuinely independent
# lines.
PENCIL_RANK_TOL = 1e-6


def _star_points(graph: QuadGraph, positions, v: int):
    neighbors, _ = graph.vertex_star(v)
    return np.array([positions[v]] + [positions[n] for n in neighbors])


def star_plane(points):
    """Best-fit plane of a point cloud as a homogeneous covector.

    Returns ``(plane, residual, diameter)`` where ``plane @ (x,y,z,1)``
    vanishes on the cloud up to ``residual`` (max distance) and
    ``diameter`` is the largest pairwise distance.
    """
    pts = np.asarray(points, dtype=float)
    centroid = pts.mean(axis=0)
    centered = pts - centroid
    _, _, vt = np.linalg.svd(centered, full_matrices=True)
    normal = vt[-1]
    residual = float(np.max(np.abs(centered @ normal)))
    diffs = pts[:, None, :] - pts[None, :, :]
    diameter = float(np.sqrt(np.max(np.sum(diffs**2, axis=-1))))
    plane = canonical(np.append(normal, -normal @ centroid))
    return plane, residual, diameter


def face_volume_ratio(positions, quad):
    """|det of edge span| normalized by cubed mean edge length."""
    p = [np.asarray(positions[v], dtype=float) for v in quad]
    det = np.linalg.det(np.array([p[1] - p[0], p[2] - p[0], p[3] - p[0]]))
    edges = [p[(k + 1) % 4] - p[k] for k in range(4)]
    scale = np.mean([np.linalg.norm(e) for e in edges])
    if scale == 0.0:
        return 0.0
    return abs(det) / scale**3


@dataclass(frozen=True)
class FaceFrame:
    """Edge lines of one face in role order, with diagonals and axis.

    ``corners`` lists the vertex ids in the role order (x, x1, x2, x12),
    derived from the entry half-edge x → x2: the entry edge and its
    opposite form the second family, the other two edges the first.
    ``h_lines`` rows are the lines of (h1, h1_shift2, h2, h2_shift1),
    i.e. first family then second family, each as (line at x, shifted
    copy).  ``diagonals`` rows are g1 = line(x, x12), g2 = line(x1, x2),
    oriented from the lower vertex id; both are isotropic points of the
    polar line ``H_line`` of the face's span.  ``sig_eps`` is the
    signature cutoff of the net the frame belongs to; every later
    signature read on the face's quadrics uses it too.
    """

    face: int
    entry_half_edge: int
    corners: tuple[int, int, int, int]
    h_lines: np.ndarray
    h_edges: tuple[int, int, int, int]
    diagonals: np.ndarray
    H_line: Subspace
    sig_eps: float

    def family_of_edge(self, e: int) -> int:
        """1 or 2 according to which role pair edge ``e`` plays here."""
        if e in (self.h_edges[0], self.h_edges[1]):
            return 1
        if e in (self.h_edges[2], self.h_edges[3]):
            return 2
        raise KeyError(f"edge {e} does not bound face {self.face}")

    def line_of_edge(self, e: int):
        for k in range(4):
            if self.h_edges[k] == e:
                return self.h_lines[k]
        raise KeyError(f"edge {e} does not bound face {self.face}")

    def opposite_in_family(self, e: int) -> int:
        """The other edge of the role pair containing ``e``."""
        pairs = {
            self.h_edges[0]: self.h_edges[1],
            self.h_edges[1]: self.h_edges[0],
            self.h_edges[2]: self.h_edges[3],
            self.h_edges[3]: self.h_edges[2],
        }
        return pairs[e]


class ANet:
    """Validated net with planar stars over a quad mesh.

    ``tol`` is the :class:`Tolerances` value the net was validated with;
    its face frames read signatures with ``tol.sig`` and propagation
    checks closure against ``tol.closure``.
    """

    def __init__(
        self,
        graph: QuadGraph,
        positions,
        contact_planes,
        edge_lines,
        planarity_residuals,
        star_diameters,
        tol: Tolerances = Tolerances(),
    ) -> None:
        self.graph = graph
        self.positions = positions
        self.contact_planes = contact_planes
        self.edge_lines = edge_lines
        self.planarity_residuals = planarity_residuals
        self.star_diameters = star_diameters
        self.tol = tol

    # --- frames ---------------------------------------------------------------

    def face_frame(self, f: int, entry_half_edge: int | None = None) -> FaceFrame:
        """Role frame of face ``f``.

        ``entry_half_edge`` fixes which edge plays the second-family
        role (it must be a half-edge of ``f``); by default the face's
        lowest-indexed half-edge is used, which is the deterministic
        rule for seed and standalone faces.
        """
        g = self.graph
        if entry_half_edge is None:
            entry_half_edge = g.faces[f][0]
        cycle, corners = self._role_cycle(f, entry_half_edge)
        h_cycle_ids = (cycle[3], cycle[1], cycle[0], cycle[2])
        h_edges = tuple(g.half_edges[h].edge for h in h_cycle_ids)
        h_lines = np.array([self.edge_lines[e] for e in h_edges])
        x, x1, x2, x12 = corners
        diagonals = np.array(
            [
                self._diagonal_line(x, x12),
                self._diagonal_line(x1, x2),
            ]
        )
        face_span = span(h_lines, sig_eps=self.tol.sig)
        if face_span.signature != (2, 2, 0):
            raise NonGenericPair(
                f"edge lines of face {f} have signature "
                f"{face_span.signature}, expected (2, 2, 0)",
                face=f,
                signature=face_span.signature,
            )
        axis = polar(face_span, self.tol.sig)
        if axis.signature != (1, 1, 0):
            raise NonGenericPair(
                f"axis of face {f} has signature {axis.signature}",
                face=f,
                signature=axis.signature,
            )
        return FaceFrame(
            face=f,
            entry_half_edge=entry_half_edge,
            corners=corners,
            h_lines=h_lines,
            h_edges=h_edges,
            diagonals=diagonals,
            H_line=axis,
            sig_eps=self.tol.sig,
        )

    def face_corners(self, f: int) -> tuple[int, int, int, int]:
        """Vertex ids ``(x, x1, x2, x12)`` of face ``f`` in role order.

        Equal to ``face_frame(f).corners`` without building the frame's
        lines and axis.
        """
        return self._role_cycle(f, self.graph.faces[f][0])[1]

    def _role_cycle(self, f: int, entry_half_edge: int):
        """Half-edges of face ``f`` in cycle order from the entry
        half-edge, and the role corners ``(x, x1, x2, x12)`` read off
        their origins."""
        g = self.graph
        if g.half_edges[entry_half_edge].face != f:
            raise ValueError(
                f"half-edge {entry_half_edge} does not bound face {f}"
            )
        k = g.faces[f].index(entry_half_edge)
        cycle = [g.faces[f][(k + i) % 4] for i in range(4)]
        o, d, n, p = (g.half_edges[h].origin for h in cycle)
        return cycle, (o, p, d, n)

    def _diagonal_line(self, u: int, v: int):
        lo, hi = min(u, v), max(u, v)
        return line_from_points(
            hom([self.positions[lo]])[0], hom([self.positions[hi]])[0]
        )

    def frames_from(self, seed: int):
        """Frames for every face, entries assigned by dual BFS from seed.

        Returns ``(frames, tree)`` where ``tree`` is the spanning tree
        of ``dual_spanning_tree(seed)``.
        """
        g = self.graph
        tree = g.dual_spanning_tree(seed)
        frames = {seed: self.face_frame(seed)}
        for face, _parent, shared in tree:
            entry = g.half_edge_in_face(face, shared)
            frames[face] = self.face_frame(face, entry)
        return frames, tree

    # --- twist -------------------------------------------------------------------

    def twist_for_edge(self, f: int, e: int) -> int:
        """Twist sign of the opposite-edge pair of face ``f`` through ``e``,
        read from :attr:`face_twists`."""
        return int(self.face_twists[f, self.graph.face_edges(f).index(e) % 2])

    @cached_property
    def face_twists(self) -> np.ndarray:
        """Twist signs ``(F, 2)`` of both opposite-edge pairs of every face.

        Column ``k`` of row ``f`` is the pair through edge
        ``graph.face_edges(f)[k]``: the sign of the 4x4 determinant of the
        homogeneous corners with the pair's edges traversed in parallel,
        which for corners ``c0..c3`` in cycle order is
        ``det(c1 - c0, c2 - c0, c3 - c0)`` for the first pair and its
        negative for the second.  That determinant also feeds the
        ``FACE_VOLUME_EPS`` guard of :func:`face_volume_ratio`
        (:class:`DegenerateFace` for the lowest face that fails it).
        Computed once per net.
        """
        g = self.graph
        pos = np.asarray(self.positions, dtype=float)
        first = np.empty(g.face_count, dtype=int)
        for lo in range(0, g.face_count, TWIST_CHUNK):
            faces = range(lo, min(lo + TWIST_CHUNK, g.face_count))
            p = pos[[g.face_vertices(f) for f in faces]]
            det = np.linalg.det(p[:, 1:] - p[:, :1])
            edges = np.linalg.norm(np.roll(p, -1, axis=1) - p, axis=-1)
            scale = np.mean(edges, axis=-1)
            ratio = np.divide(
                np.abs(det), scale**3, out=np.zeros_like(det), where=scale > 0
            )
            flat = np.flatnonzero(ratio < FACE_VOLUME_EPS)
            if flat.size:
                f = faces[flat[0]]
                raise DegenerateFace(
                    f"face {f} is planar within tolerance", face=f,
                    ratio=float(ratio[flat[0]]),
                )
            first[faces.start:faces.stop] = np.where(det > 0, 1, -1)
        return np.stack([first, -first], axis=1)

    # --- strips ----------------------------------------------------------------------

    def equi_twisted(self):
        """Whether every strip carries a uniform rail twist; with report."""
        g = self.graph
        even, odd_vertices = g.interior_degrees_even()
        strip_reports = []
        all_uniform = True
        for s in g.strips():
            twists = [
                self.twist_for_edge(f, l) for f, (l, _r) in zip(s.faces, s.rails)
            ]
            uniform = len(set(twists)) <= 1
            all_uniform = all_uniform and uniform
            strip_reports.append(
                {"faces": list(s.faces), "twists": twists, "uniform": uniform}
            )
        verdict = all_uniform and even
        report = {
            "equi_twisted": verdict,
            "interior_degrees_even": even,
            "odd_degree_vertices": odd_vertices,
            "strips": strip_reports,
        }
        return verdict, report


class _Walk(NamedTuple):
    """What the validation walk found; arrays are NaN / zero where it
    stopped before reaching them."""

    violations: list
    planes: np.ndarray
    residuals: np.ndarray
    diameters: np.ndarray
    edge_lines: np.ndarray

    def net(self, graph: QuadGraph, positions, tol: Tolerances) -> ANet:
        return ANet(
            graph=graph,
            positions=positions,
            contact_planes=self.planes,
            edge_lines=self.edge_lines,
            planarity_residuals=self.residuals,
            star_diameters=self.diameters,
            tol=tol,
        )


def _collect_violations(
    graph: QuadGraph, positions: np.ndarray, first_only: bool, tol: Tolerances
) -> _Walk:
    """Run the validation walk over finite ``positions``; with
    ``first_only`` it stops at the first violation."""
    if not np.all(np.isfinite(positions)):
        raise ValueError("positions must be finite")
    n = len(positions)
    walk = _Walk(
        violations=[],
        planes=np.full((n, 4), np.nan),
        residuals=np.full(n, np.nan),
        diameters=np.full(n, np.nan),
        edge_lines=np.zeros((len(graph.edges), 6)),
    )
    for found in _violations(graph, positions, tol, walk):
        walk.violations.append(found)
        if first_only:
            break
    return walk


def _violations(graph: QuadGraph, positions, tol: Tolerances, walk: _Walk):
    """Violations as (kind, data) tuples in deterministic order: planarity
    by ascending vertex, then per ascending face planarity/skewness,
    then vertex pencils.  Fills the arrays of ``walk`` as it goes.
    """
    for v in range(len(positions)):
        if not graph.is_referenced(v):
            continue
        pts = _star_points(graph, positions, v)
        plane, residual, diameter = star_plane(pts)
        walk.planes[v] = plane
        walk.residuals[v] = residual
        walk.diameters[v] = diameter
        if residual > tol.planar * diameter:
            yield (
                "non_planar_star",
                {"vertex": v, "residual": residual,
                 "tolerance": tol.planar * diameter},
            )

    edge_lines = walk.edge_lines
    for e, (u, v) in enumerate(graph.edges):
        try:
            edge_lines[e] = line_from_points(
                hom([positions[u]])[0], hom([positions[v]])[0]
            )
        except CoincidentPoints:
            yield (
                "non_generic_pair",
                {"edges": (e,), "vertices": (u, v),
                 "reason": "zero-length edge"},
            )

    for f in range(graph.face_count):
        quad = graph.face_vertices(f)
        ratio = face_volume_ratio(positions, quad)
        if ratio < FACE_VOLUME_EPS:
            yield ("degenerate_face", {"face": f, "ratio": ratio})
            continue
        edges = graph.face_edges(f)
        for a, b in ((0, 2), (1, 3)):
            prod = plucker_product(edge_lines[edges[a]], edge_lines[edges[b]])
            if abs(prod) < SKEW_PAIR_EPS:
                yield (
                    "non_generic_pair",
                    {"edges": (edges[a], edges[b]), "face": f,
                     "product": float(prod)},
                )

    for v in range(len(positions)):
        if not graph.is_referenced(v):
            continue
        incident = sorted(
            {graph.half_edges[h].edge for h in graph.outgoing_half_edges(v)}
        )
        pencil = span(
            edge_lines[incident], rank_tol=PENCIL_RANK_TOL, sig_eps=tol.sig
        )
        if pencil.dim != 1 or pencil.signature != (0, 0, 2):
            yield (
                "non_generic_pair",
                {"vertex": v, "edges": tuple(incident[:2]),
                 "pencil_signature": pencil.signature,
                 "pencil_dim": pencil.dim},
            )


def _raise_violation(kind: str, data: dict):
    if kind == "non_planar_star":
        raise NonPlanarStar(
            f"vertex {data['vertex']} star deviates from planarity by "
            f"{data['residual']:.3e} (tolerance {data['tolerance']:.3e})",
            **data,
        )
    if kind == "degenerate_face":
        raise DegenerateFace(
            f"face {data['face']} is planar within tolerance", **data
        )
    raise NonGenericPair(f"genericity violated: {data}", **data)


def validate_anet(
    graph: QuadGraph, positions, tol: Tolerances = Tolerances()
) -> ANet:
    """Check planar stars and genericity; return the validated net.

    Raises :class:`NonPlanarStar`, :class:`DegenerateFace`, or
    :class:`NonGenericPair` on the first violation in a deterministic
    order (vertices ascending, then faces ascending, then pencils).
    Stars are held to ``tol.planar`` and pencils read with ``tol.sig``;
    the returned net keeps ``tol``.
    """
    positions = np.asarray(positions, dtype=float)
    walk = _collect_violations(graph, positions, True, tol)
    if walk.violations:
        _raise_violation(*walk.violations[0])
    return walk.net(graph, positions, tol)


def diagnose_anet(
    graph: QuadGraph, positions, tol: Tolerances = Tolerances()
) -> dict:
    """Full validation report without raising; consumed by the CLI.

    Contains per-vertex planarity residuals, all genericity violations,
    and — when the net is valid — per-face twist signs and the
    per-strip uniform-twist verdict.  The gates are those of
    :func:`validate_anet` at the same ``tol``.
    """
    positions = np.asarray(positions, dtype=float)
    walk = _collect_violations(graph, positions, False, tol)
    report = {
        "vertex_count": int(len(positions)),
        "face_count": graph.face_count,
        "edge_count": graph.edge_count,
        "euler_characteristic": graph.euler_characteristic,
        "planarity_residuals": [
            None if np.isnan(r) else float(r) for r in walk.residuals
        ],
        "violations": [
            {"kind": kind, **{k: _jsonable(v) for k, v in data.items()}}
            for kind, data in walk.violations
        ],
        "valid": not walk.violations,
    }
    if not walk.violations:
        net = walk.net(graph, positions, tol)
        try:
            verdict, strip_report = net.equi_twisted()
            report["face_twists"] = net.face_twists.tolist()
            report["equi_twisted"] = verdict
            report["strip_report"] = strip_report
        except DegenerateFace as exc:  # pragma: no cover - guarded above
            report["valid"] = False
            report["violations"].append(
                {"kind": "degenerate_face", **exc.data}
            )
    return report


def _jsonable(value):
    if isinstance(value, (np.floating, float)):
        return float(value)
    if isinstance(value, (np.integer, int)):
        return int(value)
    if isinstance(value, tuple):
        return list(value)
    return value

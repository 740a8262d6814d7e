"""Nets with planar vertex stars over a quad mesh.

A net assigns a spatial position to every vertex of a :class:`QuadGraph`
such that each vertex and all its neighbors are coplanar.  The edges
then carry well-defined lines (the discrete asymptotic lines); per face,
the four edge lines span a rank-4 subspace of line space whose polar,
the face's axis, is a projective line of signature (1,1,0).  The two
spatial diagonals of the face are exactly the isotropic points of the
axis, so they span it: a face frame stores the diagonals and no other
basis of the axis.  The frames of many faces are read in one stacked
pass into a :class:`FrameStack`, whose arrays propagation, carving and
the C1 report index directly; :class:`FaceFrame` is its one-row view.

Validation enforces, per face, that the quad is non-planar and that
opposite edge lines are skew; per vertex, that the incident edge lines
form a genuine pencil (rank 2).  These are the genericity conditions the
construction algorithms rely on; global pairwise skewness of all edge
lines is deliberately not enforced.

The validation walk runs four stages, each as stacked array kernels over
batches of at most ``CHUNK`` rows:

1. stars: one stacked best-fit plane (:func:`star_plane`) per star size;
2. edges: the lines of all edges from their 2x2 minors;
3. faces: volume ratios and the products of both opposite edge pairs;
4. pencils: closed-form bounds (:func:`_pencil_bounds`) on the singular
   values of each vertex's incident edge lines and on the Pluecker form
   over their top two singular directions certify, in array passes, the
   vertices whose lines surely form a pencil as the SVD path reads it
   (:func:`_certified_pencils`); only the vertices left undecided go
   through one stacked SVD per vertex degree for the rank of their
   lines, then their signature.

Its violations come in this order: non-planar stars by ascending
vertex; zero-length edges by ascending edge id; per ascending face a
degenerate face, or else its opposite pairs (0, 2) and (1, 3) whose
lines meet; vertex pencils by ascending vertex.  :func:`validate_anet`
raises the first one, :func:`diagnose_anet` lists them all.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import NamedTuple

import numpy as np

from .errors import (
    DegenerateFace,
    NonGenericPair,
    NonPlanarStar,
)
from .plucker import (
    METRIC,
    PLANAR_EPS,  # the default star-planarity gate, importable from here
    SIG_EPS,
    Tolerances,
    _basis_gram,
    _join,
    _rowdot,
    _span_signatures,
    canonical,
    hom,
    line_from_points,
    plucker_product,
)
from .quadgraph import QuadGraph

FACE_VOLUME_EPS = 1e-10
SKEW_PAIR_EPS = 1e-10
# Rows (stars, edges, faces or pencils) per batch of the validation walk:
# small batches keep each temporary array under about 100 kB, so checking
# a large net adds next to nothing to its peak memory.
CHUNK = 256
# Cycle positions, from the entry half-edge's origin, of the corner roles
# (x, x1, x2, x12).
_ROLE_CORNERS = [0, 3, 1, 2]
# Corner roles (x, x1, x2, x12 = 0..3) joined by the lines of
# FaceFrame.h_lines, row by row.
_ROLE_EDGES = np.array([[1, 0], [2, 3], [0, 2], [3, 1]])
# Rank cutoff for vertex pencils of edge lines.  A net passing the
# planarity check at PLANAR_EPS can carry spurious pencil directions of
# comparable relative size, so this must sit well above PLANAR_EPS while
# staying far below the O(1) singular values of genuinely independent
# lines.
PENCIL_RANK_TOL = 1e-6
# Rounding slack of the closed-form pencil bounds, relative to the
# Frobenius norm of a vertex's edge lines: a generous multiple of the unit
# roundoff that covers each bound's own rounding and the backward error
# of LAPACK's SVD on a 6-column matrix.
_PENCIL_SLACK = 64 * np.finfo(float).eps


def star_plane(points):
    """Best-fit plane of a point cloud as a homogeneous covector.

    Returns ``(plane, residual, diameter)`` where ``plane @ (x,y,z,1)``
    vanishes on the cloud up to ``residual`` (max distance) and
    ``diameter`` is the largest pairwise distance.  A stack of clouds
    ``(..., k, 3)`` gives planes ``(..., 4)`` and arrays of residuals
    and diameters, each cloud's values equal bit for bit to those of
    its own call.
    """
    pts = np.asarray(points, dtype=float)
    centroid = pts.mean(axis=-2)
    centered = pts - centroid[..., None, :]
    _, _, vt = np.linalg.svd(centered, full_matrices=True)
    normal = vt[..., -1, :]
    residual = np.max(np.abs((centered @ normal[..., None])[..., 0]), axis=-1)
    widest = np.zeros(pts.shape[:-2])
    for i, j in combinations(range(pts.shape[-2]), 2):
        gap = np.sum((pts[..., i, :] - pts[..., j, :]) ** 2, axis=-1)
        widest = np.maximum(widest, gap)
    diameter = np.sqrt(widest)
    offset = _rowdot(-normal, centroid)[..., None]
    plane = canonical(np.concatenate([normal, offset], axis=-1))
    if plane.ndim == 1:
        return plane, float(residual), float(diameter)
    return plane, residual, diameter


def diagonal_ends(corners) -> np.ndarray:
    """Vertex ids ``(..., 2, 2)`` of the diagonals (x, x12) and (x1, x2)
    of role corners ``(..., 4)``, each from its lower id: the ends of
    :attr:`FaceFrame.diagonals`."""
    return np.sort(np.asarray(corners)[..., [[0, 3], [1, 2]]], axis=-1)


def _face_volumes(positions, quads):
    """Signed volumes and volume ratios of a stack of quads ``(B, 4)``.

    The volume is ``det(c1 - c0, c2 - c0, c3 - c0)`` of the corners in
    cycle order; the ratio is its magnitude over the cubed mean edge
    length (0 for a quad whose edges all vanish), the quantity
    ``FACE_VOLUME_EPS`` gates.
    """
    p = positions[quads]
    det = np.linalg.det(p[:, 1:] - p[:, :1])
    edges = np.roll(p, -1, axis=1) - p
    scale = np.mean(np.sqrt(_rowdot(edges, edges)), axis=-1)
    # float_power rounds like the power of one float; ``scale**3`` on an
    # array can differ from it in the last bit
    ratio = np.divide(
        np.abs(det), np.float_power(scale, 3),
        out=np.zeros_like(det), where=scale != 0.0,
    )
    return det, ratio


@dataclass(frozen=True)
class FaceFrame:
    """Edge lines of one face in role order, with diagonals and axis: row
    ``k`` of a :class:`FrameStack`, read as ``stack[k]``.

    ``corners`` lists the vertex ids in the role order (x, x1, x2, x12),
    derived from the entry half-edge x → x2: the entry edge and its
    opposite form the second family, the other two edges the first.
    ``h_lines`` rows are the lines of (h1, h1_shift2, h2, h2_shift1),
    i.e. first family then second family, each as (line at x, shifted
    copy).  ``diagonals`` rows are g1 = line(x, x12), g2 = line(x1, x2),
    oriented from the lower vertex id: the two isotropic points of the
    face's axis (the polar of the span of ``h_lines``), which therefore
    span it.  ``sig_eps`` is the signature cutoff of the net the frame
    belongs to; every later signature read on the face's quadrics uses
    it too.
    """

    face: int
    entry_half_edge: int
    corners: tuple[int, int, int, int]
    h_lines: np.ndarray
    h_edges: tuple[int, int, int, int]
    diagonals: np.ndarray
    sig_eps: float

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


@dataclass(frozen=True, eq=False)
class FrameStack:
    """The role frames of several faces of one net, one row per face:
    ``faces`` and ``entries`` (the entry half-edges) ``(F,)``,
    ``corners`` and ``h_edges`` ``(F, 4)``, ``h_lines`` ``(F, 4, 6)``,
    ``diagonals`` ``(F, 2, 6)``, and the net's ``sig_eps``.  Row ``k``
    is the :class:`FaceFrame` ``stack[k]``; an edge plays the first
    family in the row whose ``h_edges`` hold it in column 0 or 1."""

    faces: np.ndarray
    entries: np.ndarray
    corners: np.ndarray
    h_edges: np.ndarray
    h_lines: np.ndarray
    diagonals: np.ndarray
    sig_eps: float

    @classmethod
    def of(cls, frames) -> "FrameStack":
        frames = list(frames)
        return cls(
            np.array([fr.face for fr in frames], dtype=np.intp),
            np.array([fr.entry_half_edge for fr in frames], dtype=np.intp),
            np.array([fr.corners for fr in frames], dtype=np.intp).reshape(-1, 4),
            np.array([fr.h_edges for fr in frames], dtype=np.intp).reshape(-1, 4),
            np.array([fr.h_lines for fr in frames], dtype=float).reshape(-1, 4, 6),
            np.array([fr.diagonals for fr in frames], dtype=float).reshape(-1, 2, 6),
            frames[0].sig_eps if frames else SIG_EPS,
        )

    def __len__(self) -> int:
        return len(self.faces)

    def __getitem__(self, k: int) -> FaceFrame:
        return FaceFrame(
            face=int(self.faces[k]),
            entry_half_edge=int(self.entries[k]),
            corners=tuple(self.corners[k].tolist()),
            h_lines=self.h_lines[k],
            h_edges=tuple(self.h_edges[k].tolist()),
            diagonals=self.diagonals[k],
            sig_eps=self.sig_eps,
        )

    def take(self, rows) -> "FrameStack":
        """The stack of the rows ``rows``, in that order."""
        return FrameStack(
            self.faces[rows], self.entries[rows], self.corners[rows],
            self.h_edges[rows], self.h_lines[rows], self.diagonals[rows],
            self.sig_eps,
        )


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
        # which face volumes are positive, once read (see face_twists)
        self._positive_volumes = None

    # --- frames ---------------------------------------------------------------

    def face_frame(self, f: int, entry_half_edge: int | None = None) -> FaceFrame:
        """Role frame of face ``f``: the one-face call of :meth:`frames`.

        ``entry_half_edge`` fixes which edge plays the second-family
        role (it must be a half-edge of ``f``); by default the face's
        lowest-indexed half-edge is used, which is the deterministic
        rule for seed and standalone faces.
        """
        if entry_half_edge is None:
            entry_half_edge = 4 * f
        return self.frames([f], [entry_half_edge])[0]

    def frames(self, faces, entries) -> FrameStack:
        """Role frames of ``faces`` entered by the half-edges ``entries``,
        as one :class:`FrameStack` in the given order.

        Raises :class:`ValueError` for the first face id out of range,
        then for the first entry off its face.  The genericity of each
        face is read in one stacked pass, on its edge lines in
        face-local coordinates: origin at the centroid of the corners,
        unit their largest distance from it.  The construction is
        affine-invariant, while global Pluecker coordinates of a face
        that is small against its distance from the origin are badly
        conditioned.  Raises
        :class:`NonGenericPair` for the first face, in the given order,
        whose edge lines do not span a subspace of signature (2, 2, 0)
        or, failing that, whose axis (the polar of that span) is not of
        signature (1, 1, 0).
        """
        f_ids = np.asarray(faces, dtype=np.intp).reshape(-1)
        h_ids = np.asarray(entries, dtype=np.intp).reshape(-1)
        count = self.graph.face_count
        outside = np.flatnonzero((f_ids < 0) | (f_ids >= count))
        if outside.size:
            f = int(f_ids[outside[0]])
            raise ValueError(f"face {f} is not a face id (net has {count} faces)")
        stray = np.flatnonzero(h_ids // 4 != f_ids)
        if stray.size:
            k = int(stray[0])
            raise ValueError(
                f"half-edge {int(h_ids[k])} does not bound face {int(f_ids[k])}"
            )
        # the face's sides in cycle order from the entry half-edge x -> x2
        cycle = (h_ids[:, None] + np.arange(4)) % 4
        corners = self.graph.face_vertices[f_ids[:, None], cycle][:, _ROLE_CORNERS]
        h_edges = self.graph.face_edges[f_ids[:, None], cycle][:, [3, 1, 0, 2]]
        pos = np.asarray(self.positions, dtype=float)
        points = pos[corners]
        local = points - points.mean(axis=1, keepdims=True)
        local /= np.sqrt(_rowdot(local, local)).max(axis=1)[:, None, None]
        ends = hom(local[:, _ROLE_EDGES])
        lines, _ = _join(ends[:, :, 0], ends[:, :, 1])
        _, spans, vt = _span_signatures(lines, 1e-10, self.tol.sig)
        # the polar of a rank-4 span is the orthogonal complement of its
        # rows, mapped through the form
        axes = _basis_gram(vt[:, 4:] @ METRIC, self.tol.sig)[2]
        bad = np.any(spans != (2, 2, 0), axis=1) | np.any(axes != (1, 1, 0), axis=1)
        if bad.any():
            k = int(np.argmax(bad))
            f = int(f_ids[k])
            span_sig, axis_sig = tuple(spans[k].tolist()), tuple(axes[k].tolist())
            if span_sig != (2, 2, 0):
                raise NonGenericPair(
                    f"edge lines of face {f} have signature {span_sig}, "
                    "expected (2, 2, 0)",
                    face=f,
                    signature=span_sig,
                )
            raise NonGenericPair(
                f"axis of face {f} has signature {axis_sig}",
                face=f,
                signature=axis_sig,
            )
        ends = hom(pos[diagonal_ends(corners)])
        return FrameStack(
            faces=f_ids,
            entries=h_ids,
            corners=corners,
            h_edges=h_edges,
            h_lines=self.edge_lines[h_edges],
            diagonals=line_from_points(ends[..., 0, :], ends[..., 1, :]),
            sig_eps=self.tol.sig,
        )

    def face_corners(self, f: int) -> tuple[int, int, int, int]:
        """Vertex ids ``(x, x1, x2, x12)`` of face ``f`` in role order.

        Equal to ``face_frame(f).corners`` without building the frame's
        lines and axis.
        """
        return tuple(self.graph.face_vertices[f, _ROLE_CORNERS].tolist())

    def frames_from(self, seed: int):
        """Frames for every face, entries assigned by dual BFS from seed.

        Returns ``(frames, tree)``: ``tree`` is ``dual_spanning_tree(seed)``
        as an ``(F - 1, 3)`` array of ``(face, parent, shared_edge)``
        rows, and ``frames`` the :class:`FrameStack` of the seed, entered
        by its lowest-indexed half-edge, then of those faces in that BFS
        order, read in one :meth:`frames` pass.
        """
        tree = np.reshape(self.graph.dual_spanning_tree(seed), (-1, 3)).astype(np.intp)
        faces = np.concatenate([[seed], tree[:, 0]])
        # the seed, sharing no edge, is entered by its side 0
        shared = np.concatenate([[-1], tree[:, 2]])
        sides = np.argmax(self.graph.face_edges[faces] == shared[:, None], axis=1)
        return self.frames(faces, 4 * faces + sides), tree

    # --- twist -------------------------------------------------------------------

    @cached_property
    def face_twists(self) -> np.ndarray:
        """Twist signs ``(F, 2)`` of both opposite-edge pairs of every face.

        Column ``k`` of row ``f`` is the pair through edge
        ``graph.face_edges[f, k]``: the sign of the 4x4 determinant of the
        homogeneous corners with the pair's edges traversed in parallel,
        which for corners ``c0..c3`` in cycle order is
        ``det(c1 - c0, c2 - c0, c3 - c0)`` for the first pair and its
        negative for the second.  That determinant also feeds the
        ``FACE_VOLUME_EPS`` guard of the validation walk
        (:class:`DegenerateFace` for the lowest face that fails it).
        A net the walk returns reads the signs its face stage kept;
        another computes them here, in one pass.
        """
        positive = self._positive_volumes
        if positive is None:
            pos = np.asarray(self.positions, dtype=float)
            det, ratio = _face_volumes(pos, self.graph.face_vertices)
            flat = np.flatnonzero(ratio < FACE_VOLUME_EPS)
            if flat.size:
                f = int(flat[0])
                message = f"face {f} is planar within tolerance"
                raise DegenerateFace(message, face=f, ratio=float(ratio[f]))
            positive = det > 0
        first = np.where(positive, 1, -1)
        return np.stack([first, -first], axis=1)

    # --- strips ----------------------------------------------------------------------

    def equi_twisted(self):
        """Whether every strip carries a uniform rail twist; with report."""
        g = self.graph
        even, odd_vertices = g.interior_degrees_even()
        sides, starts = g.strip_sides()
        members = sides >> 2
        # each member's twist is that of the side pair its strip crosses
        twists = self.face_twists[members, sides & 1]
        if len(starts):
            uniform = (np.minimum.reduceat(twists, starts)
                       == np.maximum.reduceat(twists, starts)).tolist()
        else:
            uniform = []
        faces, rows = members.tolist(), twists.tolist()
        bounds = starts.tolist() + [len(sides)]
        strip_reports = [
            {"faces": faces[a:b], "twists": rows[a:b], "uniform": flag}
            for a, b, flag in zip(bounds, bounds[1:], uniform)
        ]
        verdict = all(uniform) and even
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
    positive_volumes: np.ndarray

    def net(self, graph: QuadGraph, positions, tol: Tolerances) -> ANet:
        net = ANet(
            graph=graph,
            positions=positions,
            contact_planes=self.planes,
            edge_lines=self.edge_lines,
            planarity_residuals=self.residuals,
            star_diameters=self.diameters,
            tol=tol,
        )
        # the walk found no violation, so its face stage read every sign
        net._positive_volumes = self.positive_volumes
        return net


def _collect_violations(
    graph: QuadGraph, positions: np.ndarray, first_only: bool, tol: Tolerances
) -> _Walk:
    """Run the validation walk over finite ``positions``; with
    ``first_only`` it stops after the first stage that finds a
    violation."""
    if not np.all(np.isfinite(positions)):
        raise ValueError("positions must be finite")
    n = len(positions)
    walk = _Walk(
        violations=[],
        planes=np.full((n, 4), np.nan),
        residuals=np.full(n, np.nan),
        diameters=np.full(n, np.nan),
        edge_lines=np.zeros((graph.edge_count, 6)),
        positive_volumes=np.zeros(graph.face_count, dtype=bool),
    )
    degree = graph.degrees
    stages = (
        lambda: _star_stage(graph, positions, degree, tol.planar, walk),
        lambda: _edge_stage(graph, positions, walk),
        lambda: _face_stage(graph, positions, walk),
        lambda: _pencil_stage(graph, degree, tol.sig, walk),
    )
    for stage in stages:
        walk.violations.extend(stage())
        if first_only and walk.violations:
            break
    return walk


def _by_degree(degree):
    """Referenced vertices by degree: ``(k, vertices)`` for each degree
    ``k`` present, ascending, with its vertices ascending in slices of
    at most ``CHUNK``."""
    # not np.unique: it imports numpy.ma, half a MB of peak memory
    for k in sorted(set(degree.tolist()) - {0}):
        vertices = np.flatnonzero(degree == k)
        for lo in range(0, len(vertices), CHUNK):
            yield k, vertices[lo:lo + CHUNK]


def _star_stage(graph, positions, degree, planar, walk):
    """Best-fit plane of every star, stacked by star size; the
    ``non_planar_star`` violations by ascending vertex."""
    for k, verts in _by_degree(degree):
        slots = graph.star_offsets[verts][:, None] + np.arange(k)
        stars = np.column_stack([verts, graph.star_neighbors[slots]])
        planes, residuals, diameters = star_plane(positions[stars])
        walk.planes[verts] = planes
        walk.residuals[verts] = residuals
        walk.diameters[verts] = diameters
    bound = planar * walk.diameters
    return [
        ("non_planar_star",
         {"vertex": v, "residual": float(walk.residuals[v]),
          "tolerance": float(bound[v])})
        for v in np.flatnonzero(walk.residuals > bound).tolist()
    ]


def _edge_stage(graph, positions, walk):
    """Line of every edge; a zero-length edge keeps a zero line and is a
    violation, by ascending edge id."""
    found = []
    for lo in range(0, graph.edge_count, CHUNK):
        ends = hom(positions[graph.edges[lo:lo + CHUNK]])
        lines, ok = _join(ends[:, 0], ends[:, 1])
        walk.edge_lines[lo:lo + CHUNK] = lines
        found += [
            ("non_generic_pair",
             {"edges": (e,), "vertices": tuple(graph.edges[e].tolist()),
              "reason": "zero-length edge"})
            for e in (lo + np.flatnonzero(~ok)).tolist()
        ]
    return found


def _face_stage(graph, positions, walk):
    """Volume ratio and opposite-pair products of every face; per
    ascending face a ``degenerate_face``, or else each of the pairs
    (0, 2) and (1, 3) whose lines meet.  Keeps which volumes are
    positive, the signs :attr:`ANet.face_twists` reads."""
    found = []
    for lo in range(0, graph.face_count, CHUNK):
        det, ratio = _face_volumes(positions, graph.face_vertices[lo:lo + CHUNK])
        walk.positive_volumes[lo:lo + CHUNK] = det > 0
        edges = graph.face_edges[lo:lo + CHUNK]
        lines = walk.edge_lines[edges]
        prods = plucker_product(lines[:, :2], lines[:, 2:])
        flat = ratio < FACE_VOLUME_EPS
        meet = (np.abs(prods) < SKEW_PAIR_EPS) & ~flat[:, None]
        for i in np.flatnonzero(flat | meet.any(axis=1)).tolist():
            if flat[i]:
                found.append(("degenerate_face",
                              {"face": lo + i, "ratio": float(ratio[i])}))
            for k in np.flatnonzero(meet[i]).tolist():
                found.append(("non_generic_pair",
                              {"edges": (int(edges[i, k]), int(edges[i, k + 2])),
                               "face": lo + i, "product": float(prods[i, k])}))
    return found


def _pencil_bounds(lines):
    """Closed-form bounds for each set of a stack of 6-vectors ``(B, k, 6)``.

    Returns ``(s1_lo, s1_hi, s2_lo, s3_hi, gram_hi)``, arrays ``(B,)``.
    With ``a`` the set's first row, ``b`` the row with the largest part
    ``b_perp`` orthogonal to ``a`` and ``P`` the projector onto their span,
    the singular values of the set ``L`` satisfy

    * ``max |L_i| <= s1 <= |L|_F``;
    * ``s2 >= |a| |b_perp| / sqrt(|a|^2 + |b|^2)``: the second singular
      value of the rows ``a, b``, which bounds that of ``L`` (interlacing);
    * ``s3 <= |L (I - P)|_F``, as ``L P`` has rank 2 (Eckart-Young-Mirsky);

    and every unit vector ``v`` of the top two right singular directions
    has ``|<v, v>| <= |L METRIC L^T|_F / s2^2``.  Each bound is widened by
    a slack of ``_PENCIL_SLACK |L|_F`` (``4 _PENCIL_SLACK |L|_F^2`` over the
    form's numerator) for its own rounding and for LAPACK's backward
    error, so it holds for the values that :func:`_span_signatures`
    computes.  Bounds that do not exist, for want of two independent
    rows, are NaN or negative.
    """
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
        gram = lines @ METRIC @ lines.swapaxes(1, 2)
        gram_f = np.sqrt((gram * gram).sum(axis=(1, 2)))
        # the numerator's own rounding, up to slack |L|_F; LAPACK's tilt of
        # the top two directions, up to slack / (s2 - s3) and so, where
        # s3 << s2 <= |L|_F, up to slack |L|_F / s2^2 on each side of the
        # form; and the eigenvalue solve's rounding, below both
        gram_hi = (gram_f + 4 * slack * frob) / s2_lo**2
    s1_lo = np.sqrt(sq.max(axis=1)) - slack
    s1_hi = frob + slack
    s3_hi = np.sqrt(_rowdot(rest, rest).sum(axis=1)) + slack
    return s1_lo, s1_hi, s2_lo, s3_hi, gram_hi


def _certified_pencils(lines, sig):
    """Which sets of a stack of edge lines ``(B, k, 6)`` surely span a
    line pencil as :func:`_span_signatures` reads it at
    ``PENCIL_RANK_TOL`` and ``sig``: rank 2 and signature (0, 0, 2).

    A set is certified when its :func:`_pencil_bounds` clear every cut of
    that reading with room to spare: the largest singular value the
    ``1e-14`` floor by 10x, the second the rank cut by 10x, the third
    stays 10x below it, and the Pluecker form over the top two singular
    directions stays below a quarter of ``sig``.  A certified set passes
    the SVD path; an uncertified one may pass it or not.
    """
    s1_lo, s1_hi, s2_lo, s3_hi, gram_hi = _pencil_bounds(lines)
    return (
        (s1_lo >= 1e-13)
        & (s2_lo >= 10 * PENCIL_RANK_TOL * s1_hi)
        & (s3_hi <= PENCIL_RANK_TOL / 10 * s1_lo)
        & (gram_hi <= sig / 4)
    )


def _pencil_stage(graph, degree, sig, walk):
    """Rank and signature of every vertex pencil, stacked by vertex
    degree; a pencil that is not a line pencil (dimension 1, signature
    (0, 0, 2)) is a violation, by ascending vertex.  Edge lines that are
    all zero span nothing: dimension -1, signature (0, 0, 0).  Only the
    pencils that :func:`_certified_pencils` leaves undecided go through
    :func:`_span_signatures`."""
    # the edges at every vertex, ascending, in the slots of its star
    by_vertex = np.argsort(graph.edges.ravel(), kind="stable") // 2
    found = []
    for k, verts in _by_degree(degree):
        incident = by_vertex[graph.star_offsets[verts][:, None] + np.arange(k)]
        lines = walk.edge_lines[incident]
        open_rows = np.flatnonzero(~_certified_pencils(lines, sig))
        if not open_rows.size:
            continue
        verts, incident = verts[open_rows], incident[open_rows]
        rank, signatures, _ = _span_signatures(
            lines[open_rows], PENCIL_RANK_TOL, sig
        )
        bad = (rank != 2) | np.any(signatures != (0, 0, 2), axis=1)
        found += [
            ("non_generic_pair",
             {"vertex": int(verts[i]), "edges": tuple(incident[i, :2].tolist()),
              "pencil_signature": tuple(signatures[i].tolist()),
              "pencil_dim": int(rank[i]) - 1})
            for i in np.flatnonzero(bad).tolist()
        ]
    return sorted(found, key=lambda violation: violation[1]["vertex"])


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
    :class:`NonGenericPair` on the first violation in the walk's order
    (stars, edges, faces, pencils; see the module docstring).
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
    # unreferenced vertices have no star: NaN in the walk, None here
    residuals = walk.residuals.tolist()
    for v in np.flatnonzero(np.isnan(walk.residuals)).tolist():
        residuals[v] = None
    report = {
        "vertex_count": int(len(positions)),
        "face_count": graph.face_count,
        "edge_count": graph.edge_count,
        "euler_characteristic": graph.euler_characteristic,
        "planarity_residuals": residuals,
        "violations": [
            {"kind": kind, **{k: _jsonable(v) for k, v in data.items()}}
            for kind, data in walk.violations
        ],
        "valid": not walk.violations,
    }
    if not walk.violations:
        net = walk.net(graph, positions, tol)
        verdict, strip_report = net.equi_twisted()
        report["face_twists"] = net.face_twists.tolist()
        report["equi_twisted"] = verdict
        report["strip_report"] = strip_report
    return report


def _jsonable(value):
    if isinstance(value, (np.floating, float)):
        return float(value)
    if isinstance(value, (np.integer, int)):
        return int(value)
    if isinstance(value, tuple):
        return list(value)
    return value

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

Every face gate is one closed-form reading (:func:`_face_volumes`).  The
Pluecker product of two joins is the 4x4 determinant of their points,
so adjacent edge lines meet and the two opposite-pair products are the
face volume over the norms of the joins.  Read in face-local units
(origin at the centroid of the corners, unit their largest distance
from it, every term formed in those units) they neither shrink nor grow
as the net moves or scales, until its positions' squares leave the
float range.

Validation enforces, per face, that the quad is non-planar and that
opposite edge lines are skew; per vertex, that the incident edge lines
form a genuine pencil (rank 2).  These are the genericity conditions the
construction algorithms rely on; global pairwise skewness of all edge
lines is deliberately not enforced.

The validation walk runs four stages, each as stacked array kernels over
batches of at most :data:`~hypnet.quadgraph.CHUNK` (1024) rows.  That size
pays the per-batch cost of the kernels a few times per net rather than
hundreds of times, and it bounds the temporaries of each batch whatever
the size of the net (beyond what the net keeps, 1.5 MB traced on a
60x60 grid and 1.8 MB on a 120x120 one, where the walk's copy of the
positions and the ids of the vertices of one degree make up the
growth).  Every stage gathers each batch once, coordinate-first, from
one transposed copy of the positions: a batch of ``B`` stars of ``m``
points is a ``(3, m, B)`` array, the corners of ``B`` faces a ``(3, 4,
B)`` one, so every sum over coordinates or points is a few operations
on whole ``(B,)`` rows, in index order:

1. stars: the best-fit plane of every star (:func:`star_plane`, whose
   kernel is :func:`_star_planes`), stacked by star size, in closed form
   from the star's 3x3 scatter (:func:`_scatter_normals`) where a bound
   on its tilt against the SVD's plane settles the verdict with room;
   only the stars left unsettled, those near or above the gate and the
   near-collinear ones, go through one stacked SVD per star size.  The
   residuals and plane offsets, dot products that BLAS rounds, are read
   on row-major copies, so every figure equals that of a one-star call;
2. edges: the lines of all edges from their 2x2 minors, over their norm
   read at an exact power-of-two scale; an edge no longer than ``1e-12``
   of the larger diameter of its two end stars is zero-length, whatever
   the size of the net;
3. faces: volumes, volume ratios and the products of both opposite edge
   pairs, in one pass in face-local units, gated at ``tol.sig`` as
   :meth:`ANet.frames` gates them;
4. pencils: the rank of each vertex's unit edge vectors, its edge
   lines in star-local coordinates, gathered from its star's
   neighbours.  Closed-form bounds on their
   singular values (:func:`_pencil_bounds`) certify, in array passes,
   the vertices that surely read rank 2 (:func:`_certified_pencils`);
   only the vertices left undecided go through one stacked SVD per
   vertex degree, for their singular values alone.

Its violations come in this order: non-planar stars by ascending
vertex; zero-length edges by ascending edge id; per ascending face a
degenerate face, or else its opposite pairs (0, 2) and (1, 3) whose
lines meet; vertex pencils by ascending vertex.  :func:`validate_anet`
raises the first one, :func:`diagnose_anet` lists them all.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import (
    DegenerateFace,
    NonGenericPair,
    NonPlanarStar,
)
from .plucker import (
    PLANAR_EPS,  # the default star-planarity gate, importable from here
    SIG_EPS,
    Tolerances,
    _rowdot,
    _span_rank,
    canonical,
    hom,
    line_from_points,
)
from .quadgraph import CHUNK, QuadGraph

FACE_VOLUME_EPS = 1e-10
# Cycle positions, from the entry half-edge's origin, of the corner roles
# (x, x1, x2, x12).
_ROLE_CORNERS = [0, 3, 1, 2]
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
# A symmetric 3x3 matrix is held as its entries (xx, yy, zz, xy, xz, yz):
# the coordinate pairs of those entries, the 3x3 layout of the six, and
# the two products whose difference is each entry of its adjugate, in the
# same layout.
_SYM_PAIRS = np.array([[0, 1, 2, 0, 0, 1], [0, 1, 2, 1, 2, 2]])
_SYM = np.array([[0, 3, 4], [3, 1, 5], [4, 5, 2]])
_ADJ_TERMS = np.array([[1, 0, 0, 4, 3, 3], [2, 2, 1, 5, 5, 4],
                       [5, 4, 3, 3, 4, 0], [5, 4, 3, 2, 1, 5]])
# An edge is zero-length when it is no longer than this many times the
# larger diameter of its two end stars.
_ZERO_EDGE = 1e-12
# Largest tilt, in radians, at which a closed-form star plane stands in for
# the SVD's: whatever the planarity gate, the two readings of a certified
# star's residual then agree to 2e-10 of its diameter.
_STAR_TILT = 1e-10


def _scatter_normals(centered):
    """Closed-form normals ``(B, 3)`` of centred point clouds ``A`` held
    coordinate-first, ``(3, m, B)``, and bounds ``tilt`` ``(B,)`` on the
    angle between each normal and the one the SVD of ``A`` reads.

    Let ``S = A^T A`` be a cloud's scatter, with eigenvalues ``l1 >= l2
    >= l3`` and least eigenvector ``v3``.  The normal ``n`` is the
    largest column of the adjugate of ``S`` (the first, on ties).  Those
    columns are the cross products of pairs of rows of ``S``.  The
    adjugate has the eigenvectors of ``S``, with eigenvalues ``l2 l3``,
    ``l1 l3`` and ``l1 l2``, so its largest column has squared norm at
    least ``(l1 l2)^2 / 3`` and lies off ``v3`` by the order of ``l3 /
    l2``: not at all on a planar star.  (Kopp, IJMPC 19, 2008, takes the
    adjugate of ``S - l3 I``.  Read with ``l3`` from the trigonometric
    formula, whose rounding grows as ``l2 / l1`` falls, the residuals of
    exact stars came out 1e2 to 1e4 times further from the SVD's.)

    The tilt is read a posteriori.  Let ``rho`` be the Rayleigh quotient
    of ``n`` and ``E2`` the sum of the principal 2x2 minors of ``S``.
    Since ``0 <= l3 <= rho``, ``l2 - rho >= E2 / tr S - 2 rho``, so ``n``
    lies within ``|S n - rho n| / (l2 - rho)`` of ``v3`` (Davis-Kahan).
    LAPACK's normal is a singular vector of ``A`` up to a backward error
    of ``_PENCIL_SLACK |A|_F``, so it lies within ``3 _PENCIL_SLACK tr S
    / (l2 - l3)`` of ``v3`` (Wedin).  A slack of ``m _PENCIL_SLACK tr S``
    (``m >= 3``) on each side covers that and the rounding of ``S``,
    ``E2`` and ``S n - rho n``.  A tilt that is NaN or infinite, for want
    of a gap, bounds nothing.  Every sum runs over whole ``(B,)`` rows in
    index order.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # the six entries of S, each summed over the points in order
        s = (centered[_SYM_PAIRS[0]] * centered[_SYM_PAIRS[1]]).sum(axis=1)
        trace = s[0] + s[1] + s[2]
        x = s[_ADJ_TERMS]
        adjugate = x[0] * x[1] - x[2] * x[3]
        del x
        # column k of the adjugate is columns[k], its entries columns[k, l];
        # n is the first of the largest, as argmax picks it
        columns = adjugate[_SYM]
        size = columns[:, 0] * columns[:, 0] + columns[:, 1] * columns[:, 1]
        size += columns[:, 2] * columns[:, 2]
        n, top = columns[0], size[0]
        for k in (1, 2):
            larger = size[k] > top
            n = np.where(larger, columns[k], n)
            top = np.where(larger, size[k], top)
        n = n / np.sqrt(top)
        del columns, size
        scatter = s[_SYM]
        moved = scatter[:, 0] * n[0] + scatter[:, 1] * n[1] + scatter[:, 2] * n[2]
        rho = moved[0] * n[0] + moved[1] * n[1] + moved[2] * n[2]
        miss = moved - rho * n
        slack = _PENCIL_SLACK * centered.shape[1] * trace
        gap = (adjugate[0] + adjugate[1] + adjugate[2]) / trace - 2 * rho - slack
        miss = np.sqrt(miss[0] * miss[0] + miss[1] * miss[1] + miss[2] * miss[2])
        tilt = 2 * (miss + slack) / np.maximum(gap, 0)
    return np.ascontiguousarray(n.T), tilt


def _row_max(a):
    """Largest entry of each row of ``a`` ``(B, m)``, NaN where a row
    holds one: ``a.max(axis=1)``, read a column at a time, which is far
    faster on short rows."""
    top = a[:, 0].copy()
    for k in range(1, a.shape[1]):
        np.maximum(top, a[:, k], out=top)
    return top


def _star_planes(points, planar):
    """Planes ``(B, 4)``, residuals and diameters ``(B,)`` of a stack of
    point clouds held coordinate-first, ``points`` ``(3, m, B)``: the
    kernel of :func:`star_plane`, which states what it reads.

    Every step but two works on whole ``(B,)`` rows.  The residuals
    ``max |A n|`` and the plane offsets are dot products that
    :func:`~hypnet.plucker._rowdot` and ``matmul`` round like BLAS, so
    they are read on contiguous row-major copies ``(B, m, 3)`` and ``(B,
    3)``, where each row rounds as its own one-cloud call.
    """
    m = points.shape[1]
    # the centroid as ``mean`` rounds it: the points added in order, / m
    centroid = points[:, 0].copy()
    for i in range(1, m):
        centroid += points[:, i]
    centroid /= m
    centered = points - centroid[:, None]
    # squares are read at a power-of-two scale that brings each star's
    # largest centred coordinate into [0.5, 1): exact, so no bit changes,
    # and no overflow or underflow at any finite size
    _, exponent = np.frexp(np.abs(centered).max(axis=(0, 1), initial=0.0))
    scale = np.ldexp(1.0, -exponent)
    # the squared gaps of all pairs i < j, summed in coordinate order, one
    # coordinate at a time
    i, j = np.triu_indices(m, 1)
    spans = np.zeros((len(i), points.shape[2]))
    for x in points:
        gap = np.take(x, i, axis=0)
        gap -= np.take(x, j, axis=0)
        gap *= scale
        gap *= gap
        spans += gap
    diameter = np.sqrt(spans.max(axis=0, initial=0.0)) / scale
    del spans
    scaled = centered * scale
    normal, tilt = _scatter_normals(scaled)
    scaled = np.ascontiguousarray(scaled.T)
    residual = _row_max(np.abs((scaled @ normal[..., None])[..., 0])) / scale
    del scaled
    # |A n| moves by at most |n - n'| max |a_i| <= 2 tilt diameter
    settled = (tilt <= _STAR_TILT) & (
        residual + 2 * tilt * diameter <= planar * diameter / 10
    )
    open_rows = np.flatnonzero(~settled)
    if open_rows.size:
        rest = np.ascontiguousarray(np.take(centered, open_rows, axis=2).T)
        # a cloud of fewer than 3 points has its normal in the full basis
        _, _, vt = np.linalg.svd(rest, full_matrices=m < 3)
        normal[open_rows] = vt[:, -1]
        residual[open_rows] = _row_max(np.abs((rest @ vt[:, -1, :, None])[..., 0]))
    del centered
    offset = _rowdot(-normal, np.ascontiguousarray(centroid.T))[:, None]
    plane = np.concatenate([normal, offset], axis=-1)
    # canonical squares the plane: read it at the same kind of exact scale
    _, exponent = np.frexp(np.abs(plane).max(axis=-1))
    plane = canonical(plane * np.ldexp(1.0, -exponent)[:, None])
    return plane, residual, diameter


def star_plane(points, planar=PLANAR_EPS):
    """Best-fit plane of a point cloud as a homogeneous covector.

    Returns ``(plane, residual, diameter)`` where ``plane @ (x,y,z,1)``
    vanishes on the cloud up to ``residual`` (max distance) and
    ``diameter`` is the largest pairwise distance.  A stack of clouds
    ``(..., k, 3)`` gives planes ``(..., 4)`` and arrays of residuals
    and diameters, each cloud's values equal bit for bit to those of
    its own call.

    The normal is read in closed form from the cloud's 3x3 scatter
    (:func:`_scatter_normals`) where that reading is certified: its tilt
    against the SVD's normal is below ``_STAR_TILT`` and the residual,
    widened by what that tilt may move it, clears the gate ``planar *
    diameter`` by 10x; its residual then lies within ``2 tilt diameter``
    of the SVD's.  The SVD, one stacked call, reads the others:
    near-collinear stars, coincident points and every star near or above
    the gate.  So a star fails the gate exactly as the SVD reading fails
    it, with the SVD's residual.  The validation walk calls the kernel
    :func:`_star_planes` on its coordinate-first batches directly.
    """
    pts = np.asarray(points, dtype=float)
    stack = pts.reshape(-1, *pts.shape[-2:])
    plane, residual, diameter = _star_planes(stack.T, planar)
    if pts.ndim == 2:
        return plane[0], float(residual[0]), float(diameter[0])
    shape = pts.shape[:-2]
    return plane.reshape(*shape, 4), residual.reshape(shape), diameter.reshape(shape)


def diagonal_ends(corners) -> np.ndarray:
    """Vertex ids ``(..., 2, 2)`` of the diagonals (x, x12) and (x1, x2)
    of role corners ``(..., 4)``, each from its lower id: the ends of
    :attr:`FaceFrame.diagonals`."""
    return np.sort(np.asarray(corners)[..., [[0, 3], [1, 2]]], axis=-1)


def _face_volumes(coords, quads):
    """Signed volumes, volume ratios and opposite-pair products of a
    stack of quads ``(B, 4)`` over the positions ``coords`` held
    coordinate-first, ``(3, n)``.

    Everything is read in face-local units: origin at the centroid of
    the corners, unit ``u`` their largest distance from it, so
    translation and uniform scaling leave every figure as it is until
    the positions' squares leave the float range.  The volume is ``V =
    det(c1 - c0, c2 - c0, c3 - c0) = det(e0, e1, e2)`` of the corners in
    cycle order, ``e_k`` the side from corner ``k`` to corner ``k + 1``,
    expanded by cofactors on whole rows; it has the sign of the global
    determinant.  The ratio is ``|V|`` over the cubed mean side length (0
    for a quad whose corners all coincide), the quantity
    ``FACE_VOLUME_EPS`` gates.  The products ``(B, 2)`` are those of the
    unit edge lines of the pairs (0, 2) and (1, 3), each oriented from
    its lower vertex id.  The Pluecker product of two joins is the 4x4
    determinant of their points, so every edge line meets its neighbours
    and the products are ``-+V`` over the local join norms, ``|J(x, y)|^2
    = |y - x|^2 + |x (y - x)|^2`` (a cross product).  Not finite where a
    side has zero length, which leaves the quad no volume.
    """
    # coordinate- and corner-first ``(3, 4, B)``, whose rows are contiguous
    x = np.take(coords, quads.T, axis=1)
    x -= ((x[:, 0] + x[:, 1] + x[:, 2] + x[:, 3]) / 4)[:, None]
    radii = x[0] * x[0] + x[1] * x[1] + x[2] * x[2]
    unit = np.maximum(np.maximum(radii[0], radii[1]), np.maximum(radii[2], radii[3]))
    # the sides that run from the higher vertex id
    flip = quads.T > quads.T[[1, 2, 3, 0]]
    with np.errstate(divide="ignore", invalid="ignore"):
        x *= 1.0 / np.sqrt(unit)
        radii /= unit
        e = np.empty_like(x)
        np.subtract(x[:, 1:], x[:, :3], out=e[:, :3])
        np.subtract(x[:, 0], x[:, 3], out=e[:, 3])
        volume = (e[0, 0] * (e[1, 1] * e[2, 2] - e[2, 1] * e[1, 2])
                  + e[1, 0] * (e[2, 1] * e[0, 2] - e[0, 1] * e[2, 2])
                  + e[2, 0] * (e[0, 1] * e[1, 2] - e[1, 1] * e[0, 2]))
        squares = e[0] * e[0] + e[1] * e[1] + e[2] * e[2]
        lengths = np.sqrt(squares)
        mean = (lengths[0] + lengths[1] + lengths[2] + lengths[3]) / 4
        ratio = np.abs(volume) / (mean * mean * mean)
        ratio[unit == 0.0] = 0.0
        # |x (y - x)|^2 = |x|^2 |e|^2 - (x . e)^2 for the local join of each side
        along = x[0] * e[0] + x[1] * e[1] + x[2] * e[2]
        norms = np.sqrt(squares * (1.0 + radii) - along * along)
        products = np.stack([
            np.where(flip[0] == flip[2], -volume, volume) / (norms[0] * norms[2]),
            np.where(flip[1] == flip[3], volume, -volume) / (norms[1] * norms[3]),
        ], axis=1)
    return volume, ratio, products


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

    It holds what the validation walk read: star planes, edge lines,
    planarity residuals and star diameters per vertex or edge, and
    ``positive_volumes``, which faces have a positive volume (the face
    stage's signs, see :attr:`face_twists`).  ``tol`` is the
    :class:`Tolerances` value the net was validated with; its face
    frames read signatures with ``tol.sig`` and propagation checks
    closure against ``tol.closure``.
    """

    def __init__(
        self,
        graph: QuadGraph,
        positions,
        contact_planes,
        edge_lines,
        planarity_residuals,
        star_diameters,
        positive_volumes,
        tol: Tolerances = Tolerances(),
    ) -> None:
        self.graph = graph
        self.positions = positions
        self.contact_planes = contact_planes
        self.edge_lines = edge_lines
        self.planarity_residuals = planarity_residuals
        self.star_diameters = star_diameters
        self.positive_volumes = positive_volumes
        self.tol = tol

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
        then for the first entry off its face.  The four unit edge lines
        of a face have the Gram matrix of their opposite-pair products
        ``p`` and ``q`` alone (:func:`_face_volumes`, face-local units),
        whose eigenvalues are ``+-p`` and ``+-q``: they span a subspace
        of signature (2, 2, 0), and its polar, the axis, has signature
        (1, 1, 0), exactly when both products are nonzero.  Raises
        :class:`NonGenericPair` for the first face, in the given order,
        where ``min(|p|, |q|)`` falls below ``tol.sig``, with the
        signature that cutoff reads.
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
        pos = np.asarray(self.positions, dtype=float)
        _, _, products = _face_volumes(pos.T, self.graph.face_vertices[f_ids])
        kept = np.abs(products) >= self.tol.sig
        bad = np.flatnonzero(~kept.all(axis=1))
        if bad.size:
            k = int(bad[0])
            f, n = int(f_ids[k]), int(kept[k].sum())
            raise NonGenericPair(
                f"edge lines of face {f} have signature {(n, n, 4 - 2 * n)}, "
                "expected (2, 2, 0)",
                face=f,
                signature=(n, n, 4 - 2 * n),
            )
        # the face's sides in cycle order from the entry half-edge x -> x2
        cycle = (h_ids[:, None] + np.arange(4)) % 4
        corners = self.graph.face_vertices[f_ids[:, None], cycle][:, _ROLE_CORNERS]
        h_edges = self.graph.face_edges[f_ids[:, None], cycle][:, [3, 1, 0, 2]]
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

    def frames_from(self, seed: int):
        """Frames for every face, entries assigned by dual BFS from seed.

        Returns ``(frames, tree)``: ``tree`` is ``dual_spanning_tree(seed)``
        as an ``(F - 1, 3)`` array of ``(face, parent, shared_edge)``
        rows, and ``frames`` the :class:`FrameStack` of the seed, entered
        by its lowest-indexed half-edge, then of those faces in that BFS
        order, read in one :meth:`frames` pass.
        """
        tree = self.graph.dual_tree(seed)
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
        negative for the second.  The validation walk's face stage reads
        the sign of that determinant, and its ``FACE_VOLUME_EPS`` guard
        (:class:`DegenerateFace` for the lowest face that fails it), in
        one pass; the net holds the signs as ``positive_volumes``.
        """
        first = np.where(self.positive_volumes, 1, -1)
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
        # the walk found no violation, so its face stage read every sign
        return ANet(
            graph=graph,
            positions=positions,
            contact_planes=self.planes,
            edge_lines=self.edge_lines,
            planarity_residuals=self.residuals,
            star_diameters=self.diameters,
            positive_volumes=self.positive_volumes,
            tol=tol,
        )


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
    # every stage gathers its batches coordinate-first from this one copy
    coords = np.ascontiguousarray(positions.T)
    stages = (
        lambda: _star_stage(graph, coords, degree, tol.planar, walk),
        lambda: _edge_stage(graph, coords, walk),
        lambda: _face_stage(graph, coords, tol.sig, walk),
        lambda: _pencil_stage(graph, coords, degree, walk),
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
    for k in (np.flatnonzero(np.bincount(degree)[1:]) + 1).tolist():
        vertices = np.flatnonzero(degree == k)
        for lo in range(0, len(vertices), CHUNK):
            yield k, vertices[lo:lo + CHUNK]


def _star_stage(graph, coords, degree, planar, walk):
    """Best-fit plane of every star, stacked by star size and gathered
    coordinate-first from ``coords`` ``(3, n)``; the ``non_planar_star``
    violations by ascending vertex."""
    for k, verts in _by_degree(degree):
        slots = graph.star_offsets[verts] + np.arange(k)[:, None]
        stars = np.concatenate([verts[None], graph.star_neighbors[slots]])
        planes, residuals, diameters = _star_planes(np.take(coords, stars, axis=1), planar)
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


def _apart(sides, d_u, d_v):
    """Which edges ``sides`` ``(3, ...)``, each from one end ``u`` to
    the other ``v``, are longer than ``_ZERO_EDGE`` times the larger
    diameter of their end stars ``d_u`` and ``d_v``: the edge in units
    of that diameter, each entry at most 1 in size, so no square
    overflows; NaN, so not apart, where neither star has any extent.
    The sign of a side does not move the reading."""
    with np.errstate(divide="ignore", invalid="ignore"):
        sides = sides / np.maximum(d_u, d_v)
    return sides[0] * sides[0] + sides[1] * sides[1] + sides[2] * sides[2] > _ZERO_EDGE**2


def _edge_stage(graph, coords, walk):
    """Line of every edge, its 2x2 minors over their norm, gathered
    coordinate-first from ``coords`` ``(3, n)``; a zero-length edge keeps
    a zero line and is a violation, by ascending edge id.

    An edge is zero-length when :func:`_apart` reads it so, against the
    star diameters the star stage read: a reading relative to the net
    itself, so neither moving nor scaling the net makes an edge
    zero-length.  The minors of ``(x, 1)`` and ``(y, 1)`` are products of
    whole rows, stacked one edge a row, so that
    :func:`~hypnet.plucker._rowdot` rounds each norm as a one-edge call
    would.  The norm is read at a power-of-two scale that brings each
    edge's largest minor into [0.5, 1): exact, so no bit changes where the
    squares stay in range, and no overflow or underflow of the squares at
    any size of the net whose minors are finite (up to about 1e154)."""
    found = []
    for lo in range(0, graph.edge_count, CHUNK):
        u, v = graph.edges[lo:lo + CHUNK].T
        x, y = np.take(coords, u, axis=1), np.take(coords, v, axis=1)
        ok = _apart(y - x, walk.diameters[u], walk.diameters[v])
        # storage order (p01, p02, p03, p23, p31, p12), one edge a row
        h = np.stack([x[0] * y[1] - x[1] * y[0], x[0] * y[2] - x[2] * y[0],
                      x[0] - y[0], x[2] - y[2], y[1] - x[1],
                      x[1] * y[2] - x[2] * y[1]], axis=1)
        del x, y
        _, exponent = np.frexp(_row_max(np.abs(h)))
        h *= np.ldexp(1.0, -exponent)[:, None]
        norm = np.sqrt(_rowdot(h, h))
        np.divide(h, norm[:, None], out=walk.edge_lines[lo:lo + CHUNK], where=ok[:, None])
        found += [
            ("non_generic_pair",
             {"edges": (e,), "vertices": tuple(graph.edges[e].tolist()),
              "reason": "zero-length edge"})
            for e in (lo + np.flatnonzero(~ok)).tolist()
        ]
    return found


def _face_stage(graph, coords, sig, walk):
    """Volume ratio and opposite-pair products of every face, gathered
    coordinate-first from ``coords`` ``(3, n)``; per ascending face a
    ``degenerate_face``, or else each of the pairs (0, 2) and (1, 3)
    whose product falls below ``sig``, the gate :meth:`ANet.frames`
    reads, so that a net that passes the walk can be framed.  Keeps
    which volumes are positive, the signs :attr:`ANet.face_twists`
    reads."""
    found = []
    for lo in range(0, graph.face_count, CHUNK):
        volume, ratio, prods = _face_volumes(coords, graph.face_vertices[lo:lo + CHUNK])
        walk.positive_volumes[lo:lo + CHUNK] = volume > 0
        edges = graph.face_edges[lo:lo + CHUNK]
        # fail closed: a figure that is not finite passes no gate
        flat = ~(ratio >= FACE_VOLUME_EPS)
        meet = ~(np.abs(prods) >= sig) & ~flat[:, None]
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
    """Closed-form bounds on the singular values of each set of a stack
    of vectors held coordinate-first, ``(n, k, B)``: ``B`` sets of ``k``
    vectors of size ``n``.

    Returns ``(s1_lo, s1_hi, s2_lo, s3_hi)``, arrays ``(B,)``.  With
    ``a`` the set's first vector, ``b`` the vector with the largest part
    ``b_perp`` orthogonal to ``a`` (the first, on ties) and ``P`` the
    projector onto their span, the singular values of the set ``L``
    satisfy

    * ``max |L_i| <= s1 <= |L|_F``;
    * ``s2 >= |a| |b_perp| / sqrt(|a|^2 + |b|^2)``: the second singular
      value of the rows ``a, b``, which bounds that of ``L`` (interlacing);
    * ``s3 <= |L (I - P)|_F``, as ``L P`` has rank 2 (Eckart-Young-Mirsky).

    Each bound is widened by a slack of ``_PENCIL_SLACK |L|_F`` for its
    own rounding and for LAPACK's backward error, so it holds for the
    values that ``np.linalg.svd`` computes.  Bounds that do not exist,
    for want of two independent rows, are NaN or negative.
    """
    sq = (lines * lines).sum(axis=0)
    frob = np.sqrt(sq.sum(axis=0))
    slack = _PENCIL_SLACK * frob
    a, a2 = lines[:, :1], sq[0]
    with np.errstate(divide="ignore", invalid="ignore"):
        perp = lines - (lines * a).sum(axis=0) / a2 * a
        p2 = (perp * perp).sum(axis=0)
        # b: the entries of vector j of each set, at j B + set in a
        # (k, B) array raveled
        j = p2.argmax(axis=0) * len(a2) + np.arange(len(a2))
        b_perp = np.take(perp.reshape(len(perp), -1), j, axis=1)[:, None]
        bp2 = p2.ravel()[j]
        rest = perp - (perp * b_perp).sum(axis=0) / bp2 * b_perp
        del perp, p2
        s2_lo = np.sqrt(a2 * bp2 / (a2 + sq.ravel()[j])) - slack
    s1_lo = np.sqrt(sq.max(axis=0)) - slack
    s1_hi = frob + slack
    s3_hi = np.sqrt((rest * rest).sum(axis=(0, 1))) + slack
    return s1_lo, s1_hi, s2_lo, s3_hi


def _certified_pencils(lines):
    """Which sets of a stack of vectors held coordinate-first, ``(n, k,
    B)``, surely read rank 2 at ``PENCIL_RANK_TOL`` by their singular
    values.

    A set is certified when its :func:`_pencil_bounds` clear every cut of
    that reading with room to spare: the largest singular value the
    ``1e-14`` floor by 10x, the second the rank cut by 10x, and the third
    stays 10x below it.  A certified set reads rank 2 by the SVD; an
    uncertified one may or may not.
    """
    s1_lo, s1_hi, s2_lo, s3_hi = _pencil_bounds(lines)
    return (
        (s1_lo >= 1e-13)
        & (s2_lo >= 10 * PENCIL_RANK_TOL * s1_hi)
        & (s3_hi <= PENCIL_RANK_TOL / 10 * s1_lo)
    )


def _first_edges(graph, vertices):
    """The two lowest edge ids at each of ``vertices``, ``(B, 2)``: the
    edges a pencil violation names."""
    at = np.zeros(graph.vertex_count, dtype=bool)
    at[vertices] = True
    # the edge ends at those vertices, each edge's ends at 2 e and 2 e + 1,
    # by vertex and then by edge id
    slots = np.flatnonzero(at[graph.edges.ravel()])
    ends = graph.edges.ravel()[slots]
    order = np.argsort(ends, kind="stable")
    first = np.searchsorted(ends[order], vertices)
    return slots[order][np.stack([first, first + 1], axis=1)] // 2


def _pencil_stage(graph, coords, degree, walk):
    """Rank of every vertex pencil, stacked by vertex degree; a pencil
    that is not a line pencil (rank 2) is a violation, by ascending
    vertex.

    The pencil is read in star-local coordinates, origin at the vertex:
    there each incident edge line is ``(d, 0)`` with ``d`` its unit
    direction, so the rank is that of the unit edge directions, which
    neither translation nor scaling moves.  The directions are the unit
    vectors from the vertex to its star's neighbours, gathered
    coordinate-first from ``coords`` ``(3, n)`` a batch at a time; an
    edge that the edge stage reads zero-length (:func:`_apart`) keeps a
    zero row.  Lines through one point meet pairwise, so the signature is
    exactly (0, 0, rank); edges that are all zero span nothing: rank 0,
    dimension -1.  Only the pencils that :func:`_certified_pencils`
    leaves undecided go through one stacked SVD, for their singular
    values alone."""
    found = []
    for k, verts in _by_degree(degree):
        ends = graph.star_neighbors[graph.star_offsets[verts] + np.arange(k)[:, None]]
        directions = np.take(coords, ends, axis=1)
        directions -= np.take(coords, verts, axis=1)[:, None]
        lengths = np.sqrt(directions[0] * directions[0] + directions[1] * directions[1]
                          + directions[2] * directions[2])
        lengths[~_apart(directions, walk.diameters[verts], walk.diameters[ends])] = 0.0
        directions = np.divide(directions, lengths, out=np.zeros_like(directions),
                               where=lengths > 0.0)
        open_rows = np.flatnonzero(~_certified_pencils(directions))
        if not open_rows.size:
            continue
        s = np.linalg.svd(np.take(directions, open_rows, axis=2).T, compute_uv=False)
        rank = _span_rank(s, PENCIL_RANK_TOL)
        bad = np.flatnonzero(rank != 2)
        if not bad.size:
            continue
        verts, rank = verts[open_rows[bad]], rank[bad]
        edges = _first_edges(graph, verts)
        found += [
            ("non_generic_pair",
             {"vertex": v, "edges": tuple(pair), "pencil_signature": (0, 0, r),
              "pencil_dim": r - 1})
            for v, pair, r in zip(verts.tolist(), edges.tolist(), rank.tolist())
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

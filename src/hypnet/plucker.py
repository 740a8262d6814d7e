"""Projective line geometry of real 3-space in Pluecker coordinates.

Conventions, fixed once for the whole package:

* homogeneous points are ``(x, y, z, w)``; finite points carry ``w = 1``;
* a line through points ``x``, ``y`` is stored as the 6-vector of 2x2
  minors ``p_ij = x_i y_j - x_j y_i`` in the order
  ``(p01, p02, p03, p23, p31, p12)``, indices referring to ``(x, y, z, w)``;
* every 6-vector is normalized to unit Euclidean norm on construction.

With this component order the inner product of two 6-vectors is

    <a, b> = a01 b23 + a02 b31 + a03 b12 + a23 b01 + a31 b02 + a12 b03,

a symmetric bilinear form of signature (3, 3).  A 6-vector represents an
actual line exactly when ``<h, h> = 0``, and two lines intersect exactly
when ``<a, b> = 0``; all constructions below reduce to these two facts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    CoincidentLines,
    CoincidentPoints,
    GeometryError,
    NotSkew,
    SkewLines,
    ZeroSpan,
)

#: default relative eigenvalue cutoff when reading signatures off a Gram matrix
SIG_EPS = 1e-9

#: default star-planarity gate, relative to the star diameter
PLANAR_EPS = 1e-8

#: default agreement, on normalized vectors, required of the two
#: propagation routes meeting on a non-tree edge; looser than the
#: construction tolerances because propagation concatenates many
#: projections
CLOSURE_EPS = 1e-8


@dataclass(frozen=True)
class Tolerances:
    """The gates a run may tighten or relax, passed down explicitly.

    ``planar`` bounds a star's distance from its best-fit plane relative
    to the star diameter (validation); ``closure`` bounds the
    disagreement of the two propagation routes on a non-tree edge;
    ``sig`` is the relative eigenvalue cutoff of every signature read
    (vertex pencils, face frames, ruling planes).  A validated
    :class:`~hypnet.anet.ANet` keeps the value it was checked with.
    """

    planar: float = PLANAR_EPS
    closure: float = CLOSURE_EPS
    sig: float = SIG_EPS


#: projective equality tolerance for unit vectors: | 1 - |<a,b>_eucl| |
PROJ_EQ_TOL = 1e-10

#: incidence threshold of intersect_lines (on unit 6-vectors)
MEET_TOL = 1e-8

#: minimum |<a,b>| for lines that are required to be skew
SKEW_TOL = 1e-10

#: minimum |w| (on a unit 4-vector) for dehomogenization
W_TOL = 1e-9

#: matrix of the Pluecker form: <a,b> = a @ METRIC @ b
METRIC = np.block(
    [[np.zeros((3, 3)), np.eye(3)], [np.eye(3), np.zeros((3, 3))]]
)

# index pairs of the six stored minors, in storage order
_MINOR_INDEX = ((0, 1), (0, 2), (0, 3), (2, 3), (3, 1), (1, 2))

# incidence_matrix as one gather: entry [i, j] is _INCIDENCE_SIGN[i, j]
# times component _INCIDENCE_INDEX[i, j] of the 6-vector, where index 6
# reads an appended zero
_INCIDENCE_INDEX = np.array(
    [[6, 3, 4, 5], [3, 6, 2, 1], [4, 2, 6, 0], [5, 1, 0, 6]]
)
_INCIDENCE_SIGN = np.array(
    [
        [1.0, 1.0, 1.0, 1.0],
        [-1.0, 1.0, 1.0, -1.0],
        [-1.0, -1.0, 1.0, 1.0],
        [-1.0, 1.0, -1.0, 1.0],
    ]
)

# faults of a line meet, in checking order (0: the lines meet)
_COINCIDENT, _SKEW, _INCONSISTENT = 1, 2, 3


def plucker_product(a, b) -> float:
    """Pluecker inner product of two 6-vectors.

    Vanishes exactly when the two lines intersect (or coincide).
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return float(a[:3] @ b[3:] + a[3:] @ b[:3])


def self_product(h) -> float:
    """Value of the quadric form ``<h, h>``; zero for actual lines."""
    return plucker_product(h, h)


def normalized(v) -> np.ndarray:
    """Scale to unit Euclidean norm (raises on the zero vector)."""
    v = np.asarray(v, dtype=float)
    n = np.linalg.norm(v)
    if n == 0.0:
        raise ValueError("cannot normalize a zero vector")
    return v / n


def canonical(v) -> np.ndarray:
    """Unit norm with a deterministic sign.

    The component of largest magnitude (first such index on ties) is made
    positive, so projectively equal inputs map to the same array.
    """
    u = normalized(v)
    k = int(np.argmax(np.abs(u)))
    return -u if u[k] < 0 else u


def hom(points) -> np.ndarray:
    """Append ``w = 1`` to affine points (single point or an array of them)."""
    p = np.asarray(points, dtype=float)
    if p.ndim == 1:
        return np.concatenate([p, [1.0]])
    return np.concatenate([p, np.ones((*p.shape[:-1], 1))], axis=-1)


def proj_distance(a, b) -> float:
    """Distance between projective points: min over signs of |ua -+ ub|."""
    ua = normalized(a)
    ub = normalized(b)
    return min(
        float(np.linalg.norm(ua - ub)), float(np.linalg.norm(ua + ub))
    )


def line_from_points(x, y) -> np.ndarray:
    """Unit 6-vector of the line joining two homogeneous points.

    Antisymmetric in its arguments up to normalization.  Raises
    :class:`CoincidentPoints` when the points are projectively equal.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    h = np.array([x[i] * y[j] - x[j] * y[i] for i, j in _MINOR_INDEX])
    norm = np.linalg.norm(h)
    scale = np.linalg.norm(x) * np.linalg.norm(y)
    if scale == 0.0 or norm <= 1e-12 * scale:
        raise CoincidentPoints(f"points {x} and {y} do not span a line")
    return h / norm


def incidence_matrix(h) -> np.ndarray:
    """4x4 matrix ``M`` with ``M @ p = 0`` iff point ``p`` lies on ``h``.

    Rank 2 for decomposable ``h``; the rows are the four expansions of
    ``p ^ h = 0``, i.e. the skew matrix of the dual coordinates
    ``(h[3:], h[:3])``.  A stack
    ``(..., 6)`` gives ``(..., 4, 4)``.
    """
    h = np.asarray(h, dtype=float)
    padded = np.concatenate([h, np.zeros((*h.shape[:-1], 1))], axis=-1)
    return padded[..., _INCIDENCE_INDEX] * _INCIDENCE_SIGN


def line_direction(h) -> np.ndarray:
    """Affine direction vector of a line (zero for lines at infinity).

    A stack ``(..., 6)`` gives ``(..., 3)``.
    """
    h = np.asarray(h, dtype=float)
    return np.stack([-h[..., 2], h[..., 4], -h[..., 3]], axis=-1)


@dataclass(frozen=True, eq=False)
class _Meets:
    """A stack of line meets whose faults are recorded, not raised.

    ``points`` holds canonical unit 4-vectors ``(..., 4)``.  ``fault``
    is 0 where the pair has a unique common point and otherwise names
    the first check the pair failed; ``measure`` is the value that
    failed it.  Points of faulty pairs are meaningless.
    """

    points: np.ndarray
    fault: np.ndarray
    measure: np.ndarray

    @property
    def ok(self) -> np.ndarray:
        return self.fault == 0

    def error(self, index: tuple = (), where: str | None = None) -> GeometryError:
        """The exception of the faulty pair at ``index`` into the stack.

        Its message starts with ``where`` when given, else, for a stack,
        with ``pair <index>``.
        """
        fault = int(self.fault[index])
        value = float(self.measure[index])
        if fault == _COINCIDENT:
            kind, message = CoincidentLines, "lines coincide; no unique common point"
        elif fault == _SKEW:
            kind, message = SkewLines, f"lines are skew: <a,b> = {value:.3e}"
        else:
            kind = SkewLines
            message = f"no consistent common point (residual {value:.3e})"
        if where is None and self.fault.ndim:
            label = index[0] if len(index) == 1 else tuple(int(i) for i in index)
            where = f"pair {label}"
        return kind(message if where is None else f"{where}: {message}")


def _meet(a, b, tol: float = MEET_TOL) -> _Meets:
    """Stacked meet of line stacks ``a`` and ``b`` (broadcast together).

    Runs every check of :func:`intersect_lines` on every pair but
    records the faults instead of raising them.  Raises ``ValueError``
    when any 6-vector is zero.
    """
    pairs = np.stack(
        np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float)),
        axis=-2,
    )
    norms = np.sqrt(np.sum(pairs * pairs, axis=-1, keepdims=True))
    if not norms.all():
        raise ValueError("cannot normalize a zero vector")
    units = pairs / norms
    ua = units[..., 0, :]
    ub = units[..., 1, :]
    cosine = np.abs(np.sum(ua * ub, axis=-1))
    prod = np.sum(ua[..., :3] * ub[..., 3:], axis=-1) + np.sum(
        ua[..., 3:] * ub[..., :3], axis=-1
    )
    system = incidence_matrix(units).reshape(*pairs.shape[:-2], 8, 4)
    _, _, vt = np.linalg.svd(system, full_matrices=False)
    p = vt[..., -1, :]
    residual = np.sqrt(np.sum(np.square(system @ p[..., None])[..., 0], axis=-1))
    coincident = np.abs(1.0 - cosine) < PROJ_EQ_TOL
    skew = np.abs(prod) > tol
    fault = np.where(
        coincident,
        _COINCIDENT,
        np.where(skew, _SKEW, np.where(residual > 1e-6, _INCONSISTENT, 0)),
    )
    p = p / np.sqrt(np.sum(p * p, axis=-1, keepdims=True))
    flat = p.reshape(-1, 4)
    lead = flat[np.arange(len(flat)), np.argmax(np.abs(flat), axis=-1)]
    return _Meets(
        points=np.where(lead.reshape(p.shape[:-1])[..., None] < 0, -p, p),
        fault=fault,
        measure=np.where(coincident, cosine, np.where(skew, prod, residual)),
    )


def intersect_lines(a, b, tol: float = MEET_TOL) -> np.ndarray:
    """Common points of intersecting lines as canonical unit 4-vectors.

    ``a`` and ``b`` are 6-vectors or stacks ``(..., 6)`` that broadcast
    against each other; the result has shape ``(..., 4)``, so a single
    pair gives one ``(4,)`` point.  Each point is the common null
    direction of the pair's two incidence systems, found by one stacked
    singular value decomposition of the 8x4 systems.

    Each pair is checked in turn: :class:`CoincidentLines` when the
    lines are projectively equal, then :class:`SkewLines` when the
    Pluecker product of the unit representatives exceeds ``tol``, or
    when the best common point leaves a residual above ``1e-6``.  The
    error of the first faulty pair in row-major order is raised; for a
    stack its message starts with ``pair <index>``, the integer row of
    a 1-D stack or the index tuple of a deeper one.  ``ValueError`` when
    any 6-vector is zero.
    """
    meets = _meet(a, b, tol)
    bad = np.flatnonzero(meets.fault)
    if bad.size:
        raise meets.error(np.unravel_index(bad[0], meets.fault.shape))
    return meets.points


def signature_of_gram(gram, sig_eps: float = SIG_EPS, scale: float | None = None):
    """Inertia ``(n_plus, n_minus, n_zero)`` of a symmetric matrix.

    Eigenvalues with ``|lam| < sig_eps * max|lam|`` count as zero.  When
    ``scale`` is given it acts as a floor for the reference magnitude;
    subspaces built on orthonormal bases pass ``scale = 1`` so that a
    fully isotropic Gram matrix (all entries roundoff) is read as zero
    rather than as noise of mixed signs.
    """
    gram = np.asarray(gram, dtype=float)
    lam = np.linalg.eigvalsh(0.5 * (gram + gram.T))
    top = float(np.max(np.abs(lam))) if lam.size else 0.0
    if scale is not None:
        top = max(top, float(scale))
    if top == 0.0:
        return (0, 0, int(lam.size))
    cut = sig_eps * top
    n_plus = int(np.sum(lam > cut))
    n_minus = int(np.sum(lam < -cut))
    return (n_plus, n_minus, int(lam.size) - n_plus - n_minus)


@dataclass(frozen=True, eq=False)
class Subspace:
    """Linear subspace of the 6-dimensional Pluecker space.

    ``basis`` holds orthonormal row vectors; ``gram`` is the matrix of
    pairwise Pluecker products of the basis; ``signature`` its inertia.
    """

    basis: np.ndarray
    gram: np.ndarray
    signature: tuple[int, int, int]

    @property
    def dim(self) -> int:
        """Projective dimension (number of basis vectors minus one)."""
        return self.basis.shape[0] - 1


def _subspace_from_basis(basis: np.ndarray, sig_eps: float) -> Subspace:
    basis = np.array(
        [canonical(row) for row in basis]
    ) if len(basis) else basis
    gram = basis @ METRIC @ basis.T
    return Subspace(
        basis=basis,
        gram=gram,
        signature=signature_of_gram(gram, sig_eps, scale=1.0),
    )


def span(generators, rank_tol: float = 1e-10, sig_eps: float = SIG_EPS) -> Subspace:
    """Subspace spanned by a sequence of 6-vectors.

    The basis is extracted by singular value decomposition with relative
    rank cutoff ``rank_tol``; the signature is read with cutoff
    ``sig_eps`` (see :func:`signature_of_gram`).  Raises
    :class:`ZeroSpan` when every generator is numerically zero.
    """
    g = np.atleast_2d(np.asarray(generators, dtype=float))
    _, s, vt = np.linalg.svd(g)
    if s.size == 0 or s[0] < 1e-14:
        raise ZeroSpan("all generators are numerically zero")
    rank = int(np.sum(s > rank_tol * s[0]))
    return _subspace_from_basis(vt[:rank], sig_eps)


def polar(s: Subspace, sig_eps: float = SIG_EPS) -> Subspace:
    """Polar (Pluecker-orthogonal) complement of a subspace.

    A projective ``d``-dimensional subspace maps to one of dimension
    ``4 - d``; polarity is an involution on non-degenerate subspaces.
    The signature is read with cutoff ``sig_eps``.
    """
    conditions = s.basis @ METRIC
    _, sv, vt = np.linalg.svd(conditions, full_matrices=True)
    k = conditions.shape[0]
    rank = int(np.sum(sv > 1e-10 * sv[0])) if sv.size else k
    return _subspace_from_basis(vt[rank:], sig_eps)


def regulus_orientation(h0, h1, h2, tol: float = SKEW_TOL) -> int:
    """Orientation (+1 or -1) of the regulus through three skew lines.

    The three lines span a projective plane whose Pluecker form has
    signature ``(1, 2)`` or ``(2, 1)``; the determinant of the Gram
    matrix ``2 <h0,h1> <h0,h2> <h1,h2>`` is positive in the first case
    (orientation +1) and negative in the second (orientation -1).  The
    value does not depend on the order or the sign of the inputs.
    Raises :class:`NotSkew` when some pair fails to be skew.
    """
    u = [normalized(h) for h in (h0, h1, h2)]
    p01 = plucker_product(u[0], u[1])
    p02 = plucker_product(u[0], u[2])
    p12 = plucker_product(u[1], u[2])
    for name, value in (("h0,h1", p01), ("h0,h2", p02), ("h1,h2", p12)):
        if abs(value) < tol:
            raise NotSkew(f"lines {name} intersect: <a,b> = {value:.3e}")
    return 1 if 2.0 * p01 * p02 * p12 > 0 else -1


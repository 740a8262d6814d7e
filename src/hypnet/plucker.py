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

Functions that take stacks ``(..., n)`` form row-wise dot products with
:func:`_rowdot` on rows whose entries are adjacent in memory: numpy
evaluates its stacked ``(1, n) @ (n, 1)`` product as one BLAS dot per
row, rounded exactly like ``a @ b`` on that single pair (a sum over the
last axis, or a dot over strided entries, rounds differently), so a
value does not depend on the stack it is computed in.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CoincidentLines, CoincidentPoints, SkewLines, ZeroSpan

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

#: minimum |w| (on a unit 4-vector) for dehomogenization
W_TOL = 1e-9

#: matrix of the Pluecker form: <a,b> = a @ METRIC @ b
METRIC = np.block(
    [[np.zeros((3, 3)), np.eye(3)], [np.eye(3), np.zeros((3, 3))]]
)

# index pairs (i, j) of the six stored minors, in storage order
_MINOR_I = np.array([0, 0, 0, 2, 3, 1])
_MINOR_J = np.array([1, 2, 3, 3, 1, 2])

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


def _rowdot(a, b):
    """Dot products of the rows of arrays ``(..., n)`` broadcast
    together, each rounded like ``a @ b`` on its pair of rows."""
    if a.ndim == b.ndim == 1:  # one pair: that very product, cheaper
        return a @ b
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def plucker_product(a, b):
    """Pluecker inner product of two 6-vectors.

    Vanishes exactly when the two lines intersect (or coincide).  Stacks
    ``(..., 6)`` broadcast together give the products row by row; a
    single pair gives a float.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    prod = _rowdot(a[..., :3], b[..., 3:]) + _rowdot(a[..., 3:], b[..., :3])
    return float(prod) if np.ndim(prod) == 0 else prod


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
    positive, so projectively equal inputs map to the same array.  A
    stack ``(..., n)`` gives every row's, each equal bit for bit to the
    row's own call.  Raises ``ValueError`` when a row is zero.
    """
    v = np.asarray(v, dtype=float)
    norm = np.sqrt(_rowdot(v, v))
    if not norm.all():
        raise ValueError("cannot normalize a zero vector")
    u = v / norm[..., None]
    k = np.abs(u).argmax(axis=-1)
    if u.ndim == 1:  # the common single vector, without the gather
        return -u if u[k] < 0 else u
    rows = u.reshape(-1, u.shape[-1])
    lead = rows[np.arange(len(rows)), k.ravel()].reshape(k.shape)
    return np.where(lead[..., None] < 0, -u, u)


def hom(points) -> np.ndarray:
    """Append ``w = 1`` to affine points (single point or an array of them)."""
    p = np.asarray(points, dtype=float)
    if p.ndim == 1:
        return np.concatenate([p, [1.0]])
    return np.concatenate([p, np.ones((*p.shape[:-1], 1))], axis=-1)


def _minors(x, y):
    """Unnormalised 2x2 minors ``(..., 6)`` of homogeneous point stacks
    ``x`` and ``y`` of one shape ``(..., 4)``, in storage order."""
    # np.take keeps each row of the minors contiguous (see the module docstring)
    xi, xj = np.take(x, _MINOR_I, axis=-1), np.take(x, _MINOR_J, axis=-1)
    yi, yj = np.take(y, _MINOR_I, axis=-1), np.take(y, _MINOR_J, axis=-1)
    return xi * yj - xj * yi


def _join(x, y):
    """Stacked join of homogeneous point stacks ``x`` and ``y``
    (``(..., 4)``, broadcast together) that records instead of raising.

    Returns ``(lines, ok)``: the unit 6-vectors ``(..., 6)`` of the
    joining lines, zero where ``ok`` is false because the two points
    are projectively equal (their minors vanish relative to the points).
    """
    x, y = np.broadcast_arrays(
        np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    )
    h = _minors(x, y)
    norm = np.sqrt(_rowdot(h, h))
    scale = np.sqrt(_rowdot(x, x)) * np.sqrt(_rowdot(y, y))
    ok = (scale != 0.0) & (norm > 1e-12 * scale)
    lines = np.divide(
        h, norm[..., None], out=np.zeros_like(h), where=ok[..., None]
    )
    return lines, ok


def line_from_points(x, y) -> np.ndarray:
    """Unit 6-vector of the line joining two homogeneous points.

    Antisymmetric in its arguments up to normalization.  ``x`` and ``y``
    are 4-vectors or stacks ``(..., 4)`` that broadcast against each
    other; the result has shape ``(..., 6)``.  Raises
    :class:`CoincidentPoints` naming the first pair in row-major order
    whose points are projectively equal.
    """
    lines, ok = _join(x, y)
    if not ok.all():
        x, y = np.broadcast_arrays(
            np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        )
        first = np.unravel_index(np.flatnonzero(~ok)[0], ok.shape)
        raise CoincidentPoints(
            f"points {x[first]} and {y[first]} do not span a line"
        )
    return lines


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
    bad = np.flatnonzero(coincident | skew | (residual > 1e-6))
    if bad.size:
        index = np.unravel_index(bad[0], cosine.shape)
        if coincident[index]:
            kind, message = CoincidentLines, "lines coincide; no unique common point"
        elif skew[index]:
            kind = SkewLines
            message = f"lines are skew: <a,b> = {float(prod[index]):.3e}"
        else:
            kind, value = SkewLines, float(residual[index])
            message = f"no consistent common point (residual {value:.3e})"
        if cosine.ndim:
            label = index[0] if len(index) == 1 else tuple(int(i) for i in index)
            message = f"pair {label}: {message}"
        raise kind(message)
    return canonical(p)


def signature_of_gram(gram, sig_eps: float = SIG_EPS, scale: float | None = None):
    """Inertia ``(n_plus, n_minus, n_zero)`` of a symmetric matrix.

    Eigenvalues with ``|lam| < sig_eps * max|lam|`` count as zero.  When
    ``scale`` is given it acts as a floor for the reference magnitude;
    subspaces built on orthonormal bases pass ``scale = 1`` so that a
    fully isotropic Gram matrix (all entries roundoff) is read as zero
    rather than as noise of mixed signs.  A stack ``(..., n, n)`` gives
    the inertias as an ``(..., 3)`` integer array.
    """
    gram = np.asarray(gram, dtype=float)
    lam = np.linalg.eigvalsh(0.5 * (gram + gram.swapaxes(-1, -2)))
    top = np.abs(lam).max(axis=-1, initial=0.0)
    if scale is not None:
        top = np.maximum(top, scale)
    cut = sig_eps * top[..., None]
    n_plus = (lam > cut).sum(axis=-1)
    n_minus = (lam < -cut).sum(axis=-1)
    counts = (n_plus, n_minus, lam.shape[-1] - n_plus - n_minus)
    if lam.ndim == 1:
        return tuple(int(c) for c in counts)
    return np.stack(counts, axis=-1)


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


def _span_rank(s, rank_tol: float):
    """Ranks of spans from their singular values ``(..., k)``: the count
    above ``rank_tol`` times the largest, or 0 where every generator is
    numerically zero (largest below ``1e-14``)."""
    top = s[..., :1]
    return (s > rank_tol * top).sum(axis=-1) * (top >= 1e-14).any(axis=-1)


def _basis_gram(basis: np.ndarray, sig_eps: float):
    """Canonical rows, Gram matrices and signatures of a stack of
    orthonormal bases ``(..., r, 6)``."""
    if basis.shape[-2]:
        basis = canonical(basis)
    gram = basis @ METRIC @ basis.swapaxes(-1, -2)
    return basis, gram, signature_of_gram(gram, sig_eps, scale=1.0)


def _span_signatures(generators, rank_tol: float, sig_eps: float):
    """Ranks ``(B,)`` and signatures ``(B, 3)`` of the spans of a stack
    of generator sets ``(B, k, 6)``, each read as :func:`span` reads
    it; a set of numerically zero generators spans nothing: rank 0,
    signature ``(0, 0, 0)``.  The third value is the stack of right
    singular vectors ``(B, 6, 6)``: row ``i`` of a set of rank ``r`` is
    in its span for ``i < r`` and in its orthogonal complement else."""
    _, s, vt = np.linalg.svd(generators)
    rank = _span_rank(s, rank_tol)
    signatures = np.zeros((len(rank), 3), dtype=int)
    for r in set(rank.tolist()) - {0}:
        same = rank == r
        signatures[same] = _basis_gram(vt[same, :r], sig_eps)[2]
    return rank, signatures, vt


def span(generators, rank_tol: float = 1e-10, sig_eps: float = SIG_EPS) -> Subspace:
    """Subspace spanned by a sequence of 6-vectors.

    The basis is extracted by singular value decomposition with relative
    rank cutoff ``rank_tol``; the signature is read with cutoff
    ``sig_eps`` (see :func:`signature_of_gram`).  Raises
    :class:`ZeroSpan` when every generator is numerically zero.
    """
    g = np.atleast_2d(np.asarray(generators, dtype=float))
    _, s, vt = np.linalg.svd(g)
    rank = int(_span_rank(s, rank_tol))
    if rank == 0:
        raise ZeroSpan("all generators are numerically zero")
    return Subspace(*_basis_gram(vt[:rank], sig_eps))

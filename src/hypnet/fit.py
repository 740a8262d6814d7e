"""Star-planarity fitting: turn a quad mesh into a net with planar stars.

The functional is a sum over every vertex star (the vertex plus its
neighbors) of the squared volumes of all tetrahedra spanned by
4-subsets of the star.  It is smooth, non-negative, vanishes exactly on
nets with planar stars, is rigid-motion invariant, and scales as the
sixth power of a uniform scale factor.  Squared (rather than unsigned)
volumes keep the functional differentiable at its zero set.

The functional is ``|r|^2`` for the residual vector
``r_t = det_t / 6``, one entry per tetrahedron (``det_t`` is six times
its signed volume).  Each residual depends on the four
vertices of its tetrahedron, and its Jacobian row holds the cross
products of the tetrahedron's edge vectors.  Minimization is a damped
Gauss-Newton (Levenberg-Marquardt) iteration over the free coordinates,
with pinned vertices eliminated from the variable set: each step solves
``(J^T J + mu I) delta = -J^T r`` and is accepted only if it lowers the
energy; otherwise ``mu`` grows tenfold.  The gradient ``2 J^T r`` comes
from the same Jacobian kernel.

``J^T J + mu I`` is symmetric positive definite, and two free vertices
are coupled in it only when they share a star.  The free vertices are
therefore numbered once per fit in reverse Cuthill-McKee order of that
coupling (Cuthill & McKee, 1969), which makes the matrix narrow-banded
whatever the input's vertex numbering.  Each accepted step sums the
lower band of ``J^T J`` straight from the Jacobian blocks, and each
damping trial solves it by LAPACK's banded Cholesky
(:func:`scipy.linalg.solveh_banded`); a band that is not numerically
positive definite counts as a rejected trial.

The iteration stops when the gradient falls within its tolerance, or
when every residual is within its rounding bound: the size that storing
the vertices in double precision and evaluating the volume can leave on
a net whose stars are exactly planar.  No step can improve on that, and
on such inputs the gradient is rounding noise, so a tolerance relative
to it is out of reach.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .anet import _by_degree
from .errors import DidNotConverge
from .quadgraph import QuadGraph, _group

DEFAULT_MAX_ITER = 5000
GRAD_TOL_FACTOR = 1e-10
#: Smallest (and starting) damping ``mu``, relative to the largest diagonal
#: entry of ``J^T J``.
DAMPING_START = 1e-12
#: Tenfold damping increases tried before a step counts as no progress.
DAMPING_RETRIES = 20
#: Residuals within this multiple of ``eps`` times their rounding scale
#: (see :func:`_rounding_bound`) are as small as floating point allows.
ROUNDING_FACTOR = 8.0
#: The factor from ``det_t`` to the residual ``r_t``.
_SIXTH = 1.0 / 6.0


@dataclass
class FitProblem:
    """Mesh, start positions, and pinned vertex set.

    The start positions must be finite and the pinned ids vertex ids
    ``0 .. n - 1``.  Pinned vertices keep their initial coordinates
    exactly.
    """

    graph: QuadGraph
    initial_positions: np.ndarray
    pinned: frozenset = frozenset()
    tetrahedra: np.ndarray = field(init=False)

    def __post_init__(self):
        self.initial_positions = np.array(
            self.initial_positions, dtype=float
        )
        self.pinned = frozenset(int(v) for v in self.pinned)
        n = len(self.initial_positions)
        if any(v < 0 or v >= n for v in self.pinned):
            raise ValueError("pinned vertex ids out of range")
        if not np.all(np.isfinite(self.initial_positions)):
            raise ValueError("positions must be finite")
        self.tetrahedra = _star_tetrahedra(self.graph)

    @property
    def free_vertices(self):
        return [
            v
            for v in range(len(self.initial_positions))
            if v not in self.pinned
        ]


def _star_tetrahedra(graph: QuadGraph) -> np.ndarray:
    """Every 4-subset of every star ``(T, 4)``: stars by ascending centre
    vertex, each star's vertices ascending, its subsets in lexicographic
    order.  Stars of one size are enumerated in one pass."""
    d = graph.degrees
    subsets_per_star = (d + 1) * d * (d - 1) * (d - 2) // 24
    offsets = np.concatenate([[0], np.cumsum(subsets_per_star)])
    tetrahedra = np.empty((offsets[-1], 4), dtype=int)
    for k, verts in _by_degree(d):
        if k < 3:
            continue
        slots = graph.star_offsets[verts][:, None] + np.arange(k)
        stars = np.sort(np.column_stack([verts, graph.star_neighbors[slots]]))
        subsets = np.array(list(combinations(range(k + 1), 4)))
        rows = offsets[verts][:, None] + np.arange(len(subsets))
        tetrahedra[rows] = stars[:, subsets]
    return tetrahedra


def _edge_vectors(problem: FitProblem, positions):
    t = problem.tetrahedra
    p = positions
    d1 = p[t[:, 1]] - p[t[:, 0]]
    d2 = p[t[:, 2]] - p[t[:, 0]]
    d3 = p[t[:, 3]] - p[t[:, 0]]
    return d1, d2, d3


def _residuals(problem: FitProblem, positions):
    """Residuals ``r`` (one per tetrahedron) and their Jacobian blocks.

    ``blocks[t, k]`` is the derivative of ``r[t]`` by the coordinates of
    vertex ``tetrahedra[t, k]``.
    """
    d1, d2, d3 = _edge_vectors(problem, positions)
    c23 = np.cross(d2, d3)
    c31 = np.cross(d3, d1)
    c12 = np.cross(d1, d2)
    dets = np.einsum("ij,ij->i", d1, c23)
    blocks = np.stack([-(c23 + c31 + c12), c23, c31, c12], axis=1)
    return _SIXTH * dets, blocks * _SIXTH


def _rounding_bound(problem: FitProblem, positions, blocks):
    """Per-residual size that rounding alone leaves on a planar-star net.

    Rounding vertex ``p_k`` to double precision moves it by at most
    ``u |p_k|`` (``u = eps / 2``), which moves ``r_t`` by at most
    ``u * sum_k |blocks[t, k]| |p_k|`` to first order; evaluating the
    triple product adds a small multiple of ``u |d1| |d2| |d3| / 6``.
    """
    d1, d2, d3 = (
        np.linalg.norm(d, axis=1) for d in _edge_vectors(problem, positions)
    )
    stored = np.einsum(
        "tk,tk->t",
        np.linalg.norm(blocks, axis=2),
        np.linalg.norm(positions[problem.tetrahedra], axis=2),
    )
    scale = _SIXTH * d1 * d2 * d3 + stored
    return ROUNDING_FACTOR * np.finfo(float).eps * scale


def _gradient(problem: FitProblem, r, blocks) -> np.ndarray:
    """``2 J^T r`` as an ``(n, 3)`` array with the pinned rows zeroed."""
    n = len(problem.initial_positions)
    columns = 3 * problem.tetrahedra[:, :, None] + np.arange(3)
    grad = np.bincount(
        columns.ravel(),
        weights=(2.0 * r[:, None, None] * blocks).ravel(),
        minlength=3 * n,
    ).reshape(n, 3)
    if problem.pinned:
        grad[sorted(problem.pinned)] = 0.0
    return grad


def _neighbors(offsets, adjacent, nodes):
    """Neighbors of ``nodes``, concatenated in their order, and the
    position in ``nodes`` of the node each one belongs to."""
    counts = offsets[nodes + 1] - offsets[nodes]
    owner = np.repeat(np.arange(len(nodes)), counts)
    first = offsets[nodes] - np.cumsum(counts) + counts
    return adjacent[first[owner] + np.arange(len(owner))], owner


def _cuthill_mckee(offsets, adjacent, degree, start, visited):
    """Cuthill-McKee levels of ``start``'s component, one array per
    level, and marks them in ``visited``.

    A level's nodes come by the position of their first neighbor in the
    level before, then by degree, then by the sum of the positions of
    all their neighbors there; nodes that tie on all three are settled
    by :func:`_settle_ties`.
    """
    level = np.array([start])
    visited[start] = True
    levels = []
    while level.size:
        levels.append(level)
        nodes, owner = _neighbors(offsets, adjacent, level)
        fresh = ~visited[nodes]
        nodes, owner = nodes[fresh], owner[fresh]
        if not nodes.size:
            break
        # owners ascend, so a node's first entry is its first parent
        order, starts, _, _ = _group(nodes)
        total = np.add.reduceat(owner[order], starts)
        nodes, owner = nodes[order[starts]], owner[order[starts]]
        key = np.stack([total, degree[nodes], owner])
        rank = np.lexsort(np.vstack([nodes, key]))
        level, key = nodes[rank], key[:, rank]
        tied = np.all(key[:, 1:] == key[:, :-1], axis=0)
        if tied.any():
            level = _settle_ties(level, tied, offsets, adjacent)
        visited[level] = True
    return levels


def _settle_ties(level, tied, offsets, adjacent):
    """Reorder each run of tied nodes (``tied[i]``: ``level[i + 1]``
    ties with ``level[i]``), runs in level order, by the position of
    their first neighbor in the level outside an unsettled run, then by
    id.  Mirror-image nodes thus follow the first choice between them,
    which keeps the band of a symmetric net as narrow whatever the
    numbering."""
    starts = np.flatnonzero(np.concatenate([[True], ~tied]))
    sizes = np.diff(np.append(starts, len(level)))
    settled = np.repeat(sizes == 1, sizes)
    where = np.full(len(offsets) - 1, -1)
    where[level] = np.arange(len(level))
    runs = sizes > 1
    for lo, size in zip(starts[runs].tolist(), sizes[runs].tolist()):
        run = level[lo:lo + size]
        nodes, owner = _neighbors(offsets, adjacent, run)
        at = where[nodes]
        near = at >= 0
        near[near] = settled[at[near]]
        first = np.full(size, len(level))
        np.minimum.at(first, owner[near], at[near])
        run = run[np.lexsort((run, first))]
        level[lo:lo + size] = run
        where[run] = np.arange(lo, lo + size)
        settled[lo:lo + size] = True
    return level


def _band_order(offsets, adjacent):
    """Reverse Cuthill-McKee order of a graph given by neighbor lists.

    Each component starts at a pseudo-peripheral node (George & Liu,
    1979): from its lowest-degree node, move to the lowest-degree node
    of the last level while that deepens the level structure.  Nodes
    without neighbors come last.
    """
    degree = np.diff(offsets)
    visited = degree == 0
    parts = []
    while not visited.all():
        open_nodes = np.flatnonzero(~visited)
        start = open_nodes[np.argmin(degree[open_nodes])]
        levels = _cuthill_mckee(offsets, adjacent, degree, start,
                                visited.copy())
        while True:
            last = levels[-1]
            deeper = _cuthill_mckee(offsets, adjacent, degree,
                                    last[np.argmin(degree[last])],
                                    visited.copy())
            if len(deeper) <= len(levels):
                break
            levels = deeper
        parts.extend(levels)
        visited[np.concatenate(levels)] = True
    order = np.concatenate(parts + [np.flatnonzero(degree == 0)])
    return order[::-1]


def _coupling(corners, count):
    """Neighbor lists ``(offsets, adjacent)`` of the nodes
    ``0 .. count - 1`` that share a row of ``corners`` (``-1`` for no
    node), each list ascending."""
    a, b = np.triu_indices(4, 1)
    ends = np.stack([corners[:, a].ravel(), corners[:, b].ravel()])
    ends = ends[:, np.all(ends >= 0, axis=0)]
    tails = np.concatenate([ends[0], ends[1]])
    heads = np.concatenate([ends[1], ends[0]])
    order, starts, _, _ = _group(tails * count + heads)
    pairs = order[starts]
    per_node = np.bincount(tails[pairs], minlength=count)
    return np.concatenate([[0], np.cumsum(per_node)]), heads[pairs]


def _band_layout(problem: FitProblem, free):
    """Band order of the free vertices and the lower band of ``J^T J``.

    Two free vertices are coupled in ``J^T J`` when they share a
    tetrahedron; :func:`_band_order` numbers them along that coupling.
    Returns ``(moved, normal_band)``: ``moved`` lists the free vertices
    in band order, so band coordinate ``3 * p + k`` is axis ``k`` of
    vertex ``moved[p]``, and ``normal_band(blocks)`` maps the
    :func:`_residuals` blocks to the ``(w + 1, 3 * len(free))`` array
    with ``band[i - j, j] = (J^T J)[i, j]`` for ``0 <= i - j <= w``,
    the lower storage :func:`scipy.linalg.solveh_banded` reads.  Each
    entry sums its products in ascending tetrahedron order.
    """
    column_of = np.full(len(problem.initial_positions), -1)
    column_of[free] = np.arange(len(free))
    corners = column_of[problem.tetrahedra]
    moved = free[_band_order(*_coupling(corners, len(free)))]

    # entries in the lower band: for each pair of free corners (a, b) of a
    # tetrahedron with a placed no earlier than b, the products of axis i
    # of a with axis j of b; a corner paired with itself keeps i >= j
    rank = np.full(len(problem.initial_positions), -1)
    rank[moved] = np.arange(len(moved))
    place = rank[problem.tetrahedra]
    a, b = np.divmod(np.arange(16), 4)
    t, pair = np.nonzero((place[:, b] >= 0) & (place[:, a] >= place[:, b]))
    a, b = a[pair], b[pair]
    i, j = np.divmod(np.arange(9), 3)
    offset = (3 * (place[t, a] - place[t, b]))[:, None] + (i - j)
    keep = offset >= 0
    size = 3 * len(free)
    width = int(np.max(offset, initial=0))
    col = (3 * place[t, b])[:, None] + j
    target = (col * (width + 1) + offset)[keep]
    left = ((12 * t + 3 * a)[:, None] + i)[keep]
    right = ((12 * t + 3 * b)[:, None] + j)[keep]

    def normal_band(blocks):
        flat = blocks.reshape(-1)
        # column-major, the layout LAPACK factors in place
        return np.bincount(
            target, weights=flat[left] * flat[right],
            minlength=size * (width + 1),
        ).reshape(size, width + 1).T

    return moved, normal_band


def _damped_step(band, damping, rhs, work):
    """Solve ``(J^T J + damping I) step = rhs`` from the lower band of
    ``J^T J`` by banded Cholesky, factoring in ``work`` (an array like
    ``band``); raises ``LinAlgError`` when the damped band is not
    numerically positive definite."""
    from scipy.linalg import solveh_banded

    work[...] = band
    work[0] += damping
    return solveh_banded(work, rhs, overwrite_ab=True, lower=True,
                         check_finite=False)


def energy(problem: FitProblem, positions) -> float:
    """Sum of squared tetrahedron volumes over all stars."""
    positions = np.asarray(positions, dtype=float)
    if len(problem.tetrahedra) == 0:
        return 0.0
    d1, d2, d3 = _edge_vectors(problem, positions)
    dets = np.einsum("ij,ij->i", d1, np.cross(d2, d3))
    return float(np.sum(dets**2) / 36.0)


def gradient(problem: FitProblem, positions) -> np.ndarray:
    """Analytic gradient of :func:`energy`; rows of pinned vertices are zero."""
    positions = np.asarray(positions, dtype=float)
    return _gradient(problem, *_residuals(problem, positions))


def fit(
    problem: FitProblem,
    max_iter: int = DEFAULT_MAX_ITER,
    tol_g: float | None = None,
):
    """Minimize the star-planarity functional.

    Returns ``(positions, report)``.  The gradient tolerance defaults to
    ``1e-10`` times the initial gradient's max-norm.  ``converged`` means
    the final gradient's max-norm is within it (``stopping ==
    "gradient"``) or every residual is within its rounding bound
    (``stopping == "rounding"``), which an input with exactly planar
    stars meets at once.  ``max_iter`` bounds the accepted steps.  Raises
    :class:`DidNotConverge` (carrying ``(positions, report)`` in its
    ``result``) when the budget runs out first (``stopping ==
    "budget"``) or when no damped step lowers the energy any more
    (``stopping == "no_progress"``).
    """
    x = problem.initial_positions.copy()
    free = np.array(problem.free_vertices, dtype=int)
    r, blocks = _residuals(problem, x)
    e = float(r @ r)
    g = _gradient(problem, r, blocks)
    g0_norm = float(np.max(np.abs(g))) if g.size else 0.0
    tol = tol_g if tol_g is not None else GRAD_TOL_FACTOR * g0_norm

    def make_report(iterations, g_norm, history, message, stopping):
        return {
            "iterations": int(iterations),
            "energy": history[-1],
            "grad_norm": g_norm,
            "tolerance": float(tol),
            "converged": stopping in ("gradient", "rounding"),
            "stopping": stopping,
            "energy_history": history,
            "message": message,
        }

    if not free.size or g0_norm == 0.0:
        report = make_report(0, g0_norm, [e],
                             "initial point already stationary"
                             if free.size else "all vertices pinned",
                             "gradient")
        return x, report

    moved, normal_band = _band_layout(problem, free)
    work = None
    history = [e]
    mu = DAMPING_START
    iterations = 0
    while True:
        g_norm = float(np.max(np.abs(g)))
        if g_norm <= tol:
            stopping, message = "gradient", "gradient within tolerance"
            break
        if np.all(np.abs(r) <= _rounding_bound(problem, x, blocks)):
            stopping = "rounding"
            message = "every residual within its rounding bound"
            break
        if iterations >= max_iter:
            stopping, message = "budget", "accepted-step budget exhausted"
            break
        band = normal_band(blocks)
        if work is None:
            work = np.empty_like(band)
        scale = float(band[0].max())
        rhs = -0.5 * g[moved].ravel()
        for _ in range(DAMPING_RETRIES):
            try:
                step = _damped_step(band, mu * scale, rhs, work)
            except np.linalg.LinAlgError:
                pass
            else:
                trial = x.copy()
                trial[moved] += step.reshape(-1, 3)
                r_trial, blocks_trial = _residuals(problem, trial)
                e_trial = float(r_trial @ r_trial)
                if e_trial < e:
                    break
            mu *= 10.0
        else:
            stopping = "no_progress"
            message = "no damped step lowered the energy"
            break
        del band  # free it before the next step sums its own
        x, e, r, blocks = trial, e_trial, r_trial, blocks_trial
        history.append(e)
        mu = max(mu / 10.0, DAMPING_START)
        iterations += 1
        g = _gradient(problem, r, blocks)

    report = make_report(iterations, g_norm, history, message, stopping)
    if not report["converged"]:
        raise DidNotConverge(
            f"stopped on {stopping} with gradient norm {g_norm:.3e} above "
            f"tolerance {tol:.3e} after {iterations} steps",
            result=(x, report),
        )
    return x, report

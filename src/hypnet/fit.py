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
whatever the input's vertex numbering.  That layout is built in a few
array passes (:func:`_band_layout`): the coupling pairs come from the
stars of four or more vertices, one sort for all of them; each root
tried in the search for a pseudo-peripheral start (George & Liu, 1979)
costs a breadth-first search that only counts levels, and only a root
kept is ordered level by level; and the band's entries are mapped as
runs of products, axis pairs outer and tetrahedra inner, so that every
entry sums its products in ascending tetrahedron order.  Each accepted
step sums the lower band of ``J^T J`` straight from the Jacobian
blocks, and each damping trial solves it by LAPACK's banded Cholesky
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


def _stars(graph: QuadGraph):
    """The stars of four or more vertices, stacked by size: ``(k, verts,
    stars)`` for each degree ``k >= 3``, row ``stars[s]`` holding
    ``verts[s]`` and then its neighbors."""
    for k, verts in _by_degree(graph.degrees):
        if k >= 3:
            slots = graph.star_offsets[verts][:, None] + np.arange(k)
            yield k, verts, np.column_stack(
                [verts, graph.star_neighbors[slots]]
            )


def _star_tetrahedra(graph: QuadGraph) -> np.ndarray:
    """Every 4-subset of every star ``(T, 4)``: stars by ascending centre
    vertex, each star's vertices ascending, its subsets in lexicographic
    order.  Stars of one size are enumerated in one pass."""
    d = graph.degrees
    subsets_per_star = (d + 1) * d * (d - 1) * (d - 2) // 24
    offsets = np.concatenate([[0], np.cumsum(subsets_per_star)])
    tetrahedra = np.empty((offsets[-1], 4), dtype=int)
    for k, verts, stars in _stars(graph):
        subsets = np.array(list(combinations(range(k + 1), 4)))
        rows = offsets[verts][:, None] + np.arange(len(subsets))
        tetrahedra[rows] = np.sort(stars)[:, subsets]
    return tetrahedra


def _edge_vectors(problem: FitProblem, positions):
    t = problem.tetrahedra
    p = positions
    d1 = p[t[:, 1]] - p[t[:, 0]]
    d2 = p[t[:, 2]] - p[t[:, 0]]
    d3 = p[t[:, 3]] - p[t[:, 0]]
    return d1, d2, d3


def _residuals(problem: FitProblem, positions):
    """Residuals ``r`` (one per tetrahedron), their Jacobian blocks, and
    the edge vectors ``(d1, d2, d3)`` they come from.

    ``blocks[t, k]`` is the derivative of ``r[t]`` by the coordinates of
    vertex ``tetrahedra[t, k]``.
    """
    d1, d2, d3 = edges = _edge_vectors(problem, positions)
    c23 = np.cross(d2, d3)
    c31 = np.cross(d3, d1)
    c12 = np.cross(d1, d2)
    dets = np.einsum("ij,ij->i", d1, c23)
    blocks = np.stack([-(c23 + c31 + c12), c23, c31, c12], axis=1)
    return _SIXTH * dets, blocks * _SIXTH, edges


def _rounding_bound(problem: FitProblem, positions, blocks, edges):
    """Per-residual size that rounding alone leaves on a planar-star net,
    from the :func:`_residuals` blocks and edge vectors at ``positions``.

    Rounding vertex ``p_k`` to double precision moves it by at most
    ``u |p_k|`` (``u = eps / 2``), which moves ``r_t`` by at most
    ``u * sum_k |blocks[t, k]| |p_k|`` to first order; evaluating the
    triple product adds a small multiple of ``u |d1| |d2| |d3| / 6``.
    """
    d1, d2, d3 = (np.linalg.norm(d, axis=1) for d in edges)
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


def _neighbors(offsets, adjacent, degree, nodes):
    """Neighbors of the (one or more) ``nodes``, concatenated in their
    order, and how many each node has."""
    counts = degree[nodes]
    ends = counts.cumsum()
    slots = (offsets[nodes] - ends + counts).repeat(counts)
    slots += np.arange(ends[-1])
    return adjacent[slots], counts


def _depth(offsets, adjacent, degree, start, visited):
    """Number of levels of the breadth-first search from ``start``,
    which marks ``start``'s component in ``visited``."""
    level = np.array([start])
    visited[start] = True
    slot = np.empty(len(degree), dtype=np.intp)
    depth = 0
    while level.size:
        depth += 1
        nodes = _neighbors(offsets, adjacent, degree, level)[0]
        nodes = nodes[~visited[nodes]]
        visited[nodes] = True
        # one entry per node: the one whose position its slot holds
        where = np.arange(len(nodes))
        slot[nodes] = where
        level = nodes[slot[nodes] == where]
    return depth


def _cuthill_mckee(offsets, adjacent, degree, start, visited):
    """Cuthill-McKee levels of ``start``'s component, one array per
    level, and marks them in ``visited``.

    A level's nodes come by the position of their first neighbor in the
    level before, then by degree, then by the sum of the positions of
    all their neighbors there, then by id; nodes that tie on the first
    three are settled by :func:`_settle_ties`.
    """
    level = np.array([start])
    visited[start] = True
    span = int(degree.max()) + 1
    levels = []
    while level.size:
        levels.append(level)
        nodes, counts = _neighbors(offsets, adjacent, degree, level)
        fresh = ~visited[nodes]
        nodes = nodes[fresh]
        if not nodes.size:
            break
        owner = np.arange(len(level)).repeat(counts)[fresh]
        # owners ascend, so a node's first entry is its first parent
        order = nodes.argsort(kind="stable")
        nodes, owner = nodes[order], owner[order]
        new = np.empty(len(nodes), dtype=bool)
        new[0] = True
        np.not_equal(nodes[1:], nodes[:-1], out=new[1:])
        first = new.nonzero()[0]
        total = np.add.reduceat(owner, first)
        nodes = nodes[first]
        # a node has fewer than `span` parents, each at a position below
        # len(level), so the key ranks (parent, degree, total) at once
        key = (owner[first] * span + degree[nodes]) * (span * len(level))
        key += total
        rank = key.argsort(kind="stable")
        level, key = nodes[rank], key[rank]
        tied = key[1:] == key[:-1]
        if tied.any():
            level = _settle_ties(level, tied, offsets, adjacent, degree)
        visited[level] = True
    return levels


def _settle_ties(level, tied, offsets, adjacent, degree):
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
        nodes, counts = _neighbors(offsets, adjacent, degree, run)
        owner = np.arange(size).repeat(counts)
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
    of the last level while that deepens the level structure.  Only a
    root that does is ordered level by level; trying one takes just the
    depth of its search.  Nodes without neighbors come last.
    """
    degree = np.diff(offsets)
    visited = degree == 0
    parts = []
    while not visited.all():
        open_nodes = np.flatnonzero(~visited)
        root = open_nodes[np.argmin(degree[open_nodes])]
        while True:
            levels = _cuthill_mckee(offsets, adjacent, degree, root,
                                    visited.copy())
            last = levels[-1]
            root = last[np.argmin(degree[last])]
            if _depth(offsets, adjacent, degree, root,
                      visited.copy()) <= len(levels):
                break
        parts.extend(levels)
        visited[np.concatenate(levels)] = True
    order = np.concatenate(parts + [np.flatnonzero(degree == 0)])
    return order[::-1]


def _coupling(graph: QuadGraph, column_of, count):
    """Neighbor lists ``(offsets, adjacent)``, each ascending, of the
    nodes ``0 .. count - 1`` that ``column_of`` gives the free vertices
    (``-1`` for the pinned ones).  Two vertices share a tetrahedron
    exactly when both lie in one star of four or more vertices, so each
    such star couples all its pairs."""
    ends = [np.empty((2, 0), dtype=np.intp)]
    for k, _, stars in _stars(graph):
        a, b = np.triu_indices(k + 1, 1)
        columns = column_of[stars]
        ends.append(np.stack([columns[:, a].ravel(), columns[:, b].ravel()]))
    ends = np.concatenate(ends, axis=1)
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
    the lower storage :func:`scipy.linalg.solveh_banded` reads.

    A band entry takes at most one product from each tetrahedron, and
    only the order of those products fixes its bits: ascending
    tetrahedron order.  So the products come axis pair by axis pair,
    each a run over the tetrahedra: first each free corner's lower 3x3
    block, then, for each two free corners of one tetrahedron, the 3x3
    block of the later placed one's axes (rows) by the earlier one's
    (columns).
    """
    n = len(problem.initial_positions)
    column_of = np.full(n, -1)
    column_of[free] = np.arange(len(free))
    moved = free[_band_order(*_coupling(problem.graph, column_of,
                                        len(free)))]

    rank = np.full(n, -1)
    rank[moved] = np.arange(len(moved))
    place = rank[problem.tetrahedra]
    # free corners, and pairs of them, as slots 4 * t + a of `place`
    # (tetrahedron-major, so each entry's products ascend in t)
    placed = place >= 0
    corner = np.flatnonzero(placed)
    one, other = np.triu_indices(4, 1)
    t, pair = np.divmod(np.flatnonzero(placed[:, one] & placed[:, other]),
                        6)
    first, second = 4 * t + one[pair], 4 * t + other[pair]
    place = place.ravel()
    own, p1, p2 = place[corner], place[first], place[second]
    swap = p1 > p2
    later = np.where(swap, first, second)
    earlier = np.where(swap, second, first)
    lo, gap = np.minimum(p1, p2), np.abs(p1 - p2)
    size = 3 * len(free)
    width = 3 * int(np.max(gap, initial=0)) + 2 if len(corner) else 0
    stride = width + 1
    # entry (i, j) of a block sits at band row 3 * p + i, column 3 * q + j,
    # so at position (3 * q + j) * stride + 3 * (p - q) + i - j
    i, j = np.tril_indices(3)
    ii, jj = np.divmod(np.arange(9), 3)
    split = 6 * len(corner)
    target = np.empty(split + 9 * len(lo), dtype=np.intp)
    np.add((j * stride + i - j)[:, None], 3 * stride * own,
           out=target[:split].reshape(6, -1))
    np.add((jj * stride + ii - jj)[:, None], 3 * (stride * lo + gap),
           out=target[split:].reshape(9, -1))
    rows = (corner, later, earlier)
    weights = np.empty(len(target))

    def products(blocks):
        # one row per axis: axis pairs outer, tetrahedra inner, so every
        # multiply runs over all tetrahedra at once
        axes = blocks.reshape(-1, 3).T.copy()
        vertex, row, column = (np.take(axes, r, axis=1) for r in rows)
        lower = weights[:split].reshape(6, -1)
        for k in range(3):  # the pairs (k, 0 .. k) of the lower triangle
            np.multiply(vertex[k], vertex[:k + 1],
                        out=lower[k * (k + 1) // 2:(k + 1) * (k + 2) // 2])
        np.multiply(row[:, None], column[None, :],
                    out=weights[split:].reshape(3, 3, -1))
        return weights

    def normal_band(blocks):
        # column-major, the layout LAPACK factors in place
        return np.bincount(
            target, weights=products(blocks), minlength=size * stride,
        ).reshape(size, stride).T

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
    return _gradient(problem, *_residuals(problem, positions)[:2])


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
    r, blocks, edges = _residuals(problem, x)
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
        if np.all(np.abs(r) <= _rounding_bound(problem, x, blocks, edges)):
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
                state = _residuals(problem, trial)
                e_trial = float(state[0] @ state[0])
                if e_trial < e:
                    break
            mu *= 10.0
        else:
            stopping = "no_progress"
            message = "no damped step lowered the energy"
            break
        del band  # free it before the next step sums its own
        x, e, (r, blocks, edges) = trial, e_trial, state
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

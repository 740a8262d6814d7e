"""Star-planarity fitting: turn a quad mesh into a net with planar stars.

The functional is a sum over every vertex star (the vertex plus its
neighbors) of the squared volumes of all tetrahedra spanned by
4-subsets of the star.  It is smooth, non-negative, vanishes exactly on
nets with planar stars, is rigid-motion invariant, and scales as the
sixth power of a uniform scale factor.  Squared (rather than unsigned)
volumes keep the functional differentiable at its zero set.

The functional is ``|r|^2`` for the residual vector
``r_t = sqrt(w_t) * det_t / 6``, one entry per tetrahedron (``det_t`` is
six times its signed volume).  Each residual depends on the four
vertices of its tetrahedron, and its Jacobian row holds the cross
products of the tetrahedron's edge vectors.  Minimization is a damped
Gauss-Newton (Levenberg-Marquardt) iteration on that sparse Jacobian
over the free coordinates, with pinned vertices eliminated from the
variable set: each step solves ``(J^T J + mu I) delta = -J^T r`` and is
accepted only if it lowers the energy; otherwise ``mu`` grows tenfold.
The gradient ``2 J^T r`` comes from the same Jacobian kernel.

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

from .errors import DidNotConverge
from .quadgraph import QuadGraph

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


@dataclass
class FitProblem:
    """Mesh, start positions, pinned vertex set, and tetrahedron weights.

    ``weights`` is aligned with :attr:`tetrahedra` (one entry per
    enumerated 4-subset, default all ones) and must be finite and
    non-negative; the start positions must be finite.  Pinned vertices
    keep their initial coordinates exactly.
    """

    graph: QuadGraph
    initial_positions: np.ndarray
    pinned: frozenset = frozenset()
    weights: np.ndarray | None = None
    tetrahedra: np.ndarray = field(init=False)

    def __post_init__(self):
        self.initial_positions = np.array(
            self.initial_positions, dtype=float
        )
        if not np.all(np.isfinite(self.initial_positions)):
            raise ValueError("positions must be finite")
        self.pinned = frozenset(int(v) for v in self.pinned)
        tets = []
        for v in range(len(self.initial_positions)):
            if not self.graph.is_referenced(v):
                continue
            neighbors, _ = self.graph.vertex_star(v)
            star = sorted([v] + neighbors)
            tets.extend(combinations(star, 4))
        self.tetrahedra = (
            np.array(tets, dtype=int) if tets else np.zeros((0, 4), dtype=int)
        )
        if self.weights is None:
            self.weights = np.ones(len(self.tetrahedra))
        else:
            self.weights = np.asarray(self.weights, dtype=float)
            if self.weights.shape != (len(self.tetrahedra),):
                raise ValueError(
                    f"weights must have one entry per tetrahedron "
                    f"({len(self.tetrahedra)}), got {self.weights.shape}"
                )
            if not np.all(np.isfinite(self.weights) & (self.weights >= 0)):
                raise ValueError("weights must be finite and non-negative")

    @property
    def free_vertices(self):
        return [
            v
            for v in range(len(self.initial_positions))
            if v not in self.pinned
        ]


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
    s = np.sqrt(problem.weights) / 6.0
    blocks = np.stack([-(c23 + c31 + c12), c23, c31, c12], axis=1)
    return s * dets, blocks * s[:, None, None]


def _rounding_bound(problem: FitProblem, positions, blocks):
    """Per-residual size that rounding alone leaves on a planar-star net.

    Rounding vertex ``p_k`` to double precision moves it by at most
    ``u |p_k|`` (``u = eps / 2``), which moves ``r_t`` by at most
    ``u * sum_k |blocks[t, k]| |p_k|`` to first order; evaluating the
    triple product adds a small multiple of ``u * s_t |d1| |d2| |d3|``.
    """
    d1, d2, d3 = (
        np.linalg.norm(d, axis=1) for d in _edge_vectors(problem, positions)
    )
    s = np.sqrt(problem.weights) / 6.0
    stored = np.einsum(
        "tk,tk->t",
        np.linalg.norm(blocks, axis=2),
        np.linalg.norm(positions[problem.tetrahedra], axis=2),
    )
    scale = s * d1 * d2 * d3 + stored
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


def _free_jacobian(problem: FitProblem, free):
    """Map Jacobian blocks to the sparse Jacobian over the free coordinates.

    Returns a function of the ``blocks`` from :func:`_residuals`; column
    ``3 * i + k`` of its result is axis ``k`` of vertex ``free[i]``.
    """
    from scipy.sparse import csr_matrix

    column_of = np.full(len(problem.initial_positions), -1)
    column_of[free] = np.arange(len(free))
    corner_columns = column_of[problem.tetrahedra]
    keep = np.repeat(corner_columns[:, :, None] >= 0, 3, axis=2)
    rows = np.broadcast_to(
        np.arange(len(problem.tetrahedra))[:, None, None], keep.shape
    )[keep]
    columns = (3 * corner_columns[:, :, None] + np.arange(3))[keep]
    shape = (len(problem.tetrahedra), 3 * len(free))

    def jacobian(blocks):
        return csr_matrix((blocks[keep], (rows, columns)), shape=shape)

    return jacobian


def energy(problem: FitProblem, positions) -> float:
    """Sum of weighted squared tetrahedron volumes over all stars."""
    positions = np.asarray(positions, dtype=float)
    if len(problem.tetrahedra) == 0:
        return 0.0
    d1, d2, d3 = _edge_vectors(problem, positions)
    dets = np.einsum("ij,ij->i", d1, np.cross(d2, d3))
    return float(np.sum(problem.weights * dets**2) / 36.0)


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

    from scipy.sparse import identity
    from scipy.sparse.linalg import spsolve

    jacobian = _free_jacobian(problem, free)
    eye = identity(3 * len(free), format="csr")
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
        jac = jacobian(blocks)
        normal = (jac.T @ jac).tocsc()
        scale = float(normal.diagonal().max())
        rhs = -0.5 * g[free].ravel()
        for _ in range(DAMPING_RETRIES):
            step = spsolve(normal + (mu * scale) * eye, rhs)
            trial = x.copy()
            trial[free] += step.reshape(-1, 3)
            r_trial, blocks_trial = _residuals(problem, trial)
            e_trial = float(r_trial @ r_trial)
            if e_trial < e:
                break
            mu *= 10.0
        else:
            stopping = "no_progress"
            message = "no damped step lowered the energy"
            break
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

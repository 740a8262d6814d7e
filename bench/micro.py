"""Per-call timings of the hot line-geometry primitives on real operands.

The operands come from the ``extend_grid`` net of the run's seed, the
same calls the pipeline makes:

* ``intersect_lines`` -- rulings of carved patches met on the 9 x 9
  parameter grid, as in ``patch.sample``;
* ``span`` -- a face's first-family edge lines with its ``q1``, as when
  a propagated quadric is assembled;
* ``project_tau`` -- ``q1`` of each dual-tree parent projected through
  the shared edge line toward the child's far edge, as in
  ``hyperboloid.propagate_face``.

Each result is checked, so a faster but wrong primitive shows up.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

from hypnet.anet import validate_anet
from hypnet.hyperboloid import project_tau, propagate_all
from hypnet.meshio import read_mesh
from hypnet.patch import PATCH_MEET_TOL, restrict_to_patch
from hypnet.plucker import (
    incidence_matrix,
    intersect_lines,
    normalized,
    plucker_product,
    span,
)
from hypnet.quadgraph import build

#: Patches whose rulings feed ``intersect_lines`` (every k-th face).
PATCH_STRIDE = 50
#: Timed passes over each operand list; the median pass is reported.
PASSES = 7
#: A checked result must satisfy its defining equations to this level.
CHECK_TOL = 1e-9


def operands(mesh_path, seed_face: int, lam: float) -> dict:
    positions, quads = read_mesh(mesh_path)
    a = validate_anet(build(len(positions), quads), positions)
    hyperboloids, _ = propagate_all(a, seed_face, lam)
    grid = np.linspace(0.0, 1.0, 9)
    meets = []
    for f in sorted(hyperboloids)[::PATCH_STRIDE]:
        hb = hyperboloids[f]
        patch = restrict_to_patch(hb, hb.frame, a.positions)
        meets += [(patch.ruling1(t), patch.ruling2(s), PATCH_MEET_TOL)
                  for t in grid for s in grid]
    spans = [(np.vstack([hb.frame.h_lines[0], hb.frame.h_lines[1], hb.q1]),)
             for _, hb in sorted(hyperboloids.items())]
    projections = []
    for face, parent, shared in a.graph.dual_spanning_tree(seed_face):
        frame = hyperboloids[face].frame
        far = frame.line_of_edge(frame.opposite_in_family(shared))
        projections.append((hyperboloids[parent].q1,
                            hyperboloids[parent].frame.line_of_edge(shared),
                            far))
    return {"plucker.intersect_lines_us": (intersect_lines, meets),
            "plucker.span_us": (span, spans),
            "hyperboloid.project_tau_us": (project_tau, projections)}


def _wrong(name, args, result) -> bool:
    """Whether one primitive result violates its defining equations."""
    if name == "plucker.intersect_lines_us":
        p = normalized(result)
        return any(np.abs(incidence_matrix(normalized(h)) @ p).max() > CHECK_TOL
                   for h in args[:2])
    if name == "plucker.span_us":
        return result.basis.shape[0] != 3
    far = normalized(args[2])
    return abs(plucker_product(normalized(result), far)) > CHECK_TOL


def run(mesh_path, seed_face: int, lam: float):
    """Median microseconds per call of each primitive, and the count of
    results that fail their check."""
    timings = {}
    wrong = 0
    for name, (func, calls) in operands(mesh_path, seed_face, lam).items():
        passes = []
        for _ in range(PASSES):
            start = perf_counter()
            results = [func(*args) for args in calls]
            passes.append((perf_counter() - start) / len(calls) * 1e6)
        timings[name] = statistics.median(passes)
        wrong += sum(_wrong(name, args, r) for args, r in zip(calls, results))
    return timings, wrong

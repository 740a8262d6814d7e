"""Contrast per-face bilinear surfaces with one propagated quadric family.

Perturbs the interior of a saddle grid, optimizes the stars back to
planarity, then measures tangent continuity two ways: the corner
bilinear patch of each face (kinks at every interior edge) versus the
patches of a single propagated quadric family (joins smoothly).

Usage: python3 scripts/refit_contrast.py [--faces N] [--noise S] [--seed K]
"""

import argparse

import numpy as np

from hypnet.anet import validate_anet
from hypnet.fit import FitProblem, fit
from hypnet.hyperboloid import propagate_all
from hypnet.patch import (
    bilinear_parameter,
    bilinear_patches,
    check_c1,
    restrict_all,
)
from hypnet.quadgraph import build
from hypnet.synthetic import quadric_grid


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--faces", type=int, default=4, help="grid faces per side")
    parser.add_argument("--noise", type=float, default=0.1, help="interior noise scale")
    parser.add_argument("--seed", type=int, default=3, help="noise seed")
    args = parser.parse_args()

    count, quads, positions = quadric_grid(args.faces, args.faces)
    graph = build(count, quads)
    rng = np.random.default_rng(args.seed)
    noisy = positions.copy()
    for v in range(count):
        if graph.is_referenced(v) and not graph.is_boundary_vertex(v):
            noisy[v] += rng.normal(scale=args.noise, size=3)
    pinned = frozenset(v for v in range(count) if graph.is_boundary_vertex(v))

    refit, report = fit(FitProblem(graph, noisy, pinned=pinned))
    print(
        f"refit: {report['iterations']} iterations, "
        f"energy {report['energy']:.3e}, converged {report['converged']}"
    )
    a = validate_anet(graph, refit)

    bilinear = check_c1(bilinear_patches(a), a)
    print(
        f"bilinear patches: worst angle {bilinear['max_angle']:.3e} rad "
        f"(edge {bilinear['worst_edge']})"
    )

    lam = bilinear_parameter(a.face_frame(0), a.positions)
    hyperboloids, propagation = propagate_all(a, 0, lam)
    smooth = check_c1(restrict_all(hyperboloids, a.positions), a)
    print(
        f"propagated family (coordinate {lam:.6g}): worst angle "
        f"{smooth['max_angle']:.3e} rad, closure "
        f"{propagation['worst_closure_residual']:.3e}"
    )
    ratio = bilinear["max_angle"] / max(smooth["max_angle"], 1e-300)
    print(f"kink ratio bilinear/propagated: {ratio:.3e}")


if __name__ == "__main__":
    main()

"""Extend an integer grid on z = xy into a welded quadric-patch surface.

Builds the net, propagates the surface's own doubly ruled quadric from a
seed face, samples every bounded patch, and reports tangent continuity
across interior edges.  Writes the sampled mesh next to the report.

Usage: python3 scripts/extend_saddle.py [--faces N] [--samples K] [--out PATH]
"""

import argparse

import numpy as np

from hypnet.anet import validate_anet
from hypnet.hyperboloid import propagate_all
from hypnet.meshio import oriented_grids, write_mesh
from hypnet.patch import bilinear_parameter, check_c1, restrict_all, sample_all
from hypnet.quadgraph import build
from hypnet.synthetic import quadric_grid


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--faces", type=int, default=5, help="grid faces per side")
    parser.add_argument("--samples", type=int, default=9, help="samples per patch side")
    parser.add_argument("--out", default="saddle_extended.obj", help="output mesh")
    args = parser.parse_args()

    count, quads, positions = quadric_grid(args.faces, args.faces)
    a = validate_anet(build(count, quads), positions)
    lam = bilinear_parameter(a.face_frame(0), a.positions)
    print(f"net: {count} vertices, {len(quads)} faces; family coordinate {lam:g}")

    hyperboloids, propagation = propagate_all(a, 0, lam)
    print(f"propagation closure: {propagation['worst_closure_residual']:.3e}")

    patches = restrict_all(hyperboloids, a.positions)
    faces = patches.faces
    # each face's corners in role order, entered by its lowest half-edge
    corners = a.frames(faces, 4 * faces).corners
    points = sample_all(patches, args.samples, args.samples)
    oriented = oriented_grids(points, patches.frames.corners, corners)
    grids = dict(zip(faces.tolist(), zip(oriented, corners)))
    for f, (grid, _) in grids.items():
        deviation = np.max(np.abs(grid[..., 2] - grid[..., 0] * grid[..., 1]))
        print(f"  face {f}: max |z - xy| over samples {deviation:.3e}")

    report = check_c1(patches, a)
    print(
        f"tangent continuity: worst angle {report['max_angle']:.3e} rad "
        f"across {report['edge_count']} interior edges, "
        f"cusp edges {report['cusp_edges']}"
    )
    write_mesh(args.out, grids)
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()

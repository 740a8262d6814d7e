"""Transport a family coordinate around vertices of even and odd degree.

Crossing an edge carries the coordinate of a face's quadric to the
neighbor's (``hyperboloid.transport_parameter``).  Around an
even-degree vertex the coordinate returns unchanged, the labels
intact; around an odd-degree vertex it returns negated: the same
quadric with its two ruling families exchanged.  This is the
obstruction that makes odd interior degrees impossible to extend
consistently.

Usage: python3 scripts/cycle_labels.py [--trials N] [--seed K]
"""

import argparse

import numpy as np

from hypnet.anet import validate_anet
from hypnet.hyperboloid import transport_parameter
from hypnet.quadgraph import build
from hypnet.synthetic import random_umbrella_net


def cycle(a, vertex, lam):
    """The coordinate ``lam`` of the first face around ``vertex`` after
    one trip around the vertex's face cycle."""
    _, faces = a.graph.vertex_star(vertex)
    frames = [a.face_frame(f) for f in faces]
    for k, frame in enumerate(frames):
        neighbor = frames[(k + 1) % len(frames)]
        edges = a.graph.face_edges[[frame.face, neighbor.face]].tolist()
        (shared,) = set(edges[0]) & set(edges[1])
        lam = transport_parameter(a, frame, shared, neighbor, lam)
    return lam


def umbrella(k, rng, tries=50):
    for _ in range(tries):
        count, quads, positions = random_umbrella_net(k, rng)
        try:
            return validate_anet(build(count, quads), positions)
        except Exception:
            continue
    raise SystemExit(f"no valid degree-{k} umbrella after {tries} draws")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trials", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    for degree in (4, 6, 3, 5):
        intact = swapped = 0
        worst = 0.0
        for _ in range(args.trials):
            a = umbrella(degree, rng)
            lam = rng.uniform(0.2, 5.0) * rng.choice([-1.0, 1.0])
            final = cycle(a, 0, lam)
            straight = abs(final - lam) / abs(lam)
            crossed = abs(final + lam) / abs(lam)
            if straight < crossed:
                intact += 1
                worst = max(worst, straight)
            else:
                swapped += 1
                worst = max(worst, crossed)
        kind = "labels intact" if intact else "labels swapped"
        print(
            f"degree {degree}: {kind} in {max(intact, swapped)}/{args.trials} "
            f"cycles, worst relative return deviation {worst:.3e}"
        )


if __name__ == "__main__":
    main()

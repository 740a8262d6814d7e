"""Benchmark workloads: seeded inputs, CLI arguments and output checks.

Each workload writes its input mesh before any timing starts; the
program under test sees only that file and its argument list.  The same
seed always gives the same mesh bytes and the same arguments.

Why each workload exists:

* ``extend_grid`` -- the paper's main path (validate, propagate, carve,
  sample, C1 report, weld and write) at a realistic size, with an exact
  reference surface for its output.
* ``check_wide`` -- a large mesh through ``check`` only: reading, the
  half-edge build, the full ``diagnose_anet`` walk and a large report.
  It never reaches ``hyperboloid``, ``patch`` or ``fit``, so it is the
  no-change control for work in those layers.
* ``fit_noisy`` -- the only workload for ``fit``, at the size where the
  L-BFGS fit runs out of its iteration budget; that defect must show.
"""

from __future__ import annotations

import os

import numpy as np

from hypnet.anet import diagnose_anet, validate_anet
from hypnet.meshio import write_positions_mesh
from hypnet.patch import bilinear_parameter
from hypnet.quadgraph import build
from hypnet.synthetic import quadric_grid

#: Faces per side of each workload's grid.
SIZES = {"extend_grid": 20, "check_wide": 80, "fit_noisy": 20}

#: Samples per patch side; the CLI default.
SAMPLES = 9

#: Half-width of the uniform noise added to interior vertices of ``fit_noisy``.
FIT_NOISE = 5e-5

#: Output points of ``extend_grid`` must satisfy |z - x y| <= this times
#: (1 + x^2 + y^2).  Exact sampling lands at roundoff (about 1e-15).
SURFACE_RTOL = 1e-10

#: Tangent-jump bound for ``extend_grid``: adjacent patches carry one
#: quadric, so the angle is at roundoff (about 1e-13 rad).
C1_ANGLE_MAX = 1e-6


def read_vertices(path):
    """Vertex rows and face count of a text mesh (independent of ``meshio``)."""
    rows = []
    faces = 0
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            if line.startswith("v "):
                rows.append(line.split()[1:4])
            elif line.startswith("f "):
                faces += 1
    return np.array(rows, dtype=float).reshape(-1, 3), faces


class Workload:
    """One workload instance: input file, CLI argv, replay parameters."""

    name = ""
    #: Report sections the traced replay must reproduce exactly.
    sections: tuple = ()

    def __init__(self, seed: int, directory: str, size: int | None = None):
        self.seed = int(seed)
        self.size = SIZES[self.name] if size is None else int(size)
        self.input = os.path.join(directory, f"{self.name}.obj")
        self.output = os.path.join(directory, f"{self.name}.out.obj")
        self.rng = np.random.default_rng(self.seed)

    def check(self, report: dict, mesh_path) -> list:
        """Problems with one op's output (empty when it is correct)."""
        raise NotImplementedError


class ExtendGrid(Workload):
    name = "extend_grid"
    sections = ("equi_twist", "propagation", "c1")

    def __init__(self, seed, directory, size=None):
        super().__init__(seed, directory, size)
        spacing = float(self.rng.uniform(0.05, 0.2))
        origin = tuple(float(c) for c in self.rng.uniform(-2.0, 0.0, size=2))
        nv, quads, positions = quadric_grid(
            self.size, self.size, spacing=spacing, origin=origin
        )
        write_positions_mesh(self.input, positions, quads)
        net = validate_anet(build(nv, quads), positions)
        self.lam = bilinear_parameter(net.face_frame(0), net.positions)
        self.params = {"seed_face": 0, "lam": self.lam,
                       "samples": (SAMPLES, SAMPLES)}
        self.argv = ["extend", self.input, "-o", self.output,
                     "--lambda", repr(self.lam)]

    def check(self, report, mesh_path):
        problems = []
        c1 = report.get("c1") or {}
        if not c1.get("max_angle", np.inf) <= C1_ANGLE_MAX:
            problems.append(f"c1.max_angle {c1.get('max_angle')} above "
                            f"{C1_ANGLE_MAX}")
        if mesh_path is None:
            return problems + ["no output mesh"]
        points, faces = read_vertices(mesh_path)
        side = self.size * (SAMPLES - 1)
        if len(points) != (side + 1) ** 2 or faces != side**2:
            problems.append(f"welded mesh has {len(points)} vertices and "
                            f"{faces} faces, expected {(side + 1) ** 2} "
                            f"and {side**2}")
        x, y, z = points.T
        off = np.abs(z - x * y) > SURFACE_RTOL * (1.0 + x * x + y * y)
        if off.any():
            problems.append(f"{int(off.sum())} output points off z = xy")
        return problems


class CheckWide(Workload):
    name = "check_wide"
    sections = ("diagnostics",)

    def __init__(self, seed, directory, size=None):
        super().__init__(seed, directory, size)
        spacing = float(self.rng.uniform(0.02, 0.05))
        origin = tuple(float(c) for c in self.rng.uniform(-2.0, 0.0, size=2))
        _, quads, positions = quadric_grid(
            self.size, self.size, spacing=spacing, origin=origin
        )
        write_positions_mesh(self.input, positions, quads)
        self.output = None
        self.params = {}
        self.argv = ["check", self.input]

    def check(self, report, mesh_path):
        d = report.get("diagnostics") or {}
        problems = []
        if d.get("valid") is not True or d.get("equi_twisted") is not True:
            problems.append(f"diagnostics valid={d.get('valid')} "
                            f"equi_twisted={d.get('equi_twisted')}")
        if d.get("face_count") != self.size**2:
            problems.append(f"face_count {d.get('face_count')}")
        return problems


class FitNoisy(Workload):
    name = "fit_noisy"
    sections = ("pinned", "convergence")

    def __init__(self, seed, directory, size=None):
        super().__init__(seed, directory, size)
        nv, quads, positions = quadric_grid(self.size, self.size)
        self.graph = build(nv, quads)
        self.pinned = [v for v in range(nv)
                       if self.graph.is_boundary_vertex(v)]
        interior = [v for v in range(nv) if v not in set(self.pinned)]
        noisy = positions.copy()
        noisy[interior] += self.rng.uniform(
            -FIT_NOISE, FIT_NOISE, size=(len(interior), 3)
        )
        write_positions_mesh(self.input, noisy, quads)
        self.start, _ = read_vertices(self.input)
        self.params = {}
        self.argv = ["fit", self.input, "-o", self.output]

    def check(self, report, mesh_path):
        problems = []
        if report.get("pinned") != self.pinned:
            problems.append("pinned set is not the boundary")
        if mesh_path is None:
            return problems + ["no output mesh"]
        points, _ = read_vertices(mesh_path)
        if points.shape != self.start.shape:
            return problems + [f"output has {len(points)} vertices"]
        moved = points[self.pinned] != self.start[self.pinned]
        if moved.any():
            problems.append(f"{int(moved.any(axis=1).sum())} pinned "
                            "vertices moved")
        d = diagnose_anet(self.graph, points)
        if not d["valid"]:
            problems.append(f"output fails diagnose_anet with "
                            f"{len(d['violations'])} violations")
        return problems


WORKLOADS = {w.name: w for w in (ExtendGrid, CheckWide, FitNoisy)}

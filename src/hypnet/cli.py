"""Command line front end: validate, fit, and extend quad meshes.

Three subcommands share one report pipeline:

``hypnet check <mesh>``
    Parse a quad mesh and report star planarity, genericity, interior
    vertex degrees, and the per-strip twist verdict.

``hypnet fit <mesh> -o <out>``
    Minimize the star-planarity energy over the unpinned vertices and
    write the optimized mesh.

``hypnet extend <mesh> -o <out> --lambda L``
    Propagate the seed face's doubly ruled quadric over the net, carve
    the bounded patch of every face, sample the patches, and write the
    combined mesh together with a tangent-continuity report.

Every invocation prints one JSON report to stdout and exits 0 exactly
when the report's ``violations`` list is empty.  Identical input and
configuration produce byte-identical reports and meshes.  Exit codes:

1. unreadable input, malformed mesh records, or an invalid configuration
2. the face list is not a manifold quad mesh
3. the net fails star planarity or genericity
4. odd interior vertex degrees or mixed strip twists (no propagation)
5. a face's quadric carries no bounded patch over that face
6. propagation closure failed, or the fit stopped short of convergence
   (step budget spent, or no damped step lowers the energy)

The environment variables ``HYPNET_TOL_PLANAR``, ``HYPNET_TOL_CLOSURE``,
and ``HYPNET_TOL_SIG`` override the star-planarity, propagation-closure,
and signature tolerances for one invocation: :func:`main` reads them into
:attr:`RunConfig.tolerances`, and :func:`run` turns that into one
:class:`~hypnet.plucker.Tolerances` value that it passes down to
validation, whose net carries it on to framing and propagation.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from dataclasses import dataclass, field, fields

import numpy as np

from .anet import diagnose_anet, validate_anet
from .errors import (
    AnetError,
    ClosureViolation,
    DidNotConverge,
    MeshError,
    ParseError,
    PatchError,
    PropagationError,
)
from .fit import DEFAULT_MAX_ITER, FitProblem, fit
from .hyperboloid import propagate_all
from .meshio import oriented_grid, read_mesh, write_mesh, write_positions_mesh
from .patch import check_c1, restrict_to_patch, sample
from .plucker import Tolerances
from .quadgraph import build

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_MESH = 2
EXIT_ANET = 3
EXIT_STRUCTURE = 4
EXIT_PATCH = 5
EXIT_CLOSURE = 6

SCHEMA_VERSION = 1

#: tolerance keys; each is read from ``HYPNET_TOL_<KEY>``
_TOLERANCE_KEYS = tuple(f.name for f in fields(Tolerances))


@dataclass
class RunConfig:
    """One resolved CLI invocation."""

    command: str
    input_path: str
    output_path: str | None = None
    report_path: str | None = None
    seed_face: int = 0
    lam: float | None = None
    samples: tuple = (9, 9)
    pin: tuple | None = None
    max_iter: int = DEFAULT_MAX_ITER
    weld: bool = True
    tolerances: dict = field(default_factory=dict)

    def validate(self) -> None:
        if self.command not in ("check", "fit", "extend"):
            raise ValueError(f"unknown command {self.command!r}")
        if len(self.samples) != 2:
            raise ValueError("samples must be a pair (n, m)")
        if min(self.samples) < 2:
            raise ValueError(
                f"each sample count must be at least 2, got {self.samples}"
            )
        if self.command in ("fit", "extend") and self.output_path is None:
            raise ValueError(f"{self.command} requires an output path")
        if self.command == "extend":
            if self.lam is None or not math.isfinite(self.lam) or self.lam == 0:
                raise ValueError(
                    "the family coordinate must be a finite nonzero number"
                )
        if self.max_iter < 1:
            raise ValueError("max_iter must be positive")
        for key, value in self.tolerances.items():
            if key not in _TOLERANCE_KEYS:
                raise ValueError(f"unknown tolerance {key!r}")
            if isinstance(value, str) or not (
                math.isfinite(value) and value > 0
            ):
                raise ValueError(f"tolerance {key!r} must be a positive number")



def _plain(value):
    """Recursively convert a report to strict JSON-serializable data."""
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        items = sorted(value) if isinstance(value, (set, frozenset)) else value
        return [_plain(v) for v in items]
    if isinstance(value, np.ndarray):
        return [_plain(v) for v in value.tolist()]
    if isinstance(value, (np.floating, float)):
        out = float(value)
        return out if math.isfinite(out) else None
    if isinstance(value, (np.bool_, bool)):
        return bool(value)
    if isinstance(value, (np.integer, int)):
        return int(value)
    return value


def render_report(report: dict) -> str:
    return json.dumps(_plain(report), indent=2, sort_keys=True, allow_nan=False)


_CAMEL_BOUNDARY = re.compile(r"(?<!^)(?=[A-Z])")


def _violation(report: dict, exc: Exception) -> None:
    entry = {
        "kind": _CAMEL_BOUNDARY.sub("_", type(exc).__name__).lower(),
        "message": str(exc),
    }
    for key, value in (getattr(exc, "data", None) or {}).items():
        entry.setdefault(key, value)
    report["violations"].append(entry)


def _exit_code_for(exc: Exception) -> int:
    if isinstance(exc, (ParseError, OSError, ValueError)):
        return EXIT_INPUT
    if isinstance(exc, MeshError):
        return EXIT_MESH
    if isinstance(exc, AnetError):
        return EXIT_ANET
    if isinstance(exc, (ClosureViolation, DidNotConverge)):
        return EXIT_CLOSURE
    if isinstance(exc, PropagationError):
        return EXIT_STRUCTURE
    if isinstance(exc, PatchError):
        return EXIT_PATCH
    raise exc


def _structure_violations(report: dict, twist_report: dict) -> None:
    if not twist_report["interior_degrees_even"]:
        report["violations"].append(
            {
                "kind": "odd_vertex_degree",
                "message": "interior vertices of odd degree block propagation",
                "vertices": list(twist_report["odd_degree_vertices"]),
            }
        )
    mixed = [
        i for i, s in enumerate(twist_report["strips"]) if not s["uniform"]
    ]
    if mixed:
        report["violations"].append(
            {
                "kind": "mixed_strip_twists",
                "message": "strips mix ruling twists, so no single quadric "
                "family patches every face",
                "strips": mixed,
            }
        )


def _run_check(config: RunConfig, report: dict, tol: Tolerances) -> int:
    positions, quads = read_mesh(config.input_path)
    graph = build(len(positions), quads)
    diagnostics = diagnose_anet(graph, positions, tol)
    report["diagnostics"] = diagnostics
    report["violations"].extend(diagnostics["violations"])
    if diagnostics["violations"]:
        return EXIT_ANET
    if not diagnostics["equi_twisted"]:
        _structure_violations(report, diagnostics["strip_report"])
        return EXIT_STRUCTURE
    return EXIT_OK


def _run_fit(config: RunConfig, report: dict, tol: Tolerances) -> int:
    # the fit gates on its own gradient and rounding bounds, not on ``tol``
    positions, quads = read_mesh(config.input_path)
    graph = build(len(positions), quads)
    if config.pin is not None:
        pinned = frozenset(int(v) for v in config.pin)
        if any(v < 0 or v >= len(positions) for v in pinned):
            raise ValueError("pinned vertex ids out of range")
    else:
        pinned = frozenset(
            v
            for v in range(len(positions))
            if graph.is_boundary_vertex(v) or not graph.is_referenced(v)
        )
    problem = FitProblem(graph, positions, pinned=pinned)
    report["pinned"] = sorted(pinned)
    try:
        final, convergence = fit(problem, max_iter=config.max_iter)
        code = EXIT_OK
    except DidNotConverge as exc:
        final, convergence = exc.result
        _violation(report, exc)
        code = EXIT_CLOSURE
    history = convergence.pop("energy_history")
    convergence["energy_initial"] = history[0] if len(history) else None
    report["convergence"] = convergence
    write_positions_mesh(config.output_path, final, quads)
    report["output"] = str(config.output_path)
    return code


def _boundary_residual(grid: np.ndarray, corner_positions) -> float:
    """Largest distance from a boundary sample to its quad edge."""
    x, x1, x2, x12 = corner_positions
    worst = 0.0
    for samples, a, b in (
        (grid[0], x, x1),
        (grid[-1], x2, x12),
        (grid[:, 0], x, x2),
        (grid[:, -1], x1, x12),
    ):
        axis = np.asarray(b, dtype=float) - a
        axis = axis / np.linalg.norm(axis)
        offsets = samples - a
        rejection = offsets - np.outer(offsets @ axis, axis)
        worst = max(worst, float(np.linalg.norm(rejection, axis=1).max()))
    return worst


def _run_extend(config: RunConfig, report: dict, tol: Tolerances) -> int:
    positions, quads = read_mesh(config.input_path)
    graph = build(len(positions), quads)
    if not 0 <= config.seed_face < graph.face_count:
        raise ValueError(
            f"seed face {config.seed_face} is not a face id "
            f"(mesh has {graph.face_count} faces)"
        )
    a = validate_anet(graph, positions, tol)
    verdict, twist_report = a.equi_twisted()
    report["equi_twist"] = twist_report
    if not verdict:
        _structure_violations(report, twist_report)
        return EXIT_STRUCTURE
    hyperboloids, propagation = propagate_all(a, config.seed_face, config.lam)
    report["propagation"] = propagation
    n, m = config.samples
    grids = {}
    patches = {}
    boundary_residuals = {}
    for f in sorted(hyperboloids):
        hb = hyperboloids[f]
        patch = restrict_to_patch(hb, hb.frame, a.positions)
        patches[f] = patch
        corners = a.face_corners(f)
        grid = oriented_grid(sample(patch, n, m), patch.corner_map, corners)
        grids[f] = (grid, corners)
        boundary_residuals[f] = _boundary_residual(
            grid, [a.positions[c] for c in corners]
        )
    report["samples"] = [n, m]
    report["boundary_residuals"] = boundary_residuals
    report["c1"] = check_c1(patches, a, samples_per_edge=9)
    write_mesh(config.output_path, grids, weld=config.weld)
    report["weld"] = config.weld
    report["output"] = str(config.output_path)
    return EXIT_OK


_RUNNERS = {"check": _run_check, "fit": _run_fit, "extend": _run_extend}


def run(config: RunConfig):
    """Execute one configuration; returns ``(exit_code, report)``."""
    report = {
        "schema": SCHEMA_VERSION,
        "command": config.command,
        "input": str(config.input_path),
        "violations": [],
    }
    try:
        config.validate()
        tol = Tolerances(**{k: float(v) for k, v in config.tolerances.items()})
        code = _RUNNERS[config.command](config, report, tol)
    except Exception as exc:
        code = _exit_code_for(exc)
        _violation(report, exc)
    report["exit_code"] = code
    return code, report


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit with the input-error code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_INPUT)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="hypnet",
        description="validate, fit, and extend nets of planar vertex stars",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    check = commands.add_parser(
        "check", help="validate a quad mesh and report its diagnostics"
    )
    check.add_argument("input", help="quad mesh to read")
    check.add_argument("--report", help="also write the JSON report here")

    fit_cmd = commands.add_parser(
        "fit", help="optimize vertex stars toward exact planarity"
    )
    fit_cmd.add_argument("input", help="quad mesh to read")
    fit_cmd.add_argument("-o", "--output", required=True, help="optimized mesh")
    fit_cmd.add_argument(
        "--pin",
        type=int,
        nargs="*",
        default=None,
        help="vertex ids to hold fixed (default: boundary vertices)",
    )
    fit_cmd.add_argument(
        "--max-iter",
        type=int,
        default=DEFAULT_MAX_ITER,
        help="budget of accepted Gauss-Newton steps",
    )
    fit_cmd.add_argument("--report", help="also write the JSON report here")

    extend = commands.add_parser(
        "extend", help="sample the adapted quadric patches of every face"
    )
    extend.add_argument("input", help="quad mesh to read")
    extend.add_argument("-o", "--output", required=True, help="sampled mesh")
    extend.add_argument(
        "--seed-face", type=int, default=0, help="face carrying the parameter"
    )
    extend.add_argument(
        "--lambda",
        dest="lam",
        type=float,
        required=True,
        help="family coordinate of the seed face's quadric",
    )
    extend.add_argument(
        "--samples",
        type=int,
        nargs=2,
        default=(9, 9),
        metavar=("N", "M"),
        help="sample grid size per patch",
    )
    extend.add_argument(
        "--no-weld",
        dest="weld",
        action="store_false",
        help="keep each patch's boundary samples separate",
    )
    extend.add_argument("--report", help="also write the JSON report here")
    return parser


def _environment_tolerances() -> dict:
    tolerances = {}
    for key in _TOLERANCE_KEYS:
        raw = os.environ.get(f"HYPNET_TOL_{key.upper()}")
        if raw is None:
            continue
        try:
            tolerances[key] = float(raw)
        except ValueError:
            tolerances[key] = raw  # rejected with a clear message later
    return tolerances


def main(argv=None) -> int:
    namespace = _build_parser().parse_args(argv)
    config = RunConfig(
        command=namespace.command,
        input_path=namespace.input,
        output_path=getattr(namespace, "output", None),
        report_path=namespace.report,
        seed_face=getattr(namespace, "seed_face", 0),
        lam=getattr(namespace, "lam", None),
        samples=tuple(getattr(namespace, "samples", (9, 9))),
        pin=getattr(namespace, "pin", None),
        max_iter=getattr(namespace, "max_iter", DEFAULT_MAX_ITER),
        weld=getattr(namespace, "weld", True),
        tolerances=_environment_tolerances(),
    )
    code, report = run(config)
    rendered = render_report(report)
    print(rendered)
    if config.report_path:
        with open(config.report_path, "w", encoding="utf-8", newline="\n") as f:
            f.write(rendered + "\n")
    return code


if __name__ == "__main__":
    raise SystemExit(main())

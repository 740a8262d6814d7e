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

Every invocation prints one JSON report to stdout (see
:func:`render_report`) and exits 0 exactly when the report's
``violations`` list is empty.  Identical input and configuration produce
byte-identical reports and meshes.  ``--report FILE`` is opened before
the run, so a report that cannot be written fails as an input error and
nothing runs.  Exit codes:

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
import math
import os
import re
import sys
from contextlib import ExitStack
from dataclasses import dataclass, field, fields
from itertools import accumulate, chain
from json.encoder import encode_basestring_ascii

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
from .patch import check_c1, restrict_all, sample_all
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


def render_report(report: dict) -> str:
    """The report as JSON text: two-space indent, keys sorted, strings
    with ASCII escapes, non-finite floats as ``null``.

    Keys are converted with ``str``, arrays with ``tolist``, sets sorted,
    tuples become lists and numpy scalars their Python values.  The text
    equals ``json.dumps`` of that converted report with ``indent=2,
    sort_keys=True``, byte for byte; lists of numbers, and lists of such
    lists, are joined in one pass each instead of value by value.
    """
    return _render(report, "\n")


_NUMBERS = frozenset({int, float, type(None)})


def _numbers(text: str, kinds) -> str:
    """``text`` joined from the ``repr`` of ints, floats and ``None``
    (of the types ``kinds``) with the non-numbers turned into JSON."""
    if kinds == {int}:
        return text
    # no repr of a finite float or an int contains these words
    for word in ("None", "-inf", "inf", "nan"):
        text = text.replace(word, "null")
    return text


def _render(value, indent: str) -> str:
    """JSON text of ``value`` whose first line starts at ``indent``
    (a newline and the spaces before the value's own line)."""
    if value is None:
        return "null"
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return repr(int(value))
    if isinstance(value, (float, np.floating)):
        value = float(value)
        return repr(value) if math.isfinite(value) else "null"
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = indent + "  "
        plain = {str(k): v for k, v in value.items()}
        return "{" + inner + ("," + inner).join(
            encode_basestring_ascii(k) + ": " + _render(plain[k], inner)
            for k in sorted(plain)
        ) + indent + "}"
    if isinstance(value, np.ndarray):
        return _render(value.tolist(), indent)
    if not isinstance(value, (list, tuple, set, frozenset)):
        raise TypeError(
            f"Object of type {type(value).__name__} is not JSON serializable"
        )
    items = sorted(value) if isinstance(value, (set, frozenset)) else value
    if not items:
        return "[]"
    inner = indent + "  "
    sep = "," + inner
    kinds = set(map(type, items))
    if kinds <= _NUMBERS:
        body = _numbers(sep.join(map(repr, items)), kinds)
    elif (kinds == {list} and all(items) and
          (cells := set(map(type, chain.from_iterable(items)))) <= _NUMBERS):
        # rows of numbers, none of them empty: every number followed by
        # the glue to the next one, within its row or across rows
        row = inner + "  "
        glue = ["," + row] * sum(map(len, items))
        next_row = inner + "]" + sep + "[" + row
        for end in accumulate(map(len, items)):
            glue[end - 1] = next_row
        glue[-1] = ""
        numbers = map(repr, chain.from_iterable(items))
        body = _numbers("[" + row + "".join(
            chain.from_iterable(zip(numbers, glue))
        ) + inner + "]", cells)
    else:
        body = sep.join([_render(v, inner) for v in items])
    return "[" + inner + body + indent + "]"


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
            np.flatnonzero(graph.boundary | (graph.degrees == 0)).tolist()
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


def _boundary_residuals(grids: np.ndarray, corners: np.ndarray) -> np.ndarray:
    """Largest distance from a boundary sample to its quad edge, per face.

    ``grids`` are patch sample grids ``(F, n, m, 3)`` and ``corners`` the
    quads' corner positions ``(F, 4, 3)`` in the patches' role order.
    """
    n, m = grids.shape[1:3]
    samples = np.concatenate(
        [grids[:, 0], grids[:, -1], grids[:, :, 0], grids[:, :, -1]], axis=1
    )
    # per boundary sample, the corners (role indices) of its edge
    ends = np.repeat([[0, 1], [2, 3], [0, 2], [1, 3]], [m, m, n, n], axis=0)
    a, b = corners[:, ends[:, 0]], corners[:, ends[:, 1]]
    axis = (b - a) / np.linalg.norm(b - a, axis=-1, keepdims=True)
    offsets = samples - a
    rejection = offsets - np.sum(offsets * axis, axis=-1, keepdims=True) * axis
    return np.linalg.norm(rejection, axis=-1).max(axis=1)


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
    faces = sorted(hyperboloids)
    patches = restrict_all([hyperboloids[f] for f in faces], a.positions)
    points = sample_all(patches, n, m)
    report["samples"] = [n, m]
    report["boundary_residuals"] = dict(
        zip(faces, _boundary_residuals(points, patches.points))
    )
    report["c1"] = check_c1(patches, a, samples_per_edge=9)
    grids = {}
    for k, f in enumerate(faces):
        corners = a.face_corners(f)
        grids[f] = (oriented_grid(points[k], patches[k].corner_map, corners), corners)
    write_mesh(config.output_path, grids, weld=config.weld)
    report["weld"] = config.weld
    report["output"] = str(config.output_path)
    return EXIT_OK


_RUNNERS = {"check": _run_check, "fit": _run_fit, "extend": _run_extend}


def _new_report(config: RunConfig) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "command": config.command,
        "input": str(config.input_path),
        "violations": [],
    }


def run(config: RunConfig):
    """Execute one configuration; returns ``(exit_code, report)``."""
    report = _new_report(config)
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
    with ExitStack() as stack:
        sink = None
        try:
            # opened before the run, so that a report that cannot be
            # written fails like any other input; for appending, so that
            # a report path naming the input does not empty it unread
            if config.report_path:
                sink = stack.enter_context(open(
                    config.report_path, "a", encoding="utf-8", newline="\n"
                ))
        except OSError as exc:
            report = _new_report(config)
            _violation(report, exc)
            code = report["exit_code"] = EXIT_INPUT
        else:
            code, report = run(config)
        rendered = render_report(report)
        print(rendered)
        if sink is not None:
            sink.truncate(0)
            sink.write(rendered + "\n")
    return code


if __name__ == "__main__":
    raise SystemExit(main())

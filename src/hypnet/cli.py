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
    combined mesh together with a tangent-continuity report.  The
    report's ``c1.edges[e].max_angle`` is the largest angle between the
    two patches' tangent planes over the whole of edge ``e``, read in
    closed form from their pencils of tangent planes along it
    (:func:`~hypnet.patch.check_c1`); ``c1.samples_per_edge`` counts the
    points per edge at which second-order probes look for folds.

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
and signature tolerances for one invocation (the last gates, face-local,
the pair products of the validation walk's face stage, the face frames
and the ruling planes, so ``check`` refuses every face whose frame
``extend`` would refuse): :func:`main` reads them into
:attr:`RunConfig.tolerances`, and :func:`run` turns that into one
:class:`~hypnet.plucker.Tolerances` value that it passes down to
validation, whose net carries it on to framing and propagation.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import stat
import sys
from contextlib import ExitStack
from dataclasses import dataclass, field, fields
from functools import cache
from itertools import chain
from json.encoder import encode_basestring_ascii
from operator import itemgetter

import numpy as np

from .anet import _ROLE_CORNERS, diagnose_anet, validate_anet
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
from .meshio import oriented_grids, read_mesh, write_positions_mesh, write_sample_mesh
from .patch import EDGE_CORNERS, check_c1, restrict_all, sample_all
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
    sort_keys=True``, byte for byte.  Lists of numbers are joined in one
    pass, and tables in one ``%`` formatting pass each: dicts whose
    values are all scalars, or all records with one key set whose cells
    are scalars or lists of scalars (one length per record), or all
    lists of number rows of one shape, and lists of such records or of
    number rows of one width.
    """
    return _render(report, "\n")


_NUMBERS = frozenset({int, float, type(None)})
_SCALARS = (str, int, float, np.bool_, np.number)
_BOOLS = {False: "false", True: "true"}


def _numbers(text: str, kinds) -> str:
    """``text`` joined from the ``repr`` of ints, floats and ``None``
    (of the types ``kinds``) with the non-numbers turned into JSON."""
    if kinds == {int}:
        return text
    # no repr of a finite float or an int contains these words
    for word in ("None", "-inf", "inf", "nan"):
        text = text.replace(word, "null")
    return text


def _cells(column: list):
    """The ``%`` hole and the values filling it that render a column of
    table cells, or ``None`` when a cell is not a scalar."""
    kinds = set(map(type, column))
    if kinds == {int} or (kinds == {float} and all(map(math.isfinite, column))):
        return "%r", column
    if kinds == {bool}:
        return "%s", list(map(_BOOLS.__getitem__, column))
    if not all(k is type(None) or issubclass(k, _SCALARS) for k in kinds):
        return None
    return "%s", [_render(v, "") for v in column]


def _row(holes, indent: str) -> str:
    """Template of one list of ``holes`` whose first line starts at ``indent``."""
    inner = indent + "  "
    return "[" + inner + ("," + inner).join(holes) + indent + "]"


def _records(values: list, indent: str):
    """:func:`_table` of records with one set of string keys whose cells
    are scalars or, in the same keys of every record, lists of scalars
    as long as the other lists of their record."""
    first = values[0]
    if not first or any(type(k) is not str for k in first) or not all(
        map(first.keys().__eq__, map(dict.keys, values))
    ):
        return None
    keys = sorted(first)
    columns = [list(map(itemgetter(k), values)) for k in keys]
    listed = [type(column[0]) is list for column in columns]
    holes = []
    for j, column in enumerate(columns):
        cells = ("", column) if listed[j] else _cells(column)
        if cells is None:
            return None
        holes.append(cells[0])
        columns[j] = cells[1]
    inner = indent + "  "
    names = [encode_basestring_ascii(k).replace("%", "%%") + ": "
             for k in keys]

    def template(size, holes):
        return "{" + inner + ("," + inner).join(
            name + ((_row([hole] * size, inner) if size else "[]")
                    if is_list else hole)
            for name, hole, is_list in zip(names, holes, listed)
        ) + indent + "}"

    if not any(listed):
        return template(0, holes), chain.from_iterable(zip(*columns))
    # each record's lists take their holes, and its template, on their own
    shapes = []
    for row in range(len(values)):
        size = None
        for j, is_list in enumerate(listed):
            if is_list:
                cells = columns[j][row]
                if type(cells) is not list or size not in (None, len(cells)):
                    return None
                size = len(cells)
                cells = _cells(cells)
                if cells is None:
                    return None
                holes[j], columns[j][row] = cells
        shapes.append((size, tuple(holes)))
    templates = {shape: template(*shape) for shape in set(shapes)}
    columns = [column if is_list else zip(column)
               for column, is_list in zip(columns, listed)]
    cells = chain.from_iterable(chain.from_iterable(zip(*columns)))
    return list(map(templates.__getitem__, shapes)), cells


def _table(values: list, indent: str):
    """``(template, cells)`` that render ``values``, whose first lines
    start at ``indent``: ``template`` is the one template of every value
    or a list of one per value, and ``cells`` their row-major cells.
    ``None`` unless the values are all scalars, all records of scalars
    and lists of scalars (see :func:`_records`), all non-empty rows of
    numbers of one width, or all lists of such rows of one shape."""
    kinds = set(map(type, values))
    first = values[0]
    if kinds == {dict}:
        return _records(values, indent)
    if kinds == {list}:
        rows, height = values, 0  # rows of numbers, or lists of `height` rows
        if first and type(first[0]) is list:
            if set(map(len, values)) != {len(first)}:
                return None
            rows, height = list(chain.from_iterable(values)), len(first)
            if set(map(type, rows)) != {list}:
                return None
        widths = set(map(len, rows))
        if len(widths) != 1 or not rows[0]:
            return None
        cells = list(chain.from_iterable(rows))
        if not set(map(type, cells)) <= _NUMBERS:
            return None
        (size,) = widths
        width = size * max(height, 1)

        def template(holes):
            if not height:
                return _row(holes, indent)
            inner = indent + "  "
            return _row([_row(holes[k:k + size], inner)
                         for k in range(0, width, size)], indent)
    elif dict in kinds or list in kinds:
        return None
    else:
        cells, width = list(values), 1

        def template(holes):
            return holes[0]

    holes = []
    for j in range(width):
        column = _cells(cells[j::width])
        if column is None:
            return None
        holes.append(column[0])
        cells[j::width] = column[1]
    return template(holes), cells


def _fill(table, count: int, sep: str, names=None) -> str:
    """The ``count`` values of a :func:`_table` joined by ``sep``, each
    after its name and ``: `` when ``names`` are given, in one ``%``
    formatting pass."""
    template, cells = table
    if isinstance(template, list):
        if names is not None:
            template = [name + ": " + line
                        for name, line in zip(names, template)]
        body = sep.join(template)
    elif names is None:
        body = sep.join([template] * count)
    else:
        line = ": " + template
        body = (line + sep).join(names) + line
    return body % tuple(cells)


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
        plain = dict(zip(map(str, value), value.values()))
        keys = sorted(plain)
        values = list(map(plain.__getitem__, keys))
        names = list(map(encode_basestring_ascii, keys))
        table = _table(values, inner)
        if table is not None:
            if "%" in "".join(keys):
                names = [name.replace("%", "%%") for name in names]
            body = _fill(table, len(values), "," + inner, names)
            return "{" + inner + body + indent + "}"
        return "{" + inner + ("," + inner).join(
            name + ": " + _render(v, inner) for name, v in zip(names, values)
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
    elif len(kinds) == 1 and kinds <= {list, dict} and (
        table := _table(items, inner)
    ) is not None:
        body = _fill(table, len(items), sep)
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
    pinned = config.pin
    if pinned is None:
        pinned = np.flatnonzero(graph.boundary | (graph.degrees == 0)).tolist()
    problem = FitProblem(graph, positions, pinned=pinned)
    report["pinned"] = sorted(problem.pinned)
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
    Each side's unit axis is formed once per face and broadcast over the
    side's samples.
    """
    sides = (grids[:, 0], grids[:, -1], grids[:, :, 0], grids[:, :, -1])
    a, b = corners[:, EDGE_CORNERS[:, 0], None], corners[:, EDGE_CORNERS[:, 1], None]
    axes = (b - a) / np.linalg.norm(b - a, axis=-1, keepdims=True)
    worst = []
    for k, samples in enumerate(sides):
        offsets = samples - a[:, k]
        along = np.sum(offsets * axes[:, k], axis=-1, keepdims=True)
        worst.append(np.linalg.norm(offsets - along * axes[:, k], axis=-1).max(axis=1))
    return np.max(worst, axis=0)


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
    patches = restrict_all(hyperboloids, a.positions)
    del hyperboloids  # the patches keep its frames, and nothing else of it is read
    faces = patches.faces.tolist()
    points = sample_all(patches, n, m)
    report["samples"] = [n, m]
    report["boundary_residuals"] = dict(
        zip(faces, _boundary_residuals(points, patches.points).tolist())
    )
    report["c1"] = check_c1(patches, a, samples_per_edge=9)
    corners = a.graph.face_vertices[patches.faces][:, _ROLE_CORNERS]
    samples, shapes = oriented_grids(points, patches.frames.corners, corners)
    # the flat samples replace the sample stack; free it before the write
    del points
    write_sample_mesh(config.output_path, samples, shapes, corners, weld=config.weld)
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


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The ``hypnet`` parser.  Its destinations are the :class:`RunConfig`
    fields, and an option left out sets nothing, so every default is the
    field's.

    Built once per process: parsing does not change it, and a parser
    built per call leaves cyclic garbage behind that lives until the
    collector runs, scattered through the heap of the next runs."""
    parser = _Parser(
        prog="hypnet",
        description="validate, fit, and extend nets of planar vertex stars",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    def command(name, summary):
        sub = commands.add_parser(name, help=summary,
                                  argument_default=argparse.SUPPRESS)
        sub.add_argument("input_path", metavar="input", help="quad mesh to read")
        return sub

    def report_option(sub):
        sub.add_argument("--report", dest="report_path", metavar="REPORT",
                         help="also write the JSON report here")

    check = command("check", "validate a quad mesh and report its diagnostics")
    report_option(check)

    fit_cmd = command("fit", "optimize vertex stars toward exact planarity")
    fit_cmd.add_argument("-o", "--output", dest="output_path", metavar="OUTPUT",
                         required=True, help="optimized mesh")
    fit_cmd.add_argument(
        "--pin",
        type=int,
        nargs="*",
        help="vertex ids to hold fixed (default: boundary vertices)",
    )
    fit_cmd.add_argument(
        "--max-iter",
        type=int,
        help="budget of accepted Gauss-Newton steps",
    )
    report_option(fit_cmd)

    extend = command("extend", "sample the adapted quadric patches of every face")
    extend.add_argument("-o", "--output", dest="output_path", metavar="OUTPUT",
                        required=True, help="sampled mesh")
    extend.add_argument(
        "--seed-face", type=int, help="face carrying the parameter"
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
        metavar=("N", "M"),
        help="sample grid size per patch",
    )
    extend.add_argument(
        "--no-weld",
        dest="weld",
        action="store_false",
        help="keep each patch's boundary samples separate",
    )
    report_option(extend)
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
    options = vars(_build_parser().parse_args(argv))
    if "samples" in options:
        options["samples"] = tuple(options["samples"])
    config = RunConfig(**options, tolerances=_environment_tolerances())
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
            if stat.S_ISREG(os.fstat(sink.fileno()).st_mode):  # not a pipe or device
                sink.truncate(0)
            sink.write(rendered + "\n")
    return code


if __name__ == "__main__":
    raise SystemExit(main())

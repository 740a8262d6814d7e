"""End-to-end tests for the command line front end."""

import ast
import gc
import hashlib
import importlib
import json
import os
import re
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hypnet
import hypnet.anet
import hypnet.hyperboloid
import hypnet.patch
import hypnet.plucker
from hypnet.anet import diagnose_anet, validate_anet
from hypnet.cli import RunConfig, _boundary_residuals, _table, main, render_report, run
from hypnet.errors import ClosureViolation, NonPlanarStar
from hypnet.hyperboloid import CLOSURE_EPS, propagate_all
from hypnet.meshio import read_mesh, write_positions_mesh
from hypnet.patch import bilinear_parameter
from hypnet.plucker import Tolerances
from hypnet.quadgraph import CHUNK, build
from hypnet.synthetic import (
    moebius_quads,
    quadric_grid,
    random_grid3x3_net,
    random_umbrella_net,
)

from oracles import reference_boundary_residuals, reference_render, reference_star_plane
from test_anet import reject_star_planes


def write_net(path, count, quads, positions):
    assert len(positions) == count
    write_positions_mesh(path, positions, quads)
    return str(path)


def saddle_mesh(tmp_path, nx=3, ny=3):
    return write_net(tmp_path / "saddle.obj", *quadric_grid(nx, ny))


def saddle_lambda(nx=3, ny=3):
    """Family coordinate of the grid's own quadric at face 0."""
    count, quads, positions = quadric_grid(nx, ny)
    a = validate_anet(build(count, quads), positions)
    return bilinear_parameter(a.face_frame(0), a.positions)


def run_main(capsys, argv):
    code = main(argv)
    report = json.loads(capsys.readouterr().out)
    assert report["exit_code"] == code
    assert (code == 0) == (report["violations"] == [])
    return code, report


# --- configuration validation -----------------------------------------------------


@pytest.mark.parametrize(
    "config",
    [
        RunConfig(command="polish", input_path="x.obj"),
        RunConfig(command="check", input_path="x.obj", samples=(1, 9)),
        RunConfig(command="fit", input_path="x.obj"),
        RunConfig(command="extend", input_path="x.obj", output_path="y.obj"),
        RunConfig(
            command="extend", input_path="x.obj", output_path="y.obj", lam=0.0
        ),
        RunConfig(
            command="extend",
            input_path="x.obj",
            output_path="y.obj",
            lam=float("nan"),
        ),
        RunConfig(
            command="fit", input_path="x.obj", output_path="y.obj", max_iter=0
        ),
        RunConfig(
            command="check", input_path="x.obj", tolerances={"planar": -1.0}
        ),
        RunConfig(
            command="check", input_path="x.obj", tolerances={"fuzz": 1.0}
        ),
        RunConfig(
            command="check", input_path="x.obj", tolerances={"sig": "loose"}
        ),
    ],
)
def test_invalid_configurations_exit_with_the_input_code(config):
    code, report = run(config)
    assert code == 1
    assert report["violations"][0]["kind"] == "value_error"


def test_missing_input_file_exits_with_the_input_code(tmp_path):
    code, report = run(
        RunConfig(command="check", input_path=str(tmp_path / "absent.obj"))
    )
    assert code == 1
    assert report["violations"]


def test_malformed_face_record_exits_with_the_input_code(tmp_path):
    path = tmp_path / "tri.obj"
    path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n")
    code, report = run(RunConfig(command="check", input_path=str(path)))
    assert code == 1
    assert report["violations"][0]["kind"] == "non_quad_face"


def test_non_manifold_gluing_exits_with_the_mesh_code(tmp_path):
    path = write_net(tmp_path / "moebius.obj", *moebius_quads(), np.zeros((6, 3)))
    code, report = run(RunConfig(command="check", input_path=path))
    assert code == 2
    assert report["violations"]


# --- check ------------------------------------------------------------------------


def test_check_accepts_a_net_on_the_saddle_surface(tmp_path, capsys):
    code, report = run_main(capsys, ["check", saddle_mesh(tmp_path)])
    assert code == 0
    diag = report["diagnostics"]
    assert diag["valid"] and diag["equi_twisted"]
    assert diag["face_count"] == 9 and diag["vertex_count"] == 16
    assert max(r for r in diag["planarity_residuals"]) < 1e-12


def test_check_reports_flat_faces_as_degenerate(tmp_path, capsys):
    count, quads, positions = quadric_grid(2, 2)
    positions = positions.copy()
    positions[:, 2] = 0.0
    path = write_net(tmp_path / "flat.obj", count, quads, positions)
    code, report = run_main(capsys, ["check", path])
    assert code == 3
    kinds = {v["kind"] for v in report["violations"]}
    assert "degenerate_face" in kinds


def test_check_reports_a_net_collapsed_to_one_point(tmp_path, capsys):
    count, quads, positions = quadric_grid(2, 2)
    path = write_net(tmp_path / "point.obj", count, quads, np.zeros_like(positions))
    code, report = run_main(capsys, ["check", path])
    assert code == 3
    assert not report["diagnostics"]["valid"]
    found = report["violations"]
    assert [v["kind"] for v in found] == (
        ["non_generic_pair"] * 12 + ["degenerate_face"] * 4 + ["non_generic_pair"] * 9
    )
    assert all(v["reason"] == "zero-length edge" for v in found[:12])
    for pencil in found[16:]:
        assert pencil["pencil_dim"] == -1
        assert pencil["pencil_signature"] == [0, 0, 0]


def test_check_schema_and_report_file_match_stdout(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    code, report = run_main(
        capsys, ["check", saddle_mesh(tmp_path), "--report", str(report_path)]
    )
    assert code == 0 and report["schema"] == 1
    on_disk = json.loads(report_path.read_text())
    assert on_disk == report


@pytest.mark.parametrize("command", ["check", "extend"])
def test_an_unwritable_report_path_fails_as_an_input_error(tmp_path, capsys, command):
    out = tmp_path / "patches.obj"
    argv = [command, saddle_mesh(tmp_path), "--report", str(tmp_path / "no" / "r.json")]
    if command == "extend":
        argv += ["-o", str(out), "--lambda", repr(saddle_lambda())]
    code, report = run_main(capsys, argv)
    assert code == 1
    assert [v["kind"] for v in report["violations"]] == ["file_not_found_error"]
    # nothing ran: no diagnostics, no mesh
    assert sorted(report) == ["command", "exit_code", "input", "schema", "violations"]
    assert not out.exists()


def test_an_unwritable_report_path_exits_one_without_a_traceback(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(hypnet.__file__).parents[1]))
    argv = [sys.executable, "-m", "hypnet.cli", "check", saddle_mesh(tmp_path),
            "--report", str(tmp_path / "no" / "r.json")]
    done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 1
    assert done.stderr == ""
    assert json.loads(done.stdout)["exit_code"] == 1


def test_the_report_file_replaces_a_longer_file_and_may_be_the_input(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    report_path.write_text("x" * 100_000)
    assert main(["check", saddle_mesh(tmp_path), "--report", str(report_path)]) == 0
    assert report_path.read_text() == capsys.readouterr().out
    # the input is read before the report overwrites it
    path = saddle_mesh(tmp_path)
    assert main(["check", path, "--report", path]) == 0
    assert Path(path).read_text() == capsys.readouterr().out


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
def test_the_report_may_go_to_a_pipe(tmp_path, capsys):
    # a pipe cannot be truncated; the report is written to it all the same
    fifo = tmp_path / "report.fifo"
    os.mkfifo(fifo)
    received = []

    def drain():
        with open(fifo, encoding="utf-8") as pipe:
            received.append(pipe.read())

    reader = threading.Thread(target=drain, daemon=True)
    reader.start()
    code = main(["check", saddle_mesh(tmp_path), "--report", str(fifo)])
    reader.join(timeout=60)
    assert code == 0
    assert received == [capsys.readouterr().out]


def test_the_report_may_go_to_a_device(tmp_path):
    # a character device says it can seek, but cannot be truncated
    env = dict(os.environ, PYTHONPATH=str(Path(hypnet.__file__).parents[1]))
    path = saddle_mesh(tmp_path)
    argv = [sys.executable, "-m", "hypnet.cli", "check", path]
    plain = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60)
    done = subprocess.run(argv + ["--report", os.devnull], env=env, capture_output=True,
                          text=True, timeout=60)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == plain.stdout


def test_check_reports_the_faces_of_a_net_whose_star_sums_overflow(tmp_path, capsys):
    # every coordinate is finite, but the sum of a star's points, or of a
    # face's corners, is not: the star and face stages sum them at an
    # exact scale, so the exact net passes, and without a warning (an
    # error here)
    count, quads, positions = quadric_grid(3, 3)
    path = write_net(tmp_path / "big.obj", count, quads, positions * 1e307 + 5e307)
    code, report = run_main(capsys, ["check", path])
    assert code == 0
    assert report["violations"] == [] and report["diagnostics"]["valid"] is True
    assert np.isfinite(report["diagnostics"]["planarity_residuals"]).all()


def test_check_flags_odd_interior_degrees(tmp_path, capsys):
    count, quads, positions = random_umbrella_net(3, np.random.default_rng(2))
    path = write_net(tmp_path / "umbrella.obj", count, quads, positions)
    code, report = run_main(capsys, ["check", path])
    assert code == 4
    kinds = {v["kind"] for v in report["violations"]}
    assert "odd_vertex_degree" in kinds


# --- fit --------------------------------------------------------------------------


def noisy_saddle(tmp_path, scale=1e-3, seed=3):
    count, quads, positions = quadric_grid(3, 3)
    graph = build(count, quads)
    rng = np.random.default_rng(seed)
    noisy = positions.copy()
    for v in range(count):
        if graph.is_referenced(v) and not graph.is_boundary_vertex(v):
            noisy[v] += rng.normal(scale=scale, size=3)
    path = write_net(tmp_path / "noisy.obj", count, quads, noisy)
    return path, graph


def test_fit_restores_planar_stars_of_a_noisy_net(tmp_path, capsys):
    path, graph = noisy_saddle(tmp_path)
    out = tmp_path / "fitted.obj"
    code, report = run_main(capsys, ["fit", path, "-o", str(out)])
    assert code == 0
    assert report["convergence"]["converged"]
    positions, quads = read_mesh(out)
    assert quads.dtype == np.int64
    assert quads.tolist() == [list(q) for q in quadric_grid(3, 3)[1]]
    diag = diagnose_anet(graph, positions)
    assert diag["valid"]
    assert max(r for r in diag["planarity_residuals"]) < 1e-8


def test_fit_pins_the_boundary_by_default(tmp_path, capsys):
    path, graph = noisy_saddle(tmp_path)
    before, _ = read_mesh(path)
    out = tmp_path / "fitted.obj"
    code, report = run_main(capsys, ["fit", path, "-o", str(out)])
    assert code == 0
    after, _ = read_mesh(out)
    for v in report["pinned"]:
        assert np.array_equal(before[v], after[v])
    moved = [v for v in range(len(before)) if not np.array_equal(before[v], after[v])]
    assert moved and all(v not in report["pinned"] for v in moved)


def test_fit_pins_vertices_that_no_face_uses_by_default(tmp_path, capsys):
    path = saddle_with_a_loose_vertex(tmp_path)
    count, quads, _ = quadric_grid(3, 3)
    code, report = run_main(capsys, ["fit", path, "-o", str(tmp_path / "fitted.obj")])
    assert code == 0
    boundary = np.flatnonzero(build(count, quads).boundary).tolist()
    assert report["pinned"] == boundary + [count]


def test_fit_with_explicit_pins_holds_exactly_those_vertices(tmp_path, capsys):
    path, _ = noisy_saddle(tmp_path)
    out = tmp_path / "fitted.obj"
    # the boundary ring plus one interior vertex, listed out of order
    pins = [15, 0, 1, 2, 3, 4, 7, 8, 11, 12, 13, 14, 5]
    code, report = run_main(
        capsys, ["fit", path, "-o", str(out), "--pin", *map(str, pins)]
    )
    assert code == 0
    assert report["pinned"] == sorted(pins)
    before, _ = read_mesh(path)
    after, _ = read_mesh(out)
    assert np.array_equal(before[5], after[5])
    assert not np.array_equal(before[6], after[6])


@pytest.mark.parametrize("pin", ["-1", "16"])
def test_fit_rejects_pins_that_are_not_vertex_ids(tmp_path, capsys, pin):
    path, _ = noisy_saddle(tmp_path)
    out = tmp_path / "fitted.obj"
    code, report = run_main(capsys, ["fit", path, "-o", str(out), "--pin", "0", pin])
    assert code == 1
    assert report["violations"] == [
        {"kind": "value_error", "message": "pinned vertex ids out of range"}
    ]
    assert "pinned" not in report and "convergence" not in report
    assert not out.exists()


def test_fit_out_of_budget_exits_with_the_convergence_code(tmp_path, capsys):
    path, _ = noisy_saddle(tmp_path, scale=3e-2)
    out = tmp_path / "fitted.obj"
    code, report = run_main(
        capsys, ["fit", path, "-o", str(out), "--max-iter", "1"]
    )
    assert code == 6
    assert report["violations"][0]["kind"] == "did_not_converge"
    assert not report["convergence"]["converged"]
    assert out.exists()


def test_fit_of_its_own_output_exits_zero(tmp_path, capsys):
    path, _ = noisy_saddle(tmp_path)
    once = tmp_path / "once.obj"
    code, _ = run_main(capsys, ["fit", path, "-o", str(once)])
    assert code == 0
    twice = tmp_path / "twice.obj"
    code, report = run_main(capsys, ["fit", str(once), "-o", str(twice)])
    assert code == 0
    assert report["convergence"]["converged"]
    assert report["convergence"]["iterations"] == 0
    assert twice.read_bytes() == once.read_bytes()


def test_fit_of_an_exact_net_off_the_integer_lattice_exits_zero(
    tmp_path, capsys
):
    count, quads, positions = quadric_grid(6, 6, spacing=0.1)
    path = write_net(tmp_path / "exact.obj", count, quads, positions)
    out = tmp_path / "fitted.obj"
    code, report = run_main(capsys, ["fit", path, "-o", str(out)])
    assert code == 0
    assert report["convergence"]["stopping"] == "rounding"
    assert np.array_equal(read_mesh(out)[0], positions)


def test_fit_rejects_a_non_finite_coordinate(tmp_path, capsys):
    count, quads, positions = quadric_grid(3, 3)
    positions = positions.copy()
    positions[5, 2] = np.nan
    path = write_net(tmp_path / "nan.obj", count, quads, positions)
    out = tmp_path / "fitted.obj"
    code, report = run_main(capsys, ["fit", path, "-o", str(out)])
    assert code == 1
    assert report["violations"][0]["kind"] == "value_error"
    assert report["violations"][0]["message"] == "positions must be finite"
    assert not out.exists()


def test_report_rendering_converts_arrays_sets_and_non_finite_floats():
    report = {
        "array": np.array([1.5, np.nan, np.inf, -np.inf, -0.0]),
        "grid": np.array([[0.5, np.nan], [np.inf, 2.0]]),
        "ints": (3, 1, 2),
        "int_array": np.arange(3),
        "set": {5, 2, 9},
        "bools": [True, False, np.bool_(True)],
        "floats": [0.25, float("-inf")],
        "mixed": [1, 2.5, np.int64(4), np.float64(np.nan), None, "x", (True, 2)],
        "empty": [],
        7: {"scalar": np.float64(np.inf), "count": np.int64(3)},
    }
    expected = {
        "array": [1.5, None, None, None, -0.0],
        "grid": [[0.5, None], [None, 2.0]],
        "ints": [3, 1, 2],
        "int_array": [0, 1, 2],
        "set": [2, 5, 9],
        "bools": [True, False, True],
        "floats": [0.25, None],
        "mixed": [1, 2.5, 4, None, None, "x", [True, 2]],
        "empty": [],
        "7": {"scalar": None, "count": 3},
    }
    assert render_report(report) == json.dumps(expected, indent=2, sort_keys=True)


def noisy_scrambled_saddle(tmp_path):
    """``scrambled_saddle`` with its interior vertices moved by 1e-4."""
    path, _ = scrambled_saddle(tmp_path)
    positions, quads = read_mesh(path)
    graph = build(len(positions), quads)
    inside = np.flatnonzero(~graph.boundary)
    positions[inside] += np.random.default_rng(4).normal(scale=1e-4, size=(len(inside), 3))
    return write_net(tmp_path / "noisy.obj", len(positions), quads, positions)


def bumped_saddle(tmp_path):
    count, quads, positions = quadric_grid(4, 4)
    positions = positions.copy()
    positions[6, 2] += 0.05
    return write_net(tmp_path / "bumped.obj", count, quads, positions)


def saddle_with_a_loose_vertex(tmp_path):
    # the unreferenced last vertex has no star: a null residual
    count, quads, positions = quadric_grid(3, 3)
    return write_net(
        tmp_path / "loose.obj", count + 1, quads, np.vstack([positions, [[9.0, 9.0, 9.0]]])
    )


def malformed(tmp_path):
    path = tmp_path / "malformed.obj"
    path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nv 1 1 x\nf 1 2 4 3\n")
    return str(path)


def odd_umbrella(tmp_path):
    count, quads, positions = random_umbrella_net(3, np.random.default_rng(2))
    return write_net(tmp_path / "umbrella.obj", count, quads, positions)


def moebius(tmp_path):
    positions = np.random.default_rng(7).normal(size=(6, 3))
    return write_net(tmp_path / "moebius.obj", *moebius_quads(), positions)


def escaped_path(tmp_path):
    # non-ASCII, quotes and control characters in the input path, which
    # the report repeats in "input" and in the violation's message
    return str(tmp_path / 'n\u00e9t \u2211 "q" \\ \t\x01\x7f.obj')


def escaped_net(tmp_path):
    directory = tmp_path / "\u00e9\u00e8 \"d\""
    directory.mkdir()
    return saddle_mesh(directory)


def scrambled_extend(tmp_path):
    path, lam = scrambled_saddle(tmp_path)
    return RunConfig("extend", path, output_path=str(tmp_path / "out.obj"), lam=lam)


RENDER_CASES = {
    "check of a scrambled net": lambda t: RunConfig("check", scrambled_saddle(t)[0]),
    "extend of a scrambled net": scrambled_extend,
    "fit of a scrambled noisy net": lambda t: RunConfig(
        "fit", noisy_scrambled_saddle(t), output_path=str(t / "fitted.obj")),
    "non-planar star": lambda t: RunConfig("check", bumped_saddle(t)),
    "Moebius band": lambda t: RunConfig("check", moebius(t)),
    "odd umbrella": lambda t: RunConfig("check", odd_umbrella(t)),
    "odd umbrella, extend": lambda t: RunConfig(
        "extend", odd_umbrella(t), output_path=str(t / "x.obj"), lam=1.0),
    "malformed record": lambda t: RunConfig("check", malformed(t)),
    "unreferenced vertex": lambda t: RunConfig("check", saddle_with_a_loose_vertex(t)),
    "escaped missing path": lambda t: RunConfig("check", escaped_path(t)),
    "escaped existing path": lambda t: RunConfig("check", escaped_net(t)),
}


@pytest.mark.parametrize("case", sorted(RENDER_CASES))
def test_rendered_reports_equal_json_dumps_of_the_plain_report(tmp_path, case):
    _, report = run(RENDER_CASES[case](tmp_path))
    text = render_report(report)
    assert text == reference_render(report)
    assert text.isascii()


# --- tables: rendered in one formatting pass each, or value by value --------------

#: keys that need JSON escapes, contain ``%``, or sort differently as text
TEXT_KEYS = st.text(st.sampled_from('ab%"\\\n\x01\u00e9\u2211'), max_size=4)
KEYS = st.one_of(st.integers(-20, 200), TEXT_KEYS)
#: one strategy per table column, each drawing every cell of the column
SCALAR_COLUMNS = [
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(),
    st.integers(-(2**70), 2**70),
    st.booleans(),
    st.floats().map(np.float64),
    st.integers(-9, 9).map(np.int64),
    st.booleans().map(np.bool_),
    st.none(),
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats()),
    st.text(max_size=3),
]
NUMBER_CELLS = [
    st.integers(-9, 9),
    st.floats(allow_nan=False, allow_infinity=False),
    st.one_of(st.none(), st.integers(), st.floats()),
]


@st.composite
def tables(draw):
    """``(table, regular)``: a dict or list of 1 to 10 entries shaped like
    one of the table kinds, and whether every entry has the same shape
    (else one record has another key set, or lists of two lengths or a
    scalar for a list, or one row another width)."""
    kind = draw(st.sampled_from(
        ["scalars", "records", "list records", "grids", "rows"]))
    regular = kind == "scalars" or draw(st.booleans())
    n = draw(st.integers(1 if regular else 2, 10))
    keys = draw(st.lists(KEYS, min_size=n, max_size=n, unique_by=str))
    if kind == "scalars":
        column = draw(st.sampled_from(SCALAR_COLUMNS))
        return {k: draw(column) for k in keys}, regular
    if kind == "records":
        names = draw(st.lists(TEXT_KEYS, min_size=1, max_size=3, unique=True))
        columns = [draw(st.sampled_from(SCALAR_COLUMNS)) for _ in names]
        rows = [{k: draw(c) for k, c in zip(names, columns)} for _ in range(n)]
        if not regular:
            odd = rows[draw(st.integers(0, n - 1))]
            if len(names) > 1 and draw(st.booleans()):
                del odd[names[0]]
            else:
                odd[draw(TEXT_KEYS.filter(lambda k: k not in names))] = 0.5
        return dict(zip(keys, rows)), regular
    if kind == "list records":
        # records whose list cells are as long as the other lists of their
        # record, in a dict or a list
        names = draw(st.lists(TEXT_KEYS, min_size=1, max_size=3, unique=True))
        listed = draw(st.lists(st.booleans(), min_size=len(names),
                               max_size=len(names)).filter(any))
        columns = [draw(st.sampled_from(NUMBER_CELLS if is_list
                                        else SCALAR_COLUMNS))
                   for is_list in listed]
        rows = []
        for _ in range(n):
            size = draw(st.integers(0, 3))
            rows.append({k: [draw(c) for _ in range(size)] if is_list
                         else draw(c)
                         for k, c, is_list in zip(names, columns, listed)})
        if not regular:
            odd = rows[draw(st.integers(0, n - 1))]
            lists = [k for k, is_list in zip(names, listed) if is_list]
            if len(lists) > 1:
                odd[lists[0]] = odd[lists[0]] + [0]
            else:
                odd[lists[0]] = 0.5
        if draw(st.booleans()):
            return rows, regular
        return dict(zip(keys, rows)), regular
    cell = draw(st.sampled_from(NUMBER_CELLS))
    width = draw(st.integers(1, 3))
    height = draw(st.integers(1 if regular else 2, 3)) if kind == "grids" else n
    shape = [width] * height
    if not regular:
        shape[draw(st.integers(0, height - 1))] += draw(st.sampled_from([-1, 1]))
    if kind == "rows":
        return [[draw(cell) for _ in range(w)] for w in shape], regular
    grids = [[[draw(cell) for _ in range(w)] for w in shape]]
    grids += [[[draw(cell) for _ in range(width)] for _ in range(height)]
              for _ in range(n - 1)]
    return dict(zip(keys, grids)), regular


@settings(max_examples=200, deadline=None)
@given(tables())
def test_rendered_tables_equal_json_dumps_of_the_plain_report(case):
    table, regular = case
    report = {"table": table, "nested": {"deeper": [table]}, "n": 1}
    assert render_report(report) == reference_render(report)
    values = list(table.values()) if isinstance(table, dict) else table
    if not regular:  # records with another key set and ragged rows: value by value
        assert _table(values, "\n  ") is None


@pytest.mark.parametrize("n, m", [(2, 2), (9, 9), (3, 7), (6, 2)])
def test_boundary_residuals_equal_the_per_sample_axes_bit_for_bit(n, m):
    rng = np.random.default_rng(n * m)
    corners = rng.normal(size=(30, 4, 3)) * rng.uniform(1e-3, 1e3, size=(30, 1, 1))
    grids = rng.normal(size=(30, n, m, 3)) + corners[:, :1, None]
    got = _boundary_residuals(grids, corners)
    assert got.tobytes() == reference_boundary_residuals(grids, corners).tobytes()


def test_importing_the_cli_loads_no_scipy():
    # only the fit solver needs scipy; check and extend must not pay for it
    env = dict(os.environ, PYTHONPATH=str(Path(hypnet.__file__).parents[1]))
    code = (
        "import sys, hypnet.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True,
        text=True, check=True,
    )
    assert out.stdout.strip() == "[]"


# --- names read by the benchmark and the scripts ----------------------------------

REPO = Path(__file__).resolve().parents[1]


def hypnet_reads(path):
    """Dotted names a source file reads from ``hypnet``: every name it
    imports from a hypnet module, and every attribute it reads off a
    name such an import binds (``cli.SCHEMA_VERSION`` after
    ``import hypnet.cli as cli``)."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = {}  # local name -> dotted name in hypnet
    reads = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if (node.module or "").split(".")[0] != "hypnet":
                continue
            for alias in node.names:
                name = f"{node.module}.{alias.name}"
                bound[alias.asname or alias.name] = name
                reads.add(name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "hypnet":
                    local = alias.asname or "hypnet"
                    bound[local] = alias.name if alias.asname else "hypnet"
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in bound:
                reads.add(f"{bound[node.value.id]}.{node.attr}")
    return reads


def resolves(dotted) -> bool:
    """Whether a dotted name is a module or an attribute path off one."""
    parts = dotted.split(".")
    for k in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:k]))
        except ModuleNotFoundError:
            continue
        for attr in parts[k:]:
            if not hasattr(target, attr):
                return False
            target = getattr(target, attr)
        return True
    return False


def test_every_name_the_bench_and_the_scripts_read_from_hypnet_resolves():
    files = sorted([*REPO.glob("bench/*.py"), *REPO.glob("scripts/*.py")])
    reads = {(path.name, name) for path in files for name in hypnet_reads(path)}
    assert ("micro.py", "hypnet.plucker.intersect_lines") in reads
    assert ("replay.py", "hypnet.anet.PLANAR_EPS") in reads
    assert sorted(read for read in reads if not resolves(read[1])) == []
    assert [name for name in hypnet.__all__ if not hasattr(hypnet, name)] == []


# --- extend -----------------------------------------------------------------------


def test_extend_samples_the_saddle_net_tangent_continuously(tmp_path, capsys):
    path = saddle_mesh(tmp_path)
    out = tmp_path / "patches.obj"
    code, report = run_main(
        capsys,
        [
            "extend", path, "-o", str(out),
            "--lambda", repr(saddle_lambda()),
            "--samples", "5", "5",
        ],
    )
    assert code == 0
    assert report["c1"]["max_angle"] < 1e-8
    assert not report["c1"]["cusp_edges"]
    assert report["propagation"]["worst_closure_residual"] < 1e-10
    assert max(report["boundary_residuals"].values()) < 1e-10
    positions, quads = read_mesh(out)
    # 9 patches of 5x5 samples welded along 12 interior edge rows and
    # 16 shared corners: 225 - 12*5 - 16 + 4*... counted directly instead
    assert len(quads) == 9 * 16
    assert len(positions) == len({tuple(p) for p in positions.tolist()})
    assert np.max(np.abs(positions[:, 2] - positions[:, 0] * positions[:, 1])) < 1e-9


def test_extend_welds_shared_edges_and_no_weld_keeps_them_apart(tmp_path, capsys):
    path = saddle_mesh(tmp_path, 2, 1)
    lam = repr(saddle_lambda(2, 1))
    welded = tmp_path / "welded.obj"
    apart = tmp_path / "apart.obj"
    base = ["extend", path, "--lambda", lam, "--samples", "3", "3"]
    code, _ = run_main(capsys, base + ["-o", str(welded)])
    assert code == 0
    code, _ = run_main(capsys, base + ["-o", str(apart), "--no-weld"])
    assert code == 0
    assert len(read_mesh(welded)[0]) == 15
    assert len(read_mesh(apart)[0]) == 18


def ruled_cubic_grid(n, c=0.5):
    """An n x n net on the ruled cubic ``(s, t - 1.5 c s^2, s t - 0.5 c
    s^3)`` over a centred parameter grid of spacing 1/4, exact in binary."""
    count, quads, positions = quadric_grid(n, n, spacing=0.25, origin=(-n / 8, -n / 8))
    s, t = positions[:, 0], positions[:, 1]
    return count, quads, np.stack([s, t - 1.5 * c * s * s, s * t - 0.5 * c * s**3], axis=1)


def extend_samples(tmp_path, capsys, count, quads, positions, factor, *options):
    """Output vertices of ``hypnet extend`` at ``factor`` times face 0's
    bilinear coordinate."""
    path = write_net(tmp_path / "net.obj", count, quads, positions)
    a = validate_anet(build(count, quads), positions)
    lam = factor * bilinear_parameter(a.face_frame(0), a.positions)
    out = tmp_path / "out.obj"
    code, _ = run_main(capsys, ["extend", path, "-o", str(out), "--lambda", repr(lam), *options])
    assert code == 0
    return read_mesh(out)[0]


@pytest.mark.parametrize("factor", [1.0, 2.0])
@pytest.mark.parametrize("surface", ["z = xy", "ruled cubic"])
def test_the_weld_joins_samples_that_both_sides_share(tmp_path, capsys, surface, factor):
    # on an exact net the two sides of an edge carve the same boundary
    # samples, so every sample lies on a welded vertex
    net = quadric_grid(4, 4) if surface == "z = xy" else ruled_cubic_grid(4)
    welded = extend_samples(tmp_path, capsys, *net, factor)
    apart = extend_samples(tmp_path, capsys, *net, factor, "--no-weld")
    assert len(welded) < len(apart)
    gaps = np.sqrt(((apart[:, None] - welded[None]) ** 2).sum(axis=-1)).min(axis=1)
    assert gaps.max() <= 1e-14


@pytest.mark.parametrize("shift", [8.0, 1024.0])
def test_extend_samples_move_with_the_net(tmp_path, capsys, shift):
    count, quads, positions = quadric_grid(6, 6, spacing=0.125)
    base = extend_samples(tmp_path, capsys, count, quads, positions, 2.0, "--no-weld")
    moved = extend_samples(
        tmp_path, capsys, count, quads, positions + shift, 2.0, "--no-weld"
    )
    assert np.abs(moved - (base + shift)).max() <= 1e-12


def test_extend_is_byte_deterministic(tmp_path, capsys):
    path = saddle_mesh(tmp_path)
    out = tmp_path / "patches.obj"
    report_path = tmp_path / "report.json"
    argv = [
        "extend", path, "-o", str(out),
        "--lambda", repr(saddle_lambda()),
        "--report", str(report_path),
    ]
    assert main(argv) == 0
    first = (out.read_bytes(), report_path.read_bytes())
    capsys.readouterr()
    assert main(argv) == 0
    capsys.readouterr()
    assert (out.read_bytes(), report_path.read_bytes()) == first


def test_extend_forms_the_scales_of_its_members_once(tmp_path, capsys, monkeypatch):
    # propagation forms every face's factor k once; carving reads it from
    # the members in each of its slices of CHUNK faces
    count, quads, positions = quadric_grid(40, 40, spacing=0.05, origin=(-1.0, -1.0))
    assert len(quads) > CHUNK
    path = write_net(tmp_path / "net.obj", count, quads, positions)
    lam = bilinear_parameter(validate_anet(build(count, quads), positions).face_frame(0), positions)
    calls = []
    scales = hypnet.hyperboloid._scales

    def counted(positions, frames):
        calls.append(len(frames))
        return scales(positions, frames)

    for module in (hypnet.hyperboloid, hypnet.patch):
        monkeypatch.setattr(module, "_scales", counted)
    argv = ["extend", path, "-o", str(tmp_path / "out.obj"), "--lambda", repr(lam),
            "--samples", "3", "3"]
    code, _ = run_main(capsys, argv)
    assert code == 0
    assert calls == [len(quads)]


@pytest.mark.parametrize("command", ["check", "extend", "fit"])
def test_runs_in_separate_processes_are_byte_identical(tmp_path, command):
    # string hashing, and so set and dict-of-str order, differs per process
    path, lam = scrambled_saddle(tmp_path)
    out = tmp_path / "out.obj"
    argv = [sys.executable, "-m", "hypnet.cli", command, path]
    if command == "extend":
        argv += ["-o", str(out), "--lambda", repr(lam)]
    if command == "fit":
        argv = argv[:-1] + [noisy_scrambled_saddle(tmp_path), "-o", str(out)]
    runs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=str(Path(hypnet.__file__).parents[1]),
                   PYTHONHASHSEED=hash_seed)
        done = subprocess.run(argv, env=env, capture_output=True, timeout=120)
        assert done.returncode == 0 and done.stderr == b""
        runs.append((done.stdout, out.read_bytes() if command != "check" else b""))
        out.unlink(missing_ok=True)
    assert runs[0] == runs[1]
    assert json.loads(runs[0][0])["exit_code"] == 0


@pytest.mark.parametrize("command", ["check", "extend", "fit"])
def test_a_run_leaves_no_cyclic_garbage(tmp_path, capsys, command):
    # cyclic garbage lives until the collector runs, scattered through the
    # heap that the next runs of a long-lived process allocate from
    path = saddle_mesh(tmp_path)
    out = str(tmp_path / "out.obj")
    argv = {"check": ["check", path],
            "extend": ["extend", path, "-o", out, "--lambda", repr(saddle_lambda())],
            "fit": ["fit", noisy_saddle(tmp_path)[0], "-o", out]}[command]
    assert main(argv) == 0
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        assert main(argv) == 0
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()
    capsys.readouterr()


def test_the_readme_example_runs_and_is_tangent_continuous(capsys):
    text = (REPO / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"```python\n(.*?)```", text, flags=re.S)
    exec(compile(block, "README.md", "exec"), {})
    angle = float(capsys.readouterr().out)
    assert 0.0 <= angle < 1e-12


#: sha256 prefixes of the integer report parts and output faces of
#: ``scrambled_saddle``, recorded while the quad graph was still built
#: from half-edge objects; they do not depend on the platform
STRIP_REPORT = "47fedaf3b4b8e1aa"
FACE_TWISTS = "038fbee6985718af"
CLOSURE_EDGES = "4a3b5442f13756dd"
C1_EDGES = "c093896742529a39"
MESH_FACES = "af28db457321b3dd"


def scrambled_saddle(tmp_path):
    """A 6x5 net on z = xy written with relabelled vertices, rotated and
    partly reversed faces and reordered faces, all by integer arithmetic,
    and the family coordinate of its face 0."""
    count, quads, positions = quadric_grid(6, 5, spacing=0.25, origin=(-0.7, -0.4))
    label = [(11 * v + 3) % count for v in range(count)]
    faces = []
    for i, quad in enumerate(quads):
        quad = [label[v] for v in quad]
        quad = quad[i % 4:] + quad[:i % 4]
        faces.append(quad[::-1] if i % 3 == 0 else quad)
    faces = [faces[(7 * i) % len(faces)] for i in range(len(faces))]
    moved = np.empty_like(positions)
    moved[label] = positions
    path = write_net(tmp_path / "scrambled.obj", count, faces, moved)
    a = validate_anet(build(count, faces), moved)
    return path, bilinear_parameter(a.face_frame(0), a.positions)


def digest(value) -> str:
    return hashlib.sha256(json.dumps(value).encode()).hexdigest()[:16]


def test_integer_report_parts_keep_their_order_on_scrambled_input(tmp_path, capsys):
    # strips, twists, edge keys and output faces must not be renumbered
    path, lam = scrambled_saddle(tmp_path)
    code, report = run_main(capsys, ["check", path])
    assert code == 0
    diagnostics = report["diagnostics"]
    assert digest(diagnostics["strip_report"]) == STRIP_REPORT
    assert digest(diagnostics["face_twists"]) == FACE_TWISTS
    out = tmp_path / "out.obj"
    argv = ["extend", path, "-o", str(out), "--lambda", repr(lam)]
    code, report = run_main(capsys, argv)
    assert code == 0
    assert digest(list(report["propagation"]["closure_residuals"])) == CLOSURE_EDGES
    assert digest(list(report["c1"]["edges"])) == C1_EDGES
    rows = [line for line in out.read_text().splitlines() if line.startswith("f ")]
    assert digest(rows) == MESH_FACES


def test_extend_rejects_odd_interior_degrees(tmp_path, capsys):
    count, quads, positions = random_umbrella_net(3, np.random.default_rng(2))
    path = write_net(tmp_path / "umbrella.obj", count, quads, positions)
    code, report = run_main(
        capsys, ["extend", path, "-o", str(tmp_path / "x.obj"), "--lambda", "1.0"]
    )
    assert code == 4
    assert {v["kind"] for v in report["violations"]} & {
        "odd_vertex_degree", "mixed_strip_twists"
    }


def test_extend_rejects_nets_with_mixed_strip_twists(tmp_path, capsys):
    count, quads, positions = random_grid3x3_net(np.random.default_rng(11))
    a = validate_anet(build(count, quads), positions)
    assert not a.equi_twisted()[0]
    path = write_net(tmp_path / "random.obj", count, quads, positions)
    code, report = run_main(
        capsys, ["extend", path, "-o", str(tmp_path / "x.obj"), "--lambda", "0.5"]
    )
    assert code == 4
    assert {v["kind"] for v in report["violations"]} == {"mixed_strip_twists"}


def test_extend_with_the_opposite_family_sign_finds_no_patch(tmp_path, capsys):
    path = saddle_mesh(tmp_path)
    code, report = run_main(
        capsys,
        [
            "extend", path, "-o", str(tmp_path / "x.obj"),
            "--lambda", repr(-saddle_lambda()),
        ],
    )
    assert code == 5
    assert report["violations"][0]["kind"] == "no_adapted_patch"


def test_extend_rejects_zero_lambda_and_bad_seed_faces(tmp_path, capsys):
    path = saddle_mesh(tmp_path)
    out = str(tmp_path / "x.obj")
    code, report = run_main(capsys, ["extend", path, "-o", out, "--lambda", "0"])
    assert code == 1
    code, report = run_main(
        capsys,
        ["extend", path, "-o", out, "--lambda", "1.0", "--seed-face", "99"],
    )
    assert code == 1


@pytest.mark.parametrize("n, spacing", [(10, 0.05), (40, 0.05), (10, 0.01)])
def test_extend_closes_on_exact_nets_far_from_the_origin(tmp_path, capsys, n, spacing):
    # small faces far from the origin: their global Pluecker coordinates
    # are badly conditioned, the family's transport is not
    count, quads, positions = quadric_grid(n, n, spacing=spacing, origin=(10.0, 10.0))
    path = write_net(tmp_path / "far.obj", count, quads, positions)
    a = validate_anet(build(count, quads), positions)
    lam = bilinear_parameter(a.face_frame(0), a.positions)
    out = tmp_path / "far_out.obj"
    code, report = run_main(capsys, ["extend", path, "-o", str(out), "--lambda", repr(lam)])
    assert code == 0
    assert report["c1"]["max_angle"] <= 1e-6
    points, _ = read_mesh(out)
    x, y, z = points.T
    assert np.all(np.abs(z - x * y) <= 1e-10 * (1.0 + x * x + y * y))


def generic_nets():
    """Generic 3x3 nets, umbrellas and exact grids, by name."""
    rng = np.random.default_rng(61)
    nets = {f"grid3x3 {k}": random_grid3x3_net(rng) for k in range(3)}
    nets.update({f"umbrella {k}": random_umbrella_net(k, rng) for k in (4, 6)})
    nets["quadric grid"] = quadric_grid(6, 5, spacing=0.2, origin=(-0.7, -0.4))
    nets["far quadric grid"] = quadric_grid(4, 4, spacing=0.01, origin=(30.0, 30.0))
    return nets


def extend_bytes(tmp_path, capsys, count, quads, positions):
    """Exit code, stdout and mesh of ``hypnet extend`` at face 0's
    bilinear member; the mesh file is removed again."""
    path = write_net(tmp_path / "net.obj", count, quads, positions)
    a = validate_anet(build(count, quads), positions)
    lam = bilinear_parameter(a.face_frame(0), a.positions)
    out = tmp_path / "out.obj"
    code = main(["extend", path, "-o", str(out), "--lambda", repr(lam)])
    mesh = out.read_bytes() if out.exists() else None
    out.unlink(missing_ok=True)
    return code, capsys.readouterr().out, mesh


def test_extend_off_the_origin_closes_its_net(tmp_path, capsys):
    # small faces far from the origin: every face gate reads face-local
    # units, so neither net degenerates where global lines would
    count, quads, positions = quadric_grid(20, 20, spacing=0.05, origin=(-0.5, -0.5))
    for net in (quadric_grid(20, 20, spacing=0.01, origin=(30.0, 30.0)),
                (count, quads, positions + 1e4)):
        code, out, mesh = extend_bytes(tmp_path, capsys, *net)
        report = json.loads(out)
        assert code == 0 and mesh is not None, report.get("violations")
        assert report["propagation"]["worst_closure_residual"] < CLOSURE_EPS


def test_usage_errors_exit_with_the_input_code(capsys):
    with pytest.raises(SystemExit) as info:
        main(["extend", "x.obj", "-o", "y.obj"])  # --lambda missing
    assert info.value.code == 1
    with pytest.raises(SystemExit) as info:
        main(["resample", "x.obj"])
    assert info.value.code == 1


# --- tolerance overrides ----------------------------------------------------------


def nudged_saddle_net():
    count, quads, positions = quadric_grid(3, 3)
    positions = positions.copy()
    positions[5, 2] += 1e-6
    return count, quads, positions


def nudged_saddle(tmp_path):
    return write_net(tmp_path / "nudged.obj", *nudged_saddle_net())


def check_nets():
    """The generic nets, a net with a non-planar star, and an exact grid
    1e3 off the origin, by name."""
    nets = generic_nets()
    nets["nudged saddle"] = nudged_saddle_net()
    count, quads, positions = quadric_grid(20, 20, spacing=0.05, origin=(-0.5, -0.5))
    nets["shifted quadric grid"] = (count, quads, positions + 1e3)
    return nets


@pytest.mark.parametrize("name", sorted(check_nets()))
def test_check_without_the_star_certificate_prints_the_svd_reading(
    tmp_path, capsys, monkeypatch, name
):
    path = write_net(tmp_path / "net.obj", *check_nets()[name])
    code = main(["check", path])
    report = json.loads(capsys.readouterr().out)
    with monkeypatch.context() as patch:
        reject_star_planes(patch)
        assert main(["check", path]) == code
        svd = capsys.readouterr().out
    # the closed-form report differs from the SVD reading, which is the
    # one-star oracle's, in the residuals of settled stars alone
    positions, quads = read_mesh(path)
    graph = build(len(positions), quads)
    residuals = report["diagnostics"]["planarity_residuals"]
    for v in range(len(positions)):
        neighbors, _ = graph.vertex_star(v)
        residuals[v] = reference_star_plane(positions[[v] + neighbors])[1]
    assert render_report(report) + "\n" == svd


def test_environment_overrides_relax_the_planarity_gate(
    tmp_path, capsys, monkeypatch
):
    path = nudged_saddle(tmp_path)
    code, report = run_main(capsys, ["check", path])
    assert code == 3
    assert {v["kind"] for v in report["violations"]} == {"non_planar_star"}

    monkeypatch.setenv("HYPNET_TOL_PLANAR", "1e-3")
    code, report = run_main(capsys, ["check", path])
    assert code == 0
    assert hypnet.anet.PLANAR_EPS == 1e-8  # restored after the run


def test_unparseable_tolerance_overrides_exit_with_the_input_code(
    tmp_path, capsys, monkeypatch
):
    monkeypatch.setenv("HYPNET_TOL_CLOSURE", "tight")
    code, report = run_main(capsys, ["check", saddle_mesh(tmp_path)])
    assert code == 1
    assert report["violations"][0]["kind"] == "value_error"


def test_tight_closure_override_fails_a_slightly_noisy_extension(
    tmp_path, capsys, monkeypatch
):
    count, quads, positions = quadric_grid(3, 3)
    rng = np.random.default_rng(5)
    noisy = positions + rng.normal(scale=1e-7, size=positions.shape)
    path = write_net(tmp_path / "noisy.obj", count, quads, noisy)
    monkeypatch.setenv("HYPNET_TOL_PLANAR", "1e-3")
    monkeypatch.setenv("HYPNET_TOL_CLOSURE", "1e-14")
    code, report = run_main(
        capsys,
        ["extend", path, "-o", str(tmp_path / "x.obj"), "--lambda",
         repr(saddle_lambda())],
    )
    assert code == 6
    assert report["violations"][0]["kind"] == "closure_violation"
    assert hypnet.hyperboloid.CLOSURE_EPS == 1e-8


def test_signature_override_reaches_the_face_frames(
    tmp_path, capsys, monkeypatch
):
    # a cutoff of 0.5 leaves the vertex pencils isotropic but reads the
    # faces' opposite edge lines as meeting: the walk gates them at the
    # cutoff the frames read, so check and extend stop at the same face
    path = saddle_mesh(tmp_path)
    code, report = run_main(capsys, ["check", path])
    assert code == 0
    monkeypatch.setenv("HYPNET_TOL_SIG", "0.5")
    code, report = run_main(capsys, ["check", path])
    assert code == 3
    first = report["violations"][0]
    assert first["kind"] == "non_generic_pair" and first["face"] == 1
    code, report = run_main(
        capsys,
        ["extend", path, "-o", str(tmp_path / "x.obj"), "--lambda",
         repr(saddle_lambda())],
    )
    assert code == 3
    assert {k: v for k, v in report["violations"][0].items() if k != "message"} == first
    assert hypnet.plucker.SIG_EPS == 1e-9


def test_library_calls_take_their_tolerances_explicitly():
    count, quads, positions = nudged_saddle_net()
    graph = build(count, quads)
    loose = Tolerances(planar=1e-3)
    for _ in range(2):
        net = validate_anet(graph, positions, tol=loose)
        assert net.tol == loose
        with pytest.raises(NonPlanarStar):
            validate_anet(graph, positions)
    assert diagnose_anet(graph, positions, loose)["valid"]
    assert not diagnose_anet(graph, positions)["valid"]
    # the net carries its closure gate on to propagation
    count, quads, positions = quadric_grid(3, 3)
    rng = np.random.default_rng(5)
    noisy = positions + rng.normal(scale=1e-7, size=positions.shape)
    graph = build(count, quads)
    lenient = validate_anet(graph, noisy, Tolerances(planar=1e-3, closure=1e-3))
    strict = validate_anet(graph, noisy, Tolerances(planar=1e-3))
    propagate_all(lenient, 0, saddle_lambda())
    with pytest.raises(ClosureViolation, match=r"tolerance 1\.0e-08"):
        propagate_all(strict, 0, saddle_lambda())
    assert Tolerances() == Tolerances(
        planar=hypnet.anet.PLANAR_EPS,
        closure=hypnet.hyperboloid.CLOSURE_EPS,
        sig=hypnet.plucker.SIG_EPS,
    )

"""Fast self-check of the benchmark harness on 3 x 3 nets.

Run with ``python3 -m pytest bench``.  Each workload runs end to end
through the worker process, untraced and traced, and the output checks,
the determinism check and the replay comparison are shown to reject
wrong outputs.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
from hypnet.cli import main as cli_main  # noqa: E402
from hypnet.meshio import write_positions_mesh  # noqa: E402
from hypnet.synthetic import quadric_grid  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SIZE = 3


def _benchmark_json():
    with open(HERE.parent / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def test_metric_tables_match_benchmark_json():
    spec = _benchmark_json()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_each_workload_runs_clean_on_a_small_net(name, trace):
    out, detail = run.run(name, seed=3, seconds=0.05, trace=trace, size=SIZE)
    assert out["correct"], detail["problems"]
    assert out["attempted"] == 2
    if name != "fit_noisy":
        assert out["failed"] == 0
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert list(out["metrics"]) == list(expected)
    for key, metric in out["metrics"].items():
        assert metric["unit"] == expected[key]
        assert math.isfinite(metric["value"]), key
    if trace and name == "extend_grid":
        assert out["metrics"]["patch.sample_points"]["value"] == 81 * SIZE**2
        assert out["metrics"]["meshio.vertices_written"]["value"] == 25**2


def _cli_op(workload, directory, index):
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli_main(list(workload.argv))
    stdout = os.path.join(directory, f"op{index}.json")
    Path(stdout).write_text(buffer.getvalue(), encoding="utf-8")
    mesh = None
    if workload.output:
        mesh = os.path.join(directory, f"op{index}.obj")
        os.replace(workload.output, mesh)
    return {"kind": "cli", "code": code, "wall": 0.0, "stdout": stdout,
            "mesh": mesh}


def _shift_first_vertex(path, column, delta):
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    fields = lines[0].split()
    fields[column] = repr(float(fields[column]) + delta)
    lines[0] = " ".join(fields)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_extend_check_rejects_a_point_off_the_surface(tmp_path):
    workload = WORKLOADS["extend_grid"](0, str(tmp_path), SIZE)
    op = _cli_op(workload, str(tmp_path), 0)
    report = json.loads(Path(op["stdout"]).read_text(encoding="utf-8"))
    assert workload.check(report, op["mesh"]) == []
    _shift_first_vertex(op["mesh"], 3, 1e-6)
    problems = workload.check(report, op["mesh"])
    assert problems == ["1 output points off z = xy"]


def test_fit_check_rejects_a_moved_pinned_vertex(tmp_path):
    workload = WORKLOADS["fit_noisy"](0, str(tmp_path), SIZE)
    op = _cli_op(workload, str(tmp_path), 0)
    report = json.loads(Path(op["stdout"]).read_text(encoding="utf-8"))
    assert workload.check(report, op["mesh"]) == []
    _shift_first_vertex(op["mesh"], 1, 1e-12)
    problems = workload.check(report, op["mesh"])
    assert "1 pinned vertices moved" in problems


def test_check_check_rejects_an_invalid_verdict(tmp_path):
    workload = WORKLOADS["check_wide"](0, str(tmp_path), SIZE)
    op = _cli_op(workload, str(tmp_path), 0)
    report = json.loads(Path(op["stdout"]).read_text(encoding="utf-8"))
    assert workload.check(report, None) == []
    report["diagnostics"]["equi_twisted"] = False
    assert workload.check(report, None)


def test_evaluate_fails_a_run_that_differs_from_the_first(tmp_path):
    workload = WORKLOADS["extend_grid"](0, str(tmp_path), SIZE)
    ops = [_cli_op(workload, str(tmp_path), i) for i in range(2)]
    assert run.evaluate(workload, ops) == (0, [])
    with open(ops[1]["mesh"], "a", encoding="utf-8") as handle:
        handle.write("# trailing record\n")
    failed, problems = run.evaluate(workload, ops)
    assert failed == 1
    assert problems[0].endswith("report or mesh differs from the first run")


def test_evaluate_fails_a_replay_that_differs_from_the_cli(tmp_path):
    workload = WORKLOADS["check_wide"](0, str(tmp_path), SIZE)
    ops = [_cli_op(workload, str(tmp_path), 0)]
    report = json.loads(Path(ops[0]["stdout"]).read_text(encoding="utf-8"))
    report["diagnostics"]["planarity_residuals"][0] = 1.0
    replayed = tmp_path / "op1.json"
    replayed.write_text(json.dumps(report), encoding="utf-8")
    ops.append({"kind": "traced", "code": 0, "wall": 0.0,
                "stdout": str(replayed), "mesh": None})
    failed, problems = run.evaluate(workload, ops)
    assert failed == 1
    assert problems[0].endswith("traced replay differs in 'diagnostics'")


def test_program_reported_failure_counts_without_a_wrong_output(tmp_path):
    workload = WORKLOADS["fit_noisy"](0, str(tmp_path), SIZE)
    nv, quads, exact = quadric_grid(SIZE, SIZE)
    mesh = tmp_path / "op0.obj"
    write_positions_mesh(mesh, exact, quads)
    report = {"pinned": workload.pinned,
              "violations": [{"kind": "did_not_converge"}]}
    stdout = tmp_path / "op0.json"
    stdout.write_text(json.dumps(report), encoding="utf-8")
    ops = [{"kind": "cli", "code": 6, "wall": 0.0, "stdout": str(stdout),
            "mesh": str(mesh)}]
    assert run.evaluate(workload, ops) == (1, [])


def test_run_refuses_a_checkout_without_sources(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "check_wide"]) == 2
    assert capsys.readouterr().out == ""

"""Benchmark of the hypnet check / fit / extend pipeline.

Run from the repository root::

    python3 bench/run.py --workload extend_grid --seed 0 --seconds 25 --trace 0

``--trace 0`` times the workload through ``hypnet.cli.main`` in a fresh
process and reports the end-to-end metrics; ``--trace 1`` pairs each
untraced CLI call with a traced replay of its stages and reports the
per-layer metrics.  Every op's output is checked; the last stdout line
is one JSON object ``{"correct", "attempted", "failed", "metrics"}``.

``wall_s`` and ``setup_s`` are scaled to a reference core speed by the
sampler in :mod:`calibrate`, which runs on the same core through every
untraced run; the detail line before the result also gives the raw
wall times.

Load: one process, one op at a time (closed loop, one client), with
BLAS and OpenMP pinned to one thread.  An op fails when its exit code
is not 0 or its report lists violations, when its output fails the
workload's check, or when its report or mesh differs from the first op
of the run (traced ops: from the untraced op of their round).
``correct`` is false when any output check, determinism check, replay
comparison or primitive check fails; an op the program itself reports
as failed, with an output that passes its checks, counts in ``failed``
but leaves ``correct`` true.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

DEFAULT_SEED = 0
#: Fresh interpreters timed for ``setup_s`` before and again after the
#: workload, so the samples span the run; the median is reported.
SETUP_REPEATS = 3
#: Wall-clock limit for the worker process, inside the 180 s run limit.
WORKER_TIMEOUT_S = 150
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

PER_LAYER = {
    "patch.restrict_s": "s", "patch.sample_s": "s", "patch.c1_s": "s",
    "patch.sample_points": "count", "patch.c1_edge_points": "count",
    "patch.sample_us_per_point": "us", "patch.c1_us_per_edge_point": "us",
    "plucker.intersect_lines_us": "us", "plucker.span_us": "us",
    "hyperboloid.project_tau_us": "us",
    "hyperboloid.propagate_s": "s", "hyperboloid.tree_edges": "count",
    "hyperboloid.closure_edges": "count",
    "hyperboloid.closure_margin": "ratio",
    "anet.validate_s": "s", "anet.equi_twist_s": "s", "anet.diagnose_s": "s",
    "anet.star_margin": "ratio",
    "quadgraph.build_s": "s", "quadgraph.faces": "count",
    "quadgraph.edges": "count",
    "meshio.read_s": "s", "meshio.write_s": "s", "meshio.bytes_read": "bytes",
    "meshio.bytes_written": "bytes", "meshio.vertices_written": "count",
    "fit.problem_s": "s", "fit.fit_s": "s", "fit.iterations": "count",
    "fit.tetrahedra": "count", "fit.us_per_iteration": "us",
    "fit.star_margin": "ratio",
    "cli.render_s": "s", "cli.report_bytes": "bytes", "cli.other_s": "s",
    "trace.overhead_s": "s",
}


def child_env() -> dict:
    """Environment of every child: pinned threads, the checkout's ``src``
    first on the path, and no tolerance overrides."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("HYPNET_")}
    env.update({name: "1" for name in THREAD_VARS})
    env["PYTHONPATH"] = str(SRC)
    return env


def last_level_cache() -> str | None:
    best = (0, None)
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            level = int((index / "level").read_text())
            size = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        best = max(best, (level, size), key=lambda item: item[0])
    return best[1]


def environment() -> dict:
    import numpy
    import scipy

    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "threads": {name: os.environ[name] for name in THREAD_VARS},
            "last_level_cache": last_level_cache()}


def import_interval(env) -> tuple:
    """Monotonic start and end of a fresh interpreter importing ``hypnet.cli``."""
    start = time.monotonic()
    subprocess.run([sys.executable, "-c", "import hypnet.cli"], env=env,
                   cwd=ROOT, check=True, timeout=60)
    return start, time.monotonic()


def measure_scaled(spec: dict, directory: str, env):
    """Untraced run on one core next to the calibration sampler; returns
    the worker's result and the scaled op and import times."""
    import calibrate

    log = os.path.join(directory, "speed.log")
    saved = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(saved)})  # children inherit the core
    sampler = subprocess.Popen([sys.executable, str(HERE / "calibrate.py"),
                                log], env=env, cwd=ROOT)
    try:
        deadline = time.monotonic() + 60
        while not (os.path.exists(log) and os.path.getsize(log)):
            if time.monotonic() > deadline or sampler.poll() is not None:
                raise RuntimeError("calibration sampler did not start")
            time.sleep(0.05)
        imports = [import_interval(env) for _ in range(SETUP_REPEATS)]
        result = run_worker(spec, directory, env)
        imports += [import_interval(env) for _ in range(SETUP_REPEATS)]
    finally:
        sampler.terminate()
        sampler.wait()
        os.sched_setaffinity(0, saved)
    samples = calibrate.load(log)
    walls = [calibrate.scaled(samples, op["t0"], op["t1"])
             for op in result["ops"]]
    setups = [calibrate.scaled(samples, *span) for span in imports]
    return result, walls, setups


def run_worker(spec: dict, directory: str, env) -> dict:
    spec_path = os.path.join(directory, "spec.json")
    result_path = os.path.join(directory, "result.json")
    with open(spec_path, "w", encoding="utf-8") as handle:
        json.dump(spec, handle)
    subprocess.run([sys.executable, str(HERE / "worker.py"), spec_path,
                    result_path], env=env, cwd=ROOT, check=True,
                   timeout=WORKER_TIMEOUT_S)
    with open(result_path, encoding="utf-8") as handle:
        return json.load(handle)


def _digest(path) -> str | None:
    if path is None:
        return None
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def evaluate(workload, ops):
    """``(failed, problems)`` over all ops; problems are wrong outputs."""
    failed = 0
    problems = []
    first = None
    for op in ops:
        with open(op["stdout"], encoding="utf-8") as handle:
            text = handle.read()
        report = json.loads(text)
        mesh = _digest(op["mesh"])
        wrong = []
        if op["kind"] == "cli":
            wrong += workload.check(report, op["mesh"])
            if first is None:
                first = (text, mesh)
            elif (text, mesh) != first:
                wrong.append("report or mesh differs from the first run")
            round_cli = (op["code"], report, mesh)
        else:
            code, cli_report, cli_mesh = round_cli
            if mesh != cli_mesh:
                wrong.append("traced replay wrote another mesh")
            if op["code"] != code:
                wrong.append(f"traced replay exit {op['code']}, CLI {code}")
            wrong += [f"traced replay differs in {section!r}"
                      for section in workload.sections
                      if report.get(section) != cli_report.get(section)]
        program_failed = op["code"] != 0 or bool(report.get("violations"))
        failed += bool(wrong) or program_failed
        problems += [f"op {op['stdout']}: {p}" for p in wrong]
    return failed, problems


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def run(name: str, seed: int, seconds: float, trace: bool, size=None):
    """Run one workload; returns ``(result, detail)``."""
    from workloads import WORKLOADS

    env = child_env()
    runs = ROOT / ".bench_runs"
    runs.mkdir(exist_ok=True)
    directory = tempfile.mkdtemp(prefix=f"{name}-", dir=runs)
    try:
        workload = WORKLOADS[name](seed, directory, size)
        spec = {"argv": workload.argv, "input": workload.input,
                "output": workload.output, "params": workload.params,
                "seconds": seconds, "trace": trace, "ops_dir": directory}
        if trace:
            grid = (workload if name == "extend_grid"
                    else WORKLOADS["extend_grid"](seed, directory, size))
            spec["micro"] = {"input": grid.input, "seed_face": 0,
                             "lam": grid.lam}
            result = run_worker(spec, directory, env)
        else:
            result, walls, setups = measure_scaled(spec, directory, env)
        ops = result["ops"]
        failed, problems = evaluate(workload, ops)
        cli_walls = [op["wall"] for op in ops if op["kind"] == "cli"]
        detail = {"ops": len(ops), "raw_wall_s": statistics.median(cli_walls),
                  "raw_wall_s_quartiles": quartiles(cli_walls),
                  "problems": problems}
        if trace:
            traced = [op for op in ops if op["kind"] == "traced"]
            traced_wall = statistics.median(op["wall"] for op in traced)
            metrics = {key: statistics.median(op["layers"][key] for op in traced)
                       for key in traced[0]["layers"]}
            metrics.update(result["micro"])
            metrics["trace.overhead_s"] = traced_wall - detail["raw_wall_s"]
            detail["traced_wall_s"] = traced_wall
            if result["micro_wrong"]:
                problems.append(f"{result['micro_wrong']} primitive results "
                                "fail their check")
            units = PER_LAYER
        else:
            metrics = {"wall_s": statistics.median(walls),
                       "setup_s": statistics.median(setups),
                       "peak_rss_mb": result["peak_rss_kb"] / 1024.0}
            units = END_TO_END
        out = {"correct": not problems, "attempted": len(ops),
               "failed": failed,
               "metrics": {key: {"value": metrics[key], "unit": unit}
                           for key, unit in units.items()}}
        return out, detail
    finally:
        shutil.rmtree(directory, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("extend_grid", "check_wide", "fit_noisy"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "hypnet" / "__init__.py").is_file():
        print(f"bench: no hypnet sources under {SRC}", file=sys.stderr)
        return 2
    for name in THREAD_VARS:
        os.environ[name] = "1"
    sys.path.insert(0, str(SRC))
    out, detail = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "environment": environment(), **detail}))
    for key, metric in out["metrics"].items():
        print(f"{key:32s} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

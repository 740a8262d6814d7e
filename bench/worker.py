"""One benchmark process: run a workload's ops for a time budget.

Usage: ``python3 bench/worker.py SPEC.json RESULT.json``.

The spec names the CLI argv, the output path, the replay parameters,
the time budget and whether to trace.  Untraced, the process calls
``hypnet.cli.main`` only, so its peak resident memory is that of the
workload, and each call records its monotonic start and end for
scaling by :mod:`calibrate`.  Traced, each round is an untraced CLI
call followed by the traced replay of the same stages, and the
primitive microbenchmarks run after the rounds.  Each op's stdout and output mesh are kept in numbered
files for the parent to check; nothing here judges correctness except
the primitive results.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
from time import perf_counter


def _keep(path, kept):
    """Move an op's output aside so the next op writes a fresh file."""
    if path is None or not os.path.exists(path):
        return None
    os.replace(path, kept)
    return kept


def run_cli(spec, index):
    from hypnet.cli import main

    buffer = io.StringIO()
    t0 = time.monotonic()
    with contextlib.redirect_stdout(buffer):
        try:
            code = main(list(spec["argv"]))
        except SystemExit as exc:
            code = exc.code
    t1 = time.monotonic()
    stdout = os.path.join(spec["ops_dir"], f"op{index}.json")
    with open(stdout, "w", encoding="utf-8") as handle:
        handle.write(buffer.getvalue())
    mesh = _keep(spec["output"], os.path.join(spec["ops_dir"], f"op{index}.obj"))
    return {"kind": "cli", "code": code, "wall": t1 - t0, "t0": t0, "t1": t1,
            "stdout": stdout, "mesh": mesh}


def run_traced(spec, index):
    import replay

    trace = replay.Trace()
    start = perf_counter()
    code, text, counters = replay.REPLAYS[spec["argv"][0]](
        trace, spec["input"], spec["output"], spec["params"]
    )
    wall = perf_counter() - start
    stdout = os.path.join(spec["ops_dir"], f"op{index}.json")
    with open(stdout, "w", encoding="utf-8") as handle:
        handle.write(text + "\n")
    output = spec["output"]
    written = output is not None and os.path.exists(output)
    layers = replay.layer_metrics(trace, wall, counters(), text)
    layers["meshio.bytes_read"] = os.path.getsize(spec["input"])
    layers["meshio.bytes_written"] = os.path.getsize(output) if written else 0
    layers["meshio.vertices_written"] = _count_vertices(output) if written else 0
    mesh = _keep(output, os.path.join(spec["ops_dir"], f"op{index}.obj"))
    return {"kind": "traced", "code": code, "wall": wall, "stdout": stdout,
            "mesh": mesh, "layers": layers}


def _count_vertices(path) -> int:
    with open(path, "rb") as handle:
        return sum(1 for line in handle if line.startswith(b"v "))


def main(spec_path, result_path):
    with open(spec_path, encoding="utf-8") as handle:
        spec = json.load(handle)
    steps = [run_cli, run_traced] if spec["trace"] else [run_cli]
    min_rounds = 1 if spec["trace"] else 2
    ops = []
    start = perf_counter()
    while True:
        for step in steps:
            ops.append(step(spec, len(ops)))
        rounds = len(ops) // len(steps)
        elapsed = perf_counter() - start
        # Start another round only if it should end within the budget.
        if rounds >= min_rounds and elapsed * (rounds + 1) / rounds > spec["seconds"]:
            break
    result = {"ops": ops,
              "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if spec["trace"]:
        import micro

        micro_spec = spec["micro"]
        result["micro"], result["micro_wrong"] = micro.run(
            micro_spec["input"], micro_spec["seed_face"], micro_spec["lam"]
        )
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)


if __name__ == "__main__":
    main(*sys.argv[1:3])

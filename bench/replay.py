"""Traced replay of the CLI stages, one span per call into the program.

Each ``replay_*`` function makes the same public calls, in the same
order and with the same arguments, as the matching ``hypnet.cli._run_*``
and assembles the same report sections, so the harness can require its
output to equal an untraced CLI run byte for byte.  Only the benchmark
records spans; nothing under ``src/`` is instrumented.

Spans are flat: the stages run one after another, so the traced wall
time minus the sum of all spans is the time spent outside any call into
the program (``cli.other_s``).
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter

import numpy as np

import hypnet.cli as cli
from hypnet import anet as _anet
from hypnet import hyperboloid as _hyperboloid
from hypnet.anet import diagnose_anet, star_plane, validate_anet
from hypnet.errors import DidNotConverge
from hypnet.fit import DEFAULT_MAX_ITER, FitProblem, fit
from hypnet.hyperboloid import propagate_all
from hypnet.meshio import oriented_grid, read_mesh, write_mesh, write_positions_mesh
from hypnet.patch import check_c1, restrict_to_patch, sample
from hypnet.quadgraph import build


class Trace:
    """Spans of one traced op: ``(name, start, end)`` in call order."""

    def __init__(self):
        self.spans = []

    @contextmanager
    def span(self, name: str):
        start = perf_counter()
        try:
            yield
        finally:
            self.spans.append((name, start, perf_counter()))

    def totals(self) -> dict:
        out = {}
        for name, start, end in self.spans:
            out[name] = out.get(name, 0.0) + (end - start)
        return out


def _base_report(command: str, input_path: str) -> dict:
    return {"schema": cli.SCHEMA_VERSION, "command": command,
            "input": str(input_path), "violations": []}


def _render(trace: Trace, report: dict, code: int):
    report["exit_code"] = code
    with trace.span("cli.render"):
        text = cli.render_report(report)
    return code, text


def star_margin(graph, positions) -> float:
    """Worst star-planarity residual over its tolerance ``PLANAR_EPS * diameter``."""
    worst = 0.0
    for v in range(len(positions)):
        if not graph.is_referenced(v):
            continue
        neighbors, _ = graph.vertex_star(v)
        _, residual, diameter = star_plane(positions[[v] + neighbors])
        worst = max(worst, residual / (_anet.PLANAR_EPS * diameter))
    return worst


def replay_check(trace: Trace, input_path, output_path, params):
    """Stages of ``hypnet check``; returns ``(code, text, counters)``."""
    report = _base_report("check", input_path)
    with trace.span("meshio.read"):
        positions, quads = read_mesh(input_path)
    with trace.span("quadgraph.build"):
        graph = build(len(positions), quads)
    with trace.span("anet.diagnose"):
        diagnostics = diagnose_anet(graph, positions)
    report["diagnostics"] = diagnostics
    report["violations"].extend(diagnostics["violations"])
    if diagnostics["violations"]:
        code = cli.EXIT_ANET
    elif not diagnostics["equi_twisted"]:
        code = cli.EXIT_STRUCTURE
    else:
        code = cli.EXIT_OK
    code, text = _render(trace, report, code)
    return code, text, lambda: {
        "graph": graph,
        "anet.star_margin": star_margin(graph, positions),
    }


def replay_fit(trace: Trace, input_path, output_path, params):
    """Stages of ``hypnet fit`` with the default boundary pinning."""
    report = _base_report("fit", input_path)
    with trace.span("meshio.read"):
        positions, quads = read_mesh(input_path)
    with trace.span("quadgraph.build"):
        graph = build(len(positions), quads)
    with trace.span("quadgraph.boundary"):
        pinned = frozenset(
            v for v in range(len(positions))
            if graph.is_boundary_vertex(v) or not graph.is_referenced(v)
        )
    with trace.span("fit.problem"):
        problem = FitProblem(graph, positions, pinned=pinned)
    report["pinned"] = sorted(pinned)
    with trace.span("fit.fit"):
        try:
            final, convergence = fit(problem, max_iter=DEFAULT_MAX_ITER)
            code = cli.EXIT_OK
        except DidNotConverge as exc:
            final, convergence = exc.result
            report["violations"].append(
                {"kind": "did_not_converge", "message": str(exc)}
            )
            code = cli.EXIT_CLOSURE
    history = convergence.pop("energy_history")
    convergence["energy_initial"] = history[0] if len(history) else None
    report["convergence"] = convergence
    with trace.span("meshio.write"):
        write_positions_mesh(output_path, final, quads)
    report["output"] = str(output_path)
    code, text = _render(trace, report, code)
    return code, text, lambda: {
        "graph": graph,
        "fit.tetrahedra": len(problem.tetrahedra),
        "fit.iterations": convergence["iterations"],
        "fit.star_margin": star_margin(graph, final),
        "anet.star_margin": star_margin(graph, positions),
    }


def replay_extend(trace: Trace, input_path, output_path, params):
    """Stages of ``hypnet extend`` with welding on.

    The per-face boundary residuals of the CLI report come from a private
    CLI helper, so the replay leaves them out of its report.
    """
    report = _base_report("extend", input_path)
    n, m = params["samples"]
    with trace.span("meshio.read"):
        positions, quads = read_mesh(input_path)
    with trace.span("quadgraph.build"):
        graph = build(len(positions), quads)
    with trace.span("anet.validate"):
        a = validate_anet(graph, positions)
    with trace.span("anet.equi_twist"):
        verdict, twist_report = a.equi_twisted()
    report["equi_twist"] = twist_report
    if not verdict:
        code, text = _render(trace, report, cli.EXIT_STRUCTURE)
        return code, text, lambda: {"graph": graph}
    with trace.span("hyperboloid.propagate"):
        hyperboloids, propagation = propagate_all(
            a, params["seed_face"], params["lam"]
        )
    report["propagation"] = propagation
    grids = {}
    patches = {}
    for f in sorted(hyperboloids):
        hb = hyperboloids[f]
        with trace.span("patch.restrict"):
            patch = restrict_to_patch(hb, hb.frame, a.positions)
        patches[f] = patch
        with trace.span("anet.face_frame"):
            corners = a.face_frame(f).corners
        with trace.span("patch.sample"):
            points = sample(patch, n, m)
        with trace.span("meshio.orient"):
            grids[f] = (oriented_grid(points, patch.corner_map, corners),
                        corners)
    report["samples"] = [n, m]
    with trace.span("patch.c1"):
        c1 = check_c1(patches, a, samples_per_edge=9)
    report["c1"] = c1
    with trace.span("meshio.write"):
        write_mesh(output_path, grids, weld=True)
    report["weld"] = True
    report["output"] = str(output_path)
    code, text = _render(trace, report, cli.EXIT_OK)

    def counters():
        margins = a.planarity_residuals / (_anet.PLANAR_EPS * a.star_diameters)
        return {
            "graph": graph,
            "anet.star_margin": float(np.nanmax(margins)),
            "hyperboloid.tree_edges": len(hyperboloids) - 1,
            "hyperboloid.closure_edges": len(propagation["closure_residuals"]),
            "hyperboloid.closure_margin":
                propagation["worst_closure_residual"] / _hyperboloid.CLOSURE_EPS,
            "patch.sample_points": n * m * len(patches),
            "patch.c1_edge_points": c1["edge_count"] * c1["samples_per_edge"],
        }

    return code, text, counters


REPLAYS = {"check": replay_check, "fit": replay_fit, "extend": replay_extend}


def layer_metrics(trace: Trace, wall: float, counters: dict, text: str) -> dict:
    """Per-layer figures of one traced op, keyed by metric name."""
    spans = trace.totals()
    graph = counters.pop("graph")
    out = {f"{name}_s": spans.get(name, 0.0) for name in (
        "meshio.read", "meshio.write", "quadgraph.build", "anet.validate",
        "anet.equi_twist", "anet.diagnose", "hyperboloid.propagate",
        "patch.restrict", "patch.sample", "patch.c1", "fit.problem",
        "fit.fit", "cli.render")}
    out.update({
        "patch.sample_points": 0, "patch.c1_edge_points": 0,
        "hyperboloid.tree_edges": 0, "hyperboloid.closure_edges": 0,
        "hyperboloid.closure_margin": 0.0, "fit.iterations": 0,
        "fit.tetrahedra": 0, "fit.star_margin": 0.0,
    })
    out.update(counters)
    out["patch.sample_us_per_point"] = _per(out["patch.sample_s"],
                                            out["patch.sample_points"])
    out["patch.c1_us_per_edge_point"] = _per(out["patch.c1_s"],
                                             out["patch.c1_edge_points"])
    out["fit.us_per_iteration"] = _per(out["fit.fit_s"], out["fit.iterations"])
    out["quadgraph.faces"] = graph.face_count
    out["quadgraph.edges"] = graph.edge_count
    out["cli.report_bytes"] = len(text.encode("utf-8")) + 1  # print's newline
    out["cli.other_s"] = wall - sum(spans.values())
    return out


def _per(seconds: float, count: int) -> float:
    return seconds / count * 1e6 if count else 0.0

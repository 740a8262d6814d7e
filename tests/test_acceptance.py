"""End-to-end acceptance checks for the whole package.

Each test exercises one pipeline-level guarantee at full scale: exact
agreement with rational arithmetic, orientation invariants, projective
propagation around closed cycles, tangent-continuous extension,
optimization quality, and bit-level reproducibility.
"""

import io
import json
import time
from contextlib import redirect_stdout

import numpy as np

from hypnet.anet import diagnose_anet, validate_anet
from hypnet.cli import main
from hypnet.errors import SkewLines
from hypnet.fit import FitProblem, energy, fit, gradient
from hypnet.hyperboloid import (
    project_tau,
    propagate_all,
    transport_parameter,
)
from hypnet.meshio import write_positions_mesh
from hypnet.patch import (
    bilinear_parameter,
    bilinear_patches,
    check_c1,
    restrict_to_patch,
)
from hypnet.plucker import (
    hom,
    intersect_lines,
    line_from_points,
    normalized,
    plucker_product,
)
from hypnet.quadgraph import build
from hypnet.synthetic import (
    grid_graph,
    quadric_grid,
    random_grid3x3_net,
    random_umbrella_net,
)

from oracles import (
    float_line,
    line_pair,
    member,
    proj_distance,
    random_projection_setup,
    regulus_orientation,
)


def quiet_main(argv):
    """Run the CLI capturing its stdout report."""
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = main(argv)
    return code, json.loads(buffer.getvalue())


def saddle_mesh_file(tmp_path, nx, ny, name="saddle.obj"):
    count, quads, positions = quadric_grid(nx, ny)
    path = tmp_path / name
    write_positions_mesh(path, positions, quads)
    a = validate_anet(build(count, quads), positions)
    lam = bilinear_parameter(a.face_frame(0), a.positions)
    return str(path), lam


def valid_random_net(maker, rng, tries=50):
    for _ in range(tries):
        count, quads, positions = maker(rng)
        try:
            return validate_anet(build(count, quads), positions)
        except Exception:
            continue
    raise AssertionError("no valid random net after many draws")


def cycle_pair(a, vertex, lam):
    """Transport a labeled pair once around a vertex's face cycle."""
    _, faces = a.graph.vertex_star(vertex)
    frames = {f: a.face_frame(f) for f in faces}
    seed = member(frames[faces[0]], lam, a.positions)
    for k in range(len(faces)):
        f_now, f_next = faces[k], faces[(k + 1) % len(faces)]
        shared = set(a.graph.face_edges[f_now].tolist()) & set(a.graph.face_edges[f_next].tolist())
        lam = transport_parameter(
            a, frames[f_now], shared.pop(), frames[f_next], lam
        )
    return seed, member(frames[faces[0]], lam, a.positions)


def nonzero_lambda(rng):
    while True:
        lam = rng.uniform(-10.0, 10.0)
        if abs(lam) > 1e-3:
            return lam


def test_meet_classification_of_rational_line_pairs_matches_exact_arithmetic():
    rng = np.random.default_rng(100)
    start = time.perf_counter()
    for k in range(1000):
        meets = k % 2 == 0
        pair_a, pair_b, prod = line_pair(rng, intersecting=meets)
        assert (prod == 0) == meets  # exact rational oracle
        a, b = float_line(pair_a), float_line(pair_b)
        margin = abs(plucker_product(a, b)) / (
            np.linalg.norm(a) * np.linalg.norm(b)
        )
        if meets:
            point = intersect_lines(a, b)
            assert np.all(np.isfinite(point))
        else:
            assert margin > 1e-6
            try:
                intersect_lines(a, b)
            except SkewLines:
                pass
            else:
                raise AssertionError("a skew pair produced a meeting point")
    assert time.perf_counter() - start < 5.0


def random_unit_line(rng):
    while True:
        ends = rng.uniform(-3.0, 3.0, size=(2, 3))
        if np.linalg.norm(ends[1] - ends[0]) > 0.3:
            points = hom(ends)
            return normalized(line_from_points(points[0], points[1]))


def test_ruling_orientation_agrees_with_the_gram_matrix_inertia():
    rng = np.random.default_rng(200)
    checked = 0
    while checked < 500:
        h = [random_unit_line(rng) for _ in range(3)]
        p01 = plucker_product(h[0], h[1])
        p02 = plucker_product(h[0], h[2])
        p12 = plucker_product(h[1], h[2])
        if min(abs(p01), abs(p02), abs(p12)) < 1e-3:
            continue
        gram = np.array(
            [[0.0, p01, p02], [p01, 0.0, p12], [p02, p12, 0.0]]
        )
        eigenvalues = np.linalg.eigvalsh(gram)
        assert np.min(np.abs(eigenvalues)) > 1e-12
        inertia_sign = 1 if np.sum(eigenvalues < 0) % 2 == 0 else -1
        closed_form = 1 if 2.0 * p01 * p02 * p12 > 0 else -1
        assert inertia_sign == closed_form
        assert regulus_orientation(h[0], h[1], h[2]) == closed_form
        checked += 1


def random_skew_quad(rng):
    while True:
        corners = rng.uniform(-2.0, 2.0, size=(4, 3))
        h = hom(corners)
        if abs(np.linalg.det(h)) < 0.5:
            continue
        ab = normalized(line_from_points(h[0], h[1]))
        bc = normalized(line_from_points(h[1], h[2]))
        cd = normalized(line_from_points(h[2], h[3]))
        da = normalized(line_from_points(h[3], h[0]))
        if abs(plucker_product(ab, cd)) < 1e-2:
            continue
        if abs(plucker_product(bc, da)) < 1e-2:
            continue
        return corners, h, (ab, bc, cd, da)


def test_ruling_orientation_is_constant_over_cross_lines_and_splits_pairs():
    rng = np.random.default_rng(300)
    for _ in range(100):
        corners, h, (ab, bc, cd, da) = random_skew_quad(rng)
        a, b, c, d = corners
        expected = int(
            np.sign(np.linalg.det(np.column_stack([h[0], h[1], h[3], h[2]])))
        )
        for _ in range(100):
            s, t = rng.uniform(0.0, 1.0, size=2)
            across = hom([a + s * (d - a), b + t * (c - b)])
            m = line_from_points(across[0], across[1])
            assert regulus_orientation(ab, cd, m) == expected
        s, t = rng.uniform(0.0, 1.0, size=2)
        across = hom([a + s * (b - a), d + t * (c - d)])
        m = line_from_points(across[0], across[1])
        assert regulus_orientation(bc, da, m) == -expected


def test_projection_preserves_polarity_of_admissible_pairs():
    rng = np.random.default_rng(400)
    for _ in range(1000):
        center, target, q, qprime = random_projection_setup(rng)
        tq = project_tau(q, center, target)
        tqp = project_tau(qprime, center, target)
        normalized_pairing = abs(plucker_product(tq, tqp)) / (
            np.linalg.norm(tq) * np.linalg.norm(tqp)
        )
        assert normalized_pairing < 1e-10


def test_even_cycles_keep_the_labels_and_odd_cycles_swap_them():
    rng = np.random.default_rng(500)
    for _ in range(20):
        block = valid_random_net(random_grid3x3_net, rng)
        seed, final = cycle_pair(block, 4, nonzero_lambda(rng))
        assert proj_distance(final.q1, seed.q1) < 1e-8
        assert proj_distance(final.q2, seed.q2) < 1e-8
    for _ in range(20):
        umbrella = valid_random_net(
            lambda r: random_umbrella_net(6, r), rng
        )
        seed, final = cycle_pair(umbrella, 0, nonzero_lambda(rng))
        assert proj_distance(final.q1, seed.q1) < 1e-8
        assert proj_distance(final.q2, seed.q2) < 1e-8
    swaps = 0
    for _ in range(100):
        umbrella = valid_random_net(
            lambda r: random_umbrella_net(3, r), rng
        )
        seed, final = cycle_pair(umbrella, 0, nonzero_lambda(rng))
        swapped = (
            proj_distance(final.q1, seed.q2) < 1e-8
            and proj_distance(final.q2, seed.q1) < 1e-8
            and proj_distance(final.q1, seed.q1) > 1e-3
        )
        swaps += swapped
    assert swaps == 100


def test_extending_the_integer_saddle_grid_is_tangent_continuous(tmp_path):
    path, lam = saddle_mesh_file(tmp_path, 5, 5)
    out = tmp_path / "extended.obj"
    start = time.perf_counter()
    code, report = quiet_main(
        ["extend", path, "-o", str(out), "--lambda", repr(lam),
         "--samples", "9", "9"]
    )
    elapsed = time.perf_counter() - start
    assert code == 0
    assert report["c1"]["samples_per_edge"] == 9
    assert report["c1"]["max_angle"] < 1e-8
    assert not report["c1"]["cusp_edges"]
    assert max(report["boundary_residuals"].values()) < 1e-10
    assert elapsed < 10.0


def test_bilinear_members_of_a_refit_net_kink_where_propagated_members_join():
    count, quads, positions = quadric_grid(4, 4)
    graph = build(count, quads)
    rng = np.random.default_rng(3)
    noisy = positions.copy()
    for v in range(count):
        if graph.is_referenced(v) and not graph.is_boundary_vertex(v):
            noisy[v] += rng.normal(scale=0.1, size=3)
    pinned = frozenset(
        v for v in range(count) if graph.is_boundary_vertex(v)
    )
    refit, _ = fit(FitProblem(graph, noisy, pinned=pinned))
    a = validate_anet(graph, refit)

    bilinear_report = check_c1(bilinear_patches(a), a)
    assert bilinear_report["max_angle"] > 1e-2

    lam = bilinear_parameter(a.face_frame(0), a.positions)
    hyperboloids, _ = propagate_all(a, 0, lam)
    propagated = {
        f: restrict_to_patch(hb, hb.frame, a.positions)
        for f, hb in hyperboloids.items()
    }
    propagated_report = check_c1(propagated, a)
    assert propagated_report["max_angle"] < 1e-8


def test_gradient_matches_finite_differences_and_fit_restores_planarity():
    rng = np.random.default_rng(800)
    count, quads = grid_graph(2, 2)
    graph = build(count, quads)
    step = 1e-6
    for _ in range(50):
        positions = rng.standard_normal((count, 3))
        problem = FitProblem(graph, positions)
        analytic = gradient(problem, positions)
        numeric = np.zeros_like(analytic)
        for v in range(count):
            for axis in range(3):
                forward = positions.copy()
                forward[v, axis] += step
                backward = positions.copy()
                backward[v, axis] -= step
                numeric[v, axis] = (
                    energy(problem, forward) - energy(problem, backward)
                ) / (2 * step)
        scale = max(np.linalg.norm(numeric), 1e-12)
        assert np.linalg.norm(analytic - numeric) / scale < 1e-6

    count, quads, positions = quadric_grid(4, 4)
    graph = build(count, quads)
    noisy = positions.copy()
    for v in range(count):
        if graph.is_referenced(v) and not graph.is_boundary_vertex(v):
            noisy[v] += rng.normal(scale=1e-3, size=3)
    pinned = frozenset(
        v for v in range(count) if graph.is_boundary_vertex(v)
    )
    final, report = fit(FitProblem(graph, noisy, pinned=pinned))
    assert report["iterations"] <= 5000
    diagnostics = diagnose_anet(graph, final)
    assert diagnostics["valid"]
    residuals = [
        r for r in diagnostics["planarity_residuals"] if r is not None
    ]
    assert max(residuals) < 1e-8


def test_identical_runs_produce_identical_reports_and_meshes(tmp_path):
    path, lam = saddle_mesh_file(tmp_path, 4, 4)
    out = tmp_path / "extended.obj"
    report_path = tmp_path / "extended.json"
    argv = [
        "extend", path, "-o", str(out), "--report", str(report_path),
        "--lambda", repr(lam),
    ]
    assert quiet_main(argv)[0] == 0
    first = (out.read_bytes(), report_path.read_bytes())
    assert quiet_main(argv)[0] == 0
    assert (out.read_bytes(), report_path.read_bytes()) == first

    fitted = tmp_path / "fitted.obj"
    fit_report = tmp_path / "fitted.json"
    argv = ["fit", path, "-o", str(fitted), "--report", str(fit_report)]
    assert quiet_main(argv)[0] == 0
    second = (fitted.read_bytes(), fit_report.read_bytes())
    assert quiet_main(argv)[0] == 0
    assert (fitted.read_bytes(), fit_report.read_bytes()) == second

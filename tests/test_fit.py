"""Star-planarity functional: energy, analytic gradient, optimization."""

import importlib

import numpy as np
import pytest

from hypnet.anet import validate_anet
from hypnet.cli import main
from hypnet.errors import DidNotConverge
from hypnet.fit import (
    DAMPING_START,
    FitProblem,
    _band_layout,
    _damped_step,
    _gradient,
    _residuals,
    energy,
    fit,
    gradient,
)
from hypnet.meshio import write_positions_mesh
from hypnet.quadgraph import build
from hypnet.synthetic import (
    grid_graph,
    perturbed,
    quadric_grid,
    random_grid3x3_net,
    umbrella_graph,
)

from oracles import (
    free_jacobian,
    reference_band_layout,
    reference_lm_step,
    reference_tetrahedra,
)


def flat_grid(n=3):
    count, quads = grid_graph(n - 1, n - 1)
    pos = np.array(
        [[ix, iy, 0.0] for iy in range(n) for ix in range(n)], dtype=float
    )
    return build(count, quads), pos


def random_problem(rng, mesh="grid"):
    if mesh == "grid":
        count, quads = grid_graph(3, 3)
    else:
        count, quads = umbrella_graph(5)
    g = build(count, quads)
    pos = rng.uniform(-1, 1, size=(count, 3))
    return FitProblem(graph=g, initial_positions=pos)


# --- energy -------------------------------------------------------------------


def test_energy_zero_on_planar_grid():
    g, pos = flat_grid()
    assert energy(FitProblem(graph=g, initial_positions=pos), pos) == 0.0


def test_energy_zero_on_ruled_quadric_grid():
    count, quads, pos = quadric_grid(3, 3)
    problem = FitProblem(graph=build(count, quads), initial_positions=pos)
    assert energy(problem, pos) == 0.0


def test_lifted_vertex_energy_is_exactly_quadratic():
    g, pos = flat_grid()
    problem = FitProblem(graph=g, initial_positions=pos)
    ratios = []
    for h in (1e-2, 1e-4):
        lifted = pos.copy()
        lifted[4, 2] += h
        e = energy(problem, lifted)
        assert e > 0
        ratios.append(e / h**2)
    assert ratios[0] == pytest.approx(ratios[1], rel=1e-9)


def test_energy_rigid_invariance_and_scaling():
    rng = np.random.default_rng(2)
    problem = random_problem(rng)
    pos = problem.initial_positions
    e0 = energy(problem, pos)
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    moved = pos @ q.T + rng.uniform(-5, 5, size=3)
    assert energy(problem, moved) == pytest.approx(e0, rel=1e-10)
    s = 1.7
    assert energy(problem, s * pos) == pytest.approx(s**6 * e0, rel=1e-12)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_start_positions_must_be_finite(bad):
    problem = random_problem(np.random.default_rng(3))
    positions = problem.initial_positions.copy()
    positions[1, 2] = bad
    with pytest.raises(ValueError, match="positions must be finite"):
        FitProblem(graph=problem.graph, initial_positions=positions)


@pytest.mark.parametrize("pin", [-1, 25])
def test_pinned_ids_must_be_vertex_ids(pin):
    # -1 would zero the last vertex's gradient row and leave it free, 25
    # would index past the gradient
    count, quads, pos = quadric_grid(4, 4)
    graph = build(count, quads)
    assert count == 25
    with pytest.raises(ValueError, match="^pinned vertex ids out of range$"):
        FitProblem(graph=graph, initial_positions=pos, pinned={0, pin})
    problem = FitProblem(graph=graph, initial_positions=pos, pinned={0, 24})
    assert problem.pinned == {0, 24}
    assert problem.free_vertices == list(range(1, 24))


# --- gradient ------------------------------------------------------------------


def test_gradient_zero_at_planar_configuration():
    g, pos = flat_grid()
    problem = FitProblem(graph=g, initial_positions=pos)
    assert np.all(gradient(problem, pos) == 0.0)


@pytest.mark.parametrize("mesh", ["grid", "umbrella"])
def test_gradient_matches_finite_differences(mesh):
    rng = np.random.default_rng(17)
    eps = 1e-5
    for _ in range(10):
        problem = random_problem(rng, mesh)
        pos = problem.initial_positions
        g = gradient(problem, pos)
        d = rng.normal(size=pos.shape)
        d /= np.linalg.norm(d)
        fd = (energy(problem, pos + eps * d) - energy(problem, pos - eps * d)) / (
            2 * eps
        )
        analytic = float(np.sum(g * d))
        assert analytic == pytest.approx(fd, rel=1e-6, abs=1e-12)


def test_gradient_rows_zeroed_for_pinned():
    rng = np.random.default_rng(8)
    base = random_problem(rng)
    pinned = FitProblem(
        graph=base.graph,
        initial_positions=base.initial_positions,
        pinned=frozenset({0, 5}),
    )
    g = gradient(pinned, pinned.initial_positions)
    assert np.all(g[[0, 5]] == 0.0)
    g_free = gradient(base, base.initial_positions)
    assert np.any(g_free[[0, 5]] != 0.0)


@pytest.mark.parametrize("mesh", ["grid", "umbrella"])
def test_sparse_jacobian_matches_finite_differences(mesh):
    rng = np.random.default_rng(21)
    base = random_problem(rng, mesh)
    problem = FitProblem(
        graph=base.graph,
        initial_positions=base.initial_positions,
        pinned=frozenset({0, 2}),
    )
    pos = problem.initial_positions
    free = np.array(problem.free_vertices)
    r, blocks, _ = _residuals(problem, pos)
    jac = free_jacobian(problem, free, blocks)
    assert jac.shape == (len(problem.tetrahedra), 3 * len(free))
    # each residual is affine in any single coordinate, so central
    # differences are exact up to rounding
    h = 1e-6
    numeric = np.zeros(jac.shape)
    for column in range(jac.shape[1]):
        v, axis = free[column // 3], column % 3
        up, down = pos.copy(), pos.copy()
        up[v, axis] += h
        down[v, axis] -= h
        numeric[:, column] = (
            _residuals(problem, up)[0] - _residuals(problem, down)[0]
        ) / (2 * h)
    dense = jac.toarray()
    assert np.max(np.abs(dense - numeric)) < 1e-8 * np.max(np.abs(dense))
    g = gradient(problem, pos)
    assert np.linalg.norm(2.0 * (jac.T @ r) - g[free].ravel()) <= (
        1e-12 * np.linalg.norm(g)
    )


def test_gradient_balances_force_and_torque():
    rng = np.random.default_rng(9)
    problem = random_problem(rng)
    pos = problem.initial_positions
    g = gradient(problem, pos)
    scale = np.max(np.abs(g)) * np.max(np.abs(pos)) + 1e-30
    assert np.linalg.norm(g.sum(axis=0)) < 1e-10 * scale
    torque = np.cross(pos, g).sum(axis=0)
    assert np.linalg.norm(torque) < 1e-10 * scale


# --- fit -------------------------------------------------------------------------


def test_fit_planar_input_returns_immediately():
    g, pos = flat_grid()
    problem = FitProblem(graph=g, initial_positions=pos)
    out, report = fit(problem)
    assert report["iterations"] == 0
    assert report["converged"]
    assert np.array_equal(out, pos)


def test_fit_all_pinned_returns_input():
    rng = np.random.default_rng(4)
    problem = random_problem(rng)
    pinned = FitProblem(
        graph=problem.graph,
        initial_positions=problem.initial_positions,
        pinned=frozenset(range(len(problem.initial_positions))),
    )
    out, report = fit(pinned)
    assert np.array_equal(out, problem.initial_positions)
    assert report["converged"]
    assert report["iterations"] == 0


def test_fit_is_deterministic():
    problem = noisy_quadric_problem(seed=4)
    out_a, report_a = fit(problem)
    out_b, report_b = fit(problem)
    assert out_a.tobytes() == out_b.tobytes()
    assert report_a == report_b


def noisy_quadric_problem(seed=0, n_faces=6, noise=1e-3):
    # noise on the free interior; the pinned boundary keeps exact quadric
    # positions (pinning a noisy boundary leaves no planar-star net in
    # reach: the interior of such a net is determined by far less than
    # full boundary data)
    count, quads, pos = quadric_grid(n_faces, n_faces)
    g = build(count, quads)
    rng = np.random.default_rng(seed)
    pinned = frozenset(
        v for v in range(count) if g.is_boundary_vertex(v)
    )
    noisy = pos.copy()
    for v in range(count):
        if v not in pinned:
            noisy[v] += rng.uniform(-noise, noise, size=3)
    return FitProblem(graph=g, initial_positions=noisy, pinned=pinned)


def test_fit_recovers_planar_stars_from_noise():
    problem = noisy_quadric_problem()
    out, report = fit(problem)
    assert report["converged"]
    for v in sorted(problem.pinned):
        assert np.array_equal(out[v], problem.initial_positions[v])
    net = validate_anet(problem.graph, out)
    assert np.nanmax(net.planarity_residuals) < 1e-8


def test_fit_energy_history_monotone():
    problem = noisy_quadric_problem(seed=1)
    _, report = fit(problem)
    hist = report["energy_history"]
    assert len(hist) >= 2
    slack = 1e-12 * max(1.0, hist[0])
    assert all(b <= a + slack for a, b in zip(hist, hist[1:]))


def test_fit_budget_exhaustion_raises_with_state():
    problem = noisy_quadric_problem(seed=2)
    with pytest.raises(DidNotConverge) as exc:
        fit(problem, max_iter=1)
    positions, report = exc.value.result
    assert positions.shape == problem.initial_positions.shape
    assert not report["converged"]
    assert report["stopping"] == "budget"
    assert report["energy"] < report["energy_history"][0]


@pytest.mark.parametrize("n_faces", [20, 30, 40])
def test_fit_reaches_the_validator_tolerance_on_large_grids(n_faces):
    problem = noisy_quadric_problem(seed=0, n_faces=n_faces, noise=5e-5)
    out, report = fit(problem)
    assert report["converged"]
    assert report["stopping"] == "gradient"
    for v in sorted(problem.pinned):
        assert np.array_equal(out[v], problem.initial_positions[v])
    net = validate_anet(problem.graph, out)
    assert np.nanmax(net.planarity_residuals) < 1e-10


@pytest.mark.parametrize("spacing, shift", [(0.1, 0.0), (0.37, 100.0)])
def test_fit_accepts_exact_input_at_its_rounding_floor(spacing, shift):
    # planar stars whose coordinates are not exactly representable: the
    # residuals and the gradient are rounding noise, not zero
    count, quads, pos = quadric_grid(6, 6, spacing=spacing)
    graph = build(count, quads)
    pinned = frozenset(v for v in range(count) if graph.is_boundary_vertex(v))
    problem = FitProblem(graph=graph, initial_positions=pos + shift,
                         pinned=pinned)
    assert np.max(np.abs(gradient(problem, problem.initial_positions))) > 0
    out, report = fit(problem)
    assert report["converged"]
    assert report["stopping"] == "rounding"
    assert report["iterations"] == 0
    assert np.array_equal(out, problem.initial_positions)


def test_fit_does_not_take_a_tiny_lift_for_rounding():
    # a 2e-14 lift is a few hundred times the rounding of these
    # coordinates: the fit must undo it, not take it for rounding
    count, quads, pos = quadric_grid(6, 6, spacing=0.1)
    graph = build(count, quads)
    pinned = frozenset(v for v in range(count) if graph.is_boundary_vertex(v))
    lifted = pos.copy()
    lifted[24, 2] += 2e-14
    problem = FitProblem(graph=graph, initial_positions=lifted, pinned=pinned)
    _, report = fit(problem)
    assert report["converged"]
    assert report["iterations"] >= 1
    assert report["energy"] < 1e-4 * report["energy_history"][0]


def test_fit_is_idempotent():
    problem = noisy_quadric_problem(seed=0)
    once, _ = fit(problem)
    again, report = fit(FitProblem(graph=problem.graph,
                                   initial_positions=once,
                                   pinned=problem.pinned))
    assert report["converged"]
    assert report["stopping"] == "rounding"
    assert report["iterations"] == 0
    assert np.array_equal(again, once)


def test_fit_with_zero_gradient_tolerance_stops_at_the_rounding_floor():
    problem = noisy_quadric_problem(seed=0)
    out, report = fit(problem, tol_g=0.0)
    assert report["converged"]
    assert report["stopping"] == "rounding"
    assert report["grad_norm"] > 0.0
    net = validate_anet(problem.graph, out)
    assert np.nanmax(net.planarity_residuals) < 1e-12


def assert_no_progress(problem):
    with pytest.raises(DidNotConverge) as exc:
        fit(problem)
    positions, report = exc.value.result
    assert report["stopping"] == "no_progress"
    assert not report["converged"]
    assert report["iterations"] == 0
    assert report["energy_history"] == [report["energy"]]
    assert np.array_equal(positions, problem.initial_positions)


def test_fit_without_progress_raises_with_state(monkeypatch):
    # no input found reaches this branch; a solver whose steps are all
    # zero leaves every damped trial at the current energy
    import scipy.linalg

    monkeypatch.setattr(scipy.linalg, "solveh_banded",
                        lambda band, rhs, **options: np.zeros_like(rhs))
    assert_no_progress(noisy_quadric_problem(seed=0))


def test_fit_counts_a_band_that_is_not_positive_definite_as_a_rejected_trial(
    monkeypatch,
):
    # every damped band failing its Cholesky factorization is a run of
    # rejected trials: the fit ends without progress and moves nothing
    import scipy.linalg

    def not_positive_definite(band, rhs, **options):
        raise np.linalg.LinAlgError("leading minor not positive definite")

    monkeypatch.setattr(scipy.linalg, "solveh_banded", not_positive_definite)
    assert_no_progress(noisy_quadric_problem(seed=0))


# --- star tetrahedra -------------------------------------------------------------


def tetrahedra_graphs():
    rng = np.random.default_rng(5)
    count, quads, _ = quadric_grid(4, 3)
    three, three_quads, _ = random_grid3x3_net(rng)
    spokes, umbrella_quads = umbrella_graph(5)
    return {
        "grid": (count, quads),
        "grid_with_an_unreferenced_vertex": (count + 1, quads),
        "random_3x3_net": (three, three_quads),
        "umbrella": (spokes, umbrella_quads),
    }


@pytest.mark.parametrize("name", sorted(tetrahedra_graphs()))
def test_star_tetrahedra_equal_the_per_vertex_enumeration(name):
    count, quads = tetrahedra_graphs()[name]
    graph = build(count, quads)
    problem = FitProblem(graph=graph, initial_positions=np.zeros((count, 3)))
    expected = reference_tetrahedra(graph, count)
    assert problem.tetrahedra.dtype == expected.dtype
    assert np.array_equal(problem.tetrahedra, expected)


# --- banded normal equations -----------------------------------------------------


def band_problems():
    rng = np.random.default_rng(21)
    base = random_problem(rng)
    # vertices moved out by factors of 0.5 to 2, so that the residual rows
    # of the grid's tetrahedra differ in scale as weighted ones would
    scales = rng.uniform(0.5, 2.0, size=(len(base.initial_positions), 1))
    return {
        "weighted_grid": FitProblem(
            graph=base.graph,
            initial_positions=scales * base.initial_positions,
            pinned=frozenset({0, 2}),
        ),
        "umbrella": random_problem(rng, "umbrella"),
        "noisy_quadric": noisy_quadric_problem(seed=3),
    }


def banded_system(problem):
    """The fit's band, band order, and the dense ``J^T J`` and ``-J^T r``
    of the oracle Jacobian in that order."""
    positions = problem.initial_positions
    free = np.array(problem.free_vertices)
    r, blocks, _ = _residuals(problem, positions)
    moved, normal_band = _band_layout(problem, free)
    coordinates = (3 * np.searchsorted(free, moved)[:, None]
                   + np.arange(3)).ravel()
    jac = free_jacobian(problem, free, blocks)
    normal = (jac.T @ jac).toarray()[np.ix_(coordinates, coordinates)]
    rhs = -0.5 * _gradient(problem, r, blocks)[moved].ravel()
    return normal_band(blocks), moved, normal, rhs


def band_width(problem):
    _, normal_band = _band_layout(problem, np.array(problem.free_vertices))
    _, blocks, _ = _residuals(problem, problem.initial_positions)
    return len(normal_band(blocks)) - 1


def pinned_net(count, quads):
    """A problem on ``quads`` pinned where the CLI pins by default: the
    boundary and the vertices no face uses."""
    graph = build(count, quads)
    pinned = np.flatnonzero(graph.boundary | (graph.degrees == 0))
    return FitProblem(graph=graph, initial_positions=np.zeros((count, 3)),
                      pinned=frozenset(pinned.tolist()))


@pytest.mark.parametrize("name", sorted(band_problems()))
def test_normal_band_is_the_permuted_lower_triangle_of_the_normal_matrix(name):
    problem = band_problems()[name]
    band, moved, normal, _ = banded_system(problem)
    assert sorted(moved.tolist()) == problem.free_vertices
    rows, cols = np.tril_indices(len(normal))
    inside = rows - cols < len(band)
    unpacked = np.zeros_like(normal)
    unpacked[rows[inside], cols[inside]] = band[(rows - cols)[inside],
                                                cols[inside]]
    assert np.array_equal(unpacked, np.tril(normal))


@pytest.mark.parametrize("mu", [DAMPING_START, 1e-6, 1.0])
@pytest.mark.parametrize("name", sorted(band_problems()))
def test_banded_step_solves_its_damped_system(name, mu):
    band, _, normal, rhs = banded_system(band_problems()[name])
    damping = mu * np.max(np.diag(normal))
    step = _damped_step(band, damping, rhs, np.empty_like(band))
    residual = normal @ step + damping * step - rhs
    assert np.linalg.norm(residual) <= 1e-12 * np.linalg.norm(rhs)


@pytest.mark.parametrize("name", sorted(band_problems()))
def test_banded_step_matches_the_superlu_step(name):
    # at this damping both solves are accurate far beyond the tolerance;
    # at DAMPING_START two backward-stable solves may differ in ~1e-5
    mu = 1e-3
    problem = band_problems()[name]
    band, moved, normal, rhs = banded_system(problem)
    step = _damped_step(band, mu * np.max(np.diag(normal)), rhs,
                        np.empty_like(band))
    banded = np.zeros((len(problem.initial_positions), 3))
    banded[moved] = step.reshape(-1, 3)
    expected = reference_lm_step(problem, problem.initial_positions, mu)
    free = problem.free_vertices
    assert np.linalg.norm(banded[free] - expected) <= (
        1e-10 * np.linalg.norm(expected)
    )


def renumbered(problem, rng):
    """``problem`` with its vertex ids permuted at random."""
    count = len(problem.initial_positions)
    new_id = rng.permutation(count)
    positions = np.empty_like(problem.initial_positions)
    positions[new_id] = problem.initial_positions
    return FitProblem(
        graph=build(count, new_id[problem.graph.face_vertices]),
        initial_positions=positions,
        pinned=frozenset(new_id[sorted(problem.pinned)].tolist()),
    )


def test_band_order_does_not_depend_on_the_vertex_numbering():
    problem = noisy_quadric_problem(seed=0, n_faces=12)
    natural = band_width(problem)
    rng = np.random.default_rng(12)
    for _ in range(5):
        shuffled = renumbered(problem, rng)
        assert band_width(shuffled) <= natural
        _, report = fit(shuffled)
        assert report["stopping"] == "gradient"


def test_band_order_starts_an_l_shaped_net_at_the_end_of_an_arm():
    # its lowest-degree free vertex is the corner where the two arms
    # meet; a search started there runs down both arms at once and
    # nearly doubles the band of a straight strip as wide as one arm
    count, quads = grid_graph(20, 20)
    l_shaped = [quad for face, quad in enumerate(quads)
                if face % 20 < 10 or face // 20 < 10]
    strip = band_width(pinned_net(*grid_graph(10, 20)))
    assert band_width(pinned_net(count, l_shaped)) <= strip + 3


# --- band layout against the first-written layout ---------------------------------


def l_shaped_net():
    count, quads = grid_graph(20, 20)
    return pinned_net(count, [quad for face, quad in enumerate(quads)
                              if face % 20 < 10 or face // 20 < 10])


def rows_pinned(n_faces=10, rows=(5, 6)):
    """A net on z = xy with its boundary and the vertex ``rows`` pinned
    and noise on the rest; two adjacent rows leave no star with free
    vertices on both sides, so the free vertices fall in two coupling
    components."""
    count, quads, positions = quadric_grid(n_faces, n_faces)
    graph = build(count, quads)
    side = n_faces + 1
    pinned = graph.boundary.copy()
    pinned.reshape(side, side)[list(rows)] = True
    rng = np.random.default_rng(0)
    positions[~pinned] += rng.uniform(-5e-5, 5e-5,
                                      size=(np.count_nonzero(~pinned), 3))
    return FitProblem(graph=graph, initial_positions=positions,
                      pinned=frozenset(np.flatnonzero(pinned).tolist()))


def with_unreferenced_free_vertex():
    """A noisy 4x4 net and one more vertex, free and in no face."""
    count, quads, positions = quadric_grid(4, 4)
    graph = build(count + 1, quads)
    rng = np.random.default_rng(6)
    positions = np.vstack([positions, [[0.5, 0.5, 1.0]]])
    free = ~graph.boundary
    positions[free] += rng.uniform(-1e-3, 1e-3,
                                   size=(np.count_nonzero(free), 3))
    return FitProblem(graph=graph, initial_positions=positions,
                      pinned=frozenset(np.flatnonzero(graph.boundary).tolist()))


def layout_problems():
    problems = dict(band_problems())
    problems["l_shaped"] = l_shaped_net()
    noisy = noisy_quadric_problem(seed=0, n_faces=12)
    rng = np.random.default_rng(12)
    for k in range(5):
        problems[f"noisy_12x12_renumbered_{k}"] = renumbered(noisy, rng)
    problems["two_components"] = rows_pinned()
    problems["unreferenced_free_vertex"] = with_unreferenced_free_vertex()
    return problems


@pytest.mark.parametrize("name", sorted(layout_problems()))
def test_band_layout_equals_the_first_written_layout_bit_for_bit(name):
    problem = layout_problems()[name]
    free = np.array(problem.free_vertices)
    moved, normal_band = _band_layout(problem, free)
    expected_moved, expected_band = reference_band_layout(problem, free)
    assert np.array_equal(moved, expected_moved)
    # random positions: sums of their products change with their order
    rng = np.random.default_rng(7)
    positions = rng.normal(size=problem.initial_positions.shape)
    _, blocks, _ = _residuals(problem, positions)
    band, expected = normal_band(blocks), expected_band(blocks)
    assert np.array_equal(band, expected)
    assert band.tobytes() == expected.tobytes()


def test_band_layout_numbers_two_coupling_components_one_after_the_other():
    problem = rows_pinned()
    moved, _ = _band_layout(problem, np.array(problem.free_vertices))
    above = moved // 11 < 5  # vertex rows of 11 vertices
    assert np.count_nonzero(above[1:] != above[:-1]) == 1
    _, report = fit(problem)
    assert report["stopping"] == "gradient"


def test_band_layout_puts_a_free_vertex_without_couplings_first():
    problem = with_unreferenced_free_vertex()
    moved, normal_band = _band_layout(problem,
                                      np.array(problem.free_vertices))
    assert moved[0] == len(problem.initial_positions) - 1
    _, blocks, _ = _residuals(problem, problem.initial_positions)
    assert not normal_band(blocks)[:, :3].any()
    _, report = fit(problem)
    assert report["converged"]


def noisy_net_file(path, n_faces, seed, noise=5e-5):
    """A net on z = xy with uniform noise on the interior vertices, drawn
    as the ``fit`` benchmark draws it."""
    count, quads, positions = quadric_grid(n_faces, n_faces)
    interior = ~build(count, quads).boundary
    rng = np.random.default_rng(seed)
    positions[interior] += rng.uniform(-noise, noise,
                                       size=(np.count_nonzero(interior), 3))
    write_positions_mesh(path, positions, quads)
    return str(path)


@pytest.mark.parametrize("n_faces, seed", [(20, 0), (20, 1), (20, 2), (40, 0)])
def test_cli_fit_is_byte_identical_on_the_first_written_layout(
    tmp_path, capsys, monkeypatch, n_faces, seed,
):
    path = noisy_net_file(tmp_path / "noisy.obj", n_faces, seed)
    out = tmp_path / "fitted.obj"
    runs = []
    # `hypnet.fit` is also the name of the function the package exports
    module = importlib.import_module("hypnet.fit")
    for layout in (_band_layout, reference_band_layout):
        monkeypatch.setattr(module, "_band_layout", layout)
        code = main(["fit", path, "-o", str(out)])
        runs.append((code, capsys.readouterr().out, out.read_bytes()))
    assert runs[0][0] == 0
    assert runs[0] == runs[1]

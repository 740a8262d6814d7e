"""Tests for text mesh parsing, writing, welding, and grid orientation."""

import numpy as np
import pytest

import hypnet.cli
from hypnet.anet import validate_anet
from hypnet.cli import main
from hypnet.errors import NonQuadFace, ParseError
from hypnet.hyperboloid import hyperboloid_from_parameter
from hypnet.meshio import (
    oriented_grid,
    read_mesh,
    write_mesh,
    write_positions_mesh,
)
from hypnet.patch import bilinear_parameter, restrict_to_patch, sample
from hypnet.quadgraph import build
from hypnet.synthetic import quadric_grid

from oracles import reference_write_mesh


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


def saddle_strip_patches(n, m):
    """Oriented sample grids for two z = xy cells sharing the edge (1, 4)."""
    positions = np.array(
        [
            [0.0, 0.0, 0.0],
            [1.0, 0.0, 0.0],
            [2.0, 0.0, 0.0],
            [0.0, 1.0, 0.0],
            [1.0, 1.0, 1.0],
            [2.0, 1.0, 2.0],
        ]
    )
    a = validate_anet(build(6, [(0, 1, 4, 3), (1, 2, 5, 4)]), positions)
    grids = {}
    for f in (0, 1):
        frame = a.face_frame(f)
        lam = bilinear_parameter(frame, a.positions)
        patch = restrict_to_patch(
            hyperboloid_from_parameter(frame, lam), frame, a.positions
        )
        grid = oriented_grid(sample(patch, n, m), patch.corner_map, frame.corners)
        grids[f] = (grid, frame.corners)
    return grids


# --- reading ----------------------------------------------------------------------


def test_reads_vertices_and_quads(tmp_path):
    path = write(
        tmp_path / "m.obj",
        "v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nf 1 2 3 4\n",
    )
    positions, quads = read_mesh(path)
    assert positions.shape == (4, 3)
    assert quads == [(0, 1, 2, 3)]
    # a file without vertices still gives positions of shape (0, 3)
    positions, quads = read_mesh(write(tmp_path / "empty.obj", ""))
    assert positions.shape == (0, 3)
    assert quads == []


def test_skips_comments_blanks_and_other_records(tmp_path):
    path = write(
        tmp_path / "m.obj",
        "# header\n\nvn 0 0 1\nvt 0.5 0.5\ng patch\ns off\n"
        "v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nusemtl none\nf 1 2 3 4\n",
    )
    positions, quads = read_mesh(path)
    assert len(positions) == 4 and quads == [(0, 1, 2, 3)]


def test_accepts_slash_index_forms(tmp_path):
    path = write(
        tmp_path / "m.obj",
        "v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nf 1/1 2/2/2 3//3 4\n",
    )
    _, quads = read_mesh(path)
    assert quads == [(0, 1, 2, 3)]


def test_triangle_face_is_rejected_with_its_line_number(tmp_path):
    path = write(tmp_path / "m.obj", "v 0 0 0\nv 1 0 0\nv 1 1 0\nf 1 2 3\n")
    with pytest.raises(NonQuadFace, match="line 4"):
        read_mesh(path)


def test_pentagon_face_is_rejected(tmp_path):
    path = write(
        tmp_path / "m.obj",
        "v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nv 2 2 0\nf 1 2 3 4 5\n",
    )
    with pytest.raises(NonQuadFace):
        read_mesh(path)


@pytest.mark.parametrize(
    "body, line",
    [
        ("v 0 0\n", 1),
        ("v a b c\n", 1),
        ("v 0 0 0\nf 1 x 1 1\n", 2),
        ("v 0 0 0\nf 0 1 1 1\n", 2),
        ("v 0 0 0\nf -1 1 1 1\n", 2),
        ("v 0 0 0\nf 1 2 1 1\n", 2),
    ],
)
def test_malformed_records_raise_parse_errors_naming_the_line(
    tmp_path, body, line
):
    path = write(tmp_path / "m.obj", body)
    with pytest.raises(ParseError, match=f"line {line}"):
        read_mesh(path)


def test_non_quad_face_is_a_parse_error():
    assert issubclass(NonQuadFace, ParseError)


# --- writing and round trips ------------------------------------------------------


def test_round_trip_preserves_every_coordinate_bit(tmp_path):
    rng = np.random.default_rng(5)
    positions = rng.standard_normal((12, 3)) * np.pi
    quads = [(0, 1, 2, 3), (4, 5, 6, 7), (8, 9, 10, 11)]
    path = tmp_path / "m.obj"
    write_positions_mesh(path, positions, quads)
    back_positions, back_quads = read_mesh(path)
    assert np.array_equal(back_positions, positions)
    assert back_quads == quads


def per_value_mesh_text(positions, quads):
    """The mesh text formatted one ``"%.17g"`` value and one row at a time."""
    lines = [
        "v " + " ".join("%.17g" % float(c) for c in p)
        for p in np.asarray(positions, dtype=float)
    ]
    lines += ["f %d %d %d %d" % tuple(int(i) + 1 for i in q) for q in quads]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("count", [0, 1, 40])
def test_one_pass_formatting_matches_the_per_value_path(tmp_path, count):
    rng = np.random.default_rng(count)
    special = [-0.0, 0.0, 1e-300, -1e-300, 1e300, -1e300, 3.0, -7.0, 2.0**53,
               5e-324, 1.7976931348623157e308, 0.1, 1.0 / 3.0]
    scale = 10.0 ** rng.integers(-300, 300, (count, 3))
    positions = rng.standard_normal((count, 3)) * scale
    positions.flat[: min(len(special), positions.size)] = special[: positions.size]
    quads = [tuple(rng.integers(0, max(count, 1), 4)) for _ in range(count)]
    path = tmp_path / "m.obj"
    write_positions_mesh(path, positions, quads)
    assert path.read_bytes() == per_value_mesh_text(positions, quads).encode("utf-8")


def test_writing_is_byte_deterministic(tmp_path):
    rng = np.random.default_rng(6)
    positions = rng.standard_normal((8, 3))
    quads = [(0, 1, 2, 3), (4, 5, 6, 7)]
    first = tmp_path / "a.obj"
    second = tmp_path / "b.obj"
    write_positions_mesh(first, positions, quads)
    write_positions_mesh(second, positions, quads)
    assert first.read_bytes() == second.read_bytes()


# --- grid orientation -------------------------------------------------------------


def test_oriented_grid_fixes_flips_and_transposes():
    base = np.arange(12.0).reshape(2, 2, 3)
    corner_map = {(0, 0): 10, (0, 1): 11, (1, 0): 12, (1, 1): 13}
    same = oriented_grid(base, corner_map, (10, 11, 12, 13))
    assert np.array_equal(same, base)
    # rotate the roles one step around the quad: x <- old x1
    rotated = oriented_grid(base, corner_map, (11, 13, 10, 12))
    assert np.array_equal(rotated[0, 0], base[0, 1])
    assert np.array_equal(rotated[1, 0], base[0, 0])
    assert np.array_equal(rotated[0, 1], base[1, 1])
    # entering from the opposite corner reverses both axes
    reversed_both = oriented_grid(base, corner_map, (13, 12, 11, 10))
    assert np.array_equal(reversed_both, base[::-1, ::-1])


def test_oriented_grid_rejects_foreign_or_scrambled_corners():
    base = np.zeros((2, 2, 3))
    corner_map = {(0, 0): 10, (0, 1): 11, (1, 0): 12, (1, 1): 13}
    with pytest.raises(ValueError):
        oriented_grid(base, corner_map, (10, 11, 12, 99))
    with pytest.raises(ValueError):
        oriented_grid(base, corner_map, (10, 11, 13, 12))


# --- welding ----------------------------------------------------------------------


def grid_on_unit_square(n, m, origin=(0.0, 0.0)):
    t = np.linspace(0.0, 1.0, n)
    s = np.linspace(0.0, 1.0, m)
    grid = np.zeros((n, m, 3))
    grid[..., 0] = origin[0] + t[:, None]
    grid[..., 1] = origin[1] + s[None, :]
    return grid


def test_single_two_by_two_patch_writes_one_quad(tmp_path):
    path = tmp_path / "m.obj"
    write_mesh(path, {0: (grid_on_unit_square(2, 2), (0, 1, 2, 3))})
    positions, quads = read_mesh(path)
    assert len(positions) == 4 and len(quads) == 1


def test_single_three_by_three_patch_writes_four_quads(tmp_path):
    path = tmp_path / "m.obj"
    write_mesh(path, {0: (grid_on_unit_square(3, 3), (0, 1, 2, 3))})
    positions, quads = read_mesh(path)
    assert len(positions) == 9 and len(quads) == 4


def test_adjacent_patches_share_their_welded_edge_row(tmp_path):
    grids = {
        0: (grid_on_unit_square(3, 3), (0, 1, 2, 3)),
        1: (grid_on_unit_square(3, 3, origin=(1.0, 0.0)), (2, 3, 4, 5)),
    }
    path = tmp_path / "m.obj"
    write_mesh(path, grids)
    positions, quads = read_mesh(path)
    assert len(positions) == 15 and len(quads) == 8
    used = sorted({i for q in quads for i in q})
    assert used == list(range(15))


def test_weld_respects_edge_direction_between_the_faces(tmp_path):
    # the second face traverses the shared edge (2, 3) in the opposite
    # vertex order, so its boundary row must weld reversed
    first = grid_on_unit_square(3, 3)
    second = grid_on_unit_square(3, 3, origin=(1.0, 0.0))[:, ::-1]
    grids = {0: (first, (0, 1, 2, 3)), 1: (second, (3, 2, 5, 4))}
    path = tmp_path / "m.obj"
    write_mesh(path, grids)
    positions, quads = read_mesh(path)
    assert len(positions) == 15
    assert not np.array_equal(positions[: len(positions)], positions[::-1])
    spans = positions[:, 0]
    assert spans.min() == 0.0 and spans.max() == 2.0


def test_mismatched_sample_counts_do_not_weld_the_edge_interior(tmp_path):
    grids = {
        0: (grid_on_unit_square(3, 3), (0, 1, 2, 3)),
        1: (grid_on_unit_square(3, 4, origin=(1.0, 0.0)), (2, 3, 4, 5)),
    }
    path = tmp_path / "m.obj"
    write_mesh(path, grids)
    positions, quads = read_mesh(path)
    # only the two shared corners merge: 9 + 12 - 2
    assert len(positions) == 19 and len(quads) == 10


def test_weld_off_keeps_every_patch_vertex(tmp_path):
    grids = {
        0: (grid_on_unit_square(3, 3), (0, 1, 2, 3)),
        1: (grid_on_unit_square(3, 3, origin=(1.0, 0.0)), (2, 3, 4, 5)),
    }
    path = tmp_path / "m.obj"
    write_mesh(path, grids, weld=False)
    positions, quads = read_mesh(path)
    assert len(positions) == 18 and len(quads) == 8


def test_empty_grid_set_is_rejected(tmp_path):
    with pytest.raises(ValueError):
        write_mesh(tmp_path / "m.obj", {})


def test_welding_real_patches_merges_their_common_edge_exactly(tmp_path):
    grids = saddle_strip_patches(3, 3)
    path = tmp_path / "m.obj"
    write_mesh(path, grids)
    positions, quads = read_mesh(path)
    assert len(positions) == 15 and len(quads) == 8
    # every kept sample still lies on z = xy, so the welded replacements
    # agree with the samples they displaced
    assert np.max(np.abs(positions[:, 2] - positions[:, 0] * positions[:, 1])) < 1e-12
    for f, (grid, _) in grids.items():
        flat = grid.reshape(-1, 3)
        for p in flat:
            assert np.min(np.linalg.norm(positions - p, axis=1)) < 1e-12


def test_mesh_of_real_patches_is_byte_deterministic(tmp_path):
    first = tmp_path / "a.obj"
    second = tmp_path / "b.obj"
    write_mesh(first, saddle_strip_patches(4, 3))
    write_mesh(second, saddle_strip_patches(4, 3))
    assert first.read_bytes() == second.read_bytes()


def test_extending_a_5x5_saddle_net_welds_one_vertex_per_sample_point(tmp_path):
    count, quads, positions = quadric_grid(5, 5)
    net = tmp_path / "net.obj"
    write_positions_mesh(net, positions, quads)
    a = validate_anet(build(count, quads), positions)
    lam = bilinear_parameter(a.face_frame(0), a.positions)
    first, second = tmp_path / "a.obj", tmp_path / "b.obj"
    for out in (first, second):
        argv = ["extend", str(net), "-o", str(out), "--lambda", repr(lam)]
        assert main(argv) == 0
    assert first.read_bytes() == second.read_bytes()
    lines = first.read_text(encoding="utf-8").splitlines()
    # 9 x 9 samples per face: a welded 5x5 grid of faces is one
    # (5 * 8 + 1)^2 lattice of points
    assert sum(line.startswith("v ") for line in lines) == (5 * 8 + 1) ** 2
    assert sum(line.startswith("f ") for line in lines) == 25 * 8 * 8


# --- the closed-form weld against the dict weld ----------------------------------


def mixed_shape_grids():
    """A 3x3 grid next to a 3x4 one (corners merge, the edge does not),
    a 2x4 and a 3x2 grid welding sides of those two in reverse, and 2x2
    grids."""
    rng = np.random.default_rng(7)
    layout = {
        0: ((3, 3), (0, 1, 2, 3)),
        1: ((3, 4), (2, 3, 4, 5)),
        2: ((2, 2), (4, 5, 6, 7)),
        3: ((2, 4), (5, 4, 17, 16)),
        4: ((2, 2), (12, 14, 13, 15)),
        5: ((3, 2), (3, 13, 1, 12)),
    }
    return {
        f: (rng.standard_normal(shape + (3,)), corners)
        for f, (shape, corners) in layout.items()
    }


def large_id_grids():
    """Sparse face ids listed out of order and vertex ids up to 5e6; the
    faces share one edge each way round."""
    rng = np.random.default_rng(8)
    big = 10**6
    layout = {
        10: (big + 3, 42, 5 * big, 9),
        3: (big, 7, big + 3, 42),
        7: (9, 5 * big, 11, 2 * big),
    }
    return {
        f: (rng.standard_normal((4, 5, 3)), np.array(corners))
        for f, corners in layout.items()
    }


def cli_extend_grids(tmp_path):
    """The grids ``hypnet extend --samples 5 7`` hands to ``write_mesh`` on
    a 4x3 net on z = xy with relabelled, rotated, partly reversed and
    reordered faces."""
    count, quads, positions = quadric_grid(4, 3, spacing=0.3, origin=(-0.5, -0.2))
    label = [(7 * v + 2) % count for v in range(count)]
    faces = []
    for i, quad in enumerate(quads):
        quad = [label[v] for v in quad]
        quad = quad[i % 4:] + quad[:i % 4]
        faces.append(quad[::-1] if i % 3 == 0 else quad)
    faces = [faces[(5 * i) % len(faces)] for i in range(len(faces))]
    moved = np.empty_like(positions)
    moved[label] = positions
    path = tmp_path / "scrambled.obj"
    write_positions_mesh(path, moved, faces)
    a = validate_anet(build(count, faces), moved)
    lam = bilinear_parameter(a.face_frame(0), a.positions)
    captured = {}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(
            hypnet.cli, "write_mesh", lambda out, grids, weld: captured.update(grids)
        )
        argv = ["extend", str(path), "-o", str(tmp_path / "out.obj"),
                "--lambda", repr(lam), "--samples", "5", "7"]
        assert main(argv) == 0
    assert len(captured) == len(faces)
    return captured


WELD_CASES = {
    "single_2x2": lambda _: {0: (grid_on_unit_square(2, 2), (0, 1, 2, 3))},
    "single_3x3": lambda _: {0: (grid_on_unit_square(3, 3), (0, 1, 2, 3))},
    "adjacent": lambda _: {
        0: (grid_on_unit_square(3, 3), (0, 1, 2, 3)),
        1: (grid_on_unit_square(3, 3, origin=(1.0, 0.0)), (2, 3, 4, 5)),
    },
    "reversed_edge": lambda _: {
        0: (grid_on_unit_square(3, 3), (0, 1, 2, 3)),
        1: (grid_on_unit_square(3, 3, origin=(1.0, 0.0))[:, ::-1], (3, 2, 5, 4)),
    },
    "mismatched_counts": lambda _: {
        0: (grid_on_unit_square(3, 3), (0, 1, 2, 3)),
        1: (grid_on_unit_square(3, 4, origin=(1.0, 0.0)), (2, 3, 4, 5)),
    },
    "saddle_3x3": lambda _: saddle_strip_patches(3, 3),
    "saddle_4x3": lambda _: saddle_strip_patches(4, 3),
    "mixed_shapes": lambda _: mixed_shape_grids(),
    "large_ids": lambda _: large_id_grids(),
    "cli_extend_5x7": cli_extend_grids,
}


@pytest.mark.parametrize("weld", [True, False])
@pytest.mark.parametrize("case", sorted(WELD_CASES))
def test_write_mesh_writes_the_bytes_of_the_dict_weld(tmp_path, case, weld):
    grids = WELD_CASES[case](tmp_path)
    ours, theirs = tmp_path / "ours.obj", tmp_path / "theirs.obj"
    write_mesh(ours, grids, weld=weld)
    reference_write_mesh(theirs, grids, weld=weld)
    assert ours.read_bytes() == theirs.read_bytes()

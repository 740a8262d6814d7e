"""Tests for text mesh parsing, writing, welding, and grid orientation."""

import numpy as np
import pytest

from hypnet.anet import validate_anet
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

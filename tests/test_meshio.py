"""Tests for text mesh parsing, writing, welding, and grid orientation."""

import itertools
import json
import os
import subprocess
import sys
import threading
import tracemalloc
from contextlib import contextmanager, suppress
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hypnet
import hypnet.cli
import hypnet.meshio
import hypnet.meshtext
from hypnet.anet import validate_anet
from hypnet.cli import main
from hypnet.errors import NonQuadFace, ParseError
from hypnet.hyperboloid import propagate_all
from hypnet.meshio import (
    CHUNK,
    CORNER_KEYS,
    oriented_grid,
    oriented_grids,
    read_mesh,
    write_mesh,
    write_positions_mesh,
    write_sample_mesh,
)
from hypnet.patch import (
    bilinear_parameter,
    restrict_all,
    restrict_to_patch,
    sample,
    sample_all,
)
from hypnet.quadgraph import build
from hypnet.synthetic import quadric_grid

from oracles import (
    member,
    reference_oriented_grid,
    reference_read_mesh,
    reference_write_mesh,
    reference_write_positions_mesh,
)


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


def as_quads(rows):
    """Quad rows as the ``(F, 4)`` int64 array that :func:`read_mesh` returns."""
    return np.array(rows, dtype=np.int64).reshape(-1, 4)


def assert_quads(quads, rows):
    """``quads`` is exactly the ``(F, 4)`` int64 array of ``rows``."""
    expected = as_quads(rows)
    assert quads.dtype == expected.dtype and quads.shape == expected.shape
    assert np.array_equal(quads, expected)


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
            member(frame, lam, a.positions), frame, a.positions
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
    assert_quads(quads, [(0, 1, 2, 3)])
    # a file without vertices still gives positions of shape (0, 3), and
    # one without faces quads of shape (0, 4)
    positions, quads = read_mesh(write(tmp_path / "empty.obj", ""))
    assert positions.shape == (0, 3)
    assert_quads(quads, [])


def test_skips_comments_blanks_and_other_records(tmp_path):
    path = write(
        tmp_path / "m.obj",
        "# header\n\nvn 0 0 1\nvt 0.5 0.5\ng patch\ns off\n"
        "v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nusemtl none\nf 1 2 3 4\n",
    )
    positions, quads = read_mesh(path)
    assert len(positions) == 4
    assert_quads(quads, [(0, 1, 2, 3)])


def test_accepts_slash_index_forms(tmp_path):
    path = write(
        tmp_path / "m.obj",
        "v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nf 1/1 2/2/2 3//3 4\n",
    )
    _, quads = read_mesh(path)
    assert_quads(quads, [(0, 1, 2, 3)])


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


def test_a_byte_order_mark_does_not_hide_the_first_record(tmp_path):
    path = tmp_path / "bom.obj"
    path.write_bytes(b"\xef\xbb\xbfv 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nf 1 2 3 4\n")
    positions, quads = read_mesh(path)
    assert positions.tolist() == [[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]]
    assert_quads(quads, [(0, 1, 2, 3)])
    # with a spare vertex the first record would shift every index silently
    path.write_bytes(b"\xef\xbb\xbfv 9 9 9\nv 0 0 0\nv 1 0 0\nv 1 1 0\nf 1 2 3 4\n")
    positions, quads = read_mesh(path)
    assert positions[0].tolist() == [9, 9, 9]
    assert_quads(quads, [(0, 1, 2, 3)])


# --- reading in chunks, against the one-line-at-a-time reference -----------------


def read_outcome(reader, path):
    """The shapes, dtypes and bytes of the positions and quads a reader
    returns, the reference's quad tuples as the ``(F, 4)`` int64 array
    they list; or the type and message of the error it raises, the type
    alone for a file that is not UTF-8."""
    try:
        positions, quads = reader(path)
    except ParseError as exc:
        return type(exc), str(exc)
    except UnicodeDecodeError as exc:
        return (type(exc),)
    if reader is reference_read_mesh:
        quads = as_quads(quads)
    return tuple((a.shape, a.dtype, a.tobytes()) for a in (positions, quads))


def assert_reads_like_the_reference(path):
    ours = read_outcome(read_mesh, path)
    assert ours == read_outcome(reference_read_mesh, path)
    return ours


QUAD = "v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nf 1 2 3 4\n"

READ_CORPUS = {
    "plain": QUAD,
    "crlf": QUAD.replace("\n", "\r\n"),
    "cr": QUAD.replace("\n", "\r"),
    "tabs_and_padding": "\tv\t0 0  0 \n  v 1\t0 0\nv 1 1 0\t\nv 0 1 0   \n f  1 2\t3 4 \n",
    "other_whitespace": "v\x0c0\x0b0 0\nv 1 0 0\nv 1 1 0\x1c\nv 0 1 0\nf 1 2 3 4\n",
    "no_final_newline": QUAD[:-1],
    "comments_and_blanks": "# a quad\n\n" + QUAD + "\n   \n# end\n",
    "other_records": "vt 0 0\nvn 0 0 1\n" + QUAD + "l 1 2\ng side\n",
    "slash_faces": QUAD.replace("f 1 2 3 4", "f 1/1/1 2//2 3/3 4"),
    "slash_faces_only": QUAD.replace("f 1 2 3 4", "f 1/1/1 2/2/2 3/3/3 4/4/4"),
    "double_slash_faces": QUAD.replace("f 1 2 3 4", "f 1//1 2//2 3//3 4//4"),
    "slash_tails_not_read": QUAD.replace("f 1 2 3 4", "f 1/x 2/-1/ 3// 4/"),
    "slash_bad_head": QUAD.replace("f 1 2 3 4", "f 1/1 x/2 3 4"),
    "slash_empty_head": QUAD.replace("f 1 2 3 4", "f /1 2 3 4"),
    "slash_head_zero": QUAD.replace("f 1 2 3 4", "f 0/1 1 2 3"),
    "slash_out_of_range": QUAD.replace("f 1 2 3 4", "f 1/1 2 3 5/5"),
    "underscores": QUAD.replace("v 1 0 0", "v 1_0 0 0").replace("f 1 2 3 4", "f 1 2 3 0_4"),
    "arabic_indic_digits": QUAD.replace("v 1 1 0", "v ١ ١ 0").replace(
        "f 1 2 3 4", "f 1 2 3 ٤"
    ),
    "inf_and_nan": QUAD.replace("v 1 1 0", "v inf -inf nan").replace("v 0 1 0", "v -nan 1e400 -0"),
    "index_beyond_int64": QUAD.replace("f 1 2 3 4", "f 1 2 3 99999999999999999999"),
    "index_zero": QUAD.replace("f 1 2 3 4", "f 0 1 2 3"),
    "index_minus_one": QUAD.replace("f 1 2 3 4", "f -1 1 2 3"),
    "forward_reference": "f 1 2 3 4\n" + QUAD[:-10],
    "out_of_range": QUAD.replace("f 1 2 3 4", "f 1 2 3 5"),
    "triangle": QUAD.replace("f 1 2 3 4", "f 1 2 3"),
    "pentagon": "v 2 2 0\n" + QUAD.replace("f 1 2 3 4", "f 1 2 3 4 5"),
    "empty": "",
    "bad_coordinate": QUAD.replace("v 1 1 0", "v 1 x 0"),
    "bad_index": QUAD.replace("f 1 2 3 4", "f 1 2 x 4"),
    # three and five tokens: the right total for two vertex records
    "two_then_four_coordinates": "v 1 2\nv 3 4 5 6\n" + QUAD,
    "four_then_two_coordinates": "v 3 4 5 6\nv 1 2\n" + QUAD,
    "a_fourth_coordinate": QUAD.replace("v 1 0 0", "v 1 0 0 1"),
    "two_records_on_one_line": "v 0 0 0 v 1 0 0\n\nv 1 1 0\nv 0 1 0\nf 1 2 3 4\n",
    "faces_between_vertices": "v 0 0 0\nv 1 0 0\nf 1 2 3 4\nv 1 1 0\nv 0 1 0\n",
    "bare_records": "v\nf\n",
    "byte_order_mark": "\ufeff" + QUAD,
    # whitespace beyond ASCII, inside records
    "next_line_inside_records": QUAD.replace("v 1 0 0", "v 1\x850 0").replace(
        "f 1 2 3 4", "f 1 2\x853 4"
    ),
    "no_break_space_inside_records": QUAD.replace("v 1 1 0", "v\xa01 1 0").replace(
        "f 1 2 3 4", "f 1 2 3\xa04"
    ),
    "line_separator_inside_records": QUAD.replace("v 0 1 0", "v 0\u20281\u20280").replace(
        "f 1 2 3 4", "f\u20281 2 3 4"
    ),
    # a face tail that text splits into a fifth index
    "no_break_space_in_a_face_tail": "v 2 2 0\n" + QUAD.replace("f 1 2 3 4", "f 1/\xa02 3 4 5"),
    "file_separator_in_a_face_tail": "v 2 2 0\n" + QUAD.replace("f 1 2 3 4", "f 1/\x1c2 3 4 5"),
    # a carriage return ends a line, even inside a record
    "cr_inside_a_record": QUAD.replace("v 1 1 0", "v 1 1\r0"),
    # bytes that are not UTF-8
    "invalid_utf8_in_a_comment": b"# caf\xe9\n" + QUAD.encode(),
    "invalid_utf8_in_a_coordinate": QUAD.encode().replace(b"v 1 1 0", b"v 1 \xff 0"),
    "a_truncated_byte_order_mark": b"\xef\xbb" + QUAD.encode(),
    # where numpy's text reader and str.split, float and int might differ
    "a_comment_after_a_vertex": QUAD.replace("v 1 0 0", "v 1 0 0 # c"),
    "a_comment_after_a_face": QUAD.replace("f 1 2 3 4", "f 1 2 3 4 #"),
    "a_quoted_coordinate": QUAD.replace("v 1 0 0", 'v "1" 0 0'),
    "signs_and_leading_zeros": QUAD.replace("v 1 1 0", "v +1 -0 .5").replace(
        "f 1 2 3 4", "f +1 02 003 4"
    ),
    "a_comma_decimal": QUAD.replace("v 1 0 0", "v 1,5 0 0"),
    "an_exponent_index": QUAD.replace("f 1 2 3 4", "f 1e0 2 3 4"),
    "a_fractional_index": QUAD.replace("f 1 2 3 4", "f 1.0 2 3 4"),
    "coordinates_past_the_float_range": QUAD.replace("v 1 1 0", "v 1e500 -1e500 1e-400"),
    "a_hexadecimal_coordinate": QUAD.replace("v 0 1 0", "v 0x1p3 2 3"),
    "five_ids_on_every_face": "v 2 2 0\n" + QUAD.replace("f 1 2 3 4", "f 1 2 3 4 5\nf 5 4 3 2 1"),
    "four_coordinates_on_every_vertex": QUAD.replace(" 0\n", " 0 1\n"),
    # a token with no head before its slash is a bad index, not a tail
    "a_fifth_token_that_is_a_slash_tail": "v 2 2 0\n" + QUAD.replace("f 1 2 3 4", "f 1 2 3 4 /5"),
    "a_fifth_token_that_is_a_slash": QUAD.replace("f 1 2 3 4", "f 1 2 3 4 /"),
    "a_headless_first_of_five_ids": "v 2 2 0\n" + QUAD.replace("f 1 2 3 4", "f /1 2 3 4 5"),
    "a_fifth_token_of_two_slashes": "v 2 2 0\n" + QUAD.replace("f 1 2 3 4", "f 1 2 3 4 //5"),
}


@pytest.mark.parametrize("name", sorted(READ_CORPUS))
def test_reading_matches_the_reference_on_odd_files(tmp_path, name):
    path = tmp_path / "m.obj"
    data = READ_CORPUS[name]
    path.write_bytes(data if isinstance(data, bytes) else data.encode("utf-8"))
    assert_reads_like_the_reference(path)


def plain_lines(count):
    """``count`` plain records: vertices, then one face per four of them."""
    faces = count // 5
    vertices = count - faces
    lines = [f"v {k} {k / 7!r} {-k * 0.1!r}" for k in range(vertices)]
    lines += [f"f {k + 1} {k + 2} {k + 3} {k + 4}" for k in range(faces)]
    return lines


@pytest.mark.parametrize("count", [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1])
def test_files_around_a_chunk_read_like_the_reference(tmp_path, count):
    path = tmp_path / "m.obj"
    path.write_text("".join(line + "\n" for line in plain_lines(count)), encoding="utf-8")
    positions, quads = assert_reads_like_the_reference(path)
    assert positions[0] == (count - count // 5, 3) and quads[0] == (count // 5, 4)


@pytest.mark.parametrize("line", [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK])
@pytest.mark.parametrize(
    "bad", ["v 0 0", "f 1 2 3", "f 0 1 2 3", "# c", "v 1 2 x", "f 1/1 2/2 x/3 4", "f 1 /2 3 4"]
)
def test_an_odd_line_at_a_chunk_edge_reads_like_the_reference(tmp_path, line, bad):
    lines = plain_lines(2 * CHUNK + 1)
    lines[line] = bad
    path = tmp_path / "m.obj"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    outcome = assert_reads_like_the_reference(path)
    if not bad.startswith("#"):
        assert outcome[1].startswith(f"line {line + 1}:")


@pytest.mark.parametrize("ends", ["\r", "\r\n", "\r then \n"])
def test_line_numbers_past_one_chunk_count_carriage_returns(tmp_path, ends):
    # universal newlines end a line at each "\r" and "\r\n", chunk after chunk
    lines = plain_lines(2 * CHUNK + 1)
    lines[CHUNK + 5] = "v 1 2"
    text = "\r".join(lines) + "\r"
    if ends == "\r\n":
        text = text.replace("\r", "\r\n")
    elif ends == "\r then \n":
        text = "\r".join(lines[:CHUNK]) + "\r" + "\n".join(lines[CHUNK:]) + "\n"
    path = tmp_path / "m.obj"
    path.write_bytes(text.encode("utf-8"))
    outcome = assert_reads_like_the_reference(path)
    assert outcome == (ParseError, f"line {CHUNK + 6}: vertex needs three coordinates")


@pytest.mark.parametrize("line", [CHUNK + 3, 2 * CHUNK])
@pytest.mark.parametrize("bad", [b"# caf\xe9", b"v 1 \xff 0"])
def test_a_byte_that_is_not_utf8_past_one_chunk_raises_like_the_reference(
    tmp_path, line, bad
):
    lines = [row.encode() for row in plain_lines(2 * CHUNK + 1)]
    lines[line] = bad
    path = tmp_path / "m.obj"
    path.write_bytes(b"\n".join(lines) + b"\n")
    assert assert_reads_like_the_reference(path) == (UnicodeDecodeError,)


def seventeen_digit_lines(count):
    """``count`` vertex records of 17-digit coordinates, as written."""
    return [b"v %.17g %.17g %.17g" % (k / 7, -k / 3, k / 11) for k in range(count)]


@pytest.mark.parametrize("end", [b"\n", b"\r\n", b"\r"])
@pytest.mark.parametrize("record, byte", [(10, 900), (10, 40), (900, 10), (10, 10)])
def test_a_record_before_the_block_of_a_byte_that_is_not_utf8_raises_first(
    tmp_path, end, record, byte
):
    # a text-mode reader decodes 8 kB blocks and hands their lines over
    # before it decodes the next, so the malformed record at line 11 comes
    # first unless the byte that is not UTF-8 lies in the same block
    lines = seventeen_digit_lines(1000)
    lines[record] = b"v 1 2"
    lines[byte] += b" \xff"
    assert len(end.join(lines[:40])) < 8192 < len(end.join(lines[:900]))
    path = tmp_path / "m.obj"
    path.write_bytes(end.join(lines) + end)
    outcome = assert_reads_like_the_reference(path)
    if (record, byte) == (10, 900):
        assert outcome == (ParseError, "line 11: vertex needs three coordinates")
    else:
        assert outcome == (UnicodeDecodeError,)


@pytest.mark.parametrize("end", [b"\n", b"\r"])
@pytest.mark.parametrize("chunk", [1, 3, CHUNK])
@pytest.mark.parametrize("shift", [-2, -1, 0, 1, 2])
def test_faults_around_a_text_block_edge_fail_like_the_reference(tmp_path, end, chunk, shift):
    # the record ends just before, at or just after the first 8 kB block
    # edge, and the byte that is not UTF-8 lies two lines on, past the
    # record's chunk when chunks are short
    lines = seventeen_digit_lines(400)
    record = next(k for k in range(len(lines)) if len(end.join(lines[:k + 1])) >= 8192)
    record += shift
    lines[record] = b"v 1 2"
    lines[record + 2] += b" \xe9"
    path = tmp_path / "m.obj"
    path.write_bytes(end.join(lines) + end)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(hypnet.meshio, "CHUNK", chunk)
        assert_reads_like_the_reference(path)


READ_LINES = [
    "v 0 0 0", "v 1 2 3", "v 1.5 -2e-3 inf", "v 1_0 ١ nan", "v 1 2", "v 1 2 3 4",
    "v x 0 0", "v", "f 1 2 3 4", "f 4 3 2 1", "f 1 2 3", "f 1 2 3 4 5", "f 1/1 2 3 4",
    "f 0 1 2 3", "f 1 2 3 99999999999999999999", "f 1 2 3 x", "f", "# c", "", "  ",
    "vt 0 0", "\tv 0\t0 0 ", "v 0 0 0 v 1 0 0", "f 2 3 4 5 ",
    "f 1/2/3 2//4 3/1 4", "f 2/2/2 3/3/3 4/4/4 1/1/1", "f /1 2 3 4", "f 1/x 2 3 4/",
    "f 0/1 1 2 3", "v 1\x850 0", "f 1 2\xa03 4", "v 0\u20281 0", "f 1/\xa02 3 4 5",
    "f 1/\x1c2 3 4 5", "v 1 2\x1c3", "f 1/\u2028 2 3 4", "v 1 0 0 # c", "f 1 2 3 4 #",
    'v "1" 0 0', "v +1 -0 .5", "f +1 02 003 4", "v 1,5 0 0", "f 1e0 2 3 4", "f 1.0 2 3 4",
    "v 1e500 -1e500 1e-400", "v 0x1p3 2 3", "v 0 0 0 1", "f 1 2 3 4 /5", "f 1 2 3 4 /",
    "f /1 2 3 4 5", "f 1 2 3 4 //5",
]


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.sampled_from(READ_LINES), max_size=14),
    st.sampled_from(["\n", "\r\n", "\r"]),
    st.booleans(),
    st.integers(1, 5),
)
def test_chunked_reading_matches_the_reference(tmp_path_factory, lines, end, bom, chunk):
    path = tmp_path_factory.mktemp("read") / "m.obj"
    path.write_bytes((("\ufeff" if bom else "") + end.join(lines)).encode("utf-8"))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(hypnet.meshio, "CHUNK", chunk)
        assert_reads_like_the_reference(path)


def forbid_the_per_line_loop(monkeypatch):
    """Make :func:`read_mesh` raise on any chunk it does not read in bulk."""

    def per_line(*args):
        raise AssertionError("a chunk went through the per-line loop")

    monkeypatch.setattr(hypnet.meshio, "_read_lines", per_line)


def assert_wide_grid_reads_in_bulk_alone(tmp_path, monkeypatch, end):
    _, quads, positions = quadric_grid(80, 80, spacing=0.03, origin=(-1.7, -1.2))
    path = tmp_path / "wide.obj"
    write_positions_mesh(path, positions, quads)
    path.write_bytes(path.read_bytes().replace(b"\n", end))

    forbid_the_per_line_loop(monkeypatch)
    back_positions, back_quads = read_mesh(path)
    assert back_positions.tobytes() == positions.tobytes()
    assert_quads(back_quads, quads)


def test_a_wide_written_grid_reads_in_bulk_alone(tmp_path, monkeypatch):
    assert_wide_grid_reads_in_bulk_alone(tmp_path, monkeypatch, b"\n")


@pytest.mark.parametrize("end", [b"\r\n", b"\r"])
def test_carriage_return_line_ends_read_in_bulk_alone(tmp_path, monkeypatch, end):
    assert_wide_grid_reads_in_bulk_alone(tmp_path, monkeypatch, end)


@pytest.mark.parametrize("form", ["{0}/{0}/{0}", "{0}//{0}", "{0}/{0}"])
def test_slash_faces_read_in_bulk_alone(tmp_path, monkeypatch, form):
    _, quads, positions = quadric_grid(40, 30, spacing=0.03, origin=(-1.7, -1.2))
    path = tmp_path / "slash.obj"
    write_positions_mesh(path, positions, quads)
    lines = path.read_text(encoding="utf-8").splitlines()
    for k, line in enumerate(lines):
        if line.startswith("f "):
            lines[k] = "f " + " ".join(form.format(i) for i in line.split()[1:])
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert_reads_like_the_reference(path)

    forbid_the_per_line_loop(monkeypatch)
    back_positions, back_quads = read_mesh(path)
    assert back_positions.tobytes() == positions.tobytes()
    assert_quads(back_quads, quads)


def test_reading_streams_in_chunks(tmp_path):
    assert_reads_in_bounded_memory(tmp_path, b"\n")


@pytest.mark.parametrize("end", [b"\r\n", b"\r"])
def test_carriage_return_line_ends_stream_in_chunks(tmp_path, end):
    # universal newlines split these files into lines as they read them
    assert_reads_in_bounded_memory(tmp_path, end)


def assert_reads_in_bounded_memory(tmp_path, end):
    _, quads, positions = quadric_grid(80, 80, spacing=0.03, origin=(-1.7, -1.2))
    path = tmp_path / "wide.obj"
    write_positions_mesh(path, positions, quads)
    path.write_bytes(path.read_bytes().replace(b"\n", end))
    read_mesh(path)
    transient = []
    for reader in (read_mesh, reference_read_mesh):
        tracemalloc.start()
        try:
            result = reader(path)
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        transient.append(peak - current)
        del result
    size = path.stat().st_size
    # the reference holds every coordinate as a Python float until the end;
    # the chunked reader holds one chunk's tokens and its result's arrays
    assert transient[1] > 2 * size
    assert transient[0] < 1.25 * size


# --- reading from a pipe ---------------------------------------------------------


needs_fifo = pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")


@contextmanager
def piped(tmp_path, data):
    """A named pipe that a thread writes the bytes ``data`` into once a
    reader opens it."""
    fifo = tmp_path / "net.fifo"
    os.mkfifo(fifo)

    def feed():
        with suppress(BrokenPipeError), open(fifo, "wb") as pipe:
            pipe.write(data)

    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    try:
        yield fifo
    finally:
        writer.join(timeout=60)


@needs_fifo
def test_a_wide_grid_reads_from_a_pipe_in_bulk_alone(tmp_path, monkeypatch):
    _, quads, positions = quadric_grid(80, 80, spacing=0.03, origin=(-1.7, -1.2))
    path = tmp_path / "wide.obj"
    write_positions_mesh(path, positions, quads)
    direct = read_mesh(path)

    forbid_the_per_line_loop(monkeypatch)
    with piped(tmp_path, path.read_bytes()) as fifo:
        back_positions, back_quads = read_mesh(fifo)
    assert back_positions.tobytes() == direct[0].tobytes() == positions.tobytes()
    assert_quads(back_quads, direct[1])


@needs_fifo
def test_a_pipe_raises_a_record_before_a_block_that_is_not_utf8_like_the_reference(
    tmp_path,
):
    lines = seventeen_digit_lines(1000)
    lines[10] = b"v 1 2"
    lines[900] += b" \xff"
    path = tmp_path / "m.obj"
    path.write_bytes(b"\n".join(lines) + b"\n")
    expected = read_outcome(reference_read_mesh, path)
    assert expected == (ParseError, "line 11: vertex needs three coordinates")
    with piped(tmp_path, path.read_bytes()) as fifo:
        assert read_outcome(read_mesh, fifo) == expected


@needs_fifo
def test_check_reads_a_net_from_a_pipe(tmp_path, capsys):
    count, quads, positions = quadric_grid(6, 5)
    path = tmp_path / "net.obj"
    write_positions_mesh(path, positions, quads)
    assert main(["check", str(path)]) == 0
    expected = json.loads(capsys.readouterr().out)
    with piped(tmp_path, path.read_bytes()) as fifo:
        assert main(["check", str(fifo)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["diagnostics"]["valid"] is True
    assert report["diagnostics"] == expected["diagnostics"]
    assert report["violations"] == []


# --- writing and round trips ------------------------------------------------------


def test_round_trip_preserves_every_coordinate_bit(tmp_path):
    rng = np.random.default_rng(5)
    positions = rng.standard_normal((12, 3)) * np.pi
    quads = [(0, 1, 2, 3), (4, 5, 6, 7), (8, 9, 10, 11)]
    path = tmp_path / "m.obj"
    write_positions_mesh(path, positions, quads)
    back_positions, back_quads = read_mesh(path)
    assert np.array_equal(back_positions, positions)
    assert_quads(back_quads, quads)


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


# --- the array-pass writer against the one-pass % writer --------------------------


def assert_writes_like_the_reference(directory, positions, quads=()):
    ours, theirs = directory / "ours.obj", directory / "theirs.obj"
    write_positions_mesh(ours, positions, quads)
    reference_write_positions_mesh(theirs, positions, quads)
    assert ours.read_bytes() == theirs.read_bytes()


def rows_of(parts):
    """The values of ``parts`` in order, padded with zeros to whole
    ``(r, 3)`` rows."""
    values = np.concatenate([np.ravel(part) for part in parts]).astype(float)
    return np.concatenate([values, np.zeros(-len(values) % 3)]).reshape(-1, 3)


def ulp_neighbours(values, steps=2):
    """``values`` and their neighbours up to ``steps`` ulps either way."""
    values = np.asarray(values, dtype=float)
    out = [values]
    for direction in (-np.inf, np.inf):
        near = values
        for _ in range(steps):
            near = np.nextafter(near, direction)
            out.append(near)
    return np.concatenate(out)


def raw_bit_pattern_rows():
    """The finite ones of 30,000 raw float64 bit patterns, a quarter of
    them subnormal, then both zeros and both smallest subnormals, as
    ``(r, 3)`` rows."""
    rng = np.random.default_rng(14)
    bits = rng.integers(0, 2**64, 30000, dtype=np.uint64, endpoint=False)
    # a quarter of them subnormal: exponent field 0, either sign
    bits[::4] &= np.uint64(2**63 + 2**52 - 1)
    values = bits.view(np.float64)
    values = np.concatenate([values[np.isfinite(values)], [0.0, -0.0, 5e-324, -5e-324]])
    return rows_of([values])


def test_raw_bit_patterns_write_like_the_reference(tmp_path):
    assert_writes_like_the_reference(tmp_path, raw_bit_pattern_rows())


def test_raw_bit_patterns_read_back_in_bulk_bit_for_bit(tmp_path, monkeypatch):
    rows = raw_bit_pattern_rows()
    path = tmp_path / "bits.obj"
    write_positions_mesh(path, rows, ())
    forbid_the_per_line_loop(monkeypatch)
    positions, quads = read_mesh(path)
    assert positions.tobytes() == rows.tobytes()
    assert quads.shape == (0, 4)


def test_powers_of_ten_and_their_ulp_neighbours_write_like_the_reference(tmp_path):
    powers = np.array([float(f"1e{k}") for k in range(-20, 21)])
    values = ulp_neighbours(np.concatenate([powers, 10.0 ** np.arange(-20, 21)]))
    assert_writes_like_the_reference(tmp_path, rows_of([values, -values]))


def test_range_edges_and_exact_ties_write_like_the_reference(tmp_path):
    edges = ulp_neighbours([1e-11, 1e17, 1e-10, 1e16, 2.0**52, 2.0**53], steps=3)
    # halfway between two 17-digit decimals, rounding up and down to even,
    # and 2**52 + 1/2
    ties = [1234567890123456.75, 1234567890123456.25, 4503599627370496.5]
    values = np.concatenate([edges, ties])
    assert_writes_like_the_reference(tmp_path, rows_of([values, -values]))


def test_integers_and_dyadic_rationals_write_like_the_reference(tmp_path):
    rng = np.random.default_rng(15)
    integers = np.concatenate([
        rng.integers(-10**6, 10**6, 3000),
        rng.integers(-2**53, 2**53, 3000),
        rng.integers(2**52, 10**17, 3000),
    ]).astype(float)
    dyadic = rng.integers(-2**40, 2**40, 6000) / 2.0 ** rng.integers(0, 70, 6000)
    assert_writes_like_the_reference(tmp_path, rows_of([integers, dyadic]))


@pytest.mark.parametrize("count", [0, 1, CHUNK - 1, CHUNK, CHUNK + 1])
def test_chunk_boundaries_write_like_the_reference(tmp_path, count):
    rng = np.random.default_rng(count)
    scale = 10.0 ** rng.integers(-12, 17, (count, 3))
    positions = rng.standard_normal((count, 3)) * scale
    quads = rng.integers(0, 10**12, (count, 4))
    quads[::7, 0] = 10**12 - 1
    quads[1::7, 1] = 0
    assert_writes_like_the_reference(tmp_path, positions, quads)
    assert_writes_like_the_reference(tmp_path, np.zeros((0, 3)), quads)


def test_face_ids_outside_the_fast_range_write_like_the_reference(tmp_path):
    quads = [(-2, -1, 0, 1), (10**16 - 2, 10**16 - 1, 10**16, 2**62)]
    assert_writes_like_the_reference(tmp_path, np.ones((2, 3)), quads)


def test_face_ids_at_every_digit_count_boundary_write_like_the_reference(tmp_path):
    n = 10**6 + 1
    # 1-based 1, 9, 10, 99, 100, ..., 999999, 1000000 and n, each in
    # every column, so each is also a row's last id
    ids = np.array([1] + [10**d + s for d in range(1, 7) for s in (-1, 0)] + [n])
    quads = np.stack([np.roll(ids, k) for k in range(4)], axis=1) - 1
    assert_writes_like_the_reference(tmp_path, np.zeros((n, 3)), quads)


def test_face_ids_outside_the_vertex_range_fall_back_within_a_chunk(tmp_path):
    rng = np.random.default_rng(16)
    n = 50
    quads = rng.integers(0, n, (300, 4))
    # 0-based ids of the 1-based 0, n + 1, negative and >= 10**16, in
    # the first and last rows, a run of rows and every column
    outside = [-1, n, -2, -(2**62), 10**16 - 1, 2**62]
    for row, column, index in [(0, 0, -1), (1, 3, n), (299, 3, -2), (298, 1, 10**16 - 1)]:
        quads[row, column] = index
    quads[100:106, 2] = outside
    quads[200, :] = outside[:4]
    assert len(quads) < CHUNK
    assert_writes_like_the_reference(tmp_path, rng.standard_normal((n, 3)), quads)


@pytest.mark.parametrize("count", [0, 1, CHUNK - 1, CHUNK, CHUNK + 1])
def test_face_chunk_boundaries_write_like_the_reference(tmp_path, count):
    rng = np.random.default_rng(count)
    n = 3 * count + 1
    positions = rng.standard_normal((n, 3))
    quads = rng.integers(0, n, (count, 4))
    # a row past the vertices on either side of each chunk edge
    quads[CHUNK - 1:CHUNK + 1, 3] = n
    assert_writes_like_the_reference(tmp_path, positions, quads)
    # no vertex: every face row falls back
    assert_writes_like_the_reference(tmp_path, np.zeros((0, 3)), quads)
    # no face
    assert_writes_like_the_reference(tmp_path, positions, quads[:0])


def id_text(ids, width):
    """The id words of ``ids`` spelled out: each id right-aligned in
    ``width - 1`` NUL-padded bytes, then a space."""
    return b"".join(str(i).encode().rjust(width - 1, b"\0") + b" " for i in ids)


@pytest.mark.parametrize("ids, width", [
    ([1, 9, 10, 99, 100, 10**6 - 1, 10**6, 10**7 - 1], 8),
    ([1, 10**7 - 1, 10**7, 12345678, 10**15 - 1], 16),
    ([1, 10**7, 10**15, 10**18, 2**63 - 1], 24),
])
def test_id_words_widen_by_a_word_for_each_eight_digits(ids, width):
    words = hypnet.meshtext.id_words(np.array(ids))
    assert words.dtype == np.uint64 and words.shape == (len(ids), width // 8)
    assert words.tobytes() == id_text(ids, width)


def test_face_rows_take_wide_id_words_like_percent():
    # the words of ids 1 .. 5 at the width of ids past 10**7
    words = hypnet.meshtext.id_words(np.r_[1:6, 10**7])[:5]
    assert words.shape == (5, 2)
    ids = np.array([(1, 2, 3, 4), (5, 4, 3, 2), (0, 1, 2, 3), (5, 5, 5, 6), (2, 1, 5, 3)])
    expected = (b"f %d %d %d %d\n" * len(ids)) % tuple(ids.ravel().tolist())
    assert hypnet.meshtext.face_rows(ids, words) == expected


finite = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.tuples(finite, finite, finite), max_size=20),
    st.lists(st.tuples(*[st.integers(0, 10**15)] * 4), max_size=5),
)
def test_finite_rows_write_like_the_reference(tmp_path_factory, rows, quads):
    directory = tmp_path_factory.mktemp("rows")
    assert_writes_like_the_reference(directory, np.array(rows).reshape(-1, 3), quads)


def saddle_grid_mesh(n):
    """The vertices and quads of an ``n`` x ``n`` grid on z = x y."""
    t = np.linspace(-1.3, 0.7, n + 1)
    x, y = np.meshgrid(t, t + 0.4, indexing="ij")
    positions = np.stack([x, y, x * y], axis=-1).reshape(-1, 3)
    v = np.arange(n * (n + 1)).reshape(n, n + 1)[:, :n].ravel()
    quads = np.stack([v, v + n + 1, v + n + 2, v + 1], axis=1)
    return positions, quads


def test_writing_streams_in_chunks(tmp_path):
    positions, quads = saddle_grid_mesh(160)
    assert len(positions) == 25921
    write_positions_mesh(tmp_path / "warm.obj", positions[:1], quads[:0])
    peaks = []
    for writer, name in ((write_positions_mesh, "ours.obj"),
                         (reference_write_positions_mesh, "theirs.obj")):
        tracemalloc.start()
        try:
            writer(tmp_path / name, positions, quads)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    size = (tmp_path / "ours.obj").stat().st_size
    assert (tmp_path / "theirs.obj").stat().st_size == size
    # the whole-file writer holds the text, and more, at once
    assert peaks[1] > size
    assert peaks[0] < size


def test_a_chunk_that_raises_leaves_no_file(tmp_path, monkeypatch):
    calls = []

    def failing(coords):
        calls.append(len(coords))
        if len(calls) == 2:
            raise RuntimeError("formatting failed")
        return b"v 0 0 0\n" * len(coords)

    monkeypatch.setattr(hypnet.meshtext, "vertex_rows", failing)
    path = tmp_path / "m.obj"
    with pytest.raises(RuntimeError, match="formatting failed"):
        write_positions_mesh(path, np.zeros((2 * CHUNK + 1, 3)), [(0, 1, 2, 3)])
    assert calls == [CHUNK, CHUNK]
    assert not path.exists()


def test_importing_the_cli_loads_no_formatting_kernel():
    # check never writes, so it compiles no formatter and builds no table
    env = dict(os.environ, PYTHONPATH=str(Path(hypnet.__file__).parents[1]))
    code = "import sys, hypnet.cli; print('hypnet.meshtext' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True,
    )
    assert out.stdout.strip() == "False"


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


def split_grids(samples, shapes):
    """The grids of a flat gather, split by their shapes."""
    ends = np.cumsum(np.prod(shapes, axis=1))[:-1]
    return [
        part.reshape(*shape, 3)
        for part, shape in zip(np.split(samples, ends), np.asarray(shapes).tolist())
    ]


def test_stacked_orientation_equals_the_per_grid_one_for_every_corner_order():
    roles = (10, 11, 12, 13)
    corner_map = dict(zip(CORNER_KEYS, roles))
    rigid, scrambled = [], []
    for order in itertools.permutations(roles):
        try:
            reference_oriented_grid(np.zeros((2, 2, 3)), corner_map, order)
        except ValueError:
            scrambled.append(order)
        else:
            rigid.append(order)
    assert len(rigid) == 8
    points = np.random.default_rng(16).standard_normal((len(rigid), 3, 5, 3))
    samples, shapes = oriented_grids(points, [roles] * len(rigid), rigid)
    assert samples.shape == (len(rigid) * 15, 3) and shapes.shape == (len(rigid), 2)
    for grid, one, order in zip(split_grids(samples, shapes), points, rigid):
        expected = reference_oriented_grid(one, corner_map, order)
        assert grid.shape == expected.shape
        assert np.array_equal(grid, expected)
        assert np.array_equal(oriented_grid(one, corner_map, order), expected)
    for order in scrambled + [(10, 11, 12, 99), (10, 10, 12, 13)]:
        with pytest.raises(ValueError):
            oriented_grids(points[:2], [roles] * 2, [rigid[0], order])
        with pytest.raises(ValueError):
            oriented_grid(points[0], corner_map, order)


def test_cli_orients_the_grids_like_the_per_face_path(tmp_path):
    # the extend pipeline up to the write, with each grid oriented on its own
    captured = cli_extend_grids(tmp_path)
    positions, quads = read_mesh(tmp_path / "scrambled.obj")
    a = validate_anet(build(len(positions), quads), positions)
    lam = bilinear_parameter(a.face_frame(0), a.positions)
    patches = restrict_all(propagate_all(a, 0, lam)[0], a.positions)
    points = sample_all(patches, 5, 7)
    assert patches.faces.tolist() == sorted(captured)
    expected_grids = {}
    for k, f in enumerate(patches.faces.tolist()):
        corners = a.face_frame(f).corners
        corner_map = dict(zip(CORNER_KEYS, patches.frames.corners[k].tolist()))
        grid, written = captured[f]
        expected = reference_oriented_grid(points[k], corner_map, corners)
        assert np.array_equal(grid, expected)
        assert tuple(np.asarray(written).tolist()) == corners
        expected_grids[f] = (expected, corners)
    # the CLI's welded mesh is the dict weld of the oracle-oriented grids
    reference_write_mesh(tmp_path / "theirs.obj", expected_grids, weld=True)
    assert (tmp_path / "out.obj").read_bytes() == (tmp_path / "theirs.obj").read_bytes()


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
    """The grids ``hypnet extend --samples 5 7`` hands to the write core on
    a 4x3 net on z = xy with relabelled, rotated, partly reversed and
    reordered faces, split by their shapes and keyed by their place in
    writing order, which is the face id since every face is carved; the
    core still writes the CLI's mesh."""
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

    def capture(out, samples, shapes, corners, weld):
        assert weld
        captured.update(enumerate(zip(split_grids(samples, shapes), corners)))
        write_sample_mesh(out, samples, shapes, corners, weld=weld)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(hypnet.cli, "write_sample_mesh", capture)
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

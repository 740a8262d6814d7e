"""Text mesh reading and writing for quad nets and sampled patch grids.

The format is the common ``v x y z`` / ``f i j k l`` text form with
1-based face indices; records other than vertices and faces are
ignored on input.  Floats are written with 17 significant digits so a
write/read round trip reproduces every coordinate bit for bit and two
runs over identical data produce identical files.

:func:`write_positions_mesh` writes the bytes of ``"%.17g"`` and ``"%d"``
without formatting one value at a time.  It streams the file to one
binary handle in chunks of :data:`CHUNK` rows, each formatted in numpy
array passes by :mod:`hypnet.meshtext`, so no whole-file string is
built; a chunk that raises removes the partial file.  That module is
imported on the first write, so ``hypnet check`` neither compiles it
nor builds its tables.

:func:`read_mesh` streams the file from a binary handle in chunks of
:data:`CHUNK` lines as well: a chunk of plain vertex and face records is
converted in bulk from its ``bytes`` tokens, any other one decoded and
read line by line.  The quads come back as one ``(F, 4)`` int64 array,
which :func:`hypnet.quadgraph.build` takes as it is.
"""

from __future__ import annotations

import codecs
import os
from contextlib import suppress
from itertools import islice
from operator import itemgetter

import numpy as np

from .errors import NonQuadFace, ParseError
from .quadgraph import CHUNK, _group

#: Grid-corner index pairs in the role order (x, x1, x2, x12).
CORNER_KEYS = ((0, 0), (0, 1), (1, 0), (1, 1))


def read_mesh(path):
    """Positions ``(n, 3)`` and 0-based quads ``(F, 4)`` (int64) from a
    text mesh.

    Accepts ``v x y z`` and ``f a b c d`` records (1-based indices,
    ``a/t/n`` forms allowed); every other record is skipped, and so is a
    leading UTF-8 byte-order mark.  Raises :class:`ParseError` naming the
    line for malformed records or out-of-range indices,
    :class:`NonQuadFace` for faces without exactly four vertices and
    :class:`UnicodeDecodeError` for a file that is not UTF-8.

    The file is streamed from a binary handle :data:`CHUNK` lines at a
    time, its lines split as in text mode (:func:`_line_chunks`).  A plain
    chunk, ``v`` lines of three coordinates before ``f`` lines of four
    indices, each plain or cut at its first ``/``, all in ASCII without
    the separators ``\\x1c``-``\\x1f`` that text splits on, is converted in
    bulk from its ``bytes`` tokens by Python's own ``float`` and ``int``,
    so it reads the same values as one line at a time.  Any other chunk,
    or one holding a value that does not parse, is decoded as strict
    UTF-8 and goes through the per-line loop :func:`_read_lines`, which
    raises on its first malformed record.
    """
    coords, faces = [], []
    with open(path, "rb") as handle:
        if handle.read(3) != codecs.BOM_UTF8:
            handle.seek(0)
        number = 1
        for lines in _line_chunks(handle):
            if not _read_plain(lines, number, coords, faces):
                _read_lines(list(map(bytes.decode, lines)), number, coords, faces)
            number += len(lines)
    positions = np.concatenate(coords) if coords else np.zeros((0, 3))
    coords.clear()  # before the quads are concatenated in turn
    return positions, _face_array(faces, len(positions))


def _line_chunks(handle):
    """The lines of a binary ``handle``, :data:`CHUNK` at a time, split
    as in text mode: a ``"\\r\\n"`` or ``"\\r"`` line end reads as ``"\\n"``."""
    while lines := list(islice(handle, CHUNK)):
        if b"\r" not in b"".join(lines):
            yield lines
            continue
        # a binary line ends at "\n" alone, so it may hold many text lines
        text = b"".join(lines).replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        lines = text.splitlines(keepends=True)
        del text
        for k in range(0, len(lines), CHUNK):
            yield lines[k:k + CHUNK]


#: ASCII bytes that split a record in text but not in bytes.
_TEXT_SEPARATORS = (b"\x1c", b"\x1d", b"\x1e", b"\x1f")
#: The first two bytes of a line.
_LINE_HEAD = itemgetter(slice(2))


def _read_plain(lines, number, coords, faces) -> bool:
    """Append the records of a chunk of plain ``bytes`` lines, the first
    of them line ``number``, in bulk; False, appending nothing, for any
    other chunk.

    A chunk is plain when it is ASCII without :data:`_TEXT_SEPARATORS`,
    its lines start with ``b"v "`` and then with ``b"f "``, and its tokens,
    split as one, number four per vertex and five per face line, every
    one of them but the record letters converting.  No record letter
    converts, so each line then holds its own letter alone, at its
    start, and splits into the tokens it would split into alone.
    """
    joined = b"".join(lines)
    if not joined.isascii() or any(map(joined.__contains__, _TEXT_SEPARATORS)):
        return False
    heads = list(map(_LINE_HEAD, lines))
    nv = heads.count(b"v ")
    nf = len(lines) - nv
    if heads != [b"v "] * nv + [b"f "] * nf:
        return False
    tokens = joined.split()
    slashed = b"/" in joined
    del joined, heads
    if len(tokens) != 4 * nv + 5 * nf:
        return False
    values, indices = tokens[:4 * nv], tokens[4 * nv:]
    del tokens
    # without the record letters: every fourth vertex token, fifth face token
    del values[::4], indices[::5]
    # an ``a/t/n``, ``a//n`` or ``a/t`` index reads as its head ``a``
    if slashed:
        indices = [index.partition(b"/")[0] for index in indices]
    try:
        xyz = np.fromiter(map(float, values), float, len(values)).reshape(-1, 3)
        indices = np.fromiter(map(int, indices), np.int64, len(indices))
    except (ValueError, OverflowError):
        return False
    if nf and indices.min() < 1:
        return False
    indices -= 1
    coords.append(xyz)
    if nf:
        faces.append((indices.reshape(-1, 4), range(number + nv, number + nv + nf)))
    return True


def _read_lines(lines, number, coords, faces) -> None:
    """Append the records of a chunk of text lines one at a time, the
    first of them line ``number``; raises on the first malformed
    record."""
    positions, quads, face_lines = [], [], []
    for number, raw in enumerate(lines, start=number):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        record = tokens[0]
        if record == "v":
            if len(tokens) < 4:
                raise ParseError(
                    f"line {number}: vertex needs three coordinates"
                )
            try:
                positions.append([float(t) for t in tokens[1:4]])
            except ValueError as exc:
                raise ParseError(f"line {number}: {exc}") from None
        elif record == "f":
            indices = []
            for token in tokens[1:]:
                head = token.split("/", 1)[0]
                try:
                    index = int(head)
                except ValueError:
                    raise ParseError(
                        f"line {number}: bad face index {token!r}"
                    ) from None
                if index < 1:
                    raise ParseError(
                        f"line {number}: face indices are 1-based "
                        f"and positive, got {index}"
                    )
                indices.append(index - 1)
            if len(indices) != 4:
                raise NonQuadFace(
                    f"line {number}: face has {len(indices)} vertices, "
                    "expected 4"
                )
            quads.append(indices)
            face_lines.append(number)
    coords.append(np.asarray(positions, dtype=float).reshape(-1, 3))
    if quads:
        # an index past int64 is surely out of range; the object array
        # keeps it for the message of :func:`_face_array`
        try:
            quads = np.array(quads, dtype=np.int64)
        except OverflowError:
            quads = np.array(quads, dtype=object)
        faces.append((quads, face_lines))


def _face_array(faces, vertex_count):
    """The quads of every chunk's ``(quads, line numbers)`` as one
    ``(F, 4)`` int64 array; raises :class:`ParseError` naming the line of
    the first face, in file order, that references a vertex past
    ``vertex_count``."""
    for quads, lines in faces:
        if quads.max() >= vertex_count:
            f = int(np.argmax((quads >= vertex_count).any(axis=1)))
            index = next(i for i in quads[f].tolist() if i >= vertex_count)
            raise ParseError(
                f"line {lines[f]}: face references vertex {index + 1} "
                f"but only {vertex_count} are defined"
            )
    if not faces:
        return np.zeros((0, 4), dtype=np.int64)
    return np.concatenate([quads for quads, _ in faces])


def write_positions_mesh(path, positions, quads) -> None:
    """Write a plain vertex/face text mesh with 17-digit coordinates.

    The bytes are those of ``"v %.17g %.17g %.17g"`` per vertex and
    ``"f %d %d %d %d"`` per face (1-based), each line ending in ``"\\n"``,
    or one ``"\\n"`` for an empty mesh.  Rows are formatted and written
    :data:`CHUNK` at a time; if a chunk raises, the partial file is
    removed.
    """
    from . import meshtext

    coords = np.asarray(positions, dtype=float).reshape(-1, 3)
    indices = np.asarray(quads, dtype=np.int64).reshape(-1, 4)
    handle = open(path, "wb")
    try:
        with handle:
            for start in range(0, len(coords), CHUNK):
                handle.write(meshtext.vertex_rows(coords[start:start + CHUNK]))
            for start in range(0, len(indices), CHUNK):
                handle.write(meshtext.face_rows(indices[start:start + CHUNK] + 1))
            if not len(coords) and not len(indices):
                handle.write(b"\n")
    except BaseException:
        with suppress(OSError):
            os.remove(path)
        raise


def oriented_grid(points: np.ndarray, corner_map: dict, corners) -> np.ndarray:
    """The one-grid call of :func:`oriented_grids`: ``points`` is one
    ``(n, m, 3)`` grid whose corner ``key`` is vertex ``corner_map[key]``
    for each of :data:`CORNER_KEYS`."""
    roles = [corner_map[key] for key in CORNER_KEYS]
    return oriented_grids(np.asarray(points)[None], roles, corners)[0]


def oriented_grids(points: np.ndarray, roles: np.ndarray, corners: np.ndarray) -> list:
    """Reindex every grid of a stack to its corner order, in one index pass.

    ``points`` are sample grids ``(F, n, m, 3)`` whose corner ``CORNER_KEYS[c]``
    is vertex ``roles[k, c]``; grid ``k`` of the result is reindexed to the
    corner order ``corners[k]``: ``corners[k][0]`` at ``[0, 0]``, axis 0
    running toward ``corners[k][2]`` and axis 1 toward ``corners[k][1]``,
    the layout :func:`write_mesh` expects.  So it is ``(n, m, 3)``, or
    ``(m, n, 3)`` where the reindexing transposes.  Raises
    :class:`ValueError` unless every row of ``corners`` is a rigid
    relabeling of its row of ``roles``.
    """
    points = np.asarray(points)
    roles = np.asarray(roles).reshape(-1, 4)
    corners = np.asarray(corners).reshape(-1, 4)
    match = roles[:, None, :] == corners[:, :, None]
    # where each requested corner sits, as the index 2 i + j of its key
    at = match.argmax(axis=2)
    a, b = at[:, :1] >> 1, at[:, :1] & 1
    swap = (at[:, 2] >> 1) == a[:, 0]
    i, j = (at >> 1) ^ a, (at & 1) ^ b
    final = np.where(swap[:, None], 2 * j + i, 2 * i + j)
    if not (match.sum(axis=2) == 1).all() or (final != np.arange(4)).any():
        raise ValueError("corner roles are not a rigid relabeling of the grid")
    n, m = points.shape[1:3]
    rows = np.where(a == 1, np.arange(n)[::-1], np.arange(n))
    cols = np.where(b == 1, np.arange(m)[::-1], np.arange(m))
    out = [None] * len(points)
    for transpose in (False, True):
        k = np.flatnonzero(swap == transpose)
        r, c = rows[k][:, :, None], cols[k][:, None, :]
        if transpose:
            r, c = rows[k][:, None, :], cols[k][:, :, None]
        for f, grid in zip(k.tolist(), points[k[:, None, None], r, c]):
            out[f] = grid
    return out


def _weld_keys(corners: np.ndarray, n, m, face, i, j):
    """Weld key of every sample and the size of the key range.

    ``corners`` are the grids' quad vertex ids ``(F, 4)`` in role order,
    ``n`` and ``m`` their sample counts ``(F,)``, and ``face``, ``i``,
    ``j`` the grid and position of each sample.  A corner sample's key is
    its quad vertex (ids relabeled densely, in ascending order); an
    edge-interior sample's key is a slot of its side, a side being named
    by its sorted endpoint pair and its sample count, with the position
    counted from the lower vertex id; every other sample keeps a key of
    its own.
    """
    corners = _group(corners.ravel())[3].reshape(-1, 4)
    nv = int(corners.max()) + 1
    # the sides of each grid: rows i = 0 and n - 1 run x -> x1 and
    # x2 -> x12 with m samples, columns j = 0 and m - 1 run x -> x2 and
    # x1 -> x12 with n samples
    a = corners[:, [0, 2, 0, 1]]
    b = corners[:, [1, 3, 2, 3]]
    count = np.stack([m, m, n, n], axis=1)
    pair = np.minimum(a, b) * nv + np.maximum(a, b)
    side = _group((pair * (count.max() + 1) + count).ravel())[3].reshape(-1, 4)
    slots = np.zeros(side.max() + 1, dtype=np.int64)
    slots[side] = count
    start = nv + np.cumsum(slots) - slots
    private = nv + int(slots.sum())
    key = private + np.arange(len(face))
    first_row, last_row = i == 0, i == n[face] - 1
    first_col, last_col = j == 0, j == m[face] - 1
    on_row, on_col = first_row | last_row, first_col | last_col
    at = np.flatnonzero(on_row ^ on_col)
    f, row = face[at], on_row[at]
    k = np.where(row, 1 - first_row[at], 3 - first_col[at])
    pos = np.where(row, j[at], i[at])
    pos = np.where(a[f, k] > b[f, k], count[f, k] - 1 - pos, pos)
    key[at] = start[side[f, k]] + pos
    at = np.flatnonzero(on_row & on_col)
    key[at] = corners[face[at], 2 * last_row[at] + last_col[at]]
    return key, private + len(face)


def write_mesh(path, grids: dict, weld: bool = True) -> None:
    """Write all sampled patch grids as one combined quad mesh.

    ``grids`` maps a face id to ``(points, corners)`` where ``points``
    is an ``(n, m, 3)`` sample grid laid out as in :func:`oriented_grids`
    and ``corners`` are the quad's vertex ids in role order; grids may
    differ in ``(n, m)``.  Every sample ``(face, i, j)`` gets one integer
    key.  With ``weld`` a grid corner's key is its quad vertex, and a
    sample inside a grid side ``(a, b)`` with ``count`` samples is keyed
    by ``(min(a, b), max(a, b), count)`` and its position counted from
    the lower vertex id, so patches sharing an edge merge their boundary
    samples positionally (sample values on the two sides agree exactly
    only when the patches carry a common quadric, and to within the
    tangency tolerance otherwise) and edges sampled at different counts
    stay unmerged.  Interior samples, and every sample without ``weld``,
    keep keys of their own.  Output vertices are numbered by the first
    appearance of their key, walking faces in ascending id order and
    each grid row-major, and take that first sample's position.
    """
    if not grids:
        raise ValueError("grids must be nonempty")
    faces = sorted(grids)
    points = [np.asarray(grids[f][0], dtype=float) for f in faces]
    n, m = np.array([p.shape[:2] for p in points], dtype=np.int64).T
    size = n * m
    total = int(size.sum())
    # grid and row-major position of every sample, in writing order
    face = np.repeat(np.arange(len(faces)), size)
    sample = np.arange(total)
    t = sample - (np.cumsum(size) - size)[face]
    i, j = t // m[face], t % m[face]
    if weld:
        corners = np.array([grids[f][1] for f in faces], dtype=np.int64)
        key, key_count = _weld_keys(corners.reshape(-1, 4), n, m, face, i, j)
    else:
        key, key_count = sample, total
    # the first sample of each key; an unbuffered minimum, because a
    # fancy-index assignment leaves the winner among repeats unspecified
    first = np.full(key_count, total)
    np.minimum.at(first, key, sample)
    first = first[key]
    new = first == sample
    index = (np.cumsum(new) - 1)[first]
    vertices = np.concatenate([p.reshape(-1, 3) for p in points])[new]
    # cell (i, j) of a grid with m columns spans samples t, t + m,
    # t + m + 1 and t + 1
    cell = np.flatnonzero((i < n[face] - 1) & (j < m[face] - 1))
    step = m[face[cell], None]
    quads = index[cell[:, None] + step * [0, 1, 1, 0] + [0, 0, 1, 1]]
    write_positions_mesh(path, vertices, quads)

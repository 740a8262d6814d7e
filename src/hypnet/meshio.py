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

:func:`read_mesh` reads the file in one text-mode pass, :data:`CHUNK`
lines at a time and without seeking, so it reads a pipe as it reads a
file: a chunk of plain vertex and face records is read by numpy's C
text reader, any other one line by line.  The quads come back as one
``(F, 4)`` int64 array, which :func:`hypnet.quadgraph.build` takes as
it is.
"""

from __future__ import annotations

import os
import re
import warnings
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

    The file is opened once in text mode, as UTF-8 with universal
    newlines, and read :data:`CHUNK` lines at a time without seeking, so
    a pipe reads like a file.  A plain chunk is read by numpy's C text
    reader (:func:`_read_plain`) into the values the per-line loop
    :func:`_read_lines` reads; any other one goes through that loop,
    which raises on its first malformed record.
    Where the text reader meets a block that is not UTF-8, the lines it
    handed over before it are read that way too, and the decode error
    is raised unless one of them is malformed.
    """
    coords, faces = [], []
    number = 1
    with open(path, "r", encoding="utf-8-sig") as handle:
        while True:
            lines = []
            try:
                # keeps the lines handed over before the error, if any
                lines.extend(islice(handle, CHUNK))
            except UnicodeDecodeError:
                _read_lines(lines, number, coords, faces)
                raise
            if not lines:
                break
            if not _read_plain(lines, number, coords, faces):
                _read_lines(lines, number, coords, faces)
            number += len(lines)
    positions = np.concatenate(coords) if coords else np.zeros((0, 3))
    coords.clear()  # before the quads are concatenated in turn
    return positions, _face_array(faces, len(positions))


#: The first two characters of a line.
_LINE_HEAD = itemgetter(slice(2))
#: Vertex and face lines as rows of numpy's text reader: the record
#: letter, then exactly three coordinates or four ids.
_VERTEX_ROW = np.dtype([("record", "U1"), ("xyz", float, 3)])
_FACE_ROW = np.dtype([("record", "U1"), ("ids", np.int64, 4)])


def _read_plain(lines, number, coords, faces) -> bool:
    """Append the records of a chunk of plain text lines, the first of
    them line ``number``, in bulk; False, appending nothing, for any
    other chunk.

    A chunk is plain when its lines start with ``"v "`` and then with
    ``"f "``, and numpy's C text reader takes each as a row of
    :data:`_VERTEX_ROW` or :data:`_FACE_ROW`.  It splits a line where
    ``str.split`` does and parses a float with the routine Python's
    ``float`` uses, so it reads the bits of the per-line loop; what it
    refuses and ``float`` or ``int`` take (underscores, digits beyond
    ASCII) is left to that loop.
    """
    heads = list(map(_LINE_HEAD, lines))
    nv = heads.count("v ")
    nf = len(lines) - nv
    if heads != ["v "] * nv + ["f "] * nf:
        return False
    face_lines = lines[nv:]
    text = "".join(face_lines)
    if "/" in text:
        # an ``a/t/n``, ``a//n`` or ``a/t`` index reads as its head ``a``;
        # a token with no head keeps its slash, so the reader refuses it
        face_lines = re.sub(r"(?<=\S)/\S*", "", text).split("\n")
    try:
        xyz = _load_rows(lines[:nv], _VERTEX_ROW)["xyz"]
        with warnings.catch_warnings():
            # numpy releases that still read an index through a float
            # (``1e0``, ``1.5``) only warn; as an error it refuses the chunk
            warnings.simplefilter("error", DeprecationWarning)
            indices = _load_rows(face_lines, _FACE_ROW)["ids"]
    except (ValueError, OverflowError):
        return False
    if nf and indices.min() < 1:
        return False
    coords.append(xyz)
    if nf:
        faces.append((indices - 1, range(number + nv, number + nv + nf)))
    return True


def _load_rows(lines, row):
    """``lines`` as records ``row`` of numpy's text reader, one a line."""
    return np.loadtxt(lines, dtype=row, comments=None, ndmin=1) if lines else np.zeros(0, row)


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
    for each of :data:`CORNER_KEYS`; returns it reindexed as an ``(n, m,
    3)`` or ``(m, n, 3)`` grid."""
    roles = [corner_map[key] for key in CORNER_KEYS]
    samples, shapes = oriented_grids(np.asarray(points)[None], roles, corners)
    return samples.reshape(*shapes[0], 3)


def oriented_grids(points: np.ndarray, roles: np.ndarray, corners: np.ndarray):
    """Every grid of a stack reindexed to its corner order and laid end
    to end, in one index pass: the samples ``(S, 3)`` and the grids'
    shapes ``(F, 2)``.

    ``points`` are sample grids ``(F, n, m, 3)`` whose corner
    ``CORNER_KEYS[c]`` is vertex ``roles[k, c]``; grid ``k`` of the result
    is reindexed to the corner order ``corners[k]``: ``corners[k][0]`` at
    ``[0, 0]``, axis 0 running toward ``corners[k][2]`` and axis 1 toward
    ``corners[k][1]``, the layout :func:`write_sample_mesh` expects.  So
    its shape is ``(n, m)``, or ``(m, n)`` where the reindexing
    transposes, and its samples follow grid ``k - 1``'s, row-major.
    Raises :class:`ValueError` unless every row of ``corners`` is a rigid
    relabeling of its row of ``roles``.
    """
    points = np.asarray(points)
    roles = np.asarray(roles).reshape(-1, 4)
    corners = np.asarray(corners).reshape(-1, 4)
    match = roles[:, None, :] == corners[:, :, None]
    # where each requested corner sits, as the index 2 i + j of its key
    at = match.argmax(axis=2)
    a, b = at[:, 0] >> 1, at[:, 0] & 1
    swap = (at[:, 2] >> 1) == a
    i, j = (at >> 1) ^ a[:, None], (at & 1) ^ b[:, None]
    final = np.where(swap[:, None], 2 * j + i, 2 * i + j)
    if not (match.sum(axis=2) == 1).all() or (final != np.arange(4)).any():
        raise ValueError("corner roles are not a rigid relabeling of the grid")
    F, n, m = points.shape[:3]
    # the source row and column of sample t of a kept (0) or transposed
    # (1) grid, each unflipped (0) or flipped (1): the table's axes are
    # (row flip, column flip, transposed, t)
    t = np.arange(n * m)
    rows = np.array([t // m, t % n])
    cols = np.array([t % m, t // n])
    table = np.array([rows, n - 1 - rows])[:, None] * m + np.array([cols, m - 1 - cols])
    source = table[a, b, swap.astype(np.intp)]
    source += (np.arange(F) * (n * m))[:, None]
    samples = points.reshape(-1, 3)[source.ravel()]
    shapes = np.where(swap[:, None], [m, n], [n, m])
    return samples, shapes


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
    """Write all sampled patch grids as one combined quad mesh: the dict
    form of :func:`write_sample_mesh`.

    ``grids`` maps a face id to ``(points, corners)`` where ``points``
    is an ``(n, m, 3)`` sample grid laid out as in :func:`oriented_grids`
    and ``corners`` are the quad's vertex ids in role order; grids may
    differ in ``(n, m)``.  They are written in ascending face id order.
    """
    faces = sorted(grids)
    points = [np.asarray(grids[f][0], dtype=float) for f in faces]
    samples = np.concatenate([p.reshape(-1, 3) for p in points]) if points else ()
    corners = [grids[f][1] for f in faces] if weld else None
    write_sample_mesh(path, samples, [p.shape[:2] for p in points], corners, weld)


def write_sample_mesh(path, samples, shapes, corners, weld: bool = True) -> None:
    """Write sample grids laid end to end as one combined quad mesh.

    ``samples`` ``(S, 3)`` hold grid after grid, each row-major, as
    :func:`oriented_grids` returns them; ``shapes`` ``(F, 2)`` are the
    grids' sample counts ``(n, m)`` and ``corners`` ``(F, 4)`` their
    quads' vertex ids in role order, read only with ``weld``.  Every
    sample ``(face, i, j)`` gets one integer key.  With ``weld`` a grid
    corner's key is its quad vertex, and a sample inside a grid side
    ``(a, b)`` with ``count`` samples is keyed by ``(min(a, b), max(a, b),
    count)`` and its position counted from the lower vertex id, so
    patches sharing an edge merge their boundary samples positionally
    (the two sides' samples coincide only where both patches give the
    edge the same ratio of end weights, as the carved patches of an
    exact net do to rounding; elsewhere the merged vertex is simply the
    first side's sample) and edges sampled at different counts stay
    unmerged.
    Interior samples, and every sample without ``weld``, keep keys of
    their own.  Output vertices are numbered by the first appearance of
    their key, in sample order, and take that first sample's position.

    Each per-sample temporary is dropped once no later step reads it,
    and the quads are gathered one column at a time.
    """
    samples = np.asarray(samples, dtype=float).reshape(-1, 3)
    n, m = np.asarray(shapes, dtype=np.int64).reshape(-1, 2).T
    if not len(n):
        raise ValueError("grids must be nonempty")
    size = n * m
    total = int(size.sum())
    if total != len(samples):
        raise ValueError(f"{len(samples)} samples for grids of {total}")
    # grid and row-major position of every sample, in writing order
    face = np.repeat(np.arange(len(n)), size)
    sample = np.arange(total)
    width = m[face]
    i, j = np.divmod(sample - (np.cumsum(size) - size)[face], width)
    if weld:
        corners = np.asarray(corners, dtype=np.int64).reshape(-1, 4)
        key, key_count = _weld_keys(corners, n, m, face, i, j)
    else:
        key, key_count = sample, total
    # cell (i, j) of a grid with m columns spans samples t, t + m,
    # t + m + 1 and t + 1
    cell = np.flatnonzero((i < n[face] - 1) & (j < width - 1))
    del face, i, j
    step = width[cell]
    del width
    # the first sample of each key; an unbuffered minimum, because a
    # fancy-index assignment leaves the winner among repeats unspecified
    first = np.full(key_count, total)
    np.minimum.at(first, key, sample)
    first = first[key]
    del key
    new = first == sample
    del sample
    index = (np.cumsum(new) - 1)[first]
    del first
    vertices = samples[new]
    del new
    quads = np.empty((len(cell), 4), dtype=np.int64)
    quads[:, 0] = index[cell]
    cell += step
    quads[:, 1] = index[cell]
    cell += 1
    quads[:, 2] = index[cell]
    cell -= step
    quads[:, 3] = index[cell]
    del index, cell, step
    write_positions_mesh(path, vertices, quads)

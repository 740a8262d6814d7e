"""Text mesh reading and writing for quad nets and sampled patch grids.

The format is the common ``v x y z`` / ``f i j k l`` text form with
1-based face indices; records other than vertices and faces are
ignored on input.  Floats are written with 17 significant digits so a
write/read round trip reproduces every coordinate bit for bit and two
runs over identical data produce identical files.
"""

from __future__ import annotations

import numpy as np

from .errors import NonQuadFace, ParseError

#: Grid-corner index pairs in the role order (x, x1, x2, x12).
CORNER_KEYS = ((0, 0), (0, 1), (1, 0), (1, 1))


def read_mesh(path):
    """Positions ``(n, 3)`` and 0-based quad tuples from a text mesh.

    Accepts ``v x y z`` and ``f a b c d`` records (1-based indices,
    ``a/t/n`` forms allowed); every other record is skipped.  Raises
    :class:`ParseError` naming the line for malformed records or
    out-of-range indices and :class:`NonQuadFace` for faces without
    exactly four vertices.
    """
    positions = []
    quads = []
    face_lines = []
    with open(path, "r", encoding="utf-8") as handle:
        for number, raw in enumerate(handle, start=1):
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
                quads.append(tuple(indices))
                face_lines.append(number)
    for number, quad in zip(face_lines, quads):
        for index in quad:
            if index >= len(positions):
                raise ParseError(
                    f"line {number}: face references vertex {index + 1} "
                    f"but only {len(positions)} are defined"
                )
    return np.asarray(positions, dtype=float), quads


def write_positions_mesh(path, positions, quads) -> None:
    """Write a plain vertex/face text mesh with 17-digit coordinates.

    Every vertex row is formatted in one ``%`` pass over all coordinates,
    and every face row in another.
    """
    coords = np.asarray(positions, dtype=float).reshape(-1, 3)
    indices = np.asarray(quads, dtype=np.int64).reshape(-1, 4) + 1
    text = ("v %.17g %.17g %.17g\n" * len(coords)) % tuple(coords.ravel().tolist())
    text += ("f %d %d %d %d\n" * len(indices)) % tuple(indices.ravel().tolist())
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text or "\n")


def oriented_grid(points: np.ndarray, corner_map: dict, corners) -> np.ndarray:
    """Reindex a sampled patch grid to the corner order ``corners``.

    ``corner_map`` is the patch's map from parameter corners to vertex
    ids; the result has ``corners[0]`` at ``[0, 0]``, axis 0 running
    toward ``corners[2]`` and axis 1 toward ``corners[1]`` — the layout
    :func:`write_mesh` expects.  Raises :class:`ValueError` when the two
    corner sets differ.
    """
    inverse = {v: key for key, v in corner_map.items()}
    if set(inverse) != set(corners):
        raise ValueError("grid corners do not match the requested corners")
    a, b = inverse[corners[0]]
    final = {v: (i ^ a, j ^ b) for v, (i, j) in inverse.items()}
    swap = final[corners[2]][0] == 0
    if swap:
        final = {v: (j, i) for v, (i, j) in final.items()}
    if tuple(final[v] for v in corners) != CORNER_KEYS:
        raise ValueError("corner roles are not a rigid relabeling of the grid")
    out = np.asarray(points)
    if a:
        out = out[::-1]
    if b:
        out = out[:, ::-1]
    if swap:
        out = np.swapaxes(out, 0, 1)
    return np.ascontiguousarray(out)


def _sample_key(face: int, corners, n: int, m: int, i: int, j: int):
    """Weld key of grid point ``(i, j)``: quad corners merge by vertex
    id, edge samples by (edge vertex pair, position, count), interior
    points stay private to the face."""
    x, x1, x2, x12 = corners
    on_i = i in (0, n - 1)
    on_j = j in (0, m - 1)
    if on_i and on_j:
        corner = {(0, 0): x, (0, m - 1): x1, (n - 1, 0): x2,
                  (n - 1, m - 1): x12}[(i, j)]
        return ("v", corner)
    if on_i:
        a, b = (x, x1) if i == 0 else (x2, x12)
        k, count = j, m
    elif on_j:
        a, b = (x, x2) if j == 0 else (x1, x12)
        k, count = i, n
    else:
        return ("f", face, i, j)
    if a > b:
        a, b, k = b, a, count - 1 - k
    return ("e", a, b, k, count)


def write_mesh(path, grids: dict, weld: bool = True) -> None:
    """Write all sampled patch grids as one combined quad mesh.

    ``grids`` maps a face id to ``(points, corners)`` where ``points``
    is an ``(n, m, 3)`` sample grid laid out as in :func:`oriented_grid`
    and ``corners`` are the quad's vertex ids in role order.  With
    ``weld`` the boundary samples of patches sharing an edge are merged
    positionally (first face in ascending id order wins; sample values
    on the two sides agree exactly only when the patches carry a common
    quadric, and to within the tangency tolerance otherwise).  Edges
    sampled at different counts are left unmerged.
    """
    if not grids:
        raise ValueError("grids must be nonempty")
    index = {}
    vertices = []
    quads = []
    for face in sorted(grids):
        points, corners = grids[face]
        points = np.asarray(points, dtype=float)
        n, m = points.shape[:2]
        local = np.empty((n, m), dtype=int)
        for i in range(n):
            for j in range(m):
                if weld:
                    key = _sample_key(face, corners, n, m, i, j)
                else:
                    key = ("f", face, i, j)
                at = index.get(key)
                if at is None:
                    at = len(vertices)
                    index[key] = at
                    vertices.append(points[i, j])
                local[i, j] = at
        for i in range(n - 1):
            for j in range(m - 1):
                quads.append(
                    (local[i, j], local[i + 1, j],
                     local[i + 1, j + 1], local[i, j + 1])
                )
    write_positions_mesh(path, np.asarray(vertices), quads)

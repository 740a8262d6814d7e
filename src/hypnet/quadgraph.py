"""Strongly regular quad meshes as integer arrays.

A quad graph is a cell complex all of whose faces are quadrilaterals,
subject to the usual strong regularity conditions: two faces share at
most one edge, every edge has at most two incident faces, and the faces
around every vertex form a single fan.  Faces are re-oriented
consistently during construction; meshes without a consistent
orientation are rejected.

The combinatorics are integer arrays, built by sorting and grouping the
undirected keys of the face sides:

* ``face_vertices`` and ``face_edges`` ``(F, 4)`` in oriented cycle
  order.  Side ``k`` of face ``f`` is the half-edge ``h = 4 f + k`` from
  corner ``k`` to corner ``k + 1``.
* ``edges`` ``(E, 2)``, lower vertex id first, numbered in order of
  first appearance along the oriented faces.
* ``edge_faces`` ``(E, 2)``: the face that runs the edge from its lower
  id first, ``-1`` where there is no face.
* ``twin`` ``(4 F,)``: the half-edge of the other face on the same
  edge, ``-1`` on the boundary.
* per vertex ``degrees`` (incident edges) and the ``boundary`` mask.
* the vertex stars: vertex ``v`` owns the slots ``star_offsets[v]`` to
  ``star_offsets[v + 1]`` of ``star_neighbors`` (its neighbors in
  cyclic order, a boundary star from one boundary neighbor to the
  other) and ``star_faces`` (the face between each neighbor and the one
  before it, ``-1`` at the first slot of a boundary star).

Faces listed with a consistent orientation are kept as they are, found
by one array comparison; only other inputs are re-oriented face by face.
The strips are array passes too: a strip leaves each member face by a
half-edge ``h``, and the next one by ``twin[h] ^ 2``, so pointer
jumping along that map labels every strip by its least (face, side
pair) node and places every member in it (:meth:`QuadGraph.strip_sides`).
The dual spanning tree is built one breadth-first level at a time
(:meth:`QuadGraph.dual_tree`).
"""

from __future__ import annotations

from collections import deque

import numpy as np

from .errors import (
    ClosedStripDetected,
    DisconnectedMesh,
    NonManifold,
    NonOrientable,
    NotAQuad,
    NotStronglyRegular,
)

#: Rows per batch of the array passes over a net: lines read and rows
#: written per chunk by :mod:`hypnet.meshio`, and stars, edges, faces or
#: pencils per batch of the validation walk in :mod:`hypnet.anet`.
CHUNK = 1024


def _next(h):
    """The half-edge after ``h`` in its face's cycle."""
    return h - h % 4 + (h + 1) % 4


def _sides(quads):
    """Tail and head vertex of every half-edge of ``quads`` ``(F, 4)``."""
    return quads.ravel(), np.roll(quads, -1, axis=1).ravel()


def _group(keys):
    """Group equal ``keys``: ``(order, starts, counts, group)``.

    ``order`` is the stable argsort of the keys, ``starts`` the first
    position in it of every group (groups in ascending key order, so
    ``order[starts]`` is each group's first index) and ``counts`` their
    sizes; ``group`` gives every key's group.
    """
    order = np.argsort(keys, kind="stable")
    ranked = keys[order]
    new = np.ones(len(keys), dtype=bool)
    new[1:] = ranked[1:] != ranked[:-1]
    starts = np.flatnonzero(new)
    counts = np.diff(np.append(starts, len(keys)))
    group = np.empty(len(keys), dtype=np.intp)
    group[order] = np.cumsum(new) - 1
    return order, starts, counts, group


def _quad_array(quads, vertex_count: int) -> np.ndarray:
    """The faces as an ``(F, 4)`` array, or :class:`NotAQuad` for the
    first face that does not list four distinct vertex ids in range.

    An ``(F, 4)`` signed integer array is taken as it is; any other
    input is read as a sequence of faces."""
    if (isinstance(quads, np.ndarray) and quads.ndim == 2
            and quads.shape[1] == 4 and quads.dtype.kind == "i"):
        arr = quads.astype(np.intp, copy=False)
        short = len(quads)
    else:
        quads = list(quads)
        short = next((f for f, q in enumerate(quads) if len(q) != 4), len(quads))
        arr = np.array(quads[:short], dtype=np.intp).reshape(-1, 4)
    ranked = np.sort(arr, axis=1)
    repeats = np.any(ranked[:, 1:] == ranked[:, :-1], axis=1)
    outside = (arr < 0) | (arr >= vertex_count)
    bad = repeats | outside.any(axis=1)
    if bad.any():
        f = int(np.argmax(bad))
        quad = tuple(arr[f].tolist())
        if repeats[f]:
            raise NotAQuad(f"face {f} repeats a vertex: {quad}")
        v = quad[int(np.argmax(outside[f]))]
        raise NotAQuad(f"face {f} references vertex {v}")
    if short < len(quads):
        raise NotAQuad(f"face {short} has {len(quads[short])} vertices")
    return arr


def _mates(quads, vertex_count: int) -> np.ndarray:
    """Per half-edge of the input faces, the other face side on its edge
    (``-1`` if none).

    Edges are checked in order of first appearance: :class:`NonManifold`
    for an edge with more than two faces, :class:`NotStronglyRegular`
    for an edge whose two faces already share an earlier one.
    """
    tail, head = _sides(quads)
    lo, hi = np.minimum(tail, head), np.maximum(tail, head)
    order, starts, counts, _ = _group(lo * vertex_count + hi)
    first = order[starts]
    pairs = np.flatnonzero(counts == 2)
    pairs = pairs[np.argsort(first[pairs], kind="stable")]
    a, b = first[pairs], order[starts[pairs] + 1]
    # per edge the first edge, in order of appearance, with the same two faces
    by_faces, runs, _, run = _group((a // 4) * len(quads) + b // 4)
    earlier = np.full(len(starts), -1)
    earlier[pairs] = pairs[by_faces[runs[run]]]
    bad = counts > 2
    bad[pairs] = earlier[pairs] != pairs
    if bad.any():
        g = int(np.flatnonzero(bad)[np.argmin(first[bad])])

        def key(group):
            h = first[group]
            return (int(lo[h]), int(hi[h]))

        if counts[g] > 2:
            raise NonManifold(f"edge {key(g)} has {int(counts[g])} incident faces")
        h = first[g]
        pair = (int(h // 4), int(order[starts[g] + 1] // 4))
        raise NotStronglyRegular(
            f"faces {pair} share edges {key(earlier[g])} and {key(g)}"
        )
    mate = np.full(len(tail), -1)
    mate[a], mate[b] = b, a
    return mate


def _orientation(quads, mate) -> np.ndarray:
    """Which faces to reverse so that adjacent faces run their shared
    edge oppositely: none when every paired side already runs opposite
    to its mate, else breadth first from each unvisited face in order.
    Raises :class:`NonOrientable` naming the face pair that clashes."""
    tail, head = _sides(quads)
    paired = np.flatnonzero(mate >= 0)
    if np.array_equal(tail[mate[paired]], head[paired]):
        return np.zeros(len(quads), dtype=bool)
    up = (tail < head).tolist()
    mates = mate.tolist()
    flip = [None] * len(quads)
    for start in range(len(quads)):
        if flip[start] is not None:
            continue
        flip[start] = False
        queue = deque([start])
        while queue:
            f = queue.popleft()
            for h in range(4 * f, 4 * f + 4):
                m = mates[h]
                if m < 0:
                    continue
                g, g_flip = m // 4, up[m] == (up[h] != flip[f])
                if flip[g] is None:
                    flip[g] = g_flip
                    queue.append(g)
                elif flip[g] != g_flip:
                    u, v = sorted((int(tail[h]), int(head[h])))
                    raise NonOrientable(
                        f"faces {f} and {g} cannot be oriented "
                        f"consistently across edge {(u, v)}"
                    )
    return np.array(flip, dtype=bool)


class QuadGraph:
    """Combinatorics of a strongly regular quad mesh, as integer arrays
    (see the module docstring)."""

    def __init__(self, vertex_count: int, quads) -> None:
        n = self.vertex_count = int(vertex_count)
        quads = _quad_array(quads, n)
        flip = _orientation(quads, _mates(quads, n))
        self.face_vertices = np.where(flip[:, None], quads[:, ::-1], quads)
        tail, head = _sides(self.face_vertices)
        lo, hi = np.minimum(tail, head), np.maximum(tail, head)
        order, starts, counts, group = _group(lo * n + hi)

        # edges by first appearance; twins and faces from each group
        first = order[starts]
        numbering = np.argsort(first, kind="stable")
        edge_of = np.empty(len(starts), dtype=np.intp)
        edge_of[numbering] = np.arange(len(starts))
        self.face_edges = edge_of[group].reshape(-1, 4)
        self.edges = np.stack([lo[first], hi[first]], axis=1)[numbering]
        paired = np.flatnonzero(counts == 2)
        a, b = first[paired], order[starts[paired] + 1]
        self.twin = np.full(len(tail), -1)
        self.twin[a], self.twin[b] = b, a
        faces = np.full((len(starts), 2), -1)
        faces[:, 0] = first // 4
        # the face that runs the edge from its lower end comes first
        up = (tail[a] < head[a])[:, None]
        sides = np.where(up, np.stack([a, b], axis=1), np.stack([b, a], axis=1))
        faces[paired] = sides // 4
        self.edge_faces = faces[numbering]

        self.degrees = np.bincount(self.edges.ravel(), minlength=n)
        self._build_stars(tail, head)

    def _build_stars(self, tail, head) -> None:
        """Walk every vertex fan once, all vertices in step.

        A boundary star starts at the neighbor across the boundary edge
        that its faces run into the vertex, an interior star at the
        lowest half-edge leaving the vertex; each step turns to the next
        half-edge leaving the vertex, the one after its twin.  Raises
        :class:`NonManifold` for the lowest vertex whose faces do not
        form one fan: after a boundary vertex that starts two boundary
        arcs, one whose walk closes before it has seen all its faces.
        """
        n, twin = self.vertex_count, self.twin
        # unpaired sides end at boundary vertices, one each: the first
        # repeat in the order of their (tail, head) pairs is the offender
        into = np.flatnonzero(twin < 0)
        ranked = into[np.lexsort((head[into], tail[into]))]
        ends = head[ranked]
        by_end = np.argsort(ends, kind="stable")
        again = by_end[1:][ends[by_end[1:]] == ends[by_end[:-1]]]
        if again.size:
            v = int(ends[again.min()])
            raise NonManifold(f"vertex {v} lies on more than one boundary arc")
        self.boundary = np.zeros(n, dtype=bool)
        self.boundary[head[into]] = True
        arrival = np.full(n, -1)
        arrival[head[into]] = into

        # the next half-edge leaving the same vertex; at a boundary edge
        # the walk wraps around to the other boundary edge
        turn = np.where(twin >= 0, twin, arrival[tail])
        turn = _next(turn)
        fans = np.bincount(tail, minlength=n)
        self.star_offsets = np.concatenate([[0], np.cumsum(self.degrees)])
        slots = self.star_offsets[-1]
        self.star_neighbors = np.empty(slots, dtype=np.intp)
        self.star_faces = np.full(slots, -1)
        lead = self.star_offsets[:-1][self.boundary]
        self.star_neighbors[lead] = tail[arrival[self.boundary]]

        start = np.full(n, len(twin))
        np.minimum.at(start, tail, np.arange(len(twin)))
        start[self.boundary] = _next(arrival[self.boundary])
        verts = np.flatnonzero(fans)
        start, fans = start[verts], fans[verts]
        base = self.star_offsets[verts] + self.boundary[verts]
        cur, short = start, np.zeros(len(verts), dtype=bool)
        for step in range(int(fans.max(initial=0))):
            live = step < fans
            self.star_neighbors[base[live] + step] = head[cur[live]]
            self.star_faces[base[live] + step] = cur[live] // 4
            cur = turn[cur]
            short |= (cur == start) & (step + 1 < fans)
        if short.any():
            v = int(verts[np.argmax(short)])
            raise NonManifold(f"vertex {v} joins multiple face fans (bow tie)")

    # --- basic queries ------------------------------------------------------

    @property
    def face_count(self) -> int:
        return len(self.face_vertices)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def _vertex(self, v: int) -> int:
        """``v``, or :class:`ValueError` naming it unless it is a vertex id."""
        n = self.vertex_count
        if not 0 <= v < n:
            raise ValueError(f"vertex {v} is not a vertex id (mesh has {n} vertices)")
        return v

    def is_boundary_vertex(self, v: int) -> bool:
        return bool(self.boundary[self._vertex(v)])

    def is_referenced(self, v: int) -> bool:
        return bool(self.degrees[self._vertex(v)])

    @property
    def euler_characteristic(self) -> int:
        referenced = int(np.count_nonzero(self.degrees))
        return referenced - self.edge_count + self.face_count

    # --- stars -----------------------------------------------------------------

    def vertex_star(self, v: int):
        """Cyclically ordered neighbors of ``v`` and the fan of faces.

        For boundary vertices the neighbor sequence runs from one
        boundary neighbor to the other.  Raises :class:`ValueError` when
        ``v`` is not a vertex id.
        """
        lo, hi = self.star_offsets[self._vertex(v)], self.star_offsets[v + 1]
        faces = self.star_faces[lo:hi]
        return self.star_neighbors[lo:hi].tolist(), faces[faces >= 0].tolist()

    def interior_degrees_even(self):
        """Whether all interior vertices have even degree, plus offenders."""
        odd = (self.degrees % 2 == 1) & ~self.boundary
        offenders = np.flatnonzero(odd).tolist()
        return not offenders, offenders

    # --- strips -----------------------------------------------------------------

    def strip_sides(self):
        """Every strip as a run of half-edges, one per member face.

        Returns ``(sides, starts)``: strip ``i`` is
        ``sides[starts[i]:starts[i + 1]]`` (the last one runs to the
        end), its members in traversal order, each given by the
        half-edge ``h`` through which the strip leaves it towards the
        next member.  So member ``h // 4`` crosses its side pair
        ``h % 2``, entering by the opposite side ``h ^ 2``.  Strips come
        in order of their first (face, side pair), which they leave
        across side ``p + 2``.  A strip that wraps onto itself raises
        :class:`ClosedStripDetected`: "returns to it" when it closes or
        crosses that first face twice, "self-intersects" when it
        crosses another face twice.

        Leaving a face by half-edge ``h``, a strip leaves the next face
        by ``twin[h] ^ 2``.  Pointer jumping along that map gives, in
        about ``log2`` of the longest strip's length rounds, every
        half-edge's distance to the boundary ahead and the least node
        ``2 f + p`` (face ``f`` crossed through side pair ``p``) on
        that way; read from ``h ^ 2`` as well, the least node of the
        whole strip, which labels it.
        """
        # the jumps keep several arrays of all half-edges alive, which set
        # the peak memory of checking a net: 32-bit ids, updated in place
        index = np.int32 if len(self.twin) < 2**31 else np.intp
        ids = np.arange(len(self.twin), dtype=index)
        last = self.twin < 0
        reach = np.where(last, ids, self.twin.astype(index) ^ 2)
        steps = (~last).astype(index)
        low = 2 * (ids >> 2) + (ids & 1)
        np.minimum(low, low[reach], out=low)
        for _ in range(len(ids).bit_length()):
            if last[reach].all():
                break
            np.minimum(low, low[reach], out=low)
            steps += steps[reach]
            reach = reach[reach]
        label = np.minimum(low, low[ids ^ 2])
        closed = ~last[reach]
        # per node 2 f + p, its strip's label (node 2 f + p leaves by 4 f + p + 2)
        strip_of = label.reshape(-1, 4)[:, 2:].ravel()
        twice = strip_of[0::2] == strip_of[1::2]
        bad = np.concatenate([label[closed], strip_of[0::2][twice]])
        if bad.size:
            least = int(bad.min())
            f = least // 2
            if twice[f] or np.any(label[closed] == least):
                raise ClosedStripDetected(f"strip through face {f} returns to it")
            raise ClosedStripDetected(f"strip through face {f} self-intersects")
        # a strip runs forward across side p + 2 of its least node (f, p):
        # keep the half-edges that reach the boundary where that one does
        first = 4 * (label >> 1) + (label & 1) + 2
        sides = ids[reach == reach[first]]
        label = label[sides]
        count = np.bincount(label, minlength=2 * self.face_count)
        offsets = np.cumsum(count) - count
        ordered = np.empty(len(sides), dtype=np.intp)
        # ``steps`` from the entry side counts the members before each one
        ordered[offsets[label] + steps[sides ^ 2]] = sides
        return ordered, offsets[count > 0]

    # --- dual spanning tree --------------------------------------------------------

    def dual_spanning_tree(self, seed: int):
        """Breadth-first spanning tree of the face adjacency graph.

        Returns ``(face, parent, shared_edge)`` entries in visit order
        (the seed itself is omitted).  Neighbor ties break by ascending
        face id.  Raises :class:`ValueError` when ``seed`` is not a face
        id and :class:`DisconnectedMesh` when faces remain unreachable.
        """
        return list(map(tuple, self.dual_tree(seed).tolist()))

    def dual_tree(self, seed: int) -> np.ndarray:
        """:meth:`dual_spanning_tree` as an ``(F - 1, 3)`` array, built
        one BFS level at a time.

        A level lists its faces in the order a queue would visit them, so
        the next level holds the unseen neighbors of its faces in that
        order, each face's ascending, every face kept at its first
        occurrence, which is where a queue would have met it.
        """
        count = self.face_count
        if not 0 <= seed < count:
            raise ValueError(f"face {seed} is not a face id (mesh has {count} faces)")
        across = np.where(self.twin >= 0, self.twin // 4, count).reshape(-1, 4)
        ranked = np.argsort(across, axis=1, kind="stable")
        neighbors = np.take_along_axis(across, ranked, axis=1)
        shared = np.take_along_axis(self.face_edges, ranked, axis=1)
        # the boundary's stand-in id ``count`` is never visited
        seen = np.zeros(count + 1, dtype=bool)
        seen[[seed, count]] = True
        levels = [np.zeros((0, 3), dtype=np.intp)]
        frontier = np.array([seed], dtype=np.intp)
        while frontier.size:
            rows = neighbors[frontier]
            slots = np.flatnonzero(~seen[rows])
            faces = rows.ravel()[slots]
            order = np.argsort(faces, kind="stable")
            first = np.ones(len(faces), dtype=bool)
            first[1:] = np.diff(faces[order]) != 0
            slots = np.sort(slots[order[first]])
            parents, sides = frontier[slots // 4], slots % 4
            frontier = neighbors[parents, sides]
            seen[frontier] = True
            levels.append(np.stack([frontier, parents, shared[parents, sides]], axis=1))
        if not seen.all():
            missing = np.flatnonzero(~seen).tolist()
            raise DisconnectedMesh(f"faces {missing} unreachable from {seed}")
        return np.concatenate(levels)


def build(vertex_count: int, quads) -> QuadGraph:
    """Construct and validate a :class:`QuadGraph`."""
    return QuadGraph(vertex_count, quads)

"""Half-edge data structure for strongly regular quad meshes.

A quad graph is a cell complex all of whose faces are quadrilaterals,
subject to the usual strong regularity conditions: two faces share at
most one edge, no face is glued to itself, every edge has at most two
incident faces, and the faces around every vertex form a single fan.
Faces are re-oriented consistently during construction; meshes without a
consistent orientation are rejected.

Half-edge ids are assigned four per face (face ``f`` owns ids ``4 f ..
4 f + 3`` in cycle order), which keeps every derived traversal
deterministic.  Boundary half-edges are appended after all interior
ones and carry ``face = None``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from .errors import (
    ClosedStripDetected,
    DisconnectedMesh,
    NonManifold,
    NonOrientable,
    NotAQuad,
    NotStronglyRegular,
)


@dataclass
class HalfEdge:
    """Directed edge of the half-edge structure."""

    origin: int
    face: int | None
    next: int = -1
    twin: int = -1
    edge: int = -1

    @property
    def is_boundary(self) -> bool:
        return self.face is None


@dataclass
class Strip:
    """Maximal run of faces glued along a parallel pair of edges.

    ``faces`` lists the faces in traversal order and ``rails`` the
    corresponding opposite edge pair ``(l_i, r_i)`` of each face, where
    ``l_i`` faces the previous strip member and ``r_i`` the next one.
    """

    faces: list[int] = field(default_factory=list)
    rails: list[tuple[int, int]] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.faces)


class QuadGraph:
    """Combinatorics of a strongly regular quad mesh."""

    def __init__(self, vertex_count: int, quads) -> None:
        self.vertex_count = int(vertex_count)
        self.input_quads = [tuple(int(i) for i in q) for q in quads]
        self._validate_quads()
        oriented = self._orient_faces()
        self._build_half_edges(oriented)
        self._check_vertex_fans()

    # --- construction -----------------------------------------------------

    def _validate_quads(self) -> None:
        for f, quad in enumerate(self.input_quads):
            if len(quad) != 4:
                raise NotAQuad(f"face {f} has {len(quad)} vertices")
            if len(set(quad)) != 4:
                raise NotAQuad(f"face {f} repeats a vertex: {quad}")
            for v in quad:
                if not 0 <= v < self.vertex_count:
                    raise NotAQuad(f"face {f} references vertex {v}")

    def _orient_faces(self):
        """Flip faces until adjacent faces traverse shared edges oppositely."""
        quads = self.input_quads
        incident: dict[tuple[int, int], list[tuple[int, bool]]] = {}
        for f, quad in enumerate(quads):
            for k in range(4):
                u, v = quad[k], quad[(k + 1) % 4]
                key = (min(u, v), max(u, v))
                incident.setdefault(key, []).append((f, u < v))
        pair_seen: dict[tuple[int, int], tuple[int, int]] = {}
        for key, users in incident.items():
            if len(users) > 2:
                raise NonManifold(
                    f"edge {key} has {len(users)} incident faces"
                )
            faces = [f for f, _ in users]
            if len(faces) == 2:
                if faces[0] == faces[1]:
                    raise NotStronglyRegular(
                        f"face {faces[0]} is glued to itself along {key}"
                    )
                pair = (min(faces), max(faces))
                if pair in pair_seen:
                    raise NotStronglyRegular(
                        f"faces {pair} share edges {pair_seen[pair]} and {key}"
                    )
                pair_seen[pair] = key
        flip = [None] * len(quads)
        for start in range(len(quads)):
            if flip[start] is not None:
                continue
            flip[start] = False
            queue = deque([start])
            while queue:
                f = queue.popleft()
                for k in range(4):
                    u, v = quads[f][k], quads[f][(k + 1) % 4]
                    key = (min(u, v), max(u, v))
                    for g, g_dir in incident[key]:
                        if g == f:
                            continue
                        f_dir = (u < v) != flip[f]
                        need = not f_dir  # g must run the edge the other way
                        g_flip = (g_dir != need)
                        if flip[g] is None:
                            flip[g] = g_flip
                            queue.append(g)
                        elif flip[g] != g_flip:
                            raise NonOrientable(
                                f"faces {f} and {g} cannot be oriented "
                                f"consistently across edge {key}"
                            )
        return [
            tuple(reversed(q)) if flip[f] else q
            for f, q in enumerate(quads)
        ]

    def _build_half_edges(self, oriented) -> None:
        self.half_edges: list[HalfEdge] = []
        self.faces: list[tuple[int, int, int, int]] = []
        directed: dict[tuple[int, int], int] = {}
        for f, quad in enumerate(oriented):
            base = 4 * f
            for k in range(4):
                u, v = quad[k], quad[(k + 1) % 4]
                he = HalfEdge(origin=u, face=f, next=base + (k + 1) % 4)
                self.half_edges.append(he)
                if (u, v) in directed:
                    raise NonOrientable(
                        f"directed edge ({u}, {v}) appears twice"
                    )
                directed[(u, v)] = base + k
            self.faces.append((base, base + 1, base + 2, base + 3))

        # undirected edge ids in order of first appearance
        self.edges: list[tuple[int, int]] = []
        self._edge_index: dict[tuple[int, int], int] = {}
        for he_id, he in enumerate(self.half_edges):
            u, v = he.origin, self.half_edges[he.next].origin
            key = (min(u, v), max(u, v))
            if key not in self._edge_index:
                self._edge_index[key] = len(self.edges)
                self.edges.append(key)
            he.edge = self._edge_index[key]

        # twins; unmatched half-edges get boundary twins
        boundary_out: dict[int, int] = {}
        for (u, v), he_id in sorted(directed.items()):
            if (v, u) in directed:
                self.half_edges[he_id].twin = directed[(v, u)]
            else:
                b = HalfEdge(origin=v, face=None)
                b_id = len(self.half_edges)
                self.half_edges.append(b)
                b.twin = he_id
                b.edge = self.half_edges[he_id].edge
                self.half_edges[he_id].twin = b_id
                if v in boundary_out:
                    raise NonManifold(
                        f"vertex {v} lies on more than one boundary arc"
                    )
                boundary_out[v] = b_id
        for b_id in boundary_out.values():
            b = self.half_edges[b_id]
            dest = self.half_edges[b.twin].origin
            if dest not in boundary_out:  # pragma: no cover - safety net
                raise NonManifold(f"boundary breaks at vertex {dest}")
            b.next = boundary_out[dest]

        self._outgoing: dict[int, list[int]] = {}
        for he_id, he in enumerate(self.half_edges):
            self._outgoing.setdefault(he.origin, []).append(he_id)

        self._edge_faces: list[tuple[int | None, int | None]] = []
        for u, v in self.edges:
            he_id = directed.get((u, v), directed.get((v, u)))
            he = self.half_edges[he_id]
            self._edge_faces.append(
                (he.face, self.half_edges[he.twin].face)
            )

    def _check_vertex_fans(self) -> None:
        for v, outgoing in sorted(self._outgoing.items()):
            start = min(outgoing)
            seen = 1
            cur = self.rotate(start)
            while cur != start:
                seen += 1
                if seen > len(outgoing):
                    break
                cur = self.rotate(cur)
            if seen != len(outgoing):
                raise NonManifold(
                    f"vertex {v} joins multiple face fans (bow tie)"
                )

    # --- basic queries ------------------------------------------------------

    @property
    def face_count(self) -> int:
        return len(self.faces)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def rotate(self, he_id: int) -> int:
        """Next outgoing half-edge around the origin of ``he_id``."""
        return self.half_edges[self.half_edges[he_id].twin].next

    def dest(self, he_id: int) -> int:
        return self.half_edges[self.half_edges[he_id].twin].origin

    def face_vertices(self, f: int) -> tuple[int, int, int, int]:
        return tuple(self.half_edges[h].origin for h in self.faces[f])

    def face_edges(self, f: int) -> tuple[int, int, int, int]:
        return tuple(self.half_edges[h].edge for h in self.faces[f])

    def edge_vertices(self, e: int) -> tuple[int, int]:
        return self.edges[e]

    def edge_faces(self, e: int) -> tuple[int | None, int | None]:
        return self._edge_faces[e]

    def edge_id(self, u: int, v: int) -> int:
        return self._edge_index[(min(u, v), max(u, v))]

    def half_edge_in_face(self, f: int, e: int) -> int:
        """The half-edge of face ``f`` lying on edge ``e``."""
        for h in self.faces[f]:
            if self.half_edges[h].edge == e:
                return h
        raise KeyError(f"edge {e} does not bound face {f}")

    def opposite_edge(self, f: int, e: int) -> int:
        """Edge of face ``f`` opposite to its edge ``e``."""
        h = self.half_edge_in_face(f, e)
        k = self.faces[f].index(h)
        return self.half_edges[self.faces[f][(k + 2) % 4]].edge

    def outgoing_half_edges(self, v: int) -> list[int]:
        """Ids of all half-edges with origin ``v`` (interior and boundary)."""
        return sorted(self._outgoing.get(v, ()))

    def is_boundary_edge(self, e: int) -> bool:
        fa, fb = self._edge_faces[e]
        return fa is None or fb is None

    def is_boundary_vertex(self, v: int) -> bool:
        return any(
            self.half_edges[h].is_boundary for h in self._outgoing.get(v, ())
        )

    def is_referenced(self, v: int) -> bool:
        return v in self._outgoing

    def degree(self, v: int) -> int:
        return len(self._outgoing.get(v, ()))

    def interior_vertices(self):
        return [
            v
            for v in sorted(self._outgoing)
            if not self.is_boundary_vertex(v)
        ]

    @property
    def euler_characteristic(self) -> int:
        return len(self._outgoing) - len(self.edges) + len(self.faces)

    @property
    def is_disc(self) -> bool:
        return self.euler_characteristic == 1

    # --- stars -----------------------------------------------------------------

    def vertex_star(self, v: int):
        """Cyclically ordered neighbors of ``v`` and the fan of faces.

        For boundary vertices the walk starts at the outgoing boundary
        half-edge so the neighbor sequence runs from one boundary
        neighbor to the other.
        """
        outgoing = self._outgoing.get(v)
        if not outgoing:
            return [], []
        start = min(outgoing)
        for h in outgoing:
            if self.half_edges[h].is_boundary:
                start = h
                break
        order = [start]
        cur = self.rotate(start)
        while cur != start:
            order.append(cur)
            cur = self.rotate(cur)
        neighbors = [self.dest(h) for h in order]
        faces = [
            self.half_edges[h].face
            for h in order
            if self.half_edges[h].face is not None
        ]
        return neighbors, faces

    def interior_degrees_even(self):
        """Whether all interior vertices have even degree, plus offenders."""
        offenders = [
            v for v in self.interior_vertices() if self.degree(v) % 2 == 1
        ]
        return not offenders, offenders

    # --- strips -----------------------------------------------------------------

    def _pairings(self, f: int):
        h0, h1, h2, h3 = self.faces[f]
        e = [self.half_edges[h].edge for h in (h0, h1, h2, h3)]
        return ((e[0], e[2]), (e[1], e[3]))

    def _pairing_of(self, f: int, e: int) -> int:
        for p, rails in enumerate(self._pairings(f)):
            if e in rails:
                return p
        raise KeyError(f"edge {e} does not bound face {f}")

    def _walk_strip(self, f: int, exit_edge: int):
        """Faces and rails reached by repeatedly crossing ``exit_edge``."""
        faces, rails = [], []
        cur, exit_e = f, exit_edge
        while True:
            fa, fb = self._edge_faces[exit_e]
            nxt = fb if fa == cur else fa
            if nxt is None:
                return faces, rails, False
            if nxt == f:
                return faces, rails, True
            entry = exit_e
            exit_e = self.opposite_edge(nxt, entry)
            faces.append(nxt)
            rails.append((entry, exit_e))
            cur = nxt

    def strips(self) -> list[Strip]:
        """All strips of the complex; every face lies in exactly two.

        Raises :class:`ClosedStripDetected` when a strip wraps around
        onto itself (the complex is not simply connected then).
        """
        strips: list[Strip] = []
        visited: set[tuple[int, int]] = set()
        for f in range(len(self.faces)):
            for p, (ea, eb) in enumerate(self._pairings(f)):
                if (f, p) in visited:
                    continue
                back_faces, back_rails, closed_b = self._walk_strip(f, ea)
                fwd_faces, fwd_rails, closed_f = self._walk_strip(f, eb)
                if closed_b or closed_f:
                    raise ClosedStripDetected(
                        f"strip through face {f} returns to it"
                    )
                faces = back_faces[::-1] + [f] + fwd_faces
                if len(set(faces)) != len(faces):
                    raise ClosedStripDetected(
                        f"strip through face {f} self-intersects"
                    )
                rails = (
                    [(r, l) for l, r in back_rails[::-1]]
                    + [(ea, eb)]
                    + fwd_rails
                )
                strip = Strip(faces=faces, rails=rails)
                for g, (le, re) in zip(strip.faces, strip.rails):
                    slot = (g, self._pairing_of(g, le))
                    assert slot not in visited
                    visited.add(slot)
                strips.append(strip)
        return strips

    # --- dual spanning tree --------------------------------------------------------

    def face_neighbors(self, f: int):
        """Edge-adjacent faces of ``f`` as (neighbor, shared edge) pairs."""
        result = []
        for h in self.faces[f]:
            he = self.half_edges[h]
            other = self.half_edges[he.twin].face
            if other is not None:
                result.append((other, he.edge))
        return result

    def dual_spanning_tree(self, seed: int):
        """Breadth-first spanning tree of the face adjacency graph.

        Returns ``(face, parent, shared_edge)`` entries in visit order
        (the seed itself is omitted).  Neighbor ties break by ascending
        face id.  Raises :class:`DisconnectedMesh` when faces remain
        unreachable.
        """
        seen = {seed}
        tree = []
        queue = deque([seed])
        while queue:
            f = queue.popleft()
            for g, e in sorted(self.face_neighbors(f)):
                if g not in seen:
                    seen.add(g)
                    tree.append((g, f, e))
                    queue.append(g)
        if len(seen) != len(self.faces):
            missing = sorted(set(range(len(self.faces))) - seen)
            raise DisconnectedMesh(f"faces {missing} unreachable from {seed}")
        return tree


def build(vertex_count: int, quads) -> QuadGraph:
    """Construct and validate a :class:`QuadGraph`."""
    return QuadGraph(vertex_count, quads)

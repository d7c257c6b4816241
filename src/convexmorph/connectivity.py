"""Connectivity gates: 3-connectivity and internal 3-connectivity of plane
graphs, decided from the faces of the embedding.

Precondition: three_connected takes a rotation system, the counterclockwise
neighbour order of every vertex that PlaneGraph.rotation and adjacency()
return. It raises EmbeddingInvalid when that rotation is not a simple,
connected, genus-0 embedding (the PlaneGraph checks: symmetric, no loop or
repeated neighbour, connected, n - m + f = 2). An answer of False needs no
embedding, so a graph with n < 4 or a vertex of degree below 3 gets False
before the rotation is read.

Criterion (Chiba & Nishizeki 1985). A connected plane graph has a cut vertex
exactly when some face walk repeats a vertex, so a graph whose walks are all
cycles is 2-connected. In a 2-connected plane graph, {u, v} separates exactly
when a closed curve through u, v and two faces holding both of them has a
vertex on each side; that is, when more than two faces hold both u and v, or
exactly two do and uv is not an edge (an edge uv lies on exactly two faces,
and the curve around it encloses no vertex). So a 2-connected plane graph
with n >= 4 and minimum degree 3 is 3-connected exactly when the pairs of
vertices that share two faces are its m edges and no pair shares three.

_no_small_cut decides this on the diagonals of the faces, the pairs of
non-consecutive vertices of a walk: it answers False when a walk repeats a
vertex, when a diagonal is an edge, or when one diagonal lies on two
faces. That is the pair count. Consecutive walk vertices are edges, and
when every walk is a cycle each edge lies on exactly two faces as
consecutive vertices, so a pair that shares two or more faces and is not
an edge, and an edge on a third face, are each a diagonal caught above;
conversely, when none is caught, every edge shares exactly two faces and
every other pair at most one. A walk of three darts in a simple graph has
three distinct vertices and no diagonal, so the test skips triangles. It
costs O(sum of |f|^2 over the faces that are not triangles).

is_internally_3connected runs the same test on g plus an apex in the outer
face, joined to every outer vertex. When the outer walk is a cycle, the apex
triangulates the outer face: the faces of the apex graph are g's inner
faces plus one triangle per outer edge. The triangles have no diagonals,
and a diagonal of an inner face joins two vertices of g, an edge of the
apex graph exactly when it is one of g, so the test reads g's cached inner
walks and g's rotation only. When the outer walk repeats a vertex c, a
curve through the outer face and c meets the apex graph only at c and the
apex and has vertices on both sides, so the answer is False.
"""

from __future__ import annotations

from typing import Dict, Iterable, Sequence

from .plane_graph import PlaneGraph


def _no_small_cut(faces: Iterable[Sequence[int]],
                  adj: Dict[int, Sequence[int]]) -> bool:
    """Whether a connected plane graph with n >= 4, minimum degree 3,
    adjacency adj and the given face walks (as vertex sequences) is
    3-connected: no walk repeats a vertex, no face diagonal is an edge and
    no diagonal lies on two faces (see the module docstring). A triangle
    repeats no vertex and has no diagonal, so it is skipped."""
    diagonals = set()
    for f in faces:
        k = len(f)
        if k == 3:
            continue
        if len(set(f)) < k:
            return False            # a repeated vertex is a cut vertex
        for i in range(k - 2):
            u = f[i]
            nbrs = adj[u]
            # f[i] and f[j] are consecutive for j = i + 1, and for j = k - 1
            # when i = 0
            for j in range(i + 2, k - 1 if i == 0 else k):
                v = f[j]
                if v in nbrs:
                    return False
                pair = (u, v) if u < v else (v, u)
                if pair in diagonals:
                    return False
                diagonals.add(pair)
    return True


def three_connected(adj: Dict[int, Sequence[int]]) -> bool:
    """Whether the plane graph with rotation system adj has n >= 4 and no
    vertex cut of size at most 2 (see the module docstring)."""
    if len(adj) < 4 or any(len(ws) < 3 for ws in adj.values()):
        return False
    u = next(iter(adj))
    g = PlaneGraph(adj, (u, next(iter(adj[u]))))
    return _no_small_cut(map(g.face_vertices, range(len(g.faces))), adj)


def is_internally_3connected(g: PlaneGraph) -> bool:
    """Apex test: whether g plus a new vertex joined to every outer vertex is
    3-connected (see the module docstring)."""
    walk = g.outer_walk()
    outer = set(walk)
    if len(outer) < len(walk) or len(walk) < 3:
        return False
    # on a cycle every outer vertex has degree 2, plus 1 to the apex
    if any(len(ws) < 3 for v, ws in g.rotation.items() if v not in outer):
        return False
    # the apex triangles have no diagonals (see the module docstring)
    return _no_small_cut(map(g.face_vertices, g.inner_face_indices()),
                         g.rotation)

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
Counting the pairs face by face costs O(sum of |f|^2 over the faces).

is_internally_3connected runs the same count on g plus an apex in the outer
face, joined to every outer vertex. When the outer walk is a cycle, the apex
triangulates the outer face: the faces of the apex graph are g's inner
faces plus one triangle per outer edge, read from g's cached faces. When the
outer walk repeats a vertex c, a curve through the outer face and c meets
the apex graph only at c and the apex and has vertices on both sides, so the
answer is False.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations
from typing import Dict, Iterable, Sequence

from .plane_graph import PlaneGraph


def _no_small_cut(faces: Iterable[Sequence[int]], m: int) -> bool:
    """Whether a connected plane graph with n >= 4, minimum degree 3, m
    edges and the given face walks (as vertex sequences) is 3-connected."""
    shared = Counter()
    for f in faces:
        if len(set(f)) < len(f):
            return False            # a repeated vertex is a cut vertex
        shared.update(combinations(sorted(f), 2))
    faces_per_pair = Counter(shared.values())
    return max(faces_per_pair) <= 2 and faces_per_pair[2] == m


def three_connected(adj: Dict[int, Sequence[int]]) -> bool:
    """Whether the plane graph with rotation system adj has n >= 4 and no
    vertex cut of size at most 2 (see the module docstring)."""
    if len(adj) < 4 or any(len(ws) < 3 for ws in adj.values()):
        return False
    u = next(iter(adj))
    g = PlaneGraph(adj, (u, next(iter(adj[u]))))
    return _no_small_cut((g.face_vertices(i) for i in range(len(g.faces))),
                         g.m)


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
    apex = max(g.rotation) + 1
    faces = [g.face_vertices(i) for i in g.inner_face_indices()]
    faces += [(walk[i - 1], walk[i], apex) for i in range(len(walk))]
    return _no_small_cut(faces, g.m + len(walk))

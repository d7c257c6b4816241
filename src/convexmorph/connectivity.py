"""Connectivity gates: internal 3-connectivity, separation-pair
classification, and convex-drawability of plane graphs.

three_connected works on abstract adjacency maps, planar or not; everything
else takes a PlaneGraph. three_connected deletes each vertex v in turn and
runs one depth-first lowpoint pass over G - v to check that it is connected
and has no cut vertex, so it costs O(n*(n+m)). is_internally_3connected runs
it on the graph plus an apex joined to the outer face.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, Iterable, List, Set, Tuple

from .plane_graph import PlaneGraph


class Not2Connected(ValueError):
    """Operation requires a 2-connected input graph."""


class PairClass(Enum):
    EXTERNAL = "external"
    NON_EXTERNAL = "non_external"


class Drawability(Enum):
    STRICTLY_CONVEX_OK = "strictly_convex_ok"
    CONVEX_ONLY = "convex_only"
    NONE = "none"


@dataclass(frozen=True)
class SeparationPair:
    u: int
    v: int
    components: Tuple[frozenset, ...]
    classification: PairClass


def _components(adj: Dict[int, Iterable[int]], removed: Set[int]) -> List[Set[int]]:
    seen = set(removed)
    comps = []
    for s in adj:
        if s in seen:
            continue
        comp = {s}
        stack = [s]
        seen.add(s)
        while stack:
            x = stack.pop()
            for w in adj[x]:
                if w not in seen:
                    seen.add(w)
                    comp.add(w)
                    stack.append(w)
        comps.append(comp)
    return comps


def _biconnected_without(nbrs: List[List[int]], removed: int) -> bool:
    """Whether the graph on 0..n-1 minus the vertex `removed` is connected and
    has no cut vertex: one iterative DFS lowpoint pass (Tarjan 1972)."""
    n = len(nbrs)
    root = 1 if removed == 0 else 0
    disc = [0] * n          # DFS number, 0 while unvisited
    low = [0] * n
    disc[root] = low[root] = visited = 1
    root_children = 0
    stack = [(root, -1, iter(nbrs[root]))]
    while stack:
        x, parent, it = stack[-1]
        for w in it:
            if w == removed or w == parent:
                continue
            if disc[w]:
                if disc[w] < low[x]:
                    low[x] = disc[w]
            else:
                visited += 1
                disc[w] = low[w] = visited
                stack.append((w, x, iter(nbrs[w])))
                break
        else:
            stack.pop()
            if parent == root:
                # the root is a cut vertex when it has a second DFS child
                root_children += 1
                if root_children > 1:
                    return False
            elif parent >= 0:
                # no back edge from x's subtree climbs above parent
                if low[x] >= disc[parent]:
                    return False
                if low[x] < low[parent]:
                    low[parent] = low[x]
    return visited == n - 1


def three_connected(adj: Dict[int, Iterable[int]]) -> bool:
    """Whether the abstract graph has n >= 4 and no vertex cut of size at
    most 2.

    A cut {a, b} of G makes b a cut vertex of G - a, and a cut {a} leaves
    G - a disconnected; so G is 3-connected exactly when every G - v is
    connected and has no cut vertex. The minimum-degree test is a cheap early
    exit. Duplicate neighbour entries are ignored. O(n*(n+m)).
    """
    index = {v: i for i, v in enumerate(adj)}
    nbrs = [[index[w] for w in set(ws)] for ws in adj.values()]
    if len(nbrs) < 4 or any(len(ws) < 3 for ws in nbrs):
        return False
    return all(_biconnected_without(nbrs, v) for v in range(len(nbrs)))


def is_internally_3connected(g: PlaneGraph) -> bool:
    """Apex test: join a new vertex to all outer-face vertices and require the
    augmented abstract graph to be 3-connected."""
    adj = {v: set(ws) for v, ws in g.rotation.items()}
    outer = set(g.outer_walk())
    apex = max(adj) + 1
    adj[apex] = set(outer)
    for v in outer:
        adj[v].add(apex)
    return three_connected(adj)


def _is_two_connected(g: PlaneGraph) -> bool:
    adj = g.adjacency()
    if g.n < 3:
        return False
    for v in adj:
        if len(_components(adj, {v})) != 1:
            return False
    return True


def classify_separation_pairs(g: PlaneGraph) -> List[SeparationPair]:
    """All separation pairs of g, each labeled external or non-external.

    External means: both vertices on the outer face, the outer cycle splits at
    them into two arcs with at least one interior vertex each, each arc lies
    in one component of G-u-v, and those two components are distinct and the
    only ones."""
    if not _is_two_connected(g):
        raise Not2Connected("separation pairs are defined for 2-connected graphs")
    adj = g.adjacency()
    cycle = list(g.outer_walk())
    pos = {v: i for i, v in enumerate(cycle)}
    out = []
    ids = sorted(adj)
    for i, u in enumerate(ids):
        for v in ids[i + 1:]:
            comps = _components(adj, {u, v})
            if len(comps) < 2:
                continue
            comps_t = tuple(sorted((frozenset(c) for c in comps), key=min))
            cls = PairClass.NON_EXTERNAL
            if u in pos and v in pos:
                iu, iv = pos[u], pos[v]
                k = len(cycle)
                arc1 = [cycle[j % k] for j in range(iu + 1, iu + ((iv - iu) % k))]
                arc2 = [cycle[j % k] for j in range(iv + 1, iv + ((iu - iv) % k))]
                if arc1 and arc2:
                    c1 = next(c for c in comps if arc1[0] in c)
                    c2 = next(c for c in comps if arc2[0] in c)
                    if (all(w in c1 for w in arc1)
                            and all(w in c2 for w in arc2)
                            and c1 is not c2 and len(comps) == 2):
                        cls = PairClass.EXTERNAL
            out.append(SeparationPair(u, v, comps_t, cls))
    return out


def _smooth_internal_degree_two(g: PlaneGraph):
    """Repeatedly replace internal degree-2 vertices by an edge between their
    neighbors; None if that would ever create a parallel edge."""
    rot = {v: list(ws) for v, ws in g.rotation.items()}
    outer = set(g.outer_walk())
    while True:
        v = min((w for w in rot if w not in outer and len(rot[w]) == 2),
                default=None)
        if v is None:
            break
        a, b = rot[v]
        if b in rot[a]:
            return None
        rot[a][rot[a].index(v)] = b
        rot[b][rot[b].index(v)] = a
        del rot[v]
    return PlaneGraph({v: tuple(ws) for v, ws in rot.items()}, g.outer_dart)


def convex_drawability(g: PlaneGraph) -> Drawability:
    """Whether g admits a strictly convex drawing, only a convex one, or none."""
    if is_internally_3connected(g):
        return Drawability.STRICTLY_CONVEX_OK
    outer = set(g.outer_walk())
    if not any(v not in outer and g.degree(v) == 2 for v in g.rotation):
        return Drawability.NONE
    smoothed = _smooth_internal_degree_two(g)
    if smoothed is not None and is_internally_3connected(smoothed):
        return Drawability.CONVEX_ONLY
    return Drawability.NONE

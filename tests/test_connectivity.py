import random

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from convexmorph.plane_graph import (
    EmbeddingInvalid,
    PlaneGraph,
    build_plane_graph_from_points,
    rat,
)
from convexmorph.connectivity import (
    _no_small_cut,
    three_connected,
    is_internally_3connected,
)

from _instances import (
    hidden_component_drawing,
    random_augment_instance,
    random_triangulation,
)
from _oracles import (
    add_edge,
    apex_adjacency,
    brute_internally_3connected,
    brute_three_connected,
    dfs_three_connected,
    pair_count_no_small_cut,
)


def k4_graph():
    return PlaneGraph({1: (2, 4, 3), 2: (3, 4, 1), 3: (1, 4, 2), 4: (3, 1, 2)},
                      (1, 3))


def cycle(k):
    return PlaneGraph({i: ((i + 1) % k, (i - 1) % k) for i in range(k)}, (1, 0))


def octahedron_adj():
    # complement of the perfect matching {1-6, 2-5, 3-4}
    skip = {1: 6, 6: 1, 2: 5, 5: 2, 3: 4, 4: 3}
    return {v: [w for w in range(1, 7) if w != v and skip[v] != w]
            for v in range(1, 7)}


def hidden_component_graph():
    return hidden_component_drawing().graph


def _adj(edges):
    adj = {}
    for u, v in edges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    return adj


def _k4_edges(a, b, c, d):
    return [(a, b), (a, c), (a, d), (b, c), (b, d), (c, d)]


# graphs the random strategy below rarely draws, with the expected answer
REGRESSION_CASES = [
    # two K4s glued along the edge 3-4: the 2-cut {3, 4}
    (_adj(_k4_edges(1, 2, 3, 4) + _k4_edges(3, 4, 5, 6)), False),
    # minimum degree 3 but disconnected
    (_adj(_k4_edges(1, 2, 3, 4) + _k4_edges(5, 6, 7, 8)), False),
    # K3,3: non-planar and 3-connected
    (_adj([(u, v) for u in (1, 2, 3) for v in (4, 5, 6)]), True),
    # triangular prism
    (_adj([(1, 2), (2, 3), (3, 1), (4, 5), (5, 6), (6, 4),
           (1, 4), (2, 5), (3, 6)]), True),
    # the only 2-cut {8, 9} avoids the three smallest ids
    (_adj(_k4_edges(1, 2, 8, 9) + _k4_edges(3, 4, 8, 9)), False),
    # a repeated neighbour entry must not count towards the degree of 1
    ({1: (2, 3, 2), 2: (1, 3, 4), 3: (1, 2, 4), 4: (2, 3)}, False),
    ({1: (2, 3, 4, 2), 2: (1, 3, 4, 1), 3: (1, 2, 4), 4: (1, 2, 3)}, True),
]


# The DFS oracle decides any abstract graph, planar or not and in any
# neighbour order; the package's test needs a planar rotation system, so
# these abstract cases check the oracle that the plane-graph tests below use.
def test_three_connected_basics():
    k4 = {1: (2, 3, 4), 2: (1, 3, 4), 3: (1, 2, 4), 4: (1, 2, 3)}
    assert dfs_three_connected(k4)
    k4_minus = {1: (2, 3), 2: (1, 3, 4), 3: (1, 2, 4), 4: (2, 3)}
    assert not dfs_three_connected(k4_minus)
    assert dfs_three_connected(octahedron_adj())
    assert brute_three_connected(octahedron_adj())
    triangle = {1: (2, 3), 2: (1, 3), 3: (1, 2)}
    assert not dfs_three_connected(triangle)
    for adj, expected in REGRESSION_CASES:
        assert brute_three_connected(adj) == expected, adj
        assert dfs_three_connected(adj) == expected, adj


@given(st.integers(4, 9), st.randoms())
@settings(max_examples=120, deadline=None)
def test_three_connected_matches_oracles(n, rng):
    ids = list(range(n))
    pool = [(u, v) for i, u in enumerate(ids) for v in ids[i + 1:]]
    edges = [e for e in pool if rng.random() < 0.55]
    adj = {v: [] for v in ids}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    got = dfs_three_connected(adj)
    assert got == brute_three_connected(adj)
    g = nx.Graph()
    g.add_nodes_from(ids)
    g.add_edges_from(edges)
    assert got == (nx.node_connectivity(g) >= 3)


def _nx_three_connected(adj):
    g = nx.Graph()
    g.add_nodes_from(adj)
    g.add_edges_from((v, w) for v, ws in adj.items() for w in ws)
    return len(adj) >= 4 and nx.node_connectivity(g) >= 3


def _first_i3c_breaking_removal(g):
    """g minus its first inner edge whose removal leaves a 2-cut in the
    apex graph, as networkx judges it."""
    outer = g.outer_walk()
    hull = {frozenset((outer[i - 1], outer[i])) for i in range(len(outer))}
    for u, v in sorted(g.edges()):
        if frozenset((u, v)) in hull:
            continue
        try:
            g2 = g.remove_edge(u, v)
        except EmbeddingInvalid:
            continue
        apex_adj = apex_adjacency(g2.adjacency(), g2.outer_walk())
        if not _nx_three_connected(apex_adj):
            return g2
    raise AssertionError("no inner edge removal creates a 2-cut")


@pytest.mark.parametrize("seed", range(3))
def test_connectivity_matches_networkx_on_plane_graphs(seed):
    rng = random.Random(seed)
    tri = random_triangulation(rng, 30, 60).graph
    sparse = random_augment_instance(rng, 30, 60).graph
    cases = [tri, sparse, _first_i3c_breaking_removal(sparse)]
    for g in cases:
        adj = g.adjacency()
        assert three_connected(adj) == _nx_three_connected(adj)
        apex_adj = apex_adjacency(adj, g.outer_walk())
        assert is_internally_3connected(g) == _nx_three_connected(apex_adj)
    assert is_internally_3connected(tri) and three_connected(tri.adjacency())
    assert not is_internally_3connected(cases[-1])


def test_internally_3connected_examples():
    assert is_internally_3connected(k4_graph())
    # 4-cycle: apex construction gives the wheel W4
    assert is_internally_3connected(cycle(4))
    assert not is_internally_3connected(hidden_component_graph())


@given(st.integers(4, 9))
@settings(max_examples=20, deadline=None)
def test_internally_3connected_cycles_match_brute(k):
    g = cycle(k)
    assert is_internally_3connected(g) == \
        brute_internally_3connected(g.adjacency(), g.outer_walk())


def test_inner_edge_insertion_preserves_i3c():
    # chordless cycles are internally 3-connected; adding chords keeps that
    for k in (5, 6, 8):
        g = cycle(k)
        assert is_internally_3connected(g)
        inner = g.inner_face_indices()[0]
        walk = g.face_vertices(inner)
        for off in range(2, k - 1):
            u, v = walk[0], walk[off]
            g2 = add_edge(g, u, v, 1, 1)
            assert is_internally_3connected(g2)
            assert brute_internally_3connected(g2.adjacency(), g2.outer_walk())


def _drawn(coords, edges):
    return build_plane_graph_from_points(
        {v: (rat(x), rat(y)) for v, (x, y) in coords.items()}, edges)


def _random_plane_graph(rng, n):
    """A triangulation on n points with up to half of its edges deleted,
    each deletion kept only while the graph stays connected: often not
    2-connected, with degree-1 and degree-2 vertices."""
    d = random_triangulation(rng, n, n, 12)
    edges = sorted(d.graph.edges())
    rng.shuffle(edges)
    g = d.graph
    for _ in range(rng.randrange(len(edges) // 2 + 1)):
        u, v = edges.pop()
        if g.degree(u) > 1 and g.degree(v) > 1:
            try:
                g = build_plane_graph_from_points(d.coords, edges)
                continue
            except EmbeddingInvalid:    # disconnected
                pass
        edges.insert(0, (u, v))
    return g


@given(st.integers(4, 14), st.integers(0, 2**32))
@settings(max_examples=150, deadline=None)
def test_face_gates_match_oracles_on_plane_graphs(n, seed):
    g = _random_plane_graph(random.Random(seed), n)
    adj, outer = g.adjacency(), g.outer_walk()
    got = three_connected(adj)
    assert got == brute_three_connected(adj) == dfs_three_connected(adj)
    got = is_internally_3connected(g)
    assert got == brute_internally_3connected(adj, outer)
    assert got == dfs_three_connected(apex_adjacency(adj, outer))
    # the diagonal test answers as the pair count, on g's walks and on the
    # apex graph's, read from the darts rather than the cached walks
    walks = [tuple(t[0] for t in f) for f in g.faces]
    assert _no_small_cut(walks, adj) == pair_count_no_small_cut(walks, g.m)
    if len(set(outer)) == len(outer):
        apex = max(adj) + 1
        faces = [walks[i] for i in g.inner_face_indices()]
        faces += [(outer[i - 1], outer[i], apex) for i in range(len(outer))]
        assert _no_small_cut(faces, apex_adjacency(adj, outer)) == \
            pair_count_no_small_cut(faces, g.m + len(outer))


# embedded cases: (graph, three_connected, is_internally_3connected)
EMBEDDED_CASES = {
    # two K4s glued along the edge 3-4: uv is an edge, but the outer face
    # holds both ends as well, so {3, 4} is a 2-cut that the apex repairs
    "glued_k4s": (_drawn({1: (-6, 3), 2: (-2, 3), 3: (0, 0), 4: (0, 6),
                          5: (6, 3), 6: (2, 3)},
                         _k4_edges(1, 2, 3, 4)
                         + [(3, 5), (3, 6), (4, 5), (4, 6), (5, 6)]),
                  False, True),
    # three diamonds between 1 and 2: the non-edge {1, 2} lies on three
    # faces while every edge lies on exactly two
    "three_diamonds": (_drawn({1: (0, 10), 2: (0, -10), 3: (-7, 0),
                               4: (-5, 0), 5: (-1, 0), 6: (1, 0), 7: (5, 0),
                               8: (7, 0)},
                              [e for a, b in ((3, 4), (5, 6), (7, 8))
                               for e in ((1, a), (1, b), (a, b), (a, 2),
                                         (b, 2))]),
                       False, False),
    # two diamonds between 1 and 2: the non-edge {1, 2} lies on exactly two
    # faces, the quadrilateral between the diamonds and the outer face, and
    # no diagonal is an edge; the apex splits the outer face into triangles
    "two_diamonds": (_drawn({1: (0, 10), 2: (0, -10), 3: (-5, 0),
                             4: (-1, 0), 5: (1, 0), 6: (5, 0)},
                            [e for a, b in ((3, 4), (5, 6))
                             for e in ((1, a), (1, b), (a, b), (a, 2),
                                       (b, 2))]),
                     False, True),
    # K4 with its inner edge 1-4 subdivided by the degree-2 vertex 5
    "subdivided_inner_edge": (
        PlaneGraph({1: (2, 5, 3), 2: (3, 4, 1), 3: (1, 4, 2), 4: (3, 5, 2),
                    5: (1, 4)}, (1, 3)), False, False),
    # K4 with its outer edge 1-2 subdivided by vertex 5: the apex lifts 5
    # to degree 3
    "subdivided_outer_edge": (
        _drawn({1: (0, 0), 2: (12, 0), 3: (6, 12), 4: (6, 4), 5: (6, -1)},
               [(1, 5), (5, 2), (1, 3), (2, 3), (1, 4), (2, 4), (3, 4)]),
        False, True),
    "prism": (_drawn({1: (0, 0), 2: (12, 0), 3: (6, 10), 4: (4, 3),
                      5: (8, 3), 6: (6, 6)},
                     [(1, 2), (2, 3), (3, 1), (4, 5), (5, 6), (6, 4),
                      (1, 4), (2, 5), (3, 6)]), True, True),
    "octahedron": (_drawn({1: (0, 0), 2: (12, 0), 3: (6, 12), 4: (6, 2),
                           5: (8, 6), 6: (4, 6)},
                          [(1, 2), (2, 3), (3, 1), (4, 5), (5, 6), (6, 4),
                           (1, 4), (2, 4), (2, 5), (3, 5), (3, 6), (1, 6)]),
                   True, True),
    # the apex makes the wheel W4
    "four_cycle": (cycle(4), False, True),
    # two triangles sharing vertex 1, which the outer walk visits twice
    "outer_cut_vertex": (_drawn({1: (0, 0), 2: (-4, -2), 3: (-4, 2),
                                 4: (4, -2), 5: (4, 2)},
                                [(1, 2), (2, 3), (3, 1), (1, 4), (4, 5),
                                 (5, 1)]), False, False),
    "hidden_component": (hidden_component_graph(), False, False),
}


@pytest.mark.parametrize("name", sorted(EMBEDDED_CASES))
def test_face_gates_on_embedded_cases(name):
    g, tc, i3c = EMBEDDED_CASES[name]
    adj = g.adjacency()
    assert three_connected(adj) == tc == brute_three_connected(adj)
    assert is_internally_3connected(g) == i3c == \
        brute_internally_3connected(adj, g.outer_walk())


def test_three_connected_rejects_an_invalid_rotation():
    k4 = k4_graph().rotation
    for bad in (
            # K4 with the rotation at 1 reversed: genus 1
            {**k4, 1: tuple(reversed(k4[1]))},
            # K3,3 has no planar rotation
            _adj([(u, v) for u in (1, 2, 3) for v in (4, 5, 6)]),
            # two disjoint K4s
            _adj(_k4_edges(1, 2, 3, 4) + _k4_edges(5, 6, 7, 8)),
            # a repeated neighbour
            {1: (2, 3, 4, 2), 2: (1, 3, 4, 1), 3: (1, 2, 4), 4: (1, 2, 3)}):
        with pytest.raises(EmbeddingInvalid):
            three_connected(bad)
    # a vertex of degree 2 answers False before the rotation is read
    k33_subdivided = _adj([(u, v) for u in (1, 2, 3) for v in (4, 5, 6)
                           if (u, v) != (1, 4)] + [(1, 7), (7, 4)])
    assert not three_connected(k33_subdivided)

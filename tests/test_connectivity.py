import random

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from convexmorph.plane_graph import (
    EmbeddingInvalid,
    PlaneGraph,
    build_plane_graph_from_points,
)
from convexmorph.connectivity import (
    Not2Connected,
    PairClass,
    Drawability,
    SeparationPair,
    three_connected,
    is_internally_3connected,
    classify_separation_pairs,
    convex_drawability,
)

from _instances import (
    hidden_component_drawing,
    random_augment_instance,
    random_triangulation,
)
from _oracles import (
    apex_adjacency,
    brute_internally_3connected,
    brute_three_connected,
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


def test_three_connected_basics():
    k4 = {1: (2, 3, 4), 2: (1, 3, 4), 3: (1, 2, 4), 4: (1, 2, 3)}
    assert three_connected(k4)
    k4_minus = {1: (2, 3), 2: (1, 3, 4), 3: (1, 2, 4), 4: (2, 3)}
    assert not three_connected(k4_minus)
    assert three_connected(octahedron_adj())
    assert brute_three_connected(octahedron_adj())
    assert not three_connected({1: (2, 3), 2: (1, 3), 3: (1, 2)})  # triangle
    for adj, expected in REGRESSION_CASES:
        assert brute_three_connected(adj) == expected, adj
        assert three_connected(adj) == expected, adj


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
    got = three_connected(adj)
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


def test_classify_requires_2connected():
    path = PlaneGraph({1: (2,), 2: (1, 3), 3: (2,)}, (1, 2))
    with pytest.raises(Not2Connected):
        classify_separation_pairs(path)


def test_classify_square():
    pairs = classify_separation_pairs(cycle(4))
    sep = {(p.u, p.v): p for p in pairs}
    assert set(sep) == {(0, 2), (1, 3)}
    for p in sep.values():
        assert p.classification is PairClass.EXTERNAL
        assert len(p.components) == 2
        assert all(len(c) == 1 for c in p.components)


def test_classify_three_connected_empty():
    assert classify_separation_pairs(k4_graph()) == []


def test_classify_external_with_chord():
    # hexagon with a long chord: removing its ends leaves two outer arcs
    coords = {1: (0, 0), 2: (2, -1), 3: (4, 0), 4: (4, 3), 5: (2, 4), 6: (0, 3)}
    edges = [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 1), (1, 4)]
    g = build_plane_graph_from_points(coords, edges)
    pairs = classify_separation_pairs(g)
    assert {(p.u, p.v) for p in pairs} == \
        {(1, 3), (1, 4), (1, 5), (2, 4), (4, 6)}
    p = next(q for q in pairs if (q.u, q.v) == (1, 4))
    assert p.classification is PairClass.EXTERNAL
    assert set(map(frozenset, p.components)) == {frozenset({2, 3}), frozenset({5, 6})}
    # every external pair: two components, each touching the outer face
    outer = set(g.outer_walk())
    for q in pairs:
        if q.classification is PairClass.EXTERNAL:
            assert len(q.components) == 2
            assert all(c & outer for c in q.components)


def test_classify_non_external_pocket():
    g = hidden_component_graph()
    pairs = classify_separation_pairs(g)
    sep = {(p.u, p.v): p for p in pairs}
    assert (1, 2) in sep
    p = sep[(1, 2)]
    assert p.classification is PairClass.NON_EXTERNAL
    assert frozenset({5, 6}) in p.components


def test_convex_drawability_classes():
    assert convex_drawability(k4_graph()) is Drawability.STRICTLY_CONVEX_OK
    # subdivide the inner edge 1-4 of K4 with vertex 5
    g = PlaneGraph({1: (2, 5, 3), 2: (3, 4, 1), 3: (1, 4, 2), 4: (3, 5, 2),
                    5: (1, 4)}, (1, 3))
    assert convex_drawability(g) is Drawability.CONVEX_ONLY
    # replace inner edge 1-4 by two parallel 2-paths: smoothing doubles 1-4
    h = PlaneGraph({1: (2, 6, 5, 3), 2: (3, 4, 1), 3: (1, 4, 2),
                    4: (3, 5, 6, 2), 5: (1, 4), 6: (4, 1)}, (1, 3))
    assert convex_drawability(h) is Drawability.NONE
    # not internally 3-connected and nothing to smooth
    assert convex_drawability(hidden_component_graph()) is Drawability.NONE


def test_inner_edge_insertion_preserves_i3c():
    # chordless cycles are internally 3-connected; adding chords keeps that
    for k in (5, 6, 8):
        g = cycle(k)
        assert is_internally_3connected(g)
        inner = g.inner_face_indices()[0]
        walk = g.face_vertices(inner)
        for off in range(2, k - 1):
            u, v = walk[0], walk[off]
            g2 = g.add_edge(u, v, u_pos=1, v_pos=1)
            assert is_internally_3connected(g2)
            assert brute_internally_3connected(g2.adjacency(), g2.outer_walk())

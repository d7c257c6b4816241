import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, event, example, given, settings, strategies as st

from convexmorph.plane_graph import (
    PlaneGraph,
    Drawing,
    AngleKind,
    AngleRef,
    rat,
    sign_of,
    orientation,
    angle_status_points,
    internal_reflex_angles,
    is_strictly_convex,
    is_convex_outer,
    convex_hull,
    shear,
    straddles,
    choose_safe_shear,
    drawing_is_planar,
    segments_planar,
    validate_drawing,
    build_plane_graph_from_points,
    EmbeddingInvalid,
    DegenerateAngle,
    AllCollinear,
    NoValidShear,
    NotPlanarInput,
)

from convexmorph.connectivity import is_internally_3connected
from convexmorph.monotone_augment import augment_y_monotone
from convexmorph.morph_engine import _hull_gaps
from convexmorph.plane_graph import (
    _SHEAR_LADDER, _ccw_order, _coarsest_dyadic, integer_points)

from _oracles import (
    add_edge,
    add_vertex,
    brute_area2,
    brute_hull_boundary_ids,
    brute_internally_3connected,
    brute_planar,
    brute_rotations_realized,
    brute_strictly_convex,
    ccw_order_sort,
    choose_safe_shear_fraction,
    choose_safe_shear_scan,
    convex_hull_reinsert,
    embed_by_area,
    mirrored,
    transposed,
    validate_face_orientations,
)
from _instances import (
    dent_instance, pocket_instance, random_augment_instance,
    random_triangulation)
from test_bench_outputs import DIGESTS, bench_drawing


# -- fixtures -----------------------------------------------------------------

def k4():
    # triangle 1,2,3 with center 4
    rotation = {
        1: (2, 4, 3),
        2: (3, 4, 1),
        3: (1, 4, 2),
        4: (3, 1, 2),
    }
    g = PlaneGraph(rotation, (1, 3))
    coords = {1: (0, 0), 2: (4, 0), 3: (2, 4), 4: (2, 1)}
    return Drawing(g, coords)


def cycle_graph(pts):
    """Plane cycle 0..k-1 counterclockwise around coordinates pts."""
    k = len(pts)
    rotation = {i: ((i + 1) % k, (i - 1) % k) for i in range(k)}
    g = PlaneGraph(rotation, (1, 0))
    return Drawing(g, dict(enumerate(pts)))


def notch_hexagon():
    # counterclockwise hexagon whose inner angle at vertex 2 is reflex:
    # the apex (1,1) pokes into the face, both neighbors below it
    return cycle_graph([(-1, 0), (0, 0), (1, 1), (2, 0), (3, 0), (1, 3)])


# -- scalars -------------------------------------------------------------------

def test_rat_and_sign():
    assert rat(1, 3) + rat(2, 3) == 1
    assert sign_of(rat(-5, 7)) == -1
    assert sign_of(rat(0)) == 0
    assert sign_of(1e-12) == 1
    assert sign_of(1e-3) == 1
    assert sign_of(-2.5) == -1


def test_rat_takes_a_float_as_the_rational_it_denotes():
    assert rat(0.1) == Fraction(0.1) != Fraction(1, 10)
    assert rat(0.375) == Fraction(3, 8)
    assert rat(-2.5, 3) == Fraction(-5, 6)


def test_orientation():
    assert orientation((0, 0), (1, 0), (0, 1)) == 1
    assert orientation((0, 0), (0, 1), (1, 0)) == -1
    assert orientation((0, 0), (1, 1), (2, 2)) == 0


# -- embedding and face tracing -------------------------------------------------

def test_k4_faces():
    d = k4()
    g = d.graph
    assert g.n == 4 and g.m == 6
    faces = g.faces
    assert len(faces) == 4
    assert g.n - g.m + len(faces) == 2
    assert sum(len(f) for f in faces) == 2 * g.m
    walks = {frozenset(g.face_vertices(i)) for i in range(4)}
    assert walks == {frozenset({1, 3, 2}), frozenset({1, 2, 4}),
                     frozenset({2, 3, 4}), frozenset({1, 4, 3})}
    assert g.outer_walk() == (1, 3, 2)
    validate_drawing(d)


def test_chorded_square_faces():
    # square 1,2,3,4 ccw with chord 1-3
    rotation = {1: (2, 3, 4), 2: (3, 1), 3: (4, 1, 2), 4: (1, 3)}
    g = PlaneGraph(rotation, (1, 4))
    assert len(g.faces) == 3
    inner = {frozenset(g.face_vertices(i)) for i in g.inner_face_indices()}
    assert inner == {frozenset({1, 2, 3}), frozenset({1, 3, 4})}
    assert set(g.outer_walk()) == {1, 2, 3, 4}


def dart_walks(g):
    """The vertex walk of every face, read from its darts."""
    return [tuple(t[0] for t in darts) for darts in g.faces]


def test_face_walks_are_cached():
    # a graph from points, with another outer face, without an edge, without
    # a vertex, and augmented: each face's walk is its darts' tails, built
    # once
    d = random_augment_instance(random.Random(5))
    d = shear(d, 1, choose_safe_shear(d, 1))
    g = d.graph
    aug = augment_y_monotone(d)
    assert aug.m > g.m
    inner = g.inner_face_indices()[0]
    moved = g.with_outer(g.faces[inner][0])
    u = next(v for v in g.rotation if v not in g.outer_walk())
    for h in (g, moved, g.remove_edge(*g.edges()[0]), g.remove_vertex([u]),
              aug):
        walks = dart_walks(h)
        assert len(walks) == len(h.faces)
        for i, walk in enumerate(walks):
            assert h.face_vertices(i) == walk
            assert h.face_vertices(i) is h.face_vertices(i)
    assert moved.outer_walk() == dart_walks(g)[inner]
    assert all(moved.face_vertices(i) is g.face_vertices(i)
               for i in range(len(g.faces)))


@pytest.mark.parametrize("coords, edges", [
    # a path: its one walk runs out and back
    ({1: (0, 0), 2: (1, 0), 3: (2, 1)}, [(1, 2), (2, 3)]),
    # two triangles sharing the cut vertex 1, which the outer walk repeats
    ({1: (0, 0), 2: (2, -1), 3: (2, 1), 4: (-2, 1), 5: (-2, -1)},
     [(1, 2), (2, 3), (3, 1), (1, 4), (4, 5), (5, 1)]),
])
def test_faces_are_the_darts_of_walks_that_repeat_a_vertex(coords, edges):
    # each face's darts join its walk's consecutive vertices, the dart
    # after (u, v) leaves v towards the neighbour before u in v's rotation,
    # and every dart is on exactly the face face_of_dart names
    g = build_plane_graph_from_points(coords, edges)
    walks = [g.face_vertices(fi) for fi in range(len(g.faces))]
    assert any(len(set(w)) < len(w) for w in walks)
    face = {}
    for fi, (walk, darts) in enumerate(zip(walks, g.faces)):
        assert darts == tuple(zip(walk, walk[1:] + walk[:1]))
        for (u, v), (tail, w) in zip(darts, darts[1:] + darts[:1]):
            nbrs = g.rotation[v]
            assert tail == v and w == nbrs[nbrs.index(u) - 1]
        for dart in darts:
            assert dart not in face and g.face_of_dart(dart) == fi
            face[dart] = fi
    assert set(face) == {(u, v) for u in g.rotation for v in g.rotation[u]}


def test_embedding_rejects_bad_rotations():
    with pytest.raises(EmbeddingInvalid):
        PlaneGraph({1: (2,), 2: ()}, (1, 2))  # asymmetric
    with pytest.raises(EmbeddingInvalid):
        PlaneGraph({1: (2,), 2: (1,), 3: (4,), 4: (3,)}, (1, 2))  # disconnected
    with pytest.raises(EmbeddingInvalid):
        PlaneGraph({1: (1, 2), 2: (1,)}, (1, 2))  # self-loop
    with pytest.raises(EmbeddingInvalid):
        PlaneGraph({1: (2, 2), 2: (1, 1)}, (1, 2))  # parallel edge
    # twisting one rotation of K4 breaks the Euler count
    rotation = {1: (2, 4, 3), 2: (3, 4, 1), 3: (1, 4, 2), 4: (3, 2, 1)}
    with pytest.raises(EmbeddingInvalid):
        PlaneGraph(rotation, (1, 3))


def test_embedding_names_each_defect():
    with pytest.raises(EmbeddingInvalid, match="empty graph"):
        PlaneGraph({}, (1, 2))
    with pytest.raises(EmbeddingInvalid, match="dangling neighbor 3 at 1"):
        PlaneGraph({1: (2, 3), 2: (1,)}, (1, 2))
    with pytest.raises(EmbeddingInvalid, match=r"outer dart \(1, 3\)"):
        PlaneGraph({1: (2,), 2: (1,)}, (1, 3))
    with pytest.raises(EmbeddingInvalid, match="do not match vertex set"):
        Drawing(k4().graph, {1: (0, 0), 2: (4, 0), 3: (2, 4)})


@pytest.mark.parametrize("edges", [[(2, 3)], [(1, 2)]])
def test_built_graph_with_an_edgeless_vertex_is_not_connected(edges):
    # whether or not the edgeless vertex comes first, the embedding names
    # the defect, so a caller's except ValueError catches it
    coords = {1: (0, 0), 2: (1, 0), 3: (2, 2)}
    with pytest.raises(EmbeddingInvalid, match="graph is not connected"):
        build_plane_graph_from_points(coords, edges)


def test_edit_operations_roundtrip():
    d = k4()
    g = d.graph
    g2 = g.remove_edge(1, 4)
    assert not g2.has_edge(1, 4) and g2.m == 5
    g3 = add_edge(g2, 1, 4, 1, 1)
    assert g3.rotation == g.rotation
    g4 = g.remove_vertex((4,))
    assert g4.n == 3 and g4.m == 3
    back = add_vertex(g4, 4, [(3, 1), (1, 1), (2, 1)])
    assert back.rotation == g.rotation


def test_removal_moves_the_outer_dart_off_what_it_removes():
    # the outer walk of K4 is 1, 3, 2; its dart (1, 3) moves to the first
    # walk dart that survives the removal
    g = k4().graph
    assert g.outer_dart == (1, 3)
    no_edge = g.remove_edge(1, 3)
    assert no_edge.outer_dart == (3, 2)
    assert set(no_edge.outer_walk()) == {1, 2, 3, 4}
    no_vertex = g.remove_vertex((1,))
    assert no_vertex.outer_dart == (3, 2)
    assert set(no_vertex.outer_walk()) == {2, 3, 4}
    # a dart the removal leaves alone stays
    assert g.remove_edge(1, 4).outer_dart == (1, 3)
    assert g.remove_vertex((4,)).outer_dart == (1, 3)


@pytest.mark.parametrize("seed", range(8))
def test_removing_vertices_at_once_matches_one_at_a_time(seed):
    # the graph and its outer dart, also where the dart runs through a
    # removed vertex, are those of removing them one by one in order
    rng = random.Random(seed)
    g = random_triangulation(rng, 10, 16).graph
    tried = 0
    for _ in range(40):
        outer = g.outer_walk()
        gone = rng.sample(outer, 2) + rng.sample(sorted(g.rotation), 1)
        try:
            one_by_one = g
            for v in dict.fromkeys(gone):
                one_by_one = one_by_one.remove_vertex((v,))
        except EmbeddingInvalid:
            continue
        at_once = g.remove_vertex(gone)
        assert at_once == one_by_one
        tried += 1
    assert tried >= 10


def test_mirrored_flips_faces():
    d = k4()
    m = mirrored(d.graph)
    assert m.outer_dart == (3, 1)
    assert set(m.outer_walk()) == {1, 2, 3}
    # mirroring the drawing along x matches the mirrored embedding
    md = Drawing(m, {v: (-p[0], p[1]) for v, p in d.coords.items()})
    validate_drawing(md)


# -- angles ---------------------------------------------------------------------

def angle_statuses(d):
    """The kind of every face angle of d, outer face included."""
    out = {}
    for fi in range(len(d.graph.faces)):
        walk = [d.coords[v] for v in d.graph.face_vertices(fi)]
        k = len(walk)
        for pos in range(k):
            out[AngleRef(fi, pos)] = angle_status_points(
                walk[pos - 1], walk[pos], walk[(pos + 1) % k])
    return out


def test_angle_convex_straight_reflex():
    assert angle_status_points((0, 0), (1, 0), (1, 1)) is AngleKind.STRICTLY_CONVEX
    assert angle_status_points((0, 0), (1, 0), (2, 0)) is AngleKind.STRAIGHT
    assert angle_status_points((0, 0), (1, 0), (2, -1)) is AngleKind.REFLEX


def test_angle_degenerate():
    with pytest.raises(DegenerateAngle):
        angle_status_points((1, 1), (1, 1), (2, 0))
    with pytest.raises(DegenerateAngle):
        # zero-area spike folding straight back
        angle_status_points((0, 0), (2, 0), (1, 0))


# a triangle on 1, 2, 3: in either face walk, vertex 2 sits between 1 and 3
TRIANGLE = PlaneGraph({1: (2, 3), 2: (3, 1), 3: (1, 2)}, (1, 2))


def straddled_axes(g, pts, ref):
    """The axes along which the face neighbors of angle ref straddle it."""
    return {axis for axis in (0, 1) if straddles(g, pts, ref, axis)}


def test_straddles_on_each_axis():
    walk = TRIANGLE.face_vertices(0)
    ref = AngleRef(0, walk.index(2))
    for a, v, b, axes in (
            # apex below both neighbors and straddled in x
            ((1, 1), (0, 0), (-1, 1), {0}),
            # straddled in y only
            ((2, -1), (0, 0), (2, 1), {1}),
            ((1, 2), (0, 0), (-2, -1), {0, 1}),
            # a neighbor level with the apex straddles on neither axis
            ((2, 0), (0, 0), (0, 2), set())):
        assert angle_status_points(a, v, b) is AngleKind.REFLEX
        pts = {1: a, 2: v, 3: b}
        assert straddled_axes(TRIANGLE, pts, ref) == axes


def test_notch_hexagon_apex():
    d = notch_hexagon()
    g = d.graph
    inner = [i for i in g.inner_face_indices()]
    assert len(inner) == 1
    walk = g.face_vertices(inner[0])
    pos = walk.index(2)  # vertex at (1,1)
    ref = AngleRef(inner[0], pos)
    assert angle_statuses(d)[ref] is AngleKind.REFLEX
    # both neighbors lie below the apex, one on each side of it in x
    assert straddled_axes(g, d.ints, ref) == {0}
    assert all(d.coords[walk[(pos + i) % len(walk)]][1] < d.coords[2][1]
               for i in (-1, 1))
    # seen from the outer face, the same corner is strictly convex
    owalk = g.outer_walk()
    opos = owalk.index(2)
    ost = angle_statuses(d)[AngleRef(g.outer_face_index, opos)]
    assert ost is AngleKind.STRICTLY_CONVEX
    refl = internal_reflex_angles(d)
    assert len(refl) == 1 and g.face_vertices(inner[0])[refl[0].pos] == 2


def test_transpose_swaps_straddle_kinds():
    d = notch_hexagon()
    t = transposed(d)
    validate_drawing(t)
    inner = t.graph.inner_face_indices()
    assert len(inner) == 1
    walk = t.graph.face_vertices(inner[0])
    ref = AngleRef(inner[0], walk.index(2))
    assert angle_statuses(t)[ref] is AngleKind.REFLEX
    assert straddled_axes(t.graph, t.ints, ref) == {1}


def test_strict_convexity_predicates():
    square = cycle_graph([(0, 0), (2, 0), (2, 2), (0, 2)])
    assert is_strictly_convex(square)
    assert is_convex_outer(square)
    d = notch_hexagon()
    assert not is_strictly_convex(d)
    assert not is_convex_outer(d)
    # straight outer corner: convex outline but not strictly convex
    flat = cycle_graph([(0, 0), (1, 0), (2, 0), (2, 2), (0, 2)])
    assert not is_strictly_convex(flat)
    assert is_convex_outer(flat)
    assert is_strictly_convex(k4())


# -- convex hull ------------------------------------------------------------

def test_hull_square_with_center_and_edge_midpoint():
    pts = {1: (0, 0), 2: (4, 0), 3: (4, 4), 4: (0, 4), 5: (2, 2), 6: (2, 0)}
    g = PlaneGraph({1: (2,), 2: (1, 3), 3: (2, 4), 4: (3, 5), 5: (4, 6), 6: (5,)},
                   (1, 2), check=False)
    d = Drawing(g, pts)
    hull = convex_hull(d)
    assert hull == [1, 6, 2, 3, 4]  # midpoint kept, center dropped, ccw


def test_hull_all_collinear():
    d = Drawing(PlaneGraph({1: (2,), 2: (1, 3), 3: (2,)}, (1, 2), check=False),
                {1: (0, 0), 2: (1, 1), 3: (2, 2)})
    with pytest.raises(AllCollinear):
        convex_hull(d)


@st.composite
def point_sets(draw, min_size=3, max_size=12):
    n = draw(st.integers(min_size, max_size))
    pts = draw(st.lists(
        st.tuples(st.integers(-30, 30), st.integers(-30, 30)),
        min_size=n, max_size=n, unique=True))
    return {i + 1: p for i, p in enumerate(pts)}


BEYOND_FLOAT = 2 ** 1100


@st.composite
def rational_point_sets(draw, min_size=3, max_size=10):
    """point_sets moved off the lattice. About one coordinate in four gets
    an offset of less than 1/2 with its own denominator, small or up to
    2^200; a third of the sets are shifted beyond the float range. Lattice
    points stay distinct, and the unmoved coordinates keep the lattice's
    collinear and axis-parallel configurations."""
    base = draw(point_sets(min_size, max_size))
    shift = draw(st.sampled_from([0, BEYOND_FLOAT, -BEYOND_FLOAT]))
    dens = st.one_of(st.integers(2, 12), st.integers(2, 2 ** 200))

    def coord(c):
        value = Fraction(c + shift)
        if draw(st.integers(0, 3)) == 0:
            q = draw(dens)
            half = (q - 1) // 2
            value += Fraction(draw(st.integers(-half, half)), q)
        return value

    return {v: (coord(x), coord(y)) for v, (x, y) in base.items()}


positive_rationals = st.builds(Fraction, st.integers(1, 2 ** 200),
                               st.integers(1, 2 ** 200))
rationals = st.builds(Fraction, st.integers(-2 ** 1200, 2 ** 1200),
                      st.integers(1, 2 ** 200))


@given(point_sets())
@settings(max_examples=120, deadline=None)
def test_hull_matches_brute_boundary(coords):
    ids = sorted(coords)
    rotation = {v: tuple(w for w in ids if w != v) for v in ids}
    g = PlaneGraph(rotation, (ids[0], ids[1]), check=False)
    d = Drawing(g, coords)
    try:
        hull = convex_hull(d)
    except AllCollinear:
        first, second = coords[ids[0]], coords[ids[1]]
        assert all(orientation(first, second, coords[v]) == 0 for v in ids)
        return
    assert set(hull) == brute_hull_boundary_ids(coords)
    assert len(set(hull)) == len(hull)
    # counterclockwise and convex position: everyone weakly left of each edge
    k = len(hull)
    for i in range(k):
        p = coords[hull[i]]
        q = coords[hull[(i + 1) % k]]
        assert all(orientation(p, q, coords[v]) >= 0 for v in ids)
    # deterministic start at the lexicographically smallest point
    assert coords[hull[0]] == min(coords.values())


@given(st.integers(3, 11), st.data())
@settings(max_examples=150, deadline=None)
def test_hull_matches_the_reinsertion_hull_on_grids(k, data):
    # on a k x k grid many points lie on hull edges, in runs along one edge
    cells = [(x, y) for x in range(k) for y in range(k)]
    pts = data.draw(st.lists(st.sampled_from(cells), min_size=3,
                             max_size=min(len(cells), 16), unique=True))
    ids = range(len(pts))
    g = PlaneGraph({v: () for v in ids}, (0, 1), check=False)
    d = Drawing(g, dict(zip(ids, pts)))
    assert _outcome(convex_hull, d) == _outcome(convex_hull_reinsert, d)


# -- shears --------------------------------------------------------------------

def test_shear_maps():
    d = cycle_graph([(0, 0), (2, 0), (2, 2), (0, 2)])
    s = shear(d, 0, rat(1, 2))
    assert s.coords[2] == (rat(3), rat(2))
    assert s.coords[1] == (rat(2), rat(0))
    s = shear(d, 1, -1)
    assert s.coords[2] == (rat(2), rat(0))


def test_shear_by_zero_is_the_drawing_itself():
    d = k4()
    assert shear(d, 0, 0) is d
    assert shear(d, 1, rat(0)) is d


def test_choose_safe_shear_removes_verticals():
    d = cycle_graph([(0, 0), (2, 0), (2, 2), (0, 2)])
    lam = choose_safe_shear(d, 0)
    s = shear(d, 0, lam)
    for u, v in s.graph.edges():
        assert sign_of(s.coords[u][0] - s.coords[v][0]) != 0
    # deterministic
    assert lam == choose_safe_shear(d, 0)


def test_choose_safe_shear_makes_straddle():
    # arrowhead: the reflex apex (2,-1) has both face neighbors to its right
    d = cycle_graph([(0, 0), (5, -4), (2, -1), (2, 1), (5, 4)])
    g = d.graph
    inner = g.inner_face_indices()[0]
    walk = g.face_vertices(inner)
    pos = walk.index(2)
    ref = AngleRef(inner, pos)
    assert angle_statuses(d)[ref] is AngleKind.REFLEX
    assert not straddles(g, d.ints, ref, 0)
    lam = choose_safe_shear(d, 0, straddle=ref)
    s = shear(d, 0, lam)
    assert straddles(s.graph, s.ints, ref, 0)


def test_choose_safe_shear_keeps_extreme():
    d = cycle_graph([(0, 0), (4, 1), (3, 5)])
    lam = choose_safe_shear(d, 0, pins=((0, "left"),))
    s = shear(d, 0, lam)
    assert all(sign_of(s.coords[0][0] - s.coords[v][0]) == -1 for v in (1, 2))


def test_choose_safe_shear_infeasible():
    # both vertices sit on the y axis, so a y-shear never separates them in y
    g = PlaneGraph({1: (2,), 2: (1,)}, (1, 2), check=False)
    d = Drawing(g, {1: (0, 1), 2: (0, 2)})
    with pytest.raises(NoValidShear):
        choose_safe_shear(d, 1, pins=((1, "top"),))


@given(point_sets(min_size=4, max_size=10),
       st.sampled_from([rat(1), rat(-1), rat(1, 2), rat(-3), rat(5, 7)]))
@settings(max_examples=60, deadline=None)
def test_shear_preserves_angle_kinds(coords, lam):
    ids = sorted(coords)
    try:
        d0 = Drawing(PlaneGraph({v: tuple(w for w in ids if w != v) for v in ids},
                                (ids[0], ids[1]), check=False), coords)
        hull = convex_hull(d0)
    except AllCollinear:
        return
    strict = [v for i, v in enumerate(hull)
              if orientation(coords[hull[i - 1]], coords[v],
                             coords[hull[(i + 1) % len(hull)]]) != 0]
    if len(strict) < 3:
        return
    d = cycle_graph([coords[v] for v in strict])
    before = angle_statuses(d)
    assert angle_statuses(shear(d, 0, lam)) == before
    # translation keeps every straddle too
    moved = Drawing(d.graph,
                    {v: (p[0] + 7, p[1] - 3) for v, p in d.coords.items()})
    assert angle_statuses(moved) == before
    assert all(straddled_axes(d.graph, d.ints, ref)
               == straddled_axes(moved.graph, moved.ints, ref)
               for ref in before)


# -- planarity -------------------------------------------------------------

def test_planarity_basic_conflicts():
    path = PlaneGraph({1: (2,), 2: (1, 3), 3: (2, 4), 4: (3,)}, (1, 2),
                      check=False)
    # crossing zig-zag
    assert not drawing_is_planar(path, {1: (0, 0), 2: (2, 2), 3: (2, 0), 4: (0, 2)})
    # simple staircase is fine
    assert drawing_is_planar(path, {1: (0, 0), 2: (1, 1), 3: (2, 0), 4: (3, 1)})
    # collinear overlap through a shared endpoint
    assert not drawing_is_planar(path, {1: (0, 0), 2: (2, 0), 3: (1, 0), 4: (1, 2)})
    # vertex sitting on a non-incident edge interior
    star = PlaneGraph({1: (2,), 2: (1,), 3: (4,), 4: (3,)}, (1, 2), check=False)
    assert not drawing_is_planar(star, {1: (0, 0), 2: (4, 0), 3: (2, 0), 4: (2, 2)})
    # coincident vertices
    assert not drawing_is_planar(path, {1: (0, 0), 2: (1, 1), 3: (0, 0), 4: (3, 1)})
    # touching at a shared endpoint is allowed
    assert drawing_is_planar(path, {1: (0, 0), 2: (1, 1), 3: (2, 2), 4: (3, 1)})


def test_segments_planar_beyond_float_range():
    # float() of these coordinates overflows; the bounding-box prune must
    # still let the exact test decide
    big = rat(2 ** 1100) + rat(1, 3)
    crossing = [((-big, -big), (big, big), (1, 2)),
                ((-big, big), (big, -big), (3, 4))]
    assert not segments_planar(crossing)
    apart = [((big, big), (big + 1, big + 2), (1, 2)),
             ((big + 2, big), (big + 3, big + 2), (3, 4))]
    assert segments_planar(apart)


@given(st.one_of(point_sets(min_size=4, max_size=8),
                 rational_point_sets(min_size=4, max_size=8)), st.randoms())
@settings(max_examples=120, deadline=None)
def test_planarity_matches_brute_oracle(coords, rng):
    ids = sorted(coords)
    pool = [(u, v) for i, u in enumerate(ids) for v in ids[i + 1:]]
    rng.shuffle(pool)
    edges = pool[:7]
    eset = {tuple(sorted(e)) for e in edges}
    # every vertex of a PlaneGraph is the end of an edge
    ids = sorted({v for e in edges for v in e})
    coords = {v: coords[v] for v in ids}
    rotation = {v: tuple(w for w in ids
                         if w != v and tuple(sorted((v, w))) in eset)
                for v in ids}
    g = PlaneGraph(rotation, edges[0], check=False)
    assert drawing_is_planar(g, {v: (rat(p[0]), rat(p[1]))
                                 for v, p in coords.items()}) \
        == brute_planar(coords, edges)


def test_validate_drawing_orientation():
    # clockwise cycle labeled as if counterclockwise: inner face has wrong sign
    k = 4
    pts = [(0, 0), (0, 2), (2, 2), (2, 0)]  # clockwise
    rotation = {i: ((i + 1) % k, (i - 1) % k) for i in range(k)}
    g = PlaneGraph(rotation, (1, 0))
    with pytest.raises(NotPlanarInput):
        validate_drawing(Drawing(g, dict(enumerate(pts))))


def test_build_plane_graph_from_points_k4():
    coords = {1: (0, 0), 2: (4, 0), 3: (2, 4), 4: (2, 1)}
    edges = [(1, 2), (2, 3), (3, 1), (4, 1), (4, 2), (4, 3)]
    g = build_plane_graph_from_points(coords, edges)
    assert g.rotation == k4().graph.rotation
    assert set(g.outer_walk()) == {1, 2, 3}
    d = Drawing(g, coords)
    validate_drawing(d)


def test_build_plane_graph_path_single_face():
    coords = {1: (0, 0), 2: (1, 1), 3: (2, 0)}
    g = build_plane_graph_from_points(coords, [(1, 2), (2, 3)])
    assert len(g.faces) == 1
    assert g.outer_face_index == 0


@st.composite
def spokes(draw):
    """Integer points: a hub, 0, and spokes 1.. in a few directions, each
    drawn at several signed lengths, so that spokes share a direction, lie
    opposite one another and sit on the half-plane borders (the x axis)
    often; with the spokes in a random order."""
    base = draw(st.lists(
        st.tuples(st.integers(-3, 3), st.integers(-3, 3)).filter(any),
        min_size=1, max_size=4))
    arms = draw(st.lists(st.tuples(st.sampled_from(base),
                                   st.integers(-3, 3).filter(bool)),
                         min_size=1, max_size=9))
    hx, hy = draw(st.tuples(st.integers(-5, 5), st.integers(-5, 5)))
    pts = {0: (hx, hy)}
    for w, ((dx, dy), k) in enumerate(arms, 1):
        pts[w] = (hx + k * dx, hy + k * dy)
    return pts, draw(st.permutations(range(1, len(arms) + 1)))


@given(spokes())
@settings(max_examples=300, deadline=None)
@example(({0: (0, 0), 1: (1, 0), 2: (-1, 0), 3: (2, 0), 4: (0, -1)},
          [3, 2, 4, 1]))
def test_ccw_order_matches_the_comparison_sort(case):
    pts, nbrs = case
    assert _ccw_order(pts, 0, nbrs) == ccw_order_sort(pts, 0, nbrs)


@given(st.integers(0, 2 ** 32), st.booleans())
@settings(max_examples=40, deadline=None)
def test_validate_drawing_rejects_a_swapped_or_reversed_rotation(seed, swap):
    # a valid drawing with one rotation of three or more neighbours changed:
    # two of them swapped, or all reversed
    rng = random.Random(seed)
    d = random_triangulation(rng, 5, 12)
    validate_drawing(d)
    rot = dict(d.graph.rotation)
    v = rng.choice(sorted(u for u, nbrs in rot.items() if len(nbrs) >= 3))
    nbrs = list(rot[v])
    if swap:
        i, j = rng.sample(range(len(nbrs)), 2)
        nbrs[i], nbrs[j] = nbrs[j], nbrs[i]
    else:
        nbrs.reverse()
    rot[v] = tuple(nbrs)
    bad = Drawing(PlaneGraph(rot, d.graph.outer_dart, check=False), d.coords)
    with pytest.raises(NotPlanarInput,
                       match="drawing does not realize its embedding"):
        validate_drawing(bad)


def assert_embeds_as_the_area_oracle(d):
    """build_plane_graph_from_points on d's points gives the area oracle's
    rotations and outer dart: on d's edges, and on them plus d's hull gaps,
    as convexify_3connected completes the hull."""
    edges = d.graph.edges()
    for es in (edges, edges + _hull_gaps(d, convex_hull(d))):
        g = build_plane_graph_from_points(d.coords, es)
        h = embed_by_area(d.coords, es)
        assert g.rotation == h.rotation
        assert g.outer_dart == h.outer_dart


@given(st.integers(0, 2 ** 32),
       st.sampled_from(("triangulation", "dent", "pockets")), st.booleans())
@settings(max_examples=40, deadline=None)
def test_build_plane_graph_matches_the_area_oracle(seed, kind, sheared):
    # the outer face at the lowest-then-leftmost vertex, checked by one
    # shoelace sum, against the one face of negative shoelace sum; unsheared
    # drawings keep level and upright edges, so the lowest level holds
    # several vertices
    rng = random.Random(seed)
    if kind == "triangulation":
        d = random_triangulation(rng, 4, 14)
    elif kind == "dent":
        d = dent_instance(rng, 10, 12, sheared=sheared)
    else:
        d = pocket_instance(rng, 12, 12, sheared=sheared)
    assert_embeds_as_the_area_oracle(d)


@pytest.mark.parametrize("workload, i", sorted(DIGESTS))
def test_build_plane_graph_matches_the_area_oracle_on_bench_drawings(
        workload, i):
    assert_embeds_as_the_area_oracle(bench_drawing(workload, i))


@given(point_sets(min_size=4, max_size=12))
@settings(max_examples=80, deadline=None)
def test_fan_triangulation_properties(coords):
    ids = sorted(coords)
    d0 = Drawing(PlaneGraph({v: tuple(w for w in ids if w != v) for v in ids},
                            (ids[0], ids[1]), check=False), coords)
    try:
        hull = convex_hull(d0)
    except AllCollinear:
        return
    strict = [v for i, v in enumerate(hull)
              if orientation(coords[hull[i - 1]], coords[v],
                             coords[hull[(i + 1) % len(hull)]]) != 0]
    if len(strict) < 4:
        return
    k = len(strict)
    edges = [(strict[i], strict[(i + 1) % k]) for i in range(k)]
    edges += [(strict[0], strict[i]) for i in range(2, k - 1)]
    pts = {v: coords[v] for v in strict}
    g = build_plane_graph_from_points(pts, edges)
    assert g.n - g.m + len(g.faces) == 2
    assert sum(len(f) for f in g.faces) == 2 * g.m
    assert len(g.inner_face_indices()) == k - 2
    d = Drawing(g, pts)
    validate_drawing(d)
    assert is_strictly_convex(d)
    assert tuple(reversed(g.outer_walk())) in {
        tuple(strict[i:] + strict[:i]) for i in range(k)}


# -- the integer view ------------------------------------------------------
#
# Most tests above draw lattice points, where the integer view's scale is 1.
# These, like test_planarity_matches_brute_oracle, draw rational_point_sets
# and compare each predicate with a Fraction oracle.


def test_integer_points_scale_by_the_lcm():
    pts = integer_points({1: (rat(1, 6), 2), 2: (rat(-3, 4), rat(5, 9))})
    assert pts == {1: (6, 72), 2: (-27, 20)}
    assert all(type(c) is int for p in pts.values() for c in p)
    assert integer_points({1: (0.5, 3)}) == {1: (1, 6)}


def _strict_hull_order(coords):
    """Ids of the strict corners of the hull of coords, counterclockwise,
    or None when the points are collinear."""
    ids = sorted(coords)
    everyone = PlaneGraph({v: tuple(w for w in ids if w != v) for v in ids},
                          (ids[0], ids[1]), check=False)
    try:
        hull = convex_hull(Drawing(everyone, coords))
    except AllCollinear:
        return None
    k = len(hull)
    return [v for i, v in enumerate(hull)
            if orientation(coords[hull[i - 1]], coords[v],
                           coords[hull[(i + 1) % k]]) != 0]


def _cycle_case(coords, rng):
    """A cycle through the points, in hull order (a convex polygon), through
    every second corner of an odd hull (a star polygon, which winds twice)
    or shuffled, with random shear constraints on it: (drawing, straddle,
    pins) as choose_safe_shear takes them."""
    order = _strict_hull_order(coords) or sorted(coords)
    k = len(order)
    if rng.random() < 0.5:
        order = sorted(coords)
        rng.shuffle(order)
    elif k % 2 and k >= 5 and rng.random() < 0.5:
        order = [order[2 * i % k] for i in range(k)]
    d = cycle_graph([coords[v] for v in order])
    g = d.graph
    straddle, pins = None, ()
    if rng.random() < 0.5:
        face = rng.randrange(len(g.faces))
        straddle = AngleRef(face, rng.randrange(len(g.faces[face])))
    if rng.random() < 0.5:
        pins = ((rng.choice(sorted(g.rotation)),
                 rng.choice(["left", "right", "bottom", "top"])),)
    return d, straddle, pins


def _star(coords, rng):
    """The star from the lowest id to every other point, its rotation in
    counterclockwise order up to a random start, and half the time with
    two spokes swapped; None when two spokes point the same way."""
    hub, *spokes = sorted(coords)
    dirs = [(coords[w][0] - coords[hub][0], coords[w][1] - coords[hub][1])
            for w in spokes]
    for i, a in enumerate(dirs):
        for b in dirs[i + 1:]:
            if a[0] * b[1] == a[1] * b[0] and a[0] * b[0] + a[1] * b[1] > 0:
                return None
    order = list(_ccw_order(integer_points(coords), hub, spokes))
    shift = rng.randrange(len(order))
    order = order[shift:] + order[:shift]
    if rng.random() < 0.5:
        i, j = rng.sample(range(len(order)), 2)
        order[i], order[j] = order[j], order[i]
    rotation = {hub: tuple(order), **{w: (hub,) for w in spokes}}
    return Drawing(PlaneGraph(rotation, (hub, order[0]), check=False), coords)


def _shear_or_none(d, axis, straddle=None, pins=()):
    try:
        return choose_safe_shear(d, axis, straddle, pins)
    except NoValidShear:
        return None


@given(rational_point_sets(), st.randoms())
@settings(max_examples=60, deadline=None)
def test_strict_convexity_matches_fraction_oracle(coords, rng):
    d = _cycle_case(coords, rng)[0]
    g = d.graph
    assert is_strictly_convex(d) == brute_strictly_convex(
        d.coords, dart_walks(g), g.outer_face_index)


UNIT_TRIANGLE = cycle_graph([(0, 0), (1, 0), (0, 1)])


@st.composite
def triangle_drawings(draw):
    """A triangle or a Delaunay triangulation on 4 to 7 points, every
    vertex then put on a point of a 4 x 4 grid drawn at random: collinear,
    clockwise and coinciding triangles among the faces."""
    if draw(st.booleans()):
        d = UNIT_TRIANGLE
    else:
        d = random_triangulation(
            random.Random(draw(st.integers(0, 2 ** 32))), 4, 7, 10)
    cell = st.tuples(st.integers(0, 3), st.integers(0, 3))
    return Drawing(d.graph, {v: draw(cell) for v in d.graph.rotation})


# the one triangle, whose outer walk is a triangle too: as built (strictly
# convex), mirrored (inner walk turning right, outer walk left) and flat
@given(triangle_drawings())
@example(UNIT_TRIANGLE)
@example(Drawing(UNIT_TRIANGLE.graph, {0: (0, 0), 1: (-1, 0), 2: (0, 1)}))
@example(Drawing(UNIT_TRIANGLE.graph, {0: (0, 0), 1: (1, 1), 2: (2, 2)}))
@settings(max_examples=150, deadline=None)
def test_strict_convexity_of_triangles_matches_fraction_oracle(d):
    g = d.graph
    assert is_strictly_convex(d) == brute_strictly_convex(
        d.coords, dart_walks(g), g.outer_face_index)


def wound_wheel(k, turns):
    """The wheel on rim vertices 0..k-1 around hub k, embedded as a plane
    wheel, with rim vertex i drawn at angle 2 pi turns i / k: for turns > 1
    the rim is a star polygon that winds turns times around the hub."""
    def rim(t):
        return {i: (round(20 * math.cos(2 * math.pi * t * i / k)),
                    round(20 * math.sin(2 * math.pi * t * i / k)))
                for i in range(k)}

    edges = [(i, (i + 1) % k) for i in range(k)] + [(i, k) for i in range(k)]
    g = build_plane_graph_from_points({**rim(1), k: (0, 0)}, edges)
    return Drawing(g, {**rim(turns), k: (0, 0)})


PENTAGON = [(2, 0), (4, 2), (3, 4), (1, 4), (0, 2)]


def test_strictly_convex_rejects_a_pentagram():
    # C5 through a convex pentagon's corners in the order 0, 2, 4, 1, 3,
    # and a wheel whose rim is drawn that way: every inner corner turns
    # left and every outer one right, but the walks wind twice, and
    # neither drawing is planar
    star = cycle_graph([PENTAGON[2 * i % 5] for i in range(5)])
    for d in (star, wound_wheel(5, 2)):
        g = d.graph
        outer = g.outer_face_index
        assert all(kind is (AngleKind.REFLEX if ref.face == outer
                            else AngleKind.STRICTLY_CONVEX)
                   for ref, kind in angle_statuses(d).items())
        assert not drawing_is_planar(g, d.coords)
        assert not is_strictly_convex(d)
        assert not brute_strictly_convex(d.coords, dart_walks(g), outer)
    assert is_strictly_convex(cycle_graph(PENTAGON))
    assert is_strictly_convex(wound_wheel(5, 1))


@st.composite
def jittered_triangulations(draw):
    """A Delaunay triangulation on 4 to 9 points, or a wheel wound one to
    three times, with about one vertex in three moved by up to 2 along
    each axis."""
    if draw(st.booleans()):
        rng = random.Random(draw(st.integers(0, 2 ** 32)))
        d = random_triangulation(rng, 4, 9, 10)
    else:
        d = wound_wheel(*draw(st.sampled_from(
            [(5, 1), (5, 2), (7, 1), (7, 3), (9, 2)])))
    coords = {}
    for v, (x, y) in d.coords.items():
        if draw(st.integers(0, 2)) == 0:
            x += draw(st.integers(-2, 2))
            y += draw(st.integers(-2, 2))
        coords[v] = (x, y)
    return Drawing(d.graph, coords)


cycle_drawings = st.builds(lambda coords, rng: _cycle_case(coords, rng)[0],
                           rational_point_sets(), st.randoms())


@given(st.one_of(cycle_drawings, jittered_triangulations()))
@example(cycle_graph(PENTAGON))
@example(wound_wheel(5, 1))
@example(bench_drawing("already_convex", 0))
@settings(max_examples=150, deadline=None)
def test_strict_convexity_certifies_planarity(d):
    # what the engine relies on to skip the segment sweep on every redraw,
    # and convexify to skip both input gates on strictly convex input, as
    # on the examples: the drawing gate passes, and the graph is internally
    # 3-connected by the engine's test and by the definition;
    # --hypothesis-show-statistics counts the strictly convex draws
    convex = is_strictly_convex(d)
    event(f"strictly convex: {convex}")
    if convex:
        validate_drawing(d)
        validate_face_orientations(d)
        g = d.graph
        assert is_internally_3connected(g)
        assert brute_internally_3connected(g.adjacency(), g.outer_walk())


@st.composite
def gate_drawings(draw):
    """A star on rational_point_sets with its rotation scrambled (_star), a
    cycle (_cycle_case) or a jittered triangulation; half the time with the
    outer dart moved to a random face."""
    rng = draw(st.randoms())
    kind = draw(st.sampled_from(("star", "cycle", "triangulation")))
    if kind == "star":
        d = _star(draw(rational_point_sets(min_size=4)), rng)
        assume(d is not None)
    elif kind == "cycle":
        d = _cycle_case(draw(rational_point_sets()), rng)[0]
    else:
        d = draw(jittered_triangulations())
    if draw(st.booleans()):
        faces = d.graph.faces
        d = Drawing(d.graph.with_outer(rng.choice(faces)[0]), d.coords)
    return d


def _first_failed_check(d):
    """By the Fraction oracles, the message of the first check of
    validate_drawing that d fails (planarity, the rotations, the sign of
    the outer walk), or None."""
    g = d.graph
    if not brute_planar(d.coords, g.edges()):
        return "edges cross, overlap, or vertices coincide"
    if not brute_rotations_realized(d.coords, g.rotation):
        return "drawing does not realize its embedding"
    if brute_area2(d.coords, g.outer_walk()) > 0:
        return "outer dart names a bounded face"
    return None


@given(gate_drawings())
@settings(max_examples=200, deadline=None)
def test_validate_drawing_matches_fraction_oracles(d):
    expected = _first_failed_check(d)
    try:
        validate_drawing(d)
    except NotPlanarInput as exc:
        assert str(exc) == expected
    else:
        assert expected is None


@st.composite
def drawings_from_points(draw):
    """A jittered triangulation (as jittered_triangulations) with about one
    edge in five dropped, embedded again from its points by
    build_plane_graph_from_points, as augment_buffers and
    perfbench/make_instances.py embed the drawings they validate. Dropped
    edges leave cut vertices, whose face walks repeat them."""
    d = draw(jittered_triangulations())
    edges = [e for e in d.graph.edges() if draw(st.integers(0, 4))]
    assume({v for e in edges for v in e} == set(d.coords))
    try:
        g = build_plane_graph_from_points(d.coords, edges)
    except EmbeddingInvalid:
        assume(False)
    return Drawing(g, d.coords)


def _gate(validate, d):
    """validate(d), then the connectivity gate both of its callers run."""
    try:
        validate(d)
    except (NotPlanarInput, EmbeddingInvalid):
        return False
    return is_internally_3connected(d.graph)


@given(drawings_from_points())
@settings(max_examples=150, deadline=None)
def test_validate_drawing_matches_face_orientations_on_built_drawings(d):
    # where every face walk is simple, the input check and the old face
    # check give one verdict; where a walk repeats a vertex, only the old
    # check raises, and the connectivity gate turns the drawing away
    g = d.graph
    walks = [g.face_vertices(fi) for fi in range(len(g.faces))]
    if all(len(set(w)) == len(w) for w in walks):
        assert (_outcome(validate_drawing, d)
                == _outcome(validate_face_orientations, d))
    assert _gate(validate_drawing, d) == _gate(validate_face_orientations, d)


@given(rational_point_sets(max_size=8), st.randoms(), st.sampled_from((0, 1)))
@settings(max_examples=60, deadline=None)
def test_choose_safe_shear_matches_fraction_oracle(coords, rng, axis):
    d, straddle, pins = _cycle_case(coords, rng)
    assert _shear_or_none(d, axis, straddle, pins) == (
        choose_safe_shear_fraction(
            d.graph, d.coords, axis,
            straddle and (straddle.face, straddle.pos), pins))


def _random_cons(g, rng):
    """Shear constraints on g, (straddle, pins): an angle to straddle half
    the time, and up to three pins on either axis."""
    straddle = None
    if rng.random() < 0.5:
        face = rng.randrange(len(g.faces))
        straddle = AngleRef(face, rng.randrange(len(g.faces[face])))
    pins = tuple((rng.choice(sorted(g.rotation)),
                  rng.choice(["left", "right", "bottom", "top"]))
                 for _ in range(rng.choice((0, 1, 1, 2, 3))))
    return straddle, pins


@st.composite
def ladder_blocked_cycles(draw):
    """(cycle drawing, moving axis) where the ladder's every factor c is
    the root of an edge, whose differences along the moving and the fixed
    axis are -c times a random multiple and that multiple: no factor of
    the ladder keeps every edge off the level, so choose_safe_shear
    searches the critical gaps. A few free points close the cycle."""
    axis = draw(st.sampled_from((0, 1)))
    factors = draw(st.permutations(_SHEAR_LADDER))
    scale = st.sampled_from((1, 2, 3, -1, -2, Fraction(1, 3),
                             Fraction(-1, 2 ** 40 + 1)))
    walk = [(Fraction(0), Fraction(0))]
    for c in factors:
        k = draw(scale)
        m, f = walk[-1]
        walk.append((m - c * k, f + k))
    coord = st.builds(Fraction, st.integers(-40, 40),
                      st.sampled_from((1, 1, 3, 2 ** 30 + 7)))
    walk += draw(st.lists(st.tuples(coord, coord), max_size=3))
    assume(len(set(walk)) == len(walk))
    return cycle_graph([p if axis == 0 else p[::-1] for p in walk]), axis


@given(st.one_of(ladder_blocked_cycles(),
                 st.tuples(cycle_drawings, st.sampled_from((0, 1)))),
       st.randoms())
@settings(max_examples=200, deadline=None)
def test_choose_safe_shear_matches_the_scan(case, rng):
    # the candidates in the old order, each sheared and tested in full
    d, axis = case
    straddle, pins = _random_cons(d.graph, rng)
    assert _shear_or_none(d, axis, straddle, pins) == choose_safe_shear_scan(
        d, axis, straddle, pins)


def test_choose_safe_shear_past_a_blocked_ladder():
    # edges level at 0, +-1, +-1/2, +-2, +-1/4 and +-4 along x; with no
    # other constraint every gap passes, so the one below the least root
    # is taken
    walk = [(0, 0)]
    for c in _SHEAR_LADDER:
        m, f = walk[-1]
        walk.append((m - c, f + 1))
    d = cycle_graph(walk + [(1, 20)])
    lam = choose_safe_shear(d, 0)
    assert lam == -5
    assert lam == choose_safe_shear_scan(d, 0)
    s = shear(d, 0, lam)
    assert all(s.ints[u][0] != s.ints[v][0] for u, v in s.graph.edges())


interval_ends = st.builds(Fraction, st.integers(-10 ** 4, 10 ** 4),
                          st.integers(1, 10 ** 4))
interval_widths = st.builds(lambda a, q, t: Fraction(a, q << t),
                            st.integers(1, 10 ** 4), st.integers(1, 10 ** 4),
                            st.integers(0, 80))


@given(interval_ends, interval_widths)
@example(Fraction(0), Fraction(1))
@example(Fraction(-1), Fraction(2))
@example(Fraction(-3, 2), Fraction(1))
@example(Fraction(1, 3), Fraction(1, 3))
@settings(max_examples=300, deadline=None)
def test_coarsest_dyadic_is_the_coarsest_point_inside(lo, width):
    # brute force on the next coarser grid: its every point from below lo
    # to above hi lies outside; on the integer grid, the least |j| inside
    hi = lo + width
    x = _coarsest_dyadic((lo.numerator, lo.denominator),
                         (hi.numerator, hi.denominator))
    assert lo < x < hi
    k = x.denominator.bit_length() - 1
    assert x.denominator == 1 << k
    if k:
        step = Fraction(1, 1 << (k - 1))
        assert not any(lo < j * step < hi for j in range(
            math.floor(lo / step), math.ceil(hi / step) + 1))
    else:
        assert x == min(range(math.floor(lo) + 1, math.ceil(hi)), key=abs)


def _outcome(f, *args):
    try:
        return f(*args)
    except ValueError as exc:
        return type(exc)


@given(rational_point_sets(max_size=8), st.randoms(), positive_rationals,
       rationals, rationals)
@settings(max_examples=40, deadline=None)
def test_predicates_invariant_under_scale_and_translation(coords, rng, s,
                                                          tx, ty):
    d, straddle, pins = _cycle_case(coords, rng)
    star = _star(coords, rng)

    def answers(d, star):
        return (drawing_is_planar(d.graph, d.coords),
                _outcome(validate_drawing, d),
                is_strictly_convex(d),
                is_convex_outer(d),
                _outcome(internal_reflex_angles, d),
                _outcome(convex_hull, d),
                _shear_or_none(d, 0, straddle, pins),
                _shear_or_none(d, 1, straddle, pins),
                star is None or _outcome(validate_drawing, star))

    def moved(d):
        return d and Drawing(d.graph, {v: (s * x + tx, s * y + ty)
                                       for v, (x, y) in d.coords.items()})

    assert answers(d, star) == answers(moved(d), moved(star))


def test_predicates_beyond_float_range():
    # k4 scaled by 2^1100 and shifted: no coordinate converts to a float,
    # and the centre sits 2^-1000 (before scaling) off the bottom side
    big = rat(2 ** 1100)
    shift = big + rat(1, 3)
    base = k4()

    def drawn(centre_y):
        coords = {**base.coords, 4: (rat(2), centre_y)}
        return Drawing(base.graph,
                       {v: (big * x + shift, big * y - shift)
                        for v, (x, y) in coords.items()})

    inside = drawn(rat(1, 2 ** 1000))
    with pytest.raises(OverflowError):
        float(inside.coords[1][0])
    assert drawing_is_planar(inside.graph, inside.coords)
    assert is_strictly_convex(inside)
    for centre_y in (rat(0), rat(-1, 2 ** 1000)):
        outside = drawn(centre_y)
        assert not drawing_is_planar(outside.graph, outside.coords)
        assert not is_strictly_convex(outside)

import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from convexmorph.plane_graph import (
    PlaneGraph,
    Drawing,
    AngleKind,
    ReflexKind,
    AngleStatus,
    AngleRef,
    rat,
    sign_of,
    orientation,
    trace_faces,
    angle_status,
    angle_status_points,
    all_angle_statuses,
    internal_reflex_angles,
    is_strictly_convex,
    is_convex_outer,
    convex_hull,
    shear,
    ShearConstraints,
    choose_safe_shear,
    drawing_is_planar,
    segments_planar,
    validate_drawing,
    ccw_sector_contains,
    angular_insert_position,
    build_plane_graph_from_points,
    EmbeddingInvalid,
    DegenerateAngle,
    AllCollinear,
    NoValidShear,
    NotPlanarInput,
)

from convexmorph.morph_engine import _rotations_realized
from convexmorph.plane_graph import integer_points, sort_ccw

from _oracles import (
    brute_hull_boundary_ids,
    brute_planar,
    brute_rotations_realized,
    brute_strictly_convex,
    choose_safe_shear_fraction,
)
from _instances import random_triangulation


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


def test_orientation():
    assert orientation((0, 0), (1, 0), (0, 1)) == 1
    assert orientation((0, 0), (0, 1), (1, 0)) == -1
    assert orientation((0, 0), (1, 1), (2, 2)) == 0


# -- embedding and face tracing -------------------------------------------------

def test_k4_faces():
    d = k4()
    g = d.graph
    assert g.n == 4 and g.m == 6
    faces = trace_faces(g)
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


def test_edit_operations_roundtrip():
    d = k4()
    g = d.graph
    g2 = g.remove_edge(1, 4)
    assert not g2.has_edge(1, 4) and g2.m == 5
    g3 = g2.add_edge(1, 4, u_pos=1, v_pos=1)
    assert g3.rotation == g.rotation
    g4 = g.remove_vertex(4)
    assert g4.n == 3 and g4.m == 3
    back = g4.add_vertex(4, [(3, 1), (1, 1), (2, 1)])
    assert back.rotation == g.rotation


def test_mirrored_flips_faces():
    d = k4()
    m = d.graph.mirrored()
    assert m.outer_dart == (3, 1)
    assert set(m.outer_walk()) == {1, 2, 3}
    # mirroring the drawing along x matches the mirrored embedding
    md = Drawing(m, {v: (-p[0], p[1]) for v, p in d.coords.items()})
    validate_drawing(md)


# -- angles ---------------------------------------------------------------------

def test_angle_convex_straight_reflex():
    assert angle_status_points((0, 0), (1, 0), (1, 1)).kind is AngleKind.STRICTLY_CONVEX
    st = angle_status_points((0, 0), (1, 0), (2, 0))
    assert st.kind is AngleKind.STRAIGHT and st.is_convex
    st = angle_status_points((0, 0), (1, 0), (2, -1))
    assert st.kind is AngleKind.REFLEX and not st.is_convex


def test_angle_degenerate():
    with pytest.raises(DegenerateAngle):
        angle_status_points((1, 1), (1, 1), (2, 0))
    with pytest.raises(DegenerateAngle):
        # zero-area spike folding straight back
        angle_status_points((0, 0), (2, 0), (1, 0))


def test_reflex_subtypes_all_apply():
    # apex below both neighbors and x-straddled: extremum and v-reflex at once
    st = angle_status_points((1, 1), (0, 0), (-1, 1))
    assert st.kind is AngleKind.REFLEX
    assert st.subtypes == frozenset({ReflexKind.EXTREMUM_MIN, ReflexKind.V_REFLEX})
    # y-straddle only
    st = angle_status_points((2, -1), (0, 0), (2, 1))
    assert st.subtypes == frozenset({ReflexKind.H_REFLEX})
    # both straddles
    st = angle_status_points((1, 2), (0, 0), (-2, -1))
    assert st.subtypes == frozenset({ReflexKind.H_REFLEX, ReflexKind.V_REFLEX})
    # neither straddle nor extremum
    st = angle_status_points((2, 0), (0, 0), (0, 2))
    assert st.subtypes == frozenset({ReflexKind.OTHER})


def test_notch_hexagon_apex():
    d = notch_hexagon()
    g = d.graph
    inner = [i for i in g.inner_face_indices()]
    assert len(inner) == 1
    walk = g.face_vertices(inner[0])
    pos = walk.index(2)  # vertex at (1,1)
    st = angle_status(d, AngleRef(inner[0], pos))
    assert st.kind is AngleKind.REFLEX
    assert st.subtypes == frozenset({ReflexKind.V_REFLEX, ReflexKind.EXTREMUM_MAX})
    # seen from the outer face, the same corner is strictly convex
    owalk = g.outer_walk()
    opos = owalk.index(2)
    ost = angle_status(d, AngleRef(g.outer_face_index, opos))
    assert ost.kind is AngleKind.STRICTLY_CONVEX
    refl = internal_reflex_angles(d)
    assert len(refl) == 1 and g.face_vertices(inner[0])[refl[0][0].pos] == 2


def test_transpose_swaps_straddle_kinds():
    d = notch_hexagon()
    t = d.transposed()
    validate_drawing(t)
    inner = t.graph.inner_face_indices()
    assert len(inner) == 1
    walk = t.graph.face_vertices(inner[0])
    pos = walk.index(2)
    st = angle_status(t, AngleRef(inner[0], pos))
    assert st.kind is AngleKind.REFLEX
    assert ReflexKind.H_REFLEX in st.subtypes
    assert ReflexKind.V_REFLEX not in st.subtypes


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


def test_all_angle_statuses_counts():
    d = k4()
    sts = all_angle_statuses(d)
    assert len(sts) == sum(len(f) for f in d.graph.faces)
    outer = d.graph.outer_face_index
    for ref, st in sts.items():
        if ref.face == outer:
            assert st.kind is AngleKind.REFLEX
        else:
            assert st.kind is AngleKind.STRICTLY_CONVEX


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


# -- shears --------------------------------------------------------------------

def test_shear_maps():
    d = cycle_graph([(0, 0), (2, 0), (2, 2), (0, 2)])
    s = shear(d, "x", rat(1, 2))
    assert s.coords[2] == (rat(3), rat(2))
    assert s.coords[1] == (rat(2), rat(0))
    s = shear(d, "y", -1)
    assert s.coords[2] == (rat(2), rat(0))


def test_choose_safe_shear_removes_verticals():
    d = cycle_graph([(0, 0), (2, 0), (2, 2), (0, 2)])
    lam = choose_safe_shear(d, "x", ShearConstraints(no_axis_parallel=True))
    s = shear(d, "x", lam)
    for u, v in s.graph.edges():
        assert sign_of(s.x(u) - s.x(v)) != 0
    # deterministic
    assert lam == choose_safe_shear(d, "x", ShearConstraints(no_axis_parallel=True))


def test_choose_safe_shear_makes_straddle():
    # arrowhead: the reflex apex (2,-1) has both face neighbors to its right
    d = cycle_graph([(0, 0), (5, -4), (2, -1), (2, 1), (5, 4)])
    g = d.graph
    inner = g.inner_face_indices()[0]
    walk = g.face_vertices(inner)
    pos = walk.index(2)
    st = angle_status(d, AngleRef(inner, pos))
    assert st.kind is AngleKind.REFLEX
    assert ReflexKind.V_REFLEX not in st.subtypes
    cons = ShearConstraints(no_axis_parallel=True,
                            make_straddle=AngleRef(inner, pos))
    lam = choose_safe_shear(d, "x", cons)
    s = shear(d, "x", lam)
    st2 = angle_status(s, AngleRef(inner, pos))
    assert ReflexKind.V_REFLEX in st2.subtypes


def test_choose_safe_shear_keeps_extreme():
    d = cycle_graph([(0, 0), (4, 1), (3, 5)])
    cons = ShearConstraints(no_axis_parallel=True, keep_extreme=((0, "left"),))
    lam = choose_safe_shear(d, "x", cons)
    s = shear(d, "x", lam)
    assert all(sign_of(s.x(0) - s.x(v)) == -1 for v in (1, 2))


def test_choose_safe_shear_infeasible():
    # both vertices sit on the y axis, so a y-shear never separates them in y
    g = PlaneGraph({1: (2,), 2: (1,)}, (1, 2), check=False)
    d = Drawing(g, {1: (0, 1), 2: (0, 2)})
    with pytest.raises(NoValidShear):
        choose_safe_shear(d, "y", ShearConstraints(no_axis_parallel=False,
                                                   keep_extreme=((1, "top"),)))


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
    before = all_angle_statuses(d)
    after = all_angle_statuses(shear(d, "x", lam))
    for ref in before:
        assert before[ref].kind is after[ref].kind
    # translation preserves subtypes too
    moved = d.with_coords({v: (p[0] + 7, p[1] - 3) for v, p in d.coords.items()})
    assert all_angle_statuses(moved) == before


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


# -- angular insertion ------------------------------------------------------

def test_ccw_sector():
    assert ccw_sector_contains((1, 0), (1, 1), (0, 1))
    assert not ccw_sector_contains((1, 0), (1, -1), (0, 1))
    # reflex sector
    assert ccw_sector_contains((0, 1), (1, -1), (1, 0))
    assert ccw_sector_contains((0, 1), (0, -1), (1, 0))
    # opposite directions: the left side counts
    assert ccw_sector_contains((1, 0), (0, 1), (-1, 0))
    assert not ccw_sector_contains((1, 0), (0, -1), (-1, 0))


def test_angular_insert_position():
    d = k4()
    # vertex 4 at (2,1) with rotation (3, 1, 2); a target to the right
    # belongs between 2 (down-right) and 3 (up): position 0 (equivalently 3)
    pos = angular_insert_position(d, 4, (10, 1))
    nbrs = list(d.graph.rotation[4])
    nbrs.insert(pos, "new")
    i = nbrs.index("new")
    assert nbrs[i - 1] == 2 and nbrs[(i + 1) % 4] == 3
    with pytest.raises(DegenerateAngle):
        angular_insert_position(d, 4, (2, 1))
    with pytest.raises(EmbeddingInvalid):
        angular_insert_position(d, 4, (2, 5))  # parallel to edge 4-3


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
    or shuffled, with random shear constraints on it."""
    order = _strict_hull_order(coords) or sorted(coords)
    k = len(order)
    if rng.random() < 0.5:
        order = sorted(coords)
        rng.shuffle(order)
    elif k % 2 and k >= 5 and rng.random() < 0.5:
        order = [order[2 * i % k] for i in range(k)]
    d = cycle_graph([coords[v] for v in order])
    g = d.graph
    straddle = keep = None
    if rng.random() < 0.5:
        face = rng.randrange(len(g.faces))
        straddle = AngleRef(face, rng.randrange(len(g.faces[face])))
    if rng.random() < 0.5:
        keep = ((rng.choice(g.vertices),
                 rng.choice(["left", "right", "bottom", "top"])),)
    cons = ShearConstraints(no_axis_parallel=rng.random() < 0.7,
                            make_straddle=straddle, keep_extreme=keep or ())
    return d, cons


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
    order = [spokes[i] for i in sort_ccw(dirs)]
    shift = rng.randrange(len(order))
    order = order[shift:] + order[:shift]
    if rng.random() < 0.5:
        i, j = rng.sample(range(len(order)), 2)
        order[i], order[j] = order[j], order[i]
    rotation = {hub: tuple(order), **{w: (hub,) for w in spokes}}
    return Drawing(PlaneGraph(rotation, (hub, order[0]), check=False), coords)


def _shear_or_none(d, axis, cons):
    try:
        return choose_safe_shear(d, axis, cons)
    except NoValidShear:
        return None


@given(rational_point_sets(), st.randoms())
@settings(max_examples=60, deadline=None)
def test_strict_convexity_matches_fraction_oracle(coords, rng):
    d, _ = _cycle_case(coords, rng)
    g = d.graph
    walks = [g.face_vertices(i) for i in range(len(g.faces))]
    assert is_strictly_convex(d) == brute_strictly_convex(
        d.coords, walks, g.outer_face_index)


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


def test_strictly_convex_rejects_a_pentagram():
    # C5 through a convex pentagon's corners in the order 0, 2, 4, 1, 3,
    # and a wheel whose rim is drawn that way: every inner corner turns
    # left and every outer one right, but the walks wind twice, and
    # neither drawing is planar
    pentagon = [(2, 0), (4, 2), (3, 4), (1, 4), (0, 2)]
    star = cycle_graph([pentagon[2 * i % 5] for i in range(5)])
    for d in (star, wound_wheel(5, 2)):
        g = d.graph
        outer = g.outer_face_index
        assert all(st.kind is (AngleKind.REFLEX if ref.face == outer
                               else AngleKind.STRICTLY_CONVEX)
                   for ref, st in all_angle_statuses(d).items())
        assert not drawing_is_planar(g, d.coords)
        assert not is_strictly_convex(d)
        walks = [g.face_vertices(i) for i in range(len(g.faces))]
        assert not brute_strictly_convex(d.coords, walks, outer)
    assert is_strictly_convex(cycle_graph(pentagon))
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
    return d.with_coords(coords)


cycle_drawings = st.builds(lambda coords, rng: _cycle_case(coords, rng)[0],
                           rational_point_sets(), st.randoms())


@given(st.one_of(cycle_drawings, jittered_triangulations()))
@settings(max_examples=150, deadline=None)
def test_strict_convexity_certifies_planarity(d):
    # what the engine relies on to skip the segment sweep on every redraw
    if is_strictly_convex(d):
        validate_drawing(d)
        assert _rotations_realized(d)


@given(rational_point_sets(min_size=4), st.randoms())
@settings(max_examples=60, deadline=None)
def test_rotations_realized_matches_fraction_oracle(coords, rng):
    d = _star(coords, rng)
    assume(d is not None)
    assert _rotations_realized(d) == brute_rotations_realized(
        d.coords, d.graph.rotation)


@given(rational_point_sets(max_size=8), st.randoms(), st.sampled_from("xy"))
@settings(max_examples=60, deadline=None)
def test_choose_safe_shear_matches_fraction_oracle(coords, rng, axis):
    d, cons = _cycle_case(coords, rng)
    straddle = cons.make_straddle
    assert _shear_or_none(d, axis, cons) == choose_safe_shear_fraction(
        d.graph, d.coords, axis, cons.no_axis_parallel,
        straddle and (straddle.face, straddle.pos), cons.keep_extreme)


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
    d, cons = _cycle_case(coords, rng)
    star = _star(coords, rng)

    def answers(d, star):
        return (drawing_is_planar(d.graph, d.coords),
                _outcome(validate_drawing, d),
                is_strictly_convex(d),
                is_convex_outer(d),
                _outcome(internal_reflex_angles, d),
                _outcome(convex_hull, d),
                _shear_or_none(d, "x", cons),
                _shear_or_none(d, "y", cons),
                star is None or _rotations_realized(star))

    def moved(d):
        return d and d.with_coords({v: (s * x + tx, s * y + ty)
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
        return base.with_coords({v: (big * x + shift, big * y - shift)
                                 for v, (x, y) in coords.items()})

    inside = drawn(rat(1, 2 ** 1000))
    with pytest.raises(OverflowError):
        float(inside.x(1))
    assert drawing_is_planar(inside.graph, inside.coords)
    assert is_strictly_convex(inside)
    for centre_y in (rat(0), rat(-1, 2 ** 1000)):
        outside = drawn(centre_y)
        assert not drawing_is_planar(outside.graph, outside.coords)
        assert not is_strictly_convex(outside)

"""Face monotonization: where each descent stops, the edges it adds, their
place in the rotations, and the certificate of the result.

The fixed fixtures pin the edges and rotations of the descent rule, worked
out by hand; random instances are checked against the Fraction oracle
(which cuts every walk edge at every level) and against the certificate: a
strictly convex redraw of the augmented graph that keeps the heights.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from _instances import (
    _drop_inner_edges,
    dent_instance,
    pocket_instance,
    random_augment_instance,
)
from _oracles import (
    augment_monotone_fraction,
    count_reflex_extrema_in_faces,
    transposed,
)

from convexmorph import Drawing, EmbeddingInvalid, morph_engine, rat
from convexmorph.connectivity import is_internally_3connected
from convexmorph.monotone_augment import (_apply_plans, _descend,
                                          augment_y_monotone)
from convexmorph.morph_engine import NotInternallyThreeConnected, convexify
from convexmorph.plane_graph import (
    NotPlanarInput,
    PreconditionViolated,
    build_plane_graph_from_points,
    is_strictly_convex,
    orientation,
)
from convexmorph.steps import Direction


def ring_drawing(coords, cycle):
    """Drawing of the single cycle visiting the given vertices in order."""
    k = len(cycle)
    edges = {(cycle[i], cycle[(i + 1) % k]) for i in range(k)}
    exact = {v: (rat(p[0]), rat(p[1])) for v, p in coords.items()}
    return Drawing(build_plane_graph_from_points(exact, edges), exact)


def cyc(seq):
    """Canonical form of a cyclic sequence (rotation-invariant)."""
    t = tuple(seq)
    return min(t[i:] + t[:i] for i in range(len(t)))


def y_extrema_count(walk, coords, axis=1):
    """Local extrema of the walk by height alone (adjacent heights always
    differ)."""
    k = len(walk)
    n = 0
    for i in range(k):
        ya = coords[walk[i - 1]][axis]
        yu = coords[walk[i]][axis]
        yb = coords[walk[(i + 1) % k]][axis]
        if (ya > yu) == (yb > yu):
            n += 1
    return n


def added_edges(d, new_g):
    """The edges of new_g that d's graph lacks, as sorted pairs."""
    return sorted(tuple(sorted(e)) for e in new_g.edges()
                  if not d.graph.has_edge(*e))


# One inner face shaped like a comb with teeth hanging from the ceiling;
# each tooth tip is a reflex minimum whose left chain ends at the next tip
# (or, for the last, runs down to the floor's convex minimum 2).
COMB3 = {1: (0, 0), 2: (12, -1), 3: (12, 7), 4: (10, 3), 5: (9, 6),
         6: (7, 2), 7: (5, 5), 8: (3, 1), 9: (0, 6)}
COMB3_CYCLE = tuple(range(1, 10))

# Face with exactly one reflex minimum (6) and one reflex maximum (2).
TWO = {1: (0, 0), 2: (3, 4), 3: (5, -1), 4: (9, 1), 5: (9, 8),
       6: (6, 3), 7: (3, 9), 8: (0, 7)}
TWO_CYCLE = tuple(range(1, 9))

# Face where the vertex 8 lies straight below the reflex minimum 4: it is a
# regular vertex of the left chain, so the descent passes it (and 9) and
# stops at the convex minimum 1.
SPUR = {1: (0, -4), 2: (6, -3), 3: (6, 6), 4: (2, 4), 5: (1, 7),
        6: (0, 5), 7: (0, 1), 8: (2, 0), 9: (0, -2)}
SPUR_CYCLE = tuple(range(1, 10))

# A reflex minimum (3) above a reflex maximum (8) in one region: each is
# the other's touching vertex, and the edge is added once.
STACK = {1: (0, 0), 2: (8, 2), 3: (10, 8), 4: (12, 2), 5: (20, 0),
         6: (21, 20), 7: (12, 18), 8: (10, 12), 9: (8, 18), 10: (-1, 20)}
STACK_CYCLE = tuple(range(1, 11))

# Two reflex minima (4 and 6) at one height over one region: neither
# touches the other's interval, and both meet its convex minimum 2.
TWIN = {1: (0, 0), 2: (12, -1), 3: (12, 10), 4: (9, 3), 5: (7, 8),
        6: (4, 3), 7: (0, 9)}
TWIN_CYCLE = tuple(range(1, 8))

# A reflex maximum (2) level with a reflex minimum (7) to its right: both
# edges at 2 start where the interval below 7 does, and the walk descends
# the one nearer just below, 2-3.
LEVEL = {1: (-1, 0), 2: (2, 5), 3: (4, -1), 4: (12, -2), 5: (12, 10),
         6: (8, 8), 7: (6, 5), 8: (4, 12), 9: (-1, 11)}
LEVEL_CYCLE = tuple(range(1, 10))

# Strictly y-monotone but nonconvex: reflex vertices that are not extrema.
STAIR = {1: (0, 0), 2: (6, 1), 3: (4, 3), 4: (7, 5), 5: (5, 8), 6: (0, 9)}
STAIR_CYCLE = tuple(range(1, 7))

CONVEX = {1: (0, 0), 2: (4, 1), 3: (6, 4), 4: (4, 7), 5: (1, 6), 6: (-1, 3)}
CONVEX_CYCLE = tuple(range(1, 7))

RINGS = [(COMB3, COMB3_CYCLE), (TWO, TWO_CYCLE), (SPUR, SPUR_CYCLE),
         (STAIR, STAIR_CYCLE), (STACK, STACK_CYCLE), (TWIN, TWIN_CYCLE),
         (LEVEL, LEVEL_CYCLE)]


def hanging_comb(k):
    """Comb face with k ceiling teeth; returns (drawing, tip ids)."""
    coords = {1: (0, 0), 2: (4 * k, -1), 3: (4 * k, 4 * k + 3)}
    seq = [1, 2, 3]
    nid = 4
    tips = []
    for i in range(k):
        coords[nid] = (4 * k - 2 - 4 * i, 2 + i % 3)
        tips.append(nid)
        seq.append(nid)
        nid += 1
        if i < k - 1:
            coords[nid] = (4 * k - 4 - 4 * i, 4 * k + 1 - i % 2)
            seq.append(nid)
            nid += 1
    coords[nid] = (0, 4 * k + 2)
    seq.append(nid)
    return ring_drawing(coords, tuple(seq)), tips


def single_inner_face(g):
    inner = g.inner_face_indices()
    assert len(inner) == 1
    return inner[0]


def is_extremum(walk, i, h):
    k = len(walk)
    return (h[walk[i - 1]] > h[walk[i]]) == (h[walk[(i + 1) % k]] > h[walk[i]])


def check_augmentation(d, axis=1, redraw=True):
    """The certificate of augment_y_monotone(d, axis): every added edge
    joins two local extrema of one original inner face, at least one of
    them reflex, and is not level; the graph keeps its outer walk; every
    inner face has exactly two local extrema; and, if redraw, the redraw
    keeping the heights onto the default polygon is strictly convex.
    Returns the number of added edges."""
    g, pts = d.graph, d.ints
    h = {v: p[axis] for v, p in pts.items()}
    new_g = augment_y_monotone(d, axis)
    added = added_edges(d, new_g)
    assert new_g.m == g.m + len(added)
    assert new_g.outer_walk() == g.outer_walk()
    walks = [g.face_vertices(f) for f in g.inner_face_indices()]
    for u, v in added:
        assert h[u] != h[v]
        assert any(
            u in walk and v in walk
            and is_extremum(walk, walk.index(u), h)
            and is_extremum(walk, walk.index(v), h)
            and any(orientation(pts[walk[i - 1]], pts[walk[i]],
                                pts[walk[(i + 1) % len(walk)]]) < 0
                    for i in (walk.index(u), walk.index(v)))
            for walk in walks), (u, v)
    for f in new_g.inner_face_indices():
        assert y_extrema_count(new_g.face_vertices(f), pts, axis) == 2
    if redraw:
        direction = Direction.HORIZONTAL if axis == 1 else Direction.VERTICAL
        aug = d.with_graph(new_g)
        out, _ = morph_engine._redraw(aug, direction, ((),), "certificate")
        assert is_strictly_convex(out)
        assert {v: p[axis] * d.den for v, p in out.ints.items()} \
            == {v: p[axis] * out.den for v, p in pts.items()}
    return len(added)


class TestTrapezoidize:
    """Where each descent stops: the touching vertex of the region below
    (or, turned, above) each reflex extremum."""

    @pytest.mark.parametrize("k", [1, 2, 3, 5, 8])
    def test_comb_has_k_ray_targets(self, k):
        # each tip's descent stops at one lower extremum: a tip where one
        # of its chains ends, or the floor's convex minimum 2
        d, tips = hanging_comb(k)
        new_g = augment_y_monotone(d)
        added = added_edges(d, new_g)
        assert len(added) == k
        down = {}
        for u, v in added:
            hi, lo = (u, v) if d.coords[u][1] > d.coords[v][1] else (v, u)
            down[hi] = lo
        assert sorted(down) == sorted(tips)
        assert all(lo in tips or lo == 2 for lo in down.values())
        assert new_g.rotation == augment_monotone_fraction(d.graph, d.coords)
        check_augmentation(d, redraw=False)

    def test_comb3_frozen_points(self):
        d = ring_drawing(COMB3, COMB3_CYCLE)
        assert added_edges(d, augment_y_monotone(d)) == [
            (2, 8), (4, 6), (6, 8)]

    def test_convex_face_empty(self):
        d = ring_drawing(CONVEX, CONVEX_CYCLE)
        assert augment_y_monotone(d) == d.graph

    def test_monotone_nonconvex_face_empty(self):
        d = ring_drawing(STAIR, STAIR_CYCLE)
        f = single_inner_face(d.graph)
        walk = d.graph.face_vertices(f)
        assert any(orientation(d.coords[walk[i - 1]], d.coords[walk[i]],
                               d.coords[walk[(i + 1) % len(walk)]]) == -1
                   for i in range(len(walk)))
        assert augment_y_monotone(d) == d.graph

    def test_two_extrema_face(self):
        # the minimum 6 descends to the convex minimum 3, the maximum 2
        # rises to the convex maximum 7
        d = ring_drawing(TWO, TWO_CYCLE)
        assert added_edges(d, augment_y_monotone(d)) == [(2, 7), (3, 6)]

    def test_horizontal_edge_rejected(self):
        # an edge level in the heights is rejected on either axis: the
        # trapezoid's bases are horizontal, and none of its sides vertical
        trapezoid = {1: (0, 0), 2: (4, 0), 3: (3, 2), 4: (1, 2)}
        d = ring_drawing(trapezoid, (1, 2, 3, 4))
        with pytest.raises(PreconditionViolated, match="level"):
            augment_y_monotone(d)
        assert augment_y_monotone(d, 0) == d.graph
        with pytest.raises(PreconditionViolated, match="level"):
            augment_y_monotone(transposed(d), 0)


class TestAugmentFixtures:
    def test_comb3_edges_and_cluster_order(self):
        # at 6 the own edge down to 8 comes before the edge from 4, which
        # comes down the left chain next to the incoming dart 5->6
        d = ring_drawing(COMB3, COMB3_CYCLE)
        new_g = augment_y_monotone(d)
        assert cyc(new_g.rotation[2]) == cyc((1, 3, 8))
        assert cyc(new_g.rotation[4]) == cyc((3, 5, 6))
        assert cyc(new_g.rotation[6]) == cyc((5, 7, 8, 4))
        assert cyc(new_g.rotation[8]) == cyc((7, 9, 2, 6))
        for f in new_g.inner_face_indices():
            assert y_extrema_count(new_g.face_vertices(f), d.coords) == 2

    def test_two_extrema_face_augment(self):
        d = ring_drawing(TWO, TWO_CYCLE)
        new_g = augment_y_monotone(d)
        assert cyc(new_g.rotation[2]) == cyc((1, 3, 7))
        assert cyc(new_g.rotation[7]) == cyc((6, 8, 2))
        assert cyc(new_g.rotation[6]) == cyc((5, 7, 3))
        assert cyc(new_g.rotation[3]) == cyc((2, 4, 6))
        inner = new_g.inner_face_indices()
        assert len(inner) == 3
        for f in inner:
            assert y_extrema_count(new_g.face_vertices(f), d.coords) == 2

    def test_spur_descent_passes_tie_vertex(self):
        d = ring_drawing(SPUR, SPUR_CYCLE)
        new_g = augment_y_monotone(d)
        assert added_edges(d, new_g) == [(1, 4)]
        assert cyc(new_g.rotation[1]) == cyc((9, 2, 4))
        for f in new_g.inner_face_indices():
            assert y_extrema_count(new_g.face_vertices(f), d.coords) == 2

    def test_stacked_extrema_share_one_edge(self):
        d = ring_drawing(STACK, STACK_CYCLE)
        new_g = augment_y_monotone(d)
        assert added_edges(d, new_g) == [(3, 8)]
        assert cyc(new_g.rotation[3]) == cyc((2, 4, 8))
        assert cyc(new_g.rotation[8]) == cyc((7, 9, 3))
        for f in new_g.inner_face_indices():
            assert y_extrema_count(new_g.face_vertices(f), d.coords) == 2

    def test_twin_minima_fan_into_one_vertex(self):
        # both darts land in the one region of the convex minimum 2, in
        # descending x of their upper ends: 4 (x 9) before 6 (x 4)
        d = ring_drawing(TWIN, TWIN_CYCLE)
        new_g = augment_y_monotone(d)
        assert added_edges(d, new_g) == [(2, 4), (2, 6)]
        assert cyc(new_g.rotation[2]) == cyc((1, 3, 4, 6))
        for f in new_g.inner_face_indices():
            assert y_extrema_count(new_g.face_vertices(f), d.coords) == 2

    def test_level_vertex_beside_apex_takes_the_edge_nearer_below(self):
        # 1-2 and 2-3 both meet 7's height at x = 2; just below it 2-3
        # lies further right, so it bounds the interval, and 7 descends to
        # the convex minimum 4 while 2 rises to the convex maximum 8
        d = ring_drawing(LEVEL, LEVEL_CYCLE)
        new_g = augment_y_monotone(d)
        assert added_edges(d, new_g) == [(2, 8), (4, 7)]
        for f in new_g.inner_face_indices():
            assert y_extrema_count(new_g.face_vertices(f), d.coords) == 2

    def test_monotone_input_unchanged(self):
        d = ring_drawing(STAIR, STAIR_CYCLE)
        assert augment_y_monotone(d) == d.graph


class TestPreconditions:
    def test_horizontal_edge(self):
        square = {1: (0, 0), 2: (2, 0), 3: (2, 2), 4: (0, 2)}
        with pytest.raises(PreconditionViolated):
            augment_y_monotone(ring_drawing(square, (1, 2, 3, 4)))

    # augment_y_monotone trusts its caller for planarity and connectivity;
    # convexify, the one input gate, rejects these inputs before any layer

    def test_not_internally_3connected(self):
        coords = {1: (rat(0), rat(0)), 2: (rat(4), rat(1)),
                  3: (rat(5), rat(4)), 4: (rat(1), rat(5)),
                  5: (rat(2), rat(2))}
        edges = {(1, 2), (2, 3), (3, 4), (4, 1), (1, 5), (3, 5)}
        g = build_plane_graph_from_points(coords, edges)
        assert not is_internally_3connected(g)
        with pytest.raises(NotInternallyThreeConnected):
            convexify(Drawing(g, coords))

    def test_crossing_drawing(self):
        d = ring_drawing(CONVEX, CONVEX_CYCLE)
        bad = dict(d.coords)
        bad[2], bad[5] = bad[5], bad[2]
        with pytest.raises(NotPlanarInput):
            convexify(Drawing(d.graph, bad))


def _down(wp):
    return sorted(range(len(wp)), key=lambda i: wp[i][1], reverse=True)


class TestImpossibleDescents:
    """Walks no planar face has: each raises EmbeddingInvalid naming the
    vertex, also under python -O."""

    def test_no_edge_on_one_side(self):
        # TWO walked clockwise: its convex minimum 1 turns right, and the
        # walk has no edge left of it below
        wp = [TWO[v] for v in reversed(TWO_CYCLE)]
        j = wp.index(TWO[1])
        with pytest.raises(EmbeddingInvalid, match="vertex 1 .*each side"):
            _descend(wp, _down(wp), j, "vertex 1")

    def test_nearest_left_edge_ascends(self):
        # a walk that crosses itself left of the reflex minimum (6, 5): the
        # nearest edge left of it below climbs from (2, -5) to (3, 7)
        wp = [(0, -10), (10, -9), (10, 10), (7, 11), (6, 5), (5, 12),
              (0, 13), (2, -5), (3, 7), (1, -8)]
        with pytest.raises(EmbeddingInvalid,
                           match="does not descend .*left of vertex 6"):
            _descend(wp, _down(wp), 4, "vertex 6")


class TestAugmentRandom:
    def test_random_instances(self):
        total = 0
        for seed in range(40):
            rng = random.Random(3000 + seed)
            d = random_augment_instance(rng, n_lo=12, n_hi=22, drop_frac=0.8)
            g = d.graph
            reflex = count_reflex_extrema_in_faces(
                d.coords, [g.face_vertices(f) for f in g.inner_face_indices()])
            # one edge per reflex extremum, but one for two that meet
            added = check_augmentation(d, redraw=seed % 4 == 0)
            assert (reflex + 1) // 2 <= added <= reflex
            new_g = augment_y_monotone(d)
            assert is_internally_3connected(new_g)
            for rot in new_g.rotation.values():
                assert len(set(rot)) == len(rot)
            assert_fraction_oracle_agrees(d)
            total += added
        assert total >= 40

    def test_twenty_vertex_instances_become_monotone(self):
        for seed in range(6):
            rng = random.Random(7100 + seed)
            d = random_augment_instance(rng, n_lo=20, n_hi=20, span=40)
            new_g = augment_y_monotone(d)
            for f in new_g.inner_face_indices():
                assert y_extrema_count(new_g.face_vertices(f), d.coords) == 2


class TestRealization:
    def test_random_small_instances_are_drawable(self):
        # drawable: the augmented graph has a strictly convex drawing with
        # the same heights, on either axis where no edge is level on it
        drawn = 0
        for seed in range(25):
            rng = random.Random(5200 + seed)
            d = random_augment_instance(rng, n_lo=8, n_hi=13)
            for axis in (0, 1):
                if not any(d.ints[u][axis] == d.ints[v][axis]
                           for u, v in d.graph.edges()):
                    drawn += check_augmentation(d, axis)
        assert drawn >= 10


def assert_fraction_oracle_agrees(d, axis=1):
    """The integer-view augmentation gives the Fraction oracle's rotation;
    returns the number of added edges."""
    new_g = augment_y_monotone(d, axis)
    assert new_g.rotation == augment_monotone_fraction(d.graph, d.coords,
                                                       axis)
    return new_g.m - d.graph.m


def scaled(d):
    """x -> (x - 17)/3, y -> (y - 23)/5: negative, non-dyadic coordinates
    with every vertical alignment (and so every tie) kept."""
    return Drawing(d.graph, {v: ((x - 17) / 3, (y - 23) / 5)
                             for v, (x, y) in d.coords.items()})


def skewed(d):
    """scaled, then x -> x + y/7: orientations, heights and the order
    along x within one height kept, every vertical alignment moved."""
    return Drawing(d.graph, {v: (x + y / 7, y)
                             for v, (x, y) in scaled(d).coords.items()})


FAMILIES = {
    "convex_outer": lambda rng: random_augment_instance(rng, 14, 14, 20),
    "dent": lambda rng: dent_instance(rng, 12, 20),
    "pockets": lambda rng: pocket_instance(rng, 12, 20),
}


class TestFractionOracle:
    @pytest.mark.parametrize("coords,cycle", RINGS)
    def test_rings(self, coords, cycle):
        # the rule reads orientations, heights and x within a height
        # only, so moving the points by either map changes nothing
        d = ring_drawing(coords, cycle)
        for dd in (d, scaled(d), skewed(d)):
            assert_fraction_oracle_agrees(dd)
            assert augment_y_monotone(dd) == augment_y_monotone(d)

    def test_spur_tie_survives_scaling(self):
        # 8 stays straight below 4, and the descent still passes it
        d = scaled(ring_drawing(SPUR, SPUR_CYCLE))
        assert d.coords[8][0] == d.coords[4][0] == rat(-5)
        assert added_edges(d, augment_y_monotone(d)) == [(1, 4)]
        assert_fraction_oracle_agrees(d)

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_family_drawings(self, family, monkeypatch):
        # each input with and without more of its inner edges, and every
        # drawing convexify augments, on its axis; as they are, and moved
        # off the grid where the axis is y
        seen = augmented_drawings(monkeypatch, FAMILIES[family], range(2),
                                  with_inputs=True)
        edges = 0
        for d, axis in seen:
            if any(d.ints[u][axis] == d.ints[v][axis]
                   for u, v in d.graph.edges()):
                continue
            edges += assert_fraction_oracle_agrees(d, axis)
            if axis == 1:
                edges += assert_fraction_oracle_agrees(scaled(d))
                edges += assert_fraction_oracle_agrees(skewed(d))
        assert edges > 0


def augmented_drawings(mp, make, seeds, with_inputs=False):
    """(drawing, axis) of every augment_y_monotone call of convexify on
    make(Random(seed)) for each seed, spied through the monkeypatch mp;
    with_inputs adds each input with and without more of its inner edges,
    at axis 1."""
    seen = []
    real = morph_engine.augment_y_monotone

    def spy(d, axis=1):
        seen.append((d, axis))
        return real(d, axis)

    mp.setattr(morph_engine, "augment_y_monotone", spy)
    for seed in seeds:
        d = make(random.Random(seed))
        if with_inputs:
            seen += [(d, 1),
                     (_drop_inner_edges(random.Random(seed), d, 0.8), 1)]
        convexify(d)
    mp.undo()
    return seen


CERTIFIED = dict(FAMILIES,
                 deep_pockets=lambda rng: pocket_instance(rng, 40, 30, 3))


@given(st.sampled_from(sorted(CERTIFIED)), st.integers(0, 2 ** 16))
@settings(max_examples=25, deadline=None)
def test_augmented_drawings_certify(family, seed):
    # every drawing convexify augments, on the axis it augments
    with pytest.MonkeyPatch.context() as mp:
        seen = augmented_drawings(mp, CERTIFIED[family], [seed])
    for d, axis in seen:
        check_augmentation(d, axis)


class TestApplyPlans:
    def test_vertex_off_the_face(self):
        d = ring_drawing(TWO, TWO_CYCLE)
        f = single_inner_face(d.graph)
        with pytest.raises(EmbeddingInvalid, match=f"vertex 9 .*face {f}"):
            _apply_plans(d.graph, {(f, 9): [1]})

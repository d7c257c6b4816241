"""Face y-monotonization: ray targets, augmenting edges, rotation placement.

Expected hit points in the fixed fixtures were frozen from the brute-force
ray oracle (Fraction segment arithmetic) before wiring up the package calls;
random instances are cross-checked against the oracles live.
"""

import random
from fractions import Fraction

import pytest

from _instances import (
    _drop_inner_edges,
    dent_instance,
    pocket_instance,
    random_augment_instance,
)
from _oracles import (
    augment_y_monotone_fraction,
    count_reflex_extrema_in_faces,
    ray_shoot_down,
    transposed,
)
from _realize import realize_augmenting_edges

from convexmorph import (Drawing, EmbeddingInvalid, monotone_augment,
                         morph_engine, rat)
from convexmorph.connectivity import is_internally_3connected
from convexmorph.monotone_augment import _apply_plans, augment_y_monotone
from convexmorph.morph_engine import NotInternallyThreeConnected, convexify
from convexmorph.plane_graph import (
    NotPlanarInput,
    PreconditionViolated,
    build_plane_graph_from_points,
    orientation,
)


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


def y_extrema_count(walk, coords):
    """Local extrema of the walk by y alone (adjacent ys always differ)."""
    k = len(walk)
    n = 0
    for i in range(k):
        ya = coords[walk[i - 1]][1]
        yu = coords[walk[i]][1]
        yb = coords[walk[(i + 1) % k]][1]
        if (ya > yu) == (yb > yu):
            n += 1
    return n


# One inner face shaped like a comb with teeth hanging from the ceiling;
# the tooth tips are reflex local minima shooting rays onto the floor edge.
COMB3 = {1: (0, 0), 2: (12, -1), 3: (12, 7), 4: (10, 3), 5: (9, 6),
         6: (7, 2), 7: (5, 5), 8: (3, 1), 9: (0, 6)}
COMB3_CYCLE = tuple(range(1, 10))

# Face with exactly one reflex minimum (6) and one reflex maximum (2).
TWO = {1: (0, 0), 2: (3, 4), 3: (5, -1), 4: (9, 1), 5: (9, 8),
       6: (6, 3), 7: (3, 9), 8: (0, 7)}
TWO_CYCLE = tuple(range(1, 9))

# Face where the ray from the reflex minimum 4 passes exactly through the
# boundary vertex 8; the left-nudged ray must resolve to the smaller-slope
# edge (7, 8) and the descent continues past 8 down to vertex 1.
SPUR = {1: (0, -4), 2: (6, -3), 3: (6, 6), 4: (2, 4), 5: (1, 7),
        6: (0, 5), 7: (0, 1), 8: (2, 0), 9: (0, -2)}
SPUR_CYCLE = tuple(range(1, 10))

# Strictly y-monotone but nonconvex: reflex vertices that are not extrema.
STAIR = {1: (0, 0), 2: (6, 1), 3: (4, 3), 4: (7, 5), 5: (5, 8), 6: (0, 9)}
STAIR_CYCLE = tuple(range(1, 7))

CONVEX = {1: (0, 0), 2: (4, 1), 3: (6, 4), 4: (4, 7), 5: (1, 6), 6: (-1, 3)}
CONVEX_CYCLE = tuple(range(1, 7))


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


class TestTrapezoidize:
    """The rays of the trapezoidization: augment_y_monotone reports each
    ray's hit edge as witness[0], oriented away from u, and its hit point
    as target_point."""

    @pytest.mark.parametrize("k", [1, 2, 3, 5, 8])
    def test_comb_has_k_ray_targets(self, k):
        d, tips = hanging_comb(k)
        _, added = augment_y_monotone(d)
        assert {(e.u, e.kind) for e in added} == {(t, "min") for t in tips}
        f = single_inner_face(d.graph)
        segs = [(d.coords[a], d.coords[b])
                for a, b in zip(d.graph.face_vertices(f),
                                d.graph.face_vertices(f)[1:]
                                + d.graph.face_vertices(f)[:1])]
        for e in added:
            assert e.face == f
            assert e.witness[0] == (1, 2)
            assert e.target_point[0] == d.coords[e.u][0]
            y_oracle, hit_kind = ray_shoot_down(d.coords, segs, d.coords[e.u])
            assert hit_kind == "interior"
            assert Fraction(e.target_point[1]) == y_oracle

    def test_comb3_frozen_points(self):
        d = ring_drawing(COMB3, COMB3_CYCLE)
        _, added = augment_y_monotone(d)
        assert {(e.u, e.kind): (e.witness[0], e.target_point)
                for e in added} == {
            (4, "min"): ((1, 2), (rat(10), rat(-5, 6))),
            (6, "min"): ((1, 2), (rat(7), rat(-7, 12))),
            (8, "min"): ((1, 2), (rat(3), rat(-1, 4))),
        }

    def test_convex_face_empty(self):
        d = ring_drawing(CONVEX, CONVEX_CYCLE)
        assert augment_y_monotone(d) == (d.graph, [])

    def test_monotone_nonconvex_face_empty(self):
        d = ring_drawing(STAIR, STAIR_CYCLE)
        f = single_inner_face(d.graph)
        walk = d.graph.face_vertices(f)
        assert any(orientation(d.coords[walk[i - 1]], d.coords[walk[i]],
                               d.coords[walk[(i + 1) % len(walk)]]) == -1
                   for i in range(len(walk)))
        assert augment_y_monotone(d)[1] == []

    def test_two_extrema_face(self):
        d = ring_drawing(TWO, TWO_CYCLE)
        _, added = augment_y_monotone(d)
        targets = {(e.u, e.kind): e for e in added}
        assert set(targets) == {(6, "min"), (2, "max")}
        lo = targets[(6, "min")]
        assert lo.witness[0] == (4, 3)
        assert lo.target_point == (rat(6), rat(-1, 2))
        hi = targets[(2, "max")]
        assert hi.witness[0] == (6, 7)
        assert hi.target_point == (rat(3), rat(9))

    def test_spur_tie_takes_smaller_slope_edge(self):
        d = ring_drawing(SPUR, SPUR_CYCLE)
        _, added = augment_y_monotone(d)
        assert [(e.u, e.kind) for e in added] == [(4, "min")]
        assert added[0].witness[0] == (7, 8)
        assert added[0].target_point == (rat(2), rat(0))

    def test_horizontal_edge_rejected(self):
        # an edge level in the heights is rejected on either axis: the
        # trapezoid's bases are horizontal, and none of its sides vertical
        trapezoid = {1: (0, 0), 2: (4, 0), 3: (3, 2), 4: (1, 2)}
        d = ring_drawing(trapezoid, (1, 2, 3, 4))
        with pytest.raises(PreconditionViolated, match="level"):
            augment_y_monotone(d)
        assert augment_y_monotone(d, 0) == (d.graph, [])
        with pytest.raises(PreconditionViolated, match="level"):
            augment_y_monotone(transposed(d), 0)


class TestAugmentFixtures:
    def test_comb3_edges_and_cluster_order(self):
        d = ring_drawing(COMB3, COMB3_CYCLE)
        new_g, added = augment_y_monotone(d)
        assert [(e.u, e.v, e.kind) for e in added] == [
            (4, 2, "min"), (6, 2, "min"), (8, 2, "min")]
        assert all(e.witness == ((1, 2),) for e in added)
        assert [e.target_point for e in added] == [
            (rat(10), rat(-5, 6)), (rat(7), rat(-7, 12)), (rat(3), rat(-1, 4))]
        # arrivals at the shared minimum sort by hit height, lowest first
        assert cyc(new_g.rotation[2]) == cyc((1, 3, 4, 6, 8))
        assert cyc(new_g.rotation[4]) == cyc((3, 5, 2))
        assert cyc(new_g.rotation[6]) == cyc((5, 7, 2))
        assert cyc(new_g.rotation[8]) == cyc((7, 9, 2))
        for f in new_g.inner_face_indices():
            assert y_extrema_count(new_g.face_vertices(f), d.coords) == 2

    def test_two_extrema_face_augment(self):
        d = ring_drawing(TWO, TWO_CYCLE)
        new_g, added = augment_y_monotone(d)
        assert [(e.u, e.v, e.kind) for e in added] == [
            (2, 7, "max"), (6, 3, "min")]
        up, down = added
        assert up.witness == ((6, 7),)
        assert up.target_point == (rat(3), rat(9))
        assert down.witness == ((4, 3),)
        assert down.target_point == (rat(6), rat(-1, 2))
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
        new_g, added = augment_y_monotone(d)
        assert len(added) == 1
        e = added[0]
        assert (e.u, e.v, e.kind) == (4, 1, "min")
        assert e.witness == ((7, 8), (8, 9), (9, 1))
        assert e.target_point == (rat(2), rat(0))
        assert cyc(new_g.rotation[1]) == cyc((9, 2, 4))
        for f in new_g.inner_face_indices():
            assert y_extrema_count(new_g.face_vertices(f), d.coords) == 2

    def test_monotone_input_unchanged(self):
        d = ring_drawing(STAIR, STAIR_CYCLE)
        new_g, added = augment_y_monotone(d)
        assert added == []
        assert new_g == d.graph


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


def reflex_extrema_of_face(g, coords, f):
    """(vertex, kind) pairs for the reflex local extrema of face f."""
    walk = g.face_vertices(f)
    k = len(walk)
    out = set()
    for i in range(k):
        a, u, b = walk[i - 1], walk[i], walk[(i + 1) % k]
        if orientation(coords[a], coords[u], coords[b]) != -1:
            continue
        if coords[a][1] > coords[u][1] and coords[b][1] > coords[u][1]:
            out.add((u, "min"))
        if coords[a][1] < coords[u][1] and coords[b][1] < coords[u][1]:
            out.add((u, "max"))
    return out


def walk_extrema(walk, coords, vertex):
    ys = [coords[v][1] for v in walk]
    k = len(walk)
    kinds = set()
    for i in range(k):
        if walk[i] != vertex:
            continue
        ya, yu, yb = ys[(i - 1) % k], ys[i], ys[(i + 1) % k]
        if ya > yu and yb > yu:
            kinds.add("min")
        if ya < yu and yb < yu:
            kinds.add("max")
    return kinds


SHIFT = Fraction(1, 2 ** 60)


def check_edge_against_face(d, e, walk):
    """Structural checks of one augmenting edge against its original face."""
    g = d.graph
    coords = d.coords
    k = len(walk)
    darts = {(walk[i], walk[(i + 1) % k]) for i in range(k)}
    sgn = 1 if e.kind == "min" else -1
    # endpoints are extrema of the face, u reflexly so
    assert (e.u, e.kind) in reflex_extrema_of_face(g, coords, e.face)
    assert e.kind in walk_extrema(walk, coords, e.v)
    # the witness chain walks the boundary strictly toward v
    assert e.witness[-1][1] == e.v
    prev_end = None
    for a, b in e.witness:
        assert (a, b) in darts or (b, a) in darts
        assert sgn * (coords[a][1] - coords[b][1]) > 0
        if prev_end is not None:
            assert a == prev_end
        prev_end = b
    # the ray target sits on the first witness edge, straight below/above u
    px, py = e.target_point
    assert px == coords[e.u][0]
    assert sgn * (coords[e.u][1] - py) > 0
    a, b = e.witness[0]
    assert orientation(coords[a], coords[b], (px, py)) == 0
    assert min(coords[a][1], coords[b][1]) <= py <= max(coords[a][1], coords[b][1])
    # oracle: a slightly shifted exact ray must agree with the chosen edge
    segs = [(coords[p], coords[q]) for p, q in darts]
    if e.kind == "min":
        start = (Fraction(coords[e.u][0]) - SHIFT, Fraction(coords[e.u][1]))
    else:
        segs = [((-p[0], -p[1]), (-q[0], -q[1])) for p, q in segs]
        start = (-Fraction(coords[e.u][0]) - SHIFT, -Fraction(coords[e.u][1]))
    # negating both coordinates preserves the slope, so the shifted hit is
    # slope * SHIFT below the target in either frame
    slope = Fraction(coords[b][1] - coords[a][1], coords[b][0] - coords[a][0])
    got = ray_shoot_down(coords, segs, start)
    assert got is not None
    assert got[0] == sgn * Fraction(py) - slope * SHIFT


class TestAugmentRandom:
    def test_random_instances(self):
        total = 0
        for seed in range(40):
            rng = random.Random(3000 + seed)
            d = random_augment_instance(rng, n_lo=12, n_hi=22, drop_frac=0.8)
            g = d.graph
            inner = g.inner_face_indices()
            expected = count_reflex_extrema_in_faces(
                d.coords, [g.face_vertices(f) for f in inner])
            new_g, added = augment_y_monotone(d)
            assert len(added) == expected
            total += len(added)
            assert new_g.m == g.m + len(added)
            assert new_g.outer_walk() == g.outer_walk()
            assert is_internally_3connected(new_g)
            assert new_g.n - new_g.m + len(new_g.faces) == 2
            for rot in new_g.rotation.values():
                assert len(set(rot)) == len(rot)
            for f in new_g.inner_face_indices():
                assert y_extrema_count(new_g.face_vertices(f), d.coords) == 2
            for e in added:
                assert not g.has_edge(e.u, e.v)
                assert new_g.has_edge(e.u, e.v)
                check_edge_against_face(d, e, g.face_vertices(e.face))
            assert_fraction_oracle_agrees(d)
        assert total >= 40

    def test_twenty_vertex_instances_become_monotone(self):
        for seed in range(6):
            rng = random.Random(7100 + seed)
            d = random_augment_instance(rng, n_lo=20, n_hi=20, span=40)
            new_g, added = augment_y_monotone(d)
            for f in new_g.inner_face_indices():
                assert y_extrema_count(new_g.face_vertices(f), d.coords) == 2


class TestRealization:
    @pytest.mark.parametrize("coords,cycle", [
        (COMB3, COMB3_CYCLE), (TWO, TWO_CYCLE), (SPUR, SPUR_CYCLE)])
    def test_fixture_curves_are_drawable(self, coords, cycle):
        d = ring_drawing(coords, cycle)
        _, added = augment_y_monotone(d)
        polys = realize_augmenting_edges(d, added)
        assert set(polys) == {(e.u, e.v) for e in added}

    def test_random_small_instances_are_drawable(self):
        drawn = 0
        for seed in range(25):
            rng = random.Random(5200 + seed)
            d = random_augment_instance(rng, n_lo=8, n_hi=13)
            _, added = augment_y_monotone(d)
            polys = realize_augmenting_edges(d, added)
            drawn += len(polys)
        assert drawn >= 10


def assert_fraction_oracle_agrees(d):
    """The integer-view augmentation gives the Fraction one's rotation and
    edges; returns the number of edges."""
    new_g, added = augment_y_monotone(d)
    rotation, edges = augment_y_monotone_fraction(d.graph, d.coords)
    assert new_g.rotation == rotation
    assert [(e.u, e.v, e.face, e.kind, e.witness, e.target_point)
            for e in added] == edges
    return len(added)


def scaled(d):
    """x -> (x - 17)/3, y -> (y - 23)/5: negative, non-dyadic coordinates
    with every vertical alignment (and so every ray tie) kept."""
    return Drawing(d.graph, {v: ((x - 17) / 3, (y - 23) / 5)
                             for v, (x, y) in d.coords.items()})


def skewed(d):
    """scaled, then x -> x + y/7: orientation and heights kept, the rays
    moved."""
    return Drawing(d.graph, {v: (x + y / 7, y)
                             for v, (x, y) in scaled(d).coords.items()})


FAMILIES = {
    "convex_outer": lambda rng: random_augment_instance(rng, 14, 14, 20),
    "dent": lambda rng: dent_instance(rng, 12, 20),
    "pockets": lambda rng: pocket_instance(rng, 12, 20),
}


class TestFractionOracle:
    @pytest.mark.parametrize("coords,cycle", [
        (COMB3, COMB3_CYCLE), (TWO, TWO_CYCLE), (SPUR, SPUR_CYCLE),
        (STAIR, STAIR_CYCLE)])
    def test_rings(self, coords, cycle):
        d = ring_drawing(coords, cycle)
        counts = [assert_fraction_oracle_agrees(dd)
                  for dd in (d, scaled(d), skewed(d))]
        assert counts[0] == counts[1] == counts[2]

    def test_spur_tie_survives_scaling(self):
        _, added = augment_y_monotone(scaled(ring_drawing(SPUR, SPUR_CYCLE)))
        assert added[0].witness[0] == (7, 8)
        assert added[0].target_point == (rat(-5), rat(-23, 5))

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_family_drawings(self, family, monkeypatch):
        # each input with and without more of its inner edges, and every
        # drawing convexify augments (transposed where it augments in x);
        # as they are and moved off the grid
        seen = []
        real = morph_engine.augment_y_monotone

        def spy(d, axis=1):
            seen.append(d if axis == 1 else transposed(d))
            return real(d, axis)

        monkeypatch.setattr(morph_engine, "augment_y_monotone", spy)
        for seed in range(2):
            d = FAMILIES[family](random.Random(seed))
            seen += [d, _drop_inner_edges(random.Random(seed), d, 0.8)]
            convexify(d)
        edges = 0
        for d in seen:
            if any(d.coords[u][1] == d.coords[v][1] for u, v in d.graph.edges()):
                continue
            edges += assert_fraction_oracle_agrees(d)
            edges += assert_fraction_oracle_agrees(scaled(d))
            edges += assert_fraction_oracle_agrees(skewed(d))
        assert edges > 0


class TestApplyPlans:
    def test_vertex_off_the_face(self):
        d = ring_drawing(TWO, TWO_CYCLE)
        f = single_inner_face(d.graph)
        with pytest.raises(EmbeddingInvalid, match=f"vertex 9 .*face {f}"):
            _apply_plans(d.graph, {(f, 9): [1]})

    def test_plans_of_both_phases_at_one_wedge(self, monkeypatch):
        # both passes planning curves into the wedge of face f at vertex 6
        d = ring_drawing(TWO, TWO_CYCLE)
        f = single_inner_face(d.graph)
        monkeypatch.setattr(monotone_augment, "_phase",
                            lambda g, pts, turn: ([], {(f, 6): [3]}))
        with pytest.raises(EmbeddingInvalid, match=f"face {f} .*vertex 6"):
            augment_y_monotone(d)

import functools
import hashlib
import math
import os
import random
import subprocess
import sys
import traceback
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from convexmorph import (morph_engine, plane_graph, steps, tutte_solver,
                         verify)
from convexmorph.connectivity import three_connected
from convexmorph.monotone_augment import augment_y_monotone
from convexmorph.morph_engine import (
    ConvexifyError,
    NotInternallyThreeConnected,
    PlacementFailure,
    PocketNotSeparated,
    PostconditionFailed,
    convexify,
    morph_B,
)
from convexmorph.plane_graph import (
    Drawing,
    EmbeddingInvalid,
    NotPlanarInput,
    PlaneGraph,
    PreconditionViolated,
    _integer_view,
    build_plane_graph_from_points,
    choose_safe_shear,
    convex_hull,
    integer_points,
    internal_reflex_angles,
    is_convex_outer,
    is_strictly_convex,
    rat,
    shear,
    straddles,
    unique_extreme,
    validate_drawing,
)
from convexmorph.steps import Direction, GraphEdit, MorphSequence, MorphStep
from convexmorph.tutte_solver import BoundaryPolygon, convex_polygon_for_y
from convexmorph.verify import (
    check_convexity_increasing,
    check_step_bounds,
    check_unidirectional_planar,
)

from test_bench_outputs import DIGESTS, bench_drawing
from _instances import (
    _drop_inner_edges,
    _fixed_n_triangulation,
    dent_instance,
    hidden_component_drawing,
    pocket_instance,
    event_digest,
    random_augment_instance,
    random_triangulation,
    same_plane_graph,
)
from _oracles import (
    brute_strictly_convex,
    buffer_shrink_ladder,
    convexity_increasing_sampled,
    dyadic_sqrt_floor,
    mirrored,
    seg_seg_dist_sq_fraction,
    shear_fraction,
    shear_ok,
    snap_fraction,
    step_at,
    transposed,
    validate_face_orientations,
)


def wheel_drawing(hub=(2, 2)):
    """The wheel on a 4x4 square, its graph embedded with the hub at the
    centre and drawn with the hub at the given point."""
    corners = {1: (0, 0), 2: (4, 0), 3: (4, 4), 4: (0, 4)}
    edges = [(1, 2), (2, 3), (3, 4), (4, 1), (1, 5), (2, 5), (3, 5), (4, 5)]
    embed = {v: (rat(x), rat(y)) for v, (x, y) in {**corners, 5: (2, 2)}.items()}
    g = build_plane_graph_from_points(embed, edges)
    return Drawing(g, {**embed, 5: (rat(hub[0]), rat(hub[1]))})


def test_engine_imports_without_numpy_or_scipy():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    code = ("import sys, convexmorph.morph_engine, convexmorph.verify; "
            "print(sorted(m for m in ('numpy', 'scipy') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_convexify_rejects_crossing_edges():
    # the hub outside the square: its spokes cross the square's sides
    with pytest.raises(NotPlanarInput, match="cross"):
        convexify(wheel_drawing(hub=(6, 2)))


def test_convexify_rejects_unrealized_rotation():
    # a mirror image is planar but turns every rotation around
    d = wheel_drawing()
    mirrored = Drawing(d.graph,
                       {v: (-x, y) for v, (x, y) in d.coords.items()})
    with pytest.raises(NotPlanarInput, match="embedding"):
        convexify(mirrored)


@pytest.mark.parametrize("seed", range(40))
def test_convexify_rejects_an_outer_dart_on_a_bounded_face(seed):
    # the same drawing with its outer dart on an inner face: planar, every
    # rotation realized, but the named outer walk runs counterclockwise
    d = random_triangulation(random.Random(seed), 10, 40)
    g = d.graph
    for fi in sorted({g.inner_face_indices()[0], g.inner_face_indices()[-1]}):
        with pytest.raises(NotPlanarInput, match="bounded face"):
            convexify(Drawing(g.with_outer(g.faces[fi][0]), d.coords))


def test_convexify_rejects_input_that_is_not_internally_3connected():
    with pytest.raises(NotInternallyThreeConnected):
        convexify(hidden_component_drawing())


@pytest.mark.parametrize("coords, edges", [
    ({1: (0, 0), 2: (3, 1)}, [(1, 2)]),
    ({1: (0, 0), 2: (3, 1), 3: (5, 4), 4: (6, 9)}, [(1, 2), (2, 3), (3, 4)]),
    ({0: (0, 0), 1: (4, 1), 2: (-1, 3), 3: (-2, -3)},
     [(0, 1), (0, 2), (0, 3)]),
], ids=["edge", "path", "star"])
def test_convexify_turns_trees_away_at_the_connectivity_gate(coords, edges):
    # a planar drawing of a tree bounds no face: its one walk's shoelace
    # sum is 0, which names no bounded face, so the connectivity gate
    # answers
    d = Drawing(build_plane_graph_from_points(coords, edges), coords)
    with pytest.raises(NotInternallyThreeConnected):
        convexify(d)


@pytest.mark.parametrize("seed", range(3))
def test_convexify_returns_no_events_on_strictly_convex_input(seed):
    d = random_triangulation(random.Random(seed), 10, 40)
    seq = convexify(d)
    assert isinstance(seq, MorphSequence)
    assert seq.events == ()
    assert seq.final is d


@pytest.mark.parametrize("seed", range(6))
def test_convexify_certified_on_convex_outer_input(seed):
    d = random_augment_instance(random.Random(seed), 12, 16)
    seq = convexify(d)
    assert seq.step_count >= 1
    assert all(check_unidirectional_planar(step) for step in seq.steps)
    assert check_convexity_increasing(seq, d.graph)
    assert check_step_bounds(seq, "convex_outer")
    assert is_strictly_convex(seq.final)
    assert seq.final.graph == d.graph


# dent: a 3-connected graph whose hull was pulled in (the 3-connected branch,
# through pop_pocket); pockets: internally but not 3-connected (the buffer
# branch, through pop_pocket and remove_buffer_vertex)
FAMILIES = {"dent": (dent_instance, 20, "3conn"),
            "pockets": (pocket_instance, 12, "general")}


def instance(family, seed):
    """The test drawing of a family (convex_outer or one of FAMILIES)."""
    if family == "convex_outer":
        return convex_outer_instance(random.Random(seed), 14, 20)
    make, n, _ = FAMILIES[family]
    return make(random.Random(seed), n, 20)


@functools.lru_cache(maxsize=None)
def convexified(family, seed):
    d = instance(family, seed)
    return d, convexify(d)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_convexify_certified_on_hull_pocket_input(family, seed):
    d, seq = convexified(family, seed)
    assert not is_convex_outer(d)
    assert three_connected(d.graph.adjacency()) == (family == "dent")
    assert seq.step_count >= 1
    assert all(check_unidirectional_planar(step) for step in seq.steps)
    assert check_convexity_increasing(seq, d.graph)
    assert check_step_bounds(seq, FAMILIES[family][2])
    assert is_strictly_convex(seq.final)
    assert same_plane_graph(seq.final.graph, d.graph)


@pytest.mark.parametrize("workload, i", [
    k for k in sorted(DIGESTS) if k[0] in ("three_connected", "buffered")])
def test_convexify_ignores_where_each_rotation_starts(workload, i):
    # a rotation is cyclic: the bench drawings whose hull has gaps, with
    # every rotation started one neighbour later, give the pinned events,
    # since the completed hull is embedded again from the points
    d = bench_drawing(workload, i)
    rot = {v: nbrs[1:] + nbrs[:1] for v, nbrs in d.graph.rotation.items()}
    assert rot != d.graph.rotation
    shifted = Drawing(PlaneGraph(rot, d.graph.outer_dart), d.coords)
    assert event_digest(convexify(shifted)) == DIGESTS[workload, i]


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2 ** 32), span=st.sampled_from((4, 10)))
def test_convexify_certified_on_unsheared_grid_input(seed, span):
    # Delaunay drawings on the 9 x 9 and 21 x 21 integer grids without the
    # y += x/997 shear, so edges and vertex pairs may be level on either
    # axis: inner edges dropped (convex outer), outer edges removed too
    # (buffer paths), and a dented hull (the 3-connected branch)
    rng = random.Random(seed)
    n = rng.randint(6, 12) if span == 4 else rng.randint(8, 20)
    drawings = [
        _drop_inner_edges(rng, _fixed_n_triangulation(rng, n, span, False),
                          0.5),
        pocket_instance(rng, n, span, sheared=False),
        dent_instance(rng, n, span, sheared=False),
    ]
    for d in drawings:
        seq = convexify(d)
        mode = ("convex_outer" if is_convex_outer(d)
                else "3conn" if three_connected(d.graph.adjacency())
                else "general")
        assert all(check_unidirectional_planar(step) for step in seq.steps)
        assert check_convexity_increasing(seq, d.graph)
        assert check_step_bounds(seq, mode)
        assert is_strictly_convex(seq.final)
        assert same_plane_graph(seq.final.graph, d.graph)


def test_pocket_input_runs_every_redraw():
    h, v = Direction.HORIZONTAL, Direction.VERTICAL
    seen = {(step.direction, note)
            for seed in range(6)
            for step in convexified("pockets", seed)[1].steps
            for note in step.provenance.split("; ")}
    assert seen >= {(h, "convex redraw with straddle shear"),
                    (v, "convex redraw with straddle shear"),
                    (v, "pocket corner to the top"),
                    (h, "pocket corners to the sides"),
                    (v, "pocket path onto the hull"),
                    (h, "absorb the new corner"),
                    (v, "absorb the new corner")}


# After morph_B's redraw, one reflex angle already straddles its apex in
# x, and an edge is vertical. The shear that clears the vertical edge used
# to be free to end the straddle, and the next vertical move then retired
# nothing ("alternating move failed to retire a reflex angle").
@pytest.mark.parametrize("seed", [80, 94])
def test_convexify_keeps_the_straddle_through_the_shear(seed):
    d = convex_outer_instance(random.Random(seed), 10, 20)
    assert is_convex_outer(d)
    seq = convexify(d)
    assert all(check_unidirectional_planar(step) for step in seq.steps)
    assert check_convexity_increasing(seq, d.graph)
    assert check_step_bounds(seq, "convex_outer")
    assert is_strictly_convex(seq.final)


def test_convex_outer_phase_counts_reflex_angles_once_per_move(monkeypatch):
    # morph_B returns the count it took on its redraw, which a shear
    # keeps, so the loop counts once at the start and once per move
    counts, moves = [], []
    count, move = plane_graph.internal_reflex_angles, morph_engine.morph_B

    def spy_count(d):
        counts.append(d)
        return count(d)

    def spy_move(*args, **kwargs):
        moves.append(args)
        return move(*args, **kwargs)

    for mod in (plane_graph, morph_engine):
        monkeypatch.setattr(mod, "internal_reflex_angles", spy_count)
    monkeypatch.setattr(morph_engine, "morph_B", spy_move)
    convexify(instance("convex_outer", 0))
    assert len(moves) >= 2
    assert len(counts) == len(moves) + 1


@pytest.mark.parametrize("direction", list(Direction))
def test_morph_B_rejects_an_edge_level_on_the_fixed_axis(direction):
    # the square's sides are level on both axes; augment_y_monotone states
    # the precondition for morph_B
    with pytest.raises(PreconditionViolated, match="level"):
        morph_B(wheel_drawing(hub=(1, 3)), direction)


def reflected_instance(seed):
    """A convex-outer instance with x and y swapped and its embedding built
    again from the points: every y an integer, so vertices share y, and no
    two x equal, so no two vertices touch a descent on x at one level."""
    d = random_augment_instance(random.Random(seed), 10, 14, 20, 0.8)
    pts = {v: (y, x) for v, (x, y) in d.coords.items()}
    return Drawing(build_plane_graph_from_points(pts, d.graph.edges()), pts)


def _result(f, *args):
    try:
        return f(*args)
    except ValueError as exc:
        return type(exc)


@given(st.integers(0, 2 ** 32))
@settings(max_examples=40, deadline=None)
def test_vertical_moves_mirror_the_transposed_horizontal_ones(seed):
    # a vertical move runs on the drawing itself; transposing it, moving
    # horizontally and transposing back must give the same. The x heights
    # are distinct, so no descent meets a tie that the reflection would
    # resolve to the other side, and the augmented graphs mirror each other
    d = reflected_instance(seed)
    g_aug = augment_y_monotone(d, 0)
    assert same_plane_graph(g_aug, mirrored(augment_y_monotone(transposed(d))))
    got = _result(morph_B, d, Direction.VERTICAL)
    want = _result(morph_B, transposed(d), Direction.HORIZONTAL)
    if isinstance(want, type):
        assert got is want
        return
    (end, count), (t_end, t_count) = got, want
    back = transposed(t_end)
    assert (end.ints, end.den, count) == (back.ints, back.den, t_count)
    assert end.graph == back.graph == d.graph


def dyadic(c) -> bool:
    return c.denominator & (c.denominator - 1) == 0


def spy_redraws(monkeypatch):
    """A list that fills as convexify runs: for each redraw _compact
    emits, whether its moving axis is snapped (every coordinate dyadic)."""
    redraws = []
    compact = morph_engine._compact

    def spy(d, direction, *args):
        out = compact(d, direction, *args)
        redraws.append(all(dyadic(p[direction.moving_axis])
                           for p in out.coords.values()))
        return out

    monkeypatch.setattr(morph_engine, "_compact", spy)
    return redraws


# Deep pockets: three passes of outer-edge removal at n = 40. With a
# default polygon whose width grew with the square of its span, seed 3006
# raised "no polygon separates the pocket corners" and seed 3009 ran for
# minutes while its coordinates grew to hundreds of thousands of bits.
@pytest.mark.parametrize("seed", [3006, 3009])
def test_convexify_certified_on_deep_pockets(seed, monkeypatch):
    redraws = spy_redraws(monkeypatch)
    d = pocket_instance(random.Random(seed), 40, 30, passes=3)
    assert not three_connected(d.graph.adjacency())
    seq = convexify(d)
    # every redraw emitted a snapped drawing, never the exact solution
    assert redraws and all(redraws)
    assert all(check_unidirectional_planar(step) for step in seq.steps)
    assert check_convexity_increasing(seq, d.graph)
    assert check_step_bounds(seq, "general")
    assert is_strictly_convex(seq.final)
    assert same_plane_graph(seq.final.graph, d.graph)


# Seed 3000 at n = 80: the old ladder, which ended at 2^-192 and then
# emitted the exact redraw, found no grid for three redraws, and the exact
# coordinates grew past 279,000 bits. Certifying every step of this run
# takes about 40 s, so only the end drawing is checked.
def test_convexify_deep_pocket_at_n80_snaps_every_redraw(monkeypatch):
    redraws = spy_redraws(monkeypatch)
    d = pocket_instance(random.Random(3000), 80, 30, passes=3)
    seq = convexify(d)
    assert redraws and all(redraws)
    assert is_strictly_convex(seq.final)
    assert same_plane_graph(seq.final.graph, d.graph)


# integer shear and snap against the Fraction arithmetic they replace, on
# arbitrary points of K4 (neither needs a planar drawing)
K4 = build_plane_graph_from_points(
    {1: (0, 0), 2: (6, 0), 3: (0, 6), 4: (1, 1)},
    [(1, 2), (2, 3), (3, 1), (1, 4), (2, 4), (3, 4)])
dyadics = st.builds(lambda a, k: Fraction(a, 1 << k),
                    st.integers(-2 ** 60, 2 ** 60), st.integers(0, 200))
rationals = st.one_of(dyadics, st.fractions(-10 ** 6, 10 ** 6,
                                            max_denominator=10 ** 12))
points = st.lists(st.tuples(rationals, rationals), min_size=4, max_size=4)


@given(points, st.sampled_from((0, 1)), rationals)
@settings(max_examples=150, deadline=None)
def test_integer_shear_matches_fraction_oracle(pts, axis, lam):
    d = Drawing(K4, dict(zip((1, 2, 3, 4), pts)))
    got, want = shear(d, axis, lam), shear_fraction(d, axis, lam)
    assert (got.ints, got.den) == (want.ints, want.den)
    assert got.coords == want.coords


# every boundary coordinate and the unknown on a tie of the 2^-1 grid
TIES = [(Fraction(k, 4), Fraction(-k, 4)) for k in (1, 3, -5, 7)]


@given(points, points, st.sampled_from((0, 1)), st.integers(1, 300),
       rationals)
@example(TIES, TIES, 0, 1, Fraction(3, 4))
@example(TIES, TIES, 1, 1, Fraction(-5, 4))
@settings(max_examples=150, deadline=None)
def test_integer_snap_matches_fraction_oracle(pts, ring, ma, bits, value):
    d = Drawing(K4, dict(zip((1, 2, 3, 4), pts)))
    ints, den = _integer_view(dict(zip((1, 3, 2), ring)))
    poly = BoundaryPolygon((1, 3, 2), ints, den)
    # the rounding of the one unknown, vertex 4, at value
    rounded = {4: round(value * (1 << bits))}
    got = morph_engine._snapped(d, ma, poly, rounded, bits)
    want = snap_fraction(d, ma, poly, rounded, bits)
    assert (got.ints, got.den) == (want.ints, want.den)


int_points = st.tuples(st.integers(-10 ** 9, 10 ** 9),
                       st.integers(-10 ** 9, 10 ** 9))


@given(int_points, int_points, int_points, int_points)
@settings(max_examples=150, deadline=None)
def test_segment_distance_pairs_match_fraction_oracle(a, b, c, d):
    # the buffer geometry's distances as integer pairs, compared by
    # cross-multiplication, are the rationals of the Fraction arithmetic
    assume(a != b and c != d)
    num, den = morph_engine._seg_seg_dist_sq(a, b, c, d)
    assert Fraction(num, den) == seg_seg_dist_sq_fraction(a, b, c, d)


def test_grid_ladders_extend_the_old_ones():
    # the old redraw ladder is a prefix of the new one, so a snap that an
    # old grid accepted is unchanged
    ladder = list(morph_engine._grid_bits())
    assert ladder[:8] == [48, 64, 96, 128, 192, 256, 384, 512]
    assert ladder[-1] == morph_engine._MAX_GRID_BITS == 1 << 16


def test_choose_safe_shear_finds_a_coarse_dyadic_in_a_narrow_window():
    # keeping vertex 1 leftmost allows N/(3N+1) < lam < N/(3N-1), and edge
    # 2-3 turns vertical at 1/3 inside that window: the first gap, below
    # 1/3, is about 2^-136 wide, and its middle third holds a dyadic of at
    # most 140 bits (the old midpoint had a 138-bit odd denominator, which
    # the old snap ladder took to 2^-192)
    n = 10 ** 40
    coords = {1: (0, 0), 2: (n, -(3 * n - 1)), 3: (-n, 3 * n + 1)}
    g = build_plane_graph_from_points(coords, [(1, 2), (2, 3), (3, 1)])
    d = Drawing(g, coords)
    pins = ((1, "left"),)
    lam = choose_safe_shear(d, 0, pins=pins)
    assert Fraction(n, 3 * n + 1) < lam < Fraction(1, 3)
    assert dyadic(lam) and lam.denominator <= 1 << 140
    assert shear_ok(g, integer_points(d.coords), 0, lam, pins=pins)


# Seed 3097 of the same recipe: its first morph_B after hull completion
# augments a face with two reflex minima and a reflex maximum whose edges
# must not cross. Planning the two kinds in separate passes and merging the
# plans gave an embedding that failed the Euler check (EmbeddingInvalid);
# one descent rule for both kinds keeps every edge inside its own region.
def test_convexify_deep_pocket_3097():
    d = pocket_instance(random.Random(3097), 40, 30, passes=3)
    seq = convexify(d)
    assert is_strictly_convex(seq.final)
    assert same_plane_graph(seq.final.graph, d.graph)


# The n = 80 seeds of the same recipe on which the merged plans failed the
# same way; only the end of each run is checked, not every step.
@pytest.mark.parametrize("seed", [3011, 3021, 3037, 3045])
def test_convexify_deep_pocket_80(seed):
    d = pocket_instance(random.Random(seed), 80, 30, passes=3)
    seq = convexify(d)
    assert is_strictly_convex(seq.final)
    assert same_plane_graph(seq.final.graph, d.graph)


# Seed 3045 at n = 80: with midpoint shear factors snapped onto a ladder
# from 2^-24, its corner chains took the coordinates to 12,289 bits; with
# each gap factor the coarsest dyadic in the gap's middle third they stay
# at 221.
def test_deep_pocket_3045_keeps_coordinates_short():
    d = pocket_instance(random.Random(3045), 80, 30, passes=3)
    seq = convexify(d)
    assert is_strictly_convex(seq.final)
    assert max(max(abs(c.numerator).bit_length(), c.denominator.bit_length())
               for e in (seq.initial, *(ev.end for ev in seq.events))
               for p in e.coords.values() for c in p) <= 512


def one_vertex_triangle():
    """A triangle around one vertex, and the default polygon of a
    horizontal redraw of it."""
    coords = {1: (0, 0), 2: (4, 1), 3: (1, 5), 4: (2, 2)}
    g = build_plane_graph_from_points(
        coords, [(1, 2), (2, 3), (3, 1), (1, 4), (2, 4), (3, 4)])
    d = Drawing(g, coords)
    poly = convex_polygon_for_y(g.outer_walk(),
                                {v: p[1] for v, p in d.ints.items()},
                                den=d.den)
    return d, poly


def test_failed_postcondition_raises_a_typed_error():
    # a pin no redraw can keep: 4 lies inside the triangle 1, 2, 3, so it
    # is never the unique leftmost vertex
    d, poly = one_vertex_triangle()
    solution = tutte_solver.RoundedSolution(*tutte_solver.redraw_rows(
        d, poly, 1))
    with pytest.raises(PostconditionFailed) as info:
        morph_engine._compact(d, Direction.HORIZONTAL, poly, solution,
                              ((4, "left"),), "a noted step")
    assert isinstance(info.value, ConvexifyError)
    assert isinstance(info.value, RuntimeError)
    assert info.value.layer == "a noted step"
    assert info.value.check == (
        "redraw failed its postcondition on every grid to 2^-65536")


def test_compact_skips_a_grid_without_a_certified_rounding(monkeypatch):
    # a rounding too close to its tie answers None; _compact moves on to
    # the next grid of its ladder
    d, poly = one_vertex_triangle()
    solution = tutte_solver.RoundedSolution(*tutte_solver.redraw_rows(
        d, poly, 1))
    want = morph_engine._snapped(d, 0, poly, solution.rounded(64), 64)
    asked = []
    rounded = tutte_solver.RoundedSolution.rounded

    def none_at_48(self, bits):
        asked.append(bits)
        return None if bits == 48 else rounded(self, bits)

    monkeypatch.setattr(tutte_solver.RoundedSolution, "rounded", none_at_48)
    out, _ = morph_engine._redraw(d, Direction.HORIZONTAL, ((),),
                                  "a noted step")
    assert asked == [48, 64]
    assert (out.ints, out.den) == (want.ints, want.den)
    # on the 2^-64 grid, not on the 2^-48 one
    assert (1 << 64) % out.den == 0 and (1 << 48) % out.den != 0
    assert is_strictly_convex(out)


def test_uncertified_system_raises_a_typed_error(monkeypatch):
    # a system off the M-matrix sign pattern (its diagonal negated) has no
    # certified rounding; _redraw names the step and the reason
    d, poly = one_vertex_triangle()
    real = morph_engine.redraw_rows

    def negated(*args):
        ids, cols, coefs, rhs, den = real(*args)
        return ids, cols, [[-a[0], *a[1:]] for a in coefs], rhs, den

    monkeypatch.setattr(morph_engine, "redraw_rows", negated)
    with pytest.raises(PostconditionFailed) as info:
        morph_engine._redraw(d, Direction.HORIZONTAL, ((),), "a noted step")
    assert info.value.layer == "a noted step"
    assert info.value.check == "not an M-matrix sign pattern"


def test_redraw_takes_the_first_pins_that_have_a_polygon():
    # 4 is inside the triangle, on neither chain of the outer walk, so no
    # polygon pins it; 1 is the bottom vertex and can be the leftmost
    d, _ = one_vertex_triangle()
    out, pins = morph_engine._redraw(
        d, Direction.HORIZONTAL, (((4, "left"),), ((1, "left"),)),
        "a noted step")
    assert pins == ((1, "left"),)
    assert is_strictly_convex(out)
    assert unique_extreme(out.ints, 1, "left")
    with pytest.raises(PocketNotSeparated) as info:
        morph_engine._redraw(d, Direction.HORIZONTAL, (((4, "left"),),),
                             "a noted step")
    assert info.value.layer == "a noted step"
    assert info.value.check == "no polygon meets any choice of pins"


def test_float_input_runs_as_the_rationals_it_denotes():
    # a pocket drawing scaled onto dyadic coordinates, given once as floats
    # and once as the equal Fractions: one integer view, one run
    d = pocket_instance(random.Random(3), 12, 20)
    dyadic_coords = {v: (x * d.den / 8, y * d.den / 8)
                     for v, (x, y) in d.coords.items()}
    floats = {v: (float(x), float(y)) for v, (x, y) in dyadic_coords.items()}
    assert all(Fraction(fx) == x and Fraction(fy) == y
               for (fx, fy), (x, y) in zip(floats.values(),
                                           dyadic_coords.values()))
    from_floats = Drawing(d.graph, floats)
    from_fractions = Drawing(d.graph, dyadic_coords)
    assert from_floats.den == from_fractions.den == 8
    assert from_floats.ints == from_fractions.ints
    seq = convexify(from_fractions)
    assert seq.events
    assert event_digest(convexify(from_floats)) == event_digest(seq)


def test_redraw_names_its_move_when_the_outer_walk_is_not_monotone():
    # the square's bottom side is horizontal, so no polygon keeps y on its
    # outer walk: the builder's failure is the move's typed error
    coords = {1: (0, 0), 2: (4, 0), 3: (4, 4), 4: (0, 4), 5: (1, 2)}
    edges = [(1, 2), (2, 3), (3, 4), (4, 1), (5, 1), (5, 2), (5, 3), (5, 4)]
    d = Drawing(build_plane_graph_from_points(coords, edges), coords)
    with pytest.raises(PocketNotSeparated) as info:
        morph_engine._redraw(d, Direction.HORIZONTAL, ((),), "note")
    assert info.value.layer == "note"
    assert info.value.check == "no polygon meets any choice of pins"


def refuse(*args):
    raise EmbeddingInvalid("refused")


def buffers(d):
    """augment_buffers on d's hull and hull gaps, as convexify passes them."""
    hull = convex_hull(d)
    return morph_engine.augment_buffers(d, hull,
                                        morph_engine._hull_gaps(d, hull))


def fail_check(check, mp, n):
    """Make one check of augment_buffers fail, through the monkeypatch mp,
    on a drawing with n vertices (the placement has more), and return the
    text it raises."""
    patch = functools.partial(mp.setattr, morph_engine)
    if check == "build":
        patch("build_plane_graph_from_points", refuse)
        return "placement is not a plane graph: refused"
    if check == "planar":
        # only augment_buffers calls it through morph_engine; convexify's
        # input check calls it through validate_drawing
        patch("drawing_is_planar", lambda g, pts: False)
        return "placement fails drawing_is_planar"
    if check == "3-connected":
        patch("is_internally_3connected", lambda g: False)
        return "padded graph is not internally 3-connected"
    if check == "hull":
        hull = morph_engine.convex_hull
        patch("convex_hull",
              lambda d: hull(d)[1:] if d.graph.n > n else hull(d))
        return "hull is not the old hull plus the spine ends"
    if check == "outer walk":
        # the connectivity test reads the outer walk too
        walk = PlaneGraph.outer_walk
        patch("is_internally_3connected", lambda g: True)
        mp.setattr(PlaneGraph, "outer_walk",
                   lambda g: () if g.n > n else walk(g))
        return "a spine is off the outer walk or a pocket vertex on it"
    # every offset pointing the other way: each end midpoint leaves the
    # hull segment, and no shrink fans the spokes out
    geometry = morph_engine._buffer_geometry

    def reversed_offsets(d, path):
        scale, spine = geometry(d, path)
        return scale, [(b, (-q[0], -q[1])) for b, q in spine]

    patch("_buffer_geometry", reversed_offsets)
    return "no shrink 2^-k turns every pocket fan clockwise"


def test_placement_failure_raises_a_typed_error(monkeypatch):
    # a placement that fails one check: augment_buffers names the edit it
    # could not make and the check, and convexify lets the error through
    d = instance("pockets", 0)
    for check in ("build", "planar", "3-connected", "hull", "outer walk",
                  "fan"):
        with monkeypatch.context() as mp:
            text = fail_check(check, mp, d.graph.n)
            with pytest.raises(PlacementFailure) as info:
                buffers(d)
            assert info.value.layer == "insert buffer paths"
            assert info.value.check == text
    with monkeypatch.context() as mp:
        text = fail_check("planar", mp, d.graph.n)
        with pytest.raises(ConvexifyError) as info:
            convexify(d)
        assert (info.value.layer, info.value.check) == (
            "insert buffer paths", text)


def placed(d):
    """augment_buffers(d) and the shrink exponent it placed at. The padded
    drawing's hull gaps are its spine ends, as convexify passes them on
    without computing its hull."""
    paths = [morph_engine._pocket_descriptor(d.graph.outer_walk(), a, b)
             for a, b in morph_engine._hull_gaps(d, convex_hull(d))]
    k = morph_engine._shrink_bits(
        d, paths, [morph_engine._buffer_geometry(d, p) for p in paths])
    d_buf, spines = buffers(d)
    assert morph_engine._hull_gaps(d_buf, convex_hull(d_buf)) == [
        (sp[0], sp[-1]) for sp in spines]
    return k, (d_buf, spines)


def assert_ladder_rung(d, rungs=12):
    """Wherever the old ladder of rungs finds a placement, augment_buffers
    computes its rung and places every buffer vertex bit for bit the same;
    the rung, or None."""
    ladder = buffer_shrink_ladder(d, rungs)
    if ladder is None:
        return None
    k, (d_buf, spines) = placed(d)
    assert k == ladder[0]
    assert (d_buf.ints, d_buf.den) == (ladder[1].ints, ladder[1].den)
    assert d_buf.graph.rotation == ladder[1].graph.rotation
    assert d_buf.graph.outer_dart == ladder[1].graph.outer_dart
    assert spines == ladder[2]
    return k


@given(sheared=st.booleans(), seed=st.integers(0, 2 ** 32))
@settings(max_examples=40, deadline=None)
def test_buffer_shrink_is_the_ladders_rung(sheared, seed):
    rng = random.Random(seed)
    if sheared:
        d = pocket_instance(rng, rng.choice((12, 20)), 30, rng.randint(1, 2))
    else:
        d = pocket_instance(rng, rng.choice((10, 30)), rng.choice((6, 10)),
                            rng.randint(2, 3), sheared=False)
    if morph_engine._hull_gaps(d, convex_hull(d)):
        assert_ladder_rung(d)


@pytest.mark.parametrize("i, rung", [(0, 0), (1, 3)])
def test_buffer_shrink_on_bench_drawings(i, rung):
    assert assert_ladder_rung(bench_drawing("buffered", i)) == rung


def test_buffer_placement_is_built_once(monkeypatch):
    # bench buffered drawing 1 needs shrink 2^-3; the ladder rebuilt its
    # graph on each of rungs 0-3, and failed the first three
    built = []
    real = morph_engine.build_plane_graph_from_points

    def counted(*args):
        built.append(args)
        return real(*args)

    monkeypatch.setattr(morph_engine, "build_plane_graph_from_points",
                        counted)
    buffers(bench_drawing("buffered", 1))
    assert len(built) == 1


def test_each_shear_choice_reads_the_edges_once(monkeypatch):
    # the constraints are read off the drawing once per choice, not once
    # per candidate factor: on the bench's buffered drawings and on deep
    # pockets, where calls pass the ladder and search the critical gaps
    reads, per_call = [], []
    edges = PlaneGraph.edges
    choose = morph_engine.choose_safe_shear

    def counted_edges(g):
        if reads:
            reads[-1] += 1
        return edges(g)

    def counted_choose(*args):
        reads.append(0)
        try:
            return choose(*args)
        finally:
            per_call.append(reads.pop())

    monkeypatch.setattr(PlaneGraph, "edges", counted_edges)
    monkeypatch.setattr(morph_engine, "choose_safe_shear", counted_choose)
    for i in range(2):
        convexify(bench_drawing("buffered", i))
    for seed in range(3000, 3005):
        convexify(pocket_instance(random.Random(seed), 40, 30, passes=3))
    assert per_call and max(per_call) <= 1


def test_buffer_shrink_past_the_old_ladder():
    # a one-pass pocket drawing stretched 10^4 times along x: the apexes
    # keep their Euclidean construction, so the spokes fan out only at
    # shrink 2^-15. The twelve rungs of the old ladder all fail; the
    # computed shrink is the one a longer ladder finds, and convexify is
    # certified
    d = pocket_instance(random.Random(10), 12, 30, 1)
    d = Drawing(d.graph, {v: (x * 10 ** 4, y)
                          for v, (x, y) in d.coords.items()})
    assert buffer_shrink_ladder(d) is None
    assert assert_ladder_rung(d, 16) == 15
    seq = convexify(d)
    assert all(check_unidirectional_planar(step) for step in seq.steps)
    assert check_convexity_increasing(seq, d.graph)
    assert check_step_bounds(seq, "general")
    assert is_strictly_convex(seq.final)
    assert same_plane_graph(seq.final.graph, d.graph)


@given(num=st.integers(1, 1 << 300), q=st.integers(1, 1 << 300))
@example(num=1, q=36)
@example(num=1 << 300, q=1)
def test_dyadic_sqrt_floor_is_the_top_bits_of_the_root(num, q):
    # bit lengths and one isqrt of the scaled quotient give the oracle's
    # answer, for roots far above 1 (negative j) as far below
    m, j = morph_engine._dyadic_sqrt_floor(num, q)
    assert Fraction(m) / Fraction(2) ** j == dyadic_sqrt_floor(
        Fraction(num, q), morph_engine._OFFSET_BITS)


# both bench buffered drawings and a seeded pocket mix: sheared and on the
# integer grid, one to three passes
BUFFER_MIX = [("buffered", i) for i in range(2)] + [
    ("pockets", seed) for seed in range(12)]


def buffer_case(kind, i):
    if kind == "buffered":
        return bench_drawing(kind, i)
    rng = random.Random(7100 + i)
    if i % 2:
        return pocket_instance(rng, 20, 30, 1 + i % 3)
    return pocket_instance(rng, 20, 10, 1 + i % 3, sheared=False)


@pytest.mark.parametrize("kind, i", BUFFER_MIX)
def test_buffer_placement_is_dyadic_over_the_input(kind, i):
    # every buffer offset is dyadic over the input's den: the padded
    # drawing's den is d.den * 2^J, with J at most 64
    d = buffer_case(kind, i)
    d_buf, spines = buffers(d)
    assert spines
    scale, rest = divmod(d_buf.den, d.den)
    assert rest == 0 and scale & (scale - 1) == 0
    assert scale.bit_length() - 1 <= 64


@pytest.mark.parametrize("kind, i", BUFFER_MIX)
def test_buffer_placement_commutes_with_integer_translation(kind, i):
    # the placement reads differences of points only, so translating the
    # input by an integer vector translates the padded drawing exactly,
    # with the same den, shrink and spines: the benchmark's seeded
    # translations cannot move its coordinate bits
    d = buffer_case(kind, i)
    dx, dy = 13, -7
    moved = Drawing.from_ints(d.graph, {
        v: (x + dx * d.den, y + dy * d.den) for v, (x, y) in d.ints.items()},
        d.den)
    k, (d_buf, spines) = placed(d)
    k_moved, (m_buf, m_spines) = placed(moved)
    assert (k_moved, m_spines, m_buf.den) == (k, spines, d_buf.den)
    assert m_buf.graph == d_buf.graph
    assert m_buf.ints == {v: (x + dx * d_buf.den, y + dy * d_buf.den)
                          for v, (x, y) in d_buf.ints.items()}


def test_pocket_corner_without_a_polygon_raises_a_typed_error(monkeypatch):
    # no pinned vertical polygon exists: pop_pocket's first move names
    # itself instead of letting the solver's error through
    real = morph_engine.convex_polygon_for_x
    pinned = []

    def no_pinned_polygon(*args, **kwargs):
        if len(args) > 2 and args[2] != ():
            pinned.append(args[2])
            raise tutte_solver.ConstraintInfeasible("refused")
        return real(*args, **kwargs)

    monkeypatch.setattr(morph_engine, "convex_polygon_for_x",
                        no_pinned_polygon)
    with pytest.raises(PocketNotSeparated) as info:
        convexify(instance("dent", 0))
    assert info.value.layer == "pocket corner to the top"
    # both choices were tried: the corner on top, then at the bottom
    assert [side for (_, side), in pinned] == ["top", "bottom"]


def test_no_vertical_shear_when_a_first_reflex_angle_straddles():
    # no horizontal edge, and the first reflex angle straddles its apex in
    # y: the shear before the convex-outer phase is the identity, and no
    # step is noted for it
    d = instance("convex_outer", 1)
    reflex = internal_reflex_angles(d)
    assert is_convex_outer(d) and reflex
    assert not any(d.ints[u][1] == d.ints[v][1] for u, v in d.graph.edges())
    assert straddles(d.graph, d.ints, reflex[0], 1)
    seq = convexify(d)
    assert seq.steps
    assert all(step.provenance != "clear horizontal edges"
               for step in seq.steps)


def test_straddle_shear_keeps_an_angle_that_already_straddles():
    # the middle face 1, 2, 3, 5, 4, 7 of a square has two reflex angles:
    # at 5, whose face neighbors 4 and 3 both lie above it, and at 7,
    # whose face neighbors 1 and 4 straddle it in y; edges 1-2, 3-4 and
    # 7-8 are horizontal
    coords = {1: (0, 0), 2: (40, 0), 3: (40, 40), 4: (0, 40),
              5: (20, 30), 6: (20, 35), 7: (20, 20), 8: (5, 20)}
    g = build_plane_graph_from_points(
        coords, [(1, 2), (2, 3), (3, 4), (4, 1), (5, 4), (5, 3), (5, 6),
                 (6, 4), (6, 3), (7, 1), (7, 4), (7, 8), (8, 1), (8, 4)])
    d = Drawing(g, coords)
    first, second = internal_reflex_angles(d)
    assert [g.face_vertices(r.face)[r.pos] for r in (first, second)] == [5, 7]
    assert not straddles(g, d.ints, first, 1)
    assert straddles(g, d.ints, second, 1)

    end, count = morph_engine._straddle_shear(d, 1)
    assert count == 2
    assert not any(end.ints[u][1] == end.ints[v][1] for u, v in g.edges())
    assert straddles(g, end.ints, second, 1)
    # a shear that made the first angle straddle would have unseated the
    # second: y + 2x takes 7 above 4
    lam = choose_safe_shear(d, 1, straddle=first)
    forced = shear(d, 1, lam)
    assert lam == 2 and not straddles(g, forced.ints, second, 1)


# sha256 over the event digests of convexify on deep pockets 3000-3019 at
# n = 40 (the recipe above): the pinned outputs include long buffer-removal
# runs, whose coordinates reach hundreds of bits
DEEP_POCKETS_40 = (
    "2502c2a9442da9cb77f6b1cc16b7d8a502e1a2afe478ef9c4287f01ab7d844a5")


def test_convexify_on_deep_pockets_unchanged():
    digests = "".join(
        event_digest(convexify(pocket_instance(random.Random(seed), 40, 30,
                                               passes=3)))
        for seed in range(3000, 3020))
    assert hashlib.sha256(digests.encode()).hexdigest() == DEEP_POCKETS_40


def convex_outer_instance(rng, n, span):
    return random_augment_instance(rng, n, n, span)


# event_digest of convexify on two instances of each family (2, 2, 5, 5, 13
# and 24 events): any change to an exact decision of the pipeline shows here
GOLDEN = {
    ("convex_outer", 0):
        "9c3f7eb14586ca69645d69c0a2d46bed1dc6661ebc9717a1092ef769d301d665",
    ("convex_outer", 1):
        "b57a10c9fd699a7a422b05d9295b953cfb40ad9fd3f67e9ce94e25298b58052f",
    ("dent", 0):
        "519928eedfe52e772208eead795bd6e182af6647aa5d6cdbb4932e240eb3a5c1",
    ("dent", 1):
        "675ad1d00c43dd44aa1227d5348f56f9344e2f0ab07e55604d2829c4bb7c317d",
    ("pockets", 0):
        "474c9fb3e9904c7c23655b73793da4e8c3e0c916edf86342162c297112908635",
    ("pockets", 1):
        "ed6e8d5907aaee926158fb13fc13d4055753237839f22249b5d08e321f555c52",
}


@pytest.mark.parametrize("family, seed", sorted(GOLDEN))
def test_convexify_output_unchanged(family, seed):
    assert event_digest(convexified(family, seed)[1]) == GOLDEN[family, seed]


def canonical(d) -> bool:
    return d.den > 0 and math.gcd(
        d.den, *(c for p in d.ints.values() for c in p)) == 1


@pytest.mark.parametrize("family, seed", sorted(GOLDEN))
def test_every_emitted_drawing_is_canonical(family, seed):
    # so comparing (ints, den) decides whether two drawings are equal
    _, seq = convexified(family, seed)
    for ev in seq.events:
        assert canonical(ev.start) and canonical(ev.end)
        if isinstance(ev, MorphStep):
            assert canonical(step_at(ev, Fraction(1, 2)))


def test_convexify_builds_no_fraction_coordinates(monkeypatch):
    # the whole pipeline reads the integer view: Drawing.coords, which
    # builds Fractions, is never asked for
    drawings = [instance(family, seed) for family, seed in sorted(GOLDEN)]

    def refuse(self):
        raise AssertionError("Drawing.coords read inside convexify")

    monkeypatch.setattr(Drawing, "coords", property(refuse))
    for d in drawings:
        convexify(d)


@pytest.mark.parametrize("family, seed", sorted(GOLDEN))
def test_convexify_makes_one_sequence_builder(family, seed, monkeypatch):
    # every layer appends to the one builder that convexify makes
    made = []
    real = steps.SequenceBuilder.__init__

    def spy(self, start):
        made.append(start)
        real(self, start)

    monkeypatch.setattr(steps.SequenceBuilder, "__init__", spy)
    convexify(instance(family, seed))
    assert len(made) == 1


@pytest.mark.parametrize("family, seed", sorted(GOLDEN))
def test_step_end_verdicts_match_the_sweep(family, seed):
    # check_unidirectional_planar sweeps only the ends that strict
    # convexity does not certify; every verdict is the sweep's
    _, seq = convexified(family, seed)
    ends = [d for step in seq.steps for d in (step.start, step.end)]
    assert any(is_strictly_convex(d) for d in ends)
    assert any(not is_strictly_convex(d) for d in ends)
    for d in ends:
        assert verify._planar_end(d) == plane_graph.drawing_is_planar(
            d.graph, d.coords)


def run_backwards(seq):
    """seq from its final drawing back to its initial one: every step and
    edit in reverse order, each from its end to its start."""
    return MorphSequence(seq.final, tuple(
        MorphStep(ev.direction, ev.end, ev.start)
        if isinstance(ev, MorphStep) else GraphEdit(ev.end, ev.start)
        for ev in reversed(seq.events)))


def test_convexity_check_reads_no_angle_without_a_step(monkeypatch):
    # a sequence without a step passes without reading an angle: the runs
    # on the already_convex bench drawings, which have no event, and a run
    # of graph edits alone; a vertex of the graph of record that a drawing
    # lacks still raises. On the golden runs, forwards and backwards, the
    # verdicts are the sampled oracle's
    reads = []
    convex_here = verify._convex_here

    def spy(*args):
        reads.append(args)
        return convex_here(*args)

    monkeypatch.setattr(verify, "_convex_here", spy)
    for i in range(4):
        d = bench_drawing("already_convex", i)
        assert check_convexity_increasing(convexify(d), d.graph)
    g = d.graph
    less = d.with_graph(g.remove_edge(*g.outer_walk()[:2]))
    assert check_convexity_increasing(
        MorphSequence(d, (GraphEdit(d, less), GraphEdit(less, d))))
    assert reads == []
    w = g.outer_walk()[0]
    without = d.with_graph(g.remove_vertex((w,)))
    with pytest.raises(PreconditionViolated, match=f"vertex {w} missing"):
        check_convexity_increasing(MorphSequence(without), g)
    verdicts = []
    for family, seed in sorted(GOLDEN):
        d, seq = convexified(family, seed)
        for run in (seq, run_backwards(seq)):
            verdict = check_convexity_increasing(run, d.graph)
            assert verdict == convexity_increasing_sampled(run, d.graph)
            verdicts.append(verdict)
    assert reads and True in verdicts and False in verdicts


def test_coarse_snaps_certified_by_strict_convexity(monkeypatch):
    # every redraw of six runs, snapped to grids far coarser than
    # _compact's: the old acceptance (sweep, rotation check and strict
    # convexity) and the new one (strict convexity) agree on each snap
    redraws = []
    compact = morph_engine._compact

    def spy(*args):
        redraws.append(args)
        return compact(*args)

    monkeypatch.setattr(morph_engine, "_compact", spy)
    for family, seed in sorted(GOLDEN):
        convexify(instance(family, seed))
    verdicts = []
    for d, direction, poly, solution, pins, _ in redraws:
        for bits in range(1, 17):
            # a grid whose rounding solution cannot certify gets no snap
            rounded = solution.rounded(bits)
            if rounded is None:
                continue
            cand = morph_engine._snapped(d, direction.moving_axis, poly,
                                         rounded, bits)
            extra = all(unique_extreme(cand.ints, v, side)
                        for v, side in pins)
            try:
                validate_drawing(cand)
                validate_face_orientations(cand)
                old = is_strictly_convex(cand) and extra
            except (NotPlanarInput, EmbeddingInvalid):
                old = False
            new = is_strictly_convex(cand) and extra
            assert new == old
            verdicts.append(new)
    assert len(redraws) >= 20
    assert True in verdicts and False in verdicts


def test_certified_snaps_match_the_fraction_oracle(monkeypatch):
    # every drawing _compact asks _certified about, on the bench drawings
    # and on deep pockets: the one-pass certificate on the cached walks and
    # the Fraction oracle on walks read from the darts agree
    verdicts = []
    certified = morph_engine._certified

    def spy(d, pins):
        g = d.graph
        walks = [tuple(t[0] for t in darts) for darts in g.faces]
        got = is_strictly_convex(d)
        assert got == brute_strictly_convex(d.coords, walks,
                                            g.outer_face_index)
        verdicts.append(got)
        return certified(d, pins)

    monkeypatch.setattr(morph_engine, "_certified", spy)
    for workload, i in sorted(DIGESTS):
        convexify(bench_drawing(workload, i))
    for seed in range(3000, 3005):
        convexify(pocket_instance(random.Random(seed), 40, 30, passes=3))
    assert len(verdicts) >= 100
    assert True in verdicts and False in verdicts


def test_strictly_convex_input_reads_only_cached_walks(monkeypatch):
    # a strictly convex drawing needs no gate but is_strictly_convex, which
    # certifies both (see convexify): it runs once, the connectivity gate
    # not at all, and no face is traced again after the drawing is built
    d = bench_drawing("already_convex", 0)
    calls = Counter()

    def counted(name, f):
        def spy(*args):
            calls[name] += 1
            return f(*args)
        return spy

    for name in ("is_strictly_convex", "is_internally_3connected"):
        monkeypatch.setattr(morph_engine, name,
                            counted(name, getattr(morph_engine, name)))
    monkeypatch.setattr(PlaneGraph, "_build_faces",
                        counted("_build_faces", PlaneGraph._build_faces))
    seq = convexify(d)
    assert seq.events == ()
    assert calls == {"is_strictly_convex": 1}


def test_each_graph_traces_its_faces_once(monkeypatch):
    # every PlaneGraph traces its faces when it is made, and with_outer
    # shares them: building a bench drawing makes one graph and names its
    # outer face once, and a buffered run traces nothing twice
    calls = Counter()

    def counted(name, f):
        def spy(*args, **kwargs):
            calls[name] += 1
            return f(*args, **kwargs)
        return spy

    for name in ("__init__", "_build_faces", "with_outer"):
        monkeypatch.setattr(PlaneGraph, name,
                            counted(name, getattr(PlaneGraph, name)))
    for workload, i in sorted(DIGESTS):
        calls.clear()
        d = bench_drawing(workload, i)
        assert calls == {"__init__": 1, "_build_faces": 1, "with_outer": 1}
    calls.clear()
    convexify(d)
    assert calls["_build_faces"] == calls["__init__"]
    assert calls["with_outer"] > 0


def planarity_callers(monkeypatch, d):
    """convexify(d), and for each drawing_is_planar call it made, the
    names of the calling frames, innermost last."""
    callers = []
    real = plane_graph.drawing_is_planar

    def spy(*args):
        callers.append([f.name for f in traceback.extract_stack()[:-1]])
        return real(*args)

    for module in (plane_graph, morph_engine):
        monkeypatch.setattr(module, "drawing_is_planar", spy)
    convexify(d)
    return callers


@pytest.mark.parametrize("family", ["dent", "pockets"])
def test_sweep_runs_only_at_the_input_gate_and_buffers(family, monkeypatch):
    callers = planarity_callers(monkeypatch, instance(family, 0))
    # the input check once, through validate_drawing, then only in
    # augment_buffers' check of its placement, directly
    assert callers[0][-2:] == ["convexify", "validate_drawing"]
    assert all(names[-2:] == ["convexify", "augment_buffers"]
               for names in callers[1:])
    assert (len(callers) > 1) == (family == "pockets")
    assert not any("_compact" in names for names in callers)


def test_sweep_never_runs_on_strictly_convex_input(monkeypatch):
    d = random_triangulation(random.Random(0), 10, 40)
    assert is_strictly_convex(d)
    assert planarity_callers(monkeypatch, d) == []


SMALL = {"convex_outer": (convex_outer_instance, 10),
         "dent": (dent_instance, 12),
         "pockets": (pocket_instance, 10)}


@given(st.sampled_from(sorted(SMALL)), st.integers(0, 2 ** 32))
@settings(max_examples=20, deadline=None)
def test_convexify_certified_on_small_instances(family, seed):
    make, n = SMALL[family]
    d = make(random.Random(seed), n, 20)
    # the step budget of the dispatcher branch the instance takes
    if is_convex_outer(d):
        mode = "convex_outer"
    elif three_connected(d.graph.adjacency()):
        mode = "3conn"
    else:
        mode = "general"
    seq = convexify(d)
    assert all(check_unidirectional_planar(step) for step in seq.steps)
    assert check_convexity_increasing(seq, d.graph)
    assert check_step_bounds(seq, mode)
    assert is_strictly_convex(seq.final)
    assert same_plane_graph(seq.final.graph, d.graph)

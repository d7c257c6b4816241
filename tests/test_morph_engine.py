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
    ShearConstraints,
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
from convexmorph.steps import Direction, MorphSequence, MorphStep
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
    mirrored,
    seg_seg_dist_sq_fraction,
    shear_fraction,
    shear_ok,
    snap_fraction,
    step_at,
    transposed,
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
    # the old redraw and shear ladders are prefixes of the new ones, so a
    # snap that an old grid accepted is unchanged
    ladder = list(morph_engine._grid_bits(48))
    assert ladder[:8] == [48, 64, 96, 128, 192, 256, 384, 512]
    assert ladder[-1] == morph_engine._MAX_GRID_BITS == 1 << 16
    assert list(morph_engine._grid_bits(24))[:5] == [24, 32, 48, 64, 96]


def test_snap_shear_finds_a_dyadic_in_a_narrow_window():
    # keeping vertex 1 leftmost allows N/(3N+1) < lam < N/(3N-1), and edge
    # 2-3 turns vertical at 1/3 inside that window: choose_safe_shear's
    # midpoint has a 138-bit denominator, with about 2^-136 of room
    n = 10 ** 40
    coords = {1: (0, 0), 2: (n, -(3 * n - 1)), 3: (-n, 3 * n + 1)}
    g = build_plane_graph_from_points(coords, [(1, 2), (2, 3), (3, 1)])
    d = Drawing(g, coords)
    cons = ShearConstraints(keep_extreme=((1, "left"),))
    lam = choose_safe_shear(d, 0, cons)
    assert not dyadic(rat(lam))
    snapped = morph_engine._snap_shear(d, 0, lam, cons)
    assert dyadic(rat(snapped))
    assert shear_ok(g, integer_points(d.coords), 0, snapped, cons)


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
        rows, rhs, den = real(*args)
        return ({e: {v: -c if v == e else c for v, c in r.items()}
                 for e, r in rows.items()}, rhs, den)

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


def refuse(*args):
    raise EmbeddingInvalid("refused")


def fail_check(check, mp, n):
    """Make one check of augment_buffers fail, through the monkeypatch mp,
    on a drawing with n vertices (the placement has more), and return the
    text it raises."""
    patch = functools.partial(mp.setattr, morph_engine)
    if check == "build":
        patch("build_plane_graph_from_points", refuse)
        return "placement is not a plane graph: refused"
    if check == "validate":
        patch("validate_drawing", refuse)
        return "placement fails validate_drawing: refused"
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
    patch("_buffer_geometry", lambda d, path: [
        (b, (-q[0], -q[1])) for b, q in geometry(d, path)])
    return "no shrink 2^-k turns every pocket fan clockwise"


def test_placement_failure_raises_a_typed_error(monkeypatch):
    # a placement that fails one check: augment_buffers names the edit it
    # could not make and the check, and convexify lets the error through
    d = instance("pockets", 0)
    for check in ("build", "validate", "3-connected", "hull", "outer walk",
                  "fan"):
        with monkeypatch.context() as mp:
            text = fail_check(check, mp, d.graph.n)
            with pytest.raises(PlacementFailure) as info:
                morph_engine.augment_buffers(d)
            assert info.value.layer == "insert buffer paths"
            assert info.value.check == text
    with monkeypatch.context() as mp:
        text = fail_check("validate", mp, d.graph.n)
        with pytest.raises(ConvexifyError) as info:
            convexify(d)
        assert (info.value.layer, info.value.check) == (
            "insert buffer paths", text)


def placed(d):
    """augment_buffers(d) and the shrink exponent it placed at."""
    paths = [morph_engine._pocket_descriptor(d.graph.outer_walk(), a, b)
             for a, b in morph_engine._hull_gaps(d, convex_hull(d))]
    k = morph_engine._shrink_bits(
        d, paths, [morph_engine._buffer_geometry(d, p) for p in paths])
    return k, morph_engine.augment_buffers(d)


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
    morph_engine.augment_buffers(bench_drawing("buffered", 1))
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
    lam = choose_safe_shear(d, 1, ShearConstraints(make_straddle=first))
    forced = shear(d, 1, lam)
    assert lam == 2 and not straddles(g, forced.ints, second, 1)


# sha256 over the event digests of convexify on deep pockets 3000-3019 at
# n = 40 (the recipe above): the pinned outputs include long buffer-removal
# runs, whose coordinates reach hundreds of bits
DEEP_POCKETS_40 = (
    "3913d51e7b933eece5ddae67c1327642477ae837d58bc7379642e9c65918fba6")


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
        "1e236ec56b85234d4555746c442e196401cbecf8836f6422472b1ba829d95321",
    ("pockets", 1):
        "4206b5a5d7f8117709e90ba4dcdb0ea2ac0f26eb9122c979a272fde1329d5444",
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
                old = (morph_engine._rotations_realized(cand)
                       and is_strictly_convex(cand) and extra)
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
    # a strictly convex drawing passes both gates and returns: each gate
    # runs once, and no face is traced again after the drawing is built
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
    assert calls == {"is_strictly_convex": 1, "is_internally_3connected": 1}


def planarity_callers(monkeypatch, d):
    """convexify(d), and for each drawing_is_planar call it made, the
    names of the calling frames, innermost last."""
    callers = []
    real = plane_graph.drawing_is_planar

    def spy(*args):
        callers.append([f.name for f in traceback.extract_stack()[:-1]])
        return real(*args)

    for mod in (plane_graph, morph_engine):
        monkeypatch.setattr(mod, "drawing_is_planar", spy)
    convexify(d)
    return callers


@pytest.mark.parametrize("family", ["dent", "pockets"])
def test_sweep_runs_only_at_the_input_gate_and_buffers(family, monkeypatch):
    callers = planarity_callers(monkeypatch, instance(family, 0))
    # the input gate once, then only augment_buffers' placement checks
    assert callers[0][-1] == "convexify"
    assert all("augment_buffers" in names for names in callers[1:])
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

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from convexmorph import verify
from convexmorph.monotone_augment import augment_y_monotone
from convexmorph.plane_graph import (
    Drawing,
    build_plane_graph_from_points,
    drawing_is_planar,
    internal_reflex_angles,
    rat,
    shear,
)
from convexmorph.steps import Direction, MorphSequence, MorphStep
from convexmorph.tutte_solver import convex_polygon_for_y
from convexmorph.verify import (
    check_convexity_increasing,
    check_step_bounds,
    check_unidirectional_planar,
)
from _instances import (
    _drop_inner_edges,
    _fixed_n_triangulation,
    random_augment_instance,
)
from _oracles import (
    check_planarity_sampled,
    convexity_increasing_sampled,
    redraw_preserving,
    sweep_records_fraction,
    transposed,
)


def _drawing(coords, edges):
    exact = {v: (rat(x), rat(y)) for v, (x, y) in coords.items()}
    g = build_plane_graph_from_points(exact, edges)
    return Drawing(g, exact)


def spike_swap_step():
    """A rectangle with a hanging spike and a rising spike that trade
    places horizontally. Both endpoints are planar but the spikes must
    sweep through each other."""
    start = {1: (0, 0), 2: (10, 0), 3: (10, 8), 4: (0, 8),
             5: (4, 8), 6: (4, 3), 7: (6, 0), 8: (6, 5)}
    end = dict(start)
    end.update({5: (6, 8), 6: (6, 3), 7: (4, 0), 8: (4, 5)})
    edges = [(1, 7), (7, 2), (2, 3), (3, 5), (5, 4), (4, 1), (5, 6), (7, 8)]
    d0 = _drawing(start, edges)
    d1 = Drawing(d0.graph, {v: (rat(x), rat(y)) for v, (x, y) in end.items()})
    return MorphStep(Direction.HORIZONTAL, d0, d1)


def vertex_swap_step():
    start = {1: (3, 7), 2: (5, 7), 3: (4, 0)}
    end = {1: (5, 7), 2: (3, 7), 3: (4, 0)}
    d0 = _drawing(start, [(1, 3), (2, 3)])
    d1 = Drawing(d0.graph, {v: (rat(x), rat(y)) for v, (x, y) in end.items()})
    return MorphStep(Direction.HORIZONTAL, d0, d1)


def redraw_step(rng):
    d = random_augment_instance(rng)
    g_aug = augment_y_monotone(d)
    d_aug = Drawing(g_aug, d.coords)
    poly = convex_polygon_for_y(g_aug.outer_walk(),
                                {v: p[1] for v, p in d.ints.items()},
                                den=d.den)
    out = redraw_preserving(d_aug, poly, 1)
    return MorphStep(Direction.HORIZONTAL, d_aug, out)


def test_identity_step_certifies():
    d = _drawing({1: (0, 0), 2: (4, 0), 3: (0, 4)}, [(1, 2), (2, 3), (3, 1)])
    step = MorphStep(Direction.VERTICAL, d, d)
    assert check_unidirectional_planar(step)
    assert check_planarity_sampled(step)


def test_spike_swap_fails_both_checks():
    step = spike_swap_step()
    assert not check_unidirectional_planar(step)
    assert not check_planarity_sampled(step)
    # the collision is interior: a coarse sample that skips t=1/2 misses it
    assert check_planarity_sampled(step, samples=2)


def test_vertex_swap_fails_both_checks():
    step = vertex_swap_step()
    assert not check_unidirectional_planar(step)
    assert not check_planarity_sampled(step)


def test_vertical_step_transposes():
    step = spike_swap_step()
    flipped = MorphStep(Direction.VERTICAL,
                        transposed(step.start), transposed(step.end))
    assert not check_unidirectional_planar(flipped)
    ok = redraw_step(random.Random(7))
    flip_ok = MorphStep(Direction.VERTICAL,
                        transposed(ok.start), transposed(ok.end))
    assert check_unidirectional_planar(flip_ok)


def test_redraw_steps_certify_and_sampling_agrees():
    rng = random.Random(3)
    for _ in range(6):
        step = redraw_step(rng)
        assert check_unidirectional_planar(step)
        assert check_planarity_sampled(step)


def test_nonplanar_endpoint_rejected():
    d = _drawing({1: (0, 0), 2: (4, 0), 3: (2, 4)}, [(1, 2), (2, 3), (3, 1)])
    # slide vertex 1 onto vertex 2: planar at t=0, degenerate at t=1
    collapsed = Drawing(d.graph, {1: (rat(4), rat(0)), 2: (rat(4), rat(0)),
                                  3: (rat(2), rat(4))})
    step = MorphStep(Direction.HORIZONTAL, d, collapsed)
    assert not check_unidirectional_planar(step)


def test_convexity_increasing_on_redraw():
    rng = random.Random(11)
    step = None
    while step is None:
        cand = redraw_step(rng)
        if internal_reflex_angles(cand.start):
            step = cand
    seq = MorphSequence(step.start, (step,))
    assert check_convexity_increasing(seq)
    rev = MorphSequence(step.end, (MorphStep(step.direction, step.end,
                                             step.start),))
    assert not check_convexity_increasing(rev, graph_of_record=step.start.graph)


def test_convexity_empty_sequence():
    d = _drawing({1: (0, 0), 2: (4, 0), 3: (0, 4)}, [(1, 2), (2, 3), (3, 1)])
    assert check_convexity_increasing(MorphSequence(d, ()))


def test_step_bounds_modes():
    d = _drawing({1: (0, 0), 2: (4, 0), 3: (4, 4), 4: (0, 4)},
                 [(1, 2), (2, 3), (3, 4), (4, 1)])
    moved = Drawing(d.graph, {v: (x + 1, y) for v, (x, y) in d.coords.items()})
    back = d
    s1 = MorphStep(Direction.HORIZONTAL, d, moved)
    s2 = MorphStep(Direction.HORIZONTAL, moved, back)
    seq2 = MorphSequence(d, (s1, s2))
    assert check_step_bounds(seq2, "general")          # 2 <= 3.5*4+2
    assert check_step_bounds(seq2, "3conn")            # 2 <= 1.5*4+2
    assert check_step_bounds(seq2, "convex_outer")     # r=0: bound 2
    seq3 = MorphSequence(d, (s1, s2, MorphStep(Direction.HORIZONTAL, d, moved)))
    assert not check_step_bounds(seq3, "convex_outer")  # r=0: bound 2
    with pytest.raises(ValueError):
        check_step_bounds(seq2, "fast")


def alternating_moves(d, k):
    """k moves of d, horizontal and vertical in turn, that translate it
    around a unit square."""
    ends = [Drawing(d.graph, {v: (x + dx, y + dy)
                              for v, (x, y) in d.coords.items()})
            for dx, dy in ((0, 0), (1, 0), (1, 1), (0, 1))]
    return MorphSequence(d, tuple(
        MorphStep(Direction.VERTICAL if i % 2 else Direction.HORIZONTAL,
                  ends[i % 4], ends[(i + 1) % 4]) for i in range(k)))


def test_step_bounds_read_n_and_r_off_the_initial_drawing():
    triangle = _drawing({1: (0, 0), 2: (4, 0), 3: (0, 4)},
                        [(1, 2), (2, 3), (3, 1)])
    assert check_step_bounds(alternating_moves(triangle, 12), "general")
    assert not check_step_bounds(alternating_moves(triangle, 13),
                                 "general")       # 13 > 3.5*3+2
    assert check_step_bounds(alternating_moves(triangle, 6), "3conn")
    assert not check_step_bounds(alternating_moves(triangle, 7),
                                 "3conn")         # 7 > 1.5*3+2
    notched = _drawing({1: (0, 0), 2: (2, 1), 3: (4, 0), 4: (4, 4),
                        5: (2, 3), 6: (0, 4)},
                       [(i, i % 6 + 1) for i in range(1, 7)])
    assert len(internal_reflex_angles(notched)) == 2
    assert check_step_bounds(alternating_moves(notched, 3), "convex_outer")
    assert not check_step_bounds(alternating_moves(notched, 4),
                                 "convex_outer")  # r=2: bound 3


def test_pentagram_end_is_swept_and_rejected():
    # C5 drawn through a convex pentagon's corners in the order 0, 2, 4,
    # 1, 3: every corner turns one way, but the walk winds twice
    pentagon = [(2, 0), (4, 2), (3, 4), (1, 4), (0, 2)]
    convex = _drawing(dict(enumerate(pentagon)),
                      [(i, (i + 1) % 5) for i in range(5)])
    star = Drawing(convex.graph, {i: (rat(pentagon[2 * i % 5][0]),
                                      rat(pentagon[2 * i % 5][1]))
                                  for i in range(5)})
    for d, planar in ((convex, True), (star, False)):
        assert drawing_is_planar(d.graph, d.coords) is planar
        assert verify._planar_end(d) is planar
    assert check_unidirectional_planar(
        MorphStep(Direction.HORIZONTAL, convex, convex))
    assert not check_unidirectional_planar(
        MorphStep(Direction.HORIZONTAL, star, star))


def random_steps(rng, d, count):
    """A sequence of count one-axis steps from d, each a shear, a move of
    one vertex, or a move of every vertex by a small random amount."""
    events = []
    cur = d
    for _ in range(count):
        direction = rng.choice(list(Direction))
        ma = direction.moving_axis
        kind = rng.randrange(3)
        if kind == 0:
            lam = Fraction(rng.randint(-4, 4), rng.randint(1, 4))
            end = shear(cur, ma, lam)
        else:
            coords = dict(cur.coords)
            movers = [rng.choice(sorted(coords))] if kind == 1 else coords
            for v in movers:
                p = list(coords[v])
                p[ma] += Fraction(rng.randint(-4, 4), 2)
                coords[v] = tuple(p)
            end = Drawing(cur.graph, coords)
        events.append(MorphStep(direction, cur, end))
        cur = end
    return MorphSequence(d, tuple(events))


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2 ** 32), grid=st.booleans(),
       count=st.integers(1, 3))
def test_convexity_verdict_from_step_ends_matches_midpoints(seed, grid, count):
    # testing a step's midpoint adds nothing to its ends when the step is
    # planar, since each angle's cross product is affine in t (see
    # check_convexity_increasing); on the integer grid, edges and straight
    # angles may be level on either axis
    rng = random.Random(seed)
    if grid:
        d = _drop_inner_edges(
            rng, _fixed_n_triangulation(rng, rng.randint(5, 10), 4, False),
            0.5)
    else:
        d = random_augment_instance(rng, 5, 10)
    seq = random_steps(rng, d, count)
    ends = check_convexity_increasing(seq)
    sampled = convexity_increasing_sampled(seq)
    assert sampled <= ends
    if all(check_unidirectional_planar(step) for step in seq.steps):
        assert sampled == ends


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2 ** 32), grid=st.booleans(),
       count=st.integers(1, 3))
def test_integer_sweep_keys_match_fraction_positions(seed, grid, count):
    # floor(x 2^k) keys order every level and strip as the exact positions
    # do, on random steps whether or not they cross, along either axis
    rng = random.Random(seed)
    if grid:
        d = _drop_inner_edges(
            rng, _fixed_n_triangulation(rng, rng.randint(5, 10), 4, False),
            0.5)
    else:
        d = random_augment_instance(rng, 5, 10)
    seq = random_steps(rng, d, count)
    for step in seq.steps:
        for end in (step.start, step.end):
            assert (verify._sweep_records(end, step.direction)
                    == sweep_records_fraction(end, step.direction))
        assert check_unidirectional_planar(step) == (
            verify._planar_end(step.start) and verify._planar_end(step.end)
            and sweep_records_fraction(step.start, step.direction)
            == sweep_records_fraction(step.end, step.direction))


def test_integer_sweep_keys_reject_the_crossing_steps():
    # both ends of each swap are planar, so only the records reject it
    for step in (spike_swap_step(), vertex_swap_step()):
        assert verify._planar_end(step.start) and verify._planar_end(step.end)
        assert (verify._sweep_records(step.end, step.direction)
                == sweep_records_fraction(step.end, step.direction))
        assert not check_unidirectional_planar(step)


def test_verify_computes_without_fractions():
    assert "Fraction" not in vars(verify)

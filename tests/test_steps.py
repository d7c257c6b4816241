import random
from fractions import Fraction

import pytest

from convexmorph.morph_engine import convexify
from convexmorph.plane_graph import (
    Drawing,
    PreconditionViolated,
    build_plane_graph_from_points,
    rat,
)
from convexmorph.steps import (
    Direction,
    GraphEdit,
    MorphSequence,
    MorphStep,
    SequenceBuilder,
)

from _instances import random_augment_instance
from _oracles import step_at


def square_drawing():
    coords = {1: (rat(0), rat(0)), 2: (rat(4), rat(0)),
              3: (rat(4), rat(4)), 4: (rat(0), rat(4))}
    g = build_plane_graph_from_points(coords, [(1, 2), (2, 3), (3, 4), (4, 1)])
    return Drawing(g, coords)


def shifted(d, dx=0, dy=0, only=None):
    coords = {}
    for v, (x, y) in d.coords.items():
        if only is None or v in only:
            coords[v] = (x + dx, y + dy)
        else:
            coords[v] = (x, y)
    return Drawing(d.graph, coords)


def test_horizontal_step_interpolates_exactly():
    d = square_drawing()
    e = shifted(d, dx=rat(3))
    step = MorphStep(Direction.HORIZONTAL, d, e)
    mid = step_at(step, Fraction(1, 3))
    for v in d.coords:
        assert mid.coords[v][1] == d.coords[v][1]
        assert mid.coords[v][0] == d.coords[v][0] + 1
    assert step_at(step, 0) is d
    assert step_at(step, 1) is e


def test_fixed_axis_must_not_move():
    d = square_drawing()
    e = shifted(d, dy=rat(1), only={3})
    with pytest.raises(PreconditionViolated):
        MorphStep(Direction.HORIZONTAL, d, e)
    # the same displacement is a legal vertical step
    MorphStep(Direction.VERTICAL, d, e)


def test_step_requires_same_graph():
    d = square_drawing()
    g2 = build_plane_graph_from_points(
        d.coords, [(1, 2), (2, 3), (3, 4), (4, 1), (1, 3)])
    with pytest.raises(PreconditionViolated):
        MorphStep(Direction.HORIZONTAL, d, Drawing(g2, d.coords))


def test_merge_and_reverse():
    d = square_drawing()
    e = shifted(d, dx=rat(2))
    f = shifted(d, dx=rat(5))
    s1 = MorphStep(Direction.HORIZONTAL, d, e, "a")
    s2 = MorphStep(Direction.HORIZONTAL, e, f, "b")
    merged = s1.merged_with(s2)
    assert merged.start is d and merged.end is f
    assert merged.provenance == "a; b"
    # a move merged with its reverse is the identity
    back = MorphStep(Direction.HORIZONTAL, f, d, "back")
    assert merged.merged_with(back).is_identity()
    with pytest.raises(PreconditionViolated):
        s1.merged_with(MorphStep(Direction.VERTICAL, e, shifted(e, dy=rat(1))))
    with pytest.raises(PreconditionViolated):
        s1.merged_with(MorphStep(Direction.HORIZONTAL, f, shifted(f, dx=rat(1))))


def test_graph_edit_reports_changes():
    # an edit reports its change by its two drawings, and freezes every
    # vertex they share
    d = square_drawing()
    g2 = build_plane_graph_from_points(
        d.coords, [(1, 2), (2, 3), (3, 4), (4, 1), (1, 3)])
    edit = GraphEdit(d, Drawing(g2, d.coords), "diagonal")
    assert edit.start is d and edit.end.graph is g2
    assert edit.label == "diagonal"
    moved = shifted(d, dx=rat(1), only={2})
    with pytest.raises(PreconditionViolated):
        GraphEdit(d, Drawing(g2, moved.coords))


def test_sequence_chains_and_counts():
    d = square_drawing()
    e = shifted(d, dx=rat(2))
    f = shifted(e, dy=rat(3))
    s1 = MorphStep(Direction.HORIZONTAL, d, e)
    s2 = MorphStep(Direction.VERTICAL, e, f)
    seq = MorphSequence(d, (s1, s2))
    assert seq.step_count == 2
    assert seq.final is f
    assert seq.steps == (s1, s2)
    assert seq.edits == ()
    with pytest.raises(PreconditionViolated):
        MorphSequence(d, (s2,))


def test_builder_merges_same_direction_only():
    d = square_drawing()
    b = SequenceBuilder(d)
    b.move(Direction.HORIZONTAL, shifted(d, dx=rat(1)))
    b.move(Direction.HORIZONTAL, shifted(d, dx=rat(3)))
    b.move(Direction.VERTICAL, shifted(d, dx=rat(3), dy=rat(2)))
    seq = b.build()
    assert seq.step_count == 2
    assert seq.steps[0].direction is Direction.HORIZONTAL
    assert seq.steps[0].end.coords[1][0] == 3
    assert seq.steps[1].direction is Direction.VERTICAL


def test_builder_drops_identities_and_cancellations():
    d = square_drawing()
    b = SequenceBuilder(d)
    b.move(Direction.HORIZONTAL, d)
    assert b.build().step_count == 0
    b.move(Direction.HORIZONTAL, shifted(d, dx=rat(2)))
    b.move(Direction.HORIZONTAL, d)
    assert b.build().step_count == 0
    assert b.current.coords == d.coords


def test_builder_never_merges_across_edits():
    d = square_drawing()
    b = SequenceBuilder(d)
    b.move(Direction.HORIZONTAL, shifted(d, dx=rat(1)))
    cur = b.current
    g2 = build_plane_graph_from_points(
        cur.coords, [(1, 2), (2, 3), (3, 4), (4, 1), (1, 3)])
    b.edit(Drawing(g2, cur.coords), "diagonal")
    b.move(Direction.HORIZONTAL, shifted(b.current, dx=rat(1)))
    seq = b.build()
    assert seq.step_count == 2
    assert len(seq.edits) == 1
    assert [type(e).__name__ for e in seq.events] == [
        "MorphStep", "GraphEdit", "MorphStep"]


def test_float_input_enters_exactly():
    # 0.1 enters as the binary fraction it denotes, not as 1/10
    coords = {1: (0.1, 0.0), 2: (4.0, 0.0), 3: (4.0, 4.0), 4: (0.0, 4.0)}
    g = build_plane_graph_from_points(coords, [(1, 2), (2, 3), (3, 4), (4, 1)])
    d = Drawing(g, coords)
    assert d.coords[1] == (Fraction(0.1), 0)
    assert d.coords[1][0] != Fraction(1, 10)
    step = MorphStep(Direction.HORIZONTAL, d, shifted(d, dx=rat(1)))
    third = step_at(step, Fraction(1, 3))
    assert third.coords[1] == (Fraction(0.1) + Fraction(1, 3), 0)
    assert third.coords[3] == (Fraction(13, 3), 4)

    # a float copy of a drawing morphs exactly like its rational copy
    exact = random_augment_instance(random.Random(0), 12, 16)
    floats = {v: (float(x), float(y)) for v, (x, y) in exact.coords.items()}
    rationals = {v: (Fraction(x), Fraction(y)) for v, (x, y) in floats.items()}
    from_floats = convexify(Drawing(exact.graph, floats))
    from_rationals = convexify(Drawing(exact.graph, rationals))
    assert from_rationals.step_count >= 1

    def events(seq):
        return [(type(ev), ev.end.graph, ev.end.coords) for ev in seq.events]

    assert events(from_floats) == events(from_rationals)
    assert all(type(c) is type(rat(0))
               for ev in from_floats.events
               for p in ev.end.coords.values() for c in p)

import functools
import hashlib
import os
import random
import subprocess
import sys
import traceback
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from convexmorph import (monotone_augment, morph_engine, plane_graph,
                         tutte_solver)
from convexmorph.connectivity import three_connected
from convexmorph.morph_engine import (
    ConvexifyError,
    NotInternallyThreeConnected,
    PostconditionFailed,
    convexify,
)
from convexmorph.plane_graph import (
    Drawing,
    EmbeddingInvalid,
    NotPlanarInput,
    build_plane_graph_from_points,
    is_convex_outer,
    is_strictly_convex,
    rat,
    validate_drawing,
)
from convexmorph.steps import Direction, MorphSequence, MorphStep
from convexmorph.tutte_solver import convex_polygon_for_y
from convexmorph.verify import (
    check_convexity_increasing,
    check_step_bounds,
    check_unidirectional_planar,
)

from _instances import (
    dent_instance,
    hidden_component_drawing,
    pocket_instance,
    random_augment_instance,
    random_triangulation,
    same_plane_graph,
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
    mirrored = d.with_coords({v: (-x, y) for v, (x, y) in d.coords.items()})
    with pytest.raises(NotPlanarInput, match="embedding"):
        convexify(mirrored)


def test_convexify_rejects_input_that_is_not_internally_3connected():
    with pytest.raises(NotInternallyThreeConnected):
        convexify(hidden_component_drawing())


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


# After morph_A, one reflex angle already straddles its apex in x, and
# an edge is vertical. The shear that clears the vertical edge used to be
# free to end the straddle, and the next vertical move then retired nothing
# ("alternating move failed to retire a reflex angle").
@pytest.mark.parametrize("seed", [80, 94])
def test_convexify_keeps_the_straddle_through_the_shear(seed):
    d = convex_outer_instance(random.Random(seed), 10, 20)
    assert is_convex_outer(d)
    seq = convexify(d)
    assert all(check_unidirectional_planar(step) for step in seq.steps)
    assert check_convexity_increasing(seq, d.graph)
    assert check_step_bounds(seq, "convex_outer")
    assert is_strictly_convex(seq.final)


# Deep pockets: three passes of outer-edge removal at n = 40. With a
# default polygon whose width grew with the square of its span, seed 3006
# raised "no polygon separates the pocket corners" and seed 3009 ran for
# minutes while its coordinates grew to hundreds of thousands of bits.
@pytest.mark.parametrize("seed", [3006, 3009])
def test_convexify_certified_on_deep_pockets(seed, monkeypatch):
    redraws = []
    compact = morph_engine._compact

    def spy(*args):
        out, snapped = compact(*args)
        redraws.append(snapped)
        return out, snapped

    exact_solves = []
    solve_rows = tutte_solver.solve_rows

    def spy_solve(*args):
        exact_solves.append(args)
        return solve_rows(*args)

    monkeypatch.setattr(morph_engine, "_compact", spy)
    monkeypatch.setattr(tutte_solver, "solve_rows", spy_solve)
    d = pocket_instance(random.Random(seed), 40, 30, passes=3)
    assert not three_connected(d.graph.adjacency())
    seq = convexify(d)
    # every redraw emitted a snapped drawing, never the exact solution, and
    # every snap came from the certified rounding, with no exact solve
    assert redraws and all(redraws)
    assert exact_solves == []
    assert all(check_unidirectional_planar(step) for step in seq.steps)
    assert check_convexity_increasing(seq, d.graph)
    assert check_step_bounds(seq, "general")
    assert is_strictly_convex(seq.final)
    assert same_plane_graph(seq.final.graph, d.graph)


# Seed 3097 of the same recipe: augment_y_monotone gives face 106 two
# minimum curves (94->76, 90->80) and one maximum curve (78->88). Each
# phase's plan validates alone, but the merged plan fails the Euler check
# in the first morph_B after hull completion.
@pytest.mark.xfail(strict=True, raises=EmbeddingInvalid,
                   reason="augment_y_monotone merges an invalid embedding")
def test_convexify_deep_pocket_3097():
    d = pocket_instance(random.Random(3097), 40, 30, passes=3)
    seq = convexify(d)
    assert is_strictly_convex(seq.final)


def test_failed_postcondition_raises_a_typed_error():
    # a triangle around one vertex; a require that always fails
    coords = {1: (0, 0), 2: (4, 1), 3: (1, 5), 4: (2, 2)}
    g = build_plane_graph_from_points(
        coords, [(1, 2), (2, 3), (3, 1), (1, 4), (2, 4), (3, 4)])
    d = Drawing(g, coords)
    poly = convex_polygon_for_y(g.outer_walk(),
                                {v: p[1] for v, p in d.coords.items()})
    with pytest.raises(PostconditionFailed) as info:
        morph_engine._redraw(d, Direction.HORIZONTAL, poly, "a noted step",
                             lambda dd: False)
    assert isinstance(info.value, ConvexifyError)
    assert isinstance(info.value, RuntimeError)
    assert info.value.layer == "a noted step"
    assert info.value.check == "redraw failed its postcondition"


def event_digest(seq):
    """sha256 over every event of seq: its kind, direction and note, and
    the end drawing's coordinates (by vertex), rotations and outer dart."""
    h = hashlib.sha256()
    for ev in seq.events:
        if isinstance(ev, MorphStep):
            head = ("step", ev.direction.value, ev.provenance)
        else:
            head = ("edit", None, ev.label)
        d = ev.end
        coords = [(v, str(x), str(y)) for v, (x, y) in sorted(d.coords.items())]
        h.update(repr((head, coords, sorted(d.graph.rotation.items()),
                       d.graph.outer_dart)).encode())
    return h.hexdigest()


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
    for d, direction, fixed, solution, require in redraws:
        ma = direction.moving_axis
        for bits in range(1, 17):
            scale = 1 << bits
            values = {v: rat(round(x * scale), scale) for v, x in fixed.items()}
            for u, j in solution.rounded(bits).items():
                values[u] = rat(j, scale)
            cand = d.with_coords({v: (values[v], p[1]) if ma == 0
                                  else (p[0], values[v])
                                  for v, p in d.coords.items()})
            extra = require is None or require(cand)
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


def planarity_callers(monkeypatch, d):
    """convexify(d), and for each drawing_is_planar call it made, the
    names of the calling frames, innermost last."""
    callers = []
    real = plane_graph.drawing_is_planar

    def spy(*args):
        callers.append([f.name for f in traceback.extract_stack()[:-1]])
        return real(*args)

    for mod in (plane_graph, morph_engine, monotone_augment):
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

import functools
import hashlib
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from convexmorph.connectivity import three_connected
from convexmorph.morph_engine import NotInternallyThreeConnected, convexify
from convexmorph.plane_graph import (
    Drawing,
    NotPlanarInput,
    build_plane_graph_from_points,
    is_convex_outer,
    is_strictly_convex,
    rat,
)
from convexmorph.steps import Direction, MorphSequence, MorphStep
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


@functools.lru_cache(maxsize=None)
def convexified(family, seed):
    make, n, _ = FAMILIES[family]
    d = make(random.Random(seed), n, 20)
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
        "e978e5232b2a08fd2dc2154463ce346153ea73c2595c8184c82e58a5f72476d9",
    ("convex_outer", 1):
        "971b36076ab271af5cd6bb2932a42a81b6e719040539e72d25f66d7b42e25d0b",
    ("dent", 0):
        "33cd74097ac218ec38df24883fc7279afe58ebf15f5d1c8c2d9c53267e6f1e87",
    ("dent", 1):
        "2430c44614db7d9b35773d402c16f1fa79d3d5f326ec5ab3c60abf13735376dd",
    ("pockets", 0):
        "f9fc8351402db1344e0fb3c5462b0768d1f4c5b4f06f5d8d1978933d1ef62bf4",
    ("pockets", 1):
        "807fbe0f54690e33974e1a1e63392acef4968715c578d50a9208a8a6a9449b44",
}


@pytest.mark.parametrize("family, seed", sorted(GOLDEN))
def test_convexify_output_unchanged(family, seed):
    if family == "convex_outer":
        seq = convexify(convex_outer_instance(random.Random(seed), 14, 20))
    else:
        seq = convexified(family, seed)[1]
    assert event_digest(seq) == GOLDEN[family, seed]


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

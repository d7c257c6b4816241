"""Regenerate the benchmark's instance files under perfbench/instances/.

The benchmark never runs this script. Generating one n = 80 convex-outer
instance calls the package's own internal-3-connectivity test once per
dropped edge, which takes tens of seconds, and a change to that test would
otherwise change the workloads. So the drawings are generated once, checked,
and kept as exact data; run.py only reads them.

Draws that do not take their workload's dispatcher branch are skipped; the
first draws that do are kept, whether or not convexify succeeds on them, so
a failure of the program shows in the benchmark's fail_rate.

    python3 perfbench/make_instances.py [workload ...]
    python3 perfbench/make_instances.py --deep-pockets
"""

import itertools
import json
import random
import sys
import time
from pathlib import Path

import numpy as np
from scipy.spatial import Delaunay

import run

sys.path.insert(0, str(run.SRC))
from convexmorph import Drawing, orientation, rat
from convexmorph.connectivity import is_internally_3connected, three_connected
from convexmorph.morph_engine import convexify
from convexmorph.plane_graph import (
    EmbeddingInvalid,
    NotPlanarInput,
    build_plane_graph_from_points,
    validate_drawing,
)

# workload -> (instance count, n, coordinate span, first generator seed)
PLAN = {
    "convex_outer": (3, 80, 30, 1000),
    "three_connected": (3, 80, 30, 2000),
    "buffered": (2, 40, 30, 3000),
    "already_convex": (4, 200, 150, 4000),
}


def random_triangulation(rng, n, span):
    """Delaunay triangulation of n integer points with a strictly convex
    hull. The exact shear y += x/997 removes horizontal edges and keeps
    every orientation, because |dx| < 997."""
    while True:
        pts = set()
        while len(pts) < n:
            pts.add((rng.randrange(-span, span + 1),
                     rng.randrange(-span, span + 1)))
        pts = sorted(pts)
        tri = Delaunay(np.array(pts, dtype=float))
        edges = set()
        for simplex in tri.simplices:
            for i in range(3):
                a, b = int(simplex[i]), int(simplex[(i + 1) % 3])
                edges.add((min(a, b) + 1, max(a, b) + 1))
        coords = {i + 1: (rat(x), rat(y) + rat(x, 997))
                  for i, (x, y) in enumerate(pts)}
        try:
            g = build_plane_graph_from_points(coords, edges)
        except (EmbeddingInvalid, ValueError):
            continue
        walk = g.outer_walk()
        k = len(walk)
        if all(orientation(coords[walk[i - 1]], coords[walk[i]],
                           coords[walk[(i + 1) % k]]) == -1
               for i in range(k)):
            return Drawing(g, coords)


def _remove_edge(g, u, v):
    """remove_edge with the outer dart moved off (u, v) when it carried it."""
    if set(g.outer_dart) != {u, v}:
        return g.remove_edge(u, v)
    walk = g.outer_walk()
    k = len(walk)
    dart = next((walk[i], walk[(i + 1) % k]) for i in range(k)
                if {walk[i], walk[(i + 1) % k]} != {u, v})
    return g.remove_edge(u, v, outer_dart=dart)


def augment_instance(rng, n, span, drop_frac=0.5):
    """A triangulation with about drop_frac of its inner edges removed,
    keeping internal 3-connectivity; the hull stays strictly convex."""
    d = random_triangulation(rng, n, span)
    g = d.graph
    walk = g.outer_walk()
    hull = {frozenset((walk[i], walk[(i + 1) % len(walk)]))
            for i in range(len(walk))}
    inner = [e for e in g.edges() if frozenset(e) not in hull]
    rng.shuffle(inner)
    for u, v in inner[: max(1, int(len(inner) * drop_frac))]:
        try:
            g2 = g.remove_edge(u, v)
        except EmbeddingInvalid:
            continue
        if g2.degree(u) < 2 or g2.degree(v) < 2:
            continue
        if is_internally_3connected(g2):
            g = g2
    return Drawing(g, d.coords)


def dent_instance(rng, n, span, max_pulls=8):
    """A 3-connected triangulation whose hull vertices are pulled toward
    the centroid, each by the largest of 1/2, 1/4 or 1/8 of the way that
    keeps the drawing valid with the same embedding, up to max_pulls times
    while some pull does."""
    while True:
        d = random_triangulation(rng, n, span)
        if three_connected(d.graph.adjacency()):
            break
    g = d.graph
    coords = dict(d.coords)
    cx = round(sum(p[0] for p in coords.values()) / n)
    cy = round(sum(p[1] for p in coords.values()) / n)
    edges = g.edges()
    hull = list(g.outer_walk())
    rng.shuffle(hull)
    for v in hull:
        for _ in range(max_pulls):
            moved = False
            for t in (2, 4, 8):
                p = coords[v]
                trial = dict(coords)
                trial[v] = (p[0] + (cx - p[0]) / t, p[1] + (cy - p[1]) / t)
                try:
                    g2 = build_plane_graph_from_points(trial, edges)
                    validate_drawing(Drawing(g2, trial))
                except (EmbeddingInvalid, NotPlanarInput, ValueError):
                    continue
                if run.same_plane_graph(g, g2):
                    coords, moved = trial, True
                    break
            if not moved:
                break
    return Drawing(build_plane_graph_from_points(coords, edges), coords)


def pocket_instance(rng, n, span, passes=1):
    """An augmented triangulation with outer edges removed whenever internal
    3-connectivity holds and the outer walk stays a simple cycle. Each pass
    goes once over the outer walk as it stands when the pass starts.

    The workload uses one pass. Three passes, with generator seeds
    3000-3004 at n = 40 and span 30, make convexify fail on most draws
    (see Findings in NOTES.md); reproduce_deep_pockets runs them."""
    d = augment_instance(rng, n, span)
    g = d.graph
    for _ in range(passes):
        walk = g.outer_walk()
        k = len(walk)
        outer = [(walk[i], walk[(i + 1) % k]) for i in range(k)]
        rng.shuffle(outer)
        for u, v in outer:
            if not g.has_edge(u, v):
                continue
            if g.degree(u) < 3 or g.degree(v) < 3:
                continue
            try:
                g2 = _remove_edge(g, u, v)
            except EmbeddingInvalid:
                continue
            w2 = g2.outer_walk()
            if len(set(w2)) == len(w2) and is_internally_3connected(g2):
                g = g2
    return Drawing(g, d.coords)


MAKERS = {
    "convex_outer": augment_instance,
    "three_connected": dent_instance,
    "buffered": pocket_instance,
    "already_convex": random_triangulation,
}


def to_plain(d):
    return {
        "n": d.graph.n,
        "coords": {str(v): [f"{p[0]}", f"{p[1]}"]
                   for v, p in sorted(d.coords.items())},
        "edges": [list(e) for e in sorted(d.graph.edges())],
    }


def make(workload):
    count, n, span, first_seed = PLAN[workload]
    seeds = itertools.count(first_seed)
    kept = []
    while len(kept) < count:
        seed = next(seeds)
        t0 = time.perf_counter()
        d = MAKERS[workload](random.Random(seed), n, span)
        gen_s = time.perf_counter() - t0
        branch = run.dispatcher_branch(d)
        note = f"{workload} seed={seed} n={d.graph.n} branch={branch}"
        if branch != workload:
            print(note, "skipped", flush=True)
            continue
        print(note, f"gen={gen_s:.1f}s", _try_convexify(d, workload),
              flush=True)
        kept.append({**to_plain(d), "generator_seed": seed})
    out = Path(__file__).parent / "instances" / f"{workload}.json"
    out.write_text(json.dumps({"workload": workload, "n": n, "span": span,
                               "instances": kept}, indent=1) + "\n")


def _try_convexify(d, workload):
    t0 = time.perf_counter()
    try:
        seq = convexify(d)
        problems = run.certify(seq, d, workload)
        steps = seq.step_count
    except Exception as exc:  # kept: a failure is part of the workload
        problems, steps = [repr(exc)], None
    conv_s = time.perf_counter() - t0
    return f"convexify+certify={conv_s:.1f}s steps={steps} problems={problems}"


def reproduce_deep_pockets(seeds=range(3000, 3005)):
    """The three-pass pockets recipe of the Findings in NOTES.md: print
    what convexify does on each draw. Writes no file."""
    _, n, span, _ = PLAN["buffered"]
    for seed in seeds:
        d = pocket_instance(random.Random(seed), n, span, passes=3)
        branch = run.dispatcher_branch(d)
        print(f"deep pockets seed={seed} n={d.graph.n} branch={branch}",
              _try_convexify(d, "buffered"), flush=True)


if __name__ == "__main__":
    if sys.argv[1:] == ["--deep-pockets"]:
        reproduce_deep_pockets()
    else:
        for name in sys.argv[1:] or PLAN:
            make(name)

"""Independent certification of unidirectional morphs.

check_unidirectional_planar decides planarity of a whole one-axis step
exactly, from its two endpoints alone: with the fixed-axis values pinned,
every gap between two drawn features varies linearly in time, so the
interpolation is planar iff both endpoints are planar and every vertex
level and every open strip between levels carries the same left-to-right
sequence of vertices and edges in both endpoint drawings.

check_convexity_increasing tracks angle statuses along a whole sequence,
and check_step_bounds compares a sequence against the guaranteed
step-count budget for how it was produced.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from .plane_graph import (
    AngleKind,
    DegenerateAngle,
    Drawing,
    PlaneGraph,
    PreconditionViolated,
    angle_status_points,
    drawing_is_planar,
    internal_reflex_angles,
    is_strictly_convex,
)
from .steps import Direction, MorphSequence, MorphStep

BOUND_MODES = ("general", "3conn", "convex_outer")


def _sweep_records(d: Drawing, direction: Direction):
    """Left-to-right feature order on every vertex level and every open
    strip between consecutive levels, read along the fixed axis. The orders
    are read on the integer view, times 2 so that each strip's middle level
    is an int too: a positive scale keeps every order.

    Each item is keyed by floor(x * 2^k), x its moving coordinate, with
    k = 2 * bitlen(maxrise) + 1 and maxrise the largest fixed-axis extent of
    an edge: a vertex by p << k, a crossing of an edge of rise r by
    (num << k) // r. Two distinct positions have denominators of at most
    maxrise, so they lie more than 1/maxrise^2 > 2^-k apart and get keys in
    their order, while equal positions get equal keys and fall to the
    tie-breaks."""
    fa = direction.fixed_axis
    ma = direction.moving_axis
    pts = {v: (2 * p[0], 2 * p[1]) for v, p in d.ints.items()}
    edges = list(d.graph.edges())
    maxrise = max((abs(pts[u][fa] - pts[v][fa]) for u, v in edges),
                  default=0)
    k = 2 * maxrise.bit_length() + 1
    levels = sorted({p[fa] for p in pts.values()})
    index = {lv: i for i, lv in enumerate(levels)}
    level_items: List[list] = [[] for _ in levels]
    strip_items: List[list] = [[] for _ in range(max(len(levels) - 1, 0))]
    for v, p in pts.items():
        level_items[index[p[fa]]].append((p[ma] << k, 0, ("v", v)))
    for u, v in edges:
        pu, pv = pts[u], pts[v]
        if pu[fa] == pv[fa]:
            # lies on a level; keyed by its low end, after that vertex
            level_items[index[pu[fa]]].append(
                (min(pu[ma], pv[ma]) << k, 1, ("h", u, v)))
            continue
        if pu[fa] > pv[fa]:
            pu, pv = pv, pu
        lo, hi = index[pu[fa]], index[pv[fa]]
        run = pv[ma] - pu[ma]
        rise = pv[fa] - pu[fa]
        base = pu[ma] * rise

        def at(level):
            # floor(2^k x), x the edge's moving coordinate at the level
            return ((base + (level - pu[fa]) * run) << k) // rise

        for li in range(lo + 1, hi):
            level_items[li].append((at(levels[li]), 2, ("e", u, v)))
        for si in range(lo, hi):
            strip_items[si].append(
                (at((levels[si] + levels[si + 1]) // 2), ("e", u, v)))
    for items in level_items:
        items.sort()
    for items in strip_items:
        items.sort()
    return ([tuple(it[-1] for it in items) for items in level_items],
            [tuple(it[-1] for it in items) for items in strip_items])


def _planar_end(d: Drawing) -> bool:
    """Planarity of one end of a step. A strictly convex drawing is planar
    (Floater 2003; see plane_graph), which a face scan decides, so only an
    end that is not strictly convex is swept."""
    return is_strictly_convex(d) or drawing_is_planar(d.graph, d.ints)


def check_unidirectional_planar(step: MorphStep) -> bool:
    """Exact planarity of the full interpolation of a one-axis step."""
    if not (_planar_end(step.start) and _planar_end(step.end)):
        return False
    return (_sweep_records(step.start, step.direction)
            == _sweep_records(step.end, step.direction))


def _inner_angle_triples(g: PlaneGraph) -> List[Tuple[int, int, int]]:
    triples = []
    for fi in g.inner_face_indices():
        walk = g.face_vertices(fi)
        k = len(walk)
        for pos in range(k):
            triples.append((walk[(pos - 1) % k], walk[pos],
                            walk[(pos + 1) % k]))
    return triples


def _convex_here(d: Drawing, triple: Tuple[int, int, int]) -> bool:
    pts = d.ints
    a, v, b = triple
    try:
        kind = angle_status_points(pts[a], pts[v], pts[b])
    except DegenerateAngle:
        return False
    return kind is not AngleKind.REFLEX


def check_convexity_increasing(seq: MorphSequence,
                               graph_of_record: Optional[PlaneGraph] = None,
                               ) -> bool:
    """Once an internal angle of the graph of record is convex or straight
    at an event endpoint, it must stay so at every later step endpoint.
    Angles are read off the drawings by apex and face neighbors, so later
    graph edits may split them without ending the tracking.

    The endpoints decide the whole step. A one-axis step keeps every
    fixed-axis coordinate, so for an angle a, v, b the cross product of
    v - a and b - v is affine in t. An angle that is not reflex at both
    ends has a cross product >= 0 at both, so >= 0 throughout, and > 0 on
    the open step if it is > 0 at either end. An angle straight at both
    ends stays collinear, and its apex stays strictly between its
    neighbours: along a line that is not level on the fixed axis the apex
    keeps its fixed-axis coordinate between theirs, and on a level the
    differences of the moving coordinates are affine too, so they keep
    their signs unless the apex meets a neighbour, which no step that
    check_unidirectional_planar accepts does.

    Every drawing of the sequence must hold each vertex of an inner face
    of the graph of record; PreconditionViolated names the least one that
    a drawing lacks."""
    g = graph_of_record if graph_of_record is not None else seq.initial.graph
    record = set().union(*map(g.face_vertices, g.inner_face_indices()))
    for d in (seq.initial, *(ev.end for ev in seq.events)):
        missing = record - d.ints.keys()
        if missing:
            raise PreconditionViolated(
                f"graph-of-record vertex {min(missing)} missing from "
                f"a drawing")
    if not seq.steps:
        # the verdict reads angles at step ends only
        return True
    triples = _inner_angle_triples(g)
    settled = {tri for tri in triples if _convex_here(seq.initial, tri)}
    for ev in seq.events:
        if isinstance(ev, MorphStep):
            for tri in settled:
                if not _convex_here(ev.end, tri):
                    return False
        for tri in triples:
            if tri not in settled and _convex_here(ev.end, tri):
                settled.add(tri)
    return True


def check_step_bounds(seq: MorphSequence, mode: str) -> bool:
    """Step count within the budget for how the sequence was produced:
    3.5n+2 in general, 1.5n+2 from a 3-connected input, max{2, r+1} from
    a convex-outer input with r internal reflex angles; n and r are those
    of the sequence's initial drawing."""
    if mode not in BOUND_MODES:
        raise ValueError(f"unknown bound mode {mode!r}")
    n = seq.initial.graph.n
    if mode == "convex_outer":
        r = len(internal_reflex_angles(seq.initial))
        return seq.step_count <= max(2, r + 1)
    # twice each side, so that the budget stays an integer
    bound2 = 3 * n + 4 if mode == "3conn" else 7 * n + 4
    return 2 * seq.step_count <= bound2

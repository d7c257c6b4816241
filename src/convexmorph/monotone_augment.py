"""Make every inner face monotone in height by adding combinatorial edges.

A face is y-monotone exactly when it has no reflex local extremum.  Every
edge added here joins two local extrema of one inner face, at least one of
them reflex; it stands for a y-monotone curve inside the face, and only its
place in the rotations is decided.

The rule, for a reflex local minimum u of an inner face (whose walk keeps
the interior on its left).  Just below u the interior is one interval,
bounded by the nearest walk edge on each side; the walk descends along the
left one and ascends along the right one, and followed downward they give
the left and the right chain.  Descend level by level, strictly below u,
until a vertex touches the interval.  It is a local maximum strictly inside
the interval, a local minimum where one chain ends, or the convex minimum
where both chains end.  Join u to the touching vertex nearest the
descending chain, that is, the leftmost.  Reflex maxima get the same rule
on the points turned by 180 degrees, which keeps every orientation; an
edge found from both of its ends is added once.

Why no two edges cross.  Cut the face by a horizontal segment through each
reflex extremum, from walk to walk.  The pieces are the regions: each is
bounded by a descending and an ascending chain, and above and below by a
cut or a convex extremum.  The descent from u sweeps the region below u's
cut down to its bottom level, so each edge runs inside one region, from a
vertex on its top level to one on its bottom level.  A region sends all of
its minimum edges to its first bottom vertex and, by the turned rule, all
of its maximum edges to its last top vertex: a minimum edge starts no
further right on top, and ends no further right at the bottom, than a
maximum edge.  So no two edges in a region cross, and regions do not
overlap.

Why each new face has one minimum and one maximum.  Draw each edge leaving
its reflex end vertically.  A corner of a new face is the part of an old
corner between two consecutive darts.  At a reflex extremum the vertical
into the interior is its own edge's, so no part contains it; a part whose
two darts both point above the apex, or both below, lies in one sector (see
below), on one side of the horizontal.  So no corner of a new face is a
reflex extremum, and a face bounded by y-monotone curves without one has
one minimum and one maximum.

Placing the new darts.  In the wedge of face f at vertex t, between its
outgoing and its incoming dart, the new darts go first by sector: the
branch next to the outgoing dart, the region through the apex, the branch
next to the incoming dart.  The horizontal through a reflex extremum cuts
its wedge into these three; a convex extremum's wedge is one region.  An
edge in its reflex end's own region, or to an inner touching vertex, runs
in the region through the apex; an edge to a chain's end comes down that
chain, next to the incoming dart for the left chain and the outgoing one
for the right.  Within a sector the curves fan out to one level of one
region, so they go by the x of their other ends: ascending when those ends
are lower than t, descending when higher.  Turning the points by 180
degrees flips both heights and x, so the order is the same in either
frame.

Ties.  Vertices level with u do not touch its interval: they lie on the
same top level.  So reflex minima at one height over one region all meet
its first bottom vertex, and several vertices touching at one level
resolve to the leftmost.  Just below u, edges that meet u's height at one
point are ordered by where they run below it.

Every decision is an orientation, or a comparison of heights, of x, or of
slopes, on the integer view of the drawing (Drawing.ints).  The heights may
be read on either axis: augment_y_monotone(d, 0) turns the points by 90
degrees, (x, y) to (-y, x), which also keeps every orientation, and reads
x as the height.
"""

from bisect import bisect_right
from typing import Dict, List, Tuple

from .plane_graph import (
    Drawing,
    EmbeddingInvalid,
    PlaneGraph,
    PreconditionViolated,
    _level_edge,
    orientation,
)

# sectors of a wedge, in rotation order from the face's outgoing dart
_OUT_BRANCH, _REGION, _IN_BRANCH = 0, 1, 2


def _reflex_minima(wp):
    """Walk positions of the reflex local minima of a face with integer
    points wp."""
    k = len(wp)
    for j in range(k):
        a, u, b = wp[j - 1], wp[j], wp[(j + 1) % k]
        if a[1] > u[1] < b[1] and orientation(a, u, b) < 0:
            yield j


def _bounding_edges(wp, j, where):
    """Walk positions i of the nearest edges (wp[i], wp[i+1]) left and
    right of wp[j] just below its height."""
    k = len(wp)
    xu, yu = wp[j]
    left = right = None
    for i in range(k):
        hi, lo = wp[i], wp[(i + 1) % k]
        if hi[1] < lo[1]:
            hi, lo = lo, hi
        if not lo[1] < yu <= hi[1]:
            continue
        # x at yu and the slope below it, each over the edge's rise
        rise = hi[1] - lo[1]
        run = lo[0] - hi[0]
        cand = (hi[0] * rise + (hi[1] - yu) * run, run, rise, i)
        if cand[0] < xu * rise:
            if left is None or _further_right(cand, left):
                left = cand
        elif right is None or _further_right(right, cand):
            right = cand
    if left is None or right is None:
        raise EmbeddingInvalid(f"{where} has no walk edge on each side below")
    il, ir = left[3], right[3]
    if wp[il][1] < wp[(il + 1) % k][1]:
        raise EmbeddingInvalid(f"the walk does not descend the nearest edge "
                               f"left of {where}")
    if wp[ir][1] > wp[(ir + 1) % k][1]:
        raise EmbeddingInvalid(f"the walk does not ascend the nearest edge "
                               f"right of {where}")
    return il, ir


def _further_right(a, b):
    """Does edge a lie right of edge b just below their common height?"""
    c = a[0] * b[2] - b[0] * a[2] or a[1] * b[2] - b[1] * a[2]
    return c > 0


def _descend(wp, down, j, where):
    """The vertex where the descent below the reflex minimum wp[j] stops,
    with the sector of its wedge the edge enters; down lists the walk
    positions in descending height."""
    k = len(wp)
    il, ir = _bounding_edges(wp, j, where)
    lo_l, lo_r = (il + 1) % k, ir   # lower ends of the two chains' edges
    heights = [-wp[i][1] for i in down]
    pos = bisect_right(heights, -wp[j][1])
    while pos < len(down):
        y = wp[down[pos]][1]
        end = bisect_right(heights, -y, pos)
        left_end = right_end = False
        if wp[lo_l][1] == y:
            nxt = (lo_l + 1) % k
            if wp[nxt][1] < y:
                il, lo_l = lo_l, nxt
            else:
                left_end = True
        if wp[lo_r][1] == y:
            prv = (lo_r - 1) % k
            if wp[prv][1] < y:
                ir = lo_r = prv
            else:
                right_end = True
        if left_end:
            both = right_end and lo_r == lo_l
            return lo_l, _REGION if both else _IN_BRANCH
        ld = (wp[il], wp[(il + 1) % k])
        rd = (wp[ir], wp[(ir + 1) % k])
        inside = [i for i in down[pos:end]
                  if orientation(*ld, wp[i]) > 0
                  and orientation(*rd, wp[i]) > 0]
        if inside:
            return min(inside, key=lambda i: wp[i][0]), _REGION
        if right_end:
            return lo_r, _OUT_BRANCH
        pos = end
    raise EmbeddingInvalid(f"the descent below {where} finds no floor")


def _apply_plans(g: PlaneGraph, plans):
    by_vertex: Dict[int, Dict[int, List[int]]] = {}
    for (f, t), order in plans.items():
        walk = g.face_vertices(f)
        if t not in walk:
            raise EmbeddingInvalid(f"vertex {t} is not on face {f}")
        j = walk.index(t)
        nxt, prv = walk[(j + 1) % len(walk)], walk[j - 1]
        rot = g.rotation[t]
        i = rot.index(nxt)
        if rot[(i + 1) % len(rot)] != prv:
            raise EmbeddingInvalid(
                f"face {f} has no wedge between {nxt} and {prv} at vertex {t}")
        by_vertex.setdefault(t, {})[i] = order
    new_rot = {}
    for t, rot in g.rotation.items():
        ins = by_vertex.get(t)
        if not ins:
            new_rot[t] = rot
            continue
        out = []
        for i, nb in enumerate(rot):
            out.append(nb)
            out.extend(ins.get(i, ()))
        new_rot[t] = tuple(out)
    return new_rot


def augment_y_monotone(d: Drawing, axis: int = 1) -> PlaneGraph:
    """The plane graph of d with an edge per reflex extremum, or fewer
    where two extrema find each other, so all inner faces become monotone
    in the heights on axis (1, y, by default; 0 for x).

    The input graph is unchanged; the new edges are combinatorial only. The
    drawing must be planar and its graph internally 3-connected, as
    convexify checks on its input; no edge may be level in the heights."""
    g = d.graph
    level = _level_edge(d, axis)
    if level:
        u, v = level
        raise PreconditionViolated(f"edge ({u},{v}) is level in height")
    if axis == 1:
        pts = d.ints
    else:
        pts = {v: (-y, x) for v, (x, y) in d.ints.items()}
    turned = {v: (-x, -y) for v, (x, y) in pts.items()}

    wedges: Dict[Tuple[int, int], List[Tuple[int, int, int]]] = {}
    for f in g.inner_face_indices():
        walk = g.face_vertices(f)
        up = sorted(range(len(walk)), key=lambda i: pts[walk[i]][1])
        found = set()
        for frame, down in ((pts, up[::-1]), (turned, up)):
            wp = [frame[v] for v in walk]
            for j in _reflex_minima(wp):
                u = walk[j]
                i, sector = _descend(wp, down, j, f"vertex {u} of face {f}")
                v = walk[i]
                if frozenset((u, v)) in found:
                    continue
                found.add(frozenset((u, v)))
                # x of the other end: ascending below the apex, else descending
                xu, xv = wp[j][0], wp[i][0]
                wedges.setdefault((f, u), []).append((_REGION, xv, v))
                wedges.setdefault((f, v), []).append((sector, -xu, u))

    plans = {key: [w for _, _, w in sorted(darts)]
             for key, darts in wedges.items()}
    return PlaneGraph(_apply_plans(g, plans), g.outer_dart)

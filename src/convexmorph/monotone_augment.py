"""Make every inner face y-monotone by adding combinatorial edges.

A face is y-monotone exactly when it has no reflex local extremum.  For each
reflex local minimum u of an inner face we shoot a ray straight down from u to
the face boundary and then follow the boundary downward to the first local
minimum v; the conceptual curve (vertical segment plus a chain hugging the
boundary just inside the face) is y-monotone, so inserting the edge (u, v)
splits the face without creating new extrema.  Reflex local maxima are handled
by running the same procedure on the drawing rotated by 180 degrees, which
keeps every rotation order valid because the rotation preserves orientation.

Degeneracies are resolved by nudging each ray infinitesimally: minimum rays
pass just left of the vertical, maximum rays just right (left in the rotated
frame).  A nudged ray never hits a vertex or a vertical edge, and the two
nudge directions keep curves of the two phases disjoint even when their
vertical segments share a line.  The nudge is exact: an edge is hit iff its
x-span contains the ray as a half-open interval, and ties at a shared endpoint
go to the edge lying higher just left of it (the smaller slope).

Rays, hits and tie-breaks are decided on the integer view of the drawing
(Drawing.ints; the rotated frame negates it).  A hit height is
kept as an integer pair (numerator, dx) with dx > 0, and two heights, or two
slopes, are compared by cross-multiplication, so each decision is the one of
the rational drawing.  Only the hit point of each curve is turned back into
a rational, once, from the integer view and the drawing's den.

The heights may be read on either axis: augment_y_monotone(d, 0) makes the
faces x-monotone.  It runs the same sweep on the points with x and y
swapped, on the graph as it is.  The swap is a reflection, so in that frame
every face interior lies right of its walk and a reflex corner turns left
(+1) instead of right; the rotation by 180 degrees of the maximum phase
keeps that turn.  Every other step reads only heights and points, or walks
and rotations, and reversing all walks and rotations together reverses its
result.  So the result equals augmenting the swapped drawing on its
reflected embedding (every rotation reversed), with every rotation of the
result reversed back.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from typing import Dict, List, Tuple

from .plane_graph import (
    Drawing,
    EmbeddingInvalid,
    PlaneGraph,
    PreconditionViolated,
    orientation,
)


@dataclass(frozen=True)
class AugmentingEdge:
    """Edge joining two local extrema of one original inner face.

    witness lists the boundary darts from the ray's hit edge to v, oriented
    away from u."""

    u: int
    v: int
    face: int
    kind: str
    witness: Tuple[Tuple[int, int], ...]
    target_point: Tuple


def _check_no_level_edge(g: PlaneGraph, pts):
    for u, v in g.edges():
        if pts[u][1] == pts[v][1]:
            raise PreconditionViolated(f"edge ({u},{v}) is level in height")


def _first_hit(wp, j):
    """Index of the walk edge first hit below wp[j], with the hit height
    as (numerator, dx), dx > 0, on the integer points wp of the walk.

    Implements the left-nudged vertical ray: edges qualify when their x-span
    contains x(u) as (lo, hi], and equal heights at a shared right endpoint
    resolve to the smaller slope (the edge lying higher just left of it)."""
    xu, yu = wp[j]
    best = None
    for i, (p, q) in enumerate(zip(wp, wp[1:] + wp[:1])):
        if p[0] > q[0]:
            p, q = q, p
        if not p[0] < xu <= q[0]:
            continue
        dx, dy = q[0] - p[0], q[1] - p[1]
        num = p[1] * dx + (xu - p[0]) * dy
        if num >= yu * dx:
            continue
        if best is not None:
            # key (height, -slope) must beat the best one's
            c = num * best[1] - best[0] * dx
            if c < 0 or c == 0 and dy * best[1] >= best[2] * dx:
                continue
        best = (num, dx, dy, i)
    if best is None:
        return None
    return best[3], best[:2]


def _descend(coords, walk, edge_idx):
    """Follow the boundary downward from the hit edge to the first local
    minimum. Returns (v, darts walked, arrived_in_walk_direction)."""
    k = len(walk)
    p, q = walk[edge_idx], walk[(edge_idx + 1) % k]
    forward = coords[q][1] < coords[p][1]
    if forward:
        pos, step, darts = (edge_idx + 1) % k, 1, [(p, q)]
    else:
        pos, step, darts = edge_idx, -1, [(q, p)]
    while True:
        cur = walk[pos]
        nxt = walk[(pos + step) % k]
        if coords[nxt][1] > coords[cur][1]:
            return cur, tuple(darts), forward
        darts.append((cur, nxt))
        pos = (pos + step) % k


def _reflex_minima(wp, turn):
    """Walk positions of the reflex local minima of a face with integer
    points wp, on whose walk a reflex corner has orientation turn (-1 with
    the interior on the left)."""
    k = len(wp)
    for j in range(k):
        a, u, b = wp[j - 1], wp[j], wp[(j + 1) % k]
        if a[1] > u[1] < b[1] and orientation(a, u, b) == turn:
            yield j


def _height_order(a, b):
    """Order of two arrivals (height, u), height a pair (numerator, dx)."""
    (na, da), ua = a
    (nb, db), ub = b
    c = na * db - nb * da or ua - ub
    return (c > 0) - (c < 0)


def _phase(g: PlaneGraph, pts, turn):
    """One minima pass on integer points, with reflex turn turn (see
    _reflex_minima): edge records plus per-wedge insertion lists.

    A wedge is the angle of face f at vertex t; new darts land between the
    face's outgoing and incoming darts at t. Arrivals hugging the walk-forward
    chain end next to the incoming dart, backward arrivals next to the
    outgoing dart, and t's own ray points straight down between them; within
    a side, the curve that joined the chain higher hugs closer to it."""
    records = []
    wedges: Dict[Tuple[int, int], Dict[str, object]] = {}

    def wedge(f, t):
        return wedges.setdefault((f, t), {"fwd": [], "bwd": [], "own": None})

    for f in g.inner_face_indices():
        walk = g.face_vertices(f)
        wp = [pts[v] for v in walk]
        for j in _reflex_minima(wp, turn):
            u = walk[j]
            hit = _first_hit(wp, j)
            if hit is None:
                raise PreconditionViolated(
                    f"no face boundary below reflex minimum {u}")
            edge_idx, height = hit
            v, darts, forward = _descend(pts, walk, edge_idx)
            records.append({"u": u, "v": v, "face": f, "darts": darts})
            wedge(f, u)["own"] = v
            wedge(f, v)["fwd" if forward else "bwd"].append((height, u))

    plans = {}
    order_key = cmp_to_key(_height_order)
    for key, w in wedges.items():
        order = [u for _, u in sorted(w["bwd"], key=order_key, reverse=True)]
        if w["own"] is not None:
            order.append(w["own"])
        order.extend(u for _, u in sorted(w["fwd"], key=order_key))
        plans[key] = order
    return records, plans


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


def _hit_point(pts, den: int, u, dart):
    """The rational point, in the frame of the points pts over den, of
    segment dart straight below or above u."""
    (ax, ay), (bx, by) = pts[dart[0]], pts[dart[1]]
    x = pts[u][0]
    return (Fraction(x, den),
            Fraction(ay * (bx - ax) + (x - ax) * (by - ay), (bx - ax) * den))


def augment_y_monotone(d: Drawing, axis: int = 1):
    """Insert an edge per reflex extremum so all inner faces become monotone
    in the heights on axis (1, y, by default; 0 for x).

    Returns the augmented plane graph and the list of added edges. The input
    graph is unchanged; the new edges are combinatorial only (their conceptual
    curves are monotone, certified by each witness chain). The drawing must
    be planar and its graph internally 3-connected, as convexify checks on
    its input; no edge may be level in the heights."""
    g = d.graph
    if axis == 1:
        pts, turn = d.ints, -1
    else:
        pts, turn = {v: (y, x) for v, (x, y) in d.ints.items()}, 1
    _check_no_level_edge(g, pts)

    rec_min, plans_min = _phase(g, pts, turn)
    rec_max, plans_max = _phase(
        g, {v: (-x, -y) for v, (x, y) in pts.items()}, turn)
    both = plans_min.keys() & plans_max.keys()
    if both:
        f, t = min(both)
        raise EmbeddingInvalid(
            f"face {f} gets curves of both phases at vertex {t}")

    new_rot = _apply_plans(g, {**plans_min, **plans_max})
    new_g = PlaneGraph(new_rot, g.outer_dart)

    added = []
    for kind, recs in (("min", rec_min), ("max", rec_max)):
        for r in recs:
            u, v = r["u"], r["v"]
            hit = _hit_point(pts, d.den, u, r["darts"][0])
            added.append(AugmentingEdge(
                u=u, v=v, face=r["face"], kind=kind, witness=r["darts"],
                target_point=hit if axis == 1 else hit[::-1]))
    added.sort(key=lambda e: (e.u, e.v))
    return new_g, added

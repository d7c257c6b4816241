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
"""

from dataclasses import dataclass
from typing import Dict, List, Tuple

from .connectivity import is_internally_3connected
from .plane_graph import (
    Drawing,
    PlaneGraph,
    PreconditionViolated,
    drawing_is_planar,
    orientation,
)


class HorizontalEdge(ValueError):
    """The drawing has a horizontal edge, so vertical rays are ill-defined."""


@dataclass(frozen=True)
class RayTarget:
    """First boundary point seen from a reflex extremum along its ray.

    edge is the face-walk dart whose segment contains the hit; point is the
    limit hit point (x of the extremum, y on that segment)."""

    vertex: int
    face: int
    kind: str
    edge: Tuple[int, int]
    point: Tuple


@dataclass(frozen=True)
class AugmentingEdge:
    """Edge joining two local extrema of one original inner face.

    witness lists the boundary darts from the ray's hit edge to v, oriented
    away from u; positions index the augmented rotation orders."""

    u: int
    v: int
    face: int
    kind: str
    u_pos: int
    v_pos: int
    witness: Tuple[Tuple[int, int], ...]
    target_point: Tuple


def _check_no_horizontal(d: Drawing, exc):
    for u, v in d.graph.edges():
        if d.y(u) == d.y(v):
            raise exc(f"horizontal edge ({u},{v})")


def _first_hit(coords, walk, j):
    """Index of the walk edge first hit below walk[j], with the hit height.

    Implements the left-nudged vertical ray: edges qualify when their x-span
    contains x(u) as (lo, hi], and equal heights at a shared right endpoint
    resolve to the smaller slope (the edge lying higher just left of it)."""
    k = len(walk)
    xu, yu = coords[walk[j]]
    best = None
    best_idx = None
    for i in range(k):
        p, q = coords[walk[i]], coords[walk[(i + 1) % k]]
        lo, hi = (p[0], q[0]) if p[0] < q[0] else (q[0], p[0])
        if not (lo < xu <= hi):
            continue
        m = (q[1] - p[1]) / (q[0] - p[0])
        y_at = p[1] + (xu - p[0]) * m
        if y_at >= yu:
            continue
        key = (y_at, -m)
        if best is None or key > best:
            best = key
            best_idx = i
    if best_idx is None:
        return None
    return best_idx, best[0]


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


def _reflex_minima(g: PlaneGraph, coords):
    """(face, walk position) of every reflex local minimum of an inner face."""
    for f in g.inner_face_indices():
        walk = g.face_vertices(f)
        k = len(walk)
        for j in range(k):
            u, a, b = walk[j], walk[j - 1], walk[(j + 1) % k]
            if coords[a][1] <= coords[u][1]:
                continue
            if coords[b][1] <= coords[u][1]:
                continue
            if orientation(coords[a], coords[u], coords[b]) == -1:
                yield f, j


def _phase(g: PlaneGraph, coords):
    """One minima pass: edge records plus per-wedge insertion lists.

    A wedge is the angle of face f at vertex t; new darts land between the
    face's outgoing and incoming darts at t. Arrivals hugging the walk-forward
    chain end next to the incoming dart, backward arrivals next to the
    outgoing dart, and t's own ray points straight down between them; within
    a side, the curve that joined the chain higher hugs closer to it."""
    records = []
    wedges: Dict[Tuple[int, int], Dict[str, object]] = {}

    def wedge(f, t):
        return wedges.setdefault((f, t), {"fwd": [], "bwd": [], "own": None})

    for f, j in _reflex_minima(g, coords):
        walk = g.face_vertices(f)
        u = walk[j]
        hit = _first_hit(coords, walk, j)
        if hit is None:
            raise PreconditionViolated(
                f"no face boundary below reflex minimum {u}")
        edge_idx, y_at = hit
        v, darts, forward = _descend(coords, walk, edge_idx)
        records.append({
            "u": u, "v": v, "face": f, "darts": darts,
            "edge": (walk[edge_idx], walk[(edge_idx + 1) % len(walk)]),
            "point": (coords[u][0], y_at),
        })
        wedge(f, u)["own"] = v
        wedge(f, v)["fwd" if forward else "bwd"].append((y_at, u))

    plans = {}
    for key, w in wedges.items():
        order = [u for _, u in sorted(w["bwd"], reverse=True)]
        if w["own"] is not None:
            order.append(w["own"])
        order.extend(u for _, u in sorted(w["fwd"]))
        plans[key] = order
    return records, plans


def _apply_plans(g: PlaneGraph, plans):
    by_vertex: Dict[int, Dict[int, List[int]]] = {}
    for (f, t), order in plans.items():
        walk = g.face_vertices(f)
        j = walk.index(t)
        nxt, prv = walk[(j + 1) % len(walk)], walk[j - 1]
        rot = g.rotation[t]
        i = rot.index(nxt)
        assert rot[(i + 1) % len(rot)] == prv
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


def trapezoidize(d: Drawing) -> Dict[Tuple[int, str], RayTarget]:
    """Ray target per reflex local extremum of each inner face.

    Keys are (vertex, kind) with kind 'min' (ray goes down) or 'max' (up);
    a vertex can be a reflex minimum of at most one face, and likewise for
    maxima, so the key is unique."""
    _check_no_horizontal(d, HorizontalEdge)
    g = d.graph
    out = {}
    views = (("min", d.coords),
             ("max", {v: (-x, -y) for v, (x, y) in d.coords.items()}))
    for kind, coords in views:
        for f, j in _reflex_minima(g, coords):
            walk = g.face_vertices(f)
            u = walk[j]
            hit = _first_hit(coords, walk, j)
            if hit is None:
                raise PreconditionViolated(
                    f"no face boundary beyond reflex extremum {u}")
            edge_idx, y_at = hit
            point = (coords[u][0], y_at)
            if kind == "max":
                point = (-point[0], -point[1])
            out[(u, kind)] = RayTarget(
                vertex=u, face=f, kind=kind,
                edge=(walk[edge_idx], walk[(edge_idx + 1) % len(walk)]),
                point=point)
    return out


def augment_y_monotone(d: Drawing, precheck: bool = True):
    """Insert an edge per reflex extremum so all inner faces become y-monotone.

    Returns the augmented plane graph and the list of added edges. The input
    graph is unchanged; the new edges are combinatorial only (their conceptual
    curves are y-monotone, certified by each witness chain). precheck=False
    skips the planarity and connectivity tests for callers that already
    established them."""
    _check_no_horizontal(d, PreconditionViolated)
    g = d.graph
    if precheck and not drawing_is_planar(g, d.coords):
        raise PreconditionViolated("drawing is not planar")
    if precheck and not is_internally_3connected(g):
        raise PreconditionViolated("graph is not internally 3-connected")

    rec_min, plans_min = _phase(g, d.coords)
    rotated = {v: (-x, -y) for v, (x, y) in d.coords.items()}
    rec_max, plans_max = _phase(g, rotated)
    assert not (plans_min.keys() & plans_max.keys())

    new_rot = _apply_plans(g, {**plans_min, **plans_max})
    new_g = PlaneGraph(new_rot, g.outer_dart)

    added = []
    for kind, recs in (("min", rec_min), ("max", rec_max)):
        for r in recs:
            u, v = r["u"], r["v"]
            px, py = r["point"]
            added.append(AugmentingEdge(
                u=u, v=v, face=r["face"], kind=kind,
                u_pos=new_g.rotation[u].index(v),
                v_pos=new_g.rotation[v].index(u),
                witness=r["darts"],
                target_point=(px, py) if kind == "min" else (-px, -py)))
    added.sort(key=lambda e: (e.u, e.v))
    return new_g, added

"""Convexification pipeline built from one-axis morphs.

Turns a planar straight-line drawing of an internally 3-connected plane
graph into a strictly convex drawing through a short chain of horizontal
and vertical moves, never letting a convex internal angle go reflex again.

Layers, from primitive to general input:

 * morph_A / morph_B: one horizontal move of a convex-outer drawing that
   makes every internal angle whose apex is not a local height extremum of
   its face strictly convex; morph_B folds in a shear so the result has no
   vertical edge and, when reflex angles remain, one of them straddles its
   apex horizontally (the target of the next vertical move).
 * convexify_convex_outer: alternate morph_B horizontally and vertically
   (via transposition) until strictly convex; each alternation retires at
   least one reflex angle.
 * pop_pocket: release one temporary hull edge, re-exposing the pocket
   path behind it as a reflex chain of the hull, in at most three moves.
 * convexify_3connected: complete the hull with temporary edges, run the
   convex-outer phase, then pop the pockets one by one.
 * augment_buffers / remove_buffer_vertex: for inputs where a hull edge
   cannot be added directly, pad each missing hull segment with a buffer
   path first; its apex vertices come back out later, two moves each.
 * convexify: dispatch over the cases above.

Every move redraws the drawing onto a strictly convex boundary polygon
with the fixed axis kept (the Tutte variant of tutte_solver), then shears
along the moving axis; _redraw_move is that one operation.  All arithmetic
is exact.  To stop denominators from compounding across alternating solves,
the moving coordinate of each redraw is snapped to a dyadic grid; the snap
is accepted only when the snapped drawing is strictly convex, which
certifies that it is planar and realizes the same embedding (see
plane_graph), and meets the step's own extra condition, so it amounts to
a slightly different but equally valid choice of the same move.  The
snapped values come from tutte_solver.RoundedSolution, which certifies each
rounding of the Tutte solution without computing that solution exactly;
only when it cannot certify one does the exact solve run, so every drawing
is the one the exact solution would give.

A check that fails on a drawing the pipeline made raises a ConvexifyError
naming the step and the check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Mapping, Optional, Sequence, Tuple

from .connectivity import is_internally_3connected, three_connected
from .monotone_augment import augment_y_monotone
from .plane_graph import (
    AngleKind,
    AngleRef,
    Drawing,
    EmbeddingInvalid,
    NotPlanarInput,
    PlaneGraph,
    PreconditionViolated,
    ReflexKind,
    ShearConstraints,
    _shear_ok,
    angle_status_points,
    build_plane_graph_from_points,
    choose_safe_shear,
    convex_hull,
    drawing_is_planar,
    integer_points,
    internal_reflex_angles,
    internal_reflex_count,
    is_convex_outer,
    is_strictly_convex,
    rat,
    shear,
    sign_of,
    sort_ccw,
    unique_extreme,
    validate_drawing,
)
from .steps import Direction, GraphEdit, MorphSequence, MorphStep, SequenceBuilder
from .tutte_solver import (
    BoundaryPolygon,
    PolygonOptions,
    ConstraintInfeasible,
    WrongChain,
    RoundedSolution,
    convex_polygon_for_x,
    convex_polygon_for_y,
    redraw_rows,
    redraw_rows_x,
)


class NotInternallyThreeConnected(ValueError):
    """Input graph is not internally 3-connected."""


class RemovalBreaksConnectivity(ValueError):
    """Removing the requested outer edge destroys internal 3-connectivity."""


class NonExternalPairCreated(ValueError):
    """Hull completion was not certified safe and created a separating pair."""


class PlacementFailure(ValueError):
    """No buffer placement validated even after shrinking the offsets."""


class ConvexifyError(RuntimeError):
    """A check of the pipeline failed on a drawing it made. layer names the
    step (its provenance note) or the function, check the failed check."""

    def __init__(self, layer: str, check: str):
        super().__init__(f"{layer}: {check}")
        self.layer = layer
        self.check = check


class PostconditionFailed(ConvexifyError):
    """A drawing the pipeline made is not what its step promised."""


class ReflexNotRetired(ConvexifyError):
    """An alternating move left as many reflex angles as before."""


class MoveBudgetExceeded(ConvexifyError):
    """The convex-outer phase used up its moves before turning convex."""


class PocketNotSeparated(ConvexifyError):
    """The pocket corners could not be made the leftmost and rightmost."""


class GraphNotRestored(ConvexifyError):
    """The final drawing draws another graph than the input."""


# -- small geometric helpers ---------------------------------------------------


def _ymap(d: Drawing) -> Dict[int, object]:
    return {v: p[1] for v, p in d.coords.items()}


def _xmap(d: Drawing) -> Dict[int, object]:
    return {v: p[0] for v, p in d.coords.items()}


def _has_horizontal_edge(d: Drawing) -> bool:
    return any(d.coords[u][1] == d.coords[v][1]
               for u, v in d.graph.edges())


def _has_vertical_edge(d: Drawing) -> bool:
    return any(d.coords[u][0] == d.coords[v][0]
               for u, v in d.graph.edges())


def _rotations_realized(d: Drawing) -> bool:
    """Every stored rotation equals the angular order around its vertex."""
    pts = integer_points(d.coords)
    for v, nbrs in d.graph.rotation.items():
        k = len(nbrs)
        if k <= 2:
            continue
        pv = pts[v]
        dirs = [(pts[w][0] - pv[0], pts[w][1] - pv[1]) for w in nbrs]
        order = sort_ccw(dirs)
        shift = order.index(0)
        if any(order[(shift + i) % k] != i for i in range(k)):
            return False
    return True


def _remove_edge_safe(g: PlaneGraph, u: int, v: int) -> PlaneGraph:
    """remove_edge that re-anchors the outer dart when e carried it."""
    if set(g.outer_dart) == {u, v}:
        walk = g.outer_walk()
        k = len(walk)
        for i in range(k):
            dart = (walk[i], walk[(i + 1) % k])
            if set(dart) != {u, v}:
                return g.remove_edge(u, v, outer_dart=dart)
        raise EmbeddingInvalid("outer face is a single edge")
    return g.remove_edge(u, v)


def _remove_vertex_safe(g: PlaneGraph, w: int) -> PlaneGraph:
    """remove_vertex that re-anchors the outer dart when w was on it."""
    if w in g.outer_dart:
        walk = g.outer_walk()
        k = len(walk)
        for i in range(k):
            dart = (walk[i], walk[(i + 1) % k])
            if w not in dart:
                return g.remove_vertex(w, outer_dart=dart)
        raise EmbeddingInvalid("no outer dart avoids the vertex")
    return g.remove_vertex(w)


# -- coordinate maintenance ----------------------------------------------------

_GRID_BITS = (48, 64, 96, 128, 192)
_COMPACT_LIMIT = 1 << 80
_SNAP_LIMIT = 1 << 24


def _certified(d: Drawing, require) -> bool:
    """Strictly convex, and meeting require if one is given. The module
    global is_strictly_convex is read per call, so a rebound one (as
    perfbench/layers.py traces it) is the one used."""
    return is_strictly_convex(d) and (require is None or require(d))


def _compact(d: Drawing, direction: Direction, fixed: Dict[int, object],
             solution: RoundedSolution,
             require: Optional[Callable[[Drawing], bool]]
             ) -> Tuple[Drawing, bool]:
    """The redraw of d whose moving-axis coordinates are fixed (the
    boundary's) and solution's (the rest): exact when every one has a
    denominator of at most _COMPACT_LIMIT; otherwise snapped to the first
    grid of _GRID_BITS whose drawing is strictly convex and meets require,
    or exact when none does. Returns the drawing and whether it was
    snapped. A strictly convex drawing, each face walk winding once, is
    planar and realizes its embedding (Floater 2003; see plane_graph), so
    a snap needs no segment sweep and no rotation check."""
    ma = direction.moving_axis

    def drawing(values):
        return d.with_coords({v: (values[v], p[1]) if ma == 0
                              else (p[0], values[v])
                              for v, p in d.coords.items()})

    if max(x.denominator for x in fixed.values()) <= _COMPACT_LIMIT:
        small = solution.small(_COMPACT_LIMIT)
        if small is not None:
            return drawing({**fixed, **small}), False
    for bits in _GRID_BITS:
        scale = 1 << bits
        values = {v: rat(round(x * scale), scale) for v, x in fixed.items()}
        for u, j in solution.rounded(bits).items():
            values[u] = rat(j, scale)
        cand = drawing(values)
        if _certified(cand, require):
            return cand, True
    return drawing({**fixed, **solution.exact()}), False


def _snap_shear(d: Drawing, axis: str, lam, cons: ShearConstraints):
    """Replace an ugly exact shear factor by a nearby dyadic one."""
    if lam == 0:
        return lam
    if rat(lam).denominator <= _SNAP_LIMIT:
        return lam
    pts = integer_points(d.coords)
    for bits in (24, 32, 48, 64, 96):
        scale = 1 << bits
        cand = rat(round(lam * scale), scale)
        if _shear_ok(d.graph, pts, axis, cand, cons):
            return cand
    return lam


def _safe_shear(d: Drawing, axis: str, cons: ShearConstraints) -> Drawing:
    lam = choose_safe_shear(d, axis, cons)
    return shear(d, axis, _snap_shear(d, axis, lam, cons))


def _redraw(d: Drawing, direction: Direction, poly: BoundaryPolygon,
            note: str, require: Optional[Callable[[Drawing], bool]] = None
            ) -> Drawing:
    """Redraw d onto poly keeping the fixed axis of the direction, snapped
    by _compact; the drawing returned is strictly convex and meets
    require, if one is given."""
    ma = direction.moving_axis
    system = redraw_rows if direction is Direction.HORIZONTAL else redraw_rows_x
    rows, rhs = system(d, poly)
    fixed = {v: p[ma] for v, p in poly.coords.items()}
    out, snapped = _compact(d, direction, fixed, RoundedSolution(rows, rhs),
                            require)
    # _compact checked every snap it returns; an exact drawing is checked
    # here
    if not snapped and not _certified(out, require):
        raise PostconditionFailed(note, "redraw failed its postcondition")
    return out


def _redraw_move(b: SequenceBuilder, direction: Direction,
                 poly: BoundaryPolygon, note: str,
                 require: Optional[Callable[[Drawing], bool]] = None,
                 cons: Optional[ShearConstraints] = None) -> Drawing:
    """One move from b.current: redraw onto poly (see _redraw; require is
    an extra condition on top of strict convexity), then shear along the
    moving axis under cons (by default, no axis-parallel edge). Both land
    in b as one step noted note; returns the end drawing."""
    cur = _redraw(b.current, direction, poly, note, require)
    b.move(direction, cur, note)
    axis = "x" if direction is Direction.HORIZONTAL else "y"
    cur = _safe_shear(cur, axis, cons or ShearConstraints())
    b.move(direction, cur, note)
    return cur


def _polygon_preserving_x(cycle: Sequence[int],
                          x: Dict[int, object]) -> BoundaryPolygon:
    """Strictly convex polygon on the cycle keeping every x, default shape."""
    poly = convex_polygon_for_y(tuple(reversed(cycle)), x)
    coords = {v: (p[1], p[0]) for v, p in poly.coords.items()}
    out = BoundaryPolygon(tuple(cycle), coords)
    out.validate()
    return out


def _require_planar(d: Drawing):
    if not drawing_is_planar(d.graph, d.coords):
        raise PreconditionViolated("drawing is not planar")


def _require_i3c(g: PlaneGraph):
    if not is_internally_3connected(g):
        raise PreconditionViolated("graph is not internally 3-connected")


# -- single horizontal moves ---------------------------------------------------


def morph_A(d: Drawing, precheck: bool = True) -> MorphStep:
    """One horizontal move after which every internal angle whose apex is
    not a local height extremum of its face is strictly convex and the
    outer polygon is strictly convex. Preserves every y coordinate."""
    if precheck:
        _require_planar(d)
        _require_i3c(d.graph)
        if not is_convex_outer(d):
            raise PreconditionViolated("outer face is not convex")
    if _has_horizontal_edge(d):
        raise PreconditionViolated("drawing has a horizontal edge")
    end = _level_convex_redraw(d)
    return MorphStep(Direction.HORIZONTAL, d, end,
                     "level-preserving convex redraw")


def _level_convex_redraw(d: Drawing) -> Drawing:
    """Redraw with all faces convex and y untouched: make the faces height
    monotone with temporary edges, solve onto a strictly convex boundary,
    then drop the temporary edges."""
    g_aug, _ = augment_y_monotone(d, precheck=False)
    d_aug = Drawing(g_aug, d.coords)
    poly = convex_polygon_for_y(g_aug.outer_walk(), _ymap(d))
    out = _redraw(d_aug, Direction.HORIZONTAL, poly,
                  "level-preserving convex redraw")
    return Drawing(d.graph, out.coords)


def morph_B(d: Drawing, precheck: bool = True) -> Tuple[MorphStep, Drawing]:
    """morph_A combined with a shear, still one horizontal move: the end
    drawing has no vertical edge, and if it is not convex yet, at least one
    reflex angle has face neighbors on both sides of its apex in x."""
    mid = morph_A(d, precheck=precheck).end
    reflex = internal_reflex_angles(mid)
    straddling = [ref for ref, st in reflex
                  if ReflexKind.V_REFLEX in st.subtypes]
    # the next vertical move retires an angle only if it straddles its apex
    # in x, so a shear that clears vertical edges must keep one straddling
    if straddling:
        target = straddling[0]
    else:
        target = reflex[0][0] if reflex else None
    if (reflex and not straddling) or _has_vertical_edge(mid):
        cons = ShearConstraints(no_axis_parallel=True, make_straddle=target)
        end = _safe_shear(mid, "x", cons)
    else:
        end = mid
    step = MorphStep(Direction.HORIZONTAL, d, end,
                     "convex redraw with straddle shear")
    return step, end


# -- convex outer face ----------------------------------------------------------


def convexify_convex_outer(d: Drawing, precheck: bool = True) -> MorphSequence:
    """Alternating one-axis moves from a convex-outer drawing to a strictly
    convex one; at most max(2, r+1) moves for r internal reflex angles."""
    if precheck:
        _require_planar(d)
        _require_i3c(d.graph)
        if not is_convex_outer(d):
            raise PreconditionViolated("outer face is not convex")
    b = SequenceBuilder(d)
    if is_strictly_convex(d):
        return b.build()
    cur = d
    reflex = internal_reflex_angles(cur)
    r0 = len(reflex)
    # a vertical shear first, unless some reflex angle already straddles
    # its apex in y and no edge is horizontal
    if _has_horizontal_edge(cur) or (
            r0 > 0 and not any(ReflexKind.H_REFLEX in st.subtypes
                               for _, st in reflex)):
        cons = ShearConstraints(no_axis_parallel=True,
                                make_straddle=reflex[0][0] if r0 else None)
        cur = _safe_shear(cur, "y", cons)
        b.move(Direction.VERTICAL, cur, "clear horizontal edges")
    horizontal = True
    for _ in range(max(1, r0) + 1):
        if is_strictly_convex(cur):
            return b.build()
        before = internal_reflex_count(cur)
        if horizontal:
            step, cur = morph_B(cur, precheck=False)
            b.move(Direction.HORIZONTAL, cur, step.provenance)
        else:
            step, tcur = morph_B(cur.transposed(), precheck=False)
            cur = tcur.transposed()
            b.move(Direction.VERTICAL, cur, step.provenance)
        after = internal_reflex_count(cur)
        if before > 0 and after >= before:
            raise ReflexNotRetired(
                step.provenance,
                "alternating move failed to retire a reflex angle")
        horizontal = not horizontal
    if not is_strictly_convex(cur):
        raise MoveBudgetExceeded("convexify_convex_outer",
                                 "convexification exceeded its move budget")
    return b.build()


# -- hull pockets ---------------------------------------------------------------


def _pocket_path(g: PlaneGraph, u: int, v: int) -> Tuple[int, ...]:
    """Walk of the inner face of outer edge (u, v), from one endpoint
    around to the other, skipping the edge itself."""
    fi = g.face_of_dart((u, v))
    if fi == g.outer_face_index:
        fi = g.face_of_dart((v, u))
    walk = g.face_vertices(fi)
    m = len(walk)
    for j in range(m):
        if {walk[j], walk[(j + 1) % m]} == {u, v}:
            return tuple(walk[(j + 1 + i) % m] for i in range(m))
    raise PreconditionViolated(f"edge {u},{v} not on a face walk")


def _x_monotone(path: Sequence[int], coords) -> bool:
    xs = [coords[v][0] for v in path]
    steps = list(zip(xs, xs[1:]))
    return all(a < b for a, b in steps) or all(a > b for a, b in steps)


def pop_pocket(d: Drawing, e: Tuple[int, int], precheck: bool = True,
               assume_connected: bool = False,
               ) -> Tuple[MorphSequence, Drawing]:
    """Remove outer edge e and hand its pocket path back to the hull,
    keeping the drawing strictly convex throughout; at most three moves."""
    g = d.graph
    u, v = min(e), max(e)
    if not g.has_edge(u, v):
        raise PreconditionViolated(f"no edge {e}")
    outer = g.outer_walk()
    k = len(outer)
    if not any({outer[i], outer[(i + 1) % k]} == {u, v} for i in range(k)):
        raise PreconditionViolated(f"edge {e} is not on the outer face")
    if precheck:
        if not is_strictly_convex(d):
            raise PreconditionViolated("drawing is not strictly convex")
    if _has_vertical_edge(d):
        raise PreconditionViolated("drawing has a vertical edge")
    g_minus = _remove_edge_safe(g, u, v)
    if not assume_connected and not is_internally_3connected(g_minus):
        raise RemovalBreaksConnectivity(
            f"graph minus {e} is not internally 3-connected")

    b = SequenceBuilder(d)
    # one vertical move: u becomes the unique top or bottom vertex, and a
    # shear clears horizontal edges without unseating it
    xmap = _xmap(d)
    try:
        poly1 = convex_polygon_for_x(outer, xmap, u, "top")
        side = "top"
    except WrongChain:
        poly1 = convex_polygon_for_x(outer, xmap, u, "bottom")
        side = "bottom"
    cur = _redraw_move(
        b, Direction.VERTICAL, poly1, "pocket corner to the top",
        lambda dd: unique_extreme(dd.coords, u, side),
        ShearConstraints(no_axis_parallel=True, keep_extreme=((u, side),)))

    path = _pocket_path(g, u, v)
    if not _x_monotone(path, cur.coords):
        # one horizontal move: u and v become the unique leftmost and
        # rightmost vertices, so the pocket path must run monotonely
        poly2 = None
        pins_used = None
        walk2 = cur.graph.outer_walk()
        ymap2 = _ymap(cur)
        for pins in (((u, "left"), (v, "right")),
                     ((u, "right"), (v, "left"))):
            try:
                poly2 = convex_polygon_for_y(walk2, ymap2,
                                             PolygonOptions(pins=pins))
                pins_used = pins
                break
            except (WrongChain, ConstraintInfeasible):
                continue
        if poly2 is None:
            raise PocketNotSeparated("pocket corners to the sides",
                                     "no polygon separates the pocket corners")
        cur = _redraw_move(
            b, Direction.HORIZONTAL, poly2, "pocket corners to the sides",
            lambda dd: all(unique_extreme(dd.coords, w, s)
                           for w, s in pins_used),
            ShearConstraints(no_axis_parallel=True, keep_extreme=pins_used))
        if not _x_monotone(path, cur.coords):
            raise PocketNotSeparated("pocket corners to the sides",
                                     "pocket path still not monotone after "
                                     "separating its corners")

    # release the edge; the pocket path joins the hull on a fresh polygon
    d_minus = Drawing(g_minus, cur.coords)
    b.edit(d_minus, "release pocket edge")
    poly3 = _polygon_preserving_x(g_minus.outer_walk(), _xmap(d_minus))
    cur = _redraw_move(b, Direction.VERTICAL, poly3,
                       "pocket path onto the hull")
    return b.build(), cur


def convexify_3connected(d: Drawing, precheck: bool = True,
                         hull_certified: bool = False) -> MorphSequence:
    """Convexify by completing the hull with temporary edges, convexifying
    the completed drawing, then popping each temporary edge; at most
    1.5n+2 moves. hull_certified asserts that removing any subset of the
    added edges keeps the graph internally 3-connected."""
    g = d.graph
    if precheck:
        _require_planar(d)
        _require_i3c(g)
    hull = convex_hull(d)
    h = len(hull)
    missing = sorted(
        ((hull[i], hull[(i + 1) % h]) for i in range(h)
         if not g.has_edge(hull[i], hull[(i + 1) % h])),
        key=lambda p: (min(p), max(p)))
    if not missing:
        return convexify_convex_outer(d, precheck=False)
    assume = hull_certified or three_connected(g.adjacency())

    g_full = build_plane_graph_from_points(
        d.coords, list(g.edges()) + missing)
    d_full = Drawing(g_full, d.coords)
    b = SequenceBuilder(d)
    b.edit(d_full, "complete hull")
    b.absorb(convexify_convex_outer(d_full, precheck=False))
    cur = b.current
    if _has_vertical_edge(cur):
        # only possible when the completed drawing was already strictly
        # convex and no move ran
        cur = _safe_shear(cur, "x", ShearConstraints(no_axis_parallel=True))
        b.move(Direction.HORIZONTAL, cur, "clear vertical edges")
    for e in missing:
        try:
            sub, cur = pop_pocket(cur, e, precheck=False,
                                  assume_connected=assume)
        except RemovalBreaksConnectivity as exc:
            raise NonExternalPairCreated(str(exc)) from exc
        b.absorb(sub)
    return b.build()


# -- buffer paths for incomplete hulls ------------------------------------------


@dataclass(frozen=True)
class PocketAugmentation:
    """One buffered hull gap: the original pocket path from hull vertex
    path[0] to path[-1], and the 2k+1 buffer vertices shadowing its k
    interior vertices. buffer_path lists them in walk order; the odd
    positions are the apex vertices (one per interior path vertex), the
    even positions the shared midpoints, whose first and last lie on the
    hull segment itself. epsilon_sq is the squared clearance used for the
    apex offsets (None when k == 1)."""

    hull_edge: Tuple[int, int]
    path: Tuple[int, ...]
    buffer_path: Tuple[int, ...]
    placements: Mapping[int, Tuple]
    epsilon_sq: Optional[object]

    @property
    def b_vertices(self) -> Tuple[int, ...]:
        return self.buffer_path[1::2]

    @property
    def corner_vertices(self) -> Tuple[int, int]:
        return (self.buffer_path[0], self.buffer_path[-1])


def _pt_seg_dist_sq(p, a, b):
    ab = (b[0] - a[0], b[1] - a[1])
    ap = (p[0] - a[0], p[1] - a[1])
    denom = ab[0] * ab[0] + ab[1] * ab[1]
    t = (ap[0] * ab[0] + ap[1] * ab[1]) / denom
    t = max(min(t, 1), 0)
    dx = ap[0] - t * ab[0]
    dy = ap[1] - t * ab[1]
    return dx * dx + dy * dy


def _seg_seg_dist_sq(a, b, c, d):
    """Squared distance of two non-crossing segments."""
    return min(_pt_seg_dist_sq(a, c, d), _pt_seg_dist_sq(b, c, d),
               _pt_seg_dist_sq(c, a, b), _pt_seg_dist_sq(d, a, b))


def _sqrt_floor(q):
    """A rational t with 0 < t <= sqrt(q), for a positive rational q."""
    return rat(math.isqrt(int(q.numerator * q.denominator)), q.denominator)


def _pocket_descriptor(d: Drawing, outer: Tuple[int, ...],
                       h0: int, h1: int) -> Tuple[int, ...]:
    """Pocket path from hull vertex h0 to h1 along the outer walk."""
    k = len(outer)
    j = outer.index(h1)
    arc = [h1]
    while arc[-1] != h0:
        j = (j + 1) % k
        arc.append(outer[j])
    return tuple(reversed(arc))


def _buffer_geometry(d: Drawing, path: Tuple[int, ...], shrink):
    """Coordinates for one pocket's buffer vertices at the given shrink
    factor: apexes off each interior path vertex toward the hull segment,
    midpoints between consecutive apexes, end midpoints on the segment."""
    pts = [d.point(v) for v in path]
    kk = len(path) - 2
    e0, e1 = pts[0], pts[-1]
    evec = (e1[0] - e0[0], e1[1] - e0[1])
    elen_sq = evec[0] * evec[0] + evec[1] * evec[1]
    eps_sq = None
    if kk >= 2:
        cyc = pts + [pts[0]]
        segs = [(cyc[i], cyc[i + 1]) for i in range(len(pts))]
        n_seg = len(segs)
        best = None
        for i in range(n_seg):
            for j in range(i + 2, n_seg):
                if i == 0 and j == n_seg - 1:
                    continue
                val = _seg_seg_dist_sq(*segs[i], *segs[j])
                best = val if best is None else min(best, val)
        eps_sq = best
        t_end = min(_sqrt_floor(eps_sq / (16 * elen_sq)),
                    rat(1, 2 * kk + 4)) * shrink
    else:
        t_end = rat(1, 2 * kk + 4) * shrink
    first = (e0[0] + t_end * evec[0], e0[1] + t_end * evec[1])
    last = (e1[0] - t_end * evec[0], e1[1] - t_end * evec[1])

    if kk == 1:
        m = ((first[0] + last[0]) / 2, (first[1] + last[1]) / 2)
        pull = rat(1, 8) * shrink
        apex = (m[0] + pull * (pts[1][0] - m[0]),
                m[1] + pull * (pts[1][1] - m[1]))
        return [first, apex, last], eps_sq

    apexes = []
    for i in range(1, kk + 1):
        pv = pts[i]
        u1 = (pts[i - 1][0] - pv[0], pts[i - 1][1] - pv[1])
        u2 = (pts[i + 1][0] - pv[0], pts[i + 1][1] - pv[1])
        l1 = u1[0] * u1[0] + u1[1] * u1[1]
        l2 = u2[0] * u2[0] + u2[1] * u2[1]
        w = (u1[0] / l1 + u2[0] / l2, u1[1] / l1 + u2[1] / l2)
        # the outer walk passes i+1 -> i -> i-1, keeping the pocket left
        st = angle_status_points(pts[i + 1], pv, pts[i - 1])
        if st.kind is AngleKind.REFLEX:
            w = (-w[0], -w[1])
        elif st.kind is AngleKind.STRAIGHT:
            w = (u2[1], -u2[0])
        wlen_sq = w[0] * w[0] + w[1] * w[1]
        t = _sqrt_floor(eps_sq / (16 * wlen_sq)) * shrink
        apexes.append((pv[0] + t * w[0], pv[1] + t * w[1]))

    spine = [first]
    for i, apex in enumerate(apexes):
        spine.append(apex)
        nxt = apexes[i + 1] if i + 1 < len(apexes) else None
        if nxt is not None:
            spine.append(((apex[0] + nxt[0]) / 2, (apex[1] + nxt[1]) / 2))
    spine.append(last)
    return spine, eps_sq


def augment_buffers(d: Drawing, precheck: bool = True,
                    ) -> Tuple[Drawing, Tuple[PocketAugmentation, ...]]:
    """Shadow each missing hull segment's pocket path with a buffer path
    plus spokes, so that the segment between the two new on-hull midpoints
    can be added, and later removed again, without ever touching internal
    3-connectivity. Offsets shrink geometrically until the placement
    validates; raises PlacementFailure when none does."""
    g = d.graph
    if precheck:
        _require_planar(d)
        _require_i3c(g)
    hull = convex_hull(d)
    h = len(hull)
    gaps = sorted(
        ((hull[i], hull[(i + 1) % h]) for i in range(h)
         if not g.has_edge(hull[i], hull[(i + 1) % h])),
        key=lambda p: (min(p), max(p)))
    if not gaps:
        return d, ()
    outer = g.outer_walk()
    paths = [_pocket_descriptor(d, outer, a, bb) for a, bb in gaps]
    hull_set = set(hull)
    for path in paths:
        if any(w in hull_set for w in path[1:-1]):
            raise PreconditionViolated("hull vertex inside a pocket path")

    next_id = max(g.rotation) + 1
    spines = []
    for path in paths:
        kk = len(path) - 2
        spines.append(tuple(range(next_id, next_id + 2 * kk + 1)))
        next_id += 2 * kk + 1

    for attempt in range(12):
        shrink = rat(1, 1 << attempt)
        coords = dict(d.coords)
        edges = list(g.edges())
        pockets = []
        for (a, bb), path, spine in zip(gaps, paths, spines):
            placed, eps_sq = _buffer_geometry(d, path, shrink)
            placements = dict(zip(spine, placed))
            coords.update(placements)
            chain = (path[0],) + spine + (path[-1],)
            edges.extend(zip(chain, chain[1:]))
            for i in range(1, len(path) - 1):
                edges.extend((path[i], spine[j])
                             for j in (2 * i - 2, 2 * i - 1, 2 * i))
            pockets.append(PocketAugmentation(
                hull_edge=(a, bb), path=path, buffer_path=spine,
                placements=placements, epsilon_sq=eps_sq))
        try:
            g_new = build_plane_graph_from_points(coords, edges)
            d_new = Drawing(g_new, coords)
            validate_drawing(d_new)
        except (EmbeddingInvalid, NotPlanarInput, ValueError):
            continue
        if not is_internally_3connected(g_new):
            continue
        if set(convex_hull(d_new)) != hull_set.union(
                *(pk.corner_vertices for pk in pockets)):
            continue
        ow = set(g_new.outer_walk())
        ok = all(set(pk.buffer_path) <= ow
                 and not any(w in ow for w in pk.path[1:-1])
                 for pk in pockets)
        if ok:
            return d_new, tuple(pockets)
    raise PlacementFailure("no buffer placement validated")


def remove_buffer_vertex(d: Drawing, vb: int,
                         precheck: bool = True) -> MorphSequence:
    """Drop one buffer apex from a strictly convex drawing and restore
    strict convexity with at most two moves. The shadowed path vertex
    returns to the hull between the apex's two midpoint neighbors."""
    g = d.graph
    if vb not in g.rotation or g.degree(vb) != 3:
        raise PreconditionViolated(f"{vb} is not an intact buffer apex")
    if precheck:
        if not is_strictly_convex(d):
            raise PreconditionViolated("drawing is not strictly convex")
        if _has_vertical_edge(d) or _has_horizontal_edge(d):
            raise PreconditionViolated("drawing has an axis-parallel edge")
    outer = g.outer_walk()
    if vb not in outer:
        raise PreconditionViolated(f"{vb} is not on the outer face")
    i = outer.index(vb)
    k = len(outer)
    side_a, side_c = outer[(i - 1) % k], outer[(i + 1) % k]
    inner = [w for w in g.rotation[vb] if w not in (side_a, side_c)]
    if len(inner) != 1:
        raise PreconditionViolated(f"{vb} does not frame one path vertex")
    vi = inner[0]

    g2 = _remove_vertex_safe(g, vb)
    d2 = Drawing(g2, {v: d.coords[v] for v in g2.rotation})
    b = SequenceBuilder(d)
    b.edit(d2, "drop buffer apex")
    if is_strictly_convex(d2):
        return b.build()

    pa, pv, pc = d.point(side_a), d.point(vi), d.point(side_c)
    y_sand = sign_of(pa[1] - pv[1]) * sign_of(pc[1] - pv[1]) < 0
    x_sand = sign_of(pa[0] - pv[0]) * sign_of(pc[0] - pv[0]) < 0
    if not y_sand and not x_sand:
        # shear until the new corner's neighbors straddle it in x
        fv = g2.face_vertices(g2.outer_face_index)
        ref = AngleRef(g2.outer_face_index, fv.index(vi))
        cons = ShearConstraints(no_axis_parallel=True, make_straddle=ref)
        cur = _safe_shear(b.current, "x", cons)
        b.move(Direction.HORIZONTAL, cur, "expose the new corner")
        x_sand = True

    cur = b.current
    walk = cur.graph.outer_walk()
    if y_sand:
        poly = convex_polygon_for_y(walk, _ymap(cur))
        _redraw_move(b, Direction.HORIZONTAL, poly, "absorb the new corner")
    else:
        poly = _polygon_preserving_x(walk, _xmap(cur))
        _redraw_move(b, Direction.VERTICAL, poly, "absorb the new corner")
    if not is_strictly_convex(b.current):
        raise PostconditionFailed(
            "absorb the new corner",
            "buffer removal did not restore strict convexity")
    return b.build()


# -- dispatch --------------------------------------------------------------------


def convexify(d: Drawing) -> MorphSequence:
    """Full pipeline: a convexity-increasing sequence of one-axis moves
    from any planar drawing of an internally 3-connected plane graph to a
    strictly convex drawing; at most 3.5n+2 moves."""
    g = d.graph
    # a strictly convex drawing is planar and realizes its embedding, so
    # the sweep and the rotation check run only on other input
    convex = is_strictly_convex(d)
    if not convex and not drawing_is_planar(g, d.coords):
        raise NotPlanarInput("edges cross, overlap, or vertices coincide")
    if not convex and not _rotations_realized(d):
        raise NotPlanarInput("drawing does not realize its embedding")
    if not is_internally_3connected(g):
        raise NotInternallyThreeConnected(
            "graph is not internally 3-connected")
    if convex:
        return MorphSequence(d, ())
    if is_convex_outer(d):
        return convexify_convex_outer(d, precheck=False)
    if three_connected(g.adjacency()):
        # every graph between g and its completed hull is a supergraph of g
        # on the same vertices, so it is 3-connected as well
        return convexify_3connected(d, precheck=False, hull_certified=True)

    d_buf, pockets = augment_buffers(d, precheck=False)
    b = SequenceBuilder(d)
    b.edit(d_buf, "insert buffer paths")
    b.absorb(convexify_3connected(d_buf, precheck=False, hull_certified=True))
    for vb in sorted(w for pk in pockets for w in pk.b_vertices):
        b.absorb(remove_buffer_vertex(b.current, vb, precheck=False))
    cur = b.current
    g_final = cur.graph
    for w in sorted(w for pk in pockets for w in pk.buffer_path[::2]):
        g_final = _remove_vertex_safe(g_final, w)
    d_final = Drawing(g_final, {v: cur.coords[v] for v in g_final.rotation})
    b.edit(d_final, "drop buffer midpoints")
    if set(g_final.edges()) != set(g.edges()):
        raise GraphNotRestored("convexify",
                               "pipeline did not restore the original graph")
    if not is_strictly_convex(d_final):
        raise PostconditionFailed(
            "convexify", "pipeline did not reach a strictly convex drawing")
    return b.build()

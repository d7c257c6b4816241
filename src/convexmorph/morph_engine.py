"""Convexification pipeline built from one-axis morphs.

Turns a planar straight-line drawing of an internally 3-connected plane
graph into a strictly convex drawing through a short chain of horizontal
and vertical moves, never letting a convex internal angle go reflex again.

Layers, from primitive to general input:

 * morph_B: one move of a convex-outer drawing along one axis that makes
   every internal angle whose apex is not a local extremum of its face on
   the fixed axis strictly convex, with a shear folded in so the result has
   no edge level on the moving axis and, when reflex angles remain, one of
   them straddles its apex along the moving axis (the target of the next
   move, along the other axis).
 * convexify_convex_outer: alternate morph_B horizontally and vertically
   until strictly convex; each alternation retires at least one reflex
   angle.
 * pop_pocket: release one temporary hull edge, re-exposing the pocket
   path behind it as a reflex chain of the hull, in at most three moves.
 * convexify_3connected: complete the hull with temporary edges, run the
   convex-outer phase, then pop the pockets one by one.
 * augment_buffers / remove_buffer_vertex: for inputs where a hull edge
   cannot be added directly, pad each missing hull segment with a buffer
   path first; its apex vertices come back out later, two moves each.
 * convexify: check the input, then dispatch over the cases above. It is
   the only input gate: each layer trusts that its caller established
   planarity and connectivity, and checks only what its own step needs.

convexify makes the one SequenceBuilder of a run and passes it down: every
layer reads its drawing off b.current and appends its moves and graph edits
to b, so each move passes through SequenceBuilder.move once, and convexify
builds the sequence at the end.

Every move redraws the drawing onto a strictly convex boundary polygon with
the fixed axis kept (the Tutte variant of tutte_solver), then shears along
the moving axis.  _redraw_move is that move under a step's pins, the
(vertex, side) pairs it keeps unique extremes; _straddle_shear is the one
straddle rule, the shear that ends morph_B and clears level edges before
the convex-outer phase and the pockets.  A shear that moves nothing has
factor 0 and SequenceBuilder.move drops the identity move, so only
remove_buffer_vertex, whose target is an outer-face angle, tests whether to
shear.  All arithmetic is exact.  To stop denominators from compounding
across alternating solves, no redraw and no shear factor is emitted
exactly: the moving coordinate of each redraw, and each shear factor that
is not a small rational, is snapped to the first grid of one dyadic ladder
(_grid_bits: 2^-48, 2^-64, 2^-96, ... for redraws, from 2^-24 for shears)
that keeps the step valid.  A redraw's snap is accepted only when the
snapped drawing is strictly convex, which certifies that it is planar and
realizes the same embedding (see plane_graph), and keeps the step's pins,
so it amounts to a slightly different but equally valid choice of the same
move.  The snapped values come from tutte_solver.RoundedSolution, which
certifies each rounding of the Tutte solution without computing that
solution exactly, so every snap is the rounding of the exact solution.

A check that fails on a drawing the pipeline made raises a ConvexifyError
naming the step and the check.
"""

from __future__ import annotations

import itertools
import math
from typing import Dict, Sequence, Tuple

from .connectivity import is_internally_3connected, three_connected
from .monotone_augment import augment_y_monotone
from .plane_graph import (
    AngleKind,
    AngleRef,
    Drawing,
    NotPlanarInput,
    PlaneGraph,
    PreconditionViolated,
    ShearConstraints,
    _ShearSpace,
    _cross,
    _integer_view,
    angle_status_points,
    build_plane_graph_from_points,
    choose_safe_shear,
    convex_hull,
    drawing_is_planar,
    internal_reflex_angles,
    is_convex_outer,
    is_strictly_convex,
    rat,
    shear,
    sort_ccw,
    straddles,
    unique_extreme,
    validate_drawing,
)
from .steps import Direction, MorphSequence, SequenceBuilder
from .tutte_solver import (
    BoundaryPolygon,
    ConstraintInfeasible,
    WrongChain,
    RoundedSolution,
    _Uncertified,
    convex_polygon_for_x,
    convex_polygon_for_y,
    redraw_rows,
)


class NotInternallyThreeConnected(ValueError):
    """Input graph is not internally 3-connected."""


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
    """No polygon makes the pocket corners unique extremes, or the pocket
    path stayed non-monotone after they were."""


class PlacementFailure(ConvexifyError):
    """The buffer placement augment_buffers computes fails one of its
    checks, or no shrink lets every pocket vertex's spokes fan out."""


class GraphNotRestored(ConvexifyError):
    """The final drawing draws another graph than the input."""


# -- small geometric helpers ---------------------------------------------------


def _has_level_edge(d: Drawing, axis: int) -> bool:
    """Has d an edge whose ends share their coordinate on axis (a
    horizontal edge for axis 1, a vertical one for axis 0)?"""
    pts = d.ints
    return any(pts[u][axis] == pts[v][axis] for u, v in d.graph.edges())


def _default_polygon(d: Drawing, walk: Sequence[int], direction: Direction,
                     pins: Tuple) -> BoundaryPolygon:
    """The strictly convex polygon on the clockwise walk that keeps d's
    coordinates on the fixed axis of direction and makes each pinned
    (vertex, side) a unique extreme on the moving axis."""
    kept = {v: p[direction.fixed_axis] for v, p in d.ints.items()}
    if direction is Direction.HORIZONTAL:
        return convex_polygon_for_y(walk, kept, pins, d.den)
    return convex_polygon_for_x(walk, kept, pins, d.den)


def _pinned_polygon(d: Drawing, walk: Sequence[int], direction: Direction,
                    choices: Sequence[Tuple], note: str
                    ) -> Tuple[BoundaryPolygon, Tuple]:
    """_default_polygon and its pins for the first pins of choices that a
    polygon can meet; PocketNotSeparated names note when none can."""
    for pins in choices:
        try:
            return _default_polygon(d, walk, direction, pins), pins
        except (WrongChain, ConstraintInfeasible):
            continue
    raise PocketNotSeparated(note, "no polygon meets any choice of pins")


def _rotations_realized(d: Drawing) -> bool:
    """Every stored rotation equals the angular order around its vertex."""
    pts = d.ints
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


def _outer_area2(d: Drawing) -> int:
    """Twice the signed area of d's outer walk on the integer view (the
    shoelace sum): negative when the walk is clockwise, as the outer face
    of a planar drawing that realizes its rotations is."""
    walk = [d.ints[v] for v in d.graph.outer_walk()]
    return sum(_cross(p, q) for p, q in zip(walk, walk[1:] + walk[:1]))


# -- coordinate maintenance ----------------------------------------------------

_MAX_GRID_BITS = 1 << 16
_SNAP_LIMIT = 1 << 24


def _grid_bits(first: int):
    """The snap ladder from first (a power of two or three times one):
    2^k and 3 * 2^(k-1) in turn, up to _MAX_GRID_BITS."""
    bits = first
    while bits <= _MAX_GRID_BITS:
        yield bits
        bits = bits * 4 // 3 if bits & (bits - 1) else bits * 3 // 2


def _certified(d: Drawing, pins: Tuple) -> bool:
    """Strictly convex, with each pinned (vertex, side) a unique extreme.
    The module global is_strictly_convex is read per call, so a rebound
    one (as perfbench/layers.py traces it) is the one used."""
    return is_strictly_convex(d) and all(
        unique_extreme(d.ints, v, side) for v, side in pins)


def _round_div(n: int, q: int) -> int:
    """round(n / q) for q > 0, half to even, as Fraction rounds."""
    j, r = divmod(n, q)
    if 2 * r > q or (2 * r == q and j & 1):
        j += 1
    return j


def _snapped(d: Drawing, ma: int, poly: BoundaryPolygon,
             rounded: Dict[int, int], bits: int) -> Drawing:
    """d with its coordinates on axis ma snapped to the grid 2^-bits: the
    boundary's rounded from poly, the rest given as rounded (each times
    2^bits, as RoundedSolution.rounded(bits) answers). The snapped drawing
    is over lcm(d.den, 2^bits), so the rounded integers go in as they are."""
    scale = 1 << bits
    den = math.lcm(d.den, scale)
    up, step = den // d.den, den // scale
    values = {v: _round_div(p[ma] << bits, poly.den) * step
              for v, p in poly.ints.items()}
    for u, j in rounded.items():
        values[u] = j * step
    if ma == 0:
        ints = {v: (values[v], y * up) for v, (_, y) in d.ints.items()}
    else:
        ints = {v: (x * up, values[v]) for v, (x, _) in d.ints.items()}
    return Drawing.from_ints(d.graph, ints, den)


def _compact(d: Drawing, direction: Direction, poly: BoundaryPolygon,
             solution: RoundedSolution, pins: Tuple, note: str) -> Drawing:
    """The redraw of d whose moving-axis coordinates are poly's (on the
    boundary) and solution's (the rest), snapped (_snapped) to the first
    grid of _grid_bits(48) on which solution certifies its rounding and
    whose drawing is strictly convex and keeps the pins. A strictly convex
    drawing, each face walk winding once, is planar and realizes its
    embedding (Floater 2003; see plane_graph), so a snap needs no segment
    sweep and no rotation check.

    The exact redraw is strictly convex and both conditions are open, so
    some grid is fine enough: the ladder runs out only when the exact
    redraw fails a check or needs a grid finer than 2^-_MAX_GRID_BITS, and
    then PostconditionFailed names note."""
    ma = direction.moving_axis
    for bits in _grid_bits(48):
        rounded = solution.rounded(bits)
        if rounded is None:
            continue
        cand = _snapped(d, ma, poly, rounded, bits)
        if _certified(cand, pins):
            return cand
    raise PostconditionFailed(
        note, f"redraw failed its postcondition on every grid to 2^-{bits}")


def _snap_shear(d: Drawing, axis: int, lam, cons: ShearConstraints):
    """Replace an ugly exact shear factor by the first dyadic of the
    _grid_bits(24) ladder that is safe too, each tested as
    choose_safe_shear tests a candidate. The constraints are open in the
    factor, so a fine enough grid holds one."""
    if rat(lam).denominator <= _SNAP_LIMIT:
        return lam
    space = _ShearSpace(d.graph, d.ints, axis, cons)
    for bits in _grid_bits(24):
        scale = 1 << bits
        num = round(lam * scale)
        if space.ok(num, scale):
            return rat(num, scale)
    raise PostconditionFailed(
        "_snap_shear",
        f"no shear along axis {axis} on a grid to 2^-{bits} is safe")


def _safe_shear(d: Drawing, axis: int, cons: ShearConstraints) -> Drawing:
    lam = choose_safe_shear(d, axis, cons)
    return shear(d, axis, _snap_shear(d, axis, lam, cons))


def _redraw(d: Drawing, direction: Direction, poly: BoundaryPolygon,
            pins: Tuple, note: str) -> Drawing:
    """Redraw d onto poly keeping the fixed axis of the direction, snapped
    by _compact; the drawing returned is strictly convex and keeps each
    pinned (vertex, side) a unique extreme. A system RoundedSolution cannot
    certify raises PostconditionFailed naming note and the reason."""
    try:
        solution = RoundedSolution(*redraw_rows(d, poly, direction.fixed_axis))
        return _compact(d, direction, poly, solution, pins, note)
    except _Uncertified as exc:
        raise PostconditionFailed(note, str(exc)) from None


def _redraw_move(b: SequenceBuilder, direction: Direction,
                 poly: BoundaryPolygon, pins: Tuple, note: str) -> None:
    """One move from b.current, noted note: redraw onto poly under the
    pins (see _redraw), then shear along the moving axis keeping the pins
    and leaving no edge level on it."""
    cur = _redraw(b.current, direction, poly, pins, note)
    b.move(direction, _safe_shear(cur, direction.moving_axis,
                                  ShearConstraints(keep_extreme=pins)), note)


def _straddle_shear(d: Drawing, axis: int) -> Tuple[Drawing, int]:
    """d sheared along axis so that no edge is level on it and one internal
    reflex angle, if any, straddles its apex along it (the first that does
    already, else the first), as the next move needs; and d's number of
    internal reflex angles, which a shear keeps."""
    reflex = internal_reflex_angles(d)
    straddling = [ref for ref in reflex
                  if straddles(d.graph, d.ints, ref, axis)]
    target = (straddling or reflex or [None])[0]
    return (_safe_shear(d, axis, ShearConstraints(make_straddle=target)),
            len(reflex))


# -- single one-axis moves -----------------------------------------------------


_MORPH_B = "convex redraw with straddle shear"


def morph_B(d: Drawing, direction: Direction) -> Tuple[Drawing, int]:
    """One move along direction of a convex-outer drawing with no edge
    level on the fixed axis: a redraw that keeps every fixed-axis
    coordinate and makes strictly convex every internal angle whose apex is
    not a local extremum of its face on that axis, and the outer polygon,
    then a shear. The end drawing has no edge level on the moving axis, and
    if it is not convex yet, at least one reflex angle has face neighbors
    on both sides of its apex along the moving axis. Returns the end
    drawing and its number of internal reflex angles.

    The redraw: augment_y_monotone adds temporary edges between local
    extrema of each face until every face has one minimum and one maximum
    on the fixed axis, the augmented graph is redrawn onto a strictly
    convex boundary, and the temporary edges are dropped again; then
    _straddle_shear. augment_y_monotone raises PreconditionViolated on an
    edge level on the fixed axis."""
    g_aug = augment_y_monotone(d, direction.fixed_axis)
    poly = _default_polygon(d, g_aug.outer_walk(), direction, ())
    mid = _redraw(d.with_graph(g_aug), direction, poly, (),
                  "level-preserving convex redraw")
    return _straddle_shear(mid.with_graph(d.graph), direction.moving_axis)


# -- convex outer face ----------------------------------------------------------


def convexify_convex_outer(b: SequenceBuilder) -> None:
    """Append to b alternating one-axis moves from its convex-outer current
    drawing to a strictly convex one; at most max(2, r+1) moves for r
    internal reflex angles."""
    cur = b.current
    if is_strictly_convex(cur):
        return
    # a vertical shear first; it is the identity, and b drops it, when some
    # reflex angle already straddles its apex in y and no edge is horizontal
    cur, r0 = _straddle_shear(cur, 1)
    b.move(Direction.VERTICAL, cur, "clear horizontal edges")
    before = r0
    turns = itertools.cycle((Direction.HORIZONTAL, Direction.VERTICAL))
    for _, direction in zip(range(max(1, r0) + 1), turns):
        if is_strictly_convex(cur):
            return
        cur, after = morph_B(cur, direction)
        b.move(direction, cur, _MORPH_B)
        if before > 0 and after >= before:
            raise ReflexNotRetired(
                _MORPH_B, "alternating move failed to retire a reflex angle")
        before = after
    if not is_strictly_convex(cur):
        raise MoveBudgetExceeded("convexify_convex_outer",
                                 "convexification exceeded its move budget")


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


def _x_monotone(path: Sequence[int], d: Drawing) -> bool:
    xs = [d.ints[v][0] for v in path]
    steps = list(zip(xs, xs[1:]))
    return all(a < b for a, b in steps) or all(a > b for a, b in steps)


def pop_pocket(b: SequenceBuilder, e: Tuple[int, int]) -> None:
    """Remove outer edge e of b's strictly convex current drawing and hand
    its pocket path back to the hull, keeping the drawing strictly convex
    throughout; appends at most three moves to b. The graph without e must
    be internally 3-connected."""
    d = b.current
    g = d.graph
    u, v = min(e), max(e)
    outer = g.outer_walk()
    k = len(outer)
    if not any({outer[i], outer[(i + 1) % k]} == {u, v} for i in range(k)):
        raise PreconditionViolated(f"edge {e} is not on the outer face")
    if _has_level_edge(d, 0):
        raise PreconditionViolated("drawing has a vertical edge")
    g_minus = g.remove_edge(u, v)

    # one vertical move: u becomes the unique top or bottom vertex, and the
    # shear keeps it there
    note = "pocket corner to the top"
    poly, pins = _pinned_polygon(d, outer, Direction.VERTICAL,
                                 (((u, "top"),), ((u, "bottom"),)), note)
    _redraw_move(b, Direction.VERTICAL, poly, pins, note)

    path = _pocket_path(g, u, v)
    if not _x_monotone(path, b.current):
        # one horizontal move: u and v become the unique leftmost and
        # rightmost vertices, so the pocket path must run monotonely
        note = "pocket corners to the sides"
        poly, pins = _pinned_polygon(
            b.current, outer, Direction.HORIZONTAL,
            (((u, "left"), (v, "right")), ((u, "right"), (v, "left"))), note)
        _redraw_move(b, Direction.HORIZONTAL, poly, pins, note)
        if not _x_monotone(path, b.current):
            raise PocketNotSeparated(note, "pocket path still not monotone "
                                           "after separating its corners")

    # release the edge; the pocket path joins the hull on a fresh polygon
    d_minus = b.current.with_graph(g_minus)
    b.edit(d_minus, "release pocket edge")
    poly = _default_polygon(d_minus, g_minus.outer_walk(),
                            Direction.VERTICAL, ())
    _redraw_move(b, Direction.VERTICAL, poly, (), "pocket path onto the hull")


def _hull_gaps(d: Drawing, hull: Sequence[int]) -> list:
    """The segments of d's hull, convex_hull(d), that are not edges, sorted
    by endpoints."""
    h = len(hull)
    return sorted(((hull[i], hull[(i + 1) % h]) for i in range(h)
                   if not d.graph.has_edge(hull[i], hull[(i + 1) % h])),
                  key=lambda p: (min(p), max(p)))


def convexify_3connected(b: SequenceBuilder) -> None:
    """Convexify b's current drawing by completing the hull with temporary
    edges, convexifying the completed drawing, then popping each temporary
    edge; at most 1.5n+2 moves. Removing any subset of the added edges must
    keep the graph internally 3-connected: so it does when the graph is
    3-connected, and when augment_buffers padded its hull gaps."""
    d = b.current
    missing = _hull_gaps(d, convex_hull(d))
    if not missing:
        convexify_convex_outer(b)
        return

    g_full = build_plane_graph_from_points(
        d.ints, list(d.graph.edges()) + missing)
    b.edit(d.with_graph(g_full), "complete hull")
    convexify_convex_outer(b)
    # the drawing is strictly convex, so the shear is the identity, and b
    # drops it, unless an edge is vertical: possible only when the completed
    # drawing was already strictly convex and no move ran
    b.move(Direction.HORIZONTAL, _straddle_shear(b.current, 0)[0],
           "clear vertical edges")
    for e in missing:
        pop_pocket(b, e)


# -- buffer paths for incomplete hulls ------------------------------------------


def _pt_seg_dist_sq(p, a, b) -> Tuple[int, int]:
    """Squared distance from p to segment ab, on integer points, as a pair
    (numerator, denominator) of ints. Inside the segment's span it is
    cross(ab, ap)^2 / |ab|^2 (Lagrange's identity)."""
    ab = (b[0] - a[0], b[1] - a[1])
    ap = (p[0] - a[0], p[1] - a[1])
    dot = ap[0] * ab[0] + ap[1] * ab[1]
    if dot <= 0:
        return ap[0] * ap[0] + ap[1] * ap[1], 1
    denom = ab[0] * ab[0] + ab[1] * ab[1]
    if dot >= denom:
        bp = (p[0] - b[0], p[1] - b[1])
        return bp[0] * bp[0] + bp[1] * bp[1], 1
    cross = ap[0] * ab[1] - ap[1] * ab[0]
    return cross * cross, denom


def _min_pair(pairs):
    """The least of (numerator, denominator) pairs with positive
    denominators, by cross-multiplication."""
    best = None
    for n, q in pairs:
        if best is None or n * best[1] < best[0] * q:
            best = (n, q)
    return best


def _seg_seg_dist_sq(a, b, c, d) -> Tuple[int, int]:
    """Squared distance of two non-crossing segments on integer points, as
    a pair (numerator, denominator)."""
    return _min_pair((_pt_seg_dist_sq(a, c, d), _pt_seg_dist_sq(b, c, d),
                      _pt_seg_dist_sq(c, a, b), _pt_seg_dist_sq(d, a, b)))


def _sqrt_floor(q):
    """A rational t with 0 < t <= sqrt(q), for a positive rational q."""
    return rat(math.isqrt(int(q.numerator * q.denominator)), q.denominator)


def _pocket_descriptor(outer: Tuple[int, ...],
                       h0: int, h1: int) -> Tuple[int, ...]:
    """Pocket path from hull vertex h0 to h1 along the outer walk."""
    k = len(outer)
    j = outer.index(h1)
    arc = [h1]
    while arc[-1] != h0:
        j = (j + 1) % k
        arc.append(outer[j])
    return tuple(reversed(arc))


def _buffer_geometry(d: Drawing, path: Tuple[int, ...]):
    """One pocket's buffer vertices in spine order, each as a pair (base,
    offset) of rational points: at shrink s the vertex is base + s * offset.
    Apexes go off each interior path vertex toward the hull segment,
    midpoints lie between consecutive apexes, and the end midpoints on the
    segment.

    Every base next to an interior path vertex P_i is P_i itself (its apex)
    or lies on a path edge at P_i (the midpoints, and the end midpoints,
    whose bases are the path's ends), which _shrink_bits relies on. In a
    one-vertex pocket the end offsets cancel in their midpoint m, and the
    apex is m + (s/8)(P_1 - m)."""
    pts = [d.point(v) for v in path]
    kk = len(path) - 2
    e0, e1 = pts[0], pts[-1]
    evec = (e1[0] - e0[0], e1[1] - e0[1])
    elen_sq = evec[0] * evec[0] + evec[1] * evec[1]
    if kk >= 2:
        # the least distance on the integer view, scaled back once
        ip = [d.ints[v] for v in path]
        cyc = ip + [ip[0]]
        segs = [(cyc[i], cyc[i + 1]) for i in range(len(ip))]
        n_seg = len(segs)
        num, den = _min_pair(
            _seg_seg_dist_sq(*segs[i], *segs[j])
            for i in range(n_seg) for j in range(i + 2, n_seg)
            if not (i == 0 and j == n_seg - 1))
        eps_sq = rat(num, den * d.den * d.den)
        t_end = min(_sqrt_floor(eps_sq / (16 * elen_sq)),
                    rat(1, 2 * kk + 4))
    else:
        t_end = rat(1, 2 * kk + 4)
    first = (e0, (t_end * evec[0], t_end * evec[1]))
    last = (e1, (-t_end * evec[0], -t_end * evec[1]))

    if kk == 1:
        m = ((e0[0] + e1[0]) / 2, (e0[1] + e1[1]) / 2)
        return [first, (m, ((pts[1][0] - m[0]) / 8, (pts[1][1] - m[1]) / 8)),
                last]

    apexes = []
    for i in range(1, kk + 1):
        pv = pts[i]
        u1 = (pts[i - 1][0] - pv[0], pts[i - 1][1] - pv[1])
        u2 = (pts[i + 1][0] - pv[0], pts[i + 1][1] - pv[1])
        l1 = u1[0] * u1[0] + u1[1] * u1[1]
        l2 = u2[0] * u2[0] + u2[1] * u2[1]
        w = (u1[0] / l1 + u2[0] / l2, u1[1] / l1 + u2[1] / l2)
        # the outer walk passes i+1 -> i -> i-1, keeping the pocket left
        kind = angle_status_points(pts[i + 1], pv, pts[i - 1])
        if kind is AngleKind.REFLEX:
            w = (-w[0], -w[1])
        elif kind is AngleKind.STRAIGHT:
            w = (u2[1], -u2[0])
        wlen_sq = w[0] * w[0] + w[1] * w[1]
        t = _sqrt_floor(eps_sq / (16 * wlen_sq))
        apexes.append((pv, (t * w[0], t * w[1])))

    spine = [first]
    for (pa, da), (pb, db) in zip(apexes, apexes[1:]):
        spine.append((pa, da))
        spine.append((((pa[0] + pb[0]) / 2, (pa[1] + pb[1]) / 2),
                      ((da[0] + db[0]) / 2, (da[1] + db[1]) / 2)))
    spine.append(apexes[-1])
    spine.append(last)
    return spine


def _shrink_bits(d: Drawing, paths, geometry) -> int:
    """The least k such that at shrink s = 2^-k every interior pocket
    vertex P_i sees its fan P_{i+1}, S_{2i}, S_{2i-1}, S_{2i-2}, P_{i-1}
    turn clockwise at each consecutive pair, S being the pocket's spine
    placed by geometry (per path, _buffer_geometry's pairs).

    Seen from P_i a fan member points along p + s * q, up to a factor that
    is positive for 0 < s <= 1: a path neighbour along its edge (q = 0), a
    spine vertex along base - P_i + s * offset, and the apex of a
    one-vertex pocket, (1 - s/8)(m - P_1) away, along m - P_1. The cross
    product of two members is c0 + c1 s + c2 s^2. Every base but that
    apex's is P_i or on a path edge at P_i, so two consecutive bases are
    collinear with P_i and c0 = 0, unless one member is that apex, whose
    q = 0 makes c2 = 0. Either way each pair asks a + b s < 0 (after
    dividing by s when c0 = 0), a half-line of s, and all pairs together an
    open interval (lo, hi). 2^-k is the largest power of two below hi;
    PlacementFailure when it is not above lo."""
    lo, hi = 0, None
    for path, geo in zip(paths, geometry):
        pts = [d.point(v) for v in path]
        kk = len(path) - 2
        for i in range(1, kk + 1):
            p = pts[i]
            fan = [(pts[i + 1], (0, 0)), geo[2 * i], geo[2 * i - 1],
                   geo[2 * i - 2], (pts[i - 1], (0, 0))]
            if kk == 1:
                fan[2] = (fan[2][0], (0, 0))
            dirs = [((b[0] - p[0], b[1] - p[1]), q) for b, q in fan]
            for (u, du), (w, dw) in zip(dirs, dirs[1:]):
                c0, c2 = _cross(u, w), _cross(du, dw)
                c1 = _cross(u, dw) + _cross(du, w)
                a, b = (c0, c1) if c0 else (c1, c2)
                if b > 0:
                    hi = -a / b if hi is None else min(hi, -a / b)
                elif b < 0:
                    lo = max(lo, -a / b)
                elif a >= 0:
                    hi = 0
    k = 0
    if hi is not None and hi > lo:
        k = (hi.denominator // hi.numerator).bit_length()
    if (hi is not None and hi <= lo) or lo * (1 << k) >= 1:
        raise PlacementFailure(
            "insert buffer paths",
            "no shrink 2^-k turns every pocket fan clockwise")
    return k


def _with_points(d: Drawing, extra: Dict[int, Tuple]):
    """The integer view (ints, den) of d's points together with the
    rational points extra of new vertices, over the lcm of both dens."""
    e_ints, e_den = _integer_view(extra)
    den = math.lcm(d.den, e_den)
    up, e_up = den // d.den, den // e_den
    ints = {v: (x * up, y * up) for v, (x, y) in d.ints.items()}
    ints.update((v, (x * e_up, y * e_up)) for v, (x, y) in e_ints.items())
    return ints, den


def augment_buffers(d: Drawing
                    ) -> Tuple[Drawing, Tuple[Tuple[int, ...], ...]]:
    """Shadow each missing hull segment's pocket path with a buffer path
    plus spokes, so that the segment between the two new on-hull midpoints
    can be added, and later removed again, without ever touching internal
    3-connectivity. Every offset is scaled by one shrink 2^-k, the largest
    at which each pocket vertex's spokes fan out between its path edges
    (_shrink_bits); the placement is then built and checked once, and a
    check that fails raises PlacementFailure naming it.

    Returns the padded drawing and, per hull gap, its buffer path: the 2k+1
    vertices shadowing the k interior vertices of the pocket path, in walk
    order. Its odd positions are the apex vertices (one per interior path
    vertex), its even positions the shared midpoints, whose first and last
    lie on the hull segment itself."""
    g = d.graph
    hull = convex_hull(d)
    gaps = _hull_gaps(d, hull)
    if not gaps:
        return d, ()
    outer = g.outer_walk()
    paths = [_pocket_descriptor(outer, a, bb) for a, bb in gaps]
    hull_set = set(hull)
    for path in paths:
        if any(w in hull_set for w in path[1:-1]):
            raise PreconditionViolated("hull vertex inside a pocket path")

    geometry = [_buffer_geometry(d, path) for path in paths]
    shrink = rat(1, 1 << _shrink_bits(d, paths, geometry))
    next_id = max(g.rotation) + 1
    spines = []
    extra = {}
    edges = list(g.edges())
    for path, geo in zip(paths, geometry):
        spine = tuple(range(next_id, next_id + len(geo)))
        next_id += len(geo)
        spines.append(spine)
        extra.update((v, (b[0] + shrink * q[0], b[1] + shrink * q[1]))
                     for v, (b, q) in zip(spine, geo))
        chain = (path[0],) + spine + (path[-1],)
        edges.extend(zip(chain, chain[1:]))
        for i in range(1, len(path) - 1):
            edges.extend((path[i], spine[j])
                         for j in (2 * i - 2, 2 * i - 1, 2 * i))

    def fail(check):
        return PlacementFailure("insert buffer paths", check)

    ints, den = _with_points(d, extra)
    try:
        g_new = build_plane_graph_from_points(ints, edges)
    except ValueError as exc:
        raise fail(f"placement is not a plane graph: {exc}") from exc
    d_new = Drawing.from_ints(g_new, ints, den)
    try:
        validate_drawing(d_new)
    except ValueError as exc:
        raise fail(f"placement fails validate_drawing: {exc}") from exc
    if not is_internally_3connected(g_new):
        raise fail("padded graph is not internally 3-connected")
    if set(convex_hull(d_new)) != hull_set.union(
            *((sp[0], sp[-1]) for sp in spines)):
        raise fail("hull is not the old hull plus the spine ends")
    ow = set(g_new.outer_walk())
    if not all(set(sp) <= ow and not any(w in ow for w in path[1:-1])
               for path, sp in zip(paths, spines)):
        raise fail("a spine is off the outer walk or a pocket vertex on it")
    return d_new, tuple(spines)


def remove_buffer_vertex(b: SequenceBuilder, vb: int) -> None:
    """Drop one buffer apex from b's strictly convex current drawing and
    restore strict convexity with at most two more moves to b. The shadowed
    path vertex returns to the hull between the apex's two midpoint
    neighbors."""
    d = b.current
    g = d.graph
    if vb not in g.rotation or g.degree(vb) != 3:
        raise PreconditionViolated(f"{vb} is not an intact buffer apex")
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

    g2 = g.remove_vertex((vb,))
    d2 = d.with_graph(g2)
    b.edit(d2, "drop buffer apex")
    if is_strictly_convex(d2):
        return

    fv = g2.face_vertices(g2.outer_face_index)
    ref = AngleRef(g2.outer_face_index, fv.index(vi))
    # the move keeping the axis on which the new corner's outer neighbors
    # straddle it absorbs the corner; if they straddle it on neither, a
    # shear first makes them straddle it in x
    if straddles(g2, d2.ints, ref, 1):
        direction = Direction.HORIZONTAL
    else:
        direction = Direction.VERTICAL
        if not straddles(g2, d2.ints, ref, 0):
            cons = ShearConstraints(make_straddle=ref)
            b.move(Direction.HORIZONTAL, _safe_shear(d2, 0, cons),
                   "expose the new corner")
    cur = b.current
    _redraw_move(b, direction,
                 _default_polygon(cur, cur.graph.outer_walk(), direction, ()),
                 (), "absorb the new corner")
    if not is_strictly_convex(b.current):
        raise PostconditionFailed(
            "absorb the new corner",
            "buffer removal did not restore strict convexity")


# -- dispatch --------------------------------------------------------------------


def convexify(d: Drawing) -> MorphSequence:
    """Full pipeline: a convexity-increasing sequence of one-axis moves
    from any planar drawing of an internally 3-connected plane graph to a
    strictly convex drawing; at most 3.5n+2 moves."""
    g = d.graph
    # a strictly convex drawing is planar and realizes its embedding, so
    # the sweep and the rotation check run only on other input
    convex = is_strictly_convex(d)
    if not convex and not drawing_is_planar(g, d.ints):
        raise NotPlanarInput("edges cross, overlap, or vertices coincide")
    if not convex and not _rotations_realized(d):
        raise NotPlanarInput("drawing does not realize its embedding")
    if not convex and _outer_area2(d) >= 0:
        raise NotPlanarInput("outer dart names a bounded face")
    if not is_internally_3connected(g):
        raise NotInternallyThreeConnected(
            "graph is not internally 3-connected")
    b = SequenceBuilder(d)
    if convex:
        return b.build()
    if is_convex_outer(d):
        convexify_convex_outer(b)
    elif three_connected(g.adjacency()):
        # every graph between g and its completed hull is a supergraph of g
        # on the same vertices, so it is 3-connected as well
        convexify_3connected(b)
    else:
        # pad each hull gap with a buffer path, and take it back out after
        d_buf, spines = augment_buffers(d)
        b.edit(d_buf, "insert buffer paths")
        convexify_3connected(b)
        for vb in sorted(w for sp in spines for w in sp[1::2]):
            remove_buffer_vertex(b, vb)
        g_final = b.current.graph.remove_vertex(
            w for sp in spines for w in sp[::2])
        d_final = b.current.with_graph(g_final)
        b.edit(d_final, "drop buffer midpoints")
        if set(g_final.edges()) != set(g.edges()):
            raise GraphNotRestored(
                "convexify", "pipeline did not restore the original graph")
        if not is_strictly_convex(d_final):
            raise PostconditionFailed(
                "convexify",
                "pipeline did not reach a strictly convex drawing")
    return b.build()

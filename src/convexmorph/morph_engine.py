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
 * pop_pocket: separate the pocket path behind one temporary hull edge
   in at most two moves, then release the edge, re-exposing the path as a
   reflex chain of the hull.
 * convexify_3connected: complete the hull with temporary edges, run the
   convex-outer phase, then pop the pockets one by one. Each released
   path goes onto the hull by the next pocket's first move, a vertical
   redraw, and the last one by one vertical redraw after the last pocket.
 * augment_buffers / remove_buffer_vertex: for inputs where a hull edge
   cannot be added directly, pad each missing hull segment with a buffer
   path first; its apex vertices come back out later, two moves each.
 * convexify: check the input, then dispatch over the cases above. A
   strictly convex input is checked by plane_graph.is_strictly_convex
   alone, one pass over its cached face walks: that certifies it planar
   and internally 3-connected (see convexify), and it needs no move. Any
   other input runs plane_graph.validate_drawing (planar, every rotation
   realized, the outer dart on the unbounded face), then the internal
   3-connectivity gate. convexify is the only input gate: each layer
   trusts that its caller established planarity and connectivity, and
   checks only what its own step needs.

convexify makes the one SequenceBuilder of a run and passes it down: every
layer reads its drawing off b.current and appends its moves and graph edits
to b, so each move passes through SequenceBuilder.move once, and convexify
builds the sequence at the end.

Every move redraws the drawing onto a strictly convex boundary polygon with
the fixed axis kept (the Tutte variant of tutte_solver), then shears along
the moving axis.  A move takes choices of pins, each a tuple of the
(vertex, side) pairs it keeps unique extremes, and runs under the first
choice that has a polygon; a move without pins passes ((),).  _redraw
builds that polygon from the drawing it redraws, on its outer walk and
from its fixed-axis coordinates, so the polygon is checked once, by its
builder, and the certificate of the snapped redraw below decides the rest.
_redraw_move is the whole move.  _straddle_shear is the one straddle rule,
the shear that ends morph_B and clears level edges before the convex-outer
phase and the pockets.  A shear that moves nothing has factor 0 and
SequenceBuilder.move drops the identity move, so only remove_buffer_vertex,
whose target is an outer-face angle, tests whether to shear.

All arithmetic is exact.  To stop denominators from compounding across
alternating solves, no redraw is emitted exactly: the moving coordinate of
each redraw is snapped to the first grid of a dyadic ladder (_grid_bits:
2^-48, 2^-64, 2^-96, ...) that keeps the step valid.  A shear factor that
is not a small rational is the coarsest dyadic in the middle third of the
first gap of safe factors (choose_safe_shear), so it needs no snap: every
factor of that gap is safe.  A redraw's snap is accepted only when the
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
from typing import Dict, Optional, Sequence, Tuple

from .connectivity import is_internally_3connected, three_connected
from .monotone_augment import augment_y_monotone
from .plane_graph import (
    AngleKind,
    AngleRef,
    Drawing,
    PlaneGraph,
    PreconditionViolated,
    _cross,
    _dot,
    _level_edge,
    angle_status_points,
    build_plane_graph_from_points,
    choose_safe_shear,
    convex_hull,
    internal_reflex_angles,
    is_convex_outer,
    is_strictly_convex,
    shear,
    straddles,
    unique_extreme,
    validate_drawing,
)
from .steps import Direction, MorphSequence, SequenceBuilder
from .tutte_solver import (
    BoundaryPolygon,
    ConstraintInfeasible,
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


# -- coordinate maintenance ----------------------------------------------------

_MAX_GRID_BITS = 1 << 16


def _grid_bits():
    """The redraw snap ladder from 48: 2^k and 3 * 2^(k-1) in turn, up to
    _MAX_GRID_BITS."""
    bits = 48
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
    grid of _grid_bits() on which solution certifies its rounding and
    whose drawing is strictly convex and keeps the pins. A strictly convex
    drawing, each face walk winding once, is planar and realizes its
    embedding (Floater 2003; see plane_graph), so a snap needs no segment
    sweep and no rotation check.

    The exact redraw is strictly convex and both conditions are open, so
    some grid is fine enough: the ladder runs out only when the exact
    redraw fails a check or needs a grid finer than 2^-_MAX_GRID_BITS, and
    then PostconditionFailed names note."""
    ma = direction.moving_axis
    for bits in _grid_bits():
        rounded = solution.rounded(bits)
        if rounded is None:
            continue
        cand = _snapped(d, ma, poly, rounded, bits)
        if _certified(cand, pins):
            return cand
    raise PostconditionFailed(
        note, f"redraw failed its postcondition on every grid to 2^-{bits}")


def _safe_shear(d: Drawing, axis: int, straddle: Optional[AngleRef] = None,
                pins: Tuple = ()) -> Drawing:
    return shear(d, axis, choose_safe_shear(d, axis, straddle, pins))


def _redraw(d: Drawing, direction: Direction, choices: Sequence[Tuple],
            note: str) -> Tuple[Drawing, Tuple]:
    """Redraw d, keeping the fixed axis of the direction, onto the strictly
    convex polygon on d's outer walk that keeps d's fixed-axis coordinates
    and makes each pinned (vertex, side) a unique extreme on the moving
    axis, for the first pins of choices that the polygon builder accepts;
    then snap by _compact. Returns the drawing, strictly convex with the
    pins kept, and the pins. Every failure of the builder is
    ConstraintInfeasible, so PocketNotSeparated names note when no choice
    has a polygon, an outer walk not monotone on the fixed axis included,
    and PostconditionFailed when RoundedSolution cannot certify the system,
    with the reason. The builders are the module globals
    convex_polygon_for_y and convex_polygon_for_x, read per call, so a
    rebound one (as perfbench/layers.py traces it) is the one used."""
    fa = direction.fixed_axis
    walk = d.graph.outer_walk()
    kept = {v: p[fa] for v, p in d.ints.items()}
    build = (convex_polygon_for_y if direction is Direction.HORIZONTAL
             else convex_polygon_for_x)
    for pins in choices:
        try:
            poly = build(walk, kept, pins, d.den)
            break
        except ConstraintInfeasible:
            continue
    else:
        raise PocketNotSeparated(note, "no polygon meets any choice of pins")
    try:
        solution = RoundedSolution(*redraw_rows(d, poly, fa))
        return _compact(d, direction, poly, solution, pins, note), pins
    except _Uncertified as exc:
        raise PostconditionFailed(note, str(exc)) from None


def _redraw_move(b: SequenceBuilder, direction: Direction,
                 choices: Sequence[Tuple], note: str) -> None:
    """One move from b.current, noted note: redraw under the first pins of
    choices that have a polygon (see _redraw), then shear along the moving
    axis keeping those pins and leaving no edge level on it."""
    cur, pins = _redraw(b.current, direction, choices, note)
    b.move(direction, _safe_shear(cur, direction.moving_axis, pins=pins),
           note)


def _straddle_shear(d: Drawing, axis: int) -> Tuple[Drawing, int]:
    """d sheared along axis so that no edge is level on it and one internal
    reflex angle, if any, straddles its apex along it (the first that does
    already, else the first), as the next move needs; and d's number of
    internal reflex angles, which a shear keeps."""
    reflex = internal_reflex_angles(d)
    straddling = [ref for ref in reflex
                  if straddles(d.graph, d.ints, ref, axis)]
    target = (straddling or reflex or [None])[0]
    return _safe_shear(d, axis, target), len(reflex)


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
    mid, _ = _redraw(d.with_graph(g_aug), direction, ((),),
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


_CORNER_TO_TOP = "pocket corner to the top"
_ONTO_HULL = "pocket path onto the hull"


def pop_pocket(b: SequenceBuilder, e: Tuple[int, int],
               corner_note: str) -> None:
    """Remove outer edge e from b's current drawing: at most two moves make
    its pocket path monotone between its corners, then an edit releases e.
    The graph without e must be internally 3-connected, and the drawing
    strictly convex, or a released one that a vertical redraw onto the hull
    (_ONTO_HULL) makes so. The first move, a vertical redraw, is noted
    corner_note.

    The redraw that puts the released path onto the hull is the caller's
    (convexify_3connected): when another pocket follows, that pocket's
    first move replaces it. A vertical redraw's output depends only on the
    graph, its outer walk, the rational x-coordinates and the pins: the
    polygon is built from those, redraw_rows normalises the heights,
    RoundedSolution answers the rounding of the exact solution, and
    _snapped returns the canonical drawing. The checks here (the outer-edge
    test, _level_edge(d, 0), _pocket_path) read only the graph and x, which
    the skipped redraw and its vertical shear keep. So the first move from
    the released drawing ends where it ended from the redrawn one, the end
    of the one vertical step SequenceBuilder.move merged the two into,
    noted "_ONTO_HULL; _CORNER_TO_TOP": the events are the same."""
    d = b.current
    g = d.graph
    u, v = min(e), max(e)
    outer = g.outer_walk()
    k = len(outer)
    if not any({outer[i], outer[(i + 1) % k]} == {u, v} for i in range(k)):
        raise PreconditionViolated(f"edge {e} is not on the outer face")
    if _level_edge(d, 0):
        raise PreconditionViolated("drawing has a vertical edge")
    g_minus = g.remove_edge(u, v)

    # one vertical move: u becomes the unique top or bottom vertex, and the
    # shear keeps it there
    _redraw_move(b, Direction.VERTICAL, (((u, "top"),), ((u, "bottom"),)),
                 corner_note)

    path = _pocket_path(g, u, v)
    if not _x_monotone(path, b.current):
        # one horizontal move: u and v become the unique leftmost and
        # rightmost vertices, so the pocket path must run monotonely
        note = "pocket corners to the sides"
        _redraw_move(b, Direction.HORIZONTAL, (((u, "left"), (v, "right")),
                                               ((u, "right"), (v, "left"))),
                     note)
        if not _x_monotone(path, b.current):
            raise PocketNotSeparated(note, "pocket path still not monotone "
                                           "after separating its corners")

    # release the edge; the caller puts the pocket path onto the hull
    b.edit(b.current.with_graph(g_minus), "release pocket edge")


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
    3-connected, and when augment_buffers padded its hull gaps.

    One vertical redraw, _ONTO_HULL, puts the last released pocket path
    onto the hull. Each earlier pocket's is the next pocket's first move:
    that move, noted "_ONTO_HULL; _CORNER_TO_TOP", redraws from the same
    graph, outer walk and x-coordinates, and so gives the one step that the
    two redraws merged into (see pop_pocket)."""
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
    note = _CORNER_TO_TOP
    for e in missing:
        pop_pocket(b, e, note)
        note = f"{_ONTO_HULL}; {_CORNER_TO_TOP}"
    _redraw_move(b, Direction.VERTICAL, ((),), _ONTO_HULL)


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


# significant bits of each buffer offset's length
_OFFSET_BITS = 3


def _dyadic_sqrt_floor(num: int, q: int) -> Tuple[int, int]:
    """(m, j) with m * 2^-j the largest number of _OFFSET_BITS significant
    bits not above sqrt(num / q), for positive ints num and q: 2^(B-1) <=
    m < 2^B. With D = bitlen(num) - bitlen(q), log2 sqrt(num / q) lies in
    ((D - 1)/2, (D + 1)/2), so j = B - ceil((D + 1)/2) puts the root times
    2^j, sqrt(n / r) below, in (2^(B - 3/2), 2^B), and one more bit of j
    lifts it to at least 2^(B-1) if it fell short. Then m is the floor of
    sqrt(n / r), which is isqrt(floor(n / r)): an integer m has m^2 <= n / r
    exactly when m^2 <= floor(n / r)."""
    top = 1 << (_OFFSET_BITS - 1)
    j = _OFFSET_BITS - (num.bit_length() - q.bit_length() + 2) // 2
    for j in (j, j + 1):
        n, r = (num << 2 * j, q) if j >= 0 else (num, q << -2 * j)
        if top * top * r <= n:
            break
    return math.isqrt(n // r), j


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
    """One pocket's buffer vertices in spine order on the integer view, as
    (J, spine): each spine entry is a pair (base, offset) of int points,
    and at shrink s the vertex is (base + s * offset) / (d.den * 2^J).
    Apexes go off each interior path vertex toward the hull segment,
    midpoints lie between consecutive apexes, and the end midpoints on the
    segment.

    Every offset is a dyadic length m * 2^-j of _OFFSET_BITS significant
    bits times an int vector W on d.ints, the vertex moving by that over
    d.den. An apex's W is v1 |v2|^2 + v2 |v1|^2 for its path edges v1, v2
    on d.ints: the bisector u1/|u1|^2 + u2/|u2|^2 of the rational drawing
    times a positive number, so the direction is the same and has no
    denominator; a straight angle takes v2's perpendicular. Each length is
    its bound rounded down (_dyadic_sqrt_floor): |offset| <= eps/4, eps the
    pocket's least distance between non-adjacent segments, and on the end
    midpoints also t_end <= 1/(2k+4) of the hull segment. Rounding down
    only shortens an offset, so it keeps every bound that the exact length
    obeys, and these bounds are all that the placement relies on. J is one
    more than the largest j, since midpoints halve, and at least 4.

    Every base next to an interior path vertex P_i is P_i itself (its apex)
    or lies on a path edge at P_i (the midpoints, and the end midpoints,
    whose bases are the path's ends), which _shrink_bits relies on. In a
    one-vertex pocket the end offsets cancel in their midpoint m, and the
    apex is m + (s/8)(P_1 - m)."""
    ip = [d.ints[v] for v in path]
    kk = len(path) - 2
    e0, e1 = ip[0], ip[-1]
    evec = (e1[0] - e0[0], e1[1] - e0[1])
    # the squared bound on each length: t_end <= 1/(2k+4), and past one
    # vertex t_end |evec| <= eps/4 and each apex's t |W| <= eps/4
    dirs, bounds = [evec], [(1, (2 * kk + 4) ** 2)]
    if kk >= 2:
        cyc = ip + [ip[0]]
        segs = [(cyc[i], cyc[i + 1]) for i in range(len(ip))]
        n_seg = len(segs)
        num, den = _min_pair(
            _seg_seg_dist_sq(*segs[i], *segs[j])
            for i in range(n_seg) for j in range(i + 2, n_seg)
            if not (i == 0 and j == n_seg - 1))
        bounds[0] = _min_pair((bounds[0], (num, 16 * den * _dot(evec, evec))))
        for i in range(1, kk + 1):
            pv = ip[i]
            v1 = (ip[i - 1][0] - pv[0], ip[i - 1][1] - pv[1])
            v2 = (ip[i + 1][0] - pv[0], ip[i + 1][1] - pv[1])
            l1, l2 = _dot(v1, v1), _dot(v2, v2)
            w = (v1[0] * l2 + v2[0] * l1, v1[1] * l2 + v2[1] * l1)
            # the outer walk passes i+1 -> i -> i-1, keeping the pocket left
            kind = angle_status_points(ip[i + 1], pv, ip[i - 1])
            if kind is AngleKind.REFLEX:
                w = (-w[0], -w[1])
            elif kind is AngleKind.STRAIGHT:
                w = (v2[1], -v2[0])
            dirs.append(w)
            bounds.append((num, 16 * den * _dot(w, w)))
    lengths = [_dyadic_sqrt_floor(*b) for b in bounds]

    scale = max(4, 1 + max(j for _, j in lengths))
    offsets = [((m << (scale - j)) * w[0], (m << (scale - j)) * w[1])
               for (m, j), w in zip(lengths, dirs)]
    scaled = [(x << scale, y << scale) for x, y in ip]
    end = offsets[0]
    first = (scaled[0], end)
    last = (scaled[-1], (-end[0], -end[1]))
    if kk == 1:
        mid = tuple((a + b) // 2 for a, b in zip(scaled[0], scaled[-1]))
        pull = tuple((p - c) // 8 for p, c in zip(scaled[1], mid))
        return scale, [first, (mid, pull), last]

    apexes = list(zip(scaled[1:-1], offsets[1:]))
    spine = [first]
    for (pa, da), (pb, db) in zip(apexes, apexes[1:]):
        spine.append((pa, da))
        spine.append((((pa[0] + pb[0]) // 2, (pa[1] + pb[1]) // 2),
                      ((da[0] + db[0]) // 2, (da[1] + db[1]) // 2)))
    spine.append(apexes[-1])
    spine.append(last)
    return scale, spine


def _shrink_bits(d: Drawing, paths, geometry) -> int:
    """The least k such that at shrink s = 2^-k every interior pocket
    vertex P_i sees its fan P_{i+1}, S_{2i}, S_{2i-1}, S_{2i-2}, P_{i-1}
    turn clockwise at each consecutive pair, S being the pocket's spine
    placed by geometry (per path, _buffer_geometry's (J, spine)).

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
    PlacementFailure when it is not above lo.

    The spine's bases and dyadic offsets are ints over d.den * 2^J, so
    each pocket's products are taken on ints, its path scaled by the same
    2^J. One positive scale multiplies a and b alike, so each bound -a/b
    is the rational drawing's; it is kept as a pair (numerator, positive
    denominator) of ints."""
    lo, hi = (0, 1), None
    for path, (scale, geo) in zip(paths, geometry):
        pts = [(x << scale, y << scale) for x, y in (d.ints[v] for v in path)]
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
                    if hi is None or -a * hi[1] < hi[0] * b:
                        hi = (-a, b)
                elif b < 0:
                    if a * lo[1] > lo[0] * -b:
                        lo = (a, -b)
                elif a >= 0:
                    hi = (0, 1)
    feasible = hi is None or hi[0] * lo[1] > lo[0] * hi[1]
    k = (hi[1] // hi[0]).bit_length() if feasible and hi is not None else 0
    if not feasible or lo[0] << k >= lo[1]:
        raise PlacementFailure(
            "insert buffer paths",
            "no shrink 2^-k turns every pocket fan clockwise")
    return k


def augment_buffers(d: Drawing
                    ) -> Tuple[Drawing, Tuple[Tuple[int, ...], ...]]:
    """Shadow each missing hull segment's pocket path with a buffer path
    plus spokes, so that the segment between the two new on-hull midpoints
    can be added, and later removed again, without ever touching internal
    3-connectivity. Every offset is scaled by one shrink 2^-k, the largest
    at which each pocket vertex's spokes fan out between its path edges
    (_shrink_bits); the placement is then built and checked once, and a
    check that fails raises PlacementFailure naming it.

    Every buffer offset is a length of a few significant bits times an int
    vector over d.den (_buffer_geometry). Each length is rounded down from
    its bound, so every bound the placement needs still holds. The padded
    drawing is then d's integer view times 2^(J + k) plus the buffer
    points, J the largest of the pockets' scales, so its den is d.den
    times a power of two, and the offsets add only their own few bits.

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
    k = _shrink_bits(d, paths, geometry)
    top = max(scale for scale, _ in geometry)
    ints = {v: (x << (top + k), y << (top + k))
            for v, (x, y) in d.ints.items()}
    next_id = max(g.rotation) + 1
    spines = []
    edges = list(g.edges())
    for path, (scale, geo) in zip(paths, geometry):
        spine = tuple(range(next_id, next_id + len(geo)))
        next_id += len(geo)
        spines.append(spine)
        up = top - scale
        ints.update((v, (((b[0] << k) + q[0]) << up,
                         ((b[1] << k) + q[1]) << up))
                    for v, (b, q) in zip(spine, geo))
        chain = (path[0],) + spine + (path[-1],)
        edges.extend(zip(chain, chain[1:]))
        for i in range(1, len(path) - 1):
            edges.extend((path[i], spine[j])
                         for j in (2 * i - 2, 2 * i - 1, 2 * i))

    def fail(check):
        return PlacementFailure("insert buffer paths", check)

    try:
        g_new = build_plane_graph_from_points(ints, edges)
    except ValueError as exc:
        raise fail(f"placement is not a plane graph: {exc}") from exc
    d_new = Drawing.from_ints(g_new, ints, d.den << (top + k))
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
            b.move(Direction.HORIZONTAL, _safe_shear(d2, 0, ref),
                   "expose the new corner")
    _redraw_move(b, direction, ((),), "absorb the new corner")


# -- dispatch --------------------------------------------------------------------


def convexify(d: Drawing) -> MorphSequence:
    """Full pipeline: a convexity-increasing sequence of one-axis moves
    from any planar drawing of an internally 3-connected plane graph to a
    strictly convex drawing; at most 3.5n+2 moves.

    A strictly convex drawing is planar, realizes its embedding and has a
    clockwise outer walk (plane_graph), so it skips validate_drawing. Its
    graph is also internally 3-connected, the "only if" half of the
    characterization of convex drawings (Thomassen 1980; Chiba, Yamanouchi
    & Nishizeki 1984), so it skips the connectivity gate too and returns
    with no move. Clause by clause against
    connectivity.is_internally_3connected, on a drawing every walk of
    which is strictly convex and winds once:

     * a walk that turns strictly one way and winds once bounds a
       strictly convex polygon, whose corners are distinct points; so the
       outer walk repeats no vertex, and it has at least 3, since a walk
       of two darts u->v->u folds back at both corners;
     * an inner vertex v of degree 1 is a spike a->v->a of an inner face,
       a corner that crosses to 0; one of degree 2, with neighbours a and
       b, has the corners a->v->b and b->v->a, both on inner faces, whose
       cross products are negatives of each other, so one is not a strict
       left turn;
     * an inner walk repeats no vertex, by the first clause;
     * a diagonal uv of an inner face f (u, v not consecutive on its walk)
       runs through f's open interior, as any chord of a strictly convex
       polygon does. The drawing is planar and its faces are the regions
       of their walks, so no edge runs through f: uv is not an edge. And
       the open interiors of two faces are disjoint, so no second face
       holds uv as a diagonal.

    So NotInternallyThreeConnected is raised only on input that is not
    strictly convex, after validate_drawing."""
    g = d.graph
    b = SequenceBuilder(d)
    if is_strictly_convex(d):
        return b.build()
    validate_drawing(d)
    if not is_internally_3connected(g):
        raise NotInternallyThreeConnected(
            "graph is not internally 3-connected")
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

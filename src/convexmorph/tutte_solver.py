"""Generalized Tutte machinery: barycentric weights chosen from y-coordinates,
exact sparse solving of the resulting linear systems, and construction of
strictly convex boundary polygons compatible with fixed y (or fixed x).

The exact solver works on Python integers. Each equation is scaled once by
the lcm of its denominators; sparse fraction-free elimination (in the manner
of Bareiss 1968) with Markowitz pivoting then keeps every row primitive by
dividing out its gcd, and back-substitution forms one rational per unknown.
Its solution is the unique exact one, so it equals what elimination over
rationals gives, at a fraction of the cost of a gcd per entry update.

The horizontal direction is primary; vertical variants transpose coordinates,
run the horizontal code, and transpose back. A redraw that keeps y solves
only for x, since weights taken from y reproduce y exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .plane_graph import (
    Drawing,
    PlaneGraph,
    PreconditionViolated,
    integer_points,
    orientation,
    rat,
    sign_of,
    unique_extreme,
)


class NoNeighborAbove(ValueError):
    """Internal vertex has no neighbor strictly above it."""


class NoNeighborBelow(ValueError):
    """Internal vertex has no neighbor strictly below it."""


class SingularSystem(ArithmeticError):
    """Tutte system unsolvable; indicates an invariant violation upstream."""


class NotYMonotoneCycle(ValueError):
    """Cycle has no unique top/bottom or a non-monotone chain."""


class ConstraintInfeasible(ValueError):
    """No polygon satisfies the requested pin constraints."""


class WrongChain(ValueError):
    """Pinned vertex sits on the chain that cannot contain that extreme."""


@dataclass(frozen=True)
class WeightAssignment:
    """Positive weights per directed edge (u, v) with internal u, unit row sums."""

    weights: Dict[Tuple[int, int], object]

    def __post_init__(self):
        rows = {}
        for (u, v), w in self.weights.items():
            if sign_of(w) <= 0:
                raise ValueError(f"weight for ({u},{v}) not positive")
            rows.setdefault(u, []).append(w)
        for u, ws in rows.items():
            if sign_of(sum(ws) - 1) != 0:
                raise ValueError(f"weights of {u} do not sum to 1")

    def row(self, u: int) -> Dict[int, object]:
        return {v: w for (x, v), w in self.weights.items() if x == u}

    def internal_vertices(self):
        return {u for (u, _) in self.weights}

    def consistent_with_y(self, y: Dict[int, object]) -> bool:
        """Check that the weighted neighbor average reproduces y exactly."""
        acc = {}
        for (u, v), w in self.weights.items():
            acc[u] = acc.get(u, 0) + w * y[v]
        return all(sign_of(acc[u] - y[u]) == 0 for u in acc)


@dataclass(frozen=True)
class BoundaryPolygon:
    """Outer-face vertices in walk order (clockwise) with fixed coordinates."""

    cycle: Tuple[int, ...]
    coords: Dict[int, Tuple]

    def validate(self):
        k = len(self.cycle)
        if k < 3:
            raise ValueError("polygon needs at least 3 vertices")
        ints = integer_points(self.coords)
        pts = [ints[v] for v in self.cycle]
        minima = 0
        for i in range(k):
            p, c, n = pts[(i - 1) % k], pts[i], pts[(i + 1) % k]
            if orientation(p, c, n) != -1:
                raise ValueError(f"not strictly convex at {self.cycle[i]}")
            key_p = (p[1], p[0])
            key_c = (c[1], c[0])
            key_n = (n[1], n[0])
            if key_c < key_p and key_c < key_n:
                minima += 1
        # a locally convex closed walk winds once iff it has one lowest corner
        if minima != 1:
            raise ValueError("walk winds more than once")

    def matches_outer_walk(self, g: PlaneGraph) -> bool:
        walk = g.outer_walk()
        k = len(walk)
        if k != len(self.cycle) or set(walk) != set(self.cycle):
            return False
        shift = walk.index(self.cycle[0])
        return all(self.cycle[i] == walk[(shift + i) % k] for i in range(k))


def weights_from_y(g: PlaneGraph, y: Dict[int, object]) -> WeightAssignment:
    """Height-derived weights: t_u interpolates y_u between the averages of
    the neighbors strictly above and strictly below, then each side splits
    its share uniformly.  The resulting weighted neighbor average of y is
    exactly y_u again, so a redraw keeps every height."""
    outer = set(g.outer_walk())
    weights = {}
    for u in g.rotation:
        if u in outer:
            continue
        up = [v for v in g.rotation[u] if sign_of(y[v] - y[u]) > 0]
        down = [v for v in g.rotation[u] if sign_of(y[v] - y[u]) < 0]
        if len(up) + len(down) != g.degree(u):
            raise PreconditionViolated(f"horizontal edge at {u}")
        if not up:
            raise NoNeighborAbove(f"vertex {u}")
        if not down:
            raise NoNeighborBelow(f"vertex {u}")
        y_plus = sum(y[v] for v in up) / len(up)
        y_minus = sum(y[v] for v in down) / len(down)
        t = (y[u] - y_minus) / (y_plus - y_minus)
        for v in up:
            weights[(u, v)] = t / len(up)
        for v in down:
            weights[(u, v)] = (1 - t) / len(down)
    return WeightAssignment(weights)


# -- sparse exact linear solving --------------------------------------------


def solve_rows(rows: Dict[int, Dict[int, object]],
               rhs: Dict[int, List]) -> Dict[int, List]:
    """Solve a square sparse system for several right-hand sides at once.

    rows maps equation id to {variable id: coefficient}; rhs maps equation id
    to a list of right-hand-side values, one per column. Returns {variable
    id: list of values}.

    Coefficients and right-hand sides are ints or rationals (Fraction,
    mpq). The solver scales each equation once to integers and eliminates
    fraction-free: choosing a Markowitz pivot (smallest fill-in estimate,
    ties to the smallest equation and variable id), it updates every
    remaining row holding the pivot variable as r <- piv*r - f*r_pivot and
    divides the row and its right-hand sides by their common gcd.
    Back-substitution then builds one exact rational per unknown and column.
    """
    if not rows:
        return {}
    eqs: Dict[int, Dict[int, int]] = {}
    b: Dict[int, List[int]] = {}
    for e, r in rows.items():
        terms = [(v, _ratio(c)) for v, c in r.items()]
        rb = [_ratio(x) for x in rhs[e]]
        scale = math.lcm(*(q for _, (_, q) in terms), *(q for _, q in rb))
        eqs[e] = {v: p * (scale // q) for v, (p, q) in terms if p}
        b[e] = [p * (scale // q) for p, q in rb]
    col_index: Dict[int, set] = {}
    for e, r in eqs.items():
        for v in r:
            col_index.setdefault(v, set()).add(e)
    if len(col_index) != len(eqs):
        raise SingularSystem("system is not square")
    pivots = []
    remaining = set(eqs)
    while remaining:
        # Markowitz: cheapest fill-in estimate, deterministic tie-break
        best = None
        for e in remaining:
            re = eqs[e]
            if not re:
                raise SingularSystem("zero row: no usable pivot")
            rlen = len(re)
            for v in re:
                key = ((rlen - 1) * (len(col_index[v]) - 1), e, v)
                if best is None or key < best:
                    best = key
        _, pe, pv = best
        remaining.discard(pe)
        pivots.append((pe, pv))
        prow = eqs[pe]
        pb = b[pe]
        piv = prow[pv]
        for v in prow:
            col_index[v].discard(pe)
        for e in col_index.pop(pv):
            r = eqs[e]
            f = r.pop(pv)
            for v in r:
                r[v] *= piv
            for v, c in prow.items():
                if v == pv:
                    continue
                nc = r.get(v, 0) - f * c
                if nc:
                    if v not in r:
                        col_index[v].add(e)
                    r[v] = nc
                elif v in r:
                    del r[v]
                    col_index[v].discard(e)
            b[e] = [piv * x - f * y for x, y in zip(b[e], pb)]
            g = math.gcd(*r.values(), *b[e])
            if g > 1:
                for v in r:
                    r[v] //= g
                b[e] = [x // g for x in b[e]]
    # back-substitution over integers: each known value is num/den with one
    # den per unknown, so one pivot row needs one lcm and one reduction
    nums: Dict[int, List[int]] = {}
    dens: Dict[int, int] = {}
    values: Dict[int, List] = {}
    for pe, pv in reversed(pivots):
        prow = eqs[pe]
        others = [v for v in prow if v != pv]
        den = math.lcm(*(dens[v] for v in others))
        acc = [x * den for x in b[pe]]
        for v in others:
            c = prow[v] * (den // dens[v])
            acc = [a - c * x for a, x in zip(acc, nums[v])]
        den *= prow[pv]
        if den < 0:
            den = -den
            acc = [-a for a in acc]
        g = math.gcd(den, *acc)
        nums[pv] = [a // g for a in acc]
        dens[pv] = den // g
        values[pv] = [rat(a, dens[pv]) for a in nums[pv]]
    return values


def _ratio(c) -> Tuple[int, int]:
    """Numerator and denominator of an int or rational as Python ints."""
    return int(c.numerator), int(c.denominator)


def tutte_rows(g: PlaneGraph, weights: WeightAssignment,
               boundary_coords: Dict[int, Tuple]):
    """Rows and right-hand sides of the pinned barycentric system (x and y)."""
    internal = weights.internal_vertices()
    rows = {}
    rhs = {}
    for u in internal:
        row = {u: rat(1)}
        bx = 0
        by = 0
        for v in g.rotation[u]:
            w = weights.weights[(u, v)]
            if v in internal:
                row[v] = row.get(v, 0) - w
            else:
                bx = bx + w * boundary_coords[v][0]
                by = by + w * boundary_coords[v][1]
        rows[u] = row
        rhs[u] = [bx, by]
    return rows, rhs


def tutte_rows_from_y(g: PlaneGraph, y: Dict[int, object],
                      boundary_x: Dict[int, object]):
    """Integer rows of the pinned system with weights_from_y's weights, and
    their x right-hand sides; boundary_x maps each boundary vertex to its x.

    On the integer view Y of y, let an internal vertex u have U neighbors
    above, with heights summing to Su, and D below, summing to Sd, and let
    delta = D*Su - U*Sd > 0. Its row

        delta*x_u - sum_up (D*Y_u - Sd)*x_v - sum_down (Su - U*Y_u)*x_v

    is weights_from_y's row times delta, so the system has the same
    solution, and solve_rows pivots in the same order on it."""
    yden = math.lcm(*(c.denominator for c in y.values()))
    ys = {v: c.numerator * (yden // c.denominator) for v, c in y.items()}
    bden = math.lcm(*(c.denominator for c in boundary_x.values()))
    bx = {v: c.numerator * (bden // c.denominator)
          for v, c in boundary_x.items()}
    rows = {}
    rhs = {}
    for u, nbrs in g.rotation.items():
        if u in bx:
            continue
        yu = ys[u]
        up = [v for v in nbrs if ys[v] > yu]
        down = [v for v in nbrs if ys[v] < yu]
        if len(up) + len(down) != len(nbrs):
            raise PreconditionViolated(f"horizontal edge at {u}")
        if not up:
            raise NoNeighborAbove(f"vertex {u}")
        if not down:
            raise NoNeighborBelow(f"vertex {u}")
        s_up = sum(ys[v] for v in up)
        s_down = sum(ys[v] for v in down)
        w_up = len(down) * yu - s_down
        w_down = s_up - len(up) * yu
        row = {u: len(down) * s_up - len(up) * s_down}
        b = 0
        for vs, w in ((up, w_up), (down, w_down)):
            for v in vs:
                if v in bx:
                    b += w * bx[v]
                else:
                    row[v] = -w
        rows[u] = row
        rhs[u] = [rat(b, bden)]
    return rows, rhs


def _check_pinned_system(g: PlaneGraph, boundary: BoundaryPolygon,
                         internal):
    """Raise ValueError unless boundary is a strictly convex polygon on the
    outer walk of g and internal holds exactly the other vertices."""
    boundary.validate()
    if not boundary.matches_outer_walk(g):
        raise ValueError("boundary cycle does not match the outer walk")
    expected = set(g.rotation) - set(boundary.cycle)
    if internal != expected:
        raise ValueError("weights do not cover exactly the internal vertices")


def solve_tutte(g: PlaneGraph, boundary: BoundaryPolygon,
                weights: WeightAssignment) -> Drawing:
    """Solve the pinned barycentric system for both coordinates."""
    _check_pinned_system(g, boundary, weights.internal_vertices())
    rows, rhs = tutte_rows(g, weights, boundary.coords)
    sol = solve_rows(rows, rhs)
    coords = dict(boundary.coords)
    for u, vals in sol.items():
        coords[u] = (vals[0], vals[1])
    return Drawing(g, coords)


def redraw_preserving_y(d: Drawing, boundary: BoundaryPolygon) -> Drawing:
    """Redraw onto a new boundary polygon without changing any y coordinate.

    The weights come from y (tutte_rows_from_y), so the y system would
    reproduce y exactly; only x is solved, and every y is kept bit for
    bit."""
    y = {v: p[1] for v, p in d.coords.items()}
    for v in boundary.cycle:
        if boundary.coords[v][1] != y[v]:
            raise PreconditionViolated(f"boundary changes y of {v}")
    rows, rhs = tutte_rows_from_y(
        d.graph, y, {v: p[0] for v, p in boundary.coords.items()})
    _check_pinned_system(d.graph, boundary, set(rows))
    sol = solve_rows(rows, rhs)
    coords = {v: (p[0], y[v]) for v, p in boundary.coords.items()}
    for u, (x,) in sol.items():
        coords[u] = (x, y[u])
    return Drawing(d.graph, coords)


def redraw_preserving_x(d: Drawing, boundary: BoundaryPolygon) -> Drawing:
    """Vertical variant of redraw_preserving_y via coordinate transposition."""
    td = d.transposed()
    tb = BoundaryPolygon(tuple(reversed(boundary.cycle)),
                         {v: (p[1], p[0]) for v, p in boundary.coords.items()})
    out = redraw_preserving_y(td, tb)
    return out.transposed()


# -- boundary polygon construction -------------------------------------------


@dataclass(frozen=True)
class PolygonOptions:
    """pins lists (vertex, 'left'|'right') uniqueness constraints, at most
    one per side."""
    pins: Tuple = ()


def _split_chains(cycle: Sequence[int], y: Dict[int, object]):
    """Split a clockwise outer cycle at its unique bottom and top vertex.

    Returns (left, right), both ordered bottom to top; the clockwise walk
    ascends the left chain first."""
    k = len(cycle)
    bot = min(range(k), key=lambda i: (y[cycle[i]], i))
    top = max(range(k), key=lambda i: (y[cycle[i]], -i))
    for i in range(k):
        if i != bot and sign_of(y[cycle[i]] - y[cycle[bot]]) == 0:
            raise NotYMonotoneCycle("bottom vertex not unique")
        if i != top and sign_of(y[cycle[i]] - y[cycle[top]]) == 0:
            raise NotYMonotoneCycle("top vertex not unique")
    left = [cycle[(bot + i) % k] for i in range(((top - bot) % k) + 1)]
    right = [cycle[(top + i) % k] for i in range(((bot - top) % k) + 1)]
    right.reverse()
    for chain in (left, right):
        for a, b in zip(chain, chain[1:]):
            if sign_of(y[b] - y[a]) <= 0:
                raise NotYMonotoneCycle("chain not strictly increasing")
    return left, right


def _chain_slopes(incr: List, flip: Optional[int], target, eta, rising: bool):
    """Slopes for one chain: strictly monotone, optional sign pattern, and
    weighted sum exactly equal to target.

    incr: positive y-increments. flip: edges 1..flip get the 'before' sign.
    rising=True builds an increasing sequence (left chain), else decreasing.
    Returns None when the knob adjustment would break the sign pattern."""
    p = len(incr)
    sgn = 1 if rising else -1
    if p == 1:
        s = [target / incr[0]]
    else:
        center = rat(flip) if flip is not None else rat(p, 2)
        s = [sgn * eta * (rat(i) - center - rat(1, 2)) for i in range(1, p + 1)]
        delta = target - sum(si * ai for si, ai in zip(s, incr))
        if sign_of(delta) > 0:
            hi = p - 1 if rising else 0
            s[hi] = s[hi] + delta / incr[hi]
        elif sign_of(delta) < 0:
            lo = 0 if rising else p - 1
            s[lo] = s[lo] + delta / incr[lo]
    seq = s if rising else [-v for v in s]
    if any(sign_of(b - a) <= 0 for a, b in zip(seq, seq[1:])):
        return None
    if flip is not None:
        before = -1 if rising else 1
        for i, v in enumerate(s, start=1):
            want = before if i <= flip else -before
            if sign_of(v) != want:
                return None
    return s


def convex_polygon_for_y(cycle: Sequence[int], y: Dict[int, object],
                         options: Optional[PolygonOptions] = None
                         ) -> BoundaryPolygon:
    """Strictly convex polygon on the given clockwise cycle preserving y.

    Default shape is the parabola pair x = -+ (y - ymin)(ymax - y)/(ymax -
    ymin). Dividing by the span keeps every x within a quarter of the span
    of y; without it x is of the order of the span squared, and since
    horizontal and vertical redraws alternate, each transposed call would
    square the magnitude again. Pins make a vertex the unique leftmost or
    rightmost; a pinned vertex must lie on the matching chain (or be the
    bottom/top vertex)."""
    options = options or PolygonOptions()
    left, right = _split_chains(cycle, y)
    bot, top = left[0], left[-1]

    if not options.pins:
        y0, yT = y[bot], y[top]
        span = yT - y0
        coords = {}
        for v in left:
            coords[v] = (-(y[v] - y0) * (yT - y[v]) / span, y[v])
        for v in right[1:-1]:
            coords[v] = ((y[v] - y0) * (yT - y[v]) / span, y[v])
        poly = BoundaryPolygon(tuple(cycle), coords)
        poly.validate()
        return poly

    flips = {}
    for v, side in options.pins:
        if side not in ("left", "right"):
            raise ValueError(f"pin side {side!r}")
        if side in flips:
            raise ConstraintInfeasible("two pins on the same side")
        if v == bot:
            flips[side] = 0
        elif v == top:
            flips[side] = len(left) - 1 if side == "left" else len(right) - 1
        elif side == "left":
            if v not in left:
                raise WrongChain(f"{v} is not on the left chain")
            flips[side] = left.index(v)
        else:
            if v not in right:
                raise WrongChain(f"{v} is not on the right chain")
            flips[side] = right.index(v)
    if len(options.pins) == 2 and options.pins[0][0] == options.pins[1][0]:
        raise ConstraintInfeasible("same vertex pinned to both sides")

    p, q = len(left) - 1, len(right) - 1
    a = [y[left[i]] - y[left[i - 1]] for i in range(1, p + 1)]
    h = [y[right[j]] - y[right[j - 1]] for j in range(1, q + 1)]

    def interval(flip, edges, left_side):
        if flip is None:
            return None
        if flip == 0:
            return 1 if left_side else -1   # all slopes point away from bottom
        if flip == edges:
            return -1 if left_side else 1
        return None

    want = {s for s in (interval(flips.get("left"), p, True),
                        interval(flips.get("right"), q, False)) if s}
    if len(want) > 1:
        raise ConstraintInfeasible("pins force contradictory widths")
    target = rat(next(iter(want), 0))

    for attempt in range(60):
        eta = rat(1, 4 ** attempt)
        s = _chain_slopes(a, flips.get("left"), target, eta, rising=True)
        t = _chain_slopes(h, flips.get("right"), target, eta, rising=False)
        if s is None or t is None:
            continue
        if p > 1 or q > 1:
            if sign_of(t[0] - s[0]) <= 0 or sign_of(s[-1] - t[-1]) <= 0:
                continue
        coords = {bot: (rat(0), y[bot])}
        acc = rat(0)
        for i, v in enumerate(left[1:], start=1):
            acc = acc + s[i - 1] * a[i - 1]
            coords[v] = (acc, y[v])
        acc = rat(0)
        for j, v in enumerate(right[1:-1], start=1):
            acc = acc + t[j - 1] * h[j - 1]
            coords[v] = (acc, y[v])
        poly = BoundaryPolygon(tuple(cycle), coords)
        try:
            poly.validate()
        except ValueError:
            continue
        if all(unique_extreme(coords, v, side) for v, side in options.pins):
            return poly
    raise ConstraintInfeasible("no polygon found for the requested pins")


def convex_polygon_for_x(cycle: Sequence[int], x: Dict[int, object],
                         extreme_vertex: int, side: str) -> BoundaryPolygon:
    """Strictly convex polygon preserving x, making one vertex the unique
    topmost or bottommost. Transposed call into convex_polygon_for_y."""
    if side not in ("top", "bottom"):
        raise ValueError(f"side {side!r}")
    pin = (extreme_vertex, "right" if side == "top" else "left")
    tcycle = tuple(reversed(cycle))
    poly = convex_polygon_for_y(tcycle, x, PolygonOptions(pins=(pin,)))
    coords = {v: (p[1], p[0]) for v, p in poly.coords.items()}
    out = BoundaryPolygon(tuple(cycle), coords)
    out.validate()
    return out

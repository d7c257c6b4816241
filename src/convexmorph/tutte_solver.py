"""Generalized Tutte machinery: barycentric weights chosen from y-coordinates,
exact sparse solving of the resulting linear systems, and construction of
strictly convex boundary polygons compatible with fixed y (or fixed x).

The exact solver works on Python integers. Each equation is scaled once by
the lcm of its denominators; sparse fraction-free elimination (in the manner
of Bareiss 1968) with Markowitz pivoting then keeps every row primitive by
dividing out its gcd, and back-substitution forms one rational per unknown.
Its solution is the unique exact one, so it equals what elimination over
rationals gives, at a fraction of the cost of a gcd per entry update.

A redraw needs its solution only rounded to a dyadic grid (the engine
emits no redraw exactly), so RoundedSolution answers those roundings and
nothing else, without the exact solution: iterative refinement with a
float LU against exact integer residuals, and a bound that an exact
M-matrix certificate proves. An answer the bound cannot settle is not
given, so every answer equals the rounding of the exact solution.

A redraw keeps one axis and solves only for the other, since weights
taken from the kept coordinates reproduce them exactly. The code speaks of
keeping y and solving for x; redraw_rows builds the system for either
fixed axis on the drawing as it is, and the engine reads the solution
through RoundedSolution, so no function here returns a whole redrawn
drawing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .plane_graph import (
    Drawing,
    PlaneGraph,
    PreconditionViolated,
    _ratio,
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


class BoundaryPolygon:
    """Outer-face vertices in walk order (clockwise) with fixed coordinates,
    stored like a Drawing's: the point of v is ints[v] / den (a pair of ints
    per vertex, den > 0, not necessarily reduced); coords builds Fractions
    when asked."""

    __slots__ = ("cycle", "ints", "den")

    def __init__(self, cycle: Sequence[int],
                 ints: Dict[int, Tuple[int, int]], den: int):
        self.cycle, self.ints, self.den = tuple(cycle), ints, den

    @property
    def coords(self) -> Dict[int, Tuple[Fraction, Fraction]]:
        den = self.den
        return {v: (Fraction(x, den), Fraction(y, den))
                for v, (x, y) in self.ints.items()}

    def validate(self):
        k = len(self.cycle)
        if k < 3:
            raise ValueError("polygon needs at least 3 vertices")
        pts = [self.ints[v] for v in self.cycle]
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

    Coefficients and right-hand sides are ints or Fractions. The solver
    scales each equation once to integers and eliminates fraction-free:
    choosing a Markowitz pivot (smallest fill-in estimate, ties to the
    smallest equation and variable id), it updates every remaining row
    holding the pivot variable as r <- piv*r - f*r_pivot and divides the
    row and its right-hand sides by their common gcd.
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


# -- certified rounding ------------------------------------------------------

_GUARD_BITS = 16    # scale bits kept below the precision a query asks for


class _Uncertified(Exception):
    """The certified solve cannot answer; the reason names why."""


def _float_lu(rows: Dict[int, Dict[int, float]]):
    """Sparse LU of a float matrix with diagonal pivots in a min-fill order
    (smallest Markowitz product, ties to the smallest id). Returns the
    eliminations as (pivot, pivot row, [(row, multiplier)])."""
    rows = {e: dict(r) for e, r in rows.items()}
    col_index: Dict[int, set] = {v: set() for v in rows}
    for e, r in rows.items():
        for v in r:
            col_index[v].add(e)
    steps = []
    remaining = set(rows)
    while remaining:
        p = min(remaining, key=lambda e: (
            (len(rows[e]) - 1) * (len(col_index[e]) - 1), e))
        remaining.discard(p)
        prow = rows[p]
        piv = prow[p]
        for v in prow:
            col_index[v].discard(p)
        mults = []
        for e in col_index.pop(p):
            r = rows[e]
            f = r.pop(p) / piv
            mults.append((e, f))
            for v, c in prow.items():
                if v != p:
                    if v not in r:
                        r[v] = 0.0
                        col_index[v].add(e)
                    r[v] -= f * c
        steps.append((p, prow, mults))
    return steps


def _lu_solve(steps, rhs: Dict[int, float]) -> Dict[int, float]:
    x = dict(rhs)
    for p, _, mults in steps:
        xp = x[p]
        for e, f in mults:
            x[e] -= f * xp
    for p, prow, _ in reversed(steps):
        s = x[p]
        for v, c in prow.items():
            if v != p:
                s -= c * x[v]
        x[p] = s / prow[p]
    return x


class RoundedSolution:
    """The solution x of a square system rows * x = rhs / den (integer rows
    and right-hand sides over one positive int den, as tutte_rows_from_y
    builds them), answered only as the rounding to the dyadic grid each
    query asks for, not exactly.

    Row e reads A_e x = B_e / d_e with B_e / d_e in lowest terms: a common
    factor would change neither the bound t below nor any refinement step,
    only lengthen every residual. When every diagonal entry is positive and
    every other entry negative, and an integer V > 0 has A V > 0 (V is the
    float solve of D^-1 A v = 1, rounded up), A is a nonsingular M-matrix,
    so A^-1 >= 0 and for every approximation X of x * 2^k

        |x_u 2^k - X_u| <= t / m * V_u,  t = max_e |R_e| / (d_e A_ee),
                                         m = min_e (A V)_e / A_ee,

    where R = B 2^k - d A X is the exact integer residual. X is improved by
    iterative refinement against R (Wilkinson 1963; Moler 1967): one
    float LU of D^-1 A with diagonal pivots (a nonsingular M-matrix needs
    no numerical pivoting), then X += round(LU^-1 (D^-1 R / d)). Every
    certificate and bound is checked in integers, so a floating-point
    mistake cannot give a wrong answer.

    An empty system answers {}. When the certificate fails, a float is not
    finite or refinement stalls, _Uncertified names the reason."""

    def __init__(self, rows: Dict[int, Dict[int, int]],
                 rhs: Dict[int, int], den: int):
        a, b, d = rows, {}, {}
        for e, r in a.items():
            g = math.gcd(rhs[e], den)
            b[e], d[e] = rhs[e] // g, den // g
            if (r.get(e, 0) <= 0 or not r.keys() <= a.keys()
                    or any(c >= 0 for v, c in r.items() if v != e)):
                raise _Uncertified("not an M-matrix sign pattern")
        self._a, self._b, self._d = a, b, d
        self._k = 0
        self._x = dict.fromkeys(a, 0)
        if not a:
            return
        try:
            self._lu = _float_lu({e: {v: c / r[e] for v, c in r.items()}
                                  for e, r in a.items()})
            vf = _lu_solve(self._lu, dict.fromkeys(a, 1.0))
            if not all(0 < x < math.inf for x in vf.values()):
                raise _Uncertified("no positive vector")
            shift = 52 - math.frexp(max(vf.values()))[1]
            vv = {e: math.ceil(math.ldexp(x, shift)) for e, x in vf.items()}
        except (ArithmeticError, ValueError):
            raise _Uncertified("float overflow") from None
        av = {e: sum(c * vv[u] for u, c in r.items()) for e, r in a.items()}
        if min(av.values()) <= 0:
            raise _Uncertified("A V > 0 fails")
        self._v = vv
        # m = min_e (A V)_e / A_ee, picked by cross-multiplication
        lo = None
        for e in a:
            if lo is None or av[e] * a[lo][lo] < av[lo] * a[e][e]:
                lo = e
        self._m = Fraction(av[lo], a[lo][lo])
        # bits of t / m * max V when t is about 1, as after convergence
        self._lead = (max(vv.values()) // self._m).bit_length() + 2

    def _refine(self, k: int):
        """Move X up to scale 2^k and refine it until the scaled residual t
        is below 4; sets _err = t / m, the bound on |x 2^k - X| per unit V."""
        a, b, d = self._a, self._b, self._d
        self._x = x = {u: xu << (k - self._k) for u, xu in self._x.items()}
        self._k = k
        t = None
        while True:
            res = {e: (b[e] << k) - d[e] * sum(c * x[v] for v, c in r.items())
                   for e, r in a.items()}
            # t = max_e |R_e| / (d_e A_ee), as a pair picked by
            # cross-multiplication
            tn, td = 0, 1
            for e in a:
                rn, rd = abs(res[e]), d[e] * a[e][e]
                if rn * td > tn * rd:
                    tn, td = rn, rd
            if tn < 4 * td:
                break
            # a working refinement gains far more than 8 bits a step
            if t is not None and tn * 256 * t[1] > t[0] * td:
                raise _Uncertified("refinement stalled")
            t = (tn, td)
            # each correction is at most t / m * V_u < t * 2^lead; the float
            # solve takes the residual over 2^sh, so none overflows
            sh = max(0, (tn // td).bit_length() + self._lead - 960)
            try:
                corr = _lu_solve(self._lu, {
                    e: res[e] / ((d[e] * a[e][e]) << sh) for e in a})
                for u, c in corr.items():
                    x[u] += round(c) << sh
            except (ArithmeticError, ValueError):
                raise _Uncertified("float overflow") from None
        self._err = Fraction(tn, td) / self._m

    def rounded(self, bits: int) -> Optional[Dict[int, int]]:
        """round(x_u * 2^bits) for every u (Python's round: half to even),
        refined at scale 2^(bits + lead + guard) if not finer already; None
        when the bound there cannot keep every rounding off its tie. A tie
        of one grid is a point of the next, far from that grid's ties, so
        the next grid of a ladder answers."""
        if not self._x:
            return {}
        if bits + self._lead + _GUARD_BITS > self._k:
            self._refine(bits + self._lead + _GUARD_BITS)
        sh = self._k - bits
        half = 1 << (sh - 1)
        p, q = self._err.numerator, self._err.denominator
        out = {}
        for u, xu in self._x.items():
            j = (xu + half) >> sh
            dist = min(xu - (j << sh) + half, (j << sh) + half - xu)
            if not p * self._v[u] < dist * q:
                return None
            out[u] = j
        return out


def tutte_rows_from_y(g: PlaneGraph, ys: Dict[int, int],
                      bx: Dict[int, int]):
    """Integer rows of the pinned system with weights_from_y's weights, and
    their x right-hand sides, as ints over the scale of bx. ys holds every
    height times one positive scale, as ints; bx maps each boundary vertex
    to its x times one positive scale, bden, and the solution of the rows
    with these right-hand sides is every internal x times bden.

    Let an internal vertex u have U neighbors above, with heights Y summing
    to Su, and D below, summing to Sd, and let delta = D*Su - U*Sd > 0. Its
    row

        delta*x_u - sum_up (D*Y_u - Sd)*x_v - sum_down (Su - U*Y_u)*x_v

    is weights_from_y's row times delta, so the system has the same
    solution, and solve_rows pivots in the same order on it."""
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
        rhs[u] = b
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


def redraw_rows(d: Drawing, boundary: BoundaryPolygon, fixed_axis: int):
    """Rows, moving-axis right-hand sides and the one denominator of those
    (boundary.den) of the system of a redraw of d onto boundary that keeps
    every coordinate on fixed_axis (0 for x, 1 for y; tutte_rows_from_y
    with that axis as the heights), as RoundedSolution takes them, after
    checking that boundary keeps those coordinates of its vertices and is
    a strictly convex polygon on the outer walk. The heights are the
    fixed-axis coordinates times the lcm of their denominators, d's integer
    view divided by the gcd of d.den and all of them."""
    ints, den = d.ints, d.den
    bints, bden = boundary.ints, boundary.den
    for v in boundary.cycle:
        if bints[v][fixed_axis] * den != ints[v][fixed_axis] * bden:
            raise PreconditionViolated(f"boundary moves {v} on the fixed axis")
    ys = {v: p[fixed_axis] for v, p in ints.items()}
    g = math.gcd(den, *ys.values())
    if g > 1:
        ys = {v: y // g for v, y in ys.items()}
    rows, rhs = tutte_rows_from_y(
        d.graph, ys, {v: p[1 - fixed_axis] for v, p in bints.items()})
    _check_pinned_system(d.graph, boundary, set(rows))
    return rows, rhs, bden


# -- boundary polygon construction -------------------------------------------


def _split_chains(cycle: Sequence[int], y: Dict[int, int]):
    """Split a clockwise outer cycle at its unique bottom and top vertex.

    Returns (left, right), both ordered bottom to top; the clockwise walk
    ascends the left chain first."""
    k = len(cycle)
    bot = min(range(k), key=lambda i: (y[cycle[i]], i))
    top = max(range(k), key=lambda i: (y[cycle[i]], -i))
    for i in range(k):
        if i != bot and y[cycle[i]] == y[cycle[bot]]:
            raise NotYMonotoneCycle("bottom vertex not unique")
        if i != top and y[cycle[i]] == y[cycle[top]]:
            raise NotYMonotoneCycle("top vertex not unique")
    left = [cycle[(bot + i) % k] for i in range(((top - bot) % k) + 1)]
    right = [cycle[(top + i) % k] for i in range(((bot - top) % k) + 1)]
    right.reverse()
    for chain in (left, right):
        for a, b in zip(chain, chain[1:]):
            if y[b] <= y[a]:
                raise NotYMonotoneCycle("chain not strictly increasing")
    return left, right


def _chain_slopes(incr: List[int], den: int, flip: Optional[int],
                  target: int, attempt: int, rising: bool):
    """Slopes for one chain: strictly monotone, optional sign pattern, and
    weighted sum exactly equal to target, with eta = 4^-attempt.

    incr: positive y-increments, times den. flip: edges 1..flip get the
    'before' sign. rising=True builds an increasing sequence (left chain),
    else decreasing. Returns (S, Q): slope i is S[i] / Q, Q > 0. Returns
    None when the knob adjustment would break the sign pattern.

    Slope i starts at sgn * eta * (i - center - 1/2) = K_i / E with
    E = 2 * 4^attempt; the gap N / (E * den) to target is added to one
    slope as N / (E * incr), so every slope is over E * incr."""
    p = len(incr)
    sgn = 1 if rising else -1
    if p == 1:
        s, q = [target * den], incr[0]
    else:
        c2 = 2 * flip if flip is not None else p
        e = 2 << (2 * attempt)
        s = [sgn * (2 * i - c2 - 1) for i in range(1, p + 1)]
        gap = target * e * den - sum(si * ai for si, ai in zip(s, incr))
        q = e
        if gap:
            j = p - 1 if (gap > 0) == rising else 0
            q = e * incr[j]
            s = [si * incr[j] for si in s]
            s[j] += gap
    seq = s if rising else [-v for v in s]
    if any(b <= a for a, b in zip(seq, seq[1:])):
        return None
    if flip is not None:
        before = -1 if rising else 1
        for i, v in enumerate(s, start=1):
            want = before if i <= flip else -before
            if sign_of(v) != want:
                return None
    return s, q


def convex_polygon_for_y(cycle: Sequence[int], y: Dict[int, int],
                         pins: Tuple = (), den: int = 1) -> BoundaryPolygon:
    """Strictly convex polygon on the given clockwise cycle preserving the
    heights y[v] / den (y holds ints, den > 0).

    Default shape is the parabola pair x = -+ (y - ymin)(ymax - y)/(ymax -
    ymin). Dividing by the span keeps every x within a quarter of the span
    of y; without it x is of the order of the span squared, and since
    horizontal and vertical redraws alternate, each call (this one keeping
    y, convex_polygon_for_x keeping x) would square the magnitude again.
    pins lists (vertex, 'left'|'right'), at most one per side, and makes
    each vertex the unique leftmost or rightmost; a pinned vertex must lie
    on the matching chain (or be the bottom/top vertex). The pinned widths
    are not scale-invariant, so the polygon is built from the rational
    heights (the ints over den), and its coordinates are the same
    rationals at any scale of y."""
    left, right = _split_chains(cycle, y)
    bot, top = left[0], left[-1]

    if not pins:
        y0, yT = y[bot], y[top]
        span = yT - y0
        ints = {}
        for v in left:
            ints[v] = (-(y[v] - y0) * (yT - y[v]), y[v] * span)
        for v in right[1:-1]:
            ints[v] = ((y[v] - y0) * (yT - y[v]), y[v] * span)
        poly = BoundaryPolygon(cycle, ints, den * span)
        poly.validate()
        return poly

    flips = {}
    for v, side in pins:
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
    if len(pins) == 2 and pins[0][0] == pins[1][0]:
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
    target = next(iter(want), 0)

    for attempt in range(60):
        ls = _chain_slopes(a, den, flips.get("left"), target, attempt,
                           rising=True)
        rs = _chain_slopes(h, den, flips.get("right"), target, attempt,
                           rising=False)
        if ls is None or rs is None:
            continue
        (s, sq), (t, tq) = ls, rs
        if p > 1 or q > 1:
            if t[0] * sq <= s[0] * tq or s[-1] * tq <= t[-1] * sq:
                continue
        # slope times increment sums to x times sq * den on the left chain
        # and tq * den on the right; the polygon is over sq * tq * den
        ints = {bot: (0, y[bot] * sq * tq)}
        acc = 0
        for i, v in enumerate(left[1:], start=1):
            acc += s[i - 1] * a[i - 1]
            ints[v] = (acc * tq, y[v] * sq * tq)
        acc = 0
        for j, v in enumerate(right[1:-1], start=1):
            acc += t[j - 1] * h[j - 1]
            ints[v] = (acc * sq, y[v] * sq * tq)
        poly = BoundaryPolygon(cycle, ints, sq * tq * den)
        try:
            poly.validate()
        except ValueError:
            continue
        if all(unique_extreme(ints, v, side) for v, side in pins):
            return poly
    raise ConstraintInfeasible("no polygon found for the requested pins")


def convex_polygon_for_x(cycle: Sequence[int], x: Dict[int, int],
                         pins: Tuple = (), den: int = 1) -> BoundaryPolygon:
    """Strictly convex polygon on the given clockwise cycle preserving
    x[v] / den: convex_polygon_for_y with x as the heights, on the reversed
    cycle, and its coordinates swapped. The swap is a reflection, so the
    reversed cycle comes out clockwise again. pins lists (vertex,
    'top'|'bottom'), at most one per side, and makes each vertex the unique
    topmost or bottommost: the rightmost or leftmost before the swap."""
    if any(side not in ("top", "bottom") for _, side in pins):
        raise ValueError(f"pin sides {pins!r}")
    y_pins = tuple((v, "right" if side == "top" else "left")
                   for v, side in pins)
    poly = convex_polygon_for_y(tuple(reversed(cycle)), x, y_pins, den)
    out = BoundaryPolygon(
        cycle, {v: (py, px) for v, (px, py) in poly.ints.items()}, poly.den)
    out.validate()
    return out

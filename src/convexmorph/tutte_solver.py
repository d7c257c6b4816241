"""Generalized Tutte machinery: barycentric weights chosen from the
heights on one axis, the integer linear systems they give, certified
rounding of their solutions, and strictly convex boundary polygons that
keep y (or x).

A redraw keeps one axis and solves only for the other, since weights
taken from the kept coordinates reproduce them exactly. The code speaks of
keeping y and solving for x; redraw_rows builds the system for either
fixed axis on the drawing as it is, and the engine reads the solution
through RoundedSolution, so no function here returns a whole redrawn
drawing.

The boundary polygon is checked once: convex_polygon_for_y (and through
it convex_polygon_for_x) validates what it builds, and the engine builds
it from the drawing it redraws, on that drawing's outer walk and fixed-axis
coordinates, so redraw_rows takes it as given. BoundaryPolygon.validate
and plane_graph.is_strictly_convex share one definition of a strictly
convex walk that winds once, plane_graph._convex_walk.

A redraw needs its solution only rounded to a dyadic grid (the engine
emits no redraw exactly), so RoundedSolution answers those roundings and
nothing else, without the exact solution: iterative refinement with a
float LU against exact integer residuals, and a bound that an exact
M-matrix certificate proves. An answer the bound cannot settle is not
given, so every answer equals the rounding of the exact solution.

The system goes from redraw_rows to RoundedSolution indexed by position:
the internal vertices in increasing order, each row a list of positions
with its diagonal first and a parallel list of int coefficients. Only
the answers are keyed by vertex. A Tutte system is structurally symmetric
(internal neighbours hold each other), so _float_lu needs no column
index.

A vertex with a neighbor at its own height, or with none above or below
it, is PreconditionViolated, the message saying which; every way a
boundary polygon cannot be built is ConstraintInfeasible, the one failure
morph_engine._redraw moves past to its next choice of pins.

solve_rows and weights_from_y (whose {(u, v): weight} dict the rows of
tutte_rows_from_y scale) are the exact reference that convexify never
calls: they are kept for the tests and for the traced bench layers until
the exact solver leaves the package. solve_rows scales each equation
once by the lcm of its denominators; sparse fraction-free elimination
(in the manner of Bareiss 1968) with Markowitz pivoting then keeps every
row primitive by dividing out its gcd, and back-substitution forms one
rational per unknown. Its solution is the unique exact one, so it equals
what elimination over rationals gives, at a fraction of the cost of a gcd
per entry update.
"""

from __future__ import annotations

import heapq
import math
import operator
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .plane_graph import (
    Drawing,
    PlaneGraph,
    PreconditionViolated,
    _convex_walk,
    _ratio,
    rat,
    sign_of,
    unique_extreme,
)


class SingularSystem(ArithmeticError):
    """Tutte system unsolvable; indicates an invariant violation upstream."""


class ConstraintInfeasible(ValueError):
    """No strictly convex polygon on the walk keeps its heights and meets
    the pins: the walk is not monotone in the heights (no unique bottom or
    top, or a chain that does not rise strictly), a pin sits on the wrong
    chain, or the pins contradict each other."""


class BoundaryPolygon:
    """Outer-face vertices in walk order (clockwise) with fixed coordinates,
    stored like a Drawing's: the point of v is ints[v] / den (a pair of ints
    per vertex, den > 0, not necessarily reduced)."""

    __slots__ = ("cycle", "ints", "den")

    def __init__(self, cycle: Sequence[int],
                 ints: Dict[int, Tuple[int, int]], den: int):
        self.cycle, self.ints, self.den = tuple(cycle), ints, den

    def validate(self):
        """Raise ConstraintInfeasible unless the cycle is a strictly convex
        clockwise polygon winding once (plane_graph._convex_walk with turn
        -1; a walk of one or two vertices has a zero edge or a spike)."""
        if not _convex_walk(self.ints, self.cycle, -1):
            raise ConstraintInfeasible("not a strictly convex clockwise "
                                       "polygon winding once")


def weights_from_y(g: PlaneGraph, y: Dict[int, object]
                   ) -> Dict[Tuple[int, int], object]:
    """Height-derived weights, as {(u, v): weight} for each internal vertex
    u and neighbor v: t_u interpolates y_u between the averages of the
    neighbors strictly above and strictly below, then each side splits its
    share uniformly. Every weight is positive and each u's weights sum to
    1, and the weighted neighbor average of y is exactly y_u again, so a
    redraw keeps every height. PreconditionViolated names a vertex with a
    neighbor at its own height, or none above or none below it."""
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
            raise PreconditionViolated(f"no neighbor above {u}")
        if not down:
            raise PreconditionViolated(f"no neighbor below {u}")
        y_plus = sum(y[v] for v in up) / len(up)
        y_minus = sum(y[v] for v in down) / len(down)
        t = (y[u] - y_minus) / (y_plus - y_minus)
        for v in up:
            weights[(u, v)] = t / len(up)
        for v in down:
            weights[(u, v)] = (1 - t) / len(down)
    return weights


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


def _float_lu(cols: List[List[int]], vals: List[List[float]]):
    """Sparse LU with diagonal pivots of the float matrix whose row e
    holds vals[e] at the positions cols[e], in a min-fill order. The
    working copy is made structurally symmetric with explicit zeros (a
    Tutte system is so already: internal neighbours u and v hold each
    other), and elimination keeps it so. The rows that hold a pivot's
    column are then the columns of its row, so no column index is kept,
    and a row's Markowitz product is (its length - 1)^2, so the pivots come
    from a lazy heap of (row length, position), ties to the least
    position: an elimination changes the lengths of the rows of its pivot
    row's columns only, so those are pushed again, and an entry whose row
    is gone or whose length has changed since is skipped. Returns the
    eliminations as (pivot, pivot entry, {position: entry} of the rest of
    its row, [(row, multiplier)])."""
    rows = [dict(zip(c, v)) for c, v in zip(cols, vals)]
    for e, c in enumerate(cols):
        for v in c:
            rows[v].setdefault(e, 0.0)
    heap = [(len(r), e) for e, r in enumerate(rows)]
    heapq.heapify(heap)
    steps = []
    while heap:
        key, p = heapq.heappop(heap)
        prow = rows[p]
        if prow is None or key != len(prow):
            continue
        rows[p] = None
        piv = prow.pop(p)
        items = prow.items()
        mults = []
        for e in prow:
            r = rows[e]
            f = r.pop(p) / piv
            mults.append((e, f))
            for v, c in items:
                r[v] = r.get(v, 0.0) - f * c
            heapq.heappush(heap, (len(r), e))
        steps.append((p, piv, prow, mults))
    return steps


def _lu_solve(steps, rhs: List[float]) -> List[float]:
    x = list(rhs)
    for p, _, _, mults in steps:
        xp = x[p]
        for e, f in mults:
            x[e] -= f * xp
    for p, piv, prow, _ in reversed(steps):
        s = x[p]
        for v, c in prow.items():
            s -= c * x[v]
        x[p] = s / piv
    return x


class RoundedSolution:
    """The solution x of a square system A x = B / den, as redraw_rows
    builds it (integer rows and right-hand sides over one positive int
    den), answered only as the rounding to the dyadic grid each query asks
    for, not exactly. The system is indexed by position: ids[e] is the
    vertex of unknown e, row e holds the int coefficients coefs[e] at the
    positions cols[e], its diagonal first, and rhs[e] is its right-hand
    side. Every list is indexed by position, and only the answers are keyed
    by vertex.

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
    no numerical pivoting; _float_lu factors it on its symmetric pattern),
    then X += round(LU^-1 (D^-1 R / d)). Every certificate and bound is
    checked in integers, so a floating-point mistake cannot give a wrong
    answer.

    An empty system answers {}. When the certificate fails, a float is not
    finite or refinement stalls, _Uncertified names the reason."""

    def __init__(self, ids: Sequence[int], cols: List[List[int]],
                 coefs: List[List[int]], rhs: List[int], den: int):
        b, d, n = [], [], len(ids)
        for e, (c, a, r) in enumerate(zip(cols, coefs, rhs)):
            g = math.gcd(r, den)
            b.append(r // g)
            d.append(den // g)
            if (c[0] != e or a[0] <= 0 or any(x >= 0 for x in a[1:])
                    or not all(0 <= f < n for f in c)
                    or len(set(c)) != len(c)):
                raise _Uncertified("not an M-matrix sign pattern")
        self._ids, self._cols, self._coefs = ids, cols, coefs
        self._b, self._d = b, d
        # d_e A_ee, the scale of row e's residual in t and in a correction
        self._dd = [de * a[0] for de, a in zip(d, coefs)]
        self._k = 0
        self._x = [0] * n
        if not ids:
            return
        try:
            self._lu = _float_lu(cols, [[x / a[0] for x in a] for a in coefs])
            vf = _lu_solve(self._lu, [1.0] * n)
            if not all(0 < x < math.inf for x in vf):
                raise _Uncertified("no positive vector")
            shift = 52 - math.frexp(max(vf))[1]
            vv = [math.ceil(math.ldexp(x, shift)) for x in vf]
        except (ArithmeticError, ValueError):
            raise _Uncertified("float overflow") from None
        av = [sum(map(operator.mul, a, map(vv.__getitem__, c)))
              for c, a in zip(cols, coefs)]
        if min(av) <= 0:
            raise _Uncertified("A V > 0 fails")
        self._v = vv
        # m = min_e (A V)_e / A_ee, picked by cross-multiplication
        lo = 0
        for e in range(1, len(av)):
            if av[e] * coefs[lo][0] < av[lo] * coefs[e][0]:
                lo = e
        self._m = Fraction(av[lo], coefs[lo][0])
        # bits of t / m * max V when t is about 1, as after convergence
        self._lead = (max(vv) // self._m).bit_length() + 2

    def _residual(self, x: List[int], k: int) -> List[int]:
        """R = B 2^k - d A X, exactly, for X = x."""
        get = x.__getitem__
        return [(be << k) - de * sum(map(operator.mul, a, map(get, c)))
                for be, de, c, a in zip(self._b, self._d, self._cols,
                                        self._coefs)]

    def _refine(self, k: int):
        """Move X up to scale 2^k and refine it until the scaled residual t
        is below 4; sets _err = t / m, the bound on |x 2^k - X| per unit V."""
        x = [xu << (k - self._k) for xu in self._x]
        res = self._residual(x, k)
        self._x, self._k = x, k
        dd = self._dd
        t = None
        while True:
            # t = max_e |R_e| / (d_e A_ee), as a pair picked by
            # cross-multiplication
            tn, td = 0, 1
            for re, q in zip(res, dd):
                rn = abs(re)
                if rn * td > tn * q:
                    tn, td = rn, q
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
                corr = _lu_solve(self._lu,
                                 [re / (q << sh) for re, q in zip(res, dd)])
                for u, c in enumerate(corr):
                    x[u] += round(c) << sh
            except (ArithmeticError, ValueError):
                raise _Uncertified("float overflow") from None
            res = self._residual(x, k)
        self._err = Fraction(tn, td) / self._m

    def rounded(self, bits: int) -> Optional[Dict[int, int]]:
        """{vertex: round(x_u * 2^bits)} for every unknown u (Python's
        round: half to even), refined at scale 2^(bits + lead + guard) if
        not finer already; None when the bound there cannot keep every
        rounding off its tie. A tie of one grid is a point of the next, far
        from that grid's ties, so the next grid of a ladder answers."""
        if not self._ids:
            return {}
        if bits + self._lead + _GUARD_BITS > self._k:
            self._refine(bits + self._lead + _GUARD_BITS)
        sh = self._k - bits
        half = 1 << (sh - 1)
        p, q = self._err.numerator, self._err.denominator
        out = []
        for xu, vu in zip(self._x, self._v):
            j = (xu + half) >> sh
            dist = min(xu - (j << sh) + half, (j << sh) + half - xu)
            if not p * vu < dist * q:
                return None
            out.append(j)
        return dict(zip(self._ids, out))


def tutte_rows_from_y(g: PlaneGraph, ys: Dict[int, int],
                      bx: Dict[int, int]):
    """The pinned system with weights_from_y's weights, indexed by
    position, as RoundedSolution takes it: (ids, cols, coefs, rhs). ys
    holds every height times one positive scale, as ints; bx maps each
    boundary vertex to its x times one positive scale, bden, and the
    solution is every internal x times bden. ids lists the internal
    vertices in increasing order, the unknown at position e being ids[e];
    row e holds the int coefficients coefs[e] at the positions cols[e],
    its diagonal first, and rhs[e] is its x right-hand side as an int over
    the scale of bx. The rows are structurally symmetric: row e holds
    position f exactly when ids[e] and ids[f] are neighbours.

    Let an internal vertex u have U neighbors above, with heights Y summing
    to Su, and D below, summing to Sd, and let delta = D*Su - U*Sd > 0. Its
    row

        delta*x_u - sum_up (D*Y_u - Sd)*x_v - sum_down (Su - U*Y_u)*x_v

    is weights_from_y's row times delta, so the system has the same
    solution."""
    ids = sorted(u for u in g.rotation if u not in bx)
    pos = {u: e for e, u in enumerate(ids)}
    cols, coefs, rhs = [], [], []
    for e, u in enumerate(ids):
        yu = ys[u]
        up, down = [], []
        s_up = s_down = 0
        for v in g.rotation[u]:
            yv = ys[v]
            if yv > yu:
                up.append(v)
                s_up += yv
            elif yv < yu:
                down.append(v)
                s_down += yv
            else:
                raise PreconditionViolated(f"horizontal edge at {u}")
        if not up:
            raise PreconditionViolated(f"no neighbor above {u}")
        if not down:
            raise PreconditionViolated(f"no neighbor below {u}")
        w_up = len(down) * yu - s_down
        w_down = s_up - len(up) * yu
        c, a, b = [e], [len(down) * s_up - len(up) * s_down], 0
        for vs, w in ((up, w_up), (down, w_down)):
            for v in vs:
                f = pos.get(v)
                if f is None:
                    b += w * bx[v]
                else:
                    c.append(f)
                    a.append(-w)
        cols.append(c)
        coefs.append(a)
        rhs.append(b)
    return ids, cols, coefs, rhs


def redraw_rows(d: Drawing, boundary: BoundaryPolygon, fixed_axis: int):
    """The system of a redraw of d onto boundary that keeps every
    coordinate on fixed_axis (0 for x, 1 for y), as RoundedSolution takes
    it: tutte_rows_from_y's (ids, cols, coefs, rhs) with that axis as the
    heights, and the one denominator of the right-hand sides,
    boundary.den. The heights are the fixed-axis coordinates times the lcm
    of their denominators, d's integer view divided by the gcd of d.den
    and all of them.

    boundary must be a strictly convex polygon on d's outer walk that keeps
    the fixed-axis coordinates of its vertices, as morph_engine._redraw
    builds it from d itself; nothing here checks it again, and the redraw's
    end certificate (strict convexity of the snapped drawing) decides the
    result."""
    ys = {v: p[fixed_axis] for v, p in d.ints.items()}
    g = math.gcd(d.den, *ys.values())
    if g > 1:
        ys = {v: y // g for v, y in ys.items()}
    return (*tutte_rows_from_y(
        d.graph, ys,
        {v: p[1 - fixed_axis] for v, p in boundary.ints.items()}),
        boundary.den)


# -- boundary polygon construction -------------------------------------------


def _split_chains(cycle: Sequence[int], y: Dict[int, int]):
    """Split a clockwise outer cycle at its unique bottom and top vertex.

    Returns (left, right), both ordered bottom to top; the clockwise walk
    ascends the left chain first. ConstraintInfeasible when the bottom or
    the top is not unique or a chain does not rise strictly."""
    k = len(cycle)
    bot = min(range(k), key=lambda i: (y[cycle[i]], i))
    top = max(range(k), key=lambda i: (y[cycle[i]], -i))
    for i in range(k):
        if i != bot and y[cycle[i]] == y[cycle[bot]]:
            raise ConstraintInfeasible("bottom vertex not unique")
        if i != top and y[cycle[i]] == y[cycle[top]]:
            raise ConstraintInfeasible("top vertex not unique")
    left = [cycle[(bot + i) % k] for i in range(((top - bot) % k) + 1)]
    right = [cycle[(top + i) % k] for i in range(((bot - top) % k) + 1)]
    right.reverse()
    for chain in (left, right):
        for a, b in zip(chain, chain[1:]):
            if y[b] <= y[a]:
                raise ConstraintInfeasible("chain not strictly increasing")
    return left, right


def _chain_slopes(incr: List[int], den: int, flip: Optional[int],
                  target: int, e: int, rising: bool):
    """Slopes for one chain, strictly monotone, whose weighted sum is
    exactly target.

    incr: positive y-increments, times den. flip: edges 1..flip get the
    'before' sign. rising=True builds an increasing sequence (left chain),
    else decreasing. Returns (S, Q): slope i is S[i] / Q, Q > 0.

    Slope i starts at sgn * (2i - c2 - 1) / e, c2 = 2 * flip (p without a
    flip), which is strictly monotone and has the sign pattern of flip;
    the gap N / (e * den) to target is added to one end slope as
    N / (e * incr), so every slope is over e * incr. The end slope moved is
    the one whose move keeps the sequence monotone, so only a slope at a
    pinned end (flip 0 or p) can lose its sign; convex_polygon_for_y picks
    e large enough that it does not."""
    p = len(incr)
    if p == 1:
        return [target * den], incr[0]
    sgn = 1 if rising else -1
    c2 = 2 * flip if flip is not None else p
    s = [sgn * (2 * i - c2 - 1) for i in range(1, p + 1)]
    gap = target * e * den - sum(si * ai for si, ai in zip(s, incr))
    if not gap:
        return s, e
    j = p - 1 if (gap > 0) == rising else 0
    s = [si * incr[j] for si in s]
    s[j] += gap
    return s, e * incr[j]


def _pin_bound(incr: List[int], flip: Optional[int]) -> int:
    """The bound e * den must exceed for _chain_slopes to keep a chain's
    sign pattern; 0 unless the chain has two or more edges and is pinned
    at its bottom (flip 0) or top (flip p).

    Number the edges k = 1..p from the pinned end. The pin sets the target
    to +-1 so that the uncorrected numerators are target * s_k = 2k - 1,
    and target times the gap is g = e * den - sum (2k - 1) * a_k. When g is
    negative the correction goes to edge 1, whose slope keeps its sign
    exactly when a_1 + g > 0, that is, when e * den exceeds the sum over
    k >= 2 of (2k - 1) * a_k."""
    p = len(incr)
    if p < 2 or flip not in (0, p):
        return 0
    from_pin = incr if flip == 0 else incr[::-1]
    return sum((2 * k - 1) * a for k, a in enumerate(from_pin[1:], start=2))


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
    rationals at any scale of y.

    With pins, the bottom sits at x = 0 and both chains end at the top's
    x = target: 1 when a pin makes the bottom the leftmost or the top the
    rightmost, -1 for the mirror case, else 0. Each chain takes the slopes
    of _chain_slopes, at the least e = 2 * 4^k for which e * den exceeds
    both chains' _pin_bound. Then the left chain's slopes increase and
    the right chain's decrease between the same two ends, so the walk is
    strictly convex and winds once, and each pinned vertex is where its
    chain's slopes change sign, or an end both chains leave away from its
    side: the unique extreme. validate and the pin test confirm this, and raise
    ConstraintInfeasible if they ever do not."""
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
                raise ConstraintInfeasible(f"{v} is not on the left chain")
            flips[side] = left.index(v)
        else:
            if v not in right:
                raise ConstraintInfeasible(f"{v} is not on the right chain")
            flips[side] = right.index(v)
    if len(pins) == 2 and pins[0][0] == pins[1][0]:
        raise ConstraintInfeasible("same vertex pinned to both sides")
    targets = {1 if (side == "left") == (v == bot) else -1
               for v, side in pins if v in (bot, top)}
    if len(targets) > 1:
        raise ConstraintInfeasible("pins force contradictory widths")
    target = targets.pop() if targets else 0

    p, q = len(left) - 1, len(right) - 1
    a = [y[left[i]] - y[left[i - 1]] for i in range(1, p + 1)]
    h = [y[right[j]] - y[right[j - 1]] for j in range(1, q + 1)]
    fl, fr = flips.get("left"), flips.get("right")
    bound = max(_pin_bound(a, fl), _pin_bound(h, fr))
    e = 2
    while e * den <= bound:
        e <<= 2
    s, sq = _chain_slopes(a, den, fl, target, e, rising=True)
    t, tq = _chain_slopes(h, den, fr, target, e, rising=False)
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
    poly.validate()
    for v, side in pins:
        if not unique_extreme(ints, v, side):
            raise ConstraintInfeasible(f"{v} is not the unique {side}most")
    return poly


def convex_polygon_for_x(cycle: Sequence[int], x: Dict[int, int],
                         pins: Tuple = (), den: int = 1) -> BoundaryPolygon:
    """Strictly convex polygon on the given clockwise cycle preserving
    x[v] / den: convex_polygon_for_y with x as the heights, on the reversed
    cycle, and its coordinates swapped. The swap is a reflection, so the
    reversed cycle comes out clockwise again, strictly convex and winding
    once, as convex_polygon_for_y validated it. pins lists (vertex,
    'top'|'bottom'), at most one per side, and makes each vertex the unique
    topmost or bottommost: the rightmost or leftmost before the swap."""
    if any(side not in ("top", "bottom") for _, side in pins):
        raise ValueError(f"pin sides {pins!r}")
    y_pins = tuple((v, "right" if side == "top" else "left")
                   for v, side in pins)
    poly = convex_polygon_for_y(tuple(reversed(cycle)), x, y_pins, den)
    return BoundaryPolygon(
        cycle, {v: (py, px) for v, (px, py) in poly.ints.items()}, poly.den)

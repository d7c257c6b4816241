"""Independent brute-force oracles used to freeze expected test values.

Everything here is written against the problem statements, not the package
internals: naive O(n^2) or O(n^3) algorithms over Fraction arithmetic.
"""

from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

Point = Tuple[Fraction, Fraction]


def _f(p) -> Point:
    return (Fraction(p[0]), Fraction(p[1]))


def _orient(p, q, r) -> int:
    val = (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])
    return (val > 0) - (val < 0)


def brute_hull_boundary_ids(coords: Dict[int, Tuple]) -> set:
    """Ids whose point lies on the convex hull boundary (vertices and points
    interior to hull edges). O(n^3): id r is on the boundary iff some directed
    line r->s has every point weakly on its left."""
    pts = {v: _f(p) for v, p in coords.items()}
    ids = list(pts)
    out = set()
    for r in ids:
        for s in ids:
            if s == r:
                continue
            if all(_orient(pts[r], pts[s], pts[t]) >= 0 for t in ids):
                out.add(r)
                break
    return out


def _seg_intersection_kind(p1, p2, p3, p4) -> str:
    """'empty', 'point', or 'overlap' for two closed segments."""
    d1 = _orient(p3, p4, p1)
    d2 = _orient(p3, p4, p2)
    d3 = _orient(p1, p2, p3)
    d4 = _orient(p1, p2, p4)
    if d1 == d2 == d3 == d4 == 0:
        # collinear: compare 1d ranges along the dominant axis
        axis = 0 if p1[0] != p2[0] or p3[0] != p4[0] else 1
        a1, a2 = sorted((p1[axis], p2[axis]))
        b1, b2 = sorted((p3[axis], p4[axis]))
        lo, hi = max(a1, b1), min(a2, b2)
        if lo > hi:
            return "empty"
        return "point" if lo == hi else "overlap"
    if d1 * d2 <= 0 and d3 * d4 <= 0:
        # at most one point; make sure touching cases really touch
        def on_seg(p, q, r):
            return (_orient(p, q, r) == 0
                    and min(p[0], q[0]) <= r[0] <= max(p[0], q[0])
                    and min(p[1], q[1]) <= r[1] <= max(p[1], q[1]))

        if d1 * d2 < 0 and d3 * d4 < 0:
            return "point"
        if on_seg(p3, p4, p1) or on_seg(p3, p4, p2) \
                or on_seg(p1, p2, p3) or on_seg(p1, p2, p4):
            return "point"
        return "empty"
    return "empty"


def _seg_point_intersection(p1, p2, p3, p4) -> Point:
    """The single intersection point, assuming kind is 'point'."""
    r = (p2[0] - p1[0], p2[1] - p1[1])
    s = (p4[0] - p3[0], p4[1] - p3[1])
    denom = r[0] * s[1] - r[1] * s[0]
    if denom != 0:
        t = ((p3[0] - p1[0]) * s[1] - (p3[1] - p1[1]) * s[0])
        t = Fraction(t, denom)
        return (p1[0] + t * r[0], p1[1] + t * r[1])
    # collinear touch: the endpoint of one lying on the other
    for cand in (p1, p2, p3, p4):
        ok1 = (min(p1[0], p2[0]) <= cand[0] <= max(p1[0], p2[0])
               and min(p1[1], p2[1]) <= cand[1] <= max(p1[1], p2[1]))
        ok2 = (min(p3[0], p4[0]) <= cand[0] <= max(p3[0], p4[0])
               and min(p3[1], p4[1]) <= cand[1] <= max(p3[1], p4[1]))
        if ok1 and ok2:
            return cand
    raise AssertionError("no touch point found")


def brute_planar(coords: Dict[int, Tuple],
                 edges: Sequence[Tuple[int, int]]) -> bool:
    """Naive straight-line planarity: all vertex points distinct; two edges
    may meet only at a shared endpoint, and only in that single point."""
    pts = {v: _f(p) for v, p in coords.items()}
    if len(set(pts.values())) != len(pts):
        return False
    es = list(edges)
    for i in range(len(es)):
        for j in range(i + 1, len(es)):
            a, b = es[i]
            c, d = es[j]
            shared = {a, b} & {c, d}
            if len(shared) == 2:
                return False
            kind = _seg_intersection_kind(pts[a], pts[b], pts[c], pts[d])
            if kind == "overlap":
                return False
            if kind == "point":
                if len(shared) != 1:
                    return False
                hit = _seg_point_intersection(pts[a], pts[b], pts[c], pts[d])
                if hit != pts[next(iter(shared))]:
                    return False
    # vertex lying on a non-incident edge
    for v, p in pts.items():
        for a, b in es:
            if v in (a, b):
                continue
            if _orient(pts[a], pts[b], p) == 0 \
                    and min(pts[a][0], pts[b][0]) <= p[0] <= max(pts[a][0], pts[b][0]) \
                    and min(pts[a][1], pts[b][1]) <= p[1] <= max(pts[a][1], pts[b][1]):
                return False
    return True


def solve_dense_fraction(rows: Dict[int, Dict[int, Fraction]],
                         rhs: Dict[int, List[Fraction]]) -> Dict[int, List[Fraction]]:
    """Dense Gaussian elimination over Fraction with partial pivoting by
    magnitude. rows maps equation id -> {variable id: coeff}; rhs maps the
    same equation ids to a list of right-hand sides (solved simultaneously)."""
    eq_ids = sorted(rows)
    var_ids = sorted({v for r in rows.values() for v in r})
    n = len(eq_ids)
    if len(var_ids) != n:
        raise ValueError("system is not square")
    col = {v: i for i, v in enumerate(var_ids)}
    k = len(next(iter(rhs.values()))) if rhs else 0
    a = [[Fraction(0)] * n for _ in range(n)]
    b = [[Fraction(0)] * k for _ in range(n)]
    for i, eq in enumerate(eq_ids):
        for v, c in rows[eq].items():
            a[i][col[v]] = Fraction(c)
        b[i] = [Fraction(x) for x in rhs[eq]]
    for piv in range(n):
        best = max(range(piv, n), key=lambda r: abs(a[r][piv]))
        if a[best][piv] == 0:
            raise ZeroDivisionError("singular system")
        a[piv], a[best] = a[best], a[piv]
        b[piv], b[best] = b[best], b[piv]
        inv = 1 / a[piv][piv]
        a[piv] = [c * inv for c in a[piv]]
        b[piv] = [c * inv for c in b[piv]]
        for r in range(n):
            if r != piv and a[r][piv] != 0:
                f = a[r][piv]
                a[r] = [cr - f * cp for cr, cp in zip(a[r], a[piv])]
                b[r] = [cr - f * cp for cr, cp in zip(b[r], b[piv])]
    return {v: b[col[v]] for v in var_ids}


def count_reflex_extrema_in_faces(coords: Dict[int, Tuple],
                                  face_walks: Sequence[Sequence[int]]) -> int:
    """Number of (face, position) pairs where the angle is reflex and both
    face neighbors are strictly above or strictly below the apex."""
    pts = {v: _f(p) for v, p in coords.items()}
    count = 0
    for walk in face_walks:
        k = len(walk)
        for i in range(k):
            a = pts[walk[(i - 1) % k]]
            v = pts[walk[i]]
            b = pts[walk[(i + 1) % k]]
            turn = _orient(a, v, b)
            if turn >= 0:
                continue
            above = (a[1] > v[1]) and (b[1] > v[1])
            below = (a[1] < v[1]) and (b[1] < v[1])
            if above or below:
                count += 1
    return count


def _connected_after_removal(adj: Dict[int, Sequence[int]], removed) -> bool:
    rem = set(removed)
    left = [v for v in adj if v not in rem]
    if not left:
        return True
    seen = {left[0]}
    stack = [left[0]]
    while stack:
        x = stack.pop()
        for w in adj[x]:
            if w not in rem and w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(left)


def brute_three_connected(adj: Dict[int, Sequence[int]]) -> bool:
    """Definition check: n >= 4 and removing any <= 2 vertices leaves the
    graph connected."""
    import itertools
    ids = sorted(adj)
    if len(ids) < 4:
        return False
    if not _connected_after_removal(adj, ()):
        return False
    for r in (1, 2):
        for cut in itertools.combinations(ids, r):
            if not _connected_after_removal(adj, cut):
                return False
    return True


def apex_adjacency(adj: Dict[int, Sequence[int]],
                   outer: Sequence[int]) -> Dict[int, set]:
    """adj plus a new vertex joined to every vertex of outer."""
    aug = {v: set(ws) for v, ws in adj.items()}
    apex = max(aug) + 1
    aug[apex] = set(outer)
    for v in set(outer):
        aug[v].add(apex)
    return aug


def brute_internally_3connected(adj: Dict[int, Sequence[int]],
                                outer: Sequence[int]) -> bool:
    return brute_three_connected(apex_adjacency(adj, outer))


def ray_shoot_down(coords: Dict[int, Tuple], segments, start) -> Tuple:
    """First intersection of the vertical ray going down from start with any
    of the (point, point) segments strictly below; None if nothing is hit.
    Returns (y, kind) where kind is 'interior' or 'endpoint'."""
    sx, sy = _f(start)
    best = None
    for p, q in segments:
        p, q = _f(p), _f(q)
        x1, x2 = sorted((p[0], q[0]))
        if not (x1 <= sx <= x2):
            continue
        if p[0] == q[0]:
            ys = [yy for yy in (p[1], q[1]) if yy < sy]
            if not ys:
                continue
            y = max(ys)
            kind = "endpoint"
        else:
            t = Fraction(sx - p[0], q[0] - p[0])
            y = p[1] + t * (q[1] - p[1])
            if y >= sy:
                continue
            kind = "endpoint" if (sx, y) in (p, q) else "interior"
        if best is None or y > best[0]:
            best = (y, kind)
    return best

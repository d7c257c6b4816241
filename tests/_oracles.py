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


def _biconnected_without(nbrs: List[List[int]], removed: int) -> bool:
    """Whether the graph on 0..n-1 minus the vertex `removed` is connected and
    has no cut vertex: one iterative DFS lowpoint pass (Tarjan 1972)."""
    n = len(nbrs)
    root = 1 if removed == 0 else 0
    disc = [0] * n          # DFS number, 0 while unvisited
    low = [0] * n
    disc[root] = low[root] = visited = 1
    root_children = 0
    stack = [(root, -1, iter(nbrs[root]))]
    while stack:
        x, parent, it = stack[-1]
        for w in it:
            if w == removed or w == parent:
                continue
            if disc[w]:
                if disc[w] < low[x]:
                    low[x] = disc[w]
            else:
                visited += 1
                disc[w] = low[w] = visited
                stack.append((w, x, iter(nbrs[w])))
                break
        else:
            stack.pop()
            if parent == root:
                # the root is a cut vertex when it has a second DFS child
                root_children += 1
                if root_children > 1:
                    return False
            elif parent >= 0:
                # no back edge from x's subtree climbs above parent
                if low[x] >= disc[parent]:
                    return False
                if low[x] < low[parent]:
                    low[parent] = low[x]
    return visited == n - 1


def dfs_three_connected(adj: Dict[int, Sequence[int]]) -> bool:
    """Whether the abstract graph, planar or not, has n >= 4 and no vertex
    cut of size at most 2.

    A cut {a, b} of G makes b a cut vertex of G - a, and a cut {a} leaves
    G - a disconnected; so G is 3-connected exactly when every G - v is
    connected and has no cut vertex. The minimum-degree test is a cheap early
    exit. Duplicate neighbour entries are ignored. O(n*(n+m)).
    """
    index = {v: i for i, v in enumerate(adj)}
    nbrs = [[index[w] for w in set(ws)] for ws in adj.values()]
    if len(nbrs) < 4 or any(len(ws) < 3 for ws in nbrs):
        return False
    return all(_biconnected_without(nbrs, v) for v in range(len(nbrs)))


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


def brute_strictly_convex(coords: Dict[int, Tuple],
                          face_walks: Sequence[Sequence[int]],
                          outer: int) -> bool:
    """Every inner face turns strictly left at each corner, and the outer
    face walk (interior on its left, so clockwise) strictly right; a corner
    where a walk folds back or repeats a point fails. Each walk must also
    wind once: a strict turn is less than a half turn, so it carries the
    edge direction across at most two quarter-turn boundaries, and the
    quadrant index moves by that count mod 4; one full turn crosses four."""
    pts = {v: _f(p) for v, p in coords.items()}
    for fi, walk in enumerate(face_walks):
        k = len(walk)
        turn_want = -1 if fi == outer else 1
        crossed = 0
        for i in range(k):
            a, v, b = (pts[walk[(i - 1) % k]], pts[walk[i]],
                       pts[walk[(i + 1) % k]])
            if a == v or b == v:
                return False
            if _orient(a, v, b) != turn_want:
                return False
            qa = _quadrant((v[0] - a[0], v[1] - a[1]))
            qb = _quadrant((b[0] - v[0], b[1] - v[1]))
            crossed += (qb - qa) * turn_want % 4
        if crossed != 4:
            return False
    return True


def _quadrant(d) -> int:
    """0..3 for the quarter-turn (half-open, counterclockwise from the
    positive x axis) that holds the nonzero direction d."""
    x, y = d
    if x > 0 and y >= 0:
        return 0
    if x <= 0 and y > 0:
        return 1
    if x < 0 and y <= 0:
        return 2
    return 3


def _angle_less(a, b) -> bool:
    """Is the angle of direction a, in [0, 2pi), smaller than that of b?"""
    qa, qb = _quadrant(a), _quadrant(b)
    if qa != qb:
        return qa < qb
    return a[0] * b[1] - a[1] * b[0] > 0


def brute_rotations_realized(coords: Dict[int, Tuple],
                             rotation: Dict[int, Sequence[int]]) -> bool:
    """Each rotation of three or more neighbours, walked once around, turns
    counterclockwise through exactly one full turn: the angle drops below
    its predecessor exactly once. Assumes the edges at a vertex point in
    distinct directions."""
    pts = {v: _f(p) for v, p in coords.items()}
    for v, nbrs in rotation.items():
        k = len(nbrs)
        if k <= 2:
            continue
        dirs = [(pts[w][0] - pts[v][0], pts[w][1] - pts[v][1]) for w in nbrs]
        wraps = sum(_angle_less(dirs[(i + 1) % k], dirs[i]) for i in range(k))
        if wraps != 1:
            return False
    return True


def choose_safe_shear_fraction(g, coords: Dict[int, Tuple], axis: str,
                               no_axis_parallel=True, make_straddle=None,
                               keep_extreme=()):
    """The shear choice in plain Fraction arithmetic: the critical factors
    -dm/df of every constrained pair, a fixed ladder of small factors, then
    one factor below, between and above the critical ones; each candidate
    shears every point and tests the constraints on the sheared
    coordinates. Returns the first factor that passes, or None. g supplies
    edges() and face_vertices(); make_straddle is (face, pos)."""
    pts = {v: _f(p) for v, p in coords.items()}
    i_mov, i_fix = (0, 1) if axis == "x" else (1, 0)
    pairs = []
    if no_axis_parallel:
        pairs += list(g.edges())
    if make_straddle is not None:
        face, pos = make_straddle
        walk = g.face_vertices(face)
        k = len(walk)
        apex = walk[pos % k]
        pairs += [(walk[(pos - 1) % k], apex), (walk[(pos + 1) % k], apex)]
    for vtx, _ in keep_extreme:
        pairs += [(vtx, w) for w in pts if w != vtx]
    roots = sorted({-(pts[u][i_mov] - pts[w][i_mov])
                    / (pts[u][i_fix] - pts[w][i_fix])
                    for u, w in pairs if pts[u][i_fix] != pts[w][i_fix]})
    one = Fraction(1)
    candidates = [Fraction(0), one, -one, one / 2, -one / 2, 2 * one,
                  -2 * one, one / 4, -one / 4, 4 * one, -4 * one]
    if roots:
        candidates += ([roots[0] - 1]
                       + [(a + b) / 2 for a, b in zip(roots, roots[1:])]
                       + [roots[-1] + 1])

    for lam in candidates:
        sheared = {v: ((x + lam * y, y) if axis == "x" else (x, y + lam * x))
                   for v, (x, y) in pts.items()}
        if no_axis_parallel and any(sheared[u][i_mov] == sheared[w][i_mov]
                                    for u, w in g.edges()):
            continue
        if make_straddle is not None:
            face, pos = make_straddle
            walk = g.face_vertices(face)
            k = len(walk)
            a, v, b = (sheared[walk[(pos - 1) % k]][i_mov],
                       sheared[walk[pos % k]][i_mov],
                       sheared[walk[(pos + 1) % k]][i_mov])
            if not (a < v < b or b < v < a):
                continue
        ok = True
        for vtx, side in keep_extreme:
            i = 0 if side in ("left", "right") else 1
            low = side in ("left", "bottom")
            for w, p in sheared.items():
                if w != vtx and not (sheared[vtx][i] < p[i] if low
                                     else sheared[vtx][i] > p[i]):
                    ok = False
        if ok:
            return lam
    return None

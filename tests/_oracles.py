"""Independent brute-force oracles used to freeze expected test values.

Everything here is written against the problem statements, not the package
internals: naive O(n^2) or O(n^3) algorithms over Fraction arithmetic. The
reference paths at the end are the exception: the exact Tutte solve, the
exact redraw, sampled planarity and rotation inserts, built from package
pieces for tests to compare the package's own paths against.
"""

import functools
import itertools
import math
from collections import Counter
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


def pair_count_no_small_cut(faces: Sequence[Sequence[int]], m: int) -> bool:
    """The face-pair count of Chiba & Nishizeki (1985), as
    connectivity._no_small_cut once ran it: whether a connected plane graph
    with n >= 4, minimum degree 3, m edges and the given face walks is
    3-connected. No walk repeats a vertex, no pair of vertices shares
    three faces, and the pairs that share two are exactly m."""
    shared = Counter()
    for f in faces:
        if len(set(f)) < len(f):
            return False
        shared.update(itertools.combinations(sorted(f), 2))
    faces_per_pair = Counter(shared.values())
    return max(faces_per_pair) <= 2 and faces_per_pair[2] == m


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


def brute_area2(coords: Dict[int, Tuple], walk: Sequence[int]) -> Fraction:
    """Twice the signed area of the closed walk (the shoelace sum):
    positive when it runs counterclockwise."""
    pts = [_f(coords[v]) for v in walk]
    return sum(p[0] * q[1] - p[1] * q[0]
               for p, q in zip(pts, pts[1:] + pts[:1]))


def choose_safe_shear_fraction(g, coords: Dict[int, Tuple], axis: int,
                               straddle=None, pins=()):
    """The shear choice in plain Fraction arithmetic: the critical factors
    -dm/df of every constrained pair, a fixed ladder of small factors, then
    one factor below, between and above the critical ones (gap_factors);
    each candidate shears every point and tests the constraints on the
    sheared coordinates. Returns the first factor that passes, or None.
    axis is the moving one (0 for x); g supplies edges() and
    face_vertices(); straddle is (face, pos)."""
    pts = {v: _f(p) for v, p in coords.items()}
    i_mov, i_fix = axis, 1 - axis
    pairs = list(g.edges())
    if straddle is not None:
        face, pos = straddle
        walk = g.face_vertices(face)
        k = len(walk)
        apex = walk[pos % k]
        pairs += [(walk[(pos - 1) % k], apex), (walk[(pos + 1) % k], apex)]
    for vtx, _ in pins:
        pairs += [(vtx, w) for w in pts if w != vtx]
    roots = sorted({-(pts[u][i_mov] - pts[w][i_mov])
                    / (pts[u][i_fix] - pts[w][i_fix])
                    for u, w in pairs if pts[u][i_fix] != pts[w][i_fix]})
    one = Fraction(1)
    candidates = [Fraction(0), one, -one, one / 2, -one / 2, 2 * one,
                  -2 * one, one / 4, -one / 4, 4 * one, -4 * one]
    candidates += gap_factors(roots)

    for lam in candidates:
        sheared = {v: ((x + lam * y, y) if axis == 0 else (x, y + lam * x))
                   for v, (x, y) in pts.items()}
        if any(sheared[u][i_mov] == sheared[w][i_mov] for u, w in g.edges()):
            continue
        if straddle is not None:
            face, pos = straddle
            walk = g.face_vertices(face)
            k = len(walk)
            a, v, b = (sheared[walk[(pos - 1) % k]][i_mov],
                       sheared[walk[pos % k]][i_mov],
                       sheared[walk[(pos + 1) % k]][i_mov])
            if not (a < v < b or b < v < a):
                continue
        ok = True
        for vtx, side in pins:
            i = 0 if side in ("left", "right") else 1
            low = side in ("left", "bottom")
            for w, p in sheared.items():
                if w != vtx and not (sheared[vtx][i] < p[i] if low
                                     else sheared[vtx][i] > p[i]):
                    ok = False
        if ok:
            return lam
    return None


def _x_at(e, y):
    """x of the segment e = (p, q), not level, at height y."""
    (px, py), (qx, qy) = e
    return px + (y - py) * (qx - px) / (qy - py)


def _crossing(edges, y):
    """The segments that cross height y, which is no vertex's, left to
    right."""
    return sorted((e for e in edges if min(e[0][1], e[1][1]) < y
                   < max(e[0][1], e[1][1])), key=lambda e: _x_at(e, y))


def _descend_fraction(pts, j):
    """Where the descent below the reflex minimum pts[j] of the closed walk
    pts (interior on its left) stops, found by cutting every walk edge at
    every level: (walk position, sector), sector 0 at the end of the right
    chain, 2 at the end of the left one, 1 inside or where both end."""
    k = len(pts)
    edges = [(pts[i], pts[(i + 1) % k]) for i in range(k)]
    xu, yu = pts[j]
    levels = sorted({p[1] for p in pts if p[1] < yu}, reverse=True)
    # between u and the next level no edge ends, so the edges left of u at
    # its height come first left to right below it
    cross = _crossing(edges, (yu + levels[0]) / 2)
    cut = sum(_x_at(e, yu) < xu for e in cross)
    left, right = cross[cut - 1], cross[cut]
    for y, below in zip(levels, levels[1:] + [None]):
        xl, xr = _x_at(left, y), _x_at(right, y)
        touch = [i for i in range(k) if pts[i][1] == y
                 and xl <= pts[i][0] <= xr
                 and (pts[i - 1][1] > y) == (pts[(i + 1) % k][1] > y)]
        if touch:
            i = min(touch, key=lambda i: pts[i][0])
            at_l, at_r = pts[i][0] == xl, pts[i][0] == xr
            return i, 2 if at_l and not at_r else 0 if at_r and not at_l else 1
        # each chain goes on through the point where it meets this level
        cross = _crossing(edges, (y + below) / 2)
        left = next(e for e in cross if _x_at(e, y) == xl)
        right = next(e for e in cross if _x_at(e, y) == xr)
    raise AssertionError("a descent without a floor")


def augment_monotone_fraction(g, coords: Dict[int, Tuple], axis: int = 1):
    """The monotone augmentation in plain Fraction arithmetic: each reflex
    local minimum of an inner face (and, on the points turned by 180
    degrees, each reflex local maximum) joined to the leftmost vertex
    touching the interval below it, where the descent first meets one, an
    edge found from both ends once. Heights are on axis, read with the
    points turned by 90 degrees for x. In each wedge the new darts go by
    sector, then by the x of their far end, ascending below the apex and
    descending above it. g supplies rotation, inner_face_indices() and
    face_vertices(). Returns the augmented rotation."""
    pts = {v: _f(p) for v, p in coords.items()}
    if axis == 0:
        pts = {v: (-y, x) for v, (x, y) in pts.items()}
    wedges = {}
    for f in g.inner_face_indices():
        walk = g.face_vertices(f)
        k = len(walk)
        found = set()
        for frame in (pts, {v: (-x, -y) for v, (x, y) in pts.items()}):
            wp = [frame[v] for v in walk]
            for j in range(k):
                a, u, b = wp[j - 1], wp[j], wp[(j + 1) % k]
                if not (a[1] > u[1] < b[1] and _orient(a, u, b) == -1):
                    continue
                i, sector = _descend_fraction(wp, j)
                edge = frozenset((walk[j], walk[i]))
                if edge in found:
                    continue
                found.add(edge)
                wedges.setdefault((f, walk[j]), []).append(
                    (1, wp[i][0], walk[i]))
                wedges.setdefault((f, walk[i]), []).append(
                    (sector, -wp[j][0], walk[j]))
    inserts = {}
    for (f, t), darts in wedges.items():
        walk = g.face_vertices(f)
        after = g.rotation[t].index(walk[(walk.index(t) + 1) % len(walk)])
        inserts.setdefault(t, {})[after] = [w for _, _, w in sorted(darts)]
    rotation = {}
    for t, rot in g.rotation.items():
        out = []
        for i, nb in enumerate(rot):
            out.append(nb)
            out.extend(inserts.get(t, {}).get(i, ()))
        rotation[t] = tuple(out)
    return rotation


# -- reference paths the package's redraws and edits are compared against ----


def polygon_coords(poly):
    """The points of a BoundaryPolygon as pairs of Fractions."""
    den = poly.den
    return {v: (Fraction(x, den), Fraction(y, den))
            for v, (x, y) in poly.ints.items()}


def tutte_rows(g, weights, boundary_coords):
    """Rows and right-hand sides (x and y) of the pinned barycentric system
    with the given weights, {(u, v): weight} for each internal u as
    weights_from_y returns them, unscaled."""
    internal = {u for u, _ in weights}
    rows = {}
    rhs = {}
    for u in internal:
        row = {u: Fraction(1)}
        bx = by = 0
        for v in g.rotation[u]:
            w = weights[(u, v)]
            if v in internal:
                row[v] = row.get(v, 0) - w
            else:
                bx += w * boundary_coords[v][0]
                by += w * boundary_coords[v][1]
        rows[u] = row
        rhs[u] = [bx, by]
    return rows, rhs


def is_outer_walk(cycle, g) -> bool:
    """Whether cycle is g's outer walk, up to where it starts."""
    walk = g.outer_walk()
    k = len(walk)
    if k != len(cycle) or set(walk) != set(cycle):
        return False
    shift = walk.index(cycle[0])
    return all(cycle[i] == walk[(shift + i) % k] for i in range(k))


def lowest_corner_convex(cycle, pts) -> bool:
    """BoundaryPolygon.validate as it was before it shared
    plane_graph._convex_walk: at least 3 corners, every corner a strict
    right turn, and exactly one corner lower, by (y, x), than both of its
    neighbours (a locally convex closed walk winds once iff it has one
    lowest corner)."""
    k = len(cycle)
    if k < 3:
        return False
    ps = [pts[v] for v in cycle]
    minima = 0
    for i in range(k):
        p, c, n = ps[i - 1], ps[i], ps[(i + 1) % k]
        if _orient(p, c, n) != -1:
            return False
        if (c[1], c[0]) < (p[1], p[0]) and (c[1], c[0]) < (n[1], n[0]):
            minima += 1
    return minima == 1


def solve_tutte(g, boundary, weights):
    """The Drawing that solves the pinned barycentric system for both
    coordinates, after checking that boundary is a strictly convex polygon
    on g's outer walk and that the weights ({(u, v): weight}, as
    weights_from_y returns them) cover exactly the other vertices
    (ValueError otherwise)."""
    from convexmorph.plane_graph import Drawing
    from convexmorph.tutte_solver import solve_rows

    boundary.validate()
    if not is_outer_walk(boundary.cycle, g):
        raise ValueError("boundary cycle does not match the outer walk")
    if {u for u, _ in weights} != set(g.rotation) - set(boundary.cycle):
        raise ValueError("weights do not cover exactly the internal vertices")
    sol = solve_rows(*tutte_rows(g, weights, polygon_coords(boundary)))
    coords = dict(polygon_coords(boundary))
    coords.update((u, (x, y)) for u, (x, y) in sol.items())
    return Drawing(g, coords)


def redraw_preserving(d, boundary, fixed_axis):
    """The exact redraw of d onto boundary that keeps every coordinate on
    fixed_axis: the package's rows (redraw_rows), solved exactly."""
    from convexmorph.plane_graph import Drawing
    from convexmorph.tutte_solver import redraw_rows, solve_rows

    *system, den = redraw_rows(d, boundary, fixed_axis)
    rows, rhs = vertex_system(*system)
    sol = solve_rows(rows, {u: [Fraction(b, den)] for u, b in rhs.items()})
    values = {v: p[1 - fixed_axis]
              for v, p in polygon_coords(boundary).items()}
    values.update((u, x) for u, (x,) in sol.items())
    return Drawing(d.graph, {v: (values[v], p[1]) if fixed_axis == 1
                             else (p[0], values[v])
                             for v, p in d.coords.items()})


def shear_fraction(d, axis, lam):
    """plane_graph.shear in plain Fraction arithmetic: every point
    sheared along the moving axis (0 for x) as a pair of rationals."""
    from convexmorph.plane_graph import Drawing

    lam = Fraction(lam)
    return Drawing(d.graph, {
        v: (x + lam * y, y) if axis == 0 else (x, y + lam * x)
        for v, (x, y) in d.coords.items()})


def mirrored(g):
    """The embedding of g after a reflection: every rotation reversed and
    the outer dart flipped, so every face walk runs backwards."""
    from convexmorph.plane_graph import PlaneGraph

    return PlaneGraph({v: tuple(reversed(nbrs))
                       for v, nbrs in g.rotation.items()},
                      (g.outer_dart[1], g.outer_dart[0]), check=False)


def transposed(d):
    """d with x and y swapped. A reflection, so the embedding mirrors; a
    vertical move of d is a horizontal move of transposed(d), transposed
    back."""
    from convexmorph.plane_graph import Drawing

    return Drawing.from_ints(mirrored(d.graph),
                             {v: (y, x) for v, (x, y) in d.ints.items()},
                             d.den)


def snap_fraction(d, ma, poly, rounded, bits):
    """morph_engine._snapped in plain Fraction arithmetic: each moving
    coordinate on axis ma becomes the rational round(x * 2^bits) / 2^bits
    of the boundary's, or rounded[u] / 2^bits."""
    from convexmorph.plane_graph import Drawing

    scale = 1 << bits
    values = {v: Fraction(round(p[ma] * scale), scale)
              for v, p in polygon_coords(poly).items()}
    for u, j in rounded.items():
        values[u] = Fraction(j, scale)
    return Drawing(d.graph, {v: (values[v], p[1]) if ma == 0
                             else (p[0], values[v])
                             for v, p in d.coords.items()})


def consistent_with_y(weights, y) -> bool:
    """Does the weighted neighbour average reproduce every internal y?"""
    acc = {}
    for (u, v), w in weights.items():
        acc[u] = acc.get(u, 0) + w * y[v]
    return all(acc[u] == y[u] for u in acc)


def step_at(step, t):
    """The Drawing at parameter t of the straight-line interpolation of a
    MorphStep. For t = p/q, the moving coordinate of each vertex is
    (q - p) * start + p * end, over q times both dens."""
    from convexmorph.plane_graph import Drawing

    if t == 0:
        return step.start
    if t == 1:
        return step.end
    tt = Fraction(t)
    p, q = tt.numerator, tt.denominator
    s_den, e_den = step.start.den, step.end.den
    ws, we = (q - p) * e_den, p * s_den
    fix = q * e_den
    mov = step.direction.moving_axis
    end = step.end.ints
    ints = {}
    for v, a in step.start.ints.items():
        val = ws * a[mov] + we * end[v][mov]
        ints[v] = (val, fix * a[1]) if mov == 0 else (fix * a[0], val)
    return Drawing.from_ints(step.start.graph, ints, q * s_den * e_den)


def convexity_increasing_sampled(seq, graph_of_record=None) -> bool:
    """verify.check_convexity_increasing with each step's midpoint tested
    as well as its end: once an inner angle of the graph of record is
    convex or straight at an event end, it must stay so at every later
    step's midpoint and end. An angle a, v, b is convex or straight when
    neither neighbour is at the apex and the walk turns left at v, or goes
    straight on."""
    from convexmorph.steps import MorphStep

    g = graph_of_record if graph_of_record is not None else seq.initial.graph
    triples = []
    for f in g.inner_face_indices():
        walk = g.face_vertices(f)
        k = len(walk)
        triples += [(walk[i - 1], walk[i], walk[(i + 1) % k])
                    for i in range(k)]

    def convex(d, tri):
        a, v, b = (d.coords[w] for w in tri)
        if a == v or b == v:
            return False
        turn = _orient(a, v, b)
        dot = (v[0] - a[0]) * (b[0] - v[0]) + (v[1] - a[1]) * (b[1] - v[1])
        return turn > 0 or (turn == 0 and dot > 0)

    settled = {tri for tri in triples if convex(seq.initial, tri)}
    for ev in seq.events:
        if isinstance(ev, MorphStep):
            for d in (step_at(ev, Fraction(1, 2)), ev.end):
                if not all(convex(d, tri) for tri in settled):
                    return False
        settled |= {tri for tri in triples if convex(ev.end, tri)}
    return True


def check_planarity_sampled(step, samples=9) -> bool:
    """Exact planarity of the interpolated drawing of a one-axis step at
    t = i/(samples+1), i = 1..samples."""
    from convexmorph.plane_graph import drawing_is_planar

    for i in range(1, samples + 1):
        d = step_at(step, Fraction(i, samples + 1))
        if not drawing_is_planar(step.start.graph, d.coords):
            return False
    return True


def validate_face_orientations(d):
    """The face-orientation check plane_graph.validate_drawing made before
    it became the input check of convexify: planarity, then every face walk
    a simple cycle, the outer one clockwise and every inner one
    counterclockwise. Raises NotPlanarInput or EmbeddingInvalid."""
    from convexmorph.plane_graph import (
        EmbeddingInvalid, NotPlanarInput, _area2, drawing_is_planar)

    g = d.graph
    if not drawing_is_planar(g, d.ints):
        raise NotPlanarInput("edges cross, overlap, or vertices coincide")
    outer = g.outer_face_index
    for fi in range(len(g.faces)):
        walk = g.face_vertices(fi)
        if len(set(walk)) != len(walk):
            raise EmbeddingInvalid(f"face {fi} walk is not a simple cycle")
        area2 = _area2(d.ints, walk)
        if fi == outer and area2 >= 0:
            raise NotPlanarInput("outer face walk is not clockwise")
        if fi != outer and area2 <= 0:
            raise NotPlanarInput(f"inner face {fi} walk is not counterclockwise")


def add_edge(g, u, v, u_pos, v_pos):
    """g plus edge uv, inserted at u_pos in u's rotation and v_pos in v's."""
    from convexmorph.plane_graph import EmbeddingInvalid, PlaneGraph

    if g.has_edge(u, v):
        raise EmbeddingInvalid(f"edge {u},{v} already present")
    rot = {w: list(nbrs) for w, nbrs in g.rotation.items()}
    rot[u].insert(u_pos, v)
    rot[v].insert(v_pos, u)
    return PlaneGraph(rot, g.outer_dart)


def add_vertex(g, vid, anchors):
    """g plus vertex vid joined to the anchors: (neighbour, position in its
    rotation) pairs in the counterclockwise order around vid."""
    from convexmorph.plane_graph import EmbeddingInvalid, PlaneGraph

    if vid in g.rotation:
        raise EmbeddingInvalid(f"vertex {vid} exists")
    rot = {w: list(nbrs) for w, nbrs in g.rotation.items()}
    for w, pos in anchors:
        rot[w].insert(pos, vid)
    rot[vid] = [w for w, _ in anchors]
    return PlaneGraph(rot, g.outer_dart)


def seg_seg_dist_sq_fraction(a, b, c, d):
    """Squared distance of two non-crossing segments in plain Fraction
    arithmetic, the parameter of the nearest point clamped to [0, 1]: the
    oracle of morph_engine._seg_seg_dist_sq."""
    def pt_seg(p, a, b):
        ab = (b[0] - a[0], b[1] - a[1])
        ap = (p[0] - a[0], p[1] - a[1])
        t = Fraction(ap[0] * ab[0] + ap[1] * ab[1],
                     ab[0] * ab[0] + ab[1] * ab[1])
        t = max(min(t, 1), 0)
        dx, dy = ap[0] - t * ab[0], ap[1] - t * ab[1]
        return dx * dx + dy * dy

    return min(pt_seg(a, c, d), pt_seg(b, c, d),
               pt_seg(c, a, b), pt_seg(d, a, b))


def chain_slopes_fraction(incr, flip, target, eta, rising):
    """tutte_solver._chain_slopes in Fractions, on the rational increments
    incr and with the tilt eta = 2 / e as a Fraction: the oracle of the
    integer version."""
    p = len(incr)
    sgn = 1 if rising else -1
    if p == 1:
        return [target / incr[0]]
    center = Fraction(flip) if flip is not None else Fraction(p, 2)
    s = [sgn * eta * (i - center - Fraction(1, 2)) for i in range(1, p + 1)]
    delta = target - sum(si * ai for si, ai in zip(s, incr))
    if delta > 0:
        hi = p - 1 if rising else 0
        s[hi] += delta / incr[hi]
    elif delta < 0:
        lo = 0 if rising else p - 1
        s[lo] += delta / incr[lo]
    return s


def chain_shape_kept(s, flip, rising) -> bool:
    """Are the slopes s strictly increasing (rising) or decreasing, and
    do slopes 1..flip point one way and the rest the other: left (negative)
    first on a rising chain, right first on a falling one?"""
    seq = s if rising else [-v for v in s]
    if any(b <= a for a, b in zip(seq, seq[1:])):
        return False
    if flip is None:
        return True
    before = -1 if rising else 1
    return all((v > 0) - (v < 0) == (before if i <= flip else -before)
               for i, v in enumerate(s, start=1))


def dyadic_sqrt_floor(x, bits):
    """The largest m * 2^-j not above sqrt(x) with 2^(bits-1) <= m <
    2^bits, for a positive Fraction x: the oracle of
    morph_engine._dyadic_sqrt_floor. x is scaled by powers of 4 into
    [4^(bits-1), 4^bits), and m is one isqrt of its floor."""
    j = 0
    while x * Fraction(4) ** j < 4 ** (bits - 1):
        j += 1
    while x * Fraction(4) ** j >= 4 ** bits:
        j -= 1
    return math.isqrt(math.floor(x * Fraction(4) ** j)) / Fraction(2) ** j


def buffer_geometry_at(d, path, shrink):
    """One pocket's buffer points at the given shrink, in Fractions: the
    oracle of morph_engine._buffer_geometry, whose (J, spine) gives each
    point as (base + shrink * offset) / (d.den * 2^J). Each offset is a
    length t times a vector W on the integer view d.ints, over d.den: t is
    the largest dyadic of morph_engine._OFFSET_BITS significant bits whose
    offset stays within eps/4 (eps the pocket's least distance between
    non-adjacent segments) and, at the end midpoints, within 1/(2k+4) of
    the hull segment. An apex's W is v1 |v2|^2 + v2 |v1|^2 off its path
    edges v1, v2, turned back at a reflex angle, and v2's perpendicular at
    a straight one."""
    from convexmorph.morph_engine import (
        _OFFSET_BITS, _min_pair, _seg_seg_dist_sq)
    from convexmorph.plane_graph import AngleKind, angle_status_points

    def floor(x):
        return dyadic_sqrt_floor(x, _OFFSET_BITS)

    def at(base, t, w):
        return tuple((b + shrink * t * c) / d.den for b, c in zip(base, w))

    ip = [d.ints[v] for v in path]
    kk = len(path) - 2
    e0, e1 = ip[0], ip[-1]
    evec = (e1[0] - e0[0], e1[1] - e0[1])
    t_end = floor(Fraction(1, (2 * kk + 4) ** 2))
    if kk >= 2:
        cyc = ip + [ip[0]]
        segs = [(cyc[i], cyc[i + 1]) for i in range(len(ip))]
        n_seg = len(segs)
        eps_sq = Fraction(*_min_pair(
            _seg_seg_dist_sq(*segs[i], *segs[j])
            for i in range(n_seg) for j in range(i + 2, n_seg)
            if not (i == 0 and j == n_seg - 1)))
        t_end = min(t_end, floor(
            eps_sq / (16 * (evec[0] * evec[0] + evec[1] * evec[1]))))
    first, last = at(e0, t_end, evec), at(e1, -t_end, evec)
    if kk == 1:
        m = ((first[0] + last[0]) / 2, (first[1] + last[1]) / 2)
        p1 = (Fraction(ip[1][0], d.den), Fraction(ip[1][1], d.den))
        return [first, (m[0] + shrink / 8 * (p1[0] - m[0]),
                        m[1] + shrink / 8 * (p1[1] - m[1])), last]
    apexes = []
    for i in range(1, kk + 1):
        pv = ip[i]
        v1 = (ip[i - 1][0] - pv[0], ip[i - 1][1] - pv[1])
        v2 = (ip[i + 1][0] - pv[0], ip[i + 1][1] - pv[1])
        l1 = v1[0] * v1[0] + v1[1] * v1[1]
        l2 = v2[0] * v2[0] + v2[1] * v2[1]
        w = (v1[0] * l2 + v2[0] * l1, v1[1] * l2 + v2[1] * l1)
        kind = angle_status_points(ip[i + 1], pv, ip[i - 1])
        if kind is AngleKind.REFLEX:
            w = (-w[0], -w[1])
        elif kind is AngleKind.STRAIGHT:
            w = (v2[1], -v2[0])
        t = floor(eps_sq / (16 * (w[0] * w[0] + w[1] * w[1])))
        apexes.append(at(pv, t, w))
    spine = [first]
    for a, b in zip(apexes, apexes[1:]):
        spine += [a, ((a[0] + b[0]) / 2, (a[1] + b[1]) / 2)]
    return spine + [apexes[-1], last]


def buffer_shrink_ladder(d, rungs=12):
    """The buffer placement found by halving every offset: for k = 0, 1,
    ... below rungs, place the buffer paths at shrink 2^-k, rebuild the
    padded graph from its points and run every check of
    morph_engine.augment_buffers; the first k that passes all of them.
    (k, padded drawing, spines), or None when no rung passes."""
    from convexmorph.connectivity import is_internally_3connected
    from convexmorph.morph_engine import _hull_gaps, _pocket_descriptor
    from convexmorph.plane_graph import (
        Drawing, build_plane_graph_from_points, convex_hull, integer_points,
        validate_drawing)

    g = d.graph
    outer = g.outer_walk()
    hull = convex_hull(d)
    paths = [_pocket_descriptor(outer, a, b)
             for a, b in _hull_gaps(d, hull)]
    hull_set = set(hull)
    next_id = max(g.rotation) + 1
    spines = []
    for path in paths:
        spines.append(tuple(range(next_id, next_id + 2 * len(path) - 3)))
        next_id += 2 * len(path) - 3
    for k in range(rungs):
        coords = d.coords
        edges = list(g.edges())
        for path, spine in zip(paths, spines):
            coords.update(zip(spine, buffer_geometry_at(
                d, path, Fraction(1, 1 << k))))
            chain = (path[0],) + spine + (path[-1],)
            edges.extend(zip(chain, chain[1:]))
            for i in range(1, len(path) - 1):
                edges.extend((path[i], spine[j])
                             for j in (2 * i - 2, 2 * i - 1, 2 * i))
        try:
            g_new = build_plane_graph_from_points(integer_points(coords),
                                                  edges)
            d_new = Drawing(g_new, coords)
            validate_drawing(d_new)
        except ValueError:
            continue
        if not is_internally_3connected(g_new):
            continue
        if set(convex_hull(d_new)) != hull_set.union(
                *((sp[0], sp[-1]) for sp in spines)):
            continue
        ow = set(g_new.outer_walk())
        if all(set(sp) <= ow and not any(w in ow for w in path[1:-1])
               for path, sp in zip(paths, spines)):
            return k, d_new, tuple(spines)
    return None


def sweep_records_fraction(d, direction):
    """verify._sweep_records with every crossing keyed by its exact
    Fraction position: the oracle of the integer keys."""
    fa = direction.fixed_axis
    ma = direction.moving_axis
    pts = {v: (2 * p[0], 2 * p[1]) for v, p in d.ints.items()}
    levels = sorted({p[fa] for p in pts.values()})
    index = {lv: i for i, lv in enumerate(levels)}
    level_items = [[] for _ in levels]
    strip_items = [[] for _ in range(max(len(levels) - 1, 0))]
    for v, p in pts.items():
        level_items[index[p[fa]]].append((p[ma], 0, ("v", v)))
    for u, v in d.graph.edges():
        pu, pv = pts[u], pts[v]
        if pu[fa] == pv[fa]:
            level_items[index[pu[fa]]].append(
                (min(pu[ma], pv[ma]), 1, ("h", u, v)))
            continue
        if pu[fa] > pv[fa]:
            pu, pv = pv, pu
        lo, hi = index[pu[fa]], index[pv[fa]]
        run = pv[ma] - pu[ma]
        rise = pv[fa] - pu[fa]

        def at(level):
            return Fraction(pu[ma] * rise + (level - pu[fa]) * run, rise)

        for li in range(lo + 1, hi):
            level_items[li].append((at(levels[li]), 2, ("e", u, v)))
        for si in range(lo, hi):
            strip_items[si].append(
                (at((levels[si] + levels[si + 1]) // 2), ("e", u, v)))
    return ([tuple(it[-1] for it in sorted(items)) for items in level_items],
            [tuple(it[-1] for it in sorted(items)) for items in strip_items])


def shear_ok(g, pts, axis, lam, straddle=None, pins=()) -> bool:
    """Does the shear by lam along the moving axis of the integer view pts
    of a drawing of g satisfy choose_safe_shear's constraints straddle and
    pins? The whole drawing is sheared, with the
    moving coordinate m + lam*f of lam = a/b taken times b, as b*m + a*f,
    and each constraint tested on the sheared points: the test
    choose_safe_shear once ran on each candidate."""
    from convexmorph.plane_graph import rat, straddles, unique_extreme

    lam = rat(lam)
    a, b = lam.numerator, lam.denominator
    if a == 0:
        sheared = pts
    elif axis == 0:
        sheared = {v: (b * x + a * y, y) for v, (x, y) in pts.items()}
    else:
        sheared = {v: (x, b * y + a * x) for v, (x, y) in pts.items()}
    for u, v in g.edges():
        if sheared[u][axis] == sheared[v][axis]:
            return False
    if straddle is not None and not straddles(g, sheared, straddle, axis):
        return False
    return all(unique_extreme(sheared, vtx, side) for vtx, side in pins)


def coarsest_dyadic_fraction(lo, hi) -> Fraction:
    """The coarsest dyadic strictly between the Fractions lo < hi: on the
    grids 1, 1/2, 1/4, ... in turn, a point of the first grid that holds
    one, on the integer grid the one nearest 0."""
    first, last = math.floor(lo) + 1, math.ceil(hi) - 1
    if first <= last:
        return Fraction(0 if first <= 0 <= last
                        else min(first, last, key=abs))
    step = Fraction(1)
    while True:
        step /= 2
        j = math.floor(lo / step) + 1
        if j * step < hi:
            return j * step


def gap_factors(roots):
    """One factor in each open gap around the sorted distinct roots, in
    ascending order: the floor of the least less 1, the coarsest dyadic in
    the middle third of each gap between consecutive roots, and the
    ceiling of the greatest plus 1, each a Fraction."""
    if not roots:
        return
    yield Fraction(math.floor(roots[0]) - 1)
    for a, b in zip(roots, roots[1:]):
        yield coarsest_dyadic_fraction((2 * a + b) / 3, (a + 2 * b) / 3)
    yield Fraction(math.ceil(roots[-1]) + 1)


def shear_candidates(g, pts, axis, straddle=None, pins=()):
    """choose_safe_shear's candidates in the order tried: its ladder of
    small factors, then one factor in each gap around the critical
    factors, sorted once (gap_factors)."""
    from convexmorph.plane_graph import _SHEAR_LADDER

    yield from _SHEAR_LADDER
    roots = []
    i_mov, i_fix = axis, 1 - axis

    def root_of(u, w):
        f = pts[u][i_fix] - pts[w][i_fix]
        if f:
            roots.append(Fraction(pts[w][i_mov] - pts[u][i_mov], f))

    for u, v in g.edges():
        root_of(u, v)
    if straddle is not None:
        walk = g.face_vertices(straddle.face)
        k = len(walk)
        vtx = walk[straddle.pos % k]
        for w in (walk[(straddle.pos - 1) % k], walk[(straddle.pos + 1) % k]):
            root_of(w, vtx)
    for vtx, _ in pins:
        for w in pts:
            if w != vtx:
                root_of(vtx, w)
    yield from gap_factors(sorted(set(roots)))


def choose_safe_shear_scan(d, axis, straddle=None, pins=()):
    """The first of shear_candidates that shear_ok accepts, or None: the
    scan that choose_safe_shear replaced."""
    for lam in shear_candidates(d.graph, d.ints, axis, straddle, pins):
        if shear_ok(d.graph, d.ints, axis, lam, straddle, pins):
            return lam
    return None


def position_system(rows, rhs):
    """A square system keyed by vertex, {u: {v: a_uv}} and {u: b_u}, in the
    form tutte_solver.RoundedSolution and _float_lu take: (ids, cols,
    coefs, rhs), the unknown at position e being ids[e] (ids in increasing
    order), row e holding coefs[e] at the positions cols[e] with its
    diagonal first, and rhs[e] its right-hand side."""
    ids = sorted(rows)
    pos = {u: e for e, u in enumerate(ids)}
    cols, coefs = [], []
    for u in ids:
        order = [u] + [v for v in rows[u] if v != u]
        cols.append([pos[v] for v in order])
        coefs.append([rows[u].get(v, 0) for v in order])
    return ids, cols, coefs, [rhs[u] for u in ids]


def vertex_system(ids, cols, coefs, rhs):
    """The inverse of position_system: the rows {u: {v: a_uv}} and
    right-hand sides {u: b_u} of a system indexed by position."""
    return ({ids[e]: {ids[f]: a for f, a in zip(c, row)}
             for e, (c, row) in enumerate(zip(cols, coefs))},
            dict(zip(ids, rhs)))


def float_lu_scan(cols, vals):
    """tutte_solver._float_lu picking each pivot by a scan of every
    remaining row for the least (Markowitz product, position) on the same
    structurally symmetric copy (explicit zeros added), with a column index
    to count each column: the pivot order the heap must reproduce, and the
    same eliminations, (pivot, pivot entry, rest of its row, multipliers
    in increasing order of row)."""
    rows = [dict(zip(c, v)) for c, v in zip(cols, vals)]
    for e, c in enumerate(cols):
        for v in c:
            rows[v].setdefault(e, 0.0)
    col_index = {v: set() for v in range(len(rows))}
    for e, r in enumerate(rows):
        for v in r:
            col_index[v].add(e)
    steps = []
    while col_index:
        p = min(col_index, key=lambda e: (
            (len(rows[e]) - 1) * (len(col_index[e]) - 1), e))
        prow = rows[p]
        for v in prow:
            col_index[v].discard(p)
        piv = prow.pop(p)
        mults = []
        for e in sorted(col_index.pop(p)):
            r = rows[e]
            f = r.pop(p) / piv
            mults.append((e, f))
            for v, c in prow.items():
                if v not in r:
                    r[v] = 0.0
                    col_index[v].add(e)
                r[v] -= f * c
        steps.append((p, piv, prow, mults))
    return steps


def ccw_order_sort(pts, v, nbrs):
    """The neighbours nbrs of v in counterclockwise order of their
    directions from v over the integer points pts, from the positive x
    axis: a sort by comparison, half-plane first ([0, pi) before
    [pi, 2 pi)) and then the sign of the cross product, stable for
    neighbours in one direction. The reference for plane_graph._ccw_order."""
    def half(d):
        return 0 if d[1] > 0 or (d[1] == 0 and d[0] > 0) else 1

    dirs = {w: (pts[w][0] - pts[v][0], pts[w][1] - pts[v][1]) for w in nbrs}

    def cmp(a, b):
        da, db = dirs[a], dirs[b]
        if half(da) != half(db):
            return half(da) - half(db)
        c = da[0] * db[1] - da[1] * db[0]
        return (c < 0) - (c > 0)

    return tuple(sorted(nbrs, key=functools.cmp_to_key(cmp)))


def embed_by_area(coords, edge_list):
    """plane_graph.build_plane_graph_from_points as it once ran: every
    rotation sorted by ccw_order_sort, and the outer face the one face whose
    shoelace sum is negative (EmbeddingInvalid unless exactly one is), its
    outer dart the first dart of its traced walk."""
    from convexmorph.plane_graph import (
        EmbeddingInvalid, PlaneGraph, integer_points)

    pts = integer_points(coords)
    adj = {v: [] for v in coords}
    for u, v in edge_list:
        adj[u].append(v)
        adj[v].append(u)
    rotation = {v: ccw_order_sort(pts, v, nbrs) for v, nbrs in adj.items()}
    some = next((v for v, nbrs in rotation.items() if nbrs), None)
    if some is None:
        raise EmbeddingInvalid("graph has no edge")
    g = PlaneGraph(rotation, (some, rotation[some][0]))
    if len(g.faces) == 1:
        return g
    negative = [fi for fi in range(len(g.faces))
                if brute_area2(pts, g.face_vertices(fi)) < 0]
    if len(negative) != 1:
        raise EmbeddingInvalid("outer face is ambiguous; drawing is degenerate")
    walk = g.face_vertices(negative[0])
    return g.with_outer((walk[0], walk[1]))


def convex_hull_reinsert(d):
    """plane_graph.convex_hull as it once ran: a monotone chain that pops on
    every turn that is not strictly left, then each point on a hull edge
    re-inserted in order along that edge by a scan of all the points."""
    from convexmorph.plane_graph import AllCollinear

    pts = sorted(d.ints.items(), key=lambda kv: (kv[1][0], kv[1][1]))
    if len(pts) < 3:
        raise AllCollinear("fewer than three vertices")
    if all(_orient(pts[0][1], pts[1][1], p) == 0 for _, p in pts[2:]):
        raise AllCollinear("all vertices collinear")

    def chain(points):
        out = []
        for vid, p in points:
            while len(out) >= 2 and _orient(out[-2][1], out[-1][1], p) <= 0:
                out.pop()
            out.append((vid, p))
        return out

    strict = chain(pts)[:-1] + chain(pts[::-1])[:-1]
    on_hull = {vid for vid, _ in strict}
    result = []
    for i, (vid, p) in enumerate(strict):
        q = strict[(i + 1) % len(strict)][1]
        result.append(vid)
        between = [(wid, r) for wid, r in pts if wid not in on_hull
                   and _orient(p, q, r) == 0
                   and (r[0] - p[0]) * (q[0] - r[0])
                   + (r[1] - p[1]) * (q[1] - r[1]) > 0]
        between.sort(key=lambda kv: (kv[1][0] - p[0]) * (q[0] - p[0])
                     + (kv[1][1] - p[1]) * (q[1] - p[1]))
        result.extend(w for w, _ in between)
    return result

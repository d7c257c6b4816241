"""Plane graphs with a fixed combinatorial embedding, and exact drawings.

A PlaneGraph stores, for every vertex, the counterclockwise cyclic order of its
neighbors plus one dart (directed edge) that lies on the outer face walk.
Coordinates live in a separate Drawing so one graph can be drawn many times.

Convention: face walks keep the face interior on the LEFT of the walk
direction, so inner faces come out counterclockwise and the outer face walk is
clockwise.

Coordinates are exact rationals, but the sign tests over a whole drawing
(planarity, face orientation, convexity, hull, rotations, shear choice) read
its integer view: integer_points multiplies every coordinate by one positive
integer L, the lcm of all their denominators, and returns Python-int pairs.
A uniform positive scale multiplies every coordinate difference by L and
every cross and dot product by L^2, so every orientation and dot-product
sign, every order along an axis and every ratio of differences is the one of
the rational drawing. Each predicate therefore decides exactly what it would
decide on the rationals, and a rational it returns (a shear factor built
from ratios of differences) is the same number. The integers cost no gcd per
operation, and no float enters any predicate.

A drawing of a connected plane graph whose inner face walks are strictly
convex counterclockwise polygons and whose outer walk is a strictly convex
clockwise one, each winding once, is planar and realizes its rotations:
every edge is walked once each way, so around a point off the drawing the
inner walks' winding numbers sum to 1 inside the outer polygon and 0
outside, and each is 1 inside its own polygon only, so the inner faces
tile the outer polygon (the degree argument of Floater, "One-to-one
piecewise linear mappings over triangulations", Math. Comp. 2003).
is_strictly_convex decides this, so where it holds the segment sweep of
drawing_is_planar and a rotation check add nothing.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

try:
    from gmpy2 import mpq as _mpq
except ImportError:  # pragma: no cover
    from fractions import Fraction as _mpq


class EmbeddingInvalid(ValueError):
    """Rotation system is not a valid connected planar embedding."""


class DegenerateAngle(ValueError):
    """Angle query where a neighbor coincides with the apex."""


class AllCollinear(ValueError):
    """Convex hull of a drawing whose points are all on one line."""


class NoValidShear(ValueError):
    """No shear factor satisfies the requested constraints."""


class NotPlanarInput(ValueError):
    """Drawing has crossing edges, overlapping edges, or coincident vertices."""


class PreconditionViolated(ValueError):
    """Input breaks a documented precondition of the operation."""


_RATIONAL = type(_mpq(0))


def rat(p, q=1):
    """Exact rational scalar p/q. A value that is already a rational is
    returned unchanged (when q is 1); a float becomes the rational it
    denotes."""
    if isinstance(p, _RATIONAL) and q == 1:
        return p
    if isinstance(p, float):
        num, den = p.as_integer_ratio()
        return _mpq(num, den) / q
    return _mpq(p, q)


def integer_points(coords: Dict[int, Tuple]) -> Dict[int, Tuple[int, int]]:
    """The integer view of coords: every coordinate times the lcm of all
    their denominators, as a pair of ints per vertex. Every sign test over
    the points decides the same on this view (see the module docstring)."""
    pts = [(v, rat(p[0]), rat(p[1])) for v, p in coords.items()]
    scale = math.lcm(*(c.denominator for _, x, y in pts for c in (x, y)))
    return {v: (x.numerator * (scale // x.denominator),
                y.numerator * (scale // y.denominator))
            for v, x, y in pts}


def unique_extreme(coords: Dict[int, Tuple], vtx: int, side: str) -> bool:
    """Is vtx strictly beyond every other point on side: 'left' or 'right'
    (in x), 'bottom' or 'top' (in y)?"""
    axis = 0 if side in ("left", "right") else 1
    pv = coords[vtx][axis]
    if side in ("left", "bottom"):
        return all(w == vtx or pv < p[axis] for w, p in coords.items())
    return all(w == vtx or pv > p[axis] for w, p in coords.items())


def sign_of(v) -> int:
    """Exact sign of a scalar: -1, 0 or +1."""
    if v > 0:
        return 1
    if v < 0:
        return -1
    return 0


def orientation(p, q, r) -> int:
    """Sign of the cross product (q - p) x (r - p): +1 left turn, -1 right."""
    return sign_of((q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0]))


def _cross(a, b):
    return a[0] * b[1] - a[1] * b[0]


def _dot(a, b):
    return a[0] * b[0] + a[1] * b[1]


def _sub(a, b):
    return (a[0] - b[0], a[1] - b[1])


Dart = Tuple[int, int]


class PlaneGraph:
    """Simple connected graph with a rotation system and a designated outer face.

    rotation maps each vertex to the tuple of its neighbors in counterclockwise
    order; outer_dart is a dart (u, v) whose face walk is the outer face.
    """

    __slots__ = ("rotation", "outer_dart", "_faces", "_dart_face", "_prev_idx")

    def __init__(self, rotation: Dict[int, Sequence[int]], outer_dart: Dart,
                 check: bool = True):
        self.rotation = {v: tuple(nbrs) for v, nbrs in rotation.items()}
        self.outer_dart = (outer_dart[0], outer_dart[1])
        self._faces = None
        self._dart_face = None
        self._prev_idx = None
        if check:
            self._validate()

    # -- basic accessors ---------------------------------------------------

    @property
    def vertices(self) -> List[int]:
        return sorted(self.rotation)

    @property
    def n(self) -> int:
        return len(self.rotation)

    @property
    def m(self) -> int:
        return sum(len(nbrs) for nbrs in self.rotation.values()) // 2

    def neighbors(self, v: int) -> Tuple[int, ...]:
        return self.rotation[v]

    def degree(self, v: int) -> int:
        return len(self.rotation[v])

    def edges(self) -> List[Dart]:
        return [(u, v) for u in self.rotation for v in self.rotation[u] if u < v]

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.rotation.get(u, ())

    def adjacency(self) -> Dict[int, Tuple[int, ...]]:
        return dict(self.rotation)

    # -- validation --------------------------------------------------------

    def _validate(self):
        rot = self.rotation
        if not rot:
            raise EmbeddingInvalid("empty graph")
        for v, nbrs in rot.items():
            if v in nbrs:
                raise EmbeddingInvalid(f"self-loop at {v}")
            if len(set(nbrs)) != len(nbrs):
                raise EmbeddingInvalid(f"parallel edges at {v}")
            for w in nbrs:
                if w not in rot:
                    raise EmbeddingInvalid(f"dangling neighbor {w} at {v}")
                if v not in rot[w]:
                    raise EmbeddingInvalid(f"asymmetric edge {v},{w}")
        # connectivity
        start = next(iter(rot))
        seen = {start}
        stack = [start]
        while stack:
            x = stack.pop()
            for w in rot[x]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        if len(seen) != len(rot):
            raise EmbeddingInvalid("graph is not connected")
        u, v = self.outer_dart
        if u not in rot or v not in rot[u]:
            raise EmbeddingInvalid(f"outer dart {self.outer_dart} is not a dart")
        # Euler check certifies planarity of the rotation system
        n, m, f = self.n, self.m, len(self.faces)
        if n - m + f != 2:
            raise EmbeddingInvalid(f"Euler check failed: n={n} m={m} f={f}")

    # -- face tracing --------------------------------------------------------

    def _build_faces(self):
        prev_idx = {}
        for v, nbrs in self.rotation.items():
            for i, w in enumerate(nbrs):
                prev_idx[(v, w)] = nbrs[i - 1]
        faces = []
        dart_face = {}
        for start in sorted(self.rotation):
            for w in self.rotation[start]:
                if (start, w) in dart_face:
                    continue
                walk = []
                d = (start, w)
                while d not in dart_face:
                    dart_face[d] = len(faces)
                    walk.append(d)
                    # next dart continues past the head, keeping interior left
                    d = (d[1], prev_idx[(d[1], d[0])])
                faces.append(tuple(walk))
        self._faces = faces
        self._dart_face = dart_face
        self._prev_idx = prev_idx

    @property
    def faces(self) -> List[Tuple[Dart, ...]]:
        if self._faces is None:
            self._build_faces()
        return self._faces

    @property
    def outer_face_index(self) -> int:
        if self._dart_face is None:
            self._build_faces()
        return self._dart_face[self.outer_dart]

    def face_of_dart(self, d: Dart) -> int:
        if self._dart_face is None:
            self._build_faces()
        return self._dart_face[d]

    def face_vertices(self, idx: int) -> Tuple[int, ...]:
        return tuple(d[0] for d in self.faces[idx])

    def inner_face_indices(self) -> List[int]:
        out = self.outer_face_index
        return [i for i in range(len(self.faces)) if i != out]

    def outer_walk(self) -> Tuple[int, ...]:
        return self.face_vertices(self.outer_face_index)

    # -- derived graphs ------------------------------------------------------

    def with_outer(self, dart: Dart) -> "PlaneGraph":
        g = PlaneGraph(self.rotation, dart, check=False)
        g._faces = self._faces
        g._dart_face = self._dart_face
        g._prev_idx = self._prev_idx
        if g._dart_face is not None and dart not in g._dart_face:
            raise EmbeddingInvalid(f"{dart} is not a dart")
        return g

    def add_edge(self, u: int, v: int, u_pos: int, v_pos: int,
                 outer_dart: Optional[Dart] = None) -> "PlaneGraph":
        if self.has_edge(u, v):
            raise EmbeddingInvalid(f"edge {u},{v} already present")
        rot = dict(self.rotation)
        ru, rv = list(rot[u]), list(rot[v])
        ru.insert(u_pos, v)
        rv.insert(v_pos, u)
        rot[u], rot[v] = tuple(ru), tuple(rv)
        return PlaneGraph(rot, outer_dart or self.outer_dart)

    def remove_edge(self, u: int, v: int,
                    outer_dart: Optional[Dart] = None) -> "PlaneGraph":
        rot = dict(self.rotation)
        rot[u] = tuple(w for w in rot[u] if w != v)
        rot[v] = tuple(w for w in rot[v] if w != u)
        dart = outer_dart or self.outer_dart
        if set(dart) == {u, v} and outer_dart is None:
            raise EmbeddingInvalid("outer dart removed; pass a replacement")
        return PlaneGraph(rot, dart)

    def add_vertex(self, vid: int, anchors: Sequence[Tuple[int, int]],
                   outer_dart: Optional[Dart] = None) -> "PlaneGraph":
        """Add vid adjacent to the anchor vertices.

        anchors lists (neighbor, position in that neighbor's rotation) in the
        counterclockwise order the neighbors shall have around vid.
        """
        if vid in self.rotation:
            raise EmbeddingInvalid(f"vertex {vid} exists")
        rot = dict(self.rotation)
        for w, pos in anchors:
            rw = list(rot[w])
            rw.insert(pos, vid)
            rot[w] = tuple(rw)
        rot[vid] = tuple(w for w, _ in anchors)
        return PlaneGraph(rot, outer_dart or self.outer_dart)

    def remove_vertex(self, vid: int,
                      outer_dart: Optional[Dart] = None) -> "PlaneGraph":
        rot = {v: tuple(w for w in nbrs if w != vid)
               for v, nbrs in self.rotation.items() if v != vid}
        dart = outer_dart or self.outer_dart
        if vid in dart and outer_dart is None:
            raise EmbeddingInvalid("outer dart removed; pass a replacement")
        return PlaneGraph(rot, dart)

    def mirrored(self) -> "PlaneGraph":
        """Embedding after a reflection: rotations reverse, outer dart flips."""
        rot = {v: tuple(reversed(nbrs)) for v, nbrs in self.rotation.items()}
        return PlaneGraph(rot, (self.outer_dart[1], self.outer_dart[0]),
                          check=False)

    def __eq__(self, other):
        return (isinstance(other, PlaneGraph)
                and self.rotation == other.rotation
                and self.outer_dart == other.outer_dart)

    def __hash__(self):
        return hash((tuple(sorted(self.rotation.items())), self.outer_dart))

    def __repr__(self):
        return f"PlaneGraph(n={self.n}, m={self.m}, outer={self.outer_dart})"


def trace_faces(g: PlaneGraph) -> List[Tuple[Dart, ...]]:
    """All face walks as dart tuples; g.outer_face_index picks the outer one."""
    return g.faces


class Drawing:
    """Straight-line drawing: a PlaneGraph plus coordinates per vertex.

    Coordinates are stored as exact rationals through rat, so an int or
    float coordinate enters as the number it denotes.
    """

    __slots__ = ("graph", "coords")

    def __init__(self, graph: PlaneGraph, coords: Dict[int, Tuple]):
        self.graph = graph
        if set(coords) != set(graph.rotation):
            raise EmbeddingInvalid("coords do not match vertex set")
        self.coords = {v: (rat(p[0]), rat(p[1])) for v, p in coords.items()}

    def point(self, v: int) -> Tuple:
        return self.coords[v]

    def x(self, v: int):
        return self.coords[v][0]

    def y(self, v: int):
        return self.coords[v][1]

    def with_coords(self, coords: Dict[int, Tuple]) -> "Drawing":
        return Drawing(self.graph, coords)

    def transposed(self) -> "Drawing":
        """Swap x and y. A reflection, so the embedding mirrors."""
        return Drawing(self.graph.mirrored(),
                       {v: (p[1], p[0]) for v, p in self.coords.items()})

    def __repr__(self):
        return f"Drawing(n={self.graph.n})"


# -- angles ----------------------------------------------------------------


class AngleKind(Enum):
    STRICTLY_CONVEX = "strictly_convex"
    STRAIGHT = "straight"
    REFLEX = "reflex"


class ReflexKind(Enum):
    H_REFLEX = "h_reflex"          # face neighbors straddle the apex in y
    V_REFLEX = "v_reflex"          # face neighbors straddle the apex in x
    EXTREMUM_MIN = "extremum_min"  # both face neighbors strictly above
    EXTREMUM_MAX = "extremum_max"  # both face neighbors strictly below
    OTHER = "other"


@dataclass(frozen=True)
class AngleStatus:
    kind: AngleKind
    subtypes: frozenset

    @property
    def is_convex(self) -> bool:
        return self.kind is not AngleKind.REFLEX


@dataclass(frozen=True)
class AngleRef:
    """Angle at walk position pos of face face: apex walk[pos]."""
    face: int
    pos: int


def angle_status_points(a, v, b) -> AngleStatus:
    """Status of the angle at apex v on a walk a -> v -> b (interior left)."""
    if a == v or b == v:
        raise DegenerateAngle(f"neighbor coincides with apex {v}")
    turn = sign_of(_cross(_sub(v, a), _sub(b, v)))
    if turn > 0:
        return AngleStatus(AngleKind.STRICTLY_CONVEX, frozenset())
    if turn == 0:
        if sign_of(_dot(_sub(v, a), _sub(b, v))) > 0:
            return AngleStatus(AngleKind.STRAIGHT, frozenset())
        raise DegenerateAngle(f"zero-area spike at apex {v}")
    subs = set()
    sy_a = sign_of(a[1] - v[1])
    sy_b = sign_of(b[1] - v[1])
    sx_a = sign_of(a[0] - v[0])
    sx_b = sign_of(b[0] - v[0])
    if sy_a * sy_b < 0:
        subs.add(ReflexKind.H_REFLEX)
    if sx_a * sx_b < 0:
        subs.add(ReflexKind.V_REFLEX)
    if sy_a > 0 and sy_b > 0:
        subs.add(ReflexKind.EXTREMUM_MIN)
    if sy_a < 0 and sy_b < 0:
        subs.add(ReflexKind.EXTREMUM_MAX)
    if not subs:
        subs.add(ReflexKind.OTHER)
    return AngleStatus(AngleKind.REFLEX, frozenset(subs))


def angle_status(d: Drawing, ref: AngleRef) -> AngleStatus:
    """Status of the face angle ref in drawing d, measured inside that face."""
    walk = d.graph.face_vertices(ref.face)
    k = len(walk)
    a = d.point(walk[(ref.pos - 1) % k])
    v = d.point(walk[ref.pos % k])
    b = d.point(walk[(ref.pos + 1) % k])
    return angle_status_points(a, v, b)


def all_angle_statuses(d: Drawing) -> Dict[AngleRef, AngleStatus]:
    out = {}
    g = d.graph
    for fi, walk_darts in enumerate(g.faces):
        walk = [d.point(t[0]) for t in walk_darts]
        k = len(walk)
        for pos in range(k):
            out[AngleRef(fi, pos)] = angle_status_points(
                walk[(pos - 1) % k], walk[pos], walk[(pos + 1) % k])
    return out


def internal_reflex_angles(d: Drawing) -> List[Tuple[AngleRef, AngleStatus]]:
    """Reflex angles of inner faces, sorted by (apex vertex, face, pos)."""
    g = d.graph
    ints = integer_points(d.coords)
    found = []
    for fi in g.inner_face_indices():
        walk = g.face_vertices(fi)
        k = len(walk)
        pts = [ints[v] for v in walk]
        for pos in range(k):
            st = angle_status_points(pts[(pos - 1) % k], pts[pos],
                                     pts[(pos + 1) % k])
            if st.kind is AngleKind.REFLEX:
                found.append((AngleRef(fi, pos), st, walk[pos]))
    found.sort(key=lambda t: (t[2], t[0].face, t[0].pos))
    return [(ref, st) for ref, st, _ in found]


def internal_reflex_count(d: Drawing) -> int:
    return len(internal_reflex_angles(d))


def is_strictly_convex(d: Drawing) -> bool:
    """Every inner face walk a strictly convex counterclockwise polygon and
    the outer walk a strictly convex clockwise one, each winding once: a
    certificate that d is planar and realizes its rotations (Floater 2003;
    see the module docstring). A walk whose turns are strict, one way and
    each below a half turn changes half-plane (_half) twice per full turn."""
    g = d.graph
    ints = integer_points(d.coords)
    outer = g.outer_face_index
    for fi, walk_darts in enumerate(g.faces):
        turn = -1 if fi == outer else 1
        pts = [ints[t[0]] for t in walk_darts]
        edges = [_sub(q, p) for p, q in zip(pts, pts[1:] + pts[:1])]
        corners = list(zip(edges[-1:] + edges[:-1], edges))
        # a zero edge, a straight angle and a spike all cross to 0
        if any(_cross(a, b) * turn <= 0 for a, b in corners):
            return False
        if sum(_half(a) != _half(b) for a, b in corners) != 2:
            return False
    return True


def is_convex_outer(d: Drawing) -> bool:
    """Outer face angles all at least pi (reflex or straight, measured outside)."""
    ints = integer_points(d.coords)
    walk = [ints[v] for v in d.graph.outer_walk()]
    k = len(walk)
    for pos in range(k):
        try:
            st = angle_status_points(walk[(pos - 1) % k], walk[pos],
                                     walk[(pos + 1) % k])
        except DegenerateAngle:
            return False
        if st.kind is AngleKind.STRICTLY_CONVEX:
            return False
    return True


# -- convex hull -------------------------------------------------------------


def convex_hull(d: Drawing) -> List[int]:
    """Hull vertex ids in counterclockwise order, keeping collinear boundary
    points. Deterministic start: lexicographically smallest point."""
    pts = sorted(integer_points(d.coords).items(),
                 key=lambda kv: (kv[1][0], kv[1][1]))
    if len(pts) < 3:
        raise AllCollinear("fewer than three vertices")
    if all(orientation(pts[0][1], pts[1][1], p) == 0 for _, p in pts[2:]):
        raise AllCollinear("all vertices collinear")

    def chain(points):
        out = []
        for vid, p in points:
            while len(out) >= 2 and orientation(out[-2][1], out[-1][1], p) <= 0:
                out.pop()
            out.append((vid, p))
        return out

    lower = chain(pts)
    upper = chain(list(reversed(pts)))
    strict = lower[:-1] + upper[:-1]
    hull_pts = [p for _, p in strict]
    # re-insert collinear points lying on hull edges, ordered along each edge
    on_hull = {vid for vid, _ in strict}
    result = []
    for i, (vid, p) in enumerate(strict):
        q = hull_pts[(i + 1) % len(strict)]
        result.append(vid)
        between = []
        for wid, r in pts:
            if wid in on_hull:
                continue
            if orientation(p, q, r) == 0 and \
               sign_of(_dot(_sub(r, p), _sub(q, r))) > 0:
                between.append((wid, r))
        between.sort(key=lambda kv: _dot(_sub(kv[1], p), _sub(q, p)))
        result.extend(w for w, _ in between)
    return result


# -- shears ------------------------------------------------------------------


def shear(d: Drawing, axis: str, lam) -> Drawing:
    """Shear the drawing: axis 'x' maps (x,y)->(x+lam*y,y), axis 'y' maps
    (x,y)->(x,y+lam*x)."""
    lam = rat(lam)
    if axis == "x":
        coords = {v: (p[0] + lam * p[1], p[1]) for v, p in d.coords.items()}
    elif axis == "y":
        coords = {v: (p[0], p[1] + lam * p[0]) for v, p in d.coords.items()}
    else:
        raise ValueError(f"axis must be 'x' or 'y', got {axis!r}")
    return d.with_coords(coords)


@dataclass
class ShearConstraints:
    """Constraints for choose_safe_shear.

    no_axis_parallel: after an x-shear no edge may be vertical; after a
        y-shear no edge may be horizontal.
    make_straddle: angle that must straddle the moved axis afterwards (an
        x-shear makes it v-reflex, a y-shear makes it h-reflex).
    keep_extreme: list of (vertex, side) that must stay unique extremes,
        side in {"left", "right", "top", "bottom"}.
    """
    no_axis_parallel: bool = True
    make_straddle: Optional[AngleRef] = None
    keep_extreme: Tuple = ()


def _shear_ok(g: PlaneGraph, pts: Dict[int, Tuple[int, int]], axis: str,
              lam, cons: ShearConstraints) -> bool:
    """Does the shear by lam along axis of the integer view pts of a
    drawing of g satisfy cons? For lam = a/b with b > 0 the sheared moving
    coordinate m + lam*f is taken times b, as b*m + a*f: each test reads
    the order along one axis only, which a positive scale of that axis
    keeps."""
    lam = rat(lam)
    a, b = lam.numerator, lam.denominator
    if axis == "x":
        i = 0
        sheared = {v: (b * x + a * y, y) for v, (x, y) in pts.items()}
    elif axis == "y":
        i = 1
        sheared = {v: (x, b * y + a * x) for v, (x, y) in pts.items()}
    else:
        raise ValueError(f"axis must be 'x' or 'y', got {axis!r}")
    if cons.no_axis_parallel:
        for u, v in g.edges():
            if sheared[u][i] == sheared[v][i]:
                return False
    if cons.make_straddle is not None:
        ref = cons.make_straddle
        walk = g.face_vertices(ref.face)
        k = len(walk)
        pa = sheared[walk[(ref.pos - 1) % k]][i]
        pv = sheared[walk[ref.pos % k]][i]
        pb = sheared[walk[(ref.pos + 1) % k]][i]
        if sign_of(pa - pv) * sign_of(pb - pv) >= 0:
            return False
    return all(unique_extreme(sheared, vtx, side)
               for vtx, side in cons.keep_extreme)


def choose_safe_shear(d: Drawing, axis: str,
                      cons: Optional[ShearConstraints] = None):
    """Pick a shear factor satisfying the constraints.

    Gathers the critical factors where any constraint changes sign and tests
    exact candidates: a ladder of small rationals plus midpoints between
    consecutive critical values. Deterministic; raises NoValidShear if nothing
    passes."""
    cons = cons or ShearConstraints()
    g = d.graph
    pts = integer_points(d.coords)
    for lam in _shear_candidates(g, pts, axis, cons):
        if _shear_ok(g, pts, axis, lam, cons):
            return lam
    raise NoValidShear(f"no usable shear along {axis}")


def _shear_candidates(g: PlaneGraph, pts: Dict[int, Tuple[int, int]],
                      axis: str, cons: ShearConstraints):
    """choose_safe_shear's candidates in the order tried. The critical
    factors are gathered only once the ladder is spent."""
    one = rat(1)
    yield from (one * 0, one, -one, one / 2, -one / 2, 2 * one, -2 * one,
                one / 4, -one / 4, 4 * one, -4 * one)
    roots = []
    i_mov, i_fix = (0, 1) if axis == "x" else (1, 0)

    def root_of(u, w):
        # zero in lam of the sheared moving-axis difference m + lam * f of
        # u and w; the integer view scales m and f alike
        f = pts[u][i_fix] - pts[w][i_fix]
        if f:
            roots.append(rat(pts[w][i_mov] - pts[u][i_mov], f))

    if cons.no_axis_parallel:
        for u, v in g.edges():
            root_of(u, v)
    if cons.make_straddle is not None:
        ref = cons.make_straddle
        walk = g.face_vertices(ref.face)
        k = len(walk)
        vtx = walk[ref.pos % k]
        for w in (walk[(ref.pos - 1) % k], walk[(ref.pos + 1) % k]):
            root_of(w, vtx)
    for vtx, _ in cons.keep_extreme:
        for w in pts:
            if w != vtx:
                root_of(vtx, w)
    if roots:
        rs = sorted(set(roots))
        yield rs[0] - one
        for a, b in zip(rs, rs[1:]):
            yield (a + b) / 2
        yield rs[-1] + one


# -- exact planarity ----------------------------------------------------------


def _segments_conflict(p1, p2, p3, p4, shared: int) -> bool:
    """True if the two closed segments intersect anywhere that planarity
    forbids. shared counts common endpoint vertices (0 or 1)."""
    if shared == 1:
        # identify the shared point; bad only if the other ends fold back
        if p1 == p3:
            s, a, b = p1, p2, p4
        elif p1 == p4:
            s, a, b = p1, p2, p3
        elif p2 == p3:
            s, a, b = p2, p1, p4
        else:
            s, a, b = p2, p1, p3
        if orientation(s, a, b) != 0:
            return False
        return sign_of(_dot(_sub(a, s), _sub(b, s))) > 0
    d1 = orientation(p3, p4, p1)
    d2 = orientation(p3, p4, p2)
    d3 = orientation(p1, p2, p3)
    d4 = orientation(p1, p2, p4)
    if d1 * d2 < 0 and d3 * d4 < 0:
        return True

    def on_seg(p, q, r):
        # r collinear with pq; is it inside the closed segment?
        return (min(p[0], q[0]) <= r[0] <= max(p[0], q[0])
                and min(p[1], q[1]) <= r[1] <= max(p[1], q[1]))

    if d1 == 0 and on_seg(p3, p4, p1):
        return True
    if d2 == 0 and on_seg(p3, p4, p2):
        return True
    if d3 == 0 and on_seg(p1, p2, p3):
        return True
    if d4 == 0 and on_seg(p1, p2, p4):
        return True
    return False


def segments_planar(segments: Sequence[Tuple[Tuple, Tuple, Tuple[int, int]]]) -> bool:
    """Exact pairwise check that the labeled segments only meet at shared
    endpoint labels. Each entry is (point, point, (label_a, label_b)), with
    int or rational coordinates; drawing_is_planar passes integer views."""
    items = []
    for p, q, lab in segments:
        xs = (p[0], q[0])
        ys = (p[1], q[1])
        items.append((min(xs), max(xs), min(ys), max(ys), p, q, lab))
    items.sort(key=lambda t: t[0])
    active = []
    for it in items:
        xmin, xmax, ymin, ymax, p, q, (a, b) = it
        keep = []
        for ot in active:
            if ot[1] < xmin:
                continue
            keep.append(ot)
            if ot[3] < ymin or ymax < ot[2]:
                continue
            shared = (a in ot[6]) + (b in ot[6])
            if shared == 2:
                return False
            if _segments_conflict(p, q, ot[4], ot[5], shared):
                return False
        keep.append(it)
        active = keep
    return True


def drawing_is_planar(g: PlaneGraph, coords: Dict[int, Tuple]) -> bool:
    """Exact straight-line planarity: distinct vertices, no edge conflicts."""
    pts = integer_points(coords)
    if len(set(pts.values())) != len(pts):
        return False
    return segments_planar([(pts[u], pts[v], (u, v)) for u, v in g.edges()])


def validate_drawing(d: Drawing, require_simple_faces: bool = True):
    """Raise NotPlanarInput or EmbeddingInvalid unless d is a valid planar
    straight-line drawing matching its embedding and face orientations."""
    g = d.graph
    if not drawing_is_planar(g, d.coords):
        raise NotPlanarInput("edges cross, overlap, or vertices coincide")
    ints = integer_points(d.coords)
    outer = g.outer_face_index
    for fi, walk_darts in enumerate(g.faces):
        walk = [t[0] for t in walk_darts]
        if len(set(walk)) != len(walk):
            if require_simple_faces:
                raise EmbeddingInvalid(f"face {fi} walk is not a simple cycle")
            continue
        pts = [ints[v] for v in walk]
        area2 = sum(_cross(pts[i], pts[(i + 1) % len(pts)])
                    for i in range(len(pts)))
        s = sign_of(area2)
        if fi == outer and s >= 0:
            raise NotPlanarInput("outer face walk is not clockwise")
        if fi != outer and s <= 0:
            raise NotPlanarInput(f"inner face {fi} walk is not counterclockwise")


# -- angular insertion ---------------------------------------------------------


def ccw_sector_contains(a, x, b) -> bool:
    """Is direction x strictly inside the ccw sector from direction a to b?"""
    ca = sign_of(_cross(a, x))
    cb = sign_of(_cross(x, b))
    cab = sign_of(_cross(a, b))
    if cab > 0:
        return ca > 0 and cb > 0
    if cab < 0:
        return ca > 0 or cb > 0
    if sign_of(_dot(a, b)) < 0:
        return ca > 0
    # a and b point the same way: the sector is the full turn
    return not (ca == 0 and sign_of(_dot(a, x)) > 0)


def angular_insert_position(d: Drawing, v: int, target_point) -> int:
    """Index in rotation[v] where an edge toward target_point belongs so the
    rotation stays the counterclockwise angular order."""
    nbrs = d.graph.rotation[v]
    pv = d.point(v)
    w_dir = _sub(target_point, pv)
    if sign_of(w_dir[0]) == 0 and sign_of(w_dir[1]) == 0:
        raise DegenerateAngle(f"target coincides with vertex {v}")
    if len(nbrs) == 0:
        return 0
    dirs = [_sub(d.point(w), pv) for w in nbrs]
    if len(nbrs) == 1:
        return 1
    for i in range(len(nbrs)):
        if ccw_sector_contains(dirs[i], w_dir, dirs[(i + 1) % len(nbrs)]):
            return i + 1
    raise EmbeddingInvalid(
        f"direction at {v} is parallel to an existing edge")


def _half(dv) -> int:
    """0 for a direction at an angle in [0, pi) from the positive x axis,
    1 for one in [pi, 2 pi)."""
    return 0 if dv[1] > 0 or (dv[1] == 0 and dv[0] > 0) else 1


def sort_ccw(dirs: Sequence[Tuple]) -> List[int]:
    """Indices of the direction vectors in counterclockwise angular order,
    starting at the positive x axis."""
    idx = list(range(len(dirs)))

    def cmp(i, j):
        hi, hj = _half(dirs[i]), _half(dirs[j])
        if hi != hj:
            return -1 if hi < hj else 1
        c = sign_of(_cross(dirs[i], dirs[j]))
        return -c

    return sorted(idx, key=functools.cmp_to_key(cmp))


def build_plane_graph_from_points(coords: Dict[int, Tuple],
                                  edge_list: Iterable[Tuple[int, int]],
                                  check: bool = True) -> PlaneGraph:
    """Embed a straight-line graph: rotations are angular orders, the outer
    face is found by signed area."""
    pts = integer_points(coords)
    adj = {v: [] for v in coords}
    for u, v in edge_list:
        adj[u].append(v)
        adj[v].append(u)
    rotation = {}
    for v, nbrs in adj.items():
        dirs = [_sub(pts[w], pts[v]) for w in nbrs]
        order = sort_ccw(dirs)
        rotation[v] = tuple(nbrs[i] for i in order)
    some = next(iter(rotation))
    g = PlaneGraph(rotation, (some, rotation[some][0]), check=check)
    if len(g.faces) == 1:
        return g
    # shoelace over the walk works with repeats; only the outer walk is negative
    negative = []
    for fi, walk_darts in enumerate(g.faces):
        walk = [pts[t[0]] for t in walk_darts]
        area2 = sum(_cross(walk[i], walk[(i + 1) % len(walk)])
                    for i in range(len(walk)))
        if sign_of(area2) < 0:
            negative.append(fi)
    if len(negative) != 1:
        raise EmbeddingInvalid("outer face is ambiguous; drawing is degenerate")
    return g.with_outer(g.faces[negative[0]][0])

"""Plane graphs with a fixed combinatorial embedding, and exact drawings.

A PlaneGraph stores, for every vertex, the counterclockwise cyclic order of its
neighbors plus one dart (directed edge) that lies on the outer face walk.
Coordinates live in a separate Drawing so one graph can be drawn many times.
Removing an edge or vertex that the outer dart runs along moves the dart to
the first dart of the outer walk that survives, so the outer face stays
named without the caller choosing a new dart.

A PlaneGraph traces its faces once, when it is made, into two tables: each
face's vertex walk, the tuple face_vertices returns on every call, and the
face of every dart. faces derives each face's darts from its walk.
with_outer shares both tables and the rotation, so naming another outer
face traces nothing. The per-face loops (is_strictly_convex,
internal_reflex_angles, the connectivity gates) read these walks.
_area2 is the one shoelace sum over a walk.

Convention: face walks keep the face interior on the LEFT of the walk
direction, so inner faces come out counterclockwise and the outer face walk is
clockwise.

A Drawing stores its coordinates as their integer view: one positive
integer den and, per vertex, a pair of Python ints, the point being the pair
over den. den is the lcm of the denominators of all coordinates, so the form
is canonical (no prime divides den and every coordinate). Every predicate
over a whole drawing (planarity, face orientation, convexity, hull,
rotations, shear choice) reads these ints. A uniform positive scale
multiplies every coordinate difference by den and every cross and dot
product by den^2, so every orientation and dot-product sign, every order
along an axis and every ratio of differences is the one of the rational
drawing. Each predicate therefore decides exactly what it would decide on
the rationals, and a rational it returns (a shear factor built from ratios
of differences) is the same number. Shears and snaps act on the ints and
the den directly, and reduce once. The integers cost no gcd per operation
and no float enters any predicate. Fractions remain where a number is not
a coordinate: shear factors are Fractions (shear takes them and
choose_safe_shear returns them), and Drawing.coords builds them for a
caller that asks. integer_points gives the same view of a plain
coordinate dict.

A drawing of a connected plane graph whose inner face walks are strictly
convex counterclockwise polygons and whose outer walk is a strictly convex
clockwise one, each winding once, is planar and realizes its rotations:
every edge is walked once each way, so around a point off the drawing the
inner walks' winding numbers sum to 1 inside the outer polygon and 0
outside, and each is 1 inside its own polygon only, so the inner faces
tile the outer polygon (the degree argument of Floater, "One-to-one
piecewise linear mappings over triangulations", Math. Comp. 2003).
is_strictly_convex decides this, so where it holds validate_drawing (the
segment sweep of drawing_is_planar, the rotation check and the sign of the
outer walk) adds nothing.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Tuple


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


def rat(p, q=1):
    """Exact rational scalar p/q, a Fraction. A value that is already a
    Fraction is returned unchanged (when q is 1); a float becomes the
    rational it denotes."""
    if isinstance(p, Fraction) and q == 1:
        return p
    if isinstance(p, float):
        num, den = p.as_integer_ratio()
        return Fraction(num, den) / q
    return Fraction(p, q)


def _ratio(c) -> Tuple[int, int]:
    """Numerator and denominator (> 0) of an int, a rational or a float
    (the rational it denotes) as Python ints."""
    try:
        return c.as_integer_ratio()
    except AttributeError:
        r = rat(c)
        return int(r.numerator), int(r.denominator)


def _integer_view(coords: Dict[int, Tuple]
                  ) -> Tuple[Dict[int, Tuple[int, int]], int]:
    """(ints, den): every coordinate times den, the lcm of all their
    denominators, as a pair of ints per vertex. No prime divides den and
    every coordinate of ints, so this is the canonical form of Drawing."""
    pts = [(v, _ratio(p[0]), _ratio(p[1])) for v, p in coords.items()]
    scale = math.lcm(*(q for _, (_, qx), (_, qy) in pts for q in (qx, qy)))
    return {v: (nx * (scale // qx), ny * (scale // qy))
            for v, (nx, qx), (ny, qy) in pts}, scale


def integer_points(coords: Dict[int, Tuple]) -> Dict[int, Tuple[int, int]]:
    """The integer view of a plain coordinate dict: every coordinate times
    the lcm of all their denominators, as a pair of ints per vertex. Every
    sign test over the points decides the same on this view (see the module
    docstring). A Drawing stores its own view as ints."""
    return _integer_view(coords)[0]


def _canonical(ints: Dict[int, Tuple[int, int]], den: int):
    """(ints, den) divided by the gcd of den and every coordinate."""
    g = math.gcd(den, *(c for p in ints.values() for c in p))
    if g == 1:
        return ints, den
    return {v: (x // g, y // g) for v, (x, y) in ints.items()}, den // g


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


def _first_dart(walk: Sequence[int], removed) -> Dart:
    """The first dart of the closed walk for which removed(dart) fails."""
    k = len(walk)
    for i in range(k):
        dart = (walk[i], walk[(i + 1) % k])
        if not removed(dart):
            return dart
    raise EmbeddingInvalid("no dart of the outer walk survives")


class PlaneGraph:
    """Simple connected graph with a rotation system and a designated outer face.

    rotation maps each vertex to the tuple of its neighbors in counterclockwise
    order; outer_dart is a dart (u, v) whose face walk is the outer face.
    """

    __slots__ = ("rotation", "outer_dart", "_walks", "_dart_face")

    def __init__(self, rotation: Dict[int, Sequence[int]], outer_dart: Dart,
                 check: bool = True):
        self.rotation = {v: tuple(nbrs) for v, nbrs in rotation.items()}
        self.outer_dart = (outer_dart[0], outer_dart[1])
        if check:
            self._validate()
        else:
            self._build_faces()

    # -- basic accessors ---------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.rotation)

    @property
    def m(self) -> int:
        return sum(len(nbrs) for nbrs in self.rotation.values()) // 2

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
        self._build_faces()
        if self.outer_dart not in self._dart_face:
            raise EmbeddingInvalid(f"outer dart {self.outer_dart} is not a dart")
        # Euler check certifies planarity of the rotation system
        n, m, f = self.n, self.m, len(self._walks)
        if n - m + f != 2:
            raise EmbeddingInvalid(f"Euler check failed: n={n} m={m} f={f}")

    # -- face tracing --------------------------------------------------------

    def _build_faces(self):
        # the dart after (u, v) leaves v towards the neighbour before u in
        # v's counterclockwise order, keeping the interior left
        succ = {}
        for v, nbrs in self.rotation.items():
            before = nbrs[-1] if nbrs else None
            for u in nbrs:
                succ[(u, v)] = (v, before)
                before = u
        walks = []
        dart_face = {}
        for start in sorted(self.rotation):
            for w in self.rotation[start]:
                d = (start, w)
                if d in dart_face:
                    continue
                fi = len(walks)
                walk = []
                while d not in dart_face:
                    dart_face[d] = fi
                    walk.append(d[0])
                    d = succ[d]
                walks.append(tuple(walk))
        self._walks = walks
        self._dart_face = dart_face

    @property
    def faces(self) -> List[Tuple[Dart, ...]]:
        """The darts of each face, in walk order: the pairs of consecutive
        vertices of its walk, the last back to the first."""
        return [tuple(zip(w, w[1:] + w[:1])) for w in self._walks]

    @property
    def outer_face_index(self) -> int:
        return self._dart_face[self.outer_dart]

    def face_of_dart(self, d: Dart) -> int:
        return self._dart_face[d]

    def face_vertices(self, idx: int) -> Tuple[int, ...]:
        """The vertices of face idx in walk order, the tails of its darts.
        The tuple is the one _build_faces traced: every call returns it."""
        return self._walks[idx]

    def inner_face_indices(self) -> List[int]:
        out = self.outer_face_index
        return [i for i in range(len(self._walks)) if i != out]

    def outer_walk(self) -> Tuple[int, ...]:
        return self.face_vertices(self.outer_face_index)

    # -- derived graphs ------------------------------------------------------

    def with_outer(self, dart: Dart) -> "PlaneGraph":
        """This graph with the outer face named by dart. The rotation and
        both face tables are shared, not copied or traced again."""
        dart = (dart[0], dart[1])
        if dart not in self._dart_face:
            raise EmbeddingInvalid(f"{dart} is not a dart")
        g = object.__new__(PlaneGraph)
        g.rotation, g._walks, g._dart_face = (
            self.rotation, self._walks, self._dart_face)
        g.outer_dart = dart
        return g

    def remove_edge(self, u: int, v: int,
                    outer_dart: Optional[Dart] = None) -> "PlaneGraph":
        """The graph without edge uv. If uv carried the outer dart, the dart
        moves to the first dart of the outer walk that avoids uv, unless
        outer_dart names one (perfbench/make_instances.py passes that same
        dart)."""
        rot = dict(self.rotation)
        rot[u] = tuple(w for w in rot[u] if w != v)
        rot[v] = tuple(w for w in rot[v] if w != u)
        if outer_dart is None:
            outer_dart = self.outer_dart
            if set(outer_dart) == {u, v}:
                outer_dart = _first_dart(self.outer_walk(),
                                         lambda dart: set(dart) == {u, v})
        return PlaneGraph(rot, outer_dart)

    def remove_vertex(self, vids: Iterable[int]) -> "PlaneGraph":
        """The graph without the vertices vids, built and validated once.
        The outer dart moves as removing them one at a time, in the order
        given, would move it: whenever it runs through the next vertex, to
        the first dart avoiding that vertex of the outer walk at that
        point."""
        order = list(dict.fromkeys(vids))
        dart, g = self.outer_dart, self
        for i, vid in enumerate(order):
            if vid in dart:
                if i:
                    g = PlaneGraph(self._rotation_without(order[:i]), dart,
                                   check=False)
                dart = _first_dart(g.outer_walk(), lambda d: vid in d)
        return PlaneGraph(self._rotation_without(order), dart)

    def _rotation_without(self, vids) -> Dict[int, Tuple[int, ...]]:
        gone = set(vids)
        return {v: tuple(w for w in nbrs if w not in gone)
                for v, nbrs in self.rotation.items() if v not in gone}

    def __eq__(self, other):
        return (isinstance(other, PlaneGraph)
                and self.rotation == other.rotation
                and self.outer_dart == other.outer_dart)

    def __repr__(self):
        return f"PlaneGraph(n={self.n}, m={self.m}, outer={self.outer_dart})"


class Drawing:
    """Straight-line drawing: a PlaneGraph plus coordinates per vertex.

    The coordinates are stored as their integer view: ints maps each vertex
    to a pair of ints and den is one positive int, the point of v being
    ints[v] / den. The form is canonical, gcd(den, every coordinate) == 1,
    so two drawings of one graph are equal exactly when their (ints, den)
    are. Drawing(graph, coords) takes ints, Fractions or floats (a float
    enters as the number it denotes); coords builds Fractions only when
    asked.
    """

    __slots__ = ("graph", "ints", "den")

    def __init__(self, graph: PlaneGraph, coords: Dict[int, Tuple]):
        self.graph = graph
        if set(coords) != set(graph.rotation):
            raise EmbeddingInvalid("coords do not match vertex set")
        self.ints, self.den = _integer_view(coords)

    @classmethod
    def from_ints(cls, graph: PlaneGraph, ints: Dict[int, Tuple[int, int]],
                  den: int) -> "Drawing":
        """The drawing of graph with point ints[v] / den for each vertex v
        (den > 0), brought to canonical form."""
        return cls._of(graph, *_canonical(ints, den))

    @classmethod
    def _of(cls, graph, ints, den) -> "Drawing":
        # ints and den already canonical
        d = object.__new__(cls)
        d.graph, d.ints, d.den = graph, ints, den
        return d

    @property
    def coords(self) -> Dict[int, Tuple[Fraction, Fraction]]:
        den = self.den
        return {v: (Fraction(x, den), Fraction(y, den))
                for v, (x, y) in self.ints.items()}

    def with_graph(self, graph: PlaneGraph) -> "Drawing":
        """This drawing on graph, whose vertices are this drawing's or a
        subset of them (an augmented or an edited graph)."""
        if len(graph.rotation) == len(self.ints):
            return Drawing._of(graph, self.ints, self.den)
        return Drawing.from_ints(
            graph, {v: self.ints[v] for v in graph.rotation}, self.den)

    def __repr__(self):
        return f"Drawing(n={self.graph.n})"


def _level_edge(d: Drawing, axis: int) -> Optional[Dart]:
    """The first edge of d whose ends share their coordinate on axis (a
    horizontal edge for axis 1, a vertical one for axis 0), or None."""
    pts = d.ints
    return next(((u, v) for u, v in d.graph.edges()
                 if pts[u][axis] == pts[v][axis]), None)


# -- angles ----------------------------------------------------------------


class AngleKind(Enum):
    STRICTLY_CONVEX = "strictly_convex"
    STRAIGHT = "straight"
    REFLEX = "reflex"


@dataclass(frozen=True)
class AngleRef:
    """Angle at walk position pos of face face: apex walk[pos]."""
    face: int
    pos: int


def angle_status_points(a, v, b) -> AngleKind:
    """Kind of the angle at apex v on a walk a -> v -> b (interior left)."""
    if a == v or b == v:
        raise DegenerateAngle(f"neighbor coincides with apex {v}")
    turn = sign_of(_cross(_sub(v, a), _sub(b, v)))
    if turn > 0:
        return AngleKind.STRICTLY_CONVEX
    if turn == 0:
        if sign_of(_dot(_sub(v, a), _sub(b, v))) > 0:
            return AngleKind.STRAIGHT
        raise DegenerateAngle(f"zero-area spike at apex {v}")
    return AngleKind.REFLEX


def straddles(g: PlaneGraph, pts: Dict[int, Tuple], ref: AngleRef,
              axis: int) -> bool:
    """Do the two face neighbors of angle ref lie strictly on either side
    of its apex along axis (0 for x, 1 for y), in the points pts?"""
    walk = g.face_vertices(ref.face)
    k = len(walk)
    c = pts[walk[ref.pos % k]][axis]
    return (sign_of(pts[walk[(ref.pos - 1) % k]][axis] - c)
            * sign_of(pts[walk[(ref.pos + 1) % k]][axis] - c)) < 0


def internal_reflex_angles(d: Drawing) -> List[AngleRef]:
    """Reflex angles of inner faces, sorted by (apex vertex, face, pos)."""
    g = d.graph
    ints = d.ints
    found = []
    for fi in g.inner_face_indices():
        walk = g.face_vertices(fi)
        k = len(walk)
        ux, uy = ints[walk[-1]]
        vx, vy = ints[walk[0]]
        ax, ay = vx - ux, vy - uy
        for pos in range(k):
            wx, wy = ints[walk[pos + 1 - k]]
            bx, by = wx - vx, wy - vy
            if ax * by - ay * bx <= 0 and angle_status_points(
                    ints[walk[pos - 1]], (vx, vy),
                    (wx, wy)) is AngleKind.REFLEX:
                found.append((walk[pos], fi, pos))
            vx, vy, ax, ay = wx, wy, bx, by
    found.sort()
    return [AngleRef(fi, pos) for _, fi, pos in found]


def _convex_walk(ints: Dict[int, Tuple[int, int]], walk: Sequence[int],
                 turn: int) -> bool:
    """Whether the closed walk over the integer points ints turns strictly
    one way at every corner, left for turn 1 and right for turn -1, and
    winds once. A walk whose turns are strict, one way and each below a
    half turn changes half-plane (as _ccw_order splits directions) twice
    per full turn, so it winds w times when it changes 2w times. One pass
    carries the previous edge and its half-plane; a zero edge, a straight
    angle and a spike all cross to 0."""
    ux, uy = ints[walk[-1]]
    vx, vy = ints[walk[0]]
    ax, ay = vx - ux, vy - uy
    upper = ay > 0 or (ay == 0 and ax > 0)
    changes = 0
    for w in walk[1:] + walk[:1]:
        wx, wy = ints[w]
        bx, by = wx - vx, wy - vy
        if (ax * by - ay * bx) * turn <= 0:
            return False
        b_upper = by > 0 or (by == 0 and bx > 0)
        if b_upper is not upper:
            changes += 1
        vx, vy, ax, ay, upper = wx, wy, bx, by, b_upper
    return changes == 2


def is_strictly_convex(d: Drawing) -> bool:
    """Every inner face walk a strictly convex counterclockwise polygon and
    the outer walk a strictly convex clockwise one, each winding once: a
    certificate that d is planar and realizes its rotations (Floater 2003;
    see the module docstring), and that its graph is internally
    3-connected (see morph_engine.convexify, which runs no other gate on
    such a drawing). An inner triangle u, v, w is decided by one
    comparison of its cross product's two halves, w strictly left of
    u->v: its three corners cross alike, to twice its signed area, and a
    triangle that turns one way winds once. Every longer inner walk goes
    through _convex_walk. The outer walk goes through it once, last,
    turning right, even when it is a triangle: the loop passes over it by
    identity, the traced walks being distinct tuples."""
    g = d.graph
    ints = d.ints
    ow = g.outer_walk()
    for walk in g._walks:
        if len(walk) == 3:
            u, v, w = walk
            ux, uy = ints[u]
            vx, vy = ints[v]
            wx, wy = ints[w]
            if ((vx - ux) * (wy - uy) <= (vy - uy) * (wx - ux)
                    and walk is not ow):
                return False
        elif walk is not ow and not _convex_walk(ints, walk, 1):
            return False
    return _convex_walk(ints, ow, -1)


def is_convex_outer(d: Drawing) -> bool:
    """Outer face angles all at least pi (reflex or straight, measured outside)."""
    ints = d.ints
    walk = [ints[v] for v in d.graph.outer_walk()]
    k = len(walk)
    for pos in range(k):
        try:
            kind = angle_status_points(walk[(pos - 1) % k], walk[pos],
                                       walk[(pos + 1) % k])
        except DegenerateAngle:
            return False
        if kind is AngleKind.STRICTLY_CONVEX:
            return False
    return True


# -- convex hull -------------------------------------------------------------


def convex_hull(d: Drawing) -> List[int]:
    """Hull vertex ids in counterclockwise order, keeping collinear boundary
    points, of a drawing whose points are distinct. Deterministic start:
    lexicographically smallest point. Andrew's monotone chain that pops
    only on a strict right turn, so a point on a hull edge stays on the
    chain, in order along the edge."""
    pts = sorted(d.ints.items(), key=lambda kv: kv[1])
    if len(pts) < 3:
        raise AllCollinear("fewer than three vertices")
    if all(orientation(pts[0][1], pts[1][1], p) == 0 for _, p in pts[2:]):
        raise AllCollinear("all vertices collinear")

    def chain(points):
        out = []
        for vid, p in points:
            while len(out) >= 2 and orientation(out[-2][1], out[-1][1], p) < 0:
                out.pop()
            out.append((vid, p))
        return out

    return [vid for vid, _ in chain(pts)[:-1] + chain(pts[::-1])[:-1]]


# -- shears ------------------------------------------------------------------


def shear(d: Drawing, axis: int, lam) -> Drawing:
    """Shear the drawing along the moving axis: axis 0 maps (x,y) to
    (x+lam*y,y), axis 1 maps (x,y) to (x,y+lam*x). For lam = a/b with b > 0
    the moving coordinate X of the integer view becomes b*X + a*F, F the
    fixed one, over den*b. A factor of 0 returns d itself."""
    if lam == 0:
        return d
    lam = rat(lam)
    a, b = lam.numerator, lam.denominator
    if axis == 0:
        ints = {v: (b * x + a * y, b * y) for v, (x, y) in d.ints.items()}
    else:
        ints = {v: (b * x, b * y + a * x) for v, (x, y) in d.ints.items()}
    return Drawing.from_ints(d.graph, ints, d.den * b)


def _below(r, s) -> bool:
    """r < s for rationals given as int pairs (p, q), q > 0."""
    return r[0] * s[1] < s[0] * r[1]


def _cut(iv, m: int, f: int):
    """The open interval iv of factors, a pair (lo, hi) of ends (p, q) as in
    _below or None where unbounded, cut to the factors lam with
    m + lam*f < 0; None when nothing is left (or iv is None)."""
    if iv is None:
        return None
    lo, hi = iv
    if f > 0 and (hi is None or _below((-m, f), hi)):
        hi = (-m, f)
    elif f < 0 and (lo is None or _below(lo, (m, -f))):
        lo = (m, -f)
    elif f == 0 and m >= 0:
        return None
    if lo is not None and hi is not None and not _below(lo, hi):
        return None
    return lo, hi


class _ShearSpace:
    """The factors lam of a shear along the moving axis of the integer view
    pts of a drawing of g that satisfy the constraints straddle and pins
    (see choose_safe_shear), read off pts once. For lam = a/b with b > 0
    the sheared moving coordinate m + lam*f is taken times b, as
    b*m + a*f, so each condition is a sign of b*m + a*f for a pair (m, f)
    of differences along the moving and the fixed axis, linear in lam and
    changing sign only at its root -m/f:

     * edges: each edge's pair, whose sign must not be 0 (an edge turns
       level at its root alone);
     * straddle: the pairs of the angle's face neighbours less its apex,
       whose signs must differ;
     * pins: the pairs of each pinned vertex less every other vertex,
       negated for a right or top pin, all of which must be negative;
     * span: the open interval that the pins on the moving axis allow, as
       in _cut, or None when it is empty or a pin on the fixed axis fails
       (a shear keeps that axis)."""

    __slots__ = ("edges", "straddle", "span", "pins")

    def __init__(self, g: PlaneGraph, pts: Dict[int, Tuple[int, int]],
                 axis: int, straddle: Optional[AngleRef], pins: Tuple):
        ma, fa = axis, 1 - axis
        self.edges = [(pts[u][ma] - pts[v][ma], pts[u][fa] - pts[v][fa])
                      for u, v in g.edges()]
        self.straddle = None
        if straddle is not None:
            walk = g.face_vertices(straddle.face)
            k = len(walk)
            pos = straddle.pos
            c = pts[walk[pos % k]]
            self.straddle = tuple(
                (p[ma] - c[ma], p[fa] - c[fa])
                for p in (pts[walk[(pos - 1) % k]], pts[walk[(pos + 1) % k]]))
        span = (None, None)
        self.pins = []
        for vtx, side in pins:
            s = 1 if side in ("left", "bottom") else -1
            c = pts[vtx]
            pairs = [(s * (c[ma] - p[ma]), s * (c[fa] - p[fa]))
                     for w, p in pts.items() if w != vtx]
            if (0 if side in ("left", "right") else 1) == ma:
                for m, f in pairs:
                    span = _cut(span, m, f)
            elif any(f >= 0 for _, f in pairs):
                span = None
            self.pins += pairs
        self.span = span

    def ok(self, a: int, b: int) -> bool:
        """Does the factor a/b (b > 0) satisfy every condition?"""
        if self.span is None:
            return False
        lo, hi = self.span
        if (lo is not None and lo[0] * b >= a * lo[1]
                or hi is not None and a * hi[1] >= hi[0] * b):
            return False
        if self.straddle is not None:
            (m1, f1), (m2, f2) = self.straddle
            if (b * m1 + a * f1) * (b * m2 + a * f2) >= 0:
                return False
        return all(b * m + a * f for m, f in self.edges)

    def first_gap(self) -> Optional[Fraction]:
        """A factor in the first open gap between consecutive roots of all
        the pairs that satisfies every condition, or None. No condition
        changes inside a gap, and an edge fails at its root alone, so the
        first passing gap is the one that starts at the lower end L of the
        feasible set: the span cut to where the straddle's two signs
        differ, one open interval for each way round. The gap runs from L
        to the next root R, and from below the least root when L is
        unbounded. The part of the feasible set that starts at L ends at a
        root, so not below R, and no edge has its root inside the gap:
        every point of the open gap satisfies every condition, and the
        factor needs no test.

        The factor is the coarsest dyadic in the middle third of (L, R)
        (_coarsest_dyadic): its denominator is 2^k with k at most
        log2(3 / (R - L)) + 1, and it stays a third of the gap away from
        either root. A gap unbounded on one side takes the integer
        ceil(L) + 1 or floor(R) - 1."""
        parts = [self.span]
        if self.straddle is not None:
            (m1, f1), (m2, f2) = self.straddle
            parts = [_cut(_cut(self.span, m1, f1), -m2, -f2),
                     _cut(_cut(self.span, -m1, -f1), m2, f2)]
        lows = [j[0] for j in parts if j is not None]
        if not lows:
            return None
        low = lows[0]
        for r in lows[1:]:
            if low is not None and (r is None or _below(r, low)):
                low = r
        nxt = None          # the least root above low (of all, if None)
        for m, f in itertools.chain(self.edges, self.straddle or (),
                                    self.pins):
            if f:
                r = (-m, f) if f > 0 else (m, -f)
                if ((low is None or _below(low, r))
                        and (nxt is None or _below(r, nxt))):
                    nxt = r
            elif not m:
                return None     # an edge with coinciding ends
        if nxt is None:
            return None if low is None else Fraction(-(-low[0] // low[1]) + 1)
        if low is None:
            return Fraction(nxt[0] // nxt[1] - 1)
        (p, q), (r, s) = low, nxt
        return _coarsest_dyadic((2 * p * s + r * q, 3 * q * s),
                                (p * s + 2 * r * q, 3 * q * s))


def _coarsest_dyadic(lo, hi) -> Fraction:
    """The coarsest dyadic j/2^k strictly between lo < hi, rationals given
    as int pairs (p, q) with q > 0: the least k >= 0 for which some j
    fits, then the least |j|. The least j above lo on the grid 2^-k is
    floor(lo * 2^k) + 1, and a grid that holds a point of the interval
    holds it on every finer grid, so k is found by bisection, each test
    one floor division. Past k = 0 the least grid holds one j only."""
    (a, qa), (b, qb) = lo, hi
    j, top = a // qa + 1, -(-b // qb) - 1
    if j <= top:
        return Fraction(j if j > 0 else top if top < 0 else 0)
    width = b * qa - a * qb
    # at k = 0 nothing fits; at k the interval is width * 2^k / (qa * qb)
    # long, and longer than 1 from this k on
    k0, k1 = 0, max(1, (qa * qb).bit_length() - width.bit_length() + 1)
    while k1 - k0 > 1:
        k = (k0 + k1) // 2
        if ((a << k) // qa + 1) * qb < b << k:
            k1 = k
        else:
            k0 = k
    return Fraction((a << k1) // qa + 1, 1 << k1)


def choose_safe_shear(d: Drawing, axis: int,
                      straddle: Optional[AngleRef] = None, pins: Tuple = ()):
    """Pick a factor for a shear along the moving axis (0 for x, 1 for y)
    after which no edge has its endpoints level on that axis (after an
    x-shear no edge is vertical, after a y-shear none is horizontal), and
    which meets the two optional constraints:

    straddle: an angle whose face neighbors must straddle its apex along
        the moving axis afterwards (see straddles);
    pins: (vertex, side) pairs that must stay unique extremes, side in
        {"left", "right", "top", "bottom"}.

    Tries a ladder of small rationals, each tested without shearing d on
    the constraints read off d once (_ShearSpace), then takes the first
    open gap between consecutive critical factors, where some constraint
    changes sign, whose factors all pass: its coarsest dyadic in the
    middle third, or an integer next to its one root (first_gap). Any
    point of that gap is safe, so the factor is emitted as it is, with no
    test and no snap. Deterministic; raises NoValidShear if nothing
    passes."""
    space = _ShearSpace(d.graph, d.ints, axis, straddle, pins)
    for lam in _SHEAR_LADDER:
        if space.ok(lam.numerator, lam.denominator):
            return lam
    lam = space.first_gap()
    if lam is None:
        raise NoValidShear(f"no usable shear along axis {axis}")
    return lam


# the small factors choose_safe_shear tries first, in order
_SHEAR_LADDER = tuple(Fraction(p, q) for p, q in (
    (0, 1), (1, 1), (-1, 1), (1, 2), (-1, 2), (2, 1), (-2, 1), (1, 4),
    (-1, 4), (4, 1), (-4, 1)))


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
    """Exact straight-line planarity: distinct vertices, no edge conflicts,
    no vertex on an edge. coords is a plain coordinate dict, such as a
    drawing's ints. A PlaneGraph is connected and has a dart, so every
    vertex is the end of an edge."""
    pts = integer_points(coords)
    if len(set(pts.values())) != len(pts):
        return False
    return segments_planar([(pts[u], pts[v], (u, v)) for u, v in g.edges()])


def validate_drawing(d: Drawing) -> None:
    """The input check: raise NotPlanarInput unless d is a planar
    straight-line drawing that realizes every rotation of its graph and
    whose outer dart lies on the unbounded face. Face walks that repeat a
    vertex pass; the connectivity gate that follows turns them away."""
    g = d.graph
    pts = d.ints
    if not drawing_is_planar(g, pts):
        raise NotPlanarInput("edges cross, overlap, or vertices coincide")
    for v, nbrs in g.rotation.items():
        if len(nbrs) > 2:
            order = _ccw_order(pts, v, nbrs)
            i = order.index(nbrs[0])
            if order[i:] + order[:i] != nbrs:
                raise NotPlanarInput("drawing does not realize its embedding")
    # a planar drawing that realizes its rotations has a clockwise outer
    # walk, or a zero sum when no face is bounded: a tree, which the
    # connectivity gate turns away
    if _area2(pts, g.outer_walk()) > 0:
        raise NotPlanarInput("outer dart names a bounded face")


def _area2(pts: Dict[int, Tuple[int, int]], walk: Sequence[int]) -> int:
    """Twice the signed area of the closed walk over the integer points pts
    (the shoelace sum): positive when it runs counterclockwise. A walk that
    repeats vertices sums the areas it winds around, with their signs."""
    return sum(_cross(pts[u], pts[v])
               for u, v in zip(walk, walk[1:] + walk[:1]))


def _ccw_order(pts: Dict[int, Tuple[int, int]], v: int,
               nbrs: Sequence[int]) -> Tuple[int, ...]:
    """The neighbours nbrs of v in counterclockwise order of their
    directions from v over the integer points pts, starting at the
    positive x axis: half-plane first, 0 for an angle in [0, pi) (dy > 0,
    or dy == 0 and dx > 0) and 1 for [pi, 2 pi), then b after a within a
    half exactly when cross(a, b) > 0. Two directions of one half cross to
    0 exactly when they are the same, since opposite ones lie in different
    halves; neighbours in one direction keep their order in nbrs. An
    insertion sort by inline cross products that scans from the end, so
    nbrs in that order already, or with neighbours appended, costs about
    one pass."""
    vx, vy = pts[v]
    keys = []           # (half, dx, dy) of order, in step with it
    order = []
    for w in nbrs:
        x, y = pts[w]
        dx, dy = x - vx, y - vy
        h = 0 if dy > 0 or (dy == 0 and dx > 0) else 1
        i = len(order)
        while i:
            oh, ox, oy = keys[i - 1]
            if oh < h or (oh == h and ox * dy >= oy * dx):
                break
            i -= 1
        keys.insert(i, (h, dx, dy))
        order.insert(i, w)
    return tuple(order)


def build_plane_graph_from_points(coords: Dict[int, Tuple],
                                  edge_list: Iterable[Tuple[int, int]]
                                  ) -> PlaneGraph:
    """Embed a straight-line graph: each rotation is the angular order of
    the edges at its vertex from the positive x axis (_ccw_order), and the
    outer face is the one at the lowest-then-leftmost vertex L. Every other
    point lies above L or to its right on its level, so L's neighbours all
    lie in half-plane 0, and the face of the dart from L to its last
    neighbour turns through the angle below L: the unbounded face of a
    planar drawing. The outer dart is the first dart of that face's traced
    walk. One shoelace sign check on that walk raises EmbeddingInvalid when
    it does not run clockwise, unless the graph has one face only (a tree,
    whose walk encloses nothing)."""
    pts = integer_points(coords)
    adj = {v: [] for v in coords}
    for u, v in edge_list:
        adj[u].append(v)
        adj[v].append(u)
    rotation = {v: _ccw_order(pts, v, nbrs) for v, nbrs in adj.items()}
    low = min(pts, key=lambda v: (pts[v][1], pts[v][0]))
    if not rotation[low]:
        raise EmbeddingInvalid(
            "graph is not connected" if any(rotation.values())
            else "graph has no edge")
    g = PlaneGraph(rotation, (low, rotation[low][-1]))
    walk = g.face_vertices(g.outer_face_index)
    if len(g._walks) > 1 and _area2(pts, walk) >= 0:
        raise EmbeddingInvalid("outer face is ambiguous; drawing is degenerate")
    return g.with_outer((walk[0], walk[1]))

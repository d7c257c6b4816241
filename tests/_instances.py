"""Random plane-graph instances for tests, built independently of the
package's own generators module.

random_triangulation draws integer points, triangulates them with qhull, and
returns an exact-coordinate Drawing whose inner faces are triangles.  A tiny
exact shear (y += x/997) removes horizontal edges without reordering any
rotation: the shear has determinant 1, so every orientation sign is preserved,
and |dx| < 997 for our coordinate range means two distinct points can never
end up at equal sheared height.
"""

import hashlib

import numpy as np
from scipy.spatial import Delaunay

from convexmorph import Drawing, MorphStep, orientation, rat
from convexmorph.plane_graph import EmbeddingInvalid, build_plane_graph_from_points


def random_triangulation(rng, n_lo=4, n_hi=12, span=30):
    """A Drawing of a Delaunay triangulation with strictly convex hull."""
    while True:
        n = rng.randrange(n_lo, n_hi + 1)
        d = _try_triangulation(rng, n, span)
        if d is not None:
            return d


def _try_triangulation(rng, n, span, sheared=True):
    """A Delaunay triangulation of n random integer points, or None when
    its hull is not strictly convex or the points are degenerate. Without
    the shear (sheared=False) the points stay on the integer grid, so
    edges may be level on either axis."""
    pts = set()
    while len(pts) < n:
        pts.add((rng.randrange(-span, span + 1),
                 rng.randrange(-span, span + 1)))
    pts = sorted(pts)
    try:
        tri = Delaunay(np.array(pts, dtype=float))
    except Exception:
        return None
    edges = set()
    for simplex in tri.simplices:
        for i in range(3):
            a, b = int(simplex[i]), int(simplex[(i + 1) % 3])
            edges.add((min(a, b) + 1, max(a, b) + 1))
    coords = {i + 1: (rat(x), rat(y) + rat(x, 997) if sheared else rat(y))
              for i, (x, y) in enumerate(pts)}
    try:
        g = build_plane_graph_from_points(coords, edges)
    except (EmbeddingInvalid, ValueError):
        return None
    walk = g.outer_walk()
    k = len(walk)
    hull_strict = all(
        orientation(coords[walk[i - 1]], coords[walk[i]],
                    coords[walk[(i + 1) % k]]) == -1
        for i in range(k))
    return Drawing(g, coords) if hull_strict else None


def _fixed_n_triangulation(rng, n, span, sheared=True):
    while True:
        d = _try_triangulation(rng, n, span, sheared)
        if d is not None:
            return d


def random_augment_instance(rng, n_lo=8, n_hi=16, span=30, drop_frac=0.5):
    """A triangulation with a random batch of internal edges removed.

    The merged faces are frequently not y-monotone; internal 3-connectivity
    and the strictly convex hull are preserved by construction."""
    d = random_triangulation(rng, n_lo, n_hi, span)
    return _drop_inner_edges(rng, d, drop_frac)


def _drop_inner_edges(rng, d, drop_frac):
    from convexmorph.connectivity import is_internally_3connected

    g = d.graph
    walk = g.outer_walk()
    hull = {frozenset((walk[i], walk[(i + 1) % len(walk)]))
            for i in range(len(walk))}
    inner = [e for e in g.edges() if frozenset(e) not in hull]
    rng.shuffle(inner)
    for u, v in inner[: max(1, int(len(inner) * drop_frac))]:
        try:
            g2 = g.remove_edge(u, v)
        except EmbeddingInvalid:
            continue
        if g2.degree(u) < 2 or g2.degree(v) < 2:
            continue
        if not is_internally_3connected(g2):
            continue
        g = g2
    return Drawing(g, d.coords)


def hidden_component_drawing():
    """A square whose inner pocket {5, 6} hangs off the 2-cut {1, 2}: a planar
    drawing of a graph that is not internally 3-connected."""
    coords = {1: (0, 0), 2: (4, 0), 3: (4, 4), 4: (0, 4), 5: (2, 1), 6: (2, 2)}
    edges = [(1, 2), (2, 3), (3, 4), (4, 1), (1, 5), (5, 2), (1, 6), (6, 2),
             (5, 6)]
    coords = {v: (rat(x), rat(y)) for v, (x, y) in coords.items()}
    return Drawing(build_plane_graph_from_points(coords, edges), coords)


def same_plane_graph(a, b):
    """Same rotations up to their starting neighbour, and same outer face."""
    def key(g):
        rot = {}
        for v, nbrs in g.rotation.items():
            i = nbrs.index(min(nbrs))
            rot[v] = nbrs[i:] + nbrs[:i]
        return rot, frozenset(g.faces[g.outer_face_index])
    return key(a) == key(b)


def dent_instance(rng, n, span, max_pulls=8, sheared=True):
    """A 3-connected triangulation on n points whose hull vertices are
    pulled toward the centroid, each by the largest of 1/2, 1/4 or 1/8 of
    the way that keeps the drawing valid with the same embedding, up to
    max_pulls times while some pull does. The hull loses its strict
    convexity, so convexify takes its 3-connected branch. sheared=False
    starts from points on the integer grid."""
    from convexmorph.connectivity import three_connected
    from convexmorph.plane_graph import NotPlanarInput, validate_drawing

    while True:
        d = _fixed_n_triangulation(rng, n, span, sheared)
        if three_connected(d.graph.adjacency()):
            break
    g = d.graph
    coords = dict(d.coords)
    cx = round(sum(p[0] for p in coords.values()) / n)
    cy = round(sum(p[1] for p in coords.values()) / n)
    edges = g.edges()
    hull = list(g.outer_walk())
    rng.shuffle(hull)
    for v in hull:
        for _ in range(max_pulls):
            moved = False
            for t in (2, 4, 8):
                p = coords[v]
                trial = dict(coords)
                trial[v] = (p[0] + (cx - p[0]) / t, p[1] + (cy - p[1]) / t)
                try:
                    g2 = build_plane_graph_from_points(trial, edges)
                    validate_drawing(Drawing(g2, trial))
                except (EmbeddingInvalid, NotPlanarInput, ValueError):
                    continue
                if same_plane_graph(g, g2):
                    coords, moved = trial, True
                    break
            if not moved:
                break
    return Drawing(build_plane_graph_from_points(coords, edges), coords)


def pocket_instance(rng, n, span, passes=1, sheared=True):
    """A triangulation on n points with half its inner edges dropped, then
    outer edges removed whenever internal 3-connectivity holds and the outer
    walk stays a simple cycle; each of the passes goes once over the outer
    walk as it stands when the pass starts. The graph is internally but
    usually not 3-connected, so convexify takes its buffer-path branch.
    More passes cut deeper pockets. sheared=False starts from points on
    the integer grid."""
    from convexmorph.connectivity import is_internally_3connected

    d = _drop_inner_edges(rng, _fixed_n_triangulation(rng, n, span, sheared),
                          0.5)
    g = d.graph
    for _ in range(passes):
        walk = g.outer_walk()
        k = len(walk)
        outer = [(walk[i], walk[(i + 1) % k]) for i in range(k)]
        rng.shuffle(outer)
        for u, v in outer:
            if not g.has_edge(u, v):
                continue
            if g.degree(u) < 3 or g.degree(v) < 3:
                continue
            try:
                g2 = g.remove_edge(u, v)
            except EmbeddingInvalid:
                continue
            w2 = g2.outer_walk()
            if len(set(w2)) == len(w2) and is_internally_3connected(g2):
                g = g2
    return Drawing(g, d.coords)


def event_digest(seq):
    """sha256 over every event of seq: its kind, direction and note, and
    the end drawing's coordinates (by vertex), rotations and outer dart."""
    h = hashlib.sha256()
    for ev in seq.events:
        if isinstance(ev, MorphStep):
            head = ("step", ev.direction.value, ev.provenance)
        else:
            head = ("edit", None, ev.label)
        d = ev.end
        coords = [(v, str(x), str(y)) for v, (x, y) in sorted(d.coords.items())]
        h.update(repr((head, coords, sorted(d.graph.rotation.items()),
                       d.graph.outer_dart)).encode())
    return h.hexdigest()

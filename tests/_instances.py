"""Random plane-graph instances for tests, built independently of the
package's own generators module.

random_triangulation draws integer points, triangulates them with qhull, and
returns an exact-coordinate Drawing whose inner faces are triangles.  A tiny
exact shear (y += x/997) removes horizontal edges without reordering any
rotation: the shear has determinant 1, so every orientation sign is preserved,
and |dx| < 997 for our coordinate range means two distinct points can never
end up at equal sheared height.
"""

import numpy as np
from scipy.spatial import Delaunay

from convexmorph import Drawing, orientation, rat
from convexmorph.plane_graph import EmbeddingInvalid, build_plane_graph_from_points


def random_triangulation(rng, n_lo=4, n_hi=12, span=30):
    """A Drawing of a Delaunay triangulation with strictly convex hull."""
    while True:
        n = rng.randrange(n_lo, n_hi + 1)
        pts = set()
        while len(pts) < n:
            pts.add((rng.randrange(-span, span + 1),
                     rng.randrange(-span, span + 1)))
        pts = sorted(pts)
        try:
            tri = Delaunay(np.array(pts, dtype=float))
        except Exception:
            continue
        edges = set()
        for simplex in tri.simplices:
            for i in range(3):
                a, b = int(simplex[i]), int(simplex[(i + 1) % 3])
                edges.add((min(a, b) + 1, max(a, b) + 1))
        coords = {i + 1: (rat(x), rat(y) + rat(x, 997))
                  for i, (x, y) in enumerate(pts)}
        try:
            g = build_plane_graph_from_points(coords, edges)
        except (EmbeddingInvalid, ValueError):
            continue
        walk = g.outer_walk()
        k = len(walk)
        hull_strict = all(
            orientation(coords[walk[i - 1]], coords[walk[i]],
                        coords[walk[(i + 1) % k]]) == -1
            for i in range(k))
        if not hull_strict:
            continue
        return Drawing(g, coords)


def random_augment_instance(rng, n_lo=8, n_hi=16, span=30, drop_frac=0.5):
    """A triangulation with a random batch of internal edges removed.

    The merged faces are frequently not y-monotone; internal 3-connectivity
    and the strictly convex hull are preserved by construction."""
    from convexmorph.connectivity import is_internally_3connected

    d = random_triangulation(rng, n_lo, n_hi, span)
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

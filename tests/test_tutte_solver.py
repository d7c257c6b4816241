import itertools
import math
import numbers
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from convexmorph import (
    Drawing,
    PreconditionViolated,
    is_strictly_convex,
    rat,
)
from convexmorph.connectivity import is_internally_3connected, three_connected
from convexmorph.plane_graph import build_plane_graph_from_points, drawing_is_planar
from convexmorph.tutte_solver import (
    BoundaryPolygon,
    ConstraintInfeasible,
    SingularSystem,
    convex_polygon_for_x,
    convex_polygon_for_y,
    RoundedSolution,
    _Uncertified,
    redraw_rows,
    solve_rows,
    tutte_rows_from_y,
    weights_from_y,
)
from convexmorph import morph_engine, tutte_solver
from convexmorph.morph_engine import _grid_bits

from _instances import pocket_instance, random_augment_instance, random_triangulation
from test_bench_outputs import DIGESTS, bench_drawing
from _oracles import (
    chain_shape_kept,
    chain_slopes_fraction,
    consistent_with_y,
    float_lu_scan,
    is_outer_walk,
    lowest_corner_convex,
    polygon_coords,
    position_system,
    redraw_preserving,
    solve_dense_fraction,
    solve_tutte,
    transposed,
    tutte_rows,
    vertex_system,
)


# -- fixtures ----------------------------------------------------------------


def k4_drawing():
    coords = {1: (0, 0), 2: (4, 0), 3: (2, 3), 4: (2, 1)}
    edges = {(1, 2), (2, 3), (1, 3), (1, 4), (2, 4), (3, 4)}
    g = build_plane_graph_from_points(coords, edges)
    return Drawing(g, coords)


def wheel_drawing(rim_pts):
    k = len(rim_pts)
    coords = {i + 1: p for i, p in enumerate(rim_pts)}
    coords[k + 1] = (0, 0)
    edges = {(i + 1, (i + 1) % k + 1) for i in range(k)}
    edges |= {(i + 1, k + 1) for i in range(k)}
    g = build_plane_graph_from_points(coords, edges)
    return Drawing(g, coords)


def hull_polygon(d):
    walk = tuple(d.graph.outer_walk())
    return BoundaryPolygon(walk, {v: d.ints[v] for v in walk}, d.den)


def uniform_weights(g):
    outer = set(g.outer_walk())
    return {(u, v): rat(1, g.degree(u))
            for u in g.rotation if u not in outer for v in g.rotation[u]}


def assert_rows_satisfied_exactly(g, weights, d):
    outer = set(g.outer_walk())
    for u in g.rotation:
        if u in outer:
            continue
        sx = sum(weights[(u, v)] * d.coords[v][0] for v in g.rotation[u])
        sy = sum(weights[(u, v)] * d.coords[v][1] for v in g.rotation[u])
        assert d.coords[u][0] == sx
        assert d.coords[u][1] == sy


# -- weights -----------------------------------------------------------------


def test_weights_one_above_one_below():
    # internal degree-2 vertex: t = (1-0)/(3-0), so 1/3 up and 2/3 down
    coords = {1: (0, 0), 2: (4, 0), 3: (4, 4), 4: (0, 4), 5: (2, 2)}
    edges = {(1, 2), (2, 3), (3, 4), (4, 1), (1, 5), (5, 3)}
    g = build_plane_graph_from_points(coords, edges)
    y = {1: rat(0), 2: rat(2), 3: rat(3), 4: rat(5), 5: rat(1)}
    w = weights_from_y(g, y)
    assert w == {(5, 3): rat(1, 3), (5, 1): rat(2, 3)}
    assert consistent_with_y(w, y)


def test_weights_two_above_one_below():
    d = k4_drawing()
    y = {1: rat(0), 2: rat(2), 3: rat(2), 4: rat(1)}
    w = weights_from_y(d.graph, y)
    assert w[(4, 2)] == rat(1, 4)
    assert w[(4, 3)] == rat(1, 4)
    assert w[(4, 1)] == rat(1, 2)
    assert consistent_with_y(w, y)


def test_weights_error_cases():
    g = k4_drawing().graph
    with pytest.raises(PreconditionViolated, match="above"):
        weights_from_y(g, {1: rat(0), 2: rat(1), 3: rat(2), 4: rat(3)})
    with pytest.raises(PreconditionViolated, match="below"):
        weights_from_y(g, {1: rat(0), 2: rat(1), 3: rat(2), 4: rat(-1)})
    with pytest.raises(PreconditionViolated, match="horizontal"):
        weights_from_y(g, {1: rat(0), 2: rat(1), 3: rat(2), 4: rat(1)})


def test_weights_random_instances_exact():
    rng = random.Random(1101)
    for _ in range(15):
        d = random_triangulation(rng, 5, 16)
        g = d.graph
        y = {v: d.coords[v][1] for v in g.rotation}
        if len(g.rotation) == len(g.outer_walk()):
            continue
        w = weights_from_y(g, y)
        assert consistent_with_y(w, y)
        assert {u for u, _ in w} == set(g.rotation) - set(g.outer_walk())
        assert all(x > 0 for x in w.values())
        for u in {u for u, _ in w}:
            assert sum(x for (a, _), x in w.items() if a == u) == 1


# -- sparse solver -----------------------------------------------------------


def test_solve_rows_matches_dense_oracle():
    rng = random.Random(2202)
    for _ in range(30):
        ids = rng.sample(range(100), rng.randrange(1, 9))
        rows = {}
        rhs = {}
        for e in ids:
            row = {e: rat(10)}
            for v in ids:
                if v != e and rng.random() < 0.5:
                    row[v] = rat(rng.randrange(-4, 5))
            rows[e] = row
            rhs[e] = [rat(rng.randrange(-9, 10)), rat(rng.randrange(-9, 10))]
        got = solve_rows(rows, rhs)
        want = solve_dense_fraction(
            {e: {v: Fraction(c) for v, c in r.items()} for e, r in rows.items()},
            {e: [Fraction(x) for x in vals] for e, vals in rhs.items()})
        assert set(got) == set(want)
        for v in got:
            assert [Fraction(x) for x in got[v]] == want[v]


def test_solve_rows_singular_cases():
    with pytest.raises(SingularSystem):
        solve_rows({1: {1: rat(1), 2: rat(1)}}, {1: [rat(0)]})
    with pytest.raises(SingularSystem):
        solve_rows({1: {1: rat(1), 2: rat(1)}, 2: {1: rat(2), 2: rat(2)}},
                   {1: [rat(0)], 2: [rat(1)]})
    assert solve_rows({}, {}) == {}


def big_rational(rng):
    """A rational in (0, 1) whose denominator has 50-90 bits."""
    bits = rng.randint(50, 90)
    den = rng.randrange(2 ** (bits - 1), 2 ** bits)
    return Fraction(rng.randrange(1, den), den)


def tutte_shaped_system(rng, ids, columns):
    """Rows x_e - sum_v w_ev x_v = rhs_e with positive weights of 50-90-bit
    denominators. Each row also gives weight to a pinned boundary, so the
    system is strictly diagonally dominant and nonsingular; each variable
    also appears in the row before its own."""
    rows, rhs = {}, {}
    for i, e in enumerate(ids):
        nbrs = {ids[i - 1]} | {v for v in ids if v != e and rng.random() < 0.3}
        raw = {v: big_rational(rng) for v in nbrs}
        pin = big_rational(rng)
        total = sum(raw.values()) + pin
        rows[e] = {e: Fraction(1), **{v: -w / total for v, w in raw.items()}}
        rhs[e] = [pin / total * big_rational(rng) for _ in range(columns)]
    return rows, rhs


def assert_exact_and_equal(got, want):
    assert set(got) == set(want)
    exact = type(rat(0))
    for v in got:
        assert all(isinstance(x, exact) for x in got[v])
        assert [Fraction(x) for x in got[v]] == want[v]


@pytest.mark.parametrize("columns", [1, 2])
def test_solve_rows_tutte_shaped_big_denominators(columns):
    rng = random.Random(2303 + columns)
    for _ in range(6):
        ids = rng.sample(range(100), rng.randrange(2, 16))
        rows, rhs = tutte_shaped_system(rng, ids, columns)
        assert_exact_and_equal(solve_rows(rows, rhs),
                               solve_dense_fraction(rows, rhs))


def test_solve_rows_update_cancels_an_entry():
    # rows 1 and 2 are proportional on variables 1 and 2. The Markowitz
    # tie-break pivots row 1 on variable 1 first, so the update of row 2
    # cancels its variable-2 entry to zero.
    rng = random.Random(2404)
    a, b, c, d, e, f = (big_rational(rng) for _ in range(6))
    rows = {1: {1: a, 2: b}, 2: {1: 2 * a, 2: 2 * b, 3: c},
            3: {1: d, 2: e, 3: f}}
    rhs = {k: [big_rational(rng), -big_rational(rng)] for k in rows}
    assert_exact_and_equal(solve_rows(rows, rhs),
                           solve_dense_fraction(rows, rhs))


def test_solve_rows_singular_only_partway():
    rng = random.Random(2505)
    ids = list(range(10))
    rows, rhs = tutte_shaped_system(rng, ids, 2)
    alpha, beta = big_rational(rng), big_rational(rng)
    combined = {}
    for r, k in ((rows[2], alpha), (rows[7], beta)):
        for v, c in r.items():
            combined[v] = combined.get(v, 0) + k * c
    rows[5] = {v: c for v, c in combined.items() if c != 0}
    # square, no zero row, yet rank-deficient: only elimination finds out
    assert all(rows.values())
    assert {v for r in rows.values() for v in r} == set(ids)
    with pytest.raises(ZeroDivisionError):
        solve_dense_fraction(rows, rhs)
    with pytest.raises(SingularSystem):
        solve_rows(rows, rhs)


def test_solve_rows_takes_int_of_numerator_and_denominator():
    # numpy integers are rationals whose numerator is not a Python int;
    # fixed-width products would wrap past 64 bits
    np = pytest.importorskip("numpy")
    big = [2 ** 62 - 1, 2 ** 61 + 3, 2 ** 61 - 5, 2 ** 62 - 7]
    rows = {1: {1: np.int64(big[0]), 2: np.int64(big[1])},
            2: {1: np.int64(big[2]), 2: np.int64(big[3])}}
    rhs = {1: [np.int64(1)], 2: [np.int64(2 ** 60)]}
    want = solve_dense_fraction(
        {e: {v: Fraction(int(c)) for v, c in r.items()}
         for e, r in rows.items()},
        {e: [Fraction(int(x)) for x in vals] for e, vals in rhs.items()})
    assert_exact_and_equal(solve_rows(rows, rhs), want)


# -- solve_tutte -------------------------------------------------------------


def test_solve_tutte_triangle_barycenter():
    d = k4_drawing()
    boundary = hull_polygon(d)
    out = solve_tutte(d.graph, boundary, uniform_weights(d.graph))
    assert out.coords[4] == (rat(2), rat(1))
    assert is_strictly_convex(out)


def test_solve_tutte_square_symmetry():
    d = wheel_drawing([(-1, -1), (1, -1), (1, 1), (-1, 1)])
    out = solve_tutte(d.graph, hull_polygon(d), uniform_weights(d.graph))
    assert out.coords[5] == (rat(0), rat(0))


def test_solve_tutte_five_wheel_matches_dense_oracle():
    rng = random.Random(3303)
    d = wheel_drawing([(4, 0), (1, 4), (-4, 2), (-3, -3), (2, -4)])
    g = d.graph
    hub = 6
    for _ in range(10):
        raw = [rat(rng.randrange(1, 10)) for _ in range(5)]
        total = sum(raw)
        w = {(hub, v): raw[i] / total for i, v in enumerate(g.rotation[hub])}
        boundary = hull_polygon(d)
        out = solve_tutte(g, boundary, w)
        rows, rhs = tutte_rows(g, w, polygon_coords(boundary))
        want = solve_dense_fraction(rows, rhs)
        assert [Fraction(c) for c in out.coords[hub]] == want[hub]
        assert_rows_satisfied_exactly(g, w, out)
        assert is_strictly_convex(out)


def test_solve_tutte_random_instances():
    rng = random.Random(4404)
    seen_internal = 0
    for _ in range(25):
        d = random_triangulation(rng, 4, 14)
        g = d.graph
        assert is_internally_3connected(g)
        y = {v: d.coords[v][1] for v in g.rotation}
        boundary = hull_polygon(d)
        internal = set(g.rotation) - set(boundary.cycle)
        if not internal:
            out = solve_tutte(g, boundary, {})
            assert out.coords == d.coords
            continue
        seen_internal += 1
        w = weights_from_y(g, y)
        out = solve_tutte(g, boundary, w)
        assert_rows_satisfied_exactly(g, w, out)
        assert is_strictly_convex(out)
        # the y system reproduces the y the weights came from
        for v in g.rotation:
            assert out.coords[v][1] == d.coords[v][1]
        rows, rhs = tutte_rows(g, w, polygon_coords(boundary))
        want = solve_dense_fraction(rows, rhs)
        for v in internal:
            assert [Fraction(c) for c in out.coords[v]] == want[v]
    assert seen_internal >= 10


def test_solve_tutte_uniform_weights_agree_with_dense():
    rng = random.Random(5505)
    for _ in range(10):
        d = random_triangulation(rng, 5, 12)
        g = d.graph
        boundary = hull_polygon(d)
        internal = set(g.rotation) - set(boundary.cycle)
        if not internal:
            continue
        w = uniform_weights(g)
        out = solve_tutte(g, boundary, w)
        rows, rhs = tutte_rows(g, w, polygon_coords(boundary))
        want = solve_dense_fraction(rows, rhs)
        for v in internal:
            assert [Fraction(c) for c in out.coords[v]] == want[v]
        assert is_strictly_convex(out)


def test_solve_tutte_externally_separable_instance():
    # internally 3-connected but not 3-connected: two pockets hanging off
    # the separation pair {1, 4}; one solve still convexifies everything
    coords = {1: (-4, 0), 2: (-2, 4), 3: (2, 4), 4: (4, 0),
              5: (2, -4), 6: (-2, -4), 7: (0, 2), 8: (0, -2)}
    edges = {(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 1),
             (7, 1), (7, 2), (7, 3), (7, 4), (8, 4), (8, 5), (8, 6), (8, 1)}
    g = build_plane_graph_from_points(coords, edges)
    assert drawing_is_planar(g, coords)
    assert not three_connected(g.adjacency())
    assert is_internally_3connected(g)
    out = solve_tutte(g, hull_polygon(Drawing(g, coords)), uniform_weights(g))
    assert is_strictly_convex(out)


def test_solve_tutte_input_validation():
    d = k4_drawing()
    boundary = hull_polygon(d)
    with pytest.raises(ValueError):
        solve_tutte(d.graph, boundary, {})
    bad_cycle = BoundaryPolygon(tuple(reversed(boundary.cycle)),
                                boundary.ints, boundary.den)
    with pytest.raises(ValueError):
        solve_tutte(d.graph, bad_cycle, uniform_weights(d.graph))


# -- redraws -----------------------------------------------------------------


def test_redraw_preserving_y_same_boundary():
    rng = random.Random(6606)
    for _ in range(8):
        d = random_triangulation(rng, 6, 14)
        if len(d.graph.rotation) == len(d.graph.outer_walk()):
            continue
        out = redraw_preserving(d, hull_polygon(d), 1)
        assert is_strictly_convex(out)
        for v in d.graph.rotation:
            assert out.coords[v][1] == d.coords[v][1]


def test_redraw_preserving_y_new_polygon():
    rng = random.Random(7707)
    for _ in range(8):
        d = random_triangulation(rng, 6, 14)
        g = d.graph
        if len(g.rotation) == len(g.outer_walk()):
            continue
        y = {v: p[1] for v, p in d.ints.items()}
        poly = convex_polygon_for_y(tuple(g.outer_walk()), y, den=d.den)
        out = redraw_preserving(d, poly, 1)
        assert is_strictly_convex(out)
        for v in g.rotation:
            assert out.coords[v][1] == d.coords[v][1]
        for v in poly.cycle:
            assert out.coords[v] == polygon_coords(poly)[v]


def test_redraw_preserving_x_contract():
    rng = random.Random(8808)
    for _ in range(5):
        d = random_triangulation(rng, 6, 12)
        g = d.graph
        if len(g.rotation) == len(g.outer_walk()):
            continue
        td = transposed(d)
        tb = hull_polygon(td)
        out = redraw_preserving(td, tb, 0)
        assert is_strictly_convex(out)
        for v in td.graph.rotation:
            assert out.coords[v][0] == td.coords[v][0]


def weight_rows(d, boundary, fixed_axis):
    """The rows and moving-axis right-hand sides of redraw_preserving's
    system, built from weights_from_y on the fixed axis in Fractions: the
    oracle of tutte_rows_from_y."""
    w = weights_from_y(d.graph,
                       {v: p[fixed_axis] for v, p in d.coords.items()})
    rows, rhs = tutte_rows(d.graph, w, polygon_coords(boundary))
    return rows, {u: [vals[1 - fixed_axis]] for u, vals in rhs.items()}


def engine_redraw_systems(monkeypatch):
    """(drawing, boundary, fixed axis) of every redraw convexify makes on a
    few small instances, horizontal (fixed axis 1) and vertical (0)."""
    calls = []
    real = tutte_solver.redraw_rows

    def spy(d, boundary, fixed_axis):
        calls.append((d, boundary, fixed_axis))
        return real(d, boundary, fixed_axis)

    with monkeypatch.context() as m:
        m.setattr(morph_engine, "redraw_rows", spy)
        for seed in range(3):
            morph_engine.convexify(pocket_instance(random.Random(seed), 12, 20))
            morph_engine.convexify(
                random_augment_instance(random.Random(seed), 10, 10, 20))
    return calls


def test_integer_rows_match_weight_rows(monkeypatch):
    calls = engine_redraw_systems(monkeypatch)
    assert {axis for _, _, axis in calls} == {0, 1}
    assert any(len(b.cycle) < len(d.graph.rotation) for d, b, _ in calls)
    for d, boundary, axis in calls:
        ids, cols, coefs, b, den = redraw_rows(d, boundary, axis)
        # positions over the internal vertices in increasing order, each
        # row's diagonal first
        assert ids == sorted(set(d.graph.rotation) - set(boundary.cycle))
        assert all(c[0] == e for e, c in enumerate(cols))
        rows, rhs = vertex_system(ids, cols, coefs, b)
        o_rows, o_rhs = weight_rows(d, boundary, axis)
        assert rows.keys() == o_rows.keys()
        for u, row in rows.items():
            assert all(isinstance(c, numbers.Integral) for c in row.values())
            # a positive multiple of the weight row, right-hand side too
            k = row[u] / o_rows[u][u]
            assert k > 0
            assert row == {v: k * c for v, c in o_rows[u].items()}
            assert isinstance(rhs[u], numbers.Integral)
            assert Fraction(rhs[u], den) == k * o_rhs[u][0]
        sol = solve_rows(rows, columns(rhs, den))
        assert sol == solve_rows(o_rows, o_rhs)
        out = redraw_preserving(d, boundary, axis)
        assert {u: out.coords[u][1 - axis] for u in sol} == {
            u: x for u, (x,) in sol.items()}


def test_integer_rows_errors_match_weights():
    g = k4_drawing().graph
    bx = {v: 0 for v in g.outer_walk()}
    for y, why in (({1: 0, 2: 1, 3: 2, 4: 3}, "above"),
                   ({1: 0, 2: 1, 3: 2, 4: -1}, "below"),
                   ({1: 0, 2: 1, 3: 2, 4: 1}, "horizontal")):
        with pytest.raises(PreconditionViolated, match=why):
            tutte_rows_from_y(g, y, bx)
        with pytest.raises(PreconditionViolated, match=why):
            weights_from_y(g, {v: rat(c) for v, c in y.items()})


# -- certified rounding ------------------------------------------------------


# the first five grids of the engine's redraw ladder
GRIDS = list(itertools.islice(_grid_bits(), 5))


def exact_answers(rows, rhs):
    """What RoundedSolution must answer, from solve_rows and Fraction round:
    rounded(bits) for the first grids of the engine."""
    x = {u: Fraction(v) for u, (v,) in solve_rows(rows, rhs).items()}
    return [{u: round(c * 2 ** bits) for u, c in x.items()} for bits in GRIDS]


def columns(rhs, den):
    """RoundedSolution's right-hand sides over den as solve_rows takes
    them: one column of rationals."""
    return {e: [Fraction(b, den)] for e, b in rhs.items()}


def over_one_den(rhs):
    """One column of rational right-hand sides, as solve_rows takes them,
    as RoundedSolution takes them: ints over their least common den."""
    den = math.lcm(*(Fraction(b).denominator for (b,) in rhs.values()))
    return {e: int(b * den) for e, (b,) in rhs.items()}, den


def certified(rows, rhs, den):
    """RoundedSolution of rows * x = rhs / den, rows and rhs keyed by
    vertex and given to it by position (position_system)."""
    return RoundedSolution(*position_system(rows, rhs), den)


def certified_answers(rows, rhs, den):
    """The answers on GRIDS of certified(rows, rhs, den)."""
    sol = certified(rows, rhs, den)
    return [sol.rounded(bits) for bits in GRIDS]


def big_value(rng):
    """A rational in (1/2, 2) whose numerator and denominator have the same
    number of bits, 30 to 200."""
    bits = rng.randint(30, 200)
    top = 1 << (bits - 1)
    return Fraction(top | rng.getrandbits(bits - 1),
                    top | rng.getrandbits(bits - 1))


def z_matrix_rows(rng, ids):
    """Integer rows of a strictly diagonally dominant Z-matrix: each
    off-diagonal -w < 0, each diagonal the sum of its row's w plus a
    positive pin, the row scaled by the lcm of its denominators."""
    rows = {}
    for e in ids:
        row = {v: -big_value(rng) for v in ids if v != e and rng.random() < 0.5}
        row[e] = -sum(row.values()) + big_value(rng)
        scale = math.lcm(*(c.denominator for c in row.values()))
        rows[e] = {v: int(c * scale) for v, c in row.items()}
    return rows


def rhs_for(rows, x):
    """The right-hand sides for which x solves rows."""
    return {e: [sum(c * x[v] for v, c in r.items())] for e, r in rows.items()}


@given(st.integers(1, 10), st.integers(0, 2 ** 32))
@settings(max_examples=60, deadline=None)
def test_rounded_solution_matches_exact_rounding(n, seed):
    rng = random.Random(seed)
    ids = rng.sample(range(40), n)
    rows = z_matrix_rows(rng, ids)
    rhs = {e: [big_value(rng) * rng.choice((-1, 1))] for e in ids}
    ints, den = over_one_den(rhs)
    got = certified_answers(rows, ints, den)
    assert got == exact_answers(rows, rhs)
    # a common factor of the right-hand sides and den changes no answer
    c = rng.randint(2, 2 ** 40)
    assert certified_answers(rows, {e: b * c for e, b in ints.items()},
                             den * c) == got


def test_rounded_solution_answers_far_finer_grids():
    # from the 2^-48 grid straight to 2^-4096 and 2^-65536: the residual of
    # X shifted up by thousands of bits is far past the float range, and the
    # refinement still answers the exact rounding
    rng = random.Random(4703)
    ids = list(range(6))
    rows = z_matrix_rows(rng, ids)
    rhs = {e: [big_value(rng)] for e in ids}
    sol = certified(rows, *over_one_den(rhs))
    x = {u: Fraction(v) for u, (v,) in solve_rows(rows, rhs).items()}
    for bits in (48, 4096, 65536):
        assert sol.rounded(bits) == {u: round(c * 2 ** bits)
                                     for u, c in x.items()}


def test_rounded_solution_certifies_engine_systems(monkeypatch):
    # every horizontal and vertical redraw system of a few convexify runs:
    # the certificate holds and every grid gets its exact rounding (a
    # redraw with every vertex on the boundary answers {})
    calls = engine_redraw_systems(monkeypatch)
    for d, boundary, axis in calls:
        *system, den = redraw_rows(d, boundary, axis)
        sol = RoundedSolution(*system, den)
        rows, rhs = vertex_system(*system)
        assert [sol.rounded(bits) for bits in GRIDS] == exact_answers(
            rows, columns(rhs, den))


def sorted_mults(steps):
    """_float_lu's eliminations with each pivot's multipliers in
    increasing order of row, as float_lu_scan lists them."""
    return [(p, piv, prow, sorted(mults)) for p, piv, prow, mults in steps]


def structurally_symmetric(cols):
    """Whether row e holds position f exactly when row f holds e."""
    return all(e in cols[f] for e, c in enumerate(cols) for f in c)


@given(st.integers(1, 30), st.floats(0.02, 0.6), st.integers(0, 2 ** 32))
@settings(max_examples=80, deadline=None)
def test_float_lu_heap_pivots_match_the_scan(n, density, seed):
    # sparse M-matrices on scattered ids, so the products tie often and
    # the position breaks the tie: the same pivots, multipliers and rows.
    # The pattern is not symmetric; both factor its symmetric closure
    rng = random.Random(seed)
    ids = rng.sample(range(200), n)
    rows = {}
    for e in ids:
        row = {v: -rng.uniform(0.1, 1.0) for v in ids
               if v != e and rng.random() < density}
        row[e] = rng.uniform(0.1, 1.0) - sum(row.values())
        rows[e] = row
    _, cols, vals, _ = position_system(rows, dict.fromkeys(ids, 0))
    assert sorted_mults(tutte_solver._float_lu(cols, vals)) == \
        float_lu_scan(cols, vals)


def test_float_lu_heap_pivots_match_the_scan_on_bench_systems(monkeypatch):
    # every system convexify factors on the benchmark's twelve drawings,
    # each structurally symmetric, as _float_lu's pivot keys assume
    systems = []
    real = tutte_solver._float_lu

    def spy(cols, vals):
        systems.append((cols, vals))
        return real(cols, vals)

    monkeypatch.setattr(tutte_solver, "_float_lu", spy)
    for workload, i in sorted(DIGESTS):
        morph_engine.convexify(bench_drawing(workload, i))
    assert len(systems) > 12
    for cols, vals in systems:
        assert structurally_symmetric(cols)
        assert sorted_mults(real(cols, vals)) == float_lu_scan(cols, vals)


def system_with_solution(rng, x):
    ids = sorted(x)
    rows = z_matrix_rows(rng, ids)
    return rows, rhs_for(rows, x)


def near_tie_system(seed, offset):
    """A system whose x_0 * 2^48 is a rounding tie plus offset * 2^48; its
    neighbours carry 150-bit denominators, so no residual vanishes and no
    bound reaches zero."""
    rng = random.Random(seed)
    x = {0: Fraction(2 * 12345 + 1, 2 ** 49) + offset}
    x.update({v: Fraction(rng.getrandbits(150), 2 ** 150 - 1 - v)
              for v in range(1, 6)})
    return system_with_solution(rng, x)


def test_rounded_solution_answers_none_on_a_tie():
    # no bound keeps a tie off itself, so the 2^-48 grid gets no answer;
    # the tie is a point of the 2^-64 grid, which gets the exact rounding
    rows, rhs = near_tie_system(4701, 0)
    sol = certified(rows, *over_one_den(rhs))
    assert sol.rounded(48) is None
    want = exact_answers(rows, rhs)
    assert GRIDS[1] == 64
    assert [sol.rounded(bits) for bits in GRIDS[1:]] == want[1:]
    assert want[0][0] == 12346  # half to even


@pytest.mark.parametrize("side", [-1, 1])
def test_rounded_solution_rounds_a_near_tie(side):
    # 2^-100 off the tie: the scale the 2^-48 grid asks for cannot tell the
    # value from its tie, and the 2^-64 grid rounds it onto the tie
    rows, rhs = near_tie_system(4702, side * Fraction(1, 2 ** 100))
    sol = certified(rows, *over_one_den(rhs))
    assert sol.rounded(48) is None
    want = exact_answers(rows, rhs)
    assert want[0][0] == (12345 if side < 0 else 12346)
    assert [sol.rounded(bits) for bits in GRIDS[1:]] == want[1:]
    assert want[1][0] == (2 * 12345 + 1) << 15


def test_rounded_solution_rejects_off_the_sign_pattern():
    rng = random.Random(4705)
    x = {v: big_value(rng) for v in range(5)}
    rows, _ = system_with_solution(rng, x)
    rows[2][3] = 1
    with pytest.raises(_Uncertified, match="not an M-matrix sign pattern"):
        certified(rows, *over_one_den(rhs_for(rows, x)))
    # a row that names a position past the last unknown
    ids, cols, coefs, rhs = position_system({0: {0: 2, 1: -1}, 1: {1: 2}},
                                            {0: 1, 1: 1})
    cols[1].append(2)
    coefs[1].append(-1)
    with pytest.raises(_Uncertified, match="not an M-matrix sign pattern"):
        RoundedSolution(ids, cols, coefs, rhs, 1)
    # a row that names one position twice: its diagonal again, or an
    # off-diagonal one, each with a sign that fits the pattern
    for dup in (0, 1):
        ids, cols, coefs, rhs = position_system(
            {0: {0: 2, 1: -1}, 1: {0: -1, 1: 2}}, {0: 1, 1: 1})
        cols[0].append(dup)
        coefs[0].append(-1)
        with pytest.raises(_Uncertified,
                           match="not an M-matrix sign pattern"):
            RoundedSolution(ids, cols, coefs, rhs, 1)
    assert RoundedSolution([], [], [], [], 1).rounded(48) == {}


def coord_bits(coords):
    return max(max(abs(c.numerator).bit_length(), c.denominator.bit_length())
               for p in coords.values() for c in p)


def axis_over_one_den(coords, axis):
    """The rational coordinates on axis as ints over their least common
    den, as the polygon builders take them."""
    den = math.lcm(*(p[axis].denominator for p in coords.values()))
    return {v: int(p[axis] * den) for v, p in coords.items()}, den


def test_alternating_default_polygons_keep_coordinates_short():
    # The default polygon for y, then its transpose for x, as horizontal and
    # vertical redraws alternate. Between calls the new coordinate is
    # sheared by 1/4 (so that no two vertices are level on the next fixed
    # axis) and snapped to the first grid of the engine's _compact, as each
    # redraw's output is. A polygon whose width grows with the square of its
    # span would double the bits at every call.
    grid = 1 << GRIDS[0]

    def snap(c):
        return rat(round(c * grid), grid)

    cycle = (1, 2, 3, 4, 5, 6)
    coords = {v: (rat(x), rat(y)) for v, (x, y) in {
        1: (0, 0), 2: (-3, 2), 3: (-2, 7), 4: (2, 9), 5: (5, 6),
        6: (4, 1)}.items()}
    limit = coord_bits(coords) + GRIDS[0] + 4
    for _ in range(6):
        ys, den = axis_over_one_den(coords, 1)
        poly = convex_polygon_for_y(cycle, ys, den=den)
        coords = {v: (snap(x + y / 4), y)
                  for v, (x, y) in polygon_coords(poly).items()}
        assert coord_bits(coords) <= limit
        xs, den = axis_over_one_den(coords, 0)
        poly = convex_polygon_for_x(cycle, xs, den=den)
        coords = {v: (x, snap(y + x / 4))
                  for v, (x, y) in polygon_coords(poly).items()}
        assert coord_bits(coords) <= limit


# -- boundary polygon type ---------------------------------------------------


def test_boundary_polygon_validate():
    ok = BoundaryPolygon((1, 2, 3, 4), {1: (0, 0), 2: (0, 2),
                                        3: (2, 2), 4: (2, 0)}, 1)
    ok.validate()
    with pytest.raises(ValueError):
        BoundaryPolygon((1, 2), {1: (0, 0), 2: (1, 1)}, 1).validate()
    with pytest.raises(ValueError):
        BoundaryPolygon((1, 2, 3, 4, 5), {1: (0, 0), 2: (0, 1), 3: (0, 2),
                                          4: (2, 2), 5: (2, 0)}, 1).validate()
    with pytest.raises(ValueError):
        BoundaryPolygon((4, 3, 2, 1), {1: (0, 0), 2: (0, 2),
                                       3: (2, 2), 4: (2, 0)}, 1).validate()


def test_boundary_polygon_rejects_double_winding():
    # two laps around a clockwise triangle: locally convex at every corner
    # but two lexicographic minima
    pts = {1: (0, 0), 2: (2, 3), 3: (4, 0),
           4: (0, 0), 5: (2, 3), 6: (4, 0)}
    with pytest.raises(ValueError):
        BoundaryPolygon((1, 2, 3, 4, 5, 6), pts, 1).validate()


# twelve lattice points on the circle of radius 5, counterclockwise from
# (5, 0), doubled so that every chord's midpoint is a lattice point
CIRCLE = [(2 * x, 2 * y) for x, y in (
    (5, 0), (4, 3), (3, 4), (0, 5), (-3, 4), (-4, 3),
    (-5, 0), (-4, -3), (-3, -4), (0, -5), (3, -4), (4, -3))]


@st.composite
def integer_walks(draw):
    """Closed walks of integer points: corners of CIRCLE in order, or any
    grid points; either orientation, wound once or twice, with a chord
    midpoint (a collinear corner) or a repeated point put in."""
    if draw(st.booleans()):
        pts = [CIRCLE[i] for i in sorted(draw(st.sets(
            st.integers(0, len(CIRCLE) - 1), min_size=1, max_size=8)))]
    else:
        pts = draw(st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
                            min_size=1, max_size=7))
    if draw(st.booleans()):
        pts.reverse()
    pts = pts * draw(st.integers(1, 2))
    extra = draw(st.sampled_from(("none", "collinear", "repeat")))
    i = draw(st.integers(0, len(pts) - 1))
    p, q = pts[i], pts[(i + 1) % len(pts)]
    if extra == "collinear" and (p[0] + q[0]) % 2 == (p[1] + q[1]) % 2 == 0:
        pts.insert(i + 1, ((p[0] + q[0]) // 2, (p[1] + q[1]) // 2))
    elif extra == "repeat":
        pts.insert(draw(st.integers(0, len(pts))), p)
    return pts


@settings(max_examples=600, deadline=None)
@given(integer_walks())
@example([(10, 0), (6, 8), (-8, 6), (-10, 0), (0, -10)][::-1] * 2)
@example([(0, 0), (0, 2), (2, 2), (2, 0)])
def test_validate_agrees_with_the_lowest_corner_oracle(pts):
    # a strict one-way walk that winds w times changes half-plane 2w times
    # and has w lowest corners, so the two tests of winding once agree
    poly = BoundaryPolygon(tuple(range(len(pts))), dict(enumerate(pts)), 1)
    try:
        poly.validate()
        accepted = True
    except ValueError:
        accepted = False
    assert accepted == lowest_corner_convex(poly.cycle, poly.ints)


@pytest.mark.parametrize("workload",
                         ["convex_outer", "three_connected", "buffered"])
def test_one_polygon_validation_per_certified_solve(monkeypatch, workload):
    # the builder validates each polygon, and nothing validates it again
    counts = {"validate": 0, "solve": 0}
    validate, init = BoundaryPolygon.validate, RoundedSolution.__init__

    def counted_validate(self):
        counts["validate"] += 1
        validate(self)

    def counted_init(self, *args):
        counts["solve"] += 1
        init(self, *args)

    monkeypatch.setattr(BoundaryPolygon, "validate", counted_validate)
    monkeypatch.setattr(RoundedSolution, "__init__", counted_init)
    for w, i in sorted(DIGESTS):
        if w == workload:
            morph_engine.convexify(bench_drawing(w, i))
    assert counts["solve"] > 0
    assert counts["validate"] == counts["solve"]


# -- convex_polygon_for_y ----------------------------------------------------


def test_polygon_for_y_triangle_parabola():
    # x = (y - 0)(2 - y)/(2 - 0) on the right chain
    poly = convex_polygon_for_y((1, 2, 3), {1: 0, 2: 2, 3: 1})
    assert polygon_coords(poly) == {1: (rat(0), rat(0)),
                                    2: (rat(0), rat(2)),
                                    3: (rat(1, 2), rat(1))}


def test_polygon_for_y_square_chain():
    y = {1: 0, 2: 1, 3: 2, 4: 1}
    poly = convex_polygon_for_y((1, 2, 3, 4), y)
    assert polygon_coords(poly)[2] == (rat(-1, 2), rat(1))
    assert polygon_coords(poly)[4] == (rat(1, 2), rat(1))
    assert polygon_coords(poly)[1] == (rat(0), rat(0))
    assert polygon_coords(poly)[3] == (rat(0), rat(2))


def test_polygon_for_y_monotonicity_errors():
    with pytest.raises(ConstraintInfeasible, match="top vertex not unique"):
        convex_polygon_for_y((1, 2, 3), {1: 0, 2: 2, 3: 2})
    with pytest.raises(ConstraintInfeasible, match="chain not strictly"):
        convex_polygon_for_y((1, 2, 3, 4),
                             {1: 0, 2: 1, 3: 1, 4: 2})
    with pytest.raises(ConstraintInfeasible, match="chain not strictly"):
        convex_polygon_for_y((1, 2, 3, 4, 5),
                             {1: 0, 2: 3, 3: 1, 4: 4, 5: 2})


HEX_Y = {1: 0, 2: 1, 3: 3, 4: 5, 5: 4, 6: 2}
HEX_CYCLE = (1, 2, 3, 4, 5, 6)


def assert_unique_pin(poly, v, side):
    xs = {w: p[0] for w, p in polygon_coords(poly).items()}
    if side == "left":
        assert all(w == v or xs[v] < xs[w] for w in xs)
    else:
        assert all(w == v or xs[v] > xs[w] for w in xs)


@pytest.mark.parametrize("pins", [
    ((3, "left"),),
    ((5, "right"),),
    ((1, "left"),),
    ((4, "right"),),
    ((1, "right"),),
    ((4, "left"),),
    ((3, "left"), (5, "right")),
    ((1, "left"), (4, "right")),
    ((4, "left"), (1, "right")),
    ((2, "left"), (5, "right")),
])
def test_polygon_for_y_pins(pins):
    poly = convex_polygon_for_y(HEX_CYCLE, HEX_Y, pins=pins)
    poly.validate()
    for v in HEX_CYCLE:
        assert polygon_coords(poly)[v][1] == HEX_Y[v]
    for v, side in pins:
        assert_unique_pin(poly, v, side)


def test_polygon_for_y_wrong_chain():
    with pytest.raises(ConstraintInfeasible, match="not on the left chain"):
        convex_polygon_for_y(HEX_CYCLE, HEX_Y, pins=((5, "left"),))
    with pytest.raises(ConstraintInfeasible, match="not on the right chain"):
        convex_polygon_for_y(HEX_CYCLE, HEX_Y, pins=((2, "right"),))


def test_polygon_for_y_pin_conflicts():
    with pytest.raises(ConstraintInfeasible):
        convex_polygon_for_y(HEX_CYCLE, HEX_Y,
                             pins=((1, "left"), (1, "right")))
    with pytest.raises(ConstraintInfeasible):
        convex_polygon_for_y(HEX_CYCLE, HEX_Y, pins=((2, "left"), (3, "left")))


def draw_cycle(data):
    """A y-monotone clockwise cycle on vertices 1..k, numbered by height:
    (k, heights, cycle, inner left vertices, inner right vertices)."""
    k = data.draw(st.integers(min_value=3, max_value=9))
    ys = sorted(data.draw(st.lists(st.integers(-40, 40), min_size=k,
                                   max_size=k, unique=True)))
    flags = data.draw(st.lists(st.booleans(), min_size=k - 2, max_size=k - 2))
    y = {i + 1: v for i, v in enumerate(ys)}
    left_int = [i + 1 for i in range(1, k - 1) if flags[i - 1]]
    right_int = [i + 1 for i in range(1, k - 1) if not flags[i - 1]]
    cycle = tuple([1] + left_int + [k] + list(reversed(right_int)))
    return k, y, cycle, left_int, right_int


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_polygon_for_y_random_cycles(data):
    k, y, cycle, left_int, right_int = draw_cycle(data)
    left_opts = [None, 1, k] + left_int
    right_opts = [None, 1, k] + right_int
    pin_left = data.draw(st.sampled_from(left_opts))
    pin_right = data.draw(st.sampled_from(right_opts))
    pins = tuple((v, s) for v, s in ((pin_left, "left"), (pin_right, "right"))
                 if v is not None)

    if pin_left is not None and pin_left == pin_right:
        with pytest.raises(ConstraintInfeasible):
            convex_polygon_for_y(cycle, y, pins=pins)
        return

    poly = convex_polygon_for_y(cycle, y, pins=pins)
    poly.validate()
    assert poly.cycle == cycle
    for v in cycle:
        assert polygon_coords(poly)[v][1] == y[v]
    for v, side in pins:
        assert_unique_pin(poly, v, side)
    ring = {(cycle[i], cycle[(i + 1) % k]) for i in range(k)}
    g = build_plane_graph_from_points(polygon_coords(poly), ring)
    assert is_outer_walk(poly.cycle, g)
    assert is_strictly_convex(Drawing(g, polygon_coords(poly)))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_chain_slopes_match_fraction_oracle(data):
    # the integer slopes over their common denominator are the rationals
    # the Fraction construction gives, and strictly monotone
    incr = data.draw(st.lists(st.integers(1, 10 ** 6), min_size=1,
                              max_size=7))
    den = data.draw(st.integers(1, 10 ** 6))
    flip = data.draw(st.one_of(st.none(), st.integers(0, len(incr))))
    target = data.draw(st.sampled_from((-1, 0, 1)))
    e = data.draw(st.integers(1, 2 * 4 ** 6))
    rising = data.draw(st.booleans())
    s, q = tutte_solver._chain_slopes(incr, den, flip, target, e, rising)
    want = chain_slopes_fraction([Fraction(a, den) for a in incr], flip,
                                 target, Fraction(2, e), rising)
    assert q > 0
    assert [Fraction(x, q) for x in s] == want
    assert chain_shape_kept(want, None, rising)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_pinned_polygon_takes_the_least_scale_that_keeps_the_pins(data):
    # each chain of a pinned polygon has the Fraction oracle's slopes at
    # the least eta = 4^-k for which both chains keep their sign patterns
    k, y, cycle, left_int, right_int = draw_cycle(data)
    den = data.draw(st.integers(1, 10 ** 4))
    left, right = [1] + left_int + [k], [1] + right_int + [k]
    pin_left = data.draw(st.sampled_from([None] + left))
    pin_right = data.draw(st.sampled_from([None] + right))
    assume(pin_left is not None or pin_right is not None)
    assume(pin_left is None or pin_left != pin_right)
    pins = tuple((v, s) for v, s in ((pin_left, "left"), (pin_right, "right"))
                 if v is not None)
    fl = left.index(pin_left) if pin_left is not None else None
    fr = right.index(pin_right) if pin_right is not None else None
    # x of the top minus x of the bottom: a pinned end lies one unit
    # beyond the other end on its side
    target = 0
    if pin_left in (1, k):
        target = 1 if pin_left == 1 else -1
    if pin_right in (1, k):
        target = 1 if pin_right == k else -1

    def incr(chain):
        return [Fraction(y[b] - y[a], den) for a, b in zip(chain, chain[1:])]

    for j in itertools.count():
        eta = Fraction(1, 4 ** j)
        sl = chain_slopes_fraction(incr(left), fl, target, eta, True)
        sr = chain_slopes_fraction(incr(right), fr, target, eta, False)
        if chain_shape_kept(sl, fl, True) and chain_shape_kept(sr, fr, False):
            break
    want = {}
    for chain, slopes in ((left, sl), (right, sr)):
        x = Fraction(0)
        want[chain[0]] = (x, Fraction(y[chain[0]], den))
        for v, m, a in zip(chain[1:], slopes, incr(chain)):
            x += m * a
            want[v] = (x, Fraction(y[v], den))
    poly = convex_polygon_for_y(cycle, y, pins, den)
    assert polygon_coords(poly) == want


# -- convex_polygon_for_x ----------------------------------------------------


def assert_unique_vertical_extreme(poly, v, side):
    ys = {w: p[1] for w, p in polygon_coords(poly).items()}
    if side == "top":
        assert all(w == v or ys[v] > ys[w] for w in ys)
    else:
        assert all(w == v or ys[v] < ys[w] for w in ys)


def test_polygon_for_x_triangle_top():
    x = {1: 0, 2: 2, 3: 4}
    poly = convex_polygon_for_x((1, 2, 3), x, ((2, "top"),))
    poly.validate()
    for v in (1, 2, 3):
        assert polygon_coords(poly)[v][0] == x[v]
    assert_unique_vertical_extreme(poly, 2, "top")


def test_polygon_for_x_endpoint_rule():
    x = {1: 0, 2: 2, 3: 4}
    poly = convex_polygon_for_x((1, 2, 3), x, ((1, "top"),))
    assert_unique_vertical_extreme(poly, 1, "top")
    poly = convex_polygon_for_x((1, 2, 3), x, ((3, "bottom"),))
    assert_unique_vertical_extreme(poly, 3, "bottom")


QUAD_X = {1: 0, 2: 1, 3: 3, 4: 2}
QUAD_CYCLE = (1, 4, 3, 2)   # 4 on the upper chain, 2 on the lower chain


def test_polygon_for_x_quad_sides():
    poly = convex_polygon_for_x(QUAD_CYCLE, QUAD_X, ((4, "top"),))
    assert_unique_vertical_extreme(poly, 4, "top")
    for v in QUAD_CYCLE:
        assert polygon_coords(poly)[v][0] == QUAD_X[v]
    poly = convex_polygon_for_x(QUAD_CYCLE, QUAD_X, ((2, "bottom"),))
    assert_unique_vertical_extreme(poly, 2, "bottom")


def test_polygon_for_x_wrong_chain():
    # a top pin is a right pin before the swap, a bottom pin a left one
    with pytest.raises(ConstraintInfeasible, match="not on the right chain"):
        convex_polygon_for_x(QUAD_CYCLE, QUAD_X, ((2, "top"),))
    with pytest.raises(ConstraintInfeasible, match="not on the left chain"):
        convex_polygon_for_x(QUAD_CYCLE, QUAD_X, ((4, "bottom"),))
    with pytest.raises(ValueError):
        convex_polygon_for_x(QUAD_CYCLE, QUAD_X, ((4, "sideways"),))

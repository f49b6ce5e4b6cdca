"""Level enumeration tests: edge-length forms, the window polytope (the
tests-side oracles.RhsPolytope), the interval search against a box-scan
oracle, realization, and the wall-sum prefilter."""

import gc
import itertools
from fractions import Fraction

import pytest

from oracles import (
    build_rhs_polytope,
    edge_length_form,
    pairwise_least_perimeter,
)
from smoothpoly import InvariantError, fans, pipeline, rhs, seeds
from smoothpoly.fans import (
    DegenerateRay,
    Fan,
    fan_canonical_key,
    instantiate,
    wall_sum_box,
    wall_table,
    walls_of,
)
from smoothpoly.rhs import (
    enumerate_rhs,
    least_perimeter,
    passes_wall_sum,
    realize_and_filter,
    wall_sums,
)


def fp():
    return seeds.seed_fan("F_p", 12)


def fa(a):
    pf = seeds.get_seed("F_a").build(12)
    wide = Fan(pf.rays, pf.cones, bounds={"a": (-20, 20)})
    return instantiate(wide, {"a": a})


def form_by_wall(fan):
    """The enumeration's edge-length forms by wall, as dense coefficient
    tuples, checked against the oracle's forms."""
    forms = {}
    for (ridge, *_), form, _ in rhs._wall_forms(fan):
        dense = [0] * len(fan.rays)
        for i, c in form:
            dense[i] = c
        forms[ridge] = tuple(dense)
    assert forms == {w.ray_indices: edge_length_form(fan, w)
                     for w in walls_of(fan)}
    return forms


def test_edge_length_form_square():
    forms = form_by_wall(fa(0))
    # top edge: length = b[(1,0)] + b[(-1,0)]
    assert forms[(1,)] == (1, 0, 1, 0)
    assert forms[(0,)] == (0, 1, 0, 1)


def test_edge_length_form_hirzebruch():
    forms = form_by_wall(fa(2))
    # edge with normal (0,1): b[(1,0)] + b[(-1,-2)] + 2 b[(0,1)]
    assert forms[(1,)] == (1, 2, 1, 0)
    assert forms[(3,)] == (1, 0, 1, -2)


def test_edge_length_form_fp():
    for form in form_by_wall(fp()).values():
        assert form == (1, 1, 1)


def test_build_rhs_polytope_fp():
    B = build_rhs_polytope(fp(), 12)
    assert B.pinned == (0, 1)
    assert B.slack == 9
    assert B.uppers == (Fraction(11, 2),) * 3
    assert B.contains((0, 0, 3))
    assert not B.contains((0, 0, 0))    # zero-length edges
    assert not B.contains((0, 0, 5))    # edge interiors alone exceed N
    assert not B.contains((1, 0, 3))    # pinned coordinate moved


def test_enumerate_rhs_fp():
    assert enumerate_rhs(fp(), 12) == [(0, 0, 1), (0, 0, 2),
                                       (0, 0, 3), (0, 0, 4)]


def test_enumerate_rhs_matches_brute_force():
    fan = fa(2)
    B = build_rhs_polytope(fan, 12)
    assert B.pinned == (0, 1)
    brute = sorted((0, 0, b2, b3)
                   for b2 in range(-25, 26) for b3 in range(-25, 26)
                   if B.contains((0, 0, b2, b3)))
    assert enumerate_rhs(fan, 12) == brute
    assert brute  # the window is not empty for the width-2 band


def test_enumerate_rhs_simplex_3d():
    fan = seeds.seed_fan("3^4", 12)
    assert enumerate_rhs(fan, 12) == [(0, 0, 0, 1), (0, 0, 0, 2)]


def test_realize_triangle():
    fan = fp()
    poly, status, num_points = realize_and_filter(fan, (0, 0, 2), 12)
    assert status == "ok"
    assert poly.vertices == ((-2, 0), (0, -2), (0, 0))
    from smoothpoly.polytopes import count_lattice_points
    assert count_lattice_points(poly) == num_points == 6


def test_realize_rejects_oversized():
    poly, status, num_points = realize_and_filter(fp(), (0, 0, 4), 12)
    assert poly is None and status == "too_many_points" and num_points is None


def test_realize_rejects_degenerate():
    # vertical edges of length zero: two cones solve to the same vertex
    poly, status, num_points = realize_and_filter(fa(0), (0, 0, 3, 0), 12)
    assert poly is None and status == "mismatch" and num_points is None


def test_realize_rejects_shifted_vertex():
    poly, status, num_points = realize_and_filter(fp(), (0, 0, -1), 12)
    assert poly is None and status == "mismatch" and num_points is None


def test_realize_square_band():
    fan = fa(0)
    levels = enumerate_rhs(fan, 12)
    assert len(levels) == 15
    kept = []
    rejected = 0
    for b in levels:
        poly, status, num_points = realize_and_filter(fan, b, 12)
        if poly is None:
            assert status == "too_many_points"
            rejected += 1
        else:
            kept.append(poly)
            w, h = b[2] + b[0], b[3] + b[1]
            assert num_points == (w + 1) * (h + 1)
    # rectangles (w+1)(h+1) <= 12 with w + h <= 6, w, h >= 1
    assert len(kept) == 12 and rejected == 3


def test_realize_non_smooth_raises_invariant_error():
    # cone (0, 2) has determinant -2, yet every vertex comes out integral
    # and tight exactly on its own cone: the triangle (0,0), (-2,0), (0,-1)
    fan = Fan([(1, 0), (0, 1), (-1, -2)], [(0, 1), (1, 2), (0, 2)], 2)
    with pytest.raises(InvariantError, match="not smooth"):
        realize_and_filter(fan, (0, 0, 2), 12)


def test_enumerate_rhs_leaves_no_reference_cycle():
    fan = fp()
    gc.collect()
    gc.disable()
    try:
        assert len(enumerate_rhs(fan, 12)) > 1
        assert len(wall_sum_box(seeds.get_seed("4^6").build(12),
                                ["a", "b", "c"], [[-2, 0, 2]] * 3, 12)) > 1
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_unreachable_cones_raise_invariant_error():
    # two disjoint triangles of rays: every wall pairs two cones, but the
    # cones of the second one are never reached from the pinned cone
    fan = Fan([(1, 0), (0, 1), (-1, -1), (1, 1), (-1, 0), (0, -1)],
              [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    with pytest.raises(InvariantError):
        enumerate_rhs(fan, 12)


def test_non_integral_vertex_raises():
    # the cone's determinant is 2: its vertex (0, 1/2) is not integral, and
    # the fan is not smooth, which is what realization reports
    fan = Fan([(1, 0), (1, 2)], [(0, 1)], 2)
    with pytest.raises(InvariantError, match="not smooth"):
        realize_and_filter(fan, (0, 1), 12)


def test_wall_sum_scalar():
    assert passes_wall_sum(fp(), 12)
    assert wall_sums(fp()) == [-1, -1, -1]
    assert passes_wall_sum(fa(8), 12)
    assert not passes_wall_sum(fa(9), 12)
    assert passes_wall_sum(seeds.seed_fan("3^4", 12), 12)


@pytest.mark.parametrize("name,box", [
    ("4^6", [("a", [-2, 0, 2]), ("b", [-2, 0, 2]), ("c", [-2, 0, 2])]),
    ("3^2 4^3 6^2", [("a", list(range(-6, 6)))]),
])
def test_wall_sum_box_matches_scalar_3d(name, box):
    pf = seeds.get_seed(name).build(12)
    names = [n for n, _ in box]
    axes = [vals for _, vals in box]
    kept = [c for c, _ in wall_sum_box(pf, names, axes, 12)]
    scalar = [c for c in itertools.product(*axes)
              if passes_wall_sum(instantiate(pf, dict(zip(names, c))), 12)]
    assert kept == scalar


def test_wall_sum_box_matches_scalar_on_every_box_of_a_run(monkeypatch):
    """Every parameter box of the 3D N = 12 run keeps exactly the points
    whose instantiated fan passes the scalar test, in product order, with
    the rays instantiate gives.  The 472 concrete nodes that pass the
    criterion are one-point boxes ().

    Each kept fan comes with the wall table its box pass solved: the 3D
    part of the run solves no wall after the box passes, and each table
    and key equals those of a fresh fan on the same rays and cones, which
    solves its own."""
    calls = []
    box = pipeline.wall_sum_box
    solves = [0, None]     # _solve_walls calls; the count at the first box
    solve = fans._solve_walls

    def recorded(fan, names, axes, max_points):
        if solves[1] is None:
            solves[1] = solves[0]
        out = box(fan, names, axes, max_points)
        calls.append((fan, names, axes, out))
        return out

    def counted(rays, paired):
        solves[0] += 1
        return solve(rays, paired)

    monkeypatch.setattr(pipeline, "wall_sum_box", recorded)
    monkeypatch.setattr(fans, "_solve_walls", counted)
    pipeline.run_classify(pipeline.RunConfig(3, 12))
    assert solves[0] == solves[1] > 0
    points = 0
    for pf, names, axes, kept in calls:
        scalar = []
        for c in itertools.product(*axes):
            points += 1
            try:
                fan = instantiate(pf, dict(zip(names, c)))
            except DegenerateRay:
                continue
            if passes_wall_sum(fan, 12):
                scalar.append((c, fan.rays))
        assert [(c, fan.rays) for c, fan in kept] == scalar
        for c, fan in kept:
            fresh = Fan(fan.rays, fan.cones, 3)
            assert wall_table(fan) == wall_table(fresh)
            assert fan_canonical_key(fan) == fan_canonical_key(fresh)
    assert (len(calls), points, sum(len(k) for *_, k in calls)) == (
        590, 57637, 4419)


def test_enumerated_levels_lie_in_the_window():
    for fan in [fp(), fa(0), fa(2), fa(3), seeds.seed_fan("3^4", 12)]:
        B = build_rhs_polytope(fan, 12)
        levels = enumerate_rhs(fan, 12)
        assert levels == sorted(levels)
        for b in levels:
            assert B.contains(b)


def _box_scan(fan, bound):
    """Every b with free levels in [-bound, bound] that contains accepts."""
    B = build_rhs_polytope(fan, 12)
    free = [i for i in range(len(fan.rays)) if i not in B.pinned]
    found = []
    for vals in itertools.product(range(-bound, bound + 1), repeat=len(free)):
        b = [0] * len(fan.rays)
        for i, v in zip(free, vals):
            b[i] = v
        if B.contains(b):
            found.append(tuple(b))
    return sorted(found)


def test_enumerate_rhs_equals_box_scan(polygon_class_reps):
    fans = [f for f in polygon_class_reps if len(f.rays) <= 5]
    for name in seeds.seed_names(3):
        pf = seeds.get_seed(name).build(12)
        if len(pf.rays) - 3 <= 3:
            bounds = getattr(pf, "bounds", {})
            fans.append(instantiate(pf, {n: 0 for n in bounds})
                        if bounds else pf)
    assert len(fans) == 22
    bound = 12
    accepted = 0
    for fan in fans:
        scan = _box_scan(fan, bound)
        assert enumerate_rhs(fan, 12) == scan, fan.rays
        # a vector on the boundary would mean the box may be too small
        assert all(abs(x) < bound for b in scan for x in b), fan.rays
        accepted += len(scan)
    assert accepted > 0


def test_least_perimeter_hand_cases():
    assert least_perimeter((-1, -1, -1)) == 3        # F_p: the unit triangle
    assert least_perimeter((0, 0, 0, 0)) == 4        # the unit square
    for a in range(-6, 7):
        # F_a: a trapezoid with parallel edges 1 and 1 + |a|
        assert least_perimeter((0, -a, 0, a)) == 4 + abs(a)
    # the hexagon (cycle of six 1s) closes with every edge of length 1
    assert least_perimeter((1, 1, 1, 1, 1, 1)) == 6
    # an 11-gon whose real optimum is g = 2/3: the bound rounds up to 12,
    # which the integer search attains
    cycle = (1, 3, 1, 2, 2, 2, 1, 3, 2, 1, 3)
    rays = [(1, 0), (0, 1)]
    for a in cycle[1:-1]:
        rays.append(tuple(a * x - y for x, y in zip(rays[-1], rays[-2])))
    assert least_perimeter(cycle) == _exact_least_perimeter(rays, 12) == 12


@pytest.mark.parametrize("max_points, classes", [(12, 1992), (13, 7360)])
def test_least_perimeter_matches_pairwise_oracle(max_points, classes):
    """The hull pass gives the all-pairs minimum on every class of the
    polygon walk."""
    table = pipeline._polygon_walk(max_points, None, pipeline.Diagnostics())
    assert len(table) == classes
    for _, key, _ in table:
        assert least_perimeter(key) == pairwise_least_perimeter(key), key


def test_least_perimeter_is_dihedral_invariant(polygon_class_table):
    for _, key, _ in polygon_class_table[::7]:
        want = least_perimeter(key)
        for seq in (key, key[::-1]):
            for s in range(len(seq)):
                assert least_perimeter(seq[s:] + seq[:s]) == want, key


def test_least_perimeter_skips_only_empty_classes(polygon_class_table,
                                                  polygon_class_reps):
    rejected = 0
    for (_, key, _), fan in zip(polygon_class_table, polygon_class_reps):
        if least_perimeter(key) > 12:
            rejected += 1
            assert enumerate_rhs(fan, 12) == [], key
    assert rejected == 1962


def _exact_least_perimeter(rays, max_points):
    """Least integer sum of l >= 1 with sum l_i r_i = 0, or None past N.

    Breadth-first over the number t of extra unit lengths: the sums of t
    rays, with no cap on any single edge, until -sum r is reached.
    """
    k = len(rays)
    target = tuple(-sum(r[j] for r in rays) for j in range(2))
    reach = {(0, 0)}
    for t in range(max_points - k + 1):
        if target in reach:
            return k + t
        reach = {(x + rx, y + ry) for x, y in reach for rx, ry in rays}
    return None


def test_least_perimeter_never_exceeds_the_exact_least(polygon_class_table,
                                                       polygon_class_reps):
    within = tight = 0
    for (_, key, _), fan in zip(polygon_class_table, polygon_class_reps):
        exact = _exact_least_perimeter(fan.rays, 12)
        if exact is None:
            continue
        bound = least_perimeter(key)
        assert bound <= exact, key
        within += 1
        tight += bound == exact
    # 30 classes close within 12 points, and the bound is attained on each
    assert within == tight == 30

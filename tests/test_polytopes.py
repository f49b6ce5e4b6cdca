import gc
import itertools
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from conftest import package_env
from oracles import is_smooth_fan, solve_rational, vec_scale
from smoothpoly import InvariantError
from smoothpoly.exact_linalg import determinant, dot, vec_add
from smoothpoly.fans import fan_canonical_key, Fan
from smoothpoly.polytopes import (
    HPolytope,
    NotFullDim,
    VPolytope,
    count_lattice_points,
    edges_of,
    facets_of,
    interior_lattice_points,
    is_smooth,
    lattice_points,
    normal_fan,
    _hull_facets,
)


def unit_square():
    return VPolytope([(0, 0), (1, 0), (0, 1), (1, 1)])


def hull(points):
    return VPolytope.from_points(points)


def brute_vertices(H):
    """H -> V by brute force: solve every d-subset of inequalities with a
    nonzero determinant, keep the integral solutions that satisfy all."""
    found = set()
    for idx in itertools.combinations(range(len(H.A)), H.d):
        M = [H.A[i] for i in idx]
        if determinant(M) == 0:
            continue
        x = solve_rational(M, [H.b[i] for i in idx])
        if all(dot(row, x) <= c for row, c in zip(H.A, H.b)):
            assert all(f.denominator == 1 for f in x), (H.A, H.b, x)
            found.add(tuple(int(f) for f in x))
    return VPolytope(found, H.d)


def test_vpolytope_rejects_non_integer_vertex():
    with pytest.raises(ValueError, match="non-integer"):
        VPolytope([(0, 0), (Fraction(1, 2), 0), (0, 1)])


# inputs the constructors reject, as source text for the python -O run
BAD_INPUTS = [
    "Fan([(1, 0), (1, 0), (0, 1)], [(0, 2), (1, 2)])",
    "Fan([(1, 0), (0, 1)], [(0, 5)])",
    "HPolytope([(2, 0), (0, 1), (-1, -1)], [0, 0, 1], 2)",
    "VPolytope([(0, 0), (1, 0, 0)])",
]
BAD_INPUT_ERRORS = [
    "ValueError duplicate rays",
    "ValueError cones ((0, 5),) name a ray index outside 0..1",
    "ValueError facet normal (2, 0) is not primitive",
    "ValueError vertices of a 2-dimensional polytope have other lengths: "
    "[(0, 0), (1, 0, 0)]",
]


@pytest.mark.parametrize("source,error", zip(BAD_INPUTS, BAD_INPUT_ERRORS))
def test_constructors_reject_bad_input(source, error):
    with pytest.raises(ValueError) as exc:
        eval(source)
    assert "%s %s" % (type(exc.value).__name__, exc.value) == error


def test_constructors_reject_bad_input_under_optimize():
    """python -O drops assert statements, not the constructors' checks."""
    script = (
        "from smoothpoly.fans import Fan\n"
        "from smoothpoly.polytopes import HPolytope, VPolytope\n"
        "assert False, 'asserts are on'\n"
        "for source in %r:\n"
        "    try:\n"
        "        eval(source)\n"
        "    except Exception as exc:\n"
        "        print(type(exc).__name__, exc)\n"
        "    else:\n"
        "        print('accepted', source)\n" % (BAD_INPUTS,))
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          env=package_env(), capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == BAD_INPUT_ERRORS


def test_lattice_points_triangle():
    P = hull([(0, 0), (2, 0), (0, 2)])
    assert lattice_points(P) == [(0, 0), (0, 1), (0, 2),
                                 (1, 0), (1, 1), (2, 0)]


def test_lattice_points_cube():
    P = hull([(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)])
    assert len(lattice_points(P)) == 8


def test_lattice_points_segment_rejected():
    seg = VPolytope([(0, 0), (3, 0)])
    with pytest.raises(NotFullDim):
        lattice_points(seg)


def test_count_lattice_points_cutoff():
    P = hull([(0, 0), (2, 0), (0, 2)])
    assert count_lattice_points(P) == 6
    assert count_lattice_points(P, limit=4) == 5
    assert count_lattice_points(P, limit=6) == 6


def test_interior_lattice_points():
    assert interior_lattice_points(hull([(0, 0), (2, 0), (0, 2)])) == []
    assert interior_lattice_points(hull([(0, 0), (3, 0), (0, 3)])) == [(1, 1)]
    assert interior_lattice_points(unit_square()) == []


def test_edges_of_unit_square():
    edges = edges_of(unit_square())
    assert len(edges) == 4
    assert all(e.lattice_length == 1 for e in edges)


def test_edges_of_triangle():
    edges = edges_of(VPolytope.from_points([(0, 0), (2, 0), (0, 2)]))
    assert len(edges) == 3
    assert sorted(e.lattice_length for e in edges) == [2, 2, 2]


def test_edges_of_cube():
    V = VPolytope.from_points(
        [(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)])
    assert len(edges_of(V)) == 12


def test_edge_data_invariant():
    V = VPolytope.from_points([(0, 0), (4, 0), (0, 2), (4, 2)])
    for e in edges_of(V):
        i, j = e.endpoints
        assert V.vertices[j] == vec_add(
            V.vertices[i], vec_scale(e.lattice_length, e.direction))


def test_is_smooth_unit_simplex():
    assert is_smooth(VPolytope.from_points([(0, 0), (1, 0), (0, 1)])) == (
        True, None)


def test_is_smooth_witness():
    ok, witness = is_smooth(VPolytope.from_points([(0, 0), (2, 0), (1, 2)]))
    assert not ok and witness == (0, 0)


def test_is_smooth_octahedron_not_simple():
    pts = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1),
           (0, 0, -1)]
    ok, witness = is_smooth(VPolytope.from_points(pts))
    assert not ok and witness in set(pts)


def test_normal_fan_unit_square():
    fan = normal_fan(unit_square())
    assert set(fan.rays) == {(1, 0), (0, 1), (-1, 0), (0, -1)}
    assert len(fan.cones) == 4


def test_normal_fan_simplex_is_fp():
    fan = normal_fan(VPolytope.from_points([(0, 0), (1, 0), (0, 1)]))
    assert set(fan.rays) == {(-1, 0), (0, -1), (1, 1)}
    fp = Fan([(1, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2), (2, 0)])
    assert fan_canonical_key(fan) == fan_canonical_key(fp)


def test_normal_fan_duality_square():
    V = unit_square()
    assert is_smooth(V)[0]
    assert is_smooth_fan(normal_fan(V))[0]


def test_normal_fan_octahedron_not_smooth():
    V = VPolytope.from_points([(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0),
                               (0, 0, 1), (0, 0, -1)])
    ok, _ = is_smooth_fan(normal_fan(V))
    assert not ok


def test_from_points_drops_non_vertices():
    V = VPolytope.from_points([(0, 0), (2, 0), (0, 2), (1, 1), (1, 0)])
    assert V.vertices == ((0, 0), (0, 2), (2, 0))


def test_from_points_degenerate():
    with pytest.raises(NotFullDim):
        VPolytope.from_points([(0, 0), (1, 0), (2, 0)])


def random_lattice_polytope(rng, d, spread=3, npts=7):
    while True:
        pts = [tuple(rng.randint(-spread, spread) for _ in range(d))
               for _ in range(npts)]
        try:
            return VPolytope.from_points(pts)
        except NotFullDim:
            continue


def test_roundtrip_h_v_random():
    rng = random.Random(515)
    for _ in range(40):
        d = rng.choice([2, 3])
        V = random_lattice_polytope(rng, d)
        H = facets_of(V)
        assert brute_vertices(H) == V
        H2 = facets_of(brute_vertices(H))
        assert H2.A == H.A and H2.b == H.b


def test_point_partition_random():
    rng = random.Random(626)
    for _ in range(30):
        d = rng.choice([2, 3])
        V = random_lattice_polytope(rng, d)
        H = facets_of(V)
        pts = lattice_points(V, H)
        interior = interior_lattice_points(V)
        boundary = [p for p in pts
                    if any(dot(row, p) == c for row, c in zip(H.A, H.b))]
        assert len(pts) == len(interior) + len(boundary)
        assert set(interior).isdisjoint(boundary)


def test_edge_lattice_point_consistency_random():
    # points on edges = vertices + interior edge points, counted by length
    rng = random.Random(737)
    for _ in range(25):
        d = rng.choice([2, 3])
        V = random_lattice_polytope(rng, d)
        H = facets_of(V)
        on_edges = set()
        total = 0
        for e in edges_of(V):
            i, _ = e.endpoints
            for t in range(e.lattice_length + 1):
                on_edges.add(vec_add(V.vertices[i],
                                     vec_scale(t, e.direction)))
            total += e.lattice_length - 1
        assert len(on_edges) == total + len(V.vertices)
        pts = set(lattice_points(V, H))
        assert on_edges <= pts


def test_euler_relation_random():
    # the counting rules of from_points and edges_of on arbitrary hulls,
    # simple or not: V - E + F = 2 in 3D, E = V in 2D
    rng = random.Random(848)
    for d, npts in ((3, 6), (3, 9), (3, 14), (2, 9)):
        for _ in range(15):
            V = random_lattice_polytope(rng, d, npts=npts)
            nv, ne, nf = (len(V.vertices), len(edges_of(V)),
                          len(facets_of(V).A))
            if d == 3:
                assert nv - ne + nf == 2, V.vertices
            else:
                assert ne == nv == nf, V.vertices


@pytest.mark.parametrize("d", [1, 4])
def test_polytopes_need_dimension_two_or_three(d):
    unit = [tuple(int(i == j) for j in range(d)) for i in range(d)]
    simplex = [tuple(0 for _ in range(d))] + unit
    with pytest.raises(ValueError, match="dimension 2 or 3"):
        HPolytope(unit + [tuple(-1 for _ in range(d))], [1] * (d + 1))
    with pytest.raises(ValueError, match="dimension 2 or 3"):
        VPolytope(simplex)
    with pytest.raises(ValueError, match="dimension 2 or 3"):
        VPolytope.from_points(simplex)


def test_lattice_count_leaves_no_reference_cycle():
    # an early-stopped count drops a suspended point iterator; it must be
    # freed by reference counting alone
    P = hull([(0, 0), (6, 0), (0, 6)])
    gc.collect()
    gc.disable()
    try:
        assert count_lattice_points(P, limit=5) == 6
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_hull_facets_needs_a_facet():
    # fewer than d points span no hyperplane, so no facet is found
    with pytest.raises(InvariantError):
        _hull_facets([(0, 0)], 2)

import math
import random
import subprocess
import sys
from collections import Counter
from itertools import permutations, product

import pytest

from conftest import package_env, random_unimodular
from oracles import (
    Inconsistent,
    NonIntegral,
    ParametricWallUnsupported,
    all_flags_key,
    edge_parameters,
    is_complete_fan,
    is_smooth_fan,
    keyed_fans,
)
from smoothpoly import InvariantError, exact_linalg, fans, pipeline, seeds
from smoothpoly.exact_linalg import (
    columns_matrix,
    determinant,
    inverse_unimodular,
    mat_vec,
)
from smoothpoly.fans import (
    DegenerateRay,
    Fan,
    InvalidCone,
    NotComplete,
    OutOfBounds,
    ParamExpr,
    Wall,
    blow_up,
    fan_canonical_key,
    instantiate,
    star_cycles,
    wall_sum_box,
    wall_table,
    walls_of,
)
from smoothpoly.rhs import passes_wall_sum
from smoothpoly.search import walk_tree

A = ParamExpr.var("a")


def fp_fan():
    return Fan([(1, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2), (2, 0)])


def square_fan():
    return Fan([(1, 0), (0, 1), (-1, 0), (0, -1)],
               [(0, 1), (1, 2), (2, 3), (3, 0)])


def fa_fan(n_max=12):
    return Fan([(1, 0), (0, 1), (-1, -A), (0, -1)],
               [(0, 1), (1, 2), (2, 3), (3, 0)],
               bounds={"a": (0, n_max)}, excluded={"a": {1}})


def tetra_fan():
    # all four triples of (0,1,0), (1,0,0), (-1,-1,-1), (0,0,1)
    return Fan([(0, 1, 0), (1, 0, 0), (-1, -1, -1), (0, 0, 1)],
               [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])


def test_param_expr_arithmetic():
    b = ParamExpr.var("b")
    e = 2 * A + b - 3
    assert e.evaluate({"a": 5, "b": 1}) == 8
    assert (A + 1) - 1 == A
    assert -(2 * A) == -2 * A
    assert hash(A + 0) == hash(A)
    assert repr(2 * A + 1) == "2a+1"
    assert repr(-A) == "-a"
    # arithmetic that cancels every parameter gives a plain int, so equal
    # values hash equal and no expression equals an int
    for zero_sum, value in [(A - A, 0), (A - A + 1, 1), (0 * A, 0),
                            (e - 2 * A - b, -3)]:
        assert type(zero_sum) is int and zero_sum == value
    assert A != 0 and A + 1 != 1 and hash(A - A + 1) == hash(1)


def test_param_expr_needs_a_parameter():
    """An expression with no nonzero coefficient is an int, never a
    ParamExpr: building one raises."""
    for coeffs in [{}, {"a": 0}, {"a": 0, "b": 0}]:
        with pytest.raises(ValueError, match="reads no parameter"):
            ParamExpr(4, coeffs)
    assert ParamExpr(4, {"a": 0, "b": 2}).coeffs == {"b": 2}


def test_fan_rejects_rays_equal_after_cancelling():
    """(A - A + 1, 0) is the ray (1, 0), so a fan holding both has two
    equal rays."""
    with pytest.raises(ValueError, match="duplicate rays"):
        Fan([(A - A + 1, 0), (1, 0), (0, 1), (-1, -1)],
            [(0, 2), (2, 3), (1, 3)])


def test_walls_of_counts():
    assert len(walls_of(fp_fan())) == 3
    assert len(walls_of(square_fan())) == 4
    assert len(walls_of(tetra_fan())) == 6


def test_walls_of_incomplete_raises():
    partial = Fan([(1, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2)])
    with pytest.raises(NotComplete):
        walls_of(partial)


def test_wall_structure():
    for w in walls_of(square_fan()):
        assert len(w.ray_indices) == 1
        assert len(w.incident) == 2
    # wall spanned by ray (0,1) of F_a: opposite rays are (1,0) and (-1,-a)
    fa = fa_fan()
    w = next(w for w in walls_of(fa) if w.ray_indices == (1,))
    assert set(w.opposite) == {0, 2}


def test_edge_parameters_fa():
    fa = fa_fan()
    w = next(w for w in walls_of(fa) if w.ray_indices == (1,))
    ep = edge_parameters(fa, w)
    assert ep.coeffs == (-A,)


def test_edge_parameters_square():
    sq = square_fan()
    w = next(w for w in walls_of(sq) if w.ray_indices == (0,))
    assert edge_parameters(sq, w).coeffs == (0,)


def test_edge_parameters_tetra():
    fan = tetra_fan()
    for w in walls_of(fan):
        assert edge_parameters(fan, w).coeffs == (-1, -1)


def test_edge_parameters_substitution_identity():
    # r1 + r2 == sum a_i n_i, on all walls of a few concrete fans
    for fan in [fp_fan(), square_fan(), tetra_fan(),
                instantiate(fa_fan(), {"a": 4})]:
        for w in walls_of(fan):
            ep = edge_parameters(fan, w)
            r1 = fan.rays[w.opposite[0]]
            r2 = fan.rays[w.opposite[1]]
            total = tuple(a + b for a, b in zip(r1, r2))
            combo = tuple(sum(c * fan.rays[i][k]
                              for c, i in zip(ep.coeffs, w.ray_indices))
                          for k in range(fan.d))
            assert total == combo


def test_edge_parameters_non_integral():
    # span((1,1,0),(1,-1,0)) meets Z^3 in a finer lattice; the solve is 1/2
    fan = Fan([(1, 1, 0), (1, -1, 0), (0, 0, 1), (1, 0, -1)],
              [(0, 1, 2), (0, 1, 3)])
    wall = Wall((0, 1), (0, 1), (2, 3))
    with pytest.raises(NonIntegral):
        edge_parameters(fan, wall)


def test_edge_parameters_parametric_wall_unsupported():
    fa = fa_fan()
    w = next(w for w in walls_of(fa) if w.ray_indices == (2,))
    with pytest.raises(ParametricWallUnsupported):
        edge_parameters(fa, w)


@pytest.mark.parametrize("fan,wall", [
    # (0,1) + (1,1) is not a multiple of the wall ray (1,0)
    (Fan([(1, 0), (0, 1), (1, 1)], [(0, 1), (0, 2)]),
     Wall((0,), (0, 1), (1, 2))),
    # (1,1) + (0,-1) = (1,0) is not a multiple of (2,1), nor half of one
    (Fan([(2, 1), (1, 1), (0, -1)], [(0, 1), (0, 2)]),
     Wall((0,), (0, 1), (1, 2))),
    # (0,0,1) + (1,1,1) leaves the plane of (1,0,0) and (0,1,0)
    (Fan([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)],
         [(0, 1, 2), (0, 1, 3)]),
     Wall((0, 1), (0, 1), (2, 3))),
    # (1,1,1) + (-1,-1,0) = (0,0,1) leaves the plane of (1,0,0) and (0,2,1),
    # where the second coordinate alone would come out as 1/5
    (Fan([(1, 0, 0), (0, 2, 1), (1, 1, 1), (-1, -1, 0)],
         [(0, 1, 2), (0, 1, 3)]),
     Wall((0, 1), (0, 1), (2, 3))),
])
def test_edge_parameters_inconsistent(fan, wall):
    with pytest.raises(Inconsistent):
        edge_parameters(fan, wall)


def _box_axes(fan):
    """The sorted parameter names of a 3D fan, and per name the range its
    bounds give: the axes whose product wall_sum_box walks."""
    names = sorted(fan.bounds)
    return names, [range(fan.bounds[n][0], fan.bounds[n][1] + 1)
                   for n in names]


def _corner_instances(fan):
    """(point, fan at point) for the first, middle and last values of the
    parameter box's axes, taken together, skipping a degenerate point."""
    names, axes = _box_axes(fan)
    for vals in zip(*[(ax[0], ax[len(ax) // 2], ax[-1]) for ax in axes]):
        point = dict(zip(names, vals))
        try:
            yield point, instantiate(fan, point)
        except DegenerateRay:
            continue


def _edge_parameter_fans(polygon_class_reps):
    """2D class representatives, then 3D seeds and their first blow-ups,
    each parametric fan also instantiated across its parameter box."""
    yield from polygon_class_reps
    for name in seeds.seed_names(3):
        for node in walk_tree(seeds.get_seed(name).build(12), 9):
            fan = node.fan
            yield fan
            if fan.bounds:
                for _, instance in _corner_instances(fan):
                    yield instance


def test_edge_parameters_agree_with_wall_table_on_instances(
        polygon_class_reps):
    """On each family of _edge_parameter_fans, the coefficients that
    edge_parameters solves over Fraction as ParamExprs, evaluated at a
    corner point, equal the wall_table row of the fan instantiated there
    (rows come in walls_of order).  Concrete fans are compared in
    test_wall_table_matches_edge_parameters."""
    families = points = checked = 0
    for fan in _edge_parameter_fans(polygon_class_reps):
        if not fan.bounds:
            continue
        families += 1
        solved = []
        for wall in walls_of(fan):
            try:
                solved.append((wall, edge_parameters(fan, wall).coeffs))
            except ParametricWallUnsupported:
                solved.append((wall, None))
        for point, instance in _corner_instances(fan):
            points += 1
            rows = wall_table(instance)
            assert len(rows) == len(solved)
            for (wall, coeffs), row in zip(solved, rows):
                assert row[:3] == (wall.ray_indices, wall.incident,
                                   wall.opposite)
                if coeffs is None:
                    continue
                assert row[3] == tuple(
                    a.evaluate(point) if isinstance(a, ParamExpr) else a
                    for a in coeffs), (fan.rays, point, wall)
                checked += 1
    assert (families, points, checked) == (34, 102, 699)


def _concrete_fans(polygon_class_reps):
    """The concrete fans of _edge_parameter_fans: 1992 + 230 of them."""
    return [fan for fan in _edge_parameter_fans(polygon_class_reps)
            if not fan.bounds]


def test_wall_table_matches_edge_parameters(polygon_class_reps):
    fans_seen = walls_seen = 0
    for fan in _concrete_fans(polygon_class_reps):
        want = [(w.ray_indices, w.incident, w.opposite,
                 edge_parameters(fan, w).coeffs) for w in walls_of(fan)]
        got = wall_table(fan)
        assert got == want, fan.rays
        assert all(type(a) is int for *_, coeffs in got for a in coeffs)
        fans_seen += 1
        walls_seen += len(got)
    assert fans_seen == 2222 and walls_seen > 20000


def test_wall_table_errors():
    # ridge (1,) of the first cone and (2,) of the second have no partner
    with pytest.raises(NotComplete, match="1 maximal cones"):
        wall_table(Fan([(1, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2)]))
    # ray 0 is the shared ridge of four cones
    with pytest.raises(NotComplete, match="4 maximal cones"):
        wall_table(Fan([(1, 0), (0, 1), (0, -1), (1, 1), (1, -1)],
                       [(0, 1), (0, 2), (0, 3), (0, 4)]))
    # normal fan of a lattice tetrahedron: wall {0, 1} joins two cones of
    # determinant -2 and 2 (its coefficients would be (-1/2, -1/2))
    simplex = Fan([(-1, 0, -1), (-1, 0, 1), (0, -1, 1), (1, 1, -1)],
                  [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])
    with pytest.raises(InvariantError, match=r"wall \(0, 1\) is not smooth"):
        wall_table(simplex)
    # tetrahedral combinatorics, but (0,0,1) + (-1,-1,-2) leaves the plane
    # of wall {0, 1}, spanned by (0,1,0) and (1,0,0): det(n1, n2, p) = 2
    skew = Fan([(0, 1, 0), (1, 0, 0), (-1, -1, -2), (0, 0, 1)],
               tetra_fan().cones)
    with pytest.raises(InvariantError, match=r"det\(n1, n2, p\) = 2"):
        wall_table(skew)
    # a complete 2D fan whose cone {0, 1} has determinant 2, so its wall at
    # ray 0 is not smooth: (1,2) + (-1,-1) is no multiple of (1,0)
    with pytest.raises(InvariantError, match=r"wall \(0,\) is not smooth"):
        wall_table(Fan([(1, 0), (1, 2), (-1, -1)], [(0, 1), (1, 2), (0, 2)]))
    # wall tables exist in dimension 2 and 3 only
    with pytest.raises(ValueError, match="dimension 2 or 3"):
        wall_table(Fan([(1,), (-1,)], [(0,), (1,)]))
    # a square-based pyramid cone in an octahedral-looking fan
    octa = Fan([(1, 0, 0), (0, 1, 0), (-1, 0, 0), (0, -1, 0), (0, 0, 1)],
               [(0, 1, 2, 3), (0, 1, 4), (1, 2, 4), (2, 3, 4), (0, 3, 4)])
    with pytest.raises(ValueError, match="simplicial"):
        wall_table(octa)


@pytest.mark.parametrize("name", ["F_a", "(3^2 4^3)'", "4^6"])
def test_wall_table_and_fan_key_need_a_concrete_fan(name):
    """A family has no numeric walls: both functions raise ValueError
    naming its parameters before any wall is solved, also on a second
    call, and an instance of it solves."""
    pf = seeds.get_seed(name).build(12)
    params = ", ".join(sorted(pf.bounds))
    for _ in range(2):
        for function in (wall_table, fan_canonical_key):
            with pytest.raises(ValueError, match="the parameters %s: .*"
                               "concrete fan" % params):
                function(pf)
    assert pf._table is None
    _, instance = next(_corner_instances(pf))
    assert len(wall_table(instance)) == len(walls_of(pf))


def test_is_smooth_fan():
    assert is_smooth_fan(fp_fan()) == (True, None)
    assert is_smooth_fan(tetra_fan()) == (True, None)
    bad = Fan([(1, 0), (1, 2), (0, -1)], [(0, 1), (1, 2), (2, 0)])
    ok, witness = is_smooth_fan(bad)
    assert not ok and witness == 0
    # non-simplicial cone reported with its index
    octa = Fan([(1, 0, 0), (0, 1, 0), (-1, 0, 0), (0, -1, 0), (0, 0, 1)],
               [(0, 1, 2, 3), (0, 1, 4), (1, 2, 4), (2, 3, 4), (3, 0, 4)])
    ok, witness = is_smooth_fan(octa)
    assert not ok and witness == 0


def test_is_complete_fan():
    assert is_complete_fan(fp_fan())
    partial = Fan([(1, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2)])
    assert not is_complete_fan(partial)
    octa = Fan([(0, -1, 0), (1, 0, 0), (0, 1, 0), (-1, 0, 0),
                (0, 0, -1), (0, 0, 1)],
               [(0, 1, 4), (1, 2, 4), (2, 3, 4), (3, 0, 4),
                (0, 1, 5), (1, 2, 5), (2, 3, 5), (3, 0, 5)])
    assert is_complete_fan(octa)
    assert len(walls_of(octa)) == 12  # 6 - 12 + 8 = 2
    # the normal fan of the octahedron: six cones of four rays each; only
    # a simplicial fan has ridges to pair, so it is rejected as in walls_of
    cube = [(x, y, z) for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)]
    quads = Fan(cube, [[i for i, r in enumerate(cube) if r[k] == s]
                       for k in range(3) for s in (-1, 1)])
    assert max(len(c) for c in quads.cones) == 4
    with pytest.raises(ValueError):
        is_complete_fan(quads)


def test_blow_up_fp():
    fan = blow_up(fp_fan(), (0, 1))
    assert len(fan.rays) == 4 and fan.rays[-1] == (1, 1)
    assert len(fan.cones) == 4
    assert is_smooth_fan(fan)[0] and is_complete_fan(fan)
    # the result is the Hirzebruch fan with parameter 1
    f1 = Fan([(1, 0), (0, 1), (-1, -1), (0, -1)],
             [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert fan_canonical_key(fan) == fan_canonical_key(f1)


def test_blow_up_cone_indexing_2d():
    # children of cone i land at positions i and k+1
    fan = blow_up(fp_fan(), (0, 1))
    assert fan.cones == ((0, 3), (1, 2), (0, 2), (1, 3))


def test_blow_up_cone_indexing_3d():
    fan = blow_up(tetra_fan(), (0, 1, 2))
    assert fan.rays[-1] == (0, 0, -1)   # sum of the three rays
    assert fan.cones == ((0, 1, 4), (0, 1, 3), (0, 2, 3), (1, 2, 3),
                         (0, 2, 4), (1, 2, 4))


def test_blow_up_wall_3d():
    fan = blow_up(tetra_fan(), (0, 1))
    assert len(fan.rays) == 5 and fan.rays[-1] == (1, 1, 0)
    assert len(fan.cones) == 6
    assert is_smooth_fan(fan)[0] and is_complete_fan(fan)
    # {p,n1,s} -> i1, {q,n1,s} -> i2, {p,n2,s} -> k+1, {q,n2,s} -> k+2
    assert fan.cones == ((0, 2, 4), (0, 3, 4), (0, 2, 3), (1, 2, 3),
                         (1, 2, 4), (1, 3, 4))


def test_blow_up_invalid_targets():
    with pytest.raises(InvalidCone):
        blow_up(fp_fan(), (0, 2, 1))
    with pytest.raises(InvalidCone):
        blow_up(fp_fan(), (0,))       # 2D wall = existing ray
    with pytest.raises(InvalidCone):
        blow_up(tetra_fan(), (9, 1, 2))


def test_blow_up_preserves_smooth_complete():
    rng = random.Random(77)
    for start in [fp_fan, square_fan, tetra_fan]:
        for _ in range(10):
            fan = start()
            for _ in range(5):
                if fan.d == 3 and rng.random() < 0.4:
                    target = rng.choice(walls_of(fan)).ray_indices
                else:
                    target = rng.choice(fan.cones)
                fan = blow_up(fan, target)
                assert is_smooth_fan(fan)[0]
                assert is_complete_fan(fan)


def test_blow_up_param_fan():
    fa = fa_fan()
    blown = blow_up(fa, (0, 1))
    assert blown.bounds == fa.bounds
    assert blown.excluded == fa.excluded
    assert blown.rays[-1] == (1, 1)
    # instantiating commutes with blowing up
    left = instantiate(blown, {"a": 3})
    right = blow_up(instantiate(fa, {"a": 3}), (0, 1))
    assert left == right
    assert left.bounds == right.bounds == {}


def test_instantiate_fa():
    assert instantiate(fa_fan(), {"a": 0}).rays == (
        (1, 0), (0, 1), (-1, 0), (0, -1))
    assert instantiate(fa_fan(), {"a": 2}).rays[2] == (-1, -2)


def test_instantiate_out_of_bounds():
    with pytest.raises(OutOfBounds):
        instantiate(fa_fan(), {"a": 13})
    with pytest.raises(OutOfBounds):
        instantiate(fa_fan(), {"a": -1})
    with pytest.raises(OutOfBounds):
        instantiate(fa_fan(), {"a": 1})   # excluded value


def test_instantiate_names_a_missing_or_unknown_parameter():
    """Every parameter of the box needs a value, and a name outside the
    box is no parameter of the fan: both raise OutOfBounds naming it."""
    pf = seeds.get_seed("4^6").build(12)
    with pytest.raises(OutOfBounds, match="parameter b has no value"):
        instantiate(pf, {"a": 0, "c": 0})
    for fan, assignment, name in [(pf, {"a": 0, "b": 0, "c": 0, "d": 0}, "d"),
                                  (fa_fan(), {"a": 2, "b": 0}, "b"),
                                  (tetra_fan(), {"b": 0}, "b")]:
        with pytest.raises(OutOfBounds, match=name + " is not a parameter"):
            instantiate(fan, assignment)


def test_instantiate_degenerate_rays():
    zero = Fan([(1, 0), (0, 1), (A, -1)], [(0, 1), (1, 2), (2, 0)],
               bounds={"a": (-2, 2)})
    instantiate(zero, {"a": -1})  # fine: ray (-1,-1)
    dup = Fan([(1, 0), (0, 1), (A, 1)], [(0, 1), (1, 2), (2, 0)],
              bounds={"a": (-2, 2)})
    with pytest.raises(DegenerateRay):
        instantiate(dup, {"a": 0})  # (0,1) appears twice
    vanish = Fan([(1, 0), (0, 1), (A, 0)], [(0, 1), (1, 2), (2, 0)],
                 bounds={"a": (-2, 2)})
    with pytest.raises(DegenerateRay):
        instantiate(vanish, {"a": 0})


def test_instantiate_returns_a_concrete_fan_itself():
    for fan in (fp_fan(), tetra_fan(), blow_up(tetra_fan(), (0, 1))):
        assert instantiate(fan, {}) is fan


def test_family_members_share_the_wall_structure():
    """Members of one family share its cone set's wall structure; a fan
    blown up from a member has other cones and builds its own."""
    seed = seeds.get_seed("4^6").build(12)
    members = [instantiate(seed, a) for a in
               ({"a": 1, "b": 0, "c": 2}, {"a": 0, "b": 0, "c": 0},
                {"a": -2, "b": 3, "c": 1})]
    for fan in members:
        fresh = Fan(fan.rays, fan.cones)
        assert fan._walls is seed._walls and fresh._walls is None
        assert wall_table(fan) == wall_table(fresh)
        assert fan_canonical_key(fan) == fan_canonical_key(fresh)
        blown = blow_up(fan, fan.cones[0])
        assert blown._walls is None
        assert wall_table(blown) == wall_table(Fan(blown.rays, blown.cones))
        assert blown._walls is not seed._walls
        assert fan_canonical_key(blown) == fan_canonical_key(
            Fan(blown.rays, blown.cones))
    assert fan_canonical_key(members[0]) != fan_canonical_key(members[1])


def test_3d_seed_cones_are_unimodular_on_their_whole_box():
    """Every 3D seed's cone determinants are +-1 at every point of its
    N = 12 box, hence everywhere.  A determinant has degree at most 3 in
    each parameter, and every axis has at least 7 values: a polynomial of
    degree at most 3 that takes only the values +-1 on 7 points takes one
    of them 4 times, so it is constant.  And at every wall, spanned by n1,
    n2 with opposite rays p and q, det(n1, n2, q) = -det(n1, n2, p): the
    two are constant, so this too holds everywhere.  Blow-ups keep both,
    as the new ray is the sum of the rays it splits.  These are the
    premises of wall_sum_box's Cramer solve: every wall solves in integers
    and every ray, lying in a unimodular cone, is primitive.  The box pass
    does not lean on this test at run time: its axis cut checks the same
    premise from its samples, on the whole axis, and an axis where the
    samples do not show it is scanned, which raises at a bad point."""
    for name in seeds.seed_names(3):
        pf = seeds.get_seed(name).build(12)
        names, axes = _box_axes(pf)
        assert all(len(axis) >= 7 for axis in axes), name
        walls = walls_of(pf)
        for values in product(*axes):
            point = dict(zip(names, values))
            rays = [tuple(x.evaluate(point) if isinstance(x, ParamExpr) else x
                          for x in ray) for ray in pf.rays]
            for cone in pf.cones:
                assert determinant([rays[i] for i in cone]) in (1, -1), (
                    name, values, cone)
            for wall in walls:
                n1, n2 = (rays[i] for i in wall.ray_indices)
                p, q = (rays[i] for i in wall.opposite)
                assert determinant([n1, n2, q]) == -determinant(
                    [n1, n2, p]), (name, values, wall)


def test_wall_sum_box_fans_hold_their_wall_tables():
    """A kept point is a fan sharing its family's _Walls and holding the
    wall table a fresh fan solves; a concrete fan is the one-point family
    () and yields such a fan too.  A point where a wall has both opposite
    rays on one side breaks the premise of wall_sum_box's Cramer solve and
    raises InvariantError: on the octant fan, (a, 1, 0) at a = 0 repeats e2
    inside a cone, and the ray (2a - 1, 0, 0) in place of -e1 is e1 at
    a = 1, on e1's side of the wall spanned by e2 and e3.  A kept point
    with two equal rays raises too."""
    octant = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, 0, 0), (0, -1, 0),
              (0, 0, -1)]
    cones = [(i, j, k) for i in (0, 3) for j in (1, 4) for k in (2, 5)]
    concrete = Fan(octant, cones)
    ((assignment, fan),) = wall_sum_box(concrete, 12)
    assert assignment == () and fan == concrete and fan is not concrete
    assert fan._walls is concrete._walls
    assert fan._table == [c for *_, c in wall_table(Fan(octant, cones))]
    for index, ray, smooth, bad, dets in [
            (0, (A, 1, 0), 1, 0, (0, 0)),
            (3, (2 * A - 1, 0, 0), 0, 1, (1, 1))]:
        rays = list(octant)
        rays[index] = ray
        pf = Fan(rays, cones, bounds={"a": (smooth, smooth)})
        ((assignment, fan),) = wall_sum_box(pf, 12)
        assert assignment == (("a", smooth),)
        assert fan.rays[index] == tuple(
            x.evaluate({"a": smooth}) if isinstance(x, ParamExpr) else x
            for x in ray)
        assert fan._walls is pf._walls
        assert fan._table == [c for *_, c in wall_table(Fan(fan.rays, cones))]
        wide = Fan(rays, cones, bounds={"a": (min(smooth, bad),
                                             max(smooth, bad))})
        with pytest.raises(InvariantError) as exc:
            wall_sum_box(wide, 12)
        assert str(exc.value).startswith("wall ")
        assert str(exc.value).endswith(
            "det(n1, n2, p) = %d, det(n1, n2, q) = %d" % dets)
    # a kept point whose walls all solve but whose rays repeat one another
    with pytest.raises(InvariantError, match="two equal rays"):
        fans._fix_parameters(concrete, [], [], 0, [], [[1, 0, 0]] * 2, [], 6,
                             [])


def test_wall_sum_box_needs_a_box_of_whole_ranges():
    """The box pass walks each parameter's whole range, so a family with
    excluded values raises ValueError naming the parameter."""
    octant = [(A, 1, 0), (0, 1, 0), (0, 0, 1), (-1, 0, 0), (0, -1, 0),
              (0, 0, -1)]
    cones = [(i, j, k) for i in (0, 3) for j in (1, 4) for k in (2, 5)]
    pf = Fan(octant, cones, bounds={"a": (1, 3)}, excluded={"a": {2}})
    with pytest.raises(ValueError, match="excludes values of a"):
        wall_sum_box(pf, 12)


NON_PRIMITIVE = """
from smoothpoly import InvariantError
from smoothpoly.fans import Fan, ParamExpr, wall_sum_box, wall_table
octant = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, 0, 0), (0, -1, 0),
          (0, 0, -1)]
cones = [(i, j, k) for i in (0, 3) for j in (1, 4) for k in (2, 5)]
rays = [(ParamExpr.var("a"), 0, 0)] + octant[1:]
pf = Fan(rays, cones, bounds={"a": (1, 1)})
((assignment, fan),) = wall_sum_box(pf, 12)
print(assignment, fan.rays[0], fan._walls is pf._walls,
      fan._table == [c for *_, c in wall_table(Fan(fan.rays, cones))])
try:
    wall_sum_box(Fan(rays, cones, bounds={"a": (1, 2)}), 12)
except InvariantError as exc:
    print("InvariantError:", exc)
"""


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_wall_sum_box_raises_on_a_non_primitive_ray(flags):
    """A ray that evaluates to a non-primitive vector puts it in a cone
    that is not unimodular, which breaks the premise of wall_sum_box's
    Cramer solve; it raises InvariantError, also under python -O.  On the
    octant fan, (a, 0, 0) in place of e1 is kept at a = 1 and at a = 2
    gives a cone of determinant 2."""
    out = subprocess.run([sys.executable, *flags, "-c", NON_PRIMITIVE],
                         capture_output=True, text=True, env=package_env(),
                         timeout=60)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert len(lines) == 2
    assert lines[0] == "(('a', 1),) (1, 0, 0) True True"
    assert lines[1].startswith("InvariantError: wall ")
    assert lines[1].endswith("det(n1, n2, p) = 2, det(n1, n2, q) = -2")


def _recorded_cuts(monkeypatch, max_points):
    """(cut axes, scanned axes) of a 3D run at max_points: every call of
    fans._cut_axis, its run and its lines checked against a scan of the
    whole axis, which solves every wall at every value."""
    cut_axis, place = fans._cut_axis, fans._place
    counts = [0, 0]

    def checked(plan, axis, t, vals, rays, cap):
        vals_copy, rays_copy = list(vals), list(rays)
        cut = cut_axis(plan, axis, t, vals, rays, cap)
        if cut is None:
            counts[1] += 1
            assert len(axis) < 4 or not plan[1], (axis, plan)
            return cut
        counts[0] += 1
        v0, run, lines = cut
        scan = []
        for v in axis:
            vals_copy[t] = v
            table = {}
            if place(plan, vals_copy, rays_copy, table, cap):
                scan.append(v)
                assert table == {w: (a1 + m1 * (v - v0), a2 + m2 * (v - v0))
                                 for w, a1, m1, a2, m2 in lines}, (axis, v)
        assert v0 == axis[0] and list(run) == scan, (axis, plan)
        return cut

    monkeypatch.setattr(fans, "_cut_axis", checked)
    pipeline.run_classify(pipeline.RunConfig(3, max_points,
                                             allow_unvalidated=True))
    return tuple(counts)


@pytest.mark.parametrize("max_points,counts", [(12, (1943, 59)),
                                               (13, (4301, 131))])
def test_cut_axis_keeps_what_the_scan_keeps(monkeypatch, max_points, counts):
    """At every parameter step of the 3D runs at N = 12 and 13, the cut
    axis holds exactly the values a scan of the whole axis keeps, in
    order, and its lines give each kept value the wall coefficients the
    scan solves.  No axis of these runs falls back for a reason other
    than having no wall to cut by or fewer than four values."""
    assert _recorded_cuts(monkeypatch, max_points) == counts


def test_cut_axis_scans_a_wall_of_degree_2(monkeypatch):
    """A wall whose cap sum has degree 2 in its parameter is not cut but
    scanned, and the box keeps the points the scalar test keeps.  On the
    bundle with rays e1, e2, (-1, a, 0), -e2 over the plane and e3,
    (a, 0, -1) across it, the wall spanned by e2 and (-1, a, 0) has the
    opposite rays e3 and (a, 0, -1), whose sum (a, 0, 0) is
    a^2 e2 - a (-1, a, 0): its sum a^2 - a is past the cap 6 at a = -3."""
    bundle = Fan([(1, 0, 0), (0, 1, 0), (-1, A, 0), (0, -1, 0), (0, 0, 1),
                  (A, 0, -1)],
                 [c + (k,) for c in [(0, 1), (1, 2), (2, 3), (0, 3)]
                  for k in (4, 5)], bounds={"a": (-3, 3)})
    axis = list(range(-3, 4))
    cut_axis, scanned = fans._cut_axis, []

    def recorded(plan, axis, *args):
        cut = cut_axis(plan, axis, *args)
        if cut is None:
            scanned.append(list(axis))
        return cut

    monkeypatch.setattr(fans, "_cut_axis", recorded)
    kept = [v for ((_, v),), _ in wall_sum_box(bundle, 12)]
    assert scanned == [axis]
    assert kept == [v for v in axis
                    if passes_wall_sum(instantiate(bundle, {"a": v}), 12)]
    assert kept == [-2, -1, 0, 1, 2, 3]


SHEARED_OCTANT = """
from smoothpoly import InvariantError
from smoothpoly.fans import Fan, ParamExpr, wall_sum_box
a = ParamExpr.var("a")
rays = [(a + 1, a, 0), (a, 1, 0), (0, 0, 1), (-a - 1, -a, 0), (-a, -1, 0),
        (0, 0, -1)]
cones = [(i, j, k) for i in (0, 3) for j in (1, 4) for k in (2, 5)]
doubled = Fan([(2, a, 0), (0, 1, 0), (0, 0, 1), (-1, 0, 0), (0, -1, 0),
               (0, 0, -1)], cones, bounds={"a": (-1, 2)})
for fan, max_points in [(Fan(rays, cones, bounds={"a": (-1, 2)}), 12),
                        (Fan(rays, cones, bounds={"a": (-1, 3)}), 12),
                        (doubled, 6)]:
    try:
        print([v for ((_, v),), _ in wall_sum_box(fan, max_points)])
    except InvariantError as exc:
        print("InvariantError:", exc)
"""


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_wall_sum_box_raises_the_scans_error_on_long_axes(flags):
    """Axes of at least four values with points where the cones are not
    unimodular raise the scan's InvariantError, also under python -O:
    one bad point, and every point bad.  The octant's image under [[1 + a, a, 0], [a, 1, 0],
    [0, 0, 1]], of determinant 1 + a - a^2, is a smooth fan at
    a = -1, 0, 1, 2 and has cones of determinant +-5 at a = 3.  Its
    determinants change sign across the samples, so no axis is cut.  With
    (2, a, 0) in place of e1 every point has cones of determinant 2, a
    constant that the samples show, so that axis is not cut either: the
    scan raises at its first value, where a cut to the values within the
    cap would have skipped it."""
    out = subprocess.run([sys.executable, *flags, "-c", SHEARED_OCTANT],
                         capture_output=True, text=True, env=package_env(),
                         timeout=60)
    assert out.returncode == 0, out.stderr
    error = ("InvariantError: wall (0, 1) is not smooth at n1, n2, p, q = "
             "((4, 3, 0), (3, 1, 0), (0, 0, 1), (0, 0, -1)): "
             "det(n1, n2, p) = -5, det(n1, n2, q) = 5")
    doubled = ("InvariantError: wall (0, 1) is not smooth at n1, n2, p, "
               "q = ((2, -1, 0), (0, 1, 0), (0, 0, 1), (0, 0, -1)): "
               "det(n1, n2, p) = 2, det(n1, n2, q) = -2")
    assert out.stdout.splitlines() == ["[-1, 0, 1, 2]", error, doubled]


def test_star_cycles_hand_cases():
    """Each ray's star cycle, in the cyclic order of its neighbours: the
    octant's stars are squares, and the tetrahedral fan's triangles.  A
    blow-up at a cone gives each of its three rays the new ray as one more
    neighbour, with coefficient 1, and that neighbour's two neighbours
    gain 1 (the 2D blow-up of the star); the new ray's star is the
    triangle's."""
    octant = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, 0, 0), (0, -1, 0),
              (0, 0, -1)]
    cones = [(i, j, k) for i in (0, 3) for j in (1, 4) for k in (2, 5)]
    assert star_cycles(Fan(octant, cones)) == [(0, 0, 0, 0)] * 6
    assert star_cycles(tetra_fan()) == [(-1, -1, -1)] * 4
    blown = star_cycles(blow_up(tetra_fan(), (0, 1, 3)))
    assert [len(c) for c in blown] == [4, 4, 3, 4, 3]
    assert blown[2] == blown[4] == (-1, -1, -1)
    assert all(sorted(c) == [-1, 0, 0, 1] for c in blown[:2] + blown[3:4])


def test_instantiate_octahedral():
    b = ParamExpr.var("b")
    c = ParamExpr.var("c")
    pf = Fan([(0, -1, b), (1, 0, 0), (0, 1, 0), (-1, -A, c),
              (0, 0, -1), (0, 0, 1)],
             [(0, 1, 4), (1, 2, 4), (2, 3, 4), (3, 0, 4),
              (0, 1, 5), (1, 2, 5), (2, 3, 5), (3, 0, 5)],
             bounds={"a": (-12, 12), "b": (-12, 12), "c": (-12, 12)})
    fan = instantiate(pf, {"a": 0, "b": 0, "c": 0})
    assert set(fan.rays) == {(0, -1, 0), (1, 0, 0), (0, 1, 0), (-1, 0, 0),
                             (0, 0, -1), (0, 0, 1)}
    assert is_complete_fan(fan)


def test_canonical_form_relabel_invariance():
    fp = fp_fan()
    relabeled = Fan([(-1, -1), (1, 0), (0, 1)], [(1, 2), (0, 2), (0, 1)])
    assert fan_canonical_key(fp) == fan_canonical_key(relabeled)


def test_canonical_form_rotation_invariance():
    sq = square_fan()
    # 90 degree rotation
    rot = Fan([(0, 1), (-1, 0), (0, -1), (1, 0)],
              [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert fan_canonical_key(sq) == fan_canonical_key(rot)


def test_canonical_form_blowups_agree():
    left = blow_up(fp_fan(), (1, 2))
    right = blow_up(fp_fan(), (0, 2))
    assert fan_canonical_key(left) == fan_canonical_key(right)


def test_canonical_form_unimodular_invariance():
    rng = random.Random(88)
    seed = seeds.get_seed("4^6").build(12)
    for fan in [fp_fan(), tetra_fan(), blow_up(square_fan(), (0, 1)),
                blow_up(tetra_fan(), (0, 1)),
                instantiate(seed, {"a": 1, "b": 0, "c": 2})]:
        key = fan_canonical_key(fan)
        for _ in range(50):
            U = random_unimodular(rng, fan.d)
            moved = Fan([mat_vec(U, r) for r in fan.rays], fan.cones)
            assert fan_canonical_key(moved) == key


def _matrix_fan_key(fan):
    """The matrix key, kept as the oracle for fan_canonical_key.

    Every ordering of every unimodular cone is mapped to the standard basis;
    all rays follow, rays and cones are sorted, and the least (rays, cones)
    pair over these frames is a complete invariant of a fan with a
    unimodular cone.
    """
    best = None
    for cone in fan.cones:
        M = columns_matrix([fan.rays[i] for i in cone])
        if determinant(M) not in (1, -1):
            continue
        T = inverse_unimodular(M)
        imgs = [mat_vec(T, r) for r in fan.rays]
        for perm in permutations(range(fan.d)):
            moved = [tuple(x[k] for k in perm) for x in imgs]
            order = sorted(range(len(moved)), key=moved.__getitem__)
            pos = {old: new for new, old in enumerate(order)}
            key = (tuple(moved[i] for i in order),
                   tuple(sorted(tuple(sorted(pos[i] for i in c))
                                for c in fan.cones)))
            if best is None or key < best:
                best = key
    return best


def test_fan_key_partition_matches_matrix_oracle(polygon_class_reps):
    # both keys must split the same fans into the same classes
    by_walk = {}
    by_matrix = {}
    count = 0
    for fan in _edge_parameter_fans(polygon_class_reps):
        if fan.bounds:
            continue
        count += 1
        walk, matrix = fan_canonical_key(fan), _matrix_fan_key(fan)
        by_walk.setdefault(walk, set()).add(matrix)
        by_matrix.setdefault(matrix, set()).add(walk)
    assert count == 2222 and len(by_walk) == 2037
    assert all(len(v) == 1 for v in by_walk.values())
    assert all(len(v) == 1 for v in by_matrix.values())


def test_fan_key_uses_no_matrix(monkeypatch):
    def forbidden(*args):
        raise AssertionError("fan_canonical_key reached a matrix routine")
    monkeypatch.setattr(fans, "inverse_unimodular", forbidden)
    # fans imports no determinant; one reached through exact_linalg trips
    assert not hasattr(fans, "determinant")
    monkeypatch.setattr(exact_linalg, "determinant", forbidden)
    for fan in [fp_fan(), square_fan(), tetra_fan(),
                blow_up(tetra_fan(), (0, 1))]:
        assert fan_canonical_key(fan)[0] == len(fan.cones)


def test_fan_key_reads_only_wall_table(monkeypatch):
    keys = [fan_canonical_key(fan) for fan in
            (fp_fan(), square_fan(), tetra_fan(), blow_up(tetra_fan(), (0, 1)))]

    def forbidden(*args):
        raise AssertionError("fan_canonical_key rebuilt a wall")
    monkeypatch.setattr(fans, "walls_of", forbidden)
    # the per-wall solve lives in the tests; fans keeps only wall_table
    assert not hasattr(fans, "edge_parameters")
    assert keys == [fan_canonical_key(fan) for fan in
                    (fp_fan(), square_fan(), tetra_fan(),
                     blow_up(tetra_fan(), (0, 1)))]


def test_fan_key_first_item_cut_is_exact(polygon_class_reps):
    fans_seen = 0
    for fan in _concrete_fans(polygon_class_reps):
        assert fan_canonical_key(fan) == all_flags_key(fan), fan.rays
        fans_seen += 1
    assert fans_seen == 2222


def test_fan_key_matches_all_flags_on_a_3d_run():
    """Every fan the 3D N = 12 run keys, of the 3^4 tree and of every
    family, keys as a walk of every flag does."""
    keyed = keyed_fans(12)
    assert len(keyed) == 4419
    for fan in keyed:
        assert fan_canonical_key(fan) == all_flags_key(fan), fan.rays


def test_fan_key_compiles_and_reads_few_walks(monkeypatch):
    """At 3D N = 12 the start-cone cut leaves 2202 walks to compile and
    8880 to read (4138 and 15500 with the first item alone)."""
    counts = Counter()
    compile_walk = fans._compile_walk

    def counted(*args):
        counts["compiled"] += 1
        walk = compile_walk(*args)

        def read(values):
            counts["read"] += 1
            return walk(values)
        return read

    monkeypatch.setattr(fans, "_compile_walk", counted)
    assert len(keyed_fans(12)) == 4419
    assert counts == {"compiled": 2202, "read": 8880}


def _bipyramid():
    # the triangle (0, 1, 2) coned to (0, 0, 1) and (0, 0, -1): rays 3 and 4
    # have degree 3
    return Fan([(0, 1, 0), (1, 0, 0), (-1, -1, -1), (0, 0, 1), (0, 0, -1)],
               [(0, 1, 3), (0, 2, 3), (1, 2, 3), (0, 1, 4), (0, 2, 4),
                (1, 2, 4)])


def _moved(fan, rng):
    """fan with its rays and cones relabelled at random and its rays mapped
    by a random GL_d(Z) matrix."""
    new = list(range(len(fan.rays)))
    rng.shuffle(new)
    U = random_unimodular(rng, fan.d)
    rays = [None] * len(fan.rays)
    for old, r in enumerate(fan.rays):
        rays[new[old]] = mat_vec(U, r)
    cones = [tuple(new[i] for i in cone) for cone in fan.cones]
    rng.shuffle(cones)
    return Fan(rays, cones)


@pytest.mark.parametrize("case", ["tie", "far ray again", "tetrahedral",
                                  "2D"])
def test_fan_key_start_cone_cases(case):
    """Small fans for each case of the start-cone cut, each keyed as a
    walk of every flag keys it, under relabellings and GL(Z) maps.

    tie: four flags tie on their start-cone items and walk to two
    sequences, so more than one must be walked.  far ray again: the least
    flag's start cone is next to a degree-3 ray, which is the far ray of
    two of its walls, so item 2 reuses item 1's label.  tetrahedral: the
    one ray off the start cone is the far ray of all three walls.
    """
    fan = {"tie": blow_up(_bipyramid(), (0, 1, 4)),
           "far ray again": _bipyramid(),
           "tetrahedral": tetra_fan(),
           "2D": blow_up(instantiate(fa_fan(), {"a": 3}), (1, 2))}[case]
    key = fan_canonical_key(fan)
    assert key == all_flags_key(fan)
    labels = list(key[1][::fan.d])
    if case == "far ray again":
        assert labels[:2] == [3, 3]
    if case == "tetrahedral":
        assert labels == [3, 3, 3]
    rng = random.Random(37)
    for _ in range(40):
        assert fan_canonical_key(_moved(fan, rng)) == key


def test_fan_key_needs_smooth_complete_fan():
    # normal fan of a lattice tetrahedron; its first wall, {0, 1}, joins two
    # cones of determinant -2 and 2 with coefficients (-1/2, -1/2)
    simplex = Fan([(-1, 0, -1), (-1, 0, 1), (0, -1, 1), (1, 1, -1)],
                  [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])
    assert not is_smooth_fan(simplex)[0]
    with pytest.raises(InvariantError):
        fan_canonical_key(simplex)
    with pytest.raises(NotComplete):
        fan_canonical_key(Fan([(1, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2)]))
    # two tetrahedral fans side by side: every ridge lies in two cones, but
    # the walls never lead from one to the other
    twin = Fan(tetra_fan().rays + ((0, -1, 0), (-1, 0, 0), (1, 1, 1),
                                   (0, 0, -1)),
               tetra_fan().cones + ((4, 5, 6), (4, 5, 7), (4, 6, 7),
                                    (5, 6, 7)))
    with pytest.raises(NotComplete):
        fan_canonical_key(twin)
    # the twin's wall structure keeps no walk, so it fails again
    with pytest.raises(NotComplete):
        fan_canonical_key(twin)


def test_smooth_2d_fans_are_unimodular_chains():
    # rays in angular order have det(r_i, r_{i+1}) = 1 cyclically
    rng = random.Random(99)
    for _ in range(20):
        fan = fa_fan()
        fan = instantiate(fan, {"a": rng.choice([0, 2, 3, 4])})
        for _ in range(rng.randrange(4)):
            fan = blow_up(fan, rng.choice(fan.cones))
        rays = sorted(fan.rays, key=lambda r: math.atan2(r[1], r[0]))
        for i, r in enumerate(rays):
            nxt = rays[(i + 1) % len(rays)]
            assert determinant((r, nxt)) == 1

"""Checks the seed registry against the structural facts the search relies on.

The registry data (rays, cones, per-wall coefficients) was transcribed by
hand, so everything redundant gets recomputed here: degree profiles from the
cone lists, wall coefficients from the rays, smoothness on a parameter grid.
"""

import itertools
import re

import pytest

from smoothpoly import seeds
from smoothpoly.exact_linalg import determinant
from smoothpoly.fans import (
    OutOfBounds,
    ParamExpr,
    ParametricWallUnsupported,
    edge_parameters,
    instantiate,
    is_complete_fan,
    is_smooth_fan,
    walls_of,
)


def label_profile(name):
    """Degree profile encoded in a fan label like "(3^2 4^3)''"."""
    return {int(d): int(m) for d, m in re.findall(r"(\d+)\^(\d+)", name)}


def eval_entry(entry, assignment):
    if isinstance(entry, ParamExpr):
        return entry.evaluate(assignment)
    if callable(entry):
        return entry(assignment)
    return entry


# in-bounds sample assignments for every parametric seed (N = 12)
SWEEPS = {
    "F_a": [{"a": v} for v in (0, 2, 3, 5)],
    "(3^2 4^3)'": [{"a": v} for v in (0, 1, 2, 5)],
    "(3^2 4^3)''": [{"b": b, "c": c} for b in (-2, 0, 3) for c in (-1, 0, 2)],
    "4^6": [{"a": a, "b": b, "c": c}
            for a in (-2, 1) for b in (-1, 2) for c in (0, 3)],
    "3^2 4^3 6^2": [{"a": v} for v in (-6, -2, 0, 1, 5)],
}


def seed_instances(seed, N=12):
    fan = seed.build(N)
    if not fan.bounds:
        return [fan]
    return [instantiate(fan, asg) for asg in SWEEPS[seed.name]]


def test_registry_names():
    assert seeds.seed_names(2) == ("F_p", "F_a")
    assert len(seeds.seed_names(3)) == 5
    assert len(seeds.seed_names()) == 7
    # whitespace-insensitive lookup
    assert seeds.get_seed("3^24^36^2").name == "3^2 4^3 6^2"
    assert seeds.get_seed("F_p").dim == 2
    with pytest.raises(seeds.UnknownSeed):
        seeds.get_seed("5^12")


def test_seed_sizes():
    expected = {
        "F_p": (3, 3), "F_a": (4, 4), "3^4": (4, 4),
        "(3^2 4^3)'": (5, 6), "(3^2 4^3)''": (5, 6),
        "4^6": (6, 8), "3^2 4^3 6^2": (7, 10),
    }
    for name, (nrays, ncones) in expected.items():
        fan = seeds.seed_fan(name, 12)
        assert (len(fan.rays), len(fan.cones)) == (nrays, ncones), name


def test_degree_profiles_match_labels():
    for name in seeds.seed_names(3):
        fan = seeds.seed_fan(name, 12)
        degree = {}
        for cone in fan.cones:
            for i in cone:
                degree[i] = degree.get(i, 0) + 1
        profile = {}
        for d in degree.values():
            profile[d] = profile.get(d, 0) + 1
        assert profile == label_profile(name), name


def test_seed_cones_unimodular_for_all_parameters():
    # Each parameter appears in exactly one ray, linearly, so every cone
    # determinant is affine in each parameter separately.  Checking a grid
    # with two or more values per parameter therefore proves the
    # determinant is the same constant everywhere; we use five.
    grid = (-2, -1, 0, 1, 2)
    for seed in seeds._ALL_SEEDS:
        fan = seed.build(12)
        params = sorted(fan.bounds)
        if not params:
            smooth, _ = is_smooth_fan(fan)
            assert smooth, seed.name
            continue
        per_cone = [set() for _ in fan.cones]
        assignments = [dict(zip(params, values))
                       for values in itertools.product(grid, repeat=len(params))]
        for asg in assignments:
            rays = [tuple(eval_entry(x, asg) for x in ray) for ray in fan.rays]
            for j, cone in enumerate(fan.cones):
                per_cone[j].add(determinant([rays[i] for i in cone]))
        for j, vals in enumerate(per_cone):
            assert len(vals) == 1 and vals.pop() in (-1, 1), (seed.name, j)


def test_wall_annotations_symbolic():
    # where the wall is spanned by parameter-free rays, edge_parameters can
    # run on the parametric fan directly and must reproduce the stored table
    for seed in seeds._ALL_SEEDS:
        fan = seed.build(12)
        walls = walls_of(fan)
        assert {w.ray_indices for w in walls} == set(seed.wall_annotations), seed.name
        checked = 0
        for wall in walls:
            try:
                ep = edge_parameters(fan, wall)
            except ParametricWallUnsupported:
                continue
            assert ep.coeffs == seed.wall_annotations[wall.ray_indices], \
                (seed.name, wall.ray_indices)
            checked += 1
        if not fan.bounds:
            assert checked == len(walls)


def test_wall_annotations_numeric():
    # full sweep: instantiate, recompute every wall coefficient, compare
    # against the stored entry evaluated at the same assignment
    for seed in seeds._ALL_SEEDS:
        fan = seed.build(12)
        if not fan.bounds:
            continue
        for asg in SWEEPS[seed.name]:
            inst = instantiate(fan, asg)
            for wall in walls_of(inst):
                got = edge_parameters(inst, wall).coeffs
                want = tuple(eval_entry(e, asg)
                             for e in seed.wall_annotations[wall.ray_indices])
                assert got == want, (seed.name, asg, wall.ray_indices)


def test_instantiations_smooth_and_complete():
    for seed in seeds._ALL_SEEDS:
        for inst in seed_instances(seed):
            smooth, witness = is_smooth_fan(inst)
            assert smooth, (seed.name, witness)
            assert is_complete_fan(inst), seed.name


def test_parameter_bounds():
    fa = seeds.seed_fan("F_a", 12)
    assert fa.bounds == {"a": (0, 12)}
    assert fa.excluded == {"a": frozenset({1})}
    assert seeds.seed_fan("3^2 4^3 6^2", 12).bounds == {"a": (-6, 5)}
    assert seeds.seed_fan("3^2 4^3 6^2", 7).bounds == {"a": (-4, 3)}
    assert seeds.seed_fan("(3^2 4^3)''", 9).bounds == {"b": (-9, 9), "c": (-9, 9)}


def test_fa_instantiation_edge_cases():
    fa = seeds.seed_fan("F_a", 12)
    square = instantiate(fa, {"a": 0})
    assert set(square.rays) == {(1, 0), (0, 1), (-1, 0), (0, -1)}
    with pytest.raises(OutOfBounds):
        instantiate(fa, {"a": 1})     # excluded: duplicate of a blow-up
    with pytest.raises(OutOfBounds):
        instantiate(fa, {"a": 13})


def test_excluded_catalogue():
    assert len(seeds.EXCLUDED_FANS) == 14
    names = [f.name for f in seeds.EXCLUDED_FANS]
    assert len(set(names)) == 14
    for fan in seeds.EXCLUDED_FANS:
        assert fan.profile == label_profile(fan.name)
        # triangulated sphere: the degree sum is twice the edge count
        degree_sum = sum(d * m for d, m in fan.profile.items())
        assert degree_sum == 3 * fan.num_cones
        assert fan.num_cones == 2 * fan.num_rays - 4
    assert sorted(f.num_cones for f in seeds.EXCLUDED_FANS) == [10, 10] + [12] * 12


def test_excluded_bounds_match_criterion():
    from smoothpoly.search import PolygonStats, polygon_criterion
    stats = PolygonStats(12, {3: (3, 0, 3), 4: (4, 0, 4), 5: (8, 1, 7),
                              6: (7, 1, 6), 8: (12, 4, 8)})
    for ex in seeds.EXCLUDED_FANS:
        res = polygon_criterion(ex.profile, stats)
        assert res.bound == ex.bound, ex.name
        assert not res.passes
        assert ex.reason
        if ex.reason.startswith("cannot blow up"):
            assert str(ex.bound) in ex.reason

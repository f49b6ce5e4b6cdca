"""Headline checks: one test per advertised result.

Covers the two full classifications at twelve lattice points, the golden
vertex lists, the pinned search tree sizes, the polygon minima table, and
the geometric identities behind the algorithm, each on the actual output
of a complete run.
"""

import hashlib
import json
import random

import pytest

from conftest import apply_affine, random_translation, random_unimodular
from oracles import edge_parameters, is_smooth_fan, vec_scale
from smoothpoly import seeds
from smoothpoly.exact_linalg import (
    determinant,
    inverse_unimodular,
    normalize_primitive,
    vec_add,
    vec_neg,
    vec_sub,
)
from smoothpoly.fans import fan_canonical_key, instantiate, walls_of
from smoothpoly.iso_dedup import (
    canonical_form,
    dedup,
    lattice_isomorphic,
    vertex_directions,
)
from smoothpoly.pipeline import (
    RunConfig,
    render_json,
    render_stats,
    run_classify,
    run_count_tree,
    run_stats,
)
from smoothpoly.polytopes import (
    VPolytope,
    edges_of,
    facets_of,
    is_smooth,
    lattice_points,
    normal_fan,
)
from smoothpoly.rhs import _wall_forms
from smoothpoly.search import walk_tree


@pytest.fixture(scope="module")
def run2d():
    return run_classify(RunConfig(2, 12))


@pytest.fixture(scope="module")
def run3d():
    return run_classify(RunConfig(3, 12))


@pytest.fixture(scope="module")
def all_records(run2d, run3d):
    return list(run2d.records) + list(run3d.records)


@pytest.fixture(scope="module")
def realized(all_records):
    """Per record: polytope, facet data, normal fan, edges, directions.

    The run takes each record's facet count and lattice-point count from
    the fan and levels that realized it; here both are recounted from a
    hull of the canonical vertices and a lattice scan.
    """
    out = []
    for r in all_records:
        V = VPolytope(r.vertices, r.dimension)
        H = facets_of(V)
        assert r.facet_count == len(H.A)
        assert r.num_lattice_points == len(lattice_points(V, H))
        fan = normal_fan(V)
        # rays follow the facet rows and maximal cones follow the vertex
        # order, which the edge tests below rely on
        assert fan.rays == tuple(H.A)
        assert len(fan.cones) == len(V.vertices)
        out.append((r, V, H, fan, edges_of(V), vertex_directions(V)))
    assert len(out) == 74
    return out


def _load_golden(name, dim):
    with open("tests/data/%s" % name) as fh:
        return [VPolytope([tuple(v) for v in vs], dim)
                for vs in json.load(fh)]


def test_criterion_1_all_polygons_to_twelve_points(run2d):
    assert len(run2d.records) == 41
    assert run2d.histogram == {3: 3, 4: 30, 5: 3, 6: 4, 7: 0, 8: 1}


def test_criterion_2_all_3d_polytopes_to_twelve_points(run3d):
    assert len(run3d.records) == 33
    hist = dict(run3d.histogram)
    assert hist.pop(4) == 2
    assert hist.pop(6) == 25
    assert hist.pop(8) == 6
    assert all(v == 0 for v in hist.values())


def test_reports_match_reference_digests(run2d, run3d):
    """The full JSON reports, canonical representatives and diagnostics
    included, are byte-identical to the benchmark's reference outputs."""
    digests = [hashlib.sha256(render_json(r).encode()).hexdigest()
               for r in (run2d, run3d)]
    assert digests == [
        "a9efaa6dccc6318130e6a288fdae6d3fa68666ae5e85a18c28c8c9f38d2f09d8",
        "9dcc83cfe3a06e55d10ea5a79ca885b051a30fe1475e733a191be6d3acc48cc1",
    ]


def test_criterion_3_golden_bijection_with_witnesses(run2d, run3d):
    for dim, result, name in (
            (2, run2d, "golden_polygons_max12.json"),
            (3, run3d, "golden_polytopes3d_max12.json")):
        golden = _load_golden(name, dim)
        mine = [VPolytope(r.vertices, dim) for r in result.records]
        assert len(golden) == len(mine)
        hits = [0] * len(mine)
        for g in golden:
            matches = []
            for j, P in enumerate(mine):
                ok, witness = lattice_isomorphic(g, P)
                if ok:
                    U, t = witness
                    assert determinant(U) in (1, -1)
                    assert apply_affine(U, t, g.vertices) == P.vertices
                    matches.append(j)
            assert len(matches) == 1, \
                "golden %r matched %r" % (g.vertices, matches)
            hits[matches[0]] += 1
        assert all(h == 1 for h in hits)


def test_criterion_4_tree_counts():
    assert run_count_tree("F_p", 12) == 58785
    assert run_count_tree("F_a", 12) == 35072
    assert run_count_tree("F_p", 12, unpruned=True) == 21977356


def test_criterion_5_polygon_minima_table():
    stats = run_stats(12)
    assert stats.get(3) == (3, 0, 3)
    assert stats.get(4) == (4, 0, 4)
    assert stats.get(5) == (8, 1, 7)
    assert stats.get(6) == (7, 1, 6)
    assert stats.get(7) is None
    assert stats.get(8) == (12, 4, 8)
    assert render_stats(stats) == (
        "k    3    4    5    6    7    8\n"
        "l    3    4    8    7  >12   12\n"
        "i    0    0    1    1    -    4\n"
        "b    3    4    7    6    -    8\n")


def test_criterion_6a_smoothness_duality(all_records):
    rng = random.Random(62050)
    smooth = []
    i = 0
    while len(smooth) < 50:
        r = all_records[i % len(all_records)]
        U = random_unimodular(rng, r.dimension)
        t = random_translation(rng, r.dimension)
        smooth.append(VPolytope(apply_affine(U, t, r.vertices),
                                r.dimension))
        i += 1
    bad_bases = []
    for k in range(2, 10):
        bad_bases.append(VPolytope([(0, 0), (1, 0), (0, k)], 2))
        bad_bases.append(VPolytope([(0, 0), (2, 0), (1, k)], 2))
        bad_bases.append(VPolytope([(0, 0, 0), (1, 0, 0), (0, 1, 0),
                                    (1, 1, k)], 3))
    bad_bases.append(VPolytope([(1, 0, 0), (-1, 0, 0), (0, 1, 0),
                                (0, -1, 0), (0, 0, 1), (0, 0, -1)], 3))
    bad_bases.append(VPolytope([(1, 1, 0), (1, -1, 0), (-1, 1, 0),
                                (-1, -1, 0), (0, 0, 1)], 3))
    non_smooth = []
    i = 0
    while len(non_smooth) < 50:
        base = bad_bases[i % len(bad_bases)]
        U = random_unimodular(rng, base.d)
        t = random_translation(rng, base.d)
        non_smooth.append(VPolytope(apply_affine(U, t, base.vertices),
                                    base.d))
        i += 1
    assert len(smooth) == 50 and len(non_smooth) == 50
    for P in smooth:
        ok, why = is_smooth(P)
        assert ok, why
        fan_ok, ci = is_smooth_fan(normal_fan(P))
        assert fan_ok, ci
    for P in non_smooth:
        ok, _ = is_smooth(P)
        assert not ok
        fan_ok, _ = is_smooth_fan(normal_fan(P))
        assert not fan_ok


def test_criterion_6b_edge_length_forms_match_geometry(realized):
    checked = 0
    for r, V, H, fan, edges, vdirs in realized:
        edge_by_pair = {frozenset(e.endpoints): e for e in edges}
        walls = walls_of(fan)
        assert len(walls) == len(edges)
        # the forms the level enumeration reads, one per wall_table row
        for (_, incident, _, _), form, _ in _wall_forms(fan):
            e = edge_by_pair[frozenset(incident)]
            assert sum(c * H.b[i] for i, c in form) == e.lattice_length
            checked += 1
    assert checked > 300


def test_criterion_6c_thickened_edge_counts(realized):
    for r, V, H, fan, edges, vdirs in realized:
        d = r.dimension
        edge_by_pair = {frozenset(e.endpoints): e for e in edges}
        for wall in walls_of(fan):
            c1, c2 = wall.incident
            v1, v2 = V.vertices[c1], V.vertices[c2]
            length = edge_by_pair[frozenset(wall.incident)].lattice_length
            coeffs = edge_parameters(fan, wall).coeffs
            u, _ = normalize_primitive(vec_sub(v2, v1))
            trans1 = [w for w in vdirs[c1] if w != u]
            trans2 = [w for w in vdirs[c2] if w != vec_neg(u)]
            assert len(trans1) == len(trans2) == d - 1
            pts = ([v1, v2]
                   + [vec_add(v1, w) for w in trans1]
                   + [vec_add(v2, w) for w in trans2])
            thick = VPolytope.from_points(pts, d)
            count = len(lattice_points(thick))
            assert count == d * (length + 1) + sum(coeffs)


def test_criterion_6g_euler_relation(realized):
    """V - E + F = 2 on every 3D record, and E = V on every polygon."""
    solids = 0
    for r, V, H, fan, edges, vdirs in realized:
        if r.dimension == 2:
            assert len(edges) == len(V.vertices)
        else:
            assert len(V.vertices) - len(edges) + len(H.A) == 2
            solids += 1
    assert solids == 33


def test_criterion_6d_edge_direction_transfer(realized):
    for r, V, H, fan, edges, vdirs in realized:
        d = r.dimension
        for wall in walls_of(fan):
            coeffs = edge_parameters(fan, wall).coeffs
            for near, far in (wall.incident, wall.incident[::-1]):
                x1, x2 = V.vertices[near], V.vertices[far]
                shared = wall.ray_indices
                (r1,) = [i for i in fan.cones[near] if i not in shared]
                rows = tuple(vec_neg(fan.rays[i]) for i in shared) \
                    + (vec_neg(fan.rays[r1]),)
                inv = inverse_unimodular(rows)
                u = [tuple(inv[i][j] for i in range(d)) for j in range(d)]
                step, _ = normalize_primitive(vec_sub(x2, x1))
                assert step == u[d - 1]
                expect = {vec_add(u[i], vec_scale(coeffs[i], u[d - 1]))
                          for i in range(d - 1)}
                expect.add(vec_neg(u[d - 1]))
                assert set(vdirs[far]) == expect


def test_criterion_6e_pruned_walk_equals_exhaustive():
    # the ordering rule exists to drop repeated paths to one fan, so the
    # comparison is between the sets of reachable isomorphism classes
    polygon_roots = [seeds.seed_fan("F_p", 6)]
    fa = seeds.get_seed("F_a").build(6)
    for a in (0, 2, 3, 4, 5, 6):
        polygon_roots.append(instantiate(fa, {"a": a}))
    for root in polygon_roots:
        pruned = [fan_canonical_key(n.fan) for n in walk_tree(root, 6)]
        full = [fan_canonical_key(n.fan)
                for n in walk_tree(root, 6, pruned=False)]
        assert set(pruned) == set(full)
        assert len(pruned) <= len(full)
    solid_roots = [
        seeds.seed_fan("3^4", 8),
        instantiate(seeds.get_seed("(3^2 4^3)'").build(8), {"a": 2}),
        instantiate(seeds.get_seed("(3^2 4^3)''").build(8),
                    {"b": 1, "c": -1}),
        instantiate(seeds.get_seed("4^6").build(8),
                    {"a": 1, "b": 0, "c": 2}),
        instantiate(seeds.get_seed("3^2 4^3 6^2").build(8), {"a": 1}),
    ]
    for root in solid_roots:
        pruned = [fan_canonical_key(n.fan) for n in walk_tree(root, 8)]
        full = [fan_canonical_key(n.fan)
                for n in walk_tree(root, 8, pruned=False)]
        assert set(pruned) == set(full)
        assert len(pruned) <= len(full)


def test_criterion_6f_canonical_form_invariance_and_dedup(
        all_records, run2d, run3d):
    rng = random.Random(816012)
    for r in all_records:
        P = VPolytope(r.vertices, r.dimension)
        base = canonical_form(P)
        assert base.vertices == r.vertices
        for _ in range(100):
            U = random_unimodular(rng, r.dimension)
            t = random_translation(rng, r.dimension)
            Q = VPolytope(apply_affine(U, t, P.vertices), r.dimension)
            cf = canonical_form(Q)
            assert cf.key == base.key
            assert cf.vertices == base.vertices
    for result in (run2d, run3d):
        records = list(result.records)
        assert dedup(records) == records
        doubled = records + [records[i]
                             for i in rng.sample(range(len(records)), 10)]
        assert dedup(doubled) == records

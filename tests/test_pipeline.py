"""End-to-end classification at small budgets, plus the walk helpers."""

import hashlib
import importlib
import json
import pkgutil
import random
from collections import Counter

import pytest

import smoothpoly
from oracles import solve_rational
from smoothpoly import InvariantError, pipeline, polytopes, seeds
from smoothpoly.fans import Fan, fan_canonical_key, instantiate
from smoothpoly.iso_dedup import canonical_form
from smoothpoly.pipeline import (
    ConfigError,
    RunConfig,
    _dihedral_key,
    _min_interior,
    _polygon_cycle,
    _splice_cycle,
    _walk_degrees,
    list_seeds,
    render_json,
    render_seeds,
    render_stats,
    render_text,
    run_classify,
    run_count_tree,
    run_stats,
)
from smoothpoly.polytopes import VPolytope, facets_of, is_smooth, lattice_points
from smoothpoly.search import (
    PolygonStats,
    degree_profile,
    enumerate_blowups,
    make_root,
    walk_tree,
)
from smoothpoly.seeds import UnknownSeed


def _golden(name, dim, max_points):
    with open("tests/data/%s" % name) as fh:
        data = json.load(fh)
    kept = []
    for vs in data:
        V = VPolytope([tuple(v) for v in vs], dim)
        if len(lattice_points(V)) <= max_points:
            kept.append(V)
    return kept


def test_config_validation():
    with pytest.raises(ConfigError):
        RunConfig(4, 9).validate()
    with pytest.raises(ConfigError):
        RunConfig(2, 2).validate()
    with pytest.raises(ConfigError):
        RunConfig(3, 3).validate()
    with pytest.raises(ConfigError):
        RunConfig(3, 13).validate()
    warnings = RunConfig(3, 13, allow_unvalidated=True).validate()
    assert len(warnings) == 1 and "envelope" in warnings[0]
    assert RunConfig(3, 12).validate() == []
    assert RunConfig(2, 100).validate() == []


def test_min_interior_lower_bounds():
    assert [_min_interior(n) for n in range(3, 13)] == \
        [0, 0, 1, 1, 1, 1, 1, 2, 2, 3]


def test_polygon_cycle_known_fans():
    order, cycle = _polygon_cycle(seeds.seed_fan("F_p", 12))
    assert sorted(order) == [0, 1, 2]
    assert cycle == (-1, -1, -1)
    fa = seeds.get_seed("F_a").build(12)
    _, sq = _polygon_cycle(instantiate(fa, {"a": 0}))
    assert sq == (0, 0, 0, 0)
    _, c3 = _polygon_cycle(instantiate(fa, {"a": 3}))
    assert sorted(c3) == [-3, 0, 0, 3]
    assert sum(c3) == 3 * 4 - 12


def test_polygon_cycle_rejects_non_smooth_fan():
    # (0,1) + (-1,-2) is no multiple of the ray (1,0) between them
    fan = Fan([(1, 0), (0, 1), (-1, -2)], [(0, 1), (1, 2), (2, 0)])
    with pytest.raises(InvariantError):
        _polygon_cycle(fan)


def test_splice_cycle_rejects_non_adjacent_pair():
    with pytest.raises(InvariantError):
        _splice_cycle((0, 1, 2, 3), (0, 0, 0, 0), (0, 2), 4)


def test_cycle_order_traverses_cones():
    fan = instantiate(seeds.get_seed("F_a").build(12), {"a": 2})
    order, _ = _polygon_cycle(fan)
    cones = {tuple(sorted(c)) for c in fan.cones}
    n = len(order)
    for p in range(n):
        pair = tuple(sorted((order[p], order[(p + 1) % n])))
        assert pair in cones


def test_splice_tracks_blowups():
    # carry the coefficient cycle through random blow-up paths and compare
    # with recomputing it from the resulting fan
    rng = random.Random(1723)
    for _ in range(40):
        fan = instantiate(seeds.get_seed("F_a").build(12),
                          {"a": rng.choice([0, 2, 3])})
        order, cycle = _polygon_cycle(fan)
        node = make_root(fan)
        for _ in range(rng.randrange(1, 5)):
            kids = list(enumerate_blowups(node, 12))
            if not kids:
                break
            child = rng.choice(kids)
            pos = child.path[-1][1]
            order, cycle = _splice_cycle(order, cycle,
                                         node.fan.cones[pos],
                                         len(node.fan.rays))
            node = child
        fresh_order, fresh_cycle = _polygon_cycle(node.fan)
        assert sorted(cycle) == sorted(fresh_cycle)
        assert _dihedral_key(cycle) == _dihedral_key(fresh_cycle)
        assert sum(cycle) == 3 * len(node.fan.rays) - 12


def test_dihedral_key_symmetry():
    cycle = (0, 1, 2, -1, 5)
    key = _dihedral_key(cycle)
    n = len(cycle)
    variants = [cycle[s:] + cycle[:s] for s in range(n)]
    variants += [v[::-1] for v in variants]
    for v in variants:
        assert _dihedral_key(v) == key
    assert key in variants


def _dihedral_key_all_rotations(cycle):
    n = len(cycle)
    return min(seq[s:] + seq[:s]
               for seq in (cycle, cycle[::-1]) for s in range(n))


def test_dihedral_key_compares_rotations_at_the_minimum(polygon_class_reps):
    # the key tries only rotations that start at min(cycle); on every class
    # of the N = 12 walk, in any rotation or reflection, it equals the least
    # over all rotations
    assert len(polygon_class_reps) == 1992
    for fan in polygon_class_reps:
        _, cycle = _polygon_cycle(fan)
        cycle = tuple(cycle)
        key = _dihedral_key_all_rotations(cycle)
        n = len(cycle)
        for s in range(n):
            for seq in (cycle[s:] + cycle[:s], (cycle[s:] + cycle[:s])[::-1]):
                assert _dihedral_key(seq) == key


def test_dihedral_key_agrees_with_canonical_key():
    # the cyclic coefficient key and the generic fan key must induce the
    # same isomorphism classes
    fans = []
    stack = [make_root(seeds.seed_fan("F_p", 12))]
    fa = seeds.get_seed("F_a").build(12)
    stack.append(make_root(instantiate(fa, {"a": 2})))
    while stack:
        node = stack.pop()
        fans.append(node.fan)
        stack.extend(enumerate_blowups(node, 6))
    assert len(fans) > 50
    by_dihedral = {}
    by_canonical = {}
    for f in fans:
        _, cycle = _polygon_cycle(f)
        by_dihedral.setdefault(_dihedral_key(cycle), set()).add(
            fan_canonical_key(f))
        by_canonical.setdefault(fan_canonical_key(f), set()).add(
            _dihedral_key(cycle))
    assert all(len(v) == 1 for v in by_dihedral.values())
    assert all(len(v) == 1 for v in by_canonical.values())


def test_classify_dim2_smallest_budget():
    res = run_classify(RunConfig(2, 4))
    assert len(res.records) == 2
    assert [r.vertices for r in res.records] == [
        ((0, 0), (0, 1), (1, 0)),
        ((0, 0), (0, 1), (1, 0), (1, 1)),
    ]
    assert res.histogram == {3: 1, 4: 1}
    assert [r.provenance.seed for r in res.records] == ["F_p", "F_a"]


def test_classify_dim2_matches_golden_subset():
    res = run_classify(RunConfig(2, 6))
    assert len(res.records) == 6
    assert res.histogram == {3: 2, 4: 4}
    golden = _golden("golden_polygons_max12.json", 2, 6)
    mine = {canonical_form(VPolytope(r.vertices, 2)).key
            for r in res.records}
    assert mine == {canonical_form(g).key for g in golden}
    for r in res.records:
        assert r.dimension == 2
        assert 3 <= r.num_lattice_points <= 6
        assert r.num_vertices == len(r.vertices) == r.facet_count


def test_classify_dim2_budget_monotone():
    """The N = 11 run is the N = 12 run cut at 11 points, provenance too."""
    small = run_classify(RunConfig(2, 11)).records
    large = run_classify(RunConfig(2, 12)).records
    assert len(small) == 31 and len(large) == 41
    assert list(small) == [r for r in large if r.num_lattice_points <= 11]
    assert [r.provenance for r in small] == [
        r.provenance for r in large if r.num_lattice_points <= 11]


def test_classify_dim2_past_twelve_points_digest():
    res = run_classify(RunConfig(2, 13))
    assert len(res.records) == 51 and res.diagnostics.fans_tested == 7360
    assert hashlib.sha256(render_json(res).encode()).hexdigest() == (
        "2fdd45e3cce3579c04d13212c0547c8d27ed204a5750b68b590be930dee6194d")


def test_polygon_run_builds_no_hull(monkeypatch):
    """Facets and point counts of realized polygons come from the fan and
    its levels: with the hull disabled the N = 12 report is unchanged."""
    def no_hull(points, d):
        raise AssertionError("hull of %r" % (points,))

    monkeypatch.setattr(polytopes, "_hull_facets", no_hull)
    res = run_classify(RunConfig(2, 12))
    assert hashlib.sha256(render_json(res).encode()).hexdigest() == (
        "a9efaa6dccc6318130e6a288fdae6d3fa68666ae5e85a18c28c8c9f38d2f09d8")


def test_realization_solves_in_integers(monkeypatch):
    """Every realized vertex comes from an integer solve: no smoothpoly
    module has a rational solve, both N = 12 reports are unchanged, and
    each realized polytope's vertices are the Fraction solutions of its
    cones, from the tests-side solve."""
    modules = [smoothpoly] + [
        importlib.import_module("smoothpoly." + info.name)
        for info in pkgutil.iter_modules(smoothpoly.__path__)]
    assert len(modules) == 10
    assert not any(hasattr(module, "solve_rational") for module in modules)
    calls = []
    realize = pipeline.realize_and_filter

    def recorded(fan, b, max_points):
        out = realize(fan, b, max_points)
        calls.append((fan, b, out))
        return out

    monkeypatch.setattr(pipeline, "realize_and_filter", recorded)
    digests = []
    statuses = []
    for dim in (2, 3):
        calls.clear()
        res = run_classify(RunConfig(dim, 12))
        digests.append(hashlib.sha256(render_json(res).encode()).hexdigest())
        statuses.append(Counter((fan.d, out[1]) for fan, _, out in calls))
        for fan, b, (poly, status, _) in calls:
            if status != "ok":
                continue
            solved = set()
            for cone in fan.cones:
                x = solve_rational([fan.rays[i] for i in cone],
                                   [b[i] for i in cone])
                assert all(f.denominator == 1 for f in x), (fan, b, cone)
                solved.add(tuple(int(f) for f in x))
            assert len(solved) == len(fan.cones)
            assert solved == set(poly.vertices)
    assert digests == [
        "a9efaa6dccc6318130e6a288fdae6d3fa68666ae5e85a18c28c8c9f38d2f09d8",
        "9dcc83cfe3a06e55d10ea5a79ca885b051a30fe1475e733a191be6d3acc48cc1"]
    polygons = {(2, "ok"): 50, (2, "too_many_points"): 122}
    assert statuses == [polygons, {**polygons, (3, "ok"): 35,
                                   (3, "too_many_points"): 3}]


def test_classify_dim3_matches_golden_subset():
    res = run_classify(RunConfig(3, 8))
    golden = _golden("golden_polytopes3d_max12.json", 3, 8)
    mine = {canonical_form(VPolytope(r.vertices, 3)).key
            for r in res.records}
    assert len(mine) == len(res.records)
    assert mine == {canonical_form(g).key for g in golden}
    for r in res.records:
        V = VPolytope(r.vertices, 3)
        ok, why = is_smooth(V)
        assert ok, why
        H = facets_of(V)
        assert r.facet_count == len(H.A)
        assert r.num_lattice_points == len(lattice_points(V, H))


def test_records_sorted_and_deterministic():
    a = run_classify(RunConfig(2, 8))
    b = run_classify(RunConfig(2, 8))
    assert a.records == b.records
    keys = [(r.num_lattice_points, r.num_vertices,
             canonical_form(VPolytope(r.vertices, 2)).key)
            for r in a.records]
    assert keys == sorted(keys)
    hist_keys = sorted(a.histogram)
    assert hist_keys == list(range(3, hist_keys[-1] + 1))


def test_trace_tree_lists_every_visited_node(tmp_path):
    path = tmp_path / "trace.txt"
    res = run_classify(RunConfig(2, 6, trace_tree=str(path)))
    lines = path.read_text().splitlines()
    assert len(lines) == res.diagnostics.nodes_visited
    for line in lines:
        label, depth, cones, step = line.split("\t")
        assert label == "F_p" or label.startswith("F_a(a=")
        assert int(depth) >= 0 and int(cones) >= 3
        assert step == "root" or step.startswith("cone:")


def test_trace_tree_digest_2d(tmp_path):
    """The N = 12 polygon --trace-tree file is byte-identical run to run."""
    path = tmp_path / "trace.txt"
    run_classify(RunConfig(2, 12, trace_tree=str(path)))
    text = path.read_bytes()
    assert text.count(b"\n") == 23409
    assert hashlib.sha256(text).hexdigest() == (
        "97186ff87e911a358940029dd916cbb81e5fa80c3bae475fabb4e4b143c60575")


def test_count_tree_values():
    assert run_count_tree("F_p", 3) == 1
    assert run_count_tree("F_p", 6) == 41
    assert run_count_tree("F_a", 6) == 19
    assert run_count_tree("F_p", 6, unpruned=True) == 76
    assert run_count_tree("3^4", 4) == 1
    assert run_count_tree("3^4", 6) == 11
    assert run_count_tree("3^4", 8, unpruned=True) == 161
    pruned = run_count_tree("3^4", 8)
    assert 11 < pruned < 161
    # a seed with more cones than the cap counts 0 in either dimension
    assert run_count_tree("F_p", 2) == 0
    assert run_count_tree("3^4", 3) == 0
    assert run_count_tree("4^6", 7) == 0
    assert run_count_tree("4^6", 8) == 1
    with pytest.raises(UnknownSeed):
        run_count_tree("F_q", 6)


def _degree_walks():
    """The 3D walks of the N = 12 and N = 13 runs, then the seed 3^4 to 14
    cones, where wall and cone blow-ups both go deep."""
    for n in (12, 13):
        yield n, [walk_tree(seeds.get_seed(name).build(n), n)
                  for name in seeds.seed_names(3)]
    yield "3^4", [walk_tree(seeds.get_seed("3^4").build(14), 14)]


def test_walk_carries_ray_degrees():
    """The ray degrees carried down a 3D walk equal a recount on every
    node, ray by ray; on the runs' walks they also give the profile that
    degree_profile counts."""
    nodes = {}
    for name, walks in _degree_walks():
        nodes[name] = 0
        for walk in walks:
            for node, degrees in _walk_degrees(walk):
                recount = [0] * node.num_rays
                for cone in node.cones:
                    for i in cone:
                        recount[i] += 1
                assert degrees == recount, (name, node.path)
                if name != "3^4":
                    assert Counter(degrees) == degree_profile(node)
                nodes[name] += 1
    assert nodes == {12: 31698, 13: 31698, "3^4": 393669}


def test_stats_small_budget():
    stats = run_stats(6)
    assert stats.get(3) == (3, 0, 3)
    assert stats.get(4) == (4, 0, 4)
    assert stats.get(5) is None
    text = render_stats(stats)
    assert ">6" in text
    rows = text.splitlines()
    assert rows[0].split() == ["k", "3", "4", "5", "6", "7", "8"]
    assert rows[1].split() == ["l", "3", "4", ">6", ">6", ">6", ">6"]
    assert rows[2].split() == ["i", "0", "0", "-", "-", "-", "-"]


def test_render_stats_shows_every_vertex_count():
    stats = PolygonStats(14, {3: (3, 0, 3), 4: (4, 0, 4), 9: (14, 1, 13)})
    rows = render_stats(stats).splitlines()
    assert rows[0].split() == ["k", "3", "4", "5", "6", "7", "8", "9"]
    assert rows[1].split() == ["l", "3", "4", ">14", ">14", ">14", ">14",
                               "14"]
    assert rows[2].split() == ["i", "0", "0", "-", "-", "-", "-", "1"]
    assert rows[3].split() == ["b", "3", "4", "-", "-", "-", "-", "13"]


def test_list_seeds_registry():
    listing = list_seeds()
    assert [s["name"] for s in listing["seeds"]] == [
        "F_p", "F_a", "3^4", "(3^2 4^3)'", "(3^2 4^3)''", "4^6",
        "3^2 4^3 6^2"]
    assert len(listing["excluded"]) == 14
    for ex in listing["excluded"]:
        assert ex["reason"]
        assert ex["num_cones"] in (10, 12)
    text = render_seeds(listing)
    assert "F_p" in text and "eliminated" in text


def test_render_json_integers_only(tmp_path):
    res = run_classify(RunConfig(2, 6))
    payload = json.loads(render_json(res))
    assert payload["dimension"] == 2 and payload["max_points"] == 6

    def no_floats(x):
        assert not isinstance(x, float)
        if isinstance(x, dict):
            for k, v in x.items():
                no_floats(v)
        elif isinstance(x, list):
            for v in x:
                no_floats(v)

    no_floats(payload)
    rec = payload["records"][0]
    assert set(rec) == {"dimension", "vertices", "num_lattice_points",
                        "num_vertices", "facet_count", "provenance"}
    assert set(rec["provenance"]) == {"seed", "path", "assignment", "rhs"}


def test_render_text_layout():
    res = run_classify(RunConfig(2, 5))
    text = render_text(res)
    assert "dimension 2, max points 5: 3 polytopes" in text
    assert "vertex coordinates" in text
    assert "diagnostics:" in text

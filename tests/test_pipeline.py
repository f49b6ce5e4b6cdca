"""End-to-end classification at small budgets, plus the walk helpers."""

import hashlib
import importlib
import json
import pkgutil
import random
from collections import Counter

import pytest

import smoothpoly
from oracles import (
    replay_children,
    replay_root,
    replay_walk,
    solve_rational,
    widened_run,
)
from smoothpoly import InvariantError, fans, pipeline, polytopes, search, seeds
from smoothpoly.exact_linalg import dot, normalize_primitive
from smoothpoly.fans import Fan, fan_canonical_key, instantiate, star_cycles
from smoothpoly.iso_dedup import canonical_form
from smoothpoly.pipeline import (
    ConfigError,
    RunConfig,
    _dihedral_key,
    _min_interior,
    _polygon_cycle,
    _splice_cycle,
    render_json,
    render_seeds,
    render_stats,
    render_text,
    run_classify,
    run_count_tree,
    run_stats,
)
from smoothpoly.polytopes import VPolytope, facets_of, is_smooth, lattice_points
from smoothpoly.rhs import enumerate_rhs
from smoothpoly.search import (
    PolygonStats,
    degree_profile,
    max_ray_degree,
    polygon_criterion,
    subtree_bound,
    tail_minima,
    walk_tree,
)
from smoothpoly.seeds import UnknownSeed


def _golden(name, dim, max_points):
    with open("tests/data/%s" % name) as fh:
        data = json.load(fh)
    kept = []
    for vs in data:
        V = VPolytope([tuple(v) for v in vs])
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
        bookkeeping = replay_root(fan)
        for _ in range(rng.randrange(1, 5)):
            kids = replay_children(fan, bookkeeping, 12, True)
            if not kids:
                break
            child, bookkeeping = rng.choice(kids)
            pos = bookkeeping[0][-1][1]
            order, cycle = _splice_cycle(order, cycle, fan.cones[pos],
                                         len(fan.rays))
            fan = child
        fresh_order, fresh_cycle = _polygon_cycle(fan)
        assert sorted(cycle) == sorted(fresh_cycle)
        assert _dihedral_key(cycle) == _dihedral_key(fresh_cycle)
        assert sum(cycle) == 3 * len(fan.rays) - 12


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
    fa = seeds.get_seed("F_a").build(12)
    fans = [fan for root in (seeds.seed_fan("F_p", 12),
                             instantiate(fa, {"a": 2}))
            for fan, _ in replay_walk(root, 6)]
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
    mine = {canonical_form(VPolytope(r.vertices)).key
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
    cones, from the tests-side solve.  The 3D run's own polygon pass stops
    at 7 rays, the largest ray degree of its fans, so it realizes fewer
    polygons than the 2D run."""
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
    assert statuses == [{(2, "ok"): 50, (2, "too_many_points"): 122},
                        {(2, "ok"): 49, (2, "too_many_points"): 65,
                         (3, "ok"): 35, (3, "too_many_points"): 3}]


def test_classify_dim3_matches_golden_subset():
    res = run_classify(RunConfig(3, 8))
    golden = _golden("golden_polytopes3d_max12.json", 3, 8)
    mine = {canonical_form(VPolytope(r.vertices)).key
            for r in res.records}
    assert len(mine) == len(res.records)
    assert mine == {canonical_form(g).key for g in golden}
    for r in res.records:
        V = VPolytope(r.vertices)
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
             canonical_form(VPolytope(r.vertices)).key)
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


def test_trace_tree_digest_3d(tmp_path):
    """The N = 12 solid --trace-tree file is byte-identical run to run."""
    path = tmp_path / "trace.txt"
    run_classify(RunConfig(3, 12, trace_tree=str(path)))
    text = path.read_bytes()
    assert text.count(b"\n") == 31698
    assert hashlib.sha256(text).hexdigest() == (
        "f38a9666feac8396ab45abd115d77e60381c126ece86ab1540e97f728b54e9e4")


@pytest.mark.parametrize("max_points", [12, 13])
def test_widened_boxes_give_the_same_report(monkeypatch, max_points):
    """The box premise of the 3D run: each node's parameter box holds
    every fan of its class that passes the wall-sum cap.  With every seed
    built at N + 12, so that its declared box grows, and every node's box
    below a root widened by 6 more, the run gives the same report, byte
    for byte, fans_tested included.  The box pass does walk the wider
    boxes: some box reaches past N + 12 + 6."""
    plain = run_classify(RunConfig(3, max_points, allow_unvalidated=True))
    box, reach = pipeline.wall_sum_box, [0]

    def recorded(pf, budget):
        reach[0] = max([reach[0]] + [hi for _, hi in pf.bounds.values()])
        return box(pf, budget)

    monkeypatch.setattr(pipeline, "wall_sum_box", recorded)
    assert render_json(widened_run(max_points)) == render_json(plain)
    assert reach[0] > max_points + 18


@pytest.fixture(scope="module")
def recorded_3d_run():
    """The fans whose box a 3D N = 12 run walks, in walk order, and how
    often it calls polygon_criterion and degree_profile."""
    boxes = []
    calls = Counter()
    box = pipeline.wall_sum_box

    def record(pf, *args):
        boxes.append((pf.rays, pf.cones))
        return box(pf, *args)

    def counted(f):
        def wrapper(*args):
            calls[f.__name__] += 1
            return f(*args)
        return wrapper

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pipeline, "wall_sum_box", record)
        mp.setattr(pipeline, "polygon_criterion",
                   counted(pipeline.polygon_criterion))
        mp.setattr(pipeline, "degree_profile",
                   counted(pipeline.degree_profile))
        run_classify(RunConfig(3, 12))
    return boxes, calls


def test_criterion_memo_gives_every_node_its_verdict(recorded_3d_run):
    """The run walks the box of exactly the nodes whose own degree profile
    passes the criterion: the memo, keyed on the degrees counted off each
    node, gives every one of the 31698 nodes the verdict of its profile."""
    stats = run_stats(12)
    want = [(node.fan.rays, node.fan.cones)
            for name in seeds.seed_names(3)
            for node in walk_tree(seeds.get_seed(name).build(12), 12)
            if polygon_criterion(degree_profile(node), stats).passes]
    boxes, _ = recorded_3d_run
    assert len(boxes) == 590
    assert boxes == want


def test_criterion_runs_once_per_degree_multiset(recorded_3d_run):
    """The criterion runs once per live degree multiset: the run counts
    degrees outside dead subtrees only, and meets 17 multisets there, of
    which 11 are dead by subtree_bound alone and 6 are live."""
    _, calls = recorded_3d_run
    assert calls == {"polygon_criterion": 6, "degree_profile": 6}


@pytest.mark.parametrize("max_points", range(4, 15))
def test_capped_polygon_minima_equal_the_full_table(max_points):
    """The polygon pass a 3D run makes stops at max_ray_degree rays, and its
    table is the complete one restricted to that many vertices."""
    top = max_ray_degree(max_points)
    capped = pipeline._polygon_minima(max_points, top)
    full = run_stats(max_points)
    assert full.max_vertices is None and capped.max_vertices == top
    assert capped.table == {k: v for k, v in full.table.items() if k <= top}


@pytest.fixture(scope="module")
def recorded_3d_walk():
    """A 3D N = 12 run's polygon pass, (arguments, diagnostics), and per
    walked node whether it is a leaf whose cones the run never derived."""
    passes = []
    untouched = []
    derived = []
    classify_2d = pipeline._classify_2d
    walk = pipeline.walk_tree
    child_cones = search._child_cones

    def recorded_pass(*args):
        out = classify_2d(*args)
        passes.append((args, out[1]))
        return out

    def recorded_cones(node, step):
        derived.append(step)
        return child_cones(node, step)

    def recorded_walk(root, max_cones):
        for node in walk(root, max_cones):
            before = len(derived)
            yield node
            # a leaf is (parent, step) and derives its cones on each read,
            # so the run read none while it held the leaf
            untouched.append(type(node) is search._Leaf
                             and len(derived) == before)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pipeline, "_classify_2d", recorded_pass)
        mp.setattr(pipeline, "walk_tree", recorded_walk)
        mp.setattr(search, "_child_cones", recorded_cones)
        res = run_classify(RunConfig(3, 12))
    assert hashlib.sha256(render_json(res).encode()).hexdigest() == (
        "9dcc83cfe3a06e55d10ea5a79ca885b051a30fe1475e733a191be6d3acc48cc1")
    return passes, untouched


def test_3d_polygon_pass_stops_at_the_largest_ray_degree(recorded_3d_walk):
    passes, _ = recorded_3d_walk
    [(args, diag)] = passes
    assert args == (12, None, 7)
    assert (diag.nodes_visited, diag.fans_tested) == (631, 88)


def _dead_subtree_walk(max_points):
    """Per node of the five 3D seed walks: (leaf, below a dead node).

    Checks on the way that the subtree_bound of every node and of each of
    its ancestors is at most the node's polygon_criterion bound under the
    complete polygon table, so that no node at or below a node with
    subtree_bound > max_points passes the criterion.
    """
    full = run_stats(max_points)
    top = max_ray_degree(max_points)
    tails = tail_minima(pipeline._polygon_minima(max_points, top), top)
    nodes = []
    for name in seeds.seed_names(3):
        path = []       # (ray count, largest bound so far) per ancestor
        for node in walk_tree(seeds.get_seed(name).build(max_points),
                              max_points):
            while path and path[-1][0] >= node.num_rays:
                path.pop()
            above = path[-1][1] if path else 0
            profile = degree_profile(node)
            degrees = tuple(sorted(d for d, m in profile.items()
                                   for _ in range(m)))
            bound = subtree_bound(degrees, tails)
            if bound is None:
                bound = float("inf")
            largest = max(above, bound)
            res = polygon_criterion(profile, full)
            if res.bound is not None:
                assert largest <= res.bound, (name, node.path)
            if largest > max_points:
                assert not res.passes, (name, node.path)
            nodes.append((len(node.cones) + 2 > max_points,
                          above > max_points))
            path.append((node.num_rays, largest))
    return nodes


@pytest.mark.parametrize("max_points, bare", [(12, 19357), (13, 2701)])
def test_dead_subtrees_hold_no_candidate(max_points, bare):
    nodes = _dead_subtree_walk(max_points)
    assert len(nodes) == 31698
    assert sum(below for _, below in nodes) == bare
    # every dead node with a subtree has 10 cones here, so all are leaves
    assert sum(leaf and below for leaf, below in nodes) == bare


def test_run_derives_no_cones_below_dead_nodes(recorded_3d_walk):
    """The run counts no degrees in a dead subtree: the leaves whose cones
    it never derived are exactly the leaves below a dead node."""
    _, untouched = recorded_3d_walk
    assert untouched == [leaf and below
                         for leaf, below in _dead_subtree_walk(12)]


def test_3d_run_places_and_searches_only_what_can_pass(monkeypatch):
    """The work the two skips of the 3D run save, pinned: at N = 12 the box
    passes make 2149 _place calls (52439 when every axis is scanned), and
    the 3D fans get 55 level searches (one per class, 386, without the
    facet bound), while the polygon pass keeps its own.  An axis that
    falls back to the scan, or a class that loses the bound, fails
    here."""
    calls = Counter()
    place, search = fans._place, pipeline.enumerate_rhs

    def counted_place(*args):
        calls["_place"] += 1
        return place(*args)

    def counted_search(fan, max_points):
        calls[fan.d] += 1
        return search(fan, max_points)

    monkeypatch.setattr(fans, "_place", counted_place)
    monkeypatch.setattr(pipeline, "enumerate_rhs", counted_search)
    res = run_classify(RunConfig(3, 12))
    assert res.diagnostics.fans_tested == 386
    assert calls == {"_place": 2149, 3: 55, 2: 21}


@pytest.mark.parametrize("max_points,cut", [(12, 331), (13, 647)])
def test_facet_bound_cuts_only_classes_without_levels(monkeypatch,
                                                      max_points, cut):
    """Every 3D class the facet bound (rhs.facets_can_close) cuts has no
    level vector, and the bound is asked once per class."""
    verdicts = []
    bound = pipeline.facets_can_close

    def recorded(fan, max_points, perimeters):
        ok = bound(fan, max_points, perimeters)
        verdicts.append((fan, ok))
        return ok

    monkeypatch.setattr(pipeline, "facets_can_close", recorded)
    res = run_classify(RunConfig(3, max_points, allow_unvalidated=True))
    assert len(verdicts) == res.diagnostics.fans_tested
    dropped = [fan for fan, ok in verdicts if not ok]
    assert len(dropped) == cut
    for fan in dropped:
        assert enumerate_rhs(fan, max_points) == [], fan.rays


def _facet_polygon_cycle(vertices):
    """The coefficient cycle of a smooth lattice polygon in space, from its
    vertices in cyclic order: primitive edge directions d_i, with
    d_{i-1} + d_{i+1} = a_i d_i (the normal fan's relation, as a normal
    is its edge direction turned a quarter)."""
    k = len(vertices)
    dirs = [normalize_primitive(tuple(b - a for a, b in zip(
        vertices[i], vertices[(i + 1) % k])))[0] for i in range(k)]
    cycle = []
    for i, d in enumerate(dirs):
        s = tuple(a + b for a, b in zip(dirs[i - 1], dirs[(i + 1) % k]))
        j = next(j for j, x in enumerate(d) if x)
        a = s[j] // d[j]
        assert s == tuple(a * x for x in d), (vertices, i)
        cycle.append(a)
    return tuple(cycle)


def test_star_cycles_are_the_facet_polygon_cycles():
    """For every 3D record at N = 12, the star cycle of each ray of its
    normal fan is the coefficient cycle of that ray's facet polygon, up
    to rotation and reflection."""
    res = run_classify(RunConfig(3, 12))
    assert len(res.records) == 33
    for r in res.records:
        H = facets_of(VPolytope(r.vertices))
        tight = [{f for f, (row, b) in enumerate(zip(H.A, H.b))
                  if dot(row, v) == b} for v in r.vertices]
        fan = Fan(H.A, [sorted(t) for t in tight])
        for f, star in enumerate(star_cycles(fan)):
            # the facet's vertices, each next one sharing an edge with the
            # last: two facets
            on = [i for i, t in enumerate(tight) if f in t]
            order = [on[0]]
            while len(order) < len(on):
                order.append(next(i for i in on if i not in order and
                                  len(tight[i] & tight[order[-1]]) == 2))
            facet = _facet_polygon_cycle([r.vertices[i] for i in order])
            assert len(star) == len(facet)
            assert _dihedral_key(star) == _dihedral_key(facet), (r, f)


@pytest.mark.parametrize("max_points, digest", [
    (4, "01d8db5f92d7e88726cfe825c915886badef91e258255e6a8f2fc4648fba2824"),
    (5, "800a5c682dcbd19b0e81df1f61982cea6a86eff4b308c152ffea2baffc183cda"),
    (6, "4aa41f74dcc6ff4b6a3900ea04e15dd551dddee9dbb436cf31bd80a9784a6626"),
    (7, "bc50cbe22ba9544f04efd2e3dd933197a2e4a53b947fdc1b03f35088a29facdb"),
    (8, "3e6134cb85b2b628a953cf2cbdf0c642a3c69b1448ecb1f0604c14b4e613ce4b"),
    (9, "9a6d4bd6dd7abb8fa6ff158b684c12e02dab4b5b4f99debe2d220bdc04be637f"),
    (10, "197d1cf563adc711a40f016022c1a6ce7070056b3776c6de22a4761c32035bc8"),
    (11, "41450a7426e5ff83dedabfd5e7b20abce0ffb720c800fa9a42a669ccfa517ca2"),
])
def test_classify_dim3_small_budget_digests(max_points, digest):
    """3D reports below N = 12, where some seed roots have more cones than
    the budget and rays of a degree past max_ray_degree."""
    res = run_classify(RunConfig(3, max_points))
    assert hashlib.sha256(render_json(res).encode()).hexdigest() == digest


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
    """The listing reads the registry: every seed with its rays, then the
    14 eliminated minimal fans, each with its cone count and reason."""
    live, excluded = render_seeds().split("\n\n")
    live, excluded = live.splitlines(), excluded.splitlines()
    assert live[0] == "seed fans"
    assert [line[2:16].rstrip() for line in live[1::2]] == [
        "F_p", "F_a", "3^4", "(3^2 4^3)'", "(3^2 4^3)''", "4^6",
        "3^2 4^3 6^2"]
    assert all(line.startswith("      rays: (") for line in live[2::2])
    assert excluded[0] == ("eliminated minimal fans (dimension 3, 12 point "
                           "budget)")
    assert len(excluded) == 1 + 2 * 14
    for ex, line, reason in zip(seeds.EXCLUDED_FANS, excluded[1::2],
                                excluded[2::2]):
        assert ex.num_cones in (10, 12) and ex.reason
        assert line.startswith("  %-18s %d cones, " % (ex.name, ex.num_cones))
        assert reason == "      " + ex.reason


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

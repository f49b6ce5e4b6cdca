"""Blow-up tree tests: counting recurrences against real walks, the flag
discipline against an exhaustive oracle, and the polygon criterion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from smoothpoly import pipeline, search, seeds
from smoothpoly.fans import (
    Fan,
    ParamExpr,
    blow_up,
    fan_canonical_key,
    walls_of,
)
from smoothpoly.rhs import least_perimeter
from smoothpoly.search import (
    ConeFlag,
    CriterionResult,
    PolygonStats,
    SearchNode,
    count_polygon_tree,
    degree_profile,
    enumerate_blowups,
    format_trace_line,
    instantiate_all,
    make_root,
    polygon_criterion,
    polygon_stats,
    propagate_bounds,
    trace_line,
    walk_tree,
)

AI = ConeFlag.ALWAYS_IGNORE
IG = ConeFlag.IGNORE
CO = ConeFlag.CONSIDER
AC = ConeFlag.ALWAYS_CONSIDER


# the dimension-2 minima at N = 12, used by the criterion tests; the
# classification pipeline recomputes this table from scratch
STATS12 = PolygonStats(12, {3: (3, 0, 3), 4: (4, 0, 4), 5: (8, 1, 7),
                            6: (7, 1, 6), 8: (12, 4, 8)})


def fp():
    return seeds.seed_fan("F_p", 12)


def t34():
    return seeds.seed_fan("3^4", 12)


def test_count_recurrence_pinned_values():
    assert count_polygon_tree(3, 12) == 58785
    assert count_polygon_tree(4, 12) == 35072
    assert count_polygon_tree(3, 12, pruned=False) == 21977356
    assert count_polygon_tree(3, 3) == 1
    assert count_polygon_tree(3, 2) == 0
    assert count_polygon_tree(3, 6) == 41
    assert count_polygon_tree(3, 6, pruned=False) == 76
    assert count_polygon_tree(4, 6) == 19


@pytest.mark.parametrize("max_cones", [3, 4, 6, 7, 8])
def test_walk_matches_recurrence_fp(max_cones):
    for pruned in (True, False):
        n = sum(1 for _ in walk_tree(fp(), max_cones, pruned=pruned))
        assert n == count_polygon_tree(3, max_cones, pruned=pruned)


def test_walk_matches_recurrence_fa_symbolic():
    fa = seeds.seed_fan("F_a", 12)
    assert sum(1 for _ in walk_tree(fa, 6)) == 19


def test_pruned_walk_reaches_every_polygon_fan():
    # the flag discipline must lose no fans, only repeats
    pruned = {fan_canonical_key(n.fan) for n in walk_tree(fp(), 7)}
    full = {fan_canonical_key(n.fan) for n in walk_tree(fp(), 7, pruned=False)}
    assert pruned == full
    fa3 = seeds.get_seed("F_a").build(12)
    from smoothpoly.fans import instantiate
    root = instantiate(fa3, {"a": 3})
    pruned = {fan_canonical_key(n.fan) for n in walk_tree(root, 7)}
    full = {fan_canonical_key(n.fan) for n in walk_tree(root, 7, pruned=False)}
    assert pruned == full


def test_pruned_walk_reaches_every_3d_fan():
    pruned_nodes = list(walk_tree(t34(), 8))
    full_nodes = list(walk_tree(t34(), 8, pruned=False))
    # 1 root + 10 children (4 cones + 6 walls) + 10 * 15 grandchildren
    assert len(full_nodes) == 161
    assert len(pruned_nodes) < len(full_nodes)
    assert ({fan_canonical_key(n.fan) for n in pruned_nodes}
            == {fan_canonical_key(n.fan) for n in full_nodes})


def test_pruned_walk_reaches_every_3d_fan_parametric_seed():
    from smoothpoly.fans import instantiate
    root = instantiate(seeds.get_seed("(3^2 4^3)'").build(12), {"a": 2})
    pruned = {fan_canonical_key(n.fan) for n in walk_tree(root, 8)}
    full = {fan_canonical_key(n.fan) for n in walk_tree(root, 8, pruned=False)}
    assert pruned == full


def test_polygon_child_flags():
    root = make_root(fp())
    kids = list(enumerate_blowups(root, 12))
    assert len(kids) == 3
    assert kids[1].path == (("cone", 1),)
    assert kids[1].cone_flags == (IG, CO, CO, CO)
    assert kids[2].cone_flags == (IG, IG, CO, CO)


def test_cone_blowup_flag_mechanics_3d():
    root = make_root(t34())
    assert tuple(root.wall_flags) == ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3),
                                     (2, 3))
    kids = list(enumerate_blowups(root, 12))
    assert len(kids) == 10  # 4 cones then 6 walls
    child = kids[0]
    assert child.path == (("cone", 0),)
    assert child.fan.cones == ((0, 1, 4), (0, 1, 3), (0, 2, 3), (1, 2, 3),
                               (0, 2, 4), (1, 2, 4))
    assert child.cone_flags == (CO, CO, CO, CO, CO, CO)
    assert tuple(child.wall_flags) == ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3),
                                      (2, 3), (0, 4), (1, 4), (2, 4))
    for pair in [(0, 1), (0, 2), (1, 2)]:
        assert child.wall_flags[pair] is AI
    for pair in [(0, 3), (1, 3), (2, 3), (0, 4), (1, 4), (2, 4)]:
        assert child.wall_flags[pair] is CO


def test_wall_blowup_flag_mechanics_3d():
    root = make_root(t34())
    child = list(enumerate_blowups(root, 12))[0]     # blow up cone 0
    grandkids = list(enumerate_blowups(child, 12))
    # 6 cone children, then walls (0,3),(1,3),(2,3),(0,4),(1,4),(2,4)
    assert len(grandkids) == 12
    gk = grandkids[8]
    assert gk.path == (("cone", 0), ("wall", (2, 3)))
    assert gk.fan.cones == ((0, 1, 4), (0, 1, 3), (0, 2, 5), (1, 2, 5),
                            (0, 2, 4), (1, 2, 4), (0, 3, 5), (1, 3, 5))
    assert gk.cone_flags == (IG, IG, CO, CO, IG, IG, CO, CO)
    # the side walls that were passed over are reactivated
    assert gk.wall_flags[(0, 3)] is AC
    assert gk.wall_flags[(1, 3)] is AC
    assert gk.wall_flags[(0, 2)] is AI
    assert gk.wall_flags[(1, 2)] is AI
    assert (2, 3) not in gk.wall_flags
    for pair in [(0, 5), (1, 5), (2, 5), (3, 5)]:
        assert gk.wall_flags[pair] is CO
    assert tuple(gk.wall_flags) == ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3),
                                   (0, 4), (1, 4), (2, 4),
                                   (0, 5), (1, 5), (2, 5), (3, 5))


def _expandable(node, max_cones):
    """Whether the walk to max_cones expands node, so that it carries flags
    (a root always does)."""
    step = 1 if node.seed_fan.d == 2 else 2
    return not node.path or len(node.cones) + step <= max_cones


def test_wall_order_tracks_actual_walls():
    for node in walk_tree(t34(), 8):
        if _expandable(node, 8):
            assert set(node.wall_flags) == {w.ray_indices
                                            for w in walls_of(node.fan)}
        else:
            assert (node.cone_flags, node.wall_flags,
                    node.wall_cones) == (None, None, None)


# per 3D seed, the nodes its walk to 12 cones expands (of 31698 in all)
_EXPANDABLE_AT_12 = {"3^4": 1679, "(3^2 4^3)'": 229, "(3^2 4^3)''": 229,
                     "4^6": 21, "3^2 4^3 6^2": 1}


@pytest.mark.parametrize("name", seeds.seed_names(3))
def test_wall_cones_match_a_scan(name):
    """wall_cones, carried from parent to child by the local update rules,
    equals a fresh walls_of scan on every expandable node, and the sum of a
    cone less the wall's two rays is the wall's opposite ray there."""
    expandable = 0
    for node in walk_tree(seeds.seed_fan(name, 12), 12):
        if not _expandable(node, 12):
            continue
        expandable += 1
        walls = walls_of(node.fan)
        assert node.wall_cones == {w.ray_indices: w.incident for w in walls}
        assert set(node.wall_cones) == set(node.wall_flags)
        for w in walls:
            n1, n2 = w.ray_indices
            assert tuple(sum(node.cones[i]) - n1 - n2
                         for i in node.wall_cones[w.ray_indices]) == w.opposite
    assert expandable == _EXPANDABLE_AT_12[name]


def _leaf_node(name, max_cones):
    """The first node the walk of seed name to max_cones does not expand."""
    return next(node for node in walk_tree(seeds.seed_fan(name, 12),
                                           max_cones)
                if not _expandable(node, max_cones))


def test_flagless_node_cannot_be_expanded():
    for name, max_cones in (("3^4", 6), ("F_p", 4)):
        leaf = _leaf_node(name, max_cones)
        assert leaf.cone_flags is None
        # at its own cap the leaf has no children, above it a clear error
        assert list(enumerate_blowups(leaf, max_cones)) == []
        with pytest.raises(ValueError, match="built as a leaf"):
            list(walk_tree(leaf, max_cones + 2))
    # an explicit raise, so the check holds under python -O as well
    script = (
        "from smoothpoly import seeds\n"
        "from smoothpoly.search import walk_tree\n"
        "assert False, 'asserts are on'\n"
        "leaf = list(walk_tree(seeds.seed_fan('3^4', 12), 6))[-1]\n"
        "list(walk_tree(leaf, 8))\n"
    )
    src = str(Path(search.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1
    assert "ValueError" in proc.stderr and "built as a leaf" in proc.stderr


def test_propagate_bounds():
    assert propagate_bounds({"a": (0, 12)}, "cone") == {"a": (-1, 13)}
    assert propagate_bounds({"a": (0, 12)}, "wall") == {"a": (0, 12)}


def test_walk_widens_parametric_bounds():
    fa = seeds.seed_fan("F_a", 12)
    for node in walk_tree(fa, 6):
        depth = len(node.path)
        assert node.fan.bounds == {"a": (-depth, 12 + depth)}
        assert node.fan.excluded == {"a": frozenset({1})}


def test_instantiate_all():
    pairs = instantiate_all(seeds.seed_fan("F_a", 12))
    assert len(pairs) == 12
    assert [asg["a"] for asg, _ in pairs] == [0] + list(range(2, 13))
    assert all(isinstance(f, Fan) and f.bounds == f.excluded == {}
               for _, f in pairs)

    only = instantiate_all(t34())
    assert only == [({}, t34())]

    pairs = instantiate_all(seeds.seed_fan("3^2 4^3 6^2", 12))
    assert [asg["a"] for asg, _ in pairs] == list(range(-6, 6))


def test_instantiate_all_skips_degenerate_combinations():
    A = ParamExpr.var("a")
    pf = Fan([(1, 0), (0, 1), (-1, -A), (-1, -1)],
             [(0, 1), (1, 2), (2, 3), (3, 0)],
             bounds={"a": (0, 2)})
    # a = 1 makes rays 2 and 3 coincide
    pairs = instantiate_all(pf)
    assert [asg["a"] for asg, _ in pairs] == [0, 2]


def test_trace_line():
    root = make_root(fp())
    assert trace_line(root) == "0\t3\troot"
    child = list(enumerate_blowups(root, 12))[2]
    assert trace_line(child) == "1\t4\tcone:2"
    node3 = list(enumerate_blowups(make_root(t34()), 12))[5]
    assert trace_line(node3) == "1\t6\twall:0-2"
    # the node-free form that the polygon loop writes with
    assert format_trace_line(4, (("cone", 2),)) == trace_line(child)
    assert format_trace_line(3, ()) == trace_line(root)


def test_walk_tree_expands_only_expandable_nodes(monkeypatch):
    # leaf children are yielded right after their parent, in the pre-order
    # of a walk that expands every node, and never reach enumerate_blowups
    def stack_walk(fan, max_cones):
        stack = [make_root(fan)]
        while stack:
            node = stack.pop()
            yield node.path
            stack.extend(reversed(list(enumerate_blowups(node, max_cones))))

    cases = ((t34(), 12, 2, 24517, 1679), (fp(), 9, 1, 1429, 428))
    for fan, max_cones, step, nodes, expandable in cases:
        calls = []
        expand = search.enumerate_blowups

        def counting(node, *args):
            calls.append(node.path)
            return expand(node, *args)

        monkeypatch.setattr(search, "enumerate_blowups", counting)
        walked = [node.path for node in walk_tree(fan, max_cones)]
        monkeypatch.setattr(search, "enumerate_blowups", expand)
        assert walked == list(stack_walk(fan, max_cones))
        assert len(walked) == nodes and len(calls) == expandable
        assert calls == [path for path in walked
                         if len(fan.cones) + step * (len(path) + 1)
                         <= max_cones]


def test_polygon_stats_componentwise_minima():
    stats = polygon_stats([(3, 6, 1, 5), (3, 3, 0, 3), (4, 4, 0, 4)], 12)
    assert stats.table == {3: (3, 0, 3), 4: (4, 0, 4)}
    assert stats.get(5) is None
    assert stats.max_points == 12


def test_degree_profile():
    assert degree_profile(t34()) == {3: 4}
    assert degree_profile(seeds.seed_fan("3^2 4^3 6^2", 12)) == {3: 2, 4: 3, 6: 2}


def test_criterion_accepts_the_five_seeds():
    expected_bounds = {"3^4": 4, "(3^2 4^3)'": 6, "(3^2 4^3)''": 6,
                       "4^6": 8, "3^2 4^3 6^2": 12}
    for name in seeds.seed_names(3):
        res = polygon_criterion(degree_profile(seeds.seed_fan(name, 12)), STATS12)
        assert res == CriterionResult(expected_bounds[name], True, None), name


def test_criterion_rejects_the_other_minimal_fans():
    expected = {
        "3^1 4^3 5^3": 15, "4^5 5^2": 14, "4^6 6^2": 14,
        "3^2 4^4 7^2": None, "3^3 4^1 5^1 6^3": 16, "3^2 4^2 5^2 6^2": 16,
        "3^1 4^4 5^1 6^2": 15, "3^2 4^1 5^4 6^1": 17,
        "(3^1 4^3 5^3 6^1)'": 16, "(3^1 4^3 5^3 6^1)''": 16,
        "(3^2 5^6)'": 20, "(3^2 5^6)''": 20,
        "(4^4 5^4)'": 18, "(4^4 5^4)''": 18,
    }
    for ex in seeds.EXCLUDED_FANS:
        res = polygon_criterion(ex.profile, STATS12)
        assert not res.passes, ex.name
        assert res.bound == expected[ex.name], ex.name
        if res.bound is None:
            assert res.missing_degree == 7


def test_walk_is_deterministic():
    fan = seeds.seed_fan("(3^2 4^3)''", 12)
    first = [n.path for n in walk_tree(fan, 8)]
    second = [n.path for n in walk_tree(fan, 8)]
    assert first == second


# ---------------------------------------------------------------------------
# the combinatorial walk against fans.blow_up

def _reference_children(fan, bookkeeping, max_cones, pruned):
    """Children of one node, each a blown-up Fan plus its bookkeeping.

    The fan-based reference walk: every child is fans.blow_up of its
    parent with bounds passed through propagate_bounds, and incident cones
    are found by set scans on the fan.  bookkeeping is (path, cone_flags,
    wall_order, wall_flags, wall_cones).
    """
    path, cone_flags, wall_order, wall_flags, _ = bookkeeping
    k, d, s = len(fan.cones), fan.d, len(fan.rays)
    if k + (1 if d == 2 else 2) > max_cones:
        return []

    def grown(target, kind):
        child = blow_up(fan, target)
        return Fan(child.rays, child.cones, child.d,
                   propagate_bounds(child.bounds, kind), child.excluded)

    def faces(cone):
        return [(cone[a], cone[b])
                for a in range(len(cone)) for b in range(a + 1, len(cone))]

    kids = []
    cones_running = list(cone_flags)
    walls_running = dict(wall_flags)
    for i in range(k):
        if pruned and cones_running[i] not in (CO, AC):
            continue
        target = fan.cones[i]
        flags = list(cones_running)
        flags[i] = CO
        flags.extend([CO] * (d - 1))
        wflags, worder = {}, ()
        if d == 3:
            wflags = dict(walls_running)
            for pair in faces(target):
                wflags[pair] = AI
            new_keys = tuple(sorted((c, s) for c in target))
            wflags.update((key, CO) for key in new_keys)
            worder = wall_order + new_keys
        child = grown(target, "cone")
        kids.append((child, (path + (("cone", i),), tuple(flags), worder,
                             wflags, _scanned_wall_cones(child, worder))))
        cones_running[i] = IG
    for key in wall_order:
        if pruned and walls_running[key] not in (CO, AC):
            continue
        i1, i2 = [ci for ci, c in enumerate(fan.cones)
                  if set(key) <= set(c)]
        flags = list(cones_running)
        flags[i1] = flags[i2] = CO
        flags.extend([CO, CO])
        wflags = dict(walls_running)
        del wflags[key]
        for ci in (i1, i2):
            for pair in faces(fan.cones[ci]):
                if pair != key and wflags[pair] is IG:
                    wflags[pair] = AC
        p = next(x for x in fan.cones[i1] if x not in key)
        q = next(x for x in fan.cones[i2] if x not in key)
        new_keys = tuple(sorted((x, s) for x in (p, q) + key))
        wflags.update((nk, CO) for nk in new_keys)
        worder = tuple(w for w in wall_order if w != key) + new_keys
        child = grown(key, "wall")
        kids.append((child, (path + (("wall", key),), tuple(flags), worder,
                             wflags, _scanned_wall_cones(child, worder))))
        if walls_running[key] is not AC:
            walls_running[key] = IG
    return kids


def _scanned_wall_cones(fan, wall_order):
    """Per wall key, the positions of the cones holding both its rays."""
    return {key: tuple(ci for ci, c in enumerate(fan.cones)
                       if set(key) <= set(c))
            for key in wall_order}


def _reference_walk(fan, max_cones, pruned):
    root = make_root(fan)
    wall_order = tuple(root.wall_flags)
    stack = [(fan, (root.path, root.cone_flags, wall_order, root.wall_flags,
                    _scanned_wall_cones(fan, wall_order)))]
    while stack:
        fan, bookkeeping = stack.pop()
        yield fan, bookkeeping
        stack.extend(reversed(_reference_children(fan, bookkeeping,
                                                  max_cones, pruned)))


_EQUIVALENCE_ROOTS = [(name, 9) for name in seeds.seed_names(3)] + [
    ("F_p", 8), ("F_a", 8)]


@pytest.mark.parametrize("pruned", [True, False])
@pytest.mark.parametrize("name,max_cones", _EQUIVALENCE_ROOTS)
def test_walk_equals_blow_up_replay(name, max_cones, pruned):
    """Every node's lazily built fan equals the fans.blow_up walk's, node for
    node and in the same order, and so do the flags and wall cones of every
    node the walk expands; the others carry none."""
    fan = seeds.seed_fan(name, 12)
    nodes = list(walk_tree(fan, max_cones, pruned=pruned))
    reference = list(_reference_walk(fan, max_cones, pruned))
    assert len(nodes) == len(reference)
    for node, (ref, bookkeeping) in zip(nodes, reference):
        assert node.path == bookkeeping[0]
        if _expandable(node, max_cones):
            # dict equality ignores order, so the wall order is compared apart
            assert (node.path, node.cone_flags, tuple(node.wall_flags),
                    node.wall_flags, node.wall_cones) == bookkeeping
        else:
            assert (node.cone_flags, node.wall_flags,
                    node.wall_cones) == (None, None, None)
        assert node.cones == ref.cones
        assert node.num_rays == len(ref.rays)
        built = node.fan
        assert type(built) is type(ref)
        assert built.rays == ref.rays and built.cones == ref.cones
        assert ([[type(a) for a in r] for r in built.rays]
                == [[type(a) for a in r] for r in ref.rays])
        assert built.d == ref.d
        assert built.bounds == ref.bounds
        assert built.excluded == ref.excluded
        # a node refers to its seed fan, never to another node
        assert not any(isinstance(getattr(node, slot), SearchNode)
                       for slot in SearchNode.__slots__)


def test_built_rays_normalize_like_blow_up():
    # smooth fans never need it, but a sum without parameters is made
    # primitive and integer exactly as fans.blow_up does
    one = ParamExpr(1)
    fans_in = [Fan([(1, 0), (1, 2), (-1, -1)], [(0, 1), (1, 2), (0, 2)]),
               Fan([(one, 0), (0, one), (-1, -ParamExpr.var("a"))],
                   [(0, 1), (1, 2), (0, 2)], bounds={"a": (0, 2)})]
    for fan in fans_in:
        child = next(enumerate_blowups(make_root(fan), 4))
        ref = blow_up(fan, fan.cones[0])
        assert child.fan.rays == ref.rays
        assert [type(a) for a in child.fan.rays[-1]] == [int, int]
    assert child.fan.bounds == {"a": (-1, 3)}


def test_walk_and_criterion_build_no_fan(monkeypatch):
    def no_fan(node):
        raise AssertionError("fan built for node %r" % (node.path,))

    monkeypatch.setattr(search, "_build_fan", no_fan)
    nodes = 0
    for node in walk_tree(t34(), 10):
        nodes += 1
        trace_line(node)
        polygon_criterion(degree_profile(node), STATS12)
    assert nodes == pipeline.run_count_tree("3^4", 10) == 1679
    assert degree_profile(make_root(t34())) == {3: 4}


def test_polygon_walk_builds_fans_for_class_representatives_only(
        monkeypatch):
    table = pipeline._polygon_walk(9, None, pipeline.Diagnostics())
    passing = [(prefix, node) for prefix, key, node in table
               if least_perimeter(key) <= 9]
    built = []
    class_fan = pipeline._class_fan

    def no_fan(node):
        raise AssertionError("fan built for node %r" % (node.path,))

    def counting(*node):
        built.append(node)
        return class_fan(*node)

    jobs = []

    def record(dim, class_jobs, max_points, diag):
        jobs.extend(class_jobs)
        return []

    monkeypatch.setattr(search, "_build_fan", no_fan)
    monkeypatch.setattr(pipeline, "_class_fan", counting)
    monkeypatch.setattr(pipeline, "_realize_jobs", record)
    _, diag = pipeline._classify_2d(9, None)
    # every class is tested, but only those within the perimeter bound get
    # a fan, built from their cycle, and are realized
    assert [prefix for prefix, _ in jobs] == [prefix for prefix, _ in passing]
    assert built == [node for _, node in passing]
    assert diag.nodes_visited == 1381 and diag.fans_tested == len(table) == 130
    assert len(passing) == 13


def _unpruned_3d(k, max_cones):
    """u(k) = 1 + (5k/2) u(k + 2): a 3-fan with k cones has k cones and
    3k/2 walls to blow up, and each child has two cones more."""
    if k + 2 > max_cones:
        return 1
    return 1 + (5 * k // 2) * _unpruned_3d(k + 2, max_cones)


def test_3d_tree_counts_pinned():
    expected = {"3^4": 24517, "(3^2 4^3)'": 3400, "(3^2 4^3)''": 3400,
                "4^6": 355, "3^2 4^3 6^2": 26}
    for name, count in expected.items():
        assert pipeline.run_count_tree(name, 12) == count, name
    unpruned = pipeline.run_count_tree("3^4", 12, unpruned=True)
    assert unpruned == _unpruned_3d(4, 12) == 78161


def test_3d_tree_count_benchmark_reference():
    # the count perfbench/reference.json holds for the tree-3d workload
    assert pipeline.run_count_tree("3^4", 14) == 393669

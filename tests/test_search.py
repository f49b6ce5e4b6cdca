"""Blow-up tree tests: counting recurrences against real walks, the flag
discipline against an exhaustive oracle, and the polygon criterion."""

import gc
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from conftest import package_env
from oracles import replay_children, replay_root, replay_walk
from smoothpoly import InvariantError, pipeline, search, seeds
from smoothpoly.fans import (
    DegenerateRay,
    Fan,
    ParamExpr,
    blow_up,
    fan_canonical_key,
    instantiate,
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
    max_ray_degree,
    polygon_criterion,
    polygon_stats,
    subtree_bound,
    tail_minima,
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


# the 2D tree has one count, the recurrence, and the fans.blow_up replay
# walks it node for node

@pytest.mark.parametrize("max_cones", [3, 4, 6, 7, 8])
def test_walk_matches_recurrence_fp(max_cones):
    for pruned in (True, False):
        n = sum(1 for _ in replay_walk(fp(), max_cones, pruned))
        assert n == count_polygon_tree(3, max_cones, pruned=pruned)


def test_walk_matches_recurrence_fa_symbolic():
    fa = seeds.seed_fan("F_a", 12)
    assert sum(1 for _ in replay_walk(fa, 6)) == 19 == count_polygon_tree(4, 6)


def test_pruned_walk_reaches_every_polygon_fan():
    # the flag discipline must lose no fans, only repeats
    fa3 = instantiate(seeds.get_seed("F_a").build(12), {"a": 3})
    for root in (fp(), fa3):
        pruned = {fan_canonical_key(f) for f, _ in replay_walk(root, 7)}
        full = {fan_canonical_key(f) for f, _ in replay_walk(root, 7, False)}
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
    kids = [bookkeeping for _, bookkeeping in replay_children(
        fp(), replay_root(fp()), 12, True)]
    assert len(kids) == 3
    assert kids[1][0] == (("cone", 1),)
    assert kids[1][1] == (IG, CO, CO, CO)
    assert kids[2][1] == (IG, IG, CO, CO)


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


def _flagged(node, max_cones):
    """Whether the walk to max_cones expands node's children, so that it
    carries flags (a root always does)."""
    return not node.path or len(node.cones) + 4 <= max_cones


def _leaf_parent(node, max_cones):
    """Whether node is no root and its children are all leaves at
    max_cones, so that it holds its child steps and no flags."""
    return (bool(node.path)
            and len(node.cones) + 2 <= max_cones < len(node.cones) + 4)


def _bare(node):
    """node carries no flags and no wall cones, and it is a leaf pair
    (parent, step) with no child steps, or a leaf parent with them."""
    if type(node) is search._Leaf:
        return (node.cone_flags, node.wall_flags, node.wall_cones,
                node.child_steps) == (None, None, None, None)
    return (node.cone_flags, node.wall_flags) == (None, None) and \
        isinstance(node.child_steps, list)


def test_wall_order_tracks_actual_walls():
    kinds = Counter()
    for node in walk_tree(t34(), 10):
        walls = {w.ray_indices for w in walls_of(node.fan)}
        if _flagged(node, 10):
            kinds["flagged"] += 1
            assert set(node.wall_flags) == walls
        elif _leaf_parent(node, 10):
            kinds["leaf parent"] += 1
            assert _bare(node) and set(node.wall_cones) == walls
        else:
            kinds["leaf"] += 1
            assert _bare(node) and type(node) is search._Leaf
    assert kinds == {"flagged": 11, "leaf parent": 117, "leaf": 1551}


# per 3D seed, the nodes its walk to 12 cones expands (of 31698 in all)
_EXPANDABLE_AT_12 = {"3^4": 1679, "(3^2 4^3)'": 229, "(3^2 4^3)''": 229,
                     "4^6": 21, "3^2 4^3 6^2": 1}


@pytest.mark.parametrize("name", seeds.seed_names(3))
def test_wall_cones_match_a_scan(name):
    """wall_cones, carried from parent to child by the local update rules
    on a flagged node and derived on first read on a leaf parent, equals a
    fresh walls_of scan on every node the walk expands, and the sum of a
    cone less the wall's two rays is the wall's opposite ray there."""
    expandable = 0
    for node in walk_tree(seeds.seed_fan(name, 12), 12):
        if len(node.cones) + 2 > 12 and node.path:
            continue
        expandable += 1
        walls = walls_of(node.fan)
        assert node.wall_cones == {w.ray_indices: w.incident for w in walls}
        if _flagged(node, 12):
            assert set(node.wall_cones) == set(node.wall_flags)
        for w in walls:
            n1, n2 = w.ray_indices
            assert tuple(sum(node.cones[i]) - n1 - n2
                         for i in node.wall_cones[w.ray_indices]) == w.opposite
    assert expandable == _EXPANDABLE_AT_12[name]


def _first(name, max_cones, kind):
    """The first node of the walk of seed name to max_cones that is a
    leaf, or a leaf parent."""
    def wanted(node):
        if kind == "leaf parent":
            return _leaf_parent(node, max_cones)
        return node.path and not _flagged(node, max_cones) \
            and not _leaf_parent(node, max_cones)
    return next(node for node in walk_tree(seeds.seed_fan(name, 12),
                                           max_cones)
                if wanted(node))


def test_flagless_node_cannot_be_expanded():
    # a leaf at its own cap has no children; a leaf parent at its own cap,
    # or any cap at which its children are still leaves, has the leaves
    # of its child steps; above that each raises a clear error
    for name, max_cones in (("3^4", 6), ("(3^2 4^3)'", 8)):
        leaf = _first(name, max_cones, "leaf")
        assert _bare(leaf)
        assert list(enumerate_blowups(leaf, max_cones)) == []
        for cap in (max_cones + 2, max_cones + 4):
            with pytest.raises(ValueError, match="built as a leaf"):
                list(walk_tree(leaf, cap))
        parent = _first(name, max_cones + 2, "leaf parent")
        assert _bare(parent)
        for cap in (max_cones + 2, max_cones + 3):
            leaves = list(enumerate_blowups(parent, cap))
            assert [leaf.step for leaf in leaves] == parent.child_steps
            assert all(leaf.parent is parent for leaf in leaves)
        assert list(enumerate_blowups(parent, max_cones)) == []
        with pytest.raises(ValueError, match="built as a leaf"):
            list(enumerate_blowups(parent, max_cones + 4))
        with pytest.raises(ValueError, match="built as a leaf"):
            list(walk_tree(parent, max_cones + 4))
    # explicit raises, so the check holds under python -O as well
    script = (
        "from smoothpoly import seeds\n"
        "from smoothpoly.search import walk_tree\n"
        "assert False, 'asserts are on'\n"
        "seed = seeds.seed_fan('3^4', 12)\n"
        "leaf = list(walk_tree(seed, 6))[-1]\n"
        "parent = next(node for node in walk_tree(seed, 8)\n"
        "              if node.child_steps is not None)\n"
        "for node, cap in ((leaf, 8), (parent, 10)):\n"
        "    try:\n"
        "        list(walk_tree(node, cap))\n"
        "    except ValueError as exc:\n"
        "        print(type(node).__name__, 'raised:', exc)\n"
    )
    src = str(Path(search.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert [line.split(" raised: ")[0] for line in lines] == [
        "_Leaf", "SearchNode"]
    assert all("built as a leaf" in line for line in lines)


def test_walk_needs_a_complete_fan():
    # the walk reads cone counts off ray counts, which holds for complete
    # fans only
    fan = Fan([(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)],
              [(0, 1, 2), (0, 1, 3), (0, 2, 3)])
    with pytest.raises(ValueError, match="not complete"):
        make_root(fan)
    with pytest.raises(ValueError, match="not complete"):
        list(walk_tree(fan, 12))


_TWO_FANS = """
from smoothpoly import seeds
from smoothpoly.fans import instantiate
from smoothpoly.search import make_root, walk_tree
fa0 = instantiate(seeds.get_seed("F_a").build(12), {"a": 0})
print(__debug__, len(fa0.rays), len(fa0.cones))
for fan in (seeds.seed_fan("F_p", 12), fa0):
    for walk in (make_root, lambda f: list(walk_tree(f, 12))):
        try:
            walk(fan)
        except ValueError as exc:
            print("ValueError:", exc)
"""


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_walk_takes_3_fans_only(flags):
    """make_root and walk_tree raise ValueError on F_p and on the F_a
    instance at a = 0, also under python -O: the 2D tree is pipeline's
    tuple walk and count_polygon_tree's.  That instance has 4 rays and
    4 = 2R - 4 cones, so only the explicit dimension test stops it."""
    out = subprocess.run([sys.executable, *flags, "-c", _TWO_FANS],
                         capture_output=True, text=True, env=package_env(),
                         timeout=60)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert lines[0] == "%s 4 4" % (not flags)
    assert lines[1:] == ["ValueError: the node walk takes 3-fans, not a "
                         "2-fan; pipeline walks 2D trees and "
                         "count_polygon_tree counts them"] * 4


def test_walk_widens_parametric_bounds():
    # one wider on each side per cone step of the path; a wall step keeps
    # the box
    seed = seeds.seed_fan("(3^2 4^3)''", 12)
    assert seed.bounds
    steps = Counter()
    for node in walk_tree(seed, 10):
        widen = sum(kind == "cone" for kind, _ in node.path)
        steps[widen, len(node.path) - widen] += 1
        assert node.fan.bounds == {n: (lo - widen, hi + widen)
                                   for n, (lo, hi) in seed.bounds.items()}
        assert node.fan.excluded == seed.excluded
    assert steps[0, 2] and steps[2, 0] and steps[1, 1]


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


def test_instantiate_all_raises_on_degenerate_combinations():
    A = ParamExpr.var("a")
    pf = Fan([(1, 0), (0, 1), (-1, -A), (-1, -1)],
             [(0, 1), (1, 2), (2, 3), (3, 0)],
             bounds={"a": (0, 2)})
    # a = 1 makes rays 2 and 3 coincide: no fan of this type, and no root
    # the pipeline instantiates has such a point
    with pytest.raises(DegenerateRay, match="coincide"):
        instantiate_all(pf)


def test_trace_line():
    root = make_root(t34())
    assert trace_line(root) == "0\t4\troot"
    kids = list(enumerate_blowups(root, 12))
    assert trace_line(kids[2]) == "1\t6\tcone:2"
    assert trace_line(kids[5]) == "1\t6\twall:0-2"
    # the node-free form that the polygon loop writes with
    assert format_trace_line(6, (("cone", 2),)) == trace_line(kids[2])
    assert format_trace_line(4, ()) == trace_line(root)


def test_walk_tree_expands_only_expandable_nodes(monkeypatch):
    # leaf children are yielded right after their parent, in the pre-order
    # of a walk that expands every node, and never reach enumerate_blowups
    def stack_walk(fan, max_cones):
        stack = [make_root(fan)]
        while stack:
            node = stack.pop()
            yield node.path
            stack.extend(reversed(list(enumerate_blowups(node, max_cones))))

    # an even cap and an odd one, which no node's cone count reaches
    cases = ((t34(), 12, 24517, 1679),
             (seeds.seed_fan("(3^2 4^3)'", 12), 11, 229, 16))
    for fan, max_cones, nodes, expandable in cases:
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
                         if len(fan.cones) + 2 * (len(path) + 1)
                         <= max_cones]


# (seed, cone cap, pruned) -> (nodes whose children are all leaves, how
# many of them hold a wall set back to ALWAYS_CONSIDER, their children)
_LEAF_PARENTS = {("3^4", 12, True): (1551, 1268, 22838),
                 ("(3^2 4^3)'", 12, True): (213, 159, 3171),
                 ("(3^2 4^3)''", 12, True): (213, 159, 3171),
                 ("4^6", 12, True): (20, 8, 334),
                 ("3^2 4^3 6^2", 12, True): (1, 0, 25),
                 ("3^4", 10, False): (150, 108, 3000)}


@pytest.mark.parametrize("name,max_cones,pruned", sorted(_LEAF_PARENTS))
def test_leaf_children_equal_flagged_children(name, max_cones, pruned):
    """A node whose children the walk makes leaves lists the same child
    steps, in order, as the node at its path in the walk to a cap two
    cones higher, which carries flags there and builds its children from
    them; a leaf parent holds these steps and no flags, its leaves are
    the pairs (node, step), and each leaf equals, field by field, the
    flagged child at its path and has the cones fans.blow_up gives.  The
    nodes are at deeper flag states than test_walk_equals_blow_up_replay
    reaches."""
    seed = seeds.seed_fan(name, 12)
    flagged = {node.path: node for node in walk_tree(seed, max_cones + 2,
                                                     pruned=pruned)
               if _flagged(node, max_cones + 2)}
    parents = reset = children = 0
    for node in walk_tree(seed, max_cones, pruned=pruned):
        if not len(node.cones) + 2 <= max_cones < len(node.cones) + 4:
            continue
        parents += 1
        twin = flagged[node.path]
        reset += AC in twin.wall_flags.values()
        kids = list(enumerate_blowups(twin, max_cones + 2, pruned))
        leaves = list(enumerate_blowups(node, max_cones, pruned))
        assert [leaf.step for leaf in leaves] == [kid.step for kid in kids]
        if node.path:
            assert _bare(node) and node.child_steps == [kid.step
                                                        for kid in kids]
        children += len(leaves)
        for leaf, kid in zip(leaves, kids):
            assert type(leaf) is search._Leaf and _bare(leaf)
            assert tuple(leaf) == (node, kid.step)
            assert ((leaf.cones, leaf.num_rays, leaf.path, leaf.blown_up)
                    == (kid.cones, kid.num_rays, kid.path, kid.blown_up))
            assert leaf.seed_fan is kid.seed_fan is node.seed_fan
            # at the higher cap the child is itself a leaf parent
            assert _leaf_parent(kid, max_cones + 2) and _bare(kid)
            assert leaf.cones == blow_up(node.fan, leaf.blown_up[-1]).cones
    assert (parents, reset, children) == _LEAF_PARENTS[
        name, max_cones, pruned]


def test_walk_flags_only_the_children_it_expands(monkeypatch):
    # of the 3^4 walk to 12 cones, the 127 children with 6 and 8 cones
    # reach the flag builder, once each, and the 1551 with 10 cones, whose
    # children are leaves, get only their child steps, once each; the
    # 22838 leaves reach neither
    flagged, stepped = [], []
    flag_child, child_steps = search._flag_child, search._child_steps

    def counting_flags(node, child, *running):
        flagged.append(child.path)
        return flag_child(node, child, *running)

    def counting_steps(node, step, *running):
        stepped.append(node.path + (step,))
        return child_steps(node, step, *running)

    monkeypatch.setattr(search, "_flag_child", counting_flags)
    monkeypatch.setattr(search, "_child_steps", counting_steps)
    walked = list(walk_tree(t34(), 12))
    assert len(walked) == 24517
    assert Counter(len(path) for path in flagged) == {1: 10, 2: 117}
    assert Counter(len(path) for path in stepped) == {3: 1551}
    # a node's children are flagged or stepped together, when it is
    # expanded
    assert sorted(flagged) == sorted(node.path for node in walked
                                     if node.path and len(node.cones) <= 8)
    assert sorted(stepped) == sorted(node.path for node in walked
                                     if len(node.cones) == 10)
    assert all(_bare(node) for node in walked if len(node.cones) >= 10)
    assert all(type(node) is search._Leaf for node in walked
               if len(node.cones) == 12)


def test_polygon_stats_componentwise_minima():
    stats = polygon_stats([(3, 6, 1, 5), (3, 3, 0, 3), (4, 4, 0, 4)], 12)
    assert stats.table == {3: (3, 0, 3), 4: (4, 0, 4)}
    assert stats.get(5) is None
    assert stats.max_points == 12


def test_capped_polygon_stats_answer_only_within_their_cap():
    assert STATS12.max_vertices is None
    assert STATS12.get(9) is None
    stats = polygon_stats([(3, 3, 0, 3), (4, 4, 0, 4), (9, 14, 1, 13)], 14, 7)
    assert stats.table == {3: (3, 0, 3), 4: (4, 0, 4)}
    assert stats.max_vertices == 7
    assert stats.get(7) is None
    with pytest.raises(InvariantError, match="at most 7 vertices"):
        stats.get(8)
    with pytest.raises(InvariantError):
        polygon_criterion({3: 2, 8: 1, 4: 3}, stats)


def test_max_ray_degree_is_met_and_never_passed():
    """Every node within the cone cap of the five seed walks has no ray of
    degree above max_ray_degree, and some node has one of exactly that."""
    for max_cones in (12, 13):
        top = max_ray_degree(max_cones)
        assert top == 7
        seen = Counter()
        for name in seeds.seed_names(3):
            for node in walk_tree(seeds.get_seed(name).build(max_cones),
                                  max_cones):
                assert len(node.cones) <= max_cones
                seen[max(degree_profile(node))] += 1
        assert max(seen) == top
        assert seen[top] == 11561
        assert sum(seen.values()) == 31698
    assert [max_ray_degree(c) for c in (4, 5, 8, 9, 14, 16)] == \
        [3, 3, 5, 5, 8, 9]


def test_tail_minima_and_subtree_bound_hand_cases():
    inner, extra = tail_minima(STATS12, 7)
    # i and b - k at k = 3..6: (0, 0), (0, 0), (1, 2), (1, 0); no 7-gon
    assert inner[3:] == [0, 0, 1, 1, None]
    assert extra[3:] == [0, 0, 0, 0, None]
    tails = (inner, extra)
    # the seed 3^4: 4 cones and nothing else; its criterion bound is 4
    assert subtree_bound((3, 3, 3, 3), tails) == 4
    # 3^2 4^3 6^2: 10 cones, b(6) - 6 = 0 and two 6s with one interior
    # point each; its own bound is 12 too
    assert subtree_bound((3, 3, 4, 4, 4, 6, 6), tails) == 12
    assert polygon_criterion({3: 2, 4: 3, 6: 2}, STATS12).bound == 12
    # a ray of degree 7 has no polygon at or above it within 12 points
    assert subtree_bound((3, 3, 3, 4, 4, 5, 7, 7), tails) is None
    # the 8-gon of the complete table is past the walk's degree cap
    with pytest.raises(InvariantError, match="degree 8"):
        subtree_bound((3, 3, 3, 3, 4, 4, 4, 8), tails)
    # a table with a pentagon alone: every smaller k reads its minima
    inner, extra = tail_minima(PolygonStats(12, {5: (8, 1, 7)}, 7), 7)
    assert inner[3:] == [1, 1, 1, None, None]
    assert extra[3:] == [2, 2, 2, None, None]


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
# the combinatorial walk against the fans.blow_up replay (oracles)

def test_count_tree_builds_no_leaf(monkeypatch):
    # a child is its parent plus its step, and its cones are derived when
    # first read: counting the 3^4 tree to 12 cones derives them once for
    # each of the 127 flagged children, whose children it builds, and for
    # none of its 1551 leaf parents or 22838 leaves, since the walk reads
    # a node's cone count off its ray count; nor does it derive a leaf
    # parent's wall cones
    built, walled = [], []
    child_cones = search._child_cones
    child_wall_cones = search._child_wall_cones

    def counting(node, step):
        built.append(node.path + (step,))
        return child_cones(node, step)

    def counting_walls(node, step):
        walled.append(node.path + (step,))
        return child_wall_cones(node, step)

    monkeypatch.setattr(search, "_child_cones", counting)
    monkeypatch.setattr(search, "_child_wall_cones", counting_walls)
    assert pipeline.run_count_tree("3^4", 12) == 24517
    assert len(built) == len(set(built)) == 127
    assert Counter(len(path) for path in built) == {1: 10, 2: 117}
    assert len(walled) == len(set(walled)) <= 127
    assert set(walled) <= set(built)


def test_walk_leaves_no_reference_cycle():
    # a node holds its parent and never its children, so the nodes of a
    # walk are freed by reference counting alone
    gc.collect()
    gc.disable()
    try:
        assert pipeline.run_count_tree("3^4", 12) == 24517
        result = pipeline.run_classify(pipeline.RunConfig(3, 12))
        assert len(result.records) == 33
        assert gc.collect() == 0
    finally:
        gc.enable()


_EQUIVALENCE_ROOTS = [(name, 9) for name in seeds.seed_names(3)]


@pytest.mark.parametrize("pruned", [True, False])
@pytest.mark.parametrize("name,max_cones", _EQUIVALENCE_ROOTS)
def test_walk_equals_blow_up_replay(name, max_cones, pruned):
    """Every node's lazily built fan equals the fans.blow_up walk's, node for
    node and in the same order, with its cones, ray count, path and
    blow-ups; the flags and wall cones of every node that carries flags
    equal the reference's, and so do the wall cones a leaf parent derives
    and the child steps it holds; a leaf carries none of these."""
    fan = seeds.seed_fan(name, 12)
    nodes = list(walk_tree(fan, max_cones, pruned=pruned))
    reference = list(replay_walk(fan, max_cones, pruned))
    assert len(nodes) == len(reference)
    by_path = {}
    ref_by_path = {}
    for node, (ref, bookkeeping) in zip(nodes, reference):
        assert node.path == bookkeeping[0]
        if _flagged(node, max_cones):
            # dict equality ignores order, so the wall order is compared apart
            assert (node.path, node.cone_flags, tuple(node.wall_flags),
                    node.wall_flags, node.wall_cones) == bookkeeping
        elif _leaf_parent(node, max_cones):
            assert _bare(node)
            assert node.wall_cones == bookkeeping[4]
            assert node.child_steps == [
                kid[1][0][-1] for kid in replay_children(
                    ref, bookkeeping, max_cones, pruned)]
        else:
            assert type(node) is search._Leaf and _bare(node)
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
        # a node refers to no node but its parent, the node the walk
        # yielded at the path less its step, so one path of ancestors at
        # most stays alive with it
        if type(node) is search._Leaf:
            assert len(node) == 2 and node.step == node[1]
        else:
            assert not any(isinstance(getattr(node, slot),
                                      (SearchNode, search._Leaf))
                           for slot in SearchNode.__slots__
                           if slot != "parent")
        if node.path:
            kind, t = node.step
            assert node.step == node.path[-1]
            assert node.parent is by_path[node.path[:-1]]
            parent_ref = ref_by_path[node.path[:-1]]
            assert node.blown_up == node.parent.blown_up + (
                (parent_ref.cones[t] if kind == "cone" else t),)
        else:
            assert node.parent is None and node.blown_up == ()
        by_path[node.path] = node
        ref_by_path[node.path] = ref


def test_built_rays_normalize_like_blow_up():
    # smooth fans never need it, but a sum without parameters is made
    # primitive exactly as fans.blow_up does: (2, 2, 2) here becomes
    # (1, 1, 1), also where the parameters of its rays cancel
    a = ParamExpr.var("a")
    cones = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
    fans_in = [Fan([(1, 0, 0), (1, 2, 1), (0, 0, 1), (-1, -1, -1)], cones),
               Fan([(a + 1, 0, 0), (-a + 1, 2, 1), (0, 0, 1), (-1, -1, -a)],
                   cones, bounds={"a": (0, 2)})]
    for fan in fans_in:
        child = next(enumerate_blowups(make_root(fan), 6))
        ref = blow_up(fan, fan.cones[0])
        assert child.fan.rays == ref.rays
        assert child.fan.rays[-1] == (1, 1, 1)
        assert [type(a) for a in child.fan.rays[-1]] == [int, int, int]
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

    def record(class_jobs, max_points, diag):
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

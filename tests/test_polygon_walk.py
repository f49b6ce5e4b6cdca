"""The 2D class walk, an integer loop over tuples, against the fans.blow_up
replay of the same tree, and the start-position premise it rests on."""

import pytest

from oracles import check_polygon_walk, replay_children, replay_walk
from smoothpoly import seeds
from smoothpoly.fans import instantiate
from smoothpoly.search import count_polygon_tree


@pytest.mark.parametrize("max_points,nodes,classes", [
    (12, 23409, 1992),
    (13, 90209, 7360),
])
def test_loop_equals_node_walk(max_points, nodes, classes):
    # the --trace-tree text, nodes_visited, the class rows, and per class
    # a fan with the replayed fan's cones, wall table and fan key
    assert check_polygon_walk(max_points) == (nodes, classes)


def _polygon_tree_roots():
    fa = seeds.get_seed("F_a").build(12)
    yield seeds.seed_fan("F_p", 12)
    for a in (0, 2, 3):
        yield instantiate(fa, {"a": a})


def test_flags_expand_from_the_start_position():
    # the loop's premise: in 2D, the flag discipline expands exactly the
    # positions from the last one blown up (0 at the root) to the end, and
    # unpruned every position; the trees have count_polygon_tree's sizes
    for pruned, max_cones in ((True, 10), (False, 8)):
        visited = 0
        for fan in _polygon_tree_roots():
            for node, bookkeeping in replay_walk(fan, max_cones, pruned):
                visited += 1
                path, k = bookkeeping[0], len(node.cones)
                start = path[-1][1] if path and pruned else 0
                expanded = [kid[0][-1][1] for _, kid in replay_children(
                    node, bookkeeping, max_cones, pruned)]
                want = list(range(start, k)) if k + 1 <= max_cones else []
                assert expanded == want, path
        assert visited == (count_polygon_tree(3, max_cones, pruned)
                           + 3 * count_polygon_tree(4, max_cones, pruned))

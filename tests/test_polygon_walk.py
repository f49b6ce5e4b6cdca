"""The 2D class walk, an integer loop over tuples, against the node walk it
replaced, and the start-position premise it rests on."""

import io

import pytest

from smoothpoly import pipeline, seeds
from smoothpoly.fans import fan_canonical_key, instantiate, wall_table
from smoothpoly.pipeline import (
    _class_fan,
    _dihedral_key,
    _min_interior,
    _note_class,
    _polygon_cycle,
    _polygon_roots,
    _splice_cycle,
)
from smoothpoly.search import (
    count_polygon_tree,
    enumerate_blowups,
    make_root,
    trace_line,
    walk_tree,
)


def _reference_polygon_walk(max_points, trace, diag):
    """The 2D class table from a SearchNode walk: each node carries its
    flags and is expanded through an enumerate_blowups generator.

    Same rows as pipeline._polygon_walk, but each holds the node itself.
    """
    cap = max_points - 4
    max_rays = max_points
    while max_rays + _min_interior(max_rays) > max_points:
        max_rays -= 1
    classes = {}
    for name, assignment, fan in _polygon_roots(max_points):
        label = name if not assignment else \
            "%s(a=%d)" % (name, assignment["a"])
        prefix_assignment = tuple(sorted(assignment.items()))
        order0, cycle0 = _polygon_cycle(fan)
        stack = [(make_root(fan), order0, cycle0)]
        while stack:
            node, order, cycle = stack.pop()
            diag.nodes_visited += 1
            if trace is not None:
                trace.write("%s\t%s\n" % (label, trace_line(node)))
            if max(cycle) > cap:
                continue
            _note_class(classes, _dihedral_key(cycle),
                        (name, node.path, prefix_assignment), node)
            children = [(child,) + _splice_cycle(
                            order, cycle, node.cones[child.path[-1][1]],
                            node.num_rays)
                        for child in enumerate_blowups(node, max_rays)]
            stack.extend(reversed(children))
    return sorted(((prefix, key, node)
                   for key, (prefix, node) in classes.items()),
                  key=lambda row: row[0])


@pytest.mark.parametrize("max_points,nodes,classes", [
    (12, 23409, 1992),
    (13, 90209, 7360),
])
def test_loop_equals_node_walk(max_points, nodes, classes):
    want_trace, got_trace = io.StringIO(), io.StringIO()
    want_diag, got_diag = pipeline.Diagnostics(), pipeline.Diagnostics()
    want = _reference_polygon_walk(max_points, want_trace, want_diag)
    got = pipeline._polygon_walk(max_points, got_trace, got_diag)
    assert got_trace.getvalue() == want_trace.getvalue()
    assert got_trace.getvalue().count("\n") == nodes
    assert got_diag.nodes_visited == want_diag.nodes_visited == nodes
    assert [row[:2] for row in got] == [row[:2] for row in want]
    assert len(got) == classes
    if max_points == 12:
        # a class fan is a lattice image of its node's fan, built in the
        # cycle's frame: the same cones, walls and coefficients, and key
        for (_, _, row), (_, _, node) in zip(got, want):
            fan = _class_fan(*row)
            assert fan.cones == node.fan.cones
            assert wall_table(fan) == wall_table(node.fan)
            assert fan_canonical_key(fan) == fan_canonical_key(node.fan)


def _polygon_tree_roots():
    fa = seeds.get_seed("F_a").build(12)
    yield seeds.seed_fan("F_p", 12)
    for a in (0, 2, 3):
        yield instantiate(fa, {"a": a})


def test_flags_expand_from_the_start_position():
    # the loop's premise: in 2D, the flag discipline expands exactly the
    # positions from the last one blown up (0 at the root) to the end
    max_cones = 10
    visited = 0
    for fan in _polygon_tree_roots():
        for node in walk_tree(fan, max_cones):
            visited += 1
            k = len(node.cones)
            start = node.path[-1][1] if node.path else 0
            expanded = [child.path[-1][1]
                        for child in enumerate_blowups(node, max_cones)]
            want = list(range(start, k)) if k + 1 <= max_cones else []
            assert expanded == want, node.path
    assert visited == (count_polygon_tree(3, max_cones)
                       + 3 * count_polygon_tree(4, max_cones))

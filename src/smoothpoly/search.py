"""Blow-up tree enumeration over smooth complete fans.

Every smooth complete fan with at most max_cones maximal cones arises from
one of the seed fans by a sequence of equivariant blow-ups, so the search
space is a tree: nodes are fans, children are single blow-ups.  Walking it
naively revisits the same fan once per ordering of commuting blow-ups; the
flag discipline below kills those repeats while keeping every fan reachable.

Dimension 2 is the classical picture (subdivide one cone at a time) and the
ordering rule collapses to "never expand a cone position left of the last
one expanded".  Dimension 3 adds wall blow-ups, which do not commute with
their neighbours the way cone blow-ups do, so walls carry four flag states:
a wall that was passed over becomes expandable again (ALWAYS_CONSIDER) when
a later wall blow-up touches the cones beside it, and the three old face
walls of a blown-up cone never need expanding again (ALWAYS_IGNORE).
"""

import enum
import itertools
from dataclasses import dataclass
from functools import lru_cache

from .fans import (
    DegenerateRay,
    Fan,
    ParamFan,
    blow_up,
    instantiate,
    walls_of,
)


class ConeFlag(enum.Enum):
    ALWAYS_IGNORE = "always_ignore"
    IGNORE = "ignore"
    CONSIDER = "consider"
    ALWAYS_CONSIDER = "always_consider"


_EXPAND = (ConeFlag.CONSIDER, ConeFlag.ALWAYS_CONSIDER)


@dataclass
class SearchNode:
    """One fan in the blow-up tree plus the bookkeeping the walk needs.

    cone_flags is aligned with fan.cones.  wall_order lists wall keys
    (sorted ray-index pairs) in their stable iteration order: survivors keep
    their relative order across a blow-up, new walls are appended sorted.
    path records the blow-ups from the seed: ("cone", position) or
    ("wall", key) steps.
    """
    fan: Fan
    depth: int
    path: tuple
    cone_flags: tuple
    wall_order: tuple
    wall_flags: dict


def make_root(fan):
    cone_flags = tuple(ConeFlag.CONSIDER for _ in fan.cones)
    if fan.d == 3:
        wall_order = tuple(w.ray_indices for w in walls_of(fan))
        wall_flags = {key: ConeFlag.CONSIDER for key in wall_order}
    else:
        wall_order, wall_flags = (), {}
    return SearchNode(fan, 0, (), cone_flags, wall_order, wall_flags)


def propagate_bounds(bounds, kind):
    """Parameter boxes for the fan produced by one blow-up.

    A full-dimensional blow-up widens every box by one in both directions
    (the child family can be isomorphic to a sibling at a shifted parameter
    value, and one step shifts the relevant window by at most one); a wall
    blow-up leaves the boxes alone.
    """
    if kind == "cone":
        return {n: (lo - 1, hi + 1) for n, (lo, hi) in bounds.items()}
    assert kind == "wall"
    return dict(bounds)


def _propagated(child_fan, kind):
    if isinstance(child_fan, ParamFan) and child_fan.bounds:
        return ParamFan(child_fan.rays, child_fan.cones,
                        propagate_bounds(child_fan.bounds, kind),
                        child_fan.excluded, child_fan.d)
    return child_fan


def _face_pairs(cone):
    return [(cone[a], cone[b])
            for a in range(len(cone)) for b in range(a + 1, len(cone))]


def _cone_child(node, i, cones_running, walls_running):
    fan = node.fan
    target = fan.cones[i]
    child_fan = _propagated(blow_up(fan, target), "cone")
    s = len(fan.rays)
    flags = list(cones_running)
    flags[i] = ConeFlag.CONSIDER
    flags.extend([ConeFlag.CONSIDER] * (fan.d - 1))
    if fan.d == 3:
        wflags = dict(walls_running)
        # the blown-up cone's own faces never need expanding again
        for pair in _face_pairs(target):
            wflags[pair] = ConeFlag.ALWAYS_IGNORE
        new_keys = tuple(sorted((c, s) for c in target))
        for key in new_keys:
            wflags[key] = ConeFlag.CONSIDER
        worder = node.wall_order + new_keys
    else:
        wflags, worder = {}, ()
    return SearchNode(child_fan, node.depth + 1, node.path + (("cone", i),),
                      tuple(flags), worder, wflags)


def _wall_child(node, key, cones_running, walls_running):
    fan = node.fan
    child_fan = _propagated(blow_up(fan, key), "wall")
    s = len(fan.rays)
    i1, i2 = [ci for ci, c in enumerate(fan.cones) if set(key) <= set(c)]
    flags = list(cones_running)
    flags[i1] = ConeFlag.CONSIDER
    flags[i2] = ConeFlag.CONSIDER
    flags.extend([ConeFlag.CONSIDER, ConeFlag.CONSIDER])
    wflags = dict(walls_running)
    del wflags[key]
    # the side walls of the two destroyed cones may now lead to new fans
    # even if an earlier step passed them over
    for ci in (i1, i2):
        for pair in _face_pairs(fan.cones[ci]):
            if pair != key and wflags[pair] is ConeFlag.IGNORE:
                wflags[pair] = ConeFlag.ALWAYS_CONSIDER
    p = next(x for x in fan.cones[i1] if x not in key)
    q = next(x for x in fan.cones[i2] if x not in key)
    new_keys = tuple(sorted((x, s) for x in (p, q) + key))
    for nk in new_keys:
        wflags[nk] = ConeFlag.CONSIDER
    worder = tuple(w for w in node.wall_order if w != key) + new_keys
    return SearchNode(child_fan, node.depth + 1, node.path + (("wall", key),),
                      tuple(flags), worder, wflags)


def enumerate_blowups(node, max_cones, pruned=True):
    """Children of one node, left to right.

    pruned=False expands every cone and (in dimension 3) every wall, which
    revisits fans many times; it exists as the correctness oracle for the
    flag discipline.
    """
    fan = node.fan
    k = len(fan.cones)
    if k + (1 if fan.d == 2 else 2) > max_cones:
        return
    cones_running = list(node.cone_flags)
    walls_running = dict(node.wall_flags)
    for i in range(k):
        if not pruned or cones_running[i] in _EXPAND:
            yield _cone_child(node, i, cones_running, walls_running)
            cones_running[i] = ConeFlag.IGNORE
    if fan.d == 3:
        for key in node.wall_order:
            if not pruned or walls_running[key] in _EXPAND:
                yield _wall_child(node, key, cones_running, walls_running)
                if walls_running[key] is not ConeFlag.ALWAYS_CONSIDER:
                    walls_running[key] = ConeFlag.IGNORE
    return


def walk_tree(root, max_cones, pruned=True):
    """Pre-order walk of the blow-up tree.

    root may be a Fan or a prepared SearchNode.
    """
    node = root if isinstance(root, SearchNode) else make_root(root)
    stack = [node]
    while stack:
        node = stack.pop()
        yield node
        children = list(enumerate_blowups(node, max_cones, pruned))
        stack.extend(reversed(children))


def trace_line(node):
    """One stable text line per node for --trace-tree output."""
    if not node.path:
        step = "root"
    else:
        kind, t = node.path[-1]
        step = "cone:%d" % t if kind == "cone" else "wall:%d-%d" % t
    return "%d\t%d\t%s" % (node.depth, len(node.fan.cones), step)


def count_polygon_tree(start_cones, max_cones, pruned=True):
    """Node count of the dimension-2 blow-up tree, by its recurrence.

    The pruned tree below a node with k cones, of which the last k - c are
    still expandable, has size t(k, c) = 1 + sum_{i=c}^{k-1} t(k+1, i);
    blowing up position i leaves positions >= i expandable in the child.
    Unpruned every position is expandable: u(k) = 1 + k u(k+1).  Nodes at
    max_cones count but are not expanded.  The geometric walk reproduces
    these numbers node for node (see the tests); the recurrence is just
    cheaper when the tree has tens of millions of nodes.
    """
    if start_cones > max_cones:
        return 0

    @lru_cache(maxsize=None)
    def t(k, c):
        if k >= max_cones:
            return 1
        return 1 + sum(t(k + 1, i) for i in range(c, k))

    @lru_cache(maxsize=None)
    def u(k):
        if k >= max_cones:
            return 1
        return 1 + k * u(k + 1)

    return t(start_cones, 0) if pruned else u(start_cones)


def instantiate_all(fan):
    """(assignment, concrete fan) for every point of the parameter box.

    Parameter-free fans yield themselves once.  Combinations where a ray
    degenerates (vanishes or collides with another) do not correspond to a
    fan of this combinatorial type and are skipped.
    """
    if not isinstance(fan, ParamFan) or not fan.bounds:
        return [({}, fan)]
    names, axes = parameter_axes(fan)
    return instantiate_each(fan, (dict(zip(names, combo))
                                  for combo in itertools.product(*axes)))


def parameter_axes(fan):
    """Sorted parameter names, and per name its allowed values ascending.

    The box of assignments is the product of these axes, taken in
    itertools.product order (equivalently, row-major over the axes).
    """
    names = sorted(fan.bounds)
    axes = []
    for n in names:
        lo, hi = fan.bounds[n]
        bad = fan.excluded.get(n, frozenset())
        axes.append([v for v in range(lo, hi + 1) if v not in bad])
    return names, axes


def instantiate_each(fan, assignments):
    """(assignment, concrete fan) for each assignment, in the given order.

    Assignments where a ray degenerates (vanishes or collides with another)
    do not give a fan of this combinatorial type and are skipped.
    """
    out = []
    for assignment in assignments:
        try:
            out.append((assignment, instantiate(fan, assignment)))
        except DegenerateRay:
            continue
    return out


# ---------------------------------------------------------------------------
# the smooth-polygon criterion for pruning seed fans in dimension 3

def degree_profile(fan):
    """How many rays lie in 3, 4, 5, ... maximal cones."""
    degree = {}
    for cone in fan.cones:
        for i in cone:
            degree[i] = degree.get(i, 0) + 1
    profile = {}
    for d in degree.values():
        profile[d] = profile.get(d, 0) + 1
    return profile


@dataclass(frozen=True)
class PolygonStats:
    """Per vertex count k, the minima over smooth polygons with at most
    max_points lattice points and exactly k vertices: (lattice points,
    interior points, boundary points).  Absent k means no such polygon."""
    max_points: int
    table: dict

    def get(self, k):
        return self.table.get(k)


def polygon_stats(counts, max_points):
    """Fold (vertices, points, interior, boundary) tuples into PolygonStats."""
    table = {}
    for k, pts, inner, bnd in counts:
        cur = table.get(k)
        if cur is None:
            table[k] = (pts, inner, bnd)
        else:
            table[k] = (min(cur[0], pts), min(cur[1], inner), min(cur[2], bnd))
    return PolygonStats(max_points, dict(sorted(table.items())))


@dataclass(frozen=True)
class CriterionResult:
    bound: object          # int, or None when some needed polygon is absent
    passes: bool
    missing_degree: object


def polygon_criterion(profile, stats):
    """Least lattice-point count compatible with a 3-fan degree profile.

    Any smooth 3-polytope whose normal fan refines a fan with this profile
    has, for each ray r of degree k_r, a facet with >= k_r vertices; facets
    meet the bound through the polygon minima: the polytope has at least
    one lattice point per maximal cone (its vertices), the largest facet
    contributes at least b(k) - k extra boundary points, and every facet
    contributes its interior points.  If some degree has no polygon at all
    within max_points the profile is impossible outright.
    """
    num_cones = 2 * sum(profile.values()) - 4
    for k in sorted(profile):
        if stats.get(k) is None:
            return CriterionResult(None, False, k)
    k_max = max(profile)
    bound = num_cones + (stats.get(k_max)[2] - k_max)
    for k, mult in profile.items():
        bound += mult * stats.get(k)[1]
    return CriterionResult(bound, bound <= stats.max_points, None)


__all__ = [
    "ConeFlag", "SearchNode", "make_root", "propagate_bounds",
    "enumerate_blowups", "walk_tree", "trace_line",
    "count_polygon_tree", "instantiate_all", "parameter_axes",
    "instantiate_each",
    "degree_profile", "PolygonStats", "polygon_stats",
    "CriterionResult", "polygon_criterion",
]

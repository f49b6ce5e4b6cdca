"""Blow-up tree enumeration over smooth complete fans.

Every smooth complete fan with at most max_cones maximal cones arises from
one of the seed fans by a sequence of equivariant blow-ups, so the search
space is a tree: nodes are fans, children are single blow-ups.  Walking it
naively revisits the same fan once per ordering of commuting blow-ups; the
flag discipline below kills those repeats while keeping every fan reachable.
The walk and the flags need only which rays span which cones, so a node
holds its cones as ray-index tuples and builds its Fan when one is read.

Dimension 2 is the classical picture (subdivide one cone at a time) and the
ordering rule collapses to "never expand a cone position left of the last
one expanded"; pipeline walks it as plain tuples, checked against the node
walk here.  Dimension 3 adds wall blow-ups, which do not commute with
their neighbours the way cone blow-ups do, so walls carry four flag states:
a wall that was passed over becomes expandable again (ALWAYS_CONSIDER) when
a later wall blow-up touches the cones beside it, and the three old face
walls of a blown-up cone never need expanding again (ALWAYS_IGNORE).

Most nodes sit at the cone cap and are never expanded, so only a node the
walk will expand carries flags; a leaf holds its cones and path alone.  An
expandable 3D node also carries each wall's two cone positions, updated
locally from its parent's (k is the parent's cone count, s the new ray):
  - cone (a, b, c) at i: walls a-c and b-c move from i to k and k + 1;
    new walls a-s, b-s, c-s lie in (i, k), (i, k + 1), (k, k + 1);
  - wall (n1, n2) in cones i1 < i2 with opposite rays p, q: the wall goes,
    p-n2 and q-n2 move from i1 to k and from i2 to k + 1; new walls n1-s,
    n2-s, p-s, q-s lie in (i1, i2), (k, k + 1), (i1, k), (i2, k + 1).
"""

import enum
import itertools
from dataclasses import dataclass
from functools import lru_cache

from .exact_linalg import normalize_primitive, vec_add
from .fans import (
    DegenerateRay,
    Fan,
    blow_up,  # unused: kept for perfbench/traced.py to wrap
    expr_value,
    instantiate,
    is_numeric_vector,
    walls_of,
)


class ConeFlag(enum.Enum):
    ALWAYS_IGNORE = "always_ignore"
    IGNORE = "ignore"
    CONSIDER = "consider"
    ALWAYS_CONSIDER = "always_consider"


# plain names for the walk's inner loops: attribute lookups on an Enum
# class cost several times a global lookup
_ALWAYS_IGNORE = ConeFlag.ALWAYS_IGNORE
_IGNORE = ConeFlag.IGNORE
_CONSIDER = ConeFlag.CONSIDER
_ALWAYS_CONSIDER = ConeFlag.ALWAYS_CONSIDER
_EXPAND = (_CONSIDER, _ALWAYS_CONSIDER)


class SearchNode:
    """One fan in the blow-up tree, held combinatorially, plus the flags.

    cones are the maximal cones as sorted ray-index tuples, in the
    positions fans.blow_up gives them, and num_rays counts the seed's rays
    plus one new ray per blow-up: the walk and its ordering rule read
    nothing else.  path records the blow-ups from the seed: ("cone",
    position) or ("wall", key) steps.  blown_up holds the ray indices each
    step blew up, so the j-th new ray is the sum of the rays blown_up[j]
    names.

    Only a node the walk will expand carries the bookkeeping for its
    children; at a leaf (a node the cone cap stops) cone_flags, wall_flags
    and wall_cones are None.  cone_flags is aligned with cones.  wall_flags
    maps wall keys (sorted ray-index pairs) to flags, and its insertion
    order is the walls' stable iteration order: survivors keep their
    relative order across a blow-up, new walls are appended sorted.
    wall_cones maps the same keys to the positions (i1, i2), i1 < i2, of
    the wall's two cones, as fans.walls_of gives them in Wall.incident.
    In dimension 2 both wall maps are empty.

    fan is the Fan itself, built from seed_fan, blown_up and path on first
    read and then kept on the node.  A node refers to its seed fan, never
    to its parent.
    """

    __slots__ = ("seed_fan", "cones", "num_rays", "path", "blown_up",
                 "cone_flags", "wall_flags", "wall_cones", "_fan")

    def __init__(self, seed_fan, cones, num_rays, path, blown_up,
                 cone_flags=None, wall_flags=None, wall_cones=None):
        self.seed_fan = seed_fan
        self.cones = cones
        self.num_rays = num_rays
        self.path = path
        self.blown_up = blown_up
        self.cone_flags = cone_flags
        self.wall_flags = wall_flags
        self.wall_cones = wall_cones
        self._fan = None

    @property
    def fan(self):
        if self._fan is None:
            self._fan = _build_fan(self)
        return self._fan


def _build_fan(node):
    """The node's fan: each new ray is the sum of the rays it blew up.

    As in fans.blow_up, a sum with no parameter left is normalized to a
    primitive integer vector, and the seed's parameter box passes through
    propagate_bounds once per step (an empty box stays empty).
    """
    seed = node.seed_fan
    rays = list(seed.rays)
    for target in node.blown_up:
        new_ray = rays[target[0]]
        for i in target[1:]:
            new_ray = vec_add(new_ray, rays[i])
        if is_numeric_vector(new_ray):
            new_ray, _ = normalize_primitive(
                tuple(expr_value(a) for a in new_ray))
        rays.append(new_ray)
    bounds = seed.bounds
    for kind, _ in node.path:
        bounds = propagate_bounds(bounds, kind)
    return Fan(rays, node.cones, seed.d, bounds, seed.excluded)


def make_root(fan):
    cone_flags = tuple(_CONSIDER for _ in fan.cones)
    if fan.d == 3:
        walls = walls_of(fan)
        wall_flags = {w.ray_indices: _CONSIDER for w in walls}
        wall_cones = {w.ray_indices: w.incident for w in walls}
    else:
        wall_flags, wall_cones = {}, {}
    node = SearchNode(fan, fan.cones, len(fan.rays), (), (), cone_flags,
                      wall_flags, wall_cones)
    node._fan = fan
    return node


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


def _cone_child(node, i, cones_running, walls_running, leaf):
    """Blow up the cone at position i (fans.blow_up's first index rule).

    With new ray s, the child cone missing the target's last ray replaces
    position i and the others follow at the end, last-but-one first.  s
    exceeds every old index, so appending it keeps each child sorted.  A
    leaf child gets no flags.
    """
    cones = node.cones
    target = cones[i]
    s = node.num_rays
    d = len(target)
    children = [target[:j] + target[j + 1:] + (s,)
                for j in range(d - 1, -1, -1)]
    child_cones = (cones[:i] + (children[0],) + cones[i + 1:]
                   + tuple(children[1:]))
    path = node.path + (("cone", i),)
    blown_up = node.blown_up + (target,)
    if leaf:
        return SearchNode(node.seed_fan, child_cones, s + 1, path, blown_up)
    flags = list(cones_running)
    flags[i] = _CONSIDER
    flags.extend([_CONSIDER] * (d - 1))
    if d == 3:
        wflags = dict(walls_running)
        # the blown-up cone's own faces never need expanding again
        a, b, c = target
        for pair in ((a, b), (a, c), (b, c)):
            wflags[pair] = _ALWAYS_IGNORE
        for x in target:            # appended sorted: dict order is wall order
            wflags[(x, s)] = _CONSIDER
        # {a,b,s} stays at i, {a,c,s} and {b,c,s} go to k and k + 1
        k = len(cones)
        wcones = dict(node.wall_cones)
        wcones[(a, c)] = _moved(wcones[(a, c)], i, k)
        wcones[(b, c)] = _moved(wcones[(b, c)], i, k + 1)
        wcones[(a, s)] = (i, k)
        wcones[(b, s)] = (i, k + 1)
        wcones[(c, s)] = (k, k + 1)
    else:
        wflags, wcones = {}, {}
    return SearchNode(node.seed_fan, child_cones, s + 1, path, blown_up,
                      tuple(flags), wflags, wcones)


def _wall_child(node, key, cones_running, walls_running, leaf):
    """Blow up the wall key = (n1, n2) (fans.blow_up's second index rule).

    The incident cones i1 < i2 have opposite rays p and q; with new ray s,
    {p,n1,s} replaces i1, {q,n1,s} replaces i2, and {p,n2,s}, {q,n2,s}
    follow at the end.  A leaf child gets no flags.
    """
    cones = node.cones
    s = node.num_rays
    n1, n2 = key
    i1, i2 = node.wall_cones[key]
    p = sum(cones[i1]) - n1 - n2
    q = sum(cones[i2]) - n1 - n2
    # n1 < n2 < s, so only p and q need placing
    pn1 = (p, n1) if p < n1 else (n1, p)
    qn1 = (q, n1) if q < n1 else (n1, q)
    pn2 = (p, n2) if p < n2 else (n2, p)
    qn2 = (q, n2) if q < n2 else (n2, q)
    child_cones = list(cones)
    child_cones[i1] = pn1 + (s,)
    child_cones[i2] = qn1 + (s,)
    child_cones.append(pn2 + (s,))
    child_cones.append(qn2 + (s,))
    path = node.path + (("wall", key),)
    blown_up = node.blown_up + (key,)
    if leaf:
        return SearchNode(node.seed_fan, tuple(child_cones), s + 1, path,
                          blown_up)
    flags = list(cones_running)
    flags[i1] = _CONSIDER
    flags[i2] = _CONSIDER
    flags.extend([_CONSIDER, _CONSIDER])
    wflags = dict(walls_running)
    del wflags[key]
    # the side walls of the two destroyed cones may now lead to new fans
    # even if an earlier step passed them over
    for side in (pn1, pn2, qn1, qn2):
        if wflags[side] is _IGNORE:
            wflags[side] = _ALWAYS_CONSIDER
    for x in sorted((p, q, n1, n2)):
        wflags[(x, s)] = _CONSIDER
    # {p,n2,s} and {q,n2,s} at k and k + 1 take the walls p-n2 and q-n2
    k = len(cones)
    wcones = dict(node.wall_cones)
    del wcones[key]
    wcones[pn2] = _moved(wcones[pn2], i1, k)
    wcones[qn2] = _moved(wcones[qn2], i2, k + 1)
    wcones[(n1, s)] = (i1, i2)
    wcones[(n2, s)] = (k, k + 1)
    wcones[(p, s)] = (i1, k)
    wcones[(q, s)] = (i2, k + 1)
    return SearchNode(node.seed_fan, tuple(child_cones), s + 1, path,
                      blown_up, tuple(flags), wflags, wcones)


def _moved(incident, old, new):
    """A wall's cone positions after its cone at old moves to new, where
    new exceeds every position in use."""
    x, y = incident
    return (y if x == old else x, new)


def enumerate_blowups(node, max_cones, pruned=True):
    """Children of one node, left to right.

    pruned=False expands every cone and (in dimension 3) every wall, which
    revisits fans many times; it exists as the correctness oracle for the
    flag discipline.  Children that max_cones will stop are built as leaves,
    without flags, so a leaf raises ValueError under a higher cap.
    """
    d = node.seed_fan.d
    step = 1 if d == 2 else 2       # cones added by one blow-up
    k = len(node.cones)
    if k + step > max_cones:
        return
    if node.cone_flags is None:
        raise ValueError("node %r was built as a leaf under a lower cone "
                         "cap and carries no flags to expand it; walk from "
                         "its seed instead" % (node.path,))
    leaf = k + 2 * step > max_cones
    cones_running = list(node.cone_flags)
    walls_running = dict(node.wall_flags)
    for i in range(k):
        if not pruned or cones_running[i] in _EXPAND:
            yield _cone_child(node, i, cones_running, walls_running, leaf)
            cones_running[i] = _IGNORE
    if d == 3:
        for key in node.wall_flags:
            if not pruned or walls_running[key] in _EXPAND:
                yield _wall_child(node, key, cones_running, walls_running,
                                  leaf)
                if walls_running[key] is not _ALWAYS_CONSIDER:
                    walls_running[key] = _IGNORE
    return


def walk_tree(root, max_cones, pruned=True):
    """Pre-order walk of the blow-up tree.

    root may be a Fan or a prepared SearchNode.  Children that the cone cap
    makes leaves are yielded right after their parent: nothing lies below
    them, so pre-order is kept without a stack entry or an
    enumerate_blowups call per leaf.
    """
    node = root if isinstance(root, SearchNode) else make_root(root)
    step = 1 if node.seed_fan.d == 2 else 2     # cones added by one blow-up
    stack = [node]
    while stack:
        node = stack.pop()
        yield node
        children = list(enumerate_blowups(node, max_cones, pruned))
        if len(node.cones) + 2 * step > max_cones:
            yield from children
        else:
            stack.extend(reversed(children))


def trace_line(node):
    """One stable text line per node for --trace-tree output."""
    return format_trace_line(len(node.cones), node.path)


def format_trace_line(num_cones, path):
    """trace_line from the fields it reads, for walks without nodes: the
    depth is the length of the path."""
    if not path:
        step = "root"
    else:
        kind, t = path[-1]
        step = "cone:%d" % t if kind == "cone" else "wall:%d-%d" % t
    return "%d\t%d\t%s" % (len(path), num_cones, step)


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

    A concrete fan has the one-point box () and yields ({}, a fan equal to
    it) once.  Combinations where a ray degenerates (vanishes or collides
    with another) do not correspond to a fan of this combinatorial type and
    are skipped.
    """
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
    """How many rays lie in 3, 4, 5, ... maximal cones.

    Reads only fan.cones, so a SearchNode serves as well as a Fan.
    """
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
    "enumerate_blowups", "walk_tree", "trace_line", "format_trace_line",
    "count_polygon_tree", "instantiate_all", "parameter_axes",
    "instantiate_each",
    "degree_profile", "PolygonStats", "polygon_stats",
    "CriterionResult", "polygon_criterion",
]

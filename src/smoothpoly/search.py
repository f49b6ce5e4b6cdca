"""Blow-up tree enumeration over smooth complete fans.

Every smooth complete fan with at most max_cones maximal cones arises from
one of the seed fans by a sequence of equivariant blow-ups, so the search
space is a tree: nodes are fans, children are single blow-ups.  Walking it
naively revisits the same fan once per ordering of commuting blow-ups; the
flag discipline below kills those repeats while keeping every fan reachable.
The walk and the flags need only which rays span which cones, so a node
holds its cones as ray-index tuples and builds its Fan when one is read.

The node walk here is for dimension 3.  Dimension 2 is the classical
picture (subdivide one cone at a time) and the ordering rule collapses to
"never expand a cone position left of the last one expanded", so
pipeline walks it as plain tuples and count_polygon_tree counts it; the
tests check both against a fans.blow_up replay.  Dimension 3 adds wall
blow-ups, which do not commute with their neighbours the way cone
blow-ups do, so walls carry four flag states:
a wall that was passed over becomes expandable again (ALWAYS_CONSIDER) when
a later wall blow-up touches the cones beside it, and the three old face
walls of a blown-up cone never need expanding again (ALWAYS_IGNORE).

Most nodes sit at the cone cap and are never expanded (369152 of the
393669 nodes of the 3^4 tree to 14 cones), and most of the rest are leaf
parents, whose children all sit there (22838 more).  So only the nodes
above the leaf parents carry flags.  A leaf parent holds just the steps
of its children, read off its parent's running flags when the parent is
expanded, and a leaf is the pair (leaf parent, step), made in C; either
derives its cones, path and blow-ups when read, so a leaf nobody reads
costs one small tuple.  The walk reads a node's cone count off its ray
count (max_ray_degree's Euler count), not off its cones.  Each
non-root node derives, when first read, each wall's two cone positions
from its parent's, updated locally (k is the parent's cone count, s the
new ray):
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
from operator import itemgetter

from . import InvariantError
from .fans import (
    Fan,
    blow_up,  # unused: kept for perfbench/traced.py to wrap
    blow_up_ray,
    instantiate,
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


class SearchNode:
    """One fan in the blow-up tree, held combinatorially: a root, or a node
    the walk expands.

    A root holds its seed fan and that fan's cones.  Any other node holds
    its parent and its step, ("cone", position) or ("wall", key), and
    derives the rest from them the first time it is read: cones through
    _child_cones, then kept on the node; path, the parent's path plus the
    step, also kept; blown_up, the parent's plus the step's target (the
    parent's cone at that position, or the wall key).  seed_fan and
    num_rays are stored on every node, since the walk's consumers read
    them at every node.

    cones are the maximal cones as sorted ray-index tuples, in the
    positions fans.blow_up gives them, and num_rays counts the seed's rays
    plus one new ray per blow-up: the walk and its ordering rule read
    nothing else.  path records the blow-ups from the seed.  blown_up
    holds the ray indices each step blew up, so the j-th new ray is the
    sum of the rays blown_up[j] names.

    A node whose grandchildren the walk expands carries flags: cone_flags
    is aligned with cones, and wall_flags maps wall keys (sorted ray-index
    pairs) to flags; its insertion order is the walls' stable iteration
    order: survivors keep their relative order across a blow-up, new walls
    are appended sorted.  A leaf parent, a node whose children all sit at
    the cone cap, carries none (both are None): child_steps lists its
    children's steps, in sibling order, under the pruned setting of the
    walk that made it.  wall_cones maps the same wall keys to the
    positions (i1, i2), i1 < i2, of the wall's two cones, as fans.walls_of
    gives them in Wall.incident; a non-root node derives it from its
    parent's and its step (_child_wall_cones) on first read and keeps it.
    The nodes at the cone cap are _Leaf pairs, not SearchNodes.

    fan is the Fan itself, built from seed_fan, blown_up and path on first
    read and then kept on the node.  A node keeps its ancestors alive: at
    most one path, of depth at most (cap - seed cones) / 2.
    """

    __slots__ = ("parent", "step", "seed_fan", "num_rays", "_cones",
                 "_path", "cone_flags", "wall_flags", "_wall_cones",
                 "child_steps", "_fan")

    def __init__(self, parent, step):
        self.parent = parent
        self.step = step
        self.seed_fan = parent.seed_fan
        self.num_rays = parent.num_rays + 1
        self._cones = self._path = self._fan = self._wall_cones = None
        self.cone_flags = self.wall_flags = self.child_steps = None

    @property
    def cones(self):
        cones = self._cones
        if cones is None:
            cones = self._cones = _child_cones(self.parent, self.step)
        return cones

    @property
    def path(self):
        path = self._path
        if path is None:
            path = self._path = self.parent.path + (self.step,)
        return path

    @property
    def blown_up(self):
        parent = self.parent
        if parent is None:
            return ()
        kind, t = self.step
        return parent.blown_up + ((parent.cones[t] if kind == "cone"
                                   else t),)

    @property
    def wall_cones(self):
        wall_cones = self._wall_cones
        if wall_cones is None:
            wall_cones = self._wall_cones = _child_wall_cones(self.parent,
                                                              self.step)
        return wall_cones

    @property
    def fan(self):
        if self._fan is None:
            self._fan = _build_fan(self)
        return self._fan


class _Leaf(tuple):
    """A node at the cone cap: the pair (parent, step), nothing more.

    It reads like a SearchNode (parent, step, seed_fan, num_rays, cones,
    path, blown_up, fan), but derives each of these from its parent on
    every read and keeps none, and it has no flags, child steps or wall
    cones (all None): the walk never expands it.
    """

    __slots__ = ()
    cone_flags = wall_flags = wall_cones = child_steps = None
    parent = property(itemgetter(0))
    step = property(itemgetter(1))
    blown_up = SearchNode.blown_up

    @property
    def seed_fan(self):
        return self[0].seed_fan

    @property
    def num_rays(self):
        return self[0].num_rays + 1

    @property
    def cones(self):
        return _child_cones(*self)

    @property
    def path(self):
        return self[0].path + (self[1],)

    @property
    def fan(self):
        return _build_fan(self)


def _build_fan(node):
    """The node's fan: each new ray is the one fans.blow_up_ray gives for
    the rays it blew up.

    The seed's parameter box is widened by one on each side per cone step
    of the path (an empty box stays empty).
    """
    seed = node.seed_fan
    rays = list(seed.rays)
    for target in node.blown_up:
        rays.append(blow_up_ray(rays, target))
    # the child family of a cone blow-up can be isomorphic to a sibling at
    # a parameter value shifted by at most one; a wall blow-up shifts none
    widen = sum(kind == "cone" for kind, _ in node.path)
    bounds = {n: (lo - widen, hi + widen)
              for n, (lo, hi) in seed.bounds.items()}
    return Fan(rays, node.cones, bounds, seed.excluded)


def make_root(fan):
    """The root node of fan's tree: it has no parent to derive from, so it
    holds the fan, its cones and its flags, all expandable.

    The walk takes 3-fans and reads cone counts off ray counts
    (_num_cones), so a fan of another dimension raises ValueError, and so
    does one with another cone count than a complete 3-fan (a complete
    2-fan with 4 rays has 2R - 4 = 4 cones, so both tests are needed).
    """
    if fan.d != 3:
        raise ValueError("the node walk takes 3-fans, not a %d-fan; "
                         "pipeline walks 2D trees and count_polygon_tree "
                         "counts them" % fan.d)
    node = SearchNode.__new__(SearchNode)
    node.parent = node.step = node.child_steps = None
    node.seed_fan = node._fan = fan
    node.num_rays = len(fan.rays)
    node._cones = fan.cones
    if _num_cones(node) != len(fan.cones):
        raise ValueError("a fan with %d rays and %d cones is not complete"
                         % (len(fan.rays), len(fan.cones)))
    node._path = ()
    node.cone_flags = tuple(_CONSIDER for _ in fan.cones)
    walls = walls_of(fan)
    node.wall_flags = {w.ray_indices: _CONSIDER for w in walls}
    node._wall_cones = {w.ray_indices: w.incident for w in walls}
    return node


def _num_cones(node):
    """node's cone count, read off its ray count: a complete 3-fan, as
    every seed and so every node is, has 2R - 4 cones with R rays (Euler,
    as in max_ray_degree)."""
    return 2 * node.num_rays - 4


def _across(node, wall):
    """(i1, i2, p, q): the positions i1 < i2 of the two cones of node on
    either side of wall, and their rays off it."""
    n1, n2 = wall
    i1, i2 = node.wall_cones[wall]
    cones = node.cones
    return i1, i2, sum(cones[i1]) - n1 - n2, sum(cones[i2]) - n1 - n2


def _pair(x, y):
    """The wall key of rays x and y."""
    return (x, y) if x < y else (y, x)


def _child_cones(node, step):
    """The cones of node's child by step, in fans.blow_up's positions.

    The new ray's index is node.num_rays, which exceeds every old index.
    A wall step reads the wall's two cone positions off node.wall_cones.
    """
    cones = node.cones
    s = node.num_rays
    kind, t = step
    if kind == "cone":
        # fans.blow_up's first index rule: the child cone missing the
        # target's last ray replaces position t, the others follow at the
        # end, last-but-one first
        a, b, c = cones[t]
        return (cones[:t] + ((a, b, s),) + cones[t + 1:]
                + ((a, c, s), (b, c, s)))
    # fans.blow_up's second index rule: the incident cones i1 < i2 have
    # opposite rays p and q; {p,n1,s} replaces i1, {q,n1,s} replaces i2,
    # and {p,n2,s}, {q,n2,s} follow at the end; n1 < n2 < s, so only p and
    # q need placing
    n1, n2 = t
    i1, i2, p, q = _across(node, t)
    child_cones = [*cones, (p, n2, s) if p < n2 else (n2, p, s),
                   (q, n2, s) if q < n2 else (n2, q, s)]
    child_cones[i1] = (p, n1, s) if p < n1 else (n1, p, s)
    child_cones[i2] = (q, n1, s) if q < n1 else (n1, q, s)
    return tuple(child_cones)


def _child_wall_cones(node, step):
    """The wall cones of node's child by step: node's, updated by the
    local rules of the module docstring."""
    cones = node.cones
    k = len(cones)
    s = node.num_rays
    kind, t = step
    if kind == "cone":
        a, b, c = cones[t]
        # {a,b,s} stays at t, {a,c,s} and {b,c,s} go to k and k + 1
        wcones = dict(node.wall_cones)
        wcones[(a, c)] = _moved(wcones[(a, c)], t, k)
        wcones[(b, c)] = _moved(wcones[(b, c)], t, k + 1)
        wcones[(a, s)] = (t, k)
        wcones[(b, s)] = (t, k + 1)
        wcones[(c, s)] = (k, k + 1)
        return wcones
    n1, n2 = t
    i1, i2, p, q = _across(node, t)
    pn2, qn2 = _pair(p, n2), _pair(q, n2)
    # {p,n2,s} and {q,n2,s} at k and k + 1 take the walls p-n2 and q-n2
    wcones = dict(node.wall_cones)
    del wcones[t]
    wcones[pn2] = _moved(wcones[pn2], i1, k)
    wcones[qn2] = _moved(wcones[qn2], i2, k + 1)
    wcones[(n1, s)] = (i1, i2)
    wcones[(n2, s)] = (k, k + 1)
    wcones[(p, s)] = (i1, k)
    wcones[(q, s)] = (i2, k + 1)
    return wcones


def _moved(incident, old, new):
    """A wall's cone positions after its cone at old moves to new, where
    new exceeds every position in use."""
    x, y = incident
    return (y if x == old else x, new)


def enumerate_blowups(node, max_cones, pruned=True):
    """Iterator over the children of one node, left to right.

    Cone blow-ups come first, by position, then wall blow-ups in wall
    order.  pruned=False expands every cone and every wall, which revisits
    fans many times; it exists as the correctness oracle for the flag
    discipline.

    Children that max_cones stops are _Leaf pairs, made in C from the
    steps a leaf parent holds or, at a node with flags, from its own
    flags.  Otherwise the children are SearchNodes, each the node plus its
    step, made from the node's own flags into a list the iterator runs
    over; then each child, in order, is given its flags (_flag_child) or,
    when its own children will be leaves, only their steps
    (_child_steps), from the node's flags after the earlier children were
    passed over.  A leaf, or a leaf parent under a cap at which its
    children would be expanded, has no flags to go on and raises
    ValueError.
    """
    k = _num_cones(node)
    if k + 2 > max_cones:               # a blow-up adds two cones
        return iter(())
    if k + 4 > max_cones:
        steps = node.child_steps
        if steps is None:
            steps = _flagged_steps(node, pruned)
        return map(_Leaf, zip(itertools.repeat(node), steps))
    children = [SearchNode(node, s) for s in _flagged_steps(node, pruned)]
    cones_running = list(node.cone_flags)
    walls_running = dict(node.wall_flags)
    last = k + 6 > max_cones            # the children are leaf parents
    for child in children:
        if last:
            child.child_steps = _child_steps(node, child.step, cones_running,
                                             walls_running, pruned)
        else:
            _flag_child(node, child, cones_running, walls_running)
        kind, t = child.step
        if kind == "cone":
            cones_running[t] = _IGNORE
        elif walls_running[t] is not _ALWAYS_CONSIDER:
            walls_running[t] = _IGNORE
    return iter(children)


def _flagged_steps(node, pruned):
    """The steps of node's children, read off its own flags.

    A position is tested before the running flags of later siblings
    could flip it, so the node's own flags decide.  The explicit raise
    holds under python -O as well.
    """
    cone_flags = node.cone_flags
    if cone_flags is None:
        raise ValueError("node %r was built as a leaf or a leaf parent "
                         "under a lower cone cap and carries no flags to "
                         "expand it; walk from its seed instead"
                         % (node.path,))
    return _steps(cone_flags, node.wall_flags, pruned)


def _steps(cone_flags, wall_flags, pruned):
    """The steps of the children of a node with these flags."""
    if not pruned:
        return ([("cone", i) for i in range(len(cone_flags))]
                + [("wall", key) for key in wall_flags])
    # two identity tests: `in (_CONSIDER, _ALWAYS_CONSIDER)` would make a
    # failing rich comparison per flag that is neither
    return ([("cone", i) for i, flag in enumerate(cone_flags)
             if flag is _CONSIDER or flag is _ALWAYS_CONSIDER]
            + [("wall", key) for key, flag in wall_flags.items()
               if flag is _CONSIDER or flag is _ALWAYS_CONSIDER])


def _child_flags(node, step, cones_running, walls_running):
    """The flags of node's child by step, a list and a dict.

    cones_running and walls_running are node's flags after the child's
    earlier siblings were passed over; the step changes a few of them and
    appends the flags of the new cones and walls.
    """
    kind, t = step
    s = node.num_rays
    flags = list(cones_running)
    wflags = dict(walls_running)
    if kind == "cone":
        a, b, c = target = node.cones[t]
        flags[t] = _CONSIDER
        flags.extend([_CONSIDER, _CONSIDER])
        # the blown-up cone's own faces never need expanding again
        for pair in ((a, b), (a, c), (b, c)):
            wflags[pair] = _ALWAYS_IGNORE
        for x in target:            # appended sorted: dict order is wall order
            wflags[(x, s)] = _CONSIDER
        return flags, wflags
    n1, n2 = t
    i1, i2, p, q = _across(node, t)
    flags[i1] = _CONSIDER
    flags[i2] = _CONSIDER
    flags.extend([_CONSIDER, _CONSIDER])
    del wflags[t]
    # the side walls of the two destroyed cones may now lead to new fans
    # even if an earlier step passed them over
    for side in (_pair(p, n1), _pair(p, n2), _pair(q, n1), _pair(q, n2)):
        if wflags[side] is _IGNORE:
            wflags[side] = _ALWAYS_CONSIDER
    for x in sorted((p, q, n1, n2)):
        wflags[(x, s)] = _CONSIDER
    return flags, wflags


def _flag_child(node, child, cones_running, walls_running):
    """Give a child whose children the walk will expand its flags."""
    flags, child.wall_flags = _child_flags(node, child.step, cones_running,
                                           walls_running)
    child.cone_flags = tuple(flags)


def _child_steps(node, step, cones_running, walls_running, pruned):
    """The steps of the children of node's child by step, read off the
    flags _child_flags gives the child, which are then dropped."""
    return _steps(*_child_flags(node, step, cones_running, walls_running),
                  pruned)


def walk_tree(root, max_cones, pruned=True):
    """Pre-order walk of the blow-up tree.

    root may be a Fan, or a node of an earlier walk.  Children that the
    cone cap makes leaves are yielded straight from enumerate_blowups
    right after their parent: nothing lies below them, so pre-order is
    kept without a stack entry or an enumerate_blowups call per leaf.  The
    children of any other node go on the stack, last child first.  Whether
    a node's children are leaves is read off its ray count (_num_cones),
    so counting the tree derives no cones of a leaf or a leaf parent.
    Every node is yielded, but a leaf builds its cones, path and fan only
    if its consumer reads them, and again on every read.
    """
    node = root if isinstance(root, (SearchNode, _Leaf)) else make_root(root)
    stack = [node]
    while stack:
        node = stack.pop()
        yield node
        children = enumerate_blowups(node, max_cones, pruned)
        if _num_cones(node) + 4 > max_cones:    # the children are leaves
            yield from children
        else:
            stack.extend(reversed(list(children)))


def trace_line(node):
    """One stable text line per node for --trace-tree output."""
    return format_trace_line(_num_cones(node), node.path)


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
    max_cones count but are not expanded.  This is the one count of a 2D
    tree: the tests replay the tree by fans.blow_up with the flag
    discipline and get these numbers node for node, and pipeline's 2D
    walk expands the same positions.
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
    it) once.  A point where a ray vanishes or collides with another is no
    fan of this combinatorial type and raises DegenerateRay (instantiate);
    the 2D roots F_p and F_a, a != 1, have none.
    """
    names, axes = parameter_axes(fan)
    out = []
    for combo in itertools.product(*axes):
        assignment = dict(zip(names, combo))
        out.append((assignment, instantiate(fan, assignment)))
    return out


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
    interior points, boundary points).  Absent k means no such polygon.

    A table from a walk capped at max_vertices rays covers k up to that
    count only, and get(k) past it raises InvariantError rather than
    answer "no such polygon"; None means every k is covered.
    """
    max_points: int
    table: dict
    max_vertices: object = None

    def get(self, k):
        if self.max_vertices is not None and k > self.max_vertices:
            raise InvariantError("polygon minima cover at most %d vertices, "
                                 "asked for %d" % (self.max_vertices, k))
        return self.table.get(k)


def polygon_stats(counts, max_points, max_vertices=None):
    """Fold (vertices, points, interior, boundary) tuples into PolygonStats.

    Counts past max_vertices are dropped: a capped walk still realizes its
    roots, and a root may have more rays than the cap.
    """
    table = {}
    for k, pts, inner, bnd in counts:
        if max_vertices is not None and k > max_vertices:
            continue
        cur = table.get(k)
        if cur is None:
            table[k] = (pts, inner, bnd)
        else:
            table[k] = (min(cur[0], pts), min(cur[1], inner), min(cur[2], bnd))
    return PolygonStats(max_points, dict(sorted(table.items())), max_vertices)


@dataclass(frozen=True)
class CriterionResult:
    bound: object          # int, or None when some needed polygon is absent
    passes: bool
    missing_degree: object


def polygon_criterion(profile, stats):
    """Least lattice-point count compatible with a 3-fan degree profile.

    Any smooth 3-polytope whose normal fan has this profile has, for each
    ray r of degree k_r, a facet with exactly k_r vertices; facets meet the
    bound through the polygon minima: the polytope has at least one
    lattice point per maximal cone (its vertices), the largest facet
    contributes at least b(k) - k extra boundary points, and every facet
    contributes its interior points.  If some degree has no polygon at all
    within max_points the profile is impossible outright.  The minima are
    per exact vertex count, so the bound holds for the fan itself, not for
    the fans that refine it; subtree_bound covers those.
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


def max_ray_degree(max_cones):
    """Largest ray degree in a complete simplicial 3-fan with at most
    max_cones maximal cones: max_cones // 2 + 1.

    Such a fan is a triangulated 2-sphere: with R rays it has C = 2R - 4
    cones (Euler), so R = C/2 + 2.  The cones around a ray r form a disc
    whose boundary is a cycle of deg r rays other than r, so deg r <= R - 1
    = C/2 + 1, and C is even, so C <= 2 (max_cones // 2).  The bound is
    met: a ray of degree 7 occurs in the N = 12 walk.
    """
    return max_cones // 2 + 1


def tail_minima(stats, max_degree):
    """The polygon minima over vertex counts k..max_degree, per k.

    Returns (inner, extra), lists indexed by k up to max_degree: inner[k]
    is the least interior count and extra[k] the least boundary count
    minus vertex count, over smooth polygons with k' vertices, k <= k' <=
    max_degree; None where there is none.  Both only grow with k.
    """
    inner = [None] * (max_degree + 1)
    extra = [None] * (max_degree + 1)
    low_i = low_b = None
    for k in range(max_degree, 2, -1):
        entry = stats.get(k)
        if entry is not None:
            _, i, b = entry
            low_i = i if low_i is None else min(low_i, i)
            low_b = b - k if low_b is None else min(low_b, b - k)
        inner[k], extra[k] = low_i, low_b
    return inner, extra


def subtree_bound(degrees, tails):
    """A lower bound on polygon_criterion's bound over a node's subtree.

    degrees are the node's ray degrees, sorted, and tails the tail_minima
    (inner, extra) up to the largest degree any node in the walk can reach
    (max_ray_degree of its cone cap).  The bound is
        DB = cones + sum_r inner[deg r] + extra[max deg],
    or None when no polygon has max deg to max_degree vertices, so that
    the node and every descendant have a ray with no polygon and fail.
    Proof that DB is at most the criterion bound of the node and of every
    descendant D.  A blow-up adds two cones and a ray and never lowers a
    ray's degree (a cone blow-up raises three degrees by one, a wall
    blow-up those of the two opposite rays).  No degree in D exceeds
    max_degree, so D's exact-k minima i(k) and b(k) - k are at least
    inner[k] and extra[k]; these only grow with k, so they are at least
    the node's terms for its own rays, and D's new rays add terms >= 0.
    """
    inner, extra = tails
    top = degrees[-1]
    if top >= len(extra):
        raise InvariantError("ray degree %d past the tail minima's %d"
                             % (top, len(extra) - 1))
    low_b = extra[top]
    if low_b is None:
        return None
    # a polygon with top or more vertices exists, so one exists at or above
    # every smaller degree too: no inner term is None
    return 2 * len(degrees) - 4 + low_b + sum(inner[d] for d in degrees)


__all__ = [
    "ConeFlag", "SearchNode", "make_root",
    "enumerate_blowups", "walk_tree", "trace_line", "format_trace_line",
    "count_polygon_tree", "instantiate_all", "parameter_axes",
    "degree_profile", "PolygonStats", "polygon_stats",
    "CriterionResult", "polygon_criterion", "max_ray_degree",
    "tail_minima", "subtree_bound",
]

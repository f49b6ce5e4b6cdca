"""End-to-end classification runs, plus the tree-count and stats commands.

A run walks the blow-up trees of the seed fans, filters fans that cannot
carry a small polytope, enumerates admissible inequality levels for one
representative per fan isomorphism class, realizes the polytopes, and
deduplicates up to lattice isomorphism.

Dimension 2 walks concrete fans (one tree per Hirzebruch width) and may cut
whole subtrees: wall coefficients only ever grow under 2D blow-ups, so a
fan with a coefficient past the cap never has feasible descendants.  The
walk is one loop over plain tuples (cones, start, path, ray order,
coefficient cycle) with no search node: in 2D the flag discipline reduces
to a start position, a child of position i expanding only positions >= i.
It keys classes by their coefficient cycle, and a class whose least
perimeter (rhs.least_perimeter, an integer bound read off the cycle)
exceeds the budget is counted but never gets a fan or a level search: at
N = 12 that skips 1962 of the 1992 classes.  The other 30 get their fan
from the cycle alone, in the frame of rhs.frame_rays: a lattice image of
the walked fan, which has the same level vectors and polytopes up to
lattice isomorphism.
Dimension 3 has no such monotonicity (wall blow-ups destroy the offending
wall), so the walk is parametric, and every node is filtered by the smooth
polygon criterion from the 2D results: polygon minima from a 2D pass that
stops at the largest ray degree a 3D node can have (search.max_ray_degree).
The criterion reads only the ray degrees, counted off each node's cones,
and is evaluated once per distinct degree multiset, after the dead-subtree
bound (search.subtree_bound) over the same degrees: a node over the budget
by that bound has its whole subtree walked bare, without degrees.  A
surviving node's family goes to fans.wall_sum_box, which reads the box
off the family's bounds, walks it once, and yields the assignment and the
concrete fan of each point that passes the wall-sum test, its wall table
already solved (the box of a node without parameters is the one point
()).  Every 3D class is keyed and counted, but only a class whose facets
can close gets a level search: the 2D perimeter bound, applied to the star
of each ray (every facet of a polytope with that fan is such a polygon)
and to their sum (rhs.facets_can_close), shows 331 of the 386 classes at
N = 12 empty.
"""

import json
from dataclasses import dataclass, field

from . import InvariantError, seeds
from .exact_linalg import dot
from .fans import (
    Fan,
    fan_canonical_key,
    wall_sum_box,
    # unused: kept for perfbench/traced.py to wrap
    wall_sum_box as wall_sum_mask,
    wall_table,
)
from .iso_dedup import canonical_form, dedup
from .polytopes import HPolytope, VPolytope, facets_of, lattice_points
from .rhs import (
    enumerate_rhs,
    facets_can_close,
    frame_rays,
    least_perimeter,
    passes_wall_sum,  # unused: kept for perfbench/traced.py to wrap
    realize_and_filter,
)
from .search import (
    count_polygon_tree,
    degree_profile,
    # unused: kept for perfbench/traced.py to wrap
    enumerate_blowups,
    format_trace_line,
    instantiate_all,
    # unused: kept for perfbench/traced.py to wrap
    make_root,
    max_ray_degree,
    polygon_criterion,
    polygon_stats,
    subtree_bound,
    tail_minima,
    trace_line,
    walk_tree,
)

VALIDATED_3D_MAX_POINTS = 12


class ConfigError(ValueError):
    """The run configuration is outside the supported envelope."""


@dataclass
class RunConfig:
    """What to classify, and where to trace the walk."""
    dimension: int
    max_points: int
    trace_tree: str = None
    allow_unvalidated: bool = False

    def validate(self):
        """Raise ConfigError, or return a list of warnings to show."""
        if self.dimension not in (2, 3):
            raise ConfigError("dimension must be 2 or 3, got %r"
                              % (self.dimension,))
        if self.max_points < self.dimension + 1:
            raise ConfigError("max_points must be at least %d in dimension "
                              "%d" % (self.dimension + 1, self.dimension))
        warnings = []
        if self.dimension == 3 and self.max_points > VALIDATED_3D_MAX_POINTS:
            msg = ("max_points %d exceeds the validated envelope %d for "
                   "dimension 3: the seed list is only known complete for "
                   "fans with at most 8 rays" % (self.max_points,
                                                 VALIDATED_3D_MAX_POINTS))
            if not self.allow_unvalidated:
                raise ConfigError(msg)
            warnings.append("warning: " + msg + "; results may be incomplete")
        return warnings


@dataclass(frozen=True, order=True)
class Provenance:
    """Where a polytope came from: seed, blow-up path, parameters, levels.

    Field order gives the tie-breaking order used by dedup.
    """
    seed: str
    path: tuple          # (("cone", i) | ("wall", (i, j)), ...)
    assignment: tuple    # sorted (name, value) pairs
    rhs: tuple


@dataclass(frozen=True)
class ClassificationRecord:
    """One polytope of the classification, in canonical coordinates.

    canonical_key is the lattice-isomorphism key of the canonical form the
    vertices came from, kept for dedup; it is not compared or rendered.
    """
    dimension: int
    vertices: tuple
    num_lattice_points: int
    num_vertices: int
    facet_count: int
    provenance: Provenance
    canonical_key: tuple = field(compare=False, repr=False)


@dataclass
class Diagnostics:
    nodes_visited: int = 0
    fans_tested: int = 0
    rhs_enumerated: int = 0
    realizations_rejected: int = 0


@dataclass(frozen=True)
class RunResult:
    dimension: int
    max_points: int
    records: tuple
    histogram: dict      # num_vertices -> count, contiguous from d+1
    diagnostics: Diagnostics
    warnings: tuple


def _make_record(poly, H, num_points, prov):
    """Record of a realized polytope from its facets H and its point count,
    both known from the realization: no hull and no lattice scan."""
    cf = canonical_form(poly, H)
    return ClassificationRecord(poly.d, cf.vertices, num_points,
                                len(cf.vertices), len(H.A), prov, cf.key)


def _realize_jobs(jobs, max_points, diag):
    """Run the level enumeration and realization for each fan class rep.

    jobs are ((seed, path, assignment), fan) pairs in a deterministic
    order.
    """
    records = []
    for prefix, fan in jobs:
        levels = enumerate_rhs(fan, max_points)
        diag.rhs_enumerated += len(levels)
        for b in levels:
            poly, status, num_points = realize_and_filter(fan, b, max_points)
            if poly is None:
                diag.realizations_rejected += 1
                continue
            prov = Provenance(prefix[0], prefix[1], prefix[2], tuple(b))
            records.append(_make_record(poly, HPolytope(fan.rays, b),
                                        num_points, prov))
    return dedup(records)


def _note_class(classes, key, prefix, item):
    """Keep item (a fan, or a 2D walk node) for the least prefix."""
    cur = classes.get(key)
    if cur is None or prefix < cur[0]:
        classes[key] = (prefix, item)


def _polygon_roots(max_points):
    """Concrete root fans for dimension 2: F_p plus each Hirzebruch width."""
    return [(name, assignment, fan) for name in seeds.seed_names(2)
            for assignment, fan in instantiate_all(
                seeds.seed_fan(name, max_points))]


def _polygon_cycle(fan):
    """Cyclic ray order and wall coefficients of a concrete 2D fan.

    Position i holds the coefficient a_i with r_{i-1} + r_{i+1} = a_i r_i,
    read with ray i's two neighbours from row i of fans.wall_table (in 2D
    a wall is one ray).  The cyclic sequence up to rotation and reversal is
    a complete isomorphism invariant (rhs.frame_rays).  A neighbour sum
    that is no integer multiple of the ray raises InvariantError.
    """
    try:
        table = wall_table(fan)
    except ValueError as exc:
        raise InvariantError("not a smooth complete 2D fan: %s"
                             % (exc,)) from None
    neighbours = [opposite for _, _, opposite, _ in table]
    order = [0, neighbours[0][0]]
    while len(order) < len(table):
        a, b = neighbours[order[-1]]
        order.append(b if a == order[-2] else a)
    return tuple(order), tuple(table[i][3][0] for i in order)


def _splice_cycle(order, cycle, cone, new_index):
    """Coefficient cycle after blowing up the cone (a pair of ray indices).

    The new ray lands between the pair with coefficient 1 and each of the
    pair gains 1, so no arithmetic on ray vectors is needed per node.
    """
    n = len(order)
    ra, rb = cone
    p = order.index(ra)
    if order[(p + 1) % n] != rb:
        p = order.index(rb)
        if order[(p + 1) % n] != ra:
            raise InvariantError("cone %r is not a pair of neighbours in %r"
                                 % (cone, order))
    if p == n - 1:
        new_order = order + (new_index,)
        new_cycle = (cycle[0] + 1,) + cycle[1:n - 1] + (cycle[n - 1] + 1, 1)
    else:
        new_order = order[:p + 1] + (new_index,) + order[p + 1:]
        new_cycle = (cycle[:p] + (cycle[p] + 1, 1, cycle[p + 1] + 1)
                     + cycle[p + 2:])
    return new_order, new_cycle


def _dihedral_key(cycle):
    """Least rotation or reversed rotation of the coefficient cycle.

    The least one starts with min(cycle), so only the rotations that start
    at an occurrence of it are compared.
    """
    n = len(cycle)
    low = min(cycle)
    best = None
    for seq in (cycle, cycle[::-1]):
        doubled = seq + seq
        for s in range(n):
            if seq[s] != low:
                continue
            cand = doubled[s:s + n]
            if best is None or cand < best:
                best = cand
    return best


def _min_interior(n):
    """Least interior point count of any convex lattice n-gon.

    A lattice polygon without interior points is a height-one trapezoid or
    twice the unit triangle, so it has at most 4 vertices; and Scott's
    inequality b <= 2i + 7 (i >= 1) forces interior points once the
    boundary, hence the vertex count, grows.
    """
    if n <= 4:
        return 0
    return max(1, (n - 6) // 2)


def _polygon_walk(max_points, trace, diag, max_vertices=None):
    """The 2D class table: (prefix, cycle key, (cones, order, cycle)) rows.

    Walks the polygon trees, counts nodes_visited in diag, and keeps one
    row per dihedral key, the one with the least prefix; sorted by prefix.
    Nodes are expanded up to the most rays a polygon within the budget can
    have, or up to max_vertices rays when that is smaller: a 3D run needs
    no polygon with more vertices than its largest ray degree.
    A node is the tuple (cones, start, path, order, cycle), and its
    children blow up the positions start..k-1 only: in 2D that is all the
    flag discipline leaves, as in count_polygon_tree's recurrence (the
    tests replay the flags on fans.blow_up, node for node).  A complete
    2D fan has as many rays as cones, so the new ray's index is the cone
    count.  No fan is built here; _class_fan builds a row's fan when it
    is needed.
    """
    cap = max_points - 4      # thickened edge: 2(l+1) + a*l <= N at l = 1
    max_rays = max_points
    while max_rays + _min_interior(max_rays) > max_points:
        max_rays -= 1
    if max_vertices is not None:
        max_rays = min(max_rays, max_vertices)
    classes = {}
    for name, assignment, fan in _polygon_roots(max_points):
        label = name if not assignment else \
            "%s(a=%d)" % (name, assignment["a"])
        prefix_assignment = tuple(sorted(assignment.items()))
        order, cycle = _polygon_cycle(fan)
        stack = [(fan.cones, 0, (), order, cycle)]
        while stack:
            cones, start, path, order, cycle = stack.pop()
            diag.nodes_visited += 1
            k = len(cones)
            if trace is not None:
                trace.write("%s\t%s\n" % (label, format_trace_line(k, path)))
            if max(cycle) > cap:
                continue          # coefficients only grow: subtree is dead
            _note_class(classes, _dihedral_key(cycle),
                        (name, path, prefix_assignment), (cones, order, cycle))
            if k + 1 > max_rays:
                continue
            # fans.blow_up's 2D cone rule: (a, k) replaces position i and
            # (b, k) is appended; pushed last to first, popped in order
            for i in range(k - 1, start - 1, -1):
                a, b = cones[i]
                stack.append((cones[:i] + ((a, k),) + cones[i + 1:]
                              + ((b, k),), i, path + (("cone", i),))
                             + _splice_cycle(order, cycle, (a, b), k))
    return sorted(((prefix, key, node)
                   for key, (prefix, node) in classes.items()),
                  key=lambda row: row[0])


def _class_fan(cones, order, cycle):
    """A fan with these cones whose ray order[p] is the p-th ray of the
    cycle's frame (rhs.frame_rays): a lattice image of the walked fan."""
    return Fan([ray for _, ray in sorted(zip(order, frame_rays(cycle)))],
               cones)


def _classify_2d(max_points, trace, max_vertices=None):
    """Walk, then realize only the classes within the perimeter bound.

    Every class counts in fans_tested; a class whose least_perimeter
    exceeds max_points has no level vector, so its fan is never built.
    max_vertices caps the walk's ray count (_polygon_walk).
    """
    diag = Diagnostics()
    table = _polygon_walk(max_points, trace, diag, max_vertices)
    diag.fans_tested = len(table)
    jobs = [(prefix, _class_fan(*node)) for prefix, key, node in table
            if least_perimeter(key) <= max_points]
    records = _realize_jobs(jobs, max_points, diag)
    return records, diag


def _verdict(degrees, node, stats, tails, max_points):
    """(dead, passes) for a node with these sorted ray degrees.

    A node is dead when no node of its subtree can pass: a seed root with
    more cones than max_points (its criterion bound is at least its cone
    count, and its degrees may pass the table's cap, so it is decided
    before the table is read), or a node whose subtree_bound exceeds
    max_points.  Only a live node meets polygon_criterion.
    """
    if len(node.cones) > max_points:
        return True, False
    bound = subtree_bound(degrees, tails)
    if bound is None or bound > max_points:
        return True, False
    return False, polygon_criterion(degree_profile(node), stats).passes


def _classify_3d(max_points, stats, trace):
    """The 3D walk, filtered by the polygon criterion, then realized.

    Every class counts in fans_tested; one that fails
    rhs.facets_can_close has no level vector and gets no level search.

    stats needs the polygon minima up to max_ray_degree(max_points)
    vertices.  Once a node is dead (_verdict), the nodes of its subtree,
    which pre-order puts right after it with more rays, are walked bare:
    counted and traced, with no degree count and no cones derived.  A node
    that passes hands its family to wall_sum_box, whose sorted (name,
    value) assignment of each kept point ends the class prefix (seed,
    path, assignment).
    """
    diag = Diagnostics()
    classes = {}
    tails = tail_minima(stats, max_ray_degree(max_points))
    # the verdict reads only the degree multiset, and the walk meets few
    verdicts = {}
    for name in seeds.seed_names(3):
        seed = seeds.get_seed(name)
        dead_rays = None          # ray count of the dead node walked below
        for node in walk_tree(seed.build(max_points), max_points):
            diag.nodes_visited += 1
            if trace is not None:
                trace.write("%s\t%s\n" % (name, trace_line(node)))
            if dead_rays is not None:
                if node.num_rays > dead_rays:
                    continue      # below the dead node: walked bare
                dead_rays = None
            degrees = [0] * node.num_rays
            for cone in node.cones:
                for i in cone:
                    degrees[i] += 1
            key = tuple(sorted(degrees))
            verdict = verdicts.get(key)
            if verdict is None:
                verdict = verdicts[key] = _verdict(key, node, stats, tails,
                                                   max_points)
            dead, ok = verdict
            if dead:
                dead_rays = node.num_rays
                continue
            if not ok:
                continue          # not a candidate, but children may be
            # a leaf derives its fan and path on every read
            family, path = node.fan, node.path
            for assignment, fan in wall_sum_box(family, max_points):
                _note_class(classes, fan_canonical_key(fan),
                            (name, path, assignment), fan)
    jobs = sorted(classes.values(), key=lambda job: job[0])
    diag.fans_tested = len(jobs)
    perimeters = {}
    records = _realize_jobs([job for job in jobs
                             if facets_can_close(job[1], max_points,
                                                 perimeters)],
                            max_points, diag)
    return records, diag


def polygon_stats_from_records(records, max_points, max_vertices=None):
    """Fold classified polygons into the per-vertex-count minima table,
    which covers at most max_vertices vertices when given."""
    counts = []
    for r in records:
        cv = VPolytope(r.vertices)
        H = facets_of(cv)
        pts = lattice_points(cv, H)
        interior = sum(1 for p in pts
                       if all(dot(row, p) < c
                              for row, c in zip(H.A, H.b)))
        counts.append((r.num_vertices, r.num_lattice_points, interior,
                       r.num_lattice_points - interior))
    return polygon_stats(counts, max_points, max_vertices)


def _histogram(records, dim):
    if not records:
        return {}
    top = max(r.num_vertices for r in records)
    return {k: sum(1 for r in records if r.num_vertices == k)
            for k in range(dim + 1, top + 1)}


def open_output(path):
    """path opened for writing, or ConfigError when it cannot be written.

    The CLI's --out and the trace file are opened with it before any
    classification work, so a bad path costs no run.
    """
    try:
        return open(path, "w")
    except OSError as exc:
        raise ConfigError("cannot write %s: %s"
                          % (path, exc.strerror)) from None


def run_classify(cfg):
    warnings = cfg.validate()
    trace = open_output(cfg.trace_tree) if cfg.trace_tree else None
    try:
        if cfg.dimension == 2:
            records, diag = _classify_2d(cfg.max_points, trace)
        else:
            stats = _polygon_minima(cfg.max_points,
                                    max_ray_degree(cfg.max_points))
            records, diag = _classify_3d(cfg.max_points, stats, trace)
    finally:
        if trace is not None:
            trace.close()
    return RunResult(cfg.dimension, cfg.max_points, tuple(records),
                     _histogram(records, cfg.dimension), diag,
                     tuple(warnings))


def run_count_tree(seed_name, max_cones, unpruned=False):
    """Node count of a seed's blow-up tree up to max_cones maximal cones."""
    seed = seeds.get_seed(seed_name)
    fan = seed.build(max(max_cones, 12))
    if len(fan.cones) > max_cones:
        return 0
    if seed.dim == 2:
        return count_polygon_tree(len(fan.cones), max_cones,
                                  pruned=not unpruned)
    return sum(1 for _ in walk_tree(fan, max_cones, pruned=not unpruned))


def _polygon_minima(max_points, max_vertices=None):
    """Smooth polygon minima for the given budget, from a fresh 2D pass,
    covering polygons with at most max_vertices vertices when given."""
    # positional: perfbench/traced.py wraps _classify_2d as traced(*args)
    records, _ = _classify_2d(max_points, None, max_vertices)
    return polygon_stats_from_records(records, max_points, max_vertices)


def run_stats(max_points):
    """Smooth polygon minima for the given budget, from a fresh 2D run."""
    RunConfig(2, max_points).validate()
    return _polygon_minima(max_points)


# ---------------------------------------------------------------------------
# serialization (all integers; nothing here may ever emit a float)

def _provenance_jsonable(prov):
    return {
        "seed": prov.seed,
        "path": [[kind, list(t) if isinstance(t, tuple) else t]
                 for kind, t in prov.path],
        "assignment": {n: v for n, v in prov.assignment},
        "rhs": list(prov.rhs),
    }


def render_json(result):
    payload = {
        "dimension": result.dimension,
        "max_points": result.max_points,
        "records": [{
            "dimension": r.dimension,
            "vertices": [list(v) for v in r.vertices],
            "num_lattice_points": r.num_lattice_points,
            "num_vertices": r.num_vertices,
            "facet_count": r.facet_count,
            "provenance": _provenance_jsonable(r.provenance),
        } for r in result.records],
        "histogram": {str(k): v for k, v in result.histogram.items()},
        "diagnostics": {
            "nodes_visited": result.diagnostics.nodes_visited,
            "fans_tested": result.diagnostics.fans_tested,
            "rhs_enumerated": result.diagnostics.rhs_enumerated,
            "realizations_rejected":
                result.diagnostics.realizations_rejected,
        },
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _fmt_vertices(vertices):
    return " ".join("(%s)" % ",".join(str(a) for a in v) for v in vertices)


def render_text(result):
    lines = ["dimension %d, max points %d: %d polytopes"
             % (result.dimension, result.max_points, len(result.records)),
             ""]
    rows = [(str(i + 1), str(r.num_lattice_points), str(r.num_vertices),
             str(r.facet_count), _fmt_vertices(r.vertices))
            for i, r in enumerate(result.records)]
    head = ("#", "points", "vertices", "facets", "vertex coordinates")
    widths = [max(len(h), *(len(row[c]) for row in rows)) if rows else len(h)
              for c, h in enumerate(head)]
    def line(cells):
        left = "  ".join(c.rjust(w) for c, w in zip(cells[:4], widths[:4]))
        return left + "  " + cells[4]
    lines.append(line(head))
    lines.extend(line(row) for row in rows)
    lines.append("")
    lines.append("vertices  count")
    for k in sorted(result.histogram):
        lines.append("%8d  %5d" % (k, result.histogram[k]))
    d = result.diagnostics
    lines.append("")
    lines.append("diagnostics: nodes_visited=%d fans_tested=%d "
                 "rhs_enumerated=%d realizations_rejected=%d"
                 % (d.nodes_visited, d.fans_tested, d.rhs_enumerated,
                    d.realizations_rejected))
    return "\n".join(lines) + "\n"


def render_stats(stats):
    """The polygon minima table; absences shown as >N in the totals row.

    Columns run from k = 3 to the largest k in the table, and to at least 8.
    """
    ks = list(range(3, max([8, *stats.table]) + 1))
    rows = [("k", [str(k) for k in ks])]
    absent_l = ">%d" % stats.max_points
    for label, pick, absent in (("l", 0, absent_l), ("i", 1, "-"),
                                ("b", 2, "-")):
        cells = []
        for k in ks:
            entry = stats.get(k)
            cells.append(str(entry[pick]) if entry is not None else absent)
        rows.append((label, cells))
    width = max(len(c) for _, cells in rows for c in cells)
    lines = []
    for label, cells in rows:
        lines.append(label + "  " + "  ".join(c.rjust(width) for c in cells))
    return "\n".join(lines) + "\n"


def render_seeds():
    """Registry dump: live seeds, built at 12, and the eliminated minimal
    fans."""
    lines = ["seed fans"]
    for name in seeds.seed_names():
        seed = seeds.get_seed(name)
        fan = seed.build(12)
        lines.append("  %-14s dim %d, %d rays, %d cones, parameters: %s"
                     % (name, seed.dim, len(fan.rays), len(fan.cones),
                        seed.params_desc))
        lines.append("      rays: " + " ".join(
            "(%s)" % ",".join(str(a) for a in r) for r in fan.rays))
    lines.append("")
    lines.append("eliminated minimal fans (dimension 3, 12 point budget)")
    for ex in seeds.EXCLUDED_FANS:
        bound = "bound %d > 12" % ex.bound if ex.bound is not None \
            else "no bound (impossible facet)"
        lines.append("  %-18s %d cones, %s" % (ex.name, ex.num_cones, bound))
        lines.append("      " + ex.reason)
    return "\n".join(lines) + "\n"


__all__ = [
    "ConfigError", "RunConfig", "Provenance", "ClassificationRecord",
    "Diagnostics", "RunResult", "run_classify", "run_count_tree",
    "run_stats", "polygon_stats_from_records",
    "render_json", "render_text", "render_stats", "render_seeds",
    "open_output", "VALIDATED_3D_MAX_POINTS",
]

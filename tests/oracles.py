"""Reference solvers that only the tests read (`from oracles import ...`).

The program solves every wall, level and vertex in integers: wall tables,
floored caps and Cramer's rule in unimodular bases.  The routines here are
the slower general forms those replaced, kept as independent checks: a
Gauss-Jordan solve over Fraction, the per-wall edge parameters of a
possibly parametric fan (solved over Fraction too, so they share no wall
solve with the program), smoothness and completeness tests on a whole
fan, the window of level vectors with its rational caps, and the
perimeter bound over all ray pairs.  The errors that only these general
solves can meet (Singular, Inconsistent, NonIntegral) live here as well:
the program raises InvariantError on every wall that is not smooth.
riemann_roch_count counts the lattice points of a smooth 3-polytope from
its vertices alone, in integers and with its own hull, so it shares no
code with the program's point count.  all_flags_key is the fan key with
no cut, every flag walked to the end on edge_parameters; keyed_fans
collects the fans a 3D run keys, to check the key against it at scale.
widened_run reruns the 3D search with every parameter box widened, to
check the premise that the declared boxes hold every class.

The blow-up tree is replayed on fans, in any dimension: replay_walk
builds every child with fans.blow_up and carries the flag discipline by
set scans on the fan, as the reference for search's 3D node walk and
for the 2D tree, which the program walks as tuples (pipeline's polygon
walk, checked by check_polygon_walk) and counts by recurrence
(search.count_polygon_tree).

A parametric target is solved by linearity (solve_by_parts): once for its
constant vector and once for each parameter's integer vector, so no solve
ever does arithmetic on a ParamExpr.
"""

import io
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import combinations, permutations
from math import gcd

from smoothpoly import pipeline, search, seeds
from smoothpoly.exact_linalg import (
    ShapeError,
    columns_matrix,
    determinant,
    dot,
    vec_add,
)
from smoothpoly.fans import (
    Fan,
    NotComplete,
    ParamExpr,
    _paired_ridges,
    blow_up,
    fan_canonical_key,
    wall_table,
    walls_of,
)
from smoothpoly.pipeline import RunConfig, run_classify
from smoothpoly.rhs import frame_rays
from smoothpoly.search import ConeFlag, format_trace_line

AI = ConeFlag.ALWAYS_IGNORE
IG = ConeFlag.IGNORE
CO = ConeFlag.CONSIDER
AC = ConeFlag.ALWAYS_CONSIDER


class Singular(ValueError):
    """Raised when the columns of a linear system are dependent."""


class Inconsistent(ValueError):
    """Raised when a linear system has no solution."""


class NonIntegral(ValueError):
    """Edge-parameter solve came out fractional: non-smooth wall data."""


def vec_scale(c, v):
    return tuple(c * a for a in v)


def solve_rational(M, y):
    """Solve M.x = y exactly, the columns of M acting as the basis.

    M has m rows and n <= m columns of plain integers, and y holds m
    integers.  Returns the unique solution as a tuple of Fractions.  Raises
    Singular if the columns are linearly dependent and Inconsistent if y
    lies outside their span.
    """
    m = len(M)
    n = len(M[0]) if m else 0
    if any(len(row) != n for row in M):
        raise ShapeError("ragged matrix")
    if len(y) != m:
        raise ShapeError("rhs length %d does not match %d rows" % (len(y), m))
    if n > m:
        raise Singular("more columns than rows, columns cannot be independent")
    # Gauss-Jordan on the augmented matrix [M | y] over Fraction.
    aug = [[Fraction(a) for a in M[i]] + [Fraction(y[i])] for i in range(m)]
    for c in range(n):
        p = next((i for i in range(c, m) if aug[i][c] != 0), None)
        if p is None:
            raise Singular("columns are linearly dependent")
        aug[c], aug[p] = aug[p], aug[c]
        piv = aug[c][c]
        aug[c] = [a / piv for a in aug[c]]
        for i in range(m):
            if i != c and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[c])]
    for i in range(n, m):
        if aug[i][n] != 0:
            raise Inconsistent("rhs is outside the column span")
    return tuple(aug[i][n] for i in range(n))


def solve_by_parts(solve, s):
    """solve applied to a target s whose entries are ints or ParamExprs.

    solve maps an integer vector to a coefficient tuple.  It runs on the
    constant vector of s and on each parameter's integer vector, and entry
    i of the result is the constant part plus each parameter times its
    part: a ParamExpr where some parameter part is nonzero, else the
    constant itself.
    """
    names = sorted({n for x in s if isinstance(x, ParamExpr)
                    for n in x.coeffs})
    const = solve(tuple(x.const if isinstance(x, ParamExpr) else x
                        for x in s))
    parts = {n: solve(tuple(x.coeffs.get(n, 0) if isinstance(x, ParamExpr)
                            else 0 for x in s))
             for n in names}
    out = []
    for i, c in enumerate(const):
        coeffs = {n: p[i] for n, p in parts.items() if p[i]}
        out.append(ParamExpr(c, coeffs) if coeffs else c)
    return tuple(out)


class ParametricWallUnsupported(ValueError):
    """Edge parameters requested on a wall spanned by parametric rays."""


@dataclass(frozen=True)
class EdgeParams:
    """Integer coefficients a_i with r1 + r2 = sum a_i * n_i across a wall."""
    wall: object
    coeffs: tuple


def edge_parameters(fan, wall):
    """Solve r1 + r2 = sum a_i n_i for one wall's edge parameters.

    The n_i are the wall's spanning rays, r1/r2 the opposite rays of the two
    incident cones; each linear part of r1 + r2 is solved by solve_rational
    and must come out integral (NonIntegral otherwise), so a wall off the
    span raises Inconsistent and dependent spanning rays raise Singular.
    On parametric fans the spanning rays must be parameter-free
    (ParametricWallUnsupported otherwise); the opposite rays may be
    parametric, giving ParamExpr coefficients.
    """
    spanning = [fan.rays[i] for i in wall.ray_indices]
    # an entry that reads no parameter is an int
    if not all(isinstance(a, int) for v in spanning for a in v):
        raise ParametricWallUnsupported(
            "wall %r is spanned by parametric rays" % (wall.ray_indices,))
    M = columns_matrix(spanning)

    def solve(v):
        x = solve_rational(M, v)
        if any(a.denominator != 1 for a in x):
            raise NonIntegral("edge parameters %r on wall %r"
                              % (x, wall.ray_indices))
        return tuple(int(a) for a in x)

    s = vec_add(fan.rays[wall.opposite[0]], fan.rays[wall.opposite[1]])
    return EdgeParams(wall, solve_by_parts(solve, s))


def all_flags_key(fan):
    """fan_canonical_key with every flag walked to the end, no cut at all.

    The walk is the key's (breadth-first from the flag, each cone's facets
    crossed in label order, each new cone giving its far ray's label and
    the wall's coefficients in label order), but every ordering of every
    cone is a start, and the coefficients are edge_parameters, so it
    shares neither the cut nor the wall solve with the program.
    """
    across = {}
    for wall in walls_of(fan):
        coeffs = dict(zip(wall.ray_indices, edge_parameters(fan, wall).coeffs))
        (c1, c2), (p, q) = wall.incident, wall.opposite
        across[c1, p] = (c2, q, coeffs)
        across[c2, q] = (c1, p, coeffs)
    sequences = []
    for start, cone in enumerate(fan.cones):
        for flag in permutations(cone):
            label = {r: k for k, r in enumerate(flag)}
            seen = {start}
            queue = [start]
            seq = []
            for c in queue:
                rays = sorted(fan.cones[c], key=label.__getitem__)
                for x in rays:
                    nxt, y, coeffs = across[c, x]
                    if nxt in seen:
                        continue
                    seen.add(nxt)
                    queue.append(nxt)
                    label.setdefault(y, len(label))
                    seq.append(label[y])
                    seq.extend(coeffs[n] for n in rays if n != x)
            sequences.append(seq)
    # items all have d integers, so flat sequences compare as item
    # sequences do
    return len(fan.cones), tuple(min(sequences))


def keyed_fans(max_points):
    """Every fan a 3D run at max_points keys, in the order it keys them.

    The run reads fan_canonical_key through pipeline's module attribute,
    which is wrapped to record each fan for the run and then restored.
    """
    kept = []
    key = pipeline.fan_canonical_key

    def record(fan):
        kept.append(fan)
        return key(fan)

    pipeline.fan_canonical_key = record
    try:
        run_classify(RunConfig(3, max_points, allow_unvalidated=True))
    finally:
        pipeline.fan_canonical_key = key
    return kept


def widened_run(max_points, seed_margin=12, node_margin=6):
    """The 3D run at max_points with every parameter box widened.

    Every 3D seed is built at max_points + seed_margin instead of
    max_points, so its declared box grows with it, and every node below
    a root has its box widened by node_margin more on each side.  The run
    reads its seeds through seeds.get_seed and a node's family through
    search._build_fan, which are wrapped for the run and then restored.
    The run assumes that each node's box holds every fan of its class
    that passes the wall-sum cap; where that holds, the widened run finds
    the same classes and the same report.
    """
    get_seed, build_fan = seeds.get_seed, search._build_fan

    def wider_seed(name):
        seed = get_seed(name)
        if seed.dim != 3:
            return seed
        return replace(seed, build=lambda n: seed.build(n + seed_margin))

    def wider_fan(node):
        fan = build_fan(node)
        if node.path:
            fan.bounds = {n: (lo - node_margin, hi + node_margin)
                          for n, (lo, hi) in fan.bounds.items()}
        return fan

    seeds.get_seed, search._build_fan = wider_seed, wider_fan
    try:
        return run_classify(RunConfig(3, max_points, allow_unvalidated=True))
    finally:
        seeds.get_seed, search._build_fan = get_seed, build_fan


def is_smooth_fan(fan):
    """(True, None) iff every maximal cone is simplicial with determinant +-1.

    Otherwise (False, index of an offending cone).  Needs a concrete fan;
    parametric rays have no numeric determinant.
    """
    for ci, cone in enumerate(fan.cones):
        if len(cone) != fan.d:
            return False, ci
        M = columns_matrix([fan.rays[i] for i in cone])
        if determinant(M) not in (1, -1):
            return False, ci
    return True, None


def is_complete_fan(fan):
    """Ridge pairing + adjacency connectivity + the Euler count.

    d=2 needs |rays| = |cones|; d=3 needs |rays| - |walls| + |cones| = 2.
    Returns False when a ridge does not lie in exactly two cones; a cone
    with other than d rays has no ridges to pair and raises ValueError,
    as in walls_of.
    """
    try:
        paired = _paired_ridges(fan)
    except NotComplete:
        return False
    # walk the wall-adjacency graph
    seen = {0}
    queue = [0]
    adj = {}
    for _, c1, _, c2, _ in paired:
        adj.setdefault(c1, []).append(c2)
        adj.setdefault(c2, []).append(c1)
    while queue:
        c = queue.pop()
        for nb in adj.get(c, ()):
            if nb not in seen:
                seen.add(nb)
                queue.append(nb)
    if len(seen) != len(fan.cones):
        return False
    if fan.d == 2:
        return len(fan.rays) == len(fan.cones)
    return len(fan.rays) - len(paired) + len(fan.cones) == 2


def edge_length_form(fan, wall):
    """Dense edge length across wall as a linear form in the levels b.

    One coefficient per fan ray: +1 on each of the two opposite rays, minus
    the wall coefficient on each spanning ray.
    """
    dense = [0] * len(fan.rays)
    for i in wall.opposite:
        dense[i] += 1
    for i, a in zip(wall.ray_indices, edge_parameters(fan, wall).coeffs):
        dense[i] -= a
    return tuple(dense)


@dataclass(frozen=True)
class RhsPolytope:
    """The level vectors b that the three bounds of smoothpoly.rhs keep.

    The slow reference for enumerate_rhs: b is pinned to 0 on the rays of
    the least cone, every edge length lies in [1, (N - sum(a))/d - 1] with
    the rational cap kept as a Fraction, and the lengths minus one sum to
    at most N - #cones.
    """
    max_points: int
    pinned: tuple        # ray indices with b forced to 0
    forms: tuple         # dense edge-length form per wall, in walls_of order
    uppers: tuple        # Fraction cap per form
    slack: int           # cap on sum over walls of (length - 1)

    def contains(self, b):
        if any(b[i] != 0 for i in self.pinned):
            return False
        total = 0
        for form, cap in zip(self.forms, self.uppers):
            ell = dot(form, b)
            if ell < 1 or ell > cap:
                return False
            total += ell - 1
        return total <= self.slack


def build_rhs_polytope(fan, max_points):
    walls = walls_of(fan)
    return RhsPolytope(
        max_points, min(fan.cones),
        tuple(edge_length_form(fan, w) for w in walls),
        tuple(Fraction(max_points - sum(edge_parameters(fan, w).coeffs),
                       fan.d) - 1 for w in walls),
        max_points - len(fan.cones))


def pairwise_least_perimeter(cycle):
    """rhs.least_perimeter by trying every pair of frame rays, O(k^2).

    A basic optimum of min sum e_i, e >= 0, sum e_i r_i = c = -sum r_i
    has at most two nonzero e_i (Caratheodory in the plane), so g is the
    least (det(c, r_j) + det(r_i, c)) / det(r_i, r_j) over ray pairs with
    det(r_i, r_j) > 0 and both numerators >= 0 (the Cramer solution of
    c = e_i r_i + e_j r_j); g = 0 when c = 0.  The rays of a complete fan
    span every direction, so some pair qualifies, and ceil of the least
    quotient is the least ceil.  Returns k + ceil(g).
    """
    k = len(cycle)
    rays = frame_rays(cycle)
    cx = -sum(x for x, _ in rays)
    cy = -sum(y for _, y in rays)
    if cx == 0 and cy == 0:
        return k
    best = None
    for xi, yi in rays:
        for xj, yj in rays:
            den = xi * yj - yi * xj
            if den <= 0:
                continue
            ei = cx * yj - cy * xj
            ej = xi * cy - yi * cx
            if ei < 0 or ej < 0:
                continue
            g = -(-(ei + ej) // den)
            if best is None or g < best:
                best = g
    return k + best


def _sub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def _cross(u, v):
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0])


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def riemann_roch_count(vertices):
    """Lattice points of a smooth lattice 3-polytope by toric Riemann-Roch.

    P is an ample divisor on a smooth toric 3-fold, so |P & Z^3| = chi(D)
    (Fulton, Introduction to Toric Varieties, 1993, sec. 5.3), which in
    polytope terms reads
        12 n = 2 (6 vol) + 3 sum_F 2 area(F) + 3 sum_e l_e
               - sum_F lambda_F + 12,
    where area(F) is measured in the facet's own lattice, l_e is an edge's
    lattice length, and lambda_F is given by sum_{e in F} l_e n_F' =
    lambda_F n_F, F' being the other facet at e.  The hull is brute force
    over vertex triples: a triple spans a facet when every vertex lies on
    one side of its plane.  Integers only.
    """
    V = [tuple(v) for v in vertices]
    facets = {}           # primitive outward normal -> vertex indices on it
    for i, j, k in combinations(range(len(V)), 3):
        n = _cross(_sub(V[j], V[i]), _sub(V[k], V[i]))
        g = gcd(*n)
        if g == 0:
            continue
        n = tuple(a // g for a in n)
        c = _dot(n, V[i])
        vals = [_dot(n, v) for v in V]
        if min(vals) == c:
            n, c = tuple(-a for a in n), -c
        elif max(vals) != c:
            continue
        facets[n] = frozenset(x for x, v in enumerate(V) if _dot(n, v) == c)
    normals = list(facets)
    edges = {}            # facet normal -> [(u, v, l_e, other normal)]
    sum_l = 0
    for a, b in combinations(normals, 2):
        common = facets[a] & facets[b]
        if len(common) != 2:
            continue
        u, v = sorted(common)
        l_e = gcd(*_sub(V[v], V[u]))
        sum_l += l_e
        edges.setdefault(a, []).append((u, v, l_e, b))
        edges.setdefault(b, []).append((u, v, l_e, a))
    o = V[0]
    six_vol = sum_area = sum_lambda = 0
    for n in normals:
        # the facet's boundary cycle, walked along its edges
        nxt = {}
        for u, v, _, _ in edges[n]:
            nxt.setdefault(u, []).append(v)
            nxt.setdefault(v, []).append(u)
        ring = [edges[n][0][0]]
        prev = None
        while len(ring) < len(nxt):
            x, y = nxt[ring[-1]]
            step = y if x == prev else x
            prev = ring[-1]
            ring.append(step)
        p0 = V[ring[0]]
        k_sum = 0
        for x, y in zip(ring[1:], ring[2:]):
            w = _cross(_sub(V[x], p0), _sub(V[y], p0))
            k_sum += _dot(w, n) // _dot(n, n)
            six_vol += abs(_dot(_sub(p0, o), _cross(_sub(V[x], o),
                                                     _sub(V[y], o))))
        sum_area += abs(k_sum)
        acc = [0, 0, 0]
        for _, _, l_e, other in edges[n]:
            acc = [s + l_e * t for s, t in zip(acc, other)]
        lam = _dot(acc, n) // _dot(n, n)
        if [lam * t for t in n] != acc:
            raise ValueError("edge normals of facet %r do not sum to a "
                             "multiple of it: %r" % (n, acc))
        sum_lambda += lam
    total = 2 * six_vol + 3 * sum_area + 3 * sum_l - sum_lambda + 12
    if total % 12:
        raise ValueError("Riemann-Roch total %d is not a multiple of 12"
                         % total)
    return total // 12


# ---------------------------------------------------------------------------
# the blow-up tree replayed on fans

def replay_root(fan):
    """The bookkeeping of a root: (path, cone_flags, wall_order,
    wall_flags, wall_cones), every cone and wall expandable, the walls in
    walls_of order; a 2-fan has no walls to blow up."""
    order = tuple(w.ray_indices for w in walls_of(fan)) if fan.d == 3 else ()
    return ((), (CO,) * len(fan.cones), order, dict.fromkeys(order, CO),
            _scanned_wall_cones(fan, order))


def replay_children(fan, bookkeeping, max_cones, pruned):
    """Children of one node, each a blown-up Fan plus its bookkeeping.

    Every child is fans.blow_up of its parent, its parameter box widened
    by one on each side after a cone blow-up and kept after a wall
    blow-up, and incident cones are found by set scans on the fan.
    bookkeeping is (path, cone_flags, wall_order, wall_flags, wall_cones),
    as replay_root gives it.
    """
    path, cone_flags, wall_order, wall_flags, _ = bookkeeping
    k, d, s = len(fan.cones), fan.d, len(fan.rays)
    if k + d - 1 > max_cones:
        return []

    def grown(target, kind):
        child = blow_up(fan, target)
        w = 1 if kind == "cone" else 0
        bounds = {n: (lo - w, hi + w) for n, (lo, hi) in child.bounds.items()}
        return Fan(child.rays, child.cones, bounds, child.excluded)

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


def replay_walk(fan, max_cones, pruned=True):
    """Pre-order walk of fan's blow-up tree up to max_cones cones: (fan,
    bookkeeping) per node, children by replay_children."""
    stack = [(fan, replay_root(fan))]
    while stack:
        fan, bookkeeping = stack.pop()
        yield fan, bookkeeping
        stack.extend(reversed(replay_children(fan, bookkeeping, max_cones,
                                              pruned)))


def replay_polygon_walk(max_points, trace, diag):
    """pipeline's 2D class table from the replay: (prefix, cycle key, fan)
    rows, fan being the replayed fan of the class's least-prefix node.

    The same roots, ray cap, trace lines, dead-subtree cut and classes as
    the polygon walk, but each node is a Fan built by fans.blow_up and
    expanded by the flag discipline, not by the start-position rule.
    """
    cap = max_points - 4
    max_rays = max_points
    while max_rays + pipeline._min_interior(max_rays) > max_points:
        max_rays -= 1
    classes = {}
    for name, assignment, fan in pipeline._polygon_roots(max_points):
        label = name if not assignment else \
            "%s(a=%d)" % (name, assignment["a"])
        prefix_assignment = tuple(sorted(assignment.items()))
        order, cycle = pipeline._polygon_cycle(fan)
        stack = [(fan, replay_root(fan), order, cycle)]
        while stack:
            fan, bookkeeping, order, cycle = stack.pop()
            path = bookkeeping[0]
            diag.nodes_visited += 1
            if trace is not None:
                trace.write("%s\t%s\n" % (
                    label, format_trace_line(len(fan.cones), path)))
            if max(cycle) > cap:
                continue
            pipeline._note_class(classes, pipeline._dihedral_key(cycle),
                                 (name, path, prefix_assignment), fan)
            stack.extend(reversed([
                (child, kid) + pipeline._splice_cycle(
                    order, cycle, fan.cones[kid[0][-1][1]], len(fan.rays))
                for child, kid in replay_children(fan, bookkeeping,
                                                  max_rays, True)]))
    return sorted(((prefix, key, fan)
                   for key, (prefix, fan) in classes.items()),
                  key=lambda row: row[0])


def check_polygon_walk(max_points):
    """pipeline's polygon walk against replay_polygon_walk, node for node.

    Compares the --trace-tree text, nodes_visited and the class rows, and
    per class that the class fan has the replayed fan's cones, wall table
    and fan key (it is a lattice image of it).  Returns (nodes, classes);
    raises ValueError on the first difference.
    """
    got_trace, want_trace = io.StringIO(), io.StringIO()
    got_diag, want_diag = pipeline.Diagnostics(), pipeline.Diagnostics()
    got = pipeline._polygon_walk(max_points, got_trace, got_diag)
    want = replay_polygon_walk(max_points, want_trace, want_diag)
    if got_trace.getvalue() != want_trace.getvalue():
        raise ValueError("trace text differs at N = %d" % max_points)
    if got_diag.nodes_visited != want_diag.nodes_visited:
        raise ValueError("nodes_visited %d, replay %d"
                         % (got_diag.nodes_visited, want_diag.nodes_visited))
    if [row[:2] for row in got] != [row[:2] for row in want]:
        raise ValueError("class rows differ at N = %d" % max_points)
    for (prefix, _, node), (_, _, fan) in zip(got, want):
        class_fan = pipeline._class_fan(*node)
        if (class_fan.cones != fan.cones
                or wall_table(class_fan) != wall_table(fan)
                or fan_canonical_key(class_fan) != fan_canonical_key(fan)):
            raise ValueError("class fan of %r is no image of the replayed "
                             "fan" % (prefix,))
    return got_diag.nodes_visited, len(got)

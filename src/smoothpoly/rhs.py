"""Right-hand sides: which inequality levels realize a fan as a polytope.

A smooth complete fan F fixes the facet normals; a polytope with normal fan
F is then determined by one integer level b_r per ray r, as { x : <x, r> <=
b_r }.  The lattice length of the edge crossing a wall is a linear form in
b (the two opposite rays get +1, the spanning rays get minus their wall
coefficients), and three facts bound the search for levels that stay within
max_points lattice points:

  * every edge has length at least 1,
  * the thickened edge around an edge of length l holds d(l+1) + sum(a)
    lattice points of the polytope, so l <= (N - sum(a))/d - 1,
  * edge interiors and vertices together give sum(l-1) + #cones <= N.

Translation freedom is removed by pinning b = 0 on the rays of the
lexicographically least cone, which parks that cone's vertex at the origin.

The wall coefficients come from fans.wall_table, which reads the table a
fan keeps: a 3D fan from fans.wall_sum_box holds the one its box pass
solved, so no wall is solved again here.

Edge lengths are integers, so enumeration floors each cap once, to
(N - sum(a) - d) // d, and works in integers only.

In 2D, least_perimeter bounds the edge-length sum of any polygon with a
given coefficient cycle from below, in integers and without building the
fan; a class whose bound exceeds N has no level vector, so the 2D run
enumerates levels only for classes within the bound.
"""

from . import InvariantError
from .exact_linalg import determinant, dot
from .fans import wall_table
from .polytopes import (
    HPolytope,
    VPolytope,
    count_lattice_points,
    is_smooth,  # unused: kept for perfbench/traced.py to wrap
)


def _form(ridge, opposite, coeffs):
    """Lattice length of the edge across one wall as a linear form over the
    ray levels: its (ray index, coeff) terms with nonzero coeff, sorted."""
    dense = {}
    for opp in opposite:
        dense[opp] = dense.get(opp, 0) + 1
    for idx, a in zip(ridge, coeffs):
        dense[idx] = dense.get(idx, 0) - a
    return tuple(sorted((i, c) for i, c in dense.items() if c))


def _wall_forms(fan):
    """(wall table row, edge-length form, wall coefficient sum) per wall.

    Rows come in walls_of order, from the table the fan keeps.
    """
    out = []
    for row in wall_table(fan):
        ridge, _, opposite, coeffs = row
        out.append((row, _form(ridge, opposite, coeffs), sum(coeffs)))
    return out


def _assignment_plan(fan, walls, forms, caps, pinned):
    """Order the free levels so each one is windowed by a single edge form.

    Breadth-first over the cone adjacency graph starting at the pinned
    cone: entering a new cone fixes at most one new ray (the opposite ray
    across the entering wall, whose form coefficient is +1), and every ray
    of a reached cone is fixed by then.  walls are wall_table rows; each
    cone's neighbours are listed once, in wall order.  Returns the forms
    already complete on the pinned rays, and one step per free ray:

      (ray, window terms without the ray, window cap,
       ((terms without the ray, coeff on the ray, cap), ...))

    where the last entry lists the other forms that become complete once
    the ray is assigned.  Every term refers to a ray assigned earlier.
    """
    adjacent = [[] for _ in fan.cones]
    for wi, (_, (c1, c2), (p, q), _) in enumerate(walls):
        adjacent[c1].append((wi, c2, q))
        adjacent[c2].append((wi, c1, p))
    pinned_cone = fan.cones.index(pinned)
    depth = {r: 0 for r in pinned}
    order = []           # (ray, wall index giving its window)
    seen = {pinned_cone}
    queue = [pinned_cone]
    for ci in queue:
        for wi, other, new_ray in adjacent[ci]:
            if other in seen:
                continue
            seen.add(other)
            queue.append(other)
            if new_ray not in depth:
                order.append((new_ray, wi))
                depth[new_ray] = len(order)
    if len(seen) != len(fan.cones) or len(depth) != len(fan.rays):
        raise InvariantError("level plan reaches %d of %d cones and %d of "
                             "%d rays" % (len(seen), len(fan.cones),
                                          len(depth), len(fan.rays)))
    complete = [[] for _ in range(len(order) + 1)]
    for wi, form in enumerate(forms):
        complete[max((depth[i] for i, _ in form), default=0)].append(wi)

    def split(wi, ray):
        terms = forms[wi]
        return (tuple((i, c) for i, c in terms if i != ray),
                dict(terms).get(ray, 0))

    steps = []
    for t, (ray, wi) in enumerate(order, start=1):
        window, _ = split(wi, ray)
        checks = tuple(split(fi, ray) + (caps[fi],)
                       for fi in complete[t] if fi != wi)
        steps.append((ray, window, caps[wi], checks))
    return complete[0], steps


def enumerate_rhs(fan, max_points):
    """All integer level vectors that the three bounds keep, sorted lex.

    Integer-only: each cap is floored once, the step's window form fixes
    the new level for each edge length ell, and only the forms completed at
    that step are evaluated, on a running total of sum(length - 1).
    """
    data = _wall_forms(fan)
    caps = [(max_points - a_sum - fan.d) // fan.d for _, _, a_sum in data]
    pinned = min(fan.cones)
    slack = max_points - len(fan.cones)
    at_start, steps = _assignment_plan(fan, [w for w, _, _ in data],
                                       [f for _, f, _ in data], caps, pinned)
    if at_start:
        return []        # a form on pinned rays alone measures 0 < 1
    out = []
    _assign(steps, 0, 0, slack, [0] * len(fan.rays), out)
    out.sort()
    return out


def _assign(steps, t, used, slack, b, out):
    """Levels for steps[t:] given b so far; used is sum(length - 1)."""
    if t == len(steps):
        out.append(tuple(b))
        return
    ray, window, cap, checks = steps[t]
    rest = sum(c * b[i] for i, c in window)
    others = [(sum(c * b[i] for i, c in terms), c_new, fcap)
              for terms, c_new, fcap in checks]
    # every completed form adds length - 1 >= 0 to used
    for ell in range(1, min(cap, slack - used + 1) + 1):
        level = ell - rest
        total = used + ell - 1
        for base, c_new, fcap in others:
            length = base + c_new * level
            if length < 1 or length > fcap:
                break
            total += length - 1
        else:
            if total <= slack:
                b[ray] = level
                _assign(steps, t + 1, total, slack, b, out)


def frame_rays(cycle):
    """The rays of a smooth complete 2D fan with this coefficient cycle.

    Position i holds a_i with r_{i-1} + r_{i+1} = a_i r_i.  Two neighbouring
    rays of a smooth fan are a lattice basis, so the cycle fixes the fan up
    to GL_2(Z), and in the frame r_0 = e1, r_1 = e2 the others follow as
    r_{i+1} = a_i r_i - r_{i-1}.  Returns one ray per position.
    """
    rays = [(1, 0), (0, 1)]
    for i in range(1, len(cycle) - 1):
        (x0, y0), (x1, y1) = rays[i - 1], rays[i]
        rays.append((cycle[i] * x1 - x0, cycle[i] * y1 - y0))
    return rays


def least_perimeter(cycle):
    """Lower bound on the edge-length sum of a smooth polygon with this cycle.

    cycle holds the wall coefficients a_i of a smooth complete 2D fan in
    cyclic ray order, r_{i-1} + r_{i+1} = a_i r_i.  With the rays of
    frame_rays(cycle), a polygon with this normal fan has edge lengths
    l_i >= 1 with sum l_i r_i = 0.  Writing l = 1 + e, closure reads
    sum e_i r_i = c with c = -sum r_i.  Returns k + ceil(g), where g is
    the least real sum e_i over all e >= 0 with that closure.

    That g is the gauge of c with respect to the hull of the rays, which
    holds the origin inside (the fan is complete): on the edge [u, v] whose
    cone holds c, c = e_u u + e_v v by Cramer's rule with g = e_u + e_v =
    (det(c, v) + det(u, c)) / det(u, v).  That linear form is 1 on the
    edge's line and at most 1 on the hull, so on every other edge it gives
    at most g at c, and g is the greatest over the edges (0 when c = 0).
    The ceil of the greatest quotient is the greatest ceil.  Every
    det(r_i, r_{i+1}) is 1, so the rays arrive counterclockwise, and one
    stack pass (Graham's scan, started at the lexicographically greatest
    ray, a hull vertex) keeps the hull vertices in that order.  The value
    is invariant under rotation and reversal of the cycle (both give a
    lattice image of the same polygons), so the dihedral key may be
    passed.

    Soundness: the level vectors of enumerate_rhs give edge lengths with
    l >= 1, sum(l - 1) <= N - k, and sum l_i r_i = 0 (this holds for every
    level vector, as sum_i (b_{i-1} + b_{i+1} - a_i b_i) r_i = sum_i b_i
    (r_{i-1} + r_{i+1} - a_i r_i) = 0).  The bound keeps l >= 1 and the
    closure and drops the edge caps and integrality, so it only relaxes
    the three bounds: every level vector has k + ceil(g) <=
    sum l <= N, and a cycle with least_perimeter > N has none.
    """
    k = len(cycle)
    rays = frame_rays(cycle)
    cx = -sum(x for x, _ in rays)
    cy = -sum(y for _, y in rays)
    top = rays.index(max(rays))
    hull = []
    for x, y in rays[top:] + rays[:top + 1]:
        while len(hull) > 1:
            (x0, y0), (x1, y1) = hull[-2], hull[-1]
            if (x1 - x0) * (y - y0) - (y1 - y0) * (x - x0) > 0:
                break
            hull.pop()
        hull.append((x, y))
    return k + max(-(-(cx * yv - cy * xv + xu * cy - yu * cx)
                     // (xu * yv - yu * xv))
                   for (xu, yu), (xv, yv) in zip(hull, hull[1:]))


def realize_and_filter(fan, b, max_points):
    """Solve for the vertex of every cone and validate the result.

    Returns (polytope, "ok", lattice-point count), or (None, "mismatch",
    None) when b does not realize this fan (degenerate or shifted
    vertices), or (None, "too_many_points", None) when the polytope is
    genuine but too big.

    Every cone of a smooth fan is unimodular, so its vertex, the solution
    of <r, x> = b_r over the cone's rays r, is integral and comes from
    Cramer's rule with determinant +-1: x_j = det * det(rows with column j
    replaced by the levels).  A cone with other than d rays or another
    determinant raises InvariantError before anything is solved.

    A realized polytope is {x : <r, x> <= b_r} over the fan's rays, and its
    normal fan is the fan: vertex i is tight exactly on the rays of cone i.
    So its facets are the rays, and it is smooth because the fan is; no
    hull is built.
    """
    d = fan.d
    verts = []
    for cone in fan.cones:
        rows = [fan.rays[i] for i in cone]
        det = determinant(rows) if len(rows) == d else None
        if det not in (1, -1):
            raise InvariantError("realized polytope is not smooth: cone %r "
                                 "of its normal fan has rays %r"
                                 % (cone, rows))
        levels = [b[i] for i in cone]
        verts.append(tuple(
            det * determinant([row[:j] + (level,) + row[j + 1:]
                               for row, level in zip(rows, levels)])
            for j in range(d)))
    if len(set(verts)) != len(verts):
        return None, "mismatch", None
    for cone, v in zip(fan.cones, verts):
        for ri, ray in enumerate(fan.rays):
            if ri not in cone and dot(ray, v) >= b[ri]:
                return None, "mismatch", None
    poly = VPolytope(verts, d)
    n = count_lattice_points(poly, HPolytope(fan.rays, b, d), limit=max_points)
    if n > max_points:
        return None, "too_many_points", None
    return poly, "ok", n


# ---------------------------------------------------------------------------
# wall-coefficient prefilter
#
# Edge length bounds need 1 <= l <= (N - sum(a))/d - 1, so a fan admits any
# polytope within N points only if sum(a) <= N - 2d on every wall.  These
# are the scalar tests; over a 3D parameter box the same cap is tested by
# fans.wall_sum_box, each wall once its rays are fixed.

def wall_sums(fan):
    return [sum(coeffs) for _, _, _, coeffs in wall_table(fan)]


def passes_wall_sum(fan, max_points):
    cap = max_points - 2 * fan.d
    return all(s <= cap for s in wall_sums(fan))


__all__ = [
    "enumerate_rhs", "frame_rays", "least_perimeter", "realize_and_filter",
    "wall_sums", "passes_wall_sum",
]

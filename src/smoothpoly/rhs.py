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
"""

from dataclasses import dataclass
from fractions import Fraction

from .exact_linalg import dot, solve_rational
from .fans import ParamExpr, edge_parameters, walls_of
from .polytopes import HPolytope, VPolytope, count_lattice_points, is_smooth


class NonIntegralVertex(ValueError):
    """A cone's level system solved to a fractional vertex.

    Cannot happen while the pipeline only realizes smooth fans (the system
    is unimodular); raised rather than silently rounded if an unsanitized
    fan slips through.
    """


@dataclass(frozen=True)
class EdgeLengthForm:
    """Lattice length of one edge as a linear form over all ray levels."""
    wall: tuple          # spanning ray indices
    coeffs: tuple        # one entry per fan ray

    def evaluate(self, b):
        return sum(c * v for c, v in zip(self.coeffs, b) if c)


def edge_length_form(fan, wall):
    params = edge_parameters(fan, wall)
    coeffs = [0] * len(fan.rays)
    for opp in wall.opposite:
        coeffs[opp] += 1
    for idx, a in zip(wall.ray_indices, params.coeffs):
        coeffs[idx] -= a
    return EdgeLengthForm(wall.ray_indices, tuple(coeffs))


@dataclass(frozen=True)
class RhsPolytope:
    """The set of b-vectors kept by the three bounds above.

    Unlike the lattice polytopes elsewhere this keeps rational caps as
    Fractions; it lives in b-space, not in R^d.
    """
    max_points: int
    pinned: tuple        # ray indices with b forced to 0
    forms: tuple         # EdgeLengthForm per wall, in walls_of order
    uppers: tuple        # Fraction cap per form
    slack: int           # cap on sum over walls of (length - 1)

    def contains(self, b):
        if any(b[i] != 0 for i in self.pinned):
            return False
        total = 0
        for form, cap in zip(self.forms, self.uppers):
            ell = form.evaluate(b)
            if ell < 1 or ell > cap:
                return False
            total += ell - 1
        return total <= self.slack


def build_rhs_polytope(fan, max_points):
    forms = []
    uppers = []
    for wall in walls_of(fan):
        form = edge_length_form(fan, wall)
        a_sum = sum(edge_parameters(fan, wall).coeffs)
        forms.append(form)
        uppers.append(Fraction(max_points - a_sum, fan.d) - 1)
    return RhsPolytope(max_points, min(fan.cones), tuple(forms),
                       tuple(uppers), max_points - len(fan.cones))


def _assignment_plan(fan, rhs_poly):
    """Order the free levels so each one is windowed by a single edge form.

    Breadth-first over the cone adjacency graph starting at the pinned
    cone: entering a new cone fixes at most one new ray (the opposite ray
    across the entering wall, whose form coefficient is +1).  Returns the
    discovery steps and, per step, the walls whose forms become fully
    determined there.
    """
    walls = walls_of(fan)
    pinned_cone = fan.cones.index(rhs_poly.pinned)
    depth = {r: 0 for r in rhs_poly.pinned}
    steps = []           # (ray, form index giving its window)
    seen = {pinned_cone}
    queue = [pinned_cone]
    while queue:
        ci = queue.pop(0)
        for wi, wall in enumerate(walls):
            if ci not in wall.incident:
                continue
            side = wall.incident.index(ci)
            other = wall.incident[1 - side]
            if other in seen:
                continue
            seen.add(other)
            queue.append(other)
            new_ray = wall.opposite[1 - side]
            if new_ray not in depth:
                steps.append((new_ray, wi))
                depth[new_ray] = len(steps)
    assert len(seen) == len(fan.cones) and len(depth) == len(fan.rays)
    checks = [[] for _ in range(len(steps) + 1)]
    for wi, form in enumerate(rhs_poly.forms):
        support = [i for i, c in enumerate(form.coeffs) if c]
        checks[max((depth[i] for i in support), default=0)].append(wi)
    return steps, checks


def enumerate_rhs(fan, max_points):
    """All integer level vectors inside build_rhs_polytope, sorted lex."""
    rhs_poly = build_rhs_polytope(fan, max_points)
    steps, checks = _assignment_plan(fan, rhs_poly)
    b = [0] * len(fan.rays)
    out = []

    def admissible(t, used):
        # forms whose support is complete once step t is assigned
        for wi in checks[t]:
            ell = rhs_poly.forms[wi].evaluate(b)
            if ell < 1 or ell > rhs_poly.uppers[wi]:
                return None
            used += ell - 1
        return used if used <= rhs_poly.slack else None

    def recurse(t, used):
        if t == len(steps):
            out.append(tuple(b))
            return
        ray, wi = steps[t]
        form = rhs_poly.forms[wi]
        rest = form.evaluate(b) - b[ray]  # coeff on the new ray is +1
        top = rhs_poly.uppers[wi]
        ell = 1
        while ell <= top:
            b[ray] = ell - rest
            used2 = admissible(t + 1, used)
            if used2 is not None:
                recurse(t + 1, used2)
            ell += 1
        b[ray] = 0

    start = admissible(0, 0)
    if start is not None:
        recurse(0, start)
    out.sort()
    return out


def realize_and_filter(fan, b, max_points):
    """Solve for the vertex of every cone and validate the result.

    Returns (polytope, "ok"), or (None, "mismatch") when b does not realize
    this fan (degenerate or shifted vertices), or (None, "too_many_points")
    when the polytope is genuine but too big.
    """
    verts = []
    for cone in fan.cones:
        rows = [fan.rays[i] for i in cone]
        sol = solve_rational(rows, [b[i] for i in cone])
        if any(x.denominator != 1 for x in sol):
            raise NonIntegralVertex("vertex of cone %r is %r" % (cone, sol))
        verts.append(tuple(int(x) for x in sol))
    if len(set(verts)) != len(verts):
        return None, "mismatch"
    for cone, v in zip(fan.cones, verts):
        for ri, ray in enumerate(fan.rays):
            if ri not in cone and dot(ray, v) >= b[ri]:
                return None, "mismatch"
    poly = VPolytope(verts, fan.d)
    hull = HPolytope(list(fan.rays), list(b), fan.d)
    if count_lattice_points(hull, limit=max_points, _verts=poly) > max_points:
        return None, "too_many_points"
    smooth, witness = is_smooth(poly)
    assert smooth, witness  # guaranteed by the exact tight sets above
    return poly, "ok"


# ---------------------------------------------------------------------------
# wall-coefficient prefilter
#
# Edge length bounds need 1 <= l <= (N - sum(a))/d - 1, so a fan admits any
# polytope within N points only if sum(a) <= N - 2d on every wall.  Cheap to
# test, and vectorizable over a whole grid of parameter assignments.

def wall_sums(fan):
    return [sum(edge_parameters(fan, w).coeffs) for w in walls_of(fan)]


def passes_wall_sum(fan, max_points):
    cap = max_points - 2 * fan.d
    return all(s <= cap for s in wall_sums(fan))


def wall_sum_mask(fan, grids, max_points):
    """Boolean mask over a grid of assignments: passes_wall_sum for each.

    grids maps parameter names to equal-length int64 arrays.  Works on the
    parametric fan directly: with s the sum of a wall's two opposite rays,
    s = a1 n1 + a2 n2 holds inside span(n1, n2), and the coefficient sum
    comes out of cross products without any division:
      d=2 (wall = one ray n): a <x n, n> = <s, n>
      d=3 (w = n1 x n2):  (a1 + a2) <w, w> = <s x n2 + n1 x s, w>
    """
    import numpy as np    # only 3D parameter boxes need numpy
    m = len(next(iter(grids.values()))) if grids else 1
    cap = max_points - 2 * fan.d

    def entry_array(x):
        if isinstance(x, ParamExpr):
            arr = np.full(m, x.const, dtype=np.int64)
            for name, c in x.coeffs.items():
                arr = arr + c * grids[name]
            return arr
        return np.full(m, x, dtype=np.int64)

    rays = [np.stack([entry_array(x) for x in r], axis=1) for r in fan.rays]
    mask = np.ones(m, dtype=bool)
    for wall in walls_of(fan):
        s = rays[wall.opposite[0]] + rays[wall.opposite[1]]
        if fan.d == 2:
            n = rays[wall.ray_indices[0]]
            lhs = np.einsum("ij,ij->i", s, n)
            norm = np.einsum("ij,ij->i", n, n)
        else:
            n1 = rays[wall.ray_indices[0]]
            n2 = rays[wall.ray_indices[1]]
            w = np.cross(n1, n2)
            lhs = np.einsum("ij,ij->i", np.cross(s, n2) + np.cross(n1, s), w)
            norm = np.einsum("ij,ij->i", w, w)
        mask &= lhs <= cap * norm
    return mask


__all__ = [
    "NonIntegralVertex", "EdgeLengthForm", "edge_length_form",
    "RhsPolytope", "build_rhs_polytope", "enumerate_rhs",
    "realize_and_filter",
    "wall_sums", "passes_wall_sum", "wall_sum_mask",
]

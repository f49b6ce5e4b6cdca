"""Rational simplicial fans: walls, edge-parameters, blow-ups, canonical keys.

A fan is stored combinatorially: a tuple of primitive rays plus maximal cones
as sorted tuples of ray indices.  Parametric fans carry rays whose entries are
affine expressions in named integer parameters (the families from the figure
catalogue, e.g. the ray (-1,-a)); substituting an in-bounds assignment turns
them into concrete fans.

The blow-up of a fan at a cone sigma is the stellar subdivision at the sum of
sigma's primitive rays: every cone containing sigma is split.  For smooth fans
this is exactly the equivariant blow-up of the associated toric variety, and
it preserves smoothness and completeness (the new ray completes the same
bases; determinants are unchanged since det(z1,...,z_{d-1}, z1+...+zd) =
det(z1,...,zd)).
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations

from .exact_linalg import (
    Inconsistent,
    Singular,
    columns_matrix,
    cross,
    determinant,
    dot,
    inverse_unimodular,  # unused: kept for perfbench/traced.py to wrap
    normalize_primitive,
    vec_add,
)


class NotComplete(ValueError):
    """A ridge of the fan is not shared by exactly two maximal cones."""


class InvalidCone(ValueError):
    """Blow-up target is neither a maximal cone nor a wall of the fan."""


class NonIntegral(ValueError):
    """Edge-parameter solve came out fractional: non-smooth wall data."""


class ParametricWallUnsupported(ValueError):
    """Edge parameters requested on a wall spanned by parametric rays."""


class OutOfBounds(ValueError):
    """Parameter assignment violates the declared bounds or exclusions."""


class DegenerateRay(ValueError):
    """Parameter substitution produced a zero or duplicate ray."""


# ---------------------------------------------------------------------------
# affine parameter expressions

class ParamExpr:
    """Affine expression const + sum(coeff * parameter) with exact values.

    Coefficients are integers in all stored fan data; Fractions appear only
    transiently inside linear solves.  Zero coefficients are never stored, so
    equal expressions compare and hash equal.
    """

    __slots__ = ("const", "coeffs")

    def __init__(self, const=0, coeffs=None):
        self.const = const
        self.coeffs = {n: c for n, c in (coeffs or {}).items() if c != 0}

    @classmethod
    def var(cls, name):
        return cls(0, {name: 1})

    @property
    def is_constant(self):
        return not self.coeffs

    def evaluate(self, assignment):
        v = self.const
        for name, c in self.coeffs.items():
            v += c * assignment[name]
        return v

    def _binop(self, other, sign):
        if isinstance(other, ParamExpr):
            coeffs = dict(self.coeffs)
            for n, c in other.coeffs.items():
                coeffs[n] = coeffs.get(n, 0) + sign * c
            return ParamExpr(self.const + sign * other.const, coeffs)
        if isinstance(other, (int, Fraction)):
            return ParamExpr(self.const + sign * other, self.coeffs)
        return NotImplemented

    def __add__(self, other):
        return self._binop(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._binop(other, -1)

    def __rsub__(self, other):
        return (-self)._binop(other, 1)

    def __neg__(self):
        return ParamExpr(-self.const, {n: -c for n, c in self.coeffs.items()})

    def __mul__(self, k):
        if not isinstance(k, (int, Fraction)):
            return NotImplemented
        return ParamExpr(self.const * k, {n: c * k for n, c in self.coeffs.items()})

    __rmul__ = __mul__

    def __truediv__(self, k):
        if not isinstance(k, (int, Fraction)):
            return NotImplemented
        return ParamExpr(Fraction(self.const) / k,
                         {n: Fraction(c) / k for n, c in self.coeffs.items()})

    def _key(self):
        return (self.const, tuple(sorted(self.coeffs.items())))

    def __eq__(self, other):
        if isinstance(other, ParamExpr):
            return self._key() == other._key()
        if isinstance(other, (int, Fraction)):
            return not self.coeffs and self.const == other
        return NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        if not self.coeffs:
            return str(self.const)
        parts = []
        for n, c in sorted(self.coeffs.items()):
            if c == 1:
                term = n
            elif c == -1:
                term = "-" + n
            else:
                term = "%s%s" % (c, n)
            parts.append(("+" + term) if parts and not term.startswith("-") else term)
        if self.const:
            parts.append("+%s" % self.const if self.const > 0 else str(self.const))
        return "".join(parts)


def as_expr(x):
    return x if isinstance(x, ParamExpr) else ParamExpr(x)


def expr_value(x):
    """Plain integer of a constant entry (int or constant ParamExpr)."""
    if isinstance(x, ParamExpr):
        if not x.is_constant:
            raise ValueError("%s still has a parameter" % (x,))
        return x.const
    return x


def is_numeric_vector(v):
    return all(not isinstance(a, ParamExpr) or a.is_constant for a in v)


# ---------------------------------------------------------------------------
# fans

class Fan:
    """Complete simplicial fan: primitive rays + maximal cones as index sets.

    Cones are normalized to sorted tuples.  Cones with more than d rays are
    tolerated at construction so that normal fans of non-simple polytopes can
    be represented; such fans only flow into is_smooth_fan (which reports
    them non-smooth) and are rejected by the structural operations.
    """

    __slots__ = ("rays", "cones", "d")

    def __init__(self, rays, cones, d=None):
        rays = tuple(tuple(r) for r in rays)
        assert rays, "fan needs at least one ray"
        if d is None:
            d = len(rays[0])
        assert all(len(r) == d for r in rays)
        cones = tuple(tuple(sorted(c)) for c in cones)
        assert all(0 <= i < len(rays) for c in cones for i in c)
        assert len(set(rays)) == len(rays), "duplicate rays"
        self.rays = rays
        self.cones = cones
        self.d = d

    def __eq__(self, other):
        return (isinstance(other, Fan) and self.rays == other.rays
                and self.cones == other.cones)

    def __hash__(self):
        return hash((self.rays, self.cones))

    def __repr__(self):
        return "Fan(d=%d, %d rays, %d cones)" % (self.d, len(self.rays),
                                                 len(self.cones))


class ParamFan(Fan):
    """Fan family: ray entries may be ParamExpr, with finite integer bounds.

    bounds maps parameter name -> (lower, upper); excluded maps parameter
    name -> frozenset of forbidden values inside those bounds.
    """

    __slots__ = ("bounds", "excluded")

    def __init__(self, rays, cones, bounds, excluded=None, d=None):
        rays = tuple(tuple(as_expr(a) if isinstance(a, ParamExpr) else a
                           for a in r) for r in rays)
        super().__init__(rays, cones, d)
        self.bounds = {n: (int(lo), int(hi)) for n, (lo, hi) in bounds.items()}
        self.excluded = {n: frozenset(vs) for n, vs in (excluded or {}).items()
                         if vs}

    @property
    def params(self):
        return tuple(sorted(self.bounds))


@dataclass(frozen=True)
class Wall:
    """Codimension-1 cone shared by exactly two maximal cones.

    ray_indices span the wall; incident holds the two maximal-cone indices in
    increasing order; opposite[i] is the ray index completing incident[i].
    """
    ray_indices: tuple
    incident: tuple
    opposite: tuple


@dataclass(frozen=True)
class EdgeParams:
    """Integer coefficients a_i with r1 + r2 = sum a_i * n_i across a wall."""
    wall: Wall
    coeffs: tuple


def walls_of(fan):
    """All walls of a complete simplicial fan, sorted by spanning ray indices.

    Raises NotComplete when some ridge lies in a number of maximal cones
    other than two.
    """
    d = fan.d
    ridge_map = {}
    for ci, cone in enumerate(fan.cones):
        assert len(cone) == d, "walls_of needs a simplicial fan"
        for drop in cone:
            ridge = tuple(i for i in cone if i != drop)
            ridge_map.setdefault(ridge, []).append(ci)
    walls = []
    for ridge in sorted(ridge_map):
        cs = ridge_map[ridge]
        if len(cs) != 2:
            raise NotComplete("ridge %r lies in %d maximal cones, want 2"
                              % (list(ridge), len(cs)))
        c1, c2 = sorted(cs)
        opp = tuple(next(i for i in fan.cones[c] if i not in ridge)
                    for c in (c1, c2))
        walls.append(Wall(ridge, (c1, c2), opp))
    return walls


def edge_parameters(fan, wall):
    """Solve r1 + r2 = sum a_i n_i for the wall's edge-parameters.

    The n_i are the wall's spanning rays, r1/r2 the opposite rays of the two
    incident cones, s = r1 + r2.  Integer arithmetic only:

      d=2 (wall = one ray n):  a = s_k / n_k at the first nonzero n_k,
      d=3 (w = n1 x n2):       a1 <w,w> = <s x n2, w>,  a2 <w,w> = <n1 x s, w>,

    and the quotients must be exact and give back s = sum a_i n_i.  A
    smooth wall gives integers; a fractional solution raises NonIntegral,
    s outside the wall's span raises Inconsistent and dependent spanning
    rays raise Singular.  On parametric fans the spanning rays must be
    parameter-free (ParametricWallUnsupported otherwise); the opposite
    rays may be parametric, giving ParamExpr coefficients.
    """
    spanning = [fan.rays[i] for i in wall.ray_indices]
    for v in spanning:
        if not is_numeric_vector(v):
            raise ParametricWallUnsupported(
                "wall %r is spanned by parametric rays" % (wall.ray_indices,))
    spanning = [tuple(expr_value(a) for a in v) for v in spanning]
    s = vec_add(fan.rays[wall.opposite[0]], fan.rays[wall.opposite[1]])
    if fan.d == 2:
        (n,) = spanning
        k = next((k for k, x in enumerate(n) if x), None)
        if k is None:
            raise Singular("wall %r is spanned by the zero ray"
                           % (wall.ray_indices,))
        den, nums = n[k], [s[k]]
    elif fan.d == 3:
        n1, n2 = spanning
        w = cross(n1, n2)
        den = dot(w, w)
        if not den:
            raise Singular("wall %r is spanned by dependent rays"
                           % (wall.ray_indices,))
        nums = [dot(cross(s, n2), w), dot(cross(n1, s), w)]
    else:
        raise ValueError("edge parameters need dimension 2 or 3, got %d"
                         % (fan.d,))
    coeffs = tuple(_exact_quotient(x, den) for x in nums)
    if any(c is None for c in coeffs):
        # s in the span makes the quotients its exact coordinates
        off_span = (s[0] * n[1] - s[1] * n[0]) if fan.d == 2 else dot(s, w)
        if off_span != 0:
            raise Inconsistent("wall %r: opposite rays sum outside its span"
                               % (wall.ray_indices,))
        raise NonIntegral("edge-parameters %r / %d on wall %r"
                          % (nums, den, wall.ray_indices))
    combo = tuple(sum(a * v[i] for a, v in zip(coeffs, spanning))
                  for i in range(fan.d))
    if combo != s:
        raise Inconsistent("wall %r: opposite rays sum outside its span"
                           % (wall.ray_indices,))
    return EdgeParams(wall, coeffs)


def _exact_quotient(x, den):
    """x / den for an int or ParamExpr x when exact, else None."""
    if isinstance(x, ParamExpr) and not x.is_constant:
        if any(p % den for p in (x.const, *x.coeffs.values())):
            return None
        return ParamExpr(x.const // den,
                         {n: c // den for n, c in x.coeffs.items()})
    q, r = divmod(expr_value(x), den)
    return None if r else q


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


def _cone_ridges(fan, cone):
    """Ridges ((d-1)-faces) of one maximal cone, as sorted ray-index tuples.

    Simplicial cones drop one ray at a time.  A 3D cone with extra rays (a
    normal cone of a non-simple vertex) exposes a ray pair as a 2-face iff
    all other rays sit strictly on one side of the pair's plane.
    """
    d = fan.d
    if len(cone) == d:
        return [tuple(i for i in cone if i != drop) for drop in cone]
    assert d == 3, "non-simplicial cones only handled in dimension 3"
    ridges = []
    for a in range(len(cone)):
        for b in range(a + 1, len(cone)):
            w = cross(fan.rays[cone[a]], fan.rays[cone[b]])
            if all(x == 0 for x in w):
                continue
            sides = [dot(w, fan.rays[i])
                     for i in cone if i not in (cone[a], cone[b])]
            if all(s > 0 for s in sides) or all(s < 0 for s in sides):
                ridges.append(tuple(sorted((cone[a], cone[b]))))
    return ridges


def is_complete_fan(fan):
    """Ridge pairing + adjacency connectivity + the Euler count.

    d=2 needs |rays| = |cones|; d=3 needs |rays| - |walls| + |cones| = 2.
    Returns False (never raises) on any structural defect.
    """
    assert fan.d in (2, 3)
    ridge_map = {}
    for ci, cone in enumerate(fan.cones):
        for ridge in _cone_ridges(fan, cone):
            ridge_map.setdefault(ridge, []).append(ci)
    if any(len(cs) != 2 for cs in ridge_map.values()):
        return False
    # walk the wall-adjacency graph
    n = len(fan.cones)
    seen = {0}
    queue = [0]
    adj = {}
    for c1, c2 in ridge_map.values():
        adj.setdefault(c1, []).append(c2)
        adj.setdefault(c2, []).append(c1)
    while queue:
        c = queue.pop()
        for nb in adj.get(c, ()):
            if nb not in seen:
                seen.add(nb)
                queue.append(nb)
    if len(seen) != n:
        return False
    if fan.d == 2:
        return len(fan.rays) == len(fan.cones)
    return len(fan.rays) - len(ridge_map) + len(fan.cones) == 2


def blow_up(fan, target):
    """Equivariant blow-up: stellar subdivision at the sum of target's rays.

    target is a maximal cone or a wall, given as ray indices.  Cone index
    bookkeeping matters for the search trees downstream and is fixed as:

    * full-dimensional cone at position i with sorted rays (c_0 < ... <
      c_{d-1}): the child missing c_{d-1} replaces position i, the child
      missing c_{d-2} is appended next (position k+1), and so on.
    * wall (d=3 only) between cones at positions i1 < i2 with spanning rays
      n1 < n2 and opposite rays p (of i1) and q (of i2): {p,n1,new} -> i1,
      {q,n1,new} -> i2, {p,n2,new} -> k+1, {q,n2,new} -> k+2.

    Parametric fans blow up symbolically; the new ray is a sum of existing
    ones so no parameter arithmetic beyond addition is needed.
    """
    d = fan.d
    target = tuple(sorted(target))
    if not target or any(not 0 <= i < len(fan.rays) for i in target):
        raise InvalidCone("ray indices %r out of range" % (target,))
    cones = list(fan.cones)
    s = len(fan.rays)  # index of the ray about to be created
    new_ray = fan.rays[target[0]]
    for i in target[1:]:
        new_ray = vec_add(new_ray, fan.rays[i])

    if len(target) == d and target in cones:
        i = cones.index(target)
        children = [tuple(sorted([x for x in target if x != target[j]] + [s]))
                    for j in range(d - 1, -1, -1)]
        cones[i] = children[0]
        cones.extend(children[1:])
    elif len(target) == d - 1:
        if d != 3:
            raise InvalidCone("wall blow-ups only make sense in dimension 3 "
                              "(in dimension 2 a wall is an existing ray)")
        incident = [ci for ci, c in enumerate(cones)
                    if set(target) <= set(c)]
        if len(incident) != 2:
            raise InvalidCone("wall %r lies in %d maximal cones"
                              % (target, len(incident)))
        i1, i2 = incident
        p = next(x for x in cones[i1] if x not in target)
        q = next(x for x in cones[i2] if x not in target)
        n1, n2 = target
        cones[i1] = tuple(sorted((p, n1, s)))
        cones[i2] = tuple(sorted((q, n1, s)))
        cones.append(tuple(sorted((p, n2, s))))
        cones.append(tuple(sorted((q, n2, s))))
    else:
        raise InvalidCone("%r is neither a maximal cone nor a wall" % (target,))

    if is_numeric_vector(new_ray):
        # smoothness guarantees the sum of a cone's rays is primitive, but
        # normalize defensively for inputs outside the pipeline
        new_ray, _ = normalize_primitive(tuple(expr_value(a) for a in new_ray))
    rays = fan.rays + (new_ray,)
    if isinstance(fan, ParamFan):
        return ParamFan(rays, cones, fan.bounds, fan.excluded, d)
    return Fan(rays, cones, d)


def instantiate(pf, assignment):
    """Substitute an integer assignment into a parametric fan.

    Checks bounds and exclusions (OutOfBounds), evaluates every ray, then
    normalizes primitively and verifies no ray vanished or collided with
    another (DegenerateRay).
    """
    for name, (lo, hi) in pf.bounds.items():
        v = assignment[name]
        if not lo <= v <= hi:
            raise OutOfBounds("%s = %d outside [%d, %d]" % (name, v, lo, hi))
        if v in pf.excluded.get(name, ()):
            raise OutOfBounds("%s = %d is an excluded value" % (name, v))
    rays = []
    for r in pf.rays:
        vals = tuple(a.evaluate(assignment) if isinstance(a, ParamExpr) else a
                     for a in r)
        if all(a == 0 for a in vals):
            raise DegenerateRay("ray %r evaluates to zero" % (r,))
        prim, _ = normalize_primitive(vals)
        rays.append(prim)
    if len(set(rays)) != len(rays):
        raise DegenerateRay("two rays coincide after substitution")
    return Fan(rays, pf.cones, pf.d)


def fan_canonical_key(fan):
    """Complete invariant of a smooth complete fan up to GL_d(Z), in integers.

    Across the wall opposite ray x of a cone, the far ray y of the next cone
    is y = sum a_i n_i - x, with n_i the wall's spanning rays and a_i its
    integer coefficients (edge_parameters).  A flag is a cone with an
    ordering of its rays, labelled 0..d-1.  From each flag the cones are
    walked breadth-first, crossing the facets of each cone in label order;
    each newly reached cone emits (label of y, the a_i in label order of
    the n_i), and unlabelled rays get the next label on first sight.

    The emitted items rebuild the fan from the flag: they name every cone's
    rays by label (the walk order depends only on labels already emitted,
    and a facet leads to a cone already reached exactly when another
    reached cone contains it), and y = sum a_i n_i - x writes every ray in
    the basis of the flag's rays.  For a smooth fan that basis is a lattice
    basis, so two fans with equal sequences from some flags are carried
    onto each other by the unimodular map between those bases.  The key is
    (number of cones, least sequence over all flags); a flag is dropped as
    soon as its prefix exceeds the least one found so far.

    Needs a concrete complete fan: a ridge not shared by two cones, or
    cones that do not form one connected sphere, raise NotComplete.  A
    wall with fractional coefficients raises NonIntegral and a wall whose
    two cones have determinants of different absolute value raises
    Inconsistent, both from edge_parameters.  A fan whose cones all have
    determinant +-D, D > 1, with integral walls is the image of a smooth
    fan under a non-unimodular map and gets that fan's key, so callers
    pass smooth fans.
    """
    cones = fan.cones
    across = {}
    for wall in walls_of(fan):
        coeffs = dict(zip(wall.ray_indices, edge_parameters(fan, wall).coeffs))
        (c1, c2), (p, q) = wall.incident, wall.opposite
        across[c1, p] = (c2, q, coeffs)
        across[c2, q] = (c1, p, coeffs)
    flags = [(start, flag) for start, cone in enumerate(cones)
             for flag in permutations(cone)]
    best = _flag_walk(cones, across, *flags[0], None)
    if len(best) != len(cones) - 1:
        raise NotComplete("the walls join %d of the %d cones"
                          % (len(best) + 1, len(cones)))
    for start, flag in flags[1:]:
        seq = _flag_walk(cones, across, start, flag, best)
        if seq is not None:
            best = seq
    return len(cones), tuple(best)


def _flag_walk(cones, across, start, flag, best):
    """The items one flag emits, or None once they exceed best's prefix."""
    label = {r: k for k, r in enumerate(flag)}
    seen = {start}
    queue = [start]
    seq = []
    tied = best is not None
    for c in queue:
        rays = sorted(cones[c], key=label.__getitem__)
        for x in rays:
            nxt, y, coeffs = across[c, x]
            if nxt in seen:
                continue
            seen.add(nxt)
            queue.append(nxt)
            if y not in label:
                label[y] = len(label)
            item = (label[y],) + tuple(coeffs[n] for n in rays if n != x)
            if tied:
                other = best[len(seq)]
                if item > other:
                    return None
                tied = item == other
            seq.append(item)
    return seq


__all__ = [
    "NotComplete", "InvalidCone", "NonIntegral", "ParametricWallUnsupported",
    "OutOfBounds", "DegenerateRay",
    "ParamExpr", "as_expr", "expr_value", "is_numeric_vector",
    "Fan", "ParamFan", "Wall", "EdgeParams",
    "walls_of", "edge_parameters",
    "is_smooth_fan", "is_complete_fan", "blow_up", "instantiate",
    "fan_canonical_key",
]

"""Rational simplicial fans: walls, wall tables, blow-ups, canonical keys.

A fan is stored combinatorially: a tuple of primitive rays plus maximal cones
as sorted tuples of ray indices, and a box of named integer parameters.  In a
family from the figure catalogue, ray entries are affine expressions in those
parameters (e.g. the ray (-1,-a)), and substituting an in-box assignment gives
a concrete fan: a fan whose box is empty, so its one point is ().

The blow-up of a fan at a cone sigma is the stellar subdivision at the sum of
sigma's primitive rays: every cone containing sigma is split.  For smooth fans
this is exactly the equivariant blow-up of the associated toric variety, and
it preserves smoothness and completeness (the new ray completes the same
bases; determinants are unchanged since det(z1,...,z_{d-1}, z1+...+zd) =
det(z1,...,zd)).

Wall coefficients are solved in integers only, one wall_table per concrete
fan; a family is instantiated before any wall is solved.
"""

from dataclasses import dataclass
from itertools import permutations
from operator import add

from .exact_linalg import (
    Inconsistent,
    Singular,
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


class OutOfBounds(ValueError):
    """Parameter assignment violates the declared bounds or exclusions."""


class DegenerateRay(ValueError):
    """Parameter substitution produced a zero or duplicate ray."""


# ---------------------------------------------------------------------------
# affine parameter expressions

class ParamExpr:
    """Affine expression const + sum(coeff * parameter) with integer values.

    Zero coefficients are never stored, so equal expressions compare and
    hash equal.
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
        if isinstance(other, int):
            return ParamExpr(self.const + sign * other, self.coeffs)
        return NotImplemented

    def __add__(self, other):
        return self._binop(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._binop(other, -1)

    def __neg__(self):
        return ParamExpr(-self.const, {n: -c for n, c in self.coeffs.items()})

    def __mul__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        return ParamExpr(self.const * k, {n: c * k for n, c in self.coeffs.items()})

    __rmul__ = __mul__

    def _key(self):
        return (self.const, tuple(sorted(self.coeffs.items())))

    def __eq__(self, other):
        if isinstance(other, ParamExpr):
            return self._key() == other._key()
        if isinstance(other, int):
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
    be represented; the structural operations (walls_of, wall_table,
    blow_up) reject them.

    Ray entries may be ParamExpr over the parameters of the box: bounds maps
    parameter name -> (lower, upper) and excluded maps parameter name ->
    frozenset of forbidden values inside those bounds.  Both are empty for a
    concrete fan.
    """

    __slots__ = ("rays", "cones", "d", "bounds", "excluded")

    def __init__(self, rays, cones, d=None, bounds=None, excluded=None):
        rays = tuple(tuple(r) for r in rays)
        if not rays:
            raise ValueError("fan needs at least one ray")
        if d is None:
            d = len(rays[0])
        if any(len(r) != d for r in rays):
            raise ValueError("rays of a %d-dimensional fan have other "
                             "lengths: %r" % (d, rays))
        cones = tuple(tuple(sorted(c)) for c in cones)
        if any(not 0 <= i < len(rays) for c in cones for i in c):
            raise ValueError("cones %r name a ray index outside 0..%d"
                             % (cones, len(rays) - 1))
        if len(set(rays)) != len(rays):
            raise ValueError("duplicate rays")
        self.rays = rays
        self.cones = cones
        self.d = d
        self.bounds = {n: (int(lo), int(hi))
                       for n, (lo, hi) in (bounds or {}).items()}
        self.excluded = {n: frozenset(vs)
                         for n, vs in (excluded or {}).items() if vs}

    def __eq__(self, other):
        return (isinstance(other, Fan) and self.rays == other.rays
                and self.cones == other.cones)

    def __hash__(self):
        return hash((self.rays, self.cones))

    def __repr__(self):
        return "Fan(d=%d, %d rays, %d cones)" % (self.d, len(self.rays),
                                                 len(self.cones))


@dataclass(frozen=True)
class Wall:
    """Codimension-1 cone shared by exactly two maximal cones.

    ray_indices span the wall; incident holds the two maximal-cone indices in
    increasing order; opposite[i] is the ray index completing incident[i].
    """
    ray_indices: tuple
    incident: tuple
    opposite: tuple


def walls_of(fan):
    """All walls of a complete simplicial fan, sorted by spanning ray indices.

    Raises NotComplete when some ridge lies in a number of maximal cones
    other than two, and ValueError on a cone with other than d rays.
    """
    return [Wall(ridge, (c1, c2), (p, q))
            for ridge, c1, p, c2, q in _paired_ridges(fan)]


def _paired_ridges(fan):
    """(ridge, c1, p, c2, q) per ridge, sorted by ridge.

    One pass over the cones: c1 < c2 are the two cones containing the
    ridge, and p, q the rays completing them.  NotComplete is checked on
    every ridge before anything is returned.
    """
    d = fan.d
    ridges = {}
    for ci, cone in enumerate(fan.cones):
        if len(cone) != d:
            raise ValueError("walls need a simplicial fan, cone %r has %d "
                             "rays" % (cone, len(cone)))
        if d == 3:
            a, b, c = cone
            pairs = (((b, c), a), ((a, c), b), ((a, b), c))
        else:
            pairs = [(tuple(i for i in cone if i != drop), drop)
                     for drop in cone]
        for ridge, opp in pairs:
            entry = ridges.get(ridge)
            if entry is None:
                ridges[ridge] = [ridge, ci, opp]
            else:
                entry += (ci, opp)
    paired = sorted(ridges.values())
    for entry in paired:
        if len(entry) != 5:
            raise NotComplete("ridge %r lies in %d maximal cones, want 2"
                              % (list(entry[0]), len(entry) // 2))
    return paired


def wall_table(fan):
    """(ridge, incident, opposite, coeffs) for every wall, in walls_of order.

    The ridges are paired as in walls_of (incident in increasing order,
    opposite[i] the ray completing incident[i]); then each wall is solved
    by _wall_coeffs: coeffs are the integers a_i with r1 + r2 = sum a_i n_i,
    n_i the wall's spanning rays and r1, r2 its opposite rays.  Needs a
    concrete simplicial fan in dimension 2 or 3, so a family is
    instantiated first.  Raises what walls_of raises: NotComplete for a
    ridge in a number of cones other than two (checked on every ridge
    before any wall is solved) and ValueError for a cone with other than d
    rays; and Inconsistent, NonIntegral or Singular from the solve.
    """
    rays = fan.rays
    table = []
    for ridge, c1, p, c2, q in _paired_ridges(fan):
        s = tuple(map(add, rays[p], rays[q]))
        coeffs = _wall_coeffs([rays[i] for i in ridge], s, ridge)
        table.append((ridge, (c1, c2), (p, q), coeffs))
    return table


def _wall_coeffs(spanning, s, ridge):
    """The integer coefficients a_i with s = sum a_i n_i on one wall.

    spanning holds the wall's integer rays n_i, and s is an integer
    vector.  With no division until the end:

      d=2 (wall = one ray n):  a = s_k / n_k at the first nonzero n_k,
      d=3 (w = n1 x n2):       a1 <w,w> = <s x n2, w>,  a2 <w,w> = <n1 x s, w>.

    These quotients are the coordinates of s in the basis n_i whenever s
    lies in the wall's span, i.e. <s, w> = 0 in 3D and det(s, n) = 0 in
    2D.  So s off the span raises Inconsistent, a fractional quotient
    raises NonIntegral (a non-smooth wall) and dependent spanning rays
    raise Singular.  ridge only names the wall in the messages.
    """
    if len(s) == 2:
        (n,) = spanning
        k = 0 if n[0] else 1
        den = n[k]
        if not den:
            raise Singular("wall %r is spanned by the zero ray" % (ridge,))
        off_span = s[0] * n[1] - s[1] * n[0]
        nums = (s[k],)
    elif len(s) == 3:
        (x1, y1, z1), (x2, y2, z2) = spanning
        sx, sy, sz = s
        w0, w1, w2 = y1 * z2 - z1 * y2, z1 * x2 - x1 * z2, x1 * y2 - y1 * x2
        den = w0 * w0 + w1 * w1 + w2 * w2
        if not den:
            raise Singular("wall %r is spanned by dependent rays" % (ridge,))
        off_span = sx * w0 + sy * w1 + sz * w2
        nums = ((sy * z2 - sz * y2) * w0 + (sz * x2 - sx * z2) * w1
                + (sx * y2 - sy * x2) * w2,
                (y1 * sz - z1 * sy) * w0 + (z1 * sx - x1 * sz) * w1
                + (x1 * sy - y1 * sx) * w2)
    else:
        raise ValueError("edge parameters need dimension 2 or 3, got %d"
                         % (len(s),))
    if off_span != 0:
        raise Inconsistent("wall %r: opposite rays sum outside its span"
                           % (ridge,))
    coeffs = tuple([_exact_quotient(x, den) for x in nums])
    if None in coeffs:
        raise NonIntegral("edge-parameters %r / %d on wall %r"
                          % (nums, den, ridge))
    return coeffs


def _exact_quotient(x, den):
    """x / den for an int x when exact, else None."""
    q, r = divmod(x, den)
    return None if r else q


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
    return Fan(fan.rays + (new_ray,), cones, d, fan.bounds, fan.excluded)


def instantiate(pf, assignment):
    """The concrete fan at one point of pf's parameter box.

    Checks bounds and exclusions (OutOfBounds), evaluates every ray, then
    normalizes primitively and verifies no ray vanished or collided with
    another (DegenerateRay).  A concrete pf has the one point {}.
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
    integer coefficients (wall_table).  A flag is a cone with an ordering
    of its rays, labelled 0..d-1.  From each flag the cones are walked
    breadth-first, crossing the facets of each cone in label order; each
    newly reached cone emits (label of y, the a_i in label order of the
    n_i), and unlabelled rays get the next label on first sight.

    The emitted items rebuild the fan from the flag: they name every cone's
    rays by label (the walk order depends only on labels already emitted,
    and a facet leads to a cone already reached exactly when another
    reached cone contains it), and y = sum a_i n_i - x writes every ray in
    the basis of the flag's rays.  For a smooth fan that basis is a lattice
    basis, so two fans with equal sequences from some flags are carried
    onto each other by the unimodular map between those bases.  The key is
    (number of cones, least sequence over all flags).

    Only flags that can give the least sequence are walked.  A flag's first
    item comes from the facet opposite flag[0]: its far ray is new, so the
    item is (d, coefficients of flag[1:] on that wall).  The least sequence
    starts with the least first item, so the flags with a larger one are
    cut before any walk: the least first item is d and the least sorted
    coefficient tuple of any wall, and the flags left start on either side
    of such a wall, with its spanning rays in an order that reads that
    tuple.  A walked flag is dropped as soon as its prefix exceeds the
    least sequence found so far.

    Needs a concrete complete fan.  The errors come from wall_table: a
    ridge not shared by two cones raises NotComplete, a wall with
    fractional coefficients raises NonIntegral and a wall whose two cones
    have determinants of different absolute value raises Inconsistent.
    Cones that do not form one connected sphere raise NotComplete, checked
    on the first walked flag (every flag reaches every cone of a connected
    fan, and none does otherwise).  A fan whose cones all have determinant
    +-D, D > 1, with integral walls is the image of a smooth fan under a
    non-unimodular map and gets that fan's key, so callers pass smooth
    fans.
    """
    cones = fan.cones
    table = wall_table(fan)
    across = {}
    for ridge, (c1, c2), (p, q), coeffs in table:
        coeffs = dict(zip(ridge, coeffs))
        across[c1, p] = (c2, q, coeffs)
        across[c2, q] = (c1, p, coeffs)
    # the least ordering of a wall's coefficients is their sorted tuple
    firsts = [tuple(sorted(coeffs)) for *_, coeffs in table]
    least = min(firsts)
    flags = []
    for (ridge, incident, opposite, coeffs), first in zip(table, firsts):
        if first != least:
            continue
        by_ray = dict(zip(ridge, coeffs))
        orders = [perm for perm in permutations(ridge)
                  if tuple(by_ray[n] for n in perm) == least]
        flags.extend((c, (x,) + perm)
                     for c, x in zip(incident, opposite) for perm in orders)
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
    "NotComplete", "InvalidCone", "NonIntegral",
    "OutOfBounds", "DegenerateRay",
    "ParamExpr", "expr_value", "is_numeric_vector",
    "Fan", "Wall",
    "walls_of", "wall_table",
    "blow_up", "instantiate",
    "fan_canonical_key",
]

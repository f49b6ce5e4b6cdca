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

Wall coefficients are solved in integers only, at most once per concrete
fan, which keeps its table.  What the cones alone fix (which cones meet
across each ridge, and the order and labels of every flag walk of the
canonical key) is worked out once per cone set and shared by all the fans
of a family.  A 3D family's box is walked once (wall_sum_box): each wall
is tested against the wall-sum cap and solved as soon as its four rays are
fixed, so a wall that reads no parameter is solved once per family, and
every kept point yields its concrete fan with its wall table in hand.
"""

from dataclasses import dataclass
from itertools import chain, permutations
from math import gcd
from operator import add, itemgetter

from . import InvariantError
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

    _walls is the fan's _Walls, made on first use and shared with every fan
    instantiate or wall_sum_box makes from it.  _table holds the
    coefficients of every wall in _paired_ridges order, handed over by
    wall_sum_box or solved on first use.
    """

    __slots__ = ("rays", "cones", "d", "bounds", "excluded", "_walls",
                 "_table")

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
        self._walls = None
        self._table = None

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
            for ridge, c1, p, c2, q in _wall_structure(fan).paired]


class _Walls:
    """What a cone set fixes about its walls, whatever the rays.

    paired is _paired_ridges' list.  across maps (cone, ray x) to (the
    cone across the facet opposite x, its far ray y, the wall's index in
    paired).  walks maps a flag (start cone, then its rays in label order)
    to that flag's compiled walk (_compile_walk).  Only the cones and the
    ray count are read, so the fans of one family share one.
    """

    __slots__ = ("paired", "across", "walks")

    def __init__(self):
        self.paired = None


def _wall_structure(fan):
    """fan's _Walls with its ridges paired, made and paired on first use.

    Pairing raises what _paired_ridges raises, and then nothing is kept,
    so every later call raises the same.
    """
    walls = fan._walls
    if walls is None:
        walls = fan._walls = _Walls()
    if walls.paired is None:
        paired = _paired_ridges(fan)
        across = {}
        for w, (ridge, c1, p, c2, q) in enumerate(paired):
            across[c1, p] = (c2, q, w)
            across[c2, q] = (c1, p, w)
        walls.across = across
        walls.walks = {}
        walls.paired = paired
    return walls


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
    n_i the wall's spanning rays and r1, r2 its opposite rays.  The
    coefficients are solved once per fan and kept, or come from
    wall_sum_box, which solved them already.  Needs a concrete simplicial
    fan in dimension 2 or 3.  Raises what walls_of raises: NotComplete for a
    ridge in a number of cones other than two (checked on every ridge
    before any wall is solved) and ValueError for a cone with other than d
    rays; and Inconsistent, NonIntegral or Singular from the solve.
    """
    walls, table = _coefficients(fan)
    return [(ridge, (c1, c2), (p, q), coeffs) for (ridge, c1, p, c2, q), coeffs
            in zip(walls.paired, table)]


def _coefficients(fan):
    """fan's _Walls and its table: the coefficients of every paired ridge,
    solved on first use and kept on the fan.  A solve that raises keeps
    nothing, so every later call raises the same."""
    walls = _wall_structure(fan)
    if fan._table is None:
        fan._table = _solve_walls(fan.rays, walls.paired)
    return walls, fan._table


def _solve_walls(rays, paired):
    """_wall_coeffs of every paired ridge, in order."""
    return [_wall_coeffs([rays[i] for i in ridge],
                         tuple(map(add, rays[p], rays[q])), ridge)
            for ridge, _, p, _, q in paired]


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
    another (DegenerateRay).  The fan has pf's cones, already checked when
    pf was built, and shares pf's _Walls.  A concrete pf has the one point
    {}, and its fan is pf itself.
    """
    if not pf.bounds:
        return pf
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
    rays = tuple(rays)
    if len(set(rays)) != len(rays):
        raise DegenerateRay("two rays coincide after substitution")
    if pf._walls is None:
        pf._walls = _Walls()
    return _instance(pf, rays, None)


def _instance(pf, rays, table):
    """The concrete fan with these rays and pf's cones and _Walls, holding
    table (None: solved on first use).  Nothing is checked."""
    fan = Fan.__new__(Fan)
    fan.rays, fan.cones, fan.d = rays, pf.cones, pf.d
    fan.bounds, fan.excluded = {}, {}
    fan._walls, fan._table = pf._walls, table
    return fan


def wall_sum_box(pf, names, axes, max_points):
    """(values, fan) for each point of the box product(*axes) whose fan
    passes rhs.passes_wall_sum, in itertools.product order.

    pf is a 3D fan, names its parameters in the order of axes (none for a
    concrete fan, whose box is the one point () and whose fan is pf).
    Parameters are fixed in names order; a ray is evaluated once all it
    reads are fixed, and a wall is tested once its four rays are, so a
    failed wall drops the rest of the box below it.  The test runs on the
    evaluated rays: with s the sum of a wall's two opposite rays and w =
    n1 x n2, _wall_coeffs' numerators are <s x n2, w> and <n1 x s, w>, and
    the coefficient sum needs no division, (a1 + a2) <w, w> = <s x n2 + n1
    x s, w>.  A wall that passes is solved from the same numerators, so
    each wall is solved once per point of the parameters it reads, and
    each fan holds its wall table.  A wall that does not solve in integers
    leaves the fan without a table, and wall_table raises its error.

    Points with a zero or duplicate ray are skipped, as instantiate's
    DegenerateRay skips them.  The cones of every 3D family are unimodular
    at every point of its box, so every ray comes out primitive and is not
    normalized; a ray that is not raises InvariantError.
    """
    walls = _wall_structure(pf)
    pos = {n: t for t, n in enumerate(names)}
    ray_step, plans = [], [([], []) for _ in range(len(names) + 1)]
    for ri, ray in enumerate(pf.rays):
        entries = [(x.const, tuple((pos[n], c) for n, c in x.coeffs.items()))
                   if isinstance(x, ParamExpr) else (x, ()) for x in ray]
        ray_step.append(max((t + 1 for _, ts in entries for t, _ in ts),
                          default=0))
        plans[ray_step[-1]][0].append((ri, tuple(entries)))
    for w, (ridge, _, p, _, q) in enumerate(walls.paired):
        four = ridge + (p, q)
        plans[max(ray_step[i] for i in four)][1].append((w,) + four)
    rays = [None] * len(pf.rays)
    table = [None] * len(walls.paired)
    vals = [0] * len(names)
    cap = max_points - 2 * pf.d
    if not _place(plans[0], vals, rays, table, cap):
        return []
    if not names:
        if pf._table is None and None not in table:
            pf._table = table
        return [((), pf)]
    out = []
    _fix_parameters(pf, axes, plans, 0, vals, rays, table, cap, out)
    return out


def _place(plan, vals, rays, table, cap):
    """Evaluate the plan's rays on vals, then test and solve its walls.

    False at the first wall past the cap.  A wall that passes gets its
    coefficients in table, or None when they are not integers.
    """
    new_rays, walls = plan
    for ri, entries in new_rays:
        ray = []
        for const, terms in entries:
            for t, c in terms:
                const += c * vals[t]
            ray.append(const)
        rays[ri] = ray
    for w, n1, n2, p, q in walls:
        (x1, y1, z1), (x2, y2, z2) = rays[n1], rays[n2]
        (p0, p1, p2), (q0, q1, q2) = rays[p], rays[q]
        sx, sy, sz = p0 + q0, p1 + q1, p2 + q2
        d0, d1, d2 = x2 - x1, y2 - y1, z2 - z1
        w0, w1, w2 = y1 * z2 - z1 * y2, z1 * x2 - x1 * z2, x1 * y2 - y1 * x2
        den = w0 * w0 + w1 * w1 + w2 * w2
        # (a1 + a2) <w, w> = <s x (n2 - n1), w>
        total = ((sy * d2 - sz * d1) * w0 + (sz * d0 - sx * d2) * w1
                 + (sx * d1 - sy * d0) * w2)
        if total > cap * den:
            return False
        # _wall_coeffs' solve: s in the span, and both quotients exact
        if not den or sx * w0 + sy * w1 + sz * w2:
            table[w] = None
            continue
        num = ((sy * z2 - sz * y2) * w0 + (sz * x2 - sx * z2) * w1
               + (sx * y2 - sy * x2) * w2)       # a1 <w, w> = <s x n2, w>
        a1, r1 = divmod(num, den)
        a2, r2 = divmod(total - num, den)
        table[w] = None if r1 or r2 else (a1, a2)
    return True


def _fix_parameters(pf, axes, plans, t, vals, rays, table, cap, out):
    """Kept points for parameters t, t+1, ... given vals[:t]."""
    if t == len(axes):
        fan_rays = tuple(map(tuple, rays))
        distinct = set(fan_rays)
        if len(distinct) != len(fan_rays) or (0, 0, 0) in distinct:
            return                # a degenerate point
        for ray in fan_rays:
            if gcd(*ray) != 1:
                raise InvariantError("ray %r of %r at %r is not primitive"
                                     % (ray, pf, vals))
        out.append((tuple(vals), _instance(
            pf, fan_rays, None if None in table else list(table))))
        return
    for v in axes[t]:
        vals[t] = v
        if _place(plans[t + 1], vals, rays, table, cap):
            _fix_parameters(pf, axes, plans, t + 1, vals, rays, table, cap,
                            out)


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
    tuple.

    A walk's order and labels depend on the cones and the flag alone, so
    each flag's walk is compiled once per cone set (_compile_walk) and a
    fan only reads each walked flag's items off its wall table.

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
    walls, table = _coefficients(fan)
    paired = walls.paired
    # the least ordering of a wall's coefficients is their sorted tuple
    firsts = [tuple(sorted(coeffs)) for coeffs in table]
    least = min(firsts)
    # a walk's items are read off the labels 0, 1, ... and then the
    # coefficients of every wall, in order
    values = list(range(len(fan.rays)))
    values.extend(chain.from_iterable(table))
    best = None
    for w, first in enumerate(firsts):
        if first != least:
            continue
        ridge, c1, p, c2, q = paired[w]
        by_ray = dict(zip(ridge, table[w]))
        for perm in permutations(ridge):
            if tuple(by_ray[n] for n in perm) != least:
                continue
            for flag in ((c1, p) + perm, (c2, q) + perm):
                walk = walls.walks.get(flag)
                if walk is None:
                    walk = walls.walks[flag] = _compile_walk(fan, walls,
                                                             flag)
                seq = walk(values)
                if best is None or seq < best:
                    best = seq
    d = fan.d
    return len(fan.cones), tuple(best[i:i + d] for i in range(0, len(best), d))


def _compile_walk(fan, walls, flag):
    """One flag's walk as an itemgetter of values, flattened.

    flag is (start cone, its rays in label order).  Each newly reached
    cone adds d positions to the getter: the label of its far ray, then
    each coefficient of the wall crossed, in label order of its spanning
    rays.  In values the labels come first, one per ray of the fan, and
    wall w's coefficients start at len(fan.rays) + w * (d - 1), so the
    getter returns the walk's items end to end; items all have length d,
    so flat sequences compare as the item sequences do.  Raises
    NotComplete when the walk misses a cone.
    """
    cones = fan.cones
    start, order = flag[0], flag[1:]
    d = len(order)
    label = {r: k for k, r in enumerate(order)}
    seen = {start}
    queue = [start]
    picks = []
    for c in queue:
        ordered = sorted(cones[c], key=label.__getitem__)
        for x in ordered:
            nxt, y, w = walls.across[c, x]
            if nxt in seen:
                continue
            seen.add(nxt)
            queue.append(nxt)
            if y not in label:
                label[y] = len(label)
            ridge = walls.paired[w][0]
            base = len(fan.rays) + w * (d - 1)
            picks.append(label[y])
            picks.extend(base + ridge.index(n) for n in ordered if n != x)
    if len(seen) != len(cones):
        raise NotComplete("the walls join %d of the %d cones"
                          % (len(seen), len(cones)))
    return itemgetter(*picks)


__all__ = [
    "NotComplete", "InvalidCone", "NonIntegral",
    "OutOfBounds", "DegenerateRay",
    "ParamExpr", "expr_value", "is_numeric_vector",
    "Fan", "Wall",
    "walls_of", "wall_table",
    "blow_up", "instantiate", "wall_sum_box",
    "fan_canonical_key",
]

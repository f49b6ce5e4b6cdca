"""Rational simplicial fans: walls, wall tables, blow-ups, canonical keys.

A fan is stored combinatorially: a tuple of primitive rays plus maximal cones
as sorted tuples of ray indices, and a box of named integer parameters.  In a
family from the figure catalogue, ray entries are ints or affine expressions
in those parameters (ParamExpr, e.g. the ray (-1,-a)); an entry that reads no
parameter is always an int.  Substituting an in-box assignment gives a
concrete fan: a fan whose box is empty, so its one point is ().

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
of a family.  A 3D family's box, the whole range of each parameter that
its bounds give, is walked once (wall_sum_box, its one reader): each wall
is solved and tested against the wall-sum cap as soon as its four rays are
fixed, so a wall that reads no parameter is solved once per family, and
every kept point yields its concrete fan with its wall table in hand.
Each parameter's axis is cut to its admissible run before it is walked:
a wall's coefficients are polynomials of degree at most 3 in the
parameter being fixed, and where a few samples show they are lines with
the wall smooth throughout, "sum <= cap" is a half-line.  The cut proves
the smoothness premise on the whole axis, and the run's coefficients are
read off the lines with no solve; an axis it cannot cut is scanned value
by value.

Every wall is solved by one rule, Cramer's rule in the lattice basis of
the unimodular cone on one side (_solve, shared by the box pass and
wall_table; in 2D its one-ray form), so a wall that is not smooth raises
InvariantError and a parametric wall coefficient is an integer
polynomial of degree at most 3 in the parameters.
"""

from bisect import bisect
from dataclasses import dataclass
from itertools import chain
from operator import itemgetter

from . import InvariantError
from .exact_linalg import (
    inverse_unimodular,  # unused: kept for perfbench/traced.py to wrap
    normalize_primitive,
    vec_add,
)


class NotComplete(ValueError):
    """A ridge of the fan is not shared by exactly two maximal cones."""


class InvalidCone(ValueError):
    """Blow-up target is neither a maximal cone nor a wall of the fan."""


class OutOfBounds(ValueError):
    """Parameter assignment violates the declared bounds or exclusions."""


class DegenerateRay(ValueError):
    """Parameter substitution produced a zero or duplicate ray."""


# ---------------------------------------------------------------------------
# affine parameter expressions

class ParamExpr:
    """Affine expression const + sum(coeff * parameter) with integer values,
    in at least one parameter.

    Zero coefficients are never stored, and arithmetic that cancels every
    parameter returns a plain int, so an expression with no parameter is
    always an int: equal expressions compare and hash equal, and no
    ParamExpr equals an int.  ParamExpr(const, coeffs) with no nonzero
    coefficient raises ValueError.
    """

    __slots__ = ("const", "coeffs")

    def __init__(self, const, coeffs):
        self.coeffs = {n: c for n, c in coeffs.items() if c != 0}
        if not self.coeffs:
            raise ValueError("%r reads no parameter: that is the int %d"
                             % (coeffs, const))
        self.const = const

    @classmethod
    def var(cls, name):
        return cls(0, {name: 1})

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
            const = self.const + sign * other.const
            return ParamExpr(const, coeffs) if any(coeffs.values()) else const
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
        if not k:
            return 0
        return ParamExpr(self.const * k, {n: c * k for n, c in self.coeffs.items()})

    __rmul__ = __mul__

    def _key(self):
        return (self.const, tuple(sorted(self.coeffs.items())))

    def __eq__(self, other):
        if isinstance(other, ParamExpr):
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
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


# ---------------------------------------------------------------------------
# fans

class Fan:
    """Complete simplicial fan: primitive rays + maximal cones as index sets.

    The rays' length d must be 2 or 3 (ValueError otherwise).  Cones are
    normalized to sorted tuples.  Cones with more than d rays are
    tolerated at construction so that normal fans of non-simple polytopes can
    be represented; the structural operations (walls_of, wall_table,
    blow_up) reject them.

    Ray entries are ints, or ParamExpr over the parameters of the box
    (an entry that reads no parameter is an int, so equal rays are equal
    tuples and set() finds them): bounds maps
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

    def __init__(self, rays, cones, bounds=None, excluded=None):
        rays = tuple(tuple(r) for r in rays)
        if not rays:
            raise ValueError("fan needs at least one ray")
        d = len(rays[0])
        if d not in (2, 3):
            raise ValueError("fans are handled in dimension 2 or 3, got %d"
                             % (d,))
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

    paired is _paired_ridges' list.  across[c] maps each ray x of cone c
    to (the cone across the facet opposite x, its far ray y, the wall's
    index in paired).  starts holds, per wall, None until
    fan_canonical_key first starts a walk across it, then that wall's
    _wall_starts: the flags that start there, each with the getters of
    its start-cone items (_compile_start) and of its walk (_compile_walk)
    once compiled.  stars is None until star_cycles first needs it, then
    each ray's star as compiled by _compile_stars.  Only the cones and
    the ray count are read, so the fans of one family share one.
    """

    __slots__ = ("paired", "across", "starts", "stars")

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
        across = [{} for _ in fan.cones]
        for w, (ridge, c1, p, c2, q) in enumerate(paired):
            across[c1][p] = (c2, q, w)
            across[c2][q] = (c1, p, w)
        walls.across = across
        walls.starts = [None] * len(paired)
        walls.stars = None
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
    opposite[i] the ray completing incident[i]); coeffs are the integers
    a_i with r1 + r2 = sum a_i n_i, n_i the wall's spanning rays and r1,
    r2 its opposite rays.  The coefficients come from wall_sum_box, which
    solved every wall of the fans it yields, or are solved once on first
    use by the box pass's rule (_solve_walls) and kept.  Needs a concrete
    simplicial fan: a family raises ValueError, naming its parameters.
    Raises what walls_of raises: NotComplete for a ridge in a number of
    cones other than two (checked on every ridge before any wall is
    solved) and ValueError for a cone with other than d rays; and
    InvariantError for a wall whose two cones are not unimodular on its
    two sides.
    """
    walls, table = _coefficients(fan)
    return [(ridge, (c1, c2), (p, q), coeffs) for (ridge, c1, p, c2, q), coeffs
            in zip(walls.paired, table)]


def star_cycles(fan):
    """The coefficient cycle of every ray's star, in ray order.

    The star of a ray v of a concrete smooth complete 3D fan, taken
    modulo v, is a smooth complete 2D fan whose rays are the images of
    v's neighbours u, in their cyclic order around v.  Across the wall
    {v, u}, with opposite rays p and q, p + q = a_v v + a_u u, so modulo v
    the images of p and q (u's two neighbours in the cycle) sum to a_u
    times the image of u: the cycle's entry at u is a_u, read off the
    wall table.  The cycle has deg v entries and is the one
    rhs.least_perimeter reads.  Raises what wall_table raises.
    """
    walls, table = _coefficients(fan)
    if walls.stars is None:
        walls.stars = _compile_stars(fan, walls)
    flat = list(chain.from_iterable(table))
    return [star(flat) for star in walls.stars]


def _compile_stars(fan, walls):
    """Per ray, an itemgetter of the flattened wall table that returns its
    star cycle.

    Around ray v, a cone (v, u, x) leads across the facet opposite x,
    the wall {v, u}, to the cone (v, u, y), which leads on across the
    wall {v, y}; the walk ends back at its first cone.  Wall w's
    coefficient at u is the first of its coefficients listed from u
    (_spots).  Needs a 3D fan whose every ray lies in a cone.
    """
    first = {}
    for c, cone in enumerate(fan.cones):
        for v in cone:
            first.setdefault(v, (c, cone))
    stars = []
    for v in range(len(fan.rays)):
        start, cone = first[v]
        u, x = (r for r in cone if r != v)
        c, picks = start, []
        while True:
            c, y, w = walls.across[c][x]
            picks.append(_spots(walls, w, u, 0)[0])
            if c == start:
                break
            u, x = y, u
        stars.append(itemgetter(*picks))
    return stars


def _coefficients(fan):
    """fan's _Walls and its table: the coefficients of every paired ridge,
    from wall_sum_box or solved on first use (_solve_walls) and kept on
    the fan.  A solve that raises keeps nothing, so every later call
    raises the same.  A fan with a parameter box has no numeric walls to
    solve, so a family raises ValueError first."""
    walls = _wall_structure(fan)
    if fan._table is None:
        if fan.bounds:
            raise ValueError("%r has the parameters %s: wall coefficients "
                             "need a concrete fan (instantiate it first)"
                             % (fan, ", ".join(sorted(fan.bounds))))
        fan._table = _solve_walls(fan, walls.paired)
    return walls, fan._table


def _solve_walls(fan, paired):
    """The coefficients of every paired ridge of fan, in order.

    Each wall is solved in the basis (n..., p) of the cone on p's side:
    with e = det(n..., p) = +-1 and det(n..., q) = -e, Cramer's rule
    writes p + q in the spanning rays n.  In 3D that is _place on every
    wall, with no cap; in 2D the wall is one ray n and p + q = a n with
    a = e det(q, p).  Any other wall raises InvariantError.
    """
    rays = fan.rays
    table = [None] * len(paired)
    if fan.d == 3:
        _place(((), [(w,) + ridge + (p, q)
                     for w, (ridge, _, p, _, q) in enumerate(paired)], ()),
               (), rays, table, None)
        return table
    for w, ((n,), _, p, _, q) in enumerate(paired):
        (x, y), (p0, p1), (q0, q1) = rays[n], rays[p], rays[q]
        e = x * p1 - y * p0                          # det(n, p)
        f = x * q1 - y * q0                          # det(n, q)
        if e * e != 1 or e * f != -1:
            raise InvariantError(
                "wall %r is not smooth at n, p, q = %r: det(n, p) = %d, "
                "det(n, q) = %d" % ((n,), (rays[n], rays[p], rays[q]), e, f))
        table[w] = (e * (q0 * p1 - q1 * p0),)        # e det(q, p)
    return table


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
    return Fan(fan.rays + (blow_up_ray(fan.rays, target),), cones,
               fan.bounds, fan.excluded)


def blow_up_ray(rays, target):
    """The ray a blow-up at target (ray indices) adds: the sum of its rays.

    A sum with no parameter left is normalized to a primitive integer
    vector; smoothness makes it primitive already, but inputs from outside
    the pipeline may not be smooth.
    """
    new_ray = rays[target[0]]
    for i in target[1:]:
        new_ray = vec_add(new_ray, rays[i])
    if not any(isinstance(a, ParamExpr) for a in new_ray):
        new_ray, _ = normalize_primitive(new_ray)
    return new_ray


def instantiate(pf, assignment):
    """The concrete fan at one point of pf's parameter box.

    assignment maps every parameter of the box, and nothing else, to a
    value inside its bounds and not excluded (OutOfBounds, naming the
    parameter, otherwise).  Every ray is evaluated, then normalized
    primitively and verified not to vanish or collide with another
    (DegenerateRay).  The fan has pf's cones, already checked when pf was
    built, and shares pf's _Walls.  A concrete pf has the one point {},
    and its fan is pf itself.
    """
    unknown = sorted(set(assignment) - set(pf.bounds))
    if unknown:
        raise OutOfBounds("%s is not a parameter of %r" % (unknown[0], pf))
    if not pf.bounds:
        return pf
    for name, (lo, hi) in sorted(pf.bounds.items()):
        v = assignment.get(name)
        if v is None:
            raise OutOfBounds("parameter %s has no value" % (name,))
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
    table (None: solved on first use).  Nothing is checked, and pf's
    _Walls must exist."""
    fan = Fan.__new__(Fan)
    fan.rays, fan.cones, fan.d = rays, pf.cones, pf.d
    fan.bounds, fan.excluded = {}, {}
    fan._walls, fan._table = pf._walls, table
    return fan


def wall_sum_box(pf, max_points):
    """(assignment, fan) for each point of pf's box whose fan passes
    rhs.passes_wall_sum, in itertools.product order over the axes.

    pf is a 3D fan.  Its box is read off pf.bounds: one axis per
    parameter, in sorted name order, each the whole range from its lower
    to its upper bound, and assignment is the sorted (name, value) tuple
    of the point (a concrete fan's box is the one point ()).  A family
    with excluded values raises ValueError.  Parameters are fixed in name
    order; a ray is evaluated once all it reads are fixed, and a wall is
    solved and tested once its four rays are (_place), so a wall past the
    cap drops the rest of the box below it.  Each axis is first cut to
    the run of values that pass the walls it completes (_cut_axis), whose
    coefficients it reads off lines, so most values are neither solved
    nor tested one by one.

    Every point has one of two outcomes: a wall past the cap drops it, or
    it is kept, as a fan with pf's cones and _Walls, the rays as evaluated
    and its complete wall table.  The solve needs the cones of a 3D family
    to be unimodular on its whole box, with each wall between its two
    opposite rays; a point where this fails raises InvariantError, and so
    does a kept point with two equal rays.  A cut axis holds no such
    point: the cut proves the premise on the whole axis for every wall
    the scan would test there, and an axis where it cannot is scanned
    value by value, raising where the scan raises.  A ray of a unimodular
    cone is primitive, so no ray is normalized.
    """
    if pf.excluded:
        raise ValueError("%r excludes values of %s: the box pass walks whole "
                         "ranges" % (pf, ", ".join(sorted(pf.excluded))))
    names = sorted(pf.bounds)
    axes = [range(pf.bounds[n][0], pf.bounds[n][1] + 1) for n in names]
    walls = _wall_structure(pf)
    pos = {n: t for t, n in enumerate(names)}
    ray_step, plans = [], [([], [], []) for _ in range(len(names) + 1)]
    for ri, ray in enumerate(pf.rays):
        entries = [(x.const, tuple((pos[n], c) for n, c in x.coeffs.items()))
                   if isinstance(x, ParamExpr) else (x, ()) for x in ray]
        ray_step.append(max((t + 1 for _, ts in entries for t, _ in ts),
                          default=0))
        plans[ray_step[-1]][0].append((ri, tuple(entries)))
    for w, (ridge, _, p, _, q) in enumerate(walls.paired):
        four = ridge + (p, q)
        step = max(ray_step[i] for i in four)
        wall = (w,) + four
        plans[step][1].append(wall)
        # the rays of this step are the ones that move with its parameter
        if sum(ray_step[i] == step for i in four) > 1:
            plans[step][2].append(wall)
    rays = [None] * len(pf.rays)
    table = [None] * len(walls.paired)
    vals = [0] * len(names)
    cap = max_points - 2 * pf.d
    out = []
    if _place(plans[0], vals, rays, table, cap):
        _fix_parameters(pf, axes, plans, 0, vals, rays, table, cap, out)
    return [(tuple(zip(names, point)), fan) for point, fan in out]


def _evaluate(new_rays, vals, rays):
    """Evaluate each (ray index, entries) of new_rays on vals into rays."""
    for ri, entries in new_rays:
        ray = []
        for const, terms in entries:
            for t, c in terms:
                const += c * vals[t]
            ray.append(const)
        rays[ri] = ray


def _solve(walls, rays):
    """(e, f, a1 + a2, a1) for each wall (w, n1, n2, p, q) of walls: the
    wall spanned by n1, n2 with opposite rays p and q, solved in the basis
    n1, n2, p.

    e = det(n1, n2, p) and f = det(n1, n2, q).  If e = +-1, Cramer's rule
    gives q the coordinates e det(q, n2, p), e det(n1, q, p) and
    e det(n1, n2, q).  If also e f = -1, so that q lies across the wall in
    a unimodular cone, then p + q = a1 n1 + a2 n2 with a1 = e det(q, n2, p)
    and a2 = e det(n1, q, p).  Nothing is checked here.
    """
    out = []
    for _, n1, n2, p, q in walls:
        (x1, y1, z1), (x2, y2, z2) = rays[n1], rays[n2]
        (p0, p1, p2), (q0, q1, q2) = rays[p], rays[q]
        w0, w1, w2 = y1 * z2 - z1 * y2, z1 * x2 - x1 * z2, x1 * y2 - y1 * x2
        e = p0 * w0 + p1 * w1 + p2 * w2              # det(n1, n2, p)
        # a1 + a2 = e det(q, n2 - n1, p)
        d0, d1, d2 = x2 - x1, y2 - y1, z2 - z1
        out.append((
            e, q0 * w0 + q1 * w1 + q2 * w2,          # f = det(n1, n2, q)
            e * (q0 * (d1 * p2 - d2 * p1) + q1 * (d2 * p0 - d0 * p2)
                 + q2 * (d0 * p1 - d1 * p0)),
            e * (q0 * (y2 * p2 - z2 * p1) + q1 * (z2 * p0 - x2 * p2)
                 + q2 * (x2 * p1 - y2 * p0))))       # e det(q, n2, p)
    return out


def _place(plan, vals, rays, table, cap):
    """Evaluate the plan's rays on vals, then solve and test its walls.

    plan is (rays to evaluate, walls (w, n1, n2, p, q), the walls with
    more than one moving ray, for _cut_axis).  Walls are taken in order:
    one where e = det(n1, n2, p) is not +-1 or e det(n1, n2, q) is not -1
    raises InvariantError, and at the first whose coefficient sum is past
    the cap the result is False.  A cap of None tests no sum, which is
    how _solve_walls solves a whole fan.
    """
    _evaluate(plan[0], vals, rays)
    walls = plan[1]
    for (w, n1, n2, p, q), (e, f, total, a1) in zip(walls,
                                                   _solve(walls, rays)):
        if e * e != 1 or e * f != -1:
            raise InvariantError(
                "wall %r is not smooth at n1, n2, p, q = %r: det(n1, n2, p) "
                "= %d, det(n1, n2, q) = %d" % (
                    (n1, n2), tuple(tuple(rays[i]) for i in (n1, n2, p, q)),
                    e, f))
        if cap is not None and total > cap:
            return False
        table[w] = (a1, total - a1)
    return True


def _cut_axis(plan, axis, t, vals, rays, cap):
    """(first value, run, lines) for axis, or None where it must be
    scanned: run is the range of values of axis at which every wall of
    plan passes the cap, and lines a (w, a1, slope, a2, slope) per wall,
    its coefficients at the first value and their integer slopes.

    axis is a range with step 1.  The plan's rays are those that read
    parameter t, each affine in its value v once vals[:t] are fixed.  So
    e = det(n1, n2, p) and f = det(n1, n2, q) have degree at most 3 in v,
    and at most 1 for a wall with one moving ray.  Where e is constant,
    so is the sign in front of a1 = e det(q, n2, p) and of the cap sum
    e det(q, n2 - n1, p), which then have degree at most 3 in v, and at
    most 1 when one ray moves.  Every wall is sampled at the first 2 axis
    values, and a wall with more than one moving ray at the next 2 as
    well.  If e f = -1 with e and f equal at every sample, they are
    constant on the whole axis; if a1 and the sum are collinear too, each
    is its line, whose integer slope is the difference of the first two
    samples.  Then "sum <= cap" is a half-line, measured from the first
    value, that one floor division bounds.  The run is the axis cut to
    every wall's half-line; a wall past the cap at every value, once the
    walls before it in plan order are shown smooth, ends the run empty,
    as the scan stops at that wall on every value.

    So the walls a scan would test on any value of the axis are smooth
    there, the cut keeps exactly the values the scan keeps, and each
    kept value's wall coefficients are read off the lines.  None, for a
    scan, where the samples disagree, a wall is not affine, the axis has
    fewer than 4 values or the plan has no walls.  Sampling sets vals[t]
    and the plan's rays; the table is not touched.
    """
    new_rays, walls, wide = plan
    if len(axis) < 4 or not walls:
        return None
    samples = []
    for v, group in zip(axis, (walls, walls, wide, wide) if wide else
                        (walls, walls)):
        vals[t] = v
        _evaluate(new_rays, vals, rays)
        samples.append(_solve(group, rays))
    v0 = lo = axis[0]
    hi = axis[-1]
    lines = []
    k = 0                 # wide[k] is the next wide wall in plan order
    for wall, (e, f, s0, a0), (e1, f1, s1, a1) in zip(walls, *samples[:2]):
        if e * e != 1 or e * f != -1 or e1 != e or f1 != f:
            return None
        m, m1 = s1 - s0, a1 - a0
        if k < len(wide) and wide[k] is wall:
            for j in (2, 3):
                ej, fj, sj, aj = samples[j][k]
                if ej != e or fj != f or sj != s0 + m * j or \
                        aj != a0 + m1 * j:
                    return None
            k += 1
        # s0 + m (v - v0) <= cap
        if m > 0:
            hi = min(hi, v0 + (cap - s0) // m)
        elif m < 0:
            lo = max(lo, v0 - (cap - s0) // -m)
        elif s0 > cap:
            return v0, axis[:0], lines
        lines.append((wall[0], a0, m1, s0 - a0, m - m1))
    return v0, range(lo, hi + 1), lines


def _fix_parameters(pf, axes, plans, t, vals, rays, table, cap, out):
    """Kept points for parameters t, t+1, ... given vals[:t].

    Axis t is cut to its run (_cut_axis), whose values pass every wall
    the step completes, with each wall's coefficients on a line, so no
    value of the run is solved; an axis that cannot be cut is scanned,
    each value placed and tested (_place).
    """
    if t == len(axes):
        fan_rays = tuple(map(tuple, rays))
        if len(set(fan_rays)) != len(fan_rays):
            raise InvariantError("%r at %r has two equal rays: %r"
                                 % (pf, vals, fan_rays))
        out.append((tuple(vals), _instance(pf, fan_rays, list(table))))
        return
    plan = plans[t + 1]
    cut = _cut_axis(plan, axes[t], t, vals, rays, cap)
    if cut is None:
        for v in axes[t]:
            vals[t] = v
            if _place(plan, vals, rays, table, cap):
                _fix_parameters(pf, axes, plans, t + 1, vals, rays, table,
                                cap, out)
        return
    v0, run, lines = cut
    for v in run:
        vals[t] = v
        _evaluate(plan[0], vals, rays)
        d = v - v0
        for w, a1, m1, a2, m2 in lines:
            table[w] = (a1 + m1 * d, a2 + m2 * d)
        _fix_parameters(pf, axes, plans, t + 1, vals, rays, table, cap, out)


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
    (number of cones, least sequence over all flags), the sequence as the
    flat tuple of its items' integers, end to end.

    Only flags that can give the least sequence are walked.  Every
    sequence has one item per cone but the start, and every item has d
    integers, so sequences compare as their flat integers do: a flag
    whose first items are larger than another's cannot give the least.
    The first d items are the start cone's: its walls, crossed in the
    order of the rays r_0, ..., r_{d-1} opposite them, each lead to a cone
    not yet reached (two cones sharing two walls share all their rays,
    and a wall between two cones on the same rays is not smooth).  So
    flags are cut in two steps, before any walk:

    * Item 1 crosses the wall opposite r_0.  Its far ray is new, so the
      item is (d, coefficients of r_1, ..., r_{d-1}).  The least first
      item is d and the least sorted coefficient tuple of any wall, so
      the flags left start on either side of such a wall, with its rays
      in an order that reads that tuple, and all share item 1.  That
      tuple starts with the least coefficient m of all, so only the walls
      where m occurs are read.
    * Items 2..d cross the walls opposite r_1, ..., r_{d-1}.  Their far
      rays lie off the start cone, as the cones across are other cones,
      so each one's label is an earlier far ray's if it is that ray, and
      else the next new one; the coefficients are read off the table,
      r_0's first (_compile_start).  Of the flags left, only those whose
      items 2..d are least are walked to the end.

    A walk's order and labels depend on the cones and the flag alone, so
    each flag's start-cone items and walk are compiled once per cone set,
    when first needed (_compile_start, _compile_walk), and a fan only
    reads them off its labels and wall table.

    Needs a concrete smooth complete fan.  The errors come from
    wall_table: a ridge not shared by two cones raises NotComplete, and a
    wall whose two cones are not unimodular raises InvariantError, also
    where every cone has determinant +-D, D > 1, and the walls are
    integral.  Cones that do not form one connected sphere raise
    NotComplete, checked on the first walked flag (every flag reaches
    every cone of a connected fan, and none does otherwise).
    """
    walls, table = _coefficients(fan)
    flat = list(chain.from_iterable(table))
    # a walk's items are read off the labels 0, 1, ... and then the
    # coefficients of every wall, in order
    values = list(range(len(fan.rays)))
    values.extend(flat)
    # a wall's least ordering starts with its least coefficient, so the
    # least of them is the least of the walls' coefficients listed from
    # an occurrence of the least coefficient m of all (at position j of
    # its wall: the coefficients reversed when j is 1)
    m, k = min(flat), fan.d - 1
    least, found, i = None, [], -1
    for _ in range(flat.count(m)):
        i = flat.index(m, i + 1)
        w, j = divmod(i, k)
        order = table[w][::-1] if j else table[w]
        if least is None or order < least:
            least, found = order, [(w, j)]
        elif order == least:
            found.append((w, j))
    starts = walls.starts
    head, chosen = None, []
    for w, j in found:
        if starts[w] is None:
            starts[w] = _wall_starts(walls.paired[w])
        for start in starts[w][j]:
            if start[1] is None:
                start[1] = _compile_start(fan, walls, start[0])
            items = start[1](values)
            if head is None or items < head:
                head, chosen = items, [start]
            elif items == head:
                chosen.append(start)
    best = None
    for start in chosen:
        if start[2] is None:
            start[2] = _compile_walk(fan, walls, start[0])
        seq = start[2](values)
        if best is None or seq < best:
            best = seq
    return len(fan.cones), best


def _wall_starts(wall):
    """Per order of the ridge's rays (as it is, then reversed), a
    [flag, None, None] per flag that starts across wall (ridge, c1, p,
    c2, q) with its rays in that order, from either side.
    fan_canonical_key fills in the getters of the flag's start-cone items
    (_compile_start) and of its walk (_compile_walk) when it first needs
    them."""
    ridge, c1, p, c2, q = wall
    return [[[(c, x) + perm, None, None] for c, x in ((c1, p), (c2, q))]
            for perm in (ridge, ridge[::-1])]


def _spots(walls, w, first, offset):
    """Where wall w's coefficients sit in a flat list that holds the
    wall table from offset on, listed from ray first (its rays in an
    order that starts there).  A ridge is sorted and has at most two
    rays, so one comparison with its first ray tells the order."""
    ridge = walls.paired[w][0]
    base = offset + w * len(ridge)
    span = range(base, base + len(ridge))
    return span if first == ridge[0] else span[::-1]


def _compile_start(fan, walls, flag):
    """Items 2..d of one flag's walk, those of the start cone's walls
    but the first, as an itemgetter of values flattened as in
    _compile_walk.  Each far ray's label is an earlier far ray's if it is
    that ray, and else the next new one (fan_canonical_key shows that no
    ray of the start cone is met), and each wall's rays are listed from
    flag[1]."""
    c, x = flag[0], flag[1]
    d = len(flag) - 1
    far = [walls.across[c][x][1]]
    picks = []
    for r in flag[2:]:
        _, y, w = walls.across[c][r]
        if y not in far:
            far.append(y)
        picks.append(d + far.index(y))
        picks.extend(_spots(walls, w, x, len(fan.rays)))
    return itemgetter(*picks)


def _compile_walk(fan, walls, flag):
    """One flag's walk as an itemgetter of values, flattened.

    flag is (start cone, its rays in label order).  Each newly reached
    cone adds d positions to the getter: the label of its far ray, then
    each coefficient of the wall crossed, in label order of its spanning
    rays.  In values the labels come first, one per ray of the fan, and
    then the wall table, flattened, so the getter returns the walk's
    items end to end; items all have length d, so flat sequences compare
    as the item sequences do.  Raises NotComplete when the walk misses a
    cone.

    One pass, with no sort: each queued cone carries its rays in label
    order.  Those of a reached cone are the crossed wall's rays, in the
    order its parent lists them, with the far ray placed by its label; a
    new far ray has the largest label, so it goes last.
    """
    cones, across = fan.cones, walls.across
    start, order = flag[0], flag[1:]
    label = {r: k for k, r in enumerate(order)}
    seen = {start}
    queue = [(start, order)]
    picks = []
    for c, ordered in queue:
        crossings = across[c]
        for k, x in enumerate(ordered):
            nxt, y, w = crossings[x]
            if nxt in seen:
                continue
            seen.add(nxt)
            rest = ordered[:k] + ordered[k + 1:]
            at = label.get(y)
            if at is None:
                at = label[y] = len(label)
                queue.append((nxt, rest + (y,)))
            else:
                i = bisect(rest, at, key=label.__getitem__)
                queue.append((nxt, rest[:i] + (y,) + rest[i:]))
            picks.append(at)
            picks.extend(_spots(walls, w, rest[0], len(fan.rays)))
    if len(seen) != len(cones):
        raise NotComplete("the walls join %d of the %d cones"
                          % (len(seen), len(cones)))
    return itemgetter(*picks)


__all__ = [
    "NotComplete", "InvalidCone", "OutOfBounds", "DegenerateRay",
    "ParamExpr",
    "Fan", "Wall",
    "walls_of", "wall_table", "star_cycles",
    "blow_up", "blow_up_ray", "instantiate", "wall_sum_box",
    "fan_canonical_key",
]

"""Exact H- and V-form polytopes, lattice points, smoothness, normal fans.

Dimensions 2 and 3 only.  All arithmetic is exact: vertices of rational
polytopes come out as Fractions, lattice polytopes as plain ints.  The hull
of a lattice point set is integer-only: the normal of d points is the
perpendicular (2D) or cross product (3D) of their differences, made
primitive, and spanning is a determinant test over d-subsets.  Everything is
brute force over subsets -- the classification never sees more than a few
dozen inequalities or vertices, and exactness plus determinism matter far
more than asymptotics here.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import ceil, floor, gcd

from . import InvariantError
from .exact_linalg import (
    cross,
    determinant,
    dot,
    normalize_primitive,
    solve_rational,
    vec_neg,
    vec_sub,
)
from .fans import Fan


class Unbounded(ValueError):
    """The inequality system describes an unbounded polyhedron."""


class Empty(ValueError):
    """The inequality system has no solution."""


class NotFullDim(ValueError):
    """A full-dimensional polytope was required."""


def _check_dim(d):
    if d not in (2, 3):
        raise ValueError("polytopes are handled in dimension 2 or 3, got %r"
                         % (d,))


class HPolytope:
    """{x : A.x <= b} with primitive integer rows and integer rhs."""

    __slots__ = ("A", "b", "d")

    def __init__(self, A, b, d=None):
        A = tuple(tuple(row) for row in A)
        b = tuple(b)
        assert A and len(A) == len(b)
        if d is None:
            d = len(A[0])
        _check_dim(d)
        for row in A:
            assert len(row) == d
            prim, factor = normalize_primitive(row)
            assert factor == 1, "facet normal %r is not primitive" % (row,)
        self.A = A
        self.b = b
        self.d = d

    def __repr__(self):
        return "HPolytope(d=%d, %d inequalities)" % (self.d, len(self.A))


class VPolytope:
    """Vertex list of a polytope, sorted lexicographically.

    The constructor trusts that the given points are exactly the vertices
    (it only sorts and deduplicates); use from_points to reduce an arbitrary
    point set to its hull vertices.
    """

    __slots__ = ("vertices", "d")

    def __init__(self, vertices, d=None):
        verts = sorted(set(tuple(v) for v in vertices))
        assert verts
        if d is None:
            d = len(verts[0])
        _check_dim(d)
        assert all(len(v) == d for v in verts)
        self.vertices = tuple(verts)
        self.d = d

    @classmethod
    def from_points(cls, points, d=None):
        """Hull vertices of an arbitrary finite lattice point set.

        A point is a vertex iff at least d facets are tight at it: in
        dimension 2 or 3 any other boundary point lies inside one facet or
        inside an edge, which lies in exactly d - 1 facets.
        """
        pts = sorted(set(tuple(p) for p in points))
        assert pts
        if d is None:
            d = len(pts[0])
        _check_dim(d)
        if not _full_dim(pts, d):
            raise NotFullDim("point set spans a lower-dimensional space")
        A, b = _hull_facets(pts, d)
        verts = [p for p in pts
                 if sum(dot(row, p) == c for row, c in zip(A, b)) >= d]
        return cls(verts, d)

    @property
    def is_lattice(self):
        return all(isinstance(a, int) for v in self.vertices for a in v)

    def __eq__(self, other):
        return isinstance(other, VPolytope) and self.vertices == other.vertices

    def __hash__(self):
        return hash(self.vertices)

    def __repr__(self):
        return "VPolytope(d=%d, %d vertices)" % (self.d, len(self.vertices))


@dataclass(frozen=True)
class EdgeData:
    """One edge: endpoint indices (into the sorted vertex list), primitive
    direction, and lattice length, with vertex[j] = vertex[i] + length*dir."""
    endpoints: tuple
    direction: tuple
    lattice_length: int


def _spans(vectors, d):
    """Do the vectors span R^d?  Some d of them have a nonzero determinant."""
    return any(determinant(sub) != 0 for sub in combinations(vectors, d))


def _full_dim(points, d):
    """Is the affine hull of the points all of R^d?"""
    base = points[0]
    return _spans([vec_sub(p, base) for p in points[1:]], d)


def _normal(vectors):
    """Primitive integer normal of d - 1 integer vectors in Z^d, or None
    when they are dependent: the perpendicular in 2D, the cross product
    in 3D, divided by the gcd of its entries."""
    if len(vectors) == 1:
        (x, y), = vectors
        n = (-y, x)
    else:
        n = cross(*vectors)
    g = gcd(*n)
    if g == 0:
        return None
    return tuple(a // g for a in n)


def vertices_of(P):
    """Exact vertex enumeration of a bounded H-polytope.

    Brute force: every d-subset of inequalities with invertible matrix is
    solved and kept when feasible.  Raises Unbounded when the recession cone
    {A.x <= 0} contains a nonzero vector, Empty when nothing is feasible.
    """
    A, b, d = P.A, P.b, P.d
    found = set()
    for idx in combinations(range(len(A)), d):
        M = tuple(A[i] for i in idx)
        if determinant(M) == 0:
            continue
        x = solve_rational(M, tuple(b[i] for i in idx))
        if all(dot(row, x) <= c for row, c in zip(A, b)):
            found.add(tuple(int(f) if f.denominator == 1 else f for f in x))
    if found:
        if _recession_nonzero(A, d):
            raise Unbounded("feasible but with a nonzero recession direction")
        return VPolytope(sorted(found), d)
    # no vertex at all: either empty, or it contains a line
    if _feasible(A, b):
        raise Unbounded("nonempty polyhedron without vertices")
    raise Empty("inequality system is infeasible")


def _recession_nonzero(A, d):
    """Does {x : A.x <= 0} contain a nonzero vector?"""
    if not _spans(A, d):
        return True  # nonzero kernel vector is a recession direction
    # pointed cone: nonzero iff it has an extreme ray, spanned by the kernel
    # of d-1 tight rows
    for rows in combinations(A, d - 1):
        z = _normal(rows)
        if z is None:
            continue
        for cand in (z, vec_neg(z)):
            if all(dot(row, cand) <= 0 for row in A):
                return True
    return False


def _feasible(A, b):
    """Fourier-Motzkin feasibility test; only used on tiny systems."""
    rows = [([Fraction(a) for a in row], Fraction(c))
            for row, c in zip(A, b)]
    n = len(A[0])
    for var in range(n - 1, -1, -1):
        pos, neg, new = [], [], []
        for coeffs, c in rows:
            if coeffs[var] > 0:
                pos.append((coeffs, c))
            elif coeffs[var] < 0:
                neg.append((coeffs, c))
            else:
                new.append((coeffs, c))
        for pc, pb in pos:
            for nc, nb in neg:
                f1, f2 = -nc[var], pc[var]
                comb = [f1 * x + f2 * y for x, y in zip(pc, nc)]
                new.append((comb, f1 * pb + f2 * nb))
        rows = new
    return all(c >= 0 for _, c in rows)


def _lattice_iter(A, b, lo, hi):
    """Integer points of {A.x <= b} inside the box [lo, hi], lex order.

    Coordinates are fixed left to right, as an odometer over x; each
    inequality is enforced exactly at the depth where its last nonzero
    coefficient gets fixed, so no final feasibility pass is needed.
    """
    d = len(lo)
    rows_at = [[] for _ in range(d)]     # depth of the last nonzero entry
    for row, c in zip(A, b):
        nz = [k for k in range(d) if row[k] != 0]
        if nz:
            rows_at[nz[-1]].append((row, c))
        elif c < 0:
            return
    x = [0] * d
    top = [0] * d
    k = 0
    x[0], top[0] = _window(rows_at[0], x, 0, lo[0], hi[0])
    while k >= 0:
        if x[k] > top[k]:
            k -= 1
            if k >= 0:
                x[k] += 1
        elif k == d - 1:
            yield tuple(x)
            x[k] += 1
        else:
            k += 1
            x[k], top[k] = _window(rows_at[k], x, k, lo[k], hi[k])


def _window(rows, x, k, lk, hk):
    """Range of x[k] allowed by the rows ending at k, given x[:k]."""
    for row, c in rows:
        resid = c - sum(row[j] * x[j] for j in range(k))
        ak = row[k]
        if ak > 0:
            hk = min(hk, resid // ak)            # floor(resid/ak)
        else:
            lk = max(lk, -(resid // (-ak)))      # ceil(resid/ak)
    return lk, hk


def _bounding_box(verts, d):
    lo, hi = [], []
    for k in range(d):
        vals = [v[k] for v in verts]
        lo.append(ceil(min(vals)))
        hi.append(floor(max(vals)))
    return lo, hi


def lattice_points(P, _verts=None):
    """All integer points of a bounded full-dimensional H-polytope, lex order."""
    V = _verts if _verts is not None else vertices_of(P)
    if not _full_dim(V.vertices, P.d):
        raise NotFullDim("polytope is not full-dimensional")
    lo, hi = _bounding_box(V.vertices, P.d)
    return list(_lattice_iter(P.A, P.b, lo, hi))


def count_lattice_points(P, limit=None, _verts=None):
    """|P cap Z^d|, stopping early at limit+1 when a limit is given."""
    V = _verts if _verts is not None else vertices_of(P)
    lo, hi = _bounding_box(V.vertices, P.d)
    n = 0
    for _ in _lattice_iter(P.A, P.b, lo, hi):
        n += 1
        if limit is not None and n > limit:
            return n
    return n


def interior_lattice_points(P):
    """Integer points satisfying every inequality strictly, lex order."""
    pts = lattice_points(P)
    return [p for p in pts
            if all(dot(row, p) < c for row, c in zip(P.A, P.b))]


def _hull_facets(points, d):
    """Facet inequalities of conv(points): primitive outer normals + rhs.

    Integer points only.  Brute force over d-subsets; redundant interior
    points are harmless, so this also backs VPolytope.from_points.
    """
    facets = set()
    pts = list(points)
    for chosen in combinations(pts, d):
        n = _normal([vec_sub(p, chosen[0]) for p in chosen[1:]])
        if n is None:
            continue
        beta = dot(n, chosen[0])
        vals = [dot(n, p) for p in pts]
        if all(v <= beta for v in vals):
            facets.add((n, beta))
        elif all(v >= beta for v in vals):
            facets.add((vec_neg(n), -beta))
    if not facets:
        raise InvariantError("no facets found; input degenerate?")
    rows = sorted(facets)
    return tuple(r for r, _ in rows), tuple(c for _, c in rows)


def facets_of(P):
    """Recover the H-form of a full-dimensional lattice V-polytope."""
    assert P.is_lattice
    if not _full_dim(P.vertices, P.d):
        raise NotFullDim("polytope is not full-dimensional")
    A, b = _hull_facets(P.vertices, P.d)
    return HPolytope(A, b, P.d)


def edges_of(P):
    """Every edge of a full-dimensional lattice polytope (V- or H-form).

    Two vertices are adjacent iff they share at least d - 1 tight facets.
    In dimension 2 or 3, d - 1 distinct facets meet in a face of dimension
    at most 1, so two vertices on it are the endpoints of an edge; and every
    edge lies in exactly d - 1 facets, so no edge is missed.
    """
    V = P if isinstance(P, VPolytope) else vertices_of(P)
    H = facets_of(V)
    verts = V.vertices
    tight = [{f for f in range(len(H.A)) if dot(H.A[f], v) == H.b[f]}
             for v in verts]
    edges = []
    for i in range(len(verts)):
        for j in range(i + 1, len(verts)):
            if len(tight[i] & tight[j]) >= V.d - 1:
                direction, length = normalize_primitive(
                    vec_sub(verts[j], verts[i]))
                edges.append(EdgeData((i, j), direction, length))
    return edges


def is_smooth(P):
    """(True, None) if P is simple with unimodular edge bases at every
    vertex; (False, offending vertex) otherwise."""
    V = P if isinstance(P, VPolytope) else vertices_of(P)
    dirs_at = {i: [] for i in range(len(V.vertices))}
    for e in edges_of(V):
        i, j = e.endpoints
        dirs_at[i].append(e.direction)
        dirs_at[j].append(vec_neg(e.direction))
    for i, v in enumerate(V.vertices):
        dirs = dirs_at[i]
        if len(dirs) != V.d:
            return False, v
        if determinant(tuple(dirs)) not in (1, -1):
            return False, v
    return True, None


def normal_fan(P):
    """Fan of outer normal cones: rays are the primitive facet normals,
    maximal cones collect the facets through each vertex."""
    V = P if isinstance(P, VPolytope) else vertices_of(P)
    H = facets_of(V)
    cones = []
    for v in V.vertices:
        cones.append(tuple(f for f in range(len(H.A))
                           if dot(H.A[f], v) == H.b[f]))
    return Fan(H.A, cones, V.d)


__all__ = [
    "Unbounded", "Empty", "NotFullDim",
    "HPolytope", "VPolytope", "EdgeData",
    "vertices_of", "facets_of", "lattice_points", "count_lattice_points",
    "interior_lattice_points", "edges_of", "is_smooth", "normal_fan",
]

"""Lattice polytopes: H- and V-forms, lattice points, smoothness, normal fans.

Dimensions 2 and 3 only.  Every polytope here is a lattice polytope, given
by its integer vertices; its H-form is the integer hull of those vertices
(facets_of), or the fan's rays with their levels when the caller already
holds them.  The hull is integer-only: the normal of d points is the
perpendicular (2D) or cross product (3D) of their differences, made
primitive, and spanning is a determinant test over d-subsets.  Everything is
brute force over subsets -- the classification never sees more than a few
dozen inequalities or vertices, and exactness plus determinism matter far
more than asymptotics here.
"""

from dataclasses import dataclass
from itertools import combinations
from math import gcd

from . import InvariantError
from .exact_linalg import (
    cross,
    determinant,
    dot,
    normalize_primitive,
    vec_neg,
    vec_sub,
)
from .fans import Fan


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
        if not A or len(A) != len(b):
            raise ValueError("%d normals, %d levels" % (len(A), len(b)))
        if d is None:
            d = len(A[0])
        _check_dim(d)
        for row in A:
            if len(row) != d:
                raise ValueError("facet normal %r is not in Z^%d" % (row, d))
            if normalize_primitive(row)[1] != 1:
                raise ValueError("facet normal %r is not primitive" % (row,))
        self.A = A
        self.b = b
        self.d = d

    def __repr__(self):
        return "HPolytope(d=%d, %d inequalities)" % (self.d, len(self.A))


class VPolytope:
    """Vertex list of a lattice polytope, sorted lexicographically.

    The constructor trusts that the given points are exactly the vertices
    (it only sorts and deduplicates); use from_points to reduce an arbitrary
    point set to its hull vertices.  A non-integer coordinate raises
    ValueError.
    """

    __slots__ = ("vertices", "d")

    def __init__(self, vertices, d=None):
        verts = sorted(set(tuple(v) for v in vertices))
        if not verts:
            raise ValueError("polytope needs at least one vertex")
        if d is None:
            d = len(verts[0])
        _check_dim(d)
        if any(len(v) != d for v in verts):
            raise ValueError("vertices of a %d-dimensional polytope have "
                             "other lengths: %r" % (d, verts))
        if not all(isinstance(a, int) for v in verts for a in v):
            raise ValueError("lattice polytope has a non-integer vertex "
                             "coordinate: %r" % (verts,))
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
        if not pts:
            raise ValueError("polytope needs at least one point")
        if d is None:
            d = len(pts[0])
        _check_dim(d)
        if not _full_dim(pts, d):
            raise NotFullDim("point set spans a lower-dimensional space")
        A, b = _hull_facets(pts, d)
        verts = [p for p in pts
                 if sum(dot(row, p) == c for row, c in zip(A, b)) >= d]
        return cls(verts, d)

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


def _bounding_box(verts):
    cols = list(zip(*verts))
    return [min(c) for c in cols], [max(c) for c in cols]


def lattice_points(V, H=None):
    """All integer points of a full-dimensional lattice polytope, lex order.

    H is V's facet H-form when the caller already holds it; by default it
    is facets_of(V), which raises NotFullDim for a degenerate V.  The same
    holds for count_lattice_points.
    """
    if H is None:
        H = facets_of(V)
    lo, hi = _bounding_box(V.vertices)
    return list(_lattice_iter(H.A, H.b, lo, hi))


def count_lattice_points(V, H=None, limit=None):
    """|V cap Z^d|, stopping early at limit+1 when a limit is given."""
    if H is None:
        H = facets_of(V)
    lo, hi = _bounding_box(V.vertices)
    n = 0
    for _ in _lattice_iter(H.A, H.b, lo, hi):
        n += 1
        if limit is not None and n > limit:
            return n
    return n


def interior_lattice_points(V):
    """Integer points satisfying every facet inequality strictly, lex order."""
    H = facets_of(V)
    return [p for p in lattice_points(V, H)
            if all(dot(row, p) < c for row, c in zip(H.A, H.b))]


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
    if not _full_dim(P.vertices, P.d):
        raise NotFullDim("polytope is not full-dimensional")
    A, b = _hull_facets(P.vertices, P.d)
    return HPolytope(A, b, P.d)


def edges_of(P):
    """Every edge of a full-dimensional lattice V-polytope.

    Two vertices are adjacent iff they share at least d - 1 tight facets.
    In dimension 2 or 3, d - 1 distinct facets meet in a face of dimension
    at most 1, so two vertices on it are the endpoints of an edge; and every
    edge lies in exactly d - 1 facets, so no edge is missed.
    """
    H = facets_of(P)
    verts = P.vertices
    tight = [{f for f in range(len(H.A)) if dot(H.A[f], v) == H.b[f]}
             for v in verts]
    edges = []
    for i in range(len(verts)):
        for j in range(i + 1, len(verts)):
            if len(tight[i] & tight[j]) >= P.d - 1:
                direction, length = normalize_primitive(
                    vec_sub(verts[j], verts[i]))
                edges.append(EdgeData((i, j), direction, length))
    return edges


def is_smooth(P):
    """(True, None) if P is simple with unimodular edge bases at every
    vertex; (False, offending vertex) otherwise."""
    dirs_at = {i: [] for i in range(len(P.vertices))}
    for e in edges_of(P):
        i, j = e.endpoints
        dirs_at[i].append(e.direction)
        dirs_at[j].append(vec_neg(e.direction))
    for i, v in enumerate(P.vertices):
        dirs = dirs_at[i]
        if len(dirs) != P.d:
            return False, v
        if determinant(tuple(dirs)) not in (1, -1):
            return False, v
    return True, None


def normal_fan(P):
    """Fan of outer normal cones: rays are the primitive facet normals,
    maximal cones collect the facets through each vertex."""
    H = facets_of(P)
    cones = []
    for v in P.vertices:
        cones.append(tuple(f for f in range(len(H.A))
                           if dot(H.A[f], v) == H.b[f]))
    return Fan(H.A, cones, P.d)


__all__ = [
    "NotFullDim", "HPolytope", "VPolytope", "EdgeData", "facets_of", "lattice_points", "count_lattice_points",
    "interior_lattice_points", "edges_of", "is_smooth", "normal_fan",
]

"""Lattice isomorphism and deduplication of smooth polytopes.

Two lattice polytopes are lattice-isomorphic when a unimodular matrix U and
an integer translation t carry one vertex set onto the other.  For smooth
polytopes the primitive edge directions at any vertex form a lattice basis,
which cuts the search for U down to |vertices(Q)| * d! candidates: anchor
one vertex of P, and try every vertex of Q with every ordering of its edge
directions.  The canonical form takes the least image over the same
anchorings, read off the facet slacks, so deduplication is a hash-and-group
pass instead of quadratically many isomorphism tests.
"""

from dataclasses import dataclass
from itertools import permutations

from . import InvariantError
from .exact_linalg import (
    columns_matrix,
    determinant,
    dot,
    inverse_unimodular,
    mat_mul,
    mat_vec,
    vec_add,
    vec_neg,
    vec_sub,
)
from .polytopes import VPolytope, edges_of, facets_of


def vertex_directions(P):
    """Primitive outgoing edge directions at each vertex.

    Returns {vertex index: tuple of directions}, indices into P.vertices.
    """
    dirs = {i: [] for i in range(len(P.vertices))}
    for e in edges_of(P):
        i, j = e.endpoints
        dirs[i].append(e.direction)
        dirs[j].append(vec_neg(e.direction))
    return {i: tuple(v) for i, v in dirs.items()}


def _apply(U, t, points):
    return set(vec_add(mat_vec(U, p), t) for p in points)


def lattice_isomorphic(P, Q):
    """Decide whether U.P + t = Q for some unimodular U, integer t.

    Returns (True, (U, t)) with a verified witness, or (False, None).
    P must be simple and smooth at its first vertex; Q may be any lattice
    polytope (non-simple vertices just contribute more candidate bases).
    """
    if P.d != Q.d or len(P.vertices) != len(Q.vertices):
        return False, None
    d = P.d
    v0 = P.vertices[0]
    base = vertex_directions(P)[0]
    assert len(base) == d, "anchor vertex of P is not simple"
    E_p = columns_matrix(base)
    assert determinant(E_p) in (1, -1), "anchor vertex of P is not smooth"
    E_p_inv = inverse_unimodular(E_p)

    p_verts = P.vertices
    q_verts = set(Q.vertices)
    dirs_q = vertex_directions(Q)
    for w_idx, w in enumerate(Q.vertices):
        for ordered in permutations(dirs_q[w_idx], d):
            # an isomorphism sends the edges at v0 to edges at its image,
            # so U is determined by one of these direction matchings
            U = mat_mul(columns_matrix(ordered), E_p_inv)
            if determinant(U) not in (1, -1):
                continue
            t = vec_sub(w, mat_vec(U, v0))
            if _apply(U, t, p_verts) == q_verts:
                return True, (U, t)
    return False, None


@dataclass(frozen=True)
class CanonicalPolytope:
    """Normal form of a smooth polytope under lattice isomorphism.

    vertices is the lexicographically least vertex list over all anchorings;
    key flattens it (with dimension and count up front) for hashing.  Two
    smooth polytopes are lattice-isomorphic iff their keys are equal.
    """
    vertices: tuple
    key: tuple


def canonical_form(P, H=None):
    """Orbit-minimal coordinates of a full-dimensional smooth polytope.

    H is P's facet H-form when the caller already holds it (the pipeline
    passes the fan's rays with their levels); by default it is computed
    once with facets_of.  The facet order does not matter.

    Anchor at each vertex v with exactly d tight facets <n_i, x> <= b_i
    (i in T) whose normals have determinant +-1.  For each ordering of T,
    map every vertex x to its slacks (b_i - <n_i, x>)_{i in T}, sort, and
    keep the lexicographically least list over all anchors and orderings.
    Under x -> U.x + t the normals become U^-T n_i and every slack stays,
    so unimodular images of P give the same form.

    This is the frame of the edge directions at v.  With A_T the matrix of
    rows n_i, the columns of E = -A_T^-1 are integral, primitive (each has
    inner product -1 with one normal) and run along every other tight facet,
    so they are the primitive edge directions, and E^-1 (x - v) =
    -A_T (x - v) is the slack vector: no inverse is needed, and no shift,
    since slacks are >= 0 and vanish at v.  The anchors are those of the
    edge frames.  A vertex with d facets or d edges has a simplex as its
    vertex figure, so it has both (for d <= 3 the two counts are always
    equal); and the normals at a vertex with a unimodular edge matrix E
    are the rows of -E^-1, so det A_T = +-1.
    """
    d = P.d
    if H is None:
        H = facets_of(P)
    slacks = [tuple(c - dot(n, x) for n, c in zip(H.A, H.b))
              for x in P.vertices]
    best = None
    for s in slacks:
        tight = [i for i, a in enumerate(s) if a == 0]
        if len(tight) != d or determinant(
                [H.A[i] for i in tight]) not in (1, -1):
            continue
        for order in permutations(tight):
            cand = sorted(tuple(t[i] for i in order) for t in slacks)
            if best is None or cand < best:
                best = cand
    if best is None:
        raise InvariantError("no unimodular vertex basis; polytope not smooth")
    best = tuple(best)
    key = (d, len(best)) + tuple(a for p in best for a in p)
    return CanonicalPolytope(vertices=best, key=key)


def dedup(records):
    """One record per lattice-isomorphism class.

    records need .vertices, .num_lattice_points, .num_vertices and an
    orderable .provenance.  A record's .canonical_key, where it has one,
    must be canonical_form(...).key of its vertices, and saves computing
    the form again.  Within a class the least provenance wins (ties broken
    on vertices), and the output is sorted by (lattice points, vertices,
    canonical key).  Input order never matters.
    """
    groups = {}
    for rec in records:
        key = getattr(rec, "canonical_key", None)
        if key is None:
            key = canonical_form(VPolytope(rec.vertices)).key
        kept = groups.get(key)
        if kept is None or (rec.provenance, rec.vertices) < (
                kept.provenance, kept.vertices):
            groups[key] = rec
    return [rec for key, rec in
            sorted(groups.items(),
                   key=lambda kv: (kv[1].num_lattice_points,
                                   kv[1].num_vertices, kv[0]))]

"""Lattice isomorphism and deduplication of smooth polytopes.

Two lattice polytopes are lattice-isomorphic when a unimodular matrix U and
an integer translation t carry one vertex set onto the other.  For smooth
polytopes the primitive edge directions at any vertex form a lattice basis,
which cuts the search for U down to |vertices(Q)| * d! candidates: anchor
one vertex of P, and try every vertex of Q with every ordering of its edge
directions.  The same orbit gives a canonical form, so deduplication is a
hash-and-group pass instead of quadratically many isomorphism tests.
"""

from dataclasses import dataclass
from itertools import permutations

from . import InvariantError
from .exact_linalg import (
    columns_matrix,
    determinant,
    inverse_unimodular,
    mat_mul,
    mat_vec,
    vec_add,
    vec_neg,
    vec_sub,
)
from .fans import unimodular_frames
from .polytopes import VPolytope, edges_of


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


def canonical_form(P):
    """Orbit-minimal coordinates of a full-dimensional smooth polytope.

    Every vertex v with every ordering of its edge directions gives a map
    x -> M^-1 (x - v) sending v to the origin and its edges to the standard
    basis; shift so the coordinate-wise minimum is 0, sort, and keep the
    lexicographically least result.  Unimodular images of P run through the
    same candidates, so the output is invariant.
    """
    d = P.d
    dirs = vertex_directions(P)
    anchors = [(v, dirs[i]) for i, v in enumerate(P.vertices)]
    best = None
    for imgs in unimodular_frames(anchors, P.vertices, d):
        mins = [min(p[k] for p in imgs) for k in range(d)]
        cand = tuple(sorted(tuple(a - m for a, m in zip(p, mins))
                            for p in imgs))
        if best is None or cand < best:
            best = cand
    if best is None:
        raise InvariantError("no unimodular vertex basis; polytope not smooth")
    key = (d, len(best)) + tuple(a for p in best for a in p)
    return CanonicalPolytope(vertices=best, key=key)


def dedup(records):
    """One record per lattice-isomorphism class.

    records need .vertices, .num_lattice_points, .num_vertices and an
    orderable .provenance; within a class the least provenance wins (ties
    broken on vertices), and the output is sorted by (lattice points,
    vertices, canonical key).  Input order never matters.
    """
    groups = {}
    for rec in records:
        key = canonical_form(VPolytope(rec.vertices)).key
        kept = groups.get(key)
        if kept is None or (rec.provenance, rec.vertices) < (
                kept.provenance, kept.vertices):
            groups[key] = rec
    return [rec for key, rec in
            sorted(groups.items(),
                   key=lambda kv: (kv[1].num_lattice_points,
                                   kv[1].num_vertices, kv[0]))]

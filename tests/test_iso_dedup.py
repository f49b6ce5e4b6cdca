"""Lattice isomorphism, canonical forms, and deduplication."""

import json
import random
from collections import namedtuple
from itertools import permutations
from pathlib import Path

import pytest

from conftest import apply_affine, random_translation, random_unimodular

from smoothpoly import InvariantError, iso_dedup
from smoothpoly.exact_linalg import (
    columns_matrix,
    determinant,
    inverse_unimodular,
    mat_vec,
    vec_sub,
)
from smoothpoly.iso_dedup import (
    CanonicalPolytope,
    canonical_form,
    dedup,
    lattice_isomorphic,
    vertex_directions,
)
from smoothpoly.polytopes import VPolytope


SQUARE = VPolytope([(0, 0), (1, 0), (0, 1), (1, 1)])
SIMPLEX2 = VPolytope([(0, 0), (1, 0), (0, 1)])
TRIANGLE2 = VPolytope([(0, 0), (-2, 0), (0, -2)])
RECT_2X1 = VPolytope([(0, 0), (2, 0), (0, 1), (2, 1)])
CUBE = VPolytope([(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)])
SIMPLEX3 = VPolytope([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])


def check_witness(P, Q, U, t):
    assert determinant(U) in (1, -1)
    assert apply_affine(U, t, P.vertices) == Q.vertices


def test_translation_is_isomorphism():
    shifted = VPolytope([(x + 5, y + 7) for x, y in SQUARE.vertices])
    ok, (U, t) = lattice_isomorphic(SQUARE, shifted)
    assert ok
    check_witness(SQUARE, shifted, U, t)


def test_dilated_simplex_is_not_isomorphic():
    doubled = VPolytope([(0, 0), (2, 0), (0, 2)])
    ok, witness = lattice_isomorphic(SIMPLEX2, doubled)
    assert not ok and witness is None


def test_mirrored_polygon_is_isomorphic():
    P = VPolytope([(1, 0), (0, 0), (0, 1), (3, 1)])
    Q = VPolytope([(-x, y) for x, y in P.vertices])
    ok, (U, t) = lattice_isomorphic(P, Q)
    assert ok
    check_witness(P, Q, U, t)


def test_vertex_directions_square():
    dirs = vertex_directions(SQUARE)
    assert set(dirs[0]) == {(1, 0), (0, 1)}      # vertex (0,0)
    assert set(dirs[3]) == {(-1, 0), (0, -1)}    # vertex (1,1)


def test_isomorphic_under_random_maps():
    rng = random.Random(20240521)
    for P in [SQUARE, SIMPLEX2, TRIANGLE2, RECT_2X1, CUBE, SIMPLEX3]:
        for _ in range(8):
            U = random_unimodular(rng, P.d)
            t = random_translation(rng, P.d)
            Q = VPolytope(apply_affine(U, t, P.vertices))
            ok, (W, s) = lattice_isomorphic(P, Q)
            assert ok
            check_witness(P, Q, W, s)
            back, (W2, s2) = lattice_isomorphic(Q, P)   # symmetry
            assert back
            check_witness(Q, P, W2, s2)
            assert canonical_form(Q).key == canonical_form(P).key


def test_reflexive():
    for P in [SQUARE, TRIANGLE2, CUBE]:
        ok, (U, t) = lattice_isomorphic(P, P)
        assert ok
        check_witness(P, P, U, t)


def test_transitive_chain():
    rng = random.Random(7)
    U1, t1 = random_unimodular(rng, 2), random_translation(rng, 2)
    U2, t2 = random_unimodular(rng, 2), random_translation(rng, 2)
    Q = VPolytope(apply_affine(U1, t1, RECT_2X1.vertices))
    R = VPolytope(apply_affine(U2, t2, Q.vertices))
    assert lattice_isomorphic(RECT_2X1, Q)[0]
    assert lattice_isomorphic(Q, R)[0]
    ok, (U, t) = lattice_isomorphic(RECT_2X1, R)
    assert ok
    check_witness(RECT_2X1, R, U, t)


def test_distinct_classes_are_separated():
    polys = [SQUARE, SIMPLEX2, TRIANGLE2, RECT_2X1]
    keys = [canonical_form(P).key for P in polys]
    assert len(set(keys)) == 4
    for i, P in enumerate(polys):
        for j, Q in enumerate(polys):
            ok, _ = lattice_isomorphic(P, Q)
            assert ok == (i == j)
            assert (keys[i] == keys[j]) == ok


def test_canonical_form_standard_simplex():
    cf = canonical_form(SIMPLEX2)
    assert cf.vertices == ((0, 0), (0, 1), (1, 0))
    assert cf.key == (2, 3, 0, 0, 0, 1, 1, 0)


def test_canonical_form_triangle_side2():
    assert canonical_form(TRIANGLE2).vertices == ((0, 0), (0, 2), (2, 0))


def test_canonical_form_idempotent():
    for P in [SQUARE, TRIANGLE2, RECT_2X1, CUBE]:
        cf = canonical_form(P)
        again = canonical_form(VPolytope(cf.vertices))
        assert again == cf


Rec = namedtuple("Rec", "vertices num_lattice_points num_vertices provenance")


def rec_of(P, npts, prov):
    return Rec(P.vertices, npts, len(P.vertices), prov)


def test_dedup_translated_copies():
    recs = []
    for k, shift in enumerate([(0, 0), (4, 1), (-3, 5)]):
        verts = [(x + shift[0], y + shift[1]) for x, y in SQUARE.vertices]
        recs.append(rec_of(VPolytope(verts), 4, ("seed", k)))
    out = dedup(recs)
    assert len(out) == 1
    assert out[0].provenance == ("seed", 0)


def test_dedup_sorting_and_idempotence():
    recs = [
        rec_of(RECT_2X1, 6, ("b",)),
        rec_of(SQUARE, 4, ("c",)),
        rec_of(SIMPLEX2, 3, ("d",)),
        rec_of(TRIANGLE2, 6, ("a",)),
    ]
    out = dedup(recs)
    assert [r.num_lattice_points for r in out] == [3, 4, 6, 6]
    # equal point counts fall back to vertex count: triangle before rectangle
    assert [r.num_vertices for r in out] == [3, 4, 3, 4]
    assert dedup(out) == out
    assert dedup(recs + recs) == out
    assert dedup(list(reversed(recs))) == out


def test_dedup_keeps_least_provenance():
    rng = random.Random(99)
    U = random_unimodular(rng, 2)
    t = random_translation(rng, 2)
    moved = VPolytope(apply_affine(U, t, SQUARE.vertices))
    recs = [rec_of(moved, 4, ("z", 9)), rec_of(SQUARE, 4, ("a", 1))]
    out = dedup(recs)
    assert len(out) == 1
    assert out[0].provenance == ("a", 1)
    assert out[0].vertices == SQUARE.vertices


def test_canonical_form_rejects_non_smooth_polygon():
    # every vertex cone of this triangle has determinant 3
    with pytest.raises(InvariantError):
        canonical_form(VPolytope([(0, 0), (2, 1), (1, 2)]))


def _edge_frame_form(P):
    """The canonical form from edge frames: the oracle for canonical_form.

    Each vertex with d edge directions of determinant +-1, taken in every
    order as the columns of M, gives the frame x -> M^-1 (x - v); the
    images are shifted so each coordinate's minimum is 0 and sorted, and
    the least list wins.
    """
    d = P.d
    dirs = vertex_directions(P)
    best = None
    for i, v in enumerate(P.vertices):
        if len(dirs[i]) != d or determinant(
                columns_matrix(dirs[i])) not in (1, -1):
            continue
        for ordered in permutations(dirs[i]):
            T = inverse_unimodular(columns_matrix(ordered))
            imgs = [mat_vec(T, vec_sub(p, v)) for p in P.vertices]
            mins = [min(p[k] for p in imgs) for k in range(d)]
            cand = tuple(sorted(tuple(a - m for a, m in zip(p, mins))
                                for p in imgs))
            if best is None or cand < best:
                best = cand
    if best is None:
        raise InvariantError("no unimodular edge basis")
    return CanonicalPolytope(best, (d, len(best)) + sum(best, ()))


def _golden_polytopes():
    data = Path(__file__).parent / "data"
    out = []
    for name in ("golden_polygons_max12.json",
                 "golden_polytopes3d_max12.json"):
        with open(data / name) as fh:
            out.extend(VPolytope([tuple(v) for v in vs])
                       for vs in json.load(fh))
    return out


PYRAMID = VPolytope([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1)])
TRAPEZOID = VPolytope([(0, 0), (3, 0), (0, 1), (1, 1)])
NON_SMOOTH_TRIANGLE = VPolytope([(0, 0), (2, 1), (1, 2)])


def test_canonical_form_matches_edge_frame_oracle():
    golden = _golden_polytopes()
    assert len(golden) == 74
    rng = random.Random(808)
    polys = []
    for P in golden + [PYRAMID, TRAPEZOID]:
        polys.append(P)
        for _ in range(3):
            U = random_unimodular(rng, P.d)
            t = random_translation(rng, P.d)
            polys.append(VPolytope(apply_affine(U, t, P.vertices)))
    for P in polys:
        assert canonical_form(P) == _edge_frame_form(P), P.vertices
    for form in (canonical_form, _edge_frame_form):
        with pytest.raises(InvariantError):
            form(NON_SMOOTH_TRIANGLE)


def test_canonical_form_uses_no_inverse_or_edges(monkeypatch):
    def forbidden(*args):
        raise AssertionError("canonical_form reached the edge frames")

    polys = (SQUARE, TRAPEZOID, CUBE, PYRAMID)
    expected = [canonical_form(P) for P in polys]
    monkeypatch.setattr(iso_dedup, "inverse_unimodular", forbidden)
    monkeypatch.setattr(iso_dedup, "edges_of", forbidden)
    assert [canonical_form(P) for P in polys] == expected

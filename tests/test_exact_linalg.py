import itertools
import random
from fractions import Fraction
from math import gcd

import pytest

from conftest import random_unimodular
from oracles import Inconsistent, Singular, solve_rational, vec_scale
from smoothpoly import InvariantError, exact_linalg
from smoothpoly.exact_linalg import (
    NotUnimodular,
    ShapeError,
    ZeroVectorError,
    cross,
    determinant,
    identity_matrix,
    inverse_unimodular,
    mat_mul,
    mat_vec,
    normalize_primitive,
)


def leibniz_det(M):
    # independent oracle: permutation-sum definition of the determinant
    n = len(M)
    total = 0
    for perm in itertools.permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        term = sign
        for i in range(n):
            term *= M[i][perm[i]]
        total += term
    return total


def test_normalize_primitive_examples():
    assert normalize_primitive((2, 4, 6)) == ((1, 2, 3), 2)
    assert normalize_primitive((0, 0, -3)) == ((0, 0, -1), 3)
    assert normalize_primitive((1, 0)) == ((1, 0), 1)


def test_normalize_primitive_zero_vector():
    with pytest.raises(ZeroVectorError):
        normalize_primitive((0, 0))


def test_normalize_primitive_roundtrip_random():
    rng = random.Random(101)
    for _ in range(300):
        d = rng.randint(1, 8)
        v = tuple(rng.randint(-40, 40) for _ in range(d))
        if all(a == 0 for a in v):
            continue
        prim, factor = normalize_primitive(v)
        assert factor > 0
        assert vec_scale(factor, prim) == v
        g = 0
        for a in prim:
            g = gcd(g, abs(a))
        assert g == 1


def test_determinant_examples():
    assert determinant(identity_matrix(3)) == 1
    assert determinant(((1, 0), (1, 1))) == 1
    assert determinant(((1, 0, 0), (0, 1, 0), (-1, -1, -1))) == -1


def test_determinant_non_square():
    with pytest.raises(ShapeError):
        determinant(((1, 0, 0), (0, 1, 0)))


def test_cross_needs_two_3_vectors():
    assert cross((1, 0, 0), (0, 1, 0)) == (0, 0, 1)
    # a raise, not an assert, so python -O rejects them too
    for u, v in (((1, 0, 0, 5), (0, 1, 0, 7)), ((1, 0), (0, 1)),
                 ((1, 0, 0), (0, 1))):
        with pytest.raises(ShapeError):
            cross(u, v)


def test_determinant_matches_leibniz():
    rng = random.Random(202)
    for _ in range(120):
        n = rng.randint(1, 3)
        M = tuple(tuple(rng.randint(-6, 6) for _ in range(n)) for _ in range(n))
        assert determinant(M) == leibniz_det(M)


def test_determinant_rejects_other_sizes():
    # every determinant taken is d x d, d in {2, 3}, or a minor of one; a
    # raise, not an assert, so python -O rejects the rest too
    for M in ((), identity_matrix(4)):
        with pytest.raises(ShapeError):
            determinant(M)


def test_inverse_unimodular_examples():
    assert inverse_unimodular(identity_matrix(3)) == identity_matrix(3)
    assert inverse_unimodular(((1, 0), (1, 1))) == ((1, 0), (-1, 1))
    with pytest.raises(NotUnimodular):
        inverse_unimodular(((2, 0), (0, 1)))


def test_inverse_unimodular_random_roundtrip():
    rng = random.Random(303)
    for _ in range(150):
        n = rng.randint(2, 3)
        M = random_unimodular(rng, n)
        inv = inverse_unimodular(M)
        assert mat_mul(M, inv) == identity_matrix(n)
        assert mat_mul(inv, M) == identity_matrix(n)
        assert determinant(inv) == determinant(M)
    for M in (((1,),), identity_matrix(4)):
        with pytest.raises(ShapeError):
            inverse_unimodular(M)


def test_inverse_unimodular_checks_its_result(monkeypatch):
    # a determinant that loses its sign gives the adjugate the wrong sign
    true_determinant = exact_linalg.determinant
    monkeypatch.setattr(exact_linalg, "determinant",
                        lambda M: abs(true_determinant(M)))
    with pytest.raises(InvariantError):
        inverse_unimodular(((0, 1), (1, 0)))


def test_solve_rational_examples():
    assert solve_rational(identity_matrix(3), (1, 0, 0)) == (1, 0, 0)
    # single column (0, 1): matrix rows ((0,), (1,))
    assert solve_rational(((0,), (1,)), (0, -1)) == (-1,)
    with pytest.raises(Inconsistent):
        solve_rational(((0,), (1,)), (1, 0))


def test_solve_rational_singular():
    # columns (1,0) and (2,0) are dependent
    with pytest.raises(Singular):
        solve_rational(((1, 2), (0, 0)), (1, 0))


def test_solve_rational_fractional_result():
    # 2x = 1 has the exact solution 1/2
    assert solve_rational(((2,),), (1,)) == (Fraction(1, 2),)


def test_solve_rational_random_roundtrip():
    rng = random.Random(404)
    done = 0
    while done < 150:
        m = rng.randint(1, 6)
        n = rng.randint(1, m)
        # columns of a random unimodular matrix are independent by construction
        U = random_unimodular(rng, m)
        M = tuple(row[:n] for row in U)
        x = tuple(rng.randint(-9, 9) for _ in range(n))
        y = mat_vec(M, x)
        assert solve_rational(M, y) == x
        done += 1

"""Exact integer linear algebra for small dimensions.

Vectors are plain tuples of Python ints, matrices are tuples of row tuples.
Every matrix acts on column vectors (U applied to v is mat_vec(U, v)).
Dimensions stay tiny here (3 at the very most), so clarity wins over speed:
closed-form cofactor expansions cover everything without ever rounding,
and there is no linear solve: wall coefficients and vertices come from
Cramer's rule in unimodular cones (fans, rhs), polytope normals are
integer cross products and perpendiculars (polytopes, d in {2, 3}), and
spanning is a determinant test.
"""

from math import gcd

from . import InvariantError


class ZeroVectorError(ValueError):
    """Raised when a direction is requested for the zero vector."""


class ShapeError(ValueError):
    """Raised when a matrix has the wrong shape for the operation."""


class NotUnimodular(ValueError):
    """Raised when a matrix expected to have determinant +-1 does not."""


# ---------------------------------------------------------------------------
# vector / matrix helpers

def vec_add(u, v):
    return tuple(a + b for a, b in zip(u, v, strict=True))


def vec_sub(u, v):
    return tuple(a - b for a, b in zip(u, v, strict=True))


def vec_neg(v):
    return tuple(-a for a in v)


def dot(u, v):
    return sum(a * b for a, b in zip(u, v, strict=True))


def cross(u, v):
    if len(u) != 3 or len(v) != 3:
        raise ShapeError("cross needs two 3-vectors, got lengths %d and %d"
                         % (len(u), len(v)))
    return (u[1] * v[2] - u[2] * v[1],
            u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0])


def identity_matrix(n):
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def transpose(M):
    return tuple(zip(*M))


def mat_vec(M, v):
    return tuple(dot(row, v) for row in M)


def mat_mul(A, B):
    Bt = transpose(B)
    return tuple(tuple(dot(row, col) for col in Bt) for row in A)


def columns_matrix(vectors):
    """Matrix whose columns are the given vectors (kept in order)."""
    return transpose(vectors)


# ---------------------------------------------------------------------------
# core operations

def normalize_primitive(v):
    """Divide out the gcd of the entries, keeping the direction.

    Returns (primitive, factor) with factor * primitive == v entrywise and
    factor a positive integer.  Raises ZeroVectorError for the zero vector,
    which has no direction to keep.
    """
    g = 0
    for a in v:
        g = gcd(g, abs(a))
    if g == 0:
        raise ZeroVectorError("zero vector has no primitive direction")
    return tuple(a // g for a in v), g


def determinant(M):
    """Exact determinant of a 1x1, 2x2 or 3x3 matrix (ShapeError otherwise)."""
    n = len(M)
    if any(len(row) != n for row in M):
        raise ShapeError("determinant needs a square matrix, got %d rows %r"
                         % (n, tuple(len(row) for row in M)))
    if n == 1:
        return M[0][0]
    if n == 2:
        return M[0][0] * M[1][1] - M[0][1] * M[1][0]
    if n == 3:
        (a, b, c), (d, e, f), (g, h, i) = M
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    raise ShapeError("determinant needs a 1x1, 2x2 or 3x3 matrix, got %dx%d"
                     % (n, n))


def inverse_unimodular(M):
    """Inverse of a matrix with determinant +-1; entries stay integers.

    M is 2x2 or 3x3 (ShapeError otherwise); raises NotUnimodular for
    another determinant.  Computed by the adjugate, whose n^2 cofactors
    are 1x1 or 2x2 determinants.
    """
    n = len(M)
    if n not in (2, 3):
        raise ShapeError("inverse_unimodular needs a 2x2 or 3x3 matrix, "
                         "got %d rows" % (n,))
    d = determinant(M)
    if d not in (1, -1):
        raise NotUnimodular("determinant is %d, need +-1" % d)
    inv = []
    for i in range(n):
        row = []
        for j in range(n):
            # inverse[i][j] = cofactor(j, i) / det, and 1/det == det here
            minor = tuple(tuple(M[r][c] for c in range(n) if c != i)
                          for r in range(n) if r != j)
            cof = determinant(minor)
            if (i + j) % 2:
                cof = -cof
            row.append(cof * d)
        inv.append(tuple(row))
    inv = tuple(inv)
    if mat_mul(M, inv) != identity_matrix(n):
        raise InvariantError("adjugate of %r is not its inverse" % (M,))
    return inv


__all__ = [
    "ZeroVectorError", "ShapeError", "NotUnimodular",
    "vec_add", "vec_sub", "vec_neg", "dot", "cross",
    "identity_matrix", "transpose", "mat_vec", "mat_mul", "columns_matrix",
    "normalize_primitive", "determinant", "inverse_unimodular",
]

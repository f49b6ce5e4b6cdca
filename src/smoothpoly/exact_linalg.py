"""Exact integer and rational linear algebra for small dimensions.

Vectors are plain tuples of Python ints, matrices are tuples of row tuples.
Every matrix acts on column vectors (U applied to v is mat_vec(U, v)).
Dimensions stay tiny here (8 at the very most), so clarity wins over speed:
cofactor expansion and fraction-free Bareiss elimination cover everything
without ever rounding.  fractions.Fraction appears only in solve_rational,
which solves for a vertex; polytope normals are integer cross products and
perpendiculars (polytopes, d in {2, 3}), and spanning is a determinant test.
"""

from fractions import Fraction
from math import gcd

from . import InvariantError


class ZeroVectorError(ValueError):
    """Raised when a direction is requested for the zero vector."""


class ShapeError(ValueError):
    """Raised when a matrix has the wrong shape for the operation."""


class NotUnimodular(ValueError):
    """Raised when a matrix expected to have determinant +-1 does not."""


class Singular(ValueError):
    """Raised when the columns of a linear system are dependent."""


class Inconsistent(ValueError):
    """Raised when a linear system has no solution."""


# ---------------------------------------------------------------------------
# vector / matrix helpers

def vec_add(u, v):
    return tuple(a + b for a, b in zip(u, v, strict=True))


def vec_sub(u, v):
    return tuple(a - b for a, b in zip(u, v, strict=True))


def vec_neg(v):
    return tuple(-a for a in v)


def vec_scale(c, v):
    return tuple(c * a for a in v)


def dot(u, v):
    return sum(a * b for a, b in zip(u, v, strict=True))


def cross(u, v):
    assert len(u) == 3 and len(v) == 3
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

    Returns (primitive, factor) with vec_scale(factor, primitive) == v and
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
    """Exact determinant: cofactor expansion up to 3x3, Bareiss above."""
    n = len(M)
    if any(len(row) != n for row in M):
        raise ShapeError("determinant needs a square matrix, got %d rows %r"
                         % (n, tuple(len(row) for row in M)))
    if n == 0:
        return 1
    if n == 1:
        return M[0][0]
    if n == 2:
        return M[0][0] * M[1][1] - M[0][1] * M[1][0]
    if n == 3:
        (a, b, c), (d, e, f), (g, h, i) = M
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    # Bareiss fraction-free elimination; all divisions below are exact.
    a = [list(row) for row in M]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def inverse_unimodular(M):
    """Inverse of a matrix with determinant +-1; entries stay integers.

    Raises NotUnimodular otherwise.  Computed by the adjugate: for our sizes
    (at most 8x8, usually 2 or 3) the n^2 cofactor determinants are cheap.
    """
    d = determinant(M)
    if d not in (1, -1):
        raise NotUnimodular("determinant is %d, need +-1" % d)
    n = len(M)
    if n == 1:
        return ((d,),)
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


def solve_rational(M, y):
    """Solve M.x = y exactly, the columns of M acting as the basis.

    M has m rows and n <= m columns of plain integers.  Returns the unique
    solution as a tuple of Fractions.  Raises Singular if the columns are
    linearly dependent and Inconsistent if y lies outside their span.

    Entries of y may also be any value supporting field arithmetic with
    Fraction (we use this for affine parameter expressions); such entries
    pass through the elimination untouched by coercion.
    """
    m = len(M)
    n = len(M[0]) if m else 0
    if any(len(row) != n for row in M):
        raise ShapeError("ragged matrix")
    if len(y) != m:
        raise ShapeError("rhs length %d does not match %d rows" % (len(y), m))
    if n > m:
        raise Singular("more columns than rows, columns cannot be independent")
    # Gauss-Jordan on the augmented matrix [M | y] over Fraction.
    aug = [[Fraction(M[i][j]) for j in range(n)]
           + [Fraction(y[i]) if isinstance(y[i], int) else y[i]]
           for i in range(m)]
    for c in range(n):
        p = next((i for i in range(c, m) if aug[i][c] != 0), None)
        if p is None:
            raise Singular("columns are linearly dependent")
        aug[c], aug[p] = aug[p], aug[c]
        piv = aug[c][c]
        aug[c] = [a / piv for a in aug[c]]
        for i in range(m):
            if i != c and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[c])]
    for i in range(n, m):
        if aug[i][n] != 0:
            raise Inconsistent("rhs is outside the column span")
    return tuple(aug[i][n] for i in range(n))


__all__ = [
    "Fraction", "ZeroVectorError", "ShapeError", "NotUnimodular",
    "Singular", "Inconsistent",
    "vec_add", "vec_sub", "vec_neg", "vec_scale", "dot", "cross",
    "identity_matrix", "transpose", "mat_vec", "mat_mul", "columns_matrix",
    "normalize_primitive", "determinant", "inverse_unimodular",
    "solve_rational",
]

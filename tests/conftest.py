"""Shared helpers for the test suite (imported as `from conftest import ...`)."""

import os
import random
from pathlib import Path

import pytest


def random_unimodular(rng: random.Random, n: int, steps: int = 12):
    """Random GL_n(Z) matrix built from elementary integer row operations."""
    M = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(steps):
        op = rng.randrange(3)
        i = rng.randrange(n)
        j = rng.randrange(n)
        if op == 0 and i != j:
            c = rng.randint(-3, 3)
            M[i] = [a + c * b for a, b in zip(M[i], M[j])]
        elif op == 1 and i != j:
            M[i], M[j] = M[j], M[i]
        elif op == 2:
            M[i] = [-a for a in M[i]]
    return tuple(tuple(row) for row in M)


def package_env():
    """Environment whose PYTHONPATH puts this test's copy of smoothpoly first,
    for subprocesses that import it."""
    import smoothpoly

    env = dict(os.environ)
    root = str(Path(smoothpoly.__file__).parent.parent)
    rest = env.get("PYTHONPATH")
    env["PYTHONPATH"] = root + os.pathsep + rest if rest else root
    return env


def random_translation(rng: random.Random, n: int, bound: int = 9):
    return tuple(rng.randint(-bound, bound) for _ in range(n))


def apply_affine(U, t, points):
    """U.p + t for every p, returned sorted (handy for set comparisons)."""
    out = []
    for p in points:
        q = tuple(sum(U[i][k] * p[k] for k in range(len(p))) + t[i]
                  for i in range(len(t)))
        out.append(q)
    return tuple(sorted(out))


@pytest.fixture(scope="session")
def polygon_class_table():
    """The class table of the N = 12 polygon walk: (prefix, key, root) rows.

    Taken from the walk alone, so no fan is realized and no levels are
    enumerated; every one of the 1992 classes is here, also those that
    the perimeter bound later skips.
    """
    from smoothpoly import pipeline

    table = pipeline._polygon_walk(12, None, pipeline.Diagnostics())
    assert len(table) == 1992
    return table


@pytest.fixture(scope="session")
def polygon_class_reps(polygon_class_table):
    """The fan class representatives of the N = 12 polygon walk (1992 fans),
    in table order, each replayed from its root fan as the run does."""
    from smoothpoly import pipeline

    return [pipeline._class_fan(root, prefix[1])
            for prefix, _, root in polygon_class_table]

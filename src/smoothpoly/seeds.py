"""Registry of the minimal smooth fans that start the blow-up search.

Dimension 2 has two minimal fans: the fan of the projective plane (here
called F_p) and the Hirzebruch family F_a.  Dimension 3 has nineteen
minimal classes with at most eight rays (Oda, Convex Bodies and Algebraic
Geometry); five of them survive the smooth-polygon criterion and are seeded
here with their parameter bounds, the other fourteen are recorded with
their vertex-degree profiles so the criterion can report why each one is
out.  Every seed is a Fan with a parameter box; F_p and 3^4 have none, so
their box is the one point ().

Ray coordinates and cone structure below are transcribed from the
standard figures of the five survivors.  The wall coefficients printed in
those figures are redundant data (wall_table recomputes them from rays and
cones), so they live in the tests, as a cross-check against transcription
slips.
"""

from dataclasses import dataclass

from .fans import Fan, ParamExpr

A = ParamExpr.var("a")
B = ParamExpr.var("b")
C = ParamExpr.var("c")


class UnknownSeed(ValueError):
    """Seed name not present in the registry."""


@dataclass(frozen=True)
class Seed:
    """One minimal fan (or family): builder plus documentation data."""
    name: str
    dim: int
    build: object            # callable: N -> Fan
    params_desc: str


@dataclass(frozen=True)
class ExcludedFan:
    """A minimal fan rejected before the search starts.

    bound is the polygon-criterion lower bound on lattice points for the
    degree profile (None when some degree admits no smooth polygon at all
    within 12 points); reason records why the whole subtree is dead, since
    the two 10-cone fans could otherwise still be blown up once.
    """
    name: str
    profile: dict            # vertex degree in the triangulation -> count
    bound: object            # int, or None when a degree has no polygon
    reason: str

    @property
    def num_rays(self):
        return sum(self.profile.values())

    @property
    def num_cones(self):
        # triangulation of S^2: F = 2V - 4
        return 2 * self.num_rays - 4


# ---------------------------------------------------------------------------
# dimension 2

def _build_fp(N):
    return Fan([(1, 0), (0, 1), (-1, -1)],
               [(0, 1), (1, 2), (2, 0)])


def _build_fa(N):
    # a = 0 is the square fan, a = 1 is excluded: it equals the blow-up of
    # F_p and would be enumerated twice; a >= 2 are the proper Hirzebruch
    # fans (a and -a are isomorphic, so negative values add nothing)
    return Fan([(1, 0), (0, 1), (-1, -A), (0, -1)],
               [(0, 1), (1, 2), (2, 3), (3, 0)],
               bounds={"a": (0, N)}, excluded={"a": {1}})


# ---------------------------------------------------------------------------
# dimension 3
#
# Ray names follow the figures: P1..P4 walk the drawn polygon, X is the
# extra finite ray of 4^6, "inf" the ray at infinity of the stereographic
# projection, M_b/M_t the middle rays of 3^2 4^3 6^2.

def _build_34(N):
    return Fan([(0, 1, 0), (1, 0, 0), (-1, -1, -1), (0, 0, 1)],
               [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])


def _build_3243p(N):
    # rays: 0 P1=(-1,-1,-a), 1 P2=(0,0,1), 2 P3=(1,0,0), 3 P4=(0,0,-1),
    # 4 inf=(0,1,0); the square P1 P2 P3 P4 is split along P1-P3
    return Fan(
        [(-1, -1, -A), (0, 0, 1), (1, 0, 0), (0, 0, -1), (0, 1, 0)],
        [(0, 1, 2), (0, 2, 3), (0, 1, 4), (1, 2, 4), (2, 3, 4), (0, 3, 4)],
        bounds={"a": (0, N)})


def _build_3243pp(N):
    # rays: 0 P1=(0,-1,-1), 1 P2=(1,0,0), 2 P3=(0,1,0), 3 P4=(-1,b,c),
    # 4 inf=(0,0,1); same combinatorics as the primed variant
    return Fan(
        [(0, -1, -1), (1, 0, 0), (0, 1, 0), (-1, B, C), (0, 0, 1)],
        [(0, 1, 2), (0, 2, 3), (0, 1, 4), (1, 2, 4), (2, 3, 4), (0, 3, 4)],
        bounds={"b": (-N, N), "c": (-N, N)})


def _build_46(N):
    # rays: 0 P1=(0,-1,b), 1 P2=(1,0,0), 2 P3=(0,1,0), 3 P4=(-1,-a,c),
    # 4 X=(0,0,-1), 5 inf=(0,0,1); octahedral combinatorics
    return Fan(
        [(0, -1, B), (1, 0, 0), (0, 1, 0), (-1, -A, C),
         (0, 0, -1), (0, 0, 1)],
        [(0, 1, 4), (1, 2, 4), (2, 3, 4), (0, 3, 4),
         (0, 1, 5), (1, 2, 5), (2, 3, 5), (0, 3, 5)],
        bounds={"a": (-N, N), "b": (-N, N), "c": (-N, N)})


def _build_324362(N):
    # rays: 0 P1=(0,1,-1), 1 P2=(0,1,0), 2 P3=(0,0,1), 3 P4=(0,0,-1),
    # 4 M_b=(-1,2,-1), 5 M_t=(0,-1,-a), 6 inf=(1,0,0)
    return Fan(
        [(0, 1, -1), (0, 1, 0), (0, 0, 1), (0, 0, -1),
         (-1, 2, -1), (0, -1, -A), (1, 0, 0)],
        [(0, 3, 4), (3, 4, 5), (1, 2, 4), (2, 4, 5),
         (0, 4, 6), (1, 4, 6), (3, 5, 6), (2, 5, 6), (0, 3, 6), (1, 2, 6)],
        bounds={"a": (-((N + 1) // 2), (N - 1) // 2)})


_ALL_SEEDS = (
    Seed("F_p", 2, _build_fp, "none"),
    Seed("F_a", 2, _build_fa, "a in [0, N], a != 1"),
    Seed("3^4", 3, _build_34, "none"),
    Seed("(3^2 4^3)'", 3, _build_3243p, "a in [0, N]"),
    Seed("(3^2 4^3)''", 3, _build_3243pp, "b in [-N, N], c in [-N, N]"),
    Seed("4^6", 3, _build_46, "a, b, c in [-N, N]"),
    Seed("3^2 4^3 6^2", 3, _build_324362,
         "a in [-(N+1)/2, (N-1)/2] (integer floor/ceil)"),
)


# The two 10-cone profiles admit one further blow-up within twelve cones,
# so their reasons also cover the children; every 12-cone profile is a leaf
# already (a blow-up would need fourteen cones).
_LEAF = "cannot blow up within twelve cones; criterion bound %d > 12"

EXCLUDED_FANS = (
    ExcludedFan("3^1 4^3 5^3", {3: 1, 4: 3, 5: 3}, 15,
                "three pentagon facets put three points in facet interiors; "
                "a blow-up keeps a pentagon plus twelve vertices, so every "
                "descendant needs at least 13 points"),
    ExcludedFan("4^5 5^2", {4: 5, 5: 2}, 14,
                "two edge-disjoint pentagon facets need 16 points; the one "
                "possible blow-up turns them into hexagons and still needs "
                "at least 14"),
    ExcludedFan("4^6 6^2", {4: 6, 6: 2}, 14, _LEAF % 14),
    ExcludedFan("3^2 4^4 7^2", {3: 2, 4: 4, 7: 2}, None,
                "a degree-7 ray needs a smooth 7-gon facet and no smooth "
                "7-gon has 12 or fewer lattice points"),
    ExcludedFan("3^3 4^1 5^1 6^3", {3: 3, 4: 1, 5: 1, 6: 3}, 16, _LEAF % 16),
    ExcludedFan("3^2 4^2 5^2 6^2", {3: 2, 4: 2, 5: 2, 6: 2}, 16, _LEAF % 16),
    ExcludedFan("3^1 4^4 5^1 6^2", {3: 1, 4: 4, 5: 1, 6: 2}, 15, _LEAF % 15),
    ExcludedFan("3^2 4^1 5^4 6^1", {3: 2, 4: 1, 5: 4, 6: 1}, 17, _LEAF % 17),
    ExcludedFan("(3^1 4^3 5^3 6^1)'", {3: 1, 4: 3, 5: 3, 6: 1}, 16,
                _LEAF % 16),
    ExcludedFan("(3^1 4^3 5^3 6^1)''", {3: 1, 4: 3, 5: 3, 6: 1}, 16,
                _LEAF % 16),
    ExcludedFan("(3^2 5^6)'", {3: 2, 5: 6}, 20, _LEAF % 20),
    ExcludedFan("(3^2 5^6)''", {3: 2, 5: 6}, 20, _LEAF % 20),
    ExcludedFan("(4^4 5^4)'", {4: 4, 5: 4}, 18, _LEAF % 18),
    ExcludedFan("(4^4 5^4)''", {4: 4, 5: 4}, 18, _LEAF % 18),
)


def canonical_seed_name(name):
    return name.replace(" ", "")


_REGISTRY = {canonical_seed_name(s.name): s for s in _ALL_SEEDS}


def seed_names(dim=None):
    return tuple(s.name for s in _ALL_SEEDS if dim is None or s.dim == dim)


def get_seed(name):
    seed = _REGISTRY.get(canonical_seed_name(name))
    if seed is None:
        raise UnknownSeed("unknown seed %r; known: %s"
                          % (name, ", ".join(seed_names())))
    return seed


def seed_fan(name, N):
    return get_seed(name).build(N)


__all__ = [
    "UnknownSeed", "Seed", "ExcludedFan", "EXCLUDED_FANS",
    "canonical_seed_name", "seed_names", "get_seed", "seed_fan",
]

#!/usr/bin/env python3
# From a fan to actual polytopes: enumerate right-hand sides, solve for
# vertices, and check the edge-length bookkeeping on the result.

from smoothpoly import seeds
from smoothpoly.exact_linalg import dot
from smoothpoly.fans import instantiate, wall_table
from smoothpoly.polytopes import edges_of
from smoothpoly.rhs import enumerate_rhs, realize_and_filter

N = 12
fan = instantiate(seeds.get_seed("4^6").build(N), {"a": 0, "b": 0, "c": 0})
print("cube fan rays:", fan.rays)

# P = {x : <ray_i, x> <= b_i}; which b give a polytope with normal fan F
# and at most N lattice points?  Translations are removed by pinning b = 0
# on the rays of the least cone, and the edge lengths minus one may add up
# to at most N - #cones (the slack), since every cone gives a vertex.
print("pinned rays (b=0):", min(fan.cones), " slack:", N - len(fan.cones))

levels = enumerate_rhs(fan, N)
print("%d candidate right-hand sides" % len(levels))

for b in levels:
    poly, status, num_points = realize_and_filter(fan, b, N)
    if poly is None:
        print("  b =", b, "->", status)
        continue
    print("  b =", b, "-> box with %2d lattice points, vertices %s"
          % (num_points, poly.vertices[:2] + ("...",)))

# each wall of the fan is dual to an edge of the polytope, and its length
# is a linear form in b: with opposite rays p, q and wall coefficients a_i
# on the spanning rays n_i (p + q = sum a_i n_i), the length is
# b_p + b_q - sum a_i b_{n_i}.  Check that against the geometry for one b.
b = levels[-1]
poly, _, _ = realize_and_filter(fan, b, N)
edges = {frozenset(e.endpoints): e.lattice_length for e in edges_of(poly)}

# maximal cones correspond to vertices: the vertex where the cone's rays
# all meet their bound
at_vertex = {}
for ci, cone in enumerate(fan.cones):
    for vi, v in enumerate(poly.vertices):
        if all(dot(fan.rays[i], v) == b[i] for i in cone):
            at_vertex[ci] = vi

print("\nedge lengths for b =", b)
for ridge, incident, (p, q), coeffs in wall_table(fan):
    length = b[p] + b[q] - sum(a * b[n] for n, a in zip(ridge, coeffs))
    pair = frozenset(at_vertex[c] for c in incident)
    print("  wall %s: form says %d, geometry says %d"
          % (ridge, length, edges[pair]))

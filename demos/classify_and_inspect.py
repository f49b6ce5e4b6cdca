#!/usr/bin/env python3
# Run the 2D classification at the full budget and poke at the results.
# The 3D run works the same way but takes a few minutes; switch DIM to 3
# if you want to wait.

from collections import Counter

from smoothpoly.iso_dedup import lattice_isomorphic
from smoothpoly.pipeline import RunConfig, run_classify
from smoothpoly.polytopes import VPolytope, interior_lattice_points

DIM = 2
N = 12

result = run_classify(RunConfig(DIM, N))
print("dimension %d, up to %d lattice points: %d polytopes"
      % (DIM, N, len(result.records)))
print("vertex histogram:", dict(result.histogram))
print("search diagnostics:", result.diagnostics)

by_seed = Counter(r.provenance.seed for r in result.records)
print("records per seed fan:", dict(by_seed))

# the single 8-gon is the most crowded polygon in the budget
biggest = max(result.records, key=lambda r: r.num_vertices)
print("\nlargest vertex count: %d-gon with %d points"
      % (biggest.num_vertices, biggest.num_lattice_points))
print("  vertices:", biggest.vertices)
print("  built from seed %s via %s, rhs %s"
      % (biggest.provenance.seed, biggest.provenance.path or "(no blow-ups)",
         biggest.provenance.rhs))
P = VPolytope(biggest.vertices)
print("  interior points:", interior_lattice_points(P))

# records are canonical, so recognising a polytope someone else wrote down
# is one isomorphism test per record
mystery = [(6, 3), (3, 2), (7, 4), (4, 2), (6, 4), (4, 3)]
Q = VPolytope.from_points(mystery)
for r in result.records:
    ok, witness = lattice_isomorphic(Q, VPolytope(r.vertices))
    if ok:
        U, t = witness
        print("\nmystery hexagon is record with vertices", r.vertices)
        print("  witness U =", U, " t =", t)
        break
else:
    print("\nmystery polygon is not smooth with <= %d points" % N)

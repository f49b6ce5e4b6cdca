#!/usr/bin/env python3
# Walk the blow-up tree of the tetrahedron fan by hand and watch the
# bookkeeping that the classifier automates.

from smoothpoly import seeds
from smoothpoly.search import (
    make_root, enumerate_blowups, walk_tree, count_polygon_tree, trace_line,
)

t34 = seeds.seed_fan("3^4", 12)
print("tetrahedron fan 3^4: rays", t34.rays)
print("maximal cones:", t34.cones)

# every smooth complete 3D fan comes from one of five minimal fans by
# repeatedly inserting the sum of the rays of a cone or of a wall
root = make_root(t34)
kids = list(enumerate_blowups(root, 12))
print("\none blow-up gives %d children, %d cones then %d walls; the first:"
      % (len(kids), len(t34.cones), len(kids) - len(t34.cones)))
child = kids[0]
print("  new ray", child.fan.rays[-1], "= sum of cone", t34.cones[0])
print("  cones now", child.fan.cones)
wall = kids[len(t34.cones)]
print("the first wall child: new ray", wall.fan.rays[-1], "= sum of wall",
      wall.step[1])

# naive recursion would revisit a fan once per ordering of independent
# blow-ups; the flags kill the repeats without losing any fan
print("\ntree sizes from the tetrahedron (4 cones):")
for cones in (8, 10):
    pruned = sum(1 for _ in walk_tree(t34, cones))
    full = sum(1 for _ in walk_tree(t34, cones, pruned=False))
    print("  up to %2d cones: %6d pruned vs %9d unpruned" %
          (cones, pruned, full))

# in 2D a blow-up subdivides one cone, and the flags reduce to "never
# expand a cone left of the last one expanded", which a recurrence counts
print("\n2D tree sizes from the triangle fan F_p (3 cones):")
for cones in (6, 8, 10, 12):
    pruned = count_polygon_tree(3, cones)
    full = count_polygon_tree(3, cones, pruned=False)
    print("  up to %2d cones: %6d pruned vs %9d unpruned" %
          (cones, pruned, full))

print("\nsame thing for the Hirzebruch tree (4 cones), up to 12:")
print(" ", count_polygon_tree(4, 12))

# the walk itself yields nodes depth-first; trace_line is what the
# classify --trace-tree option writes per node
print("\nfirst six nodes of the pruned 3^4 walk (depth, cones, step):")
for i, node in enumerate(walk_tree(t34, 12)):
    print("  " + trace_line(node))
    if i == 5:
        break

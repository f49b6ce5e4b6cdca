"""Output checks for the benchmark workloads, written apart from smoothpoly.

Nothing here imports the program: facets, edges, lattice isomorphism
witnesses and Pick's theorem are recomputed from vertex lists with plain
integer arithmetic, so a fault shared by the program and its own tests
cannot hide here.  Each check returns a list of error strings; an empty
list means the output passed.
"""

import hashlib
import itertools
import json
from math import gcd

# Vertex-count histogram of the 41 smooth polygons with at most 12 lattice
# points, as the paper states it.
PAPER_POLYGON_HISTOGRAM = {3: 3, 4: 30, 5: 3, 6: 4, 7: 0, 8: 1}


def _sub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def _content(v):
    g = 0
    for a in v:
        g = gcd(g, a)
    return g


def _primitive(v):
    g = _content(v)
    return tuple(a // g for a in v)


def _det(M):
    if len(M) == 2:
        return M[0][0] * M[1][1] - M[0][1] * M[1][0]
    return (M[0][0] * (M[1][1] * M[2][2] - M[1][2] * M[2][1])
            - M[0][1] * (M[1][0] * M[2][2] - M[1][2] * M[2][0])
            + M[0][2] * (M[1][0] * M[2][1] - M[1][1] * M[2][0]))


def _columns(vectors):
    d = len(vectors)
    return tuple(tuple(vectors[j][i] for j in range(d)) for i in range(d))


def _inverse_unimodular(M):
    """Integer inverse of a 2x2 or 3x3 matrix with determinant +-1."""
    det = _det(M)
    d = len(M)
    if d == 2:
        adj = ((M[1][1], -M[0][1]), (-M[1][0], M[0][0]))
    else:
        adj = tuple(tuple(
            (M[(j + 1) % 3][(i + 1) % 3] * M[(j + 2) % 3][(i + 2) % 3]
             - M[(j + 1) % 3][(i + 2) % 3] * M[(j + 2) % 3][(i + 1) % 3])
            for j in range(3)) for i in range(3))
    return tuple(tuple(a * det for a in row) for row in adj)


def _mat_mul(A, B):
    return tuple(tuple(sum(A[i][k] * B[k][j] for k in range(len(B)))
                       for j in range(len(B[0]))) for i in range(len(A)))


def _apply(U, t, points):
    return {tuple(_dot(row, p) + c for row, c in zip(U, t)) for p in points}


def _normal(points, d):
    """A nonzero normal of the hyperplane through d points, or None."""
    diffs = [_sub(p, points[0]) for p in points[1:]]
    if d == 2:
        n = (-diffs[0][1], diffs[0][0])
    else:
        u, v = diffs
        n = (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2],
             u[0] * v[1] - u[1] * v[0])
    return None if not any(n) else _primitive(n)


def facets(verts, d):
    """Tight vertex sets of the supporting hyperplanes through d vertices."""
    out = set()
    for sub in itertools.combinations(range(len(verts)), d):
        n = _normal([verts[i] for i in sub], d)
        if n is None:
            continue
        vals = [_dot(n, v) for v in verts]
        beta = vals[sub[0]]
        if all(x <= beta for x in vals) or all(x >= beta for x in vals):
            out.add(frozenset(i for i, x in enumerate(vals) if x == beta))
    return out


def edge_directions(verts, d):
    """{vertex index: [(primitive direction, lattice length), ...]}.

    Two vertices span an edge when they share d - 1 facets (one facet in
    dimension 2, two distinct facet planes in dimension 3).
    """
    tight = facets(verts, d)
    out = {i: [] for i in range(len(verts))}
    for i, j in itertools.combinations(range(len(verts)), 2):
        if sum(1 for f in tight if i in f and j in f) >= d - 1:
            diff = _sub(verts[j], verts[i])
            length = _content(diff)
            if not length:
                continue
            step = tuple(a // length for a in diff)
            out[i].append((step, length))
            out[j].append((tuple(-a for a in step), length))
    return out


def _invariant(verts, d):
    """Lattice-isomorphism invariant used to skip hopeless pairs."""
    lengths = sorted(ln for dirs in edge_directions(verts, d).values()
                     for _, ln in dirs)
    return len(verts), tuple(lengths)


def find_witness(G, P, d):
    """(U, t) with det U = +-1 and U.G + t = P as vertex sets, or None.

    G must be smooth at its first simple vertex: the primitive edge
    directions there are a lattice basis, so an isomorphism is fixed by the
    image vertex and the order of the edge directions at it.
    """
    if len(G) != len(P):
        return None
    dirs_g = edge_directions(G, d)
    anchor = next((i for i in range(len(G)) if len(dirs_g[i]) == d), None)
    if anchor is None:
        return None
    E_g = _columns([s for s, _ in dirs_g[anchor]])
    if _det(E_g) not in (1, -1):
        return None
    E_g_inv = _inverse_unimodular(E_g)
    target = set(map(tuple, P))
    dirs_p = edge_directions(P, d)
    for j, p in enumerate(P):
        if len(dirs_p[j]) != d:
            continue
        for order in itertools.permutations([s for s, _ in dirs_p[j]]):
            U = _mat_mul(_columns(order), E_g_inv)
            t = _sub(p, tuple(_dot(row, G[anchor]) for row in U))
            if _apply(U, t, G) == target:
                return U, t
    return None


def witness_holds(U, t, G, P):
    return _det(U) in (1, -1) and _apply(U, t, G) == set(map(tuple, P))


def match_golden(vertex_lists, golden, d):
    """Errors unless the vertex lists match golden one to one, each match
    carrying a verified unimodular witness."""
    errors = []
    mine = [[tuple(v) for v in vs] for vs in vertex_lists]
    gold = [[tuple(v) for v in vs] for vs in golden]
    inv_mine = [_invariant(vs, d) for vs in mine]
    hits = [0] * len(mine)
    for gi, G in enumerate(gold):
        inv = _invariant(G, d)
        matches = []
        for j, P in enumerate(mine):
            if inv_mine[j] != inv:
                continue
            w = find_witness(G, P, d)
            if w is not None and witness_holds(w[0], w[1], G, P):
                matches.append(j)
        if len(matches) != 1:
            errors.append("golden polytope %d %r matches %d records"
                          % (gi, G, len(matches)))
        for j in matches:
            hits[j] += 1
    for j, h in enumerate(hits):
        if h != 1:
            errors.append("record %d %r matches %d golden polytopes"
                          % (j, mine[j], h))
    return errors


def pick_count(verts):
    """Lattice points of a lattice polygon by Pick's theorem: A + B/2 + 1."""
    pts = sorted(set(map(tuple, verts)))
    if len(pts) < 3:
        return None

    def half(points):
        hull = []
        for p in points:
            while len(hull) >= 2 and _det((_sub(hull[-1], hull[-2]),
                                           _sub(p, hull[-2]))) <= 0:
                hull.pop()
            hull.append(p)
        return hull[:-1]

    hull = half(pts) + half(pts[::-1])
    sides = list(zip(hull, hull[1:] + hull[:1]))
    twice_area = sum(_det((a, b)) for a, b in sides)
    boundary = sum(_content(_sub(b, a)) for a, b in sides)
    return (twice_area + boundary) // 2 + 1


def histogram(vertex_lists, d):
    """Vertex-count histogram, contiguous from d + 1 to the largest count."""
    counts = [len(vs) for vs in vertex_lists]
    return {k: counts.count(k) for k in range(d + 1, max(counts) + 1)}


def check_records(report, golden, d, max_points, expected_histogram):
    """Errors in a parsed classify --format json report."""
    records = report.get("records", [])
    verts = [r["vertices"] for r in records]
    errors = []
    if len(records) != len(golden):
        errors.append("%d records, expected %d" % (len(records), len(golden)))
    if report.get("dimension") != d or report.get("max_points") != max_points:
        errors.append("report is for dimension %r, max points %r"
                      % (report.get("dimension"), report.get("max_points")))
    for i, r in enumerate(records):
        if r["num_vertices"] != len(r["vertices"]):
            errors.append("record %d: num_vertices %d but %d vertices"
                          % (i, r["num_vertices"], len(r["vertices"])))
        if d == 2:
            n = pick_count(r["vertices"])
            if n is None or n != r["num_lattice_points"] or n > max_points:
                errors.append("record %d: %r lattice points by Pick, "
                              "report says %d" % (i, n,
                                                  r["num_lattice_points"]))
    shown = {int(k): v for k, v in report.get("histogram", {}).items()}
    if verts and histogram(verts, d) != expected_histogram:
        errors.append("record histogram %r, expected %r"
                      % (histogram(verts, d), expected_histogram))
    if shown != expected_histogram:
        errors.append("report histogram %r, expected %r"
                      % (shown, expected_histogram))
    errors.extend(match_golden(verts, golden, d))
    return errors


def check_report(text, reference_sha256, golden, d, max_points,
                 expected_histogram):
    """Errors in one classify report: its bytes, then its records."""
    errors = []
    digest = hashlib.sha256(text.encode()).hexdigest()
    if digest != reference_sha256:
        errors.append("report sha256 %s, reference %s"
                      % (digest, reference_sha256))
    try:
        report = json.loads(text)
    except ValueError as exc:
        return errors + ["report is not JSON: %s" % (exc,)]
    return errors + check_records(report, golden, d, max_points,
                                  expected_histogram)


def unpruned_tree_size(cones, max_cones):
    """Nodes of the unpruned 3D blow-up tree from a fan with `cones` cones.

    A simplicial 2-sphere with k triangles has 3k/2 edges, and blowing up
    any of the k cones or 3k/2 walls adds two cones, so
    u(k) = 1 + (5k/2) u(k+2), with u(k) = 1 once k + 2 exceeds max_cones.
    """
    if cones + 2 > max_cones:
        return 1
    return 1 + (5 * cones // 2) * unpruned_tree_size(cones + 2, max_cones)


def check_count(text, expected):
    try:
        got = int(text.strip())
    except ValueError:
        return ["tree count output %r is not an integer" % (text[:80],)]
    return [] if got == expected else ["tree count %d, expected %d"
                                       % (got, expected)]


def record_mutations(report):
    """Mutated copies of a parsed classify report, by name."""
    records = report["records"]
    d = report["dimension"]
    out = {}

    def variant(new_records):
        m = dict(report)
        m["records"] = new_records
        return m

    out["drop-record"] = variant(records[1:])
    # a lattice-isomorphic copy: shear, then translate
    U = ((1, 1), (0, 1)) if d == 2 else ((1, 1, 0), (0, 1, 0), (0, 0, 1))
    t = (3,) * d
    src = records[-1]
    copy = dict(src)
    copy["vertices"] = sorted(list(v) for v in
                              _apply(U, t, map(tuple, src["vertices"])))
    out["add-isomorphic-copy"] = variant(records + [copy])
    moved = dict(src)
    verts = [list(v) for v in src["vertices"]]
    while verts[0] in verts[1:] or verts[0] == src["vertices"][0]:
        verts[0][0] += 1
    moved["vertices"] = verts
    out["move-vertex"] = variant(records[:-1] + [moved])
    return out

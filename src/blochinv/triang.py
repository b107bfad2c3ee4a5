"""Triangulation data model and file I/O.

A triangulation carries n tetrahedra, h cusps, a shape vector (numeric or
exact over a declared field), the integer matrix U of the consistency/cusp
system U.Z = pi i d (rows: n edge rows, then per cusp a meridian row and a
longitude row), the integer vector d, optional gluing combinatorics, and
per-cusp filling instructions.

Shape conventions: tetrahedron vertices 0..3; the shape z is attached to the
edge pairs {01},{23}; 1/(1-z) to {02},{13}; 1-1/z to {03},{12}.  Z is the
column (log z_1 .. log z_n, log(1-z_1) .. log(1-z_n)) with principal logs;
the third edge parameter is folded in via log(1-1/z) = log(1-z) - log(z)
modulo pi i, the offsets landing in d.
"""

from __future__ import annotations

import itertools

import mpmath as mp

from . import textformat
from .dilog import _GUARD, _record
from .errors import (DegenerateShape, DimensionMismatch, NotIntegral,
                     OpenFace, TriangulationSyntaxError)
from .lattice import hnf_rows
from .numfield import FieldElement, embeddings, horner


# (log z, log(1-z)) coefficients of the log parameter of each edge: z on
# {01, 23} -> log z, z' on {02, 13} -> -log(1-z), z'' on {03, 12} ->
# log(1-z) - log z (modulo pi i)
_EDGE_LOGS = {(0, 1): (1, 0), (2, 3): (1, 0), (0, 2): (0, -1),
              (1, 3): (0, -1), (0, 3): (-1, 1), (1, 2): (-1, 1)}


def _add_edge_log(row, n, t, edge, sign=1):
    """Add sign times the log parameter of ``edge`` of tet t to a U row."""
    a, b = _EDGE_LOGS[tuple(sorted(edge))]
    row[t] += sign * a
    row[n + t] += sign * b


class GluingCombinatorics:
    """Face pairings: gluings[(tet, face)] = (other tet, vertex bijection).

    Face f is the face opposite vertex f; the 4-tuple permutation sends
    vertex labels of the source tetrahedron to the target's.
    """

    def __init__(self, n, gluings):
        self.n = n
        self.gluings = dict(gluings)
        for (t, f), (t2, perm) in self.gluings.items():
            inv = tuple(perm.index(i) for i in range(4))
            back = self.gluings.get((t2, perm[f]))
            if back is None or back != (t, inv):
                raise DimensionMismatch(
                    "gluing of tet %d face %d is not involutive" % (t, f))

    def _require_closed(self):
        """Raise OpenFace if some face is unmatched."""
        for t in range(self.n):
            for f in range(4):
                if (t, f) not in self.gluings:
                    raise OpenFace("tet %d face %d unglued" % (t, f))

    def edge_classes(self):
        """Orbits of the unordered tetrahedron edges (t, (a, b)), a < b,
        under the face pairings."""
        edges = list(itertools.combinations(range(4), 2))
        parent = {(t, e): (t, e) for t in range(self.n) for e in edges}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for (t, f), (t2, perm) in self.gluings.items():
            for a, b in edges:
                if f not in (a, b):
                    parent[find((t, (a, b)))] = find(
                        (t2, tuple(sorted((perm[a], perm[b])))))
        classes = {}
        for x in parent:
            classes.setdefault(find(x), []).append(x)
        return [sorted(c) for c in sorted(classes.values(), key=sorted)]

    def cusp_holonomies(self):
        """Per cusp, the U rows of the fundamental cycles of its link.

        A cusp is a component of the vertex-link triangles (tet, v), adjacent
        across the sides (tet, v, f) cut by faces f != v.  One BFS tree per
        component; each non-tree side closes a loop whose row sums, over the
        corners it turns, +- the log parameter of the edge (v, u) there:
        + when the exit side follows the entry side in the order of the
        faces != v, increasing at even v and reversed at odd v.  With the
        edge rows these span the edge and cusp rows (Neumann-Zagier).
        Raises OpenFace if some face is unmatched.
        """
        self._require_closed()
        n = self.n

        def across(side):
            t, v, f = side
            t2, perm = self.gluings[(t, f)]
            return t2, perm[v], perm[f]

        def holonomy(loop):
            row = [0] * (2 * n)
            for side, nxt in zip(loop, loop[1:] + loop[:1]):
                t, v, f_in = across(side)
                f_out = nxt[2]
                if f_in != f_out:
                    faces = [f for f in range(4) if f != v]
                    turn = faces[(faces.index(f_in) + 1) % 3] == f_out
                    _add_edge_log(row, n, t, (v, 6 - v - f_in - f_out),
                                  (-1) ** v * (1 if turn else -1))
            return row

        paths = {}
        cusps = []
        for root in ((t, v) for t in range(n) for v in range(4)):
            if root in paths:
                continue
            paths[root] = []
            queue, tree, loops = [root], set(), []
            for t, v in queue:
                for f in range(4):
                    side = (t, v, f)
                    if f == v or side in tree:
                        continue
                    back = across(side)
                    if back[:2] not in paths:
                        paths[back[:2]] = paths[(t, v)] + [side]
                        tree.update((side, back))
                        queue.append(back[:2])
                    elif side <= back:
                        loops.append(paths[(t, v)] + [side] + [
                            across(s) for s in reversed(paths[back[:2]])])
            cusps.append([holonomy(loop) for loop in loops])
        return cusps


def edge_equations(g):
    """Edge rows of U from gluing combinatorics.

    One row per edge class, the sum of the log parameters of its
    tetrahedron edges (the pi i offsets go to d via infer_d).
    Raises OpenFace if some face is unmatched.
    """
    g._require_closed()
    rows = []
    for cls in g.edge_classes():
        row = [0] * (2 * g.n)
        for (t, e) in cls:
            _add_edge_log(row, g.n, t, e)
        rows.append(row)
    return rows


class Triangulation:
    def __init__(self, n, h, shapes, U, d, combinatorics=None, field=None,
                 fillings=None, shape_tokens=None):
        self.n = n
        self.h = h
        self.shapes = list(shapes)
        self.U = [list(map(int, row)) for row in U]
        self.d = [int(x) for x in d]
        self.combinatorics = combinatorics
        self.field = field
        self.fillings = list(fillings) if fillings else [None] * h
        self._shape_tokens = shape_tokens
        self._numeric = {}     # precision -> numeric shapes read at it
        exact = [isinstance(z, FieldElement) for z in self.shapes]
        if any(exact) and (field is None or not all(exact)):
            raise TriangulationSyntaxError(
                "shapes must be all exact or all numeric")
        if len(self.shapes) != n:
            raise DimensionMismatch("expected %d shapes, got %d" % (n, len(self.shapes)))
        for i, row in enumerate(self.U):
            if len(row) != 2 * n:
                raise DimensionMismatch("urow %d has %d entries, expected %d"
                                        % (i, len(row), 2 * n))
        if len(self.U) != n + 2 * h:
            raise DimensionMismatch("expected %d U rows, got %d"
                                    % (n + 2 * h, len(self.U)))
        if len(self.d) != n + 2 * h:
            raise DimensionMismatch("expected %d d entries, got %d"
                                    % (n + 2 * h, len(self.d)))

    # -- structured row access ---------------------------------------------
    def edge_rows(self):
        return self.U[:self.n], self.d[:self.n]

    def cusp_rows(self, j):
        """(meridian row, longitude row, d_mu, d_lambda) of cusp j."""
        i = self.n + 2 * j
        return self.U[i], self.U[i + 1], self.d[i], self.d[i + 1]

    def exact_shapes(self):
        return any(isinstance(z, FieldElement) for z in self.shapes)

    def numeric_shapes(self, precision=256):
        """Shape vector as complex numbers at the requested precision.

        Exact shapes are evaluated by numfield.horner, at precision + _GUARD
        bits, at the first root of the field, in the all-roots order of its
        embeddings, where U.Z = pi i d holds for the stored d; NotIntegral,
        naming each root and the d it gives (or why it gives none), when no
        root does."""
        if not self.exact_shapes():
            # read once per precision; each caller gets its own list
            zs = self._numeric.get(precision)
            if zs is None:
                with mp.workprec(precision + _GUARD):
                    zs = self._numeric[precision] = [
                        mp.mpc(z) if tok is None
                        else textformat.complex_pair(tok, precision + _GUARD)
                        for z, tok in zip(self.shapes, self._shape_tokens
                                          or [None] * self.n)]
            return list(zs)
        tried = []
        for root in embeddings(self.field, precision).all_roots():
            zs = [mp.make_mpc(horner(z, [root._mpc_], precision + _GUARD)[0])
                  for z in self.shapes]
            try:
                d = _pi_i_multiples(self, zs, precision)
            except (NotIntegral, DegenerateShape) as exc:
                tried.append("root %s: %s" % (mp.nstr(root, 6), exc))
                continue
            if d == self.d:
                return zs
            tried.append("root %s gives %s" % (mp.nstr(root, 6), d))
        raise NotIntegral("no embedding validates the stored d %s (%s)"
                          % (self.d, "; ".join(tried)))

    def validate(self, precision=256):
        """Check U.Z = pi i d for the stored d and return the validated
        numeric_shapes(precision); raises NotIntegral on failure."""
        zs = self.numeric_shapes(precision)
        # numeric_shapes has checked exact shapes against the stored d
        if not self.exact_shapes():
            inferred = _pi_i_multiples(self, zs, precision)
            if inferred != self.d:
                raise NotIntegral("stored d %s but shapes give %s"
                                  % (self.d, inferred))
        return zs


def infer_d(t, precision=256):
    """d = round(U.Z / pi i) at the shapes of numeric_shapes; errors if any
    entry is off by > 2^(-precision/4)."""
    return _pi_i_multiples(t, t.numeric_shapes(precision), precision)


def _pi_i_multiples(t, zs, precision):
    """round(U.Z / pi i) for the numeric shapes zs, Z = (log z_i ;
    log(1-z_i)) with principal branches."""
    with mp.workprec(precision + _GUARD):
        recs = []
        for z in zs:
            z = mp.mpc(z)
            if z == 0 or z == 1:
                raise DegenerateShape("shape %s" % z)
            recs.append(_record(z._mpc_, precision))
        Z = [mp.make_mpc(r.log_z) for r in recs] + \
            [mp.make_mpc(r.log_1mz) for r in recs]
        tol = mp.mpf(2) ** (-(precision // 4))
        out = []
        for row in t.U:
            val = mp.fsum([row[k] * Z[k] for k in range(2 * t.n)])
            q = val / (mp.pi * mp.mpc(0, 1))
            if abs(mp.im(q)) > tol:
                raise NotIntegral("row value %s not purely pi-i-integral" % q)
            k = mp.nint(mp.re(q))
            if abs(mp.re(q) - k) > tol:
                raise NotIntegral("row value %s / pi i not near an integer" % q)
            out.append(int(k))
        return out


# ---------------------------------------------------------------------------
# file format

# the keywords that may appear once per file, each with the number of its
# leading index arguments: a shape, urow, fill or glue line once per index
_ONCE = {"tets": 0, "cusps": 0, "field": 0, "dvec": 0, "shape": 1, "urow": 1,
         "fill": 1, "glue": 2}


def parse_triangulation(text, precision=256):
    """Parse the line-oriented triangulation format (see the README); glue
    lines are checked against the urow lines by _checked_gluing."""
    n = h = field = dvec = glue_line = exact = None
    shapes = {}  # index -> (value, (re, im) tokens or None)
    urows = {}
    glue = {}
    fillings = {}
    seen = {}  # (keyword, index...) of each line in _ONCE -> line number

    def line(lineno, key, args):
        nonlocal n, h, field, dvec, glue_line, exact
        if key in _ONCE:
            tag = (key,) + tuple(int(a) for a in args[:_ONCE[key]])
            if tag in seen:
                raise TriangulationSyntaxError(
                    "repeated %s line" % " ".join(map(str, tag)))
            seen[tag] = lineno
        if key == "tets":
            (n,) = map(int, args)
            if n < 1:
                raise TriangulationSyntaxError(
                    "tets must be at least 1, got %d" % n)
        elif key == "cusps":
            (h,) = map(int, args)
            if h < 0:
                raise TriangulationSyntaxError(
                    "cusps must be at least 0, got %d" % h)
        elif key == "field":
            field = textformat.read_field(args)
        elif key == "shape":
            idx, *rest = args
            if exact is not None and exact != (rest[:1] == ["exact"]):
                raise TriangulationSyntaxError(
                    "shapes must be all exact or all numeric")
            exact = rest[:1] == ["exact"]
            if exact:
                if field is None:
                    raise TriangulationSyntaxError(
                        "exact shape before field header")
                shapes[int(idx)] = (field.element(textformat.exact_vector(
                    rest[1:], field.degree, "shape")), None)
            else:
                shapes[int(idx)] = (
                    textformat.complex_pair(rest, precision + _GUARD), tuple(rest))
        elif key == "urow":
            idx, *row = map(int, args)
            urows[idx] = row
        elif key == "dvec":
            dvec = [int(x) for x in args]
        elif key == "glue":
            t_idx, f_idx, t2, perm = args
            perm = tuple(int(c) for c in perm)
            if sorted(perm) != [0, 1, 2, 3]:
                raise TriangulationSyntaxError("bad permutation")
            glue[(int(t_idx), int(f_idx))] = (int(t2), perm)
            glue_line = glue_line or lineno
        elif key == "fill":
            c, *rest = args
            if rest == ["complete"]:
                fillings[int(c)] = None
            else:
                p, q = map(int, rest)
                fillings[int(c)] = (p, q)
        else:
            raise TriangulationSyntaxError("unrecognized keyword %r" % key)

    textformat.read(text, line)
    if n is None or h is None:
        raise TriangulationSyntaxError("missing tets/cusps header")
    # the counts first: a range is only built once it has as many members as
    # the file has lines, however large the header
    if len(shapes) != n or sorted(shapes) != list(range(n)):
        raise TriangulationSyntaxError("need one shape per tetrahedron")
    if len(urows) != n + 2 * h or sorted(urows) != list(range(n + 2 * h)):
        raise TriangulationSyntaxError("need %d urow lines" % (n + 2 * h))
    if dvec is None:
        raise TriangulationSyntaxError("missing dvec")
    t = Triangulation(
        n, h, [shapes[i][0] for i in range(n)],
        [urows[i] for i in range(n + 2 * h)], dvec,
        field=field, fillings=[fillings.get(j) for j in range(h)],
        shape_tokens=[shapes[i][1] for i in range(n)])
    if glue:
        t.combinatorics = _checked_gluing(t, glue, glue_line)
    for (key, *idx), lineno in seen.items():
        if key == "fill" and not 0 <= idx[0] < h:
            raise TriangulationSyntaxError(
                "fill names cusp %d, but there are %d cusps" % (idx[0], h),
                lineno)
    return t


def _checked_gluing(t, glue, line):
    """The gluing of the glue lines, if its link has t.h components and its
    edge rows and cusp holonomies span the lattice of t.U; otherwise a
    TriangulationSyntaxError at ``line``, the first glue line."""
    if any(not (0 <= a < t.n and 0 <= b < t.n and 0 <= f < 4)
           for (a, f), (b, _) in glue.items()):
        raise TriangulationSyntaxError("glue names a tet or face out of range",
                                       line)
    try:
        g = GluingCombinatorics(t.n, glue)
        cusps = g.cusp_holonomies()
        derived = edge_equations(g) + [row for rows in cusps for row in rows]
    except (DimensionMismatch, OpenFace) as exc:
        raise TriangulationSyntaxError(str(exc), line) from None
    if len(cusps) != t.h:
        raise TriangulationSyntaxError(
            "the gluing has %d cusps, not %d" % (len(cusps), t.h), line)
    if _row_lattice(derived) != _row_lattice(t.U):
        raise TriangulationSyntaxError(
            "urow rows do not span the lattice of the gluing's edge rows and "
            "cusp holonomies", line)
    return g


def _row_lattice(rows):
    return [row for row in hnf_rows(rows)[0] if any(row)]


def serialize_triangulation(t):
    lines = ["tets %d" % t.n, "cusps %d" % t.h]
    if t.field is not None:
        lines.append(textformat.field_line(t.field))
    for i, z in enumerate(t.shapes):
        if isinstance(z, FieldElement):
            lines.append("shape %d exact %s" % (i, " ".join(str(q) for q in z.coeffs)))
        elif t._shape_tokens and t._shape_tokens[i] is not None:
            re_s, im_s = t._shape_tokens[i]
            lines.append("shape %d %s %s" % (i, re_s, im_s))
        else:
            lines.append("shape %d %s %s" % (i, mp.nstr(mp.re(z), 40),
                                             mp.nstr(mp.im(z), 40)))
    for i, row in enumerate(t.U):
        lines.append("urow %d %s" % (i, " ".join(str(x) for x in row)))
    lines.append("dvec %s" % " ".join(str(x) for x in t.d))
    if t.combinatorics is not None:
        for (tt, f) in sorted(t.combinatorics.gluings):
            t2, perm = t.combinatorics.gluings[(tt, f)]
            lines.append("glue %d %d %d %s" % (tt, f, t2,
                                               "".join(str(p) for p in perm)))
    for j, fl in enumerate(t.fillings):
        if fl is None:
            lines.append("fill %d complete" % j)
        else:
            lines.append("fill %d %d %d" % (j, fl[0], fl[1]))
    return "\n".join(lines) + "\n"


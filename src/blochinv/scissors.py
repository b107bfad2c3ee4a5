"""Scissors congruence of ideal polyhedra with triangulated faces.

A polyhedron is a list of ideal vertices together with coherently oriented
face cycles and a triangulating diagonal set per face.  Its class in the
pre-Bloch group is computed by coning the face triangles to a vertex; the
class is independent of the chosen apex, and two decompositions related by a
cycle move (the geometric five-term relation on five ideal points) agree.

Flat polyhedra need no special casing: a flat quadrilateral is entered as
two opposite faces carrying the two diagonal choices; coning produces flat
simplices with real cross ratio, signed by the r -> r + i epsilon rule
through the orientation of the entered cycles.
"""

from __future__ import annotations

from . import textformat
from .errors import (DimensionMismatch, NotAFiveTermConfiguration,
                     NotDistinct, TriangulationSyntaxError)
from .prebloch import (Infinity, PreBlochElement, cross_ratio,
                       six_fold_normalize, _pt_eq)


class IdealPolyhedron:
    """Ideal polyhedron with triangulated, coherently oriented faces."""

    def __init__(self, vertices, faces, diagonals=None):
        self.vertices = list(vertices)
        for i in range(len(self.vertices)):
            for j in range(i + 1, len(self.vertices)):
                if _pt_eq(self.vertices[i], self.vertices[j]):
                    raise NotDistinct("vertices %d and %d coincide" % (i, j))
        self.faces = faces = [list(f) for f in faces]
        self.diagonals = [list(diagonals[k]) if diagonals and k < len(diagonals)
                          and diagonals[k] else [] for k in range(len(faces))]
        self._validate()

    def _validate(self):
        # closed coherently oriented surface: each directed edge used once
        directed = set()
        for k, cyc in enumerate(self.faces):
            if len(cyc) < 3:
                raise DimensionMismatch("face with fewer than 3 vertices")
            if len(set(cyc)) < len(cyc):
                raise DimensionMismatch("face %d repeats a vertex" % k)
            if not set(cyc) <= set(range(len(self.vertices))):
                raise DimensionMismatch("face %d has a vertex outside 0..%d"
                                        % (k, len(self.vertices) - 1))
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                if (a, b) in directed:
                    raise DimensionMismatch(
                        "directed edge (%d,%d) used twice; faces not "
                        "coherently oriented" % (a, b))
                directed.add((a, b))
        for (a, b) in directed:
            if (b, a) not in directed:
                raise DimensionMismatch("boundary edge (%d,%d): faces do not "
                                        "close up" % (a, b))
        # triangulations: n-3 diagonals on the face that cut it into triangles
        self._face_triangles = []
        for k, cyc in enumerate(self.faces):
            diags = self.diagonals[k]
            if len(diags) != len(cyc) - 3:
                raise DimensionMismatch(
                    "face %d needs %d diagonals, got %d"
                    % (k, len(cyc) - 3, len(diags)))
            for d in diags:
                if d[0] not in cyc or d[1] not in cyc:
                    raise DimensionMismatch("diagonal %s not on face %d"
                                            % (d, k))
            self._face_triangles.append(
                _triangulate_cycle(cyc, [tuple(d) for d in diags]))
        # Euler characteristic with triangulated edges
        edges = set()
        ntri = 0
        for k, cyc in enumerate(self.faces):
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                edges.add(frozenset((a, b)))
            for d in self.diagonals[k]:
                edges.add(frozenset(d))
            ntri += len(cyc) - 2
        chi = len(self.vertices) - len(edges) + ntri
        if chi != 2:
            raise DimensionMismatch("Euler characteristic %d != 2" % chi)

    def triangles(self):
        return [tri for tris in self._face_triangles for tri in tris]


def _triangulate_cycle(cyc, diags):
    """Split a polygon cycle along non-crossing chords into triangles,
    preserving the cycle's orientation."""
    if len(cyc) == 3:
        return [tuple(cyc)]
    for (u, v) in diags:
        iu, iv = cyc.index(u), cyc.index(v)
        if iu > iv:
            iu, iv = iv, iu
        side1 = cyc[iu:iv + 1]
        side2 = cyc[iv:] + cyc[:iu + 1]
        d1 = [d for d in diags if d != (u, v) and d != (v, u)
              and d[0] in side1 and d[1] in side1]
        d2 = [d for d in diags if d != (u, v) and d != (v, u)
              and d[0] in side2 and d[1] in side2]
        if len(d1) == len(side1) - 3 and len(d2) == len(side2) - 3:
            return _triangulate_cycle(side1, d1) + _triangulate_cycle(side2, d2)
    raise DimensionMismatch("diagonals do not triangulate the face")


def cone_decomposition(poly, apex):
    """Signed ideal simplices coning the face triangles to vertex ``apex``.

    Each face triangle (a, b, c) not containing the apex contributes the
    ordered simplex (apex, a, b, c): outward-oriented faces of a convex
    polyhedron then yield positively oriented cones.  Returns a list of
    (vertex-index 4-tuple, sign); flat cones are kept (real cross ratio),
    and repeated ideal points cannot occur for distinct vertices.
    """
    if not 0 <= apex < len(poly.vertices):
        raise DimensionMismatch("no vertex %d" % apex)
    out = []
    for (a, b, c) in poly.triangles():
        if apex in (a, b, c):
            continue
        out.append(((apex, a, b, c), 1))
    return out


def decomposition_class(poly, decomposition, precision=256):
    """Pre-Bloch element of a signed simplex decomposition; numeric cross
    ratios are taken at ``precision``."""
    return PreBlochElement(
        [(cross_ratio(*[poly.vertices[i] for i in quad], precision=precision),
          sign) for quad, sign in decomposition])


def polyhedron_class(poly, precision=256):
    """Class of the polyhedron in the pre-Bloch group.

    Cones from the lexicographically first vertex (finite vertices ordered
    by (Re, Im); the point at infinity last).  The result is
    apex-independent in the pre-Bloch group; the computable separators (D2
    at every embedding, the wedge image, rho) agree across apex choices.
    """
    apex = min(range(len(poly.vertices)),
               key=lambda i: _vertex_key(poly.vertices[i]))
    dec = cone_decomposition(poly, apex)
    return six_fold_normalize(decomposition_class(poly, dec, precision))


def _vertex_key(v):
    """The apex order's key of a vertex, from its own parts: mp.mpc(v)
    would round them to the ambient precision."""
    if v is Infinity:
        return (1,)
    if hasattr(v, "coeffs"):
        return (0, tuple(v.coeffs))
    return (0, v.real, v.imag)


def _canon_simplex(quad, sign):
    """Canonical form of an ordered simplex up to even permutation."""
    order = sorted(range(4), key=lambda i: quad[i])
    inv = sum(1 for i in range(4) for j in range(i + 1, 4)
              if order[i] > order[j])
    canon = tuple(quad[i] for i in order)
    return canon, sign * (1 if inv % 2 == 0 else -1)


def cycle_move(decomposition, config):
    """Replace a 2-simplex sub-decomposition of the five-point configuration
    by the complementary 3-simplex one (or vice versa).

    config is an ordered 5-tuple of vertex indices (v0..v4); the even-index
    boundary faces {omit 0, omit 2, omit 4} match the odd ones
    {omit 1, omit 3} in the pre-Bloch group.  The class is unchanged.
    """
    v = list(config)
    if len(v) != 5 or len(set(v)) != 5:
        raise NotAFiveTermConfiguration("need five distinct vertex indices")
    faces = [_canon_simplex(v[:k] + v[k + 1:], 1) for k in range(5)]
    dec = [_canon_simplex(q, s) for q, s in decomposition]
    for side, other in ((faces[0::2], faces[1::2]),
                        (faces[1::2], faces[0::2])):
        for sign in (1, -1):
            rest = list(dec)
            try:
                for q, s in side:
                    rest.remove((q, sign * s))
            except ValueError:
                continue
            acc = {}
            for q, s in rest + [(q, sign * s) for q, s in other]:
                acc[q] = acc.get(q, 0) + s
            out = []
            for q, s in acc.items():
                out.extend([(q, 1 if s > 0 else -1)] * abs(s))
            return out
    raise NotAFiveTermConfiguration(
        "decomposition does not contain either side of the configuration")


# ---------------------------------------------------------------------------
# polyhedron file format

def parse_polyhedron(text, precision=256):
    """vertex <i> <re> <im> | vertex <i> inf ; face <cycle> ; diag <face> <i> <j>."""
    verts = {}
    faces = []
    diags = {}

    def line(lineno, key, args):
        if key == "vertex":
            idx, *rest = args
            idx = int(idx)
            if idx in verts:
                raise TriangulationSyntaxError("repeated vertex %d" % idx)
            verts[idx] = Infinity if rest == ["inf"] else \
                textformat.complex_pair(rest, precision + 16)
        elif key == "face":
            faces.append([int(x) for x in args])
        elif key == "diag":
            f, i, j = map(int, args)
            diags.setdefault(f, []).append((i, j))
        else:
            raise TriangulationSyntaxError("unrecognized keyword %r" % key)

    textformat.read(text, line)
    if sorted(verts) != list(range(len(verts))):
        raise TriangulationSyntaxError("vertex indices must be 0..n-1")
    return IdealPolyhedron([verts[i] for i in range(len(verts))], faces,
                           [diags.get(k, []) for k in range(len(faces))])

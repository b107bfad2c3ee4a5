import importlib.resources
import itertools

import mpmath as mp
import pytest
from hypothesis import given, settings, strategies as st

from blochinv import textformat
from blochinv.dilog import _GUARD
from blochinv.errors import (DimensionMismatch, NotIntegral, OpenFace,
                             TriangulationSyntaxError)
from blochinv.lattice import hnf_rows
from blochinv.numfield import FieldElement, field_make
from blochinv.prebloch import bloch_invariant, volume_of_prebloch
from blochinv.triang import (GluingCombinatorics, Triangulation,
                             edge_equations, infer_d, parse_triangulation,
                             serialize_triangulation)


def fixture_text(name):
    return importlib.resources.files("blochinv").joinpath(
        "fixtures/" + name).read_text()


@pytest.fixture
def fig8():
    return parse_triangulation(fixture_text("figure_eight.tri"), precision=256)


@pytest.fixture
def ex3():
    return parse_triangulation(fixture_text("example3.tri"), precision=256)


def test_parse_figure_eight(fig8):
    assert fig8.n == 2 and fig8.h == 1
    assert len(fig8.U) == 4 and all(len(r) == 4 for r in fig8.U)
    assert fig8.fillings == [None]


def test_parse_empty_file():
    with pytest.raises(TriangulationSyntaxError):
        parse_triangulation("")


def test_parse_wrong_column_count():
    text = """tets 1
cusps 0
shape 0 0.5 0.8
urow 0 1 2 3
dvec 0
"""
    with pytest.raises(DimensionMismatch):
        parse_triangulation(text)


def test_roundtrip_identity(fig8, ex3):
    for name in ("figure_eight.tri", "example3.tri"):
        text = fixture_text(name)
        t = parse_triangulation(text, precision=256)
        out = serialize_triangulation(t)
        # canonical form: strip comments/blank lines of the source
        canon = "\n".join(l for l in text.splitlines()
                          if l.strip() and not l.lstrip().startswith("#")) + "\n"
        assert out == canon
        t2 = parse_triangulation(out, precision=256)
        assert serialize_triangulation(t2) == out


_RATIONALS = st.fractions(min_value=-9, max_value=9, max_denominator=12)
_DECIMALS = st.integers(-9 * 10 ** 6, 9 * 10 ** 6).map(
    lambda k: "%s%d.%06d" % ("-" * (k < 0), abs(k) // 10 ** 6, abs(k) % 10 ** 6))
_FLOATS = st.floats(-9, 9, allow_nan=False)


@st.composite
def _triangulations(draw):
    n = draw(st.integers(1, 3))
    h = draw(st.integers(0, 2))
    fld = draw(st.sampled_from([None, field_make([1, -1, 1]),
                                field_make([1, -1, 0, 1])]))
    # shapes are all exact or all numeric; numeric ones may mix kinds
    exact = fld is not None and draw(st.booleans())
    shapes, tokens = [], []
    for _ in range(n):
        kind = "exact" if exact else draw(st.sampled_from(["tokens", "value"]))
        if kind == "exact":
            shapes.append(fld.element(draw(st.lists(
                _RATIONALS, min_size=fld.degree, max_size=fld.degree))))
            tokens.append(None)
        elif kind == "tokens":
            pair = (draw(_DECIMALS), draw(_DECIMALS))
            shapes.append(mp.mpc(*pair))
            tokens.append(pair)
        else:
            shapes.append(mp.mpc(draw(_FLOATS), draw(_FLOATS)))
            tokens.append(None)
    ints = st.integers(-5, 5)
    U = draw(st.lists(st.lists(ints, min_size=2 * n, max_size=2 * n),
                      min_size=n + 2 * h, max_size=n + 2 * h))
    d = draw(st.lists(ints, min_size=n + 2 * h, max_size=n + 2 * h))
    fillings = draw(st.lists(st.none() | st.tuples(ints, ints),
                             min_size=h, max_size=h))
    return Triangulation(n, h, shapes, U, d, field=fld, fillings=fillings,
                         shape_tokens=tokens)


@settings(max_examples=60, deadline=None)
@given(_triangulations(), st.sampled_from([64, 256]))
def test_serialize_parse_roundtrip(t, precision):
    text = serialize_triangulation(t)
    t2 = parse_triangulation(text, precision=precision)
    assert serialize_triangulation(t2) == text
    assert (t2.n, t2.h, t2.U, t2.d, t2.field, t2.fillings) == \
        (t.n, t.h, t.U, t.d, t.field, t.fillings)
    for z, z2, pair in zip(t.shapes, t2.shapes, t._shape_tokens):
        if isinstance(z, FieldElement):
            assert z2 == z
        elif pair is not None:
            with mp.workprec(precision + 24):
                assert z2 == mp.mpc(mp.mpf(pair[0]), mp.mpf(pair[1]))
        else:
            assert abs(z2 - z) < mp.mpf(10) ** -38 * (1 + abs(z))


def _parity(perm):
    return sum(a > b for a, b in itertools.combinations(perm, 2)) % 2


def _two_tetrahedron_gluings():
    """The oriented gluings of two tetrahedra with two valence-6 edge
    classes: face f of tet 0 meets face ps[f][f] of tet 1 by the odd
    permutation ps[f]."""
    odd = [p for p in itertools.permutations(range(4)) if _parity(p)]
    out = []
    for ps in itertools.product(odd, repeat=4):
        if sorted(p[f] for f, p in enumerate(ps)) != [0, 1, 2, 3]:
            continue
        glu = {}
        for f, p in enumerate(ps):
            glu[(0, f)] = (1, p)
            glu[(1, p[f])] = (0, tuple(p.index(i) for i in range(4)))
        g = GluingCombinatorics(2, glu)
        if sorted(len(c) for c in g.edge_classes()) == [6, 6]:
            out.append(g)
    return out


def _row_lattice(rows):
    return [row for row in hnf_rows(rows)[0] if any(row)]


def _derived_rows(g):
    return edge_equations(g) + [row for rows in g.cusp_holonomies()
                                for row in rows]


def test_constructor_rejects_mixed_shapes(fig8):
    # the parser's rule holds for a Triangulation built directly: exact
    # shapes need a field, and exact and numeric shapes do not mix
    k = field_make([1, -1, 1])
    w = k.element([0, 1])
    for shapes, field in (([w, w], None), ([w, mp.mpc(0.5, 0.8)], k)):
        with pytest.raises(TriangulationSyntaxError,
                           match="shapes must be all exact or all numeric"):
            Triangulation(fig8.n, fig8.h, shapes, fig8.U, fig8.d, field=field)
    assert Triangulation(fig8.n, fig8.h, [w, w], fig8.U, fig8.d,
                         field=k).exact_shapes()


def test_cusp_holonomies_two_tetrahedron_gluings(fig8):
    # figure-eight and its Z/5 sibling, each under all vertex relabelings;
    # every one has one cusp, rank n + h = 3 and rows in pi i Z at the
    # regular shape, and only the fixture's relabelings give its lattice
    gluings = _two_tetrahedron_gluings()
    assert len(gluings) == 144
    fixture = _row_lattice(fig8.U)
    same = 0
    with mp.workprec(120):
        z = mp.exp(mp.mpc(0, mp.pi / 3))
        Z = [mp.log(z)] * 2 + [mp.log(1 - z)] * 2
        for g in gluings:
            assert len(g.cusp_holonomies()) == 1
            rows = _derived_rows(g)
            assert len(_row_lattice(rows)) == 3
            for row in rows:
                q = mp.fsum(a * b for a, b in zip(row, Z)) / (mp.pi * 1j)
                assert abs(q - mp.nint(mp.re(q))) < mp.mpf(2) ** -100
            same += _row_lattice(rows) == fixture
    assert same == 8


def test_cusp_holonomies_figure_eight_lattice(fig8):
    (rows,) = fig8.combinatorics.cusp_holonomies()
    assert len(rows) == 5  # 8 link triangles, 12 dual edges: 12 - 8 + 1
    assert _row_lattice(_derived_rows(fig8.combinatorics)) == \
        _row_lattice(fig8.U)


def test_cusp_holonomies_disjoint_union(fig8):
    g = dict(fig8.combinatorics.gluings)
    for (t, f), (t2, perm) in fig8.combinatorics.gluings.items():
        g[(t + 2, f)] = (t2 + 2, perm)
    combi = GluingCombinatorics(4, g)
    assert len(combi.cusp_holonomies()) == 2
    assert len(_row_lattice(_derived_rows(combi))) == 6


def test_edge_equations_figure_eight(fig8):
    rows = edge_equations(fig8.combinatorics)
    assert len(rows) == 2
    # manual edge-class walk oracle: two edge classes of valence 6 whose
    # angle sums at the complete structure are 2 pi each
    classes = fig8.combinatorics.edge_classes()
    assert sorted(len(c) for c in classes) == [6, 6]
    with mp.workprec(280):
        z = mp.exp(mp.mpc(0, mp.pi / 3))
        # each (tet, edge) slot carries dihedral angle pi/3 at the complete
        # structure, so each class of size 6 sums to 2 pi
        for c in classes:
            assert len(c) * mp.pi / 3 - 2 * mp.pi < 1e-30
    # the rows must match the U edge rows up to order and sign
    stored = fig8.U[:2]
    for r in rows:
        assert r in stored or [-x for x in r] in stored


@st.composite
def _closed_gluings(draw):
    """A random closed gluing of 1-4 tetrahedra: the 4n faces paired off,
    each pair by one of the six bijections that send face to face."""
    n = draw(st.integers(1, 4))
    faces = draw(st.permutations([(t, f) for t in range(n)
                                  for f in range(4)]))
    glu = {}
    for (t, f), (t2, f2) in zip(faces[0::2], faces[1::2]):
        perm = draw(st.sampled_from([p for p in itertools.permutations(
            range(4)) if p[f] == f2]))
        glu[(t, f)] = (t2, perm)
        glu[(t2, f2)] = (t, tuple(perm.index(i) for i in range(4)))
    return GluingCombinatorics(n, glu)


@settings(max_examples=150, deadline=None)
@given(_closed_gluings())
def test_edge_classes_are_face_map_orbits(g):
    # brute-force orbit closure: the edge {a, b} of tet t lies in each face
    # f not in {a, b}, whose map carries it to {perm[a], perm[b]}
    orbits, seen = [], set()
    for t in range(g.n):
        for edge in itertools.combinations(range(4), 2):
            if (t, edge) in seen:
                continue
            orbit, todo = set(), [(t, edge)]
            while todo:
                item = todo.pop()
                if item in orbit:
                    continue
                orbit.add(item)
                s, (a, b) = item
                for f in set(range(4)) - {a, b}:
                    s2, perm = g.gluings[(s, f)]
                    todo.append((s2, tuple(sorted((perm[a], perm[b])))))
            seen |= orbit
            orbits.append(sorted(orbit))
    assert g.edge_classes() == sorted(orbits)


def test_edge_equations_open_face():
    g = {(0, 0): (1, (0, 2, 1, 3)), (1, 0): (0, (0, 2, 1, 3))}
    combi = GluingCombinatorics(2, g)
    with pytest.raises(OpenFace):
        edge_equations(combi)


def test_edge_equations_block_diagonal(fig8):
    # disjoint union of two copies: block-diagonal rows
    g = dict(fig8.combinatorics.gluings)
    g2 = dict(g)
    for (t, f), (t2, perm) in g.items():
        g2[(t + 2, f)] = (t2 + 2, perm)
    combi = GluingCombinatorics(4, g2)
    rows = edge_equations(combi)
    assert len(rows) == 4
    for row in rows:
        a = row[:4]
        b = row[4:]
        left = any(a[0:2]) or any(b[0:2])
        right = any(a[2:4]) or any(b[2:4])
        assert not (left and right)


def test_numeric_shapes_are_the_parsed_tokens(fig8):
    # each precision's shapes are read from the tokens once; every call
    # returns a new list of the same values
    for prec in (128, 256, 512, 1024):
        first, again = fig8.numeric_shapes(prec), fig8.numeric_shapes(prec)
        want = [textformat.complex_pair(tok, prec + _GUARD)._mpc_
                for tok in fig8._shape_tokens]
        assert [z._mpc_ for z in first] == [z._mpc_ for z in again] == want
        assert first is not again
        first.clear()
        assert [z._mpc_ for z in fig8.numeric_shapes(prec)] == want


def test_infer_d_figure_eight(fig8):
    assert infer_d(fig8, precision=256) == [-1, 1, 1, -1]
    assert fig8.validate(precision=256)


def test_infer_d_perturbed_shapes(fig8):
    zs = fig8.numeric_shapes(128)
    bad = Triangulation(fig8.n, fig8.h, [zs[0] + mp.mpf("0.01"), zs[1]],
                        fig8.U, fig8.d)
    with pytest.raises(NotIntegral):
        infer_d(bad, precision=128)


def test_infer_d_block_diagonal(fig8):
    # concatenated system validates with concatenated d
    n, h = 4, 2
    U = []
    for row in fig8.U:
        U.append(row[:2] + [0, 0] + row[2:] + [0, 0])
    for row in fig8.U:
        U.append([0, 0] + row[:2] + [0, 0] + row[2:])
    # interleave rows: edges first (4), then cusp pairs (4)
    U = [U[0], U[1], U[4], U[5], U[2], U[3], U[6], U[7]]
    d = [-1, 1, -1, 1, 1, -1, 1, -1]
    zs = fig8.numeric_shapes(192)
    t = Triangulation(n, h, zs + zs, U, d)
    assert infer_d(t, precision=192) == d


def test_infer_d_stability_under_precision(ex3):
    assert infer_d(ex3, precision=128) == [-1, -1, 0]
    assert infer_d(ex3, precision=200) == [-1, -1, 0]


def test_bloch_invariant_figure_eight(fig8):
    e = bloch_invariant(fig8)
    assert len(e) == 1
    (g, c), = e.terms.items()
    assert c == 2
    prec = 256
    with mp.workprec(prec + 16):
        v = volume_of_prebloch(e, precision=prec)
        ref = mp.mpf("2.029883212819307250042405108549040571883378615060599584034978214")
        assert abs(v - ref) < mp.mpf(10) ** -50


def test_bloch_invariant_example3_volume(ex3):
    e = bloch_invariant(ex3)
    prec = 256
    with mp.workprec(prec + 16):
        v = volume_of_prebloch(e, precision=prec)
        ref = mp.mpf(
            "1.831931188354438030109207029864768221548298748563344268534")
        assert abs(v - ref) < mp.mpf(10) ** -55


def test_bloch_invariant_empty():
    t = Triangulation(0, 0, [], [], [])
    assert bloch_invariant(t).is_zero()


def test_positive_volume_for_positively_oriented(fig8, ex3):
    for t in (fig8, ex3):
        v = volume_of_prebloch(bloch_invariant(t), precision=128)
        assert v > 0


def test_edge_rows_conserve_dihedral_angles(fig8):
    # each tetrahedron contributes its z-, z'-, z''-edges exactly twice
    # across all edge classes, so the folded rows sum to zero per column
    rows = edge_equations(fig8.combinatorics)
    for col in range(4):
        assert sum(r[col] for r in rows) == 0
    classes = fig8.combinatorics.edge_classes()
    assert sum(len(c) for c in classes) == 12  # 6 edges per tetrahedron

import collections
import importlib.resources
import itertools

import mpmath as mp
import pytest
from hypothesis import given, settings, strategies as st

from blochinv.dilog import bloch_wigner
from blochinv.errors import DimensionMismatch, NotAFiveTermConfiguration
from blochinv.numfield import field_make
from blochinv.prebloch import (Infinity, six_fold_normalize,
                               volume_of_prebloch, wedge)
from blochinv.scissors import (IdealPolyhedron, _canon_simplex,
                               cone_decomposition, cycle_move,
                               decomposition_class, parse_polyhedron,
                               polyhedron_class)

PREC = 192


def fixture(name):
    return parse_polyhedron(importlib.resources.files("blochinv").joinpath(
        "fixtures/" + name).read_text())


def octahedron_numeric():
    return fixture("octahedron.poly")


def octahedron_exact():
    gauss = field_make([1, 0, 1])
    i = gauss.gen()
    one = gauss.one()
    verts = [gauss.zero(), Infinity, one, i, -one, -i]
    faces = [[1, 2, 3], [1, 3, 4], [1, 4, 5], [1, 5, 2],
             [0, 3, 2], [0, 4, 3], [0, 5, 4], [0, 2, 5]]
    return IdealPolyhedron(verts, faces)


def test_tetrahedron_own_class():
    p = fixture("tetrahedron.poly")
    e = polyhedron_class(p)
    assert len(e) == 1
    with mp.workprec(PREC + 16):
        v = volume_of_prebloch(e, precision=PREC)
        ref = bloch_wigner(mp.mpc("0.3", "1.1"), PREC)
        assert abs(v - ref) < mp.mpf(2) ** (-PREC + 20)


def test_octahedron_volume_and_apex_independence():
    p = octahedron_numeric()
    with mp.workprec(PREC + 16):
        ref = 4 * bloch_wigner(mp.mpc(0, 1), PREC)
        assert abs(ref - mp.mpf("3.66386237670887606")) < 1e-15
        vols = []
        for apex in range(6):
            dec = cone_decomposition(p, apex)
            assert len(dec) == 4  # T - deg_triangles(apex) = 8 - 4
            e = decomposition_class(p, dec)
            vols.append(volume_of_prebloch(e, precision=PREC))
        for v in vols:
            assert abs(v - ref) < mp.mpf(10) ** -40


def test_octahedron_wedge_agreement_exact():
    p = octahedron_exact()
    images = []
    for apex in range(6):
        e = six_fold_normalize(decomposition_class(
            p, cone_decomposition(p, apex)))
        images.append(e)
    # the normalized classes agree literally here, hence equal wedge images
    for e in images[1:]:
        assert e == images[0]
    wedge(images[0], precision=192)


def test_square_pyramid_two_vs_three():
    p = fixture("square_pyramid.poly")
    dec2 = cone_decomposition(p, 0)       # apex of the pyramid: 2 simplices
    dec3 = cone_decomposition(p, 2)       # base vertex off the diagonal: 3
    assert len(dec2) == 2 and len(dec3) == 3
    with mp.workprec(PREC + 16):
        v2 = volume_of_prebloch(decomposition_class(p, dec2), precision=PREC)
        v3 = volume_of_prebloch(decomposition_class(p, dec3), precision=PREC)
        assert abs(v2 - v3) < mp.mpf(10) ** -40


def test_square_pyramid_cycle_move():
    # the 3-simplex decomposition from a base vertex and the 2-simplex one
    # from the apex are the two sides of one five-point configuration
    p = fixture("square_pyramid.poly")
    dec3 = cone_decomposition(p, 2)
    dec2 = cone_decomposition(p, 0)
    dec2c = sorted(_canon_simplex(q, s) for q, s in dec2)
    dec3c = sorted(_canon_simplex(q, s) for q, s in dec3)
    # find the configuration whose sides are exactly the two decompositions
    config = None
    for cand in itertools.permutations(range(5)):
        try:
            if sorted(cycle_move(dec3, cand)) != dec2c:
                continue
            if sorted(cycle_move(cycle_move(dec3, cand), cand)) == dec3c:
                config = cand
                break
        except NotAFiveTermConfiguration:
            continue
    assert config is not None
    moved = cycle_move(dec3, config)
    assert sorted(moved) == dec2c
    # involution: applying the move twice returns the original
    back = cycle_move(moved, config)
    assert sorted(back) == dec3c
    # D2 preserved
    with mp.workprec(PREC + 16):
        va = volume_of_prebloch(decomposition_class(p, dec3), precision=PREC)
        vb = volume_of_prebloch(decomposition_class(p, moved), precision=PREC)
        assert abs(va - vb) < mp.mpf(2) ** (-PREC + 16)


def test_cycle_move_rejects_bad_config():
    p = fixture("square_pyramid.poly")
    dec2 = cone_decomposition(p, 0)
    with pytest.raises(NotAFiveTermConfiguration):
        cycle_move(dec2, (0, 1, 2, 3, 3))


def test_gluing_additivity():
    # two square pyramids glued along the compatibly triangulated base give
    # the octahedron: classes add
    gauss = field_make([1, 0, 1])
    i = gauss.gen()
    one = gauss.one()
    oct_e = polyhedron_class(octahedron_exact())
    top = IdealPolyhedron([Infinity, one, i, -one, -i],
                          [[0, 1, 2], [0, 2, 3], [0, 3, 4], [0, 4, 1],
                           [1, 4, 3, 2]],
                          [[], [], [], [], [(1, 3)]])
    bottom = IdealPolyhedron([gauss.zero(), one, i, -one, -i],
                             [[0, 2, 1], [0, 3, 2], [0, 4, 3], [0, 1, 4],
                              [1, 2, 3, 4]],
                             [[], [], [], [], [(1, 3)]])
    total = six_fold_normalize(polyhedron_class(top) + polyhedron_class(bottom))
    assert total == oct_e


def test_flat_quadrilateral_class():
    p = fixture("flat_quadrilateral.poly")
    e = polyhedron_class(p)
    assert len(e) == 1
    (g, c), = e.terms.items()
    assert mp.im(g) == 0  # a flat tetrahedron class, real parameter
    with mp.workprec(64):
        assert volume_of_prebloch(e, precision=64) == 0


def test_validation_rejects_open_surface():
    with pytest.raises(DimensionMismatch):
        IdealPolyhedron([mp.mpc(0), mp.mpc(1), Infinity], [[0, 1, 2]])


def test_validation_rejects_missing_diagonals():
    with pytest.raises(DimensionMismatch):
        IdealPolyhedron([Infinity, mp.mpc(1), mp.mpc(0, 1), mp.mpc(-1),
                         mp.mpc(0, -1)],
                        [[0, 1, 2], [0, 2, 3], [0, 3, 4], [0, 4, 1],
                         [1, 4, 3, 2]])  # quad face without a diagonal


def _net(decomposition):
    """Signed multiplicity of each canonical simplex."""
    net = collections.Counter()
    for quad, sign in decomposition:
        q, s = _canon_simplex(quad, sign)
        net[q] += s
    return net


_QUADS = st.permutations(range(7)).map(lambda p: tuple(p[:4]))


@settings(max_examples=200, deadline=None)
@given(st.permutations(range(7)).map(lambda p: tuple(p[:5])),
       st.lists(st.tuples(_QUADS, st.sampled_from([1, -1])), max_size=4),
       st.sampled_from([None, 0, 1]), st.sampled_from([1, -1]), st.data())
def test_cycle_move_swaps_one_signed_side(config, noise, parity, sign, data):
    # the boundary of the 4-simplex on config is d = sum_k (-1)^k [omit_k];
    # a move trades a side of it, present with one sign, for the other side
    # of that sign, so the net sum moves by +d or -d
    v = list(config)
    omit = [tuple(v[:k] + v[k + 1:]) for k in range(5)]
    boundary = _net((omit[k], (-1) ** k) for k in range(5))
    dec = list(noise)
    if parity is not None:
        # plant one side, each simplex under an arbitrary vertex order
        for k in range(parity, 5, 2):
            order = data.draw(st.permutations(omit[k]))
            dec.insert(data.draw(st.integers(0, len(dec))),
                       (order, sign * _canon_simplex(order, 1)[1]
                        * _canon_simplex(omit[k], 1)[1]))
    have = collections.Counter(_canon_simplex(q, s) for q, s in dec)
    present = any(all(have[q, e * s] for q, s in
                      (_canon_simplex(omit[k], 1) for k in range(p, 5, 2)))
                  for p in (0, 1) for e in (1, -1))
    if not present:
        with pytest.raises(NotAFiveTermConfiguration):
            cycle_move(dec, config)
        return
    moved = _net(cycle_move(dec, config))
    moved.subtract(_net(dec))
    delta = {q: s for q, s in moved.items() if s}
    assert delta in (dict(boundary), {q: -s for q, s in boundary.items()})


@pytest.mark.parametrize("vertices,faces,diagonals,message", [
    # one face whose two sides pair up, Euler characteristic 2 by coincidence
    ([mp.mpc(0), mp.mpc(1), mp.mpc(0, 1)], [[0, 1, 0, 2]], [[(1, 2)]],
     "face 0 repeats a vertex"),
    # a closed tetrahedron on vertex 7 of four
    ([mp.mpc(0), Infinity, mp.mpc(1), mp.mpc("0.3", "1.1")],
     [[0, 2, 1], [0, 1, 7], [1, 2, 7], [0, 7, 2]], None,
     r"face 1 has a vertex outside 0\.\.3"),
], ids=["repeated_vertex", "missing_vertex"])
def test_validation_rejects_face_off_the_vertex_list(vertices, faces,
                                                     diagonals, message):
    with pytest.raises(DimensionMismatch, match=message):
        IdealPolyhedron(vertices, faces, diagonals)

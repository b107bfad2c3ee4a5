import functools
import hashlib
import math
import random
from fractions import Fraction
from importlib.resources import files

import mpmath as mp
import pytest
from hypothesis import (assume, example, given, settings,
                        strategies as st)

from blochinv.errors import (DegenerateFiveTerm, DegenerateShape, NotDistinct,
                             RequiresExactField, TriangulationSyntaxError)
from blochinv.lattice import hnf_rows
from blochinv.numfield import FieldElement, field_make
from blochinv.prebloch import (Infinity, PreBlochElement, cross_ratio,
                               five_term, is_bloch, multiplicative_relations,
                               orbit_images, parse_element, serialize_element,
                               six_fold_normalize, volume_of_prebloch, wedge)

WEEKS = field_make([1, -1, 0, 1])
QUARTIC = field_make([1, -1, 1, 0, 1])


def test_cross_ratio_direct():
    assert cross_ratio(Fraction(0), Fraction(1), Fraction(2), Fraction(3)) \
        == Fraction(3, 4)


def test_cross_ratio_infinity():
    # [inf:.:.:.] in each slot stays consistent with finite-point limits
    with mp.workprec(120):
        z = mp.mpc("2.0", "1.0")
        pts = [mp.mpc("-1.5", "0.5"), mp.mpc(0), mp.mpc(1), z]
        big = mp.mpc("3e30", "1e30")
        for slot in range(4):
            with_inf = list(pts)
            with_inf[slot] = Infinity
            with_big = list(pts)
            with_big[slot] = big
            v = cross_ratio(*with_inf)
            approx = cross_ratio(*with_big)
            assert abs(v - approx) < 1e-25, slot


def test_cross_ratio_not_distinct():
    with pytest.raises(NotDistinct):
        cross_ratio(Fraction(0), Fraction(0), Fraction(1), Fraction(2))
    with pytest.raises(NotDistinct):
        cross_ratio(Infinity, Infinity, Fraction(1), Fraction(2))


def test_cross_ratio_permutation_orbits():
    # even permutations land in {z, 1-1/z, 1/(1-z)}; odd in {1/z, z/(z-1), 1-z}
    import itertools
    pts = [Fraction(0), Fraction(1), Fraction(2), Fraction(5)]
    z = cross_ratio(*pts)
    even_imgs = {z, 1 - 1 / z, 1 / (1 - z)}
    odd_imgs = {1 / z, z / (z - 1), 1 - z}
    for perm in itertools.permutations(range(4)):
        inv = sum(1 for i in range(4) for j in range(i + 1, 4)
                  if perm[i] > perm[j])
        v = cross_ratio(*[pts[i] for i in perm])
        if inv % 2 == 0:
            assert v in even_imgs
        else:
            assert v in odd_imgs


def test_element_rejects_degenerate():
    with pytest.raises(DegenerateShape):
        PreBlochElement([(Fraction(1), 1)])


def test_six_fold_same_orbit_combines():
    z = mp.mpc("2", "1")
    e = PreBlochElement([(z, 1), (1 - 1 / z, 1)])
    n = six_fold_normalize(e)
    assert len(n) == 1
    assert list(n.terms.values()) == [2]


def test_six_fold_inverse_negates():
    z = mp.mpc("2", "1")
    a = six_fold_normalize(PreBlochElement([(1 / z, 1)]))
    b = six_fold_normalize(PreBlochElement([(z, 1)]))
    (ga, ca), = a.terms.items()
    (gb, cb), = b.terms.items()
    assert abs(ga - gb) < 1e-12
    assert ca == -cb


def test_six_fold_z_plus_one_minus_z_cancels():
    z = mp.mpc("0.3", "0.7")
    e = PreBlochElement([(z, 1), (1 - z, 1)])
    assert six_fold_normalize(e).is_zero()
    # and exactly over a field
    th = QUARTIC.gen()
    e2 = PreBlochElement([(th, 1), (QUARTIC.one() - th, 1)])
    assert six_fold_normalize(e2).is_zero()


def test_six_fold_idempotent_and_d2_invariant():
    rng = random.Random(2)
    prec = 128
    with mp.workprec(prec + 16):
        for _ in range(10):
            z = mp.mpc(rng.uniform(-2, 2), rng.uniform(0.05, 2))
            e = PreBlochElement([(z, rng.randint(-3, 3) or 1)])
            n1 = six_fold_normalize(e)
            n2 = six_fold_normalize(n1)
            assert n1 == n2
            v0 = volume_of_prebloch(e, precision=prec)
            v1 = volume_of_prebloch(n1, precision=prec)
            assert abs(v0 - v1) < mp.mpf(2) ** (-prec + 16)


def test_five_term_structure():
    e = five_term(mp.mpc("2", "1"), mp.mpc("3", "-1"))
    assert len(e) == 5


def test_five_term_degenerate():
    with pytest.raises(DegenerateFiveTerm):
        five_term(Fraction(2), Fraction(2))


def test_five_term_d2_vanishes():
    rng = random.Random(17)
    prec = 192
    with mp.workprec(prec + 16):
        for _ in range(20):
            x = mp.mpc(rng.uniform(-2, 2), rng.uniform(-2, 2))
            y = mp.mpc(rng.uniform(-2, 2), rng.uniform(-2, 2))
            try:
                e = five_term(x, y)
            except DegenerateFiveTerm:
                continue
            v = volume_of_prebloch(e, precision=prec)
            assert abs(v) < mp.mpf(2) ** (-prec + 16)


# ---------------------------------------------------------------------------
# relations / wedge / is_bloch

def test_relations_powers_of_two():
    rels = multiplicative_relations([Fraction(2), Fraction(4)])
    assert any(r.exponents in ((-2, 1), (2, -1)) for r in rels)


def test_relations_theta_powers():
    th = WEEKS.gen()
    rels = multiplicative_relations([th, th ** 3], precision=192)
    assert any(r.exponents in ((-3, 1), (3, -1)) for r in rels)


def test_relations_theta_unit():
    # 1 - theta = -theta^3 exactly in Q[x]/(x^3 - x + 1)
    th = WEEKS.gen()
    one_minus = WEEKS.one() - th
    assert (th ** 3 + one_minus).is_zero()
    rels = multiplicative_relations([th, one_minus], precision=192)
    found = [r for r in rels if r.exponents in ((3, -1), (-3, 1))]
    assert found
    u = found[0].unity
    assert u.is_rational() and u.as_rational() == -1


def test_wedge_half_over_q():
    e = PreBlochElement([(Fraction(1, 2), 1)])
    w = wedge(e)
    assert w.is_zero()


def test_wedge_three_over_q_nonzero():
    # oracle: prime-exponent vectors; 2(3 ^ (-2)) = 2(3 ^ 2) != 0
    e = PreBlochElement([(Fraction(3), 1)])
    w = wedge(e)
    assert not w.is_zero()


def test_wedge_requires_exact():
    with pytest.raises(RequiresExactField):
        wedge(PreBlochElement([(mp.mpc("2", "1"), 1)]))


def test_wedge_theta_zero():
    # theta ^ (1 - theta) = theta ^ (-theta^3): doubling kills the sign
    e = PreBlochElement([(WEEKS.gen(), 1)])
    w = wedge(e, precision=192)
    assert w.is_zero()


def test_is_bloch_weeks_element():
    cert = is_bloch(PreBlochElement([(WEEKS.gen(), 1)]), precision=192)
    assert cert.verdict == "CertifiedZero"


def test_is_bloch_rational_prime():
    for p in (3, 5, 7):
        cert = is_bloch(PreBlochElement([(Fraction(p), 1)]))
        assert cert.verdict == "LikelyNonzero"


def test_is_bloch_beta1():
    tau = QUARTIC.gen()
    one = QUARTIC.one()
    g1 = (one - tau ** 2 - tau ** 3) * Fraction(1, 2)
    g2 = one - tau
    g3 = (one - tau ** 2 + tau ** 3) * Fraction(1, 2)
    beta1 = PreBlochElement([(g1, 2), (g2, 1), (g3, 1)])
    cert = is_bloch(beta1, precision=256)
    assert cert.verdict == "CertifiedZero"


def test_is_bloch_beta2():
    tau = QUARTIC.gen()
    one = QUARTIC.one()
    b1 = one * 2 - tau - tau ** 3
    b2 = tau + tau ** 2 + tau ** 3
    beta2 = PreBlochElement([(b1, 2), (b2, 2)])
    cert = is_bloch(beta2, precision=256)
    assert cert.verdict == "CertifiedZero"


def test_wedge_five_term_certified_zero_rational():
    rng = random.Random(23)
    done = 0
    while done < 10:
        x = Fraction(rng.randint(2, 30), rng.randint(1, 9))
        y = Fraction(rng.randint(2, 30), rng.randint(1, 9))
        try:
            e = five_term(x, y)
        except DegenerateFiveTerm:
            continue
        w = wedge(e)
        assert w.is_zero(), (x, y)
        done += 1


def test_wedge_five_term_certified_zero_gaussian():
    gauss = field_make([1, 0, 1])
    i = gauss.gen()
    one = gauss.one()
    rng = random.Random(29)
    done = 0
    while done < 6:
        x = one * rng.randint(-3, 3) + i * rng.randint(-3, 3)
        y = one * rng.randint(-3, 3) + i * rng.randint(-3, 3)
        try:
            e = five_term(x, y)
        except (DegenerateFiveTerm, DegenerateShape):
            continue
        w = wedge(e, precision=256)
        assert w.is_zero(), (x.coeffs, y.coeffs)
        done += 1


# Certificates of seeded five-term elements at 256 bits: the verdict, the
# number of relations, a digest of every relation's exponents and unity
# coefficients, and a digest of the Hermite form of the relation exponents
# (the relation lattice, as recorded when the certificate also listed short
# combinations of the verified relations), as recorded from the
# Fraction-coefficient field arithmetic.  Exact arithmetic must reproduce
# them bit for bit.  The relation digests of cubic_a and cubic_b were
# re-recorded when the valuation kernel's columns moved from the primes to
# a coprime base refined by gcds: another basis of the same lattice.
_PINNED_CERTIFICATES = [
    ([1, 0, 1], ["-4", "-2"], ["1", "6"], 5, "9702b333d1d24b5e",
     "47c70db0aa8be9ca"),
    ([1, 0, 1], ["-3/2", "-1/4"], ["4", "3"], 5, "d57be637a31acc02",
     "47c70db0aa8be9ca"),
    ([1, -1, 0, 1], ["-1", "-5/4", "1/2"], ["-5", "-5", "-6"], 5,
     "d7388cb97019ca8a", "47c70db0aa8be9ca"),
    ([1, -1, 0, 1], ["1", "5/3", "6"], ["1", "6", "-3"], 5,
     "05fa7c41b39a4a2a", "47c70db0aa8be9ca"),
]


def _pinned_element(poly, x, y):
    k = field_make(poly)
    return five_term(k.element([Fraction(a) for a in x]),
                     k.element([Fraction(a) for a in y]))


def _lattice_rows(relations):
    """Nonzero rows of the Hermite form of the relation exponents."""
    H, _ = hnf_rows([list(r.exponents) for r in relations])
    return [row for row in H if any(row)]


@pytest.mark.parametrize("poly,x,y,count,digest,lattice",
                         _PINNED_CERTIFICATES,
                         ids=["gauss_a", "gauss_b", "cubic_a", "cubic_b"])
def test_is_bloch_pinned_certificates(poly, x, y, count, digest, lattice):
    cert = is_bloch(_pinned_element(poly, x, y), precision=256)
    assert cert.verdict == "CertifiedZero"
    text = ";".join("%s:%s" % (",".join(map(str, r.exponents)),
                               " ".join(map(str, r.unity.coeffs)))
                    for r in cert.relations)
    assert len(cert.relations) == count
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest
    hnf = ";".join(",".join(map(str, row))
                   for row in _lattice_rows(cert.relations))
    assert hashlib.sha256(hnf.encode()).hexdigest()[:16] == lattice


# SHA-256 of the verdicts and relations of the certificates of
# _digest_elements().  The earlier pin, which also hashed each certificate's
# residual basis, was recorded before the coordinate vectors of
# multiplicative_relations moved from mpc objects to raw libmp tuples.  This
# pin was re-recorded when the valuation kernel's columns moved from the
# primes to a coprime base refined by gcds, which moves the bases of some
# relation lattices; RELATION_LATTICES, which hashes only the verdicts and
# the Hermite forms of the relation exponents, did not move.
CERTIFICATE_BITS = (
    "826cf74c2fd2da143421447b85f0292cc6e6fd6e87784e7483ba2892773883d7")
RELATION_LATTICES = (
    "62259e2d6173c38cdf79faa699024aab4d15404a75d090d857896abc7989e9ec")


def _digest_elements():
    """About 200 seeded five-term elements over Q, Q(i) and x^3 - x + 1."""
    rng = random.Random(16)
    fields = [None, field_make([1, 0, 1]), WEEKS]
    out = []
    while len(out) < 201:
        k = fields[len(out) % 3]
        if k is None:
            x, y = (Fraction(rng.randint(-30, 30), rng.randint(1, 8))
                    for _ in range(2))
        else:
            x, y = (k.element([Fraction(rng.randint(-8, 8), rng.randint(1, 3))
                               for _ in range(k.degree)]) for _ in range(2))
        try:
            out.append(five_term(x, y))
        except (DegenerateFiveTerm, DegenerateShape):
            continue
    return out


def _exact_text(x):
    if isinstance(x, FieldElement):
        return " ".join(map(str, x.coeffs))
    return str(x)


@functools.cache
def _digest_certificates():
    return [is_bloch(e, precision=256) for e in _digest_elements()]


def test_is_bloch_certificates_digest():
    out = [(cert.verdict, [(r.exponents, _exact_text(r.unity))
                           for r in cert.relations])
           for cert in _digest_certificates()]
    assert hashlib.sha256(repr(out).encode()).hexdigest() == CERTIFICATE_BITS


def test_is_bloch_relation_lattices_digest():
    # independent of the basis of each relation lattice
    out = [(cert.verdict, _lattice_rows(cert.relations))
           for cert in _digest_certificates()]
    assert hashlib.sha256(repr(out).encode()).hexdigest() == RELATION_LATTICES


# Certificates in fields with one archimedean place (Q(sqrt-3), Q(sqrt-7), a
# degree-1 field, Q(i) at 128 and 512 bits) and in the real quadratic
# control field Q(sqrt 2): the verdict and a digest of the relations and the
# wedge matrix, recorded before multiplicative_relations dropped the log|x|
# coordinate of one-place fields.  A pair of coefficient strings is the
# five-term element of (x, y); a dict maps coefficient strings to the
# multiplicities of an element's terms.  The two LikelyNonzero digests
# 39e41591e1df56b5 and e4ac4c533291de95 were re-recorded when the wedge
# basis moved from a Smith form to the integer kernel of the relations:
# same relations and verdicts, wedge matrix A M A^T with A = diag(1, -1).
# The CertifiedZero digests 28e9c054b7c60968, d38955755c0187ca and
# 91098667f2400773 were re-recorded when the valuation kernel's columns
# moved from the primes to a coprime base: same verdicts and relation
# lattices, other bases of them.
_ONE_PLACE_PINS = [
    ([1, 1, 1], 256, ("2 1", "-1 3"), "CertifiedZero", "67443bce204513c2"),
    ([1, 1, 1], 256, ("1/2 -3", "4 1"), "CertifiedZero", "8030b673bd8baf9f"),
    ([1, 1, 1], 256, ("5 -2", "-3 -7/2"), "CertifiedZero", "3f2bdc6b7a0e15a5"),
    ([1, 1, 1], 256, {"2 1": 1}, "CertifiedZero", "994bb13c11ccb0db"),
    ([1, 1, 1], 256, {"1 1": 1}, "CertifiedZero", "ca1f4b74e1d60abc"),
    ([1, 1, 1], 256, {"3 -1": 1}, "LikelyNonzero", "c2a346a4f2c35382"),
    ([1, 1, 1], 256, {"0 1": 1, "0 3": 2},
     "LikelyNonzero", "61db24b0ba6713dc"),
    ([2, -1, 1], 256, ("1 1", "-2 1"), "CertifiedZero", "7054abba886e9201"),
    ([2, -1, 1], 256, ("3/2 -1", "1 2"), "CertifiedZero", "d2de31af31f4d29f"),
    ([2, -1, 1], 256, {"0 1": 1}, "LikelyNonzero", "c2a346a4f2c35382"),
    ([2, -1, 1], 256, {"-2 1": 1, "2 0": 2},
     "LikelyNonzero", "6ab11bc7290541c9"),
    ([-3, 1], 256, ("5/2", "-4"), "CertifiedZero", "718e391f3edc88d5"),
    ([-3, 1], 256, ("7", "3/4"), "CertifiedZero", "c0e759bbb593a3ef"),
    ([-3, 1], 256, {"3": 1}, "LikelyNonzero", "c2a346a4f2c35382"),
    ([-3, 1], 256, {"-4": 1, "-1": 2}, "LikelyNonzero", "b7534772105d5a62"),
    ([1, 0, 1], 128, ("-4 -2", "1 6"), "CertifiedZero", "89b7428281b517c4"),
    ([1, 0, 1], 512, ("-4 -2", "1 6"), "CertifiedZero", "89b7428281b517c4"),
    ([1, 0, 1], 128, ("-3/2 -1/4", "4 3"),
     "CertifiedZero", "406803721cb7861b"),
    ([1, 0, 1], 512, ("-3/2 -1/4", "4 3"),
     "CertifiedZero", "406803721cb7861b"),
    ([1, 0, 1], 128, {"2 1": 1}, "LikelyNonzero", "c2a346a4f2c35382"),
    ([1, 0, 1], 128, {"4 4": 1, "1 -1": -1},
     "LikelyNonzero", "72f4d17b13b7f20e"),
    ([1, 0, 1], 512, {"4 4": 1, "1 -1": -1},
     "LikelyNonzero", "72f4d17b13b7f20e"),
    ([-2, 0, 1], 256, ("1 1", "3 -1"), "CertifiedZero", "3e7e72ab7bfb958c"),
    ([-2, 0, 1], 256, {"1 1": 1}, "LikelyNonzero", "c2a346a4f2c35382"),
    ([-2, 0, 1], 256, {"4 -2": 1, "2 -1": -1},
     "LikelyNonzero", "e9f633ba17a47cf6"),
]


def _spec_element(k, spec):
    def gen(text):
        return k.element([Fraction(a) for a in text.split()])
    if isinstance(spec, tuple):
        return five_term(*map(gen, spec))
    return PreBlochElement([(gen(g), c) for g, c in spec.items()])


def _certificate_digest(cert):
    text = repr((cert.verdict,
                 [(r.exponents, _exact_text(r.unity)) for r in cert.relations],
                 cert.wedge.matrix))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.mark.parametrize("poly,prec,spec,verdict,digest", _ONE_PLACE_PINS)
def test_is_bloch_one_place_pins(poly, prec, spec, verdict, digest):
    cert = is_bloch(_spec_element(field_make(poly), spec), precision=prec)
    assert (cert.verdict, _certificate_digest(cert)) == (verdict, digest)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.fractions(-12, 12, max_denominator=6).filter(bool),
                min_size=1, max_size=6))
# exponent 65 exceeds the LLL path's _MAX_EXPONENT; the valuation kernel
# finds it
@example([Fraction(2), Fraction(2 ** 65)])
def test_degree_one_relations_match_rationals(qs):
    # a degree-1 field takes the valuation-kernel path of Q: the relations
    # are those of the same rationals, with unities in the field
    k = field_make([-3, 1])
    rels = multiplicative_relations([k.from_rational(q) for q in qs])
    assert rels == [r._replace(unity=k.from_rational(r.unity))
                    for r in multiplicative_relations(qs)]
    assert all(r.unity.field is k for r in rels)


@pytest.mark.parametrize("elements", [
    [Fraction(0)], [Fraction(2), 0], [WEEKS.gen(), WEEKS.zero()],
    [field_make([-3, 1]).zero()]])
def test_relations_reject_zero(elements):
    with pytest.raises(DegenerateShape):
        multiplicative_relations(elements)


@pytest.mark.parametrize("poly,logs", [
    ([1, -1, 0, 1], 1), ([1, 0, 0, 0, 1], 1), ([-2, 0, 1], 1),
    ([1, 0, 1], 0)])
def test_one_log_left_out_per_element(monkeypatch, poly, logs):
    # the search takes log|x| at r1 + r2 - 1 places: every product on the
    # norm-valuation kernel has |N| = 1, which fixes the first place's log
    from blochinv import prebloch
    calls = []

    def counting_log(*args):
        calls.append(args)
        return mpf_log(*args)

    mpf_log = prebloch.mpf_log
    monkeypatch.setattr(prebloch, "mpf_log", counting_log)
    g = field_make(poly).gen()
    elements = [g, g ** 3, g + 1]
    assert multiplicative_relations(elements)
    assert len(calls) == logs * len(elements)


def test_degree_one_needs_no_embeddings(monkeypatch):
    from blochinv import prebloch

    def no_embeddings(*args):
        raise AssertionError("embeddings of a degree-1 field")

    monkeypatch.setattr(prebloch, "embeddings", no_embeddings)
    k = field_make([-3, 1])
    rels = multiplicative_relations([k.from_rational(2), k.from_rational(4)])
    assert [r.exponents for r in rels] in ([(2, -1)], [(-2, 1)])
    assert rels[0].unity == k.one()


@settings(max_examples=20, deadline=None)
@given(st.sampled_from([field_make([1, 0, 1]), field_make([1, 1, 1]), WEEKS]),
       st.data())
def test_is_bloch_same_at_p_and_2p(k, data):
    coeffs = st.lists(st.fractions(-8, 8, max_denominator=3),
                      min_size=k.degree, max_size=k.degree).map(k.element)
    try:
        e = five_term(data.draw(coeffs), data.draw(coeffs))
    except (DegenerateFiveTerm, DegenerateShape):
        assume(False)
    a, b = (is_bloch(e, precision=p) for p in (256, 512))
    assert a.verdict == b.verdict
    assert _lattice_rows(a.relations) == _lattice_rows(b.relations)


def test_each_relation_verified_once(monkeypatch):
    # every returned relation is one exactly verified candidate, and no
    # verification is spent on anything else
    from blochinv import prebloch
    verify = prebloch._verify_relation
    calls = []

    def counting_verify(elements, e):
        calls.append(e)
        return verify(elements, e)

    monkeypatch.setattr(prebloch, "_verify_relation", counting_verify)
    for poly, x, y, *_ in _PINNED_CERTIFICATES:
        calls.clear()
        cert = is_bloch(_pinned_element(poly, x, y), precision=256)
        assert [r.exponents for r in cert.relations] == calls


def _mpc_horner(a, root):
    """Horner on mpc objects at the working precision: each coefficient p/q
    in lowest terms as mpf(p) / mpf(q)."""
    acc = mp.mpc(0)
    for c in reversed(a.coeffs):
        acc = acc * root + mp.mpf(c.numerator) / mp.mpf(c.denominator)
    return acc


# exact mpf parts wider than 512 bits, and both libmp zeros
_PART = st.one_of(
    st.sampled_from([mp.libmp.fzero, mp.libmp.fnzero]),
    st.builds(mp.libmp.from_man_exp, st.integers(-2 ** 600, 2 ** 600),
              st.integers(-620, 8)))
_WIDE = st.builds(Fraction, st.integers(-2 ** 700, 2 ** 700),
                  st.integers(1, 2 ** 700))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([field_make([0, 1]), field_make([1, 0, 1]), WEEKS,
                        QUARTIC]),
       st.sampled_from([128, 256, 512]), st.data())
def test_libmp_coordinates_match_mpc(k, prec, data):
    # numfield.horner and the coordinates taken from it have the bits of mpc
    # Horner followed by mp.log(abs(v)) at every place but the first and
    # mp.arg(v) at complex ones: at real places (given to mpc Horner as an
    # mpf) and complex ones, zeros of either sign included, with
    # coefficients wider than the precision
    from blochinv.numfield import horner
    from blochinv.prebloch import _log_coordinates
    a = k.element(data.draw(st.lists(_WIDE, min_size=k.degree,
                                     max_size=k.degree)))
    reals = data.draw(st.lists(_PART, max_size=2))
    pairs = data.draw(st.lists(st.tuples(_PART, _PART), max_size=3))
    places = [(x, mp.libmp.fzero) for x in reals] + pairs
    roots = [mp.make_mpf(x) for x in reals] + [mp.make_mpc(z) for z in pairs]
    with mp.workprec(prec):
        values = [_mpc_horner(a, r) for r in roots]
        assert horner(a, places, prec) == [v._mpc_ for v in values]
        coords = ([mp.log(abs(v))._mpf_ for v in values[1:]]
                  + [mp.arg(v)._mpf_ for v in values[len(reals):]])
    assert _log_coordinates(a, places, len(reals), prec) == coords


@settings(max_examples=20, deadline=None)
@given(st.sampled_from([field_make([1, 0, 1]), WEEKS]), st.data())
def test_relations_are_independent(k, data):
    coeffs = st.lists(st.integers(-8, 8), min_size=k.degree,
                      max_size=k.degree).map(k.element)
    try:
        e = five_term(data.draw(coeffs), data.draw(coeffs))
    except (DegenerateFiveTerm, DegenerateShape):
        assume(False)
    cert = is_bloch(e, precision=256)
    assert len(_lattice_rows(cert.relations)) == len(cert.relations)


@settings(max_examples=20, deadline=None)
@given(st.sampled_from([field_make([1, 0, 1]), WEEKS]), st.data(),
       st.integers(0, 4), st.integers(0, 5))
def test_wedge_verdict_invariant_under_six_fold_images(k, data, term, image):
    # [z] = s [g] for each signed image (g, s) of z, so swapping one term of
    # five_term(x, y) for an image leaves its wedge verdict unchanged
    coeffs = st.lists(st.integers(-6, 6), min_size=k.degree,
                      max_size=k.degree).map(k.element)
    try:
        e = five_term(data.draw(coeffs), data.draw(coeffs))
    except (DegenerateFiveTerm, DegenerateShape):
        assume(False)
    terms = list(e.terms.items())
    z, c = terms[term % len(terms)]
    g, s = orbit_images(z)[image]
    swapped = PreBlochElement([(w, n) for w, n in terms if w != z] +
                              [(g, s * c)])
    assert is_bloch(swapped).verdict == is_bloch(e).verdict


# ---------------------------------------------------------------------------
# serialization

def test_element_roundtrip_exact():
    tau = QUARTIC.gen()
    e = PreBlochElement([(tau, 2), (QUARTIC.one() - tau, -1)])
    text = serialize_element(e)
    e2, places = parse_element(text)
    assert places is None
    assert six_fold_normalize(e2) == six_fold_normalize(e)


def test_element_roundtrip_numeric():
    z = mp.mpc("0.5", "0.8660254037844386467637231707529361834714")
    e = PreBlochElement([(z, 2)])
    text = serialize_element(e)
    e2, _ = parse_element(text, precision=128)
    (g, c), = e2.terms.items()
    assert c == 2 and abs(g - z) < 1e-25


_RATIONALS = st.fractions(min_value=-9, max_value=9, max_denominator=12)
_FLOATS = st.floats(-9, 9, allow_nan=False)


@st.composite
def _elements(draw):
    fld = draw(st.sampled_from([None, field_make([1, 0, 1]), WEEKS]))
    exact = _RATIONALS if fld is None else st.lists(
        _RATIONALS, min_size=fld.degree, max_size=fld.degree).map(fld.element)
    gens = draw(st.lists(st.one_of(exact, st.builds(mp.mpc, _FLOATS, _FLOATS)),
                         max_size=5))
    try:
        e = PreBlochElement([(g, draw(st.integers(-3, 3))) for g in gens])
    except DegenerateShape:
        assume(False)
    return e


@settings(max_examples=60, deadline=None)
@given(_elements(), st.sampled_from([64, 256]))
def test_element_serialize_parse_roundtrip(e, precision):
    text = serialize_element(e)
    e2, places = parse_element(text, precision=precision)
    assert places is None and e2.field == e.field
    assert serialize_element(e2) == text
    assert len(e2) == len(e)
    for (g, c), (g2, c2) in zip(e.terms.items(), e2.terms.items()):
        assert c2 == c
        if isinstance(g, (FieldElement, Fraction)):
            assert g2 == g
        else:
            assert abs(g2 - g) < mp.mpf(10) ** -28 * (1 + abs(g))


def test_element_parse_places():
    text = """field 4 1 -1 1 0 1
place 0.547423794586 -0.585651979689
place -0.547423794586 -1.120873489994
2 * [1/2 0 -1/2 -1/2]
1 * [1 -1 0 0]
1 * [1/2 0 -1/2 1/2]
"""
    e, places = parse_element(text, precision=256)
    assert len(e) == 3
    assert len(places) == 2
    with mp.workprec(280):
        for z in places:
            assert abs(z ** 4 + z ** 2 - z + 1) < mp.mpf(2) ** -120
        assert mp.im(places[0]) < 0 and mp.re(places[0]) > 0


def test_element_parse_keeps_header_field():
    # how serialize_element writes an element whose exact terms cancelled
    e, _ = parse_element("field 2 1 0 1\n")
    assert e.is_zero() and e.field == field_make([1, 0, 1])


def test_element_places_polished_to_full_precision():
    text = files("blochinv").joinpath(
        "fixtures/example2_beta1.bloch").read_text()
    _, places = parse_element(text, precision=256)
    _, fine = parse_element(text, precision=512)
    with mp.workprec(320):
        for z, w in zip(places, fine):
            assert abs(z ** 4 + z ** 2 - z + 1) < mp.mpf(2) ** (-256 - 8)
            assert abs(z - w) < mp.mpf(2) ** -256


def test_numeric_merge_window_follows_precision():
    # 1e-16 apart is distinct at 280 bits; trailing-bit noise still merges
    e, _ = parse_element("1 * (0.5 0.8)\n-1 * (0.5 0.8000000000000001)\n",
                         precision=280)
    assert len(e) == 2
    z, w = e.terms
    with mp.workprec(296):
        noisy = PreBlochElement([(z * (1 + mp.mpf(2) ** -200), -1)])
    assert (e + noisy).terms == {w: -1}


@pytest.mark.parametrize("text", ["1 * [a b]\n", "1 * [1/0]\n",
                                  "field 2 1 0 1\n1 * [1 2 3]\n"])
def test_element_parse_rejects_bad_exact_generator(text):
    with pytest.raises(TriangulationSyntaxError) as exc:
        parse_element(text)
    assert exc.value.line == text.count("\n")


def test_certificate_relations_are_sound():
    # every relation in a certificate reproduces the exact identity
    b1 = PreBlochElement([
        ((QUARTIC.one() - QUARTIC.gen() ** 2 - QUARTIC.gen() ** 3)
         * Fraction(1, 2), 2),
        (QUARTIC.one() - QUARTIC.gen(), 1),
        ((QUARTIC.one() - QUARTIC.gen() ** 2 + QUARTIC.gen() ** 3)
         * Fraction(1, 2), 1)])
    cert = is_bloch(b1, precision=256)
    assert cert.verdict == "CertifiedZero" and cert.relations
    from blochinv.prebloch import _dedup_generators, _is_root_of_unity
    base, _ = _dedup_generators(b1)
    for rel in cert.relations:
        prod = QUARTIC.one()
        for x, e in zip(base, rel.exponents):
            prod = prod * x ** e
        assert prod == rel.unity
        assert _is_root_of_unity(prod)


def test_rejected_candidate_is_dropped(monkeypatch):
    # a candidate that fails exact verification is not returned; the others
    # still are
    from blochinv import prebloch
    fld = field_make([1, 0, 1])
    x, y = fld.element([2, 3]), fld.element([-1, 4])
    base, _ = prebloch._dedup_generators(five_term(x, y))
    verify = prebloch._verify_relation
    calls = []

    def reject_first(elements, e):
        calls.append(e)
        return None if len(calls) == 1 else verify(elements, e)

    monkeypatch.setattr(prebloch, "_verify_relation", reject_first)
    rels = multiplicative_relations(base, precision=256)
    rejected = calls[0]
    assert rels and all(rel.exponents != rejected for rel in rels)
    for rel in rels:
        assert rel == verify(base, rel.exponents)


def test_five_term_entries_at_argument_bits():
    # 300-bit arguments, no ambient workprec: the entries are taken at the
    # default precision plus guard bits
    with mp.workprec(300):
        x, y = mp.mpc(2, 1) / 3, mp.mpc(-2, 5) / 7
    v = volume_of_prebloch(five_term(x, y), precision=256)
    assert abs(v) < mp.mpf(2) ** -200


def _counting_inverse(monkeypatch):
    calls = []
    inverse = FieldElement.inverse

    def counting(self):
        calls.append(self)
        return inverse(self)

    monkeypatch.setattr(FieldElement, "inverse", counting)
    return calls


@pytest.mark.parametrize("poly,unity_order", [([1, 0, 1], 4), ([1, 1, 1], 3)])
def test_verify_relation_other_unity_divides(monkeypatch, poly, unity_order):
    # i in Q(i) and a primitive cube root of unity in Q(sqrt -3): the unity is
    # no +-1, so it is formed as num / den and tested as a root of unity
    from blochinv.prebloch import _verify_relation
    k = field_make(poly)
    zeta, x = k.gen(), k.element([2, 1])
    calls = _counting_inverse(monkeypatch)
    rel = _verify_relation([zeta, x], (1, 0))
    assert rel.exponents == (1, 0) and rel.unity == zeta
    assert (rel.unity ** unity_order).is_one()
    rel = _verify_relation([x, zeta * x], (-1, 1))
    assert rel.unity == zeta
    assert len(calls) == 2
    assert _verify_relation([x, zeta], (1, 0)) is None


def test_verify_relation_plus_minus_one_no_inverse(monkeypatch):
    from blochinv.prebloch import _verify_relation
    k = field_make([1, 0, 1])
    a, b = k.element([2, 1]), k.element([2, -1])
    calls = _counting_inverse(monkeypatch)
    rel = _verify_relation([a, b, k.from_rational(5)], (1, 1, -1))
    assert rel.unity == 1 and rel.unity.is_one()
    rel = _verify_relation([a, -a], (2, -2))
    assert rel.unity == 1
    rel = _verify_relation([a, -a], (-1, 1))
    assert rel.unity == -1 and rel.exponents == (-1, 1)
    rel = _verify_relation([-k.one(), a], (3, 0))
    assert rel.unity == -1
    assert calls == []


def _relations_over_q_reference(elements):
    """The unity of each valuation-kernel row as a product of Fractions."""
    from blochinv.lattice import valuation_kernel
    from blochinv.prebloch import Relation
    out = []
    for e in valuation_kernel(elements):
        u = math.prod(Fraction(x) ** k for x, k in zip(elements, e))
        if u in (1, -1):
            out.append(Relation(tuple(e), u))
    return out


def test_relations_over_q_unity_minus_one():
    for elements, e in (([-2, Fraction(1, 2)], (1, 1)),
                        ([-4, 2], (1, -2)),
                        ([Fraction(-1, 3), 9, 5], (2, 1, 0))):
        elements = [Fraction(x) for x in elements]
        rels = multiplicative_relations(elements)
        assert len(rels) == 1
        rel = rels[0]
        assert rel.exponents in (e, tuple(-k for k in e))
        assert type(rel.unity) is Fraction
        assert rel.unity == math.prod(x ** k for x, k in
                                      zip(elements, rel.exponents))
    assert multiplicative_relations([Fraction(-2), Fraction(4)])[0].unity == 1


def test_relations_over_q_none():
    assert multiplicative_relations([Fraction(2), Fraction(-3),
                                     Fraction(5, 7)]) == []


_NONZERO_Q = st.fractions(min_value=-40, max_value=40,
                          max_denominator=12).filter(bool)


@settings(max_examples=150, deadline=None)
@given(st.lists(_NONZERO_Q, min_size=1, max_size=6))
def test_relations_over_q_match_fraction_products(elements):
    rels = multiplicative_relations(elements)
    assert rels == _relations_over_q_reference(elements)
    assert all(type(r.unity) is Fraction for r in rels)

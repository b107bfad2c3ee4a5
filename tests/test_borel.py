import random
from fractions import Fraction

import mpmath as mp
from hypothesis import assume, given, settings, strategies as st

from blochinv.borel import (borel_regulator, detect_relation,
                            per_root_values, rank_witness)
from blochinv.numfield import conj_exact, embeddings, field_make
from blochinv.prebloch import PreBlochElement

PREC = 256

WEEKS = field_make([1, -1, 0, 1])
QUARTIC = field_make([1, -1, 1, 0, 1])
GAUSS = field_make([1, 0, 1])

# 50-digit printed regulator pairs, at the embeddings sigma_1: tau -> the
# root 0.547... - 0.585...i and sigma_2: tau -> -0.547... - 1.120...i
C2_BETA1 = ("3.1639632288831439839910147159731544848127876715181",
            "-1.4151048972655633406895085877105020361346679596016")
C2_BETA2 = ("-0.69854408278444071973072661203684276397736670535490",
            "3.8216875861799777391109222242903855168213024955043")


def beta1():
    tau = QUARTIC.gen()
    one = QUARTIC.one()
    return PreBlochElement([
        ((one - tau ** 2 - tau ** 3) * Fraction(1, 2), 2),
        (one - tau, 1),
        ((one - tau ** 2 + tau ** 3) * Fraction(1, 2), 1),
    ])


def beta2():
    tau = QUARTIC.gen()
    one = QUARTIC.one()
    return PreBlochElement([
        (one * 2 - tau - tau ** 3, 2),
        (tau + tau ** 2 + tau ** 3, 2),
    ])


def published_places(precision=PREC):
    es = embeddings(QUARTIC, precision)
    # conjugate both default representatives, order by descending real part
    return [conj_exact(es.complex_pairs[1]), conj_exact(es.complex_pairs[0])]


def test_regulator_beta1_matches_printed_pair():
    v = borel_regulator(beta1(), precision=PREC, places=published_places())
    with mp.workprec(PREC + 16):
        assert abs(v.values[0] - mp.mpf(C2_BETA1[0])) < mp.mpf(10) ** -45
        assert abs(v.values[1] - mp.mpf(C2_BETA1[1])) < mp.mpf(10) ** -45


def test_regulator_beta2_matches_printed_pair():
    v = borel_regulator(beta2(), precision=PREC, places=published_places())
    with mp.workprec(PREC + 16):
        assert abs(v.values[0] - mp.mpf(C2_BETA2[0])) < mp.mpf(10) ** -45
        assert abs(v.values[1] - mp.mpf(C2_BETA2[1])) < mp.mpf(10) ** -45


def test_regulator_default_convention_is_sign_flip():
    # default places are the Im>0 representatives in ascending-real-part
    # order: the same data up to coordinate swap and global sign
    v_pub = borel_regulator(beta1(), precision=192, places=published_places(192))
    v_def = borel_regulator(beta1(), precision=192)
    with mp.workprec(208):
        assert abs(v_def.values[0] + v_pub.values[1]) < mp.mpf(2) ** -150
        assert abs(v_def.values[1] + v_pub.values[0]) < mp.mpf(2) ** -150


def test_regulator_zero_element():
    z = PreBlochElement(field=QUARTIC)
    v = borel_regulator(z, precision=128)
    assert v.values == [0, 0]  # zero vector, one slot per complex place


def test_regulator_skips_rational_generators():
    # a rational generator has D2 = 0 at every place
    z = GAUSS.element([1, 1])
    with_rational = PreBlochElement([(Fraction(1, 3), 1), (z, 1)])
    assert borel_regulator(with_rational).values == \
        borel_regulator(PreBlochElement([(z, 1)])).values


def test_regulator_linear():
    e = beta1()
    v1 = borel_regulator(e, precision=192)
    v3 = borel_regulator(e.scale(3), precision=192)
    with mp.workprec(208):
        for a, b in zip(v1.values, v3.values):
            assert abs(3 * a - b) < mp.mpf(2) ** -150


def test_regulator_annihilates_five_term():
    from blochinv.prebloch import five_term
    from blochinv.errors import DegenerateFiveTerm, DegenerateShape
    rng = random.Random(31)
    tau = QUARTIC.gen()
    one = QUARTIC.one()
    done = 0
    while done < 5:
        x = one * rng.randint(-2, 2) + tau * rng.randint(-2, 2) \
            + tau ** 2 * rng.randint(-1, 1)
        y = one * rng.randint(-2, 2) + tau * rng.randint(-2, 2)
        try:
            e = five_term(x, y)
        except (DegenerateFiveTerm, DegenerateShape):
            continue
        v = borel_regulator(e, precision=192)
        with mp.workprec(208):
            for val in v.values:
                assert abs(val) < mp.mpf(2) ** -150
        done += 1


def test_detect_relation_published_combinations():
    prec = PREC
    v1 = borel_regulator(beta1(), precision=prec, places=published_places())
    v2 = borel_regulator(beta2(), precision=prec, places=published_places())
    rng = random.Random(5)
    with mp.workprec(prec + 16):
        cand = [(3 * a + b) / 2 + mp.mpf(rng.uniform(-1, 1)) * mp.mpf(10) ** -40
                for a, b in zip(v1.values, v2.values)]
        rep = detect_relation([v1.values, v2.values, cand], precision=prec)
        assert rep is not None
        assert rep.coefficients == (3, 1, -2)
        assert rep.residual < mp.mpf(2) ** (-prec // 2)
        # recovered sigma_1 volume of the candidate
        assert abs(cand[0] - mp.mpf("4.396672801932495")) < mp.mpf(10) ** -12

        cand2 = [2 * a + b for a, b in zip(v1.values, v2.values)]
        rep2 = detect_relation([v1.values, v2.values, cand2], precision=prec)
        assert rep2.coefficients == (2, 1, -1)
        assert abs(cand2[0] - mp.mpf("5.629382374981847")) < mp.mpf(10) ** -12


def test_detect_relation_duplicate():
    v = borel_regulator(beta1(), precision=192)
    rep = detect_relation([v, v], precision=192, elements=[beta1(), beta1()])
    assert rep.coefficients == (1, -1)
    assert rep.confidence == "ExactInputVerified"
    assert rep.residual == 0


def test_detect_relation_none_for_random():
    rng = random.Random(11)
    with mp.workprec(272):
        a = [mp.mpf(rng.uniform(1, 2)), mp.mpf(rng.uniform(1, 2))]
        b = [mp.mpf(rng.uniform(1, 2)), mp.mpf(rng.uniform(1, 2))]
        c = [mp.mpf(rng.uniform(1, 2)), mp.mpf(rng.uniform(1, 2))]
    assert detect_relation([a, b, c], coefficient_bound=1000,
                           precision=256) is None


def test_galois_sum_weeks():
    e = PreBlochElement([(WEEKS.gen(), 1)])
    vec = per_root_values(e, precision=PREC)
    assert len(vec) == 3
    with mp.workprec(PREC + 16):
        assert vec[0] == 0  # real root contributes zero
        assert abs(mp.fsum(vec)) < mp.mpf(2) ** (-PREC // 2 + 8)


def test_galois_sum_beta1():
    vec = per_root_values(beta1(), precision=PREC)
    assert len(vec) == 4
    with mp.workprec(PREC + 16):
        assert abs(mp.fsum(vec)) < mp.mpf(2) ** (-PREC // 2 + 8)


def test_galois_sum_scaled():
    e = PreBlochElement([(WEEKS.gen(), 6)])
    vec = per_root_values(e, precision=192)
    with mp.workprec(208):
        assert abs(mp.fsum(vec)) < mp.mpf(2) ** -150


def test_rank_witness_beta_pair():
    v1 = borel_regulator(beta1(), precision=192)
    v2 = borel_regulator(beta2(), precision=192)
    assert rank_witness([v1, v2], precision=192) == 2


def test_rank_witness_scaled_copy():
    v = borel_regulator(beta1(), precision=128)
    with mp.workprec(160):
        doubled = [2 * x for x in v.values]
    assert rank_witness([v.values, doubled], precision=128) == 1


@st.composite
def _spanning_vectors(draw):
    """(k, vectors): k independent random real vectors and integer
    combinations of them, shuffled; 1 <= m <= 5 vectors of 1 <= n <= 4
    entries."""
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, 5))
    k = draw(st.integers(1, min(m, n)))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    with mp.workprec(600):
        basis = [[mp.mpf(rng.uniform(-1, 1)) for _ in range(n)]
                 for _ in range(k)]
        vectors = basis + [
            [mp.fsum(c * b[j] for c, b in zip(coeffs, basis))
             for j in range(n)]
            for coeffs in draw(st.lists(st.lists(st.integers(-3, 3),
                                                 min_size=k, max_size=k),
                                        min_size=m - k, max_size=m - k))]
    return k, draw(st.permutations(vectors))


@settings(max_examples=60, deadline=None)
@given(_spanning_vectors())
def test_rank_witness_counts_independent_vectors(case):
    k, vectors = case
    for prec in (128, 256):
        assert rank_witness(vectors, precision=prec) == k


@st.composite
def _exact_elements(draw):
    """A field among Q(i), x^3 - x + 1 and the quartic, and an element with
    one to three generators of small coefficients, none of them 0 or 1."""
    k = draw(st.sampled_from([GAUSS, WEEKS, QUARTIC]))
    coeff = st.fractions(-4, 4, max_denominator=3)
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        z = k.element(draw(st.lists(coeff, min_size=k.degree,
                                    max_size=k.degree)))
        assume(not z.is_zero() and not z.is_one())
        terms.append((z, draw(st.integers(-3, 3).filter(bool))))
    e = PreBlochElement(terms)
    assume(not e.is_zero())
    return e


@settings(max_examples=30, deadline=None)
@given(_exact_elements(), st.sampled_from([64, 128, 256]))
def test_regulator_agrees_at_p_and_2p(e, p):
    lo = borel_regulator(e, precision=p).values
    hi = borel_regulator(e, precision=2 * p).values
    assert len(lo) == len(hi) == embeddings(e.field, p).r2
    with mp.workprec(2 * p + 32):
        for a, v in zip(lo, hi):
            assert abs(a - v) < mp.mpf(2) ** (-p + 8) * max(1, abs(v))

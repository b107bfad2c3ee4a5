import itertools
import math
import random
import signal
import types
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import assume, given, settings, strategies as st

from blochinv import numfield, textformat
from blochinv.numfield import (NumberField, field_make, embeddings,
                               poly_deriv, poly_divmod, poly_scale, poly_trim,
                               _integer_roots)
from blochinv.prebloch import five_term, is_bloch
from blochinv.errors import (DetectedReducible, DivisionByZero, FieldMismatch,
                             NonMonic, NotSquarefree)


# min polys, low degree first
WEEKS = [1, -1, 0, 1]          # x^3 - x + 1
GAUSS = [1, 0, 1]              # x^2 + 1
QUARTIC = [1, -1, 1, 0, 1]     # x^4 + x^2 - x + 1


# Fraction polynomial arithmetic (coefficient lists, low degree first): the
# reference the integral field arithmetic is checked against.

def poly_add(p, q):
    n = max(len(p), len(q))
    return poly_trim([(p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0)
                      for i in range(n)])


def poly_mul(p, q):
    if not p or not q:
        return []
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a == 0:
            continue
        for j, b in enumerate(q):
            out[i + j] += a * b
    return poly_trim(out)


def poly_ext_gcd(p, q):
    """Extended Euclid: returns (g, s, t) with s*p + t*q = g, g monic."""
    r0, r1 = poly_trim(p), poly_trim(q)
    s0, s1 = [Fraction(1)], []
    t0, t1 = [], [Fraction(1)]
    while r1:
        quot, rem = poly_divmod(r0, r1)
        r0, r1 = r1, rem
        s0, s1 = s1, poly_add(s0, poly_scale(poly_mul(quot, s1), -1))
        t0, t1 = t1, poly_add(t0, poly_scale(poly_mul(quot, t1), -1))
    if r0:
        lead = r0[-1]
        r0 = [a / lead for a in r0]
        s0 = [a / lead for a in s0]
        t0 = [a / lead for a in t0]
    return r0, s0, t0


def test_field_make_cubic():
    k = field_make(WEEKS)
    assert k.degree == 3
    assert k.min_poly == (1, -1, 0, 1)


def test_field_make_gaussian():
    k = field_make(GAUSS)
    assert k.degree == 2


def test_field_make_rejects_reducible():
    with pytest.raises(DetectedReducible):
        field_make([-1, 0, 1])  # x^2 - 1 = (x-1)(x+1)


def test_field_make_rejects_nonmonic():
    with pytest.raises(NonMonic):
        field_make([1, 0, 2])


def test_field_make_rejects_nonsquarefree():
    with pytest.raises(NotSquarefree):
        field_make([1, 2, 1])  # (x+1)^2


def _sturm_chain(coeffs):
    """The chain f, f', -rem, ... that NumberField.__init__ builds."""
    chain = [coeffs, poly_deriv(coeffs)]
    while len(chain[-1]) > 1:
        chain.append(poly_scale(poly_divmod(chain[-2], chain[-1])[1], -1))
    return chain


def _divisor_search(coeffs):
    """Integer roots of a monic f: 0 and the +-divisors of its lowest
    nonzero coefficient, each tested."""
    low = abs(next(a for a in coeffs if a))
    candidates = {0} | {s * d for d in range(1, low + 1) if low % d == 0
                        for s in (1, -1)}
    return sorted(r for r in candidates
                  if sum(a * r ** i for i, a in enumerate(coeffs)) == 0)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-12, 12), max_size=3, unique=True),
       st.lists(st.integers(-6, 6), max_size=3))
def test_rational_roots(roots, cofactor):
    # prod (x - r) times a monic cofactor: squarefree ones only
    coeffs = cofactor + [1]
    for r in roots:
        coeffs = [int(a) for a in poly_mul(coeffs, [-r, 1])]
    assume(len(coeffs) > 1)
    chain = _sturm_chain(coeffs)
    assume(chain[-1])
    assert _integer_roots(chain) == _divisor_search(coeffs)


# a product of Mersenne primes of 89 and 107 bits: listing the divisors of
# N or N^2 would mean factoring it
_N = (2 ** 89 - 1) * (2 ** 107 - 1)


def _expire(signum, frame):
    raise TimeoutError("no answer within the deadline")


def test_large_constant_coefficients():
    previous = signal.signal(signal.SIGALRM, _expire)
    signal.setitimer(signal.ITIMER_REAL, 1.0)
    try:
        assert NumberField([_N, 0, 1]).degree == 2
        with pytest.raises(DetectedReducible, match="rational root %d$" % _N):
            NumberField([-_N * _N, 0, 1])
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_theta_cubed_reduction():
    # in Q[x]/(x^3 - x + 1): theta^3 = theta - 1
    k = field_make(WEEKS)
    th = k.gen()
    cube = th * th * th
    assert cube == th - 1


def test_inverse_identity():
    k = field_make(WEEKS)
    th = k.gen()
    assert (th * th.inverse()).is_one()


def test_inverse_one_minus_theta():
    # oracle: extended Euclid result must multiply back to 1 exactly
    k = field_make(WEEKS)
    th = k.gen()
    x = k.one() - th
    assert (x * x.inverse()).is_one()
    g, s, t = poly_ext_gcd([1, -1], list(WEEKS))
    assert g == [Fraction(1)]


def test_inverse_zero_raises():
    k = field_make(WEEKS)
    with pytest.raises(DivisionByZero):
        k.zero().inverse()


def test_field_mismatch():
    a = field_make(WEEKS).gen()
    b = field_make(GAUSS).gen()
    with pytest.raises(FieldMismatch):
        a + b


def test_random_mul_inverse_roundtrip():
    import random
    rng = random.Random(7)
    k = field_make(QUARTIC)
    for _ in range(25):
        coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(4)]
        a = k.element(coeffs)
        if a.is_zero():
            continue
        assert (a * a.inverse()).is_one()


def test_norm_multiplicative():
    import random
    rng = random.Random(3)
    k = field_make(QUARTIC)
    for _ in range(10):
        a = k.element([rng.randint(-5, 5) for _ in range(4)])
        b = k.element([rng.randint(-5, 5) for _ in range(4)])
        assert (a * b).norm() == a.norm() * b.norm()


# --------------------------------------------------------------------------
# embeddings

def _sturm_count(poly, a, b):
    """Number of real roots in (a, b] via Sturm sequence (oracle)."""
    chain = [poly, [i * c for i, c in enumerate(poly)][1:]]
    while chain[-1]:
        p, q = chain[-2], chain[-1]
        # remainder of p mod q over Fractions
        p = [Fraction(c) for c in p]
        q = [Fraction(c) for c in q]
        r = p[:]
        while len(r) >= len(q) and any(c != 0 for c in r):
            while r and r[-1] == 0:
                r.pop()
            if len(r) < len(q):
                break
            c = r[-1] / q[-1]
            shift = len(r) - len(q)
            for i, qc in enumerate(q):
                r[shift + i] -= c * qc
            while r and r[-1] == 0:
                r.pop()
        chain.append([-c for c in r])
    chain.pop()

    def signs_at(x):
        out = []
        for p in chain:
            v = Fraction(0)
            for c in reversed(p):
                v = v * x + c
            if v != 0:
                out.append(1 if v > 0 else -1)
        return sum(1 for i in range(len(out) - 1) if out[i] != out[i + 1])

    return signs_at(Fraction(a)) - signs_at(Fraction(b))


def test_embeddings_cubic_signature():
    k = field_make(WEEKS)
    es = embeddings(k, 128)
    assert es.r1 == 1 and es.r2 == 1
    assert abs(es.real_roots[0] - mp.mpf("-1.3247179572447460260")) < 1e-15
    th = es.complex_pairs[0]
    assert mp.im(th) > 0
    # oracle: Sturm sequence counts exactly one real root in (-2, 0)
    assert _sturm_count([1, -1, 0, 1], -2, 0) == 1
    assert _sturm_count([1, -1, 0, 1], 0, 2) == 0


def test_embeddings_quartic_matches_printed_roots():
    k = field_make(QUARTIC)
    es = embeddings(k, 192)
    assert es.r1 == 0 and es.r2 == 2
    # ascending real part
    z1, z2 = es.complex_pairs
    assert mp.re(z1) < mp.re(z2)
    assert abs(mp.re(z2) - mp.mpf("0.54742")) < 1e-4
    assert abs(mp.im(z2) - mp.mpf("0.58565")) < 1e-4
    assert abs(mp.re(z1) + mp.mpf("0.54742")) < 1e-4
    assert abs(mp.im(z1) - mp.mpf("1.12087")) < 1e-4


def test_embeddings_gaussian():
    k = field_make(GAUSS)
    es = embeddings(k, 128)
    assert es.r1 == 0 and es.r2 == 1
    assert abs(es.complex_pairs[0] - mp.mpc(0, 1)) < mp.mpf(2) ** -100


def _at(a, root, prec):
    """The element a at the mpc root, by horner at prec bits."""
    return mp.make_mpc(numfield.horner(a, [root._mpc_], prec)[0])


def test_embedding_residual_bound():
    k = field_make(QUARTIC)
    prec = 256
    es = embeddings(k, prec)
    th = k.gen()
    with mp.workprec(prec + 32):
        for root in es.all_roots():
            v = _at(th, root, prec + 32)
            resid = v ** 4 + v ** 2 - v + 1
            assert abs(resid) < mp.mpf(2) ** (-prec // 2)


def test_eval_embedding_constant():
    k = field_make(WEEKS)
    es = embeddings(k, 128)
    half = k.from_rational(Fraction(1, 2))
    assert abs(_at(half, es.complex_pairs[0], 128 + 32) - 0.5) < 1e-30


def test_eval_embedding_ring_homomorphism():
    import random
    rng = random.Random(11)
    k = field_make(QUARTIC)
    prec = 192
    es = embeddings(k, prec)
    root = es.complex_pairs[1]
    with mp.workprec(prec + 32):
        tol = mp.mpf(2) ** (-prec // 2 + 4)
        for _ in range(10):
            a = k.element([rng.randint(-6, 6) for _ in range(4)])
            b = k.element([rng.randint(-6, 6) for _ in range(4)])
            lhs = _at(a * b, root, prec + 32)
            rhs = _at(a, root, prec + 32) * _at(b, root, prec + 32)
            assert abs(lhs - rhs) < tol * max(1, abs(rhs))


def test_precision_monotonicity():
    k = field_make(WEEKS)
    lo = embeddings(k, 128).complex_pairs[0]
    hi = embeddings(k, 320).complex_pairs[0]
    assert abs(lo - hi) < mp.mpf(2) ** -120


def test_degree_one_field_is_rational():
    q = field_make([0, 1])
    assert q.is_rational()
    es = embeddings(q, 128)
    assert es.r1 == 1 and es.r2 == 0
    assert q.gen().as_rational() == 0


def _check_embeddings(k, p):
    """Order, type, residual and p-vs-2p agreement of embeddings(k, p)."""
    es, fine = embeddings(k, p), embeddings(k, 2 * p)
    assert es.r1 == k.r1 and es.r1 + 2 * es.r2 == k.degree
    assert all(type(r) is mp.mpf for r in es.real_roots)
    assert list(es.real_roots) == sorted(es.real_roots)
    assert all(mp.im(z) > 0 for z in es.complex_pairs)
    assert list(es.complex_pairs) == sorted(
        es.complex_pairs, key=lambda z: (mp.re(z), mp.im(z)))
    th = k.gen()
    with mp.workprec(p + 32):
        for root in es.all_roots():
            v = _at(th, root, p + 32)
            resid = mp.fsum(c * v ** i for i, c in enumerate(k.min_poly))
            assert abs(resid) < mp.mpf(2) ** (-p // 2)
    with mp.workprec(2 * p + 32):
        for lo, hi in zip(es.all_roots(), fine.all_roots()):
            assert abs(lo - hi) < mp.mpf(2) ** (-p // 2)


def _poly_product(factors):
    out = [1]
    for f in factors:
        out = [int(c) for c in poly_mul(out, f)]
    return out


# x^2 - a (a > 1 not a square: two real roots) and x^2 + b (b >= 1: none)
_QUADRATICS = ([(-a, 0, 1) for a in (2, 3, 5, 6, 7, 8, 10, 11)] +
               [(b, 0, 1) for b in range(1, 13)])


@settings(max_examples=25, deadline=None)
@given(st.lists(st.sampled_from(_QUADRATICS), min_size=2, max_size=3,
                unique=True), st.sampled_from([64, 128]))
def test_signature_of_quadratic_products(factors, p):
    k = NumberField(_poly_product(factors))
    assert k.r1 == 2 * sum(1 for f in factors if f[0] < 0)
    _check_embeddings(k, p)


def test_signature_matches_sturm_oracle():
    rng = random.Random(20)
    checked = 0
    while checked < 40:
        deg = rng.randint(2, 7)
        f = [rng.randint(-6, 6) for _ in range(deg)] + [1]
        try:
            k = NumberField(f)
        except (DetectedReducible, NotSquarefree):
            continue
        bound = 1 + max(abs(c) for c in f)  # Cauchy bound on |roots|
        assert k.r1 == _sturm_count(f, -bound, bound)
        _check_embeddings(k, 64)
        checked += 1


def test_embeddings_computed_once_per_field_and_precision(monkeypatch):
    numfield._EMBEDDINGS.clear()
    k = NumberField(WEEKS)
    calls = []
    polyroots = mp.polyroots
    monkeypatch.setattr(mp, "polyroots",
                        lambda *a, **kw: calls.append(1) or polyroots(*a, **kw))
    th = k.gen()
    cert = is_bloch(five_term(th, th + 1), precision=128)
    assert cert.verdict == "CertifiedZero"
    es = embeddings(k, 128)
    assert len(calls) == 1
    assert embeddings(k, 128) is es
    assert type(es.real_roots) is tuple and type(es.complex_pairs) is tuple
    embeddings(k, 256)
    assert len(calls) == 2
    # the bench tracer wraps plain module functions only
    assert type(numfield.embeddings) is types.FunctionType


def test_equal_fields_share_one_embedding_set(monkeypatch):
    # embeddings belong to the minimal polynomial, not to a field instance:
    # two fields built apart and two parses of one `field` line each make
    # one root-finding call
    numfield._EMBEDDINGS.clear()
    calls = []
    polyroots = mp.polyroots
    monkeypatch.setattr(mp, "polyroots",
                        lambda *a, **kw: calls.append(1) or polyroots(*a, **kw))
    a, b = NumberField(WEEKS), NumberField(WEEKS)
    assert a is not b
    assert embeddings(a, 128) is embeddings(b, 128)
    assert len(calls) == 1
    line = ["3", "1", "-1", "0", "1"]
    c, d = textformat.read_field(line), textformat.read_field(line)
    assert c is not d
    assert embeddings(c, 192) is embeddings(d, 192)
    assert len(calls) == 2


# --------------------------------------------------------------------------
# the integral representation against a Fraction reference

_FIELDS = [NumberField(GAUSS), NumberField(WEEKS), NumberField(QUARTIC),
           NumberField([-3, 1])]


def _ref(a):
    return list(a.coeffs)


def _ref_reduce(p, k):
    out = poly_divmod(p, k.min_poly)[1][:k.degree]
    return out + [Fraction(0)] * (k.degree - len(out))


def _ref_mul(p, q, k):
    return _ref_reduce(poly_mul(p, q), k)


def _ref_inverse(p, k):
    g, s, _ = poly_ext_gcd(poly_trim(p), list(k.min_poly))
    assert g == [1]
    return _ref_reduce(s, k)


def _ref_norm(p, k):
    # Leibniz determinant of the Fraction multiplication matrix
    d = k.degree
    cols = [_ref_mul(p, [0] * j + [1], k) for j in range(d)]
    total = Fraction(0)
    for perm in itertools.permutations(range(d)):
        sign = (-1) ** sum(perm[i] > perm[j] for i in range(d)
                           for j in range(i + 1, d))
        total += sign * math.prod(cols[j][perm[j]] for j in range(d))
    return total


_RATIONAL = st.fractions(min_value=-20, max_value=20, max_denominator=15)


@st.composite
def _field_and_elements(draw, count):
    k = draw(st.sampled_from(_FIELDS))
    vec = st.lists(_RATIONAL, min_size=k.degree, max_size=k.degree)
    return (k,) + tuple(k.element(draw(vec)) for _ in range(count))


def _canonical(a):
    return (a.den > 0 and math.gcd(a.den, *a.num) == 1
            and all(type(n) is int for n in a.num))


@settings(max_examples=100, deadline=None)
@given(_field_and_elements(2), st.integers(-3, 4))
def test_arithmetic_matches_fraction_reference(kab, n):
    k, a, b = kab
    pa, pb = _ref(a), _ref(b)
    assert _ref(a + b) == [x + y for x, y in zip(pa, pb)]
    assert _ref(a - b) == [x - y for x, y in zip(pa, pb)]
    assert _ref(-a) == [-x for x in pa]
    assert _ref(a * b) == _ref_mul(pa, pb, k)
    assert a.norm() == _ref_norm(pa, k)
    for r in (a + b, a - b, a * b):
        assert _canonical(r)
    if not b.is_zero():
        inv = _ref_inverse(pb, k)
        assert _ref(b.inverse()) == inv
        assert _ref(a / b) == _ref_mul(pa, inv, k)
        assert _canonical(a / b)
    if not a.is_zero() or n >= 0:
        power = [Fraction(1)] + [Fraction(0)] * (k.degree - 1)
        base = pa if n >= 0 else _ref_inverse(pa, k)
        for _ in range(abs(n)):
            power = _ref_mul(power, base, k)
        assert _ref(a ** n) == power


@settings(max_examples=60, deadline=None)
@given(_field_and_elements(2))
def test_canonical_form_equal_values_equal_hash(kab):
    k, a, b = kab
    assert _canonical(a)
    for other in ((a + b) - b, b + a - b, (a * 3) / 3, -(-a),
                  k.element(_ref(a) + [0, 0]),
                  k.element([Fraction(2 * c) for c in _ref(a)]) / 2):
        assert other == a and hash(other) == hash(a)
        assert (other.num, other.den) == (a.num, a.den)
    if not b.is_zero():
        assert (a * b) / b == a and hash((a * b) / b) == hash(a)
    # over-long input is reduced mod f by the constructor
    ab = k.element(poly_mul(_ref(a), _ref(b)))
    assert ab == a * b and hash(ab) == hash(a * b) and _canonical(ab)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(_FIELDS), _RATIONAL)
def test_rational_element_equals_and_hashes_like_fraction(k, q):
    for r in (k.from_rational(q), k.element([q]), k.one() * q, k.zero() + q):
        assert r == q and hash(r) == hash(q)
        assert r.as_rational() == q and r.is_rational()
    if q.denominator == 1:
        r = k.from_rational(int(q.numerator))
        assert r == q.numerator and hash(r) == hash(q.numerator)
    assert {k.from_rational(q): 1}[q] == 1


@settings(max_examples=60, deadline=None)
@given(_field_and_elements(1))
def test_coeffs_are_fractions_in_lowest_terms(ka):
    k, a = ka
    cs = a.coeffs
    assert type(cs) is tuple and len(cs) == k.degree
    for c, n in zip(cs, a.num):
        assert type(c) is Fraction and math.gcd(c.numerator, c.denominator) == 1
        assert c == Fraction(n, a.den)


@pytest.mark.parametrize("k", _FIELDS)
def test_evaluate_rounds_each_reduced_coefficient(k):
    # horner at 160 bits is mpc Horner at working precision 160, with one
    # mpf(p) / mpf(q) per coefficient p/q in lowest terms, bit for bit;
    # 200-bit numerators and denominators, wider than the working precision,
    # tell it apart from rounding num[i] / den
    rng = random.Random(k.degree)
    root = embeddings(k, 128).all_roots()[-1]
    for _ in range(10):
        a = k.element([Fraction(rng.getrandbits(200) - 2 ** 199,
                                rng.getrandbits(200) + 1)
                       for _ in range(k.degree)])
        with mp.workprec(160):
            acc = mp.mpc(0)
            for c in reversed(a.coeffs):
                acc = acc * root + mp.mpf(c.numerator) / mp.mpf(c.denominator)
            assert _at(a, root, 160) == acc


def test_zero_divisor_in_reducible_quartic():
    k = NumberField([2, 0, 3, 0, 1])  # (x^2 + 1)(x^2 + 2)
    z = k.element([1, 0, 1])
    assert z.norm() == 0
    with pytest.raises(DetectedReducible, match="zero divisor"):
        z.inverse()
    with pytest.raises(DetectedReducible, match="zero divisor"):
        k.one() / z
    assert (z * k.element([2, 0, 1])).is_zero()
    x = k.gen()
    assert (x * x.inverse()).is_one()


def test_mul_inverse_norm_make_no_fraction(monkeypatch):
    k = NumberField(QUARTIC)
    a = k.element([Fraction(1, 2), -3, Fraction(5, 7), 2])
    b = k.element([Fraction(-4, 3), 1, 0, Fraction(1, 6)])
    made = []
    new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting_new)
    a * b, 3 * a, a.inverse(), a / b, a ** -3, a + b, a - b
    assert made == []
    norm = a.norm()
    assert made == [(8776541, 38416)]  # the returned value only
    assert norm == Fraction(8776541, 38416)


@settings(max_examples=80, deadline=None)
@given(_field_and_elements(1), st.integers(-5, 70))
def test_pow_equals_repeated_product(ka, n):
    k, a = ka
    if n < 0 and a.is_zero():
        return
    base = a if n >= 0 else a.inverse()
    product = k.one()
    for _ in range(abs(n)):
        product = product * base
    assert a ** n == product


def test_pow_multiplication_count(monkeypatch):
    # square-and-multiply from the lowest set bit: bit_length - 1 squarings
    # and one product per further set bit, so x ** 1 multiplies nothing
    from blochinv.numfield import FieldElement
    k = NumberField(WEEKS)
    x = k.element([2, -1, Fraction(1, 3)])
    mul = FieldElement.__mul__
    count = [0]

    def counting_mul(self, other):
        count[0] += 1
        return mul(self, other)

    monkeypatch.setattr(FieldElement, "__mul__", counting_mul)
    for n in range(71):
        count[0] = 0
        x ** n
        expected = n.bit_length() + bin(n).count("1") - 2 if n else 0
        assert count[0] == expected, n


def _old_bareiss(m):
    """The elimination norm and inverse shared before the norm skipped the
    e_0 column: (det(m), adj(m) e_0), the column None when det(m) = 0."""
    n = len(m)
    a = [list(row) + [int(i == 0)] for i, row in enumerate(m)]
    sign, prev = 1, 1
    for k in range(n):
        piv = next((r for r in range(k, n) if a[r][k]), None)
        if piv is None:
            return 0, None
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        rowk, p = a[k], a[k][k]
        for i in range(k + 1, n):
            f = a[i][k]
            a[i] = [0] * (k + 1) + [(p * x - f * y) // prev for x, y in
                                    zip(a[i][k + 1:], rowk[k + 1:])]
        prev = p
    y = [0] * n
    for i in reversed(range(n)):
        s = prev * a[i][n] - sum(a[i][j] * y[j] for j in range(i + 1, n))
        y[i] = s // a[i][i]
    return sign * prev, [sign * v for v in y]


def _generic_add(a, b):
    """a + b for two FieldElements by the common-denominator _make path."""
    if a.den == b.den:
        return numfield._make(a.field, [x + y for x, y in zip(a.num, b.num)],
                              a.den)
    return numfield._make(a.field, [x * b.den + y * a.den
                                    for x, y in zip(a.num, b.num)],
                          a.den * b.den)


# Q(i), x^3 - x + 1 and x^4 + x^2 - x + 1, the field of example2_beta1.bloch
@pytest.mark.parametrize("poly", [GAUSS, WEEKS, QUARTIC])
def test_norm_inverse_and_integer_sums_match_the_generic_paths(poly):
    # the norm eliminates the bare matrix, the inverse the matrix with its
    # e_0 column, and x + k adds k den to num[0]: the same values the shared
    # elimination and the gcd-reducing _make gave
    k = NumberField(poly)
    rng = random.Random(len(poly))
    elements = [k.zero(), k.one(), k.gen(), k.from_rational(Fraction(-7, 4))]
    for _ in range(40):
        den = rng.choice([1, 2, 12, rng.randint(1, 10 ** 6)])
        elements.append(k.element([Fraction(rng.randint(-10 ** 9, 10 ** 9),
                                            den) for _ in range(k.degree)]))
    for a in elements:
        det, adj = _old_bareiss(a._mult_matrix())
        assert a.norm() == Fraction(det, a.den ** k.degree)
        if det:
            if det < 0:
                det, adj = -det, [-y for y in adj]
            want = numfield._make(k, [a.den * y for y in adj], det)
            assert (a.inverse().num, a.inverse().den) == (want.num, want.den)
        for n in (0, 1, -1, True, rng.randint(-10 ** 12, 10 ** 12), -2 ** 70):
            r = k.from_rational(int(n))
            for got, want in ((a + n, _generic_add(a, r)),
                              (n + a, _generic_add(r, a)),
                              (n - a, _generic_add(-a, r))):
                assert (got.num, got.den) == (want.num, want.den)
                assert got.field is k and _canonical(got)

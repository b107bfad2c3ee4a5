import hashlib
import math
import random
from fractions import Fraction

import mpmath as mp
import pytest
from mpmath.libmp import to_fixed
from hypothesis import given, settings, strategies as st

from blochinv.chern_simons import cs_formula, rho_of_cs
from blochinv.dilog import (_GUARD, _MEMO_SIZE, _bernoulli_table,
                            _li2_bernoulli, _li2_kernel, _record,
                            bloch_wigner, li2, rational_reconstruct, rogers)
from blochinv.errors import DegenerateShape

PREC = 256

# 50-digit printed value: D2 at the Im>0 root of x^3 - x + 1 (volume of the
# smallest closed census manifold)
WEEKS_VOL_STR = "0.94270736277692772092129960309221164759032710576688316"


def rand_mpc(rng, lo=-3, hi=3):
    return mp.mpc(rng.uniform(lo, hi), rng.uniform(lo, hi))


def test_li2_trivial_values():
    with mp.workprec(PREC + 16):
        assert li2(0, PREC) == 0
        assert abs(li2(1, PREC) - mp.pi ** 2 / 6) < mp.mpf(2) ** (-PREC + 8)


def test_li2_half_closed_form():
    with mp.workprec(PREC + 16):
        expect = mp.pi ** 2 / 12 - mp.log(2) ** 2 / 2
        assert abs(li2(mp.mpf("0.5"), PREC) - expect) < mp.mpf(2) ** (-PREC + 8)


def test_li2_against_mpmath_polylog():
    rng = random.Random(42)
    with mp.workprec(PREC + 16):
        tol = mp.mpf(2) ** (-PREC + 8)
        pts = [rand_mpc(rng) for _ in range(40)]
        pts += [mp.exp(mp.mpc(0, mp.pi / 3)), mp.mpc("1.7"), mp.mpc("2.5"),
                mp.mpc("-3"), mp.mpc("0.99", "0.01"), mp.mpc("-1.9", "0.05"),
                mp.mpc("0.55", "0"), mp.mpc("1.5", "0")]
        for z in pts:
            if z in (0, 1):
                continue
            mine = li2(z, PREC)
            ref = mp.polylog(2, z)
            assert abs(mine - ref) < tol, (z, mine, ref)


def test_li2_against_quadrature():
    # -int_0^z log(1-t)/t dt along the straight path t = s z (independent
    # oracle); the integrand extends continuously by z at s = 0
    prec = 128
    rng = random.Random(1)
    with mp.workprec(prec + 16):
        for _ in range(3):
            z = mp.mpc(rng.uniform(-0.8, 0.8), rng.uniform(0.1, 0.8))
            quad = mp.quad(lambda s: -mp.log(1 - s * z) / s if s != 0 else z,
                           [0, 1])
            assert abs(li2(z, prec) - quad) < mp.mpf(2) ** (-prec // 2)


def test_bloch_wigner_real_is_zero():
    for x in ("0.25", "0.5", "0.75", "-2.5", "3.5"):
        assert bloch_wigner(mp.mpf(x), PREC) == 0


def test_bloch_wigner_weeks_value():
    from blochinv.numfield import embeddings, field_make
    k = field_make([1, -1, 0, 1])
    theta = embeddings(k, PREC).complex_pairs[0]
    with mp.workprec(PREC + 16):
        v = bloch_wigner(theta, PREC)
        assert abs(v - mp.mpf(WEEKS_VOL_STR)) < mp.mpf(10) ** -48


def test_bloch_wigner_max_at_sixth_root():
    # D2(e^{i pi/3}): the maximum of D2; equals half the volume of the
    # 2-tetrahedron cusped fixture.  Oracle: defining series Im sum z^n/n^2
    # plus log|z|=0 term.
    prec = 192
    with mp.workprec(prec + 32):
        z = mp.exp(mp.mpc(0, mp.pi / 3))
        clausen = mp.clsin(2, mp.pi / 3)  # = Im sum z^n/n^2 on |z|=1
        v = bloch_wigner(z, prec)
        assert abs(v - clausen) < mp.mpf(2) ** (-prec + 16)
        assert abs(v - mp.mpf("1.0149416064096536250")) < mp.mpf(10) ** -18


def test_bloch_wigner_anticonjugation():
    rng = random.Random(7)
    with mp.workprec(PREC + 16):
        for _ in range(20):
            z = rand_mpc(rng)
            if mp.im(z) == 0:
                continue
            a = bloch_wigner(z, PREC)
            b = bloch_wigner(mp.conj(z), PREC)
            assert abs(a + b) < mp.mpf(2) ** (-PREC + 16)


def test_bloch_wigner_five_term():
    rng = random.Random(13)
    with mp.workprec(PREC + 16):
        tol = mp.mpf(2) ** (-PREC + 16)
        for _ in range(50):
            x, y = rand_mpc(rng), rand_mpc(rng)
            if x in (0, 1) or y in (0, 1) or x == y:
                continue
            terms = [x, y, y / x, (1 - 1 / x) / (1 - 1 / y), (1 - x) / (1 - y)]
            if any(t in (0, 1) for t in terms):
                continue
            s = (bloch_wigner(terms[0], PREC) - bloch_wigner(terms[1], PREC)
                 + bloch_wigner(terms[2], PREC) - bloch_wigner(terms[3], PREC)
                 + bloch_wigner(terms[4], PREC))
            assert abs(s) < tol


def test_bloch_wigner_six_fold():
    rng = random.Random(99)
    with mp.workprec(PREC + 16):
        tol = mp.mpf(2) ** (-PREC + 16)
        for _ in range(20):
            z = rand_mpc(rng)
            if z in (0, 1) or mp.im(z) == 0:
                continue
            d = bloch_wigner(z, PREC)
            # even orbit {z, 1-1/z, 1/(1-z)}; odd orbit {1/z, z/(z-1), 1-z}
            assert abs(bloch_wigner(1 - 1 / z, PREC) - d) < tol
            assert abs(bloch_wigner(1 / (1 - z), PREC) - d) < tol
            assert abs(bloch_wigner(1 / z, PREC) + d) < tol
            assert abs(bloch_wigner(z / (z - 1), PREC) + d) < tol
            assert abs(bloch_wigner(1 - z, PREC) + d) < tol


def test_bloch_wigner_degenerate():
    with pytest.raises(DegenerateShape):
        bloch_wigner(mp.mpf(0), PREC)
    with pytest.raises(DegenerateShape):
        bloch_wigner(mp.mpf(1), PREC)


def test_rogers_half():
    with mp.workprec(PREC + 16):
        # R(1/2) = pi^2/12: li2(1/2) closed form plus (1/2) log^2(1/2)
        v = rogers(mp.mpf("0.5"), PREC)
        assert abs(v - mp.pi ** 2 / 12) < mp.mpf(2) ** (-PREC + 8)


def test_rogers_real_on_unit_interval():
    with mp.workprec(PREC + 16):
        for x in ("0.2", "0.5", "0.9"):
            assert abs(mp.im(rogers(mp.mpf(x), PREC))) == 0


def test_rogers_reflection():
    # R(z) + R(1-z) = pi^2/6 via the li2 reflection identity
    rng = random.Random(3)
    with mp.workprec(PREC + 16):
        tol = mp.mpf(2) ** (-PREC + 16)
        for _ in range(10):
            z = rand_mpc(rng, -1, 2)
            if z in (0, 1) or mp.im(z) == 0:
                continue
            lhs = rogers(z, PREC) + rogers(1 - z, PREC)
            assert abs(lhs - mp.pi ** 2 / 6) < tol


def test_rho_real_input():
    r = rho_of_cs(cs_formula([mp.mpf("0.3")], [], [0, 0], PREC), PREC)
    assert abs(mp.im(r)) == 0


def test_rho_imag_part_is_scaled_volume():
    with mp.workprec(PREC + 16):
        z = mp.exp(mp.mpc(0, mp.pi / 3))
        r = rho_of_cs(cs_formula([z], [], [0, 0], PREC), PREC)
        d2 = bloch_wigner(z, PREC)
        assert abs(mp.im(r) - d2 / (2 * mp.pi ** 2)) < mp.mpf(2) ** (-PREC + 16)


def test_rho_flattening_shift_rational_at_root_of_unity():
    # at z = i (root of unity times rational), integer changes of (c', c'')
    # move the representative by log-linear terms; differences of imaginary
    # parts vanish and real differences reconstruct as rationals when paired
    # with the 2 pi i periods.
    with mp.workprec(PREC + 16):
        z = mp.mpc(0, 1)
        r0 = rho_of_cs(cs_formula([z], [], [0, 0], PREC), PREC)
        r1 = rho_of_cs(cs_formula([z], [], [4, 0], PREC), PREC)
        # c' log(1-z) term: 4 * (i pi/2) log(1-i) / (2 pi^2)
        diff = r1 - r0
        expect = -(mp.mpc(0, 1) * mp.pi / 2) * 4 * mp.log(1 - z) / (2 * mp.pi ** 2)
        assert abs(diff - expect) < mp.mpf(2) ** (-PREC + 16)


def test_rational_reconstruct():
    with mp.workprec(200):
        x = mp.mpf(11) / 48
        assert rational_reconstruct(x, 1000, mp.mpf(1e-40)) == Fraction(11, 48)
        assert rational_reconstruct(mp.pi / 4, 10 ** 6, mp.mpf(1e-40)) is None


def test_rational_reconstruct_ignores_ambient_precision():
    with mp.workprec(300):
        x = mp.mpf(1) / 3 + mp.mpf(2) ** -200
    for prec in (53, 600):
        with mp.workprec(prec):
            loose = mp.mpf(2) ** -150
            assert rational_reconstruct(x, 1000, mp.mpf(2) ** -250) is None
            assert rational_reconstruct(x, 1000, loose) == Fraction(1, 3)
            assert rational_reconstruct(mp.fneg(x, exact=True), 1000,
                                        loose) == Fraction(-1, 3)


def _boundary_points(p):
    """Points on each boundary of li2's reduction: |z| = 1, Re z = 1/2,
    z -> 1, e^(+-i pi/3) and the cut (1, 3)."""
    with mp.workprec(p + 64):
        pts = [mp.expjpi(mp.mpf(k) / 12) for k in range(-12, 12) if k]
        pts += [mp.expjpi(mp.mpf(s) / 3) for s in (1, -1)]
        pts += [mp.mpc("0.5", y) for y in ("-2", "-0.866", "-0.1", "0.1",
                                           "0.5", "0.8660254", "1", "3")]
        pts += [1 + mp.mpc(a, b) * mp.mpf(2) ** -e
                for e in (20, 90, p - 4) for a, b in ((1, 0), (-1, 0), (0, 1),
                                                      (0, -1), (1, 1))]
        pts += [mp.mpc(x) for x in ("1.0000001", "1.5", "2", "2.5", "2.9999")]
        pts += [mp.mpc(x, s * mp.mpf(2) ** -60) for x in ("1.5", "2.5")
                for s in (1, -1)]
    return pts


@pytest.mark.parametrize("p", [128, 256, 512])
def test_li2_reduction_boundaries_against_polylog(p):
    for z in _boundary_points(p):
        with mp.workprec(p + 64):
            ref = mp.polylog(2, z)
            tol = mp.mpf(2) ** (-p + 8) * max(1, abs(ref))
            assert abs(li2(z, p) - ref) < tol, (p, z)


def test_li2_relative_near_zero():
    for z in (mp.mpc("1e-100", "1e-100"), mp.mpc("1e-30"),
              mp.mpc("-3e-20", "1e-25"), mp.mpc("1e-80", "-1e-90")):
        with mp.workprec(PREC + 64):
            ref = mp.polylog(2, z)
            assert abs(li2(z, PREC) - ref) < mp.mpf(2) ** (-PREC + 8) * abs(ref)


@pytest.mark.parametrize("wp", [88, 152, 280, 536])
def test_bernoulli_table_length_is_the_truncation_bound(wp):
    # N(F) is the least N with (N + 1) log2 36 >= F + 1 (dilog docstring),
    # and the entries are d_k = (-1)^(k+1) 2 zeta(2k) / (2k+1)
    f, _, d = _bernoulli_table(wp)
    n = len(d)
    assert f == wp + 16
    assert (n + 1) * math.log2(36) >= f + 1 > n * math.log2(36)
    with mp.workprec(f + 32):
        for k, dk in enumerate(d, 1):
            exact = (-1) ** (k + 1) * 2 * mp.zeta(2 * k) / (2 * k + 1)
            assert abs(mp.ldexp(dk, -f) - exact) < mp.mpf(2) ** (-f + 1)
        # the tail beyond the table at the worst point |v| = 1/36
        tail = mp.nsum(lambda k: 2 * mp.zeta(2 * k) / (2 * k + 1) / 36 ** k,
                       [n + 1, mp.inf])
        assert tail < mp.mpf(2) ** -f


# SHA-256 of the integers of _bernoulli_table at five working precisions,
# recorded while the table came from mp.bernoulli
BERNOULLI_TABLE_BITS = ("6fe3abd3d4f6ab7f8ead4e0112543bac"
                        "d5af30b7c5e04b81a756cf5773f3512f")


def test_bernoulli_table_pinned():
    out = []
    for wp in (152, 280, 536, 1048, 2072):
        f, inv_two_pi_sq, d = _bernoulli_table(wp)
        # int() so that the hash is the same with and without gmpy2
        out.append((f, int(inv_two_pi_sq), tuple(int(c) for c in d)))
    assert hashlib.sha256(repr(out).encode()).hexdigest() == \
        BERNOULLI_TABLE_BITS


_FIXED = st.integers(-(1 << 560), 1 << 560)


@settings(max_examples=200, deadline=None)
@given(_FIXED, _FIXED, _FIXED, _FIXED, _FIXED,
       st.sampled_from([168, 296, 552]))
def test_gauss_horner_step_equals_four_products(vr, vi, tr, ti, c, f):
    # t <- c + v t in F-bit fixed point: Gauss's three products give the
    # integers of the four, so the shifted parts are the same
    p, q = vr * tr, vi * ti
    gauss = c + ((p - q) >> f), ((vr + vi) * (tr + ti) - p - q) >> f
    assert gauss == (c + ((vr * tr - vi * ti) >> f), (vr * ti + vi * tr) >> f)


def _li2_bernoulli_four_products(u, wp):
    """_li2_bernoulli on mpc objects, Horner's rule with four products per
    complex step: the reference for the libmp kernel."""
    f, inv_two_pi_sq, d = _bernoulli_table(wp)
    ur, ui = to_fixed(u.real._mpf_, f), to_fixed(u.imag._mpf_, f)
    wr, wi = (ur * ur - ui * ui) >> f, (ur * ui) >> (f - 1)
    vr, vi = (wr * inv_two_pi_sq) >> f, (wi * inv_two_pi_sq) >> f
    sr, si = (1 << f) - (ur >> 2), -(ui >> 2)
    v_sq = vr * vr + vi * vi
    if v_sq:
        log2_v = math.log2(v_sq) / 2 - f
        k = len(d)
        if log2_v < 0:
            k = min(k, math.ceil((f + 1) / -log2_v) - 1)
        if k:
            tr, ti = d[k - 1], 0
            for dk in reversed(d[:k - 1]):
                tr, ti = (dk + ((vr * tr - vi * ti) >> f),
                          (vr * ti + vi * tr) >> f)
            sr += (vr * tr - vi * ti) >> f
            si += (vr * ti + vi * tr) >> f
    with mp.workprec(wp):
        return u * mp.mpc(mp.ldexp(sr, -f), mp.ldexp(si, -f))


@settings(max_examples=60, deadline=None)
@given(st.floats(0, 1), st.floats(-1, 1), st.sampled_from([152, 280, 536]))
def test_li2_series_matches_four_product_reference(r, t, wp):
    # the series on the whole reduced domain |u| <= pi/3, small |u| included
    with mp.workprec(wp):
        u = r * mp.pi / 3 * mp.expjpi(t)
    assert _li2_bernoulli(u._mpc_, wp) == \
        _li2_bernoulli_four_products(u, wp)._mpc_


_COORD = st.floats(-4, 4, allow_nan=False)


@settings(max_examples=40, deadline=None)
@given(_COORD, _COORD, st.sampled_from([64, 128, 256]))
def test_li2_and_d2_agree_at_p_and_2p(x, y, p):
    z = mp.mpc(x, y)
    if z in (0, 1):
        return
    with mp.workprec(2 * p + 32):
        fine = li2(z, 2 * p)
        tol = mp.mpf(2) ** (-p + 8)
        assert abs(li2(z, p) - fine) < tol * max(1, abs(fine))
        assert abs(bloch_wigner(z, p) - bloch_wigner(z, 2 * p)) < tol


@settings(max_examples=40, deadline=None)
@given(_COORD, _COORD.filter(lambda y: y != 0),
       st.sampled_from([64, 128, 256]))
def test_d2_six_fold_symmetry(x, y, p):
    z = mp.mpc(x, y)
    with mp.workprec(p + 32):
        d = bloch_wigner(z, p)
        tol = mp.mpf(2) ** (-p + 8)
        for w, sign in ((1 - 1 / z, 1), (1 / (1 - z), 1), (1 / z, -1),
                        (z / (z - 1), -1), (1 - z, -1)):
            assert abs(bloch_wigner(w, p) - sign * d) < tol


# -- the shape-record memo -------------------------------------------------

def _uncached(z, p):
    """li2 of z from a fresh shape record, outside the memo."""
    with mp.workprec(p + _GUARD):
        rec = _record.__wrapped__(mp.mpc(z)._mpc_, p)
    return mp.make_mpc(_li2_kernel(rec, p + _GUARD))


@st.composite
def _li2_points(draw):
    """z from each li2 branch, perturbed below double precision."""
    unit = st.floats(-1, 1, allow_nan=False)
    branch = draw(st.sampled_from(
        ["series", "reflection", "inversion", "real", "zero", "one"]))
    if branch == "zero":
        return mp.mpc(0)
    if branch == "one":
        return mp.mpc(1)
    x = draw(unit)
    if branch == "real":
        return mp.mpc(4 * x)
    if branch == "series":
        x = min(x, 0.5)
    elif branch == "reflection":
        x = 0.5 + abs(x) / 2 + 1e-9
    h = math.sqrt(max(0.0, 1 - x * x))
    z = mp.mpc(x, draw(unit) * h)
    if branch == "inversion":
        z = 1 / z if z != 0 else mp.mpc(3, 1)
    # bits down to 2^-760, so that the rounding to the working precision
    # matters at every p
    with mp.workprec(800):
        return z * (1 + mp.mpf(draw(st.integers(0, 2 ** 700))) / 2 ** 760)


@settings(max_examples=60, deadline=None)
@given(_li2_points(), st.sampled_from([128, 256, 512]))
def test_li2_memo_is_bit_identical_to_the_kernel(z, p):
    expect = _uncached(z, p)._mpc_
    _record.cache_clear()
    assert li2(z, p)._mpc_ == expect
    assert li2(z, p)._mpc_ == expect
    assert _record.cache_info()[:2] == (1, 1)  # (hits, misses)


def test_li2_memo_is_keyed_by_precision():
    z = mp.mpc("0.3", "0.4")
    _record.cache_clear()
    coarse = li2(z, 128)
    fine = li2(z, 256)
    assert fine._mpc_ == _uncached(z, 256)._mpc_
    # mantissa bit counts
    assert coarse.real._mpf_[3] <= 152 < fine.real._mpf_[3] <= 280


def test_li2_memo_is_keyed_by_the_rounded_input():
    with mp.workprec(600):
        z = mp.mpc(1, 1) / 3
    with mp.workprec(152):
        z152 = mp.mpc(z)
    assert z._mpc_ != z152._mpc_
    _record.cache_clear()
    assert li2(z, 128)._mpc_ == li2(z152, 128)._mpc_ == _uncached(z, 128)._mpc_
    assert _record.cache_info()[:2] == (1, 1)


def test_li2_memo_size_is_bounded():
    _record.cache_clear()
    assert _record.cache_info().maxsize == _MEMO_SIZE
    for k in range(3 * _MEMO_SIZE):
        li2(mp.mpc(k, 1), 128)
        assert _record.cache_info().currsize <= _MEMO_SIZE


@settings(max_examples=60, deadline=None)
@given(_li2_points(), st.sampled_from([64, 128, 256]))
def test_rogers_agrees_at_p_and_2p(z, p):
    # every branch of li2, and the record's logs in the log z log(1-z) term
    with mp.workprec(p + _GUARD):
        if mp.mpc(z) in (0, 1):
            with pytest.raises(DegenerateShape):
                rogers(z, p)
            return
    with mp.workprec(2 * p + 32):
        fine = rogers(z, 2 * p)
        tol = mp.mpf(2) ** (-p + 8)
        assert abs(rogers(z, p) - fine) < tol * max(1, abs(fine))

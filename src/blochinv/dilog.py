"""High-precision dilogarithm, Bloch-Wigner function, Rogers function, and
the flattened Rogers term of the Chern-Simons formula.

All branch choices are principal: li2 is cut along [1, oo) and takes the
value mpmath.polylog takes there, Im Li2(x) = -pi log x for x > 1.

li2 sums one series (Zagier, *The Dilogarithm Function*, 2007, section 1;
't Hooft-Veltman, *Scalar one-loop integrals*, 1979).  With u = -log(1-z),

    Li2(z) = u - u^2/4 + sum_{k>=1} c_k u^(2k+1),    c_k = B_2k / (2k+1)!,

which converges for |u| < 2 pi.  Two identities first move z into the
reduced domain |z| <= 1, Re z <= 1/2:

    inversion,  |z| > 1:      Li2(z) = -Li2(1/z) - pi^2/6 - log(-z)^2 / 2
    reflection, Re z > 1/2:   Li2(z) = pi^2/6 - log z log(1-z) - Li2(1-z)

Reflection hands u = -log z to the series.  On the reduced domain w = 1 - z
lies in |w - 1| <= 1, Re w >= 1/2, where |log w| is largest at
w = e^(+-i pi/3) (z = e^(-+i pi/3)), so |u| <= pi/3.

Shape records.  A shape's principal logs at the working precision
wp = precision + _GUARD come from one memoised record, keyed by z rounded to
wp bits and by the precision.  The record holds z, log z and log(1-z) at wp
bits (mpmath's log of the rounded z and of 1 - z rounded to wp bits, the
bits of mp.log(z) and mp.log(1 - z) at wp), and Li2(z) once li2 asks for
it, as raw libmp (re, im) pairs.  D2, the Rogers sum, the pi i multiples
of triang, the core lengths and every evaluation of surgery's Newton
solver above doubles read these logs, so the two logs of a solved shape
are taken once.  The kernel and the sums work on pairs in _libmp's
arithmetic, with the bits of mpc arithmetic; mpc and mpf objects are made
only at the public returns.  li2 takes every log it needs from the record:

    series       u = -log(1-z); u = -log1p(-z) only for |z| < 1/4
    reflection   u = -log z, and the product log z log(1-z)
    inversion    log(1/z)   = -log z, plus 2 pi i when z < 0
                 log(1-1/z) = log(1-z) - log z -+ i pi
                 log(-z)    = log z -+ i pi

The inversion identities are exact (1 - 1/z = -(1-z)/z), each sign the one
that puts the imaginary part in (-pi, pi].  For |z| >= 1, 1/z - 1 lies in
the disc |w + 1| <= 1, so Im(log(1-z) - log z) is at least pi/2 away from
0 and its sign, which picks -+ i pi, cannot be changed by rounding; the sign
of Im log z is that of Im z.

Truncation bound.  B_2k = (-1)^(k+1) 2 (2k)! zeta(2k) / (2 pi)^(2k) gives
c_k u^(2k+1) = u d_k v^k with

    v = (u / 2 pi)^2,   d_k = c_k (2 pi)^(2k) = (-1)^(k+1) 2 zeta(2k)/(2k+1),

and |d_k| <= d_1 = pi^2/9 < 1.1 (zeta(2k) decreases), |v| <= 1/36.  So
Li2 = u S with S = 1 - u/4 + sum_k d_k v^k, and the tail of that sum after
K terms is at most d_1 |v|^(K+1) / (1 - |v|) < 2 |v|^(K+1).  That is below
2^-F once

    (K + 1) log2(1/|v|) >= F + 1.

Each term gains log2(1/|v|) >= log2 36 = 5.17 bits, the least at
z = e^(i pi/3), so N(F) = ceil((F + 1) / log2 36) - 1 terms suffice on the
whole reduced domain: 57 at 280 working bits (F = 296), 106 at 536.  The
cached table holds d_1 .. d_N(F).  A call sums K <= N(F) terms, K from the
same inequality at its own |v| (log2 of the fixed-point |v|^2), so small |u|
costs few terms.

Error.  S is summed by Horner's rule in fixed point with F = wp + 16
fraction bits.  Each fixed-point step truncates by less than 2^-F per
component, Horner's rule damps what it carries forward by |v| <= 1/36, and
the rounding of u, u^2, v and the d_k adds a few units more, so S is within
2^(-F+4) = 2^(-wp-12) of its exact value.  As |S| >= 1 - (pi/3)/4 - 1.1/35
> 0.7, that is a relative error below 2^(-wp-11).

The error of the logs.  Write e = 2^-wp.  A record's log z is within
2e |log z| of the log of the rounded z.  Its log(1-z) is within
2e (1 + |log(1-z)|): rounding 1 - z to wp bits moves its log by about e,
absolutely, whatever the size of the log.  Inversion's logs are sums of
these and of i pi or 2 pi i, rounded once more, so each is within
4e (2 pi + |log z| + |log(1-z)|); for |z| >= 1 that is below
8e (5 + |log(-z)|), as |log z| and |log(1-z)| are at most |log(-z)| + pi
and |log(-z)| + pi + log 2 there.

The error of li2.  On the reduced domain |u| <= pi/3, so u is within 5e;
there |dLi2/du| = |u (1-z)/z| <= 4.2 (|u/z| <= 2.1, |1-z| <= 2), so u S is
within 2^(-wp+5).  Reflection's product log z log(1-z), with |log z| <= pi/3
and |log z log(1-z)| <= |Li2(z)| + |Li2(1-z)| + pi^2/6 < 4, is within
2^(-wp+7), also for the shifted logs of 1/z (|z| <= 2 there).  Inversion's
series side takes u from a shifted log(1 - 1/z), within 8e (5 + |log(-z)|),
and its square log(-z)^2 / 2 is within 4e |log(-z)| (2 pi + 3 |log(-z)|).
As |log(-z)|^2 / 2 <= |Li2(z)| + |Li2(1/z)| + pi^2/6 < |Li2(z)| + 4, each
of these terms is below 2^(-wp+10) max(1, |Li2(z)|), so

    |li2(z) - Li2(z)| < 2^(-wp+11) max(1, |Li2(z)|)
                      = 2^(-precision-13) max(1, |Li2(z)|),

inside the 2^(-precision+8) max(1, |Li2(z)|) residual bound of this module.
Near 0 the error is relative.  For |z| < 1/4 u = -log1p(-z) is accurate
relative to |z|, so u S is within 2^(-wp+3) |Li2(z)|.  For |z| >= 1/4 on the
series branch |Li2(z)| >= (2 - pi^2/6) |z| > 1/12, so the absolute
2^(-wp+5) is below 2^(-wp+9) |Li2(z)|.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from types import SimpleNamespace

import mpmath as mp
from mpmath import libmp
from mpmath.libmp import fone, fzero, to_fixed, to_rational

from .errors import DegenerateShape

# guard bits added to a caller's precision by every numeric module
_GUARD = 24

_LOG2_36 = math.log2(36)

_ZERO, _ONE, _I = (fzero, fzero), (fone, fzero), (fzero, fone)   # 0, 1, i

# shape records kept.  A Dehn filling solved at 128, 256 and 512 bits makes
# 14 records, two for each of the solver's 7 evaluations above doubles (12
# while only the working-precision tests made them), and the volume and
# Chern-Simons sums read the six of the solved shapes again; 32 records hold
# all of them and only the last filling before.
_MEMO_SIZE = 32


@functools.lru_cache(maxsize=16)
def _libmp(prec):
    """Arithmetic at prec bits on libmp (re, im) pairs, and on mpf values in
    the comparisons and fadd ... fq: each entry is the call of the mpc or mpf
    operator or mpmath function it stands for, so results have its bits."""
    rnd = libmp.round_nearest
    zero, two, pi = fzero, libmp.from_int(2), libmp.mpf_pi(prec, rnd)

    def fsum(terms):                  # mp.fsum: one exact sum per part
        terms = list(terms)
        return (libmp.mpf_sum([a for a, _ in terms], prec, rnd),
                libmp.mpf_sum([b for _, b in terms], prec, rnd))

    def add(a, b):
        return libmp.mpc_add(a, b, prec, rnd)

    def abs_max(F):                   # max(map(abs, F)) for prec-bit F:
        # mpc_abs is monotone in the exact |v|^2 there, so one square root,
        # at the first maximum of |v|^2
        best, m = (zero, zero), None
        for v in F:
            s = libmp.mpf_add(libmp.mpf_mul(v[0], v[0]),
                              libmp.mpf_mul(v[1], v[1]))
            if m is None or libmp.mpf_lt(m, s):
                best, m = v, s
        return libmp.mpc_abs(best, prec, rnd)

    return SimpleNamespace(
        log=lambda z: libmp.mpc_log(z, prec, rnd),
        exp=lambda z: libmp.mpc_exp(z, prec, rnd),
        add=add,
        sub=lambda a, b: libmp.mpc_sub(a, b, prec, rnd),
        mul=lambda a, b: libmp.mpc_mul(a, b, prec, rnd),
        div=lambda a, b: libmp.mpc_div(a, b, prec, rnd),
        neg=lambda z: libmp.mpc_neg(z, prec, rnd),
        pos=lambda z: libmp.mpc_pos(z, prec, rnd),
        conj=lambda z: libmp.mpc_conjugate(z, prec, rnd),
        rsub=lambda n, z: libmp.mpc_sub((libmp.from_int(n), zero), z, prec, rnd),
        mul_int=lambda n, z: libmp.mpc_mul_int(z, n, prec, rnd),
        mul_mpf=lambda z, x: libmp.mpc_mul_mpf(z, x, prec, rnd),
        sub_mpf=lambda z, x: libmp.mpc_sub_mpf(z, x, prec, rnd),
        half=lambda z: libmp.mpc_div_mpf(z, two, prec, rnd),      # z / 2
        sq=lambda z: libmp.mpc_pow_int(z, 2, prec, rnd),          # z ** 2
        fsum=fsum,
        # sum(): equal to 0 + t1 + ... for terms already rounded to prec
        sum=lambda terms: functools.reduce(add, terms, (zero, zero)),
        abs_max=abs_max,
        l1=lambda z: libmp.mpf_add(libmp.mpf_abs(z[0], prec, rnd),
                                   libmp.mpf_abs(z[1], prec, rnd), prec, rnd),
        eq_int=lambda z, n: z == (libmp.from_int(n), zero),
        lt=libmp.mpf_lt, gt=libmp.mpf_gt, ge=libmp.mpf_ge,
        fadd=lambda x, y: libmp.mpf_add(x, y, prec, rnd),
        fsub=lambda x, y: libmp.mpf_sub(x, y, prec, rnd),
        fmul=lambda x, y: libmp.mpf_mul(x, y, prec, rnd),
        fdiv=lambda x, y: libmp.mpf_div(x, y, prec, rnd),
        fsq=lambda x: libmp.mpf_pow_int(x, 2, prec, rnd),         # x ** 2
        fabs=lambda x: libmp.mpf_abs(x, prec, rnd),
        floor=lambda x: libmp.mpf_floor(x, prec, rnd),
        # mp.mpf(q.numerator) / mp.mpf(q.denominator), both below 2^prec
        fq=lambda q: libmp.from_rational(*q.as_integer_ratio(), prec, rnd),
        ldexp=lambda n, k: libmp.from_man_exp(n, k, prec, rnd),  # mpf(ldexp)
        pow2=lambda k: libmp.from_man_exp(1, k),
        pi_i=(zero, pi), half_pi=libmp.mpf_div(pi, two, prec, rnd),
        two_pi=libmp.mpf_mul_int(pi, 2, prec, rnd),
        pi_sq_6=libmp.mpf_div(libmp.mpf_pow_int(pi, 2, prec, rnd),
                              libmp.from_int(6), prec, rnd),
        show=lambda x: libmp.to_str(x, 5))


class _Shape:
    """libmp pairs: a shape z rounded to wp bits, its principal logs log z and
    log(1-z) at wp bits, and Li2(z) once li2 asks for it (None until then)."""

    __slots__ = ("z", "log_z", "log_1mz", "li2")

    def __init__(self, z, wp):
        ar = _libmp(wp)             # mp.log(z) and mp.log(1 - z) at wp bits
        self.z, self.log_z, self.log_1mz = z, ar.log(z), ar.log(ar.rsub(1, z))
        self.li2 = None


@functools.lru_cache(maxsize=_MEMO_SIZE)
def _record(z_mpc, precision):
    """The _Shape of the libmp pair z_mpc at precision + _GUARD bits; li2
    and the sums round z_mpc to those bits first, the solver's rungs need
    not."""
    return _Shape(z_mpc, precision + _GUARD)


def _rounded(z, wp):
    """The libmp pair of mp.mpc(z) at wp bits."""
    if hasattr(z, "_mpc_"):
        return libmp.mpc_pos(z._mpc_, wp, libmp.round_nearest)
    with mp.workprec(wp):
        return mp.mpc(z)._mpc_


def li2(z, precision=256):
    """Dilogarithm Li_2(z), principal branch (cut along [1, oo)).

    z is rounded to precision + _GUARD bits; the value is kept in the shape
    record of that rounding and precision, so a shape the volume and
    Chern-Simons sums both need costs one evaluation, from the logs the
    record already holds.
    """
    wp = precision + _GUARD
    rec = _record(_rounded(z, wp), precision)
    if rec.li2 is None:
        rec.li2 = _li2_kernel(rec, wp)
    return mp.make_mpc(rec.li2)


def _li2_kernel(rec, wp):
    """Li2 of a record's z from its logs, at working precision wp."""
    ar, z, log_z, log_1mz = _libmp(wp), rec.z, rec.log_z, rec.log_1mz
    if z == _ZERO or z == _ONE:               # Li2(0) = 0, Li2(1) = pi^2/6
        return (ar.pi_sq_6 if z == _ONE else fzero), fzero
    abs_sq = ar.fadd(ar.fsq(z[0]), ar.fsq(z[1]))
    if ar.gt(abs_sq, fone):
        log_w = ar.neg(log_z)
        if z[1] == fzero and ar.lt(z[0], fzero):
            log_w = ar.sub(ar.mul_int(2, ar.pi_i), log_z)
        diff = ar.sub(log_1mz, log_z)
        log_1mw = (ar.sub if ar.gt(diff[1], fzero) else ar.add)(diff, ar.pi_i)
        log_mz = (ar.sub if ar.gt(log_z[1], fzero) else ar.add)(log_z, ar.pi_i)
        # Re(1/z) > 1/2 is (x - 1)^2 + y^2 < 1, decided exactly
        x_1 = libmp.mpf_sub(z[0], fone)
        reflect = libmp.mpf_lt(libmp.mpf_add(libmp.mpf_mul(x_1, x_1),
                                             libmp.mpf_mul(z[1], z[1])), fone)
        w = ar.neg(_li2_unit_disc(reflect, log_w, log_1mw, wp))
        return ar.sub(ar.sub_mpf(w, ar.pi_sq_6), ar.half(ar.sq(log_mz)))
    if ar.lt(abs_sq, ar.pow2(-4)):    # |z| < 1/4: keep the error relative
        with mp.workprec(wp):
            return _li2_bernoulli((-mp.log1p(-mp.make_mpc(z)))._mpc_, wp)
    return _li2_unit_disc(ar.gt(z[0], ar.pow2(-1)), log_z, log_1mz, wp)


def _li2_unit_disc(reflect, log_z, log_1mz, wp):
    """Li2 for |z| <= 1 from the principal logs of z and 1 - z, at working
    precision wp: by reflection if reflect (Re z > 1/2), else the series."""
    ar = _libmp(wp)
    if reflect:
        return ar.sub(ar.sub((ar.pi_sq_6, fzero), ar.mul(log_z, log_1mz)),
                      _li2_bernoulli(ar.neg(log_z), wp))
    return _li2_bernoulli(ar.neg(log_1mz), wp)


@functools.cache
def _bernoulli_table(wp):
    """(F, 1/(2 pi)^2, (d_1, ..., d_N(F))) as F-bit fixed-point integers.

    F = wp + 16 and N(F) is the truncation bound of the module docstring.
    B_2k = (-1)^(k-1) 2k T_k / (4^k (4^k - 1)) comes from the tangent
    number T_k, rounded once to F + 32 bits.
    """
    f = wp + 16
    n = math.ceil((f + 1) / _LOG2_36) - 1
    with mp.workprec(f + 32):
        two_pi_sq = (2 * mp.pi) ** 2
        d = []
        for k, t in enumerate(_tangent_numbers(n), 1):
            b = mp.make_mpf(libmp.from_rational(
                (-1) ** (k - 1) * 2 * k * t, 4 ** k * (4 ** k - 1), f + 32,
                libmp.round_nearest))
            d.append(to_fixed((b * two_pi_sq ** k
                               / mp.factorial(2 * k + 1))._mpf_, f))
        return f, to_fixed((1 / two_pi_sq)._mpf_, f), tuple(d)


def _tangent_numbers(n):
    """[T_1, ..., T_n], tan x = sum T_k x^(2k-1) / (2k-1)!, in n^2/2 integer
    updates (Brent and Harvey, *Fast computation of Bernoulli, Tangent and
    Secant numbers*, 2011, algorithm TangentNumbers)."""
    t = [0, 1]
    for k in range(2, n + 1):
        t.append((k - 1) * t[k - 1])
    for k in range(2, n + 1):
        for j in range(k, n + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    return t[1:]


def _li2_bernoulli(u, wp):
    """Li2 = u S(u) for u = -log(1-z), |u| <= pi/3 (module docstring)."""
    f, inv_two_pi_sq, d = _bernoulli_table(wp)
    # u, w = u^2 and v = w / (2 pi)^2 as F-bit fixed-point (real, imag) pairs
    ur = to_fixed(u[0], f)
    ui = to_fixed(u[1], f)
    wr = (ur * ur - ui * ui) >> f
    wi = (ur * ui) >> (f - 1)
    vr = (wr * inv_two_pi_sq) >> f
    vi = (wi * inv_two_pi_sq) >> f
    sr = (1 << f) - (ur >> 2)
    si = -(ui >> 2)
    v_sq = vr * vr + vi * vi
    if v_sq:
        log2_v = math.log2(v_sq) / 2 - f
        k = len(d)
        if log2_v < 0:
            k = min(k, math.ceil((f + 1) / -log2_v) - 1)
        if k:
            # S += v T, T = d_1 + d_2 v + ... + d_k v^(k-1) by Horner's rule:
            # t <- c + v t for c = d_k, ..., d_1, 0, with Gauss's 3 products
            tr = ti = 0
            vs = vr + vi
            for c in d[k - 1::-1] + (0,):
                p, q = vr * tr, vi * ti
                tr, ti = c + ((p - q) >> f), (vs * (tr + ti) - p - q) >> f
            sr += tr
            si += ti
    ar = _libmp(wp)
    return ar.mul(u, (ar.ldexp(sr, -f), ar.ldexp(si, -f)))


def bloch_wigner(z, precision=256):
    """Bloch-Wigner function D_2(z) = Im Li_2(z) + log|z| arg(1-z).

    The hyperbolic volume of an ideal tetrahedron with cross ratio z.  Exactly
    zero for real z; raises DegenerateShape at 0 and 1.
    """
    wp = precision + _GUARD
    pair = _rounded(z, wp)
    if pair == _ZERO or pair == _ONE:
        raise DegenerateShape("D2 undefined at %s" % mp.make_mpc(pair))
    if pair[1] == fzero:
        return mp.mpf(0)
    ar, rec = _libmp(wp), _record(pair, precision)
    return mp.make_mpf(ar.fadd(li2(z, precision)._mpc_[1],
                               ar.fmul(rec.log_z[0], rec.log_1mz[1])))


def rogers(z, precision=256):
    """Rogers dilogarithm R(z) = (1/2) log(z) log(1-z) + Li_2(z)."""
    return mp.make_mpc(_flattened_rogers(z, 0, 0, precision))


def rational_reconstruct(x, max_denominator, tolerance):
    """Nearest rational p/q with q <= max_denominator, or None outside tolerance.

    x and tolerance are compared exactly, an mpf as its mantissa times a power
    of two, so the result does not depend on the ambient precision.
    """
    x = _exact(x)
    frac = x.limit_denominator(int(max_denominator))
    if abs(x - frac) < _exact(tolerance):
        return frac
    return None


def _exact(x):
    """The exact rational value of an mpf, int, float or Fraction."""
    if isinstance(x, mp.mpf):
        return Fraction(*to_rational(x._mpf_))
    return Fraction(x)


def _flattened_rogers(z, cp, cpp, precision):
    """R(z) - (i pi / 2)(c' log(1-z) - c'' log z), a libmp pair at precision
    + _GUARD bits; cp, cpp are Fractions.  Raises DegenerateShape at 0, 1."""
    wp = precision + _GUARD
    pair = _rounded(z, wp)
    if pair == _ZERO or pair == _ONE:
        raise DegenerateShape("Rogers function undefined at %s"
                              % mp.make_mpc(pair))
    ar, rec = _libmp(wp), _record(pair, precision)
    term = ar.add(ar.half(ar.mul(rec.log_z, rec.log_1mz)),
                  li2(z, precision)._mpc_)
    if cp or cpp:
        c = ar.sub(ar.mul_mpf(rec.log_1mz, ar.fq(cp)),
                   ar.mul_mpf(rec.log_z, ar.fq(cpp)))
        term = ar.sub(term, ar.mul(ar.half(ar.pi_i), c))
    return term

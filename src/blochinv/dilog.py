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
wp bits and by the precision.  The record holds log z and log(1-z) at wp
bits (mpmath's log of the rounded z and of 1 - z rounded to wp bits, the
bits of mp.log(z) and mp.log(1 - z) at wp), and Li2(z) once li2 asks for
it.  D2, the Rogers sum, the pi i multiples of triang, the core lengths and
the working-precision residual test of surgery's Newton solver all read
these logs, so the two logs of a solved shape are taken once.  li2 takes
every log it needs from the record:

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

import mpmath as mp
from mpmath import libmp
from mpmath.libmp import to_fixed, to_rational

from .errors import DegenerateShape

# guard bits added to a caller's precision by every numeric module
_GUARD = 24

_LOG2_36 = math.log2(36)

_ONE = (libmp.fone, libmp.fzero)

# shape records kept.  A Dehn filling solved at three precisions has six
# shapes, each read by the volume and Chern-Simons sums (and the solver's last
# residual tests leave a few more); 32 records hold all of them and only the
# last few fillings before.
_MEMO_SIZE = 32


class _Shape:
    """A shape z rounded to wp bits, its principal logs log z and log(1-z)
    at wp bits, and Li2(z) once li2 asks for it (None until then)."""

    __slots__ = ("z", "log_z", "log_1mz", "li2")

    def __init__(self, z_mpc, wp):
        # libmp's calls behind mp.log(z) and mp.log(1 - z) at wp bits
        rnd = libmp.round_nearest
        self.z = mp.make_mpc(z_mpc)
        self.log_z = mp.make_mpc(libmp.mpc_log(z_mpc, wp, rnd))
        self.log_1mz = mp.make_mpc(libmp.mpc_log(
            libmp.mpc_sub(_ONE, z_mpc, wp, rnd), wp, rnd))
        self.li2 = None


@functools.lru_cache(maxsize=_MEMO_SIZE)
def _record(z_mpc, precision):
    """The _Shape of the libmp pair z_mpc, already rounded to
    precision + _GUARD bits."""
    return _Shape(z_mpc, precision + _GUARD)


def li2(z, precision=256):
    """Dilogarithm Li_2(z), principal branch (cut along [1, oo)).

    z is rounded to precision + _GUARD bits; the value is kept in the shape
    record of that rounding and precision, so a shape the volume and
    Chern-Simons sums both need costs one evaluation, from the logs the
    record already holds.
    """
    wp = precision + _GUARD
    with mp.workprec(wp):
        rec = _record(mp.mpc(z)._mpc_, precision)
        if rec.li2 is None:
            rec.li2 = _li2_kernel(rec, wp)
        return rec.li2


def _li2_kernel(rec, wp):
    """Li2 of a record's z from its logs, at working precision wp."""
    z, log_z, log_1mz = rec.z, rec.log_z, rec.log_1mz
    with mp.workprec(wp):
        if z == 0:
            return mp.mpc(0)
        if z == 1:
            return mp.mpc(mp.pi ** 2 / 6)
        abs_sq = z.real ** 2 + z.imag ** 2
        if abs_sq > 1:
            pi_i = mp.mpc(0, mp.pi)
            log_w = 2 * pi_i - log_z if z.imag == 0 and z.real < 0 else -log_z
            diff = log_1mz - log_z
            log_1mw = diff - pi_i if diff.imag > 0 else diff + pi_i
            log_mz = log_z - pi_i if log_z.imag > 0 else log_z + pi_i
            return (-_li2_unit_disc(1 / z, log_w, log_1mw, wp)
                    - mp.pi ** 2 / 6 - log_mz ** 2 / 2)
        if abs_sq < 0.0625:       # |z| < 1/4: keep the error relative
            return _li2_bernoulli(-mp.log1p(-z), wp)
        return _li2_unit_disc(z, log_z, log_1mz, wp)


def _li2_unit_disc(z, log_z, log_1mz, wp):
    """Li2 for |z| <= 1 from the principal logs of z and 1 - z, at working
    precision wp (reflection, then series)."""
    if z.real > 0.5:
        return mp.pi ** 2 / 6 - log_z * log_1mz - _li2_bernoulli(-log_z, wp)
    return _li2_bernoulli(-log_1mz, wp)


@functools.cache
def _bernoulli_table(wp):
    """(F, 1/(2 pi)^2, (d_1, ..., d_N(F))) as F-bit fixed-point integers.

    F = wp + 16 and N(F) is the truncation bound of the module docstring.
    """
    f = wp + 16
    n = math.ceil((f + 1) / _LOG2_36) - 1
    with mp.workprec(f + 32):
        two_pi_sq = (2 * mp.pi) ** 2
        d = tuple(to_fixed((mp.bernoulli(2 * k) * two_pi_sq ** k
                            / mp.factorial(2 * k + 1))._mpf_, f)
                  for k in range(1, n + 1))
        return f, to_fixed((1 / two_pi_sq)._mpf_, f), d


def _li2_bernoulli(u, wp):
    """Li2 = u S(u) for u = -log(1-z), |u| <= pi/3 (module docstring)."""
    f, inv_two_pi_sq, d = _bernoulli_table(wp)
    # u, w = u^2 and v = w / (2 pi)^2 as F-bit fixed-point (real, imag) pairs
    ur = to_fixed(u.real._mpf_, f)
    ui = to_fixed(u.imag._mpf_, f)
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
            # S += v T, T = d_1 + d_2 v + ... + d_k v^(k-1) by Horner's rule
            tr, ti = d[k - 1], 0
            for dk in reversed(d[:k - 1]):
                tr, ti = (dk + ((vr * tr - vi * ti) >> f),
                          (vr * ti + vi * tr) >> f)
            sr += (vr * tr - vi * ti) >> f
            si += (vr * ti + vi * tr) >> f
    return u * mp.mpc(mp.ldexp(sr, -f), mp.ldexp(si, -f))


def bloch_wigner(z, precision=256):
    """Bloch-Wigner function D_2(z) = Im Li_2(z) + log|z| arg(1-z).

    The hyperbolic volume of an ideal tetrahedron with cross ratio z.  Exactly
    zero for real z; raises DegenerateShape at 0 and 1.
    """
    with mp.workprec(precision + _GUARD):
        z = mp.mpc(z)
        if z == 0 or z == 1:
            raise DegenerateShape("D2 undefined at %s" % z)
        if mp.im(z) == 0:
            return mp.mpf(0)
        rec = _record(z._mpc_, precision)
        return mp.im(li2(z, precision)) + rec.log_z.real * rec.log_1mz.imag


def rogers(z, precision=256):
    """Rogers dilogarithm R(z) = (1/2) log(z) log(1-z) + Li_2(z)."""
    return _flattened_rogers(z, 0, 0, precision)


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
    """R(z) - (i pi / 2)(c' log(1-z) - c'' log z) at precision + _GUARD bits;
    cp, cpp are Fractions.  Raises DegenerateShape at 0 and 1."""
    with mp.workprec(precision + _GUARD):
        z = mp.mpc(z)
        if z == 0 or z == 1:
            raise DegenerateShape("Rogers function undefined at %s" % z)
        rec = _record(z._mpc_, precision)
        term = rec.log_z * rec.log_1mz / 2 + li2(z, precision)
        if cp or cpp:
            term -= (mp.mpc(0, 1) * mp.pi / 2) * (
                _mpq(cp) * rec.log_1mz - _mpq(cpp) * rec.log_z)
        return term


def _mpq(q):
    return mp.mpf(q.numerator) / mp.mpf(q.denominator)


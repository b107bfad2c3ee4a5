"""High-precision dilogarithm, Bloch-Wigner function, Rogers function, and
the flattened regulator representative.

All branch choices are principal.  li2 uses the defining power series inside
|z| <= 1/2, the reflection z -> 1-z inside |1-z| <= 1/2, the inversion
z -> 1/z outside |z| >= 2, and a Bernoulli-weighted series in log z on the
remaining annulus (which covers the unit circle, where both power series are
useless).  Residuals are bounded by 2^(-precision+8).
"""

from __future__ import annotations

from fractions import Fraction

import mpmath as mp

from .errors import DegenerateShape

# guard bits added to a caller's precision by every numeric module
_GUARD = 24


def li2(z, precision=256):
    """Dilogarithm Li_2(z), principal branch (cut along [1, oo))."""
    with mp.workprec(precision + _GUARD):
        z = mp.mpc(z)
        if z == 0:
            return mp.mpc(0)
        if z == 1:
            return mp.mpc(mp.pi ** 2 / 6)
        az = abs(z)
        if az <= 0.5:
            return _li2_series(z, precision)
        if abs(1 - z) <= 0.5:
            return (mp.pi ** 2 / 6 - mp.log(z) * mp.log(1 - z)
                    - _li2_series(1 - z, precision))
        if az >= 2:
            return (-li2(1 / z, precision) - mp.pi ** 2 / 6
                    - mp.log(-z) ** 2 / 2)
        return _li2_logseries(z, precision)


def _li2_series(z, precision):
    tol = mp.mpf(2) ** (-(precision + _GUARD - 4))
    total = mp.mpc(0)
    zp = mp.mpc(1)
    n = 0
    while True:
        n += 1
        zp *= z
        term = zp / (n * n)
        total += term
        if abs(term) < tol:
            return total


def _li2_logseries(z, precision):
    # Li2(e^w) = pi^2/6 + w(1 - log(-w)) + sum_{k>=2} zeta(2-k) w^k / k!
    # zeta(0) = -1/2; zeta(1-2m) = -B_{2m}/(2m); zeta at negative evens = 0.
    # Valid for |w| < 2pi; on the annulus |w| <= sqrt(log(2)^2 + pi^2) < 2pi.
    w = mp.log(z)
    total = mp.pi ** 2 / 6 + w * (1 - mp.log(-w))
    total -= w * w / 4  # k = 2 term
    tol = mp.mpf(2) ** (-(precision + _GUARD - 4))
    ratio = abs(w) / (2 * mp.pi)
    wk = w * w * w  # w^k with k = 3
    fact = mp.mpf(6)
    k = 3
    while True:
        m = (k - 1) // 2
        zv = -mp.bernoulli(2 * m) / (2 * m)
        term = zv * wk / fact
        total += term
        # tail of the zeta-weighted series decays like ratio^k
        if abs(term) < tol * (1 - ratio):
            return total
        k += 2
        wk *= w * w
        fact *= k * (k - 1)


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
        v = mp.im(li2(z, precision)) + mp.log(abs(z)) * mp.arg(1 - z)
        return v


def rogers(z, precision=256):
    """Rogers dilogarithm R(z) = (1/2) log(z) log(1-z) + Li_2(z)."""
    with mp.workprec(precision + _GUARD):
        z = mp.mpc(z)
        if z == 0 or z == 1:
            raise DegenerateShape("Rogers function undefined at %s" % z)
        return mp.log(z) * mp.log(1 - z) / 2 + li2(z, precision)


class RhoRepresentative:
    """Complex representative of a value in C/Q.

    Two representatives agree when their difference is a rational number;
    comparison reconstructs the difference by continued fractions with a
    caller-bounded denominator.
    """

    __slots__ = ("value", "precision")

    def __init__(self, value, precision):
        if isinstance(value, mp.mpf):
            value = mp.make_mpc((value._mpf_, mp.mpf(0)._mpf_))
        elif not isinstance(value, mp.mpc):
            value = mp.mpc(value)
        self.value = value
        self.precision = precision

    def eq_mod_q(self, other, max_denominator=10 ** 6, tolerance=None):
        prec = min(self.precision, getattr(other, "precision", self.precision))
        with mp.workprec(prec + _GUARD):
            diff = self.value - mp.mpc(other.value if isinstance(other, RhoRepresentative) else other)
            if tolerance is None:
                tolerance = mp.mpf(2) ** (-prec // 2)
            if abs(mp.im(diff)) > tolerance:
                return None
            q = rational_reconstruct(mp.re(diff), max_denominator, tolerance)
            return q

    def __repr__(self):
        return "RhoRepresentative(%s)" % mp.nstr(self.value, 30)


def rational_reconstruct(x, max_denominator, tolerance):
    """Nearest rational p/q with q <= max_denominator, or None outside tolerance."""
    x = mp.mpf(x)
    frac = Fraction(mp.nstr(x, mp.mp.dps + 5)).limit_denominator(int(max_denominator))
    err = abs(x - mp.mpf(frac.numerator) / mp.mpf(frac.denominator))
    if err < tolerance:
        return frac
    return None


def rho(z, c_prime=0, c_double_prime=0, precision=256):
    """Flattened Bloch-regulator summand at a single shape.

    Returns (1/2 pi^2) [ R(z) - (i pi / 2)(c' log(1-z) - c'' log z) ] as a
    representative modulo Q.  Summed over the shapes of a flattened
    triangulation this represents rho(beta(M)) with Im = vol / 2 pi^2.
    """
    with mp.workprec(precision + _GUARD):
        term = _flattened_rogers(z, Fraction(c_prime), Fraction(c_double_prime),
                                 precision)
        return RhoRepresentative(term / (2 * mp.pi ** 2), precision)


def _flattened_rogers(z, cp, cpp, precision):
    """R(z) - (i pi / 2)(c' log(1-z) - c'' log z) at the caller's working
    precision; cp, cpp are Fractions.  Raises DegenerateShape at 0 and 1."""
    z = mp.mpc(z)
    term = rogers(z, precision)
    if cp or cpp:
        term -= (mp.mpc(0, 1) * mp.pi / 2) * (
            _mpq(cp) * mp.log(1 - z) - _mpq(cpp) * mp.log(z))
    return term


def _mpq(q):
    return mp.mpf(q.numerator) / mp.mpf(q.denominator)


def volume_of_prebloch(element, embedding=None, precision=256):
    """Sum of n_i * D2(sigma(z_i)) over the element's generators.

    Numeric generators are evaluated directly; exact generators are mapped
    through ``embedding`` (a root of the field's minimal polynomial).  When
    the field has a single complex place and no embedding is given, that
    place is used.
    """
    from .numfield import FieldElement, embeddings as _embeddings

    with mp.workprec(precision + _GUARD):
        total = mp.mpf(0)
        emb = embedding
        for gen, coeff in element.terms.items():
            if isinstance(gen, FieldElement):
                if emb is None:
                    es = _embeddings(gen.field, precision)
                    if es.r2 != 1:
                        raise ValueError(
                            "field has %d complex places; pass an embedding" % es.r2)
                    emb = es.complex_pairs[0]
                zv = gen.evaluate(emb)
            elif isinstance(gen, Fraction):
                continue  # real: D2 = 0
            else:
                zv = mp.mpc(gen)
            if zv == 0 or zv == 1:
                raise DegenerateShape("generator maps to %s" % zv)
            total += coeff * bloch_wigner(zv, precision)
        return total

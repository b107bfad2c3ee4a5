"""Exact number field arithmetic and complex embeddings.

A number field is Q[x]/(f) for a monic integer polynomial f, assumed
irreducible (only cheap reducibility witnesses are rejected); exact Sturm
counts give its number r1 of real places and find any integer root.
Elements are coefficient vectors reduced mod f, held as integer numerators
over one common denominator in lowest terms; norm and inverse come from one
fraction-free (Bareiss) elimination on the integer multiplication matrix.
Embeddings are the roots of f, Newton-polished once per minimal polynomial
and caller-specified binary precision; equal fields share them.  An element
is evaluated at a root by ``horner`` alone, at a precision its caller
passes.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath as mp

from mpmath.libmp import (from_int, fzero, mpf_add, mpf_div, mpf_mul,
                          mpf_neg, mpf_sub, round_nearest)

from .errors import (DetectedReducible, DivisionByZero, FieldMismatch,
                     NonMonic, NotSquarefree, RootFindingFailed)


def conj_exact(z):
    """Complex conjugate without rounding (mp.conj rounds to ambient prec)."""
    z = z if isinstance(z, mp.mpc) else mp.mpc(z)
    return mp.make_mpc((z.real._mpf_, mpf_neg(z.imag._mpf_)))


# ---------------------------------------------------------------------------
# polynomial helpers over Q (coefficient lists, low degree first)

def poly_trim(p):
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def poly_scale(p, c):
    return poly_trim([c * a for a in p])


def poly_divmod(p, q):
    """Division with remainder over Q; q must be nonzero."""
    p = [Fraction(a) for a in p]
    q = poly_trim([Fraction(a) for a in q])
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    quot = [Fraction(0)] * max(0, len(p) - len(q) + 1)
    rem = list(p)
    while len(poly_trim(rem)) >= len(q):
        rem = poly_trim(rem)
        shift = len(rem) - len(q)
        c = rem[-1] / q[-1]
        quot[shift] = c
        for i, b in enumerate(q):
            rem[shift + i] -= c * b
        rem = rem[:-1]
    return poly_trim(quot), poly_trim(rem)


def poly_deriv(p):
    return poly_trim([i * a for i, a in enumerate(p)][1:])


def _integer_roots(chain):
    """Integer roots, ascending, of the monic squarefree f = chain[0] given
    with its Sturm chain: its rational roots.  All roots lie in (-B, B) for
    B = 2^(1 + max_k ceil(bits(a_(n-k)) / k)), above Fujiwara's bound
    2 max_k |a_(n-k)|^(1/k).  An interval (a, b] holds V(a) - V(b) roots;
    it is bisected down to unit intervals, where f(b) = 0 is tested."""
    # positive multiples of the chain's members, with integer coefficients
    chain = [[int(c * d) for c in p] for p in chain
             for d in [math.lcm(*(Fraction(c).denominator for c in p))]]

    def changes(x):
        return _sign_changes([v > 0 for v in (_poly_value(p, x) for p in chain)
                              if v])

    bound = 2 ** (1 + max(-(-abs(a).bit_length() // k) for k, a in
                          enumerate(reversed(chain[0][:-1]), 1)))
    roots = []
    stack = [(-bound, bound, changes(-bound), changes(bound))]
    while stack:
        a, b, va, vb = stack.pop()
        if va == vb:
            continue
        if b - a == 1:
            if _poly_value(chain[0], b) == 0:
                roots.append(b)
            continue
        mid = (a + b) // 2
        vm = changes(mid)
        stack += [(mid, b, vm, vb), (a, mid, va, vm)]
    return roots


# ---------------------------------------------------------------------------

class NumberField:
    """Q[x]/(f) for monic integer f; degree-1 fields represent Q itself."""

    def __init__(self, min_poly):
        coeffs = [int(c) for c in min_poly]
        coeffs = poly_trim(coeffs)
        if len(coeffs) < 2:
            raise DetectedReducible("constant polynomial defines no field")
        if coeffs[-1] != 1:
            raise NonMonic("minimal polynomial must be monic, got leading %s"
                           % coeffs[-1])
        # Sturm chain f, f', -rem, ...: it reaches a constant iff f is
        # squarefree, and otherwise ends in 0 after gcd(f, f')
        chain = [coeffs, poly_deriv(coeffs)]
        while len(chain[-1]) > 1:
            chain.append(poly_scale(poly_divmod(chain[-2], chain[-1])[1], -1))
        if not chain[-1]:
            raise NotSquarefree("gcd with derivative has degree %d"
                                % (len(chain[-2]) - 1))
        deg = len(coeffs) - 1
        roots = _integer_roots(chain) if deg > 1 else []
        if roots:
            raise DetectedReducible("rational root %s"
                                    % min(roots, key=lambda r: (abs(r), -r)))
        # degree <= 3 with no rational root is irreducible; degree >= 4 is an
        # input contract beyond the rational-root witness.
        self.min_poly = tuple(coeffs)
        self.degree = deg
        # real roots: sign changes of the chain at -oo minus those at +oo
        at_inf = [1 if p[-1] > 0 else -1 for p in chain]
        at_minus_inf = [s * (-1) ** (len(p) - 1) for s, p in zip(at_inf, chain)]
        self.r1 = _sign_changes(at_minus_inf) - _sign_changes(at_inf)
        # x^deg, ..., x^(2 deg - 2) mod f: integral, as f is monic
        row = [-c for c in coeffs[:deg]]
        self._xpow = []
        for _ in range(deg - 1):
            self._xpow.append(tuple(row))
            top = row[-1]
            row = [top * a + b for a, b in zip(self._xpow[0], [0] + row[:-1])]

    def __eq__(self, other):
        return isinstance(other, NumberField) and self.min_poly == other.min_poly

    def __hash__(self):
        return hash(self.min_poly)

    def __repr__(self):
        return "NumberField(%s)" % (list(self.min_poly),)

    def is_rational(self):
        return self.degree == 1

    def zero(self):
        return _new(self, (0,) * self.degree, 1)

    def one(self):
        return _new(self, (1,) + (0,) * (self.degree - 1), 1)

    def gen(self):
        """The class of x (for degree 1 this is the rational root of f)."""
        if self.degree == 1:
            return _new(self, (-self.min_poly[0],), 1)
        return _new(self, (0, 1) + (0,) * (self.degree - 2), 1)

    def element(self, coeffs):
        return FieldElement(self, coeffs)

    def from_rational(self, q):
        if isinstance(q, int):
            n, d = q, 1
        else:
            q = Fraction(q)
            n, d = q.numerator, q.denominator
        return _new(self, (n,) + (0,) * (self.degree - 1), d)


def _sign_changes(signs):
    return sum(a != b for a, b in zip(signs, signs[1:]))


def field_make(min_poly):
    """Construct a NumberField, rejecting non-monic / non-squarefree input and
    cheap reducibility witnesses."""
    return NumberField(min_poly)


class FieldElement:
    """Element of a NumberField: integer numerators ``num`` (one per power of
    x) over one positive denominator ``den``, with gcd(den, *num) == 1, so
    that equal elements have equal (num, den)."""

    __slots__ = ("field", "num", "den")

    def __init__(self, field, coeffs):
        coeffs = [Fraction(c) for c in coeffs]
        if len(poly_trim(coeffs)) > field.degree:
            coeffs = poly_divmod(coeffs, field.min_poly)[1]
        coeffs = coeffs[:field.degree]
        coeffs += [Fraction(0)] * (field.degree - len(coeffs))
        # the lcm of reduced denominators leaves gcd(den, *num) == 1
        den = math.lcm(*(c.denominator for c in coeffs))
        self.field = field
        self.num = tuple(c.numerator * (den // c.denominator) for c in coeffs)
        self.den = den

    @property
    def coeffs(self):
        """The coefficient vector as Fractions in lowest terms."""
        return tuple(Fraction(n, self.den) for n in self.num)

    # -- ring structure ---------------------------------------------------
    def _check(self, other):
        if isinstance(other, FieldElement):
            if other.field is not self.field and other.field != self.field:
                raise FieldMismatch("elements of %r and %r" %
                                    (self.field, other.field))
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.from_rational(other)
        return NotImplemented

    def __add__(self, other):
        if isinstance(other, int):
            # num[0] + k den keeps gcd(den, *num) == 1
            return _new(self.field, (self.num[0] + other * self.den,)
                        + self.num[1:], self.den)
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.den, other.den
        if a == b:
            return _make(self.field,
                         [x + y for x, y in zip(self.num, other.num)], a)
        return _make(self.field, [x * b + y * a
                                  for x, y in zip(self.num, other.num)], a * b)

    __radd__ = __add__

    def __neg__(self):
        return _new(self.field, tuple(-x for x in self.num), self.den)

    def __sub__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        d = self.field.degree
        prod = [0] * (2 * d - 1)
        b = other.num
        for i, x in enumerate(self.num):
            if x:
                for j, y in enumerate(b):
                    prod[i + j] += x * y
        out = prod[:d]
        for c, row in zip(prod[d:], self.field._xpow):
            if c:
                for i, r in enumerate(row):
                    out[i] += c * r
        return _make(self.field, out, self.den * other.den)

    __rmul__ = __mul__

    def inverse(self):
        if self.is_zero():
            raise DivisionByZero("inverse of zero field element")
        n = self.field.degree
        a = [row + [int(i == 0)] for i, row in enumerate(self._mult_matrix())]
        det = _bareiss(a)
        if not det:
            # a zero divisor witnesses reducibility of the min poly
            raise DetectedReducible("element %s is a zero divisor" % (self,))
        # self = M/den acts as the integer matrix M over den, so its inverse
        # is den * M^-1 e_0 = den * y / det(M) for y = adj(M) e_0: integral,
        # so each division of the back substitution on a is exact
        y = [0] * n
        for i in reversed(range(n)):
            s = det * a[i][n] - sum(a[i][j] * y[j] for j in range(i + 1, n))
            y[i] = s // a[i][i]
        if det < 0:
            det, y = -det, [-v for v in y]
        return _make(self.field, [self.den * v for v in y], det)

    def __truediv__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, n):
        n = int(n)
        if n < 0:
            return self.inverse() ** (-n)
        if not n:
            return self.field.one()
        # square up to the lowest set bit, which starts the product; stop
        # squaring with the highest bit
        base = self
        while not n & 1:
            base = base * base
            n >>= 1
        out = base
        n >>= 1
        while n:
            base = base * base
            if n & 1:
                out = out * base
            n >>= 1
        return out

    # -- predicates, hashing ----------------------------------------------
    def is_zero(self):
        return not any(self.num)

    def is_one(self):
        return self.den == 1 and self.num[0] == 1 and not any(self.num[1:])

    def is_rational(self):
        return not any(self.num[1:])

    def as_rational(self):
        if not self.is_rational():
            raise ValueError("element is not rational: %s" % (self,))
        return Fraction(self.num[0], self.den)

    def __eq__(self, other):
        if isinstance(other, int):
            return self.is_rational() and self.num[0] == other * self.den
        if isinstance(other, Fraction):
            return (self.is_rational() and self.num[0] * other.denominator
                    == other.numerator * self.den)
        return (isinstance(other, FieldElement) and self.field == other.field
                and self.num == other.num and self.den == other.den)

    def __hash__(self):
        if self.is_rational():
            return hash(self.num[0] if self.den == 1 else self.as_rational())
        return hash((self.field.min_poly, self.num, self.den))

    def __repr__(self):
        return "FieldElement(%s)" % " ".join(
            str(p) if q == 1 else "%d/%d" % (p, q)
            for p, q in map(self._reduced, self.num))

    def _reduced(self, n):
        """Coefficient n/den in lowest terms, as (numerator, denominator)."""
        g = math.gcd(n, self.den)
        return n // g, self.den // g

    def _mult_matrix(self):
        """The integer matrix of multiplication by den * self."""
        xpow = self.field._xpow
        col = list(self.num)
        cols = [col]
        for _ in range(self.field.degree - 1):
            # column j + 1 is x times column j, reduced by x^deg mod f
            top = col[-1]
            col = [0] + col[:-1]
            if top:
                col = [c + top * r for c, r in zip(col, xpow[0])]
            cols.append(col)
        return [list(row) for row in zip(*cols)]

    def norm(self):
        """Field norm: determinant of the multiplication-by-self matrix."""
        return Fraction(_bareiss(self._mult_matrix()),
                        self.den ** self.field.degree)


def horner(element, roots, prec):
    """The element's values at libmp (re, im) roots, as libmp pairs: the
    one evaluation of an exact element at a place.  Callers pass each
    root's own pair, unrounded, and the precision explicitly.

    Each coefficient p/q in lowest terms is rounded once, as
    from_int(p) / from_int(q); each Horner step rounds the product, as
    mpc_mul does, and then the sum, both to nearest at prec bits.  These are
    the bits of mpc Horner at working precision prec; at a root with a zero
    imaginary part they are also those of mpc_mul_mpf, mpc times mpf.
    """
    rnd = round_nearest
    coeffs = []
    for n in reversed(element.num):
        p, q = element._reduced(n)
        c = from_int(p, prec, rnd)
        coeffs.append(c if q == 1 else
                      mpf_div(c, from_int(q, prec, rnd), prec, rnd))
    out = []
    for x, y in roots:
        re, im = coeffs[0], fzero
        for c in coeffs[1:]:
            re, im = (mpf_add(mpf_sub(mpf_mul(re, x), mpf_mul(im, y),
                                      prec, rnd), c, prec, rnd),
                      mpf_add(mpf_mul(re, y), mpf_mul(im, x), prec, rnd))
        out.append((re, im))
    return out


def _new(field, num, den):
    """A FieldElement from canonical (num, den), with no checks."""
    out = object.__new__(FieldElement)
    out.field = field
    out.num = num
    out.den = den
    return out


def _make(field, num, den):
    """A FieldElement from integer numerators over den > 0, reduced by their
    common gcd."""
    g = math.gcd(den, *num)
    if g != 1:
        return _new(field, tuple(x // g for x in num), den // g)
    return _new(field, tuple(num), den)


def _bareiss(a):
    """Fraction-free (Bareiss) elimination, in place, of the n integer rows
    a on their first n columns (any further columns ride along): returns
    det of that square part, or 0, leaving a upper triangular there unless
    det = 0.

    Every division is exact: by Sylvester's identity the pivot of step k is a
    k x k minor of the row-permuted matrix, and it divides every entry that
    step k + 1 produces (Bareiss 1968; Cohen, GTM 138, section 2.2).
    """
    n = len(a)
    sign, prev = 1, 1
    for k in range(n):
        piv = next((r for r in range(k, n) if a[r][k]), None)
        if piv is None:
            return 0
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        rowk = a[k]
        p = rowk[k]
        for i in range(k + 1, n):
            rowi = a[i]
            f = rowi[k]
            a[i] = [0] * (k + 1) + [(p * x - f * y) // prev for x, y in
                                    zip(rowi[k + 1:], rowk[k + 1:])]
        prev = p
    return sign * prev


# ---------------------------------------------------------------------------
# embeddings

class EmbeddingSet:
    """All archimedean embeddings of a field at a fixed precision.

    real_roots are sorted ascending; complex_pairs holds one representative
    per conjugate pair with Im > 0, sorted by (real part, imaginary part),
    and is the default evaluation list for regulator vectors.  Both are tuples,
    as one instance is shared by all callers at its minimal polynomial and
    precision.
    """

    def __init__(self, real_roots, complex_pairs, precision):
        self.real_roots = tuple(real_roots)
        self.complex_pairs = tuple(complex_pairs)
        self.r1 = len(self.real_roots)
        self.r2 = len(self.complex_pairs)
        self.precision = precision

    def all_roots(self):
        """Every root of min_poly: real roots, then each pair (rep, conjugate)."""
        out = [mp.make_mpc((r._mpf_, mp.libmp.fzero)) for r in self.real_roots]
        for z in self.complex_pairs:
            out.append(z)
            out.append(conj_exact(z))
        return out

    def __repr__(self):
        return ("EmbeddingSet(r1=%d, r2=%d, prec=%d)" %
                (self.r1, self.r2, self.precision))


# (min_poly, precision) -> EmbeddingSet, filled by embeddings()
_EMBEDDINGS = {}


def embeddings(field, precision=256):
    """All complex embeddings of the field, polished to ``precision`` bits.

    The roots of mp.polyroots are polished by ``_polish``.  The field's exact
    Sturm count r1 says how many are real: the r1 roots of smallest |Im|,
    polished again from their real parts.  The others with Im > 0 are the
    pair representatives.  Each root r has |f(r)| < 2^(-precision-8), or at
    worst the certified |f(r)| < 2^(-precision/2).  The result is computed
    once per minimal polynomial and precision and then shared by every field
    equal to this one.
    """
    if precision < 64:
        raise ValueError("precision must be at least 64 bits")
    f = field.min_poly
    es = _EMBEDDINGS.get((f, precision))
    if es is not None:
        return es
    with mp.workprec(precision + 64):
        try:
            roots = mp.polyroots([mp.mpf(c) for c in reversed(f)],
                                 maxsteps=200, extraprec=precision)
        except mp.libmp.libhyper.NoConvergence as exc:
            raise RootFindingFailed(str(exc))
        roots = sorted((_polish(f, r, precision) for r in roots),
                       key=lambda z: abs(mp.im(z)))
        reals = sorted(_polish(f, mp.re(r), precision)
                       for r in roots[:field.r1])
        pairs = sorted((z for z in roots[field.r1:] if mp.im(z) > 0),
                       key=lambda z: (mp.re(z), mp.im(z)))
    if 2 * len(pairs) != field.degree - field.r1:
        raise RootFindingFailed("found %d of %d conjugate pairs" % (
            len(pairs), (field.degree - field.r1) // 2))
    es = _EMBEDDINGS[f, precision] = EmbeddingSet(reals, pairs, precision)
    return es


def _poly_value(p, x):
    """p(x) by Horner from the integer 0: exact at an integer x; at an mpf
    or mpc x, 0 * x + c has the bits of mp.mpf(0) * x + c or
    mp.mpc(0) * x + c at the working precision."""
    v = 0
    for c in reversed(p):
        v = v * x + c
    return v


def _polish(int_coeffs, z0, precision):
    """Newton-polish a root approximation until |f(z)| < 2^(-precision-8).

    A real start stays real.  A root that stalls above that bound is still
    returned when it is certified, |f(z)| < 2^(-precision/2); otherwise
    RootFindingFailed.
    """
    deriv = poly_deriv(int_coeffs)
    with mp.workprec(precision + 64):
        z = z0 if isinstance(z0, mp.mpc) else mp.mpf(z0)
        bound = mp.mpf(2) ** (-precision - 8)
        for _ in range(precision):
            fv = _poly_value(int_coeffs, z)
            if abs(fv) < bound:
                return z
            dv = _poly_value(deriv, z)
            if dv == 0:
                break
            z = z - fv / dv
        fv = _poly_value(int_coeffs, z)
        if abs(fv) < mp.mpf(2) ** (-(precision // 2)):
            return z
    raise RootFindingFailed("Newton polish stalled near %s" % z0)

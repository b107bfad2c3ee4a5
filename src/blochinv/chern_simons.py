"""Volume and Chern-Simons evaluation through rational flattenings.

A flattening is an exact rational solution c = (c', c'') of U c = d.  With
core lengths lambda_j (zero at unfilled cusps) the combination

    -(pi/2) sum_j lambda_j
    - i sum_nu ( R(z_nu) - (i pi / 2)(c'_nu log(1 - z_nu) - c''_nu log z_nu) )

equals vol + i CS up to an additive constant in i pi^2 Q depending only on
the triangulation and c; its real part is the exact volume sum of D2 values.
CS is therefore exposed modulo pi^2 Q, with an optional user calibration.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

import mpmath as mp

from .dilog import (_GUARD, _I, _ZERO, _flattened_rogers, _libmp, _rounded,
                    rational_reconstruct)
from .errors import Inconsistent
from .lattice import solve_integer, solve_rational


class FlatteningSolution(NamedTuple):
    c: list                   # 2n Fractions
    integral: bool


class CSResult(NamedTuple):
    value: object             # vol + i CS representative (alpha = 0)
    vol: object
    cs_mod_rational: object   # Im(value): CS modulo pi^2 Q


def solve_flattening(U, d):
    """Exact rational solution of U c = d, integral when elimination finds one.

    Raises Inconsistent when d is outside the rational column span of U.
    """
    x = solve_integer(U, d)
    integral = x is not None
    if not integral:
        x = solve_rational(U, d)
        if x is None:
            raise Inconsistent("U c = d has no rational solution")
    return FlatteningSolution(c=[Fraction(v) for v in x], integral=integral)


def cs_formula(shapes, lambdas, flattening, precision=256):
    """Evaluate the flattened volume + i CS combination with alpha = 0."""
    n = len(shapes)
    c = flattening.c if isinstance(flattening, FlatteningSolution) else \
        [Fraction(x) for x in flattening]
    if len(c) != 2 * n:
        raise Inconsistent("flattening length %d for %d shapes" % (len(c), n))
    cp, cpp = c[:n], c[n:]
    wp = precision + _GUARD
    ar, total = _libmp(wp), _ZERO
    for lam in lambdas or []:       # total -= mp.pi / 2 * mp.mpc(lam)
        total = ar.sub(total, ar.mul_mpf(_rounded(lam, wp), ar.half_pi))
    for nu in range(n):             # total -= mp.mpc(0, 1) * R_nu
        total = ar.sub(total, ar.mul(_I, _flattened_rogers(
            shapes[nu], cp[nu], cpp[nu], precision)))
    value = mp.make_mpc(total)
    return CSResult(value=value, vol=value.real, cs_mod_rational=value.imag)


def rho_of_cs(res, precision=256):
    """(i / 2 pi^2) res.value of a CSResult, a representative modulo Q."""
    with mp.workprec(precision + _GUARD):
        return mp.mpc(0, 1) / (2 * mp.pi ** 2) * res.value


def rationalize_mod_pi2(x, max_denominator=120, precision=256):
    """Reconstruct x / pi^2 as a bounded-denominator rational, or None."""
    with mp.workprec(precision + _GUARD):
        ratio = mp.mpf(x) / mp.pi ** 2
        return rational_reconstruct(ratio, max_denominator,
                                    mp.mpf(2) ** (-(precision // 2)))

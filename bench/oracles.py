"""Correctness oracles: published values and precision-scaled tolerances.

The values are kept here, independent of the program and its test suite.
Each published value carries the number of decimals it was published with;
a comparison at ``precision`` bits accepts an error up to
``max(2^(-precision/2), 10^(1 - decimals))``, so the tolerance tightens with
precision until it reaches the resolution of the published digits.
"""

from fractions import Fraction

import mpmath as mp

# vol(4_1) = 2 D2(exp(i pi/3)) = 2 Cl2(pi/3)
VOL_FIGURE_EIGHT = "2.02988321281930725004240510854904057188337861506059958403498"
# smallest closed census manifold, D2 at the complex root of x^3 - x + 1
VOL_WEEKS = "0.942707362776927720921299603092211647590327105766883159014507"
# closed-manifold shape triple example3.tri, equal to 2 * Catalan
VOL_EXAMPLE3 = "1.831931188354438030109207029864768221548298748563344268533"
# regular ideal octahedron 4 D2(i) = 4 * Catalan; the square pyramid is half
VOL_OCTAHEDRON = "3.66386237670887606021841405972953644309659749712668853706599"
VOL_SQUARE_PYRAMID = VOL_EXAMPLE3
# single ideal tetrahedron of tetrahedron.poly, D2(0.3 + 1.1 i)
VOL_TETRAHEDRON = "0.983228862343994490905405670287627123805991687247397989726189"
# (5, 1) filling of the figure-eight knot complement (and its mirror (-5, 1))
VOL_FIG8_5_1 = "0.98136882889223208809"
# Borel regulator vectors at the published places of the quartic field
# of discriminant 257
BETA1 = ("3.1639632288831439839910147159731544848127876715181",
         "-1.4151048972655633406895085877105020361346679596016")
BETA2 = ("-0.69854408278444071973072661203684276397736670535490",
         "3.8216875861799777391109222242903855168213024955043")

SCHEMA_PREFIX = "blochinv.report/"


def decimals(value):
    """Number of digits after the decimal point of a published value."""
    return len(value.split(".", 1)[1])


def tolerance(precision, value=None):
    """2^(-precision/2), capped at the resolution of the published digits."""
    tol = mp.mpf(2) ** (-(precision // 2))
    if value is not None:
        tol = max(tol, mp.mpf(10) ** (1 - decimals(value)))
    return tol


def close(x, value, precision):
    """|x - value| within tolerance(precision, value)."""
    with mp.workprec(precision + 32):
        return abs(mp.mpf(x) - mp.mpf(value)) < tolerance(precision, value)


def small(x, precision):
    """|x| below 2^(-precision/2)."""
    with mp.workprec(precision + 32):
        return abs(mp.mpmathify(x)) < tolerance(precision)


def is_rational_string(text):
    try:
        Fraction(text)
    except (TypeError, ValueError):
        return False
    return True

"""The line layer shared by the `.tri`, `.bloch` and `.poly` text formats.

A line loses its `#` comment and is split on whitespace; blank lines are
skipped.  Parsers dispatch on (lineno, key, args), key the first token; a
fixed-arity keyword unpacks its args, so extra tokens fail like missing ones.
"""

from __future__ import annotations

from fractions import Fraction

import mpmath as mp

from .errors import BlochError, TriangulationSyntaxError
from .numfield import NumberField


def lines(text):
    """(lineno, key, args) for every line of text that is not blank."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        toks = raw.split("#", 1)[0].split()
        if toks:
            yield lineno, toks[0], toks[1:]


def read(text, handle):
    """Call handle(lineno, key, args) on every line.  A ValueError,
    IndexError, ZeroDivisionError or BlochError it raises becomes a
    TriangulationSyntaxError with the line number."""
    for lineno, key, args in lines(text):
        try:
            handle(lineno, key, args)
        except (ValueError, IndexError, ZeroDivisionError, BlochError) as exc:
            if getattr(exc, "line", None) is not None:
                raise
            msg = str(exc) if isinstance(exc, BlochError) else \
                "malformed line %r" % " ".join([key] + args)
            raise TriangulationSyntaxError(msg, lineno) from None


def read_field(args):
    """The NumberField of a `field <deg> <c0> ... <cdeg>` line."""
    deg, *coeffs = [int(a) for a in args]
    if len(coeffs) != deg + 1:
        raise TriangulationSyntaxError(
            "field degree %d needs %d coefficients" % (deg, deg + 1))
    return NumberField(coeffs)


def field_line(field):
    """The `field` header line of a NumberField, low degree first."""
    return "field %d %s" % (field.degree,
                            " ".join(str(c) for c in field.min_poly))


def exact_vector(args, degree, what):
    """Exactly ``degree`` rational coefficients (``what`` names the datum)."""
    try:
        qs = [Fraction(a) for a in args]
    except (ValueError, ZeroDivisionError):
        raise TriangulationSyntaxError("bad exact %s" % what) from None
    if len(qs) != degree:
        raise TriangulationSyntaxError(
            "exact %s needs %d coefficients" % (what, degree))
    return qs


def complex_pair(args, precision):
    """The finite complex number `<re> <im>`, read at ``precision`` bits."""
    re_s, im_s = args
    with mp.workprec(precision):
        z = mp.mpc(mp.mpf(re_s), mp.mpf(im_s))
    if not mp.isfinite(z):
        raise TriangulationSyntaxError("non-finite number %s %s" % (re_s, im_s))
    return z

"""The pre-Bloch group: formal sums of cross-ratio classes, six-fold
normalization, five-term relation elements, the wedge map into k* ^ k*, a
certified Bloch-group membership test, D2 sums at an embedding, and the
class beta(M) of a triangulation's shapes.

Exact generators live in a NumberField (degree 1 = Q); numeric generators are
arbitrary-precision complex numbers.  The wedge of an exact element is
computed in the free abelian group on its generators modulo multiplicative
relations that are proposed numerically (lattice reduction on archimedean
log vectors, pruned by exact norm valuations) and then verified by exact
field arithmetic.  A zero wedge is therefore a certificate; a nonzero one is
only a one-sided verdict, since a missed relation can inflate the image.
"""

from __future__ import annotations

import functools
import math
import operator
from fractions import Fraction
from typing import NamedTuple

import mpmath as mp
from mpmath.libmp import (fzero, mpc_abs, mpf_atan2, mpf_log, mpf_mul_int,
                          mpf_sum, round_nearest)

from . import textformat
from .dilog import _GUARD, bloch_wigner
from .errors import (DegenerateFiveTerm, DegenerateShape, DimensionMismatch,
                     NotDistinct, RequiresExactField, RootFindingFailed,
                     TriangulationSyntaxError)
from .lattice import integer_relations, kernel_int, valuation_kernel
from .numfield import FieldElement, _polish, embeddings, horner


class _InfinityType:
    """The point at infinity on the projective line."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "Infinity"


Infinity = _InfinityType()


def exact_mpc(x):
    """Cast to mpc without rounding (mp.mpc() re-rounds to ambient precision)."""
    if isinstance(x, mp.mpc):
        return x
    if isinstance(x, mp.mpf):
        return mp.make_mpc((x._mpf_, mp.mpf(0)._mpf_))
    return mp.mpc(x)


def cross_ratio(z1, z2, z3, z4, precision=256):
    """Cross ratio [z1:z2:z3:z4] = ((z3-z2)(z4-z1)) / ((z3-z1)(z4-z2)).

    Points may be exact field elements, Fractions, mpmath complex numbers, or
    Infinity; the two factors that hold Infinity are left out.  Distinct
    points give a value outside {0, 1}.  Numeric points are combined at
    precision + _GUARD bits.
    """
    pts = [z1, z2, z3, z4]
    for i in range(4):
        for j in range(i + 1, 4):
            if _pt_eq(pts[i], pts[j]):
                raise NotDistinct("cross-ratio points %d and %d coincide" % (i, j))
    sides = (((z3, z2), (z4, z1)), ((z3, z1), (z4, z2)))
    with mp.workprec(precision + _GUARD):
        num, den = (functools.reduce(operator.mul, [
            a - b for a, b in side
            if a is not Infinity and b is not Infinity]) for side in sides)
        return num / den


def _pt_eq(a, b):
    if a is Infinity or b is Infinity:
        return a is b
    if isinstance(a, FieldElement) != isinstance(b, FieldElement):
        return False
    return a == b


# ---------------------------------------------------------------------------

def _is_exact(g):
    return isinstance(g, (FieldElement, Fraction, int))


def _degenerate(g):
    return g == 0 or g == 1


class PreBlochElement:
    """Formal integer combination of cross-ratio classes [z]."""

    def __init__(self, terms=None, field=None):
        self.field = field
        self.terms = {}
        if terms:
            for gen, coeff in (terms.items() if isinstance(terms, dict) else terms):
                self._add_term(gen, coeff)

    def _add_term(self, gen, coeff):
        coeff = int(coeff)
        if coeff == 0:
            return
        if isinstance(gen, int):
            gen = Fraction(gen)
        if _degenerate(gen):
            raise DegenerateShape("generator %s lies in {0, 1}" % (gen,))
        if isinstance(gen, FieldElement):
            if self.field is None:
                self.field = gen.field
            elif gen.field != self.field:
                raise RequiresExactField("generator from a different field")
        elif isinstance(gen, Fraction):
            pass
        else:
            gen = exact_mpc(gen)
            # numeric generators reached by different routes differ in
            # trailing bits.  A value of b bits is accurate to about b - 64
            # (canonical_representative works 64 bits above its input), so
            # merge within the square root of that, never looser than 2^-48
            bits = _value_bits(gen)
            for k in self.terms:
                if isinstance(k, (FieldElement, Fraction)):
                    continue
                b = max(bits, _value_bits(k))
                if abs(k - gen) < mp.ldexp(1 + abs(k), -max(48, (b - 64) // 2)):
                    gen = k
                    break
        new = self.terms.get(gen, 0) + coeff
        if new:
            self.terms[gen] = new
        else:
            self.terms.pop(gen, None)

    # -- group structure ----------------------------------------------------
    def __add__(self, other):
        out = PreBlochElement(field=self.field or other.field)
        for g, c in self.terms.items():
            out._add_term(g, c)
        for g, c in other.terms.items():
            out._add_term(g, c)
        return out

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, n):
        out = PreBlochElement(field=self.field)
        for g, c in self.terms.items():
            out._add_term(g, c * n)
        return out

    def __neg__(self):
        return self.scale(-1)

    def is_zero(self):
        return not self.terms

    def is_exact(self):
        return all(_is_exact(g) for g in self.terms)

    def __len__(self):
        return len(self.terms)

    def __eq__(self, other):
        return (isinstance(other, PreBlochElement)
                and self.terms == other.terms)

    def __repr__(self):
        if not self.terms:
            return "PreBlochElement(0)"
        bits = []
        for g, c in self.terms.items():
            if isinstance(g, FieldElement):
                gs = "[" + " ".join(str(q) for q in g.coeffs) + "]"
            else:
                gs = "[%s]" % (g,)
            bits.append("%+d*%s" % (c, gs))
        return "PreBlochElement(%s)" % " ".join(bits)


# ---------------------------------------------------------------------------
# six-fold symmetry

def orbit_images(z):
    """The six images of z under the cross-ratio symmetry group, with signs:
    even images {z, 1-1/z, 1/(1-z)} carry +1, odd {1/z, 1-z, z/(z-1)} -1."""
    return [
        (z, 1),
        (1 - 1 / z, 1),
        (1 / (1 - z), 1),
        (1 / z, -1),
        (1 - z, -1),
        (z / (z - 1), -1),
    ]


def _value_bits(z):
    z = exact_mpc(z)
    return max(z.real._mpf_[3], z.imag._mpf_[3], 53)


def canonical_representative(z):
    """Canonical orbit representative and the sign relating [z] to it.

    Exact generators: lexicographically smallest coefficient vector.  Numeric
    generators: among the upper-half-plane images, smallest modulus, ties by
    real then imaginary part (flat generators compare all six images); when
    the winner coincides with z itself the original value is returned, so
    normalization never degrades precision.
    """
    if _is_exact(z):
        def key(item):
            g, _ = item
            if isinstance(g, FieldElement):
                return tuple(g.coeffs)
            return (Fraction(g),)
        return min(orbit_images(z), key=key)
    zc = exact_mpc(z)
    with mp.workprec(_value_bits(zc) + 64):
        cands = [(exact_mpc(g), s) for g, s in orbit_images(zc)]
        if mp.im(zc) != 0:
            cands = [(g, s) for g, s in cands if mp.im(g) > 0]
        best, sign = min(cands,
                         key=lambda it: (abs(it[0]), mp.re(it[0]), mp.im(it[0])))
        if sign == 1 and abs(best - zc) < mp.mpf(2) ** (-_value_bits(zc) + 8) * (1 + abs(zc)):
            return zc, 1
        return best, sign


def six_fold_normalize(element):
    """Replace each generator by its canonical orbit representative.

    Idempotent; preserves the class in the pre-Bloch group and therefore all
    separators (D2 at every embedding, the wedge image, rho representatives).
    """
    out = PreBlochElement(field=element.field)
    for g, c in element.terms.items():
        canon, sign = canonical_representative(g)
        out._add_term(canon, sign * c)
    return out


def five_term(x, y, precision=256):
    """The five-term relation element [x]-[y]+[y/x]-[(1-1/x)/(1-1/y)]+[(1-x)/(1-y)].

    Zero in the pre-Bloch group; raises DegenerateFiveTerm when any entry
    degenerates or x = y.  Numeric entries are computed at precision + _GUARD
    bits.
    """
    if _pt_eq(x, y):
        raise DegenerateFiveTerm("x = y")
    if isinstance(x, int):
        x = Fraction(x)
    if isinstance(y, int):
        y = Fraction(y)
    if _degenerate(x) or _degenerate(y):
        raise DegenerateFiveTerm("x or y in {0, 1}")
    with mp.workprec(precision + _GUARD):
        entries = [
            (x, 1),
            (y, -1),
            (y / x, 1),
            ((1 - 1 / x) / (1 - 1 / y), -1),
            ((1 - x) / (1 - y), 1),
        ]
    for g, _ in entries:
        if _degenerate(g):
            raise DegenerateFiveTerm("entry %s lies in {0, 1}" % (g,))
    return PreBlochElement(entries)


# ---------------------------------------------------------------------------
# volumes and the class of a triangulation

def volume_of_prebloch(element, embedding=None, precision=256):
    """Sum of n_i * D2(sigma(z_i)) over the element's generators.

    Numeric generators are evaluated directly; exact generators are mapped
    through ``embedding`` (a root of the field's minimal polynomial).  When
    the field has a single complex place and no embedding is given, that
    place is used.
    """
    with mp.workprec(precision + _GUARD):
        total = mp.mpf(0)
        emb = embedding
        for gen, coeff in element.terms.items():
            if isinstance(gen, FieldElement):
                if emb is None:
                    es = embeddings(gen.field, precision)
                    if es.r2 != 1:
                        raise DimensionMismatch(
                            "field has %d complex places; pass an embedding" % es.r2)
                    emb = es.complex_pairs[0]
                zv = mp.make_mpc(horner(gen, [exact_mpc(emb)._mpc_],
                                        precision + _GUARD)[0])
            elif isinstance(gen, Fraction):
                continue  # real: D2 = 0
            else:
                zv = mp.mpc(gen)
            total += coeff * bloch_wigner(zv, precision)
        return total


def bloch_invariant(t, precision=256):
    """The pre-Bloch class sum [z_j] of the shapes ``t.validate(precision)``
    returns for the triangulation t, six-fold normalized; exact shapes stay
    exact.

    beta(M) is defined only for a triangulation whose gluing equations
    U.Z = pi i d hold, so this raises where validate does."""
    zs = t.validate(precision)
    if t.exact_shapes():
        e = PreBlochElement([(z, 1) for z in t.shapes], field=t.field)
    else:
        e = PreBlochElement([(z, 1) for z in zs])
    return six_fold_normalize(e)


# ---------------------------------------------------------------------------
# multiplicative relations and the wedge map

class Relation(NamedTuple):
    """Verified multiplicative relation prod elements[i]^exponents[i] = unity."""
    exponents: tuple
    unity: object  # FieldElement or Fraction, a root of unity


class WedgeElement(NamedTuple):
    """An antisymmetric integer matrix over the free quotient of the group
    generated by an element's z and 1-z modulo ``relations``, in the basis of
    ``lattice.kernel_int`` of the relations; another basis gives A M A^T, A
    unimodular.  The quotient's torsion is not computed."""
    matrix: list
    relations: list

    def is_zero(self):
        return all(all(x == 0 for x in row) for row in self.matrix)


class BlochCertificate(NamedTuple):
    verdict: str                      # "CertifiedZero" | "LikelyNonzero"
    wedge: WedgeElement

    @property
    def relations(self):
        return self.wedge.relations


@functools.lru_cache(maxsize=None)
def _possible_unity_orders(degree):
    # orders m with euler_phi(m) <= degree
    return tuple(m for m in range(1, 6 * degree + 7)
                 if sum(math.gcd(k, m) == 1 for k in range(1, m + 1)) <= degree)


def _is_root_of_unity(u):
    return u.norm() in (1, -1) and any(
        (u ** m).is_one() for m in _possible_unity_orders(u.field.degree))


def _dedup_generators(element):
    """Distinct base elements {z, 1-z} of an exact element, plus the index
    pairs (i, j, coeff) of each term's (z, 1-z) in that list."""
    base = []
    index = {}

    def idx(x):
        if x in index:
            return index[x]
        index[x] = len(base)
        base.append(x)
        return index[x]

    pairs = []
    for g, c in element.terms.items():
        pairs.append((idx(g), idx(1 - g), c))
    return base, pairs


# relation candidates with a larger exponent are dropped unverified
_MAX_EXPONENT = 64


def multiplicative_relations(elements, precision=256):
    """Verified multiplicative relations among nonzero exact elements.

    Over Q (Fractions, or a field of degree 1) they come from exact
    valuations over a coprime base.  In a field of higher degree, candidates
    come from lattice reduction on the archimedean log vectors (log|x| at
    every place but the first, which the others fix since each kernel
    product has norm +-1, and arg x at complex places, with 2 pi / M
    ambiguity vectors for the possible torsion orders M), restricted to the
    exact kernel of the norm valuations; each candidate is verified by exact
    multiplication and kept if it passes.  At sufficient precision the
    numeric kernel equals the true relation lattice: a product whose
    embeddings all lie on the M-grid of the unit circle is a root of unity.
    The candidates are part of an LLL-reduced basis, so the verified ones
    are independent, and their lattice holds every integer combination of
    them.
    """
    elements = [Fraction(x) if isinstance(x, (int, Fraction)) else x
                for x in elements]
    if any(x == 0 for x in elements):
        raise DegenerateShape("multiplicative relations need nonzero elements")
    fld = next((x.field for x in elements if isinstance(x, FieldElement)),
               None)
    if fld is None or fld.degree == 1:
        rels = _relations_over_q([x if isinstance(x, Fraction)
                                  else x.as_rational() for x in elements])
        return rels if fld is None else [
            r._replace(unity=fld.from_rational(r.unity)) for r in rels]
    elements = [fld.from_rational(x) if isinstance(x, Fraction) else x
                for x in elements]
    m = len(elements)

    # exact pruning: valuations of rational norms
    val_kernel = valuation_kernel([x.norm() for x in elements])
    if not val_kernel:
        return []

    # archimedean data from _log_coordinates; each search vector is the
    # kernel row's combination of them, with the bits of mp.fsum of the
    # products row[i] * coords[i][j] at wp
    es = embeddings(fld, precision)
    order_lcm = math.lcm(*_possible_unity_orders(fld.degree))
    wp = precision + 32
    rnd = round_nearest
    places = ([(r._mpf_, fzero) for r in es.real_roots]
              + [z._mpc_ for z in es.complex_pairs])
    coords = [_log_coordinates(x, places, es.r1, wp) for x in elements]
    ncoord = len(coords[0])
    with mp.workprec(wp):
        search = []
        for row in val_kernel:
            terms = [(k, c) for k, c in zip(row, coords) if k]
            search.append([mp.make_mpf(mpf_sum(
                [mpf_mul_int(c[j], k, wp, rnd) for k, c in terms], wp, rnd))
                for j in range(ncoord)])
        # one 2 pi / M ambiguity vector per argument coordinate
        for col in range(ncoord - es.r2, ncoord):
            aux = [mp.mpf(0)] * ncoord
            aux[col] = 2 * mp.pi / order_lcm
            search.append(aux)
        combos = integer_relations(search, precision, max_coeff=None)
    out = []
    for combo in combos:
        # the exponents: the kernel rows the combination uses, added up
        e = [0] * m
        for c, row in zip(combo, val_kernel):
            if c:
                e = [a + c * b for a, b in zip(e, row)]
        if any(e) and max(map(abs, e)) <= _MAX_EXPONENT:
            rel = _verify_relation(elements, tuple(e))
            if rel is not None:
                out.append(rel)
    return out


def _log_coordinates(x, places, r1, wp):
    """log|x| at each libmp place but the first, then arg x at each place
    after the first r1 (the real ones), as raw mpfs: the bits of
    mp.log(abs(v)) and mp.arg(v) for v the mpc Horner value of x at the
    place, all at working precision wp.  The first place's log is never
    computed, nor, when it is real, its value."""
    rnd = round_nearest
    lead = min(r1, 1)         # the places skipped: the first, if it is real
    values = horner(x, places[lead:], wp)
    return ([mpf_log(mpc_abs(v, wp, rnd), wp, rnd) for v in values[1 - lead:]]
            + [mpf_atan2(v[1], v[0], wp, rnd) for v in values[r1 - lead:]])


def _verify_relation(elements, exps):
    """The relation prod x^e = u if u is a root of unity, else None.  With
    the product split as num / den, u = +-1 is read off num == +-den, and
    only another u costs a division."""
    one = elements[0].field.one()
    sides = ([x ** e for x, e in zip(elements, exps) if e > 0],
             [x ** -e for x, e in zip(elements, exps) if e < 0])
    num, den = (math.prod(p[1:], start=p[0]) if p else one for p in sides)
    if num == den:
        u = one
    elif num == -den:
        u = -one
    else:
        u = num / den
        if not _is_root_of_unity(u):
            return None
    return Relation(tuple(int(e) for e in exps), u)


def _relations_over_q(elements):
    """Exact relation lattice for rationals: the valuation kernel.  Each
    kernel row e is checked on integers: prod |x|^e = 1 as top == bot, with
    the sign of the unity from the odd exponents of negative x."""
    out = []
    for e in valuation_kernel(elements):
        top = bot = sign = 1
        for x, k in zip(elements, e):
            n, d = abs(x.numerator) ** abs(k), x.denominator ** abs(k)
            top, bot = (top * n, bot * d) if k > 0 else (top * d, bot * n)
            if x < 0 and k & 1:
                sign = -sign
        if top == bot:
            out.append(Relation(tuple(int(k) for k in e), Fraction(sign)))
    return out


def wedge(element, precision=256):
    """Image of the element under [z] -> 2 (z ^ (1-z)), modulo torsion.

    Returns a WedgeElement carrying an antisymmetric integer matrix over a
    multiplicative basis of the group generated by the z and 1-z, modulo the
    verified relation lattice.  Every relation used was verified exactly, so
    a zero matrix certifies membership; a nonzero one is one-sided.
    """
    if not element.is_exact():
        raise RequiresExactField("wedge needs exact generators")
    base, pairs = _dedup_generators(element)
    m = len(base)
    rels = multiplicative_relations(base, precision=precision)
    # the functionals that kill every relation: they map Z^m onto Z^f, with
    # the saturated relation lattice as kernel
    proj = kernel_int([[r.exponents[i] for r in rels] for i in range(m)])
    f = len(proj)
    mat = [[0] * f for _ in range(f)]
    for i, j, c in pairs:
        u = [proj[a][i] for a in range(f)]
        w = [proj[a][j] for a in range(f)]
        for a in range(f):
            for b in range(f):
                mat[a][b] += 2 * c * (u[a] * w[b] - u[b] * w[a])
    return WedgeElement(matrix=mat, relations=rels)


def is_bloch(element, precision=256):
    """Certified Bloch-group membership test (modulo torsion).

    CertifiedZero is sound: the wedge vanishes in the quotient by exactly
    verified relations, which maps onto the true quotient.  LikelyNonzero is
    heuristic; a missed relation can only inflate the image.
    """
    w = wedge(element, precision=precision)
    if w.is_zero():
        verdict = "CertifiedZero"
    else:
        verdict = "LikelyNonzero"
    return BlochCertificate(verdict=verdict, wedge=w)


# ---------------------------------------------------------------------------
# element file serialization

def serialize_element(element):
    """Text form: an optional field header then one line per term."""
    lines = []
    if element.field is not None:
        lines.append(textformat.field_line(element.field))
    for g, c in element.terms.items():
        if isinstance(g, FieldElement):
            lines.append("%d * [%s]" % (c, " ".join(str(q) for q in g.coeffs)))
        elif isinstance(g, Fraction):
            lines.append("%d * [%s]" % (c, g))
        else:
            lines.append("%d * (%s %s)" % (c, mp.nstr(mp.re(g), 30),
                                           mp.nstr(mp.im(g), 30)))
    return "\n".join(lines) + "\n"


def parse_element(text, precision=256):
    """Parse the element file format; returns (PreBlochElement, places).

    places is the list of declared complex embeddings (refined to
    ``precision`` by Newton polishing against the declared field), or None.
    """
    element = PreBlochElement()
    fld = None
    raw_places = []
    generators = False

    def line(lineno, key, args):
        nonlocal fld, generators
        if key == "field":
            if fld is not None:
                raise TriangulationSyntaxError("repeated field line")
            if generators:
                # a term read before the header is not in its field
                raise TriangulationSyntaxError("field line after a generator")
            fld = textformat.read_field(args)
        elif key == "place":
            # a Newton starting point, read in double precision
            raw_places.append((lineno, textformat.complex_pair(args, 53)))
        else:
            generators = True
            coeff, star, rest = " ".join([key] + args).partition(" * ")
            if not star:
                raise TriangulationSyntaxError("unrecognized line")
            coeff = int(coeff.replace(" ", ""))
            inner = rest[1:-1].split()
            if rest[:1] + rest[-1:] == "[]":
                if fld is None and len(inner) != 1:
                    raise TriangulationSyntaxError(
                        "exact generator without field header")
                qs = textformat.exact_vector(
                    inner, fld.degree if fld else 1, "generator")
                gen = fld.element(qs) if fld else qs[0]
            elif rest[:1] + rest[-1:] == "()":
                gen = textformat.complex_pair(inner, precision + 16)
            else:
                raise TriangulationSyntaxError("bad generator syntax")
            element._add_term(gen, coeff)

    textformat.read(text, line)
    if element.field is None:
        # the header's field, also when every exact term cancelled
        element.field = fld
    places = None
    if raw_places:
        if fld is None:
            raise TriangulationSyntaxError("place line without a field header",
                                           raw_places[0][0])
        places = []
        for lineno, z in raw_places:
            try:
                places.append(_polish(fld.min_poly, z, precision))
            except RootFindingFailed as exc:
                raise TriangulationSyntaxError(str(exc), lineno) from None
    return element, places

"""Borel regulator vectors and integer-relation detection between elements.

The regulator of an exact pre-Bloch element over a number field F is the
vector of D2 values at one embedding per conjugate pair.  Its kernel on the
Bloch group is exactly the torsion, so equality of regulator vectors decides
equality mod torsion -- up to the lattice-covolume caveat inherent in any
numerical verification, which callers see through the residual and the
NumericOnly confidence tag.

Galois conjugates are realized without splitting-field arithmetic: a
conjugate of an element is the same coefficient data evaluated at a
different root of the minimal polynomial.
"""

from __future__ import annotations

from typing import NamedTuple

import mpmath as mp

from .dilog import _GUARD, bloch_wigner  # noqa: F401 (re-export)
from .errors import DegenerateShape, DimensionMismatch
from .lattice import integer_relations
from .numfield import embeddings
from .prebloch import six_fold_normalize, volume_of_prebloch


class RegulatorVector:
    """The regulator values of an element at its places; len() counts them."""
    __slots__ = ("places", "values")

    def __init__(self, places, values):
        self.places = places
        self.values = values

    def __len__(self):
        return len(self.values)


class RelationReport(NamedTuple):
    coefficients: tuple
    residual: object
    confidence: str  # "ExactInputVerified" | "NumericOnly"


def borel_regulator(element, precision=256, places=None):
    """Regulator vector (sum_i n_i D2(sigma_j(z_i)))_j of an exact element.

    places defaults to the field's conjugate-pair representatives in the
    deterministic order; pass an explicit root list to reproduce a published
    embedding convention.
    """
    if not element.is_exact() or element.field is None:
        raise DegenerateShape("regulator needs exact generators over a field")
    if places is None:
        places = embeddings(element.field, precision).complex_pairs
    vals = [volume_of_prebloch(element, embedding=r, precision=precision)
            for r in places]
    return RegulatorVector(places=places, values=vals)


def detect_relation(vectors, coefficient_bound=64, precision=256,
                    elements=None):
    """Small integer relation between regulator vectors, or None.

    Candidates from ``lattice.integer_relations``, smallest first; the first
    with residual  || sum a_i v_i ||  below 2^(-precision/2) is reported.
    With ``elements`` given, a relation whose exact combination
    six-fold-normalizes to zero is tagged ExactInputVerified.
    """
    vecs = [v.values if isinstance(v, RegulatorVector) else list(v)
            for v in vectors]
    m = len(vecs)
    if m < 2:
        return None
    dim = len(vecs[0])
    if any(len(v) != dim for v in vecs):
        raise DimensionMismatch("vectors of unequal length")
    with mp.workprec(precision + _GUARD):
        tol = mp.mpf(2) ** (-(precision // 2))
        for coeffs in integer_relations(vecs, precision,
                                        max_coeff=coefficient_bound):
            resid = mp.sqrt(mp.fsum(
                [mp.fsum([coeffs[i] * vecs[i][j] for i in range(m)]) ** 2
                 for j in range(dim)]))
            if resid < tol:
                break
        else:
            return None
        # integer_relations' rows are primitive: fix the sign only
        if next(c for c in coeffs if c) < 0:
            coeffs = [-c for c in coeffs]
        confidence = "NumericOnly"
        if elements is not None:
            combo = elements[0].scale(coeffs[0])
            for c, e in zip(coeffs[1:], elements[1:]):
                combo = combo + e.scale(c)
            if six_fold_normalize(combo).is_zero():
                confidence = "ExactInputVerified"
        return RelationReport(coefficients=tuple(coeffs), residual=resid,
                              confidence=confidence)


def per_root_values(element, precision=256):
    """``borel_regulator``'s values at every root of min_poly, in the
    deterministic all-roots order (real roots contribute zero); without a
    field it raises borel_regulator's DegenerateShape."""
    places = (embeddings(element.field, precision).all_roots()
              if element.field is not None else None)
    return borel_regulator(element, precision, places).values


def rank_witness(vectors, precision=256):
    """Numerical rank of the span of equal-length real vectors: the number
    of singular values above 2^(-precision/2) times the largest."""
    vecs = [v.values if isinstance(v, RegulatorVector) else list(v)
            for v in vectors]
    if not vecs or not vecs[0]:
        return 0
    with mp.workprec(precision + _GUARD):
        sv = mp.svd_r(mp.matrix(vecs), compute_uv=False)
        floor = max(sv) * mp.mpf(2) ** (-(precision // 2))
        return sum(1 for s in sv if s > floor)

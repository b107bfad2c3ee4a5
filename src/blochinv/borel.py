"""Borel regulator vectors and integer-relation detection between elements.

The regulator of an exact pre-Bloch element over a number field F is the
vector of D2 values at one embedding per conjugate pair.  Its kernel on the
Bloch group is exactly the torsion, so equality of regulator vectors decides
equality mod torsion -- up to the lattice-covolume caveat inherent in any
numerical verification, which callers see through the residual and the
NumericOnly confidence tag.

Galois conjugates are realized without splitting-field arithmetic: a
conjugate of an element is the same coefficient data evaluated at a
different root of the minimal polynomial.  The subgroup generated by all
conjugates is probed through the symmetric-group orbit of the per-root value
vector (exact for fields with full symmetric Galois group, an upper bound
otherwise), which reproduces the expected ranks: a conjugate family of d
vectors with vanishing sum spans d - 1 dimensions at most.
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple

import mpmath as mp

from .dilog import _GUARD, bloch_wigner, volume_of_prebloch  # noqa: F401 (re-export)
from .errors import DegenerateShape, DimensionMismatch
from .lattice import integer_relations
from .numfield import embeddings
from .prebloch import six_fold_normalize


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
        g = math.gcd(*coeffs)
        if next(c for c in coeffs if c) < 0:
            g = -g
        coeffs = [c // g for c in coeffs]
        confidence = "NumericOnly"
        if elements is not None:
            combo = None
            for c, e in zip(coeffs, elements):
                if e is None:
                    combo = None
                    break
                part = e.scale(c)
                combo = part if combo is None else combo + part
            if combo is not None and six_fold_normalize(combo).is_zero():
                confidence = "ExactInputVerified"
        return RelationReport(coefficients=tuple(coeffs), residual=resid,
                              confidence=confidence)


def per_root_values(element, precision=256):
    """D2 sums of an exact element at every root of min_poly, in the
    deterministic all-roots order (real roots contribute zero)."""
    if not element.is_exact() or element.field is None:
        raise DegenerateShape("needs exact generators over a field")
    es = embeddings(element.field, precision)
    return [volume_of_prebloch(element, embedding=r, precision=precision)
            for r in es.all_roots()]


def conjugate_family(element, precision=256):
    """Vectors realizing the Galois conjugates of an element.

    Conjugate k (evaluation at root k) maps to the vector indexed by
    permutations pi of the roots with entry W[pi(k)], W being the per-root
    value vector.  Spans of such vectors reproduce the regulator ranks of
    conjugate families when the Galois closure has full symmetric group.
    """
    W = per_root_values(element, precision)
    d = len(W)
    if d > 6:
        raise ValueError("degree %d conjugate family is too large" % d)
    perms = list(itertools.permutations(range(d)))
    return [[W[p[k]] for p in perms] for k in range(d)]


def rank_witness(vectors, precision=256):
    """Numerical rank of the span of equal-length real vectors.

    Gaussian elimination with full pivoting; a pivot counts while it exceeds
    2^(-precision/2) times the largest pivot.
    """
    vecs = [v.values if isinstance(v, RegulatorVector) else list(v)
            for v in vectors]
    if not vecs:
        return 0
    with mp.workprec(precision + _GUARD):
        A = [[mp.mpf(x) for x in row] for row in vecs]
        m, n = len(A), len(A[0])
        threshold = mp.mpf(2) ** (-(precision // 2))
        pivots = []
        r = 0
        cols = list(range(n))
        while r < m:
            piv = None
            best = mp.mpf(0)
            for i in range(r, m):
                for j in cols:
                    if abs(A[i][j]) > best:
                        best = abs(A[i][j])
                        piv = (i, j)
            if piv is None or best == 0:
                break
            i0, j0 = piv
            A[r], A[i0] = A[i0], A[r]
            pivots.append(best)
            for i in range(r + 1, m):
                f = A[i][j0] / A[r][j0]
                if f:
                    A[i] = [a - f * b for a, b in zip(A[i], A[r])]
            cols.remove(j0)
            r += 1
        if not pivots:
            return 0
        top = pivots[0]
        return sum(1 for p in pivots if p > threshold * top)

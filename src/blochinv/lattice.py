"""Exact integer number theory: LLL reduction, the Hermite normal form with
the integer and valuation kernels and the exact solvers built on it, and
numeric integer-relation search.

Everything here is small-matrix work (dimensions in the tens at most) on
Python ints.  LLL keeps its Gram-Schmidt data as integer Gram determinants;
``hnf_rows`` is the one exact elimination, and rational arithmetic remains
only in the back-substitution of ``solve_rational``.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

import mpmath as mp
from mpmath.libmp import (from_int, from_man_exp, mpf_lt, mpf_mul, mpf_nint,
                          mpf_pos, mpf_shift, mpf_sqrt, mpf_sum, round_nearest,
                          to_int)

# ---------------------------------------------------------------------------
# LLL

_LLL_DELTA = (3, 4)  # the Lovasz constant delta = p/q


def lll_reduce(basis):
    """LLL-reduce linearly independent integer row vectors; returns a new
    list of rows.

    Zero rows are discarded; any other linear dependence raises ValueError.
    Integral LLL (Cohen, GTM 138, Alg. 2.6.7): the Gram-Schmidt data are kept
    as the integers d[i] (Gram determinant of the first i rows, d[0] = 1, so
    |b*_i|^2 = d[i+1] / d[i]) and lam[k][j] = d[j+1] * mu[k][j].  The steps are the textbook rational ones:
    full size reduction of row k for j = k-1 down to 0 whenever |mu| > 1/2
    (nearest integer, halves away from zero), the Lovasz test for
    delta = 3/4, a swap, then k = max(k-1, 1).  Each test is the rational
    comparison multiplied through by positive d's, so the reduced basis is
    the same one the Fraction Gram-Schmidt algorithm returns.
    """
    b = [list(map(int, row)) for row in basis if any(row)]
    n = len(b)
    p, q = _LLL_DELTA
    d = [1] + [0] * n
    lam = [[0] * n for _ in range(n)]
    for k in range(n):
        for j in range(k + 1):
            u = sum(x * y for x, y in zip(b[k], b[j]))
            for i in range(j):
                u = (d[i + 1] * u - lam[k][i] * lam[j][i]) // d[i]
            if j < k:
                lam[k][j] = u
            elif u == 0:
                raise ValueError("lll_reduce needs linearly independent rows")
            else:
                d[k + 1] = u

    k = 1
    while k < n:
        lk = lam[k]
        for j in range(k - 1, -1, -1):
            if 2 * abs(lk[j]) > d[j + 1]:
                r = (2 * abs(lk[j]) + d[j + 1]) // (2 * d[j + 1])
                if lk[j] < 0:
                    r = -r
                b[k] = [x - r * y for x, y in zip(b[k], b[j])]
                lk[j] -= r * d[j + 1]
                lj = lam[j]
                for i in range(j):
                    lk[i] -= r * lj[i]
        lm = lk[k - 1]
        if q * d[k + 1] * d[k - 1] >= p * d[k] ** 2 - q * lm * lm:
            k += 1
            continue
        # swap rows k-1 and k; only d[k] and the lam entries of these
        # two rows and of their columns in later rows change
        b[k], b[k - 1] = b[k - 1], b[k]
        for j in range(k - 1):
            lk[j], lam[k - 1][j] = lam[k - 1][j], lk[j]
        B = (d[k - 1] * d[k + 1] + lm * lm) // d[k]
        for i in range(k + 1, n):
            li = lam[i]
            t = li[k]
            li[k] = (d[k + 1] * li[k - 1] - lm * t) // d[k]
            li[k - 1] = (B * t + lm * li[k]) // d[k + 1]
        d[k] = B
        k = max(k - 1, 1)
    return b


# ---------------------------------------------------------------------------
# Hermite form

def hnf_rows(mat):
    """Row-style Hermite normal form of an integer matrix (row space basis).

    Returns (H, U) with U unimodular and U @ mat == H; zero rows of H are
    kept at the bottom.  A non-integral entry raises TypeError.
    """
    A = [list(map(operator.index, row)) for row in mat]
    m = len(A)
    n = len(A[0]) if m else 0
    U = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    r = 0
    for c in range(n):
        piv = None
        for i in range(r, m):
            if A[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        A[r], A[piv] = A[piv], A[r]
        U[r], U[piv] = U[piv], U[r]
        # clear below by gcd steps
        for i in range(r + 1, m):
            while A[i][c] != 0:
                q = A[r][c] // A[i][c]
                A[r] = [a - q * bb for a, bb in zip(A[r], A[i])]
                U[r] = [a - q * bb for a, bb in zip(U[r], U[i])]
                A[r], A[i] = A[i], A[r]
                U[r], U[i] = U[i], U[r]
        if A[r][c] < 0:
            A[r] = [-a for a in A[r]]
            U[r] = [-a for a in U[r]]
        # reduce above
        for i in range(r):
            q = A[i][c] // A[r][c]
            if q:
                A[i] = [a - q * bb for a, bb in zip(A[i], A[r])]
                U[i] = [a - q * bb for a, bb in zip(U[i], U[r])]
        r += 1
        if r == m:
            break
    return A, U


def kernel_int(mat):
    """Basis of the integer kernel {x : x @ mat = 0} (left kernel), as rows."""
    H, U = hnf_rows(mat)
    return [U[i] for i, row in enumerate(H) if not any(row)]


def valuation_kernel(values):
    """Integer kernel {e : prod q_i^e_i = +-1} of nonzero rationals, as rows.

    The exponents are taken over a coprime base of the numerators and
    denominators, refined from them by gcds (Bach, Driscoll and Shallit,
    J. Algorithms 15, 1993): each of them is a product of powers of the
    base, whose members have disjoint prime supports, so the kernel is that
    of the prime-exponent vectors.
    """
    qs = [Fraction(q) for q in values]
    base = set()
    pending = list({n for q in qs for n in (abs(q.numerator), q.denominator)
                    if n > 1})
    while pending:
        a = pending.pop()
        b = next((b for b in base if math.gcd(a, b) > 1), None)
        if b is None:
            base.add(a)
        else:
            g = math.gcd(a, b)
            base.remove(b)
            pending += [c for c in (g, a // g, b // g) if c > 1]
    base = sorted(base)
    return kernel_int([[_valuation(q.numerator, p)
                        - _valuation(q.denominator, p) for p in base]
                       for q in qs])


def _valuation(n, p):
    """The exponent of p > 1 in the nonzero integer n."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


# ---------------------------------------------------------------------------
# exact rational solving

def solve_rational(mat, rhs):
    """One exact solution of mat @ x = rhs over Q, or None if inconsistent.

    mat: integer rows; rhs: integer vector (else TypeError).
    Back-substitution over Fractions through the row Hermite form of
    [mat | rhs]; non-pivot variables are 0.
    """
    n = len(mat[0]) if mat else 0
    H, _ = hnf_rows([list(row) + [b] for row, b in zip(mat, rhs)])
    rows = [row for row in H if any(row)]
    pivots = [next(c for c, a in enumerate(row) if a) for row in rows]
    if pivots and pivots[-1] == n:
        return None  # a pivot in the rhs column: 0 = nonzero
    x = [Fraction(0)] * n
    for row, c in zip(reversed(rows), reversed(pivots)):
        x[c] = Fraction(row[n] - sum(a * x[j] for j, a in
                                     enumerate(row[c + 1:n], c + 1)), row[c])
    return x


def solve_integer(mat, rhs):
    """One integer solution of mat @ x = rhs, or None when none exists.

    Back-substitution through one column Hermite form of mat, whose entries
    must be integers (else TypeError); a non-integral rhs has no solution.
    """
    A = [list(map(operator.index, row)) for row in mat]
    m = len(A)
    n = len(A[0]) if m else 0
    b = [int(r) for r in rhs]
    if any(a != r for a, r in zip(b, rhs)):
        return None  # a non-integral right-hand side
    # Column HNF via the transpose: U @ mat^T = H, so mat @ U^T = H^T, whose
    # columns (= rows of H) are in echelon form with pivots moving down.
    H, U = hnf_rows([[A[i][j] for i in range(m)] for j in range(n)])
    rem = b
    y = [0] * n
    for j in range(n):
        col = H[j]  # column j of mat @ U^T, length m
        piv = next((i for i, v in enumerate(col) if v != 0), None)
        if piv is None:
            continue
        y[j], r = divmod(rem[piv], col[piv])
        if r:
            return None
        rem = [rem[i] - y[j] * col[i] for i in range(m)]
    if any(r != 0 for r in rem):
        return None
    x = [sum(U[j][i] * y[j] for j in range(n)) for i in range(n)]
    for i in range(m):
        if sum(A[i][j] * x[j] for j in range(n)) != b[i]:
            return None
    return x


# ---------------------------------------------------------------------------
# numeric integer relations

def integer_relations(vectors, precision, max_coeff=None):
    """Integer relation candidates for a list of real vectors.

    Searches for integer rows e with sum_i e_i * vectors[i] numerically zero,
    by LLL on [I | K * vectors] with K = 2^(precision/2).  Returns candidate
    rows sorted by coefficient size; the caller must verify them exactly.
    """
    n = len(vectors)
    if n == 0:
        return []
    # raw libmp throughout, with the bits of the mpf expressions
    # int(mp.nint(K * mp.mpf(x))) and mp.sqrt(mp.fsum([mp.mpf(t) ** 2 ...]))
    # at working precision wp
    wp = precision + 32
    rnd = round_nearest
    half = precision // 2
    rows = []
    for i, v in enumerate(vectors):
        tail = [to_int(mpf_nint(mpf_shift(
            mpf_pos(mp.mpf.mpf_convert_arg(x, wp, rnd), wp, rnd), half)))
            for x in v]
        rows.append([1 if j == i else 0 for j in range(n)] + tail)
    red = lll_reduce(rows)
    out = []
    thresh = from_man_exp(1, half - precision // 4)
    for row in red:
        # a basis row of {(c, T c)}: its c is primitive and nonzero
        coeffs = row[:n]
        tail = [from_int(t, wp, rnd) for t in row[n:]]
        tail_norm = mpf_sqrt(mpf_sum([mpf_mul(t, t, wp, rnd) for t in tail],
                                     wp, rnd), wp, rnd)
        if mpf_lt(tail_norm, thresh):
            if max_coeff is None or max(abs(c) for c in coeffs) <= max_coeff:
                out.append(list(coeffs))
    out.sort(key=lambda r: max(abs(c) for c in r))
    return out

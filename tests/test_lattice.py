import itertools
import math
import random
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from blochinv.lattice import (hnf_rows, integer_relations, kernel_int,
                              lll_reduce, solve_integer, solve_rational,
                              valuation_kernel)


def rank_int(mat):
    """Rank of an integer matrix: the nonzero rows of its Hermite form."""
    H, _ = hnf_rows(mat)
    return sum(1 for row in H if any(row))


def test_lll_finds_short_vector():
    # planted relation: 3*a - 2*b = 0 for a=(2,4), b=(3,6)
    rows = [[1, 0, 200, 400], [0, 1, 300, 600]]
    red = lll_reduce(rows)
    assert any(r[:2] in ([3, -2], [-3, 2]) for r in red)


def test_lll_preserves_lattice_rank():
    rng = random.Random(5)
    rows = [[rng.randint(-9, 9) for _ in range(5)] for _ in range(4)]
    red = lll_reduce(rows)
    assert rank_int(red) == rank_int(rows)


# Bases pinned from the rational Gram-Schmidt LLL that preceded the integral
# one; the 8 x 11 case is an [I | K*v] search from a five-term wedge over the
# cubic field x^3 - x + 1 at 256 bits.
@pytest.mark.parametrize("rows,reduced", [
    ([[1, 0, 1031, -2718], [0, 1, -1414, 3141]],
     [[1, 1, -383, 423], [6, 5, -884, -603]]),
    # mu = 1/2 exactly, and the Lovasz test holds with equality: no step
    ([[2, 0, 0], [1, 1, 1]], [[2, 0, 0], [1, 1, 1]]),
    # mu = +-5/2 rounds away from zero
    ([[2, 0, 0, 0], [5, 1, 1, 1]], [[2, 0, 0, 0], [-1, 1, 1, 1]]),
    ([[2, 0, 0, 0], [-5, 1, 1, 1]], [[2, 0, 0, 0], [1, 1, 1, 1]])])
def test_lll_golden_small(rows, reduced):
    assert lll_reduce(rows) == reduced


_K1 = 191374513455555618324785944810916256126
_K2 = 95687256727777809162392972405458128063
_K3 = 590007841304877393824178976623794260137
_K4 = 669810797094444664136750806838206896441
_K5 = 334905398547222332068375403419103448221
_K6 = 461484568469620756595105858440473735530
_K7 = 178171430677494457976613395526978463883


def test_lll_golden_wedge_8x11():
    tails = [[-_K1, _K2, _K3], [0, 0, 0], [_K4, -_K5, -_K6], [_K1, -_K2, -_K3],
             [_K1, -_K2, -_K3], [-_K1, _K2, _K3], [_K4, -_K5, -_K6],
             [0, 0, _K7]]
    rows = [[int(i == j) for j in range(8)] + t for i, t in enumerate(tails)]
    assert lll_reduce(rows) == [
        [0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0],
        [1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0],
        [1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0],
        [-1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0],
        [0, 0, -1, 0, 0, 0, 1, 0, 0, 0, 0],
        [-1, 0, -1, 2, 2, -2, -1, 18, 0, 1, -5],
        [1703341333655785860335059024976799155, 0,
         973337904946163348762890871415313803,
         -1703341333655785860335059024976799154,
         -1703341333655785860335059024976799155,
         1703341333655785860335059024976799154,
         973337904946163348762890871415313802,
         -17520082289030940277732035685475648447, -_K2,
         46870290458942741232433595331313750229,
         -56472251177819402297322848384983228685],
        [-2576686170607979430798413070729615559, 0,
         -1472392097490273960456236040416923176,
         2576686170607979430798413070729615558,
         2576686170607979430798413070729615559,
         -2576686170607979430798413070729615559,
         -1472392097490273960456236040416923177,
         26503057754824931288212248727504617176, -_K2,
         49316020461379178541652722243145987208,
         109470529487492869133194912582834050303]]


def _gram_schmidt(rows):
    """Rational Gram-Schmidt: (mu, squared norms of the b*)."""
    def dot(u, v):
        return sum(Fraction(x) * y for x, y in zip(u, v))

    star, norms = [], []
    mu = [[Fraction(0)] * len(rows) for _ in rows]
    for i, row in enumerate(rows):
        v = [Fraction(x) for x in row]
        for j in range(i):
            mu[i][j] = dot(row, star[j]) / norms[j]
            v = [a - mu[i][j] * c for a, c in zip(v, star[j])]
        star.append(v)
        norms.append(dot(v, v))
    return mu, norms


def _fraction_lll(rows, delta=Fraction(3, 4)):
    """Reference: textbook LLL with Gram-Schmidt recomputed over Q each step."""
    b = [list(row) for row in rows]
    k = 1
    while k < len(b):
        for j in range(k - 1, -1, -1):
            m = _gram_schmidt(b)[0][k][j]
            if abs(m) > Fraction(1, 2):
                r = math.floor(abs(m) + Fraction(1, 2)) * (1 if m > 0 else -1)
                b[k] = [x - r * y for x, y in zip(b[k], b[j])]
        mu, norms = _gram_schmidt(b)
        if norms[k] >= (delta - mu[k][k - 1] ** 2) * norms[k - 1]:
            k += 1
        else:
            b[k - 1], b[k] = b[k], b[k - 1]
            k = max(k - 1, 1)
    return b


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.lists(
    st.lists(st.integers(-60, 60), min_size=n + 2, max_size=n + 2),
    min_size=n, max_size=n)))
def test_lll_matches_rational_reference(rows):
    assume(rank_int(rows) == len(rows))
    red = lll_reduce(rows)
    assert red == _fraction_lll(rows)
    assert hnf_rows(red)[0] == hnf_rows(rows)[0]
    mu, norms = _gram_schmidt(red)
    for k in range(len(red)):
        assert all(abs(mu[k][j]) <= Fraction(1, 2) for j in range(k))
        if k:
            assert norms[k] >= (Fraction(3, 4) - mu[k][k - 1] ** 2) * norms[k - 1]


@pytest.mark.parametrize("rows", [[[1, 2, 3], [2, 4, 6]],
                                  [[1, 0], [0, 1], [1, 1]],
                                  [[3, 1, 4, 1], [0, 0, 0, 0], [6, 2, 8, 2]]])
def test_lll_rejects_dependent_rows(rows):
    with pytest.raises(ValueError):
        lll_reduce(rows)


def test_hnf_row_space():
    A = [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]
    H, U = hnf_rows(A)
    # U @ A == H
    for i in range(3):
        for j in range(3):
            assert sum(U[i][k] * A[k][j] for k in range(3)) == H[i][j]


def test_kernel_int():
    A = [[1, 1], [2, 2], [3, 3]]
    ker = kernel_int(A)
    assert rank_int(ker) == 2
    for row in ker:
        assert all(sum(row[i] * A[i][j] for i in range(3)) == 0 for j in range(2))


def _det(mat):
    """Determinant of a square integer matrix, by Bareiss elimination."""
    A = [list(row) for row in mat]
    n, sign, prev = len(A), 1, 1
    for k in range(n - 1):
        piv = next((i for i in range(k, n) if A[i][k]), None)
        if piv is None:
            return 0
        if piv != k:
            A[k], A[piv], sign = A[piv], A[k], -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                A[i][j] = (A[i][j] * A[k][k] - A[i][k] * A[k][j]) // prev
        prev = A[k][k]
    return sign * A[-1][-1] if n else 1


def _projection(rels, m):
    """The wedge's projection: the integer kernel of the relations as columns."""
    return kernel_int([[r[i] for r in rels] for i in range(m)])


def test_snf_projection_free_rank():
    # relations (2,0,0) and (0,3,3): quotient Z^3/R = Z/2 + Z/3 + Z
    rels = [[2, 0, 0], [0, 3, 3]]
    proj = _projection(rels, 3)
    assert len(proj) == 1
    for rel in rels:
        assert sum(proj[0][i] * rel[i] for i in range(3)) == 0
    # onto Z: the entries of the one row have gcd 1
    assert math.gcd(*proj[0]) == 1
    # the kernel of proj is the saturation of R, and R has index
    # 2 * 3 = 6 in it: the ratio of the gcds of their 2 x 2 minors
    sat = kernel_int([[x] for x in proj[0]])
    assert all(sum(a * b for a, b in zip(proj[0], x)) == 0 for x in sat)

    def minors(rows):
        return math.gcd(*(_det([[row[c] for c in cols] for row in rows])
                          for cols in itertools.combinations(range(3), 2)))

    assert len(sat) == 2 and minors(rels) == 6 * minors(sat)


def test_snf_projection_annihilates_relations():
    rng = random.Random(1)
    for _ in range(20):
        m = rng.randint(2, 5)
        k = rng.randint(1, m)
        rels = [[rng.randint(-4, 4) for _ in range(m)] for _ in range(k)]
        for rel in rels:
            for p in _projection(rels, m):
                assert sum(p[i] * rel[i] for i in range(m)) == 0


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 8).flatmap(lambda m: st.lists(
    st.lists(st.integers(-6, 6), min_size=m, max_size=m), max_size=m + 1)
    .map(lambda rels: (m, rels))))
@example((3, [[2, 0, 0], [0, 3, 3]]))
@example((4, [[1, 2, 0, -1], [2, 4, 0, -2], [0, 0, 0, 0]]))
def test_wedge_projection(case):
    # the wedge's free quotient: the integer kernel of the relations taken
    # as columns.  Its rows kill every relation, number m - rank, and their
    # f x f minors have gcd 1, so x -> proj x maps Z^m onto Z^f
    m, rels = case
    proj = _projection(rels, m)
    for p in proj:
        assert all(sum(a * b for a, b in zip(p, r)) == 0 for r in rels)
    f = len(proj)
    assert f == m - rank_int(rels)
    minors = [_det([[row[c] for c in cols] for row in proj])
              for cols in itertools.combinations(range(m), f)]
    assert math.gcd(*minors) == 1


# small primes and Mersenne primes of 31 to 127 bits
_PRIMES = (2, 3, 5, 7, 11, 13, 2 ** 31 - 1, 2 ** 61 - 1, 2 ** 89 - 1,
           2 ** 107 - 1, 2 ** 127 - 1)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.booleans(), st.lists(
    st.integers(-2, 2), min_size=len(_PRIMES), max_size=len(_PRIMES))),
    min_size=1, max_size=5))
def test_valuation_kernel_matches_prime_exponents(rows):
    # the numerators and denominators enter a coprime base by gcd
    # refinement; the kernel is the one of their true prime exponents
    values = [(-1) ** neg * math.prod(Fraction(p) ** e
                                      for p, e in zip(_PRIMES, exps))
              for neg, exps in rows]

    def lattice(basis):
        return [row for row in hnf_rows(basis)[0] if any(row)]

    assert lattice(valuation_kernel(values)) == lattice(
        kernel_int([exps for _, exps in rows]))


def _gauss_jordan(mat, rhs):
    """Reference: Fraction Gauss-Jordan elimination, free variables 0."""
    m = len(mat)
    n = len(mat[0]) if m else 0
    A = [[Fraction(x) for x in row] + [Fraction(rhs[i])]
         for i, row in enumerate(mat)]
    piv_cols = []
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, m) if A[i][c] != 0), None)
        if piv is None:
            continue
        A[r], A[piv] = A[piv], A[r]
        A[r] = [a / A[r][c] for a in A[r]]
        for i in range(m):
            if i != r and A[i][c] != 0:
                f = A[i][c]
                A[i] = [a - f * b for a, b in zip(A[i], A[r])]
        piv_cols.append(c)
        r += 1
        if r == m:
            break
    if any(A[i][n] != 0 for i in range(r, m)):
        return None
    x = [Fraction(0)] * n
    for i, c in enumerate(piv_cols):
        x[c] = A[i][n]
    return x


def test_non_integral_entries_raise():
    # entries are read with operator.index: a Fraction is not truncated
    with pytest.raises(TypeError):
        hnf_rows([[Fraction(1, 2)]])
    with pytest.raises(TypeError):
        solve_rational([[Fraction(1, 2)]], [1])
    with pytest.raises(TypeError):
        solve_integer([[Fraction(1, 2)]], [1])


def test_solve_rational():
    A = [[2, 1], [1, -1]]
    x = solve_rational(A, [5, 1])
    assert x == [Fraction(2), Fraction(1)]
    assert solve_rational([[1, 1], [1, 1]], [0, 1]) is None


@st.composite
def _systems(draw):
    """An integer system (mat, rhs, kind): full rank, rank deficient (rows
    combined from fewer rows, rhs in the column span), or inconsistent (a
    deficient system with a combined row whose rhs is off by a nonzero
    amount)."""
    kind = draw(st.sampled_from(["full", "deficient", "inconsistent"]))
    n = draw(st.integers(1, 5))
    entries = st.integers(-5, 5)
    k = n if kind == "full" else draw(st.integers(0, n - 1))
    base = draw(st.lists(st.lists(entries, min_size=n, max_size=n),
                         min_size=k, max_size=k))
    if kind == "full":
        assume(rank_int(base) == n)
        mat = base
    else:
        mix = draw(st.lists(st.lists(entries, min_size=k, max_size=k),
                            min_size=1, max_size=5))
        mat = [[sum(c * row[j] for c, row in zip(cs, base)) for j in range(n)]
               for cs in mix]
    x0 = draw(st.lists(entries, min_size=n, max_size=n))
    rhs = [sum(a * x for a, x in zip(row, x0)) for row in mat]
    if kind == "inconsistent":
        cs = draw(st.lists(entries, min_size=len(mat), max_size=len(mat)))
        mat = mat + [[sum(c * row[j] for c, row in zip(cs, mat))
                      for j in range(n)]]
        rhs = rhs + [sum(c * b for c, b in zip(cs, rhs))
                     + draw(entries.filter(bool))]
    return mat, rhs, kind


@settings(max_examples=150, deadline=None)
@given(_systems())
def test_solve_rational_matches_gauss_jordan(system):
    # the Hermite back-substitution returns the very Fractions of the
    # Gauss-Jordan reference: the pivot columns and the solution with the
    # free variables at 0 do not depend on the echelon form
    mat, rhs, kind = system
    x = solve_rational(mat, rhs)
    assert x == _gauss_jordan(mat, rhs)
    assert (x is None) == (kind == "inconsistent")
    if x is not None:
        assert [sum(a * b for a, b in zip(row, x)) for row in mat] == rhs


def test_solve_integer():
    A = [[2, 0], [0, 3]]
    assert solve_integer(A, [4, 9]) == [2, 3]
    assert solve_integer(A, [1, 0]) is None
    # underdetermined with integer solution
    x = solve_integer([[2, 3]], [1])
    assert x is not None and 2 * x[0] + 3 * x[1] == 1



def test_solve_integer_non_integral_rhs():
    # solve_flattening falls back to solve_rational on None
    assert solve_integer([[1, 0], [0, 1]], [Fraction(1, 2), 1]) is None
    assert solve_integer([[2, 3]], [Fraction(4, 1)]) is not None
    assert solve_integer([[2, 0], [0, 3]], [Fraction(4), Fraction(9)]) == [2, 3]

def _unimodular_rows(rng, f, n):
    """The first f rows of a random n x n unimodular integer matrix."""
    U = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(2 * n):
        i, j = rng.sample(range(n), 2)
        q = rng.randint(-2, 2)
        U[i] = [a + q * b for a, b in zip(U[i], U[j])]
    rng.shuffle(U)
    return U[:f]


@pytest.mark.parametrize("seed", range(8))
def test_solve_integer_columns_matches_solve_integer(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 6)
    f = rng.randint(1, n)
    proj = _unimodular_rows(rng, f, n)
    rhs_list = [[int(a == b) for b in range(f)] for a in range(f)]
    rhs_list += [[rng.randint(-9, 9) for _ in range(f)] for _ in range(3)]
    # a unimodular proj maps onto Z^f; a scaled row has no integer preimage
    # of an odd entry
    scaled = [[2 * a for a in proj[0]]] + proj[1:]
    for mat in (proj, scaled):
        for rhs in rhs_list:
            x = solve_integer(mat, rhs)
            assert x is None or [sum(a * b for a, b in zip(row, x))
                                 for row in mat] == rhs
    assert None not in [solve_integer(proj, rhs) for rhs in rhs_list]
    assert solve_integer(scaled, rhs_list[0]) is None


def test_integer_relations_numeric():
    prec = 192
    with mp.workprec(prec + 32):
        v1 = [mp.log(2), mp.log(3)]
        v2 = [mp.log(4), mp.log(9)]
        rels = integer_relations([v1, v2], prec)
    assert any(r in ([2, -1], [-2, 1]) for r in rels)


def test_integer_relations_none_for_independent():
    prec = 128
    with mp.workprec(prec + 32):
        v1 = [mp.log(2)]
        v2 = [mp.log(3)]
        rels = integer_relations([v1, v2], prec, max_coeff=50)
    for r in rels:
        # any surviving candidate must actually be a relation; none should be
        assert not (abs(r[0]) <= 50 and abs(r[1]) <= 50) or \
            abs(r[0] * mp.log(2) + r[1] * mp.log(3)) > 1e-20


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.integers(0, 2 ** 32),
       st.sampled_from([128, 256]), st.data())
def test_integer_relations_rows_primitive(n, k, seed, prec, data):
    # each candidate is a row of an LLL basis of {(c, T c)}, so its
    # coefficients are nonzero and primitive: callers divide by no gcd
    rng = random.Random(seed)
    with mp.workprec(prec + 64):
        vectors = [[mp.mpf(rng.uniform(-1, 1)) for _ in range(n)]
                   for _ in range(k)]
        for coeffs in data.draw(st.lists(st.lists(st.integers(-4, 4),
                                                  min_size=k, max_size=k),
                                         max_size=3)):
            vectors.append([mp.fsum(c * v[j] for c, v in zip(coeffs, vectors))
                            for j in range(n)])
    for row in integer_relations(vectors, prec):
        assert math.gcd(*row) == 1, row


# integer_relations on raw libmp against the mpf expressions it replaces

def _scaled_entries_mpf(v, prec):
    with mp.workprec(prec + 32):
        K = mp.mpf(2) ** (prec // 2)
        return [int(mp.nint(K * mp.mpf(x))) for x in v]


def _tail_is_short_mpf(tail, prec):
    with mp.workprec(prec + 32):
        thresh = mp.mpf(2) ** (prec // 2 - prec // 4)
        return mp.sqrt(mp.fsum([mp.mpf(t) ** 2 for t in tail])) < thresh


@st.composite
def _search_entry(draw, prec):
    """An entry as integer_relations receives it: an mpf at another
    precision, an int, a 2 pi / M ambiguity entry, or an x whose
    2^(prec/2) x is at or next to a half-integer tie, before or after
    rounding to prec + 32 bits."""
    from mpmath.libmp import from_man_exp
    from blochinv.prebloch import _possible_unity_orders
    half, wp = prec // 2, prec + 32
    kind = draw(st.sampled_from(["mpf", "int", "ambiguity", "tie", "near"]))
    if kind == "mpf":
        bits = draw(st.integers(1, 2 * wp))
        man = draw(st.integers(-(2 ** bits), 2 ** bits))
        exp = -bits + draw(st.integers(-half - 4, 64))
        return mp.make_mpf(from_man_exp(man, exp))
    if kind == "int":
        return draw(st.integers(-(2 ** (2 * wp)), 2 ** (2 * wp)))
    if kind == "ambiguity":
        order = math.lcm(*_possible_unity_orders(draw(st.integers(1, 4))))
        with mp.workprec(wp):
            return 2 * mp.pi / order
    m = draw(st.integers(-(2 ** (wp - 2)), 2 ** (wp - 2)))
    if kind == "tie":
        return mp.make_mpf(from_man_exp(2 * m + 1, -half - 1))
    # K x within a few ulps of a tie after x is rounded to wp bits
    extra = draw(st.integers(1, 12))
    man = ((2 * m + 1) << extra) + draw(st.integers(-3, 3))
    return mp.make_mpf(from_man_exp(man, -half - 1 - extra))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([128, 256, 512]).flatmap(
    lambda p: st.tuples(st.just(p), st.lists(_search_entry(p), min_size=1,
                                             max_size=6))))
def test_integer_relations_entries_match_mpf(case):
    from unittest import mock
    from blochinv import lattice
    prec, v = case
    seen = []
    with mock.patch.object(lattice, "lll_reduce",
                           lambda rows: seen.extend(rows) or []):
        integer_relations([v], prec)
    assert seen == [[1] + _scaled_entries_mpf(v, prec)]


@st.composite
def _tail(draw, prec):
    """An integer tail whose norm is at most a few units from the threshold
    2^(prec/2 - prec/4), or one with entries wider than the working
    precision."""
    h, wp = prec // 2 - prec // 4, prec + 32
    kind = draw(st.sampled_from(["one", "two", "wide"]))
    if kind == "one":
        tail = [2 ** h + draw(st.integers(-3, 3))]
    elif kind == "two":
        t0 = draw(st.integers(0, 2 ** h))
        tail = [t0, math.isqrt(4 ** h - t0 * t0) + draw(st.integers(-1, 2))]
    else:
        tail = draw(st.lists(st.integers(-(2 ** (2 * wp)), 2 ** (2 * wp)),
                             min_size=1, max_size=4))
    tail += [0] * draw(st.integers(0, 2))
    return [draw(st.sampled_from([1, -1])) * t for t in tail]


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([128, 256, 512]).flatmap(
    lambda p: st.tuples(st.just(p), st.lists(_tail(p), min_size=1,
                                             max_size=5))))
def test_integer_relations_tail_test_matches_mpf(case):
    from unittest import mock
    from blochinv import lattice
    prec, tails = case
    rows = [[i + 1] + t for i, t in enumerate(tails)]
    with mock.patch.object(lattice, "lll_reduce", lambda _: rows):
        found = integer_relations([[0]], prec)
    assert found == [[i + 1] for i, t in enumerate(tails)
                     if _tail_is_short_mpf(t, prec)]

import math
import os
import pathlib
import random
import subprocess
import sys
from fractions import Fraction

import mpmath as mp

import blochinv
from blochinv.lattice import (factorint, hnf_rows, integer_relations,
                              kernel_int, lll_reduce, rank_int,
                              snf_with_projection, solve_integer,
                              solve_rational)


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


def test_snf_projection_free_rank():
    # relations (2,0,0) and (0,3,3): quotient Z^3/R = Z/2 + Z/3 + Z
    diag, proj = snf_with_projection([[2, 0, 0], [0, 3, 3]], 3)
    assert sorted(diag) == [2, 3]
    assert len(proj) == 1
    # proj must kill the relations
    for rel in ([2, 0, 0], [0, 3, 3]):
        assert sum(proj[0][i] * rel[i] for i in range(3)) % 1 == 0
    # the free coordinate of (0,1,-1) spans the free part:
    # check projection is surjective onto Z (gcd of proj entries is 1)
    from math import gcd
    g = 0
    for x in proj[0]:
        g = gcd(g, x)
    assert g == 1


def test_snf_projection_annihilates_relations():
    rng = random.Random(1)
    for _ in range(20):
        m = rng.randint(2, 5)
        k = rng.randint(1, m)
        rels = [[rng.randint(-4, 4) for _ in range(m)] for _ in range(k)]
        diag, proj = snf_with_projection(rels, m)
        for rel in rels:
            for p in proj:
                assert sum(p[i] * rel[i] for i in range(m)) == 0


def test_solve_rational():
    A = [[2, 1], [1, -1]]
    x = solve_rational(A, [5, 1])
    assert x == [Fraction(2), Fraction(1)]
    assert solve_rational([[1, 1], [1, 1]], [0, 1]) is None


def test_solve_integer():
    A = [[2, 0], [0, 3]]
    assert solve_integer(A, [4, 9]) == [2, 3]
    assert solve_integer(A, [1, 0]) is None
    # underdetermined with integer solution
    x = solve_integer([[2, 3]], [1])
    assert x is not None and 2 * x[0] + 3 * x[1] == 1


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


def _is_prime_by_trial(p):
    return p > 1 and all(p % d for d in range(2, math.isqrt(p) + 1))


def test_factorint_small_range():
    for n in range(1, 5001):
        fac = factorint(n)
        assert list(fac) == sorted(fac)
        assert all(_is_prime_by_trial(p) and e > 0 for p, e in fac.items())
        assert math.prod(p ** e for p, e in fac.items()) == n


def test_factorint_large_inputs():
    assert factorint((2 ** 61 - 1) * (2 ** 31 - 1)) == {2 ** 31 - 1: 1,
                                                       2 ** 61 - 1: 1}
    assert factorint(1000003 ** 2 * 999983) == {999983: 1, 1000003: 2}
    assert factorint(3 ** 40) == {3: 40}
    assert factorint(2 ** 64) == {2: 64}
    assert factorint((2 ** 89 - 1) ** 2) == {2 ** 89 - 1: 2}


def test_cli_import_leaves_out_sympy():
    src = str(pathlib.Path(blochinv.__file__).resolve().parents[1])
    code = "import blochinv.cli, sys; assert 'sympy' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], check=True,
                   env={**os.environ, "PYTHONPATH": src})

import importlib.resources
import math
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings, strategies as st

from blochinv.chern_simons import (cs_formula, rationalize_mod_pi2,
                                   rho_of_cs, solve_flattening)
from blochinv.dilog import bloch_wigner
from blochinv.errors import Inconsistent
from blochinv.lattice import kernel_int
from blochinv.surgery import filled_system, newton_solve, solution_volume
from blochinv.triang import parse_triangulation

PREC = 256


@pytest.fixture(scope="module")
def fig8():
    text = importlib.resources.files("blochinv").joinpath(
        "fixtures/figure_eight.tri").read_text()
    return parse_triangulation(text, precision=320)


@pytest.fixture(scope="module")
def ex3():
    text = importlib.resources.files("blochinv").joinpath(
        "fixtures/example3.tri").read_text()
    return parse_triangulation(text, precision=320)


def test_solve_flattening_zero_rhs(fig8):
    sol = solve_flattening(fig8.U, [0, 0, 0, 0])
    assert sol.integral
    assert all(v == 0 for v in sol.c)


def test_solve_flattening_fig8(fig8):
    sol = solve_flattening(fig8.U, fig8.d)
    # exact verification is the oracle
    for row, dd in zip(fig8.U, fig8.d):
        assert sum(Fraction(row[k]) * sol.c[k] for k in range(4)) == dd
    assert sol.integral  # integral solutions exist for this system


def test_solve_flattening_inconsistent(fig8):
    # d outside the column span: the edge rows are opposite, so demanding
    # different values on them is inconsistent
    bad = [1, 1, fig8.d[2], fig8.d[3]]
    with pytest.raises(Inconsistent):
        solve_flattening(fig8.U, bad)


def test_cs_real_part_is_volume(fig8):
    sol = solve_flattening(fig8.U, fig8.d)
    with mp.workprec(PREC + 16):
        exact = [mp.exp(mp.mpc(0, mp.pi / 3))] * 2
    res = cs_formula(exact, [0], sol, precision=PREC)
    with mp.workprec(PREC + 16):
        vol = sum(bloch_wigner(z, PREC) for z in exact)
        assert abs(res.vol - vol) < mp.mpf(2) ** (-PREC + 20)
        assert res.value.real == res.vol
    # fixture shapes carry 64 decimal digits; the identity holds to that input
    zs = fig8.numeric_shapes(PREC)
    res2 = cs_formula(zs, [0], sol, precision=PREC)
    with mp.workprec(PREC + 16):
        vol2 = sum(bloch_wigner(z, PREC) for z in zs)
        assert abs(res2.vol - vol2) < mp.mpf(10) ** -60


def test_cs_real_part_is_volume_ex3(ex3):
    sol = solve_flattening(ex3.U, ex3.d)
    zs = ex3.numeric_shapes(PREC)
    res = cs_formula(zs, [], sol, precision=PREC)
    with mp.workprec(PREC + 16):
        vol = sum(bloch_wigner(z, PREC) for z in zs)
        assert abs(res.vol - vol) < mp.mpf(2) ** (-PREC + 20)


def test_cs_flat_input_gives_zero_volume():
    shapes = [mp.mpf("0.25"), mp.mpf("0.75")]
    res = cs_formula(shapes, [], [Fraction(0)] * 4, precision=128)
    assert res.vol == 0


def test_kernel_shift_changes_by_rational_pi2(fig8):
    prec = PREC
    sol = solve_flattening(fig8.U, fig8.d)
    zs = fig8.numeric_shapes(prec)
    base = cs_formula(zs, [0], sol, precision=prec)
    kern = kernel_int([[fig8.U[i][k] for i in range(4)] for k in range(4)])
    # kernel of U acting on c-vectors: rows k with U k = 0
    kern = [k for k in kern if any(k)]
    assert kern
    with mp.workprec(prec + 16):
        for kv in kern[:3]:
            shifted = [sol.c[i] + kv[i] for i in range(4)]
            res = cs_formula(zs, [0], shifted, precision=prec)
            diff = res.value - base.value
            assert abs(mp.re(diff)) < mp.mpf(10) ** -60
            q = rationalize_mod_pi2(mp.im(diff), max_denominator=120,
                                    precision=prec)
            assert q is not None, kv


def test_rho_of_beta_volume_part(ex3):
    prec = PREC
    zs = ex3.numeric_shapes(prec)
    sol = solve_flattening(ex3.U, ex3.d)
    r = rho_of_cs(cs_formula(zs, [], sol, prec), prec)
    with mp.workprec(prec + 16):
        vol = sum(bloch_wigner(z, prec) for z in zs)
        # Im(2 pi^2 rho) = vol
        assert abs(2 * mp.pi ** 2 * mp.im(r) - vol) < mp.mpf(2) ** (-prec + 24)
        ref = mp.mpf("1.831931188354438030109207029864768221548298748563344268534")
        assert abs(2 * mp.pi ** 2 * mp.im(r) - ref) < mp.mpf(10) ** -50


def test_ex3_cs_representative_is_rational(ex3):
    # quadratic-extension-of-totally-real trace field: CS rational mod pi^2 Q
    prec = PREC
    zs = ex3.numeric_shapes(prec)
    sol = solve_flattening(ex3.U, ex3.d)
    res = cs_formula(zs, [], sol, precision=prec)
    q = rationalize_mod_pi2(res.cs_mod_rational, 120, prec)
    assert q == Fraction(-1, 6)


def test_ex3_kernel_shift_quarter(ex3):
    prec = PREC
    zs = ex3.numeric_shapes(prec)
    sol = solve_flattening(ex3.U, ex3.d)
    base = cs_formula(zs, [], sol, precision=prec)
    kern = kernel_int([[ex3.U[i][k] for i in range(3)] for k in range(6)])
    assert len(kern) == 3
    with mp.workprec(prec + 16):
        for kv in kern:
            shifted = [sol.c[i] + kv[i] for i in range(6)]
            res = cs_formula(zs, [], shifted, precision=prec)
            diff = res.value - base.value
            assert abs(mp.re(diff)) < mp.mpf(2) ** (-prec + 24)
            q = rationalize_mod_pi2(mp.im(diff), 120, prec)
            assert q is not None and q != 0


def test_rho_totally_flat_real_mod_q():
    shapes = [mp.mpf("0.3")]
    r = rho_of_cs(cs_formula(shapes, [], [Fraction(0)] * 2, 128), 128)
    assert abs(mp.im(r)) < mp.mpf(2) ** -100


def test_rationalize_11_48():
    with mp.workprec(300):
        x = mp.pi ** 2 * mp.mpf(11) / 48
        assert rationalize_mod_pi2(x, 120, 256) == Fraction(11, 48)
        assert rationalize_mod_pi2(mp.mpf(0), 120, 256) == 0


def test_rationalize_weeks_eta_not_found():
    # 2 * (3/2) eta of the smallest closed manifold: no small rational
    with mp.workprec(300):
        x = mp.pi ** 2 * 2 * mp.mpf(
            "0.060043066678727155012132615144817756316780200913123686")
        assert rationalize_mod_pi2(x, 10 ** 6, 256) is None


_SLOPES = [(p, q) for q in range(1, 7) for p in range(-12, 13)
           if math.gcd(p, q) == 1 and not (q == 1 and abs(p) <= 4)]


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(_SLOPES), st.sampled_from([64, 128, 256]))
def test_cs_formula_precision_doubling_agrees(fig8, slope, p):
    # one filled solution at 2p, evaluated at p and at 2p
    res = newton_solve(filled_system(fig8, [slope]), precision=2 * p)
    sol = solve_flattening(fig8.U, fig8.d)
    lo = cs_formula(res.shapes, res.lambdas, sol, precision=p)
    hi = cs_formula(res.shapes, res.lambdas, sol, precision=2 * p)
    vol = solution_volume(res, precision=p)
    with mp.workprec(2 * p + 32):
        tol = mp.mpf(2) ** (-p + 16)
        assert abs(lo.vol - hi.vol) < tol * max(1, abs(hi.vol))
        assert abs(lo.cs_mod_rational - hi.cs_mod_rational) < \
            tol * max(1, abs(hi.cs_mod_rational))
        assert abs(lo.vol - vol) < tol * max(1, abs(vol))


def test_volume_and_cs_share_one_li2_per_shape(fig8, monkeypatch):
    # solution_volume needs Im li2 and cs_formula li2 of the same shapes;
    # each shape's record, left by the solver's last residual test, gives
    # its logs to both sums and evaluates li2 once, and no sum takes a log
    import mpmath
    from blochinv import dilog
    dilog._record.cache_clear()
    res = newton_solve(filled_system(fig8, [(5, 1)]), precision=128)
    sol = solve_flattening(fig8.U, fig8.d)
    runs = []
    kernel = dilog._li2_kernel

    def counting(rec, wp):
        runs.append(rec.z)
        return kernel(rec, wp)

    def no_log(*args, **kwargs):
        raise AssertionError("a logarithm was taken")

    monkeypatch.setattr(dilog, "_li2_kernel", counting)
    for module, name in ((mpmath, "log"), (mpmath, "ln"), (mpmath, "log1p"),
                         (mpmath.libmp, "mpc_log"), (mpmath.libmp, "mpf_log")):
        monkeypatch.setattr(module, name, no_log)
    misses = dilog._record.cache_info().misses
    vol = solution_volume(res, precision=128)
    cs = cs_formula(res.shapes, res.lambdas, sol, precision=128)
    monkeypatch.undo()
    n = len(res.shapes)
    assert len(runs) == n
    assert dilog._record.cache_info().misses == misses
    with mp.workprec(152):
        assert abs(cs.vol - vol) < mp.mpf(2) ** -120

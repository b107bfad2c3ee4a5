import functools
import hashlib
import importlib.resources
import math
import random
from fractions import Fraction

import mpmath as mp
from mpmath import libmp
import pytest
from hypothesis import given, settings, strategies as st

from blochinv import dilog, surgery, textformat
from blochinv.chern_simons import cs_formula, solve_flattening
from blochinv.errors import (BlochError, Diverged, DegeneratedToFlat,
                             NotCoprime, NotFilled, RankDeficient)
from blochinv.surgery import (completion_curve, core_length, filled_system,
                              newton_solve, solution_volume)
from blochinv.triang import parse_triangulation

# coprime p/q with |p| <= 12, 1 <= q <= 6 outside the exceptional slopes
# 1/0, 0/1, +-1, ..., +-4 of the figure-eight knot
SLOPES = [(p, q) for q in range(1, 7) for p in range(-12, 13)
          if math.gcd(p, q) == 1 and not (q == 1 and abs(p) <= 4)]


@pytest.fixture(scope="module")
def fig8():
    text = importlib.resources.files("blochinv").joinpath(
        "fixtures/figure_eight.tri").read_text()
    return parse_triangulation(text, precision=256)


@functools.cache
def fig8_at(precision):
    text = importlib.resources.files("blochinv").joinpath(
        "fixtures/figure_eight.tri").read_text()
    return parse_triangulation(text, precision=precision)


def _cold():
    """Forget every memo a solve reads: the solver's doubles searches,
    evaluations and steps, and the dilog shape records."""
    for memo in (surgery._damped, surgery._evaluate, surgery._step,
                 dilog._record):
        memo.cache_clear()


@functools.cache
def fig8_solve(slope, precision, allow_flat):
    """newton_solve on the figure-eight filled at slope, from cold memos, or
    the BlochError it raised."""
    _cold()
    try:
        return newton_solve(filled_system(fig8_at(precision), [slope]),
                            precision=precision, allow_flat=allow_flat)
    except BlochError as exc:
        return exc


def test_filling_spec_coprime(fig8):
    # filled_system checks a filling and keeps it as a tuple of None or
    # integer pairs
    for bad in [(2, 4), (0, 0), (-3, 6)]:
        with pytest.raises(NotCoprime):
            filled_system(fig8, [bad])
    assert filled_system(fig8, [[5, 1]]).filling == ((5, 1),)
    assert filled_system(fig8, iter([None])).filling == (None,)
    with pytest.raises(RankDeficient):
        filled_system(fig8, [(5, 1), None])


def test_completion_curve():
    for p, q in [(5, 1), (3, 2), (-7, 3), (1, 0), (0, 1)]:
        r, s = completion_curve(p, q)
        assert p * s - q * r == 1


def test_complete_system_contains_input(fig8):
    sys0 = filled_system(fig8, [None])
    prec = 192
    with mp.workprec(prec + 16):
        exact = [mp.exp(mp.mpc(0, mp.pi / 3))] * 2
    res = newton_solve(sys0, initial_shapes=exact, precision=prec)
    assert res.converged
    assert res.steps == 0  # the complete structure already satisfies it
    assert res.lambdas == [mp.mpc(0)]
    # the fixture's 64-digit shapes need at most one polish step
    res2 = newton_solve(sys0, precision=prec)
    assert res2.converged and res2.steps <= 2


def test_filled_system_square_rank(fig8):
    sysf = filled_system(fig8, [(5, 1)])
    assert len(sysf.rows) == fig8.n
    # rank check oracle: the two selected rows are linearly independent
    r0, r1 = sysf.rows
    assert any(r0[i] * r1[j] != r0[j] * r1[i]
               for i in range(4) for j in range(4))


def test_figure_eight_five_one_volume(fig8):
    # vol(fig8(5,1)) = 0.981368828892232088... (smallest-volume territory);
    # continuation oracle: volumes increase toward the cusped volume
    prec = 192
    sysf = filled_system(fig8, [(5, 1)])
    res = newton_solve(sysf, precision=prec)
    with mp.workprec(prec + 16):
        v = solution_volume(res, precision=prec)
        assert abs(v - mp.mpf(
            "0.981368828892232088091452189794427068238164321906312438642604")) \
            < mp.mpf(10) ** -40


def test_figure_eight_family_monotone(fig8):
    prec = 128
    cusped = mp.mpf("2.029883212819307250042405108549")
    vols = []
    cores = []
    for p in range(5, 13):
        res = newton_solve(filled_system(fig8, [(p, 1)]), precision=prec)
        with mp.workprec(prec + 16):
            vols.append(solution_volume(res, precision=prec))
            lam = core_length(res, 0, precision=prec)
            cores.append(mp.re(lam))
            assert mp.re(res.lambdas[0] - lam) < 1e-20
    for a, b in zip(vols, vols[1:]):
        assert a < b < cusped
    for a, b in zip(cores, cores[1:]):
        assert a > b > 0


def test_core_length_unfilled_raises(fig8):
    res = newton_solve(filled_system(fig8, [None]), precision=128)
    with pytest.raises(NotFilled):
        core_length(res, 0)


def test_result_precision_is_the_default():
    # a 512-bit solve reports 512-bit core lengths and volume unasked
    res = newton_solve(filled_system(fig8_at(512), [(5, 1)]), precision=512)
    assert res.precision == 512
    lam = core_length(res, 0)
    assert lam._mpc_ == core_length(res, 0, precision=512)._mpc_
    assert lam._mpc_ == res.lambdas[0]._mpc_
    assert mp.re(lam)._mpf_[3] > 280
    assert solution_volume(res)._mpf_ == \
        solution_volume(res, precision=512)._mpf_


def test_core_length_completion_shift(fig8):
    # replacing (r,s) by (r+p, s+q) shifts lambda by 2 pi i only (mod sign)
    prec = 160
    p, q = 6, 1
    res = newton_solve(filled_system(fig8, [(p, q)]), precision=prec)
    r, s = completion_curve(p, q)
    with mp.workprec(prec + 16):
        l1 = core_length(res, 0, completion=(r, s), precision=prec)
        l2 = core_length(res, 0, completion=(r + p, s + q), precision=prec)
        assert abs(mp.re(l1) - mp.re(l2)) < mp.mpf(2) ** (-prec + 32)
        diff = (mp.im(l1) - mp.im(l2)) / (2 * mp.pi)
        assert abs(diff - mp.nint(diff)) < mp.mpf(2) ** (-prec + 40)


def test_adversarial_real_start(fig8):
    sysf = filled_system(fig8, [(5, 1)])
    bad = [mp.mpc("0.5", "1e-30"), mp.mpc("0.5", "1e-30")]
    with pytest.raises((DegeneratedToFlat, Diverged)):
        newton_solve(sysf, initial_shapes=bad, precision=128)


def test_allow_flat_bypasses_entry_guard(fig8):
    # with allow_flat the near-real start is admitted; the solve may still
    # fail numerically, but not through the flatness guard
    sysf = filled_system(fig8, [(5, 1)])
    bad = [mp.mpc("0.5", "1e-30"), mp.mpc("0.5", "1e-30")]
    try:
        res = newton_solve(sysf, initial_shapes=bad, precision=128,
                           allow_flat=True)
        assert res.converged
    except Diverged:
        pass
    except DegeneratedToFlat:
        raise AssertionError("flat guard fired despite allow_flat")


def test_non_exceptional_slopes_never_fall_back():
    # every non-exceptional slope converges to a solution with no flat shape
    assert len(SLOPES) == 84
    for prec in (128, 256, 512):
        for slope in SLOPES:
            res = fig8_solve(slope, prec, False)
            assert res.converged and res.flat == ()
            assert res.residual < mp.mpf(2) ** (-prec + 24)


# Outcome of each exceptional slope of the figure-eight knot and of its
# negative (-p, -q), without and with allow_flat: the exception class, or
# the flat indices of a converged solution.  Each holds at every precision.
D, DF, FLAT = Diverged, DegeneratedToFlat, (0, 1)
EXCEPTIONAL = {
    (1, 0): (DF, D), (-1, 0): (D, D),
    (0, 1): (DF, FLAT), (0, -1): (D, FLAT),
    (1, 1): (DF, FLAT), (-1, -1): (D, FLAT),
    (2, 1): (DF, FLAT), (-2, -1): (D, FLAT),
    (3, 1): (DF, FLAT), (-3, -1): (D, FLAT),
    (4, 1): (DF, D), (-4, -1): (DF, D),
    (-1, 1): ((), ()), (1, -1): (DF, FLAT),
    (-2, 1): ((), ()), (2, -1): (D, FLAT),
    (-3, 1): ((), ()), (3, -1): (DF, FLAT),
    (-4, 1): (DF, D), (4, -1): (D, D),
}
PRECISIONS = (128, 256, 512, 1024)


@pytest.mark.parametrize("slope", sorted(EXCEPTIONAL))
def test_exceptional_slope_outcomes(slope):
    for allow_flat, expected in zip((False, True), EXCEPTIONAL[slope]):
        got = [fig8_solve(slope, prec, allow_flat) for prec in PRECISIONS]
        if isinstance(expected, type):
            assert all(type(r) is expected for r in got), (slope, allow_flat)
            continue
        assert all(getattr(r, "flat", None) == expected for r in got), \
            (slope, allow_flat, got)
        assert all(r.residual < mp.mpf(2) ** (-prec + 24)
                   for prec, r in zip(PRECISIONS, got))
        for prec, r in zip(PRECISIONS, got):
            lam = r.lambdas[0]
            if abs(mp.re(lam)) < mp.mpf(2) ** -(prec // 2):   # length zero
                assert 0 <= mp.im(lam) <= mp.pi, (slope, prec, lam)
        for prec, lo, hi in zip(PRECISIONS, got, got[1:]):
            with mp.workprec(2 * prec + 24):
                tol = mp.mpf(2) ** (-prec + 24)
                # also on (-1, 1), (-2, 1) and (-3, 1), whose cores have
                # length zero: Re lambda is noise there, and the sign of
                # lambda puts Im lambda in [0, pi] at every precision
                parts = zip(lo.shapes + lo.lambdas, hi.shapes + hi.lambdas)
                assert all(abs(a - b) < tol * max(1, abs(b)) for a, b in parts)
        # quadratic convergence: the doubles stage is the same at every
        # precision, every rung steps and one step at the working precision
        # passes its test, so each doubling adds one rung and one step
        steps = [r.steps for r in got]
        assert [b - a for a, b in zip(steps, steps[1:])] == [1, 1, 1], \
            (slope, allow_flat, steps)


def test_allow_flat_exceptional_outcomes():
    # these fillings degenerate: the solver lands on flat solutions, whose
    # logs it takes at z + i0
    for prec in (128, 256):
        for slope in [(0, 1), (1, 1), (2, 1), (3, 1)]:
            res = newton_solve(filled_system(fig8_at(prec), [slope]),
                               precision=prec, allow_flat=True)
            assert res.converged and res.flat == (0, 1), (slope, prec)
            assert res.residual < mp.mpf(2) ** (-prec + 24)
            assert core_length(res, 0)._mpc_ == res.lambdas[0]._mpc_
            assert mp.im(res.lambdas[0]) == 0
        for slope in [(1, 0), (-1, 0), (4, 1), (-4, 1)]:
            with pytest.raises(Diverged):
                newton_solve(filled_system(fig8_at(prec), [slope]),
                             precision=prec, allow_flat=True)


def test_flat_solutions_have_volume_zero():
    # a flat shape's logs are read at z + i0, where D2 is zero: the volume
    # does not read the noise of its imaginary part
    flat = [s for s, (_, with_flat) in EXCEPTIONAL.items() if with_flat == FLAT]
    assert len(flat) == 11
    for slope in flat:
        for prec in PRECISIONS:
            res = fig8_solve(slope, prec, True)
            assert solution_volume(res)._mpf_ == libmp.fzero, (slope, prec)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(SLOPES), st.sampled_from([64, 128, 256]))
def test_newton_solve_precision_doubling_agrees(slope, p):
    t = fig8_at(2 * p + 64)
    lo = newton_solve(filled_system(t, [slope]), precision=p)
    hi = newton_solve(filled_system(t, [slope]), precision=2 * p)
    assert lo.converged and hi.converged
    with mp.workprec(2 * p + 64):
        tol = mp.mpf(2) ** (-p + 24)
        assert lo.residual < tol
        for a, b in zip(lo.shapes, hi.shapes):
            assert abs(a - b) < tol * abs(b)


def test_newton_solve_agrees_with_a_solve_at_twice_the_bits():
    # the shapes of a solve at p bits are within 2^(-p-16) of those of a
    # solve at 2p + 64 bits: all SLOPES at 128 and 256 bits, seeded ones at
    # 512 and 1024.  (-11, 3) at 1024 bits was 2^(-p-5.4) off while the
    # ladder's rungs halved the working precision
    rng = random.Random(33)
    cases = [(s, p) for p in (128, 256) for s in SLOPES]
    cases += [(s, 512) for s in rng.sample(SLOPES, 4)]
    cases += [(s, 1024) for s in [(-11, 3)] + rng.sample(SLOPES, 2)]
    for slope, p in cases:
        lo, hi = fig8_solve(slope, p, False), fig8_solve(slope, 2 * p + 64,
                                                         False)
        with mp.workprec(2 * p + 64):
            tol = mp.mpf(2) ** (-p - 16)
            assert all(abs(a - b) < tol * abs(b)
                       for a, b in zip(lo.shapes, hi.shapes)), (slope, p)


def _ladder_schedule(monkeypatch, system, precision, cold=True):
    """newton_solve's steps, and the precisions of the evaluations above
    doubles it computed, each followed by "step" if it computed a Newton
    step from it; from cold memos unless cold is false."""
    events = []

    def recorded_logs(zs, p):
        events.append(p + dilog._GUARD)
        return recorded_in(zs, p)

    def solve(J, b, ar):
        if ar is not surgery._DOUBLE:
            events.append("step")
        return solve_in(J, b, ar)

    recorded_in, solve_in = surgery._recorded_logs, surgery._solve
    if cold:
        _cold()
    with monkeypatch.context() as m:
        m.setattr(surgery, "_recorded_logs", recorded_logs)
        m.setattr(surgery, "_solve", solve)
        res = newton_solve(system, precision=precision)
    return res.steps, events[:-1]       # the last one is core_length's


def test_ladder_steps_at_every_rung(monkeypatch):
    # the rungs are the working precisions of p/2, p/4, ... down to 64 bits;
    # each takes a step, and the working precision wp is evaluated at most
    # twice: one step and the accepted residual test
    rungs = {128: [88], 256: [88, 152], 512: [88, 152, 280]}
    for prec, below in rungs.items():
        wp = prec + dilog._GUARD
        for slope in SLOPES:
            _, events = _ladder_schedule(
                monkeypatch, filled_system(fig8_at(prec), [slope]), prec)
            evaluated = [w for w in events if w != "step"]
            at_wp = evaluated[len(below):]
            assert evaluated[:len(below)] == below, (slope, prec, events)
            assert at_wp == [wp] * len(at_wp) and len(at_wp) <= 2, \
                (slope, prec, events)
            assert all(b == "step" for a, b in zip(events, events[1:])
                       if a in below), (slope, prec, events)
    # the complete structures start from the fixtures' 64-digit shapes
    for name, steps in [("figure_eight.tri", [0, 1, 2, 3]),
                        ("example3.tri", [0, 0, 2, 3])]:
        text = importlib.resources.files("blochinv").joinpath(
            "fixtures/" + name).read_text()
        got = []
        for prec in PRECISIONS:
            t = parse_triangulation(text, precision=prec)
            got.append(_ladder_schedule(
                monkeypatch, filled_system(t, [None] * t.h), prec)[0])
        assert got == steps, name


def test_solves_at_twice_the_bits_reuse_the_ladder(monkeypatch):
    # the rungs of a solve at 256 bits are the working precisions of the
    # solve at 128: after it, the solve at 256 computes only its two
    # evaluations at 280 bits and the step between them, and takes its
    # doubles search from the memo
    slope = (5, 1)
    _cold()
    newton_solve(filled_system(fig8_at(128), [slope]), precision=128)
    damped = surgery._damped.cache_info()
    _, events = _ladder_schedule(
        monkeypatch, filled_system(fig8_at(256), [slope]), 256, cold=False)
    assert events == [280, "step", 280]
    info = surgery._damped.cache_info()
    assert (info.hits, info.misses) == (damped.hits + 1, damped.misses)


def _warm_outcomes(slope, precisions, allow_flat):
    """_solve_outcome of slope at each of precisions in turn, from cold memos
    at the first only."""
    _cold()
    out = []
    for prec in precisions:
        try:
            res = newton_solve(filled_system(fig8_at(prec), [slope]),
                               precision=prec, allow_flat=allow_flat)
        except BlochError as exc:
            res = exc
        out.append(_outcome(res))
    return out


def test_warm_solves_are_bit_identical():
    # a solve that reads the memos of solves at lower precisions has the
    # bits, steps, flat indices and Diverged messages of a cold one
    # (fig8_solve); a slope at 128, 256 and 512 bits computes 1 doubles
    # search, 7 evaluations and 4 steps
    memos = surgery._damped, surgery._evaluate, surgery._step
    for slope in SLOPES:
        warm = _warm_outcomes(slope, (128, 256, 512), False)
        assert [m.cache_info().misses for m in memos] == [1, 7, 4], slope
        assert warm == [_solve_outcome(slope, prec, False)
                        for prec in (128, 256, 512)], slope
    for slope in sorted(EXCEPTIONAL):
        for allow_flat in (False, True):
            assert _warm_outcomes(slope, PRECISIONS, allow_flat) == \
                [_solve_outcome(slope, prec, allow_flat)
                 for prec in PRECISIONS], (slope, allow_flat)


# coprime slopes with 1 <= p <= 40, 1 <= q <= 15 outside the exceptional set
ORACLE_SLOPES = [(p, q) for p in range(1, 41) for q in range(1, 16)
                 if math.gcd(p, q) == 1 and (p, q) not in EXCEPTIONAL]


@settings(max_examples=36, deadline=None)
@given(st.sampled_from(ORACLE_SLOPES), st.sampled_from([128, 256, 512]))
def test_filling_oracles(slope, prec):
    # (p, q) and (-p, -q) are one filling, and the figure-eight knot is
    # amphichiral: (-p, q) is the mirror image of (p, q), with the same
    # volume, the conjugate core length and the opposite Chern-Simons
    # invariant (the fixture's flattening adds -pi^2/3 to each)
    p, q = slope
    t = fig8_at(prec)
    a, b, c = (newton_solve(filled_system(t, [s]), precision=prec)
               for s in [(p, q), (-p, -q), (-p, q)])
    flat = solve_flattening(t.U, t.d)
    cs_a, cs_c = (cs_formula(r.shapes, r.lambdas, flat, prec).cs_mod_rational
                  for r in (a, c))
    vol_a, vol_b, vol_c = (solution_volume(r) for r in (a, b, c))
    with mp.workprec(prec + 24):    # mp.conj at 53 bits fakes a mismatch
        tol = mp.mpf(2) ** -prec
        assert abs(vol_b - vol_a) < tol and abs(vol_c - vol_a) < tol
        assert abs(b.lambdas[0] - a.lambdas[0]) < tol
        assert abs(c.lambdas[0] - mp.conj(a.lambdas[0])) < tol
        assert abs(cs_a + cs_c + 2 * mp.pi ** 2 / 3) < tol


# SHA-256 of every newton_solve outcome on SLOPES at 128, 256 and 512 bits,
# and of every EXCEPTIONAL outcome, without and with allow_flat, at
# PRECISIONS.  Both were re-recorded when the ladder's rungs moved to
# (precision >> k) + 24 bits: the bits past the accepted residual moved
# (233 of 252 and 61 of 160 outcomes), no outcome changed kind or flat
# indices, no SLOPES step count changed, three allow_flat step counts at
# 128 bits grew by one and two Diverged messages quote another residual
SOLVER_BITS = "b5795dad4888d9ef66ffdf74ef3dfe98196882609d5ef7e1791d0c1918eb6c5b"
EXCEPTIONAL_BITS = "e47d0a5918a2d0ae985093ab203a6423300881aa4f6b81f6c8ac584a0da3ded2"


def _solve_outcome(slope, precision, allow_flat):
    """_outcome of fig8_solve."""
    return _outcome(fig8_solve(slope, precision, allow_flat))


def _outcome(res):
    """Exception type and message, or the exact bits of a solution."""
    if isinstance(res, BlochError):
        return type(res).__name__, str(res)
    parts = [res.residual._mpf_] + [p for z in res.shapes + res.lambdas
                                    for p in z._mpc_]
    # int() so that the hash is the same with and without gmpy2
    return ([(sign, int(man), exp) for sign, man, exp, _ in parts],
            res.steps, res.flat)


def test_solver_bits_pinned():
    out = [_solve_outcome(s, prec, False) for prec in (128, 256, 512)
           for s in SLOPES]
    assert hashlib.sha256(repr(out).encode()).hexdigest() == SOLVER_BITS


def test_exceptional_bits_pinned():
    out = [_solve_outcome(s, prec, allow_flat) for allow_flat in (False, True)
           for prec in PRECISIONS for s in sorted(EXCEPTIONAL)]
    assert hashlib.sha256(repr(out).encode()).hexdigest() == EXCEPTIONAL_BITS


# SHA-256 of li2, bloch_wigner and rogers on _kernel_points, and of li2(0)
# and li2(1), at 128, 256 and 512 bits, recorded while the inversion branch
# still formed 1/z to test Re(1/z) > 1/2
KERNEL_BITS = "92b912facf4807ed5d8274c542ca7a70bbefa61c7f95100bc66ee28d883002b6"
# SHA-256 of solution_volume, cs_formula(...).value and core_length on every
# SLOPES solution at 128, 256 and 512 bits, re-recorded with SOLVER_BITS:
# it moves with the solutions' bits past the accepted residual
POSTSOLVE_BITS = "7b75647028bb1c06eaa270fca4b5b0c84a3ba455266c6957c13bcd0e10f9fe72"


def _bits(x):
    """The raw (sign, int(man), exp) of an mpf, or of both parts of an mpc."""
    parts = x._mpc_ if isinstance(x, mp.mpc) else (x._mpf_,)
    return [(sign, int(man), exp) for sign, man, exp, _ in parts]


def _kernel_points():
    """Seeded points on every branch of li2: |z| < 1/4 (log1p, also below
    2^-wp), series, reflection, inversion, negative real, |z| = 1,
    Re z = 1/2, real z > 1, and |z| > 1 within 2^-6 to 2^-100 of either side
    of |z - 1| = 1, where inversion switches to reflection; each carries
    bits down to 2^-800, below every working precision.  1 + i and 1 - i
    lie on that circle exactly."""
    rng = random.Random(30)
    with mp.workprec(800):
        def polar(lo, hi, arg):
            z = rng.uniform(lo, hi) * mp.expjpi(arg)
            return z * (1 + mp.mpf(rng.getrandbits(700)) / 2 ** 760)
        pts = []
        for _ in range(6):
            pts += [polar(0.01, 0.24, rng.uniform(-1, 1)),       # log1p
                    polar(0.3, 0.99, rng.uniform(0.4, 1)),       # series
                    polar(0.3, 0.99, rng.uniform(-0.2, 0.2)),    # reflection
                    polar(1.01, 6, rng.uniform(-1, 1)),          # inversion
                    -polar(0.1, 6, 0),                           # z < 0
                    mp.expjpi(mp.mpf(rng.getrandbits(700)) / 2 ** 699 - 1),
                    mp.mpc(0.5, mp.mpf(rng.getrandbits(700)) / 2 ** 698 - 2),
                    polar(1.01, 6, 0)]                           # z > 1
        for k in (6, 40, 100):          # |z| > 1 for |arg(z - 1)| < 2 pi/3
            for side in (-1, 1):
                arg = mp.mpf(rng.getrandbits(700)) / 2 ** 700 * 1.2 - 0.6
                pts.append(1 + (1 + side * mp.mpf(2) ** -k) * mp.expjpi(arg))
    return pts + [mp.mpc(-1), mp.mpc(0, 1), mp.mpc(0.5, 0.5),
                  mp.mpc("1e-200", "-3e-201"), mp.mpc(1, 1), mp.mpc(1, -1)]


def test_kernel_bits_pinned():
    out = []
    for prec in (128, 256, 512):
        out += [_bits(f(z, prec)) for z in _kernel_points()
                for f in (dilog.li2, dilog.bloch_wigner, dilog.rogers)]
        out += [_bits(dilog.li2(z, prec)) for z in (0, 1)]
    assert hashlib.sha256(repr(out).encode()).hexdigest() == KERNEL_BITS


def test_postsolve_bits_pinned():
    out = []
    for prec in (128, 256, 512):
        t = fig8_at(prec)
        flat = solve_flattening(t.U, t.d)
        for s in SLOPES:
            res = fig8_solve(s, prec, False)
            cs = cs_formula(res.shapes, res.lambdas, flat, prec)
            out += [_bits(solution_volume(res)), _bits(cs.value),
                    _bits(core_length(res, 0))]
    assert hashlib.sha256(repr(out).encode()).hexdigest() == POSTSOLVE_BITS


def test_solver_fills_the_shape_records():
    # the accepted residual test takes its logs from the dilog records of the
    # solved shapes: each record equals a fresh one bit for bit, with the
    # bits of mp.log(z) and mp.log(1 - z) at the working precision, and its
    # li2 and the core length from its logs are those of fresh evaluations
    from blochinv import dilog
    for prec in (128, 256, 512):
        t = fig8_at(prec)
        wp = prec + dilog._GUARD
        for slope in SLOPES:
            res = newton_solve(filled_system(t, [slope]), precision=prec)
            info = dilog._record.cache_info()
            recs = [dilog._record(z._mpc_, prec) for z in res.shapes]
            assert dilog._record.cache_info().misses == info.misses
            for z, rec in zip(res.shapes, recs):
                fresh = dilog._record.__wrapped__(z._mpc_, prec)
                with mp.workprec(wp):
                    logs = (mp.log(z), mp.log(1 - z))
                for a, b, c in zip((rec.z, rec.log_z, rec.log_1mz),
                                   (fresh.z, fresh.log_z, fresh.log_1mz),
                                   (z,) + logs):
                    assert a == b == c._mpc_, (slope, prec)
                assert dilog.li2(z, prec)._mpc_ == \
                    dilog._li2_kernel(fresh, wp)
            assert core_length(res, 0, precision=prec)._mpc_ == \
                res.lambdas[0]._mpc_


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(-8, 8), min_size=4, max_size=4),
       st.integers(-25, 25), st.sampled_from([88, 152, 280]))
def test_libmp_arithmetic_matches_mpc_operators(parts, n, prec):
    # each libmp entry must give the bits of the mpc or mpf operation it
    # stands for, also on operands carrying more bits than the working
    # precision
    ar = dilog._libmp(prec)
    with mp.workprec(prec + 40):
        x = mp.exp(mp.mpc(parts[0], parts[1]) / 3)
        a, k = x.real, int(x.real * 2 ** (prec + 60))
    q = Fraction(n, 7)
    with mp.workprec(prec):
        y = mp.exp(mp.mpc(parts[2], parts[3]) / 7)
        b = y.real
        X, Y, A, B = x._mpc_, y._mpc_, a._mpf_, b._mpf_
        pairs = [(ar.add(X, Y), x + y), (ar.sub(X, Y), x - y),
                 (ar.mul(X, Y), x * y), (ar.div(X, Y), x / y),
                 (ar.neg(X), -x), (ar.pos(X), mp.mpc(x)),
                 (ar.log(X), mp.log(x)), (ar.exp(X), mp.exp(x)),
                 (ar.rsub(n, X), n - x), (ar.mul_int(n, X), n * x),
                 (ar.mul_mpf(X, B), x * b),
                 (ar.sub_mpf(X, B), x - b), (ar.half(X), x / 2),
                 (ar.sq(X), x ** 2), (ar.sub((B, libmp.fzero), X), b - x),
                 (ar.mul(ar.half(ar.pi_i), X), mp.mpc(0, 1) * mp.pi / 2 * x),
                 (ar.conj(X), mp.conj(x)), (ar.pi_i, mp.pi * 1j),
                 (ar.fsum([X, Y]), mp.fsum([x, y])),
                 (ar.sum([Y, Y]), sum([y, y])),
                 ((ar.ldexp(k, -prec), ar.ldexp(-k, -prec - 9)),
                  mp.mpc(mp.ldexp(k, -prec), mp.ldexp(-k, -prec - 9)))]
        for got, want in pairs:
            assert got == want._mpc_
        reals = [(ar.fadd(A, B), a + b), (ar.fsub(A, B), a - b),
                 (ar.fmul(A, B), a * b), (ar.fdiv(A, B), a / b),
                 (ar.fsq(A), a ** 2), (ar.fabs(A), abs(a)),
                 (ar.floor(A), mp.floor(a)),
                 (ar.fq(q), mp.mpf(q.numerator) / mp.mpf(q.denominator)),
                 (ar.half_pi, mp.pi / 2), (ar.two_pi, 2 * mp.pi),
                 (ar.pi_sq_6, mp.pi ** 2 / 6),
                 (ar.abs_max([X, Y]), max(abs(x), abs(y))),
                 (ar.l1(X), abs(x.real) + abs(x.imag))]
        for got, want in reals:
            assert got == want._mpf_
        assert (ar.gt(A, B), ar.lt(A, B), ar.ge(A, B)) == (a > b, a < b,
                                                            a >= b)


def _abs_max_per_entry(F, prec):
    """abs_max as one mpc_abs per entry, keeping the first maximum."""
    m = libmp.fzero
    for i, v in enumerate(F):
        v = libmp.mpc_abs(v, prec, libmp.round_nearest)
        if not i or libmp.mpf_lt(m, v):
            m = v
    return m


@pytest.mark.parametrize("prec", [88, 152, 280, 536])
def test_abs_max_takes_the_largest_abs(prec):
    # abs_max takes one square root, at the first maximum of the exact
    # |v|^2; on prec-bit entries, as its residuals are, that is the largest
    # mpc_abs.  The pool holds exact ties (sign flips, swapped parts, the
    # axis point (m^2 + n^2, 0) against (m^2 - n^2, 2mn)), entries one unit
    # in the last place apart, zeros and entries on either axis
    rng = random.Random(prec)
    rnd = libmp.round_nearest

    def mpf(man, exp):
        return libmp.from_man_exp(man, exp, prec, rnd)

    pool = [(libmp.fzero, libmp.fzero)]
    for _ in range(12):
        exp = -prec - rng.randrange(3)
        a, b = (rng.getrandbits(prec) * rng.choice((-1, 1)) for _ in "ab")
        pool += [(mpf(a, exp), mpf(b, exp)), (mpf(b, exp), mpf(a, exp)),
                 (mpf(-a, exp), mpf(b, exp)), (mpf(a + 1, exp), mpf(b, exp)),
                 (mpf(a, exp), libmp.fzero), (libmp.fzero, mpf(b, exp))]
        m, n = (rng.getrandbits(prec // 2 - 1) for _ in "mn")
        exp = -prec + rng.randrange(-2, 3)
        pool += [(mpf(m * m - n * n, exp), mpf(2 * m * n, exp)),
                 (mpf(m * m + n * n, exp), libmp.fzero),
                 (libmp.fzero, mpf(-m * m - n * n, exp))]
    ar = dilog._libmp(prec)
    assert ar.abs_max([]) == _abs_max_per_entry([], prec) == libmp.fzero
    for _ in range(300):
        F = [rng.choice(pool) for _ in range(rng.randint(1, 8))]
        assert ar.abs_max(F) == _abs_max_per_entry(F, prec)


def test_sweep_reads_start_shapes_and_edge_basis_once(monkeypatch):
    # a sweep of three slopes, each at 128, 256 and 512 bits, on one parsed
    # figure-eight: two shapes read once per precision, and one reduction
    # of its edge rows
    text = importlib.resources.files("blochinv").joinpath(
        "fixtures/figure_eight.tri").read_text()
    t = parse_triangulation(text, precision=256)
    read, reduce = textformat.complex_pair, surgery.hnf_rows
    reads, reductions = [], []

    def counting_read(tok, prec):
        reads.append(prec)
        return read(tok, prec)

    def counting_reduce(rows):
        reductions.append(rows)
        return reduce(rows)

    monkeypatch.setattr(textformat, "complex_pair", counting_read)
    monkeypatch.setattr(surgery, "hnf_rows", counting_reduce)
    surgery._edge_basis.cache_clear()
    for slope in SLOPES[:3]:
        for prec in (128, 256, 512):
            res = newton_solve(filled_system(t, [slope]), precision=prec)
            assert res.converged
    assert sorted(reads) == [p + dilog._GUARD for p in (128, 256, 512)
                             for _ in range(2)]
    assert len(reductions) == 1

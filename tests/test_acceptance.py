"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured quantity (run with ``pytest tests/test_acceptance.py -v -s``).
Tolerances are fixed here, not calibrated elsewhere.
"""

import random
import time
from fractions import Fraction

import importlib.resources
import mpmath as mp

from blochinv.borel import borel_regulator, detect_relation, per_root_values
from blochinv.chern_simons import (cs_formula, rationalize_mod_pi2,
                                   solve_flattening)
from blochinv.dilog import bloch_wigner
from blochinv.errors import DegenerateFiveTerm, DegenerateShape
from blochinv.lattice import kernel_int
from blochinv.numfield import conj_exact, embeddings, field_make
from blochinv.prebloch import (PreBlochElement, five_term, is_bloch,
                               six_fold_normalize, volume_of_prebloch, wedge)
from blochinv.scissors import (cone_decomposition, cycle_move,
                               decomposition_class, parse_polyhedron)
from blochinv.surgery import core_length, filled_system, newton_solve, solution_volume
from blochinv.triang import parse_triangulation

WEEKS = field_make([1, -1, 0, 1])
QUARTIC = field_make([1, -1, 1, 0, 1])

WEEKS_VOL = "0.94270736277692772092129960309221164759032710576688316"
EX3_VOL = "1.831931188354438030109207029864768221548298748563344268534"
C2_BETA1 = ("3.1639632288831439839910147159731544848127876715181",
            "-1.4151048972655633406895085877105020361346679596016")
C2_BETA2 = ("-0.69854408278444071973072661203684276397736670535490",
            "3.8216875861799777391109222242903855168213024955043")
ETA_WEEKS = "0.060043066678727155012132615144817756316780200913123686"


def fixture(name):
    return importlib.resources.files("blochinv").joinpath(
        "fixtures/" + name).read_text()


def report(num, ok, detail):
    print("criterion %2d: %s  %s" % (num, "PASS" if ok else "FAIL", detail))
    assert ok


def beta_elements():
    tau = QUARTIC.gen()
    one = QUARTIC.one()
    b1 = PreBlochElement([
        ((one - tau ** 2 - tau ** 3) * Fraction(1, 2), 2),
        (one - tau, 1),
        ((one - tau ** 2 + tau ** 3) * Fraction(1, 2), 1)])
    b2 = PreBlochElement([
        (one * 2 - tau - tau ** 3, 2),
        (tau + tau ** 2 + tau ** 3, 2)])
    return b1, b2


def published_places(precision=256):
    es = embeddings(QUARTIC, precision)
    return [conj_exact(es.complex_pairs[1]), conj_exact(es.complex_pairs[0])]


def test_criterion_1_weeks_volume():
    t0 = time.time()
    prec = 256
    theta = embeddings(WEEKS, prec).complex_pairs[0]
    with mp.workprec(prec + 16):
        v = bloch_wigner(theta, prec)
        err = abs(v - mp.mpf(WEEKS_VOL))
    elapsed = time.time() - t0
    report(1, err < mp.mpf(10) ** -48 and elapsed < 1.0,
           "D2(theta) err %s, %.2fs" % (mp.nstr(err, 3), elapsed))


def test_criterion_2_example3_volume():
    prec = 300
    with mp.workprec(prec + 16):
        i = mp.mpc(0, 1)
        z1 = (3 + i - mp.sqrt(4 + 2 * i)) / 2
        z2 = 2 * z1 - 2 * z1 ** 2 + z1 ** 3 / 2
        z3 = (1 + i) / 2
        v = mp.fsum([bloch_wigner(z, prec) for z in (z1, z2, z3)])
        err = abs(v - mp.mpf(EX3_VOL))
    report(2, err < mp.mpf(10) ** -50, "sum D2 err %s" % mp.nstr(err, 3))


def test_criterion_3_regulator_vectors():
    prec = 256
    b1, b2 = beta_elements()
    places = published_places(prec)
    v1 = borel_regulator(b1, precision=prec, places=places)
    v2 = borel_regulator(b2, precision=prec, places=places)
    with mp.workprec(prec + 16):
        errs = [abs(v1.values[0] - mp.mpf(C2_BETA1[0])),
                abs(v1.values[1] - mp.mpf(C2_BETA1[1])),
                abs(v2.values[0] - mp.mpf(C2_BETA2[0])),
                abs(v2.values[1] - mp.mpf(C2_BETA2[1]))]
        worst = max(errs)
    report(3, worst < mp.mpf(10) ** -45,
           "worst coordinate err %s" % mp.nstr(worst, 3))


def test_criterion_4_relation_detection():
    prec = 256
    b1, b2 = beta_elements()
    places = published_places(prec)
    v1 = borel_regulator(b1, precision=prec, places=places).values
    v2 = borel_regulator(b2, precision=prec, places=places).values
    rng = random.Random(17)
    with mp.workprec(prec + 16):
        cand = [(3 * a + b) / 2 + mp.mpf(rng.uniform(-1, 1)) * mp.mpf(10) ** -40
                for a, b in zip(v1, v2)]
        rep1 = detect_relation([v1, v2, cand], precision=prec)
        ok1 = rep1 is not None and rep1.coefficients == (3, 1, -2)
        err1 = abs(cand[0] - mp.mpf("4.396672801932495"))
        cand2 = [2 * a + b + mp.mpf(rng.uniform(-1, 1)) * mp.mpf(10) ** -40
                 for a, b in zip(v1, v2)]
        rep2 = detect_relation([v1, v2, cand2], precision=prec)
        ok2 = rep2 is not None and rep2.coefficients == (2, 1, -1)
        err2 = abs(cand2[0] - mp.mpf("5.629382374981847"))
    report(4, ok1 and ok2 and err1 < mp.mpf(10) ** -12 and err2 < mp.mpf(10) ** -12,
           "relations %s / %s, volume errs %s, %s"
           % (rep1 and rep1.coefficients, rep2 and rep2.coefficients,
              mp.nstr(err1, 3), mp.nstr(err2, 3)))


def test_criterion_5_bloch_certificates():
    c1 = is_bloch(PreBlochElement([(WEEKS.gen(), 1)]), precision=192)
    b1, _ = beta_elements()
    c2 = is_bloch(b1, precision=256)
    c3 = is_bloch(PreBlochElement([(Fraction(3), 1)]))
    ok = (c1.verdict == "CertifiedZero" and c2.verdict == "CertifiedZero"
          and c3.verdict == "LikelyNonzero")
    report(5, ok, "[theta]:%s beta1:%s [3]:%s"
           % (c1.verdict, c2.verdict, c3.verdict))


def test_criterion_6_five_term_suite():
    prec = 192
    rng = random.Random(60)
    worst = mp.mpf(0)
    with mp.workprec(prec + 16):
        tol = mp.mpf(10) ** -40
        count = 0
        while count < 1000:
            x = mp.mpc(rng.uniform(-3, 3), rng.uniform(-3, 3))
            y = mp.mpc(rng.uniform(-3, 3), rng.uniform(-3, 3))
            if x == y or x in (0, 1) or y in (0, 1):
                continue
            terms = [(x, 1), (y, -1), (y / x, 1),
                     ((1 - 1 / x) / (1 - 1 / y), -1), ((1 - x) / (1 - y), 1)]
            if any(t in (0, 1) for t, _ in terms):
                continue
            s = mp.fsum([sgn * bloch_wigner(t, prec) for t, sgn in terms])
            worst = max(worst, abs(s))
            count += 1
    ok_d2 = worst < mp.mpf(10) ** -40

    gauss = field_make([1, 0, 1])
    gi, gone = gauss.gen(), gauss.one()
    done = 0
    certified = 0
    rng2 = random.Random(61)
    while done < 100:
        if done % 2 == 0:
            x = Fraction(rng2.randint(2, 30), rng2.randint(1, 8))
            y = Fraction(rng2.randint(2, 30), rng2.randint(1, 8))
        else:
            x = gone * rng2.randint(-4, 4) + gi * rng2.randint(-4, 4)
            y = gone * rng2.randint(-4, 4) + gi * rng2.randint(-4, 4)
        try:
            e = five_term(x, y)
        except (DegenerateFiveTerm, DegenerateShape):
            continue
        if wedge(e, precision=256).is_zero():
            certified += 1
        done += 1
    report(6, ok_d2 and certified == 100,
           "worst D2 residual %s over 1000 pairs; %d/100 wedges certified zero"
           % (mp.nstr(worst, 3), certified))


def test_criterion_7_cs_real_part():
    prec = 256
    t = parse_triangulation(fixture("figure_eight.tri"), precision=320)
    sol = solve_flattening(t.U, t.d)
    with mp.workprec(prec + 16):
        zs = [mp.exp(mp.mpc(0, mp.pi / 3))] * 2
        res = cs_formula(zs, [0], sol, precision=prec)
        vol = mp.fsum([bloch_wigner(z, prec) for z in zs])
        err = abs(res.vol - vol)
        ok_real = err < mp.mpf(10) ** -40
        kern = kernel_int([[t.U[i][k] for i in range(4)] for k in range(4)])
        ok_kernel = bool(kern)
        for kv in kern:
            shifted = [sol.c[i] + kv[i] for i in range(4)]
            res2 = cs_formula(zs, [0], shifted, precision=prec)
            diff = res2.value - res.value
            q = rationalize_mod_pi2(mp.im(diff), 120, prec)
            if abs(mp.re(diff)) > mp.mpf(10) ** -40 or q is None:
                ok_kernel = False
    report(7, ok_real and ok_kernel,
           "real-part err %s; kernel shifts rational mod i pi^2" % mp.nstr(err, 3))


def test_criterion_8_dehn_continuation():
    t0 = time.time()
    prec = 128
    t = parse_triangulation(fixture("figure_eight.tri"), precision=160)
    with mp.workprec(prec + 16):
        cusped = 2 * bloch_wigner(mp.exp(mp.mpc(0, mp.pi / 3)), prec)
    vols, cores = [], []
    for p in range(5, 13):
        res = newton_solve(filled_system(t, [(p, 1)]), precision=prec)
        with mp.workprec(prec + 16):
            vols.append(solution_volume(res, precision=prec))
            cores.append(mp.re(core_length(res, 0, precision=prec)))
    elapsed = time.time() - t0
    increasing = all(a < b for a, b in zip(vols, vols[1:]))
    below = all(v < cusped for v in vols)
    shrinking = all(a > b > 0 for a, b in zip(cores, cores[1:]))
    report(8, increasing and below and shrinking and elapsed < 30.0,
           "vols %s..%s increasing, cores %s..%s shrinking, %.1fs"
           % (mp.nstr(vols[0], 8), mp.nstr(vols[-1], 8),
              mp.nstr(cores[0], 5), mp.nstr(cores[-1], 5), elapsed))


def test_criterion_9_scissors():
    prec = 256
    poly = parse_polyhedron(fixture("octahedron.poly"), precision=prec)
    with mp.workprec(prec + 16):
        vols = []
        for apex in range(6):
            e = decomposition_class(poly, cone_decomposition(poly, apex))
            vols.append(mp.re(_vol(e, prec)))
        spread = max(vols) - min(vols)
    ok_oct = spread < mp.mpf(10) ** -40
    # exact octahedron: wedge images agree exactly (normalized classes equal)
    gauss = field_make([1, 0, 1])
    gi, gone = gauss.gen(), gauss.one()
    from blochinv.scissors import IdealPolyhedron
    from blochinv.prebloch import Infinity
    exact = IdealPolyhedron(
        [gauss.zero(), Infinity, gone, gi, -gone, -gi],
        [[1, 2, 3], [1, 3, 4], [1, 4, 5], [1, 5, 2],
         [0, 3, 2], [0, 4, 3], [0, 5, 4], [0, 2, 5]])
    classes = [six_fold_normalize(decomposition_class(
        exact, cone_decomposition(exact, apex))) for apex in range(6)]
    ok_wedge = all(c == classes[0] for c in classes)
    wedge(classes[0], precision=192)
    # square pyramid: the two decompositions differ by one cycle move
    pyr = parse_polyhedron(fixture("square_pyramid.poly"), precision=prec)
    dec2 = cone_decomposition(pyr, 0)
    dec3 = cone_decomposition(pyr, 2)
    from blochinv.scissors import _canon_simplex
    import itertools
    from blochinv.errors import NotAFiveTermConfiguration
    target = sorted(_canon_simplex(q, s) for q, s in dec2)
    one_move = False
    for config in itertools.permutations(range(5)):
        try:
            if sorted(cycle_move(dec3, config)) == target:
                one_move = True
                break
        except NotAFiveTermConfiguration:
            continue
    report(9, ok_oct and ok_wedge and one_move,
           "octahedron spread %s; wedges equal: %s; pyramid pair one move: %s"
           % (mp.nstr(spread, 3), ok_wedge, one_move))


def _vol(e, prec):
    return volume_of_prebloch(e, precision=prec)


def test_criterion_10_galois_sum():
    prec = 256
    b1, _ = beta_elements()
    vec = per_root_values(b1, precision=prec)
    with mp.workprec(prec + 16):
        s = abs(mp.fsum(vec))
    report(10, s < mp.mpf(10) ** -40, "conjugate D2 sum %s" % mp.nstr(s, 3))


def test_criterion_11_irrationality_probe():
    prec = 256
    with mp.workprec(prec + 32):
        x = mp.pi ** 2 * 2 * mp.mpf(ETA_WEEKS)
        q = rationalize_mod_pi2(x, 10 ** 15, prec)
    report(11, q is None,
           "rational reconstruction under bound 1e15: %s"
           % ("NotFound" if q is None else q))

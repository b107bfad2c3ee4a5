"""Hyperbolic Dehn surgery: deform a triangulation's shapes to satisfy
filling equations, by Newton iteration on shape logarithms.

The complete system U.Z = pi i d is over-determined; the solver keeps a
maximal independent set of edge rows (their rank is n - h for an h-cusped
geometric triangulation) and one row per cusp: the meridian row for an
unfilled cusp (completeness), or p*meridian + q*longitude = 2 pi i for a
(p, q)-filled one (the core curve condition).
"""

from __future__ import annotations

import cmath
import functools
import math
import operator
from types import SimpleNamespace
from typing import NamedTuple

import mpmath as mp
from mpmath import libmp

from .dilog import _GUARD, _libmp, _record, bloch_wigner
from .errors import (DegenerateShape, DegeneratedToFlat, Diverged,
                     JacobianSingular, NotCoprime, NotFilled, RankDeficient)
from .lattice import hnf_rows


class FilledSystem(NamedTuple):
    triangulation: object
    rows: tuple      # integer coefficient rows over Z (tuples of length 2n)
    rhs: tuple       # rhs in units of pi i (integers; 2 extra for filled cusps)
    filling: tuple   # per cusp None or a coprime (p, q)


class SolveResult(NamedTuple):
    shapes: list
    lambdas: list
    residual: object
    converged: bool
    steps: int
    precision: int   # the bits solved for; core_length and solution_volume
                     # evaluate at it unless told otherwise
    system: FilledSystem = None
    flat: tuple = ()     # indices of shapes below the flatness floor


def filled_system(t, filling):
    """Square nonlinear system for a filling of the triangulation: a
    sequence holding, per cusp, None (complete) or a coprime (p, q)."""
    filling = tuple(None if f is None else (int(f[0]), int(f[1]))
                    for f in filling)
    for f in filling:
        if f and math.gcd(*f) != 1:
            raise NotCoprime("(%d, %d) not coprime" % f)
    if len(filling) != t.h:
        raise RankDeficient("fillings for %d cusps, triangulation has %d"
                            % (len(filling), t.h))
    rows, rhs = map(list, _edge_basis(tuple(
        tuple(u) + (d,) for u, d in zip(*t.edge_rows()))))
    for j, f in enumerate(filling):
        mu, lam, d_mu, d_lam = t.cusp_rows(j)
        p, q = f or (1, 0)       # an unfilled cusp keeps its meridian row
        rows.append(tuple(p * a + q * b for a, b in zip(mu, lam)))
        rhs.append(p * d_mu + q * d_lam + (2 if f else 0))
    if len(rows) != t.n:
        raise RankDeficient("selected %d equations for %d shapes"
                            % (len(rows), t.n))
    # tuples: (rows, rhs) keys the solver's memos, whatever the precision
    return FilledSystem(triangulation=t, rows=tuple(rows), rhs=tuple(rhs),
                        filling=filling)


@functools.lru_cache(maxsize=4)
def _edge_basis(augmented):
    """Independent edge rows and their rhs, as tuples, by integer row
    reduction of the augmented edge rows (u | d), given as tuples."""
    H = [row for row in hnf_rows(augmented)[0] if any(row)]
    return tuple(tuple(row[:-1]) for row in H), tuple(row[-1] for row in H)


# Arithmetic namespaces: the solver routines below take one as ``ar``.
# _DOUBLE is Python complex; dilog._libmp(prec) works on raw libmp values at
# prec bits, with the bits of mpc arithmetic.
_DOUBLE = SimpleNamespace(
    sub=operator.sub, mul=operator.mul, div=operator.truediv,
    rsub=operator.sub, mul_int=operator.mul, fsum=sum, sum=sum,
    abs_max=lambda F: max(map(abs, F), default=0),
    l1=lambda z: abs(z.real) + abs(z.imag), eq_int=operator.eq,
    lt=operator.lt, pi_i=math.pi * 1j)


_DOUBLE_TOL = -40     # log2 of the doubles' target; they reach about 2^-48
_UNDAMPED_MAX = -32   # log2 of the residual from which no undamped step runs
_FINAL_TESTS = 4      # residual tests at the full working precision
_RUNG_MIN = 64        # the least halved caller precision with a ladder rung
_MAX_STEPS = 100      # damped Newton steps in doubles


def _flat(zs, floor):
    """Indices of the libmp pairs zs with |Im z| < 2^floor."""
    bound = libmp.from_man_exp(1, floor)
    return tuple(i for i, z in enumerate(zs)
                 if libmp.mpf_lt(libmp.mpf_abs(z[1]), bound))


def _as_pair(z):
    """A caller's shape as a libmp (re, im) pair, without rounding."""
    if hasattr(z, "_mpc_"):
        return z._mpc_
    if hasattr(z, "_mpf_"):
        return z._mpf_, libmp.fzero
    z = complex(z)
    return libmp.from_float(z.real), libmp.from_float(z.imag)


def _recorded_logs(zs, precision):
    """Z = (log z, log(1 - z)) at wp = precision + _GUARD bits for libmp
    pairs zs, principal branches: the logs of their dilog shape records,
    which the volume and Chern-Simons sums read again for zs rounded to
    wp."""
    recs = [_record(z, precision) for z in zs]
    return [r.log_z for r in recs] + [r.log_1mz for r in recs]


def _flat_rule(Z, zs, flat, ar):
    """Z with the logs of each shape z = r + i eps indexed by flat taken at
    its limit r + i0: log z = ln|r| + pi i for r < 0, and
    log(1 - z) = ln|1 - r| - pi i for r > 1."""
    Z, n = list(Z), len(zs)
    for i in flat:
        r = (zs[i][0], libmp.fzero)
        Z[i], Z[n + i] = ar.log(r), ar.conj(ar.log(ar.rsub(1, r)))
    return Z


def _row_value(row, rhs, Z, ar):
    """row.Z - pi i rhs, as mp.fsum(c * w) - mp.pi * mp.mpc(0, 1) * rhs."""
    return ar.sub(ar.fsum(ar.mul_int(c, w) for c, w in zip(row, Z) if c),
                  ar.mul_int(rhs, ar.pi_i))


def _system_value(rows, rhs, Z, ar):
    """F = U.Z - pi i d, one entry per equation, and max |F|."""
    F = [_row_value(u, r, Z, ar) for u, r in zip(rows, rhs)]
    return F, ar.abs_max(F)


def _jacobian(rows, zs, ar):
    """dF/d(log z): row[nu] - row[n + nu] z / (1 - z)."""
    ratios = [ar.div(z, ar.rsub(1, z)) for z in zs]
    return [[ar.rsub(a, ar.mul_int(b, r))
             for a, b, r in zip(row, row[len(zs):], ratios)]
            for row in rows]


def _solve(J, b, ar):
    """x with J x = b: Gaussian elimination, pivoting on |Re| + |Im| (as
    BLAS i*amax does, with no square root)."""
    n = len(b)
    A = [list(row) + [v] for row, v in zip(J, b)]
    for c in range(n):
        p = c                         # the first largest, as max() picks
        for r in range(c + 1, n):
            if ar.lt(ar.l1(A[p][c]), ar.l1(A[r][c])):
                p = r
        if ar.eq_int(A[p][c], 0):
            raise JacobianSingular("singular Jacobian")
        A[c], A[p] = A[p], A[c]
        for r in range(c + 1, n):     # columns <= c of row r are not read again
            f = ar.div(A[r][c], A[c][c])
            A[r][c + 1:] = [ar.sub(u, ar.mul(f, v))
                            for u, v in zip(A[r][c + 1:], A[c][c + 1:])]
    x = [0] * n
    for r in reversed(range(n)):
        dot = ar.sum(ar.mul(A[r][k], x[k]) for k in range(r + 1, n))
        x[r] = ar.div(ar.sub(A[r][n], dot), A[r][r])
    return x


def newton_solve(system, initial_shapes=None, precision=256, allow_flat=False):
    """Newton iteration on shape logarithms: a damped search in doubles,
    then one undamped step at each rung of a precision-doubling ladder,
    (precision >> k) + 24 bits for precision >> k >= 64, and last at
    precision + 24 bits, where the residual is tested.  ``steps`` counts the
    steps of both, also those the memos of an earlier solve give: a solve
    at 2p after one at p reuses its doubles search and ladder steps, with
    the bits of a fresh solve.

    A shape with |Im z| < 2^-(min(precision, 128)//8) is flat.  Without
    allow_flat the doubles search rejects flat shapes; above doubles a flat
    shape's logs are taken at z + i0 (_flat_rule) in every step, in the
    accepted residual test and in the lambdas, while the returned shape
    keeps its imaginary part.

    Raises DegenerateShape for a start shape at 0 or 1, and
    JacobianSingular, Diverged or DegeneratedToFlat; a converged result
    satisfies the system to residual < 2^(-precision+24).
    """
    if initial_shapes is None:
        initial_shapes = system.triangulation.numeric_shapes(precision)
    start = [_as_pair(z) for z in initial_shapes]
    for z in map(mp.make_mpc, start):
        if z == 0 or z == 1:
            raise DegenerateShape("shape %s" % z)
    floor = -(min(precision, 128) // 8)     # log2 of the flatness floor
    if not allow_flat and _flat(start, floor):
        raise DegeneratedToFlat(
            "initial shapes on or near the real line (pass allow_flat)")
    try:
        zs, residual, steps, flat = _doubling_solve(
            system, start, precision, floor, allow_flat)
    except (ArithmeticError, ValueError) as exc:  # cmath: overflow, log 0
        raise Diverged("Newton search failed: %s" % exc) from None
    result = SolveResult(shapes=[mp.make_mpc(z) for z in zs], lambdas=None,
                         residual=mp.make_mpf(residual), converged=True,
                         steps=steps, precision=precision, system=system,
                         flat=flat)
    return result._replace(lambdas=[
        mp.mpc(0) if f is None else core_length(result, j)
        for j, f in enumerate(system.filling)])


def _doubling_solve(system, shapes, precision, floor, allow_flat):
    """Damped Newton in doubles from the libmp pairs ``shapes``; then one
    undamped step at each rung w = (precision >> k) + _GUARD, for the halved
    caller precisions precision >> k >= _RUNG_MIN, whose residual is not
    below 2^(-w+_GUARD); at wp = precision + _GUARD, up to _FINAL_TESTS
    residual tests with a step after each failed one.  Shapes below 2^floor
    take the flat rule above doubles.  A residual of 2^_UNDAMPED_MAX or more
    ends the search (Diverged).

    Each rung carries its own guard bits, as in the classical doubling
    Newton iteration (Brent and Zimmermann, *Modern Computer Arithmetic*,
    4.2).  A step at w leaves a residual of about 2^(-w+6).  So the doubles'
    2^-48 is above the first rung's skip bound, 2^-64, every rung steps, and
    the rung below wp leaves about 2^(-precision/2-18), from which one step
    at wp passes the test: wp is evaluated twice, for one step and the
    accepted test.

    The doubles search, every evaluation and every step are memoised on
    what they read: the system's rows and rhs, the iterate, the bits and
    the floor.  The rungs of a solve at p are the working precisions of the
    solves at p/2, p/4, ..., so a solve at 2p after one at p takes their
    search, evaluations and steps from the memos and computes only its own
    two evaluations at wp and the step between them.

    Returns (zs, residual, steps, flat), zs and residual as libmp values at
    wp bits.
    """
    key = system.rows, system.rhs
    # the start's doubles as 53-bit pairs: as complex keys, -0.0 and 0.0 are one
    start = tuple(libmp.mpc_pos(z, 53, libmp.round_nearest) for z in shapes)
    zs, steps = _damped(*key, start, floor, allow_flat)
    # with no step taken, keep the caller's precision; doubles convert exactly
    zs = tuple(map(_as_pair, zs)) if steps else tuple(shapes)
    wp = precision + _GUARD
    ladder = [(precision >> k) + _GUARD
              for k in range(precision.bit_length(), 0, -1)
              if precision >> k >= _RUNG_MIN]
    for w in ladder + [wp] * _FINAL_TESTS:
        ar = _libmp(w)
        if w == wp:
            zs = tuple(map(ar.pos, zs))
        _, _, res, flat = _evaluate(*key, zs, w, floor)
        if w == wp and ar.lt(res, ar.pow2(-precision + _GUARD)):
            return zs, res, steps, flat
        if ar.lt(res, ar.pow2(-w + _GUARD)):
            continue
        if ar.ge(res, ar.pow2(_UNDAMPED_MAX)):
            break
        zs, steps = _step(*key, zs, w, floor), steps + 1
    raise Diverged("residual %s in precision doubling" % ar.show(res))


# entries kept by each solver memo.  A filling solved at 128, 256 and 512
# bits computes 7 evaluations, 4 steps and 1 doubles search, and the solves
# at 256 and 512 bits read those of the solves before them.
_MEMO_SIZE = 8


@functools.lru_cache(maxsize=_MEMO_SIZE)
def _evaluate(rows, rhs, zs, w, floor):
    """(Z, F, max |F|, flat) at w bits for the libmp pairs zs: the logs of
    their dilog shape records, with the flat rule for shapes below 2^floor,
    and the system's values on them."""
    ar, flat = _libmp(w), _flat(zs, floor)
    Z = _flat_rule(_recorded_logs(zs, w - _GUARD), zs, flat, ar)
    F, res = _system_value(rows, rhs, Z, ar)
    return tuple(Z), tuple(F), res, flat


@functools.lru_cache(maxsize=_MEMO_SIZE)
def _step(rows, rhs, zs, w, floor):
    """The iterate after one undamped Newton step at w bits from zs."""
    ar = _libmp(w)
    Z, F, _, _ = _evaluate(rows, rhs, zs, w, floor)
    delta = _solve(_jacobian(rows, zs, ar), [ar.neg(v) for v in F], ar)
    return tuple(ar.exp(ar.add(v, d)) for v, d in zip(Z, delta))


@functools.lru_cache(maxsize=_MEMO_SIZE)
def _damped(rows, rhs, start, floor, allow_flat):
    """Damped Newton in doubles from the 53-bit libmp pairs start to
    residual 2^_DOUBLE_TOL, in at most _MAX_STEPS steps: (zs, steps), zs a
    tuple of complex.
    A step is halved up to 40 times until the max residual falls; shapes at 0,
    1 or (unless allow_flat) within 2^floor of the real line are rejected."""
    tol, floor, pinned = 2.0 ** _DOUBLE_TOL, 2.0 ** floor, 2.0 ** (floor + 2)
    zs = [libmp.mpc_to_complex(z) for z in start]
    Z = [cmath.log(z) for z in zs] + [cmath.log(1 - z) for z in zs]
    F, res = _system_value(rows, rhs, Z, _DOUBLE)
    for step in range(_MAX_STEPS):
        if res < tol:
            return tuple(zs), step
        delta = _solve(_jacobian(rows, zs, _DOUBLE), [-v for v in F], _DOUBLE)
        for lam in [2.0 ** -k for k in range(40)]:
            new_logs = [w + lam * d for w, d in zip(Z, delta)]
            new_zs = [cmath.exp(w) for w in new_logs]
            if any(z in (0, 1) or not allow_flat and abs(z.imag) < floor
                   for z in new_zs):
                continue
            new_Z = new_logs + [cmath.log(1 - z) for z in new_zs]
            new_F, new_res = _system_value(rows, rhs, new_Z, _DOUBLE)
            if new_res < res:
                zs, Z, F, res = new_zs, new_Z, new_F, new_res
                break
        else:
            if not allow_flat and any(abs(z.imag) < pinned for z in zs):
                raise DegeneratedToFlat(
                    "shapes pinned at the flatness floor (pass allow_flat)")
            raise Diverged("no progress at step %d, residual %s"
                           % (step, mp.nstr(res, 5)))
    if res < tol:
        return tuple(zs), _MAX_STEPS
    raise Diverged("step budget exhausted, residual %s" % mp.nstr(res, 5))


def completion_curve(p, q):
    """(r, s) with p s - q r = 1 (extended gcd)."""
    g, x, y = _ext_gcd(p, q)
    if g != 1:
        raise NotCoprime("(%d, %d) not coprime" % (p, q))
    return -y, x


def _ext_gcd(a, b):
    if b == 0:
        return (a, 1, 0) if a >= 0 else (-a, -1, 0)
    g, x, y = _ext_gcd(b, a % b)
    return g, y, x - (a // b) * y


def core_length(result, j, completion=None, precision=None):
    """Complex length of the core geodesic added at cusp j by the (p, q)
    filling of a converged SolveResult, from its shape logs (flat shapes
    read at z + i0) at the result's precision unless another is given.

    lambda_j = +-[(r mu + s lam).Z - pi i (r d_mu + s d_lam)] with
    p s - q r = +-1, (r, s) the completion_curve unless given; imaginary
    part reduced mod 2 pi.  The sign makes Re lambda > 0, or, where
    |Re lambda| < 2^-(precision//2) (a core of length zero), puts
    Im lambda in [0, pi].
    """
    if precision is None:
        precision = result.precision
    system = result.system
    if system is None or system.filling[j] is None:
        raise NotFilled("cusp %d is unfilled" % j)
    p, q = system.filling[j]
    r, s = completion_curve(p, q) if completion is None else completion
    if p * s - q * r not in (1, -1):
        raise NotCoprime("completion (%d, %d) does not complete (%d, %d)"
                         % (r, s, p, q))
    ar = _libmp(precision + _GUARD)
    zs = [ar.pos(_as_pair(z)) for z in result.shapes]
    Z = _flat_rule(_recorded_logs(zs, precision), zs, result.flat, ar)
    mu, lam, d_mu, d_lam = system.triangulation.cusp_rows(j)
    v = _row_value([r * a + s * b for a, b in zip(mu, lam)],
                   r * d_mu + s * d_lam, Z, ar)

    def reduced(im):                # im mod 2 pi, in [-pi, pi)
        k = ar.floor(ar.fadd(ar.fdiv(im, ar.two_pi), ar.pow2(-1)))
        return ar.fsub(im, ar.fmul(ar.two_pi, k))

    zero = ar.lt(ar.fabs(v[0]), ar.pow2(-(precision // 2)))
    if ar.lt(reduced(v[1]) if zero else v[0], libmp.fzero):
        v = ar.neg(v)
    return mp.make_mpc((v[0], reduced(v[1])))


def solution_volume(result, precision=None):
    """Sum of D2 over the solved shapes (flat shapes contribute zero), at the
    result's precision unless another is given."""
    if precision is None:
        precision = result.precision
    ar, total = _libmp(precision + _GUARD), libmp.fzero
    for i, z in enumerate(result.shapes):
        if i not in result.flat:
            total = ar.fadd(total, bloch_wigner(z, precision)._mpf_)
    return mp.make_mpf(total)

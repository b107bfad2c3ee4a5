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
import math
from dataclasses import dataclass
from types import SimpleNamespace

import mpmath as mp

from .dilog import _GUARD, bloch_wigner
from .errors import (BlochError, Diverged, DegenerateShape, DegeneratedToFlat,
                     JacobianSingular, NotCoprime, NotFilled, RankDeficient)
from .lattice import hnf_rows


class FillingSpec:
    """Per-cusp filling: None for complete, or coprime (p, q)."""

    def __init__(self, fillings):
        self.fillings = []
        for f in fillings:
            if f is None:
                self.fillings.append(None)
                continue
            p, q = int(f[0]), int(f[1])
            if math.gcd(p, q) != 1:
                raise NotCoprime("(%d, %d) not coprime" % (p, q))
            self.fillings.append((p, q))

    def __len__(self):
        return len(self.fillings)

    def __iter__(self):
        return iter(self.fillings)

    def __getitem__(self, j):
        return self.fillings[j]


@dataclass
class FilledSystem:
    triangulation: object
    rows: list       # integer coefficient rows over Z (length 2n each)
    rhs: list        # rhs in units of pi i (integers; 2 extra for filled cusps)
    filling: FillingSpec


@dataclass
class SolveResult:
    shapes: list
    lambdas: list
    residual: object
    converged: bool
    steps: int
    system: FilledSystem = None
    flat: tuple = ()     # indices of shapes at or below the flatness floor


def filled_system(t, filling):
    """Square nonlinear system for the given filling of the triangulation."""
    if not isinstance(filling, FillingSpec):
        filling = FillingSpec(filling)
    if len(filling) != t.h:
        raise RankDeficient("filling spec for %d cusps, triangulation has %d"
                            % (len(filling), t.h))
    # independent edge rows by integer row reduction of the augmented rows
    H, _ = hnf_rows([u + [d] for u, d in zip(*t.edge_rows())])
    rows = [row[:-1] for row in H if any(row)]
    rhs = [row[-1] for row in H if any(row)]
    for j, f in enumerate(filling):
        mu, lam, d_mu, d_lam = t.cusp_rows(j)
        p, q = f or (1, 0)       # an unfilled cusp keeps its meridian row
        rows.append([p * a + q * b for a, b in zip(mu, lam)])
        rhs.append(p * d_mu + q * d_lam + (2 if f else 0))
    if len(rows) != t.n:
        raise RankDeficient("selected %d equations for %d shapes"
                            % (len(rows), t.n))
    return FilledSystem(triangulation=t, rows=rows, rhs=rhs, filling=filling)


# the mpmath functions the damped search uses, in doubles
_DOUBLE = SimpleNamespace(exp=cmath.exp, log=cmath.log, fsum=sum, pi=math.pi)
_DOUBLE_TOL = 2.0 ** -40     # doubles reach about 2^-48 on these systems
_UNDAMPED_MAX = 2.0 ** -32   # no undamped step from a residual this large
_FINAL_TESTS = 4             # residual tests at the full working precision
_MAX_STEPS = 100             # damped Newton steps per stage


def _shape_logs(zs, ar=mp):
    """Z = (log z, log(1 - z)), principal branches."""
    return [ar.log(z) for z in zs] + [ar.log(1 - z) for z in zs]


def _system_value(system, Z, ar=mp):
    """F = U.Z - pi i d, one entry per equation, and max |F|."""
    pi_i = ar.pi * 1j
    F = [ar.fsum(c * w for c, w in zip(row, Z) if c) - pi_i * r
         for row, r in zip(system.rows, system.rhs)]
    return F, max(map(abs, F), default=0)


def _jacobian(system, zs):
    """dF/d(log z): row[nu] - row[n + nu] z / (1 - z)."""
    ratios = [z / (1 - z) for z in zs]
    return [[a - b * r for a, b, r in zip(row, row[len(zs):], ratios)]
            for row in system.rows]


def _solve(J, b):
    """x with J x = b: Gaussian elimination, pivoting on |Re| + |Im| (as
    BLAS i*amax does, with no square root)."""
    n = len(b)
    A = [list(row) + [v] for row, v in zip(J, b)]
    for c in range(n):
        p = max(range(c, n), key=lambda r: abs(A[r][c].real) + abs(A[r][c].imag))
        if A[p][c] == 0:
            raise JacobianSingular("singular Jacobian")
        A[c], A[p] = A[p], A[c]
        for r in range(c + 1, n):
            f = A[r][c] / A[c][c]
            A[r] = [u - f * v for u, v in zip(A[r], A[c])]
    x = [0] * n
    for r in reversed(range(n)):
        x[r] = (A[r][n] - sum(A[r][k] * x[k] for k in range(r + 1, n))) / A[r][r]
    return x


def newton_solve(system, initial_shapes=None, precision=256, allow_flat=False):
    """Newton iteration on shape logarithms: a damped search in doubles,
    then one undamped step per precision doubling up to precision + 24 bits,
    where the residual is tested.  If that fails, damped Newton at 128 bits
    and then at full precision restarts from the initial shapes.  ``steps``
    counts the Newton steps behind the result: those in doubles and at
    higher precision, or, if the fallback ran, its damped steps.

    Raises JacobianSingular / Diverged / DegeneratedToFlat; a converged
    result satisfies the system to residual < 2^(-precision+24).
    """
    t = system.triangulation
    if initial_shapes is None:
        initial_shapes = t.numeric_shapes(precision)
    floor = mp.mpf(2) ** (-(min(precision, 128) // 8))
    if not allow_flat and any(abs(mp.im(mp.mpc(z))) < floor
                              for z in initial_shapes):
        raise DegeneratedToFlat(
            "initial shapes on or near the real line (pass allow_flat)")
    try:
        zs, Z, residual, steps = _doubling_solve(
            system, initial_shapes, precision, float(floor), allow_flat)
    except (BlochError, ArithmeticError, ValueError):  # cmath: overflow, log 0
        zs = None
    if zs is None:
        shapes, steps = initial_shapes, 0
        for stage in [128, precision] if precision > 128 else [precision]:
            shapes, k = _newton_stage(system, shapes, stage, allow_flat)
            steps += k
        with mp.workprec(precision + _GUARD):
            zs = [mp.mpc(z) for z in shapes]
            Z = _shape_logs(zs)
            residual = _system_value(system, Z)[1]
        if not residual < mp.mpf(2) ** (-precision + _GUARD):
            raise Diverged("Newton residual %s above tolerance"
                           % mp.nstr(residual, 5))
    with mp.workprec(precision + _GUARD):
        lambdas = [mp.mpc(0) if f is None else _core_length(t, Z, j, f)
                   for j, f in enumerate(system.filling)]
    floor = mp.mpf(2) ** (-(precision // 8))
    flat = tuple(i for i, z in enumerate(zs) if abs(z.imag) < floor)
    return SolveResult(shapes=zs, lambdas=lambdas, residual=residual,
                       converged=True, steps=steps, system=system, flat=flat)


def _doubling_solve(system, shapes, precision, floor, allow_flat):
    """Damped Newton in doubles; then, up the halving ladder w < wp =
    precision + _GUARD, one undamped step at each level whose residual is not
    below 2^(-w+_GUARD); at wp, up to _FINAL_TESTS residual tests with a step
    after each failed one.  A residual of _UNDAMPED_MAX or more ends the
    search (Diverged).  Returns (zs, Z, residual, steps).
    """
    zs = [complex(z) for z in shapes]
    zs, steps = _damped(system, zs, _shape_logs(zs, _DOUBLE), _DOUBLE_TOL,
                        floor, allow_flat, _DOUBLE)
    # with no step taken, keep the caller's precision; doubles convert exactly
    zs = [mp.mpc(z) for z in zs] if steps else shapes
    wp = precision + _GUARD
    ladder = [wp >> k for k in range(wp.bit_length(), 0, -1) if wp >> k > 53]
    for w in ladder + [wp] * _FINAL_TESTS:
        with mp.workprec(w):
            if w == wp:
                zs = [mp.mpc(z) for z in zs]
            Z = _shape_logs(zs)
            F, res = _system_value(system, Z)
            if w == wp and res < mp.mpf(2) ** (-precision + _GUARD):
                return zs, Z, res, steps
            if res < mp.mpf(2) ** (-w + _GUARD):
                continue
            if res >= _UNDAMPED_MAX:
                break
            delta = _solve(_jacobian(system, zs), [-v for v in F])
            zs, steps = [mp.exp(v + d) for v, d in zip(Z, delta)], steps + 1
    raise Diverged("residual %s in precision doubling" % mp.nstr(res, 5))


def _newton_stage(system, shapes, precision, allow_flat):
    """Damped Newton at precision + _GUARD bits: (shapes, steps)."""
    with mp.workprec(precision + _GUARD):
        zs = [mp.mpc(z) for z in shapes]
        tol, floor = [mp.mpf(2) ** -e for e in (precision - _GUARD, precision // 8)]
        return _damped(system, zs, _shape_logs(zs), tol, floor, allow_flat, mp)


def _damped(system, zs, Z, tol, floor, allow_flat, ar):
    """Damped Newton in ``ar`` (mpmath or _DOUBLE) to residual tol, in at
    most _MAX_STEPS steps: (zs, steps).
    A step is halved up to 40 times until the max residual falls; shapes at 0,
    1 or (unless allow_flat) within floor of the real line are rejected."""
    F, res = _system_value(system, Z, ar)
    for step in range(_MAX_STEPS):
        if res < tol:
            return zs, step
        delta = _solve(_jacobian(system, zs), [-v for v in F])
        for lam in [2.0 ** -k for k in range(40)]:
            new_logs = [w + lam * d for w, d in zip(Z, delta)]
            new_zs = [ar.exp(w) for w in new_logs]
            if any(z == 1 or z == 0 for z in new_zs) or not allow_flat and \
                    any(abs(z.imag) < floor for z in new_zs):
                continue
            new_Z = new_logs + [ar.log(1 - z) for z in new_zs]
            new_F, new_res = _system_value(system, new_Z, ar)
            if new_res < res:
                zs, Z, F, res = new_zs, new_Z, new_F, new_res
                break
        else:
            if not allow_flat and any(abs(z.imag) < 4 * floor for z in zs):
                raise DegeneratedToFlat(
                    "shapes pinned at the flatness floor (pass allow_flat)")
            raise Diverged("no progress at step %d, residual %s"
                           % (step, mp.nstr(res, 5)))
    if res < tol:
        return zs, _MAX_STEPS
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


def core_length_from_shapes(t, zs, j, pq, completion=None, precision=256):
    """Complex length of the core geodesic added at cusp j by a (p, q) filling.

    lambda_j = +-[(r mu + s lam).Z - pi i (r d_mu + s d_lam)] with
    p s - q r = 1; sign fixed so Re > 0, imaginary part reduced mod 2 pi.
    """
    with mp.workprec(precision + _GUARD):
        return _core_length(t, _shape_logs(zs), j, pq, completion)


def _core_length(t, Z, j, pq, completion=None):
    """core_length_from_shapes from the shape logs Z, at the working precision."""
    p, q = pq
    if completion is None:
        completion = completion_curve(p, q)
    r, s = completion
    if p * s - q * r not in (1, -1):
        raise NotCoprime("completion (%d, %d) does not complete (%d, %d)"
                         % (r, s, p, q))
    mu, lam, d_mu, d_lam = t.cusp_rows(j)
    v = mp.fsum((r * a + s * b) * w for a, b, w in zip(mu, lam, Z)) \
        - mp.pi * mp.mpc(0, 1) * (r * d_mu + s * d_lam)
    if mp.re(v) < 0:
        v = -v
    im = mp.im(v)
    twopi = 2 * mp.pi
    im = im - twopi * mp.floor(im / twopi + mp.mpf(1) / 2)
    return mp.mpc(mp.re(v), im)


def core_length(result, j, completion=None, precision=256):
    """Core length at cusp j of a converged SolveResult."""
    system = result.system
    if system is None or system.filling[j] is None:
        raise NotFilled("cusp %d is unfilled" % j)
    return core_length_from_shapes(system.triangulation, result.shapes, j,
                                   system.filling[j], completion=completion,
                                   precision=precision)


def solution_volume(result, precision=256):
    """Sum of D2 over the solved shapes (flat shapes contribute zero)."""
    with mp.workprec(precision + _GUARD):
        total = mp.mpf(0)
        for z in result.shapes:
            if z == 0 or z == 1:
                raise DegenerateShape("solved shape %s" % z)
            total += bloch_wigner(z, precision)
        return total

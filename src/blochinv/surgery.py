"""Hyperbolic Dehn surgery: deform a triangulation's shapes to satisfy
filling equations, by damped Newton iteration on shape logarithms.

The complete system U.Z = pi i d is over-determined; the solver keeps a
maximal independent set of edge rows (their rank is n - h for an h-cusped
geometric triangulation) and one row per cusp: the meridian row for an
unfilled cusp (completeness), or p*meridian + q*longitude = 2 pi i for a
(p, q)-filled one (the core curve condition).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath as mp

from .dilog import _GUARD, bloch_wigner
from .errors import (Diverged, DegenerateShape, DegeneratedToFlat,
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
    edge_U, edge_d = t.edge_rows()
    # independent edge rows by integer row reduction of the augmented rows
    aug = [edge_U[i] + [edge_d[i]] for i in range(t.n)]
    H, Uop = hnf_rows(aug)
    keep = []
    for i, row in enumerate(H):
        if any(row):
            keep.append((row[:-1], row[-1]))
    rows = [r for r, _ in keep]
    rhs = [dd for _, dd in keep]
    for j in range(t.h):
        mu, lam, d_mu, d_lam = t.cusp_rows(j)
        f = filling[j]
        if f is None:
            rows.append(list(mu))
            rhs.append(d_mu)
        else:
            p, q = f
            rows.append([p * mu[k] + q * lam[k] for k in range(2 * t.n)])
            rhs.append(p * d_mu + q * d_lam + 2)
    if len(rows) != t.n:
        raise RankDeficient("selected %d equations for %d shapes"
                            % (len(rows), t.n))
    return FilledSystem(triangulation=t, rows=rows, rhs=rhs, filling=filling)


def _system_value(system, logs, zs, precision):
    n = system.triangulation.n
    Z = logs + [mp.log(1 - z) for z in zs]
    out = []
    for row, r in zip(system.rows, system.rhs):
        v = mp.fsum([row[k] * Z[k] for k in range(2 * n)]) - mp.pi * mp.mpc(0, 1) * r
        out.append(v)
    return out


def newton_solve(system, initial_shapes=None, precision=256, allow_flat=False,
                 max_steps=100):
    """Damped Newton on shape logarithms; solves at 128 bits then polishes.

    Raises JacobianSingular / Diverged / DegeneratedToFlat; a converged
    result satisfies the system to residual < 2^(-precision+24).
    """
    t = system.triangulation
    if initial_shapes is None:
        initial_shapes = t.numeric_shapes(precision)
    if not allow_flat:
        floor = mp.mpf(2) ** (-(min(precision, 128) // 8))
        if any(abs(mp.im(mp.mpc(z))) < floor for z in initial_shapes):
            raise DegeneratedToFlat(
                "initial shapes on or near the real line (pass allow_flat)")
    shapes = list(initial_shapes)
    total_steps = 0
    with mp.workprec(precision + _GUARD):
        zs0 = [mp.mpc(z) for z in shapes]
        F0 = _system_value(system, [mp.log(z) for z in zs0], zs0, precision)
        already = F0 and max(abs(v) for v in F0) < mp.mpf(2) ** (-precision + _GUARD)
    if not already:
        stages = [128, precision] if precision > 128 else [precision]
        for stage in stages:
            shapes, steps = _newton_stage(system, shapes, stage, allow_flat,
                                          max_steps)
            total_steps += steps
    with mp.workprec(precision + _GUARD):
        zs = [mp.mpc(z) for z in shapes]
        logs = [mp.log(z) for z in zs]
        F = _system_value(system, logs, zs, precision)
        residual = max(abs(v) for v in F) if F else mp.mpf(0)
        tol = mp.mpf(2) ** (-precision + _GUARD)
        converged = residual < tol
    if not converged:
        raise Diverged("Newton residual %s above tolerance" % mp.nstr(residual, 5))
    lambdas = []
    for j in range(t.h):
        if system.filling[j] is None:
            lambdas.append(mp.mpc(0))
        else:
            lambdas.append(core_length_from_shapes(
                t, zs, j, system.filling[j], precision=precision))
    floor = mp.mpf(2) ** (-(precision // 8))
    flat = tuple(i for i, z in enumerate(zs) if abs(mp.im(z)) < floor)
    return SolveResult(shapes=zs, lambdas=lambdas, residual=residual,
                       converged=True, steps=total_steps, system=system,
                       flat=flat)


def _newton_stage(system, shapes, precision, allow_flat, max_steps):
    t = system.triangulation
    n = t.n
    floor = mp.mpf(2) ** (-(precision // 8))
    with mp.workprec(precision + _GUARD):
        zs = [mp.mpc(z) for z in shapes]
        logs = [mp.log(z) for z in zs]
        tol = mp.mpf(2) ** (-precision + _GUARD)
        F = _system_value(system, logs, zs, precision)
        res = max(abs(v) for v in F) if F else mp.mpf(0)
        for step in range(max_steps):
            if res < tol:
                return zs, step
            J = mp.matrix(n, n)
            for r, row in enumerate(system.rows):
                for nu in range(n):
                    J[r, nu] = row[nu] - row[n + nu] * zs[nu] / (1 - zs[nu])
            try:
                delta = mp.lu_solve(J, mp.matrix([-v for v in F]))
            except ZeroDivisionError:
                raise JacobianSingular("singular Jacobian at step %d" % step)
            lam = mp.mpf(1)
            improved = False
            for _ in range(40):
                new_logs = [logs[nu] + lam * delta[nu] for nu in range(n)]
                new_zs = [mp.exp(w) for w in new_logs]
                if any(z == 1 or z == 0 for z in new_zs):
                    lam /= 2
                    continue
                if not allow_flat and any(abs(mp.im(z)) < floor for z in new_zs):
                    lam /= 2
                    continue
                newF = _system_value(system, new_logs, new_zs, precision)
                new_res = max(abs(v) for v in newF) if newF else mp.mpf(0)
                if new_res < res:
                    zs, logs, F, res = new_zs, new_logs, newF, new_res
                    improved = True
                    break
                lam /= 2
            if not improved:
                if not allow_flat and any(abs(mp.im(z)) < 4 * floor for z in zs):
                    raise DegeneratedToFlat(
                        "shapes pinned at the flatness floor (pass allow_flat)")
                raise Diverged("no progress at step %d, residual %s"
                               % (step, mp.nstr(res, 5)))
        if res < tol:
            return zs, max_steps
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
    p, q = pq
    if completion is None:
        completion = completion_curve(p, q)
    r, s = completion
    if p * s - q * r not in (1, -1):
        raise NotCoprime("completion (%d, %d) does not complete (%d, %d)"
                         % (r, s, p, q))
    mu, lam, d_mu, d_lam = t.cusp_rows(j)
    with mp.workprec(precision + _GUARD):
        Z = [mp.log(z) for z in zs] + [mp.log(1 - z) for z in zs]
        row = [r * mu[k] + s * lam[k] for k in range(2 * t.n)]
        v = mp.fsum([row[k] * Z[k] for k in range(2 * t.n)]) \
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

"""Reference DP and KKT certificate with numpy-scalar loops.

These are the bodies of ``gfl.solver._solve_path`` and ``gfl.solver.check_kkt``
as they were before their loops moved to Python floats: the same arithmetic in
the same order, but every element is read from an ndarray (so every operation
is a ``np.float64`` one) and every per-step output is written into one.
``test_solver_reference.py`` checks that the package returns the same bits.
"""

from __future__ import annotations

import math

import numpy as np

from gfl.errors import ConfigError, GflError
from gfl.solver import FusedLassoProblem, _QuadMessage, _StepMessage


def solve_path(y, lam, loss, a=None, b=None):
    """Run the DP; returns theta (smallest-optimal tie-breaking)."""
    y = np.asarray(y, dtype=float)
    n = y.size
    if lam == 0.0:
        return y.copy()

    lo = np.empty(n)
    hi = np.empty(n)
    msg = _QuadMessage() if loss.kind == "square" else _StepMessage(loss.tau)
    if a is not None:
        msg.add_abs(a, lam)
    for i in range(n):
        msg.add_data(y[i])
        if i < n - 1:
            lo[i] = msg.crossing_left(-lam)
            hi[i] = msg.crossing_right(lam)
    if b is not None:
        msg.add_abs(b, lam)
    theta_last = msg.crossing_left(0.0)

    if not math.isfinite(theta_last):
        raise GflError("unbounded objective")
    theta = np.empty(n)
    theta[n - 1] = theta_last
    for i in range(n - 2, -1, -1):
        theta[i] = min(max(theta[i + 1], lo[i]), hi[i])
    return theta


def check_kkt(problem: FusedLassoProblem, theta) -> tuple[float, np.ndarray]:
    """Interval propagation of the edge dual variables; returns (residual, z)."""
    y, lam, loss = problem.y, problem.lam, problem.loss
    theta = np.asarray(theta, dtype=float)
    if theta.shape != y.shape or not np.all(np.isfinite(theta)):
        raise ConfigError("theta must be a finite vector matching y")
    n = y.size
    r = y - theta
    g_lo = -np.atleast_1d(loss.rho_plus(r))
    g_hi = -np.atleast_1d(loss.rho_minus(r))

    resid = 0.0
    zlo, zhi = 0.0, 0.0
    bands = []
    for i in range(n):
        clo = zlo + g_lo[i]
        chi = zhi + g_hi[i]
        if i < n - 1:
            if theta[i + 1] > theta[i]:
                alo = ahi = lam
            elif theta[i + 1] < theta[i]:
                alo = ahi = -lam
            else:
                alo, ahi = -lam, lam
        else:
            alo = ahi = 0.0
        nlo = max(clo, alo)
        nhi = min(chi, ahi)
        if nlo > nhi:
            resid = max(resid, nlo - nhi)
            mid = 0.5 * (nlo + nhi)
            nlo = nhi = mid
        zlo, zhi = nlo, nhi
        bands.append((zlo, zhi))

    z = np.empty(max(n - 1, 0))
    cur = 0.0  # z_n
    for i in range(n - 1, 0, -1):
        blo, bhi = bands[i - 1]
        wlo = cur - g_hi[i]
        whi = cur - g_lo[i]
        slo = max(blo, wlo)
        shi = min(bhi, whi)
        if slo > shi:
            cur = 0.5 * (max(blo, wlo) + min(bhi, whi))
            cur = min(max(cur, blo), bhi)
        else:
            cur = min(max(cur, slo), shi)
        z[i - 1] = cur
    return resid, z

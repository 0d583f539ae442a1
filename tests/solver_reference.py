"""Reference solvers and certificates for the tests.

``solve_path`` and ``check_kkt`` are the bodies of ``gfl.solver``'s DP and
of ``gfl.solver.check_kkt`` as they were before their loops moved to Python
floats: the same arithmetic in the same order, but every element is read from
an ndarray (so every operation is a ``np.float64`` one) and every per-step
output is written into one.  ``solve_path`` drives the message classes
``_QuadMessage`` and ``_StepMessage`` that the package's DP used before each
loss got its own inlined loop, so ``test_solver_reference.py`` checks the
package's C kernels (``gfl/_kernels.c``) against the original class-based
arithmetic, bit for bit.

The messages' ``add_abs`` and the ``a``/``b`` parameters of ``solve_path``
add the boundary terms lam*(|theta_1 - a| + |theta_m - b|); only the tests
use that boundary-augmented problem (``solve_augmented``), together with the
grid oracle ``oracle_solve`` and the interval subgradient scores that
certify the augmented solutions.
"""

from __future__ import annotations

import math
from bisect import bisect_left

import numpy as np

from gfl.errors import ConfigError, GflError
from gfl.solver import FusedLassoProblem

_INF = math.inf


# ---------------------------------------------------------------------------
# square loss: derivative is piecewise linear, kept as knots + interval
# coefficients relative to a global affine offset (A, B).
# ---------------------------------------------------------------------------


class _QuadMessage:
    """Derivative of the running message for the square loss.

    ``xs`` are knot positions; ``cf`` holds one (a, b) pair per interval
    (len(xs) + 1 of them), where the actual derivative on the interval is
    (a + A)*x + (b + B).  The data term 0.5*(x - y)^2 only touches (A, B),
    so each DP step is O(1) amortized.
    """

    __slots__ = ("xs", "cf", "A", "B")

    def __init__(self):
        self.xs: list[float] = []
        self.cf: list[tuple[float, float]] = [(0.0, 0.0)]
        self.A = 0.0
        self.B = 0.0

    def add_data(self, y: float) -> None:
        self.A += 1.0
        self.B -= y

    def add_abs(self, center: float, weight: float) -> None:
        """Add weight*|x - center| (O(#intervals); used only for boundaries)."""
        xs, cf = self.xs, self.cf
        pos = bisect_left(xs, center)
        xs.insert(pos, center)
        a, b = cf[pos]
        cf.insert(pos, (a, b))
        for j in range(pos + 1):
            a, b = cf[j]
            cf[j] = (a, b - weight)
        for j in range(pos + 1, len(cf)):
            a, b = cf[j]
            cf[j] = (a, b + weight)

    def crossing_left(self, target: float) -> float:
        """Smallest x with derivative(x+) >= target; pops intervals below it
        and replaces the left tail by constant slope ``target`` from there."""
        xs, cf, A, B = self.xs, self.cf, self.A, self.B
        floor_x = -_INF
        while True:
            a0, b0 = cf[0]
            sl = a0 + A
            ic = b0 + B
            right_end = xs[0] if xs else _INF
            if sl > 0.0:
                u = (target - ic) / sl
            elif ic >= target:
                u = -_INF
            else:
                u = _INF
            if u <= right_end:
                if floor_x > u:
                    u = floor_x
                break
            if not xs:
                raise GflError("derivative stays below target; objective not coercive")
            floor_x = xs.pop(0)
            cf.pop(0)
        if u == -_INF:
            return u
        # left tail becomes exactly `target`
        if xs and xs[0] == u:
            cf[0] = (-A, target - B)
        else:
            xs.insert(0, u)
            cf.insert(0, (-A, target - B))
        return u

    def crossing_right(self, target: float) -> float:
        """Smallest x such that derivative >= target on [x, inf); clips the tail."""
        xs, cf, A, B = self.xs, self.cf, self.A, self.B
        ceil_x = _INF
        while True:
            a0, b0 = cf[-1]
            sl = a0 + A
            ic = b0 + B
            left_end = xs[-1] if xs else -_INF
            if sl > 0.0:
                u = (target - ic) / sl
            elif ic >= target:
                u = -_INF
            else:
                u = _INF
            if u >= left_end:
                if ceil_x < u:
                    u = ceil_x
                break
            if not xs:
                raise GflError("derivative stays above target; objective not coercive")
            ceil_x = xs.pop()
            cf.pop()
        if u == _INF:
            return u
        if xs and xs[-1] == u:
            cf[-1] = (-A, target - B)
        else:
            xs.append(u)
            cf.append((-A, target - B))
        return u


# ---------------------------------------------------------------------------
# quantile loss: derivative is a nondecreasing step function.
# ---------------------------------------------------------------------------


class _StepMessage:
    """Derivative of the running message for the quantile loss.

    Sorted breakpoint positions ``bp`` with positive jumps ``jm``; ``c0`` is
    the derivative left of every breakpoint and ``clast`` right of every one.
    Only live breakpoints are kept: data breakpoints are inserted in sorted
    order, and clipping deletes the ones it passes from the ends, as
    ``_QuadMessage`` does with its knots.
    """

    __slots__ = ("tau", "bp", "jm", "c0", "clast")

    def __init__(self, tau: float):
        self.tau = tau
        self.bp: list[float] = []
        self.jm: list[float] = []
        self.c0 = 0.0
        self.clast = 0.0

    def _insert(self, x: float, jump: float) -> None:
        bp = self.bp
        pos = bisect_left(bp, x)
        if pos < len(bp) and bp[pos] == x:
            self.jm[pos] += jump
        else:
            bp.insert(pos, x)
            self.jm.insert(pos, jump)
        self.clast += jump

    def add_data(self, y: float) -> None:
        self.c0 -= self.tau
        self.clast -= self.tau
        self._insert(y, 1.0)

    def add_abs(self, center: float, weight: float) -> None:
        self.c0 -= weight
        self.clast -= weight
        self._insert(center, 2.0 * weight)

    def crossing_left(self, target: float) -> float:
        """Smallest x with derivative(x+) >= target; left tail set to target."""
        if self.c0 >= target:
            return -_INF
        bp, jm = self.bp, self.jm
        c = self.c0
        h = 0
        while h < len(bp) and c < target:
            c += jm[h]
            h += 1
        if c < target:
            raise GflError("derivative stays below target; objective not coercive")
        h -= 1  # keep the crossing breakpoint with an adjusted jump
        jm[h] = c - target
        del bp[:h]
        del jm[:h]
        self.c0 = target
        return bp[0]

    def crossing_right(self, target: float) -> float:
        """Smallest x with derivative >= target on [x, inf); right tail set to target."""
        if self.clast <= target:
            return _INF
        bp, jm = self.bp, self.jm
        c = self.clast
        t = len(bp)
        while t > 1 and c - jm[t - 1] >= target:
            t -= 1
            c -= jm[t]
        # piece left of bp[t-1] is below target (or t == 1); crossing at bp[t-1]
        jm[t - 1] = target - (c - jm[t - 1])
        if jm[t - 1] < 0.0:
            raise GflError("inconsistent step message")
        del bp[t:]
        del jm[t:]
        self.clast = target
        return bp[t - 1]


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


def solve_augmented(y, lam, a: float, b: float, loss) -> np.ndarray:
    """Minimize the boundary-augmented objective with terms lam*|theta_1 - a|
    and lam*|theta_m - b| added; the chain length m is preserved exactly."""
    if not (np.isfinite(a) and np.isfinite(b)):
        raise ConfigError("boundary values must be finite")
    FusedLassoProblem(y=np.asarray(y, dtype=float), lam=lam, loss=loss)  # validate
    return solve_path(y, lam, loss, a=a, b=b)


def oracle_solve(problem: FusedLassoProblem, step: float = 1e-3) -> np.ndarray:
    """Grid minimizer over theta in grid^n, grid spanning [min y - 1, max y + 1].

    Test-only reference: the chain minimum over the full product grid is
    computed by exact per-stage minimization (equivalent to enumerating all
    grid^n candidates), so the value is within Lipschitz * step * sqrt(n) of
    the continuous optimum.  Refuses n > 4.
    """
    y, lam, loss = problem.y, problem.lam, problem.loss
    n = y.size
    if n > 4:
        raise ConfigError("oracle_solve is restricted to n <= 4")
    g = np.arange(float(np.min(y)) - 1.0, float(np.max(y)) + 1.0 + 0.5 * step, step)
    lh = lam * step

    def _tv_min(cost):
        # min_k cost[k] + lam*|g_j - g_k| via two running-minimum passes
        j = np.arange(cost.size)
        fwd = lh * j + np.minimum.accumulate(cost - lh * j)
        rev = cost[::-1]
        jr = np.arange(cost.size)
        bwd = (lh * jr + np.minimum.accumulate(rev - lh * jr))[::-1]
        return np.minimum(fwd, bwd)

    stage_costs = []
    cost = np.asarray(loss.rho(y[0] - g), dtype=float)
    stage_costs.append(cost)
    for i in range(1, n):
        cost = np.asarray(loss.rho(y[i] - g), dtype=float) + _tv_min(cost)
        stage_costs.append(cost)

    theta = np.empty(n)
    j = int(np.argmin(stage_costs[-1]))
    theta[n - 1] = g[j]
    for i in range(n - 2, -1, -1):
        total = stage_costs[i] + lam * np.abs(g - theta[i + 1])
        j = int(np.argmin(total))
        theta[i] = g[j]
    return theta


# ---------------------------------------------------------------------------
# interval subgradient scores for the boundary-augmented problem
# ---------------------------------------------------------------------------


def interval_score_upper(y, lam, loss, alpha: float) -> float:
    """max over 1 <= s <= i <= t <= m (any i) of the upper subgradient score.

    The score for (s, t) is sum_{j=s..t} rho'_+(y_j - alpha) plus an offset of
    -2*lam when both endpoints are interior, 0 when exactly one endpoint
    touches the boundary, and +2*lam when the interval is the whole chain.
    Any boundary-augmented solution with some theta_i >= alpha forces this
    maximum to be >= 0 over intervals containing i; maximizing over all (s, t)
    gives a single conservative certificate.
    """
    return _interval_score(np.asarray(loss.rho_plus(y - alpha), dtype=float), lam, sense=+1)


def interval_score_lower(y, lam, loss, alpha: float) -> float:
    """min over intervals of the symmetric lower score, using rho'_-(y_j + alpha)
    with offsets +2*lam / 0 / -2*lam; a solution with theta_i <= -alpha forces
    this minimum to be <= 0."""
    return _interval_score(np.asarray(loss.rho_minus(y + alpha), dtype=float), lam, sense=-1)


def _interval_score(vals: np.ndarray, lam: float, sense: int) -> float:
    m = vals.size
    prefix = np.concatenate(([0.0], np.cumsum(vals)))
    best = -_INF if sense > 0 else _INF
    for s in range(1, m + 1):
        for t in range(s, m + 1):
            z = prefix[t] - prefix[s - 1]
            if s != 1 and t != m:
                off = -2.0 * lam
            elif s == 1 and t == m:
                off = 2.0 * lam
            else:
                off = 0.0
            z += sense * off
            if sense > 0:
                if z > best:
                    best = z
            else:
                if z < best:
                    best = z
    return float(best)

"""Exact solver for 1D total-variation-penalized regression with a convex loss.

The objective is

    sum_i rho(y_i - theta_i) + lam * sum_i |theta_i - theta_{i+1}|.

The algorithm is forward-backward message passing on the chain: the running
message is a convex function of theta_i whose derivative is maintained
explicitly.  Each step adds the data term and then "clips" the derivative to
[-lam, +lam], which is exactly the infimal convolution with lam*|.|, and
records the clip window.  Each loss has its own forward loop with the message
state in local variables:

- square loss (``_square_forward``): the derivative is piecewise linear, its
  knots and per-interval coefficients kept in three ``collections.deque``s
  relative to a global affine offset, so clipping pops and pushes at either
  end in O(1);
- quantile loss (``_quantile_forward``): the derivative is a step function,
  its breakpoints and jumps kept in two sorted lists that take each data
  point by ``bisect_left`` and ``list.insert``.

Both keep only live knots or breakpoints: clipping deletes what it passes
from the two ends, so nothing depends on how many entries were ever deleted.
The shared backward pass clamps each theta_i to the clip window recorded at
its step, picking the smallest optimal value wherever the optimum is a face.

Every fit is certified.  ``check_kkt`` runs two passes over the elements: a
forward pass (``_kkt_bands``) that propagates the feasible band of each dual
variable and yields the residual, and a backward pass (``_kkt_dual``) that
picks one dual vector z inside the bands.  ``solve`` runs only the forward
pass; it keeps the bands, and the backward pass runs on the first read of
``FusedLassoSolution.dual_z``.

Hot loops run on Python floats.  Every per-element loop (the DP, its backward
clamp, and both passes of the certificate) iterates over a ``memoryview`` of
each input array, built once at the boundary (per-edge constants are
precomputed with ``np.where``), collects its per-step outputs in
``array("d")``, and converts them back to an ndarray once.  A memoryview hands
out Python floats without the 32 bytes per element a ``tolist()`` copy would
hold.  Indexing an ndarray inside the loop would hand out ``np.float64``
scalars instead, and every ``+``, comparison and ``max`` on those costs
several times the float one; the arithmetic is the same either way, so the
results are bit-identical.  For the
same reason a two-way ``max(a, b)`` is written as the comparison
``b if b > a else a`` (and ``min(a, b)`` as ``b if b < a else a``), or as
``if b > a: a = b`` in a clamp: that is exactly what the builtin returns, ties
and signed zeros included, without the cost of a builtin call.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ConfigError, GflError

_INF = math.inf


@dataclass(frozen=True, eq=False)
class FusedLassoProblem:
    y: np.ndarray
    lam: float
    loss: object

    def __post_init__(self):
        y = np.asarray(self.y, dtype=float)
        object.__setattr__(self, "y", y)
        if y.ndim != 1 or y.size < 1:
            raise ConfigError("y must be a nonempty 1D vector")
        if not np.all(np.isfinite(y)):
            raise ConfigError("y contains non-finite values")
        if not (np.isfinite(self.lam) and self.lam >= 0):
            raise ConfigError("lambda must be finite and nonnegative")


@dataclass(frozen=True, eq=False)
class FusedLassoSolution:
    """A fit and its optimality certificate.

    ``dual_z`` (one multiplier per interior edge) is built by the
    certificate's backward pass the first time it is read, from the forward
    pass's state that ``solve`` keeps; that state holds no view of ``y`` or
    ``theta_hat``.
    """

    theta_hat: np.ndarray
    kkt_residual: float
    objective_value: float
    _kkt_state: tuple = field(repr=False)

    @cached_property
    def dual_z(self) -> np.ndarray:
        return _kkt_dual(*self._kkt_state)


def objective(y, lam, loss, theta) -> float:
    theta = np.asarray(theta, dtype=float)
    fit = float(np.sum(loss.rho(y - theta)))
    tv = float(np.sum(np.abs(np.diff(theta)))) if theta.size > 1 else 0.0
    return fit + lam * tv


def _square_forward(ys, lam, lo_append, hi_append) -> float:
    """Forward pass for the square loss; returns theta_n.

    The message derivative is piecewise linear: knots ``xs`` and one
    coefficient pair per interval in ``ca``/``cb`` (one more than there are
    knots), the derivative on an interval being (ca + A)*x + (cb + B).  The
    data term 0.5*(x - y)^2 only moves the global offset (A, B), and clipping
    pops what it passes from either end, so each step is O(1) amortized.
    """
    xs = deque()
    ca = deque((0.0,))
    cb = deque((0.0,))
    A = B = 0.0
    neg_lam = -lam
    for yi in ys[:-1]:
        A += 1.0
        B -= yi
        # smallest x with derivative(x+) >= -lam; the left tail becomes -lam
        floor_x = -_INF
        while True:
            sl = ca[0] + A
            ic = cb[0] + B
            if sl > 0.0:
                u = (neg_lam - ic) / sl
            elif ic >= neg_lam:
                u = -_INF
            else:
                u = _INF
            if u <= (xs[0] if xs else _INF):
                if floor_x > u:
                    u = floor_x
                break
            if not xs:
                raise GflError("derivative stays below target; objective not coercive")
            floor_x = xs.popleft()
            ca.popleft()
            cb.popleft()
        if u != -_INF:
            if xs and xs[0] == u:
                ca[0] = -A
                cb[0] = neg_lam - B
            else:
                xs.appendleft(u)
                ca.appendleft(-A)
                cb.appendleft(neg_lam - B)
        lo_append(u)
        # smallest x with derivative >= lam on [x, inf); the right tail
        # becomes lam
        ceil_x = _INF
        while True:
            sl = ca[-1] + A
            ic = cb[-1] + B
            if sl > 0.0:
                u = (lam - ic) / sl
            elif ic >= lam:
                u = -_INF
            else:
                u = _INF
            if u >= (xs[-1] if xs else -_INF):
                if ceil_x < u:
                    u = ceil_x
                break
            if not xs:
                raise GflError("derivative stays above target; objective not coercive")
            ceil_x = xs.pop()
            ca.pop()
            cb.pop()
        if u != _INF:
            if xs and xs[-1] == u:
                ca[-1] = -A
                cb[-1] = lam - B
            else:
                xs.append(u)
                ca.append(-A)
                cb.append(lam - B)
        hi_append(u)
    # theta_n: the left crossing of 0.  It is (0.0 - ic) / sl, not -ic / sl,
    # so that a crossing at zero is +0.0.
    A += 1.0
    B -= ys[-1]
    floor_x = -_INF
    while True:
        sl = ca[0] + A
        ic = cb[0] + B
        if sl > 0.0:
            u = (0.0 - ic) / sl
        elif ic >= 0.0:
            u = -_INF
        else:
            u = _INF
        if u <= (xs[0] if xs else _INF):
            return floor_x if floor_x > u else u
        if not xs:
            raise GflError("derivative stays below target; objective not coercive")
        floor_x = xs.popleft()
        ca.popleft()
        cb.popleft()


def _quantile_forward(ys, lam, tau, lo_append, hi_append) -> float:
    """Forward pass for the quantile loss; returns theta_n.

    The message derivative is a nondecreasing step function: sorted
    breakpoints ``bp`` with positive jumps ``jm``, value ``c0`` left of every
    breakpoint and ``clast`` right of every one.  Each data point inserts a
    unit jump in sorted order, and clipping deletes the breakpoints it passes
    from either end, so only live breakpoints are kept.  Each step clips the
    message of the previous data point, then adds its own.
    """
    bp = [ys[0]]
    jm = [1.0]
    c0 = -tau
    clast = c0 + 1.0
    neg_lam = -lam
    for yi in ys[1:]:
        # smallest x with derivative(x+) >= -lam; the left tail becomes -lam
        if c0 >= neg_lam:
            lo_append(-_INF)
        else:
            c = c0
            h = 0
            nb = len(bp)
            while h < nb and c < neg_lam:
                c += jm[h]
                h += 1
            if c < neg_lam:
                raise GflError("derivative stays below target; objective not coercive")
            h -= 1  # keep the crossing breakpoint with an adjusted jump
            jm[h] = c - neg_lam
            if h:
                del bp[:h]
                del jm[:h]
            c0 = neg_lam
            lo_append(bp[0])
        # smallest x with derivative >= lam on [x, inf); the right tail
        # becomes lam
        if clast <= lam:
            hi_append(_INF)
        else:
            c = clast
            k = len(bp) - 1
            while k > 0 and c - jm[k] >= lam:
                c -= jm[k]
                k -= 1
            # the piece left of bp[k] is below lam (or k == 0): crossing at bp[k]
            jm[k] = lam - (c - jm[k])
            if jm[k] < 0.0:
                raise GflError("inconsistent step message")
            if k + 1 < len(bp):
                del bp[k + 1 :]
                del jm[k + 1 :]
            clast = lam
            hi_append(bp[k])
        c0 -= tau
        clast -= tau
        pos = bisect_left(bp, yi)
        if pos < len(bp) and bp[pos] == yi:
            jm[pos] += 1.0
        else:
            bp.insert(pos, yi)
            jm.insert(pos, 1.0)
        clast += 1.0
    # theta_n: the left crossing of 0
    if c0 >= 0.0:
        return -_INF
    c = c0
    for x, j in zip(bp, jm):
        c += j
        if c >= 0.0:
            return x
    raise GflError("derivative stays below target; objective not coercive")


def _solve_path(y, lam, loss):
    """Run the DP; returns theta (smallest-optimal tie-breaking)."""
    y = np.asarray(y, dtype=float)
    if lam == 0.0:
        return y.copy()

    ys = memoryview(y)
    lo = array("d")
    hi = array("d")
    if loss.kind == "square":
        t = _square_forward(ys, lam, lo.append, hi.append)
    else:
        t = _quantile_forward(ys, lam, loss.tau, lo.append, hi.append)

    if not math.isfinite(t):
        raise GflError("unbounded objective")
    # backward clamp, written from theta_n down to theta_1
    theta = array("d", (t,))
    for l, h in zip(reversed(lo), reversed(hi)):
        if l > t:
            t = l
        if h < t:
            t = h
        theta.append(t)
    return np.frombuffer(theta)[::-1].copy()


def _kkt_bands(problem: FusedLassoProblem, theta):
    """Forward pass of the certificate: the residual and the dual bands.

    Returns ``(resid, (g_lo, g_hi, band_lo, band_hi))``: the stationarity
    bounds of each element as ndarrays and the feasible band of each interior
    edge's z as ``array("d")``, which is all ``_kkt_dual`` reads.
    """
    y, lam, loss = problem.y, problem.lam, problem.loss
    theta = np.asarray(theta, dtype=float)
    if theta.shape != y.shape or not np.all(np.isfinite(theta)):
        raise ConfigError("theta must be a finite vector matching y")
    r = y - theta
    g_lo = -np.atleast_1d(loss.rho_plus(r))
    g_hi = -np.atleast_1d(loss.rho_minus(r))
    # z_i = lam on an upward jump, -lam on a downward one, free in [-lam, lam]
    # on a flat edge; z_n = 0 closes the chain.
    a_lo = memoryview(np.append(np.where(theta[1:] > theta[:-1], lam, -lam), 0.0))
    a_hi = memoryview(np.append(np.where(theta[1:] < theta[:-1], -lam, lam), 0.0))

    resid = 0.0
    zlo, zhi = 0.0, 0.0
    band_lo = array("d")
    band_hi = array("d")
    for gl, gh, alo, ahi in zip(memoryview(g_lo), memoryview(g_hi), a_lo, a_hi):
        zlo += gl
        if alo > zlo:
            zlo = alo
        zhi += gh
        if ahi < zhi:
            zhi = ahi
        if zlo > zhi:
            gap = zlo - zhi
            if gap > resid:
                resid = gap
            zlo = zhi = 0.5 * (zlo + zhi)
        band_lo.append(zlo)
        band_hi.append(zhi)
    # the last band only closed the chain
    del band_lo[-1], band_hi[-1]
    return resid, (g_lo, g_hi, band_lo, band_hi)


def _kkt_dual(g_lo, g_hi, band_lo, band_hi) -> np.ndarray:
    """Backward pass of the certificate: one z per interior edge.

    Runs from z_n = 0, pairing element i's bounds with band i - 1; z is
    written from z_{n-1} down to z_1.
    """
    z = array("d")
    cur = 0.0
    gls = reversed(memoryview(g_lo))
    ghs = reversed(memoryview(g_hi))
    for gl, gh, blo, bhi in zip(gls, ghs, reversed(band_lo), reversed(band_hi)):
        wlo = cur - gh
        whi = cur - gl
        slo = wlo if wlo > blo else blo
        shi = whi if whi < bhi else bhi
        if slo > shi:
            cur = 0.5 * (slo + shi)
            slo, shi = blo, bhi
        if slo > cur:
            cur = slo
        if shi < cur:
            cur = shi
        z.append(cur)
    return np.frombuffer(z)[::-1].copy()


def check_kkt(problem: FusedLassoProblem, theta) -> tuple[float, np.ndarray]:
    """Certify optimality of ``theta`` via the edge dual variables.

    Builds the feasible set of dual vectors z (|z_i| <= lam, z_i = lam*sign of
    each jump, stationarity inclusion per element, z_0 = z_n = 0) by interval
    propagation and reports the largest gap encountered; the gap is 0 iff a
    consistent certificate exists.  Returns (residual, z) with one z per edge.
    """
    resid, state = _kkt_bands(problem, theta)
    return resid, _kkt_dual(*state)


def solve(problem: FusedLassoProblem) -> FusedLassoSolution:
    theta = _solve_path(problem.y, problem.lam, problem.loss)
    resid, state = _kkt_bands(problem, theta)
    obj = objective(problem.y, problem.lam, problem.loss, theta)
    return FusedLassoSolution(
        theta_hat=theta, kkt_residual=resid, objective_value=obj, _kkt_state=state
    )


__all__ = [
    "FusedLassoProblem",
    "FusedLassoSolution",
    "solve",
    "check_kkt",
    "objective",
]

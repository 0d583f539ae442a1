"""Exact solver for 1D total-variation-penalized regression with a convex loss.

The objective is

    sum_i rho(y_i - theta_i) + lam * sum_i |theta_i - theta_{i+1}|.

The algorithm is forward-backward message passing on the chain (Johnson,
J. Comput. Graph. Statist. 22(2), 2013): the running message is a convex
function of theta_i whose derivative is maintained explicitly.  Each step
adds the data term and then "clips" the derivative to [-lam, +lam], which is
exactly the infimal convolution with lam*|.|, and records the clip window.
The derivative is piecewise linear for the square loss and a step function
for the quantile loss; either keeps only its live knots or breakpoints.
The step function's breakpoints sit, each with its jump, as sorted pairs in
one window inside a region of 2n pairs that starts at its middle; an
insertion moves whichever side of the window is shorter, so it moves at
most half the live pairs.  ``_work_size`` is the one definition of the DP's
scratch: 8n doubles for the square loss, 6n for the quantile loss.
theta_n is where the last message's derivative crosses 0, and the backward
pass clamps each theta_i to the clip window recorded at its step, picking
the smallest optimal value wherever the optimum is a face.

Every fit is certified by the dual of the generalized lasso (Tibshirani &
Taylor, Ann. Statist. 39(3), 2011).  ``check_kkt`` runs two passes over the
elements: a forward pass (``_kkt_bands``) that computes the stationarity
bounds -rho'_+(y_i - theta_i) and -rho'_-(y_i - theta_i) in C, propagates the
feasible band of each dual variable and yields the residual, and a backward
pass that picks one dual vector z inside the bands.  ``solve`` runs the DP
and the forward pass only, and returns theta and the residual; z comes from
``check_kkt`` and the objective from ``objective``, which refuses a value
that overflows float64.

The per-element loops (the DP and both passes of the certificate) are C
functions in ``_kernels.c``, which ``_kernels.py`` compiles at the first
import and loads with ``ctypes``.  Each does the operations of its
reference in ``tests/solver_reference.py`` in the same order: the same sums,
products and quotients, and every two-way ``max(a, b)`` as the comparison
``b if b > a else a`` that Python's builtin makes (``min`` likewise), ties
and signed zeros included.  The file is compiled with ``-ffp-contract=off``
and without ``-ffast-math`` or ``-march``, so the compiler may not fuse a
multiply and an add into one rounding or reorder an operation: IEEE double
arithmetic in a fixed order gives the same bits in C as in Python, and
``theta_hat``, ``kkt_residual`` and z are bit for bit the reference's.
Arrays cross the boundary as raw pointers to contiguous float64 ndarrays:
the y that ``FusedLassoProblem`` stores and the arrays the wrappers here
make or allocate, every output and scratch buffer included, so the C code
allocates nothing.  A fit keeps only theta: the certificate's state is
written into the DP's workspace, which the DP is done with by then, and
that workspace is freed when ``solve`` returns.

The solver works in float64, so ``FusedLassoProblem`` rejects a problem whose
scale lambda + n*max|y| exceeds 2^1020: the square DP's running offset is a
sum of n data points, and each intermediate stays within a few times that
scale.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from . import _kernels
from ._record import Record
from .errors import ConfigError, GflError

# lambda + n*max|y| bound: the DP's and the certificate's sums stay below
# a few times this, and float64 overflows at 2^1024.
_MAX_SCALE = 2.0**1020
_SCALE_HELP = ", the largest scale the float64 solver takes; rescale y and lambda"


class FusedLassoProblem(Record):
    y: np.ndarray
    lam: float
    loss: object

    def __init__(self, y, lam, loss):
        y = np.asarray(y, dtype=np.float64, order="C")
        if y.ndim != 1 or y.size < 1:
            raise ConfigError("y must be a nonempty 1D vector")
        y_max = float(np.abs(y).max())
        if not math.isfinite(y_max):
            raise ConfigError("y contains non-finite values")
        # a float in [0, 2^1020] would pass both checks, so only other
        # lambdas take them.  An int is finite and compares exactly, however
        # large: its float conversion (for the sum below and the lambda stored
        # last) could overflow, so compare it first; a bool is an Integral
        # but no lambda
        if type(lam) is not float or not 0.0 <= lam <= _MAX_SCALE:
            if isinstance(lam, bool) or not (
                isinstance(lam, numbers.Real)
                and (isinstance(lam, numbers.Integral) or math.isfinite(lam))
                and lam >= 0
            ):
                raise ConfigError("lambda must be a finite, nonnegative real number")
            if not lam <= _MAX_SCALE:
                raise ConfigError(f"lambda exceeds 2^1020 ({_MAX_SCALE:.4g}){_SCALE_HELP}")
        if not lam + y.size * y_max <= _MAX_SCALE:
            raise ConfigError(
                f"lambda + n*max|y| = {float(lam):g} + {y.size}*{y_max:g} exceeds 2^1020"
                f" ({_MAX_SCALE:.4g}){_SCALE_HELP}"
            )
        fields = self.__dict__
        fields["y"] = y
        fields["lam"] = float(lam)
        fields["loss"] = loss


class FusedLassoSolution(Record):
    """A fit and the residual of its optimality certificate."""

    theta_hat: np.ndarray
    kkt_residual: float

    def __init__(self, theta_hat, kkt_residual):
        fields = self.__dict__
        fields["theta_hat"] = theta_hat
        fields["kkt_residual"] = kkt_residual


def objective(y, lam, loss, theta) -> float:
    """sum_i rho(y_i - theta_i) + lam * TV(theta); a value that overflows
    float64 raises ``GflError``."""
    theta = np.asarray(theta, dtype=float)
    with np.errstate(over="ignore"):
        fit = float(np.sum(loss.rho(y - theta)))
        tv = float(np.sum(np.abs(np.diff(theta)))) if theta.size > 1 else 0.0
    value = fit + lam * tv
    if not math.isfinite(value):
        raise GflError(
            f"the objective at the fit overflows float64 (max {np.finfo(float).max:.4g});"
            " rescale y and lambda"
        )
    return value


# The kernels' status codes (``_kernels.c``), as the errors they stand for.
_STATUS = {
    1: "derivative stays below target; objective not coercive",
    2: "derivative stays above target; objective not coercive",
    3: "inconsistent step message",
    4: "unbounded objective",
}

# Each kernel takes raw pointers (``_kernels.py``): every array passed below
# is contiguous float64 and stays referenced by a name until the call returns.


def _loss_args(loss) -> tuple[bool, float]:
    """The kernels' loss arguments, (quantile, tau)."""
    quantile = loss.kind != "square"
    return quantile, float(loss.tau) if quantile else 0.0


def _work_size(n: int, quantile: bool) -> int:
    """The doubles of scratch ``gfl_path`` takes for n elements: lo and hi,
    then the square loss's knots and coefficients (6n) or the quantile
    loss's region of 2n (breakpoint, jump) pairs (4n).  ``solve`` then
    reuses it as the certificate's state, whose 4n - 2 values fit in 6n."""
    return (6 if quantile else 8) * n


def _kkt_bands(problem: FusedLassoProblem, theta: np.ndarray):
    """Forward pass of the certificate on a contiguous float64 ``theta``.

    Returns ``(resid, state)``: ``state`` holds the stationarity bounds of
    each element and the feasible band of each interior edge's z (4n - 2
    values, laid out as ``gfl_kkt_bands`` in ``_kernels.c`` says), which is
    all the backward pass reads.
    """
    y = problem.y
    state = np.empty(4 * y.size - 2)
    quantile, tau = _loss_args(problem.loss)
    resid = _kernels.lib.gfl_kkt_bands(
        y.ctypes.data, theta.ctypes.data, y.size, quantile, tau, problem.lam, state.ctypes.data
    )
    if resid < 0.0:
        raise ConfigError("theta must be a finite vector matching y")
    return resid, state


def check_kkt(problem: FusedLassoProblem, theta) -> tuple[float, np.ndarray]:
    """Certify optimality of ``theta`` via the edge dual variables.

    Builds the feasible set of dual vectors z (|z_i| <= lam, z_i = lam*sign of
    each jump, stationarity inclusion per element, z_0 = z_n = 0) by interval
    propagation and reports the largest gap encountered; the gap is 0 iff a
    consistent certificate exists.  Returns (residual, z) with one z per edge.
    """
    theta = np.asarray(theta, dtype=np.float64, order="C")
    if theta.shape != problem.y.shape:
        raise ConfigError("theta must be a finite vector matching y")
    resid, state = _kkt_bands(problem, theta)
    z = np.empty(theta.size - 1)
    _kernels.lib.gfl_kkt_dual(state.ctypes.data, theta.size, z.ctypes.data)
    return resid, z


def solve(problem: FusedLassoProblem) -> FusedLassoSolution:
    """Fit ``problem`` (smallest-optimal tie-breaking) and certify the fit.

    Two kernel calls: the DP (skipped at lambda = 0, where theta = y) and the
    certificate's forward pass, which writes its 4n - 2 values into the DP's
    workspace once the DP is done with it.  Each buffer's address is read
    once.
    """
    y, lam, n = problem.y, problem.lam, problem.y.size
    quantile, tau = _loss_args(problem.loss)
    work = np.empty(_work_size(n, quantile))
    theta = y.copy() if lam == 0.0 else np.empty(n)
    y_p, theta_p, work_p = y.ctypes.data, theta.ctypes.data, work.ctypes.data
    if lam != 0.0:
        status = _kernels.lib.gfl_path(y_p, n, lam, quantile, tau, theta_p, work_p)
        if status:
            raise GflError(_STATUS[status])
    resid = _kernels.lib.gfl_kkt_bands(y_p, theta_p, n, quantile, tau, lam, work_p)
    if resid < 0.0:
        raise ConfigError("theta must be a finite vector matching y")
    return FusedLassoSolution(theta_hat=theta, kkt_residual=resid)


__all__ = [
    "FusedLassoProblem",
    "FusedLassoSolution",
    "solve",
    "check_kkt",
    "objective",
]

"""Nonasymptotic error bounds for the fused-lasso estimator.

All formulas are explicit finite-sample expressions in the signal geometry
(d_i, m_k, eta_k), the tuning parameter lambda, the confidence parameter
delta, and either the sub-Gaussian scale sigma (mean regression) or the CDF
growth constant L (quantile regression).  Logarithms are natural throughout.
"""

from __future__ import annotations

import math

import numpy as np

from ._record import Record, Value
from .errors import ConfigError, PreconditionError
from .signal import SignalGeometry

LOG2 = math.log(2.0)
DELTA_MAX = LOG2 / math.e  # 0.25498...


def prob_const() -> float:
    """The constant multiplying delta^2 in the pointwise failure probabilities."""
    return 1.0 + 24.0 / (LOG2 * LOG2)


def _check_delta(delta: float, upper: float = DELTA_MAX) -> None:
    if not math.isfinite(delta):
        raise ConfigError(f"delta must be a finite number; got {delta}")
    if not (0.0 < delta < upper):
        raise PreconditionError(f"delta must lie in (0, {upper:.6g}); got {delta}")


def _check_positive(name: str, value) -> None:
    if not (np.isfinite(value) and value > 0):
        raise ConfigError(f"{name} must be positive and finite")


# the largest count an array is sized by: numpy refuses a float64 or int64
# array whose size in bytes, with some padding, passes intp (2^60 values);
# below half that, a count too large for memory raises MemoryError instead
_MAX_COUNT = 2**59


def _check_count(name: str, count: int, per: int = 1) -> None:
    """Refuse a count beyond numpy's index range, for an array of ``count``
    times ``per`` values."""
    if count > _MAX_COUNT // per:
        raise ConfigError(
            f"{name} is {count}, beyond numpy's index range: at most {_MAX_COUNT // per}"
        )


def _check_sse_lambda(lam: float) -> None:
    _check_positive("lambda", lam)
    if lam * lam == 0.0:  # the SSE bounds divide by lambda^2
        raise ConfigError(f"lambda {lam!r} is beyond float64 scale: lambda^2 underflows to 0")


def _beyond_scale(bound: str, lam, name: str, value) -> str:
    return (
        f"the {bound} bound at lambda {float(lam)!r} and {name} {float(value)!r} is beyond"
        " float64 scale: it overflows"
    )


def _check_growth_L(L: float) -> None:
    _check_positive("growth constant L", L)
    # the quantile bounds divide by L**4 and by (L * L)**2; a float power
    # raises OverflowError where a product would give inf
    try:
        in_scale = L**4 > 0.0 and (L * L) ** 2 > 0.0
    except OverflowError:
        in_scale = False
    if not in_scale:
        raise ConfigError(
            f"growth constant L {L!r} is beyond float64 scale: L^4 underflows to 0 or overflows"
        )


class BoundParams(Value):
    sigma: float
    delta: float
    lam: float
    growth_L: float | None = None

    def _check(self):
        _check_positive("sigma", self.sigma)
        _check_positive("lambda", self.lam)
        _check_delta(self.delta)
        if self.growth_L is not None:
            _check_growth_L(self.growth_L)


def compute_B(i, geometry: SignalGeometry, params: BoundParams):
    """Three-term elementwise bound at the 1-based index i (or index array).

    term 1: local iterated-logarithm scale 4*sigma*(sqrt(lnln(2 max(3,d))/max(3,d))
            + sqrt(ln(1/delta)/d))
    term 2: 4*sigma^2*(lnln(2m) + ln(1/delta)) / lambda
    term 3: (2*sqrt(m*sigma^2*ln(1/delta)) + 2*lambda) / m
    """
    return _B(i, geometry, params.sigma, params.delta, params.lam, improved=False)


def compute_B_improved(i, geometry: SignalGeometry, params: BoundParams):
    """compute_B with the 2*lambda/m part of term 3 replaced by
    2*(lambda/m_left + lambda/m_right); the sqrt part keeps m."""
    return _B(i, geometry, params.sigma, params.delta, params.lam, improved=True)


def _B(i, geometry: SignalGeometry, sigma, delta, lam, improved: bool):
    """The bound at the 1-based indices i, a float for an int i.  The terms
    are those of compute_B, summed as (t1 + t2) + t3, the order np.sum takes
    over three terms."""
    idx = np.asarray(i)
    if idx.dtype.kind not in "iu" or (idx.size and (idx.min() < 1 or idx.max() > geometry.n)):
        raise ConfigError(f"indices must be integers in [1, {geometry.n}]")
    j = idx.reshape(-1) - 1
    d = geometry.d[j].astype(float)
    m = np.asarray(geometry.segment_lengths, dtype=float)[geometry.k_of[j] - 1]
    l1d = math.log(1.0 / delta)
    d3 = np.maximum(3.0, d)
    # an overflow, or inf * 0 when sigma^2 underflows, is refused below
    with np.errstate(over="ignore", invalid="ignore"):
        t1 = 4.0 * sigma * (np.sqrt(_lnln(2.0 * d3) / d3) + np.sqrt(l1d / d))
        t2 = 4.0 * sigma * sigma * (_lnln(2.0 * m) + l1d) / lam
        if improved:
            lam_part = 2.0 * (lam / geometry.m_left[j] + lam / geometry.m_right[j])
        else:
            lam_part = 2.0 * lam / m
        t3 = 2.0 * np.sqrt(m * sigma * sigma * l1d) / m + lam_part
        B = (t1 + t2) + t3
    if not np.isfinite(B).all():
        raise ConfigError(_beyond_scale("elementwise", lam, "sigma", sigma))
    return B[0] if idx.ndim == 0 else B.reshape(idx.shape)


def _lnln(x: np.ndarray) -> np.ndarray:
    """ln(ln(x)) elementwise, with libm's log once per distinct x: np.log
    differs from libm in the last bit on some inputs, and sqrt and the
    arithmetic are correctly rounded either way."""
    u, at = np.unique(x, return_inverse=True)
    return np.array([math.log(math.log(v)) for v in u.tolist()])[at]


def compute_B_quantile(i, geometry: SignalGeometry, delta: float, lam: float):
    """The assumptionless quantile bound: compute_B with sigma = 1/2."""
    return compute_B(i, geometry, BoundParams(sigma=0.5, delta=delta, lam=lam))


class PointwiseBound(Record):
    value: float | np.ndarray
    applicable: bool | np.ndarray


def elementwise_quantile_bound(
    i, geometry: SignalGeometry, delta: float, lam: float, L: float
) -> PointwiseBound:
    """B_quantile / L when B_quantile <= L; otherwise flagged not applicable.
    For an index array, ``value`` and ``applicable`` are arrays.

    The guarantee level is 1 - 2 * prob_const() * delta^2.
    """
    _check_growth_L(L)
    B = compute_B_quantile(i, geometry, delta, lam)
    return PointwiseBound(value=B / L, applicable=B <= L)


def admissibility(geometry: SignalGeometry, delta: float, lam: float, L: float):
    """Sufficient conditions under which B_quantile <= L.

    Signal level: m_min >= (36/L^2) ln(1/delta) and
    6*(lnln(2 m_min) + ln(1/delta))/L <= lambda <= (L/12)*m_min.
    Per index: d_i >= max(3, 12^4/L^4, (12^2/L^2) ln(1/delta)).
    Returns (signal_level_ok, per_index_ok, {"index_distance_threshold": that
    floor on d_i}).
    """
    _check_growth_L(L)
    _check_positive("lambda", lam)
    _check_delta(delta, upper=1.0)
    l1d = math.log(1.0 / delta)
    m_min = geometry.m_min
    mmin_floor = 36.0 / (L * L) * l1d
    lam_lo = 6.0 * (math.log(math.log(2.0 * m_min)) + l1d) / L
    lam_hi = L / 12.0 * m_min
    signal_ok = bool(m_min >= mmin_floor and lam_lo <= lam <= lam_hi)
    d_floor = max(3.0, 12.0**4 / L**4, 144.0 / (L * L) * l1d)
    per_index = geometry.d >= d_floor
    return signal_ok, per_index, {"index_distance_threshold": d_floor}


def uniform_quantile_bound(n: int, delta: float, lam: float, L: float) -> PointwiseBound:
    """Crude uniform bound B_uniform = (lnln(2n) + ln(1/delta))/lambda
    + sqrt(ln(1/delta)/n); when B_uniform <= L every fitted value lies within
    B_uniform/L of the truth's range, at level 1 - 2 * prob_const() * delta^2."""
    _check_growth_L(L)
    _check_positive("lambda", lam)
    _check_delta(delta)
    l1d = math.log(1.0 / delta)
    B = (math.log(math.log(2.0 * n)) + l1d) / lam + math.sqrt(l1d / n)
    return PointwiseBound(value=B / L, applicable=B <= L)


class SseBound(Record):
    bound: float
    terms: dict
    precondition_failures: tuple = ()


def _improved_lambda_sum(geometry: SignalGeometry) -> float:
    # sum over segments whose two neighboring jumps disagree in direction
    # (sentinels eta_0 = eta_K = 0 make the first and last segments count
    # whenever K >= 2)
    eta = geometry.eta
    m = geometry.segment_lengths
    return float(
        sum(1.0 / m[k - 1] for k in range(1, geometry.K + 1) if eta[k - 1] != eta[k])
    )


def sse_bound_quantile(
    geometry: SignalGeometry,
    delta: float,
    lam: float,
    L: float,
    improved: bool = False,
) -> SseBound:
    """Sum-of-squared-errors bound for quantile regression, at level
    1 - 4 * prob_const() * delta when the m_min / lambda window holds.  The
    formula is evaluated either way; each window condition that fails is
    listed in ``precondition_failures`` with its value and threshold, and
    the probability guarantee then does not apply."""
    _check_growth_L(L)
    _check_sse_lambda(lam)
    _check_delta(delta, upper=DELTA_MAX * DELTA_MAX)
    n, K, V = geometry.n, geometry.K, geometry.V
    m = geometry.segment_lengths
    lnd = math.log(n / delta)
    lln = math.log(math.log(2.0 * n))
    m_min = geometry.m_min

    failures = []
    mmin_floor = 18.0 / (L * L) * lnd
    if not m_min >= mmin_floor:
        failures.append(
            {"condition": "m_min >= 18 ln(n/delta) / L^2", "value": m_min, "threshold": mmin_floor}
        )
    lam_lo = 3.0 * (2.0 * lln + lnd) / L
    if not lam >= lam_lo:
        failures.append(
            {"condition": "lambda >= 3 (2 lnln(2n) + ln(n/delta)) / L", "value": lam, "threshold": lam_lo}
        )
    lam_hi = L / 12.0 * m_min
    if not lam <= lam_hi:
        failures.append(
            {"condition": "lambda <= L m_min / 12", "value": lam, "threshold": lam_hi}
        )

    seg_log = K + sum(math.log(mk / 2.0) for mk in m)
    L2 = L * L
    with np.errstate(over="ignore"):
        t1 = 24.0 / L2 * (2.0 * lln + lnd) * seg_log
        t2 = 3.0 * n / L2 * 4.0 * (lln * lln + lnd * lnd) / (lam * lam)
        t3 = 6.0 * K / L2 * lnd
        if improved:
            t4 = 144.0 * lam * lam / L2 * _improved_lambda_sum(geometry)
        else:
            t4 = 24.0 * lam * lam / L2 * sum(1.0 / mk for mk in m)
        t5 = 2.0 * K * max(3.0, 12.0**4 / L2**2, 144.0 / (2.0 * L2) * lnd) * V * V
        bound = t1 + t2 + t3 + t4 + t5
    if not math.isfinite(bound):
        raise ConfigError(_beyond_scale("sum-of-squares", lam, "L", L))
    terms = {"lil": t1, "inv_lambda_sq": t2, "segment_count": t3, "lambda_sq": t4, "range": t5}
    return SseBound(bound=bound, terms=terms, precondition_failures=tuple(failures))


def sse_bound_mean(
    geometry: SignalGeometry,
    delta: float,
    lam: float,
    sigma: float,
    improved: bool = False,
) -> SseBound:
    """Sum-of-squared-errors bound for mean regression under sub-Gaussian
    noise with parameter sigma, at level 1 - 4 * prob_const() * delta."""
    _check_positive("sigma", sigma)
    _check_sse_lambda(lam)
    n, K = geometry.n, geometry.K
    _check_delta(delta, upper=n * DELTA_MAX * DELTA_MAX)
    m = geometry.segment_lengths
    lnd = math.log(n / delta)
    lln = math.log(math.log(2.0 * n))
    seg_log = K + sum(math.log(mk / 2.0) for mk in m)
    with np.errstate(over="ignore"):
        s2 = sigma * sigma
        t1 = 192.0 * s2 * (lln + 0.5 * lnd) * seg_log
        t2 = 24.0 * n * s2 * s2 * (lln * lln + 0.25 * lnd * lnd) / (lam * lam)
        t3 = 12.0 * K * s2 * lnd
        if improved:
            t4 = 144.0 * lam * lam * _improved_lambda_sum(geometry)
        else:
            t4 = 24.0 * lam * lam * sum(1.0 / mk for mk in m)
        bound = t1 + t2 + t3 + t4
    if not math.isfinite(bound):
        raise ConfigError(_beyond_scale("sum-of-squares", lam, "sigma", sigma))
    terms = {"lil": t1, "inv_lambda_sq": t2, "segment_count": t3, "lambda_sq": t4}
    return SseBound(bound=bound, terms=terms)


def iterative_sum_check(m_list) -> tuple[float, float]:
    """lhs = sum_j m_j / (m_j + ... + m_K)^2 and rhs = 3/m_K; lhs <= rhs."""
    m = [float(x) for x in m_list]
    if not m or any(x <= 0 for x in m):
        raise ConfigError("all segment lengths must be positive")
    lhs = 0.0
    tail = sum(m)
    for x in m:
        lhs += x / (tail * tail)
        tail -= x
    return lhs, 3.0 / m[-1]


def bound_report(geometry: SignalGeometry, params: BoundParams) -> tuple[dict, dict]:
    """Every index's bounds for a signal, as ``(summary, columns)``.

    ``columns`` holds the per-index arrays ``B``, ``B_improved``,
    ``B_quantile`` and ``applicable``, in that order; ``summary`` holds
    ``signal_admissible`` (None without ``growth_L``),
    ``pointwise_probability_raw``, the closed-form guarantee level, and
    ``pointwise_probability``, the same clamped to [0, 1], so a vacuous
    regime stays visible through the raw value.
    """
    n = geometry.n
    idx = np.arange(1, n + 1)
    columns = {
        "B": compute_B(idx, geometry, params),
        "B_improved": compute_B_improved(idx, geometry, params),
        "B_quantile": compute_B_quantile(idx, geometry, params.delta, params.lam),
    }
    if params.growth_L is not None:
        signal_ok, per_index, _ = admissibility(
            geometry, params.delta, params.lam, params.growth_L
        )
        columns["applicable"] = per_index & (columns["B_quantile"] <= params.growth_L)
    else:
        signal_ok = None
        columns["applicable"] = np.zeros(n, dtype=bool)
    p_raw = 1.0 - prob_const() * params.delta**2
    summary = {
        "signal_admissible": signal_ok,
        "pointwise_probability_raw": p_raw,
        "pointwise_probability": min(max(p_raw, 0.0), 1.0),
    }
    return summary, columns


__all__ = [
    "prob_const",
    "BoundParams",
    "PointwiseBound",
    "SseBound",
    "compute_B",
    "compute_B_improved",
    "compute_B_quantile",
    "elementwise_quantile_bound",
    "admissibility",
    "uniform_quantile_bound",
    "sse_bound_quantile",
    "sse_bound_mean",
    "iterative_sum_check",
    "bound_report",
    "DELTA_MAX",
]

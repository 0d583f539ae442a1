"""Anytime iterated-logarithm envelope for centered partial sums.

For i.i.d. zero-mean sub-Gaussian steps with parameter sigma, the envelope
4*sigma*sqrt(t*(lnln(2t) + ln(1/delta))) contains every partial sum S_t
simultaneously over all t >= 1 with probability at least 1 - 6 delta^2/(ln 2)^2,
provided delta < log(2)/e.
"""

from __future__ import annotations

import math

import numpy as np

from . import _kernels
from ._record import Value
from .bounds import DELTA_MAX, _check_count, _check_delta, _check_positive
from .errors import ConfigError
from .losses import NoiseModel


class LilEnvelope(Value):
    sigma: float
    delta: float

    def _check(self):
        _check_positive("sigma", self.sigma)
        _check_delta(self.delta, upper=DELTA_MAX)

    def violation_probability(self) -> float:
        return 6.0 * self.delta**2 / math.log(2.0) ** 2


def envelope(t, env: LilEnvelope):
    """4*sigma*sqrt(t*(lnln(2t) + ln(1/delta))); accepts scalar or array t >= 1."""
    t = np.asarray(t, dtype=float)
    if np.any(t < 1):
        raise ConfigError("t must be >= 1")
    body = np.log(np.log(2.0 * t)) + math.log(1.0 / env.delta)
    # for delta < log2/e the t=1 value lnln2 + ln(1/delta) is already positive
    return 4.0 * env.sigma * np.sqrt(t * body)


# sigma * horizon bound: with Gaussian steps |S_t| stays below 64 * sigma * t,
# so every partial sum, envelope value and ratio is finite
_MAX_SCALE = 2.0**1000
# sigma floor: below it the scaled draws and the envelope can be subnormal,
# and their rounding changes the ratios, which are scale-free in exact arithmetic
_MIN_SCALE = 2.0**-1000
# draws held at once: a chunk is max(1, _DRAW_BUDGET // horizon) paths, so
# about 1 MiB of float64 draws, or one path when the horizon is above it
_DRAW_BUDGET = 2**17
# quantile levels of the ratio table, by column name
_RATIO_QUANTILES = {"ratio_q50": 0.5, "ratio_q90": 0.9, "ratio_q99": 0.99, "ratio_q100": 1.0}


def verify_paths(noise: NoiseModel, horizon: int, paths: int, env: LilEnvelope, seed: int) -> dict:
    """Monte Carlo check of the envelope up to a finite horizon.

    Simulates ``paths`` i.i.d. partial-sum paths of length ``horizon`` and
    reports the fraction with any |S_t| exceeding envelope(t).  Under
    ``ratio_quantiles`` it returns a table, {column name: values}: at each
    power of 2 ``t`` up to ``horizon``, the 50, 90, 99 and 100% quantiles
    over paths of |S_t| / envelope(t).  Paths are drawn in chunks of about
    ``_DRAW_BUDGET`` draws (at least one path), in the generator's order, so
    memory is bounded and the result, deterministic in (noise, horizon,
    paths, seed), does not depend on the chunk size.
    A sigma (of ``env`` or of ``noise``) with sigma * horizon above 2^1000,
    or below 2^-1000, is refused before the first draw, and so is a horizon
    or a path count beyond numpy's index range.
    """
    if horizon < 1 or paths < 1:
        raise ConfigError("horizon and paths must be >= 1")
    if seed < 0:
        raise ConfigError("seed must be a nonnegative integer")
    sigma = max(env.sigma, noise.scale)
    if horizon > _MAX_SCALE / sigma:  # an int against a float: no product to overflow
        raise ConfigError(
            f"the partial sums at sigma {float(sigma)!r} are beyond float64 scale:"
            f" sigma * horizon exceeds 2^1000 ({_MAX_SCALE:.4g}); rescale sigma"
        )
    sigma = min(env.sigma, noise.scale)
    if sigma < _MIN_SCALE:
        raise ConfigError(
            f"the partial sums at sigma {float(sigma)!r} are beyond float64 scale:"
            f" sigma is below 2^-1000 ({_MIN_SCALE:.4g}); rescale sigma"
        )
    _check_count("paths", paths)
    chunk = max(1, _DRAW_BUDGET // horizon)
    _check_count("horizon", horizon, per=min(paths, chunk))  # a chunk's draws
    t = np.arange(1, horizon + 1)
    envlp = np.asarray(envelope(t, env), dtype=np.float64, order="C")
    rng = np.random.default_rng(seed)
    t_grid = 2 ** np.arange(int(horizon).bit_length())  # the powers of 2 up to horizon
    # each path's largest |S_t| / envelope(t) and its ratios at t_grid
    path_max = np.empty(paths)
    grid_ratios = np.empty((paths, t_grid.size))
    for done in range(0, paths, chunk):
        r = min(chunk, paths - done)
        x = np.asarray(noise.sample_rng(r * horizon, rng), dtype=np.float64, order="C")
        _kernels.lib.gfl_lil_chunk(
            x.ctypes.data, r, horizon, envlp.ctypes.data,
            path_max[done:].ctypes.data, grid_ratios[done:].ctypes.data,
        )
    violations = int(np.count_nonzero(path_max > 1.0))
    max_ratio = float(path_max.max())
    freq = violations / paths
    bound = env.violation_probability()
    slack = 3.0 * math.sqrt(freq * (1.0 - freq) / paths)
    table = np.quantile(grid_ratios, list(_RATIO_QUANTILES.values()), axis=0)
    return {
        "violation_frequency": freq,
        "violations": violations,
        "paths": paths,
        "horizon": horizon,
        "probability_bound": bound,
        "binomial_slack": slack,
        "within_bound": freq <= bound + slack,
        "max_ratio": max_ratio,
        "ratio_quantiles": {"t": t_grid.tolist()} | dict(zip(_RATIO_QUANTILES, table.tolist())),
    }


__all__ = ["LilEnvelope", "envelope", "verify_paths"]

"""Anytime iterated-logarithm envelope for centered partial sums.

For i.i.d. zero-mean sub-Gaussian steps with parameter sigma, the envelope
4*sigma*sqrt(t*(lnln(2t) + ln(1/delta))) contains every partial sum S_t
simultaneously over all t >= 1 with probability at least 1 - 6 delta^2/(ln 2)^2,
provided delta < log(2)/e.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import DELTA_MAX, _check_delta
from .errors import ConfigError
from .losses import NoiseModel


@dataclass(frozen=True)
class LilEnvelope:
    sigma: float
    delta: float

    def __post_init__(self):
        if not (np.isfinite(self.sigma) and self.sigma > 0):
            raise ConfigError("sigma must be positive")
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


def verify_paths(
    noise: NoiseModel,
    horizon: int,
    paths: int,
    env: LilEnvelope,
    seed: int,
    chunk: int = 64,
    t_grid=None,
) -> dict:
    """Monte Carlo check of the envelope up to a finite horizon.

    Simulates ``paths`` i.i.d. partial-sum paths of length ``horizon`` and
    reports the fraction with any |S_t| exceeding envelope(t).  Paths are
    processed in chunks to bound memory; the result is deterministic in
    (noise, horizon, paths, seed).
    """
    if horizon < 1 or paths < 1:
        raise ConfigError("horizon and paths must be >= 1")
    if seed < 0:
        raise ConfigError("seed must be a nonnegative integer")
    t = np.arange(1, horizon + 1)
    envlp = envelope(t, env)
    rng = np.random.default_rng(seed)
    if t_grid is not None:
        t_grid = np.asarray(sorted(set(int(x) for x in t_grid)), dtype=np.int64)
        if t_grid.size and (t_grid[0] < 1 or t_grid[-1] > horizon):
            raise ConfigError("t_grid entries must lie in [1, horizon]")
        grid_ratios = np.empty((paths, t_grid.size))
    violations = 0
    max_ratio = 0.0
    done = 0
    while done < paths:
        r = min(chunk, paths - done)
        x = noise.sample_rng(r * horizon, rng).reshape(r, horizon)
        s = np.cumsum(x, axis=1)
        ratio = np.abs(s) / envlp
        path_max = ratio.max(axis=1)
        violations += int(np.count_nonzero(path_max > 1.0))
        max_ratio = max(max_ratio, float(path_max.max()))
        if t_grid is not None:
            grid_ratios[done : done + r] = ratio[:, t_grid - 1]
        done += r
    freq = violations / paths
    bound = env.violation_probability()
    slack = 3.0 * math.sqrt(freq * (1.0 - freq) / paths)
    out = {
        "violation_frequency": freq,
        "violations": violations,
        "paths": paths,
        "horizon": horizon,
        "probability_bound": bound,
        "binomial_slack": slack,
        "within_bound": freq <= bound + slack,
        "max_ratio": max_ratio,
    }
    if t_grid is not None:
        qs = (0.5, 0.9, 0.99, 1.0)
        table = np.quantile(grid_ratios, qs, axis=0)
        out["ratio_quantiles"] = {
            "t": t_grid.tolist(),
            "q": list(qs),
            "values": table.T.tolist(),
        }
    return out


__all__ = ["LilEnvelope", "envelope", "verify_paths"]

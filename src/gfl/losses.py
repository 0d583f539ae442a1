"""Convex losses with one-sided derivatives, and the noise models they pair with.

The population losses L+(t) = E rho'_+(eps - t) and L-(t) = E rho'_-(eps - t)
are the scale on which the elementwise bounds live.  For the square loss both
equal -t; for the quantile loss with a continuous noise CDF F centered so that
F(0) = tau, both equal tau - F(t).
"""

from __future__ import annotations

import math

import numpy as np

from ._record import Value
from .errors import ConfigError, UnsupportedModelError

_SQRT2PI = math.sqrt(2.0 * math.pi)


class SquareLoss(Value):
    """rho(x) = x^2 / 2, so rho'_+(x) = rho'_-(x) = x."""

    kind: str = "square"

    def rho(self, x):
        return 0.5 * np.square(x)

    def rho_plus(self, x):
        return np.asarray(x, dtype=float) + 0.0

    def rho_minus(self, x):
        return np.asarray(x, dtype=float) + 0.0


class QuantileLoss(Value):
    """The tau-th check loss: rho(x) = tau*x for x >= 0, (tau-1)*x for x < 0."""

    tau: float
    kind: str = "quantile"

    def _check(self):
        if not 0.0 < self.tau < 1.0:
            raise ConfigError("quantile level tau must lie in (0, 1)")

    def rho(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(x >= 0, self.tau * x, (self.tau - 1.0) * x)

    def rho_plus(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(x >= 0, self.tau, self.tau - 1.0)

    def rho_minus(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(x > 0, self.tau, self.tau - 1.0)


def make_loss(kind: str, tau: float | None = None):
    if kind == "square":
        if tau is not None:
            raise ConfigError("square loss takes no tau")
        return SquareLoss()
    if kind == "quantile":
        if tau is None:
            raise ConfigError("quantile loss requires tau")
        return QuantileLoss(tau=tau)
    raise ConfigError(f"unknown loss kind {kind!r}")


# Base distributions are symmetric about 0 with a single scale parameter.
_KINDS = ("gaussian", "uniform", "laplace", "cauchy")


class NoiseModel(Value):
    """An error distribution plus the centering convention.

    With ``center_tau`` unset the distribution is symmetric about 0 (mean
    regression convention).  With ``center_tau = tau`` the base distribution is
    shifted so that its tau-th quantile sits at 0 exactly, using the base
    closed-form quantile function.
    """

    kind: str
    scale: float
    center_tau: float | None = None

    def _check(self):
        if self.kind not in _KINDS:
            raise ConfigError(f"unknown noise kind {self.kind!r}")
        if not (np.isfinite(self.scale) and self.scale > 0):
            raise ConfigError("noise scale must be positive and finite")
        if self.center_tau is not None and not 0.0 < self.center_tau < 1.0:
            raise ConfigError("center_tau must lie in (0, 1)")

    # --- base distribution (symmetric about 0), closed forms ---

    def _base_cdf(self, x):
        x = np.asarray(x, dtype=float)
        s = self.scale
        if self.kind == "gaussian":
            from scipy.special import ndtr  # here, so that importing gfl leaves scipy unloaded

            return ndtr(x / s)
        if self.kind == "uniform":
            return np.clip((x + s) / (2.0 * s), 0.0, 1.0)
        if self.kind == "laplace":
            return np.where(x < 0, 0.5 * np.exp(x / s), 1.0 - 0.5 * np.exp(-x / s))
        return 0.5 + np.arctan(x / s) / math.pi  # cauchy

    def _base_pdf(self, x):
        x = np.asarray(x, dtype=float)
        s = self.scale
        if self.kind == "gaussian":
            return np.exp(-0.5 * (x / s) ** 2) / (s * _SQRT2PI)
        if self.kind == "uniform":
            return np.where(np.abs(x) <= s, 1.0 / (2.0 * s), 0.0)
        if self.kind == "laplace":
            return np.exp(-np.abs(x) / s) / (2.0 * s)
        return s / (math.pi * (s * s + x * x))  # cauchy

    def _base_quantile(self, p: float) -> float:
        s = self.scale
        if self.kind == "gaussian":
            from scipy.special import ndtri

            return s * float(ndtri(p))
        if self.kind == "uniform":
            return s * (2.0 * p - 1.0)
        if self.kind == "laplace":
            return s * math.log(2.0 * p) if p < 0.5 else -s * math.log(2.0 * (1.0 - p))
        return s * math.tan(math.pi * (p - 0.5))  # cauchy

    @property
    def shift(self) -> float:
        """Offset q such that eps = X_base - q; q = Q_base(tau) under tau-centering."""
        if self.center_tau is None:
            return 0.0
        return self._base_quantile(self.center_tau)

    # --- shifted distribution ---

    def cdf(self, x):
        return self._base_cdf(np.asarray(x, dtype=float) + self.shift)

    def sample_rng(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """n draws of eps = X_base - shift.  The unit-scale draws are scaled,
        and all are shifted, in place; x * 1.0 and x - (+0.0) are x bit for
        bit, so those passes are skipped, but x - (-0.0) turns a -0.0 draw
        into +0.0, so that one is not."""
        s, shift = self.scale, self.shift
        if self.kind == "uniform":
            x = rng.uniform(-s, s, size=n)
        elif self.kind == "laplace":
            x = rng.laplace(0.0, s, size=n)
        else:  # gaussian and cauchy are drawn at unit scale
            x = rng.standard_normal(n) if self.kind == "gaussian" else rng.standard_cauchy(n)
            if s != 1.0:
                x *= s
        if shift != 0.0 or math.copysign(1.0, shift) < 0:
            x -= shift
        return x

    def sigma_for(self, loss) -> float:
        """Sub-Gaussian parameter of rho'_{+/-}(eps - t), uniform in t."""
        if loss.kind == "quantile":
            # rho'_{+/-} take values in an interval of length 1.
            return 0.5
        if loss.kind != "square":
            raise UnsupportedModelError(f"no sigma rule for loss {loss.kind!r}")
        if self.center_tau is not None:
            raise UnsupportedModelError("square loss requires mean-centered noise")
        if self.kind == "gaussian":
            return self.scale
        if self.kind == "uniform":
            # bounded in [-scale, scale]: parameter (b - a) / 2
            return self.scale
        raise UnsupportedModelError(
            f"{self.kind} noise is not sub-Gaussian; mean regression is unsupported"
        )

    def growth_constant(self) -> float:
        """The Q2 constant L: minimum density on [-1, 1] around the centered quantile.

        Guarantees |F(x) - F(0)| >= L |x| for x in [-1, 1].
        """
        q = abs(self.shift)
        if self.kind == "uniform":
            if self.scale < q + 1.0:
                raise UnsupportedModelError(
                    "uniform noise has zero density somewhere on [-1, 1]"
                )
            return 1.0 / (2.0 * self.scale)
        # Symmetric unimodal: the density minimum sits at the far endpoint.
        return float(self._base_pdf(q + 1.0))


def _check_pairing(loss, noise: NoiseModel) -> None:
    if loss.kind == "square" and noise.center_tau is not None:
        raise UnsupportedModelError("square loss pairs with mean-centered noise only")
    if loss.kind == "quantile" and noise.center_tau is None:
        raise UnsupportedModelError("quantile loss requires tau-centered noise")
    if loss.kind == "quantile" and noise.center_tau != loss.tau:
        raise UnsupportedModelError("noise centering tau must match the loss tau")


def L_plus(loss, noise: NoiseModel, t):
    """E rho'_+(eps - t), elementwise on arrays.  Closed form: -t (square) or
    tau - F(t) (quantile)."""
    _check_pairing(loss, noise)
    if loss.kind == "square":
        return -np.asarray(t, dtype=float)
    return loss.tau - noise.cdf(t)


def L_minus(loss, noise: NoiseModel, t):
    """E rho'_-(eps - t); coincides with L_plus because every supported noise
    distribution is continuous, so F(t-) == F(t)."""
    return L_plus(loss, noise, t)

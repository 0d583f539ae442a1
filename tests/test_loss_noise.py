import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtri
from scipy.stats import norm

from gfl.errors import ConfigError, GflError, UnsupportedModelError
from gfl.losses import (
    L_minus,
    L_plus,
    NoiseModel,
    QuantileLoss,
    SquareLoss,
    make_loss,
)


class TestLosses:
    def test_square_derivatives(self):
        sq = SquareLoss()
        x = np.array([-2.0, 0.0, 3.0])
        assert np.array_equal(sq.rho(x), [2.0, 0.0, 4.5])
        assert np.array_equal(sq.rho_plus(x), x)
        assert np.array_equal(sq.rho_minus(x), x)

    def test_quantile_derivatives(self):
        q = QuantileLoss(tau=0.3)
        x = np.array([-1.0, 0.0, 2.0])
        assert np.allclose(q.rho(x), [0.7, 0.0, 0.6])
        assert np.allclose(q.rho_plus(x), [-0.7, 0.3, 0.3])
        assert np.allclose(q.rho_minus(x), [-0.7, -0.7, 0.3])

    def test_one_sided_order(self):
        # rho'_- <= rho'_+ everywhere, both nondecreasing
        for loss in (SquareLoss(), QuantileLoss(0.2), QuantileLoss(0.8)):
            x = np.linspace(-3, 3, 101)
            lo = np.atleast_1d(loss.rho_minus(x))
            hi = np.atleast_1d(loss.rho_plus(x))
            assert np.all(lo <= hi)
            assert np.all(np.diff(lo) >= 0) and np.all(np.diff(hi) >= 0)

    def test_make_loss_validation(self):
        with pytest.raises(ConfigError):
            make_loss("quantile")
        with pytest.raises(ConfigError):
            make_loss("huber")
        with pytest.raises(ConfigError):
            QuantileLoss(tau=1.0)


class TestNoiseModel:
    def test_tau_centering_puts_quantile_at_zero(self):
        for kind in ("gaussian", "uniform", "laplace", "cauchy"):
            for tau in (0.2, 0.5, 0.9):
                nm = NoiseModel(kind=kind, scale=1.3, center_tau=tau)
                assert nm.cdf(0.0) == pytest.approx(tau, abs=1e-12)

    def test_sample_deterministic(self):
        nm = NoiseModel(kind="gaussian", scale=1.0)
        a = nm.sample_rng(100, np.random.default_rng(5))
        assert np.array_equal(a, nm.sample_rng(100, np.random.default_rng(5)))

    @pytest.mark.parametrize("tau", [None, 0.25, 0.5])
    @pytest.mark.parametrize("scale", [1.0, 2.5])
    @pytest.mark.parametrize("kind", ["gaussian", "uniform", "laplace", "cauchy"])
    def test_sample_is_the_out_of_place_draw(self, kind, scale, tau):
        """Scaling and shifting in place, and skipping a scale of 1.0 or a
        shift of 0.0, changes no bit of the draws or of the generator."""
        nm = NoiseModel(kind=kind, scale=scale, center_tau=tau)
        rng, ref_rng = np.random.default_rng(17), np.random.default_rng(17)
        x = nm.sample_rng(1000, rng)
        if kind == "gaussian":
            draw = ref_rng.standard_normal(1000) * scale
        elif kind == "uniform":
            draw = ref_rng.uniform(-scale, scale, size=1000)
        elif kind == "laplace":
            draw = ref_rng.laplace(0.0, scale, size=1000)
        else:
            draw = ref_rng.standard_cauchy(1000) * scale
        ref = draw - nm.shift
        assert x.dtype == ref.dtype and x.tobytes() == ref.tobytes()
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_negative_zero_shift_is_still_subtracted(self):
        """Laplace noise centred at its median has shift -0.0, and
        -0.0 - (-0.0) is +0.0: that subtraction is not skipped."""

        class Draws:
            def laplace(self, loc, scale, size):
                return np.array([-0.0, 0.0, 1.5])

        nm = NoiseModel(kind="laplace", scale=1.0, center_tau=0.5)
        assert nm.shift == 0.0 and math.copysign(1.0, nm.shift) < 0
        x = nm.sample_rng(3, Draws())
        assert x.tobytes() == (np.array([-0.0, 0.0, 1.5]) - nm.shift).tobytes()
        assert math.copysign(1.0, x[0]) > 0

    def test_gaussian_sample_mean(self):
        x = NoiseModel(kind="gaussian", scale=1.0).sample_rng(10**6, np.random.default_rng(1))
        assert abs(x.mean()) <= 4.0 / math.sqrt(10**6)

    def test_uniform_support(self):
        x = NoiseModel(kind="uniform", scale=1.0).sample_rng(10**4, np.random.default_rng(2))
        assert np.all(np.abs(x) <= 1.0)

    def test_cauchy_median(self):
        nm = NoiseModel(kind="cauchy", scale=1.0, center_tau=0.5)
        x = nm.sample_rng(10**6, np.random.default_rng(3))
        assert abs(np.median(x)) <= 0.01

    def test_sigma_for_quantile_is_half(self):
        q = QuantileLoss(0.3)
        for kind in ("gaussian", "uniform", "laplace", "cauchy"):
            nm = NoiseModel(kind=kind, scale=2.0, center_tau=0.3)
            assert nm.sigma_for(q) == 0.5

    def test_sigma_for_square(self):
        sq = SquareLoss()
        assert NoiseModel(kind="gaussian", scale=1.5).sigma_for(sq) == 1.5
        assert NoiseModel(kind="uniform", scale=0.7).sigma_for(sq) == 0.7
        for kind in ("cauchy", "laplace"):
            with pytest.raises(UnsupportedModelError):
                NoiseModel(kind=kind, scale=1.0).sigma_for(sq)

    def test_sigma_for_square_refuses_centered_quantile_noise(self):
        nm = NoiseModel("gaussian", 1.0, center_tau=0.5)
        with pytest.raises(UnsupportedModelError, match="square loss requires mean-centered noise"):
            nm.sigma_for(SquareLoss())

    def test_growth_constants(self):
        assert NoiseModel(kind="cauchy", scale=1.0, center_tau=0.5).growth_constant() == pytest.approx(
            1.0 / (2.0 * math.pi), rel=1e-12
        )
        assert NoiseModel(kind="gaussian", scale=1.0, center_tau=0.5).growth_constant() == pytest.approx(
            norm.pdf(1.0), rel=1e-12
        )
        assert NoiseModel(kind="uniform", scale=1.0, center_tau=0.5).growth_constant() == pytest.approx(0.5)
        with pytest.raises(UnsupportedModelError):
            NoiseModel(kind="uniform", scale=0.5, center_tau=0.5).growth_constant()

    def test_growth_constant_is_valid_linear_lower_bound(self):
        # |F(x) - F(0)| >= L|x| on a grid in [-1, 1]
        for kind in ("cauchy", "gaussian", "laplace"):
            nm = NoiseModel(kind=kind, scale=1.0, center_tau=0.4)
            L = nm.growth_constant()
            x = np.linspace(-1, 1, 2001)
            assert np.all(np.abs(nm.cdf(x) - nm.cdf(0.0)) >= L * np.abs(x) - 1e-12)

    def test_validation(self):
        with pytest.raises(ConfigError):
            NoiseModel(kind="beta", scale=1.0)
        with pytest.raises(ConfigError):
            NoiseModel(kind="gaussian", scale=0.0)
        with pytest.raises(ConfigError):
            NoiseModel(kind="gaussian", scale=1.0, center_tau=1.5)


class TestPopulationLoss:
    def test_square_closed_form(self):
        nm = NoiseModel(kind="gaussian", scale=1.0)
        assert L_plus(SquareLoss(), nm, 0.3) == -0.3
        assert L_minus(SquareLoss(), nm, -0.7) == 0.7

    def test_quantile_at_zero(self):
        nm = NoiseModel(kind="gaussian", scale=1.0, center_tau=0.5)
        assert L_plus(QuantileLoss(0.5), nm, 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_quantile_cauchy_closed_form(self):
        nm = NoiseModel(kind="cauchy", scale=1.0, center_tau=0.5)
        # F(0) - F(1) = 0.5 - (0.5 + arctan(1)/pi) = -0.25
        assert L_plus(QuantileLoss(0.5), nm, 1.0) == pytest.approx(-0.25, abs=1e-12)

    def test_pairing_enforced(self):
        nm_mean = NoiseModel(kind="gaussian", scale=1.0)
        nm_q = NoiseModel(kind="gaussian", scale=1.0, center_tau=0.3)
        with pytest.raises(UnsupportedModelError):
            L_plus(QuantileLoss(0.3), nm_mean, 0.1)
        with pytest.raises(UnsupportedModelError):
            L_plus(SquareLoss(), nm_q, 0.1)
        with pytest.raises(UnsupportedModelError):
            L_plus(QuantileLoss(0.4), nm_q, 0.1)

    def test_nonincreasing_and_order(self):
        nm = NoiseModel(kind="laplace", scale=1.0, center_tau=0.3)
        q = QuantileLoss(0.3)
        t = np.linspace(-2, 2, 41)
        lp = np.array([L_plus(q, nm, ti) for ti in t])
        lm = np.array([L_minus(q, nm, ti) for ti in t])
        assert np.all(np.diff(lp) <= 1e-12)
        assert np.all(lp >= lm - 1e-12)

    def test_quantile_gradient_centered(self):
        # E rho'_+(eps) = 0 under the centering convention
        for kind in ("gaussian", "cauchy", "laplace"):
            tau = 0.3
            nm = NoiseModel(kind=kind, scale=1.0, center_tau=tau)
            x = nm.sample_rng(200_000, np.random.default_rng(9))
            g = QuantileLoss(tau).rho_plus(x)
            assert abs(g.mean()) <= 4.0 * 0.5 / math.sqrt(x.size)

    def test_monte_carlo_matches_closed_form(self):
        R = 40_000
        nm = NoiseModel(kind="gaussian", scale=1.0, center_tau=0.5)
        q = QuantileLoss(0.5)
        eps = nm.sample_rng(R, np.random.default_rng(17))
        for t in np.linspace(-2, 2, 9):
            mc = float(np.mean(q.rho_plus(eps - t)))
            assert abs(mc - L_plus(q, nm, t)) <= 5.0 / math.sqrt(R)


def _invert(fn, v: float, tol: float = 1e-10) -> float:
    """Bisection inverse of a nonincreasing fn near 0; bracket grows geometrically."""
    if fn(0.0) == v:
        return 0.0
    lo, hi = -1.0, 1.0
    for _ in range(200):
        if fn(lo) >= v >= fn(hi):
            break
        lo *= 2.0
        hi *= 2.0
        if hi > 1e18:
            raise GflError(f"value {v} outside the attainable range of the loss")
    else:  # pragma: no cover
        raise GflError("bracketing failed")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if hi - lo <= tol:
            break
        if fn(mid) >= v:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def invert_L_plus(loss, noise: NoiseModel, v: float) -> float:
    """Local inverse of L_plus near 0, to absolute tolerance 1e-10."""
    return _invert(lambda t: L_plus(loss, noise, t), v)


def invert_L_minus(loss, noise: NoiseModel, v: float) -> float:
    return _invert(lambda t: L_minus(loss, noise, t), v)


class TestInversion:
    def test_square(self):
        nm = NoiseModel(kind="gaussian", scale=1.0)
        assert invert_L_plus(SquareLoss(), nm, -0.3) == pytest.approx(0.3, abs=1e-9)

    def test_quantile_gaussian(self):
        nm = NoiseModel(kind="gaussian", scale=1.0, center_tau=0.5)
        t = invert_L_plus(QuantileLoss(0.5), nm, -0.1)
        assert t == pytest.approx(float(ndtri(0.6)), abs=1e-8)

    def test_zero(self):
        nm = NoiseModel(kind="laplace", scale=1.0, center_tau=0.5)
        assert invert_L_minus(QuantileLoss(0.5), nm, 0.0) == 0.0

    def test_out_of_range(self):
        nm = NoiseModel(kind="gaussian", scale=1.0, center_tau=0.5)
        with pytest.raises(GflError):
            invert_L_plus(QuantileLoss(0.5), nm, -0.9)  # range is (-0.5, 0.5)

    @given(
        st.sampled_from(["gaussian", "laplace", "cauchy"]),
        st.floats(0.1, 0.9),
        st.floats(-0.05, 0.05),
    )
    @settings(max_examples=60, deadline=None)
    def test_roundtrip(self, kind, tau, v):
        nm = NoiseModel(kind=kind, scale=1.0, center_tau=tau)
        q = QuantileLoss(tau)
        t = invert_L_plus(q, nm, v)
        assert L_plus(q, nm, t) == pytest.approx(v, abs=1e-7)

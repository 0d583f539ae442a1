import math
import warnings

import numpy as np
import pytest

from gfl import lil
from gfl.errors import ConfigError, PreconditionError
from gfl.lil import LilEnvelope, envelope, verify_paths
from gfl.losses import NoiseModel


class TestEnvelope:
    def test_reference_values(self, oracle):
        assert envelope(4.0, LilEnvelope(1.0, 0.05)) == pytest.approx(
            15.446074746193219, rel=1e-12
        )
        assert envelope(1.0, LilEnvelope(1.0, 0.1)) == pytest.approx(
            5.565712421478323, rel=1e-12
        )
        rng = np.random.default_rng(0)
        for _ in range(50):
            t = float(rng.uniform(1, 1e6))
            sigma = float(rng.uniform(0.1, 5))
            delta = float(rng.uniform(0.01, 0.25))
            assert envelope(t, LilEnvelope(sigma, delta)) == pytest.approx(
                oracle.oracle_envelope(t, sigma, delta), rel=1e-12
            )

    def test_linear_in_sigma(self):
        t = np.linspace(1, 100, 23)
        e1 = envelope(t, LilEnvelope(1.0, 0.05))
        e3 = envelope(t, LilEnvelope(3.0, 0.05))
        assert np.allclose(e3, 3.0 * e1, rtol=1e-14)

    def test_monotone_in_t(self):
        t = np.linspace(1, 1e6, 10_000)
        e = envelope(t, LilEnvelope(1.0, 0.1))
        assert np.all(np.diff(e) > 0)

    def test_normalized_envelope_eventually_increasing(self):
        # envelope / sqrt(t) = 4 sigma sqrt(lnln 2t + ln(1/delta)) grows in t
        t = np.linspace(1, 1e6, 10_000)
        e = envelope(t, LilEnvelope(1.0, 0.1)) / np.sqrt(t)
        assert np.all(np.diff(e) > 0)

    def test_delta_range(self):
        with pytest.raises(PreconditionError):
            LilEnvelope(1.0, 0.3)
        with pytest.raises(PreconditionError):
            LilEnvelope(1.0, 0.0)
        with pytest.raises(ConfigError, match="delta must be a finite number"):
            LilEnvelope(1.0, math.nan)
        with pytest.raises(ConfigError):
            LilEnvelope(0.0, 0.1)
        with pytest.raises(ConfigError):
            envelope(0.5, LilEnvelope(1.0, 0.1))

    def test_violation_probability(self):
        env = LilEnvelope(2.0, 0.1)
        assert env.violation_probability() == pytest.approx(
            6.0 * 0.01 / math.log(2.0) ** 2, rel=1e-15
        )


class TestVerifyPaths:
    def test_tiny_noise_never_violates(self):
        noise = NoiseModel(kind="gaussian", scale=1e-6)
        res = verify_paths(noise, horizon=200, paths=100, env=LilEnvelope(1.0, 0.1), seed=1)
        assert res["violation_frequency"] == 0.0
        assert res["within_bound"]
        assert res["max_ratio"] < 1e-3

    def test_inflated_envelope_never_violates(self):
        noise = NoiseModel(kind="gaussian", scale=1.0)
        res = verify_paths(noise, horizon=500, paths=200, env=LilEnvelope(10.0, 0.1), seed=2)
        assert res["violation_frequency"] == 0.0

    def test_small_run_within_bound(self):
        noise = NoiseModel(kind="gaussian", scale=1.0)
        res = verify_paths(noise, horizon=1000, paths=500, env=LilEnvelope(1.0, 0.1), seed=3)
        assert res["violation_frequency"] <= res["probability_bound"] + res["binomial_slack"]
        assert 0.0 < res["max_ratio"] < 1.5

    def test_deterministic_and_chunk_invariant(self, monkeypatch):
        noise = NoiseModel(kind="gaussian", scale=1.0)
        a = verify_paths(noise, 300, 150, LilEnvelope(1.0, 0.1), seed=4)
        b = verify_paths(noise, 300, 150, LilEnvelope(1.0, 0.1), seed=4)
        assert a == b
        # chunking changes only memory layout, not the sample stream
        monkeypatch.setattr(lil, "_DRAW_BUDGET", 7 * 300)
        c = verify_paths(noise, 300, 150, LilEnvelope(1.0, 0.1), seed=4)
        assert c == a

    # (32768, 9): two chunks of 4 paths and a partial one; (131073, 3): a
    # horizon above the draw budget, one path per chunk
    @pytest.mark.parametrize(
        "horizon, paths", [(300, 150), (1, 3), (64, 65), (32768, 9), (131073, 3)]
    )
    def test_in_place_transform_matches_out_of_place(self, horizon, paths):
        """At sigma 2.5 the draws are scaled: the in-place cumsum, abs and
        divide give the out-of-place result, bit for bit."""
        noise = NoiseModel(kind="gaussian", scale=2.5)
        env = LilEnvelope(2.5, 0.1)
        res = verify_paths(noise, horizon, paths, env, seed=6)
        rng = np.random.default_rng(6)
        x = (rng.standard_normal(paths * horizon) * 2.5 - 0.0).reshape(paths, horizon)
        ratio = np.abs(np.cumsum(x, axis=1)) / envelope(np.arange(1, horizon + 1), env)
        path_max = ratio.max(axis=1)
        assert res["violations"] == int(np.count_nonzero(path_max > 1.0))
        assert res["max_ratio"] == float(path_max.max())
        t = res["ratio_quantiles"]["t"]
        table = np.quantile(ratio[:, np.array(t) - 1], [0.5, 0.9, 0.99, 1.0], axis=0)
        assert list(res["ratio_quantiles"].values())[1:] == table.tolist()

    @pytest.mark.parametrize(
        "noise",
        [
            NoiseModel("gaussian", 2.5),
            NoiseModel("uniform", 1.0),
            NoiseModel("laplace", 1.0, center_tau=0.5),  # its shift is -0.0
            NoiseModel("cauchy", 1.0, center_tau=0.5),
        ],
        ids=["gaussian", "uniform", "laplace", "cauchy"],
    )
    # at 2^15 + 1 a chunk is 3 paths, so 64 and 65 paths end in a partial one
    @pytest.mark.parametrize("horizon", [1, 2, 1024, 1025, 2**15 + 1])
    @pytest.mark.parametrize("paths", [1, 64, 65])
    def test_matches_out_of_place_numpy(self, noise, horizon, paths):
        """Each noise kind, drawn in one piece and transformed out of place
        by numpy, gives the violations, the largest ratio and the quantile
        table bit for bit."""
        env = LilEnvelope(noise.scale, 0.1)
        res = verify_paths(noise, horizon, paths, env, seed=9)
        x = noise.sample_rng(paths * horizon, np.random.default_rng(9)).reshape(paths, horizon)
        ratio = np.abs(np.cumsum(x, axis=1)) / envelope(np.arange(1, horizon + 1), env)
        path_max = ratio.max(axis=1)
        assert res["violations"] == int(np.count_nonzero(path_max > 1.0))
        assert res["max_ratio"] == float(path_max.max())
        t = 2 ** np.arange(horizon.bit_length())
        table = np.quantile(ratio[:, t - 1], [0.5, 0.9, 0.99, 1.0], axis=0)
        assert res["ratio_quantiles"]["t"] == t.tolist()
        got = np.array(list(res["ratio_quantiles"].values())[1:])
        assert got.tobytes() == table.tobytes()

    def test_sigma_times_horizon_bound(self):
        """sigma * horizon up to 2^1000 runs with finite ratios and no numpy
        warning; beyond it is refused before the first draw."""
        env = LilEnvelope(2.0**990, 0.1)
        noise = NoiseModel(kind="gaussian", scale=2.0**990)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = verify_paths(noise, 1024, 5, env, seed=1)
        assert 0.0 < res["max_ratio"] < 1.5
        for horizon in (1025, 10**400):
            with pytest.raises(ConfigError, match="sigma 1.046.*e\\+298 are beyond float64 scale.*2\\^1000"):
                verify_paths(noise, horizon, 5, env, seed=1)
        # either sigma counts: the noise's scale or the envelope's
        with pytest.raises(ConfigError, match="beyond float64 scale"):
            verify_paths(NoiseModel("gaussian", 1.0), 1025, 5, env, seed=1)
        with pytest.raises(ConfigError, match="beyond float64 scale"):
            verify_paths(noise, 1025, 5, LilEnvelope(1.0, 0.1), seed=1)

    def test_sigma_floor(self):
        """At sigma 2^-1000 the ratios are those at sigma 1, bit for bit;
        below it either sigma is refused before the first draw."""
        env, noise = LilEnvelope(2.0**-1000, 0.1), NoiseModel("gaussian", 2.0**-1000)
        res = verify_paths(noise, 100, 10, env, seed=1)
        ref = verify_paths(NoiseModel("gaussian", 1.0), 100, 10, LilEnvelope(1.0, 0.1), seed=1)
        assert res["ratio_quantiles"] == ref["ratio_quantiles"]
        assert res["max_ratio"] == ref["max_ratio"]
        tiny = 2.0**-1001
        for n, e in [(tiny, 1.0), (1.0, tiny), (tiny, tiny)]:
            with pytest.raises(ConfigError, match="beyond float64 scale.*2\\^-1000"):
                verify_paths(NoiseModel("gaussian", n), 100, 10, LilEnvelope(e, 0.1), seed=1)

    def test_ratio_quantiles_shape(self):
        noise = NoiseModel(kind="gaussian", scale=1.0)
        res = verify_paths(noise, 64, 50, LilEnvelope(1.0, 0.1), seed=5)
        rq = res["ratio_quantiles"]
        assert list(rq) == ["t", "ratio_q50", "ratio_q90", "ratio_q99", "ratio_q100"]
        assert rq["t"] == [1, 2, 4, 8, 16, 32, 64]
        rows = list(zip(*list(rq.values())[1:]))
        assert len(rows) == 7
        for row in rows:
            assert all(a <= b + 1e-15 for a, b in zip(row, row[1:]))
        # the grid is the powers of 2 up to the horizon
        res = verify_paths(noise, 100, 3, LilEnvelope(1.0, 0.1), seed=5)
        assert res["ratio_quantiles"]["t"][-1] == 64

    def test_bad_inputs(self):
        noise = NoiseModel(kind="gaussian", scale=1.0)
        with pytest.raises(ConfigError):
            verify_paths(noise, 0, 10, LilEnvelope(1.0, 0.1), seed=1)

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bounds_reference import seg_length
from gfl.bounds import (
    DELTA_MAX,
    BoundParams,
    admissibility,
    bound_report,
    compute_B,
    compute_B_improved,
    compute_B_quantile,
    elementwise_quantile_bound,
    iterative_sum_check,
    prob_const,
    sse_bound_mean,
    sse_bound_quantile,
    uniform_quantile_bound,
)
from gfl.errors import ConfigError, PreconditionError
from gfl.signal import PiecewiseConstantSignal


def geom(values, lengths):
    return PiecewiseConstantSignal(values, lengths).geometry()


def params(sigma=1.0, delta=0.1, lam=10.0):
    return BoundParams(sigma=sigma, delta=delta, lam=lam)


def uniform_bound_sufficient(n: int, delta: float, lam: float, L: float) -> bool:
    """Sufficient condition for uniform_quantile_bound applicability:
    n >= (4/L^2) ln(1/delta) and lambda >= (2/L)(lnln(2n) + ln(1/delta))."""
    l1d = math.log(1.0 / delta)
    return n >= 4.0 / (L * L) * l1d and lam >= 2.0 / L * (
        math.log(math.log(2.0 * n)) + l1d
    )


class TestConstants:
    def test_prob_const(self, oracle):
        assert prob_const() == pytest.approx(oracle.oracle_prob_const(), rel=1e-15)
        assert prob_const() == pytest.approx(50.952855544134586, rel=1e-12)

    def test_delta_max(self):
        assert DELTA_MAX == pytest.approx(math.log(2.0) / math.e, rel=1e-15)


class TestElementwise:
    def test_matches_oracle_reference_value(self, oracle):
        g = geom([0, 1], [100, 100])
        # index with d=3, m=100
        i = 3
        assert g.d[i - 1] == 3
        B = compute_B(i, g, params(sigma=0.5, delta=0.1, lam=10.0))
        assert B == pytest.approx(3.3827289311473514, rel=1e-12)
        assert B == pytest.approx(oracle.oracle_B(3, 100, 0.5, 0.1, 10.0), rel=1e-12)

    def test_random_draws_match_oracle(self, oracle):
        rng = np.random.default_rng(1)
        g = geom([0, 1, 0], [40, 60, 30])
        p_list = [
            params(
                sigma=float(rng.uniform(0.2, 3)),
                delta=float(rng.uniform(0.01, 0.25)),
                lam=float(rng.uniform(0.5, 50)),
            )
            for _ in range(100)
        ]
        for p in p_list:
            i = int(rng.integers(1, g.n + 1))
            d, m = int(g.d[i - 1]), seg_length(g, i)
            assert compute_B(i, g, p) == pytest.approx(
                oracle.oracle_B(d, m, p.sigma, p.delta, p.lam), rel=1e-12
            )
            assert compute_B_improved(i, g, p) == pytest.approx(
                oracle.oracle_B_improved(
                    d, m, int(g.m_left[i - 1]), int(g.m_right[i - 1]),
                    p.sigma, p.delta, p.lam,
                ),
                rel=1e-12,
            )

    def test_quantile_is_sigma_half_bitwise(self):
        g = geom([0, 2, 1], [10, 20, 10])
        for i in (1, 7, 15, 33, 40):
            assert compute_B_quantile(i, g, 0.05, 7.0) == compute_B(
                i, g, BoundParams(sigma=0.5, delta=0.05, lam=7.0)
            )

    def test_monotone_in_d_beyond_three(self):
        # within one long segment, B decreases as d grows past the floor of 3
        g = geom([0, 1], [2000, 2000])
        p = params(delta=0.05, lam=30.0)
        left_half = [compute_B(i, g, p) for i in range(3, 1001)]
        assert all(a >= b - 1e-15 for a, b in zip(left_half, left_half[1:]))

    def test_improved_reduces_when_runs_extend(self):
        # middle segment of a monotone signal has m_left = m_right = 60 > m = 10
        g = geom([0, 1, 2], [50, 10, 50])
        p = params(lam=20.0)
        i = 55
        assert compute_B_improved(i, g, p) < compute_B(i, g, p)

    def test_improved_doubles_lambda_term_when_no_extension(self):
        # alternating interior segment: m_left = m_right = m, so the
        # 2(lam/m_left + lam/m_right) form is 4 lam/m vs the plain 2 lam/m
        g = geom([0, 1, 0], [10, 10, 10])
        p = params(lam=20.0)
        i = 15
        diff = compute_B_improved(i, g, p) - compute_B(i, g, p)
        assert diff == pytest.approx(2.0 * p.lam / 10.0, rel=1e-12)

    def test_single_segment_improved(self, oracle):
        g = geom([0], [50])
        p = params(lam=5.0)
        assert compute_B_improved(10, g, p) == pytest.approx(
            oracle.oracle_B_improved(10, 50, 50, 50, p.sigma, p.delta, p.lam), rel=1e-12
        )

    @pytest.mark.parametrize(
        "i",
        [0, 21, -1, np.array([1, 5, 21]), np.array([0, 3]), 2.0, np.array([1.0, 2.0]), True],
    )
    def test_index_outside_range_or_not_integer(self, i):
        # 0 used to wrap to index n through d[-1], n + 1 to end in IndexError
        g = geom([0, 1], [10, 10])
        p = params()
        for f in (
            lambda: compute_B(i, g, p),
            lambda: compute_B_improved(i, g, p),
            lambda: compute_B_quantile(i, g, 0.1, 10.0),
            lambda: elementwise_quantile_bound(i, g, 0.1, 10.0, 1.0),
        ):
            with pytest.raises(ConfigError, match=r"indices must be integers in \[1, 20\]"):
                f()

    def test_delta_range_enforced(self):
        g = geom([0], [10])
        with pytest.raises(PreconditionError):
            compute_B(1, g, params(delta=0.5))
        with pytest.raises(PreconditionError):
            compute_B(1, g, params(delta=0.0))
        for delta in (math.nan, math.inf, -math.inf):  # malformed, not out of range
            with pytest.raises(ConfigError, match="delta must be a finite number"):
                compute_B(1, g, params(delta=delta))


class TestApplicability:
    def test_elementwise_gate(self):
        # large segments and a moderate lambda make B <= L at deep indices
        g = geom([0, 1], [4096, 4096])
        pb = elementwise_quantile_bound(2048, g, delta=0.05, lam=70.0, L=0.5)
        assert pb.applicable
        assert pb.value <= 1.0
        near = elementwise_quantile_bound(4096, g, delta=0.05, lam=70.0, L=0.5)
        assert not near.applicable  # d = 1 at the change point

    def test_admissibility_thresholds(self):
        g = geom([0, 1], [30000, 30000])
        delta = math.exp(-1.0)
        # L = 1: per-index distance threshold is 12^4 = 20736
        _, per_index, details = admissibility(g, delta=delta, lam=100.0, L=1.0)
        assert details["index_distance_threshold"] == pytest.approx(20736.0)
        assert not per_index[0] and not per_index[29999]
        # L = 12: all three pieces of the max reduce to 3 (or less)
        _, _, d12 = admissibility(g, delta=delta, lam=100.0, L=12.0)
        assert d12["index_distance_threshold"] == pytest.approx(3.0)

    def test_admissibility_implies_gate(self):
        # sufficient conditions, when they hold, imply B_quantile <= L
        rng = np.random.default_rng(3)
        hits = 0
        for _ in range(300):
            m = int(rng.integers(50, 5000))
            g = geom([0, 1], [m, m])
            L = float(rng.uniform(1.0, 12.0))
            delta = float(rng.uniform(0.01, 0.25))
            lam = float(rng.uniform(1.0, 500.0))
            sig_ok, per_index, _ = admissibility(g, delta, lam, L)
            if not sig_ok:
                continue
            for i in np.flatnonzero(per_index)[:5] + 1:
                hits += 1
                assert compute_B_quantile(int(i), g, delta, lam) <= L + 1e-12
        assert hits > 20

    def test_admissibility_delta_outside_range(self):
        # a finite delta outside (0, 1) is a precondition failure, as for
        # every other bound; a delta that is no number is a config error
        g = geom([0, 1], [64, 64])
        for delta in (1.5, 0.0):
            with pytest.raises(PreconditionError, match=r"delta must lie in \(0, 1\)"):
                admissibility(g, delta, 5.0, 1.0)
        with pytest.raises(ConfigError, match="delta must be a finite number"):
            admissibility(g, math.nan, 5.0, 1.0)

    def test_uniform_bound_and_sufficiency(self, oracle):
        n, delta, lam, L = 8192, 0.05, 120.0, 0.5
        pb = uniform_quantile_bound(n, delta, lam, L)
        assert pb.value * L == pytest.approx(oracle.oracle_B_uniform(n, delta, lam), rel=1e-12)
        rng = np.random.default_rng(4)
        for _ in range(200):
            n = int(rng.integers(10, 10**6))
            delta = float(rng.uniform(0.01, 0.25))
            lam = float(rng.uniform(0.5, 500.0))
            L = float(rng.uniform(0.05, 2.0))
            if uniform_bound_sufficient(n, delta, lam, L):
                assert uniform_quantile_bound(n, delta, lam, L).applicable


_G = geom([0, 1], [64, 64])
# each public bound with lambda or sigma free (test_growth_L_must_be_positive_and_finite
# covers L); BoundParams stands for compute_B and compute_B_improved
_SCALE_INPUTS = {
    "BoundParams-sigma": ("sigma", lambda v: BoundParams(sigma=v, delta=0.1, lam=5.0)),
    "BoundParams-lambda": ("lambda", lambda v: BoundParams(sigma=1.0, delta=0.1, lam=v)),
    "compute_B_quantile-lambda": ("lambda", lambda v: compute_B_quantile(1, _G, 0.1, v)),
    "elementwise-lambda": ("lambda", lambda v: elementwise_quantile_bound(1, _G, 0.1, v, 1.0)),
    "admissibility-lambda": ("lambda", lambda v: admissibility(_G, 0.1, v, 1.0)),
    "uniform-lambda": ("lambda", lambda v: uniform_quantile_bound(_G.n, 0.1, v, 1.0)),
    "sse_quantile-lambda": ("lambda", lambda v: sse_bound_quantile(_G, 1e-3, v, 1.0)),
    "sse_mean-lambda": ("lambda", lambda v: sse_bound_mean(_G, 1e-3, v, 1.0)),
    "sse_mean-sigma": ("sigma", lambda v: sse_bound_mean(_G, 1e-3, 5.0, v)),
}


@pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize("case", sorted(_SCALE_INPUTS))
def test_scale_inputs_must_be_positive_and_finite(case, value):
    """Every public bound refuses a lambda or sigma that is not positive and
    finite, naming it; sigma = inf used to reach the SSE mean bound's
    overflow message, and lambda = nan to make admissibility report False."""
    name, call = _SCALE_INPUTS[case]
    with pytest.raises(ConfigError, match=f"{name} must be positive and finite"):
        call(value)


@pytest.mark.parametrize("L", [0.0, -1.0, math.inf, math.nan])
def test_growth_L_must_be_positive_and_finite(L):
    # an infinite L used to pass and report every bound / L as 0, applicable
    g = geom([0, 1], [64, 64])
    msg = "growth constant L must be positive and finite"
    with pytest.raises(ConfigError, match=msg):
        BoundParams(sigma=0.5, delta=0.1, lam=5.0, growth_L=L)
    with pytest.raises(ConfigError, match=msg):
        elementwise_quantile_bound(10, g, 0.1, 5.0, L)
    with pytest.raises(ConfigError, match=msg):
        admissibility(g, 0.1, 5.0, L)
    with pytest.raises(ConfigError, match=msg):
        uniform_quantile_bound(g.n, 0.1, 5.0, L)
    with pytest.raises(ConfigError, match=msg):
        sse_bound_quantile(g, 1e-3, 5.0, L)


class TestSse:
    def setup_method(self):
        self.g = geom([0, 1, 0, 1], [1024] * 4)

    def test_quantile_matches_oracle(self, oracle):
        delta, lam, L = 1e-3, 300.0, 4.0
        b = sse_bound_quantile(self.g, delta, lam, L)
        ref = oracle.oracle_sse_quantile(
            list(self.g.segment_lengths), list(self.g.eta), delta, lam, L, self.g.V
        )
        assert b.bound == pytest.approx(ref, rel=1e-12)
        assert sum(b.terms.values()) == pytest.approx(b.bound, rel=1e-12)
        bi = sse_bound_quantile(self.g, delta, lam, L, improved=True)
        refi = oracle.oracle_sse_quantile(
            list(self.g.segment_lengths), list(self.g.eta), delta, lam, L, self.g.V, improved=True
        )
        assert bi.bound == pytest.approx(refi, rel=1e-12)

    def test_mean_matches_oracle(self, oracle):
        delta, lam, sigma = 1e-3, 300.0, 1.5
        for improved in (False, True):
            b = sse_bound_mean(self.g, delta, lam, sigma, improved=improved)
            ref = oracle.oracle_sse_mean(
                list(self.g.segment_lengths), list(self.g.eta), delta, lam, sigma, improved=improved
            )
            assert b.bound == pytest.approx(ref, rel=1e-12)

    def test_window_failures_listed_and_bound_evaluated(self):
        # tiny segments cannot satisfy m_min >= 18 ln(n/delta) / L^2
        g = geom([0, 1], [5, 5])
        b = sse_bound_quantile(g, 1e-3, 3.0, 0.5)
        conds = [f["condition"] for f in b.precondition_failures]
        assert any("m_min" in c for c in conds)
        for f in b.precondition_failures:
            assert {"condition", "value", "threshold"} <= set(f)
        assert math.isfinite(b.bound) and b.bound > 0

    def test_improved_lambda_term_within_6x(self):
        # 144 lam^2 sum' 1/m_k <= 6 * 24 lam^2 sum_k 1/m_k
        rng = np.random.default_rng(5)
        for _ in range(200):
            K = int(rng.integers(1, 8))
            lengths = rng.integers(1, 50, size=K).tolist()
            vals = np.cumsum(rng.choice([-1.0, 1.0], size=K))
            vals[0] = 0.0
            try:
                g = geom(list(np.concatenate([[0.0], np.cumsum(rng.choice([-1, 1], K - 1))])), lengths)
            except Exception:
                continue
            bi = sse_bound_mean(g, 1e-3, 50.0, 1.0, improved=True)
            b = sse_bound_mean(g, 1e-3, 50.0, 1.0)
            assert bi.terms["lambda_sq"] <= 6.0 * b.terms["lambda_sq"] + 1e-9

    def test_monotone_signal_improved_sum_is_edges_only(self):
        # all jumps same direction: only segments 1 and K have eta_{k-1} != eta_k
        g = geom([0, 1, 2, 3], [16, 32, 64, 128])
        b = sse_bound_mean(g, 1e-3, 10.0, 1.0, improved=True)
        expect = 144.0 * 100.0 * (1.0 / 16 + 1.0 / 128)
        assert b.terms["lambda_sq"] == pytest.approx(expect, rel=1e-12)

    def test_k1_mean_lambda_term(self):
        # single segment: improved sum empty, plain sum is 24 lam^2 / n
        g = geom([0], [256])
        b = sse_bound_mean(g, 1e-3, 10.0, 1.0)
        assert b.terms["lambda_sq"] == pytest.approx(24.0 * 100.0 / 256.0, rel=1e-12)
        bi = sse_bound_mean(g, 1e-3, 10.0, 1.0, improved=True)
        assert bi.terms["lambda_sq"] == 0.0

    def test_sigma_homogeneity(self):
        # lil and segment_count terms scale as sigma^2, inv_lambda_sq as sigma^4
        b1 = sse_bound_mean(self.g, 1e-3, 300.0, 1.0)
        b2 = sse_bound_mean(self.g, 1e-3, 300.0, 2.0)
        assert b2.terms["lil"] == pytest.approx(4.0 * b1.terms["lil"], rel=1e-12)
        assert b2.terms["segment_count"] == pytest.approx(
            4.0 * b1.terms["segment_count"], rel=1e-12
        )
        assert b2.terms["inv_lambda_sq"] == pytest.approx(
            16.0 * b1.terms["inv_lambda_sq"], rel=1e-12
        )
        assert b2.terms["lambda_sq"] == b1.terms["lambda_sq"]

    def test_rate_shape_in_n(self):
        # at lambda = sqrt(n/K) * ln n the bound grows sublinearly in n
        vals = []
        for p in range(10, 17):
            n = 2**p
            g = geom([0, 1], [n // 2, n // 2])
            lam = math.log(n) * math.sqrt(n / 2)
            vals.append(sse_bound_mean(g, 1e-3, lam, 1.0).bound)
        ratios = [b / a for a, b in zip(vals, vals[1:])]
        assert all(r < 2.0 for r in ratios)  # doubling n less than doubles the bound

    def test_bound_fields(self):
        b = sse_bound_mean(self.g, 1e-3, 300.0, 1.0)
        assert b.bound > 0 and b.precondition_failures == ()

    @pytest.mark.parametrize("lam", [0.0, -1.0])
    def test_lambda_must_be_positive(self, lam):
        # 1/lambda^2 terms: lambda = 0 used to end in ZeroDivisionError
        with pytest.raises(ConfigError, match="lambda must be positive"):
            sse_bound_mean(self.g, 1e-3, lam, 1.0)
        with pytest.raises(ConfigError, match="lambda must be positive"):
            sse_bound_quantile(self.g, 1e-3, lam, 4.0)
        with pytest.raises(ConfigError, match="lambda must be positive"):
            uniform_quantile_bound(self.g.n, 0.05, lam, 4.0)

    @pytest.mark.parametrize(
        "bound, lam, scale",
        [
            (sse_bound_mean, 1.0, 1e200),
            (sse_bound_mean, 1e200, 1.0),
            (sse_bound_mean, np.float64(1e-160), 1.0),
            (sse_bound_quantile, 1e200, 4.0),
            (sse_bound_quantile, np.float64(1e-160), 4.0),
        ],
    )
    def test_overflow_is_refused_without_warning(self, bound, lam, scale):
        """A bound beyond float64's range is refused, naming lambda and sigma
        (or L), and numpy warns of nothing."""
        name = "sigma" if bound is sse_bound_mean else "L"
        want = f"lambda {float(lam)!r} and {name} {scale!r} is beyond float64 scale"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match=re.escape(want)):
                bound(self.g, 1e-3, lam, scale)


class TestIterativeSum:
    def test_single_segment(self):
        lhs, rhs = iterative_sum_check([5])
        assert lhs == pytest.approx(5 / 25)
        assert rhs == pytest.approx(3 / 5)
        assert lhs <= rhs

    def test_all_ones(self):
        # lhs = sum_{j=1..K} 1/(K-j+1)^2 <= pi^2/6 < 3 = rhs
        lhs, rhs = iterative_sum_check([1] * 50)
        assert lhs <= math.pi**2 / 6 + 1e-12
        assert rhs == 3.0
        assert lhs <= rhs

    @given(st.lists(st.integers(1, 10**6), min_size=1, max_size=20))
    @settings(max_examples=500, deadline=None)
    def test_inequality_property(self, m):
        lhs, rhs = iterative_sum_check(m)
        assert lhs <= rhs + 1e-15


class TestReport:
    def test_report_consistency(self):
        g = geom([0, 1], [20, 20])
        p = params(delta=0.05, lam=8.0)
        summary, cols = bound_report(g, p)
        assert list(cols) == ["B", "B_improved", "B_quantile", "applicable"]
        assert list(summary) == [
            "signal_admissible", "pointwise_probability_raw", "pointwise_probability"
        ]
        for i in (1, 10, 25, 40):
            assert cols["B"][i - 1] == compute_B(i, g, p)
            assert cols["B_improved"][i - 1] == compute_B_improved(i, g, p)
            assert cols["B_quantile"][i - 1] == compute_B_quantile(i, g, p.delta, p.lam)

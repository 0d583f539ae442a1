import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gfl.bounds import BoundParams, bound_report, elementwise_quantile_bound, sse_bound_mean
from gfl.errors import ConfigError, GflError
from gfl.losses import QuantileLoss, SquareLoss
from gfl.signal import PiecewiseConstantSignal
from gfl.solver import FusedLassoProblem, check_kkt, objective, solve
from solver_reference import (
    interval_score_lower,
    interval_score_upper,
    oracle_solve,
    solve_augmented,
)

SQ = SquareLoss()
MED = QuantileLoss(0.5)


def prob(y, lam, loss=SQ):
    return FusedLassoProblem(np.asarray(y, dtype=float), lam, loss)


class TestKnownSolutions:
    def test_square_split(self):
        # fusing 0,0 while the outlier pulls one unit of penalty:
        # theta = [c, c, t] with c = lam/2, t = 10 - lam
        sol = solve(prob([0.0, 0.0, 10.0], 1.0))
        assert np.allclose(sol.theta_hat, [0.5, 0.5, 9.0], atol=1e-9)
        assert sol.kkt_residual <= 1e-9

    def test_median_ignores_outlier(self):
        sol = solve(prob([0.0, 0.0, 10.0], 1.0, MED))
        assert np.allclose(sol.theta_hat, [0.0, 0.0, 0.0], atol=1e-12)
        assert sol.kkt_residual <= 1e-12

    def test_lambda_zero_interpolates(self):
        y = np.array([3.0, -1.0, 2.0, 2.0])
        for loss in (SQ, MED):
            sol = solve(prob(y, 0.0, loss))
            assert np.array_equal(sol.theta_hat, y)
            assert sol.kkt_residual == 0.0

    def test_constant_input(self):
        for loss in (SQ, MED):
            sol = solve(prob(np.full(7, 2.5), 3.0, loss))
            assert np.allclose(sol.theta_hat, 2.5, atol=1e-12)


class TestLargeN:
    @pytest.mark.parametrize("lam", [0.01, 1.0])
    def test_quantile_ramp_beyond_65536(self, lam):
        # A near-monotone input makes clipping delete almost every
        # breakpoint, so far more than 65,536 entries are deleted in one fit.
        rng = np.random.default_rng(0)
        y = np.linspace(0, 100, 140000) + 0.01 * rng.standard_normal(140000)
        sol = solve(prob(y, lam, MED))
        assert sol.kkt_residual <= 1e-12


class TestFloat64Scale:
    """Inputs whose sums or objective leave float64 end in an error that says
    so, not in a wrong message or a non-finite result."""

    def test_sum_of_y_beyond_scale_is_rejected(self):
        # the square DP's offset -sum(y) would overflow to -inf
        with pytest.raises(ConfigError, match="float64"):
            solve(prob([1e307] * 100, 1.0))

    def test_objective_overflow_is_rejected(self):
        # within scale, and the fit theta = 0 is certified, but its residuals'
        # squares overflow: objective refuses the value, solve does not
        y = [1e200, -1e200]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = solve(prob(y, 1e300))
            assert sol.theta_hat.tolist() == [0.0, 0.0] and sol.kkt_residual == 0.0
            with pytest.raises(GflError, match="objective .* float64"):
                objective(y, 1e300, SQ, sol.theta_hat)

    def test_int_lambda_beyond_scale_is_rejected(self):
        # 2^1020 is a float64, but lambda + n*max|y| is beyond the scale
        with pytest.raises(ConfigError, match="lambda \\+ n\\*max\\|y\\| .* float64"):
            prob([1e300] * 4, 2**1020)

    def test_fraction_lambda_beyond_scale_is_rejected(self):
        # a Fraction is a numbers.Real without format type "g": the message
        # formats its float, which the 2^1020 check before it keeps finite
        with pytest.raises(ConfigError, match="lambda \\+ n\\*max\\|y\\| = 0.333333 \\+ 4\\*1e\\+307"):
            FusedLassoProblem(np.full(4, 1e307), Fraction(1, 3), SquareLoss())

    def test_int_lambda_beyond_float64_is_rejected(self):
        # 2^2000 has no float64 value; the scale bound rejects it as well
        with pytest.raises(ConfigError, match="lambda exceeds 2\\^1020 .* float64"):
            prob([1.0, 2.0], 2**2000)

    def test_string_lambda_is_rejected(self):
        with pytest.raises(ConfigError, match="finite, nonnegative real number"):
            prob([1.0, 2.0], "3")

    @pytest.mark.parametrize("lam", [True, False])
    def test_bool_lambda_is_rejected(self, lam):
        # bool is an int subclass: True would be solved as lambda 1
        with pytest.raises(ConfigError, match="finite, nonnegative real number"):
            prob([0.0, 1.0, 5.0], lam)


class TestAugmented:
    def test_huge_lambda_pins_boundaries(self):
        th = solve_augmented(np.array([5.0]), 1e6, 0.0, 0.0, MED)
        assert abs(th[0]) <= 5e-6 * 5.0

    def test_lambda_zero(self):
        y = np.array([1.0, -2.0, 0.5])
        th = solve_augmented(y, 0.0, 7.0, -7.0, SQ)
        assert np.array_equal(th, y)

    def test_matching_boundaries_recover_plain_solution(self):
        y = np.array([0.0, 0.0, 10.0])
        th = solve_augmented(y, 1.0, 0.5, 9.0, SQ)
        assert np.allclose(th, [0.5, 0.5, 9.0], atol=1e-9)

    def test_augmented_objective_optimal(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            n = rng.integers(1, 5)
            y = rng.normal(size=n).round(2)
            lam = float(rng.choice([0.3, 1.0, 2.0]))
            a, b = rng.normal(size=2).round(2)
            loss = MED if rng.random() < 0.5 else SQ

            def aug(th):
                return (
                    objective(y, lam, loss, th)
                    + lam * abs(th[0] - a)
                    + lam * abs(th[-1] - b)
                )

            th = solve_augmented(y, lam, a, b, loss)
            best = aug(th)
            for _ in range(200):
                cand = th + rng.normal(scale=0.1, size=n)
                assert best <= aug(cand) + 1e-9


class TestKkt:
    def test_certifies_optimum_rejects_perturbation(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n = int(rng.integers(2, 40))
            y = rng.normal(size=n)
            lam = float(rng.choice([0.2, 1.0, 5.0]))
            loss = MED if rng.random() < 0.5 else SQ
            p = prob(y, lam, loss)
            sol = solve(p)
            assert sol.kkt_residual <= 1e-9
            bad = sol.theta_hat.copy()
            bad[int(rng.integers(0, n))] += 0.5
            resid_bad, _ = check_kkt(p, bad)
            assert resid_bad >= 0.05

    def test_dual_feasible(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            y = rng.normal(size=30)
            lam = 1.5
            p = prob(y, lam, MED)
            sol = solve(p)
            _, z = check_kkt(p, sol.theta_hat)  # one multiplier per interior edge
            assert z.size == y.size - 1
            assert np.all(np.abs(z) <= lam + 1e-12)
            jumps = np.diff(sol.theta_hat)
            active = np.abs(jumps) > 1e-9
            assert np.allclose(z[active], lam * np.sign(jumps[active]))


class TestOracleAgreement:
    def test_oracle_meta_literal_enumeration(self):
        # the transform-based grid DP equals brute force over grid^n
        rng = np.random.default_rng(7)
        for _ in range(10):
            y = rng.normal(size=2).round(1)
            lam = float(rng.choice([0.0, 0.5, 1.0]))
            loss = MED if rng.random() < 0.5 else SQ
            p = prob(y, lam, loss)
            step = 0.05
            th = oracle_solve(p, step=step)
            grid = np.arange(y.min() - 1.0, y.max() + 1.0 + step / 2, step)
            vals = np.array(
                [
                    objective(y, lam, loss, [a, b])
                    for a in grid
                    for b in grid
                ]
            )
            assert objective(y, lam, loss, th) <= vals.min() + 1e-12

    def test_solver_matches_oracle(self):
        rng = np.random.default_rng(8)
        for _ in range(60):
            n = int(rng.integers(1, 5))
            y = rng.normal(size=n).round(2)
            lam = float(rng.choice([0.0, 0.3, 1.0, 2.5]))
            loss = MED if rng.random() < 0.5 else SQ
            p = prob(y, lam, loss)
            sol = solve(p)
            ref = oracle_solve(p)
            assert objective(y, lam, loss, sol.theta_hat) <= objective(y, lam, loss, ref) + 1e-4
            assert sol.kkt_residual <= 1e-9


def bits(problem, sol):
    """theta_hat, kkt_residual and the dual z of ``problem``'s fit ``sol``, as bytes."""
    _, z = check_kkt(problem, sol.theta_hat)
    return (sol.theta_hat.tobytes(), np.float64(sol.kkt_residual).tobytes(), z.tobytes())


def fit_bits(problem):
    return bits(problem, solve(problem))


class TestRawPointerInputs:
    """The kernels take raw pointers, which check no dtype, contiguity or
    writability; FusedLassoProblem and check_kkt make every array passed."""

    WAVE = np.cos(np.arange(80) * 0.37) * 3.0

    @pytest.mark.parametrize("loss", [SQ, QuantileLoss(0.3)], ids=["square", "quantile"])
    @pytest.mark.parametrize(
        "y", [np.arange(40.0)[::2], WAVE[::2], WAVE[::-3]], ids=["arange", "wave", "reversed"]
    )
    def test_strided_view_fits_as_contiguous_copy(self, y, loss):
        assert not y.flags.c_contiguous
        want = fit_bits(FusedLassoProblem(np.ascontiguousarray(y), 1.5, loss))
        assert fit_bits(FusedLassoProblem(y, 1.5, loss)) == want

    @pytest.mark.parametrize("loss", [SQ, QuantileLoss(0.3)], ids=["square", "quantile"])
    @pytest.mark.parametrize("dtype", [np.int64, np.int32, np.float32])
    def test_other_dtypes_fit_as_float64(self, dtype, loss):
        y64 = np.round(self.WAVE * 4.0)  # whole numbers, exact in every dtype here
        y = y64.astype(dtype)
        assert np.array_equal(y.astype(np.float64), y64)
        want = fit_bits(FusedLassoProblem(y64, 1.5, loss))
        assert fit_bits(FusedLassoProblem(y, 1.5, loss)) == want

    @pytest.mark.parametrize(
        "y", [WAVE[::2], np.arange(5), np.arange(5, dtype=np.float32)],
        ids=["strided", "int64", "float32"],
    )
    def test_problem_holds_contiguous_float64_y_and_float_lambda(self, y):
        p = FusedLassoProblem(y, 1, SQ)
        assert p.y.dtype == np.float64 and p.y.flags.c_contiguous
        assert np.array_equal(p.y, y)
        assert type(p.lam) is float

    @pytest.mark.parametrize("y", [np.float64(1.0), [[1.0, 2.0]], []], ids=["0-d", "2-d", "empty"])
    def test_y_that_is_no_nonempty_vector_is_rejected(self, y):
        with pytest.raises(ConfigError, match="nonempty 1D vector"):
            FusedLassoProblem(y, 1.0, SQ)

    @pytest.mark.parametrize("loss", [SQ, QuantileLoss(0.3)], ids=["square", "quantile"])
    @pytest.mark.parametrize(
        "lams", [(0, 0.0, np.int64(0), np.float64(0)), (3, 3.0)], ids=["zero", "three"]
    )
    def test_lambda_type_changes_no_bit(self, lams, loss):
        # at y = [1, 0], theta = [1, 1] and tau = 0.3 the flat edge's z is
        # the sign of zero of -lam, so an int 0 and 0.0 must reach C alike
        for y, theta in (([1.0, 0.0], [1.0, 1.0]), (self.WAVE, self.WAVE[::-1])):
            got = set()
            for lam in lams:
                p = FusedLassoProblem(np.array(y), lam, loss)
                resid, z = check_kkt(p, theta)
                got.add((fit_bits(p), np.float64(resid).tobytes(), z.tobytes()))
            assert len(got) == 1

    def test_read_only_input(self):
        y = self.WAVE.copy()
        want = fit_bits(prob(y, 0.8, MED))
        y.flags.writeable = False
        assert fit_bits(FusedLassoProblem(y, 0.8, MED)) == want

    def test_check_kkt_on_strided_and_float32_theta(self):
        p = FusedLassoProblem(self.WAVE[::2], 1.5, MED)
        theta = solve(p).theta_hat
        resid, z = check_kkt(p, theta)
        got = check_kkt(p, np.repeat(theta, 2)[::2])
        assert got[0] == resid and got[1].tobytes() == z.tobytes()
        t32 = theta.astype(np.float32)
        resid, z = check_kkt(p, t32.astype(np.float64))
        got = check_kkt(p, t32)
        assert got[0] == resid and got[1].tobytes() == z.tobytes()

    def test_no_buffer_is_shared_between_fits(self):
        a = prob(self.WAVE[:50], 1.5, SQ)
        first = solve(a)
        want = bits(a, first)  # builds first's z now
        late = solve(a)  # its z is built only after the other fits
        others = (
            prob(self.WAVE[10:60], 0.4, QuantileLoss(0.3)),  # same size, other loss
            prob(self.WAVE, 0.4, QuantileLoss(0.3)),
            prob(self.WAVE[:7], 2.0, SQ),
        )
        for other in others:
            sol = solve(other)
            _, z = check_kkt(other, sol.theta_hat)
            z[:] = 7.0
            sol.theta_hat[:] = 7.0
        assert bits(a, first) == want
        assert bits(a, late) == want

    @pytest.mark.parametrize("where", [0, 5, -1])
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_check_kkt_rejects_non_finite_theta(self, where, bad):
        for loss in (SQ, MED):
            p = prob(self.WAVE[:10], 1.0, loss)
            theta = solve(p).theta_hat.copy()
            theta[where] = bad
            with pytest.raises(ConfigError, match="finite vector matching y"):
                check_kkt(p, theta)

    def test_check_kkt_rejects_wrong_shape(self):
        p = prob([1.0], 1.0)
        for theta in (1.0, [1.0, 2.0], [[1.0]]):
            with pytest.raises(ConfigError, match="finite vector matching y"):
                check_kkt(p, theta)


class TestLeanSolve:
    """``solve`` writes the certificate's state into the DP's workspace, and
    ``FusedLassoProblem`` takes a float lambda in [0, 2^1020] without its
    other checks: the residual and every refusal and stored lambda stay."""

    @pytest.mark.parametrize("loss", [SQ, MED], ids=["square", "quantile"])
    @pytest.mark.parametrize("n", [1, 2, 3, 2**12])
    @pytest.mark.parametrize("lam", [0.0, 0.7, 20.0])
    def test_residual_is_check_kkt_bit_for_bit(self, loss, n, lam):
        rng = np.random.default_rng(n)
        y = np.repeat([0.0, 2.0], [n // 2, n - n // 2]) + rng.standard_cauchy(n)
        p = FusedLassoProblem(y, lam, loss)
        sol = solve(p)
        resid, _ = check_kkt(p, sol.theta_hat)
        assert np.float64(sol.kkt_residual).tobytes() == np.float64(resid).tobytes()

    @pytest.mark.parametrize(
        "lam, message",
        [
            (float("nan"), "lambda must be a finite, nonnegative real number"),
            (float("inf"), "lambda must be a finite, nonnegative real number"),
            (float("-inf"), "lambda must be a finite, nonnegative real number"),
            (-1.0, "lambda must be a finite, nonnegative real number"),
            (True, "lambda must be a finite, nonnegative real number"),
            (
                2.0**1021,
                "lambda exceeds 2^1020 (1.124e+307), the largest scale the float64 solver"
                " takes; rescale y and lambda",
            ),
        ],
        ids=["nan", "inf", "-inf", "negative", "bool", "beyond-scale"],
    )
    def test_refusals_keep_their_messages(self, lam, message):
        with pytest.raises(ConfigError) as info:
            prob([0.0, 1.0], lam)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "lam, want",
        [(-0.0, -0.0), (0.0, 0.0), (np.float64(2.5), 2.5), (3, 3.0), (2.0**1020, 2.0**1020)],
        ids=["-0.0", "0.0", "np.float64", "int", "2^1020"],
    )
    def test_lambda_stored_as_the_same_float(self, lam, want):
        p = prob([0.0], lam)
        assert type(p.lam) is float
        assert np.float64(p.lam).tobytes() == np.float64(want).tobytes()


def test_solution_holds_only_the_fit_and_its_residual():
    """A solution keeps theta_hat and kkt_residual; z and the objective come
    from check_kkt and objective."""
    for loss in (SQ, MED):
        sol = solve(prob([1.0, -1.0, 2.0, 2.0], 0.7, loss))
        assert set(vars(sol)) == {"theta_hat", "kkt_residual"}


def test_array_holding_types_compare_by_identity():
    """== and hash() on the types that hold arrays (or a dict) return
    without raising."""
    p = prob([0.0, 1.0, 5.0], 1.0)
    signal = PiecewiseConstantSignal([0.0, 1.0], [4, 4])
    geometry = signal.geometry()
    params = BoundParams(sigma=1.0, delta=0.1, lam=2.0, growth_L=1.0)
    idx = np.arange(1, 9)
    makers = (
        lambda: p,
        lambda: solve(p),
        signal.geometry,
        lambda: elementwise_quantile_bound(idx, geometry, 0.1, 2.0, 1.0),
        lambda: bound_report(geometry, params),
        lambda: sse_bound_mean(geometry, 0.01, 2.0, 1.0),
    )
    for make in makers:
        a, b = make(), make()
        assert a == a and hash(a) == hash(a)
        assert (a == b) == (a is b)


class TestStructuralProperties:
    @given(
        st.lists(st.floats(-5, 5), min_size=1, max_size=64),
        st.floats(0, 4),
        st.floats(-10, 10),
        st.booleans(),
    )
    @settings(max_examples=100, deadline=None)
    def test_translation_equivariance(self, y, lam, c, use_median):
        y = np.round(np.asarray(y), 3)
        c = round(c, 3)
        loss = MED if use_median else SQ
        base = solve(prob(y, lam, loss)).theta_hat
        shifted = solve(prob(y + c, lam, loss)).theta_hat
        assert np.allclose(shifted, base + c, atol=1e-9)

    @given(st.lists(st.floats(-5, 5), min_size=2, max_size=40), st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_large_lambda_collapses(self, y, use_median):
        y = np.asarray(y)
        loss = MED if use_median else SQ
        grad_cap = max(np.max(np.abs(loss.rho_plus(y - y.mean()))), 1.0)
        lam = y.size * float(grad_cap) + 1.0
        th = solve(prob(y, lam, loss)).theta_hat
        assert np.ptp(th) <= 1e-9

    def test_tv_monotone_in_lambda(self):
        rng = np.random.default_rng(21)
        y = rng.normal(size=50)
        for loss in (SQ, MED):
            tvs = []
            for lam in [0.0, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0]:
                th = solve(prob(y, lam, loss)).theta_hat
                tvs.append(float(np.sum(np.abs(np.diff(th)))))
            assert all(a >= b - 1e-9 for a, b in zip(tvs, tvs[1:]))

    def test_objective_reported_correctly(self):
        y = np.array([1.0, -1.0, 2.0])
        th = solve(prob(y, 0.7, MED)).theta_hat
        by_hand = sum(0.5 * abs(r) for r in y - th) + 0.7 * sum(abs(np.diff(th)))
        assert objective(y, 0.7, MED, th) == pytest.approx(by_hand, abs=1e-12)


class TestIntervalScores:
    def test_upper_event_implies_nonnegative_score(self):
        # whenever the augmented solution crosses alpha at index i, some
        # interval containing i must have a nonnegative upper score
        rng = np.random.default_rng(31)
        for loss in (SQ, MED, QuantileLoss(0.3)):
            for _ in range(300):
                m = int(rng.integers(1, 10))
                y = rng.standard_cauchy(size=m).round(2)
                lam = float(rng.choice([0.3, 1.0, 3.0]))
                a, b = rng.normal(scale=2, size=2).round(2)
                th = solve_augmented(y, lam, a, b, loss)
                alpha = float(np.max(th)) - 1e-9
                if alpha <= 0:
                    continue
                assert interval_score_upper(y, lam, loss, alpha) >= -1e-9

    def test_lower_event_implies_nonpositive_score(self):
        rng = np.random.default_rng(32)
        for loss in (SQ, MED, QuantileLoss(0.7)):
            for _ in range(300):
                m = int(rng.integers(1, 10))
                y = rng.standard_cauchy(size=m).round(2)
                lam = float(rng.choice([0.3, 1.0, 3.0]))
                a, b = rng.normal(scale=2, size=2).round(2)
                th = solve_augmented(y, lam, a, b, loss)
                alpha = -float(np.min(th)) - 1e-9
                if alpha <= 0:
                    continue
                assert interval_score_lower(y, lam, loss, alpha) <= 1e-9

"""End-to-end acceptance suite.

Each test prints a single PASS/FAIL line for its criterion so the full run
reads as a checklist.  Replication counts follow the documented experiment
protocol; the whole file runs in a few minutes.
"""

import json
import math
import os

import numpy as np

from bounds_reference import seg_length
from gfl import bounds as bnd
from gfl.lil import LilEnvelope, verify_paths
from gfl.losses import NoiseModel, QuantileLoss, SquareLoss
from gfl.signal import PiecewiseConstantSignal
from gfl.simulate import ExperimentSpec, run_experiment
from gfl.solver import FusedLassoProblem, objective, solve
from solver_reference import (
    interval_score_lower,
    interval_score_upper,
    oracle_solve,
    solve_augmented,
)

SQ = SquareLoss()
MED = QuantileLoss(0.5)
_CALIBRATION = os.path.join(os.path.dirname(__file__), "calibration.json")


def report(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"\n[criterion {num:2d}] {status}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_01_solver_matches_grid_oracle():
    rng = np.random.default_rng(101)
    worst_gap = 0.0
    worst_resid_sq = 0.0
    worst_resid_q = 0.0
    for _ in range(500):
        n = int(rng.integers(1, 5))
        y = rng.normal(size=n).round(2)
        lam = float(rng.choice([0.0, 0.1, 1.0, 10.0]))
        loss = MED if rng.random() < 0.5 else SQ
        p = FusedLassoProblem(y=y, lam=lam, loss=loss)
        sol = solve(p)
        ref = oracle_solve(p, step=1e-3)
        gap = objective(y, lam, loss, sol.theta_hat) - objective(y, lam, loss, ref)
        worst_gap = max(worst_gap, gap)
        if loss is SQ:
            worst_resid_sq = max(worst_resid_sq, sol.kkt_residual)
        else:
            worst_resid_q = max(worst_resid_q, sol.kkt_residual)
    ok = worst_gap <= 1e-2 and worst_resid_sq <= 1e-9 and worst_resid_q <= 1e-12
    report(
        1,
        ok,
        f"500 instances vs grid oracle: max objective gap {worst_gap:.2e}, "
        f"max KKT residual square {worst_resid_sq:.2e} / quantile {worst_resid_q:.2e}",
    )


def test_02_known_value():
    sol = solve(FusedLassoProblem(y=np.array([0.0, 0.0, 10.0]), lam=1.0, loss=SQ))
    err = float(np.max(np.abs(sol.theta_hat - [0.5, 0.5, 9.0])))
    report(2, err <= 1e-9, f"y=[0,0,10], lambda=1, square: max deviation {err:.2e} from [0.5,0.5,9]")


def test_03_equivariance_and_collapse():
    rng = np.random.default_rng(103)
    worst_shift = 0.0
    worst_spread = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 65))
        y = rng.normal(size=n).round(3)
        lam = float(rng.choice([0.1, 1.0, 4.0]))
        loss = MED if rng.random() < 0.5 else SQ
        c = round(float(rng.uniform(-10, 10)), 3)
        base = solve(FusedLassoProblem(y=y, lam=lam, loss=loss)).theta_hat
        shifted = solve(FusedLassoProblem(y=y + c, lam=lam, loss=loss)).theta_hat
        worst_shift = max(worst_shift, float(np.max(np.abs(shifted - base - c))))
        if n >= 2:
            grad_cap = max(float(np.max(np.abs(loss.rho_plus(y - np.median(y))))), 1.0)
            big = n * grad_cap + 1.0
            th = solve(FusedLassoProblem(y=y, lam=big, loss=loss)).theta_hat
            worst_spread = max(worst_spread, float(np.ptp(th)))
    ok = worst_shift <= 1e-9 and worst_spread <= 1e-9
    report(
        3,
        ok,
        f"200 instances: translation error {worst_shift:.2e}, large-lambda spread {worst_spread:.2e}",
    )


def test_04_interval_event_inclusion():
    rng = np.random.default_rng(104)
    losses = [SQ, MED, QuantileLoss(0.3)]
    violations = 0
    upper_checked = 0
    lower_checked = 0
    for _ in range(10_000):
        m = int(rng.integers(1, 13))
        y = rng.standard_cauchy(size=m).round(2)
        lam = float(rng.choice([0.1, 0.5, 1.0, 3.0]))
        a, b = rng.normal(scale=2.0, size=2).round(2)
        loss = losses[int(rng.integers(0, 3))]
        th = solve_augmented(y, lam, a, b, loss)
        alpha = float(rng.uniform(0.05, 2.0))
        if np.max(th) >= alpha:
            upper_checked += 1
            if interval_score_upper(y, lam, loss, alpha) < -1e-9:
                violations += 1
        if np.min(th) <= -alpha:
            lower_checked += 1
            if interval_score_lower(y, lam, loss, alpha) > 1e-9:
                violations += 1
    ok = violations == 0 and upper_checked > 500 and lower_checked > 500
    report(
        4,
        ok,
        f"10^4 augmented-problem trials, m<=12: {violations} inclusion violations "
        f"({upper_checked} upper / {lower_checked} lower events exercised)",
    )


def test_05_lil_envelope_frequencies():
    noise = NoiseModel(kind="gaussian", scale=1.0)
    lines = []
    ok = True
    for delta in (0.05, 0.1):
        res, _ = verify_paths(
            noise, horizon=10_000, paths=10_000, env=LilEnvelope(1.0, delta), seed=105
        )
        ok = ok and res["within_bound"]
        lines.append(
            f"delta={delta}: freq {res['violation_frequency']:.4f} vs "
            f"bound {res['probability_bound']:.4f} + slack {res['binomial_slack']:.4f}"
        )
    report(5, ok, "LIL envelope, T=R=10^4: " + "; ".join(lines))


def _pointwise_spec(noise, loss, lam_rule, seed):
    return ExperimentSpec.from_config(
        {
            "experiment": "pointwise",
            "signal": {"values": [0.0, 2.0], "lengths": [1024, 1024]},
            "noise": noise,
            "loss": loss,
            "lambda": lam_rule,
            "delta": 0.05,
            "replications": 2000,
            "seed": seed,
            "monitor": "interior",
        }
    )


def test_06_pointwise_event_frequencies():
    mean_res, _ = run_experiment(
        _pointwise_spec(
            {"kind": "gaussian", "scale": 1.0},
            {"kind": "square"},
            {"rule": "sqrt_n_over_k"},
            seed=106,
        )
    )
    # the admissibility window for lambda is empty at this geometry for the
    # Cauchy growth constant; the pointwise guarantee itself puts no
    # condition on lambda, so use the geometric mean of the window endpoints
    L = 1.0 / (2.0 * math.pi)
    m_min = 1024
    lam_lo = 6.0 * (math.log(math.log(2.0 * m_min)) + math.log(1 / 0.05)) / L
    lam_hi = L * m_min / 12.0
    lam = math.sqrt(lam_lo * lam_hi)
    quant_res, _ = run_experiment(
        _pointwise_spec(
            {"kind": "cauchy", "scale": 1.0, "center_tau": 0.5},
            {"kind": "quantile", "tau": 0.5},
            {"rule": "fixed", "value": lam},
            seed=107,
        )
    )
    vac, _ = run_experiment(
        ExperimentSpec.from_config(
            {
                "experiment": "pointwise",
                "signal": {"values": [0.0, 2.0], "lengths": [16, 16]},
                "noise": {"kind": "gaussian", "scale": 1.0},
                "loss": {"kind": "square"},
                "lambda": {"rule": "sqrt_n_over_k"},
                "delta": 0.25,
                "replications": 10,
                "seed": 108,
                "monitor": "interior",
            }
        )
    )
    ok = (
        mean_res["passed"]
        and mean_res["event_form_cross_check"]
        and quant_res["passed"]
        and vac["vacuous"]
        and vac["probability_bound"] == 1.0
    )
    report(
        6,
        ok,
        f"pointwise events, R=2000, delta=0.05: mean max freq {mean_res['max_frequency']:.4f}, "
        f"quantile max freq {quant_res['max_frequency']:.4f} (lambda={lam:.1f}), "
        f"bound {mean_res['probability_bound']:.4f}; vacuity labeled at delta=0.25",
    )


def _sse_spec(noise, loss, growth, seed):
    n, K = 4096, 4
    return ExperimentSpec.from_config(
        {
            "experiment": "sse",
            "signal": {"values": [0.0, 1.0, 0.0, 1.0], "lengths": [n // K] * K},
            "noise": noise,
            "loss": loss,
            "lambda": {"rule": "log_sqrt_n_over_k"},
            "delta": 1e-3,
            "replications": 500,
            "seed": seed,
            **({"growth_L": growth} if growth else {}),
        }
    )


def test_07_sse_bound_frequencies():
    mean_res, _ = run_experiment(
        _sse_spec({"kind": "gaussian", "scale": 1.0}, {"kind": "square"}, None, seed=109)
    )
    quant_res, _ = run_experiment(
        _sse_spec(
            {"kind": "uniform", "scale": 1.0, "center_tau": 0.5},
            {"kind": "quantile", "tau": 0.5},
            "auto",
            seed=110,
        )
    )
    # improved lambda^2 term <= 6x the original, checked on the reported terms
    ratio_ok = True
    for res in (mean_res, quant_res):
        orig = res["terms_original"]["lambda_sq"]
        impr = res["terms_improved"]["lambda_sq"]
        ratio_ok = ratio_ok and impr <= 6.0 * orig + 1e-9
    ok = mean_res["passed"] and quant_res["passed"] and ratio_ok
    report(
        7,
        ok,
        f"SSE n=4096 K=4 R=500 delta=1e-3: mean freq orig/impr "
        f"{mean_res['freq_exceed_original']:.3f}/{mean_res['freq_exceed_improved']:.3f}, "
        f"quantile {quant_res['freq_exceed_original']:.3f}/{quant_res['freq_exceed_improved']:.3f} "
        f"vs bound {mean_res['probability_bound']:.3f}; improved term <= 6x original; "
        f"quantile lambda window holds: {quant_res['preconditions_hold']}",
    )


def test_08_rate_claims():
    with open(_CALIBRATION) as fh:
        thresholds = json.load(fh)["thresholds"]
    res, _ = run_experiment(
        ExperimentSpec.from_config(
            {
                "experiment": "rate_sweep",
                "signal": {"values": [0.0, 1.0], "lengths": [2048, 2048]},
                "noise": {"kind": "gaussian", "scale": 1.0},
                "loss": {"kind": "square"},
                "lambda": {"rule": "sqrt_n_over_k"},
                "delta": 0.05,
                "replications": 500,
                "seed": 111,
                "d_grid": [4, 16, 64, 256, 1024],
                "n_sweep": [1024, 4096, 16384],
            }
        )
    )
    slope = res["d_sweep"]["slope"]
    cp_ratio = res["n_sweep"]["change_point_ratio"]
    shrink = res["n_sweep"]["interior_shrink_factor"]
    lo, hi = thresholds["d_sweep_slope_range"]
    ok = (
        lo <= slope <= hi
        and cp_ratio <= thresholds["change_point_ratio_max"]
        and shrink >= thresholds["interior_shrink_min"]
    )
    report(
        8,
        ok,
        f"rate diagnostics, R=500: d-sweep slope {slope:.3f} in [{lo}, {hi}], "
        f"change-point ratio {cp_ratio:.2f} <= {thresholds['change_point_ratio_max']}, "
        f"interior shrink {shrink:.2f} >= {thresholds['interior_shrink_min']}",
    )


def test_09_formula_fidelity(oracle):
    rng = np.random.default_rng(112)
    g = PiecewiseConstantSignal([0, 1, 0, 1], [512] * 4).geometry()
    worst = 0.0
    bitwise = True
    for _ in range(100):
        i = int(rng.integers(1, g.n + 1))
        sigma = float(rng.uniform(0.2, 3.0))
        delta = float(rng.uniform(0.005, 0.25))
        lam = float(rng.uniform(1.0, 400.0))
        L = float(rng.uniform(0.1, 2.0))
        d, m = int(g.d[i - 1]), seg_length(g, i)
        p = bnd.BoundParams(sigma=sigma, delta=delta, lam=lam)

        def rel(a, b):
            return abs(a - b) / max(abs(b), 1e-300)

        worst = max(worst, rel(bnd.compute_B(i, g, p), oracle.oracle_B(d, m, sigma, delta, lam)))
        worst = max(
            worst,
            rel(
                bnd.compute_B_quantile(i, g, delta, lam),
                oracle.oracle_B_quantile(d, m, delta, lam),
            ),
        )
        worst = max(
            worst,
            rel(
                bnd.uniform_quantile_bound(g.n, delta, lam, L).value * L,
                oracle.oracle_B_uniform(g.n, delta, lam),
            ),
        )
        sse_delta = delta * bnd.DELTA_MAX**2  # keep inside the corollary range
        worst = max(
            worst,
            rel(
                bnd.sse_bound_quantile(g, sse_delta, lam, L).bound,
                oracle.oracle_sse_quantile(
                    list(g.segment_lengths), list(g.eta), sse_delta, lam, L, g.V
                ),
            ),
        )
        worst = max(
            worst,
            rel(
                bnd.sse_bound_mean(g, sse_delta, lam, sigma).bound,
                oracle.oracle_sse_mean(
                    list(g.segment_lengths), list(g.eta), sse_delta, lam, sigma
                ),
            ),
        )
        bitwise = bitwise and bnd.compute_B_quantile(i, g, delta, lam) == bnd.compute_B(
            i, g, bnd.BoundParams(sigma=0.5, delta=delta, lam=lam)
        )
    ok = worst <= 1e-12 and bitwise
    report(
        9,
        ok,
        f"100 random draws vs high-precision oracle: worst relative error {worst:.2e}; "
        f"quantile bound bitwise equal to sigma=1/2 evaluation: {bitwise}",
    )


def test_10_iterative_sum_inequality():
    rng = np.random.default_rng(113)
    violations = 0
    for _ in range(100_000):
        K = int(rng.integers(1, 21))
        m = np.exp(rng.uniform(0.0, 12.0, size=K))  # spans 1 .. ~1.6e5
        lhs, rhs = bnd.iterative_sum_check(m)
        if lhs > rhs * (1.0 + 1e-12):
            violations += 1
    report(10, violations == 0, f"10^5 random vectors, K<=20: {violations} violations of lhs <= 3/m_K")


def test_11_simulate_byte_determinism(tmp_path):
    from gfl.cli import main

    cfg = {
        "experiment": "pointwise",
        "signal": {"values": [0.0, 2.0], "lengths": [64, 64]},
        "noise": {"kind": "gaussian", "scale": 1.0},
        "loss": {"kind": "square"},
        "lambda": {"rule": "sqrt_n_over_k"},
        "delta": 0.05,
        "replications": 50,
        "seed": 114,
        "monitor": "interior",
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    assert main(["simulate", "--config", str(path), "--out-dir", str(out1)]) == 0
    assert main(["simulate", "--config", str(path), "--out-dir", str(out2)]) == 0
    identical = all(
        (out1 / name).read_bytes() == (out2 / name).read_bytes()
        for name in os.listdir(out1)
    )
    report(11, identical, "simulate twice with the same config and seed: outputs byte-identical")

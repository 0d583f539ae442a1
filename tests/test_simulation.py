import json
import math
from pathlib import Path

import numpy as np
import pytest

from gfl.bounds import prob_const
from gfl.errors import ConfigError, UnsupportedModelError
from gfl.signal import PiecewiseConstantSignal
from gfl.simulate import (
    _SCHEMA,
    ExperimentSpec,
    derived_seed,
    monitored_indices,
    resolve_lambda,
    run_experiment,
    splitmix64,
)
from run_all_experiments import SEED, SUITE


def base_config(**over):
    cfg = {
        "experiment": "pointwise",
        "signal": {"values": [0.0, 2.0], "lengths": [32, 32]},
        "noise": {"kind": "gaussian", "scale": 1.0},
        "loss": {"kind": "square"},
        "lambda": {"rule": "sqrt_n_over_k"},
        "delta": 0.05,
        "replications": 20,
        "seed": 7,
        "monitor": "interior",
    }
    cfg.update(over)
    return cfg


_CAUCHY_MEDIAN = {
    "noise": {"kind": "cauchy", "scale": 1.0, "center_tau": 0.5},
    "loss": {"kind": "quantile", "tau": 0.5},
}

# config_hash() of each experiment of scripts/run_all_experiments.py as it
# runs at full scale and the default seed: experiment j on seed SEED + j.
_SCRIPT_HASHES = {
    "pointwise_mean": "6b506255ac9e3196b0f2965714c0760fb65b728df158a2bc0796c6dcad730f42",
    "pointwise_quantile": "abffc60090dea31fb44dc1c9692a324bfb811a64edae96de5ff5f758dcc377fd",
    "sse_mean": "1383183f5ac221abcd471d78229d627fd0b89d49ab6fbf7f6d48b5b9d380f3e6",
    "sse_quantile": "e669e4b8bf606240841fdff9d16228d40c57ef5d4db59eb2e06a096dcf8f1b63",
    "rate_sweep": "9ce800dd2f7b4418a79a79b05b6bdcb296e1a092fb0f57c204901afd8c592d89",
    "lambda_sweep": "fc111682ca0c548b766285475b1a12ba37e17ee94c2732b769ee67ad0aa330b6",
}

# Literal config_hash() values.  Every output file carries the hash of its
# config, so a change here changes the provenance of results written from an
# unchanged config.
_PINNED_HASHES = {
    **{
        f"script_{name}": (
            cfg | {"replications": replications, "seed": SEED + j},
            _SCRIPT_HASHES[name],
        )
        for j, (name, (cfg, replications)) in enumerate(SUITE.items())
    },
    "rule_sqrt_n_over_k": (
        base_config(),
        "5cb651958a7d14a2c9b2a1bf4a35928da8c18f6f254425914ce41e0a2f5b1bfe",
    ),
    "rule_log_sqrt_n_over_k": (
        base_config(**{"lambda": {"rule": "log_sqrt_n_over_k"}}),
        "1bfea18bf1671e244605163174a3ed8828affc14f55a0cf038b85cc26a95a091",
    ),
    "rule_fixed": (
        base_config(**{"lambda": {"rule": "fixed", "value": 3.5}}),
        "bdd4bd29da10fbf58dcd4c035cef0f6cacdc188c0b7ce0e9427a2496e3b61470",
    ),
    "monitor_list": (
        base_config(monitor=[3, 1, 17]),
        "a87b34e48f150f3f99771c62a11727e4104e3b4eb1241b20ff526134ac76dbcd",
    ),
    "growth_L_auto": (
        base_config(**_CAUCHY_MEDIAN, growth_L="auto"),
        "1bdc719ad721f42c1a2a1151ff825bb07f8b3c7ae1827a108c2f267122be0294",
    ),
    "growth_L_int": (
        base_config(**_CAUCHY_MEDIAN, growth_L=1),
        "ce6dae4c0628c4fc1ae22ab536ae90e67cd863eae9f43bc473abc364f0fb83b0",
    ),
    "growth_L_float": (
        base_config(**_CAUCHY_MEDIAN, growth_L=0.125),
        "ad2b87a44737207fbfc6203070a2d12543d8b21876544b9a82742f29a4251b83",
    ),
    "rate_sweep_both": (
        base_config(experiment="rate_sweep", d_grid=[2, 4, 8], n_sweep=[64, 128]),
        "8493a91fe458434ebf8d6c1bfba7ae4bce017dcab4816f211cb96d2712a41c2c",
    ),
    "lambda_sweep_int_grid_improved": (
        base_config(experiment="lambda_sweep", lambda_grid=[1, 2, 4], improved=True),
        "c4d7066895c8c4a198884726e620f6c16704252fd1a73e20f5349578a998fb71",
    ),
    "noise_center_tau_null": (
        base_config(noise={"kind": "gaussian", "scale": 1.0, "center_tau": None}),
        "5cb651958a7d14a2c9b2a1bf4a35928da8c18f6f254425914ce41e0a2f5b1bfe",
    ),
    "loss_tau_null": (
        base_config(loss={"kind": "square", "tau": None}),
        "5cb651958a7d14a2c9b2a1bf4a35928da8c18f6f254425914ce41e0a2f5b1bfe",
    ),
    "signal_int_values": (
        base_config(signal={"values": [0, 2], "lengths": [32, 32]}),
        "5cb651958a7d14a2c9b2a1bf4a35928da8c18f6f254425914ce41e0a2f5b1bfe",
    ),
    "fixed_value_43": (
        base_config(**{"lambda": {"rule": "fixed", "value": 43.0}}),
        "b524905855a2bd09497fe77c6d6a046af296adb31c1cbb8665a09ff9b5c6a2c3",
    ),
}


class TestSeedMixing:
    def test_splitmix64_known_values(self):
        # 0 -> 0xE220A8397B1DCDAF is the published splitmix64 test vector
        assert splitmix64(0) == 0xE220A8397B1DCDAF
        assert splitmix64(1) == 10451216379200822465
        assert splitmix64(2**64 - 1) == 16490336266968443936

    def test_derived_seed_regression(self):
        assert derived_seed(42, 0) == 5592132763777985307
        assert derived_seed(42, 1) == 9129838320742759465
        assert derived_seed(43, 0) == 640870721129819834

    def test_derived_seeds_distinct(self):
        seen = {derived_seed(123, i) for i in range(10_000)}
        assert len(seen) == 10_000

    def test_rate_sweep_streams_disjoint_beyond_1000_replications(self, monkeypatch):
        seeds = []

        def recording(base_seed, index):
            seeds.append(derived_seed(base_seed, index))
            return seeds[-1]

        monkeypatch.setattr("gfl.simulate.derived_seed", recording)
        cfg = base_config(
            experiment="rate_sweep",
            signal={"values": [0.0, 2.0], "lengths": [8, 8]},
            replications=1001,
            d_grid=[2, 4],
            n_sweep=[8, 16],
        )
        run_experiment(ExperimentSpec.from_config(cfg))
        assert len(seeds) == 3 * 1001
        assert len(set(seeds)) == len(seeds)


class TestConfig:
    def test_roundtrip_and_hash_stability(self):
        spec = ExperimentSpec.from_config(base_config())
        again = ExperimentSpec.from_config(spec.to_config())
        assert spec.config_hash() == again.config_hash()
        assert len(spec.config_hash()) == 64

    @pytest.mark.parametrize("name", sorted(_PINNED_HASHES))
    def test_config_hash_pinned(self, name):
        cfg, expected = _PINNED_HASHES[name]
        assert ExperimentSpec.from_config(cfg).config_hash() == expected

    def test_every_script_experiment_pinned(self):
        assert SUITE.keys() == _SCRIPT_HASHES.keys()

    def test_integer_spelled_number_hashes_as_float(self):
        # every number is stored as a float, so 43 and 43.0 are one experiment
        cfg = base_config(**{"lambda": {"rule": "fixed", "value": 43}})
        spec = ExperimentSpec.from_config(cfg)
        assert spec.lambda_value == 43.0
        assert spec.config_hash() == _PINNED_HASHES["fixed_value_43"][1]

    def test_readme_schema_matches_table(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        section = readme.split("## Experiment config schema (JSON)", 1)[1]
        documented = json.loads(section.split("```json", 1)[1].split("```", 1)[0])
        assert documented.keys() == _SCHEMA.keys()
        for key in ("signal", "noise", "loss", "lambda"):
            assert documented[key].keys() == _SCHEMA[key][0].keys()

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            ExperimentSpec.from_config(base_config(lambda_=3.0))
        with pytest.raises(ConfigError, match="unknown lambda keys"):
            ExperimentSpec.from_config(base_config(**{"lambda": {"rule": "fixed", "value": 1, "extra": 2}}))
        with pytest.raises(ConfigError, match="unknown loss keys"):
            ExperimentSpec.from_config(base_config(loss={"kind": "square", "tau": None, "x": 1}))

    def test_missing_key_rejected(self):
        cfg = base_config()
        del cfg["seed"]
        with pytest.raises(ConfigError, match="missing required key"):
            ExperimentSpec.from_config(cfg)

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentSpec.from_config(base_config(experiment="bootstrap"))

    def test_growth_L_auto(self):
        cfg = base_config(
            noise={"kind": "cauchy", "scale": 1.0, "center_tau": 0.5},
            loss={"kind": "quantile", "tau": 0.5},
            growth_L="auto",
        )
        spec = ExperimentSpec.from_config(cfg)
        assert spec.growth_L == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-12)

    def test_preconditions_checked_when_built(self):
        with pytest.raises(UnsupportedModelError, match="tau"):
            ExperimentSpec.from_config(
                base_config(
                    noise={"kind": "gaussian", "scale": 1.0, "center_tau": 0.5},
                    loss={"kind": "quantile", "tau": 0.3},
                )
            )
        with pytest.raises(ConfigError, match="requires the quantile loss"):
            ExperimentSpec.from_config(base_config(experiment="elementwise_quantile"))
        with pytest.raises(ConfigError, match=">= 4"):
            ExperimentSpec.from_config(base_config(experiment="rate_sweep", n_sweep=[2, 64]))

    def test_explicit_monitor_list(self):
        spec = ExperimentSpec.from_config(base_config(monitor=[3, 1, 17]))
        assert spec.monitor == (3, 1, 17)

    def test_empty_monitor_list_rejected(self):
        with pytest.raises(ConfigError, match="monitor list is empty"):
            ExperimentSpec.from_config(base_config(monitor=[]))

    @pytest.mark.parametrize("rule", ["sqrt_n_over_k", "log_sqrt_n_over_k"])
    def test_lambda_value_needs_fixed_rule(self, rule):
        # the value would be ignored, yet would still enter config_hash
        with pytest.raises(ConfigError, match=f"lambda rule '{rule}' takes no value"):
            ExperimentSpec.from_config(base_config(**{"lambda": {"rule": rule, "value": 5}}))


class TestLambdaAndMonitor:
    def test_resolve_lambda(self):
        assert resolve_lambda("fixed", 3.5, 100, 2) == 3.5
        assert resolve_lambda("sqrt_n_over_k", None, 100, 4) == 5.0
        assert resolve_lambda("log_sqrt_n_over_k", None, 100, 4) == pytest.approx(
            math.log(100) * 5.0
        )

    def test_monitored_indices(self):
        g = PiecewiseConstantSignal([0, 1], [32, 32]).geometry()
        all_idx = monitored_indices(g, "all")
        assert np.array_equal(all_idx, np.arange(1, 65))
        cp = monitored_indices(g, "change_points")
        assert np.array_equal(cp, [1, 32, 33, 64])  # d == 1
        interior = monitored_indices(g, "interior")
        floor = max(3, 32 // 4)
        assert np.array_equal(interior, np.flatnonzero(g.d >= floor) + 1)
        explicit = monitored_indices(g, (5, 2, 2))
        assert np.array_equal(explicit, [2, 5])


class TestRunners:
    def test_pointwise_small(self):
        res = run_experiment(ExperimentSpec.from_config(base_config()))
        assert res["experiment"] == "pointwise"
        assert res["event_form_cross_check"] is True
        assert res["probability_bound_raw"] == pytest.approx(prob_const() * 0.05**2)
        assert 0.0 <= res["max_frequency"] <= 1.0
        assert res["per_index"]
        for row in res["per_index"]:
            assert row["B"] > 0 and 0 <= row["freq_lower"] <= 1

    def test_pointwise_deterministic(self):
        a = run_experiment(ExperimentSpec.from_config(base_config()))
        b = run_experiment(ExperimentSpec.from_config(base_config()))
        assert a == b

    def test_pointwise_vacuous_labeling(self):
        # delta close to the upper limit makes prob_const * delta^2 > 1
        res = run_experiment(ExperimentSpec.from_config(base_config(delta=0.25, replications=5)))
        assert res["vacuous"] is True
        assert res["probability_bound"] == 1.0
        assert res["passed"] is True  # a vacuous bound cannot be violated

    def test_elementwise_quantile_with_admissible_index(self):
        cfg = base_config(
            experiment="elementwise_quantile",
            signal={"values": [0.0, 2.0], "lengths": [4096, 4096]},
            noise={"kind": "uniform", "scale": 1.0, "center_tau": 0.5},
            loss={"kind": "quantile", "tau": 0.5},
            **{"lambda": {"rule": "fixed", "value": 70.0}},
            growth_L="auto",
            monitor=[2048, 4096],
            replications=10,
        )
        res = run_experiment(ExperimentSpec.from_config(cfg))
        assert res["monitored"] == [2048]  # deep interior index is admissible
        assert res["excluded_not_admissible"] == [4096]  # d = 1 at the jump
        assert res["per_index"][0]["bound"] <= 1.0
        assert res["probability_bound_raw"] == 2.0 * prob_const() * 0.05**2

    def test_elementwise_quantile_requires_growth(self):
        cfg = base_config(
            experiment="elementwise_quantile",
            loss={"kind": "quantile", "tau": 0.5},
            noise={"kind": "gaussian", "scale": 1.0, "center_tau": 0.5},
        )
        with pytest.raises(ConfigError, match="growth_L"):
            run_experiment(ExperimentSpec.from_config(cfg))

    def test_sse_mean_small(self):
        cfg = base_config(
            experiment="sse",
            signal={"values": [0.0, 1.0, 0.0], "lengths": [64, 64, 64]},
            delta=1e-3,
            replications=10,
        )
        res = run_experiment(ExperimentSpec.from_config(cfg))
        assert res["preconditions_hold"] is True
        assert res["bound_original"] == pytest.approx(
            sum(res["terms_original"].values()), rel=1e-12
        )
        assert len(res["sse_samples"]) == 10
        assert res["sse_median"] <= res["sse_max"]
        assert res["freq_exceed_original"] == 0.0  # bound far above typical SSE
        assert res["probability_bound_raw"] == 4.0 * prob_const() * 1e-3
        assert res["probability_bound"] == res["probability_bound_raw"]

    def test_sse_quantile_reports_failed_preconditions(self):
        cfg = base_config(
            experiment="sse",
            signal={"values": [0.0, 1.0], "lengths": [64, 64]},
            noise={"kind": "uniform", "scale": 1.0, "center_tau": 0.5},
            loss={"kind": "quantile", "tau": 0.5},
            **{"lambda": {"rule": "fixed", "value": 200.0}},
            delta=1e-3,
            replications=5,
            growth_L="auto",
        )
        res = run_experiment(ExperimentSpec.from_config(cfg))
        assert res["preconditions_hold"] is False
        conds = [f["condition"] for f in res["precondition_failures"]]
        assert any("lambda <=" in c for c in conds)
        assert res["uniform_range"]["probability_bound"] == 2.0 * prob_const() * 1e-3
        assert res["probability_bound_raw"] == 4.0 * prob_const() * 1e-3
        assert math.isfinite(res["bound_original"])

    def test_seed_changes_results(self):
        a = run_experiment(ExperimentSpec.from_config(base_config(seed=1)))
        b = run_experiment(ExperimentSpec.from_config(base_config(seed=2)))
        mean_a = [r["mean_abs_err"] for r in a["per_index"]]
        mean_b = [r["mean_abs_err"] for r in b["per_index"]]
        assert mean_a != mean_b

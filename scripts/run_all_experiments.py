"""Run the full experiment suite at acceptance scale and write results.

Experiment j of SUITE runs through the CLI on seed --seed + j, with its
replication count cut 10x under --quick, and writes summary.json plus CSV
plot data to its own subdirectory of --out-root; `gfl lil` then runs on seed
--seed + len(SUITE).  The full suite takes 3.2-3.5 s and --quick 0.55-0.65 s,
as the host's load varies (2 Intel Xeon vCPUs, Python 3.11.7, numpy 2.4.6).

Usage: python scripts/run_all_experiments.py [--out-root results] [--quick] [--seed S]
"""

import argparse
import json
import math
import os
import sys
import tempfile

from gfl.cli import main as gfl_main

SEED = 20240811  # the default --seed

_STEP = {"values": [0.0, 2.0], "lengths": [1024, 1024]}
_K4 = {"values": [0.0, 1.0, 0.0, 1.0], "lengths": [1024] * 4}
_GAUSSIAN_MEAN = {"noise": {"kind": "gaussian", "scale": 1.0}, "loss": {"kind": "square"}}
_MEDIAN = {"kind": "quantile", "tau": 0.5}

# the rate diagnostics, which scripts/pilot_thresholds.py calibrates on
RATE_SWEEP = {
    "experiment": "rate_sweep", "signal": {"values": [0.0, 1.0], "lengths": [2048, 2048]},
    **_GAUSSIAN_MEAN, "lambda": {"rule": "sqrt_n_over_k"}, "delta": 0.05,
    "d_grid": [4, 16, 64, 256, 1024], "n_sweep": [1024, 4096, 16384],
}

# output directory: (config less seed and replications, replications at full scale)
SUITE = {
    # pointwise events, mean regression
    "pointwise_mean": ({
        "experiment": "pointwise", "signal": _STEP, **_GAUSSIAN_MEAN,
        "lambda": {"rule": "sqrt_n_over_k"}, "delta": 0.05, "monitor": "interior",
    }, 2000),
    # pointwise events, median regression with Cauchy noise
    "pointwise_quantile": ({
        "experiment": "pointwise", "signal": _STEP,
        "noise": {"kind": "cauchy", "scale": 1.0, "center_tau": 0.5}, "loss": _MEDIAN,
        "lambda": {"rule": "fixed", "value": 43.0}, "delta": 0.05, "monitor": "interior",
    }, 2000),
    # sum of squared errors, mean and quantile
    "sse_mean": ({
        "experiment": "sse", "signal": _K4, **_GAUSSIAN_MEAN,
        "lambda": {"rule": "log_sqrt_n_over_k"}, "delta": 1e-3,
    }, 500),
    "sse_quantile": ({
        "experiment": "sse", "signal": _K4,
        "noise": {"kind": "uniform", "scale": 1.0, "center_tau": 0.5}, "loss": _MEDIAN,
        "lambda": {"rule": "fixed", "value": math.log(4096) * math.sqrt(4096 / 4)},
        "delta": 1e-3, "growth_L": "auto",
    }, 500),
    "rate_sweep": (RATE_SWEEP, 500),
    # lambda sweep around sqrt(n/K)
    "lambda_sweep": ({
        "experiment": "lambda_sweep",
        "signal": {"values": [0.0, 1.0, 0.0, 1.0], "lengths": [256] * 4},
        **_GAUSSIAN_MEAN, "lambda": {"rule": "sqrt_n_over_k"}, "delta": 1e-3,
    }, 200),
}


def _gfl(*argv: str) -> None:
    rc = gfl_main(list(argv))
    if rc != 0:
        raise SystemExit(f"gfl {argv[0]} failed with exit code {rc}: {argv[-1]}")


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--out-root", default="results")
    ap.add_argument("--quick", action="store_true", help="cut replication counts 10x")
    ap.add_argument("--seed", type=int, default=SEED)
    args = ap.parse_args()
    scale = 10 if args.quick else 1
    with tempfile.TemporaryDirectory() as tmp:
        for j, (name, (cfg, replications)) in enumerate(SUITE.items()):
            config = os.path.join(tmp, f"{name}.json")
            with open(config, "w") as fh:
                json.dump(cfg | {"replications": replications // scale, "seed": args.seed + j}, fh)
            _gfl("simulate", "--config", config, "--out-dir", os.path.join(args.out_root, name))
    # iterated-logarithm envelope
    _gfl("lil", "--sigma", "1.0", "--delta", "0.1", "--horizon", "10000",
         "--paths", str(10_000 // scale), "--seed", str(args.seed + len(SUITE)),
         "--out-dir", os.path.join(args.out_root, "lil"))
    print(f"all experiments written under {args.out_root}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())

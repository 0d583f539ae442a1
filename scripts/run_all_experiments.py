"""Run the full experiment suite at acceptance scale and write results.

Each experiment goes through the CLI so the outputs (summary.json plus CSV
plot data) land in their own subdirectory of --out-root.  The full suite
takes about 6.5 s and --quick about 1 s (2-core Xeon, Python 3.11.7,
numpy 2.4.6).

Usage: python scripts/run_all_experiments.py [--out-root results] [--quick]
"""

import argparse
import json
import math
import os
import sys
import tempfile

from gfl.cli import main as gfl_main


def _simulate(cfg: dict, out_dir: str) -> None:
    with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as fh:
        json.dump(cfg, fh)
        path = fh.name
    try:
        rc = gfl_main(["simulate", "--config", path, "--out-dir", out_dir])
        if rc != 0:
            raise SystemExit(f"experiment failed with exit code {rc}: {out_dir}")
    finally:
        os.unlink(path)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--out-root", default="results")
    ap.add_argument("--quick", action="store_true", help="cut replication counts 10x")
    ap.add_argument("--seed", type=int, default=20240811)
    args = ap.parse_args()
    scale = 10 if args.quick else 1
    root = args.out_root
    seed = args.seed

    # pointwise events, mean regression
    _simulate(
        {
            "experiment": "pointwise",
            "signal": {"values": [0.0, 2.0], "lengths": [1024, 1024]},
            "noise": {"kind": "gaussian", "scale": 1.0},
            "loss": {"kind": "square"},
            "lambda": {"rule": "sqrt_n_over_k"},
            "delta": 0.05,
            "replications": 2000 // scale,
            "seed": seed,
            "monitor": "interior",
        },
        os.path.join(root, "pointwise_mean"),
    )

    # pointwise events, median regression with Cauchy noise
    _simulate(
        {
            "experiment": "pointwise",
            "signal": {"values": [0.0, 2.0], "lengths": [1024, 1024]},
            "noise": {"kind": "cauchy", "scale": 1.0, "center_tau": 0.5},
            "loss": {"kind": "quantile", "tau": 0.5},
            "lambda": {"rule": "fixed", "value": 43.0},
            "delta": 0.05,
            "replications": 2000 // scale,
            "seed": seed + 1,
            "monitor": "interior",
        },
        os.path.join(root, "pointwise_quantile"),
    )

    # sum of squared errors, mean and quantile
    n, K = 4096, 4
    lam = math.log(n) * math.sqrt(n / K)
    _simulate(
        {
            "experiment": "sse",
            "signal": {"values": [0.0, 1.0, 0.0, 1.0], "lengths": [1024] * 4},
            "noise": {"kind": "gaussian", "scale": 1.0},
            "loss": {"kind": "square"},
            "lambda": {"rule": "log_sqrt_n_over_k"},
            "delta": 1e-3,
            "replications": 500 // scale,
            "seed": seed + 2,
        },
        os.path.join(root, "sse_mean"),
    )
    _simulate(
        {
            "experiment": "sse",
            "signal": {"values": [0.0, 1.0, 0.0, 1.0], "lengths": [1024] * 4},
            "noise": {"kind": "uniform", "scale": 1.0, "center_tau": 0.5},
            "loss": {"kind": "quantile", "tau": 0.5},
            "lambda": {"rule": "fixed", "value": lam},
            "delta": 1e-3,
            "replications": 500 // scale,
            "seed": seed + 3,
            "growth_L": "auto",
        },
        os.path.join(root, "sse_quantile"),
    )

    # rate diagnostics
    _simulate(
        {
            "experiment": "rate_sweep",
            "signal": {"values": [0.0, 1.0], "lengths": [2048, 2048]},
            "noise": {"kind": "gaussian", "scale": 1.0},
            "loss": {"kind": "square"},
            "lambda": {"rule": "sqrt_n_over_k"},
            "delta": 0.05,
            "replications": 500 // scale,
            "seed": seed + 4,
            "d_grid": [4, 16, 64, 256, 1024],
            "n_sweep": [1024, 4096, 16384],
        },
        os.path.join(root, "rate_sweep"),
    )

    # lambda sweep around sqrt(n/K)
    _simulate(
        {
            "experiment": "lambda_sweep",
            "signal": {"values": [0.0, 1.0, 0.0, 1.0], "lengths": [256] * 4},
            "noise": {"kind": "gaussian", "scale": 1.0},
            "loss": {"kind": "square"},
            "lambda": {"rule": "sqrt_n_over_k"},
            "delta": 1e-3,
            "replications": 200 // scale,
            "seed": seed + 5,
        },
        os.path.join(root, "lambda_sweep"),
    )

    # iterated-logarithm envelope
    rc = gfl_main(
        [
            "lil",
            "--sigma", "1.0",
            "--delta", "0.1",
            "--horizon", str(10_000),
            "--paths", str(10_000 // scale),
            "--seed", str(seed + 6),
            "--out-dir", os.path.join(root, "lil"),
        ]
    )
    if rc != 0:
        raise SystemExit(f"lil run failed with exit code {rc}")
    print(f"all experiments written under {root}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())

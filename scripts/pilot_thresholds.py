"""Pilot run that calibrates the rate-experiment thresholds.

Runs a reduced-replication version of the two rate diagnostics (distance
sweep and change-point inconsistency sweep) and writes the observed
statistics plus the derived acceptance thresholds to
tests/calibration.json.  The full-scale experiments in the test suite
check against the thresholds stored there.

Usage: python scripts/pilot_thresholds.py [--replications R] [--seed S]
"""

import argparse
import json
import os
import sys

from gfl.simulate import ExperimentSpec, run_rate_sweep
from run_all_experiments import RATE_SWEEP


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--replications", type=int, default=200)
    ap.add_argument("--seed", type=int, default=20240811)
    args = ap.parse_args()

    cfg = RATE_SWEEP | {"replications": args.replications, "seed": args.seed}
    res = run_rate_sweep(ExperimentSpec.from_config(cfg))
    slope = res["d_sweep"]["slope"]
    cp_ratio = res["n_sweep"]["change_point_ratio"]
    shrink = res["n_sweep"]["interior_shrink_factor"]

    payload = {
        "pilot_command": "python scripts/pilot_thresholds.py --replications "
        f"{args.replications} --seed {args.seed}",
        "pilot_config": cfg,
        "observed": {
            "d_sweep_slope": slope,
            "change_point_ratio": cp_ratio,
            "interior_shrink_factor": shrink,
        },
        "thresholds": {
            # slope of median interior error vs distance on a log-log grid;
            # the population rate is -1/2, the window allows finite-sample drift
            "d_sweep_slope_range": [-0.7, -0.3],
            # change-point error stays flat across n (inconsistency)
            "change_point_ratio_max": 2.0,
            # interior error at matched quantile keeps shrinking with n
            "interior_shrink_min": 3.0,
        },
    }
    ok = (
        payload["thresholds"]["d_sweep_slope_range"][0]
        <= slope
        <= payload["thresholds"]["d_sweep_slope_range"][1]
        and cp_ratio <= payload["thresholds"]["change_point_ratio_max"]
        and shrink >= payload["thresholds"]["interior_shrink_min"]
    )
    payload["pilot_within_thresholds"] = ok

    out = os.path.join(os.path.dirname(__file__), "..", "tests", "calibration.json")
    with open(os.path.abspath(out), "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(json.dumps(payload["observed"], indent=2))
    print("within thresholds:", ok)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

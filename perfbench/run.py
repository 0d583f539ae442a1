"""Benchmark of gfl: Monte Carlo fits, DP scaling and the report path.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload mc_square --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --record-digests

One process on one thread runs the workload as a closed loop: each call into
gfl starts after the previous one returns.  The run sets up several times
(importing gfl from ``src`` and building the seeded inputs), runs an untimed
reference pass on the default seed whose CSV digests must match
``digests.json``, then runs passes until ``--seconds`` is used up.

``--trace 0`` times each step of the passes (a CLI call or a direct fit),
calibrates it against the host's speed (``calib.py``) and prints the
end-to-end metrics in calibrated seconds, with the raw figures beside them.
``--trace 1`` alternates untraced and traced passes on the same inputs,
requires them to write identical outputs, and prints the per-layer metrics.
For ``dp_scaling`` the traced run then fits n = 2^17 quantile probes outside
the timed section; their failures are reported on their own (``solver.probe_failures``)
and are not counted in ``attempted`` or ``failed``.  Human-readable lines, machine facts and sample counts come first;
the last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  A fuller report is written to
``.perfbench/``.  ``--record-digests`` runs each reference pass and rewrites
``digests.json``; run it only when gfl's outputs change on purpose.
"""

from __future__ import annotations

import os

# One thread: numpy's BLAS pools must not start more.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import importlib
import json
import platform
import resource
import shutil
import statistics
import sys
import time
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import calib
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
DIGESTS = HERE / "digests.json"

# Set-ups per run, done twice: before the reference pass and after the timed
# section, so the median samples the machine at both ends of the run.
SETUP_REPS = 6

GFL_MODULES = ("cli", "solver", "simulate", "losses", "signal", "bounds", "lil")

# Metric names and units come from the benchmark's contract file.
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
E2E_UNITS = {m["name"]: m["unit"] for m in CONTRACT["end_to_end"]}
LAYER_METRICS = [(m["name"], m["unit"]) for m in CONTRACT["per_layer"]]
# Self-time metrics: with trace.unattributed_s they add up to trace.wall_s.
SELF_TIME_METRICS = ("solver.dp_s.square", "solver.dp_s.quantile", *tracing.SELF_METRICS.values())


def import_gfl():
    for name in [m for m in sys.modules if m == "gfl" or m.startswith("gfl.")]:
        del sys.modules[name]
    importlib.import_module("gfl")
    return SimpleNamespace(**{m: importlib.import_module(f"gfl.{m}") for m in GFL_MODULES})


def setup(wl, seed: int, workdir: str, reps: int):
    """Import gfl afresh and build the inputs ``reps`` times; keep the last.

    Returns the raw and the calibrated seconds of each set-up.
    """
    cal = calib.Calibrator()
    times, scaled = [], []
    for _ in range(reps):
        t0 = time.perf_counter()
        g = import_gfl()
        ctx = wl.build(g, seed, workdir)
        times.append(time.perf_counter() - t0)
        scaled.append(cal.scale(times[-1]))
    return g, ctx, times, scaled


def one_pass(wl, g, ctx, k, log, tracer=None, ref=None, cal=None):
    patches = tracing.install(g, log, tracer)
    try:
        t0 = time.perf_counter()
        res = wl.run_pass(g, ctx, k, log, tracer, ref, cal)
        res.wall = time.perf_counter() - t0
    finally:
        patches.restore()
    return res


def machine_facts() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def quartiles(xs) -> list:
    return statistics.quantiles(xs, n=4) if len(xs) > 1 else [xs[0]] * 3


def step_samples(passes, kind: str = "steps") -> dict:
    """Seconds of each step (CLI call or direct fit) over the passes.

    ``kind`` "scaled" gives calibrated seconds.
    """
    out = {}
    for res in passes:
        for key, dt in getattr(res, kind).items():
            out.setdefault(key, []).append(dt)
    return out


def dp_figures(samples: dict) -> tuple[list, dict]:
    """Per-cell table and DP figures from seconds keyed "shape/loss/n".

    ``dp_us_per_obs.<loss>`` is the median over shapes of the microseconds per
    observation at the shape's largest n; ``dp_exponent.<loss>`` is the median
    over shapes of the log-log slope of the cell medians against n.  Fit times
    (untraced) and DP self times (traced) both go through here, so the
    end-to-end and per-layer figures share one definition.
    """
    cells = {}
    for key, v in samples.items():
        shape, kind, n = key.split("/")
        cells[(shape, kind, int(n))] = v
    rows = [
        {"shape": s, "loss": kind, "n": n, "samples": len(v), "median_s": statistics.median(v),
         "us_per_obs": statistics.median(v) / n * 1e6}
        for (s, kind, n), v in sorted(cells.items())
    ]
    out = {}
    for kind in ("square", "quantile"):
        slopes, per_obs, fits = [], [], {}
        for shape in workloads.SHAPES:
            pts = [(r["n"], r["median_s"]) for r in rows if r["shape"] == shape and r["loss"] == kind]
            if len(pts) < 2:
                continue
            ns, ts = zip(*pts)
            slopes.append(tracing.loglog_slope(ns, ts))
            fits[shape] = {"n": list(ns), "median_s": list(ts), "exponent": slopes[-1]}
            per_obs.append(ts[-1] / ns[-1] * 1e6)
        if slopes:
            out[f"dp_exponent.{kind}"] = statistics.median(slopes)
            out[f"dp_us_per_obs.{kind}"] = statistics.median(per_obs)
            out[f"fitted_on.{kind}"] = fits
    return rows, out


def layer_metrics(traced, untraced, probe, probe_s) -> dict:
    """Per-layer metrics as the mean over traced passes; probe figures are per run."""
    P = len(traced)
    acc = Counter()
    fits = []
    for res, summ, counts in traced:
        selfs, incl = summ["self"], summ["incl"]
        for name in SELF_TIME_METRICS:
            acc[name] += selfs.get(name, 0.0)
        acc["simulate.run_s"] += incl.get("simulate.run", 0.0)
        acc["lil.incl_s"] += incl.get("lil.verify", 0.0)
        acc["solver.solve_incl_s"] += incl.get("solver.solve", 0.0)
        acc["trace.wall_s"] += res.wall
        acc["trace.unattributed_s"] += res.wall - summ["top"]
        acc["cli.files_written"] += res.io["files"]
        acc["cli.rows_written"] += res.io["rows"]
        acc["cli.bytes_written"] += res.io["bytes"]
        for key in ("simulate.replications", "losses.draws", "bounds.calls",
                    "bounds.index_evals", "lil.steps", "solver.failures"):
            acc[key] += counts.get(key, 0)
        fits += summ["fits"]
    m = {k: v / P for k, v in acc.items()}
    m["solver.fits"] = len(fits) / P
    m["solver.obs"] = sum(n for _, _, n, _ in fits) / P
    m["solver.kkt_share"] = m["solver.kkt_s"] / m["solver.solve_incl_s"] if fits else 0.0
    m["solver.kkt_rel_residual_max"] = max(res.rel_max for res, _, _ in traced)
    m["lil.steps_per_s"] = m["lil.steps"] / m["lil.incl_s"] if m["lil.incl_s"] else 0.0
    dp_self = {}
    for step, _, _, t in fits:
        if step is not None:
            dp_self.setdefault(step, []).append(t)
    dp = dp_figures(dp_self)[1]
    for kind in ("square", "quantile"):
        m[f"solver.dp_us_per_obs.{kind}"] = dp.get(f"dp_us_per_obs.{kind}", 0.0)
        m[f"solver.dp_exponent.{kind}"] = dp.get(f"dp_exponent.{kind}", 0.0)
    m["trace.overhead_s"] = (
        statistics.median(r.wall for r, _, _ in traced) - statistics.median(r.wall for r in untraced)
    )
    m["solver.probe_s"] = probe_s
    m["solver.probe_failures"] = probe.failed if probe is not None else 0
    return m


def run(args) -> int:
    wl = workloads.WORKLOADS[args.workload]
    t0 = time.perf_counter()
    import scipy.special  # noqa: F401  gfl's third-party imports, kept out of setup_s

    deps_import_s = time.perf_counter() - t0
    facts = machine_facts()
    refs = json.loads(DIGESTS.read_text())
    workdir = STATE / f"work-{wl.name}-{os.getpid()}"
    try:
        seed = args.seed % (1 << 63)  # numpy seeds must be nonnegative
        g, ctx, setup_times, setup_cal = setup(wl, seed, str(workdir), SETUP_REPS)
        log = tracing.FitLog()
        tracer = tracing.Tracer() if args.trace else None
        reference = one_pass(wl, g, ctx, None, log, tracer, ref=refs.get(wl.name, {}))

        untraced, traced, spans = [], [], []
        # untraced runs calibrate each step; traced runs compare raw pass times
        cal = None if args.trace else calib.Calibrator(getattr(wl, "cal_kinds", ("loop",)))
        start = time.perf_counter()
        k = 0
        while True:
            t0 = time.perf_counter()
            if args.trace:
                pair = {}
                for flag in ((False, True) if k % 2 == 0 else (True, False)):
                    if flag:
                        tracer.reset()
                    pair[flag] = one_pass(wl, g, ctx, k, log, tracer if flag else None)
                res = pair[True]
                traced.append((res, tracer.summary(), dict(tracer.counts)))
                spans.append(tracer.spans)
                untraced.append(pair[False])
                if res.digests != pair[False].digests:
                    res.wrong.append(f"pass {k}: traced and untraced outputs differ")
            else:
                untraced.append(one_pass(wl, g, ctx, k, log, cal=cal))
            k += 1
            if time.perf_counter() - start + (time.perf_counter() - t0) > args.seconds:
                break

        # read before the probe and the second set-ups, so that neither sets it
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        probe, probe_s = None, 0.0
        if args.trace and hasattr(wl, "probe"):
            patches = tracing.install(g, log, None)
            try:
                t0 = time.perf_counter()
                probe = wl.probe(g, ctx, log)
                probe_s = time.perf_counter() - t0
            finally:
                patches.restore()
            probe_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        _, _, more, more_cal = setup(wl, seed, str(workdir), SETUP_REPS)
        setup_times, setup_cal = setup_times + more, setup_cal + more_cal
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    # The probe's operations are reported apart: at this commit some of them
    # crash (ROADMAP item 1), and the count that crash on a seed is not a
    # measure of the timed workload.  A wrong probe output still makes the
    # run incorrect.
    results = [reference] + untraced + [r for r, _, _ in traced]
    attempted = sum(r.ops for r in results)
    failed = sum(r.failed for r in results)
    wrong = [w for r in results + ([probe] if probe else []) for w in r.wrong]
    walls = [r.wall for r in untraced]
    certified = sum(r.certified for r in untraced)

    def figures(setups, kind):
        steps = step_samples(untraced, kind)
        # a typical pass: each step at its median, so one slow call in a
        # noisy moment does not set the figure
        wall = sum(statistics.median(v) for v in steps.values())
        return steps, {
            "setup_s": statistics.median(setups),
            "wall_s": wall,
            "fits_per_s": certified / len(untraced) / wall,
        }

    raw_steps, raw = figures(setup_times, "steps")
    steps, e2e = figures(setup_cal, "steps" if args.trace else "scaled")
    e2e["peak_rss_mb"] = peak_rss_mb

    report = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": facts, "deps_import_s": deps_import_s,
        "samples": {"setup_s": setup_times, "setup_calibrated_s": setup_cal, "pass_s": walls,
                    "steps": raw_steps, "steps_calibrated": steps,
                    "calibration_s": cal.by_kind if cal else {}},
        "end_to_end": e2e, "uncalibrated": raw,
        "attempted": attempted, "failed": failed,
        "failed_frac": failed / attempted if attempted else 0.0,
        "failures": [n for r in results for n in r.notes], "wrong": wrong,
        "reference_digests": reference.digests,
    }
    print(f"workload {wl.name} seed {args.seed} trace {args.trace}")
    print("machine " + " ".join(f"{k}={v}" for k, v in facts.items()))
    if cal is not None:
        for kind, samples in cal.by_kind.items():
            print(f"calibration ({kind}): chunk median {statistics.median(samples) * 1e3:.3f} ms over"
                  f" {len(samples)} calibrations (reference {calib.REF_S[kind] * 1e3:.3f} ms)")
        print("times below are calibrated, raw in brackets")
    else:
        print("traced run: wall_s and fits_per_s below are not calibrated")
    print(f"setup_s = {e2e['setup_s']:.6f} s [{raw['setup_s']:.6f}] (median of {len(setup_times)} set-ups;"
          f" numpy and scipy imported once before, {deps_import_s:.3f} s)")
    q = quartiles(walls)
    print(f"wall_s = {e2e['wall_s']:.6f} s [{raw['wall_s']:.6f}] (sum over {len(steps)} steps of each"
          f" step's median over {len(walls)} passes; raw pass time median {statistics.median(walls):.6f} s,"
          f" quartiles {q[0]:.6f} {q[2]:.6f})")
    print(f"fits_per_s = {e2e['fits_per_s']:.3f} 1/s [{raw['fits_per_s']:.3f}] ({certified} certified fits)")
    print(f"peak_rss_mb = {peak_rss_mb:.1f} MB")
    print(f"failed_frac = {report['failed_frac']:.6f} ({failed} of {attempted} operations)")
    for note in report["failures"]:
        print(f"  failed: {note}")
    for w in wrong:
        print(f"  WRONG OUTPUT: {w}")

    if wl.name == "dp_scaling":
        rows, dp = dp_figures(steps)
        report["dp_cells"], report["dp"] = rows, dp
        for kind in ("square", "quantile"):
            print(f"dp_us_per_obs.{kind} = {dp[f'dp_us_per_obs.{kind}']:.4f} us"
                  f" (n = {workloads.DP_NS[-1]}, median over {len(workloads.SHAPES)} shapes)")
            print(f"dp_exponent.{kind} = {dp[f'dp_exponent.{kind}']:.4f}"
                  f" (median over shapes of log-log slopes on n = {list(workloads.DP_NS)})")
        for r in rows:
            print(f"  cell {r['shape']:5s} {r['loss']:8s} n={r['n']:6d} "
                  f"{r['median_s']:.5f} s ({r['samples']} fits) {r['us_per_obs']:.4f} us/obs")
    if probe is not None:
        report["probe"] = {"seconds": probe_s, "fits": probe.steps, "failures": probe.notes,
                           "peak_rss_mb": probe_rss_mb}
        print(f"probe n={workloads.PROBE_N}: {probe_s:.3f} s, {probe.failed} of {probe.ops} failed"
              f" (not in failed_frac); peak RSS {probe_rss_mb:.1f} MB after it (not in peak_rss_mb)")
        for note in probe.notes:
            print(f"  probe failed: {note}")

    if args.trace:
        layers = layer_metrics(traced, untraced, probe, probe_s)
        report["per_layer"] = layers
        total = sum(layers[m] for m in SELF_TIME_METRICS) + layers["trace.unattributed_s"]
        print(f"traced: {len(traced)} passes; trace.wall_s = {layers['trace.wall_s']:.6f} s = "
              f"layer self times {total - layers['trace.unattributed_s']:.6f} s + "
              f"unattributed {layers['trace.unattributed_s']:.6f} s; "
              f"trace.overhead_s = {layers['trace.overhead_s']:.6f} s")
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in LAYER_METRICS}
        for name, unit in LAYER_METRICS:
            print(f"  {name} = {layers[name]:.6g} {unit}")
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in E2E_UNITS.items()}

    STATE.mkdir(exist_ok=True)
    out = STATE / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    report["spans"] = [[s[:4] for s in p] for p in spans]
    out.write_text(json.dumps(report, default=str) + "\n")
    print(json.dumps({"correct": not wrong, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def record_digests() -> int:
    refs = {}
    for name, wl in workloads.WORKLOADS.items():
        workdir = STATE / f"record-{name}-{os.getpid()}"
        try:
            g, ctx, *_ = setup(wl, workloads.DEFAULT_SEED, str(workdir), 1)
            res = one_pass(wl, g, ctx, None, tracing.FitLog())
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        if res.failed or res.wrong:
            print(f"{name}: reference pass failed: {res.notes + res.wrong}", file=sys.stderr)
            return 1
        refs[name] = dict(sorted(res.digests.items()))
        print(f"{name}: {len(res.digests)} digests")
    DIGESTS.write_text(json.dumps(refs, indent=1) + "\n")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=("mc_square", "mc_quantile", "dp_scaling", "report_io"))
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-digests", action="store_true")
    args = ap.parse_args(argv)
    if not (SRC / "gfl" / "__init__.py").is_file():
        print(f"error: no gfl source under {SRC}", file=sys.stderr)
        return 2
    if not args.record_digests and args.workload is None:
        ap.error("--workload is required")
    sys.path.insert(0, str(SRC))
    if args.seed is None:
        args.seed = workloads.DEFAULT_SEED
    return record_digests() if args.record_digests else run(args)


if __name__ == "__main__":
    sys.exit(main())

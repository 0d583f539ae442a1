"""The four benchmark workloads.

Each workload builds its inputs from a seed (``build``, timed as set-up) and
then runs fixed units of work called passes (``run_pass``); pass ``k`` = None
is the reference pass on inputs from ``DEFAULT_SEED``.  gfl receives only
the generated arrays, config files and CLI arguments.  Every pass checks its
outputs: exit codes, the expected CSV files and row counts, and the KKT
certificate of every fit; CSV data rows (and, for direct fits, the bytes of
``theta_hat``) are hashed so that a pass can be compared with a recorded
reference or with a traced pass on the same inputs.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from tracing import REL_TOL, rel_residual

# Seed of the reference pass whose output digests are recorded in
# digests.json; it is also the default --seed.
DEFAULT_SEED = 20240811


def pass_seed(seed: int, k: int) -> int:
    return (seed * 1_000_003 + 7919 * k) % (1 << 62)


@dataclass
class PassResult:
    wall: float = 0.0
    ops: int = 0
    failed: int = 0
    fits: int = 0
    certified: int = 0
    wrong: list = field(default_factory=list)  # outputs that are incorrect
    notes: list = field(default_factory=list)  # failed operations
    rel_max: float = 0.0  # largest relative KKT residual seen
    digests: dict = field(default_factory=dict)
    steps: dict = field(default_factory=dict)  # seconds of each CLI call or direct fit
    scaled: dict = field(default_factory=dict)  # the same in calibrated seconds
    cal: object = None  # calib.Calibrator of an untraced timed pass, else None
    io: dict = field(default_factory=lambda: {"files": 0, "rows": 0, "bytes": 0})

    def step(self, key: str, seconds: float, kind: str = "loop") -> None:
        """Record a step's seconds and, with a calibrator, its calibrated seconds.

        ``kind`` names the calibration loop (``calib.CHUNK``) the step follows.
        """
        self.steps[key] = seconds
        if self.cal is not None:
            self.scaled[key] = self.cal.scale(seconds, kind)

    def fail(self, msg: str) -> None:
        self.failed += 1
        self.notes.append(msg)

    def check_fits(self, log, label: str, expected: int) -> None:
        """Count ``expected`` fits; only observed fits within tolerance are certified.

        A step whose observed fit count differs from ``expected`` fails, so a
        fit the certificate wrapper did not see can never count as certified.
        """
        bad = [f for f in log if not f[2] <= REL_TOL]
        self.rel_max = max([self.rel_max] + [f[2] for f in log])
        self.ops += expected
        self.fits += expected
        self.certified += min(len(log) - len(bad), expected)
        for kind, n, rel in bad:
            self.fail(f"{label}: {kind} fit n={n} relative KKT residual {rel:.3g}")
            self.wrong.append(f"{label}: uncertified {kind} fit n={n}")
        if len(log) != expected:
            self.fail(f"{label}: {len(log)} fits observed, expected {expected}")
            self.wrong.append(f"{label}: {expected - len(log)} fits not certified")


def csv_digest(text: str) -> tuple[str, int]:
    """SHA-256 of every line but the '#' provenance line, and the data row count."""
    body = [line for line in text.splitlines() if not line.startswith("#")]
    return hashlib.sha256("\n".join(body).encode()).hexdigest(), max(len(body) - 1, 0)


def call_cli(g, argv, tracer, res: PassResult, label: str, expect_csv: dict, ref: dict | None,
             kind: str = "loop"):
    """Run one ``gfl`` command into a fresh output directory and check it.

    ``expect_csv`` maps each CSV the command must write to its data row count
    (None: any); ``kind`` is the step's calibration loop.  Returns the output
    directory, or None if the command failed.
    """
    out = argv[argv.index("--out-dir") + 1]
    shutil.rmtree(out, ignore_errors=True)
    res.ops += 1
    idx = tracer.open("cli", cmd=argv[0]) if tracer is not None else None
    t0 = time.perf_counter()
    try:
        rc = g.cli.main(argv)
    except SystemExit as exc:
        rc = exc.code
    except Exception:
        rc = "exception: " + traceback.format_exc(limit=-1).strip().splitlines()[-1]
    finally:
        dt = time.perf_counter() - t0
        if idx is not None:
            tracer.close(idx)
        res.step(label, dt, kind)
    if rc != 0:
        res.fail(f"{label}: gfl {argv[0]} exit {rc}")
        return None
    problems = []
    for name in sorted(os.listdir(out)):
        with open(os.path.join(out, name), "rb") as fh:
            data = fh.read()
        res.io["files"] += 1
        res.io["bytes"] += len(data)
        if name.endswith(".csv"):
            digest, rows = csv_digest(data.decode())
            res.io["rows"] += rows
            key = f"{label}/{name}"
            res.digests[key] = digest
            want = expect_csv.get(name)
            if want is not None and rows != want:
                problems.append(f"{name} has {rows} rows, expected {want}")
            if ref is not None and ref.get(key) != digest:
                problems.append(f"{name} differs from the recorded reference")
    problems += [f"{name} missing" for name in expect_csv if f"{label}/{name}" not in res.digests]
    if problems:
        res.fail(f"{label}: " + "; ".join(problems))
        return None
    return out


# ---------------------------------------------------------------------------
# mc_square / mc_quantile: gfl simulate on the configs of run_all_experiments.py
# ---------------------------------------------------------------------------

_SQ = {"kind": "square"}
_MED = {"kind": "quantile", "tau": 0.5}
_K4 = {"values": [0.0, 1.0, 0.0, 1.0], "lengths": [1024] * 4}


def _mc_configs(loss: str) -> list:
    """(label, config, fits per replication, CSVs with row counts).

    The configs of scripts/run_all_experiments.py with their replications
    divided by one common factor per loss (100 for square, 50 for quantile),
    so that the experiments keep the script's weights and one pass takes
    one to two seconds.
    """
    n, K = 4096, 4
    if loss == "square":
        return [
            ("pointwise", {
                "experiment": "pointwise",
                "signal": {"values": [0.0, 2.0], "lengths": [1024, 1024]},
                "noise": {"kind": "gaussian", "scale": 1.0},
                "loss": _SQ, "lambda": {"rule": "sqrt_n_over_k"},
                "delta": 0.05, "replications": 20, "monitor": "interior",
            }, 1, {"per_index.csv": None}),
            ("sse", {
                "experiment": "sse", "signal": _K4,
                "noise": {"kind": "gaussian", "scale": 1.0},
                "loss": _SQ, "lambda": {"rule": "log_sqrt_n_over_k"},
                "delta": 1e-3, "replications": 5,
            }, 1, {"sse.csv": 5}),
            ("rate_sweep", {
                "experiment": "rate_sweep",
                "signal": {"values": [0.0, 1.0], "lengths": [2048, 2048]},
                "noise": {"kind": "gaussian", "scale": 1.0},
                "loss": _SQ, "lambda": {"rule": "sqrt_n_over_k"},
                "delta": 0.05, "replications": 5,
                "d_grid": [4, 16, 64, 256, 1024], "n_sweep": [1024, 4096, 16384],
            }, 4, {"plotdata_d_sweep.csv": 5, "plotdata_n_sweep.csv": 3}),
            ("lambda_sweep", {
                "experiment": "lambda_sweep",
                "signal": {"values": [0.0, 1.0, 0.0, 1.0], "lengths": [256] * 4},
                "noise": {"kind": "gaussian", "scale": 1.0},
                "loss": _SQ, "lambda": {"rule": "sqrt_n_over_k"},
                "delta": 1e-3, "replications": 2,
            }, 9, {"plotdata_lambda_sweep.csv": 9}),
        ]
    return [
        ("pointwise", {
            "experiment": "pointwise",
            "signal": {"values": [0.0, 2.0], "lengths": [1024, 1024]},
            "noise": {"kind": "cauchy", "scale": 1.0, "center_tau": 0.5},
            "loss": _MED, "lambda": {"rule": "fixed", "value": 43.0},
            "delta": 0.05, "replications": 40, "monitor": "interior",
        }, 1, {"per_index.csv": None}),
        ("sse", {
            "experiment": "sse", "signal": _K4,
            "noise": {"kind": "uniform", "scale": 1.0, "center_tau": 0.5},
            "loss": _MED, "lambda": {"rule": "fixed", "value": math.log(n) * math.sqrt(n / K)},
            "delta": 1e-3, "replications": 10, "growth_L": "auto",
        }, 1, {"sse.csv": 10}),
    ]


class MonteCarlo:
    def __init__(self, name: str, loss: str):
        self.name, self.loss = name, loss

    def build(self, g, seed: int, workdir: str) -> dict:
        os.makedirs(os.path.join(workdir, "configs"), exist_ok=True)
        jobs = []
        for label, cfg, fits_per_rep, csvs in _mc_configs(self.loss):
            # the truth signal as gfl sees it; its n must match the config
            sig = g.signal.PiecewiseConstantSignal.from_record(cfg["signal"])
            if sig.geometry().n != sig.expand().size:
                raise RuntimeError(f"{label}: inconsistent signal")
            path = os.path.join(workdir, "configs", f"{label}.json")
            with open(path, "w") as fh:
                json.dump(cfg | {"seed": seed}, fh)
            jobs.append((label, path, cfg["replications"] * fits_per_rep, csvs))
        return {"jobs": jobs, "seed": seed, "workdir": workdir}

    def run_pass(self, g, ctx, k, log, tracer=None, ref=None, cal=None) -> PassResult:
        res = PassResult(cal=cal)
        base = DEFAULT_SEED if k is None else pass_seed(ctx["seed"], k)
        for j, (label, path, fits, csvs) in enumerate(ctx["jobs"]):
            out = os.path.join(ctx["workdir"], "out", label)
            argv = ["simulate", "--config", path, "--seed", str(base + j), "--out-dir", out]
            log.drain()
            if call_cli(g, argv, tracer, res, label, csvs, ref) is not None:
                res.check_fits(log.drain(), label, fits)
        return res


# ---------------------------------------------------------------------------
# dp_scaling: gfl.solver.solve on three input shapes at three sizes
# ---------------------------------------------------------------------------

SHAPES = ("step", "ramp", "walk")
DP_NS = (2**12, 2**14, 2**16)
PROBE_N = 2**17
VARIANTS = 3  # input sets per seed, cycled over the passes


def _shape(g, shape: str, n: int, rng) -> np.ndarray:
    if shape == "step":
        truth = g.signal.PiecewiseConstantSignal([0.0, 1.0, 0.0, 1.0], [n // 4] * 4).expand()
        return truth + rng.standard_normal(n)
    if shape == "ramp":
        return np.linspace(0.0, 100.0, n) + 0.01 * rng.standard_normal(n)
    return np.cumsum(rng.standard_normal(n))


class DpScaling:
    name = "dp_scaling"

    def build(self, g, seed: int, workdir: str) -> dict:
        rng = np.random.default_rng(seed)
        variants = [
            {(s, n): _shape(g, s, n, rng) for n in DP_NS for s in SHAPES} for _ in range(VARIANTS)
        ]
        probe = {s: _shape(g, s, PROBE_N, rng) for s in SHAPES}
        ref_rng = np.random.default_rng(DEFAULT_SEED)
        reference = {(s, DP_NS[0]): _shape(g, s, DP_NS[0], ref_rng) for s in SHAPES}
        losses = {"square": g.losses.make_loss("square"), "quantile": g.losses.make_loss("quantile", 0.5)}
        return {"variants": variants, "probe": probe, "reference": reference, "losses": losses}

    def _fit(self, g, res, y, loss, shape, log):
        """One timed fit; returns theta_hat, or None if it raised."""
        n = y.size
        lam = math.sqrt(n / 4)
        problem = g.solver.FusedLassoProblem(y=y, lam=lam, loss=loss)
        key = f"{shape}/{loss.kind}/{n}"
        res.ops += 1
        log.step = key
        t0 = time.perf_counter()
        try:
            sol = g.solver.solve(problem)
        except Exception as exc:
            res.fail(f"{shape} {loss.kind} n={n}: {type(exc).__name__}: {exc}")
            return None
        finally:
            dt = time.perf_counter() - t0
            log.step = None
            log.drain()
        res.step(key, dt)
        res.fits += 1
        rel = rel_residual(sol.kkt_residual, lam, y)
        res.rel_max = max(res.rel_max, rel)
        if rel <= REL_TOL:
            res.certified += 1
        else:
            res.fail(f"{shape} {loss.kind} n={n}: relative KKT residual {rel:.3g}")
            res.wrong.append(f"{shape} {loss.kind} n={n}: uncertified fit")
        return sol.theta_hat

    def run_pass(self, g, ctx, k, log, tracer=None, ref=None, cal=None) -> PassResult:
        res = PassResult(cal=cal)
        inputs = ctx["reference"] if k is None else ctx["variants"][k % VARIANTS]
        kinds = ("quantile", "square") if k and k % 2 else ("square", "quantile")
        for (shape, n), y in inputs.items():
            for kind in kinds:
                theta = self._fit(g, res, y, ctx["losses"][kind], shape, log)
                if theta is None:
                    continue
                key = f"{shape}/{kind}/{n}"
                res.digests[key] = hashlib.sha256(theta.tobytes()).hexdigest()
                if ref is not None and ref.get(key) != res.digests[key]:
                    res.fail(f"{key}: theta_hat differs from the recorded reference")
        return res

    def probe(self, g, ctx, log) -> PassResult:
        """Quantile fits at n = 2^17, outside the timed section."""
        res = PassResult()
        for shape, y in ctx["probe"].items():
            self._fit(g, res, y, ctx["losses"]["quantile"], shape, log)
        return res


# ---------------------------------------------------------------------------
# report_io: gfl bounds, gfl solve and gfl lil
# ---------------------------------------------------------------------------

IO_N = 2**15
LIL_HORIZON = 10_000
LIL_PATHS = 1000
# t = 1, 2, 4, ..., 2^13: the powers of two up to the horizon
LIL_ROWS = int(math.log2(LIL_HORIZON)) + 1


def _io_variant(g, rng, path: str) -> dict:
    lengths = (IO_N // 8 + rng.multinomial(IO_N // 2, [0.25] * 4)).tolist()
    jumps = rng.choice([-1.0, 1.0], size=3) * rng.uniform(0.5, 2.0, size=3)
    values = [0.0] + np.cumsum(jumps).tolist()
    sig = g.signal.PiecewiseConstantSignal(values, lengths)
    geom = sig.geometry()
    if (geom.n, geom.K) != (IO_N, 4):
        raise RuntimeError("report_io signal has the wrong size")
    y = sig.expand() + rng.standard_normal(IO_N)
    with open(path, "w") as fh:
        fh.write("\n".join(map(repr, y.tolist())) + "\n")
    return {
        "values": ",".join(map(repr, values)),
        "lengths": ",".join(map(str, lengths)),
        "input": path,
    }


class ReportIo:
    name = "report_io"
    # gfl lil is vectorized numpy work; the other steps follow the loop
    cal_kinds = ("loop", "vector")

    def build(self, g, seed: int, workdir: str) -> dict:
        os.makedirs(workdir, exist_ok=True)
        rng = np.random.default_rng(seed)
        variants = [_io_variant(g, rng, os.path.join(workdir, f"y{v}.txt")) for v in range(VARIANTS)]
        reference = _io_variant(g, np.random.default_rng(DEFAULT_SEED), os.path.join(workdir, "yref.txt"))
        return {"variants": variants, "reference": reference, "seed": seed, "workdir": workdir}

    def run_pass(self, g, ctx, k, log, tracer=None, ref=None, cal=None) -> PassResult:
        res = PassResult(cal=cal)
        v = ctx["reference"] if k is None else ctx["variants"][k % VARIANTS]
        lil_seed = DEFAULT_SEED if k is None else pass_seed(ctx["seed"], k)
        lam = repr(math.sqrt(IO_N / 4))
        out = os.path.join(ctx["workdir"], "out")
        call_cli(g, [
            "bounds", "--signal-values", v["values"], "--signal-lengths", v["lengths"],
            "--sigma", "1.0", "--delta", "0.05", "--lambda", lam, "--growth-L", "0.5",
            "--out-dir", os.path.join(out, "bounds"),
        ], tracer, res, "bounds", {"bounds.csv": IO_N}, ref)
        log.drain()
        argv = ["solve", "--input", v["input"], "--lambda", lam, "--out-dir", os.path.join(out, "solve")]
        if call_cli(g, argv, tracer, res, "solve", {"solution.csv": IO_N}, ref) is not None:
            res.check_fits(log.drain(), "solve", 1)
        call_cli(g, [
            "lil", "--sigma", "1.0", "--delta", "0.1", "--horizon", str(LIL_HORIZON),
            "--paths", str(LIL_PATHS), "--seed", str(lil_seed), "--out-dir", os.path.join(out, "lil"),
        ], tracer, res, "lil", {"lil.csv": LIL_ROWS}, ref, kind="vector")
        return res


WORKLOADS = {
    w.name: w
    for w in (
        MonteCarlo("mc_square", "square"),
        MonteCarlo("mc_quantile", "quantile"),
        DpScaling(),
        ReportIo(),
    )
}

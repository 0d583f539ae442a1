"""What a fresh ``import gfl.cli`` loads, and the names perfbench's tracer
patches (perfbench/tracing.py, read here without being changed)."""

import ast
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path
from types import ModuleType, SimpleNamespace

import pytest

import gfl.bounds
import gfl.cli
import gfl.lil
import gfl.losses
import gfl.signal
import gfl.simulate
import gfl.solver

_ROOT = Path(__file__).resolve().parents[1]


def test_import_leaves_scipy_unloaded():
    # scipy.special is most of gfl's import time; only tau-centred Gaussian
    # noise needs it, and it loads at first use
    code = "import sys, gfl.cli; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    env = dict(os.environ, PYTHONPATH=str(_ROOT / "src"))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


def test_import_leaves_dataclasses_unloaded():
    # gfl's records take their methods from gfl._record, so defining them
    # generates no code; numpy, argparse, json and ctypes do not load
    # dataclasses either, so this pins gfl's own imports
    code = "import sys, gfl.cli, gfl.simulate, gfl.bounds, gfl.lil; print('dataclasses' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(_ROOT / "src"))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


def _unused_imports(path: Path) -> list:
    """The names a module imports but neither reads nor lists in __all__."""
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.partition(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["__all__"]:
            used |= set(ast.literal_eval(node.value))
    return sorted(imported - used)


def test_no_unused_imports():
    paths = [p for d in ("src/gfl", "scripts", "tests") for p in sorted((_ROOT / d).glob("*.py"))]
    found = {p.relative_to(_ROOT).as_posix(): _unused_imports(p) for p in paths}
    assert {name: names for name, names in found.items() if names} == {}


def _tracing():
    """perfbench/tracing.py as a module, compiled in memory so that no
    bytecode is written beside it."""
    path = _ROOT / "perfbench" / "tracing.py"
    mod = ModuleType("tracing")
    exec(compile(path.read_text(), str(path), "exec"), mod.__dict__)
    return mod


def test_tracer_installs_and_restores(tmp_path):
    tracing = _tracing()
    g = SimpleNamespace(
        cli=gfl.cli, solver=gfl.solver, simulate=gfl.simulate, losses=gfl.losses,
        signal=gfl.signal, bounds=gfl.bounds, lil=gfl.lil,
    )
    targets = [(g.solver, n) for n in ("solve", "check_kkt", "objective")]
    targets += [(g.simulate, "solve"), (g.signal, "compute_geometry")]
    targets += [(g.cli, n) for n in ("solve", "run_experiment", "verify_paths")]
    targets += [(g.bounds, n) for n in tracing.BOUNDS_FUNCS]
    targets += [(g.losses.NoiseModel, "sample_rng"), (g.signal.PiecewiseConstantSignal, "expand")]
    before = [getattr(obj, name) for obj, name in targets]
    # the step counter reads verify_paths' first three positional parameters
    params = list(inspect.signature(g.lil.verify_paths).parameters)
    assert params[:3] == ["noise", "horizon", "paths"]
    assert callable(g.signal.PiecewiseConstantSignal.from_record)

    log, tracer = tracing.FitLog(), tracing.Tracer()
    patches = tracing.install(g, log, tracer)
    try:
        assert all(getattr(obj, name) is not f for (obj, name), f in zip(targets, before))
        argv = ["lil", "--delta", "0.1", "--horizon", "64", "--paths", "8", "--seed", "1"]
        assert g.cli.main(argv + ["--out-dir", str(tmp_path / "lil")]) == 0
        argv = ["bounds", "--signal-values", "0,1", "--signal-lengths", "8,8"]
        argv += ["--delta", "0.1", "--lambda", "2", "--out-dir", str(tmp_path / "bounds")]
        assert g.cli.main(argv) == 0
    finally:
        patches.restore()
    assert [getattr(obj, name) for obj, name in targets] == before
    assert tracer.counts["lil.steps"] == 64 * 8
    assert tracer.counts["losses.draws"] == 64 * 8
    assert tracer.counts["bounds.calls"] == 1
    spans = {s[0] for s in tracer.spans}
    assert {"lil.verify", "losses.sample", "bounds", "signal.geometry"} <= spans


_SQUARE = {"noise": {"kind": "gaussian", "scale": 1.0}, "loss": {"kind": "square"}}
_MEDIAN = {
    "noise": {"kind": "uniform", "scale": 1.0, "center_tau": 0.5},
    "loss": {"kind": "quantile", "tau": 0.5},
    "growth_L": "auto",
}
# one small config per experiment, with the fits it makes per replication
_FIT_CONFIGS = [
    ({"experiment": "pointwise", **_SQUARE}, 1),
    ({"experiment": "elementwise_quantile", **_MEDIAN, "delta": 0.01}, 1),
    ({"experiment": "sse", **_MEDIAN, "delta": 1e-3}, 1),
    ({"experiment": "rate_sweep", **_SQUARE, "d_grid": [2, 4, 8], "n_sweep": [16, 32]}, 3),
    ({"experiment": "lambda_sweep", **_SQUARE, "delta": 1e-3, "lambda_grid": [0.5, 1.0, 4.0]}, 3),
]


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
def test_tracer_sees_every_fit(tmp_path, traced):
    """The benchmark counts fits by patching ``solve`` in the modules that
    call it (perfbench/tracing.py, loaded unchanged): each experiment's
    replications times its lambdas, and one per ``gfl solve``, each
    certified.  A caller that bound ``solve`` early would hide its fits."""
    tracing = _tracing()
    g = SimpleNamespace(
        cli=gfl.cli, solver=gfl.solver, simulate=gfl.simulate, losses=gfl.losses,
        signal=gfl.signal, bounds=gfl.bounds, lil=gfl.lil,
    )
    log = tracing.FitLog()
    patches = tracing.install(g, log, tracing.Tracer() if traced else None)
    try:
        for j, (over, fits_per_rep) in enumerate(_FIT_CONFIGS):
            cfg = {
                "signal": {"values": [0.0, 2.0], "lengths": [16, 16]},
                "lambda": {"rule": "sqrt_n_over_k"},
                "delta": 0.05,
                "replications": 3,
                "seed": 5,
            } | over
            path = tmp_path / f"config{j}.json"
            path.write_text(json.dumps(cfg))
            argv = ["simulate", "--config", str(path), "--out-dir", str(tmp_path / f"out{j}")]
            assert g.cli.main(argv) == 0
            fits = log.drain()
            assert len(fits) == cfg["replications"] * fits_per_rep, cfg["experiment"]
            assert all(rel <= tracing.REL_TOL for _, _, rel in fits)
        values = tmp_path / "y.txt"
        values.write_text("\n".join(map(str, [0.5, 2.0, -1.0, 3.0, 3.5])) + "\n")
        argv = ["solve", "--input", str(values), "--lambda", "0.7"]
        assert g.cli.main(argv + ["--out-dir", str(tmp_path / "s")]) == 0
        fits = log.drain()
        assert [(kind, n) for kind, n, _ in fits] == [("square", 5)]
        assert fits[0][2] <= tracing.REL_TOL
    finally:
        patches.restore()

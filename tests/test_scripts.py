"""scripts/run_all_experiments.py, run as a user runs it."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]

# each output directory's files, as README's table of output files lists them
_FILES = {
    "pointwise_mean": {"summary.json", "per_index.csv"},
    "pointwise_quantile": {"summary.json", "per_index.csv"},
    "sse_mean": {"summary.json", "sse.csv"},
    "sse_quantile": {"summary.json", "sse.csv"},
    "rate_sweep": {"summary.json", "plotdata_d_sweep.csv", "plotdata_n_sweep.csv"},
    "lambda_sweep": {"summary.json", "plotdata_lambda_sweep.csv"},
    "lil": {"lil.json", "lil.csv"},
}

# tree_digest of the --quick tree at the default seed; every output byte
# enters it, so it changes only when a result or its provenance does
_QUICK_DIGEST = "6cd454aaf4acbc9aaebbddb7deb42aaecbcc08a1dcb3d9810356c792f1961295"


def tree_digest(root: Path) -> str:
    """SHA-256 over every file under root: its relative path, then its bytes,
    in sorted path order."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        data = path.read_bytes()
        h.update(f"{path.relative_to(root).as_posix()}\0{len(data)}\0".encode())
        h.update(data)
    return h.hexdigest()


def test_quick_suite_writes_every_experiment(tmp_path):
    out = tmp_path / "results"
    env = dict(os.environ, PYTHONPATH=str(_ROOT / "src"))
    cmd = [sys.executable, str(_ROOT / "scripts" / "run_all_experiments.py")]
    proc = subprocess.run(
        cmd + ["--quick", "--out-root", str(out)], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert {d.name: {f.name for f in d.iterdir()} for d in out.iterdir()} == _FILES
    assert tree_digest(out) == _QUICK_DIGEST


def test_pilot_thresholds_imports():
    """scripts/pilot_thresholds.py finds every gfl name it uses.  Its main,
    which rewrites tests/calibration.json, is not run."""
    import pilot_thresholds

    assert callable(pilot_thresholds.main)

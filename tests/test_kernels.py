"""The C kernels are built once per SHA-256 of their source and compile
command, into the package's ``__pycache__``; later processes load that build
without running the compiler, and a build that fails makes import fail."""

import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

import gfl
from gfl import _kernels
from gfl.losses import QuantileLoss, SquareLoss
from gfl.solver import FusedLassoProblem, solve

Y = np.cos(np.arange(200) * 0.37) * 3.0
LOSSES = (SquareLoss(), QuantileLoss(0.3))

PROBE = """
import numpy as np
import gfl._kernels
from gfl.losses import QuantileLoss, SquareLoss
from gfl.solver import FusedLassoProblem, solve
y = np.cos(np.arange(200) * 0.37) * 3.0
print(gfl._kernels.lib._name)
for loss in (SquareLoss(), QuantileLoss(0.3)):
    print(solve(FusedLassoProblem(y=y, lam=1.5, loss=loss)).theta_hat.tobytes().hex())
"""


def copy_package(tmp_path) -> Path:
    pkg = tmp_path / "gfl"
    shutil.copytree(Path(gfl.__file__).parent, pkg, ignore=shutil.ignore_patterns("__pycache__"))
    return pkg


def run(tmp_path, code, **env):
    env = {**os.environ, "PYTHONPATH": str(tmp_path), **env}
    return subprocess.run(
        [sys.executable, "-c", code], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=300,
    )


def built(cache: Path) -> list:
    """The libraries and temporary build files in ``cache`` (not ``.pyc``s)."""
    return sorted(p for p in cache.iterdir() if p.suffix == ".so")


def probe(tmp_path, **env):
    proc = run(tmp_path, PROBE, **env)
    assert proc.returncode == 0, proc.stderr
    name, *bits = proc.stdout.split()
    return Path(name), bits


def test_cold_import_builds_once_and_later_imports_load_it(tmp_path):
    cache = copy_package(tmp_path) / "__pycache__"
    want = [solve(FusedLassoProblem(y=Y, lam=1.5, loss=loss)).theta_hat.tobytes().hex()
            for loss in LOSSES]

    lib, bits = probe(tmp_path)
    assert built(cache) == [lib]  # one library, no temporary file left
    assert re.fullmatch(r"_kernels-[0-9a-f]{16}\.so", lib.name)
    assert bits == want
    mtime = lib.stat().st_mtime_ns

    # this process only loads: on an empty PATH a compiler named without a
    # directory cannot start, and a rebuild would publish a new file
    lib2, bits2 = probe(tmp_path, PATH="")
    assert lib2 == lib and bits2 == want
    assert lib.stat().st_mtime_ns == mtime
    assert built(cache) == [lib]

    # another source is another build, under another name
    with open(cache.parent / "_kernels.c", "a") as fh:
        fh.write("/* changed */\n")
    lib3, bits3 = probe(tmp_path)
    assert lib3 != lib and bits3 == want
    assert built(cache) == sorted([lib, lib3])


def test_failed_build_fails_import_with_command_and_output(tmp_path):
    pkg = copy_package(tmp_path)
    (pkg / "_kernels.c").write_text("this is not C\n")
    proc = run(tmp_path, "import gfl")
    assert proc.returncode != 0
    assert "ImportError: cannot build the gfl C kernels" in proc.stderr
    assert "-ffp-contract=off" in proc.stderr and "error" in proc.stderr
    assert built(pkg / "__pycache__") == []


def test_kernels_compile_clean_with_warnings_as_errors(tmp_path):
    # an unused static or variable, or a signed/unsigned comparison, in
    # _kernels.c fails here, not only as a build warning
    out = tmp_path / "k.so"
    cmd = [*_kernels.COMMAND, "-Wall", "-Wextra", "-Werror", "-o", str(out), str(_kernels.SOURCE)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert out.exists()

"""The C kernels are built once per SHA-256 of their source and compile
command, into the package's ``__pycache__``; later processes load that build
without running the compiler, and a build that fails makes import fail.
Each exported kernel writes only inside the buffers it is given, and only
into its outputs; built with AddressSanitizer and UBSan, the solver's
kernels also read only inside them."""

import ctypes
import itertools
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gfl
from gfl import _kernels
from gfl.lil import LilEnvelope, envelope
from gfl.losses import QuantileLoss, SquareLoss
from gfl.solver import FusedLassoProblem, _work_size, check_kkt, solve

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

    # another source is another build, under another name, and it deletes
    # the build it replaces
    with open(cache.parent / "_kernels.c", "a") as fh:
        fh.write("/* changed */\n")
    lib3, bits3 = probe(tmp_path)
    assert lib3 != lib and bits3 == want
    assert built(cache) == [lib3]


def test_failed_build_fails_import_with_command_and_output(tmp_path):
    pkg = copy_package(tmp_path)
    (pkg / "_kernels.c").write_text("this is not C\n")
    proc = run(tmp_path, "import gfl")
    assert proc.returncode != 0
    assert "ImportError: cannot build the gfl C kernels" in proc.stderr
    assert "-ffp-contract=off" in proc.stderr and "error" in proc.stderr
    assert built(pkg / "__pycache__") == []


def test_kernels_compile_clean_with_warnings_as_errors(tmp_path):
    # an unused static or variable, a signed/unsigned comparison, an
    # implicit narrowing conversion, a shadowed name or a construct outside
    # C99 in _kernels.c fails here, not only as a build warning
    out = tmp_path / "k.so"
    cmd = [
        *_kernels.COMMAND, "-std=c99", "-Wall", "-Wextra", "-Wpedantic", "-Wshadow",
        "-Wconversion", "-Werror", "-o", str(out), str(_kernels.SOURCE),
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert out.exists()


# A definition that starts a line and is not static is exported.
DEFINITION = re.compile(r"^(?!static\b)(\w+) +(\w+)\(([^)]*)\)\s*\{", re.M)
RESTYPES = {"int": ctypes.c_int, "double": ctypes.c_double, "void": None}


def test_every_exported_kernel_matches_its_ctypes_prototype():
    # on x86-64 doubles and pointers travel in separate registers, so a
    # double added or dropped on one side only still returns the same bits
    # for many calls: the parameter lists are compared here instead
    lib = _kernels.lib
    defined = {
        name: (restype, params)
        for restype, name, params in DEFINITION.findall(_kernels.SOURCE.read_text())
    }
    declared = {
        name for name, f in vars(lib).items()
        if isinstance(f, lib._FuncPtr) and f.argtypes is not None
    }
    assert set(defined) == declared and all(n.startswith("gfl_") for n in defined)
    for name, (restype, params) in defined.items():
        f = getattr(lib, name)
        assert len(params.split(",")) == len(f.argtypes), name
        assert f.restype is RESTYPES[restype], name


# A NaN with a payload no kernel computes, so a stray write shows in its bits.
SENTINEL = np.array([0x7FF8_DEAD_0000_BEEF], dtype=np.uint64).view(np.float64)[0]
GUARD = 64


def guarded(size):
    """A float64 buffer of ``size`` inside a larger array, between bands of
    GUARD sentinels; returns (buffer, whole array).  The buffer starts as
    -1.0, so a stray copy of an unwritten entry is no sentinel either."""
    whole = np.full(size + 2 * GUARD, SENTINEL)
    whole[GUARD:GUARD + size] = -1.0
    return whole[GUARD:GUARD + size], whole


def bands_intact(whole):
    bits = whole.view(np.uint64)
    want = SENTINEL.view(np.uint64)
    return bool((bits[:GUARD] == want).all() and (bits[-GUARD:] == want).all())


def shapes(n):
    walk = np.cumsum(np.random.default_rng(n).standard_normal(n))
    ramp = np.arange(n, dtype=float)
    return {"up": ramp, "down": -ramp, "constant": np.full(n, 2.5), "walk": walk}


SIZES = (1, 2, 4096)
SHAPES = ("up", "down", "constant", "walk")


def guard_lam(n, clip):
    # ramps push a square-loss knot at every step and the final crossing one
    # more; a lambda above n*max(tau, 1 - tau) clips nothing, so every
    # distinct value stays a live quantile breakpoint: an unclipped "up"
    # ramp appends each one, taking the window of pairs to the end of its
    # region, and "down" prepends all but the first, taking it to pair 1
    return 0.75 if clip else 2.0 * n


@pytest.mark.parametrize("loss", LOSSES, ids=["square", "quantile"])
@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("clip", [True, False], ids=["clipped", "unclipped"])
def test_kernels_write_only_inside_their_buffers(loss, n, shape, clip):
    lib = _kernels.lib
    lam = guard_lam(n, clip)
    quantile = loss.kind != "square"
    tau = loss.tau if quantile else 0.0
    y, y_whole = guarded(n)
    y[:] = shapes(n)[shape]
    theta, theta_whole = guarded(n)
    work, work_whole = guarded(_work_size(n, quantile))
    state, state_whole = guarded(4 * n - 2)
    z, z_whole = guarded(n - 1)

    assert lib.gfl_path(y.ctypes.data, n, lam, quantile, tau,
                        theta.ctypes.data, work.ctypes.data) == 0
    resid = lib.gfl_kkt_bands(y.ctypes.data, theta.ctypes.data, n, quantile, tau,
                              lam, state.ctypes.data)
    lib.gfl_kkt_dual(state.ctypes.data, n, z.ctypes.data)

    for whole in (y_whole, theta_whole, work_whole, state_whole, z_whole):
        assert bands_intact(whole)
    problem = FusedLassoProblem(y=y.copy(), lam=lam, loss=loss)
    sol = solve(problem)
    assert theta.tobytes() == sol.theta_hat.tobytes()
    _, sol_z = check_kkt(problem, sol.theta_hat)
    assert resid == sol.kkt_residual and z.tobytes() == sol_z.tobytes()


DRIVER = Path(__file__).with_name("kernels_driver.c")
# the library's own compile command, building an executable
SANITIZE = (
    *(arg for arg in _kernels.COMMAND if arg not in ("-shared", "-fPIC")),
    "-g", "-fno-omit-frame-pointer", "-fsanitize=address,undefined", "-fno-sanitize-recover=all",
)


def test_kernels_run_clean_under_sanitizers(tmp_path):
    """gfl_path (both losses), gfl_kkt_bands and gfl_kkt_dual on the guard
    test's inputs, built with AddressSanitizer and UBSan into a driver that
    mallocs every buffer at exactly its documented size, so a read past a
    buffer is caught as well as a write; the results are the library's."""
    trivial = tmp_path / "trivial.c"
    trivial.write_text("int main(void) { return 0; }\n")
    probe = subprocess.run([*SANITIZE, "-o", str(tmp_path / "trivial"), str(trivial)],
                           capture_output=True, text=True, timeout=300)
    if probe.returncode != 0:
        pytest.skip(f"the compiler cannot build a sanitized program: {probe.stderr.strip()}")
    exe = tmp_path / "driver"
    build = subprocess.run([*SANITIZE, "-o", str(exe), str(DRIVER), str(_kernels.SOURCE), "-lm"],
                           capture_output=True, text=True, timeout=300)
    assert build.returncode == 0, build.stderr

    cases = [
        (loss, guard_lam(n, clip), shapes(n)[shape])
        for loss, n, shape, clip in itertools.product(LOSSES, SIZES, SHAPES, (True, False))
    ]
    with open(tmp_path / "cases", "wb") as fh:
        for loss, lam, y in cases:
            quantile = loss.kind != "square"
            fh.write(np.array([y.size, quantile, _work_size(y.size, quantile)], np.int64).tobytes())
            fh.write(np.array([lam, loss.tau if quantile else 0.0, *y]).tobytes())
    env = {**os.environ, "ASAN_OPTIONS": "detect_leaks=1:halt_on_error=1",
           "UBSAN_OPTIONS": "print_stacktrace=1:halt_on_error=1"}
    proc = subprocess.run([str(exe), "cases", "results"], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr

    # the library's results, computed only after the driver ran: a kernel
    # fault the driver reports could otherwise abort this process first
    want = []
    for loss, lam, y in cases:
        problem = FusedLassoProblem(y=y, lam=lam, loss=loss)
        sol = solve(problem)
        want += [sol.theta_hat, [sol.kkt_residual], check_kkt(problem, sol.theta_hat)[1]]
    assert (tmp_path / "results").read_bytes() == np.concatenate(want).tobytes()


def lil_chunk(x, env, r, h):
    """gfl_lil_chunk on guarded copies of x (r paths of h steps) and env:
    (path_max, grid, whether x and env came back unchanged, whether every
    guard band is intact)."""
    xg, x_whole = guarded(r * h)
    xg[:] = x.ravel()
    eg, env_whole = guarded(h)
    eg[:] = env
    g = h.bit_length()
    path_max, pm_whole = guarded(r)
    grid, grid_whole = guarded(r * g)
    _kernels.lib.gfl_lil_chunk(xg.ctypes.data, r, h, eg.ctypes.data,
                               path_max.ctypes.data, grid.ctypes.data)
    inputs_kept = xg.tobytes() == x.tobytes() and eg.tobytes() == env.tobytes()
    intact = all(map(bands_intact, (x_whole, env_whole, pm_whole, grid_whole)))
    return path_max, grid.reshape(r, g), inputs_kept, intact


def numpy_chunk(x, env):
    """The out-of-place numpy form of one chunk: each path's largest
    |S_t| / env(t) and its ratios at t = 1, 2, 4, ...."""
    ratio = np.abs(np.cumsum(x, axis=1)) / env
    return ratio.max(axis=1), ratio[:, 2 ** np.arange(x.shape[1].bit_length()) - 1]


@pytest.mark.parametrize("r", [1, 7, 64])
@pytest.mark.parametrize("h", [1, 2, 3, 1024, 1025])
def test_lil_chunk_writes_only_its_outputs(r, h):
    # the ratios are nonnegative, so an unwritten entry would still read -1.0
    x = np.random.default_rng(r * h).standard_normal((r, h)) * 2.5
    env = envelope(np.arange(1, h + 1), LilEnvelope(2.5, 0.1))
    path_max, grid, inputs_kept, intact = lil_chunk(x, env, r, h)
    assert inputs_kept and intact
    assert (path_max >= 0.0).all() and (grid >= 0.0).all()
    want_max, want_grid = numpy_chunk(x, env)
    assert path_max.tobytes() == want_max.tobytes() and grid.tobytes() == want_grid.tobytes()


def test_lil_chunk_maximum_propagates_nan_as_numpy_does():
    # path 1 sums inf and -inf, so its ratios are NaN from t = 2; path 2 ends
    # in a NaN step; path 3's last ratio is inf
    x = np.random.default_rng(0).standard_normal((4, 5))
    x[1, :2] = np.inf, -np.inf
    x[2, 4] = np.nan
    x[3, 4] = np.inf
    env = envelope(np.arange(1, 6), LilEnvelope(1.0, 0.1))
    path_max, grid, inputs_kept, intact = lil_chunk(x, env, 4, 5)
    assert inputs_kept and intact
    with np.errstate(invalid="ignore"):  # inf + -inf
        want_max, want_grid = numpy_chunk(x, env)
    assert np.isnan(want_max[1:3]).all() and want_max[3] == np.inf
    assert path_max.tobytes() == want_max.tobytes() and grid.tobytes() == want_grid.tobytes()

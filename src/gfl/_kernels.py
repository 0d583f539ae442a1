"""Build and load gfl's C kernels (``_kernels.c``): the solver's and the
iterated-logarithm check's.

The library is compiled with the C compiler Python was built with
(``sysconfig``'s ``CC``) into this package's ``__pycache__``, once per SHA-256
of the C source and the compile command; every later import loads the file
that is there.  A build is written to a temporary file and published with
``os.replace``, so a process that starts while another builds never loads a
half-written library; the build then deletes every other ``_kernels-*.so``
there (a process that has one loaded keeps it mapped).  If the compiler is
missing or fails, importing this module raises ``ImportError`` with the
command and the compiler's output.

Every array crosses as a raw pointer (``c_void_p``), which ``ctypes`` does
not check.  The callers in ``solver.py`` and ``lil.py`` pass ``.ctypes.data``
only of a problem's y, which ``FusedLassoProblem`` stores as a C-contiguous
float64 array, of arrays they have just made the same way (with
``np.asarray(..., dtype=np.float64, order="C")``) or allocated with
``np.empty``, and of C-contiguous rows of such an array, every output a
writable one; they size every array and hold a reference to each for the
length of the call.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shlex
import subprocess
import sysconfig
import tempfile
from pathlib import Path

SOURCE = Path(__file__).with_name("_kernels.c")
# -ffp-contract=off keeps every a*b + c two roundings, as in Python; with no
# -ffast-math and no -march the compiler may not reorder or fuse operations,
# so the kernels' bits are those of the reference loops in the tests.
COMMAND = (
    *shlex.split(sysconfig.get_config_var("CC") or "cc"),
    "-O2",
    "-fPIC",
    "-shared",
    "-ffp-contract=off",
)


def _build() -> Path:
    """The path of the compiled library, compiling it if it is not cached."""
    try:
        source = SOURCE.read_bytes()
    except OSError as exc:
        raise ImportError(f"cannot read the gfl C kernels: {exc}") from exc
    key = hashlib.sha256(source + b"\0" + shlex.join(COMMAND).encode()).hexdigest()
    path = SOURCE.parent / "__pycache__" / f"_kernels-{key[:16]}.so"
    if path.exists():
        return path
    try:
        path.parent.mkdir(exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".tmp-", suffix=".so")
        os.close(fd)
    except OSError as exc:
        raise ImportError(f"cannot build the gfl C kernels in {path.parent}: {exc}") from exc
    cmd = [*COMMAND, "-o", tmp, str(SOURCE)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode != 0:
            raise ImportError(
                f"cannot build the gfl C kernels: {shlex.join(cmd)} exited with status "
                f"{proc.returncode}:\n{proc.stderr.strip()}"
            )
        os.replace(tmp, path)
    except OSError as exc:
        raise ImportError(f"cannot build the gfl C kernels: {shlex.join(cmd)}: {exc}") from exc
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    for old in path.parent.glob("_kernels-*.so"):
        if old != path:
            try:
                old.unlink()
            except OSError:
                pass
    return path


lib = ctypes.CDLL(str(_build()))

_P = ctypes.c_void_p
_N = ctypes.c_ssize_t
_F = ctypes.c_double

lib.gfl_path.argtypes = (_P, _N, _F, ctypes.c_int, _F, _P, _P)
lib.gfl_path.restype = ctypes.c_int
lib.gfl_kkt_bands.argtypes = (_P, _P, _N, ctypes.c_int, _F, _F, _P)
lib.gfl_kkt_bands.restype = ctypes.c_double
lib.gfl_kkt_dual.argtypes = (_P, _N, _P)
lib.gfl_kkt_dual.restype = None
lib.gfl_lil_chunk.argtypes = (_P, _N, _N, _P, _P, _P)
lib.gfl_lil_chunk.restype = None

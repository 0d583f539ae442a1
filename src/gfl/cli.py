"""Command-line entry point: solve, bounds, lil, simulate.

Each command returns its config and its files, {file name: content}; ``main``
hashes the config and writes the files.  The producer each command calls
(``run_experiment``, ``bound_report``, ``verify_paths``) returns ``(summary,
tables)``: the fields of its JSON file and the columns of its CSVs, which
the command passes on as they come.  Exit codes: 0 success, 2
config/input error (an input too large to allocate included), 3
mathematical precondition failure.  All outputs are written atomically
(temp file + rename) and carry the package version and the config's hash in
their header.  The JSON files hold the bytes
``json.dumps(..., sort_keys=True, indent=2)`` writes, produced by json's C
encoder, except a ``Table`` (a row table of numpy columns), which is written
as its list of rows a column at a time, as its CSV is.  A command makes
every JSON text before it creates the output directory, so a refused
command writes no file; it then formats and writes each CSV
``_CSV_BLOCK_ROWS`` rows at a time, so no CSV's cells are held whole.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import itertools
import json
import os
import sys
from json.encoder import encode_basestring_ascii

import numpy as np

from . import __version__, solver
from . import bounds as bnd
from ._kernels import lib
from .errors import ConfigError, GflError, PreconditionError
from .lil import LilEnvelope, verify_paths
from .losses import NoiseModel, make_loss
from .signal import PiecewiseConstantSignal
from .simulate import ExperimentSpec, Table, hash_config, run_experiment
from .solver import FusedLassoProblem, solve


# CSV rows formatted, joined and written at once
_CSV_BLOCK_ROWS = 4096
# the C formatter for each dtype it writes; each cell takes at most 25
# bytes, its newline included
_REPR_KERNELS = {np.dtype(np.float64): lib.gfl_repr_double, np.dtype(np.int64): lib.gfl_repr_int64}
_REPR_WIDTH = 25


def _atomic_write(path: str, pieces) -> None:
    """Write the strings ``pieces`` to ``path``: into a temp file beside it,
    which then replaces ``path``."""
    tmp = os.path.join(os.path.dirname(path), f".tmp-{os.urandom(8).hex()}~")
    try:
        # mode 0o666 less the umask, as open(path, "w") creates a file
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with os.fdopen(fd, "w") as fh:
                fh.writelines(pieces)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


_CONTAINERS = (dict, list, tuple)


@functools.cache
def _c_encoder(item_separator: str):
    """json's C encoder, one per item separator, so one per nesting level."""
    return json.JSONEncoder(
        sort_keys=True, allow_nan=False, separators=(item_separator, ": ")
    ).encode


def _flat(values) -> bool:
    """Whether ``values`` hold no non-empty dict, list or tuple, and no Table."""
    if not any(issubclass(t, _CONTAINERS) for t in set(map(type, values))):
        return True
    return not any(v or isinstance(v, Table) for v in values if isinstance(v, _CONTAINERS))


def _key(k) -> str:
    """A dict key as json writes it: str, or int, float, bool or None as a string."""
    if isinstance(k, str):
        return encode_basestring_ascii(k)
    if k is None or isinstance(k, (int, float)):
        return '"' + _c_encoder(",")(k) + '"'
    raise TypeError(f"keys must be str, int, float, bool or None, not {k.__class__.__name__}")


_TABLE_DTYPES = (np.dtype(np.int64), np.dtype(np.float64))


def _table(table: Table, level: int) -> str:
    """``table`` as json writes its rows: a list of objects with sorted keys,
    ``[]`` for no rows.  json writes each number as ``repr``, so a column is
    one ``_cells`` call, as a CSV's block of it is, and one ``%`` template
    lays out every row.  A non-finite float raises json's ``ValueError``."""
    keys = sorted(table)
    cols = [np.asarray(table[k]) for k in keys]
    if any(a.dtype not in _TABLE_DTYPES for a in cols) or len({a.shape for a in cols}) > 1:
        raise TypeError("a Table's columns must be int64 or float64 arrays of one length")
    for a in cols:
        if a.dtype.kind == "f" and not np.isfinite(a).all():
            _c_encoder(",")(float(a[~np.isfinite(a)][0]))  # raises json's ValueError
    if not cols or not cols[0].size:
        return "[]"
    cells = [_cells(a) for a in cols]
    row_indent, field_indent = "\n" + "  " * (level + 1), "\n" + "  " * (level + 2)
    fields = [encode_basestring_ascii(k).replace("%", "%%") + ": %s" for k in keys]
    template = "{" + field_indent + ("," + field_indent).join(fields) + row_indent + "}"
    body = ("," + row_indent).join(map(template.__mod__, zip(*cells)))
    return "[" + row_indent + body + "\n" + "  " * level + "]"


def _dumps(obj, level: int = 0) -> str:
    """``json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)``, byte for byte.

    With ``indent`` set, json runs its pure-Python encoder, one generator step
    per element.  Here json's C encoder does the work: a container with no
    non-empty container inside is one call whose item separator carries the
    newline and indent of its level, a Table is written a column at a time
    (``_table``), and only what remains recurses here, a container at a
    time.
    """
    if isinstance(obj, Table):
        return _table(obj, level)
    if not isinstance(obj, _CONTAINERS) or not obj:
        return _c_encoder(",")(obj)
    values = obj.values() if isinstance(obj, dict) else obj
    indent = "\n" + "  " * (level + 1)
    close = "\n" + "  " * level
    if _flat(values):
        text = _c_encoder("," + indent)(obj)
        return text[0] + indent + text[1:-1] + close + text[-1]
    if isinstance(obj, dict):
        parts = [f"{_key(k)}: {_dumps(v, level + 1)}" for k, v in sorted(obj.items())]
        return "{" + indent + ("," + indent).join(parts) + close + "}"
    items = (_dumps(v, level + 1) for v in obj)
    return "[" + indent + ("," + indent).join(items) + close + "]"


def _json_text(path: str, payload: dict, config_hash: str) -> str:
    """The text of the JSON file ``path``: the header fields, then ``payload``."""
    payload = {"version": __version__, "config_hash": config_hash} | payload
    try:
        return _dumps(payload) + "\n"
    except ValueError as exc:  # NaN or an infinity, which JSON cannot hold
        raise GflError(f"not writing {path}: {exc}") from exc


def _cells(values) -> list:
    """A CSV column's cells: an int or float as ``repr`` writes the Python
    number, a bool as 0/1, None as an empty cell.  A bool column is written
    as int64; a float64 or int64 column is one call of the C formatter
    (``_kernels.c``), whose cells are ``repr``'s byte for byte, and ``repr``
    fills each cell it leaves empty (a subnormal, an infinity, a NaN, or a
    float outside [2^-32, 2^151)).  A column holding None, or of any other
    dtype, is ``repr``'d value by value."""
    a = np.asarray(values)
    if a.dtype == bool:
        a = a.astype(np.int64)
    kernel = _REPR_KERNELS.get(a.dtype)
    if kernel is None:  # tolist hands out Python numbers, not numpy scalars
        return ["" if v is None else repr(v) for v in a.tolist()]
    buf = ctypes.create_string_buffer(_REPR_WIDTH * a.size)
    # ctypes passes bytes as a pointer to their data
    text = str(memoryview(buf)[: kernel(a.tobytes(), a.size, buf)], "ascii")
    cells = text.split("\n")
    cells.pop()  # after the last cell's newline
    if text.startswith("\n") or "\n\n" in text:
        cells = [c or repr(v) for c, v in zip(cells, a.tolist())]
    return cells


def _csv_blocks(table: dict, config_hash: str):
    """``table``, {column name: values}, as CSV text in pieces: the header,
    then the rows ``_CSV_BLOCK_ROWS`` at a time; a column shorter than the
    others ends in empty cells.  Each block's cells are formatted as the
    block is taken, so no column's cells are held whole."""
    yield f"# version={__version__} config_hash={config_hash}\n" + ",".join(table) + "\n"
    columns = [np.asarray(v) for v in table.values()]
    rows = max((len(a) for a in columns), default=0)
    for start in range(0, rows, _CSV_BLOCK_ROWS):
        cells = [_cells(a[start : start + _CSV_BLOCK_ROWS]) for a in columns]
        lines = map(",".join, itertools.zip_longest(*cells, fillvalue=""))
        # the "" after the block's last row ends that row in a newline
        yield "\n".join([*lines, ""])


def _write_outputs(out_dir: str, files: dict, config_hash: str) -> None:
    """Write ``files``, {file name: content}, into ``out_dir`` in their order:
    a ``.json`` name through ``_json_text``, any other as a CSV table
    (``_csv_blocks``).  Every JSON text is made before the directory is
    made or a file written, so a value JSON cannot hold leaves nothing
    behind.  A CSV cell cannot fail to format (each value is an int, a
    float, a bool or None), so a CSV is formatted as it is written,
    ``_CSV_BLOCK_ROWS`` rows at a time."""
    pieces = {}
    for name, content in files.items():
        path = os.path.join(out_dir, name)
        if name.endswith(".json"):
            pieces[path] = [_json_text(path, content, config_hash)]
        else:
            pieces[path] = _csv_blocks(content, config_hash)
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out_dir}: {exc}") from exc
    for path, file_pieces in pieces.items():
        _atomic_write(path, file_pieces)


def _strict(convert):
    """``convert`` (float or int) refusing ``_`` and non-ASCII text, which
    Python's own parsers read as digit separators and Unicode digits."""

    def parse(text: str):
        if "_" in text or not text.isascii():
            raise ValueError(f"not a plain ASCII number: {text!r}")
        return convert(text)

    parse.__name__ = convert.__name__  # argparse's "invalid float value"
    return parse


_float, _int = _strict(float), _strict(int)


def _read_values(path: str) -> np.ndarray:
    # one decimal value per line, no header.  Lines end only at a newline:
    # str.splitlines would also split at \x0c, \x1c, \u2028 and others, and
    # so accept a line such as "1\x0c2" as two values.  The text is searched
    # once for "_" and non-ASCII characters, which _float refuses.
    try:
        with open(path) as fh:
            text = fh.read()
        if "_" in text or not text.isascii():
            bad = next(line for line in text.split("\n") if "_" in line or not line.isascii())
            _float(bad)  # raises, naming the line
        vals = list(map(float, filter(None, map(str.strip, text.split("\n")))))
    except OSError as exc:
        raise ConfigError(f"cannot read input file {path}: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"non-numeric line in {path}: {exc}") from exc
    if not vals:
        raise ConfigError(f"input file {path} is empty")
    return np.asarray(vals)


def _cmd_solve(args):
    y = _read_values(args.input)
    loss = make_loss(args.loss, args.tau)
    cfg = {"cmd": "solve", "lambda": args.lam, "loss": args.loss, "tau": args.tau, "n": y.size}
    problem = FusedLassoProblem(y=y, lam=args.lam, loss=loss)
    sol = solve(problem)
    _, z = solver.check_kkt(problem, sol.theta_hat)
    # z has one value per edge, so the last row's z cell is empty
    table = {"i": np.arange(1, y.size + 1), "y": y, "theta_hat": sol.theta_hat, "z": z}
    payload = {
        "objective": solver.objective(y, args.lam, loss, sol.theta_hat),
        "kkt_residual": sol.kkt_residual,
        "lambda": args.lam,
        "loss": args.loss,
        "tau": args.tau,
        "n": y.size,
    }
    return cfg, {"solution.csv": table, "solution.json": payload}


def _parse_signal(args) -> PiecewiseConstantSignal:
    try:
        values = [_float(v) for v in args.signal_values.split(",")]
        lengths = [_int(v) for v in args.signal_lengths.split(",")]
    except ValueError as exc:
        raise ConfigError(f"bad signal specification: {exc}") from exc
    signal = PiecewiseConstantSignal(values, lengths)
    bnd._check_count("the sum of --signal-lengths", signal.n)
    return signal


def _cmd_bounds(args):
    signal = _parse_signal(args)
    geom = signal.geometry()
    params = bnd.BoundParams(
        sigma=args.sigma, delta=args.delta, lam=args.lam, growth_L=args.growth_L
    )
    cfg = {
        "cmd": "bounds",
        "signal": signal.to_record(),
        "sigma": args.sigma,
        "delta": args.delta,
        "lambda": args.lam,
        "growth_L": args.growth_L,
    }
    summary, columns = bnd.bound_report(geom, params)
    table = {"i": np.arange(1, geom.n + 1), "k": geom.k_of, "d": geom.d} | columns
    B_range = {"B_max": float(columns["B"].max()), "B_min": float(columns["B"].min())}
    payload = {"inputs": cfg, "n": geom.n, "K": geom.K} | B_range | summary
    return cfg, {"bounds.csv": table, "bounds.json": payload}


def _cmd_lil(args):
    env = LilEnvelope(sigma=args.sigma, delta=args.delta)
    noise = NoiseModel(kind="gaussian", scale=args.sigma)
    cfg = {
        "cmd": "lil",
        "sigma": args.sigma,
        "delta": args.delta,
        "horizon": args.horizon,
        "paths": args.paths,
        "seed": args.seed,
    }
    summary, table = verify_paths(noise, args.horizon, args.paths, env, seed=args.seed)
    return cfg, {"lil.csv": table, "lil.json": {"inputs": cfg} | summary}


def _refuse_constant(name: str):
    """json's hook for NaN, Infinity and -Infinity, which JSON does not hold."""
    raise ConfigError(f"config holds {name}, which is not a JSON value")


def _cmd_simulate(args):
    try:
        with open(args.config) as fh:
            cfg = json.load(fh, parse_constant=_refuse_constant)
    except OSError as exc:
        raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
    except ValueError as exc:  # a JSONDecodeError, or an integer of too many digits
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if args.seed is not None:
        if not isinstance(cfg, dict):
            raise ConfigError("config must be a JSON object")
        cfg["seed"] = args.seed
    spec = ExperimentSpec.from_config(cfg)
    summary, tables = run_experiment(spec)
    return spec.to_config(), {"summary.json": summary} | tables


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="gfl", description=__doc__)
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("solve", help="fit the fused-lasso estimator to a CSV of values")
    ps.add_argument("--input", required=True, help="CSV, one value per line")
    ps.add_argument("--lambda", dest="lam", type=_float, required=True)
    ps.add_argument("--loss", choices=("square", "quantile"), default="square")
    ps.add_argument("--tau", type=_float, default=None)
    ps.add_argument("--out-dir", default="out")
    ps.set_defaults(func=_cmd_solve)

    pb = sub.add_parser("bounds", help="evaluate the per-index error bounds for a signal")
    pb.add_argument("--signal-values", required=True, help="comma-separated segment values")
    pb.add_argument("--signal-lengths", required=True, help="comma-separated segment lengths")
    pb.add_argument("--sigma", type=_float, default=0.5)
    pb.add_argument("--delta", type=_float, required=True)
    pb.add_argument("--lambda", dest="lam", type=_float, required=True)
    pb.add_argument("--growth-L", dest="growth_L", type=_float, default=None)
    pb.add_argument("--out-dir", default="out")
    pb.set_defaults(func=_cmd_bounds)

    pl = sub.add_parser("lil", help="Monte Carlo check of the iterated-logarithm envelope")
    pl.add_argument("--sigma", type=_float, default=1.0)
    pl.add_argument("--delta", type=_float, required=True)
    pl.add_argument("--horizon", type=_int, default=10_000)
    pl.add_argument("--paths", type=_int, default=10_000)
    pl.add_argument("--seed", type=_int, required=True)
    pl.add_argument("--out-dir", default="out")
    pl.set_defaults(func=_cmd_lil)

    pm = sub.add_parser("simulate", help="run a configured experiment")
    pm.add_argument("--config", required=True, help="JSON experiment config")
    pm.add_argument("--seed", type=_int, default=None, help="override the config seed")
    pm.add_argument("--out-dir", default="out")
    pm.set_defaults(func=_cmd_simulate)
    return p


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` uses, built once per process: parsing leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg, files = args.func(args)
        _write_outputs(args.out_dir, files, hash_config(cfg))
        return 0
    except PreconditionError as exc:
        print(f"precondition failed: {exc}", file=sys.stderr)
        return 3
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except GflError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # numpy's message names the array's size
        print(f"error: out of memory: {str(exc) or 'allocation failed'}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

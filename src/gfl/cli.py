"""Command-line entry point: solve, bounds, lil, simulate.

Exit codes: 0 success, 2 config/input error (an input too large to
allocate included), 3 mathematical precondition failure.  All outputs are
written atomically (temp file + rename) and carry the package version and a
config hash in their header.  The JSON files hold the bytes
``json.dumps(..., sort_keys=True, indent=2)`` writes, produced by json's C
encoder.  A command makes every JSON text and every CSV cell before it
creates the output directory, so a refused command writes no file; it then
writes CSV rows ``_CSV_BLOCK_ROWS`` at a time, so no CSV file's text is held
whole.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import sys
from json.encoder import encode_basestring_ascii
from operator import itemgetter

import numpy as np

from . import __version__, solver
from . import bounds as bnd
from .errors import ConfigError, GflError, PreconditionError
from .lil import LilEnvelope, verify_paths
from .losses import NoiseModel, make_loss
from .signal import PiecewiseConstantSignal
from .simulate import ExperimentSpec, hash_config, run_experiment
from .solver import FusedLassoProblem, solve


# CSV rows joined and written at once
_CSV_BLOCK_ROWS = 4096


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
    """Whether ``values`` hold no non-empty dict, list or tuple."""
    if not any(issubclass(t, _CONTAINERS) for t in set(map(type, values))):
        return True
    return not any(v for v in values if isinstance(v, _CONTAINERS))


def _key(k) -> str:
    """A dict key as json writes it: str, or int, float, bool or None as a string."""
    if isinstance(k, str):
        return encode_basestring_ascii(k)
    if k is None or isinstance(k, (int, float)):
        return '"' + _c_encoder(",")(k) + '"'
    raise TypeError(f"keys must be str, int, float, bool or None, not {k.__class__.__name__}")


def _numbers(col) -> np.ndarray | None:
    """``col`` as a float64 array if its cells are all exactly ``float`` and
    finite, or as an int64 array if they are all exactly ``int`` within int64;
    None for any other column."""
    types = set(map(type, col))
    if types == {float}:
        a = np.array(col, dtype=np.float64)
        return a if np.isfinite(a).all() else None
    if types == {int}:
        try:
            return np.array(col, dtype=np.int64)
        except OverflowError:
            return None
    return None


def _table(rows, level: int, memo: dict | None = None) -> str | None:
    """``rows`` encoded a column at a time, if they are non-empty dicts
    (plain ``dict``s) sharing one set of str keys and every column is a
    number column, of finite floats or of int64-range ints; None otherwise.

    json writes each number cell as ``repr``, so ``_cells`` formats a
    column's distinct values once each, and ``memo`` hands its cells to a
    CSV of the same column.  One ``%`` template lays out every row.
    """
    if set(map(type, rows)) != {dict} or len(set(map(len, rows))) != 1:
        return None
    if not rows[0] or not all(isinstance(k, str) for k in rows[0]):
        return None
    keys = sorted(rows[0])
    try:
        cols = [list(map(itemgetter(k), rows)) for k in keys]
    except KeyError:  # rows of one size share their keys unless one is missing
        return None
    numbers = list(map(_numbers, cols))
    if any(a is None for a in numbers):
        return None
    cells = [_cells(a, memo) for a in numbers]
    row_indent, field_indent = "\n" + "  " * (level + 1), "\n" + "  " * (level + 2)
    fields = [encode_basestring_ascii(k).replace("%", "%%") + ": %s" for k in keys]
    template = "{" + field_indent + ("," + field_indent).join(fields) + row_indent + "}"
    body = ("," + row_indent).join(map(template.__mod__, zip(*cells)))
    return "[" + row_indent + body + "\n" + "  " * level + "]"


def _dumps(obj, level: int = 0, memo: dict | None = None) -> str:
    """``json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)``, byte for byte.

    With ``indent`` set, json runs its pure-Python encoder, one generator step
    per element.  Here json's C encoder does the work: a container with no
    non-empty container inside is one call whose item separator carries the
    newline and indent of its level, a table (``_table``) is one ``repr`` per
    distinct number, and only what remains recurses here, a container at a
    time.  ``memo`` is ``_cells``'.
    """
    if not isinstance(obj, _CONTAINERS) or not obj:
        return _c_encoder(",")(obj)
    values = obj.values() if isinstance(obj, dict) else obj
    indent = "\n" + "  " * (level + 1)
    close = "\n" + "  " * level
    if _flat(values):
        text = _c_encoder("," + indent)(obj)
        return text[0] + indent + text[1:-1] + close + text[-1]
    if isinstance(obj, dict):
        parts = [f"{_key(k)}: {_dumps(v, level + 1, memo)}" for k, v in sorted(obj.items())]
        return "{" + indent + ("," + indent).join(parts) + close + "}"
    table = _table(obj, level, memo)
    if table is not None:
        return table
    items = (_dumps(v, level + 1, memo) for v in obj)
    return "[" + indent + ("," + indent).join(items) + close + "]"


def _json_text(path: str, payload: dict, config_hash: str, memo: dict | None = None) -> str:
    """The text of the JSON file ``path``: the header fields, then ``payload``."""
    payload = {"version": __version__, "config_hash": config_hash} | payload
    try:
        return _dumps(payload, memo=memo) + "\n"
    except ValueError as exc:  # NaN or an infinity, which JSON cannot hold
        raise GflError(f"not writing {path}: {exc}") from exc


def _cells(values, memo: dict | None = None):
    """A CSV column's cells: an int or float as ``repr`` writes the Python
    number, a bool as 0/1, None as an empty cell.  A numeric column formats
    each distinct value once: the values are keyed by their bits, so -0.0
    and 0.0 (and NaNs of different payloads) stay apart.  ``memo``, if
    given, maps a numeric column's dtype and bytes to its cells, so a column
    that two files write (a JSON row table and its CSV) is formatted once;
    an int and a float column of the same bytes have different keys, as 1
    and 1.0 have different cells."""
    a = np.asarray(values)
    if a.dtype == bool:
        a = a.view(np.uint8)
    if a.dtype == object:  # a column holding None
        return ["" if v is None else repr(v) for v in a.tolist()]
    if memo is not None:
        key = (a.dtype.str, a.tobytes())
        if key not in memo:
            memo[key] = _cells(a)
        return memo[key]
    a = np.ascontiguousarray(a)
    uniq, at = np.unique(a.view(f"u{a.itemsize}"), return_inverse=True)
    # a memoryview hands out Python numbers, not numpy scalars
    cells = np.array(list(map(repr, memoryview(uniq.view(a.dtype)))), dtype=object)
    return cells[at].tolist()


def _csv_blocks(table: dict, config_hash: str, memo: dict | None = None):
    """``table``, {column name: values}, as CSV text in pieces: the header,
    then the rows ``_CSV_BLOCK_ROWS`` at a time; a column shorter than the
    others ends in empty cells.  Every cell is formatted here, before the
    first piece is taken.  ``memo`` is ``_cells``'."""
    columns = [_cells(v, memo) for v in table.values()]
    header = f"# version={__version__} config_hash={config_hash}\n" + ",".join(table) + "\n"
    rows = map(",".join, itertools.zip_longest(*columns, fillvalue=""))
    blocks = iter(lambda: list(itertools.islice(rows, _CSV_BLOCK_ROWS)), [])
    # the "" after a block's last row ends that row in a newline
    return itertools.chain([header], ("\n".join([*block, ""]) for block in blocks))


def _write_outputs(out_dir: str, files: dict, config_hash: str) -> None:
    """Write ``files``, {file name: content}, into ``out_dir`` in their order:
    a ``.json`` name through ``_json_text``, any other as a CSV table
    (``_csv_blocks``).  Every JSON text and every CSV cell is made before
    the directory is made or a file written, so a file that cannot be
    encoded leaves nothing behind; a CSV's rows are then joined and written
    ``_CSV_BLOCK_ROWS`` at a time.  A JSON file's tables put their number
    columns in a memo, in which a later CSV looks its columns up, so a
    table that ``summary.json`` and a CSV both hold is formatted once; with
    no such table, no CSV column is keyed."""
    pieces, memo = {}, {}
    for name, content in files.items():
        path = os.path.join(out_dir, name)
        if name.endswith(".json"):
            pieces[path] = [_json_text(path, content, config_hash, memo)]
        else:
            pieces[path] = _csv_blocks(content, config_hash, memo or None)
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


def _cmd_solve(args) -> int:
    y = _read_values(args.input)
    loss = make_loss(args.loss, args.tau)
    cfg_hash = hash_config(
        {"cmd": "solve", "lambda": args.lam, "loss": args.loss, "tau": args.tau, "n": int(y.size)}
    )
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
        "n": int(y.size),
    }
    _write_outputs(args.out_dir, {"solution.csv": table, "solution.json": payload}, cfg_hash)
    return 0


def _parse_signal(args) -> PiecewiseConstantSignal:
    try:
        values = [_float(v) for v in args.signal_values.split(",")]
        lengths = [_int(v) for v in args.signal_lengths.split(",")]
    except ValueError as exc:
        raise ConfigError(f"bad signal specification: {exc}") from exc
    signal = PiecewiseConstantSignal(values, lengths)
    bnd._check_count("the sum of --signal-lengths", signal.n)
    return signal


def _cmd_bounds(args) -> int:
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
    cfg_hash = hash_config(cfg)
    report = bnd.bound_report(geom, params)
    table = {
        "i": np.arange(1, geom.n + 1),
        "k": geom.k_of,
        "d": geom.d,
        "B": report.B,
        "B_improved": report.B_improved,
        "B_quantile": report.B_quantile,
        "applicable": report.applicable,
    }
    payload = {
        "inputs": cfg,
        "n": geom.n,
        "K": geom.K,
        "signal_admissible": report.signal_admissible,
        "pointwise_probability": report.pointwise_probability,
        "pointwise_probability_raw": report.pointwise_probability_raw,
        "B_max": float(report.B.max()),
        "B_min": float(report.B.min()),
    }
    _write_outputs(args.out_dir, {"bounds.csv": table, "bounds.json": payload}, cfg_hash)
    return 0


def _cmd_lil(args) -> int:
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
    cfg_hash = hash_config(cfg)
    res = verify_paths(noise, args.horizon, args.paths, env, seed=args.seed)
    table = res.pop("ratio_quantiles")
    _write_outputs(args.out_dir, {"lil.csv": table, "lil.json": {"inputs": cfg} | res}, cfg_hash)
    return 0


def _columns(rows) -> dict:
    """Rows, dicts sharing their keys, as {column name: values}; {} for no rows."""
    return {c: list(map(itemgetter(c), rows)) for c in rows[0]} if rows else {}


# The CSV tables of each experiment's result, {file name: table}; an empty
# table is not written.
_EXPERIMENT_CSVS = {
    "pointwise": lambda r: {"per_index.csv": _columns(r["per_index"])},
    "elementwise_quantile": lambda r: {"per_index.csv": _columns(r["per_index"])},
    "sse": lambda r: {
        "sse.csv": {"replication": np.arange(len(r["sse_samples"])), "sse": r["sse_samples"]}
    },
    "rate_sweep": lambda r: {
        "plotdata_d_sweep.csv": (
            {c: r["d_sweep"][c] for c in ("d", "median_err")} if "d_sweep" in r else {}
        ),
        "plotdata_n_sweep.csv": _columns(r.get("n_sweep", {}).get("rows")),
    },
    "lambda_sweep": lambda r: {
        "plotdata_lambda_sweep.csv": {
            "lambda": r["lambda_grid"], "mean_sse": r["mean_sse"], "bound": r["bound"]
        }
    },
}


def _refuse_constant(name: str):
    """json's hook for NaN, Infinity and -Infinity, which JSON does not hold."""
    raise ConfigError(f"config holds {name}, which is not a JSON value")


def _cmd_simulate(args) -> int:
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
    result = run_experiment(spec)
    tables = _EXPERIMENT_CSVS[result["experiment"]](result)
    files = {"summary.json": result} | {name: t for name, t in tables.items() if t}
    _write_outputs(args.out_dir, files, spec.config_hash())
    return 0


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
        return args.func(args)
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

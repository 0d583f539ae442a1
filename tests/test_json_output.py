"""The files gfl writes: the JSON encoder behind them and their bytes.

``gfl.cli._dumps`` must give the bytes of
``json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)``, which stays
here as the oracle.  The ``summary.json`` of one small config per
experiment, and every file of small ``simulate``, ``solve``, ``bounds`` and
``lil`` runs, are pinned by their SHA-256.  The CSV writer, which formats
each distinct value of a column once, must give the cells of the
documented rule applied one cell at a time.
"""

import hashlib
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gfl import __version__
from gfl.bounds import BoundParams, bound_report
from gfl.cli import _CSV_BLOCK_ROWS, _csv_blocks, _dumps, _json_text, _write_outputs, main
from gfl.losses import make_loss
from gfl.signal import PiecewiseConstantSignal
from gfl.solver import FusedLassoProblem, check_kkt, solve


def oracle(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)


# -- property test -----------------------------------------------------------

_text = st.text(
    st.characters(codec="utf-8", exclude_categories=["Cs"])
    | st.sampled_from('%"\\\x00\x1f\x7f/é☃😀'),
    max_size=6,
)
_floats = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 0.0, 5e-324, 2.2250738585072014e-308, 1e308, -1e308, 1e16, 0.1]
)
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(2**200), max_value=2**200),
    _floats,
    _floats.map(np.float64),
    _text,
)
_empty = st.sampled_from([[], {}, ()])
# dict keys as json takes them: str, and int, float, bool or None converted
_keys = _text | st.integers() | _floats | _floats.map(np.float64) | st.booleans() | st.none()


def _rows(cell):
    """Lists of dicts: a shared key set (a table) or one drawn per row."""
    keys = st.lists(_text, min_size=1, max_size=4, unique=True)
    shared = keys.flatmap(
        lambda ks: st.lists(st.fixed_dictionaries({k: cell for k in ks}), min_size=1, max_size=5)
    )
    mixed = st.lists(st.dictionaries(_text, cell, max_size=4), min_size=1, max_size=5)
    return shared | mixed


def _nested(children):
    return (
        st.lists(children, max_size=5)
        | st.lists(children, max_size=5).map(tuple)
        | st.dictionaries(_text, children, max_size=5)
        | _rows(children)
    )


_values = st.recursive(_scalars | _empty, _nested, max_leaves=20)


@settings(max_examples=150, deadline=None)
@given(_values)
def test_dumps_matches_json_dumps(obj):
    assert _dumps(obj) == oracle(obj)


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(_keys, _scalars | _empty, max_size=6))
def test_dumps_converts_keys_as_json_does(obj):
    deep = {k: {"v": [v]} for k, v in obj.items()}  # not flat: keys converted here
    for o in (obj, deep, [obj, [1]]):
        try:
            want = oracle(o)
        except TypeError:  # keys of mixed types do not sort
            with pytest.raises(TypeError):
                _dumps(o)
        else:
            assert _dumps(o) == want


@settings(max_examples=120, deadline=None)
@given(_rows(_scalars | _empty | _nested(_scalars)), st.integers(0, 3))
def test_tables_at_any_depth(rows, depth):
    obj = rows
    for _ in range(depth):
        obj = {"t": obj, "n": [1, [2]]}
    assert _dumps(obj) == oracle(obj)


def test_table_with_percent_and_control_keys():
    rows = [{"%s": i, 'a"b': -0.0, "\x00": None, "é%%": [], "c": {}} for i in range(3)]
    assert _dumps(rows) == oracle(rows)
    assert _dumps({"per_index": rows}) == oracle({"per_index": rows})


@pytest.mark.parametrize(
    "rows",
    [
        [{"a": 1, "b": 2}, {"a": 3, "c": 4}],  # one size, other keys
        [{"a": 1}, {"a": 2, "b": 3}],
        [{"a": 1}, {"a": [2]}],  # a cell that is not flat
        [{"a": 1}, [1, 2]],
        [{}, {}],
        [{1: 2}, {1: 3}],
    ],
)
def test_lists_that_are_not_tables(rows):
    assert _dumps(rows) == oracle(rows)


@pytest.mark.parametrize(
    "bad", [math.nan, math.inf, -math.inf, np.float64("nan")], ids=["nan", "inf", "-inf", "np"]
)
def test_non_finite_raises_everywhere(bad):
    for obj in (bad, [bad], {"a": [1, bad]}, [{"a": 1}, {"a": bad}], {bad: 1}, {"x": {bad: [1]}}):
        with pytest.raises(ValueError):
            oracle(obj)
        with pytest.raises(ValueError):
            _dumps(obj)


def test_unencodable_raises_type_error():
    for obj in ([np.int64(3)], {"a": [1, {"b": object()}]}, [{"a": 1}, {"a": {1, 2}}]):
        with pytest.raises(TypeError):
            _dumps(obj)


def _repeats_table(rows: int = 1200) -> list:
    """A table of ``rows`` rows with few distinct values per column: the
    float and int64 columns are formatted once per distinct value, the rest
    by the C encoder."""
    return [
        {
            "zeros": -0.0 if r % 2 else 0.0,
            "floats": (0.1, 1e16, 5e-324, -2.5, 1e308)[r % 5],
            "ints": (r % 7) - 3,
            "int64": (-(2**63), 2**63 - 1, 0)[r % 3],
            # the bits of 1.0 as an int: number columns are keyed by type and bits
            "bits_of_one": 4607182418800017408,
            "one": 1.0,
            "mixed": 1 if r % 3 else 1.0,
            "beyond_int64": 2**63 if r % 2 else -(2**63) - 1,
            "flag": r % 4 == 1,
            "none": None if r % 3 else 0.5,
            "np": np.float64(r % 3),
        }
        for r in range(rows)
    ]


def _assert_same(got: str, want: str) -> None:
    """``got == want``, failing with the first difference: pytest's own diff
    of two texts this long takes minutes."""
    if got != want:
        pairs = enumerate(zip(got, want))
        at = next((i for i, (a, b) in pairs if a != b), min(len(got), len(want)))
        pytest.fail(f"texts differ at {at}: {got[at - 60:at + 60]!r} != {want[at - 60:at + 60]!r}")


def test_tables_with_repeats_match_json_dumps():
    rows = _repeats_table()
    _assert_same(_dumps(rows), oracle(rows))
    # through a memo, which keys a column by its dtype and bits
    _assert_same(_dumps(rows, memo={}), oracle(rows))
    _assert_same(_dumps({"per_index": rows, "n": 1}), oracle({"per_index": rows, "n": 1}))


@pytest.mark.parametrize(
    "column, bad, error",
    [
        ("floats", math.nan, ValueError),
        ("floats", math.inf, ValueError),
        ("zeros", -math.inf, ValueError),
        ("ints", np.int64(3), TypeError),
        ("int64", np.int64(3), TypeError),
    ],
    ids=["nan", "inf", "-inf", "np.int64", "np.int64-at-edges"],
)
def test_tables_with_repeats_still_refuse(column, bad, error):
    rows = _repeats_table()
    rows[900][column] = bad
    with pytest.raises(error):
        oracle(rows)
    with pytest.raises(error):
        _dumps({"per_index": rows})


def test_a_table_in_json_and_csv_is_written_as_each_alone(tmp_path):
    """``_write_outputs`` formats a table that both files hold once; each
    file keeps the bytes it has when encoded on its own."""
    rows = _repeats_table(60)
    table = {c: [r[c] for r in rows] for c in rows[0]}
    files = {"summary.json": {"per_index": rows}, "per_index.csv": table}
    _write_outputs(str(tmp_path), files, "h")
    alone = _json_text("x", {"per_index": rows}, "h")
    _assert_same((tmp_path / "summary.json").read_text(), alone)
    _assert_same((tmp_path / "per_index.csv").read_text(), "".join(_csv_blocks(table, "h")))


# -- pinned summary.json bytes -----------------------------------------------

_BASE = {
    "signal": {"values": [0.0, 2.0], "lengths": [16, 16]},
    "noise": {"kind": "gaussian", "scale": 1.0},
    "loss": {"kind": "square"},
    "lambda": {"rule": "sqrt_n_over_k"},
    "delta": 0.05,
    "replications": 10,
    "seed": 11,
}

# one small config per experiment; the digests were recorded with
# json.dumps(..., indent=2), before summary.json went through _dumps
_PINNED = {
    "pointwise": (
        {"experiment": "pointwise", "monitor": "all"},
        "0c7d285e26fbcdc0eeaeebfcecad8ccd711af6014b3a4cc329033af14413ede6",
    ),
    "elementwise_quantile": (
        {
            "experiment": "elementwise_quantile",
            "signal": {"values": [0.0, 2.0], "lengths": [256, 256]},
            "noise": {"kind": "uniform", "scale": 1.0, "center_tau": 0.5},
            "loss": {"kind": "quantile", "tau": 0.5},
            "lambda": {"rule": "fixed", "value": 20.0},
            "growth_L": 1.2,
            "monitor": "all",
        },
        "9fb7d7f95d928a7eb76726459ef6163183bf44d6f840149ad42b1b14662eb7ea",
    ),
    "sse": (
        {
            "experiment": "sse",
            "signal": {"values": [0.0, 1.0, 0.0], "lengths": [32, 32, 32]},
            "delta": 1e-3,
        },
        "717b1ec945fda9a350c5fde9eb6734856d944a3f6cb2d4b0b55b218d9cbba922",
    ),
    "rate_sweep": (
        {"experiment": "rate_sweep", "d_grid": [2, 4, 8], "n_sweep": [64, 128]},
        "9c080d6886d6bcca6e25ba6b22f7d18ab356e4d647f11db14577b9f36fdd1b34",
    ),
    "lambda_sweep": (
        {
            "experiment": "lambda_sweep",
            "signal": {"values": [0.0, 1.0, 0.0, 1.0], "lengths": [16] * 4},
            "delta": 1e-3,
            "replications": 5,
        },
        "6025a471143948aa8072792dd959684b287fb8a11ba105dd6c91cd0b9fa833c2",
    ),
}


@pytest.mark.parametrize("name", sorted(_PINNED))
def test_summary_json_bytes_pinned(tmp_path, name):
    over, digest = _PINNED[name]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(_BASE | over))
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(path), "--out-dir", str(out)]) == 0
    data = (out / "summary.json").read_bytes()
    assert data.decode() == oracle(json.loads(data)) + "\n"
    assert hashlib.sha256(data).hexdigest() == digest


# -- pinned bytes of every output file -----------------------------------------

# the _PINNED configs, and a quantile lambda sweep whose bound preconditions
# fail at 4 and 128: a CSV with empty bound cells
_CONFIGS = {name: over for name, (over, _) in _PINNED.items()}
_CONFIGS["lambda_sweep_null_bound"] = {
    "experiment": "lambda_sweep",
    "signal": {"values": [0.0, 1.0], "lengths": [256, 256]},
    "noise": {"kind": "uniform", "scale": 1.0, "center_tau": 0.5},
    "loss": {"kind": "quantile", "tau": 0.5},
    "growth_L": 4.0,
    "lambda_grid": [4.0, 16.0, 128.0],
    "replications": 3,
}


def _cli_argv(tmp_path, name) -> list:
    if name in _CONFIGS:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(_BASE | _CONFIGS[name]))
        return ["simulate", "--config", str(path)]
    if name == "solve":
        path = tmp_path / "y.csv"
        path.write_text("0.1\n-3.25\n2.5\n2.5\n1e-07\n7.0\n")
        return ["solve", "--input", str(path), "--lambda", "0.75"]
    if name == "bounds":
        return [
            "bounds", "--signal-values", "0,1.5,0", "--signal-lengths", "8,5,7",
            "--delta", "0.05", "--lambda", "4.0", "--growth-L", "12",
        ]
    if name == "lil_chunks":
        # a full chunk of 127 paths (the draw budget over the horizon), a
        # partial one of 3, and a horizon that is not a power of 2
        return [
            "lil", "--sigma", "2.5", "--delta", "0.1", "--horizon", "1025",
            "--paths", "130", "--seed", "3",
        ]
    return ["lil", "--delta", "0.1", "--horizon", "100", "--paths", "20", "--seed", "3"]


# every file each run writes; the digests were recorded before the CSVs went
# through one column writer
_PINNED_FILES = {
    "bounds": {
        "bounds.csv": "c678b49f256bfc6d5ea712b1ab43cf1b2964133fe2b53d78af84928e7aecb77c",
        "bounds.json": "9f8e2208d4b4a44af5002d299e2279788185a35cfe75f4cabbfb54bf7400d752",
    },
    "elementwise_quantile": {
        "per_index.csv": "3f0cf4edb1946e3526d5b0ff517db269cae8a0d4fc7e2d72103a2c57d4347fa3",
    },
    "lambda_sweep": {
        "plotdata_lambda_sweep.csv": "4e23d42709ba467576ab81c3480b0574e6a7b4fd902c190dfb3f136ad0917227",
    },
    "lambda_sweep_null_bound": {
        "plotdata_lambda_sweep.csv": "1979df245ff7616f9788c1fb720a99ed2899f72787f54a13261d3ee4b82d8780",
        "summary.json": "fb766f110cb9995146ee64b9c8103ab406a9611f8457ed3160673bf195733382",
    },
    "lil": {
        "lil.csv": "bac16f791b9d403a5071b9b5abfc0f1efdafd019fe699c58a89ff33b2ac3f6e1",
        "lil.json": "faefa8e924f3f97af4ba8d5c3fe2b91368f75b772d1bb14e3f6e963a66ed2c6d",
    },
    "lil_chunks": {
        "lil.csv": "50a6e50012daa2e1a24b849dffaaa4df1e4bc6ead02953c92cda5c9730f2faaf",
        "lil.json": "4248580b598fa945f8d3e6533f431c1f9bd0014617d254ad96ab5b4bdee37d11",
    },
    "pointwise": {
        "per_index.csv": "1edfbff7fbfe0a369b88477b7133df95c49aad2c0b3bd7087c50d7b359d1c629",
    },
    "rate_sweep": {
        "plotdata_d_sweep.csv": "d2fb59decfabf277662f3a48b853b2364a8a861613ec2df782221871ad3205e1",
        "plotdata_n_sweep.csv": "c99149526260690111e014bebf65c27c5b8078fb4d8ea982a44a6ed9aafe3e8b",
    },
    "solve": {
        "solution.csv": "8d6067ed179ab3ceb124d9d4b14c5ce66dc45ebd2b3e2b898315e8ce7877b8ef",
        "solution.json": "4dbd9fa3d17384266324aff34816cb23f6d6c5243b3422215b7c742ee809d358",
    },
    "sse": {
        "sse.csv": "f7543d226c988219e2351bc59d5454aef72b2f34f9adabaa4b1e63b25cf1225d",
    },
}


@pytest.mark.parametrize("name", sorted(_PINNED_FILES))
def test_output_file_bytes_pinned(tmp_path, name):
    out = tmp_path / "out"
    assert main(_cli_argv(tmp_path, name) + ["--out-dir", str(out)]) == 0
    want = dict(_PINNED_FILES[name])
    if name in _PINNED:
        want["summary.json"] = _PINNED[name][1]
    got = {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in out.iterdir()}
    assert got == want


# -- the CSV cell rule ---------------------------------------------------------


def _reference_cell(v) -> str:
    """The documented rule for one cell: a bool as 0/1, None as empty, any
    other number as ``repr`` writes the Python number."""
    if v is None:
        return ""
    if isinstance(v, (bool, np.bool_)):
        return "1" if v else "0"
    return repr(v.item() if isinstance(v, np.generic) else v)


def _reference_csv(table: dict, config_hash: str) -> str:
    columns = [[_reference_cell(v) for v in values] for values in table.values()]
    lines = [f"# version={__version__} config_hash={config_hash}", ",".join(table)]
    lines += [",".join(row) for row in itertools.zip_longest(*columns, fillvalue="")]
    return "\n".join(lines) + "\n"


def test_csv_cells_follow_the_rule_cell_by_cell():
    """Formatting each distinct value once keeps every cell: values are
    keyed by their bits, so 0.0 and -0.0 are not merged."""
    nans = np.array([0x7FF8000000000001, 0xFFF8000000000000], dtype=np.uint64).view(np.float64)
    i64 = np.iinfo(np.int64)
    base = np.array([0.1, 0.1, -0.0, 7.0, 0.0, 7.0, -0.0, 0.3, 0.1, 2.0, 0.0, -0.0])
    table = {
        "zeros": np.array([0.0, -0.0, 0.0, -0.0, 0.0, 1.0, -0.0, 0.0, -0.0]),
        "special": np.array([0.1, nans[0], np.inf, -np.inf, 5e-324, nans[1], -0.0, 0.0, 0.1]),
        "f32": np.array([0.1, -0.0, 0.1, 1e-45, 3.4e38, 0.0, 0.5, 0.1, -2.5], dtype=np.float32),
        "int": np.array([i64.min, i64.max, 0, -1, i64.min, 1, 0, i64.max, -1]),
        "flag": np.array([True, False, True, True, False, False, True, False, True]),
        "strided": base[::2],
        "none": [1.5, None, 2, None, -0.0, 0.0, None, 1.5, 3],
        "short": [0.25, -0.0, 0.25],
        "empty": np.empty(0),
        "last": [-0.0, 0.0, -0.0, 0.0, -0.0, 0.0, -0.0, 0.0, -0.0],
    }
    assert not table["strided"].flags.c_contiguous
    assert "".join(_csv_blocks(table, "h")) == _reference_csv(table, "h")
    # the z column of an n = 1 solve is empty beside non-empty columns
    table = {"i": np.arange(1, 2), "y": np.array([-0.0]), "z": np.empty(0)}
    assert "".join(_csv_blocks(table, "h")) == _reference_csv(table, "h")
    assert "".join(_csv_blocks(table, "h")).endswith("\n1,-0.0,\n")


def test_csv_rows_in_blocks_match_the_rule():
    """Two full blocks of rows and a partial one give the bytes of the whole
    text, and each piece after the header holds one block.  ``short`` is one
    value short and ends exactly at a block boundary, as the ``z`` column of
    a ``gfl solve`` at n = 4097 does."""
    n = 2 * _CSV_BLOCK_ROWS + 1
    rng = np.random.default_rng(0)
    table = {
        "i": np.arange(1, n + 1),
        "repeats": rng.choice([0.1, -0.0, 0.0, 2.5], n),
        "distinct": rng.standard_normal(n),
        "short": rng.standard_normal(n - 1),
        "flag": rng.random(n) < 0.5,
        "none": [None if r % 3 else r / 7 for r in range(n)],
    }
    pieces = list(_csv_blocks(table, "h"))
    _assert_same("".join(pieces), _reference_csv(table, "h"))
    assert [p.count("\n") for p in pieces] == [2, _CSV_BLOCK_ROWS, _CSV_BLOCK_ROWS, 1]


@pytest.mark.parametrize("command", ["solve", "bounds"])
def test_commands_write_rows_in_blocks(tmp_path, command):
    """``gfl solve`` and ``gfl bounds`` at n = 2 * 4096 + 5, three blocks of
    rows, write the CSV the cell rule gives for the same columns."""
    n = 2 * _CSV_BLOCK_ROWS + 5
    out = tmp_path / "out"
    if command == "solve":
        y = np.random.default_rng(1).standard_normal(n)
        y[n // 2:] += 3.0
        (tmp_path / "y.txt").write_text("".join(f"{v!r}\n" for v in y.tolist()))
        argv = ["solve", "--input", str(tmp_path / "y.txt"), "--lambda", "7.5"]
        problem = FusedLassoProblem(y=y, lam=7.5, loss=make_loss("square", None))
        theta = solve(problem).theta_hat
        table = {"i": np.arange(1, n + 1), "y": y, "theta_hat": theta,
                 "z": check_kkt(problem, theta)[1]}
        name = "solution.csv"
    else:
        lengths = [3000, 2000, n - 5000]
        argv = ["bounds", "--signal-values", "0,1.5,0",
                "--signal-lengths", ",".join(map(str, lengths)),
                "--sigma", "1.0", "--delta", "0.05", "--lambda", "40"]
        geom = PiecewiseConstantSignal([0.0, 1.5, 0.0], lengths).geometry()
        report = bound_report(geom, BoundParams(sigma=1.0, delta=0.05, lam=40.0))
        table = {"i": np.arange(1, n + 1), "k": geom.k_of, "d": geom.d, "B": report.B,
                 "B_improved": report.B_improved, "B_quantile": report.B_quantile,
                 "applicable": report.applicable}
        name = "bounds.csv"
    assert main(argv + ["--out-dir", str(out)]) == 0
    text = (out / name).read_text()
    config_hash = text[: text.index("\n")].rsplit("=", 1)[1]
    _assert_same(text, _reference_csv(table, config_hash))

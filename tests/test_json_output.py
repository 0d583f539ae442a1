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
from gfl.cli import _csv_text, _dumps, main


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
        # two full chunks of 64 paths, a partial one, and a horizon that is
        # not a power of 2
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
    assert _csv_text(table, "h") == _reference_csv(table, "h")
    # the z column of an n = 1 solve is empty beside non-empty columns
    table = {"i": np.arange(1, 2), "y": np.array([-0.0]), "z": np.empty(0)}
    assert _csv_text(table, "h") == _reference_csv(table, "h")
    assert _csv_text(table, "h").endswith("\n1,-0.0,\n")

"""A numeric cell is ``repr`` of the Python number, byte for byte.  The C
row writer in ``_kernels.c`` writes blocks of float64, int64 and bool
cells; it refuses a block holding a subnormal, an infinity, a NaN or a
float outside [2^-32, 2^151), and ``_repr_rows`` writes that block with
``repr``."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gfl import _kernels
from gfl.cli import _CELL_WIDTH, _CSV_BLOCK_ROWS, _ROW_KINDS, _csv_blocks, _repr_rows, _row_blocks
from test_json_output import _reference_csv

# the kernel's range, as biased exponents: [2^-32, 2^151)
LEAST, GREATEST = 1023 - 32, 1023 + 150


def floats(bits) -> np.ndarray:
    return np.asarray(bits, dtype=np.uint64).view(np.float64)


def left_to_repr(a) -> np.ndarray:
    """Where the kernel leaves a float64 cell empty."""
    biased = (a.view(np.uint64) >> np.uint64(52)) & np.uint64(0x7FF)
    return (a != 0.0) & ((biased < LEAST) | (biased > GREATEST))


def boundary_values() -> dict:
    """{name: float64 or int64 array}: the values at the formatter's edges."""
    rng = np.random.default_rng(20261020)
    # a few random mantissas, and the least and greatest, at every exponent
    mantissas = rng.integers(0, 2**52, (2046, 8), dtype=np.uint64)
    mantissas[:, :3] = [0, 1, 2**52 - 1]
    every = (np.arange(1, 2047, dtype=np.uint64)[:, None] << np.uint64(52)) | mantissas
    edges = np.array([LEAST - 1, LEAST, GREATEST, GREATEST + 1], dtype=np.uint64)
    at_edges = (edges[:, None] << np.uint64(52)) | rng.integers(0, 2**52, (4, 500), dtype=np.uint64)
    p2 = 2.0 ** np.arange(-1074, 1024)
    p10 = np.array([float(f"1e{k}") for k in range(-323, 309)])
    specials = [0.0, 5e-324, 2.0**-1022 - 5e-324, 2.0**-1022, np.finfo(float).max,
                np.inf, np.nan, 1e-5, 1e-4, 9999999999999998.0, 1e16, 0.1, 0.3, 2.0**53 + 2]
    return {
        "every_exponent": floats(every.ravel()),
        "range_edges": floats(at_edges.ravel()),
        "powers_of_2": np.concatenate([p2, np.nextafter(p2, 0.0), np.nextafter(p2, np.inf)]),
        "powers_of_10": np.concatenate([p10, np.nextafter(p10, 0.0), np.nextafter(p10, np.inf)]),
        "specials": np.array(specials),
        "quarters": np.arange(-400, 400) / 4.0,
        "int64": np.array([0, 1, -1, 9, 10, -10, 2**63 - 1, -(2**63 - 1), -(2**63)], dtype=np.int64),
    }


def repr_cells(a) -> list:
    return [repr(v) for v in a.tolist()]


def cells(a) -> list:
    """``a``'s cells as the CSV writer writes them, in one-column rows."""
    return b"".join(_row_blocks([np.asarray(a)], ["", "\n"])).decode("ascii").split("\n")[:-1]


def kernel_rows(columns, pieces):
    """One call of the row writer on whole ``columns``: the bytes it
    writes, or None where it refuses the block."""
    rows = max(a.size for a in columns)
    layout, offset = [], 0
    for a in columns:
        layout += (_ROW_KINDS[a.dtype], offset, a.size)
        offset += a.nbytes
    text = b"".join(p.encode() + b"\0" for p in pieces)
    out = np.empty(rows * (len(text) + _CELL_WIDTH * len(columns)), np.uint8)
    size = _kernels.lib.gfl_write_rows(
        b"".join(a.tobytes() for a in columns), np.array(layout, np.int64).tobytes(),
        len(columns), rows, text, out.ctypes.data,
    )
    return None if size < 0 else out[:size].tobytes()


def kernel_cells(a) -> list:
    """``a``'s cells as one row-writer call writes them, which must not
    refuse them."""
    text = kernel_rows([a], ["", "\n"])
    assert text is not None
    return text.decode("ascii").split("\n")[:-1]


def inside(a):
    """The values of ``a`` that the row writer formats itself."""
    return a[~left_to_repr(a)] if a.dtype == np.float64 else a


@pytest.mark.parametrize("name", list(boundary_values()))
@pytest.mark.parametrize("sign", [1, -1])
def test_cells_are_repr_at_the_formatters_edges(name, sign):
    a = sign * boundary_values()[name]  # -(-2^63) wraps to itself
    assert cells(a) == repr_cells(a)
    assert cells(a[::-1].copy()) == repr_cells(a[::-1])  # sorted one way, the other not
    assert kernel_cells(inside(a)) == repr_cells(inside(a))


def test_cells_are_repr_on_random_bits():
    bits = np.random.default_rng(1).integers(0, 2**64, 30_000, dtype=np.uint64)
    a = floats(bits)
    # the same mantissas and signs with every exponent inside the range
    in_range = (bits & np.uint64(0x800F_FFFF_FFFF_FFFF)) | (
        (bits % np.uint64(GREATEST - LEAST + 1) + np.uint64(LEAST)) << np.uint64(52))
    for values in (a, floats(in_range)):
        assert cells(values) == repr_cells(values)
    assert kernel_cells(floats(in_range)) == repr_cells(floats(in_range))


def test_kernel_range_is_as_documented():
    # each value as a one-cell block, refused exactly where it is left to repr
    values = boundary_values()["every_exponent"]
    refused = [kernel_rows([values[i : i + 1]], ["", "\n"]) is None for i in range(values.size)]
    assert refused == left_to_repr(values).tolist()


def test_blocks_keep_order_and_fill_empty_cells_at_their_edges():
    # more than two blocks of rows, cells left to repr at the first and last
    # value of blocks, and a column that is all such cells
    n = 2 * _CSV_BLOCK_ROWS + 3
    a = np.random.default_rng(2).standard_normal(n)
    for i, v in zip([0, _CSV_BLOCK_ROWS - 1, _CSV_BLOCK_ROWS, n - 1], [np.nan, np.inf, 5e-324, 1e300]):
        a[i] = v
    ints = np.arange(-n, n, 2, dtype=np.int64) * 4_000_000_000_037
    table = {"a": a, "ints": ints, "reversed": a[::-1]}
    assert b"".join(_csv_blocks(table, "h")).decode() == _reference_csv(table, "h")
    assert cells(a) == repr_cells(a)
    assert cells(a[:1]) == ["nan"] and cells(a[:0]) == []
    edge = np.array([-np.inf, 1e-320, 2.0**200, np.nan])
    assert cells(edge) == repr_cells(edge)
    edge_csv = b"".join(_csv_blocks({"edge": edge}, "h")).decode()
    assert edge_csv == _reference_csv({"edge": edge}, "h")


def test_one_piece_list_lays_out_both_writers():
    """The row writer and ``_repr_rows`` lay out the same rows from the same
    pieces: int64, float64 and bool columns at every byte offset (a bool
    column shifts the ones after it), a short column and an empty one."""
    rng = np.random.default_rng(4)
    columns = [
        rng.random(9) < 0.5, rng.standard_normal(9), np.arange(-4, 5) * 10**15,
        rng.random(3) < 0.5, np.array([0.5, -0.0, 1e16, 2.5]), np.empty(0),
    ]
    pieces = ["\n  {\n    \"a\": ", *(f',\n    "{c}": ' for c in "bcdef"), "\n  },"]
    want = _repr_rows(columns, 0, 9, pieces)
    assert kernel_rows(columns, pieces).decode("ascii") == want
    assert b"".join(_row_blocks(columns, pieces)).decode("ascii") == want
    assert want.count("},") == 9 and want.count('"d": ,') == 6 and want.count('"f": \n') == 9
    assert '"a": True' not in want and '"a": 1' in want


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=50))
def test_cells_are_repr_for_any_float(values):
    a = np.array(values, dtype=np.float64)
    assert cells(a) == repr_cells(a)
    assert kernel_cells(inside(a)) == repr_cells(inside(a))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(-(2**63), 2**63 - 1), min_size=1, max_size=50))
def test_cells_are_repr_for_any_int64(values):
    a = np.array(values, dtype=np.int64)
    assert cells(a) == repr_cells(a)
    assert kernel_cells(a) == repr_cells(a)

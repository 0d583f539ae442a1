"""A numeric cell is ``repr`` of the Python number, byte for byte.  The C
formatter in ``_kernels.c`` writes float64 and int64 cells; it leaves a
subnormal, an infinity, a NaN and a float outside [2^-32, 2^151) empty, and
``_cells`` fills those with ``repr``."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gfl import _kernels
from gfl.cli import _CSV_BLOCK_ROWS, _REPR_WIDTH, _cells, _csv_blocks
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


@pytest.mark.parametrize("name", list(boundary_values()))
@pytest.mark.parametrize("sign", [1, -1])
def test_cells_are_repr_at_the_formatters_edges(name, sign):
    a = sign * boundary_values()[name]  # -(-2^63) wraps to itself
    assert _cells(a) == repr_cells(a)
    assert _cells(a[::-1].copy()) == repr_cells(a[::-1])  # sorted one way, the other not


def test_cells_are_repr_on_random_bits():
    bits = np.random.default_rng(1).integers(0, 2**64, 30_000, dtype=np.uint64)
    a = floats(bits)
    # the same mantissas and signs with every exponent inside the range
    inside = (bits & np.uint64(0x800F_FFFF_FFFF_FFFF)) | (
        (bits % np.uint64(GREATEST - LEAST + 1) + np.uint64(LEAST)) << np.uint64(52))
    for values in (a, floats(inside)):
        assert _cells(values) == repr_cells(values)


def test_kernel_range_is_as_documented():
    values = boundary_values()["every_exponent"]
    buf = np.empty(_REPR_WIDTH * values.size, np.uint8)
    size = _kernels.lib.gfl_repr_double(values.ctypes.data, values.size, buf.ctypes.data)
    cells = buf[:size].tobytes().decode("ascii").split("\n")[:-1]
    assert len(cells) == values.size
    assert [c == "" for c in cells] == left_to_repr(values).tolist()


def test_blocks_keep_order_and_fill_empty_cells_at_their_edges():
    # more than two blocks of rows, cells left to repr at the first and last
    # value of blocks, and a column that is all such cells
    n = 2 * _CSV_BLOCK_ROWS + 3
    a = np.random.default_rng(2).standard_normal(n)
    for i, v in zip([0, _CSV_BLOCK_ROWS - 1, _CSV_BLOCK_ROWS, n - 1], [np.nan, np.inf, 5e-324, 1e300]):
        a[i] = v
    ints = np.arange(-n, n, 2, dtype=np.int64) * 4_000_000_000_037
    table = {"a": a, "ints": ints, "reversed": a[::-1]}
    assert "".join(_csv_blocks(table, "h")) == _reference_csv(table, "h")
    assert _cells(a) == repr_cells(a)
    assert _cells(a[:1]) == ["nan"] and _cells(a[:0]) == []
    edge = np.array([-np.inf, 1e-320, 2.0**200, np.nan])
    assert _cells(edge) == repr_cells(edge)
    assert "".join(_csv_blocks({"edge": edge}, "h")) == _reference_csv({"edge": edge}, "h")


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=50))
def test_cells_are_repr_for_any_float(values):
    a = np.array(values, dtype=np.float64)
    assert _cells(a) == repr_cells(a)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(-(2**63), 2**63 - 1), min_size=1, max_size=50))
def test_cells_are_repr_for_any_int64(values):
    a = np.array(values, dtype=np.int64)
    assert _cells(a) == repr_cells(a)

"""The element-wise bounds evaluated over index arrays return the same bits as
the per-index reference in ``bounds_reference.py``."""

import numpy as np
import pytest

import bounds_reference as ref
from gfl.bounds import (
    BoundParams,
    bound_report,
    compute_B,
    compute_B_improved,
    compute_B_quantile,
    elementwise_quantile_bound,
)
from gfl.signal import PiecewiseConstantSignal


def bits(x) -> np.ndarray:
    return np.array(x, dtype=float, ndmin=1).view(np.int64)


def assert_same_bits(got, want):
    assert bits(got).shape == bits(want).shape
    np.testing.assert_array_equal(bits(got), bits(want))


def draw_lengths(rng, K: int) -> list:
    """Short segments (1-3, the max(3, d) branch), medium ones, or long ones."""
    kind = rng.integers(3)
    if kind == 0:
        return rng.integers(1, 4, K).tolist()
    if kind == 1:
        return rng.integers(1, 40, K).tolist()
    return rng.integers(1, 601, K).tolist()


def draw_values(rng, K: int) -> list:
    """Monotone or alternating jumps (m_left/m_right beyond m), or random ones."""
    kind = rng.integers(3)
    if kind == 0:
        steps = np.full(K - 1, 1.0)
    elif kind == 1:
        steps = np.where(np.arange(K - 1) % 2 == 0, 1.0, -1.0)
    else:
        steps = rng.choice([-1.0, 1.0], K - 1) * rng.uniform(0.5, 2.0, K - 1)
    return np.concatenate([[0.0], np.cumsum(steps)]).tolist()


def draw_params(rng) -> BoundParams:
    """lambda as a Python int, a float or an np.float64."""
    lam = (int(rng.integers(1, 60)), float(rng.uniform(0.1, 300.0)), np.float64(rng.uniform(1, 50)))
    return BoundParams(
        sigma=float(rng.uniform(0.1, 3.0)),
        delta=float(rng.uniform(1e-4, 0.25)),
        lam=lam[rng.integers(3)],
    )


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_random_signals_match_reference(seed):
    rng = np.random.default_rng(seed)
    for case in range(100):
        K = 1 if case % 10 == 0 else int(rng.integers(2, 8))
        signal = PiecewiseConstantSignal(draw_values(rng, K), draw_lengths(rng, K))
        g = signal.geometry()
        p = draw_params(rng)

        _, cols = bound_report(g, p)
        B, Bi, Bq = ref.report_arrays(g, p)
        assert_same_bits(cols["B"], B)
        assert_same_bits(cols["B_improved"], Bi)
        assert_same_bits(cols["B_quantile"], Bq)

        # unsorted, with repeats; Python int and np.int64 scalars
        idx = rng.integers(1, g.n + 1, size=int(rng.integers(1, 12)))
        assert_same_bits(compute_B(idx, g, p), B[idx - 1])
        assert_same_bits(compute_B_improved(idx, g, p), Bi[idx - 1])
        assert_same_bits(compute_B_quantile(idx, g, p.delta, p.lam), Bq[idx - 1])
        for i in (int(idx[0]), idx[-1]):
            assert_same_bits(compute_B(i, g, p), ref.compute_B(int(i), g, p))
            assert_same_bits(compute_B_improved(i, g, p), ref.compute_B_improved(int(i), g, p))
            assert_same_bits(
                compute_B_quantile(i, g, p.delta, p.lam),
                ref.compute_B_quantile(int(i), g, p.delta, p.lam),
            )


def test_scalar_index_returns_scalar():
    g = PiecewiseConstantSignal([0.0, 1.0], [10, 10]).geometry()
    p = BoundParams(sigma=1.0, delta=0.1, lam=5.0)
    b = compute_B(4, g, p)
    assert isinstance(b, np.float64) and np.ndim(b) == 0
    pb = elementwise_quantile_bound(4, g, 0.1, 5.0, 100.0)
    assert np.ndim(pb.value) == 0 and np.ndim(pb.applicable) == 0
    assert bool(pb.applicable) is True


def test_elementwise_quantile_arrays_match_scalar_calls():
    g = PiecewiseConstantSignal([0.0, 1.0, 0.5], [300, 200, 400]).geometry()
    idx = np.arange(1, g.n + 1)
    pb = elementwise_quantile_bound(idx, g, 0.05, 40.0, 1.2)
    assert pb.value.shape == pb.applicable.shape == (g.n,)
    assert 0 < pb.applicable.sum() < g.n
    for i in (1, 3, 150, 300, 301, 420, 700, 900):
        one = elementwise_quantile_bound(i, g, 0.05, 40.0, 1.2)
        assert_same_bits(pb.value[i - 1], one.value)
        assert pb.applicable[i - 1] == one.applicable
        assert_same_bits(one.value, ref.compute_B_quantile(i, g, 0.05, 40.0) / 1.2)


@pytest.mark.parametrize("lam", [1100, 60.0])
def test_long_segment_distances_match_reference(lam):
    # one segment of 2^17 indices: d runs through 1..2^16 on its left half,
    # where np.log and libm's log disagree in the last bit for a few d
    g = PiecewiseConstantSignal([0.0], [2**17]).geometry()
    p = BoundParams(sigma=1.0, delta=0.2, lam=lam)
    _, cols = bound_report(g, p)
    half = 2**16
    B, Bi, Bq = ref.report_arrays(g, p, stop=half)
    assert_same_bits(cols["B"][:half], B)
    assert_same_bits(cols["B_improved"][:half], Bi)
    assert_same_bits(cols["B_quantile"][:half], Bq)

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bounds_reference import seg_length
from gfl.errors import ConfigError
from gfl.signal import PiecewiseConstantSignal, compute_geometry


def sig(values, lengths):
    return PiecewiseConstantSignal(values, lengths)


def brute_d(signal):
    """Distance to the nearest change point of the index's own segment,
    enumerated directly from the definition min(i+1-n_k, n_{k+1}-i)."""
    starts = signal.change_points
    out = []
    for k in range(1, signal.K + 1):
        for i in range(starts[k - 1], starts[k]):
            out.append(min(i + 1 - starts[k - 1], starts[k] - i))
    return np.array(out)


class TestConstruction:
    def test_expand_single_segment(self):
        assert np.array_equal(sig([0], [5]).expand(), np.zeros(5))

    def test_expand_two_segments(self):
        assert np.array_equal(sig([0, 1], [2, 3]).expand(), [0, 0, 1, 1, 1])

    def test_expand_unit_segments(self):
        assert np.array_equal(sig([1, -1, 1], [1, 1, 1]).expand(), [1, -1, 1])

    def test_change_points_convention(self):
        s = sig([0, 1, 0], [2, 3, 4])
        assert s.change_points == (1, 3, 6, 10)
        assert s.n == 9 and s.K == 3 and s.m_min == 2

    def test_V(self):
        assert sig([0, 3, -1], [1, 1, 1]).V == 4.0

    def test_equal_adjacent_rejected(self):
        with pytest.raises(ConfigError):
            sig([1.0, 1.0], [2, 2])

    def test_bad_lengths_rejected(self):
        with pytest.raises(ConfigError):
            sig([0, 1], [2, 0])

    def test_nonfinite_rejected(self):
        with pytest.raises(ConfigError):
            sig([0, math.inf], [2, 2])

    def test_record_roundtrip(self):
        s = sig([0, 1.5], [2, 3])
        assert PiecewiseConstantSignal.from_record(s.to_record()) == s


class TestGeometry:
    def test_d_two_segments(self):
        # oracle-enumerated from the definition; indices adjacent to the
        # change point at n_2=5 have d=1 on both sides
        g = sig([0, 1], [4, 4]).geometry()
        assert np.array_equal(g.d, [1, 2, 2, 1, 1, 2, 2, 1])
        assert np.array_equal(g.d, brute_d(sig([0, 1], [4, 4])))

    def test_eta_monotone(self):
        g = sig([0, 1, 2], [2, 2, 2]).geometry()
        assert np.array_equal(g.eta, [0, 1, 1, 0])
        # middle segment's monotone run spans all three segments
        assert g.m_left[2] == 4 and g.m_right[2] == 4

    def test_eta_alternating(self):
        g = sig([0, 1, 0], [2, 2, 2]).geometry()
        assert np.array_equal(g.eta, [0, 1, -1, 0])
        assert all(g.eta[k - 1] != g.eta[k] for k in range(1, 4))
        # interior segment has reversing jumps on both sides: no extension
        assert g.m_left[2] == 2 and g.m_right[2] == 2
        # edge segments extend across their single jump toward the interior
        assert g.m_right[0] == 4 and g.m_left[4] == 4

    def test_monotone_three_segment_runs(self):
        g = sig([0, 1, 2], [50, 10, 50]).geometry()
        i = 55  # middle segment
        assert g.m_left[i - 1] == 60 and g.m_right[i - 1] == 60

    def test_single_segment_runs(self):
        g = sig([7], [9]).geometry()
        assert np.all(g.m_left == 9) and np.all(g.m_right == 9)

    def test_monotone_signal_edge_segments(self):
        # fully monotone: the interior segments chain to both ends
        g = sig([0, 1, 2, 3], [3, 4, 5, 6]).geometry()
        # segment 2: left run reaches segment 1, right run reaches segment 4
        assert g.m_left[3] == 7 and g.m_right[3] == 15

    def test_k_of(self):
        g = sig([0, 1], [2, 3]).geometry()
        assert np.array_equal(g.k_of, [1, 1, 2, 2, 2])
        assert seg_length(g, 1) == 2 and seg_length(g, 5) == 3


@st.composite
def signals(draw, max_segments=6, max_len=12):
    K = draw(st.integers(1, max_segments))
    lengths = draw(st.lists(st.integers(1, max_len), min_size=K, max_size=K))
    deltas = draw(
        st.lists(
            st.sampled_from([-2.0, -1.0, 1.0, 2.0]), min_size=K - 1, max_size=K - 1
        )
    )
    values = [0.0]
    for d in deltas:
        values.append(values[-1] + d)
    return PiecewiseConstantSignal(values, lengths)


@given(signals())
@settings(max_examples=200, deadline=None)
def test_geometry_invariants(s):
    g = compute_geometry(s)
    assert sum(g.segment_lengths) == g.n
    assert np.array_equal(g.d, brute_d(s))
    starts = np.asarray(g.change_points)
    for i in range(1, g.n + 1):
        k = g.k_of[i - 1]
        assert starts[k - 1] <= i < starts[k]
    assert np.all(g.m_left >= np.repeat(g.segment_lengths, g.segment_lengths))
    assert np.all(g.m_right >= np.repeat(g.segment_lengths, g.segment_lengths))
    assert np.all(g.d >= 1)
    for k in range(1, g.K + 1):
        mk = g.segment_lengths[k - 1]
        seg = g.d[starts[k - 1] - 1 : starts[k] - 1]
        assert seg.max() <= mk // 2 + 1


@given(signals())
@settings(max_examples=200, deadline=None)
def test_harmonic_sum_bound(s):
    # the proof-time inequality sum 1/d_i <= 2 sum_k (ln(m_k/2) + 1) requires
    # m_k >= 2; a unit segment contributes 1 > 2(ln(1/2)+1)
    if any(m < 2 for m in s.lengths):
        return
    g = s.geometry()
    lhs = float(np.sum(1.0 / g.d))
    rhs = 2.0 * sum(math.log(m / 2.0) + 1.0 for m in s.lengths)
    assert lhs <= rhs + 1e-12


@given(signals())
@settings(max_examples=200, deadline=None)
def test_eta_boundary_segments_always_count(s):
    # with sentinels eta_0 = eta_K = 0, the first and last segments belong to
    # the direction-change sum whenever there is at least one jump
    if s.K < 2:
        return
    g = s.geometry()
    changed = [k for k in range(1, g.K + 1) if g.eta[k - 1] != g.eta[k]]
    assert 1 in changed and g.K in changed

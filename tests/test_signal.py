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


def brute_runs(signal):
    """eta and the per-index m_left/m_right by walking each segment's
    monotone run outward one segment at a time, as the definition reads."""
    K = signal.K
    m = signal.lengths
    eta = np.zeros(K + 1, dtype=np.int64)
    for k in range(1, K):
        eta[k] = 1 if signal.values[k] > signal.values[k - 1] else -1

    ml_seg = np.empty(K, dtype=np.int64)
    mr_seg = np.empty(K, dtype=np.int64)
    for k in range(1, K + 1):
        ml = m[k - 1]
        if K > 1:
            anchor = eta[min(k, K - 1)]
            j = k - 1
            while j >= 1 and eta[j] == anchor:
                ml += m[j - 1]
                j -= 1
        ml_seg[k - 1] = ml

        mr = m[k - 1]
        if K > 1:
            anchor = eta[max(k - 1, 1)]
            j = k + 1
            while j <= K and eta[j - 1] == anchor:
                mr += m[j - 1]
                j += 1
        mr_seg[k - 1] = mr
    return eta, np.repeat(ml_seg, m), np.repeat(mr_seg, m)


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

    def test_vars_hold_only_the_fields(self):
        # geometry() reads change_points, which must store nothing on the record
        s = sig([0, 1, 0], [2, 3, 4])
        s.geometry()
        assert list(vars(s)) == ["values", "lengths"]

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
        with pytest.raises(ConfigError, match="finite"):
            sig([0, 10**400], [2, 2])

    @pytest.mark.parametrize(
        "values, lengths, message",
        [
            ([0, 1], [2.7, 3], "lengths must be positive integers, got 2.7"),
            ([0, 1], [2.0, 3], "lengths must be positive integers, got 2.0"),
            ([0, 1], [True, 3], "lengths must be positive integers, got True"),
            ([0, 1], ["2", 3], "lengths must be positive integers, got '2'"),
            ([0, 1], [np.bool_(True), 3], "lengths must be positive integers"),
            (["1e0", 2], [2, 3], "values must be real numbers, got '1e0'"),
            ([0, True], [2, 3], "values must be real numbers, got True"),
            ([0, None], [2, 3], "values must be real numbers, got None"),
            ([0, 1j], [2, 3], "values must be real numbers, got 1j"),
        ],
        ids=["len-2.7", "len-2.0", "len-True", "len-str", "len-np.bool", "val-str", "val-True",
             "val-None", "val-complex"],
    )
    def test_no_silent_coercion(self, values, lengths, message):
        with pytest.raises(ConfigError, match=message):
            sig(values, lengths)

    def test_numpy_scalars_accepted(self):
        s = sig([np.float32(0.5), np.int64(2)], [np.int32(2), np.uint8(3)])
        assert s == sig([0.5, 2.0], [2, 3])
        assert [type(v) for v in s.values + s.lengths] == [float, float, int, int]

    def test_record_roundtrip(self):
        s = sig([0, 1.5], [2, 3])
        assert PiecewiseConstantSignal.from_record(s.to_record()) == s

    @pytest.mark.parametrize("record", [{"values": [0.0, 1.5]}, None], ids=["no-lengths", "none"])
    def test_bad_record_rejected(self, record):
        with pytest.raises(ConfigError, match="bad signal record"):
            PiecewiseConstantSignal.from_record(record)


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


@st.composite
def run_signals(draw, max_segments=40, max_len=5):
    """Signals whose jump directions mostly repeat, so long monotone runs
    occur next to short ones."""
    K = draw(st.integers(1, max_segments))
    lengths = draw(st.lists(st.integers(1, max_len), min_size=K, max_size=K))
    flips = draw(st.lists(st.integers(0, 4), min_size=K - 1, max_size=K - 1))
    direction = draw(st.sampled_from([-1.0, 1.0]))
    values = [0.0]
    for f in flips:
        if f == 0:
            direction = -direction
        values.append(values[-1] + direction * (1 + f % 2))
    return PiecewiseConstantSignal(values, lengths)


@given(st.one_of(signals(), run_signals()))
@settings(max_examples=300, deadline=None)
def test_geometry_equals_segment_walk(s):
    g = compute_geometry(s)
    eta, m_left, m_right = brute_runs(s)
    starts = [1]
    for m in s.lengths:
        starts.append(starts[-1] + m)
    k_of = [k for k, m in enumerate(s.lengths, start=1) for _ in range(m)]
    assert g.change_points == tuple(starts)
    for got, want in [
        (g.k_of, np.array(k_of)),
        (g.d, brute_d(s)),
        (g.eta, eta),
        (g.m_left, m_left),
        (g.m_right, m_right),
    ]:
        assert got.dtype == np.int64 and np.array_equal(got, want)


def test_long_staircase_runs_span_the_signal():
    # strictly increasing: every jump is +1, so each segment's left run
    # reaches segment 1 and its right run reaches segment K
    K = 50_000
    lengths = [1 + k % 3 for k in range(K)]
    g = compute_geometry(PiecewiseConstantSignal(range(K), lengths))
    S = np.cumsum(lengths)
    S_before = S - lengths
    assert np.array_equal(g.m_left, np.repeat(S, lengths))
    assert np.array_equal(g.m_right, np.repeat(g.n - S_before, lengths))
    assert np.array_equal(g.eta, [0] + [1] * (K - 1) + [0])


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

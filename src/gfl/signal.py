"""Piecewise-constant truth signals and the structural quantities derived from them.

A signal is a list of segment values and lengths.  Everything the error
bounds consume (segment membership k(i), distance-to-change-point d_i, jump
directions eta_k, monotone-run lengths m_left/m_right) is derived here.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError


@dataclass(frozen=True)
class PiecewiseConstantSignal:
    """Segment values and positive integer lengths; adjacent values must differ."""

    values: tuple[float, ...]
    lengths: tuple[int, ...]

    def __init__(self, values, lengths):
        values = tuple(float(v) for v in values)
        lengths = tuple(int(m) for m in lengths)
        if len(values) == 0 or len(values) != len(lengths):
            raise ConfigError("values and lengths must be nonempty and of equal length")
        if any(m < 1 for m in lengths):
            raise ConfigError("segment lengths must be positive integers")
        if any(not np.isfinite(v) for v in values):
            raise ConfigError("segment values must be finite")
        for a, b in zip(values, values[1:]):
            if a == b:
                raise ConfigError(
                    "adjacent segments with equal values must be merged by the caller"
                )
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "lengths", lengths)

    @property
    def K(self) -> int:
        return len(self.values)

    @property
    def n(self) -> int:
        return sum(self.lengths)

    @property
    def m_min(self) -> int:
        return min(self.lengths)

    @property
    def V(self) -> float:
        """Total range of the truth: max value minus min value."""
        return max(self.values) - min(self.values)

    @cached_property
    def change_points(self) -> tuple[int, ...]:
        """Segment start indices n_1..n_K plus the sentinel n_{K+1} = n+1 (1-based)."""
        starts = [1]
        for m in self.lengths[:-1]:
            starts.append(starts[-1] + m)
        starts.append(self.n + 1)
        return tuple(starts)

    def expand(self) -> np.ndarray:
        """Full length-n vector with entry i equal to the value of its segment."""
        return np.repeat(np.asarray(self.values, dtype=float), self.lengths)

    def geometry(self) -> "SignalGeometry":
        return compute_geometry(self)

    def to_record(self) -> dict:
        return {"values": list(self.values), "lengths": list(self.lengths)}

    @classmethod
    def from_record(cls, record: dict) -> "PiecewiseConstantSignal":
        try:
            return cls(record["values"], record["lengths"])
        except (KeyError, TypeError) as exc:
            raise ConfigError(f"bad signal record: {exc}") from exc


@dataclass(frozen=True, eq=False)
class SignalGeometry:
    """Per-index structure of a piecewise-constant signal.

    Arrays are length n and aligned so that position j holds the quantity for
    the 1-based index i = j + 1.  ``eta`` has length K+1 with sentinels
    eta[0] = eta[K] = 0; eta[k] is the sign of the jump from segment k to k+1.
    """

    n: int
    K: int
    change_points: tuple[int, ...]
    segment_lengths: tuple[int, ...]
    k_of: np.ndarray
    d: np.ndarray
    eta: np.ndarray
    m_left: np.ndarray
    m_right: np.ndarray
    V: float
    m_min: int


def compute_geometry(signal: PiecewiseConstantSignal) -> SignalGeometry:
    """Derive k(i), d_i, eta_k and the monotone-run lengths m_left/m_right.

    d_i = min(i + 1 - n_{k(i)}, n_{k(i)+1} - i), the distance of i to the
    nearest change point of its segment.

    m_left(i)/m_right(i) extend segment k(i) along the maximal run of
    same-direction jumps anchored at the jump on the far side of the segment:
    m_left adds segments j < k while eta_j == ... == eta_{min(k, K-1)}, and
    m_right adds segments j > k while eta_{max(k-1, 1)} == ... == eta_{j-1}.
    A segment whose neighboring jumps reverse direction gets
    m_left = m_right = m_k; a single segment gets m_left = m_right = n.
    """
    K = signal.K
    n = signal.n
    m = signal.lengths
    starts = signal.change_points  # n_1..n_{K+1}

    k_of = np.repeat(np.arange(1, K + 1), m)

    d = np.empty(n, dtype=np.int64)
    for k in range(1, K + 1):
        lo, hi = starts[k - 1], starts[k]  # segment covers [lo, hi-1]
        i = np.arange(lo, hi)
        d[lo - 1 : hi - 1] = np.minimum(i + 1 - lo, hi - i)

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

    return SignalGeometry(
        n=n,
        K=K,
        change_points=starts,
        segment_lengths=m,
        k_of=k_of,
        d=d,
        eta=eta,
        m_left=np.repeat(ml_seg, m),
        m_right=np.repeat(mr_seg, m),
        V=signal.V,
        m_min=signal.m_min,
    )

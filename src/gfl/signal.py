"""Piecewise-constant truth signals and the structural quantities derived from them.

A signal is a list of segment values and lengths.  Everything the error
bounds consume (segment membership k(i), distance-to-change-point d_i, jump
directions eta_k, monotone-run lengths m_left/m_right) is derived here.
"""

from __future__ import annotations

import itertools
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
        return tuple(itertools.accumulate(self.lengths, initial=1))

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

    With first[j]..last[j] the run of equal directions holding jump j and
    S_k = m_1 + ... + m_k = n_{k+1} - 1, m_left(k) = S_k - S_{first[a]-1}
    for a = min(k, K-1) and m_right(k) = S_{last[b]+1} - S_{k-1} for
    b = max(k-1, 1).  One pass each way over eta finds the runs, so the work
    is linear in n + K.
    """
    K, m, values = signal.K, signal.lengths, signal.values
    starts = signal.change_points  # n_1..n_{K+1}, at positions 0..K

    eta = [0, *(1 if b > a else -1 for a, b in zip(values, values[1:])), 0]
    # first[0] and last[K] are read only when K = 1, where they make the
    # empty run 1..0, so that the single segment spans the signal
    first = [1, *range(1, K + 1)]
    last = [*range(K), K - 1]
    for j in range(2, K):
        if eta[j] == eta[j - 1]:
            first[j] = first[j - 1]
    for j in range(K - 2, 0, -1):
        if eta[j] == eta[j + 1]:
            last[j] = last[j + 1]
    m_left = [starts[k] - starts[first[min(k, K - 1)] - 1] for k in range(1, K + 1)]
    m_right = [starts[last[max(k - 1, 1)] + 1] - starts[k - 1] for k in range(1, K + 1)]

    # up = i + 1 - n_k counts up from each segment's start, and
    # n_{k+1} - i = m_k + 1 - up
    up = np.arange(2, signal.n + 2) - np.repeat(starts[:-1], m)
    return SignalGeometry(
        n=signal.n,
        K=K,
        change_points=starts,
        segment_lengths=m,
        k_of=np.repeat(np.arange(1, K + 1), m),
        d=np.minimum(up, np.repeat([mk + 1 for mk in m], m) - up),
        eta=np.array(eta, dtype=np.int64),
        m_left=np.repeat(m_left, m),
        m_right=np.repeat(m_right, m),
        V=signal.V,
        m_min=signal.m_min,
    )

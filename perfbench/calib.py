"""Calibration of timings against the drifting speed of a shared host.

On a shared host the speed of a core drifts by up to 2x over seconds to tens
of seconds, which is longer than a gfl call and often longer than a run.  A
fixed interpreter-bound loop, shaped like gfl's DP and certificate loops
(numpy scalar reads and writes, float min/max, a list of tuples), is timed
after every timed interval.  The interval's seconds are multiplied by REF_S
over the mean of the calibrations before and after it, so calibrated seconds
are seconds on a host where one chunk of the loop takes REF_S.  A change to
gfl moves its calibrated times as it moves its raw times; a change in the
host's speed moves both the interval and the loop, and cancels.

Vectorized numpy work (gfl's ``verify_paths``) does not follow the
interpreter loop when the host's speed drifts, so it is calibrated against a
second, "vector" loop of the same kind: normal draws, a cumulative sum and an
elementwise ratio over a 50 x 2000 array.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REF_S = {"loop": 0.004, "vector": 0.002}
CHUNKS = 7
_Y = np.sin(np.arange(3000) * 0.37)
_RNG = np.random.default_rng(0)
_T = np.sqrt(np.arange(1, 2001))


def _chunk() -> None:
    y, out, bands = _Y, np.empty(_Y.size), []
    lo = hi = 0.0
    for i in range(y.size):
        v = y[i]
        lo, hi = max(lo - 0.1, v - 1.0), min(hi + 0.1, v + 1.0)
        out[i] = lo if lo < hi else 0.5 * (lo + hi)
        bands.append((lo, hi))


def _vector_chunk() -> None:
    s = np.cumsum(_RNG.standard_normal((50, _T.size)), axis=1)
    (np.abs(s) / _T).max(axis=1)


CHUNK = {"loop": _chunk, "vector": _vector_chunk}


def measure(kind: str = "loop") -> float:
    """Median seconds of one chunk of the ``kind`` loop, over CHUNKS chunks."""
    ts = []
    for _ in range(CHUNKS):
        t0 = time.perf_counter()
        CHUNK[kind]()
        ts.append(time.perf_counter() - t0)
    return statistics.median(ts)


class Calibrator:
    """Calibrates intervals against the loops named in ``kinds``."""

    def __init__(self, kinds=("loop",)):
        self.by_kind = {kind: [measure(kind)] for kind in kinds}

    def scale(self, seconds: float, kind: str = "loop") -> float:
        """Calibrated ``seconds`` of an interval of ``kind`` that has just ended.

        Every loop is timed again, so each keeps a sample next to each interval.
        """
        for k, samples in self.by_kind.items():
            samples.append(measure(k))
        samples = self.by_kind[kind]
        return seconds * 2 * REF_S[kind] / (samples[-2] + samples[-1])

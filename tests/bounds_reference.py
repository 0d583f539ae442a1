"""Reference element-wise bounds, evaluated one index at a time.

These are the scalar bodies of ``gfl.bounds.compute_B``, ``compute_B_improved``,
``compute_B_quantile`` and ``bound_report`` as they were before the bounds were
evaluated over index arrays: three terms per index from ``math``, summed by
``np.array([t1, t2, t3]).sum()``.  ``test_bounds_reference.py`` checks that the
package returns the same bits.
"""

from __future__ import annotations

import math

import numpy as np

from gfl.bounds import BoundParams


def seg_length(geometry, i: int) -> int:
    """m_{k(i)}, the length of the segment holding the 1-based index i."""
    return geometry.segment_lengths[geometry.k_of[i - 1] - 1]


def B_terms(i, geometry, params, improved: bool) -> np.ndarray:
    sigma, delta, lam = params.sigma, params.delta, params.lam
    j = i - 1
    d = float(geometry.d[j])
    m = float(seg_length(geometry, i))
    l1d = math.log(1.0 / delta)
    d3 = max(3.0, d)
    t1 = 4.0 * sigma * (math.sqrt(math.log(math.log(2.0 * d3)) / d3) + math.sqrt(l1d / d))
    t2 = 4.0 * sigma * sigma * (math.log(math.log(2.0 * m)) + l1d) / lam
    if improved:
        ml = float(geometry.m_left[j])
        mr = float(geometry.m_right[j])
        lam_part = 2.0 * (lam / ml + lam / mr)
    else:
        lam_part = 2.0 * lam / m
    t3 = 2.0 * math.sqrt(m * sigma * sigma * l1d) / m + lam_part
    return np.array([t1, t2, t3])


def compute_B(i, geometry, params):
    return B_terms(i, geometry, params, improved=False).sum()


def compute_B_improved(i, geometry, params):
    return B_terms(i, geometry, params, improved=True).sum()


def compute_B_quantile(i, geometry, delta, lam):
    return compute_B(i, geometry, BoundParams(sigma=0.5, delta=delta, lam=lam))


def report_arrays(geometry, params, stop=None):
    """B, B_improved and B_quantile at indices 1..stop (default n)."""
    stop = geometry.n if stop is None else stop
    B = np.empty(stop)
    Bi = np.empty(stop)
    Bq = np.empty(stop)
    for i in range(1, stop + 1):
        B[i - 1] = compute_B(i, geometry, params)
        Bi[i - 1] = compute_B_improved(i, geometry, params)
        Bq[i - 1] = compute_B_quantile(i, geometry, params.delta, params.lam)
    return B, Bi, Bq

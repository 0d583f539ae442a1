"""Spans and counters recorded around gfl's layer boundaries.

Nothing in ``src/gfl`` knows about this module.  ``install`` replaces the
public functions at each layer boundary with wrappers (module attributes and
class methods, restored by ``Patches.restore``), so the spans come from the
benchmark's own files.  A span is ``[name, start, end, parent, attrs]``; the
parent index links spans of one top-level operation into a tree.  A layer's
self time is its spans' durations minus the part covered by child spans, so
the self times of all spans add up to the time covered by top-level spans.
"""

from __future__ import annotations

import math
import time
from collections import Counter

import numpy as np

# Span name -> per-layer self-time metric.  The solve span is split by loss.
SELF_METRICS = {
    "cli": "cli.self_s",
    "simulate.run": "simulate.self_s",
    "solver.kkt": "solver.kkt_s",
    "solver.objective": "solver.objective_s",
    "losses.sample": "losses.sample_s",
    "bounds": "bounds.s",
    "signal.geometry": "signal.geometry_s",
    "signal.expand": "signal.expand_s",
    "lil.verify": "lil.verify_s",
}

# Public functions of gfl.bounds; calls nested in another bounds call are
# counted but get no span of their own.
BOUNDS_FUNCS = (
    "bound_report",
    "compute_B",
    "compute_B_improved",
    "compute_B_quantile",
    "elementwise_quantile_bound",
    "admissibility",
    "uniform_quantile_bound",
    "sse_bound_quantile",
    "sse_bound_mean",
    "iterative_sum_check",
    "prob_const",
)
# The per-index formulas; an index evaluation is an outermost call of one.
INDEX_FUNCS = frozenset(
    {"compute_B", "compute_B_improved", "compute_B_quantile", "elementwise_quantile_bound"}
)

REL_TOL = 1e-9


def rel_residual(resid: float, lam: float, y) -> float:
    """KKT residual relative to lambda plus the largest |y|."""
    scale = lam + float(np.max(np.abs(y)))
    return float(resid) / scale if scale > 0 else float(resid)


class FitLog:
    """Certificates of the fits made inside gfl by simulate and the CLI."""

    def __init__(self):
        self.fits = []  # (loss kind, n, relative KKT residual)
        self.step = None  # "shape/loss/n" of a direct fit, put on its solve span

    def drain(self) -> list:
        out, self.fits = self.fits, []
        return out


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = Counter()
        self.bounds_depth = 0
        self.index_depth = 0

    def open(self, name: str, **attrs) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, attrs])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def reset(self) -> None:
        self.spans, self.stack, self.counts = [], [], Counter()

    def wrap(self, name: str, fn, count=None):
        """Span every call of ``fn``; ``count(counts, *args)`` tallies its work."""

        def traced(*args, **kwargs):
            if count is not None:
                count(self.counts, *args, **kwargs)
            idx = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)

        return traced

    def wrap_bounds(self, name: str, fn):
        per_index = name in INDEX_FUNCS

        def traced(*args, **kwargs):
            if per_index and self.index_depth == 0:
                self.counts["bounds.index_evals"] += 1
            idx = None
            if self.bounds_depth == 0:
                self.counts["bounds.calls"] += 1
                idx = self.open("bounds", func=name)
            self.bounds_depth += 1
            self.index_depth += per_index
            try:
                return fn(*args, **kwargs)
            finally:
                self.bounds_depth -= 1
                self.index_depth -= per_index
                if idx is not None:
                    self.close(idx)

        return traced

    def summary(self) -> dict:
        """Self and inclusive seconds per layer, and the solve spans' DP self times.

        ``fits`` holds (step, loss, n, DP self seconds) per solve span; step
        is the direct fit's "shape/loss/n" key, or None inside a CLI call.

        ``top`` is the time covered by top-level spans, which equals the sum
        of all self times.
        """
        child = [0.0] * len(self.spans)
        top = 0.0
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
            else:
                top += t1 - t0
        self_s, incl_s, fits = Counter(), Counter(), []
        for (name, t0, t1, _, attrs), c in zip(self.spans, child):
            incl_s[name] += t1 - t0
            if name == "solver.solve":
                self_s[f"solver.dp_s.{attrs['loss']}"] += t1 - t0 - c
                fits.append((attrs["step"], attrs["loss"], attrs["n"], t1 - t0 - c))
            else:
                self_s[SELF_METRICS[name]] += t1 - t0 - c
        return {"self": self_s, "incl": incl_s, "top": top, "fits": fits}


class Patches:
    """Attribute replacements that ``restore`` undoes in reverse order."""

    def __init__(self):
        self.saved = []

    def set(self, obj, attr, value) -> None:
        self.saved.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def restore(self) -> None:
        while self.saved:
            obj, attr, value = self.saved.pop()
            setattr(obj, attr, value)


def _observed_solve(solve, log: FitLog, tracer: Tracer | None):
    def observed(problem, *args, **kwargs):
        idx = None
        if tracer is not None:
            idx = tracer.open("solver.solve", loss=problem.loss.kind, n=problem.y.size, step=log.step)
        try:
            sol = solve(problem, *args, **kwargs)
        except Exception:
            if tracer is not None:
                tracer.counts["solver.failures"] += 1
            raise
        finally:
            if idx is not None:
                tracer.close(idx)
        rel = rel_residual(sol.kkt_residual, problem.lam, problem.y)
        log.fits.append((problem.loss.kind, problem.y.size, rel))
        if tracer is not None and not rel <= REL_TOL:
            tracer.counts["solver.failures"] += 1
        return sol

    return observed


def _count_reps(counts, spec, *args, **kwargs):
    counts["simulate.replications"] += spec.replications


def _count_steps(counts, noise, horizon, paths, *args, **kwargs):
    counts["lil.steps"] += horizon * paths


def _count_draws(counts, noise, n, *args, **kwargs):
    counts["losses.draws"] += n


def install(g, log: FitLog, tracer: Tracer | None) -> Patches:
    """Route gfl's solve calls through ``log``; with a tracer, span every layer.

    The untraced form only records each fit's certificate, so the fits made
    inside ``gfl simulate`` and ``gfl solve`` can be checked.
    """
    p = Patches()
    solve = _observed_solve(g.solver.solve, log, tracer)
    for mod in (g.solver, g.simulate, g.cli):
        p.set(mod, "solve", solve)
    if tracer is None:
        return p
    p.set(g.solver, "check_kkt", tracer.wrap("solver.kkt", g.solver.check_kkt))
    p.set(g.solver, "objective", tracer.wrap("solver.objective", g.solver.objective))
    p.set(g.cli, "run_experiment", tracer.wrap("simulate.run", g.cli.run_experiment, _count_reps))
    p.set(g.cli, "verify_paths", tracer.wrap("lil.verify", g.cli.verify_paths, _count_steps))
    p.set(
        g.losses.NoiseModel,
        "sample_rng",
        tracer.wrap("losses.sample", g.losses.NoiseModel.sample_rng, _count_draws),
    )
    p.set(g.signal, "compute_geometry", tracer.wrap("signal.geometry", g.signal.compute_geometry))
    p.set(
        g.signal.PiecewiseConstantSignal,
        "expand",
        tracer.wrap("signal.expand", g.signal.PiecewiseConstantSignal.expand),
    )
    for name in BOUNDS_FUNCS:
        p.set(g.bounds, name, tracer.wrap_bounds(name, getattr(g.bounds, name)))
    return p


def loglog_slope(ns, times) -> float:
    """Least-squares slope of log(time) against log(n)."""
    x = np.log(np.asarray(ns, dtype=float))
    y = np.log(np.asarray(times, dtype=float))
    if np.unique(x).size < 2:
        return math.nan
    return float(np.polyfit(x, y, 1)[0])

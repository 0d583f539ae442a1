"""Seeded Monte Carlo experiments: generate data, solve, compare to bounds.

Every experiment is described by an ExperimentSpec (parsed from a JSON config)
and returns a plain-dict result that serializes byte-identically given the
same (spec, seed).  Replication seeds are derived from the base seed with a
splitmix64 mix so replications are independent and order-insensitive.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys

import numpy as np

from . import bounds as bnd
from ._record import Value
from .errors import ConfigError
from .losses import L_plus, NoiseModel, _check_pairing, make_loss
from .signal import PiecewiseConstantSignal
from .solver import FusedLassoProblem, solve

_MASK = (1 << 64) - 1


def splitmix64(x: int) -> int:
    """One splitmix64 step; used to derive per-replication seeds."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def derived_seed(base_seed: int, index: int) -> int:
    return splitmix64((base_seed & _MASK) ^ splitmix64(index & _MASK))


_LAMBDA_RULES = ("fixed", "sqrt_n_over_k", "log_sqrt_n_over_k")
_MONITOR_NAMES = ("all", "interior", "change_points")
# experiments whose quantile-loss bounds are scaled by the growth constant L
_NEEDS_GROWTH_L = ("elementwise_quantile", "sse", "lambda_sweep")

_REQUIRED = object()

# The config format: key -> (type, default).  A type is int, float (any JSON
# number, stored as a float), str, bool, [type] (a JSON list of that type), a
# nested table, a string literal that stands for itself, or a tuple of
# alternative types.  A key whose default is _REQUIRED must be given.
_SCHEMA = {
    "experiment": (str, _REQUIRED),
    "signal": ({"values": ([float], _REQUIRED), "lengths": ([int], _REQUIRED)}, _REQUIRED),
    "noise": (
        {"kind": (str, _REQUIRED), "scale": (float, _REQUIRED), "center_tau": (float, None)},
        _REQUIRED,
    ),
    "loss": ({"kind": (str, _REQUIRED), "tau": (float, None)}, _REQUIRED),
    "lambda": (
        {"rule": (_LAMBDA_RULES, "fixed"), "value": (float, None)},
        {"rule": "sqrt_n_over_k"},
    ),
    "delta": (float, _REQUIRED),
    "replications": (int, 100),
    "seed": (int, _REQUIRED),
    "monitor": ((*_MONITOR_NAMES, [int]), "interior"),
    "growth_L": ((float, "auto"), None),
    "n_sweep": ([int], []),
    "d_grid": ([int], []),
    "lambda_grid": ([float], []),
    "improved": (bool, False),
}

_JSON_TYPES = {int: int, float: (int, float), str: str, bool: bool}
_TYPE_NAMES = {int: "an integer", float: "a number", str: "a string", bool: "true or false"}


def _describe(kind) -> str:
    if isinstance(kind, dict):
        return "a JSON object"
    if isinstance(kind, list):
        return "a JSON list"
    if isinstance(kind, tuple):
        return " or ".join(map(_describe, kind))
    return _TYPE_NAMES.get(kind, repr(kind))


class _BeyondFloat64(ConfigError):
    """A JSON integer beyond float64's range for a number key: the right
    type, so no other alternative of the key's type is tried."""


def _parse(kind, value, what: str):
    """Check ``value`` against the schema type ``kind`` and return it as
    stored: numbers as floats, lists as tuples, tables with defaults filled."""
    if isinstance(kind, tuple):
        for alternative in kind:
            try:
                return _parse(alternative, value, what)
            except _BeyondFloat64:
                raise
            except ConfigError:
                pass
    elif isinstance(kind, dict):
        if isinstance(value, dict):
            unknown = set(value) - set(kind)
            if unknown:
                raise ConfigError(f"unknown {what} keys: {sorted(unknown)}")
            out = {}
            for key, (sub, default) in kind.items():
                v = value.get(key, default)
                if v is _REQUIRED:
                    raise ConfigError(f"{what} missing required key {key!r}")
                name = key if what == "config" else f"{what}.{key}"
                out[key] = None if v is None and default is None else _parse(sub, v, name)
            return out
    elif isinstance(kind, list):
        if isinstance(value, list):
            return tuple(_parse(kind[0], v, f"{what} entry") for v in value)
    elif isinstance(kind, str):
        if value == kind:
            return value
    # bool is an int subclass, and float("0.05") or int(1.5) would coerce
    elif isinstance(value, bool) == (kind is bool) and isinstance(value, _JSON_TYPES[kind]):
        if kind is not float:
            return value
        try:
            return float(value)
        except OverflowError:
            raise _BeyondFloat64(
                f"{what} is beyond float64's range (max {sys.float_info.max:.4g})"
            ) from None
    raise ConfigError(f"{what} must be {_describe(kind)}, got {value!r}")


def _unparse(kind, value):
    """The JSON form of a stored value.  A table reads its keys from a dict or
    an object's attributes and leaves out a key the object lacks (the square
    loss has no tau) and an empty list whose default is empty."""
    if isinstance(value, tuple):
        return list(value)
    if not isinstance(kind, dict):
        return value
    record = value if isinstance(value, dict) else vars(value)
    return {
        key: _unparse(sub, record[key])
        for key, (sub, default) in kind.items()
        if key in record and not (default == [] and not record[key])
    }


class ExperimentSpec(Value):
    """A checked config: one field per _SCHEMA key, with signal, noise and
    loss built into their models and lambda split into rule and value."""

    experiment: str
    signal: PiecewiseConstantSignal
    noise: NoiseModel
    loss: object
    lambda_rule: str
    lambda_value: float | None
    delta: float
    replications: int
    seed: int
    monitor: object
    growth_L: float | None
    n_sweep: tuple
    d_grid: tuple
    lambda_grid: tuple
    improved: bool

    def _check(self):
        if self.experiment not in _RUNNERS:
            raise ConfigError(f"unknown experiment {self.experiment!r}")
        if self.replications < 1:
            raise ConfigError("replications must be >= 1")
        if self.lambda_rule == "fixed" and (
            self.lambda_value is None or not self.lambda_value >= 0
        ):
            raise ConfigError("fixed lambda rule requires a nonnegative value")
        if self.lambda_rule != "fixed" and self.lambda_value is not None:
            raise ConfigError(f"lambda rule {self.lambda_rule!r} takes no value")
        if self.monitor == ():
            raise ConfigError("monitor list is empty")
        if self.d_grid and len(set(self.d_grid)) < 2:
            raise ConfigError("d_grid needs at least two distinct distances to fit a slope")
        bnd._check_count("the sum of signal.lengths", self.signal.n)
        if any(n < 4 for n in self.n_sweep):
            # the n-sweep's interior index is n // 4
            raise ConfigError("n_sweep entries must be >= 4")
        bnd._check_count("the largest n_sweep entry", max(self.n_sweep, default=0))
        _check_pairing(self.loss, self.noise)
        quantile = self.loss.kind == "quantile"
        if self.experiment == "elementwise_quantile" and not quantile:
            raise ConfigError("elementwise_quantile requires the quantile loss")
        if quantile and self.growth_L is None and self.experiment in _NEEDS_GROWTH_L:
            raise ConfigError(f"{self.experiment} with the quantile loss requires growth_L")
        if self.growth_L is not None:
            bnd._check_growth_L(self.growth_L)

    @classmethod
    def from_config(cls, cfg: dict) -> "ExperimentSpec":
        c = _parse(_SCHEMA, cfg, "config")
        lam = c.pop("lambda")
        noise = NoiseModel(**c.pop("noise"))
        if c["growth_L"] == "auto":
            c["growth_L"] = noise.growth_constant()
        return cls(
            signal=PiecewiseConstantSignal(**c.pop("signal")),
            noise=noise,
            loss=make_loss(**c.pop("loss")),
            lambda_rule=lam["rule"],
            lambda_value=lam["value"],
            **c,
        )

    def to_config(self) -> dict:
        lam = {"rule": self.lambda_rule, "value": self.lambda_value}
        return _unparse(_SCHEMA, vars(self) | {"lambda": lam})

    def config_hash(self) -> str:
        return hash_config(self.to_config())


def hash_config(cfg) -> str:
    """SHA-256 of the sorted-key JSON form of ``cfg``: the config hash that
    every output file carries."""
    return hashlib.sha256(json.dumps(cfg, sort_keys=True).encode()).hexdigest()


def resolve_lambda(rule: str, value: float | None, n: int, K: int) -> float:
    if rule == "fixed":
        return float(value)
    if rule == "sqrt_n_over_k":
        return math.sqrt(n / K)
    if rule == "log_sqrt_n_over_k":
        return math.log(n) * math.sqrt(n / K)
    raise ConfigError(f"unknown lambda rule {rule!r}")


def monitored_indices(geometry, monitor) -> np.ndarray:
    """Resolve a monitor set to sorted 1-based indices."""
    if isinstance(monitor, str):
        if monitor == "all":
            return np.arange(1, geometry.n + 1)
        if monitor == "interior":
            floor = max(3, geometry.m_min // 4)
            return np.flatnonzero(geometry.d >= floor) + 1
        if monitor == "change_points":
            return np.flatnonzero(geometry.d == 1) + 1
        raise ConfigError(f"unknown monitor set {monitor!r}")
    # compared as Python ints: an index past int64 is out of range, not an OverflowError
    idx = sorted(set(monitor))
    if not idx or idx[0] < 1 or idx[-1] > geometry.n:
        raise ConfigError("monitored indices out of range")
    return np.asarray(idx, dtype=np.int64)


def _provenance(spec: ExperimentSpec) -> dict:
    from . import __version__

    return {
        "config_hash": spec.config_hash(),
        "seed": spec.seed,
        "version": __version__,
    }


def _setup(spec: ExperimentSpec):
    """Geometry, truth theta* and the resolved lambda of the spec's signal."""
    signal = spec.signal
    lam = resolve_lambda(spec.lambda_rule, spec.lambda_value, signal.n, signal.K)
    return signal.geometry(), signal.expand(), lam


def _fits(spec: ExperimentSpec, theta_star: np.ndarray, lams, offset: int = 0):
    """The replication engine: for each replication r, draw y = theta* + eps
    from the generator seeded with derived_seed(seed, offset + r) and yield
    the list of fits theta_hat, one per lambda in ``lams``.

    Every lambda sees the same draw, so a grid of lambdas is a paired
    comparison.  Sub-experiments that need their own streams pass disjoint
    offsets.
    """
    for r in range(spec.replications):
        rng = np.random.default_rng(derived_seed(spec.seed, offset + r))
        y = theta_star + spec.noise.sample_rng(theta_star.size, rng)
        yield [solve(FusedLassoProblem(y=y, lam=lam, loss=spec.loss)).theta_hat for lam in lams]


def _verdict(p_bound: float, worst: float, R: int) -> dict:
    """Compare the largest observed frequency with the bound's probability,
    allowing three binomial standard errors of slack."""
    p = min(p_bound, 1.0)
    slack = 3.0 * math.sqrt(worst * (1.0 - worst) / R)
    return {
        "probability_bound": p,
        "probability_bound_raw": p_bound,
        "binomial_slack": slack,
        "passed": worst <= p + slack,
    }


def run_pointwise(spec: ExperimentSpec) -> dict:
    """Frequencies of the two pointwise bound events at each monitored index.

    Events: {L+(err_i) <= -B_i} and {L-(err_i) >= B_i}, each guaranteed to
    have probability at most prob_const() * delta^2.
    """
    geom, theta_star, lam = _setup(spec)
    sigma = spec.noise.sigma_for(spec.loss)
    params = bnd.BoundParams(sigma=sigma, delta=spec.delta, lam=lam)
    idx = monitored_indices(geom, spec.monitor)
    B = bnd.compute_B(idx, geom, params)

    R = spec.replications
    lower_hits = np.zeros(idx.size, dtype=np.int64)
    upper_hits = np.zeros(idx.size, dtype=np.int64)
    abs_err_sum = np.zeros(idx.size)
    cross_check_ok = True
    at, neg_B = idx - 1, -B
    star = theta_star[at]
    for (theta,) in _fits(spec, theta_star, [lam]):
        err = theta[at] - star
        # one array for both events: L_minus is L_plus for every supported noise
        L_err = L_plus(spec.loss, spec.noise, err)
        ev_lo = L_err <= neg_B
        ev_hi = L_err >= B
        lower_hits += ev_lo
        upper_hits += ev_hi
        abs_err_sum += np.abs(err)
        if spec.loss.kind == "square":
            # for the square loss L(t) = -t, so the event is just err >= B
            if not (np.array_equal(ev_lo, err >= B) and np.array_equal(ev_hi, err <= neg_B)):
                cross_check_ok = False

    p_bound = bnd.prob_const() * spec.delta**2
    # each column divided once, then read as Python numbers
    f_lo = (lower_hits / R).tolist()
    f_hi = (upper_hits / R).tolist()
    worst = max([0.0, *f_lo, *f_hi])
    rows = [
        {"i": i, "k": k, "d": d, "B": b, "freq_lower": lo, "freq_upper": hi, "mean_abs_err": e}
        for i, k, d, b, lo, hi, e in zip(
            idx.tolist(),
            geom.k_of[at].tolist(),
            geom.d[at].tolist(),
            B.tolist(),
            f_lo,
            f_hi,
            (abs_err_sum / R).tolist(),
        )
    ]
    return {
        "experiment": "pointwise",
        "lambda": lam,
        "sigma": sigma,
        "delta": spec.delta,
        "replications": R,
        "vacuous": p_bound >= 1.0,
        "max_frequency": worst,
        "event_form_cross_check": cross_check_ok,
        "per_index": rows,
        "provenance": _provenance(spec),
    } | _verdict(p_bound, worst, R)


def run_elementwise_quantile(spec: ExperimentSpec) -> dict:
    """Frequency of {|err_i| > B_quantile/L} at admissible monitored indices."""
    geom, theta_star, lam = _setup(spec)
    L = spec.growth_L
    idx_all = monitored_indices(geom, spec.monitor)
    pb = bnd.elementwise_quantile_bound(idx_all, geom, spec.delta, lam, L)
    idx = idx_all[pb.applicable]
    excluded = idx_all[~pb.applicable].tolist()
    bound_vals = pb.value[pb.applicable]

    R = spec.replications
    hits = np.zeros(idx.size, dtype=np.int64)
    at = idx - 1
    star = theta_star[at]
    for (theta,) in _fits(spec, theta_star, [lam]):
        hits += np.abs(theta[at] - star) > bound_vals
    worst = float(hits.max() / R) if idx.size else 0.0
    return {
        "experiment": "elementwise_quantile",
        "lambda": lam,
        "delta": spec.delta,
        "growth_L": L,
        "replications": R,
        "monitored": idx.tolist(),
        "excluded_not_admissible": excluded,
        "max_frequency": worst,
        "per_index": [
            {"i": i, "bound": b, "freq": f}
            for i, b, f in zip(idx.tolist(), bound_vals.tolist(), (hits / R).tolist())
        ],
        "provenance": _provenance(spec),
    } | _verdict(2.0 * bnd.prob_const() * spec.delta**2, worst, R)


def _sse_bound(spec: ExperimentSpec, geom, lam: float, improved: bool):
    """The sum-of-squares bound for the spec's loss: the quantile bound with
    growth_L, or the mean bound with the noise's sub-Gaussian parameter,
    which has no window preconditions."""
    if spec.loss.kind == "quantile":
        return bnd.sse_bound_quantile(geom, spec.delta, lam, spec.growth_L, improved=improved)
    sigma = spec.noise.sigma_for(spec.loss)
    return bnd.sse_bound_mean(geom, spec.delta, lam, sigma, improved=improved)


def run_sse(spec: ExperimentSpec) -> dict:
    """Frequency of {sum of squared errors > bound}, original and improved.

    Also checks the crude uniform range-containment event (quantile only):
    every fitted value within B_uniform/L of the truth's range.
    """
    geom, theta_star, lam = _setup(spec)
    sse_orig = _sse_bound(spec, geom, lam, improved=False)
    sse_impr = _sse_bound(spec, geom, lam, improved=True)
    uni = None
    if spec.loss.kind == "quantile":
        uni = bnd.uniform_quantile_bound(geom.n, math.sqrt(spec.delta), lam, spec.growth_L)

    R = spec.replications
    sse_samples = np.empty(R)
    range_violations = 0
    lo_star = theta_star.min()
    hi_star = theta_star.max()
    for r, (theta,) in enumerate(_fits(spec, theta_star, [lam])):
        sse_samples[r] = float(np.sum((theta - theta_star) ** 2))
        if uni is not None and uni.applicable:
            if theta.min() < lo_star - uni.value or theta.max() > hi_star + uni.value:
                range_violations += 1

    f_orig = float(np.mean(sse_samples > sse_orig.bound))
    f_impr = float(np.mean(sse_samples > sse_impr.bound))
    out = {
        "experiment": "sse",
        "lambda": lam,
        "delta": spec.delta,
        "replications": R,
        "bound_original": sse_orig.bound,
        "bound_improved": sse_impr.bound,
        "preconditions_hold": not sse_orig.precondition_failures,
        "precondition_failures": list(sse_orig.precondition_failures),
        "terms_original": sse_orig.terms,
        "terms_improved": sse_impr.terms,
        "freq_exceed_original": f_orig,
        "freq_exceed_improved": f_impr,
        "sse_median": float(np.median(sse_samples)),
        "sse_max": float(np.max(sse_samples)),
        "ratio_median_original": float(np.median(sse_samples) / sse_orig.bound),
        "sse_samples": sse_samples.tolist(),
        "provenance": _provenance(spec),
    } | _verdict(4.0 * bnd.prob_const() * spec.delta, max(f_orig, f_impr), R)
    if uni is not None:
        uni_p = 2.0 * bnd.prob_const() * spec.delta  # delta here is sqrt(config delta)^2
        out["uniform_range"] = {
            "applicable": bool(uni.applicable),
            "half_width": uni.value,
            "freq_violation": range_violations / R,
            "probability_bound": min(uni_p, 1.0),
        }
    return out


def _median_abs_err_at(spec, theta_star, lam, indices, offset=0) -> np.ndarray:
    at = np.asarray(indices, dtype=np.int64) - 1
    star = theta_star[at]
    errs = [np.abs(theta[at] - star) for (theta,) in _fits(spec, theta_star, [lam], offset)]
    return np.median(errs, axis=0)


def run_rate_sweep(spec: ExperimentSpec) -> dict:
    """Two rate diagnostics.

    (a) d-sweep: median |err_i| against the distance d_i to the change point,
        on the configured signal; reports the log-log least-squares slope.
    (b) n-sweep: a single mid change point at each n; the change-point median
        error should stay flat (max/min ratio) while the interior error
        shrinks.
    """
    out = {"experiment": "rate_sweep", "provenance": _provenance(spec)}

    if spec.d_grid:
        geom, theta_star, lam = _setup(spec)
        cp = geom.change_points[1]  # first change point (start of segment 2)
        indices = []
        for dd in spec.d_grid:
            i = cp - dd  # inside segment 1, at distance exactly dd
            if not (1 <= i <= geom.n and geom.d[i - 1] == dd):
                raise ConfigError(f"d={dd} not realizable on this signal")
            indices.append(i)
        med = _median_abs_err_at(spec, theta_star, lam, indices)
        x = np.log(np.asarray(spec.d_grid, dtype=float))
        yv = np.log(med)
        slope = float(np.polyfit(x, yv, 1)[0])
        out["d_sweep"] = {
            "lambda": lam,
            "d": list(spec.d_grid),
            "median_err": med.tolist(),
            "slope": slope,
        }

    if spec.n_sweep:
        jump = abs(spec.signal.values[-1] - spec.signal.values[0]) or 1.0
        # size j draws replications stride * (j + 1) onward, past the
        # d-sweep's 0..R-1 and every other size's streams
        stride = max(1000, spec.replications)
        rows = []
        for j, n in enumerate(spec.n_sweep):
            half = n // 2
            sig = PiecewiseConstantSignal([0.0, jump], [half, n - half])
            lam = resolve_lambda(spec.lambda_rule, spec.lambda_value, sig.n, sig.K)
            cp_i = half  # last index of segment 1: d = 1
            int_i = half // 2  # deep interior: d = about n/4
            med = _median_abs_err_at(
                spec, sig.expand(), lam, [cp_i, int_i], offset=stride * (j + 1)
            )
            rows.append(
                {
                    "n": int(n),
                    "lambda": lam,
                    "median_err_change_point": float(med[0]),
                    "median_err_interior": float(med[1]),
                }
            )
        cps = [r["median_err_change_point"] for r in rows]
        ints = [r["median_err_interior"] for r in rows]
        out["n_sweep"] = {
            "rows": rows,
            "change_point_ratio": max(cps) / min(cps),
            "interior_shrink_factor": max(ints) / min(ints),
        }
    return out


def run_lambda_sweep(spec: ExperimentSpec) -> dict:
    """Empirical SSE and the SSE bound across a lambda grid.

    One data draw per replication is reused for every lambda, so the grid
    comparison is paired.  Reports the empirical-argmin lambda, the
    bound-argmin lambda (where the bound's preconditions hold), and whether
    both fall in a x8 window of sqrt(n/K).
    """
    geom, theta_star, _ = _setup(spec)
    ref = math.sqrt(geom.n / geom.K)
    grid = list(spec.lambda_grid) or [ref * 2.0**e for e in range(-4, 5)]

    bound_vals = []
    for lam in grid:
        b = _sse_bound(spec, geom, lam, spec.improved)
        bound_vals.append(None if b.precondition_failures else b.bound)

    sse = [
        [float(np.sum((theta - theta_star) ** 2)) for theta in thetas]
        for thetas in _fits(spec, theta_star, grid)
    ]
    mean_sse = np.mean(sse, axis=0)

    emp_arg = grid[int(np.argmin(mean_sse))]
    valid = [(v, lam) for v, lam in zip(bound_vals, grid) if v is not None]
    bound_arg = min(valid)[1] if valid else None
    in_window = lambda lam: lam is not None and ref / 8.0 <= lam <= ref * 8.0
    return {
        "experiment": "lambda_sweep",
        "lambda_grid": grid,
        "mean_sse": mean_sse.tolist(),
        "bound": bound_vals,
        "replications": spec.replications,
        "reference_lambda": ref,
        "empirical_argmin": emp_arg,
        "bound_argmin": bound_arg,
        "empirical_in_window": in_window(emp_arg),
        "bound_in_window": in_window(bound_arg),
        "provenance": _provenance(spec),
    }


_RUNNERS = {
    "pointwise": run_pointwise,
    "elementwise_quantile": run_elementwise_quantile,
    "sse": run_sse,
    "rate_sweep": run_rate_sweep,
    "lambda_sweep": run_lambda_sweep,
}


def run_experiment(spec: ExperimentSpec) -> dict:
    return _RUNNERS[spec.experiment](spec)


__all__ = [
    "ExperimentSpec",
    "splitmix64",
    "derived_seed",
    "resolve_lambda",
    "monitored_indices",
    "run_pointwise",
    "run_elementwise_quantile",
    "run_sse",
    "run_rate_sweep",
    "run_lambda_sweep",
    "run_experiment",
]

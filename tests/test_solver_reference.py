"""The solver's C kernels return the same bits as the class-based,
numpy-scalar reference in ``solver_reference.py`` (signed zeros included)."""

import hashlib
import itertools
import math

import numpy as np
import pytest

import solver_reference as ref
from gfl.losses import QuantileLoss, SquareLoss
from gfl.solver import FusedLassoProblem, check_kkt, solve

SHAPES = ("gaussian", "tied", "cauchy", "ramp", "step", "walk")
TAUS = (0.1, 0.25, 0.5, 0.9, None)  # None: drawn uniformly from (0.05, 0.95)


def bits(x) -> np.ndarray:
    """Bit patterns of a float vector or scalar, so -0.0 != 0.0."""
    return np.array(x, dtype=float, ndmin=1).view(np.int64)


def assert_same_bits(got, want):
    assert bits(got).shape == bits(want).shape
    np.testing.assert_array_equal(bits(got), bits(want))


def draw_y(rng, shape: str, n: int) -> np.ndarray:
    if shape == "gaussian":
        return rng.normal(0.0, 2.0, n)
    if shape == "tied":
        return rng.integers(-3, 4, n).astype(float)
    if shape == "cauchy":
        return rng.standard_cauchy(n)
    if shape == "ramp":
        return np.linspace(0.0, 10.0, n) + rng.normal(0.0, 0.1, n)
    if shape == "step":
        return np.where(np.arange(n) < n // 2, 0.0, 3.0) + rng.normal(0.0, 1.0, n)
    return np.cumsum(rng.normal(0.0, 1.0, n))


def draw_lam(rng, n: int):
    """0, a Python int, 0.01, sqrt(n) as float and np.float64, 1e3, or log-uniform."""
    choices = (
        0.0,
        int(rng.integers(1, 6)),
        0.01,
        math.sqrt(n),
        np.sqrt(n),
        1e3,
        float(np.exp(rng.uniform(-3.0, 3.0))),
    )
    return choices[rng.integers(len(choices))]


def draw_loss(rng, k: int):
    if k % 3 == 0:
        return SquareLoss()
    tau = TAUS[(k // 3) % len(TAUS)]
    return QuantileLoss(float(rng.uniform(0.05, 0.95)) if tau is None else tau)


def draw_problem(rng, k: int):
    shape = SHAPES[k % len(SHAPES)]
    n = (1, 2)[k % 2] if k % 10 == 0 else int(rng.integers(3, 160))
    return draw_y(rng, shape, n), draw_lam(rng, n), draw_loss(rng, k)


def fixed_problems():
    """Zero inputs, whose theta_hat must keep the sign of the reference's zero,
    then one step and one walk input at n = 2^16 per loss, so that no
    size-dependent path of the DP goes untested."""
    rng = np.random.default_rng(20260122)
    n = 2**16
    for loss in (SquareLoss(), QuantileLoss(0.3)):
        for y in ([0.0], [-0.0], [0.0, 0.0]):
            yield np.array(y), 1.0, loss
        for shape in ("step", "walk"):
            yield draw_y(rng, shape, n), math.sqrt(n), loss


def boundary_problems():
    """Inputs that reach the C kernels in another form than a contiguous
    float64 vector and a float lambda: a strided view, integer and float32
    arrays, the shortest chains, lambda = 0 and a Python int lambda."""
    rng = np.random.default_rng(20260124)
    y = rng.normal(0.0, 2.0, 41)
    for loss in (SquareLoss(), QuantileLoss(0.3)):
        yield y[::2], 1.5, loss
        yield rng.integers(-3, 4, 30), 1.0, loss
        yield y.astype(np.float32), 2.0, loss
        yield y[:1], 1.0, loss
        yield y[:2], 0.5, loss
        yield y, 0.0, loss
        yield y, 3, loss


def test_solve_matches_reference_bitwise():
    rng = np.random.default_rng(20260118)
    drawn = (draw_problem(rng, k) for k in range(2000))
    for y, lam, loss in itertools.chain(drawn, fixed_problems(), boundary_problems()):
        problem = FusedLassoProblem(y=y, lam=lam, loss=loss)
        sol = solve(problem)
        theta = ref.solve_path(y, lam, loss)
        resid, z = ref.check_kkt(problem, theta)
        assert_same_bits(sol.theta_hat, theta)
        assert_same_bits(check_kkt(problem, sol.theta_hat)[1], z)
        assert_same_bits(sol.kkt_residual, resid)


@pytest.mark.parametrize(("shape", "n"), [("walk", 2**14), ("step", 2**15), ("ramp", 2**16)])
def test_step_message_window_matches_reference_bitwise(shape, n):
    """Long quantile fits, in which left crossings delete many breakpoints by
    moving the step message's window start (``_kernels.c``), at a small and
    a large lambda."""
    y = draw_y(np.random.default_rng(20260125), shape, n)
    loss = QuantileLoss(0.3)
    for lam in (1.0, math.sqrt(n)):
        problem = FusedLassoProblem(y=y, lam=lam, loss=loss)
        sol = solve(problem)
        theta = ref.solve_path(y, lam, loss)
        assert_same_bits(sol.theta_hat, theta)
        assert_same_bits(sol.kkt_residual, ref.check_kkt(problem, theta)[0])


# SHA-256 of theta_hat's bytes and kkt_residual.hex() of quantile fits past
# the sizes the reference runs at, as the DP computed them while it kept its
# breakpoints and jumps in two sorted arrays, before the window of pairs
# (inputs from draw_y, seed 20260126, lambda = sqrt(n)).
LARGE_PINS = {
    ("step", 18, 0.5): ("d0eb51409ff8ea904465ef6bd949293a098eba1bb61a64e47afaa671ffe1150c", "0x0.0p+0"),
    ("step", 18, 0.3): ("59dcbc836a3e680b37b47693dc3b1f89051b4cc240bbb4b2612885c5ec6790cb", "0x1.0b38000000000p-30"),
    ("ramp", 18, 0.5): ("f60c790c058f9c6ab33272e6c432c41005c33c64073642472139b2d57fd960dd", "0x0.0p+0"),
    ("ramp", 18, 0.3): ("edae716ee524ae89294968159f9283180f3624da5aba9365206539c1bb13dcd9", "0x1.ddb2800000000p-36"),
    ("walk", 18, 0.5): ("3d75e230d2c48d16c573d8704c8671a2fc139633aa493e27e7120d3fd10b9fd8", "0x0.0p+0"),
    ("walk", 18, 0.3): ("9a0c0c3d5a70a099b9a022b5aaf98e0b47c2da67c53be8199098029787567333", "0x1.1680000000000p-35"),
    ("step", 20, 0.5): ("2c831a397dad7351a9b16187bf2f9eb2ec7dd569d083b7bd5f56f519cab3ee8c", "0x0.0p+0"),
    ("step", 20, 0.3): ("6e64d6a00c91c76141359cb3129c6b4dac3ff54a81ed5a58a4a72fa05751ee43", "0x0.0p+0"),
    ("ramp", 20, 0.5): ("18e3dde86243254cb569c70ba9ad506efa453c9f511e9baa26e8ff1c99d5e3b3", "0x0.0p+0"),
    ("ramp", 20, 0.3): ("73954a80734531ba56b8d29356f8cb389fd3f1c57e20ee8137235d33a41607d3", "0x0.0p+0"),
    ("walk", 20, 0.5): ("6b0bf60f73c3b6ad7a314f12ea8cfd1feeaa62b490ec0d0ec01de68fbfd75712", "0x0.0p+0"),
    ("walk", 20, 0.3): ("397c0333896e540d19eb6eff97474e32cfab6514ab5cf18eaca3db55cbd27384", "0x0.0p+0"),
}


@pytest.mark.parametrize(
    ("shape", "log2_n"), [(s, e) for e in (18, 20) for s in ("step", "ramp", "walk")]
)
def test_quantile_fits_past_2_16_match_pinned_bits(shape, log2_n):
    """The DP at 2^18 and 2^20, where the reference is too slow to run,
    keeps the bits recorded before its breakpoints became a window of
    pairs."""
    n = 2**log2_n
    y = draw_y(np.random.default_rng(20260126), shape, n)
    for tau in (0.5, 0.3):
        sol = solve(FusedLassoProblem(y=y, lam=math.sqrt(n), loss=QuantileLoss(tau)))
        got = hashlib.sha256(sol.theta_hat.tobytes()).hexdigest(), sol.kkt_residual.hex()
        assert got == LARGE_PINS[shape, log2_n, tau]


def test_check_kkt_matches_reference_off_optimum():
    """Non-optimal and rounded theta: positive residuals, and z passing
    through 0.0 and -0.0."""
    rng = np.random.default_rng(20260120)
    positive = zero_z = negative_zero_z = 0
    for k in range(1400):
        y, lam, loss = draw_problem(rng, k)
        problem = FusedLassoProblem(y=y, lam=lam, loss=loss)
        theta_hat = ref.solve_path(y, lam, loss)
        candidates = (
            np.round(theta_hat, 1),
            np.round(theta_hat),
            theta_hat + rng.normal(0.0, 0.05, y.size),
            y,
            np.full(y.size, float(np.median(y))),
            np.zeros(y.size),
            rng.integers(-3, 4, y.size).astype(float),
        )
        theta = candidates[k % len(candidates)]
        resid, z = check_kkt(problem, theta)
        want_resid, want_z = ref.check_kkt(problem, theta)
        assert_same_bits(z, want_z)
        assert_same_bits(resid, want_resid)
        positive += want_resid > 0.0
        zero_z += bool(np.any(want_z == 0.0))
        negative_zero_z += bool(np.any((want_z == 0.0) & np.signbit(want_z)))
    assert positive > 1000 and zero_z > 100 and negative_zero_z > 5


def test_check_kkt_matches_reference_on_integer_ties():
    """Small integer y and theta with lam in {0, 0.5, 1}: the band bounds tie
    with the edge bounds (0.0 against -0.0, int against float) all the time,
    so a max/min that breaks ties the other way changes the bits."""
    rng = np.random.default_rng(20260121)
    losses = (SquareLoss(), QuantileLoss(0.5), QuantileLoss(0.25))
    lams = (0.0, 0, 0.5, 1.0, 1)
    for k in range(4000):
        n = int(rng.integers(1, 10))
        y = rng.integers(-2, 3, n).astype(float)
        theta = rng.integers(-2, 3, n).astype(float)
        problem = FusedLassoProblem(y=y, lam=lams[k % 5], loss=losses[k % 3])
        resid, z = check_kkt(problem, theta)
        want_resid, want_z = ref.check_kkt(problem, theta)
        assert_same_bits(z, want_z)
        assert_same_bits(resid, want_resid)


@pytest.mark.parametrize("loss", [SquareLoss(), QuantileLoss(0.3)], ids=["square", "quantile"])
@pytest.mark.parametrize("n", [1, 2, 7])
@pytest.mark.parametrize("lam", [0.0, 1.5])
def test_solution_arrays_are_writable_float64(loss, n, lam):
    y = np.arange(n, dtype=float) ** 2
    problem = FusedLassoProblem(y=y, lam=lam, loss=loss)
    sol = solve(problem)
    for arr, size in ((sol.theta_hat, n), (check_kkt(problem, sol.theta_hat)[1], n - 1)):
        assert isinstance(arr, np.ndarray)
        assert arr.dtype == np.float64 and arr.shape == (size,)
        assert arr.flags.writeable and arr.flags.c_contiguous
    assert isinstance(sol.kkt_residual, float)

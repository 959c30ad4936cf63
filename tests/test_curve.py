import math

import numpy as np
import pytest

from cauchylab import InputError, LipschitzCurve, eval_A

FLAT = LipschitzCurve.flat()
AFFINE = LipschitzCurve.affine(0.5)
SAW = LipschitzCurve.sawtooth(1.0, 4.0)
BUMP = LipschitzCurve.smooth_bump(1.0, 2.0)


def test_eval_examples():
    assert eval_A(FLAT, 3.7) == 0.0
    assert eval_A(AFFINE, 2.0) == 1.0
    assert eval_A(SAW, 1.0) == 1.0


def test_sawtooth_shape():
    # One full period: up to the peak, down through the trough, back to zero.
    xs = np.array([0.0, 1.0, 2.0, 3.0, 4.0, 5.0])
    np.testing.assert_allclose(eval_A(SAW, xs), [0, 1, 0, -1, 0, 1], atol=1e-15)


def _triangle(u):
    return np.where(u < 0.25, 4.0 * u, np.where(u < 0.75, 4.0 * (0.5 - u), 4.0 * (u - 1.0)))


@pytest.mark.parametrize("period", [0.5, 2.0])
def test_sawtooth_phase_equals_mod_for_power_of_two_periods(period):
    # The phase x / period less its floor equals np.mod(x, period) / period
    # bit for bit here, also at -0.0, just below 0 and at |x| past 2^49,
    # and a power-of-two period keeps that quotient phase.
    xs = np.concatenate([np.linspace(-9.0, 9.0, 4097),
                         np.random.default_rng(8191).uniform(-50.0, 50.0, 4096),
                         [-1e-20, -0.0, 1e15 + 0.5, -(1e15 + 0.5), np.nextafter(0.0, -1.0)]])
    want = 0.5 * _triangle(np.mod(xs, period) / period)
    quotient = xs / period
    quotient -= np.floor(quotient)
    curve = LipschitzCurve.sawtooth(0.5, period)
    assert np.array_equal(eval_A(curve, xs), want)
    assert np.array_equal(eval_A(curve, xs), 0.5 * _triangle(quotient))
    assert [eval_A(curve, float(x)) for x in xs[-5:]] == want[-5:].tolist()


@pytest.mark.parametrize("period", [3.0, 0.3])
def test_sawtooth_phase_is_exact_for_other_periods(period):
    # The phase is the exact remainder over the period: x / period would
    # round before its floor is taken and lose up to 2^-53 |x / period|.
    rng = np.random.default_rng(26)
    xs = np.concatenate([rng.uniform(-1e8, 1e8, 2000), [1e8 - 0.1, -1e8 + 0.1, -1e-20, -0.0],
                         period * np.arange(-5, 6)])
    phases = [math.fmod(x, period) for x in xs]
    u = np.array([r + period if r < 0 else r for r in phases]) / period
    curve = LipschitzCurve.sawtooth(0.5, period)
    assert np.array_equal(eval_A(curve, xs), 0.5 * _triangle(u))
    assert eval_A(curve, float(xs[0])) == 0.5 * _triangle(u[0])


def test_stored_constants():
    assert FLAT.lipschitz_constant == 0.0
    assert AFFINE.lipschitz_constant == 0.5
    assert SAW.lipschitz_constant == 1.0
    assert BUMP.lipschitz_constant == pytest.approx(0.5 * math.sqrt(2 / math.e))


def test_smooth_bump_slope_is_sharp():
    # Dense difference quotients approach the stored constant from below.
    xs = np.linspace(-6, 6, 200001)
    quot = np.abs(np.diff(eval_A(BUMP, xs))) / np.diff(xs)
    assert np.max(quot) <= BUMP.lipschitz_constant
    assert np.max(quot) >= BUMP.lipschitz_constant * 0.999


@pytest.mark.parametrize(
    "curve",
    [
        FLAT,
        AFFINE,
        LipschitzCurve.affine(-2.0),
        SAW,
        LipschitzCurve.sawtooth(0.5, 2.0),
        BUMP,
    ],
)
def test_difference_quotient_never_exceeds_L(curve, rng):
    pairs = rng.uniform(-100, 100, size=(10_000, 2))
    gaps = np.abs(pairs[:, 0] - pairs[:, 1])
    pairs = pairs[gaps > 0]
    quot = np.abs(eval_A(curve, pairs[:, 0]) - eval_A(curve, pairs[:, 1])) / np.abs(
        pairs[:, 0] - pairs[:, 1]
    )
    assert np.all(quot <= curve.lipschitz_constant * (1 + 1e-12))


def test_parameter_validation():
    with pytest.raises(InputError):
        LipschitzCurve.sawtooth(1.0, 0.0)
    with pytest.raises(InputError):
        LipschitzCurve.smooth_bump(1.0, -1.0)


@pytest.mark.parametrize("period", [np.inf, -np.inf, np.nan])
def test_sawtooth_period_must_be_finite(period):
    # An infinite period would make A, and every kernel value on the curve, NaN.
    with pytest.raises(InputError, match="sawtooth period must be positive and finite"):
        LipschitzCurve.sawtooth(0.5, period)


@pytest.mark.parametrize("build, args", [
    (LipschitzCurve.sawtooth, (1e308, 0.001)),
    (LipschitzCurve.sawtooth, (0.5, 1e-320)),
    (LipschitzCurve.smooth_bump, (1e308, 1e-10)),
], ids=["sawtooth.amplitude", "sawtooth.period", "smooth_bump"])
def test_lipschitz_constant_must_be_finite(build, args):
    # Finite parameters whose slope overflows would give inf kernel bounds and NaN kernels.
    with pytest.raises(InputError, match="Lipschitz constant .* is not finite"):
        build(*args)

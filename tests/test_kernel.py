import numpy as np
import pytest

from cauchylab import (
    CauchyKernel,
    InputError,
    LipschitzCurve,
    SingularityError,
    check_size,
    check_smoothness,
    eval_kernel,
    kernel_modulus,
    random_size_sweep,
    random_smoothness_sweep,
)

FLAT = CauchyKernel.for_curve(LipschitzCurve.flat())
AFFINE1 = CauchyKernel.for_curve(LipschitzCurve.affine(1.0))
SAW = CauchyKernel.for_curve(LipschitzCurve.sawtooth(1.0, 4.0))


def test_eval_examples():
    assert eval_kernel(FLAT, 0.0, 2.0) == 0.5 + 0j
    assert eval_kernel(AFFINE1, 0.0, 1.0) == pytest.approx(0.5 - 0.5j)
    assert eval_kernel(FLAT, 0.0, -2.0) == -0.5 + 0j


def test_constants():
    assert FLAT.smoothness_constant == 2.0
    assert AFFINE1.smoothness_constant == 4.0


def test_singularity():
    with pytest.raises(SingularityError):
        eval_kernel(FLAT, 1.0, 1.0)
    with pytest.raises(SingularityError):
        kernel_modulus(SAW, np.array([0.0, 1.0]), np.array([2.0, 1.0]))


def test_size_flat_equality_case():
    rep = check_size(FLAT, 0.0, 2.0)
    assert rep.passed
    assert rep.columns["lhs"][0] == rep.columns["rhs"][0] == 0.5


def test_size_affine_value():
    rep = check_size(AFFINE1, 0.0, 1.0)
    assert rep.passed
    assert rep.columns["lhs"][0] == pytest.approx(2 ** -0.5)
    assert rep.columns["rhs"][0] == 1.0


def test_size_sweep_sawtooth(rng):
    rep = random_size_sweep(SAW, 100_000, rng)
    assert rep.passed and rep.extras["n_violations"] == 0


def test_smoothness_trivial_and_arithmetic():
    rep = check_smoothness(FLAT, 0.0, 2.0, 2.0)
    assert rep.columns["lhs"][0] == 0.0 and rep.passed
    rep = check_smoothness(FLAT, 0.0, 2.0, 2.5)
    assert rep.columns["lhs"][0] == pytest.approx(0.1)
    assert rep.columns["rhs"][0] == pytest.approx(0.25)
    assert rep.passed


def test_smoothness_sweeps(rng):
    for transposed in (False, True):
        rep = random_smoothness_sweep(SAW, 100_000, rng, transposed=transposed)
        assert rep.passed and rep.extras["n_violations"] == 0


def test_smoothness_precondition_rejected():
    with pytest.raises(InputError, match="inadmissible"):
        check_smoothness(FLAT, 0.0, 1.0, 3.0)


def test_flat_antisymmetry_exact(rng):
    x = rng.uniform(-10, 10, 256)
    y = rng.uniform(-10, 10, 256)
    keep = x != y
    k_xy = eval_kernel(FLAT, x[keep], y[keep])
    k_yx = eval_kernel(FLAT, y[keep], x[keep])
    np.testing.assert_array_equal(k_xy, -k_yx)


def test_modulus_symmetry_exact(rng):
    x = rng.uniform(-10, 10, 256)
    y = rng.uniform(-10, 10, 256)
    keep = x != y
    m_xy = kernel_modulus(SAW, x[keep], y[keep])
    m_yx = kernel_modulus(SAW, y[keep], x[keep])
    np.testing.assert_array_equal(m_xy, m_yx)


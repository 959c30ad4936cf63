import numpy as np
import pytest

from cauchylab import (
    CauchyKernel,
    HomogeneityCase,
    InputError,
    Interval,
    LipschitzCurve,
    apply_commutator,
    commutator_norm_lower,
    homogeneity_check,
    lp_norm,
    make_homogeneity_case,
    sample,
)
from cauchylab.commutator import HomogeneityConfig
from cauchylab.symbols import indicator, ramp

FLAT = CauchyKernel.for_curve(LipschitzCurve.flat())


def setup_pair(b_fn, f_fn, lo=-2.0, hi=2.0, count=4000):
    b = sample(b_fn, lo, hi, count)
    f = sample(f_fn, lo, hi, count)
    return b, f


class TestApply:
    def test_constant_symbol_vanishes(self):
        b, f = setup_pair(lambda y: np.full_like(y, 3.0), indicator(-1.0, 1.0))
        out = apply_commutator(b, f, FLAT, Interval(0.0, 1.5))
        scale = 3.0 * lp_norm(f, 2.0)
        assert np.max(np.abs(out.values)) <= 1e-12 * scale

    def test_bilinear_in_symbol(self):
        b, f = setup_pair(lambda y: np.sin(2 * y), lambda y: np.exp(-(y**2)))
        window = Interval(0.0, 1.5)
        one = apply_commutator(b, f, FLAT, window)
        lam = -3.7
        two = apply_commutator(b.scaled(lam), f, FLAT, window)
        np.testing.assert_allclose(two.values, lam * one.values, rtol=1e-12, atol=1e-15)

    def test_linear_symbol_closed_form(self):
        # b(y) = y against the unit indicator: the integrand of
        # b(x) C f - C(b f) at x = 2 is (x - y) K(x, y) = -1 on a flat
        # graph, so the value is -measure = -2.
        b, f = setup_pair(ramp(1.0, 0.0), indicator(-1.0, 1.0))
        out = apply_commutator(b, f, FLAT, Interval(2.0, 0.01))
        x = out.nodes
        assert np.all((x > 1.9) & (x < 2.1))
        np.testing.assert_allclose(out.values.real, -2.0, atol=1e-3)
        np.testing.assert_allclose(out.values.imag, 0.0, atol=1e-12)

    def test_grid_mismatch_rejected(self):
        b = sample(lambda y: y, -2, 2, 100)
        f = sample(lambda y: y, -2, 2, 200)
        with pytest.raises(InputError, match="grid"):
            apply_commutator(b, f, FLAT, Interval(0.0, 1.0))

    def test_scale_covariance_flat(self):
        # Dilating symbol and input together leaves the Rayleigh ratio
        # invariant on a flat graph, up to quadrature error.
        window1 = Interval(0.0, 3.0)
        b1, f1 = setup_pair(lambda y: np.tanh(y), indicator(-1.0, 1.0),
                            lo=-3.0, hi=3.0, count=6000)
        r1 = commutator_norm_lower(b1, 2.0, [f1], FLAT, window1)
        lam = 2.0
        window2 = Interval(0.0, 3.0 / lam)
        b2, f2 = setup_pair(lambda y: np.tanh(lam * y), indicator(-1.0 / lam, 1.0 / lam),
                            lo=-3.0 / lam, hi=3.0 / lam, count=6000)
        r2 = commutator_norm_lower(b2, 2.0, [f2], FLAT, window2)
        assert r2 == pytest.approx(r1, rel=0.05)


class TestHomogeneity:
    def test_case_invariants(self):
        curve = LipschitzCurve.flat()
        with pytest.raises(InputError):
            make_homogeneity_case(curve, 5.0, 1.0)  # M too small
        with pytest.raises(InputError):
            HomogeneityCase(100.0, 1.0, Interval(0.0, 1.0), Interval(1.5, 1.0), curve)
        with pytest.raises(InputError):  # too far: beyond 2 M r
            HomogeneityCase(20.0, 1.0, Interval(0.0, 1.0), Interval(45.0, 1.0), curve)

    def test_flat_closed_form_window(self):
        case = make_homogeneity_case(LipschitzCurve.flat(), 100.0, 1.0)
        rep = homogeneity_check(case)
        assert rep.passed
        assert rep.extras["adjusted_min"] >= 0.9 * 2.0 / 100.0
        d_max = 1.2 * 101.0  # farthest evaluation point to the near edge
        lo = np.log(1 + 2 / d_max)
        hi = np.log(1 + 2 / (d_max - 2  - 2))
        assert lo * 0.99 <= rep.extras["raw_min"] <= hi * 1.01

    def test_doubling_M_halves(self):
        curve = LipschitzCurve.flat()
        r1 = homogeneity_check(make_homogeneity_case(curve, 64.0, 1.0))
        r2 = homogeneity_check(make_homogeneity_case(curve, 128.0, 1.0))
        ratio = r2.extras["adjusted_min"] / r1.extras["adjusted_min"]
        assert 0.4 <= ratio <= 0.6

    def test_affine_passes(self):
        case = make_homogeneity_case(LipschitzCurve.affine(1.0), 64.0, 0.5)
        rep = homogeneity_check(case)
        assert rep.passed
        assert rep.extras["target"] == pytest.approx(2.0 / (2.0 * 64.0))

    def test_dyadic_ladder_slope(self):
        curve = LipschitzCurve.flat()
        Ms = [16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0]
        mins = [
            homogeneity_check(make_homogeneity_case(curve, M, 1.0),
                              HomogeneityConfig(quadrature_cells=1024, eval_points=64)
                              ).extras["adjusted_min"]
            for M in Ms
        ]
        slope = np.polyfit(np.log(Ms), np.log(mins), 1)[0]
        assert abs(slope + 1.0) <= 0.1


class TestNormLower:
    def test_constant_symbol_zero(self):
        b, f = setup_pair(lambda y: np.full_like(y, 5.0), indicator(-1.0, 1.0))
        v = commutator_norm_lower(b, 2.0, [f], FLAT, Interval(0.0, 1.5))
        assert v <= 1e-10 * 5.0

    def test_scaling_in_symbol(self):
        b, f = setup_pair(lambda y: np.sin(y), indicator(-1.0, 1.0))
        window = Interval(0.0, 1.5)
        v1 = commutator_norm_lower(b, 2.0, [f], FLAT, window)
        v2 = commutator_norm_lower(b.scaled(4.0), 2.0, [f], FLAT, window)
        assert v2 == pytest.approx(4.0 * v1, rel=1e-12)

    def test_monotone_in_family(self):
        b, f = setup_pair(lambda y: np.sin(y), indicator(-1.0, 1.0))
        g = sample(lambda y: np.exp(-(y**2)), -2, 2, 4000)
        window = Interval(0.0, 1.5)
        assert commutator_norm_lower(b, 2.0, [f, g], FLAT, window) >= commutator_norm_lower(
            b, 2.0, [f], FLAT, window
        )

    def test_argmax_stable_under_symbol_rescaling(self):
        b, f = setup_pair(lambda y: np.sin(y), indicator(-1.0, 1.0))
        g = sample(lambda y: np.exp(-(y**2)), -2, 2, 4000)
        window = Interval(0.0, 1.5)
        ratios = [commutator_norm_lower(b, 2.0, [m], FLAT, window) for m in (f, g)]
        b4 = b.scaled(4.0)
        ratios4 = [commutator_norm_lower(b4, 2.0, [m], FLAT, window) for m in (f, g)]
        assert int(np.argmax(ratios)) == int(np.argmax(ratios4))

    def test_zero_member_rejected(self):
        b = sample(lambda y: np.sin(y), -2, 2, 100)
        z = sample(lambda y: np.zeros_like(y), -2, 2, 100)
        with pytest.raises(InputError):
            commutator_norm_lower(b, 2.0, [z], FLAT, Interval(0.0, 1.0))

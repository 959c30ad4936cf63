import numpy as np
import pytest

from cauchylab import (
    AnnulusConfig,
    CauchyKernel,
    InputError,
    Interval,
    LipschitzCurve,
    SampledFunction,
    Side,
    annulus_ladder_reports,
    build_test_function,
    check_invariants,
    lp_norm,
    sample,
    sample_on,
    verify_annulus_lower,
    verify_annulus_upper,
    verify_intermediate_bounds,
)
from cauchylab import testfn
from cauchylab.symbols import sign_step, truncated_log

from conftest import random_symbol_case

FLAT = CauchyKernel.for_curve(LipschitzCurve.flat())
I01 = Interval(0.0, 1.0)


def sign_on_node_grid():
    # A node sits exactly on the jump, so the split sets are the two halves.
    return sample_on(sign_step(0.0), -1.5, 1e-3, 3001)


class TestBuild:
    def test_sign_symmetric_split(self):
        b = sign_on_node_grid()
        tf = build_test_function(b, I01, 2.0)
        assert abs(tf.a_j) <= 2 * b.step / I01.measure
        n_up = int(np.sum(tf.upper_set_mask))
        n_lo = int(np.sum(tf.lower_set_mask))
        assert n_up == n_lo > 0
        scale = I01.measure ** -0.5
        on_masks = tf.f.values[tf.upper_set_mask | tf.lower_set_mask]
        np.testing.assert_allclose(np.abs(on_masks), scale * (1 - tf.a_j), rtol=1e-12)

    def test_mean_zero_enforced(self, rng):
        for _ in range(10):
            b, base, p = random_symbol_case(rng)
            tf = build_test_function(b, base, p)
            integral = abs(complex(b.step * np.sum(tf.f.values)))
            assert integral <= 1e-10 * base.measure ** (1 - 1 / p)

    def test_sign_alignment_everywhere(self, rng):
        from cauchylab import median

        for _ in range(10):
            b, base, p = random_symbol_case(rng)
            tf = build_test_function(b, base, p)
            alpha = median(b, base).value
            inside = b.node_mask(base)
            prod = (tf.f.values.real * (b.real_values() - alpha))[inside]
            assert np.min(prod) >= -1e-12

    def test_constant_rejected(self):
        b = sample(lambda y: np.full_like(y, 2.0), -1.5, 1.5, 1000)
        with pytest.raises(InputError, match="oscillation"):
            build_test_function(b, I01, 2.0)

    def test_bad_p_rejected(self):
        b = sign_on_node_grid()
        with pytest.raises(InputError):
            build_test_function(b, I01, 1.0)

    def test_oscillation_level_recorded(self):
        b = sign_on_node_grid()
        tf = build_test_function(b, I01, 2.0)
        assert tf.epsilon == pytest.approx(1.0, abs=4 * b.step)


class TestInvariantSuite:
    def test_randomized_cases(self, rng):
        for _ in range(100):
            b, base, p = random_symbol_case(rng)
            tf = build_test_function(b, base, p)
            inv = check_invariants(tf, b)
            assert inv["mean_zero"] <= inv["mean_zero_tol"]
            assert inv["a_j_abs"] <= 0.5 + 1e-12
            assert inv["support_leak"] == 0.0
            assert inv["sign_min"] >= -1e-12
            assert 0.5 * (1 - 1e-12) <= inv["band_lo"]
            assert inv["band_hi"] <= 2.5 * (1 + 1e-12)

    def test_norm_band(self, rng):
        # |f|_p is capped by 5/2 and floored by half the split coverage.
        for _ in range(25):
            b, base, p = random_symbol_case(rng)
            tf = build_test_function(b, base, p)
            norm = lp_norm(tf.f, p)
            grid_measure = b.step * int(np.sum(b.node_mask(base)))
            assert norm <= 2.5 * (grid_measure / base.measure) ** (1 / p) + 1e-9
            covered = b.step * int(np.sum(tf.upper_set_mask | tf.lower_set_mask))
            floor = 0.5 * (covered / base.measure) ** (1 / p)
            assert norm >= floor * (1 - 1e-9)


class TestAnnulusReports:
    @pytest.mark.parametrize("fn,name", [(sign_step(0.0), "sign"),
                                         (truncated_log(0.0), "log")])
    def test_lower_ratios_k_stable(self, fn, name):
        b = sample(fn, -1.25, 1.25, 2500)
        tf = build_test_function(b, I01, 2.0)
        lowers, uppers = annulus_ladder_reports(b, tf, [3, 4, 5], FLAT)
        c1 = [r.ratio / tf.epsilon**2 for r in lowers]
        assert max(c1) / min(c1) <= 3.0
        up = [r.ratio for r in uppers]
        assert max(up) / min(up) <= 10.0

    def test_normalizer_exact(self):
        b = sample(sign_step(0.0), -1.25, 1.25, 1000)
        tf = build_test_function(b, I01, 2.0)
        rep = verify_annulus_lower(b, tf, 4, FLAT)
        assert rep.normalizer == 2.0 ** (-4 * (2.0 - 1.0))
        assert rep.side is Side.LOWER and rep.lhs >= 0

    def test_upper_decay_rate(self):
        # The shell mass itself decays like the normalizer, within a
        # factor of four between consecutive levels.
        b = sample(sign_step(0.0), -1.25, 1.25, 2000)
        tf = build_test_function(b, I01, 2.0)
        reps = [verify_annulus_upper(b, tf, k, FLAT) for k in (3, 4, 5, 6)]
        for a, c in zip(reps, reps[1:]):
            decay = a.lhs / c.lhs
            model = c.normalizer and a.normalizer / c.normalizer
            assert decay == pytest.approx(model, rel=3.0)
            assert decay / model <= 4.0 and model / decay <= 4.0

    def test_radius_doubling_leaves_lower_ratio(self):
        b1 = sample(sign_step(0.0), -1.25, 1.25, 2500)
        tf1 = build_test_function(b1, Interval(0.0, 1.0), 2.0)
        r1 = verify_annulus_lower(b1, tf1, 4, FLAT)
        b2 = sample(sign_step(0.0), -2.5, 2.5, 5000)
        tf2 = build_test_function(b2, Interval(0.0, 2.0), 2.0)
        r2 = verify_annulus_lower(b2, tf2, 4, FLAT)
        assert (r2.ratio / tf2.epsilon**2) == pytest.approx(
            r1.ratio / tf1.epsilon**2, rel=0.10
        )

    def test_low_level_rejected(self):
        b = sample(sign_step(0.0), -1.25, 1.25, 1000)
        tf = build_test_function(b, I01, 2.0)
        with pytest.raises(InputError, match="level"):
            verify_annulus_lower(b, tf, 2, FLAT, AnnulusConfig(a1=8.0))

    def test_sourceless_out_of_range_rejected(self):
        b_s = sample(sign_step(0.0), -1.25, 1.25, 1000)
        b = SampledFunction(b_s.origin, b_s.step, b_s.values)  # no source
        tf = build_test_function(b, I01, 2.0)
        with pytest.raises(InputError, match="sampled range"):
            verify_annulus_lower(b, tf, 4, FLAT)


class TestIntermediateBounds:
    def test_sign_pointwise_majorant(self):
        b = sample(sign_step(0.0), -1.25, 1.25, 2500)
        tf = build_test_function(b, I01, 2.0)
        rep = verify_intermediate_bounds(b, tf, 4, FLAT)
        assert rep.extras["pointwise_violations"] == 0
        assert rep.passed

    def test_log_drift_bounded(self):
        b = sample(truncated_log(0.0), -1.25, 1.25, 2500)
        tf = build_test_function(b, I01, 2.0)
        cfg = AnnulusConfig(a1=4.2)
        ratios = []
        for k in range(2, 9):
            rep = verify_intermediate_bounds(b, tf, k, FLAT, cfg)
            assert rep.extras["pointwise_violations"] == 0
            ratios.append(rep.extras["drift_ratio"])
        assert max(ratios) <= testfn.DRIFT_BOUND

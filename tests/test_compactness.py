import numpy as np
import pytest

from cauchylab import (
    CauchyKernel,
    InputError,
    Interval,
    LipschitzCurve,
    SampledFunction,
    WitnessCase,
    WitnessConfig,
    WitnessEngineConfig,
    apply_commutator,
    choose_a2,
    equicontinuity_terms,
    eval_kernel,
    far_away_sequence,
    fk_diagnose,
    large_scale_sequence,
    sample,
    sample_on,
    small_scale_sequence,
    tail_decay_check,
    witness_separation,
)
from cauchylab.testfn import AnnulusConfig
from cauchylab.symbols import indicator, sign_step, smooth_bump, truncated_log

from conftest import bump_family

FLAT = CauchyKernel.for_curve(LipschitzCurve.flat())


class TestFkDiagnose:
    def test_zero_images(self):
        z = sample(lambda y: np.zeros_like(y), -2, 2, 256)
        rep = fk_diagnose([z], 2.0, [0.5, 1.0], [z.step, 2 * z.step])
        assert rep.uniform_bound == 0.0
        assert all(v == 0.0 for _, v in rep.tail_curve)
        assert all(v == 0.0 for _, v in rep.equicontinuity_curve)

    def test_single_bump_equicontinuity_decreases(self):
        g = sample(smooth_bump(0.0, 1.0, 1.0), -3, 3, 3000)
        zs = [g.step * k for k in (1, 4, 16, 64)]
        rep = fk_diagnose([g], 2.0, [1.0], zs)
        vals = [v for _, v in rep.equicontinuity_curve]
        assert vals == sorted(vals)
        assert vals[0] <= 0.1 * vals[-1]

    def test_tail_dominated_by_member(self):
        g = sample(smooth_bump(1.5, 1.0, 0.5), -3, 3, 600)
        h = sample(smooth_bump(0.0, 1.0, 0.5), -3, 3, 600)
        rep = fk_diagnose([g, h], 2.0, [1.0, 2.5], [g.step])
        solo = fk_diagnose([g], 2.0, [1.0, 2.5], [g.step])
        for (t, v), (_, vs) in zip(rep.tail_curve, solo.tail_curve):
            assert v >= vs

    def test_tail_curve_non_increasing(self):
        g = sample(smooth_bump(0.0, 1.0, 2.0), -3, 3, 500)
        rep = fk_diagnose([g], 2.0, [0.25, 0.5, 1.0, 2.0], [g.step])
        vals = [v for _, v in rep.tail_curve]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_validation(self):
        g = sample(lambda y: y, -1, 1, 64)
        with pytest.raises(InputError):
            fk_diagnose([], 2.0, [1.0], [g.step])
        with pytest.raises(InputError):
            fk_diagnose([g], 2.0, [], [g.step])
        with pytest.raises(InputError):
            fk_diagnose([g], 2.0, [-1.0], [g.step])


class TestTailDecay:
    def make_inputs(self, count=3000):
        b = sample(smooth_bump(0.0, 1.0, 1.0), -1.5, 1.5, count)
        f = sample(indicator(-1.0, 1.0), -1.5, 1.5, count)
        return b, f

    def test_zero_symbol(self):
        b = sample(lambda y: np.zeros_like(y), -1.5, 1.5, 500)
        f = sample(indicator(-1.0, 1.0), -1.5, 1.5, 500)
        rep = tail_decay_check(b, 1.0, [f], 2.0, [4.0, 8.0], FLAT)
        assert rep.passed and np.all(rep.columns["lhs"] == 0.0)

    def test_bump_slope(self):
        b, f = self.make_inputs()
        rep = tail_decay_check(b, 1.0, [f], 2.0, [4.0, 8.0, 16.0, 32.0], FLAT)
        assert rep.passed
        assert rep.extras["slope"] == pytest.approx(-0.5, abs=0.15)

    def test_linearity_in_input(self):
        b, f = self.make_inputs(count=800)
        r1 = tail_decay_check(b, 1.0, [f], 2.0, [4.0, 8.0], FLAT)
        r2 = tail_decay_check(b, 1.0, [f.scaled(2.0)], 2.0, [4.0, 8.0], FLAT)
        np.testing.assert_array_equal(r2.columns["lhs"], 2.0 * r1.columns["lhs"])

    def test_support_violation_rejected(self):
        b = sample(smooth_bump(0.0, 1.0, 2.0), -3, 3, 500)  # wider than I(0,1)
        f = sample(indicator(-1.0, 1.0), -3, 3, 500)
        with pytest.raises(InputError, match="vanish"):
            tail_decay_check(b, 1.0, [f], 2.0, [4.0, 8.0], FLAT)

    def test_small_factors_rejected(self):
        b, f = self.make_inputs(count=300)
        with pytest.raises(InputError):
            tail_decay_check(b, 1.0, [f], 2.0, [1.5, 4.0], FLAT)
        with pytest.raises(InputError, match="slope"):
            tail_decay_check(b, 1.0, [f], 2.0, [4.0], FLAT)

    def test_bad_p_rejected(self):
        # p = 1 divided by zero, p = 0.5 fitted a slope of +1, p = inf a NaN.
        b, f = self.make_inputs(count=300)
        for p in (1.0, 0.5, np.inf):
            with pytest.raises(InputError, match="p must lie in"):
                tail_decay_check(b, 1.0, [f], p, [4.0, 8.0], FLAT)


class TestSequencesAndConstants:
    def test_small_scale_ratios(self):
        seq = small_scale_sequence(0.0, 0.2, 5.0, 4)
        cfg = WitnessConfig(WitnessCase.SMALL_SCALE, 4.2, 4.9, seq, 2.0)
        assert len(cfg.interval_sequence) == 4

    def test_small_scale_ratio_violation(self):
        seq = small_scale_sequence(0.0, 0.2, 3.0, 4)  # ratio 3 < a2
        with pytest.raises(InputError, match="ratio"):
            WitnessConfig(WitnessCase.SMALL_SCALE, 4.2, 4.9, seq, 2.0)

    def test_large_scale(self):
        seq = large_scale_sequence(0.0, 0.2, 5.0, 3)
        WitnessConfig(WitnessCase.LARGE_SCALE, 4.2, 4.9, seq, 2.0)
        with pytest.raises(InputError):
            WitnessConfig(WitnessCase.LARGE_SCALE, 4.2, 4.9,
                          small_scale_sequence(0.0, 0.2, 5.0, 3), 2.0)

    def test_far_away_dilates_disjoint(self):
        seq = far_away_sequence(0.3, 4.9, 5)
        cfg = WitnessConfig(WitnessCase.FAR_AWAY, 4.2, 4.9, seq, 2.0)
        dil = [I.dilate(4.9) for I in cfg.interval_sequence]
        for i in range(len(dil)):
            for j in range(i + 1, len(dil)):
                assert dil[i].is_disjoint_from(dil[j])

    def test_far_away_overlap_rejected(self):
        seq = (Interval(10.0, 1.0), Interval(12.0, 1.0))
        with pytest.raises(InputError, match="overlap"):
            WitnessConfig(WitnessCase.FAR_AWAY, 4.2, 4.9, seq, 2.0)

    def test_constants_validation(self):
        seq = small_scale_sequence(0.0, 0.2, 5.0, 3)
        with pytest.raises(InputError):
            WitnessConfig(WitnessCase.SMALL_SCALE, 3.0, 4.9, seq, 2.0)
        with pytest.raises(InputError):
            WitnessConfig(WitnessCase.SMALL_SCALE, 4.2, 4.0, seq, 2.0)

    def test_choose_a2_satisfies_inequality(self):
        for p in (1.5, 2.0, 3.0):
            c1, c2, eps, a1 = 0.25, 0.5, 0.8, 8.0
            a2 = choose_a2(c1, c2, eps, a1, p)
            assert a2 > a1 and 2 ** round(np.log2(a2)) == a2
            a3 = 8 ** (1 - p) * c1 * eps**p * a1 ** (1 - p)
            spill = 2 * c2 / (1 - 2 ** (1 - p)) * 2.0 ** (-np.floor(np.log2(a2)) * (p - 1))
            assert a3 > spill


def small_witness(symbol_fn, engine=None):
    b = sample_on(symbol_fn, -2.0, 0.01, 401)
    seq = small_scale_sequence(0.0, 0.2, 5.0, 3)
    cfg = WitnessConfig(WitnessCase.SMALL_SCALE, 4.2, 4.9, seq, 2.0)
    engine = engine or WitnessEngineConfig(
        eval_cells=2048, nodes_per_radius=48,
        annulus=AnnulusConfig(a1=8.0, eval_cells=128),
    )
    return witness_separation(b, cfg, FLAT, engine)


class TestWitness:
    def test_matrix_symmetric_zero_diagonal(self):
        rep = small_witness(truncated_log(0.0))
        d = rep.distances
        np.testing.assert_array_equal(d, d.T)
        assert np.all(np.diag(d) == 0.0)
        assert rep.min_offdiag > 0

    def test_symbol_scaling_scales_distances(self):
        r1 = small_witness(truncated_log(0.0))
        lam = 2.0
        fn = truncated_log(0.0)
        r2 = small_witness(lambda x: lam * fn(x))
        np.testing.assert_allclose(r2.distances, lam * r1.distances, rtol=1e-12)

    def test_oscillating_vs_vanishing_contrast(self):
        sep = small_witness(truncated_log(0.0))
        vanish = small_witness(smooth_bump(0.0, 1.0, 1.0))
        assert sep.min_offdiag > 10 * vanish.min_offdiag
        # The oscillation floor drives the separation floor.
        assert sep.epsilon > 0.5 and vanish.epsilon < 0.05

    def test_identical_construction_gives_identical_image(self):
        b = sample_on(truncated_log(0.0), -2.0, 0.01, 401)
        from cauchylab import build_test_function, commutator_values
        from cauchylab.sampling import sample as csample

        grid = csample(truncated_log(0.0), -0.3, 0.3, 600)
        tf1 = build_test_function(grid, Interval(0.0, 0.2), 2.0)
        tf2 = build_test_function(grid, Interval(0.0, 0.2), 2.0)
        xs = grid.midpoints_in(Interval(0.0, 0.9))
        g1 = commutator_values(grid, tf1.f, FLAT, xs)
        g2 = commutator_values(grid, tf2.f, FLAT, xs)
        np.testing.assert_array_equal(g1, g2)

    def test_sourceless_symbol_rejected(self):
        b = SampledFunction(-2.0, 0.01, np.sin(np.arange(401)))
        seq = small_scale_sequence(0.0, 0.2, 5.0, 3)
        cfg = WitnessConfig(WitnessCase.SMALL_SCALE, 4.2, 4.9, seq, 2.0)
        with pytest.raises(InputError, match="source"):
            witness_separation(b, cfg, FLAT)

    def test_constant_stretch_reports_index(self):
        # Constant beyond |x| > 0.05: oscillates on the two big intervals
        # but not on the smallest.
        def fn(x):
            x = np.asarray(x, dtype=float)
            return np.where(np.abs(x) > 0.05, np.sign(x), 0.17)

        b = sample_on(fn, -2.0, 0.01, 401)
        seq = small_scale_sequence(0.0, 0.2, 5.0, 3)  # radii 0.2, 0.04, 0.008
        cfg = WitnessConfig(WitnessCase.SMALL_SCALE, 4.2, 4.9, seq, 2.0)
        with pytest.raises(InputError, match="interval 1"):
            witness_separation(b, cfg, FLAT)

    def test_far_case_runs(self):
        b = sample_on(truncated_log(7.35), -2.0, 0.01, 401)
        seq = far_away_sequence(0.25, 4.9, 3)
        # Recenter the symbol's singularity inside the first interval so
        # every interval sees oscillation.
        def fn(x):
            x = np.asarray(x, dtype=float)
            out = np.zeros_like(x)
            for I in seq:
                out = out + np.maximum(np.log(np.abs(x - I.center) + 1e-300), -50.0) * (
                    np.abs(x - I.center) < 2 * I.radius
                )
            return out

        b = sample_on(fn, -2.0, 0.01, 401)
        cfg = WitnessConfig(WitnessCase.FAR_AWAY, 4.2, 4.9, seq, 2.0)
        rep = witness_separation(b, cfg, FLAT, WitnessEngineConfig(
            eval_cells=2048, nodes_per_radius=32,
            annulus=AnnulusConfig(a1=8.0, eval_cells=96)))
        assert rep.min_offdiag > 0


SAWTOOTH = CauchyKernel.for_curve(LipschitzCurve.sawtooth(0.5, 2.0))


def _oracle_term_norms(b, f, kernel, split, z, window, p=2.0):
    """The four term norms from explicit masks and the kernel formula."""
    xs = f.midpoints_in(window)
    t = abs(z) / split
    nodes = f.nodes
    far = np.abs(nodes[None, :] - xs[:, None]) > t
    Kx = eval_kernel(kernel, xs[:, None], nodes)
    Kxz = eval_kernel(kernel, xs[:, None] + z, nodes)
    b_x = b.value_at(xs)[:, None]
    b_xz = b.value_at(xs + z)[:, None]
    fv, bv = f.values[None, :], b.values[None, :]
    terms = f.step * np.array([
        np.sum(np.where(far, (b_x - b_xz) * Kx * fv, 0), axis=1),
        np.sum(np.where(far, (Kx - Kxz) * (b_xz - bv) * fv, 0), axis=1),
        np.sum(np.where(~far, Kx * (b_x - bv) * fv, 0), axis=1),
        -np.sum(np.where(~far, Kxz * (b_xz - bv) * fv, 0), axis=1),
    ])
    return (f.step * np.sum(np.abs(terms) ** p, axis=1)) ** (1.0 / p)


class TestEquicontinuitySplit:
    def setup_case(self):
        b = sample(smooth_bump(0.0, 1.0, 1.0), -3, 3, 1500)
        f = bump_family([0.0], 0.5, -3.0, 3.0, 1500, 2.0)[0]
        return b, f

    def check_resums_exactly(self, kernel):
        b, f = self.setup_case()
        rep = equicontinuity_terms(b, f, kernel, split=0.25, z=8 * f.step,
                                   window=Interval(0.0, 2.0))
        assert rep.passed
        assert rep.extras["residual_max"] <= 1e-10

    def test_split_resums_exactly(self):
        self.check_resums_exactly(FLAT)

    def test_split_resums_exactly_on_sawtooth(self):
        self.check_resums_exactly(SAWTOOTH)

    @pytest.mark.parametrize("kernel", [FLAT, SAWTOOTH], ids=["flat", "sawtooth"])
    @pytest.mark.parametrize("split, z_steps", [(0.25, 8), (0.4, -3)])
    def test_term_norms_match_explicit_masks(self, kernel, split, z_steps):
        # The re-sum check cannot see which nodes each term keeps, since
        # the kernel at x + z over the far set cancels between terms 2
        # and 4; the oracle builds every mask from the offsets directly.
        b = sample(sign_step(0.1), -3, 3, 300)
        f = sample(smooth_bump(0.3, 1.0, 0.6), -3, 3, 300)
        z = z_steps * f.step
        window = Interval(0.0, 2.0)
        rep = equicontinuity_terms(b, f, kernel, split=split, z=z, window=window)
        ref = _oracle_term_norms(b, f, kernel, split, z, window)
        np.testing.assert_allclose(rep.columns["lhs"], ref, rtol=1e-12, atol=0)

    def test_constant_symbol_kills_all_terms(self):
        bc = sample(lambda y: np.full_like(y, 2.0), -3, 3, 1500)
        f = self.setup_case()[1]
        rep = equicontinuity_terms(bc, f, FLAT, split=0.25, z=8 * f.step,
                                   window=Interval(0.0, 2.0))
        assert np.all(rep.columns["lhs"] <= 1e-12)

    def test_term_models_hold_at_desk_scale(self):
        b, f = self.setup_case()
        rep = equicontinuity_terms(b, f, FLAT, split=0.2, z=4 * f.step,
                                   window=Interval(0.0, 2.0))
        assert rep.extras["term2_ratio"] <= 5.0
        assert rep.extras["term3_ratio"] <= 5.0
        assert rep.extras["term4_ratio"] <= 5.0

    def test_knob_validation(self):
        b, f = self.setup_case()
        with pytest.raises(InputError):
            equicontinuity_terms(b, f, FLAT, split=0.7, z=4 * f.step,
                                 window=Interval(0.0, 2.0))
        with pytest.raises(InputError):
            equicontinuity_terms(b, f, FLAT, split=0.2, z=0.3 * f.step,
                                 window=Interval(0.0, 2.0))

import numpy as np
import pytest

from cauchylab import (
    CauchyKernel,
    GridAlignmentError,
    InputError,
    Interval,
    LipschitzCurve,
    SampledFunction,
    WitnessCase,
    apply_commutator,
    choose_a2,
    far_away_sequence,
    fk_diagnose,
    large_scale_sequence,
    sample,
    sample_on,
    small_scale_sequence,
    stack,
    tail_decay_check,
    witness_separation,
)
from cauchylab import compactness
from cauchylab.compactness import _require_geometry
from cauchylab.symbols import indicator, smooth_bump, truncated_log

FLAT = CauchyKernel.for_curve(LipschitzCurve.flat())


def fk_curve(rep, curve):
    """The ``parameter`` and ``lhs`` columns of one curve's rows."""
    rows = rep.columns["curve"] == curve
    return rep.columns["parameter"][rows], rep.columns["lhs"][rows]


class TestFkDiagnose:
    def test_zero_images(self):
        z = sample(lambda y: np.zeros_like(y), -2, 2, 256)
        rep = fk_diagnose(stack([z]), 2.0, [0.5, 1.0], [z.step, 2 * z.step])
        assert rep.columns["curve"].tolist() == (
            ["uniform_bound"] + ["tail"] * 2 + ["equicontinuity"] * 2)
        assert fk_curve(rep, "uniform_bound")[1].tolist() == [0.0]
        assert all(v == 0.0 for v in fk_curve(rep, "tail")[1])
        assert all(v == 0.0 for v in fk_curve(rep, "equicontinuity")[1])
        assert rep.extras == {"p": 2.0, "images": 1}

    def test_single_bump_equicontinuity_decreases(self):
        g = sample(smooth_bump(0.0, 1.0, 1.0), -3, 3, 3000)
        zs = [g.step * k for k in (1, 4, 16, 64)]
        rep = fk_diagnose(stack([g]), 2.0, [1.0], zs)
        vals = fk_curve(rep, "equicontinuity")[1].tolist()
        assert vals == sorted(vals)
        assert vals[0] <= 0.1 * vals[-1]

    def test_tail_dominated_by_member(self):
        g = sample(smooth_bump(1.5, 1.0, 0.5), -3, 3, 600)
        h = sample(smooth_bump(0.0, 1.0, 0.5), -3, 3, 600)
        rep = fk_diagnose(stack([g, h]), 2.0, [1.0, 2.5], [g.step])
        solo = fk_diagnose(stack([g]), 2.0, [1.0, 2.5], [g.step])
        for v, vs in zip(fk_curve(rep, "tail")[1], fk_curve(solo, "tail")[1]):
            assert v >= vs

    def test_tail_curve_non_increasing(self):
        g = sample(smooth_bump(0.0, 1.0, 2.0), -3, 3, 500)
        rep = fk_diagnose(stack([g]), 2.0, [0.25, 0.5, 1.0, 2.0], [g.step])
        vals = fk_curve(rep, "tail")[1]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_validation(self):
        g = sample(lambda y: y, -1, 1, 64)
        with pytest.raises(InputError):
            fk_diagnose(stack([]), 2.0, [1.0], [g.step])
        with pytest.raises(InputError):
            fk_diagnose(stack([g]), 2.0, [], [g.step])
        for t in (-1.0, np.nan, np.inf):
            with pytest.raises(InputError, match="tail radii"):
                fk_diagnose(stack([g]), 2.0, [t], [g.step])
        for z in (np.nan, np.inf):
            with pytest.raises(GridAlignmentError):
                fk_diagnose(stack([g]), 2.0, [1.0], [z])


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
        # A slope fitted over a repeated factor is meaningless.
        for ts in ([4.0, 4.0], [4.0, 8.0, 4.0]):
            with pytest.raises(InputError, match="must not repeat an entry"):
                tail_decay_check(b, 1.0, [f], 2.0, ts, FLAT)

    def test_family_takes_the_worst_member(self):
        b, f = self.make_inputs(count=800)
        g = f.with_values(f.values * np.linspace(-1.0, 3.0, f.count))
        ts = [4.0, 8.0, 16.0]
        both = tail_decay_check(b, 1.0, [f, g], 2.0, ts, FLAT).columns["lhs"]
        each = [tail_decay_check(b, 1.0, [u], 2.0, ts, FLAT).columns["lhs"] for u in (f, g)]
        np.testing.assert_allclose(both, np.maximum(*each), rtol=1e-14, atol=0)

    def test_block_symbol_rejected(self):
        b, f = self.make_inputs(count=300)
        block = b.with_values(np.stack([b.values, b.values], axis=1))
        with pytest.raises(InputError, match="takes one function"):
            tail_decay_check(block, 1.0, [f], 2.0, [4.0, 8.0], FLAT)

    def test_bad_p_rejected(self):
        # p = 1 divided by zero, p = 0.5 fitted a slope of +1, p = inf a NaN.
        b, f = self.make_inputs(count=300)
        for p in (1.0, 0.5, np.inf):
            with pytest.raises(InputError, match="p must lie in"):
                tail_decay_check(b, 1.0, [f], p, [4.0, 8.0], FLAT)


class TestSequencesAndConstants:
    def test_small_scale_ratios(self):
        seq = small_scale_sequence(0.0, 0.2, 5.0, 4)
        assert len(_require_geometry(WitnessCase.SMALL_SCALE, 4.2, 4.9, seq, 2.0)) == 4

    def test_small_scale_ratio_violation(self):
        seq = small_scale_sequence(0.0, 0.2, 3.0, 4)  # ratio 3 < a2
        with pytest.raises(InputError, match="ratio"):
            _require_geometry(WitnessCase.SMALL_SCALE, 4.2, 4.9, seq, 2.0)

    def test_large_scale(self):
        seq = large_scale_sequence(0.0, 0.2, 5.0, 3)
        _require_geometry(WitnessCase.LARGE_SCALE, 4.2, 4.9, seq, 2.0)
        with pytest.raises(InputError):
            _require_geometry(WitnessCase.LARGE_SCALE, 4.2, 4.9,
                              small_scale_sequence(0.0, 0.2, 5.0, 3), 2.0)

    def test_far_away_dilates_disjoint(self):
        seq = far_away_sequence(0.3, 4.9, 5)
        checked = _require_geometry(WitnessCase.FAR_AWAY, 4.2, 4.9, seq, 2.0)
        dil = [I.dilate(4.9) for I in checked]
        for i in range(len(dil)):
            for j in range(i + 1, len(dil)):
                assert dil[i].is_disjoint_from(dil[j])

    def test_far_away_overlap_rejected(self):
        seq = (Interval(10.0, 1.0), Interval(12.0, 1.0))
        with pytest.raises(InputError, match="overlap"):
            _require_geometry(WitnessCase.FAR_AWAY, 4.2, 4.9, seq, 2.0)

    def test_constants_validation(self):
        seq = small_scale_sequence(0.0, 0.2, 5.0, 3)
        with pytest.raises(InputError):
            _require_geometry(WitnessCase.SMALL_SCALE, 3.0, 4.9, seq, 2.0)
        with pytest.raises(InputError):
            _require_geometry(WitnessCase.SMALL_SCALE, 4.2, 4.0, seq, 2.0)

    def test_choose_a2_satisfies_inequality(self):
        for p in (1.5, 2.0, 3.0):
            c1, c2, eps, a1 = 0.25, 0.5, 0.8, 8.0
            a2 = choose_a2(c1, c2, eps, a1, p)
            assert a2 > a1 and 2 ** round(np.log2(a2)) == a2
            a3 = 8 ** (1 - p) * c1 * eps**p * a1 ** (1 - p)
            spill = 2 * c2 / (1 - 2 ** (1 - p)) * 2.0 ** (-np.floor(np.log2(a2)) * (p - 1))
            assert a3 > spill


def small_witness(symbol_fn):
    b = sample_on(symbol_fn, -2.0, 0.01, 401)
    seq = small_scale_sequence(0.0, 0.2, 5.0, 3)
    return witness_separation(b, WitnessCase.SMALL_SCALE, seq, FLAT, 4.2, 4.9, 2.0,
                              eval_cells=2048, nodes_per_radius=48)


def distances(rep):
    """The witness distance matrix, from the ``i``-major ``lhs`` column."""
    n = int(np.sqrt(rep.n_rows))
    return rep.columns["lhs"].reshape(n, n)


class TestWitness:
    def test_matrix_symmetric_zero_diagonal(self):
        rep = small_witness(truncated_log(0.0))
        d = distances(rep)
        np.testing.assert_array_equal(d, d.T)
        assert np.all(np.diag(d) == 0.0)
        assert rep.extras["min_offdiag"] > 0

    @pytest.mark.parametrize("floor", ["measured", "median", "above_all"])
    def test_passed_is_a_positive_separation_margin(self, monkeypatch, floor):
        # A pair of distinct images passes only when farther apart than A3^(1/p).
        d = distances(small_witness(truncated_log(0.0)))
        off = d[~np.eye(len(d), dtype=bool)]
        root = {"median": float(np.median(off)), "above_all": 100.0}.get(floor)
        if root is not None:
            monkeypatch.setattr(compactness, "_a3", lambda c1, eps, a1, p: root**p)
        rep = small_witness(truncated_log(0.0))
        assert rep.passed == (rep.extras["separation_margin"] > 0) == (floor == "measured")
        assert rep.n_violations == np.count_nonzero(off <= rep.extras["a3_root"])
        assert np.all(rep.columns["pass"][np.eye(len(d), dtype=bool).ravel()])

    def test_empirical_constants_are_the_ladder_extremes(self, monkeypatch):
        # C1 is the smallest lower candidate and C2 the largest upper one over
        # the ladders of every interval of the sequence.
        ladders = []
        original = compactness.annulus_ladder_reports

        def recording(*args):
            ladders.append(original(*args))
            return ladders[-1]

        monkeypatch.setattr(compactness, "annulus_ladder_reports", recording)
        rep = small_witness(truncated_log(0.0))
        assert len(ladders) == 3
        assert rep.extras["c1_empirical"] == min(l.extras["c1_candidate_min"] for l in ladders)
        assert rep.extras["c2_empirical"] == max(l.extras["c2_candidate_max"] for l in ladders)

    def test_symbol_scaling_scales_distances(self):
        r1 = small_witness(truncated_log(0.0))
        lam = 2.0
        fn = truncated_log(0.0)
        r2 = small_witness(lambda x: lam * fn(x))
        np.testing.assert_allclose(distances(r2), lam * distances(r1), rtol=1e-12)

    def test_oscillating_vs_vanishing_contrast(self):
        sep = small_witness(truncated_log(0.0))
        vanish = small_witness(smooth_bump(0.0, 1.0, 1.0))
        assert sep.extras["min_offdiag"] > 10 * vanish.extras["min_offdiag"]
        # The oscillation floor drives the separation floor.
        assert sep.extras["epsilon"] > 0.5 and vanish.extras["epsilon"] < 0.05

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
        with pytest.raises(InputError, match="source"):
            witness_separation(b, WitnessCase.SMALL_SCALE, seq, FLAT, 4.2, 4.9, 2.0)

    def test_checks_run_before_kernel_work(self):
        # The geometry and resolution checks come first, before the source check.
        b = SampledFunction(-2.0, 0.01, np.sin(np.arange(401)))
        seq = small_scale_sequence(0.0, 0.2, 3.0, 3)
        with pytest.raises(InputError, match="ratio"):
            witness_separation(b, WitnessCase.SMALL_SCALE, seq, FLAT, 4.2, 4.9, 2.0)
        seq = small_scale_sequence(0.0, 0.2, 5.0, 3)
        for key in ("eval_cells", "nodes_per_radius"):
            with pytest.raises(InputError, match=f"{key} >= 1"):
                witness_separation(b, WitnessCase.SMALL_SCALE, seq, FLAT, 4.2, 4.9, 2.0,
                                   **{key: 0})
        b = sample_on(np.sign, -2.0, 0.01, 401)
        with pytest.raises(InputError, match="whole number of cells, got 2048.5"):
            witness_separation(b, WitnessCase.SMALL_SCALE, seq, FLAT, 4.2, 4.9, 2.0,
                               eval_cells=2048.5)

    def test_constant_stretch_reports_index(self):
        # Constant beyond |x| > 0.05: oscillates on the two big intervals
        # but not on the smallest.
        def fn(x):
            x = np.asarray(x, dtype=float)
            return np.where(np.abs(x) > 0.05, np.sign(x), 0.17)

        b = sample_on(fn, -2.0, 0.01, 401)
        seq = small_scale_sequence(0.0, 0.2, 5.0, 3)  # radii 0.2, 0.04, 0.008
        with pytest.raises(InputError, match="interval 1"):
            witness_separation(b, WitnessCase.SMALL_SCALE, seq, FLAT, 4.2, 4.9, 2.0)

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
        rep = witness_separation(b, WitnessCase.FAR_AWAY, seq, FLAT, 4.2, 4.9, 2.0,
                                 eval_cells=2048, nodes_per_radius=32)
        assert rep.extras["min_offdiag"] > 0



_SOURCED = sample_on(truncated_log(0.0), -2.0, 0.01, 401)
_BUMP = sample(smooth_bump(0.0, 1.0, 1.0), -1.5, 1.5, 300)
_CHI = sample(indicator(-1.0, 1.0), -1.5, 1.5, 300)


@pytest.mark.parametrize("call, match", [
    (lambda: small_scale_sequence(0.0, 0.2, 5.0, 2.5), "whole count >= 2, got count 2.5"),
    (lambda: large_scale_sequence(0.0, 0.2, 5.0, 2.5), "whole count >= 2, got count 2.5"),
    (lambda: far_away_sequence(0.3, 4.9, 2.5), "whole count >= 2, got count 2.5"),
    (lambda: choose_a2(1.0, 1.0, 0.5, 4.2, 1.0), "p must lie in"),
    (lambda: choose_a2(1.0, 1.0, 0.5, 4.2, 0.5), "p must lie in"),
    (lambda: choose_a2(1.0, 1.0, np.inf, 4.2, 2.0), "finite empirical constants"),
    (lambda: witness_separation(_SOURCED, WitnessCase.SMALL_SCALE,
                                small_scale_sequence(0.0, 0.2, 5.0, 3), FLAT, 4.2, 4.9, 2.0,
                                nodes_per_radius=np.inf), "finite nodes_per_radius"),
    (lambda: tail_decay_check(_BUMP, 1.0, [_CHI], 2.0, [4.0, np.nan], FLAT), "t_ladder"),
], ids=["small_scale_count", "large_scale_count", "far_away_count", "choose_a2_p_1",
        "choose_a2_p_half", "choose_a2_epsilon_inf", "witness_nodes_per_radius_inf",
        "tail_t_ladder_nan"])
def test_library_refuses_bad_input(call, match):
    # Each raised a bare TypeError, ZeroDivisionError, ValueError or
    # OverflowError, or a message about a point rather than the ladder.
    with pytest.raises(InputError, match=match):
        call()

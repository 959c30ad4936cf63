import numpy as np
import pytest

from cauchylab import (
    CauchyKernel,
    InputError,
    Interval,
    LipschitzCurve,
    SampledFunction,
    annulus_ladder_reports,
    build_test_function,
    check_invariants,
    choose_a2,
    lp_norm,
    sample,
    sample_on,
    verify_intermediate_bounds,
    write_report,
)
from cauchylab import testfn
from cauchylab.reports import MAX_REPORT_ROWS
from cauchylab.sampling import ALIGNMENT_TOL
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
            alpha = median(b, base)
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
            assert_invariants_hold(build_test_function(b, base, p), b)

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


def assert_invariants_hold(tf, b):
    inv = check_invariants(tf, b)
    assert inv["mean_zero"] <= inv["mean_zero_tol"]
    assert inv["a_j_abs"] <= 0.5 + 1e-12
    assert inv["support_leak"] == 0.0
    assert inv["sign_min"] >= -1e-12
    assert 0.5 * (1 - 1e-12) <= inv["band_lo"]
    assert inv["band_hi"] <= 2.5 * (1 + 1e-12)


class TestNodeEndpoints:
    """Intervals with node endpoints: the median and the split sets see the same nodes."""

    H = 1 / 3

    def test_median_split_balances_within_one_half(self):
        # Rounded, center - radius lands just below node 2, which an open
        # float comparison counted in the split sets but not in the median.
        b = SampledFunction(-1.0, self.H, [0, 0, 1, 1, 1, -1, -1, 0, 0, 0, 0, 0])
        base = Interval.from_endpoints(-1 + 2 * self.H, -1 + 7 * self.H)
        tf = build_test_function(b, base, 2.0)
        assert abs(tf.a_j) <= 0.5
        assert np.flatnonzero(tf.f.values).tolist() == [3, 4, 5, 6]
        assert_invariants_hold(tf, b)

    def test_three_valued_symbols_meet_every_bound(self):
        rng = np.random.default_rng(469)
        built = 0
        for _ in range(2000):
            n = int(rng.integers(8, 40))
            origin = -1.0 + self.H * int(rng.integers(-30, 30))
            b = SampledFunction(origin, self.H, rng.integers(-1, 2, n).astype(float))
            a, c = np.sort(rng.choice(n, 2, replace=False))
            if c - a < 2:
                continue
            base = Interval.from_endpoints(origin + a * self.H, origin + c * self.H)
            try:
                tf = build_test_function(b, base, float(rng.uniform(1.2, 3.5)))
            except InputError:
                continue  # constant on the interior nodes
            built += 1
            assert_invariants_hold(tf, b)
            assert np.count_nonzero(b.node_mask(base)) == c - a - 1
        assert built > 1000

    def test_node_mask_is_the_snapped_index_range(self):
        rng = np.random.default_rng(7)
        b = SampledFunction(-1.0, self.H, np.zeros(30))
        k = b.nodes.size
        # Endpoints on nodes, within and beyond the snapping tolerance of a
        # node, between nodes, and off either end of the grid.
        ends = self.H * (rng.integers(-5, k + 5, (400, 2)).astype(float)
                         + rng.choice([0.0, 0.5e-6, -0.5e-6, 2e-6, -2e-6, 0.4], (400, 2)))
        for lo, hi in np.sort(ends, axis=1):
            if not hi > lo:
                continue
            base = Interval.from_endpoints(-1.0 + lo, -1.0 + hi)
            s_lo, s_hi = ((np.array([base.lower, base.upper]) + 1.0) / self.H)
            s_lo, s_hi = (np.rint(s) if abs(s - np.rint(s)) <= ALIGNMENT_TOL else s
                          for s in (s_lo, s_hi))
            want = (np.arange(k) > s_lo) & (np.arange(k) < s_hi)
            np.testing.assert_array_equal(b.node_mask(base), want)
            first, stop = b.node_bounds(base.lower, base.upper)
            assert np.count_nonzero(want) == max(0, stop - first)


class TestAnnulusPieces:
    def test_set_identity(self):
        base = Interval(2.0, 0.5)
        right, left = testfn._annulus(base, 3, 1.0), testfn._annulus(base, 3, -1.0)
        assert right.lower == 2.0 + 8 * 0.5 and right.upper == 2.0 + 16 * 0.5
        assert left.lower == 2.0 - 16 * 0.5 and left.upper == 2.0 - 8 * 0.5

    @pytest.mark.parametrize("k", [1, 3, 5, 8])
    def test_dyadic_inclusion_chain(self, k):
        # 2^(k+1) I is inside 8 * annulus which is inside 2^(k+3) I, on each side.
        base = Interval(0.3, 0.7)
        big = base.dilate(2.0 ** (k + 1))
        bigger = base.dilate(2.0 ** (k + 3))
        for side in (1.0, -1.0):
            eight = testfn._annulus(base, k, side).dilate(8.0)
            assert eight.lower <= big.lower and big.upper <= eight.upper
            assert bigger.lower <= eight.lower and eight.upper <= bigger.upper

    def test_level_validation(self):
        b = sample(sign_step(0.0), -1.25, 1.25, 1000)
        tf = build_test_function(b, I01, 2.0)
        for k in (0, -1):
            with pytest.raises(InputError, match="level"):
                annulus_ladder_reports(b, tf, [k], FLAT)
            with pytest.raises(InputError, match="level"):
                verify_intermediate_bounds(b, tf, [k], FLAT)

    @pytest.mark.parametrize("check", [annulus_ladder_reports, verify_intermediate_bounds])
    def test_level_must_be_whole(self, check):
        b = sample(sign_step(0.0), -1.25, 1.25, 1000)
        tf = build_test_function(b, I01, 2.0)
        with pytest.raises(InputError, match="k = 3.5 is not a whole number"):
            check(b, tf, [3.5], FLAT)

    def test_constants_validation(self):
        b = sample(sign_step(0.0), -1.25, 1.25, 1000)
        tf = build_test_function(b, I01, 2.0)
        for check in (lambda **kw: annulus_ladder_reports(b, tf, [4], FLAT, **kw),
                      lambda **kw: verify_intermediate_bounds(b, tf, [4], FLAT, **kw)):
            with pytest.raises(InputError, match="a1 > 4"):
                check(a1=4.0)
            with pytest.raises(InputError, match="8 evaluation cells"):
                check(eval_cells=7)
            with pytest.raises(InputError, match="whole number of cells, got 8.5"):
                check(eval_cells=8.5)

    @pytest.mark.parametrize("a1", [0.0, -1.0, np.nan, np.inf],
                             ids=["zero", "minus_one", "nan", "inf"])
    @pytest.mark.parametrize("entry", ["annulus_ladder_reports", "verify_intermediate_bounds",
                                       "choose_a2"])
    def test_a1_outside_four_to_inf_refused(self, entry, a1):
        # a1 is checked in one place, ``_level_floor``, before any arithmetic on it.
        b = sample(sign_step(0.0), -1.25, 1.25, 1000)
        tf = build_test_function(b, I01, 2.0)
        call = {"annulus_ladder_reports": lambda: annulus_ladder_reports(b, tf, [4], FLAT, a1=a1),
                "verify_intermediate_bounds":
                    lambda: verify_intermediate_bounds(b, tf, [4], FLAT, a1=a1),
                "choose_a2": lambda: choose_a2(1.0, 1.0, 0.5, a1, 2.0)}[entry]
        with pytest.raises(InputError, match="a1 > 4"):
            call()


def ladder_rows(rep, side):
    """The ``k``, ``lhs``, ``normalizer`` and ``ratio`` columns of one side's rows."""
    rows = rep.columns["side"] == side
    return {name: rep.columns[name][rows] for name in ("k", "lhs", "normalizer", "ratio")}


class TestAnnulusReports:
    @pytest.mark.parametrize("fn,name", [(sign_step(0.0), "sign"),
                                         (truncated_log(0.0), "log")])
    def test_lower_ratios_k_stable(self, fn, name):
        b = sample(fn, -1.25, 1.25, 2500)
        tf = build_test_function(b, I01, 2.0)
        rep = annulus_ladder_reports(b, tf, [3, 4, 5], FLAT)
        c1 = ladder_rows(rep, "lower")["ratio"] / tf.epsilon**2
        assert max(c1) / min(c1) <= 3.0
        up = ladder_rows(rep, "upper")["ratio"]
        assert max(up) / min(up) <= 10.0

    def test_extras_and_verdict_come_from_the_rows(self):
        # The C1 candidates are the lower ratios over eps^p, the C2 candidates
        # the upper ratios; every row passes exactly when both spreads are capped.
        b = sample(truncated_log(0.0), -1.25, 1.25, 2500)
        tf = build_test_function(b, I01, 2.0)
        rep = annulus_ladder_reports(b, tf, [3, 4, 5], FLAT)
        c1 = ladder_rows(rep, "lower")["ratio"] / tf.epsilon**2
        c2 = ladder_rows(rep, "upper")["ratio"]
        assert rep.extras == {
            "p": 2.0, "epsilon": tf.epsilon, "a_j": tf.a_j,
            "c1_candidate_min": min(c1), "c1_candidate_max": max(c1),
            "lower_spread": max(c1) / min(c1), "lower_spread_cap": 3.0,
            "c2_candidate_max": max(c2),
            "upper_spread": max(c2) / min(c2), "upper_spread_cap": 10.0,
        }
        assert rep.columns["pass"].tolist() == [True] * 6
        for cap in ("LOWER_SPREAD_CAP", "UPPER_SPREAD_CAP"):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(testfn, cap, 1.0001)
                tight = annulus_ladder_reports(b, tf, [3, 4, 5], FLAT)
            assert tight.columns["pass"].tolist() == [False] * 6 and not tight.passed

    @pytest.mark.parametrize("curve", [LipschitzCurve.flat(), LipschitzCurve.sawtooth(0.5, 2.0)])
    def test_ladder_is_one_commutator_call(self, monkeypatch, curve):
        # Every level and both shell sides in one call, agreeing with the
        # one-level ladders, which make their own calls.
        kernel = CauchyKernel.for_curve(curve)
        b = sample(sign_step(0.0), -1.25, 1.25, 2000)
        tf = build_test_function(b, I01, 2.0)
        ks = [3, 4, 5]
        calls = []
        original = testfn.commutator_values

        def counted(*args):
            calls.append(np.size(args[3]))
            return original(*args)

        monkeypatch.setattr(testfn, "commutator_values", counted)
        rep = annulus_ladder_reports(b, tf, ks, kernel)
        cells = 512  # the default eval_cells
        assert calls == [len(ks) * (cells + 2 * (cells // 2))]
        assert rep.columns["k"].tolist() == ks + ks
        assert rep.columns["side"].tolist() == ["lower"] * 3 + ["upper"] * 3
        for i, k in enumerate(ks):
            want = annulus_ladder_reports(b, tf, [k], kernel)
            assert want.columns["k"].tolist() == [k, k]
            assert want.columns["side"].tolist() == ["lower", "upper"]
            low, up = rep.columns["lhs"][[i, i + len(ks)]]
            assert low == pytest.approx(want.columns["lhs"][0], rel=1e-12)
            assert up == pytest.approx(want.columns["lhs"][1], rel=1e-12)
            assert (rep.columns["normalizer"][i + len(ks)] == want.columns["normalizer"][1]
                    == 2.0 ** (-k))

    def test_normalizer_exact(self):
        b = sample(sign_step(0.0), -1.25, 1.25, 1000)
        tf = build_test_function(b, I01, 2.0)
        rep = annulus_ladder_reports(b, tf, [4], FLAT)
        assert rep.columns["normalizer"][0] == 2.0 ** (-4 * (2.0 - 1.0))
        assert rep.columns["side"][0] == "lower" and rep.columns["lhs"][0] >= 0
        np.testing.assert_array_equal(rep.columns["ratio"],
                                      rep.columns["lhs"] / rep.columns["normalizer"])

    def test_upper_decay_rate(self):
        # The shell mass itself decays like the normalizer, within a
        # factor of four between consecutive levels.
        b = sample(sign_step(0.0), -1.25, 1.25, 2000)
        tf = build_test_function(b, I01, 2.0)
        reps = [ladder_rows(annulus_ladder_reports(b, tf, [k], FLAT), "upper")
                for k in (3, 4, 5, 6)]
        for a, c in zip(reps, reps[1:]):
            decay = a["lhs"][0] / c["lhs"][0]
            model = c["normalizer"][0] and a["normalizer"][0] / c["normalizer"][0]
            assert decay == pytest.approx(model, rel=3.0)
            assert decay / model <= 4.0 and model / decay <= 4.0

    def test_radius_doubling_leaves_lower_ratio(self):
        b1 = sample(sign_step(0.0), -1.25, 1.25, 2500)
        tf1 = build_test_function(b1, Interval(0.0, 1.0), 2.0)
        r1 = ladder_rows(annulus_ladder_reports(b1, tf1, [4], FLAT), "lower")["ratio"][0]
        b2 = sample(sign_step(0.0), -2.5, 2.5, 5000)
        tf2 = build_test_function(b2, Interval(0.0, 2.0), 2.0)
        r2 = ladder_rows(annulus_ladder_reports(b2, tf2, [4], FLAT), "lower")["ratio"][0]
        assert (r2 / tf2.epsilon**2) == pytest.approx(
            r1 / tf1.epsilon**2, rel=0.10
        )

    def test_low_level_rejected(self):
        b = sample(sign_step(0.0), -1.25, 1.25, 1000)
        tf = build_test_function(b, I01, 2.0)
        with pytest.raises(InputError, match="level"):
            annulus_ladder_reports(b, tf, [2], FLAT, a1=8.0)

    def test_sourceless_out_of_range_rejected(self):
        b_s = sample(sign_step(0.0), -1.25, 1.25, 1000)
        b = SampledFunction(b_s.origin, b_s.step, b_s.values)  # no source
        tf = build_test_function(b, I01, 2.0)
        with pytest.raises(InputError, match="sampled range"):
            annulus_ladder_reports(b, tf, [4], FLAT)


class TestIntermediateBounds:
    def test_sign_pointwise_majorant(self):
        b = sample(sign_step(0.0), -1.25, 1.25, 2500)
        tf = build_test_function(b, I01, 2.0)
        [rep] = verify_intermediate_bounds(b, tf, [4], FLAT)
        assert rep.extras["pointwise_violations"] == 0
        assert rep.passed
        # One row per lattice point, cut to the rows a report file keeps.
        assert rep.extras["rows_total"] == 512 and rep.n_rows == MAX_REPORT_ROWS

    def test_log_drift_bounded(self):
        b = sample(truncated_log(0.0), -1.25, 1.25, 2500)
        tf = build_test_function(b, I01, 2.0)
        ratios = []
        for rep in verify_intermediate_bounds(b, tf, range(2, 9), FLAT, a1=4.2):
            assert rep.extras["pointwise_violations"] == 0
            ratios.append(rep.extras["drift_ratio"])
        assert max(ratios) <= testfn.DRIFT_BOUND

    @pytest.mark.parametrize("curve", [LipschitzCurve.flat(), LipschitzCurve.sawtooth(0.5, 2.0)])
    def test_ladder_is_one_pv_call(self, tmp_path, monkeypatch, curve):
        # Every level's lattice in one call, and each level's report equals
        # the one-level ladder's, byte for byte.
        kernel = CauchyKernel.for_curve(curve)
        b = sample(truncated_log(0.0), -1.25, 1.25, 2500)
        tf = build_test_function(b, I01, 2.0)
        ks = [3, 5, 4]
        calls = []
        original = testfn.pv_values

        def counted(*args):
            calls.append(np.size(args[2]))
            return original(*args)

        monkeypatch.setattr(testfn, "pv_values", counted)
        reps = verify_intermediate_bounds(b, tf, ks, kernel, eval_cells=64)
        assert calls == [len(ks) * 64]
        assert [rep.extras["k"] for rep in reps] == ks
        for k, rep in zip(ks, reps):
            [alone] = verify_intermediate_bounds(b, tf, [k], kernel, eval_cells=64)
            write_report(rep, tmp_path / "ladder", f"k{k}")
            write_report(alone, tmp_path / "alone", f"k{k}")
            for suffix in (".json", ".csv"):
                assert ((tmp_path / "ladder" / f"k{k}{suffix}").read_bytes()
                        == (tmp_path / "alone" / f"k{k}{suffix}").read_bytes())

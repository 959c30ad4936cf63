import numpy as np
import pytest

from cauchylab import bmo
from cauchylab import (
    InputError,
    Interval,
    LipschitzCurve,
    SampledFunction,
    average,
    bmo_norm,
    dyadic_sweep,
    mean_deviation,
    mean_oscillation,
    median,
    oscillation_table,
    sample,
    shift,
    vmo_profile,
)
from cauchylab.curve import eval_A
from cauchylab.symbols import indicator, sign_step, smooth_bump, truncated_log

I01 = Interval(0.0, 1.0)


def grid_fn(fn, lo=-2.0, hi=2.0, count=4000):
    return sample(fn, lo, hi, count)


def _rows(table):
    return table.lowers, table.uppers, table.measures, table.oscs


class TestAverage:
    def test_constant_exact(self):
        f = grid_fn(lambda y: np.full_like(y, 3.25))
        assert average(f, I01) == 3.25

    def test_odd_symmetry(self):
        f = grid_fn(lambda y: y)
        assert abs(average(f, I01)) <= f.step

    def test_half_indicator(self):
        f = grid_fn(indicator(0.0, 1.0))
        assert average(f, I01) == pytest.approx(0.5, abs=2 * f.step / I01.measure)

    def test_empty_rejected(self):
        f = grid_fn(lambda y: y)
        with pytest.raises(InputError):
            average(f, Interval(100.0, 0.5))

    def test_complex_rejected(self):
        f = grid_fn(lambda y: y * (1 + 1j))
        with pytest.raises(InputError):
            average(f, I01)


class TestMeanOscillation:
    def test_constant(self):
        f = grid_fn(lambda y: np.full_like(y, -7.0))
        assert mean_oscillation(f, I01) == 0.0

    def test_sign(self):
        f = grid_fn(sign_step(0.0))
        assert mean_oscillation(f, I01) == pytest.approx(1.0, abs=4 * f.step)

    def test_half_indicator(self):
        f = grid_fn(indicator(0.0, 1.0))
        assert mean_oscillation(f, I01) == pytest.approx(0.5, abs=4 * f.step)

    def test_two_sided_bound_via_any_center(self, rng):
        # Oscillation around the mean is at most twice the deviation
        # around any constant, in particular the median.
        for _ in range(25):
            f = grid_fn(lambda y: np.sin(3 * y) + rng.normal(scale=0.3, size=y.size))
            m = mean_oscillation(f, I01)
            alpha = median(f, I01).value
            assert m <= 2 * mean_deviation(f, I01, alpha) + 1e-12
            c = float(rng.normal())
            assert m <= 2 * mean_deviation(f, I01, c) + 1e-12


class TestBmoNorm:
    def test_constant(self):
        f = grid_fn(lambda y: np.full_like(y, 2.0))
        sweep = dyadic_sweep(f)
        assert bmo_norm(f, sweep) == 0.0

    def test_sign_lower_bound(self):
        f = grid_fn(sign_step(0.0))
        assert bmo_norm(f, [I01]) >= 1.0 - 4 * f.step

    def test_monotone_under_sweep_growth(self):
        f = grid_fn(lambda y: np.sin(5 * y))
        sweep = dyadic_sweep(f)
        small = bmo_norm(f, sweep[:10])
        assert bmo_norm(f, sweep) >= small

    def test_empty_sweep_rejected(self):
        f = grid_fn(lambda y: y)
        with pytest.raises(InputError):
            bmo_norm(f, [])

    def test_sweep_and_list_agree_with_per_interval(self):
        f = grid_fn(lambda y: np.sin(5 * y) + (y > 0.3), count=256)
        sweep = dyadic_sweep(f)
        want = max(mean_oscillation(f, I) for I in sweep)
        assert bmo_norm(f, sweep) == bmo_norm(f, list(sweep)) == want

    def test_interval_off_the_grid_rejected(self):
        f = grid_fn(lambda y: y)
        with pytest.raises(InputError, match="does not intersect"):
            bmo_norm(f, [I01, Interval(100.0, 0.5)])

    def test_translation_invariance_exact(self):
        f = grid_fn(lambda y: np.sin(5 * y) + (y > 0.3))
        z = 16 * f.step
        g = shift(f, z)
        sweep = [Interval( -0.2, 0.5), Interval(0.1, 0.25)]
        moved = [I.translate(-z) for I in sweep]
        lhs = bmo_norm(g, moved)
        rhs = bmo_norm(f, sweep)
        assert lhs == rhs


class TestMedian:
    def test_constant(self):
        f = grid_fn(lambda y: np.full_like(y, 4.5))
        m = median(f, I01)
        assert m.value == 4.5 and m.upper_excess == 0.0 and m.lower_excess == 0.0

    def test_sign_smallest_admissible(self):
        # No node at the jump: values are only +-1 and the smallest
        # admissible value is -1.
        f = grid_fn(sign_step(0.0))
        assert not np.any(f.nodes == 0.0)
        m = median(f, I01)
        assert m.value == -1.0
        assert m.upper_excess <= 0.5 and m.lower_excess <= 0.5

    def test_linear(self):
        f = grid_fn(lambda y: y)
        m = median(f, I01)
        assert abs(m.value) <= f.step

    def test_excess_certificates(self, rng):
        for _ in range(50):
            n = int(rng.integers(5, 400))
            f = SampledFunction(-1.0, 2.0 / n, rng.normal(size=n))
            I = Interval(0.0, 0.9)
            m = median(f, I)
            slack = f.step / I.measure
            assert m.upper_excess <= 0.5 + slack
            assert m.lower_excess <= 0.5 + slack

    def test_median_minimizes_mean_deviation(self, rng):
        # The returned value brute-force minimizes over all node values.
        for _ in range(50):
            n = int(rng.integers(8, 300))
            f = SampledFunction(-1.0, 2.0 / n, rng.normal(size=n))
            I = Interval(0.0, 0.95)
            alpha = median(f, I).value
            vals = f.values.real[f.node_mask(I)]
            best = min(np.mean(np.abs(vals - c)) for c in vals)
            assert mean_deviation(f, I, alpha) <= best + 1e-12


class TestVmoProfile:
    def test_constant_all_zero(self):
        f = grid_fn(lambda y: np.full_like(y, 1.0), count=512)
        prof = vmo_profile(f, [0.1, 0.5], [0.5, 1.0])
        for curve in (prof.small_scale, prof.large_scale, prof.far_away):
            assert all(v == 0.0 for _, v in curve)

    def test_smooth_bump_small_scale(self):
        curve = LipschitzCurve.smooth_bump(1.0, 1.0)
        f = grid_fn(lambda y: eval_A(curve, y), count=2048)
        lip = curve.lipschitz_constant
        prof = vmo_profile(f, [0.05, 0.1, 0.2, 0.4], [1.0])
        for delta, sup in prof.small_scale:
            assert sup <= lip * delta / 2

    def test_truncated_log_small_scale_floor(self):
        f = grid_fn(truncated_log(0.0), count=8192)
        prof = vmo_profile(f, [0.01, 0.05, 0.2], [1.0])
        for _, sup in prof.small_scale:
            assert sup >= 0.3

    def test_profiles_keyed_sorted(self):
        f = grid_fn(lambda y: np.sin(y), count=256)
        prof = vmo_profile(f, [0.5, 0.1], [2.0, 0.5])
        assert [d for d, _ in prof.small_scale] == sorted([0.5, 0.1])
        assert [R for R, _ in prof.large_scale] == sorted([2.0, 0.5])

    def test_bad_ladders(self):
        f = grid_fn(lambda y: y, count=128)
        with pytest.raises(InputError):
            vmo_profile(f, [], [1.0])
        with pytest.raises(InputError):
            vmo_profile(f, [0.1], [-1.0])


class TestSweep:
    def test_dyadic_lengths_and_endpoints(self):
        f = grid_fn(lambda y: y, count=64)
        sweep = dyadic_sweep(f)
        lengths = {round(I.measure / f.step) for I in sweep}
        assert lengths <= {2, 4, 8, 16, 32, 64}
        node_set = set(np.round(f.nodes, 12))
        for I in sweep[:50]:
            assert round(I.lower, 12) in node_set
            assert round(I.upper, 12) in node_set

    def test_table_matches_direct(self):
        f = grid_fn(lambda y: np.sin(4 * y) + (y > 0), count=256)
        table = oscillation_table(f)
        for I, osc in table:
            assert osc == mean_oscillation(f, I)

    def test_table_matches_direct_off_dyadic_step(self):
        # Off a power-of-two step, center +- radius of a row rounds to either
        # side of its endpoint nodes; the rebuilt interval still holds w - 1.
        f = SampledFunction(-1.3, 3.4 / 199, np.random.default_rng(1).normal(size=200))
        table = oscillation_table(f)
        assert all(osc == mean_oscillation(f, I) for I, osc in table)
        assert bmo_norm(f, dyadic_sweep(f)) == table.oscs.max()

    @pytest.mark.parametrize("chunk", [1, 5, 10**8])
    def test_chunk_size_does_not_change_results(self, monkeypatch, rng, chunk):
        # 5 is below the row width of every level from w = 8 up.
        f = SampledFunction(-1.0, 0.01, rng.normal(size=300))
        want = oscillation_table(f).oscs
        monkeypatch.setattr(bmo, "_CHUNK_ELEMENTS", chunk)
        assert np.array_equal(oscillation_table(f).oscs, want)

    def test_sequence_contract(self):
        f = grid_fn(lambda y: np.sin(3 * y), count=64)
        table = oscillation_table(f)
        sweep = dyadic_sweep(f)
        n = f.count
        rows = sum(n - 2**m for m in range(1, 7))
        assert len(table) == len(sweep) == rows
        for arr in (*_rows(table), sweep.lowers, sweep.uppers, sweep.measures):
            assert isinstance(arr, np.ndarray) and arr.shape == (rows,)
        first, last = table[0], table[-1]
        assert isinstance(first[0], Interval) and type(first[1]) is float
        assert first == (sweep[0], table.oscs[0])
        assert last == table[rows - 1] and last[0] == sweep[-1]
        assert first[0] == Interval(0.5 * (f.nodes[0] + f.nodes[2]), f.step)
        assert type(sweep[0].center) is float and type(sweep[0].radius) is float
        with pytest.raises(IndexError):
            table[rows]
        with pytest.raises(IndexError):
            sweep[-rows - 1]
        for part, whole in ((table[5:40:3], table), (sweep[::-7], sweep)):
            assert type(part) is type(whole)
        assert list(table[5:40:3]) == list(table)[5:40:3]
        assert list(sweep[::-7]) == list(sweep)[::-7]
        assert list(table) == [table[k] for k in range(rows)]
        assert [I for I, _ in table] == list(sweep)
        assert np.array_equal(table.measures, [I.measure for I in sweep])
        assert np.array_equal(table.lowers, [I.lower for I in sweep])
        assert np.array_equal(table.uppers, [I.upper for I in sweep])

    def test_too_short_grid_rejected(self):
        # Two nodes hold no interval of length 2 steps.
        with pytest.raises(InputError, match="too short"):
            dyadic_sweep(grid_fn(lambda y: y, count=2))

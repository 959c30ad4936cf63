import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cauchylab import bmo, sampling
from cauchylab import (
    InputError,
    Interval,
    LipschitzCurve,
    SampledFunction,
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
from cauchylab.sampling import ALIGNMENT_TOL
from cauchylab.symbols import indicator, sign_step, smooth_bump, truncated_log

I01 = Interval(0.0, 1.0)


def grid_fn(fn, lo=-2.0, hi=2.0, count=4000):
    return sample(fn, lo, hi, count)


def _rows(table):
    return table.intervals.lowers, table.intervals.uppers, table.intervals.measures, table.oscs


class TestRealCheck:
    def test_real_values_are_never_scanned_and_complex_ones_on_every_call(self, monkeypatch):
        # Real values are stored as float64 and returned as they are; complex
        # values are checked for a negligible imaginary part on every read.
        calls = []
        original = sampling._checked_real

        def counted(values):
            calls.append(values.size)
            return original(values)

        monkeypatch.setattr(sampling, "_checked_real", counted)
        f = grid_fn(lambda y: y)
        assert f.values.dtype == np.float64
        first = bmo._real_on(f, I01)
        second = bmo._real_on(f, Interval(0.5, 0.25))
        assert calls == []
        assert f.real_values() is f.values
        np.testing.assert_array_equal(first, f.values[f.node_mask(I01)])
        assert second.size == np.count_nonzero(f.node_mask(Interval(0.5, 0.25)))
        g = f.with_values(f.values + 0j)
        for _ in range(2):
            np.testing.assert_array_equal(bmo._real_on(g, I01), first)
        assert calls == [g.count, g.count]

    def test_complex_rejected_on_every_call(self):
        f = grid_fn(lambda y: y * (1 + 1j))
        for _ in range(2):
            with pytest.raises(InputError):
                mean_oscillation(f, I01)


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
            alpha = median(f, I01)
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
        small = bmo_norm(f, list(sweep)[:10])
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
        moved = [Interval(I.center - z, I.radius) for I in sweep]
        lhs = bmo_norm(g, moved)
        rhs = bmo_norm(f, sweep)
        assert lhs == rhs


def excess(f, I, m):
    """The fractions of the nodes in ``I`` where ``f`` lies above and below ``m``."""
    vals = f.values.real[f.node_mask(I)]
    return np.mean(vals > m), np.mean(vals < m)


class TestMedian:
    def test_constant(self):
        f = grid_fn(lambda y: np.full_like(y, 4.5))
        m = median(f, I01)
        assert m == 4.5 and excess(f, I01, m) == (0.0, 0.0)

    def test_sign_smallest_admissible(self):
        # No node at the jump: values are only +-1 and the smallest
        # admissible value is -1.
        f = grid_fn(sign_step(0.0))
        assert not np.any(f.nodes == 0.0)
        m = median(f, I01)
        assert m == -1.0
        upper, lower = excess(f, I01, m)
        assert upper <= 0.5 and lower <= 0.5

    def test_linear(self):
        f = grid_fn(lambda y: y)
        m = median(f, I01)
        assert abs(m) <= f.step

    def test_excess_certificates(self, rng):
        for _ in range(50):
            n = int(rng.integers(5, 400))
            f = SampledFunction(-1.0, 2.0 / n, rng.normal(size=n))
            I = Interval(0.0, 0.9)
            m = median(f, I)
            upper, lower = excess(f, I, m)
            slack = f.step / I.measure
            assert upper <= 0.5 + slack
            assert lower <= 0.5 + slack

    def test_median_minimizes_mean_deviation(self, rng):
        # The returned value brute-force minimizes over all node values.
        for _ in range(50):
            n = int(rng.integers(8, 300))
            f = SampledFunction(-1.0, 2.0 / n, rng.normal(size=n))
            I = Interval(0.0, 0.95)
            alpha = median(f, I)
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
        for bad in (np.nan, np.inf):
            with pytest.raises(InputError, match="positive and finite"):
                vmo_profile(f, [bad], [0.5])
            with pytest.raises(InputError, match="positive and finite"):
                vmo_profile(f, [0.1], [bad])


class TestSweep:
    def test_dyadic_lengths_and_endpoints(self):
        f = grid_fn(lambda y: y, count=64)
        sweep = dyadic_sweep(f)
        lengths = {round(I.measure / f.step) for I in sweep}
        assert lengths <= {2, 4, 8, 16, 32, 64}
        node_set = set(np.round(f.nodes, 12))
        for I in list(sweep)[:50]:
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

    @pytest.mark.parametrize("f", [
        grid_fn(lambda y: y, count=64),
        grid_fn(lambda y: y, count=4096),
        SampledFunction(-1.3, 3.4 / 199, np.zeros(200)),
    ], ids=["dyadic-64", "dyadic-4096", "off-dyadic-200"])
    def test_node_bounds_match_searchsorted(self, rng, f):
        # The reference is the searchsorted form over the whole node array.
        def reference(lowers, uppers):
            def snapped(x):
                s = (x - f.origin) / f.step
                k = np.rint(s)
                return np.where(np.abs(s - k) <= ALIGNMENT_TOL, f.origin + k * f.step, x)

            return (np.searchsorted(f.nodes, snapped(lowers), "right"),
                    np.searchsorted(f.nodes, snapped(uppers), "left"))

        sweep = dyadic_sweep(f)
        h = f.step
        # Sweep endpoints, random points, points beyond both ends, and points
        # just inside and just outside the snapping tolerance of a node.
        near = f.origin + h * np.arange(-3, f.count + 3)
        offsets = h * np.array([0.0, 0.5e-6, -0.5e-6, 2e-6, -2e-6, 0.3, -0.3])
        probes = np.concatenate([
            rng.uniform(f.lower - 3 * h, f.upper + 3 * h, size=500),
            (near[:, None] + offsets).ravel(),
        ])
        lowers = np.concatenate([sweep.lowers, probes])
        uppers = np.concatenate([sweep.uppers, probes + h * rng.integers(2, 9, probes.size)])
        want_lo, want_hi = reference(lowers, uppers)
        hits = want_hi > want_lo
        assert np.count_nonzero(~hits) > 0
        got_lo, got_hi = f.node_bounds(lowers, uppers)
        np.testing.assert_array_equal(got_lo[hits], want_lo[hits])
        np.testing.assert_array_equal(got_hi[hits], want_hi[hits])
        assert np.all(got_hi[~hits] <= got_lo[~hits])
        miss = Interval.from_endpoints(lowers[~hits][0], uppers[~hits][0])
        assert not np.any(f.node_mask(miss))
        with pytest.raises(InputError, match="does not intersect"):
            mean_oscillation(f, miss)

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
        for seq in (table, sweep):
            with pytest.raises(TypeError):
                seq[5:40:3]
        assert list(table) == [table[k] for k in range(rows)]
        assert [I for I, _ in table] == list(sweep)
        assert np.array_equal(table.intervals.measures, [I.measure for I in sweep])
        assert np.array_equal(table.intervals.lowers, [I.lower for I in sweep])
        assert np.array_equal(table.intervals.uppers, [I.upper for I in sweep])

    def test_too_short_grid_rejected(self):
        # Two nodes hold no interval of length 2 steps.
        with pytest.raises(InputError, match="too short"):
            dyadic_sweep(grid_fn(lambda y: y, count=2))


class TestBlockRejected:
    @pytest.mark.parametrize("call", [
        lambda f: mean_oscillation(f, I01),
        lambda f: median(f, I01),
        lambda f: mean_deviation(f, I01, 0.0),
        lambda f: bmo_norm(f, dyadic_sweep(f)),
        lambda f: oscillation_table(f),
        lambda f: vmo_profile(f, [0.1], [1.0]),
    ], ids=["mean_oscillation", "median", "mean_deviation", "bmo_norm",
            "oscillation_table", "vmo_profile"])
    def test_oscillations_take_one_function(self, call):
        # A real block must not be read as one function of 2 n values.
        f = grid_fn(lambda y: y, count=64)
        block = f.with_values(np.stack([f.values.real, -f.values.real], axis=1))
        with pytest.raises(InputError, match="takes one function"):
            call(block)


def _long_row_values(kind: str, x: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Values at nodes ``x`` for one family of the rank-path property."""
    if kind == "ties":
        return rng.integers(-3, 4, x.size).astype(float)
    if kind == "offset_pieces":
        cuts = np.sort(rng.uniform(x[0], x[-1], size=int(rng.integers(2, 30))))
        return 1e3 + rng.normal(size=cuts.size + 1)[np.searchsorted(cuts, x)]
    if kind == "log_floor":
        floor = float(rng.uniform(-30.0, -2.0))
        return np.maximum(np.log(np.abs(x - rng.uniform(x[0], x[-1]))), floor)
    return np.sin(3 * x) + rng.normal(scale=0.3, size=x.size)


_long_row_cases = dict(kind=st.sampled_from(["ties", "offset_pieces", "log_floor", "noise"]),
                       count=st.integers(1500, 4000), span=st.floats(1.0, 10.0),
                       seed=st.integers(0, 2**32 - 1))


class TestRankPath:
    """Rows wider than ``_DIRECT_WIDTH`` nodes, computed from rank counts."""

    @settings(max_examples=40)
    @given(**_long_row_cases)
    def test_long_rows_match_mean_oscillation(self, kind, count, span, seed):
        # span / count is off-dyadic for almost every draw.
        rng = np.random.default_rng(seed)
        step = span / count
        x = -0.5 * span + step * (np.arange(count) + 0.5)
        f = SampledFunction(x[0], step, _long_row_values(kind, x, rng))
        vals = f.real_values()
        table = oscillation_table(f)
        lo, hi = f.node_bounds(table.intervals.lowers, table.intervals.uppers)
        wide = np.flatnonzero(hi - lo > bmo._DIRECT_WIDTH)
        runs = np.unique(hi[wide] - lo[wide]).size  # a table's rows are grouped by width
        assert bmo._rank_pays(count, wide.size, int(np.sum(hi[wide] - lo[wide])), runs)

        def assert_close(got, want, row):
            assert abs(got - want) <= 1e-12 * (abs(want) + np.mean(np.abs(row)))

        for k in rng.choice(wide, size=min(200, wide.size), replace=False):
            I, osc = table[int(k)]
            assert_close(osc, mean_oscillation(f, I), bmo._real_on(f, I))
        # Rows at any offset and width, so blocks of every alignment are tiled.
        starts = rng.integers(0, count - bmo._DIRECT_WIDTH - 1, size=200)
        stops = rng.integers(starts + bmo._DIRECT_WIDTH + 1, count + 1)
        got = bmo._rank_oscillations(vals, starts, stops)
        for a, b, osc in zip(starts, stops, got):
            assert_close(osc, bmo._oscillation(vals[a:b]), vals[a:b])

    @settings(max_examples=30)
    @given(rank=st.booleans(), **_long_row_cases)
    def test_row_subset_equals_the_whole_set_at_its_rows(self, rank, kind, count, span, seed):
        # A fifth of the count keeps a dyadic table below the rank path's crossover.
        count = count if rank else count // 5
        rng = np.random.default_rng(seed)
        step = span / count
        x = -0.5 * span + step * (np.arange(count) + 0.5)
        vals = _long_row_values(kind, x, rng)
        lo, hi = bmo._dyadic_rows(count)
        assert bmo._takes_rank(count, hi - lo) == rank
        whole = bmo._range_oscillations(vals, lo, hi)
        narrow = hi - lo <= bmo._DIRECT_WIDTH
        for keep in (np.zeros(lo.size, dtype=bool), narrow & (rng.random(lo.size) < 0.3),
                     rng.random(lo.size) < rng.uniform(0.0, 0.1), rng.random(lo.size) < 0.8):
            rows = np.flatnonzero(keep)
            got = bmo._range_oscillations(vals, lo, hi, rows)
            assert got.tobytes() == whole[rows].tobytes()

    @pytest.mark.parametrize("value", [3.25, -7.0])
    def test_constant_is_exactly_zero_on_both_paths(self, value):
        f = grid_fn(lambda y: np.full_like(y, value), count=4000)
        vals = f.real_values()
        starts = np.arange(0, 3000, 7)
        stops = starts + bmo._DIRECT_WIDTH + 1 + starts % 700
        assert not np.any(bmo._direct_oscillations(vals, starts, stops))
        assert not np.any(bmo._rank_oscillations(vals, starts, stops))
        assert not np.any(oscillation_table(f).oscs)
        # No row is evaluated for a supremum, though the table takes the rank path.
        assert bmo_norm(f, dyadic_sweep(f)) == 0.0
        prof = vmo_profile(f, [0.1, 4.0], [0.5])
        for curve in (prof.small_scale, prof.large_scale, prof.far_away):
            assert all(v == 0.0 for _, v in curve)

    def test_offset_cancels_exactly(self):
        # An exact offset leaves the median-shifted values, and so every
        # oscillation, bit for bit unchanged.
        g = np.random.default_rng(3).integers(-3, 4, 3000).astype(float)
        starts = np.arange(0, 2300, 11)
        stops = starts + bmo._DIRECT_WIDTH + 1 + starts % 400
        want = bmo._rank_oscillations(g, starts, stops)
        assert np.array_equal(bmo._rank_oscillations(2.0**40 + g, starts, stops), want)

    def test_row_sums_read_only_their_row(self):
        # A row's sum is the same, bit for bit, when every node outside the
        # row is NaN; a difference of running sums reads the NaNs before it.
        rng = np.random.default_rng(5)
        v = 10.0 + rng.normal(size=10_007)
        widths = np.tile([257, 258, 511, 4097, 8191], 3)
        lo = np.concatenate([np.zeros(5, int), 1 + 397 * np.arange(5), v.size - widths[:5]])
        hi = lo + widths
        sums = bmo._row_sums(v, lo, hi)
        for a, b, total in zip(lo, hi, sums):
            assert abs(total - v[a:b].sum()) <= 1e-12 * abs(total)
            alone = np.full(v.size, np.nan)
            alone[a:b] = v[a:b]
            assert np.array_equal(bmo._row_sums(alone, np.array([a]), np.array([b])), [total])

    def test_row_order_changes_no_value(self):
        rng = np.random.default_rng(6)
        vals = rng.normal(size=5000)
        lo = rng.integers(0, vals.size - bmo._DIRECT_WIDTH - 1, size=bmo._QUERY_ROWS + 1000)
        hi = rng.integers(lo + bmo._DIRECT_WIDTH + 1, vals.size + 1)
        shuffle = rng.permutation(lo.size)
        want = bmo._rank_oscillations(vals, lo, hi)
        assert np.array_equal(bmo._rank_oscillations(vals, lo[shuffle], hi[shuffle]), want[shuffle])

    def test_rows_are_tiled_once(self, monkeypatch):
        levels = []
        original = bmo._tiles
        monkeypatch.setattr(bmo, "_tiles",
                            lambda lo, hi, j: levels.append(j) or original(lo, hi, j))
        starts = np.arange(0, 1000, 9)
        bmo._rank_oscillations(np.sin(np.arange(4000.0)), starts, starts + 3000)
        assert levels == list(range((3000).bit_length()))

    def test_bmo_norm_equals_table_max_with_long_rows(self):
        f = SampledFunction(-1.3, 3.4 / 3999, np.random.default_rng(2).normal(size=4000))
        table = oscillation_table(f)
        assert table.intervals.measures.max() > bmo._DIRECT_WIDTH * f.step
        assert bmo_norm(f, dyadic_sweep(f)) == table.oscs.max()
        # A sweep of long rows only: every row takes the rank path.
        wide = np.rint(table.intervals.measures / f.step) - 1 > bmo._DIRECT_WIDTH
        long_rows = bmo.IntervalSweep(table.intervals.centers[wide], table.intervals.radii[wide])
        assert bmo_norm(f, long_rows) == table.oscs[wide].max()

    def test_dispatch_both_ways(self, monkeypatch):
        calls = []
        original = bmo._rank_oscillations

        def spy(vals, lo, hi):
            calls.append(lo.size)
            return original(vals, lo, hi)

        monkeypatch.setattr(bmo, "_rank_oscillations", spy)
        f = grid_fn(lambda y: np.sin(5 * y) + (y > 0.3), count=4000)
        table = oscillation_table(f)
        widths = np.rint(table.intervals.measures / f.step) - 1
        wide = int(np.count_nonzero(widths > bmo._DIRECT_WIDTH))
        assert calls == [wide] and wide > 0
        # A few long intervals, as an annulus ladder passes, stay direct and exact.
        few = [I01.dilate(2.0**j) for j in range(-1, 2)]
        assert bmo_norm(f, few) == max(mean_oscillation(f, I) for I in few)
        # So does every row of a table too small for the tree to pay.
        small = grid_fn(lambda y: np.sin(5 * y), count=1000)
        assert all(osc == mean_oscillation(small, I) for I, osc in oscillation_table(small))
        assert calls == [wide]

    def test_many_widths_take_the_rank_path(self, monkeypatch):
        # 3000 rows of spread widths: direct reduction sets up one run per width,
        # and the rank path is several times faster.
        calls = []
        original = bmo._rank_oscillations
        monkeypatch.setattr(bmo, "_rank_oscillations",
                            lambda vals, lo, hi: calls.append(lo.size) or original(vals, lo, hi))
        rng = np.random.default_rng(4)
        vals = rng.normal(size=16384)
        widths = np.sort(rng.integers(257, 1744, 3000))
        lo = rng.integers(0, vals.size - widths)
        got = bmo._range_oscillations(vals, lo, lo + widths)
        assert calls == [3000]
        want = bmo._direct_oscillations(vals, lo, lo + widths)
        assert np.all(np.abs(got - want) <= 1e-12 * (np.abs(want) + np.mean(np.abs(vals))))

    @pytest.mark.parametrize("count, rank", [(1000, False), (2000, True), (16384, True)])
    def test_dyadic_tables_keep_their_path(self, monkeypatch, count, rank):
        # The lab's bmo-norm and vmo-profile tables (2000 nodes) and the
        # benchmark's oscillation tables (16384 nodes) take the rank path, and
        # a 1000-node table stays direct, with or without the width runs.
        choices = []
        original = bmo._rank_pays

        def spy(n, rows, width, runs):
            pays = original(n, rows, width, runs)
            choices.append((pays, width > bmo._RANK_COST * n.bit_length() * (n + rows)))
            return pays

        monkeypatch.setattr(bmo, "_rank_pays", spy)
        oscillation_table(grid_fn(lambda y: np.sin(5 * y), count=count))
        assert choices == [(rank, rank)]


def _supremum_values(kind: str, x: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Values for the supremum properties: the rank-path families, inexact
    steps (whose one-value rows average to a rounding residue) and ramps."""
    if kind == "inexact_steps":
        cuts = np.sort(rng.uniform(x[0], x[-1], size=int(rng.integers(1, 12))))
        return rng.choice([0.1, 0.3, -0.7, 1.1], size=cuts.size + 1)[np.searchsorted(cuts, x)]
    if kind == "ramp":
        return np.clip(rng.uniform(-3.0, 3.0) * x + rng.uniform(-1.0, 1.0), -0.3, 0.1)
    return _long_row_values(kind, x, rng)


def _one_valued(vals: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Whether each row ``vals[lo:hi]`` holds one value: its run of equal values reaches ``hi``."""
    changes = np.flatnonzero(vals[1:] != vals[:-1]) + 1
    run_end = np.append(changes, vals.size)[np.searchsorted(changes, lo, side="right")]
    return hi <= run_end


_supremum_cases = given(
    kind=st.sampled_from(["ties", "offset_pieces", "log_floor", "noise", "inexact_steps", "ramp"]),
    count=st.integers(300, 4000), span=st.floats(1.0, 10.0), seed=st.integers(0, 2**32 - 1))


def _supremum_case(kind, count, span, seed):
    rng = np.random.default_rng(seed)
    step = span / count
    x = -0.5 * span + step * (np.arange(count) + 0.5)
    return SampledFunction(x[0], step, _supremum_values(kind, x, rng)), rng


class TestSuprema:
    """``vmo_profile`` and ``bmo_norm`` evaluate only the rows that can hold a supremum."""

    @settings(max_examples=40, deadline=None)
    @_supremum_cases
    def test_vmo_profile_equals_table_suprema(self, kind, count, span, seed):
        f, rng = _supremum_case(kind, count, span, seed)
        deltas = rng.uniform(0.001, 1.2 * span, size=int(rng.integers(1, 5))).tolist()
        radii = rng.uniform(0.001, 0.6 * span, size=int(rng.integers(1, 4))).tolist()
        table = oscillation_table(f)
        lo, hi = f.node_bounds(table.intervals.lowers, table.intervals.uppers)
        oscs = np.where(_one_valued(f.real_values(), lo, hi), 0.0, table.oscs)
        sweep = table.intervals
        lowers, uppers, measures = sweep.lowers, sweep.uppers, sweep.measures

        def sup(mask):
            return float(oscs[mask].max()) if np.any(mask) else 0.0

        prof = vmo_profile(f, deltas, radii)
        assert prof.small_scale == tuple((d, sup(measures < d)) for d in sorted(deltas))
        assert prof.large_scale == tuple((R, sup(measures > R)) for R in sorted(radii))
        assert prof.far_away == tuple(
            (R, sup((lowers >= R) | (uppers <= -R))) for R in sorted(radii))
        assert bmo_norm(f, dyadic_sweep(f)) == oscs.max()

    @settings(max_examples=30, deadline=None)
    @_supremum_cases
    def test_every_row_is_within_its_bound(self, kind, count, span, seed):
        f, _ = _supremum_case(kind, count, span, seed)
        vals = f.real_values()
        table = oscillation_table(f)
        lo, hi = f.node_bounds(table.intervals.lowers, table.intervals.uppers)
        bounds = bmo._row_bounds(vals, lo, hi, bmo._width_runs(hi - lo))
        one = _one_valued(vals, lo, hi)
        assert np.array_equal(bounds == 0, one)
        assert np.all(table.oscs[~one] <= bounds[~one])

    def test_bound_covers_the_rounding_of_both_paths(self):
        # Rows of even width over two alternating values have M = (max - min) / 2
        # exactly, and on either path many of them round above it.
        rng = np.random.default_rng(8)
        vals = np.tile([-0.7, 1.1], 2048)
        widths = np.sort(2 * rng.integers(1, 600, 2000))
        lo = rng.integers(0, vals.size - widths)
        hi = lo + widths
        assert bmo._takes_rank(vals.size, widths)
        oscs = bmo._range_oscillations(vals, lo, hi)
        wide = widths > bmo._DIRECT_WIDTH
        for path in (wide, ~wide):
            assert np.any(oscs[path] > (1.1 - -0.7) / 2)
        assert np.all(oscs <= bmo._row_bounds(vals, lo, hi, bmo._width_runs(widths)))

    def test_constant_with_rounding_residue_is_exactly_zero(self):
        # The mean of three 0.1s is 0.10000000000000002, so the table shows a
        # residue; a row that holds one value counts as exactly 0.
        f = SampledFunction(-1.0, 0.05, np.full(40, 0.1))
        assert oscillation_table(f).oscs.max() > 0
        assert bmo_norm(f, dyadic_sweep(f)) == 0.0
        prof = vmo_profile(f, [0.1, 0.5, 4.0], [0.1, 0.5])
        for curve in (prof.small_scale, prof.large_scale, prof.far_away):
            assert all(v == 0.0 for _, v in curve)

    @pytest.mark.parametrize("symbol", [sign_step(0.0), truncated_log(0.0)],
                             ids=["sign", "truncated_log"])
    def test_most_rows_are_never_evaluated(self, monkeypatch, symbol):
        f = grid_fn(symbol, count=4096)
        rows = len(oscillation_table(f))
        evaluated = []
        for name in ("_direct_oscillations", "_rank_oscillations"):
            original = getattr(bmo, name)
            monkeypatch.setattr(bmo, name, lambda vals, lo, hi, original=original:
                                evaluated.append(lo.size) or original(vals, lo, hi))
        prof = vmo_profile(f, [0.0625, 0.125, 0.25, 0.5], [0.5, 1.0, 2.0])
        assert 0 < sum(evaluated) < rows / 4
        assert prof.small_scale[0][1] > 0

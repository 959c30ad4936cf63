import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cauchylab import (
    Annulus,
    GridAlignmentError,
    InputError,
    Interval,
    SampledFunction,
    function_from_csv,
    function_to_csv,
    lp_norm,
    sample,
    shift,
)
from cauchylab.symbols import indicator

finite = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)
pos = st.floats(min_value=1e-3, max_value=1e3, allow_nan=False)


class TestInterval:
    def test_measure_and_edges(self):
        I = Interval(1.0, 2.0)
        assert I.measure == 4.0 and I.lower == -1.0 and I.upper == 3.0

    def test_open_containment(self):
        I = Interval(0.0, 1.0)
        assert not I.contains(1.0) and not I.contains(-1.0) and I.contains(0.999)

    @given(c=finite, r=pos, a=pos, b=pos)
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_dilate_algebra(self, c, r, a, b):
        I = Interval(c, r)
        assert I.dilate(1.0) == I
        d1 = I.dilate(a).dilate(b)
        d2 = I.dilate(a * b)
        assert d1.center == d2.center
        assert d1.radius == pytest.approx(d2.radius, rel=1e-12)

    def test_dilate_rejects_nonpositive(self):
        with pytest.raises(InputError):
            Interval(0.0, 1.0).dilate(0.0)

    def test_translate(self):
        assert Interval(0.0, 1.0).translate(3.0) == Interval(3.0, 1.0)

    def test_bad_radius(self):
        with pytest.raises(InputError):
            Interval(0.0, 0.0)


class TestAnnulus:
    def test_set_identity(self):
        ann = Annulus(Interval(2.0, 0.5), 3)
        I = ann.as_interval
        assert I.lower == 2.0 + 8 * 0.5 and I.upper == 2.0 + 16 * 0.5

    @pytest.mark.parametrize("k", [1, 3, 5, 8])
    def test_dyadic_inclusion_chain(self, k):
        # 2^(k+1) I is inside 8 * annulus which is inside 2^(k+3) I.
        base = Interval(0.3, 0.7)
        eight = Annulus(base, k).as_interval.dilate(8.0)
        big = base.dilate(2.0 ** (k + 1))
        bigger = base.dilate(2.0 ** (k + 3))
        assert eight.lower <= big.lower and big.upper <= eight.upper
        assert bigger.lower <= eight.lower and eight.upper <= bigger.upper

    def test_level_validation(self):
        with pytest.raises(InputError):
            Annulus(Interval(0.0, 1.0), 0)


class TestLpNorm:
    def test_zero(self):
        f = sample(lambda y: np.zeros_like(y), -1, 1, 100)
        assert lp_norm(f, 2.0) == 0.0

    def test_indicator(self):
        h = 1e-3
        f = sample(indicator(0.0, 1.0), -2.0, 2.0, int(4 / h))
        assert lp_norm(f, 2.0) == pytest.approx(1.0, abs=2 * h)

    def test_linear_ramp(self):
        h = 1e-4
        f = sample(lambda y: y, 0.0, 1.0, int(1 / h))
        assert lp_norm(f, 2.0) == pytest.approx(3 ** (-0.5), abs=1e-4)

    def test_bad_p(self):
        f = sample(lambda y: y, 0.0, 1.0, 10)
        for p in (1.0, 0.5, np.inf):
            with pytest.raises(InputError):
                lp_norm(f, p)

    @given(
        mag=st.floats(min_value=1e-6, max_value=100, allow_nan=False),
        sign=st.sampled_from([-1.0, 1.0]),
    )
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_absolute_homogeneity(self, mag, sign):
        lam = sign * mag
        vals = np.sin(np.arange(64) * 0.7) + 1j * np.cos(np.arange(64) * 0.31)
        f = SampledFunction(0.0, 0.1, vals)
        g = f.with_values(lam * vals)
        assert lp_norm(g, 2.5) == pytest.approx(abs(lam) * lp_norm(f, 2.5), rel=1e-12)

    def test_homogeneity_zero(self):
        vals = np.sin(np.arange(64) * 0.7)
        f = SampledFunction(0.0, 0.1, vals)
        assert lp_norm(f.with_values(0.0 * vals), 2.5) == 0.0

    def test_triangle_inequality(self, rng):
        for _ in range(20):
            a = rng.normal(size=128) + 1j * rng.normal(size=128)
            b = rng.normal(size=128) + 1j * rng.normal(size=128)
            f = SampledFunction(-1.0, 0.01, a)
            g = SampledFunction(-1.0, 0.01, b)
            s = f.with_values(a + b)
            p = float(rng.uniform(1.1, 4.0))
            assert lp_norm(s, p) <= lp_norm(f, p) + lp_norm(g, p) + 1e-12


class TestShift:
    def test_zero_shift_identity(self):
        f = sample(lambda y: y, -1, 1, 64)
        g = shift(f, 0.0)
        np.testing.assert_array_equal(g.values, f.values)

    def test_indicator_shift(self):
        h = 0.01
        f = sample(indicator(0.0, 1.0), -2.0, 2.0, int(4 / h))
        g = shift(f, 1.0)
        ref = sample(indicator(-1.0, 0.0), -2.0, 2.0, int(4 / h))
        np.testing.assert_array_equal(g.values, ref.values)

    def test_one_node_advance(self):
        f = sample(lambda y: y, -1, 1, 64)
        g = shift(f, f.step)
        np.testing.assert_array_equal(g.values[:-1], f.values[1:])
        assert g.values[-1] == 0

    def test_misaligned_rejected(self):
        f = sample(lambda y: y, -1, 1, 64)
        with pytest.raises(GridAlignmentError, match="regrid"):
            shift(f, 0.5 * f.step)

    def test_shift_keeps_source(self):
        f = sample(lambda y: y, -1, 1, 64)
        g = shift(f, 2 * f.step)
        assert g.source is not None
        assert g.source(np.array([0.25]))[0] == pytest.approx(0.25 + 2 * f.step)


class TestSampledFunction:
    def test_validation(self):
        with pytest.raises(InputError):
            SampledFunction(0.0, -1.0, np.ones(4))
        with pytest.raises(InputError):
            SampledFunction(0.0, 1.0, np.array([1.0, np.nan]))
        with pytest.raises(InputError):
            SampledFunction(0.0, 1.0, np.empty(0))

    def test_values_frozen(self):
        f = sample(lambda y: y, -1, 1, 8)
        with pytest.raises(ValueError):
            f.values[0] = 5.0

    def test_value_at_source_and_fallback(self):
        f = sample(lambda y: y**2, -1, 1, 100)
        assert f.value_at(0.5)[0] == pytest.approx(0.25)
        bare = SampledFunction(f.origin, f.step, f.values)
        x_mid = f.origin + 3.5 * f.step
        expect = 0.5 * (f.values[3] + f.values[4])
        assert bare.value_at(x_mid)[0] == pytest.approx(expect.real)
        assert bare.value_at(f.origin)[0] == f.values[0]
        with pytest.raises(InputError):
            bare.value_at(10.0)

    def test_midpoints_avoid_nodes(self):
        f = sample(lambda y: y, -1, 1, 50)
        xs = f.midpoints_in(Interval(0.0, 0.5))
        gaps = np.abs(xs[:, None] - f.nodes[None, :])
        assert np.min(gaps) >= 0.49 * f.step

    def test_csv_round_trip(self, tmp_path):
        f = sample(lambda y: np.exp(1j * y), -1, 1, 37)
        path = tmp_path / "f.csv"
        function_to_csv(f, path)
        g = function_from_csv(path)
        assert g.origin == pytest.approx(f.origin, rel=1e-12)
        assert g.step == pytest.approx(f.step, rel=1e-9)
        np.testing.assert_allclose(g.values, f.values, rtol=0, atol=1e-15)

    def test_nonuniform_csv_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,re,im\n0.0,1.0,0.0\n0.1,1.0,0.0\n0.3,1.0,0.0\n")
        with pytest.raises(InputError, match="uniform"):
            function_from_csv(path)

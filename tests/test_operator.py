import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cauchylab import (
    CauchyKernel,
    GridAlignmentError,
    InputError,
    Interval,
    LipschitzCurve,
    ProfileKind,
    SampledFunction,
    apply_on_window,
    commutator_values,
    eval_kernel,
    pv_values,
    sample,
    truncated_values,
)
from cauchylab import operator
from cauchylab.symbols import indicator

FLAT = CauchyKernel.for_curve(LipschitzCurve.flat())
LOG3 = float(np.log(3.0))

# Flat and affine graphs run the Toeplitz backend on a full lattice of
# targets; the sawtooth always runs the dense one.
CURVES = [LipschitzCurve.flat(), LipschitzCurve.affine(0.75),
          LipschitzCurve.sawtooth(0.5, 2.0)]


def chi(lo, hi, span_lo, span_hi, count):
    return sample(indicator(lo, hi), span_lo, span_hi, count)


def pv_at(kernel, f, x):
    return pv_values(kernel, f, [x])[0]


def truncated_at(kernel, f, x, t):
    return truncated_values(kernel, f, [x], t)[0]


def random_grid(seed, n=512, lo=-2.0, hi=2.0):
    rng = np.random.default_rng(seed)
    h = (hi - lo) / n
    vals = rng.normal(size=n) + 1j * rng.normal(size=n)
    return SampledFunction(lo + 0.5 * h, h, vals)


def rel_dev(got, ref):
    return float(np.max(np.abs(got - ref)) / np.max(np.abs(ref)))


scalars = st.complex_numbers(min_magnitude=0.1, max_magnitude=4.0,
                             allow_nan=False, allow_infinity=False)


class TestTruncated:
    def test_zero_function(self):
        f = sample(lambda y: np.zeros_like(y), -1, 1, 100)
        assert truncated_at(FLAT, f, 0.3, 0.5) == 0

    def test_empty_region(self):
        f = chi(-1, 1, -1, 1, 2000)
        assert truncated_at(FLAT, f, 0.0, 1.0) == 0

    def test_closed_form(self):
        f = chi(-1, 1, -1, 1, 20_000)
        v = truncated_at(FLAT, f, 2.0, 0.5)
        assert v.imag == 0
        assert v.real == pytest.approx(-LOG3, abs=1e-4)

    def test_consistency_across_radii(self):
        f = sample(lambda y: np.cos(y), -1, 1, 4096)
        h = f.step
        t1, t2 = 10.7 * h, 300.3 * h
        x = f.origin + 2047.5 * h
        lhs = truncated_at(FLAT, f, x, t1) - truncated_at(FLAT, f, x, t2)
        nodes = f.nodes
        ring = (np.abs(nodes - x) > t1) & (np.abs(nodes - x) < t2)
        rhs = h * np.sum(f.values[ring] / (nodes[ring] - x))
        assert lhs == pytest.approx(rhs, rel=1e-12)


class TestPv:
    def test_symmetric_cancellation(self):
        f = chi(-1, 1, -1, 1, 20_000)
        v = pv_at(FLAT, f, 0.0)
        assert abs(v) <= 1e-10

    def test_offset_indicator(self):
        f = chi(0, 2, 0, 2, 20_000)
        v = pv_at(FLAT, f, 3.0)
        assert v.real == pytest.approx(-LOG3, abs=1e-4)

    def test_odd_integrand(self):
        f = sample(lambda y: y, -1, 1, 20_000)
        v = pv_at(FLAT, f, 0.0)
        assert v.real == pytest.approx(2.0, abs=1e-3)

    def test_on_node_evaluation(self):
        f = sample(lambda y: np.exp(-(y**2)), -2, 2, 4096)
        x = float(f.nodes[1000])
        v = pv_at(FLAT, f, x)
        assert np.isfinite(v.real)

    def test_misaligned_rejected(self):
        f = sample(lambda y: y, -1, 1, 100)
        with pytest.raises(GridAlignmentError, match="midpoint"):
            pv_at(FLAT, f, f.origin + 0.27 * f.step)

    @settings(max_examples=30, deadline=None)
    @given(curve=st.sampled_from(CURVES), seed=st.integers(0, 2**32 - 1),
           a=scalars, b=scalars, t_steps=st.none() | st.integers(1, 40))
    def test_linearity(self, curve, seed, a, b, t_steps):
        # Linear in f under complex scalars, for pv and truncated sums on
        # both backends.
        kernel = CauchyKernel.for_curve(curve)
        f, g = random_grid(seed), random_grid(seed + 1)
        xs = f.midpoints_in(Interval(0.0, 2.5))
        cut = 0.5e-6 * f.step if t_steps is None else (t_steps + 0.25) * f.step
        dense_only = curve.kind is ProfileKind.SAWTOOTH
        assert (operator._toeplitz_sums(curve, f, xs, -cut, cut) is None) == dense_only

        def apply(u):
            if t_steps is None:
                return pv_values(kernel, u, xs)
            return truncated_values(kernel, u, xs, (t_steps + 0.25) * u.step)

        vf, vg = apply(f), apply(g)
        vs = apply(f.with_values(a * f.values + b * g.values))
        scale = np.max(np.abs(a * vf) + np.abs(b * vg))
        assert np.max(np.abs(vs - (a * vf + b * vg))) <= 1e-12 * scale

    @settings(max_examples=30, deadline=None)
    @given(curve=st.sampled_from(CURVES[:2]), seed=st.integers(0, 2**32 - 1),
           m=st.integers(-2000, 2000), par=st.integers(0, 1),
           targets=st.integers(1, 700), t_steps=st.none() | st.integers(1, 40))
    def test_whole_step_translation_covariance(self, curve, seed, m, par, targets,
                                               t_steps):
        # On a flat or affine graph the kernel depends on y - x alone, so
        # moving the grid and the targets by m whole steps changes nothing.
        # Few targets run the dense backend, many the Toeplitz one.
        kernel = CauchyKernel.for_curve(curve)
        f = random_grid(seed)
        h = f.step
        g = SampledFunction(f.origin + m * h, h, f.values)
        ks = np.random.default_rng(seed).integers(-100, f.count + 100, size=targets)
        xs_f = f.origin + (ks + 0.5 * par) * h
        xs_g = g.origin + (ks + 0.5 * par) * h
        if t_steps is None:
            got, ref = pv_values(kernel, g, xs_g), pv_values(kernel, f, xs_f)
        else:
            t = (t_steps + 0.25) * h
            got = truncated_values(kernel, g, xs_g, t)
            ref = truncated_values(kernel, f, xs_f, t)
        assert rel_dev(got, ref) <= 1e-10

    def test_flat_oracle_random_indicators(self, rng):
        # Closed form log|(b - x)/(a - x)| at points clear of the support.
        for _ in range(10):
            a, b = np.sort(rng.uniform(-2, 2, size=2))
            if b - a < 0.05:
                continue
            f = chi(a, b, a, b, 5000)
            h = f.step
            side = 1 if rng.uniform() < 0.5 else -1
            d = rng.uniform(0.1, 2.0)
            x_raw = (b + d) if side > 0 else (a - d)
            k = round((x_raw - f.origin) / h)
            x = f.origin + k * h  # node-aligned beyond the support
            v = pv_at(FLAT, f, x)
            expect = np.log(abs((b - x) / (a - x)))
            assert v.real == pytest.approx(expect, abs=10 * h)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_non_finite_points_rejected(bad):
    f = sample(lambda y: np.exp(-(y**2)), -1, 1, 64)
    b = f.with_values(f.values.copy())  # no source: the symbol is read off the grid
    xs = [f.origin + 0.5 * f.step, bad]
    calls = (
        lambda: pv_values(FLAT, f, xs),
        lambda: truncated_values(FLAT, f, xs, 0.1),
        lambda: commutator_values(b, f, FLAT, xs),
    )
    for call in calls:
        with pytest.raises(InputError, match="index 1 is not finite"):
            call()


class TestWindowed:
    def test_output_on_midpoint_lattice(self):
        f = sample(lambda y: np.exp(-(y**2)), -2, 2, 512)
        out = apply_on_window(FLAT, f, Interval(0.0, 1.0))
        s = (out.nodes - f.origin) / f.step
        np.testing.assert_allclose(s - np.floor(s), 0.5, atol=1e-9)

    def test_empty_window_rejected(self):
        f = sample(lambda y: y, -1, 1, 100)
        # Window strictly between two consecutive midpoint-lattice points.
        with pytest.raises(InputError):
            apply_on_window(FLAT, f, Interval(0.01, 1e-9))

    def test_pv_values_matches_pointwise(self):
        f = sample(lambda y: np.exp(-(y**2)) * (1 + 0.5j), -2, 2, 1024)
        xs = f.origin + (np.arange(100, 110) + 0.5) * f.step
        vec = pv_values(FLAT, f, xs)
        point = np.array([f.step * np.sum(eval_kernel(FLAT, x, f.nodes) * f.values)
                          for x in xs])
        np.testing.assert_allclose(vec, point, rtol=1e-10)


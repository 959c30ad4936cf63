import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cauchylab import (
    CauchyKernel,
    InputError,
    Interval,
    LipschitzCurve,
    SampledFunction,
    apply_commutator,
    commutator_norm_lower,
    commutator_values,
    homogeneity_check,
    lp_norm,
    pv_values,
    sample,
    sample_on,
    stack,
    unit_images,
)
from cauchylab import commutator, operator
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

    def test_non_finite_b_outer_rejected(self):
        b, f = setup_pair(np.sign, indicator(-1.0, 1.0), count=200)
        xs = b.midpoints_in(Interval(0.0, 1.0))
        one_bad = np.where(np.arange(xs.size) == 7, np.inf, 1.0)
        for bad, at in ((np.full(xs.size, np.nan), 0), (one_bad, 7)):
            with pytest.raises(InputError, match=f"b_outer entry .* at index {at} is not finite"):
                commutator_values(b, f, FLAT, xs, b_outer=bad)

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
        r1 = commutator_norm_lower(b1, 2.0, [f1], FLAT, window1).extras["norm_lower_bound"]
        lam = 2.0
        window2 = Interval(0.0, 3.0 / lam)
        b2, f2 = setup_pair(lambda y: np.tanh(lam * y), indicator(-1.0 / lam, 1.0 / lam),
                            lo=-3.0 / lam, hi=3.0 / lam, count=6000)
        r2 = commutator_norm_lower(b2, 2.0, [f2], FLAT, window2).extras["norm_lower_bound"]
        assert r2 == pytest.approx(r1, rel=0.05)


class TestHomogeneity:
    def test_case_invariants(self):
        curve = LipschitzCurve.flat()
        with pytest.raises(InputError, match="M > 10"):
            homogeneity_check(curve, [100.0, 5.0], 1.0)  # M too small
        with pytest.raises(InputError, match="r > 0"):
            homogeneity_check(curve, [100.0], 0.0)
        with pytest.raises(InputError, match="non-empty"):
            homogeneity_check(curve, [], 1.0)
        # A slope fitted over a repeated M is meaningless.
        for ladder in ([16.0, 16.0], [16.0, 64.0, 16]):
            with pytest.raises(InputError, match="must not repeat an entry"):
                homogeneity_check(curve, ladder, 1.0)

    def test_bad_slack_and_points_rejected(self):
        # A slack of -1 would pass any minimum, so no caller sets the bands.
        curve = LipschitzCurve.flat()
        for band in ("slack", "slope_band"):
            with pytest.raises(TypeError, match=band):
                homogeneity_check(curve, [100.0], 1.0, **{band: -1.0})
        with pytest.raises(InputError, match="eval_points"):
            homogeneity_check(curve, [100.0], 1.0, eval_points=0)
        # 2.5 points would be three cells that do not tile I0.
        for key in ("eval_points", "quadrature_cells"):
            with pytest.raises(InputError, match="whole number of cells, got 2.5"):
                homogeneity_check(curve, [100.0], 1.0, **{key: 2.5})

    def test_flat_closed_form_window(self):
        rep = homogeneity_check(LipschitzCurve.flat(), [100.0], 1.0)
        assert rep.passed
        assert "slope" not in rep.extras  # one M fits no slope
        assert rep.columns["lhs"][0] >= 0.9 * 2.0 / 100.0
        d_max = 1.2 * 101.0  # farthest evaluation point to the near edge
        lo = np.log(1 + 2 / d_max)
        hi = np.log(1 + 2 / (d_max - 2  - 2))
        assert lo * 0.99 <= rep.columns["raw_min"][0] <= hi * 1.01

    def test_doubling_M_halves(self):
        rep = homogeneity_check(LipschitzCurve.flat(), [64.0, 128.0], 1.0)
        ratio = rep.columns["lhs"][1] / rep.columns["lhs"][0]
        assert 0.4 <= ratio <= 0.6

    def test_affine_passes(self):
        rep = homogeneity_check(LipschitzCurve.affine(1.0), [64.0], 0.5)
        assert rep.passed
        target = rep.columns["rhs"][0] / rep.extras["slack"]
        assert target == pytest.approx(2.0 / (2.0 * 64.0))

    def test_dyadic_ladder_slope(self):
        Ms = [16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0]
        rep = homogeneity_check(LipschitzCurve.flat(), Ms, 1.0, quadrature_cells=1024,
                                eval_points=64)
        np.testing.assert_array_equal(rep.columns["M"], Ms)
        assert abs(rep.extras["slope"] + 1.0) <= 0.1

    def test_slope_outside_band_fails_every_row(self, monkeypatch):
        # The rows pass their own bound; the slope verdict is folded into each.
        monkeypatch.setattr(commutator, "SLOPE_BAND", 1e-6)
        rep = homogeneity_check(LipschitzCurve.flat(), [16.0, 64.0], 1.0, quadrature_cells=128,
                                eval_points=16)
        assert np.all(rep.columns["lhs"] >= rep.columns["rhs"])
        assert abs(rep.extras["slope"] + 1.0) > rep.extras["slope_band"]
        assert not np.any(rep.columns["pass"])


class TestNormLower:
    @staticmethod
    def bound(*args):
        return commutator_norm_lower(*args).extras["norm_lower_bound"]

    def test_constant_symbol_zero(self):
        b, f = setup_pair(lambda y: np.full_like(y, 5.0), indicator(-1.0, 1.0))
        v = self.bound(b, 2.0, [f], FLAT, Interval(0.0, 1.5))
        assert v <= 1e-10 * 5.0

    def test_scaling_in_symbol(self):
        b, f = setup_pair(lambda y: np.sin(y), indicator(-1.0, 1.0))
        window = Interval(0.0, 1.5)
        v1 = self.bound(b, 2.0, [f], FLAT, window)
        v2 = self.bound(b.scaled(4.0), 2.0, [f], FLAT, window)
        assert v2 == pytest.approx(4.0 * v1, rel=1e-12)

    def test_monotone_in_family(self):
        b, f = setup_pair(lambda y: np.sin(y), indicator(-1.0, 1.0))
        g = sample(lambda y: np.exp(-(y**2)), -2, 2, 4000)
        window = Interval(0.0, 1.5)
        assert self.bound(b, 2.0, [f, g], FLAT, window) >= self.bound(b, 2.0, [f], FLAT, window)

    def test_argmax_stable_under_symbol_rescaling(self):
        b, f = setup_pair(lambda y: np.sin(y), indicator(-1.0, 1.0))
        g = sample(lambda y: np.exp(-(y**2)), -2, 2, 4000)
        window = Interval(0.0, 1.5)
        ratios = [self.bound(b, 2.0, [m], FLAT, window) for m in (f, g)]
        b4 = b.scaled(4.0)
        ratios4 = [self.bound(b4, 2.0, [m], FLAT, window) for m in (f, g)]
        assert int(np.argmax(ratios)) == int(np.argmax(ratios4))

    def test_zero_member_rejected(self):
        b = sample(lambda y: np.sin(y), -2, 2, 100)
        z = sample(lambda y: np.zeros_like(y), -2, 2, 100)
        f = sample(indicator(-1.0, 1.0), -2, 2, 100)
        with pytest.raises(InputError, match="family member 0 has zero norm"):
            commutator_norm_lower(b, 2.0, [z], FLAT, Interval(0.0, 1.0))
        with pytest.raises(InputError, match="family member 1 has zero norm"):
            unit_images(b, [f, z, f, z], 2.0, FLAT, Interval(0.0, 1.0))
        with pytest.raises(InputError, match="non-empty"):
            commutator_norm_lower(b, 2.0, [], FLAT, Interval(0.0, 1.0))


class TestBlock:
    SAW = CauchyKernel.for_curve(LipschitzCurve.sawtooth(0.5, 2.0))

    def family(self, count=800):
        b = sample(lambda y: np.sign(y), -2, 2, count)
        fs = [sample(indicator(-1.0, 1.0), -2, 2, count),
              sample(lambda y: np.exp(-(y**2)) * (1 + 0.5j * y), -2, 2, count),
              sample(lambda y: np.cos(3 * y), -2, 2, count)]
        return b, fs

    @pytest.mark.parametrize("kernel", [FLAT, SAW], ids=["flat", "sawtooth"])
    def test_block_image_equals_member_images(self, kernel):
        b, fs = self.family()
        window = Interval(0.0, 1.5)
        block = apply_commutator(b, stack(fs), kernel, window)
        assert block.values.shape[1] == 3
        for j, f in enumerate(fs):
            one = apply_commutator(b, f, kernel, window)
            assert one.origin == block.origin and one.count == block.count
            dev = np.max(np.abs(block.values[:, j] - one.values))
            assert dev <= 1e-14 * np.max(np.abs(one.values))

    @pytest.mark.parametrize("kernel", [FLAT, SAW], ids=["flat", "sawtooth"])
    def test_norm_ratios_are_the_member_ratios(self, kernel):
        b, fs = self.family()
        window = Interval(0.0, 1.5)
        rep = commutator_norm_lower(b, 2.0, fs, kernel, window)
        want = [lp_norm(apply_commutator(b, f, kernel, window), 2.0) / lp_norm(f, 2.0)
                for f in fs]
        np.testing.assert_array_equal(rep.columns["member"], np.arange(len(fs)))
        np.testing.assert_allclose(rep.columns["lhs"], want, rtol=1e-14, atol=0)
        assert rep.extras["norm_lower_bound"] == float(np.max(rep.columns["lhs"]))

    def test_block_symbol_rejected(self):
        b, fs = self.family(count=100)
        xs = fs[0].midpoints_in(Interval(0.0, 1.0))
        with pytest.raises(InputError, match="symbol of a commutator"):
            commutator_values(stack([b, b]), stack(fs[:2]), FLAT, xs)

    def test_family_on_two_grids_rejected(self):
        b, fs = self.family(count=100)
        other = sample(indicator(-1.0, 1.0), -2, 2, 200)
        with pytest.raises(InputError, match="grid"):
            commutator_norm_lower(b, 2.0, [fs[0], other], FLAT, Interval(0.0, 1.0))


# Backends of the commutator's two kernel passes: (curve, nodes, targets).
# Targets run on the midpoint lattice, centred on the grid and reaching past
# both of its ends, so every backend sees near and far targets.
COMMUTATOR_BACKENDS = {
    "toeplitz": (LipschitzCurve.flat(), 1000, 3000),
    "tree": (LipschitzCurve.sawtooth(0.5, 2.0), 2000, 8000),
    "dense": (LipschitzCurve.sawtooth(0.5, 2.0), 300, 600),
}


def _commutator_case(backend, seed, width):
    """A symbol with a source callable, ``width`` inputs and targets for ``backend``.

    Fails unless ``backend`` is the one ``_masked_sums`` picks for a block
    of ``width`` columns on these sizes.
    """
    curve, n, m = COMMUTATOR_BACKENDS[backend]
    rng = np.random.default_rng(seed)
    h = 4.0 / n
    a, w, jump, x0 = rng.normal(size=2), rng.uniform(1.0, 6.0, 2), rng.normal(), rng.uniform(-1, 1)

    def fn(x):
        x = np.asarray(x, dtype=float)
        return a[0] * np.sin(w[0] * x) + a[1] * np.cos(w[1] * x) + jump * (x > x0)

    b = sample_on(fn, -2.0 + 0.5 * h, h, n)
    fs = [b.with_values(rng.normal(size=n) + 1j * rng.normal(size=n)) for _ in range(width)]
    xs = b.origin + (np.arange(m) - (m - n) // 2 + 0.5) * h
    kernel = CauchyKernel.for_curve(curve)
    block = stack(fs)
    W = np.concatenate([block.values.real, block.values.imag], axis=1)  # complex columns, split
    if operator._toeplitz_sums(curve, block, W, xs, 0.5e-6 * h) is not None:
        picked = "toeplitz"
    else:
        picked = "tree" if operator._tree_pays(block, W, xs) else "dense"
    assert picked == backend
    return b, fs, xs, kernel


class TestCommutatorProperties:
    """``[b, C]`` on each backend: linear in ``b``, linear in ``f``, zero for constant ``b``."""

    @pytest.mark.parametrize("backend", sorted(COMMUTATOR_BACKENDS))
    @given(seed=st.integers(0, 2**16), lam=st.floats(-3.0, 3.0))
    @settings(max_examples=4)
    def test_linear_in_symbol(self, backend, seed, lam):
        b1, (f,), xs, kernel = _commutator_case(backend, seed, 1)
        b2, _, _, _ = _commutator_case(backend, seed + 1, 1)
        both = SampledFunction(b1.origin, b1.step, b1.values + lam * b2.values,
                               lambda x: b1.source(x) + lam * b2.source(x))
        got = commutator_values(both, f, kernel, xs)
        want = commutator_values(b1, f, kernel, xs) + lam * commutator_values(b2, f, kernel, xs)
        scale = ((np.max(np.abs(b1.values)) + abs(lam) * np.max(np.abs(b2.values)))
                 * np.max(np.abs(pv_values(kernel, f, xs))))
        assert np.max(np.abs(got - want)) <= 1e-12 * scale

    @pytest.mark.parametrize("backend", sorted(COMMUTATOR_BACKENDS))
    @given(seed=st.integers(0, 2**16), lam=st.floats(-3.0, 3.0))
    @settings(max_examples=4)
    def test_linear_in_input_columns(self, backend, seed, lam):
        b, (f, g, _), xs, kernel = _commutator_case(backend, seed, 3)
        block = stack([f, g, f.with_values(f.values + lam * g.values)])
        out = commutator_values(b, block, kernel, xs)
        scale = (np.max(np.abs(b.values))
                 * np.max(np.abs(pv_values(kernel, block, xs)[:, :2])) * (1.0 + abs(lam)))
        assert np.max(np.abs(out[:, 2] - (out[:, 0] + lam * out[:, 1]))) <= 1e-12 * scale

    @pytest.mark.parametrize("backend", sorted(COMMUTATOR_BACKENDS))
    @given(seed=st.integers(0, 2**16), const=st.floats(-5.0, 5.0).filter(lambda c: c != 0))
    @example(seed=0, const=2.2250738585e-313)
    @settings(max_examples=4)
    def test_constant_symbol_vanishes(self, backend, seed, const):
        b, (f,), xs, kernel = _commutator_case(backend, seed, 1)
        flat_b = SampledFunction(b.origin, b.step, np.full(b.count, const),
                                 lambda x: np.full(np.shape(x), const))
        out = commutator_values(flat_b, f, kernel, xs)
        # A subnormal const has fewer than 53 significant bits, so a relative bound
        # alone underflows.  Each product const * f_j rounds by at most half the smallest
        # subnormal and |h K| <= 2 on the midpoint lattice: one per summed node on top.
        floor = f.count * np.finfo(float).smallest_subnormal
        scale = abs(const) * np.max(np.abs(pv_values(kernel, f, xs)))
        assert np.max(np.abs(out)) <= 1e-12 * scale + floor

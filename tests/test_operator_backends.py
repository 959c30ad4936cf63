"""The three summation backends of the operator and the rule that picks one.

The dense backend is the oracle: the Toeplitz FFT backend and the tree
backend must agree with it wherever they run, and every input both
decline must give exactly the dense result.
"""

import json
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cauchylab import (
    CauchyKernel,
    GridAlignmentError,
    LipschitzCurve,
    ProfileKind,
    SampledFunction,
    commutator_values,
    pv_values,
    stack,
    truncated_values,
)
from cauchylab import operator
from cauchylab.cli import main
from cauchylab.curve import eval_A

FLAT = LipschitzCurve.flat()
SPECTRUM = operator._kernel_spectrum


def _window(f, t):
    """The radius ``cut`` of a pv (``t = None``) or truncated sum: ``|y - x| <= cut`` is dropped."""
    return 0.5 * f.step * 1e-6 if t is None else t


def _grid(n, seed=0, real=False, lo=-2.0, hi=2.0):
    rng = np.random.default_rng(seed)
    h = (hi - lo) / n
    vals = rng.normal(size=n)
    if not real:
        vals = vals + 1j * rng.normal(size=n)
    return SampledFunction(lo + 0.5 * h, h, vals)


def _lattice(f, ks, par):
    return f.origin + (np.asarray(ks, dtype=float) + 0.5 * par) * f.step


def _rel_dev(got, ref):
    return float(np.max(np.abs(got - ref)) / np.max(np.abs(ref)))


def _weights(f):
    """The real weight columns of ``f``: ``V`` when real, ``[Re V, Im V]`` when complex."""
    V = f.values.reshape(f.count, -1)
    return np.concatenate([V.real, V.imag], axis=1) if np.iscomplexobj(V) else V


class _Declined(Exception):
    pass


def _sums(backend, curve, f, xs, t):
    """``_masked_sums`` of ``f`` with every kernel sum made by ``backend``.

    ``f`` is split into real weight columns and joined back exactly as
    ``_masked_sums`` does; None where ``backend`` declines the input.
    """
    def only(*args):
        out = backend(*args)
        if out is None:
            raise _Declined
        return out

    # ``_masked_sums`` tries ``_toeplitz_sums`` first and returns what it gives.
    with mock.patch.object(operator, "_toeplitz_sums", only):
        try:
            return operator._masked_sums(CauchyKernel.for_curve(curve), f, xs, t)
        except _Declined:
            return None


TOEPLITZ = partial(_sums, operator._toeplitz_sums)
TREE = partial(_sums, operator._tree_sums)
DENSE = partial(_sums, operator._dense_sums)


def _column(block, j):
    """Column ``j`` of a block as one function on the block's grid."""
    return block.with_values(block.values[:, j])


def _per_target_sums(curve, f, xs, t):
    """One complex sum per target over the offsets outside ``[-t, t]``,
    straight from the kernel formula."""
    nodes, A_nodes = f.nodes, eval_A(curve, f.nodes)
    out = []
    for x in xs:
        keep = ~((nodes - x >= -t) & (nodes - x <= t))
        z = (nodes[keep] - x) + 1j * (A_nodes[keep] - eval_A(curve, x))
        out.append(f.step * np.sum(f.values[keep] / z))
    return np.array(out)


class TestToeplitzAgreesWithDense:
    @given(
        n=st.integers(300, 700),
        slope=st.one_of(st.just(None), st.floats(-3.0, 3.0)),
        par=st.sampled_from([0, 1]),
        first=st.integers(-150, 700),
        fill=st.floats(0.5, 1.0),
        t_steps=st.one_of(st.just(None), st.integers(0, 40)),
        real=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=60)
    def test_within_1e_10_of_dense(self, n, slope, par, first, fill, t_steps, real, seed):
        curve = FLAT if slope is None else LipschitzCurve.affine(slope)
        f = _grid(n, seed, real)
        rng = np.random.default_rng(seed + 1)
        # Targets may start before and run past the sampled range.
        ks = rng.permutation(np.arange(first, first + int(fill * n)))
        xs = _lattice(f, ks, par)
        # A quarter step keeps the radius off both lattices of offsets.
        t = None if t_steps is None else (t_steps + 0.25) * f.step
        fast = TOEPLITZ(curve, f, xs, _window(f, t))
        assert fast is not None
        dense = DENSE(curve, f, xs, _window(f, t))
        assert _rel_dev(fast, dense) <= 1e-10

    def test_benchmark_sized_flat_pv(self):
        f = _grid(8192, seed=3)
        xs = _lattice(f, np.arange(2048, 6145), 1)
        fast = TOEPLITZ(FLAT, f, xs, _window(f, None))
        dense = DENSE(FLAT, f, xs, _window(f, None))
        assert fast is not None and _rel_dev(fast, dense) <= 1e-12


class TestOffsetWindow:
    """The window of dropped offsets ``[-t, t]`` against the kernel formula."""

    @given(
        n=st.integers(300, 500),
        curve=st.sampled_from([FLAT, LipschitzCurve.affine(-1.3),
                               LipschitzCurve.sawtooth(0.5, 2.0)]),
        par=st.sampled_from([0, 1]),
        first=st.integers(-100, 200),
        t_steps=st.integers(0, 60),
        t_frac=st.floats(0.1, 0.4),
        real=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=60)
    def test_matches_per_target_sums(self, n, curve, par, first, t_steps, t_frac, real, seed):
        # A radius a fraction of a step off both lattices of offsets, so the
        # Toeplitz backend runs on the flat and affine graphs.
        f = _grid(n, seed, real)
        t = (t_steps + t_frac) * f.step
        xs = _lattice(f, np.arange(first, first + n), par)
        got = operator._masked_sums(CauchyKernel.for_curve(curve), f, xs, t)
        fast = TOEPLITZ(curve, f, xs, t)
        assert (fast is None) == (curve.kind is ProfileKind.SAWTOOTH)
        assert _rel_dev(got, _per_target_sums(curve, f, xs, t)) <= 1e-12


class TestDispatch:
    @pytest.mark.parametrize("par, t_steps", [(0, 5.0), (1, 4.5)])
    def test_radius_on_a_lattice_offset_goes_dense(self, par, t_steps):
        f = _grid(600)
        xs = _lattice(f, np.arange(100, 500), par)
        t = t_steps * f.step
        assert TOEPLITZ(FLAT, f, xs, t) is None
        got = truncated_values(CauchyKernel.for_curve(FLAT), f, xs, t)
        np.testing.assert_array_equal(got, DENSE(FLAT, f, xs, t))

    @pytest.mark.parametrize("case", ["mixed", "off_lattice", "far_apart"])
    def test_unsuitable_targets_go_dense(self, case):
        f = _grid(600)
        ks = np.arange(100, 500)
        if case == "mixed":
            xs = np.concatenate([_lattice(f, ks, 0), _lattice(f, ks, 1)])
        elif case == "off_lattice":
            xs = _lattice(f, ks, 1) + 1e-7 * f.step
        else:
            xs = _lattice(f, [0, 10**6], 1)
        t = _window(f, None)
        assert TOEPLITZ(FLAT, f, xs, t) is None
        got = operator._masked_sums(CauchyKernel.for_curve(FLAT), f, xs, t)
        np.testing.assert_array_equal(got, DENSE(FLAT, f, xs, t))

    def test_curved_graph_goes_dense(self):
        f = _grid(600)
        xs = _lattice(f, np.arange(100, 500), 1)
        curve = LipschitzCurve.sawtooth(0.5, 2.0)
        assert TOEPLITZ(curve, f, xs, _window(f, None)) is None

    @pytest.mark.parametrize("curve", [FLAT, LipschitzCurve.sawtooth(0.5, 2.0)])
    def test_empty_targets(self, curve):
        f = _grid(64)
        kernel = CauchyKernel.for_curve(curve)
        for out in (pv_values(kernel, f, []), truncated_values(kernel, f, [], 0.1)):
            assert out.shape == (0,) and out.dtype == np.complex128

    def test_real_input_on_flat_graph_is_exactly_real(self):
        f = _grid(1024, real=True)
        kernel = CauchyKernel.for_curve(FLAT)
        lattice = _lattice(f, np.arange(0, 1024), 1)
        assert TOEPLITZ(FLAT, f, lattice, _window(f, None)) is not None
        off = lattice[:50] + 0.25 * f.step
        for out in (pv_values(kernel, f, lattice),
                    truncated_values(kernel, f, lattice, 10.25 * f.step),
                    truncated_values(kernel, f, off, 10.0 * f.step)):
            assert np.all(out.imag == 0.0)


class TestKernelSpectrumCache:
    """The Toeplitz kernel spectra kept by ``operator._kernel_spectrum``."""

    def test_warm_calls_equal_cold_calls_bit_for_bit(self):
        # pv and truncated sums interleaved on two grids, both target lattices
        # and a flat and an affine graph; the two graphs share one spectrum.
        calls = []
        for f in (_grid(600, seed=1), _grid(1000, seed=2, real=True, lo=-3.0, hi=1.0)):
            for par in (0, 1):
                xs = _lattice(f, np.arange(100, 500), par)
                for curve in (FLAT, LipschitzCurve.affine(0.75)):
                    kernel = CauchyKernel.for_curve(curve)
                    calls += [partial(pv_values, kernel, f, xs),
                              partial(truncated_values, kernel, f, xs, 10.25 * f.step)]
        cold = []
        for call in calls:
            SPECTRUM.cache_clear()
            cold.append(call())
        SPECTRUM.cache_clear()
        warm = [call() for call in calls]
        info = SPECTRUM.cache_info()
        assert (info.hits, info.misses) == (8, 8)
        for got, want in zip(warm, cold):
            assert got.tobytes() == want.tobytes()

    def test_cached_spectrum_rejects_writes(self):
        SPECTRUM.cache_clear()
        first = SPECTRUM(100, 60.5, 0.01, 0.0325, 128)
        assert SPECTRUM(100, 60.5, 0.01, 0.0325, 128) is first
        with pytest.raises(ValueError, match="read-only"):
            first[0] = 0.0

    def test_commutator_on_a_block_computes_one_spectrum(self):
        block = _block(600, 3, [True, False, True], seed=5)
        b = _grid(600, seed=6, real=True)
        xs = _lattice(block, np.arange(100, 500), 1)
        SPECTRUM.cache_clear()
        out = commutator_values(b, block, CauchyKernel.for_curve(FLAT), xs)
        assert out.shape == (xs.size, 3)
        info = SPECTRUM.cache_info()
        assert (info.hits, info.misses) == (1, 1)

    def test_cache_stays_within_its_size(self):
        f = _grid(600, seed=3)
        kernel = CauchyKernel.for_curve(FLAT)
        xs = _lattice(f, np.arange(100, 500), 1)
        SPECTRUM.cache_clear()
        for i in range(3 * operator._SPECTRA):
            truncated_values(kernel, f, xs, (i + 0.25) * f.step)
            info = SPECTRUM.cache_info()
            assert info.misses == i + 1
            assert info.currsize <= info.maxsize == operator._SPECTRA

    def test_long_spectrum_is_not_kept(self, monkeypatch):
        # 1000 nodes against 400 midpoints pad to 2048, over a limit of 1024.
        f = _grid(1000, seed=4)
        kernel = CauchyKernel.for_curve(FLAT)
        xs = _lattice(f, np.arange(300, 700), 1)
        SPECTRUM.cache_clear()
        kept = pv_values(kernel, f, xs)
        assert SPECTRUM.cache_info().currsize == 1
        SPECTRUM.cache_clear()
        monkeypatch.setattr(operator, "_KEPT_SIZE", 1024)
        got = pv_values(kernel, f, xs)
        info = SPECTRUM.cache_info()
        assert (info.hits, info.misses, info.currsize) == (0, 0, 0)
        assert got.tobytes() == kept.tobytes()


class TestDense:
    @pytest.mark.parametrize("curve", [LipschitzCurve.sawtooth(0.5, 2.0),
                                       LipschitzCurve.smooth_bump(0.8, 0.5)])
    @pytest.mark.parametrize("t", [None, 0.037])
    def test_matches_per_target_sums(self, curve, t):
        f = _grid(1000, seed=7)
        rows = operator._CHUNK_ELEMENTS // f.count
        xs = _lattice(f, np.arange(-20, 3 * rows + 5) * 3, 1)
        assert xs.size % rows != 0
        got = operator._masked_sums(CauchyKernel.for_curve(curve), f, xs, _window(f, t))
        ref = _per_target_sums(curve, f, xs, _window(f, t))
        assert _rel_dev(got, ref) <= 1e-12

    def test_grid_wider_than_one_chunk(self):
        curve = LipschitzCurve.smooth_bump(0.8, 0.5)
        f = _grid(operator._CHUNK_ELEMENTS + 7, seed=11)
        xs = _lattice(f, [5, 9000, 20000, f.count + 3], 1)
        got = pv_values(CauchyKernel.for_curve(curve), f, xs)
        assert _rel_dev(got, _per_target_sums(curve, f, xs, _window(f, None))) <= 1e-12


def test_misaligned_targets_name_the_first():
    f = _grid(100)
    xs = np.concatenate([_lattice(f, [10, 20], 1), f.origin + np.array([30.27, 40.4]) * f.step])
    with pytest.raises(GridAlignmentError, match=f"point {float(xs[2])} sits 0.27 steps"):
        pv_values(CauchyKernel.for_curve(FLAT), f, xs)


def _block(n, c, real_cols, seed, lo=-2.0, hi=2.0):
    """``c`` random columns on one grid; column ``j`` is real where ``real_cols[j]``."""
    rng = np.random.default_rng(seed)
    h = (hi - lo) / n
    vals = rng.normal(size=(n, c)) + 1j * rng.normal(size=(n, c))
    real_cols = np.asarray(real_cols, dtype=bool)
    vals[:, real_cols] = vals.real[:, real_cols]
    return SampledFunction(lo + 0.5 * h, h, vals)


class TestBlock:
    """A block of functions gives, column by column, the single-function sums."""

    @given(
        n=st.integers(200, 500),
        curve=st.sampled_from([FLAT, LipschitzCurve.affine(0.8),
                               LipschitzCurve.sawtooth(0.5, 2.0)]),
        c=st.sampled_from([1, 2, 3, 5]),
        real=st.lists(st.booleans(), min_size=5, max_size=5),
        dense=st.booleans(),
        par=st.sampled_from([0, 1]),
        first=st.integers(-100, 200),
        t_steps=st.integers(0, 60),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=60)
    def test_block_equals_columns(self, n, curve, c, real, dense, par, first, t_steps, seed):
        # A radius off both lattices of offsets, so the Toeplitz backend
        # runs on the flat and affine graphs unless ``dense`` calls the
        # dense backend directly.
        block = _block(n, c, real[:c], seed)
        t = (t_steps + 0.3) * block.step
        xs = _lattice(block, np.arange(first, first + n), par)
        if dense:
            def sums(u):
                return DENSE(curve, u, xs, t)
        else:
            kernel = CauchyKernel.for_curve(curve)
            fast = TOEPLITZ(curve, block, xs, t)
            assert (fast is None) == (curve.kind is ProfileKind.SAWTOOTH)

            def sums(u):
                return operator._masked_sums(kernel, u, xs, t)

        got = sums(block)
        assert got.shape == (xs.size, c) and got.dtype == np.complex128
        for j in range(c):
            want = sums(_column(block, j))
            assert want.shape == (xs.size,)
            assert _rel_dev(got[:, j], want) <= 1e-14
            if curve is FLAT and real[j] and not dense:
                assert np.all(got[:, j].imag == 0.0)

    def test_commutator_of_a_block_is_two_kernel_passes(self, monkeypatch):
        f = _grid(400, seed=4)
        b = f.with_values(np.sign(f.nodes))
        block = stack([f, f.with_values(f.values ** 2), f.with_values(np.abs(f.values))])
        xs = _lattice(f, np.arange(0, 399), 1)
        calls = []
        original = operator._masked_sums

        def counted(*args):
            calls.append(args[1].values.shape)
            return original(*args)

        monkeypatch.setattr(operator, "_masked_sums", counted)
        for curve in (FLAT, LipschitzCurve.sawtooth(0.5, 2.0)):
            calls.clear()
            kernel = CauchyKernel.for_curve(curve)
            got = commutator_values(b, block, kernel, xs)
            assert calls == [(400, 3), (400, 3)]  # C(F) and C(b F)
            for j in range(3):
                want = commutator_values(b, _column(block, j), kernel, xs)
                assert _rel_dev(got[:, j], want) <= 1e-14

    def test_dense_backend_evaluates_the_profile_twice_per_call(self, monkeypatch):
        curve = LipschitzCurve.sawtooth(0.5, 2.0)
        f = _block(1000, 3, [True, False, True], seed=5)
        xs = _lattice(f, np.arange(-10, 1010), 1)
        assert xs.size > 10 * (operator._CHUNK_ELEMENTS // f.count)
        calls = []
        original = operator.eval_A

        def counted(curve, x):
            calls.append(np.size(x))
            return original(curve, x)

        monkeypatch.setattr(operator, "eval_A", counted)
        DENSE(curve, f, xs, _window(f, None))
        assert sorted(calls) == sorted([f.count, xs.size])


SAWTOOTH = LipschitzCurve.sawtooth(0.5, 2.0)
TREE_CURVES = [SAWTOOTH, LipschitzCurve.smooth_bump(0.8, 0.5), LipschitzCurve.affine(0.7), FLAT]


def _tree_radius(f, kind, a):
    """The radius of a pv or a truncated (``a`` steps) sum."""
    return _window(f, None if kind == "pv" else a * f.step)


class TestTree:
    """The multipole tree backend against the dense oracle."""

    @given(
        n=st.integers(33, 700),
        curve=st.sampled_from(TREE_CURVES),
        c=st.sampled_from([1, 2]),
        kind=st.sampled_from(["pv", "truncated"]),
        a=st.one_of(st.integers(1, 300), st.floats(0.3, 300.0)),
        par=st.sampled_from([0, 1]),
        off=st.one_of(st.just(0.0), st.floats(0.05, 0.45)),
        reach=st.floats(1.0, 1e3),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=80, deadline=None)
    def test_agrees_with_dense(self, n, curve, c, kind, a, par, off, reach, seed):
        # Whole-step radii put window edges on lattice offsets, so boxes
        # straddle an edge and ties are decided by the float mask; ``off``
        # moves the targets off both lattices.
        f = _block(n, c, [True, False][:c], seed)
        rng = np.random.default_rng(seed + 1)
        inside = _lattice(f, np.arange(-n // 4, n + n // 4), par) + off * f.step
        sides = np.array([-1.0, 1.0])[rng.integers(0, 2, 200)]
        far = f.origin + sides * (f.upper - f.lower) * (1.0 + reach * rng.random(200))
        t = _tree_radius(f, kind, a)
        for xs in (inside, far, np.concatenate([inside, far])):
            got = TREE(curve, f, xs, t)
            want = DENSE(curve, f, xs, t)
            assert got.shape == want.shape == (xs.size, c)
            if np.any(want):
                assert _rel_dev(got, want) <= 1e-12
            else:  # a window wider than the grid drops every node
                assert not np.any(got)

    @given(
        n=st.integers(100, 600),
        curve=st.sampled_from(TREE_CURVES),
        c=st.sampled_from([2, 3, 5]),
        real=st.lists(st.booleans(), min_size=5, max_size=5),
        kind=st.sampled_from(["pv", "truncated"]),
        a=st.floats(0.3, 100.0),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=30, deadline=None)
    def test_block_equals_columns(self, n, curve, c, real, kind, a, seed):
        block = _block(n, c, real[:c], seed)
        xs = np.concatenate([_lattice(block, np.arange(-50, n + 50), 1),
                             block.upper + np.linspace(1.0, 50.0, 40)])
        t = _tree_radius(block, kind, a)
        got = TREE(curve, block, xs, t)
        for j in range(c):
            want = TREE(curve, _column(block, j), xs, t)
            assert want.shape == (xs.size,)
            assert _rel_dev(got[:, j], want) <= 1e-14

    def test_more_targets_than_one_block(self):
        # Three blocks, the last one short; near and far targets in each.
        block = _block(700, 3, [True, False, True], seed=13)
        ks = np.arange(-300, 1000)
        xs = np.concatenate([_lattice(block, ks, 1), block.upper + 0.01 * np.arange(1, 4000)])
        assert xs.size > 2 * operator._TREE_BLOCK and xs.size % operator._TREE_BLOCK
        for t in (_window(block, None), 7.3 * block.step):
            got = TREE(SAWTOOTH, block, xs, t)
            assert _rel_dev(got, DENSE(SAWTOOTH, block, xs, t)) <= 1e-12
            for j in range(3):
                want = TREE(SAWTOOTH, _column(block, j), xs, t)
                assert _rel_dev(got[:, j], want) <= 1e-14

    @staticmethod
    def _spy_levels(monkeypatch):
        """The list that receives what each ``_tree_levels`` call returns."""
        trees = []
        original = operator._tree_levels

        def spy(*args):
            trees.append(original(*args))
            return trees[-1]

        monkeypatch.setattr(operator, "_tree_levels", spy)
        return trees

    @staticmethod
    def _levels_where(offsets, test):
        return [l for l in range(offsets.size - 1) if test(slice(offsets[l], offsets[l + 1]))]

    def test_far_targets_build_the_root_moments_alone(self, monkeypatch):
        # Three blocks of far targets, then near ones: each level a far pair
        # uses is summed once (a second sum would double it), no other level.
        f = _block(2000, 2, [True, False], seed=14)
        xs = np.concatenate([f.upper + 3.0 * (f.upper - f.lower) + np.arange(3000) * 0.01,
                             f.lower - 2.5 * (f.upper - f.lower) - np.arange(3000) * 0.01])
        trees = self._spy_levels(monkeypatch)
        t = _window(f, None)
        for targets, levels in ((xs, [0]), (np.concatenate([xs, _lattice(f, np.arange(2000), 1)]),
                                            list(range(7)))):
            got = TREE(SAWTOOTH, f, targets, t)
            offsets, moments = trees[-1][0], trees[-1][5]
            assert self._levels_where(offsets, lambda b: np.any(moments[:, b])) == levels
            assert _rel_dev(got, DENSE(SAWTOOTH, f, targets, t)) <= 1e-12

    def test_far_targets_set_up_the_root_boxes_alone(self, monkeypatch):
        # A far-only call sets up the spans, centres and radii of level 0
        # and leaves every deeper level NaN; a near call sets up them all.
        f = _block(2000, 2, [True, False], seed=14)
        far = f.upper + 3.0 * (f.upper - f.lower) + np.arange(600) * 0.01
        trees = self._spy_levels(monkeypatch)
        for targets, levels in ((far, [0]), (_lattice(f, np.arange(2000), 1), list(range(7)))):
            TREE(SAWTOOTH, f, targets, _window(f, None))
            offsets, *geometry = trees[-1][:5]
            for per_box in geometry:
                unset = np.isnan(per_box)
                assert self._levels_where(offsets, lambda b: not np.any(unset[b])) == levels
                assert np.all(unset[offsets[len(levels)]:])

    def test_fine_grid_far_targets_are_finite(self):
        # Step 1e-7 against targets 1e4 away: ratios near 1e-11, powers that
        # would underflow unscaled, and no warning (warnings are errors here).
        f = _grid(2000, seed=9, lo=-1e-4, hi=1e-4)
        xs = np.concatenate([1e4 + np.arange(500) * 0.5, -1e4 - np.arange(500) * 0.5,
                             _lattice(f, np.arange(0, 2000, 7), 1)])
        for curve in (SAWTOOTH, FLAT):
            got = TREE(curve, f, xs, _window(f, None))
            want = DENSE(curve, f, xs, _window(f, None))
            assert np.all(np.isfinite(got))
            assert _rel_dev(got, want) <= 1e-12
            assert _rel_dev(got[:1000], want[:1000]) <= 1e-12

    def test_series_order_meets_the_tail_bound(self):
        r = np.concatenate([[0.0, 1e-300, 1e-12], np.linspace(1e-3, operator._THETA, 500)])
        p = operator._series_order(r)
        assert operator._series_order(np.array([operator._THETA]))[0] == operator._ORDER
        tail = r ** (p + 1) / (1.0 - r)
        assert np.all(tail <= 2.0**-53 * (1.0 + 1e-9))
        shorter = r ** p / (1.0 - r)
        assert np.all((p == 0) | (shorter > 2.0**-53 * (1.0 - 1e-9)))

    def test_large_curved_input_goes_to_the_tree(self):
        f = _block(2000, 3, [True, False, True], seed=12)
        xs = _lattice(f, np.arange(-3000, 5000), 1)
        t = _window(f, None)
        assert operator._tree_pays(f, _weights(f), xs)
        got = operator._masked_sums(CauchyKernel.for_curve(SAWTOOTH), f, xs, t)
        np.testing.assert_array_equal(got, TREE(SAWTOOTH, f, xs, t))
        assert _rel_dev(got, DENSE(SAWTOOTH, f, xs, t)) <= 1e-12

    def test_small_inputs_stay_dense(self):
        # Targets spread over the nodes, where the tree walks to the most leaves.
        for n, m in [(600, 800), (1000, 121), (operator._CHUNK_ELEMENTS + 7, 4), (64, 10**6)]:
            f = _grid(n, real=True)
            assert not operator._tree_pays(f, _weights(f), np.linspace(f.lower, f.upper, m))

    def test_tree_evaluates_the_profile_twice_per_call(self, monkeypatch):
        f = _block(1500, 2, [True, False], seed=5)
        xs = _lattice(f, np.arange(-10, 3000), 1)
        calls = []
        original = operator.eval_A

        def counted(curve, x):
            calls.append(np.size(x))
            return original(curve, x)

        monkeypatch.setattr(operator, "eval_A", counted)
        TREE(SAWTOOTH, f, xs, _window(f, None))
        assert sorted(calls) == sorted([f.count, xs.size])


BACKENDS = {"toeplitz": operator._toeplitz_sums, "tree": operator._tree_sums,
            "dense": operator._dense_sums}


class TestComplexSplit:
    """Backends sum real weight columns; ``_masked_sums`` splits and joins complex values."""

    @given(
        backend=st.sampled_from(sorted(BACKENDS)),
        n=st.integers(100, 400),
        c=st.sampled_from([1, 2, 3]),
        real=st.lists(st.booleans(), min_size=3, max_size=3),
        t_steps=st.one_of(st.just(None), st.integers(0, 40)),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=40)
    def test_complex_block_is_its_real_and_imaginary_sums_joined(self, backend, n, c, real,
                                                                  t_steps, seed):
        curve = FLAT if backend == "toeplitz" else SAWTOOTH
        block = _block(n, c, real[:c], seed)
        xs = _lattice(block, np.arange(-n // 4, n + n // 4), 1)
        t = _window(block, None if t_steps is None else (t_steps + 0.3) * block.step)
        sums = BACKENDS[backend]
        got = _sums(sums, curve, block, xs, t)
        re, im = (sums(curve, block, part, xs, t) for part in (block.values.real,
                                                               block.values.imag))
        assert got.shape == re.shape == im.shape == (xs.size, c)
        assert _rel_dev(got, re + 1j * im) <= 1e-14

    @pytest.mark.parametrize("backend, curve, n, m", [("toeplitz", FLAT, 600, 400),
                                                      ("tree", SAWTOOTH, 2000, 8000),
                                                      ("dense", SAWTOOTH, 300, 600)])
    def test_a_real_block_reaches_the_backend_as_its_columns(self, monkeypatch, backend,
                                                             curve, n, m):
        # One real function, a real block of 3 and a complex block of 3.
        seen = []
        name = f"_{backend}_sums"
        original = getattr(operator, name)

        def spy(curve, f, W, xs, t):
            seen.append(W)
            return original(curve, f, W, xs, t)

        monkeypatch.setattr(operator, name, spy)
        block = _block(n, 3, [True] * 3, seed=21)
        block = block.with_values(block.values.real)
        single = _column(block, 0)
        xs = _lattice(block, np.arange(m) - (m - n) // 2, 1)
        kernel = CauchyKernel.for_curve(curve)
        for f in (single, block, block.with_values(block.values * (1.0 - 2.0j))):
            pv_values(kernel, f, xs)
        assert [W.shape for W in seen] == [(n, 1), (n, 3), (n, 6)]
        assert all(W.dtype == np.float64 for W in seen)
        assert np.shares_memory(seen[0], single.values)
        assert np.shares_memory(seen[1], block.values)


# Backend of every kernel sum three lab invocations make on the sawtooth
# graph, by (nodes, targets).  The witnesses evaluate grids of a few hundred
# nodes at targets spread far beyond them; homogeneity evaluates a long grid
# at a few points far from it, where the tree builds the root's moments alone.
LAB_CURVE = {"curve": {"kind": "sawtooth", "params": {"amplitude": 0.5, "period": 2.0}}}
WITNESS_SHAPES = {(n, m): "tree" for n in (245, 305, 381, 1901) for m in (1536, 8192)}
LAB_BACKENDS = {
    "witness-small": (["witness", "--case", "small"], WITNESS_SHAPES),
    "witness-large": (["witness", "--case", "large"], WITNESS_SHAPES),
    "verify-homogeneity": (["verify-homogeneity"], {(2048, 128): "tree"}),
}


class TestLabBackends:
    """The backend ``_masked_sums`` picks for each lab call shape, with dense as the oracle."""

    @pytest.mark.parametrize("name", sorted(LAB_BACKENDS))
    def test_lab_call_shapes(self, tmp_path, monkeypatch, name):
        argv, want = LAB_BACKENDS[name]
        picked = {}
        dense, tree = operator._dense_sums, operator._tree_sums

        def spy_dense(curve, f, W, xs, t):
            picked.setdefault((f.count, xs.size), set()).add("dense")
            return dense(curve, f, W, xs, t)

        def spy_tree(curve, f, W, xs, t):
            picked.setdefault((f.count, xs.size), set()).add("tree")
            got = tree(curve, f, W, xs, t)
            assert _rel_dev(got, dense(curve, f, W, xs, t)) <= 1e-12
            return got

        monkeypatch.setattr(operator, "_dense_sums", spy_dense)
        monkeypatch.setattr(operator, "_tree_sums", spy_tree)
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(LAB_CURVE))
        assert main(argv + ["--config", str(cfg), "--out-dir", str(tmp_path / "o")]) == 0
        assert picked == {shape: {backend} for shape, backend in want.items()}

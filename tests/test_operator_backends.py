"""The two summation backends of the operator and the rule that picks one.

The dense backend is the oracle: the Toeplitz FFT backend must agree with
it wherever it runs, and every input it declines must give exactly the
dense result.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cauchylab import (
    CauchyKernel,
    GridAlignmentError,
    LipschitzCurve,
    SampledFunction,
    pv_values,
    truncated_values,
)
from cauchylab import operator
from cauchylab.curve import eval_A

FLAT = LipschitzCurve.flat()


def _cut(f, t):
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


def _per_target_sums(curve, f, xs, cut):
    """One complex sum per target, straight from the kernel formula."""
    nodes, A_nodes = f.nodes, eval_A(curve, f.nodes)
    out = []
    for x in xs:
        keep = np.abs(nodes - x) > cut
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
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_within_1e_10_of_dense(self, n, slope, par, first, fill, t_steps, real, seed):
        curve = FLAT if slope is None else LipschitzCurve.affine(slope)
        f = _grid(n, seed, real)
        rng = np.random.default_rng(seed + 1)
        # Targets may start before and run past the sampled range.
        ks = rng.permutation(np.arange(first, first + int(fill * n)))
        xs = _lattice(f, ks, par)
        # A quarter step keeps the radius off both lattices of offsets.
        t = None if t_steps is None else (t_steps + 0.25) * f.step
        fast = operator._toeplitz_sums(curve, f, xs, _cut(f, t))
        assert fast is not None
        dense = operator._dense_sums(curve, f, xs, _cut(f, t))
        assert _rel_dev(fast, dense) <= 1e-10

    def test_benchmark_sized_flat_pv(self):
        f = _grid(8192, seed=3)
        xs = _lattice(f, np.arange(2048, 6145), 1)
        fast = operator._toeplitz_sums(FLAT, f, xs, _cut(f, None))
        dense = operator._dense_sums(FLAT, f, xs, _cut(f, None))
        assert fast is not None and _rel_dev(fast, dense) <= 1e-12


class TestDispatch:
    @pytest.mark.parametrize("par, t_steps", [(0, 5.0), (1, 4.5)])
    def test_radius_on_a_lattice_offset_goes_dense(self, par, t_steps):
        f = _grid(600)
        xs = _lattice(f, np.arange(100, 500), par)
        t = t_steps * f.step
        assert operator._toeplitz_sums(FLAT, f, xs, t) is None
        got = truncated_values(CauchyKernel.for_curve(FLAT), f, xs, t)
        np.testing.assert_array_equal(got, operator._dense_sums(FLAT, f, xs, t))

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
        cut = _cut(f, None)
        assert operator._toeplitz_sums(FLAT, f, xs, cut) is None
        got = operator._masked_sums(CauchyKernel.for_curve(FLAT), f, xs, None)
        np.testing.assert_array_equal(got, operator._dense_sums(FLAT, f, xs, cut))

    def test_curved_graph_goes_dense(self):
        f = _grid(600)
        xs = _lattice(f, np.arange(100, 500), 1)
        curve = LipschitzCurve.sawtooth(0.5, 2.0)
        assert operator._toeplitz_sums(curve, f, xs, _cut(f, None)) is None

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
        assert operator._toeplitz_sums(FLAT, f, lattice, _cut(f, None)) is not None
        off = lattice[:50] + 0.25 * f.step
        for out in (pv_values(kernel, f, lattice),
                    truncated_values(kernel, f, lattice, 10.25 * f.step),
                    truncated_values(kernel, f, off, 10.0 * f.step)):
            assert np.all(out.imag == 0.0)

    @pytest.mark.parametrize("curve", [FLAT, LipschitzCurve.affine(0.75)])
    def test_prefactor_on_both_backends(self, curve):
        f = _grid(1024, seed=5)
        xs = _lattice(f, np.arange(0, 1024), 1)
        with_pre = CauchyKernel.for_curve(curve, include_prefactor=True)
        fast = pv_values(with_pre, f, xs)
        assert operator._toeplitz_sums(curve, f, xs, _cut(f, None)) is not None
        dense = operator._dense_sums(curve, f, xs, _cut(f, None)) / (math.pi * 1j)
        assert _rel_dev(fast, dense) <= 1e-10
        bare = pv_values(CauchyKernel.for_curve(curve), f, xs)
        np.testing.assert_array_equal(fast, bare / (math.pi * 1j))


class TestDense:
    @pytest.mark.parametrize("curve", [LipschitzCurve.sawtooth(0.5, 2.0),
                                       LipschitzCurve.smooth_bump(0.8, 0.5)])
    @pytest.mark.parametrize("t", [None, 0.037])
    def test_matches_per_target_sums(self, curve, t):
        f = _grid(1000, seed=7)
        rows = operator._CHUNK_ELEMENTS // f.count
        xs = _lattice(f, np.arange(-20, 3 * rows + 5) * 3, 1)
        assert xs.size % rows != 0
        got = operator._masked_sums(CauchyKernel.for_curve(curve), f, xs, t)
        ref = _per_target_sums(curve, f, xs, _cut(f, t))
        assert _rel_dev(got, ref) <= 1e-12

    def test_grid_wider_than_one_chunk(self):
        curve = LipschitzCurve.smooth_bump(0.8, 0.5)
        f = _grid(operator._CHUNK_ELEMENTS + 7, seed=11)
        xs = _lattice(f, [5, 9000, 20000, f.count + 3], 1)
        got = pv_values(CauchyKernel.for_curve(curve), f, xs)
        assert _rel_dev(got, _per_target_sums(curve, f, xs, _cut(f, None))) <= 1e-12


def test_misaligned_targets_name_the_first():
    f = _grid(100)
    xs = np.concatenate([_lattice(f, [10, 20], 1), f.origin + np.array([30.27, 40.4]) * f.step])
    with pytest.raises(GridAlignmentError, match=f"point {float(xs[2])} sits 0.27 steps"):
        pv_values(CauchyKernel.for_curve(FLAT), f, xs)

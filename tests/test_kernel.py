import random
import tracemalloc
from functools import partial

import numpy as np
import pytest

from cauchylab import (
    CauchyKernel,
    InputError,
    LipschitzCurve,
    SingularityError,
    check_size,
    check_smoothness,
    eval_kernel,
    kernel_modulus,
    random_size_sweep,
    random_smoothness_sweep,
)
from cauchylab.kernel import _CHECK_CHUNK
from cauchylab.reports import MAX_REPORT_ROWS, _cap_rows

FLAT = CauchyKernel.for_curve(LipschitzCurve.flat())
AFFINE1 = CauchyKernel.for_curve(LipschitzCurve.affine(1.0))
SAW = CauchyKernel.for_curve(LipschitzCurve.sawtooth(1.0, 4.0))
LAB = CauchyKernel.for_curve(LipschitzCurve.sawtooth(0.5, 2.0))


class HalvedConstant(CauchyKernel):
    """The kernel checked against half its smoothness constant: about 0.3% of triples fail."""

    @property
    def smoothness_constant(self) -> float:
        return 0.5 * super().smoothness_constant


TIGHT = HalvedConstant(LipschitzCurve.sawtooth(1.0, 4.0))
SWEEPS = {
    "size": random_size_sweep,
    "smoothness": random_smoothness_sweep,
    "transposed": partial(random_smoothness_sweep, transposed=True),
}


def test_eval_examples():
    assert eval_kernel(FLAT, 0.0, 2.0) == 0.5 + 0j
    assert eval_kernel(AFFINE1, 0.0, 1.0) == pytest.approx(0.5 - 0.5j)
    assert eval_kernel(FLAT, 0.0, -2.0) == -0.5 + 0j


def test_constants():
    assert FLAT.smoothness_constant == 2.0
    assert AFFINE1.smoothness_constant == 4.0


def test_singularity():
    with pytest.raises(SingularityError):
        eval_kernel(FLAT, 1.0, 1.0)
    with pytest.raises(SingularityError):
        kernel_modulus(SAW, np.array([0.0, 1.0]), np.array([2.0, 1.0]))


def test_size_flat_equality_case():
    rep = check_size(FLAT, 0.0, 2.0)
    assert rep.passed
    assert rep.columns["lhs"][0] == rep.columns["rhs"][0] == 0.5


def test_size_affine_value():
    rep = check_size(AFFINE1, 0.0, 1.0)
    assert rep.passed
    assert rep.columns["lhs"][0] == pytest.approx(2 ** -0.5)
    assert rep.columns["rhs"][0] == 1.0


def test_size_sweep_sawtooth():
    rep = random_size_sweep(SAW, 100_000, random.Random(20260810))
    assert rep.passed and rep.extras["n_violations"] == 0


def test_smoothness_trivial_and_arithmetic():
    rep = check_smoothness(FLAT, 0.0, 2.0, 2.0)
    assert rep.columns["lhs"][0] == 0.0 and rep.passed
    rep = check_smoothness(FLAT, 0.0, 2.0, 2.5)
    assert rep.columns["lhs"][0] == pytest.approx(0.1)
    assert rep.columns["rhs"][0] == pytest.approx(0.25)
    assert rep.passed


def test_smoothness_sweeps():
    rng = random.Random(20260810)
    for transposed in (False, True):
        rep = random_smoothness_sweep(SAW, 100_000, rng, transposed=transposed)
        assert rep.passed and rep.extras["n_violations"] == 0


def test_smoothness_precondition_rejected():
    with pytest.raises(InputError, match="inadmissible"):
        check_smoothness(FLAT, 0.0, 1.0, 3.0)


def test_flat_antisymmetry_exact(rng):
    x = rng.uniform(-10, 10, 256)
    y = rng.uniform(-10, 10, 256)
    keep = x != y
    k_xy = eval_kernel(FLAT, x[keep], y[keep])
    k_yx = eval_kernel(FLAT, y[keep], x[keep])
    np.testing.assert_array_equal(k_xy, -k_yx)


def test_modulus_symmetry_exact(rng):
    x = rng.uniform(-10, 10, 256)
    y = rng.uniform(-10, 10, 256)
    keep = x != y
    m_xy = kernel_modulus(SAW, x[keep], y[keep])
    m_yx = kernel_modulus(SAW, y[keep], x[keep])
    np.testing.assert_array_equal(m_xy, m_yx)


def whole_column_report(kernel, n, rng, sweep, box=50.0):
    """The full report of one sweep's draws, all ``n`` samples drawn at once, sample-major."""
    k = 2 if sweep == "size" else 3
    words = np.frombuffer(rng.randbytes(8 * n * k), dtype="<u8")
    u = ((words >> 11) * 2.0**-53).reshape(n, k)
    x = -box + 2 * box * u[:, 0]
    y = -box + 2 * box * u[:, 1]
    coincide = y == x
    y[coincide] = x[coincide] + box * 1e-6
    if sweep == "size":
        return check_size(kernel, x, y)
    t = -1.0 + 2.0 * u[:, 2]
    return check_smoothness(kernel, x, y, y + 0.5 * t * np.abs(y - x),
                            transposed=sweep == "transposed")


STREAM_CASES = [
    *(pytest.param(SAW, s, n, id=f"saw-{s}-{n}")
      for s in SWEEPS for n in (1, 200, 201, 16384, 16385, 100_000)),
    # Every size ratio is 1.0 on the flat graph: ties across every chunk boundary.
    *(pytest.param(FLAT, "size", n, id=f"flat-size-{n}") for n in (16385, 100_000)),
    *(pytest.param(TIGHT, s, n, id=f"violations-{s}-{n}")
      for s in ("smoothness", "transposed") for n in (16385, 100_000)),
]


@pytest.mark.parametrize("kernel, sweep, n", STREAM_CASES)
def test_sweep_is_the_capped_whole_column_report(kernel, sweep, n):
    streamed, whole = random.Random(n), random.Random(n)
    got = SWEEPS[sweep](kernel, n, streamed)
    full = whole_column_report(kernel, n, whole, sweep)
    want = _cap_rows([full])
    if kernel is TIGHT and n == 100_000:
        bad_chunks = np.flatnonzero(~full.columns["pass"]) // _CHECK_CHUNK
        assert np.unique(bad_chunks).size > 1
    assert got.inequality == want.inequality
    assert got.extras == want.extras
    assert list(got.columns) == list(want.columns)
    for name, column in want.columns.items():
        assert got.columns[name].dtype == column.dtype
        assert got.columns[name].tobytes() == column.tobytes()
    assert streamed.getstate() == whole.getstate()


@pytest.mark.parametrize("sweep", ["smoothness", "transposed"])
def test_failing_sweep_writes_at_most_the_cap(sweep):
    got = SWEEPS[sweep](TIGHT, 100_000, random.Random(3))
    full = whole_column_report(TIGHT, 100_000, random.Random(3), sweep)
    assert full.n_violations > MAX_REPORT_ROWS  # about 0.3% of 100000 triples fail
    assert got.n_rows == MAX_REPORT_ROWS and got.n_violations == MAX_REPORT_ROWS
    assert got.extras["n_violations"] == full.n_violations
    assert got.extras["rows_written"] == MAX_REPORT_ROWS


@pytest.mark.parametrize("sweep, columns", [("size", 2), ("smoothness", 3)])
def test_sweep_leaves_the_generator_as_whole_column_draws(sweep, columns):
    streamed, whole = random.Random(5), random.Random(5)
    for g in (streamed, whole):
        g.gauss(0.0, 1.0)  # keeps the second normal of its pair for the next call
    SWEEPS[sweep](SAW, 1000, streamed)
    whole.randbytes(8 * columns * 1000)
    assert whole.getstate()[2] is not None
    assert streamed.getstate() == whole.getstate()
    assert ([streamed.gauss(0.0, 1.0), streamed.random()]
            == [whole.gauss(0.0, 1.0), whole.random()])


def test_smoothness_sweep_peak_memory():
    # Whole 100k-sample columns peak at about 6.4 MiB here, one chunk at a time at about 2.9.
    rng = random.Random(8191)
    random_smoothness_sweep(LAB, 1000, rng)
    tracemalloc.start()
    try:
        random_smoothness_sweep(LAB, 100_000, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


@pytest.mark.parametrize("box", [np.nan, np.inf, 0.0, -1.0])
@pytest.mark.parametrize("sweep", [random_size_sweep, random_smoothness_sweep])
def test_box_must_be_positive_and_finite(sweep, box):
    # A NaN or infinite box reported every sample as a violation, and a zero
    # box a coincident pair.
    with pytest.raises(InputError, match="box must be positive and finite"):
        sweep(FLAT, 100, random.Random(0), box)

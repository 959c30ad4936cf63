"""Truncated and principal-value Cauchy integrals by quadrature.

The operator applied to a sampled function is a plain midpoint-rule sum
of ``h K(x, y) f(y)`` over grid nodes ``y``.  The singularity at ``y = x``
is handled by masking, not analytically: each sum drops the nodes whose
offset ``y - x`` lies in a closed window ``[lo, hi]``.

* truncated integrals use ``[-t, t]``, so they sum the nodes with
  ``|x - y| > t``;
* the principal value uses a window of a millionth of a step around 0,
  so it sums every node that does not coincide with ``x``;
* an off-centre window sums, at ``x + z``, the nodes that a truncation
  at ``x`` keeps: ``[-t - z, t - z]`` seen from ``x + z`` drops exactly
  the nodes with ``|y - x| <= t``.  The translation split of the
  compactness proof needs this.

On a uniform grid the nodes at ``x + s`` and ``x - s`` carry exactly
opposite leading singular parts, so grouping them in pairs cancels the
odd singularity with no curve-specific closed form.  Pairing only
reorders the summed terms, never changes their set, so the masked sum is
the symmetric principal value up to rounding.

For the pairing to be exact the evaluation point must sit on the node
lattice or the half-step midpoint lattice of the grid.  Operator outputs
are therefore evaluated on the midpoint lattice, where no evaluation
point can ever collide with a quadrature node; misaligned points are
rejected with regrid guidance rather than silently mistreated, and
non-finite points are rejected outright.

``pv_values`` and ``truncated_values`` share one summation primitive,
``_masked_sums``, with two exact backends chosen from the inputs alone:

* Toeplitz FFT: on a flat or affine graph with every target on the node
  lattice, or every target on the midpoint lattice, the kernel depends
  only on the lattice offset, so one FFT correlation gives every sum.  It
  runs when no offset lies within rounding of a window edge and the
  padded FFT costs less than the dense sum.
* Dense: every other input, by cache-sized chunks of the kernel matrix
  in real arithmetic.  It is also the oracle the FFT is tested against.

The backends differ only in summation order, never in the set of summed
terms.

Every sum takes one function or a block of ``c`` functions on one grid
(``values`` of shape ``(n,)`` or ``(n, c)``, see ``sampling``) and returns
``(len(xs),)`` or ``(len(xs), c)``.  A block costs one pass: the dense
backend builds each kernel chunk once and multiplies it by all ``2 c``
real columns ``[Re V, Im V]``, and the FFT backend transforms all columns
in one batched call.  On a curved graph building the chunk, not the
product, is the cost, so a family of test functions is applied as one
block.  The commutator ``b C(F) - C(b F)`` is two passes, one per term,
whatever the width of ``F``.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .curve import LipschitzCurve, ProfileKind, eval_A
from .errors import GridAlignmentError, InputError
from .kernel import CauchyKernel
from .sampling import ALIGNMENT_TOL, Interval, SampledFunction

# Cap on elements per kernel-matrix chunk of the dense backend; chunks
# this size stay in cache, which is faster than larger ones.
_CHUNK_ELEMENTS = 32_768
# FFT work per ``size * log2(size)`` relative to dense work per pair,
# used to pick the Toeplitz backend only where it is cheaper.
_FFT_COST = 4


def _points(xs) -> np.ndarray:
    """Evaluation points as a 1-d float array; a non-finite point raises."""
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    bad = np.flatnonzero(~np.isfinite(xs))
    if bad.size:
        raise InputError(
            f"evaluation point {float(xs[bad[0]])} at index {int(bad[0])} is not finite"
        )
    return xs


def _check_alignment(xs: np.ndarray, f: SampledFunction) -> None:
    """Reject the first point that is near the grid but off its lattices.

    Points far from the grid are free; every other point must sit on the
    node or the half-step midpoint lattice.
    """
    h = f.step
    free = (xs < f.lower - 1.5 * h) | (xs > f.upper + 1.5 * h)
    s = (xs - f.origin) / h
    frac = s - np.floor(s)
    aligned = ((frac < ALIGNMENT_TOL) | (frac > 1.0 - ALIGNMENT_TOL)
               | (np.abs(frac - 0.5) < ALIGNMENT_TOL))
    bad = np.flatnonzero(~(free | aligned))
    if bad.size:
        i = bad[0]
        raise GridAlignmentError(
            f"evaluation point {float(xs[i])} sits {float(frac[i]):.3g} steps past a "
            "node; principal values need a node or half-step midpoint, regrid the "
            "input or move the point onto origin + (i + 1/2) * step"
        )


def pv_values(kernel: CauchyKernel, f: SampledFunction, xs) -> np.ndarray:
    """Principal values at many aligned points, vectorized.

    Every point must be finite and sit on a node, on a midpoint, or far
    from the grid.  The sum runs over all non-coincident nodes, which
    equals the symmetric-pair principal value up to summation order.
    Returns ``(len(xs),)`` for one function, ``(len(xs), c)`` for a block.
    """
    xs = _points(xs)
    _check_alignment(xs, f)
    cut = 0.5 * f.step * 1e-6
    return _masked_sums(kernel, f, xs, -cut, cut)


def truncated_values(kernel: CauchyKernel, f: SampledFunction, xs, t: float) -> np.ndarray:
    """Truncated integrals at many finite points, vectorized; shapes as ``pv_values``."""
    if not t > 0:
        raise InputError("truncation radius must be positive")
    return _masked_sums(kernel, f, _points(xs), -t, t)


def _masked_sums(kernel: CauchyKernel, f: SampledFunction, xs: np.ndarray,
                 lo: float, hi: float) -> np.ndarray:
    """Sums of ``h K(x, y) f(y)`` over the nodes with ``y - x`` outside ``[lo, hi]``.

    ``f`` is one function or a block; the result has one row per point
    and, for a block, one column per function.  Two exact backends
    compute the same set of terms and differ only in summation order.
    The Toeplitz FFT backend runs when the curve is flat or affine, all
    targets share one lattice of the grid (nodes or half-step midpoints,
    to rounding), no lattice offset ties a window edge, and the FFT is
    cheaper than the dense sum; every other input goes to the dense
    backend, which is also the reference for the first.
    """
    out = _toeplitz_sums(kernel.curve, f, xs, lo, hi)
    if out is None:
        out = _dense_sums(kernel.curve, f, xs, lo, hi)
    return out


def _dense_sums(curve: LipschitzCurve, f: SampledFunction, xs: np.ndarray,
                lo: float, hi: float) -> np.ndarray:
    """``h * sum K(x, y) f(y)`` over nodes with ``y - x`` outside ``[lo, hi]``, by chunks.

    Each chunk of the kernel matrix is built once in real arithmetic,
    ``Re K = D / (D^2 + dA^2)`` and ``Im K = -dA / (D^2 + dA^2)``, and
    applied to the ``2 c`` columns ``[Re V, Im V]`` of the ``(n, c)`` value
    block by two real matrix products.  ``A`` is evaluated once per call,
    at the nodes and at every target.
    """
    nodes = f.nodes
    V = f.values.reshape(f.count, -1)
    c = V.shape[1]
    W = np.concatenate([V.real, V.imag], axis=1)
    A_nodes = np.asarray(eval_A(curve, nodes), dtype=float)
    A_xs = np.asarray(eval_A(curve, xs), dtype=float)
    out = np.empty((xs.size, c), dtype=np.complex128)
    rows = max(1, _CHUNK_ELEMENTS // nodes.size)
    for start in range(0, xs.size, rows):
        stop = start + rows
        D = nodes - xs[start:stop, None]
        dA = A_nodes - A_xs[start:stop, None]
        keep = (D < lo) | (D > hi)
        inv = D * D
        inv += dA * dA
        np.divide(1.0, inv, out=inv, where=keep)
        inv *= keep
        D *= inv
        dA *= inv
        P = D @ W
        Q = dA @ W
        out.real[start:stop] = P[:, :c] + Q[:, c:]
        out.imag[start:stop] = P[:, c:] - Q[:, :c]
    out *= f.step
    return out.reshape(xs.shape + f.values.shape[1:])


def _toeplitz_sums(curve: LipschitzCurve, f: SampledFunction, xs: np.ndarray,
                   lo: float, hi: float) -> Optional[np.ndarray]:
    """The sums of ``_dense_sums`` by one FFT correlation, or None.

    On a flat graph a target ``x = origin + (k + par/2) h`` on the node
    (``par = 0``) or midpoint (``par = 1``) lattice sees the node ``j``
    at offset ``(j - k - par/2) h``, so the kernel matrix is Toeplitz:
    ``f`` is correlated with ``1 / (d - par/2)`` over the kept offsets.
    An affine graph of slope ``s`` multiplies the flat kernel by
    ``1 / (1 + i s)``.  ``Re f`` and ``Im f`` go through real FFTs, batched
    over the columns of a block, so a real column on a flat graph gives
    an exactly real result.

    Returns None, leaving the input to the dense backend, when the curve
    is curved, the targets are empty, mixed or off-lattice, a lattice
    offset lies within rounding of ``lo`` or ``hi`` (where the dense float
    comparison decides), or the padded length makes the FFT dearer than
    the dense sum.
    """
    if curve.kind is ProfileKind.FLAT:
        factor = 1.0
    elif curve.kind is ProfileKind.AFFINE:
        factor = 1.0 / (1.0 + 1j * curve.params[0])
    else:
        return None
    n, h = f.count, f.step
    if xs.size == 0:
        return None
    # Coordinates carry rounding relative to their magnitude, not to h;
    # where that rounding is not far below a step, the lattice is blurred.
    tol = 64.0 * np.finfo(float).eps * (max(abs(f.lower), abs(f.upper),
                                           float(np.max(np.abs(xs)))) + h)
    if not tol < ALIGNMENT_TOL * h:
        return None
    q = np.round(2.0 * (xs - f.origin) / h)
    if not np.all(np.abs(f.origin + 0.5 * h * q - xs) <= tol):
        return None
    q = q.astype(np.int64)
    par = int(q[0]) & 1
    if np.any((q & 1) != par):
        return None
    k = (q - par) // 2
    k_lo, k_hi = int(k.min()), int(k.max())
    width = n + k_hi - k_lo
    size = 1 << (width - 1).bit_length()
    if _FFT_COST * size * size.bit_length() >= n * xs.size:
        return None
    # Offset of node j from target k_hi - r is (j + r - k0) h.
    k0 = k_hi + 0.5 * par
    for edge in (lo, hi):
        j = np.rint(edge / h + k0)  # the lattice offset nearest the edge
        if 0 <= j < width and abs((j - k0) * h - edge) <= 2.0 * tol:
            return None
    m = np.arange(width) - k0
    d = m * h
    keep = (d < lo) | (d > hi)
    kern = np.zeros(width)
    np.divide(1.0, m, out=kern, where=keep)
    kern_hat = np.fft.rfft(kern, size)

    def correlate(v: np.ndarray) -> np.ndarray:
        c = np.fft.irfft(np.conj(np.fft.rfft(v, size)) * kern_hat, size)
        return c.take(k_hi - k, axis=-1)

    # One contiguous row per function: a block is transposed, while a
    # single function is used as it is, without a copy.
    V = f.values if f.values.ndim == 1 else np.ascontiguousarray(f.values.T)
    out = np.zeros(V.shape[:-1] + xs.shape, dtype=np.complex128)
    out.real = correlate(V.real)
    if np.any(V.imag):
        out.imag = correlate(V.imag)
    return (out * factor).T


def apply_on_window(kernel: CauchyKernel, f: SampledFunction,
                    window: Interval) -> SampledFunction:
    """Operator output on the midpoint lattice of the input grid.

    The true output has unbounded support, so the caller declares the
    window; half-step evaluation points guarantee no collision with the
    quadrature nodes.
    """
    xs = f.midpoints_in(window)
    if xs.size == 0:
        raise InputError("evaluation window contains no midpoint-lattice points")
    vals = pv_values(kernel, f, xs)
    return SampledFunction(float(xs[0]), f.step, vals)

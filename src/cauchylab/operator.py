"""Truncated, principal-value, and maximal Cauchy integrals by quadrature.

The operator applied to a sampled function is a plain midpoint-rule sum
of ``K(x, y) f(y)`` over grid nodes ``y``.  The singularity at ``y = x``
is handled combinatorially, not analytically:

* truncated integrals sum the nodes with ``|x - y| > t``;
* the principal value adds the window ``0 < |x - y| <= t`` back in by
  pairing the node at ``x + s`` with the node at ``x - s``.  On a uniform
  grid the two singular contributions have exactly opposite leading
  parts, so the pair sum cancels the odd singularity with no
  curve-specific closed form.

For the pairing to be exact the evaluation point must sit on the node
lattice or the half-step midpoint lattice of the grid.  Operator outputs
are therefore evaluated on the midpoint lattice, where no evaluation
point can ever collide with a quadrature node; misaligned points are
rejected with regrid guidance rather than silently mistreated.

Grouping the window into pairs changes only the floating-point summation
order, never the set of summed terms, so the principal value is
independent of the truncation radius up to rounding; the radius exists to
let truncated and windowed parts be studied separately.

``pv_values`` and ``truncated_values`` share one summation primitive,
``_masked_sums``, with two exact backends chosen from the inputs alone:

* Toeplitz FFT: on a flat or affine graph with every target on the node
  lattice, or every target on the midpoint lattice, the kernel depends
  only on the lattice offset, so one FFT correlation gives every sum.  It
  runs when no offset lies within rounding of the cut and the padded FFT
  costs less than the dense sum.
* Dense: every other input, by cache-sized chunks of the kernel matrix
  in real arithmetic.  It is also the oracle the FFT is tested against.

The backends differ only in summation order, never in the set of summed
terms.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .curve import LipschitzCurve, ProfileKind, eval_A
from .errors import GridAlignmentError, InputError
from .kernel import CauchyKernel
from .sampling import ALIGNMENT_TOL, Interval, SampledFunction, lp_norm

# Cap on elements per kernel-matrix chunk of the dense backend; chunks
# this size stay in cache, which is faster than larger ones.
_CHUNK_ELEMENTS = 32_768
# FFT work per ``size * log2(size)`` relative to dense work per pair,
# used to pick the Toeplitz backend only where it is cheaper.
_FFT_COST = 4


class Exclusion(enum.Enum):
    SYMMETRIC_PAIR = "symmetric_pair"
    NODE_SKIP = "node_skip"


@dataclass(frozen=True)
class PvConfig:
    """Principal-value discretization: window radius, grid step, exclusion mode."""

    truncation: float
    quadrature_step: float
    exclusion: Exclusion = Exclusion.SYMMETRIC_PAIR

    def __post_init__(self):
        if not self.quadrature_step > 0:
            raise InputError("quadrature step must be positive")
        if not self.truncation > 0:
            raise InputError("truncation radius must be positive")
        if self.truncation < self.quadrature_step * (1.0 - 1e-12):
            raise InputError("truncation must be at least one quadrature step")

    @staticmethod
    def for_function(f: SampledFunction, truncation: Optional[float] = None,
                     exclusion: Exclusion = Exclusion.SYMMETRIC_PAIR) -> "PvConfig":
        """Default window of one grid step."""
        t = f.step if truncation is None else truncation
        return PvConfig(t, f.step, exclusion)


@dataclass(frozen=True)
class EvalConfig:
    """Where operator outputs live: evaluation window plus pv discretization.

    ``pv`` may be omitted, in which case each application uses the
    default one-step window for its input grid.
    """

    window: Interval
    pv: Optional[PvConfig] = None

    def pv_for(self, f: SampledFunction) -> PvConfig:
        if self.pv is None:
            return PvConfig.for_function(f)
        if abs(self.pv.quadrature_step - f.step) > 1e-12 * f.step:
            raise InputError(
                f"pv quadrature step {self.pv.quadrature_step} does not match "
                f"the grid step {f.step}"
            )
        return self.pv


def _check_alignment(xs: np.ndarray, f: SampledFunction) -> np.ndarray:
    """Mask of the free points (far from the grid, alignment irrelevant).

    Every other point must sit on the node or the half-step midpoint
    lattice; the first one that does not raises.
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
    return free


def apply_truncated(kernel: CauchyKernel, f: SampledFunction, x: float, t: float) -> complex:
    """Midpoint-rule value of the integral of ``K(x, y) f(y)`` over ``|x - y| > t``."""
    if not t > 0:
        raise InputError("truncation radius must be positive")
    nodes = f.nodes
    mask = np.abs(nodes - x) > t
    if not np.any(mask):
        return 0j
    y = nodes[mask]
    dA = eval_A(kernel.curve, y) - float(eval_A(kernel.curve, x))
    k_vals = 1.0 / ((y - x) + 1j * dA)
    if kernel.include_prefactor:
        k_vals = k_vals / (math.pi * 1j)
    return complex(f.step * np.sum(k_vals * f.values[mask]))


def apply_pv(kernel: CauchyKernel, f: SampledFunction, x: float, cfg: PvConfig) -> complex:
    """Principal value at one aligned point.

    The value is the truncated integral at the window radius plus the
    symmetric window sum.  In SYMMETRIC_PAIR mode the window nodes are
    grouped as ``K(x, x+s) f(x+s) + K(x, x-s) f(x-s)`` so the singular
    odd part cancels pairwise (exactly in exact arithmetic, and to
    rounding in floats); NODE_SKIP simply sums the window nodes in grid
    order, skipping the coincident node when ``x`` is a node.
    """
    if abs(cfg.quadrature_step - f.step) > 1e-12 * f.step:
        raise InputError(
            f"pv quadrature step {cfg.quadrature_step} does not match the "
            f"grid step {f.step}"
        )
    free = bool(_check_alignment(np.array([x], dtype=float), f)[0])
    t = cfg.truncation
    outer = apply_truncated(kernel, f, x, t)

    h = f.step
    nodes = f.nodes
    offsets = nodes - x
    # Window nodes: 0 < |y - x| <= t.  Together with the strict outer
    # region every node is counted exactly once.
    window = (np.abs(offsets) <= t) & (np.abs(offsets) > 0.5 * h * 1e-6)
    if not np.any(window):
        return outer
    A_x = float(eval_A(kernel.curve, x))

    def k_at(idx: np.ndarray) -> np.ndarray:
        y = nodes[idx]
        dA = eval_A(kernel.curve, y) - A_x
        k = 1.0 / ((y - x) + 1j * dA)
        if kernel.include_prefactor:
            k = k / (math.pi * 1j)
        return k

    if cfg.exclusion is Exclusion.NODE_SKIP or free:
        idx = np.nonzero(window)[0]
        inner = h * np.sum(k_at(idx) * f.values[idx])
        return outer + complex(inner)

    # Symmetric pairing.  x aligned means 2 (x - origin)/h is an integer
    # m2, and the mirror of node index i is m2 - i.
    m2 = int(round(2.0 * (x - f.origin) / h))
    up = np.nonzero(window & (offsets > 0))[0]
    inner = 0j
    k_up = k_at(up)
    for j, i in enumerate(up):
        term = k_up[j] * f.values[i]
        mi = m2 - i
        if 0 <= mi < f.count:
            y_m = nodes[mi]
            dA_m = float(eval_A(kernel.curve, y_m)) - A_x
            k_m = 1.0 / ((y_m - x) + 1j * dA_m)
            if kernel.include_prefactor:
                k_m = k_m / (math.pi * 1j)
            term = term + k_m * f.values[mi]
        inner += term
    return outer + complex(h * inner)


def apply_maximal(kernel: CauchyKernel, f: SampledFunction, x: float,
                  t_ladder: Sequence[float]) -> float:
    """Largest truncated-integral modulus over the given radii."""
    ladder = np.asarray(t_ladder, dtype=float)
    if ladder.size == 0:
        raise InputError("truncation ladder must be non-empty")
    if np.any(ladder <= 0):
        raise InputError("truncation radii must be positive")
    if np.any(np.diff(ladder) < 0):
        raise InputError("truncation ladder must be sorted ascending")
    return max(abs(apply_truncated(kernel, f, x, t)) for t in ladder)


def pv_values(kernel: CauchyKernel, f: SampledFunction, xs) -> np.ndarray:
    """Principal values at many aligned points, vectorized.

    Every point must classify as a node, a midpoint, or free (far from
    the grid).  The sum runs over all non-coincident nodes, which equals
    the symmetric-pair principal value up to summation order.
    """
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    _check_alignment(xs, f)
    return _masked_sums(kernel, f, xs, t=None)


def truncated_values(kernel: CauchyKernel, f: SampledFunction, xs, t: float) -> np.ndarray:
    """Truncated integrals at many points, vectorized."""
    if not t > 0:
        raise InputError("truncation radius must be positive")
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    return _masked_sums(kernel, f, xs, t=t)


def _masked_sums(kernel: CauchyKernel, f: SampledFunction, xs: np.ndarray,
                 t: Optional[float]) -> np.ndarray:
    """Sums of ``h K(x, y) f(y)`` over nodes, masking the diagonal.

    ``t = None`` keeps every node farther than a rounding tolerance
    (principal value); otherwise only nodes with ``|x - y| > t`` count.

    Two exact backends compute the same set of terms and differ only in
    summation order.  The Toeplitz FFT backend runs when the curve is
    flat or affine, all targets share one lattice of the grid (nodes or
    half-step midpoints, to rounding), no lattice offset ties the cut,
    and the FFT is cheaper than the dense sum; every other input goes to
    the dense backend, which is also the reference for the first.
    """
    cut = 0.5 * f.step * 1e-6 if t is None else t
    out = _toeplitz_sums(kernel.curve, f, xs, cut)
    if out is None:
        out = _dense_sums(kernel.curve, f, xs, cut)
    if kernel.include_prefactor:
        out /= math.pi * 1j
    return out


def _dense_sums(curve: LipschitzCurve, f: SampledFunction, xs: np.ndarray,
                cut: float) -> np.ndarray:
    """``h * sum K(x, y) f(y)`` over nodes with ``|y - x| > cut``, by chunks.

    Each chunk of the kernel matrix is built in real arithmetic,
    ``Re K = D / (D^2 + dA^2)`` and ``Im K = -dA / (D^2 + dA^2)``, and
    applied to the columns ``[Re f, Im f]`` by two real matrix products.
    """
    nodes = f.nodes
    V = np.stack([f.values.real, f.values.imag], axis=1)
    A_nodes = np.asarray(eval_A(curve, nodes), dtype=float)
    out = np.empty(xs.size, dtype=np.complex128)
    rows = max(1, _CHUNK_ELEMENTS // nodes.size)
    for lo in range(0, xs.size, rows):
        xc = xs[lo : lo + rows]
        A_x = np.asarray(eval_A(curve, xc), dtype=float)
        D = nodes - xc[:, None]
        dA = A_nodes - A_x[:, None]
        keep = np.abs(D) > cut
        inv = D * D
        inv += dA * dA
        np.divide(1.0, inv, out=inv, where=keep)
        inv *= keep
        D *= inv
        dA *= inv
        P = D @ V
        Q = dA @ V
        out.real[lo : lo + rows] = P[:, 0] + Q[:, 1]
        out.imag[lo : lo + rows] = P[:, 1] - Q[:, 0]
    out *= f.step
    return out


def _toeplitz_sums(curve: LipschitzCurve, f: SampledFunction, xs: np.ndarray,
                   cut: float) -> Optional[np.ndarray]:
    """The sums of ``_dense_sums`` by one FFT correlation, or None.

    On a flat graph a target ``x = origin + (k + par/2) h`` on the node
    (``par = 0``) or midpoint (``par = 1``) lattice sees the node ``j``
    at offset ``(j - k - par/2) h``, so the kernel matrix is Toeplitz:
    ``f`` is correlated with ``1 / (d - par/2)`` over the kept offsets.
    An affine graph of slope ``s`` multiplies the flat kernel by
    ``1 / (1 + i s)``.  ``Re f`` and ``Im f`` go through real FFTs, so a
    real ``f`` on a flat graph gives an exactly real result.

    Returns None, leaving the input to the dense backend, when the curve
    is curved, the targets are empty, mixed or off-lattice, a lattice
    offset lies within rounding of ``cut`` (where the dense float
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
    # Offset of node j from target k_hi - r is (j + r - k_hi - par/2) h.
    m = np.arange(width) - (k_hi + 0.5 * par)
    keep = np.abs(m) * h > cut
    if np.any(np.abs(np.abs(m) * h - cut) <= 2.0 * tol):
        return None
    kern = np.zeros(width)
    np.divide(1.0, m, out=kern, where=keep)
    kern_hat = np.fft.rfft(kern, size)

    def correlate(v: np.ndarray) -> np.ndarray:
        c = np.fft.irfft(np.conj(np.fft.rfft(v, size)) * kern_hat, size)
        return c[k_hi - k]

    out = np.zeros(xs.size, dtype=np.complex128)
    out.real = correlate(f.values.real)
    if np.any(f.values.imag):
        out.imag = correlate(f.values.imag)
    return out * factor


def apply_on_window(kernel: CauchyKernel, f: SampledFunction, cfg: EvalConfig) -> SampledFunction:
    """Operator output on the midpoint lattice of the input grid.

    The true output has unbounded support, so the caller declares the
    window; half-step evaluation points guarantee no collision with the
    quadrature nodes.
    """
    cfg.pv_for(f)  # validates step compatibility
    xs = f.midpoints_in(cfg.window)
    if xs.size == 0:
        raise InputError("evaluation window contains no midpoint-lattice points")
    vals = pv_values(kernel, f, xs)
    return SampledFunction(float(xs[0]), f.step, vals)


def operator_norm_lower(kernel: CauchyKernel, p: float,
                        family: Sequence[SampledFunction], cfg: EvalConfig) -> float:
    """Largest Rayleigh ratio ``|C f|_p / |f|_p`` over the family.

    A lower bound for the operator norm only: the family is finite and
    the output is truncated to the window.
    """
    if len(family) == 0:
        raise InputError("family must be non-empty")
    best = 0.0
    for f in family:
        denom = lp_norm(f, p)
        if denom == 0.0:
            raise InputError("family member has zero norm")
        out = apply_on_window(kernel, f, cfg)
        best = max(best, lp_norm(out, p) / denom)
    return best

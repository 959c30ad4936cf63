"""Uniform grids, sampled functions, intervals, and L^p norms.

Everything downstream (singular quadrature, oscillation sweeps,
compactness diagnostics) works on one substrate: complex values on a
uniform grid, integrated with the midpoint rule.  Grids are uniform on
purpose, and shifts are restricted to whole grid steps, so translation
and equicontinuity tests carry no interpolation error.

Conventions
-----------
* An interval ``I(x, r)`` is the open interval ``(x - r, x + r)`` with
  measure ``2 r``.  Dilation scales the radius and keeps the center.
* A sampled function stores node values at ``origin + i * step``.  The
  midpoint rule reads the value on node ``i`` as the constant value of
  the cell of width ``step`` centered at that node.
* ``sample`` builds a cell-centered grid on ``[a, b]``, which makes the
  node sum the classical midpoint rule for ``\\int_a^b`` and keeps round
  endpoints off the node lattice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import GridAlignmentError, InputError

# Fraction of one step within which a coordinate counts as on-lattice.
ALIGNMENT_TOL = 1e-6


@dataclass(frozen=True)
class Interval:
    """Open interval ``(center - radius, center + radius)``."""

    center: float
    radius: float

    def __post_init__(self):
        if not (math.isfinite(self.center) and math.isfinite(self.radius)):
            raise InputError("interval center and radius must be finite")
        if not self.radius > 0:
            raise InputError(f"interval radius must be positive, got {self.radius}")

    @staticmethod
    def from_endpoints(lower: float, upper: float) -> "Interval":
        if not upper > lower:
            raise InputError(f"need upper > lower, got [{lower}, {upper}]")
        return Interval(0.5 * (lower + upper), 0.5 * (upper - lower))

    @property
    def lower(self) -> float:
        return self.center - self.radius

    @property
    def upper(self) -> float:
        return self.center + self.radius

    @property
    def measure(self) -> float:
        return 2.0 * self.radius

    def dilate(self, k: float) -> "Interval":
        """``k I = I(center, k * radius)``; requires ``k > 0``."""
        if not k > 0:
            raise InputError(f"dilation factor must be positive, got {k}")
        return Interval(self.center, k * self.radius)

    def translate(self, y: float) -> "Interval":
        return Interval(self.center + y, self.radius)

    def contains(self, x):
        """Elementwise open-interval membership test."""
        x = np.asarray(x)
        return (x > self.lower) & (x < self.upper)

    def is_disjoint_from(self, other: "Interval") -> bool:
        return self.upper <= other.lower or other.upper <= self.lower


@dataclass(frozen=True)
class Annulus:
    """Right-hand dyadic annulus of a base interval.

    For base ``I(x, r)`` and level ``k`` this is the set
    ``(x + 2^k r, x + 2^(k+1) r)``, sitting at dyadic distance from the
    base.  Decay reports for the commutator are measured on these sets.
    """

    base: Interval
    k: int

    def __post_init__(self):
        if self.k < 1:
            raise InputError(f"annulus level must be >= 1, got {self.k}")

    @property
    def as_interval(self) -> Interval:
        r = self.base.radius
        lo = self.base.center + (2.0**self.k) * r
        hi = self.base.center + (2.0 ** (self.k + 1)) * r
        return Interval.from_endpoints(lo, hi)

    @property
    def measure(self) -> float:
        return (2.0**self.k) * self.base.radius


@dataclass(frozen=True)
class SampledFunction:
    """Complex values on the uniform grid ``origin + i * step``.

    ``source``, when present, is the callable the samples were drawn
    from; it lets consumers evaluate the same function off this grid
    (refined lattices, midpoints) without interpolation.  Derived
    functions generally drop it.
    """

    origin: float
    step: float
    values: np.ndarray
    source: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __post_init__(self):
        if not (np.isfinite(self.origin) and np.isfinite(self.step)):
            raise InputError("grid origin and step must be finite")
        if not self.step > 0:
            raise InputError(f"grid step must be positive, got {self.step}")
        vals = np.asarray(self.values, dtype=np.complex128)
        if vals.ndim != 1 or vals.size == 0:
            raise InputError("values must be a non-empty 1-d sequence")
        if not np.all(np.isfinite(vals.real)) or not np.all(np.isfinite(vals.imag)):
            raise InputError("all sampled values must be finite")
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def count(self) -> int:
        return self.values.size

    @property
    def nodes(self) -> np.ndarray:
        return self.origin + self.step * np.arange(self.count)

    @property
    def lower(self) -> float:
        return self.origin

    @property
    def upper(self) -> float:
        return self.origin + self.step * (self.count - 1)

    def node_mask(self, domain: Interval) -> np.ndarray:
        return domain.contains(self.nodes)

    def real_values(self) -> np.ndarray:
        """Real parts; rejects imaginary parts above ``1e-12`` of ``max(|f|, 1)``."""
        scale = max(float(np.max(np.abs(self.values))), 1.0)
        if np.any(np.abs(self.values.imag) > 1e-12 * scale):
            raise InputError("operation requires a real-valued function")
        return self.values.real

    def with_values(self, values) -> "SampledFunction":
        """Same grid, new values, no source callable."""
        return SampledFunction(self.origin, self.step, values)

    def scaled(self, factor: complex) -> "SampledFunction":
        """Scalar multiple; keeps the source callable consistent."""
        src = None
        if self.source is not None:
            base = self.source
            src = lambda x, _b=base, _f=factor: _f * np.asarray(_b(x))
        return SampledFunction(self.origin, self.step, factor * self.values, src)

    def same_grid_as(self, other: "SampledFunction") -> bool:
        """Same count, and origin and step equal to ``1e-12`` relative."""
        scale = max(abs(self.origin), abs(other.origin), self.step)
        return (
            self.count == other.count
            and abs(self.origin - other.origin) <= 1e-12 * max(scale, 1.0)
            and abs(self.step - other.step) <= 1e-12 * self.step
        )

    def midpoints_in(self, window: Interval) -> np.ndarray:
        """Half-step lattice points ``origin + (i + 1/2) step`` inside window.

        The lattice extends beyond the sampled range; callers use it to
        evaluate operators at points that can never collide with a node.
        """
        h = self.step
        i_lo = math.ceil((window.lower - self.origin) / h - 0.5)
        i_hi = math.floor((window.upper - self.origin) / h - 0.5)
        if i_hi < i_lo:
            return np.empty(0, dtype=float)
        return self.origin + (np.arange(i_lo, i_hi + 1) + 0.5) * h

    def value_at(self, xs) -> np.ndarray:
        """Evaluate at arbitrary points.

        Uses ``source`` when available.  Otherwise points must lie inside
        the sampled range; on-node points return the node value and
        off-node points return the mean of the two bracketing nodes (the
        cell-boundary value consistent with the midpoint rule).
        """
        xs = np.atleast_1d(np.asarray(xs, dtype=float))
        if self.source is not None:
            out = np.asarray(self.source(xs), dtype=np.complex128)
            return out
        h = self.step
        s = (xs - self.origin) / h
        if np.any(s < -ALIGNMENT_TOL) or np.any(s > self.count - 1 + ALIGNMENT_TOL):
            raise InputError(
                "point outside the sampled range and the function has no "
                "source callable; resample on a wider grid"
            )
        idx = np.clip(np.floor(s).astype(int), 0, self.count - 1)
        frac = s - idx
        on_node = frac < ALIGNMENT_TOL
        at_next = frac > 1.0 - ALIGNMENT_TOL
        idx_hi = np.clip(idx + 1, 0, self.count - 1)
        out = 0.5 * (self.values[idx] + self.values[idx_hi])
        out = np.where(on_node, self.values[idx], out)
        out = np.where(at_next, self.values[idx_hi], out)
        return out


def sample(fn: Callable[[np.ndarray], np.ndarray], lower: float, upper: float,
           count: int) -> SampledFunction:
    """Sample ``fn`` on the cell-centered grid of ``count`` cells over [lower, upper]."""
    if not upper > lower:
        raise InputError(f"need upper > lower, got [{lower}, {upper}]")
    if count < 1:
        raise InputError("need at least one cell")
    h = (upper - lower) / count
    nodes = lower + (np.arange(count) + 0.5) * h
    return SampledFunction(lower + 0.5 * h, h, fn(nodes), source=fn)


def sample_on(fn: Callable[[np.ndarray], np.ndarray], origin: float, step: float,
              count: int) -> SampledFunction:
    """Sample ``fn`` on an explicit grid ``origin + i * step``."""
    nodes = origin + step * np.arange(count)
    return SampledFunction(origin, step, fn(nodes), source=fn)


def _lp(values: np.ndarray, step: float, p: float) -> float:
    """``(step * sum |values|^p)^(1/p)``; 0.0 for no values."""
    return float((step * np.sum(np.abs(values) ** p)) ** (1.0 / p))


def lp_norm(f: SampledFunction, p: float) -> float:
    """Midpoint-rule ``L^p`` norm ``(step * sum |f|^p)^(1/p)`` over every node."""
    if not (p > 1 and np.isfinite(p)):
        raise InputError(f"p must lie in (1, inf), got {p}")
    return _lp(f.values, f.step, p)


def shift(f: SampledFunction, z: float) -> SampledFunction:
    """Translate: returns g with ``g(x) = f(x + z)``, zero-extended.

    ``z`` must be a whole number of grid steps so the result is exact.
    """
    k_real = z / f.step
    k = round(k_real)
    if abs(k_real - k) > ALIGNMENT_TOL:
        raise GridAlignmentError(
            f"shift {z} is not an integer multiple of the step {f.step}; "
            "regrid the function or choose z = k * step"
        )
    out = np.zeros(f.count, dtype=np.complex128)
    if k >= 0:
        if k < f.count:
            out[: f.count - k] = f.values[k:]
    else:
        if -k < f.count:
            out[-k:] = f.values[: f.count + k]
    src = None
    if f.source is not None:
        base = f.source
        src = lambda x, _b=base, _z=z: _b(np.asarray(x) + _z)
    return SampledFunction(f.origin, f.step, out, src)


def function_to_csv(f: SampledFunction, path) -> None:
    """Write columns x, re, im (one row per node)."""
    with open(path, "w", newline="") as fh:
        fh.write("x,re,im\n")
        for x, v in zip(f.nodes, f.values):
            fh.write(f"{float(x)!r},{float(v.real)!r},{float(v.imag)!r}\n")


def function_from_csv(path) -> SampledFunction:
    """Read a function written by :func:`function_to_csv`; the grid must be uniform."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if data.shape[1] != 3:
        raise InputError(f"{path}: expected columns x, re, im")
    xs = data[:, 0]
    if xs.size < 2:
        raise InputError(f"{path}: need at least two rows to infer the step")
    steps = np.diff(xs)
    h = float(np.mean(steps))
    if h <= 0 or np.max(np.abs(steps - h)) > 1e-9 * h:
        raise InputError(f"{path}: grid is not uniform")
    return SampledFunction(float(xs[0]), h, data[:, 1] + 1j * data[:, 2])

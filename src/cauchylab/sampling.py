"""Uniform grids, sampled functions, intervals, and L^p norms.

Everything downstream (singular quadrature, oscillation sweeps,
compactness diagnostics) works on one substrate: real (float64) or
complex (complex128) values on a uniform grid, integrated with the
midpoint rule; real data stays real.  Grids are uniform on purpose, and
shifts are restricted to whole grid steps, so translation and
equicontinuity tests carry no interpolation error.

Conventions
-----------
* An interval ``I(x, r)`` is the open interval ``(x - r, x + r)`` with
  measure ``2 r``.  Dilation scales the radius and keeps the center.
* The nodes an interval holds are decided in one place,
  ``SampledFunction.node_bounds``: the nodes strictly inside it, where an
  endpoint within ``ALIGNMENT_TOL`` steps of a node snaps onto that node.
  So the interval from node ``a`` to node ``a + w`` holds exactly the
  ``w - 1`` interior nodes however its endpoints rounded.  Oscillations,
  medians, test-function split sets and support checks all take their
  nodes from it.
* A sampled function stores node values at ``origin + i * step``.  The
  midpoint rule reads the value on node ``i`` as the constant value of
  the cell of width ``step`` centered at that node.
* ``sample`` builds a cell-centered grid on ``[a, b]``, which makes the
  node sum the classical midpoint rule for ``\\int_a^b`` and keeps round
  endpoints off the node lattice.

Blocks
------
A sampled function holds either one function, with ``values`` of shape
``(n,)``, or a block of ``c`` functions on one grid, with ``values`` of
shape ``(n, c)`` and one column per function; ``count`` is ``n`` either
way.  ``stack`` builds a block from a family; column ``j`` is
``values[:, j]``.
The operators apply to a whole block at once (see ``operator``), which
is how a family of test functions shares one kernel matrix.  Operations
that make sense for one function only (``real_values``, ``value_at`` and
every oscillation in ``bmo``) raise ``InputError`` on a block; ``lp_norm``
and ``shift`` work column by column.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple, Union

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

    def is_disjoint_from(self, other: "Interval") -> bool:
        return self.upper <= other.lower or other.upper <= self.lower


@dataclass(frozen=True)
class SampledFunction:
    """Real or complex values on the uniform grid ``origin + i * step``.

    ``values`` has shape ``(n,)`` for one function or ``(n, c)`` for a
    block of ``c`` functions on the same ``n`` nodes, stored as a read-only
    copy: float64 for real input (integers and booleans included) and
    complex128 for complex input.  ``source``, when present, is the
    callable the samples were drawn from; it lets consumers evaluate the
    same function off this grid (refined lattices, midpoints) without
    interpolation.  Derived functions generally drop it.
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
        vals = np.array(self.values, dtype=complex if np.iscomplexobj(self.values) else float)
        if vals.ndim not in (1, 2) or vals.size == 0:
            raise InputError("values must be a non-empty (n,) or (n, c) array")
        if not np.isfinite(vals).all():
            raise InputError("all sampled values must be finite")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def count(self) -> int:
        """Number of grid nodes ``n``, for one function and for a block."""
        return self.values.shape[0]

    def require_single(self, what: str) -> None:
        """Raise ``InputError`` when this is a block, naming the operation ``what``."""
        if self.values.ndim != 1:
            raise InputError(
                f"{what} takes one function, got a block of {self.values.shape[1]}; "
                "apply it to each of the block's columns"
            )

    @property
    def nodes(self) -> np.ndarray:
        return self.origin + self.step * np.arange(self.count)

    @property
    def lower(self) -> float:
        return self.origin

    @property
    def upper(self) -> float:
        return self.origin + self.step * (self.count - 1)

    def node_bounds(self, lowers, uppers) -> Tuple[np.ndarray, np.ndarray]:
        """Bounds ``lo, hi`` of the nodes strictly inside ``(lowers, uppers)``.

        The nodes are ``lo <= i < hi``; ``hi <= lo`` when the interval holds
        no node.  An endpoint within ``ALIGNMENT_TOL`` steps of a node snaps
        onto it.  The bounds are node counts found by index arithmetic on
        ``origin`` and ``step``, in time independent of the grid size: an
        endpoint ``s`` steps from the origin has ``floor(s) + 1`` nodes at or
        below it, and one that snaps onto node ``k`` has ``k + 1`` at or
        below it and ``k`` strictly below.  Works elementwise on arrays of
        endpoints.
        """
        def nodes_below(x, snapped_count):
            s = (np.asarray(x, dtype=float) - self.origin) / self.step
            k = np.rint(s)
            below = np.where(np.abs(s - k) <= ALIGNMENT_TOL, k + snapped_count,
                             np.floor(s) + 1)
            return np.clip(below, 0, self.count).astype(np.int64)

        # Nodes at or below the lower endpoint, and strictly below the upper.
        return nodes_below(lowers, 1), nodes_below(uppers, 0)

    def node_mask(self, domain: Interval) -> np.ndarray:
        """The nodes ``domain`` holds (``node_bounds``) as a boolean mask."""
        lo, hi = self.node_bounds(domain.lower, domain.upper)
        mask = np.zeros(self.count, dtype=bool)
        mask[lo:hi] = True
        return mask

    def real_values(self) -> np.ndarray:
        """Real values as stored; complex ones are checked by ``_checked_real`` on every call."""
        self.require_single("real_values")
        if np.iscomplexobj(self.values):
            return _checked_real(self.values)
        return self.values

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
        cell-boundary value consistent with the midpoint rule).  A
        non-finite point raises ``InputError`` either way.
        """
        self.require_single("value_at")
        xs = _finite(np.atleast_1d(np.asarray(xs, dtype=float)), "evaluation point")
        if self.source is not None:
            return np.asarray(self.source(xs), dtype=np.complex128)
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


def _finite(values: np.ndarray, what: str) -> np.ndarray:
    """``values``; ``InputError`` names the first non-finite entry, as ``what``, and its index."""
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise InputError(f"{what} {values.flat[bad[0]]} at index {int(bad[0])} is not finite")
    return values


def _checked_real(values: np.ndarray) -> np.ndarray:
    """``values.real``, or ``InputError`` when an imaginary part exceeds ``1e-12`` of ``max(|v|, 1)``."""
    scale = max(float(np.max(np.abs(values))), 1.0)
    if np.any(np.abs(values.imag) > 1e-12 * scale):
        raise InputError("operation requires a real-valued function")
    return values.real


def _cell_centres(lower: float, width: float, count: int) -> Tuple[np.ndarray, float]:
    """Centres of the ``count`` equal cells of ``[lower, lower + width]``, and the cell width.

    ``InputError`` unless ``count`` is a whole number of at least 1.
    """
    if count < 1:
        raise InputError("need at least one cell")
    if not float(count).is_integer():
        raise InputError(f"need a whole number of cells, got {count}")
    h = width / count
    return lower + (np.arange(count) + 0.5) * h, h


def sample(fn: Callable[[np.ndarray], np.ndarray], lower: float, upper: float,
           count: int) -> SampledFunction:
    """Sample ``fn`` on the cell-centered grid of ``count`` cells over [lower, upper]."""
    if not upper > lower:
        raise InputError(f"need upper > lower, got [{lower}, {upper}]")
    nodes, h = _cell_centres(lower, upper - lower, count)
    return SampledFunction(lower + 0.5 * h, h, fn(nodes), source=fn)


def sample_on(fn: Callable[[np.ndarray], np.ndarray], origin: float, step: float,
              count: int) -> SampledFunction:
    """Sample ``fn`` on an explicit grid ``origin + i * step``."""
    nodes = origin + step * np.arange(count)
    return SampledFunction(origin, step, fn(nodes), source=fn)


def stack(functions: Sequence[SampledFunction]) -> SampledFunction:
    """The block whose columns are ``functions``, which must share one grid."""
    if len(functions) == 0:
        raise InputError("need at least one function to stack")
    first = functions[0]
    for g in functions:
        g.require_single("stack")
        if not first.same_grid_as(g):
            raise InputError("stacked functions must share one grid (origin, step, count)")
    return first.with_values(np.stack([g.values for g in functions], axis=1))


def _rowwise(u, values: np.ndarray) -> np.ndarray:
    """``u[i] * values[i]``: a pointwise product with one column or each column of a block."""
    u = np.asarray(u)
    return u.reshape(u.shape + (1,) * (values.ndim - u.ndim)) * values


def _require_p(p: float) -> None:
    """Refuse an exponent ``p`` outside ``(1, inf)``."""
    if not (p > 1 and np.isfinite(p)):
        raise InputError(f"p must lie in (1, inf), got {p}")


def _lp(values: np.ndarray, step: float, p: float) -> float:
    """``(step * sum |values|^p)^(1/p)``; 0.0 for no values."""
    return float((step * np.sum(np.abs(values) ** p)) ** (1.0 / p))


def lp_norm(f: SampledFunction, p: float) -> Union[float, np.ndarray]:
    """Midpoint-rule ``L^p`` norm ``(step * sum |f|^p)^(1/p)`` over every node.

    A float for one function; for a block, an array with one norm per
    column, each summed exactly as for that column alone.
    """
    _require_p(p)
    if f.values.ndim == 1:
        return _lp(f.values, f.step, p)
    return np.array([_lp(v, f.step, p) for v in f.values.T])


def shift(f: SampledFunction, z: float) -> SampledFunction:
    """Translate: returns g with ``g(x) = f(x + z)``, zero-extended.

    ``z`` must be a whole number of grid steps so the result is exact.
    A block shifts column by column.  The result keeps the dtype of ``f``
    and has no source callable.
    """
    k_real = z / f.step
    if not np.isfinite(k_real) or abs(k_real - round(k_real)) > ALIGNMENT_TOL:
        raise GridAlignmentError(
            f"shift {z} is not an integer multiple of the step {f.step}; "
            "regrid the function or choose z = k * step"
        )
    k = round(k_real)
    out = np.zeros_like(f.values)
    if k >= 0:
        if k < f.count:
            out[: f.count - k] = f.values[k:]
    else:
        if -k < f.count:
            out[-k:] = f.values[: f.count + k]
    return f.with_values(out)


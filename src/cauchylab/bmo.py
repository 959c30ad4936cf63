"""Mean oscillation, BMO norm sweeps, medians, and vanishing-oscillation profiles.

All integrals are midpoint-rule node averages, so the average of a
constant is that constant exactly.  Supremum-type quantities (the BMO
norm, the three oscillation-limit profiles) are taken over a finite
interval family and are therefore lower bounds for the true suprema;
the default family is every interval with grid-node endpoints and a
dyadic length, which keeps the candidate count at O(N log N).

Sweeps and oscillation tables are array-backed: ``dyadic_sweep`` returns
an :class:`IntervalSweep` of center and radius arrays and
``oscillation_table`` an :class:`OscillationTable` that adds the
oscillation array.  Both behave as read-only sequences whose rows are
materialized as ``Interval`` objects only on access, and both expose
``measures``, ``lowers`` and ``uppers`` arrays for bulk filtering.  The
sliding windows of one dyadic level are reduced in cache-sized blocks
(``_CHUNK_ELEMENTS``), row by row, so the block size never changes a
result.

The median of ``f`` over ``I`` is the smallest node value ``a`` such that
both level sets ``{f > a}`` and ``{f < a}`` occupy at most half of the
nodes in ``I``.  That choice is deterministic, is an exact minimizer of
the node-mean absolute deviation, and keeps the balancing constant of
the oscillation-split family at most one half in modulus.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from operator import index
from typing import List, Tuple

import numpy as np

from .errors import InputError
from .sampling import ALIGNMENT_TOL, Interval, SampledFunction

# Cap on elements per sliding-window block in oscillation sweeps: 32768
# float64s is 256 KiB, so a block and its deviation buffer stay in cache.
_CHUNK_ELEMENTS = 32_768


@dataclass(frozen=True)
class MedianResult:
    """A median value plus its two half-measure certificates."""

    value: float
    upper_excess: float  # fraction of I where f > value
    lower_excess: float  # fraction of I where f < value


@dataclass(frozen=True)
class VmoProfile:
    """Oscillation suprema along the three vanishing limits.

    ``small_scale`` is keyed by the length cap (oscillation over short
    intervals), ``large_scale`` by the length floor, and ``far_away`` by
    the radius of the excluded ball around the origin.  All values are
    finite-family lower bounds for the true suprema.
    """

    small_scale: Tuple[Tuple[float, float], ...]
    large_scale: Tuple[Tuple[float, float], ...]
    far_away: Tuple[Tuple[float, float], ...]


def _node_bounds(f: SampledFunction, lowers, uppers) -> Tuple[np.ndarray, np.ndarray]:
    """Bounds ``lo, hi`` of the nodes of ``f`` strictly inside ``(lowers, uppers)``.

    An endpoint within ``ALIGNMENT_TOL`` steps of a node snaps onto it,
    so the interval from node ``a`` to node ``a + w`` holds exactly the
    ``w - 1`` interior nodes however ``center +- radius`` rounded.  The
    bounds are node counts found by index arithmetic on ``origin`` and
    ``step``, in time independent of the grid size: an endpoint ``s``
    steps from the origin has ``floor(s) + 1`` nodes at or below it, and
    one that snaps onto node ``k`` has ``k + 1`` at or below it and ``k``
    strictly below.  Works elementwise on arrays of intervals.
    """
    def nodes_below(x, snapped_count):
        s = (np.asarray(x, dtype=float) - f.origin) / f.step
        k = np.rint(s)
        below = np.where(np.abs(s - k) <= ALIGNMENT_TOL, k + snapped_count, np.floor(s) + 1)
        return np.clip(below, 0, f.count).astype(np.int64)

    lo = nodes_below(lowers, 1)  # nodes at or below the lower endpoint
    hi = nodes_below(uppers, 0)  # nodes strictly below the upper endpoint
    if np.any(hi <= lo):
        raise InputError("interval does not intersect the grid")
    return lo, hi


def _real_on(f: SampledFunction, domain: Interval) -> np.ndarray:
    vals = f.real_values()
    lo, hi = _node_bounds(f, domain.lower, domain.upper)
    return vals[lo:hi]


def _oscillation(vals: np.ndarray) -> float:
    return float(np.mean(np.abs(vals - vals.mean())))


def average(f: SampledFunction, domain: Interval) -> float:
    """Node-mean of ``f`` over the interval (midpoint rule for the average)."""
    return float(np.mean(_real_on(f, domain)))


def mean_oscillation(f: SampledFunction, domain: Interval) -> float:
    """Mean deviation from the interval average, ``M(f, I)``."""
    return _oscillation(_real_on(f, domain))


def bmo_norm(f: SampledFunction, sweep: Sequence[Interval]) -> float:
    """Largest mean oscillation over the sweep; a lower bound for the sup."""
    if len(sweep) == 0:
        raise InputError("sweep must be non-empty")
    vals = f.real_values()
    if not isinstance(sweep, IntervalSweep):
        sweep = IntervalSweep(np.array([I.center for I in sweep]),
                              np.array([I.radius for I in sweep]))
    lo, hi = _node_bounds(f, sweep.lowers, sweep.uppers)
    return max(_oscillation(vals[a:b]) for a, b in zip(lo.tolist(), hi.tolist()))


def median(f: SampledFunction, domain: Interval) -> MedianResult:
    """Smallest admissible median node value with its excess fractions."""
    vals = _real_on(f, domain)
    n = vals.size
    ordered = np.sort(vals)
    value = float(ordered[(n - 1) // 2])
    upper = float(np.sum(vals > value)) / n
    lower = float(np.sum(vals < value)) / n
    return MedianResult(value=value, upper_excess=upper, lower_excess=lower)


def mean_deviation(f: SampledFunction, domain: Interval, center: float) -> float:
    """Node-mean of ``|f - center|`` over the interval."""
    vals = _real_on(f, domain)
    return float(np.mean(np.abs(vals - center)))


@dataclass(frozen=True, eq=False)
class IntervalSweep(Sequence):
    """Intervals ``I(centers[k], radii[k])`` held as arrays.

    Behaves as a ``Sequence[Interval]``: indexing materializes one
    :class:`Interval`, slicing returns another sweep.
    """

    centers: np.ndarray
    radii: np.ndarray

    @property
    def lowers(self) -> np.ndarray:
        return self.centers - self.radii

    @property
    def uppers(self) -> np.ndarray:
        return self.centers + self.radii

    @property
    def measures(self) -> np.ndarray:
        return 2.0 * self.radii

    def __len__(self) -> int:
        return self.centers.size

    def __getitem__(self, k):
        if isinstance(k, slice):
            return IntervalSweep(self.centers[k], self.radii[k])
        k = index(k)
        return Interval(float(self.centers[k]), float(self.radii[k]))

    def __iter__(self) -> Iterator[Interval]:
        return map(Interval, map(float, self.centers), map(float, self.radii))


@dataclass(frozen=True, eq=False)
class OscillationTable(Sequence):
    """Sweep intervals with their mean oscillations ``oscs``, held as arrays.

    Behaves as a ``Sequence[Tuple[Interval, float]]``: indexing
    materializes one ``(Interval, float)`` row, slicing returns another
    table.
    """

    intervals: IntervalSweep
    oscs: np.ndarray

    @property
    def lowers(self) -> np.ndarray:
        return self.intervals.lowers

    @property
    def uppers(self) -> np.ndarray:
        return self.intervals.uppers

    @property
    def measures(self) -> np.ndarray:
        return self.intervals.measures

    def __len__(self) -> int:
        return self.oscs.size

    def __getitem__(self, k):
        if isinstance(k, slice):
            return OscillationTable(self.intervals[k], self.oscs[k])
        k = index(k)
        return self.intervals[k], float(self.oscs[k])

    def __iter__(self) -> Iterator[Tuple[Interval, float]]:
        return zip(self.intervals, map(float, self.oscs))


def _levels(nodes: np.ndarray, step: float) -> Iterator[Tuple[int, np.ndarray, float]]:
    """``(w, centers, radius)`` per dyadic level, shortest first.

    Level ``w`` holds the intervals from node ``a`` to node ``a + w``
    for every ``a``, each of length ``w * step``.
    """
    n = nodes.size
    w = 2
    while w <= n - 1:
        yield w, 0.5 * (nodes[: n - w] + nodes[w:]), 0.5 * w * step
        w *= 2


def _sweep(levels: List[Tuple[int, np.ndarray, float]]) -> IntervalSweep:
    if not levels:
        raise InputError("grid too short for a dyadic interval sweep")
    return IntervalSweep(
        np.concatenate([c for _, c, _ in levels]),
        np.concatenate([np.full(c.size, r) for _, c, r in levels]),
    )


def _level_oscillations(vals: np.ndarray, w: int) -> np.ndarray:
    """Mean oscillation over the ``w - 1`` interior nodes of each level-``w`` interval.

    Rows are reduced in cache-sized blocks of at most ``_CHUNK_ELEMENTS``
    elements (one row when a row is longer) through one reused buffer;
    each row is reduced alone, so the block size never changes a result.
    """
    width = w - 1
    starts = vals.size - w
    view = np.lib.stride_tricks.sliding_window_view(vals, width)[1 : starts + 1]
    oscs = np.empty(starts)
    rows = max(1, _CHUNK_ELEMENTS // width)
    buf = np.empty(min(rows, starts) * width)
    for lo in range(0, starts, rows):
        block = view[lo : lo + rows]
        dev = buf[: block.size].reshape(block.shape)
        np.subtract(block, block.mean(axis=1)[:, None], out=dev)
        np.abs(dev, out=dev)
        dev.mean(axis=1, out=oscs[lo : lo + rows])
    return oscs


def dyadic_sweep(f: SampledFunction) -> IntervalSweep:
    """Every interval with grid-node endpoints and dyadic length.

    Lengths are ``step * 2^m`` for ``m >= 1``; endpoints sit on nodes, so
    each interval holds ``2^m - 1`` interior nodes.
    """
    return _sweep(list(_levels(f.nodes, f.step)))


def oscillation_table(f: SampledFunction) -> OscillationTable:
    """Mean oscillation of every dyadic-sweep interval, computed in bulk.

    Each row reduces the interior nodes between its two endpoint nodes,
    which is :func:`mean_oscillation` of its interval; the sliding
    windows of one dyadic level are evaluated together.
    """
    vals = f.real_values()
    levels = list(_levels(f.nodes, f.step))
    sweep = _sweep(levels)
    return OscillationTable(
        sweep, np.concatenate([_level_oscillations(vals, w) for w, _, _ in levels])
    )


def vmo_profile(f: SampledFunction, delta_ladder: Sequence[float],
                R_ladder: Sequence[float]) -> VmoProfile:
    """Oscillation suprema along the three vanishing-oscillation limits.

    For each length cap in ``delta_ladder``: the sup of ``M(f, I)`` over
    sweep intervals with ``|I| < delta``.  For each ``R`` in ``R_ladder``:
    the sup over ``|I| > R``, and the sup over intervals disjoint from
    ``I(0, R)``.  Empty families yield zero.
    """
    deltas = [float(d) for d in delta_ladder]
    Rs = [float(R) for R in R_ladder]
    if not deltas or not Rs:
        raise InputError("ladders must be non-empty")
    if any(d <= 0 for d in deltas) or any(R <= 0 for R in Rs):
        raise InputError("ladder entries must be positive")
    table = oscillation_table(f)
    measures, lowers, uppers, oscs = table.measures, table.lowers, table.uppers, table.oscs

    def sup_where(mask: np.ndarray) -> float:
        return float(oscs[mask].max()) if np.any(mask) else 0.0

    small = tuple((d, sup_where(measures < d)) for d in sorted(deltas))
    large = tuple((R, sup_where(measures > R)) for R in sorted(Rs))
    far = tuple(
        (R, sup_where((lowers >= R) | (uppers <= -R))) for R in sorted(Rs)
    )
    return VmoProfile(small_scale=small, large_scale=large, far_away=far)

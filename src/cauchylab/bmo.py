"""Mean oscillation, BMO norm sweeps, medians, and vanishing-oscillation profiles.

All integrals are midpoint-rule node averages.  The average of a
constant is that constant only to rounding (``np.mean([0.1] * 3)`` is
``0.10000000000000002``), so a row of one repeated value can show an
oscillation of a few ulps.  Supremum-type quantities (the BMO norm, the
three oscillation-limit profiles) are taken over a finite interval
family and are therefore lower bounds for the true suprema; the default
family is every interval with grid-node endpoints and a dyadic length,
which keeps the candidate count at O(N log N).

Sweeps and oscillation tables are array-backed: ``dyadic_sweep`` returns
an :class:`IntervalSweep` of center and radius arrays and
``oscillation_table`` an :class:`OscillationTable` that adds the
oscillation array.  Both behave as read-only sequences whose rows are
materialized as ``Interval`` objects only on access (by integer index or
iteration); the sweep exposes ``measures``, ``lowers`` and ``uppers``
arrays for bulk filtering.

Every average, oscillation and median here is over the nodes an interval
holds by ``SampledFunction.node_bounds``, the one node rule of the
library: an endpoint within ``ALIGNMENT_TOL`` steps of a node snaps onto
it, so a sweep interval between two nodes holds just their interior.

``oscillation_table`` reduces node rows ``f[lo:hi]`` through one
primitive, ``_range_oscillations``, which takes each row down one of two
paths.  A row of at most ``_DIRECT_WIDTH`` (256) nodes is
reduced node by node, rows of one width together in cache-sized blocks
(``_CHUNK_ELEMENTS``) but each row alone, so the block size never changes
a result and the row equals :func:`mean_oscillation` of its interval bit
for bit.  Wider rows take the rank path when ``_rank_pays``, an estimate
from the node count, the wide-row count, their total width and the number
of runs of one width that direct reduction would set up (each a
Python-level pass); otherwise they are reduced node by node too.  The
rank path uses ``sum |f - m| = (S - 2 S_) - m (k - 2 k_) = 2 (m k_ - S_)`` for a row of
``k`` nodes with sum ``S`` and mean ``m``, where ``k_`` and ``S_`` count
and sum its values below ``m``.  ``S`` adds one pairwise sum over a dyadic
window per set bit of ``k``, the windows starting at every node and built
in O(N) per level; a merge-sort tree over aligned dyadic blocks, built in
O(N log^2 N), answers ``k_`` and ``S_`` in O(log^2 N) per row, so the
O(N log N) rows of a table on ``N`` nodes cost O(N log^3 N) instead of
O(N^2).  Every term summed lies in the row.  A rank-path row agrees with
``mean_oscillation`` only to rounding: within ``3e-14 (|M| + mean |f|)``,
the mean taken over the row, in every case measured up to 65536 nodes
(offset, noisy, tied and log inputs; at most 2.5e-14, on log inputs at
65536 nodes, below 6e-15 up to 16384 nodes, and the median row within
2 ulps of that scale).

``bmo_norm`` and ``vmo_profile`` want only suprema, which ``_suprema``
finds without evaluating every row.  Each row gets the bound ``(max -
min) / 2`` of its oscillation, read from two overlapping dyadic max/min
windows, plus ``1e-12 max |f|`` (``_BOUND_SLACK``) when it holds more than
one value, which covers the rounding of either path; a row holding one
value counts as exactly 0.  A family's threshold is ``1 - 1e-12`` times
the largest direct oscillation of its largest-bound row in each width
run, and only the rows above the threshold of a family that holds them
are evaluated, by ``_range_oscillations`` with the path rule of the whole
row set.  Each supremum therefore equals the largest table value over its
family bit for bit, except that a row holding one value counts as 0.

``length_suprema`` builds the ``bmo-norm`` report from one such family per
dyadic length.  Each length reports, of its rows within ``TIE_RTOL`` of its
supremum (all of them evaluated, since each bound exceeds its threshold),
the one with the smallest center and that row's oscillation, so mirror rows
that tie in exact arithmetic report the same row whatever the rounding.  A
row holding one value counts as 0 there too: a constant symbol reports 0.

The median of ``f`` over ``I`` is the smallest node value ``a`` such that
both level sets ``{f > a}`` and ``{f < a}`` occupy at most half of the
nodes in ``I``.  That choice is deterministic, is an exact minimizer of
the node-mean absolute deviation, and keeps the balancing constant of
the oscillation-split family at most one half in modulus.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass, fields
from operator import index
from typing import List, Tuple

import numpy as np

from .errors import InputError
from .reports import BoundReport
from .sampling import Interval, SampledFunction

# Cap on elements per sliding-window block in oscillation sweeps: 32768
# float64s is 256 KiB, so a block and its deviation buffer stay in cache.
_CHUNK_ELEMENTS = 32_768
# Rows of at most this many nodes are always reduced node by node.
_DIRECT_WIDTH = 256
# Direct element reductions that the rank path costs per node or row and per
# tree level, fitted on dyadic sweep tables, where the two paths cross near
# 1300 nodes.
_RANK_COST = 25
# Direct element reductions that one run of rows of one width costs in
# Python-level set-up (about 65 us against 3.2 ns per element, measured on
# 3000 rows of spread widths on 16384 nodes).
_RUN_COST = 20_000
# Rows per query batch of the rank path, which bounds its temporaries.
_QUERY_ROWS = 8192
# Slack of the oscillation bounds that prune supremum searches, relative to
# max |f|: far above the rounding of either path (the rank path's stated
# 3e-14 (|M| + mean |f|) is at most 6e-14 max |f|).
_BOUND_SLACK = 1e-12
# Relative band within which two rows of one length count as tied in the bmo_norm report.
TIE_RTOL = 1e-12


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

    def report(self) -> BoundReport:
        """The ``vmo_profile`` report: one ``limit, parameter, lhs`` row per supremum."""
        rows = [(field.name, par, sup) for field in fields(self)
                for par, sup in getattr(self, field.name)]
        limits, params, sups = map(np.asarray, zip(*rows))
        return BoundReport(
            inequality="oscillation suprema along the three vanishing limits (lower bounds)",
            columns={"limit": limits, "parameter": params, "lhs": sups},
            extras={},
        )


def _bounds_on_grid(f: SampledFunction, lowers, uppers) -> Tuple[np.ndarray, np.ndarray]:
    """``f.node_bounds``; ``InputError`` when an interval holds no node."""
    lo, hi = f.node_bounds(lowers, uppers)
    if np.any(hi <= lo):
        raise InputError("interval does not intersect the grid")
    return lo, hi


def _real_on(f: SampledFunction, domain: Interval) -> np.ndarray:
    vals = f.real_values()
    lo, hi = _bounds_on_grid(f, domain.lower, domain.upper)
    return vals[lo:hi]


def _oscillation(vals: np.ndarray) -> float:
    return float(np.mean(np.abs(vals - vals.mean())))


def mean_oscillation(f: SampledFunction, domain: Interval) -> float:
    """Mean deviation from the interval average, ``M(f, I)``."""
    return _oscillation(_real_on(f, domain))


def bmo_norm(f: SampledFunction, sweep: Sequence[Interval]) -> float:
    """Largest mean oscillation over the sweep; a lower bound for the sup.

    Equal, bit for bit, to the largest of the sweep's oscillations taken
    together as :func:`oscillation_table` takes its rows, except that an
    interval whose nodes hold one value counts as exactly 0.  Each interval
    gets the bound ``(max - min) / 2 + 1e-12 max |f|`` of its oscillation
    (exactly 0 for one value); the threshold is ``1 - 1e-12`` times the
    largest direct oscillation of the largest-bound interval of each width,
    and only the intervals whose bound exceeds it are evaluated (see
    ``_suprema``).
    """
    if len(sweep) == 0:
        raise InputError("sweep must be non-empty")
    if not isinstance(sweep, IntervalSweep):
        sweep = IntervalSweep(np.array([I.center for I in sweep]),
                              np.array([I.radius for I in sweep]))
    lo, hi = _bounds_on_grid(f, sweep.lowers, sweep.uppers)
    # The max is order-free; rows sorted by width make one run per width.
    order = np.argsort(hi - lo, kind="stable")
    everyone = np.ones((1, lo.size), dtype=bool)
    return float(_suprema(f.real_values(), lo[order], hi[order], everyone)[0][0])


def median(f: SampledFunction, domain: Interval) -> float:
    """Smallest admissible median node value: at most half the nodes lie on either side."""
    vals = np.sort(_real_on(f, domain))
    return float(vals[(vals.size - 1) // 2])


def mean_deviation(f: SampledFunction, domain: Interval, center: float) -> float:
    """Node-mean of ``|f - center|`` over the interval."""
    vals = _real_on(f, domain)
    return float(np.mean(np.abs(vals - center)))


@dataclass(frozen=True, eq=False)
class IntervalSweep(Sequence):
    """Intervals ``I(centers[k], radii[k])`` held as arrays.

    Behaves as a ``Sequence[Interval]``: indexing materializes one
    :class:`Interval`.
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

    def __getitem__(self, k) -> Interval:
        k = index(k)
        return Interval(float(self.centers[k]), float(self.radii[k]))

    def __iter__(self) -> Iterator[Interval]:
        return map(Interval, map(float, self.centers), map(float, self.radii))


@dataclass(frozen=True, eq=False)
class OscillationTable(Sequence):
    """Sweep intervals with their mean oscillations ``oscs``, held as arrays.

    Behaves as a ``Sequence[Tuple[Interval, float]]``: indexing
    materializes one ``(Interval, float)`` row.
    """

    intervals: IntervalSweep
    oscs: np.ndarray

    def __len__(self) -> int:
        return self.oscs.size

    def __getitem__(self, k) -> Tuple[Interval, float]:
        k = index(k)
        return self.intervals[k], float(self.oscs[k])

    def __iter__(self) -> Iterator[Tuple[Interval, float]]:
        return zip(self.intervals, map(float, self.oscs))


def _widths(n: int) -> List[int]:
    """Steps ``w = 2, 4, 8, ...`` of the dyadic levels on ``n`` nodes, up to ``n - 1``.

    Level ``w`` holds the intervals from node ``a`` to node ``a + w`` for
    every ``a``, each of length ``w * step``.
    """
    widths = [2**m for m in range(1, (n - 1).bit_length())]
    if not widths:
        raise InputError("grid too short for a dyadic interval sweep")
    return widths


def _rank_pays(n: int, rows: int, width: int, runs: int) -> bool:
    """Whether the rank path is estimated cheaper than direct reduction for
    ``rows`` rows of ``width`` nodes in all, on ``n`` nodes, which direct
    reduction takes in ``runs`` runs of one width."""
    return width + _RUN_COST * runs > _RANK_COST * n.bit_length() * (n + rows)


def _takes_rank(n: int, widths: np.ndarray) -> bool:
    """Whether rows of these widths (grouped by width), as one row set on
    ``n`` nodes, take the rank path for their rows wider than ``_DIRECT_WIDTH``."""
    widths = widths[widths > _DIRECT_WIDTH]
    return _rank_pays(n, widths.size, int(widths.sum()), len(_width_runs(widths)))


def _range_oscillations(vals: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                        rows: np.ndarray | None = None) -> np.ndarray:
    """Mean oscillation of ``vals[lo[r]:hi[r]]`` for each row ``r`` of ``rows``
    (ascending; every row by default).

    Rows of more than ``_DIRECT_WIDTH`` nodes take the rank path
    (:func:`_rank_oscillations`) when ``_rank_pays`` for the whole row set
    ``lo, hi`` together; the rest are reduced directly
    (:func:`_direct_oscillations`).  A row's value does not depend on the
    other rows evaluated with it, so the values of ``rows`` equal those of
    the whole set at ``rows`` bit for bit.
    """
    rank = _takes_rank(vals.size, hi - lo)
    if rows is not None:
        lo, hi = lo[rows], hi[rows]
    wide = hi - lo > _DIRECT_WIDTH
    if not (rank and wide.any()):
        return _direct_oscillations(vals, lo, hi)
    ranked = _rank_oscillations(vals, lo[wide], hi[wide])  # peaks before ``oscs`` exists
    oscs = np.empty(lo.size)
    oscs[wide] = ranked
    oscs[~wide] = _direct_oscillations(vals, lo[~wide], hi[~wide])
    return oscs


def _row_bounds(vals: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                runs: List[Tuple[int, int]]) -> np.ndarray:
    """An upper bound on the mean oscillation of each row ``vals[lo:hi]``.

    The bound is ``(max - min) / 2``, read for a row of ``k`` nodes from two
    overlapping windows of ``2^p <= k`` nodes, plus ``_BOUND_SLACK * max |f|``
    when the row holds more than one value; a row that holds one value gets
    exactly 0.  ``runs`` are the ``(first, stop)`` runs of rows of one width,
    in ascending width; the max and min windows of ``2^p`` nodes are built
    from those of ``2^(p-1)``, one level live at a time.
    """
    bounds = np.empty(lo.size)
    slack = _BOUND_SLACK * float(np.abs(vals).max())
    top = bottom = vals
    level = 0
    for first, stop in runs:
        p = int(hi[first] - lo[first]).bit_length() - 1
        for level in range(level + 1, p + 1):
            half = 1 << (level - 1)
            top = np.maximum(top[:-half], top[half:])
            bottom = np.minimum(bottom[:-half], bottom[half:])
        left, right = lo[first:stop], hi[first:stop] - (1 << p)
        spread = np.maximum(top[left], top[right])
        spread -= np.minimum(bottom[left], bottom[right])
        out = bounds[first:stop]
        np.multiply(spread, 0.5, out=out)
        out[spread > 0] += slack
    return bounds


def _width_runs(widths: np.ndarray) -> List[Tuple[int, int]]:
    """``(first, stop)`` of each run of consecutive rows of one width."""
    if not widths.size:
        return []
    edges = [0, *(np.flatnonzero(widths[1:] != widths[:-1]) + 1).tolist(), widths.size]
    return list(zip(edges[:-1], edges[1:]))


def _suprema(vals: np.ndarray, lo: np.ndarray, hi: np.ndarray,
             member: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Largest mean oscillation of the rows ``vals[lo:hi]`` in each family,
    as ``_range_oscillations`` of all the rows gives it, bit for bit, with
    the rows evaluated (ascending) and their oscillations.

    Family ``i`` holds the rows ``r`` with ``member[i, r]``; the rows come
    in runs of one width, in ascending width.  Each row gets the bound of
    :func:`_row_bounds`, which covers its value on either path.  In each
    width run, each family's largest-bound row is its representative; a
    family's threshold is the largest direct oscillation of its
    representatives times ``1 - _BOUND_SLACK``.  The rows whose bound
    exceeds the threshold of a family that holds them are the only ones
    that can hold a family's maximum, and only they are evaluated, by
    ``_range_oscillations`` with the whole row set's path rule.  A row that
    holds one value counts as exactly 0, and so does an empty family.
    """
    runs = _width_runs(hi - lo)
    bounds = _row_bounds(vals, lo, hi, runs)
    reps, families = [], []
    for first, stop in runs:
        best = first + np.where(member[:, first:stop], bounds[first:stop], 0.0).argmax(axis=1)
        holding = np.flatnonzero(member[np.arange(best.size), best] & (bounds[best] > 0))
        reps.append(best[holding])
        families.append(holding)
    reps, inverse = np.unique(np.concatenate(reps), return_inverse=True)
    rep_oscs = _direct_oscillations(vals, lo[reps], hi[reps])
    thresholds = np.zeros(member.shape[0])
    np.maximum.at(thresholds, np.concatenate(families), rep_oscs[inverse] * (1.0 - _BOUND_SLACK))
    wanted = np.zeros(lo.size, dtype=bool)
    for family, threshold in zip(member, thresholds):
        wanted |= family & (bounds > threshold)
    del bounds  # freed before the evaluation peaks
    rows = np.flatnonzero(wanted)
    oscs = _range_oscillations(vals, lo, hi, rows)
    sups = np.array([np.max(oscs, where=family, initial=0.0) for family in member[:, rows]])
    return sups, rows, oscs


def _direct_oscillations(vals: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Mean oscillation of each row ``vals[lo:hi]``, reduced node by node.

    Each run of consecutive rows of one width is reduced in cache-sized
    blocks of at most ``_CHUNK_ELEMENTS`` elements (one row when a row is
    longer) through one reused buffer; each row is reduced alone, so the
    block size never changes a result and every row equals
    :func:`_oscillation` of its slice.  Rows grouped by width make few runs.
    """
    oscs = np.empty(lo.size)
    widths = hi - lo
    for first, stop in _width_runs(widths):
        width = int(widths[first])
        starts = lo[first:stop]
        out = oscs[first:stop]
        view = np.lib.stride_tricks.sliding_window_view(vals, width)
        # The rows of one sweep level start at consecutive nodes: slice, not gather.
        consecutive = bool(np.all(np.diff(starts) == 1))
        per = max(1, _CHUNK_ELEMENTS // width)
        buf = np.empty(min(per, starts.size) * width)
        for k in range(0, starts.size, per):
            at = starts[k : k + per]
            block = view[at[0] : at[0] + at.size] if consecutive else view[at]
            dev = buf[: block.size].reshape(block.shape)
            np.subtract(block, block.mean(axis=1)[:, None], out=dev)
            np.abs(dev, out=dev)
            dev.mean(axis=1, out=out[k : k + per])
    return oscs


def _tiles(lo: np.ndarray, hi: np.ndarray, j: int) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """``(rows, blocks)`` batches: row ``rows[i]`` holds the aligned block
    ``blocks[i]`` of ``2^j`` nodes in its tiling.

    The tiling of ``[lo, hi)`` is the bottom-up walk of a segment tree in
    closed form: level ``j`` spans the blocks ``ceil(lo / 2^j)`` to
    ``floor(hi / 2^j) - 1``, and the row takes the first when its index is
    odd and the last when the next index is odd.  Over all levels the
    blocks tile the row without overlap, at most two per level.  The block
    ranges are found once per level for all rows, ``ceil(lo / 2^j)`` as
    ``((lo - 1) >> j) + 1``; the rows are then taken ``_QUERY_ROWS`` at a
    time, and each batch holds a row at most once.
    """
    left = ((lo - 1) >> j) + 1
    right = hi >> j
    spans = left < right
    takes_first = spans & (left & 1).astype(bool)
    takes_last = spans & (right & 1).astype(bool)
    for start in range(0, lo.size, _QUERY_ROWS):
        batch = slice(start, start + _QUERY_ROWS)
        first = np.flatnonzero(takes_first[batch])
        last = np.flatnonzero(takes_last[batch])
        yield start + first, left[batch][first]
        yield start + last, right[batch][last] - 1


def _row_sums(v: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Sum of each row ``v[lo:hi]`` from pairwise sums over dyadic windows.

    ``window[a]`` at level ``k`` is the pairwise sum of ``v[a : a + 2^k]``,
    built from the level below as ``window[a] + window[a + 2^(k-1)]``, one
    level live at a time.  A row of ``w`` nodes is the run of one window
    per set bit of ``w``, in ascending ``k``, so every term summed lies in
    the row and each row's sum is the same whatever the other rows.
    """
    sums = np.zeros(lo.size)
    start = lo.copy()
    width = hi - lo
    window = v
    for k in range(int(width.max()).bit_length()):
        if k:
            half = 1 << (k - 1)
            window = window[:-half] + window[half:]
        bit = width & (1 << k)
        # A row without bit k may start past the last window: clip, then skip it.
        np.add(sums, window.take(start, mode="clip"), out=sums, where=bit != 0)
        start += bit
    return sums


def _rank_oscillations(vals: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Mean oscillation of each row ``vals[lo:hi]`` from rank counts, without reading the row.

    For a row of ``k`` nodes with sum ``S`` and mean ``m = S / k``, let ``k_``
    and ``S_`` be the count and the sum of its values below ``m``; then
    ``sum |v - m| = (S - 2 S_) - m (k - 2 k_) = 2 (m k_ - S_)``.  ``S`` adds
    one pairwise sum over a dyadic window per set bit of ``k``
    (:func:`_row_sums`).  For ``k_`` and ``S_`` a row is tiled once, by at
    most two aligned blocks of ``2^j`` nodes per level ``j`` (:func:`_tiles`).
    A merge-sort tree keeps, per level, the nodes sorted by global value rank
    inside each aligned block, with the running sum of the values in that
    order restarted at every block, so one ``np.searchsorted`` on the key
    ``block * (n + 1) + rank`` gives a block's count and sum below ``m``.
    The levels are built one at a time and each answers every row's
    queries before the next is built: O((n + rows) log^2 n) time and
    O(n + rows) memory.

    The values are shifted by their median first, which changes no
    oscillation but keeps the sums free of a large common offset.  Every
    term summed lies in the row, so the result agrees with the direct
    reduction to rounding relative to the row's own values.
    """
    n = vals.size
    v = vals - np.median(vals)
    order = np.argsort(v, kind="stable")
    ordered = v[order]
    dtype = np.int32 if n * (n + 1) < 2**31 else np.int64
    stride = dtype(n + 1)
    lo, hi = lo.astype(dtype, copy=False), hi.astype(dtype, copy=False)
    count = (hi - lo).astype(float)
    # A block of 2^j nodes tiles only rows of at least 2^j nodes.
    levels = int(count.max()).bit_length()

    mean = _row_sums(v, lo, hi)
    mean /= count
    cut = np.searchsorted(ordered, mean).astype(dtype)  # values below the mean have rank < cut

    below = np.zeros(lo.size, dtype=dtype)  # counts k_, exact in any dtype
    below_sums = np.zeros(lo.size)
    slot = np.arange(n, dtype=dtype)
    ranks = np.empty(n, dtype=dtype)
    ranks[order] = slot
    for j in range(levels):
        offsets = (slot >> j) * stride
        keys = offsets + ranks
        keys.sort()  # a block here is two sorted blocks of the level below: merge them
        ranks = keys - offsets
        running = ordered[ranks]
        whole = (n >> j) << j
        blocks_of = running[:whole].reshape(-1, 1 << j)
        np.cumsum(blocks_of, axis=1, out=blocks_of)
        np.cumsum(running[whole:], out=running[whole:])
        for rows, blocks in _tiles(lo, hi, j):
            first = blocks << j
            query = blocks * stride
            query += cut[rows]
            at = np.searchsorted(keys, query)
            below_sums[rows] += np.where(at > first, running[at - 1], 0.0)
            at -= first
            below[rows] += at
    # sum |v - m| = (S - 2 S_) - m (k - 2 k_) = 2 (m k_ - S_) as S = m k, in
    # place over the means.
    oscs = mean
    oscs *= below
    oscs -= below_sums
    # The exact value is nonnegative; clip a rounding residue of a flat row.
    np.maximum(oscs, 0.0, out=oscs)
    oscs *= 2.0
    oscs /= count
    return oscs


def _dyadic_rows(n: int) -> Tuple[np.ndarray, np.ndarray]:
    """Node bounds ``lo, hi`` of every dyadic-sweep row, level by level:
    the interior nodes ``a + 1 .. a + w - 1`` of the interval from node ``a``
    to node ``a + w``."""
    widths = _widths(n)
    return (np.concatenate([np.arange(1, n - w + 1, dtype=np.int32) for w in widths]),
            np.concatenate([np.arange(w, n, dtype=np.int32) for w in widths]))


def _sweep(f: SampledFunction) -> IntervalSweep:
    """The intervals from node ``a`` to node ``a + w``, level by level, as ``_dyadic_rows``."""
    nodes, widths = f.nodes, _widths(f.count)
    return IntervalSweep(
        np.concatenate([0.5 * (nodes[:-w] + nodes[w:]) for w in widths]),
        np.concatenate([np.full(f.count - w, 0.5 * w * f.step) for w in widths]),
    )


def dyadic_sweep(f: SampledFunction) -> IntervalSweep:
    """Every interval with grid-node endpoints and dyadic length.

    Lengths are ``step * 2^m`` for ``m >= 1``; endpoints sit on nodes, so
    each interval holds ``2^m - 1`` interior nodes.
    """
    return _sweep(f)


def oscillation_table(f: SampledFunction) -> OscillationTable:
    """Mean oscillation of every dyadic-sweep interval, computed in bulk.

    Each row reduces the interior nodes between its two endpoint nodes,
    the same nodes :func:`mean_oscillation` of its interval reduces.  Rows
    of at most ``_DIRECT_WIDTH`` nodes, and every row when the rank path
    does not pay (grids below about 1300 nodes), are reduced node by node
    and equal ``mean_oscillation`` exactly.  Longer rows are computed from
    rank counts in O(log^2 N) each and agree with it only to rounding,
    within ``3e-14 (|M| + mean |f|)`` over the row as measured.
    """
    vals = f.real_values()
    lo, hi = _dyadic_rows(vals.size)
    oscs = _range_oscillations(vals, lo, hi)
    # Built after the oscillations so the two peaks do not overlap, and
    # privately so that a call of dyadic_sweep is one a caller asked for.
    return OscillationTable(_sweep(f), oscs)


def length_suprema(f: SampledFunction, max_length: float | None = None) -> BoundReport:
    """The ``bmo_norm`` report: per dyadic length at most ``max_length`` (all by
    default), a row of largest mean oscillation ``lhs`` at the ``center`` the module
    docstring picks; the extras are ``bmo_lower_bound`` and ``intervals_swept``."""
    sweep = _sweep(f)
    lengths, level = np.unique(sweep.measures, return_inverse=True)
    if max_length is not None:
        lengths = lengths[lengths <= max_length]
        if not lengths.size:
            raise InputError("no sweep intervals at or below bmo.max_length")
    member = level == np.arange(lengths.size)[:, None]
    sups, rows, oscs = _suprema(f.real_values(), *_dyadic_rows(f.count), member)
    value = np.zeros(level.size)
    value[rows] = oscs
    best = []
    for family, top in zip(member, sups):
        tied = np.flatnonzero(family & (value >= (1.0 - TIE_RTOL) * top))
        best.append(tied[np.argmin(sweep.centers[tied])])
    return BoundReport(
        inequality="sup_I mean oscillation over the dyadic sweep (lower bound)",
        columns={"length": lengths, "center": sweep.centers[best], "lhs": value[best]},
        extras={"bmo_lower_bound": float(sups.max()), "intervals_swept": int(member.sum())},
    )


def vmo_profile(f: SampledFunction, delta_ladder: Sequence[float],
                R_ladder: Sequence[float]) -> VmoProfile:
    """Oscillation suprema along the three vanishing-oscillation limits.

    For each length cap in ``delta_ladder``: the sup of ``M(f, I)`` over
    sweep intervals with ``|I| < delta``.  For each ``R`` in ``R_ladder``:
    the sup over ``|I| > R``, and the sup over intervals disjoint from
    ``I(0, R)``.  Empty families yield zero.

    Each sup equals, bit for bit, the largest ``oscillation_table`` value
    over its family, except that an interval whose nodes hold one value
    counts as exactly 0, so a family of such intervals yields zero.  The
    table is not built: the family masks are read from the measures and
    endpoints of ``dyadic_sweep``'s arrays, each row gets the bound
    ``(max - min) / 2 + 1e-12 max |f|`` (exactly 0 for one value), each
    family's threshold is ``1 - 1e-12`` times the largest direct oscillation
    of its largest-bound row on each level, and only the rows whose bound
    exceeds the threshold of a family that holds them are evaluated (see
    ``_suprema``).
    """
    deltas = sorted(float(d) for d in delta_ladder)
    Rs = sorted(float(R) for R in R_ladder)
    if not deltas or not Rs:
        raise InputError("ladders must be non-empty")
    if not all(0 < v < np.inf for v in deltas + Rs):
        raise InputError("ladder entries must be positive and finite")
    sweep, floors = _sweep(f), np.array(Rs)[:, None]
    member = np.empty((len(deltas) + 2 * len(Rs), len(sweep)), dtype=bool)
    small, large, far = np.split(member, [len(deltas), len(deltas) + len(Rs)])
    # Each derived row array is dropped before the next is made, and the
    # sweep before the suprema run, to keep the peak to the suprema's own.
    np.less(sweep.measures, np.array(deltas)[:, None], out=small)
    np.greater(sweep.measures, floors, out=large)
    np.greater_equal(sweep.lowers, floors, out=far)
    far |= sweep.uppers <= -floors
    del sweep
    sups = _suprema(f.real_values(), *_dyadic_rows(f.count), member)[0].tolist()
    return VmoProfile(
        small_scale=tuple(zip(deltas, sups[: len(deltas)])),
        large_scale=tuple(zip(Rs, sups[len(deltas) : len(deltas) + len(Rs)])),
        far_away=tuple(zip(Rs, sups[len(deltas) + len(Rs) :])),
    )

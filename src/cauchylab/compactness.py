"""Total-boundedness diagnostics and non-compactness witnesses.

A set of functions is precompact in ``L^p`` exactly when it is uniformly
norm-bounded, uniformly small outside large balls, and uniformly
continuous under small translations.  ``fk_diagnose`` measures those
three curves for a finite image set, given as one block whose columns
are the images (see ``sampling``), and returns them as the rows of one
report.

The converse direction is witnessed constructively: when a symbol keeps
oscillating on a sequence of intervals whose geometry degenerates in one
of three ways (lengths collapsing, lengths exploding, or centers
escaping), the commutator images of the oscillation-split test functions
stay uniformly separated in ``L^p``, so no subsequence can converge.
``witness_separation`` builds the test functions, computes the full
pairwise distance matrix of the images on one shared evaluation lattice,
and returns it as a report, one row per pair, whose extras hold the
separation floor

    A3 = 8^(1-p) * C1 * eps^p * A1^(1-p)

assembled from the measured annulus constant ``C1`` and oscillation
level ``eps``.  Its ``pass`` column passes a pair of distinct images when
their distance exceeds ``A3^(1/p)``, so the report passes exactly when
every pair does.  All three degeneration cases share this one engine, at
the resolution ``eval_cells`` and ``nodes_per_radius``; the case only names
the sequence geometry that ``_require_geometry`` checks before any kernel work
(measure ratios below ``1/A2`` in the collapsing and exploding cases,
disjoint ``A2`` dilates in the escaping case).  Infinite-sequence claims
are truncated to the computed finite prefix, and the report says so.
Every check here returns the ``BoundReport`` that the CLI writes as it is.
"""

from __future__ import annotations

import enum
import math
from typing import List, Sequence, Tuple

import numpy as np

from .commutator import commutator_values
from .errors import InputError
from .kernel import CauchyKernel
from .operator import pv_values
from .reports import BoundReport
from .sampling import (Interval, SampledFunction, _cell_centres, _lp, _require_p, _rowwise,
                       lp_norm, sample_on, shift, stack)
from .testfn import _level_floor, annulus_ladder_reports, build_test_function

TAIL_WINDOW_FACTOR = 20.0  # tail lattice reaches factor * t_max * R
TAIL_CELLS_PER_SIDE = 2048
TAIL_SLOPE_BAND = 0.15  # pass band of the fitted tail slope around -1/p'
# Annulus ladder per interval behind the witness C1 and C2: C1_LEVELS
# levels from floor(log2 C1_A1) up, at C1_CELLS cells per region.
C1_LEVELS = 3
C1_A1 = 8.0
C1_CELLS = 256


class WitnessCase(enum.Enum):
    SMALL_SCALE = "small"
    LARGE_SCALE = "large"
    FAR_AWAY = "far"


def fk_diagnose(images: SampledFunction, p: float,
                t_ladder: Sequence[float], z_ladder: Sequence[float]) -> BoundReport:
    """Measure the three precompactness curves over a finite image set.

    ``images`` is one function or a block whose columns are the images.
    The report has one row per curve point, with the columns ``curve``,
    ``parameter`` and ``lhs``: first the ``uniform_bound`` row (the
    largest ``L^p`` norm, parameter 0), then the ``tail`` rows by
    increasing radius ``t`` (the largest ``L^p`` mass outside ``I(0, t)``
    over the columns), then the ``equicontinuity`` rows by increasing
    ``|z|`` (the largest ``L^p`` distance between a column and its
    translate by ``z``, a whole number of grid steps).  Each column is
    summed as on its own.  The extras are ``p`` and the image count.
    """
    ts = sorted(float(t) for t in t_ladder)
    zs = sorted((float(z) for z in z_ladder), key=abs)
    if not ts or not zs:
        raise InputError("ladders must be non-empty")
    if not all(0 < t < np.inf for t in ts):
        raise InputError("tail radii must be positive and finite")
    V = images.values.reshape(images.count, -1)

    def worst(rows: np.ndarray) -> float:
        # A radius past the grid leaves no rows, and each column's norm is 0.
        return max(_lp(col, images.step, p) for col in rows.T)

    far = np.abs(images.nodes)
    lhs = ([float(np.max(lp_norm(images, p)))]
           + [worst(V[far > t]) for t in ts]
           + [worst(shift(images, z).values.reshape(V.shape) - V) for z in zs])
    return BoundReport(
        inequality="uniform bound, tail, and shift-difference curves of the image set",
        columns={
            "curve": np.asarray(["uniform_bound"] + ["tail"] * len(ts)
                                + ["equicontinuity"] * len(zs)),
            "parameter": np.asarray([0.0] + ts + zs),
            "lhs": np.asarray(lhs),
        },
        extras={"p": p, "images": V.shape[1]},
    )


def tail_decay_check(b: SampledFunction, support_radius: float,
                     family: Sequence[SampledFunction], p: float,
                     t_ladder: Sequence[float], kernel: CauchyKernel) -> BoundReport:
    """Decay of the commutator mass outside ``I(0, t R)`` against ``t^(-1/p')``.

    Requires the symbol to vanish outside ``I(0, R)``; then outside
    ``I(0, 2R)`` the outer term drops and the image reduces to
    ``-C(b f)``, an integral over the support of ``b f`` with no
    singularity in reach.  For each ``t`` the report takes the worst
    tail norm over the family; the fit of log tail against log t is
    compared with the conjugate-exponent slope ``-1/p'``.
    """
    _require_p(p)
    ts = sorted(float(t) for t in t_ladder)
    if len(ts) < 2:
        raise InputError("need at least two truncation factors to fit a slope")
    if len(set(ts)) < len(ts):
        raise InputError(f"t_ladder must not repeat an entry, got {ts}")
    if not all(2 < t < math.inf for t in ts):
        raise InputError(f"t_ladder entries must be finite and exceed 2, got {ts}")
    R = float(support_radius)
    if not R > 0:
        raise InputError("support radius must be positive")
    b.require_single("the symbol of tail_decay_check")
    outside = ~b.node_mask(Interval(0.0, R))
    if np.any(np.abs(b.values[outside]) > 0):
        raise InputError("symbol does not vanish outside I(0, R)")
    if len(family) == 0:
        raise InputError("family must be non-empty")
    if not all(b.same_grid_as(f) for f in family):
        raise InputError("symbol and family members must share one grid")

    reach = TAIL_WINDOW_FACTOR * ts[-1] * R
    lo = ts[0] * R
    right, cell_h = _cell_centres(lo, reach - lo, TAIL_CELLS_PER_SIDE)
    xs = np.concatenate([-right[::-1], right])

    block = stack(family)
    bf = block.with_values(_rowwise(b.values, block.values))
    support = np.any(np.abs(bf.values) > 0, axis=1)
    if np.any(support):
        # Every lattice point has |x| >= t_min R, every support node
        # |y| <= max |support|, so this is the exact clearance floor.
        clearance = lo - float(np.max(np.abs(bf.nodes[support])))
        if clearance <= 2 * bf.step:
            raise InputError(
                "far lattice reaches into the support of b f; raise the "
                "smallest truncation factor"
            )
    g = -pv_values(kernel, bf, xs)
    worst = np.array([max(_lp(col[np.abs(xs) > t * R], cell_h, p) for col in g.T)
                      for t in ts])

    p_conj = p / (p - 1.0)
    target = -1.0 / p_conj
    if np.max(worst) == 0.0:
        # Vanishing symbol or family: nothing decays, nothing to fit.
        slope = float("nan")
        passed = True
    else:
        slope = float(np.polyfit(np.log(ts), np.log(worst), 1)[0])
        passed = abs(slope - target) <= TAIL_SLOPE_BAND
    return BoundReport(
        inequality="log-log slope of sup_f |[b,C]f|_{L^p(|x| > t R)} vs t is -1/p'",
        columns={
            "t": np.asarray(ts),
            "lhs": worst,
            "rhs": worst[0] * (np.asarray(ts) / ts[0]) ** target,
            "pass": np.full(len(ts), passed),
        },
        extras={
            "slope": slope,
            "target": target,
            "band": TAIL_SLOPE_BAND,
            "window_reach": reach,
            "neglected_tail_fraction": (ts[-1] * R / reach) ** (1.0 / p_conj),
        },
    )


def small_scale_sequence(center: float, r0: float, ratio: float, count: int) -> Tuple[Interval, ...]:
    """Concentric intervals with radii shrinking by ``1/ratio`` each step."""
    if not (ratio > 1 and r0 > 0 and count >= 2 and float(count).is_integer()):
        raise InputError(f"need ratio > 1, r0 > 0 and a whole count >= 2, got count {count}")
    return tuple(Interval(center, r0 * ratio ** (-l)) for l in range(int(count)))


def large_scale_sequence(center: float, r0: float, ratio: float, count: int) -> Tuple[Interval, ...]:
    """Concentric intervals with radii growing by ``ratio`` each step."""
    if not (ratio > 1 and r0 > 0 and count >= 2 and float(count).is_integer()):
        raise InputError(f"need ratio > 1, r0 > 0 and a whole count >= 2, got count {count}")
    return tuple(Interval(center, r0 * ratio**l) for l in range(int(count)))


def far_away_sequence(c_eps: float, a2: float, count: int) -> Tuple[Interval, ...]:
    """Radius-``c_eps`` intervals marching away from the origin.

    Uses the recursion ``R_j = |x_(j-1)| + 4 a2 c_eps``, ``x_(-1) = 0``, for
    the excluded ball and places each center one ``a2`` radius beyond it,
    which keeps the ``a2`` dilates pairwise disjoint with margin.
    """
    if not (c_eps > 0 and a2 > 0 and count >= 2 and float(count).is_integer()):
        raise InputError(f"need c_eps > 0, a2 > 0 and a whole count >= 2, got count {count}")
    out: List[Interval] = []
    x = 0.0
    for _ in range(int(count)):
        R = abs(x) + 4.0 * a2 * c_eps
        x = R + a2 * c_eps
        out.append(Interval(x, c_eps))
    return tuple(out)


def _a3(c1: float, eps: float, a1: float, p: float) -> float:
    """The separation floor ``A3 = 8^(1-p) * C1 * eps^p * A1^(1-p)``."""
    return 8.0 ** (1.0 - p) * c1 * eps**p * a1 ** (1.0 - p)


def choose_a2(c1: float, c2: float, epsilon: float, a1: float, p: float) -> float:
    """Smallest power of two separating the floor ``A3`` from the spill bound.

    Picks ``A2 = 2^m`` with
    ``2^(floor(log2 A2) (p-1)) > 2 C2 / ((1 - 2^(1-p)) A3)`` and
    ``A2 > A1``, so the outside spill of one image cannot eat more than
    half of the separation floor of another.
    """
    if not all(0 < v < math.inf for v in (c1, c2, epsilon)):
        raise InputError("need positive, finite empirical constants and oscillation")
    _require_p(p)
    k_min = _level_floor(a1)
    rhs = 2.0 * c2 / ((1.0 - 2.0 ** (1.0 - p)) * _a3(c1, epsilon, a1, p))
    m = max(
        math.floor(math.log2(rhs) / (p - 1.0)) + 1,
        k_min + 1,
    )
    return float(2.0**m)


def _require_geometry(case: WitnessCase, a1: float, a2: float,
                      sequence: Sequence[Interval], p: float) -> Tuple[Interval, ...]:
    """The sequence as a tuple, once the constants and the case's geometry hold."""
    _level_floor(a1)
    if not a2 > a1:
        raise InputError(f"need a2 > a1, got a2 = {a2}, a1 = {a1}")
    _require_p(p)
    seq = tuple(sequence)
    if len(seq) < 2:
        raise InputError("interval sequence must have at least two entries")
    if case is WitnessCase.SMALL_SCALE:
        for a, b in zip(seq, seq[1:]):
            if not b.measure / a.measure < 1.0 / a2:
                raise InputError("collapsing sequence needs successive measure ratios "
                                 f"below 1/a2 = {1.0 / a2}")
    elif case is WitnessCase.LARGE_SCALE:
        for a, b in zip(seq, seq[1:]):
            if not a.measure / b.measure < 1.0 / a2:
                raise InputError("exploding sequence needs reversed measure ratios "
                                 f"below 1/a2 = {1.0 / a2}")
    else:
        dilates = [I.dilate(a2) for I in seq]
        for i in range(len(dilates)):
            for j in range(i + 1, len(dilates)):
                if not dilates[i].is_disjoint_from(dilates[j]):
                    raise InputError(f"a2 dilates of intervals {i} and {j} overlap")
    return seq


def witness_separation(b: SampledFunction, case: WitnessCase, sequence: Sequence[Interval],
                       kernel: CauchyKernel, a1: float, a2: float, p: float,
                       eval_cells: int = 8192, nodes_per_radius: int = 64) -> BoundReport:
    """Pairwise ``L^p`` distances between commutator images of the sequence.

    ``case`` names the geometry ``sequence`` must have.  The lattice has
    ``eval_cells`` cells over the
    ``a2`` dilates of the sequence plus 5% on each side.  Every test
    function lives on its own grid, a power-of-two refinement of that
    lattice with at least ``nodes_per_radius`` nodes per radius, so
    evaluation points land on node- or midpoint-lattice positions of every
    grid.  The symbol must oscillate on every interval of the sequence; a
    constant stretch is rejected with the offending index.  The report
    has one row per ordered pair, with the columns ``i``, ``j``, ``lhs``
    (their distance) and ``pass`` (true on the diagonal, elsewhere when
    ``lhs > a3_root``), ``i``-major, so ``passed`` holds exactly when the
    ``separation_margin`` is positive.  Its extras carry the case,
    the smallest off-diagonal distance ``min_offdiag``, the measured
    oscillation floor ``epsilon``, the empirical annulus constants
    ``c1_empirical`` and ``c2_empirical`` (the extreme candidates of the
    intervals' ``annulus_ladder_reports``), the separation floor ``a3``
    and its ``p``-th root ``a3_root``, the ``separation_margin``
    ``min_offdiag - a3_root`` (positive when the images stay farther apart
    than the floor), the ``a2`` used and the recommended one (see
    ``choose_a2``), and a note that the claim covers the computed prefix.
    """
    seq = _require_geometry(case, a1, a2, sequence, p)
    if eval_cells < 1:
        raise InputError(f"need eval_cells >= 1, got {eval_cells}")
    if not 1 <= nodes_per_radius < math.inf:
        raise InputError(f"need finite nodes_per_radius >= 1, got {nodes_per_radius}")
    if b.source is None:
        raise InputError(
            "witness sequences span many scales; the symbol must carry a "
            "source callable (build it from a named profile)"
        )

    lo = min(I.dilate(a2).lower for I in seq)
    hi = max(I.dilate(a2).upper for I in seq)
    pad = 0.05 * (hi - lo)
    window = Interval.from_endpoints(lo - pad, hi + pad)
    w0 = window.lower
    xs, h_eval = _cell_centres(w0, window.measure, eval_cells)

    k_lo = _level_floor(C1_A1)
    k_ladder = list(range(k_lo, k_lo + C1_LEVELS))

    images: List[np.ndarray] = []
    oscillations: List[float] = []
    ladders: List[BoundReport] = []
    for idx, I in enumerate(seq):
        refine = max(0, math.ceil(math.log2(h_eval * nodes_per_radius / I.radius)))
        h_l = h_eval / 2.0**refine
        span_lo = I.center - 1.25 * I.radius
        span_hi = I.center + 1.25 * I.radius
        j_lo = math.floor((span_lo - w0) / h_l)
        origin = w0 + (j_lo + 0.5) * h_l
        count = int(math.ceil((span_hi - origin) / h_l)) + 1
        b_local = sample_on(b.source, origin, h_l, count)
        try:
            tf = build_test_function(b_local, I, p)
        except InputError as exc:
            raise InputError(f"interval {idx} of the sequence: {exc}") from exc
        oscillations.append(tf.epsilon)
        ladders.append(annulus_ladder_reports(b_local, tf, k_ladder, kernel, C1_A1, C1_CELLS))
        images.append(commutator_values(b_local, tf.f, kernel, xs))

    eps = min(oscillations)
    c1 = min(ladder.extras["c1_candidate_min"] for ladder in ladders)
    c2 = max(ladder.extras["c2_candidate_max"] for ladder in ladders)
    n = len(seq)
    dist = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            d = _lp(images[i] - images[j], h_eval, p)
            dist[i, j] = d
            dist[j, i] = d
    a3 = _a3(c1, eps, a1, p)
    a3_root = a3 ** (1.0 / p)
    min_offdiag = float(np.min(dist[~np.eye(n, dtype=bool)]))
    ii, jj = np.indices((n, n))
    return BoundReport(
        inequality="pairwise L^p distances of commutator images stay separated",
        columns={"i": ii.ravel(), "j": jj.ravel(), "lhs": dist.ravel(),
                 "pass": ((ii == jj) | (dist > a3_root)).ravel()},
        extras={
            "case": case.value,
            "min_offdiag": min_offdiag,
            "epsilon": eps,
            "c1_empirical": c1,
            "c2_empirical": c2,
            "a3": a3,
            "a3_root": a3_root,
            "separation_margin": min_offdiag - a3_root,
            "a2_used": a2,
            "a2_recommended": choose_a2(c1, c2, eps, a1, p),
            "prefix_note": "separation certified for the computed finite prefix only",
        },
    )

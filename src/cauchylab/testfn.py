"""Oscillation-split test functions and their annulus decay reports.

Given a symbol ``b`` oscillating on an interval ``I = I(x0, r)``, the
construction splits ``I`` by the median ``a = median(b, I)`` into the
upper set ``{b > a}`` and the lower set ``{b < a}``, and builds

    f = |I|^(-1/p) * (chi_upper - chi_lower - a_bal * chi_I),

where the balancing constant ``a_bal`` is chosen by exact node counting
so that ``f`` integrates to zero on the grid.  The median, the split sets
and ``chi_I`` all read the nodes of ``I`` from ``SampledFunction.node_mask``
(the one node rule, see ``sampling``), so the median halves exactly the
nodes that are split.  By construction ``f`` is supported in ``I``, is
sign-aligned with ``b - a`` node by node, has ``|a_bal| <= 1/2``, and takes
values of size ``|I|^(-1/p)`` on the two sets (between one half and five
halves of it).

The dyadic annulus of level ``k`` is ``(x0 + 2^k r, x0 + 2^(k+1) r)`` to
the right of ``I`` and its mirror image to the left; ``_annulus`` builds
both pieces with the same arithmetic.  On the right-hand annulus the
commutator image of ``f`` obeys a two-sided power law: the integral of
``|[b, C] f|^p`` is bounded below by a constant times
``eps^p |I|^(p-1) / |2^k I|^(p-1)`` (``eps`` the mean oscillation of
``b`` on ``I``) and above, over the dyadic shell, by a constant times
``|I|^(p-1) / |2^k I|^(p-1)``.  The reports here normalize the measured
integral by that power law; the empirical constants are outputs, and the
meaningful pass criterion is their stability across ``k``.
``annulus_ladder_reports`` measures a whole ladder of levels in one
commutator call and returns the ``lemma41`` report: a lower and an upper
row per level, whose rows pass exactly when the spreads (max / min
across levels) of the C1 and C2 candidates are within ``LOWER_SPREAD_CAP``
and ``UPPER_SPREAD_CAP``.
``verify_intermediate_bounds`` takes a ladder too: one ``pv_values``
call over every level's annulus lattice, one median of ``b`` on ``I``,
and one report per level, in ladder order.  Both take ``a1``, finite and
above 4, whose ``floor(log2(a1))`` is the smallest admissible level, and
``eval_cells``, the lattice cells per region; a level must be a whole
number.  The spread caps and the intermediate bounds' slack, drift cap
and resample cap are module constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .bmo import bmo_norm, mean_oscillation, median
from .commutator import commutator_values
from .errors import InputError
from .kernel import CauchyKernel
from .operator import pv_values
from .reports import BoundReport, _cap_rows
from .sampling import Interval, SampledFunction, _cell_centres, _require_p, sample

POINTWISE_SLACK = 0.10  # cushion of the pointwise majorant check
DRIFT_BOUND = 4.0  # recorded empirical cap of the median-drift to k * bmo ratio
DRIFT_NODES = 1 << 20  # most nodes the median-drift resample of one level may hold
LOWER_SPREAD_CAP = 3.0  # cap of the C1 candidates' spread across levels
UPPER_SPREAD_CAP = 10.0  # cap of the C2 candidates' spread across levels


@dataclass(frozen=True)
class TestFunction:
    """A normalized oscillation-split function on its base interval."""

    f: SampledFunction
    base: Interval
    a_j: float
    upper_set_mask: np.ndarray
    lower_set_mask: np.ndarray
    p: float
    epsilon: float  # measured mean oscillation of the symbol on the base


def build_test_function(b: SampledFunction, base: Interval, p: float) -> TestFunction:
    """Build the median-split function for ``b`` on ``base``.

    Rejects a symbol with no oscillation on the interval (the split sets
    would be empty and the normalization meaningless).
    """
    _require_p(p)
    mask = b.node_mask(base)
    if not np.any(mask):
        raise InputError("base interval does not intersect the grid")
    eps = mean_oscillation(b, base)
    alpha = median(b, base)
    b_real = b.real_values()
    upper = mask & (b_real > alpha)
    lower = mask & (b_real < alpha)
    if eps == 0.0 or (not np.any(upper) and not np.any(lower)):
        raise InputError(
            "symbol is constant on the base interval: no oscillation, "
            "empty split sets"
        )
    n = int(np.sum(mask))
    a_bal = (int(np.sum(upper)) - int(np.sum(lower))) / n
    scale = base.measure ** (-1.0 / p)
    values = np.zeros(b.count)
    values[upper] = 1.0
    values[lower] = -1.0
    values[mask] -= a_bal
    f = SampledFunction(b.origin, b.step, scale * values)
    upper.setflags(write=False)
    lower.setflags(write=False)
    return TestFunction(
        f=f,
        base=base,
        a_j=a_bal,
        upper_set_mask=upper,
        lower_set_mask=lower,
        p=float(p),
        epsilon=eps,
    )


def check_invariants(tf: TestFunction, b: SampledFunction) -> dict:
    """Measure the five construction invariants; keys map to their tolerances.

    Returns the raw numbers so callers can assert at the contract
    tolerances: mean-zero within ``1e-10 |I|^(1 - 1/p)``, balancing
    constant within ``1/2 + 1e-12``, support inside the base, sign
    alignment above ``-1e-12``, and split-set values within
    ``[1/2, 5/2] |I|^(-1/p)``.
    """
    f, base, p = tf.f, tf.base, tf.p
    h = f.step
    integral = abs(complex(h * np.sum(f.values)))
    out_mask = ~f.node_mask(base)
    support_leak = float(np.max(np.abs(f.values[out_mask]))) if np.any(out_mask) else 0.0
    alpha = median(b, base)
    in_mask = b.node_mask(base)
    sign_min = float(
        np.min((f.values.real * (b.real_values() - alpha))[in_mask])
    ) if np.any(in_mask) else 0.0
    split = tf.upper_set_mask | tf.lower_set_mask
    scale = base.measure ** (-1.0 / p)
    if np.any(split):
        mags = np.abs(f.values[split])
        band_lo = float(np.min(mags) / scale)
        band_hi = float(np.max(mags) / scale)
    else:
        band_lo, band_hi = np.nan, np.nan
    return {
        "mean_zero": integral,
        "mean_zero_tol": 1e-10 * base.measure ** (1.0 - 1.0 / p),
        "a_j_abs": abs(tf.a_j),
        "support_leak": support_leak,
        "sign_min": sign_min,
        "band_lo": band_lo,
        "band_hi": band_hi,
    }


def _require_sampled(b: SampledFunction, region: Interval, what: str) -> None:
    """Reject a symbol with no source callable whose samples miss part of ``region``."""
    if b.source is None and (region.lower < b.lower - b.step or region.upper > b.upper + b.step):
        raise InputError(
            f"{what} leaves the sampled range of the symbol; "
            "sample b on a wider grid or give it a source callable"
        )


def _power_integrals(b: SampledFunction, tf: TestFunction, kernel: CauchyKernel,
                     regions: Sequence[Tuple[Interval, int]]) -> List[float]:
    """Integrals of ``|[b, C] f|^p`` over regions away from the support.

    ``regions`` pairs each region with its number of lattice cells.  The
    lattices of all regions go through one ``commutator_values`` call, and
    the result is split back into one integral per region.
    """
    for region, _ in regions:
        _require_sampled(b, region, "evaluation region")
    lattices = [_cell_centres(region.lower, region.measure, cells) for region, cells in regions]
    vals = commutator_values(b, tf.f, kernel, np.concatenate([xs for xs, _ in lattices]))
    parts = np.split(vals, np.cumsum([xs.size for xs, _ in lattices])[:-1])
    return [float(cell_h * np.sum(np.abs(part) ** tf.p))
            for part, (_, cell_h) in zip(parts, lattices)]


def _annulus(base: Interval, k: int, side: float) -> Interval:
    """The level-``k`` dyadic annulus piece of ``base`` on ``side`` (+1 right, -1 left).

    The piece runs from ``2^k r`` to ``2^(k+1) r`` away from the centre;
    the two sides are mirror images, since negation is exact.
    """
    near = base.center + side * (2.0**k) * base.radius
    far = base.center + side * (2.0 ** (k + 1)) * base.radius
    return Interval.from_endpoints(min(near, far), max(near, far))


def _level_floor(a1: float) -> int:
    """The smallest admissible annulus level, ``floor(log2(a1))``, for a finite ``a1 > 4``."""
    if not 4 < a1 < math.inf:
        raise InputError(f"need a finite a1 > 4, got {a1}")
    return int(math.floor(math.log2(a1)))


def _require_level(k_ladder: Sequence[int], a1: float, eval_cells: int) -> List[int]:
    """The non-empty ladder as a list, once ``a1`` is admissible (``_level_floor``),
    ``eval_cells >= 8`` and every level is a whole number at least ``floor(log2(a1))``."""
    k_min = _level_floor(a1)
    if eval_cells < 8:
        raise InputError("need at least 8 evaluation cells")
    ks = list(k_ladder)
    if not ks:
        raise InputError("level ladder must be non-empty")
    for k in ks:
        if not float(k).is_integer():
            raise InputError(f"annulus level k = {k} is not a whole number")
        if k < k_min:
            raise InputError(f"annulus level k = {k} is below floor(log2(a1)) = {k_min}")
    return ks


def _drift_nodes(k: int, eval_cells: int) -> int:
    """Nodes of level ``k``'s median-drift resample: at least two across the base."""
    return max(4096, 4 * eval_cells, 2 ** (k + 2))


def verify_intermediate_bounds(b: SampledFunction, tf: TestFunction, k_ladder: Sequence[int],
                               kernel: CauchyKernel, a1: float = 8.0,
                               eval_cells: int = 512) -> List[BoundReport]:
    """Check the two workhorse estimates behind the annulus power laws, level by level.

    (i) pointwise on the annulus: the outer term
        ``B(y) = (b(y) - a) C(f)(y)`` is majorized by
        ``C_fold * r |I|^(1/p') |b(y) - a| / |x0 - y|^2`` with the
        folded constant ``C_fold = 2 (L + 1) * 5/2`` (kernel smoothness
        times the pointwise size cap of ``f``), checked with ``POINTWISE_SLACK``;
    (ii) median drift: ``|median(b, 2^(k+1) I) - median(b, I)|`` against
        ``k`` times a BMO lower bound of ``b`` over the dilate family;
        the ratio is recorded and capped by ``DRIFT_BOUND``.  A symbol with
        a source callable is resampled across each dilate on
        ``max(4096, 4 eval_cells, 2^(k+2))`` cell-centred nodes, which keeps
        at least two across the base at every level; that grid grows as
        ``2^k``, so a ladder with a level whose resample would hold more than
        ``DRIFT_NODES`` nodes is refused before anything is computed.

    Returns one report per level of ``k_ladder``, in ladder order, each the
    one a report file keeps (``_cap_rows``): one row per lattice point of its
    annulus, at most ``MAX_REPORT_ROWS`` of them, the violations first.
    """
    ks = _require_level(k_ladder, a1, eval_cells)
    nodes = _drift_nodes(max(ks), eval_cells)
    if b.source is not None and nodes > DRIFT_NODES:
        k_max = DRIFT_NODES.bit_length() - 3  # the largest k with 2^(k+2) <= DRIFT_NODES
        largest = (f"the largest admissible level is {k_max}"
                   if _drift_nodes(k_max, eval_cells) <= DRIFT_NODES
                   else f"no level is admissible with {eval_cells} evaluation cells")
        raise InputError(f"k_ladder: level k = {max(ks)} would resample the symbol on "
                         f"{nodes} nodes, above the cap of {DRIFT_NODES}; {largest}")
    base = tf.base
    regions = [_annulus(base, k, 1.0) for k in ks]
    dilates = [base.dilate(2.0 ** (k + 1)) for k in ks]
    for region, dilate in zip(regions, dilates):
        _require_sampled(b, region, "annulus")
        _require_sampled(b, dilate, "dilated interval")
    p_conj = tf.p / (tf.p - 1.0)
    alpha = median(b, base)
    c_fold = kernel.smoothness_constant * 2.5
    scale = c_fold * base.radius * base.measure ** (1.0 / p_conj)
    lattices = [_cell_centres(region.lower, region.measure, eval_cells)[0] for region in regions]
    cfs = np.split(pv_values(kernel, tf.f, np.concatenate(lattices)), len(ks))
    reports = []
    for k, xs, cf, dilate in zip(ks, lattices, cfs, dilates):
        b_at = b.value_at(xs).real
        lhs = np.abs(b_at - alpha) * np.abs(cf)
        majorant = scale * np.abs(b_at - alpha) / (base.center - xs) ** 2
        pointwise_pass = lhs <= (1.0 + POINTWISE_SLACK) * majorant
        # The dilate family reaches far outside the base; resample rather
        # than silently measuring only the covered part.
        wide = b if b.source is None else sample(b.source, dilate.lower, dilate.upper,
                                                  _drift_nodes(k, eval_cells))
        drift = abs(median(wide, dilate) - alpha)
        drift_rhs = k * bmo_norm(wide, [base.dilate(2.0**j) for j in range(0, k + 2)])
        drift_ratio = drift / drift_rhs if drift_rhs > 0 else (0.0 if drift == 0 else np.inf)
        drift_pass = bool(drift_ratio <= DRIFT_BOUND)
        reports.append(_cap_rows([BoundReport(
            inequality=(
                "|B(y)| <= C_fold r |I|^(1/p') |b(y)-a| / |x0-y|^2 on the annulus; "
                "|median(b, 2^(k+1) I) - median(b, I)| <= drift_bound * k * bmo"
            ),
            columns={
                "y": xs,
                "lhs": lhs,
                "rhs": (1.0 + POINTWISE_SLACK) * majorant,
                "pass": pointwise_pass & drift_pass,
            },
            extras={
                "k": k,
                "c_fold": c_fold,
                "pointwise_slack": POINTWISE_SLACK,
                "pointwise_violations": int(np.sum(~pointwise_pass)),
                "median_drift": drift,
                "k_times_bmo": drift_rhs,
                "drift_ratio": float(drift_ratio),
                "drift_bound": DRIFT_BOUND,
                "drift_pass": drift_pass,
            },
        )]))
    return reports


def annulus_ladder_reports(b: SampledFunction, tf: TestFunction,
                           k_ladder: Sequence[int], kernel: CauchyKernel,
                           a1: float = 8.0, eval_cells: int = 512) -> BoundReport:
    """The ``lemma41`` report: lower, then upper rows across a level ladder, in ladder order.

    The columns are ``k``, ``side`` (``"lower"`` or ``"upper"``), ``lhs``
    (the integral of ``|[b, C] f|^p`` over the row's region),
    ``normalizer`` (``|I|^(p-1) / |2^k I|^(p-1) = 2^(-k (p-1))``) and
    ``ratio = lhs / normalizer``, the empirical constant candidate.  The
    lower row of level ``k`` measures the right-hand annulus; its
    ``ratio / eps^p`` is the empirical constant of the lower power law.
    The upper row measures the dyadic shell ``2^(k+1) I minus 2^k I``,
    a piece on each side of the base, with half the cells per piece;
    bounded ``ratio`` across levels is the upper power law.  The lattices
    of every level and both shell sides go through one
    ``commutator_values`` call.  A single level is a one-level ladder.

    The extras are ``p``, ``epsilon`` and ``a_j`` of ``tf``, the C1
    candidates' ``c1_candidate_min``, ``c1_candidate_max`` and ``lower_spread``
    (max / min, inf once the min is 0), the upper ratios' ``c2_candidate_max``
    and ``upper_spread``, and both caps.  Every row passes exactly when
    ``lower_spread <= LOWER_SPREAD_CAP`` and ``upper_spread <= UPPER_SPREAD_CAP``.
    """
    ks = _require_level(k_ladder, a1, eval_cells)
    rights = [_annulus(tf.base, k, 1.0) for k in ks]
    lefts = [_annulus(tf.base, k, -1.0) for k in ks]
    half = max(8, eval_cells // 2)
    regions = ([(right, eval_cells) for right in rights]
               + [(piece, half) for pair in zip(lefts, rights) for piece in pair])
    integrals = _power_integrals(b, tf, kernel, regions)
    shells = integrals[len(ks):]  # left and right piece of each level
    lhs = np.asarray(integrals[:len(ks)] + [sum(shells[2 * i:2 * i + 2]) for i in range(len(ks))])
    # Python float powers, level by level: numpy's power may round differently.
    normalizer = np.asarray([2.0 ** (-k * (tf.p - 1.0)) for k in ks] * 2)
    ratio = lhs / normalizer
    c1, c2 = ratio[:len(ks)] / tf.epsilon**tf.p, ratio[len(ks):]
    lower_spread, upper_spread = (c.max() / c.min() if c.min() > 0 else math.inf for c in (c1, c2))
    within_caps = lower_spread <= LOWER_SPREAD_CAP and upper_spread <= UPPER_SPREAD_CAP
    return BoundReport(
        inequality=(
            "annulus integrals of |[b,C]f|^p follow the dyadic power law: "
            "lower ratios k-stable, upper ratios k-bounded"
        ),
        columns={
            "k": np.asarray(ks * 2),
            "side": np.asarray(["lower"] * len(ks) + ["upper"] * len(ks)),
            "lhs": lhs,
            "normalizer": normalizer,
            "ratio": ratio,
            "pass": np.full(2 * len(ks), within_caps),
        },
        extras={
            "p": tf.p, "epsilon": tf.epsilon, "a_j": tf.a_j,
            "c1_candidate_min": c1.min(), "c1_candidate_max": c1.max(),
            "lower_spread": lower_spread, "lower_spread_cap": LOWER_SPREAD_CAP,
            "c2_candidate_max": c2.max(),
            "upper_spread": upper_spread, "upper_spread_cap": UPPER_SPREAD_CAP,
        },
    )

"""Oscillation-split test functions and their annulus decay reports.

Given a symbol ``b`` oscillating on an interval ``I = I(x0, r)``, the
construction splits ``I`` by the median ``a = median(b, I)`` into the
upper set ``{b > a}`` and the lower set ``{b < a}``, and builds

    f = |I|^(-1/p) * (chi_upper - chi_lower - a_bal * chi_I),

where the balancing constant ``a_bal`` is chosen by exact node counting
so that ``f`` integrates to zero on the grid.  By construction ``f`` is
supported in ``I``, is sign-aligned with ``b - a`` node by node, has
``|a_bal| <= 1/2``, and takes values of size ``|I|^(-1/p)`` on the two
sets (between one half and five halves of it).

On the dyadic annulus at distance ``2^k r`` to the right of ``I`` the
commutator image of ``f`` obeys a two-sided power law: the integral of
``|[b, C] f|^p`` is bounded below by a constant times
``eps^p |I|^(p-1) / |2^k I|^(p-1)`` (``eps`` the mean oscillation of
``b`` on ``I``) and above, over the dyadic shell, by a constant times
``|I|^(p-1) / |2^k I|^(p-1)``.  The reports here normalize the measured
integral by that power law; the empirical constants are outputs, and the
meaningful pass criterion is their stability across ``k``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from .bmo import bmo_norm, mean_oscillation, median
from .commutator import commutator_values
from .errors import InputError
from .kernel import CauchyKernel
from .operator import pv_values
from .reports import BoundReport
from .sampling import Annulus, Interval, SampledFunction, sample

POINTWISE_SLACK = 0.10  # cushion of the pointwise majorant check
DRIFT_BOUND = 4.0  # recorded empirical cap of the median-drift to k * bmo ratio


class Side(enum.Enum):
    LOWER = "lower"
    UPPER = "upper"


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


@dataclass
class AnnulusBoundReport:
    """One measured annulus integral against its dyadic power-law normalizer."""

    k: int
    lhs: float          # integral of |[b, C] f|^p over the region
    normalizer: float   # |I|^(p-1) / |2^k I|^(p-1) = 2^(-k (p-1))
    ratio: float        # lhs / normalizer, the empirical constant candidate
    side: Side


@dataclass(frozen=True)
class AnnulusConfig:
    """Level floor and resolution of annulus evaluation.

    ``a1`` sets the smallest admissible level, ``floor(log2(a1))``;
    ``eval_cells`` is the refined-lattice resolution per region.  The
    slack and cap of the intermediate bounds are the module constants
    ``POINTWISE_SLACK`` and ``DRIFT_BOUND``.
    """

    a1: float = 8.0
    eval_cells: int = 512

    def __post_init__(self):
        if not self.a1 > 4:
            raise InputError(f"need a1 > 4, got {self.a1}")
        if self.eval_cells < 8:
            raise InputError("need at least 8 evaluation cells")

    @property
    def k_min(self) -> int:
        return int(math.floor(math.log2(self.a1)))


def build_test_function(b: SampledFunction, base: Interval, p: float) -> TestFunction:
    """Build the median-split function for ``b`` on ``base``.

    Rejects a symbol with no oscillation on the interval (the split sets
    would be empty and the normalization meaningless).
    """
    if not (p > 1 and np.isfinite(p)):
        raise InputError(f"p must lie in (1, inf), got {p}")
    mask = b.node_mask(base)
    if not np.any(mask):
        raise InputError("base interval does not intersect the grid")
    eps = mean_oscillation(b, base)
    alpha = median(b, base).value
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
    out_mask = ~base.contains(f.nodes)
    support_leak = float(np.max(np.abs(f.values[out_mask]))) if np.any(out_mask) else 0.0
    alpha = median(b, base).value
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


def _region_lattice(region: Interval, cells: int) -> Tuple[np.ndarray, float]:
    h = region.measure / cells
    return region.lower + (np.arange(cells) + 0.5) * h, h


def _commutator_power_integral(b: SampledFunction, tf: TestFunction,
                               kernel: CauchyKernel, region: Interval,
                               cells: int) -> float:
    """Integral of ``|[b, C] f|^p`` over a region away from the support."""
    if b.source is None:
        lo_ok = region.lower >= b.lower - b.step
        hi_ok = region.upper <= b.upper + b.step
        if not (lo_ok and hi_ok):
            raise InputError(
                "evaluation region leaves the sampled range of the symbol; "
                "sample b on a wider grid or give it a source callable"
            )
    xs, cell_h = _region_lattice(region, cells)
    vals = commutator_values(b, tf.f, kernel, xs)
    return float(cell_h * np.sum(np.abs(vals) ** tf.p))


def _require_level(k: int, cfg: AnnulusConfig) -> None:
    if k < cfg.k_min:
        raise InputError(
            f"annulus level k = {k} is below floor(log2(a1)) = {cfg.k_min}"
        )


def verify_annulus_lower(b: SampledFunction, tf: TestFunction, k: int,
                         kernel: CauchyKernel,
                         cfg: AnnulusConfig = AnnulusConfig()) -> AnnulusBoundReport:
    """Measure the commutator mass on the right-hand annulus at level ``k``.

    ``ratio / eps^p`` is the empirical constant of the lower power law;
    level-independence of that number is the content being verified.
    """
    _require_level(k, cfg)
    region = Annulus(tf.base, k).as_interval
    lhs = _commutator_power_integral(b, tf, kernel, region, cfg.eval_cells)
    normalizer = 2.0 ** (-k * (tf.p - 1.0))
    return AnnulusBoundReport(
        k=k, lhs=lhs, normalizer=normalizer, ratio=lhs / normalizer, side=Side.LOWER
    )


def verify_annulus_upper(b: SampledFunction, tf: TestFunction, k: int,
                         kernel: CauchyKernel,
                         cfg: AnnulusConfig = AnnulusConfig()) -> AnnulusBoundReport:
    """Measure the commutator mass on the dyadic shell ``2^(k+1) I minus 2^k I``.

    The shell has a piece on each side of the base interval.  Bounded
    ``ratio`` across levels is the upper power law at desk scale.
    """
    _require_level(k, cfg)
    r = tf.base.radius
    c = tf.base.center
    right = Annulus(tf.base, k).as_interval
    left = Interval.from_endpoints(c - (2.0 ** (k + 1)) * r, c - (2.0**k) * r)
    cells = max(8, cfg.eval_cells // 2)
    lhs = sum(
        _commutator_power_integral(b, tf, kernel, region, cells)
        for region in (left, right)
    )
    normalizer = 2.0 ** (-k * (tf.p - 1.0))
    return AnnulusBoundReport(
        k=k, lhs=lhs, normalizer=normalizer, ratio=lhs / normalizer, side=Side.UPPER
    )


def verify_intermediate_bounds(b: SampledFunction, tf: TestFunction, k: int,
                               kernel: CauchyKernel,
                               cfg: AnnulusConfig = AnnulusConfig()) -> BoundReport:
    """Check the two workhorse estimates behind the annulus power laws.

    (i) pointwise on the annulus: the outer term
        ``B(y) = (b(y) - a) C(f)(y)`` is majorized by
        ``C_fold * r |I|^(1/p') |b(y) - a| / |x0 - y|^2`` with the
        folded constant ``C_fold = 2 (L + 1) * 5/2`` (kernel smoothness
        times the pointwise size cap of ``f``), checked with ``POINTWISE_SLACK``;
    (ii) median drift: ``|median(b, 2^(k+1) I) - median(b, I)|`` against
        ``k`` times a BMO lower bound of ``b`` over the dilate family;
        the ratio is recorded and capped by ``DRIFT_BOUND``.
    """
    _require_level(k, cfg)
    region = Annulus(tf.base, k).as_interval
    base = tf.base
    p_conj = tf.p / (tf.p - 1.0)
    alpha = median(b, base).value

    if b.source is None:
        if region.lower < b.lower - b.step or region.upper > b.upper + b.step:
            raise InputError(
                "annulus leaves the sampled range of the symbol; widen the grid"
            )
    xs, _ = _region_lattice(region, cfg.eval_cells)
    cf = pv_values(kernel, tf.f, xs)
    b_at = b.value_at(xs).real
    lhs = np.abs(b_at - alpha) * np.abs(cf)
    L = kernel.curve.lipschitz_constant
    c_fold = 2.0 * (L + 1.0) * 2.5
    majorant = (
        c_fold
        * base.radius
        * base.measure ** (1.0 / p_conj)
        * np.abs(b_at - alpha)
        / (base.center - xs) ** 2
    )
    pointwise_pass = lhs <= (1.0 + POINTWISE_SLACK) * majorant

    dilate = base.dilate(2.0 ** (k + 1))
    if b.source is not None:
        # The dilate family reaches far outside the base; resample rather
        # than silently measuring only the covered part.
        wide = sample(b.source, dilate.lower, dilate.upper,
                      max(4096, 4 * cfg.eval_cells))
    else:
        if dilate.lower < b.lower - b.step or dilate.upper > b.upper + b.step:
            raise InputError(
                "dilated interval leaves the sampled range of the symbol; "
                "widen the grid"
            )
        wide = b
    drift = abs(median(wide, dilate).value - alpha)
    sweep = [base.dilate(2.0**j) for j in range(0, k + 2)]
    bmo_lower = bmo_norm(wide, sweep)
    drift_rhs = k * bmo_lower
    drift_ratio = drift / drift_rhs if drift_rhs > 0 else (0.0 if drift == 0 else np.inf)
    drift_pass = bool(drift_ratio <= DRIFT_BOUND)

    return BoundReport(
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
    )


def annulus_ladder_reports(b: SampledFunction, tf: TestFunction,
                           k_ladder: Sequence[int], kernel: CauchyKernel,
                           cfg: AnnulusConfig = AnnulusConfig()
                           ) -> Tuple[list, list]:
    """Lower and upper reports across a level ladder, in ladder order."""
    ks = list(k_ladder)
    if not ks:
        raise InputError("level ladder must be non-empty")
    lowers = [verify_annulus_lower(b, tf, k, kernel, cfg) for k in ks]
    uppers = [verify_annulus_upper(b, tf, k, kernel, cfg) for k in ks]
    return lowers, uppers

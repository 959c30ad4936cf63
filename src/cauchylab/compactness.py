"""Total-boundedness diagnostics and non-compactness witnesses.

A set of functions is precompact in ``L^p`` exactly when it is uniformly
norm-bounded, uniformly small outside large balls, and uniformly
continuous under small translations.  ``fk_diagnose`` measures those
three curves for a finite image set.

The converse direction is witnessed constructively: when a symbol keeps
oscillating on a sequence of intervals whose geometry degenerates in one
of three ways (lengths collapsing, lengths exploding, or centers
escaping), the commutator images of the oscillation-split test functions
stay uniformly separated in ``L^p``, so no subsequence can converge.
``witness_separation`` builds the test functions, computes the full
pairwise distance matrix of the images on one shared evaluation lattice,
and reports the separation floor

    A3 = 8^(1-p) * C1 * eps^p * A1^(1-p)

assembled from the measured annulus constant ``C1`` and oscillation
level ``eps``.  All three degeneration cases share this one engine; the
case tag only validates the sequence geometry (measure ratios below
``1/A2`` in the collapsing and exploding cases, disjoint ``A2`` dilates
in the escaping case).  Infinite-sequence claims are truncated to the
computed finite prefix, and the report says so.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .commutator import commutator_values
from .errors import InputError
from .kernel import CauchyKernel
from .operator import _masked_sums, pv_values, truncated_values
from .reports import BoundReport
from .sampling import Interval, SampledFunction, _lp, lp_norm, sample_on, shift
from .testfn import AnnulusConfig, TestFunction, annulus_ladder_reports, build_test_function

TAIL_WINDOW_FACTOR = 20.0  # tail lattice reaches factor * t_max * R
TAIL_CELLS_PER_SIDE = 2048
TAIL_SLOPE_BAND = 0.15  # pass band of the fitted tail slope around -1/p'
C1_LEVELS = 3  # annulus levels per interval behind the witness C1 and C2


@dataclass(frozen=True)
class FkReport:
    """The three precompactness curves of an image set."""

    uniform_bound: float
    tail_curve: Tuple[Tuple[float, float], ...]
    equicontinuity_curve: Tuple[Tuple[float, float], ...]


class WitnessCase(enum.Enum):
    SMALL_SCALE = "small"
    LARGE_SCALE = "large"
    FAR_AWAY = "far"


@dataclass(frozen=True)
class WitnessConfig:
    """A degeneration case, its constants, and the interval sequence."""

    case: WitnessCase
    a1: float
    a2: float
    interval_sequence: Tuple[Interval, ...]
    p: float

    def __post_init__(self):
        if not self.a1 > 4:
            raise InputError(f"need a1 > 4, got {self.a1}")
        if not self.a2 > self.a1:
            raise InputError(f"need a2 > a1, got a2 = {self.a2}, a1 = {self.a1}")
        if not (self.p > 1 and np.isfinite(self.p)):
            raise InputError(f"p must lie in (1, inf), got {self.p}")
        seq = tuple(self.interval_sequence)
        if len(seq) < 2:
            raise InputError("interval sequence must have at least two entries")
        object.__setattr__(self, "interval_sequence", seq)
        if self.case is WitnessCase.SMALL_SCALE:
            for a, b in zip(seq, seq[1:]):
                if not b.measure / a.measure < 1.0 / self.a2:
                    raise InputError(
                        "collapsing sequence needs successive measure ratios "
                        f"below 1/a2 = {1.0 / self.a2}"
                    )
        elif self.case is WitnessCase.LARGE_SCALE:
            for a, b in zip(seq, seq[1:]):
                if not a.measure / b.measure < 1.0 / self.a2:
                    raise InputError(
                        "exploding sequence needs reversed measure ratios "
                        f"below 1/a2 = {1.0 / self.a2}"
                    )
        else:
            dilates = [I.dilate(self.a2) for I in seq]
            for i in range(len(dilates)):
                for j in range(i + 1, len(dilates)):
                    if not dilates[i].is_disjoint_from(dilates[j]):
                        raise InputError(
                            f"a2 dilates of intervals {i} and {j} overlap"
                        )


@dataclass
class WitnessReport:
    """Pairwise image distances plus the separation-floor bookkeeping."""

    distances: np.ndarray
    min_offdiag: float
    epsilon: float
    c1_empirical: float
    c2_empirical: float
    a3: float
    a2_used: float
    a2_recommended: float
    oscillations: Tuple[float, ...]
    images: Tuple[SampledFunction, ...]
    prefix_note: str = (
        "separation certified for the computed finite prefix only"
    )


def fk_diagnose(images: Sequence[SampledFunction], p: float,
                t_ladder: Sequence[float], z_ladder: Sequence[float]) -> FkReport:
    """Measure the three precompactness curves over a finite image set.

    Tail values at radius ``t`` are the largest ``L^p`` mass outside
    ``I(0, t)`` over the set; equicontinuity values at shift ``z`` (a
    whole number of grid steps) are the largest ``L^p`` distance between
    an image and its translate.
    """
    if len(images) == 0:
        raise InputError("image set must be non-empty")
    ts = [float(t) for t in t_ladder]
    zs = [float(z) for z in z_ladder]
    if not ts or not zs:
        raise InputError("ladders must be non-empty")
    if any(t <= 0 for t in ts):
        raise InputError("tail radii must be positive")
    uniform = max(lp_norm(g, p) for g in images)

    def tail(g: SampledFunction, t: float) -> float:
        return _lp(g.values[np.abs(g.nodes) > t], g.step, p)

    tail_curve = tuple((t, max(tail(g, t) for g in images)) for t in sorted(ts))
    eq_curve = []
    for z in sorted(zs, key=abs):
        worst = 0.0
        for g in images:
            worst = max(worst, _lp(shift(g, z).values - g.values, g.step, p))
        eq_curve.append((z, worst))
    return FkReport(
        uniform_bound=uniform,
        tail_curve=tail_curve,
        equicontinuity_curve=tuple(eq_curve),
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
    if not (p > 1 and np.isfinite(p)):
        raise InputError(f"p must lie in (1, inf), got {p}")
    ts = sorted(float(t) for t in t_ladder)
    if len(ts) < 2:
        raise InputError("need at least two truncation factors to fit a slope")
    if ts[0] <= 2:
        raise InputError("truncation factors must exceed 2")
    R = float(support_radius)
    if not R > 0:
        raise InputError("support radius must be positive")
    outside = ~Interval(0.0, R).contains(b.nodes)
    if np.any(np.abs(b.values[outside]) > 0):
        raise InputError("symbol does not vanish outside I(0, R)")
    if len(family) == 0:
        raise InputError("family must be non-empty")

    reach = TAIL_WINDOW_FACTOR * ts[-1] * R
    lo = ts[0] * R
    cell_h = (reach - lo) / TAIL_CELLS_PER_SIDE
    right = lo + (np.arange(TAIL_CELLS_PER_SIDE) + 0.5) * cell_h
    xs = np.concatenate([-right[::-1], right])

    worst = np.zeros(len(ts))
    for f in family:
        if not b.same_grid_as(f):
            raise InputError("symbol and family members must share one grid")
        bf = f.with_values(b.values * f.values)
        support = np.abs(bf.values) > 0
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
        for i, t in enumerate(ts):
            worst[i] = max(worst[i], _lp(g[np.abs(xs) > t * R], cell_h, p))

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
    if not (ratio > 1 and r0 > 0 and count >= 2):
        raise InputError("need ratio > 1, r0 > 0, count >= 2")
    return tuple(Interval(center, r0 * ratio ** (-l)) for l in range(count))


def large_scale_sequence(center: float, r0: float, ratio: float, count: int) -> Tuple[Interval, ...]:
    """Concentric intervals with radii growing by ``ratio`` each step."""
    if not (ratio > 1 and r0 > 0 and count >= 2):
        raise InputError("need ratio > 1, r0 > 0, count >= 2")
    return tuple(Interval(center, r0 * ratio**l) for l in range(count))


def far_away_sequence(c_eps: float, a2: float, count: int) -> Tuple[Interval, ...]:
    """Radius-``c_eps`` intervals marching away from the origin.

    Uses the recursion ``R_j = |x_(j-1)| + 4 a2 c_eps``, ``x_(-1) = 0``, for
    the excluded ball and places each center one ``a2`` radius beyond it,
    which keeps the ``a2`` dilates pairwise disjoint with margin.
    """
    if not (c_eps > 0 and a2 > 0 and count >= 2):
        raise InputError("need c_eps > 0, a2 > 0, count >= 2")
    out: List[Interval] = []
    x = 0.0
    for _ in range(count):
        R = abs(x) + 4.0 * a2 * c_eps
        x = R + a2 * c_eps
        out.append(Interval(x, c_eps))
    return tuple(out)


def choose_a2(c1: float, c2: float, epsilon: float, a1: float, p: float) -> float:
    """Smallest power of two separating the floor ``A3`` from the spill bound.

    Picks ``A2 = 2^m`` with
    ``2^(floor(log2 A2) (p-1)) > 2 C2 / ((1 - 2^(1-p)) A3)`` and
    ``A2 > A1``, so the outside spill of one image cannot eat more than
    half of the separation floor of another.
    """
    if not (c1 > 0 and c2 > 0 and epsilon > 0):
        raise InputError("need positive empirical constants and oscillation")
    a3 = 8.0 ** (1.0 - p) * c1 * epsilon**p * a1 ** (1.0 - p)
    rhs = 2.0 * c2 / ((1.0 - 2.0 ** (1.0 - p)) * a3)
    m = max(
        math.floor(math.log2(rhs) / (p - 1.0)) + 1,
        math.floor(math.log2(a1)) + 1,
    )
    return float(2.0**m)


@dataclass(frozen=True)
class WitnessEngineConfig:
    """Resolution of the shared-lattice witness computation.

    The lattice has ``eval_cells`` cells over the ``a2`` dilates of the
    sequence plus 5% on each side.  Every test function lives on its own
    grid, a power-of-two refinement of that lattice with at least
    ``nodes_per_radius`` nodes per radius, so evaluation points land on
    node- or midpoint-lattice positions of every grid.
    """

    eval_cells: int = 8192
    nodes_per_radius: int = 64
    annulus: AnnulusConfig = AnnulusConfig(a1=8.0, eval_cells=256)

    def __post_init__(self):
        if self.eval_cells < 1:
            raise InputError(f"need eval_cells >= 1, got {self.eval_cells}")
        if self.nodes_per_radius < 1:
            raise InputError(f"need nodes_per_radius >= 1, got {self.nodes_per_radius}")


def witness_separation(b: SampledFunction, cfg: WitnessConfig, kernel: CauchyKernel,
                       engine: WitnessEngineConfig = WitnessEngineConfig()) -> WitnessReport:
    """Pairwise ``L^p`` distances between commutator images of the sequence.

    The symbol must oscillate on every interval of the sequence; a
    constant stretch is rejected with the offending index.  The report
    carries the measured oscillation floor ``eps``, the empirical
    annulus constants, the separation floor ``A3``, and the recommended
    ``A2`` for reproducibility.
    """
    if b.source is None:
        raise InputError(
            "witness sequences span many scales; the symbol must carry a "
            "source callable (build it from a named profile)"
        )
    seq = cfg.interval_sequence
    p = cfg.p

    lo = min(I.dilate(cfg.a2).lower for I in seq)
    hi = max(I.dilate(cfg.a2).upper for I in seq)
    pad = 0.05 * (hi - lo)
    window = Interval.from_endpoints(lo - pad, hi + pad)
    w0 = window.lower
    h_eval = window.measure / engine.eval_cells
    xs = w0 + (np.arange(engine.eval_cells) + 0.5) * h_eval

    k_lo = engine.annulus.k_min
    k_ladder = list(range(k_lo, k_lo + C1_LEVELS))

    images: List[SampledFunction] = []
    oscillations: List[float] = []
    c1_candidates: List[float] = []
    c2_candidates: List[float] = []
    for idx, I in enumerate(seq):
        refine = max(0, math.ceil(math.log2(h_eval * engine.nodes_per_radius / I.radius)))
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
        lowers, uppers = annulus_ladder_reports(b_local, tf, k_ladder, kernel,
                                                engine.annulus)
        c1_candidates.extend(rep.ratio / tf.epsilon**p for rep in lowers)
        c2_candidates.extend(rep.ratio for rep in uppers)
        images.append(
            SampledFunction(float(xs[0]), h_eval,
                            commutator_values(b_local, tf.f, kernel, xs))
        )

    eps = min(oscillations)
    c1 = min(c1_candidates)
    c2 = max(c2_candidates)
    n = len(seq)
    dist = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            d = _lp(images[i].values - images[j].values, h_eval, p)
            dist[i, j] = d
            dist[j, i] = d
    offdiag = dist[~np.eye(n, dtype=bool)]
    a3 = 8.0 ** (1.0 - p) * c1 * eps**p * cfg.a1 ** (1.0 - p)
    return WitnessReport(
        distances=dist,
        min_offdiag=float(np.min(offdiag)),
        epsilon=eps,
        c1_empirical=c1,
        c2_empirical=c2,
        a3=a3,
        a2_used=cfg.a2,
        a2_recommended=choose_a2(c1, c2, eps, cfg.a1, p),
        oscillations=tuple(oscillations),
        images=tuple(images),
    )


def equicontinuity_terms(b: SampledFunction, f: SampledFunction, kernel: CauchyKernel,
                         split: float, z: float, window: Interval,
                         p: float = 2.0) -> BoundReport:
    """Four-way split of a commutator translation difference.

    The difference ``[b, C]f(x) - [b, C]f(x + z)`` splits at the radius
    ``t = |z| / split`` into: the symbol increment against the truncated
    integral (term 1), the kernel increment against the symbol
    oscillation (term 2), and the two short-range pieces around ``x``
    and ``x + z`` (terms 3 and 4).  ``split`` (in ``(0, 1/2)``) and ``z``
    are independent knobs.  Each term's ``L^p`` norm over the window is
    reported together with its model rate: term 2 against
    ``split * |f|_p``, terms 3 and 4 against ``(|z| / split) * |f|_p``.
    The pass criterion is exactness of the split: the four terms must
    re-sum to the translation difference, which is computed
    independently by ``commutator_values``.

    Every term combines four kernel sums, each applied to ``f`` and to
    ``bf = b f``:

    * ``F``, the truncated integral at ``x``, over the nodes with
      ``|y - x| > t``;
    * ``G``, the kernel at ``x + z`` over the same nodes, which is the
      window ``[-t - z, t - z]`` seen from ``x + z``;
    * ``P`` and ``Q``, the principal values at ``x`` and at ``x + z``.

    Then term 1 is ``(b(x) - b(x + z)) F f``, term 2 is
    ``(b(x + z) F f - F bf) - (b(x + z) G f - G bf)``, term 3 is
    ``b(x) (P f - F f) - (P bf - F bf)`` and term 4 is
    ``-(b(x + z) (Q f - G f) - (Q bf - G bf))``.
    """
    if not 0 < split < 0.5:
        raise InputError(f"split parameter must lie in (0, 1/2), got {split}")
    if z == 0:
        raise InputError("need a nonzero shift")
    if not b.same_grid_as(f):
        raise InputError("symbol and input must share one grid")
    k_steps = round(z / f.step)
    if abs(z / f.step - k_steps) > 1e-9:
        raise InputError("shift must be a whole number of grid steps")
    xs = f.midpoints_in(window)
    if xs.size == 0:
        raise InputError("window contains no midpoint-lattice points")
    t = abs(z) / split

    b_x = b.value_at(xs)
    b_xz = b.value_at(xs + z)
    bf = f.with_values(b.values * f.values)
    F_f, F_bf = (truncated_values(kernel, u, xs, t) for u in (f, bf))
    G_f, G_bf = (_masked_sums(kernel, u, xs + z, -t - z, t - z) for u in (f, bf))
    P_f, P_bf = (pv_values(kernel, u, xs) for u in (f, bf))
    Q_f, Q_bf = (pv_values(kernel, u, xs + z) for u in (f, bf))
    L = np.stack([
        (b_x - b_xz) * F_f,
        (b_xz * F_f - F_bf) - (b_xz * G_f - G_bf),
        b_x * (P_f - F_f) - (P_bf - F_bf),
        -(b_xz * (Q_f - G_f) - (Q_bf - G_bf)),
    ])

    g_x = commutator_values(b, f, kernel, xs)
    g_xz = commutator_values(b, f, kernel, xs + z)
    residual = L.sum(axis=0) - (g_x - g_xz)
    scale = max(float(np.max(np.abs(g_x - g_xz))), 1e-30)
    norms = [_lp(L[i], f.step, p) for i in range(4)]
    f_norm = lp_norm(f, p)
    exact = float(np.max(np.abs(residual))) <= 1e-10 * scale
    return BoundReport(
        inequality="term1 + term2 + term3 + term4 == [b,C]f(x) - [b,C]f(x+z)",
        columns={
            "term": np.arange(1, 5),
            "lhs": np.asarray(norms),
            "rhs": np.asarray([
                np.inf,
                split * f_norm,
                (abs(z) / split) * f_norm,
                (abs(z) / split) * f_norm,
            ]),
            "pass": np.full(4, exact),
        },
        extras={
            "split": split,
            "z": z,
            "split_radius": t,
            "residual_max": float(np.max(np.abs(residual))),
            "symbol_increment_sup": float(np.max(np.abs(b_x - b_xz))),
            "term2_ratio": norms[1] / (split * f_norm) if f_norm else 0.0,
            "term3_ratio": norms[2] / ((abs(z) / split) * f_norm) if f_norm else 0.0,
            "term4_ratio": norms[3] / ((abs(z) / split) * f_norm) if f_norm else 0.0,
        },
    )

"""The commutator of multiplication by b with the Cauchy integral.

``[b, C](f)(x) = b(x) (C f)(x) - C(b f)(x)``.  Both applications run on
the shared grid of ``b`` and ``f``; outputs live on the midpoint lattice,
where the outer factor ``b(x)`` is read from the symbol's source callable
when it has one and from the bracketing-node mean otherwise (exact for
constants and linear in ``b``, so the algebraic identities survive).

The quantitative lower-bound check: for well-separated same-radius
intervals the operator does not wash out indicators.  With ``I0`` and
``I1`` of radius ``r`` at mutual distance pinned to ``[M r, 2 M r]``, the
modulus of ``C(chi_I1)`` on ``I0`` is at least a constant over ``M``.
The checker compares ``pi`` times the computed modulus (restoring the
conventional prefactor that the target constant ``2 / ((L^2 + 1) M)``
is stated with) and passes at a configurable slack below the target.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .curve import LipschitzCurve
from .errors import InputError
from .kernel import CauchyKernel
from .operator import _points, pv_values
from .reports import BoundReport
from .sampling import Interval, SampledFunction, lp_norm, sample


@dataclass(frozen=True)
class HomogeneityCase:
    """Two disjoint radius-``r`` intervals with separation pinned to [Mr, 2Mr]."""

    M: float
    r: float
    I0: Interval
    I1: Interval
    curve: LipschitzCurve

    def __post_init__(self):
        if not self.M > 10:
            raise InputError(f"need M > 10, got {self.M}")
        if not self.r > 0:
            raise InputError("need r > 0")
        for name, I in (("I0", self.I0), ("I1", self.I1)):
            if abs(I.radius - self.r) > 1e-12 * self.r:
                raise InputError(f"{name} must have radius r = {self.r}")
        if not self.I0.is_disjoint_from(self.I1):
            raise InputError("I0 and I1 must be disjoint")
        gap = abs(self.I1.center - self.I0.center)
        sep_min = gap - 2.0 * self.r
        sep_max = gap + 2.0 * self.r
        if sep_min < self.M * self.r * (1.0 - 1e-12):
            raise InputError(
                f"closest points are {sep_min}, below the window floor M r = {self.M * self.r}"
            )
        if sep_max > 2.0 * self.M * self.r * (1.0 + 1e-12):
            raise InputError(
                f"farthest points are {sep_max}, above the window cap 2 M r = {2 * self.M * self.r}"
            )


def make_homogeneity_case(curve: LipschitzCurve, M: float, r: float) -> HomogeneityCase:
    """``I0 = I(0, r)`` and ``I1`` at ``1.2 (M + 1) r``, which satisfies the separation window for M > 10."""
    I0 = Interval(0.0, r)
    I1 = Interval(1.2 * (M + 1.0) * r, r)
    return HomogeneityCase(M=M, r=r, I0=I0, I1=I1, curve=curve)


@dataclass(frozen=True)
class HomogeneityConfig:
    quadrature_cells: int = 2048  # cells across I1
    eval_points: int = 128        # evaluation lattice across I0
    slack: float = 0.9            # quadrature and dropped-imaginary-part cushion

    def __post_init__(self):
        if self.eval_points < 1:
            raise InputError(f"need eval_points >= 1, got {self.eval_points}")


def homogeneity_check(case: HomogeneityCase,
                      cfg: HomogeneityConfig = HomogeneityConfig()) -> BoundReport:
    """Lower bound for ``|C(chi_I1)|`` on ``I0`` against ``2 / ((L^2 + 1) M)``.

    Reports both the raw minimum modulus and the prefactor-adjusted value
    ``pi * min``; the pass criterion is ``pi * min >= slack * target``.
    """
    kernel = CauchyKernel.for_curve(case.curve)
    chi = sample(lambda y: np.ones_like(y), case.I1.lower, case.I1.upper,
                 cfg.quadrature_cells)
    xs = case.I0.lower + (np.arange(cfg.eval_points) + 0.5) * (
        case.I0.measure / cfg.eval_points
    )
    values = np.abs(pv_values(kernel, chi, xs))
    L = case.curve.lipschitz_constant
    target = 2.0 / ((L * L + 1.0) * case.M)
    adjusted = np.pi * values
    passed = adjusted >= cfg.slack * target
    return BoundReport(
        inequality="pi * |C(chi_I1)(x)| >= slack * 2 / ((L^2+1) M) on I0",
        columns={"x": xs, "lhs": adjusted, "rhs": np.full_like(xs, cfg.slack * target),
                 "pass": passed},
        extras={
            "M": case.M,
            "L": L,
            "raw_min": float(values.min()),
            "adjusted_min": float(adjusted.min()),
            "target": target,
            "slack": cfg.slack,
            "separation_floor": case.M * case.r,
            "separation_cap": 2.0 * case.M * case.r,
        },
    )


def _require_shared_grid(b: SampledFunction, f: SampledFunction) -> None:
    if not b.same_grid_as(f):
        raise InputError("symbol and input must share one grid (origin, step, count)")


def commutator_values(b: SampledFunction, f: SampledFunction, kernel: CauchyKernel,
                      xs, b_outer: Optional[np.ndarray] = None) -> np.ndarray:
    """``[b, C] f`` at the given aligned points.

    ``b_outer`` overrides the values of ``b`` at the evaluation points;
    by default they come from ``b.value_at``.
    """
    _require_shared_grid(b, f)
    xs = _points(xs)
    if b_outer is None:
        b_outer = b.value_at(xs)
    else:
        b_outer = np.asarray(b_outer, dtype=np.complex128)
        if b_outer.shape != xs.shape:
            raise InputError("b_outer must match the evaluation points")
    bf = f.with_values(b.values * f.values)
    return b_outer * pv_values(kernel, f, xs) - pv_values(kernel, bf, xs)


def apply_commutator(b: SampledFunction, f: SampledFunction, kernel: CauchyKernel,
                     window: Interval) -> SampledFunction:
    """Commutator output on the midpoint lattice of the declared window."""
    xs = f.midpoints_in(window)
    if xs.size == 0:
        raise InputError("evaluation window contains no midpoint-lattice points")
    vals = commutator_values(b, f, kernel, xs)
    return SampledFunction(float(xs[0]), f.step, vals)


def commutator_norm_lower(b: SampledFunction, p: float,
                          family: Sequence[SampledFunction], kernel: CauchyKernel,
                          window: Interval) -> float:
    """Largest ``|[b, C] f|_p / |f|_p`` over the family (lower bound only)."""
    if len(family) == 0:
        raise InputError("family must be non-empty")
    best = 0.0
    for f in family:
        denom = lp_norm(f, p)
        if denom == 0.0:
            raise InputError("family member has zero norm")
        image = apply_commutator(b, f, kernel, window)
        best = max(best, lp_norm(image, p) / denom)
    return best

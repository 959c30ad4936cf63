"""The commutator of multiplication by b with the Cauchy integral.

``[b, C](f)(x) = b(x) (C f)(x) - C(b f)(x)``.  Both applications run on
the shared grid of ``b`` and ``f``; outputs live on the midpoint lattice,
where the outer factor ``b(x)`` is read from the symbol's source callable
when it has one and from the bracketing-node mean otherwise (exact for
constants and linear in ``b``, so the algebraic identities survive).
``f`` may be a block of functions (see ``sampling``): the commutator of a
whole family is then two kernel passes, ``C(F)`` and ``C(b F)``, with one
output column per function.

The quantitative lower-bound check: for well-separated same-radius
intervals the operator does not wash out indicators.  With ``I0`` and
``I1`` of radius ``r`` at mutual distance pinned to ``[M r, 2 M r]``, the
modulus of ``C(chi_I1)`` on ``I0`` is at least a constant over ``M``.
``homogeneity_check(curve, M, r)`` places the two intervals itself, so
the window holds by construction for every ``M > 10``.
The checker compares ``pi`` times the computed modulus (restoring the
conventional prefactor that the target constant ``2 / ((L^2 + 1) M)``
is stated with) and passes at a positive ``slack`` (0.9 by default) times
the target, a cushion for quadrature error and the dropped imaginary part.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .curve import LipschitzCurve
from .errors import InputError
from .kernel import CauchyKernel
from .operator import _on_window, _points, pv_values
from .reports import BoundReport
from .sampling import (Interval, SampledFunction, _cell_centres, _rowwise, lp_norm, sample,
                       stack)


def homogeneity_check(curve: LipschitzCurve, M: float, r: float, quadrature_cells: int = 2048,
                      eval_points: int = 128, slack: float = 0.9) -> BoundReport:
    """Lower bound for ``|C(chi_I1)|`` on ``I0`` against ``2 / ((L^2 + 1) M)``.

    ``I0 = I(0, r)`` and ``I1 = I(1.2 (M + 1) r, r)``; for ``M > 10``
    their closest points are ``(1.2 M - 0.8) r >= M r`` apart and their
    farthest ``(1.2 M + 3.2) r <= 2 M r``, inside the separation window.
    ``I1`` carries ``quadrature_cells`` cells and ``I0`` an
    ``eval_points``-point lattice.  Reports both the raw minimum modulus
    and the prefactor-adjusted value ``pi * min``; the pass criterion is
    ``pi * min >= slack * target``.
    """
    if not M > 10:
        raise InputError(f"need M > 10, got {M}")
    if not r > 0:
        raise InputError(f"need r > 0, got {r}")
    if eval_points < 1:
        raise InputError(f"need eval_points >= 1, got {eval_points}")
    if not (slack > 0 and np.isfinite(slack)):
        raise InputError(f"need a finite slack > 0, got {slack}")
    I0 = Interval(0.0, r)
    I1 = Interval(1.2 * (M + 1.0) * r, r)
    kernel = CauchyKernel.for_curve(curve)
    chi = sample(lambda y: np.ones_like(y), I1.lower, I1.upper, quadrature_cells)
    xs, _ = _cell_centres(I0.lower, I0.measure, eval_points)
    values = np.abs(pv_values(kernel, chi, xs))
    L = curve.lipschitz_constant
    target = 2.0 / ((L * L + 1.0) * M)
    adjusted = np.pi * values
    passed = adjusted >= slack * target
    return BoundReport(
        inequality="pi * |C(chi_I1)(x)| >= slack * 2 / ((L^2+1) M) on I0",
        columns={"x": xs, "lhs": adjusted, "rhs": np.full_like(xs, slack * target),
                 "pass": passed},
        extras={
            "M": M,
            "L": L,
            "raw_min": float(values.min()),
            "adjusted_min": float(adjusted.min()),
            "target": target,
            "slack": slack,
            "separation_floor": M * r,
            "separation_cap": 2.0 * M * r,
        },
    )


def _require_shared_grid(b: SampledFunction, f: SampledFunction) -> None:
    b.require_single("the symbol of a commutator")
    if not b.same_grid_as(f):
        raise InputError("symbol and input must share one grid (origin, step, count)")


def commutator_values(b: SampledFunction, f: SampledFunction, kernel: CauchyKernel,
                      xs, b_outer: Optional[np.ndarray] = None) -> np.ndarray:
    """``[b, C] f`` at the given aligned points.

    ``f`` is one function, giving ``(len(xs),)``, or a block of ``c``,
    giving ``(len(xs), c)``; either way it costs two ``pv_values`` passes.
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
    bf = f.with_values(_rowwise(b.values, f.values))
    return _rowwise(b_outer, pv_values(kernel, f, xs)) - pv_values(kernel, bf, xs)


def apply_commutator(b: SampledFunction, f: SampledFunction, kernel: CauchyKernel,
                     window: Interval) -> SampledFunction:
    """Commutator output on the midpoint lattice of the declared window; a block maps to a block."""
    return _on_window(f, window, lambda xs: commutator_values(b, f, kernel, xs))


def commutator_norm_ratios(b: SampledFunction, p: float,
                           family: Sequence[SampledFunction], kernel: CauchyKernel,
                           window: Interval) -> np.ndarray:
    """``|[b, C] f|_p / |f|_p`` for each member of the family, from one block application."""
    if len(family) == 0:
        raise InputError("family must be non-empty")
    block = stack(family)
    denom = lp_norm(block, p)
    if np.any(denom == 0.0):
        raise InputError("family member has zero norm")
    return lp_norm(apply_commutator(b, block, kernel, window), p) / denom


def commutator_norm_lower(b: SampledFunction, p: float,
                          family: Sequence[SampledFunction], kernel: CauchyKernel,
                          window: Interval) -> float:
    """Largest ``|[b, C] f|_p / |f|_p`` over the family (lower bound only)."""
    return float(np.max(commutator_norm_ratios(b, p, family, kernel, window)))

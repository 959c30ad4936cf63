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
``homogeneity_check(curve, M_ladder, r)`` places the two intervals itself
for each ``M`` of the ladder, so the window holds by construction for
every ``M > 10``, and returns one report with a row per ``M``.  A row
compares ``pi`` times the smallest computed modulus on ``I0`` (restoring
the conventional prefactor that the target constant ``2 / ((L^2 + 1) M)``
is stated with) with ``HOMOGENEITY_SLACK`` times the target, a cushion
for quadrature error and the dropped imaginary part.  On a ladder of two
or more ``M`` the log-log slope of those minima against ``M`` must also
lie within ``SLOPE_BAND`` of -1.

``unit_images`` is the one path of a family through the commutator: it
refuses a member of zero ``L^p`` norm by its index, scales each member to
unit norm and applies the block once.  ``commutator_norm_lower`` reports
the norms of those images, ``|[b, C] f|_p / |f|_p`` per member, and their
maximum, a lower bound for the norm; ``fk-diagnose`` measures them too.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .curve import LipschitzCurve
from .errors import InputError
from .kernel import CauchyKernel
from .operator import _on_window, _points, pv_values
from .reports import BoundReport
from .sampling import (Interval, SampledFunction, _cell_centres, _finite, _rowwise, lp_norm,
                       sample, stack)

HOMOGENEITY_SLACK = 0.9  # cushion of the homogeneity lower bound
SLOPE_BAND = 0.1  # pass band of the fitted slope against M around -1


def homogeneity_check(curve: LipschitzCurve, M_ladder: Sequence[float], r: float,
                      quadrature_cells: int = 2048, eval_points: int = 128) -> BoundReport:
    """Lower bound for ``|C(chi_I1)|`` on ``I0`` against ``2 / ((L^2 + 1) M)``, per ``M``.

    ``I0 = I(0, r)`` and ``I1 = I(1.2 (M + 1) r, r)``; for ``M > 10``
    their closest points are ``(1.2 M - 0.8) r >= M r`` apart and their
    farthest ``(1.2 M + 3.2) r <= 2 M r``, inside the separation window.
    ``I1`` carries ``quadrature_cells`` cells and ``I0`` one
    ``eval_points``-point lattice shared by every ``M``.  Each row holds
    ``M``, the raw minimum modulus ``raw_min``, ``lhs = pi * raw_min`` and
    ``rhs = HOMOGENEITY_SLACK * target``; it passes when ``lhs >= rhs``.
    With two or more ``M`` (which must be distinct) the extras add the
    fitted ``slope`` of log ``lhs`` against log ``M``, and a row passes
    only if also ``|slope + 1| <= SLOPE_BAND``.
    """
    Ms = np.asarray(M_ladder, dtype=float)
    if Ms.size == 0:
        raise InputError("M_ladder must be non-empty")
    if not np.all(Ms > 10):
        raise InputError(f"need M > 10, got {Ms[~(Ms > 10)][0]}")
    if np.unique(Ms).size < Ms.size:
        raise InputError(f"M_ladder must not repeat an entry, got {Ms.tolist()}")
    if not r > 0:
        raise InputError(f"need r > 0, got {r}")
    if eval_points < 1:
        raise InputError(f"need eval_points >= 1, got {eval_points}")
    I0 = Interval(0.0, r)
    kernel = CauchyKernel.for_curve(curve)
    xs, _ = _cell_centres(I0.lower, I0.measure, eval_points)
    raw_min = np.empty(Ms.size)
    for i, M in enumerate(Ms):
        I1 = Interval(1.2 * (M + 1.0) * r, r)
        chi = sample(lambda y: np.ones_like(y), I1.lower, I1.upper, quadrature_cells)
        raw_min[i] = np.abs(pv_values(kernel, chi, xs)).min()
    L = curve.lipschitz_constant
    lhs = np.pi * raw_min
    rhs = HOMOGENEITY_SLACK * (2.0 / ((L * L + 1.0) * Ms))
    passed = lhs >= rhs
    extras = {"L": L, "r": r, "slack": HOMOGENEITY_SLACK}
    if Ms.size >= 2:
        slope = float(np.polyfit(np.log(Ms), np.log(lhs), 1)[0])
        extras.update(slope=slope, slope_target=-1.0, slope_band=SLOPE_BAND)
        passed &= abs(slope + 1.0) <= SLOPE_BAND
    return BoundReport(
        inequality="min_x pi |C(chi_I1)(x)| >= slack * 2/((L^2+1) M); slope vs M is -1",
        columns={"M": Ms, "lhs": lhs, "rhs": rhs, "raw_min": raw_min, "pass": passed},
        extras=extras,
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
    ``b_outer`` overrides the values of ``b`` at the evaluation points and
    must be finite; by default they come from ``b.value_at``.
    """
    _require_shared_grid(b, f)
    xs = _points(xs)
    if b_outer is None:
        b_outer = b.value_at(xs)
    else:
        b_outer = np.asarray(b_outer, dtype=np.complex128)
        if b_outer.shape != xs.shape:
            raise InputError("b_outer must match the evaluation points")
        _finite(b_outer, "b_outer entry")
    bf = f.with_values(_rowwise(b.values, f.values))
    return _rowwise(b_outer, pv_values(kernel, f, xs)) - pv_values(kernel, bf, xs)


def apply_commutator(b: SampledFunction, f: SampledFunction, kernel: CauchyKernel,
                     window: Interval) -> SampledFunction:
    """Commutator output on the midpoint lattice of the declared window; a block maps to a block."""
    return _on_window(f, window, lambda xs: commutator_values(b, f, kernel, xs))


def unit_images(b: SampledFunction, family: Sequence[SampledFunction], p: float,
                kernel: CauchyKernel, window: Interval) -> SampledFunction:
    """``[b, C] (f / |f|_p)`` of each member ``f`` on the window, one column per member."""
    if len(family) == 0:
        raise InputError("family must be non-empty")
    block = stack(family)
    norms = lp_norm(block, p)
    if np.any(norms == 0.0):
        raise InputError(f"family member {np.flatnonzero(norms == 0.0)[0]} has zero norm")
    return apply_commutator(b, block.with_values(block.values / norms), kernel, window)


def commutator_norm_lower(b: SampledFunction, p: float,
                          family: Sequence[SampledFunction], kernel: CauchyKernel,
                          window: Interval) -> BoundReport:
    """The ``commutator_norm`` report: ``lhs`` is ``|[b, C] f|_p / |f|_p`` per ``member``.

    The extra ``norm_lower_bound`` is the largest ratio, a lower bound for the norm.
    """
    ratios = lp_norm(unit_images(b, family, p, kernel, window), p)
    return BoundReport(
        inequality="max_f |[b,C]f|_p / |f|_p over the family (lower bound)",
        columns={"member": np.arange(len(family)), "lhs": ratios},
        extras={"p": p, "norm_lower_bound": float(np.max(ratios))},
    )

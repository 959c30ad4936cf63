"""Reference values the benchmark computes itself, independently of the library.

Operator products are checked against a dense midpoint sum taken one
target at a time; oscillation tables against mean oscillations
recomputed from node slices; lab reports against values recorded in
``lab_reference.json``.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Tuple

import numpy as np

# Largest max-relative deviation of an operator product from the dense sum.
OPERATOR_TOL = 1e-10
# Relative tolerance for recomputed oscillations and profile suprema.
OSCILLATION_TOL = 1e-10
# Relative tolerance for recorded lab report extras; leaves room for
# summation-order changes in exact fast backends.
LAB_REL_TOL = 1e-8


def cauchy_sums(nodes: np.ndarray, a_nodes: np.ndarray, values: np.ndarray,
                step: float, xs: np.ndarray, a_xs: np.ndarray,
                cut: float = 0.0) -> np.ndarray:
    """``h * sum f(y) / ((y - x) + i (A(y) - A(x)))`` over nodes with ``|y - x| > cut``."""
    out = np.empty(len(xs), dtype=np.complex128)
    for k, (x, a_x) in enumerate(zip(xs, a_xs)):
        d = nodes - x
        keep = np.abs(d) > cut
        out[k] = step * np.sum(values[keep] / (d[keep] + 1j * (a_nodes[keep] - a_x)))
    return out


def max_rel_dev(got: np.ndarray, ref: np.ndarray) -> float:
    """``max |got - ref| / max |ref|``: deviation relative to the reference's size."""
    got = np.asarray(got)
    if got.shape != ref.shape:
        return math.inf
    scale = float(np.max(np.abs(ref)))
    dev = float(np.max(np.abs(got - ref)))
    return dev / scale if scale > 0 else dev


def dyadic_levels(n: int) -> List[Tuple[int, int]]:
    """``(w, rows)`` per level of the dyadic sweep over ``n`` nodes, in sweep order."""
    out = []
    w = 2
    while w <= n - 1:
        out.append((w, n - w))
        w *= 2
    return out


def dyadic_row(n: int, k: int) -> Tuple[int, int]:
    """Width ``w`` and first node ``a`` of row ``k``: endpoints are nodes ``a`` and ``a + w``."""
    for w, rows in dyadic_levels(n):
        if k < rows:
            return w, k
        k -= rows
    raise IndexError(f"row {k} past the end of the sweep")


def mean_oscillation(vals: np.ndarray) -> float:
    return float(np.mean(np.abs(vals - vals.mean())))


def close(got: float, want: float, rel: float, scale: float = 0.0) -> bool:
    return abs(got - want) <= rel * (abs(want) + scale)


def vmo_suprema(measures: np.ndarray, lowers: np.ndarray, uppers: np.ndarray,
                oscs: np.ndarray, deltas: Sequence[float], radii: Sequence[float]):
    """The three oscillation-limit suprema, as ``((param, sup), ...)`` per limit."""

    def sup(mask):
        return float(oscs[mask].max()) if np.any(mask) else 0.0

    small = tuple((d, sup(measures < d)) for d in sorted(deltas))
    large = tuple((R, sup(measures > R)) for R in sorted(radii))
    far = tuple((R, sup((lowers >= R) | (uppers <= -R))) for R in sorted(radii))
    return small, large, far


def extras_mismatches(reports: Dict[str, dict], want: Dict[str, object]) -> List[str]:
    """Recorded ``report.field`` extras that the reports miss, one message each."""
    bad = []
    for key, expected in want.items():
        report, field = key.split(".", 1)
        got = reports.get(report, {}).get(field)
        if isinstance(expected, bool) or isinstance(got, bool):
            ok = got is expected
        elif isinstance(expected, (int, float)) and isinstance(got, (int, float)):
            ok = math.isclose(got, expected, rel_tol=LAB_REL_TOL)
        else:
            ok = got == expected
        if not ok:
            bad.append(f"{key}: got {got!r}, recorded {expected!r}")
    return bad

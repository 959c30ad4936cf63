"""The Cauchy kernel on a Lipschitz graph and its standard estimates.

The kernel is ``K(x, y) = 1 / (y - x + i (A(y) - A(x)))``; the constant
prefactor ``1/(pi i)`` is omitted by convention so the estimate constants
below are clean.  Every computation in the package uses this bare
kernel; a caller that needs the prefactor multiplies by ``1/(pi i)``
itself.

With ``L`` the Lipschitz constant of the graph, the kernel satisfies the
standard size and smoothness estimates

* ``|K(x, y)| <= 1 / |y - x|``  (size),
* ``|K(x, y) - K(x, y')| <= 2 (L + 1) |y - y'| / |y - x|^2`` whenever
  ``|y - y'| <= |y - x| / 2``  (smoothness, and the same with the
  arguments transposed),

with exponent 1 on the modulus of continuity.  The checkers test these as
exact inequalities: any violation is a bug, not noise, because the size
bound follows from ``|u + iv| >= |u|`` and the smoothness bound carries a
factor-2 cushion away from the admissibility boundary.

The random sweeps draw, check and cut their samples ``_CHECK_CHUNK`` at a
time.  They draw sample-major from the caller's generator, any
``np.random.Generator``: each sample takes its columns from consecutive
draws of ``rng.random``, so the samples do not depend on the chunk size.
A sweep returns the report a report file keeps (``_cap_rows``): at most
``MAX_REPORT_ROWS`` rows, the violations first and then the worst rows by
lhs/rhs ratio, with ``n_violations`` counted over every chunk and, past
``MAX_REPORT_ROWS`` samples, ``rows_total`` and ``rows_written``.  It
holds O(``_CHECK_CHUNK`` + ``MAX_REPORT_ROWS``) rows whatever the sample
count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curve import LipschitzCurve, eval_A
from .errors import InputError, SingularityError
from .reports import BoundReport, _cap_rows

# Samples a sweep draws and checks at a time, so that its columns and kernel
# temporaries stay a few hundred kilobytes whatever its sample count.
_CHECK_CHUNK = 1 << 14


@dataclass(frozen=True)
class CauchyKernel:
    """Kernel of the Cauchy integral along one Lipschitz graph."""

    curve: LipschitzCurve

    @property
    def smoothness_constant(self) -> float:
        """Constant ``2 (L + 1)`` of the smoothness estimate."""
        return 2.0 * (self.curve.lipschitz_constant + 1.0)

    @staticmethod
    def for_curve(curve: LipschitzCurve) -> "CauchyKernel":
        return CauchyKernel(curve)


def _offsets(kernel: CauchyKernel, x, y):
    """``y - x`` and ``A(y) - A(x)`` on broadcast arrays; a diagonal pair raises."""
    x_arr = np.asarray(x, dtype=float)
    y_arr = np.asarray(y, dtype=float)
    dy = y_arr - x_arr
    if np.any(dy == 0):
        raise SingularityError("kernel is singular on the diagonal x == y")
    return dy, eval_A(kernel.curve, y_arr) - eval_A(kernel.curve, x_arr)


def eval_kernel(kernel: CauchyKernel, x, y):
    """Evaluate ``K(x, y)``; scalar or elementwise on broadcast arrays."""
    dy, dA = _offsets(kernel, x, y)
    out = 1.0 / (dy + 1j * dA)
    if out.ndim == 0:
        return complex(out)
    return out


def kernel_modulus(kernel: CauchyKernel, x, y):
    """``|K(x, y)| = 1 / hypot(y - x, A(y) - A(x))``, computed directly.

    hypot is exact on a zero second argument, so on a flat graph the
    modulus equals ``1 / |y - x|`` bit for bit and the size check's
    equality case cannot be lost to rounding.
    """
    out = 1.0 / np.hypot(*_offsets(kernel, x, y))
    if out.ndim == 0:
        return float(out)
    return out


def check_size(kernel: CauchyKernel, x, y) -> BoundReport:
    """Check ``|K(x, y)| <= 1/|y - x|`` pointwise, with no tolerance."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    lhs = kernel_modulus(kernel, x, y)
    rhs = 1.0 / np.abs(y - x)
    passed = lhs <= rhs
    return BoundReport(
        inequality="|K(x,y)| <= 1/|y-x|",
        columns={"x": x, "y": y, "lhs": lhs, "rhs": rhs, "pass": passed},
        extras={"n_violations": int(np.sum(~passed))},
    )


def check_smoothness(kernel: CauchyKernel, x, y, y_prime, transposed: bool = False) -> BoundReport:
    """Check the off-diagonal smoothness estimate with constant 2 (L + 1).

    Requires ``|y - y'| <= |y - x| / 2`` for every triple; a violated
    precondition is a rejected input, never a failed bound.  With the
    ``transposed`` flag the difference is taken in the first argument,
    ``|K(y, x) - K(y', x)|``, against the same right-hand side.  ``A`` is
    evaluated once on each of ``x`` and the stacked ``y`` and ``y'``.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    y_prime = np.atleast_1d(np.asarray(y_prime, dtype=float))
    gap = np.abs(y - x)
    if np.any(gap == 0):
        raise SingularityError("kernel is singular on the diagonal x == y")
    if np.any(np.abs(y - y_prime) > 0.5 * gap):
        raise InputError("inadmissible triple: need |y - y'| <= |y - x| / 2")
    if transposed:
        name = "|K(y,x) - K(y',x)| <= 2(L+1)|y-y'| / |y-x|^2"
    else:
        name = "|K(x,y) - K(x,y')| <= 2(L+1)|y-y'| / |y-x|^2"

    w = np.stack(np.broadcast_arrays(y, y_prime))
    K = eval_kernel(kernel, w, x) if transposed else eval_kernel(kernel, x, w)
    lhs = np.abs(K[0] - K[1])
    rhs = kernel.smoothness_constant * np.abs(y_prime - y) / gap**2
    passed = lhs <= rhs
    return BoundReport(
        inequality=name,
        columns={
            "x": x,
            "y": y,
            "yprime": y_prime,
            "lhs": lhs,
            "rhs": rhs,
            "pass": passed,
        },
        extras={"n_violations": int(np.sum(~passed))},
    )


def _random_pairs(n: int, rng: np.random.Generator, box: float, *more):
    """Chunks of ``n`` random off-diagonal pairs ``(x, y)`` in ``[-box, box]``.

    A chunk is ``[x, y, *rest]`` of ``_CHECK_CHUNK`` rows (the last one
    shorter), with one more uniform column per ``(low, high)`` in ``more``.
    The draws are sample-major: with ``k`` columns, sample ``i`` takes draws
    ``k i .. k i + k - 1`` of ``rng.random``, and column ``j`` maps its draw
    ``u`` to ``low + (high - low) u``.  The samples, and the state ``rng`` is
    left in, therefore depend on ``n`` but not on ``_CHECK_CHUNK``, and any
    ``np.random.Generator`` works.
    """
    if n < 1:
        raise InputError("need at least one sample")
    if not 0 < box < np.inf:
        raise InputError(f"box must be positive and finite, got {box}")
    bounds = [(-box, box), (-box, box), *more]
    for a in range(0, n, _CHECK_CHUNK):
        columns = rng.random((min(_CHECK_CHUNK, n - a), len(bounds))).T
        for column, (low, high) in zip(columns, bounds):
            # In place, column by column: one broadcast over the whole block
            # would run an inner loop of only k draws per sample.
            column *= high - low
            column += low
        x, y, *rest = columns
        coincide = y == x
        y[coincide] = x[coincide] + box * 1e-6  # measure-zero guard
        yield [x, y, *rest]


def _swept(checks) -> BoundReport:
    """``_cap_rows`` of the chunk ``checks``, with ``n_violations`` summed over all of them."""
    counts = []

    def counted():
        for check in checks:
            counts.append(check.n_violations)
            yield check
            del check  # free the chunk before the next one is made

    rep = _cap_rows(counted())
    rep.extras["n_violations"] = sum(counts)
    return rep


def random_size_sweep(kernel: CauchyKernel, n: int, rng: np.random.Generator,
                      box: float = 50.0) -> BoundReport:
    """Size estimate on ``n`` random off-diagonal pairs in ``[-box, box]``.

    Returns the capped report of the module docstring; the sweep holds
    O(``_CHECK_CHUNK`` + ``MAX_REPORT_ROWS``) rows.
    """
    return _swept(check_size(kernel, x, y) for x, y in _random_pairs(n, rng, box))


def random_smoothness_sweep(kernel: CauchyKernel, n: int, rng: np.random.Generator,
                            box: float = 50.0, transposed: bool = False) -> BoundReport:
    """Smoothness estimate on ``n`` random admissible triples.

    ``y'`` is placed uniformly inside the admissible ball of radius
    ``|y - x| / 2`` around ``y``, so the precondition holds by
    construction and every reported failure would be meaningful.  Returns
    the capped report of the module docstring; the sweep holds
    O(``_CHECK_CHUNK`` + ``MAX_REPORT_ROWS``) rows.
    """
    return _swept(
        check_smoothness(kernel, x, y, y + 0.5 * u * np.abs(y - x), transposed=transposed)
        for x, y, u in _random_pairs(n, rng, box, (-1.0, 1.0))
    )

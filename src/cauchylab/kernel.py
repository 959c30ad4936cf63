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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curve import LipschitzCurve, eval_A
from .errors import InputError, SingularityError
from .reports import BoundReport


@dataclass(frozen=True)
class CauchyKernel:
    """Kernel of the Cauchy integral along one Lipschitz graph."""

    curve: LipschitzCurve

    @property
    def size_constant(self) -> float:
        """Constant ``2 (L + 1)`` of the smoothness estimate."""
        return 2.0 * (self.curve.lipschitz_constant + 1.0)

    @staticmethod
    def for_curve(curve: LipschitzCurve) -> "CauchyKernel":
        return CauchyKernel(curve)


def eval_kernel(kernel: CauchyKernel, x, y):
    """Evaluate ``K(x, y)``; scalar or elementwise on broadcast arrays."""
    x_arr = np.asarray(x, dtype=float)
    y_arr = np.asarray(y, dtype=float)
    dy = y_arr - x_arr
    if np.any(dy == 0):
        raise SingularityError("kernel is singular on the diagonal x == y")
    dA = eval_A(kernel.curve, y_arr) - eval_A(kernel.curve, x_arr)
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
    x_arr = np.asarray(x, dtype=float)
    y_arr = np.asarray(y, dtype=float)
    dy = y_arr - x_arr
    if np.any(dy == 0):
        raise SingularityError("kernel is singular on the diagonal x == y")
    dA = eval_A(kernel.curve, y_arr) - eval_A(kernel.curve, x_arr)
    out = 1.0 / np.hypot(dy, dA)
    if out.ndim == 0:
        return float(out)
    return out


def check_size(kernel: CauchyKernel, x, y) -> BoundReport:
    """Check ``|K(x, y)| <= 1/|y - x|`` pointwise, with no tolerance."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    lhs = np.atleast_1d(kernel_modulus(kernel, x, y))
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
    ``|K(y, x) - K(y', x)|``, against the same right-hand side.
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
        diff = eval_kernel(kernel, y, x) - eval_kernel(kernel, y_prime, x)
        name = "|K(y,x) - K(y',x)| <= 2(L+1)|y-y'| / |y-x|^2"
    else:
        diff = eval_kernel(kernel, x, y) - eval_kernel(kernel, x, y_prime)
        name = "|K(x,y) - K(x,y')| <= 2(L+1)|y-y'| / |y-x|^2"
    lhs = np.abs(diff)
    rhs = kernel.size_constant * np.abs(y_prime - y) / gap**2
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


def random_size_sweep(kernel: CauchyKernel, n: int, rng: np.random.Generator,
                      box: float = 50.0) -> BoundReport:
    """Size estimate on ``n`` random off-diagonal pairs in ``[-box, box]``."""
    if n < 1:
        raise InputError("need at least one sample")
    x = rng.uniform(-box, box, size=n)
    y = rng.uniform(-box, box, size=n)
    coincide = y == x
    y[coincide] = x[coincide] + box * 1e-6  # measure-zero guard
    return check_size(kernel, x, y)


def random_smoothness_sweep(kernel: CauchyKernel, n: int, rng: np.random.Generator,
                            box: float = 50.0, transposed: bool = False) -> BoundReport:
    """Smoothness estimate on ``n`` random admissible triples.

    ``y'`` is placed uniformly inside the admissible ball of radius
    ``|y - x| / 2`` around ``y``, so the precondition holds by
    construction and every reported failure would be meaningful.
    """
    if n < 1:
        raise InputError("need at least one sample")
    x = rng.uniform(-box, box, size=n)
    y = rng.uniform(-box, box, size=n)
    coincide = y == x
    y[coincide] = x[coincide] + box * 1e-6
    u = rng.uniform(-1.0, 1.0, size=n)
    y_prime = y + 0.5 * u * np.abs(y - x)
    return check_smoothness(kernel, x, y, y_prime, transposed=transposed)

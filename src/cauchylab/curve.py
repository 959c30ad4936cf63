"""Lipschitz graph profiles with exact Lipschitz constants.

A curve is the graph ``{x + i A(x)}`` of a real profile ``A``.  Profiles
are closed-form, never sampled, so the stored constant ``L`` equals the
analytic ``sup |A'|`` exactly instead of being an estimate.  The sawtooth
is Lipschitz but has corners, which stresses kernel bounds exactly where
smoothness is absent.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .errors import InputError


class ProfileKind(enum.Enum):
    FLAT = "flat"
    AFFINE = "affine"
    SAWTOOTH = "sawtooth"
    SMOOTH_BUMP = "smooth_bump"


@dataclass(frozen=True)
class LipschitzCurve:
    """Graph profile plus its exact Lipschitz constant."""

    kind: ProfileKind
    params: Tuple[float, ...]
    lipschitz_constant: float

    @staticmethod
    def flat() -> "LipschitzCurve":
        return LipschitzCurve(ProfileKind.FLAT, (), 0.0)

    @staticmethod
    def affine(slope: float) -> "LipschitzCurve":
        if not np.isfinite(slope):
            raise InputError("affine slope must be finite")
        return LipschitzCurve(ProfileKind.AFFINE, (float(slope),), abs(float(slope)))

    @staticmethod
    def sawtooth(amplitude: float, period: float) -> "LipschitzCurve":
        """Triangle wave with peak ``amplitude`` at one quarter period."""
        if not 0 < period < math.inf:
            raise InputError(f"sawtooth period must be positive and finite, got {period}")
        if not np.isfinite(amplitude):
            raise InputError("sawtooth amplitude must be finite")
        L = 4.0 * abs(float(amplitude)) / float(period)
        if not math.isfinite(L):
            raise InputError(f"sawtooth Lipschitz constant 4 |amplitude| / period is not "
                             f"finite for amplitude {amplitude}, period {period}")
        return LipschitzCurve(
            ProfileKind.SAWTOOTH, (float(amplitude), float(period)), L
        )

    @staticmethod
    def smooth_bump(height: float, width: float) -> "LipschitzCurve":
        """Gaussian bump ``height * exp(-(x/width)^2)``; max slope in closed form."""
        if not width > 0:
            raise InputError(f"bump width must be positive, got {width}")
        if not np.isfinite(height):
            raise InputError("bump height must be finite")
        L = abs(float(height)) / float(width) * math.sqrt(2.0 / math.e)
        if not math.isfinite(L):
            raise InputError(f"bump Lipschitz constant |height| / width * sqrt(2 / e) is not "
                             f"finite for height {height}, width {width}")
        return LipschitzCurve(
            ProfileKind.SMOOTH_BUMP, (float(height), float(width)), L
        )


# Curve constructors by config kind.
BUILDERS = {
    "flat": LipschitzCurve.flat,
    "affine": LipschitzCurve.affine,
    "sawtooth": LipschitzCurve.sawtooth,
    "smooth_bump": LipschitzCurve.smooth_bump,
}


def eval_A(curve: LipschitzCurve, x):
    """Evaluate the graph profile ``A`` at ``x`` (scalar or array)."""
    x = np.asarray(x, dtype=float)
    kind = curve.kind
    if kind is ProfileKind.FLAT:
        out = np.zeros_like(x)
    elif kind is ProfileKind.AFFINE:
        (slope,) = curve.params
        out = slope * x
    elif kind is ProfileKind.SAWTOOTH:
        amplitude, period = curve.params
        # Phase in [0, 1], from the exact remainder np.mod(x, period), so it
        # rounds once whatever |x|.  For a power-of-two period the quotient
        # less its floor is that phase bit for bit and about four times
        # faster; for another period the quotient would round before its
        # floor is taken and lose the phase as |x / period| grows.  The
        # three linear pieces are written so the subtractions are exact for
        # power-of-two parameters.
        if math.frexp(period)[0] == 0.5:
            u = x / period
            u -= np.floor(u)
        else:
            u = np.mod(x, period) / period
        g = np.where(
            u < 0.25, 4.0 * u, np.where(u < 0.75, 4.0 * (0.5 - u), 4.0 * (u - 1.0))
        )
        out = amplitude * g
    elif kind is ProfileKind.SMOOTH_BUMP:
        height, width = curve.params
        out = height * np.exp(-((x / width) ** 2))
    else:  # pragma: no cover
        raise InputError(f"unknown profile kind {kind}")
    if out.ndim == 0:
        return float(out)
    return out


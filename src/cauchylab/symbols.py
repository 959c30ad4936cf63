"""Built-in symbol and input profiles.

These are the stock functions used as multiplication symbols b and as
operator inputs f: step functions, a floor-truncated logarithm (bounded
mean oscillation at every scale near its center, so its oscillation does
not vanish at small scales), and a compactly supported smooth bump
(oscillation vanishing at all three limits).  Each builder returns a
vectorized callable, so functions sampled from them keep an exact
off-grid evaluator.
"""

from __future__ import annotations

import numpy as np

from .errors import InputError


def constant(value: float = 0.0):
    def fn(x):
        return np.full_like(np.asarray(x, dtype=float), float(value))

    return fn


def sign_step(center: float = 0.0):
    """sign(x - center): the canonical unit-oscillation step."""

    def fn(x):
        return np.sign(np.asarray(x, dtype=float) - center)

    return fn


def step(center: float = 0.0, left: float = 0.0, right: float = 1.0):
    def fn(x):
        return np.where(np.asarray(x, dtype=float) < center, left, right)

    return fn


def truncated_log(center: float = 0.0, floor: float = -50.0):
    """log|x - center| clipped below at ``floor``."""

    def fn(x):
        d = np.abs(np.asarray(x, dtype=float) - center)
        with np.errstate(divide="ignore"):
            return np.maximum(np.log(d), floor)

    return fn


def smooth_bump(center: float = 0.0, height: float = 1.0, width: float = 1.0):
    """Smooth bump supported exactly on ``(center - width, center + width)``.

    ``height * exp(1 - 1/(1 - u^2))`` with ``u = (x - center)/width``;
    infinitely differentiable and identically zero outside the support.
    """
    if not width > 0:
        raise InputError(f"bump width must be positive, got {width}")

    def fn(x):
        u = (np.asarray(x, dtype=float) - center) / width
        out = np.zeros_like(u)
        inside = np.abs(u) < 1.0
        ui = u[inside]
        out[inside] = height * np.exp(1.0 - 1.0 / (1.0 - ui * ui))
        return out

    return fn


def indicator(lower: float, upper: float):
    """Characteristic function of ``[lower, upper]`` (closed endpoints)."""
    if not upper > lower:
        raise InputError(f"need upper > lower, got [{lower}, {upper}]")

    def fn(x):
        x = np.asarray(x, dtype=float)
        return np.where((x >= lower) & (x <= upper), 1.0, 0.0)

    return fn


def ramp(slope: float = 1.0, intercept: float = 0.0):
    def fn(x):
        return slope * np.asarray(x, dtype=float) + intercept

    return fn


BUILDERS = {
    "constant": constant,
    "sign": sign_step,
    "step": step,
    "truncated_log": truncated_log,
    "smooth_bump": smooth_bump,
    "indicator": indicator,
    "ramp": ramp,
}

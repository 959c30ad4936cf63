"""Shared fixtures: deterministic rng and randomized symbol generators.

Every hypothesis property runs under one profile: no deadline, since
operator sums on a loaded machine are slow, and derandomized, so a run
draws the same examples every time and two commits can be compared test
by test.  Per-test ``@settings`` set only ``max_examples``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

settings.register_profile("cauchylab", deadline=None, derandomize=True)
settings.load_profile("cauchylab")

from cauchylab import Interval, SampledFunction, sample_on
from cauchylab.symbols import sign_step, smooth_bump, step, truncated_log


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260810)


def random_symbol_case(rng: np.random.Generator):
    """One random (b, I, p) triple for the construction-invariant suite.

    Mixes step functions, floor-truncated logs, and random
    piecewise-constant symbols; every draw oscillates on its interval.
    """
    center = float(rng.uniform(-5.0, 5.0))
    radius = float(np.exp(rng.uniform(np.log(0.1), np.log(2.0))))
    base = Interval(center, radius)
    p = float(rng.uniform(1.2, 3.5))
    count = int(rng.integers(400, 1200))
    lo = center - 1.25 * radius
    hi = center + 1.25 * radius
    h = (hi - lo) / count
    kind = int(rng.integers(0, 3))
    if kind == 0:
        jump = float(rng.uniform(center - 0.5 * radius, center + 0.5 * radius))
        left, right = sorted(rng.normal(size=2) * 2.0)
        fn = step(jump, left, right - 1e-3)
    elif kind == 1:
        c = float(rng.uniform(center - 0.5 * radius, center + 0.5 * radius))
        fn = truncated_log(c)
    else:
        n_pieces = int(rng.integers(3, 12))
        cuts = np.sort(rng.uniform(lo, hi, size=n_pieces - 1))
        levels = rng.normal(size=n_pieces)
        # Guarantee a level change strictly inside the base interval.
        cuts[n_pieces // 2] = center
        levels[1:] += np.sign(np.diff(levels)) * 1e-3 + 1e-3

        def fn(x, cuts=cuts, levels=levels):
            return levels[np.searchsorted(cuts, np.asarray(x, dtype=float))]

    b = sample_on(fn, lo + 0.5 * h, h, count)
    return b, base, p


def bump_family(positions, width: float, lo: float, hi: float, count: int, p: float):
    """Unit-normalized smooth bumps at the given centers, on one shared grid."""
    from cauchylab import lp_norm

    out = []
    for pos in positions:
        g = sample_on(smooth_bump(float(pos), 1.0, width),
                      lo + 0.5 * (hi - lo) / count, (hi - lo) / count, count)
        out.append(g.with_values(g.values / lp_norm(g, p)))
    return out

"""Experiment configuration: schema, defaults, and object builders.

Configs are JSON trees.  Unknown keys are rejected early with the full
key path so a typo cannot silently fall back to a default.  Every key in
``DEFAULTS`` is read by some subcommand.  One seed governs every
randomized sweep in a run, which together with deterministic report
serialization makes runs byte-reproducible.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Optional

import numpy as np

from .curve import LipschitzCurve
from .errors import InputError
from .kernel import CauchyKernel
from .sampling import Interval, SampledFunction, function_from_csv, sample_on
from .symbols import make_symbol

DEFAULTS: Dict[str, Any] = {
    "seed": 0,
    "curve": {"kind": "flat", "params": {}},
    "grid": {"origin": None, "step": 0.001, "count": 2000},
    "symbol": {"kind": "sign", "params": {}},
    "input": {"kind": "indicator", "params": {"lower": -1.0, "upper": 1.0}},
    "window": {"center": 0.0, "radius": 4.0},
    "kernel_check": {"samples": 100000, "box": 50.0},
    "homogeneity": {
        "M_ladder": [16.0, 64.0, 256.0, 1024.0],
        "r": 1.0,
        "quadrature_cells": 2048,
        "eval_points": 128,
        "slack": 0.9,
        "slope_band": 0.1,
    },
    "lemma41": {
        "interval": {"center": 0.0, "radius": 1.0},
        "p": 2.0,
        "k_ladder": [3, 4, 5, 6, 7, 8],
        "a1": 8.0,
        "eval_cells": 512,
        "lower_spread_cap": 3.0,
        "upper_spread_cap": 10.0,
    },
    "bmo": {"max_length": None},
    "vmo": {
        "delta_ladder": [0.0625, 0.125, 0.25, 0.5],
        "R_ladder": [0.5, 1.0, 2.0],
    },
    "fk": {
        "p": 2.0,
        "t_ladder": [1.0, 2.0, 3.0],
        "z_steps": [1, 2, 4, 8, 16],
        "bump_positions": [-1.0, 0.0, 1.0],
        "bump_width": 0.5,
    },
    "witness": {
        "a1": 4.2,
        "a2": 4.9,
        "p": 2.0,
        "sequence": {"center": 0.0, "r0": 0.2, "ratio": 5.0, "count": 4},
        "eval_cells": 8192,
        "nodes_per_radius": 64,
    },
    "commutator_norm": {
        "p": 2.0,
        "family": [
            {"kind": "indicator", "params": {"lower": -1.0, "upper": 1.0}},
            {"kind": "smooth_bump", "params": {"center": 0.0, "height": 1.0, "width": 1.0}},
        ],
    },
}


def _deep_merge(base: Dict, override: Dict, path: str = "") -> Dict:
    out = copy.deepcopy(base)
    for key, val in override.items():
        here = f"{path}.{key}" if path else key
        if key not in base:
            raise InputError(f"unknown config key: {here}")
        # ``params`` subtrees are kind-specific free-form dictionaries.
        if key == "params" and isinstance(val, dict):
            out[key] = copy.deepcopy(val)
        elif isinstance(base[key], dict) and isinstance(val, dict):
            out[key] = _deep_merge(base[key], val, here)
        else:
            out[key] = copy.deepcopy(val)
    return out


def _number(value, name: str, above: float = 0.0) -> float:
    try:
        v = float(value)
    except (TypeError, ValueError) as exc:
        raise InputError(f"config field {name} must be a number, got {value!r}") from exc
    if not (np.isfinite(v) and v > above):
        raise InputError(f"config field {name} must be a finite number above {above:g}, "
                         f"got {value!r}")
    return v


@dataclass
class ExperimentConfig:
    """A validated configuration tree with dotted-path access."""

    data: Dict[str, Any]

    @staticmethod
    def from_dict(user: Optional[Dict[str, Any]] = None) -> "ExperimentConfig":
        return ExperimentConfig(_deep_merge(DEFAULTS, user or {}))

    @staticmethod
    def load(path) -> "ExperimentConfig":
        try:
            text = Path(path).read_text()
        except OSError as exc:
            raise InputError(f"cannot read config {path}: {exc}") from exc
        try:
            user = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InputError(
                f"{path}: malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
            ) from exc
        if not isinstance(user, dict):
            raise InputError(f"{path}: top level must be a JSON object")
        return ExperimentConfig.from_dict(user)

    def to_json(self) -> str:
        return json.dumps(self.data, sort_keys=True, indent=1)

    @staticmethod
    def from_json(text: str) -> "ExperimentConfig":
        return ExperimentConfig.from_dict(json.loads(text))

    def get(self, dotted: str):
        node = self.data
        for part in dotted.split("."):
            if not isinstance(node, dict) or part not in node:
                raise InputError(f"missing config field: {dotted}")
            node = node[part]
        return node

    # Typed reads: a bad value exits 2 with a message naming the key.

    def number(self, dotted: str, above: float = 0.0) -> float:
        """A finite number strictly above ``above``."""
        return _number(self.get(dotted), dotted, above)

    def integer(self, dotted: str, minimum: int) -> int:
        """A whole number at least ``minimum``."""
        value = self.get(dotted)
        if not (isinstance(value, (int, float)) and float(value).is_integer()
                and value >= minimum):
            raise InputError(f"config field {dotted} must be an integer >= {minimum}, "
                             f"got {value!r}")
        return int(value)

    def nonempty(self, dotted: str) -> list:
        """A non-empty list."""
        value = self.get(dotted)
        if not (isinstance(value, list) and value):
            raise InputError(f"config field {dotted} must be a non-empty list, got {value!r}")
        return value

    # ----- builders -------------------------------------------------

    def curve(self) -> LipschitzCurve:
        spec = self.get("curve")
        kind = spec.get("kind")
        params = spec.get("params", {}) or {}
        try:
            if kind == "flat":
                return LipschitzCurve.flat()
            if kind == "affine":
                return LipschitzCurve.affine(float(params["slope"]))
            if kind == "sawtooth":
                return LipschitzCurve.sawtooth(
                    float(params["amplitude"]), _number(params["period"], "curve.params.period")
                )
            if kind == "smooth_bump":
                return LipschitzCurve.smooth_bump(
                    float(params["height"]), _number(params["width"], "curve.params.width")
                )
        except KeyError as exc:
            raise InputError(f"curve.params missing {exc.args[0]!r} for kind {kind!r}") from exc
        raise InputError(f"unknown curve kind {kind!r}")

    def kernel(self) -> CauchyKernel:
        return CauchyKernel.for_curve(self.curve())

    def grid(self) -> tuple:
        spec = self.get("grid")
        step = _number(spec.get("step"), "grid.step")
        count = spec.get("count")
        if not isinstance(count, int) or count < 2:
            raise InputError(f"grid.count must be an integer >= 2, got {count!r}")
        origin = spec.get("origin")
        if origin is None:
            # Cell-centered around zero by default.
            origin = -0.5 * step * (count - 1)
        return float(origin), step, count

    def function(self, key: str) -> SampledFunction:
        """Build the function under config key ``key`` on the config grid."""
        spec = self.get(key)
        kind = spec.get("kind")
        if kind == "csv":
            path = spec.get("path")
            if not path:
                raise InputError(f"{key}.path required for kind 'csv'")
            return function_from_csv(path)
        params = spec.get("params", {}) or {}
        fn = make_symbol(kind, **params)
        origin, step, count = self.grid()
        return sample_on(fn, origin, step, count)

    def interval(self, key: str) -> Interval:
        spec = self.get(key)
        return Interval(float(spec["center"]), _number(spec["radius"], f"{key}.radius"))

    def rng(self) -> np.random.Generator:
        seed = self.get("seed")
        if not isinstance(seed, int) or seed < 0:
            raise InputError(f"seed must be a nonnegative integer, got {seed!r}")
        return np.random.default_rng(seed)

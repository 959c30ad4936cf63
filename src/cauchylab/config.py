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
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from .curve import BUILDERS as CURVES, LipschitzCurve
from .errors import InputError
from .kernel import CauchyKernel
from .sampling import Interval, SampledFunction, sample_on
from .symbols import BUILDERS as SYMBOLS

DEFAULTS: Dict[str, Any] = {
    "seed": 0,
    "p": 2.0,  # the L^p exponent of lemma41, fk-diagnose, witness and commutator-norm
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
    },
    "lemma41": {
        "interval": {"center": 0.0, "radius": 1.0},
        "k_ladder": [3, 4, 5, 6, 7, 8],
        "a1": 8.0,
        "eval_cells": 512,
    },
    "bmo": {"max_length": None},
    "vmo": {
        "delta_ladder": [0.0625, 0.125, 0.25, 0.5],
        "R_ladder": [0.5, 1.0, 2.0],
    },
    "fk": {
        "t_ladder": [1.0, 2.0, 3.0],
        "z_steps": [1, 2, 4, 8, 16],
        "bump_positions": [-1.0, 0.0, 1.0],
        "bump_width": 0.5,
    },
    "witness": {
        "a1": 4.2,
        "a2": 4.9,
        "sequence": {"center": 0.0, "r0": 0.2, "ratio": 5.0, "count": 4},
        "eval_cells": 8192,
        "nodes_per_radius": 64,
    },
    "commutator_norm": {
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


def _number(value, name: str, above: Optional[float] = 0.0) -> float:
    """A finite number, strictly above ``above`` unless it is None; JSON booleans are refused."""
    if isinstance(value, bool):
        raise InputError(f"config field {name} must be a number, got {value!r}")
    try:
        v = float(value)
    except (TypeError, ValueError) as exc:
        raise InputError(f"config field {name} must be a number, got {value!r}") from exc
    if not (np.isfinite(v) and (above is None or v > above)):
        bound = "" if above is None else f" above {above:g}"
        raise InputError(f"config field {name} must be a finite number{bound}, got {value!r}")
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

    def get(self, dotted: str):
        """The value at a dotted path; a numeric part indexes a list.

        A part under a value that cannot hold it (``grid.step`` when
        ``grid`` is ``5`` or a list) names the type fault, not a missing key.
        """
        node = self.data
        parts = dotted.split(".")
        for k, part in enumerate(parts):
            if isinstance(node, dict):
                found = part in node
            elif isinstance(node, list) and part.isdigit():
                found, part = int(part) < len(node), int(part)
            else:
                kind = "a list" if part.isdigit() else "an object"
                raise InputError(f"config field {dotted}: {'.'.join(parts[:k])} "
                                 f"must be {kind}, got {node!r}")
            if not found:
                raise InputError(f"missing config field: {dotted}")
            node = node[part]
        return node

    # Typed reads: a bad value exits 2 with a message naming the key.

    def number(self, dotted: str, above: Optional[float] = 0.0) -> float:
        """A finite number strictly above ``above``; any finite number when ``above`` is None."""
        return _number(self.get(dotted), dotted, above)

    def integer(self, dotted: str, minimum: int) -> int:
        """A whole number at least ``minimum``; a JSON boolean is not one."""
        value = self.get(dotted)
        if not (isinstance(value, (int, float)) and not isinstance(value, bool)
                and float(value).is_integer() and value >= minimum):
            raise InputError(f"config field {dotted} must be an integer >= {minimum}, "
                             f"got {value!r}")
        return int(value)

    def entries(self, dotted: str) -> List[str]:
        """Dotted paths ``dotted.0``, ``dotted.1``, ... of a non-empty list, for typed reads."""
        value = self.get(dotted)
        if not (isinstance(value, list) and value):
            raise InputError(f"config field {dotted} must be a non-empty list, got {value!r}")
        return [f"{dotted}.{i}" for i in range(len(value))]

    # ----- builders -------------------------------------------------

    def _build(self, key: str, builders: Dict[str, Callable], what: str):
        """Call ``builders[kind]`` on the ``params`` of the object at ``key``.

        Missing ``params`` read as empty.  Every builder parameter is a
        number, so each one is a typed read.  An unknown kind, a parameter
        the builder does not take and the builder's own error are prefixed
        with ``key.kind`` or ``key.params``, the part of the config to fix.
        """
        spec = self.get(key)
        if not isinstance(spec, dict):
            raise InputError(f"config field {key} must be an object, got {spec!r}")
        params = spec.get("params") or {}
        if not isinstance(params, dict):
            raise InputError(f"config field {key}.params must be an object, got {params!r}")
        kind = self.get(f"{key}.kind")
        if not isinstance(kind, str):
            raise InputError(f"config field {key}.kind must be a string, got {kind!r}")
        if kind not in builders:
            raise InputError(f"{key}.kind: unknown {what} kind {kind!r}; "
                             f"known: {', '.join(sorted(builders))}")
        values = {name: self.number(f"{key}.params.{name}", above=None) for name in params}
        try:
            return builders[kind](**values)
        except TypeError as exc:
            raise InputError(f"{key}.params: bad parameters for {what} {kind!r}: {exc}") from exc
        except InputError as exc:
            raise InputError(f"{key}.params: {exc}") from exc

    def curve(self) -> LipschitzCurve:
        return self._build("curve", CURVES, "curve")

    def kernel(self) -> CauchyKernel:
        return CauchyKernel.for_curve(self.curve())

    def grid(self) -> tuple:
        step = self.number("grid.step")
        count = self.integer("grid.count", 2)
        if self.get("grid.origin") is None:
            # Cell-centered around zero by default.
            return -0.5 * step * (count - 1), step, count
        return self.number("grid.origin", above=None), step, count

    def function(self, key: str) -> SampledFunction:
        """The ``symbols.BUILDERS`` function under config key ``key``, on the config grid."""
        fn = self._build(key, SYMBOLS, "symbol")
        origin, step, count = self.grid()
        return sample_on(fn, origin, step, count)

    def interval(self, key: str) -> Interval:
        """The interval at ``key``: any finite ``center`` and a positive ``radius``."""
        return Interval(self.number(f"{key}.center", above=None), self.number(f"{key}.radius"))

    def rng(self) -> np.random.Generator:
        return np.random.default_rng(self.integer("seed", 0))

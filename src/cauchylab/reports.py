"""Tabular pass/fail reports for measured inequalities.

A report stores one checked inequality (written out as a formula), the
measured columns (always including ``lhs``, ``rhs`` and ``pass`` when the
check is thresholded), and scalar extras.  Serialization is deterministic:
floats are written with ``repr`` (shortest round-trip form), rows keep
construction order, and JSON keys are sorted.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict

import numpy as np

from .errors import InputError


def _fmt(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def _jsonable(v):
    if isinstance(v, (bool, np.bool_)):
        return bool(v)
    if isinstance(v, (int, np.integer)):
        return int(v)
    if isinstance(v, (float, np.floating)):
        return float(v)
    if isinstance(v, np.ndarray):
        return [_jsonable(x) for x in v.tolist()]
    return v


@dataclass
class BoundReport:
    """Measured lhs/rhs rows and ratios for one inequality."""

    inequality: str
    columns: Dict[str, np.ndarray] = field(default_factory=dict)
    extras: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        lengths = {len(np.atleast_1d(c)) for c in self.columns.values()}
        if len(lengths) > 1:
            raise InputError("all report columns must have equal length")
        self.columns = {k: np.atleast_1d(v) for k, v in self.columns.items()}

    @property
    def n_rows(self) -> int:
        for c in self.columns.values():
            return len(c)
        return 0

    @property
    def passed(self) -> bool:
        if "pass" not in self.columns:
            return True
        return bool(np.all(self.columns["pass"]))

    @property
    def n_violations(self) -> int:
        if "pass" not in self.columns:
            return 0
        return int(np.sum(~self.columns["pass"].astype(bool)))

    def ratios(self) -> np.ndarray:
        """Row ratios lhs/rhs, with 0/0 read as 0 and x/0 as inf."""
        lhs = np.asarray(self.columns["lhs"], dtype=float)
        rhs = np.asarray(self.columns["rhs"], dtype=float)
        out = np.zeros_like(lhs)
        np.divide(lhs, rhs, out=out, where=rhs != 0)
        out[(rhs == 0) & (lhs != 0)] = np.inf
        return out

    def to_csv(self, path) -> None:
        names = list(self.columns)
        with open(path, "w", newline="") as fh:
            fh.write(f"# check: {self.inequality}\n")
            for k in sorted(self.extras):
                fh.write(f"# {k}: {_fmt(self.extras[k])}\n")
            fh.write(",".join(names) + "\n")
            for i in range(self.n_rows):
                fh.write(",".join(_fmt(self.columns[k][i]) for k in names) + "\n")

    def to_json(self, path) -> None:
        payload = {
            "check": self.inequality,
            "passed": self.passed,
            "n_rows": self.n_rows,
            "n_violations": self.n_violations,
            "extras": {k: _jsonable(v) for k, v in self.extras.items()},
            "columns": {k: _jsonable(v) for k, v in self.columns.items()},
        }
        with open(path, "w") as fh:
            json.dump(payload, fh, sort_keys=True, indent=1)
            fh.write("\n")


def write_report(report: BoundReport, out_dir, name: str) -> None:
    """Write ``name.csv`` and ``name.json`` side by side."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    report.to_csv(out / f"{name}.csv")
    report.to_json(out / f"{name}.json")

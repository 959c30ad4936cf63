"""Tabular pass/fail reports for measured inequalities.

A report stores one checked inequality (written out as a formula), the
measured columns (always including ``lhs``, ``rhs`` and ``pass`` when the
check is thresholded), and scalar extras.  Serialization is deterministic:
every value is turned into Python values once (``tolist``), floats are
written in their shortest round-trip form, rows keep construction order,
and JSON keys are sorted.  ``_write_csv`` is the one CSV writer, for
reports and for the operator output alike.  ``_cap_rows`` is the one rule
for which rows of a long check a report file keeps: at most
``MAX_REPORT_ROWS``, the violations first and then the rows of largest
lhs/rhs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator

import numpy as np

from .errors import InputError

# Rows the CSV writer turns into Python values at a time.
_CSV_ROWS = 1024
# Rows a capped report keeps: violations first, then the largest lhs/rhs.
MAX_REPORT_ROWS = 200


def _python(v):
    """``v`` as Python values: ``v.tolist()`` for an array or a numpy scalar, else ``v``."""
    return v.tolist() if isinstance(v, (np.ndarray, np.generic)) else v


def _cells(values) -> Iterator[str]:
    """Lazy CSV cells of an array or scalar: a boolean as 1 or 0, else ``str(value)``."""
    values = np.atleast_1d(values)
    python = _python(values)
    return map(str, map(int, python) if values.dtype == bool else python)


def _write_csv(path, comments, columns: Dict[str, np.ndarray]) -> None:
    """``# comment`` lines, the column names, then the rows, ``_CSV_ROWS`` at a time."""
    rows = len(next(iter(columns.values()), ()))
    with open(path, "w", newline="") as fh:
        for line in comments:
            fh.write(f"# {line}\n")
        fh.write(",".join(columns) + "\n")
        for a in range(0, rows, _CSV_ROWS):
            cells = [_cells(c[a:a + _CSV_ROWS]) for c in columns.values()]
            fh.writelines(",".join(row) + "\n" for row in zip(*cells))


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
        comments = [f"check: {self.inequality}"]
        comments += [f"{k}: {next(_cells(self.extras[k]))}" for k in sorted(self.extras)]
        _write_csv(path, comments, self.columns)

    def to_json(self, path) -> None:
        payload = {
            "check": self.inequality,
            "passed": self.passed,
            "n_rows": self.n_rows,
            "n_violations": self.n_violations,
            "extras": {k: _python(v) for k, v in self.extras.items()},
            "columns": {k: _python(v) for k, v in self.columns.items()},
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


def _first_rows(neg: np.ndarray, rows: np.ndarray, k: int) -> np.ndarray:
    """The first ``k`` of ``rows`` in a stable ascending sort by ``neg`` (NaN last).

    Only the rows at or below the ``k``-th key, which ``np.partition``
    finds, are sorted.
    """
    if rows.size <= k or k == 0:
        return rows[:k]
    keys = neg[rows]
    cut = np.partition(keys, k - 1)[k - 1]
    # ``keys > cut`` is false for every row when ``cut`` is NaN, and NaN rows
    # sort after every other candidate.
    candidates = rows[~(keys > cut)]
    return candidates[np.argsort(neg[candidates], kind="stable")[:k]]


def _worst_rows(report: BoundReport) -> np.ndarray:
    """Ascending indices of the ``MAX_REPORT_ROWS`` worst rows.

    The worst rows are the first ``MAX_REPORT_ROWS`` of a stable sort that
    puts the violations first and then the other rows, each by falling
    lhs/rhs (ties in row order, NaN last).  A report of at most
    ``MAX_REPORT_ROWS`` rows keeps them all.
    """
    if report.n_rows <= MAX_REPORT_ROWS:
        return np.arange(report.n_rows)
    neg = -report.ratios()
    failed = (~report.columns["pass"].astype(bool) if "pass" in report.columns
              else np.zeros(report.n_rows, dtype=bool))
    worst = _first_rows(neg, np.flatnonzero(failed), MAX_REPORT_ROWS)
    rest = _first_rows(neg, np.flatnonzero(~failed), MAX_REPORT_ROWS - worst.size)
    return np.sort(np.concatenate([worst, rest]))


def _cap_rows(parts: Iterable[BoundReport]) -> BoundReport:
    """The rows of ``parts``, in order, cut to the worst rows.

    The kept rows are those ``_worst_rows`` picks from the concatenated
    parts; past ``MAX_REPORT_ROWS`` rows in all, the extras ``rows_total``
    and ``rows_written`` count the rows that came in and the rows kept.  A
    row among the worst of the whole is among the worst of its own part,
    so each part is cut to its own worst rows as it arrives, and one part
    plus the rows kept so far are alive at a time.  The inequality and the
    other extras are the first part's.  ``_cap_rows([report])`` caps one
    whole report.
    """
    head, kept, total = None, [], 0
    for part in parts:
        if head is None:
            head = part.inequality, dict(part.extras)
        keep = _worst_rows(part)
        kept.append({k: v[keep] for k, v in part.columns.items()})
        total += part.n_rows
        del part  # free the part before the next one is made
    inequality, extras = head
    merged = BoundReport(inequality, {k: np.concatenate([c[k] for c in kept]) for k in kept[0]},
                         extras)
    if total <= MAX_REPORT_ROWS:
        return merged
    keep = _worst_rows(merged)
    return BoundReport(inequality, {k: v[keep] for k, v in merged.columns.items()},
                       dict(extras, rows_total=total, rows_written=int(keep.size)))

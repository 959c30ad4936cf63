"""Spans around calls into the library, installed from outside it.

``Tracer.install`` wraps every public function defined in the named
``cauchylab`` modules and rebinds each wrapper wherever the original is
bound in a loaded ``cauchylab`` module, so a name another module bound
with ``from .operator import pv_values`` is traced as well.  Nothing in
the library is edited; ``uninstall`` puts the originals back.

A span records its name, start, end and the index of the span that was
open when it started.  Spans stay in memory until the run summarizes
them with :func:`summarize`.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None
    counts: Dict[str, float] = field(default_factory=dict)


# A counter maps the bound call arguments and the result to work counts.
Counter = Callable[[Dict[str, object], object], Dict[str, float]]


class Tracer:
    def __init__(self, counters: Optional[Dict[str, Counter]] = None):
        self.spans: List[Span] = []
        self.traced_names: List[str] = []
        self._counters = counters or {}
        self._open: List[int] = []
        self._patched: list = []

    def _enter(self, name: str) -> Span:
        parent = self._open[-1] if self._open else None
        span = Span(name, time.perf_counter(), parent=parent)
        self._open.append(len(self.spans))
        self.spans.append(span)
        return span

    def _exit(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._open.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        span = self._enter(name)
        try:
            yield span
        finally:
            self._exit(span)

    def _wrap(self, name: str, fn):
        counter = self._counters.get(name)
        signature = inspect.signature(fn) if counter is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(span)
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span.counts = counter(bound.arguments, result)
            return result

        return traced

    def install(self, package: str, modules: List[str]) -> None:
        """Trace every public function defined in ``package.<module>``."""
        wrappers = {}
        for short in modules:
            module = importlib.import_module(f"{package}.{short}")
            for attr, obj in vars(module).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != module.__name__):
                    continue
                name = f"{short}.{attr}"
                wrappers[id(obj)] = (obj, self._wrap(name, obj))
                self.traced_names.append(name)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != package and not mod_name.startswith(package + "."):
                continue
            for attr, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(module, attr, hit[1])
                    self._patched.append((module, attr, obj))

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._patched):
            setattr(module, attr, obj)
        self._patched.clear()


def self_times(spans: List[Span]) -> List[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: List[List[int]] = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span.parent is not None:
            children[span.parent].append(i)
    out = []
    for i, span in enumerate(spans):
        covered = 0.0
        run_lo = run_hi = None
        for c in sorted(children[i], key=lambda c: spans[c].start):
            lo = max(spans[c].start, span.start)
            hi = min(spans[c].end, span.end)
            if hi <= lo:
                continue
            if run_hi is None or lo > run_hi:
                if run_hi is not None:
                    covered += run_hi - run_lo
                run_lo, run_hi = lo, hi
            else:
                run_hi = max(run_hi, hi)
        if run_hi is not None:
            covered += run_hi - run_lo
        out.append((span.end - span.start) - covered)
    return out


def summarize(spans: List[Span], names: List[str]) -> Dict[str, Dict[str, float]]:
    """Per span name: ``calls``, self time ``s``, inclusive ``total_s`` and summed counts.

    Every name in ``names`` is present, with zeros when it never ran.
    """
    out: Dict[str, Dict[str, float]] = {
        name: {"calls": 0, "s": 0.0, "total_s": 0.0} for name in names
    }
    for span, own in zip(spans, self_times(spans)):
        row = out.setdefault(span.name, {"calls": 0, "s": 0.0, "total_s": 0.0})
        row["calls"] += 1
        row["s"] += own
        row["total_s"] += span.end - span.start
        for key, val in span.counts.items():
            row[key] = row.get(key, 0) + val
    return out


def calls_under(spans: List[Span], name: str, ancestor: str) -> int:
    """Number of ``name`` spans opened while an ``ancestor`` span was open."""
    count = 0
    for span in spans:
        if span.name != name:
            continue
        p = span.parent
        while p is not None and spans[p].name != ancestor:
            p = spans[p].parent
        count += p is not None
    return count

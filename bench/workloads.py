"""The benchmark's workloads: seeded inputs, the library calls, and their checks.

A workload is a list of operations that one round runs in order.  Each
operation is one library call (or one CLI invocation) and a check that
compares its output with a reference the benchmark computes itself.
The library receives only generated arrays and configs, never the seed.
Library functions are looked up on their modules at call time, so a
tracer that rebinds module attributes sees every call.
"""

from __future__ import annotations

import contextlib
import inspect
import io
import json
import shutil
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np

from cauchylab import bmo, cli, commutator, operator
from cauchylab.curve import LipschitzCurve
from cauchylab.kernel import CauchyKernel
from cauchylab.sampling import Interval, SampledFunction

import reference as ref

BENCH_DIR = Path(__file__).resolve().parent
LAB_REFERENCE = BENCH_DIR / "lab_reference.json"
# Targets per operator product (and table rows per sweep) that are checked.
PROBES = 256
# vmo_profile ladders: the library's documented defaults, fixed here.
DELTA_LADDER = (0.0625, 0.125, 0.25, 0.5)
R_LADDER = (0.5, 1.0, 2.0)
LAB_CONFIG = {"curve": {"kind": "sawtooth", "params": {"amplitude": 0.5, "period": 2.0}}}
LAB_INVOCATIONS = (
    ("verify-kernel", ["verify-kernel"]),
    ("eval-operator", ["eval-operator"]),
    ("bmo-norm", ["bmo-norm"]),
    ("vmo-profile", ["vmo-profile"]),
    ("verify-homogeneity", ["verify-homogeneity"]),
    ("lemma41", ["lemma41"]),
    ("fk-diagnose", ["fk-diagnose"]),
    ("witness-small", ["witness", "--case", "small"]),
    ("witness-large", ["witness", "--case", "large"]),
    ("witness-far", ["witness", "--case", "far"]),
    ("commutator-norm", ["commutator-norm"]),
)


@dataclass
class Check:
    """Outcome of one output check.

    ``matches`` is false when the output misses its reference;
    ``rejected`` marks a CLI invocation that exited 2.  Either makes the
    operation a failed one.
    """

    matches: bool
    rejected: bool = False
    rel_dev: Optional[float] = None
    exit_code: Optional[int] = None
    detail: str = ""


@dataclass
class Op:
    name: str
    call: Callable[[], object]
    check: Callable[[object], Check]
    span: Optional[str] = None  # span the runner opens around the call


def piecewise_constant(rng: np.random.Generator, n: int, pieces: int) -> np.ndarray:
    cuts = np.sort(rng.choice(np.arange(1, n), pieces - 1, replace=False))
    levels = rng.uniform(-1.0, 1.0, pieces)
    return levels[np.searchsorted(cuts, np.arange(n), side="right")]


def _operator_check(out, expected: Callable[[], np.ndarray], probe: np.ndarray,
                    size: int) -> Check:
    out = np.asarray(out)
    if out.shape != (size,):
        return Check(False, detail=f"output shape {out.shape}, expected ({size},)")
    dev = ref.max_rel_dev(out[probe], expected())
    return Check(matches=dev <= ref.OPERATOR_TOL, rel_dev=dev,
                 detail=f"max relative deviation {dev:.3g}")


def operator_flat(seed: int, workdir: Path, cells: int = 8192) -> List[Op]:
    """``pv_values``, ``truncated_values`` and ``commutator_values`` on the flat graph."""
    rng = np.random.default_rng(seed)
    lo, hi = -4.0, 4.0
    h = (hi - lo) / cells
    f = SampledFunction(lo + 0.5 * h, h, piecewise_constant(rng, cells, 16))
    nodes = f.nodes
    jump = float(rng.uniform(-3.0, 3.0))
    left, right = rng.uniform(-1.0, 1.0, 2)
    b = SampledFunction(f.origin, h, np.where(nodes < jump, left, right))
    kernel = CauchyKernel.for_curve(LipschitzCurve.flat())
    xs = f.midpoints_in(Interval(0.0, hi))
    b_outer = np.where(xs < jump, left, right)
    t = 16 * h
    probe = np.sort(rng.choice(xs.size, min(PROBES, xs.size), replace=False))
    zeros_n, zeros_x = np.zeros(cells), np.zeros(probe.size)

    def dense(values, cut=0.0):
        return ref.cauchy_sums(nodes, zeros_n, values, h, xs[probe], zeros_x, cut)

    def commutator_ref():
        return b_outer[probe] * dense(f.values) - dense(b.values * f.values)

    return [
        Op("pv_values", lambda: operator.pv_values(kernel, f, xs),
           partial(_operator_check, expected=partial(dense, f.values), probe=probe,
                   size=xs.size)),
        Op("truncated_values", lambda: operator.truncated_values(kernel, f, xs, t),
           partial(_operator_check, expected=partial(dense, f.values, t), probe=probe,
                   size=xs.size)),
        Op("commutator_values",
           lambda: commutator.commutator_values(b, f, kernel, xs, b_outer=b_outer),
           partial(_operator_check, expected=commutator_ref, probe=probe, size=xs.size)),
    ]


def _table_check(table, f: SampledFunction, probe: np.ndarray, state: dict) -> Check:
    vals, nodes = f.real_values(), f.nodes
    n, h = f.count, f.step
    expected_rows = sum(rows for _, rows in ref.dyadic_levels(n))
    if len(table) != expected_rows:
        return Check(False, detail=f"{len(table)} rows, expected {expected_rows}")
    bad = 0
    for k in probe:
        I, osc = table[k]
        w, a = ref.dyadic_row(n, int(k))
        want = ref.mean_oscillation(vals[a + 1 : a + w])
        scale = float(np.mean(np.abs(vals[a + 1 : a + w])))
        placed = (ref.close(I.center, 0.5 * (nodes[a] + nodes[a + w]), 1e-12, h)
                  and ref.close(I.radius, 0.5 * w * h, 1e-12))
        bad += not (placed and ref.close(osc, want, ref.OSCILLATION_TOL, scale))
    state["columns"] = (
        np.array([I.measure for I, _ in table]),
        np.array([I.lower for I, _ in table]),
        np.array([I.upper for I, _ in table]),
        np.array([osc for _, osc in table]),
    )
    return Check(bad == 0, detail=f"{bad} of {probe.size} probed rows off")


def _profile_check(profile, state: dict) -> Check:
    columns = state.pop("columns", None)
    if columns is None:
        return Check(False, detail="no checked table in this round to recompute from")
    want = ref.vmo_suprema(*columns, DELTA_LADDER, R_LADDER)
    got = (profile.small_scale, profile.large_scale, profile.far_away)
    ok = all(
        len(g) == len(w) and all(
            gp == wp and ref.close(gs, ws, ref.OSCILLATION_TOL)
            for (gp, gs), (wp, ws) in zip(g, w))
        for g, w in zip(got, want)
    )
    return Check(ok, detail="" if ok else f"suprema {got} != {want}")


def _sweep_check(sweep, f: SampledFunction, probe: np.ndarray) -> Check:
    nodes, n, h = f.nodes, f.count, f.step
    expected_rows = sum(rows for _, rows in ref.dyadic_levels(n))
    if len(sweep) != expected_rows:
        return Check(False, detail=f"{len(sweep)} intervals, expected {expected_rows}")
    bad = 0
    for k in probe:
        w, a = ref.dyadic_row(n, int(k))
        I = sweep[k]
        bad += not (ref.close(I.center, 0.5 * (nodes[a] + nodes[a + w]), 1e-12, h)
                    and ref.close(I.radius, 0.5 * w * h, 1e-12))
    return Check(bad == 0, detail=f"{bad} of {probe.size} probed intervals off")


def oscillation(seed: int, workdir: Path, cells: int = 16384) -> List[Op]:
    """``oscillation_table``, ``vmo_profile`` and ``dyadic_sweep`` for two real symbols."""
    rng = np.random.default_rng(seed)
    lo, hi = -4.0, 4.0
    h = (hi - lo) / cells
    nodes = lo + (np.arange(cells) + 0.5) * h
    center = float(rng.uniform(-2.0, 2.0))
    symbols = (
        ("truncated_log", np.maximum(np.log(np.abs(nodes - center)), -50.0)),
        ("piecewise", piecewise_constant(rng, cells, 24)),
    )
    rows = sum(r for _, r in ref.dyadic_levels(cells))
    ops = []
    for label, vals in symbols:
        f = SampledFunction(lo + 0.5 * h, h, vals)
        probe = np.sort(rng.choice(rows, PROBES, replace=False))
        state: dict = {}
        ops += [
            Op(f"oscillation_table[{label}]", lambda f=f: bmo.oscillation_table(f),
               partial(_table_check, f=f, probe=probe, state=state)),
            Op(f"vmo_profile[{label}]",
               lambda f=f: bmo.vmo_profile(f, DELTA_LADDER, R_LADDER),
               partial(_profile_check, state=state)),
            Op(f"dyadic_sweep[{label}]", lambda f=f: bmo.dyadic_sweep(f),
               partial(_sweep_check, f=f, probe=probe)),
        ]
    return ops


def run_cli(argv: List[str]) -> int:
    """One in-process CLI invocation with its console output captured."""
    main = inspect.unwrap(cli.main)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


def read_reports(out_dir: Path) -> Dict[str, dict]:
    """Extras of every JSON report in ``out_dir``, keyed by report name."""
    out = {}
    for path in sorted(out_dir.glob("*.json")):
        out[path.stem] = json.loads(path.read_text())["extras"]
    return out


def _lab_check(exit_code, out_dir: Path, recorded: dict) -> Check:
    reports = read_reports(out_dir) if out_dir.is_dir() else {}
    shutil.rmtree(out_dir, ignore_errors=True)
    bad = ref.extras_mismatches(reports, recorded["extras"])
    if exit_code != recorded["exit"]:
        bad.insert(0, f"exit {exit_code}, recorded {recorded['exit']}")
    return Check(not bad, rejected=exit_code == 2, exit_code=exit_code,
                 detail="; ".join(bad))


def lab_invocations(seed: int, workdir: Path) -> List[tuple]:
    """``(name, argv, out_dir)`` for every CLI invocation of the lab suite."""
    workdir.mkdir(parents=True, exist_ok=True)
    config = workdir / "lab_config.json"
    config.write_text(json.dumps(LAB_CONFIG))
    return [
        (name, argv + ["--config", str(config), "--seed", str(seed),
                       "--out-dir", str(workdir / "reports" / name)],
         workdir / "reports" / name)
        for name, argv in LAB_INVOCATIONS
    ]


def lab_sawtooth(seed: int, workdir: Path) -> List[Op]:
    """Every CLI subcommand, in process, on the sawtooth graph."""
    recorded = json.loads(LAB_REFERENCE.read_text())
    return [
        Op(name, partial(run_cli, argv),
           partial(_lab_check, out_dir=out_dir, recorded=recorded[name]),
           span=f"cli.{name}")
        for name, argv, out_dir in lab_invocations(seed, workdir)
    ]


WORKLOADS = {
    "operator-flat": operator_flat,
    "lab-sawtooth": lab_sawtooth,
    "oscillation": oscillation,
}

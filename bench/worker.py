"""One benchmark run of one workload, in a process of its own.

``run.py`` starts this script; it prints the run's result as the last
line of standard output.  Everything from process start to the first
timed library call (interpreter start, ``import cauchylab``, building
the inputs) is set-up.  Rounds of the workload's operations then repeat
while another round fits in the time budget, and every output is
checked.  With ``--trace 1`` the first half of the budget runs untraced
and the rest with spans around every public library function.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from contextlib import nullcontext
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

import spans
from workloads import LAB_INVOCATIONS, WORKLOADS, Check, Op

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
LAYERS = ["curve", "kernel", "operator", "commutator", "bmo", "sampling",
          "testfn", "compactness", "reports", "cli"]
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _report_bytes(args, result):
    out = Path(args["out_dir"])
    return {"bytes": sum((out / f"{args['name']}{ext}").stat().st_size
                         for ext in (".csv", ".json"))}


# Work counted at span boundaries; pairs are logical node-target pairs,
# so the count does not depend on how an operator is evaluated.
COUNTERS = {
    "operator.pv_values": lambda a, r: {"pairs": a["f"].count * np.size(r)},
    "operator.truncated_values": lambda a, r: {"pairs": a["f"].count * np.size(r)},
    "bmo.oscillation_table": lambda a, r: {"rows": len(r)},
    "bmo.dyadic_sweep": lambda a, r: {"rows": len(r)},
    "reports.write_report": _report_bytes,
}


class Tally:
    """Operations attempted and failed, with what the checks found."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.mismatched = 0
        self.max_rel_dev = 0.0
        self.exit_codes: Dict[str, int] = {}
        self.problems: List[str] = []
        self.op_wall_s: Dict[str, List[float]] = {}

    def execute(self, op: Op, tracer: Optional[spans.Tracer] = None) -> Tuple[float, float]:
        """Run and check one operation; returns its wall and CPU seconds."""
        self.attempted += 1
        ctx = tracer.span(op.span) if tracer is not None and op.span else nullcontext()
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            with ctx:
                out = op.call()
        except Exception as exc:  # a failed operation, not a failed run
            self.failed += 1
            self.mismatched += 1
            self.problems.append(f"{op.name}: raised {exc!r}")
            return time.perf_counter() - t0, time.process_time() - c0
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        self.op_wall_s.setdefault(op.name, []).append(wall)
        try:
            check = op.check(out)
        except Exception as exc:  # an output its check cannot read misses its reference
            check = Check(False, detail=f"check raised {exc!r}")
        del out
        if check.rel_dev is not None and np.isfinite(check.rel_dev):
            self.max_rel_dev = max(self.max_rel_dev, check.rel_dev)
        if check.exit_code is not None:
            self.exit_codes[op.name] = check.exit_code
        if not check.matches:
            self.mismatched += 1
            self.problems.append(f"{op.name}: output misses its reference: {check.detail}")
        if check.rejected:
            self.problems.append(f"{op.name}: exited 2")
        self.failed += (not check.matches) or check.rejected
        return wall, cpu


def run_rounds(ops: List[Op], tally: Tally, budget: float,
               tracer: Optional[spans.Tracer] = None) -> Tuple[List[float], List[float]]:
    """Whole rounds while another one fits in ``budget`` seconds (at least one).

    Returns each round's wall and CPU time, summed over its library calls.
    """
    walls, cpus, elapsed = [], [], []
    start = time.monotonic()
    while True:
        t0 = time.monotonic()
        times = [tally.execute(op, tracer) for op in ops]
        walls.append(sum(w for w, _ in times))
        cpus.append(sum(c for _, c in times))
        elapsed.append(time.monotonic() - t0)
        if time.monotonic() - start + statistics.median(elapsed) > budget:
            return walls, cpus


def layer_metrics(tracer: spans.Tracer, rounds: int, tally: Tally, walls: List[float],
                  traced_walls: List[float], cpus: List[float]) -> Dict[str, float]:
    """Per-layer values per traced round, keyed ``<module>.<function>.<stat>``."""
    names = tracer.traced_names + [f"cli.{name}" for name, _ in LAB_INVOCATIONS]
    summary = spans.summarize(tracer.spans, names)
    values: Dict[str, float] = {}
    for name, row in summary.items():
        for key, val in row.items():
            if key != "total_s":
                values[f"{name}.{key}"] = val / rounds
        if "pairs" in row:
            values[f"{name}.pairs_per_s"] = row["pairs"] / row["total_s"]
    for name, code in tally.exit_codes.items():
        values[f"cli.{name}.exit"] = code
    comm = summary["commutator.commutator_values"]["calls"]
    under = spans.calls_under(tracer.spans, "operator.pv_values",
                              "commutator.commutator_values")
    values["commutator.commutator_values.pv_calls"] = under / comm if comm else 0.0
    values["operator.max_rel_dev"] = tally.max_rel_dev
    values["run.cpu_s"] = statistics.median(cpus)
    values["run.trace_overhead_s"] = statistics.median(traced_walls) - statistics.median(walls)
    values["run.error_rate"] = tally.failed / tally.attempted
    # A traced function or invocation that never ran did none of its counted work.
    for name in summary:
        for stat in ("exit", "pairs", "pairs_per_s", "rows", "bytes"):
            values.setdefault(f"{name}.{stat}", 0)
    return values


def select(values: Dict[str, float], wanted: List[dict]) -> Dict[str, dict]:
    """The metrics ``BENCHMARK.json`` names, in its order, with its units."""
    return {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
            for m in wanted}


def blas_info() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return "unknown"
    return f"{blas.get('name')} {blas.get('version')}"


def git_commit(root: Path) -> Optional[str]:
    """The checked-out commit, read from ``.git`` without running git."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    text = head.read_text().strip()
    if not text.startswith("ref: "):
        return text
    ref_name = text[5:]
    loose = root / ".git" / ref_name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref_name):
                return line.split()[0]
    return None


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "commit": git_commit(ROOT),
    }


def measure(args, ops: List[Op], setups: List[float]) -> Tuple[dict, dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    tally = Tally()
    record: dict = {}
    if not args.trace:
        walls, cpus = run_rounds(ops, tally, args.seconds)
        values = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "success_rate": (tally.attempted - tally.failed) / tally.attempted,
        }
        metrics = select(values, spec["end_to_end"])
    else:
        start = time.monotonic()
        walls, cpus = run_rounds(ops, tally, args.seconds / 2)
        tracer = spans.Tracer(COUNTERS)
        tracer.install("cauchylab", LAYERS)
        try:
            budget = args.seconds - (time.monotonic() - start)
            traced_walls, _ = run_rounds(ops, tally, budget, tracer)
        finally:
            tracer.uninstall()
        values = layer_metrics(tracer, len(traced_walls), tally, walls, traced_walls, cpus)
        metrics = select(values, spec["per_layer"])
        record["traced_round_wall_s"] = traced_walls
    result = {"correct": tally.mismatched == 0, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    record.update(workload=args.workload, seed=args.seed, trace=args.trace,
                  seconds=args.seconds, round_wall_s=walls, round_cpu_s=cpus,
                  op_wall_s=tally.op_wall_s, setup_s_samples=setups, problems=tally.problems,
                  environment=environment(), result=result)
    return result, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawn-time", type=float, required=True,
                        help="time.monotonic() just before this process was started")
    parser.add_argument("--setup-only", action="store_true",
                        help="stop after set-up and print its duration")
    parser.add_argument("--probe-setups", default="",
                        help="set-up seconds measured by earlier set-up-only runs")
    args = parser.parse_args(argv)

    workdir = OUT / "work" / f"{args.workload}-{os.getpid()}"
    try:
        ops = WORKLOADS[args.workload](args.seed, workdir)
        setup_s = time.monotonic() - args.spawn_time
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        setups = [float(s) for s in args.probe_setups.split(",") if s] + [setup_s]
        result, record = measure(args, ops, setups)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    records = OUT / "records"
    records.mkdir(parents=True, exist_ok=True)
    path = records / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{len(record['round_wall_s'])} untraced rounds, {result['attempted']} operations, "
          f"{result['failed']} failed, outputs {'correct' if result['correct'] else 'WRONG'}; "
          f"record in {path.relative_to(ROOT)}")
    for problem in record["problems"]:
        print(f"  {problem}")
    print(json.dumps(result))
    return 0



if __name__ == "__main__":
    sys.exit(main())

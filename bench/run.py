"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout:

    python3 bench/run.py --workload operator-flat --seed 0 --seconds 40 --trace 0

Set-up is measured in several fresh processes and reported as their
median; the workload itself then runs in one more process, with BLAS
and OpenMP capped at ``nproc`` threads.  The last line of standard
output is the result as JSON.  Exits 2 when the checkout holds no
library sources, and non-zero without a result when a run fails.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = ROOT / "bench" / "worker.py"
SETUP_PROBES = 4
TIMEOUT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds positive")
    if not (ROOT / "src" / "cauchylab" / "__init__.py").is_file():
        print(f"error: no library sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2

    nproc = len(os.sched_getaffinity(0))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.update({var: str(nproc) for var in THREAD_VARS})
    deadline = time.monotonic() + TIMEOUT_S
    base = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed)]

    def worker(extra):
        spawn = time.monotonic()
        return subprocess.run(base + extra + ["--spawn-time", repr(spawn)], env=env,
                              cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - spawn))

    try:
        setups = []
        for _ in range(SETUP_PROBES):
            probe = worker(["--setup-only"])
            if probe.returncode != 0:
                return probe.returncode
            setups.append(json.loads(probe.stdout.splitlines()[-1])["setup_s"])
        run = worker(["--seconds", repr(args.seconds), "--trace", str(args.trace),
                      "--probe-setups", ",".join(map(repr, setups))])
    except subprocess.TimeoutExpired:
        print(f"error: run exceeded {TIMEOUT_S:.0f} s and was stopped", file=sys.stderr)
        return 1
    if run.returncode != 0:
        sys.stderr.write(run.stdout)
        return run.returncode
    sys.stdout.write(run.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())

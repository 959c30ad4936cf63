"""Record the lab-sawtooth reference: exit statuses and seed-independent report extras.

Usage, from the root of a checkout:

    PYTHONPATH=src python3 bench/record_lab_reference.py

Runs the lab suite at two seeds and keeps every numeric or boolean
report extra that reads the same at both, so extras drawn from the
seeded random sweeps are left out.  Writes ``bench/lab_reference.json``.
Record it on the commit whose outputs later commits must reproduce.
"""

from __future__ import annotations

import json
import shutil

from workloads import BENCH_DIR, LAB_REFERENCE, lab_invocations, read_reports, run_cli

SEEDS = (0, 1)


def run_suite(seed: int) -> dict:
    workdir = BENCH_DIR.parent / ".bench_out" / f"reference-seed{seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    out = {}
    for name, argv, out_dir in lab_invocations(seed, workdir):
        code = run_cli(argv)
        reports = read_reports(out_dir) if out_dir.is_dir() else {}
        extras = {f"{report}.{key}": val
                  for report, fields in reports.items() for key, val in fields.items()
                  if isinstance(val, (bool, int, float))}
        out[name] = {"exit": code, "extras": extras}
    shutil.rmtree(workdir, ignore_errors=True)
    return out


def main() -> None:
    first, *others = [run_suite(seed) for seed in SEEDS]
    recorded = {}
    for name, entry in first.items():
        if any(run[name]["exit"] != entry["exit"] for run in others):
            raise SystemExit(f"{name}: exit status depends on the seed")
        extras = {key: val for key, val in sorted(entry["extras"].items())
                  if all(run[name]["extras"].get(key) == val for run in others)}
        recorded[name] = {"exit": entry["exit"], "extras": extras}
    LAB_REFERENCE.write_text(json.dumps(recorded, indent=1) + "\n")
    for name, entry in recorded.items():
        print(f"{name}: exit {entry['exit']}, {len(entry['extras'])} extras")


if __name__ == "__main__":
    main()

"""Experiment driver: subcommand dispatch and report files.

Every subcommand reads one JSON config and runs its checks; its handler
returns the checks' reports by name, and ``main`` writes each as CSV and
JSON side by side into the output directory.  The flags are
``--config`` and ``--out-dir`` on every subcommand, ``--seed`` (which
overrides the config seed), ``witness --case small|large|far`` and
``eval-operator --convergence``; every other value comes from the
config.  Exit status: 0 when every report written has passed, 1
otherwise, 2 on rejected input (malformed config, guard violations, an
``--out-dir`` that cannot be created), which writes no report.  With a
fixed seed, reruns are byte-identical.  The config's one top-level ``p``
is the exponent of every subcommand that measures in L^p.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from . import compactness, symbols, testfn
from .bmo import length_suprema, vmo_profile
from .commutator import commutator_norm_lower, homogeneity_check, unit_images
from .config import ExperimentConfig
from .errors import InputError
from .kernel import random_size_sweep, random_smoothness_sweep
from .operator import apply_on_window, pv_values
from .reports import BoundReport, _write_csv, write_report
from .sampling import lp_norm, sample, sample_on

# Rounding floor of the convergence study, relative to the largest
# finest-level output: a difference |v_h/2 - v_h/4| at or below it is
# summation rounding (about sqrt(N) eps, 2e-14 for N = 1e4 terms), not
# discretization error, so its point is left out of ``observed_order``.
RICHARDSON_FLOOR = 1e-12
# A handler's reports by file name: ``main`` writes them and exits on their verdict.
Reports = Dict[str, BoundReport]


# ----- subcommand handlers ------------------------------------------


def _run_verify_kernel(cfg: ExperimentConfig, args, out_dir: Path) -> Reports:
    kern = cfg.kernel()
    n = cfg.integer("kernel_check.samples", 1)
    box = cfg.number("kernel_check.box")
    rng = cfg.rng()
    return {
        "kernel_size": random_size_sweep(kern, n, rng, box),
        "kernel_smoothness": random_smoothness_sweep(kern, n, rng, box),
        "kernel_smoothness_transposed":
            random_smoothness_sweep(kern, n, rng, box, transposed=True),
    }


def _run_eval_operator(cfg: ExperimentConfig, args, out_dir: Path) -> Reports:
    kern = cfg.kernel()
    f = cfg.function("input")
    out = apply_on_window(kern, f, cfg.interval("window"))
    _write_csv(out_dir / "operator_output.csv", (),
               {"x": out.nodes, "re": out.values.real, "im": out.values.imag})
    extras = {
        "output_points": out.count,
        "output_norm_p2": lp_norm(out, 2.0),
        "step": f.step,
    }
    reports = {}
    if args.convergence:
        lo_edge = f.origin - 0.5 * f.step
        hi_edge = f.origin + (f.count - 0.5) * f.step
        # Level h is the output itself; h/2 and h/4 resample the input, at the output's nodes.
        xs = out.nodes
        half, quarter = (pv_values(kern, sample(f.source, lo_edge, hi_edge, f.count * refine), xs)
                         for refine in (2, 4))
        num = np.abs(out.values - half)
        den = np.abs(half - quarter)
        with np.errstate(divide="ignore", invalid="ignore"):
            rich = np.where(den > 0, num / den, np.inf)
        resolved = den > RICHARDSON_FLOOR * float(np.max(np.abs(quarter), initial=0.0))
        with np.errstate(divide="ignore"):
            orders = np.log2(rich[resolved])
        finite = rich[np.isfinite(rich)]
        conv = BoundReport(
            inequality="Richardson ratio |v_h - v_h/2| / |v_h/2 - v_h/4| per point",
            columns={"x": xs, "lhs": num, "rhs": den, "ratio": rich},
            extras={
                "median_ratio": float(np.median(finite)) if finite.size else float("nan"),
                "observed_order": float(np.median(orders)) if orders.size else float("nan"),
                "points_at_floor": int(np.count_nonzero(~resolved)),
            },
        )
        reports["operator_convergence"] = conv
        extras["median_richardson_ratio"] = conv.extras["median_ratio"]
    reports["operator_summary"] = BoundReport(
        inequality="operator output on the declared window (informational)",
        columns={}, extras=extras,
    )
    return reports


def _run_bmo_norm(cfg: ExperimentConfig, args, out_dir: Path) -> Reports:
    b = cfg.function("symbol")
    max_len = None if cfg.get("bmo.max_length") is None else cfg.number("bmo.max_length")
    return {"bmo_norm": length_suprema(b, max_len)}


def _run_vmo_profile(cfg: ExperimentConfig, args, out_dir: Path) -> Reports:
    b = cfg.function("symbol")
    deltas = [cfg.number(key) for key in cfg.entries("vmo.delta_ladder")]
    radii = [cfg.number(key) for key in cfg.entries("vmo.R_ladder")]
    return {"vmo_profile": vmo_profile(b, deltas, radii).report()}


def _run_verify_homogeneity(cfg: ExperimentConfig, args, out_dir: Path) -> Reports:
    curve = cfg.curve()
    # homogeneity_check needs M > 10, each M once.
    ladder = [cfg.number(key, above=10.0) for key in cfg.entries("homogeneity.M_ladder")]
    if len(set(ladder)) < len(ladder):
        raise InputError(f"config field homogeneity.M_ladder must not repeat an entry, "
                         f"got {ladder}")
    cells = cfg.integer("homogeneity.quadrature_cells", 1)
    points = cfg.integer("homogeneity.eval_points", 1)
    return {"homogeneity": homogeneity_check(curve, ladder, cfg.number("homogeneity.r"),
                                             cells, points)}


def _run_lemma41(cfg: ExperimentConfig, args, out_dir: Path) -> Reports:
    kern = cfg.kernel()
    b = cfg.function("symbol")
    base = cfg.interval("lemma41.interval")
    p = cfg.number("p", above=1.0)
    a1 = cfg.number("lemma41.a1", above=4.0)
    cells = cfg.integer("lemma41.eval_cells", 8)
    ks = [cfg.integer(key, testfn._level_floor(a1)) for key in cfg.entries("lemma41.k_ladder")]
    tf = testfn.build_test_function(b, base, p)
    rep = testfn.annulus_ladder_reports(b, tf, ks, kern, a1, cells)
    inter = testfn.verify_intermediate_bounds(b, tf, ks, kern, a1, cells)
    rep.extras["intermediate_pass"] = all(r.passed for r in inter)
    return {"lemma41": rep, **{f"lemma41_intermediate_k{k}": r for k, r in zip(ks, inter)}}


def _run_fk_diagnose(cfg: ExperimentConfig, args, out_dir: Path) -> Reports:
    kern = cfg.kernel()
    b = cfg.function("symbol")
    origin, step, count = cfg.grid()
    window = cfg.interval("window")
    p = cfg.number("p", above=1.0)
    width = cfg.number("fk.bump_width")
    positions = [cfg.number(key, above=None) for key in cfg.entries("fk.bump_positions")]
    t_ladder = [cfg.number(key) for key in cfg.entries("fk.t_ladder")]
    z_steps = [cfg.integer(key, 1) for key in cfg.entries("fk.z_steps")]
    family = [sample_on(symbols.smooth_bump(pos, 1.0, width), origin, step, count)
              for pos in positions]
    images = unit_images(b, family, p, kern, window)
    zs = [k * images.step for k in z_steps]
    return {"fk_diagnose": compactness.fk_diagnose(images, p, t_ladder, zs)}


def _run_witness(cfg: ExperimentConfig, args, out_dir: Path) -> Reports:
    kern = cfg.kernel()
    b = cfg.function("symbol")
    case = compactness.WitnessCase(args.case)
    a1 = cfg.number("witness.a1", above=4.0)
    a2 = cfg.number("witness.a2", above=a1)
    count = cfg.integer("witness.sequence.count", 2)
    r0 = cfg.number("witness.sequence.r0")
    if case is compactness.WitnessCase.FAR_AWAY:
        seq = compactness.far_away_sequence(r0, a2, count)
    else:
        build = (compactness.small_scale_sequence if case is compactness.WitnessCase.SMALL_SCALE
                 else compactness.large_scale_sequence)
        seq = build(cfg.number("witness.sequence.center", above=None), r0,
                    cfg.number("witness.sequence.ratio", above=1.0), count)
    return {"witness": compactness.witness_separation(
        b, case, seq, kern, a1, a2, cfg.number("p", above=1.0),
        cfg.integer("witness.eval_cells", 1), cfg.integer("witness.nodes_per_radius", 1))}


def _run_commutator_norm(cfg: ExperimentConfig, args, out_dir: Path) -> Reports:
    kern = cfg.kernel()
    b = cfg.function("symbol")
    p = cfg.number("p", above=1.0)
    window = cfg.interval("window")
    family = [cfg.function(key) for key in cfg.entries("commutator_norm.family")]
    return {"commutator_norm": commutator_norm_lower(b, p, family, kern, window)}


HANDLERS = {
    "verify-kernel": _run_verify_kernel,
    "eval-operator": _run_eval_operator,
    "bmo-norm": _run_bmo_norm,
    "vmo-profile": _run_vmo_profile,
    "verify-homogeneity": _run_verify_homogeneity,
    "lemma41": _run_lemma41,
    "fk-diagnose": _run_fk_diagnose,
    "witness": _run_witness,
    "commutator-norm": _run_commutator_norm,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cauchylab",
        description="desk-scale checks for the Cauchy integral, its commutator, "
                    "and oscillation/compactness diagnostics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", help="JSON config file")
        sp.add_argument("--seed", type=int, help="override the config seed")
        sp.add_argument("--out-dir", default="reports", help="report directory")

    for name in HANDLERS:
        sp = sub.add_parser(name)
        common(sp)
        if name == "witness":
            sp.add_argument("--case", choices=[c.value for c in compactness.WitnessCase],
                            default="small", help="degeneration case of the sequence")
        if name == "eval-operator":
            sp.add_argument("--convergence", action="store_true",
                            help="sweep step, step/2, step/4 and report Richardson ratios")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = (ExperimentConfig.load(args.config) if args.config
               else ExperimentConfig.from_dict({}))
        if args.seed is not None:
            cfg.data["seed"] = args.seed
        cfg.integer("seed", 0)  # validated for every subcommand; only verify-kernel draws
        out_dir = Path(args.out_dir)
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise InputError(f"cannot create --out-dir {out_dir}: {exc.strerror}") from exc
        reports = HANDLERS[args.command](cfg, args, out_dir)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for name, rep in reports.items():
        write_report(rep, out_dir, name)
    ok = all(rep.passed for rep in reports.values())
    print(f"{args.command}: {'pass' if ok else 'FAIL'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

"""Experiment driver: subcommand dispatch and report files.

Every subcommand reads one JSON config, runs its checks, and writes CSV
and JSON reports side by side into the output directory.  The flags are
``--config`` and ``--out-dir`` on every subcommand, ``--seed`` (which
overrides the config seed), ``witness --case small|large|far`` and
``eval-operator --convergence``; every other value comes from the
config.  Exit status: 0 when every pass/fail check in the run passed, 1
on any bound violation, 2 on rejected input (malformed config, guard
violations).  With a fixed seed, reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

import numpy as np

from . import compactness, testfn
from .bmo import oscillation_table, vmo_profile
from .commutator import (
    HomogeneityConfig,
    apply_commutator,
    commutator_norm_lower,
    make_homogeneity_case,
    homogeneity_check,
)
from .config import ExperimentConfig
from .errors import InputError
from .kernel import CauchyKernel, random_size_sweep, random_smoothness_sweep
from .operator import apply_on_window, pv_values
from .reports import BoundReport, write_report
from .sampling import function_to_csv, lp_norm, sample_on
from .symbols import make_symbol

MAX_REPORT_ROWS = 200

# Rounding floor of the convergence study, relative to the largest
# finest-level output: a difference |v_h/2 - v_h/4| at or below it is
# summation rounding (about sqrt(N) eps, 2e-14 for N = 1e4 terms), not
# discretization error, so its point is left out of ``observed_order``.
RICHARDSON_FLOOR = 1e-12


def _trim_rows(report: BoundReport) -> BoundReport:
    """Keep the ``MAX_REPORT_ROWS`` worst rows by lhs/rhs ratio plus every violation."""
    n = report.n_rows
    if n <= MAX_REPORT_ROWS:
        return report
    ratios = report.ratios()
    order = np.argsort(-ratios, kind="stable")
    keep = order[:MAX_REPORT_ROWS]
    if "pass" in report.columns:
        bad = np.nonzero(~report.columns["pass"].astype(bool))[0]
        keep = np.unique(np.concatenate([keep, bad]))
    else:
        keep = np.sort(keep)
    cols = {k: v[keep] for k, v in report.columns.items()}
    extras = dict(report.extras)
    extras["rows_total"] = n
    extras["rows_written"] = int(keep.size)
    return BoundReport(report.inequality, cols, extras)


# ----- subcommand handlers ------------------------------------------


def _run_verify_kernel(cfg: ExperimentConfig, args, rng, out_dir: Path) -> bool:
    kern = cfg.kernel()
    n = cfg.integer("kernel_check.samples", 1)
    box = cfg.number("kernel_check.box")
    ok = True
    for name, rep in (
        ("kernel_size", random_size_sweep(kern, n, rng, box)),
        ("kernel_smoothness", random_smoothness_sweep(kern, n, rng, box)),
        ("kernel_smoothness_transposed",
         random_smoothness_sweep(kern, n, rng, box, transposed=True)),
    ):
        ok &= rep.passed
        write_report(_trim_rows(rep), out_dir, name)
    return ok


def _run_eval_operator(cfg: ExperimentConfig, args, rng, out_dir: Path) -> bool:
    kern = cfg.kernel()
    f = cfg.function("input")
    out = apply_on_window(kern, f, cfg.interval("window"))
    function_to_csv(out, out_dir / "operator_output.csv")
    extras = {
        "output_points": out.count,
        "output_norm_p2": lp_norm(out, 2.0),
        "step": f.step,
    }
    if args.convergence:
        if f.source is None:
            raise InputError("convergence mode needs a built-in input, not CSV samples")
        lo_edge = f.origin - 0.5 * f.step
        hi_edge = f.origin + (f.count - 0.5) * f.step
        xs = out.nodes
        levels = []
        for refine in (1, 2, 4):
            count = f.count * refine
            h = (hi_edge - lo_edge) / count
            fr = sample_on(f.source, lo_edge + 0.5 * h, h, count)
            levels.append(pv_values(kern, fr, xs))
        num = np.abs(levels[0] - levels[1])
        den = np.abs(levels[1] - levels[2])
        with np.errstate(divide="ignore", invalid="ignore"):
            rich = np.where(den > 0, num / den, np.inf)
        resolved = den > RICHARDSON_FLOOR * float(np.max(np.abs(levels[2]), initial=0.0))
        with np.errstate(divide="ignore"):
            orders = np.log2(rich[resolved])
        conv = BoundReport(
            inequality="Richardson ratio |v_h - v_h/2| / |v_h/2 - v_h/4| per point",
            columns={"x": xs, "lhs": num, "rhs": den, "ratio": rich},
            extras={
                "median_ratio": float(np.median(rich[np.isfinite(rich)])),
                "observed_order": float(np.median(orders)) if orders.size else float("nan"),
                "points_at_floor": int(np.count_nonzero(~resolved)),
            },
        )
        write_report(conv, out_dir, "operator_convergence")
        extras["median_richardson_ratio"] = conv.extras["median_ratio"]
    summary = BoundReport(
        inequality="operator output on the declared window (informational)",
        columns={}, extras=extras,
    )
    write_report(summary, out_dir, "operator_summary")
    return True


def _run_bmo_norm(cfg: ExperimentConfig, args, rng, out_dir: Path) -> bool:
    b = cfg.function("symbol")
    max_len = cfg.get("bmo.max_length")
    table = oscillation_table(b)
    measures, centers, oscs = table.measures, table.intervals.centers, table.oscs
    if max_len is not None:
        keep = measures <= float(max_len)
        if not np.any(keep):
            raise InputError("no sweep intervals at or below bmo.max_length")
        measures, centers, oscs = measures[keep], centers[keep], oscs[keep]
    # Rows by length, then by falling oscillation; the stable sort keeps the
    # first of tied rows first, so each length reports its first maximum.
    order = np.lexsort((-oscs, measures))
    lengths, first = np.unique(measures[order], return_index=True)
    best = order[first]
    rep = BoundReport(
        inequality="sup_I mean oscillation over the dyadic sweep (lower bound)",
        columns={"length": lengths, "center": centers[best], "lhs": oscs[best]},
        extras={"bmo_lower_bound": float(oscs.max()), "intervals_swept": int(oscs.size)},
    )
    write_report(rep, out_dir, "bmo_norm")
    return True


def _run_vmo_profile(cfg: ExperimentConfig, args, rng, out_dir: Path) -> bool:
    b = cfg.function("symbol")
    profile = vmo_profile(b, cfg.nonempty("vmo.delta_ladder"), cfg.nonempty("vmo.R_ladder"))
    kinds, params, sups = [], [], []
    for kind, curve in (
        ("small_scale", profile.small_scale),
        ("large_scale", profile.large_scale),
        ("far_away", profile.far_away),
    ):
        for par, sup in curve:
            kinds.append(kind)
            params.append(par)
            sups.append(sup)
    rep = BoundReport(
        inequality="oscillation suprema along the three vanishing limits (lower bounds)",
        columns={"limit": np.asarray(kinds), "parameter": np.asarray(params),
                 "lhs": np.asarray(sups)},
        extras={},
    )
    write_report(rep, out_dir, "vmo_profile")
    return True


def _run_verify_homogeneity(cfg: ExperimentConfig, args, rng, out_dir: Path) -> bool:
    curve = cfg.curve()
    ladder = [float(M) for M in cfg.nonempty("homogeneity.M_ladder")]
    hcfg = HomogeneityConfig(
        quadrature_cells=cfg.integer("homogeneity.quadrature_cells", 1),
        eval_points=cfg.integer("homogeneity.eval_points", 1),
        slack=float(cfg.get("homogeneity.slack")),
    )
    r = cfg.number("homogeneity.r")
    rows = {"M": [], "lhs": [], "rhs": [], "raw_min": [], "pass": []}
    for M in ladder:
        rep = homogeneity_check(make_homogeneity_case(curve, M, r), hcfg)
        rows["M"].append(M)
        rows["lhs"].append(rep.extras["adjusted_min"])
        rows["rhs"].append(rep.extras["slack"] * rep.extras["target"])
        rows["raw_min"].append(rep.extras["raw_min"])
        rows["pass"].append(rep.passed)
    extras = {"L": curve.lipschitz_constant, "r": r, "slack": hcfg.slack}
    all_ok = all(rows["pass"])
    if len(ladder) >= 2:
        slope = float(np.polyfit(np.log(rows["M"]), np.log(rows["lhs"]), 1)[0])
        band = float(cfg.get("homogeneity.slope_band"))
        extras.update(slope=slope, slope_target=-1.0, slope_band=band)
        all_ok &= abs(slope + 1.0) <= band
    rep = BoundReport(
        inequality="min_x pi |C(chi_I1)(x)| >= slack * 2/((L^2+1) M); slope vs M is -1",
        columns={k: np.asarray(v) for k, v in rows.items()},
        extras=extras,
    )
    write_report(rep, out_dir, "homogeneity")
    return all_ok


def _run_lemma41(cfg: ExperimentConfig, args, rng, out_dir: Path) -> bool:
    kern = cfg.kernel()
    b = cfg.function("symbol")
    base = cfg.interval("lemma41.interval")
    p = cfg.number("lemma41.p", above=1.0)
    ks = [int(k) for k in cfg.nonempty("lemma41.k_ladder")]
    lower_cap = float(cfg.get("lemma41.lower_spread_cap"))
    upper_cap = float(cfg.get("lemma41.upper_spread_cap"))
    acfg = testfn.AnnulusConfig(
        a1=cfg.number("lemma41.a1", above=4.0),
        eval_cells=cfg.integer("lemma41.eval_cells", 8),
    )
    tf = testfn.build_test_function(b, base, p)
    lowers, uppers = testfn.annulus_ladder_reports(b, tf, ks, kern, acfg)
    inter = [testfn.verify_intermediate_bounds(b, tf, k, kern, acfg) for k in ks]

    eps_p = tf.epsilon**p
    low_c1 = [rep.ratio / eps_p for rep in lowers]
    up_ratio = [rep.ratio for rep in uppers]
    rows = {
        "k": np.asarray([r.k for r in lowers + uppers]),
        "side": np.asarray([r.side.value for r in lowers + uppers]),
        "lhs": np.asarray([r.lhs for r in lowers + uppers]),
        "normalizer": np.asarray([r.normalizer for r in lowers + uppers]),
        "ratio": np.asarray([r.ratio for r in lowers + uppers]),
    }
    lower_spread = max(low_c1) / min(low_c1) if min(low_c1) > 0 else np.inf
    upper_spread = max(up_ratio) / min(up_ratio) if min(up_ratio) > 0 else np.inf
    ok = (
        lower_spread <= lower_cap
        and upper_spread <= upper_cap
        and all(r.passed for r in inter)
    )
    rep = BoundReport(
        inequality=(
            "annulus integrals of |[b,C]f|^p follow the dyadic power law: "
            "lower ratios k-stable, upper ratios k-bounded"
        ),
        columns=rows,
        extras={
            "p": p,
            "epsilon": tf.epsilon,
            "a_j": tf.a_j,
            "c1_candidate_min": min(low_c1),
            "c1_candidate_max": max(low_c1),
            "lower_spread": lower_spread,
            "c2_candidate_max": max(up_ratio),
            "upper_spread": upper_spread,
            "intermediate_pass": all(r.passed for r in inter),
        },
    )
    write_report(rep, out_dir, "lemma41")
    for k, irep in zip(ks, inter):
        write_report(_trim_rows(irep), out_dir, f"lemma41_intermediate_k{k}")
    return bool(ok)


def _run_fk_diagnose(cfg: ExperimentConfig, args, rng, out_dir: Path) -> bool:
    kern = cfg.kernel()
    b = cfg.function("symbol")
    origin, step, count = cfg.grid()
    window = cfg.interval("window")
    p = cfg.number("fk.p", above=1.0)
    width = cfg.number("fk.bump_width")
    positions = cfg.nonempty("fk.bump_positions")
    t_ladder = cfg.nonempty("fk.t_ladder")
    z_steps = cfg.nonempty("fk.z_steps")
    family = []
    for pos in positions:
        fn = make_symbol("smooth_bump", center=float(pos), height=1.0, width=width)
        g = sample_on(fn, origin, step, count)
        norm = lp_norm(g, p)
        if norm == 0:
            raise InputError(f"fk bump at {pos} misses the grid")
        family.append(g.with_values(g.values / norm))
    images = [apply_commutator(b, f, kern, window) for f in family]
    h_out = images[0].step
    zs = [int(k) * h_out for k in z_steps]
    report = compactness.fk_diagnose(images, p, t_ladder, zs)
    kinds, params, vals = ["uniform_bound"], [0.0], [report.uniform_bound]
    for t, v in report.tail_curve:
        kinds.append("tail")
        params.append(t)
        vals.append(v)
    for z, v in report.equicontinuity_curve:
        kinds.append("equicontinuity")
        params.append(z)
        vals.append(v)
    rep = BoundReport(
        inequality="uniform bound, tail, and shift-difference curves of the image set",
        columns={"curve": np.asarray(kinds), "parameter": np.asarray(params),
                 "lhs": np.asarray(vals)},
        extras={"p": p, "images": len(images)},
    )
    write_report(rep, out_dir, "fk_diagnose")
    return True


def _run_witness(cfg: ExperimentConfig, args, rng, out_dir: Path) -> bool:
    kern = cfg.kernel()
    b = cfg.function("symbol")
    case = compactness.WitnessCase(args.case)
    seq_spec = cfg.get("witness.sequence")
    a1 = cfg.number("witness.a1", above=4.0)
    a2 = float(cfg.get("witness.a2"))
    count = cfg.integer("witness.sequence.count", 2)
    if case is compactness.WitnessCase.SMALL_SCALE:
        seq = compactness.small_scale_sequence(
            float(seq_spec["center"]), float(seq_spec["r0"]),
            float(seq_spec["ratio"]), count)
    elif case is compactness.WitnessCase.LARGE_SCALE:
        seq = compactness.large_scale_sequence(
            float(seq_spec["center"]), float(seq_spec["r0"]),
            float(seq_spec["ratio"]), count)
    else:
        seq = compactness.far_away_sequence(float(seq_spec["r0"]), a2, count)
    wcfg = compactness.WitnessConfig(
        case=case, a1=a1, a2=a2, interval_sequence=seq,
        p=cfg.number("witness.p", above=1.0),
    )
    engine = compactness.WitnessEngineConfig(
        eval_cells=cfg.integer("witness.eval_cells", 1),
        nodes_per_radius=cfg.integer("witness.nodes_per_radius", 1),
    )
    report = compactness.witness_separation(b, wcfg, kern, engine)
    n = report.distances.shape[0]
    ii, jj = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    rep = BoundReport(
        inequality="pairwise L^p distances of commutator images stay separated",
        columns={
            "i": ii.ravel(),
            "j": jj.ravel(),
            "lhs": report.distances.ravel(),
        },
        extras={
            "case": args.case,
            "min_offdiag": report.min_offdiag,
            "epsilon": report.epsilon,
            "c1_empirical": report.c1_empirical,
            "c2_empirical": report.c2_empirical,
            "a3": report.a3,
            "a3_root": report.a3 ** (1.0 / wcfg.p),
            "a2_used": report.a2_used,
            "a2_recommended": report.a2_recommended,
            "prefix_note": report.prefix_note,
        },
    )
    write_report(rep, out_dir, "witness")
    return report.min_offdiag > 0


def _run_commutator_norm(cfg: ExperimentConfig, args, rng, out_dir: Path) -> bool:
    kern = cfg.kernel()
    b = cfg.function("symbol")
    origin, step, count = cfg.grid()
    p = cfg.number("commutator_norm.p", above=1.0)
    window = cfg.interval("window")
    specs = cfg.nonempty("commutator_norm.family")
    family = []
    for spec in specs:
        fn = make_symbol(spec["kind"], **(spec.get("params", {}) or {}))
        family.append(sample_on(fn, origin, step, count))
    ratios = []
    for f in family:
        ratios.append(commutator_norm_lower(b, p, [f], kern, window))
    rep = BoundReport(
        inequality="max_f |[b,C]f|_p / |f|_p over the family (lower bound)",
        columns={"member": np.arange(len(family)), "lhs": np.asarray(ratios)},
        extras={"p": p, "norm_lower_bound": max(ratios)},
    )
    write_report(rep, out_dir, "commutator_norm")
    return True


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
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        rng = cfg.rng()
        ok = HANDLERS[args.command](cfg, args, rng, out_dir)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"{args.command}: {'pass' if ok else 'FAIL'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

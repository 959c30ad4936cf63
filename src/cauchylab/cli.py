"""Experiment driver: subcommand dispatch, flag overrides, report files.

Every subcommand reads one JSON config (flags win over file values),
runs its checks, and writes CSV and JSON reports side by side into the
output directory.  Exit status: 0 when every pass/fail check in the run
passed, 1 on any bound violation, 2 on rejected input (malformed config,
guard violations).  With a fixed seed, reruns are byte-identical.
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
from .curve import LipschitzCurve
from .errors import InputError
from .kernel import CauchyKernel, random_size_sweep, random_smoothness_sweep
from .operator import EvalConfig, apply_on_window, pv_values
from .reports import BoundReport, write_report
from .sampling import (
    Interval,
    SampledFunction,
    function_from_csv,
    function_to_csv,
    lp_norm,
    sample_on,
)
from .symbols import make_symbol

MAX_REPORT_ROWS = 200


def _parse_floats(text: str) -> List[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise InputError(f"bad numeric list {text!r}: {exc}") from exc


def _parse_int_ladder(text: str) -> List[int]:
    text = text.strip()
    if ".." in text:
        lo_s, hi_s = text.split("..", 1)
        try:
            lo, hi = int(lo_s), int(hi_s)
        except ValueError as exc:
            raise InputError(f"bad ladder {text!r}") from exc
        if hi < lo:
            raise InputError(f"bad ladder {text!r}: end before start")
        return list(range(lo, hi + 1))
    try:
        return [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise InputError(f"bad integer list {text!r}") from exc


def _trim_rows(report: BoundReport, max_rows: int = MAX_REPORT_ROWS) -> BoundReport:
    """Keep the worst rows by lhs/rhs ratio plus every violation."""
    n = report.n_rows
    if n <= max_rows:
        return report
    ratios = report.ratios()
    order = np.argsort(-ratios, kind="stable")
    keep = order[:max_rows]
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
    n = int(cfg.get("kernel_check.samples"))
    box = float(cfg.get("kernel_check.box"))
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
    window = cfg.interval("window")
    eval_cfg = EvalConfig(window, cfg.pv(f))
    out = apply_on_window(kern, f, eval_cfg)
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
        conv = BoundReport(
            inequality="Richardson ratio |v_h - v_h/2| / |v_h/2 - v_h/4| per point",
            columns={"x": xs, "lhs": num, "rhs": den, "ratio": rich},
            extras={"median_ratio": float(np.median(rich[np.isfinite(rich)]))},
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
    if max_len is not None:
        table = [(I, osc) for I, osc in table if I.measure <= float(max_len)]
        if not table:
            raise InputError("no sweep intervals at or below bmo.max_length")
    by_length: dict = {}
    for I, osc in table:
        cur = by_length.get(I.measure)
        if cur is None or osc > cur[1]:
            by_length[I.measure] = (I, osc)
    lengths = sorted(by_length)
    norm = max(osc for _, osc in table)
    rep = BoundReport(
        inequality="sup_I mean oscillation over the dyadic sweep (lower bound)",
        columns={
            "length": np.asarray(lengths),
            "center": np.asarray([by_length[L][0].center for L in lengths]),
            "lhs": np.asarray([by_length[L][1] for L in lengths]),
        },
        extras={"bmo_lower_bound": norm, "intervals_swept": len(table)},
    )
    write_report(rep, out_dir, "bmo_norm")
    return True


def _run_vmo_profile(cfg: ExperimentConfig, args, rng, out_dir: Path) -> bool:
    b = cfg.function("symbol")
    profile = vmo_profile(b, cfg.get("vmo.delta_ladder"), cfg.get("vmo.R_ladder"))
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
    if args.L is not None:
        curve = LipschitzCurve.flat() if args.L == 0 else LipschitzCurve.affine(args.L)
    else:
        curve = cfg.curve()
    ladder = _parse_floats(args.M_ladder) if args.M_ladder else [
        float(M) for M in cfg.get("homogeneity.M_ladder")
    ]
    if not ladder:
        raise InputError("empty M ladder")
    hcfg = HomogeneityConfig(
        quadrature_cells=int(cfg.get("homogeneity.quadrature_cells")),
        eval_points=int(cfg.get("homogeneity.eval_points")),
        slack=float(cfg.get("homogeneity.slack")),
    )
    r = float(cfg.get("homogeneity.r"))
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
    if args.b:
        b = function_from_csv(args.b)
    else:
        b = cfg.function("symbol")
    if args.interval:
        vals = _parse_floats(args.interval)
        if len(vals) != 2:
            raise InputError("--interval takes center,radius")
        base = Interval(vals[0], vals[1])
    else:
        base = cfg.interval("lemma41.interval")
    p = args.p if args.p is not None else float(cfg.get("lemma41.p"))
    ks = _parse_int_ladder(args.k_ladder) if args.k_ladder else [
        int(k) for k in cfg.get("lemma41.k_ladder")
    ]
    acfg = testfn.AnnulusConfig(
        a1=float(cfg.get("lemma41.a1")),
        eval_cells=int(cfg.get("lemma41.eval_cells")),
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
        lower_spread <= float(cfg.get("lemma41.lower_spread_cap"))
        and upper_spread <= float(cfg.get("lemma41.upper_spread_cap"))
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
    p = float(cfg.get("fk.p"))
    width = float(cfg.get("fk.bump_width"))
    family = []
    for pos in cfg.get("fk.bump_positions"):
        fn = make_symbol("smooth_bump", center=float(pos), height=1.0, width=width)
        g = sample_on(fn, origin, step, count)
        norm = lp_norm(g, p)
        if norm == 0:
            raise InputError(f"fk bump at {pos} misses the grid")
        family.append(g.with_values(g.values / norm, source=None))
    eval_cfg = EvalConfig(window)
    images = [apply_commutator(b, f, kern, eval_cfg) for f in family]
    h_out = images[0].step
    zs = [int(k) * h_out for k in cfg.get("fk.z_steps")]
    report = compactness.fk_diagnose(images, p, cfg.get("fk.t_ladder"), zs)
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
    case_name = args.case or cfg.get("witness.case")
    case = {
        "small": compactness.WitnessCase.SMALL_SCALE,
        "large": compactness.WitnessCase.LARGE_SCALE,
        "far": compactness.WitnessCase.FAR_AWAY,
    }.get(case_name)
    if case is None:
        raise InputError(f"unknown witness case {case_name!r}")
    seq_spec = cfg.get("witness.sequence")
    a1 = float(cfg.get("witness.a1"))
    a2 = float(cfg.get("witness.a2"))
    count = int(seq_spec["count"])
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
        p=float(cfg.get("witness.p")),
    )
    engine = compactness.WitnessEngineConfig(
        eval_cells=int(cfg.get("witness.eval_cells")),
        nodes_per_radius=int(cfg.get("witness.nodes_per_radius")),
        annulus=testfn.AnnulusConfig(a1=8.0, eval_cells=256),
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
            "case": case_name,
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
    p = float(cfg.get("commutator_norm.p"))
    window = cfg.interval("window")
    family = []
    for spec in cfg.get("commutator_norm.family"):
        fn = make_symbol(spec["kind"], **(spec.get("params", {}) or {}))
        family.append(sample_on(fn, origin, step, count))
    eval_cfg = EvalConfig(window)
    ratios = []
    for f in family:
        ratios.append(commutator_norm_lower(b, p, [f], kern, eval_cfg))
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
        if name == "verify-homogeneity":
            sp.add_argument("--L", type=float, default=None,
                            help="Lipschitz constant (0 for flat, else affine slope)")
            sp.add_argument("--M-ladder", dest="M_ladder", default=None,
                            help="comma-separated separation factors")
        if name == "lemma41":
            sp.add_argument("--b", default=None, help="symbol samples CSV (x, re, im)")
            sp.add_argument("--interval", default=None, help="base interval center,radius")
            sp.add_argument("--p", type=float, default=None)
            sp.add_argument("--k-ladder", dest="k_ladder", default=None,
                            help="levels, for example 3..8 or 3,5,7")
        if name == "witness":
            sp.add_argument("--case", choices=["small", "large", "far"], default=None)
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
            cfg.set("seed", args.seed)
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

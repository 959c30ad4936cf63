"""Acceptance suite: one test per quantitative exit criterion.

Each test prints one pass/fail line (visible with ``pytest -s``) and
asserts the criterion at its stated tolerance and runtime budget.
"""

import json
import random
import time

import numpy as np
import pytest

from cauchylab import (
    CauchyKernel,
    Interval,
    LipschitzCurve,
    SampledFunction,
    WitnessCase,
    annulus_ladder_reports,
    apply_commutator,
    build_test_function,
    check_invariants,
    homogeneity_check,
    mean_deviation,
    median,
    pv_values,
    random_size_sweep,
    random_smoothness_sweep,
    sample,
    sample_on,
    tail_decay_check,
    witness_separation,
)
from cauchylab.cli import main as cli_main
from cauchylab.symbols import indicator, sign_step, smooth_bump, truncated_log

from conftest import random_symbol_case

FLAT = CauchyKernel.for_curve(LipschitzCurve.flat())


def _report(num, name, ok, detail=""):
    print(f"[acceptance {num:02d}] {name}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


@pytest.fixture(scope="module")
def witness_pair():
    """Shared small-scale witness runs for the two contrast symbols."""
    from cauchylab.compactness import small_scale_sequence

    seq = small_scale_sequence(0.0, 0.2, 5.0, 4)
    out = {}
    t0 = time.perf_counter()
    for name, fn in (("log", truncated_log(0.0)), ("bump", smooth_bump(0.0, 1.0, 1.0))):
        b = sample_on(fn, -2.0, 0.01, 401)
        out[name] = witness_separation(b, WitnessCase.SMALL_SCALE, seq, FLAT, 4.2, 4.9, 2.0,
                                       eval_cells=8192, nodes_per_radius=64)
    out["runtime"] = time.perf_counter() - t0
    return out


def test_c01_kernel_standard_estimates():
    rng = random.Random(20260810)
    t0 = time.perf_counter()
    worst = 0
    for curve in (LipschitzCurve.flat(), LipschitzCurve.affine(1.0),
                  LipschitzCurve.sawtooth(1.0, 4.0)):
        kern = CauchyKernel.for_curve(curve)
        for rep in (
            random_size_sweep(kern, 100_000, rng),
            random_smoothness_sweep(kern, 100_000, rng),
            random_smoothness_sweep(kern, 100_000, rng, transposed=True),
        ):
            worst += rep.extras["n_violations"]
    dt = time.perf_counter() - t0
    _report(1, "kernel standard estimates", worst == 0 and dt < 10.0,
            f"violations={worst} runtime={dt:.2f}s")


def test_c02_flat_curve_closed_form_oracle():
    t0 = time.perf_counter()
    expect = float(np.log(1.0 / 3.0))
    f1 = sample(indicator(-1.0, 1.0), -1.0, 1.0, 20_000)  # step 1e-4
    v1 = pv_values(FLAT, f1, [2.0])[0]
    err1 = abs(v1.real - expect)
    f2 = sample(indicator(-1.0, 1.0), -1.0, 1.0, 40_000)  # step 5e-5
    v2 = pv_values(FLAT, f2, [2.0])[0]
    err2 = abs(v2.real - expect)
    dt = time.perf_counter() - t0
    ok = err1 <= 1e-4 and err2 <= 0.5 * err1 and dt < 5.0
    _report(2, "flat-curve closed-form oracle", ok,
            f"err={err1:.3e} halved_err={err2:.3e} runtime={dt:.2f}s")


def test_c03_homogeneity_lower_bound():
    t0 = time.perf_counter()
    ok = True
    details = []
    for L, curve in ((0, LipschitzCurve.flat()), (1, LipschitzCurve.affine(1.0))):
        Ms = np.array([16.0, 64.0, 256.0, 1024.0])
        rep = homogeneity_check(curve, Ms, 1.0)
        target = 2.0 / ((L * L + 1.0) * Ms)
        ok &= bool(np.all(rep.columns["lhs"] >= 0.9 * target))
        slope = rep.extras["slope"]
        ok &= abs(slope + 1.0) <= 0.1
        details.append(f"L={L} slope={slope:.3f}")
    dt = time.perf_counter() - t0
    ok &= dt < 60.0
    _report(3, "separated-interval lower bound", ok,
            " ".join(details) + f" runtime={dt:.1f}s")


def test_c04_test_function_invariants(rng):
    t0 = time.perf_counter()
    failures = []
    for i in range(100):
        b, base, p = random_symbol_case(rng)
        tf = build_test_function(b, base, p)
        inv = check_invariants(tf, b)
        checks = (
            inv["mean_zero"] <= inv["mean_zero_tol"],
            inv["a_j_abs"] <= 0.5 + 1e-12,
            inv["support_leak"] == 0.0,
            inv["sign_min"] >= -1e-12,
            inv["band_lo"] >= 0.5 * (1 - 1e-12),
            inv["band_hi"] <= 2.5 * (1 + 1e-12),
        )
        if not all(checks):
            failures.append((i, inv))
    dt = time.perf_counter() - t0
    _report(4, "oscillation-split construction invariants",
            not failures and dt < 30.0,
            f"cases=100 failures={len(failures)} runtime={dt:.1f}s")


def test_c05_annulus_power_laws():
    t0 = time.perf_counter()
    base = Interval(0.0, 1.0)
    ok = True
    details = []
    for name, fn in (("sign", sign_step(0.0)), ("log", truncated_log(0.0))):
        b = sample(fn, -1.25, 1.25, 2500)
        tf = build_test_function(b, base, 2.0)
        rep = annulus_ladder_reports(b, tf, range(3, 9), FLAT)
        lower = rep.columns["side"] == "lower"
        c1 = rep.columns["ratio"][lower] / tf.epsilon**2
        c2 = rep.columns["ratio"][~lower]
        low_spread = max(c1) / min(c1)
        up_spread = max(c2) / min(c2)
        ok &= low_spread <= 3.0 and up_spread <= 10.0
        details.append(f"{name}: lower_spread={low_spread:.2f} upper_spread={up_spread:.2f}")
    dt = time.perf_counter() - t0
    ok &= dt < 120.0
    _report(5, "annulus power laws", ok, " ".join(details) + f" runtime={dt:.1f}s")


def test_c06_median_equivalence(rng):
    violations = 0
    for _ in range(200):
        n = int(rng.integers(16, 2000))
        kind = int(rng.integers(0, 3))
        if kind == 0:
            vals = rng.normal(size=n)
        elif kind == 1:
            vals = np.sin(np.linspace(0, 20, n)) + rng.normal(scale=0.2, size=n)
        else:
            vals = rng.choice([-2.0, 0.5, 3.0], size=n)
        f = SampledFunction(-1.0, 2.0 / n, vals)
        radius = float(rng.uniform(0.2, 0.95))
        I = Interval(float(rng.uniform(-0.2, 0.2)), radius)
        if not np.any(f.node_mask(I)):
            continue
        alpha = median(f, I)
        lhs = mean_deviation(f, I, alpha)
        nodes = f.values.real[f.node_mask(I)]
        # Independent brute force over all node values.
        best = np.min(np.mean(np.abs(nodes[None, :] - nodes[:, None]), axis=1))
        if lhs > 2.0 * best + 4 * f.step:
            violations += 1
    _report(6, "median two-sided equivalence", violations == 0,
            f"cases=200 violations={violations}")


def test_c07_tail_decay_rate():
    t0 = time.perf_counter()
    b = sample(smooth_bump(0.0, 1.0, 1.0), -1.5, 1.5, 3000)
    f = sample(indicator(-1.0, 1.0), -1.5, 1.5, 3000)
    rep = tail_decay_check(b, 1.0, [f], 2.0, [4.0, 8.0, 16.0, 32.0], FLAT)
    dt = time.perf_counter() - t0
    slope = rep.extras["slope"]
    ok = abs(slope + 0.5) <= 0.15 and dt < 60.0
    _report(7, "commutator tail decay", ok, f"slope={slope:.3f} runtime={dt:.1f}s")


def test_c08_compactness_contrast(witness_pair):
    sep = witness_pair["log"].extras["min_offdiag"]
    collapse = witness_pair["bump"].extras["min_offdiag"]
    dt = witness_pair["runtime"]
    ok = sep > 10.0 * collapse and dt < 180.0
    _report(8, "oscillating vs vanishing contrast", ok,
            f"separated={sep:.3e} collapsing={collapse:.3e} "
            f"ratio={sep / collapse:.1e} runtime={dt:.1f}s")


def test_c09_algebraic_exactness(rng, witness_pair):
    # Commutator bilinearity in the symbol.
    b = sample(lambda y: np.sin(2 * y) + 0.3 * np.sign(y - 0.2), -2, 2, 2000)
    f = sample(lambda y: np.exp(-(y**2)), -2, 2, 2000)
    window = Interval(0.0, 1.5)
    one = apply_commutator(b, f, FLAT, window)
    lam = float(rng.uniform(0.5, 4.0))
    two = apply_commutator(b.scaled(lam), f, FLAT, window)
    bilinear = np.max(np.abs(two.values - lam * one.values)) <= 1e-12 * np.max(
        np.abs(lam * one.values)
    )
    # Principal-value linearity in the input.
    g = sample(lambda y: np.cos(3 * y), -2, 2, 2000)
    xs = f.midpoints_in(Interval(0.0, 1.0))
    vf, vg = pv_values(FLAT, f, xs), pv_values(FLAT, g, xs)
    vs = pv_values(FLAT, f.with_values(f.values + g.values), xs)
    mu = complex(rng.normal(), rng.normal())
    vl = pv_values(FLAT, f.with_values(mu * f.values), xs)
    scale = np.max(np.abs(vf)) + np.max(np.abs(vg))
    additive = np.max(np.abs(vs - (vf + vg))) <= 1e-12 * scale
    homogeneous = np.max(np.abs(vl - mu * vf)) <= 1e-12 * abs(mu) * scale
    # Distance-matrix symmetry with zero diagonal.
    log = witness_pair["log"]
    n = int(np.sqrt(log.n_rows))
    d = log.columns["lhs"].reshape(n, n)
    symmetric = np.max(np.abs(d - d.T)) <= 1e-12 * np.max(d)
    zero_diag = np.all(np.diag(d) == 0.0)
    ok = bilinear and additive and homogeneous and symmetric and zero_diag
    _report(9, "algebraic exactness", ok,
            f"bilinear={bilinear} additive={additive} homogeneous={homogeneous} "
            f"symmetric={symmetric} zero_diag={zero_diag}")


def test_c10_deterministic_reports(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({
        "kernel_check": {"samples": 20_000},
        "symbol": {"kind": "truncated_log", "params": {}},
        "grid": {"step": 0.002, "count": 1250},
        "lemma41": {"k_ladder": [3, 4]},
    }))
    identical = True
    for command in (["verify-kernel"], ["lemma41"]):
        dirs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{command[0]}-{tag}"
            rc = cli_main(command + ["--config", str(cfg), "--seed", "7",
                                     "--out-dir", str(out)])
            identical &= rc == 0
            dirs.append(out)
        for fp in sorted(dirs[0].iterdir()):
            identical &= fp.read_bytes() == (dirs[1] / fp.name).read_bytes()
    _report(10, "seeded runs are byte-identical", identical, "")

import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cauchylab import (BoundReport, InputError, Interval, annulus_ladder_reports,
                       bmo_norm, build_test_function, commutator_norm_lower, dyadic_sweep,
                       fk_diagnose, homogeneity_check, large_scale_sequence, length_suprema,
                       oscillation_table, random_size_sweep, random_smoothness_sweep, sample_on,
                       small_scale_sequence, unit_images, verify_intermediate_bounds,
                       vmo_profile, witness_separation, write_report)
import cauchylab
from cauchylab import commutator, compactness, testfn
from cauchylab.symbols import smooth_bump
from cauchylab.cli import HANDLERS, main
from cauchylab.config import DEFAULTS, ExperimentConfig
from cauchylab.reports import MAX_REPORT_ROWS, _cap_rows

TRIM_CASES = ["spread", "all_tied", "ties", "inf_nan", "mostly_nan", "violations",
              "quiet_violations", "no_pass"]


def run(args):
    return main([str(a) for a in args])


def trim_case(case, n):
    """One capping case: its columns (no ``pass`` column for ``no_pass``) and its pass flags."""
    rng = np.random.default_rng(sum(map(ord, case)))
    lhs = rng.random(n)
    rhs = np.ones(n)
    if case == "all_tied":  # every size ratio is 1.0 on the flat graph
        lhs = rhs.copy()
    elif case == "ties":  # the 200th ratio falls inside a run of ties
        lhs = rng.choice([0.0, 0.25, 0.5, 0.75, 1.0], n, p=[0.5, 0.2, 0.1, 0.18, 0.02])
    elif case == "inf_nan":
        lhs[rng.choice(n, 30, replace=False)] = np.nan
        rhs[rng.choice(n, 30, replace=False)] = 0.0
        lhs[rng.choice(n, 150, replace=False)] = 0.75
    elif case == "mostly_nan":
        lhs[rng.choice(n, n - 120, replace=False)] = np.nan
    passed = ~(lhs > rhs)
    if case == "violations":
        lhs[rng.choice(n, 260, replace=False)] *= 3.0
        passed = lhs <= 0.9
    elif case == "quiet_violations":  # 50 violations, none among the largest ratios
        quiet = rng.choice(n, 50, replace=False)
        lhs[quiet] *= 0.1
        passed[quiet] = False
    columns = {"lhs": lhs, "rhs": rhs, "pass": passed, "row": np.arange(n)}
    if case == "no_pass":
        del columns["pass"]
    return columns, passed


class TestReports:
    def test_csv_carries_check_header(self, tmp_path):
        rep = BoundReport("a <= b", {"lhs": np.array([1.0]), "rhs": np.array([2.0]),
                                     "pass": np.array([True])}, {"note": 1.0})
        path = tmp_path / "r.csv"
        rep.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "# check: a <= b"
        assert "lhs,rhs,pass" in lines[2]

    def test_ratios_and_pass(self):
        rep = BoundReport("x", {"lhs": np.array([1.0, 0.0]), "rhs": np.array([2.0, 0.0]),
                                "pass": np.array([True, True])})
        assert rep.passed and rep.ratios().max() == 0.5

    @pytest.mark.parametrize("case", TRIM_CASES)
    def test_trim_keeps_the_rows_of_a_full_stable_sort(self, case):
        n = 5000
        columns, passed = trim_case(case, n)
        rep = BoundReport("x", columns)
        got = _cap_rows([rep])
        # Violations first, then by falling ratio; lexsort is stable and puts NaN last.
        failed = ~passed if case != "no_pass" else np.zeros(n, dtype=bool)
        keep = np.sort(np.lexsort((-rep.ratios(), ~failed))[:MAX_REPORT_ROWS])
        if case == "violations":
            assert failed.sum() > MAX_REPORT_ROWS and failed[keep].all()
        if case == "quiet_violations":
            assert failed[keep].sum() == 50 and keep.size == MAX_REPORT_ROWS
        assert got.extras == {"rows_total": n, "rows_written": MAX_REPORT_ROWS}
        for name in columns:
            np.testing.assert_array_equal(got.columns[name], columns[name][keep])

    @pytest.mark.parametrize("case", TRIM_CASES)
    @pytest.mark.parametrize("cuts", [[1], [199, 200, 2500], [1000, 2000, 3000, 4000], [4999]])
    def test_parts_cap_to_the_rows_of_the_whole(self, case, cuts):
        columns, _ = trim_case(case, 5000)
        whole = _cap_rows([BoundReport("x", columns, {"note": 1})])
        parts = [BoundReport("x", {k: v[a:b] for k, v in columns.items()}, {"note": 1})
                 for a, b in zip([0] + cuts, cuts + [5000])]
        got = _cap_rows(iter(parts))
        assert got.inequality == whole.inequality and got.extras == whole.extras
        for name in columns:
            assert got.columns[name].tobytes() == whole.columns[name].tobytes()

    def test_ragged_columns_rejected(self):
        with pytest.raises(InputError):
            BoundReport("x", {"a": np.array([1.0]), "b": np.array([1.0, 2.0])})


class TestConfig:
    def test_unknown_key_named(self):
        with pytest.raises(InputError, match="grid.stepp"):
            ExperimentConfig.from_dict({"grid": {"stepp": 0.1}})

    def test_params_subtree_free_form(self):
        cfg = ExperimentConfig.from_dict(
            {"symbol": {"kind": "smooth_bump", "params": {"center": 1.0, "width": 2.0}}}
        )
        assert cfg.get("symbol.params") == {"center": 1.0, "width": 2.0}

    def test_missing_step_rejected(self):
        cfg = ExperimentConfig.from_dict({"grid": {"step": None}})
        with pytest.raises(InputError, match="grid.step"):
            cfg.grid()

    def test_bad_seed(self):
        cfg = ExperimentConfig.from_dict({"seed": -1})
        with pytest.raises(InputError, match="seed"):
            cfg.rng()


class TestExitCodes:
    def test_verify_kernel_passes(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"kernel_check": {"samples": 2000}}))
        assert run(["verify-kernel", "--config", cfg, "--out-dir", tmp_path / "o"]) == 0
        for name in ("kernel_size", "kernel_smoothness", "kernel_smoothness_transposed"):
            assert (tmp_path / "o" / f"{name}.csv").exists()
            assert (tmp_path / "o" / f"{name}.json").exists()

    def test_malformed_config_exit_2(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text("{not json")
        assert run(["verify-kernel", "--config", cfg, "--out-dir", tmp_path / "o"]) == 2

    def test_missing_grid_step_exit_2(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"grid": {"step": None}}))
        assert run(["bmo-norm", "--config", cfg, "--out-dir", tmp_path / "o"]) == 2

    @pytest.mark.parametrize("grid", [5, [1, 2]], ids=["number", "list"])
    def test_non_object_parent_named_exit_2(self, tmp_path, capsys, grid):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"grid": grid}))
        assert run(["bmo-norm", "--config", cfg, "--out-dir", tmp_path / "o"]) == 2
        err = capsys.readouterr().err
        assert "config field grid.step: grid must be an object" in err
        assert "missing" not in err

    def test_removed_operator_block_exit_2(self, tmp_path, capsys):
        # The principal value has no window radius or exclusion mode to set.
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(
            {"operator": {"truncation": 0.05, "exclusion": "node_skip"}}))
        assert run(["eval-operator", "--config", cfg, "--out-dir", tmp_path / "o"]) == 2
        assert "unknown config key: operator" in capsys.readouterr().err

    @pytest.mark.parametrize("tree, key", [
        ({"tail": {"support_radius": 1.0, "p": 2.0}}, "tail"),
        ({"witness": {"case": "large"}}, "witness.case"),
        ({"lemma41": {"p": 2.0}}, "lemma41.p"),
        ({"fk": {"p": 2.0}}, "fk.p"),
        ({"witness": {"p": 2.0}}, "witness.p"),
        ({"commutator_norm": {"p": 2.0}}, "commutator_norm.p"),
    ], ids=["tail", "witness.case", "lemma41.p", "fk.p", "witness.p", "commutator_norm.p"])
    def test_removed_config_keys_exit_2(self, tmp_path, capsys, tree, key):
        # The tail check is library-only; the witness case is the --case flag;
        # the exponent is the one top-level key p.
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(tree))
        assert run(["witness", "--config", cfg, "--out-dir", tmp_path / "o"]) == 2
        assert f"unknown config key: {key}" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["verify-homogeneity", "--L", "0"],
        ["verify-homogeneity", "--M-ladder", "16,64"],
        ["lemma41", "--b", "b.csv"],
        ["lemma41", "--interval", "0,1"],
        ["lemma41", "--p", "2"],
        ["lemma41", "--k-ladder", "3..5"],
    ], ids=lambda argv: argv[1])
    def test_removed_flags_exit_2(self, tmp_path, argv):
        # Each value is set in the config: curve, homogeneity.M_ladder, symbol,
        # lemma41.interval, p and lemma41.k_ladder.
        with pytest.raises(SystemExit) as exc:
            run(argv + ["--out-dir", tmp_path / "o"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("command, tree, key", [
        ("verify-homogeneity", {"homogeneity": {"eval_points": 0}}, "eval_points"),
        ("witness", {"witness": {"eval_cells": 0}}, "eval_cells"),
        ("witness", {"witness": {"nodes_per_radius": 0}}, "nodes_per_radius"),
        ("fk-diagnose", {"fk": {"bump_positions": []}}, "fk.bump_positions"),
        ("commutator-norm", {"commutator_norm": {"family": []}}, "commutator_norm.family"),
        ("vmo-profile", {"vmo": {"delta_ladder": []}}, "vmo.delta_ladder"),
        ("vmo-profile", {"vmo": {"R_ladder": []}}, "vmo.R_ladder"),
        ("fk-diagnose", {"fk": {"z_steps": []}}, "fk.z_steps"),
        ("fk-diagnose", {"fk": {"t_ladder": []}}, "fk.t_ladder"),
        ("lemma41", {"lemma41": {"k_ladder": []}}, "lemma41.k_ladder"),
        ("verify-homogeneity", {"homogeneity": {"quadrature_cells": 0}},
         "homogeneity.quadrature_cells"),
        ("verify-kernel", {"kernel_check": {"samples": 0}}, "kernel_check.samples"),
        ("lemma41", {"lemma41": {"eval_cells": 4}}, "lemma41.eval_cells"),
        ("witness", {"witness": {"sequence": {"count": 1}}}, "witness.sequence.count"),
        ("verify-kernel", {"kernel_check": {"box": 0}}, "kernel_check.box"),
        ("verify-homogeneity", {"homogeneity": {"r": 0}}, "homogeneity.r"),
        ("fk-diagnose", {"fk": {"bump_width": 0}}, "fk.bump_width"),
        ("lemma41", {"lemma41": {"a1": 2}}, "lemma41.a1"),
        ("fk-diagnose", {"p": 1}, "config field p "),
        ("lemma41", {"p": 1}, "config field p "),
        ("witness", {"p": 1}, "config field p "),
        ("witness", {"witness": {"a1": 4}}, "witness.a1"),
        ("commutator-norm", {"p": 1}, "config field p "),
        # The pass bands are module constants, not config keys.
        ("verify-homogeneity", {"homogeneity": {"slack": -1}},
         "unknown config key: homogeneity.slack"),
        ("verify-homogeneity", {"homogeneity": {"slope_band": "wide"}},
         "unknown config key: homogeneity.slope_band"),
        ("lemma41", {"lemma41": {"lower_spread_cap": 0.5}},
         "unknown config key: lemma41.lower_spread_cap"),
        ("lemma41", {"lemma41": {"upper_spread_cap": None}},
         "unknown config key: lemma41.upper_spread_cap"),
        ("witness", {"witness": {"a2": 4.0}}, "witness.a2"),
        ("fk-diagnose", {"fk": {"z_steps": [1.5, 2.7]}}, "fk.z_steps.0"),
        ("fk-diagnose", {"fk": {"t_ladder": [1.0, -2.0]}}, "fk.t_ladder.1"),
        ("lemma41", {"lemma41": {"k_ladder": [3, 4.5]}}, "lemma41.k_ladder.1"),
        ("verify-homogeneity", {"homogeneity": {"M_ladder": [16.0, 8.0]}},
         "homogeneity.M_ladder.1"),
        # A slope fitted over a repeated M is meaningless.
        ("verify-homogeneity", {"homogeneity": {"M_ladder": [16, 16]}}, "homogeneity.M_ladder"),
        ("verify-homogeneity", {"homogeneity": {"M_ladder": [16.0, 64.0, 16]}},
         "homogeneity.M_ladder"),
        ("fk-diagnose", {"fk": {"bump_positions": [0.0, "x"]}}, "fk.bump_positions.1"),
        # A bump with no node in its support has zero norm.
        ("fk-diagnose", {"fk": {"bump_positions": [0.0, 50.0]}},
         "family member 1 has zero norm"),
        ("witness", {"witness": {"sequence": {"center": "left"}}}, "witness.sequence.center"),
        ("witness", {"witness": {"sequence": {"r0": "big"}}}, "witness.sequence.r0"),
        ("witness", {"witness": {"sequence": {"ratio": "x"}}}, "witness.sequence.ratio"),
        ("eval-operator", {"window": {"center": "mid"}}, "window.center"),
        ("lemma41", {"lemma41": {"interval": {"center": None}}}, "lemma41.interval.center"),
        ("fk-diagnose", {"fk": {"z_steps": [True, 2]}}, "fk.z_steps.0"),
        ("verify-kernel", {"kernel_check": {"samples": True}}, "kernel_check.samples"),
        ("fk-diagnose", {"fk": {"bump_width": True}}, "fk.bump_width"),
        ("bmo-norm", {"seed": True}, "seed"),
        # A boolean count was already below 2; the typed read names it as a field.
        ("bmo-norm", {"grid": {"count": True}}, "config field grid.count"),
        ("bmo-norm", {"grid": {"origin": "left"}}, "grid.origin"),
        ("bmo-norm", {"grid": {"origin": True}}, "grid.origin"),
        ("eval-operator", {"curve": {"kind": "affine", "params": {"slope": "abc"}}},
         "curve.params.slope"),
        ("eval-operator", {"curve": {"kind": "affine", "params": {"slope": True}}},
         "curve.params.slope"),
        ("eval-operator", {"curve": {"kind": "affine", "params": [1.0]}}, "curve.params"),
        ("eval-operator", {"curve": "flat"}, "config field curve"),
        ("eval-operator", {"curve": {"kind": "sawtooth",
                                     "params": {"amplitude": "abc", "period": 2.0}}},
         "curve.params.amplitude"),
        ("eval-operator", {"curve": {"kind": "sawtooth",
                                     "params": {"amplitude": True, "period": 2.0}}},
         "curve.params.amplitude"),
        ("eval-operator", {"curve": {"kind": "smooth_bump",
                                     "params": {"height": "abc", "width": 1.0}}},
         "curve.params.height"),
        ("eval-operator", {"curve": {"kind": "smooth_bump",
                                     "params": {"height": True, "width": 1.0}}},
         "curve.params.height"),
        ("bmo-norm", {"symbol": {"params": {"center": "x"}}}, "symbol.params.center"),
        ("bmo-norm", {"symbol": {"params": {"center": True}}}, "symbol.params.center"),
        ("eval-operator", {"input": {"kind": "smooth_bump", "params": {"center": "x"}}},
         "input.params.center"),
        ("eval-operator", {"input": {"params": {"lower": -1.0, "upper": True}}},
         "input.params.upper"),
        ("commutator-norm", {"commutator_norm": {"family": [
            {"kind": "smooth_bump", "params": {"center": "x"}}]}},
         "commutator_norm.family.0.params.center"),
        ("commutator-norm", {"commutator_norm": {"family": [
            {"kind": "smooth_bump", "params": {"height": True}}]}},
         "commutator_norm.family.0.params.height"),
        ("commutator-norm", {"commutator_norm": {"family": [{"params": {}}]}},
         "commutator_norm.family.0.kind"),
        ("commutator-norm", {"commutator_norm": {"family": [3]}}, "commutator_norm.family.0"),
        ("bmo-norm", {"bmo": {"max_length": "x"}}, "bmo.max_length"),
        ("bmo-norm", {"bmo": {"max_length": True}}, "bmo.max_length"),
        ("vmo-profile", {"vmo": {"delta_ladder": [0.1, "x"]}}, "vmo.delta_ladder.1"),
        ("vmo-profile", {"vmo": {"delta_ladder": [True, 0.5]}}, "vmo.delta_ladder.0"),
        ("vmo-profile", {"vmo": {"R_ladder": ["x"]}}, "vmo.R_ladder.0"),
        ("vmo-profile", {"vmo": {"R_ladder": [1.0, True]}}, "vmo.R_ladder.1"),
        # Builder errors carry the key of the part to fix.
        ("commutator-norm", {"commutator_norm": {"family": [
            {"kind": "indicator", "params": {"lower": -1.0, "upper": 1.0}}, {"kind": "nope"}]}},
         "commutator_norm.family.1.kind: unknown symbol kind 'nope'"),
        ("bmo-norm", {"symbol": {"kind": "smooth_bump", "params": {"width": 0}}},
         "symbol.params: bump width must be positive"),
        ("eval-operator", {"input": {"kind": "indicator",
                                     "params": {"lower": 1.0, "upper": -1.0}}},
         "input.params: need upper > lower"),
        ("bmo-norm", {"symbol": {"kind": "sign", "params": {"slope": 1.0}}},
         "symbol.params: bad parameters for symbol 'sign'"),
        ("eval-operator", {"curve": {"kind": "nope"}}, "curve.kind: unknown curve kind 'nope'"),
        # A parameter no curve builder takes is refused, as for a symbol.
        ("eval-operator", {"curve": {"kind": "flat", "params": {"slope": 1.0}}},
         "curve.params: bad parameters for curve 'flat'"),
        ("eval-operator", {"curve": {"kind": "sawtooth", "params": {
            "amplitude": 0.5, "period": 2.0, "phase": 0.25}}},
         "curve.params: bad parameters for curve 'sawtooth'"),
        # An overflowing Lipschitz constant would make every kernel bound inf or NaN.
        ("verify-kernel", {"curve": {"kind": "sawtooth",
                                     "params": {"amplitude": 1e308, "period": 0.001}},
                           "kernel_check": {"samples": 2000}},
         "curve.params: sawtooth Lipschitz constant"),
        ("bmo-norm", {"symbol": {"kind": ["sign"]}}, "config field symbol.kind must be a string"),
        ("bmo-norm", {"grid": 5}, "grid.step"),
        ("eval-operator", {"grid": [1, 2]}, "grid.step"),
    ], ids=["eval_points", "eval_cells", "nodes_per_radius", "bump_positions", "family",
            "vmo.delta_ladder", "vmo.R_ladder", "fk.z_steps", "fk.t_ladder",
            "lemma41.k_ladder", "homogeneity.quadrature_cells", "kernel_check.samples",
            "lemma41.eval_cells", "witness.sequence.count", "kernel_check.box",
            "homogeneity.r", "fk.bump_width", "lemma41.a1", "p.fk-diagnose", "p.lemma41",
            "p.witness", "witness.a1", "p.commutator-norm", "homogeneity.slack",
            "homogeneity.slope_band", "lemma41.lower_spread_cap",
            "lemma41.upper_spread_cap", "witness.a2", "fk.z_steps.entry",
            "fk.t_ladder.entry", "lemma41.k_ladder.entry", "homogeneity.M_ladder.entry",
            "homogeneity.M_ladder.repeat", "homogeneity.M_ladder.repeat_apart",
            "fk.bump_positions.entry", "fk.bump_positions.off_grid", "witness.sequence.center", "witness.sequence.r0",
            "witness.sequence.ratio", "window.center", "lemma41.interval.center",
            "fk.z_steps.bool", "kernel_check.samples.bool", "fk.bump_width.bool",
            "seed.bool", "grid.count.bool", "grid.origin", "grid.origin.bool",
            "curve.params.slope", "curve.params.slope.bool", "curve.params.not_object",
            "curve.not_object", "curve.params.amplitude",
            "curve.params.amplitude.bool", "curve.params.height", "curve.params.height.bool",
            "symbol.params.center", "symbol.params.center.bool", "input.params.center",
            "input.params.upper.bool", "family.params.center", "family.params.height.bool",
            "family.kind.missing", "family.entry.not_object",
            "bmo.max_length", "bmo.max_length.bool", "vmo.delta_ladder.entry",
            "vmo.delta_ladder.bool", "vmo.R_ladder.entry", "vmo.R_ladder.bool",
            "family.kind.unknown", "symbol.params.builder", "input.params.builder",
            "symbol.params.unknown", "curve.kind.unknown", "curve.params.unknown_flat",
            "curve.params.unknown_sawtooth", "curve.params.lipschitz_overflow",
            "symbol.kind.not_string",
            "grid.not_object", "grid.list"])
    def test_bad_config_values_exit_2(self, tmp_path, capsys, command, tree, key):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(tree))
        assert run([command, "--config", cfg, "--out-dir", tmp_path / "o"]) == 2
        assert key in capsys.readouterr().err

    def test_constant_symbol_guard_exit_2(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"symbol": {"kind": "constant", "params": {"value": 2.0}}}))
        assert run(["lemma41", "--config", cfg, "--out-dir", tmp_path / "o"]) == 2

    def test_out_dir_naming_a_file_exit_2(self, tmp_path, capsys):
        # Rejected input, not a failed report: the directory cannot be created.
        taken = tmp_path / "taken"
        taken.write_text("")
        assert run(["bmo-norm", "--out-dir", taken]) == 2
        assert f"cannot create --out-dir {taken}" in capsys.readouterr().err


class TestSubcommands:
    def test_homogeneity_flags(self, tmp_path):
        # The default curve is flat.
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"homogeneity": {"M_ladder": [16, 64]}}))
        rc = run(["verify-homogeneity", "--config", cfg, "--out-dir", tmp_path / "o"])
        assert rc == 0
        data = json.loads((tmp_path / "o" / "homogeneity.json").read_text())
        assert data["passed"] is True
        assert abs(data["extras"]["slope"] + 1.0) <= 0.1

    def test_lemma41_flags(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({
            "symbol": {"kind": "truncated_log", "params": {}},
            "grid": {"step": 0.001, "count": 2500},
            "lemma41": {"k_ladder": [3, 4, 5]},
        }))
        rc = run(["lemma41", "--config", cfg, "--out-dir", tmp_path / "o"])
        assert rc == 0
        data = json.loads((tmp_path / "o" / "lemma41.json").read_text())
        assert data["extras"]["lower_spread"] <= 3.0

    def test_lemma41_past_level_ten(self, tmp_path):
        # The drift check resamples enough nodes that the base keeps two at every level.
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"lemma41": {"k_ladder": [3, 11]}}))
        assert run(["lemma41", "--config", cfg, "--out-dir", tmp_path / "o"]) == 0
        data = json.loads((tmp_path / "o" / "lemma41_intermediate_k11.json").read_text())
        assert data["extras"]["median_drift"] == 0.0 and data["extras"]["k_times_bmo"] == 11.0

    def test_eval_operator_convergence(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"grid": {"step": 0.002, "count": 1000},
                                   "window": {"center": 2.5, "radius": 1.0}}))
        rc = run(["eval-operator", "--convergence", "--config", cfg,
                  "--out-dir", tmp_path / "o"])
        assert rc == 0
        data = json.loads((tmp_path / "o" / "operator_convergence.json").read_text())
        # Midpoint-rule outputs converge at second order away from the support.
        assert 3.0 <= data["extras"]["median_ratio"] <= 5.0

    def test_eval_operator_observed_order(self, tmp_path):
        # Sawtooth graph at the default grid: a real second-order signal.
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"curve": {"kind": "sawtooth",
                                             "params": {"amplitude": 0.5, "period": 2.0}}}))
        assert run(["eval-operator", "--convergence", "--config", cfg,
                    "--out-dir", tmp_path / "o"]) == 0
        data = json.loads((tmp_path / "o" / "operator_convergence.json").read_text())
        assert abs(data["extras"]["observed_order"] - 2.0) <= 0.05
        assert data["extras"]["points_at_floor"] <= 0.01 * data["n_rows"]

    def test_eval_operator_rounding_floor(self, tmp_path):
        # A smooth bump on the flat graph converges to rounding at once: every
        # difference is noise, so no order is claimed.  On the zero input every
        # difference is 0, so no Richardson ratio is finite either.
        cfg = tmp_path / "c.json"
        for case, source in (
            ("bump", {"kind": "smooth_bump",
                      "params": {"center": 0.0, "height": 1.0, "width": 1.0}}),
            ("zero", {"kind": "constant", "params": {"value": 0}}),
        ):
            cfg.write_text(json.dumps({"grid": {"step": 0.002, "count": 1000}, "input": source}))
            assert run(["eval-operator", "--convergence", "--config", cfg,
                        "--out-dir", tmp_path / case]) == 0
            data = json.loads((tmp_path / case / "operator_convergence.json").read_text())
            assert data["extras"]["points_at_floor"] == data["n_rows"]
            assert np.isnan(data["extras"]["observed_order"])
            if case == "zero":
                assert np.isnan(data["extras"]["median_ratio"])

    def test_bmo_norm_max_length(self, tmp_path, capsys):
        tree = {"grid": {"step": 0.005, "count": 800}, "bmo": {"max_length": 0.1}}
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(tree))
        assert run(["bmo-norm", "--config", cfg, "--out-dir", tmp_path / "o"]) == 0
        data = json.loads((tmp_path / "o" / "bmo_norm.json").read_text())
        widths = (2, 4, 8, 16)  # 32 steps is 0.16, past the cap
        assert data["extras"]["intervals_swept"] == sum(800 - w for w in widths)
        table = oscillation_table(ExperimentConfig.from_dict(tree).function("symbol"))
        cols = data["columns"]
        measures = table.intervals.measures
        assert cols["length"] == sorted(set(measures[measures <= 0.1]))
        for L, center, lhs in zip(cols["length"], cols["center"], cols["lhs"]):
            rows = np.flatnonzero(measures == L)
            # Of the rows within 1e-12 relative of the maximum, the smallest center wins.
            top = table.oscs[rows].max()
            tied = rows[table.oscs[rows] >= (1 - 1e-12) * top]
            best = tied[np.argmin(table.intervals.centers[tied])]
            assert (center, lhs) == (table.intervals.centers[best], table.oscs[best])
        # A reported row may sit an ulp below its length's maximum, so the bound is
        # checked against the table, whose maximum it is.
        assert data["extras"]["bmo_lower_bound"] == table.oscs[measures <= 0.1].max()

        tree["bmo"]["max_length"] = 0.009  # below the shortest sweep length 0.01
        cfg.write_text(json.dumps(tree))
        capsys.readouterr()
        assert run(["bmo-norm", "--config", cfg, "--out-dir", tmp_path / "p"]) == 2
        assert "no sweep intervals at or below bmo.max_length" in capsys.readouterr().err
        assert not (tmp_path / "p" / "bmo_norm.json").exists()

    @pytest.mark.parametrize("tree", [
        {},
        {"symbol": {"kind": "truncated_log", "params": {}},
         "grid": {"step": 0.00025, "count": 16000}},
    ], ids=["default", "truncated_log_16000"])
    def test_bmo_norm_tied_mirror_rows_report_left(self, tmp_path, tree):
        # Both symbols are symmetric about the grid's center, so mirror rows
        # tie in exact arithmetic and rounding alone tells them apart.
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(tree))
        assert run(["bmo-norm", "--config", cfg, "--out-dir", tmp_path / "o"]) == 0
        cols = json.loads((tmp_path / "o" / "bmo_norm.json").read_text())["columns"]
        assert max(cols["center"]) <= 0
        table = oscillation_table(ExperimentConfig.from_dict(tree).function("symbol"))
        for L, lhs in zip(cols["length"], cols["lhs"]):
            top = table.oscs[table.intervals.measures == L].max()
            assert (1 - 1e-12) * top <= lhs <= top

    @pytest.mark.parametrize("tree", [
        {"grid": {"step": 0.005, "count": 800}},
        {"symbol": {"kind": "truncated_log", "params": {}},
         "grid": {"step": 0.001, "count": 3000}},
        {"symbol": {"kind": "smooth_bump", "params": {"center": 0.3, "width": 0.5}}},
        {"symbol": {"kind": "ramp", "params": {"slope": 2.0}}},
    ], ids=["sign", "truncated_log_3000", "smooth_bump", "ramp"])
    def test_bmo_norm_bound_is_the_library_bmo_norm(self, tmp_path, tree):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(tree))
        assert run(["bmo-norm", "--config", cfg, "--out-dir", tmp_path / "o"]) == 0
        data = json.loads((tmp_path / "o" / "bmo_norm.json").read_text())
        f = ExperimentConfig.from_dict(tree).function("symbol")
        assert data["extras"]["bmo_lower_bound"] == bmo_norm(f, dyadic_sweep(f))

    def test_bmo_norm_of_a_constant_is_zero(self, tmp_path):
        # A row of one repeated value averages to a few ulps of oscillation; it counts as 0.
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"symbol": {"kind": "constant", "params": {"value": 0.1}},
                                   "grid": {"count": 40, "step": 0.05}}))
        assert run(["bmo-norm", "--config", cfg, "--out-dir", tmp_path / "o"]) == 0
        data = json.loads((tmp_path / "o" / "bmo_norm.json").read_text())
        assert data["extras"]["bmo_lower_bound"] == 0.0
        assert set(data["columns"]["lhs"]) == {0.0}

    def test_vmo_profile_rows(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"grid": {"step": 0.005, "count": 800}}))
        rc = run(["vmo-profile", "--config", cfg, "--out-dir", tmp_path / "o"])
        assert rc == 0
        text = (tmp_path / "o" / "vmo_profile.csv").read_text()
        assert "small_scale" in text and "far_away" in text

    def run_small_witness(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({
            "symbol": {"kind": "truncated_log", "params": {}},
            "witness": {"sequence": {"center": 0.0, "r0": 0.2, "ratio": 5.0, "count": 3},
                        "eval_cells": 2048, "nodes_per_radius": 32},
        }))
        rc = run(["witness", "--case", "small", "--config", cfg,
                  "--out-dir", tmp_path / "o"])
        return rc, json.loads((tmp_path / "o" / "witness.json").read_text())["extras"]

    def test_witness_cli(self, tmp_path):
        rc, extras = self.run_small_witness(tmp_path)
        assert rc == 0
        assert extras["min_offdiag"] > extras["a3_root"] > 0
        assert extras["separation_margin"] == extras["min_offdiag"] - extras["a3_root"]

    def test_witness_below_the_a3_floor_fails(self, tmp_path, monkeypatch):
        # Images farther apart than 0 but not than the floor A3^(1/p) are no witness.
        monkeypatch.setattr(compactness, "_a3", lambda c1, eps, a1, p: 100.0 ** p)
        rc, extras = self.run_small_witness(tmp_path)
        assert rc == 1
        assert 0 < extras["min_offdiag"] < extras["a3_root"] == pytest.approx(100.0)
        assert extras["separation_margin"] < 0

    def test_commutator_norm(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"grid": {"step": 0.005, "count": 800},
                                   "window": {"center": 0.0, "radius": 1.5}}))
        rc = run(["commutator-norm", "--config", cfg, "--out-dir", tmp_path / "o"])
        assert rc == 0

    def test_fk_diagnose(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"grid": {"step": 0.005, "count": 1200},
                                   "window": {"center": 0.0, "radius": 2.0}}))
        rc = run(["fk-diagnose", "--config", cfg, "--out-dir", tmp_path / "o"])
        assert rc == 0


def _leaves(tree, prefix=""):
    """Dotted paths of the leaves of a config tree; free-form ``params`` are skipped."""
    for key, val in tree.items():
        if key == "params":
            continue
        if isinstance(val, dict):
            yield from _leaves(val, f"{prefix}{key}.")
        else:
            yield f"{prefix}{key}"


def test_every_default_key_is_read(tmp_path, monkeypatch):
    # A key no subcommand reads cannot change a result.  Reading a subtree
    # (``grid``, ``witness.sequence``) reads every leaf under it.
    read = set()
    get = ExperimentConfig.get

    def recording_get(self, dotted):
        read.add(dotted)
        return get(self, dotted)

    monkeypatch.setattr(ExperimentConfig, "get", recording_get)
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({
        "grid": {"step": 0.01, "count": 400},
        "kernel_check": {"samples": 500},
        "homogeneity": {"M_ladder": [16.0, 64.0], "quadrature_cells": 128, "eval_points": 16},
        "lemma41": {"k_ladder": [3, 4], "eval_cells": 64},
        "witness": {"sequence": {"center": 0.0, "r0": 0.2, "ratio": 5.0, "count": 2},
                    "eval_cells": 512, "nodes_per_radius": 16},
    }))
    for name in HANDLERS:
        assert run([name, "--config", cfg, "--out-dir", tmp_path / name]) in (0, 1)
    unread = [leaf for leaf in _leaves(DEFAULTS)
              if not any(leaf == r or leaf.startswith(r + ".") for r in read)]
    assert unread == []


# A small config on which every subcommand passes in well under a second.
SMALL = {
    "symbol": {"kind": "truncated_log", "params": {}},
    "grid": {"step": 0.01, "count": 400},
    "kernel_check": {"samples": 3000},
    "homogeneity": {"M_ladder": [16.0, 64.0], "quadrature_cells": 128, "eval_points": 16},
    "lemma41": {"k_ladder": [3, 4], "eval_cells": 64},
    "witness": {"sequence": {"center": 0.0, "r0": 0.2, "ratio": 5.0, "count": 2},
                "eval_cells": 512, "nodes_per_radius": 16},
}


class TestDeterminism:
    @pytest.mark.parametrize("command", list(HANDLERS))
    def test_two_runs_byte_identical(self, tmp_path, command):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(SMALL))
        assert run([command, "--config", cfg, "--seed", "42",
                    "--out-dir", tmp_path / "a"]) == 0
        assert run([command, "--config", cfg, "--seed", "42",
                    "--out-dir", tmp_path / "b"]) == 0
        names = sorted(f.name for f in (tmp_path / "a").iterdir())
        assert names and names == sorted(f.name for f in (tmp_path / "b").iterdir())
        for name in names:
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


# One band that no run on SMALL meets, by the subcommand whose check it is:
# a spread cap barely above 1, and a slope band no fitted slope meets.
FAILING = {
    "lemma41": (testfn, "LOWER_SPREAD_CAP", 1.0001),
    "verify-homogeneity": (commutator, "SLOPE_BAND", 1e-4),
}
RUNS = ([[name] for name in HANDLERS if name != "witness"]
        + [["witness", "--case", case.value] for case in compactness.WitnessCase])


@pytest.mark.parametrize("config", ["small", *FAILING])
@pytest.mark.parametrize("argv", RUNS, ids=" ".join)
def test_exit_status_is_the_verdict_of_the_reports(tmp_path, monkeypatch, argv, config):
    # 0 exactly when every report written has passed, else 1.
    if config in FAILING:
        monkeypatch.setattr(*FAILING[config])
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(SMALL))
    rc = run(argv + ["--config", cfg, "--out-dir", tmp_path / "o"])
    verdicts = [json.loads(p.read_text())["passed"] for p in (tmp_path / "o").glob("*.json")]
    assert verdicts and rc == (0 if all(verdicts) else 1)
    assert rc == int(argv[0] == config)


def test_only_verify_kernel_loads_numpy_random(tmp_path):
    # Importing numpy.random costs time and memory; a subcommand that draws nothing skips it.
    code = ("import sys; from cauchylab.cli import main; "
            f"rc = main(['bmo-norm', '--out-dir', {str(tmp_path)!r}]); "
            "print(rc, 'numpy.random' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": str(Path(cauchylab.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.stdout.splitlines()[-1] == "0 False", done.stderr


def lemma41_reports(cfg):
    """The lemma41 reports of the default six-level ladder, by file name."""
    b, ks, kernel = cfg.function("symbol"), [3, 4, 5, 6, 7, 8], cfg.kernel()
    tf = build_test_function(b, Interval(0.0, 1.0), 2.0)
    ladder = annulus_ladder_reports(b, tf, ks, kernel, eval_cells=64)
    reports = verify_intermediate_bounds(b, tf, ks, kernel, eval_cells=64)
    ladder.extras["intermediate_pass"] = all(rep.passed for rep in reports)
    return {"lemma41": ladder,
            **{f"lemma41_intermediate_k{k}": rep for k, rep in zip(ks, reports)}}


def fk_reports(cfg):
    """The fk-diagnose report of the default bumps, scaled to unit norm on one path."""
    family = [sample_on(smooth_bump(pos, 1.0, 0.5), *cfg.grid()) for pos in (-1.0, 0.0, 1.0)]
    images = unit_images(cfg.function("symbol"), family, 2.0, cfg.kernel(), cfg.interval("window"))
    zs = [k * images.step for k in (1, 2, 4, 8, 16)]
    return {"fk_diagnose": fk_diagnose(images, 2.0, [1.0, 2.0, 3.0], zs)}


def witness_reports(case, build):
    """The witness report of SMALL's two-interval sequence in one degeneration case."""
    return lambda cfg: {"witness": witness_separation(
        cfg.function("symbol"), case, build(0.0, 0.2, 5.0, 2), cfg.kernel(), 4.2, 4.9, 2.0,
        512, 16)}


def kernel_reports(cfg):
    """The three verify-kernel sweeps, drawn in turn from the generator of seed 0."""
    kernel, rng = cfg.kernel(), np.random.default_rng(0)
    return {"kernel_size": random_size_sweep(kernel, 3000, rng),
            "kernel_smoothness": random_smoothness_sweep(kernel, 3000, rng),
            "kernel_smoothness_transposed":
                random_smoothness_sweep(kernel, 3000, rng, transposed=True)}


@pytest.mark.parametrize("argv, tree, check", [
    (["verify-homogeneity"], SMALL,
     lambda cfg: {"homogeneity": homogeneity_check(cfg.curve(), [16.0, 64.0], 1.0, 128, 16)}),
    (["commutator-norm"], SMALL,
     lambda cfg: {"commutator_norm": commutator_norm_lower(
         cfg.function("symbol"), 2.0,
         [cfg.function("commutator_norm.family.0"), cfg.function("commutator_norm.family.1")],
         cfg.kernel(), cfg.interval("window"))}),
    (["bmo-norm"], SMALL, lambda cfg: {"bmo_norm": length_suprema(cfg.function("symbol"))}),
    (["vmo-profile"], SMALL, lambda cfg: {"vmo_profile": vmo_profile(
        cfg.function("symbol"), [0.0625, 0.125, 0.25, 0.5], [0.5, 1.0, 2.0]).report()}),
    (["lemma41"], {**SMALL, "lemma41": {"eval_cells": 64}}, lemma41_reports),
    (["fk-diagnose"], SMALL, fk_reports),
    (["witness", "--case", "small"], SMALL,
     witness_reports(compactness.WitnessCase.SMALL_SCALE, small_scale_sequence)),
    (["witness", "--case", "large"], SMALL,
     witness_reports(compactness.WitnessCase.LARGE_SCALE, large_scale_sequence)),
    (["verify-kernel"], SMALL, kernel_reports),
], ids=["verify-homogeneity", "commutator-norm", "bmo-norm", "vmo-profile", "lemma41",
        "fk-diagnose", "witness-small", "witness-large", "verify-kernel"])
def test_cli_writes_the_library_report(tmp_path, argv, tree, check):
    # The subcommand adds nothing to the reports of the library call on the same inputs.
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(tree))
    run(argv + ["--config", cfg, "--out-dir", tmp_path / "cli"])
    reports = check(ExperimentConfig.from_dict(tree))
    assert sorted(f.stem for f in (tmp_path / "cli").glob("*.json")) == sorted(reports)
    for name, rep in reports.items():
        write_report(rep, tmp_path / "lib", name)
        for suffix in (".json", ".csv"):
            cli_bytes = (tmp_path / "cli" / (name + suffix)).read_bytes()
            assert cli_bytes == (tmp_path / "lib" / (name + suffix)).read_bytes()


@pytest.mark.parametrize("function, parameter, key", [
    (homogeneity_check, "quadrature_cells", "homogeneity.quadrature_cells"),
    (homogeneity_check, "eval_points", "homogeneity.eval_points"),
    (annulus_ladder_reports, "a1", "lemma41.a1"),
    (annulus_ladder_reports, "eval_cells", "lemma41.eval_cells"),
    (verify_intermediate_bounds, "a1", "lemma41.a1"),
    (verify_intermediate_bounds, "eval_cells", "lemma41.eval_cells"),
    (witness_separation, "eval_cells", "witness.eval_cells"),
    (witness_separation, "nodes_per_radius", "witness.nodes_per_radius"),
    (random_size_sweep, "box", "kernel_check.box"),
    (random_smoothness_sweep, "box", "kernel_check.box"),
    (length_suprema, "max_length", "bmo.max_length"),
], ids=lambda v: getattr(v, "__name__", v))
def test_signature_default_mirrors_config_default(function, parameter, key):
    # A library caller who leaves a setting out gets what the CLI runs by default.
    default = inspect.signature(function).parameters[parameter].default
    assert default == ExperimentConfig.from_dict({}).get(key)

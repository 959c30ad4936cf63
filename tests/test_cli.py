import json

import numpy as np
import pytest

from cauchylab import BoundReport, InputError, oscillation_table
from cauchylab.cli import HANDLERS, main
from cauchylab.config import DEFAULTS, ExperimentConfig


def run(args):
    return main([str(a) for a in args])


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
        assert rep.passed and rep.max_ratio == 0.5

    def test_ragged_columns_rejected(self):
        with pytest.raises(InputError):
            BoundReport("x", {"a": np.array([1.0]), "b": np.array([1.0, 2.0])})


class TestConfig:
    def test_round_trip_lossless(self):
        cfg = ExperimentConfig.from_dict({"seed": 3, "grid": {"count": 500}})
        again = ExperimentConfig.from_json(cfg.to_json())
        assert again.data == cfg.data
        assert again.to_json() == cfg.to_json()

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
    ], ids=["tail", "witness.case"])
    def test_removed_config_keys_exit_2(self, tmp_path, capsys, tree, key):
        # The tail check is library-only; the witness case is the --case flag.
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
        # lemma41.interval, lemma41.p and lemma41.k_ladder.
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
        ("fk-diagnose", {"fk": {"p": 1}}, "fk.p"),
        ("lemma41", {"lemma41": {"p": 1}}, "lemma41.p"),
        ("witness", {"witness": {"p": 1}}, "witness.p"),
        ("witness", {"witness": {"a1": 4}}, "witness.a1"),
        ("commutator-norm", {"commutator_norm": {"p": 1}}, "commutator_norm.p"),
    ], ids=["eval_points", "eval_cells", "nodes_per_radius", "bump_positions", "family",
            "vmo.delta_ladder", "vmo.R_ladder", "fk.z_steps", "fk.t_ladder",
            "lemma41.k_ladder", "homogeneity.quadrature_cells", "kernel_check.samples",
            "lemma41.eval_cells", "witness.sequence.count", "kernel_check.box",
            "homogeneity.r", "fk.bump_width", "lemma41.a1", "fk.p", "lemma41.p",
            "witness.p", "witness.a1", "commutator_norm.p"])
    def test_bad_config_values_exit_2(self, tmp_path, capsys, command, tree, key):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(tree))
        assert run([command, "--config", cfg, "--out-dir", tmp_path / "o"]) == 2
        assert key in capsys.readouterr().err

    def test_constant_symbol_guard_exit_2(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"symbol": {"kind": "constant", "params": {"value": 2.0}}}))
        assert run(["lemma41", "--config", cfg, "--out-dir", tmp_path / "o"]) == 2


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
        # difference is noise, so no order is claimed.
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({
            "grid": {"step": 0.002, "count": 1000},
            "input": {"kind": "smooth_bump",
                      "params": {"center": 0.0, "height": 1.0, "width": 1.0}},
        }))
        assert run(["eval-operator", "--convergence", "--config", cfg,
                    "--out-dir", tmp_path / "o"]) == 0
        data = json.loads((tmp_path / "o" / "operator_convergence.json").read_text())
        assert data["extras"]["points_at_floor"] == data["n_rows"]
        assert np.isnan(data["extras"]["observed_order"])

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
        assert cols["length"] == sorted(set(table.measures[table.measures <= 0.1]))
        for L, center, lhs in zip(cols["length"], cols["center"], cols["lhs"]):
            rows = np.flatnonzero(table.measures == L)
            best = rows[np.argmax(table.oscs[rows])]  # first maximum wins
            assert (center, lhs) == (table.intervals.centers[best], table.oscs[best])
        assert data["extras"]["bmo_lower_bound"] == max(cols["lhs"])

        tree["bmo"]["max_length"] = 0.009  # below the shortest sweep length 0.01
        cfg.write_text(json.dumps(tree))
        capsys.readouterr()
        assert run(["bmo-norm", "--config", cfg, "--out-dir", tmp_path / "p"]) == 2
        assert "no sweep intervals at or below bmo.max_length" in capsys.readouterr().err
        assert not (tmp_path / "p" / "bmo_norm.json").exists()

    def test_vmo_profile_rows(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"grid": {"step": 0.005, "count": 800}}))
        rc = run(["vmo-profile", "--config", cfg, "--out-dir", tmp_path / "o"])
        assert rc == 0
        text = (tmp_path / "o" / "vmo_profile.csv").read_text()
        assert "small_scale" in text and "far_away" in text

    def test_witness_cli(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({
            "symbol": {"kind": "truncated_log", "params": {}},
            "witness": {"sequence": {"center": 0.0, "r0": 0.2, "ratio": 5.0, "count": 3},
                        "eval_cells": 2048, "nodes_per_radius": 32},
        }))
        rc = run(["witness", "--case", "small", "--config", cfg,
                  "--out-dir", tmp_path / "o"])
        assert rc == 0
        data = json.loads((tmp_path / "o" / "witness.json").read_text())
        assert data["extras"]["min_offdiag"] > 0

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


class TestDeterminism:
    def test_two_runs_byte_identical(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"kernel_check": {"samples": 3000}}))
        assert run(["verify-kernel", "--config", cfg, "--seed", "42",
                    "--out-dir", tmp_path / "a"]) == 0
        assert run(["verify-kernel", "--config", cfg, "--seed", "42",
                    "--out-dir", tmp_path / "b"]) == 0
        for f in sorted((tmp_path / "a").iterdir()):
            assert f.read_bytes() == (tmp_path / "b" / f.name).read_bytes()

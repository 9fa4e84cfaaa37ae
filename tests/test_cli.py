"""CLI subcommands: exit codes, file outputs, reproducibility."""

import csv
import json

import pytest

from threshold_lab.cli import main

MODEL_CONFIG = {
    "signal_pair": {
        "g0": {"kind": "normal", "params": [-1, 1]},
        "g1": {"kind": "normal", "params": [1, 1]},
    },
    "cost": {"kind": "logistic", "params": [0, 1]},
    "reward": 1.0,
}

SWEEP_CONFIG = {
    "signal_pair": MODEL_CONFIG["signal_pair"],
    "cost_family": {
        "kind": "location",
        "template": {"kind": "logistic", "params": [0, 1]},
        "box": {"lower": [-3], "upper": [3]},
    },
    "reward": 1.0,
    "sweep": {"n_samples": 1500, "tolerances": [0.1, 0.01, 0.001], "seed": 11},
}


@pytest.fixture
def model_config(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(MODEL_CONFIG))
    return path


@pytest.fixture
def sweep_config(tmp_path):
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(SWEEP_CONFIG))
    return path


def test_unknown_subcommand_exits_1(capsys):
    assert main(["frobnicate"]) == 1
    assert "error" in capsys.readouterr().err


def test_no_subcommand_exits_1(capsys):
    assert main([]) == 1


def test_unknown_flag_exits_1(model_config, capsys):
    assert main(["optimize", "--config", str(model_config), "--frobnicate"]) == 1


def test_missing_config_exits_1(tmp_path, capsys):
    assert main(["optimize", "--config", str(tmp_path / "absent.json")]) == 1
    assert "not found" in capsys.readouterr().err


def test_invalid_config_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"signal_pair": {"g0": {"kind": "normal", "params": [0, -1]},
                                               "g1": {"kind": "normal", "params": [1, 1]}}}))
    assert main(["check", "--config", str(bad)]) == 1
    assert "config.signal_pair.g0" in capsys.readouterr().err


def test_check_reports_admissibility(model_config, capsys):
    assert main(["check", "--config", str(model_config)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["signal_pair"]["admissible"] is True
    assert payload["signal_pair"]["crossing_count"] == 1


def test_equilibrium_csv_shape(model_config, capsys):
    assert main(["equilibrium", "--config", str(model_config), "--grid", "-5:5:101"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "t,pi_pos,pi_neg,eu_pos,deu_pos"
    assert len(lines) == 102
    row = lines[1].split(",")
    assert float(row[0]) == -5.0


def test_equilibrium_bad_grid_exits_1(model_config, capsys):
    assert main(["equilibrium", "--config", str(model_config), "--grid", "5:-5:101"]) == 1


def test_optimize_json(model_config, capsys):
    assert main(["optimize", "--config", str(model_config)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["compliance"]["threshold"] == 0.0
    assert payload["accuracy"]["threshold"] < 0.0
    assert payload["equivalent"] is False
    assert payload["foc_gap"] == pytest.approx(-0.0795303, abs=1e-6)


def test_optimize_computes_each_optimum_once(model_config, monkeypatch, capsys):
    """The verdict reuses the optima the command already computed."""
    import threshold_lab.cli as cli
    import threshold_lab.optimize as optimize

    calls = []
    for module in (cli, optimize):
        for name in ("accuracy_optimal", "compliance_optimal"):
            original = getattr(module, name)
            monkeypatch.setattr(module, name, lambda m, *a, _f=original, _n=name: calls.append(_n) or _f(m, *a))
    assert main(["optimize", "--config", str(model_config)]) == 0
    assert sorted(calls) == ["accuracy_optimal", "compliance_optimal"]


def test_optimize_guardrail_exit_2(tmp_path, capsys):
    """auto_normalize=false lets a non-admissible pair with matched central
    densities through to the compliance guardrail, which must exit 2."""
    scale = 3.2974425414002564  # wide normal matching the bimodal mixture at 0
    cfg = {
        "signal_pair": {
            "g0": {
                "kind": "mixture",
                "components": [
                    {"weight": 0.5, "dist": {"kind": "normal", "params": [-2, 2]}},
                    {"weight": 0.5, "dist": {"kind": "normal", "params": [2, 2]}},
                ],
            },
            "g1": {"kind": "normal", "params": [0, scale]},
            "auto_normalize": False,
        },
        "cost": {"kind": "logistic", "params": [0, 1]},
        "reward": 1.0,
    }
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(cfg))
    assert main(["optimize", "--config", str(path)]) == 2
    assert "guardrail" in capsys.readouterr().err


def test_sweep_outputs_and_reproducibility(sweep_config, tmp_path, capsys):
    out1, out2 = tmp_path / "out1", tmp_path / "out2"
    assert main(["sweep", "--config", str(sweep_config), "--out", str(out1)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["verdict"] == "consistent with measure zero"
    assert len(summary["fractions"]) == 3
    assert summary["config"]["sweep"]["seed"] == 11

    assert main(["sweep", "--config", str(sweep_config), "--out", str(out2)]) == 0
    assert (out1 / "samples.csv").read_bytes() == (out2 / "samples.csv").read_bytes()
    assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()

    with (out1 / "samples.csv").open() as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["x_1", "foc_gap", "accuracy_t", "coincident@0.1", "coincident@0.01", "coincident@0.001"]
    assert len(rows) == 1501
    assert (out1 / "fractions.dat").exists()


def test_sweep_flag_overrides(sweep_config, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(sweep_config), "--out", str(out),
                 "--seed", "77", "--tol", "0.2,0.02"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["seed"] == 77
    assert summary["tolerances"] == [0.2, 0.02]


def test_sweep_requires_family(model_config, capsys):
    assert main(["sweep", "--config", str(model_config)]) == 1
    assert "cost_family" in capsys.readouterr().err


def test_demo_runs_end_to_end(tmp_path, capsys):
    assert main(["demo", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "equivalent: False" in out
    assert "consistent with measure zero" in out
    run_dirs = list(tmp_path.glob("demo-*"))
    assert len(run_dirs) == 1
    for name in ("equilibrium.csv", "eu_curve.dat", "samples.csv", "summary.json", "optimize.json", "fractions.dat"):
        assert (run_dirs[0] / name).exists()

"""CLI subcommands: exit codes, file outputs, reproducibility."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import threshold_lab
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
    # a valid config that lacks the field a command needs
    no_cost = tmp_path / "no_cost.json"
    no_cost.write_text(json.dumps(SWEEP_CONFIG))
    assert main(["optimize", "--config", str(no_cost)]) == 1
    assert capsys.readouterr().err.startswith("error: config.cost: required for this command")


@pytest.mark.parametrize("kind", ["directory", "non_utf8"])
def test_unreadable_config_exits_1(tmp_path, capsys, kind):
    path = tmp_path
    if kind == "non_utf8":
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"reward": "\xe9"}')
    assert main(["check", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: config file {path} cannot be read")
    assert "Traceback" not in err


def _fresh_run(argv):
    """(exit code, stdout, stderr) of argv run by the CLI in a new interpreter."""
    src = str(Path(threshold_lab.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run(
        [sys.executable, "-m", "threshold_lab.cli", *argv], capture_output=True, text=True, env=env, timeout=120
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_parser_reused_across_commands(model_config, tmp_path, capsys, monkeypatch):
    """One process runs a usage error, a valid command and the usage error
    again; each gives the exit code and output of a run in a new
    interpreter, and the JSON file holds what stdout printed."""
    monkeypatch.setenv("COLUMNS", "80")  # usage lines wrap at the terminal width
    bad = ["optimize", "--config", str(model_config), "--frobnicate"]
    good = ["check", "--config", str(model_config), "--out"]
    runs = []
    for argv in (bad, good + [str(tmp_path / "here")], bad):
        code = main(argv)
        runs.append((code, *capsys.readouterr()))
    assert runs[0][0] == 1 and runs[1][0] == 0
    assert runs[2] == runs[0]
    assert runs[0] == _fresh_run(bad)
    assert runs[1] == _fresh_run(good + [str(tmp_path / "fresh")])
    written = (tmp_path / "here" / "check.json").read_text()
    assert written == runs[1][1] == (tmp_path / "fresh" / "check.json").read_text()


def test_check_reports_admissibility(model_config, capsys):
    assert main(["check", "--config", str(model_config)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["signal_pair"]["admissible"] is True
    assert payload["signal_pair"]["crossing_count"] == 1


GUMBEL_PAIR = {
    "g0": {"kind": "gumbel", "params": [0, 0.75]},
    "g1": {"kind": "gumbel", "params": [0.5, 0.75]},
}


@pytest.mark.parametrize("signal_pair", [MODEL_CONFIG["signal_pair"], GUMBEL_PAIR], ids=["normal", "gumbel"])
def test_translated_signals_match(tmp_path, capsys, signal_pair):
    """Both signals moved by +100: the same verdicts, crossing and shift moved by 100."""
    moved = {k: {**d, "params": [d["params"][0] + 100, d["params"][1]]} for k, d in signal_pair.items()}
    runs = {}
    for label, pair in (("base", signal_pair), ("moved", moved)):
        path = tmp_path / f"{label}.json"
        path.write_text(json.dumps({**MODEL_CONFIG, "signal_pair": pair}))
        for command in ("check", "optimize"):
            assert main([command, "--config", str(path)]) == 0
            runs[label, command] = json.loads(capsys.readouterr().out)
    base, moved = runs["base", "check"]["signal_pair"], runs["moved", "check"]["signal_pair"]
    assert base["admissible"] is True and moved["admissible"] is True
    assert moved["crossing_location"] == pytest.approx(base["crossing_location"] + 100, abs=1e-9)
    base, moved = runs["base", "optimize"], runs["moved", "optimize"]
    assert moved["normalization_shift"] == pytest.approx(base["normalization_shift"] + 100, abs=1e-9)
    assert moved["equivalent"] == base["equivalent"]
    assert moved["foc_gap"] == pytest.approx(base["foc_gap"], abs=1e-9)


def test_equilibrium_csv_shape(model_config, capsys):
    assert main(["equilibrium", "--config", str(model_config), "--grid", "-5:5:101"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "t,pi_pos,pi_neg,eu_pos,deu_pos"
    assert len(lines) == 102
    row = lines[1].split(",")
    assert float(row[0]) == -5.0


def test_equilibrium_out_files_match_stdout(model_config, tmp_path, capsys):
    argv = ["equilibrium", "--config", str(model_config), "--grid", "-3:3:31"]
    assert main(argv) == 0
    table = capsys.readouterr().out.splitlines()
    assert main([*argv, "--out", str(tmp_path)]) == 0
    assert (tmp_path / "equilibrium.csv").read_text(encoding="utf-8").splitlines() == table
    rows = [line.split(",") for line in table[1:]]
    curve = (tmp_path / "eu_curve.dat").read_text(encoding="utf-8").splitlines()
    assert curve == ["# t eu_pos"] + [f"{row[0]} {row[3]}" for row in rows]


def test_equilibrium_bad_grid_exits_1(model_config, capsys):
    assert main(["equilibrium", "--config", str(model_config), "--grid", "5:-5:101"]) == 1


RUN_CONFIG = {**SWEEP_CONFIG, "cost": MODEL_CONFIG["cost"], "sweep": {**SWEEP_CONFIG["sweep"], "n_samples": 200}}


@pytest.mark.parametrize(
    "command, flags, expected",
    [
        ("optimize", ["--tol", "0.5"], {"tolerance": 0.5, "equivalent": True}),
        (
            "sweep",
            ["--seed", "77", "--mode", "threshold_distance", "--tol", "0.2,0.02"],
            {"seed": 77, "mode": "threshold_distance", "tolerances": [0.2, 0.02]},
        ),
    ],
)
def test_echo_reproduces_flagged_run(tmp_path, capsys, command, flags, expected):
    """A run from the printed config echo, without flags, repeats the
    flagged run byte for byte: the echo records the flag values."""
    path = tmp_path / "run.json"
    path.write_text(json.dumps(RUN_CONFIG))
    assert main([command, "--config", str(path), "--out", str(tmp_path / "flagged"), *flags]) == 0
    flagged = capsys.readouterr().out
    payload = json.loads(flagged)
    assert {key: payload[key] for key in expected} == expected
    echo = tmp_path / "echo.json"
    echo.write_text(json.dumps(payload["config"]))
    assert main([command, "--config", str(echo), "--out", str(tmp_path / "rerun")]) == 0
    assert capsys.readouterr().out == flagged
    written = sorted(p.name for p in (tmp_path / "flagged").iterdir())
    assert written == sorted(p.name for p in (tmp_path / "rerun").iterdir())
    for name in written:
        assert (tmp_path / "rerun" / name).read_bytes() == (tmp_path / "flagged" / name).read_bytes()


@pytest.mark.parametrize(
    "command, flag, message",
    [
        ("optimize", "--tol=nan", "config.equivalence_tolerance: must be finite"),
        ("optimize", "--tol=inf", "config.equivalence_tolerance: must be finite"),
        ("optimize", "--tol=0", "config.equivalence_tolerance: must be > 0"),
        ("equilibrium", "--grid=-inf:0:5", "config.grid.lo: must be finite"),
        ("equilibrium", "--grid=0:1:1", "config.grid: need lo < hi and n >= 2"),
        # an empty value is an edit too, not an absent flag
        ("equilibrium", "--grid=", "--grid expects LO:HI:N"),
        ("equilibrium", "--grid=a:1:5", "--grid expects LO:HI:N numbers"),
        ("sweep", "--tol=0.1,x", "--tol expects comma-separated numbers"),
        ("sweep", "--tol=", "config.sweep.tolerances: expected a nonempty list"),
        ("sweep", "--seed=-1", "config.sweep.seed: must be >= 0"),
        ("sweep", "--mode=bogus", "config.sweep.mode: expected one of"),
    ],
)
def test_flag_values_pass_the_config_gate(tmp_path, capsys, command, flag, message):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(RUN_CONFIG))
    assert main([command, "--config", str(path), flag, "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith(f"error: {message}")


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


def test_check_certifies_cost_family(sweep_config, tmp_path, capsys):
    assert main(["check", "--config", str(sweep_config), "--out", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "check.json").read_text(encoding="utf-8"))
    family = payload["cost_family"]
    assert set(family) == {"smooth_ok", "linear_ok", "responsive_ok", "evidence"}
    assert set(family["evidence"]) == {"smoothness", "linearity", "responsiveness"}
    # a location family is smooth and responsive, but not linear in its parameter
    assert (family["smooth_ok"], family["linear_ok"], family["responsive_ok"]) == (True, False, True)


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

"""Config loading, field-path diagnostics, and round-trip serialization."""

import csv
import json

import numpy as np
import pytest

from threshold_lab import ConfigError, FamilyCertificate, ModelConfig, logistic, normal, normalize_pair
from threshold_lab.config import DEFAULTS, load_config, load_config_dict
from threshold_lab.genericity import SweepResult
from threshold_lab.output import (
    SWEEP_CSV_BLOCK,
    equilibrium_table,
    fmt_float,
    write_csv,
    write_equilibrium_csv,
    write_json,
    write_sweep_csv,
    write_xy,
)

MINIMAL = {
    "signal_pair": {
        "g0": {"kind": "normal", "params": [-1, 1]},
        "g1": {"kind": "normal", "params": [1, 1]},
    }
}


def test_minimal_config_fills_defaults():
    cfg = load_config_dict(MINIMAL)
    assert cfg.auto_normalize is True
    assert cfg.reward == DEFAULTS["reward"]
    assert cfg.grid == (-5.0, 5.0, 101)
    assert cfg.sweep.mode == "foc_gap"
    assert cfg.sweep.tolerances == (0.1, 0.01, 0.001)
    assert cfg.cost is None and cfg.family is None
    # the echo is the fully resolved configuration
    assert cfg.echo["sweep"]["seed"] == DEFAULTS["sweep"]["seed"]
    assert cfg.echo["signal_pair"]["g0"] == {"kind": "normal", "params": [-1.0, 1.0]}


def test_bad_scale_names_the_field():
    raw = {
        "signal_pair": MINIMAL["signal_pair"],
        "cost": {"kind": "normal", "params": [0, -1]},
    }
    with pytest.raises(ConfigError, match=r"config\.cost"):
        load_config_dict(raw)


def test_ascending_tolerances_rejected():
    raw = dict(MINIMAL, sweep={"tolerances": [0.001, 0.01, 0.1]})
    with pytest.raises(ConfigError, match="descending"):
        load_config_dict(raw)


def test_missing_required_field_path():
    with pytest.raises(ConfigError, match=r"config\.signal_pair\.g1"):
        load_config_dict({"signal_pair": {"g0": {"kind": "normal", "params": [0, 1]}}})


def test_mixture_config_parses():
    raw = {
        "signal_pair": MINIMAL["signal_pair"],
        "cost": {
            "kind": "mixture",
            "components": [
                {"weight": 0.5, "dist": {"kind": "normal", "params": [-0.5, 1]}},
                {"weight": 0.5, "dist": {"kind": "normal", "params": [0.5, 1]}},
            ],
        },
    }
    cfg = load_config_dict(raw)
    assert cfg.cost.kind == "mixture"
    assert cfg.echo["cost"]["components"][0]["weight"] == 0.5


def test_family_config_dimension_mismatch():
    raw = {
        "signal_pair": MINIMAL["signal_pair"],
        "cost_family": {
            "kind": "location",
            "template": {"kind": "logistic", "params": [0, 1]},
            "box": {"lower": [-3, 0], "upper": [3, 1]},
        },
    }
    with pytest.raises(ConfigError, match=r"config\.cost_family"):
        load_config_dict(raw)


def test_family_config_member_fails_at_box_corner():
    """A member that cannot be built (here its location overflows to inf)
    is refused when the config loads, not later inside certify."""
    raw = {
        "signal_pair": MINIMAL["signal_pair"],
        "cost_family": {
            "kind": "location",
            "template": {"kind": "normal", "params": [1e308, 1]},
            "box": {"lower": [1e308], "upper": [1.5e308]},
        },
    }
    with pytest.raises(ConfigError, match=r"config\.cost_family"):
        load_config_dict(raw)


def test_load_config_file_errors(tmp_path):
    missing = tmp_path / "nope.json"
    with pytest.raises(ConfigError, match="not found"):
        load_config(missing)
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(bad)


# ---------------------------------------------------------------------------
# serialization


def test_fmt_float_round_trips():
    rng = np.random.default_rng(0)
    values = list(rng.normal(size=200)) + list(10.0 ** rng.uniform(-300, 300, 100))
    values += [0.0, 1e-300, float("inf"), float("-inf")]
    for v in values:
        assert float(fmt_float(v)) == v
    assert fmt_float(float("nan")) == "nan"


def test_equilibrium_csv_round_trip(tmp_path, std_model):
    ts = np.linspace(-5, 5, 101)
    path = tmp_path / "eq.csv"
    write_equilibrium_csv(path, std_model, ts)
    rows = list(csv.reader(path.open()))
    assert rows[0] == ["t", "pi_pos", "pi_neg", "eu_pos", "deu_pos"]
    assert len(rows) == 102
    expected = equilibrium_table(std_model, ts)
    for parsed, exact in zip(rows[1:], expected):
        for text, value in zip(parsed, exact):
            assert float(text) == float(value)  # bitwise round trip


def test_write_json_and_xy(tmp_path):
    write_json(tmp_path / "a.json", {"x": 0.1, "flag": True})
    assert json.loads((tmp_path / "a.json").read_text()) == {"x": 0.1, "flag": True}
    write_xy(tmp_path / "b.dat", [0.1, 0.2], [1.0, 2.0], labels=("tau", "fraction"))
    lines = (tmp_path / "b.dat").read_text().splitlines()
    assert lines[0] == "# tau fraction"
    assert [float(tok) for tok in lines[1].split()] == [0.1, 1.0]


def test_write_csv_quoting(tmp_path):
    path = tmp_path / "q.csv"
    write_csv(path, ["a", "b"], [["x,y", 1.5], ["plain", True]])
    text = path.read_text()
    assert '"x,y"' in text  # RFC 4180 quoting for embedded commas
    rows = list(csv.reader(path.open()))
    assert rows[1] == ["x,y", "1.5"]
    assert rows[2] == ["plain", "1"]


def _row_writer_sweep_csv(path, result):
    """Reference: the per-row write_csv path write_sweep_csv must match."""
    k = result.samples.shape[1]
    header = ([f"x_{i + 1}" for i in range(k)] + ["foc_gap", "accuracy_t"]
              + [f"coincident@{tol:g}" for tol in result.tolerances])
    rows = []
    for j in range(result.n_samples):
        row = list(result.samples[j]) + [result.foc_gaps[j], result.accuracy_thresholds[j]]
        row += [bool(result.metrics[j] < tol) for tol in result.tolerances]
        rows.append(row)
    write_csv(path, header, rows)


@pytest.mark.parametrize("mode", ["foc_gap", "threshold_distance"])
@pytest.mark.parametrize("n", [5, SWEEP_CSV_BLOCK, 2 * SWEEP_CSV_BLOCK + 37])
def test_sweep_csv_matches_row_writer(tmp_path, mode, n):
    rng = np.random.default_rng(n)
    edges = np.array([-0.0, 5e-324, -5e-324, np.inf, -np.inf, np.nan, -np.nan, 1e308])
    samples = rng.normal(size=(n, 2))
    samples[: min(n, len(edges)), 0] = edges[:n]
    focs = rng.normal(scale=0.1, size=n)
    focs[-min(n, len(edges)):] = edges[:n]
    accs = np.full(n, np.nan) if mode == "foc_gap" else rng.normal(scale=0.1, size=n)
    if mode == "threshold_distance":
        accs[::7] = np.resize(edges, accs[::7].shape)
    tolerances = (0.1, 0.01, 0.001)
    metrics = np.abs(focs if mode == "foc_gap" else accs)
    result = SweepResult(
        tolerances=tolerances,
        fractions=tuple(float(np.mean(metrics < t)) for t in tolerances),
        scaling_slope=1.0, degenerate_fit=False, n_samples=n, seed=0, mode=mode,
        samples=samples, foc_gaps=focs, accuracy_thresholds=accs, metrics=metrics,
        certificate=FamilyCertificate(True, True, True, {}),
    )
    write_sweep_csv(tmp_path / "blocks.csv", result)
    _row_writer_sweep_csv(tmp_path / "rows.csv", result)
    text = (tmp_path / "blocks.csv").read_bytes()
    assert text == (tmp_path / "rows.csv").read_bytes()
    if n > len(edges):  # every edge value made it into the file
        cells = set(text.replace(b"\r\n", b",").split(b","))
        assert {b"-0", b"4.9406564584124654e-324", b"inf", b"-inf", b"nan", b"1e+308"} <= cells

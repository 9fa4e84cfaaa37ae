"""Config loading, field-path diagnostics, and round-trip serialization."""

import csv
import json
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from threshold_lab import ConfigError, FamilyCertificate, ModelConfig, logistic, normal, normalize_pair
from threshold_lab.cli import DEMO_CONFIG
from threshold_lab.config import DEFAULTS, load_config, load_config_dict
from threshold_lab.genericity import SweepResult
from threshold_lab import output
from threshold_lab.output import (
    EQUILIBRIUM_COLUMNS,
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


FAMILY = {
    "kind": "location",
    "template": {"kind": "logistic", "params": [0, 1]},
    "box": {"lower": [-3], "upper": [3]},
}


def _with_field(field, value):
    """MINIMAL plus a cost family, with one field (a dotted path) set to value."""
    raw = json.loads(json.dumps({**MINIMAL, "cost_family": FAMILY}))
    *parents, name = field.split(".")
    node = raw
    for key in parents:
        node = node.setdefault(key, {})
    node[name] = value
    return raw


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("signal_pair", [], "config.signal_pair: expected an object, got list"),
        ("reward", "1", "config.reward: expected a number, got '1'"),
        ("sweep.seed", 1.5, "config.sweep.seed: expected an integer, got 1.5"),
        (
            "signal_pair.g0",
            {"kind": "mixture", "components": []},
            "config.signal_pair.g0.components: expected a nonempty list",
        ),
        ("signal_pair.g0.params", "0 1", "config.signal_pair.g0.params: expected a list of numbers"),
        ("cost_family.box.lower", [], "config.cost_family.box.lower: expected a nonempty list of numbers"),
        ("cost_family.box.upper", 3, "config.cost_family.box.upper: expected a nonempty list of numbers"),
        ("cost_family.box.upper", [-4], "config.cost_family.box: box axis 0: need finite lower < upper"),
        ("cost_family.kind", "affine", "config.cost_family.kind: unknown family kind 'affine'"),
        ("signal_pair.auto_normalize", 1, "config.signal_pair.auto_normalize: expected true/false"),
        ("sweep.n_samples", 0, "config.sweep.n_samples: must be >= 1, got 0"),
        ("sweep.tolerances", [0.1, 0.0], "config.sweep.tolerances: tolerances must be > 0"),
        ("sweep.mode", "newton", "config.sweep.mode: expected one of"),
    ],
)
def test_rejection_names_the_field(field, value, message):
    with pytest.raises(ConfigError) as err:
        load_config_dict(_with_field(field, value))
    assert str(err.value).startswith(message)


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


LOGISTIC = {"kind": "logistic", "params": [0, 1]}

#: one cost family of each kind, as config sections
FAMILIES = {
    "location": {"kind": "location", "template": LOGISTIC, "box": {"lower": [-3], "upper": [3]}},
    "location_scale": {"kind": "location_scale", "template": LOGISTIC, "box": {"lower": [-3, 0.5], "upper": [3, 2]}},
    "mixture_linear": {
        "kind": "mixture_linear",
        "basis": [{"kind": "normal", "params": [-2, 0.8]}, {"kind": "normal", "params": [2, 0.8]}, LOGISTIC],
        "box": {"lower": [0.1, 0.1], "upper": [0.45, 0.45]},
    },
}


def test_mixture_linear_family_config_parses():
    cfg = load_config_dict({"signal_pair": MINIMAL["signal_pair"], "cost_family": FAMILIES["mixture_linear"]})
    assert cfg.family.kind == "mixture_linear"
    assert [d.kind for d in cfg.family.basis] == ["normal", "normal", "logistic"]
    assert cfg.family.template is None
    short = {**FAMILIES["mixture_linear"], "basis": [LOGISTIC]}
    with pytest.raises(ConfigError, match=r"config\.cost_family\.basis: expected a list of at least two"):
        load_config_dict({"signal_pair": MINIMAL["signal_pair"], "cost_family": short})


ROUND_TRIP_CONFIGS = {
    "demo": DEMO_CONFIG,
    "mixture_cost": {
        "signal_pair": MINIMAL["signal_pair"],
        "cost": {
            "kind": "mixture",
            "components": [
                {"weight": 0.25, "dist": {"kind": "gumbel", "params": [-0.5, 1]}},
                {"weight": 0.75, "dist": LOGISTIC},
            ],
        },
    },
    **{
        f"family_{kind}": {"signal_pair": MINIMAL["signal_pair"], "cost": LOGISTIC, "cost_family": fam}
        for kind, fam in FAMILIES.items()
    },
}


@pytest.mark.parametrize("name", sorted(ROUND_TRIP_CONFIGS))
def test_echo_loads_to_itself(name):
    """Loading an echo gives the same echo, to the byte.  Command-line
    values are applied by writing them into the echo and loading it
    again, so a run without flags from the printed echo repeats the run."""
    cfg = load_config_dict(ROUND_TRIP_CONFIGS[name])
    assert json.dumps(load_config_dict(cfg.echo).echo) == json.dumps(cfg.echo)


def test_readme_config_schema_loads():
    """The README's config schema, with its // comments stripped, passes
    the config gate."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    schema = re.search(r"```jsonc\n(.*?)```", readme, re.DOTALL).group(1)
    cfg = load_config_dict(json.loads(re.sub(r"//.*", "", schema)))
    assert cfg.family.kind == "location"
    assert cfg.sweep.mode == "foc_gap"


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


def test_equilibrium_table_quiet_at_float_extremes(std_model):
    """At t = +-1e308 the normal signal densities underflow to their floor
    without a RuntimeWarning, and every column stays finite."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = equilibrium_table(std_model, np.array([1e308, -1e308]))
    assert all(math.isfinite(v) for row in rows for v in row)


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


CSV_EDGES = np.array([-0.0, 5e-324, -5e-324, np.inf, -np.inf, np.nan, -np.nan, 1e308])


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
    edges = CSV_EDGES
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


def test_equilibrium_csv_matches_row_writer(tmp_path, std_model, monkeypatch):
    """write_equilibrium_csv formats its columns block by block, byte for
    byte as write_csv formats equilibrium_table's rows, edge values included."""
    ts = np.linspace(-5, 5, 101)
    write_equilibrium_csv(tmp_path / "blocks.csv", std_model, ts)
    write_csv(tmp_path / "rows.csv", EQUILIBRIUM_COLUMNS, equilibrium_table(std_model, ts))
    assert (tmp_path / "blocks.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()
    # the model is finite on finite grids, so feed the edge values as columns
    n = 2 * SWEEP_CSV_BLOCK + 37
    cols = tuple(np.roll(np.resize(CSV_EDGES, n), j) for j in range(5))
    monkeypatch.setattr(output, "_equilibrium_columns", lambda m, ts: cols)
    write_equilibrium_csv(tmp_path / "blocks.csv", std_model, cols[0])
    write_csv(tmp_path / "rows.csv", EQUILIBRIUM_COLUMNS, equilibrium_table(std_model, cols[0]))
    text = (tmp_path / "blocks.csv").read_bytes()
    assert text == (tmp_path / "rows.csv").read_bytes()
    cells = set(text.replace(b"\r\n", b",").split(b","))
    assert {b"-0", b"4.9406564584124654e-324", b"inf", b"-inf", b"nan", b"1e+308"} <= cells

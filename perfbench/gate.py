"""Correctness gate on the program's outputs; none of it depends on the seed.

Sweeps: the coincidence flags and ``summary.json`` fractions must agree with
the per-sample metrics in ``samples.csv``, and a seeded subsample of rows is
recomputed through the scalar public path (``family.instantiate``, then
``ModelConfig``, then ``foc_at_zero``; ``accuracy_optimal`` for
``accuracy_t``).  Sweeps at the program's default seed must reproduce the
summaries recorded under ``reference/`` byte for byte.

model_batch: ``check`` finds the pair admissible, ``optimize`` puts the
compliance optimum at exactly 0, ``equilibrium`` peaks prevalence at t = 0,
and a translated command agrees with its untranslated twin.

Every check returns a list of problems; an empty list is a pass.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

from threshold_lab import ModelConfig, accuracy_optimal, foc_at_zero, normalize_pair
from threshold_lab.config import load_config_dict

#: rows of each samples.csv recomputed through the scalar path
FOC_GAP_ROWS = 64
ACCURACY_ROWS = 8
#: mixture_linear sums its components in an unspecified order: allow this
#: many ulps of 1.0 in the prevalence, scaled by pdf0(0) as foc_gap is
MIXTURE_ULPS = 8
#: agreement of a translated command with its twin
TWIN_ABS_TOL = 1e-9
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def read_samples(path: Path) -> tuple[list[str], list[list[str]]]:
    with path.open(newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def check_sweep(out_dir: Path, raw_config: dict, mode: str, rng: np.random.Generator) -> list[str]:
    problems: list[str] = []
    summary = json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))
    header, rows = read_samples(out_dir / "samples.csv")
    n = summary["n_samples"]
    tolerances = summary["tolerances"]
    k = sum(1 for name in header if name.startswith("x_"))
    if len(rows) != n or summary["mode"] != mode:
        return [f"samples.csv has {len(rows)} rows for n_samples {n}, mode {summary['mode']!r}"]

    foc = [float(r[k]) for r in rows]
    acc = [float(r[k + 1]) for r in rows]
    metric = [abs(v) for v in (foc if mode == "foc_gap" else acc)]
    for i, tol in enumerate(tolerances):
        flags = [r[k + 2 + i] for r in rows]
        if any(f != ("1" if m < tol else "0") for f, m in zip(flags, metric)):
            problems.append(f"coincident@{tol:g} flags disagree with the metric column")
        share = sum(m < tol for m in metric) / n
        if summary["fractions"][i] != share:
            problems.append(f"summary fraction {summary['fractions'][i]!r} at {tol:g} != CSV share {share!r}")
    if mode == "foc_gap" and not all(math.isnan(a) for a in acc):
        problems.append("accuracy_t is not nan in foc_gap mode")

    cfg = load_config_dict(raw_config)
    pair = normalize_pair(cfg.g0, cfg.g1)
    mixture = cfg.family.kind == "mixture_linear"
    slack = MIXTURE_ULPS * math.ulp(1.0) * float(pair.g0.pdf(0.0))
    picks = rng.choice(n, size=min(FOC_GAP_ROWS, n), replace=False)
    for j, row in enumerate(picks):
        x = np.array([float(v) for v in rows[row][:k]])
        model = ModelConfig(pair=pair, cost=cfg.family.instantiate(x), reward=cfg.reward)
        want = foc_at_zero(model)
        got = foc[row]
        if not (abs(got - want) <= slack if mixture else got == want):
            problems.append(f"row {row}: foc_gap {got!r} != scalar {want!r}")
        if mode == "threshold_distance" and j < ACCURACY_ROWS:
            want_t = accuracy_optimal(model).threshold
            if not abs(acc[row] - want_t) <= cfg.equivalence_tolerance:
                problems.append(f"row {row}: accuracy_t {acc[row]!r} != scalar {want_t!r}")
    return problems


def check_reference(name: str, out_dir: Path) -> list[str]:
    want = (REFERENCE_DIR / f"{name}.summary.json").read_bytes()
    got = (out_dir / "summary.json").read_bytes()
    return [] if got == want else [f"{name}: summary.json differs from reference/{name}.summary.json"]


def read_model_output(command: str, out_dir: Path):
    """The parsed output file of a model_batch command."""
    if command == "equilibrium":
        header, rows = read_samples(out_dir / "equilibrium.csv")
        return {"header": header, "rows": [[float(v) for v in r] for r in rows]}
    return json.loads((out_dir / f"{command}.json").read_text(encoding="utf-8"))


def check_model_output(command: str, data) -> list[str]:
    """Checks on one untranslated model_batch command."""
    if command == "check":
        sp = data["signal_pair"]
        if not (sp["admissible"] and sp["crossing_count"] == 1):
            return [f"admissible pair reported admissible={sp['admissible']}, crossings={sp['crossing_count']}"]
        return [] if "cost_family" in data else ["check output has no cost_family certificate"]
    if command == "optimize":
        problems = []
        comp, acc = data["compliance"], data["accuracy"]
        if comp["threshold"] != 0.0:
            problems.append(f"compliance_t {comp['threshold']!r} != 0")
        t = acc["threshold"]
        equivalent = math.isfinite(t) and abs(t) < data["tolerance"]
        if data["equivalent"] != equivalent or data["distance"] != abs(t):
            problems.append("equivalence verdict disagrees with the accuracy threshold")
        return problems
    rows = data["rows"]
    if data["header"] != ["t", "pi_pos", "pi_neg", "eu_pos", "deu_pos"] or not rows:
        return ["equilibrium.csv header or rows malformed"]
    if not all(math.isfinite(v) for r in rows for v in r):
        return ["equilibrium.csv has non-finite values"]
    at_zero = [r[1] for r in rows if r[0] == 0.0]
    if at_zero and max(r[1] for r in rows) > at_zero[0] + 1e-9:
        return ["prevalence peaks away from t = 0"]
    return []


def check_twin(command: str, data, twin, shift: float) -> list[str]:
    """A command on translated signals must give its twin's answers."""
    if command == "check":
        a, b = data["signal_pair"], twin["signal_pair"]
        if not a["admissible"] or a["crossing_count"] != b["crossing_count"]:
            return [f"translated pair reported admissible={a['admissible']}, crossings={a['crossing_count']}"]
        if abs(a["crossing_location"] - (b["crossing_location"] + shift)) > 1e-6 * (1.0 + abs(shift)):
            return ["crossing did not move with the translation"]
        if data["cost_family"] != twin["cost_family"]:
            return ["family certificate differs from the twin's"]
        return []
    if command == "optimize":
        problems = []
        if data["compliance"]["threshold"] != 0.0:
            problems.append("compliance_t != 0")
        if abs(data["accuracy"]["threshold"] - twin["accuracy"]["threshold"]) > twin["tolerance"]:
            problems.append("accuracy_t differs from the twin's")
        if data["equivalent"] != twin["equivalent"] or abs(data["foc_gap"] - twin["foc_gap"]) > TWIN_ABS_TOL:
            problems.append("verdict differs from the twin's")
        if abs(data["normalization_shift"] - (twin["normalization_shift"] + shift)) > 1e-6 * (1.0 + abs(shift)):
            problems.append("normalization shift did not move with the translation")
        return problems
    if data["header"] != twin["header"] or len(data["rows"]) != len(twin["rows"]):
        return ["equilibrium table shape differs from the twin's"]
    worst = max(abs(u - v) for r, s in zip(data["rows"], twin["rows"]) for u, v in zip(r, s))
    return [] if worst <= TWIN_ABS_TOL else [f"equilibrium table differs from the twin's by {worst:.3g}"]

"""Seeded workload generation: the CLI commands each workload runs.

A workload is a list of passes; pass ``i`` is generated from the pair
``(seed, i)``, so the same seed always yields the same commands and config
files.  The program only ever sees the generated config files and
command lines.

* ``sweep_foc_gap`` -- one ``sweep`` per family kind (location,
  location_scale, mixture_linear) on the demo pair and tolerances.
* ``sweep_threshold_distance`` -- one ``sweep --mode threshold_distance``
  on the demo location family.
* ``model_batch`` -- ``check`` / ``optimize`` / ``equilibrium`` round-robin
  over admissible pairs, catalog costs and rewards {0.5, 1, 2}, in a
  seeded order.  Every twentieth command repeats the command three places
  earlier on the same model with both signal laws translated by 30 to 60
  units, outside the fixed [-12, 12] admissibility scan window.  The model
  is translation invariant, so such a command must give its twin's
  answers.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

WORKLOADS = ("sweep_foc_gap", "sweep_threshold_distance", "model_batch")
KINDS = ("location", "location_scale", "mixture_linear")
TOLERANCES = [0.1, 0.01, 0.001]

# (full size, tiny size used by the self-test)
FOC_GAP_SAMPLES = (10000, 300)
THRESHOLD_DISTANCE_SAMPLES = (2000, 20)
MODEL_BATCH_OPS = (200, 24)
#: sample counts of the default-seed reference sweeps (see gate.py)
REFERENCE_SAMPLES = {"foc_gap": 2000, "threshold_distance": 200}

TWIN_PERIOD = 20
TWIN_LAG = 3  # a multiple of the three-command cycle: the twin runs the same command
TRANSLATION_RANGE = (30.0, 60.0)
COMMANDS = ("check", "optimize", "equilibrium")


def _dist(kind, loc, scale):
    return {"kind": kind, "params": [float(loc), float(scale)]}


def _mix(parts):
    return {"kind": "mixture", "components": [{"weight": w, "dist": d} for w, d in parts]}


DEMO_PAIR = {"g0": _dist("normal", -1.0, 1.0), "g1": _dist("normal", 1.0, 1.0)}


def _family(kind: str, cost: dict) -> dict:
    if kind == "location":
        return {"kind": kind, "template": cost, "box": {"lower": [-3.0], "upper": [3.0]}}
    if kind == "location_scale":
        return {"kind": kind, "template": cost, "box": {"lower": [-3.0, 0.5], "upper": [3.0, 2.0]}}
    return {
        "kind": kind,
        "basis": [_dist("normal", -2.0, 0.8), _dist("normal", 2.0, 0.8), cost],
        "box": {"lower": [0.1, 0.1], "upper": [0.45, 0.45]},
    }


def _mixture_signal(c, s, w, offset):
    return _mix([(w, _dist("normal", -c + offset, s)), (1.0 - w, _dist("normal", c + offset, s))])


def admissible_pairs() -> list[dict]:
    """Admissible signal pairs, five of each of the four distribution kinds.

    Equal numbers per kind keep op_p50_s on ``model_batch`` about fifteen
    ranks in two hundred above the gap between fast commands
    (``equilibrium`` and ``optimize`` on normal, logistic and mixture
    pairs) and slow ones.  More normal pairs move the median towards that
    gap, and op_p50_s then jumps across it from run to run.

    Logistic and gumbel scales stay at or below 0.8 and normal scales keep
    the signal gap representable, so every pair passes the admissibility
    scan and the compliance guardrail at every reward used here.
    """
    pairs = []
    for a, s in [(0.5, 1.0), (1.0, 1.0), (1.5, 1.0), (0.8, 1.25), (1.2, 0.9)]:
        pairs.append({"g0": _dist("normal", -a, s), "g1": _dist("normal", a, s)})
    for a, s in [(0.4, 0.75), (0.6, 0.75), (0.5, 0.7), (0.3, 0.75), (0.7, 0.8)]:
        pairs.append({"g0": _dist("logistic", -a, s), "g1": _dist("logistic", a, s)})
    for d, s in [(0.3, 0.75), (0.5, 0.75), (0.4, 0.7), (0.25, 0.8), (0.6, 0.75)]:
        pairs.append({"g0": _dist("gumbel", 0.0, s), "g1": _dist("gumbel", d, s)})
    for c, s, d, w in [(0.8, 1.0, 0.6, 0.5), (0.7, 1.0, 0.8, 0.4), (0.9, 1.1, 0.5, 0.5), (0.6, 1.0, 1.0, 0.6),
                       (0.75, 1.0, 0.7, 0.5)]:
        pairs.append({"g0": _mixture_signal(c, s, w, -d / 2.0), "g1": _mixture_signal(c, s, w, d / 2.0)})
    return pairs


CATALOG_COSTS = [
    _dist("logistic", 0.0, 1.0),
    _dist("normal", 0.0, 1.2),
    _dist("normal", 0.3, 1.5),
    _dist("gumbel", 0.0, 1.1),
    _mix([(0.5, _dist("normal", -0.5, 1.0)), (0.5, _dist("normal", 0.5, 1.0))]),
]
REWARDS = (0.5, 1.0, 2.0)


def translate(dist: dict, c: float) -> dict:
    """The same distribution moved right by c."""
    out = copy.deepcopy(dist)
    if out["kind"] == "mixture":
        out["components"] = [{"weight": p["weight"], "dist": translate(p["dist"], c)} for p in out["components"]]
    else:
        out["params"][0] += c
    return out


@dataclass
class Op:
    """One CLI command of a pass."""

    command: str
    config: dict
    extra_args: list = field(default_factory=list)
    twin: int | None = None  # index, in the same pass, of the untranslated twin
    shift: float = 0.0  # translation applied relative to the twin

    @property
    def n_samples(self) -> int:
        return self.config["sweep"]["n_samples"] if self.command == "sweep" else 0

    @property
    def mode(self) -> str:
        return "threshold_distance" if "threshold_distance" in self.extra_args else "foc_gap"

    @property
    def translated(self) -> bool:
        return self.twin is not None

    def argv(self, config_path: Path, out_dir: Path) -> list[str]:
        return [self.command, "--config", str(config_path), *self.extra_args, "--out", str(out_dir)]


def sweep_config(kind: str, n_samples: int) -> dict:
    cost = _dist("logistic", 0.0, 1.0)
    return {
        "signal_pair": copy.deepcopy(DEMO_PAIR),
        "cost": cost,
        "cost_family": _family(kind, cost),
        "reward": 1.0,
        "sweep": {"n_samples": n_samples, "tolerances": list(TOLERANCES)},
    }


def _rng(seed: int, pass_index: int) -> np.random.Generator:
    return np.random.default_rng([seed, pass_index])


def _sweep_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31 - 1))


def make_pass(workload: str, seed: int, pass_index: int, tiny: bool = False) -> list[Op]:
    size = 1 if tiny else 0
    rng = _rng(seed, pass_index)
    if workload == "sweep_foc_gap":
        n = FOC_GAP_SAMPLES[size]
        return [
            Op("sweep", sweep_config(kind, n), ["--seed", str(_sweep_seed(rng))])
            for kind in KINDS
        ]
    if workload == "sweep_threshold_distance":
        n = THRESHOLD_DISTANCE_SAMPLES[size]
        args = ["--mode", "threshold_distance", "--seed", str(_sweep_seed(rng))]
        return [Op("sweep", sweep_config("location", n), args)]
    if workload == "model_batch":
        return _model_batch(rng, MODEL_BATCH_OPS[size])
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


def _catalog_model(k: int) -> dict:
    """Model ``k`` of a fixed design that cycles through the catalog."""
    pairs = admissible_pairs()
    cost = CATALOG_COSTS[(k + k // len(pairs)) % len(CATALOG_COSTS)]
    return {
        "signal_pair": pairs[k % len(pairs)],
        "cost": cost,
        "cost_family": _family(KINDS[k % len(KINDS)], copy.deepcopy(cost)),
        "reward": REWARDS[(k + k // 3) % len(REWARDS)],
    }


def _model_batch(rng: np.random.Generator, n_ops: int) -> list[Op]:
    # every pass runs the same multiset of models per command, in a seeded
    # order: the latency distribution has a cliff between fast and slow
    # models, so a drawn mix would move op_p50_s by itself
    twins = [j % TWIN_PERIOD == TWIN_PERIOD - 1 for j in range(n_ops)]
    queues = {}
    for i, command in enumerate(COMMANDS):
        n = sum(1 for j in range(n_ops) if j % len(COMMANDS) == i and not twins[j])
        queues[command] = [_catalog_model(k) for k in rng.permutation(n)]
    ops: list[Op] = []
    for j in range(n_ops):
        command = COMMANDS[j % len(COMMANDS)]
        if not twins[j]:
            ops.append(Op(command, copy.deepcopy(queues[command].pop())))
            continue
        twin = j - TWIN_LAG
        c = float(rng.uniform(*TRANSLATION_RANGE)) * (1.0 if rng.random() < 0.5 else -1.0)
        config = copy.deepcopy(ops[twin].config)
        pair = config["signal_pair"]
        pair["g0"], pair["g1"] = translate(pair["g0"], c), translate(pair["g1"], c)
        ops.append(Op(command, config, twin=twin, shift=c))
    return ops


def warmup_op(workload: str) -> Op:
    """A small command run once before timing, so lazy imports are loaded."""
    if workload == "model_batch":
        return Op("optimize", _model_batch(_rng(0, 0), 1)[0].config)
    mode = "threshold_distance" if workload == "sweep_threshold_distance" else "foc_gap"
    return Op("sweep", sweep_config("location", 64), ["--mode", mode, "--seed", "1"])


def reference_ops(workload: str) -> list[tuple[str, Op]]:
    """Sweeps at the program's default sweep seed, compared byte for byte
    with summaries recorded under ``reference/``."""
    if workload == "sweep_foc_gap":
        n = REFERENCE_SAMPLES["foc_gap"]
        return [(f"{workload}-{kind}", Op("sweep", sweep_config(kind, n))) for kind in KINDS]
    if workload == "sweep_threshold_distance":
        n = REFERENCE_SAMPLES["threshold_distance"]
        op = Op("sweep", sweep_config("location", n), ["--mode", "threshold_distance"])
        return [(f"{workload}-location", op)]
    return []


def write_config(op: Op, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(op.config, indent=2), encoding="utf-8")

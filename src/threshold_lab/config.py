"""JSON configuration loading and validation.

One schema serves every command; commands pick the parts they need.

    {
      "signal_pair": {
        "g0": {"kind": "normal", "params": [-1, 1]},
        "g1": {"kind": "normal", "params": [1, 1]},
        "auto_normalize": true           // false: the pair as given, admissible and crossing at 0
      },
      "cost": {"kind": "logistic", "params": [0, 1]},
      "cost_family": {
        "kind": "location",              // location | location_scale | mixture_linear
        "template": {...distribution},   // for the two location kinds
        "basis": [{...}, {...}, ...],    // for mixture_linear (k+1 members)
        "box": {"lower": [-3], "upper": [3]}
      },
      "reward": 1.0,
      "grid": {"lo": -5, "hi": 5, "n": 101},
      "equivalence_tolerance": 1e-6,
      "sweep": {                           // checked by genericity.SweepOptions
        "n_samples": 10000,                // integer >= 1
        "tolerances": [0.1, 0.01, 0.001],  // finite, > 0, strictly descending
        "seed": 20250810,                  // integer >= 0
        "mode": "foc_gap"                  // foc_gap | threshold_distance
      }
    }

Mixture distributions nest components with weights:
``{"kind": "mixture", "components": [{"weight": 0.5, "dist": {...}}, ...]}``.

Every referenced distribution is constructed during loading, so an invalid
scale or weight fails here with the offending field path, not later in the
middle of a run.  A key the schema does not name is refused at every level
(``config.sweep.n_sample: unknown field``), so a misspelt field is an
error, not a default run; that includes a ``basis`` on a location family,
a ``template`` on a ``mixture_linear`` one, ``params`` on a mixture and
``components`` on any other kind.  The sweep section's values pass the one
``SweepOptions`` check that ``SweepSpec`` also runs; the loader checks
only that the section is an object and the ladder a nonempty list of
finite numbers, and prefixes the check's message with ``config.sweep.``.
``RunConfig.echo`` is the fully resolved configuration (defaults filled)
and is embedded in outputs for exact reruns.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

from .distributions import ScalarDistribution, make_distribution
from .errors import ConfigError, DistributionError, ThresholdLabError
from .families import CostFamily, ParameterBox, make_cost_family
from .genericity import SweepOptions

__all__ = ["RunConfig", "SweepOptions", "load_config", "load_config_dict", "DEFAULTS"]

DEFAULTS = {
    "auto_normalize": True,
    "reward": 1.0,
    "grid": {"lo": -5.0, "hi": 5.0, "n": 101},
    "equivalence_tolerance": 1e-6,
    "sweep": {"n_samples": 10000, "tolerances": [0.1, 0.01, 0.001], "seed": 20250810, "mode": "foc_gap"},
}


@dataclass(frozen=True)
class RunConfig:
    """Validated configuration with every default resolved."""

    g0: ScalarDistribution
    g1: ScalarDistribution
    auto_normalize: bool
    reward: float
    cost: ScalarDistribution | None
    family: CostFamily | None
    grid: tuple[float, float, int]
    equivalence_tolerance: float
    sweep: SweepOptions
    echo: dict


def _need(obj: dict, key: str, path: str):
    if key not in obj:
        raise ConfigError(f"{path}.{key}: required field missing")
    return obj[key]


def _known(obj: dict, path: str, *fields: str) -> None:
    """Refuse the first key of ``obj`` that is not one of ``fields``."""
    for key in obj:
        if key not in fields:
            raise ConfigError(f"{path}.{key}: unknown field")


def _as_dict(obj, path: str) -> dict:
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: expected an object, got {type(obj).__name__}")
    return obj


def _as_number(obj, path: str) -> float:
    if isinstance(obj, bool) or not isinstance(obj, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {obj!r}")
    if not math.isfinite(float(obj)):
        raise ConfigError(f"{path}: must be finite, got {obj!r}")
    return float(obj)


def _as_int(obj, path: str) -> int:
    if isinstance(obj, bool) or not isinstance(obj, int):
        raise ConfigError(f"{path}: expected an integer, got {obj!r}")
    return obj


def parse_distribution(obj, path: str) -> ScalarDistribution:
    obj = _as_dict(obj, path)
    kind = _need(obj, "kind", path)
    try:
        if kind == "mixture":
            _known(obj, path, "kind", "components")
            raw = _need(obj, "components", path)
            if not isinstance(raw, list) or not raw:
                raise ConfigError(f"{path}.components: expected a nonempty list")
            comps = []
            for i, item in enumerate(raw):
                item = _as_dict(item, f"{path}.components[{i}]")
                _known(item, f"{path}.components[{i}]", "weight", "dist")
                w = _as_number(_need(item, "weight", f"{path}.components[{i}]"), f"{path}.components[{i}].weight")
                comps.append((w, parse_distribution(_need(item, "dist", f"{path}.components[{i}]"), f"{path}.components[{i}].dist")))
            return make_distribution("mixture", components=comps)
        _known(obj, path, "kind", "params")
        params = _need(obj, "params", path)
        if not isinstance(params, list):
            raise ConfigError(f"{path}.params: expected a list of numbers")
        values = [_as_number(p, f"{path}.params[{i}]") for i, p in enumerate(params)]
        return make_distribution(kind, values)
    except DistributionError as err:
        raise ConfigError(f"{path}: {err}") from err


def _parse_box(obj, path: str) -> ParameterBox:
    obj = _as_dict(obj, path)
    _known(obj, path, "lower", "upper")
    lower = _need(obj, "lower", path)
    upper = _need(obj, "upper", path)
    for name, vec in (("lower", lower), ("upper", upper)):
        if not isinstance(vec, list) or not vec:
            raise ConfigError(f"{path}.{name}: expected a nonempty list of numbers")
    lo = tuple(_as_number(v, f"{path}.lower[{i}]") for i, v in enumerate(lower))
    hi = tuple(_as_number(v, f"{path}.upper[{i}]") for i, v in enumerate(upper))
    try:
        return ParameterBox(lo, hi)
    except DistributionError as err:
        raise ConfigError(f"{path}: {err}") from err


def parse_cost_family(obj, path: str) -> CostFamily:
    obj = _as_dict(obj, path)
    kind = _need(obj, "kind", path)
    if kind in ("location", "location_scale"):
        members = "template"
    elif kind == "mixture_linear":
        members = "basis"
    else:
        raise ConfigError(f"{path}.kind: unknown family kind {kind!r}")
    _known(obj, path, "kind", "box", members)
    box = _parse_box(_need(obj, "box", path), f"{path}.box")
    template = None
    basis = None
    if members == "template":
        template = parse_distribution(_need(obj, "template", path), f"{path}.template")
    else:
        raw = _need(obj, "basis", path)
        if not isinstance(raw, list) or len(raw) < 2:
            raise ConfigError(f"{path}.basis: expected a list of at least two distributions")
        basis = tuple(parse_distribution(d, f"{path}.basis[{i}]") for i, d in enumerate(raw))
    try:
        return make_cost_family(kind, box, template=template, basis=basis)
    except (DistributionError, ThresholdLabError) as err:
        raise ConfigError(f"{path}: {err}") from err


def _dist_echo(d: ScalarDistribution) -> dict:
    if d.kind == "mixture":
        return {
            "kind": "mixture",
            "components": [{"weight": w, "dist": _dist_echo(c)} for w, c in d.components],
        }
    return {"kind": d.kind, "params": list(d.params)}


def load_config_dict(raw: dict) -> RunConfig:
    raw = _as_dict(raw, "config")
    _known(raw, "config", "signal_pair", "cost", "cost_family", "reward", "grid", "equivalence_tolerance", "sweep")

    pair_obj = _as_dict(_need(raw, "signal_pair", "config"), "config.signal_pair")
    _known(pair_obj, "config.signal_pair", "g0", "g1", "auto_normalize")
    g0 = parse_distribution(_need(pair_obj, "g0", "config.signal_pair"), "config.signal_pair.g0")
    g1 = parse_distribution(_need(pair_obj, "g1", "config.signal_pair"), "config.signal_pair.g1")
    auto_normalize = pair_obj.get("auto_normalize", DEFAULTS["auto_normalize"])
    if not isinstance(auto_normalize, bool):
        raise ConfigError("config.signal_pair.auto_normalize: expected true/false")

    reward = _as_number(raw.get("reward", DEFAULTS["reward"]), "config.reward")

    cost = None
    if "cost" in raw:
        cost = parse_distribution(raw["cost"], "config.cost")

    family = None
    if "cost_family" in raw:
        family = parse_cost_family(raw["cost_family"], "config.cost_family")

    grid_obj = _as_dict(raw.get("grid", DEFAULTS["grid"]), "config.grid")
    _known(grid_obj, "config.grid", *DEFAULTS["grid"])
    lo = _as_number(grid_obj.get("lo", DEFAULTS["grid"]["lo"]), "config.grid.lo")
    hi = _as_number(grid_obj.get("hi", DEFAULTS["grid"]["hi"]), "config.grid.hi")
    n = _as_int(grid_obj.get("n", DEFAULTS["grid"]["n"]), "config.grid.n")
    if not (lo < hi and n >= 2):
        raise ConfigError(f"config.grid: need lo < hi and n >= 2, got lo={lo}, hi={hi}, n={n}")

    eq_tol = _as_number(
        raw.get("equivalence_tolerance", DEFAULTS["equivalence_tolerance"]),
        "config.equivalence_tolerance",
    )
    if eq_tol <= 0.0:
        raise ConfigError(f"config.equivalence_tolerance: must be > 0, got {eq_tol}")

    sweep_obj = _as_dict(raw.get("sweep", {}), "config.sweep")
    _known(sweep_obj, "config.sweep", *DEFAULTS["sweep"])
    sweep_obj = {**DEFAULTS["sweep"], **sweep_obj}
    tol_raw = sweep_obj["tolerances"]
    if not isinstance(tol_raw, list) or not tol_raw:
        raise ConfigError("config.sweep.tolerances: expected a nonempty list of numbers")
    tolerances = [_as_number(t, f"config.sweep.tolerances[{i}]") for i, t in enumerate(tol_raw)]
    try:
        sweep = SweepOptions(sweep_obj["n_samples"], tolerances, sweep_obj["seed"], sweep_obj["mode"])
    except ValueError as err:
        raise ConfigError(f"config.sweep.{err}") from err

    echo = {
        "signal_pair": {"g0": _dist_echo(g0), "g1": _dist_echo(g1), "auto_normalize": auto_normalize},
        "reward": reward,
        "grid": {"lo": lo, "hi": hi, "n": n},
        "equivalence_tolerance": eq_tol,
        "sweep": {**vars(sweep), "tolerances": list(sweep.tolerances)},
    }
    if cost is not None:
        echo["cost"] = _dist_echo(cost)
    if family is not None:
        fam_echo = {
            "kind": family.kind,
            "box": {"lower": list(family.box.lower), "upper": list(family.box.upper)},
        }
        if family.template is not None:
            fam_echo["template"] = _dist_echo(family.template)
        if family.basis:
            fam_echo["basis"] = [_dist_echo(d) for d in family.basis]
        echo["cost_family"] = fam_echo

    return RunConfig(
        g0=g0,
        g1=g1,
        auto_normalize=auto_normalize,
        reward=reward,
        cost=cost,
        family=family,
        grid=(lo, hi, n),
        equivalence_tolerance=eq_tol,
        sweep=sweep,
        echo=echo,
    )


def load_config(path) -> RunConfig:
    """Read, parse and validate a JSON config file; every failure is a ConfigError."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except FileNotFoundError as err:
        raise ConfigError(f"config file not found: {path}") from err
    except (OSError, UnicodeDecodeError) as err:
        raise ConfigError(f"config file {path} cannot be read: {err}") from err
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as err:
        raise ConfigError(f"config file {path} is not valid JSON: {err}") from err
    return load_config_dict(raw)

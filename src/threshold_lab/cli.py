"""Command-line front end.

Subcommands:

* ``check``       -- admissibility report for the signal pair, plus the
                     family certificate's three flags when a cost family
                     is configured (``smooth_ok`` and ``linear_ok`` from
                     the kind; ``responsive_ok`` is transversality at the
                     pivot r * gap(0) of the normalized pair, null when
                     the pair is not admissible)
* ``equilibrium`` -- prevalence / payoff / slope table over a t-grid (CSV)
* ``optimize``    -- both optima and the equivalence verdict (JSON)
* ``sweep``       -- coincidence-measure experiment (CSV + JSON summary)
* ``demo``        -- the standard worked example end to end: the
                     ``equilibrium --out``, ``optimize`` and ``sweep`` code
                     on ``DEMO_CONFIG``, writing their files
                     (``equilibrium.csv``, ``eu_curve.dat``,
                     ``optimize.json``, ``samples.csv``, ``summary.json``,
                     ``fractions.dat``) under ``<out>/demo-<UTC stamp>/``

``optimize`` and ``sweep`` require reward > 0.  Exit codes: 0 success, 1
configuration or usage error, a signal pair that is not admissible, or an
output that cannot be written.
"""

from __future__ import annotations

import argparse
import datetime as _dt
import functools
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .config import RunConfig, load_config, load_config_dict
from .equilibrium import ModelConfig
from .equilibrium import eu_pos  # noqa: F401  (not called here; perfbench/tracer.py wraps this name)
from .errors import ConfigError, ThresholdLabError
from .families import certify
from .genericity import SweepSpec, coincidence_fraction, scaling_report
from .optimize import accuracy_optimal, compliance_optimal, equivalence_verdict
from .optimize import equivalence_test  # noqa: F401  (not called here; perfbench/tracer.py wraps this name)
from .output import (
    EQUILIBRIUM_COLUMNS,
    equilibrium_table,
    fmt_float,
    sweep_summary,
    write_equilibrium_csv,
    write_json,
    write_sweep_csv,
    write_xy,
)
from .signals import SignalPair, check_admissible, normalize_pair

__all__ = ["main", "run_cli"]


class _UsageExit(Exception):
    def __init__(self, code: int, message: str = ""):
        super().__init__(message)
        self.code = code


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the contract here is exit 1
    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageExit(1, f"error: {message}")


@functools.cache
def _build_parser() -> _Parser:
    # built on the first command, not at import, and reused: parse_args
    # keeps no state between calls
    parser = _Parser(prog="threshold-lab", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"threshold-lab {__version__}")
    sub = parser.add_subparsers(dest="command")

    def add(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--out", type=Path, default=None, help="output directory")
        return p

    p = add("check", "validate the signal pair and certify the cost family")
    p.add_argument("--config", type=Path, required=True)

    p = add("equilibrium", "tabulate prevalence, payoff and slope over a t-grid")
    p.add_argument("--config", type=Path, required=True)
    p.add_argument("--grid", type=str, default=None, help="LO:HI:N override")

    p = add("optimize", "compute both optima and the equivalence verdict")
    p.add_argument("--config", type=Path, required=True)
    p.add_argument("--tol", type=float, default=None, help="equivalence tolerance override")

    p = add("sweep", "estimate the measure of the coincidence set")
    p.add_argument("--config", type=Path, required=True)
    p.add_argument("--seed", type=int, default=None, help="seed override")
    p.add_argument("--tol", type=str, default=None, help="comma-separated descending tolerance ladder")
    p.add_argument("--mode", default=None, help="foc_gap or threshold_distance")

    add("demo", "run the standard worked example end to end")
    return parser


def _parse_grid(text: str) -> dict:
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"--grid expects LO:HI:N, got {text!r}")
    try:
        return {"lo": float(parts[0]), "hi": float(parts[1]), "n": int(parts[2])}
    except ValueError as err:
        raise ConfigError(f"--grid expects LO:HI:N numbers, got {text!r}") from err


def _with_flags(cfg: RunConfig, flags: dict) -> RunConfig:
    """``cfg`` with the given command-line values in place of its fields.

    ``flags`` maps a config field path (``"grid"``, ``"sweep.seed"``) to a
    flag's value, None when the flag was not given.  The values are written
    into the echo, which ``load_config_dict`` checks again, so a flag is
    checked as the config field it replaces and the echo records it.
    """
    given = {field: value for field, value in flags.items() if value is not None}
    if not given:
        return cfg
    raw = json.loads(json.dumps(cfg.echo))  # the echo as a rerun from its JSON reads it
    for field, value in given.items():
        section, _, name = field.rpartition(".")
        (raw[section] if section else raw)[name] = value
    return load_config_dict(raw)


def _build_pair(cfg: RunConfig) -> SignalPair:
    if cfg.auto_normalize:
        return normalize_pair(cfg.g0, cfg.g1)
    return SignalPair(g0=cfg.g0, g1=cfg.g1)


def _require_cost(cfg: RunConfig):
    if cfg.cost is None:
        raise ConfigError("config.cost: required for this command")
    return cfg.cost


def _require_positive_reward(cfg: RunConfig, command: str) -> None:
    if cfg.reward <= 0.0:
        raise ConfigError(f"config.reward: {command} requires reward > 0, got {cfg.reward!r}")


def _require_family(cfg: RunConfig):
    if cfg.family is None:
        raise ConfigError("config.cost_family: required for this command")
    return cfg.family


def _emit(obj: dict, out_dir: Path | None, filename: str) -> None:
    text = json.dumps(obj, indent=2)
    print(text)
    if out_dir is not None:
        write_json(out_dir / filename, obj, text=text)


def _cmd_check(args) -> int:
    cfg = load_config(args.config)
    report = check_admissible(cfg.g0, cfg.g1)
    payload = {
        "signal_pair": {
            "admissible": report.admissible,
            "mlrp_ok": report.mlrp_ok,
            "crossing_count": report.crossing_count,
            "crossing_location": report.crossing_location,
            "min_ratio_slope": report.min_ratio_slope,
            "smooth_ok": report.smooth_ok,
            "support_ok": report.support_ok,
            "grid": list(report.grid),
        },
        "config": cfg.echo,
    }
    if cfg.family is not None:
        pivot = cfg.reward * normalize_pair(cfg.g0, cfg.g1).gap(0.0) if report.admissible else None
        payload["cost_family"] = certify(cfg.family, pivot).summary()
    _emit(payload, args.out, "check.json")
    return 0


def _cmd_equilibrium(args) -> int:
    cfg = load_config(args.config)
    grid = _parse_grid(args.grid) if args.grid is not None else None
    cfg = _with_flags(cfg, {"grid": grid})
    lo, hi, n = cfg.grid
    pair = _build_pair(cfg)
    model = ModelConfig(pair=pair, cost=_require_cost(cfg), reward=cfg.reward)
    ts = np.linspace(lo, hi, n)
    if args.out is None:
        rows = equilibrium_table(model, ts)
        print(",".join(EQUILIBRIUM_COLUMNS))
        for row in rows:
            print(",".join(fmt_float(v) for v in row))
    else:
        _write_equilibrium(args.out, model, ts)
        print(f"wrote {args.out / 'equilibrium.csv'}")
    return 0


def _write_equilibrium(out_dir: Path, model: ModelConfig, ts) -> None:
    cols = write_equilibrium_csv(out_dir / "equilibrium.csv", model, ts)
    write_xy(out_dir / "eu_curve.dat", ts, cols[EQUILIBRIUM_COLUMNS.index("eu_pos")], labels=("t", "eu_pos"))


def _optimize(cfg: RunConfig, pair: SignalPair) -> dict:
    """The ``optimize.json`` payload: both optima and the verdict on ``pair``."""
    model = ModelConfig(pair=pair, cost=_require_cost(cfg), reward=cfg.reward)
    compliance = compliance_optimal(model)
    accuracy = accuracy_optimal(model)
    verdict = equivalence_verdict(model, compliance, accuracy, cfg.equivalence_tolerance)
    return {
        "compliance": {
            "threshold": compliance.threshold,
            "value": compliance.value,
            "method": compliance.method,
        },
        "accuracy": {
            "threshold": accuracy.threshold,
            "value": accuracy.value,
            "method": accuracy.method,
            "iterations": accuracy.iterations,
            "bracket_width": accuracy.bracket_width,
        },
        "equivalent": verdict.equivalent,
        "distance": verdict.distance,
        "foc_gap": verdict.foc_gap,
        "tolerance": verdict.tolerance,
        "normalization_shift": pair.shift,
        "config": cfg.echo,
    }


def _cmd_optimize(args) -> int:
    cfg = _with_flags(load_config(args.config), {"equivalence_tolerance": args.tol})
    _require_positive_reward(cfg, "optimize")
    _emit(_optimize(cfg, _build_pair(cfg)), args.out, "optimize.json")
    return 0


def _run_sweep(cfg: RunConfig, pair: SignalPair, out_dir: Path) -> dict:
    result = coincidence_fraction(SweepSpec(_require_family(cfg), pair, cfg.reward, **vars(cfg.sweep)))
    report = scaling_report(result)
    write_sweep_csv(out_dir / "samples.csv", result)
    # the summary names the CSV by its constant basename so identical
    # configs give byte-identical files whatever directory they land in
    summary = sweep_summary(result, report, config_echo=cfg.echo)
    write_json(out_dir / "summary.json", summary)
    write_xy(out_dir / "fractions.dat", result.tolerances, result.fractions, labels=("tolerance", "fraction"))
    return summary


def _cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    tolerances = None
    if args.tol is not None:
        try:
            tolerances = [float(t) for t in args.tol.split(",") if t]
        except ValueError as err:
            raise ConfigError(f"--tol expects comma-separated numbers, got {args.tol!r}") from err
    cfg = _with_flags(cfg, {"sweep.seed": args.seed, "sweep.mode": args.mode, "sweep.tolerances": tolerances})
    _require_positive_reward(cfg, "sweep")
    out_dir = args.out if args.out is not None else Path("runs") / "sweep"
    summary = _run_sweep(cfg, _build_pair(cfg), out_dir)
    print(json.dumps(summary, indent=2))
    print(f"wrote {out_dir / 'samples.csv'} and {out_dir / 'summary.json'}", file=sys.stderr)
    return 0


DEMO_CONFIG = {
    "signal_pair": {
        "g0": {"kind": "normal", "params": [-1.0, 1.0]},
        "g1": {"kind": "normal", "params": [1.0, 1.0]},
    },
    "cost": {"kind": "logistic", "params": [0.0, 1.0]},
    "cost_family": {
        "kind": "location",
        "template": {"kind": "logistic", "params": [0.0, 1.0]},
        "box": {"lower": [-3.0], "upper": [3.0]},
    },
}


def _cmd_demo(args) -> int:
    stamp = _dt.datetime.now(_dt.timezone.utc).strftime("%Y%m%d-%H%M%S")
    out_dir = (args.out if args.out is not None else Path("runs")) / f"demo-{stamp}"
    cfg = load_config_dict(DEMO_CONFIG)
    report = check_admissible(cfg.g0, cfg.g1)
    print(f"[demo] pair admissible: {report.admissible} (ratio slope >= {report.min_ratio_slope:.3f})")
    pair = normalize_pair(cfg.g0, cfg.g1)
    model = ModelConfig(pair=pair, cost=cfg.cost, reward=cfg.reward)

    _write_equilibrium(out_dir, model, np.linspace(*cfg.grid[:2], cfg.grid[2]))

    payload = _optimize(cfg, pair)
    compliance, accuracy = payload["compliance"], payload["accuracy"]
    print(
        f"[demo] compliance optimum t = {compliance['threshold']:g} "
        f"(prevalence {compliance['value']:.6f}); accuracy optimum t = {accuracy['threshold']:.6f} "
        f"(payoff {accuracy['value']:.6f}); equivalent: {payload['equivalent']}"
    )

    summary = _run_sweep(cfg, pair, out_dir)
    print(
        f"[demo] sweep fractions {summary['fractions']} at tolerances {summary['tolerances']}; "
        f"slope {summary['scaling_slope']:.3f}; {summary['verdict']}"
    )

    write_json(out_dir / "optimize.json", payload)
    print(f"[demo] artifacts under {out_dir}")
    return 0


_COMMANDS = {
    "check": _cmd_check,
    "equilibrium": _cmd_equilibrium,
    "optimize": _cmd_optimize,
    "sweep": _cmd_sweep,
    "demo": _cmd_demo,
}


def _join_value_flags(argv):
    """Fold ``--grid -5:5:101`` into ``--grid=-5:5:101`` so argparse does
    not mistake a leading-minus value for an option."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in ("--grid", "--tol") and i + 1 < len(argv):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def run_cli(argv=None) -> int:
    parser = _build_parser()
    if argv is None:
        argv = sys.argv[1:]
    argv = _join_value_flags(list(argv))
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_help(sys.stderr)
            return 1
        return _COMMANDS[args.command](args)
    except _UsageExit as err:
        if str(err):
            print(str(err), file=sys.stderr)
        return err.code
    except (ThresholdLabError, OSError) as err:
        # an OSError here is an output that cannot be written; config
        # reads already raise ConfigError
        print(f"error: {err}", file=sys.stderr)
        return 1


def main(argv=None) -> int:
    return run_cli(argv)


if __name__ == "__main__":
    raise SystemExit(main())

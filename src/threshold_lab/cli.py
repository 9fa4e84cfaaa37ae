"""Command-line front end.

Subcommands:

* ``check``       -- admissibility report for the signal pair, plus the
                     family certificate when a cost family is configured
* ``equilibrium`` -- prevalence / payoff / slope table over a t-grid (CSV)
* ``optimize``    -- both optima and the equivalence verdict (JSON)
* ``sweep``       -- coincidence-measure experiment (CSV + JSON summary)
* ``demo``        -- the standard worked example end to end

Exit codes: 0 success, 1 configuration or usage error, 2 numeric guardrail
failure.
"""

from __future__ import annotations

import argparse
import datetime as _dt
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .config import RunConfig, load_config, load_config_dict
from .equilibrium import ModelConfig, eu_pos
from .errors import ConfigError, ThresholdLabError, VerificationFailedError
from .families import certify
from .genericity import SweepSpec, coincidence_fraction, scaling_report
from .optimize import accuracy_optimal, compliance_optimal, equivalence_test
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


def _build_parser() -> _Parser:
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
    p.add_argument("--mode", choices=("foc_gap", "threshold_distance"), default=None)

    add("demo", "run the standard worked example end to end")
    return parser


def _parse_grid(text: str) -> tuple[float, float, int]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"--grid expects LO:HI:N, got {text!r}")
    try:
        lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as err:
        raise ConfigError(f"--grid expects LO:HI:N numbers, got {text!r}") from err
    if not (lo < hi and n >= 2):
        raise ConfigError(f"--grid needs lo < hi and n >= 2, got {text!r}")
    return lo, hi, n


def _build_pair(cfg: RunConfig) -> SignalPair:
    if cfg.auto_normalize:
        return normalize_pair(cfg.g0, cfg.g1)
    return SignalPair(g0=cfg.g0, g1=cfg.g1, shift=0.0, normalized=True)


def _require_cost(cfg: RunConfig):
    if cfg.cost is None:
        raise ConfigError("config.cost: required for this command")
    return cfg.cost


def _require_family(cfg: RunConfig):
    if cfg.family is None:
        raise ConfigError("config.cost_family: required for this command")
    return cfg.family


def _emit(obj: dict, out_dir: Path | None, filename: str) -> None:
    text = json.dumps(obj, indent=2)
    print(text)
    if out_dir is not None:
        write_json(out_dir / filename, obj)


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
        cert = certify(cfg.family)
        payload["cost_family"] = {**cert.summary(), "evidence": cert.evidence}
    _emit(payload, args.out, "check.json")
    return 0


def _cmd_equilibrium(args) -> int:
    cfg = load_config(args.config)
    lo, hi, n = _parse_grid(args.grid) if args.grid else cfg.grid
    pair = _build_pair(cfg)
    model = ModelConfig(pair=pair, cost=_require_cost(cfg), reward=cfg.reward)
    ts = np.linspace(lo, hi, n)
    if args.out is None:
        rows = equilibrium_table(model, ts)
        print(",".join(EQUILIBRIUM_COLUMNS))
        for row in rows:
            print(",".join(fmt_float(v) for v in row))
    else:
        write_equilibrium_csv(args.out / "equilibrium.csv", model, ts)
        write_xy(args.out / "eu_curve.dat", ts, eu_pos(model, ts), labels=("t", "eu_pos"))
        print(f"wrote {args.out / 'equilibrium.csv'}")
    return 0


def _cmd_optimize(args) -> int:
    cfg = load_config(args.config)
    tol = args.tol if args.tol is not None else cfg.equivalence_tolerance
    if tol <= 0.0:
        raise ConfigError(f"--tol must be > 0, got {tol}")
    pair = _build_pair(cfg)
    model = ModelConfig(pair=pair, cost=_require_cost(cfg), reward=cfg.reward)
    compliance = compliance_optimal(model)
    accuracy = accuracy_optimal(model)
    verdict = equivalence_test(model, tol)
    payload = {
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
    _emit(payload, args.out, "optimize.json")
    return 0


def _run_sweep(cfg: RunConfig, out_dir: Path) -> dict:
    pair = _build_pair(cfg)
    family = _require_family(cfg)
    cert = certify(family)
    spec = SweepSpec(
        family=family,
        pair=pair,
        reward=cfg.reward,
        n_samples=cfg.sweep.n_samples,
        tolerances=cfg.sweep.tolerances,
        seed=cfg.sweep.seed,
        mode=cfg.sweep.mode,
    )
    result = coincidence_fraction(spec, cert)
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
    raw = dict(cfg.echo)
    sweep_over = dict(raw["sweep"])
    if args.seed is not None:
        sweep_over["seed"] = args.seed
    if args.mode is not None:
        sweep_over["mode"] = args.mode
    if args.tol is not None:
        try:
            sweep_over["tolerances"] = [float(t) for t in args.tol.split(",") if t]
        except ValueError as err:
            raise ConfigError(f"--tol expects comma-separated numbers, got {args.tol!r}") from err
    raw["sweep"] = sweep_over
    cfg = load_config_dict(raw)
    out_dir = args.out if args.out is not None else Path("runs") / "sweep"
    summary = _run_sweep(cfg, out_dir)
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
    "reward": 1.0,
    "grid": {"lo": -5.0, "hi": 5.0, "n": 101},
    "sweep": {"n_samples": 10000, "tolerances": [0.1, 0.01, 0.001], "seed": 20250810, "mode": "foc_gap"},
}


def _cmd_demo(args) -> int:
    stamp = _dt.datetime.now(_dt.timezone.utc).strftime("%Y%m%d-%H%M%S")
    out_dir = (args.out if args.out is not None else Path("runs")) / f"demo-{stamp}"
    cfg = load_config_dict(DEMO_CONFIG)
    pair = _build_pair(cfg)
    model = ModelConfig(pair=pair, cost=cfg.cost, reward=cfg.reward)

    report = check_admissible(cfg.g0, cfg.g1)
    print(f"[demo] pair admissible: {report.admissible} (ratio slope >= {report.min_ratio_slope:.3f})")

    ts = np.linspace(*cfg.grid[:2], cfg.grid[2])
    write_equilibrium_csv(out_dir / "equilibrium.csv", model, ts)
    write_xy(out_dir / "eu_curve.dat", ts, eu_pos(model, ts), labels=("t", "eu_pos"))

    compliance = compliance_optimal(model)
    accuracy = accuracy_optimal(model)
    verdict = equivalence_test(model, cfg.equivalence_tolerance)
    print(
        f"[demo] compliance optimum t = {compliance.threshold:g} "
        f"(prevalence {compliance.value:.6f}); accuracy optimum t = {accuracy.threshold:.6f} "
        f"(payoff {accuracy.value:.6f}); equivalent: {verdict.equivalent}"
    )

    summary = _run_sweep(cfg, out_dir)
    print(
        f"[demo] sweep fractions {summary['fractions']} at tolerances {summary['tolerances']}; "
        f"slope {summary['scaling_slope']:.3f}; {summary['verdict']}"
    )

    write_json(
        out_dir / "optimize.json",
        {
            "compliance_t": compliance.threshold,
            "accuracy_t": accuracy.threshold,
            "equivalent": verdict.equivalent,
            "foc_gap": verdict.foc_gap,
        },
    )
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
    except VerificationFailedError as err:
        print(f"numeric guardrail failure: {err}", file=sys.stderr)
        return 2
    except ThresholdLabError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


def main(argv=None) -> int:
    return run_cli(argv)


if __name__ == "__main__":
    raise SystemExit(main())

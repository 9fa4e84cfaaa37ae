"""Result serialization: CSV tables, JSON summaries, plot-ready columns.

Every numeric is written with 17 significant digits, which round-trips
IEEE doubles exactly: ``float(format(x)) == x``.  Sweep outputs contain no
timestamps or absolute paths, so identical configurations produce
byte-identical files.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

from .equilibrium import ModelConfig, deu_pos, eu_pos, prevalence_neg, prevalence_pos
from .genericity import ScalingReport, SweepResult

__all__ = [
    "fmt_float",
    "write_csv",
    "write_json",
    "write_xy",
    "equilibrium_table",
    "write_equilibrium_csv",
    "write_sweep_csv",
    "sweep_summary",
]


def fmt_float(x) -> str:
    x = float(x)
    if math.isnan(x):
        return "nan"
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return format(x, ".17g")


def _cell(v) -> str:
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, (float, np.floating)):
        return fmt_float(v)
    return str(v)


def write_csv(path, header, rows) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_cell(v) for v in row])


def write_json(path, obj) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")


def write_xy(path, xs, ys, labels=("x", "y")) -> None:
    """Two-column whitespace table for external plotting."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as fh:
        fh.write(f"# {labels[0]} {labels[1]}\n")
        for x, y in zip(xs, ys):
            fh.write(f"{fmt_float(x)} {fmt_float(y)}\n")


EQUILIBRIUM_COLUMNS = ("t", "pi_pos", "pi_neg", "eu_pos", "deu_pos")


def equilibrium_table(m: ModelConfig, ts: np.ndarray):
    """Rows of (t, pi_pos, pi_neg, eu_pos, deu_pos) over a finite grid."""
    pp = prevalence_pos(m, ts)
    pn = prevalence_neg(m, ts)
    eu = eu_pos(m, ts)
    deu = deu_pos(m, ts)
    return [tuple(col[i] for col in (ts, pp, pn, eu, deu)) for i in range(len(ts))]


def write_equilibrium_csv(path, m: ModelConfig, ts: np.ndarray) -> None:
    write_csv(path, EQUILIBRIUM_COLUMNS, equilibrium_table(m, ts))


#: rows formatted per write in write_sweep_csv; bounds the text held in memory
SWEEP_CSV_BLOCK = 1024


def write_sweep_csv(path, result: SweepResult) -> None:
    """Per-sample records: parameters, both metrics, coincidence flags.

    Byte-identical to ``write_csv`` over the same rows (fmt_float cells,
    "1"/"0" flags, ``\\r\\n`` row ends), but formats the rows block by block
    from stacked columns instead of building a list per row.
    """
    k = result.samples.shape[1]
    header = (
        [f"x_{i + 1}" for i in range(k)]
        + ["foc_gap", "accuracy_t"]
        + [f"coincident@{tol:g}" for tol in result.tolerances]
    )
    floats = np.column_stack([result.samples, result.foc_gaps, result.accuracy_thresholds])
    flags = np.column_stack([result.metrics < tol for tol in result.tolerances]).view(np.uint8)
    # "{:.17g}" spells nan and +-inf as fmt_float does
    row_format = ",".join(["{:.17g}"] * floats.shape[1] + ["{:d}"] * flags.shape[1]) + "\r\n"
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(header)
        for start in range(0, result.n_samples, SWEEP_CSV_BLOCK):
            stop = start + SWEEP_CSV_BLOCK
            fh.writelines(
                row_format.format(*row, *bits)
                for row, bits in zip(floats[start:stop].tolist(), flags[start:stop].tolist())
            )


def sweep_summary(result: SweepResult, report: ScalingReport, config_echo: dict | None = None) -> dict:
    """JSON-ready sweep summary; deterministic for identical configurations."""
    out = {
        "n_samples": result.n_samples,
        "seed": result.seed,
        "mode": result.mode,
        "tolerances": list(result.tolerances),
        "fractions": list(result.fractions),
        "scaling_slope": result.scaling_slope,
        "degenerate_fit": result.degenerate_fit,
        "bootstrap": {
            "n_resamples": report.n_resamples,
            "slope_lo": report.slope_lo,
            "slope_hi": report.slope_hi,
        },
        "smallest_fraction": report.smallest_fraction,
        "consistent_with_measure_zero": report.consistent,
        "verdict": report.verdict,
        "certificate": result.certificate.summary(),
        "samples_csv": "samples.csv",
    }
    if config_echo is not None:
        out["config"] = config_echo
    return out

"""Result serialization: CSV tables, JSON summaries, plot-ready columns.

Every numeric is written with 17 significant digits, which round-trips
IEEE doubles exactly: ``float(format(x)) == x``.  Sweep outputs contain no
timestamps or absolute paths, so identical configurations produce
byte-identical files.
"""

from __future__ import annotations

import csv
import functools
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


def write_json(path, obj, text: str | None = None) -> None:
    """Write obj as 2-space indented JSON and a newline.

    ``text``, when given, is ``json.dumps(obj, indent=2)`` as the caller
    already encoded it, and is written instead of encoding obj again.
    """
    if text is None:
        text = json.dumps(obj, indent=2)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def write_xy(path, xs, ys, labels=("x", "y")) -> None:
    """Two-column whitespace table for external plotting."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as fh:
        fh.write(f"# {labels[0]} {labels[1]}\n")
        for x, y in zip(xs, ys):
            fh.write(f"{fmt_float(x)} {fmt_float(y)}\n")


EQUILIBRIUM_COLUMNS = ("t", "pi_pos", "pi_neg", "eu_pos", "deu_pos")


def _equilibrium_columns(m: ModelConfig, ts: np.ndarray):
    return ts, prevalence_pos(m, ts), prevalence_neg(m, ts), eu_pos(m, ts), deu_pos(m, ts)


def equilibrium_table(m: ModelConfig, ts: np.ndarray):
    """Rows of (t, pi_pos, pi_neg, eu_pos, deu_pos) over a finite grid."""
    cols = _equilibrium_columns(m, ts)
    return [tuple(col[i] for col in cols) for i in range(len(ts))]


def write_equilibrium_csv(path, m: ModelConfig, ts: np.ndarray) -> None:
    """``write_csv`` of ``equilibrium_table(m, ts)``, byte for byte."""
    _write_csv_blocks(path, EQUILIBRIUM_COLUMNS, np.column_stack(_equilibrium_columns(m, ts)))


#: rows formatted per write in the block CSV writers; bounds the text held in memory
SWEEP_CSV_BLOCK = 1024


def write_sweep_csv(path, result: SweepResult) -> None:
    """Per-sample records: parameters, both metrics, coincidence flags."""
    k = result.samples.shape[1]
    header = (
        [f"x_{i + 1}" for i in range(k)]
        + ["foc_gap", "accuracy_t"]
        + [f"coincident@{tol:g}" for tol in result.tolerances]
    )
    floats = np.column_stack([result.samples, result.foc_gaps, result.accuracy_thresholds])
    flags = np.column_stack([result.metrics < tol for tol in result.tolerances]).view(np.uint8)
    _write_csv_blocks(path, header, floats, flags)


@functools.cache
def _flag_tails(m: int) -> np.ndarray:
    """The text ",f_1,...,f_m" of every pattern of m <= 8 flags, indexed
    by its little-endian bit code."""
    return np.array(["".join(",%d" % (code >> j & 1) for j in range(m)) for code in range(2**m)], dtype=object)


def _write_csv_blocks(path, header, floats: np.ndarray, flags: np.ndarray | None = None) -> None:
    """CSV of an (n, a) float matrix, then an (n, b) 0/1 flag matrix, per row.

    Byte-identical to ``write_csv`` over the same rows (fmt_float cells,
    "1"/"0" flags, ``\\r\\n`` row ends), but formats SWEEP_CSV_BLOCK rows
    at a time with one ``%`` of the row format repeated per row.  The flags
    of a row are written as their text from a table of the 2**8 patterns of
    8 flags, indexed by the byte that ``np.packbits`` makes of each run of
    up to 8 flags.
    """
    n, a = floats.shape
    if flags is None:
        flags = np.empty((n, 0), dtype=np.uint8)
    b = flags.shape[1]
    codes = np.packbits(flags, axis=1, bitorder="little")
    tails = [_flag_tails(min(8, b - j)) for j in range(0, b, 8)]
    # "%.17g" spells nan and +-inf as fmt_float does
    row = ",".join(["%.17g"] * a) + "%s" * len(tails) + "\r\n"
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(header)
        for start in range(0, n, SWEEP_CSV_BLOCK):
            stop = min(start + SWEEP_CSV_BLOCK, n)
            cells = np.empty((stop - start, a + len(tails)), dtype=object)
            cells[:, :a] = floats[start:stop]
            for c, table in enumerate(tails):
                cells[:, a + c] = table[codes[start:stop, c]]
            fh.write(row * (stop - start) % tuple(cells.ravel().tolist()))


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

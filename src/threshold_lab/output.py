"""Result serialization: CSV tables, JSON summaries, plot-ready columns.

Every numeric is written with 17 significant digits, which round-trips
IEEE doubles exactly: ``float(format(x)) == x``.  ``fmt_float`` and
``write_csv`` format one value at a time and are the reference.  The
sweep CSV, the equilibrium CSV and the two-column tables go through
``_write_csv_blocks`` instead, which writes the same bytes a block of
rows at a time.  A row there is its float cells, then a tail of bytes
the caller made, then the row end: cells that %.17g prints in fixed
notation get their digits from integer arithmetic, the other cells go
through one ``%`` per block, and the sweep CSV's tail is the text of
its coincidence flags (and of an all-nan ``accuracy_t`` column), looked
up by each sample's level.  Sweep outputs contain no timestamps or
absolute paths, so identical configurations produce byte-identical
files.
"""

from __future__ import annotations

import csv
import functools
import json
import math
from pathlib import Path

import numpy as np

from .equilibrium import ModelConfig, _table_columns
from .genericity import ScalingReport, SweepResult, coincidence_levels

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
    """Two-column whitespace table for external plotting: a "# x y" header,
    then one "x y" line of fmt_float cells per point."""
    xy = np.array((xs, ys), dtype=float).T
    _write_csv_blocks(path, f"# {labels[0]} {labels[1]}\n", xy, sep=" ", eol="\n")


EQUILIBRIUM_COLUMNS = ("t", "pi_pos", "pi_neg", "eu_pos", "deu_pos")


def _equilibrium_columns(m: ModelConfig, ts: np.ndarray):
    return (ts, *_table_columns(m, ts))


def equilibrium_table(m: ModelConfig, ts: np.ndarray):
    """Rows of (t, pi_pos, pi_neg, eu_pos, deu_pos) over a finite grid."""
    cols = _equilibrium_columns(m, ts)
    return [tuple(col[i] for col in cols) for i in range(len(ts))]


def write_equilibrium_csv(path, m: ModelConfig, ts: np.ndarray):
    """``write_csv`` of ``equilibrium_table(m, ts)``, byte for byte.

    Returns the columns it wrote, in EQUILIBRIUM_COLUMNS order, so a
    caller can plot one without evaluating it again."""
    header = ",".join(EQUILIBRIUM_COLUMNS) + "\r\n"
    cols = _equilibrium_columns(m, ts)
    _write_csv_blocks(path, header, np.column_stack(cols))
    return cols


#: rows formatted per write in the block CSV writers; bounds the text held in memory
SWEEP_CSV_BLOCK = 1024


def _rung_name(tol: float) -> str:
    """The flag column of ladder rung ``tol``: named by its ``:g`` text
    where that reads back as ``tol``, else by its repr, so that distinct
    rungs get distinct names."""
    text = f"{tol:g}"
    return f"coincident@{text if float(text) == tol else repr(float(tol))}"


def write_sweep_csv(path, result: SweepResult) -> None:
    """Per-sample records: parameters, both metrics, coincidence flags."""
    k = result.samples.shape[1]
    m = len(result.tolerances)
    names = (
        [f"x_{i + 1}" for i in range(k)]
        + ["foc_gap", "accuracy_t"]
        + [_rung_name(tol) for tol in result.tolerances]
    )
    floats = [result.samples, result.foc_gaps]
    head = b""
    if np.isnan(result.accuracy_thresholds).all():
        head = b",nan"  # the same text in every row, as in every foc_gap sweep
    else:
        floats.append(result.accuracy_thresholds)
    # row L: the flags of a sample of level L, whose metric is below the
    # first L rungs of the descending ladder and no others
    table = b"".join(head + b",1" * level + b",0" * (m - level) for level in range(m + 1))
    table = np.frombuffer(table, dtype=np.uint8).reshape(m + 1, -1)
    tails = table[coincidence_levels(result.metrics, result.tolerances)]
    _write_csv_blocks(path, ",".join(names) + "\r\n", np.column_stack(floats), tails)


# ---------------------------------------------------------------------------
# %.17g text from integer digits

#: bytes of the longest %.17g text, "-4.9406564584124654e-324"; each cell
#: gets this many, and the bytes it does not fill are _PAD
_CELL = 24
#: filler byte, dropped before a block is written; no cell, separator,
#: tail or row end contains it
_PAD = 0

# Constants that ufuncs meet are 0-d arrays: numpy takes them faster than
# Python or numpy scalars, and a block of a few hundred cells spends most
# of its time in per-call overhead.
_U = np.uint64


def _u64(x) -> np.ndarray:
    return np.array(x, dtype=_U)


#: the fast range: %.17g prints these magnitudes in fixed notation
_FAST_LO, _FAST_HI = np.array(1e-4), np.array(1e15)
#: a block of fewer cells goes through "%" whole: the integer path's fixed
#: cost, some 70 numpy calls, is more than "%" spends on that many cells
#: (at 202 cells "%" is faster, at 505 the integer path)
_MIN_FAST_CELLS = 256
_ZERO, _J0 = np.array(0.0), np.array(5.0)
_PAD_BYTE, _ASCII_ZERO = np.array(_PAD, dtype=np.uint8), np.array(ord("0"), dtype=np.uint8)
_E4, _E8, _E16, _E17 = _u64(10**4), _u64(10**8), _u64(10**16), _u64(10**17)
_DIGITS17 = _E17 - _E16  # q - 10**16 is below this iff q has 17 digits
_ONE, _B52, _B64, _HALF = _u64(1), _u64(52), _u64(64), _u64(2**63)
_FRAC52, _HIDDEN = _u64(2**52 - 1), _u64(2**52)
#: s + e - j, from the exponents of |v| = mant * 2**(e - 1075) and 10**(j - 5)
_SHIFT0 = _u64(1054)
#: entry j = X + 5 is 10**k and 5**k for k = 16 - X = 21 - j; 10**21 is a
#: double exactly, and 5**21 < 2**49
_POW10 = 10.0 ** np.arange(21, -1, -1)
_POW5 = _U(5) ** np.arange(21, -1, -1, dtype=_U)
#: entries 0 .. 9999: the ASCII of "0000" .. "9999"; entries 10000 and
#: 10001: ".", "0", _PAD and the sign, _PAD or "-"; 4 bytes to an entry
_TEXT4 = np.zeros((10002, 4), dtype=np.uint8)
_ASCII_DIGITS = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
_TEXT4[:10000] = np.stack(np.meshgrid(*[_ASCII_DIGITS] * 4, indexing="ij"), axis=-1).reshape(10000, 4)
_TEXT4[10000:, :2] = (ord("."), ord("0"))
_TEXT4[10001, 3] = ord("-")
_TEXT4 = _TEXT4.view(np.uint32).ravel()
_SIGN0 = _u64(10000)  # the _TEXT4 entry of a positive sign

# A fast cell's bytes are gathered from a 24-byte source row, six _TEXT4
# entries: its leading digit as "000d", its other 16 digits, then ".",
# "0", _PAD and its sign.  _LAYOUT[17 * j + tz] lists which source byte
# each of the cell's _CELL bytes is, for decimal exponent X = j - 5 and tz
# trailing zero digits: the sign, then digits 0 .. X, the point and digits
# X+1 .. 16 without the trailing zeros, and no point when no digit
# follows it, as %g does; for X < 0, "0.", -X-1 zeros and all 17 digits
# without the trailing zeros.
_SRC_DIGIT0, _SRC_POINT, _SRC_ZERO, _SRC_PAD, _SRC_SIGN = 3, 20, 21, 22, 23
_SRC = 24


def _layout() -> np.ndarray:
    x = np.arange(-5, 16)[:, None, None]
    tz = np.arange(17)[None, :, None]
    b = np.arange(-1, _CELL - 1)[None, None, :]  # -1 is the sign
    lead = np.where(x < 0, 1 - x, 0)  # bytes of "0.000" before the first digit
    point = np.where(x < 0, b == 1, b == x + 1)
    digit = np.where(x < 0, b - lead, np.where(b > x, b - 1, b))
    kept = np.maximum(17 - tz, x + 1)  # digits left after the trailing zeros go
    idx = np.where((digit >= 0) & (digit < kept), digit + _SRC_DIGIT0, _SRC_PAD)
    idx = np.where((x < 0) & (b >= 0) & (b < lead), _SRC_ZERO, idx)
    idx = np.where(point, np.where(kept > x + 1, _SRC_POINT, _SRC_PAD), idx)
    idx = np.where(b < 0, _SRC_SIGN, idx)
    return idx.reshape(-1, _CELL).astype(np.intp)


_LAYOUT = _layout()
_TZ_COUNT = np.array(17, dtype=np.int64)  # _LAYOUT rows per exponent
#: turns the space padding of "%-24.17g" into _PAD
_SPACE_TO_PAD = bytes.maketrans(b" ", bytes([_PAD]))


def _scaled_digits(ax, mant, e, j):
    """floor and round-half-even of y = ax * 10**k, exactly, for
    ax = mant * 2**(e - 1075) and k = 21 - j, as uint64.

    y * 2**s = mant * 5**k with s = 1054 + j - e.  The double product
    ax * 10**k is within 2**7 of y (y < 10**18), so its integer part q0
    leaves a remainder r = mant * 5**k - q0 * 2**s of less than 2**54 in
    magnitude: the wrapped uint64 difference, read as int64, is r exactly.
    Then floor(y) = q0 + (r >> s), and the low s bits of r are the bits
    that the floor drops.  On the fast range s is 1..46 for the true
    exponent (46 at ax = 1e-4, 1 just below 1e15), and an estimate one
    off, which only happens next to a power of ten, moves it by one but
    not past either end; so every shift here is by 1..63 bits.
    """
    s = _SHIFT0 + j - e
    q0 = (ax * _POW10[j]).astype(_U)
    r = mant * _POW5[j] - (q0 << s)  # wraps
    q = q0 + (r.view(np.int64) >> s.view(np.int64)).view(_U)
    # the dropped bits at the top of a word, so that one half is 2**63
    # (at most 2**64 - 2**(64 - s), so adding 1 does not wrap): above a
    # half rounds up, and so does exactly a half when q is odd
    dropped = r << (_B64 - s)
    return q, q + (dropped + (q & _ONE) > _HALF)


def _fast_text(v: np.ndarray) -> np.ndarray:
    """The %.17g text of each v in the fast range: an (n, _CELL) byte
    matrix, _PAD after the text."""
    ax = np.abs(v)
    bits = ax.view(_U)
    mant = (bits & _FRAC52) | _HIDDEN
    e = bits >> _B52
    j = (np.log10(ax) + _J0).astype(_U)  # X + 5, or one off near a power of ten
    q, d = _scaled_digits(ax, mant, e, j)
    # the floor of the scaled value says which way the estimate is off (a
    # 17-digit rounding never carries into the next decade here: the
    # doubles next to 10**-3 .. 10**15 are more than 5e-18 of their size
    # away from it)
    bad = np.flatnonzero(q - _E16 >= _DIGITS17)  # q < 10**16 wraps
    if len(bad):
        j[bad] += (q[bad] >= _E17) - (q[bad] < _E16).astype(_U)  # wraps for -1
        d[bad] = _scaled_digits(ax[bad], mant[bad], e[bad], j[bad])[1]
    n = len(v)
    entries = np.empty((n, 6), dtype=_U)
    rest = np.empty(n, dtype=_U)
    np.divmod(d, _E16, out=(entries[:, 0], rest))
    hi, lo = np.divmod(rest, _E8)
    np.divmod(hi, _E4, out=(entries[:, 1], entries[:, 2]))
    np.divmod(lo, _E4, out=(entries[:, 3], entries[:, 4]))
    np.add(v < _ZERO, _SIGN0, out=entries[:, 5])
    src = np.take(_TEXT4, entries).view(np.uint8)
    tz = np.argmax(src[:, _SRC_POINT - 1 : _SRC_DIGIT0 - 1 : -1] != _ASCII_ZERO, axis=1)
    idx = np.take(_LAYOUT, j.view(np.int64) * _TZ_COUNT + tz, axis=0)
    idx += np.arange(0, n * _SRC, _SRC)[:, None]
    return np.take(src.ravel(), idx)


@functools.cache
def _row_template(a: int, width: int, sep: str, eol: str) -> np.ndarray:
    """A row of a block before its cells and tail go in: _PAD, a separator
    after each of the first a - 1 cells, and eol at the end."""
    row = np.full(width, _PAD, dtype=np.uint8)
    row[_CELL : (a - 1) * (_CELL + 1) : _CELL + 1] = ord(sep)
    row[width - len(eol) :] = np.frombuffer(eol.encode("ascii"), dtype=np.uint8)
    return row


def _text_block(floats: np.ndarray, tails: np.ndarray, sep: str, eol: str) -> np.ndarray:
    """The bytes of rows of an (r, a) float block: cells joined by sep,
    then the row's bytes from the (r, w) uint8 matrix tails, then eol."""
    r, a = floats.shape
    col = a * (_CELL + 1)
    width = col + tails.shape[1] + len(eol)
    out = np.empty((r, width), dtype=np.uint8)
    out[:] = _row_template(a, width, sep, eol)
    cells = out[:, :col].reshape(r, a, _CELL + 1)
    if floats.size < _MIN_FAST_CELLS:
        fast = np.zeros((r, a), dtype=bool)
    else:
        ax = np.abs(floats)
        fast = (ax >= _FAST_LO) & (ax < _FAST_HI)  # nan is not
    slow = ~fast
    others = floats[slow].tolist()
    if others:
        text = ("%-24.17g" * len(others) % tuple(others)).encode("ascii").translate(_SPACE_TO_PAD)
        cells[slow, :_CELL] = np.frombuffer(text, dtype=np.uint8).reshape(-1, _CELL)
    if len(others) < fast.size:
        cells[fast, :_CELL] = _fast_text(floats[fast])
    out[:, col : width - len(eol)] = tails
    out = out.ravel()
    return out[out != _PAD_BYTE]


def _write_csv_blocks(
    path, header: str, floats: np.ndarray, tails: np.ndarray | None = None, sep: str = ",", eol: str = "\r\n"
) -> None:
    """``header``, then one line per row of an (n, a) float matrix: the
    row's cells joined by sep, the row of an (n, w) uint8 matrix ``tails``
    (none when it is None), then eol.

    With the defaults the file is byte-identical to ``write_csv`` over the
    same rows (fmt_float cells, ``\\r\\n`` row ends) when ``header`` and the
    tails are the text ``write_csv`` gives the other columns;
    ``write_xy`` passes sep=" " and eol="\\n".

    SWEEP_CSV_BLOCK rows are laid out at a time in one uint8 matrix, each
    cell in a _CELL-byte field padded with _PAD, and written with one
    ``write`` of the bytes that are not _PAD (no tail may contain it).  A
    cell's text is ``format(v, ".17g")``, made in one of two ways:

    * in a block of at least _MIN_FAST_CELLS cells, a finite v with
      1e-4 <= |v| < 1e15, which %.17g prints in fixed notation: 16 - X
      digits after the point for its decimal exponent X (-4 .. 14), then
      no trailing zeros and no bare point.  Its 17 digits are
      round-half-even of |v| * 10**(16 - X), computed exactly from the
      integer significand (``_scaled_digits``), which are the digits
      %.17g prints: it too rounds the exact binary value half to even.
      X comes from ``np.log10`` and is corrected by one where the digits
      do not number 17.  The text is gathered from the digits by a table
      (``_LAYOUT``) of the byte positions for each X and count of
      trailing zeros;
    * every other cell (nan, +-inf, +-0, |v| < 1e-4, |v| >= 1e15, and
      every cell of a smaller block) is formatted by one ``%`` of
      "%-24.17g" per block, whose space padding becomes _PAD; "%.17g"
      spells nan and +-inf as fmt_float does.
    """
    n = len(floats)
    if tails is None:
        tails = np.empty((n, 0), dtype=np.uint8)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("wb") as fh:
        fh.write(header.encode("utf-8"))
        for start in range(0, n, SWEEP_CSV_BLOCK):
            stop = min(start + SWEEP_CSV_BLOCK, n)
            fh.write(_text_block(floats[start:stop], tails[start:stop], sep, eol))


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

"""Admissible signal pairs: likelihood-ratio checks and crossing normalization.

A pair of full-support signal distributions ``(g0, g1)`` drives the whole
model: ``g0`` is the signal law under non-compliance, ``g1`` under
compliance.  The pair is *admissible* when the likelihood ratio
``pdf1/pdf0`` is strictly increasing and the two densities cross exactly
once.  Admissible pairs are normalized by translating both distributions so
the density crossing sits at ``t = 0``; downstream formulas assume this.

All of it is checked numerically by one scan (``check_admissible``) on a
grid whose window follows the pair: ``MLRP_GRID_N`` points on
``c + [MLRP_GRID_LO, MLRP_GRID_HI]``, where ``c`` is the midpoint of the
two location parameters (weight-averaged over components for a mixture).
The model is translation invariant, and so is the scan: moving both
distributions by ``c`` moves the window, and the crossing, by ``c``.  One
pass yields the log-ratio increments and the density-difference crossings,
each one bracket ``(a, b, falls)``: two adjacent grid points with a strict
sign flip, or ``a == b`` at an exact zero, with the sign before it read
from the scan.  A unique crossing is refined from its bracket by
``_root``, the one root finder of the package (the accuracy optimizer's
slope refinement runs it too): regula falsi with the Illinois fix,
started from the density differences the scan already holds at the
bracket's ends.  ``find_crossing`` and ``normalize_pair`` read the
report.  Smoothness, the other hypothesis of the model, is not scanned
for: every catalog distribution is C-infinity by construction.

A ``SignalPair`` is admissible by construction: it runs the scan on its
own two distributions and refuses them as ``normalize_pair`` refuses a
raw pair, so the model code that takes one checks nothing further.

The scan is a pure function of two frozen distributions, so
``check_admissible`` keeps the reports of the SCAN_MEMO_SIZE (256) pairs
it was most recently asked about, least recently used dropped first: a
pair is scanned once per process however many commands ask about it, and
so is the normalized image ``normalize_pair`` builds from it.  The memo
is keyed bit for bit, on the type and exact value (``float.hex``) of
every parameter and weight, so pairs that are only ``==`` (``-0.0`` and
``0.0``, ``0`` and ``0.0``) never share an entry.  A translated pair is a
new key and is scanned again, although its verdict is the same; a pair
whose crossing is exactly 0 is its own image, one key.
``check_admissible.cache_info()`` counts hits and misses and
``check_admissible.cache_clear()`` empties the memo.

The monotone-ratio check runs on ``log_pdf`` differences: analytic
log-densities stay finite deep in the tails where the densities themselves
underflow, so the strictness test is not poisoned by the 1e-300 pdf floor.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .distributions import PDF_FLOOR, ScalarDistribution
from .errors import AdmissibilityError, NoCrossingError

__all__ = [
    "MLRP_GRID_LO",
    "MLRP_GRID_HI",
    "MLRP_GRID_N",
    "MLRP_STRICT_TOL",
    "CROSSING_MATCH_TOL",
    "NORMALIZED_DENSITY_TOL",
    "BISECT_WIDTH",
    "SCAN_MEMO_SIZE",
    "AdmissibilityReport",
    "SignalPair",
    "check_admissible",
    "find_crossing",
    "normalize_pair",
]

# scan window, as offsets from the pair's centre: wide enough to exercise
# both tails of every catalog member, fine enough (step 0.012) to localize
# density crossings for the root finder
MLRP_GRID_LO = -12.0
MLRP_GRID_HI = 12.0
MLRP_GRID_N = 2001

#: consecutive log-ratio increments must exceed this to count as strictly
#: increasing; separates genuine violations from floating-point ties
MLRP_STRICT_TOL = 1e-12
#: |pdf0 - pdf1| at the refined crossing; a crossing that misses it is
#: left unlocated
CROSSING_MATCH_TOL = 1e-10
#: density agreement at 0 required of a normalized pair
NORMALIZED_DENSITY_TOL = 1e-9

#: ``_root`` stops refining a bracket once it is this narrow: the density
#: crossing here and the accuracy optimizer's slope root
BISECT_WIDTH = 1e-12

#: pairs whose scan reports ``check_admissible`` keeps
SCAN_MEMO_SIZE = 256


def _location(d: ScalarDistribution) -> float:
    """Location parameter; the weight-averaged locations of a mixture."""
    if d.kind == "mixture":
        return sum(w * _location(comp) for w, comp in d.components)
    return d.params[0]


def _window_centre(g0: ScalarDistribution, g1: ScalarDistribution) -> float:
    return 0.5 * (_location(g0) + _location(g1))


def _scan_grid(g0: ScalarDistribution, g1: ScalarDistribution) -> np.ndarray:
    return _window_centre(g0, g1) + np.linspace(MLRP_GRID_LO, MLRP_GRID_HI, MLRP_GRID_N)


@dataclass(frozen=True)
class AdmissibilityReport:
    """Verdict and evidence from the numeric admissibility scan.

    ``grid`` is the scan window ``(lo, hi, n)``.  ``crossing_location``
    is None unless the crossing is unique and located: above the pdf
    floor, with the densities matching within CROSSING_MATCH_TOL.
    ``support_ok`` says both log-densities are finite over the window.
    ``smooth_ok`` is True: smoothness is the catalog's kind, not a scan
    result.
    """

    mlrp_ok: bool
    crossing_count: int
    crossing_location: float | None
    min_ratio_slope: float
    grid: tuple[float, float, int]
    support_ok: bool
    smooth_ok = True

    @property
    def admissible(self) -> bool:
        return (
            self.mlrp_ok
            and self.crossing_count == 1
            and self.crossing_location is not None
            and self.support_ok
        )


@dataclass(frozen=True)
class SignalPair:
    """An admissible signal pair normalized so its densities cross at 0.

    Every instance is admissible and normalized: construction raises
    AdmissibilityError, with ``normalize_pair``'s message, unless the
    admissibility scan (``check_admissible``, memoized) passes the pair,
    and then unless ``pdf0(0)`` and ``pdf1(0)`` agree within
    NORMALIZED_DENSITY_TOL above the pdf floor.  So the model code that
    takes a pair checks it no further.  Build one with ``normalize_pair``.
    ``shift`` records the translation applied so the density crossing
    moved to 0 (the original crossing location).
    """

    g0: ScalarDistribution
    g1: ScalarDistribution
    shift: float = 0.0

    def __post_init__(self):
        _admissible_crossing(check_admissible(self.g0, self.g1))
        p0, p1 = self.g0.pdf(0.0), self.g1.pdf(0.0)
        if abs(p0 - p1) > NORMALIZED_DENSITY_TOL or min(p0, p1) <= PDF_FLOOR:
            raise AdmissibilityError(
                f"pair marked normalized but pdf0(0) = {p0:.3e}, pdf1(0) = {p1:.3e}; "
                f"they must agree within {NORMALIZED_DENSITY_TOL} above the pdf floor"
            )

    def gap(self, t):
        """Signal gap cdf0(t) - cdf1(t), >= 0 for admissible normalized pairs.

        Computed from the lower tail for t <= 0 and from survival functions
        for t > 0 so the difference keeps full precision in both tails;
        exactly 0.0 at the infinite endpoints.
        """
        arr = np.asarray(t, dtype=float)
        out = self._gap_terms(arr)[0]
        return float(out) if arr.ndim == 0 else out

    def _gap_terms(self, t: np.ndarray):
        """``(gap, cdf0, cdf1, sf0, sf1)`` at the array t: the gap as ``gap``
        computes it, with the four signal values it is computed from, for
        the payoff and its slope, which need them too."""
        cdf0, cdf1 = self.g0.cdf(t), self.g1.cdf(t)
        sf0, sf1 = self.g0.sf(t), self.g1.sf(t)
        out = np.where(t <= 0.0, cdf0 - cdf1, sf1 - sf0)
        out = np.where(np.isinf(t), 0.0, out)
        return np.maximum(out, 0.0), cdf0, cdf1, sf0, sf1


def _crossing_brackets(diff: np.ndarray, grid: np.ndarray):
    """Sign changes of ``diff`` on the grid, exact zeros included.

    Returns one ``(a, b, falls)`` item per crossing, in grid order.  Either
    ``a`` and ``b`` are adjacent grid points with a strict sign flip, or
    ``a == b`` is the first grid point of a run of exact zeros between
    opposite signs (the whole run is one crossing).  ``falls`` is whether
    ``diff`` is positive before the crossing, i.e. at ``a`` for a strict
    flip.
    """
    nonzero = np.flatnonzero(diff)
    sign = np.sign(diff[nonzero])
    flips = np.flatnonzero(sign[:-1] != sign[1:])
    left = nonzero[flips]
    b = left + 1
    a = np.where(nonzero[flips + 1] == b, left, b)
    return [(float(grid[i]), float(grid[j]), bool(f)) for i, j, f in zip(a, b, sign[flips] > 0.0)]


def _root(f, a, b, fa, fb):
    """The roots of many rows in lockstep, by the Illinois method.

    Row i searches the bracket ``[a[i], b[i]]`` of a falling sign change
    of ``f``, whose end values ``fa[i] > 0 > fb[i]`` the caller already
    holds; a row without such ends is not searched.  ``f`` maps one point
    per row (an array shaped like ``a``) to its values there, and is
    called once per step, on every row.  Returns ``(point, width,
    steps)`` arrays: the end of the final bracket where ``|f|`` is
    smaller, or its midpoint when neither is (equal values, or a nan
    end), so an exact zero of ``f`` when a step met one; the final
    bracket's width, 0 at an exact zero; the steps the row took, one
    ``f`` call each.

    Each step tries the secant point of the bracket's ends (regula
    falsi), moved to at least BISECT_WIDTH / 2 inside the bracket, and
    the midpoint when that is not strictly inside.  A positive value
    moves ``a`` there, a negative one or nan moves ``b``, and an exact
    zero moves both, so every step narrows the bracket.  When the same end moves twice running, the secant halves
    the other end's value (the Illinois fix: Dowell & Jarratt, BIT 11,
    1971), so neither end goes stale.  A row stops once ``b - a <=
    BISECT_WIDTH``, or once the midpoint is not strictly inside its
    bracket; a degenerate bracket makes no call.  Every operation is
    elementwise, so a row takes the same steps and ends on the same
    floats alone or among any others.
    """
    a, b, ya, yb = (np.array(v, dtype=float) for v in (a, b, fa, fb))
    fa, fb = ya, yb  # the secant's end values, halved while their end goes stale
    active = (ya > 0.0) & (yb < 0.0)
    steps = np.zeros(a.shape, dtype=np.intp)
    side = np.zeros(a.shape)  # the end the row's last step moved: a 1, b -1, none 0
    while True:
        m = 0.5 * (a + b)
        active &= (b - a > BISECT_WIDTH) & (a < m) & (m < b)
        if not active.any():
            ya, yb = np.abs(ya), np.abs(yb)
            return np.where(ya < yb, a, np.where(yb < ya, b, m)), b - a, steps
        # a row that stopped may hold equal or non-finite ends
        with np.errstate(all="ignore"):
            x = a + (b - a) * (fa / (fa - fb))
        # at least half a stopping width inside: an end on the root then
        # closes the bracket in one more step
        x = np.clip(x, a + 0.5 * BISECT_WIDTH, b - 0.5 * BISECT_WIDTH)
        x = np.where((a < x) & (x < b), x, m)
        fx = f(x)
        steps += active
        up = active & (fx >= 0.0)
        down = active & ~(fx > 0.0)
        fa = np.where(up, fx, np.where(down & (side < 0.0), 0.5 * fa, fa))
        fb = np.where(down, fx, np.where(up & (side > 0.0), 0.5 * fb, fb))
        a, ya = np.where(up, x, a), np.where(up, fx, ya)
        b, yb = np.where(down, x, b), np.where(down, fx, yb)
        side = np.where(active, np.where(fx > 0.0, 1.0, -1.0), side)


def _scan(g0: ScalarDistribution, g1: ScalarDistribution) -> AdmissibilityReport:
    """The admissibility scan that ``check_admissible`` memoizes."""
    grid = _scan_grid(g0, g1)
    # -inf - -inf is nan where both log-densities overflow; that fails the check
    with np.errstate(invalid="ignore"):
        increments = np.diff(g1.log_pdf(grid) - g0.log_pdf(grid))
    min_slope = float(np.min(increments) / (grid[1] - grid[0]))

    diff = g0.pdf(grid) - g1.pdf(grid)
    brackets = _crossing_brackets(diff, grid)
    location = None
    if len(brackets) == 1:
        a, b, falls = brackets[0]
        s = 1.0 if falls else -1.0  # orient the difference to fall through 0
        fa, fb = s * diff[np.searchsorted(grid, [a, b])]
        t = float(_root(lambda u: s * (g0.pdf(u) - g1.pdf(u)), [a], [b], [fa], [fb])[0][0])
        p0, p1 = g0.pdf(t), g1.pdf(t)
        if min(p0, p1) > PDF_FLOOR and abs(p0 - p1) <= CROSSING_MATCH_TOL:
            location = t
    return AdmissibilityReport(
        mlrp_ok=bool(np.all(increments > MLRP_STRICT_TOL)),
        crossing_count=len(brackets),
        crossing_location=location,
        min_ratio_slope=min_slope,
        grid=(float(grid[0]), float(grid[-1]), MLRP_GRID_N),
        # a non-finite log-density makes both increments next to it non-finite
        support_ok=bool(np.all(np.isfinite(increments))),
    )


def _exact_key(d: ScalarDistribution) -> str:
    """``d`` spelled bit for bit: its kind, and the type name and
    ``float.hex`` of every parameter and weight.  Unlike ``repr`` under
    numpy < 2, it tells ``np.float32(0.1)`` from ``0.1``."""
    params = (f"{type(x).__name__}:{float(x).hex()}" for x in d.params)
    components = (f"{type(w).__name__}:{float(w).hex()}*{_exact_key(c)}" for w, c in d.components)
    return f"{d.kind}({','.join(params)}{','.join(components)})"


@functools.lru_cache(maxsize=SCAN_MEMO_SIZE)
def _memo(g0: ScalarDistribution, g1: ScalarDistribution, k0: str, k1: str) -> AdmissibilityReport:
    """The scan of (g0, g1), keyed on the pair and its exact spellings
    ``k0``, ``k1``: two keys are equal when the distributions are ``==``
    and their spellings agree, so ``-0.0`` and ``0.0`` stay apart."""
    return _scan(g0, g1)


def check_admissible(g0: ScalarDistribution, g1: ScalarDistribution) -> AdmissibilityReport:
    """The admissibility scan: one pass over the pair's centred window.

    The ratio is strictly increasing iff every consecutive increment of
    ``log_pdf1 - log_pdf0`` on the grid exceeds MLRP_STRICT_TOL.  The
    report also carries the density-crossing count, the refined crossing
    location when it is unique, the window as ``(lo, hi, n)``,
    and ``support_ok``: both log-densities finite over the whole window.

    A unique crossing is left unlocated (``crossing_location`` None) where
    either density sits on PDF_FLOOR, since there the floor, not the
    densities, made ``pdf0 - pdf1`` vanish (e.g. the run of exact zeros
    between two well-separated signals), and where the refinement stopped
    at the float spacing before the densities matched within
    CROSSING_MATCH_TOL.

    A pair scanned before, bit for bit, gets the report of that scan
    from the memo (see the module docstring), so each pair is scanned
    once per process.
    """
    return _memo(g0, g1, _exact_key(g0), _exact_key(g1))


check_admissible.cache_info = _memo.cache_info
check_admissible.cache_clear = _memo.cache_clear


def _unique_crossing(report: AdmissibilityReport) -> float:
    """The report's crossing, once it is unique and located."""
    lo, hi, _ = report.grid
    if report.crossing_count == 0:
        raise NoCrossingError(f"density difference has no sign change on [{lo}, {hi}]")
    if report.crossing_count > 1:
        raise AdmissibilityError(
            f"density difference changes sign {report.crossing_count} times; "
            "normalization needs a unique crossing"
        )
    if report.crossing_location is None:
        raise AdmissibilityError(
            f"crossing unresolved: the densities cross on the pdf floor {PDF_FLOOR:g}, "
            f"or crossing refinement stalled before |pdf0 - pdf1| <= {CROSSING_MATCH_TOL:g}"
        )
    return report.crossing_location


def _admissible_crossing(report: AdmissibilityReport) -> float:
    """The crossing of an admissible report; the refusal ``normalize_pair``
    and ``SignalPair`` give any other."""
    if not (report.mlrp_ok and report.support_ok):
        raise AdmissibilityError(
            f"pair not admissible: strictly increasing likelihood ratio {report.mlrp_ok} "
            f"(min slope {report.min_ratio_slope:.3e}), finite log-densities {report.support_ok}"
        )
    return _unique_crossing(report)


def find_crossing(g0: ScalarDistribution, g1: ScalarDistribution) -> float:
    """Locate t* with pdf0(t*) == pdf1(t*) from the admissibility scan.

    Raises NoCrossingError when the density difference never changes sign
    in the scan window (non-admissible pair, or a crossing beyond the
    window), and AdmissibilityError when it changes sign more than once,
    or the scan left its crossing unlocated (on the pdf floor, or
    missing CROSSING_MATCH_TOL).
    """
    return _unique_crossing(check_admissible(g0, g1))


def normalize_pair(g0: ScalarDistribution, g1: ScalarDistribution) -> SignalPair:
    """Translate both distributions so the density crossing sits at 0.

    Succeeds exactly when ``check_admissible`` says the pair is
    admissible, and takes the crossing from that scan, so a caller that
    scanned the pair first finds it in the memo.  The translated pair is
    a new memo key, and ``SignalPair`` scans it once; the scan is
    translation invariant (its window follows the pair), so it passes.
    Idempotent: normalizing a normalized pair records shift 0.
    """
    t_star = _admissible_crossing(check_admissible(g0, g1))
    return SignalPair(g0=g0.shifted(-t_star), g1=g1.shifted(-t_star), shift=t_star)

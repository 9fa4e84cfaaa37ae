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
from the scan.  A unique crossing is bisected from its bracket without
re-evaluating the ends, by ``_bisect``, which the accuracy optimizer's
one-row slope bisection shares: it evaluates the density difference on
the midpoints of 8 levels at a time and walks them in Python floats.
``find_crossing`` and ``normalize_pair`` read the report.  Smoothness,
the other hypothesis of the model, is not scanned for: every catalog
distribution is C-infinity by construction.

The scan is a pure function of two frozen distributions, so
``check_admissible`` keeps the reports of the SCAN_MEMO_SIZE (256) pairs
it was most recently asked about, least recently used dropped first: a
pair is scanned once per process however many commands ask about it.  The memo is keyed
bit for bit, on the type and exact value (``float.hex``) of every
parameter and weight, so pairs that are only ``==`` (``-0.0`` and
``0.0``, ``0`` and ``0.0``) never share an entry.  A translated pair is a
new key and is scanned again, although its verdict is the same.
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
# density crossings for bisection
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

#: a bisection stops once its bracket is this narrow: the density-crossing
#: bisection here and the accuracy optimizer's slope bisection
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
    """A signal pair normalized so its densities cross at 0.

    Every instance is normalized: construction raises AdmissibilityError
    unless ``pdf0(0)`` and ``pdf1(0)`` agree within NORMALIZED_DENSITY_TOL
    above the pdf floor, so the model code that takes a pair checks it no
    further.  Build one with ``normalize_pair``, or directly from a pair
    that already crosses at 0.  ``shift`` records the translation applied
    so the density crossing moved to 0 (the original crossing location).
    """

    g0: ScalarDistribution
    g1: ScalarDistribution
    shift: float = 0.0

    def __post_init__(self):
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


def _bisect(f, a: float, b: float, falls: bool, depth: int = 8):
    """Halve the bracket ``[a, b]`` of a sign change of ``f``; ``falls`` is
    whether ``f`` is positive at ``a``.  Returns ``(point, width, steps)``:
    the final bracket's midpoint, or an exact zero of ``f``; the final
    bracket's width; the halvings made.

    The steps are those of a loop that evaluates ``f`` at one midpoint
    per level: stop once ``b - a <= BISECT_WIDTH`` or the midpoint is not
    strictly inside the bracket, return an exact zero, move ``a`` when
    ``(f > 0) == falls`` and ``b`` otherwise (nan included).  But ``f``,
    which must take an array, is called once per ``depth`` levels, on the
    2**depth - 1 midpoints of those levels in ascending order (see
    ``_midpoints``), since numpy's per-call overhead, not arithmetic,
    prices a cheap function on 255 points or on one; the walk down those
    levels then runs in Python floats.  A degenerate bracket makes no
    call.
    """
    steps, lo, hi = 0, 0, 0  # [lo, hi]: the bracket as indices into the round's points
    while True:
        m = 0.5 * (a + b)
        if not (b - a > BISECT_WIDTH and a < m < b):
            return m, b - a, steps
        if hi - lo < 2:  # the round's levels are walked: evaluate the next ones
            fs = f(_midpoints(a, b, depth)).tolist()
            lo, hi = 0, 2**depth
        mid = (lo + hi) // 2
        fm = fs[mid - 1]
        steps += 1
        if fm == 0.0:
            return m, 0.0, steps
        if (fm > 0.0) == falls:
            a, lo = m, mid
        else:
            b, hi = m, mid


def _midpoints(a: float, b: float, depth: int) -> np.ndarray:
    """The midpoints of the first ``depth`` levels of ``[a, b]``'s bisection
    tree, in ascending order: one strided pass per level, each point the
    ``0.5 * (lo + hi)`` of its own bracket, so these are the floats a
    one-level loop meets on any path down the tree."""
    size = 2**depth
    points = np.empty(size + 1)
    points[0], points[size] = a, b
    for level in range(depth):
        s = size >> level
        points[s // 2 :: s] = 0.5 * (points[:-1:s] + points[s::s])
    return points[1:-1]


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
        t = _bisect(lambda u: g0.pdf(u) - g1.pdf(u), *brackets[0])[0]
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


class _ScanKey:
    """A distribution as a key of the scan memo: equal to another exactly
    when their ``_exact_key`` spellings are."""

    __slots__ = ("dist", "key")

    def __init__(self, dist: ScalarDistribution):
        self.dist = dist
        self.key = _exact_key(dist)

    def __eq__(self, other) -> bool:
        return self.key == other.key

    def __hash__(self) -> int:
        return hash(self.key)


@functools.lru_cache(maxsize=SCAN_MEMO_SIZE)
def _memo(k0: _ScanKey, k1: _ScanKey) -> AdmissibilityReport:
    return _scan(k0.dist, k1.dist)


def check_admissible(g0: ScalarDistribution, g1: ScalarDistribution) -> AdmissibilityReport:
    """The admissibility scan: one pass over the pair's centred window.

    The ratio is strictly increasing iff every consecutive increment of
    ``log_pdf1 - log_pdf0`` on the grid exceeds MLRP_STRICT_TOL.  The
    report also carries the density-crossing count, the bisection-refined
    crossing location when it is unique, the window as ``(lo, hi, n)``,
    and ``support_ok``: both log-densities finite over the whole window.

    A unique crossing is left unlocated (``crossing_location`` None) where
    either density sits on PDF_FLOOR, since there the floor, not the
    densities, made ``pdf0 - pdf1`` vanish (e.g. the run of exact zeros
    between two well-separated signals), and where the bisection stopped
    at the float spacing before the densities matched within
    CROSSING_MATCH_TOL.

    A pair scanned before, bit for bit, gets the report of that scan
    from the memo (see the module docstring), so each pair is scanned
    once per process.
    """
    return _memo(_ScanKey(g0), _ScanKey(g1))


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
    scanned the pair first finds it in the memo.  The scan is translation
    invariant (its window follows the pair), so the translated pair is
    not scanned again.  Idempotent: normalizing a normalized pair records
    shift 0.
    """
    report = check_admissible(g0, g1)
    if not (report.mlrp_ok and report.support_ok):
        raise AdmissibilityError(
            f"cannot normalize: strictly increasing likelihood ratio {report.mlrp_ok} "
            f"(min slope {report.min_ratio_slope:.3e}), finite log-densities {report.support_ok}"
        )
    t_star = _unique_crossing(report)
    return SignalPair(g0=g0.shifted(-t_star), g1=g1.shifted(-t_star), shift=t_star)

"""Admissible signal pairs: likelihood-ratio checks and crossing normalization.

A pair of full-support signal distributions ``(g0, g1)`` drives the whole
model: ``g0`` is the signal law under non-compliance, ``g1`` under
compliance.  The pair is *admissible* when the likelihood ratio
``pdf1/pdf0`` is strictly increasing and the two densities cross exactly
once.  Admissible pairs are normalized by translating both distributions so
the density crossing sits at ``t = 0``; downstream formulas assume this.

All of it is checked numerically by one scan (``check_mlrp``) on a grid
whose window follows the pair: ``MLRP_GRID_N`` points on
``c + [MLRP_GRID_LO, MLRP_GRID_HI]``, where ``c`` is the midpoint of the
two location parameters (weight-averaged over components for a mixture).
The model is translation invariant, and so is the scan: moving both
distributions by ``c`` moves the window, and the crossing, by ``c``.  One
pass yields the log-ratio increments and the density-difference crossings,
each one bracket ``(a, b, falls)``: two adjacent grid points with a strict
sign flip, or ``a == b`` at an exact zero, with the sign before it read
from the scan.  A unique crossing is bisected from its bracket without
re-evaluating the ends; ``find_crossing``, ``normalize_pair`` and
``check_admissible`` read the report.

The monotone-ratio check runs on ``log_pdf`` differences: analytic
log-densities stay finite deep in the tails where the densities themselves
underflow, so the strictness test is not poisoned by the 1e-300 pdf floor.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .distributions import PDF_FLOOR, ScalarDistribution, derivative_consistency, CDF_PDF_TOL, PDF_PRIME_TOL
from .errors import AdmissibilityError, NoCrossingError

__all__ = [
    "MLRP_GRID_LO",
    "MLRP_GRID_HI",
    "MLRP_GRID_N",
    "MLRP_STRICT_TOL",
    "CROSSING_MATCH_TOL",
    "NORMALIZED_DENSITY_TOL",
    "AdmissibilityReport",
    "SignalPair",
    "check_mlrp",
    "find_crossing",
    "normalize_pair",
    "check_admissible",
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
#: |pdf0 - pdf1| at the refined crossing
CROSSING_MATCH_TOL = 1e-10
#: density agreement at 0 required of a normalized pair
NORMALIZED_DENSITY_TOL = 1e-9

_BISECT_WIDTH = 1e-12


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
    is None unless the crossing is unique and located above the pdf
    floor.  ``support_ok`` (both log-densities finite over the window)
    comes from the scan; ``smooth_ok`` is populated by
    ``check_admissible`` (the composite gate) and is None when only the
    scan ran.
    """

    mlrp_ok: bool
    crossing_count: int
    crossing_location: float | None
    min_ratio_slope: float
    grid: tuple[float, float, int]
    smooth_ok: bool | None = None
    support_ok: bool | None = None

    @property
    def admissible(self) -> bool:
        return (
            self.mlrp_ok
            and self.crossing_count == 1
            and self.crossing_location is not None
            and bool(self.smooth_ok)
            and bool(self.support_ok)
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
        lower = self.g0.cdf(arr) - self.g1.cdf(arr)
        upper = self.g1.sf(arr) - self.g0.sf(arr)
        out = np.where(arr <= 0.0, lower, upper)
        out = np.where(np.isinf(arr), 0.0, out)
        out = np.maximum(out, 0.0)
        return float(out) if arr.ndim == 0 else out


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


def _bisect(f, a: float, b: float, falls: bool) -> float:
    """Halve the bracket ``[a, b]`` of a sign change of ``f``, evaluating
    ``f`` only at midpoints strictly inside it; ``falls`` is whether ``f``
    is positive at ``a``.  A degenerate bracket ``a == b`` returns ``a``."""
    while b - a > _BISECT_WIDTH:
        m = 0.5 * (a + b)
        if m <= a or m >= b:
            break
        fm = f(m)
        if fm == 0.0:
            return m
        if (fm > 0.0) == falls:
            a = m
        else:
            b = m
    return 0.5 * (a + b)


def _ratio_scan(g0: ScalarDistribution, g1: ScalarDistribution, grid: np.ndarray):
    """``(mlrp_ok, increments)``: the increments of ``log_pdf1 - log_pdf0``
    on the grid, and whether each exceeds MLRP_STRICT_TOL."""
    # -inf - -inf is nan where both log-densities overflow; that fails the check
    with np.errstate(invalid="ignore"):
        increments = np.diff(g1.log_pdf(grid) - g0.log_pdf(grid))
    return bool(np.all(increments > MLRP_STRICT_TOL)), increments


def check_mlrp(g0: ScalarDistribution, g1: ScalarDistribution) -> AdmissibilityReport:
    """The admissibility scan: one pass over the pair's centred window.

    The ratio is strictly increasing iff every consecutive increment of
    ``log_pdf1 - log_pdf0`` on the grid exceeds MLRP_STRICT_TOL.  The
    report also carries the density-crossing count, the bisection-refined
    crossing location when it is unique, the window as ``(lo, hi, n)``,
    and ``support_ok``: both log-densities finite over the whole window.

    A crossing where either density sits on PDF_FLOOR is left unlocated
    (``crossing_location`` None): there the floor, not the densities,
    made ``pdf0 - pdf1`` vanish, e.g. the run of exact zeros between two
    well-separated signals.
    """
    grid = _scan_grid(g0, g1)
    mlrp_ok, increments = _ratio_scan(g0, g1, grid)
    min_slope = float(np.min(increments) / (grid[1] - grid[0]))

    diff = g0.pdf(grid) - g1.pdf(grid)
    brackets = _crossing_brackets(diff, grid)
    location = None
    if len(brackets) == 1:
        t = _bisect(lambda u: g0.pdf(u) - g1.pdf(u), *brackets[0])
        if min(g0.pdf(t), g1.pdf(t)) > PDF_FLOOR:
            location = t
    return AdmissibilityReport(
        mlrp_ok=mlrp_ok,
        crossing_count=len(brackets),
        crossing_location=location,
        min_ratio_slope=min_slope,
        grid=(float(grid[0]), float(grid[-1]), MLRP_GRID_N),
        # a non-finite log-density makes both increments next to it non-finite
        support_ok=bool(np.all(np.isfinite(increments))),
    )


def _unique_crossing(g0: ScalarDistribution, g1: ScalarDistribution, report: AdmissibilityReport) -> float:
    """The report's crossing, once it is unique and matches the densities."""
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
            f"the densities cross on the pdf floor {PDF_FLOOR:g}; crossing unresolved"
        )
    t_star = report.crossing_location
    mismatch = abs(g0.pdf(t_star) - g1.pdf(t_star))
    if mismatch > CROSSING_MATCH_TOL:
        raise AdmissibilityError(
            f"crossing refinement stalled: |pdf0 - pdf1| = {mismatch:.3e} at t* = {t_star}"
        )
    return t_star


def find_crossing(g0: ScalarDistribution, g1: ScalarDistribution) -> float:
    """Locate t* with pdf0(t*) == pdf1(t*) from the admissibility scan.

    Raises NoCrossingError when the density difference never changes sign
    in the scan window (non-admissible pair, or a crossing beyond the
    window), and AdmissibilityError when it changes sign more than once,
    only on the pdf floor, or the refined crossing misses
    CROSSING_MATCH_TOL.
    """
    return _unique_crossing(g0, g1, check_mlrp(g0, g1))


def normalize_pair(g0: ScalarDistribution, g1: ScalarDistribution) -> SignalPair:
    """Translate both distributions so the density crossing sits at 0.

    Requires the monotone-ratio check to pass and takes the crossing from
    the same scan; the monotone-ratio check alone, not the whole scan, is
    re-run on the translated pair (translation invariance, cheap insurance
    against a broken transform).  Idempotent: normalizing a normalized
    pair records shift 0.
    """
    report = check_mlrp(g0, g1)
    if not report.mlrp_ok:
        raise AdmissibilityError(
            "likelihood ratio is not strictly increasing "
            f"(min slope {report.min_ratio_slope:.3e}); cannot normalize"
        )
    t_star = _unique_crossing(g0, g1, report)
    g0n, g1n = g0.shifted(-t_star), g1.shifted(-t_star)
    if not _ratio_scan(g0n, g1n, _scan_grid(g0n, g1n))[0]:
        raise AdmissibilityError("monotone ratio lost under translation; numeric fault")
    return SignalPair(g0=g0n, g1=g1n, shift=t_star)


def check_admissible(g0: ScalarDistribution, g1: ScalarDistribution) -> AdmissibilityReport:
    """Composite gate: smoothness + full support + monotone ratio + unique crossing.

    Smoothness is the finite-difference self-consistency of each
    distribution at 17 probe points on the window centre +- 8; support
    and the rest come from the admissibility scan.
    """
    probes = _window_centre(g0, g1) + np.linspace(-8.0, 8.0, 17)
    smooth_ok = True
    for d in (g0, g1):
        cdf_err, pdf_err = derivative_consistency(d, probes)
        smooth_ok = smooth_ok and cdf_err < CDF_PDF_TOL and pdf_err < PDF_PRIME_TOL
    return replace(check_mlrp(g0, g1), smooth_ok=smooth_ok)

"""Admissibility scans, crossing detection, and pair normalization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from threshold_lab import (
    AdmissibilityError,
    NoCrossingError,
    SignalPair,
    check_admissible,
    check_mlrp,
    find_crossing,
    gumbel,
    logistic,
    mixture,
    normal,
    normalize_pair,
)
from threshold_lab.signals import _bisect, _crossing_brackets, _scan_grid
from conftest import suite_pair_specs

FINITE_GRID = np.linspace(-8.0, 8.0, 321)


def test_mlrp_examples():
    assert check_mlrp(normal(-1, 1), normal(1, 1)).mlrp_ok
    # log ratio of a unit-variance location pair is linear with slope 2a
    assert check_mlrp(normal(-1, 1), normal(1, 1)).min_ratio_slope == pytest.approx(2.0, abs=1e-9)
    assert not check_mlrp(normal(0, 1), normal(0, 4)).mlrp_ok  # quadratic log ratio
    assert not check_mlrp(logistic(0, 1), logistic(0, 1)).mlrp_ok  # constant ratio


def test_find_crossing_examples():
    assert find_crossing(normal(0, 1), normal(2, 1)) == pytest.approx(1.0, abs=1e-11)
    assert find_crossing(normal(-1, 1), normal(1, 1)) == pytest.approx(0.0, abs=1e-12)
    assert find_crossing(logistic(-0.5, 1), logistic(0.5, 1)) == pytest.approx(0.0, abs=1e-12)


def test_find_crossing_refinement_tolerance():
    g0, g1 = gumbel(0.0, 0.8), gumbel(0.4, 0.8)
    t_star = find_crossing(g0, g1)
    assert abs(g0.pdf(t_star) - g1.pdf(t_star)) < 1e-10


def test_no_crossing_raises():
    with pytest.raises(NoCrossingError):
        find_crossing(normal(0, 1), normal(0, 1))


@pytest.mark.filterwarnings("error")
def test_find_crossing_rejects_unresolved_crossings():
    """Two crossings, and a crossing whose bisection stops at the float
    spacing near 1e5 before the densities agree within CROSSING_MATCH_TOL."""
    with pytest.raises(AdmissibilityError, match="changes sign 2 times"):
        find_crossing(normal(0, 1), normal(0, 4))
    with pytest.raises(AdmissibilityError, match="crossing refinement stalled"):
        find_crossing(normal(1e5, 0.05), normal(1e5 + 0.015, 0.05))


def test_normalize_examples():
    pair = normalize_pair(normal(0, 1), normal(2, 1))
    assert pair.shift == pytest.approx(1.0, abs=1e-11)
    assert pair.g0.params[0] == pytest.approx(-1.0, abs=1e-11)
    assert pair.g1.params[0] == pytest.approx(1.0, abs=1e-11)

    already = normalize_pair(normal(-1, 1), normal(1, 1))
    assert already.shift == pytest.approx(0.0, abs=1e-12)

    with pytest.raises(AdmissibilityError):
        normalize_pair(normal(0, 1), normal(0, 4))


def test_normalize_idempotent():
    for _, g0, g1 in suite_pair_specs()[:8]:
        first = normalize_pair(g0, g1)
        second = normalize_pair(first.g0, first.g1)
        assert abs(second.shift) < 1e-9


def test_check_admissible_examples():
    assert check_admissible(normal(-1, 1), normal(1, 1)).admissible
    assert check_admissible(gumbel(0, 1), gumbel(1, 1)).admissible
    report = check_admissible(normal(0, 1), normal(0, 1))
    assert not report.admissible
    assert not report.mlrp_ok


def test_admissible_implies_unique_crossing():
    for name, g0, g1 in suite_pair_specs():
        report = check_admissible(g0, g1)
        assert report.admissible, name
        assert report.crossing_count == 1, name


def test_normalized_pair_density_match_and_ordering():
    for name, g0, g1 in suite_pair_specs():
        pair = normalize_pair(g0, g1)
        assert abs(pair.g0.pdf(0.0) - pair.g1.pdf(0.0)) < 1e-9, name
        # non-complier density dominates left of the crossing, complier right
        assert pair.g0.pdf(-0.5) > pair.g1.pdf(-0.5), name
        assert pair.g1.pdf(0.5) > pair.g0.pdf(0.5), name


def test_dominance_and_gap_peak():
    """cdf0 > cdf1 pointwise; the gap peaks at the crossing."""
    for name, g0, g1 in suite_pair_specs():
        pair = normalize_pair(g0, g1)
        gap = pair.gap(FINITE_GRID)
        assert np.all(gap >= 0.0), name
        center = np.abs(FINITE_GRID) <= 4.0  # away from representability limits
        assert np.all(gap[center] > 0.0), name
        assert float(np.max(gap)) <= pair.gap(0.0) + 1e-12, name


def test_gap_derivative_sign_change_once():
    """d(gap)/dt = pdf0 - pdf1 changes sign exactly once, at 0."""
    for name, g0, g1 in suite_pair_specs():
        pair = normalize_pair(g0, g1)
        diff = pair.g0.pdf(FINITE_GRID) - pair.g1.pdf(FINITE_GRID)
        signs = np.sign(diff[np.abs(diff) > 1e-300])
        flips = int(np.sum(signs[:-1] != signs[1:]))
        assert flips == 1, name


def test_gap_infinite_endpoints():
    pair = normalize_pair(normal(-1, 1), normal(1, 1))
    assert pair.gap(float("inf")) == 0.0
    assert pair.gap(float("-inf")) == 0.0


def test_signalpair_validates_normalized_flag():
    with pytest.raises(AdmissibilityError):
        SignalPair(g0=normal(0, 1), g1=normal(2, 1), shift=0.0)
    # densities that agree at 0 only because both sit on the pdf floor
    with pytest.raises(AdmissibilityError, match="pdf floor"):
        SignalPair(g0=normal(-40, 1), g1=normal(40, 1), shift=0.0)
    # there is no un-normalized pair: a normalized pair moved off its
    # crossing is a raw container again, and is rejected
    pair = normalize_pair(normal(0, 1), normal(2, 1))
    with pytest.raises(AdmissibilityError):
        SignalPair(g0=pair.g0.shifted(1.0), g1=pair.g1.shifted(1.0), shift=pair.shift)


def test_mlrp_grid_shape_in_report():
    report = check_mlrp(normal(-1, 1), normal(1, 1))
    assert report.grid == (-12.0, 12.0, 2001)
    # the window is centred between the two locations
    assert check_mlrp(normal(99, 1), normal(101, 1)).grid == (88.0, 112.0, 2001)


def test_normalize_translated_examples():
    """Pairs far outside [-12, 12] normalize like their translates at 0."""
    pair = normalize_pair(normal(100, 1), normal(102, 1))
    assert pair.shift == pytest.approx(101.0, abs=1e-9)
    assert pair.g0.params == pytest.approx((-1.0, 1.0), abs=1e-9)
    pair = normalize_pair(normal(-20, 1), normal(-18, 1))
    assert pair.shift == pytest.approx(-19.0, abs=1e-9)
    assert pair.g1.params == pytest.approx((1.0, 1.0), abs=1e-9)


def _flat_params(d):
    """Location, scale and weights of a distribution, components flattened."""
    if d.kind == "mixture":
        return [x for w, comp in d.components for x in (w, *_flat_params(comp))]
    return list(d.params)


@settings(max_examples=60, deadline=None)
@given(index=st.integers(0, len(suite_pair_specs()) - 1), c=st.floats(-200.0, 200.0))
def test_translation_invariance(index, c):
    """Moving both signals by c moves the shift by c and nothing else."""
    _, g0, g1 = suite_pair_specs()[index]
    h0, h1 = g0.shifted(c), g1.shifted(c)
    base, moved = normalize_pair(g0, g1), normalize_pair(h0, h1)
    assert abs(moved.shift - (base.shift + c)) <= 1e-9 * (1.0 + abs(c))
    for d, e in ((base.g0, moved.g0), (base.g1, moved.g1)):
        np.testing.assert_allclose(_flat_params(e), _flat_params(d), rtol=0.0, atol=1e-9)
    before, after = check_admissible(g0, g1), check_admissible(h0, h1)
    assert after.admissible == before.admissible
    assert after.crossing_count == before.crossing_count


def _looped_brackets(diff, grid):
    """The per-grid-point loop that ``_crossing_brackets`` replaced, as
    ``(a, b, falls)`` items in grid order."""
    sign = np.sign(diff)
    nonzero = np.nonzero(sign)[0]
    found = []
    for i in np.nonzero(sign == 0)[0]:
        left = sign[:i][sign[:i] != 0]
        right = sign[i + 1 :][sign[i + 1 :] != 0]
        if left.size and right.size and left[-1] != right[0]:
            found.append((float(grid[i]), float(grid[i]), bool(left[-1] > 0)))
    for j in range(nonzero.size - 1):
        a, b = nonzero[j], nonzero[j + 1]
        if sign[a] != sign[b] and b == a + 1:
            found.append((float(grid[a]), float(grid[b]), bool(sign[a] > 0)))
    return sorted(found)


def test_crossing_brackets_match_loop():
    for name, g0, g1 in suite_pair_specs():
        grid = _scan_grid(g0, g1)
        diff = g0.pdf(grid) - g1.pdf(grid)
        assert _crossing_brackets(diff, grid) == _looped_brackets(diff, grid), name
    grid = np.arange(8.0)
    for diff in ([1, 0, -1, -1, 0, 2, 2, 3], [0, 0, 1, -1, 1, 0, 1, 0], [1, 0, 0, 1, -1, 0, -1, 0],
                 [-1] * 8, [0] * 8, [1, -1, 0, 1, 0, -1, -1, 1]):
        diff = np.array(diff, dtype=float)
        assert _crossing_brackets(diff, grid) == _looped_brackets(diff, grid), diff
    # a run of exact zeros between opposite signs is one crossing, at its first zero
    zero_run = np.array([2.0, 1.0, 0.0, 0.0, 0.0, -1.0, -2.0, -3.0])
    assert _crossing_brackets(zero_run, grid) == [(2.0, 2.0, True)]
    assert len(_looped_brackets(zero_run, grid)) == 3


def test_bisect_evaluates_only_inside_its_bracket():
    """The bracket's ends and sign come from the scan: ``_bisect`` calls
    ``f`` only at midpoints strictly inside the current bracket, and a
    degenerate bracket returns its point without a call."""
    calls = []

    def f(t):
        calls.append(t)
        return 0.3 - t

    t = _bisect(f, 0.0, 1.0, True)
    assert abs(t - 0.3) <= 1e-12
    lo, hi = 0.0, 1.0
    for m in calls:
        assert lo < m < hi and m == 0.5 * (lo + hi)
        lo, hi = (m, hi) if 0.3 - m > 0.0 else (lo, m)
    calls.clear()
    assert _bisect(f, 0.25, 0.25, False) == 0.25
    assert calls == []


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_support_needs_finite_log_density():
    """A gumbel left tail whose log-density overflows inside the window.
    The non-finite arithmetic there is expected and raises no warning."""
    report = check_admissible(gumbel(0, 0.01), gumbel(0.005, 0.01))
    assert report.support_ok is False
    assert report.mlrp_ok is False
    assert not report.admissible
    assert check_admissible(normal(100, 1), normal(102, 1)).support_ok


@pytest.mark.parametrize(
    "g0, g1",
    [(normal(0, 1), normal(80, 1)), (normal(0, 0.1), normal(10, 0.1)), (normal(0, 0.1), normal(7.45, 0.1))],
    ids=["zero-run", "zero-run-narrow", "one-floored-point"],
)
def test_crossing_on_pdf_floor_is_unresolved(g0, g1):
    """Between well-separated signals both densities sit on the 1e-300 floor,
    so pdf0 - pdf1 is exactly 0 there without a crossing; the scan must not
    take that for one (the true crossing of the first pair is at 40)."""
    report = check_admissible(g0, g1)
    assert report.crossing_count == 1
    assert report.crossing_location is None
    assert not report.admissible
    with pytest.raises(AdmissibilityError, match="pdf floor"):
        normalize_pair(g0, g1)
    with pytest.raises(AdmissibilityError, match="pdf floor"):
        find_crossing(g0, g1)

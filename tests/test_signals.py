"""Admissibility scans, crossing detection, and pair normalization."""

from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from threshold_lab import (
    AdmissibilityError,
    NoCrossingError,
    SignalPair,
    check_admissible,
    find_crossing,
    gumbel,
    logistic,
    mixture,
    normal,
    normalize_pair,
)
from threshold_lab.distributions import ScalarDistribution
from threshold_lab.signals import (
    BISECT_WIDTH,
    CROSSING_MATCH_TOL,
    SCAN_MEMO_SIZE,
    _crossing_brackets,
    _root,
    _scan,
    _scan_grid,
)
from conftest import suite_pair_specs

FINITE_GRID = np.linspace(-8.0, 8.0, 321)


def test_mlrp_examples():
    assert check_admissible(normal(-1, 1), normal(1, 1)).mlrp_ok
    # log ratio of a unit-variance location pair is linear with slope 2a
    assert check_admissible(normal(-1, 1), normal(1, 1)).min_ratio_slope == pytest.approx(2.0, abs=1e-9)
    assert not check_admissible(normal(0, 1), normal(0, 4)).mlrp_ok  # quadratic log ratio
    assert not check_admissible(logistic(0, 1), logistic(0, 1)).mlrp_ok  # constant ratio


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
    """Two crossings, and a crossing whose refinement stops at the float
    spacing near 1e5 before the densities agree within CROSSING_MATCH_TOL."""
    with pytest.raises(AdmissibilityError, match="changes sign 2 times"):
        find_crossing(normal(0, 1), normal(0, 4))
    with pytest.raises(AdmissibilityError, match="crossing refinement stalled"):
        find_crossing(normal(1e5, 0.05), normal(1e5 + 0.015, 0.05))
    # the scan leaves that crossing unlocated, so the pair is not admissible
    report = check_admissible(normal(1e5, 0.05), normal(1e5 + 0.015, 0.05))
    assert report.crossing_count == 1 and report.crossing_location is None
    assert not report.admissible


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


@pytest.mark.parametrize(
    "g0, g1, words",
    [
        (normal(0, 1), normal(0, 4), "strictly increasing likelihood ratio False"),
        (normal(-1, 0.1), gumbel(0, 12.5 / 709.9), "finite log-densities False"),
        (normal(-40, 1), normal(40, 1), "pdf floor"),
        (normal(1e5, 0.05), normal(1e5 + 0.015, 0.05), "crossing refinement stalled"),
    ],
    ids=["ratio", "support", "pdf-floor", "stalled"],
)
def test_signalpair_refuses_as_normalize_pair(g0, g1, words):
    """A pair the scan does not pass is no SignalPair, and construction
    refuses it with normalize_pair's message, word for word."""
    with pytest.raises(AdmissibilityError, match=words) as raw:
        normalize_pair(g0, g1)
    with pytest.raises(AdmissibilityError) as built:
        SignalPair(g0=g0, g1=g1)
    assert str(built.value) == str(raw.value)


def test_mlrp_grid_shape_in_report():
    report = check_admissible(normal(-1, 1), normal(1, 1))
    assert report.grid == (-12.0, 12.0, 2001)
    # the window is centred between the two locations
    assert check_admissible(normal(99, 1), normal(101, 1)).grid == (88.0, 112.0, 2001)


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


@settings(max_examples=200, deadline=None)
@given(index=st.integers(0, len(suite_pair_specs()) - 1), a=st.floats(-1e3, 1e3), s=st.floats(1e-2, 1e2))
def test_admissible_iff_normalizable(index, a, s):
    """On every affine image a + s * (g0, g1) of a suite pair, the scan's
    verdict is normalization's: ``check_admissible`` says admissible
    exactly when ``normalize_pair`` succeeds."""
    _, g0, g1 = suite_pair_specs()[index]
    h0, h1 = g0.affine(a, s), g1.affine(a, s)
    try:
        normalize_pair(h0, h1)
    except AdmissibilityError:
        normalized = False
    else:
        normalized = True
    assert check_admissible(h0, h1).admissible == normalized


@pytest.mark.parametrize("index", range(len(suite_pair_specs())))
@settings(max_examples=10, deadline=None)
@given(c=st.floats(-1e3, 1e3))
def test_normalized_pair_keeps_monotone_ratio(index, c):
    """The pair normalize_pair returns, from any catalog pair moved by up
    to +-1e3, passes the monotone-ratio check of the scan on its own
    window, the check ``SignalPair`` runs when normalize_pair builds it."""
    _, g0, g1 = suite_pair_specs()[index]
    pair = normalize_pair(g0.shifted(c), g1.shifted(c))
    assert check_admissible(pair.g0, pair.g1).mlrp_ok


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


def _one_level_bisect(f, a, b, falls):
    """Reference: the bisection that ``_root`` replaced, one midpoint per
    call of f; returns the final bracket's midpoint (or an exact zero), its
    width and the halvings made."""
    steps = 0
    while b - a > BISECT_WIDTH:
        m = 0.5 * (a + b)
        if m <= a or m >= b:
            break
        fm = float(f(m))
        steps += 1
        if fm == 0.0:
            return m, 0.0, steps
        if (fm > 0.0) == falls:
            a = m
        else:
            b = m
    return 0.5 * (a + b), b - a, steps


def _bisect_cases(nan=True):
    """(f, a, b, falls) cases: roots inside grid cells and wide brackets,
    both signs, nan stretches on either side of the root (unless ``nan``
    is False), dyadic roots at every bisection level, and brackets too
    narrow to split."""
    rng = np.random.default_rng(2)
    cases = []
    brackets = [(0.0, 1.0), (-10.0, 10.0), (1e5 - 0.012, 1e5 + 0.012)]
    brackets += [(x, x + 0.012) for x in rng.uniform(-12.0, 12.0, 6)]
    for a, b in brackets:
        w = (b - a) / 64.0
        for c in rng.uniform(a, b, 3):
            for falls in (True, False):
                sign = 1.0 if falls else -1.0
                cases.append((lambda t, c=c, s=sign: s * (c - np.asarray(t)), a, b, falls))
                for side in (1.0, -1.0) if nan else ():  # nan on the right, then on the left of the root
                    def nan_side(t, c=c, s=sign, side=side, w=w):
                        t = np.asarray(t)
                        away = side * (t - c)
                        return np.where((away > w) & (away < 8 * w), np.nan, s * (c - t))

                    cases.append((nan_side, a, b, falls))
    for level in range(1, 42):
        # roots at a midpoint of this level: in [0, 1] the dyadic
        # j / 2**level, j odd; in a grid cell whatever float bisection
        # meets there
        c = (2 * int(rng.integers(0, 2 ** (level - 1))) + 1) / 2.0**level
        a, b = brackets[3 + level % 6]
        lo, hi = a, b
        for right in rng.integers(0, 2, level - 1):
            m = 0.5 * (lo + hi)
            lo, hi = (m, hi) if right else (lo, m)
        for root, lo, hi in ((c, 0.0, 1.0), (0.5 * (lo + hi), a, b)):
            for falls in (True, False):
                cases.append((lambda t, c=root, s=1.0 if falls else -1.0: s * (c - np.asarray(t)), lo, hi, falls))
    one_ulp = float(np.nextafter(1e5, np.inf))
    for a, b in ((1e5, one_ulp), (0.3, 0.3 + BISECT_WIDTH / 2), (0.3, 0.3 + 2 * BISECT_WIDTH), (0.25, 0.25)):
        cases.append((lambda t, c=0.5 * (a + b): c - np.asarray(t), a, b, True))
    return cases


def _falling(f, falls):
    """f oriented to fall through its sign change, as ``_root`` takes it."""
    return f if falls else (lambda t: -f(t))


def _case_rows(cases):
    """The cases as rows of one ``_root`` call: ``(f, a, b, fa, fb, fs)``,
    ``f`` evaluating row i's own function at point i, ``fs`` the functions."""
    fs = [_falling(f, falls) for f, _, _, falls in cases]
    a = np.array([c[1] for c in cases])
    b = np.array([c[2] for c in cases])
    fa = np.array([float(g(x)) for g, x in zip(fs, a)])
    fb = np.array([float(g(x)) for g, x in zip(fs, b)])
    return (lambda x: np.array([float(g(v)) for g, v in zip(fs, x)])), a, b, fa, fb, fs


def test_root_evaluates_only_inside_its_bracket():
    """Replayed row by row from its ``f`` calls, every point a row steps on
    is strictly inside the row's bracket at that step; a positive value
    moves ``a`` and any other moves ``b``, so the final bracket keeps the
    sign change (or closes on an exact zero) and meets the stopping rule,
    and the point is one of its ends or its midpoint."""
    f, a, b, fa, fb, fs = _case_rows(_bisect_cases())
    calls = []
    point, width, steps = _root(lambda x: calls.append(x.copy()) or f(x), a, b, fa, fb)
    assert len(calls) == steps.max() > 0
    for i, g in enumerate(fs):
        lo, hi = a[i], b[i]
        for x in calls[: steps[i]]:
            assert lo < x[i] < hi, i
            v = float(g(x[i]))
            lo, hi = (x[i] if v >= 0.0 else lo), (hi if v > 0.0 else x[i])
        assert width[i] == hi - lo and point[i] in (lo, hi, 0.5 * (lo + hi)), i
        if steps[i] and lo < hi:
            assert float(g(lo)) > 0.0 and not float(g(hi)) >= 0.0, i
            assert hi - lo <= BISECT_WIDTH or not lo < 0.5 * (lo + hi) < hi, i


def test_root_edge_cases():
    """An exact zero ends the row there with width 0; nan moves ``b``
    without widening; brackets of one float spacing or under BISECT_WIDTH,
    a degenerate bracket on an exact grid zero and ends without a falling
    sign change make no call."""
    assert [v.tolist() for v in _root(lambda x: 0.5 - x, [0.0], [1.0], [0.5], [-0.5])] == [[0.5], [0.0], [1]]
    point, width, steps = _root(lambda x: np.full_like(x, np.nan), [0.3], [0.7], [1.0], [-1.0])
    assert 0.3 < point[0] < 0.3 + BISECT_WIDTH and 0.0 < width[0] <= BISECT_WIDTH and steps[0] > 0

    def never(x):
        raise AssertionError(f"f called at {x}")

    one_ulp = float(np.nextafter(1e5, np.inf))
    a = [1e5, 0.3, 0.25, 0.1, 0.1, 0.1]
    b = [one_ulp, 0.3 + BISECT_WIDTH / 2, 0.25, 0.2, 0.2, 0.2]
    fa = [1.0, 1.0, 0.0, -1.0, 1.0, 1.0]
    fb = [-2.0, -0.5, 0.0, 2.0, 1.0, 0.0]
    point, width, steps = _root(never, a, b, fa, fb)
    assert point.tolist() == [1e5, 0.3 + BISECT_WIDTH / 2, 0.25, 0.1, 0.5 * (0.1 + 0.2), 0.2]
    assert width.tolist() == np.subtract(b, a).tolist()
    assert steps.tolist() == [0] * 6


def test_root_near_one_level_loop():
    """Each case's point is within BISECT_WIDTH of the bisection loop's, or
    within one float spacing where the spacing is wider.  The cases have
    no nan: a nan stretch beside the root is a second place where a
    bracket can close, and the two methods need not close on the same
    one."""
    for i, (f, a, b, falls) in enumerate(_bisect_cases(nan=False)):
        g = _falling(f, falls)
        point = _root(g, [a], [b], [float(g(a))], [float(g(b))])[0][0]
        want = _one_level_bisect(f, a, b, falls)[0]
        assert abs(point - want) <= max(BISECT_WIDTH, abs(np.spacing(want))), (i, a, b, falls, point, want)


_ROW = st.tuples(
    st.floats(-5.0, 5.0),  # the root
    st.floats(1e-14, 1.0),  # its distance from a
    st.floats(1e-14, 1.0),  # its distance from b
    st.floats(0.1, 20.0),  # the curvature
    st.floats(1e-3, 1e3),  # the scale
    st.booleans(),  # a nan stretch right of the root
)


@settings(max_examples=100, deadline=None)
@given(rows=st.lists(_ROW, min_size=2, max_size=8), i=st.integers(0, 7))
def test_root_row_alone_is_the_row_among_many(rows, i):
    """A row takes the same steps and ends on the same floats, bit for bit,
    alone or among other rows."""
    i %= len(rows)
    c, da, db, k, s, nan = (np.array(v) for v in zip(*rows))

    def f(x, at=slice(None)):
        v = s[at] * np.expm1(k[at] * (c[at] - x))
        return np.where(nan[at] & (x > c[at] + 0.1 * db[at]) & (x < c[at] + 0.5 * db[at]), np.nan, v)

    a, b = c - da, c + db
    everyone = _root(f, a, b, f(a), f(b))
    at = [i]
    alone = _root(lambda x: f(x, at), a[at], b[at], f(a[at], at), f(b[at], at))
    for got, want in zip(alone, everyone):
        assert got.tobytes() == want[at].tobytes()


@pytest.mark.parametrize("index", range(len(suite_pair_specs())))
@settings(max_examples=20, deadline=None)
@given(a=st.floats(-1e3, 1e3), s=st.floats(1e-2, 1e2))
@example(a=0.0, s=1.0)  # the suite pair itself
def test_scan_crossing_matches_one_level_loop(index, a, s):
    """The scan's located crossing of every suite pair, and of the affine
    images ``test_admissible_iff_normalizable`` draws, is within
    BISECT_WIDTH of where the bisection loop puts it on the scan's
    bracket, or within one float spacing where the spacing is wider."""
    _, g0, g1 = suite_pair_specs()[index]
    h0, h1 = g0.affine(a, s), g1.affine(a, s)
    t = check_admissible(h0, h1).crossing_location
    if t is not None:
        grid = _scan_grid(h0, h1)
        (lo, hi, falls), = _crossing_brackets(h0.pdf(grid) - h1.pdf(grid), grid)
        want = _one_level_bisect(lambda u: h0.pdf(u) - h1.pdf(u), lo, hi, falls)[0]
        assert abs(t - want) <= max(BISECT_WIDTH, abs(np.spacing(want)))


@pytest.mark.parametrize("s", [0.0117, 0.005])
def test_narrow_mixture_keeps_its_crossing(s):
    """Suite pair 19 scaled by s about 0: the finder ends on the crossing,
    where the densities agree within CROSSING_MATCH_TOL, so the pair is
    admissible.  A bisection's midpoint can lie up to 5e-13 from the
    root, where at s = 0.0117 the densities differ by 3.5e-10."""
    _, g0, g1 = suite_pair_specs()[19]
    h0, h1 = g0.affine(0.0, s), g1.affine(0.0, s)
    report = check_admissible(h0, h1)
    assert report.admissible
    t = report.crossing_location
    assert abs(h0.pdf(t) - h1.pdf(t)) <= CROSSING_MATCH_TOL
    assert normalize_pair(h0, h1).shift == t


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_support_needs_finite_log_density():
    """A gumbel left tail whose log-density overflows inside the window.
    The non-finite arithmetic there is expected and raises no warning."""
    report = check_admissible(gumbel(0, 0.01), gumbel(0.005, 0.01))
    assert report.support_ok is False
    assert report.mlrp_ok is False
    assert not report.admissible
    assert check_admissible(normal(100, 1), normal(102, 1)).support_ok
    # a gumbel log-density that overflows at the window's first point only:
    # the ratio still increases and the crossing is located, but without
    # full support the pair is neither admissible nor normalized
    g0, g1 = normal(-1, 0.1), gumbel(0, 12.5 / 709.9)
    report = check_admissible(g0, g1)
    assert report.mlrp_ok and report.crossing_location is not None
    assert report.support_ok is False and not report.admissible
    with pytest.raises(AdmissibilityError, match="finite log-densities False"):
        normalize_pair(g0, g1)


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


def _report_bits(report):
    """A report's fields with each float as its ``float.hex``: equal for two
    reports exactly when they agree bit for bit."""

    def spell(x):
        if isinstance(x, tuple):
            return tuple(spell(v) for v in x)
        return (type(x).__name__, x.hex() if isinstance(x, float) else x)

    return {f.name: spell(getattr(report, f.name)) for f in fields(report)}


def _assert_memo_hit_is_the_scan(h0, h1):
    check_admissible.cache_clear()
    miss = check_admissible(h0, h1)
    hit = check_admissible(replace(h0), replace(h1))  # copies, not the same objects
    assert (check_admissible.cache_info().hits, check_admissible.cache_info().misses) == (1, 1)
    assert _report_bits(hit) == _report_bits(miss) == _report_bits(_scan(h0, h1))
    return hit


@settings(max_examples=200, deadline=None)
@given(index=st.integers(0, len(suite_pair_specs()) - 1), a=st.floats(-1e3, 1e3), s=st.floats(1e-2, 1e2))
def test_memo_hit_is_the_scan(index, a, s):
    """On the suite pairs and the affine images
    ``test_admissible_iff_normalizable`` draws, the memo's hit is the
    report of the scan it skips, every float bit for bit."""
    _, g0, g1 = suite_pair_specs()[index]
    _assert_memo_hit_is_the_scan(g0.affine(a, s), g1.affine(a, s))


def test_memo_hit_is_the_scan_without_a_location():
    """The same on a pair whose crossing lies on the pdf floor, so that its
    report's ``crossing_location`` is None."""
    assert _assert_memo_hit_is_the_scan(normal(0, 1), normal(80, 1)).crossing_location is None


@pytest.mark.parametrize(
    "x, y",
    [(-0.0, 0.0), (0, 0.0), (np.float32(0.1), 0.1)],
    ids=["signed-zero", "int-zero", "float32"],
)
def test_memo_keeps_equal_pairs_apart(x, y):
    """Locations that are ``==`` or spelled alike by ``repr`` under numpy < 2,
    but not the same number, take one memo entry each against one partner."""
    partner = normal(2.0, 1.0)
    for loc in (x, y):
        check_admissible(ScalarDistribution("normal", (loc, 1.0)), partner)
    assert check_admissible.cache_info().currsize == 2


def test_memo_is_bounded():
    """The memo keeps the SCAN_MEMO_SIZE most recent pairs: one more pair
    drops the least recently used, which is then scanned again."""
    partner = normal(2.0, 1.0)
    locs = [0.001 * k for k in range(SCAN_MEMO_SIZE + 1)]
    for loc in locs:
        check_admissible(normal(loc, 1.0), partner)
    assert check_admissible.cache_info().currsize == SCAN_MEMO_SIZE
    check_admissible(normal(locs[-1], 1.0), partner)
    assert check_admissible.cache_info().hits == 1
    check_admissible(normal(locs[0], 1.0), partner)
    assert check_admissible.cache_info().misses == SCAN_MEMO_SIZE + 2


def test_memo_hit_refuses_as_the_scan_did():
    """An inadmissible pair raises the same AdmissibilityError text from
    ``normalize_pair`` on a memo hit as on the miss before it."""
    messages = []
    for _ in range(2):
        with pytest.raises(AdmissibilityError) as err:
            normalize_pair(normal(0, 1), normal(0, 4))
        messages.append(str(err.value))
    assert check_admissible.cache_info().hits == 1
    assert messages[0] == messages[1]
    assert "strictly increasing likelihood ratio False" in messages[0]

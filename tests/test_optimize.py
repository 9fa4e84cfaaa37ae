"""Both optima and the coincidence verdict, checked against brute oracles."""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import DELTA0, FOC0
from threshold_lab import (
    ModelConfig,
    ParameterBox,
    SignalPair,
    VerificationFailedError,
    accuracy_optimal,
    accuracy_thresholds,
    compliance_optimal,
    deu_pos,
    equivalence_test,
    equivalence_verdict,
    eu_pos,
    gumbel,
    location_family,
    logistic,
    mixture,
    normal,
    prevalence_pos,
)
from threshold_lab.optimize import BISECT_WIDTH, SEARCH_HI, SEARCH_LO, SEARCH_N, _refine

INF = float("inf")


def brute_accuracy_argmax(model, lo=-10.0, hi=10.0, n=200_001):
    """Independent oracle: dense scan of the payoff, no refinement path shared."""
    ts = np.linspace(lo, hi, n)
    values = eu_pos(model, ts)
    i = int(np.argmax(values))
    return float(ts[i]), float(values[i])


def test_compliance_closed_form(std_model):
    res = compliance_optimal(std_model)
    assert res.threshold == 0.0
    assert res.method == "closed_form"
    assert res.value == pytest.approx(prevalence_pos(std_model, 0.0), abs=1e-15)


def test_compliance_requires_positive_reward(std_pair):
    m = ModelConfig(pair=std_pair, cost=logistic(0, 1), reward=-1.0)
    with pytest.raises(ValueError):
        compliance_optimal(m)


def _non_monotone_pair():
    """Densities match at 0 but the likelihood ratio is not monotone.

    A bimodal mixture against a wide normal: passes the normalized-pair
    density check yet its signal gap is not maximized at 0, so the
    compliance guardrail must object.
    """
    g0 = mixture([(0.5, normal(-2, 2)), (0.5, normal(2, 2))])
    scale = 0.3989422804014327 / g0.pdf(0.0)  # phi(0)/scale == g0.pdf(0)
    g1 = normal(0.0, scale)
    return SignalPair(g0=g0, g1=g1, shift=0.0)


def test_compliance_guardrail_fires_on_broken_pair():
    pair = _non_monotone_pair()
    m = ModelConfig(pair=pair, cost=logistic(0, 1), reward=1.0)
    with pytest.raises(VerificationFailedError):
        compliance_optimal(m)


def test_accuracy_worked_example(std_model):
    res = accuracy_optimal(std_model)
    assert res.method == "grid_refine"
    assert res.threshold < 0.0
    assert abs(deu_pos(std_model, res.threshold)) < 1e-8
    assert res.bracket_width < 1e-10
    t_brute, v_brute = brute_accuracy_argmax(std_model)
    assert res.threshold == pytest.approx(t_brute, abs=1e-4)  # brute grid is 1e-4 wide
    assert res.value >= v_brute - 1e-12


def test_accuracy_slope_calls_per_bisection(std_model, monkeypatch):
    """The docstring's count: the 37 bisection steps from a grid cell of 0.1
    down to BISECT_WIDTH take 5 slope calls of 255 points, after one call
    on the two bracket ends."""
    shapes = []

    def counted(m, t):
        shapes.append(np.shape(t))
        return deu_pos(m, t)

    monkeypatch.setattr("threshold_lab.optimize.deu_pos", counted)
    res = accuracy_optimal(std_model)
    assert res.iterations == 37
    assert shapes == [(1, 2)] + [(1, 255)] * 5


def test_accuracy_thresholds_scan_signal_terms_once(std_pair, monkeypatch):
    """The grid scan evaluates the signal gap (and the signal CDFs with it)
    on the search grid once per call, not once per block of rows."""
    fam = location_family(logistic(0, 1), ParameterBox((-3.0,), (3.0,)))
    xs = np.random.default_rng(1).uniform(-3.0, 3.0, (200, 1))
    shapes = []
    gap_terms = SignalPair._gap_terms

    def counted(pair, t):
        shapes.append(np.shape(t))
        return gap_terms(pair, t)

    monkeypatch.setattr(SignalPair, "_gap_terms", counted)
    accuracy_thresholds(ModelConfig(std_pair, fam.at(xs), 1.0))
    assert shapes.count((1, SEARCH_N)) == 1
    assert all(s[0] == 200 for s in shapes if s != (1, SEARCH_N))


def test_accuracy_thresholds_of_no_members(std_pair):
    """Zero rows take the many-row path and give no thresholds."""
    fam = location_family(logistic(0, 1), ParameterBox((-3.0,), (3.0,)))
    got = accuracy_thresholds(ModelConfig(std_pair, fam.at(np.empty((0, 1))), 1.0))
    assert got.shape == (0,)


def test_accuracy_value_dominates_grid(std_model):
    res = accuracy_optimal(std_model)
    ts = np.linspace(-10, 10, 401)
    assert res.value >= float(np.max(eu_pos(std_model, ts))) - 1e-15
    assert res.value >= eu_pos(std_model, -INF)
    assert res.value >= eu_pos(std_model, INF)


def test_accuracy_pinned_cost_gives_zero(std_pair):
    m = ModelConfig(pair=std_pair, cost=logistic(DELTA0, 1.0), reward=1.0)
    res = accuracy_optimal(m)
    assert res.threshold == pytest.approx(0.0, abs=1e-6)
    assert abs(deu_pos(m, res.threshold)) < 1e-8


def test_accuracy_r_zero_peaks_at_crossing(std_pair):
    m = ModelConfig(pair=std_pair, cost=logistic(0, 1), reward=0.0)
    res = accuracy_optimal(m)
    assert res.threshold == pytest.approx(0.0, abs=1e-6)


def test_accuracy_restart_robustness(std_model):
    base = accuracy_optimal(std_model)
    offset = accuracy_optimal(std_model, lo=-10.0 + 0.025, hi=10.0 + 0.025, n=401)
    assert abs(base.threshold - offset.threshold) < 1e-6


@pytest.mark.parametrize("window", [dict(lo=10.0, hi=-10.0), dict(n=1), dict(n=0)])
def test_accuracy_rejects_bad_window(std_model, window):
    """A reversed window, a one-point grid and an empty grid are refused,
    not scanned."""
    with pytest.raises(ValueError, match="search window"):
        accuracy_optimal(std_model, **window)


def test_equivalence_worked_example(std_model):
    verdict = equivalence_test(std_model, 1e-6)
    assert not verdict.equivalent
    assert verdict.compliance_t == 0.0
    assert verdict.foc_gap == pytest.approx(FOC0, abs=1e-9)  # -0.0795
    assert verdict.distance == pytest.approx(0.30795758, abs=1e-6)


def test_equivalence_pinned_and_off_pinned(std_pair):
    pinned = ModelConfig(pair=std_pair, cost=logistic(DELTA0, 1.0), reward=1.0)
    verdict = equivalence_test(pinned, 1e-6)
    assert verdict.equivalent
    assert abs(verdict.foc_gap) < 1e-6  # necessary condition holds

    off = ModelConfig(pair=std_pair, cost=logistic(0.7, 1.0), reward=1.0)
    assert not equivalence_test(off, 1e-6).equivalent


def test_equivalence_monotone_in_tolerance(std_pair):
    m = ModelConfig(pair=std_pair, cost=logistic(DELTA0 + 1e-5, 1.0), reward=1.0)
    verdicts = [equivalence_test(m, tol).equivalent for tol in (1e-8, 1e-6, 1e-4, 1e-2)]
    # once equivalent, stays equivalent at any larger tolerance
    assert verdicts == sorted(verdicts)


def test_equivalence_rejects_zero_reward(std_pair):
    m = ModelConfig(pair=std_pair, cost=logistic(0, 1), reward=0.0)
    with pytest.raises(ValueError):
        equivalence_test(m, 1e-6)
    with pytest.raises(ValueError):
        equivalence_test(ModelConfig(pair=std_pair, cost=logistic(0, 1), reward=1.0), -1.0)
    # optima computed at reward 1 do not make the verdict well-posed at reward 0
    paid = ModelConfig(pair=std_pair, cost=logistic(0, 1), reward=1.0)
    with pytest.raises(ValueError, match="ill-posed at reward 0"):
        equivalence_verdict(m, compliance_optimal(paid), accuracy_optimal(paid), 1e-6)


def test_accuracy_infinite_endpoints_valued(std_pair):
    """A cheap-compliance cost favors paying (almost) everyone; the interior
    optimum must still beat the infinite endpoints it is compared against."""
    m = ModelConfig(pair=std_pair, cost=logistic(-5, 1), reward=1.0)
    res = accuracy_optimal(m)
    assert math.isfinite(res.threshold)
    assert res.value > eu_pos(m, -INF)
    assert res.value > eu_pos(m, INF)


def test_optresult_value_recomputes(std_model):
    res = accuracy_optimal(std_model)
    assert res.value == pytest.approx(eu_pos(std_model, res.threshold), abs=1e-12)


def test_equivalence_verdict_from_computed_optima(std_pair):
    """The verdict built from optima in hand equals equivalence_test's."""
    for mu in (0.0, DELTA0, 0.7):
        m = ModelConfig(pair=std_pair, cost=logistic(mu, 1.0), reward=1.0)
        got = equivalence_verdict(m, compliance_optimal(m), accuracy_optimal(m), 1e-6)
        assert got == equivalence_test(m, 1e-6)
    with pytest.raises(ValueError):
        equivalence_verdict(m, compliance_optimal(m), accuracy_optimal(m), 0.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            equivalence_verdict(m, compliance_optimal(m), accuracy_optimal(m), bad)
        with pytest.raises(ValueError, match="finite"):
            equivalence_test(m, bad)


LOCATION_TEMPLATES = {
    "normal": normal,
    "logistic": logistic,
    "gumbel": gumbel,
    "mixture": lambda loc, scale: mixture([(0.4, normal(loc - 1.0, scale)), (0.6, logistic(loc + 0.5, scale))]),
}


@settings(max_examples=150, deadline=None)
@given(
    kind=st.sampled_from(sorted(LOCATION_TEMPLATES)),
    scale=st.floats(0.3, 3.0),
    x=st.floats(-3.0, 3.0),
    reward=st.floats(0.25, 3.0),
)
def test_interior_optimum_is_stationary(std_pair, kind, scale, x, reward):
    """The docstring's claim: a finite optimum strictly inside the search
    window is a zero of the payoff slope to ~1e-12, so |deu_pos| <= 1e-9."""
    fam = location_family(LOCATION_TEMPLATES[kind](0.0, scale), ParameterBox((-3.0,), (3.0,)))
    m = ModelConfig(pair=std_pair, cost=fam.instantiate([x]), reward=reward)
    res = accuracy_optimal(m)
    if math.isfinite(res.threshold) and SEARCH_LO < res.threshold < SEARCH_HI:
        assert abs(deu_pos(m, res.threshold)) <= 1e-9, res


# ---------------------------------------------------------------------------
# the slope bisections against the one-level-per-call loop


def _sequential_refine(eu, deu, n_rows, lo, hi, n):
    """Reference: the slope bisection one level per slope call, with the
    same grid scan and endpoint comparison as ``optimize._refine``."""
    grid = np.linspace(lo, hi, n)
    best = np.argmax(eu(grid[None, :], slice(None)), axis=1)
    a = grid[np.maximum(best - 1, 0)]
    b = grid[np.minimum(best + 1, n - 1)]
    x = grid[best]
    width = b - a
    iters = np.zeros(n_rows, dtype=np.intp)
    bisect = (deu(a) > 0.0) & (deu(b) < 0.0)
    active = bisect.copy()
    while True:
        mid = 0.5 * (a + b)
        active &= (b - a > BISECT_WIDTH) & (mid > a) & (mid < b)
        if not active.any():
            break
        fm = deu(mid)
        iters += active
        a = np.where(active & (fm >= 0.0), mid, a)
        b = np.where(active & ~(fm > 0.0), mid, b)
    x = np.where(bisect, 0.5 * (a + b), x)
    width = np.where(bisect, b - a, width)
    values = eu(np.column_stack([x, np.full(n_rows, -INF), np.full(n_rows, INF)]), slice(None))
    value = values[:, 0]
    boundary = np.zeros(n_rows, dtype=bool)
    for j, end in ((1, -INF), (2, INF)):
        wins = values[:, j] > value
        value = np.where(wins, values[:, j], value)
        x = np.where(wins, end, x)
        boundary |= wins
    iters[boundary] = 0
    width[boundary] = 0.0
    return x, value, iters, width, boundary


# row kinds of the synthetic payoff -(t - c)^2, slope 2 (c - t)
SMOOTH, DYADIC_ZERO, NAN_RIGHT, NAN_LEFT, SIGN_SLOPE, FLAT, WINS_LOW, WINS_HIGH = range(8)


def _synthetic_rows(n_rows, lo, hi, n, seed):
    """Per-row optimum c and kind, with eu(t, rows)/deu(t) callables that
    broadcast the row parameters over t's trailing axes (deu takes (n_rows,)
    for the reference loop and (n_rows, m) for ``_refine``)."""
    rng = np.random.default_rng(seed)
    grid = np.linspace(lo, hi, n)
    step = grid[1] - grid[0]
    kind = np.arange(n_rows) % 8
    g = grid[rng.integers(n // 4, 3 * n // 4, n_rows)]
    c = g + step * rng.uniform(-0.45, 0.45, n_rows)
    # an exact zero at a dyadic midpoint of the bracket [g - step, g + step],
    # reached at a different level in each row (grid steps are powers of 2)
    depth = 1 + np.arange(n_rows) // 8 % 20
    c = np.where(kind == DYADIC_ZERO, g + step * (2 * rng.integers(0, 2**18, n_rows) % 2**depth - 1) / 2.0**depth, c)

    def cols(p, t):
        return p.reshape(p.shape + (1,) * (t.ndim - 1))

    def eu(t, rows):
        # the infinite endpoints pay -1, or +1 to the rows they win
        cc, kk = (cols(p[rows], t) for p in (c, kind))
        wins = (kk == WINS_LOW) & (t == -INF) | (kk == WINS_HIGH) & (t == INF)
        return np.where(np.isinf(t), np.where(wins, 1.0, -1.0), -((t - cc) ** 2))

    def deu(t):
        cc, kk = (cols(p, t) for p in (c, kind))
        slope = np.where(kk == SIGN_SLOPE, np.where(t < cc, 1.0, -1.0), 2.0 * (cc - t))
        slope = np.where(kk == FLAT, 1.0, slope)
        w = step / 64.0
        slope = np.where((kk == NAN_RIGHT) & (t > cc + w) & (t < cc + 8 * w), np.nan, slope)
        return np.where((kk == NAN_LEFT) & (t < cc - w) & (t > cc - 8 * w), np.nan, slope)

    return eu, deu


@pytest.mark.parametrize("n_rows", [1, 2, 3, 37, 250])
@pytest.mark.parametrize(
    "lo, hi, n",
    [
        (SEARCH_LO, SEARCH_HI, 401),  # the default grid, whose midpoints round
        (-100.0, 100.0, 401),  # step 0.5: rows stop at BISECT_WIDTH or at an exact zero
        (1e5 - 200.0, 1e5 + 200.0, 401),  # ulp 1.5e-11: rows stop at adjacent floats
        (1e5, float(np.nextafter(1e5, INF)), 401),  # a one-ulp grid: brackets too narrow to split
    ],
)
def test_lookahead_bisection_matches_sequential(n_rows, lo, hi, n):
    """``_refine`` returns what the one-level-per-call loop returns, bit
    for bit, for every row kind: one row looks 8 levels ahead per slope
    call (255 points), many rows take one level per call."""
    step_shape = (n_rows, 255 if n_rows == 1 else 1)
    for seed in range(4):
        eu, deu = _synthetic_rows(n_rows, lo, hi, n, seed)
        want = _sequential_refine(eu, deu, n_rows, lo, hi, n)
        shapes = []

        def recorded(t):
            shapes.append(t.shape)
            return deu(t)

        got = _refine(lambda t: functools.partial(eu, t), recorded, n_rows, lo, hi, n)
        for name, w, g in zip(("x", "value", "iters", "width", "boundary"), want, got):
            assert w.dtype == g.dtype and w.tobytes() == g.tobytes(), (name, seed)
        # the two bracket ends share one call, then one call per round
        assert shapes[0] == (n_rows, 2) and set(shapes[1:]) <= {step_shape}, (shapes, seed)

"""Both optima and the coincidence verdict, checked against brute oracles."""

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
from threshold_lab.optimize import SEARCH_HI, SEARCH_LO

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

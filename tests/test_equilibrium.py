"""Prevalence, payoff, and slope: worked-example values and identities."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import DELTA0, EU0, FOC0, PI0, logistic_cdf, suite_cost_specs, suite_pair_specs
from threshold_lab import (
    ModelConfig,
    ParameterBox,
    deu_pos,
    eu_pos,
    foc_at_zero,
    logistic,
    mixture_linear_family,
    normal,
    normalize_pair,
    prevalence_neg,
    prevalence_pos,
    prevalence_report,
)

INF = float("inf")


def test_prevalence_worked_example(std_model):
    assert prevalence_pos(std_model, 0.0) == pytest.approx(PI0, abs=1e-12)  # 0.664337
    assert prevalence_neg(std_model, 0.0) == pytest.approx(1.0 - PI0, abs=1e-12)  # 0.335663
    assert prevalence_pos(std_model, INF) == pytest.approx(0.5, abs=1e-15)
    assert prevalence_neg(std_model, -INF) == pytest.approx(0.5, abs=1e-15)


def test_prevalence_r_zero(std_pair):
    m = ModelConfig(pair=std_pair, cost=logistic(0, 1), reward=0.0)
    for t in (-3.0, 0.0, 2.5, INF):
        assert prevalence_pos(m, t) == pytest.approx(0.5, abs=1e-15)
        assert prevalence_neg(m, t) == pytest.approx(0.5, abs=1e-15)


def test_eu_worked_example(std_model):
    # symmetric signals make the payoff at 0 equal cdf0(0) regardless of prevalence
    assert eu_pos(std_model, 0.0) == pytest.approx(EU0, abs=1e-12)  # 0.841345
    assert eu_pos(std_model, -INF) == pytest.approx(0.5, abs=1e-15)  # F(0)
    assert eu_pos(std_model, INF) == pytest.approx(0.5, abs=1e-15)  # 1 - F(0)


def test_eu_infinite_limits_asymmetric_cost(std_pair):
    m = ModelConfig(pair=std_pair, cost=logistic(0.7, 1.3), reward=1.0)
    f0 = logistic_cdf(-0.7 / 1.3)
    assert eu_pos(m, -INF) == pytest.approx(f0, abs=1e-12)
    assert eu_pos(m, INF) == pytest.approx(1.0 - f0, abs=1e-12)


def test_deu_and_foc_worked_example(std_model):
    assert foc_at_zero(std_model) == pytest.approx(FOC0, abs=1e-12)  # -0.079530
    assert deu_pos(std_model, 0.0) == pytest.approx(FOC0, abs=1e-12)
    assert abs(foc_at_zero(std_model) - deu_pos(std_model, 0.0)) < 1e-10


def test_foc_zero_cases(std_pair):
    # cost located exactly at the prevalence pivot r*gap(0) zeroes the slope
    m = ModelConfig(pair=std_pair, cost=logistic(DELTA0, 1.0), reward=1.0)
    assert abs(foc_at_zero(m)) < 1e-12
    # reward 0 with a cost median at 0 also pins prevalence at 1/2
    m0 = ModelConfig(pair=std_pair, cost=logistic(0, 1), reward=0.0)
    assert foc_at_zero(m0) == pytest.approx(0.0, abs=1e-15)


def test_foc_equals_deu_across_suite(suite_models):
    for label, model, _ in suite_models:
        assert abs(foc_at_zero(model) - deu_pos(model, 0.0)) < 1e-10, label


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_foc_at_zero_is_deu_pos_at_zero(suite_pairs, data):
    """foc_at_zero drops the two terms of deu_pos(0) that carry
    pdf0(0) - pdf1(0), which the normalization makes tiny but not zero:
    deu_pos(0) - foc_at_zero = dpi(0) (1 - cdf0(0) - cdf1(0))
    + pi(0) (pdf0(0) - pdf1(0)), with dpi(0) = f(r gap(0)) r (pdf0(0) -
    pdf1(0)).  Both factors beside the density difference are at most 1 in
    size, so that sum is bounded by the linear term below; the slack is
    for rounding."""
    _, pair = data.draw(st.sampled_from(suite_pairs))
    _, cost = data.draw(st.sampled_from(suite_cost_specs()))
    r = data.draw(st.sampled_from([-1.0, 1.0])) * data.draw(st.floats(0.25, 4.0))
    m = ModelConfig(pair=pair, cost=cost, reward=r)
    p0, p1 = pair.g0.pdf(0.0), pair.g1.pdf(0.0)
    linear = (1.0 + abs(r) * cost.pdf(r * pair.gap(0.0))) * abs(p0 - p1)
    assert abs(foc_at_zero(m) - deu_pos(m, 0.0)) <= linear + 8.0 * math.ulp(p0)


def test_deu_matches_finite_difference(std_model):
    ts = np.linspace(-5, 5, 101)
    h = 1e-4
    fd = (eu_pos(std_model, ts + h) - eu_pos(std_model, ts - h)) / (2 * h)
    np.testing.assert_allclose(deu_pos(std_model, ts), fd, atol=1e-6, rtol=0)


def test_deu_requires_finite_t(std_model):
    with pytest.raises(ValueError):
        deu_pos(std_model, INF)


def test_model_config_validation(std_pair):
    from threshold_lab import AdmissibilityError, SignalPair

    # a raw pair is rejected where it is built, before it reaches a model
    with pytest.raises(AdmissibilityError):
        SignalPair(g0=normal(0, 1), g1=normal(2, 1), shift=0.0)
    with pytest.raises(ValueError):
        ModelConfig(pair=std_pair, cost=logistic(0, 1), reward=math.inf)


def test_positive_rule_dominates_for_positive_reward(std_pair):
    """The compliance-maximizing rule is the positive one when r > 0."""
    ts = np.linspace(-8, 8, 321)
    m = ModelConfig(pair=std_pair, cost=logistic(0, 1), reward=1.0)
    gap = prevalence_pos(m, ts) - prevalence_neg(m, ts)
    assert np.all(gap > 0.0)
    # and the ordering flips with the reward sign
    m_neg = ModelConfig(pair=std_pair, cost=logistic(0, 1), reward=-1.0)
    gap_neg = prevalence_pos(m_neg, ts) - prevalence_neg(m_neg, ts)
    assert np.all(gap_neg < 0.0)


def test_prevalence_gap_vanishes_only_in_the_limit(std_model):
    ts = np.linspace(-5, 5, 201)
    gap = prevalence_pos(std_model, ts) - prevalence_neg(std_model, ts)
    assert float(np.min(gap)) > 0.0  # strictly positive on a compact window
    assert prevalence_pos(std_model, 0.0) - prevalence_neg(std_model, 0.0) > 1e-3
    for t in (-INF, INF):
        assert prevalence_pos(std_model, t) == prevalence_neg(std_model, t)


def test_prevalence_maximized_at_zero(suite_models):
    ts = np.linspace(-10, 10, 401)
    for label, model, _ in suite_models[:30]:
        values = prevalence_pos(model, ts)
        assert float(np.max(values)) <= prevalence_pos(model, 0.0) + 1e-12, label


def test_prevalence_report(std_model):
    rep = prevalence_report(std_model, 0.0)
    assert rep.t == 0.0
    assert rep.pi_pos == pytest.approx(PI0, abs=1e-12)
    assert rep.gap == pytest.approx(2 * PI0 - 1.0, abs=1e-12)
    assert 0.0 <= rep.pi_pos <= 1.0 and 0.0 <= rep.pi_neg <= 1.0


def test_vectorized_matches_scalar(std_model):
    ts = np.array([-2.0, 0.0, 1.5, INF])
    vec = prevalence_pos(std_model, ts)
    for i, t in enumerate(ts):
        assert vec[i] == prevalence_pos(std_model, float(t))


def test_family_members_model_matches_each_row(std_pair):
    """A model whose cost is a family's members gives each row the value
    of that row's own model, bit for bit, at per-row and shared points;
    the infinite thresholds are reached only by the payoff."""
    fam = mixture_linear_family(
        (normal(-2, 0.8), normal(2, 0.8), logistic(0, 1)), ParameterBox((0.1, 0.1), (0.45, 0.45))
    )
    xs = fam.box.sample(np.random.default_rng(2), 7)
    batched = ModelConfig(std_pair, fam.at(xs), 2.0)
    rows = [ModelConfig(std_pair, fam.instantiate(x), 2.0) for x in xs]
    per_row = np.linspace(-3.0, 3.0, 7)[:, None]
    shared = np.array([[-INF, -1.0, 0.0, 0.5, INF]])
    for f, ts in ((eu_pos, per_row), (eu_pos, shared), (deu_pos, per_row), (deu_pos, shared[:, 1:-1])):
        got = f(batched, ts)
        for i, m in enumerate(rows):
            assert got[i].tolist() == f(m, ts[i if len(ts) > 1 else 0]).tolist(), f.__name__
    assert foc_at_zero(batched).tolist() == [foc_at_zero(m) for m in rows]
    assert all(type(foc_at_zero(m)) is float for m in rows)

"""Equilibrium prevalence and the reward-accuracy payoff of threshold rules.

A model instance binds a normalized signal pair, a cost distribution F,
and a reward r.  A positive threshold rule pays the reward when the signal
lands above t; a negative rule pays below t.  Induced compliance
(prevalence) is

    pi_pos(t) = F(r * (cdf0(t) - cdf1(t)))
    pi_neg(t) = F(r * (cdf1(t) - cdf0(t)))

so both collapse to F(0) at the infinite thresholds, where the rule pays
everyone or no one and incentives vanish.

The accuracy payoff of a positive rule is the probability the reward
matches behavior: compliers paid (survival of cdf1 at t) plus
non-compliers unpaid (cdf0 at t), weighted by prevalence:

    eu_pos(t) = pi_pos(t) * (1 - cdf1(t)) + (1 - pi_pos(t)) * cdf0(t)

Its t-derivative, via the chain rule through F, is

    deu_pos(t) = pi_pos'(t) * (1 - cdf0(t) - cdf1(t))
                 - pi_pos(t) * (pdf0(t) + pdf1(t)) + pdf0(t)

with pi_pos'(t) = pdfF(r * gap(t)) * r * (pdf0(t) - pdf1(t)).  At t = 0
the chain term vanishes (the densities cross there), leaving the closed
form used by ``foc_at_zero``:

    deu_pos(0) = (1 - 2 * pi_pos(0)) * pdf0(0)

whose zero is the cost-CDF condition F(r * gap(0)) = 1/2.  Note this is a
condition on a CDF value at the prevalence pivot r * gap(0) > 0, not on a
density at zero and not on F(0) itself; the three coincide only in
special cases such as r = 0.

Everything here evaluates at extended-real thresholds; infinite limits are
computed analytically (they fall out of exact cdf values at +-inf), never
by large-argument evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import ScalarDistribution
from .signals import SignalPair

__all__ = [
    "ModelConfig",
    "PrevalenceReport",
    "prevalence_pos",
    "prevalence_neg",
    "prevalence_report",
    "eu_pos",
    "deu_pos",
    "foc_at_zero",
]


@dataclass(frozen=True)
class ModelConfig:
    """A complete model instance: normalized pair, cost CDF, reward."""

    pair: SignalPair
    cost: ScalarDistribution
    reward: float

    def __post_init__(self):
        if not self.pair.normalized:
            raise ValueError("ModelConfig requires a normalized signal pair")
        if not math.isfinite(self.reward):
            raise ValueError(f"reward must be finite, got {self.reward}")


@dataclass(frozen=True)
class PrevalenceReport:
    """Prevalence under both rules at one threshold."""

    t: float
    pi_pos: float
    pi_neg: float
    gap: float


def prevalence_pos(m: ModelConfig, t):
    """Equilibrium compliance under a positive rule with threshold t."""
    return m.cost.cdf(m.reward * m.pair.gap(t))


def prevalence_neg(m: ModelConfig, t):
    """Equilibrium compliance under a negative rule with threshold t."""
    return m.cost.cdf(-m.reward * m.pair.gap(t))


def prevalence_report(m: ModelConfig, t: float) -> PrevalenceReport:
    pp = prevalence_pos(m, t)
    pn = prevalence_neg(m, t)
    return PrevalenceReport(t=float(t), pi_pos=pp, pi_neg=pn, gap=pp - pn)


def eu_pos(m: ModelConfig, t):
    """Accuracy payoff of the positive rule at extended-real t.

    The formula itself yields the analytic limits: at t = -inf the rule
    pays everyone and the payoff is the compliance rate F(0); at t = +inf
    it pays no one and the payoff is 1 - F(0).
    """
    arr = np.asarray(t, dtype=float)
    out = _eu_pos(m.pair, m.reward, m.cost.cdf, arr)
    return float(out) if arr.ndim == 0 else out


def deu_pos(m: ModelConfig, t):
    """Slope of the accuracy payoff at finite t."""
    arr = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("deu_pos is defined for finite thresholds only")
    out = _deu_pos(m.pair, m.reward, m.cost.cdf, m.cost.pdf, arr)
    return float(out) if arr.ndim == 0 else out


# The payoff, its slope and the slope at 0, with the cost CDF and density
# passed as callables of the prevalence pivot r * gap(t): ``eu_pos``,
# ``deu_pos`` and ``foc_at_zero`` pass one cost distribution, the batched
# optimizer and the sweep a cost family's ``cdf_at``/``pdf_at`` over a
# parameter matrix, so both paths do the same float operations.


def _eu_pos(pair: SignalPair, reward: float, cost_cdf, t):
    pi = cost_cdf(reward * pair.gap(t))
    return pi * pair.g1.sf(t) + (1.0 - pi) * pair.g0.cdf(t)


def _deu_pos(pair: SignalPair, reward: float, cost_cdf, cost_pdf, t):
    g0, g1 = pair.g0, pair.g1
    gap = pair.gap(t)
    p0, p1 = g0.pdf(t), g1.pdf(t)
    dpi = cost_pdf(reward * gap) * reward * (p0 - p1)
    pi = cost_cdf(reward * gap)
    return dpi * (1.0 - g0.cdf(t) - g1.cdf(t)) - pi * (p0 + p1) + p0


def _foc_at_zero(pair: SignalPair, reward: float, cost_cdf):
    return (1.0 - 2.0 * cost_cdf(reward * pair.gap(0.0))) * pair.g0.pdf(0.0)


def foc_at_zero(m: ModelConfig) -> float:
    """Closed form of the payoff slope at the compliance-optimal threshold.

    Equals deu_pos(m, 0) because the signal densities agree at 0; its sign
    says whether accuracy gains by moving the threshold off 0, and its
    zero is the coincidence condition F(r * gap(0)) = 1/2.
    """
    return _foc_at_zero(m.pair, m.reward, m.cost.cdf)

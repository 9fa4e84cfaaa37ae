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

The cost may also be the members of a cost family at many parameter rows
(``CostFamily.at``): each function then gives one value per row, with the
float operations of that row's own model, so the batched optimizer and
the sweep call these functions themselves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import ScalarDistribution
from .families import FamilyMembers
from .signals import SignalPair

__all__ = [
    "ModelConfig",
    "prevalence_pos",
    "prevalence_neg",
    "eu_pos",
    "deu_pos",
    "foc_at_zero",
]


@dataclass(frozen=True)
class ModelConfig:
    """A complete model instance: normalized pair, cost CDF, reward.

    The pair is admissible and normalized by construction (see
    ``SignalPair``); the only check made here is that the reward is
    finite (ValueError).  The cost is one distribution, or the members of
    a cost family at many parameter rows (``CostFamily.at``), which the
    model functions evaluate as one cost: ``eu_pos``, ``deu_pos`` and
    ``foc_at_zero`` then give one value per row, with the float
    operations of each row's own model.
    """

    pair: SignalPair
    cost: ScalarDistribution | FamilyMembers
    reward: float

    def __post_init__(self):
        if not math.isfinite(self.reward):
            raise ValueError(f"reward must be finite, got {self.reward}")


def prevalence_pos(m: ModelConfig, t):
    """Equilibrium compliance under a positive rule with threshold t."""
    return m.cost.cdf(m.reward * m.pair.gap(t))


def prevalence_neg(m: ModelConfig, t):
    """Equilibrium compliance under a negative rule with threshold t."""
    return m.cost.cdf(-m.reward * m.pair.gap(t))


def eu_pos(m: ModelConfig, t):
    """Accuracy payoff of the positive rule at extended-real t.

    The formula itself yields the analytic limits: at t = -inf the rule
    pays everyone and the payoff is the compliance rate F(0); at t = +inf
    it pays no one and the payoff is 1 - F(0).
    """
    pivot, sf1, cdf0 = _eu_signal_terms(m.pair, m.reward, np.asarray(t, dtype=float))
    return _float_if_0d(_eu_from_terms(m.cost.cdf(pivot), sf1, cdf0))


def deu_pos(m: ModelConfig, t):
    """Slope of the accuracy payoff at finite t."""
    t = np.asarray(t, dtype=float)
    _require_finite(t)
    gap, cdf0, cdf1, _, _ = m.pair._gap_terms(t)
    return _float_if_0d(_deu_from_terms(m, t, gap, cdf0, cdf1, m.cost.cdf(m.reward * gap)))


def _require_finite(t: np.ndarray) -> None:
    if not np.all(np.isfinite(t)):
        raise ValueError("deu_pos is defined for finite thresholds only")


def _float_if_0d(out):
    return float(out) if np.ndim(out) == 0 else out


def _eu_signal_terms(pair: SignalPair, reward: float, t):
    """The payoff's cost-free terms at t: the pivot r * gap(t), sf1(t) and
    cdf0(t), which a scan of many cost rows over one t-grid evaluates once."""
    gap, cdf0, _, _, sf1 = pair._gap_terms(t)
    return reward * gap, sf1, cdf0


def _eu_from_terms(pi, sf1, cdf0):
    """The payoff from the prevalence pi = F(pivot) and the signal terms."""
    return pi * sf1 + (1.0 - pi) * cdf0


def _deu_from_terms(m: ModelConfig, t, gap, cdf0, cdf1, pi):
    """The slope from the signal terms at t and the prevalence pi = F(r * gap)."""
    p0, p1 = m.pair.g0.pdf(t), m.pair.g1.pdf(t)
    dpi = m.cost.pdf(m.reward * gap) * m.reward * (p0 - p1)
    return dpi * (1.0 - cdf0 - cdf1) - pi * (p0 + p1) + p0


def _table_columns(m: ModelConfig, t: np.ndarray):
    """``prevalence_pos``, ``prevalence_neg``, ``eu_pos`` and ``deu_pos`` at
    the finite array t, with their float operations on one evaluation of
    the signal terms."""
    _require_finite(t)
    gap, cdf0, cdf1, _, sf1 = m.pair._gap_terms(t)
    pi = m.cost.cdf(m.reward * gap)
    return (
        pi,
        m.cost.cdf(-m.reward * gap),
        _eu_from_terms(pi, sf1, cdf0),
        _deu_from_terms(m, t, gap, cdf0, cdf1, pi),
    )


def foc_at_zero(m: ModelConfig):
    """Closed form of the payoff slope at the compliance-optimal threshold.

    Equals deu_pos(m, 0) because the signal densities agree at 0; its sign
    says whether accuracy gains by moving the threshold off 0, and its
    zero is the coincidence condition F(r * gap(0)) = 1/2.  A float for
    one cost distribution, one value per row for a family's members.
    """
    return _float_if_0d((1.0 - 2.0 * m.cost.cdf(m.reward * m.pair.gap(0.0))) * m.pair.g0.pdf(0.0))

"""Shared fixtures and independent oracles for the test suite.

Oracle policy: expected values are computed with the standard library
(math.erf / math.exp / math.log), independent of the scipy-backed code
paths under test.  The model suite frozen here is reused by the
acceptance tests; its tail scales are chosen so that double precision can
represent the prevalence gaps the assertions need (gumbel left tails are
doubly exponential and underflow beyond t < -4 no matter the scale; see
test_acceptance for how that is handled).
"""

from __future__ import annotations

import math

import pytest
from hypothesis import settings

from threshold_lab import (
    ModelConfig,
    check_admissible,
    gumbel,
    logistic,
    mixture,
    normal,
    normalize_pair,
)

# every property test draws the same examples on every run and keeps no
# example database, so a run's pass/fail count repeats
settings.register_profile("repeatable", derandomize=True, database=None)
settings.load_profile("repeatable")


@pytest.fixture(autouse=True)
def _empty_scan_memo():
    """Each test starts with an empty admissibility-scan memo, so the scans
    it counts are its own."""
    check_admissible.cache_clear()


# ---------------------------------------------------------------------------
# stdlib oracles


def phi_cdf(z: float) -> float:
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


def phi_pdf(z: float) -> float:
    return math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)


def logistic_cdf(z: float) -> float:
    return 1.0 / (1.0 + math.exp(-z))


def logistic_pdf(z: float) -> float:
    e = math.exp(-abs(z))
    return e / (1.0 + e) ** 2


#: standard worked example: signals N(-1,1)/N(1,1), cost logistic(0,1), r=1
PHI1 = phi_cdf(1.0)
PHI1_PDF = phi_pdf(1.0)
DELTA0 = 2.0 * PHI1 - 1.0  # signal gap at 0, and the coincidence location
PI0 = logistic_cdf(DELTA0)  # 0.664339
EU0 = PHI1  # 0.841345
FOC0 = (1.0 - 2.0 * PI0) * PHI1_PDF  # -0.079530


# ---------------------------------------------------------------------------
# the frozen model suite: 20 admissible pairs x 5 costs x 3 rewards


def _mixture_signal(c: float, s: float, w: float, offset: float):
    return mixture([(w, normal(-c + offset, s)), (1.0 - w, normal(c + offset, s))])


def suite_pair_specs():
    """20 admissible pairs: normal / logistic / gumbel locations, mixtures.

    Logistic and gumbel scales stay at or below 0.8 so the prevalence gap
    at t = +-12 is under 1e-6 even at reward 2; normal scales keep the
    +-8 signal gap representable in double precision.
    """
    specs = []
    for a, s in [(0.5, 1.0), (1.0, 1.0), (1.5, 1.0), (0.8, 1.25), (1.2, 0.9), (2.0, 1.3), (0.6, 1.0), (1.0, 1.5)]:
        specs.append((f"normal(a={a},s={s})", normal(-a, s), normal(a, s)))
    for a, s in [(0.4, 0.75), (0.6, 0.75), (0.5, 0.7), (0.3, 0.75)]:
        specs.append((f"logistic(a={a},s={s})", logistic(-a, s), logistic(a, s)))
    for d, s in [(0.3, 0.75), (0.5, 0.75), (0.4, 0.7), (0.25, 0.8)]:
        specs.append((f"gumbel(d={d},s={s})", gumbel(0.0, s), gumbel(d, s)))
    for c, s, d, w in [(0.8, 1.0, 0.6, 0.5), (0.7, 1.0, 0.8, 0.4), (0.9, 1.1, 0.5, 0.5), (0.6, 1.0, 1.0, 0.6)]:
        specs.append(
            (
                f"mixture(c={c},s={s},d={d},w={w})",
                _mixture_signal(c, s, w, -d / 2.0),
                _mixture_signal(c, s, w, d / 2.0),
            )
        )
    return specs


def suite_cost_specs():
    return [
        ("logistic(0,1)", logistic(0.0, 1.0)),
        ("normal(0,1.2)", normal(0.0, 1.2)),
        ("normal(0.3,1.5)", normal(0.3, 1.5)),
        ("gumbel(0,1.1)", gumbel(0.0, 1.1)),
        ("normal-mix", mixture([(0.5, normal(-0.5, 1.0)), (0.5, normal(0.5, 1.0))])),
    ]


SUITE_REWARDS = (0.5, 1.0, 2.0)


@pytest.fixture(scope="session")
def std_pair():
    return normalize_pair(normal(-1.0, 1.0), normal(1.0, 1.0))


@pytest.fixture(scope="session")
def std_model(std_pair):
    return ModelConfig(pair=std_pair, cost=logistic(0.0, 1.0), reward=1.0)


@pytest.fixture(scope="session")
def suite_pairs():
    """The 20 suite pairs, normalized, keyed by name."""
    return [(name, normalize_pair(g0, g1)) for name, g0, g1 in suite_pair_specs()]


@pytest.fixture(scope="session")
def suite_models(suite_pairs):
    """All 300 suite models as (label, ModelConfig, is_gumbel_pair)."""
    models = []
    for pname, pair in suite_pairs:
        for cname, cost in suite_cost_specs():
            for r in SUITE_REWARDS:
                models.append(
                    (
                        f"{pname}|{cname}|r={r}",
                        ModelConfig(pair=pair, cost=cost, reward=r),
                        pname.startswith("gumbel"),
                    )
                )
    return models

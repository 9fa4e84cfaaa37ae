"""Distribution catalog: frozen examples, construction gate, self-consistency."""

import math
import warnings

import numpy as np
import pytest

from conftest import phi_cdf, phi_pdf
from threshold_lab import (
    DistributionError,
    ScalarDistribution,
    gumbel,
    logistic,
    make_distribution,
    mixture,
    normal,
)
from threshold_lab.distributions import PDF_FLOOR

GRID = np.linspace(-10.0, 10.0, 401)
INF = float("inf")


# ---------------------------------------------------------------------------
# frozen examples


def test_cdf_examples():
    assert logistic(0, 1).cdf(0.0) == pytest.approx(0.5, abs=1e-15)
    assert normal(-1, 1).cdf(0.0) == pytest.approx(phi_cdf(1.0), abs=1e-13)  # 0.841345
    for d in (normal(3, 2), logistic(-1, 0.5), gumbel(0, 1), mixture([(1.0, normal(0, 1))])):
        assert d.cdf(INF) == 1.0
        assert d.cdf(-INF) == 0.0


def test_pdf_examples():
    assert normal(0, 1).pdf(0.0) == pytest.approx(phi_pdf(0.0), abs=1e-15)  # 0.398942
    assert logistic(0, 1).pdf(0.0) == pytest.approx(0.25, abs=1e-15)
    m = mixture([(0.5, normal(-1, 1)), (0.5, normal(1, 1))])
    assert m.pdf(0.0) == pytest.approx(phi_pdf(1.0), abs=1e-15)  # 0.241971


def test_pdf_prime_examples():
    assert normal(0, 1).pdf_prime(0.0) == pytest.approx(0.0, abs=1e-15)
    assert logistic(0, 1).pdf_prime(0.0) == pytest.approx(0.0, abs=1e-15)
    assert normal(0, 1).pdf_prime(1.0) == pytest.approx(-phi_pdf(1.0), abs=1e-13)  # -0.241971


def test_construction_gate():
    assert make_distribution("normal", [0, 1]).kind == "normal"
    with pytest.raises(DistributionError):
        make_distribution("logistic", [0, -1])
    with pytest.raises(DistributionError):
        make_distribution("normal", [0, 0])
    with pytest.raises(DistributionError):
        make_distribution("uniform", [0, 1])  # bounded support is not in the catalog
    with pytest.raises(DistributionError):
        make_distribution("mixture", components=[])
    with pytest.raises(DistributionError):
        mixture([(0.3, normal(0, 1)), (0.8, normal(1, 1))])  # weights sum to 1.1
    with pytest.raises(DistributionError):
        mixture([(-0.5, normal(0, 1)), (1.5, normal(1, 1))])
    with pytest.raises(DistributionError):
        make_distribution("normal", [math.nan, 1])
    with pytest.raises(DistributionError, match="component 0 is not a distribution"):
        mixture([(1.0, "normal")])
    with pytest.raises(DistributionError, match=r"expects params \(loc, scale\)"):
        make_distribution("logistic", [0.0])
    with pytest.raises(DistributionError, match="affine transform parameters must be finite"):
        normal(0, 1).affine(math.inf)
    ok = make_distribution("mixture", components=[(0.3, normal(-1, 1)), (0.7, normal(2, 1))])
    assert ok.kind == "mixture"


def test_make_distribution_refuses_mismatched_inputs():
    """Each kind takes only its own inputs: params for the analytic kinds,
    components for a mixture."""
    with pytest.raises(DistributionError, match="not params"):
        make_distribution("mixture", [0, 1], components=[(1.0, normal(0, 1))])
    with pytest.raises(DistributionError, match="not components"):
        make_distribution("normal", [0, 1], components=[(1.0, normal(0, 1))])


def test_frozen():
    d = normal(0, 1)
    with pytest.raises(Exception):
        d.kind = "logistic"


# ---------------------------------------------------------------------------
# invariants on random parameter draws


def _random_distribution(rng, kind):
    loc = float(rng.uniform(-3, 3))
    scale = float(rng.uniform(0.3, 3.0))
    if kind == "mixture":
        w = float(rng.uniform(0.1, 0.9))
        return mixture(
            [
                (w, normal(float(rng.uniform(-3, 3)), float(rng.uniform(0.3, 2.0)))),
                (1.0 - w, logistic(float(rng.uniform(-3, 3)), float(rng.uniform(0.3, 2.0)))),
            ]
        )
    return make_distribution(kind, [loc, scale])


@pytest.mark.parametrize("kind", ["normal", "logistic", "gumbel", "mixture"])
def test_cdf_monotone_1000_draws(kind):
    rng = np.random.default_rng(hash(kind) % 2**32)
    for _ in range(1000):
        d = _random_distribution(rng, kind)
        values = d.cdf(GRID)
        assert np.all(np.diff(values) >= 0.0)
        assert values[0] >= 0.0 and values[-1] <= 1.0
        assert d.cdf(-INF) == 0.0 and d.cdf(INF) == 1.0


def test_pdf_strictly_positive_everywhere():
    for d in (normal(0, 1), logistic(0, 1), gumbel(0, 0.75), mixture([(1.0, normal(0, 0.5))])):
        ts = np.array([-500.0, -40.0, 0.0, 40.0, 500.0])
        assert np.all(d.pdf(ts) >= PDF_FLOOR)
        assert np.all(d.pdf(ts) > 0.0)


def test_mixture_cdf_is_weighted_sum():
    rng = np.random.default_rng(42)
    for _ in range(25):
        comps = [
            (0.3, normal(float(rng.uniform(-2, 2)), 1.0)),
            (0.2, logistic(float(rng.uniform(-2, 2)), 0.8)),
            (0.5, gumbel(float(rng.uniform(-2, 2)), 1.2)),
        ]
        m = mixture(comps)
        manual = sum(w * c.cdf(GRID) for w, c in comps)
        np.testing.assert_allclose(m.cdf(GRID), np.clip(manual, 0, 1), atol=1e-12, rtol=0)


def test_mixture_density_blend_is_exact():
    a, b = normal(-2, 1), normal(2, 1)
    for alpha in (0.25, 0.5, 0.9):
        m = mixture([(alpha, a), (1.0 - alpha, b)])
        np.testing.assert_allclose(
            m.pdf(GRID), alpha * a.pdf(GRID) + (1 - alpha) * b.pdf(GRID), atol=1e-12, rtol=0
        )


def test_sf_matches_cdf():
    for d in (normal(0.3, 1.2), logistic(-1, 0.6), gumbel(0.5, 0.9)):
        np.testing.assert_allclose(d.sf(GRID) + d.cdf(GRID), 1.0, atol=1e-12, rtol=0)
        assert d.sf(-INF) == 1.0 and d.sf(INF) == 0.0


def test_sf_precise_in_upper_tail():
    # 1 - cdf would round to 0 out here; sf must not
    assert normal(0, 1).sf(9.0) == pytest.approx(1.1285884059538408e-19, rel=1e-12)
    assert logistic(0, 1).sf(40.0) == pytest.approx(math.exp(-40.0), rel=1e-12)


def test_log_pdf_matches_log_of_pdf():
    for d in (normal(0, 1), logistic(1, 0.7), gumbel(-0.5, 1.1), mixture([(0.4, normal(-1, 1)), (0.6, normal(1, 1))])):
        ts = np.linspace(-8, 8, 33)
        unfloored = d.pdf(ts) > PDF_FLOOR  # where flooring kicked in the exact log is smaller
        np.testing.assert_allclose(
            d.log_pdf(ts)[unfloored], np.log(d.pdf(ts))[unfloored], atol=1e-12, rtol=1e-12
        )


def test_log_pdf_finite_beyond_underflow():
    g = gumbel(0, 0.75)
    assert g.pdf(-12.0) == PDF_FLOOR  # density underflowed
    assert math.isfinite(g.log_pdf(-12.0))  # exact logarithm did not


def test_normal_density_quiet_beyond_overflow():
    """Beyond |z| ~ 1.3e154, z * z overflows: the normal density, its
    logarithm and its derivative take their limits (PDF_FLOOR, -inf and
    a zero) without a RuntimeWarning, in mixtures too."""
    ts = np.array([2e154, -2e154, 1e308, -1e308])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for d in (normal(0, 1), mixture([(0.4, normal(-1, 1)), (0.6, logistic(1, 1))])):
            assert [d.pdf(t) for t in ts] == d.pdf(ts).tolist() == [PDF_FLOOR] * 4
            assert np.all(d.pdf_prime(ts) == 0.0)
        assert normal(0, 1).log_pdf(ts).tolist() == [-INF] * 4


@pytest.mark.parametrize(
    "d",
    [normal(0.3, 1.2), logistic(-0.2, 0.7), gumbel(0.1, 0.8), mixture([(0.4, normal(-1, 1)), (0.6, gumbel(1, 0.7))])],
    ids=["normal", "logistic", "gumbel", "mixture"],
)
def test_evaluators_at_infinity(d):
    """Every evaluator takes its limit at -inf and +inf, as a scalar and
    inside an array, without a RuntimeWarning."""
    limits = {"cdf": (0.0, 1.0), "sf": (1.0, 0.0), "pdf": (PDF_FLOOR, PDF_FLOOR),
              "log_pdf": (-INF, -INF), "pdf_prime": (0.0, 0.0)}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for what, expected in limits.items():
            evaluate = getattr(d, what)
            assert [evaluate(-INF), evaluate(INF)] == list(expected), what
            assert evaluate(np.array([-INF, 0.5, INF]))[[0, 2]].tolist() == list(expected), what


def test_affine_transform():
    base = logistic(0.5, 2.0)
    moved = base.affine(1.5, 0.5)
    ts = np.linspace(-6, 6, 41)
    np.testing.assert_allclose(moved.cdf(ts), base.cdf((ts - 1.5) / 0.5), atol=1e-14, rtol=0)
    nested = mixture([(0.5, normal(-1, 1)), (0.5, gumbel(1, 0.8))]).shifted(-0.7)
    np.testing.assert_allclose(
        nested.cdf(ts),
        0.5 * normal(-1.7, 1).cdf(ts) + 0.5 * gumbel(0.3, 0.8).cdf(ts),
        atol=1e-14,
        rtol=0,
    )
    with pytest.raises(DistributionError):
        base.affine(0.0, -1.0)

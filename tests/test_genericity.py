"""Coincidence-measure sweeps: sampling, fractions, scaling, controls."""

import dataclasses
import itertools
import math

import numpy as np
import pytest

from conftest import DELTA0, PHI1_PDF, logistic_cdf
from threshold_lab import (
    CertificateMissingError,
    FamilyCertificate,
    ModelConfig,
    ParameterBox,
    SweepSpec,
    accuracy_optimal,
    accuracy_thresholds,
    certify,
    coincidence_fraction,
    fit_loglog_slope,
    foc_at_zero,
    gumbel,
    location_family,
    location_scale_family,
    logistic,
    mixture,
    mixture_linear_family,
    normal,
    sample_parameters,
    scaling_report,
)
from threshold_lab.genericity import VERDICT_CONSISTENT, VERDICT_INCONSISTENT


def interval_fraction(tau, lo=-3.0, hi=3.0):
    """Analytic measure of {mu: |(1 - 2 L(DELTA0 - mu)) * pdf0(0)| < tau}
    for the logistic location family over [lo, hi] (stdlib oracle)."""
    b = tau / (2.0 * PHI1_PDF)
    if b >= 0.5:
        return 1.0
    w = math.log((0.5 + b) / (0.5 - b))
    return max(0.0, min(hi, DELTA0 + w) - max(lo, DELTA0 - w)) / (hi - lo)


@pytest.fixture(scope="module")
def logistic_location():
    fam = location_family(logistic(0, 1), ParameterBox((-3.0,), (3.0,)))
    return fam, certify(fam)


def make_spec(fam, pair, **over):
    args = dict(family=fam, pair=pair, reward=1.0, n_samples=2000,
                tolerances=(0.1, 0.01, 0.001), seed=11, mode="foc_gap")
    args.update(over)
    return SweepSpec(**args)


def test_spec_validation(std_pair, logistic_location):
    fam, _ = logistic_location
    with pytest.raises(ValueError):
        make_spec(fam, std_pair, tolerances=(0.001, 0.01, 0.1))
    with pytest.raises(ValueError):
        make_spec(fam, std_pair, tolerances=(0.1, 0.1))
    with pytest.raises(ValueError):
        make_spec(fam, std_pair, tolerances=(0.1, -0.01))
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            make_spec(fam, std_pair, tolerances=(0.1, bad))
        with pytest.raises(ValueError, match="finite"):
            make_spec(fam, std_pair, tolerances=(bad,))
    with pytest.raises(ValueError):
        make_spec(fam, std_pair, reward=0.0)
    with pytest.raises(ValueError):
        make_spec(fam, std_pair, reward=math.inf)
    with pytest.raises(ValueError):
        make_spec(fam, std_pair, n_samples=0)
    with pytest.raises(ValueError):
        make_spec(fam, std_pair, mode="newton")
    with pytest.raises(ValueError, match="seed must be >= 0"):
        make_spec(fam, std_pair, seed=-1)


def test_sampling_deterministic_and_in_box(std_pair, logistic_location):
    fam, _ = logistic_location
    spec = make_spec(fam, std_pair, n_samples=1000, seed=7)
    a = sample_parameters(spec)
    b = sample_parameters(spec)
    assert np.array_equal(a, b)
    assert a.shape == (1000, 1)
    assert np.all((a >= -3.0) & (a <= 3.0))
    c = sample_parameters(make_spec(fam, std_pair, n_samples=1000, seed=8))
    assert not np.array_equal(a, c)


def test_certificate_required(std_pair, logistic_location):
    fam, _ = logistic_location
    with pytest.raises(CertificateMissingError):
        coincidence_fraction(make_spec(fam, std_pair), None)


def test_fractions_match_analytic_measure(std_pair, logistic_location):
    fam, cert = logistic_location
    spec = make_spec(fam, std_pair, n_samples=4000, seed=20250810)
    res = coincidence_fraction(spec, cert)
    for tol, frac in zip(res.tolerances, res.fractions):
        expected = interval_fraction(tol)
        assert frac == pytest.approx(expected, rel=0.5), (tol, frac, expected)
    # fractions shrink with the tolerance, never grow
    assert all(a >= b for a, b in zip(res.fractions, res.fractions[1:]))
    assert 0.8 <= res.scaling_slope <= 1.2


def test_fraction_per_tau_roughly_constant(std_pair, logistic_location):
    fam, cert = logistic_location
    res = coincidence_fraction(make_spec(fam, std_pair, n_samples=10000, seed=3), cert)
    ratios = [f / t for f, t in zip(res.fractions, res.tolerances) if f > 0]
    assert max(ratios) / min(ratios) < 2.0


def test_reproducibility_bit_identical(std_pair, logistic_location):
    fam, cert = logistic_location
    spec = make_spec(fam, std_pair, seed=99)
    a = coincidence_fraction(spec, cert)
    b = coincidence_fraction(spec, cert)
    assert a.fractions == b.fractions
    assert np.array_equal(a.metrics, b.metrics)
    assert np.array_equal(a.samples, b.samples)


TEMPLATES = (normal(0.3, 1.5), logistic(0, 1), gumbel(0, 1.1),
             mixture([(0.5, normal(-0.5, 1.0)), (0.5, logistic(0.5, 1.0))]))


def families_of(template):
    """One family of each kind built on the template."""
    return (
        location_family(template, ParameterBox((-3.0,), (3.0,))),
        location_scale_family(template, ParameterBox((-3.0, 0.5), (3.0, 2.0))),
        mixture_linear_family((normal(-2, 0.8), normal(2, 0.8), template),
                              ParameterBox((0.1, 0.1), (0.45, 0.45))),
    )


def test_batched_equals_scalar(std_pair, suite_pairs):
    """The batched foc_gap kernel equals foc_at_zero on each instantiated
    member exactly, for every family kind, template kind and reward."""
    pairs = [std_pair] + [next(p for name, p in suite_pairs if name.startswith(kind))
                          for kind in ("gumbel", "mixture")]
    cert = FamilyCertificate(smooth_ok=True, linear_ok=True, responsive_ok=True, evidence={})
    for template in TEMPLATES:
        for fam, pair, r in itertools.product(families_of(template), pairs, (0.5, 1.0, 2.0)):
            res = coincidence_fraction(make_spec(fam, pair, reward=r, n_samples=100, seed=5), cert)
            scalar = [foc_at_zero(ModelConfig(pair, fam.instantiate(x), r)) for x in res.samples]
            assert np.array_equal(res.foc_gaps, scalar), (fam.kind, template.kind, r)


def test_batched_accuracy_equals_scalar(std_pair):
    """threshold_distance mode runs the optimizer on all samples at once;
    each threshold equals accuracy_optimal on the instantiated member
    exactly, for every family kind, template kind and reward.  The sample
    counts straddle the lookahead depth changes: one slope call settles 8
    bisection levels for 1 row, 7 for 2, 5 for 12, 2 for 133 and 1 from 134
    rows on, while the scalar path always runs at depth 8; every family
    kind meets every count."""
    cert = FamilyCertificate(smooth_ok=True, linear_ok=True, responsive_ok=True, evidence={})
    counts = itertools.cycle((1, 2, 12, 133, 134, 200))
    for template in TEMPLATES:
        for (fam, r), n in zip(itertools.product(families_of(template), (0.5, 1.0, 2.0)), counts):
            spec = make_spec(fam, std_pair, reward=r, n_samples=n, seed=5, mode="threshold_distance")
            res = coincidence_fraction(spec, cert)
            scalar = [accuracy_optimal(ModelConfig(std_pair, fam.instantiate(x), r)).threshold for x in res.samples]
            assert np.array_equal(res.accuracy_thresholds, scalar), (fam.kind, template.kind, r, n)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="reward must be finite"):
            accuracy_thresholds(fam, res.samples, std_pair, bad)


def test_mode_consistency(std_pair, logistic_location):
    """A sample coincident by threshold distance is coincident by slope gap.

    Near the pinpoint the accuracy threshold moves half as fast as the
    parameter while the slope gap moves ~0.12 times as fast, so at equal
    tolerances the threshold-distance flag implies the slope-gap flag.
    """
    fam, cert = logistic_location
    tau = 0.05
    td = coincidence_fraction(
        make_spec(fam, std_pair, n_samples=10000, seed=21, mode="threshold_distance", tolerances=(tau,)),
        cert,
    )
    fg = coincidence_fraction(
        make_spec(fam, std_pair, n_samples=10000, seed=21, tolerances=(tau,)), cert
    )
    flagged_td = td.metrics < tau
    flagged_fg = fg.metrics < tau
    assert np.all(flagged_fg[flagged_td])
    assert np.all(np.isfinite(td.accuracy_thresholds))
    assert np.all(np.isnan(fg.accuracy_thresholds))  # not computed in foc_gap mode


def test_negative_control_fraction_one(std_pair):
    """Instantiate ignores x and the constant cost sits on the coincidence
    set, so every sample coincides and the verdict must come out negative."""
    pinned = logistic(DELTA0, 1.0)
    fam = mixture_linear_family((pinned, pinned), ParameterBox((0.2,), (0.8,)))
    cert = certify(fam)
    assert not cert.responsive_ok
    res = coincidence_fraction(make_spec(fam, std_pair, n_samples=500, seed=13), cert)
    assert res.fractions == (1.0, 1.0, 1.0)
    report = scaling_report(res)
    assert report.verdict == VERDICT_INCONSISTENT
    assert not report.consistent


def test_degenerate_fit_flagged(std_pair):
    """A family far from the coincidence set yields all-zero fractions."""
    fam = location_family(logistic(0, 1), ParameterBox((2.0,), (3.0,)))
    cert = certify(fam)
    res = coincidence_fraction(make_spec(fam, std_pair, n_samples=200, seed=1, tolerances=(0.01, 0.001)), cert)
    assert res.fractions == (0.0, 0.0)
    assert res.degenerate_fit
    assert math.isnan(res.scaling_slope)
    report = scaling_report(res)
    assert not report.consistent


def test_scaling_report_verdict_and_bootstrap(std_pair, logistic_location):
    fam, cert = logistic_location
    res = coincidence_fraction(make_spec(fam, std_pair, n_samples=10000, seed=20250810), cert)
    report = scaling_report(res)
    assert report.verdict == VERDICT_CONSISTENT
    assert report.slope_lo <= report.scaling_slope <= report.slope_hi
    assert report.smallest_fraction < 0.01
    again = scaling_report(res)
    assert (report.slope_lo, report.slope_hi) == (again.slope_lo, again.slope_hi)


def looped_bootstrap_band(result, n_resamples=200):
    """Reference: the per-tolerance np.mean loop the bootstrap replaced."""
    rng = np.random.default_rng((result.seed, 48879))
    n = result.n_samples
    slopes = []
    for _ in range(n_resamples):
        take = result.metrics[rng.integers(0, n, n)]
        fracs = tuple(float(np.mean(take < tol)) for tol in result.tolerances)
        slope, degenerate = fit_loglog_slope(result.tolerances, fracs)
        if not degenerate:
            slopes.append(slope)
    if not slopes:
        return math.nan, math.nan
    lo, hi = np.percentile(slopes, [2.5, 97.5])
    return float(lo), float(hi)


@pytest.mark.parametrize("n", [1, 7, 333, 2000, 4001])
@pytest.mark.parametrize("seed", [3, 20250810])
def test_bootstrap_counts_match_mean_loop(std_pair, logistic_location, n, seed):
    fam, cert = logistic_location
    spec = make_spec(fam, std_pair, n_samples=n, seed=seed, tolerances=(0.3, 0.1, 0.01, 0.001))
    res = coincidence_fraction(spec, cert)
    # an infinite metric (an infinite accuracy optimum) is below no tolerance
    res = dataclasses.replace(res, metrics=np.where(np.arange(n) % 5 == 4, math.inf, res.metrics))
    report = scaling_report(res)
    want = looped_bootstrap_band(res)
    np.testing.assert_array_equal((report.slope_lo, report.slope_hi), want)


def test_two_parameter_family_slope(std_pair):
    """Codimension-one zero set in a 2-d box still scales linearly."""
    fam = mixture_linear_family(
        (normal(-2, 0.8), normal(2, 0.8), logistic(0, 1)),
        ParameterBox((0.1, 0.1), (0.45, 0.45)),
    )
    cert = certify(fam)
    spec = make_spec(fam, std_pair, n_samples=8000, seed=17,
                     tolerances=(0.03, 0.01, 0.003, 0.001))
    res = coincidence_fraction(spec, cert)
    assert 0.8 <= res.scaling_slope <= 1.2


def test_fit_loglog_slope():
    slope, degenerate = fit_loglog_slope((0.1, 0.01, 0.001), (0.2, 0.02, 0.002))
    assert not degenerate
    assert slope == pytest.approx(1.0, abs=1e-12)
    slope, degenerate = fit_loglog_slope((0.1, 0.01), (0.5, 0.0))
    assert degenerate and math.isnan(slope)

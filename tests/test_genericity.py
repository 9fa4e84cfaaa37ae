"""Coincidence-measure sweeps: sampling, fractions, scaling, controls."""

import dataclasses
import itertools
import math

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import DELTA0, PHI1_PDF, logistic_cdf, suite_cost_specs
from threshold_lab import (
    CostFamily,
    FamilyCertificate,
    ModelConfig,
    ParameterBox,
    SweepResult,
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
from threshold_lab import genericity
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
    return location_family(logistic(0, 1), ParameterBox((-3.0,), (3.0,)))


def make_spec(fam, pair, **over):
    args = dict(family=fam, pair=pair, reward=1.0, n_samples=2000,
                tolerances=(0.1, 0.01, 0.001), seed=11, mode="foc_gap")
    args.update(over)
    return SweepSpec(**args)


def test_spec_validation(std_pair, logistic_location):
    fam = logistic_location
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
    for bad in (0.0, -1.0):
        with pytest.raises(ValueError, match="sweep requires a finite reward > 0"):
            make_spec(fam, std_pair, reward=bad)
    with pytest.raises(ValueError):
        make_spec(fam, std_pair, reward=math.inf)
    with pytest.raises(ValueError):
        make_spec(fam, std_pair, n_samples=0)
    with pytest.raises(ValueError):
        make_spec(fam, std_pair, mode="newton")
    with pytest.raises(ValueError, match="seed: must be >= 0"):
        make_spec(fam, std_pair, seed=-1)


def test_spec_stores_the_ladder_it_checked(std_pair, logistic_location):
    """The spec is immutable and hashable whatever sequence the ladder came
    in, and numpy integer counts are stored as ints."""
    spec = make_spec(logistic_location, std_pair, tolerances=[0.1, 0.01], n_samples=np.int64(50), seed=np.int64(3))
    assert spec.tolerances == (0.1, 0.01) and type(spec.tolerances) is tuple
    assert type(spec.n_samples) is int and type(spec.seed) is int
    hash(spec)
    with pytest.raises(ValueError, match=r"^tolerances: must be nonempty, finite and > 0, got \[\]$"):
        make_spec(logistic_location, std_pair, tolerances=())


def test_sampling_deterministic_and_in_box(std_pair, logistic_location):
    fam = logistic_location
    spec = make_spec(fam, std_pair, n_samples=1000, seed=7)
    a = sample_parameters(spec)
    b = sample_parameters(spec)
    assert np.array_equal(a, b)
    assert a.shape == (1000, 1)
    assert np.all((a >= -3.0) & (a <= 3.0))
    c = sample_parameters(make_spec(fam, std_pair, n_samples=1000, seed=8))
    assert not np.array_equal(a, c)


@pytest.mark.parametrize("reward", [0.5, 1.0, 2.0])
def test_sweep_certifies_its_family_at_its_pivot(std_pair, reward):
    """The result's certificate is its own family's at the pivot
    r * gap(0) its kernel evaluates: a location family is not linear, and
    README's counterexample (both basis CDFs 1/2 at that pivot) is not
    responsive and lies wholly on the coincidence set."""
    pivot = reward * std_pair.gap(0.0)
    for fam in families_of(logistic(0, 1)):
        res = coincidence_fraction(make_spec(fam, std_pair, reward=reward, n_samples=50, seed=1))
        assert res.certificate == certify(fam, pivot), fam.kind
        assert res.certificate.linear_ok == (fam.kind == "mixture_linear")
    readme = mixture_linear_family((normal(pivot, 1), logistic(pivot, 0.4)), ParameterBox((0.2,), (0.8,)))
    res = coincidence_fraction(make_spec(readme, std_pair, reward=reward, n_samples=200, seed=1))
    assert res.certificate == certify(readme, pivot)
    assert res.certificate.responsive_ok is False
    assert res.fractions == (1.0, 1.0, 1.0)


def test_threshold_distance_checks_the_box_once(std_pair, logistic_location, monkeypatch):
    """A sweep checks its samples against the box once, not once per
    evaluation of the cost."""
    calls = []
    members = CostFamily._members

    def counted(fam, xs):
        calls.append(np.shape(xs))
        return members(fam, xs)

    monkeypatch.setattr(CostFamily, "_members", counted)
    coincidence_fraction(make_spec(logistic_location, std_pair, n_samples=2000, mode="threshold_distance"))
    assert calls == [(2000, 1)]


def test_fit_loglog_slope_rejects_mismatched_lengths():
    """zip would drop the unmatched rung and fit the rest."""
    with pytest.raises(ValueError, match="3 tolerances but 2 fractions"):
        fit_loglog_slope((0.1, 0.01, 0.001), (0.5, 0.05))


def test_fractions_match_analytic_measure(std_pair, logistic_location):
    fam = logistic_location
    spec = make_spec(fam, std_pair, n_samples=4000, seed=20250810)
    res = coincidence_fraction(spec)
    for tol, frac in zip(res.tolerances, res.fractions):
        expected = interval_fraction(tol)
        assert frac == pytest.approx(expected, rel=0.5), (tol, frac, expected)
    # fractions shrink with the tolerance, never grow
    assert all(a >= b for a, b in zip(res.fractions, res.fractions[1:]))
    assert 0.8 <= res.scaling_slope <= 1.2


def test_fraction_per_tau_roughly_constant(std_pair, logistic_location):
    fam = logistic_location
    res = coincidence_fraction(make_spec(fam, std_pair, n_samples=10000, seed=3))
    ratios = [f / t for f, t in zip(res.fractions, res.tolerances) if f > 0]
    assert max(ratios) / min(ratios) < 2.0


def test_reproducibility_bit_identical(std_pair, logistic_location):
    fam = logistic_location
    spec = make_spec(fam, std_pair, seed=99)
    a = coincidence_fraction(spec)
    b = coincidence_fraction(spec)
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
    for template in TEMPLATES:
        for fam, pair, r in itertools.product(families_of(template), pairs, (0.5, 1.0, 2.0)):
            res = coincidence_fraction(make_spec(fam, pair, reward=r, n_samples=100, seed=5))
            scalar = [foc_at_zero(ModelConfig(pair, fam.instantiate(x), r)) for x in res.samples]
            assert np.array_equal(res.foc_gaps, scalar), (fam.kind, template.kind, r)


def test_batched_accuracy_equals_scalar(std_pair):
    """threshold_distance mode runs the optimizer on all samples at once;
    each threshold equals accuracy_optimal on the instantiated member
    exactly, for every family kind, template kind and reward.  The sample
    counts straddle the split between one row, whose slope bisection
    settles 8 levels per call as the scalar path does, and many rows,
    which settle one level per call; every family kind meets every
    count."""
    counts = itertools.cycle((1, 2, 12, 133, 134, 200))
    for template in TEMPLATES:
        for (fam, r), n in zip(itertools.product(families_of(template), (0.5, 1.0, 2.0)), counts):
            spec = make_spec(fam, std_pair, reward=r, n_samples=n, seed=5, mode="threshold_distance")
            res = coincidence_fraction(spec)
            scalar = [accuracy_optimal(ModelConfig(std_pair, fam.instantiate(x), r)).threshold for x in res.samples]
            assert np.array_equal(res.accuracy_thresholds, scalar), (fam.kind, template.kind, r, n)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="reward must be finite"):
            accuracy_thresholds(ModelConfig(std_pair, fam.at(res.samples), bad))


def test_mode_consistency(std_pair, logistic_location):
    """A sample coincident by threshold distance is coincident by slope gap.

    Near the pinpoint the accuracy threshold moves half as fast as the
    parameter while the slope gap moves ~0.12 times as fast, so at equal
    tolerances the threshold-distance flag implies the slope-gap flag.
    """
    fam = logistic_location
    tau = 0.05
    td = coincidence_fraction(
        make_spec(fam, std_pair, n_samples=10000, seed=21, mode="threshold_distance", tolerances=(tau,))
    )
    fg = coincidence_fraction(make_spec(fam, std_pair, n_samples=10000, seed=21, tolerances=(tau,)))
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
    cert = certify(fam, std_pair.gap(0.0))
    assert not cert.responsive_ok
    res = coincidence_fraction(make_spec(fam, std_pair, n_samples=500, seed=13))
    assert res.fractions == (1.0, 1.0, 1.0)
    report = scaling_report(res)
    assert report.verdict == VERDICT_INCONSISTENT
    assert not report.consistent


#: basis members on a 0.1 grid of locations and scales: two members' CDFs
#: at a pivot then differ by far more than RESPONSIVENESS_MIN_MOVE or not
#: at all, so transversality cannot hinge on the threshold itself
GRID_MEMBERS = st.builds(
    lambda make, loc, scale: make(loc / 10.0, scale / 10.0),
    st.sampled_from([normal, logistic, gumbel]),
    st.integers(-30, 30),
    st.integers(5, 30),
)
CATALOG_MEMBERS = st.one_of(st.sampled_from([cost for _, cost in suite_cost_specs()]), GRID_MEMBERS)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_responsive_iff_foc_gap_moves(std_pair, data):
    """Over mixture_linear bases drawn from the catalog, some forced to
    share G(p) (every member centred at p by a symmetric kind, so G(p) =
    1/2, or one member repeated), the certificate at the sweep's pivot
    refuses the family exactly when a seeded sweep's foc_gap is constant
    over the box to a few ulps of pdf0(0): foc_gap = (1 - 2 F(p | x)) pdf0(0),
    so 8 ulps of 1.0 in F(p | x) (at most about 2 are seen) against
    more than 1e13 when the family is transversal."""
    reward = data.draw(st.sampled_from([0.5, 1.0, 2.0]))
    pivot = reward * std_pair.gap(0.0)
    k = data.draw(st.integers(1, 3))
    centred = st.builds(lambda make, scale: make(pivot, scale / 10.0), st.sampled_from([normal, logistic]),
                        st.integers(2, 30))
    forced = data.draw(st.sampled_from(["free", "repeated", "centred"]))
    if forced == "centred":
        basis = data.draw(st.lists(centred, min_size=k + 1, max_size=k + 1))
    elif forced == "repeated":
        basis = [data.draw(CATALOG_MEMBERS)] * (k + 1)
    else:
        basis = data.draw(st.lists(st.one_of(CATALOG_MEMBERS, centred), min_size=k + 1, max_size=k + 1))
    fam = mixture_linear_family(basis, ParameterBox((0.05,) * k, (0.9 / k,) * k))
    cert = certify(fam, pivot)
    spec = make_spec(fam, std_pair, reward=reward, n_samples=64, tolerances=(0.1,),
                     seed=data.draw(st.integers(0, 2**32 - 1)))
    focs = coincidence_fraction(spec).foc_gaps
    flat = bool(np.ptp(focs) <= 2.0 * 8 * math.ulp(1.0) * std_pair.g0.pdf(0.0))
    assert cert.responsive_ok == (not flat), (forced, np.ptp(focs))


def test_degenerate_fit_flagged(std_pair):
    """A family far from the coincidence set yields all-zero fractions."""
    fam = location_family(logistic(0, 1), ParameterBox((2.0,), (3.0,)))
    res = coincidence_fraction(make_spec(fam, std_pair, n_samples=200, seed=1, tolerances=(0.01, 0.001)))
    assert res.fractions == (0.0, 0.0)
    assert res.degenerate_fit
    assert math.isnan(res.scaling_slope)
    report = scaling_report(res)
    assert not report.consistent


def test_scaling_report_verdict_and_bootstrap(std_pair, logistic_location):
    fam = logistic_location
    res = coincidence_fraction(make_spec(fam, std_pair, n_samples=10000, seed=20250810))
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


def resample_patterns(result, n_resamples=200):
    """The patterns of positive rungs among the reference loop's resamples."""
    rng = np.random.default_rng((result.seed, 48879))
    n = result.n_samples
    return {
        tuple(bool(np.any(take < tol)) for tol in result.tolerances)
        for take in (result.metrics[rng.integers(0, n, n)] for _ in range(n_resamples))
    }


@pytest.mark.parametrize("n", [1, 7, 333, 2000, 4001])
@pytest.mark.parametrize("seed", [3, 20250810])
def test_bootstrap_counts_match_mean_loop(std_pair, logistic_location, n, seed):
    _check_band_matches_loop(std_pair, logistic_location, n, seed, 200)


# the block edges: 200 (above) and 203 are not multiples of the bootstrap's
# block of resamples at n = 333, 2000 or 4001, and 1 and 7 fill less than
# one block
@pytest.mark.parametrize("n_resamples", [1, 7, 203])
@pytest.mark.parametrize("n", [1, 7, 333, 2000, 4001])
@pytest.mark.parametrize("seed", [3, 20250810])
def test_bootstrap_block_edges_match_mean_loop(std_pair, logistic_location, n, seed, n_resamples):
    _check_band_matches_loop(std_pair, logistic_location, n, seed, n_resamples)


def _check_band_matches_loop(std_pair, logistic_location, n, seed, n_resamples):
    fam = logistic_location
    spec = make_spec(fam, std_pair, n_samples=n, seed=seed, tolerances=(0.3, 0.1, 0.01, 0.001))
    res = coincidence_fraction(spec)
    # an infinite metric (an infinite accuracy optimum) is below no tolerance
    res = dataclasses.replace(res, metrics=np.where(np.arange(n) % 5 == 4, math.inf, res.metrics))
    report = scaling_report(res, n_resamples)
    want = looped_bootstrap_band(res, n_resamples)
    np.testing.assert_array_equal((report.slope_lo, report.slope_hi), want)
    assert report.n_resamples == n_resamples


def _metrics_report(seed, metrics, tolerances=(0.3, 0.1, 0.01, 0.001)):
    """A sweep result carrying the given per-sample metrics."""
    metrics = np.asarray(metrics, dtype=float)
    n = len(metrics)
    fractions = tuple(float(np.mean(metrics < tol)) for tol in tolerances)
    slope, degenerate = fit_loglog_slope(tolerances, fractions)
    return SweepResult(
        tolerances=tolerances, fractions=fractions, scaling_slope=slope, degenerate_fit=degenerate,
        n_samples=n, seed=seed, mode="foc_gap", samples=np.zeros((n, 1)), foc_gaps=metrics,
        accuracy_thresholds=np.full(n, math.nan), metrics=metrics,
        certificate=FamilyCertificate(True, True, True),
    )


_LADDERS = st.lists(st.floats(1e-300, 1e300), min_size=1, max_size=17, unique=True).map(
    lambda tols: tuple(sorted(tols, reverse=True))
)


@given(
    _LADDERS.flatmap(
        lambda tols: st.tuples(st.just(tols), st.lists(st.one_of(st.sampled_from(tols), st.floats()), min_size=1))
    )
)
def test_levels_and_fractions_match_the_masks(std_pair, logistic_location, ladder_and_focs):
    """On descending ladders of 1 to 17 rungs, level > j is metric < tol_j
    (nan, +-inf, -0.0 and metrics on a rung included), and the sweep's
    fractions are np.mean of those masks, bit for bit."""
    tolerances, focs = ladder_and_focs
    focs = np.array(focs)
    levels = genericity.coincidence_levels(focs, tolerances)
    for j, tol in enumerate(tolerances):
        np.testing.assert_array_equal(levels > j, focs < tol)
    fam = logistic_location
    spec = make_spec(fam, std_pair, n_samples=len(focs), tolerances=tolerances)
    with mock.patch.object(genericity, "foc_at_zero", lambda m: focs):
        res = coincidence_fraction(spec)
    metrics = np.abs(focs)
    np.testing.assert_array_equal(res.metrics, metrics)
    want = tuple(float(np.mean(metrics < tol)) for tol in tolerances)
    assert res.fractions == want and all(type(f) is float for f in res.fractions)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_bootstrap_mixed_rung_patterns_match_mean_loop(seed):
    """Resamples of one report that keep 2, 3 or 4 positive rungs are
    fitted in separate groups, and the band is still the loop's."""
    # one sample below each of the two smallest tolerances, a few below 0.1
    metrics = np.r_[0.0005, 0.005, np.full(3, 0.05), np.full(15, 0.2), np.full(20, 0.5)]
    res = _metrics_report(seed, metrics)
    patterns = resample_patterns(res)
    assert {sum(p) for p in patterns} >= {2, 3, 4}
    report = scaling_report(res)
    np.testing.assert_array_equal((report.slope_lo, report.slope_hi), looped_bootstrap_band(res))
    assert math.isfinite(report.slope_lo)


def test_bootstrap_all_resamples_degenerate_gives_nan_band():
    """No resample has two positive rungs: the band is nan, as in the loop."""
    res = _metrics_report(4, np.r_[np.full(30, 0.2), np.full(30, 0.5)])
    assert resample_patterns(res) == {(True, False, False, False)}
    report = scaling_report(res)
    assert math.isnan(report.slope_lo) and math.isnan(report.slope_hi)
    assert all(math.isnan(v) for v in looped_bootstrap_band(res))


@pytest.mark.parametrize("n_resamples", [0, -1])
def test_scaling_report_rejects_fewer_than_one_resample(n_resamples):
    """No resample would give a nan band reported as a bootstrap, and a
    negative count would fail inside numpy without naming the argument."""
    res = _metrics_report(4, np.r_[np.full(30, 0.2), np.full(30, 0.5)])
    with pytest.raises(ValueError, match="n_resamples must be >= 1"):
        scaling_report(res, n_resamples)


@pytest.mark.parametrize("n_resamples", [2.5, True])
def test_scaling_report_resamples_are_an_integer(n_resamples):
    """A fractional count would fail inside numpy without naming the
    argument, and a bool is not a count."""
    res = _metrics_report(4, np.r_[np.full(30, 0.2), np.full(30, 0.5)])
    with pytest.raises(ValueError, match=rf"^n_resamples must be an integer, got {n_resamples!r}$"):
        scaling_report(res, n_resamples)


def test_two_parameter_family_slope(std_pair):
    """Codimension-one zero set in a 2-d box still scales linearly."""
    fam = mixture_linear_family(
        (normal(-2, 0.8), normal(2, 0.8), logistic(0, 1)),
        ParameterBox((0.1, 0.1), (0.45, 0.45)),
    )
    spec = make_spec(fam, std_pair, n_samples=8000, seed=17,
                     tolerances=(0.03, 0.01, 0.003, 0.001))
    res = coincidence_fraction(spec)
    assert 0.8 <= res.scaling_slope <= 1.2


def single_fit_slope(tolerances, fractions):
    """Reference: one lstsq per fraction vector, the loop the batched fit replaced."""
    pts = [(math.log(t), math.log(f)) for t, f in zip(tolerances, fractions) if f > 0.0]
    if len(pts) < 2:
        return math.nan
    x, y = (np.asarray(v) for v in zip(*pts))
    return float(np.linalg.lstsq(np.vstack([np.ones_like(x), x]).T, y, rcond=None)[0][1])


def test_fit_slopes_rows_match_single_fits():
    """Each row of the grouped fit equals its own solve, bit for bit, for
    every pattern of zero rungs (not only the prefixes a ladder gives)."""
    rng = np.random.default_rng(7)
    tolerances = (0.5, 0.2, 0.05, 0.01, 0.002)
    fractions = rng.integers(0, 5000, (600, len(tolerances))) / 5000
    fractions[rng.random(fractions.shape) < 0.3] = 0.0
    got = genericity._fit_slopes(tolerances, fractions)
    want = [single_fit_slope(tolerances, row) for row in fractions]
    np.testing.assert_array_equal(got, want)
    assert np.isnan(got).any() and len({tuple(row > 0) for row in fractions}) == 2 ** len(tolerances)


def test_fit_loglog_slope():
    slope, degenerate = fit_loglog_slope((0.1, 0.01, 0.001), (0.2, 0.02, 0.002))
    assert not degenerate
    assert slope == pytest.approx(1.0, abs=1e-12)
    slope, degenerate = fit_loglog_slope((0.1, 0.01), (0.5, 0.0))
    assert degenerate and math.isnan(slope)

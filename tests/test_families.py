"""Cost families: instantiation, box guards, and the three certificates."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from threshold_lab import (
    CostFamily,
    DegenerateWeightsError,
    DistributionError,
    OutOfBoxError,
    ParameterBox,
    certify,
    check_linearity,
    check_responsiveness,
    check_smoothness,
    gumbel,
    location_family,
    location_scale_family,
    logistic,
    make_cost_family,
    mixture,
    mixture_linear_family,
    normal,
)

BOX1 = ParameterBox((-3.0,), (3.0,))


def test_parameter_box_validation():
    with pytest.raises(DistributionError):
        ParameterBox((0.0,), (0.0,))
    with pytest.raises(DistributionError):
        ParameterBox((1.0, 0.0), (2.0,))
    box = ParameterBox((0.0, -1.0), (1.0, 1.0))
    assert box.k == 2
    assert box.contains([0.5, 0.0])
    assert not box.contains([1.5, 0.0])
    assert len(box.corners()) == 4


def test_instantiate_location():
    fam = location_family(logistic(0, 1), BOX1)
    assert fam.instantiate([0.7]).params == (0.7, 1.0)


def test_instantiate_mixture_linear():
    fam = mixture_linear_family((normal(-2, 1), normal(2, 1)), ParameterBox((0.05,), (0.95,)))
    inst = fam.instantiate([0.25])
    weights = [w for w, _ in inst.components]
    assert weights == pytest.approx([0.25, 0.75], abs=1e-15)


def test_instantiate_location_scale():
    fam = location_scale_family(normal(0.5, 2.0), ParameterBox((-1.0, 0.5), (1.0, 2.0)))
    inst = fam.instantiate([0.3, 1.5])
    assert inst.params == pytest.approx((0.3 + 1.5 * 0.5, 3.0))


def test_out_of_box():
    fam = location_family(logistic(0, 1), BOX1)
    with pytest.raises(OutOfBoxError):
        fam.instantiate([99.0])
    with pytest.raises(OutOfBoxError):
        fam.instantiate([0.0, 0.0])  # wrong dimension


def test_degenerate_weights_guard():
    # the factory refuses a box touching zero weight; the raw constructor
    # bypasses it and the instantiate-time guard must catch the degeneracy
    with pytest.raises(DistributionError):
        mixture_linear_family((normal(-1, 1), normal(1, 1)), ParameterBox((0.0,), (0.5,)))
    raw = CostFamily("mixture_linear", ParameterBox((0.0,), (0.5,)), basis=(normal(-1, 1), normal(1, 1)))
    with pytest.raises(DegenerateWeightsError):
        raw.instantiate([0.0])


def test_cdf_at_guards():
    fam = location_family(logistic(0, 1), BOX1)
    with pytest.raises(OutOfBoxError):
        fam.cdf_at(0.0, [[0.0], [99.0]])
    with pytest.raises(OutOfBoxError):
        fam.cdf_at(0.0, np.zeros((3, 2)))  # (n, k + 1)
    raw = CostFamily("mixture_linear", ParameterBox((0.0,), (0.5,)), basis=(normal(-1, 1), normal(1, 1)))
    with pytest.raises(DegenerateWeightsError):
        raw.cdf_at(0.0, [[0.25], [0.0]])
    # a raw location_scale box reaching a nonpositive scale fails like instantiate
    raw = CostFamily("location_scale", ParameterBox((-1.0, -1.0), (1.0, 1.0)), template=normal(0, 1))
    with pytest.raises(DistributionError):
        raw.instantiate([0.0, -0.5])
    with pytest.raises(DistributionError):
        raw.cdf_at(0.0, [[0.0, 0.5], [0.0, -0.5]])


CDF_AT_FAMILIES = {
    "location": location_family(gumbel(0, 1.1), BOX1),
    "location_scale": location_scale_family(
        mixture([(0.5, normal(-0.5, 1.0)), (0.5, logistic(0.5, 1.0))]), ParameterBox((-3.0, 0.5), (3.0, 2.0))
    ),
    "mixture_linear": mixture_linear_family(
        (normal(-2, 0.8), normal(2, 0.8), logistic(0, 1)), ParameterBox((0.1, 0.1), (0.45, 0.45))
    ),
}


@pytest.mark.parametrize("kind", sorted(CDF_AT_FAMILIES))
@settings(max_examples=60, deadline=None)
@given(data=st.data(), t=st.floats(-8.0, 8.0))
def test_cdf_at_matches_instantiate(kind, data, t):
    fam = CDF_AT_FAMILIES[kind]
    row = st.tuples(*(st.floats(lo, hi) for lo, hi in zip(fam.box.lower, fam.box.upper)))
    xs = np.array(data.draw(st.lists(row, min_size=1, max_size=20)))
    got = fam.cdf_at(t, xs)
    assert got.shape == (len(xs),)
    for i, x in enumerate(xs):
        assert got[i] == fam.instantiate(x).cdf(t)


def test_box_dimension_must_match_kind():
    with pytest.raises(DistributionError):
        location_family(logistic(0, 1), ParameterBox((0.0, 0.0), (1.0, 1.0)))
    with pytest.raises(DistributionError):
        location_scale_family(normal(0, 1), BOX1)
    with pytest.raises(DistributionError):
        location_scale_family(normal(0, 1), ParameterBox((-1.0, -0.5), (1.0, 2.0)))  # scale axis <= 0
    with pytest.raises(DistributionError):
        mixture_linear_family((normal(-1, 1), normal(1, 1)), ParameterBox((0.1, 0.1), (0.4, 0.4)))


def test_instantiate_deterministic():
    fam = mixture_linear_family(
        (normal(-2, 0.8), normal(2, 0.8), logistic(0, 1)), ParameterBox((0.1, 0.1), (0.45, 0.45))
    )
    ts = np.linspace(-5, 5, 101)
    a = fam.instantiate([0.2, 0.3]).cdf(ts)
    b = fam.instantiate([0.2, 0.3]).cdf(ts)
    assert np.array_equal(a, b)


def test_linearity_blend_property_mixture():
    fam = mixture_linear_family(
        (normal(-2, 0.8), normal(2, 0.8), logistic(0, 1)), ParameterBox((0.1, 0.1), (0.45, 0.45))
    )
    rng = np.random.default_rng(5)
    ts = np.linspace(-6, 6, 25)
    for _ in range(20):
        x, y = fam.box.sample(rng, 2)
        alpha = float(rng.uniform())
        mid = fam.instantiate(alpha * x + (1 - alpha) * y).pdf(ts)
        blend = alpha * fam.instantiate(x).pdf(ts) + (1 - alpha) * fam.instantiate(y).pdf(ts)
        np.testing.assert_allclose(mid, blend, atol=1e-12, rtol=0)


def test_certificates_by_kind():
    mix = mixture_linear_family(
        (normal(-2, 0.8), normal(2, 0.8), logistic(0, 1)), ParameterBox((0.1, 0.1), (0.45, 0.45))
    )
    cert = certify(mix)
    assert cert.smooth_ok and cert.linear_ok and cert.responsive_ok and cert.all_ok

    for template in (normal(0, 1), logistic(0, 1)):
        cert = certify(location_family(template, BOX1))
        assert cert.smooth_ok and cert.responsive_ok
        assert not cert.linear_ok  # density at the midpoint mean is not the blend
        assert not cert.all_ok

    cert = certify(location_scale_family(normal(0, 1), ParameterBox((-1.0, 0.5), (1.0, 2.0))))
    assert cert.smooth_ok and cert.responsive_ok and not cert.linear_ok


def test_constant_family_not_responsive():
    same = logistic(0, 1)
    fam = mixture_linear_family((same, same), ParameterBox((0.2,), (0.8,)))
    ok, evidence = check_responsiveness(fam)
    assert not ok
    assert evidence["n_moved"] == 0
    assert not certify(fam).responsive_ok


def test_family_ignoring_one_axis_not_responsive():
    b = logistic(0, 1)
    fam = mixture_linear_family((normal(-1, 1), b, b), ParameterBox((0.2, 0.2), (0.4, 0.4)))
    ok, evidence = check_responsiveness(fam)
    assert not ok
    # exactly the probes along the ignored axis fail to move the CDF
    assert evidence["n_moved"] == evidence["n_probes_run"] // 2


def test_responsiveness_monotone_in_epsilon():
    fam = location_family(logistic(0, 1), BOX1)
    assert check_responsiveness(fam, epsilon=0.01, seed=9)[0]
    assert check_responsiveness(fam, epsilon=0.005, seed=9)[0]


def test_smoothness_evidence():
    ok, evidence = check_smoothness(location_family(logistic(0, 1), BOX1))
    assert ok
    assert evidence["max_cdf_err"] < 1e-6
    assert evidence["max_pdf_err"] < 1e-5


def test_linearity_counterexample_magnitude():
    ok, evidence = check_linearity(location_family(normal(0, 1), BOX1))
    assert not ok
    assert evidence["max_blend_err"] > 1e-3  # an O(1) failure, not a tolerance artifact


def test_make_cost_family_dispatch():
    fam = make_cost_family(
        "location", BOX1, template=logistic(0, 1)
    )
    assert fam.kind == "location"
    with pytest.raises(DistributionError):
        make_cost_family("spline", BOX1, template=logistic(0, 1))

"""Cost families: instantiation, box guards, and the three certificates."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, event, given, settings
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
from threshold_lab.distributions import CDF_PDF_TOL, PDF_FLOOR, PDF_PRIME_TOL, derivative_consistency
from threshold_lab.families import LINEARITY_TOL, RESPONSIVENESS_MIN_MOVE

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
    # the factory refuses a box touching zero weight, as the raw
    # constructor does (UNBUILDABLE below)
    with pytest.raises(DegenerateWeightsError):
        mixture_linear_family((normal(-1, 1), normal(1, 1)), ParameterBox((0.0,), (0.5,)))
    basis = (normal(-1, 1), normal(1, 1), logistic(0, 1))
    with pytest.raises(DegenerateWeightsError):  # 1 - sum(x) is 0 at the upper corner
        CostFamily("mixture_linear", ParameterBox((0.2, 0.3), (0.5, 0.5)), basis=basis)


#: raw families with a box corner whose member cannot be built, and the
#: exception construction raises for each
UNBUILDABLE = [
    # a zero mixture weight at the lower corner
    (
        dict(kind="mixture_linear", box=ParameterBox((0.0,), (0.5,)), basis=(normal(-1, 1), normal(1, 1))),
        DegenerateWeightsError,
    ),
    # a negative scale
    (dict(kind="location_scale", box=ParameterBox((-1.0, -1.0), (1.0, 1.0)), template=normal(0, 1)), DistributionError),
    # a location that overflows
    (dict(kind="location", box=ParameterBox((1e308,), (1.5e308,)), template=normal(1e308, 1)), DistributionError),
    # a scale that underflows to 0
    (
        dict(kind="location_scale", box=ParameterBox((-1.0, 1e-200), (1.0, 2e-200)), template=normal(0, 1e-200)),
        DistributionError,
    ),
    # a location that overflows only at the corner (lower shift, upper scale)
    (
        dict(kind="location_scale", box=ParameterBox((-1e308, 1e-3), (1e307, 10.0)), template=normal(-1e307, 1)),
        DistributionError,
    ),
]


def test_construction_refuses_unbuildable_members():
    """A directly constructed family passes the factories' gate: members
    that cannot be built are refused when the family is built, without
    numpy warnings, so no evaluator or certificate ever sees them."""
    for fields, error in UNBUILDABLE:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(error):
                CostFamily(**fields)


def _assert_batched_guards(method):
    """cdf_at / pdf_at keep instantiate's box checks as array checks."""
    fam = location_family(logistic(0, 1), BOX1)
    with pytest.raises(OutOfBoxError):
        getattr(fam, method)(0.0, [[0.0], [99.0]])
    with pytest.raises(OutOfBoxError):
        getattr(fam, method)(0.0, np.zeros((3, 2)))  # (n, k + 1)
    with pytest.raises(OutOfBoxError):
        getattr(fam, method)(0.0, np.zeros(3))  # not a matrix


def test_cdf_at_guards():
    _assert_batched_guards("cdf_at")


def test_pdf_at_guards():
    _assert_batched_guards("pdf_at")


#: locations near zero and near either end of the float range
EDGE_LOCS = st.one_of(st.floats(-10.0, 10.0), st.floats(1e307, 1.7e308), st.floats(-1.7e308, -1e307))
EDGE_BASIS = (normal(-1, 1), normal(1, 1), logistic(0, 1), gumbel(0.5, 1))


def _nudge(x, steps):
    """x moved by ``steps`` ulps."""
    for _ in range(abs(steps)):
        x = math.nextafter(x, math.copysign(math.inf, steps))
    return x


@st.composite
def _edge_families(draw):
    """Constructor fields of a family whose box reaches the edge of
    validity: locations near +-1.7e308, template and axis scales down to
    1e-200, or mixture boxes whose upper corner sums to 1 within a few ulps."""
    kind = draw(st.sampled_from(["location", "location_scale", "mixture_linear"]))
    if kind == "mixture_linear":
        k = draw(st.integers(1, 3))
        upper = [draw(st.floats(0.01, 0.9 / k)) for _ in range(k - 1)]
        upper.append(_nudge(1.0 - math.fsum(upper), draw(st.integers(-4, 4))))
        inside = [st.floats(0.0, u, exclude_min=True, exclude_max=True) for u in upper]
        lower = [draw(st.one_of(st.floats(-0.05, 0.0), below)) for below in inside]
        return dict(kind=kind, box=ParameterBox(tuple(lower), tuple(upper)), basis=EDGE_BASIS[: k + 1])
    leaf = st.builds(
        lambda make, loc, scale: make(loc, scale),
        st.sampled_from([normal, logistic, gumbel]),
        EDGE_LOCS,
        st.one_of(st.floats(1e-200, 1e-150), st.floats(1e-3, 10.0)),
    )
    template = draw(st.one_of(leaf, st.builds(lambda a, b: mixture([(0.5, a), (0.5, b)]), leaf, leaf)))
    lo, hi = sorted([draw(EDGE_LOCS), draw(EDGE_LOCS)])
    assume(lo < hi)
    lower, upper = [lo], [hi]
    if kind == "location_scale":
        lower.append(draw(st.one_of(st.just(0.0), st.floats(1e-200, 1e-150), st.floats(1e-3, 10.0))))
        upper.append(draw(st.floats(lower[1], draw(st.sampled_from([100.0, 1e300])), exclude_min=True)))
    return dict(kind=kind, box=ParameterBox(tuple(lower), tuple(upper)), template=template)


def _corner_member(fields, corner):
    """The member at a box corner, built as a ScalarDistribution the way
    ``instantiate`` builds it; raises DistributionError where it cannot be."""
    if fields["kind"] == "mixture_linear":
        weights = [*corner, 1.0 - corner[None].sum(axis=-1)[0]]
        return mixture([(float(w), d) for w, d in zip(weights, fields["basis"])])
    return fields["template"].affine(*(float(v) for v in corner))


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_gate_is_the_corner_members(data):
    """Construction raises iff the member at some box corner cannot be
    built, and a family that is built instantiates anywhere in its box:
    member parameters are monotone in each coordinate, rounding included."""
    fields = data.draw(_edge_families())
    box = fields["box"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            for corner in box.corners():
                _corner_member(fields, corner)
            corners_build = True
        except DistributionError:
            corners_build = False
        try:
            fam = CostFamily(**fields)
        except DistributionError:
            event("refused " + fields["kind"])
            assert not corners_build
            return
        event("built " + fields["kind"])
        assert corners_build
        row = st.tuples(*(st.floats(lo, hi) for lo, hi in zip(box.lower, box.upper)))
        for x in data.draw(st.lists(row, min_size=1, max_size=10)):
            fam.instantiate(x)


def test_pdf_at_keeps_floor():
    """Deep in a tail the density underflows; pdf_at floors it at
    PDF_FLOOR exactly as instantiate(x).pdf does."""
    fam = mixture_linear_family((normal(-1, 0.5), gumbel(1, 0.5)), ParameterBox((0.2,), (0.8,)))
    xs = np.array([[0.2], [0.5], [0.8]])
    got = fam.pdf_at(-60.0, xs)
    assert np.all(got == PDF_FLOOR)
    assert [fam.instantiate(x).pdf(-60.0) for x in xs] == got.tolist()


CDF_AT_FAMILIES = {
    "location": location_family(gumbel(0, 1.1), BOX1),
    "location_scale": location_scale_family(
        mixture([(0.5, normal(-0.5, 1.0)), (0.5, logistic(0.5, 1.0))]), ParameterBox((-3.0, 0.5), (3.0, 2.0))
    ),
    "mixture_linear": mixture_linear_family(
        (normal(-2, 0.8), normal(2, 0.8), logistic(0, 1)), ParameterBox((0.1, 0.1), (0.45, 0.45))
    ),
}


def _assert_matches_instantiate(fam, method, data):
    """``<method>_at``, or the pdf' dispatch, over a parameter matrix
    equals the scalar path bit for bit, with t a scalar, one point per
    row, or points shared by every row (a (1, m) array)."""
    row = st.tuples(*(st.floats(lo, hi) for lo, hi in zip(fam.box.lower, fam.box.upper)))
    xs = np.array(data.draw(st.lists(row, min_size=1, max_size=20)))
    n = len(xs)
    point = st.floats(-8.0, 8.0)
    shape = data.draw(st.sampled_from(["scalar", "per_row", "shared"]))
    if shape == "scalar":
        t = data.draw(point)
        ts = np.full((n, 1), t)
    elif shape == "per_row":
        t = np.array(data.draw(st.lists(point, min_size=n, max_size=n)))
        ts = t[:, None]
    else:
        t = np.array([data.draw(st.lists(point, min_size=1, max_size=5))])
        ts = np.repeat(t, n, axis=0)
    # pdf' has no public batched method; cdf_at and pdf_at share its dispatch
    got = fam._eval_at(method, t, xs) if method == "pdf_prime" else getattr(fam, f"{method}_at")(t, xs)
    assert got.shape == (ts.shape if shape == "shared" else (n,))
    got = got.reshape(n, -1)
    for i, x in enumerate(xs):
        assert got[i].tolist() == getattr(fam.instantiate(x), method)(ts[i]).tolist()


@pytest.mark.parametrize("kind", sorted(CDF_AT_FAMILIES))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_cdf_at_matches_instantiate(kind, data):
    _assert_matches_instantiate(CDF_AT_FAMILIES[kind], "cdf", data)


@pytest.mark.parametrize("kind", sorted(CDF_AT_FAMILIES))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_pdf_at_matches_instantiate(kind, data):
    _assert_matches_instantiate(CDF_AT_FAMILIES[kind], "pdf", data)


@pytest.mark.parametrize("kind", sorted(CDF_AT_FAMILIES))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_pdf_prime_at_matches_instantiate(kind, data):
    _assert_matches_instantiate(CDF_AT_FAMILIES[kind], "pdf_prime", data)


def test_box_dimension_must_match_kind():
    with pytest.raises(DistributionError):
        location_family(logistic(0, 1), ParameterBox((0.0, 0.0), (1.0, 1.0)))
    with pytest.raises(DistributionError):
        location_scale_family(normal(0, 1), BOX1)
    with pytest.raises(DistributionError):
        location_scale_family(normal(0, 1), ParameterBox((-1.0, -0.5), (1.0, 2.0)))  # scale axis <= 0
    with pytest.raises(DistributionError):
        mixture_linear_family((normal(-1, 1), normal(1, 1)), ParameterBox((0.1, 0.1), (0.4, 0.4)))


def test_members_must_be_distributions():
    """A missing template or a basis of numbers is refused at construction
    with DistributionError, not with an AttributeError at first use."""
    box = ParameterBox((0.0,), (1.0,))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DistributionError, match="template"):
            make_cost_family("location", box)
        with pytest.raises(DistributionError, match="basis"):
            mixture_linear_family((1.0, 2.0), box)


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
    with pytest.raises(ValueError, match="epsilon must be > 0"):
        check_responsiveness(fam, epsilon=0.0)


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


def _linearity_loop(fam, n_triples=50, n_points=20, seed=0):
    """The per-triple check_linearity loop that the array version replaced."""
    rng = np.random.default_rng(seed)
    ts = rng.uniform(-6.0, 6.0, n_points)
    worst = 0.0
    for _ in range(n_triples):
        x, y = fam.box.sample(rng, 2)
        alpha = rng.uniform(0.0, 1.0)
        mid = alpha * x + (1.0 - alpha) * y
        blend = alpha * fam.instantiate(x).pdf(ts) + (1.0 - alpha) * fam.instantiate(y).pdf(ts)
        err = float(np.max(np.abs(fam.instantiate(mid).pdf(ts) - blend)))
        worst = max(worst, err)
    return worst < LINEARITY_TOL, {"max_blend_err": worst, "n_triples": n_triples}


def _responsiveness_loop(fam, epsilon=0.01, n_probe=200, seed=0):
    """The per-probe check_responsiveness loop that the array version replaced."""
    rng = np.random.default_rng(seed)
    ts = np.linspace(-10.0, 10.0, 401)
    centers = fam.box.sample(rng, n_probe)
    smallest = math.inf
    probes = moved = 0
    for x in centers:
        base = fam.instantiate(x).cdf(ts)
        for axis in range(fam.k):
            delta = rng.uniform(-epsilon, epsilon)
            x_prime = x.copy()
            x_prime[axis] += delta
            x_prime = fam.box.clip(x_prime)
            if np.array_equal(x_prime, x):
                continue
            probes += 1
            sup = float(np.max(np.abs(base - fam.instantiate(x_prime).cdf(ts))))
            smallest = min(smallest, sup)
            if sup > RESPONSIVENESS_MIN_MOVE:
                moved += 1
    ok = probes > 0 and moved == probes
    return ok, {
        "epsilon": epsilon,
        "n_probe": n_probe,
        "n_probes_run": probes,
        "n_moved": moved,
        "min_sup_move": None if smallest is math.inf else smallest,
    }


def _max_nan(a, b):
    """max(a, b), but nan if either is nan, as np.max has it."""
    return math.nan if math.isnan(a) or math.isnan(b) else max(a, b)


def _equal_nan(a, b):
    """a == b for (ok, evidence) pairs, with nan equal to nan (two nan
    floats make dict == False)."""
    return repr(a) == repr(b)


def _smoothness_loop(fam, n_points=20, seed=0):
    """The per-member check_smoothness loop that the array version replaced."""
    rng = np.random.default_rng(seed)
    xs = fam.box.sample(rng, n_points)
    ts = rng.uniform(-8.0, 8.0, n_points)
    worst_cdf = worst_pdf = 0.0
    for x, t in zip(xs, ts):
        cdf_err, pdf_err = derivative_consistency(fam.instantiate(x), np.array([t]))
        worst_cdf = _max_nan(worst_cdf, cdf_err)
        worst_pdf = _max_nan(worst_pdf, pdf_err)
    ok = worst_cdf < CDF_PDF_TOL and worst_pdf < PDF_PRIME_TOL
    return ok, {"max_cdf_err": worst_cdf, "max_pdf_err": worst_pdf, "n_points": n_points}


def _pinned_families():
    """The benchmark's three family kinds over each benchmark catalog cost,
    plus the constant, ignored-axis and 3-axis mixture_linear families,
    two narrow normal location families, on whose CDF steps the coarse
    responsiveness bound is loose, a one-ulp box, on which clipping cancels
    some probes, and a narrow gumbel whose smoothness errors are nan."""
    costs = [
        logistic(0.0, 1.0),
        normal(0.0, 1.2),
        normal(0.3, 1.5),
        gumbel(0.0, 1.1),
        mixture([(0.5, normal(-0.5, 1.0)), (0.5, normal(0.5, 1.0))]),
    ]
    fams = []
    for cost in costs:
        fams.append(location_family(cost, BOX1))
        fams.append(location_scale_family(cost, ParameterBox((-3.0, 0.5), (3.0, 2.0))))
        fams.append(
            mixture_linear_family((normal(-2, 0.8), normal(2, 0.8), cost), ParameterBox((0.1, 0.1), (0.45, 0.45)))
        )
    same = logistic(0, 1)
    fams.append(mixture_linear_family((same, same), ParameterBox((0.2,), (0.8,))))
    fams.append(mixture_linear_family((normal(-1, 1), same, same), ParameterBox((0.2, 0.2), (0.4, 0.4))))
    fams.append(
        mixture_linear_family(
            (normal(-2, 0.8), normal(2, 0.8), logistic(0, 1), gumbel(0.5, 1.0)),
            ParameterBox((0.1, 0.1, 0.1), (0.3, 0.3, 0.3)),
        )
    )
    fams.append(location_family(normal(0, 0.05), BOX1))
    fams.append(location_family(normal(0, 0.02), BOX1))
    fams.append(location_family(normal(0, 1), ParameterBox((1.0,), (1.0 + 2.0**-52,))))
    # far in a narrow gumbel's left tail pdf' is nan, and so are the errors
    fams.append(location_family(gumbel(0, 0.001), ParameterBox((8.5,), (9.0,))))
    return fams


PINNED_FAMILIES = _pinned_families()


@pytest.mark.parametrize("seed", [0, 9, 123])
def test_array_checks_equal_loops(seed):
    """check_responsiveness, check_linearity and check_smoothness draw the
    old loops' random numbers in the same order and return identical
    (ok, evidence), nan errors included."""
    unrun = 0
    for fam in PINNED_FAMILIES:
        assert _equal_nan(check_smoothness(fam, seed=seed), _smoothness_loop(fam, seed=seed))
        assert _equal_nan(check_smoothness(fam, n_points=3, seed=seed), _smoothness_loop(fam, n_points=3, seed=seed))
        for epsilon in (0.01, 0.5, 10.0):
            got = check_responsiveness(fam, epsilon=epsilon, seed=seed)
            assert got == _responsiveness_loop(fam, epsilon=epsilon, seed=seed)
            unrun += got[1]["n_probes_run"] < got[1]["n_probe"] * fam.k
        assert check_linearity(fam, seed=seed) == _linearity_loop(fam, seed=seed)
        assert check_linearity(fam, n_triples=7, n_points=3, seed=seed) == _linearity_loop(
            fam, n_triples=7, n_points=3, seed=seed
        )
    assert unrun > 0
    narrow = PINNED_FAMILIES[-1]
    assert math.isnan(derivative_consistency(narrow.instantiate([8.75]), np.array([0.0]))[1])
    ok, evidence = check_smoothness(narrow, seed=seed)
    assert math.isnan(evidence["max_pdf_err"]) and not ok


@settings(max_examples=30, deadline=None)
@given(
    kind=st.sampled_from([normal, logistic, gumbel]),
    scale=st.floats(0.02, 3.0),
    epsilon=st.floats(1e-4, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_responsiveness_equals_loop(kind, scale, epsilon, seed):
    """The coarse-to-fine sup gives the evidence of the full sup of every probe."""
    fam = location_family(kind(0.0, scale), BOX1)
    assert check_responsiveness(fam, epsilon=epsilon, seed=seed) == _responsiveness_loop(fam, epsilon=epsilon, seed=seed)

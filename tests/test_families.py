"""Cost families: instantiation, box guards, the blend identity and the certificate."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from conftest import DELTA0
from threshold_lab import (
    CostFamily,
    DegenerateWeightsError,
    DistributionError,
    OutOfBoxError,
    ParameterBox,
    certify,
    gumbel,
    location_family,
    location_scale_family,
    logistic,
    make_cost_family,
    mixture,
    mixture_linear_family,
    normal,
)
from threshold_lab.distributions import PDF_FLOOR
from threshold_lab.families import RESPONSIVENESS_MIN_MOVE, _leaf_params

BOX1 = ParameterBox((-3.0,), (3.0,))
#: the demo model's prevalence pivot r * gap(0) (r = 1)
PIVOT = DELTA0


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
    """Members at an array of rows keep instantiate's box checks as array
    checks."""
    fam = location_family(logistic(0, 1), BOX1)
    with pytest.raises(OutOfBoxError):
        getattr(fam.at([[0.0], [99.0]]), method)(0.0)
    with pytest.raises(OutOfBoxError):
        getattr(fam.at(np.zeros((3, 2))), method)(0.0)  # (n, k + 1)
    with pytest.raises(OutOfBoxError):
        getattr(fam.at(np.zeros(3)), method)(0.0)  # not a matrix


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
    """Deep in a tail the density underflows; the members' pdf floors it
    at PDF_FLOOR exactly as instantiate(x).pdf does."""
    fam = mixture_linear_family((normal(-1, 0.5), gumbel(1, 0.5)), ParameterBox((0.2,), (0.8,)))
    xs = np.array([[0.2], [0.5], [0.8]])
    got = fam.at(xs).pdf(-60.0)
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
    """``<method>`` of the members at a parameter matrix, or their pdf'
    dispatch, equals the scalar path bit for bit, with t a scalar, one
    point per row, or points shared by every row (a (1, m) array)."""
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
    # pdf' has no public batched method; cdf and pdf share its dispatch
    members = fam.at(xs)
    got = members._evaluate(method, t) if method == "pdf_prime" else getattr(members, method)(t)
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


@pytest.mark.parametrize("kind", sorted(CDF_AT_FAMILIES))
def test_member_rows_evaluate_like_the_whole(kind):
    """``members[rows]`` evaluates bit for bit like the same rows of the
    whole, for slices and index arrays, with t shared by every row or one
    point per row."""
    fam = CDF_AT_FAMILIES[kind]
    members = fam.at(fam.box.sample(np.random.default_rng(4), 50))
    shared = np.linspace(-8.0, 8.0, 9)[None, :]
    per_row = np.linspace(-8.0, 8.0, 50)[:, None]
    for rows in (slice(0, 32), slice(32, 50), slice(None), np.array([3, 3, 49, 0])):
        for method in ("cdf", "pdf"):
            whole = getattr(members, method)
            part = getattr(members[rows], method)
            assert part(shared).tolist() == whole(shared)[rows].tolist()
            assert part(per_row[rows]).tolist() == whole(per_row)[rows].tolist()
            assert part(0.5).tolist() == whole(0.5)[rows].tolist()
    assert len(members[slice(32, 50)]) == 18


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


#: the benchmark catalog costs
CATALOG_COSTS = [
    logistic(0.0, 1.0),
    normal(0.0, 1.2),
    normal(0.3, 1.5),
    gumbel(0.0, 1.1),
    mixture([(0.5, normal(-0.5, 1.0)), (0.5, normal(0.5, 1.0))]),
]
#: basis members: the catalog costs, and catalog kinds at drawn locations and scales
CATALOG_MEMBERS = st.one_of(
    st.sampled_from(CATALOG_COSTS),
    st.builds(
        lambda make, loc, scale: make(loc, scale),
        st.sampled_from([normal, logistic, gumbel]),
        st.floats(-5.0, 5.0),
        st.floats(0.2, 3.0),
    ),
)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_linearity_blend_property_mixture(data):
    """A mixture_linear density is affine in x: f(t | a*x + (1-a)*y) is
    the a-blend of f(t | x) and f(t | y), to rounding, at points t within
    six scales of every basis member's own locations."""
    basis = data.draw(st.lists(CATALOG_MEMBERS, min_size=2, max_size=4))
    k = len(basis) - 1
    lower = [data.draw(st.floats(0.01, 0.5 / k)) for _ in range(k)]
    upper = [lo + data.draw(st.floats(1e-3, 0.9 / k - lo)) for lo in lower]
    fam = mixture_linear_family(basis, ParameterBox(tuple(lower), tuple(upper)))
    row = st.tuples(*(st.floats(lo, hi) for lo, hi in zip(lower, upper)))
    x, y = np.array(data.draw(row)), np.array(data.draw(row))
    alpha = data.draw(st.floats(0.0, 1.0))
    # rounding can carry the blend an ulp past a face of the box
    mid = fam.box.clip(alpha * x + (1.0 - alpha) * y)
    zs = np.array(data.draw(st.lists(st.floats(-6.0, 6.0), min_size=1, max_size=8)))
    ts = np.concatenate([loc + scale * zs for d in basis for loc, scale in _leaf_params(d)])
    at_x, at_y, at_mid = fam.at(np.array([x, y, mid])).pdf(ts[None, :])
    blend = alpha * at_x + (1.0 - alpha) * at_y
    biggest = max(at_x.max(), at_y.max(), at_mid.max())
    assert np.max(np.abs(at_mid - blend)) <= 1e-12 * (1.0 + biggest)


def test_certificates_by_kind():
    mix = mixture_linear_family(
        (normal(-2, 0.8), normal(2, 0.8), logistic(0, 1)), ParameterBox((0.1, 0.1), (0.45, 0.45))
    )
    cert = certify(mix, PIVOT)
    assert cert.smooth_ok and cert.linear_ok and cert.responsive_ok and cert.all_ok

    for template in (normal(0, 1), logistic(0, 1)):
        cert = certify(location_family(template, BOX1), PIVOT)
        assert cert.smooth_ok and cert.responsive_ok
        assert not cert.linear_ok  # density at the midpoint mean is not the blend
        assert not cert.all_ok

    cert = certify(location_scale_family(normal(0, 1), ParameterBox((-1.0, 0.5), (1.0, 2.0))), PIVOT)
    assert cert.smooth_ok and cert.responsive_ok and not cert.linear_ok

    # without a pivot (an inadmissible pair has none) transversality is unknown
    cert = certify(mix, None)
    assert cert.responsive_ok is None and not cert.all_ok
    assert cert.smooth_ok and cert.linear_ok


def test_constant_family_not_responsive():
    """Members that ignore x are transversal at no pivot, and neither are
    basis CDFs that differ at p by less than RESPONSIVENESS_MIN_MOVE."""
    same = logistic(0, 1)
    fam = mixture_linear_family((same, same), ParameterBox((0.2,), (0.8,)))
    for pivot in (-3.0, 0.0, PIVOT, 5.0):
        assert not certify(fam, pivot).responsive_ok
    for shift, responsive in ((1e-14, False), (1e-10, True)):
        other = logistic(shift, 1)
        move = abs(same.cdf(PIVOT) - other.cdf(PIVOT))
        assert move > 0.0 and (move > RESPONSIVENESS_MIN_MOVE) == responsive
        fam = mixture_linear_family((same, other), ParameterBox((0.2,), (0.8,)))
        assert certify(fam, PIVOT).responsive_ok == responsive


def test_readme_counterexample_not_responsive():
    """README's counterexample: both basis CDFs equal 1/2 at the pivot, so
    every member lies on the coincidence set.  The gradient of F(p | x) is
    G_1(p) - G_2(p) = 0, and the certificate refuses the family; away from
    p the CDFs differ and it is transversal there."""
    fam = mixture_linear_family((normal(PIVOT, 1), logistic(PIVOT, 0.4)), ParameterBox((0.2,), (0.8,)))
    cert = certify(fam, PIVOT)
    assert cert.smooth_ok and cert.linear_ok
    assert cert.responsive_ok is False and not cert.all_ok
    assert certify(fam, PIVOT + 1.0).responsive_ok


def test_family_ignoring_one_axis_responsive():
    """Members ignore x_2 (its basis member is the last one), but the
    gradient along x_1, G_1(p) - G_3(p), is not zero: the coincidence set
    is transversal, so the family is responsive."""
    b = logistic(0, 1)
    fam = mixture_linear_family((normal(-1, 1), b, b), ParameterBox((0.2, 0.2), (0.4, 0.4)))
    assert certify(fam, PIVOT).responsive_ok


def test_linearity_counterexample_magnitude():
    """Location and location-scale families are not affine in x: the
    density at the midpoint parameter is not the blend of the densities
    at the ends."""
    ts = np.linspace(-6.0, 6.0, 25)[None, :]
    for fam, ends in (
        (location_family(normal(0, 1), BOX1), [[-1.0], [2.0]]),
        (location_scale_family(normal(0, 1), ParameterBox((-1.0, 0.5), (1.0, 2.0))), [[0.0, 0.5], [0.0, 2.0]]),
    ):
        x, y = np.array(ends)
        at_x, at_y, at_mid = fam.at(np.array([x, y, 0.5 * (x + y)])).pdf(ts)
        err = np.max(np.abs(at_mid - 0.5 * (at_x + at_y)))
        assert err > 1e-3  # an O(1) failure, not a tolerance artifact


def test_linear_ok_is_the_kind():
    """linear_ok says whether the family is mixture_linear, also where the
    density is flat over [-6, 6] or has underflowed there, so that a blend
    of densities sampled there could not tell a location family apart."""
    for fam in (
        location_family(normal(0, 1e4), BOX1),
        location_family(normal(0, 1), ParameterBox((30.0,), (40.0,))),
    ):
        assert not certify(fam, PIVOT).linear_ok
    for fam in PINNED_FAMILIES:
        assert certify(fam, PIVOT).linear_ok == (fam.kind == "mixture_linear")


def test_make_cost_family_dispatch():
    fam = make_cost_family(
        "location", BOX1, template=logistic(0, 1)
    )
    assert fam.kind == "location"
    with pytest.raises(DistributionError):
        make_cost_family("spline", BOX1, template=logistic(0, 1))


def _pinned_families():
    """The benchmark's three family kinds over each benchmark catalog cost,
    plus the constant, ignored-axis and 3-axis mixture_linear families,
    two narrow normal location families, a one-ulp box, and a narrow
    gumbel whose pdf' is nan far left of its location."""
    fams = []
    for cost in CATALOG_COSTS:
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
    # far in a narrow gumbel's left tail pdf' is nan
    fams.append(location_family(gumbel(0, 0.001), ParameterBox((8.5,), (9.0,))))
    return fams


PINNED_FAMILIES = _pinned_families()


def test_narrow_families_are_smooth_by_kind():
    """Every family is C-infinity by construction, so smooth_ok holds
    also where a finite difference at step 1e-4 cannot tell: on narrow
    normal templates, and on a narrow gumbel whose pdf' is nan far in
    its left tail."""
    narrow = PINNED_FAMILIES[-4:-2] + PINNED_FAMILIES[-1:]
    assert [fam.template for fam in narrow] == [normal(0, 0.05), normal(0, 0.02), gumbel(0, 0.001)]
    for fam in PINNED_FAMILIES:
        assert certify(fam, PIVOT).smooth_ok and certify(fam, None).smooth_ok

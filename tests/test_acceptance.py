"""Acceptance suite: one verdict line per criterion (run with ``-s`` to see them).

Each criterion is implemented at its stated tolerance.  Three literal
constants in the criteria are not reproducible from their own stated
derivations; those literal checks are kept, marked strict-xfail, next to a
passing check of the same substance against an independently computed
oracle:

* criterion 2: strict prevalence-gap positivity over [-8, 8] for gumbel
  location pairs.  A max-gumbel left tail is doubly exponential; its CDF
  underflows to exactly 0.0 in IEEE double for t <= -4 at any scale thin
  enough to meet the +-12 tail bound, so the gap there is exactly zero
  (mathematically ~1e-15000, sub-representable).  Scales wide enough to
  avoid underflow (>= 2.3) blow the +-12 bound by three orders of
  magnitude; no gumbel pair can satisfy both.
* criterion 4: the prevalence constant 0.664337.  The oracle value is
  logistic_cdf(2*Phi(1) - 1) = 0.66433869960, i.e. 0.664339 to six
  decimals; the stated constant misses its own +-1e-6 band by 7e-7.
* criterion 6: the fraction triple {0.0132, 0.00132, 0.000132}.  The
  stated derivation (coincidence metric |(1 - 2*pi)*pdf0(0)| crossing zero
  at mu* with slope 2*f(0)*pdf0(0) = 0.120985, interval width 2*tau/slope
  over a length-6 box) gives {0.29303, 0.027567, 0.0027552}; the stated
  triple is a constant factor ~20.9 smaller and matches no metric this
  model defines.
"""

import math
import time

import numpy as np
import pytest

from conftest import (
    DELTA0,
    EU0,
    FOC0,
    PI0,
    SUITE_REWARDS,
    logistic_cdf,
    phi_pdf,
    suite_cost_specs,
)
from threshold_lab import (
    ModelConfig,
    ParameterBox,
    SweepSpec,
    accuracy_optimal,
    certify,
    coincidence_fraction,
    compliance_optimal,
    deu_pos,
    equivalence_test,
    eu_pos,
    foc_at_zero,
    location_family,
    logistic,
    mixture_linear_family,
    normal,
    prevalence_neg,
    prevalence_pos,
    scaling_report,
)
from threshold_lab.cli import main as cli_main
from threshold_lab.genericity import VERDICT_CONSISTENT, VERDICT_INCONSISTENT


def verdict(criterion, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    tail = f" -- {detail}" if detail else ""
    print(f"[acceptance] criterion {criterion} ({name}): {status}{tail}")
    assert ok, f"criterion {criterion} ({name}) failed{tail}"


GAP_GRID = np.linspace(-8.0, 8.0, 321)


# ---------------------------------------------------------------------------
# criterion 1: compliance optimum is 0 across the suite, guardrail quiet


def test_criterion_1_compliance_optimum(suite_pairs, suite_models):
    assert len(suite_pairs) == 20
    assert len(suite_models) == 20 * 5 * len(SUITE_REWARDS)
    start = time.perf_counter()
    for label, model, _ in suite_models:
        res = compliance_optimal(model)  # raises VerificationFailedError on any grid win
        assert res.threshold == 0.0, label
        assert res.method == "closed_form"
    elapsed = time.perf_counter() - start
    verdict(1, "compliance optimum", elapsed < 10.0, f"300 models in {elapsed:.2f}s, all at t=0")


# ---------------------------------------------------------------------------
# criterion 2: positive rule dominates; gap dies only in the tails


def test_criterion_2_rule_dominance(suite_models):
    worst_tail = 0.0
    worst_center = math.inf
    for label, model, is_gumbel in suite_models:
        gap = prevalence_pos(model, GAP_GRID) - prevalence_neg(model, GAP_GRID)
        assert np.all(gap >= 0.0), label
        if is_gumbel:
            # the doubly-exponential left tail underflows; strictness is
            # checkable only where the signal gap is representable
            representable = model.pair.gap(GAP_GRID) > 1e-14
            assert np.all(gap[representable] > 0.0), label
            assert np.all(representable[np.abs(GAP_GRID) <= 2.5]), label
        else:
            assert np.all(gap > 0.0), label
        for t in (-12.0, 12.0):
            tail = prevalence_pos(model, t) - prevalence_neg(model, t)
            worst_tail = max(worst_tail, tail)
            assert tail < 1e-6, (label, t, tail)
        center = prevalence_pos(model, 0.0) - prevalence_neg(model, 0.0)
        worst_center = min(worst_center, center)
        assert center > 1e-3, (label, center)
    verdict(
        2,
        "positive-rule dominance",
        True,
        f"max gap at +-12: {worst_tail:.2e} < 1e-6; min gap at 0: {worst_center:.2e} > 1e-3; "
        "strict positivity wherever the signal gap is representable",
    )


@pytest.mark.xfail(
    strict=True,
    reason="gumbel location pairs: the prevalence gap is exactly 0.0 in IEEE double "
    "on part of [-8, -4] (CDF underflow), so the literal all-suite strict bound "
    "cannot hold; see module docstring",
)
def test_criterion_2_literal_strict_positivity(suite_models):
    for label, model, _ in suite_models:
        gap = prevalence_pos(model, GAP_GRID) - prevalence_neg(model, GAP_GRID)
        ok = bool(np.min(gap) > 0.0)
        if not ok:
            verdict(2, "literal strict positivity over [-8,8]", False,
                    f"{label}: min gap 0.0 (signal CDF underflow)")
        assert ok


# ---------------------------------------------------------------------------
# criterion 3: derivative identity and finite-difference agreement


def test_criterion_3_derivative_identity(suite_models):
    ts = np.linspace(-5.0, 5.0, 101)
    h = 1e-4
    worst_identity = 0.0
    worst_fd = 0.0
    for label, model, _ in suite_models:
        identity_gap = abs(foc_at_zero(model) - deu_pos(model, 0.0))
        worst_identity = max(worst_identity, identity_gap)
        assert identity_gap < 1e-10, label
        fd = (eu_pos(model, ts + h) - eu_pos(model, ts - h)) / (2.0 * h)
        fd_gap = float(np.max(np.abs(deu_pos(model, ts) - fd)))
        worst_fd = max(worst_fd, fd_gap)
        assert fd_gap < 1e-6, label
    verdict(3, "derivative identity", True,
            f"max |foc - deu(0)|: {worst_identity:.2e} < 1e-10; max FD gap: {worst_fd:.2e} < 1e-6")


# ---------------------------------------------------------------------------
# criterion 4: the worked example


def test_criterion_4_worked_example(std_model):
    pi0 = prevalence_pos(std_model, 0.0)
    eu0 = eu_pos(std_model, 0.0)
    foc = foc_at_zero(std_model)
    acc = accuracy_optimal(std_model)
    eq = equivalence_test(std_model, 1e-6)

    assert abs(pi0 - PI0) < 1e-6  # oracle: logistic_cdf(2*Phi(1)-1) = 0.6643387
    assert abs(eu0 - EU0) < 1e-6  # 0.841345
    assert abs(eu0 - 0.841345) < 1e-6  # stated constant holds as printed
    assert abs(foc - FOC0) < 1e-6  # -0.0795303
    assert abs(foc - (-0.079530)) < 1e-6  # stated constant holds as printed
    assert acc.threshold < 0.0
    assert not eq.equivalent
    verdict(4, "worked example", True,
            f"pi={pi0:.6f}, eu={eu0:.6f}, foc={foc:.6f}, accuracy t={acc.threshold:.6f} < 0, "
            "equivalent=False")


@pytest.mark.xfail(
    strict=True,
    reason="stated prevalence constant 0.664337 is a transcription slip: the oracle "
    "value 0.66433870 rounds to 0.664339 and sits 1.7e-6 from the stated constant",
)
def test_criterion_4_literal_prevalence_constant(std_model):
    pi0 = prevalence_pos(std_model, 0.0)
    ok = abs(pi0 - 0.664337) <= 1e-6
    if not ok:
        verdict(4, "literal prevalence constant", False,
                f"computed {pi0:.8f} vs stated 0.664337 +- 1e-6")
    assert ok


# ---------------------------------------------------------------------------
# criterion 5: the coincidence pinpoint in the logistic-location family


def _model_at(mu, pair):
    return ModelConfig(pair=pair, cost=logistic(mu, 1.0), reward=1.0)


def test_criterion_5_equivalence_pinpoint(std_pair):
    mus = np.linspace(-3.0, 3.0, 601)
    focs = np.array([foc_at_zero(_model_at(mu, std_pair)) for mu in mus])

    sign_changes = np.nonzero(np.sign(focs[:-1]) != np.sign(focs[1:]))[0]
    assert len(sign_changes) == 1  # exactly one bracket on the grid
    i = int(sign_changes[0])
    lo, hi = float(mus[i]), float(mus[i + 1])

    # any equivalent model must have |foc| below ~2e-6 (slope of the payoff
    # derivative is bounded by 2 near 0); everything outside the bracket is
    # three orders of magnitude away from that
    outside = np.ones(len(mus), dtype=bool)
    outside[i : i + 2] = False
    assert float(np.min(np.abs(focs[outside]))) > 1e-4

    flo = focs[i]
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        fm = foc_at_zero(_model_at(mid, std_pair))
        if fm == 0.0:
            lo = hi = mid
            break
        if (fm > 0.0) == (flo > 0.0):
            lo, flo = mid, fm
        else:
            hi = mid
    mu_hat = 0.5 * (lo + hi)

    assert abs(mu_hat - 0.682689) < 1e-4  # stated six-decimal pinpoint
    assert abs(mu_hat - DELTA0) < 1e-9  # oracle: 2*Phi(1) - 1
    assert equivalence_test(_model_at(mu_hat, std_pair), 1e-6).equivalent

    for mu in (mu_hat - 5e-4, mu_hat + 5e-4, -1.0, 0.5, 2.0):
        assert not equivalence_test(_model_at(mu, std_pair), 1e-6).equivalent
    for mu in mus[::75]:  # spot-check raw grid points with the full test
        assert not equivalence_test(_model_at(float(mu), std_pair), 1e-6).equivalent

    verdict(5, "equivalence pinpoint", True,
            f"unique refined mu = {mu_hat:.9f} (= 2*Phi(1)-1 to 1e-9), equivalent at tol 1e-6; "
            "all probes off the pinpoint non-equivalent")


# ---------------------------------------------------------------------------
# criterion 6: measure of the coincidence set shrinks linearly with tolerance


def interval_fraction_oracle(tau):
    """Analytic measure of the coincidence band for the logistic location
    family over [-3, 3]: |(1 - 2 L(DELTA0 - mu)) pdf0(0)| < tau."""
    b = tau / (2.0 * phi_pdf(1.0))
    if b >= 0.5:
        return 1.0
    w = math.log((0.5 + b) / (0.5 - b))
    return (min(3.0, DELTA0 + w) - max(-3.0, DELTA0 - w)) / 6.0


K1_TOLERANCES = (0.1, 0.01, 0.001)
K1_SEED = 20250810
STATED_TRIPLE = (0.0132, 0.00132, 0.000132)


def _k1_sweep(std_pair):
    family = location_family(logistic(0.0, 1.0), ParameterBox((-3.0,), (3.0,)))
    spec = SweepSpec(family=family, pair=std_pair, reward=1.0, n_samples=10000,
                     tolerances=K1_TOLERANCES, seed=K1_SEED, mode="foc_gap")
    return coincidence_fraction(spec)


def test_criterion_6_measure_zero_scaling(std_pair):
    start = time.perf_counter()
    res = _k1_sweep(std_pair)
    report = scaling_report(res)
    elapsed = time.perf_counter() - start

    oracle = tuple(interval_fraction_oracle(t) for t in K1_TOLERANCES)
    for frac, expect in zip(res.fractions, oracle):
        assert expect / 2.0 <= frac <= expect * 2.0, (res.fractions, oracle)
    assert 0.8 <= res.scaling_slope <= 1.2
    assert report.verdict == VERDICT_CONSISTENT
    assert elapsed < 60.0

    # k = 2 mixture family: a codimension-one zero curve, slope still ~1
    family2 = mixture_linear_family(
        (normal(-2.0, 0.8), normal(2.0, 0.8), logistic(0.0, 1.0)),
        ParameterBox((0.1, 0.1), (0.45, 0.45)),
    )
    spec2 = SweepSpec(family=family2, pair=std_pair, reward=1.0, n_samples=10000,
                      tolerances=(0.03, 0.01, 0.003, 0.001, 0.0003), seed=K1_SEED, mode="foc_gap")
    res2 = coincidence_fraction(spec2)
    report2 = scaling_report(res2)
    assert 0.8 <= res2.scaling_slope <= 1.2
    assert report2.verdict == VERDICT_CONSISTENT

    verdict(6, "measure-zero scaling", True,
            f"k=1 fractions {res.fractions} vs oracle {tuple(round(o, 6) for o in oracle)} "
            f"(factor-2 band), slope {res.scaling_slope:.3f}; k=2 slope {res2.scaling_slope:.3f}; "
            f"{report.verdict}; {elapsed:.1f}s")


@pytest.mark.xfail(
    strict=True,
    reason="stated fractions {0.0132, 0.00132, 0.000132} are ~20.9x below what their "
    "own slope oracle (2*f(0)*pdf0(0) = 0.120985) implies; the first-principles "
    "values are {0.29303, 0.027567, 0.0027552}; see module docstring",
)
def test_criterion_6_literal_fraction_triple(std_pair):
    res = _k1_sweep(std_pair)
    ok = all(s / 2.0 <= f <= s * 2.0 for f, s in zip(res.fractions, STATED_TRIPLE))
    if not ok:
        verdict(6, "literal fraction triple", False,
                f"measured {res.fractions} vs stated {STATED_TRIPLE} (factor-2 band)")
    assert ok


# ---------------------------------------------------------------------------
# criterion 7: a control that is not transversal at the pivot pins the fraction at one


def test_criterion_7_negative_control(std_pair):
    # instantiate ignores x; the constant cost sits on the coincidence set
    # (its CDF equals 1/2 exactly at the prevalence pivot r*gap(0))
    pinned = logistic(DELTA0, 1.0)
    family = mixture_linear_family((pinned, pinned), ParameterBox((0.2,), (0.8,)))
    cert = certify(family, std_pair.gap(0.0))
    assert not cert.responsive_ok

    spec = SweepSpec(family=family, pair=std_pair, reward=1.0, n_samples=2000,
                     tolerances=K1_TOLERANCES, seed=7, mode="foc_gap")
    res = coincidence_fraction(spec)
    report = scaling_report(res)
    assert res.fractions == (1.0, 1.0, 1.0)
    assert report.verdict == VERDICT_INCONSISTENT
    verdict(7, "negative control", True,
            "fraction 1.0 at every tolerance, verdict inconsistent: "
            "transversality at the pivot is load-bearing")


# ---------------------------------------------------------------------------
# criterion 8: certificates by family kind


def test_criterion_8_certificates(std_pair):
    mix = mixture_linear_family(
        (normal(-2.0, 0.8), normal(2.0, 0.8), logistic(0.0, 1.0)),
        ParameterBox((0.1, 0.1), (0.45, 0.45)),
    )
    mix_cert = certify(mix, std_pair.gap(0.0))
    assert mix_cert.smooth_ok and mix_cert.linear_ok and mix_cert.responsive_ok

    outcomes = {}
    for name, template in (("normal", normal(0.0, 1.0)), ("logistic", logistic(0.0, 1.0))):
        cert = certify(location_family(template, ParameterBox((-3.0,), (3.0,))), std_pair.gap(0.0))
        outcomes[name] = cert.summary()
        assert cert.smooth_ok and cert.responsive_ok
        assert not cert.linear_ok
    verdict(8, "family certificates", True,
            f"mixture_linear: all three pass; location families: {outcomes} "
            "(not linear: linearity is the kind, and only mixture_linear has it)")


# ---------------------------------------------------------------------------
# criterion 9: byte-identical sweep reruns


def test_criterion_9_reproducibility(tmp_path):
    import json

    config = {
        "signal_pair": {
            "g0": {"kind": "normal", "params": [-1, 1]},
            "g1": {"kind": "normal", "params": [1, 1]},
        },
        "cost_family": {
            "kind": "location",
            "template": {"kind": "logistic", "params": [0, 1]},
            "box": {"lower": [-3], "upper": [3]},
        },
        "reward": 1.0,
        "sweep": {"n_samples": 2000, "tolerances": [0.1, 0.01, 0.001], "seed": 11},
    }
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps(config))
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli_main(["sweep", "--config", str(cfg_path), "--out", str(out1)]) == 0
    assert cli_main(["sweep", "--config", str(cfg_path), "--out", str(out2)]) == 0
    csv_same = (out1 / "samples.csv").read_bytes() == (out2 / "samples.csv").read_bytes()
    json_same = (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()
    verdict(9, "reproducibility", csv_same and json_same,
            "two sweep runs produced byte-identical samples.csv and summary.json")

"""The evaluators and the root finder against true values recorded at 50 digits.

``true_values.json`` holds the literals; ``record_true_values.py``
re-records them with mpmath from the closed-form model, without the
package.  An evaluator's value must lie within a few float spacings of
the true one, allowing for the rounding of its standardized point.  A
root the finder brackets is within BISECT_WIDTH of its end, so each
located value must lie within BISECT_WIDTH, plus a few float spacings of
rounding, of the true one.
"""

import json
import math
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest

from threshold_lab import ModelConfig, accuracy_optimal, find_crossing, gumbel, logistic, normal, normalize_pair
from threshold_lab.config import parse_distribution
from threshold_lab.signals import BISECT_WIDTH

TRUE = json.loads(Path(__file__).with_name("true_values.json").read_text())
PAIRS = {
    "demo": (normal(-1.0, 1.0), normal(1.0, 1.0)),
    "gumbel": (gumbel(0.0, 0.75), gumbel(0.5, 0.75)),
}
COSTS = {"logistic(0,1)": logistic(0.0, 1.0), "normal(0,1.2)": normal(0.0, 1.2)}
EVALUATORS = ("cdf", "sf", "pdf", "log_pdf", "pdf_prime")
#: the evaluators' bound in units of 2**-53 (see ``test_evaluator_is_true``)
EVALUATOR_ULPS = 4


def _bound(t: float) -> float:
    return BISECT_WIDTH + 4 * math.ulp(t)


def test_gumbel_crossing_is_true():
    t = find_crossing(*PAIRS["gumbel"])
    assert abs(t - float(TRUE["gumbel_crossing"])) <= _bound(t)


@pytest.mark.parametrize("case", TRUE["optima"], ids=lambda c: f"{c['pair']}|{c['cost']}|r={c['reward']}")
def test_interior_accuracy_optimum_is_true(case):
    """The optimum of the normalized model, whose pair is the raw pair moved
    by ``-shift``, sits at the raw optimum minus that shift."""
    pair = normalize_pair(*PAIRS[case["pair"]])
    res = accuracy_optimal(ModelConfig(pair, COSTS[case["cost"]], case["reward"]))
    assert res.method == "grid_refine"
    want = float(case["t_raw"]) - pair.shift
    assert abs(res.threshold - want) <= _bound(want), (res, want)


def _spelling(d) -> str:
    if d.kind == "mixture":
        return "+".join(f"{w:g}*{_spelling(c)}" for w, c in d.components)
    return f"{d.kind}({d.params[0]:g},{d.params[1]:g})"


def _largest_location(d) -> float:
    if d.kind == "mixture":
        return max(_largest_location(c) for _, c in d.components)
    return abs(d.params[0])


#: evaluator misses, by (member, evaluator): log_pdf adds -log(s) and the
#: normalizing constant as two rounded terms, which cancel where s is
#: near 1 / sqrt(2 pi) (normal) or 1 / 4 (logistic), so the log-density
#: at the mode is off relative to its small value (measured: 5.11 and
#: 6.71 units at t = 2.75, where it is 0.285 and -0.182)
MISSES = {("normal(2.75,0.3)", "log_pdf"): 5.11, ("logistic(2.75,0.3)", "log_pdf"): 6.71}


def _evaluator_cases():
    for case in TRUE["evaluators"]:
        name = _spelling(parse_distribution(case["dist"], "dist"))
        for what in EVALUATORS:
            miss = MISSES.get((name, what))
            marks = pytest.mark.xfail(reason=f"off by {miss} units, see MISSES") if miss else ()
            yield pytest.param(case, what, id=f"{name}-{what}", marks=marks)


@pytest.mark.parametrize("case, what", _evaluator_cases())
def test_evaluator_is_true(case, what):
    """|got - v| <= 4 * 2**-53 * (|v| + (|t| + L) * |v'|) at every recorded
    point t, where v is the true value, v' its t-derivative and L the
    largest |location| of the member's components: a few roundings of v,
    plus that of the standardized point (t - loc) / s times the slope.  A
    true zero must come out as an exact zero."""
    d = parse_distribution(case["dist"], "dist")
    ts = np.array(case["t"])
    got = getattr(d, what)(ts)
    spread = _largest_location(d)
    ratios = []
    for t, g, (v, dv) in zip(ts, got, case[what]):
        if v == "0":
            assert g == 0.0, (what, t, g)
            continue
        scale = 2.0**-53 * (abs(float(v)) + (abs(t) + spread) * abs(float(dv)))
        ratios.append((float(abs(Decimal(float(g)) - Decimal(v))) / scale, t))
    worst, at = max(ratios)
    assert worst <= EVALUATOR_ULPS, f"{what} at t = {at!r} is off by {worst:.2f} units of 2**-53 * scale"


@pytest.mark.parametrize("case", TRUE["crossings"], ids=lambda c: f"pair{c['pair']}")
def test_density_crossing_is_true(case):
    """Each benchmark pair's crossing; a mirror-image pair, recorded as
    exactly 0, must cross at exactly 0.0, so normalizing it moves nothing."""
    t = find_crossing(parse_distribution(case["g0"], "g0"), parse_distribution(case["g1"], "g1"))
    if case["t"] == "0":
        assert t == 0.0
    else:
        want = float(case["t"])
        assert abs(t - want) <= _bound(want), (t, want)

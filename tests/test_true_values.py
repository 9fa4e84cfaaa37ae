"""The root finder against true values recorded at 50 digits.

``true_values.json`` holds the literals; ``record_true_values.py``
re-records them with mpmath from the closed-form model, without the
package.  A root the finder brackets is within BISECT_WIDTH of its end,
so each located value must lie within BISECT_WIDTH, plus a few float
spacings of rounding, of the true one.
"""

import json
import math
from pathlib import Path

import pytest

from threshold_lab import ModelConfig, accuracy_optimal, find_crossing, gumbel, logistic, normal, normalize_pair
from threshold_lab.signals import BISECT_WIDTH

TRUE = json.loads(Path(__file__).with_name("true_values.json").read_text())
PAIRS = {
    "demo": (normal(-1.0, 1.0), normal(1.0, 1.0)),
    "gumbel": (gumbel(0.0, 0.75), gumbel(0.5, 0.75)),
}
COSTS = {"logistic(0,1)": logistic(0.0, 1.0), "normal(0,1.2)": normal(0.0, 1.2)}


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

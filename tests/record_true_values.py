"""Record the 50-digit true values that ``test_true_values.py`` pins.

    python3 tests/record_true_values.py

Needs mpmath, which only this recorder imports; the tests read the
literals from ``true_values.json`` and need nothing beyond the package.
Every value is computed from the closed-form model in mpmath, without the
package: the density crossing of the gumbel pair, and the interior
accuracy optimum of each (pair, cost, reward) model in the raw signal
coordinates, where the pair is not yet translated to cross at 0.
"""

import json
from pathlib import Path

import mpmath as mp

mp.mp.dps = 50
OUT = Path(__file__).with_name("true_values.json")

PAIRS = {
    "demo": (("normal", -1, 1), ("normal", 1, 1)),
    "gumbel": (("gumbel", 0, "0.75"), ("gumbel", "0.5", "0.75")),
}
COSTS = {"logistic(0,1)": ("logistic", 0, 1), "normal(0,1.2)": ("normal", 0, "1.2")}
REWARDS = ("0.5", "1", "2")


def cdf(d, t):
    kind, loc, s = d[0], mp.mpf(d[1]), mp.mpf(d[2])
    z = (t - loc) / s
    if kind == "normal":
        return mp.ncdf(z)
    if kind == "logistic":
        return 1 / (1 + mp.exp(-z))
    return mp.exp(-mp.exp(-z))


def pdf(d, t):
    kind, loc, s = d[0], mp.mpf(d[1]), mp.mpf(d[2])
    z = (t - loc) / s
    if kind == "normal":
        return mp.npdf(z) / s
    if kind == "logistic":
        return mp.exp(-z) / (s * (1 + mp.exp(-z)) ** 2)
    return mp.exp(-z - mp.exp(-z)) / s


def crossing(g0, g1):
    """The root of pdf0 - pdf1 between the two locations."""
    lo, hi = mp.mpf(g0[1]), mp.mpf(g1[1])
    if lo == hi:
        raise ValueError("equal locations")
    return mp.findroot(lambda t: pdf(g0, t) - pdf(g1, t), (lo, hi), solver="anderson")


def eu(g0, g1, cost, r, t):
    pi = cdf(cost, r * (cdf(g0, t) - cdf(g1, t)))
    return pi * (1 - cdf(g1, t)) + (1 - pi) * cdf(g0, t)


def deu(g0, g1, cost, r, t):
    c0, c1, p0, p1 = cdf(g0, t), cdf(g1, t), pdf(g0, t), pdf(g1, t)
    pi = cdf(cost, r * (c0 - c1))
    dpi = pdf(cost, r * (c0 - c1)) * r * (p0 - p1)
    return dpi * (1 - c0 - c1) - pi * (p0 + p1) + p0


def optimum(g0, g1, cost, r, centre):
    """The global payoff maximum over the extended reals: a 401-point scan
    of centre + [-10, 10], the slope's root on the two cells around the
    scan's best point, then the infinite endpoints, whose payoffs are
    F(0) and 1 - F(0).  None when an endpoint wins."""
    grid = [centre + mp.mpf(k) / 20 for k in range(-200, 201)]
    k = max(range(len(grid)), key=lambda i: eu(g0, g1, cost, r, grid[i]))
    if not 0 < k < len(grid) - 1:
        return None
    t = mp.findroot(lambda u: deu(g0, g1, cost, r, u), (grid[k - 1], grid[k + 1]), solver="anderson")
    f0 = cdf(cost, mp.mpf(0))
    return t if eu(g0, g1, cost, r, t) > max(f0, 1 - f0) else None


def main() -> int:
    g0, g1 = PAIRS["gumbel"]
    c = crossing(g0, g1)
    # the closed form: the log-densities agree where exp(-t / s) = d / (e^d - 1), d = 0.5 / s
    d = mp.mpf("0.5") / mp.mpf("0.75")
    assert abs(c - mp.mpf("0.75") * mp.log(mp.expm1(d) / d)) < mp.mpf(10) ** -45
    record = {"gumbel_crossing": mp.nstr(c, 30), "optima": []}
    for pair, (g0, g1) in PAIRS.items():
        centre = crossing(g0, g1)
        for cost_name, cost in COSTS.items():
            for r in REWARDS:
                t = optimum(g0, g1, cost, mp.mpf(r), centre)
                record["optima"].append(
                    {"pair": pair, "cost": cost_name, "reward": float(r), "t_raw": None if t is None else mp.nstr(t, 30)}
                )
    OUT.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {OUT}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

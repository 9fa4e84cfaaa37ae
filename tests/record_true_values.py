"""Record the true values that ``test_true_values.py`` pins.

    python3 tests/record_true_values.py [OUT]

writes OUT, by default ``true_values.json`` beside this script.  Needs
mpmath, which only this recorder imports; the tests read the literals
from ``true_values.json`` and need nothing beyond the package.  Every
value is computed at 50 digits from the closed-form model, without the
package, and every parameter is the double the package holds
(``mp.mpf(float(x))``), not the decimal it is spelt with.  Distributions
are spelt as in a config file.  The record holds:

* ``evaluators``: ``cdf``, ``sf``, ``pdf``, ``log_pdf`` and ``pdf_prime``
  of every analytic member of the benchmark's signal pairs and costs
  (``admissible_pairs`` and ``CATALOG_COSTS`` in
  ``perfbench/workloads.py``), two more members of each kind at a narrow
  and a wide scale, the benchmark's mixture cost and one of its mixture
  signals.  The points are loc + scale * z for z = -8, -7, ..., 8 (for a
  mixture, its weighted location and largest scale); a gumbel's start at
  z = -6.5, since its CDF leaves the normal float range below z ~ -6.56.
  Each value v is written to 20 digits and its t-derivative v' to 3,
  which only scales the test's bound.  pdf' is the closed form, checked
  here against mpmath's numerical derivative of the density.
* ``crossings``: the density crossing of each benchmark signal pair,
  exactly 0 for a pair whose g1 is the mirror image of its g0, else the
  root between the two locations.
* ``gumbel_crossing`` and ``optima``: the density crossing of the gumbel
  pair, and the interior accuracy optimum of each (pair, cost, reward)
  model in the raw signal coordinates, where the pair is not yet
  translated to cross at 0.
"""

import json
import sys
from pathlib import Path

import mpmath as mp

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from workloads import CATALOG_COSTS, admissible_pairs  # noqa: E402

mp.mp.dps = 50
OUT = Path(__file__).with_name("true_values.json")
EVALUATORS = ("cdf", "sf", "pdf", "log_pdf", "pdf_prime")
DIGITS, SLOPE_DIGITS = 20, 3


def _dist(kind, loc, scale):
    return {"kind": kind, "params": [float(loc), float(scale)]}


PAIRS = {
    "demo": (_dist("normal", -1, 1), _dist("normal", 1, 1)),
    "gumbel": (_dist("gumbel", 0, 0.75), _dist("gumbel", 0.5, 0.75)),
}
COSTS = {"logistic(0,1)": _dist("logistic", 0, 1), "normal(0,1.2)": _dist("normal", 0, 1.2)}
REWARDS = (0.5, 1.0, 2.0)
#: members beyond the benchmark's, at the corners of scale 0.3 to 3
EXTRA_MEMBERS = [_dist(kind, loc, s) for kind in ("normal", "logistic", "gumbel") for loc, s in ((2.75, 0.3), (-2.5, 3.0))]


def _components(d):
    return [(mp.mpf(float(c["weight"])), c["dist"]) for c in d["components"]]


def _standard(d, t):
    loc, s = (mp.mpf(float(p)) for p in d["params"])
    return (t - loc) / s, s


def cdf(d, t):
    if d["kind"] == "mixture":
        return mp.fsum(w * cdf(c, t) for w, c in _components(d))
    z, _ = _standard(d, t)
    if d["kind"] == "normal":
        return mp.ncdf(z)
    if d["kind"] == "logistic":
        return 1 / (1 + mp.exp(-z))
    return mp.exp(-mp.exp(-z))


def sf(d, t):
    if d["kind"] == "mixture":
        return mp.fsum(w * sf(c, t) for w, c in _components(d))
    z, _ = _standard(d, t)
    if d["kind"] == "normal":
        return mp.ncdf(-z)
    if d["kind"] == "logistic":
        return 1 / (1 + mp.exp(z))
    return -mp.expm1(-mp.exp(-z))


def pdf(d, t):
    if d["kind"] == "mixture":
        return mp.fsum(w * pdf(c, t) for w, c in _components(d))
    z, s = _standard(d, t)
    if d["kind"] == "normal":
        return mp.npdf(z) / s
    if d["kind"] == "logistic":
        return mp.exp(-z) / (s * (1 + mp.exp(-z)) ** 2)
    return mp.exp(-z - mp.exp(-z)) / s


def log_pdf(d, t):
    return mp.log(pdf(d, t))


def pdf_prime(d, t):
    if d["kind"] == "mixture":
        return mp.fsum(w * pdf_prime(c, t) for w, c in _components(d))
    z, s = _standard(d, t)
    if d["kind"] == "normal":
        return -z * pdf(d, t) / s
    if d["kind"] == "logistic":
        return (mp.exp(-z) - 1) / (mp.exp(-z) + 1) * pdf(d, t) / s
    return (mp.exp(-z) - 1) * pdf(d, t) / s


def slope(what, d, t):
    """The t-derivative of evaluator ``what`` of d at t."""
    if what == "cdf":
        return pdf(d, t)
    if what == "sf":
        return -pdf(d, t)
    if what == "pdf":
        return pdf_prime(d, t)
    if what == "log_pdf":
        return pdf_prime(d, t) / pdf(d, t)
    return mp.diff(lambda u: pdf(d, u), t, 2)


def location(d):
    """Location parameter; the weight-averaged locations of a mixture."""
    if d["kind"] == "mixture":
        return mp.fsum(w * location(c) for w, c in _components(d))
    return mp.mpf(float(d["params"][0]))


def _mirror(d):
    """The distribution of -X, spelt canonically; None for a gumbel."""
    if d["kind"] == "mixture":
        parts = [_mirror(c["dist"]) for c in d["components"]]
        return None if None in parts else sorted((float(c["weight"]), p) for c, p in zip(d["components"], parts))
    loc, s = (float(p) for p in d["params"])
    return None if d["kind"] == "gumbel" else (d["kind"], -loc, s)


def _canonical(d):
    if d["kind"] == "mixture":
        return sorted((float(c["weight"]), _canonical(c["dist"])) for c in d["components"])
    return (d["kind"], *(float(p) for p in d["params"]))


def _points(d):
    if d["kind"] == "mixture":
        centre, s = float(location(d)), max(float(c["dist"]["params"][1]) for c in d["components"])
    else:
        centre, s = (float(p) for p in d["params"])
    zs = ([-6.5] if d["kind"] == "gumbel" else [-8.0, -7.0]) + [float(z) for z in range(-6, 9)]
    return [centre + s * z for z in zs]


def _text(v, digits=DIGITS):
    return "0" if v == 0 else mp.nstr(v, digits)


def evaluator_record(d):
    ts = _points(d)
    entry = {"dist": d, "t": ts}
    for t in ts:
        u = mp.mpf(t)
        gap = abs(pdf_prime(d, u) - mp.diff(lambda x: pdf(d, x), u))
        assert gap <= mp.mpf(10) ** -40 * (1 + abs(pdf_prime(d, u))), (d, t, gap)
    for what in EVALUATORS:
        f = globals()[what]
        entry[what] = [[_text(f(d, mp.mpf(t))), _text(slope(what, d, mp.mpf(t)), SLOPE_DIGITS)] for t in ts]
    return entry


def members():
    """The analytic members of the benchmark's pairs and costs, in order of
    first use, the extra members, the mixture cost and one mixture signal."""
    pairs = admissible_pairs()
    seen, out = set(), []
    for d in [d for p in pairs for d in (p["g0"], p["g1"])] + CATALOG_COSTS + EXTRA_MEMBERS:
        key = _canonical(d)
        if d["kind"] != "mixture" and key not in seen:
            seen.add(key)
            out.append(d)
    mixture_cost = next(d for d in CATALOG_COSTS if d["kind"] == "mixture")
    mixture_signal = next(p["g0"] for p in pairs if p["g0"]["kind"] == "mixture" and _mirror(p["g0"]) != _canonical(p["g1"]))
    return out + [mixture_cost, mixture_signal]


def crossing(g0, g1):
    """The root of pdf0 - pdf1 between the two locations; exactly 0 for a
    mirror-image pair, whose densities agree at 0 in mpmath too."""
    if _mirror(g0) == _canonical(g1):
        assert abs(pdf(g0, mp.mpf(0)) - pdf(g1, mp.mpf(0))) < mp.mpf(10) ** -45
        return mp.mpf(0)
    lo, hi = location(g0), location(g1)
    f = lambda t: pdf(g0, t) - pdf(g1, t)  # noqa: E731
    assert f(lo) * f(hi) < 0, (g0, g1)
    return mp.findroot(f, (lo, hi), solver="anderson")


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


def dumps(obj, indent=0) -> str:
    """JSON text of the record: a dict or a list of dicts one item a line,
    any other list on one line, so each evaluator's values take one line."""
    pad = " " * indent
    if isinstance(obj, dict):
        items = [f"{pad} {json.dumps(k)}: {dumps(v, indent + 1)}" for k, v in obj.items()]
    elif isinstance(obj, list) and obj and isinstance(obj[0], dict):
        items = [f"{pad} {dumps(v, indent + 1)}" for v in obj]
    else:
        return json.dumps(obj)
    brackets = "{}" if isinstance(obj, dict) else "[]"
    return brackets[0] + "\n" + ",\n".join(items) + f"\n{pad}" + brackets[1]


def main(argv) -> int:
    out = Path(argv[0]) if argv else OUT
    g0, g1 = PAIRS["gumbel"]
    c = crossing(g0, g1)
    # the closed form: the log-densities agree where exp(-t / s) = d / (e^d - 1), d = loc1 / s
    s = mp.mpf(0.75)
    d = mp.mpf(0.5) / s
    assert abs(c - s * mp.log(mp.expm1(d) / d)) < mp.mpf(10) ** -45
    record = {"gumbel_crossing": mp.nstr(c, 30), "optima": []}
    for pair, (g0, g1) in PAIRS.items():
        centre = crossing(g0, g1)
        for cost_name, cost in COSTS.items():
            for r in REWARDS:
                t = optimum(g0, g1, cost, mp.mpf(r), centre)
                record["optima"].append(
                    {"pair": pair, "cost": cost_name, "reward": r, "t_raw": None if t is None else mp.nstr(t, 30)}
                )
    record["crossings"] = [
        {"pair": i, "g0": p["g0"], "g1": p["g1"], "t": _text(crossing(p["g0"], p["g1"]))}
        for i, p in enumerate(admissible_pairs())
    ]
    record["evaluators"] = [evaluator_record(d) for d in members()]
    out.write_text(dumps(record) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

"""Compliance-optimal and accuracy-optimal thresholds, and their coincidence.

The compliance-optimal threshold of a normalized admissible pair is 0 in
closed form.  The signal gap's slope is gap'(t) = g0(t) - g1(t), and
under a strictly increasing likelihood ratio with one density crossing,
at 0, it is positive for t < 0 and negative for t > 0; so the gap peaks
at 0, and the positive rule's prevalence F(r * gap(t)), F increasing,
peaks there too (Karlin & Rubin 1956; Karlin, *Total Positivity*, 1968).
For r > 0 the negative rule does no better: its prevalence is at most
F(0), which is at most the positive rule's prevalence at 0.  Every
``SignalPair`` is admissible and normalized by construction, so
``compliance_optimal`` returns the closed form and checks nothing.

The accuracy payoff carries no concavity guarantee, so the accuracy
optimum is found by one refiner: a dense grid scan over the search
window, then the root of the closed-form payoff slope ``deu_pos`` on the
two grid cells around the grid argmax, refined to a bracket of 1e-12,
and finally a comparison with the two infinite endpoints.  The slope's
root, not a comparison of payoff values, is what localizes the optimum:
near a smooth maximum the payoff is flat to machine precision within
~1e-8 of the argmax, while the slope crosses zero transversally and pins
it to ~1e-12.  When the slope does not change sign from + to - across
those two cells there is no interior maximum to pin, and the grid point
stands.

The refiner runs over rows in lockstep: ``accuracy_optimal`` feeds it one
model, ``accuracy_thresholds`` a model whose cost is a cost family's
members (``CostFamily.at``), every member at once, with bit-identical
results.
The grid scan splits the payoff into its signal terms (the pivot
r * gap(t), sf1(t) and cdf0(t), the same for every row) and its cost term
F(pivot | row): the signal terms are evaluated on the grid once per call,
the cost term one block of rows at a time.
The slope's root is found by ``signals._root``, the root finder of the
density-crossing scan: regula falsi with the Illinois fix, every row in
lockstep, one slope call per step on one point per row.  The two slopes
at the bracket ends share one call before it, and are its end values.
From a grid cell of 0.1 to BISECT_WIDTH bisection needs 37 halvings,
where the Illinois steps, which converge superlinearly, take 4 on the
demo model and at most 8 on any row of a 2000-sample sweep of the demo
location family; so one row and many rows can run the same loop.

Coincidence of the two optima is judged by threshold proximity
(|accuracy threshold| < tol with a finite accuracy optimum); the payoff
slope at zero is reported as a diagnostic because its vanishing is only a
necessary condition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .equilibrium import ModelConfig, _eu_from_terms, _eu_signal_terms, deu_pos, foc_at_zero, prevalence_pos
from .signals import BISECT_WIDTH, SignalPair, _root

__all__ = [
    "SEARCH_LO",
    "SEARCH_HI",
    "SEARCH_N",
    "BISECT_WIDTH",
    "OptResult",
    "EquivalenceVerdict",
    "compliance_optimal",
    "accuracy_optimal",
    "accuracy_thresholds",
    "equivalence_verdict",
    "equivalence_test",
]

# search window: beyond +-10 every catalog distribution sits within 1e-15
# of its tail limit, so the infinite endpoints stand in for the tails
SEARCH_LO = -10.0
SEARCH_HI = 10.0
SEARCH_N = 401

#: rows per block of the grid scan: each temporary is 32 x SEARCH_N floats
#: (~100 kB), which keeps peak memory flat in the sample count and is no
#: slower than larger blocks
_GRID_BLOCK = 32


@dataclass(frozen=True)
class OptResult:
    """An optimum with provenance: how it was found and how tightly."""

    threshold: float
    value: float
    method: str  # closed_form | grid_refine | boundary
    iterations: int
    bracket_width: float


@dataclass(frozen=True)
class EquivalenceVerdict:
    """Do the compliance and accuracy optima coincide at this tolerance?"""

    compliance_t: float
    accuracy_t: float
    distance: float
    foc_gap: float
    equivalent: bool
    tolerance: float


def compliance_optimal(m: ModelConfig) -> OptResult:
    """Threshold 0 by closed form, with the prevalence pi_pos(0) there.

    The pair is admissible and crosses at 0 (``SignalPair`` refuses any
    other), so gap'(t) = g0(t) - g1(t) is positive for t < 0 and negative
    for t > 0: the gap peaks at 0, and so does pi_pos(t) = F(r * gap(t))
    for r > 0 and F increasing.  The negative rule cannot beat it:
    pi_neg(t) = F(-r * gap(t)) <= F(0) <= pi_pos(0).  Requires r > 0 (for
    negative rewards the roles of the rules flip and the closed form does
    not apply).
    """
    if m.reward <= 0.0:
        raise ValueError("compliance_optimal requires reward > 0")
    value = float(prevalence_pos(m, 0.0))
    return OptResult(threshold=0.0, value=value, method="closed_form", iterations=0, bracket_width=0.0)


def _payoff_at(pair: SignalPair, reward: float, cost_cdf):
    """The payoff in two stages, as ``_refine`` takes it: ``eu_at(t)``
    evaluates the signal terms at t once and returns ``rows -> payoff`` of
    the rows selected by a slice, whose prevalence is ``cost_cdf(pivot,
    rows)``."""

    def eu_at(t):
        pivot, sf1, cdf0 = _eu_signal_terms(pair, reward, t)
        return lambda rows: _eu_from_terms(cost_cdf(pivot, rows), sf1, cdf0)

    return eu_at


def _refine(eu_at, deu, n_rows: int, lo: float, hi: float, n: int):
    """The accuracy optimum of n_rows payoff curves, refined in lockstep.

    ``eu_at(t)``, for t of shape (1, m) or (n_rows, m), returns ``rows ->
    payoff`` of the rows selected by a slice ``rows`` (so the grid scan
    evaluates what all rows share once, then one block of rows at a
    time); ``deu(t)`` is the slope of every row at t of shape (n_rows,
    m).  Each row follows exactly the steps it would follow alone.
    Returns per-row arrays (threshold, value, iterations, bracket width,
    boundary flag).
    """
    grid = np.linspace(lo, hi, n)
    scan = eu_at(grid[None, :])
    best = np.empty(n_rows, dtype=np.intp)
    for start in range(0, n_rows, _GRID_BLOCK):
        rows = slice(start, min(start + _GRID_BLOCK, n_rows))
        best[rows] = np.argmax(scan(rows), axis=1)
    a = grid[np.maximum(best - 1, 0)]
    b = grid[np.minimum(best + 1, n - 1)]
    # refine only a bracket that holds a maximum: the slope falls through 0
    ends = deu(np.column_stack([a, b]))
    t, width, iters = _root(lambda u: deu(u[:, None])[:, 0], a, b, ends[:, 0], ends[:, 1])
    x = np.where((ends[:, 0] > 0.0) & (ends[:, 1] < 0.0), t, grid[best])

    ends = np.column_stack([x, np.full(n_rows, -math.inf), np.full(n_rows, math.inf)])
    values = eu_at(ends)(slice(None))
    value = values[:, 0]
    boundary = np.zeros(n_rows, dtype=bool)
    # an endpoint wins only by a strict margin: an infinite threshold is a
    # null policy, so ties go to the finite one, then to the smaller one
    for j, end in ((1, -math.inf), (2, math.inf)):
        wins = values[:, j] > value
        value = np.where(wins, values[:, j], value)
        x = np.where(wins, end, x)
        boundary |= wins
    iters[boundary] = 0
    width[boundary] = 0.0
    return x, value, iters, width, boundary


def accuracy_optimal(m: ModelConfig, lo: float = SEARCH_LO, hi: float = SEARCH_HI, n: int = SEARCH_N) -> OptResult:
    """Global maximizer of the accuracy payoff over the extended reals.

    Scans the n-point grid on [lo, hi], refines the root of the payoff
    slope on the two cells around the grid argmax down to a bracket of
    BISECT_WIDTH (so a finite optimum strictly inside the window has
    |deu_pos| ~1e-12 or less; the grid point stands when the slope shows
    no maximum there), then compares with both infinite endpoints.  Ties
    are broken toward the finite candidate, then toward the smaller
    threshold (an infinite threshold is a null policy; prefer an
    informative one).  ``iterations`` counts the root finder's steps, one
    slope call each, after the one call on the two bracket ends: 4 on the
    demo model (normal(+-1, 1), cost logistic(0, 1), r = 1), where
    bisection needs 37.  ``bracket_width`` is the final bracket (the grid
    cells when no refinement ran).  Raises ValueError unless lo and hi
    are finite with lo < hi and n >= 2.
    """
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi and n >= 2):
        raise ValueError(f"search window needs finite lo < hi and n >= 2, got lo={lo}, hi={hi}, n={n}")
    x, value, iters, width, boundary = _refine(
        _payoff_at(m.pair, m.reward, lambda u, rows: m.cost.cdf(u)), lambda t: deu_pos(m, t), 1, lo, hi, n
    )
    return OptResult(
        threshold=float(x[0]),
        value=float(value[0]),
        method="boundary" if boundary[0] else "grid_refine",
        iterations=int(iters[0]),
        bracket_width=float(width[0]),
    )


def accuracy_thresholds(m: ModelConfig) -> np.ndarray:
    """Accuracy-optimal threshold of every row of a batched model, whose
    cost is ``family.at(xs)``, a cost family's members; shape (n_rows,).

    Element i is bit-identical to ``accuracy_optimal(ModelConfig(m.pair,
    family.instantiate(xs[i]), m.reward)).threshold``: the same refiner
    runs on all rows at once, on the same model functions.  Zero rows
    give an empty array.
    """
    eu_at = _payoff_at(m.pair, m.reward, lambda u, rows: m.cost[rows].cdf(u))
    return _refine(eu_at, lambda t: deu_pos(m, t), len(m.cost), SEARCH_LO, SEARCH_HI, SEARCH_N)[0]


def equivalence_verdict(
    m: ModelConfig, compliance: OptResult, accuracy: OptResult, tol: float
) -> EquivalenceVerdict:
    """The coincidence verdict from both optima, already computed for m.

    Equivalent iff the accuracy-optimal threshold is finite and within tol
    of the compliance optimum.  The payoff slope at 0 (a necessary
    condition for interior coincidence) is reported as ``foc_gap``.
    """
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tolerance must be finite and > 0, got {tol}")
    if m.reward == 0.0:
        raise ValueError("equivalence is ill-posed at reward 0 (prevalence never moves)")
    distance = abs(accuracy.threshold - compliance.threshold)
    equivalent = bool(math.isfinite(accuracy.threshold) and distance < tol)
    return EquivalenceVerdict(
        compliance_t=float(compliance.threshold),
        accuracy_t=float(accuracy.threshold),
        distance=float(distance),
        foc_gap=float(foc_at_zero(m)),
        equivalent=equivalent,
        tolerance=float(tol),
    )


def equivalence_test(m: ModelConfig, tol: float) -> EquivalenceVerdict:
    """Coincidence verdict: is the accuracy optimum at the compliance optimum?

    Computes both optima and passes them to ``equivalence_verdict``.
    """
    return equivalence_verdict(m, compliance_optimal(m), accuracy_optimal(m), tol)

"""Compliance-optimal and accuracy-optimal thresholds, and their coincidence.

The compliance-optimal threshold of a normalized admissible pair is 0 in
closed form (the signal gap cdf0 - cdf1 peaks where the densities cross,
and the cost CDF is increasing); ``compliance_optimal`` returns it and
runs a numeric guardrail over the search grid that fails loudly if any
grid point beats it, which would indicate a broken normalization upstream.

The accuracy payoff carries no concavity guarantee, so the accuracy
optimum is found by one refiner: a dense grid scan over the search
window, then bisection of the closed-form payoff slope ``deu_pos`` on the
two grid cells around the grid argmax, down to a bracket of 1e-12, and
finally a comparison with the two infinite endpoints.  Bisecting the
slope, not comparing payoff values, is what localizes the optimum: near a
smooth maximum the payoff is flat to machine precision within ~1e-8 of
the argmax, while the slope crosses zero transversally and pins it to
~1e-12.  When the slope does not change sign from + to - across those two
cells there is no interior maximum to pin, and the grid point stands.

The refiner runs over rows in lockstep: ``accuracy_optimal`` feeds it one
model, ``accuracy_thresholds`` every member of a cost family at once
through ``CostFamily.cdf_at``/``pdf_at``, with bit-identical results.

Coincidence of the two optima is judged by threshold proximity
(|accuracy threshold| < tol with a finite accuracy optimum); the payoff
slope at zero is reported as a diagnostic because its vanishing is only a
necessary condition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .equilibrium import ModelConfig, _deu_pos, _eu_pos, deu_pos, eu_pos, foc_at_zero, prevalence_pos
from .errors import VerificationFailedError
from .families import CostFamily
from .signals import SignalPair

__all__ = [
    "SEARCH_LO",
    "SEARCH_HI",
    "SEARCH_N",
    "GUARDRAIL_SLACK",
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

GUARDRAIL_SLACK = 1e-9
#: the slope bisection stops once its bracket is this narrow
BISECT_WIDTH = 1e-12
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


def _grid(lo: float, hi: float, n: int) -> np.ndarray:
    return np.linspace(lo, hi, n)


def compliance_optimal(m: ModelConfig, lo: float = SEARCH_LO, hi: float = SEARCH_HI, n: int = SEARCH_N) -> OptResult:
    """Threshold 0 by closed form, cross-checked on the grid.

    Requires r > 0 (for negative rewards the roles of the rules flip and
    the closed form does not apply).  Raises VerificationFailedError if
    any grid point or infinite endpoint beats prevalence at 0 by more
    than GUARDRAIL_SLACK.
    """
    if m.reward <= 0.0:
        raise ValueError("compliance_optimal requires reward > 0")
    at_zero = prevalence_pos(m, 0.0)
    candidates = prevalence_pos(m, _grid(lo, hi, n))
    endpoints = prevalence_pos(m, np.array([-math.inf, math.inf]))
    best = float(max(np.max(candidates), np.max(endpoints)))
    if best > at_zero + GUARDRAIL_SLACK:
        raise VerificationFailedError(
            f"prevalence {best!r} on the grid exceeds prevalence {at_zero!r} at 0; "
            "the pair normalization looks broken"
        )
    return OptResult(threshold=0.0, value=at_zero, method="closed_form", iterations=0, bracket_width=0.0)


def _refine(eu, deu, n_rows: int, lo: float, hi: float, n: int):
    """The accuracy optimum of n_rows payoff curves, refined in lockstep.

    ``eu(t, rows)`` is the payoff of the rows selected by the slice
    ``rows`` at t of shape (1, m) or (rows, m); ``deu(t)`` is the slope of
    every row at t of shape (n_rows,).  Each row follows exactly the steps
    it would follow alone.  Returns per-row arrays (threshold, value,
    iterations, bracket width, boundary flag).
    """
    grid = _grid(lo, hi, n)
    best = np.empty(n_rows, dtype=np.intp)
    for start in range(0, n_rows, _GRID_BLOCK):
        rows = slice(start, min(start + _GRID_BLOCK, n_rows))
        best[rows] = np.argmax(eu(grid[None, :], rows), axis=1)
    a = grid[np.maximum(best - 1, 0)]
    b = grid[np.minimum(best + 1, n - 1)]
    x = grid[best]
    width = b - a
    iters = np.zeros(n_rows, dtype=np.intp)
    # bisect only a bracket that holds a maximum: the slope falls through 0
    bisect = (deu(a) > 0.0) & (deu(b) < 0.0)
    active = bisect.copy()
    while True:
        mid = 0.5 * (a + b)
        active &= (b - a > BISECT_WIDTH) & (mid > a) & (mid < b)
        if not active.any():
            break
        fm = deu(mid)
        iters += active
        # an exact zero moves both ends onto mid, closing the bracket; a
        # nan moves the right end, so every step narrows the bracket
        a = np.where(active & (fm >= 0.0), mid, a)
        b = np.where(active & ~(fm > 0.0), mid, b)
    x = np.where(bisect, 0.5 * (a + b), x)
    width = np.where(bisect, b - a, width)

    values = eu(np.column_stack([x, np.full(n_rows, -math.inf), np.full(n_rows, math.inf)]), slice(None))
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

    Scans the n-point grid on [lo, hi], bisects the payoff slope on the
    two cells around the grid argmax down to a bracket of BISECT_WIDTH
    (so a finite optimum strictly inside the window has |deu_pos| ~1e-12
    or less; the grid point stands when the slope shows no maximum
    there), then compares with both infinite endpoints.  Ties are broken
    toward the finite candidate, then toward the smaller threshold (an
    infinite threshold is a null policy; prefer an informative one).
    ``iterations`` counts slope bisections, and ``bracket_width`` is the
    final bracket (the grid cells when no bisection ran).
    """
    x, value, iters, width, boundary = _refine(
        lambda t, rows: eu_pos(m, t), lambda t: deu_pos(m, t), 1, lo, hi, n
    )
    return OptResult(
        threshold=float(x[0]),
        value=float(value[0]),
        method="boundary" if boundary[0] else "grid_refine",
        iterations=int(iters[0]),
        bracket_width=float(width[0]),
    )


def accuracy_thresholds(
    family: CostFamily,
    samples,
    pair: SignalPair,
    reward: float,
    lo: float = SEARCH_LO,
    hi: float = SEARCH_HI,
    n: int = SEARCH_N,
) -> np.ndarray:
    """Accuracy-optimal threshold of every family member, shape (n_samples,).

    Element i is bit-identical to ``accuracy_optimal(ModelConfig(pair,
    family.instantiate(samples[i]), reward), lo, hi, n).threshold``: the
    same refiner runs on all rows at once, with the cost evaluated by
    ``family.cdf_at``/``pdf_at``, which keep ``instantiate``'s guards.
    """
    if not pair.normalized:
        raise ValueError("accuracy_thresholds requires a normalized signal pair")
    if not math.isfinite(reward):
        raise ValueError(f"reward must be finite, got {reward}")
    xs = np.asarray(samples, dtype=float)

    def eu(t, rows):
        return _eu_pos(pair, reward, lambda u: family.cdf_at(u, xs[rows]), t)

    def deu(t):
        return _deu_pos(pair, reward, lambda u: family.cdf_at(u, xs), lambda u: family.pdf_at(u, xs), t)

    return _refine(eu, deu, len(xs), lo, hi, n)[0]


def equivalence_verdict(
    m: ModelConfig, compliance: OptResult, accuracy: OptResult, tol: float
) -> EquivalenceVerdict:
    """The coincidence verdict from both optima, already computed for m.

    Equivalent iff the accuracy-optimal threshold is finite and within tol
    of the compliance optimum.  The payoff slope at 0 (a necessary
    condition for interior coincidence) is reported as ``foc_gap``.
    """
    if tol <= 0.0:
        raise ValueError("tolerance must be > 0")
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

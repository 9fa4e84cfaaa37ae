"""Monte Carlo measurement of the coincidence set inside a parameter box.

The question: for how much of a cost family's parameter box do the
compliance-optimal and accuracy-optimal thresholds coincide?  The
coincidence set is where the payoff slope at the compliance optimum
vanishes, i.e. F(p | x) = 1/2 at the pivot p = r * gap(0) -- one scalar
equation in k parameters, hence a measure-zero set when dF(p | x)/dx is
nonzero for almost every x in the box.  The ``certify`` responsiveness
flag does not imply that: it asks whether F moves anywhere on a t-grid,
and a family whose basis CDFs all equal 1/2 at p is responsive yet lies
wholly on the coincidence set (README, "Model in one screen").  The sweep
estimates the set's Lebesgue measure by uniform sampling: the fraction
of samples whose coincidence metric falls below a tolerance ladder
should shrink linearly with the tolerance (slope ~1 on log-log axes) and
vanish in the limit.  A family parked on the coincidence set is the
control: its fraction pins at 1 at every tolerance.

Two metrics are available:

* ``foc_gap`` (default) -- |payoff slope at 0|, one closed-form
  evaluation per sample;
* ``threshold_distance`` -- |accuracy-optimal threshold|, the optimum
  of every sample found in one batched run of the optimizer
  (``accuracy_thresholds``: a grid scan in row blocks, then a lockstep
  slope bisection over all samples).

Reproducibility: all draws derive from the spec seed.  Both metrics are
batched over the whole sample matrix through ``CostFamily.cdf_at`` (and
``pdf_at``), which perform the same float operations as the per-sample
scalar paths ``foc_at_zero`` and ``accuracy_optimal`` and so are
bit-identical to them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .equilibrium import _foc_at_zero
from .errors import CertificateMissingError
from .families import CostFamily, FamilyCertificate
from .optimize import accuracy_optimal  # noqa: F401  (not called here; perfbench/tracer.py wraps this name)
from .optimize import accuracy_thresholds
from .signals import SignalPair

__all__ = [
    "SweepSpec",
    "SweepResult",
    "ScalingReport",
    "sample_parameters",
    "coincidence_fraction",
    "fit_loglog_slope",
    "scaling_report",
    "VERDICT_CONSISTENT",
    "VERDICT_INCONSISTENT",
    "SLOPE_VERDICT_MIN",
    "SMALLEST_FRACTION_MAX",
]

MODES = ("foc_gap", "threshold_distance")

# verdict rule: a codimension-one zero set scales linearly in the
# tolerance (slope 1); 0.8 allows sampling noise.  The smallest-rung
# fraction must also actually be small.
SLOPE_VERDICT_MIN = 0.8
SMALLEST_FRACTION_MAX = 0.01
VERDICT_CONSISTENT = "consistent with measure zero"
VERDICT_INCONSISTENT = "not consistent with measure zero"

_BOOTSTRAP_SALT = 48879


@dataclass(frozen=True)
class SweepSpec:
    """Everything a sweep needs; immutable and fully seeded."""

    family: CostFamily
    pair: SignalPair
    reward: float
    n_samples: int
    tolerances: tuple[float, ...]
    seed: int
    mode: str = "foc_gap"

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.n_samples < 1:
            raise ValueError("n_samples must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        # the batched kernels build no ModelConfig, so its guards live here
        if not math.isfinite(self.reward) or self.reward == 0.0:
            raise ValueError(f"sweep requires a finite nonzero reward, got {self.reward}")
        tols = tuple(float(t) for t in self.tolerances)
        if not tols or not all(math.isfinite(t) and t > 0.0 for t in tols):
            raise ValueError(f"tolerances must be finite and positive, got {tols}")
        if any(nxt >= prev for prev, nxt in zip(tols, tols[1:])):
            raise ValueError(f"tolerances must be strictly descending, got {tols}")


@dataclass(frozen=True, eq=False)
class SweepResult:
    """Per-tolerance coincidence fractions plus the per-sample records."""

    tolerances: tuple[float, ...]
    fractions: tuple[float, ...]
    scaling_slope: float
    degenerate_fit: bool
    n_samples: int
    seed: int
    mode: str
    samples: np.ndarray  # (n, k)
    foc_gaps: np.ndarray  # (n,)
    accuracy_thresholds: np.ndarray  # (n,), nan in foc_gap mode
    metrics: np.ndarray  # (n,), the coincidence metric per sample
    certificate: FamilyCertificate


@dataclass(frozen=True)
class ScalingReport:
    """Slope, bootstrap band, and the measure-zero verdict."""

    scaling_slope: float
    slope_lo: float
    slope_hi: float
    smallest_fraction: float
    consistent: bool
    verdict: str
    n_resamples: int


def sample_parameters(spec: SweepSpec) -> np.ndarray:
    """n_samples i.i.d. uniform draws over the box, reproducible from seed."""
    rng = np.random.default_rng(spec.seed)
    return spec.family.box.sample(rng, spec.n_samples)


def fit_loglog_slope(tolerances, fractions):
    """Least-squares slope of log(fraction) against log(tolerance).

    Only strictly positive fractions enter the fit (a zero count carries
    no scale information).  Returns ``(slope, degenerate)``; the fit is
    degenerate (slope nan) with fewer than two usable points.
    """
    ts, fs = [], []
    for t, f in zip(tolerances, fractions):
        if f > 0.0:
            ts.append(math.log(t))
            fs.append(math.log(f))
    if len(ts) < 2:
        return math.nan, True
    x = np.asarray(ts)
    y = np.asarray(fs)
    design = np.vstack([np.ones_like(x), x]).T
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    return float(coef[1]), False


def coincidence_fraction(spec: SweepSpec, certificate: FamilyCertificate) -> SweepResult:
    """Run the sweep and estimate the measure of the coincidence set.

    The certificate is required evidence that the structural checks were
    run; the sweep itself proceeds whatever the flags say (running a
    non-responsive family is exactly how the control experiment shows the
    responsiveness hypothesis is load-bearing) and the flags travel with
    the result.
    """
    if certificate is None:
        raise CertificateMissingError(
            "coincidence_fraction needs the family's certificate; run certify(family) first"
        )
    samples = sample_parameters(spec)
    n = spec.n_samples
    pair = spec.pair
    focs = _foc_at_zero(pair, spec.reward, lambda p: spec.family.cdf_at(p, samples))
    if spec.mode == "threshold_distance":
        accs = accuracy_thresholds(spec.family, samples, pair, spec.reward)
    else:
        accs = np.full(n, math.nan)

    metrics = np.abs(focs) if spec.mode == "foc_gap" else np.abs(accs)
    fractions = tuple(float(np.mean(metrics < tol)) for tol in spec.tolerances)
    slope, degenerate = fit_loglog_slope(spec.tolerances, fractions)
    return SweepResult(
        tolerances=spec.tolerances,
        fractions=fractions,
        scaling_slope=slope,
        degenerate_fit=degenerate,
        n_samples=n,
        seed=spec.seed,
        mode=spec.mode,
        samples=samples,
        foc_gaps=focs,
        accuracy_thresholds=accs,
        metrics=metrics,
        certificate=certificate,
    )


def scaling_report(result: SweepResult, n_resamples: int = 200) -> ScalingReport:
    """Bootstrap the slope and issue the measure-zero verdict.

    Consistent iff the fitted slope reaches SLOPE_VERDICT_MIN and the
    smallest-tolerance fraction is below SMALLEST_FRACTION_MAX.  The
    bootstrap resamples the per-sample metrics (seeded from the sweep
    seed, so reruns are bit-identical) and reports the 2.5/97.5 percentile
    band of the refitted slope.
    """
    rng = np.random.default_rng((result.seed, _BOOTSTRAP_SALT))
    slopes = []
    n = result.n_samples
    n_tols = len(result.tolerances)
    # level of a sample: how many tolerances its metric is below.  With a
    # descending ladder, the samples below tolerance j are those of level
    # > j, so one bincount per resample gives every count, and count / n
    # is exactly the np.mean of the boolean mask.
    levels = np.sum(result.metrics[:, None] < np.asarray(result.tolerances), axis=1)
    for _ in range(n_resamples):
        counts = np.bincount(levels[rng.integers(0, n, n)], minlength=n_tols + 1)
        below = np.cumsum(counts[::-1])[::-1]
        fracs = tuple(float(c) / n for c in below[1:])
        slope, degenerate = fit_loglog_slope(result.tolerances, fracs)
        if not degenerate:
            slopes.append(slope)
    if slopes:
        lo, hi = np.percentile(slopes, [2.5, 97.5])
    else:
        lo = hi = math.nan
    smallest = result.fractions[-1]
    consistent = (
        not result.degenerate_fit
        and result.scaling_slope >= SLOPE_VERDICT_MIN
        and smallest < SMALLEST_FRACTION_MAX
    )
    return ScalingReport(
        scaling_slope=result.scaling_slope,
        slope_lo=float(lo),
        slope_hi=float(hi),
        smallest_fraction=smallest,
        consistent=consistent,
        verdict=VERDICT_CONSISTENT if consistent else VERDICT_INCONSISTENT,
        n_resamples=n_resamples,
    )

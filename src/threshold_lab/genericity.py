"""Monte Carlo measurement of the coincidence set inside a parameter box.

The question: for how much of a cost family's parameter box do the
compliance-optimal and accuracy-optimal thresholds coincide?  The
coincidence set is where the payoff slope at the compliance optimum
vanishes, i.e. F(p | x) = 1/2 at the pivot p = r * gap(0) -- one scalar
equation in k parameters, hence a measure-zero set when dF(p | x)/dx is
nonzero for almost every x in the box.  F(p | x) is C-infinity in x for
every family kind (the catalog and the kinds are smooth by construction,
see the ``families`` module docstring), so transversality is the one
hypothesis left to check.  The ``certify`` responsiveness
flag is that transversality at the sweep's pivot, in closed form, and
every sweep certifies its own family at its own pivot; a
mixture_linear family whose basis CDFs all agree at p fails it, and if
they all equal 1/2 there it lies wholly on the coincidence set (README,
"Model in one screen").  The sweep estimates the set's Lebesgue measure
by uniform sampling: the fraction of samples whose coincidence metric
falls below a tolerance ladder should shrink linearly with the tolerance
(slope ~1 on log-log axes) and vanish in the limit.  A family parked on the coincidence set is the
control: its fraction pins at 1 at every tolerance.

Two metrics are available:

* ``foc_gap`` (default) -- |payoff slope at 0|, one closed-form
  evaluation per sample;
* ``threshold_distance`` -- |accuracy-optimal threshold|, the optimum
  of every sample found in one batched run of the optimizer
  (``accuracy_thresholds``: a grid scan in row blocks, then the slope's
  root for all samples in lockstep).

Reproducibility: all draws derive from the spec seed.  Both metrics are
batched over the whole sample matrix: the sweep builds one model whose
cost is the family's members at every sample (``CostFamily.at``) and
evaluates it with ``foc_at_zero`` and ``accuracy_thresholds``, which
perform the same float operations as the per-sample scalar paths
``foc_at_zero`` and ``accuracy_optimal`` and so are bit-identical to
them.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .equilibrium import ModelConfig, foc_at_zero
from .families import CostFamily, FamilyCertificate, certify
from .optimize import accuracy_optimal  # noqa: F401  (not called here; perfbench/tracer.py wraps this name)
from .optimize import accuracy_thresholds
from .signals import SignalPair

__all__ = [
    "SweepOptions",
    "SweepSpec",
    "SweepResult",
    "ScalingReport",
    "sample_parameters",
    "coincidence_fraction",
    "coincidence_levels",
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
#: index draws per bootstrap block: the block's resamples are drawn at once
#: as an (n_resamples_in_block, n) int64 array of at most this many entries
#: (512 kB), so peak memory stays flat in the sample count
_BOOTSTRAP_DRAWS = 2**16


def _check_count(value, name: str, least: int) -> int:
    """``value`` as an int, if it is an integer (not a bool) >= ``least``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name}: expected an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name}: must be >= {least}, got {value}")
    return int(value)


@dataclass(frozen=True)
class SweepOptions:
    """A sweep's sample count, tolerance ladder, seed and mode.

    The constructor is the one check of these four settings, for
    ``SweepSpec`` and the config loader alike: ``n_samples`` and ``seed``
    are integers (not bools) >= 1 and >= 0, the ladder is nonempty, finite,
    positive and strictly descending, and ``mode`` is one of ``MODES``.
    A refusal is a ValueError whose text starts with the field name.  The
    ladder is stored as the tuple of floats that was checked.
    """

    n_samples: int
    tolerances: tuple[float, ...]
    seed: int
    mode: str = "foc_gap"

    def __post_init__(self):
        object.__setattr__(self, "n_samples", _check_count(self.n_samples, "n_samples", 1))
        tols = tuple(float(t) for t in self.tolerances)
        if not tols or not all(math.isfinite(t) and t > 0.0 for t in tols):
            raise ValueError(f"tolerances: must be nonempty, finite and > 0, got {list(tols)}")
        if any(nxt >= prev for prev, nxt in zip(tols, tols[1:])):
            raise ValueError(f"tolerances: must be strictly descending, got {list(tols)}")
        object.__setattr__(self, "tolerances", tols)
        object.__setattr__(self, "seed", _check_count(self.seed, "seed", 0))
        if self.mode not in MODES:
            raise ValueError(f"mode: expected one of {MODES}, got {self.mode!r}")


@dataclass(frozen=True)
class SweepSpec:
    """Everything a sweep needs; immutable and fully seeded.

    ``n_samples``, ``tolerances``, ``seed`` and ``mode`` pass the
    ``SweepOptions`` check and are stored as it stores them.
    """

    family: CostFamily
    pair: SignalPair
    reward: float
    n_samples: int
    tolerances: tuple[float, ...]
    seed: int
    mode: str = "foc_gap"

    def __post_init__(self):
        options = SweepOptions(self.n_samples, self.tolerances, self.seed, self.mode)
        for name in ("n_samples", "tolerances", "seed"):
            object.__setattr__(self, name, getattr(options, name))
        # at r < 0 the kernel's F(r * gap(0)) = 1/2 is not the coincidence
        # condition (the rules' roles flip), and at r = 0 nothing moves
        if not 0.0 < self.reward < math.inf:
            raise ValueError(f"sweep requires a finite reward > 0, got {self.reward}")


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
    degenerate (slope nan) with fewer than two usable points.  Raises
    ValueError when the two sequences differ in length.
    """
    fractions = np.asarray(fractions, dtype=float)
    if len(tolerances) != len(fractions):
        raise ValueError(f"{len(tolerances)} tolerances but {len(fractions)} fractions")
    slope = float(_fit_slopes(tolerances, fractions[None, :])[0])
    return slope, math.isnan(slope)


def _fit_slopes(tolerances, fractions: np.ndarray) -> np.ndarray:
    """``fit_loglog_slope`` of every row of an (r, len(tolerances)) fraction
    matrix; nan where a row's fit is degenerate.

    Rows with the same pattern of positive rungs share one design matrix
    and are fitted together, one ``lstsq`` with a right-hand side per row,
    whose columns are bit-identical to one solve per row.  Logarithms are
    taken with ``math.log`` on both axes.
    """
    slopes = np.full(len(fractions), math.nan)
    log_ts = [math.log(t) for t in tolerances]
    positive = fractions > 0.0
    # each row's pattern as one bytes key, so np.unique groups the rows
    # without the slow row-wise unique of a 2-d array
    packed = np.packbits(positive, axis=1)
    keys = packed.view(np.dtype((np.void, packed.shape[1]))).ravel()
    _, first, which = np.unique(keys, return_index=True, return_inverse=True)
    for g, pattern in enumerate(positive[first]):
        if np.count_nonzero(pattern) < 2:
            continue
        x = np.asarray([lt for lt, positive in zip(log_ts, pattern) if positive])
        design = np.vstack([np.ones_like(x), x]).T
        rows = which == g
        fs = fractions[np.ix_(rows, pattern)]
        ys = np.reshape(list(map(math.log, fs.ravel().tolist())), fs.shape)
        slopes[rows] = np.linalg.lstsq(design, ys.T, rcond=None)[0][1]
    return slopes


def coincidence_levels(metrics: np.ndarray, tolerances) -> np.ndarray:
    """Level of each sample: how many rungs of the ladder its metric is
    below, as the smallest unsigned integer type that holds len(tolerances).

    On a strictly descending ladder (``SweepSpec`` enforces one) the rungs
    a metric is below are the first ones, so level > j exactly when
    metric < tolerances[j]; nan is below none and has level 0.
    """
    # one pass per rung: a sum over the rung axis of an (n, m) mask takes
    # ~15x as long on n = 10k, m = 3
    levels = np.zeros(len(metrics), dtype=np.min_scalar_type(len(tolerances)))
    for tol in tolerances:
        levels += metrics < tol
    return levels


def coincidence_fraction(spec: SweepSpec) -> SweepResult:
    """Run the sweep and estimate the measure of the coincidence set.

    One batched model holds every sampled member (``CostFamily.at``), and
    ``foc_at_zero`` (and in threshold_distance mode ``accuracy_thresholds``)
    evaluates it.  The result carries the family's certificate at the
    pivot r * gap(0) the kernel evaluates; the sweep itself proceeds
    whatever its flags say (running a family that is not transversal at
    the pivot is exactly how the control experiment shows the
    transversality hypothesis is load-bearing).
    """
    samples = sample_parameters(spec)
    n = spec.n_samples
    model = ModelConfig(spec.pair, spec.family.at(samples), spec.reward)
    focs = foc_at_zero(model)
    if spec.mode == "threshold_distance":
        accs = accuracy_thresholds(model)
    else:
        accs = np.full(n, math.nan)

    metrics = np.abs(focs) if spec.mode == "foc_gap" else np.abs(accs)
    # count / n is bit-identical to np.mean(metrics < tol), which sums the
    # mask exactly and divides by n once
    levels = coincidence_levels(metrics, spec.tolerances)
    fractions = tuple(float(np.count_nonzero(levels > j) / n) for j in range(len(spec.tolerances)))
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
        certificate=certify(spec.family, spec.reward * spec.pair.gap(0.0)),
    )


def scaling_report(result: SweepResult, n_resamples: int = 200) -> ScalingReport:
    """Bootstrap the slope and issue the measure-zero verdict.

    Consistent iff the fitted slope reaches SLOPE_VERDICT_MIN and the
    smallest-tolerance fraction is below SMALLEST_FRACTION_MAX.  The
    bootstrap resamples the per-sample metrics (seeded from the sweep
    seed, so reruns are bit-identical) and reports the 2.5/97.5 percentile
    band of the refitted slope.  ``n_resamples`` must be an integer (not a
    bool) of at least 1.

    The resamples are drawn in blocks from one generator: a block of b
    resamples is one ``rng.integers(0, n, (b, n))`` call, which yields
    exactly the numbers of b successive ``rng.integers(0, n, n)`` calls,
    so the band is the one a resample-at-a-time loop gives.  Each rung of
    a block is counted with one ``count_nonzero``, and all resamples with
    the same pattern of positive rungs are refitted with one ``lstsq``
    (see ``_fit_slopes``).
    """
    n_resamples = _check_count(n_resamples, "n_resamples", 1)
    rng = np.random.default_rng((result.seed, _BOOTSTRAP_SALT))
    n = result.n_samples
    n_tols = len(result.tolerances)
    levels = coincidence_levels(result.metrics, result.tolerances)
    below = np.empty((n_resamples, n_tols), dtype=np.intp)
    block = max(_BOOTSTRAP_DRAWS // n, 1)
    for start in range(0, n_resamples, block):
        # one (rows, n) draw is the stream of `rows` successive n-draws
        drawn = np.take(levels, rng.integers(0, n, (min(block, n_resamples - start), n)))
        for j in range(n_tols):
            below[start:start + len(drawn), j] = np.count_nonzero(drawn > j, axis=1)
    slopes = _fit_slopes(result.tolerances, below / n)
    slopes = slopes[~np.isnan(slopes)]
    if len(slopes):
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

"""Evaluable univariate distributions with full support on the real line.

The catalog is deliberately small and closed-form: normal, logistic,
gumbel (max form), and finite mixtures of these.  Every model quantity in
this package reduces to CDF / PDF / PDF-derivative evaluations, so we need
no quadrature and no sampling.  All evaluators accept scalars or numpy
arrays and accept the extended reals: ``cdf(-inf) == 0``, ``cdf(inf) == 1``.

Floating-point conventions
--------------------------
* CDF values are clipped to ``[0, 1]``; survival values via ``sf`` are
  computed from the upper tail directly so ``1 - cdf`` cancellation never
  poisons tail differences.
* PDF values are floored at ``PDF_FLOOR = 1e-300`` so the full-support
  invariant (``pdf > 0`` everywhere) survives underflow and likelihood
  ratios never divide by zero.
* ``log_pdf`` is analytic (never ``log`` of a floored value), which is what
  monotone-likelihood-ratio scans must use: deep in a gumbel tail the
  density underflows while its logarithm is perfectly representable.

Construction is the only validation gate: ``make_distribution`` (or the
``normal`` / ``logistic`` / ``gumbel`` / ``mixture`` helpers) rejects
nonpositive scales, non-finite parameters, and non-normalized mixtures.
Instances are frozen and safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import expit, log_expit, logsumexp, ndtr

from .errors import DistributionError

__all__ = [
    "PDF_FLOOR",
    "FD_STEP",
    "CDF_PDF_TOL",
    "PDF_PRIME_TOL",
    "ScalarDistribution",
    "make_distribution",
    "normal",
    "logistic",
    "gumbel",
    "mixture",
    "derivative_consistency",
]

PDF_FLOOR = 1e-300
#: step and tolerances for the centered finite-difference self-checks
FD_STEP = 1e-4
CDF_PDF_TOL = 1e-6
PDF_PRIME_TOL = 1e-5

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
_KINDS = ("normal", "logistic", "gumbel", "mixture")
_WEIGHT_SUM_TOL = 1e-12


def _as_array(t) -> np.ndarray:
    return np.asarray(t, dtype=float)


@dataclass(frozen=True)
class ScalarDistribution:
    """A validated, immutable distribution on the real line.

    ``params`` is ``(loc, scale)`` for the analytic kinds and empty for
    mixtures; mixtures carry ``components`` as ``(weight, distribution)``
    pairs with positive weights summing to one.
    """

    kind: str
    params: tuple[float, ...] = ()
    components: tuple[tuple[float, "ScalarDistribution"], ...] = field(default=())

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise DistributionError(
                f"unknown kind {self.kind!r}; supported: {', '.join(_KINDS)} "
                "(all with full support on the real line)"
            )
        if self.kind == "mixture":
            if self.params:
                raise DistributionError("mixture takes components, not params")
            if not self.components:
                raise DistributionError("mixture needs at least one component")
            total = 0.0
            for i, (w, comp) in enumerate(self.components):
                if not isinstance(comp, ScalarDistribution):
                    raise DistributionError(f"component {i} is not a distribution")
                if not (math.isfinite(w) and w > 0.0):
                    raise DistributionError(f"component {i}: weight must be > 0, got {w}")
                total += w
            if abs(total - 1.0) > _WEIGHT_SUM_TOL:
                raise DistributionError(
                    f"mixture weights must sum to 1 within {_WEIGHT_SUM_TOL}, got {total!r}"
                )
        else:
            if self.components:
                raise DistributionError(f"{self.kind} takes params, not components")
            if len(self.params) != 2:
                raise DistributionError(f"{self.kind} expects params (loc, scale)")
            loc, scale = self.params
            if not (math.isfinite(loc) and math.isfinite(scale)):
                raise DistributionError(f"{self.kind}: parameters must be finite")
            if scale <= 0.0:
                raise DistributionError(f"{self.kind}: scale must be > 0, got {scale}")

    # -- evaluation ------------------------------------------------------

    def _z(self, t: np.ndarray) -> np.ndarray:
        loc, scale = self.params
        return (t - loc) / scale

    def cdf(self, t):
        """P(X <= t); exact 0/1 at the infinite endpoints."""
        arr = _as_array(t)
        # shift 0 and scale 1 leave the standardized point as (t - loc) / scale,
        # up to the sign of a zero, which no CDF here tells apart
        out = self.affine_cdf(arr, 0.0, 1.0)
        return float(out) if arr.ndim == 0 else out

    def sf(self, t):
        """P(X > t), computed from the upper tail (no 1 - cdf cancellation)."""
        arr = _as_array(t)
        out = self._sf(arr)
        return float(out) if arr.ndim == 0 else out

    def pdf(self, t):
        """Density, floored at PDF_FLOOR so it is strictly positive."""
        arr = _as_array(t)
        out = np.maximum(self._pdf(arr), PDF_FLOOR)
        return float(out) if arr.ndim == 0 else out

    def log_pdf(self, t):
        """Analytic log-density (finite even where pdf underflows)."""
        arr = _as_array(t)
        out = self._log_pdf(arr)
        return float(out) if arr.ndim == 0 else out

    def pdf_prime(self, t):
        """Derivative of the density with respect to t."""
        arr = _as_array(t)
        out = self._pdf_prime(arr)
        return float(out) if arr.ndim == 0 else out

    def affine_cdf(self, t, shift, scale):
        """CDF of shift + scale * X at t, broadcasting over arrays of shifts
        and scales.

        Performs the same float operations as
        ``self.affine(shift, scale).cdf(t)``, so each element is
        bit-identical to it, but builds no distribution per element and
        validates nothing: the caller keeps scales positive and finite.
        """
        if self.kind == "mixture":
            acc = 0.0
            for w, comp in self.components:
                acc = acc + w * comp.affine_cdf(t, shift, scale)
            return np.clip(acc, 0.0, 1.0)
        loc, s = self.params
        z = (t - (shift + scale * loc)) / (scale * s)
        if self.kind == "normal":
            return ndtr(z)
        if self.kind == "logistic":
            return expit(z)
        with np.errstate(over="ignore", under="ignore"):
            return np.clip(np.exp(-np.exp(-z)), 0.0, 1.0)

    def _sf(self, z: np.ndarray) -> np.ndarray:
        if self.kind == "normal":
            return ndtr(-self._z(z))
        if self.kind == "logistic":
            return expit(-self._z(z))
        if self.kind == "gumbel":
            with np.errstate(over="ignore", under="ignore"):
                return np.clip(-np.expm1(-np.exp(-self._z(z))), 0.0, 1.0)
        acc = 0.0
        for w, comp in self.components:
            acc = acc + w * comp._sf(z)
        return np.clip(acc, 0.0, 1.0)

    def _pdf(self, t: np.ndarray) -> np.ndarray:
        if self.kind == "normal":
            z = self._z(t)
            with np.errstate(under="ignore"):
                return np.exp(-0.5 * z * z) / (self.params[1] * math.sqrt(2.0 * math.pi))
        if self.kind == "logistic":
            z = self._z(t)
            # expit(z)*expit(-z): both factors at full precision, unlike p*(1-p)
            return expit(z) * expit(-z) / self.params[1]
        if self.kind == "gumbel":
            z = self._z(t)
            with np.errstate(over="ignore", under="ignore"):
                return np.where(np.isfinite(z), np.exp(-z - np.exp(-z)), 0.0) / self.params[1]
        acc = 0.0
        for w, comp in self.components:
            acc = acc + w * comp._pdf(t)
        return acc

    def _log_pdf(self, t: np.ndarray) -> np.ndarray:
        if self.kind == "normal":
            z = self._z(t)
            return -0.5 * z * z - math.log(self.params[1]) - _LOG_SQRT_2PI
        if self.kind == "logistic":
            z = self._z(t)
            return log_expit(z) + log_expit(-z) - math.log(self.params[1])
        if self.kind == "gumbel":
            z = self._z(t)
            with np.errstate(over="ignore"):
                return -z - np.exp(-z) - math.log(self.params[1])
        logs = np.stack([np.log(w) + comp._log_pdf(t) for w, comp in self.components])
        return logsumexp(logs, axis=0)

    def _pdf_prime(self, t: np.ndarray) -> np.ndarray:
        if self.kind == "normal":
            z = self._z(t)
            return -z * self._pdf(t) / self.params[1]
        if self.kind == "logistic":
            z = self._z(t)
            return -np.tanh(z / 2.0) * self._pdf(t) / self.params[1]
        if self.kind == "gumbel":
            z = self._z(t)
            with np.errstate(over="ignore", under="ignore"):
                return np.where(np.isfinite(z), np.expm1(-z), 0.0) * self._pdf(t) / self.params[1]
        acc = 0.0
        for w, comp in self.components:
            acc = acc + w * comp._pdf_prime(t)
        return acc

    # -- transforms ------------------------------------------------------

    def shifted(self, delta: float) -> "ScalarDistribution":
        """Distribution of X + delta (translation)."""
        return self.affine(delta, 1.0)

    def affine(self, shift: float, scale: float = 1.0) -> "ScalarDistribution":
        """Distribution of shift + scale * X; scale must be positive."""
        if not (math.isfinite(shift) and math.isfinite(scale)):
            raise DistributionError("affine transform parameters must be finite")
        if scale <= 0.0:
            raise DistributionError(f"affine scale must be > 0, got {scale}")
        if self.kind == "mixture":
            return ScalarDistribution(
                "mixture",
                (),
                tuple((w, comp.affine(shift, scale)) for w, comp in self.components),
            )
        loc, s = self.params
        return ScalarDistribution(self.kind, (shift + scale * loc, scale * s))


def make_distribution(kind, params=None, components=None) -> ScalarDistribution:
    """Validated factory; the config loader and factories funnel through here.

    ``components`` is a sequence of ``(weight, ScalarDistribution)`` pairs
    and is only accepted for ``kind == "mixture"``.
    """
    if kind == "mixture":
        if params:
            raise DistributionError("mixture takes components, not params")
        return ScalarDistribution("mixture", (), tuple(components or ()))
    if components:
        raise DistributionError(f"{kind!r} takes params, not components")
    return ScalarDistribution(str(kind), tuple(float(p) for p in (params or ())))


def normal(loc: float, scale: float) -> ScalarDistribution:
    return make_distribution("normal", (loc, scale))


def logistic(loc: float, scale: float) -> ScalarDistribution:
    return make_distribution("logistic", (loc, scale))


def gumbel(loc: float, scale: float) -> ScalarDistribution:
    return make_distribution("gumbel", (loc, scale))


def mixture(components) -> ScalarDistribution:
    """Finite mixture from (weight, distribution) pairs."""
    return make_distribution("mixture", components=components)


def derivative_consistency(d: ScalarDistribution, ts, step: float = FD_STEP):
    """Max |pdf - d(cdf)/dt| and |pdf' - d(pdf)/dt| by centered differences.

    Returns ``(cdf_err, pdf_err)``; well-formed catalog members satisfy
    ``cdf_err < CDF_PDF_TOL`` and ``pdf_err < PDF_PRIME_TOL`` on any grid.
    """
    ts = _as_array(ts)
    fd_pdf = (d.cdf(ts + step) - d.cdf(ts - step)) / (2.0 * step)
    fd_prime = (d.pdf(ts + step) - d.pdf(ts - step)) / (2.0 * step)
    cdf_err = float(np.max(np.abs(d.pdf(ts) - fd_pdf)))
    pdf_err = float(np.max(np.abs(d.pdf_prime(ts) - fd_prime)))
    return cdf_err, pdf_err

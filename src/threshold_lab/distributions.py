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

Construction is the only validation gate: ``ScalarDistribution`` (built
directly, by ``make_distribution`` or by the ``normal`` / ``logistic`` /
``gumbel`` / ``mixture`` helpers) rejects nonpositive scales, non-finite
parameters, and non-normalized mixtures.
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

    def cdf(self, t):
        """P(X <= t); exact 0/1 at the infinite endpoints."""
        return self._float_or_array("cdf", t)

    def sf(self, t):
        """P(X > t), computed from the upper tail (no 1 - cdf cancellation)."""
        return self._float_or_array("sf", t)

    def pdf(self, t):
        """Density, floored at PDF_FLOOR so it is strictly positive."""
        return self._float_or_array("pdf", t)

    def log_pdf(self, t):
        """Analytic log-density (finite even where pdf underflows)."""
        return self._float_or_array("log_pdf", t)

    def pdf_prime(self, t):
        """Derivative of the density with respect to t."""
        return self._float_or_array("pdf_prime", t)

    def _float_or_array(self, what: str, t):
        arr = _as_array(t)
        out = self.evaluate(what, arr)
        return float(out) if arr.ndim == 0 else out

    def evaluate(self, what: str, t, shift=0.0, scale=1.0):
        """``what`` of shift + scale * X at t, broadcasting over arrays of
        shifts and scales.

        ``what`` is "cdf", "sf", "pdf", "log_pdf", "pdf_prime" or "density"
        (the unfloored pdf).  Every kind is evaluated on the standardized
        point z = (t - (shift + scale * loc)) / (scale * s), the float
        operations of ``self.affine(shift, scale).<what>(t)``, so each
        element is bit-identical to it; the public methods call this at
        shift 0 and scale 1, which leave z as (t - loc) / s up to the sign
        of a zero.  Nothing is validated: the caller keeps the transformed
        parameters finite and the scales positive, and ``log_pdf`` takes a
        scalar scale.
        """
        if self.kind == "mixture":
            return _evaluate_mixture(what, self.components, t, shift, scale)
        if what == "pdf":
            return np.maximum(self.evaluate("density", t, shift, scale), PDF_FLOOR)
        loc, s = self.params
        s = scale * s  # the transformed member's scale
        z = (t - (shift + scale * loc)) / s
        if self.kind == "normal":
            if what in ("cdf", "sf"):
                return ndtr(z if what == "cdf" else -z)
            # beyond |z| ~ 1.3e154, z * z overflows: the log-density is
            # -inf and the density 0, as they should be; at z = +-inf pdf'
            # is inf * 0, whose limit is 0
            with np.errstate(over="ignore", under="ignore", invalid="ignore"):
                if what == "log_pdf":
                    return -0.5 * z * z - math.log(s) - _LOG_SQRT_2PI
                dens = np.exp(-0.5 * z * z) / (s * math.sqrt(2.0 * math.pi))
                return dens if what == "density" else np.where(np.isinf(z), 0.0, -z * dens / s)
        if self.kind == "logistic":
            if what in ("cdf", "sf"):
                return expit(z if what == "cdf" else -z)
            if what == "log_pdf":
                return log_expit(z) + log_expit(-z) - math.log(s)
            # expit(z)*expit(-z): both factors at full precision, unlike p*(1-p)
            dens = expit(z) * expit(-z) / s
            return dens if what == "density" else -np.tanh(z / 2.0) * dens / s
        # gumbel: far left, expm1(-z) overflows where the density underflows
        # to 0, and pdf' is inf * 0 = nan there, as expected; at z = -inf the
        # log-density is inf - inf, whose limit is -inf
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            if what == "cdf":
                return np.clip(np.exp(-np.exp(-z)), 0.0, 1.0)
            if what == "sf":
                return np.clip(-np.expm1(-np.exp(-z)), 0.0, 1.0)
            if what == "log_pdf":
                return np.where(np.isinf(z), -np.inf, -z - np.exp(-z)) - math.log(s)
            dens = np.where(np.isfinite(z), np.exp(-z - np.exp(-z)), 0.0) / s
            return dens if what == "density" else np.where(np.isfinite(z), np.expm1(-z), 0.0) * dens / s

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


def _evaluate_mixture(what: str, components, t, shift=0.0, scale=1.0):
    """``what`` (as in ``ScalarDistribution.evaluate``) of the mixture of
    ``(weight, distribution)`` components, each transformed by shift + scale * X.

    Weights may be arrays that broadcast against t, so a cost family
    evaluates many mixture members in one pass.  The weighted sum is
    clipped to [0, 1] for "cdf" and "sf", floored at PDF_FLOOR for "pdf"
    (its components stay unfloored), and left as is for "density" and
    "pdf_prime"; "log_pdf" is the log-sum-exp of log weight plus component
    log-density.
    """
    inner = "density" if what == "pdf" else what
    values = [(w, comp.evaluate(inner, t, shift, scale)) for w, comp in components]
    if what == "log_pdf":
        return logsumexp(np.stack([np.log(w) + v for w, v in values]), axis=0)
    acc = 0.0
    for w, v in values:
        acc = acc + w * v
    if what == "pdf":
        return np.maximum(acc, PDF_FLOOR)
    return np.clip(acc, 0.0, 1.0) if what in ("cdf", "sf") else acc


def make_distribution(kind, params=None, components=None) -> ScalarDistribution:
    """Factory that the config loader and the helpers below funnel through.

    ``params`` is ``(loc, scale)`` for the analytic kinds; ``components``
    is a sequence of ``(weight, ScalarDistribution)`` pairs for a mixture.
    ``ScalarDistribution`` checks them, including that each kind gets only
    the one it takes, and raises DistributionError.
    """
    return ScalarDistribution(str(kind), tuple(float(p) for p in (params or ())), tuple(components or ()))


def normal(loc: float, scale: float) -> ScalarDistribution:
    return make_distribution("normal", (loc, scale))


def logistic(loc: float, scale: float) -> ScalarDistribution:
    return make_distribution("logistic", (loc, scale))


def gumbel(loc: float, scale: float) -> ScalarDistribution:
    return make_distribution("gumbel", (loc, scale))


def mixture(components) -> ScalarDistribution:
    """Finite mixture from (weight, distribution) pairs."""
    return make_distribution("mixture", components=components)


def _fd_errors(evaluate, ts, step: float = FD_STEP):
    """Elementwise |pdf - d(cdf)/dt| and |pdf' - d(pdf)/dt| at ts by
    centered differences.

    ``evaluate(what, t)`` is one distribution's ``evaluate``, or a cost
    family's evaluation of one member per row of ts.
    """
    fd_pdf = (evaluate("cdf", ts + step) - evaluate("cdf", ts - step)) / (2.0 * step)
    fd_prime = (evaluate("pdf", ts + step) - evaluate("pdf", ts - step)) / (2.0 * step)
    return np.abs(evaluate("pdf", ts) - fd_pdf), np.abs(evaluate("pdf_prime", ts) - fd_prime)


def derivative_consistency(d: ScalarDistribution, ts, step: float = FD_STEP):
    """Max |pdf - d(cdf)/dt| and |pdf' - d(pdf)/dt| by centered differences.

    Returns ``(cdf_err, pdf_err)``.  Catalog members satisfy
    ``cdf_err < CDF_PDF_TOL`` and ``pdf_err < PDF_PRIME_TOL`` on any grid
    when their scale is at least 0.1 (normal), 0.07 (logistic) or 0.12
    (gumbel), and mixtures of such members do too.  Narrower members fail
    near their mode: the truncation error of the centered difference grows
    as step^2 / scale^3 for cdf_err and step^2 / scale^4 for pdf_err, and
    it is ``pdf_err`` that crosses its tolerance first (at the measured
    scales 0.098, 0.068 and 0.117).  There is no upper limit on the
    scale.  Two limits hold at every scale: a gumbel's pdf' is nan more
    than ~709 scales left of its location, and so is ``pdf_err`` on a grid
    that reaches there; and beyond |t| ~ 1e5 the points t +- step round.
    """
    cdf_err, pdf_err = _fd_errors(d.evaluate, _as_array(ts), step)
    return float(np.max(cdf_err)), float(np.max(pdf_err))

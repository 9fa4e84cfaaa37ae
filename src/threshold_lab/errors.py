"""Semantic exception hierarchy for threshold_lab.

Domain failures (bad configs and distributions, inadmissible pairs,
out-of-box parameters, numeric guardrails) derive from ThresholdLabError,
so callers (and the CLI exit-code mapping) can tell validation problems
from numeric guardrail failures.  Argument checks of library calls raise
a bare ValueError instead: ``compliance_optimal`` (reward <= 0),
``accuracy_optimal`` (search window), ``SweepOptions`` (sample count,
tolerance ladder, seed and mode; each message starts with the field
name), ``SweepSpec`` (reward <= 0, and its sweep settings through
``SweepOptions``), ``ModelConfig``, ``equivalence_verdict``,
``fit_loglog_slope`` and ``scaling_report`` (``n_resamples``).
The config loader runs the ``SweepOptions`` check itself and raises its
message as a ConfigError under ``config.sweep.``; the CLI checks the other
config values that reach those calls first, so a bad config value exits 1
with its field path instead of one of these errors.
"""


class ThresholdLabError(Exception):
    """Base error for this package."""


class DistributionError(ThresholdLabError, ValueError):
    """Distribution construction rejected: bad kind, scale, or weights."""


class AdmissibilityError(ThresholdLabError):
    """A signal pair violates an admissibility precondition (e.g. MLRP)."""


class NoCrossingError(AdmissibilityError):
    """No sign change of the density difference was found on the scan grid."""


class OutOfBoxError(ThresholdLabError, ValueError):
    """Parameter vector lies outside the family's parameter box."""


class DegenerateWeightsError(DistributionError):
    """A mixture weight implied by the parameter vector is not positive."""


class VerificationFailedError(ThresholdLabError):
    """A numeric guardrail contradicted a closed-form result."""


class ConfigError(ThresholdLabError, ValueError):
    """Configuration file invalid; message carries the offending field path."""

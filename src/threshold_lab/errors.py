"""Semantic exception hierarchy for threshold_lab.

Public functions never raise bare ValueError/RuntimeError for domain
failures; everything catchable derives from ThresholdLabError so callers
(and the CLI exit-code mapping) can distinguish validation problems from
numeric guardrail failures.
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


class CertificateMissingError(ThresholdLabError):
    """A sweep was requested without a family certificate."""


class VerificationFailedError(ThresholdLabError):
    """A numeric guardrail contradicted a closed-form result."""


class ConfigError(ThresholdLabError, ValueError):
    """Configuration file invalid; message carries the offending field path."""

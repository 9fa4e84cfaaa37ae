"""threshold-lab: a numerical laboratory for threshold incentive rules.

Build full-support signal and cost distributions, validate and normalize
admissible signal pairs, evaluate equilibrium compliance and the
reward-accuracy payoff of threshold rules, locate the compliance-optimal
and accuracy-optimal thresholds, and measure how rarely the two coincide
across parameterized cost families.
"""

__version__ = "0.1.0"

from .distributions import (
    ScalarDistribution,
    derivative_consistency,
    gumbel,
    logistic,
    make_distribution,
    mixture,
    normal,
)
from .equilibrium import (
    ModelConfig,
    PrevalenceReport,
    deu_pos,
    eu_pos,
    foc_at_zero,
    prevalence_neg,
    prevalence_pos,
    prevalence_report,
)
from .errors import (
    AdmissibilityError,
    CertificateMissingError,
    ConfigError,
    DegenerateWeightsError,
    DistributionError,
    NoCrossingError,
    OutOfBoxError,
    ThresholdLabError,
    VerificationFailedError,
)
from .families import (
    CostFamily,
    FamilyCertificate,
    ParameterBox,
    certify,
    check_linearity,
    check_responsiveness,
    check_smoothness,
    location_family,
    location_scale_family,
    make_cost_family,
    mixture_linear_family,
)
from .genericity import (
    ScalingReport,
    SweepResult,
    SweepSpec,
    coincidence_fraction,
    fit_loglog_slope,
    sample_parameters,
    scaling_report,
)
from .optimize import (
    EquivalenceVerdict,
    OptResult,
    accuracy_optimal,
    accuracy_thresholds,
    compliance_optimal,
    equivalence_test,
    equivalence_verdict,
)
from .signals import (
    AdmissibilityReport,
    SignalPair,
    check_admissible,
    check_mlrp,
    find_crossing,
    normalize_pair,
)

__all__ = [
    "__version__",
    # distributions
    "ScalarDistribution",
    "make_distribution",
    "normal",
    "logistic",
    "gumbel",
    "mixture",
    "derivative_consistency",
    # signals
    "SignalPair",
    "AdmissibilityReport",
    "check_mlrp",
    "find_crossing",
    "normalize_pair",
    "check_admissible",
    # families
    "ParameterBox",
    "CostFamily",
    "FamilyCertificate",
    "make_cost_family",
    "location_family",
    "location_scale_family",
    "mixture_linear_family",
    "check_smoothness",
    "check_linearity",
    "check_responsiveness",
    "certify",
    # equilibrium
    "ModelConfig",
    "PrevalenceReport",
    "prevalence_pos",
    "prevalence_neg",
    "prevalence_report",
    "eu_pos",
    "deu_pos",
    "foc_at_zero",
    # optimize
    "OptResult",
    "EquivalenceVerdict",
    "compliance_optimal",
    "accuracy_optimal",
    "accuracy_thresholds",
    "equivalence_verdict",
    "equivalence_test",
    # genericity
    "SweepSpec",
    "SweepResult",
    "ScalingReport",
    "sample_parameters",
    "coincidence_fraction",
    "scaling_report",
    "fit_loglog_slope",
    # errors
    "ThresholdLabError",
    "DistributionError",
    "AdmissibilityError",
    "NoCrossingError",
    "OutOfBoxError",
    "DegenerateWeightsError",
    "CertificateMissingError",
    "VerificationFailedError",
    "ConfigError",
]

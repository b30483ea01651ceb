"""Prediction and optimal sampling design for collocated bivariate
processes on an interval.

The package predicts a primary process observed together with a
correlated secondary process at shared 1-D sites (kriging and
cokriging, known or estimated mean), scores sampling designs by
worst-case or integrated prediction error under an exponential
correlation model, averages those scores over priors on the decay
rate, and searches for optimal designs.  For every criterion here the
equispaced design is optimal; the optimizer finds it numerically from
an irregular start rather than assuming it.

Typical use::

    from cokrig import ExponentialKernel, equispaced, smspe

    kernel = ExponentialKernel(theta=17.12, sigma11=0.85)
    report = smspe(kernel, equispaced(17), model="simple")

The command-line entry point is ``cokrig`` (see ``cokrig --help``).
"""

from .covmodel import (
    BivariateCovariance,
    Correlogram,
    ExponentialCorrelogram,
    GeneralizedMarkov,
    Mat05,
    Mat15,
    MatInf,
    Matern15Correlogram,
    NS1,
    NS2,
    NS3,
    NuggetCorrelogram,
    Proportional,
    SquaredExponentialCorrelogram,
    ValidityReport,
    build_cross_vector,
    build_joint_covariance,
    format_config,
    parse_config,
    reduction_applies,
    validate,
)
from .criteria import (
    CriterionReport,
    RiskReport,
    ThetaPrior,
    imspe,
    relative_efficiency,
    risk_imspe,
    risk_report,
    risk_smspe,
    smspe,
)
from .design import Design, equispaced, rescale
from .exceptions import (
    CokrigError,
    ConditioningError,
    DomainError,
    ExtrapolationError,
    NumericError,
    ParseError,
    ValidationError,
)
from .kernel import (
    ExponentialKernel,
    ones_quadratic_form,
    precision_matrix,
    quad_forms_at,
)
from .mle import MleFit, fit_mle, loglikelihood, simulate_observations
from .optimizer import (
    OptimizationProblem,
    OptimizationResult,
    evaluate_criterion,
    optimize,
)
from .predict import (
    ObservationVector,
    PredictionResult,
    mspe_closed_form,
    ordinary_cokrige,
    ordinary_krige,
    simple_cokrige,
    simple_krige,
)
from .stations import (
    EARTH_RADIUS_KM,
    IngestReport,
    ObservationRecord,
    StationRecord,
    align_observations,
    haversine_km,
    ingest_stations,
    read_observations_csv,
    read_stations_csv,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # design
    "Design", "equispaced", "rescale",
    # kernel
    "ExponentialKernel", "precision_matrix",
    "ones_quadratic_form", "quad_forms_at",
    # covariance models
    "Correlogram", "ExponentialCorrelogram", "SquaredExponentialCorrelogram",
    "Matern15Correlogram", "NuggetCorrelogram", "BivariateCovariance",
    "GeneralizedMarkov", "Proportional", "NS1", "Mat05", "Mat15", "MatInf",
    "NS2", "NS3", "ValidityReport", "build_joint_covariance",
    "build_cross_vector", "validate", "reduction_applies", "parse_config",
    "format_config",
    # prediction
    "ObservationVector", "PredictionResult", "simple_krige", "ordinary_krige",
    "simple_cokrige", "ordinary_cokrige", "mspe_closed_form",
    # criteria
    "ThetaPrior", "CriterionReport", "smspe", "imspe", "risk_smspe",
    "risk_imspe", "RiskReport", "risk_report", "relative_efficiency",
    # optimization
    "OptimizationProblem", "OptimizationResult", "optimize",
    "evaluate_criterion",
    # stations
    "EARTH_RADIUS_KM", "StationRecord", "ObservationRecord", "IngestReport",
    "haversine_km", "ingest_stations", "read_stations_csv",
    "read_observations_csv", "align_observations",
    # likelihood
    "MleFit", "loglikelihood", "fit_mle", "simulate_observations",
    # errors
    "CokrigError", "DomainError", "ExtrapolationError", "ValidationError",
    "ParseError", "ConditioningError", "NumericError",
]

"""Robust growth-optimal portfolios for log and power utility when the asset
dynamics are only known up to a polytope of Lévy triplets.

The library computes the worst-case growth rate of constant-proportion
strategies, maximizes it over a constraint polytope, certifies saddle points,
and checks every closed form against an exact Monte Carlo simulator.
"""

from .errors import (
    AtSingularityError,
    FileIoError,
    InfeasibleError,
    ModelError,
    NanResultError,
    NegativeWealthError,
    NotCompactError,
    OriginExcludedError,
    OutsideDomainError,
    ParseError,
    RlpError,
    SaddleNotCertifiedError,
    SchemaError,
    SupportContainsZeroError,
    TooManyVerticesError,
)
from .growth import (
    GrowthEvaluation,
    GrowthModel,
    growth_gradient,
    growth_rate,
    jump_integrand,
    worst_case_growth,
)
from .levy import (
    JumpMeasure,
    LevyTriplet,
    Polyhedron,
    UncertaintySet,
    UtilitySpec,
    bounding_box,
    characteristics_bound,
    compile_box_to_vertices,
    discretize_density,
    effective_domain,
    natural_constraints,
    truncation,
    validate_triplet,
)
from .model_io import (
    ProblemSpec,
    Report,
    SimulationOptions,
    canonical_json,
    emit_report,
    load_model,
)
from .optimizer import (
    SaddleCertificate,
    Solution,
    find_saddle,
    maximize_robust,
    problem_value,
    verify_saddle,
)
from .simulator import (
    McEstimate,
    closed_form_expected_utility,
    mc_expected_utility,
)

__version__ = "0.1.0"

__all__ = [
    "AtSingularityError",
    "FileIoError",
    "GrowthEvaluation",
    "GrowthModel",
    "InfeasibleError",
    "JumpMeasure",
    "LevyTriplet",
    "McEstimate",
    "ModelError",
    "NanResultError",
    "NegativeWealthError",
    "NotCompactError",
    "OriginExcludedError",
    "OutsideDomainError",
    "ParseError",
    "Polyhedron",
    "ProblemSpec",
    "Report",
    "RlpError",
    "SaddleCertificate",
    "SaddleNotCertifiedError",
    "SchemaError",
    "SimulationOptions",
    "Solution",
    "SupportContainsZeroError",
    "TooManyVerticesError",
    "UncertaintySet",
    "UtilitySpec",
    "bounding_box",
    "canonical_json",
    "characteristics_bound",
    "closed_form_expected_utility",
    "compile_box_to_vertices",
    "discretize_density",
    "effective_domain",
    "emit_report",
    "find_saddle",
    "growth_gradient",
    "growth_rate",
    "jump_integrand",
    "load_model",
    "maximize_robust",
    "mc_expected_utility",
    "natural_constraints",
    "problem_value",
    "truncation",
    "validate_triplet",
    "verify_saddle",
    "worst_case_growth",
]

"""Minimax reconstruction bounds for ill-posed problems in sequence space.

Computes, certifies, and empirically validates worst-case reconstruction
error for truncated-series (spectral cut-off) estimation under Gaussian
noise: exact bias/variance risk, the certified two-sided minimax interval,
hyperrectangle water-filling with an optimality certificate, Monte Carlo
validation, rate-of-convergence experiments across ill-posedness regimes,
and an SVD frontend for matrix operator equations.
"""

from .problem import (
    EllipsoidClass,
    IndexFunction,
    SaturationError,
    SaturationWarning,
    SequenceProblem,
    SingularSpectrum,
    ValidationError,
    ValidationReport,
    custom_index,
    ellipsoid_from_source_set,
    exp_power_index,
    explicit_class,
    explicit_spectrum,
    load_problem,
    log_power_index,
    make_exponential_class,
    make_exponential_spectrum,
    make_power_class,
    make_power_spectrum,
    power_index,
    problem_from_json,
    problem_to_json,
    validate_problem,
)
from .truncation import (
    RiskDecomposition,
    estimate,
    least_favorable,
    optimal_truncation,
    rho_squared,
    subset_truncation_risk,
    truncation_risk,
)
from .bounds import (
    KnapsackSolution,
    SandwichReport,
    certify_maximizer,
    gateaux_derivative_J,
    hyperrectangle_J,
    maximize_J_over_ellipsoid,
    minimax_sandwich,
    sample_feasible_rectangles,
    source_set_bound,
)
from .simulate import (
    RiskEstimate,
    SimulationConfig,
    monte_carlo_risk,
    sample_observations,
)
from .rates import (
    IllposednessLabel,
    RateFit,
    RegimeSpec,
    SweepRow,
    classify_illposedness,
    deterministic_rate_sq,
    fit_rate,
    sweep,
    testing_radius_sq,
)
from .operators import (
    OperatorModel,
    decompose,
    make_integration_operator,
    reconstruct,
    to_sequence,
)

__version__ = "0.1.0"

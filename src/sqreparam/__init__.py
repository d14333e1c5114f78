"""Square-reparameterization toolbox.

Certify first- and second-order stationarity of composite problems
phi(x) = f(x) + g(x) under the lift x = y*y, test strict
complementarity, predict how sharpness exponents transform under the
lift, and verify the predictions with sampling and first-order solver
experiments.  Every fast computation has a brute-force oracle shipped
alongside it (see sqreparam.oracles, the batteries in
sqreparam.checks and the `sqreparam selftest` command).
"""

from .errors import (
    DimensionMismatch,
    InconsistencyDetected,
    InfeasiblePolyhedron,
    InsufficientSamples,
    InsufficientTrace,
    InvalidRange,
    NumericalFailure,
    ParseError,
    SqreparamError,
    TooLarge,
    UnsupportedProblemClass,
    ValidationError,
)
from .polyhedra import (
    DEFAULT_TOL,
    GeneratorSet,
    LPOutcome,
    LPStatus,
    Polyhedron,
    feasible_point,
    lp_solve,
    min_norm_weighted,
    project_onto_polyhedron,
    vrep_membership,
    vrep_ri_membership,
    vrep_support,
)
from .polyfunc import (
    DEFAULT_TOL_ACTIVE,
    ActivityPattern,
    CompositeProblem,
    LocalModel,
    PolyhedralFunction,
    SmoothQuadratic,
    activity_pattern,
    g_eval,
    g_subdiff,
    phi_residual,
    phi_value,
)
from .reparam import (
    DEFAULT_TOL_SUPPORT,
    LiftedPoint,
    StationarityReport,
    classify_first_order,
    lift_eval,
    lift_point,
    lifted_residual,
    support_set,
)
from .second_order import (
    CorrespondenceReport,
    Multiplier,
    correspondence_check,
    d2_lifted_g,
    d2_lifted_objective_on_SI,
    stationarity_multiplier,
)
from .kl_lab import (
    ExponentInputs,
    KLFitReport,
    RateFit,
    ScatterConfig,
    SolverTrace,
    estimate_exponent,
    fit_rate,
    lemma61_probe,
    predict_exponent,
    run_first_order,
    sample_scatter,
    strict_complementarity,
)
from .oracles import (
    d2_smooth_orthant_lift,
    enumerate_vertices,
    fd_second_subderivative,
    grid_min_norm,
    grid_min_norm_gap_bound,
)
from .cli import (
    ProblemFile,
    emit_csv,
    parse_problem_dict,
    parse_problem_file,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]

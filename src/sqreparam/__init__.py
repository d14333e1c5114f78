"""Square-reparameterization toolbox.

Certify first- and second-order stationarity of composite problems
phi(x) = f(x) + g(x) under the lift x = y*y, test strict
complementarity, predict how sharpness exponents transform under the
lift, and verify the predictions with sampling and first-order solver
experiments.  Every fast computation has a brute-force oracle shipped
alongside it (see sqreparam.oracles, the batteries in
sqreparam.checks and the `sqreparam selftest` command).

`import sqreparam` loads none of its modules.  A public name is looked
up in the module that defines it on every access, and that module (with
the modules it imports) loads on the first such access; a submodule
loads on first access as well.  The name is never copied here, so a
rebinding in its home module (a tracer or a test wrapping `lp_solve`)
is what `sqreparam.<name>` returns.
"""

import importlib
import sys

__version__ = "0.1.0"

# the public names, by the module that defines them
_EXPORTS = {
    "errors": (
        "DimensionMismatch", "InconsistencyDetected", "InfeasiblePolyhedron",
        "InsufficientSamples", "InsufficientTrace", "InvalidRange",
        "NumericalFailure", "ParseError", "SqreparamError", "TooLarge",
        "UnsupportedProblemClass", "ValidationError",
    ),
    "polyhedra": (
        "DEFAULT_TOL", "GeneratorSet", "LPOutcome", "LPStatus", "Polyhedron",
        "feasible_point", "lp_solve", "min_norm_weighted",
        "project_onto_polyhedron", "vrep_membership", "vrep_ri_membership",
        "vrep_support",
    ),
    "polyfunc": (
        "DEFAULT_TOL_ACTIVE", "ActivityPattern", "CompositeProblem",
        "LocalModel", "PolyhedralFunction", "SmoothQuadratic",
        "activity_pattern", "g_eval", "g_subdiff", "phi_residual",
        "phi_value",
    ),
    "reparam": (
        "DEFAULT_TOL_SUPPORT", "LiftedPoint", "StationarityReport",
        "classify_first_order", "lift_eval", "lift_point", "lifted_residual",
        "support_set",
    ),
    "second_order": (
        "CorrespondenceReport", "correspondence_check", "d2_lifted_g",
        "d2_lifted_objective_on_SI",
    ),
    "kl_lab": (
        "ExponentInputs", "KLFitReport", "RateFit", "ScatterConfig",
        "SolverTrace", "estimate_exponent", "fit_rate", "lemma61_probe",
        "predict_exponent", "run_first_order", "sample_scatter",
        "strict_complementarity",
    ),
    "oracles": (
        "d2_smooth_orthant_lift", "enumerate_vertices",
        "fd_second_subderivative", "grid_min_norm", "grid_min_norm_gap_bound",
    ),
    "cli": (
        "ProblemFile", "emit_csv", "parse_problem_dict", "parse_problem_file",
    ),
}

# public name -> full name of its home module
_HOME = {name: f"{__name__}.{module}"
         for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset(_EXPORTS) | {"checks"}

__all__ = sorted(_HOME)


def __getattr__(name):
    home = _HOME.get(name)
    if home is not None:
        module = sys.modules.get(home)
        if module is None:
            module = importlib.import_module(home)
        return getattr(module, name)
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | _HOME.keys() | _SUBMODULES)

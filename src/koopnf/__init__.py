"""Normal-form linearization of polynomial maps near a stable fixed point.

The package computes, stage by stage, polynomial changes of coordinates that
remove the nonlinear terms of a map T(x) = Lambda x + (higher order) with
diagonalizable, asymptotically stable linear part.  The resulting conjugacy
turns coordinate monomials into approximate eigenfunctions of the
composition operator f -> f o T, with residuals that vanish at a provable
order near the fixed point; utilities are included to verify those orders
empirically and to explore the function algebra the eigenfunctions generate.
"""

from .errors import (
    ConvergenceError,
    DefectiveMatrixError,
    MapFormatError,
    ResonanceError,
)
from .polyalg import (
    MultiIndex,
    ScalarPoly,
    VectorPoly,
    grlex_key,
    linf,
    monomial_value,
    multi_indices,
    polarize,
    sphere_points,
    sup_norm_estimate,
)
from .spectrum import (
    ResonanceEntry,
    ResonanceReport,
    Spectrum,
    apply_koopman_linear,
    check_resonance,
    eigencoordinates,
    mu,
)
from .normalform import (
    NormalFormSequence,
    NormalFormStage,
    epsilon_bound,
    lie_apply,
    lie_solve,
    normal_form_step,
    run,
    series_inverse,
    tau,
)
from .numerics import (
    DomainReport,
    PointFailure,
    ResidualStudy,
    SlopeFit,
    domain_check,
    eval_approx_eigenfunction,
    fit_loglog_slope,
    inverse_asymptotics_study,
    invert_phi_many,
    invert_phi_pointwise,
    orbit_domain_check,
    residual_study,
    tau_forward_many,
    tau_forward_pointwise,
    tau_inverse_many,
    tau_inverse_pointwise,
)
from .observables import (
    DensityRow,
    DensityTable,
    PullbackObservable,
    conjugate_in_algebra,
    density_demo,
    pullback_eval,
)
from .cli import (
    MapDescription,
    MapTerm,
    build_map,
    emit_description,
    load_description,
    parse_map,
)

__version__ = "0.1.0"

__all__ = [
    "ConvergenceError",
    "DefectiveMatrixError",
    "MapFormatError",
    "ResonanceError",
    "MultiIndex",
    "ScalarPoly",
    "VectorPoly",
    "grlex_key",
    "linf",
    "monomial_value",
    "multi_indices",
    "polarize",
    "sphere_points",
    "sup_norm_estimate",
    "ResonanceEntry",
    "ResonanceReport",
    "Spectrum",
    "apply_koopman_linear",
    "check_resonance",
    "eigencoordinates",
    "mu",
    "NormalFormSequence",
    "NormalFormStage",
    "epsilon_bound",
    "lie_apply",
    "lie_solve",
    "normal_form_step",
    "run",
    "series_inverse",
    "tau",
    "DomainReport",
    "PointFailure",
    "ResidualStudy",
    "SlopeFit",
    "domain_check",
    "eval_approx_eigenfunction",
    "fit_loglog_slope",
    "inverse_asymptotics_study",
    "invert_phi_many",
    "invert_phi_pointwise",
    "orbit_domain_check",
    "residual_study",
    "tau_forward_many",
    "tau_forward_pointwise",
    "tau_inverse_many",
    "tau_inverse_pointwise",
    "DensityRow",
    "DensityTable",
    "PullbackObservable",
    "conjugate_in_algebra",
    "density_demo",
    "pullback_eval",
    "MapDescription",
    "MapTerm",
    "build_map",
    "emit_description",
    "load_description",
    "parse_map",
]

"""Lightning-plus-polynomial rational approximation of corner singularities,
convergence-rate verification, and a lightning Laplace solver on polygons."""

from .geometry import (
    Edge,
    Polygon,
    interior_angles,
    polygon_from_file,
    resolve_corner_exponents,
)
from .kernels import (
    BranchCutError,
    KernelConfig,
    PoleCollisionError,
    QuadratureNonConvergence,
    QuadratureResult,
    identity_residual,
    identity_residual_log,
    log_weight_constant,
    trapezoid_rational,
    trapezoid_rational_log,
    truncated_integral,
    truncated_integral_log,
)
from .approx import (
    ApproxConfig,
    RationalApprox,
    TailFit,
    build_approximation,
    clustered_poles,
    deserialize,
    fit_tail,
    optimal_sigma,
    residues_power,
    residues_power_log,
    serialize,
)

from .analysis import (
    BoundContext,
    ConvergenceRecord,
    fit_rate,
    near_origin_check,
    predicted_log_rate,
    quadrature_error_curve,
    quadrature_error_envelope,
    run_sweep,
    sup_error,
)
from .corners import (
    CornerBasis,
    HarmonicSolution,
    SlitIntegralSpec,
    boundary_error,
    cauchy_slit_integral,
    concave_quadrilateral,
    curvy_l_domain,
    plan_basis,
    singular_coefficient_check,
    solve_dirichlet,
)

__version__ = "0.1.0"

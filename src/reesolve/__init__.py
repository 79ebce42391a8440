"""Solvers and certificates for regularized estimating equations.

Solve ``0 in U(beta) + lam * dOmega(beta)`` through its equivalent proximal
fixed-point and variational-inequality formulations: six interchangeable
iterative solvers, exact proximal operators for the standard sparsity
penalties, ball projections for constrained variants, and a diagnostics layer
that certifies candidate solutions from all three viewpoints.
"""

from .model import (
    GOLDEN_RATIO,
    BallConstraint,
    BallIndicator,
    DimensionMismatchError,
    ElasticNet,
    EstimatingProblem,
    GroupLasso,
    GroupPartition,
    InstanceTooLargeError,
    InvalidAlphaError,
    InvalidRadiusError,
    InvalidRhoError,
    IterationRecord,
    JacobianUnavailableError,
    Lasso,
    MissingTraceFieldsError,
    NegativeScaleError,
    NonFiniteOutputError,
    OverlappingGroupsError,
    PenaltySpec,
    ReesolveError,
    Ridge,
    Scad,
    ScadParameterError,
    SolverConfig,
    SolverReport,
    SolverStatus,
    SparseGroupLasso,
    StepOutOfRangeError,
    UncoveredIndexError,
    UnsupportedPenaltyError,
    ValidationError,
    as_coefficients,
    validate_problem,
)
from .penalties import (
    lqa_weight_diag,
    penalty_value,
    project_ball,
    prox,
    scad_derivative,
    soft_threshold,
)
from .estimating import (
    CustomEstimating,
    EstimatingFunction,
    LeastSquaresEstimating,
    LinearEstimating,
    LogisticEstimating,
    MonotonicityResult,
    evaluate,
    jacobian,
    lipschitz_upper_bound,
    monotonicity_probe,
)
from .solvers import (
    DEFAULT_METHOD,
    PathEntry,
    SOLVER_NAMES,
    lambda_max,
    run_solver,
    solve_aa,
    solve_constrained,
    solve_gra_adaptive,
    solve_gra_fixed,
    solve_km,
    solve_lqa_newton,
    solve_path,
    solve_picard,
)
from .diagnostics import (
    EnvelopeResult,
    GeometricEnvelope,
    InverseKEnvelope,
    KktReport,
    KmRateEnvelope,
    ViProbeResult,
    fixed_point_residual,
    kkt_residual,
    oracle_grid_prox,
    oracle_lasso_cd,
    rate_envelope_check,
    vi_probe,
)

__version__ = "0.1.0"

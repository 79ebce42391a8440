"""Domain types for regularized estimating equation problems.

Everything here is plain data plus validation: penalty descriptions, group
partitions, ball constraints, the (U, penalty, lambda) problem bundle, solver
configuration, and solver output records. Numerics live in the sibling
modules.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

import numpy as np

GOLDEN_RATIO = (1.0 + math.sqrt(5.0)) / 2.0


# ---------------------------------------------------------------------------
# Errors
# ---------------------------------------------------------------------------

class ReesolveError(ValueError):
    """Base class for all typed errors raised by this package."""


class DimensionMismatchError(ReesolveError):
    pass


class OverlappingGroupsError(ReesolveError):
    pass


class UncoveredIndexError(ReesolveError):
    pass


class InvalidAlphaError(ReesolveError):
    pass


class NegativeScaleError(ReesolveError):
    pass


class InvalidRadiusError(ReesolveError):
    pass


class ScadParameterError(ReesolveError):
    """SCAD shape parameter must satisfy a > 2."""


class UnsupportedPenaltyError(ReesolveError):
    pass


class JacobianUnavailableError(ReesolveError):
    pass


class StepOutOfRangeError(ReesolveError):
    pass


class InvalidRhoError(ReesolveError):
    pass


class InstanceTooLargeError(ReesolveError):
    pass


class NonFiniteOutputError(ReesolveError):
    pass


class MissingTraceFieldsError(ReesolveError):
    pass


class ValidationError(ReesolveError):
    """Problem-level invariant violation not covered by a narrower type."""


# ---------------------------------------------------------------------------
# Coefficient vectors
# ---------------------------------------------------------------------------

def as_coefficients(values, dim: Optional[int] = None) -> np.ndarray:
    """Coerce to a finite 1-d float vector, optionally of a required length.

    Coefficient vectors are plain numpy arrays throughout the package; this
    is the single validation choke point.
    """
    beta = np.atleast_1d(np.asarray(values, dtype=float))
    if beta.ndim != 1:
        raise DimensionMismatchError(
            f"coefficient vector must be 1-d, got shape {beta.shape}")
    if beta.size < 1:
        raise DimensionMismatchError("coefficient vector must have length >= 1")
    if dim is not None and beta.size != dim:
        raise DimensionMismatchError(
            f"coefficient vector has length {beta.size}, expected {dim}")
    if not np.all(np.isfinite(beta)):
        raise NonFiniteOutputError("coefficient vector contains NaN or Inf")
    return beta


# ---------------------------------------------------------------------------
# Group partitions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GroupPartition:
    """Non-overlapping cover of the coordinate indices {0, ..., p-1}.

    ``groups`` holds 0-based index tuples (file formats use 1-based indices;
    the CLI converts at the boundary). Optional per-group ``weights`` scale
    the group-norm terms; the default weight is 1 for every group.

    ``__init__`` also caches ``dimension`` and read-only index arrays, kept
    out of the fields and so out of ``==``, hash and repr: group ``j`` is
    ``order[starts[j]:starts[j] + sizes[j]]``, weighted ``weight_array[j]``.
    Code reads groups and weights through these arrays; the fields are the
    partition's identity.
    """

    groups: tuple[tuple[int, ...], ...]
    weights: Optional[tuple[float, ...]] = None

    def __init__(self, groups: Sequence[Sequence[int]],
                 weights: Optional[Sequence[float]] = None):
        norm_groups = tuple(tuple(int(i) for i in g) for g in groups)
        object.__setattr__(self, "groups", norm_groups)
        object.__setattr__(
            self, "weights",
            None if weights is None else tuple(float(w) for w in weights))
        self._validate()
        sizes = np.array([len(g) for g in norm_groups], dtype=np.intp)
        object.__setattr__(self, "dimension", int(sizes.sum()))
        for name, arr in (
                ("order", np.concatenate(norm_groups).astype(np.intp)),
                ("starts", np.cumsum(sizes) - sizes), ("sizes", sizes),
                ("weight_array", np.array(self.weights or [1.0] * sizes.size))):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    def _validate(self) -> None:
        if not self.groups:
            raise UncoveredIndexError("partition must contain at least one group")
        seen: set[int] = set()
        for g in self.groups:
            if not g:
                raise UncoveredIndexError("empty group in partition")
            for idx in g:
                if idx < 0:
                    raise UncoveredIndexError(f"negative index {idx} in partition")
                if idx in seen:
                    raise OverlappingGroupsError(
                        f"index {idx} appears in more than one group")
                seen.add(idx)
        p = max(seen) + 1
        if len(seen) != p:
            missing = sorted(set(range(p)) - seen)
            raise UncoveredIndexError(
                f"partition does not cover indices {missing}")
        if self.weights is not None:
            if len(self.weights) != len(self.groups):
                raise DimensionMismatchError(
                    "weights length must equal the number of groups")
            if any(w <= 0 for w in self.weights):
                raise ValidationError("group weights must be positive")

    def __reduce__(self):  # copies and pickles rebuild the read-only arrays
        return GroupPartition, (self.groups, self.weights)


# ---------------------------------------------------------------------------
# Penalty specifications
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PenaltySpec:
    """Marker base for algebraic penalty descriptions."""

    def dimension(self) -> Optional[int]:
        """Coordinate dimension pinned by the spec, or None if free."""
        return None


@dataclass(frozen=True)
class Ridge(PenaltySpec):
    """Squared Euclidean norm penalty."""


@dataclass(frozen=True)
class Lasso(PenaltySpec):
    """Absolute-value (l1) penalty."""


@dataclass(frozen=True)
class ElasticNet(PenaltySpec):
    """l1 plus ``ratio`` times squared l2; ``ratio`` >= 0."""

    ratio: float = 1.0

    def __post_init__(self):
        if not (self.ratio >= 0.0 and math.isfinite(self.ratio)):
            raise ValidationError("elastic net ratio must be finite and >= 0")


@dataclass(frozen=True)
class GroupLasso(PenaltySpec):
    """Sum of group Euclidean norms over a partition."""

    partition: GroupPartition

    def dimension(self) -> Optional[int]:
        return self.partition.dimension


@dataclass(frozen=True)
class SparseGroupLasso(PenaltySpec):
    """Convex mix: (1-alpha) * group norms + alpha * l1, alpha in [0, 1]."""

    partition: GroupPartition
    alpha: float = 0.5

    def __post_init__(self):
        if not (0.0 <= self.alpha <= 1.0):
            raise InvalidAlphaError(
                f"alpha must lie in [0, 1], got {self.alpha}")

    def dimension(self) -> Optional[int]:
        return self.partition.dimension


@dataclass(frozen=True, eq=False)
class BallConstraint:
    """Convex feasible set: an l1/l2 ball of given radius, or a box.

    Boxes carry per-coordinate ``lower``/``upper`` bounds and must contain 0
    so that the zero vector is always a feasible start. Radius 0 is allowed
    and denotes the degenerate singleton {0}.
    """

    norm: str = "l2"
    radius: float = 1.0
    lower: Optional[np.ndarray] = None
    upper: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.norm not in ("l1", "l2", "box"):
            raise ValidationError(f"unknown ball norm {self.norm!r}")
        if self.norm == "box":
            if self.lower is None or self.upper is None:
                raise ValidationError("box constraint needs lower and upper bounds")
            lower = np.asarray(self.lower, dtype=float)
            upper = np.asarray(self.upper, dtype=float)
            if lower.shape != upper.shape or lower.ndim != 1:
                raise DimensionMismatchError("box bounds must be 1-d and equal length")
            if np.any(lower > upper):
                raise ValidationError("box lower bound exceeds upper bound")
            if np.any(lower > 0.0) or np.any(upper < 0.0):
                raise ValidationError("box must contain the zero vector")
            object.__setattr__(self, "lower", lower)
            object.__setattr__(self, "upper", upper)
        else:
            if not (math.isfinite(self.radius) and self.radius >= 0.0):
                raise InvalidRadiusError(
                    f"ball radius must be finite and >= 0, got {self.radius}")

    def dimension(self) -> Optional[int]:
        return None if self.norm != "box" else int(self.lower.size)


@dataclass(frozen=True)
class BallIndicator(PenaltySpec):
    """Indicator penalty of a convex ball; its prox is the projection."""

    ball: BallConstraint

    def dimension(self) -> Optional[int]:
        return self.ball.dimension()


@dataclass(frozen=True)
class Scad(PenaltySpec):
    """SCAD description used only through its derivative by the LQA baseline.

    There is no prox or value for it here: the proximal machinery assumes a
    convex penalty.
    """

    a: float = 3.7

    def __post_init__(self):
        if not (self.a > 2.0):
            raise ScadParameterError(f"scad parameter a must exceed 2, got {self.a}")


# ---------------------------------------------------------------------------
# Problem bundle
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class EstimatingProblem:
    """One instance of a penalized estimating equation.

    ``u`` is the estimating function (see :mod:`reesolve.estimating`),
    ``penalty`` the algebraic penalty description and ``lam`` >= 0 the
    regularization strength; lam == 0 means the plain root-finding problem.
    Construction (and so ``dataclasses.replace``) runs
    :func:`validate_problem`, so every instance is a valid problem.
    """

    u: "object"
    penalty: PenaltySpec
    lam: float = 0.0

    def __post_init__(self):
        validate_problem(self)


def validate_problem(problem: EstimatingProblem) -> EstimatingProblem:
    """Check all cross-type invariants; return the problem unchanged.

    Raises a typed error naming the first violated invariant. Validating an
    already-valid problem is a no-op, so the call is idempotent.
    """
    lam = problem.lam
    if not (math.isfinite(lam) and lam >= 0.0):
        raise ValidationError(f"lambda must be finite and >= 0, got {lam}")
    if not isinstance(problem.penalty, PenaltySpec):
        raise UnsupportedPenaltyError(
            f"penalty must be a PenaltySpec, got {type(problem.penalty).__name__}")
    p = getattr(problem.u, "dim", None)
    if p is None:
        raise ValidationError("estimating function must expose a dim attribute")
    p = int(p)
    if p < 1:
        raise DimensionMismatchError("problem dimension must be >= 1")
    pen_dim = problem.penalty.dimension()
    if pen_dim is not None and pen_dim != p:
        if pen_dim < p and isinstance(problem.penalty, (GroupLasso, SparseGroupLasso)):
            raise UncoveredIndexError(
                f"partition covers {pen_dim} of {p} coordinates")
        raise DimensionMismatchError(
            f"penalty is defined on {pen_dim} coordinates but U has dimension {p}")
    return problem


# ---------------------------------------------------------------------------
# Solver configuration and reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SolverConfig:
    """Knobs shared by the iterative solvers.

    tau            fixed step of picard, km, aa and gra-fixed. None means
                   the largest admissible value from U's Lipschitz bound L:
                   1/L, or phi/(2L) for gra-fixed
    rho            averaging weight in (0, 1) for the averaged iteration
    t_bar          stepsize cap for the adaptive golden-ratio solver
    psi            golden-ratio-like parameter in (1, (sqrt(5)+1)/2]
    epsilon_lqa    denominator offset keeping LQA weights finite at zero
    zero_threshold truncation level c for LQA output (no theory pins this;
                   it is an explicit knob echoed into reports)
    max_iter, tol  iteration cap and termination residual
    record_iterates  keep the full iterate matrix in the report
    allow_fd_jacobian  permit central finite differences when an estimating
                   function has no analytic Jacobian
    """

    tau: Optional[float] = None
    rho: float = 0.5
    t_bar: float = 1e6
    psi: float = GOLDEN_RATIO
    epsilon_lqa: float = 1e-8
    zero_threshold: float = 1e-8
    max_iter: int = 10_000
    tol: float = 1e-9
    record_iterates: bool = True
    allow_fd_jacobian: bool = False

    def __post_init__(self):
        if self.tau is not None and not (self.tau > 0.0):
            raise ValidationError(f"tau must be positive, got {self.tau}")
        if not (0.0 < self.rho < 1.0):
            raise InvalidRhoError(f"rho must lie in (0, 1), got {self.rho}")
        if not (self.t_bar > 0.0):
            raise ValidationError(f"t_bar must be positive, got {self.t_bar}")
        if not (1.0 < self.psi <= GOLDEN_RATIO * (1.0 + 1e-12)):
            raise ValidationError(
                f"psi must lie in (1, {GOLDEN_RATIO:.10f}], got {self.psi}")
        if not (self.epsilon_lqa > 0.0):
            raise ValidationError("epsilon_lqa must be positive")
        if not (self.zero_threshold > 0.0):
            raise ValidationError("zero_threshold must be positive")
        if self.max_iter < 1:
            raise ValidationError("max_iter must be >= 1")
        if not (self.tol > 0.0):
            raise ValidationError("tol must be positive")


class SolverStatus(str, Enum):
    CONVERGED = "converged"
    MAX_ITER_REACHED = "max_iter_reached"
    DIVERGED = "diverged"
    NUMERICAL_FAILURE = "numerical_failure"


@dataclass
class IterationRecord:
    """One logged iteration: residual at the new iterate and stepsize used.

    Numbered by its trace position (from 1); only gra-adaptive sets ``theta``.
    """

    fp_residual: float
    step: float
    theta: Optional[float] = None


@dataclass
class SolverReport:
    """Outcome of one solver run.

    ``trace`` holds one record per iteration; ``iterations`` is its length.
    ``initial_residual`` is the residual at the starting point (k = 0).
    ``iterates`` (when recorded) stacks the points row-wise, row k being the
    iterate after k updates, so it has ``iterations + 1`` rows.
    """

    method: str
    status: SolverStatus
    solution: np.ndarray
    trace: list[IterationRecord]
    initial_residual: float
    config: SolverConfig
    stepsize: Optional[float] = None
    flags: tuple[str, ...] = ()
    iterates: Optional[np.ndarray] = None

    @property
    def iterations(self) -> int:
        return len(self.trace)

    @property
    def converged(self) -> bool:
        return self.status is SolverStatus.CONVERGED

    def residuals(self) -> np.ndarray:
        """Residual sequence including the starting point (index 0)."""
        return np.array([self.initial_residual]
                        + [rec.fp_residual for rec in self.trace])

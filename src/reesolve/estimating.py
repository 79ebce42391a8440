"""Estimating functions U: R^p -> R^p and probes on them.

The solvers treat U as a black box over evaluations; only the LQA baseline
needs a Jacobian. Built-ins cover a general linear map (which need not be any
objective's gradient), least squares, and the logistic score.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .model import (
    DimensionMismatchError,
    JacobianUnavailableError,
    NonFiniteOutputError,
    ValidationError,
    as_coefficients,
)

__all__ = [
    "EstimatingFunction",
    "CustomEstimating",
    "LinearEstimating",
    "LeastSquaresEstimating",
    "LogisticEstimating",
    "evaluate",
    "jacobian",
    "lipschitz_upper_bound",
    "monotonicity_probe",
    "MonotonicityResult",
]


class EstimatingFunction:
    """Base class: a dimension, an evaluator, and optional extras.

    Subclasses set ``dim`` and implement ``__call__``, returning a float
    vector of length ``dim``; they may provide an analytic ``jacobian_at``
    and a ``lipschitz`` bound, which every built-in takes as a declared
    ``lipschitz=`` argument. Instances are immutable after construction and
    safe to share across solver runs.

    The built-in linear, least-squares and logistic U also offer
    ``restrict(S)``: U on the coordinates ``S`` (an integer index array)
    with every other coordinate held at zero, as a new estimating function
    of dimension ``len(S)``. A declared ``lipschitz`` passes through, since
    it bounds the restricted U too; an undeclared one is computed from the
    restricted matrix. :func:`reesolve.solvers.solve_path` screens warm
    paths through it; a U without ``restrict`` (such as
    :class:`CustomEstimating`) is solved unscreened.

    :func:`evaluate` checks an output's shape and finiteness. The
    first-order solvers check U's output at the starting point that way and
    call U directly on every later iterate, where a non-finite output ends
    the run as diverged through the fixed-point residual.
    """

    dim: int
    lipschitz: Optional[float] = None

    def __call__(self, beta: np.ndarray) -> np.ndarray:  # pragma: no cover
        raise NotImplementedError

    def jacobian_at(self, beta: np.ndarray) -> Optional[np.ndarray]:
        return None


class CustomEstimating(EstimatingFunction):
    """Wrap a user-supplied evaluator (and optional Jacobian callable)."""

    def __init__(self, dim: int, func: Callable[[np.ndarray], np.ndarray],
                 jac: Optional[Callable[[np.ndarray], np.ndarray]] = None,
                 lipschitz: Optional[float] = None):
        if dim < 1:
            raise DimensionMismatchError("dimension must be >= 1")
        self.dim = int(dim)
        self._func = func
        self._jac = jac
        self.lipschitz = lipschitz

    def __call__(self, beta):
        return np.asarray(self._func(beta), dtype=float)

    def jacobian_at(self, beta):
        if self._jac is None:
            return None
        return np.asarray(self._jac(beta), dtype=float)


class LinearEstimating(EstimatingFunction):
    """U(beta) = A beta - b for a general (possibly non-symmetric) A.

    Monotone exactly when the symmetric part of A is positive semidefinite;
    that is probed, never assumed. Unless declared, ``lipschitz`` is the
    spectral norm of A, from the largest eigenvalue of ``A^T A``.
    """

    def __init__(self, A, b, lipschitz: Optional[float] = None):
        A = np.asarray(A, dtype=float)
        b = np.asarray(b, dtype=float)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise DimensionMismatchError(f"A must be square, got shape {A.shape}")
        if b.shape != (A.shape[0],):
            raise DimensionMismatchError(
                f"b has shape {b.shape}, expected ({A.shape[0]},)")
        if not (np.all(np.isfinite(A)) and np.all(np.isfinite(b))):
            raise NonFiniteOutputError("A and b must be finite")
        self.A = A
        self.b = b
        self.dim = A.shape[0]
        self._declared = self._lip = lipschitz

    def __call__(self, beta):
        return self.A @ beta - self.b

    def jacobian_at(self, beta):
        return self.A

    def restrict(self, S) -> "LinearEstimating":
        """``A[S][:, S] beta_S - b[S]``: U on ``S``, the rest held at zero."""
        return LinearEstimating(self.A[np.ix_(S, S)], self.b[S],
                                lipschitz=self._declared)

    @property
    def lipschitz(self) -> float:
        if self._lip is None:
            self._lip = float(np.sqrt(_largest_eigenvalue(self.A.T @ self.A)))
        return self._lip


class LeastSquaresEstimating(EstimatingFunction):
    """U(beta) = -X^T (y - X beta), the negative least-squares gradient.

    Unless declared, ``lipschitz`` is the largest eigenvalue of ``X^T X``,
    computed from the smaller of ``X X^T`` and the cached ``gram``.
    """

    def __init__(self, X, y, lipschitz: Optional[float] = None):
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        if X.ndim != 2:
            raise DimensionMismatchError(f"X must be 2-d, got shape {X.shape}")
        if y.shape != (X.shape[0],):
            raise DimensionMismatchError(
                f"y has shape {y.shape}, expected ({X.shape[0]},)")
        self.X = X
        self.y = y
        self.dim = X.shape[1]
        self._gram: Optional[np.ndarray] = None
        self._declared = self._lip = lipschitz

    @property
    def gram(self) -> np.ndarray:
        if self._gram is None:
            # read-only: it is handed out as the Jacobian at every beta
            self._gram = self.X.T @ self.X
            self._gram.flags.writeable = False
        return self._gram

    def __call__(self, beta):
        # X^T (X beta - y): negating the n-vector, not the n x p design
        return self.X.T @ (self.X @ beta - self.y)

    def jacobian_at(self, beta):
        return self.gram

    def restrict(self, S) -> "LeastSquaresEstimating":
        """Least squares on the columns ``X[:, S]``."""
        return LeastSquaresEstimating(self.X[:, S], self.y,
                                      lipschitz=self._declared)

    @property
    def lipschitz(self) -> float:
        if self._lip is None:
            n, p = self.X.shape
            self._lip = _largest_eigenvalue(
                self.X @ self.X.T if n < p else self.gram)
        return self._lip


class LogisticEstimating(EstimatingFunction):
    """U(beta) = -X^T (y - sigmoid(X beta)), the negative logistic score.

    The sigmoid is the module's ``_sigmoid``. No Lipschitz bound is
    self-declared; pass ``lipschitz`` explicitly if a solver needs one.
    """

    def __init__(self, X, y, lipschitz: Optional[float] = None):
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        if X.ndim != 2:
            raise DimensionMismatchError(f"X must be 2-d, got shape {X.shape}")
        if y.shape != (X.shape[0],):
            raise DimensionMismatchError(
                f"y has shape {y.shape}, expected ({X.shape[0]},)")
        if not np.all(np.isin(y, (0.0, 1.0))):
            raise ValidationError("logistic responses must be 0/1")
        self.X = X
        self.y = y
        self.dim = X.shape[1]
        self.lipschitz = lipschitz

    def __call__(self, beta):
        return self.X.T @ (_sigmoid(self.X @ beta) - self.y)

    def jacobian_at(self, beta):
        mu = _sigmoid(self.X @ beta)
        w = mu * (1.0 - mu)
        return self.X.T @ (w[:, None] * self.X)

    def restrict(self, S) -> "LogisticEstimating":
        """The logistic score on the columns ``X[:, S]``."""
        return LogisticEstimating(self.X[:, S], self.y,
                                  lipschitz=self.lipschitz)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """The logistic function ``1 / (1 + exp(-z))``.

    For very negative z, ``exp(-z)`` overflows to inf and the result is the
    exact limit 0; that overflow is expected and not warned about.
    """
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-z))


def evaluate(f: EstimatingFunction, beta) -> np.ndarray:
    """Evaluate U(beta) with dimension and finiteness checks."""
    beta = as_coefficients(beta, f.dim)
    out = np.asarray(f(beta), dtype=float)
    if out.shape != (f.dim,):
        raise DimensionMismatchError(
            f"U returned shape {out.shape}, expected ({f.dim},)")
    if not np.all(np.isfinite(out)):
        raise NonFiniteOutputError("U(beta) contains NaN or Inf")
    return out


def jacobian(f: EstimatingFunction, beta, allow_fd: bool = False) -> np.ndarray:
    """Jacobian of U at beta: analytic when available, else central
    finite differences (only when ``allow_fd``; silent numerical Jacobians
    can mask user errors).

    The difference step is ``eps_machine**(1/3) * (1 + |beta_j|)`` per
    coordinate.
    """
    beta = as_coefficients(beta, f.dim)
    analytic = f.jacobian_at(beta)
    if analytic is not None:
        analytic = np.asarray(analytic, dtype=float)
        if analytic.shape != (f.dim, f.dim):
            raise DimensionMismatchError(
                f"Jacobian has shape {analytic.shape}, expected square of {f.dim}")
        return analytic
    if not allow_fd:
        raise JacobianUnavailableError(
            "estimating function has no analytic Jacobian and finite "
            "differencing was not enabled")
    h0 = float(np.finfo(float).eps) ** (1.0 / 3.0)
    J = np.empty((f.dim, f.dim))
    for j in range(f.dim):
        h = h0 * (1.0 + abs(beta[j]))
        e = np.zeros(f.dim)
        e[j] = h
        J[:, j] = (evaluate(f, beta + e) - evaluate(f, beta - e)) / (2.0 * h)
    return J


def _largest_eigenvalue(M: np.ndarray) -> float:
    """Largest eigenvalue of a symmetric PSD matrix (0 for an empty one)."""
    return float(np.linalg.eigvalsh(M).max(initial=0.0))


def lipschitz_upper_bound(f: EstimatingFunction) -> Optional[float]:
    """Lipschitz bound for U, or None when none is derivable.

    A constant declared at construction wins; else linear maps get the
    spectral norm of A and least squares that of X^T X, both exact up to
    rounding (one symmetric eigenvalue decomposition, cached).
    """
    return f.lipschitz


@dataclass
class MonotonicityResult:
    """Outcome of a randomized monotonicity probe."""

    passed: bool
    trials: int
    seed: int
    worst_inner: float
    pair: Optional[tuple[np.ndarray, np.ndarray]] = None


def _sample_ball(rng: np.random.Generator, p: int, radius: float) -> np.ndarray:
    x = rng.standard_normal(p)
    x /= np.linalg.norm(x)
    return radius * rng.uniform() ** (1.0 / p) * x


def monotonicity_probe(f: EstimatingFunction, trials: int, radius: float,
                       seed: int) -> MonotonicityResult:
    """Sample pairs in the origin-centered ball and test
    ``<U(b) - U(b'), b - b'> >= 0``.

    Returns the first violating pair (inner product below -1e-10) or a pass;
    deterministic for a given seed.
    """
    if trials < 1:
        raise ValidationError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    worst = np.inf
    for _ in range(trials):
        b1 = _sample_ball(rng, f.dim, radius)
        b2 = _sample_ball(rng, f.dim, radius)
        inner = float((evaluate(f, b1) - evaluate(f, b2)) @ (b1 - b2))
        worst = min(worst, inner)
        if inner < -1e-10:
            return MonotonicityResult(False, trials, seed, inner, (b1, b2))
    return MonotonicityResult(True, trials, seed, worst)

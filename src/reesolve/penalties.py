"""Penalty values, exact proximal operators, and ball projections.

All operators are stateless pure functions dispatching on the penalty
description dataclasses from :mod:`reesolve.model`. The prox of scale * Omega
is the unique minimizer of ``0.5 * ||z - v||^2 + scale * Omega(z)``; every
closed form below is certified against a brute-force grid oracle in the test
suite.
"""

from __future__ import annotations

import math
from typing import Union

import numpy as np

from .model import (
    BallConstraint,
    BallIndicator,
    DimensionMismatchError,
    ElasticNet,
    GroupLasso,
    GroupPartition,
    InvalidRadiusError,
    Lasso,
    NegativeScaleError,
    PenaltySpec,
    Ridge,
    Scad,
    ScadParameterError,
    SparseGroupLasso,
    UnsupportedPenaltyError,
    as_coefficients,
)

__all__ = [
    "penalty_value",
    "prox",
    "project_ball",
    "soft_threshold",
    "scad_derivative",
    "lqa_weight_diag",
]


def soft_threshold(v: np.ndarray, threshold: float) -> np.ndarray:
    """Coordinatewise ``sign(v) * max(|v| - threshold, 0)``."""
    return np.sign(v) * np.maximum(np.abs(v) - threshold, 0.0)


def _check_spec_dim(spec: PenaltySpec, p: int) -> None:
    d = spec.dimension()
    if d is not None and d != p:
        raise DimensionMismatchError(
            f"penalty defined on {d} coordinates, vector has {p}")


def _group_norms(part: GroupPartition, vo: np.ndarray) -> np.ndarray:
    """Euclidean norm of every group of ``vo``, a vector in ``part.order``."""
    return np.sqrt(np.add.reduceat(vo * vo, part.starts))


def _group_shrink(part: GroupPartition, v: np.ndarray,
                  scale: float) -> np.ndarray:
    """Block soft-thresholding: group ``j`` of ``v`` times
    ``max(1 - scale * w_j / ||v_j||, 0)``, a zero-norm group mapping to 0."""
    vo = v[part.order]
    norms = _group_norms(part, vo)
    thresh = scale * part.weight_array
    keep = norms > thresh
    factor = np.where(keep, 1.0 - thresh / np.where(keep, norms, 1.0), 0.0)
    out = np.empty_like(v)
    out[part.order] = np.repeat(factor, part.sizes) * vo
    return out


def penalty_value(spec: PenaltySpec, beta) -> float:
    """Evaluate the penalty at ``beta``.

    The ball indicator returns 0.0 on the feasible set and ``math.inf`` off
    it (serialization layers are responsible for rendering the sentinel
    portably).
    """
    beta = as_coefficients(beta)
    _check_spec_dim(spec, beta.size)
    if isinstance(spec, Ridge):
        return float(beta @ beta)
    if isinstance(spec, Lasso):
        return float(np.abs(beta).sum())
    if isinstance(spec, ElasticNet):
        return float(np.abs(beta).sum() + spec.ratio * (beta @ beta))
    if isinstance(spec, GroupLasso):
        part = spec.partition
        return float(part.weight_array @ _group_norms(part, beta[part.order]))
    if isinstance(spec, SparseGroupLasso):
        part = spec.partition
        group_part = part.weight_array @ _group_norms(part, beta[part.order])
        return float((1.0 - spec.alpha) * group_part
                     + spec.alpha * np.abs(beta).sum())
    if isinstance(spec, BallIndicator):
        return 0.0 if _ball_contains(spec.ball, beta) else math.inf
    raise UnsupportedPenaltyError(
        f"no penalty value for {type(spec).__name__}")


def prox(spec: PenaltySpec, v, scale: float) -> np.ndarray:
    """Proximal operator: ``argmin_z 0.5 ||z - v||^2 + scale * Omega(z)``.

    Parameters
    ----------
    spec : PenaltySpec
        Penalty description; for a ball indicator the prox is the Euclidean
        projection at every scale, 0 included (``0 * indicator`` is the
        indicator), so a constrained problem's lambda plays no role.
    v : array_like
        Input point.
    scale : float
        Nonnegative multiplier (plays the role of stepsize times lambda).
        ``scale == 0`` returns ``v`` unchanged for every other penalty.

    Notes
    -----
    Group factors with a zero denominator are defined as 0, which is the
    continuous extension: the prox objective's unique minimizer there is the
    zero subvector.
    """
    v = as_coefficients(v)
    _check_spec_dim(spec, v.size)
    if not (scale >= 0.0):
        raise NegativeScaleError(f"scale must be >= 0, got {scale}")
    return _prox(spec, v, scale)


def _prox(spec: PenaltySpec, v: np.ndarray, scale: float) -> np.ndarray:
    """:func:`prox` without its checks, for callers that have validated the
    penalty, the point's length and the scale once: ``v`` a float vector,
    ``scale >= 0``.

    A non-finite ``v`` gives a non-finite result. Ball projections still
    check their input (a box would clip an infinite coordinate to a finite
    bound), so there a non-finite ``v`` raises :class:`NonFiniteOutputError`
    as it does in :func:`prox`.
    """
    if isinstance(spec, BallIndicator):
        return project_ball(spec.ball, v)
    if scale == 0.0:
        return v.copy()
    if isinstance(spec, Lasso):
        return soft_threshold(v, scale)
    if isinstance(spec, Ridge):
        return v / (1.0 + 2.0 * scale)
    if isinstance(spec, ElasticNet):
        return soft_threshold(v, scale) / (1.0 + 2.0 * scale * spec.ratio)
    if isinstance(spec, GroupLasso):
        return _group_shrink(spec.partition, v, scale)
    if isinstance(spec, SparseGroupLasso):
        alpha = spec.alpha
        return _group_shrink(spec.partition, soft_threshold(v, alpha * scale),
                             (1.0 - alpha) * scale)
    raise UnsupportedPenaltyError(
        f"no proximal operator for {type(spec).__name__}")


def _ball_contains(ball: BallConstraint, y: np.ndarray, rtol: float = 1e-12) -> bool:
    if ball.norm == "l2":
        return float(np.linalg.norm(y)) <= ball.radius * (1.0 + rtol) + rtol
    if ball.norm == "l1":
        return float(np.abs(y).sum()) <= ball.radius * (1.0 + rtol) + rtol
    return bool(np.all(y >= ball.lower - rtol) and np.all(y <= ball.upper + rtol))


def project_ball(ball: BallConstraint, y) -> np.ndarray:
    """Euclidean projection of ``y`` onto the ball.

    l2 balls scale radially; boxes clamp coordinatewise; l1 balls use the
    sort-and-threshold scheme, shifting the sorted magnitudes by the unique
    threshold that lands the projected l1 norm exactly on the radius.
    """
    y = as_coefficients(y)
    if ball.norm == "box":
        if ball.lower.size != y.size:
            raise DimensionMismatchError(
                f"box is {ball.lower.size}-dimensional, vector has {y.size}")
        return np.clip(y, ball.lower, ball.upper)
    r = ball.radius
    if r < 0.0:
        raise InvalidRadiusError(f"radius must be >= 0, got {r}")
    if ball.norm == "l2":
        norm = float(np.linalg.norm(y))
        if norm <= r:
            return y.copy()
        return (r / norm) * y
    # l1 ball
    if float(np.abs(y).sum()) <= r:
        return y.copy()
    if r == 0.0:
        return np.zeros_like(y)
    # with the gaps g = max|y| - |y| sorted ascending, the threshold is
    # max|y| - top for top = (g[0] + ... + g[j] + r)/(j + 1), j the last
    # index with (j+1)*g[j] - (g[0] + ... + g[j]) < r (index 0 always
    # qualifies). A kept coordinate is top minus its gap, not |y_i| minus
    # the threshold, which rounds to max|y| when max|y| is far above r
    mags = np.abs(y)
    gaps = mags.max() - mags
    g = np.sort(gaps)
    sums = np.cumsum(g)
    j = int(np.flatnonzero(np.arange(1, y.size + 1) * g - sums < r)[-1])
    top = (sums[j] + r) / (j + 1)
    return np.sign(y) * np.maximum(top - gaps, 0.0)


def scad_derivative(t, lam: float, a: float):
    """Derivative of the SCAD penalty at nonnegative ``t``.

    ``lam * (I(t < lam) + max(a*lam - t, 0) / ((a - 1) * lam) * I(t >= lam))``
    for shape parameter ``a > 2``. Accepts scalars or arrays.
    """
    if not (a > 2.0):
        raise ScadParameterError(f"scad parameter a must exceed 2, got {a}")
    if not (lam > 0.0):
        raise ScadParameterError(f"lambda must be positive, got {lam}")
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < 0.0):
        raise ScadParameterError("scad derivative is defined for t >= 0")
    inner = t_arr < lam
    tail = np.maximum(a * lam - t_arr, 0.0) / ((a - 1.0) * lam)
    out = lam * np.where(inner, 1.0, tail)
    return float(out) if np.isscalar(t) or t_arr.ndim == 0 else out


def lqa_weight_diag(spec: Union[Lasso, Scad], beta, lam: float,
                    epsilon: float) -> np.ndarray:
    """Diagonal weights ``p'(|beta_j|) / (|beta_j| + epsilon)`` for LQA.

    Only elementwise-separable penalties admit these weights: lasso (constant
    derivative ``lam``) and SCAD. Group penalties raise
    :class:`UnsupportedPenaltyError`.
    """
    if not (epsilon > 0.0):
        raise NegativeScaleError(f"epsilon must be positive, got {epsilon}")
    beta = as_coefficients(beta)
    mags = np.abs(beta)
    if isinstance(spec, Lasso):
        deriv = np.full_like(mags, lam)
    elif isinstance(spec, Scad):
        deriv = scad_derivative(mags, lam, spec.a)
    else:
        raise UnsupportedPenaltyError(
            f"{type(spec).__name__} has no elementwise derivative table")
    return deriv / (mags + epsilon)

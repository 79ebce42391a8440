"""Certification of candidate solutions and independent test oracles.

A candidate solves the penalized estimating equation iff it solves the
equivalent proximal fixed-point problem iff it solves the equivalent
variational inequality; the three residual checks here certify all corners of
that triangle. The two oracles (cyclic coordinate descent for lasso least
squares, brute-force grid minimization of the prox objective) deliberately
share no code with the penalty or solver modules beyond the core types, so
they can serve as independent ground truth in tests.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Union

import numpy as np

from .estimating import evaluate, lipschitz_upper_bound
from .model import (
    BallIndicator,
    ElasticNet,
    EstimatingProblem,
    GroupLasso,
    InstanceTooLargeError,
    Lasso,
    MissingTraceFieldsError,
    NegativeScaleError,
    NonFiniteOutputError,
    PenaltySpec,
    Ridge,
    SolverReport,
    SparseGroupLasso,
    UnsupportedPenaltyError,
    ValidationError,
    as_coefficients,
)
from .penalties import _prox, penalty_value, project_ball, prox

__all__ = [
    "fixed_point_residual",
    "kkt_residual",
    "KktReport",
    "vi_probe",
    "ViProbeResult",
    "vi_gap",
    "ViGapResult",
    "oracle_lasso_cd",
    "oracle_grid_prox",
    "rate_envelope_check",
    "GeometricEnvelope",
    "KmRateEnvelope",
    "InverseKEnvelope",
    "EnvelopeResult",
]


# ---------------------------------------------------------------------------
# Fixed-point residual
# ---------------------------------------------------------------------------

def fixed_point_residual(problem: EstimatingProblem, beta, tau: float) -> float:
    """``|| prox_{tau*lam*Omega}(beta - tau*U(beta)) - beta ||_2``.

    Zero exactly at solutions, for every tau > 0. For a ball indicator the
    prox is the projection at every scale, so the map is
    ``P_C(beta - tau*U(beta))`` and the problem's lambda plays no role.
    """
    if not (tau > 0.0):
        raise ValidationError(f"tau must be positive, got {tau}")
    beta = as_coefficients(beta, problem.u.dim)
    step = prox(problem.penalty, beta - tau * evaluate(problem.u, beta),
                tau * problem.lam)
    with np.errstate(over="ignore"):  # a residual past the float range is inf
        return float(np.linalg.norm(step - beta))


# ---------------------------------------------------------------------------
# KKT residual
# ---------------------------------------------------------------------------

@dataclass
class KktReport:
    """Stationarity violations split by coordinate and by group.

    ``coordinate`` holds per-coordinate violations (lasso; within-group parts
    of the sparse group lasso). ``group`` holds per-group violations (group
    norms; zero-group conditions). Either may be None when not applicable.
    """

    max_residual: float
    coordinate: Optional[np.ndarray] = None
    group: Optional[np.ndarray] = None


def kkt_residual(problem: EstimatingProblem, beta) -> KktReport:
    """Stationarity-condition violations at ``beta``.

    Active coordinates (groups) must satisfy the signed (directional)
    equation exactly; inactive ones must have the matching dual norm of U
    below lambda. Only the sparsity-inducing penalties admit this case
    split; ridge-type penalties should be certified through
    :func:`fixed_point_residual` instead.

    Each entry is the distance from the matching part of ``-U(beta)`` to
    ``lam * dOmega(beta)``, so the entries' Euclidean norm is
    ``dist_2(-U(beta), lam * dOmega(beta))`` (see :func:`vi_gap`).
    """
    beta = as_coefficients(beta, problem.u.dim)
    return _kkt_split(problem.penalty, beta, evaluate(problem.u, beta),
                      problem.lam)


def _l1_residual(beta: np.ndarray, g: np.ndarray, lam: float) -> np.ndarray:
    """Per-coordinate distance from ``-g`` to ``lam * d||beta||_1``."""
    return np.where(beta != 0.0, np.abs(g + lam * np.sign(beta)),
                    np.maximum(np.abs(g) - lam, 0.0))


def _kkt_split(pen: PenaltySpec, beta: np.ndarray, u: np.ndarray,
               lam: float) -> KktReport:
    """:func:`kkt_residual` at ``beta`` with ``u = U(beta)`` given."""
    if isinstance(pen, Lasso):
        res = _l1_residual(beta, u, lam)
        return KktReport(float(res.max()), coordinate=res)

    if isinstance(pen, (GroupLasso, SparseGroupLasso)):
        part = pen.partition
        order, starts, sizes = part.order, part.starts, part.sizes
        bo, uo = beta[order], u[order]
        alpha = pen.alpha if isinstance(pen, SparseGroupLasso) else 0.0
        lam_grp = lam * (1.0 - alpha) * part.weight_array
        norms = np.sqrt(np.add.reduceat(bo * bo, starts))
        active = norms > 0.0
        # u_g + lam_g * b_g / ||b_g|| on active groups, u_g on inactive ones
        direction = bo / np.repeat(np.where(active, norms, 1.0), sizes)
        stat = uo + np.repeat(lam_grp, sizes) * direction
        if isinstance(pen, GroupLasso):
            stat_norms = np.sqrt(np.add.reduceat(stat * stat, starts))
            res = np.where(active, stat_norms,
                           np.maximum(stat_norms - lam_grp, 0.0))
            return KktReport(float(res.max()), group=res)
        lam_l1 = lam * alpha
        coord_o = _l1_residual(bo, stat, lam_l1)
        coord = np.empty_like(beta)
        coord[order] = np.where(np.repeat(active, sizes), coord_o, 0.0)
        shrunk = np.sign(uo) * np.maximum(np.abs(uo) - lam_l1, 0.0)
        shrunk_norms = np.sqrt(np.add.reduceat(shrunk * shrunk, starts))
        group = np.where(active, 0.0, np.maximum(shrunk_norms - lam_grp, 0.0))
        return KktReport(float(max(coord.max(), group.max())),
                         coordinate=coord, group=group)

    raise UnsupportedPenaltyError(
        f"no stationarity case split for {type(pen).__name__}; "
        "use fixed_point_residual")


# ---------------------------------------------------------------------------
# Variational-inequality probe
# ---------------------------------------------------------------------------

def _omega_rows(spec: PenaltySpec, Z: np.ndarray) -> np.ndarray:
    """Penalty values for each row of Z (diagnostics-local evaluator)."""
    if isinstance(spec, Ridge):
        return (Z ** 2).sum(axis=1)
    if isinstance(spec, Lasso):
        return np.abs(Z).sum(axis=1)
    if isinstance(spec, ElasticNet):
        return np.abs(Z).sum(axis=1) + spec.ratio * (Z ** 2).sum(axis=1)
    if isinstance(spec, (GroupLasso, SparseGroupLasso)):
        # a per-group loop: gathering Z[:, order] for np.add.reduceat costs
        # more than the loop at vi_probe's samples x p sizes
        part = spec.partition
        grp = np.zeros(Z.shape[0])
        for s, n, w in zip(part.starts, part.sizes, part.weight_array):
            grp += w * np.sqrt((Z[:, part.order[s:s + n]] ** 2).sum(axis=1))
        if isinstance(spec, GroupLasso):
            return grp
        return (1.0 - spec.alpha) * grp + spec.alpha * np.abs(Z).sum(axis=1)
    if isinstance(spec, BallIndicator):
        ball = spec.ball
        if ball.norm == "l2":
            ok = np.sqrt((Z ** 2).sum(axis=1)) <= ball.radius * (1 + 1e-12) + 1e-12
        elif ball.norm == "l1":
            ok = np.abs(Z).sum(axis=1) <= ball.radius * (1 + 1e-12) + 1e-12
        else:
            ok = np.all((Z >= ball.lower - 1e-12) & (Z <= ball.upper + 1e-12),
                        axis=1)
        return np.where(ok, 0.0, np.inf)
    raise UnsupportedPenaltyError(
        f"no row evaluator for {type(spec).__name__}")


# one slot: the solves of one problem probe it with the same (read-only) draw
@lru_cache(maxsize=1)
def _draw_offsets(seed: int, samples: int, radius: float, p: int) -> np.ndarray:
    """``samples`` points uniform in the p-ball of ``radius``, as offsets."""
    rng = np.random.default_rng(seed)
    dirs = rng.standard_normal((samples, p))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    radii = radius * rng.uniform(size=samples) ** (1.0 / p)
    offsets = radii[:, None] * dirs
    offsets.flags.writeable = False
    return offsets


@dataclass
class ViProbeResult:
    """Outcome of a sampled variational-inequality check."""

    passed: bool
    worst_value: float
    worst_point: Optional[np.ndarray]
    samples: int
    radius: float
    seed: int
    tol: float


# about 1 MB of float64 per block of probe points
_BLOCK_ELEMENTS = 2 ** 17


def _row_blocks(samples: int, p: int):
    """``(start, stop)`` row ranges of ``max(2, 2**17 // p)`` rows covering
    ``samples``. A one-row remainder joins the block before it: numpy
    multiplies a single row by another BLAS path, which can round
    differently, so no block has one row unless ``samples == 1``."""
    rows = max(2, _BLOCK_ELEMENTS // p)
    start = 0
    while start < samples:
        stop = min(start + rows, samples)
        if samples - stop == 1:
            stop = samples
        yield start, stop
        start = stop


def check_radius(radius) -> float:
    """A VI certificate's radius as a float: a positive finite real, else
    :class:`ValidationError`."""
    if not isinstance(radius, numbers.Real) or not 0.0 < radius < math.inf:
        raise ValidationError(
            f"radius must be positive and finite, got {radius!r}")
    return float(radius)


def vi_probe(problem: EstimatingProblem, beta_hat, samples: int,
             radius: float, seed: int, tol: float = 1e-8) -> ViProbeResult:
    """Sample the inequality
    ``U(bh)^T (b - bh) + lam*(Omega(b) - Omega(bh)) >= 0``
    at random points ``b`` in a ball of the given radius around ``bh``.

    For ball-indicator penalties the samples are projected onto the feasible
    set first and the inequality reduces to ``U(bh)^T (b - bh) >= 0`` over
    feasible ``b`` (an infeasible candidate fails outright). Passes when
    the most negative value found is at least ``-tol``; a value that
    overflows reads nan and fails, without a warning.

    ``samples`` is an integer >= 1, ``radius`` passes :func:`check_radius`
    and ``seed`` is a non-negative integer (numpy integers and bools count);
    anything else raises :class:`ValidationError`. The random offsets added
    to ``bh`` depend only on ``(seed, samples, radius, p)``, so probes that
    share them (solves of one problem by two methods) reuse one draw. The
    last draw stays cached between calls: one read-only ``samples x p``
    float64 matrix, 3.2 MB for 1000 samples at p=400. The points
    ``bh + offset`` are formed and valued a block of rows at a time (about
    1 MB each), so a probe's temporaries stay at that size whatever
    ``samples`` is, and the worst point is rebuilt from its offset. Every
    value matches a probe over the whole matrix bit for bit.
    """
    if not isinstance(samples, numbers.Integral) or samples < 1:
        raise ValidationError(
            f"samples must be >= 1 (an integer), got {samples!r}")
    radius = check_radius(radius)
    if not isinstance(seed, numbers.Integral) or seed < 0:
        raise ValidationError(
            f"seed must be a non-negative integer, got {seed!r}")
    samples, seed = int(samples), int(seed)
    beta_hat = as_coefficients(beta_hat, problem.u.dim)
    offsets = _draw_offsets(seed, samples, radius, beta_hat.size)

    u_hat = evaluate(problem.u, beta_hat)
    pen = problem.penalty
    ball = pen.ball if isinstance(pen, BallIndicator) else None
    if ball is not None and not math.isfinite(penalty_value(pen, beta_hat)):
        return ViProbeResult(False, -math.inf, None, samples, radius, seed, tol)
    with_omega = ball is None and problem.lam > 0.0
    if with_omega:
        omega_hat = _omega_rows(pen, beta_hat[None, :])[0]

    def points(rows: np.ndarray) -> np.ndarray:
        B = beta_hat + rows
        if ball is not None:
            B = np.vstack([project_ball(ball, row) for row in B])
        return B

    values = np.empty(samples)
    # a huge radius overflows to inf and nan; a nan worst value fails
    with np.errstate(over="ignore", invalid="ignore"):
        for start, stop in _row_blocks(samples, beta_hat.size):
            B = points(offsets[start:stop])
            block = (B - beta_hat) @ u_hat
            if with_omega:
                block = block + problem.lam * (_omega_rows(pen, B) - omega_hat)
            values[start:stop] = block
        worst_idx = int(np.argmin(values))
        worst = float(values[worst_idx])
        return ViProbeResult(worst >= -tol, worst,
                             points(offsets[worst_idx:worst_idx + 1])[0],
                             samples, radius, seed, tol)


# ---------------------------------------------------------------------------
# Exact variational-inequality gap
# ---------------------------------------------------------------------------

@dataclass
class ViGapResult:
    """Outcome of :func:`vi_gap`: the least VI value over a ball, the point
    attaining it, the convexity lower bound (None for the l1 ball, which has
    no closed form for the distance here, and for an infeasible ball
    candidate) and the verdict at ``tol``."""

    passed: bool
    value: float
    witness: Optional[np.ndarray]
    lower: Optional[float]
    radius: float
    tol: float


def _l1_l2_weights(pen: PenaltySpec) -> Optional[tuple[float, float]]:
    """``(a, r)`` with ``Omega(b) = a*||b||_1 + r*||b||^2``, or None when
    the penalty is not of that form."""
    if isinstance(pen, Lasso):
        return 1.0, 0.0
    if isinstance(pen, ElasticNet):
        return 1.0, pen.ratio
    if isinstance(pen, Ridge):
        return 0.0, 1.0
    return None


def _norm(v: np.ndarray) -> float:
    """``||v||_2``. A norm that overflows is recomputed for ``v`` scaled by
    a power of two near its largest magnitude, as in :func:`_sphere_step`,
    so it is inf only when the norm itself is past the float range; every
    other result is ``np.linalg.norm``'s, bit for bit."""
    norm = float(np.linalg.norm(v))
    if norm == math.inf and np.isfinite(v).all():
        k = math.frexp(float(np.max(np.abs(v))))[1]
        try:
            norm = math.ldexp(float(np.linalg.norm(np.ldexp(v, -k))), k)
        except OverflowError:
            pass
    return norm


def _stationarity_distance(pen: PenaltySpec, beta: np.ndarray, u: np.ndarray,
                           lam: float) -> Optional[float]:
    """``dist_2(-u, lam * dOmega(beta))``; for a ball the distance from
    ``-u`` to the normal cone at ``beta``. None for the l1 ball."""
    weights = _l1_l2_weights(pen)
    if weights is not None:
        a, r = weights
        return _norm(_l1_residual(beta, u + 2.0 * lam * r * beta, lam * a))
    if isinstance(pen, (GroupLasso, SparseGroupLasso)):
        split = _kkt_split(pen, beta, u, lam)
        return math.hypot(*(_norm(part)
                            for part in (split.coordinate, split.group)
                            if part is not None))
    ball = pen.ball
    if ball.norm == "box":
        # factor j of the normal cone: (-inf, 0] at a lower bound, [0, inf)
        # at an upper one, {0} strictly inside
        low = np.where(beta <= ball.lower, -np.inf, 0.0)
        high = np.where(beta >= ball.upper, np.inf, 0.0)
        return _norm(np.maximum(np.maximum(low + u, -u - high), 0.0))
    if ball.norm == "l2":
        norm = _norm(beta)
        if norm < ball.radius:
            return _norm(u)
        if norm == 0.0:  # the ball is the single point 0
            return 0.0
        return _norm(u + max(0.0, -float(u @ beta)) / (norm * norm) * beta)
    return None


def _sphere_step(d: np.ndarray, step: np.ndarray, radius: float,
                 t_max: float) -> float:
    """Least ``t >= 0`` with ``||d + t*step|| = radius``, given
    ``||d|| <= radius``, capped at ``t_max``; 0 when ``step`` is 0.

    The quadratic is solved for ``step`` scaled by a power of two near its
    largest magnitude, so a step near the float range does not overflow
    when squared; the scaling, and so ``t``, is exact."""
    scale = float(np.max(np.abs(step)))
    if not scale > 0.0:
        return 0.0
    k = math.frexp(scale)[1]
    step = np.ldexp(step, -k)
    a = float(step @ step)
    b = float(d @ step)
    c = min(float(d @ d) - radius * radius, 0.0)
    disc = math.sqrt(b * b - a * c)
    # the two forms of the same root, each free of cancellation on its side
    t = -c / (b + disc) if b > 0.0 else (disc - b) / a
    return min(math.ldexp(t, -k), t_max)


def _kinked_witness(point, beta: np.ndarray, radius: float,
                    kinks: np.ndarray, c: float) -> np.ndarray:
    """The witness when ``point(tau) - beta`` is affine in
    ``s = tau / (1 + c*tau)`` between the sorted positive ``kinks``: a
    binary search for the piece where the distance crosses ``radius``, then
    one quadratic on it."""
    lo, hi = -1, kinks.size
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if np.linalg.norm(point(kinks[mid]) - beta) <= radius:
            lo = mid
        else:
            hi = mid
    tau_lo = kinks[lo] if lo >= 0 else 0.0
    d_lo = point(tau_lo) - beta
    if hi < kinks.size:  # t in [0, 1] spans the piece
        step = point(kinks[hi]) - beta - d_lo
        t_max = 1.0
    else:
        # past the last kink: the direction comes from two points inside
        # the piece, as a point at a kink may keep a rounding residue of a
        # coordinate that the piece holds at zero; s tends to 1/c
        tau_a = 2.0 * tau_lo if tau_lo > 0.0 else 1.0
        tau_b = 2.0 * tau_a
        s_lo, s_a, s_b = (t / (1.0 + c * t) for t in (tau_lo, tau_a, tau_b))
        step = (point(tau_b) - point(tau_a)) * ((s_a - s_lo) / (s_b - s_a))
        t_max = ((1.0 / c if c else math.inf) - s_lo) / (s_a - s_lo)
    return beta + d_lo + _sphere_step(d_lo, step, radius, t_max) * step


# the allowance for rounding: of the derived tolerance in the value, per
# unit of sqrt(p) * (R*||U|| + lam*(|Omega(witness)| + |Omega(bh)|)), and
# of the searched witness's stationarity defect, per unit of ||U||
_ROUNDING = 8.0 * sys.float_info.epsilon


def _searched_witness(point, beta: np.ndarray, radius: float,
                      norm_u: float) -> np.ndarray:
    """The witness for the other penalties; ``norm_u`` is ``||U(bh)||``
    (or 1 when it is 0). ``d(tau)`` is nondecreasing and ``d(tau)/tau``
    nonincreasing, so ``tau*radius/d(tau)`` never passes the root: steps
    of at least 2 from ``radius/norm_u`` bracket it, then regula falsi
    (Illinois) closes in from below.

    A point inside the ball ends the search when ``d/tau`` falls to the
    rounding of U. The prox's optimality condition puts ``-U(bh)`` within
    ``d/tau`` of ``lam*dOmega(x)``, so by convexity no point of the ball
    beats ``phi(x)`` by more than ``(d/tau)*(radius + d)``: x is the
    limit of a path that stays inside the ball, to rounding. The motion of
    the point cannot decide this, as a group can sit at zero for a range
    of tau and move again. ``d/tau`` falls at least like ``1/tau``, so the
    search ends after a bounded number of steps; an overflowing step gives
    the last point inside the ball."""
    lo, x_lo, d_lo = 0.0, beta, 0.0
    tau = radius / norm_u
    while True:
        x = point(tau)
        d = float(np.linalg.norm(x - beta))
        if not d == d:  # overflow: no representable point past x_lo
            return x_lo
        if d > radius:
            break
        if d <= _ROUNDING * norm_u * tau:
            return x
        lo, x_lo, d_lo = tau, x, d
        tau *= max(2.0, radius / d)
    hi, f_lo, f_hi, side = tau, d_lo - radius, d - radius, 0
    for _ in range(64):
        if -f_lo <= 1e-13 * radius or hi - lo <= 1e-15 * hi:
            break
        tau = (lo * f_hi - hi * f_lo) / (f_hi - f_lo)
        if not lo < tau < hi:
            tau = 0.5 * (lo + hi)
        x = point(tau)
        f = float(np.linalg.norm(x - beta)) - radius
        if f <= 0.0:
            lo, x_lo, f_lo = tau, x, f
            if side < 0:
                f_hi *= 0.5
            side = -1
        else:
            hi, f_hi = tau, f
            if side > 0:
                f_lo *= 0.5
            side = 1
    return x_lo


def _witness(pen: PenaltySpec, point, beta: np.ndarray, u: np.ndarray,
             lam: float, radius: float) -> np.ndarray:
    """The point attaining :func:`vi_gap`'s value: from the kinks of
    ``point(tau)`` where it is piecewise affine, else by search."""
    weights = _l1_l2_weights(pen)
    is_box = isinstance(pen, BallIndicator) and pen.ball.norm == "box"
    if weights is None and not is_box:
        return _searched_witness(point, beta, radius,
                                 float(np.linalg.norm(u)) or 1.0)
    with np.errstate(divide="ignore"):
        if is_box:
            c = 0.0
            kinks = [(beta - pen.ball.lower) / u, (beta - pen.ball.upper) / u]
        else:
            a, r = weights
            c = 2.0 * lam * r
            kinks = ([beta / (u + lam * a), beta / (u - lam * a)]
                     if lam * a > 0.0 else [])
    kinks = np.concatenate(kinks) if kinks else np.empty(0)
    kinks = np.unique(kinks[np.isfinite(kinks) & (kinks > 0.0)])
    return _kinked_witness(point, beta, radius, kinks, c)


def vi_gap(problem: EstimatingProblem, beta, radius: float,
           tol: Optional[float] = None,
           tau: Optional[float] = None) -> ViGapResult:
    """Exact worst value of the variational inequality over a ball:
    ``W(R) = min phi(x)`` over ``||x - bh|| <= R``, where
    ``phi(x) = U(bh)^T (x - bh) + lam*(Omega(x) - Omega(bh))``.

    For a ball indicator ``phi`` is ``U(bh)^T (x - bh)`` over feasible
    ``x``, and an infeasible ``bh`` fails outright (value ``-inf``).
    Nonconvex penalties (SCAD) have no prox and raise
    :class:`UnsupportedPenaltyError`.

    *The witness.* ``phi`` is convex, so by the KKT conditions of the ball
    constraint (multiplier ``1/t``) the point
    ``x(t) = prox_{t*lam*Omega}(bh - t*U(bh))`` minimizes ``phi`` over the
    ball of radius ``d(t) = ||x(t) - bh||``, and ``d`` is nondecreasing in
    t. ``W(R)`` is ``phi`` at the t with ``d(t) = R``, or at the limit
    point when ``d`` stays below R. For the lasso, elastic net, ridge and
    box, ``x(t)`` is affine in ``s = t/(1 + 2*lam*r*t)`` (r the ridge
    weight) between the kinks ``bh_j/(U_j +- lam)`` (box: where a
    coordinate meets its bound), so a binary search over the sorted kinks
    and one quadratic give t exactly. Other penalties bracket t and close
    in by regula falsi through the prox (balls use the projection); a
    point inside the ball whose own stationarity defect, at most
    ``d(t)/t``, is below the rounding of U ends that search as the limit.
    The witness lies within R.

    *The lower bound.* For every ``g`` in ``lam*dOmega(bh)`` (for a ball,
    the normal cone), ``phi(x) >= (U(bh) + g)^T (x - bh) >= -R*||U(bh) + g||``,
    so ``W(R) >= -R * dist_2(-U(bh), lam*dOmega(bh))``. That distance is
    the norm of the :func:`kkt_residual` split (ridge-type penalties,
    the box and the l2 ball have their own closed forms) and needs no prox,
    so ``lower`` cross-checks the witness.

    *The tolerance.* ``passed`` is ``value >= -tol`` with both finite. When
    ``tol`` is None it is derived at step ``tau`` (default 1/L of U, or 1
    when U has no bound): with ``q = prox_{tau*lam*Omega}(bh - tau*U(bh))``,
    ``T = R*(||U(q) - U(bh)|| + ||bh - q||/tau)``. Proof sketch: the prox's
    optimality condition puts ``(bh - tau*U(bh) - q)/tau`` in
    ``lam*dOmega(q)``, so ``-U(q)`` lies within
    ``||U(q) - U(bh)|| + ||bh - q||/tau`` of ``lam*dOmega(q)``, and the lower
    bound above taken at q gives ``W_q(R) >= -T``. The verdict asks of bh
    what is proven of its own prox image; T shrinks with the fixed-point
    residual and is 0 at an exact solution, so a rounding allowance of
    ``8*eps*sqrt(p)*(R*||U(bh)|| + lam*(|Omega(witness)| + |Omega(bh)|))``
    is added to it. A radius so large that the witness or T overflows
    fails, without a warning, and so does a q at which U overflows.
    """
    radius = check_radius(radius)
    beta = as_coefficients(beta, problem.u.dim)
    pen, lam = problem.penalty, problem.lam
    ball = isinstance(pen, BallIndicator)
    omega_hat = float(_omega_rows(pen, beta[None, :])[0])
    u = evaluate(problem.u, beta)

    def point(t: float) -> np.ndarray:
        v = beta - t * u
        if not np.isfinite(v).all():
            return np.full_like(beta, np.nan)
        return _prox(pen, v, t * lam)

    with np.errstate(over="ignore", invalid="ignore"):
        derived = tol is None
        if derived:
            if tau is None:
                L = lipschitz_upper_bound(problem.u)
                tau = 1.0 / L if L else 1.0
            q = point(tau)
            try:
                u_q = evaluate(problem.u, q)
            except NonFiniteOutputError:  # q or U(q) overflows: T is inf
                u_q = np.full_like(u, np.inf)
            tol = radius * (float(np.linalg.norm(u_q - u))
                            + float(np.linalg.norm(beta - q)) / tau)
        if not math.isfinite(omega_hat):  # an infeasible ball candidate
            return ViGapResult(False, -math.inf, None, None, radius, tol)
        witness = _witness(pen, point, beta, u, lam, radius)
        if ball and np.isfinite(witness).all():
            # a projection of a far point (large tau) can land a rounding
            # error outside the set; projecting the witness itself cannot
            witness = project_ball(pen.ball, witness)
        offset = witness - beta
        dist = float(np.linalg.norm(offset))
        if dist > radius:  # rounding past the sphere
            witness = beta + offset * (radius / dist)
        value = float(u @ (witness - beta))
        omega = 0.0
        if lam > 0.0 and not ball:
            omega = float(_omega_rows(pen, witness[None, :])[0])
            value += lam * (omega - omega_hat)
        if derived:
            tol += _ROUNDING * math.sqrt(beta.size) * (
                radius * float(np.linalg.norm(u))
                + lam * (abs(omega) + abs(omega_hat)))
        distance = _stationarity_distance(pen, beta, u, lam)
    lower = None if distance is None else -radius * distance
    value, tol = float(value), float(tol)
    passed = math.isfinite(value) and math.isfinite(tol) and value >= -tol
    return ViGapResult(passed, value, witness, lower, radius, tol)


# ---------------------------------------------------------------------------
# Independent oracles
# ---------------------------------------------------------------------------

def oracle_lasso_cd(X, y, lam: float, tol: float = 1e-12,
                    max_sweeps: int = 100_000) -> np.ndarray:
    """Cyclic coordinate descent on ``0.5*||y - X b||^2 + lam*||b||_1``.

    Exact scalar soft-threshold updates until the largest coordinate change
    in a full sweep is at most ``tol``. Small instances only (p <= 50); this
    is a ground-truth oracle, not a production solver.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or y.shape != (X.shape[0],):
        raise ValidationError("X must be 2-d with matching response length")
    p = X.shape[1]
    if p > 50:
        raise InstanceTooLargeError(f"oracle limited to p <= 50, got {p}")
    if lam < 0.0:
        raise NegativeScaleError("lambda must be >= 0")
    col_sq = (X ** 2).sum(axis=0)
    beta = np.zeros(p)
    resid = y.copy()
    for _ in range(max_sweeps):
        delta_max = 0.0
        for j in range(p):
            if col_sq[j] == 0.0:
                continue
            old = beta[j]
            rho_j = float(X[:, j] @ resid) + col_sq[j] * old
            mag = abs(rho_j) - lam
            new = math.copysign(mag, rho_j) / col_sq[j] if mag > 0.0 else 0.0
            if new != old:
                resid -= (new - old) * X[:, j]
                beta[j] = new
                delta_max = max(delta_max, abs(new - old))
        if delta_max <= tol:
            break
    return beta


def oracle_grid_prox(spec: PenaltySpec, v, scale: float,
                     grid_halfwidth: Optional[float] = None,
                     grid_step: float = 1e-3) -> np.ndarray:
    """Brute-force minimizer of ``0.5*||z - v||^2 + scale*Omega(z)``.

    Exhaustive Cartesian grid search, refined level by level down to
    ``grid_step`` resolution: every level evaluates the objective on all
    integer multiples of the current step inside the current window, then
    recenters on the best point with a window of three previous steps. All
    grids contain exact zero coordinates whenever the window straddles zero,
    so the kinks of the sparsity penalties are probed exactly. Dimension at
    most 3.
    """
    v = as_coefficients(v)
    p = v.size
    if p > 3:
        raise InstanceTooLargeError(f"grid oracle limited to p <= 3, got {p}")
    if not (scale >= 0.0):
        raise NegativeScaleError(f"scale must be >= 0, got {scale}")
    if not (grid_step > 0.0):
        raise ValidationError("grid_step must be positive")
    hw = grid_halfwidth if grid_halfwidth is not None else max(
        1.0, float(np.abs(v).max()))

    steps = [max(hw / 5.0, grid_step)]
    while steps[-1] > grid_step:
        steps.append(max(steps[-1] / 4.0, grid_step))

    center = np.zeros(p)
    best = center.copy()
    for level, s in enumerate(steps):
        w = hw if level == 0 else 3.0 * steps[level - 1]
        axes = []
        for c in center:
            lo = math.ceil((c - w) / s - 1e-12)
            hi = math.floor((c + w) / s + 1e-12)
            axes.append(np.arange(lo, hi + 1) * s)
        mesh = np.meshgrid(*axes, indexing="ij")
        Z = np.stack([m.ravel() for m in mesh], axis=1)
        omega = _omega_rows(spec, Z)
        off = np.isinf(omega)  # 0 * indicator is the indicator, not nan
        obj = (0.5 * ((Z - v) ** 2).sum(axis=1)
               + scale * np.where(off, 0.0, omega))
        obj[off] = np.inf
        best = Z[int(np.argmin(obj))]
        center = best
    return best.copy()


# ---------------------------------------------------------------------------
# Rate envelopes
# ---------------------------------------------------------------------------

@dataclass
class GeometricEnvelope:
    """``||b_k - bh|| <= L**k * ||b_0 - bh|| * (1 + slack)`` for all k."""

    L: float
    beta_hat: Optional[np.ndarray] = None  # default: the report's final iterate
    slack: float = 1e-6


@dataclass
class KmRateEnvelope:
    """``min_{j<=k} r_j**2 <= dist0 / ((k+1)*rho*(1-rho))`` for all k.

    ``dist0`` is the squared distance from the start to the solution; when
    None it is computed from the report's iterates against its solution.
    """

    rho: float
    dist0: Optional[float] = None


@dataclass
class InverseKEnvelope:
    """``min_{j<=k} r_j <= C / k`` with C fitted on the first iterations."""

    fit_iters: int = 10
    slack: float = 1e-9


@dataclass
class EnvelopeResult:
    passed: bool
    first_violation: Optional[int] = None


EnvelopeKind = Union[GeometricEnvelope, KmRateEnvelope, InverseKEnvelope]


def rate_envelope_check(report: SolverReport,
                        kind: EnvelopeKind) -> EnvelopeResult:
    """Check a convergence-rate envelope against a solver run's records.

    Geometric envelopes need the recorded iterate matrix; the residual-based
    envelopes need a nonempty trace. Missing pieces raise
    :class:`MissingTraceFieldsError`.
    """
    if isinstance(kind, GeometricEnvelope):
        if report.iterates is None:
            raise MissingTraceFieldsError(
                "geometric envelope needs recorded iterates")
        target = (report.solution if kind.beta_hat is None
                  else as_coefficients(kind.beta_hat))
        dists = np.linalg.norm(report.iterates - target, axis=1)
        d0 = dists[0]
        bound = d0
        for k in range(dists.size):
            if dists[k] > bound * (1.0 + kind.slack):
                return EnvelopeResult(False, k)
            bound *= kind.L
        return EnvelopeResult(True)

    residuals = report.residuals()
    if residuals.size == 0:
        raise MissingTraceFieldsError("empty residual trace")

    if isinstance(kind, KmRateEnvelope):
        rho = kind.rho
        if not (0.0 < rho < 1.0):
            raise ValidationError("rho must lie in (0, 1)")
        if kind.dist0 is not None:
            dist0 = kind.dist0
        else:
            if report.iterates is None:
                raise MissingTraceFieldsError(
                    "dist0 not given and no iterates recorded")
            dist0 = float(np.linalg.norm(report.iterates[0] - report.solution) ** 2)
        best = math.inf
        for k, r in enumerate(residuals):
            best = min(best, float(r) ** 2)
            if best > dist0 / ((k + 1) * rho * (1.0 - rho)) * (1.0 + 1e-9):
                return EnvelopeResult(False, k)
        return EnvelopeResult(True)

    if isinstance(kind, InverseKEnvelope):
        # residuals[0] is the starting point; envelope indexes iterations
        rs = residuals[1:]
        if rs.size == 0:
            raise MissingTraceFieldsError("no iteration residuals logged")
        best = math.inf
        C = 0.0
        window = min(kind.fit_iters, rs.size)
        for k in range(window):
            best = min(best, float(rs[k]))
            C = max(C, (k + 1) * best)
        best = math.inf
        for k, r in enumerate(rs):
            best = min(best, float(r))
            if best > C / (k + 1) * (1.0 + kind.slack):
                return EnvelopeResult(False, k + 1)
        return EnvelopeResult(True)

    raise ValidationError(f"unknown envelope kind {type(kind).__name__}")

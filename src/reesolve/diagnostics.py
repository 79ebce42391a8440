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
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Union

import numpy as np

from .estimating import evaluate
from .model import (
    BallIndicator,
    ElasticNet,
    EstimatingProblem,
    GroupLasso,
    InstanceTooLargeError,
    Lasso,
    MissingTraceFieldsError,
    NegativeScaleError,
    PenaltySpec,
    Ridge,
    SolverReport,
    SparseGroupLasso,
    UnsupportedPenaltyError,
    ValidationError,
    as_coefficients,
)
from .penalties import penalty_value, project_ball, prox

__all__ = [
    "fixed_point_residual",
    "kkt_residual",
    "KktReport",
    "vi_probe",
    "ViProbeResult",
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
    """
    beta = as_coefficients(beta, problem.u.dim)
    lam = problem.lam
    u = evaluate(problem.u, beta)
    pen = problem.penalty

    if isinstance(pen, Lasso):
        active = beta != 0.0
        res = np.where(active,
                       np.abs(u + lam * np.sign(beta)),
                       np.maximum(np.abs(u) - lam, 0.0))
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
        coord_o = np.where(bo != 0.0,
                           np.abs(stat + lam_l1 * np.sign(bo)),
                           np.maximum(np.abs(stat) - lam_l1, 0.0))
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
        for j, g in enumerate(part.groups):
            grp += part.weight(j) * np.sqrt((Z[:, list(g)] ** 2).sum(axis=1))
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


def _draw_offsets(seed, samples: int, radius: float, p: int) -> np.ndarray:
    """``samples`` points uniform in the p-ball of ``radius``, as offsets."""
    rng = np.random.default_rng(seed)
    dirs = rng.standard_normal((samples, p))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    radii = radius * rng.uniform(size=samples) ** (1.0 / p)
    offsets = radii[:, None] * dirs
    offsets.flags.writeable = False
    return offsets


# one slot: a path probes every lambda with the same draw. typed=True keeps
# equal keys that compute differently apart (radius 1 vs np.longdouble(1))
_cached_offsets = lru_cache(maxsize=1, typed=True)(_draw_offsets)


def _probe_offsets(seed, samples: int, radius: float, p: int) -> np.ndarray:
    """The probe's offsets, drawn once per ``(seed, samples, radius, p)``.

    Only integer seeds are cached: a Generator or SeedSequence seed must
    advance or re-derive exactly as ``default_rng`` does on every call, and
    an unhashable key (a list seed, an array radius) draws uncached.
    """
    if isinstance(seed, numbers.Integral):
        try:
            return _cached_offsets(seed, samples, radius, p)
        except TypeError:  # an unhashable key
            pass
    return _draw_offsets(seed, samples, radius, p)


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


def check_probe_settings(samples: int, radius: float) -> None:
    """Raise :class:`ValidationError` unless :func:`vi_probe` accepts
    ``samples`` and ``radius``."""
    if samples < 1:
        raise ValidationError("samples must be >= 1")
    if not (radius > 0.0):
        raise ValidationError("radius must be positive")


def vi_probe(problem: EstimatingProblem, beta_hat, samples: int,
             radius: float, seed: int, tol: float = 1e-8) -> ViProbeResult:
    """Sample the inequality
    ``U(bh)^T (b - bh) + lam*(Omega(b) - Omega(bh)) >= 0``
    at random points ``b`` in a ball of the given radius around ``bh``.

    For ball-indicator penalties the samples are projected onto the feasible
    set first and the inequality reduces to ``U(bh)^T (b - bh) >= 0`` over
    feasible ``b`` (an infeasible candidate fails outright). Deterministic
    for a given seed; reports the most negative value found.

    The random offsets added to ``bh`` depend only on ``(seed, samples,
    radius, p)``, so probes that share them (every lambda of a path) reuse
    one draw for an integer seed. The last draw stays cached between calls:
    one read-only ``samples x p`` float64 matrix, 3.2 MB for 1000 samples at
    p=400. The points ``bh + offset`` are formed and valued a block of rows
    at a time (about 1 MB each), so a probe's temporaries stay at that size
    whatever ``samples`` is, and the worst point is rebuilt from its offset.
    Every value matches a probe over the whole matrix bit for bit.
    """
    check_probe_settings(samples, radius)
    beta_hat = as_coefficients(beta_hat, problem.u.dim)
    offsets = _probe_offsets(seed, samples, radius, beta_hat.size)

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

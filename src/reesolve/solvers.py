"""Iterative solvers for penalized estimating equations.

Six interchangeable methods over the same problem bundle:

* ``solve_picard``  — plain fixed-point iteration of
  ``f(beta) = prox_{tau*lam*Omega}(beta - tau*U(beta))``; geometric
  convergence when f is a contraction.
* ``solve_km``      — averaged (Krasnosel'skii–Mann) iteration
  ``beta <- (1-rho)*beta + rho*f(beta)``; converges for merely nonexpansive
  f with a nonempty fixed-point set.
* ``solve_aa``      — safeguarded type-II Anderson acceleration of the same
  fixed-point map, the default method (``DEFAULT_METHOD``): it extrapolates
  from the last few residuals and falls back to a plain step whenever the
  residual does not drop.
* ``solve_gra_fixed`` / ``solve_gra_adaptive`` — golden-ratio anchored
  schemes solving the equivalent variational inequality; the fixed-step
  variant needs a Lipschitz constant, the adaptive one estimates local
  stepsizes and needs none.
* ``solve_lqa_newton`` — the classical local-quadratic-approximation Newton
  baseline for elementwise penalties (lasso / SCAD), kept for comparison; it
  requires Jacobians and solves the p-by-p Newton system exactly every
  iteration: by eliminating the coordinates whose weights dominate their
  rows and one LU of the |L| light ones left, O(p**2 * |L|) + O(|L|**3),
  or by one dense LU, O(p**3), when few weights dominate.

Every first-order solver terminates on the fixed-point residual computed
with its own stepsize; LQA terminates on the norm of its modified
stationarity vector ``U(beta) + weights * beta``. Every solver logs one
record per iteration and reports a typed status. Divergence means a
non-finite iterate or a residual above 1e12.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .estimating import EstimatingFunction, evaluate, jacobian, lipschitz_upper_bound
from .model import (
    GOLDEN_RATIO,
    BallIndicator,
    ElasticNet,
    EstimatingProblem,
    IterationRecord,
    Lasso,
    NonFiniteOutputError,
    Scad,
    SolverConfig,
    SolverReport,
    SolverStatus,
    StepOutOfRangeError,
    UnsupportedPenaltyError,
    ValidationError,
    as_coefficients,
)
from .penalties import _prox, lqa_weight_diag, project_ball, prox

__all__ = [
    "solve_picard",
    "solve_km",
    "solve_aa",
    "solve_gra_fixed",
    "solve_gra_adaptive",
    "solve_lqa_newton",
    "solve_constrained",
    "solve_path",
    "run_solver",
    "lambda_max",
    "PathEntry",
    "SOLVER_NAMES",
    "DEFAULT_METHOD",
]

DIVERGENCE_RESIDUAL = 1e12
# Anderson window: the number of residual differences an extrapolation fits
AA_MEMORY = 5
# an extrapolated point is kept only when its residual is at most this
# fraction of the last accepted point's
AA_ACCEPT = 0.99


def lambda_max(u: EstimatingFunction) -> float:
    """Smallest lambda at which the all-zero vector satisfies the lasso
    stationarity conditions: ``max_j |U_j(0)|``."""
    return float(np.abs(evaluate(u, np.zeros(u.dim))).max())


def _norm(v: np.ndarray) -> float:
    """Euclidean norm of a 1-d float vector: what ``np.linalg.norm``
    computes for one, bit for bit, at a fraction of its call cost."""
    return math.sqrt(v.dot(v))


def _lipschitz(problem: EstimatingProblem) -> float:
    """U's Lipschitz bound L, the one source of every derived stepsize."""
    L = lipschitz_upper_bound(problem.u)
    if L is None or not (0.0 < L < math.inf):
        raise ValidationError(
            f"U has no positive finite Lipschitz bound (got {L}); set "
            f"config.tau (picard, km, aa), declare U's Lipschitz constant, or "
            f"use gra-adaptive")
    return L


class _Run:
    """Shared bookkeeping: trace, iterate recording, report."""

    def __init__(self, method: str, config: SolverConfig, init: np.ndarray):
        self.method = method
        self.config = config
        self.trace: list[IterationRecord] = []
        self.iterates: Optional[list[np.ndarray]] = (
            [init.copy()] if config.record_iterates else None)
        self.flags: tuple[str, ...] = ()

    def record(self, residual: float, step: float, beta: np.ndarray,
               theta: Optional[float] = None) -> None:
        self.trace.append(IterationRecord(residual, step, theta))
        if self.iterates is not None:
            self.iterates.append(beta.copy())

    def report(self, status: SolverStatus, solution: np.ndarray,
               initial_residual: float,
               stepsize: Optional[float]) -> SolverReport:
        return SolverReport(
            method=self.method,
            status=status,
            solution=solution,
            trace=self.trace,
            initial_residual=initial_residual,
            config=self.config,
            stepsize=stepsize,
            flags=self.flags,
            iterates=None if self.iterates is None else np.vstack(self.iterates),
        )


def _first_order_loop(method: str, problem: EstimatingProblem,
                      config: SolverConfig, init, make_steps,
                      final_prox_image: bool = False) -> SolverReport:
    """The iteration loop shared by picard, km, aa and both golden-ratio
    solvers.

    ``make_steps(beta, u)`` builds the method's step generator from the
    starting point ``beta``, the vector ``init``, and ``u = U(beta)``, the
    only evaluation of U there. The generator yields ``(beta, t, theta)``
    for every point, the starting point first, where ``t`` is the stepsize
    that produced the point (at the start, the one its residual is measured
    with) and ``theta`` is None or the adaptive golden-ratio ratio. Any
    other state, such as the golden-ratio anchor, stays inside the
    generator. It is then sent ``(u, fb)``: ``u = U(beta)`` and the prox
    image ``fb = prox_{t*lam*Omega}(beta - t*u)``, whose distance to
    ``beta`` is the fixed-point residual. Everything else lives here: the
    divergence guard, the trace and recordings, the tolerance test and
    ``max_iter``. A non-finite value anywhere in an iteration ends the run
    as diverged, reporting the last point the method produced.

    With ``final_prox_image`` a run that did not diverge ends on the prox
    image of its last point when that image's residual meets the tolerance
    (status converged), and always when ``max_iter`` cut it short. Averaged
    and extrapolated points keep tiny values where the image has exact
    zeros, and an extrapolated point can leave a ball; the image does
    neither. It costs one more U evaluation and trace record.

    Inputs are checked once: the start point goes through the public
    :func:`evaluate` and :func:`prox`, which check shapes and finiteness.
    Every later iterate calls U directly and the unchecked
    :func:`penalties._prox`; there a non-finite U or step makes the residual
    non-finite, which the divergence guard catches (a ball projection checks
    its own input and raises instead, which ends the run the same way).
    """
    beta = as_coefficients(init, problem.u.dim).copy()
    run = _Run(method, config, beta)
    status, t, r0 = SolverStatus.MAX_ITER_REACHED, None, math.inf
    u_fn, pen, lam = problem.u, problem.penalty, problem.lam
    # an overflow ends the run as diverged; numpy prints no warning for it
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            u = evaluate(u_fn, beta)
            steps = make_steps(beta, u)
            beta, t, theta = next(steps)
            fb = prox(pen, beta - t * u, t * lam)
            r0 = _norm(fb - beta)
            if r0 <= config.tol:
                return run.report(SolverStatus.CONVERGED, beta, r0, t)
            for _ in range(config.max_iter):
                beta, t, theta = steps.send((u, fb))
                u = u_fn(beta)
                fb = _prox(pen, beta - t * u, t * lam)
                r = _norm(fb - beta)
                # NaN fails the test, so a non-finite beta or U(beta)
                # stops here
                if not r <= DIVERGENCE_RESIDUAL:
                    status = SolverStatus.DIVERGED
                    break
                run.record(r, t, beta, theta)
                if r <= config.tol:
                    status = SolverStatus.CONVERGED
                    break
        except NonFiniteOutputError:
            status = SolverStatus.DIVERGED
        if final_prox_image and status is not SolverStatus.DIVERGED:
            try:
                f_next = prox(pen, fb - t * evaluate(u_fn, fb), t * lam)
                r_next = _norm(f_next - fb)
                cut = status is SolverStatus.MAX_ITER_REACHED
                if r_next <= config.tol or cut:
                    run.record(r_next, t, fb)
                    beta = fb
                    if r_next <= config.tol:
                        status = SolverStatus.CONVERGED
            except NonFiniteOutputError:
                pass
    return run.report(status, beta, r0, t)


def _averaged_steps(beta: np.ndarray, tau: float, mix: float):
    """Steps ``beta <- (1-mix)*beta + mix*f(beta)`` with a fixed stepsize."""
    while True:
        _, fb = yield beta, tau, None
        beta = (1.0 - mix) * beta + mix * fb


def _fixed_tau(problem: EstimatingProblem, config: SolverConfig) -> float:
    """The fixed step of picard, km and aa: ``config.tau``, else ``1/L``."""
    return config.tau if config.tau is not None else 1.0 / _lipschitz(problem)


def _averaged_iteration(problem: EstimatingProblem, config: SolverConfig,
                        init, mix: float, method: str) -> SolverReport:
    tau = _fixed_tau(problem, config)
    return _first_order_loop(method, problem, config, init,
                             lambda b, u: _averaged_steps(b, tau, mix),
                             final_prox_image=mix < 1.0)


def solve_picard(problem: EstimatingProblem, config: SolverConfig,
                 init) -> SolverReport:
    """Plain fixed-point iteration ``beta <- f(beta)``.

    With lam == 0 the prox is the identity, so this is the relaxation
    iteration ``beta <- beta - tau*U(beta)``. Terminates when the residual
    ``||f(beta) - beta||`` falls to ``config.tol``; an initial point that is
    already a fixed point returns immediately with zero iterations.
    """
    return _averaged_iteration(problem, config, init, 1.0, "picard")


def solve_km(problem: EstimatingProblem, config: SolverConfig,
             init) -> SolverReport:
    """Averaged iteration ``beta <- (1-rho)*beta + rho*f(beta)``.

    ``config.rho`` must lie in (0, 1); rho = 1/2 maximizes the worst-case
    residual-rate denominator and is the default. The trace retains every
    residual so the O(1/k) bound can be verified post hoc by
    :func:`reesolve.diagnostics.rate_envelope_check`. An averaged point
    keeps tiny values where its prox image has exact zeros, so the run ends
    on that image, one more iteration, when the image's residual meets the
    tolerance or ``max_iter`` cut the run short.
    """
    return _averaged_iteration(problem, config, init, config.rho, "km")


def _anderson_point(dF: np.ndarray, dG: np.ndarray, f_base: np.ndarray,
                    g_base: np.ndarray) -> Optional[np.ndarray]:
    """The type-II Anderson point ``f_base - dF.T @ gamma``, where gamma
    solves the Gram system ``(dG @ dG.T) gamma = dG @ g_base``; None when
    that system is singular or the point is not finite.

    The rows of ``dG`` and ``dF`` are differences of the residual
    ``g = f(beta) - beta`` and of ``f(beta)`` (that is ``dX + dG``) between
    consecutive accepted points. Their order does not matter.
    """
    with np.errstate(all="ignore"):
        try:
            gamma = np.linalg.solve(dG @ dG.T, dG @ g_base)
        except np.linalg.LinAlgError:
            return None
        point = f_base - gamma @ dF
    return point if np.isfinite(point).all() else None


def _anderson_steps(beta: np.ndarray, tau: float):
    """Safeguarded type-II Anderson steps on ``f`` with a fixed stepsize.

    The last accepted point, the base, carries ``f(base)`` and its residual
    ``g = f(base) - base``. From it the next point is the extrapolation of
    :func:`_anderson_point` over the window of the last ``AA_MEMORY``
    differences, or the plain step ``f(base)`` when the window is empty or
    the extrapolation fails. A plain step is always accepted; an
    extrapolated point only when its residual is at most ``AA_ACCEPT``
    times the base's. A failed or rejected extrapolation empties the
    window, and after a rejection the next point is ``f(base)``, already
    known. Every point, rejected ones included, is yielded once, so each
    costs one U evaluation and one trace record.
    """
    dF = np.empty((AA_MEMORY, beta.size))
    dG = np.empty_like(dF)
    n = 0  # differences stored since the window was last emptied
    _, f_base = yield beta, tau, None
    g_base = f_base - beta
    r_base = _norm(g_base)
    while True:
        point = None
        if n:
            k = min(n, AA_MEMORY)
            point = _anderson_point(dF[:k], dG[:k], f_base, g_base)
        plain = point is None
        if plain:
            n, point = 0, f_base
        _, fb = yield point, tau, None
        g = fb - point
        r = _norm(g)
        if not plain and r > AA_ACCEPT * r_base:
            n = 0
            continue
        dF[n % AA_MEMORY] = fb - f_base
        dG[n % AA_MEMORY] = g - g_base
        n += 1
        f_base, g_base, r_base = fb, g, r


def solve_aa(problem: EstimatingProblem, config: SolverConfig,
             init) -> SolverReport:
    """Anderson-accelerated fixed-point iteration on
    ``f(beta) = prox_{tau*lam*Omega}(beta - tau*U(beta))``.

    Every solution of ``0 in U(beta) + lam*dOmega(beta)`` is a fixed point
    of f for any U, so the accelerator needs no gradient structure. tau is
    picard's: ``config.tau``, else ``1/L``. The steps are safeguarded type-II
    Anderson (Walker & Ni 2011, with the safeguard of Zhang, O'Donoghue &
    Boyd 2020); see :func:`_anderson_steps`. A rejected point is one U
    evaluation and one trace record like any other, so ``iterations``
    compares across methods as it stands. The run ends as km's does, on the
    final prox image, so zero coordinates are exact, and a run cut short by
    ``max_iter`` ends inside a ball, although an extrapolated point is an
    affine, not a convex, combination of prox images and can lie outside.
    """
    tau = _fixed_tau(problem, config)
    return _first_order_loop("aa", problem, config, init,
                             lambda b, u: _anderson_steps(b, tau),
                             final_prox_image=True)


def _golden_ratio_steps(problem: EstimatingProblem, psi: float,
                        beta: np.ndarray, u: np.ndarray,
                        t: Optional[float] = None, t_bar: float = math.inf):
    """Anchored golden-ratio steps, shared by the fixed and adaptive solvers.

    The anchor starts at the starting point ``beta``. Each step pulls it
    toward the iterate, ``bbar <- ((psi-1)*beta + bbar)/psi``, then steps
    ``beta <- prox_{t*lam*Omega}(bbar - t*U(beta))``. Given ``t``, the
    stepsize stays fixed; with ``t`` None it adapts as described in
    :func:`solve_gra_adaptive` and every point carries its ``theta``.
    ``u`` is U at the starting point.
    """
    bbar, theta = beta, None
    adaptive = t is None
    if adaptive:
        rho = 1.0 / psi + 1.0 / psi ** 2
        offset = 1e-3 * (1.0 + _norm(beta))
        beta_prev = beta + offset / math.sqrt(beta.size) * np.ones(beta.size)
        u_prev = evaluate(problem.u, beta_prev)
        du = _norm(u - u_prev)
        t = _norm(beta - beta_prev) / du if du > 0.0 else t_bar
        theta = 1.0
    while True:
        u, _ = yield beta, t, theta
        if adaptive:
            db2 = _norm(beta - beta_prev) ** 2
            du2 = _norm(u - u_prev) ** 2
            if du2 > 0.0:
                t_next = min(rho * t, psi * theta / (4.0 * t) * db2 / du2,
                             t_bar)
            else:
                t_next = min(rho * t, t_bar)
            theta = psi * t_next / t
            t = t_next
            beta_prev, u_prev = beta, u
        bbar = ((psi - 1.0) * beta + bbar) / psi
        beta = _prox(problem.penalty, bbar - t * u, t * problem.lam)


def solve_gra_fixed(problem: EstimatingProblem, config: SolverConfig,
                    init) -> SolverReport:
    """Golden-ratio scheme with a fixed stepsize.

    L is :func:`lipschitz_upper_bound` of U; the admissible stepsize range
    is ``(0, phi / (2 L)]`` with ``phi = (sqrt(5)+1)/2``. ``config.tau``
    outside it raises :class:`StepOutOfRangeError`, a U without a positive
    finite L raises :class:`ValidationError`; when unset, the bound endpoint
    is used (the largest step the convergence guarantee permits).

    Parameters
    ----------
    init : array
        Starting point; the anchor starts there too.

    Notes
    -----
    This is the recursion of :func:`solve_gra_adaptive` with a constant step
    t and ``psi = phi``: each iteration pulls the anchor toward the iterate,
    ``bbar <- ((phi-1)*beta + bbar)/phi``, then steps
    ``beta <- prox_{t*lam*Omega}(bbar - t*U(beta))``. Convergence for
    monotone, L-Lipschitz U; the residual is the fixed-point residual with
    the same stepsize t as the prox scale. The iterates are recorded; the
    anchors are not, but follow from the iterates and the start point by the
    recursion above.
    """
    L = _lipschitz(problem)
    bound = GOLDEN_RATIO / (2.0 * L)
    t = config.tau if config.tau is not None else bound
    if not (0.0 < t <= bound * (1.0 + 1e-12)):
        raise StepOutOfRangeError(
            f"tau {t} outside the admissible range (0, {bound}] for L={L}")
    return _first_order_loop(
        "gra-fixed", problem, config, init,
        lambda b, u: _golden_ratio_steps(problem, GOLDEN_RATIO, b, u, t=t))


def solve_gra_adaptive(problem: EstimatingProblem, config: SolverConfig,
                       init) -> SolverReport:
    """Golden-ratio scheme with adaptive stepsizes; no Lipschitz constant
    needed.

    Parameters
    ----------
    init : array
        Starting point and anchor. An internal second point ``b1``, ``init``
        plus ``1e-3*(1 + ||init||)/sqrt(p)`` in every coordinate, seeds the
        first stepsize ``t0 = ||b1 - init|| / ||U(b1) - U(init)||``.

    Notes
    -----
    With ``psi = config.psi`` and ``rho = 1/psi + 1/psi**2`` (exactly 1 at
    the golden ratio), each iteration picks

    ``t_k = min(rho*t_{k-1},
                psi*theta_{k-1}/(4*t_{k-1}) * ||db||^2 / ||dU||^2,
                t_bar)``

    — the middle term approximates an inverse local Lipschitz constant and
    is dropped whenever ``dU`` vanishes — then anchors and steps exactly like
    the fixed variant, and sets ``theta_k = psi * t_k / t_{k-1}``. The logged
    residual uses the current ``t_k`` as the prox scale.
    """
    return _first_order_loop(
        "gra-adaptive", problem, config, init,
        lambda b, u: _golden_ratio_steps(problem, config.psi, b, u,
                                         t_bar=config.t_bar))


# A coordinate j of the LQA Newton matrix M = J + diag(w) is heavy when its
# off-diagonal row mass is below this share of its pivot J_jj + w_j. Jacobi
# on the heavy block then contracts by this factor per sweep: the diagonal
# solve and two sweeps leave a relative error of 1e-18, below rounding.
_HEAVY_RATIO = 1e-6
_JACOBI_SWEEPS = 2


def _off_diagonal_mass(J: np.ndarray) -> np.ndarray:
    """``sum_{k != j} |J_jk|`` for every row j of a square matrix."""
    mass = np.abs(J)
    mass.flat[::J.shape[0] + 1] = 0.0
    return mass.sum(axis=1)


def _lqa_step(J: np.ndarray, w: np.ndarray, q: np.ndarray,
              off: np.ndarray) -> np.ndarray:
    """Solve ``(J + diag(w)) d = q`` exactly; ``off`` is
    :func:`_off_diagonal_mass` of J, which is not written to.

    The heavy coordinates H, those with ``off_j < _HEAVY_RATIO * |J_jj +
    w_j|``, are eliminated: Jacobi sweeps solve ``M_HH`` for ``q_H`` and the
    columns of ``J_HL`` together, one LU of the |L|-by-|L| Schur complement
    ``S = M_LL - J_LH M_HH^-1 J_HL`` gives ``d_L``, and back substitution
    ``d_H``. Each sweep is one product of the full J with a block that is
    zero on L, so no submatrix of J is copied. As ``det M = det M_HH *
    det S``, M is singular exactly when S is, and LU raises
    :class:`numpy.linalg.LinAlgError` on either. The cost is O(p**2 * |L|)
    + O(|L|**3). When more than p/9 coordinates are light (H empty
    included), the sweeps' products cost nearly as much as a dense LU, and
    the step is one LU solve of M, O(p**3). Nothing assumes J symmetric.
    """
    p = q.size
    diag = J.diagonal()
    pivot = diag + w
    # strict, so a zero pivot is never heavy
    heavy = off < _HEAVY_RATIO * np.abs(pivot)
    light = np.flatnonzero(~heavy)
    m = light.size
    if 9 * m > p:
        M = J.copy()
        M.flat[::p + 1] += w
        return np.linalg.solve(M, q)
    # an infinite pivot on L keeps those rows of the sweeps at zero
    pivot = np.where(heavy, pivot, np.inf)[:, None]
    rhs = np.empty((p, m + 1))
    rhs[:, 0] = q
    rhs[:, 1:] = J[:, light]
    block = rhs / pivot
    for _ in range(_JACOBI_SWEEPS):
        block = (rhs - J @ block + diag[:, None] * block) / pivot
    if m == 0:
        return block[:, 0]
    # J_LH times [M_HH^-1 q_H | M_HH^-1 J_HL]
    coupled = J[light] @ block
    schur = rhs[light, 1:] - coupled[:, 1:]
    schur.flat[::m + 1] += w[light]
    d_light = np.linalg.solve(schur, q[light] - coupled[:, 0])
    d = block[:, 0] - block[:, 1:] @ d_light
    d[light] = d_light
    return d


def solve_lqa_newton(problem: EstimatingProblem, config: SolverConfig,
                     init) -> SolverReport:
    """Newton iteration on the locally quadratically approximated equations.

    Supports only elementwise penalties (lasso or SCAD); the diagonal weights
    ``p'(|beta_j|)/(|beta_j| + epsilon)`` keep zero coordinates updatable.
    Each step solves ``(J_U(beta) + diag(weights)) d = q`` for the modified
    stationarity vector ``q = U(beta) + weights * beta`` exactly, every
    coordinate kept (:func:`_lqa_step`). The weight of a coordinate near
    zero is about ``lam/epsilon`` and dominates its row, so such
    coordinates are eliminated cheaply and one LU factors only the small
    block left: O(p**2 * |L|) + O(|L|**3) for |L| light coordinates. When
    few weights dominate, the step is one dense LU with partial pivoting,
    O(p**3), the method's documented cost bottleneck; never Cholesky, as
    the Jacobian need not be symmetric. The residual is the norm of ``q``.
    On termination, coordinates below ``config.zero_threshold`` in
    magnitude are truncated to exactly zero (the method never produces
    exact zeros by itself).
    """
    pen = problem.penalty
    if not isinstance(pen, (Lasso, Scad)):
        raise UnsupportedPenaltyError(
            "LQA needs an elementwise-separable penalty (lasso or scad); "
            f"got {type(pen).__name__}")
    lam = problem.lam
    eps = config.epsilon_lqa
    p = problem.u.dim
    u_fn = problem.u
    beta = as_coefficients(init, p).copy()
    run = _Run("lqa-newton", config, beta)
    design = getattr(u_fn, "X", None)
    if design is not None and p > design.shape[0]:
        run.flags = ("cubic-cost-p-exceeds-n",)

    def weights(b: np.ndarray) -> np.ndarray:
        if lam > 0.0:
            return lqa_weight_diag(pen, b, lam, eps)
        # scad_derivative rejects lam = 0, where every weight vanishes
        return np.zeros(p)

    def finish(status: SolverStatus, b: np.ndarray, r0: float) -> SolverReport:
        if status in (SolverStatus.CONVERGED, SolverStatus.MAX_ITER_REACHED):
            b = b.copy()
            b[np.abs(b) < config.zero_threshold] = 0.0
        return run.report(status, b, r0, None)

    # an overflow ends the run as diverged; numpy prints no warning for it
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            w = weights(beta)
            q = evaluate(u_fn, beta) + w * beta
        except NonFiniteOutputError:
            return run.report(SolverStatus.DIVERGED, beta, math.inf, None)
        r0 = _norm(q)
        if r0 <= config.tol:
            return finish(SolverStatus.CONVERGED, beta, r0)

        status = SolverStatus.MAX_ITER_REACHED
        J = off = None
        for _ in range(config.max_iter):
            # analytic when U has one, else finite differences on opt-in,
            # whose probe points can meet a non-finite U; never written to,
            # because U may hand out a cached matrix
            try:
                jac = jacobian(u_fn, beta, allow_fd=config.allow_fd_jacobian)
            except NonFiniteOutputError:
                status = SolverStatus.DIVERGED
                break
            # a read-only matrix handed out again (least squares' gram)
            # cannot have changed, so its row sums are kept
            if jac is not J or jac.flags.writeable:
                J, off = jac, _off_diagonal_mass(jac)
            try:
                # exact block elimination, or one dense LU solve (LAPACK
                # gesv) when few weights dominate; M need not be symmetric
                beta = beta - _lqa_step(J, w, q, off)
            except np.linalg.LinAlgError:
                run.flags = run.flags + ("singular-system",)
                status = SolverStatus.NUMERICAL_FAILURE
                break
            if not np.all(np.isfinite(beta)):
                status = SolverStatus.DIVERGED
                break
            u_val = u_fn(beta)
            w = weights(beta)
            q = u_val + w * beta
            r = _norm(q)
            if not r <= DIVERGENCE_RESIDUAL:
                status = SolverStatus.DIVERGED
                break
            run.record(r, 1.0, beta)
            if r <= config.tol:
                status = SolverStatus.CONVERGED
                break
    return finish(status, beta, r0)


# method name -> solve(problem, config, init)
_SOLVERS = {
    "picard": solve_picard,
    "km": solve_km,
    "aa": solve_aa,
    "gra-fixed": solve_gra_fixed,
    "gra-adaptive": solve_gra_adaptive,
    "lqa-newton": solve_lqa_newton,
}
SOLVER_NAMES = tuple(_SOLVERS)
# the method of solve_path and the CLI's solve and path
DEFAULT_METHOD = "aa"


def solve_constrained(problem: EstimatingProblem, config: SolverConfig,
                      init, method: str = "picard") -> SolverReport:
    """Solve a ball-constrained estimating equation by projected iterations.

    The penalty must be a :class:`BallIndicator`. Its prox is the Euclidean
    projection at every scale, so this is :func:`run_solver` on the same
    fixed-point problem, and the problem's lambda plays no role.
    """
    if not isinstance(problem.penalty, BallIndicator):
        raise UnsupportedPenaltyError(
            "constrained solving needs a BallIndicator penalty")
    return run_solver(problem, config, init, method)


def run_solver(problem: EstimatingProblem, config: SolverConfig, init,
               method: str) -> SolverReport:
    """Dispatch one solve by method name.

    Accepts ``picard``, ``km``, ``aa``, ``gra-fixed``, ``gra-adaptive`` and
    ``lqa-newton`` (alias ``lqa``); ``DEFAULT_METHOD``, ``aa``, is the
    default of :func:`solve_path` and the CLI.
    For a ball-indicator penalty the starting point is projected onto the
    ball first. km's averaged points are convex combinations of the start
    and projections, so they stay feasible, and a converged km run whose
    final prox image misses the tolerance returns one of them; U is first
    evaluated at a feasible point too.
    Every solver has the signature ``solve(problem, config, init)``.
    ``config.tau`` steps picard, km, aa and gra-fixed; unset, it is derived
    from U's Lipschitz bound L (``1/L``, or ``phi/(2L)`` for gra-fixed).
    """
    name = method.lower()
    if name == "lqa":
        name = "lqa-newton"
    if name not in _SOLVERS:
        raise ValidationError(
            f"unknown method {method!r}; choose one of {', '.join(SOLVER_NAMES)}")
    if isinstance(problem.penalty, BallIndicator):
        init = project_ball(problem.penalty.ball,
                            as_coefficients(init, problem.u.dim))
    return _SOLVERS[name](problem, config, init)


@dataclass
class PathEntry:
    """Per-lambda outcome of a regularization path."""

    lam: float
    report: SolverReport

    @property
    def nonzeros(self) -> int:
        return int(np.count_nonzero(self.report.solution))


def _screenable(problem: EstimatingProblem) -> bool:
    """Whether warm paths on ``problem`` are screened: U offers
    ``restrict`` and the penalty is the lasso or the elastic net, whose
    zero coordinate j passes its exact inactive test when ``|U_j| <= lam``."""
    return (callable(getattr(problem.u, "restrict", None))
            and isinstance(problem.penalty, (Lasso, ElasticNet)))


def _screened_solve(problem: EstimatingProblem, config: SolverConfig,
                    method: str, beta: np.ndarray, u_beta: np.ndarray,
                    lam_prev: float):
    """One warm lambda of a path, solved on a screened set of coordinates.

    ``beta`` is the previous lambda's solution and ``u_beta = U(beta)``.
    The sequential strong rule keeps coordinate j when ``|u_beta_j|`` is at
    least ``2*lam - lam_prev`` or ``beta_j`` is nonzero (and always the
    coordinate with the largest ``|u_beta_j|``, so the set is never empty).
    The restricted problem is solved warm with :func:`run_solver`; then U is
    evaluated once on all p coordinates, and every discarded coordinate with
    ``|U_j| > lam`` is re-admitted and the restricted problem solved again,
    until none is. A discarded coordinate that passes its test is a fixed
    point of the full problem's prox map at any stepsize, so the full
    problem's fixed-point residual at the last restricted stepsize equals
    the restricted one.

    The rounds together spend at most ``config.max_iter`` iterations.
    Returns the merged report.
    """
    lam, p = problem.lam, problem.u.dim
    stats = np.abs(u_beta)
    keep = (stats >= 2.0 * lam - lam_prev) | (beta != 0.0)
    keep[np.argmax(stats)] = True
    rounds: list[tuple[np.ndarray, SolverReport]] = []
    spent = 0
    while True:
        S = np.flatnonzero(keep)
        # a set that keeps every coordinate is the full problem
        u_S = problem.u if S.size == p else problem.u.restrict(S)
        sub = EstimatingProblem(u_S, problem.penalty, lam)
        budget = (config if spent == 0
                  else replace(config, max_iter=config.max_iter - spent))
        rep = run_solver(sub, budget, beta[S], method)
        rounds.append((S, rep))
        spent += rep.iterations
        beta = np.zeros(p)
        beta[S] = rep.solution
        status = rep.status
        if status is not SolverStatus.CONVERGED:
            break
        u_sol = problem.u(beta)
        if not np.all(np.isfinite(u_sol)):
            status = SolverStatus.DIVERGED
            break
        violated = ~keep & (np.abs(u_sol) > lam)
        if not violated.any():
            break
        if spent >= config.max_iter:
            status = SolverStatus.MAX_ITER_REACHED
            break
        keep |= violated
    return _merged_report(rounds, status, beta, config, p)


def _merged_report(rounds, status: SolverStatus, beta: np.ndarray,
                   config: SolverConfig, p: int) -> SolverReport:
    """One report for the restricted rounds of a screened lambda: traces
    concatenated, iterate rows scattered back to p columns (each later
    round's first row repeats the previous round's last point and is
    dropped), flags joined, and ``screened:<kept>/<p>`` appended."""
    trace = [rec for _, rep in rounds for rec in rep.trace]
    rows = []
    for S, rep in rounds:
        if rep.iterates is not None:
            wide = np.zeros((rep.iterates.shape[0], p))
            wide[:, S] = rep.iterates
            rows.append(wide[1:] if rows else wide)
    first, (S, last) = rounds[0][1], rounds[-1]
    flags = tuple(dict.fromkeys(f for _, rep in rounds for f in rep.flags))
    return SolverReport(
        method=last.method, status=status, solution=beta, trace=trace,
        initial_residual=first.initial_residual, config=config,
        stepsize=last.stepsize, flags=flags + (f"screened:{S.size}/{p}",),
        iterates=np.vstack(rows) if rows else None)


def solve_path(problem: EstimatingProblem, lambdas: Sequence[float],
               config: SolverConfig, method: str = DEFAULT_METHOD, init=None,
               warm_start: bool = True) -> list[PathEntry]:
    """Solve over a strictly decreasing lambda grid with :func:`run_solver`,
    by default with ``aa`` (``DEFAULT_METHOD``).

    Every lambda's problem is built, and so validated, before the first
    solve: an empty, non-decreasing or invalid grid raises
    :class:`ValidationError` and nothing is solved. Warm starting (default)
    initializes each solve at the previous lambda's solution; cold starting
    reuses ``init`` for every lambda. A solve that raises (a configuration
    the method cannot run, such as gra-fixed on a U without a Lipschitz
    bound) ends the sweep with that error, as :func:`run_solver` would;
    a solve that diverges or fails numerically is recorded with its status
    and the sweep continues.

    Warm paths are screened after the first lambda when U offers
    ``restrict`` (the built-in linear, least-squares and logistic U) and the
    penalty is the lasso or the elastic net; see :func:`_screened_solve`.
    Such a lambda is solved on a kept set of coordinates, with that set's
    own, smaller Lipschitz bound and so a larger default step, and its
    solution is checked against every discarded coordinate's exact inactive
    test ``|U_j| <= lam`` on the full U, so it solves the full problem. Its
    report holds the full-length solution; ``trace`` holds every restricted
    iteration, ``stepsize`` is the last restricted step, at which the full
    problem's fixed-point residual is the reported one, and ``flags`` ends
    with ``screened:<kept>/<p>``, the kept coordinates of the last round. Cold
    paths, the first lambda, other penalties (the group penalties included)
    and a U without ``restrict`` run unscreened.
    """
    lams = [float(l) for l in lambdas]
    if not lams:
        raise ValidationError("lambda grid is empty")
    if any(b >= a for a, b in zip(lams, lams[1:])):
        raise ValidationError("lambda grid must be strictly decreasing")
    subs = [replace(problem, lam=lam) for lam in lams]
    p = problem.u.dim
    start = (np.zeros(p) if init is None
             else as_coefficients(init, p).copy())
    current = start.copy()
    screen = warm_start and _screenable(problem)
    u_current = None  # U(current) while screening, None when unusable
    entries: list[PathEntry] = []
    for i, sub in enumerate(subs):
        if u_current is not None:
            report = _screened_solve(sub, config, method, current,
                                     u_current, lams[i - 1])
        else:
            report = run_solver(sub, config, current, method)
        entries.append(PathEntry(sub.lam, report))
        if warm_start and np.all(np.isfinite(report.solution)):
            current = report.solution.copy()
            if screen:
                u = problem.u(current)
                u_current = u if np.all(np.isfinite(u)) else None
        elif not warm_start:
            current = start.copy()
    return entries

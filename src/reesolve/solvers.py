"""Iterative solvers for penalized estimating equations.

Five interchangeable methods over the same problem bundle:

* ``solve_picard``  — plain fixed-point iteration of
  ``f(beta) = prox_{tau*lam*Omega}(beta - tau*U(beta))``; geometric
  convergence when f is a contraction.
* ``solve_km``      — averaged (Krasnosel'skii–Mann) iteration
  ``beta <- (1-rho)*beta + rho*f(beta)``; converges for merely nonexpansive
  f with a nonempty fixed-point set.
* ``solve_gra_fixed`` / ``solve_gra_adaptive`` — golden-ratio anchored
  schemes solving the equivalent variational inequality; the fixed-step
  variant needs a Lipschitz constant, the adaptive one estimates local
  stepsizes and needs none.
* ``solve_lqa_newton`` — the classical local-quadratic-approximation Newton
  baseline for elementwise penalties (lasso / SCAD), kept for comparison; it
  requires Jacobians and inverts a p-by-p matrix every iteration.

Every solver terminates on the fixed-point residual computed with its own
stepsize, logs one record per iteration, and reports a typed status.
Divergence means a non-finite iterate or a residual above 1e12.
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
    "solve_gra_fixed",
    "solve_gra_adaptive",
    "solve_lqa_newton",
    "solve_constrained",
    "solve_path",
    "run_solver",
    "lambda_max",
    "PathEntry",
    "SOLVER_NAMES",
]

DIVERGENCE_RESIDUAL = 1e12


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
            f"config.tau (picard, km), declare U's Lipschitz constant, or "
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
    """The iteration loop shared by picard, km and both golden-ratio solvers.

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
            # NaN fails the test, so a non-finite beta or U(beta) stops here
            if not r <= DIVERGENCE_RESIDUAL:
                status = SolverStatus.DIVERGED
                break
            run.record(r, t, beta, theta)
            if r <= config.tol:
                status = SolverStatus.CONVERGED
                break
    except NonFiniteOutputError:
        status = SolverStatus.DIVERGED
    if status is SolverStatus.CONVERGED and final_prox_image:
        # averaged iterates never hit the prox manifold exactly, so zero
        # coordinates stay dirty; take the final prox image when its own
        # residual also meets the tolerance (one plain fixed-point step)
        try:
            f_next = prox(problem.penalty, fb - t * evaluate(problem.u, fb),
                          t * problem.lam)
            r_next = _norm(f_next - fb)
            if r_next <= config.tol:
                run.record(r_next, t, fb)
                beta = fb
        except NonFiniteOutputError:
            pass
    return run.report(status, beta, r0, t)


def _averaged_steps(beta: np.ndarray, tau: float, mix: float):
    """Steps ``beta <- (1-mix)*beta + mix*f(beta)`` with a fixed stepsize."""
    while True:
        _, fb = yield beta, tau, None
        beta = (1.0 - mix) * beta + mix * fb


def _averaged_iteration(problem: EstimatingProblem, config: SolverConfig,
                        init, mix: float, method: str) -> SolverReport:
    tau = config.tau if config.tau is not None else 1.0 / _lipschitz(problem)
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
    :func:`reesolve.diagnostics.rate_envelope_check`.
    """
    return _averaged_iteration(problem, config, init, config.rho, "km")


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


def solve_lqa_newton(problem: EstimatingProblem, config: SolverConfig,
                     init) -> SolverReport:
    """Newton iteration on the locally quadratically approximated equations.

    Supports only elementwise penalties (lasso or SCAD); the diagonal weights
    ``p'(|beta_j|)/(|beta_j| + epsilon)`` keep zero coordinates updatable.
    Each step inverts ``J_U(beta) + diag(weights)`` — a dense p-by-p
    inversion, which is the method's documented cost bottleneck — and the
    residual is the norm of the modified stationarity vector
    ``U(beta) + weights * beta``. On termination, coordinates below
    ``config.zero_threshold`` in magnitude are truncated to exactly zero
    (the method never produces exact zeros by itself).
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

    try:
        w = weights(beta)
        q = evaluate(u_fn, beta) + w * beta
    except NonFiniteOutputError:
        return run.report(SolverStatus.DIVERGED, beta, math.inf, None)
    r0 = _norm(q)
    if r0 <= config.tol:
        return finish(SolverStatus.CONVERGED, beta, r0)

    status = SolverStatus.MAX_ITER_REACHED
    diag_idx = slice(0, p * p, p + 1)
    for _ in range(config.max_iter):
        # analytic when U has one, else finite differences on opt-in;
        # copied, because U may hand out a cached matrix
        M = jacobian(u_fn, beta, allow_fd=config.allow_fd_jacobian).copy()
        M.flat[diag_idx] += w
        try:
            # the update is written with an explicit inverse; forming it is
            # the p**3 factorization cost this baseline is known for
            M_inv = np.linalg.inv(M)
        except np.linalg.LinAlgError:
            run.flags = run.flags + ("singular-system",)
            status = SolverStatus.NUMERICAL_FAILURE
            break
        # an overflowing step is caught just below as diverged
        with np.errstate(over="ignore", invalid="ignore"):
            beta = beta - M_inv @ q
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
    "gra-fixed": solve_gra_fixed,
    "gra-adaptive": solve_gra_adaptive,
    "lqa-newton": solve_lqa_newton,
}
SOLVER_NAMES = tuple(_SOLVERS)


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

    Accepts ``picard``, ``km``, ``gra-fixed``, ``gra-adaptive`` and
    ``lqa-newton`` (alias ``lqa``). For a ball-indicator penalty the
    starting point is projected onto the ball first, which keeps the
    averaged km iterates feasible even when a run stops at ``max_iter``.
    Every solver has the signature ``solve(problem, config, init)``.
    ``config.tau`` steps picard, km and gra-fixed; unset, it is derived from
    U's Lipschitz bound L (``1/L``, or ``phi/(2L)`` for gra-fixed).
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


def _finite_or_none(v: np.ndarray) -> Optional[np.ndarray]:
    return v if np.all(np.isfinite(v)) else None


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
    Returns the merged report and ``U`` at its solution (None unless the
    run converged with a finite U there).
    """
    lam, p = problem.lam, problem.u.dim
    stats = np.abs(u_beta)
    keep = (stats >= 2.0 * lam - lam_prev) | (beta != 0.0)
    keep[np.argmax(stats)] = True
    rounds: list[tuple[np.ndarray, SolverReport]] = []
    spent, u_sol = 0, None
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
        u_sol = _finite_or_none(problem.u(beta))
        if u_sol is None:
            status = SolverStatus.DIVERGED
            break
        violated = ~keep & (np.abs(u_sol) > lam)
        if not violated.any():
            break
        if spent >= config.max_iter:
            status, u_sol = SolverStatus.MAX_ITER_REACHED, None
            break
        keep |= violated
    return _merged_report(rounds, status, beta, config, p), u_sol


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
               config: SolverConfig, method: str = "picard", init=None,
               warm_start: bool = True) -> list[PathEntry]:
    """Solve over a strictly decreasing lambda grid with :func:`run_solver`.

    Warm starting (default) initializes each solve at the previous lambda's
    solution; cold starting reuses ``init`` for every lambda. A lambda that
    makes an invalid problem, or whose solve raises, is recorded with a
    numerical-failure report and the sweep continues.

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
    p = problem.u.dim
    start = (np.zeros(p) if init is None
             else as_coefficients(init, p).copy())
    current = start.copy()
    screen = warm_start and _screenable(problem)
    u_current = None  # U(current) while screening, None when unusable
    entries: list[PathEntry] = []
    for i, lam in enumerate(lams):
        u_sol = None
        try:
            sub = replace(problem, lam=lam)
            if u_current is not None:
                report, u_sol = _screened_solve(sub, config, method, current,
                                                u_current, lams[i - 1])
            else:
                report = run_solver(sub, config, current, method)
        except (ValueError, np.linalg.LinAlgError) as exc:
            report = SolverReport(
                method=method, status=SolverStatus.NUMERICAL_FAILURE,
                solution=current.copy(), trace=[],
                initial_residual=math.inf, config=config,
                flags=(f"error:{type(exc).__name__}",))
        entries.append(PathEntry(lam, report))
        if warm_start and np.all(np.isfinite(report.solution)):
            current = report.solution.copy()
            if screen:
                u_current = (u_sol if u_sol is not None
                             else _finite_or_none(problem.u(current)))
        elif not warm_start:
            current = start.copy()
    return entries

"""Reference solutions computed without reesolve.

Every routine here uses numpy only, so a defect in reesolve's penalties,
estimating functions or solvers cannot leak into the answer the benchmark
compares against. Each reference certifies itself before it is returned and
raises :class:`ReferenceError` when it cannot.
"""

from __future__ import annotations

import numpy as np


class ReferenceError(RuntimeError):
    """A reference solver failed to certify its own answer."""


# ---------------------------------------------------------------------------
# Lasso path: exact homotopy
# ---------------------------------------------------------------------------

def lasso_path(X: np.ndarray, y: np.ndarray, lambdas) -> np.ndarray:
    """Exact minimizers of ``0.5*||y - X b||^2 + lam*||b||_1`` on a
    decreasing grid, by the lasso homotopy (LARS with drops).

    The path is piecewise linear in lam; between events the active
    coefficients move along ``(X_A^T X_A)^{-1} s_A``. At every grid value the
    active-set equations are re-solved from scratch and the KKT conditions
    are checked to 1e-9 relative before the point is accepted.
    """
    n, p = X.shape
    lambdas = np.asarray(lambdas, dtype=float)
    c = X.T @ y
    lam = float(np.abs(c).max())
    if lambdas[0] > lam * (1.0 + 1e-12):
        raise ReferenceError("grid starts above lambda_max")
    beta = np.zeros(p)
    active: list[int] = []
    signs: list[float] = []
    out = np.zeros((lambdas.size, p))
    first = int(np.argmax(np.abs(c)))
    active.append(first)
    signs.append(float(np.sign(c[first])))
    for t, lam_t in enumerate(lambdas):
        for _ in range(50 * p):
            delta_target = lam - lam_t
            if delta_target <= 0.0:
                break
            d = _direction(X, beta, active, signs)
            a = X.T @ (X[:, active] @ d)
            inactive = np.ones(p, dtype=bool)
            inactive[active] = False
            best, kind, who = delta_target, "target", -1
            with np.errstate(divide="ignore", invalid="ignore"):
                for num, den in ((lam - c, 1.0 - a), (lam + c, 1.0 + a)):
                    cand = np.where(inactive & (den > 1e-12), num / den, np.inf)
                    cand[cand <= 1e-14 * lam] = np.inf
                    j = int(np.argmin(cand))
                    if cand[j] < best:
                        best, kind, who = float(cand[j]), "join", j
                leave = -beta[active] / d
                leave[leave <= 1e-14 * lam] = np.inf
            if leave.size:
                j = int(np.argmin(leave))
                if leave[j] < best:
                    best, kind, who = float(leave[j]), "leave", j
            beta[active] += best * d
            c -= best * a
            lam -= best
            if kind == "join":
                active.append(who)
                signs.append(float(np.sign(c[who])))
            elif kind == "leave":
                beta[active[who]] = 0.0
                del active[who], signs[who]
            else:
                break
        else:
            raise ReferenceError("homotopy did not reach the grid value")
        lam = float(lam_t)
        _direction(X, beta, active, signs)
        beta[:] = 0.0
        if active:
            XA = X[:, active]
            beta[active] = np.linalg.solve(
                XA.T @ XA, XA.T @ y - lam * np.asarray(signs))
        c = X.T @ (y - X @ beta)
        _check_lasso_kkt(beta, c, lam, active, signs)
        out[t] = beta
    return out


def _direction(X, beta, active, signs) -> np.ndarray:
    """Homotopy direction of the active coefficients as lambda decreases.

    A coefficient sitting at zero whose direction points against its sign is
    leaving the active set at this very lambda; it is dropped first.
    """
    while True:
        XA = X[:, active]
        d = np.linalg.solve(XA.T @ XA, np.asarray(signs))
        leaving = [i for i, j in enumerate(active)
                   if abs(beta[j]) <= 1e-12 and d[i] * signs[i] < 0.0]
        if not leaving:
            return d
        for i in reversed(leaving):
            beta[active[i]] = 0.0
            del active[i], signs[i]


def _check_lasso_kkt(beta, c, lam, active, signs) -> None:
    slack = 1e-9 * max(lam, 1.0)
    inactive = np.ones(beta.size, dtype=bool)
    inactive[active] = False
    if inactive.any() and np.abs(c[inactive]).max() > lam + slack:
        raise ReferenceError("an inactive correlation exceeds lambda")
    if active:
        s = np.asarray(signs)
        wrong = (np.sign(beta[active]) != s) & (np.abs(beta[active]) > 1e-12)
        if np.any(wrong):
            raise ReferenceError("an active coefficient has the wrong sign")
        if np.abs(c[active] - lam * s).max() > slack:
            raise ReferenceError("active correlations are not at lambda")


# ---------------------------------------------------------------------------
# Group penalties on contiguous equal-size groups
# ---------------------------------------------------------------------------

def _soft(v: np.ndarray, t: float) -> np.ndarray:
    return np.sign(v) * np.maximum(np.abs(v) - t, 0.0)


def group_prox(v: np.ndarray, scale: float, group_size: int,
               alpha: float) -> np.ndarray:
    """Prox of ``scale*((1-alpha)*sum_g ||v_g|| + alpha*||v||_1)`` for
    contiguous groups of ``group_size`` coordinates (alpha=0: group lasso)."""
    w = _soft(v, alpha * scale).reshape(-1, group_size)
    norms = np.sqrt((w * w).sum(axis=1))
    thresh = (1.0 - alpha) * scale
    factor = np.where(norms > thresh,
                      1.0 - thresh / np.where(norms > 0.0, norms, 1.0), 0.0)
    return (w * factor[:, None]).ravel()


def group_solution(A: np.ndarray, b: np.ndarray, lam: float,
                   group_size: int, alpha: float, tol: float = 1e-13,
                   max_iter: int = 200_000) -> np.ndarray:
    """Solve ``0 in A x - b + lam*dOmega(x)`` for monotone ``A`` by
    Douglas-Rachford splitting with the exact linear resolvent.

    Stops when the fixed-point residual of the forward-backward map at the
    current point, with step ``1/||A||``, is below ``tol * (1 + ||x||)``.
    """
    p = A.shape[0]
    norm_a = float(np.linalg.norm(A, 2))
    gamma = 1.0 / norm_a
    resolvent = np.linalg.inv(np.eye(p) + gamma * A)
    rb = resolvent @ (gamma * b)
    z = np.zeros(p)
    for k in range(max_iter):
        x = group_prox(z, gamma * lam, group_size, alpha)
        w = resolvent @ (2.0 * x - z) + rb
        z += w - x
        if k % 25 == 24:
            fb = group_prox(x - gamma * (A @ x - b), gamma * lam,
                            group_size, alpha)
            if np.linalg.norm(fb - x) <= tol * (1.0 + np.linalg.norm(x)):
                return x
    raise ReferenceError("Douglas-Rachford did not reach its tolerance")


# ---------------------------------------------------------------------------
# Lasso and SCAD with a strongly convex quadratic
# ---------------------------------------------------------------------------

def scad_prox(v: np.ndarray, step: float, lam: float, a: float) -> np.ndarray:
    """Prox of ``step * SCAD_{lam,a}`` (needs ``step < a - 1``)."""
    mag = np.abs(v)
    out = np.where(mag <= lam * (1.0 + step), _soft(v, step * lam), v)
    mid = (mag > lam * (1.0 + step)) & (mag <= a * lam)
    out = np.where(
        mid, np.sign(v) * ((a - 1.0) * mag - step * a * lam) / (a - 1.0 - step),
        out)
    return out


def penalized_least_squares(X: np.ndarray, y: np.ndarray, lam: float,
                            scad_a: float | None, max_iter: int = 100_000
                            ) -> np.ndarray:
    """Stationary point of ``0.5*||y - X b||^2 + pen(b)`` reached from zero,
    where ``pen`` is ``lam*||b||_1`` or SCAD with shape ``scad_a``.

    Proximal gradient with step ``1/L`` finds the support, the signs and,
    for SCAD, which piece of the derivative each coefficient sits on; the
    stationarity equations on that pattern are linear and are then solved
    exactly. The pattern is accepted only when the exact solution keeps it
    and every zero coordinate satisfies ``|U_j| <= lam``.
    """
    G = X.T @ X
    Xty = X.T @ y
    step = 1.0 / float(np.linalg.eigvalsh(G)[-1])
    beta = np.zeros(X.shape[1])
    for _ in range(max_iter):
        v = beta - step * (G @ beta - Xty)
        new = (_soft(v, step * lam) if scad_a is None
               else scad_prox(v, step, lam, scad_a))
        moved = float(np.linalg.norm(new - beta))
        beta = new
        if moved <= 1e-11 * (1.0 + np.linalg.norm(beta)):
            break
    else:
        raise ReferenceError("proximal gradient did not settle")
    return _polish(G, Xty, beta, lam, scad_a)


def _pieces(beta, lam, a):
    """Per coordinate: 0 zero, 1 lasso piece, 2 SCAD's linear piece, 3 flat."""
    mag = np.abs(beta)
    if a is None:
        return np.where(mag > 0.0, 1, 0)
    return np.select([mag == 0.0, mag <= lam, mag <= a * lam], [0, 1, 2], 3)


def _polish(G, Xty, beta, lam, a):
    for _ in range(20):
        piece = _pieces(beta, lam, a)
        on = piece > 0
        s = np.sign(beta[on])
        # U_S + p'(|b_S|) sign(b_S) = 0 with p' affine on each piece
        M = G[np.ix_(on, on)].copy()
        rhs = Xty[on].copy()
        pc = piece[on]
        rhs -= np.where(pc == 1, lam * s, 0.0)
        if a is not None:
            rhs -= np.where(pc == 2, a * lam * s / (a - 1.0), 0.0)
            M[np.diag_indices_from(M)] -= np.where(pc == 2, 1.0 / (a - 1.0), 0.0)
        exact = np.zeros_like(beta)
        exact[on] = np.linalg.solve(M, rhs)
        if np.array_equal(_pieces(exact, lam, a), piece) and np.all(
                np.sign(exact[on]) == s):
            u = G @ exact - Xty
            if np.abs(u[~on]).max(initial=0.0) <= lam * (1.0 + 1e-9):
                return exact
            raise ReferenceError("a zero coordinate violates |U_j| <= lam")
        beta = exact
    raise ReferenceError("the support pattern did not settle")

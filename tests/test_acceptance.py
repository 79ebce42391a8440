"""Acceptance suite: one test per criterion, printing one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
are produced.
"""

import math
import time

import numpy as np
import pytest

from helpers import rotation_instance

from reesolve import (
    BallConstraint,
    BallIndicator,
    ElasticNet,
    EstimatingProblem,
    GeometricEnvelope,
    GroupLasso,
    GroupPartition,
    InverseKEnvelope,
    KmRateEnvelope,
    Lasso,
    LeastSquaresEstimating,
    LinearEstimating,
    Ridge,
    SolverConfig,
    SolverStatus,
    SparseGroupLasso,
    UnsupportedPenaltyError,
    fixed_point_residual,
    kkt_residual,
    lambda_max,
    oracle_grid_prox,
    oracle_lasso_cd,
    prox,
    rate_envelope_check,
    run_solver,
    solve_constrained,
    solve_gra_adaptive,
    solve_gra_fixed,
    solve_km,
    solve_lqa_newton,
    solve_picard,
    vi_probe,
)
from reesolve.cli import bench_rows


def _criterion(num: int, desc: str, ok: bool, detail: str = "") -> None:
    line = f"CRITERION {num}: {'PASS' if ok else 'FAIL'} - {desc}"
    if detail:
        line += f" [{detail}]"
    print(line, flush=True)
    assert ok, line


def _partition_for(p: int) -> GroupPartition:
    if p == 1:
        return GroupPartition([[0]])
    if p == 2:
        return GroupPartition([[0, 1]])
    return GroupPartition([[0, 1], [2]])


def _ls_instance(seed: int, n: int, p: int, k: int, lam_frac: float,
                 noise: float = 0.05):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, p)) / np.sqrt(n)
    beta_star = np.zeros(p)
    beta_star[:k] = rng.uniform(1.5, 3.0, size=k) * rng.choice([-1.0, 1.0], size=k)
    y = X @ beta_star + noise * rng.standard_normal(n)
    u = LeastSquaresEstimating(X, y)
    return X, y, u, lam_frac * lambda_max(u)


def test_criterion_1_prox_matches_grid_oracle():
    start = time.monotonic()
    grid_step = 1e-3
    worst = 0.0
    for name_idx, make_spec in enumerate([
        lambda p, rng: Lasso(),
        lambda p, rng: Ridge(),
        lambda p, rng: ElasticNet(ratio=rng.uniform(0.1, 2.0)),
        lambda p, rng: GroupLasso(_partition_for(p)),
        lambda p, rng: SparseGroupLasso(_partition_for(p), alpha=rng.uniform(0, 1)),
    ]):
        for case in range(100):
            rng = np.random.default_rng(1000 * name_idx + case)
            p = 1 + case % 3
            spec = make_spec(p, rng)
            v = rng.uniform(-2.5, 2.5, size=p)
            scale = rng.uniform(0.0, 2.0)
            closed = prox(spec, v, scale)
            grid = oracle_grid_prox(spec, v, scale, grid_step=grid_step)
            worst = max(worst, float(np.max(np.abs(closed - grid))))
    elapsed = time.monotonic() - start
    _criterion(1, "closed-form prox matches grid oracle on 500 seeded cases",
               worst <= 2 * grid_step and elapsed <= 60.0,
               f"worst={worst:.2e}, elapsed={elapsed:.1f}s")


def _criterion2_instances():
    instances = []
    for seed in range(10):
        X, y, u, lam = _ls_instance(seed, n=100, p=20, k=4, lam_frac=0.2)
        instances.append(EstimatingProblem(u=u, penalty=Lasso(), lam=lam))
    for seed in range(10, 20):
        rng = np.random.default_rng(seed)
        n, p, gs = 90, 16, 4
        X = rng.standard_normal((n, p)) / np.sqrt(n)
        beta_star = np.zeros(p)
        beta_star[:gs] = rng.uniform(1.0, 2.0, size=gs)
        y = X @ beta_star + 0.05 * rng.standard_normal(n)
        u = LeastSquaresEstimating(X, y)
        part = GroupPartition([list(range(i, i + gs)) for i in range(0, p, gs)])
        lam = 0.2 * lambda_max(u)
        instances.append(EstimatingProblem(u=u, penalty=GroupLasso(part), lam=lam))
    return instances


def test_criterion_2_equivalence_triangle():
    start = time.monotonic()
    tol = 1e-9
    cfg = SolverConfig(tol=tol, max_iter=300000)
    ok = True
    worst_fp = worst_kkt = worst_vi = 0.0
    for i, prob in enumerate(_criterion2_instances()):
        p = prob.u.dim
        for solver in (solve_picard, solve_km):
            rep = solver(prob, cfg, np.zeros(p))
            if not rep.converged:
                ok = False
                continue
            fp = fixed_point_residual(prob, rep.solution, rep.stepsize)
            kkt = kkt_residual(prob, rep.solution).max_residual
            probe = vi_probe(prob, rep.solution, samples=10_000, radius=1.0,
                             seed=i)
            worst_fp = max(worst_fp, fp)
            worst_kkt = max(worst_kkt, kkt)
            worst_vi = min(worst_vi, probe.worst_value)
            ok = ok and fp <= 1e-9 and kkt <= 1e-8 and probe.worst_value >= -1e-8
    elapsed = time.monotonic() - start
    _criterion(2, "fixed-point, stationarity and VI certificates agree on 20 "
                  "converged instances",
               ok and elapsed <= 120.0,
               f"fp<={worst_fp:.1e}, kkt<={worst_kkt:.1e}, "
               f"vi>={worst_vi:.1e}, elapsed={elapsed:.1f}s")


def test_criterion_3_cross_solver_agreement():
    worst = 0.0
    ok = True
    for seed in range(10):
        X, y, u, lam = _ls_instance(seed, n=60, p=10, k=3, lam_frac=0.25,
                                    noise=0.03)
        oracle = oracle_lasso_cd(X, y, lam, tol=1e-14)
        # support stability margins so the LQA baseline is comparable
        active = oracle != 0.0
        assert active.any() and (~active).any()
        assert np.min(np.abs(oracle[active])) > 0.05
        assert np.max(np.abs(u(oracle)[~active])) < 0.95 * lam
        prob = EstimatingProblem(u=u, penalty=Lasso(), lam=lam)
        cfg = SolverConfig(tol=1e-10, max_iter=300000, epsilon_lqa=1e-9)
        for method in ("picard", "km", "gra-fixed", "gra-adaptive",
                       "lqa-newton"):
            rep = run_solver(prob, cfg, np.zeros(10), method)
            gap = float(np.max(np.abs(rep.solution - oracle)))
            worst = max(worst, gap)
            ok = ok and rep.converged and gap <= 1e-5
    _criterion(3, "five solvers agree with the coordinate-descent oracle on "
                  "10 instances", ok, f"worst gap={worst:.1e}")


def test_criterion_4_geometric_rate():
    ok = True
    details = []
    for L in (0.5, 0.9):
        # axis-aligned contraction: iteration map is exactly L * identity.
        # tol keeps every logged distance well above accumulated float
        # rounding (~1e-15), where the 1e-6 relative slack is meaningful
        A = (1.0 - L) * np.eye(2)
        target = np.array([1.0, -2.0])
        u = LinearEstimating(A, A @ target)
        prob = EstimatingProblem(u=u, penalty=Lasso(), lam=0.0)
        cfg = SolverConfig(tau=1.0, tol=1e-6, max_iter=2000)
        rep = solve_picard(prob, cfg, np.array([5.0, 4.0]))
        res = rate_envelope_check(rep, GeometricEnvelope(L=L, beta_hat=target))
        ok = ok and rep.converged and res.passed
        details.append(f"L={L} diag:{'ok' if res.passed else res.first_violation}")

        # rotation scaled by L: non-symmetric map with the same norm
        th = 0.7
        M = L * np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
        A = np.eye(2) - M
        u = LinearEstimating(A, A @ target)
        prob = EstimatingProblem(u=u, penalty=Lasso(), lam=0.0)
        rep = solve_picard(prob, cfg, np.array([5.0, 4.0]))
        res = rate_envelope_check(rep, GeometricEnvelope(L=L, beta_hat=target))
        ok = ok and rep.converged and res.passed
        details.append(f"L={L} rot:{'ok' if res.passed else res.first_violation}")
    _criterion(4, "contraction traces stay inside the geometric envelope", ok,
               ", ".join(details))


def test_criterion_5_km_rate_bound():
    ok = True
    for i, prob in enumerate(_criterion2_instances()):
        p = prob.u.dim
        init = np.zeros(p)
        for rho in (0.25, 0.5, 0.75):
            cfg = SolverConfig(tol=1e-9, max_iter=300000, rho=rho)
            rep = solve_km(prob, cfg, init)
            if not rep.converged:
                ok = False
                continue
            dist0 = float(np.linalg.norm(init - rep.solution) ** 2)
            res = rate_envelope_check(rep, KmRateEnvelope(rho=rho, dist0=dist0))
            ok = ok and res.passed
    _criterion(5, "averaged-iteration residuals obey the O(1/k) bound at "
                  "rho in {0.25, 0.5, 0.75}", ok)


def test_criterion_6_non_gradient_monotone_case():
    A = np.array([[2.0, 1.0], [-1.0, 2.0]])
    u = LinearEstimating(A, np.array([1.0, 1.0]))
    prob = EstimatingProblem(u=u, penalty=Lasso(), lam=0.1)

    cfg = SolverConfig(tol=1e-15, max_iter=10_000)
    rep_f = solve_gra_fixed(prob, cfg, np.zeros(2))
    rep_a = solve_gra_adaptive(prob, cfg, np.zeros(2))
    env_f = rate_envelope_check(rep_f, InverseKEnvelope())
    env_a = rate_envelope_check(rep_a, InverseKEnvelope())
    small_f = min(r.fp_residual for r in rep_f.trace) <= 1e-12
    small_a = min(r.fp_residual for r in rep_a.trace) <= 1e-12

    rep_p = solve_picard(prob, SolverConfig(tau=0.4, tol=1e-12,
                                            max_iter=200000), np.zeros(2))
    gap = float(np.max(np.abs(rep_p.solution - rep_f.solution)))
    ok = (env_f.passed and env_a.passed and small_f and small_a
          and rep_p.converged and gap <= 1e-5)
    _criterion(6, "golden-ratio solvers handle the non-gradient monotone "
                  "instance with an O(1/k) envelope", ok,
               f"picard gap={gap:.1e}")


def test_criterion_7_rotation_counterexample():
    u, fixed_pt = rotation_instance()
    prob = EstimatingProblem(u=u, penalty=Lasso(), lam=0.0)
    init = fixed_pt + np.array([1.0, 0.0])

    rep_p = solve_picard(prob, SolverConfig(tau=1.0, tol=1e-3, max_iter=10_000),
                         init.copy())
    picard_stuck = (rep_p.status is SolverStatus.MAX_ITER_REACHED
                    and min(r.fp_residual for r in rep_p.trace) > 1e-3)

    rep_k = solve_km(prob, SolverConfig(tau=1.0, rho=0.5, tol=1e-9,
                                        max_iter=10_000), init.copy())
    km_ok = rep_k.converged and np.allclose(rep_k.solution, fixed_pt, atol=1e-8)
    _criterion(7, "plain iteration orbits on the rotation instance while the "
                  "averaged one converges", picard_stuck and km_ok,
               f"picard min residual="
               f"{min(r.fp_residual for r in rep_p.trace):.2e}")


def test_criterion_8_lambda_max_nulling():
    ok = True
    for seed in range(10):
        rng = np.random.default_rng(seed + 300)
        X = rng.standard_normal((50, 8)) / np.sqrt(50)
        y = (X @ np.concatenate([rng.uniform(1, 2, 2), np.zeros(6)])
             + 0.05 * rng.standard_normal(50))
        u = LeastSquaresEstimating(X, y)
        lmax = lambda_max(u)
        init = 0.3 * rng.standard_normal(8)
        zeros = np.zeros(8)
        for method in ("picard", "km", "gra-fixed", "gra-adaptive"):
            for lam, start in ((lmax, zeros), (2 * lmax, init)):
                prob = EstimatingProblem(u=u, penalty=Lasso(), lam=lam)
                rep = run_solver(prob, SolverConfig(tol=1e-9, max_iter=300000),
                                 start.copy(), method)
                ok = ok and rep.converged and np.array_equal(rep.solution, zeros)
        prob = EstimatingProblem(u=u, penalty=Lasso(), lam=2 * lmax)
        rep = solve_lqa_newton(prob, SolverConfig(tol=1e-10, max_iter=1000,
                                                  epsilon_lqa=1e-9),
                               init.copy())
        ok = ok and rep.converged and np.array_equal(rep.solution, zeros)
    _criterion(8, "lambda at or above ||U(0)||_inf nulls the solution exactly "
                  "for every solver", ok)


def test_criterion_9_constrained_form():
    rng = np.random.default_rng(900)
    X = rng.standard_normal((40, 5))
    y = rng.standard_normal(40)
    u = LeastSquaresEstimating(X, y)
    root = np.linalg.lstsq(X, y, rcond=None)[0]
    cfg = SolverConfig(tol=1e-12, max_iter=300000)

    big = EstimatingProblem(
        u=u, penalty=BallIndicator(BallConstraint("l2", 5 * np.linalg.norm(root))),
        lam=0.0)
    rep_big = solve_constrained(big, cfg, np.zeros(5), method="picard")
    inactive_ok = (rep_big.converged
                   and np.max(np.abs(rep_big.solution - root)) <= 1e-8)

    r = 0.5 * float(np.linalg.norm(root))
    small = EstimatingProblem(
        u=u, penalty=BallIndicator(BallConstraint("l2", r)), lam=0.0)
    rep_small = solve_constrained(small, cfg, np.zeros(5), method="km")
    probe = vi_probe(small, rep_small.solution, samples=2000, radius=2 * r,
                     seed=9)
    active_ok = (rep_small.converged
                 and abs(np.linalg.norm(rep_small.solution) - r) <= 1e-8
                 and probe.passed)
    _criterion(9, "ball-constrained solves match the unconstrained root or "
                  "land on the sphere with a feasible VI certificate",
               inactive_ok and active_ok,
               f"|root gap|={np.max(np.abs(rep_big.solution - root)):.1e}, "
               f"norm-r={abs(np.linalg.norm(rep_small.solution) - r):.1e}")


def _loglog_slope(pairs):
    xs = [math.log(p) for p, _ in pairs]
    ys = [math.log(t) for _, t in pairs]
    xb = sum(xs) / len(xs)
    yb = sum(ys) / len(ys)
    return (sum((x - xb) * (y - yb) for x, y in zip(xs, ys))
            / sum((x - xb) ** 2 for x in xs))


def test_criterion_10_lqa_drawbacks():
    # (i) group penalties are a typed refusal
    rng = np.random.default_rng(1000)
    X = rng.standard_normal((30, 6))
    u = LeastSquaresEstimating(X, rng.standard_normal(30))
    part = GroupPartition([[0, 1, 2], [3, 4, 5]])
    gprob = EstimatingProblem(u=u, penalty=GroupLasso(part), lam=0.1)
    with pytest.raises(UnsupportedPenaltyError):
        solve_lqa_newton(gprob, SolverConfig(), np.zeros(6))

    # (ii) per-iteration cost slopes over p in {50, 100, 200, 400}, n = 50
    manifest = {
        "schema_version": 1, "n": 50, "p": [50, 100, 200, 400],
        "penalty": "lasso", "solver": ["lqa-newton", "gra-adaptive"],
        "seed": 0, "lambda_rel": 0.25, "tol": 1e-6, "max_iter": 150,
        "repeats": 5, "epsilon_lqa": 1e-9,
    }
    per_iter = {"lqa-newton": [], "gra-adaptive": []}
    for _ in range(3):  # repeat the whole matrix; keep the per-cell minimum
        rows = bench_rows(manifest)
        for row in rows:
            per_iter[row["solver"]].append(
                (row["p"], row["per_iteration_seconds"]))
    best = {}
    for solver, pts in per_iter.items():
        by_p = {}
        for p, t in pts:
            by_p[p] = min(t, by_p.get(p, math.inf))
        best[solver] = sorted(by_p.items())
    lqa_slope = _loglog_slope(best["lqa-newton"])
    gra_slope = _loglog_slope(best["gra-adaptive"])
    _criterion(10, "LQA rejects group penalties and its per-iteration cost "
                   "grows ~cubically while the adaptive golden-ratio solver "
                   "stays ~linear",
               lqa_slope >= 2.5 and gra_slope <= 1.5,
               f"lqa slope={lqa_slope:.2f} (need >=2.5), "
               f"gra slope={gra_slope:.2f} (need <=1.5), "
               f"lqa us/iter={[f'{p}:{t*1e6:.0f}' for p, t in best['lqa-newton']]}")

import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from helpers import group_ls_instance, lasso_ls_instance, rotation_instance

from reesolve import (
    GOLDEN_RATIO,
    BallConstraint,
    BallIndicator,
    CustomEstimating,
    DimensionMismatchError,
    ElasticNet,
    EstimatingProblem,
    GroupLasso,
    GroupPartition,
    JacobianUnavailableError,
    Lasso,
    LeastSquaresEstimating,
    LinearEstimating,
    LogisticEstimating,
    Ridge,
    Scad,
    SolverConfig,
    SolverStatus,
    SparseGroupLasso,
    StepOutOfRangeError,
    UnsupportedPenaltyError,
    ValidationError,
    fixed_point_residual,
    kkt_residual,
    lambda_max,
    oracle_lasso_cd,
    project_ball,
    run_solver,
    solve_constrained,
    solve_gra_adaptive,
    solve_gra_fixed,
    solve_km,
    solve_lqa_newton,
    solve_path,
    solve_picard,
    vi_probe,
)


def affine_problem(c, tau=0.5):
    """U(beta) = beta - c, lam = 0: the iteration map is (1-tau)*beta + tau*c."""
    c = np.asarray(c, dtype=float)
    u = LinearEstimating(np.eye(c.size), c)
    return EstimatingProblem(u=u, penalty=Lasso(), lam=0.0)


class TestPicard:
    def test_affine_iteration_converges_geometrically(self):
        c = np.array([2.0, -1.0])
        prob = affine_problem(c)
        cfg = SolverConfig(tau=0.5, tol=1e-12, max_iter=200)
        rep = solve_picard(prob, cfg, np.zeros(2))
        assert rep.converged
        np.testing.assert_allclose(rep.solution, c, atol=1e-11)
        # closed-form iterates: beta_k = (1 - 0.5^k) c, so residuals halve
        ratios = [rep.trace[i + 1].fp_residual / rep.trace[i].fp_residual
                  for i in range(min(10, len(rep.trace) - 1))]
        np.testing.assert_allclose(ratios, 0.5, rtol=1e-6)

    def test_fixed_point_init_returns_immediately(self):
        c = np.array([1.0, 2.0, 3.0])
        prob = affine_problem(c)
        cfg = SolverConfig(tau=0.5, tol=1e-10)
        rep = solve_picard(prob, cfg, c.copy())
        assert rep.converged
        assert rep.iterations == 0
        assert len(rep.trace) == 0
        np.testing.assert_array_equal(rep.solution, c)

    def test_matches_coordinate_descent_oracle(self):
        X, y, u, lam, prob = lasso_ls_instance(seed=42, n=20, p=5)
        cfg = SolverConfig(tau=1.0 / u.lipschitz, tol=1e-12, max_iter=100000)
        rep = solve_picard(prob, cfg, np.zeros(5))
        assert rep.converged
        oracle = oracle_lasso_cd(X, y, lam, tol=1e-14)
        assert np.max(np.abs(rep.solution - oracle)) <= 1e-6

    def test_trace_invariants(self):
        X, y, u, lam, prob = lasso_ls_instance(seed=1)
        cfg = SolverConfig(tol=1e-9, max_iter=100000)
        rep = solve_picard(prob, cfg, np.zeros(10))
        assert rep.converged
        assert len(rep.trace) == rep.iterations
        assert rep.trace[-1].fp_residual <= cfg.tol
        assert all(r.step > 0 for r in rep.trace)
        assert rep.iterates.shape == (rep.iterations + 1, 10)

    def test_divergence_detected(self):
        # U(beta) = -beta, tau = 1: the map doubles beta every step
        u = LinearEstimating(-np.eye(2), np.zeros(2))
        prob = EstimatingProblem(u=u, penalty=Lasso(), lam=0.0)
        cfg = SolverConfig(tau=1.0, tol=1e-9, max_iter=10000)
        rep = solve_picard(prob, cfg, np.array([1.0, 1.0]))
        assert rep.status is SolverStatus.DIVERGED


class TestKm:
    def test_rho_near_one_tracks_picard(self):
        c = np.array([2.0, -1.0])
        prob = affine_problem(c)
        rep_p = solve_picard(prob, SolverConfig(tau=0.5, tol=1e-15, max_iter=10),
                             np.zeros(2))
        rep_k = solve_km(prob, SolverConfig(tau=0.5, rho=0.999, tol=1e-15,
                                            max_iter=10), np.zeros(2))
        gap = np.max(np.abs(rep_p.iterates[10] - rep_k.iterates[10]))
        assert gap <= 1e-3

    def test_fixed_point_init_immediate(self):
        c = np.array([4.0])
        prob = affine_problem(c)
        rep = solve_km(prob, SolverConfig(tau=0.5, tol=1e-10), c.copy())
        assert rep.converged and rep.iterations == 0

    def test_rotation_km_converges_where_picard_orbits(self):
        u, fixed_pt = rotation_instance()
        prob = EstimatingProblem(u=u, penalty=Lasso(), lam=0.0)
        init = fixed_pt + np.array([1.0, 0.0])
        cfg_p = SolverConfig(tau=1.0, tol=1e-3, max_iter=10000)
        rep_p = solve_picard(prob, cfg_p, init.copy())
        assert rep_p.status is SolverStatus.MAX_ITER_REACHED
        assert min(r.fp_residual for r in rep_p.trace) > 1e-3

        cfg_k = SolverConfig(tau=1.0, rho=0.5, tol=1e-9, max_iter=10000)
        rep_k = solve_km(prob, cfg_k, init.copy())
        assert rep_k.converged
        np.testing.assert_allclose(rep_k.solution, fixed_pt, atol=1e-8)

    def test_km_solution_is_exactly_sparse(self):
        X, y, u, lam, prob = lasso_ls_instance(seed=7)
        rep = solve_km(prob, SolverConfig(tol=1e-9, max_iter=100000), np.zeros(10))
        assert rep.converged
        # the returned point is a prox image: zero coords are exact zeros
        assert np.count_nonzero(rep.solution) < 10
        assert kkt_residual(prob, rep.solution).max_residual <= 1e-8

    def test_fejer_monotone_toward_final_iterate(self):
        X, y, u, lam, prob = lasso_ls_instance(seed=23)
        rep = solve_km(prob, SolverConfig(tol=1e-13, max_iter=200000),
                       np.zeros(10))
        assert rep.converged
        dists = np.linalg.norm(rep.iterates - rep.solution, axis=1)
        assert np.all(np.diff(dists) <= 1e-10)


class TestGraFixed:
    def test_golden_ratio_constant(self):
        assert GOLDEN_RATIO == pytest.approx(1.6180339887, abs=1e-9)

    def test_step_bound_enforced(self):
        X, y, u, lam, prob = lasso_ls_instance(seed=2)
        L = u.lipschitz
        bad = SolverConfig(tau=GOLDEN_RATIO / (2 * L) * 1.01, tol=1e-9)
        with pytest.raises(StepOutOfRangeError):
            solve_gra_fixed(prob, bad, np.zeros(10))

    @pytest.mark.parametrize("tau", [None, 0.1])
    def test_u_without_lipschitz_bound_rejected(self, tau):
        # the range check needs L even when tau is given; the error names
        # the ways out
        u = CustomEstimating(2, lambda b: b)
        prob = EstimatingProblem(u=u, penalty=Lasso(), lam=0.1)
        with pytest.raises(ValidationError, match="gra-adaptive"):
            solve_gra_fixed(prob, SolverConfig(tau=tau), np.zeros(2))

    def test_monotone_nonsymmetric_instance(self):
        A = np.array([[2.0, 1.0], [-1.0, 2.0]])
        u = LinearEstimating(A, np.array([1.0, 1.0]))
        prob = EstimatingProblem(u=u, penalty=Lasso(), lam=0.1)
        L = u.lipschitz
        assert L == pytest.approx(np.sqrt(5.0), rel=1e-5)
        cfg = SolverConfig(tol=1e-10, max_iter=100000)
        rep = solve_gra_fixed(prob, cfg, np.zeros(2))
        assert rep.converged
        assert rep.stepsize == pytest.approx(GOLDEN_RATIO / (2 * L))
        assert kkt_residual(prob, rep.solution).max_residual <= 1e-8
        probe = vi_probe(prob, rep.solution, 2000, 1.0, 0)
        assert probe.passed

    def test_init_at_solution_immediate(self):
        A = np.array([[2.0, 1.0], [-1.0, 2.0]])
        u = LinearEstimating(A, np.array([1.0, 1.0]))
        prob = EstimatingProblem(u=u, penalty=Lasso(), lam=0.1)
        cfg = SolverConfig(tol=1e-11, max_iter=100000)
        sol = solve_gra_fixed(prob, cfg, np.zeros(2)).solution
        rep = solve_gra_fixed(prob, SolverConfig(tol=1e-9), sol)
        assert rep.converged and rep.iterations == 0


class TestGraAdaptive:
    def test_rho_is_one_at_golden_ratio_psi(self):
        psi = SolverConfig().psi
        assert 1.0 / psi + 1.0 / psi ** 2 == pytest.approx(1.0, abs=1e-12)

    def test_stalled_u_guard_caps_step(self):
        # constant U: the local-Lipschitz candidate is dropped from the min
        u = CustomEstimating(2, lambda b: np.array([1.0, -1.0]))
        prob = EstimatingProblem(u=u, penalty=Lasso(), lam=0.0)
        cfg = SolverConfig(t_bar=2.0, tol=1e-9, max_iter=5)
        rep = solve_gra_adaptive(prob, cfg, np.zeros(2))
        assert all(rec.step <= 2.0 + 1e-15 for rec in rep.trace)

    def test_agrees_with_fixed_variant(self):
        A = np.array([[2.0, 1.0], [-1.0, 2.0]])
        u = LinearEstimating(A, np.array([1.0, 1.0]))
        prob = EstimatingProblem(u=u, penalty=Lasso(), lam=0.1)
        cfg = SolverConfig(tol=1e-11, max_iter=100000)
        rep_f = solve_gra_fixed(prob, cfg, np.zeros(2))
        rep_a = solve_gra_adaptive(prob, cfg, np.zeros(2))
        assert rep_a.converged
        assert np.max(np.abs(rep_a.solution - rep_f.solution)) <= 1e-6

    def test_u_evaluated_once_at_start(self):
        # one call at each of the two starting points, one per iteration
        X, y, u, lam, prob = lasso_ls_instance(seed=5)
        calls = []

        def counted(b):
            calls.append(1)
            return u(b)

        cfg = SolverConfig(tol=1e-9, max_iter=100000)
        counting = EstimatingProblem(u=CustomEstimating(u.dim, counted),
                                     penalty=prob.penalty, lam=lam)
        rep = solve_gra_adaptive(counting, cfg, np.zeros(10))
        assert rep.converged
        assert len(calls) == rep.iterations + 2
        ref = solve_gra_adaptive(prob, cfg, np.zeros(10))
        assert rep.trace == ref.trace
        assert np.array_equal(rep.iterates, ref.iterates)

    def test_theta_recorded(self):
        X, y, u, lam, prob = lasso_ls_instance(seed=5)
        rep = solve_gra_adaptive(prob, SolverConfig(tol=1e-9, max_iter=100000),
                                 np.zeros(10))
        assert rep.converged
        assert all(rec.theta is not None for rec in rep.trace)


class TestAnchoredRecursionsExact:
    """Hand-simulated recursions must match the solvers bit for bit."""

    def test_picard_matches_manual_simulation(self):
        from reesolve import prox
        X, y, u, lam, prob = lasso_ls_instance(seed=42, n=30, p=6)
        tau = 1.0 / u.lipschitz
        cfg = SolverConfig(tol=1e-30, max_iter=6)
        beta0 = np.random.default_rng(2).standard_normal(6)
        rep = solve_picard(prob, cfg, beta0.copy())
        assert rep.status is SolverStatus.MAX_ITER_REACHED

        beta = beta0.copy()
        fbeta = prox(prob.penalty, beta - tau * u(beta), tau * lam)
        assert rep.initial_residual == np.linalg.norm(fbeta - beta)
        for k in range(6):
            beta = fbeta
            fbeta = prox(prob.penalty, beta - tau * u(beta), tau * lam)
            assert np.array_equal(rep.iterates[k + 1], beta)
            assert rep.trace[k].fp_residual == np.linalg.norm(fbeta - beta)
            assert rep.trace[k].step == tau
        assert np.array_equal(rep.solution, beta)

    def test_km_matches_manual_simulation_with_final_prox_image(self):
        from reesolve import prox
        X, y, u, lam, prob = lasso_ls_instance(seed=43, n=30, p=6)
        tau = 1.0 / u.lipschitz
        rho = 0.5
        cfg = SolverConfig(tol=1e-8, max_iter=100000, rho=rho)
        rep = solve_km(prob, cfg, np.zeros(6))
        assert rep.converged

        def f(b):
            return prox(prob.penalty, b - tau * u(b), tau * lam)

        beta = np.zeros(6)
        fbeta = f(beta)
        k = 0
        while np.linalg.norm(fbeta - beta) > cfg.tol:
            beta = (1.0 - rho) * beta + rho * fbeta
            fbeta = f(beta)
            k += 1
            assert np.array_equal(rep.iterates[k], beta)
            assert rep.trace[k - 1].fp_residual == np.linalg.norm(fbeta - beta)
        # the averaged iterate is replaced by its prox image, recorded as one
        # more iteration, because that image's own residual meets tol too
        f_next = f(fbeta)
        assert np.linalg.norm(f_next - fbeta) <= cfg.tol
        assert rep.iterations == k + 1
        assert rep.trace[k].fp_residual == np.linalg.norm(f_next - fbeta)
        assert np.array_equal(rep.iterates[k + 1], fbeta)
        assert np.array_equal(rep.solution, fbeta)

    def test_gra_fixed_matches_manual_simulation(self):
        from reesolve import prox
        X, y, u, lam, prob = lasso_ls_instance(seed=40, n=30, p=6)
        L = u.lipschitz
        phi = GOLDEN_RATIO
        t = phi / (2 * L)
        cfg = SolverConfig(tol=1e-30, max_iter=6)
        beta0 = np.random.default_rng(0).standard_normal(6)
        rep = solve_gra_fixed(prob, cfg, beta0.copy())

        # the anchor starts at the starting point
        beta, bbar = beta0.copy(), beta0.copy()
        for k in range(6):
            bbar = ((phi - 1.0) * beta + bbar) / phi
            beta = prox(prob.penalty, bbar - t * u(beta), t * lam)
            assert np.array_equal(rep.iterates[k + 1], beta)
        assert all(rec.step == t for rec in rep.trace)

    def test_gra_adaptive_matches_manual_simulation(self):
        from reesolve import prox
        X, y, u, lam, prob = lasso_ls_instance(seed=41, n=30, p=6)
        psi = SolverConfig().psi
        rho = 1.0 / psi + 1.0 / psi ** 2
        t_bar = 10.0
        cfg = SolverConfig(tol=1e-30, max_iter=6, t_bar=t_bar)
        beta = np.random.default_rng(1).standard_normal(6)
        rep = solve_gra_adaptive(prob, cfg, beta.copy())

        # the documented second point seeds the first stepsize
        offset = 1e-3 * (1.0 + np.linalg.norm(beta)) / np.sqrt(6)
        beta_prev = beta + offset * np.ones(6)
        bbar = beta.copy()
        t_prev = np.linalg.norm(beta - beta_prev) / np.linalg.norm(
            u(beta) - u(beta_prev))
        theta_prev = 1.0
        for k in range(6):
            db2 = np.linalg.norm(beta - beta_prev) ** 2
            du2 = np.linalg.norm(u(beta) - u(beta_prev)) ** 2
            t = min(rho * t_prev, psi * theta_prev / (4.0 * t_prev) * db2 / du2,
                    t_bar)
            bbar = ((psi - 1.0) * beta + bbar) / psi
            beta_prev, beta = beta, prox(prob.penalty, bbar - t * u(beta),
                                         t * lam)
            theta_prev = psi * t / t_prev
            t_prev = t
            assert np.array_equal(rep.iterates[k + 1], beta)
            assert rep.trace[k].step == t
            assert rep.trace[k].theta == theta_prev


FIRST_ORDER = ("picard", "km", "gra-fixed", "gra-adaptive")
# method name -> the solver run_solver must reach, called directly
DIRECT = {
    "picard": solve_picard,
    "km": solve_km,
    "gra-fixed": solve_gra_fixed,
    "gra-adaptive": solve_gra_adaptive,
    "lqa-newton": solve_lqa_newton,
}
PART_22 = GroupPartition([[0, 1], [2, 3]])
PROPERTY_PENALTIES = (
    Lasso(), Ridge(), ElasticNet(ratio=0.5), GroupLasso(PART_22),
    SparseGroupLasso(PART_22, alpha=0.5),
    BallIndicator(BallConstraint("l1", 1.0)),
    BallIndicator(BallConstraint("l2", 1.0)),
)


class TestSharedLoop:
    """Outcomes every first-order method gets from the loop they share."""

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("method", FIRST_ORDER)
    def test_overflow_returns_diverged(self, method):
        # U(beta) = 0.5*beta - 1.7e308 is finite, but beta - t*U(beta)
        # overflows inside the prox input
        u = LinearEstimating(0.5 * np.eye(3), np.full(3, 1.7e308))
        prob = EstimatingProblem(u=u, penalty=Lasso(), lam=0.1)
        rep = run_solver(prob, SolverConfig(), np.zeros(3), method)
        assert rep.status is SolverStatus.DIVERGED

    @pytest.mark.parametrize("bad", [np.inf, np.nan], ids=["inf", "nan"])
    @pytest.mark.parametrize("penalty", [
        Lasso(), Ridge(), GroupLasso(PART_22),
        BallIndicator(BallConstraint("box", lower=-np.ones(4),
                                     upper=np.ones(4))),
    ], ids=["lasso", "ridge", "group", "box"])
    @pytest.mark.parametrize("method", FIRST_ORDER)
    def test_u_turning_non_finite_ends_diverged(self, method, penalty, bad):
        # only the start point's U goes through evaluate(); a later
        # non-finite U must still end the run at that iteration, silently,
        # reporting the point U failed at and the iterations before it
        rng = np.random.default_rng(31)
        M = rng.standard_normal((4, 4))
        A, c = M @ M.T / 4 + np.eye(4), rng.standard_normal(4)
        L = float(np.linalg.norm(A, 2))
        seen = []

        def f(beta):
            seen.append(beta.copy())
            return A @ beta - c if len(seen) < 6 else np.full(4, bad)

        cfg = SolverConfig(tol=1e-14)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = run_solver(
                EstimatingProblem(u=CustomEstimating(4, f, lipschitz=L),
                                  penalty=penalty, lam=0.1),
                cfg, np.zeros(4), method)
        clean = run_solver(
            EstimatingProblem(u=LinearEstimating(A, c, lipschitz=L),
                              penalty=penalty, lam=0.1),
            cfg, np.zeros(4), method)
        # gra-adaptive also evaluates U at its second starting point
        k = 6 - (2 if method == "gra-adaptive" else 1)
        assert rep.status is SolverStatus.DIVERGED
        assert rep.iterations == k - 1 and rep.trace == clean.trace[:k - 1]
        assert np.array_equal(rep.solution, seen[5])
        assert np.array_equal(rep.solution, clean.iterates[k])
        assert np.array_equal(rep.iterates, clean.iterates[:k])

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @settings(max_examples=150, deadline=None)
    @given(A=arrays(float, (4, 4), elements=st.floats(-3.0, 3.0)),
           b=arrays(float, 4, elements=st.floats(-1e308, 1e308)),
           lam=st.floats(0.0, 2.0),
           penalty=st.sampled_from(PROPERTY_PENALTIES),
           method=st.sampled_from(tuple(DIRECT)),
           record=st.booleans())
    def test_random_linear_u_ends_in_typed_status(self, A, b, lam, penalty,
                                                  method, record):
        # monotone and non-monotone A alike; A = 0 has no stepsize to derive
        assume(np.abs(A).max() > 1e-3)
        prob = EstimatingProblem(u=LinearEstimating(A, b), penalty=penalty,
                                 lam=lam)
        cfg = SolverConfig(tol=1e-8, max_iter=200, record_iterates=record)
        init = np.full(4, 0.5)
        if method == "lqa-newton" and not isinstance(penalty, Lasso):
            with pytest.raises(UnsupportedPenaltyError):
                run_solver(prob, cfg, init, method)
            return
        rep = run_solver(prob, cfg, init, method)
        # run_solver adds only the projection of the start onto a ball
        if isinstance(penalty, BallIndicator):
            init = project_ball(penalty.ball, init)
        direct = DIRECT[method](prob, cfg, init)
        assert (rep.method, rep.status, rep.iterations, rep.flags) == (
            direct.method, direct.status, direct.iterations, direct.flags)
        assert rep.trace == direct.trace
        assert (rep.initial_residual, rep.stepsize) == (
            direct.initial_residual, direct.stepsize)
        for got, want in ((rep.solution, direct.solution),
                          (rep.iterates, direct.iterates)):
            # a diverged LQA run can end at NaN; the same NaN in both matches
            assert (got is None and want is None) or np.array_equal(
                got, want, equal_nan=True)
        assert isinstance(rep.status, SolverStatus)
        assert len(rep.trace) == rep.iterations
        if not record:
            assert rep.iterates is None
        else:
            assert rep.iterates.shape[0] == rep.iterations + 1


class TestLqaNewton:
    def test_support_stable_lasso_matches_picard(self):
        # all-active instance: strong signals, tiny lambda
        rng = np.random.default_rng(8)
        X = rng.standard_normal((50, 4)) / np.sqrt(50)
        beta_star = np.array([3.0, -2.5, 2.0, 4.0])
        y = X @ beta_star + 0.01 * rng.standard_normal(50)
        u = LeastSquaresEstimating(X, y)
        lam = 0.02 * lambda_max(u)
        prob = EstimatingProblem(u=u, penalty=Lasso(), lam=lam)
        cfg = SolverConfig(tol=1e-12, max_iter=2000, epsilon_lqa=1e-10)
        rep_l = solve_lqa_newton(prob, cfg, np.zeros(4))
        rep_p = solve_picard(prob, SolverConfig(tol=1e-12, max_iter=200000),
                             np.zeros(4))
        assert rep_l.converged and rep_p.converged
        assert np.max(np.abs(rep_l.solution - rep_p.solution)) <= 1e-4

    def test_scad_unbiasedness_beyond_threshold(self):
        # noiseless design: coefficients beyond a*lam match plain least squares
        rng = np.random.default_rng(9)
        X = rng.standard_normal((60, 5)) / np.sqrt(60)
        beta_star = np.array([5.0, -6.0, 4.0, 0.0, 0.0])
        y = X @ beta_star
        u = LeastSquaresEstimating(X, y)
        prob = EstimatingProblem(u=u, penalty=Scad(a=3.7), lam=0.5)
        cfg = SolverConfig(tol=1e-12, max_iter=500, epsilon_lqa=1e-10)
        rep = solve_lqa_newton(prob, cfg, beta_star + 0.1)
        assert rep.converged
        ls = np.linalg.lstsq(X, y, rcond=None)[0]
        np.testing.assert_allclose(rep.solution[:3], ls[:3], atol=1e-4)

    def test_group_penalty_rejected(self):
        X, y, u, lam, prob = group_ls_instance(seed=10)
        with pytest.raises(UnsupportedPenaltyError):
            solve_lqa_newton(prob, SolverConfig(), np.zeros(12))

    def test_jacobian_required(self):
        u = CustomEstimating(2, lambda b: b - 1.0)
        prob = EstimatingProblem(u=u, penalty=Lasso(), lam=0.1)
        with pytest.raises(JacobianUnavailableError):
            solve_lqa_newton(prob, SolverConfig(), np.zeros(2))
        # the finite-difference fallback is an explicit opt-in
        cfg = SolverConfig(allow_fd_jacobian=True, tol=1e-10, max_iter=200)
        rep = solve_lqa_newton(prob, cfg, np.zeros(2))
        assert rep.converged

    def test_p_exceeding_n_flagged(self):
        rng = np.random.default_rng(11)
        X = rng.standard_normal((20, 60)) / np.sqrt(20)
        y = rng.standard_normal(20)
        u = LeastSquaresEstimating(X, y)
        lam = 0.3 * lambda_max(u)
        prob = EstimatingProblem(u=u, penalty=Lasso(), lam=lam)
        rep = solve_lqa_newton(prob, SolverConfig(tol=1e-8, max_iter=200),
                               np.zeros(60))
        assert "cubic-cost-p-exceeds-n" in rep.flags

    def test_truncation_to_exact_zero(self):
        X, y, u, lam, prob = lasso_ls_instance(seed=12)
        cfg = SolverConfig(tol=1e-11, max_iter=500, epsilon_lqa=1e-10,
                           zero_threshold=1e-6)
        rep = solve_lqa_newton(prob, cfg, np.zeros(10))
        assert rep.converged
        assert np.count_nonzero(rep.solution) < 10


class TestConstrained:
    def test_inactive_constraint_recovers_unconstrained_root(self):
        rng = np.random.default_rng(13)
        X = rng.standard_normal((30, 4))
        y = rng.standard_normal(30)
        u = LeastSquaresEstimating(X, y)
        root = np.linalg.lstsq(X, y, rcond=None)[0]
        ball = BallIndicator(BallConstraint("l2", 10.0 * np.linalg.norm(root)))
        prob = EstimatingProblem(u=u, penalty=ball, lam=0.0)
        cfg = SolverConfig(tol=1e-12, max_iter=200000)
        rep = solve_constrained(prob, cfg, np.zeros(4), method="picard")
        assert rep.converged
        np.testing.assert_allclose(rep.solution, root, atol=1e-8)

    def test_zero_radius_singleton(self):
        rng = np.random.default_rng(14)
        X = rng.standard_normal((20, 3))
        y = rng.standard_normal(20)
        u = LeastSquaresEstimating(X, y)
        prob = EstimatingProblem(u=u, penalty=BallIndicator(BallConstraint("l1", 0.0)),
                                 lam=0.0)
        rep = solve_constrained(prob, cfg_fast(), np.ones(3), method="picard")
        assert rep.converged
        np.testing.assert_array_equal(rep.solution, np.zeros(3))

    def test_l1_ball_vi_over_feasible_points(self):
        rng = np.random.default_rng(15)
        X = rng.standard_normal((40, 5)) / np.sqrt(40)
        beta_star = np.array([2.0, -1.0, 0.0, 0.0, 0.0])
        y = X @ beta_star + 0.05 * rng.standard_normal(40)
        u = LeastSquaresEstimating(X, y)
        prob = EstimatingProblem(u=u, penalty=BallIndicator(BallConstraint("l1", 1.0)),
                                 lam=0.0)
        cfg = SolverConfig(tol=1e-12, max_iter=200000)
        rep = solve_constrained(prob, cfg, np.zeros(5), method="km")
        assert rep.converged
        probe = vi_probe(prob, rep.solution, 1000, 2.0, 3)
        assert probe.passed

    def test_active_l2_constraint_lands_on_sphere(self):
        rng = np.random.default_rng(16)
        X = rng.standard_normal((30, 4))
        y = rng.standard_normal(30)
        u = LeastSquaresEstimating(X, y)
        root = np.linalg.lstsq(X, y, rcond=None)[0]
        r = 0.5 * np.linalg.norm(root)
        prob = EstimatingProblem(u=u, penalty=BallIndicator(BallConstraint("l2", r)),
                                 lam=0.0)
        cfg = SolverConfig(tol=1e-12, max_iter=200000)
        rep = solve_constrained(prob, cfg, np.zeros(4), method="picard")
        assert rep.converged
        assert np.linalg.norm(rep.solution) == pytest.approx(r, abs=1e-8)

    def test_requires_ball_penalty(self):
        X, y, u, lam, prob = lasso_ls_instance(seed=17)
        with pytest.raises(UnsupportedPenaltyError):
            solve_constrained(prob, SolverConfig(), np.zeros(10), "picard")

    def test_lambda_plays_no_role(self):
        rng = np.random.default_rng(18)
        X = rng.standard_normal((30, 4))
        u = LeastSquaresEstimating(X, rng.standard_normal(30))
        ball = BallIndicator(BallConstraint("l1", 0.5))
        cfg = SolverConfig(tol=1e-10, max_iter=500)
        start = 3.0 * np.ones(4)
        a, b = (run_solver(EstimatingProblem(u=u, penalty=ball, lam=lam),
                           cfg, start, "km") for lam in (0.0, 0.7))
        assert (a.status, a.iterations, a.trace, a.initial_residual,
                a.stepsize, a.flags) == (b.status, b.iterations, b.trace,
                                         b.initial_residual, b.stepsize,
                                         b.flags)
        np.testing.assert_array_equal(a.solution, b.solution)
        np.testing.assert_array_equal(a.iterates, b.iterates)

    def test_lqa_rejects_the_ball(self):
        rng = np.random.default_rng(19)
        u = LeastSquaresEstimating(rng.standard_normal((20, 3)),
                                   rng.standard_normal(20))
        prob = EstimatingProblem(
            u=u, penalty=BallIndicator(BallConstraint("l2", 1.0)), lam=0.0)
        with pytest.raises(UnsupportedPenaltyError):
            solve_constrained(prob, SolverConfig(), np.zeros(3), "lqa")

    def test_km_cut_short_stays_feasible(self):
        # averaged iterates mix the start in, so only a projected start
        # keeps a run stopped after three steps inside the ball
        rng = np.random.default_rng(20)
        u = LeastSquaresEstimating(rng.standard_normal((20, 4)),
                                   rng.standard_normal(20))
        prob = EstimatingProblem(
            u=u, penalty=BallIndicator(BallConstraint("l1", 1.0)), lam=0.0)
        rep = run_solver(prob, SolverConfig(tol=1e-12, max_iter=3),
                         10.0 * np.ones(4), "km")
        assert rep.status is SolverStatus.MAX_ITER_REACHED
        assert np.abs(rep.solution).sum() <= 1.0 + 1e-12

    @pytest.mark.parametrize("method", FIRST_ORDER)
    def test_start_outside_the_set_is_projected(self, method):
        rng = np.random.default_rng(21)
        u = LeastSquaresEstimating(rng.standard_normal((30, 4)),
                                   rng.standard_normal(30))
        lower = np.array([-0.5, -1.0, 0.0, -0.2])
        upper = np.array([0.5, 0.0, 1.0, 0.2])
        box = BallConstraint("box", lower=lower, upper=upper)
        cfg = SolverConfig(tol=1e-10, max_iter=100_000)
        start = 10.0 * np.ones(4)
        rep = run_solver(EstimatingProblem(u=u, penalty=BallIndicator(box)),
                         cfg, start, method)
        assert rep.converged
        np.testing.assert_array_equal(rep.iterates[0], np.clip(start, lower,
                                                               upper))
        assert np.all((lower <= rep.solution) & (rep.solution <= upper))
        point = BallIndicator(BallConstraint("l2", 0.0))
        rep = run_solver(EstimatingProblem(u=u, penalty=point), cfg, start,
                         method)
        assert rep.converged
        np.testing.assert_array_equal(rep.solution, np.zeros(4))

    @pytest.mark.parametrize("method", FIRST_ORDER)
    def test_a_pair_of_starts_is_rejected(self, method):
        X, y, u, lam, prob = lasso_ls_instance(seed=22, p=4)
        z = np.zeros(4)
        ball = replace(prob, penalty=BallIndicator(BallConstraint("l2", 1.0)))
        for problem in (prob, ball):
            with pytest.raises(DimensionMismatchError):
                run_solver(problem, SolverConfig(), (z, z.copy()), method)
        with pytest.raises(DimensionMismatchError):
            DIRECT[method](prob, SolverConfig(), (z, z.copy()))


def cfg_fast():
    return SolverConfig(tol=1e-10, max_iter=50000)


class TestPath:
    def test_lambda_max_nulls_solution(self):
        X, y, u, lam, prob = lasso_ls_instance(seed=18)
        lmax = lambda_max(u)
        entries = solve_path(prob, [2 * lmax, lmax], cfg_fast(), method="picard",
                             init=0.1 * np.ones(10))
        for entry in entries:
            assert entry.report.converged
            np.testing.assert_array_equal(entry.report.solution, np.zeros(10))
            assert entry.nonzeros == 0

    def test_single_lambda_equals_direct_solve(self):
        X, y, u, lam, prob = lasso_ls_instance(seed=19)
        cfg = cfg_fast()
        entries = solve_path(prob, [lam], cfg, method="picard")
        direct = solve_picard(
            EstimatingProblem(u=u, penalty=Lasso(), lam=lam), cfg, np.zeros(10))
        np.testing.assert_array_equal(entries[0].report.solution, direct.solution)
        assert entries[0].report.iterations == direct.iterations

    def test_warm_start_saves_iterations(self):
        X, y, u, lam, prob = lasso_ls_instance(seed=20, p=20, n=100)
        lmax = lambda_max(u)
        grid = list(np.geomspace(lmax, lmax / 100, 50))
        cfg = SolverConfig(tol=1e-8, max_iter=200000)
        warm = solve_path(prob, grid, cfg, method="picard", warm_start=True)
        cold = solve_path(prob, grid, cfg, method="picard", warm_start=False)
        warm_total = sum(e.report.iterations for e in warm)
        cold_total = sum(e.report.iterations for e in cold)
        assert warm_total <= cold_total
        for w, c in zip(warm, cold):
            assert np.max(np.abs(w.report.solution - c.report.solution)) <= 1e-6

    def test_grid_must_decrease(self):
        X, y, u, lam, prob = lasso_ls_instance(seed=21)
        with pytest.raises(ValidationError):
            solve_path(prob, [0.1, 0.2], cfg_fast())

    def test_empty_grid_rejected(self):
        X, y, u, lam, prob = lasso_ls_instance(seed=21)
        with pytest.raises(ValidationError, match="empty"):
            solve_path(prob, [], cfg_fast())

    def test_invalid_lambda_recorded_not_raised(self):
        # the problem at lambda -0.1 fails its own validation; the sweep
        # records it and keeps the first lambda's solve
        X, y, u, lam, prob = lasso_ls_instance(seed=21)
        entries = solve_path(prob, [0.5, -0.1], cfg_fast())
        assert [e.lam for e in entries] == [0.5, -0.1]
        assert entries[0].report.converged
        failed = entries[1].report
        assert failed.status is SolverStatus.NUMERICAL_FAILURE
        assert failed.flags == ("error:ValidationError",)
        np.testing.assert_array_equal(failed.solution,
                                      entries[0].report.solution)

    def test_failures_recorded_not_raised(self):
        u = CustomEstimating(2, lambda b: b)  # no Lipschitz, no tau given
        prob = EstimatingProblem(u=u, penalty=Lasso(), lam=0.5)
        entries = solve_path(prob, [0.5, 0.25], SolverConfig(tol=1e-9))
        assert len(entries) == 2
        assert all(e.report.status is SolverStatus.NUMERICAL_FAILURE
                   for e in entries)


def _warm_loop(problem, lambdas, config, method):
    """A warm path as one unscreened run_solver call per lambda."""
    current, reports = np.zeros(problem.u.dim), []
    for lam in lambdas:
        report = run_solver(replace(problem, lam=lam), config, current, method)
        reports.append(report)
        current = report.solution.copy()
    return reports


def _screened_instance(u_kind, pen_kind, seed):
    """A strongly monotone U on 12 coordinates, with its Lipschitz bound L and a function giving a strong-monotonicity modulus
    on the segment between two points."""
    rng = np.random.default_rng(seed)
    n, p = 40, 12
    X = rng.standard_normal((n, p)) / np.sqrt(n)
    truth = np.zeros(p)
    truth[:3] = rng.uniform(1.0, 2.0, 3) * rng.choice([-1.0, 1.0], 3)
    truth[7] = rng.uniform(-1.0, 1.0)
    if u_kind == "least-squares":
        u = LeastSquaresEstimating(X, X @ truth + 0.1 * rng.standard_normal(n))
        mu = np.linalg.eigvalsh(X.T @ X).min()
        modulus = lambda a, b: mu  # noqa: E731
    elif u_kind == "logistic":
        X = 2.0 * X
        y = (rng.uniform(size=n) < 1.0 / (1.0 + np.exp(-X @ truth))).astype(float)
        u = LogisticEstimating(X, y, lipschitz=np.linalg.norm(X, 2) ** 2 / 4.0)

        def modulus(a, b):
            # the score's Jacobian X^T W X has weights s'(x_i beta) >= s'(t_i)
            # on the segment, t_i the larger end of |x_i beta| plus a margin
            t = np.maximum(np.abs(X @ a), np.abs(X @ b)) + 1e-6
            w = np.exp(-t) / (1.0 + np.exp(-t)) ** 2
            return np.linalg.eigvalsh(X.T @ (w[:, None] * X)).min()
    else:
        # identity, a skew part and one coupling U_9 += c*beta_0 with
        # 1 < |c| < 2: monotone, not any objective's gradient, and U_9 grows
        # faster than lambda falls, which the strong rule does not expect,
        # so some paths re-admit coordinate 9
        K = rng.standard_normal((p, p))
        A = np.eye(p) + 0.3 * (K - K.T) / np.linalg.norm(K - K.T, 2)
        A[9, 0] += rng.uniform(1.3, 1.9) * rng.choice([-1.0, 1.0])
        b = A @ truth + 0.1 * rng.standard_normal(p)
        b[9] = 0.1 * rng.standard_normal()
        u = LinearEstimating(A, b)
        mu = np.linalg.eigvalsh(0.5 * (A + A.T)).min()
        modulus = lambda a, b: mu  # noqa: E731
    penalty = {"lasso": Lasso(), "elastic-net": ElasticNet(0.3)}[pen_kind]
    return EstimatingProblem(u=u, penalty=penalty), u.lipschitz, modulus


def _inactive_kkt(problem, beta):
    """Largest inactive-test violation over the coordinates that are zero in
    ``beta`` (the lasso's and the elastic net's inactive tests agree)."""
    rep = kkt_residual(replace(problem, penalty=Lasso()), beta)
    return float(rep.coordinate[beta == 0.0].max(initial=0.0))


class TestScreenedPath:
    @settings(max_examples=60, deadline=None)
    @given(u_kind=st.sampled_from(["least-squares", "logistic", "linear"]),
           pen_kind=st.sampled_from(["lasso", "elastic-net"]),
           method=st.sampled_from(["picard", "km", "gra-fixed",
                                   "gra-adaptive"]),
           seed=st.integers(0, 2**31), points=st.sampled_from([4, 7, 12]),
           floor=st.sampled_from([0.02, 0.1]))
    def test_screened_path_solves_the_full_problem(
            self, u_kind, pen_kind, method, seed, points, floor):
        problem, L, modulus = _screened_instance(u_kind, pen_kind, seed)
        lmax = lambda_max(problem.u)
        grid = list(lmax * np.geomspace(1.0, floor, points))
        tol = 1e-8
        config = SolverConfig(tol=tol, max_iter=50_000, record_iterates=False)
        screened = solve_path(problem, grid, config, method=method)
        reference = _warm_loop(problem, grid, config, method)
        for entry, ref in zip(screened, reference):
            rep, full = entry.report, replace(problem, lam=entry.lam)
            assert rep.status is ref.status is SolverStatus.CONVERGED
            assert rep.solution.shape == (problem.u.dim,)
            tau = rep.stepsize
            assert fixed_point_residual(full, rep.solution, tau) <= tol
            assert _inactive_kkt(full, rep.solution) <= tol / tau
            # both points are within tol of a prox image whose distance to
            # the solution the strong monotonicity bounds
            mu = modulus(rep.solution, ref.solution)
            bound = 2 * tol + tol * (1 / tau + 1 / ref.stepsize + 2 * L) / mu
            assert np.linalg.norm(rep.solution - ref.solution) <= bound
        assert not screened[0].report.flags
        assert all(e.report.flags[-1].startswith("screened:")
                   for e in screened[1:])

    def test_a_set_that_keeps_every_coordinate_is_the_full_problem(self):
        # lambda falls by more than half, so the strong rule keeps every
        # coordinate and the one round is the unscreened solve
        X, y, u, lam, prob = lasso_ls_instance(seed=26, n=50, p=8)
        grid = [lambda_max(u), lambda_max(u) / 3]
        config = SolverConfig(tol=1e-9)
        first, second = solve_path(prob, grid, config, method="picard")
        ref = run_solver(replace(prob, lam=grid[1]), config,
                         first.report.solution, "picard")
        rep = second.report
        assert rep.flags == ("screened:8/8",)
        np.testing.assert_array_equal(rep.solution, ref.solution)
        assert rep.trace == ref.trace and rep.stepsize == ref.stepsize

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("u_kind", ["least-squares", "logistic", "linear"])
    def test_screened_lqa_lasso_path_matches_the_unscreened_one(self, u_kind,
                                                                seed):
        # LQA truncates coordinates below zero_threshold to zero; screening
        # drops those and the full-U test checks them. Its zeros are
        # approximate and its first lambda ends at max_iter, so the
        # solutions are compared through their lasso fixed-point residuals R
        # at tau = 1/L: each is within R*(1 + (1/tau + L)/mu) of the lasso
        # solution.
        problem, L, modulus = _screened_instance(u_kind, "lasso", seed)
        grid = list(lambda_max(problem.u) * np.geomspace(1.0, 0.02, 7))
        config = SolverConfig(tol=1e-8, max_iter=2000)
        screened = solve_path(problem, grid, config, method="lqa-newton")
        reference = _warm_loop(problem, grid, config, "lqa-newton")
        for entry, ref in zip(screened, reference):
            rep, full = entry.report, replace(problem, lam=entry.lam)
            assert rep.status is ref.status
            assert rep.iterations == len(rep.trace)
            assert _inactive_kkt(full, rep.solution) <= config.tol
            r_s = fixed_point_residual(full, rep.solution, 1.0 / L)
            r_r = fixed_point_residual(full, ref.solution, 1.0 / L)
            bound = (r_s + r_r) * (1.0 + 2.0 * L / modulus(rep.solution,
                                                            ref.solution))
            assert np.linalg.norm(rep.solution - ref.solution) <= bound
        assert all(e.report.flags[-1].startswith("screened:")
                   for e in screened[1:])

    def test_lqa_cubic_cost_flag_follows_the_kept_set(self):
        # the flag marks a solve whose design has more columns than rows;
        # a screened lambda solves on the kept columns only
        X, y, u, lam, prob = lasso_ls_instance(seed=25, n=20, p=40, k=3)
        grid = list(np.geomspace(lambda_max(u), lambda_max(u) / 20, 10))
        entries = solve_path(prob, grid, SolverConfig(tol=1e-8, max_iter=500),
                             method="lqa-newton")
        assert entries[0].report.flags == ("cubic-cost-p-exceeds-n",)
        wide = []
        for entry in entries[1:]:
            *rest, screened = entry.report.flags
            kept = int(screened.split(":")[1].split("/")[0])
            assert screened.endswith("/40") and kept < 40
            wide.append(kept > 20)
            assert rest == (["cubic-cost-p-exceeds-n"] if wide[-1] else [])
        assert any(wide) and not all(wide)

    @staticmethod
    def _coupled_instance():
        # U_1 = -1.8 beta_0 - 0.79: coordinate 1 looks inactive at the first
        # lambda (|U_1(0)| = 0.79 < 2*0.9 - 1), yet once coordinate 0 moves
        # it violates its test (|U_1| = 0.97 > 0.9). A is monotone, and is
        # not any objective's gradient.
        A = np.array([[1.0, 0.0], [-1.8, 1.0]])
        u = LinearEstimating(A, np.array([1.0, 0.79]))
        return EstimatingProblem(u=u, penalty=Lasso()), [1.0, 0.9]

    @pytest.mark.parametrize("method", FIRST_ORDER)
    def test_readmission_fires_and_resolves(self, method):
        problem, grid = self._coupled_instance()
        config = SolverConfig(tol=1e-10, max_iter=100_000)
        first, second = solve_path(problem, grid, config, method=method)
        assert first.report.iterations == 0
        report = second.report
        assert report.converged
        assert report.flags == ("screened:2/2",)
        # the rounds by hand: coordinate 0 alone, then both, warm
        sub = replace(problem, lam=grid[1])
        alone = run_solver(
            EstimatingProblem(problem.u.restrict(np.array([0])), Lasso(), grid[1]),
            config, np.zeros(1), method)
        assert abs(problem.u(np.r_[alone.solution, 0.0])[1]) > grid[1]
        both = run_solver(sub, config, np.r_[alone.solution, 0.0], method)
        assert report.iterations == alone.iterations + both.iterations
        assert both.iterations > 0
        np.testing.assert_array_equal(report.solution, both.solution)
        assert report.stepsize == both.stepsize
        assert fixed_point_residual(sub, report.solution, report.stepsize) <= 1e-10

    def test_readmission_shares_the_iteration_budget(self):
        problem, grid = self._coupled_instance()
        report = solve_path(problem, grid, SolverConfig(tol=1e-10, max_iter=8),
                            method="picard")[1].report
        assert report.iterations <= 8
        assert report.status is SolverStatus.MAX_ITER_REACHED

    def test_iterates_are_scattered_to_p_columns(self):
        X, y, u, lam, prob = lasso_ls_instance(seed=22, n=60, p=30, k=3)
        grid = list(np.geomspace(lambda_max(u), lambda_max(u) / 20, 5))
        entries = solve_path(prob, grid, SolverConfig(tol=1e-9), method="picard")
        problem, grid2 = self._coupled_instance()
        entries = entries[1:] + solve_path(
            problem, grid2, SolverConfig(tol=1e-10), method="picard")[1:]
        for entry in entries:
            rep = entry.report
            assert rep.flags[-1].startswith("screened:")
            p = rep.solution.size
            assert rep.iterates.shape == (rep.iterations + 1, p)
            np.testing.assert_array_equal(rep.iterates[-1], rep.solution)
        # the re-admitted run: rows of the first round hold zero in the
        # column it discarded, later rows fill it
        rows = entries[-1].report.iterates
        assert np.any(rows[:, 1] == 0.0) and rows[-1, 1] != 0.0
        # a screened lasso run never touches coordinates it did not keep
        kept = int(entries[0].report.flags[-1].split(":")[1].split("/")[0])
        assert np.count_nonzero(np.any(entries[0].report.iterates, axis=0)) <= kept

    @pytest.mark.parametrize("case", ["custom-u", "ridge", "cold",
                                      "group-lasso", "sparse-group-lasso",
                                      "ball"])
    def test_unscreened_paths_are_bit_identical(self, case):
        X, y, u, lam, prob = lasso_ls_instance(seed=23, n=50, p=8)
        warm = True
        if case == "custom-u":
            prob = replace(prob, u=CustomEstimating(
                8, lambda b: X.T @ (X @ b - y), lipschitz=u.lipschitz))
        elif case == "ridge":
            prob = replace(prob, penalty=Ridge())
        elif case == "cold":
            warm = False
        elif case == "group-lasso":
            prob = replace(prob, penalty=GroupLasso(
                GroupPartition([[0, 1, 2], [3, 4], [5, 6, 7]])))
        elif case == "sparse-group-lasso":
            prob = replace(prob, penalty=SparseGroupLasso(
                GroupPartition([[0, 1, 2, 3], [4, 5, 6, 7]]), 0.4))
        else:
            prob = replace(prob, penalty=BallIndicator(BallConstraint("l1", 1.0)))
        grid = list(np.geomspace(lambda_max(u), lambda_max(u) / 50, 6))
        config = SolverConfig(tol=1e-9)
        entries = solve_path(prob, grid, config, method="km", warm_start=warm)
        current = np.zeros(8)
        for entry, lam in zip(entries, grid):
            ref = run_solver(replace(prob, lam=lam), config, current, "km")
            if warm:
                current = ref.solution
            rep = entry.report
            np.testing.assert_array_equal(rep.solution, ref.solution)
            np.testing.assert_array_equal(rep.iterates, ref.iterates)
            assert rep.trace == ref.trace and rep.flags == ref.flags == ()
            assert rep.stepsize == ref.stepsize

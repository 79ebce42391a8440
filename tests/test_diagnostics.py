import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import lasso_ls_instance

from reesolve import diagnostics
from reesolve import (
    BallConstraint,
    BallIndicator,
    ElasticNet,
    EstimatingProblem,
    GeometricEnvelope,
    GroupLasso,
    GroupPartition,
    InstanceTooLargeError,
    InverseKEnvelope,
    IterationRecord,
    KmRateEnvelope,
    Lasso,
    LeastSquaresEstimating,
    LinearEstimating,
    MissingTraceFieldsError,
    Ridge,
    Scad,
    SolverConfig,
    SolverReport,
    SolverStatus,
    SparseGroupLasso,
    UnsupportedPenaltyError,
    ValidationError,
    evaluate,
    fixed_point_residual,
    kkt_residual,
    lambda_max,
    oracle_grid_prox,
    oracle_lasso_cd,
    penalty_value,
    project_ball,
    prox,
    rate_envelope_check,
    solve_km,
    solve_picard,
    vi_gap,
    vi_probe,
)


class TestFixedPointResidual:
    def test_zero_at_oracle_solution(self):
        X, y, u, lam, prob = lasso_ls_instance(seed=0)
        beta = oracle_lasso_cd(X, y, lam, tol=1e-15)
        assert fixed_point_residual(prob, beta, 1.0 / u.lipschitz) <= 1e-8

    def test_unpenalized_root(self):
        u = LinearEstimating(np.eye(2), np.array([1.0, -1.0]))
        prob = EstimatingProblem(u=u, penalty=Lasso(), lam=0.0)
        assert fixed_point_residual(prob, [1.0, -1.0], 0.7) == 0.0

    def test_positive_away_from_solution(self):
        X, y, u, lam, prob = lasso_ls_instance(seed=1)
        assert fixed_point_residual(prob, np.ones(10), 0.5) > 1e-3

    def test_ball_problem_uses_projected_map(self):
        # the constrained form ignores lambda: the residual must certify
        # P_C(beta - tau U(beta)) = beta even when problem.lam == 0
        from reesolve import BallConstraint, BallIndicator, SolverConfig, solve_constrained
        rng = np.random.default_rng(33)
        X = rng.standard_normal((30, 4))
        y = rng.standard_normal(30)
        u = LeastSquaresEstimating(X, y)
        root = np.linalg.lstsq(X, y, rcond=None)[0]
        pen = BallIndicator(BallConstraint("l2", 0.5 * np.linalg.norm(root)))
        prob = EstimatingProblem(u=u, penalty=pen, lam=0.0)
        rep = solve_constrained(prob, SolverConfig(tol=1e-11, max_iter=200000),
                                np.zeros(4), method="picard")
        assert rep.converged
        assert fixed_point_residual(prob, rep.solution, rep.stepsize) <= 1e-10


class TestKktResidual:
    def test_zero_vector_at_lambda_max(self):
        X, y, u, lam, prob = lasso_ls_instance(seed=2)
        strong = EstimatingProblem(u=u, penalty=Lasso(), lam=lambda_max(u))
        rep = kkt_residual(strong, np.zeros(10))
        assert rep.max_residual == 0.0

    def test_oracle_solution_certified(self):
        X, y, u, lam, prob = lasso_ls_instance(seed=3)
        beta = oracle_lasso_cd(X, y, lam, tol=1e-15)
        assert kkt_residual(prob, beta).max_residual <= 1e-8

    def test_perturbation_shows_up_at_that_coordinate(self):
        X, y, u, lam, prob = lasso_ls_instance(seed=4)
        beta = oracle_lasso_cd(X, y, lam, tol=1e-15)
        active = np.nonzero(beta)[0][0]
        beta_bad = beta.copy()
        beta_bad[active] += 0.1
        rep = kkt_residual(prob, beta_bad)
        assert rep.coordinate[active] > 1e-3

    def test_group_conditions(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((60, 6)) / np.sqrt(60)
        beta_star = np.array([2.0, 1.5, 1.0, 0.0, 0.0, 0.0])
        y = X @ beta_star + 0.02 * rng.standard_normal(60)
        u = LeastSquaresEstimating(X, y)
        part = GroupPartition([[0, 1, 2], [3, 4, 5]])
        lam = 0.3 * lambda_max(u)
        prob = EstimatingProblem(u=u, penalty=GroupLasso(part), lam=lam)
        rep = solve_picard(prob, SolverConfig(tol=1e-12, max_iter=200000),
                           np.zeros(6))
        assert rep.converged
        kkt = kkt_residual(prob, rep.solution)
        assert kkt.group.shape == (2,)
        assert kkt.max_residual <= 1e-9

    def test_sparse_group_conditions(self):
        rng = np.random.default_rng(6)
        X = rng.standard_normal((60, 6)) / np.sqrt(60)
        beta_star = np.array([2.0, 0.0, 1.0, 0.0, 0.0, 0.0])
        y = X @ beta_star + 0.02 * rng.standard_normal(60)
        u = LeastSquaresEstimating(X, y)
        part = GroupPartition([[0, 1, 2], [3, 4, 5]])
        pen = SparseGroupLasso(part, alpha=0.5)
        lam = 0.3 * lambda_max(u)
        prob = EstimatingProblem(u=u, penalty=pen, lam=lam)
        rep = solve_picard(prob, SolverConfig(tol=1e-12, max_iter=200000),
                           np.zeros(6))
        assert rep.converged
        assert kkt_residual(prob, rep.solution).max_residual <= 1e-9

    def test_ridge_unsupported(self):
        X, y, u, lam, _ = lasso_ls_instance(seed=7)
        prob = EstimatingProblem(u=u, penalty=Ridge(), lam=lam)
        with pytest.raises(UnsupportedPenaltyError):
            kkt_residual(prob, np.zeros(10))

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           kind=st.sampled_from(["lasso", "group", "sparse-group"]),
           p=st.integers(1, 12), scale=st.floats(1e-6, 1e3),
           tau=st.floats(1e-3, 1e2))
    def test_kkt_at_lambda_zero_is_at_most_fixed_point_over_tau(
            self, seed, kind, p, scale, tau):
        # the prox at lambda 0 is the identity, so the fixed-point residual
        # is tau*||U||_2 and KKT is ||U||_inf; the slack covers the rounding
        # of beta - tau*U and of the two norms
        rng = np.random.default_rng(seed)
        u = LinearEstimating(rng.standard_normal((p, p)),
                             rng.standard_normal(p))
        beta = scale * rng.standard_normal(p)
        groups = np.array_split(rng.permutation(p), rng.integers(1, p + 1))
        part = GroupPartition(groups,
                              weights=rng.uniform(0.1, 10.0, len(groups)))
        penalty = {"lasso": Lasso(), "group": GroupLasso(part),
                   "sparse-group": SparseGroupLasso(part, 0.4)}[kind]
        prob = EstimatingProblem(u=u, penalty=penalty, lam=0.0)
        kkt = kkt_residual(prob, beta).max_residual
        fp = fixed_point_residual(prob, beta, tau)
        eps = np.finfo(float).eps
        slack = 4 * eps * (np.linalg.norm(beta) / tau
                           + p * np.linalg.norm(u(beta)))
        assert kkt <= fp / tau + slack


def _loop_group_rows(part, Z):
    """Weighted group norms of each row of Z, one group tuple at a time."""
    weights = part.weights or (1.0,) * len(part.groups)
    out = np.zeros(Z.shape[0])
    for g, w in zip(part.groups, weights):
        out += w * np.sqrt((Z[:, list(g)] ** 2).sum(axis=1))
    return out


class TestOmegaRows:
    @pytest.mark.parametrize("weighted", [False, True])
    def test_group_rows_match_a_per_group_loop(self, weighted):
        rng = np.random.default_rng(31)
        groups = np.split(rng.permutation(23), [5, 6, 13, 16])
        part = GroupPartition(
            groups, weights=rng.uniform(0.5, 2.0, 5) if weighted else None)
        Z = rng.standard_normal((40, 23))
        grp = _loop_group_rows(part, Z)
        assert np.array_equal(
            diagnostics._omega_rows(GroupLasso(part), Z), grp)
        sgl = (1.0 - 0.3) * grp + 0.3 * np.abs(Z).sum(axis=1)
        assert np.array_equal(
            diagnostics._omega_rows(SparseGroupLasso(part, 0.3), Z), sgl)


class TestViProbe:
    def test_unpenalized_root_gives_exact_zeros(self):
        u = LinearEstimating(np.eye(3), np.array([1.0, 2.0, -1.0]))
        prob = EstimatingProblem(u=u, penalty=Lasso(), lam=0.0)
        probe = vi_probe(prob, [1.0, 2.0, -1.0], samples=500, radius=2.0, seed=0)
        assert probe.passed
        assert abs(probe.worst_value) <= 1e-12

    def test_oracle_solution_passes(self):
        X, y, u, lam, prob = lasso_ls_instance(seed=8)
        beta = oracle_lasso_cd(X, y, lam, tol=1e-15)
        probe = vi_probe(prob, beta, samples=10000, radius=1.0, seed=1)
        assert probe.passed
        assert probe.worst_value >= -1e-8

    def test_non_solution_reports_violation(self):
        X, y, u, lam, prob = lasso_ls_instance(seed=9)
        beta = oracle_lasso_cd(X, y, lam, tol=1e-15)
        probe = vi_probe(prob, beta + 0.5, samples=5000, radius=1.0, seed=2)
        assert not probe.passed
        assert probe.worst_value < 0
        assert probe.worst_point is not None

    def test_deterministic_given_seed(self):
        X, y, u, lam, prob = lasso_ls_instance(seed=10)
        a = vi_probe(prob, np.zeros(10), 100, 1.0, seed=7)
        b = vi_probe(prob, np.zeros(10), 100, 1.0, seed=7)
        assert a.worst_value == b.worst_value

    @pytest.mark.parametrize("samples, radius, seed, message", [
        (0, 1.0, 0, "samples must be >= 1"),
        (2.0, 1.0, 0, "samples must be >= 1"),
        (10, 0.0, 0, "radius must be positive"),
        (10, math.nan, 0, "radius must be positive"),
        (10, math.inf, 0, "radius must be positive and finite"),
        (10, 1.0, -1, "seed must be a non-negative integer"),
        (10, 1.0, 1.5, "seed must be a non-negative integer"),
    ], ids=["samples-0", "samples-float", "radius-0", "radius-nan",
            "radius-inf", "seed-negative", "seed-float"])
    def test_bad_settings_are_rejected(self, samples, radius, seed, message):
        X, y, u, lam, prob = lasso_ls_instance(seed=10)
        with pytest.raises(ValidationError, match=message):
            vi_probe(prob, np.zeros(10), samples, radius, seed)

    @pytest.mark.parametrize("penalty", [
        Lasso(), GroupLasso(GroupPartition([[0, 1, 2, 3, 4], [5, 6, 7, 8, 9]])),
    ], ids=["lasso", "group-lasso"])
    def test_overflowing_probe_fails_without_warnings(self, penalty):
        # a finite radius whose points overflow: the values read nan, and
        # the suite's warnings-as-errors setting catches any warning
        X, y, u, lam, prob = lasso_ls_instance(seed=10)
        prob = EstimatingProblem(u=u, penalty=penalty, lam=lam)
        probe = vi_probe(prob, np.zeros(10), 100, 1e308, seed=0)
        assert not probe.passed
        assert math.isnan(probe.worst_value)


def _probe_reference(problem, beta_hat, samples, radius, seed, tol=1e-8):
    """vi_probe as it was before its draw was cached and its points blocked:
    a fresh draw per call and one pass over the whole matrix."""
    beta_hat = np.asarray(beta_hat, dtype=float)
    p = beta_hat.size
    rng = np.random.default_rng(seed)
    dirs = rng.standard_normal((samples, p))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    radii = radius * rng.uniform(size=samples) ** (1.0 / p)
    B = beta_hat + radii[:, None] * dirs
    u_hat = evaluate(problem.u, beta_hat)
    pen = problem.penalty
    if isinstance(pen, BallIndicator):
        if not math.isfinite(penalty_value(pen, beta_hat)):
            return False, -math.inf, None
        B = np.vstack([project_ball(pen.ball, row) for row in B])
        values = (B - beta_hat) @ u_hat
    else:
        values = (B - beta_hat) @ u_hat
        if problem.lam > 0.0:
            omega_hat = diagnostics._omega_rows(pen, beta_hat[None, :])[0]
            values = values + problem.lam * (
                diagnostics._omega_rows(pen, B) - omega_hat)
    i = int(np.argmin(values))
    return float(values[i]) >= -tol, float(values[i]), B[i].copy()


def _assert_same_probe(result, reference):
    passed, worst, point = reference
    assert result.passed == passed
    assert result.worst_value == worst
    if point is None:
        assert result.worst_point is None
    else:
        assert np.array_equal(result.worst_point, point)


@st.composite
def _probe_problems(draw):
    p = draw(st.integers(1, 40))
    kind = draw(st.sampled_from(["lasso", "group_lasso", "l2_ball"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    M = rng.standard_normal((p, p))
    u = LinearEstimating(M @ M.T / p + np.eye(p), rng.standard_normal(p))
    if kind == "lasso":
        penalty = Lasso()
    elif kind == "group_lasso":
        cuts = sorted(set(rng.integers(1, p, size=p // 3))) if p > 1 else []
        penalty = GroupLasso(GroupPartition(
            [g.tolist() for g in np.split(rng.permutation(p), cuts)]))
    else:
        penalty = BallIndicator(BallConstraint("l2", radius=1.0))
    lam = draw(st.just(0.0) | st.floats(0.01, 2.0))
    # scale 2 puts some ball candidates outside the ball
    beta_hat = rng.standard_normal(p) * draw(st.sampled_from([0.1, 2.0]))
    return EstimatingProblem(u=u, penalty=penalty, lam=lam), beta_hat


# (samples, radius, seed), in vi_probe's argument order
_probe_args = st.tuples(st.integers(1, 300), st.floats(1e-3, 10.0),
                        st.integers(0, 2**64 - 1))


class TestViProbeCachedDraw:
    @settings(max_examples=100, deadline=None)
    @given(case=_probe_problems(), first=_probe_args, second=_probe_args)
    def test_matches_fresh_draw_bit_for_bit(self, case, first, second):
        problem, beta_hat = case
        # first, first again (a hit), second (a miss unless equal), first
        # again (a miss once second evicted it)
        for args in (first, first, second, first):
            _assert_same_probe(vi_probe(problem, beta_hat, *args),
                               _probe_reference(problem, beta_hat, *args))

    @pytest.mark.parametrize("kind", ["lasso", "group_lasso"])
    def test_row_blocks_match_whole_matrix_bit_for_bit(self, kind):
        # at p=400 a block holds 327 rows: these counts give one short
        # block, one full block, a one-row remainder joined to the block
        # before it, three blocks, and four with a 19-row tail
        p = 400
        rows = max(2, diagnostics._BLOCK_ELEMENTS // p)
        rng = np.random.default_rng(21)
        M = rng.standard_normal((p, p))
        u = LinearEstimating(M @ M.T / p + np.eye(p), rng.standard_normal(p))
        penalty = (Lasso() if kind == "lasso" else GroupLasso(GroupPartition(
            [list(range(i, i + 5)) for i in range(0, p, 5)])))
        prob = EstimatingProblem(u=u, penalty=penalty, lam=0.3)
        beta_hat = 0.1 * rng.standard_normal(p)
        for samples in (rows - 1, rows, rows + 1, 2 * rows + 1, 1000):
            _assert_same_probe(
                vi_probe(prob, beta_hat, samples, 1.0, seed=samples),
                _probe_reference(prob, beta_hat, samples, 1.0, samples))

    @given(samples=st.integers(1, 2000), p=st.integers(1, 2 ** 18))
    def test_row_blocks_tile_the_samples(self, samples, p):
        blocks = list(diagnostics._row_blocks(samples, p))
        assert blocks[0][0] == 0 and blocks[-1][1] == samples
        assert all(a[1] == b[0] for a, b in zip(blocks, blocks[1:]))
        sizes = [stop - start for start, stop in blocks]
        assert min(sizes) >= min(2, samples)
        assert max(sizes) <= max(2, diagnostics._BLOCK_ELEMENTS // p) + 1

    def test_offsets_are_read_only(self):
        offsets = diagnostics._draw_offsets(3, 20, 1.5, 4)
        assert offsets.shape == (20, 4)
        assert not offsets.flags.writeable
        with pytest.raises(ValueError):
            offsets[0, 0] = 0.0
        assert diagnostics._draw_offsets(3, 20, 1.5, 4) is offsets

    def test_mutating_worst_point_leaves_later_probes_alone(self):
        X, y, u, lam, prob = lasso_ls_instance(seed=12)
        beta = np.zeros(10)
        first = vi_probe(prob, beta, 200, 1.0, seed=4)
        first.worst_point[:] = 1e6
        _assert_same_probe(vi_probe(prob, beta, 200, 1.0, seed=4),
                           _probe_reference(prob, beta, 200, 1.0, 4))

    # integer seeds match a fresh draw; any other seed kind is rejected
    @pytest.mark.parametrize("make_seed, integer", [
        (lambda: 5, True), (lambda: np.int64(5), True),
        (lambda: np.uint32(5), True), (lambda: True, True),
        (lambda: [5, 6], False), (lambda: (5, 6), False),
        (lambda: np.array([5, 6]), False),
        (lambda: np.random.SeedSequence(5), False),
    ], ids=["int", "int64", "uint32", "bool", "list", "tuple", "array",
            "seed-sequence"])
    def test_every_seed_kind_matches_fresh_draw(self, make_seed, integer):
        X, y, u, lam, prob = lasso_ls_instance(seed=13)
        beta = np.zeros(10)
        if not integer:
            with pytest.raises(ValidationError, match="seed must be"):
                vi_probe(prob, beta, 50, 1.0, make_seed())
            return
        for _ in range(2):
            result = vi_probe(prob, beta, 50, 1.0, make_seed())
            _assert_same_probe(result, _probe_reference(prob, beta, 50, 1.0,
                                                        make_seed()))
            assert type(result.seed) is int and result.seed == make_seed()

    def test_generator_seed_is_rejected(self):
        X, y, u, lam, prob = lasso_ls_instance(seed=14)
        with pytest.raises(ValidationError, match="seed must be"):
            vi_probe(prob, np.zeros(10), 50, 1.0, np.random.default_rng(9))


def _phi(problem, beta_hat, x):
    """The VI function at ``beta_hat`` evaluated at ``x``."""
    beta_hat = np.asarray(beta_hat, dtype=float)
    value = float(evaluate(problem.u, beta_hat) @ (x - beta_hat))
    if not isinstance(problem.penalty, BallIndicator):
        value += problem.lam * (penalty_value(problem.penalty, x)
                                - penalty_value(problem.penalty, beta_hat))
    return value


_BOX = BallConstraint("box", lower=-np.ones(30), upper=np.ones(30))


class TestViGap:
    def test_one_coordinate_by_hand(self):
        # phi(x) = 3(x - 1) + |x| - 1 on [-1, 3] is least at x = -1, where
        # it is -6; dist(-3, d|1|) = 4 gives the bound -8
        u = LinearEstimating(np.zeros((1, 1)), np.array([-3.0]))
        prob = EstimatingProblem(u=u, penalty=Lasso(), lam=1.0)
        gap = vi_gap(prob, [1.0], 2.0, tol=0.0)
        assert gap.value == pytest.approx(-6.0, rel=1e-14)
        assert gap.witness == pytest.approx([-1.0], rel=1e-14)
        assert gap.lower == -8.0
        assert not gap.passed

    def test_value_stays_finite_when_u_is_near_the_float_range(self):
        # U(bh) is about (1e200, 1e200): the step toward -U(bh) would
        # overflow if squared; the witness is bh - (1, 1)/sqrt(2)
        u = LinearEstimating(1e200 * np.eye(2), np.ones(2))
        prob = EstimatingProblem(u=u, penalty=Lasso(), lam=0.0)
        bh = np.array([1.0, 1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            gap = vi_gap(prob, bh, 1.0)
        assert gap.value == pytest.approx(-np.sqrt(2.0) * 1e200, rel=1e-14)
        assert np.linalg.norm(gap.witness - bh) == pytest.approx(1.0,
                                                                 rel=1e-14)
        assert not gap.passed

    def test_lower_stays_finite_when_u_is_near_the_float_range(self):
        # ||U(bh)|| = sqrt(2)*1e200 overflows when squared; the distance is
        # recomputed scaled, so lower = -R*||U(bh)|| is finite
        u = LinearEstimating(1e200 * np.eye(2), np.ones(2))
        prob = EstimatingProblem(u=u, penalty=Lasso(), lam=0.0)
        bh = np.array([1.0, 1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            gap = vi_gap(prob, bh, 1.0)
        assert math.isfinite(gap.lower) and gap.lower <= gap.value
        assert gap.lower == pytest.approx(-np.sqrt(2.0) * 1e200, rel=1e-14)
        assert not gap.passed

    def test_zero_solution_reads_exactly_zero(self):
        X, y, u, lam, prob = lasso_ls_instance(seed=15)
        above = EstimatingProblem(u=u, penalty=Lasso(), lam=2 * lambda_max(u))
        gap = vi_gap(above, np.zeros(10), 1.0)
        assert gap.value == 0.0 and gap.lower == 0.0 and gap.passed
        assert np.array_equal(gap.witness, np.zeros(10))

    def test_oracle_solution_passes_and_a_moved_one_reads_lower(self):
        X, y, u, lam, prob = lasso_ls_instance(seed=8)
        beta = oracle_lasso_cd(X, y, lam, tol=1e-15)
        gap = vi_gap(prob, beta, 1.0)
        assert gap.passed and gap.lower <= gap.value + 1e-14
        assert gap.value <= 1e-14
        moved = beta + 0.5
        bad = vi_gap(prob, moved, 1.0, tol=1e-8)
        assert not bad.passed
        assert bad.value == pytest.approx(_phi(prob, moved, bad.witness),
                                          abs=1e-12)

    @pytest.mark.parametrize("penalty", [
        Lasso(), Ridge(), ElasticNet(ratio=0.7), BallIndicator(_BOX),
    ], ids=["lasso", "ridge", "elastic-net", "box"])
    @pytest.mark.parametrize("radius", [0.05, 1.0, 50.0])
    def test_kinked_witness_agrees_with_the_search(self, penalty, radius):
        # the breakpoint solution against the regula falsi that serves the
        # other penalties, on the same prox path
        rng = np.random.default_rng(16)
        M = rng.standard_normal((30, 30))
        u = LinearEstimating(M @ M.T / 30, rng.standard_normal(30))
        prob = EstimatingProblem(u=u, penalty=penalty, lam=0.4)
        beta = np.where(rng.uniform(size=30) < 0.5, 0.0,
                        rng.uniform(-0.9, 0.9, size=30))
        gap = vi_gap(prob, beta, radius)
        u_hat = u(beta)

        def point(t):
            return diagnostics._prox(penalty, beta - t * u_hat, t * 0.4)

        searched = diagnostics._searched_witness(
            point, beta, radius, np.linalg.norm(u_hat))
        assert gap.value == pytest.approx(_phi(prob, beta, searched),
                                          rel=1e-9, abs=1e-12)
        assert np.linalg.norm(gap.witness - beta) <= radius * (1 + 1e-12)

    def test_searched_witness_reaches_the_sphere(self):
        # a km solution of a group lasso to tol 1e-6: its prox path x(t)
        # moves slowly, like t times the KKT violation, and the witness
        # still lies on the sphere, below the value where a search capped
        # at ||t*U|| = 2**16*(||bh|| + R) stopped
        rng = np.random.default_rng([0, 2, 0])
        X = rng.standard_normal((40, 20)) / math.sqrt(40)
        truth = np.zeros(20)
        g = rng.choice(4)
        truth[5 * g:5 * g + 5] = rng.standard_normal(5)
        u = LeastSquaresEstimating(X, X @ truth + 0.1 * rng.standard_normal(40))
        u0 = u(np.zeros(20))
        lam = 0.25 * max(np.linalg.norm(u0[i:i + 5]) for i in range(0, 20, 5))
        part = GroupPartition([range(i, i + 5) for i in range(0, 20, 5)])
        prob = EstimatingProblem(u=u, penalty=GroupLasso(part), lam=lam)
        beta = solve_km(prob, SolverConfig(tol=1e-6), np.zeros(20)).solution
        gap = vi_gap(prob, beta, 1.0)
        assert np.linalg.norm(gap.witness - beta) == pytest.approx(1.0,
                                                                   abs=1e-9)
        u_hat = u(beta)
        t = 2.0 ** 16 * (np.linalg.norm(beta) + 1.0) / np.linalg.norm(u_hat)
        capped = prox(prob.penalty, beta - t * u_hat, t * lam)
        assert gap.lower <= gap.value < _phi(prob, beta, capped)

    def test_search_passes_a_stretch_at_zero(self):
        # a one-coordinate group lasso with U = 1.5, lam = 1, bh = 0.5:
        # x(t) = soft(0.5 - 1.5t, t) sits at 0 for t in [0.2, 1] and then
        # moves on, so W(0.6) = phi(-0.1) = -1.3, not phi(0) = -1.25
        u = LinearEstimating(np.zeros((1, 1)), np.array([-1.5]))
        prob = EstimatingProblem(
            u=u, penalty=GroupLasso(GroupPartition([[0]])), lam=1.0)
        gap = vi_gap(prob, [0.5], 0.6, tol=0.0)
        assert gap.value == pytest.approx(-1.3, rel=1e-12)
        assert gap.witness == pytest.approx([-0.1], rel=1e-12)

    @pytest.mark.parametrize("penalty, limit", [
        (Ridge(), lambda u: -u / 0.8),
        (BallIndicator(BallConstraint("l2", radius=2.0)),
         lambda u: -2.0 * u / np.linalg.norm(u)),
    ], ids=["ridge", "l2-ball"])
    def test_search_stops_at_a_limit_inside_the_ball(self, penalty, limit):
        # x(t) converges like 1/t to a limit inside the ball of radius 50:
        # the search ends there after a bounded number of prox calls,
        # without overflowing (the suite turns warnings into errors)
        rng = np.random.default_rng(16)
        M = rng.standard_normal((30, 30))
        u = LinearEstimating(M @ M.T / 30, rng.standard_normal(30))
        beta = np.zeros(30)
        u_hat = u(beta)
        calls = []

        def point(t):
            calls.append(t)
            return diagnostics._prox(penalty, beta - t * u_hat, t * 0.4)

        witness = diagnostics._searched_witness(point, beta, 50.0,
                                                np.linalg.norm(u_hat))
        assert len(calls) <= 64
        assert np.linalg.norm(witness - limit(u_hat)) <= 1e-6

    def test_scad_is_unsupported(self):
        X, y, u, lam, prob = lasso_ls_instance(seed=15)
        scad = EstimatingProblem(u=u, penalty=Scad(a=3.7), lam=lam)
        with pytest.raises(UnsupportedPenaltyError):
            vi_gap(scad, np.zeros(10), 1.0)

    def test_infeasible_ball_candidate_fails_outright(self):
        X, y, u, lam, prob = lasso_ls_instance(seed=15)
        ball = EstimatingProblem(
            u=u, penalty=BallIndicator(BallConstraint("l1", radius=1.0)))
        gap = vi_gap(ball, np.full(10, 0.5), 1.0)
        assert not gap.passed and gap.value == -math.inf
        assert gap.witness is None and gap.lower is None

    @pytest.mark.parametrize("radius", [0.0, -1.0, math.nan, math.inf, "1"])
    def test_bad_radius_is_rejected(self, radius):
        X, y, u, lam, prob = lasso_ls_instance(seed=15)
        with pytest.raises(ValidationError, match="radius must be positive"):
            vi_gap(prob, np.zeros(10), radius)

    def test_explicit_tolerance_wins(self):
        X, y, u, lam, prob = lasso_ls_instance(seed=17)
        beta = oracle_lasso_cd(X, y, lam, tol=1e-15) + 1e-4
        derived = vi_gap(prob, beta, 1.0)
        assert derived.value < 0.0
        for tol in (0.0, -2.0 * derived.value):
            gap = vi_gap(prob, beta, 1.0, tol=tol)
            assert gap.tol == tol and gap.value == derived.value
            assert gap.passed == (tol > 0.0)

    @pytest.mark.parametrize("penalty", [
        Lasso(), GroupLasso(GroupPartition([[0, 1, 2, 3, 4], [5, 6, 7, 8, 9]])),
        BallIndicator(BallConstraint("l2", radius=1.0)),
    ], ids=["lasso", "group-lasso", "l2-ball"])
    def test_overflowing_radius_fails_without_warnings(self, penalty):
        # the suite's warnings-as-errors setting catches any warning
        X, y, u, lam, prob = lasso_ls_instance(seed=10)
        prob = EstimatingProblem(u=u, penalty=penalty, lam=lam)
        gap = vi_gap(prob, 0.1 * np.ones(10), 1e308)
        assert not gap.passed


    def test_overflowing_prox_image_fails_without_warnings(self):
        # U = 1e200*I - 1 at bh = (1, 1): U(bh - U(bh)) overflows, so the
        # derived tolerance is inf and the gap fails instead of raising
        u = LinearEstimating(1e200 * np.eye(2), np.ones(2))
        prob = EstimatingProblem(u=u, penalty=Lasso(), lam=0.0)
        gap = vi_gap(prob, [1.0, 1.0], 1.0, tau=1.0)
        assert not gap.passed and gap.tol == math.inf


@st.composite
def _gap_problems(draw):
    """A random monotone linear U (PSD plus skew), any convex penalty and an
    arbitrary candidate (projected onto the set for a ball).

    The PSD part may be tiny: tau = 1/L then puts ``bh - tau*U`` far
    beyond the l1 ball, whose projection must still keep the radius."""
    p = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    M = rng.standard_normal((p, p))
    Z = rng.standard_normal((p, p))
    psd = draw(st.just(0.0) | st.floats(1e-20, 1e-12) | st.floats(0.0, 1.0))
    A = psd * M @ M.T / p + (Z - Z.T) / p
    u = LinearEstimating(A, rng.standard_normal(p))
    cuts = sorted(set(rng.integers(1, p, size=p // 2))) if p > 1 else []
    part = GroupPartition([g.tolist() for g in np.split(rng.permutation(p),
                                                        cuts)],
                          weights=rng.uniform(0.5, 2.0, len(cuts) + 1))
    penalty = draw(st.sampled_from([
        Lasso(), Ridge(), ElasticNet(ratio=0.5), GroupLasso(part),
        SparseGroupLasso(part, alpha=0.4),
        BallIndicator(BallConstraint("l2", radius=1.0)),
        BallIndicator(BallConstraint("l1", radius=1.0)),
        BallIndicator(BallConstraint("box", lower=-rng.uniform(0.0, 2.0, p),
                                     upper=rng.uniform(0.0, 2.0, p))),
    ]))
    lam = draw(st.just(0.0) | st.floats(0.01, 2.0))
    beta = rng.standard_normal(p) * draw(st.sampled_from([0.01, 0.3, 3.0]))
    # some coordinates (groups) at exactly zero, as solutions have
    beta[rng.uniform(size=p) < 0.3] = 0.0
    if isinstance(penalty, BallIndicator):
        beta = project_ball(penalty.ball, beta)
    return EstimatingProblem(u=u, penalty=penalty, lam=lam), beta


class TestViGapProperties:
    @settings(max_examples=300, deadline=None)
    @given(case=_gap_problems(), radius=st.floats(0.01, 10.0),
           seed=st.integers(0, 2**32 - 1))
    def test_between_the_bound_and_the_probe(self, case, radius, seed):
        problem, beta = case
        gap = vi_gap(problem, beta, radius)
        u_hat = evaluate(problem.u, beta)
        pen = problem.penalty
        omega = 0.0 if isinstance(pen, BallIndicator) else (
            problem.lam * (penalty_value(pen, beta)
                           + penalty_value(pen, gap.witness)))
        slack = 1e-9 * (1.0 + radius * np.linalg.norm(u_hat) + omega)
        # the witness lies in the ball (and the set) and attains the value
        assert np.linalg.norm(gap.witness - beta) <= radius * (1 + 1e-12)
        assert math.isfinite(penalty_value(pen, gap.witness))
        assert gap.value == pytest.approx(_phi(problem, beta, gap.witness),
                                          abs=slack)
        # lower <= value <= every sampled value, beta_hat's own 0 included
        if gap.lower is not None:
            assert gap.lower <= gap.value + slack
        probe = vi_probe(problem, beta, 300, radius, seed)
        assert gap.value <= min(probe.worst_value, 0.0) + slack
        # the derived tolerance is proven for the prox image q
        tau = 1.0 / problem.u.lipschitz if problem.u.lipschitz else 1.0
        q = prox(pen, beta - tau * u_hat, tau * problem.lam)
        assert vi_gap(problem, q, radius).value >= -gap.tol - slack


class TestOracleLassoCd:
    def test_lambda_max_gives_zero(self):
        X, y, u, lam, _ = lasso_ls_instance(seed=11)
        beta = oracle_lasso_cd(X, y, lambda_max(u))
        np.testing.assert_array_equal(beta, np.zeros(10))

    def test_lambda_zero_solves_normal_equations(self):
        rng = np.random.default_rng(12)
        X = rng.standard_normal((30, 5))
        y = rng.standard_normal(30)
        beta = oracle_lasso_cd(X, y, 0.0, tol=1e-14)
        assert np.max(np.abs(X.T @ (y - X @ beta))) <= 1e-10

    def test_univariate_closed_form(self):
        rng = np.random.default_rng(13)
        X = rng.standard_normal((20, 1))
        y = rng.standard_normal(20)
        lam = 0.4
        beta = oracle_lasso_cd(X, y, lam, tol=1e-15)
        xty = float(X[:, 0] @ y)
        xtx = float(X[:, 0] @ X[:, 0])
        expected = np.sign(xty) * max(abs(xty) - lam, 0.0) / xtx
        assert beta[0] == pytest.approx(expected, abs=1e-12)

    def test_size_cap(self):
        with pytest.raises(InstanceTooLargeError):
            oracle_lasso_cd(np.ones((10, 51)), np.ones(10), 0.1)


def synthetic_report(residuals, iterates=None, rho=0.5, solution=None):
    trace = [IterationRecord(r, 1.0) for r in residuals[1:]]
    if solution is None:
        solution = (iterates[-1] if iterates is not None
                    else np.zeros(2))
    return SolverReport(
        method="km", status=SolverStatus.CONVERGED, solution=solution,
        trace=trace, initial_residual=residuals[0],
        config=SolverConfig(rho=rho),
        iterates=None if iterates is None else np.asarray(iterates))


class TestRateEnvelopes:
    def test_geometric_pass_on_contraction_run(self):
        # U = I, lam = 0, tau = 0.5: iterate map is exactly 0.5 * beta
        u = LinearEstimating(np.eye(2), np.zeros(2))
        prob = EstimatingProblem(u=u, penalty=Lasso(), lam=0.0)
        rep = solve_picard(prob, SolverConfig(tau=0.5, tol=1e-13, max_iter=200),
                           np.array([1.0, -2.0]))
        result = rate_envelope_check(
            rep, GeometricEnvelope(L=0.5, beta_hat=np.zeros(2)))
        assert result.passed

    def test_geometric_fails_on_crafted_trace_at_k3(self):
        # distances 1, .5, .25, .2 with L = 0.5: k = 3 needs <= 0.125
        iterates = np.array([[1.0, 0], [0.5, 0], [0.25, 0], [0.2, 0]])
        rep = synthetic_report([1.0, 0.5, 0.25, 0.2], iterates=iterates,
                               solution=np.zeros(2))
        result = rate_envelope_check(rep, GeometricEnvelope(L=0.5))
        assert not result.passed
        assert result.first_violation == 3

    def test_geometric_needs_iterates(self):
        rep = synthetic_report([1.0, 0.5])
        with pytest.raises(MissingTraceFieldsError):
            rate_envelope_check(rep, GeometricEnvelope(L=0.5))

    def test_km_rate_on_lasso_run(self):
        X, y, u, lam, prob = lasso_ls_instance(seed=14)
        init = np.zeros(10)
        rep = solve_km(prob, SolverConfig(tol=1e-10, max_iter=200000), init)
        assert rep.converged
        dist0 = float(np.linalg.norm(init - rep.solution) ** 2)
        result = rate_envelope_check(rep, KmRateEnvelope(rho=0.5, dist0=dist0))
        assert result.passed

    def test_km_rate_detects_violation(self):
        rep = synthetic_report([10.0, 10.0, 10.0, 10.0],
                               iterates=np.zeros((4, 2)),
                               solution=np.array([0.1, 0.0]))
        result = rate_envelope_check(rep, KmRateEnvelope(rho=0.5, dist0=0.01))
        assert not result.passed
        assert result.first_violation == 0

    def test_inverse_k_envelope(self):
        X, y, u, lam, prob = lasso_ls_instance(seed=15)
        rep = solve_picard(prob, SolverConfig(tol=1e-12, max_iter=200000),
                           np.zeros(10))
        assert rate_envelope_check(rep, InverseKEnvelope()).passed

    def test_inverse_k_detects_flat_tail(self):
        residuals = [1.0] + [1.0 / k for k in range(1, 12)] + [0.5, 0.5, 0.5]
        rep = synthetic_report(residuals)
        result = rate_envelope_check(rep, InverseKEnvelope(fit_iters=10))
        assert not result.passed


class TestGridOracleMore:
    def test_group_example(self):
        spec = GroupLasso(GroupPartition([[0, 1]]))
        got = oracle_grid_prox(spec, [3.0, 4.0], 2.5)
        np.testing.assert_allclose(got, [1.5, 2.0], atol=2e-3)

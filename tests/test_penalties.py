import numpy as np
import pytest

from reesolve import (
    BallConstraint,
    BallIndicator,
    DimensionMismatchError,
    ElasticNet,
    GroupLasso,
    GroupPartition,
    InstanceTooLargeError,
    Lasso,
    NegativeScaleError,
    Ridge,
    Scad,
    ScadParameterError,
    SparseGroupLasso,
    UnsupportedPenaltyError,
    lqa_weight_diag,
    oracle_grid_prox,
    penalty_value,
    project_ball,
    prox,
    scad_derivative,
)

PART_21 = GroupPartition([[0, 1], [2]])

CONVEX_SPECS = [
    Ridge(),
    Lasso(),
    ElasticNet(ratio=0.7),
    GroupLasso(PART_21),
    SparseGroupLasso(PART_21, alpha=0.4),
]


class TestPenaltyValue:
    def test_lasso_zero_vector(self):
        assert penalty_value(Lasso(), [0.0, 0.0]) == 0.0

    def test_group_lasso_norm_sum(self):
        # sqrt(9+16) + 1 = 6, evaluable by hand
        assert penalty_value(GroupLasso(PART_21), [3.0, 4.0, 1.0]) == pytest.approx(6.0)

    def test_sparse_group_alpha_one_is_lasso(self):
        rng = np.random.default_rng(3)
        beta = rng.standard_normal(3)
        sgl = SparseGroupLasso(PART_21, alpha=1.0)
        assert penalty_value(sgl, beta) == pytest.approx(penalty_value(Lasso(), beta))

    def test_ridge_and_enet(self):
        beta = np.array([1.0, -2.0])
        assert penalty_value(Ridge(), beta) == pytest.approx(5.0)
        assert penalty_value(ElasticNet(ratio=0.5), beta) == pytest.approx(3.0 + 2.5)

    def test_ball_indicator_sentinel(self):
        ball = BallIndicator(BallConstraint("l2", 1.0))
        assert penalty_value(ball, [0.5, 0.0]) == 0.0
        assert penalty_value(ball, [3.0, 4.0]) == np.inf

    def test_weighted_groups(self):
        part = GroupPartition([[0, 1], [2]], weights=[2.0, 3.0])
        assert penalty_value(GroupLasso(part), [3.0, 4.0, 1.0]) == pytest.approx(13.0)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            penalty_value(GroupLasso(PART_21), [1.0, 2.0])


class TestProxClosedForms:
    def test_lasso_example_against_scalar_grid(self):
        got = prox(Lasso(), [3.0, -0.5, 0.0], 1.0)
        np.testing.assert_allclose(got, [2.0, 0.0, 0.0], atol=1e-15)
        # 1-d grid oracle per coordinate
        for vj, exp in [(3.0, 2.0), (-0.5, 0.0), (0.0, 0.0)]:
            zs = np.arange(-4.0, 4.0, 1e-4)
            obj = 0.5 * (zs - vj) ** 2 + np.abs(zs)
            assert abs(zs[obj.argmin()] - exp) <= 2e-4

    @pytest.mark.parametrize("spec", CONVEX_SPECS)
    def test_scale_zero_is_identity(self, spec):
        v = np.array([0.3, -1.2, 2.0])
        np.testing.assert_array_equal(prox(spec, v, 0.0), v)

    def test_group_example(self):
        got = prox(GroupLasso(PART_21), [3.0, 4.0, 1.0], 2.5)
        # factor (1 - 2.5/5) = 0.5 on group one; |1| <= 2.5 zeroes group two
        np.testing.assert_allclose(got, [1.5, 2.0, 0.0], atol=1e-15)
        grid = oracle_grid_prox(GroupLasso(PART_21), [3.0, 4.0, 1.0], 2.5)
        np.testing.assert_allclose(got, grid, atol=2e-3)

    def test_sparse_group_example(self):
        spec = SparseGroupLasso(GroupPartition([[0, 1]]), alpha=0.5)
        got = prox(spec, [3.0, -1.0], 2.0)
        np.testing.assert_allclose(got, [1.0, 0.0], atol=1e-15)
        grid = oracle_grid_prox(spec, [3.0, -1.0], 2.0)
        np.testing.assert_allclose(got, grid, atol=2e-3)

    def test_ridge_stationarity(self):
        got = prox(Ridge(), [4.0], 1.0)
        np.testing.assert_allclose(got, [4.0 / 3.0])
        # stationarity of the strongly convex objective: z - v + 2*scale*z = 0
        assert abs(got[0] - 4.0 + 2.0 * got[0]) < 1e-12

    def test_negative_scale_rejected(self):
        with pytest.raises(NegativeScaleError):
            prox(Lasso(), [1.0], -0.5)

    def test_zero_group_norm_maps_to_zero(self):
        got = prox(GroupLasso(GroupPartition([[0, 1]])), [0.0, 0.0], 1.0)
        np.testing.assert_array_equal(got, [0.0, 0.0])

    def test_ball_prox_is_projection(self):
        ball = BallConstraint("l2", 1.0)
        got = prox(BallIndicator(ball), [3.0, 4.0], 0.7)
        np.testing.assert_allclose(got, project_ball(ball, [3.0, 4.0]))

    def test_scad_has_no_prox(self):
        with pytest.raises(UnsupportedPenaltyError):
            prox(Scad(3.7), [1.0], 1.0)
        with pytest.raises(UnsupportedPenaltyError):
            penalty_value(Scad(3.7), [1.0])


class TestProxProperties:
    @pytest.mark.parametrize("spec", CONVEX_SPECS)
    def test_nonexpansive(self, spec):
        rng = np.random.default_rng(11)
        for _ in range(50):
            u = rng.standard_normal(3) * 3
            v = rng.standard_normal(3) * 3
            scale = rng.uniform(0, 2)
            du = np.linalg.norm(prox(spec, u, scale) - prox(spec, v, scale))
            assert du <= np.linalg.norm(u - v) * (1 + 1e-12)

    @pytest.mark.parametrize("spec", CONVEX_SPECS)
    def test_matches_grid_oracle(self, spec):
        rng = np.random.default_rng(7)
        for _ in range(5):
            v = rng.uniform(-2.5, 2.5, size=3)
            scale = rng.uniform(0.1, 1.5)
            closed = prox(spec, v, scale)
            grid = oracle_grid_prox(spec, v, scale)
            np.testing.assert_allclose(closed, grid, atol=2e-3)

    @pytest.mark.parametrize("spec", [
        BallIndicator(BallConstraint("l2", 1.5)),
        BallIndicator(BallConstraint("l1", 2.0)),
    ])
    def test_ball_prox_near_grid_oracle(self, spec):
        # grid argmins over a curved feasible set are only O(sqrt(step))
        # accurate along the boundary; the sharp certificate is the
        # variational characterization tested in TestProjectBall
        rng = np.random.default_rng(7)
        for _ in range(5):
            v = rng.uniform(-2.5, 2.5, size=3)
            closed = prox(spec, v, rng.uniform(0.1, 1.5))
            grid = oracle_grid_prox(spec, v, 1.0)
            np.testing.assert_allclose(closed, grid, atol=5e-2)

    def test_subgradient_inclusion_certificate(self):
        # v - z must lie in scale * dOmega(z), checked per penalty case split
        rng = np.random.default_rng(23)
        for _ in range(50):
            v = rng.uniform(-3, 3, size=3)
            scale = rng.uniform(0.05, 2.0)

            z = prox(Lasso(), v, scale)
            g = v - z
            for j in range(3):
                if z[j] != 0.0:
                    assert abs(g[j] - scale * np.sign(z[j])) < 1e-12
                else:
                    assert abs(v[j]) <= scale + 1e-12

            z = prox(Ridge(), v, scale)
            np.testing.assert_allclose(v - z, 2 * scale * z, atol=1e-12)

            spec = GroupLasso(PART_21)
            z = prox(spec, v, scale)
            for g_idx in PART_21.groups:
                idx = list(g_idx)
                zg, vg = z[idx], v[idx]
                norm = np.linalg.norm(zg)
                if norm > 0:
                    np.testing.assert_allclose(
                        vg - zg, scale * zg / norm, atol=1e-12)
                else:
                    assert np.linalg.norm(vg) <= scale + 1e-12

            ratio = 0.7
            z = prox(ElasticNet(ratio=ratio), v, scale)
            for j in range(3):
                if z[j] != 0.0:
                    assert abs(v[j] - z[j]
                               - scale * (np.sign(z[j]) + 2 * ratio * z[j])) < 1e-12
                else:
                    assert abs(v[j]) <= scale + 1e-12

            alpha = 0.4
            spec = SparseGroupLasso(PART_21, alpha=alpha)
            z = prox(spec, v, scale)
            for g_idx in PART_21.groups:
                idx = list(g_idx)
                zg, vg = z[idx], v[idx]
                norm = np.linalg.norm(zg)
                if norm > 0:
                    for pos, j in enumerate(idx):
                        grp_part = scale * (1 - alpha) * zg[pos] / norm
                        if z[j] != 0.0:
                            assert abs(v[j] - z[j] - grp_part
                                       - scale * alpha * np.sign(z[j])) < 1e-12
                        else:
                            assert abs(v[j]) <= scale * alpha + 1e-12
                else:
                    shrunk = np.sign(vg) * np.maximum(
                        np.abs(vg) - scale * alpha, 0.0)
                    assert np.linalg.norm(shrunk) <= scale * (1 - alpha) + 1e-12

    def test_sparse_group_reductions_exact(self):
        rng = np.random.default_rng(5)
        part = GroupPartition([[0, 1, 2], [3, 4]])
        for _ in range(20):
            v = rng.standard_normal(5) * 2
            scale = rng.uniform(0, 1.5)
            np.testing.assert_array_equal(
                prox(SparseGroupLasso(part, alpha=1.0), v, scale),
                prox(Lasso(), v, scale))
            np.testing.assert_array_equal(
                prox(SparseGroupLasso(part, alpha=0.0), v, scale),
                prox(GroupLasso(part), v, scale))

    def test_weighted_group_prox_against_grid(self):
        part = GroupPartition([[0, 1], [2]], weights=[2.0, 0.5])
        rng = np.random.default_rng(31)
        for _ in range(5):
            v = rng.uniform(-2.5, 2.5, size=3)
            scale = rng.uniform(0.1, 1.0)
            closed = prox(GroupLasso(part), v, scale)
            grid = oracle_grid_prox(GroupLasso(part), v, scale)
            np.testing.assert_allclose(closed, grid, atol=2e-3)
            # subgradient inclusion with the weighted threshold
            for j, g in enumerate(part.groups):
                idx = list(g)
                zg, vg = closed[idx], v[idx]
                norm = np.linalg.norm(zg)
                if norm > 0:
                    np.testing.assert_allclose(
                        vg - zg, scale * part.weight(j) * zg / norm, atol=1e-12)
                else:
                    assert np.linalg.norm(vg) <= scale * part.weight(j) + 1e-12

    def test_lasso_prox_commutes_with_permutation(self):
        rng = np.random.default_rng(9)
        v = rng.standard_normal(6)
        perm = rng.permutation(6)
        np.testing.assert_array_equal(
            prox(Lasso(), v, 0.4)[perm], prox(Lasso(), v[perm], 0.4))

    def test_group_prox_commutes_with_group_permutation(self):
        part = GroupPartition([[0, 1], [2, 3]])
        swapped = GroupPartition([[0, 1], [2, 3]])  # same shape, swapped data
        rng = np.random.default_rng(13)
        v = rng.standard_normal(4)
        v_sw = np.concatenate([v[2:], v[:2]])
        out = prox(GroupLasso(part), v, 0.8)
        out_sw = prox(GroupLasso(swapped), v_sw, 0.8)
        np.testing.assert_array_equal(np.concatenate([out[2:], out[:2]]), out_sw)


class TestProjectBall:
    def test_l2_radial_scaling(self):
        np.testing.assert_allclose(
            project_ball(BallConstraint("l2", 1.0), [3.0, 4.0]), [0.6, 0.8])

    @pytest.mark.parametrize("ball", [
        BallConstraint("l2", 2.0),
        BallConstraint("l1", 3.0),
        BallConstraint("box", lower=-np.ones(2), upper=np.ones(2)),
    ])
    def test_interior_point_fixed(self, ball):
        y = np.array([0.3, -0.4])
        np.testing.assert_array_equal(project_ball(ball, y), y)

    def test_l1_symmetric_example(self):
        got = project_ball(BallConstraint("l1", 1.0), [1.0, 1.0])
        np.testing.assert_allclose(got, [0.5, 0.5])
        # brute force over the simplex face x + y = 1, x,y >= 0
        ts = np.linspace(0.0, 1.0, 20001)
        obj = (ts - 1.0) ** 2 + (1.0 - ts - 1.0) ** 2
        best = ts[obj.argmin()]
        assert abs(best - 0.5) <= 1e-4

    def test_l1_radius_below_rounding_unit(self):
        # 1e17 - 1 rounds to 1e17, so no sorted index passes the threshold
        # test; the projection still lands in the ball instead of raising
        got = project_ball(BallConstraint("l1", 1.0), [1e17, 0.0, 0.0])
        assert np.abs(got).sum() <= 1.0

    def test_l1_projection_variational_inequality(self):
        # (y - x)^T (z - x) <= 0 for all feasible z characterizes projections
        rng = np.random.default_rng(17)
        ball = BallConstraint("l1", 2.0)
        for _ in range(25):
            y = rng.standard_normal(8) * 3
            x = project_ball(ball, y)
            assert np.abs(x).sum() <= 2.0 + 1e-10
            for _ in range(40):
                z = rng.standard_normal(8)
                z = 2.0 * z / np.abs(z).sum() * rng.uniform()
                assert (y - x) @ (z - x) <= 1e-9

    def test_box_clamps(self):
        ball = BallConstraint("box", lower=np.array([-1.0, -2.0]),
                              upper=np.array([0.5, 2.0]))
        np.testing.assert_allclose(
            project_ball(ball, [2.0, -5.0]), [0.5, -2.0])

    @pytest.mark.parametrize("ball", [
        BallConstraint("l2", 1.3),
        BallConstraint("l1", 0.7),
        BallConstraint("box", lower=-np.ones(5) * 0.5, upper=np.ones(5)),
    ])
    def test_projection_idempotent(self, ball):
        rng = np.random.default_rng(29)
        for _ in range(25):
            y = rng.standard_normal(5) * 4
            once = project_ball(ball, y)
            twice = project_ball(ball, once)
            assert np.linalg.norm(twice - once) <= 1e-12 * max(
                1.0, np.linalg.norm(once))

    def test_zero_radius_singleton(self):
        np.testing.assert_array_equal(
            project_ball(BallConstraint("l1", 0.0), [1.0, -2.0]), [0.0, 0.0])


class TestScad:
    def test_inner_branch_is_lambda(self):
        lam = 0.8
        assert scad_derivative(0.5 * lam, lam, 3.7) == pytest.approx(lam)

    def test_tail_is_zero(self):
        assert scad_derivative(3.7 * 1.0, 1.0, 3.7) == 0.0
        assert scad_derivative(10.0, 1.0, 3.7) == 0.0

    def test_middle_branch_value(self):
        assert scad_derivative(2.0, 1.0, 3.7) == pytest.approx((3.7 - 2.0) / 2.7)

    def test_vectorized(self):
        out = scad_derivative(np.array([0.1, 2.0, 5.0]), 1.0, 3.7)
        np.testing.assert_allclose(out, [1.0, (3.7 - 2.0) / 2.7, 0.0])

    def test_invalid_a(self):
        with pytest.raises(ScadParameterError):
            scad_derivative(1.0, 1.0, 2.0)


class TestLqaWeights:
    def test_lasso_weight_limit(self):
        w = lqa_weight_diag(Lasso(), [1.0], lam=2.0, epsilon=1e-12)
        assert w[0] == pytest.approx(2.0, rel=1e-9)

    def test_zero_coordinate_weight(self):
        w = lqa_weight_diag(Lasso(), [0.0], lam=1.0, epsilon=1e-6)
        assert w[0] == pytest.approx(1e6)

    def test_scad_beyond_threshold_vanishes(self):
        w = lqa_weight_diag(Scad(3.7), [5.0], lam=1.0, epsilon=1e-8)
        assert w[0] == 0.0

    def test_group_penalty_unsupported(self):
        with pytest.raises(UnsupportedPenaltyError):
            lqa_weight_diag(GroupLasso(PART_21), [1.0, 1.0, 1.0], 1.0, 1e-8)

    def test_epsilon_must_be_positive(self):
        with pytest.raises(NegativeScaleError):
            lqa_weight_diag(Lasso(), [1.0], 1.0, 0.0)


class TestGridOracle:
    def test_scalar_lasso(self):
        got = oracle_grid_prox(Lasso(), [3.0], 1.0, grid_halfwidth=4.0)
        assert abs(got[0] - 2.0) <= 1e-3

    def test_scale_zero_returns_nearest_grid_point(self):
        got = oracle_grid_prox(Lasso(), [0.33333], 0.0)
        assert abs(got[0] - 0.33333) <= 1e-3

    def test_dimension_cap(self):
        with pytest.raises(InstanceTooLargeError):
            oracle_grid_prox(Lasso(), np.ones(4), 1.0)

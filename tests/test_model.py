import copy
import pickle
import types
from dataclasses import replace

import numpy as np
import pytest

from reesolve import (
    BallConstraint,
    BallIndicator,
    DimensionMismatchError,
    ElasticNet,
    EstimatingProblem,
    GroupLasso,
    GroupPartition,
    InvalidAlphaError,
    InvalidRadiusError,
    InvalidRhoError,
    Lasso,
    LinearEstimating,
    NonFiniteOutputError,
    OverlappingGroupsError,
    Scad,
    ScadParameterError,
    SolverConfig,
    SparseGroupLasso,
    UncoveredIndexError,
    UnsupportedPenaltyError,
    ValidationError,
    as_coefficients,
    validate_problem,
)


class TestGroupPartition:
    def test_covering_disjoint_partition_valid(self):
        part = GroupPartition([[0, 1], [2]])
        assert part.dimension == 3
        assert part.weight_array[0] == 1.0

    def test_overlapping_groups_rejected(self):
        with pytest.raises(OverlappingGroupsError):
            GroupPartition([[0, 1], [1, 2]])

    def test_uncovered_index_rejected(self):
        with pytest.raises(UncoveredIndexError):
            GroupPartition([[0], [2]])  # gap at index 1

    def test_partition_smaller_than_problem_is_uncovered(self):
        # a 2-coordinate partition attached to a 3-dimensional problem
        pen = GroupLasso(GroupPartition([[0, 1]]))
        with pytest.raises(UncoveredIndexError):
            EstimatingProblem(u=LinearEstimating(np.eye(3), np.zeros(3)),
                              penalty=pen, lam=0.1)

    def test_empty_group_rejected(self):
        with pytest.raises(UncoveredIndexError):
            GroupPartition([[0, 1], []])

    def test_weights_validated(self):
        part = GroupPartition([[0, 1], [2]], weights=[1.0, 2.0])
        assert part.weight_array[1] == 2.0
        with pytest.raises(DimensionMismatchError):
            GroupPartition([[0, 1], [2]], weights=[1.0])
        with pytest.raises(ValidationError):
            GroupPartition([[0, 1], [2]], weights=[1.0, -1.0])

    def test_equal_partitions_compare_and_hash_equal(self):
        a = GroupPartition([[2, 0], [1]], weights=[1.0, 2.0])
        b = GroupPartition(((2, 0), (1,)), weights=(1.0, 2.0))
        assert a == b and hash(a) == hash(b)
        assert repr(a) == ("GroupPartition(groups=((2, 0), (1,)), "
                           "weights=(1.0, 2.0))")
        assert a != GroupPartition([[2, 0], [1]])

    def test_index_arrays(self):
        part = GroupPartition([[3, 0], [1], [4, 2, 5]], weights=[1.0, 2.0, 0.5])
        assert part.order.tolist() == [3, 0, 1, 4, 2, 5]
        assert part.starts.tolist() == [0, 2, 3]
        assert part.sizes.tolist() == [2, 1, 3]
        assert part.weight_array.tolist() == [1.0, 2.0, 0.5]
        assert part.order.dtype == np.intp
        assert GroupPartition([[0], [1]]).weight_array.tolist() == [1.0, 1.0]

    def test_index_arrays_read_only(self):
        part = GroupPartition([[0, 1], [2]])
        for copied in (part, copy.deepcopy(part), pickle.loads(pickle.dumps(part))):
            assert copied == part and copied.order.tolist() == [0, 1, 2]
            for arr in (copied.order, copied.starts, copied.sizes,
                        copied.weight_array):
                with pytest.raises(ValueError):
                    arr[0] = 7
        with pytest.raises(AttributeError):
            part.order = np.arange(3)

    def test_dimension_counts_indices(self):
        groups = [[5, 1], [0], [4, 2, 3]]
        assert GroupPartition(groups).dimension == sum(len(g) for g in groups)


class TestPenaltySpecs:
    def test_alpha_bounds(self):
        part = GroupPartition([[0, 1]])
        SparseGroupLasso(part, alpha=0.0)
        SparseGroupLasso(part, alpha=1.0)
        with pytest.raises(InvalidAlphaError):
            SparseGroupLasso(part, alpha=1.5)
        with pytest.raises(InvalidAlphaError):
            SparseGroupLasso(part, alpha=-0.1)

    def test_elastic_net_ratio(self):
        ElasticNet(ratio=0.0)
        with pytest.raises(ValidationError):
            ElasticNet(ratio=-1.0)

    def test_scad_parameter(self):
        Scad(a=3.7)
        with pytest.raises(ScadParameterError):
            Scad(a=2.0)

    def test_ball_radius(self):
        BallConstraint("l2", 0.0)  # degenerate singleton is allowed
        with pytest.raises(InvalidRadiusError):
            BallConstraint("l1", -1.0)

    def test_box_must_contain_zero(self):
        BallConstraint("box", lower=np.array([-1.0, 0.0]),
                       upper=np.array([1.0, 2.0]))
        with pytest.raises(ValidationError):
            BallConstraint("box", lower=np.array([0.5]), upper=np.array([1.0]))
        with pytest.raises(ValidationError):
            BallConstraint("box", lower=np.array([-1.0]), upper=np.array([-2.0]))


class TestCoefficients:
    def test_rejects_nan_and_inf(self):
        with pytest.raises(NonFiniteOutputError):
            as_coefficients([1.0, np.nan])
        with pytest.raises(NonFiniteOutputError):
            as_coefficients([np.inf])

    def test_length_check(self):
        with pytest.raises(DimensionMismatchError):
            as_coefficients([1.0, 2.0], dim=3)

    def test_rejects_matrix(self):
        with pytest.raises(DimensionMismatchError):
            as_coefficients(np.eye(2))


class TestSolverConfig:
    def test_defaults_valid(self):
        cfg = SolverConfig()
        assert cfg.rho == 0.5
        assert cfg.zero_threshold == 1e-8

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.5, 2.0])
    def test_rho_open_interval(self, bad):
        with pytest.raises(InvalidRhoError):
            SolverConfig(rho=bad)

    def test_psi_range(self):
        SolverConfig(psi=1.2)
        SolverConfig(psi=(1 + np.sqrt(5)) / 2)
        with pytest.raises(ValidationError):
            SolverConfig(psi=1.0)
        with pytest.raises(ValidationError):
            SolverConfig(psi=1.7)

    def test_positivity_checks(self):
        with pytest.raises(ValidationError):
            SolverConfig(tol=0.0)
        with pytest.raises(ValidationError):
            SolverConfig(max_iter=0)
        with pytest.raises(ValidationError):
            SolverConfig(tau=-1.0)
        with pytest.raises(ValidationError):
            SolverConfig(epsilon_lqa=0.0)


# one field change per invariant of validate_problem, on a valid
# 3-dimensional lasso problem, with the error it must raise
INVALID_CHANGES = {
    "negative-lambda": ({"lam": -0.1}, ValidationError),
    "nan-lambda": ({"lam": float("nan")}, ValidationError),
    "inf-lambda": ({"lam": float("inf")}, ValidationError),
    "penalty-not-spec": ({"penalty": "lasso"}, UnsupportedPenaltyError),
    "u-without-dim": ({"u": object()}, ValidationError),
    "zero-dim": ({"u": types.SimpleNamespace(dim=0)}, DimensionMismatchError),
    "partition-too-large": (
        {"penalty": GroupLasso(GroupPartition([[0, 1], [2], [3]]))},
        DimensionMismatchError),
    "partition-too-small": (
        {"penalty": GroupLasso(GroupPartition([[0, 1]]))}, UncoveredIndexError),
    "box-mismatch": (
        {"penalty": BallIndicator(BallConstraint(
            "box", lower=-np.ones(2), upper=np.ones(2)))},
        DimensionMismatchError),
}


class TestValidateProblem:
    def _problem(self, penalty, p=3, lam=0.1):
        A = np.eye(p)
        return EstimatingProblem(u=LinearEstimating(A, np.zeros(p)),
                                 penalty=penalty, lam=lam)

    def test_valid_problem_returned_unchanged(self):
        prob = self._problem(Lasso())
        assert validate_problem(prob) is prob

    def test_validation_idempotent(self):
        prob = self._problem(GroupLasso(GroupPartition([[0, 1], [2]])))
        once = validate_problem(prob)
        assert validate_problem(once) is prob

    def test_partition_dimension_mismatch(self):
        pen = GroupLasso(GroupPartition([[0, 1], [2], [3]]))
        with pytest.raises(DimensionMismatchError):
            validate_problem(self._problem(pen, p=3))

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValidationError):
            validate_problem(self._problem(Lasso(), lam=-0.1))

    @pytest.mark.parametrize("name", INVALID_CHANGES)
    def test_invariant_checked_at_construction_and_replace(self, name):
        changes, error = INVALID_CHANGES[name]
        fields = {"u": LinearEstimating(np.eye(3), np.zeros(3)),
                  "penalty": Lasso(), "lam": 0.1}
        with pytest.raises(error):
            EstimatingProblem(**{**fields, **changes})
        valid = EstimatingProblem(**fields)
        with pytest.raises(error):
            replace(valid, **changes)

    def test_box_dimension_mismatch(self):
        ball = BallConstraint("box", lower=-np.ones(2), upper=np.ones(2))
        with pytest.raises(DimensionMismatchError):
            validate_problem(self._problem(BallIndicator(ball), p=3))

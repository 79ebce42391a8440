import math
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import reesolve
from reesolve import (
    CustomEstimating,
    DimensionMismatchError,
    JacobianUnavailableError,
    LeastSquaresEstimating,
    LinearEstimating,
    LogisticEstimating,
    NonFiniteOutputError,
    ValidationError,
    evaluate,
    jacobian,
    lipschitz_upper_bound,
    monotonicity_probe,
)
from reesolve.estimating import _sigmoid


class TestEvaluate:
    def test_least_squares_zero_residual(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((10, 3))
        beta_star = np.array([1.0, -2.0, 0.5])
        u = LeastSquaresEstimating(X, X @ beta_star)
        np.testing.assert_allclose(evaluate(u, beta_star), np.zeros(3), atol=1e-12)

    def test_identity_linear_map(self):
        u = LinearEstimating(np.eye(2), np.zeros(2))
        np.testing.assert_array_equal(evaluate(u, [1.0, 2.0]), [1.0, 2.0])

    def test_least_squares_at_zero_is_minus_xty(self):
        u = LeastSquaresEstimating(np.eye(2), np.array([1.0, 1.0]))
        np.testing.assert_array_equal(evaluate(u, [0.0, 0.0]), [-1.0, -1.0])

    def test_purity_bitwise(self):
        rng = np.random.default_rng(1)
        u = LeastSquaresEstimating(rng.standard_normal((20, 4)),
                                   rng.standard_normal(20))
        beta = rng.standard_normal(4)
        a = evaluate(u, beta)
        b = evaluate(u, beta)
        assert np.array_equal(a, b)

    def test_dimension_and_finiteness_errors(self):
        u = LinearEstimating(np.eye(2), np.zeros(2))
        with pytest.raises(DimensionMismatchError):
            evaluate(u, [1.0, 2.0, 3.0])
        bad = CustomEstimating(2, lambda b: np.array([np.nan, 1.0]))
        with pytest.raises(NonFiniteOutputError):
            evaluate(bad, [0.0, 0.0])

    def test_logistic_requires_binary_response(self):
        with pytest.raises(ValidationError):
            LogisticEstimating(np.eye(2), np.array([0.0, 2.0]))

    @pytest.mark.parametrize("shape", [(7, 3), (50, 40), (100, 400), (400, 30)])
    def test_u_matches_negated_design_form_bit_for_bit(self, shape):
        # U is computed as X^T (r - y) with r = X beta or sigmoid(X beta);
        # it equals the textbook -X^T (y - r) exactly, because IEEE negation
        # and subtraction are sign-symmetric. The sigmoid is the module's
        # own, so this tests the assembly; its accuracy is TestSigmoid's
        rng = np.random.default_rng(shape[1])
        n, p = shape
        for _ in range(20):
            X = rng.standard_normal((n, p)) * rng.uniform(0.01, 10.0)
            beta = rng.standard_normal(p) * rng.uniform(0.01, 10.0)
            y = rng.standard_normal(n)
            ls = LeastSquaresEstimating(X, y)
            assert np.array_equal(ls(beta), -X.T @ (y - X @ beta))
            y01 = (rng.uniform(size=n) < 0.5).astype(float)
            lg = LogisticEstimating(X, y01)
            assert np.array_equal(lg(beta), -X.T @ (y01 - _sigmoid(X @ beta)))


class TestSigmoid:
    def test_within_4_ulp_of_the_libm_formula(self):
        x = np.linspace(-700.0, 700.0, 140_001)
        ref = np.array([1.0 / (1.0 + math.exp(-v)) for v in x])
        assert np.all(np.abs(_sigmoid(x) - ref) <= 4 * np.spacing(ref))

    def test_saturates_exactly_and_silently(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _sigmoid(np.array([800.0]))[0] == 1.0
            assert _sigmoid(np.array([-800.0]))[0] == 0.0
            X = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
            u = LogisticEstimating(X, np.array([0.0, 1.0, 1.0]))
            beta = np.array([800.0, -800.0])  # X beta = (800, -800, 0)
            assert np.all(np.isfinite(u(beta)))
            assert np.all(np.isfinite(u.jacobian_at(beta)))


def test_importing_the_package_loads_numpy_alone():
    # every top-level module the import adds is the standard library's,
    # numpy's or the package's own
    src = Path(reesolve.__file__).resolve().parents[1]
    code = ("import sys; before = set(sys.modules); "
            "import reesolve, reesolve.cli; "
            "added = {m.partition('.')[0] for m in set(sys.modules) - before}; "
            "print(sorted(added - set(sys.stdlib_module_names)"
            " - {'numpy', 'reesolve'}))")
    out = subprocess.run([sys.executable, "-c", code], cwd=src,
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"


class TestJacobian:
    def test_least_squares_gram(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((15, 4))
        u = LeastSquaresEstimating(X, rng.standard_normal(15))
        np.testing.assert_allclose(jacobian(u, np.zeros(4)), X.T @ X)

    def test_linear_returns_matrix(self):
        A = np.array([[2.0, 1.0], [-1.0, 2.0]])
        u = LinearEstimating(A, np.zeros(2))
        np.testing.assert_array_equal(jacobian(u, [3.0, 4.0]), A)

    def test_logistic_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((25, 4))
        y = (rng.uniform(size=25) < 0.5).astype(float)
        u = LogisticEstimating(X, y)
        beta = 0.3 * rng.standard_normal(4)
        analytic = jacobian(u, beta)
        fd = jacobian(CustomEstimating(4, lambda b: u(b)), beta, allow_fd=True)
        assert np.max(np.abs(analytic - fd)) <= 1e-6

    @pytest.mark.parametrize("seed", range(4))
    def test_builtin_jacobians_match_fd(self, seed):
        rng = np.random.default_rng(seed)
        n, p = 30, 6
        X = rng.standard_normal((n, p))
        builtins = [
            LeastSquaresEstimating(X, rng.standard_normal(n)),
            LinearEstimating(rng.standard_normal((p, p)), rng.standard_normal(p)),
            LogisticEstimating(X, (rng.uniform(size=n) < 0.5).astype(float)),
        ]
        beta = 0.5 * rng.standard_normal(p)
        for u in builtins:
            fd = jacobian(CustomEstimating(p, lambda b, u=u: u(b)), beta,
                          allow_fd=True)
            assert np.max(np.abs(jacobian(u, beta) - fd)) <= 1e-5

    def test_fd_gate(self):
        u = CustomEstimating(2, lambda b: b * 2.0)
        with pytest.raises(JacobianUnavailableError):
            jacobian(u, [1.0, 1.0])
        np.testing.assert_allclose(jacobian(u, [1.0, 1.0], allow_fd=True),
                                   2 * np.eye(2), atol=1e-8)


class TestLipschitz:
    def test_diagonal_spectral_norm(self):
        u = LinearEstimating(np.diag([3.0, 1.0]), np.zeros(2))
        assert abs(lipschitz_upper_bound(u) - 3.0) <= 1e-5

    def test_identity(self):
        u = LinearEstimating(np.eye(4), np.zeros(4))
        assert lipschitz_upper_bound(u) == pytest.approx(1.0, abs=1e-9)

    def test_declared_constant_passthrough(self):
        u = CustomEstimating(2, lambda b: b, lipschitz=10.0)
        assert lipschitz_upper_bound(u) == 10.0

    def test_unavailable_is_none(self):
        assert lipschitz_upper_bound(CustomEstimating(2, lambda b: b)) is None
        X = np.eye(3)
        assert lipschitz_upper_bound(
            LogisticEstimating(X, np.zeros(3))) is None

    def test_least_squares_matches_eigvalsh(self):
        rng = np.random.default_rng(4)
        # n > p, a wide n < p (L comes from X X^T) and a taller design
        for n, p in [(40, 6), (20, 60), (300, 40)]:
            X = rng.standard_normal((n, p))
            u = LeastSquaresEstimating(X, rng.standard_normal(n))
            exact = float(np.linalg.eigvalsh(X.T @ X).max())
            assert abs(lipschitz_upper_bound(u) - exact) <= 1e-12 * exact

    def test_bounds_sampled_difference_quotients(self):
        rng = np.random.default_rng(5)
        A = rng.standard_normal((5, 5))
        u = LinearEstimating(A, np.zeros(5))
        L = lipschitz_upper_bound(u)
        assert L == pytest.approx(np.linalg.svd(A, compute_uv=False)[0],
                                  rel=1e-12)
        for _ in range(100):
            b1, b2 = rng.standard_normal(5), rng.standard_normal(5)
            ratio = np.linalg.norm(u(b1) - u(b2)) / np.linalg.norm(b1 - b2)
            assert ratio <= L * (1 + 1e-12)


class TestRestrict:
    """``restrict(S)`` is U on S with every other coordinate held at zero."""

    @staticmethod
    def _instances(rng):
        X = rng.standard_normal((15, 6))
        A = rng.standard_normal((6, 6))
        y01 = (rng.uniform(size=15) < 0.5).astype(float)
        return [LinearEstimating(A, rng.standard_normal(6)),
                LeastSquaresEstimating(X, rng.standard_normal(15)),
                LogisticEstimating(X, y01, lipschitz=3.0)]

    @pytest.mark.parametrize("kind", [0, 1, 2], ids=["linear", "ls", "logistic"])
    def test_restricted_u_is_u_on_zero_padded_points(self, kind):
        rng = np.random.default_rng(50)
        u = self._instances(rng)[kind]
        S = np.array([4, 0, 3])
        sub = u.restrict(S)
        assert sub.dim == 3
        for _ in range(3):
            beta_s = rng.standard_normal(3)
            padded = np.zeros(6)
            padded[S] = beta_s
            np.testing.assert_allclose(evaluate(sub, beta_s),
                                       evaluate(u, padded)[S],
                                       rtol=1e-13, atol=1e-13)
            np.testing.assert_allclose(jacobian(sub, beta_s),
                                       jacobian(u, padded)[np.ix_(S, S)],
                                       rtol=1e-13, atol=1e-13)

    def test_declared_lipschitz_passes_through(self):
        rng = np.random.default_rng(51)
        X = rng.standard_normal((15, 6))
        for u in (LinearEstimating(X[:6], np.zeros(6), lipschitz=40.0),
                  LeastSquaresEstimating(X, np.zeros(15), lipschitz=40.0),
                  LogisticEstimating(X, np.zeros(15), lipschitz=40.0)):
            assert lipschitz_upper_bound(u.restrict(np.array([1, 2]))) == 40.0
        assert LogisticEstimating(X, np.zeros(15)).restrict(
            np.array([1])).lipschitz is None

    def test_undeclared_lipschitz_comes_from_the_restricted_matrix(self):
        rng = np.random.default_rng(52)
        X = rng.standard_normal((15, 6))
        A = rng.standard_normal((6, 6))
        S = np.array([1, 5])
        ls, lin = LeastSquaresEstimating(X, np.zeros(15)), LinearEstimating(A, np.zeros(6))
        # computing the full bound first must not leak into the restriction
        assert lipschitz_upper_bound(ls) > 0 and lipschitz_upper_bound(lin) > 0
        np.testing.assert_allclose(
            lipschitz_upper_bound(ls.restrict(S)),
            np.linalg.norm(X[:, S], 2) ** 2, rtol=1e-12)
        np.testing.assert_allclose(
            lipschitz_upper_bound(lin.restrict(S)),
            np.linalg.norm(A[np.ix_(S, S)], 2), rtol=1e-12)
        assert lipschitz_upper_bound(ls.restrict(S)) <= lipschitz_upper_bound(ls)

    def test_custom_u_has_no_restriction(self):
        assert not hasattr(CustomEstimating(2, lambda b: b), "restrict")


class TestMonotonicityProbe:
    def test_positive_definite_symmetric_part_passes(self):
        # <A d, d> = 2||d||^2 for this A, so monotone despite asymmetry
        u = LinearEstimating(np.array([[2.0, 1.0], [-1.0, 2.0]]), np.zeros(2))
        assert monotonicity_probe(u, trials=200, radius=5.0, seed=0).passed

    def test_negative_identity_fails(self):
        u = LinearEstimating(-np.eye(2), np.zeros(2))
        result = monotonicity_probe(u, trials=100, radius=1.0, seed=0)
        assert not result.passed
        b1, b2 = result.pair
        assert (u(b1) - u(b2)) @ (b1 - b2) < -1e-10

    def test_least_squares_is_monotone(self):
        rng = np.random.default_rng(6)
        u = LeastSquaresEstimating(rng.standard_normal((30, 5)),
                                   rng.standard_normal(30))
        assert monotonicity_probe(u, trials=100, radius=3.0, seed=1).passed

    def test_deterministic_given_seed(self):
        u = LinearEstimating(-np.eye(3), np.zeros(3))
        a = monotonicity_probe(u, trials=50, radius=1.0, seed=42)
        b = monotonicity_probe(u, trials=50, radius=1.0, seed=42)
        assert a.worst_inner == b.worst_inner
        np.testing.assert_array_equal(a.pair[0], b.pair[0])

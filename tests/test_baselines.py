import numpy as np
import pytest

from qnpe.baselines import bfgs_step, solve_bfgs, solve_gd
from qnpe.core import Objective, SolverConfig
from qnpe.errors import BacktrackCapExceeded, NonFiniteIterate, ProblemMismatch
from qnpe.problems import make_quadratic, quadratic_objective


def one_gd_step(x, obj):
    """One step of the shipped gradient descent loop from x."""
    one_step = SolverConfig(max_iters=1, grad_tol=0.0)
    return solve_gd(obj, one_step, x0=x).final_x


class TestGradientDescent:
    def test_minimizer_is_fixed_point(self):
        obj = make_quadratic(6, 1.0, 10.0, seed=0)
        out = one_gd_step(obj.minimizer, obj)
        assert np.allclose(out, obj.minimizer, atol=1e-12)

    def test_scalar_converges_in_one_step(self):
        obj = quadratic_objective(np.array([[4.0]]), np.array([2.0]), 4.0, 4.0)
        out = one_gd_step(np.array([7.0]), obj)
        assert out[0] == pytest.approx(0.5, rel=1e-15)

    def test_diagonal_contraction_matches_linear_map(self):
        a = np.diag([1.0, 10.0])
        obj = quadratic_objective(a, np.array([1.0, 10.0]), 1.0, 10.0)
        rng = np.random.default_rng(0)
        contraction = np.eye(2) - a / 10.0
        for _ in range(5):
            x = rng.standard_normal(2)
            stepped = one_gd_step(x, obj)
            mapped = obj.minimizer + contraction @ (x - obj.minimizer)
            assert np.allclose(stepped, mapped, atol=1e-12)
            ratio = np.linalg.norm(stepped - obj.minimizer)
            ratio /= np.linalg.norm(x - obj.minimizer)
            assert ratio <= 0.9 + 1e-12

    def test_solver_loop_terminates(self):
        obj = make_quadratic(5, 1.0, 10.0, seed=1)
        report = solve_gd(obj, SolverConfig(grad_tol=1e-8, max_iters=2000))
        assert report.termination == "grad_tol"
        assert report.method == "gd"
        assert all(r.eta == 1.0 / obj.l1 for r in report.records)


class TestBfgs:
    def test_secant_identity_after_update(self):
        obj = make_quadratic(6, 1.0, 30.0, seed=2)
        x0 = np.random.default_rng(3).standard_normal(6)
        x, h, g = x0, np.eye(6), obj.grad(x0)
        for _ in range(5):
            x_new, g_new, h, _, _ = bfgs_step(x, h, g, obj)
            s = x_new - x
            y = g_new - g
            if y @ s > 1e-12 * np.linalg.norm(s) * np.linalg.norm(y):
                assert np.allclose(h @ y, s, atol=1e-10)
            x, g = x_new, g_new

    def test_scalar_learns_inverse_curvature_in_one_update(self):
        obj = quadratic_objective(np.array([[4.0]]), np.array([0.0]), 4.0, 4.0)
        x = np.array([1.0])
        _, _, h, _, _ = bfgs_step(x, np.eye(1), obj.grad(x), obj)
        assert h[0, 0] == pytest.approx(0.25, rel=1e-12)

    def test_converges_within_sixty_iterations(self):
        obj = make_quadratic(10, 1.0, 100.0, seed=7)
        x0 = np.random.default_rng(7).standard_normal(10)
        report = solve_bfgs(
            obj, SolverConfig(grad_tol=1e-10, max_iters=60), x0=x0
        )
        assert report.termination == "grad_tol"
        assert report.iterations <= 60

    def test_readme_compare_problem_stalls(self):
        # Armijo on function values cannot resolve the last decreases, so
        # the iterate stops moving near k = 62 and the stall rule ends the run
        obj = make_quadratic(50, 1.0, 1000.0, seed=7)
        report = solve_bfgs(obj, SolverConfig())
        assert report.termination == "stalled"
        assert report.iterations <= 100

    def test_armijo_attempts_count_halvings(self):
        obj = make_quadratic(8, 1.0, 50.0, seed=4)
        x0 = np.random.default_rng(5).standard_normal(8)
        x, h, g = x0, np.eye(8), obj.grad(x0)
        for _ in range(25):
            x, g, h, step, attempts = bfgs_step(x, h, g, obj)
            assert step == 0.5 ** (attempts - 1)

    def test_needs_the_value_oracle(self):
        obj = make_quadratic(4, 1.0, 10.0, seed=0)
        without_value = Objective(obj.dim, obj.grad, obj.mu, obj.l1)
        with pytest.raises(ProblemMismatch, match="^BFGS needs the objective value"):
            solve_bfgs(without_value, SolverConfig(max_iters=5))

    def test_armijo_cap_raises(self):
        # a constant value never decreases, whatever the halved step
        obj = Objective(
            3, lambda x: np.ones(3), 1.0, 10.0, value=lambda x: 0.0
        )
        with pytest.raises(
            BacktrackCapExceeded, match="^Armijo backtracking exhausted its cap$"
        ):
            solve_bfgs(obj, SolverConfig(max_iters=5))

    @staticmethod
    def diagonal_quadratic(value):
        """f(x) = x' diag(1, 3, 10) x / 2 - sum(x) with the value oracle
        `value(f, x)`."""
        lam = np.array([1.0, 3.0, 10.0])
        return Objective(
            3, lambda x: lam * x - 1.0, 1.0, 10.0,
            value=lambda x: value(0.5 * x @ (lam * x) - x.sum(), x),
        )

    @pytest.mark.parametrize(
        "value, error, found",
        [
            (lambda f, x: float("nan"), NonFiniteIterate, "the iterate is NaN"),
            (lambda f, x: x * x, ProblemMismatch, "the iterate is a ndarray"),
            (lambda f, x: None, ProblemMismatch, "the iterate is a NoneType"),
            (
                lambda f, x: f if x.any() else float("inf"),
                NonFiniteIterate, "the iterate is inf$",
            ),
            (
                lambda f, x: f if x.any() else -float("inf"),
                NonFiniteIterate, "the iterate is -inf$",
            ),
            (
                lambda f, x: -float("inf") if x.any() else f,
                NonFiniteIterate, "the Armijo trial point of step 1.0 is -inf$",
            ),
        ],
        ids=[
            "nan", "array", "none", "inf_at_start", "minus_inf_at_start",
            "minus_inf_at_a_trial_point",
        ],
    )
    def test_malformed_value_raises_typed_error(self, value, error, found):
        # NaN ran all 60 halvings into the Armijo cap, an array raised a
        # bare ValueError and None a bare TypeError; +inf at the start alone
        # passed every trial, so k=0 took the full step, and -inf at a trial
        # point passed as a decrease and failed only at the next iterate
        obj = self.diagonal_quadratic(value)
        with pytest.raises(error, match=f"value at {found}"):
            solve_bfgs(obj, SolverConfig(max_iters=50))

    def test_malformed_value_at_a_trial_point_raises(self):
        obj = self.diagonal_quadratic(lambda f, x: None if x.any() else f)
        with pytest.raises(
            ProblemMismatch,
            match=r"^iteration k=0: value at the Armijo trial point of step 1\.0 ",
        ):
            solve_bfgs(obj, SolverConfig(max_iters=50))

    def test_infinite_trial_value_is_no_decrease(self):
        # +inf beyond the unit ball: the full step is rejected and halved
        obj = self.diagonal_quadratic(
            lambda f, x: float("inf") if x @ x > 1.0 else f
        )
        x0 = np.zeros(3)
        x, _, _, step, attempts = bfgs_step(x0, np.eye(3), obj.grad(x0), obj)
        assert attempts > 1
        assert step == 0.5 ** (attempts - 1)
        assert x @ x <= 1.0

    @pytest.mark.parametrize(
        "kind", [np.float64, np.array], ids=["numpy_float", "zero_dim_array"]
    )
    def test_numpy_scalar_values_keep_their_bits(self, kind):
        plain = solve_bfgs(self.diagonal_quadratic(lambda f, x: float(f)))
        wrapped = solve_bfgs(self.diagonal_quadratic(lambda f, x: kind(f)))
        assert np.array_equal(plain.final_x, wrapped.final_x)
        assert plain.records == wrapped.records

    def test_inverse_approximation_stays_positive_definite(self):
        obj = make_quadratic(8, 1.0, 50.0, seed=4)
        x0 = np.random.default_rng(5).standard_normal(8)
        x, h, g = x0, np.eye(8), obj.grad(x0)
        for _ in range(25):
            x, g, h, _, _ = bfgs_step(x, h, g, obj)
            assert np.linalg.eigvalsh(h)[0] > 0.0

    def test_report_schema_compatible(self):
        obj = make_quadratic(5, 1.0, 10.0, seed=0)
        report = solve_bfgs(obj, SolverConfig(grad_tol=1e-8, max_iters=100))
        assert report.method == "bfgs"
        for rec in report.records:
            assert rec.mv_linsolve == 0
            assert rec.loss is None
            assert rec.dist_sq is not None

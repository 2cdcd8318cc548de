import dataclasses

import numpy as np
import pytest

from qnpe.baselines import solve_bfgs, solve_gd
from qnpe.core import (
    IterationRecord,
    Objective,
    SolverConfig,
    SolverReport,
)
from qnpe.errors import MissingGroundTruth, NonFiniteIterate, ProblemMismatch
from qnpe.problems import make_logistic, make_quadratic
from qnpe.solver import _STALL_LIMIT, extragradient_step, solve
from qnpe.verify import transition, verify_trace

METHODS = {"qnpe": solve, "gd": solve_gd, "bfgs": solve_bfgs}


class TestExtragradientStep:
    def test_balanced_coefficients(self):
        # eta = 1, mu = 1/2: both weights are 1/2
        x = np.array([2.0, 0.0])
        x_hat = np.array([0.0, 2.0])
        g_hat = np.array([1.0, 1.0])
        out = extragradient_step(x, x_hat, g_hat, eta=1.0, mu=0.5)
        assert np.allclose(out, 0.5 * (x - g_hat) + 0.5 * x_hat, atol=1e-15)

    def test_reduces_to_plain_extragradient_at_mu_zero(self):
        x = np.array([1.0, -1.0])
        g_hat = np.array([0.5, 0.5])
        out = extragradient_step(x, np.array([9.0, 9.0]), g_hat, eta=0.3, mu=0.0)
        assert np.allclose(out, x - 0.3 * g_hat, atol=1e-15)

    def test_zero_gradient_gives_convex_combination(self):
        x = np.array([1.0])
        x_hat = np.array([3.0])
        eta, mu = 2.0, 1.0
        out = extragradient_step(x, x_hat, np.zeros(1), eta, mu)
        expected = (x + 2.0 * eta * mu * x_hat) / (1.0 + 2.0 * eta * mu)
        assert out[0] == pytest.approx(expected[0], rel=1e-15)
        assert min(x[0], x_hat[0]) <= out[0] <= max(x[0], x_hat[0])


class TestSolve:
    def test_terminates_at_start_when_already_optimal(self):
        obj = make_quadratic(5, 1.0, 10.0, seed=0)
        report = solve(obj, SolverConfig(grad_tol=1e-8), x0=obj.minimizer)
        assert report.termination == "grad_tol"
        assert report.iterations == 0
        assert report.total_grad_evals == 1

    def test_exact_initial_curvature_never_backtracks(self):
        # B0 = A makes the model error zero: eta_k = sigma0 / beta^k and
        # the learner never advances
        obj = make_quadratic(8, 1.0, 20.0, seed=4)
        a = obj.hessian(np.zeros(8))
        cfg = SolverConfig(b0=a, oracle_mode="exact", grad_tol=1e-10)
        report = solve(obj, cfg)
        assert report.termination == "grad_tol"
        cfgv = report.config
        for rec in report.records:
            assert not rec.backtracked
            assert rec.eta == cfgv.sigma0 / cfgv.beta**rec.k
            assert rec.ls_steps == 1
        assert len(report.loss_samples) == 0

    @pytest.mark.parametrize("seed", range(3))
    def test_contraction_every_iteration(self, seed):
        obj = make_quadratic(12, 1.0, 200.0, seed=seed)
        report = solve(obj, SolverConfig(oracle_mode="exact", grad_tol=1e-9))
        dists = [r.dist_sq for r in report.records]
        dists.append(report.final_dist_sq(obj))
        for rec, d_now, d_next in zip(report.records, dists, dists[1:]):
            bound = d_now / (1.0 + 2.0 * rec.eta * obj.mu)
            assert d_next <= bound + 1e-12 * d_now

    def test_max_iters_termination(self):
        obj = make_quadratic(6, 1.0, 1e4, seed=2)
        report = solve(obj, SolverConfig(grad_tol=1e-14, max_iters=3))
        assert report.termination == "max_iters"
        assert report.iterations == 3

    def test_counters_accumulate(self):
        obj = make_quadratic(10, 1.0, 100.0, seed=5)
        report = solve(obj, SolverConfig(oracle_mode="exact", grad_tol=1e-8))
        totals = report.totals()
        assert totals["grad_evals"] == sum(r.grad_evals for r in report.records)
        assert report.total_grad_evals == totals["grad_evals"] + 1
        assert totals["mv_linsolve"] > 0
        for rec in report.records:
            assert rec.grad_evals == 1 + rec.ls_steps

    def test_nonfinite_gradient_raises(self):
        bad = Objective(
            dim=2, grad=lambda x: np.array([np.nan, 0.0]), mu=1.0, l1=2.0
        )
        with pytest.raises(NonFiniteIterate):
            solve(bad, SolverConfig(max_iters=2))

    def test_loss_samples_match_backtracked_records(self):
        obj = make_quadratic(10, 1.0, 500.0, seed=6)
        report = solve(obj, SolverConfig(oracle_mode="exact", grad_tol=1e-8))
        n_back = sum(1 for r in report.records if r.backtracked)
        assert len(report.loss_samples) == n_back
        for rec in report.records:
            assert (rec.loss is not None) == rec.backtracked

    def test_n_tr_present_with_ground_truth(self):
        obj = make_quadratic(6, 1.0, 10.0, seed=7)
        report = solve(obj, SolverConfig(max_iters=2, grad_tol=1e-16))
        n_tr = transition(report, obj)
        assert n_tr is not None and n_tr >= 4.0 / 3.0

    def test_seeded_runs_are_reproducible(self):
        obj = make_quadratic(8, 1.0, 300.0, seed=9)
        cfg = SolverConfig(oracle_mode="lanczos", seed=123, grad_tol=1e-9)
        first = solve(obj, cfg)
        second = solve(obj, cfg)
        assert np.array_equal(first.final_x, second.final_x)
        assert [r.eta for r in first.records] == [r.eta for r in second.records]


class TestRunLoop:
    """Rules the shared run loop applies to every method alike."""

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize(
        "make_x0, error",
        [
            (lambda d: np.zeros((d, 1)), ProblemMismatch),
            (lambda d: np.full(d, np.nan), NonFiniteIterate),
            # these raised a bare TypeError and ValueError, or, for the
            # complex array, lost their imaginary part silently
            (lambda d: [1 + 5j] + [0] * (d - 1), ProblemMismatch),
            (lambda d: ["a"] * d, ProblemMismatch),
            (lambda d: np.eye(d, dtype=complex)[0] * (1 + 5j), ProblemMismatch),
        ],
        ids=["column", "nan", "complex_list", "string_list", "complex_array"],
    )
    def test_malformed_x0_raises_typed_error(self, method, make_x0, error):
        obj = make_quadratic(4, 1.0, 10.0, seed=0)
        with pytest.raises(error):
            METHODS[method](obj, SolverConfig(max_iters=5), x0=make_x0(4))

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("dtype", [complex, object, bool])
    def test_non_real_gradient_raises_at_the_start(self, method, dtype):
        # a complex gradient ran on with its imaginary parts dropped; an
        # object or bool one failed untyped in the arithmetic it entered
        obj = self.diagonal_quadratic(lambda g, x: g.astype(dtype))
        with pytest.raises(
            ProblemMismatch,
            match=f"^gradient at the start point has dtype {np.dtype(dtype)}, ",
        ):
            METHODS[method](obj, SolverConfig(max_iters=3))

    def test_overflowing_iterate_is_non_finite(self):
        # finite x and g whose step overflows to -inf
        obj = Objective(1, lambda x: np.full(1, 1e308), 0.5, 0.5)
        with np.errstate(over="ignore"), pytest.raises(
            NonFiniteIterate, match=r"^non-finite values in iterate at k=0$"
        ):
            solve_gd(obj, SolverConfig(max_iters=3), x0=[-1e308])

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize(
        "bad_grad",
        [
            lambda g: g[:, None],
            lambda g: g[:-1],
            lambda g: float(g @ g),
        ],
        ids=["column", "short", "scalar"],
    )
    def test_gradient_of_wrong_shape_raises(self, method, bad_grad):
        obj = make_quadratic(4, 1.0, 10.0, seed=0)
        broken = dataclasses.replace(obj, grad=lambda x: bad_grad(obj.grad(x)))
        with pytest.raises(ProblemMismatch, match="gradient"):
            METHODS[method](broken, SolverConfig(max_iters=5))

    @staticmethod
    def diagonal_quadratic(grad_kind):
        """f(x) = x' diag(1, 3, 10) x / 2 - sum(x), its gradient passed
        through `grad_kind(g, x)`."""
        lam = np.array([1.0, 3.0, 10.0])
        return Objective(
            3, lambda x: grad_kind(lam * x - 1.0, x), 1.0, 10.0,
            value=lambda x: 0.5 * x @ (lam * x) - x.sum(),
        )

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize(
        "later, found",
        [(lambda g: g[:, None], r"has shape \(3, 1\)"), (list, "is a list")],
        ids=["column", "list"],
    )
    def test_gradient_going_bad_raises_naming_the_iteration(
        self, method, later, found
    ):
        # fine at the zero start, malformed from the first step on: an
        # unchecked column made gd broadcast x into ever larger arrays and
        # qnpe fail inside BLAS
        obj = self.diagonal_quadratic(lambda g, x: later(g) if x.any() else g)
        with pytest.raises(
            ProblemMismatch, match=f"^iteration k=0: gradient at .* {found}"
        ):
            METHODS[method](obj, SolverConfig(max_iters=3))

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("dtype", [complex, object, bool])
    def test_non_real_gradient_after_the_start_raises(self, method, dtype):
        # real at the zero start only: gd ran on to grad_tol with a complex
        # iterate, dropping imaginary parts at every step
        obj = self.diagonal_quadratic(
            lambda g, x: g.astype(dtype) if x.any() else g
        )
        with pytest.raises(
            ProblemMismatch,
            match=f"^iteration k=0: gradient at .* has dtype {np.dtype(dtype)}, ",
        ):
            METHODS[method](obj, SolverConfig(max_iters=3))

    @pytest.mark.parametrize("method", METHODS)
    def test_nan_gradient_after_the_start_is_non_finite(self, method):
        # finite at the zero start, NaN at every other point: qnpe first
        # meets it at a line-search trial point, where a NaN error norm
        # failed every acceptance test and ended as BacktrackCapExceeded
        obj = self.diagonal_quadratic(
            lambda g, x: np.full(3, np.nan) if x.any() else g
        )
        where = "a line-search trial point" if method == "qnpe" else "k=1"
        with pytest.raises(NonFiniteIterate, match=f"in gradient at {where}$"):
            METHODS[method](obj, SolverConfig(max_iters=3))

    @pytest.mark.parametrize("method", METHODS)
    def test_list_gradient_raises_at_the_start(self, method):
        obj = self.diagonal_quadratic(lambda g, x: list(g))
        with pytest.raises(ProblemMismatch, match="start point is a list"):
            METHODS[method](obj, SolverConfig(max_iters=3))

    @pytest.mark.parametrize("method", METHODS)
    def test_steps_below_one_ulp_stall(self, method):
        # at x* the gradient is rounding noise and every step rounds away
        obj = make_quadratic(10, 1.0, 100.0, seed=3)
        cfg = SolverConfig(grad_tol=0.0, max_iters=1000)
        report = METHODS[method](obj, cfg, x0=obj.minimizer)
        assert report.termination == "stalled"
        assert _STALL_LIMIT <= report.iterations < cfg.max_iters
        assert report.final_grad_norm > 0.0
        rounds = [r for r in report.records if r.loss is not None]
        assert len(report.loss_samples) == len(rounds)
        if method == "qnpe":
            # a rejected trial that rounds to x itself runs no learner
            # round: its backtracked iteration carries loss NA
            backtracked = [r for r in report.records if r.backtracked]
            assert all(r.backtracked for r in rounds)
            assert len(backtracked) > len(rounds)

    @pytest.mark.parametrize("method", METHODS)
    def test_report_counters_come_from_records(self, method):
        obj = make_quadratic(5, 1.0, 10.0, seed=0)
        calls = []

        def grad(x):
            calls.append(1)
            return obj.grad(x)

        counted = dataclasses.replace(obj, grad=grad)
        report = METHODS[method](counted, SolverConfig(max_iters=20))
        assert report.iterations > 0
        assert report.total_grad_evals == report.totals()["grad_evals"] + 1
        assert report.total_grad_evals == len(calls)
        assert report.inv_eta_sq_sum == pytest.approx(
            sum(1.0 / r.eta**2 for r in report.records), rel=1e-15
        )

    @pytest.mark.parametrize(
        "method, mode",
        [("qnpe", "lanczos"), ("qnpe", "exact"), ("gd", None), ("bfgs", None)],
    )
    def test_ground_truth_never_steers_a_run(self, monkeypatch, method, mode):
        # x* is read only for the dist_sq column of a recorded iteration: a
        # wrong or missing minimizer changes that column and nothing else
        obj = make_quadratic(20, 1.0, 100.0, seed=7)
        cfg = SolverConfig() if mode is None else SolverConfig(oracle_mode=mode)
        reads = []
        dist_sq = Objective.dist_sq

        def counted(self, x):
            reads.append(1)
            return dist_sq(self, x)

        monkeypatch.setattr(Objective, "dist_sq", counted)
        runs = [
            METHODS[method](dataclasses.replace(obj, minimizer=minimizer), cfg)
            for minimizer in (obj.minimizer, obj.minimizer + 1.0, None)
        ]
        assert len(reads) == 3 * runs[0].iterations
        assert runs[0].termination == "grad_tol"
        assert all(r.dist_sq is None for r in runs[2].records)
        blind = [[r._replace(dist_sq=None) for r in run.records] for run in runs]
        assert blind[1] == blind[0] and blind[2] == blind[0]
        assert all((run.final_x == runs[0].final_x).all() for run in runs)


class TestVerifyTrace:
    def full_run(self, seed=0):
        obj = make_quadratic(10, 1.0, 100.0, seed=seed)
        report = solve(obj, SolverConfig(oracle_mode="exact", grad_tol=1e-8))
        return obj, report

    def test_clean_run_passes_everything(self):
        obj, report = self.full_run()
        certs = verify_trace(report, obj, regret_competitors=5)
        assert certs.all_passed
        for cert in certs.results:
            assert cert.applicable
            assert cert.margin is not None

    def test_exact_curvature_run_has_strictly_positive_margins(self):
        obj = make_quadratic(8, 1.0, 20.0, seed=4)
        a = obj.hessian(np.zeros(8))
        report = solve(
            obj, SolverConfig(b0=a, oracle_mode="exact", grad_tol=1e-10)
        )
        certs = verify_trace(report, obj)
        assert certs.all_passed
        for cert in certs.results:
            assert cert.margin > 0.0

    def test_logistic_run_passes(self):
        obj = make_logistic(40, 8, 0.1, seed=1)
        report = solve(obj, SolverConfig(oracle_mode="exact", grad_tol=1e-9))
        assert verify_trace(report, obj).all_passed

    def test_injected_step_floor_violation(self):
        obj, report = self.full_run()
        bad = IterationRecord(
            k=report.records[-1].k + 1,
            eta=1e-9,
            backtracked=False,
            ls_steps=1,
            grad_evals=2,
            mv_linsolve=0,
            mv_extevec=0,
            grad_norm=1.0,
            dist_sq=report.records[-1].dist_sq,
            hat_disp=0.0,
        )
        tampered = SolverReport(
            method="qnpe",
            records=report.records + (bad,),
            final_x=report.final_x,
            final_grad_norm=report.final_grad_norm,
            termination=report.termination,
            config=report.config,
            loss_samples=report.loss_samples,
        )
        certs = verify_trace(tampered, obj)
        cert = certs["step_floor"]
        assert not cert.passed
        assert f"k={bad.k}" in cert.detail

    def test_empty_trace_vacuously_passes(self):
        obj = make_quadratic(5, 1.0, 10.0, seed=0)
        report = solve(obj, SolverConfig(), x0=obj.minimizer)
        assert report.iterations == 0
        assert verify_trace(report, obj).all_passed

    def test_missing_ground_truth(self):
        plain = Objective(dim=2, grad=lambda x: x, mu=1.0, l1=1.0)
        report = solve(plain, SolverConfig(max_iters=2, grad_tol=1e-15))
        with pytest.raises(MissingGroundTruth):
            verify_trace(report, plain)

    def test_budget_certificates_structural(self):
        for seed in range(4):
            obj, report = self.full_run(seed)
            certs = verify_trace(report, obj)
            n = report.iterations
            totals = report.totals()
            assert certs["grad_eval_budget"].passed
            # theory-default parameters zero out the log terms
            assert totals["grad_evals"] <= 3 * n
            assert totals["ls_steps"] <= 2 * n

    def test_stepsize_sum_inequality(self):
        obj, report = self.full_run(3)
        cfg = report.config
        lhs = sum(1.0 / r.eta**2 for r in report.records)
        rhs = 1.0 / ((1.0 - cfg.beta**2) * cfg.sigma0**2)
        rhs += sum(
            2.0 * r.loss for r in report.records if r.backtracked
        ) / ((1.0 - cfg.beta**2) * cfg.alpha2**2 * cfg.beta**2)
        assert lhs <= rhs
        assert report.inv_eta_sq_sum == pytest.approx(lhs)

    def test_hessian_evaluated_once_per_call(self):
        obj, report = self.full_run()
        calls = []

        def hessian(x):
            calls.append(1)
            return obj.hessian(x)

        counted = dataclasses.replace(obj, hessian=hessian)
        assert verify_trace(report, counted, regret_competitors=2).all_passed
        assert len(calls) == 1

    def test_baseline_reports_not_applicable(self):
        from qnpe.baselines import solve_gd

        obj = make_quadratic(5, 1.0, 10.0, seed=0)
        report = solve_gd(obj, SolverConfig(max_iters=20))
        certs = verify_trace(report, obj)
        assert all(not c.applicable for c in certs.results)
        assert certs.all_passed

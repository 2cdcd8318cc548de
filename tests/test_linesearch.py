import types

import numpy as np
import pytest

import qnpe.linesearch
from qnpe.core import Objective, PlayedMatrix, SolverConfig, validate_config
from qnpe.errors import BacktrackCapExceeded, NonFiniteIterate
from qnpe.linesearch import BACKTRACK_SLACK, attempt_cap, backtrack
from qnpe.linsolve import conjugate_residual
from qnpe.problems import make_quadratic


def scalar_objective(c, mu, l1):
    return Objective(dim=1, grad=lambda x: c * x, mu=mu, l1=l1)


class TestBacktrack:
    def test_exact_curvature_accepts_first_trial(self):
        # with B equal to the true Hessian the model error is identically
        # zero, so any trial step passes immediately
        obj = make_quadratic(6, 1.0, 50.0, seed=0)
        cfg = validate_config(SolverConfig(), obj)
        a = obj.hessian(np.zeros(6))
        rng = np.random.default_rng(1)
        for sigma in (cfg.sigma0, 1.0, 37.5):
            x = rng.standard_normal(6)
            out = backtrack(x, obj.grad(x), PlayedMatrix(a), sigma, cfg, obj)
            assert out.eta == sigma
            assert out.ls_steps == 1
            assert not out.backtracked

    def test_scalar_closed_form_trace(self):
        # f = (c/2) x^2 with c=4, B=1, alpha1=0: the condition reads
        # eta |c - B| <= alpha2, so the accepted step is the largest
        # sigma beta^i <= 1/12 -> 1/16 after 5 attempts
        obj = scalar_objective(4.0, 1.0, 4.0)
        cfg = validate_config(SolverConfig(alpha1=0.0, sigma0=1.0), obj)
        b = np.array([[1.0]])
        out = backtrack(
            np.array([1.0]), np.array([4.0]), PlayedMatrix(b), 1.0, cfg, obj
        )
        assert out.eta == pytest.approx(1.0 / 16.0)
        assert out.ls_steps == 5
        assert out.backtracked
        # the rejected iterate was computed with step eta/beta = 1/8
        s_tilde = -4.0 * 0.125 / (1.0 + 0.125)
        assert out.x_tilde[0] == pytest.approx(1.0 + s_tilde, rel=1e-12)
        assert out.grad_x_tilde[0] == pytest.approx(4.0 * (1.0 + s_tilde), rel=1e-12)
        # rejection certificate: the last rejected pair fails the condition
        err = abs(out.grad_x_tilde[0] - 4.0 - 1.0 * s_tilde)
        assert 0.25 * err > cfg.alpha2 * abs(s_tilde)

    def test_zero_gradient_accepts_zero_step(self):
        # g numerically zero slipped past the tolerance: s = 0 and the
        # acceptance test holds as 0 <= 0 on the first trial
        obj = scalar_objective(2.0, 1.0, 2.0)
        cfg = validate_config(SolverConfig(), obj)
        out = backtrack(
            np.array([0.0]), np.array([0.0]), PlayedMatrix(np.array([[1.0]])),
            1.0, cfg, obj,
        )
        assert out.eta == 1.0
        assert np.array_equal(out.x_hat, np.array([0.0]))
        assert out.ls_steps == 1

    def test_cap_exceeded_on_bad_metadata(self, monkeypatch):
        # true curvature 100 but metadata claims L1 = 1: the structural
        # floor is violated and the attempt budget must trip
        monkeypatch.setattr(qnpe.linesearch, "BACKTRACK_SLACK", 0)
        obj = scalar_objective(100.0, 0.5, 1.0)
        cfg = validate_config(SolverConfig(), obj)
        with pytest.raises(BacktrackCapExceeded):
            backtrack(
                np.array([1.0]), np.array([100.0]), PlayedMatrix(np.array([[1.0]])),
                cfg.sigma0, cfg, obj,
            )

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_trial_gradient_is_non_finite_iterate(self, bad):
        obj = Objective(
            dim=2, grad=lambda x: np.array([x[0], bad]), mu=1.0, l1=1.0
        )
        cfg = validate_config(SolverConfig(), obj)
        with pytest.raises(NonFiniteIterate, match="line-search trial point"):
            backtrack(
                np.ones(2), np.ones(2), PlayedMatrix(np.eye(2)), 1.0, cfg, obj
            )

    def test_overflowing_error_from_finite_gradient_blames_metadata(
        self, monkeypatch
    ):
        # ||err||^2 overflows to inf although every entry is finite: the
        # finiteness scan passes and the attempt budget trips as before
        monkeypatch.setattr(qnpe.linesearch, "BACKTRACK_SLACK", 0)
        obj = Objective(dim=1, grad=lambda x: np.array([1e300]), mu=0.5, l1=1.0)
        cfg = validate_config(SolverConfig(), obj)
        with pytest.raises(BacktrackCapExceeded):
            backtrack(
                np.array([1.0]), np.array([1.0]), PlayedMatrix(np.eye(1)),
                cfg.sigma0, cfg, obj,
            )

    def test_cr_runs_under_its_own_cap(self, monkeypatch):
        # every CR solve gets only (matvec, rhs, alpha1), so CR's 20 d
        # default is the only CR cap; the objective exposes only the
        # gradient and L1, so no spectral band is read either
        calls = []

        def recording(*args, **kwargs):
            calls.append((args[2:], kwargs))
            return conjugate_residual(*args, **kwargs)

        monkeypatch.setattr(qnpe.linesearch, "conjugate_residual", recording)
        quad = make_quadratic(10, 1.0, 100.0, seed=0)
        cfg = validate_config(SolverConfig(), quad)
        obj = types.SimpleNamespace(grad=quad.grad, l1=quad.l1)
        x = np.ones(10)
        out = backtrack(
            x, quad.grad(x), PlayedMatrix(quad.l1 * np.eye(10)), 4.0, cfg, obj
        )
        assert out.backtracked
        assert calls == [((cfg.alpha1,), {})] * out.ls_steps


class TestInvariants:
    def run_one(self, seed, sigma):
        obj = make_quadratic(10, 1.0, 100.0, seed=seed)
        cfg = validate_config(SolverConfig(), obj)
        b = obj.l1 * np.eye(10)  # crude model forces backtracking
        rng = np.random.default_rng(seed + 100)
        x = rng.standard_normal(10)
        out = backtrack(x, obj.grad(x), PlayedMatrix(b), sigma, cfg, obj)
        return obj, cfg, x, b, out

    @pytest.mark.parametrize("seed", range(6))
    def test_accepted_conditions_hold(self, seed):
        obj, cfg, x, b, out = self.run_one(seed, sigma=4.0)
        s = out.x_hat - x
        err = out.grad_x_hat - obj.grad(x) - b @ s
        assert out.eta * np.linalg.norm(err) <= cfg.alpha2 * np.linalg.norm(s)

    @pytest.mark.parametrize("seed", range(6))
    def test_steps_meet_the_linear_solve_condition(self, seed):
        # ||(I + eta B) s + eta g|| <= alpha1 ||s|| for the accepted step and,
        # at eta / beta, for the last rejected one
        obj, cfg, x, b, out = self.run_one(seed, sigma=4.0)
        g = obj.grad(x)
        steps = [(out.eta, out.x_hat - x)]
        if out.backtracked:
            steps.append((out.eta / cfg.beta, out.x_tilde - x))
        for eta, s in steps:
            resid = s + eta * (b @ s) + eta * g
            bound = cfg.alpha1 * np.linalg.norm(s) * (1.0 + 1e-8)
            assert np.linalg.norm(resid) <= bound

    @pytest.mark.parametrize("seed", range(6))
    def test_step_floor(self, seed):
        obj, cfg, _, _, out = self.run_one(seed, sigma=4.0)
        assert out.eta >= cfg.alpha2 * cfg.beta / obj.l1

    @pytest.mark.parametrize("seed", range(6))
    def test_backtracked_lower_bound_and_displacement(self, seed):
        obj, cfg, x, b, out = self.run_one(seed, sigma=4.0)
        if not out.backtracked:
            return
        s_tilde = out.x_tilde - x
        err = out.grad_x_tilde - obj.grad(x) - b @ s_tilde
        lower = cfg.alpha2 * cfg.beta * np.linalg.norm(s_tilde)
        lower /= np.linalg.norm(err)
        assert out.eta > lower * (1.0 - 1e-12)
        ratio = (1.0 + cfg.alpha1) / (cfg.beta * (1.0 - cfg.alpha1))
        assert np.linalg.norm(s_tilde) <= ratio * np.linalg.norm(out.x_hat - x)

    @pytest.mark.parametrize("sigma", [0.25, 1.0, 8.0])
    def test_attempt_accounting(self, sigma):
        obj, cfg, _, _, out = self.run_one(2, sigma=sigma)
        expected = np.log(sigma / out.eta) / np.log(1.0 / cfg.beta) + 1.0
        assert out.ls_steps == pytest.approx(expected, abs=1e-9)

    def test_gradients_are_cached_verbatim(self):
        obj, cfg, x, b, out = self.run_one(3, sigma=4.0)
        assert np.array_equal(out.grad_x_hat, obj.grad(out.x_hat))
        if out.backtracked:
            assert np.array_equal(out.grad_x_tilde, obj.grad(out.x_tilde))


class TestAttemptCap:
    def test_formula(self):
        # ceil(log2(sigma L1 / (alpha2 beta))) + BACKTRACK_SLACK
        assert attempt_cap(1.0, 4.0, 0.25, 0.5) == 5 + BACKTRACK_SLACK
        assert attempt_cap(0.25, 1.0, 0.25, 0.5) == 1 + BACKTRACK_SLACK

    def test_at_least_one(self):
        assert attempt_cap(1e-3, 1.0, 0.25, 0.5) >= 1 + BACKTRACK_SLACK

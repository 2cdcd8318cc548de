import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qnpe.learner
from qnpe.core import (
    Objective,
    SolverConfig,
    default_delta,
    resolve_initial_matrix,
    validate_config,
)
from qnpe.errors import (
    InvalidSpectrum,
    ParameterConflict,
    StateMismatch,
    ZeroDisplacement,
)
from qnpe.learner import HessianLearner, LossSample, failure_budget, loss, to_hat
from qnpe.problems import make_quadratic
from qnpe.solver import solve
from reference import (
    from_hat,
    loss_gradient,
    played_dense,
    project_frobenius_ball,
    replay_rounds,
    separator,
)


def random_sample(d, rng):
    s = rng.standard_normal(d)
    y = rng.standard_normal(d)
    return LossSample(s, y)


class TestSpectralTransform:
    MU, L1 = 1.0, 3.0

    def test_center_maps_to_origin(self):
        b = 0.5 * (self.L1 + self.MU) * np.eye(4)
        assert np.allclose(to_hat(b, self.MU, self.L1), np.zeros((4, 4)), atol=1e-14)

    def test_edges(self):
        up = to_hat(self.L1 * np.eye(3), self.MU, self.L1)
        lo = to_hat(self.MU * np.eye(3), self.MU, self.L1)
        assert np.allclose(up, np.eye(3), atol=1e-14)
        assert np.allclose(lo, -np.eye(3), atol=1e-14)

    @pytest.mark.parametrize("seed", range(4))
    def test_round_trip(self, seed):
        rng = np.random.default_rng(seed)
        b = rng.standard_normal((6, 6))
        b = 0.5 * (b + b.T)
        back = from_hat(to_hat(b, self.MU, self.L1), self.MU, self.L1)
        assert np.allclose(back, b, rtol=0.0, atol=1e-14 * np.abs(b).max())

    def test_degenerate_band(self):
        with pytest.raises(InvalidSpectrum, match="^spectral transform needs L1 > mu"):
            to_hat(np.eye(2), 1.0, 1.0)


class TestLoss:
    def test_exact_secant_zero(self):
        rng = np.random.default_rng(0)
        b = rng.standard_normal((5, 5))
        s = rng.standard_normal(5)
        assert loss(b, LossSample(s, b @ s)) == 0.0

    def test_zero_matrix_example(self):
        sample = LossSample(np.array([1.0, 0.0]), np.array([2.0, 0.0]))
        assert loss(np.zeros((2, 2)), sample) == pytest.approx(2.0)

    def test_hand_example(self):
        # B = I, s = (1,1), y = (1,0): ||(0,-1)||^2 / (2*2) = 1/4
        sample = LossSample(np.array([1.0, 1.0]), np.array([1.0, 0.0]))
        assert loss(np.eye(2), sample) == pytest.approx(0.25)

    def test_zero_displacement_rejected(self):
        with pytest.raises(ZeroDisplacement):
            LossSample(np.zeros(3), np.ones(3))


class TestLossGradient:
    def test_unit_example(self):
        sample = LossSample(np.array([1.0, 0.0]), np.array([1.0, 0.0]))
        grad = loss_gradient(np.zeros((2, 2)), sample)
        expected = -np.outer([1.0, 0.0], [1.0, 0.0])
        assert np.allclose(grad, expected, atol=1e-14)

    def test_vanishes_on_exact_secant(self):
        rng = np.random.default_rng(1)
        b = rng.standard_normal((4, 4))
        s = rng.standard_normal(4)
        grad = loss_gradient(b, LossSample(s, b @ s))
        assert np.allclose(grad, np.zeros((4, 4)), atol=1e-14)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        d = 6
        b = rng.standard_normal((d, d))
        b = 0.5 * (b + b.T)
        sample = random_sample(d, rng)
        grad = loss_gradient(b, sample)
        h = 1e-6
        for _ in range(20):
            direction = rng.standard_normal((d, d))
            direction = 0.5 * (direction + direction.T)
            direction /= np.linalg.norm(direction)
            fd = (loss(b + h * direction, sample) - loss(b - h * direction, sample))
            fd /= 2.0 * h
            analytic = float(np.tensordot(grad, direction))
            assert analytic == pytest.approx(fd, rel=1e-6, abs=1e-9)

    @pytest.mark.parametrize("seed", range(5))
    def test_nuclear_norm_bound(self, seed):
        rng = np.random.default_rng(seed + 50)
        d = 7
        b = rng.standard_normal((d, d))
        b = 0.5 * (b + b.T)
        sample = random_sample(d, rng)
        nuclear = np.linalg.norm(loss_gradient(b, sample), "nuc")
        fro = np.linalg.norm(loss_gradient(b, sample))
        bound = np.sqrt(2.0 * loss(b, sample))
        assert fro <= nuclear + 1e-12
        assert nuclear <= bound + 1e-12


class TestProjection:
    def test_inside_unchanged(self):
        w = np.diag([0.5, 0.5])
        assert np.array_equal(project_frobenius_ball(w, 2.0), w)

    def test_scaling_example(self):
        # d=4, w=3I has Frobenius norm 6; radius 2 scales by 1/3
        w = 3.0 * np.eye(4)
        assert np.allclose(project_frobenius_ball(w, 2.0), np.eye(4), atol=1e-14)

    def test_zero(self):
        assert np.array_equal(
            project_frobenius_ball(np.zeros((3, 3)), 1.0), np.zeros((3, 3))
        )


class TestFailureBudget:
    def test_frozen_value(self):
        # q_1 = p / (2.5 * 2 * ln(2)^2); natural logarithm
        assert failure_budget(0.1, 1) == pytest.approx(0.0416273796, rel=1e-8)

    def test_decreasing_and_summable(self):
        p = 0.1
        values = [failure_budget(p, t) for t in range(1, 400)]
        assert all(v > 0 for v in values)
        assert all(a >= b for a, b in zip(values, values[1:]))
        assert sum(values) <= p

    def test_round_zero_not_budgeted(self):
        with pytest.raises(ParameterConflict, match="^rounds are budgeted from t = 1"):
            failure_budget(0.1, 0)


class TestLearner:
    MU, L1 = 1.0, 3.0

    def make(self, b0, **kw):
        defaults = dict(rho=1.0 / 18.0, p=0.05, oracle_mode="exact")
        defaults.update(kw)
        return HessianLearner(b0, self.MU, self.L1, SolverConfig(**defaults))

    def test_round_zero_plays_b0_verbatim(self):
        b0 = np.diag([1.0, 2.0])
        learner = self.make(b0)
        op = learner.predict()
        # the learner holds a float64 b0 itself, so a solve keeps one copy
        assert op.base is b0
        assert (op.scale, op.shift) == (1.0, 0.0)
        assert np.array_equal(played_dense(op), b0)

    @pytest.mark.parametrize("b0", [None, 2.5], ids=["default", "scalar"])
    def test_round_zero_log_of_scaled_identity_runs_no_eigensolve(
        self, monkeypatch, b0
    ):
        # b0 = L1 I or c I is in the band by its factor alone, and an
        # eigvalsh costs O(d^3) (12 ms at d = 400); round 0 plays it as is
        def no_eigensolve(*args, **kwargs):
            raise AssertionError("eigvalsh ran")

        obj = make_quadratic(20, 1.0, 10.0, seed=1)
        monkeypatch.setattr(np.linalg, "eigvalsh", no_eigensolve)
        report = solve(obj, SolverConfig(b0=b0, oracle_mode="exact", max_iters=40))
        first = next(replay_rounds(report, obj))
        c = obj.l1 if b0 is None else b0
        assert np.array_equal(first.played, c * np.eye(20))
        logged = [r.loss for r in report.records if r.loss is not None]
        assert first.loss == logged[0]

    def test_zero_w_maps_to_band_center(self):
        learner = self.make(2.0 * np.eye(2))
        learner.predict()
        learner.update_round(LossSample(np.array([1.0, 0.0]), np.array([2.0, 0.0])))
        learner.w = np.zeros((2, 2))
        b = played_dense(learner.predict())
        assert np.allclose(b, 0.5 * (self.L1 + self.MU) * np.eye(2), atol=1e-14)

    def test_scalar_round_trace(self):
        # mu=1, L1=3, W=2 (scalar): exact oracle gives gamma=2, Bhat=1, B=3;
        # sample s=1, y=1: loss=(1-3)^2/2=2, grad=2, G=2, hinge inactive,
        # W' = clip(2 - 2*rho) to [-1, 1] = 1
        learner = self.make(np.array([[3.0]]), rho=1.0 / 18.0)
        learner.predict()
        learner.update_round(LossSample(np.array([1.0]), np.array([3.0])))
        learner.w = np.array([[2.0]])
        learner.t = 1
        b = played_dense(learner.predict())
        assert b[0, 0] == pytest.approx(3.0)
        value = learner.update_round(LossSample(np.array([1.0]), np.array([1.0])))
        assert value == pytest.approx(2.0)
        assert learner.w[0, 0] == pytest.approx(1.0)

    def test_hinge_active_case_two_frozen_trace(self):
        # legal d=2 state with ||W||_F <= sqrt(2) but ||W||_op > 1:
        # W = diag(1.2, -0.4) -> gamma = 1.2, S = e1 e1^T, B = diag(3, 5/3).
        # Sample s = e2, y = -e2: grad = (8/3) e2 e2^T, the hinge argument
        # <G, Bhat> = -8/9 is negative, so the separator term fires:
        # W' = diag(1.2 - 4/81, -0.4 - 4/27) (projection inactive).
        # The untransformed action <G, B> = 40/9 would leave the first
        # entry untouched; this trace pins the transformed form.
        learner = self.make(2.0 * np.eye(2))
        learner.predict()
        learner.update_round(LossSample(np.array([1.0, 0.0]), np.array([2.0, 0.0])))
        learner.w = np.diag([1.2, -0.4])
        learner.t = 1
        b = played_dense(learner.predict())
        assert np.allclose(b, np.diag([3.0, 5.0 / 3.0]), atol=1e-14)
        value = learner.update_round(
            LossSample(np.array([0.0, 1.0]), np.array([0.0, -1.0]))
        )
        assert value == pytest.approx(32.0 / 9.0)
        expected = np.diag([1.2 - 4.0 / 81.0, -0.4 - 4.0 / 27.0])
        assert np.allclose(learner.w, expected, atol=1e-14)

    def test_zero_gradient_fixed_point(self):
        rng = np.random.default_rng(3)
        b0 = 2.0 * np.eye(3)
        learner = self.make(b0)
        b = played_dense(learner.predict())
        s = rng.standard_normal(3)
        w_before = learner.w.copy()
        learner.update_round(LossSample(s, b @ s))
        assert np.array_equal(learner.w, w_before)

    def test_projection_inactive_inside_ball(self):
        learner = self.make(2.0 * np.eye(2))
        b = played_dense(learner.predict())
        sample = LossSample(np.array([1.0, 0.0]), np.array([2.1, 0.0]))
        grad = (2.0 / (self.L1 - self.MU)) * np.array(
            [[-(2.1 - b[0, 0]), 0.0], [0.0, 0.0]]
        )
        expected = learner.w - learner.cfg.rho * grad
        learner.update_round(sample)
        assert np.linalg.norm(expected) <= np.sqrt(2)
        assert np.allclose(learner.w, expected, atol=1e-14)

    # (inside, projection active): W's spectrum and the secant scale y = f s
    # chosen so each regime occurs; the test asserts that it does
    EQUIVALENCE_CASES = {
        "inside-inactive": (0.5 * np.linspace(-1.0, 1.0, 8), 1.2, (True, False)),
        "inside-active": (0.999 * np.repeat([-1.0, 1.0], 4), 60.0, (True, True)),
        "outside-inactive": (np.r_[1.5, np.full(7, 0.1)], 4.0, (False, False)),
        "outside-active": (np.r_[1.5, np.full(7, 0.9)], 60.0, (False, True)),
    }

    @pytest.mark.parametrize("case", sorted(EQUIVALENCE_CASES))
    def test_in_place_step_matches_reference(self, case):
        eigs, factor, (inside, active) = self.EQUIVALENCE_CASES[case]
        d = eigs.shape[0]
        rng = np.random.default_rng(5)
        basis, _ = np.linalg.qr(rng.standard_normal((d, d)))
        learner = self.make(2.0 * np.eye(d))
        learner.predict()
        learner.update_round(LossSample(np.eye(d)[0], 2.0 * np.eye(d)[0]))
        w = (basis * eigs) @ basis.T
        learner.w = 0.5 * (w + w.T)
        learner.t = 1
        w_before = learner.w.copy()
        op = learner.predict()
        b = played_dense(op)
        outcome = learner._outcome
        assert outcome.inside == inside
        # the top eigenvector of W makes the hinge fire when W is outside
        s = basis[:, np.argmax(eigs)] + 0.1 * rng.standard_normal(d)
        sample = LossSample(s, factor * s)
        grad = (2.0 / (self.L1 - self.MU)) * loss_gradient(b, sample)
        surrogate = grad
        if not inside:
            hinge = max(0.0, -float(np.tensordot(grad, to_hat(b, self.MU, self.L1))))
            assert hinge > 0.0
            surrogate = grad + hinge * separator(outcome)
        stepped = w_before - learner.cfg.rho * surrogate
        assert (np.linalg.norm(stepped) > np.sqrt(d)) == active
        expected = project_frobenius_ball(stepped, np.sqrt(d))
        # made in the round, as the line search makes one per attempt
        matvec = op.shifted_matvec(1.0)
        learner.update_round(sample)
        error = np.linalg.norm(learner.w - expected)
        assert error <= 1e-12 * np.linalg.norm(expected)
        # the oracle and the products read one triangle each, the norm both
        assert np.array_equal(learner.w, learner.w.T)
        # W is updated in place, under the operator predict handed out, and
        # that operator refuses to run on the changed W
        assert np.shares_memory(op.base, learner.w)
        with pytest.raises(StateMismatch):
            matvec(s)
        with pytest.raises(StateMismatch):
            op.shifted_matvec(1.0)(s)
        with pytest.raises(StateMismatch):
            op.residual(sample.y, s)

    @pytest.mark.parametrize("case", ["inside-inactive", "outside-inactive"])
    def test_prediction_matches_reference_formula(self, case):
        eigs, _, (inside, _) = self.EQUIVALENCE_CASES[case]
        d = eigs.shape[0]
        basis, _ = np.linalg.qr(np.random.default_rng(5).standard_normal((d, d)))
        learner = self.make(2.0 * np.eye(d))
        learner.predict()
        learner.update_round(LossSample(np.eye(d)[0], 2.0 * np.eye(d)[0]))
        w = (basis * eigs) @ basis.T
        # Fortran order, the layout `update_round` leaves W in
        learner.w = np.asfortranarray(0.5 * (w + w.T))
        op = learner.predict()
        outcome = learner._outcome
        assert outcome.inside == inside
        gamma = 1.0 if inside else outcome.gamma
        # the operator is W itself under the exact map constants, no copy
        assert op.base is learner.w
        assert op.scale == 0.5 * (self.L1 - self.MU) / gamma
        assert op.shift == 0.5 * (self.L1 + self.MU)
        b_hat = learner.w if inside else learner.w / outcome.gamma
        expected = from_hat(b_hat, self.MU, self.L1)
        error = np.abs(played_dense(op) - expected).max()
        assert error <= 4.0 * np.finfo(float).eps * np.abs(expected).max()

    def test_round_zero_prediction_not_aliased_by_update(self):
        b0 = np.diag([1.5, 2.0, 2.5])
        learner = self.make(b0)
        op = learner.predict()
        sample = LossSample(np.ones(3), np.array([3.0, 1.0, 2.0]))
        learner.update_round(sample)
        # the step moved W, not the b0 that op reads
        assert np.array_equal(op.base, b0)
        assert not np.array_equal(learner.w, to_hat(b0, self.MU, self.L1))
        # but a round-0 operator after the update is a stale prediction
        with pytest.raises(StateMismatch):
            op.shifted_matvec(1.0)(sample.s)
        with pytest.raises(StateMismatch):
            op.residual(sample.y, sample.s)
        assert learner.predict() is not op

    def test_repeated_predict_returns_the_live_operator(self):
        learner = self.make(2.0 * np.eye(3))
        op = learner.predict()
        assert learner.predict() is op
        s = np.ones(3)
        assert np.array_equal(op.shifted_matvec(1.0)(s), 3.0 * s)

    def test_operator_does_not_keep_its_learner_alive(self):
        # a reference cycle would hold W until the cyclic collector runs,
        # which raised the benchmark's peak memory
        learner = self.make(2.0 * np.eye(3))
        op = learner.predict()
        owner = weakref.ref(learner)
        gc.disable()
        try:
            del learner
            assert owner() is None
        finally:
            gc.enable()
        # with its learner gone, nothing can change the base any more
        assert np.array_equal(op.shifted_matvec(1.0)(np.ones(3)), np.full(3, 3.0))

    @given(
        mu=st.floats(1e-6, 1e6),
        ratio=st.floats(1.0, 1e12),
        rho=st.floats(1e-6, 1e6),
        p=st.floats(1e-9, 0.5),
        mode=st.sampled_from(["exact", "lanczos"]),
        seed=st.integers(0, 2**32),
    )
    def test_oracle_slack_comes_from_the_band(self, mu, ratio, rho, p, mode, seed):
        # no config setting reaches delta: it is the largest admissible one
        l1 = mu * ratio
        cfg = SolverConfig(rho=rho, p=p, oracle_mode=mode, seed=seed)
        learner = HessianLearner(l1 * np.eye(2), mu, l1, cfg)
        assert learner.delta == default_delta(mu, l1)

    def test_unvalidated_config_plays_as_the_validated_one(self):
        # validate_config fills in only sigma0, which the learner does not
        # read, so the Lanczos rounds match
        obj = Objective(dim=6, grad=lambda x: x, mu=1.0, l1=3.0)
        raw = SolverConfig()
        validated = validate_config(raw, obj)
        assert raw.sigma0 is None and validated.sigma0 is not None
        b0 = 3.0 * np.eye(6)
        plain = HessianLearner(b0, obj.mu, obj.l1, raw)
        filled = HessianLearner(b0, obj.mu, obj.l1, validated)
        assert plain.delta == filled.delta == default_delta(obj.mu, obj.l1)
        rng = np.random.default_rng(4)
        for _ in range(20):
            played = played_dense(plain.predict())
            assert np.array_equal(played, played_dense(filled.predict()))
            sample = random_sample(6, rng)
            assert plain.update_round(sample) == filled.update_round(sample)
        assert plain.matvecs == filled.matvecs > 0
        assert np.array_equal(plain.w, filled.w)

    def test_update_without_predict(self):
        learner = self.make(2.0 * np.eye(2))
        with pytest.raises(StateMismatch):
            learner.update_round(LossSample(np.ones(2), np.ones(2)))

    def check_feasibility(self, learner, d):
        """Play 60 random rounds; checks the exact spectrum of each played
        matrix against the widened band and ||W||_F after each update
        against sqrt(d), and returns the played matrices."""
        rng = np.random.default_rng(7)
        sqrt_d = np.sqrt(d)
        played = []
        for _ in range(60):
            played.append(played_dense(learner.predict()))
            learner.update_round(random_sample(d, rng))
            assert np.linalg.norm(learner.w) <= sqrt_d + 1e-12
        assert np.array_equal(learner.w, learner.w.T)
        for b in played:
            eigs = np.linalg.eigvalsh(b)
            assert eigs[0] >= self.MU / 2.0 - 1e-10
            assert eigs[-1] <= self.L1 + self.MU / 2.0 + 1e-10
        return played

    def test_feasibility_invariants_exact_mode(self):
        self.check_feasibility(self.make(self.L1 * np.eye(8)), 8)

    def test_feasibility_invariants_lanczos_mode(self):
        learner = self.make(self.L1 * np.eye(8), oracle_mode="lanczos", seed=0)
        played = self.check_feasibility(learner, 8)
        assert np.array_equal(played[0], self.L1 * np.eye(8))

    @pytest.mark.parametrize("seed", range(3))
    def test_per_round_surrogate_domination(self, seed):
        # <G_t, Bhat_t - Bhat> <= <Gtilde_t, W_t - Bhat> for competitors in
        # the unit-operator-norm ball (the regret reduction inequality)
        rng = np.random.default_rng(seed)
        d = 6
        learner = self.make(self.L1 * np.eye(d))
        competitors = []
        for _ in range(10):
            raw = rng.standard_normal((d, d))
            raw = 0.5 * (raw + raw.T)
            lam, vecs = np.linalg.eigh(raw)
            lam = np.clip(lam, -1.0, 1.0)
            competitors.append((vecs * lam) @ vecs.T)
        for _ in range(40):
            b = played_dense(learner.predict())
            outcome = learner._outcome
            b_hat = to_hat(b, self.MU, self.L1)
            w_before = learner.w.copy()
            sample = random_sample(d, rng)
            grad = (2.0 / (self.L1 - self.MU)) * np.array(
                loss_gradient(b, sample)
            )
            if outcome is not None and not outcome.inside:
                hinge = max(0.0, -float(np.tensordot(grad, b_hat)))
                surrogate = grad + hinge * separator(outcome)
            else:
                surrogate = grad
            learner.update_round(sample)
            # the learner's actual step must match the reconstructed
            # surrogate (hinge on the transformed action)
            expected_w = project_frobenius_ball(
                w_before - learner.cfg.rho * surrogate, np.sqrt(d)
            )
            assert np.allclose(learner.w, expected_w, atol=1e-13)
            for comp in competitors:
                lhs = float(np.tensordot(grad, b_hat - comp))
                rhs = float(np.tensordot(surrogate, w_before - comp))
                assert lhs <= rhs + 1e-10

    def test_small_loss_regret_synthetic_stream(self):
        # cumulative loss <= 18 ||B0 - H||_F^2 + 2 * cumulative loss of H
        rng = np.random.default_rng(11)
        d = 6
        target = np.diag(np.linspace(self.MU, self.L1, d))
        b0 = self.L1 * np.eye(d)
        learner = self.make(b0)
        samples = []
        for _ in range(200):
            s = rng.standard_normal(d)
            noise = 0.05 * rng.standard_normal(d) * np.linalg.norm(s)
            samples.append(LossSample(s, target @ s + noise))
        cumulative_loss = 0.0
        for sample in samples:
            learner.predict()
            cumulative_loss += learner.update_round(sample)
        competitor_loss = sum(loss(target, s) for s in samples)
        bound = 18.0 * np.linalg.norm(b0 - target) ** 2 + 2.0 * competitor_loss
        assert cumulative_loss <= bound

    def test_degenerate_band_freezes_b(self):
        learner = HessianLearner(
            np.eye(3), 1.0, 1.0,
            SolverConfig(rho=1.0 / 18.0, p=0.05, oracle_mode="exact"),
        )
        rng = np.random.default_rng(0)
        for _ in range(5):
            op = learner.predict()
            assert (op.scale, op.shift) == (1.0, 0.0)
            assert np.array_equal(played_dense(op), np.eye(3))
            learner.update_round(random_sample(3, rng))
        assert learner.t == 5

    def test_lanczos_mode_runs(self):
        rng = np.random.default_rng(0)
        learner = self.make(self.L1 * np.eye(5), oracle_mode="lanczos", seed=42)
        for _ in range(10):
            learner.predict()
            learner.update_round(random_sample(5, rng))
        assert learner.matvecs > 0
        assert np.linalg.norm(learner.w) <= np.sqrt(5) + 1e-12

    def test_lanczos_queries_follow_the_config(self, monkeypatch):
        # q_t = failure_budget(p, t) and the generator come from cfg, the
        # slack from (mu, L1)
        queries = []
        oracle = qnpe.learner.ext_evec_lanczos

        def spy(w, delta, q, rng):
            queries.append((delta, q, rng.bit_generator.state))
            return oracle(w, delta, q, rng)

        monkeypatch.setattr(qnpe.learner, "ext_evec_lanczos", spy)
        learner = self.make(
            self.L1 * np.eye(4), oracle_mode="lanczos", p=0.01, seed=9
        )
        rng = np.random.default_rng(1)
        for _ in range(4):
            learner.predict()
            learner.update_round(random_sample(4, rng))
        assert [(delta, q) for delta, q, _ in queries] == [
            (default_delta(self.MU, self.L1), failure_budget(0.01, t))
            for t in (1, 2, 3)
        ]
        assert queries[0][2] == np.random.default_rng(9).bit_generator.state


class TestReplay:
    """The report holds everything the learner did: a fresh learner fed
    `report.loss_samples` returns the trace's losses bit for bit."""

    @pytest.mark.parametrize("mode", ["exact", "lanczos"])
    @pytest.mark.parametrize("explicit", [False, True], ids=["l1_eye", "explicit"])
    def test_replay_reproduces_loss_column(self, mode, explicit):
        obj = make_quadratic(20, 1.0, 100.0, seed=0)
        b0 = None
        if explicit:
            rng = np.random.default_rng(5)
            q, _ = np.linalg.qr(rng.standard_normal((20, 20)))
            b0 = (q * rng.uniform(obj.mu, obj.l1, size=20)) @ q.T
            b0 = 0.5 * (b0 + b0.T)
        report = solve(obj, SolverConfig(oracle_mode=mode, b0=b0))
        logged = [r.loss for r in report.records if r.loss is not None]
        rounds = list(replay_rounds(report, obj))
        assert len(logged) > 100
        assert [r.loss for r in rounds] == logged
        assert np.array_equal(
            rounds[0].played, resolve_initial_matrix(report.config, obj)
        )


class TestBand:
    """The matrix the learner plays stays in the band of the paper's
    analysis. Exact mode divides W by its operator norm, so B lies in
    [mu, L1] up to rounding; in Lanczos mode gamma may fall short of
    ||W||_op by the factor 1 + delta with probability at most q_t, and
    delta <= mu / (L1 - mu) widens the band by at most mu/2 on each side.
    The logged Ritz extremes lie inside the true spectrum, so only the
    played matrix itself can show a step out of the band."""

    ROUNDS = 40

    @pytest.mark.parametrize("mode", ["exact", "lanczos"])
    @settings(max_examples=150)
    @given(
        d=st.integers(1, 12),
        kappa=st.floats(1.5, 1e4),
        scale=st.floats(1.0, 100.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_played_matrix_stays_in_band(self, mode, d, kappa, scale, seed):
        mu, l1 = 1.0, kappa
        rng = np.random.default_rng(seed)
        basis, _ = np.linalg.qr(rng.standard_normal((d, d)))
        b0 = (basis * rng.uniform(mu, l1, size=d)) @ basis.T
        cfg = SolverConfig(p=1e-6, oracle_mode=mode, seed=seed)
        if mode == "exact":
            low, high = mu - 1e-9 * l1, l1 + 1e-9 * l1
        else:
            low, high = mu / 2.0, l1 + mu / 2.0
        learner = HessianLearner(0.5 * (b0 + b0.T), mu, l1, cfg)
        for t in range(self.ROUNDS + 1):
            eigs = np.linalg.eigvalsh(played_dense(learner.predict()))
            assert low <= eigs[0] and eigs[-1] <= high, t
            # adversarial secant pairs: y unrelated to s and large against
            # L1 s, so most rounds push W out of the unit ball
            s = rng.standard_normal(d)
            y = scale * l1 * rng.standard_normal(d)
            learner.update_round(LossSample(s, y))


def assert_products_match(op, dense, size, rng):
    """op.shifted_matvec and op.residual against the dense products, to 1e-13
    relative to the size of their terms; `size` bounds the norm of each
    term of the dense matrix, which near mu is a difference of two terms of
    size about L1."""
    d = dense.shape[0]
    v, s, y = rng.standard_normal((3, d))
    eta = rng.uniform(0.01, 10.0) / size
    nv, ns, ny = (float(np.linalg.norm(u)) for u in (v, s, y))
    got = op.shifted_matvec(eta)(v)
    want = v + eta * (dense @ v)
    assert np.linalg.norm(got - want) <= 1e-13 * nv * (1.0 + eta * size)
    got = op.residual(y, s)
    want = y - dense @ s
    assert np.linalg.norm(got - want) <= 1e-13 * (ny + size * ns)


class TestPlayedOperator:
    """The operator `predict` returns applies the paper's played matrix:
    B_0 at round 0 and when mu = L1, from_hat(W / gamma) afterwards
    (gamma = 1 inside), although it forms neither and reads one triangle."""

    ROUNDS = 6

    @pytest.mark.parametrize("mode", ["exact", "lanczos"])
    @pytest.mark.parametrize(
        "case", ["default-b0", "explicit-b0", "inside", "outside", "mu-equals-l1"]
    )
    @settings(max_examples=25)
    @given(
        d=st.integers(1, 12),
        kappa=st.floats(1.5, 1e4),
        norm=st.floats(0.05, 0.95),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_products_match_dense_reference(self, mode, case, d, kappa, norm, seed):
        rng = np.random.default_rng(seed)
        mu = 1.0
        l1 = mu if case == "mu-equals-l1" else kappa
        basis, _ = np.linalg.qr(rng.standard_normal((d, d)))
        if case in ("explicit-b0", "mu-equals-l1"):
            b0 = (basis * rng.uniform(mu, kappa, size=d)) @ basis.T
            b0 = 0.5 * (b0 + b0.T)
        else:
            b0 = l1 * np.eye(d)
        cfg = SolverConfig(p=0.05, oracle_mode=mode, seed=seed)
        learner = HessianLearner(b0, mu, l1, cfg)
        op = learner.predict()
        b0_size = np.linalg.norm(b0, 2)
        assert_products_match(op, b0, b0_size, rng)
        if case in ("inside", "outside"):
            # a W of chosen operator norm, below or above the unit ball
            learner.update_round(random_sample(d, rng))
            radius = norm if case == "inside" else 1.0 + 20.0 * norm
            eigs = radius * rng.uniform(-1.0, 1.0, size=d)
            eigs[0] = radius
            w = (basis * eigs) @ basis.T
            learner.w = 0.5 * (w + w.T)
            learner.predict()
            assert learner._outcome.inside == (case == "inside")
        for _ in range(self.ROUNDS):
            op = learner.predict()
            if learner.degenerate or learner.t == 0:
                dense, size = b0, b0_size
            else:
                outcome = learner._outcome
                gamma = 1.0 if outcome.inside else outcome.gamma
                dense = from_hat(learner.w / gamma, mu, l1)
                w_norm = np.linalg.norm(learner.w, 2) / gamma
                size = 0.5 * (l1 - mu) * w_norm + 0.5 * (l1 + mu)
            assert_products_match(op, dense, size, rng)
            s = rng.standard_normal(d)
            learner.update_round(LossSample(s, l1 * rng.standard_normal(d)))

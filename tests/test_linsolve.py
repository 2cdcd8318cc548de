import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qnpe.core import PlayedMatrix
from qnpe.errors import IterationCapExceeded
from qnpe.linsolve import RESIDUAL_FLOOR, conjugate_residual
from reference import cr_numpy, cr_with_history


def random_spd(d, kappa, seed, lam_max=None):
    rng = np.random.default_rng(seed)
    if lam_max is None:
        lam_max = rng.uniform(1.0, 10.0)
    lam = np.geomspace(lam_max / kappa, lam_max, d)
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    q = q * np.sign(np.diag(r))
    mat = (q * lam) @ q.T
    return mat, lam


class TestExamples:
    def test_identity_single_iteration(self):
        res = conjugate_residual(lambda v: v, np.array([3.0, 4.0]), alpha=0.25)
        assert np.allclose(res.s, [3.0, 4.0], atol=1e-14)
        assert res.iterations == 1
        # one product to start, one inside the single iteration body
        assert res.matvecs == 2

    def test_diagonal_matches_componentwise_solve(self):
        mat = np.diag([1.0, 2.0])
        res = conjugate_residual(lambda v: mat @ v, np.array([1.0, 1.0]), alpha=1e-10)
        assert np.allclose(res.s, [1.0, 0.5], rtol=1e-10)

    def test_zero_rhs_returns_immediately(self):
        res = conjugate_residual(lambda v: v, np.zeros(3), alpha=0.5)
        assert np.array_equal(res.s, np.zeros(3))
        assert res.iterations == 0
        assert res.matvecs == 0


class TestContract:
    @pytest.mark.parametrize("seed", range(8))
    def test_stopping_rule_on_true_residual(self, seed):
        d, kappa, alpha = 40, 100.0, 1e-6
        mat, _ = random_spd(d, kappa, seed)
        b = np.random.default_rng(seed + 1000).standard_normal(d)
        res = conjugate_residual(lambda v: mat @ v, b, alpha)
        true_resid = np.linalg.norm(mat @ res.s - b)
        assert true_resid <= alpha * np.linalg.norm(res.s) * (1.0 + 1e-8)

    def test_alpha_zero_terminates_via_machine_floor(self):
        mat = np.diag([2.0, 5.0])
        b = np.array([1.0, -1.0])
        res = conjugate_residual(lambda v: mat @ v, b, alpha=0.0)
        assert np.allclose(mat @ res.s, b, atol=1e-12)

    def test_cap_exceeded_signals(self):
        mat, _ = random_spd(30, 1e6, seed=0)
        b = np.ones(30)
        with pytest.raises(IterationCapExceeded):
            conjugate_residual(lambda v: mat @ v, b, alpha=1e-12, max_iters=3)

    @settings(max_examples=150)
    @given(
        d=st.integers(1, 30),
        log10_kappa=st.floats(0.0, 4.0),
        alpha=st.floats(0.0, 0.5, exclude_max=True),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_returns_the_first_iterate_meeting_the_rule(
        self, d, log10_kappa, alpha, seed
    ):
        rng = np.random.default_rng(seed)
        lam_max = rng.uniform(1.0, 10.0)
        # log-uniform spectrum pinned to both ends of [lam_max / kappa, lam_max]
        exponents = rng.uniform(0.0, log10_kappa, d)
        exponents[[0, -1]] = 0.0, log10_kappa
        lam = lam_max * 10.0 ** -exponents
        q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        mat = (q * lam) @ q.T
        b = rng.standard_normal(d)
        res, r_norms, s_norms = cr_with_history(mat, b, alpha)

        s_norm, b_norm = np.linalg.norm(res.s), np.linalg.norm(b)
        true_resid = np.linalg.norm(mat @ res.s - b)
        # the recurrence residual drifts from the true one by rounding,
        # O(eps (||A|| ||s|| + ||b||)) per iteration
        drift = 4.0 * (res.iterations + 1) * np.finfo(float).eps
        drift *= lam_max * s_norm + b_norm
        bound = max(alpha * s_norm, RESIDUAL_FLOOR * b_norm)
        assert true_resid <= bound * (1.0 + 1e-8) + drift
        if res.iterations >= 1:
            # the previous iterate missed both tests (s_k to rounding) ...
            assert r_norms[-2] > RESIDUAL_FLOOR * b_norm
            assert r_norms[-2] > alpha * s_norms[-2] * (1.0 - 1e-10)
            # ... so one iteration fewer is not enough
            with pytest.raises(IterationCapExceeded):
                conjugate_residual(
                    lambda v: mat @ v, b, alpha, max_iters=res.iterations - 1
                )


class TestInvariants:
    @pytest.mark.parametrize("seed", range(10))
    def test_residual_monotone_step_increasing(self, seed):
        # alpha large enough that step increments stay above ulp resolution;
        # the strict-increase property is an exact-arithmetic statement
        mat, _ = random_spd(50, 1e3, seed)
        b = np.random.default_rng(seed).standard_normal(50)
        _, r, s = cr_with_history(mat, b, alpha=1e-5)
        assert np.all(r[1:] <= r[:-1] * (1.0 + 1e-12))
        assert np.all(s[1:] > s[:-1])

    @pytest.mark.parametrize("seed", range(6))
    def test_residual_decay_bound(self, seed):
        d = 30
        mat, lam = random_spd(d, 200.0, seed)
        b = np.random.default_rng(seed).standard_normal(d)
        _, r_norms, _ = cr_with_history(mat, b, alpha=1e-9)
        kappa = lam[-1] / lam[0]
        rho = (np.sqrt(kappa) - 1.0) / (np.sqrt(kappa) + 1.0)
        r0 = r_norms[0]
        for k, rk in enumerate(r_norms):
            assert rk <= 2.0 * rho**k * r0 * (1.0 + 1e-10)

    def test_exact_after_m_distinct_eigenvalues(self):
        # 3 distinct eigenvalues on a d=12 operator: residual hits the
        # floor within 3 iterations
        rng = np.random.default_rng(5)
        lam = np.repeat([1.0, 3.0, 9.0], 4)
        q, r = np.linalg.qr(rng.standard_normal((12, 12)))
        q = q * np.sign(np.diag(r))
        mat = (q * lam) @ q.T
        b = rng.standard_normal(12)
        res = conjugate_residual(lambda v: mat @ v, b, alpha=0.0)
        assert res.iterations <= 3
        assert res.residual_norm <= 1e-10 * np.linalg.norm(b)


class TestBitForBit:
    """The BLAS level-1 CR loop rounds exactly as the NumPy-operator loop
    in tests/reference.py, on the line search's own operator v + eta B v."""

    CASES = [
        # (d, kappa, alpha): the alpha rule, the rounding floor (alpha = 0)
        # and one-dimensional systems
        (1, 1.0, 0.25),
        (1, 1.0, 0.0),
        (2, 10.0, 0.0),
        (7, 1e2, 0.5),
        (40, 1e3, 0.25),
        (40, 1e3, 1e-10),
        (100, 1e3, 0.25),
        (100, 1e4, 0.0),
        (200, 1e2, 1e-6),
    ]

    @staticmethod
    def system(d, kappa, seed):
        mat, lam = random_spd(d, kappa, seed)
        mat = 0.5 * (mat + mat.T)
        rng = np.random.default_rng(seed + 500)
        eta = rng.uniform(0.01, 10.0) / lam[-1]
        op = PlayedMatrix(mat, rng.uniform(0.5, 2.0), rng.uniform(0.0, 1.0))
        return op.shifted_matvec(eta), rng.standard_normal(d) * eta

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("d, kappa, alpha", CASES)
    def test_matches_numpy_loop(self, d, kappa, alpha, seed):
        matvec, b = self.system(d, kappa, seed)
        got = conjugate_residual(matvec, b, alpha)
        want = cr_numpy(matvec, b, alpha)
        assert np.array_equal(got.s, want.s)
        assert got.residual_norm == want.residual_norm
        assert got.iterations == want.iterations
        assert got.matvecs == want.matvecs

    @pytest.mark.parametrize("seed", range(3))
    def test_iteration_cap_is_hit_alike(self, seed):
        matvec, b = self.system(60, 1e4, seed)
        full = cr_numpy(matvec, b, 0.0)
        cap = full.iterations - 1
        assert cap >= 1
        with pytest.raises(IterationCapExceeded):
            conjugate_residual(matvec, b, 0.0, cap)
        with pytest.raises(IterationCapExceeded):
            cr_numpy(matvec, b, 0.0, cap)
        # exactly at the cap both still return the same iterate
        got = conjugate_residual(matvec, b, 0.0, full.iterations)
        assert np.array_equal(got.s, full.s)
        assert (got.residual_norm, got.iterations, got.matvecs) == (
            full.residual_norm, full.iterations, full.matvecs,
        )

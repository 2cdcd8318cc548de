import gc
import math
import weakref
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import lapack

import qnpe.extevec
import qnpe.learner
from qnpe.cli import parse_problem
from qnpe.core import SolverConfig
from qnpe.errors import EigFailure, ParameterConflict, ProblemMismatch
from qnpe.extevec import (
    _tridiag_extremes,
    ext_evec_exact,
    ext_evec_lanczos,
    lanczos_budget,
)
from qnpe.learner import HessianLearner, LossSample, to_hat
from qnpe.problems import make_quadratic
from qnpe.solver import solve
from reference import lanczos_numpy, played_dense, separator, separator_action


def random_symmetric(d, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((d, d))
    w = 0.5 * (w + w.T)
    return scale * w / np.linalg.norm(w, 2)


def clipped_unit_ball_matrix(d, rng):
    """Random symmetric matrix with operator norm <= 1 (eigenvalue clip)."""
    raw = rng.standard_normal((d, d))
    raw = 0.5 * (raw + raw.T)
    lam, vecs = np.linalg.eigh(raw)
    lam = np.clip(lam / max(np.abs(lam).max(), 1.0), -1.0, 1.0)
    return (vecs * lam) @ vecs.T


def with_small_dimensions(seeds, d):
    """Parameters (seed, d) for `seeds` at dimension d, ids kept as the
    seed, plus seeds 0 and 1 at d = 1 and d = 2."""
    params = [pytest.param(seed, d, id=str(seed)) for seed in seeds]
    for small in (1, 2):
        params += [
            pytest.param(seed, small, id=f"d{small}-{seed}") for seed in (0, 1)
        ]
    return params


def assert_violations_within_budget(w, op_norm, delta, q, seeds):
    """Over `seeds` Lanczos starts, the share that breaks ||W||_op <=
    (1 + delta) max(gamma, 1) is at most q plus a 99% one-sided binomial
    slack, q + 2.33 sqrt(q (1 - q) / seeds)."""
    violations = 0
    for seed in range(seeds):
        out = ext_evec_lanczos(w, delta, q, np.random.default_rng(seed))
        if op_norm > (1.0 + delta) * max(out.gamma, 1.0):
            violations += 1
    assert violations / seeds <= q + 2.33 * math.sqrt(q * (1 - q) / seeds)


class TestBudget:
    def test_frozen_example(self):
        # delta=1 -> eps=1/4; the N-step bound gets q/2 = 0.05:
        # N = ceil(0.5*ln(11*100/0.05^2) + 0.5) = ceil(6.997) = 7
        budget = lanczos_budget(100, delta=1.0, q=0.1)
        assert budget.epsilon == 0.25
        assert budget.n_iters == 7
        # tolerance = 1 * 0.05 / (4 * 2 * sqrt(100))
        assert budget.tolerance == pytest.approx(6.25e-4, rel=1e-15)

    @pytest.mark.parametrize("d", [1, 2, 40, 400, 10**6])
    @pytest.mark.parametrize("delta", [1e-3, 1e-2, 1.0, 10.0])
    @pytest.mark.parametrize("q", [1e-12, 1e-5, 0.05, 0.9])
    def test_tolerance_formula(self, d, delta, q):
        # stop when b <= tolerance * scale, with
        # tolerance = max(64 eps, delta (q/2) / (4 (1 + delta) sqrt(d)))
        floor = 64.0 * np.finfo(float).eps
        budget = lanczos_budget(d, delta, q)
        formula = delta * (q / 2) / (4.0 * (1.0 + delta) * math.sqrt(d))
        assert budget.tolerance == max(floor, formula)
        assert budget.tolerance >= floor

    def test_cap_at_dimension(self):
        budget = lanczos_budget(5, delta=2.0, q=0.9)
        assert budget.n_iters <= 5

    def test_epsilon_formula(self):
        assert lanczos_budget(10, 1.0, 0.5).epsilon == 0.25
        assert lanczos_budget(10, 0.5, 0.5).epsilon == pytest.approx(1.0 / 6.0)

    def test_argument_validation(self):
        for delta in (0.0, math.nan):
            with pytest.raises(ParameterConflict, match="^delta must be positive$"):
                lanczos_budget(10, delta, 0.5)
        with pytest.raises(ParameterConflict, match=r"^q must be in \(0, 1\)$"):
            lanczos_budget(10, 1.0, 1.0)
        with pytest.raises(ProblemMismatch, match="^d must be >= 1$"):
            lanczos_budget(0, 1.0, 0.5)


class TestExactOracle:
    def test_identity_is_inside_at_the_boundary(self):
        out = ext_evec_exact(np.eye(3))
        assert out.inside
        assert out.gamma == pytest.approx(1.0)
        assert out.sign is None

    def test_zero_matrix(self):
        out = ext_evec_exact(np.zeros((4, 4)))
        assert out.inside
        assert out.gamma == 0.0

    def test_diagonal_separator(self):
        out = ext_evec_exact(np.diag([3.0, -5.0]))
        assert out.gamma == pytest.approx(5.0)
        assert out.sign == -1
        s = separator(out)
        assert np.allclose(np.abs(s), np.diag([0.0, 1.0]), atol=1e-14)
        assert separator_action(out, np.diag([3.0, -5.0])) == pytest.approx(5.0)

    @pytest.mark.parametrize("seed, d", with_small_dimensions(range(5), 12))
    def test_soundness(self, seed, d):
        w = random_symmetric(d, seed, scale=3.0)
        out = ext_evec_exact(w)
        op_norm = np.linalg.norm(w, 2)
        if out.inside:
            assert op_norm <= 1.0 + 1e-12
        else:
            assert np.linalg.norm(w / out.gamma, 2) == pytest.approx(1.0)

    @pytest.mark.parametrize("seed, d", with_small_dimensions(range(4), 10))
    def test_separator_dominates_unit_ball(self, seed, d):
        # <S, W - Bhat> >= gamma - 1 for all ||Bhat||_op <= 1
        w = random_symmetric(d, seed, scale=4.0)
        out = ext_evec_exact(w)
        assert not out.inside
        rng = np.random.default_rng(seed + 77)
        for _ in range(100):
            b_hat = clipped_unit_ball_matrix(d, rng)
            action = separator_action(out, w) - separator_action(out, b_hat)
            assert action >= out.gamma - 1.0 - 1e-10


def identity_plus_low_rank(d, k, scale, seed):
    """W = I + U diag(c) U^T with orthonormal U (d x k), |c| ~ scale and
    mixed signs: a (d - k)-fold eigenvalue cluster at exactly 1, as in the
    learner's iterates, which start at I."""
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.standard_normal((d, k)))
    c = scale * rng.uniform(0.5, 1.5, size=k) * rng.choice([-1.0, 1.0], size=k)
    return np.eye(d) + (u * c) @ u.T


def exact_tie(d, scale, seed):
    """I + rank-2 with hi = -lo exactly: 1 + scale and -(1 + scale) on two
    coordinates picked at random. The oracle breaks the tie towards hi."""
    a, b = np.random.default_rng(seed).choice(d, size=2, replace=False)
    w = np.eye(d)
    w[a, a] = 1.0 + scale
    w[b, b] = -(1.0 + scale)
    return w


CLUSTERED = [
    pytest.param(
        identity_plus_low_rank(d, k, scale, 100 * d + 10 * k + i),
        id=f"d{d}-k{k}-{scale:g}",
    )
    for d in (50, 100)
    for k in (1, 2, 3)
    for i, scale in enumerate((1e-8, 1e-3, 0.5))
] + [
    pytest.param(exact_tie(d, scale, d + i), id=f"tie-d{d}-{scale:g}")
    for d in (50, 100)
    for i, scale in enumerate((1e-8, 1e-3, 0.5))
]


class TestClusteredSpectrum:
    """The learner's W = I + low rank has a 40-90-fold eigenvalue cluster
    at 1.0. Index-selected MRRR (stemr) misses the extreme eigenvalue there,
    and index-selected bisection (stebz), which the kernel uses, reports on
    some of these cases that it did not converge (info = 2); the kernel then
    falls back to root-free QR (sterf). Both paths must match the dense
    reference."""

    @pytest.mark.parametrize("w", CLUSTERED)
    def test_exact_matches_dense_reference(self, w):
        lam = np.linalg.eigh(w)[0]
        gamma = max(lam[-1], -lam[0])
        sign = 1 if lam[-1] >= -lam[0] else -1
        out = ext_evec_exact(w)
        assert out.gamma == pytest.approx(gamma, rel=1e-12, abs=0.0)
        assert out.sign == sign
        u = out.vector
        assert np.linalg.norm(u) == pytest.approx(1.0, rel=1e-12, abs=0.0)
        assert np.linalg.norm(w @ u - sign * out.gamma * u) <= 1e-12


class LapackSpy:
    """scipy's LAPACK wrappers with a count of calls per routine in `calls`;
    each routine named in `fail` reports that info in place of its own."""

    def __init__(self, fail=None):
        self.fail = fail or {}
        self.calls = Counter()

    def __getattr__(self, name):
        real = getattr(lapack, name)

        def counted(*args, **kwargs):
            self.calls[name] += 1
            *out, info = real(*args, **kwargs)
            return (*out, self.fail.get(name, info))

        return counted


def sterf_extremes(alphas, betas):
    if alphas.shape[0] == 1:
        return float(alphas[0]), float(alphas[0])
    vals, info = lapack.dsterf(alphas, betas)
    assert info == 0
    return float(vals[0]), float(vals[-1])


def assert_extremes_match_sterf(alphas, betas):
    """The kernel's extremes agree with sterf's to (8 + m) eps ||T||_inf.

    The m eps is sterf's own error, which grows with m. On the cases of
    largest disagreement among 20 000 random tridiagonals with m <= 60,
    sterf was up to 12.5 eps ||T||_inf from 40-digit reference eigenvalues
    and bisection under 1 eps ||T||_inf.
    """
    m = alphas.shape[0]
    lo, hi = _tridiag_extremes(alphas, betas)
    ref_lo, ref_hi = sterf_extremes(alphas, betas)
    off = np.abs(betas)
    norm = (np.abs(alphas) + np.r_[off, 0.0] + np.r_[0.0, off]).max()
    tol = (8 + m) * np.finfo(float).eps * norm
    assert abs(lo - ref_lo) <= tol
    assert abs(hi - ref_hi) <= tol


def sytrd_tridiagonal(w):
    _, diag, off, _, info = lapack.dsytrd(w.T, lower=1)
    assert info == 0
    return diag, off


class TestBisection:
    """`_tridiag_extremes` finds the two extremes by index-selected
    bisection (stebz) and falls back to sterf when stebz reports failure."""

    @settings(max_examples=150)
    @given(
        m=st.integers(1, 60),
        seed=st.integers(0, 2**32 - 1),
        center=st.sampled_from([0.0, 1.0]),
        spread=st.sampled_from([1e-12, 1e-6, 1e-2, 1.0, 1e3]),
        splits=st.sampled_from([0.0, 0.3]),
    )
    def test_random_tridiagonal_matches_sterf(self, m, seed, center, spread, splits):
        # center 1 with a small spread is the learner's cluster at 1.0;
        # zeroed off-diagonals split T into independent blocks
        rng = np.random.default_rng(seed)
        alphas = center + spread * rng.standard_normal(m)
        betas = spread * rng.standard_normal(m - 1)
        betas[rng.random(m - 1) < splits] = 0.0
        assert_extremes_match_sterf(alphas, betas)

    @pytest.mark.parametrize("m", [2, 3, 17, 60])
    @pytest.mark.parametrize("a, b", [(0.0, 1.0), (1.0, 1e-9), (-3.0, 1e3)])
    def test_toeplitz_closed_form(self, m, a, b):
        # tridiag(b, a, b) has eigenvalues a + 2 b cos(k pi / (m + 1))
        lo, hi = _tridiag_extremes(np.full(m, a), np.full(m - 1, b))
        ends = a + 2.0 * abs(b) * np.cos(np.array([m, 1]) * np.pi / (m + 1))
        tol = 8.0 * np.finfo(float).eps * max(abs(a), abs(b))
        assert abs(lo - ends[0]) <= tol
        assert abs(hi - ends[1]) <= tol

    @pytest.mark.parametrize("w", CLUSTERED)
    def test_clustered_tridiagonal_matches_sterf(self, w):
        assert_extremes_match_sterf(*sytrd_tridiagonal(w))

    def test_clustered_cases_take_both_paths(self, monkeypatch):
        # the clustered regression covers bisection and the sterf fallback
        spy = LapackSpy()
        monkeypatch.setattr(qnpe.extevec, "lapack", spy)
        for param in CLUSTERED:
            ext_evec_exact(param.values[0])
        assert 0 < spy.calls["dsterf"] < len(CLUSTERED)

    @pytest.mark.parametrize("info", [2, 4])
    @pytest.mark.parametrize("w", CLUSTERED[:3] + [random_symmetric(20, 1)])
    def test_bisection_failure_returns_sterf_extremes(self, monkeypatch, info, w):
        diag, off = sytrd_tridiagonal(w)
        spy = LapackSpy({"dstebz": info})
        monkeypatch.setattr(qnpe.extevec, "lapack", spy)
        assert _tridiag_extremes(diag, off) == sterf_extremes(diag, off)
        assert spy.calls["dsterf"] == 1


#: the failures that make `routine` the one that raises: sterf runs only
#: when bisection has failed
RAISING = {
    "dsytrd": {"dsytrd": 1},
    "dsterf": {"dstebz": 2, "dsterf": 1},
    "dstein": {"dstein": 1},
    "dormqr": {"dormqr": 1},
}


class TestLapackFailure:
    @pytest.mark.parametrize("routine", ["dsytrd", "dsterf", "dstein", "dormqr"])
    def test_exact_oracle_raises_typed_error(self, monkeypatch, routine):
        monkeypatch.setattr(qnpe.extevec, "lapack", LapackSpy(RAISING[routine]))
        with pytest.raises(EigFailure, match=routine):
            ext_evec_exact(random_symmetric(6, 0, scale=3.0)).vector

    @pytest.mark.parametrize("routine", ["dsterf", "dstein"])
    def test_lanczos_oracle_raises_typed_error(self, monkeypatch, routine):
        monkeypatch.setattr(qnpe.extevec, "lapack", LapackSpy(RAISING[routine]))
        w = random_symmetric(6, 0, scale=3.0)
        with pytest.raises(EigFailure, match=routine):
            ext_evec_lanczos(w, 1.0, 0.1, np.random.default_rng(0)).vector

    @pytest.mark.parametrize(
        "oracle, routine",
        [("exact", "dstein"), ("exact", "dormqr"), ("lanczos", "dstein")],
    )
    def test_vector_failure_raises_at_first_read(self, monkeypatch, oracle, routine):
        w = random_symmetric(6, 0, scale=3.0)
        monkeypatch.setattr(qnpe.extevec, "lapack", LapackSpy(RAISING[routine]))
        if oracle == "exact":
            out = ext_evec_exact(w)
        else:
            out = ext_evec_lanczos(w, 0.5, 1e-12, np.random.default_rng(0))
        assert out.gamma == pytest.approx(np.linalg.norm(w, 2), rel=1e-12)
        with pytest.raises(EigFailure, match=routine):
            out.vector


def vector_arrays(outcome):
    """The arrays an outcome holds for its on-demand vector, and the buffers
    they are views of."""
    arrays = [a for a in outcome._vector.args if isinstance(a, np.ndarray)]
    return arrays + [a.base for a in arrays if a.base is not None]


class TestOnDemandVector:
    """The separator vector is computed on the first read of
    `SepOutcome.vector`, and the factors it needs live only as long as the
    outcome."""

    @pytest.mark.parametrize("oracle", ["exact", "lanczos"])
    def test_computed_once_on_first_read(self, monkeypatch, oracle):
        spy = LapackSpy()
        monkeypatch.setattr(qnpe.extevec, "lapack", spy)
        w = random_symmetric(12, 4, scale=3.0)
        if oracle == "exact":
            out = ext_evec_exact(w)
        else:
            out = ext_evec_lanczos(w, 0.5, 0.1, np.random.default_rng(4))
        assert spy.calls["dstein"] == 0
        first = out.vector
        assert out.vector is first
        assert spy.calls["dstein"] == 1

    def test_exact_solve_reads_the_vector_only_for_a_positive_hinge(
        self, monkeypatch
    ):
        # the learner needs the separator only when W is outside and the
        # hinge max(0, 2 c r^T Bhat s) is positive; count those rounds from
        # the dense played matrix
        spy = LapackSpy()
        monkeypatch.setattr(qnpe.extevec, "lapack", spy)
        update = HessianLearner.update_round
        active = 0

        def counting_update(learner, sample):
            nonlocal active
            outcome = learner._outcome
            if outcome is not None and not outcome.inside:
                b = played_dense(learner._played)
                resid = sample.y - b @ sample.s
                b_hat = to_hat(b, learner.mu, learner.l1)
                active += float(resid @ (b_hat @ sample.s)) > 0.0
            return update(learner, sample)

        monkeypatch.setattr(HessianLearner, "update_round", counting_update)
        obj, _ = parse_problem("quadratic:d=30,mu=1,l1=100,seed=0")
        solve(obj, SolverConfig(oracle_mode="exact"))
        assert 0 < active < spy.calls["dsytrd"]
        assert spy.calls["dstein"] == active

    @pytest.mark.parametrize("mode", ["exact", "lanczos"])
    def test_round_factors_die_with_the_round(self, monkeypatch, mode):
        # the learner drops its outcome in update_round, and with it the
        # sytrd factors or the Lanczos basis; no cycle may keep them alive
        name = f"ext_evec_{mode}"
        oracle = getattr(qnpe.learner, name)
        refs = []

        def spy(*args):
            out = oracle(*args)
            refs.extend(weakref.ref(a) for a in vector_arrays(out))
            return out

        monkeypatch.setattr(qnpe.learner, name, spy)
        d = 8
        learner = HessianLearner(
            3.0 * np.eye(d), 1.0, 3.0,
            SolverConfig(oracle_mode=mode, seed=0),
        )
        rng = np.random.default_rng(2)
        gc.disable()
        try:
            for _ in range(6):
                learner.predict()
                outcome = learner._outcome
                if outcome is not None:
                    outcome.vector
                    del outcome
                s = rng.standard_normal(d)
                learner.update_round(LossSample(s, 2.0 * s + rng.standard_normal(d)))
                assert learner._outcome is None
                assert all(ref() is None for ref in refs)
        finally:
            gc.enable()
        # round 0 runs no oracle
        assert len(refs) >= 5


class TestLanczosOracle:
    def test_zero_matrix(self):
        rng = np.random.default_rng(0)
        out = ext_evec_lanczos(np.zeros((4, 4)), 1.0, 0.1, rng)
        assert out.inside
        assert out.gamma == 0.0

    def test_scaled_identity_every_vector_is_extreme(self):
        rng = np.random.default_rng(1)
        w = 2.0 * np.eye(3)
        out = ext_evec_lanczos(w, 1.0, 0.1, rng)
        assert not out.inside
        assert out.gamma == pytest.approx(2.0)
        assert separator_action(out, w) == pytest.approx(2.0)

    def test_two_by_two_is_exact(self):
        # d=2 forces N=d, so the oracle reproduces the exact answer
        rng = np.random.default_rng(3)
        w = np.diag([3.0, -5.0])
        out = ext_evec_lanczos(w, 0.5, 0.1, rng)
        assert out.gamma == pytest.approx(5.0, rel=1e-12)
        assert out.sign == -1
        assert np.allclose(np.abs(out.vector), [0.0, 1.0], atol=1e-8)

    @pytest.mark.parametrize("seed", range(10))
    def test_full_budget_matches_exact(self, seed):
        # delta/q chosen so the budget saturates at N = d
        d = 30
        w = random_symmetric(d, seed, scale=5.0)
        assert lanczos_budget(d, 0.05, 1e-12).n_iters == d
        out = ext_evec_lanczos(w, 0.05, 1e-12, np.random.default_rng(seed + 1))
        exact = ext_evec_exact(w)
        assert out.gamma == pytest.approx(exact.gamma, rel=1e-8)

    def test_matvec_accounting(self):
        d = 50
        w = random_symmetric(d, 0, scale=2.0)
        budget = lanczos_budget(d, 1.0, 0.2)
        out = ext_evec_lanczos(w, 1.0, 0.2, np.random.default_rng(0))
        assert out.matvecs == budget.n_iters

    def test_statistical_soundness(self):
        # planted-gap matrix: violations of the (1+delta) guarantee must be
        # rare; 200 seeds at q=0.1 allow a generous binomial slack
        d, delta, q = 40, 0.5, 0.1
        rng = np.random.default_rng(123)
        lam = np.concatenate(([2.0], rng.uniform(-0.5, 0.5, size=d - 1)))
        basis, r = np.linalg.qr(rng.standard_normal((d, d)))
        w = (basis * lam) @ basis.T
        assert_violations_within_budget(w, np.abs(lam).max(), delta, q, 200)

    @pytest.mark.parametrize("q", [0.05, 0.2])
    def test_statistical_soundness_small_delta(self, q):
        # the learner's regime: W = I + low rank, with a cluster spread at
        # the stop tolerance around 1 and one extreme planted at 1 + 2 delta,
        # so a stop on the cluster before the extreme is found is a violation
        d, delta = 60, 1e-2
        tau = lanczos_budget(d, delta, q).tolerance
        rng = np.random.default_rng(17)
        lam = np.ones(d)
        lam[0] = 1.0 + 2.0 * delta
        lam[1:6] += tau * rng.uniform(-2.0, 2.0, size=5)
        basis, _ = np.linalg.qr(rng.standard_normal((d, d)))
        w = (basis * lam) @ basis.T
        assert_violations_within_budget(w, np.abs(lam).max(), delta, q, 400)

    @settings(max_examples=80)
    @given(
        d=st.integers(1, 40),
        seed=st.integers(0, 2**32 - 1),
        scale=st.floats(0.5, 10.0),
        clustered=st.booleans(),
    )
    def test_agrees_with_exact_within_one_plus_delta(self, d, seed, scale, clustered):
        # q = 1e-9 leaves no room for a failure in 80 examples
        delta, q = 1e-3, 1e-9
        if clustered and d > 3:
            w = scale * identity_plus_low_rank(d, 3, 0.1, seed)
        else:
            w = random_symmetric(d, seed, scale=scale)
        exact = ext_evec_exact(w)
        out = ext_evec_lanczos(w, delta, q, np.random.default_rng(seed))
        assert exact.gamma <= (1.0 + delta) * max(out.gamma, 1.0)
        assert out.gamma <= exact.gamma * (1.0 + 1e-10)

    @pytest.mark.parametrize("seed", range(4))
    def test_separator_identity_and_domination(self, seed):
        w = random_symmetric(15, seed, scale=4.0)
        out = ext_evec_lanczos(w, 0.5, 0.05, np.random.default_rng(seed))
        if out.inside:
            return
        # the Ritz construction makes <S, W> match gamma to rounding
        assert separator_action(out, w) == pytest.approx(out.gamma, rel=1e-10)
        rng = np.random.default_rng(seed + 99)
        for _ in range(50):
            b_hat = clipped_unit_ball_matrix(15, rng)
            assert (
                separator_action(out, w) - separator_action(out, b_hat)
                >= out.gamma - 1.0 - 1e-10
            )

    def test_unit_norm_separator(self):
        w = random_symmetric(20, 9, scale=3.0)
        out = ext_evec_lanczos(w, 1.0, 0.1, np.random.default_rng(2))
        if not out.inside:
            assert np.linalg.norm(separator(out)) == pytest.approx(1.0)


def assert_same_outcome(got, want):
    assert got.lam_min == want.lam_min
    assert got.lam_max == want.lam_max
    assert got.matvecs == want.matvecs
    assert np.array_equal(got.vector, want.vector)


class TestLanczosBitForBit:
    """The oracle with BLAS level-1 calls, writing each Lanczos vector into
    its row of an uninitialized basis, rounds exactly as the NumPy-operator
    loop in tests/reference.py."""

    # (kind, d, delta, q, stop): "cap" runs all N < d steps, "full" has
    # N = d, "early" stops on the near-invariance test before N
    CASES = [
        ("random", 1, 0.5, 0.1, "full"),
        ("random", 2, 0.5, 0.1, "full"),
        ("random", 30, 0.05, 1e-12, "full"),
        ("random", 120, 0.5, 0.1, "cap"),
        ("random", 300, 0.01, 1e-3, "cap"),
        ("clustered", 50, 1e-3, 1e-2, "early"),
        ("clustered", 200, 1e-2, 1e-4, "early"),
    ]

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("kind, d, delta, q, stop", CASES)
    def test_matches_numpy_loop(self, kind, d, delta, q, stop, seed):
        if kind == "random":
            w = random_symmetric(d, seed, scale=3.0)
        else:
            w = identity_plus_low_rank(d, 3, 0.2, seed)
        got = ext_evec_lanczos(w, delta, q, np.random.default_rng(seed))
        want = lanczos_numpy(w, delta, q, np.random.default_rng(seed))
        assert_same_outcome(got, want)
        n = lanczos_budget(d, delta, q).n_iters
        stops = {
            "full": got.matvecs == n == d,
            "cap": got.matvecs == n < d,
            "early": got.matvecs < n,
        }
        assert stops[stop]

    @pytest.mark.parametrize("seed", range(4))
    def test_vector_survives_a_later_query(self, seed):
        # an outcome shares no storage with a later query: read after a
        # later query on another W, its vector is still its own Ritz vector
        d, delta, q = 40, 0.5, 0.1
        w = random_symmetric(d, seed, scale=3.0)
        first = ext_evec_lanczos(w, delta, q, np.random.default_rng(seed))
        ext_evec_lanczos(
            random_symmetric(d, seed + 50, scale=5.0), delta, q,
            np.random.default_rng(seed + 50),
        ).vector
        u = first.vector
        want = lanczos_numpy(w, delta, q, np.random.default_rng(seed))
        assert np.array_equal(u, want.vector)
        # a unit vector whose Rayleigh quotient is the extreme Ritz value
        theta = first.lam_max if first.lam_max >= -first.lam_min else first.lam_min
        assert float(u @ u) == pytest.approx(1.0, abs=1e-14)
        assert float(u @ (w @ u)) == pytest.approx(theta, rel=1e-10)


class TestCountRepeatability:
    """The learner's W = I + low rank plus rounding carries a near-degenerate
    cluster at 1.0. A stop test at rounding level let a rounding-level change
    of W move the number of Lanczos steps; the budgeted tolerance does not."""

    def test_rounding_perturbation_keeps_the_count(self, monkeypatch):
        # every Lanczos query the learner makes in 60 iterations of a solve
        d, queries = 100, []
        oracle = qnpe.learner.ext_evec_lanczos

        def spy(w, delta, q, rng):
            queries.append((w.copy(), delta, q))
            return oracle(w, delta, q, rng)

        monkeypatch.setattr(qnpe.learner, "ext_evec_lanczos", spy)
        solve(
            make_quadratic(d, 1.0, 100.0, seed=3),
            SolverConfig(oracle_mode="lanczos", max_iters=60),
        )
        assert len(queries) >= 40
        for i, (w, delta, q) in enumerate(queries):
            noise = np.random.default_rng(i).standard_normal((d, d))
            w_rounded = w + 1e-16 * (noise + noise.T)
            out = oracle(w, delta, q, np.random.default_rng(i))
            twin = oracle(w_rounded, delta, q, np.random.default_rng(i))
            assert twin.matvecs == out.matvecs, i
            assert twin.gamma == pytest.approx(out.gamma, rel=0.0, abs=1e-9), i

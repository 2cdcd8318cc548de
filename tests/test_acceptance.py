"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
All runs are desk scale (seconds); the solver runs use exact-oracle mode
where the guarantees are deterministic, plus dedicated randomized batches
for the Lanczos oracle.
"""

import math
from contextlib import contextmanager

import numpy as np
import pytest

from qnpe.cli import main
from qnpe.core import SolverConfig, resolve_initial_matrix
from qnpe.extevec import ext_evec_exact, ext_evec_lanczos, lanczos_budget
from qnpe.learner import LossSample, loss
from qnpe.problems import make_logistic, make_quadratic, quadratic_objective
from qnpe.solver import solve
from reference import (
    cr_with_history,
    loss_gradient,
    replay_rounds,
    separator_action,
)


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:>2} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {number:>2} {name}: PASS")


def geometric_mean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


def distance_sequence(report, obj):
    dists = [r.dist_sq for r in report.records]
    dists.append(report.final_dist_sq(obj))
    return dists


# --- shared runs (exact-oracle mode) ---

@pytest.fixture(scope="module")
def quadratic_runs():
    runs = []
    cfg = SolverConfig(oracle_mode="exact", grad_tol=1e-7, max_iters=1500)
    for kappa in (10.0, 1e3):
        for seed in range(5):
            obj = make_quadratic(50, 1.0, kappa, seed=seed)
            runs.append((obj, solve(obj, cfg)))
    return runs


@pytest.fixture(scope="module")
def logistic_runs():
    runs = []
    cfg = SolverConfig(oracle_mode="exact", grad_tol=1e-7, max_iters=1500)
    for seed in range(3):
        obj = make_logistic(200, 20, 0.01, seed=seed)
        runs.append((obj, solve(obj, cfg)))
    return runs


@pytest.fixture(scope="module")
def all_runs(quadratic_runs, logistic_runs):
    return quadratic_runs + logistic_runs


@pytest.fixture(scope="module")
def superlinear_run():
    # kappa = 100 spectrum clustered at L1 with one slow eigendirection and
    # a distant start along it: the step-size takeoff then traverses enough
    # orders of magnitude inside double precision to fill the last quarter
    d = 30
    rng = np.random.default_rng(4)
    lam = np.full(d, 100.0)
    lam[0] = 1.0
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    q = q * np.sign(np.diag(r))
    a = (q * lam) @ q.T
    a = 0.5 * (a + a.T)
    obj = quadratic_objective(a, rng.standard_normal(d), 1.0, 100.0)
    x0 = obj.minimizer + 1e8 * q[:, 0]
    # mu = 1, so ||grad|| <= 1e-10 puts x within 1e-20 squared distance
    cfg = SolverConfig(oracle_mode="exact", grad_tol=1e-10, max_iters=30000)
    return obj, solve(obj, cfg, x0=x0)


class TestCriteria:
    def test_01_contraction(self, all_runs):
        with criterion(1, "contraction"):
            for obj, report in all_runs:
                dists = distance_sequence(report, obj)
                for rec, d_now, d_next in zip(report.records, dists, dists[1:]):
                    bound = d_now / (1.0 + 2.0 * rec.eta * obj.mu)
                    assert d_next <= bound + 1e-10 * d_now

    def test_02_linear_rate(self, all_runs):
        with criterion(2, "linear rate"):
            for obj, report in all_runs:
                target = 1.0 / (1.0 + obj.mu / (4.0 * obj.l1)) + 1e-12
                dists = distance_sequence(report, obj)
                for d_now, d_next in zip(dists, dists[1:]):
                    if d_now > 0.0:
                        assert d_next / d_now <= target

    def test_03_step_floor(self, all_runs):
        with criterion(3, "step floor"):
            for obj, report in all_runs:
                cfg = report.config
                floor = cfg.alpha2 * cfg.beta / obj.l1
                assert all(rec.eta >= floor for rec in report.records)

    def test_04_superlinear(self, superlinear_run):
        with criterion(4, "superlinear behavior"):
            obj, report = superlinear_run
            assert report.termination == "grad_tol"
            dists = distance_sequence(report, obj)
            # (a) closed-form envelope with the printed constants (L2 = 0)
            h_star = obj.hessian(obj.minimizer)
            b0 = resolve_initial_matrix(report.config, obj)
            gap = float(np.linalg.norm(b0 - h_star) ** 2)
            denom = obj.l1**2 + 36.0 * gap
            for k in range(1, len(dists)):
                envelope = (
                    1.0 + (math.sqrt(3.0) / 8.0) * obj.mu * math.sqrt(k / denom)
                ) ** (-k)
                assert dists[k] / dists[0] <= envelope
            # (b) last-quarter geometric-mean contraction
            ratios = [b / a for a, b in zip(dists, dists[1:])]
            quarter = len(ratios) // 4
            gm_first = geometric_mean(ratios[:quarter])
            gm_last = geometric_mean(ratios[-quarter:])
            assert gm_last < 0.2
            assert gm_last < 0.5 * gm_first

    def test_05_small_loss_regret(self, all_runs):
        with criterion(5, "small-loss regret"):
            rng = np.random.default_rng(2024)
            for obj, report in all_runs:
                learner_total = sum(
                    r.loss for r in report.records if r.loss is not None
                )
                b0 = resolve_initial_matrix(report.config, obj)
                competitors = [obj.hessian(obj.minimizer)]
                for _ in range(10):
                    basis, _ = np.linalg.qr(
                        rng.standard_normal((obj.dim, obj.dim))
                    )
                    lam = rng.uniform(obj.mu, obj.l1, size=obj.dim)
                    competitors.append((basis * lam) @ basis.T)
                for h in competitors:
                    competitor_total = sum(loss(h, s) for s in report.loss_samples)
                    bound = 18.0 * np.linalg.norm(b0 - h) ** 2
                    bound += 2.0 * competitor_total
                    assert learner_total <= bound

    def test_06_stepsize_sum(self, all_runs):
        with criterion(6, "step-size sum"):
            for obj, report in all_runs:
                cfg = report.config
                lhs = sum(1.0 / r.eta**2 for r in report.records)
                geo = 1.0 - cfg.beta**2
                rhs = 1.0 / (geo * cfg.sigma0**2)
                rhs += sum(
                    2.0 * r.loss for r in report.records if r.backtracked
                ) / (geo * cfg.alpha2**2 * cfg.beta**2)
                assert lhs <= rhs

    def test_07_budgets(self, all_runs):
        with criterion(7, "oracle budgets"):
            for obj, report in all_runs:
                cfg = report.config
                n = report.iterations
                totals = report.totals()
                # sigma0 = 1/(4 L1) zeroes both log terms: margin 0
                grad_term = math.log(4.0 * cfg.sigma0 * obj.l1) / math.log(2.0)
                ls_term = math.log(cfg.sigma0 * obj.l1 / cfg.alpha2) / math.log(2.0)
                assert abs(grad_term) < 1e-9 and abs(ls_term) < 1e-9
                assert totals["grad_evals"] <= 3 * n
                assert totals["ls_steps"] <= 2 * n

    def test_08_conjugate_residual(self):
        with criterion(8, "conjugate residual"):
            d = 100
            rng = np.random.default_rng(888)
            for trial in range(100):
                kappa = 10 ** rng.uniform(1.0, 4.0)
                lam_max = rng.uniform(1.0, 10.0)
                lam = np.geomspace(lam_max / kappa, lam_max, d)
                basis, r = np.linalg.qr(rng.standard_normal((d, d)))
                basis = basis * np.sign(np.diag(r))
                mat = (basis * lam) @ basis.T
                b = rng.standard_normal(d)
                alpha = 10 ** rng.uniform(-5.0, -2.0)
                res, r_norms, s_norms = cr_with_history(mat, b, alpha)
                true_resid = np.linalg.norm(mat @ res.s - b)
                assert true_resid <= alpha * np.linalg.norm(res.s) * (1 + 1e-8)
                bound = 2.0 * math.sqrt(kappa) * math.log(2.0 * lam_max / alpha)
                assert res.iterations <= bound + 1.0
                assert np.all(s_norms[1:] > s_norms[:-1])
                assert np.all(r_norms[1:] <= r_norms[:-1] * (1 + 1e-12))

    def test_09_lanczos_oracle(self):
        with criterion(9, "Lanczos separation oracle"):
            d = 40
            # (a) full budget N = d matches the exact oracle
            assert lanczos_budget(d, 0.05, 1e-12).n_iters == d
            for seed in range(50):
                rng = np.random.default_rng(seed)
                w = rng.standard_normal((d, d))
                w = 0.5 * (w + w.T)
                w *= 3.0 / np.linalg.norm(w, 2)
                out = ext_evec_lanczos(w, 0.05, 1e-12, np.random.default_rng(seed))
                exact = ext_evec_exact(w)
                assert out.gamma == pytest.approx(exact.gamma, rel=1e-8)
            # (b) budgeted runs: guarantee-violation frequency <= q + slack
            q = 0.05
            delta = 0.5
            rng = np.random.default_rng(31)
            lam = np.concatenate(([2.0], rng.uniform(-0.5, 0.5, size=d - 1)))
            basis, _ = np.linalg.qr(rng.standard_normal((d, d)))
            w = (basis * lam) @ basis.T
            op_norm = np.abs(lam).max()
            violations = 0
            for seed in range(400):
                out = ext_evec_lanczos(w, delta, q, np.random.default_rng(seed))
                if op_norm > (1.0 + delta) * max(out.gamma, 1.0):
                    violations += 1
            assert violations / 400 <= q + 0.03
            # (c) separator identities
            comp_rng = np.random.default_rng(99)
            for seed in range(10):
                rng = np.random.default_rng(seed + 500)
                w = rng.standard_normal((d, d))
                w = 0.5 * (w + w.T)
                w *= 4.0 / np.linalg.norm(w, 2)
                exact = ext_evec_exact(w)
                assert separator_action(exact, w) == pytest.approx(
                    exact.gamma, rel=1e-12
                )
                lanc = ext_evec_lanczos(w, 0.5, 0.05, np.random.default_rng(seed))
                for out in (exact, lanc):
                    if out.inside:
                        continue
                    for _ in range(100):
                        raw = comp_rng.standard_normal((d, d))
                        raw = 0.5 * (raw + raw.T)
                        lam_c, vecs = np.linalg.eigh(raw)
                        lam_c = np.clip(lam_c / max(np.abs(lam_c).max(), 1.0), -1, 1)
                        b_hat = (vecs * lam_c) @ vecs.T
                        assert (
                            separator_action(out, w) - separator_action(out, b_hat)
                            >= out.gamma - 1.0 - 1e-10
                        )

    def test_10_loss_gradient(self):
        with criterion(10, "loss gradient"):
            d = 8
            rng = np.random.default_rng(77)
            basis = []
            for i in range(d):
                for j in range(i, d):
                    direction = np.zeros((d, d))
                    direction[i, j] = direction[j, i] = 1.0
                    basis.append(direction / np.linalg.norm(direction))
            for _ in range(100):
                b = rng.standard_normal((d, d))
                b = 0.5 * (b + b.T)
                sample = LossSample(rng.standard_normal(d), rng.standard_normal(d))
                grad = loss_gradient(b, sample)
                h = 1e-6
                for direction in basis:
                    fd = loss(b + h * direction, sample)
                    fd -= loss(b - h * direction, sample)
                    fd /= 2.0 * h
                    analytic = float(np.tensordot(grad, direction))
                    assert analytic == pytest.approx(fd, rel=1e-6, abs=1e-8)
                nuclear = np.linalg.norm(grad, "nuc")
                assert nuclear <= math.sqrt(2.0 * loss(b, sample)) + 1e-12

    def test_11_learner_feasibility(self, all_runs):
        with criterion(11, "learner feasibility"):
            for obj, report in all_runs:
                sqrt_d = math.sqrt(obj.dim)
                lo = obj.mu / 2.0 - 1e-10
                hi = obj.l1 + obj.mu / 2.0 + 1e-10
                logged = [r.loss for r in report.records if r.loss is not None]
                rounds = list(replay_rounds(report, obj))
                assert rounds
                assert [r.loss for r in rounds] == logged
                for entry in rounds:
                    assert entry.w_fro_after <= sqrt_d + 1e-12
                    eigs = np.linalg.eigvalsh(entry.played)
                    assert eigs[0] >= lo
                    assert eigs[-1] <= hi

    def test_12_cli_determinism(self, tmp_path):
        with criterion(12, "CLI determinism"):
            problem = "quadratic:d=20,mu=1,l1=200,seed=9"
            traces = []
            for tag in ("first", "second"):
                trace = tmp_path / f"{tag}.csv"
                code = main([
                    "run", "--problem", problem, "--method", "qnpe",
                    "--seed", "7", "--trace", str(trace),
                    "--summary", str(tmp_path / f"{tag}.txt"),
                    "--out-dir", str(tmp_path),
                ])
                assert code == 0
                traces.append(trace.read_bytes())
            assert traces[0] == traces[1]

import dataclasses
import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qnpe.baselines import solve_gd
from qnpe.core import SolverConfig, resolve_initial_matrix
from qnpe.errors import BacktrackCapExceeded, MissingGroundTruth
from qnpe.learner import loss
from qnpe.problems import make_quadratic
from qnpe.solver import solve
from qnpe.verify import (
    iteration_complexity_bound,
    linear_rate,
    superlinear_denominator,
    superlinear_envelope,
    transition,
    verify_trace,
)
from reference import replay_rounds


class TestDerivedQuantities:
    def test_transition_matches_envelope_denominator(self):
        # the rate (1 + mu/(4 L1) sqrt(k/N_tr))^-k rewrites the printed
        # envelope exactly: 16 L1^2 N_tr = (64/3) * denominator
        obj, report = _exact_run()
        l1 = obj.l1
        b0 = resolve_initial_matrix(report.config, obj)
        gap = float(np.linalg.norm(b0 - obj.hessian(obj.minimizer)) ** 2)
        denom = superlinear_denominator(
            obj.mu, l1, gap, obj.l2, obj.dist_sq(report.x0)
        )
        n_tr = transition(report, obj)
        assert 16.0 * l1**2 * n_tr == pytest.approx(64.0 * denom / 3.0, rel=1e-12)

    def test_envelope_decreases_in_k(self):
        denom = superlinear_denominator(1.0, 10.0, 5.0, 0.0, 1.0)
        values = [superlinear_envelope(k, 1.0, denom) for k in range(0, 200, 10)]
        assert values[0] == 1.0
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_complexity_bound_is_sufficient(self):
        # running the solver for the predicted iteration count reaches eps
        obj = make_quadratic(10, 1.0, 50.0, seed=3)
        report = solve(
            obj, SolverConfig(oracle_mode="exact", grad_tol=0.0,
                              dist_tol=1e-10, max_iters=20000)
        )
        d0_sq = float(np.linalg.norm(report.x0 - obj.minimizer) ** 2)
        rate = linear_rate(obj.mu, obj.l1, report.config.alpha2, report.config.beta)
        bound = iteration_complexity_bound(
            1e-10, obj.mu, obj.l1, transition(report, obj), d0_sq, rate
        )
        assert report.iterations <= math.ceil(bound)

    def test_complexity_bound_takes_the_given_rate(self):
        # at alpha2 = 1/8 the certified rate is mu/(8 L1), not mu/(4 L1);
        # with eps >= 1 the bound is the linear expression alone
        rate = linear_rate(1.0, 100.0, 0.125, 0.5)
        assert rate == 1.0 / 800.0
        bound = iteration_complexity_bound(2.0, 1.0, 100.0, 1.0, 8.0, rate)
        assert bound == math.log(4.0) / math.log1p(1.0 / 800.0)

    @given(st.floats(1e-6, 1e6), st.floats(1.0, 1e6))
    @settings(max_examples=50, deadline=None, derandomize=True)
    def test_default_rate_is_mu_over_4_l1(self, mu, factor):
        # bit for bit, so n_eps_bound at the defaults keeps its digits
        l1 = mu * factor
        assert linear_rate(mu, l1, 0.25, 0.5) == mu / (4.0 * l1)

    def test_transition_needs_b0_and_ground_truth(self):
        obj = make_quadratic(5, 1.0, 10.0, seed=0)
        cfg = SolverConfig(max_iters=3)
        report = solve(obj, cfg)
        assert transition(report, obj) >= 4.0 / 3.0
        assert transition(solve_gd(obj, cfg), obj) is None
        assert transition(report, dataclasses.replace(obj, l2=None)) is None

    def test_complexity_bound_zero_when_already_accurate(self):
        assert iteration_complexity_bound(1.0, 1.0, 10.0, 2.0, 0.5, 0.025) == 0.0


class TestMetadataGuards:
    def test_lying_smoothness_metadata_raises(self, monkeypatch):
        import qnpe.linesearch
        from qnpe.core import Objective

        monkeypatch.setattr(qnpe.linesearch, "BACKTRACK_SLACK", 0)
        liar = Objective(dim=1, grad=lambda x: 100.0 * x, mu=0.5, l1=1.0)
        cfg = SolverConfig(max_iters=50)
        with pytest.raises(BacktrackCapExceeded):
            solve(liar, cfg, x0=np.array([1.0]))


@functools.lru_cache(maxsize=None)
def _exact_run():
    obj = make_quadratic(10, 1.0, 100.0, seed=0)
    return obj, solve(obj, SolverConfig(oracle_mode="exact", grad_tol=1e-8))


def _first_min(pairs):
    """(margin, k) of the first NaN margin if there is one, else of the
    smallest margin, first k on ties; (inf, None) when there is none."""
    best, best_k = math.inf, None
    for k, margin in pairs:
        if math.isnan(margin):
            return margin, k
        if best_k is None or margin < best:
            best, best_k = margin, k
    return best, best_k


_edit = st.tuples(
    st.integers(min_value=0),
    st.one_of(st.none(), st.floats(1e-6, 1.0)),
    st.one_of(
        st.none(),
        st.just(0.0),
        st.just(math.nan),
        st.floats(0.0, 10.0, allow_subnormal=False),
    ),
)


class TestMarginScan:
    """The per-iteration checks report the first NaN margin, else the first
    smallest margin, written out here directly, on traces with edited step
    sizes and distances."""

    @settings(max_examples=60)
    @given(edits=st.lists(_edit, max_size=12))
    def test_worst_margin_and_its_k(self, edits):
        obj, report = _exact_run()
        records = list(report.records)
        for index, eta, dist_sq in edits:
            i = index % len(records)
            changes = {}
            if eta is not None:
                changes["eta"] = eta
            if dist_sq is not None:
                changes["dist_sq"] = dist_sq
            records[i] = records[i]._replace(**changes)
        edited = dataclasses.replace(report, records=tuple(records))

        cfg, mu, l1 = report.config, float(obj.mu), float(obj.l1)
        dists = [r.dist_sq for r in records] + [report.final_dist_sq(obj)]
        floor = cfg.alpha2 * cfg.beta / l1
        target = 1.0 / (1.0 + 2.0 * mu * cfg.alpha2 * cfg.beta / l1) + 1e-12
        b0 = resolve_initial_matrix(cfg, obj)
        gap = float(np.linalg.norm(b0 - obj.hessian(obj.minimizer)) ** 2)
        denom = superlinear_denominator(mu, l1, gap, obj.l2, dists[0])
        expected = {
            "contraction": _first_min(
                (r.k, dists[r.k] / (1.0 + 2.0 * r.eta * mu)
                 + 1e-12 * dists[r.k] - dists[r.k + 1])
                for r in records
            ),
            "linear_rate": _first_min(
                (k, target - dists[k + 1] / dists[k])
                for k in range(len(records)) if dists[k] != 0.0
            ),
            "step_floor": _first_min((r.k, r.eta - floor) for r in records),
            "superlinear_envelope": (
                (math.inf, "x*") if dists[0] == 0.0 else _first_min(
                    (k, superlinear_envelope(k, mu, denom) - dists[k] / dists[0])
                    for k in range(1, len(dists))
                )
            ),
        }

        certs = verify_trace(edited, obj)
        for name, (margin, k) in expected.items():
            cert = certs[name]
            if math.isnan(margin):
                assert math.isnan(cert.margin), name
                assert cert.detail.startswith("NaN margin, "), name
            else:
                assert cert.margin == margin, name
            assert cert.passed is (margin >= 0.0), name
            if k == "x*":
                assert cert.detail == "started at x*"
            elif k is None:
                assert cert.detail == "empty trace"
            else:
                assert cert.detail.endswith(f"worst at k={k}"), name
        assert certs["step_floor"].detail.startswith(f"floor {floor:.6g}, ")


class TestFailClosed:
    def test_nan_distances_fail_their_checks(self):
        # a tampered or reloaded report: every recorded distance is NaN
        obj, report = _exact_run()
        records = tuple(r._replace(dist_sq=math.nan) for r in report.records)
        certs = verify_trace(dataclasses.replace(report, records=records), obj)
        for name in ("contraction", "linear_rate", "superlinear_envelope"):
            cert = certs[name]
            assert cert.applicable and cert.passed is False, name
            assert math.isnan(cert.margin), name
            assert cert.detail.startswith("NaN margin, "), name
        assert not certs.all_passed

    def test_one_nan_distance_outranks_a_negative_margin(self):
        obj, report = _exact_run()
        records = list(report.records)
        records[2] = records[2]._replace(dist_sq=1e6)
        records[5] = records[5]._replace(dist_sq=math.nan)
        edited = dataclasses.replace(report, records=tuple(records))
        cert = verify_trace(edited, obj)["contraction"]
        assert cert.passed is False and math.isnan(cert.margin)
        assert cert.detail == "NaN margin, worst at k=4"

    @staticmethod
    def _rho_run(rho):
        # B0 = H* + E with ||E||_op = 1 along an interior eigenvector of H*,
        # so B0's spectrum stays in [mu, L1]
        obj = make_quadratic(20, 1.0, 100.0, seed=7)
        h_star = obj.hessian(obj.minimizer)
        u = np.linalg.eigh(h_star)[1][:, 10]
        cfg = SolverConfig(oracle_mode="exact", rho=rho, b0=h_star + np.outer(u, u))
        return obj, solve(obj, cfg)

    def test_small_loss_not_applicable_off_theory_rho(self):
        # the regret bound's 18 ||B0 - H||_F^2 is 1/rho at rho = 1/18, and
        # the envelope and N_tr rest on that bound; at rho = 8 the regret
        # bound was applied anyway and failed with margin about -2e3
        obj, report = self._rho_run(8.0)
        certs = verify_trace(report, obj, regret_competitors=2)
        for name in ("small_loss_regret", "superlinear_envelope"):
            cert = certs[name]
            assert not cert.applicable, name
            assert cert.passed is None and cert.margin is None, name
            assert cert.detail == (
                "bound derived for rho = 1/18 only, run used rho = 8"
            ), name
        assert transition(report, obj) is None

    def test_small_loss_applies_at_theory_rho(self):
        obj, report = self._rho_run(1.0 / 18.0)
        cert = verify_trace(report, obj)["small_loss_regret"]
        assert cert.applicable and cert.passed
        assert cert.detail == "competitor H*"


class TestMissingGroundTruth:
    def test_records_without_distances(self):
        obj, report = _exact_run()
        records = tuple(r._replace(dist_sq=None) for r in report.records)
        with pytest.raises(MissingGroundTruth, match="lacks dist_sq"):
            verify_trace(dataclasses.replace(report, records=records), obj)

    def test_minimizer_without_hessian(self):
        obj, report = _exact_run()
        blind = dataclasses.replace(obj, hessian=None)
        with pytest.raises(MissingGroundTruth, match="Hessian"):
            verify_trace(report, blind)

    def test_unknown_certificate_name(self):
        obj, report = _exact_run()
        with pytest.raises(KeyError, match="nope"):
            verify_trace(report, obj)["nope"]


class TestDecodedB0:
    """`verify_trace` decodes the run's B0 from its config: under every b0
    policy the regret margin is the one computed from the matrix the run
    started from, which the first replayed round plays."""

    @pytest.mark.parametrize("policy", ["default", "scalar", "explicit"])
    def test_small_loss_margin_reads_the_run_b0(self, policy):
        obj = make_quadratic(12, 1.0, 100.0, seed=3)
        h_star = obj.hessian(obj.minimizer)
        setting, b0 = None, obj.l1 * np.eye(12)
        if policy == "scalar":
            setting = 40.0
            b0 = setting * np.eye(12)
        elif policy == "explicit":
            rng = np.random.default_rng(8)
            q, _ = np.linalg.qr(rng.standard_normal((12, 12)))
            setting = (q * rng.uniform(obj.mu, obj.l1, size=12)) @ q.T
            setting = b0 = 0.5 * (setting + setting.T)
        report = solve(obj, SolverConfig(oracle_mode="exact", b0=setting))
        assert np.array_equal(next(replay_rounds(report, obj)).played, b0)

        learner_total = sum(r.loss for r in report.records if r.loss is not None)
        competitor_total = sum(loss(h_star, s) for s in report.loss_samples)
        gap = float(np.linalg.norm(b0 - h_star) ** 2)
        margin = 1.0 / (1.0 / 18.0) * gap + 2.0 * competitor_total - learner_total
        cert = verify_trace(report, obj)["small_loss_regret"]
        assert cert.margin == margin
        assert cert.passed

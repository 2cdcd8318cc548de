"""A catalog of eight seeded defects, each a one-line change to the
algorithm made by a monkeypatch on `qnpe.solver` or `HessianLearner`.

Each one must break the textbook comparison of tests/test_textbook.py on
every one of its three runs in both oracle modes, so the comparison catches
it without the trace digests, which a re-pin moves. The certificates bound outcomes, so a defect
that leaves the run convergent, or even speeds it up, can pass all of them.
"""

import dataclasses
import itertools

import pytest
from test_textbook import CASES, _compare

import qnpe.solver
from qnpe.learner import HessianLearner


def _learner_never_steps(monkeypatch):
    monkeypatch.setattr(HessianLearner, "_step", lambda self, *args: None)


def _sigma_without_the_1_over_beta(monkeypatch):
    # sigma_{k+1} = eta_k: every call after the first starts at beta sigma
    backtrack = qnpe.solver.backtrack
    calls = itertools.count()

    def patched(x, g, played, sigma, cfg, obj):
        if next(calls):
            sigma *= cfg.beta
        return backtrack(x, g, played, sigma, cfg, obj)

    monkeypatch.setattr(qnpe.solver, "backtrack", patched)


def _recorded_loss_halved(monkeypatch):
    update = HessianLearner.update_round
    monkeypatch.setattr(
        HessianLearner, "update_round",
        lambda self, sample: 0.5 * update(self, sample),
    )


def _learner_step_18x(monkeypatch):
    # the step runs at 18 rho while cfg.rho, which the certificates read,
    # stays 1/18
    step = HessianLearner._step

    def patched(self, *args):
        cfg = self.cfg
        self.cfg = dataclasses.replace(cfg, rho=18.0 * cfg.rho)
        try:
            step(self, *args)
        finally:
            self.cfg = cfg

    monkeypatch.setattr(HessianLearner, "_step", patched)


def _line_search_alpha2_doubled(monkeypatch):
    backtrack = qnpe.solver.backtrack

    def patched(x, g, played, sigma, cfg, obj):
        cfg = dataclasses.replace(cfg, alpha2=2.0 * cfg.alpha2)
        return backtrack(x, g, played, sigma, cfg, obj)

    monkeypatch.setattr(qnpe.solver, "backtrack", patched)


def _extragradient_without_mu_averaging(monkeypatch):
    monkeypatch.setattr(
        qnpe.solver, "extragradient_step",
        lambda x, x_hat, g_hat, eta, mu: x - eta * g_hat,
    )


def _extragradient_eta_times_1_3(monkeypatch):
    step = qnpe.solver.extragradient_step
    monkeypatch.setattr(
        qnpe.solver, "extragradient_step",
        lambda x, x_hat, g_hat, eta, mu: step(x, x_hat, g_hat, 1.3 * eta, mu),
    )


def _secant_with_accepted_gradient(monkeypatch):
    # the rejected trial's step s paired with the accepted trial's gradient
    backtrack = qnpe.solver.backtrack

    def patched(*args):
        out = backtrack(*args)
        if not out.backtracked:
            return out
        return dataclasses.replace(out, grad_x_tilde=out.grad_x_hat)

    monkeypatch.setattr(qnpe.solver, "backtrack", patched)


#: defect id -> monkeypatch; each comment gives the k at which the
#: comparison first diverged on the three runs, in the order of RUNS, the
#: same in both oracle modes
DEFECTS = {
    "learner_never_steps": _learner_never_steps,  # 3, 2, 2
    "sigma_without_the_1_over_beta": _sigma_without_the_1_over_beta,  # 1, 1, 1
    "recorded_loss_halved": _recorded_loss_halved,  # 2, 1, 1
    "learner_step_18x": _learner_step_18x,  # 3, 2, 2
    "line_search_alpha2_doubled": _line_search_alpha2_doubled,  # 2, 1, 1
    "extragradient_without_mu_averaging":
        _extragradient_without_mu_averaging,  # 1, 1, 9
    "extragradient_eta_times_1_3": _extragradient_eta_times_1_3,  # 1, 1, 1
    "secant_with_accepted_gradient": _secant_with_accepted_gradient,  # 2, 1, 1
}


@pytest.mark.parametrize("spec, mode", CASES)
@pytest.mark.parametrize("defect", DEFECTS)
def test_seeded_defect_breaks_the_comparison(monkeypatch, defect, spec, mode):
    DEFECTS[defect](monkeypatch)
    assert _compare(spec, mode) is not None

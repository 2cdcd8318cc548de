"""Post-hoc machine checks of the per-run invariants and oracle budgets.

`verify_trace` replays a report against the analytical guarantees:
per-iteration contraction, the linear-rate envelope, the universal step
floor, the step-size-sum inequality, the learner's small-loss regret bound,
the superlinear envelope, and the gradient-evaluation budget. Each check
reports pass/fail with its worst-case margin (bound minus observed, so
positive margins mean slack to spare), next to the run's transition
iteration N_tr (`transition`), past which the superlinear envelope beats
the linear one. The regret bound, the envelope and N_tr hold only at the
learner step of their derivation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .core import Objective, SolverReport, budget_log_term, resolve_initial_matrix
from .errors import MissingGroundTruth
from .learner import loss

Array = np.ndarray


@dataclass(frozen=True)
class Certificate:
    """One check's outcome: its margin, or None when the check does not
    apply to the run. It passes iff the margin is nonnegative, so a NaN
    margin fails."""

    name: str
    margin: Optional[float]
    detail: str = ""

    @property
    def passed(self) -> Optional[bool]:
        return None if self.margin is None else self.margin >= 0.0

    @property
    def applicable(self) -> bool:
        return self.margin is not None


@dataclass(frozen=True)
class TraceCertificates:
    results: tuple
    n_tr: Optional[float] = None
    n_eps_bound: Optional[float] = None

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.results if c.applicable)

    def __getitem__(self, name: str) -> Certificate:
        for cert in self.results:
            if cert.name == name:
                return cert
        raise KeyError(name)


def superlinear_denominator(
    mu: float, l1: float, b0_gap_fro_sq: float, l2: float, d0_sq: float
) -> float:
    """L1^2 + 36 ||B0-H*||_F^2 + (27 + 16 L1/mu) L2^2 ||x0-x*||^2."""
    return l1**2 + 36.0 * b0_gap_fro_sq + (27.0 + 16.0 * l1 / mu) * l2**2 * d0_sq


def transition(report: SolverReport, obj: Objective) -> Optional[float]:
    """Iteration N_tr = 4 D / (3 L1^2), D the run's `superlinear_denominator`,
    past which the superlinear envelope beats the linear one; None off the
    `derived` gate and without the minimizer, the Hessian oracle or L2."""
    return _Replay(report, obj).n_tr


def superlinear_envelope(k: int, mu: float, denom: float) -> float:
    """Certified global envelope (1 + (sqrt(3)/8) mu sqrt(k/denom))^(-k)
    on ||x_k - x*||^2 / ||x0 - x*||^2."""
    if k == 0:
        return 1.0
    base = 1.0 + (math.sqrt(3.0) / 8.0) * mu * math.sqrt(k / denom)
    return base ** (-k)


def linear_rate(mu: float, l1: float, alpha2: float, beta: float) -> float:
    """The rate r = 2 mu alpha2 beta / L1 that the step floor alpha2 beta / L1
    certifies: ||x_{k+1} - x*||^2 <= ||x_k - x*||^2 / (1 + r). It is
    mu / (4 L1) at the default alpha2 = 1/4, beta = 1/2."""
    return 2.0 * mu * alpha2 * beta / l1


def iteration_complexity_bound(
    eps: float, mu: float, l1: float, n_tr: float, d0_sq: float, rate: float
) -> float:
    """Upper bound on the iterations needed for ||x-x*||^2 <= eps:
    min of the linear complexity expression at `linear_rate` `rate` and
    the superlinear one."""
    if eps >= d0_sq:
        return 0.0
    target = math.log(d0_sq / eps)
    linear = 1.0 / math.log1p(rate)
    if eps >= 1.0:
        return linear * target
    inner = (mu**2 * math.log(1.0 / eps) / (16.0 * l1**2 * n_tr)) ** (1.0 / 3.0)
    superlinear = 1.0 / math.log1p(inner)
    return min(linear, superlinear) * target


#: relative slack of the contraction and linear-rate bounds, which absorbs
#: the rounding in the recorded distances
_SLACK = 1e-12

#: the learner step size at which the small-loss regret bound (its
#: 18 = 1/rho), the superlinear envelope and N_tr are derived
_THEORY_RHO = 1.0 / 18.0


class _Replay:
    """One report under check. The cached values are computed on first
    use, so only the checks that read them need the ground truth."""

    def __init__(self, report, obj, regret_competitors=0):
        self.report, self.obj = report, obj
        self.records, self.cfg = report.records, report.config
        self.mu, self.l1 = float(obj.mu), float(obj.l1)
        self.regret_competitors = regret_competitors
        self.rate = linear_rate(self.mu, self.l1, self.cfg.alpha2, self.cfg.beta)

    @cached_property
    def dists(self) -> list:
        """||x_k - x*||^2 for every iterate, the final one included."""
        if self.obj.minimizer is None:
            raise MissingGroundTruth("minimizer required for distance checks")
        dists = [r.dist_sq for r in self.records]
        if any(v is None for v in dists):
            raise MissingGroundTruth("trace lacks dist_sq entries")
        dists.append(self.report.final_dist_sq(self.obj))
        return dists

    @cached_property
    def h_star(self) -> Array:
        """The Hessian at the minimizer."""
        if self.obj.minimizer is None or self.obj.hessian is None:
            raise MissingGroundTruth("check needs the Hessian at the minimizer")
        return self.obj.hessian(self.obj.minimizer)

    @cached_property
    def b0(self) -> Array:
        """The run's initial curvature matrix, decoded from its config."""
        return resolve_initial_matrix(self.cfg, self.obj)

    @property
    def derived(self) -> bool:
        """Whether the regret-derived bounds (small-loss regret, envelope,
        N_tr) hold: a qnpe run at the learner step of the derivation."""
        return self.report.method == "qnpe" and self.cfg.rho == _THEORY_RHO

    @cached_property
    def denominator(self) -> float:
        """`superlinear_denominator` of the run's B0 and start point."""
        if self.obj.l2 is None:
            raise MissingGroundTruth("superlinear envelope needs L2")
        gap = float(np.linalg.norm(self.b0 - self.h_star) ** 2)
        return superlinear_denominator(
            self.mu, self.l1, gap, self.obj.l2, self.dists[0]
        )

    @cached_property
    def n_tr(self) -> Optional[float]:
        """`transition`'s N_tr of the run."""
        if not self.derived:
            return None
        try:
            return 4 * self.denominator / (3 * self.l1**2)
        except MissingGroundTruth:
            return None

    @cached_property
    def learner_loss(self) -> float:
        """sum_t l_t(B_t) over the learner rounds."""
        return sum(r.loss for r in self.records if r.loss is not None)


def verify_trace(
    report: SolverReport,
    obj: Objective,
    *,
    regret_competitors: int = 0,
) -> TraceCertificates:
    """Evaluate every certificate on a trace, and the run's N_tr and its
    `iteration_complexity_bound` at the final distance, None at x*.

    For baseline reports every check is reported not-applicable. With
    `regret_competitors` > 0 the small-loss bound is additionally checked
    against that many random competitors from the admissible band, drawn
    from a generator seeded with 0.

    Raises:
        MissingGroundTruth: a check needs the minimizer or the Hessian
            oracle and the objective does not expose it.
    """
    run = _Replay(report, obj, regret_competitors)
    results = tuple(
        Certificate(name, *_outcome(run, name, check))
        for name, check in _CHECKS.items()
    )
    if run.n_tr is None or not run.dists[-1] > 0.0:
        return TraceCertificates(results, run.n_tr)
    return TraceCertificates(results, run.n_tr, iteration_complexity_bound(
        run.dists[-1], run.mu, run.l1, run.n_tr, run.dists[0], run.rate
    ))


def _outcome(run, name, check) -> tuple:
    """(margin, detail) of the check `name` on the run, margin None where
    the check does not apply: every check on a baseline, and a `_DERIVED`
    check off the `derived` gate. The gate is decided before the check
    runs, so a closed check reads no ground truth."""
    if run.report.method != "qnpe":
        return None, "method without guarantees"
    if name in _DERIVED and not run.derived:
        rho = run.cfg.rho
        return None, f"bound derived for rho = 1/18 only, run used rho = {rho:.6g}"
    return check(run)


def _worst(pairs, detail="worst at k={k}"):
    """(margin, detail) on the smallest margin of the (k, margin) pairs, the
    first smallest on ties. A NaN margin counts as the worst: the first one
    fails the check. Without a pair the check passes with margin inf."""
    worst, worst_k = math.inf, None
    for k, margin in pairs:
        if math.isnan(margin):
            return margin, "NaN margin, " + detail.format(k=k)
        if margin < worst:
            worst, worst_k = margin, k
    if worst_k is None:
        return math.inf, "empty trace"
    return worst, detail.format(k=worst_k)


def _check_grad_eval_budget(run) -> tuple:
    """Sum of gradient evaluations <= 3 n + log_{1/beta}(sigma0 L1 / alpha2).
    qnpe records grad_evals = 1 + ls_steps per iteration, so this is also
    the line-search bound sum of ls_steps <= 2 n + the same log term."""
    cfg = run.cfg
    bound = 3.0 * len(run.records) + budget_log_term(
        cfg.sigma0 * run.l1 / cfg.alpha2, cfg.beta
    )
    total = run.report.totals()["grad_evals"]
    return bound - total, f"total {total} vs bound {bound:.6g}"


def _check_contraction(run) -> tuple:
    dists, mu = run.dists, run.mu
    return _worst((
        (rec.k, d_now / (1.0 + 2.0 * rec.eta * mu) + _SLACK * d_now - d_next)
        for rec, d_now, d_next in zip(run.records, dists, dists[1:])
    ))


def _check_linear_rate(run) -> tuple:
    target = 1.0 / (1.0 + run.rate) + _SLACK
    return _worst((
        (k, target - d_next / d_now)
        for k, (d_now, d_next) in enumerate(zip(run.dists, run.dists[1:]))
        if d_now != 0.0
    ))


def _check_step_floor(run) -> tuple:
    floor = run.cfg.alpha2 * run.cfg.beta / run.l1
    return _worst(
        ((rec.k, rec.eta - floor) for rec in run.records),
        detail=f"floor {floor:.6g}, worst at k={{k}}",
    )


def _check_stepsize_sum(run) -> tuple:
    cfg = run.cfg
    lhs = run.report.inv_eta_sq_sum
    geo = 1.0 - cfg.beta**2
    rhs = 1.0 / (geo * cfg.sigma0**2)
    rhs += 2.0 * run.learner_loss / (geo * cfg.alpha2**2 * cfg.beta**2)
    return rhs - lhs, f"sum 1/eta^2 = {lhs:.6g} vs bound {rhs:.6g}"


def _regret_gap(run, competitor: Array) -> float:
    """||B0 - H||_F^2 / rho + 2 sum_t l_t(H) - sum_t l_t(B_t) at
    rho = `_THEORY_RHO`."""
    competitor_total = sum(loss(competitor, s) for s in run.report.loss_samples)
    gap_fro_sq = float(np.linalg.norm(run.b0 - competitor) ** 2)
    return 1.0 / _THEORY_RHO * gap_fro_sq + 2.0 * competitor_total - run.learner_loss


def _check_small_loss(run) -> tuple:
    obj = run.obj
    if not run.report.loss_samples:
        return math.inf, "no learner rounds"
    gaps = [("competitor H*", _regret_gap(run, run.h_star))]
    rng, d = np.random.default_rng(0), obj.dim
    for i in range(run.regret_competitors):
        q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        lam = rng.uniform(obj.mu, obj.l1, size=d)
        gaps.append((f"random competitor {i}", _regret_gap(run, (q * lam) @ q.T)))
    return _worst(gaps, detail="{k}")


def _check_displacement_sum(run) -> tuple:
    total = sum(r.hat_disp**2 for r in run.records if r.hat_disp is not None)
    bound = run.dists[0] / (1.0 - run.cfg.alpha1 - run.cfg.alpha2)
    return bound - total, f"sum {total:.6g} vs bound {bound:.6g}"


def _check_superlinear(run) -> tuple:
    denom, dists = run.denominator, run.dists
    if dists[0] == 0.0:
        return math.inf, "started at x*"
    # k = 0 compares 1 <= 1 identically; start at the first real iterate
    return _worst((
        (k, superlinear_envelope(k, run.mu, denom) - d_k / dists[0])
        for k, d_k in enumerate(dists[1:], start=1)
    ))


#: check name -> check(run) on a `_Replay`, in report order
_CHECKS = {
    "contraction": _check_contraction,
    "linear_rate": _check_linear_rate,
    "step_floor": _check_step_floor,
    "stepsize_sum": _check_stepsize_sum,
    "small_loss_regret": _check_small_loss,
    "displacement_sum": _check_displacement_sum,
    "superlinear_envelope": _check_superlinear,
    "grad_eval_budget": _check_grad_eval_budget,
}

#: the checks that hold only on the `derived` gate
_DERIVED = ("small_loss_regret", "superlinear_envelope")

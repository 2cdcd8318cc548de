"""The run loop shared by every method, and the main solver on top of it:
line search, strongly convex extragradient step, trial-step propagation,
conditional learner round, and full trace recording."""

from __future__ import annotations

import math
import time
from dataclasses import replace
from typing import Callable, Optional

import numpy as np

from ._blas import ddot
from .core import (
    IterationRecord,
    Objective,
    SolverConfig,
    SolverReport,
    check_vector,
    require_finite,
    resolve_initial_matrix,
    validate_config,
)
from .errors import ProblemMismatch
from .learner import HessianLearner, LossSample
from .linesearch import backtrack

Array = np.ndarray

#: consecutive zero-displacement iterations before declaring a stall
_STALL_LIMIT = 5


def extragradient_step(
    x: Array, x_hat: Array, g_hat: Array, eta: float, mu: float
) -> Array:
    """Strongly convex extragradient update
    (x - eta g_hat) / (1 + 2 eta mu) + (2 eta mu / (1 + 2 eta mu)) x_hat;
    reduces to x - eta g_hat at mu = 0."""
    denom = 1.0 + 2.0 * eta * mu
    return (x - eta * g_hat) / denom + (2.0 * eta * mu / denom) * x_hat


def run_loop(
    method: str,
    obj: Objective,
    cfg: SolverConfig,
    x0: Optional[Array],
    step: Callable[[Array, Array], tuple],
) -> SolverReport:
    """Iterate `step` from `x0` (zero vector by default) under the shared
    stopping rules; `cfg` must be validated.

    `step(x, g)` returns (x_next, grad at x_next, fields), where `fields`
    holds the `IterationRecord` entries the method sets other than k,
    grad_norm and dist_sq; the rest keep their defaults.
    The loop stops with `termination` set to "grad_tol" when
    ||grad|| <= grad_tol, "dist_tol" when ||x - x*||^2 <= dist_tol (if both
    are available), "stalled" after `_STALL_LIMIT` consecutive steps that
    leave the iterate exactly unchanged, or "max_iters".

    Raises:
        ProblemMismatch: x0 or a gradient is not a real ndarray of shape
            (d,); past the start point the message names the iteration.
        NonFiniteIterate: NaN/Inf in x0, an iterate or a gradient, which
            signals inconsistent (mu, L1) metadata or a broken oracle.
    """
    d = obj.dim
    x = np.zeros(d) if x0 is None else np.asarray(x0)
    check_vector(x, d, "x0")
    x = np.array(x, dtype=float)
    require_finite(x, "x0")
    x_start = x.copy()

    t_begin = time.perf_counter()
    records = []
    stall_run = 0
    termination = "max_iters"
    g = obj.grad(x)
    check_vector(g, d, "gradient at the start point")
    require_finite(g, "gradient at the start point")
    grad_norm = math.sqrt(ddot(g, g))

    for k in range(cfg.max_iters):
        dist_sq = obj.dist_sq(x)
        if grad_norm <= cfg.grad_tol:
            termination = "grad_tol"
            break
        if (
            cfg.dist_tol is not None
            and dist_sq is not None
            and dist_sq <= cfg.dist_tol
        ):
            termination = "dist_tol"
            break

        try:
            x_next, g, fields = step(x, g)
            check_vector(g, d, "gradient at the next iterate")
        except ProblemMismatch as exc:
            raise ProblemMismatch(f"iteration k={k}: {exc}") from exc
        # a finite squared norm proves every entry finite, so only a
        # non-finite one (NaN, Inf, or finite entries that overflow) pays
        # for the full scan, which raises only on a non-finite entry
        if not math.isfinite(ddot(x_next, x_next)):
            require_finite(x_next, f"iterate at k={k}")
        g_sq = ddot(g, g)
        if not math.isfinite(g_sq):
            require_finite(g, f"gradient at k={k + 1}")
        records.append(
            IterationRecord(k=k, grad_norm=grad_norm, dist_sq=dist_sq, **fields)
        )
        stall_run = stall_run + 1 if (x_next == x).all() else 0
        x = x_next
        grad_norm = math.sqrt(g_sq)
        if stall_run >= _STALL_LIMIT:
            termination = "stalled"
            break

    return SolverReport(
        method=method,
        records=tuple(records),
        final_x=x,
        final_grad_norm=grad_norm,
        termination=termination,
        config=cfg,
        x0=x_start,
        wall_time=time.perf_counter() - t_begin,
    )


def solve(
    obj: Objective,
    cfg: Optional[SolverConfig] = None,
    x0: Optional[Array] = None,
) -> SolverReport:
    """Run the solver on `obj` from `x0` (zero vector by default) under the
    stopping rules of `run_loop`, which also lists the errors raised on a
    malformed start or a non-finite iterate."""
    cfg = validate_config(cfg, obj)
    mu = float(obj.mu)
    learner = HessianLearner(resolve_initial_matrix(cfg, obj), mu, obj.l1, cfg)
    sigma = cfg.sigma0
    samples = []

    def step(x, g):
        nonlocal sigma
        mv_before = learner.matvecs
        played = learner.predict()
        mv_extevec = learner.matvecs - mv_before

        ls = backtrack(x, g, played, sigma, cfg, obj)
        x_next = extragradient_step(x, ls.x_hat, ls.grad_x_hat, ls.eta, mu)
        sigma = ls.eta / cfg.beta

        loss = None
        # a rejected trial that rounds to x itself carries no curvature
        if ls.backtracked and not (ls.x_tilde == x).all():
            sample = LossSample(ls.x_tilde - x, ls.grad_x_tilde - g)
            loss = learner.update_round(sample)
            samples.append(sample)
        disp = ls.x_hat - x
        return x_next, obj.grad(x_next), dict(
            eta=ls.eta,
            backtracked=ls.backtracked,
            ls_steps=ls.ls_steps,
            grad_evals=1 + ls.ls_steps,
            mv_linsolve=ls.matvecs,
            mv_extevec=mv_extevec,
            loss=loss,
            hat_disp=math.sqrt(ddot(disp, disp)),
        )

    return replace(
        run_loop("qnpe", obj, cfg, x0, step), loss_samples=tuple(samples)
    )

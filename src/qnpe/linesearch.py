"""Backtracking line search over geometrically decreasing trial steps.

Each attempt solves (I + eta B) s = -eta g inexactly through the CR oracle
(which enforces the relative-residual condition) and accepts the first eta
whose quasi-Newton gradient approximation error passes
eta ||grad(x+s) - g - B s|| <= alpha2 ||s||. When the first trial fails,
the last rejected iterate and its gradient are returned as well: they carry
the curvature information the learner consumes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.linalg.blas import ddot

from .core import Objective, PlayedMatrix, SolverConfig
from .errors import BacktrackCapExceeded
from .linsolve import conjugate_residual, cr_iteration_cap

Array = np.ndarray


@dataclass(frozen=True)
class LineSearchOutcome:
    """Accepted pair (eta, x_hat) with its cached gradient, plus the last
    rejected iterate (computed with step eta/beta) when backtracking
    happened. `ls_steps` counts attempts, one gradient evaluation each;
    `matvecs` counts linear-solver operator applications over all attempts.
    """

    eta: float
    x_hat: Array
    grad_x_hat: Array
    ls_steps: int
    matvecs: int
    x_tilde: Optional[Array] = None
    grad_x_tilde: Optional[Array] = None

    @property
    def backtracked(self) -> bool:
        return self.x_tilde is not None


def attempt_cap(sigma: float, l1: float, alpha2: float, beta: float, slack: int) -> int:
    """Attempt budget ceil(log_{1/beta}(sigma L1 / (alpha2 beta))) + slack.

    The universal step floor eta >= alpha2 beta / L1 guarantees acceptance
    within the ceil term for valid (mu, L1) metadata; exceeding the budget
    is therefore diagnostic of bad metadata.
    """
    ratio = sigma * l1 / (alpha2 * beta)
    base = math.ceil(math.log(ratio) / math.log(1.0 / beta)) if ratio > 1.0 else 0
    return max(base, 1) + slack


def backtrack(
    x: Array,
    g: Array,
    played: PlayedMatrix,
    sigma: float,
    cfg: SolverConfig,
    obj: Objective,
) -> LineSearchOutcome:
    """Largest admissible step in {sigma * beta^i : i >= 0}.

    Requires a validated config; the played matrix B must have spectrum
    inside the widened band [mu/2, L1 + mu/2] for the iteration caps to be
    trustworthy.

    Raises:
        BacktrackCapExceeded: attempt budget exhausted (invalid metadata).
    """
    alpha1, alpha2, beta = cfg.alpha1, cfg.alpha2, cfg.beta
    mu, l1 = obj.mu, obj.l1
    d = x.shape[0]
    cap = attempt_cap(sigma, l1, alpha2, beta, cfg.max_backtracks_slack)

    eta = float(sigma)
    attempts = 0
    matvecs = 0
    x_tilde = grad_tilde = None

    while True:
        lam_max = 1.0 + eta * (l1 + 0.5 * mu)
        lam_min = 1.0 + eta * 0.5 * mu
        cr_cap = cr_iteration_cap(d, lam_max, lam_max / lam_min, alpha1)
        result = conjugate_residual(
            played.shifted_matvec(eta), -eta * g, alpha1, cr_cap
        )
        matvecs += result.matvecs
        s = result.s
        x_hat = x + s
        grad_hat = obj.grad(x_hat)
        attempts += 1
        err = played.residual(grad_hat - g, s)
        if eta * math.sqrt(ddot(err, err)) <= alpha2 * math.sqrt(ddot(s, s)):
            return LineSearchOutcome(
                eta, x_hat, grad_hat, attempts, matvecs, x_tilde, grad_tilde
            )
        if attempts >= cap:
            raise BacktrackCapExceeded(
                f"no admissible step after {attempts} attempts from "
                f"sigma={sigma:.3e}; (mu, L1) metadata is likely invalid"
            )
        x_tilde, grad_tilde = x_hat, grad_hat
        eta = beta * eta

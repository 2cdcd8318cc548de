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

from ._blas import ddot
from .core import (
    Objective,
    PlayedMatrix,
    SolverConfig,
    check_gradient,
    require_finite,
)
from .errors import BacktrackCapExceeded
from .linsolve import conjugate_residual

Array = np.ndarray

#: attempts allowed past the ceil term of `attempt_cap`
BACKTRACK_SLACK = 20


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


def attempt_cap(sigma: float, l1: float, alpha2: float, beta: float) -> int:
    """Attempt budget ceil(log_{1/beta}(sigma L1 / (alpha2 beta))) plus
    BACKTRACK_SLACK.

    The universal step floor eta >= alpha2 beta / L1 guarantees acceptance
    within the ceil term for valid (mu, L1) metadata; exceeding the budget
    is therefore diagnostic of bad metadata.
    """
    ratio = sigma * l1 / (alpha2 * beta)
    base = math.ceil(math.log(ratio) / math.log(1.0 / beta)) if ratio > 1.0 else 0
    return max(base, 1) + BACKTRACK_SLACK


def backtrack(
    x: Array,
    g: Array,
    played: PlayedMatrix,
    sigma: float,
    cfg: SolverConfig,
    obj: Objective,
) -> LineSearchOutcome:
    """Largest admissible step in {sigma * beta^i : i >= 0}.

    Requires a validated config and a played matrix B with I + eta B
    positive definite, the precondition of the CR solves.

    Raises:
        BacktrackCapExceeded: attempt budget exhausted (invalid metadata).
        IterationCapExceeded: a CR solve hit its own 20 d cap.
        NonFiniteIterate: a trial point's gradient holds a NaN or an
            infinity.
        ProblemMismatch: a trial point's gradient is not an ndarray of
            shape (d,).
    """
    alpha1, alpha2, beta = cfg.alpha1, cfg.alpha2, cfg.beta
    cap = attempt_cap(sigma, obj.l1, alpha2, beta)

    eta = float(sigma)
    attempts = 0
    matvecs = 0
    x_tilde = grad_tilde = None

    while True:
        result = conjugate_residual(played.shifted_matvec(eta), -eta * g, alpha1)
        matvecs += result.matvecs
        s = result.s
        x_hat = x + s
        grad_hat = obj.grad(x_hat)
        check_gradient(grad_hat, x.shape[0], "a line-search trial point")
        attempts += 1
        err = played.residual(grad_hat - g, s)
        err_sq = ddot(err, err)
        # a NaN error fails every acceptance test and would end as a
        # BacktrackCapExceeded blaming the metadata; an error norm that
        # overflows from a finite gradient keeps that path
        if not math.isfinite(err_sq):
            require_finite(grad_hat, "gradient at a line-search trial point")
        if eta * math.sqrt(err_sq) <= alpha2 * math.sqrt(ddot(s, s)):
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

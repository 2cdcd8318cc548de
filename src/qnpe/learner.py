"""Online-learning update of the curvature approximation matrix.

The learner plays a symmetric matrix B_t from the widened band
{mu/2 I <= B <= (L1 + mu/2) I} against secant-style losses
l(B) = ||y - B s||^2 / (2 ||s||^2) observed on backtracked iterations.
Internally it runs projected online gradient descent on the Frobenius ball
of radius sqrt(d) in a spectrally normalized coordinate system, using the
separation oracle instead of eigendecomposition projections.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._blas import blas, ddot
from .core import PlayedMatrix, SolverConfig, default_delta, symv
from .errors import DegenerateCurvature, StateMismatch, ZeroDisplacement
from .extevec import SepOutcome, ext_evec_exact, ext_evec_lanczos

Array = np.ndarray


@dataclass(frozen=True)
class LossSample:
    """Displacement s = x_tilde - x and gradient difference y along it."""

    s: Array
    y: Array

    def __post_init__(self):
        if ddot(self.s, self.s) == 0.0:
            raise ZeroDisplacement("loss sample has zero displacement")


def loss(b: Array, sample: LossSample) -> float:
    """Secant loss ||y - B s||^2 / (2 ||s||^2)."""
    resid = sample.y - b @ sample.s
    return float(resid @ resid) / (2.0 * float(sample.s @ sample.s))


def to_hat(b: Array, mu: float, l1: float) -> Array:
    """Affine spectral map onto the unit-operator-norm ball coordinates:
    (2/(L1-mu)) * (B - (L1+mu)/2 * I)."""
    if l1 <= mu:
        raise DegenerateCurvature("spectral transform needs L1 > mu")
    b_hat = np.array(b, dtype=float)
    b_hat.flat[:: b_hat.shape[0] + 1] -= 0.5 * (l1 + mu)
    b_hat *= 2.0 / (l1 - mu)
    return b_hat


def failure_budget(p: float, t: int) -> float:
    """Per-round oracle failure probability q_t = p / (2.5 (t+1) ln^2(t+1)).

    Natural logarithm; the budgets sum to at most p over all rounds t >= 1.
    """
    if t < 1:
        raise ValueError("rounds are budgeted from t = 1")
    return p / (2.5 * (t + 1) * math.log(t + 1) ** 2)


class HessianLearner:
    """Single-owner mutable learner state.

    `predict` returns the matrix to play this round as a `PlayedMatrix`:
    B_0 verbatim at round 0 and when mu = L1, and afterwards the inverse
    spectral map of W / gamma, B = (L1 - mu) / (2 gamma) W + (L1 + mu) / 2 I
    with gamma = 1 when the oracle finds W inside the unit ball. The
    operator reads W itself, so no d x d matrix is formed. `update_round`
    consumes one loss sample, performs the surrogate-gradient step with
    projection onto the Frobenius ball of radius sqrt(d) in place, and
    advances the round counter; it then sets the round's operator `stale`,
    so every product with it raises StateMismatch. Rounds count backtracked
    iterations only: callers skip `update_round` when the first trial step
    was accepted or the rejected trial rounds to x, and repeated `predict`
    calls between updates return the cached prediction.

    The step rho, failure budget p and oracle mode are read from `cfg`; the
    oracle slack delta is `default_delta(mu, l1)`, the largest slack that
    keeps the played matrix in the widened band. The Lanczos oracle draws
    from `np.random.default_rng(cfg.seed)`. The learner holds `b0` itself,
    not a copy, and never writes to it.
    """

    def __init__(self, b0: Array, mu: float, l1: float, cfg: SolverConfig):
        self.mu = float(mu)
        self.l1 = float(l1)
        self.cfg = cfg
        self.delta = default_delta(self.mu, self.l1)
        self.rng = np.random.default_rng(cfg.seed)
        self.radius = math.sqrt(b0.shape[0])
        # mu == L1 pins the admissible band to the single point mu*I: the
        # normalized coordinates are undefined and learning is vacuous.
        self.degenerate = self.l1 <= self.mu
        self.b0 = np.asarray(b0, dtype=float)
        self.w = None if self.degenerate else to_hat(self.b0, mu, l1)
        self.t = 0
        self.matvecs = 0
        # the pending prediction, None until `predict` runs in a round
        self._played: Optional[PlayedMatrix] = None
        # oracle outcome of the pending prediction; None at round 0 and when
        # the band is degenerate, as no oracle runs then
        self._outcome: Optional[SepOutcome] = None

    def predict(self) -> PlayedMatrix:
        """Operator of the matrix to play this round; caches it and the
        oracle outcome for the matching `update_round` call."""
        if self._played is not None:
            return self._played
        if self.degenerate or self.t == 0:
            self._played = PlayedMatrix(self.b0)
            return self._played
        if self.cfg.oracle_mode == "exact":
            outcome = ext_evec_exact(self.w)
        else:
            q = failure_budget(self.cfg.p, self.t)
            outcome = ext_evec_lanczos(self.w, self.delta, q, self.rng)
        self.matvecs += outcome.matvecs
        gamma = 1.0 if outcome.inside else outcome.gamma
        self._played = PlayedMatrix(
            self.w,
            0.5 * (self.l1 - self.mu) / gamma,
            0.5 * (self.l1 + self.mu),
        )
        self._outcome = outcome
        return self._played

    def update_round(self, sample: LossSample) -> float:
        """Consume the round's loss sample and advance; returns the loss
        value incurred by the played matrix."""
        played = self._played
        if played is None:
            raise StateMismatch("update_round without a preceding predict")
        s = sample.s
        ss = ddot(s, s)
        resid = played.residual(sample.y, s)
        value = ddot(resid, resid) / (2.0 * ss)
        if not self.degenerate:
            self._step(self._outcome, s, resid, ss)
        played.stale = True
        self.t += 1
        self._played = None
        self._outcome = None
        return value

    def _step(
        self, outcome: Optional[SepOutcome], s: Array, resid: Array, ss: float
    ):
        """W <- proj(W - rho * (G + hinge * S)) in place.

        G = -c (s r^T + r s^T) with c = 1 / ((L1 - mu) ||s||^2) and
        r = y - B s is the transformed loss gradient, and the hinge
        max(0, -<G, Bhat>) equals max(0, 2 c r^T (Bhat s)). This is the step
        project_frobenius_ball(w - rho * surrogate, sqrt(d)) built from
        `loss_gradient` and `separator`, the dense references in
        tests/reference.py, without d x d temporaries. Every term is a
        symmetric rank-one update q q^T with coefficient +-1, run as BLAS
        ger on W^T (W itself in Fortran order): entries (i, j) and (j, i)
        then receive the same product, so W stays exactly symmetric. The
        products with W read one triangle (`symv`), but the exact oracle's
        `sytrd` reads one triangle too, not necessarily the same, and
        ||W||_F reads both: only an exactly symmetric W is the same matrix
        to all three.
        """
        c = 1.0 / ((self.l1 - self.mu) * ss)
        rho = self.cfg.rho
        w_t = self.w.T
        if outcome is not None and not outcome.inside:
            b_hat_s = symv(1.0 / outcome.gamma, self.w, s)
            hinge = max(0.0, 2.0 * c * ddot(resid, b_hat_s))
            if hinge > 0.0:
                g = math.sqrt(rho * hinge) * outcome.vector
                w_t = blas.dger(-float(outcome.sign), g, g, a=w_t, overwrite_a=True)
        rr = ddot(resid, resid)
        if rr > 0.0:
            # rho c (s r^T + r s^T) = p p^T - m m^T with p, m = x +- y, where
            # x y^T = (rho c / 2) s r^T and ||x|| = ||y|| against cancellation
            half = 0.5 * rho * c
            ratio = math.sqrt(rr / ss)
            x = math.sqrt(half * ratio) * s
            y = math.sqrt(half / ratio) * resid
            plus, minus = x + y, x - y
            w_t = blas.dger(1.0, plus, plus, a=w_t, overwrite_a=True)
            w_t = blas.dger(-1.0, minus, minus, a=w_t, overwrite_a=True)
        self.w = w_t.T
        norm = float(np.linalg.norm(self.w))
        if norm > self.radius:
            self.w *= self.radius / norm

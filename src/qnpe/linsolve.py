"""Conjugate residual method for symmetric positive definite systems.

Implements the matrix-free linear-system oracle with stopping rule
||A s - b|| <= alpha ||s||, starting from s = 0. The operator is applied
once per iteration plus once at initialization; the second product of the
classical formulation is replaced by the p-update recurrence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ._blas import ddot, dscal
from .errors import IterationCapExceeded

Array = np.ndarray

#: residuals at or below this multiple of ||b|| count as converged; finite
#: precision cannot drive a CR residual meaningfully lower.
RESIDUAL_FLOOR = 64.0 * np.finfo(float).eps


@dataclass(frozen=True)
class CrResult:
    """Solution and accounting of one conjugate-residual run;
    `residual_norm` is the recurrence-tracked ||r|| at the returned iterate.
    """

    s: Array
    residual_norm: float
    iterations: int
    matvecs: int


def conjugate_residual(
    matvec: Callable[[Array], Array],
    b: Array,
    alpha: float,
    max_iters: Optional[int] = None,
) -> CrResult:
    """First CR iterate s_k with ||b - A s_k|| <= alpha ||s_k||.

    Parameters
    ----------
    matvec : v -> A v for a symmetric positive definite A; the k-th call
        receives the residual r_k, which is updated in place after the
        call returns, so a matvec that keeps it must copy it.
    b : right-hand side, shape (d,).
    alpha : relative stopping factor in [0, 1).
    max_iters : iteration cap; defaults to 20 * d.

    Raises
    ------
    IterationCapExceeded
        The cap was hit, which signals an operator violating the positive
        definite precondition or an unreachable tolerance. Breakdown never
        surfaces: a vanishing <Ap, Ap> means r ~ 0 for definite operators
        and returns the current iterate as converged.
    """
    b = np.asarray(b, dtype=float)
    d = b.shape[0]
    if max_iters is None:
        max_iters = 20 * d

    s = np.zeros(d)
    r = b.copy()
    r_norm = math.sqrt(ddot(r, r))
    s_norm = 0.0
    floor = RESIDUAL_FLOOR * r_norm
    ap_floor = floor * floor
    # holds step * p, then step * A p
    work = np.empty(d)

    iters = 0
    matvecs = 0
    p = a_p = a_r = None
    r_ar = 0.0

    while True:
        if r_norm <= alpha * s_norm or r_norm <= floor:
            return CrResult(s, r_norm, iters, matvecs)
        if iters >= max_iters:
            raise IterationCapExceeded(
                f"no iterate with ||r|| <= {alpha} ||s|| within "
                f"{max_iters} iterations (last residual {r_norm:.3e})"
            )
        if iters == 0:
            a_r = matvec(r)
            matvecs += 1
            p = r.copy()
            a_p = a_r.copy()
            r_ar = ddot(r, a_r)

        ap_ap = ddot(a_p, a_p)
        if ap_ap <= ap_floor or r_ar <= 0.0:
            # p ~ 0 implies r ~ 0 for a definite operator: converged
            return CrResult(s, r_norm, iters, matvecs)
        step = r_ar / ap_ap
        # in place, with the rounding of s + step p and r - step A p; daxpy
        # would fuse the multiply and the add and round differently
        np.multiply(step, p, out=work)
        s += work
        np.multiply(step, a_p, out=work)
        r -= work
        a_r = matvec(r)
        matvecs += 1
        r_ar_next = ddot(r, a_r)
        scale = r_ar_next / r_ar
        r_ar = r_ar_next
        # scale p + r rounds as r + scale p; dscal scales in place
        p = dscal(scale, p)
        p += r
        a_p = dscal(scale, a_p)
        a_p += a_r
        iters += 1
        r_norm = math.sqrt(ddot(r, r))
        s_norm = math.sqrt(ddot(s, s))

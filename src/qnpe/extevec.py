"""Approximate separation oracle for the unit-operator-norm ball.

A query on a symmetric matrix W either certifies that W is (approximately)
inside {||.||_op <= 1} or returns gamma > 1 together with a rank-one
separator S = sign * u u^T built from an extreme eigenpair. The randomized
variant estimates the eigenpair by Lanczos with a random start, an
iteration budget and a near-invariance early stop, both set by the query's
failure probability; the exact variant reduces W to tridiagonal
form (Householder, LAPACK sytrd) and is the deterministic test reference.
Both variants end in one tridiagonal kernel that finds only the two
extreme eigenvalues, each by bisection with Sturm counts (stebz), with
root-free QR over the whole spectrum (sterf) as the fallback when
bisection reports failure. The separator's vector is computed on demand,
on the first read of `SepOutcome.vector`: inverse iteration (stein) for
the tridiagonal eigenvector, then a map of it back to R^d. A caller that
finds W inside, or does not need the separator, never pays for it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable, Optional

import numpy as np

from ._blas import ddot, lapack
from .core import symv
from .errors import EigFailure, ParameterConflict, ProblemMismatch

Array = np.ndarray


@dataclass(frozen=True)
class SepOutcome:
    """Oracle answer: the (estimated) extreme eigenvalues lam_min and
    lam_max of W, the matrix-vector products spent, and the function that
    computes `vector`, a unit eigenvector for the end of larger magnitude.

    gamma = max(lam_max, -lam_min); W is certified inside when gamma <= 1,
    and otherwise separated by S = sign * outer(vector, vector), which has
    ||S||_F = 1. sign is None for the inside case. The vector is computed
    on its first read and cached; the outcome holds the factors it needs
    (the sytrd reflectors or the Lanczos basis) until then, so a LAPACK
    failure of that step raises EigFailure at the first read.
    """

    lam_min: float
    lam_max: float
    matvecs: int
    _vector: Callable[[], Array] = field(repr=False, compare=False)

    @cached_property
    def vector(self) -> Array:
        return self._vector()

    @property
    def gamma(self) -> float:
        return max(self.lam_max, -self.lam_min)

    @property
    def inside(self) -> bool:
        return self.gamma <= 1.0

    @property
    def sign(self) -> Optional[int]:
        if self.inside:
            return None
        return 1 if self.lam_max >= -self.lam_min else -1


@dataclass(frozen=True)
class LanczosBudget:
    """Iteration count N, accuracy epsilon and near-invariance tolerance
    for one randomized query."""

    n_iters: int
    epsilon: float
    tolerance: float


#: the rounding floor of the near-invariance test: below it the residual
#: of the reorthogonalized recurrence carries no information
_ROUNDING_TOLERANCE = 64.0 * np.finfo(float).eps


def lanczos_budget(d: int, delta: float, q: float) -> LanczosBudget:
    """Budget of one query with failure probability q, split in two halves.

    The N-step bound (Kuczynski & Wozniakowski 1992) takes q/2:
    N = min(ceil(eps^(-1/2)/4 * ln(11 d / (q/2)^2) + 1/2), d) with
    eps = delta / (2 (1 + delta)). The early stop takes the other q/2: the
    recurrence stops at step m when its residual b <= tolerance * scale,
    tolerance = max(64 machine eps, delta (q/2) / (4 (1 + delta) sqrt(d))).

    Why the second half holds (Davis & Kahan 1970, sin theta). A stop at b
    leaves W Q_m = Q_m T_m + b q_{m+1} e_m^T, so span(Q_m) is invariant
    for a W' with ||W - W'|| <= b, and the Ritz values in [-gamma, gamma]
    are eigenvalues of W' there. If ||W|| > (1 + delta) max(gamma, 1), then
    scale <= 2 ||W|| (|alpha| and beta are at most ||W|| >= 1) and every
    Ritz value is at least ||W|| delta / (1 + delta) away from W's extreme
    eigenvalue, so the start vector, which lies in span(Q_m), has a
    component of at most 2 tolerance (1 + delta) / delta on its
    eigenvector u. For a uniform unit start, u^T v has density at most
    sqrt(d / (2 pi)) near 0, so that event has probability at most
    2 tolerance (1 + delta) / delta * sqrt(2 d / pi) <= q/2. When the
    formula falls below the rounding floor, rounding decides the stop.

    Raises:
        ProblemMismatch: d < 1.
        ParameterConflict: delta not positive, or q outside (0, 1).
    """
    if d < 1:
        raise ProblemMismatch("d must be >= 1")
    if not delta > 0.0:  # negated so that NaN is rejected too
        raise ParameterConflict("delta must be positive")
    if not (0.0 < q < 1.0):
        raise ParameterConflict("q must be in (0, 1)")
    eps = delta / (2.0 * (1.0 + delta))
    half = 0.5 * q
    n = math.ceil(0.25 / math.sqrt(eps) * math.log(11.0 * d / half**2) + 0.5)
    tolerance = max(
        _ROUNDING_TOLERANCE, delta * half / (4.0 * (1.0 + delta) * math.sqrt(d))
    )
    return LanczosBudget(n_iters=min(n, d), epsilon=eps, tolerance=tolerance)


def _lapack(routine: str, *args, **kwargs):
    """Call a LAPACK wrapper; a nonzero info raises EigFailure."""
    *out, info = getattr(lapack, routine)(*args, **kwargs)
    if info != 0:
        raise EigFailure(f"LAPACK {routine} failed with info={info}")
    return out


def _tridiag_extremes(alphas: Array, betas: Array) -> tuple[float, float]:
    """Extreme eigenvalues (lo, hi) of the symmetric tridiagonal matrix T
    with diagonal alphas and off-diagonal betas.

    Each is found on its own by bisection with Sturm counts (stebz, index
    il = iu = 1 and il = iu = m, abstol 0, which LAPACK reads as eps times
    the Gershgorin bound on ||T||), which costs O(m) per halving and
    computes no other eigenvalue (Demmel, Applied Numerical Linear Algebra,
    sec. 5.3). On the large eigenvalue cluster at 1.0 that the learner's
    identity-plus-low-rank iterates carry, index-selected bisection can
    report that it did not converge (info = 2); LAPACK's documented cure is
    to compute the whole spectrum instead, so any nonzero info falls back
    to root-free QR (sterf).
    """
    m = alphas.shape[0]
    if m == 1:
        return float(alphas[0]), float(alphas[0])
    ends = []
    for index in (1, m):
        # range 2 selects eigenvalues il..iu by index; vl and vu are unused
        _, vals, _, _, info = lapack.dstebz(
            alphas, betas, 2, 0.0, 0.0, index, index, 0.0, "E"
        )
        if info != 0:
            (vals,) = _lapack("dsterf", alphas, betas)
            return float(vals[0]), float(vals[-1])
        ends.append(float(vals[0]))
    return ends[0], ends[1]


def _extreme(lo: float, hi: float) -> float:
    """The end of larger magnitude, hi on ties."""
    return hi if hi >= -lo else lo


def _tridiag_vector(alphas: Array, betas: Array, target: float) -> Array:
    """Unit eigenvector of the tridiagonal matrix for its eigenvalue
    `target`, by inverse iteration (stein)."""
    m = alphas.shape[0]
    if m == 1:
        return np.ones(1)
    iblock = np.ones(m, dtype=np.int32)
    isplit = np.zeros(m, dtype=np.int32)
    isplit[0] = m
    (z,) = _lapack("dstein", alphas, betas, np.array([target]), iblock, isplit)
    return z[:, 0]


def _householder_vector(
    c: Array, tau: Array, diag: Array, off: Array, target: float
) -> Array:
    """The eigenvector of W for `target` from its sytrd factors: the
    tridiagonal eigenvector z mapped back as Q z, Q = H(1)...H(d-1)."""
    z = _tridiag_vector(diag, off, target)
    if z.shape[0] > 1:
        # this is ormtr for the lower case, which scipy does not wrap; one
        # column needs lwork = 1
        qz, _ = _lapack("dormqr", "L", "N", c[1:, :-1], tau, z[1:, None], 1)
        z[1:] = qz[:, 0]
    return z


def _ritz_vector(
    alphas: Array, betas: Array, basis: Array, target: float
) -> Array:
    """The unit Ritz vector for `target`: the tridiagonal eigenvector
    combined over the Lanczos vectors, the rows of `basis`."""
    u = _tridiag_vector(alphas, betas, target) @ basis
    u /= math.sqrt(u @ u)
    return u


def ext_evec_exact(w: Array) -> SepOutcome:
    """Deterministic oracle: Householder tridiagonalization (sytrd) and the
    tridiagonal extremes kernel; the vector, on demand, from inverse
    iteration and a back-map through the reflectors.

    gamma equals ||W||_op to rounding, the separator comes from the extreme
    unit eigenvector, and the guarantees hold with zero slack. W must be
    symmetric: sytrd reads one triangle.
    """
    w = np.asarray(w, dtype=float)
    # W is symmetric, so its transpose is the same matrix in Fortran order
    c, diag, off, tau = _lapack("dsytrd", w.T, lower=1)
    lo, hi = _tridiag_extremes(diag, off)
    vector = partial(_householder_vector, c, tau, diag, off, _extreme(lo, hi))
    return SepOutcome(lo, hi, 0, vector)


def ext_evec_lanczos(
    w: Array, delta: float, q: float, rng: np.random.Generator
) -> SepOutcome:
    """Randomized oracle: Lanczos with a uniform random unit start.

    Runs at most the budgeted N iterations with full reorthogonalization,
    one `symv` per step (W must be symmetric: it reads one triangle), and
    takes the extreme Ritz values of the tridiagonal matrix; the Ritz
    vector is mapped back to R^d on demand. With probability >= 1 - q the
    returned gamma satisfies ||W||_op <= (1 + delta) * max(gamma, 1). The
    recurrence stops early when its residual b falls to `tolerance * scale`,
    scale the running bound max(1, |alpha_k| + beta_{k-1}) on ||W||: the
    Krylov space is then invariant for a matrix within b of W.
    `lanczos_budget` splits q between the N-step bound and this
    near-invariance stop and derives the tolerance from the failure budget,
    not from rounding.
    """
    w = np.asarray(w, dtype=float)
    d = w.shape[0]
    budget = lanczos_budget(d, delta, q)
    n = budget.n_iters

    # one Lanczos vector per row, so reorthogonalization reads contiguous
    # rows; every row is written before it is read
    basis = np.empty((n, d))
    v = rng.standard_normal(d)
    np.divide(v, math.sqrt(ddot(v, v)), out=basis[0])

    alphas = np.zeros(n)
    betas = np.zeros(max(n - 1, 0))
    tolerance = budget.tolerance
    scale = 1.0
    m = n
    beta_prev = 0.0
    v_prev = np.zeros(d)

    for k in range(n):
        v = basis[k]
        work = symv(1.0, w, v, -beta_prev, v_prev)
        a = ddot(work, v)
        work -= a * v
        # full reorthogonalization against all prior Lanczos vectors
        prior = basis[: k + 1]
        work -= (prior @ work) @ prior
        alphas[k] = a
        scale = max(scale, abs(a) + beta_prev)
        if k == n - 1:
            break
        b = math.sqrt(ddot(work, work))
        if b <= tolerance * scale:
            m = k + 1
            break
        betas[k] = b
        v_prev = v
        beta_prev = b
        np.divide(work, b, out=basis[k + 1])

    alphas, betas, basis = alphas[:m], betas[: m - 1], basis[:m]
    lo, hi = _tridiag_extremes(alphas, betas)
    vector = partial(_ritz_vector, alphas, betas, basis, _extreme(lo, hi))
    # one matrix-vector product per Lanczos step
    return SepOutcome(lo, hi, m, vector)

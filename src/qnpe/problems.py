"""Test-problem generators and Matrix Market ingestion.

Every generated objective carries certified (mu, L1, L2) constants and,
where obtainable, a high-accuracy minimizer: quadratics solve the normal
system directly with iterative refinement, the logistic benchmark runs
damped Newton on its own Hessian to a 1e-12 gradient norm. No reference
comes from the solver it is used to check.

The logistic sigmoid is NumPy arithmetic (`exp`, an add and a reciprocal),
so no run loads SciPy's special-function module. SciPy's I/O and sparse
modules load with the first `load_matrix_market`, once per process, so no
run on a generated problem imports them. The logistic Hessian is one BLAS
dsyrk per row block, and the Newton minimizer factors it by LAPACK dpotrf
and dpotrs (the calls `scipy.linalg.cho_factor` and `cho_solve` make),
all from `qnpe._blas`, so no run loads `scipy.linalg` itself.
"""

from __future__ import annotations

import numbers
from dataclasses import replace
from typing import Optional

import numpy as np

from ._blas import blas, lapack
from .core import Objective, check_band
from .errors import InvalidSpectrum, MinimizerStall, ParseError, ProblemMismatch

Array = np.ndarray

#: gradient norm at which the Newton minimizer stops
NEWTON_GRAD_TOL = 1e-12
#: Newton step cap; from the origin the logistic generators need about ten
NEWTON_MAX_STEPS = 50
#: smallest step fraction tried before Newton counts as stalled
NEWTON_MIN_DAMPING = 2.0**-40
#: bytes of signed data per row block of the logistic oracles: a block's two
#: products run back to back while it is still in a core's L2 cache
_BLOCK_BYTES = 1 << 20


def _refined_solve(a: Array, b: Array, kappa: float) -> Array:
    """Dense solve with up to five steps of iterative refinement, stopping
    once ||A x - b|| <= 1e-13 ||b||.

    Raises:
        MinimizerStall: the final relative residual exceeds 64 kappa eps,
            clipped to [1e-13, 1e-8]: A is singular at working precision
            for its condition number kappa.
        numpy.linalg.LinAlgError: the LU factorization meets a zero pivot.
    """
    x = np.linalg.solve(a, b)
    b_norm = np.linalg.norm(b)
    r = b - a @ x
    for _ in range(5):
        if np.linalg.norm(r) <= 1e-13 * b_norm:
            break
        x = x + np.linalg.solve(a, r)
        r = b - a @ x
    r_norm = np.linalg.norm(r)
    tol = min(max(64.0 * np.finfo(float).eps * kappa, 1e-13), 1e-8)
    if not r_norm <= tol * b_norm:
        raise MinimizerStall(
            f"quadratic minimizer: Singular matrix at working precision, "
            f"relative residual {r_norm / b_norm:.3e} > {tol:.3e}"
        )
    return x


def quadratic_objective(a: Array, b: Array, mu: float, l1: float) -> Objective:
    """Objective for f(x) = x^T A x / 2 - b^T x with certified band [mu, L1].

    Raises:
        ProblemMismatch: b is not a vector, A is not square of its length,
            or the data are empty.
        MinimizerStall: A is singular at working precision for the
            condition number L1/mu (see `_refined_solve`).
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if b.ndim != 1 or a.shape != (b.size, b.size):
        raise ProblemMismatch(
            f"need a d x d matrix and a length-d vector, got shapes {a.shape} "
            f"and {b.shape}"
        )
    try:
        minimizer = _refined_solve(a, b, l1 / mu if mu > 0.0 else np.inf)
    except np.linalg.LinAlgError as exc:
        raise MinimizerStall(f"quadratic minimizer: {exc}") from exc
    return Objective(
        dim=b.shape[0],
        grad=lambda x: a @ x - b,
        value=lambda x: 0.5 * float(x @ (a @ x)) - float(b @ x),
        mu=float(mu),
        l1=float(l1),
        l2=0.0,
        hessian=lambda x: a,
        minimizer=minimizer,
    )


def _check_integers(**params):
    """Raise ProblemMismatch unless every named generator parameter is an
    integer: NumPy fails on a float or a string with a bare TypeError."""
    for name, value in params.items():
        if not isinstance(value, numbers.Integral):
            raise ProblemMismatch(
                f"problem parameter {name}={value!r} is not an integer"
            )


def make_quadratic(d: int, mu: float, l1: float, seed: int) -> Objective:
    """Seeded quadratic with log-uniform spectrum on [mu, L1].

    A = Q diag(lambda) Q^T with Q a seeded random orthogonal matrix and the
    eigenvalues geometrically spaced with both endpoints attained (d >= 2);
    b is seeded Gaussian.

    Raises:
        ProblemMismatch: d or seed not an integer, d < 1 or seed < 0.
        InvalidSpectrum: mu <= 0, mu > L1, or mu or L1 not finite.
        MinimizerStall: the matrix is singular at working precision, which
            a mu tiny next to L1 can make it; past L1/mu of about 1e9 the
            refined residual exceeds 1e-8 and counts as singular.
    """
    _check_integers(d=d, seed=seed)
    if d < 1:
        raise ProblemMismatch("d must be >= 1")
    if seed < 0:  # default_rng would raise a bare ValueError
        raise ProblemMismatch(f"problem parameter seed={seed} is negative")
    check_band(mu, l1)
    rng = np.random.default_rng(seed)
    lam = np.geomspace(mu, l1, d)
    lam[0], lam[-1] = mu, l1
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    q = q * np.sign(np.diag(r))
    a = (q * lam) @ q.T
    a = 0.5 * (a + a.T)
    b = rng.standard_normal(d)
    return quadratic_objective(a, b, mu, l1)


def logistic_objective(features: Array, labels: Array, lam: float) -> Objective:
    """Regularized logistic regression objective from explicit data.

    f(x) = mean(log(1 + exp(-y_i a_i^T x))) + lam/2 ||x||^2 with
    mu = lam, L1 = lam + lambda_max(A^T A)/(4 n), and the conservative
    analytic bound L2 = sum ||a_i||^3 / (6 n).

    The objective keeps one array, the signed rows y_i a_i, copied once
    from `features`, which it neither writes to nor references. Since
    every y_i is +1 or -1, its products equal those of A exactly. The
    gradient and Hessian pass over it in row blocks of about
    `_BLOCK_BYTES`; with more than one block their sums over the rows
    differ from a single pass at rounding level.

    Raises:
        InvalidSpectrum: lam not in (0, inf), or a feature not finite.
        ProblemMismatch: features not an n x d array with n, d >= 1,
            labels not of length n, or a label other than +1 or -1.
    """
    a = np.asarray(features, dtype=float)
    y = np.asarray(labels, dtype=float)
    if a.ndim != 2 or a.size == 0:
        raise ProblemMismatch(
            f"features must be an n x d array with n, d >= 1, got shape {a.shape}"
        )
    n, d = a.shape
    if y.shape != (n,):
        raise ProblemMismatch(f"labels must have shape ({n},), got {y.shape}")
    if not np.all(np.abs(y) == 1.0):
        raise ProblemMismatch("labels must all be +1 or -1")
    return _logistic_from_signed(a * y[:, None], lam)


def _row_blocks(rows: Array) -> list:
    """Views of consecutive row blocks of about `_BLOCK_BYTES` each."""
    n, d = rows.shape
    step = max(1, _BLOCK_BYTES // (8 * d))
    return [rows[i : i + step] for i in range(0, n, step)]


def _sigmoid_of_negated(t: Array) -> Array:
    """The logistic sigmoid at -t, 1 / (1 + exp(t)), computed in t's place.

    exp overflows to inf past t = 709.78, where the result 0 is the
    correct limit; a caller that may pass such t enters
    `np.errstate(over="ignore")` around it. Below t = -37 the result
    rounds to 1, as does the sigmoid itself.
    """
    np.exp(t, out=t)
    t += 1.0
    return np.reciprocal(t, out=t)


def _logistic_from_signed(signed: Array, lam: float) -> Objective:
    """Logistic objective over the signed rows y_i a_i, adopting `signed`.

    Everything is derived from `signed` without an n x d temporary: the
    finiteness check and the row norms run per row block, whose row-wise
    reductions give the bits of one pass over the whole array.

    The gradient weighs row i by sigma(-m_i) and the Hessian by
    sigma(m_i) (1 - sigma(m_i)), m_i = y_i a_i^T x, both by
    `_sigmoid_of_negated`: the Hessian passes it the margins at -x, which
    equal -m bit for bit. A margin past exp's overflow threshold saturates
    the sigmoid to 0 without a warning.

    Each block's curvature term R^T R, with R its rows scaled by the
    square roots of their weights, is one BLAS dsyrk: it writes the upper
    triangle only, with half the flops of a general product. The blocks'
    upper triangles are summed and mirrored once, so the Hessian equals
    its transpose bit for bit. Since y_i^2 = 1, the signed rows give
    A^T W A exactly.

    Raises:
        InvalidSpectrum: lam not in (0, inf), or a feature not finite.
    """
    if not 0.0 < lam < np.inf:
        raise InvalidSpectrum(f"lam must be positive and finite, got {lam}")
    blocks = _row_blocks(signed)
    if not all(np.isfinite(blk).all() for blk in blocks):
        raise InvalidSpectrum("features must be finite")
    n, d = signed.shape

    def value(x):
        margins = signed @ x
        return float(np.mean(np.logaddexp(0.0, -margins))) + 0.5 * lam * float(x @ x)

    def block_sum(term):
        """term(block) summed over the row blocks, in row order."""
        first, *rest = blocks
        acc = term(first)
        for blk in rest:
            acc += term(blk)
        return acc

    def grad(x):
        with np.errstate(over="ignore"):
            weighted = block_sum(lambda blk: blk.T @ _sigmoid_of_negated(blk @ x))
        return -weighted / n + lam * x

    def hessian(x):
        neg_x = -x

        def curvature(blk):
            sig = _sigmoid_of_negated(blk @ neg_x)
            root = blk * np.sqrt(sig * (1.0 - sig))[:, None]
            # root.T is the Fortran view of the C-ordered rows: no copy
            return blas.dsyrk(1.0, root.T, lower=0)

        with np.errstate(over="ignore"):
            upper = block_sum(curvature)
        h = upper + np.triu(upper, 1).T
        h /= n
        h.flat[:: d + 1] += lam
        return h

    row_norms = np.concatenate([np.linalg.norm(blk, axis=1) for blk in blocks])
    data_curvature = float(np.linalg.eigvalsh(signed.T @ signed)[-1]) / (4.0 * n)
    return Objective(
        dim=d,
        grad=grad,
        value=value,
        mu=lam,
        l1=lam + data_curvature,
        l2=float(np.sum(row_norms**3)) / (6.0 * n),
        hessian=hessian,
    )


def _newton_minimizer(obj: Objective) -> Array:
    """Minimizer of a strongly convex objective by damped Newton from x = 0.

    Each step solves H(x) p = grad(x) by Cholesky and halves its length
    until ||grad|| decreases, which the Newton direction allows because it
    is a descent direction of ||grad||^2. Stops at ||grad|| <= NEWTON_GRAD_TOL.

    Raises:
        MinimizerStall: the Hessian is not numerically positive definite,
            no step fraction down to NEWTON_MIN_DAMPING decreases ||grad||,
            or NEWTON_MAX_STEPS steps end above the tolerance.
    """
    x = np.zeros(obj.dim)
    g = obj.grad(x)
    g_norm = float(np.linalg.norm(g))
    steps = 0
    while g_norm > NEWTON_GRAD_TOL:
        if steps == NEWTON_MAX_STEPS:
            raise MinimizerStall(
                f"Newton minimizer took {steps} steps and stopped at "
                f"||grad|| = {g_norm:.3e}"
            )
        steps += 1
        # the calls `cho_factor` and `cho_solve` make, so steps keep their bits
        factor, info = lapack.dpotrf(obj.hessian(x), lower=0, clean=0)
        if info != 0:
            raise MinimizerStall(
                f"Newton minimizer: leading minor {info} of the Hessian "
                "is not positive definite"
            )
        step, _ = lapack.dpotrs(factor, g, lower=0)
        t = 1.0
        while True:
            x_new = x - t * step
            g_new = obj.grad(x_new)
            g_new_norm = float(np.linalg.norm(g_new))
            if g_new_norm < g_norm:
                break
            t *= 0.5
            if t < NEWTON_MIN_DAMPING:
                raise MinimizerStall(
                    f"Newton minimizer stalled at ||grad|| = {g_norm:.3e}"
                )
        x, g, g_norm = x_new, g_new, g_new_norm
    return x


def make_logistic(n: int, d: int, lam: float, seed: int) -> Objective:
    """Seeded logistic benchmark with unit-norm feature rows.

    The minimizer is computed by damped Newton on the objective's own
    Hessian from x = 0 to a 1e-12 gradient norm, not by the solver.

    Raises:
        ProblemMismatch: n, d or seed not an integer, n < 1, d < 1 or
            seed < 0.
        InvalidSpectrum: lam not in (0, inf).
        MinimizerStall: the Newton minimizer did not reach its tolerance.
    """
    _check_integers(n=n, d=d, seed=seed)
    if n < 1 or d < 1:
        raise ProblemMismatch("n and d must be >= 1")
    if seed < 0:  # default_rng would raise a bare ValueError
        raise ProblemMismatch(f"problem parameter seed={seed} is negative")
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, d))
    for blk in _row_blocks(a):
        blk /= np.maximum(np.linalg.norm(blk, axis=1), 1e-12)[:, None]
    planted = rng.standard_normal(d)
    labels = np.sign(a @ planted + 0.5 * rng.standard_normal(n))
    labels[labels == 0.0] = 1.0
    a *= labels[:, None]  # the signed rows, in place: x (+-1) is exact

    obj = _logistic_from_signed(a, lam)
    return replace(obj, minimizer=_newton_minimizer(obj))


def load_matrix_market(path, b: Optional[Array] = None) -> Objective:
    """Quadratic objective from a symmetric positive definite Matrix Market
    file; b defaults to all-ones.

    The curvature band is read off the exact extreme eigenvalues (dense
    path, desk scale only).

    Raises:
        ParseError: unreadable or non-square input, or a matrix that
            differs from its transpose.
        InvalidSpectrum: smallest eigenvalue <= 0.
        ProblemMismatch: b is not a vector of the matrix's order.
        MinimizerStall: the matrix is singular at working precision.
    """
    import scipy.io
    import scipy.sparse

    try:
        loaded = scipy.io.mmread(path)
    except Exception as exc:
        raise ParseError(f"{path}: {exc}") from exc
    a = loaded.toarray() if scipy.sparse.issparse(loaded) else np.asarray(loaded)
    a = a.astype(float, copy=False)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ParseError(f"{path}: expected a square matrix, got {a.shape}")
    if not np.array_equal(a, a.T):
        raise ParseError(f"{path}: matrix is not symmetric")
    eigs = np.linalg.eigvalsh(a)
    if eigs[0] <= 0.0:
        raise InvalidSpectrum(
            f"{path}: smallest eigenvalue {eigs[0]:.6g} is not positive"
        )
    if b is None:
        b = np.ones(a.shape[0])
    return quadratic_objective(a, b, float(eigs[0]), float(eigs[-1]))

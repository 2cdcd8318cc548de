"""Dense references that the tests compare the package against.

The package computes these objects implicitly (the learner's in-place
rank-one step, the played matrix as an operator, the CR recurrence) or not
at all; the tests build them here in their textbook form.
"""

import numpy as np

from qnpe.linsolve import conjugate_residual


def from_hat(b_hat, mu, l1):
    """Inverse of `qnpe.learner.to_hat`:
    (L1-mu)/2 * b_hat + (L1+mu)/2 * I."""
    b = (0.5 * (l1 - mu)) * b_hat
    b.flat[:: b.shape[0] + 1] += 0.5 * (l1 + mu)
    return b


def played_dense(op):
    """The matrix scale * base + shift * I that a `PlayedMatrix` applies."""
    b = op.scale * np.asarray(op.base)
    b.flat[:: b.shape[0] + 1] += op.shift
    return b


def loss_gradient(b, sample):
    """Gradient of the secant loss:
    -(s (y - B s)^T + (y - B s) s^T) / (2 ||s||^2), a symmetric matrix with
    nuclear norm at most sqrt(2 * loss)."""
    s, y = sample.s, sample.y
    resid = y - b @ s
    outer = np.outer(s, resid)
    return -(outer + outer.T) / (2.0 * float(s @ s))


def project_frobenius_ball(w, radius):
    """Euclidean projection w * R / max(||w||_F, R) onto the Frobenius ball."""
    if radius <= 0.0:
        raise ValueError("radius must be positive")
    norm = float(np.linalg.norm(w))
    return w * (radius / max(norm, radius))


def separator(outcome):
    """The separator S = sign * u u^T of an outside oracle outcome."""
    if outcome.sign is None:
        raise ValueError("inside outcome has no separator")
    return outcome.sign * np.outer(outcome.vector, outcome.vector)


def separator_action(outcome, mat):
    """<S, mat> without forming S."""
    if outcome.sign is None:
        raise ValueError("inside outcome has no separator")
    return float(outcome.sign * (outcome.vector @ (mat @ outcome.vector)))


def cr_with_history(mat, b, alpha, max_iters=None):
    """`conjugate_residual` on the dense SPD `mat`, plus the norms ||r_k||
    and ||s_k|| for k = 0..iterations.

    The k-th matvec call receives the recurrence residual r_k, so recording
    the calls gives ||r_k|| exactly; s_k = A^-1 (b - r_k) is recovered by a
    dense solve, to rounding.
    """
    b = np.asarray(b, dtype=float)
    seen = []

    def matvec(v):
        seen.append(v.copy())
        return mat @ v

    res = conjugate_residual(matvec, b, alpha, max_iters)
    residuals = seen or [b]
    r_norms = np.array([float(np.linalg.norm(r)) for r in residuals])
    assert len(r_norms) == res.iterations + 1
    assert r_norms[-1] == res.residual_norm
    steps = np.linalg.solve(mat, b[:, None] - np.array(residuals).T)
    return res, r_norms, np.linalg.norm(steps, axis=0)

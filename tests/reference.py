"""Dense references that the tests compare the package against.

The package computes these objects implicitly (the learner's in-place
rank-one step, the played matrix as an operator, the CR recurrence), in
row blocks (the logistic oracles) or not at all; the tests build them here
in their textbook form. The CR and Lanczos loops here are the package's
loops written with NumPy operators instead of BLAS level-1 calls and an
uninitialized basis; the package must match them bit for bit. That holds
only when NumPy and SciPy call the same BLAS, which `require_shared_blas`
checks before either loop runs.
"""

import math
import os
import subprocess
import sys
from functools import cache, partial
from pathlib import Path
from types import SimpleNamespace
from typing import NamedTuple, Optional

import numpy as np
import pytest
import scipy
from scipy.linalg.blas import ddot

from qnpe.core import resolve_initial_matrix, symv
from qnpe.extevec import (
    SepOutcome,
    _extreme,
    _ritz_vector,
    _tridiag_extremes,
    lanczos_budget,
)
from qnpe.errors import IterationCapExceeded
from qnpe.learner import HessianLearner, LossSample
from qnpe.linsolve import RESIDUAL_FLOOR, CrResult, conjugate_residual


def logistic_single_pass(features, labels, lam):
    """The (grad, hessian) pair of `qnpe.problems.logistic_objective` as one
    pass over all n rows: the gradient reads the signed rows y_i a_i, the
    Hessian the raw rows a_i.

    The package splits the rows into blocks and reads only the signed rows;
    with one block it must match these bit for bit. Both write the sigmoid
    as sigma(z) = 1 / (1 + exp(-z)); `tests/test_problems.py` checks that
    form against `scipy.special.expit`."""
    a = np.asarray(features, dtype=float)
    y = np.asarray(labels, dtype=float)
    n, d = a.shape
    signed = a * y[:, None]

    def grad(x):
        margins = signed @ x
        return -(signed.T @ (1.0 / (1.0 + np.exp(margins)))) / n + lam * x

    def hessian(x):
        sig = 1.0 / (1.0 + np.exp(-(signed @ x)))
        weights = sig * (1.0 - sig)
        return (a.T * weights) @ a / n + lam * np.eye(d)

    return grad, hessian


def logistic_data(n, d, seed):
    """The features and labels that `qnpe.problems.make_logistic` draws,
    as whole-array operations: unit-norm Gaussian rows and the noisy signs
    of a planted model, zero signs counted as +1.

    The package normalizes and signs its rows in place, one row block at
    a time; it must match these bit for bit."""
    rng = np.random.default_rng(seed)
    features = rng.standard_normal((n, d))
    features /= np.maximum(np.linalg.norm(features, axis=1), 1e-12)[:, None]
    planted = rng.standard_normal(d)
    labels = np.sign(features @ planted + 0.5 * rng.standard_normal(n))
    labels[labels == 0.0] = 1.0
    return features, labels


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


class ReplayedRound(NamedTuple):
    """One learner round: the dense matrix B_t it played, the loss
    l_t(B_t) it returned, and ||W||_F after its update (0 when mu = L1,
    where the learner keeps no W)."""

    played: np.ndarray
    loss: float
    w_fro_after: float


def replay_rounds(report, obj):
    """Yield the learner rounds of the qnpe run `report` on `obj`.

    A fresh learner, built from the run's config and the B0 it decodes
    (`resolve_initial_matrix(report.config, obj)`), consumes
    `report.loss_samples` in order. The solver's learner predicts once per
    round (later calls return the cached prediction) and consumes the same
    samples, so the replay repeats its rounds, its Lanczos draws
    included, and its losses match the trace's `loss` column bit for bit."""
    b0 = resolve_initial_matrix(report.config, obj)
    learner = HessianLearner(b0, obj.mu, obj.l1, report.config)
    for sample in report.loss_samples:
        played = played_dense(learner.predict())
        value = learner.update_round(sample)
        w_fro = 0.0 if learner.degenerate else float(np.linalg.norm(learner.w))
        yield ReplayedRound(played, value, w_fro)


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


class TextbookStep(NamedTuple):
    """One iteration of `textbook_qnpe`: ||x_k - x*||^2 at its start, the
    accepted step eta_k, the line-search attempts, the loss of the
    learner round, None when no round ran, and the Lanczos steps of the
    oracle call that chose the played B, 0 when there was none."""

    dist_sq: float
    eta: float
    ls_steps: int
    loss: Optional[float]
    mv_extevec: int


def textbook_qnpe(obj, cfg, iters):
    """The paper's QNPE loop in the config's oracle mode, dense, from
    x0 = 0, for at most `iters` iterations or until
    ||grad|| <= cfg.grad_tol.

    B0 is the default L1 I, and sigma0 the config's or 1/(4 L1). Each line
    search solves (I + eta B) s = -eta g by `cr_numpy` on the dense B and
    accepts the first eta in sigma, beta sigma, ... with
    eta ||grad(x + s) - g - B s|| <= alpha2 ||s||. The learner works on
    W = (2/(L1-mu)) (B - (L1+mu)/2 I): a backtracked iteration whose
    rejected trial moved is a round, W <- project(W - rho (G + hinge S)) on
    the Frobenius ball of radius sqrt(d), with G = (2/(L1-mu)) times the
    `loss_gradient` at the played B, and, when the oracle found the played
    W outside the unit ball, the hinge max(0, -<G, W/gamma>) on the
    `separator` S of its eigenvector of larger magnitude. Only after a round
    does the learner predict again, with B = `from_hat`(W / max(gamma, 1)).
    In exact mode `np.linalg.eigh` gives gamma = ||W||_op and the
    eigenvector. In Lanczos mode round t's call is `lanczos_numpy` with
    slack delta = min(mu/(L1-mu), 1), failure probability
    q_t = p / (2.5 (t+1) ln^2(t+1)) and one generator
    `np.random.default_rng(cfg.seed)` for the whole run; its outcome gives
    gamma and the separator. Only the objective's oracles and the config's
    constants come from the package.
    """
    mu, l1, d = float(obj.mu), float(obj.l1), obj.dim
    alpha1, alpha2, beta, rho = cfg.alpha1, cfg.alpha2, cfg.beta, cfg.rho
    sigma = 1.0 / (4.0 * l1) if cfg.sigma0 is None else cfg.sigma0
    b = l1 * np.eye(d)
    w = (2.0 / (l1 - mu)) * (b - 0.5 * (l1 + mu) * np.eye(d))
    sep, gamma = None, 1.0  # B0 is played without an oracle call
    delta = min(mu / (l1 - mu), 1.0)
    rng = np.random.default_rng(cfg.seed)
    rounds = mv_extevec = 0
    x = np.zeros(d)
    g = obj.grad(x)
    steps = []
    for _ in range(iters):
        if math.sqrt(g @ g) <= cfg.grad_tol:
            break
        eta, attempts, x_tilde = sigma, 0, None
        while True:
            s = cr_numpy(lambda v: v + eta * (b @ v), -eta * g, alpha1).s
            x_hat = x + s
            g_hat = obj.grad(x_hat)
            attempts += 1
            if eta * np.linalg.norm(g_hat - g - b @ s) <= alpha2 * np.linalg.norm(s):
                break
            x_tilde, g_tilde = x_hat, g_hat
            eta *= beta
        loss = None
        if x_tilde is not None and not (x_tilde == x).all():
            sample = LossSample(x_tilde - x, g_tilde - g)
            resid = sample.y - b @ sample.s
            loss = float(resid @ resid) / (2.0 * float(sample.s @ sample.s))
            grad_w = (2.0 / (l1 - mu)) * loss_gradient(b, sample)
            if sep is not None:
                hinge = max(0.0, -float(np.sum(grad_w * (w / gamma))))
                grad_w = grad_w + hinge * separator(sep)
            w = project_frobenius_ball(w - rho * grad_w, math.sqrt(d))
        gap = x - obj.minimizer
        steps.append(TextbookStep(float(gap @ gap), eta, attempts, loss, mv_extevec))
        mv_extevec = 0
        if loss is not None:
            rounds += 1
            if cfg.oracle_mode == "exact":
                lam, vec = np.linalg.eigh(w)
                top = lam[-1] >= -lam[0]
                gamma = lam[-1] if top else -lam[0]
                sep = SimpleNamespace(
                    sign=1 if top else -1, vector=vec[:, -1 if top else 0]
                )
            else:
                q = cfg.p / (2.5 * (rounds + 1) * math.log(rounds + 1) ** 2)
                sep = lanczos_numpy(w, delta, q, rng)
                gamma, mv_extevec = sep.gamma, sep.matvecs
            if gamma <= 1.0:
                sep = None
            b = from_hat(w / max(gamma, 1.0), mu, l1)
        x = (x - eta * g_hat + 2.0 * eta * mu * x_hat) / (1.0 + 2.0 * eta * mu)
        sigma = eta / beta
        g = obj.grad(x)
    return steps


def blas_build(lib) -> dict:
    """The BLAS entry of NumPy's or SciPy's build info (`show_config`):
    its `name` and `version`, among others; empty when the build info
    has no BLAS entry."""
    try:
        return lib.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return {}


def cpu_has(flag):
    """Whether /proc/cpuinfo lists the CPU feature `flag` (False where the
    file does not exist): OpenBLAS's Haswell kernels need avx2."""
    try:
        with open("/proc/cpuinfo") as fh:
            return any(
                line.startswith("flags") and flag in line.split() for line in fh
            )
    except OSError:
        return False


def rerun_under_kernel(coretype, *pytest_args):
    """Run pytest on `pytest_args` from the repository root in a child
    process whose OpenBLAS uses its `coretype` kernels (OPENBLAS_CORETYPE);
    fail with the child's output unless it passes, else return its stdout."""
    child = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         *pytest_args],
        cwd=Path(__file__).resolve().parent.parent,
        env={**os.environ, "OPENBLAS_CORETYPE": coretype},
        capture_output=True,
        text=True,
        timeout=300,
    )
    if child.returncode != 0:
        pytest.fail(child.stdout + child.stderr, pytrace=False)
    return child.stdout


@cache
def require_shared_blas():
    """Fail unless NumPy and SciPy call the same BLAS.

    The package takes dot products with SciPy's `ddot` where the loops below
    use NumPy's `@`, so the two agree bit for bit only when both libraries
    link the same BLAS kernels (both link scipy-openblas in the pinned
    environment). Where they differ, the comparison tests that pair of
    libraries, not the package. The build info names each library's BLAS;
    a probe then compares the two dot products on random vectors.
    """
    names = [blas_build(lib).get("name", "unknown") for lib in (np, scipy)]
    rng = np.random.default_rng(0)
    probe = [rng.standard_normal((2, d)) for d in (1, 7, 64, 401) for _ in range(8)]
    if names[0] != names[1] or any(ddot(v, w) != v @ w for v, w in probe):
        pytest.fail(
            "bit-for-bit comparison needs NumPy and SciPy on the same BLAS: "
            f"NumPy links {names[0]}, SciPy links {names[1]}, and their dot "
            "products must round alike",
            pytrace=False,
        )


def cr_numpy(matvec, b, alpha, max_iters=None):
    """`conjugate_residual` with NumPy operators for every vector step."""
    require_shared_blas()
    b = np.asarray(b, dtype=float)
    d = b.shape[0]
    if max_iters is None:
        max_iters = 20 * d
    s = np.zeros(d)
    r = b.copy()
    r_norm = math.sqrt(r @ r)
    s_norm = 0.0
    floor = RESIDUAL_FLOOR * r_norm
    ap_floor = floor * floor
    iters = matvecs = 0
    p = a_p = None
    r_ar = 0.0
    while True:
        if r_norm <= alpha * s_norm or r_norm <= floor:
            return CrResult(s, r_norm, iters, matvecs)
        if iters >= max_iters:
            raise IterationCapExceeded(f"cap {max_iters}")
        if iters == 0:
            a_r = matvec(r)
            matvecs += 1
            p = r.copy()
            a_p = a_r.copy()
            r_ar = float(r @ a_r)
        ap_ap = float(a_p @ a_p)
        if ap_ap <= ap_floor or r_ar <= 0.0:
            return CrResult(s, r_norm, iters, matvecs)
        step = r_ar / ap_ap
        s += step * p
        r -= step * a_p
        a_r = matvec(r)
        matvecs += 1
        r_ar_next = float(r @ a_r)
        scale = r_ar_next / r_ar
        r_ar = r_ar_next
        p *= scale
        p += r
        a_p *= scale
        a_p += a_r
        iters += 1
        r_norm = math.sqrt(r @ r)
        s_norm = math.sqrt(s @ s)


def lanczos_numpy(w, delta, q, rng):
    """`ext_evec_lanczos` with NumPy operators and a fresh zeroed basis."""
    require_shared_blas()
    w = np.asarray(w, dtype=float)
    d = w.shape[0]
    budget = lanczos_budget(d, delta, q)
    n = budget.n_iters
    v = rng.standard_normal(d)
    v /= math.sqrt(v @ v)
    basis = np.zeros((n, d))
    alphas = np.zeros(n)
    betas = np.zeros(max(n - 1, 0))
    scale = 1.0
    m = n
    beta_prev = 0.0
    v_prev = np.zeros(d)
    for k in range(n):
        basis[k] = v
        work = symv(1.0, w, v, -beta_prev, v_prev)
        a = float(work @ v)
        work -= a * v
        prior = basis[: k + 1]
        work -= (prior @ work) @ prior
        alphas[k] = a
        scale = max(scale, abs(a) + beta_prev)
        if k == n - 1:
            break
        b = math.sqrt(work @ work)
        if b <= budget.tolerance * scale:
            m = k + 1
            break
        betas[k] = b
        v_prev = v
        beta_prev = b
        v = work / b
    alphas, betas, basis = alphas[:m], betas[: m - 1], basis[:m]
    lo, hi = _tridiag_extremes(alphas, betas)
    vector = partial(_ritz_vector, alphas, betas, basis, _extreme(lo, hi))
    return SepOutcome(lo, hi, m, vector)

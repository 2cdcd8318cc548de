"""Core domain types: objective oracle, solver configuration, run reports.

All types are immutable value records except `PlayedMatrix`, a mutable
dataclass whose `stale` flag its owner sets once the operator is out of
date; `validate_config` fills in the problem-dependent default step seed
and rejects inconsistent settings.
"""

from __future__ import annotations

import math
import numbers
import typing
from dataclasses import dataclass, field, fields, replace
from typing import Callable, Optional, Union

import numpy as np

from ._blas import blas
from .errors import (
    InvalidSpectrum,
    NonFiniteIterate,
    ParameterConflict,
    ProblemMismatch,
    StateMismatch,
)

Array = np.ndarray

#: separation oracle modes accepted by `SolverConfig.oracle_mode`
ORACLE_MODES = ("lanczos", "exact")

#: relative slack used when checking eigenvalue band membership of an
#: explicitly supplied initial matrix (LAPACK eigenvalues carry O(eps*||B||)).
_SPECTRUM_SLACK = 1e-10


@dataclass(frozen=True)
class Objective:
    """Gradient oracle for a mu-strongly-convex, L1-smooth objective.

    Attributes:
        dim: problem dimension d.
        grad: x -> gradient, both shape (d,).
        mu: strong convexity constant, > 0.
        l1: gradient Lipschitz constant, >= mu.
        value: optional x -> objective value (needed by the BFGS baseline).
        l2: optional Lipschitz constant of the Hessian w.r.t. the minimizer.
        hessian: optional x -> symmetric (d, d) matrix; testing/verification only.
        minimizer: optional known minimizer x*.

    Raises:
        ProblemMismatch: dim not an integer >= 1.
    """

    dim: int
    grad: Callable[[Array], Array]
    mu: float
    l1: float
    value: Optional[Callable[[Array], float]] = None
    l2: Optional[float] = None
    hessian: Optional[Callable[[Array], Array]] = None
    minimizer: Optional[Array] = None

    def __post_init__(self):
        if not isinstance(self.dim, numbers.Integral) or self.dim < 1:
            raise ProblemMismatch(f"dim must be a positive integer, got {self.dim!r}")

    def dist_sq(self, x: Array) -> Optional[float]:
        """||x - x*||^2, or None without a known minimizer."""
        if self.minimizer is None:
            return None
        diff = x - self.minimizer
        return blas.ddot(diff, diff)


def check_vector(v, d: int, what: str):
    """Raise ProblemMismatch unless `v`, the `what` of a run, is a real
    ndarray of shape (d,): any other value would broadcast the iterate or
    fail untyped in the arithmetic it enters, and a complex one would lose
    its imaginary part silently."""
    if not isinstance(v, np.ndarray):
        raise ProblemMismatch(
            f"{what} is a {type(v).__name__}, expected an ndarray of shape ({d},)"
        )
    if v.shape != (d,):
        raise ProblemMismatch(f"{what} has shape {v.shape}, expected ({d},)")
    if v.dtype.kind not in "fiu":
        raise ProblemMismatch(
            f"{what} has dtype {v.dtype}, expected real floating point or integer"
        )


def require_finite(arr: Array, what: str):
    """Raise NonFiniteIterate if `arr`, the `what` of a run, holds a NaN or
    an infinity: a broken oracle or inconsistent (mu, L1) metadata."""
    if not np.all(np.isfinite(arr)):
        raise NonFiniteIterate(f"non-finite values in {what}")


def _fortran(a: Array) -> Array:
    """A symmetric A in Fortran order: a C-ordered A is its own transpose,
    so the view is the same matrix and nothing is copied."""
    return a if a.flags.f_contiguous else a.T


def symv(
    alpha: float, a: Array, x: Array, beta: float = 0.0, y: Optional[Array] = None
) -> Array:
    """alpha A x + beta y for a symmetric A, as one BLAS symv that reads one
    triangle of A; y is left unchanged and A is never copied."""
    if y is None:
        return blas.dsymv(alpha, _fortran(a), x)
    return blas.dsymv(alpha, _fortran(a), x, beta=beta, y=y)


_STALE = "stale played matrix: its round is over"


@dataclass
class PlayedMatrix:
    """The curvature matrix B = scale * base + shift * I, applied through
    products only. `base` must be symmetric: each product is one `symv`
    that reads one triangle of it.

    The operator holds `base` by reference. An owner that changes `base` in
    place sets `stale` once the operator is out of date (the learner does so
    in `update_round`), and every product raises StateMismatch from then on.
    """

    base: Array
    scale: float = 1.0
    shift: float = 0.0
    stale: bool = field(default=False, init=False)

    def shifted_matvec(self, eta: float) -> Callable[[Array], Array]:
        """v -> v + eta B v, the operator of the system (I + eta B) s = -eta g.

        The coefficients and the Fortran view of `base` are fixed once, so
        each product is the stale test and one `dsymv`, which leaves v
        unchanged and returns a new vector."""
        alpha = eta * self.scale
        beta = 1.0 + eta * self.shift
        base = _fortran(self.base)
        dsymv = blas.dsymv

        def matvec(v: Array) -> Array:
            if self.stale:
                raise StateMismatch(_STALE)
            return dsymv(alpha, base, v, beta=beta, y=v)

        return matvec

    def residual(self, y: Array, s: Array) -> Array:
        """y - B s."""
        if self.stale:
            raise StateMismatch(_STALE)
        return symv(-self.scale, self.base, s, 1.0, y - self.shift * s)


@dataclass(frozen=True)
class SolverConfig:
    """All tunables of the main solver; the defaults are the theory values.

    sigma0 is the one default that depends on the problem: None stands for
    1/(4 L1), which `validate_config` fills in. The oracle slack is no field:
    the learner works out the largest admissible one, min(mu/(L1-mu), 1),
    from (mu, L1).

    b0 selects the initial curvature matrix: None means L1*I, a float c means
    c*I with c in [mu, L1], an explicit symmetric matrix is used as given.
    """

    alpha1: float = 0.25
    alpha2: float = 0.25
    beta: float = 0.5
    sigma0: Optional[float] = None
    rho: float = 1.0 / 18.0
    p: float = 0.05
    b0: Union[None, float, Array] = None
    oracle_mode: str = "lanczos"
    seed: int = 0
    max_iters: int = 10000
    grad_tol: float = 1e-8


class IterationRecord(typing.NamedTuple):
    """One row of the per-iteration trace; every field but the last is a
    trace CSV column of the same name, in column order.

    Counters are per-iteration (the report totals are their column sums),
    and each defaults to what a method without that phase reports. `loss`
    is the learner loss of the round, set only on backtracked iterations;
    `dist_sq` is ||x_k - x*||^2 when the minimizer is known. The run loop
    always sets `grad_norm`. `hat_disp` is ||x_hat_k - x_k||, kept for the
    displacement certificate (not part of the CSV wire schema).
    """

    k: int
    eta: float
    backtracked: bool = False
    ls_steps: int = 1
    grad_evals: int = 1
    mv_linsolve: int = 0
    mv_extevec: int = 0
    loss: Optional[float] = None
    dist_sq: Optional[float] = None
    grad_norm: float = math.nan
    hat_disp: Optional[float] = None


@dataclass(frozen=True)
class SolverReport:
    """Full outcome of one solver run.

    `records` hold the per-iteration trace; `loss_samples` the
    `LossSample`s the learner consumed, in round order: one per iteration
    with a `loss`, which is a backtracked iteration whose rejected
    trial moved x. The counter properties are computed from the records.
    """

    method: str
    records: tuple
    final_x: Array
    final_grad_norm: float
    termination: str
    config: SolverConfig
    loss_samples: tuple = ()
    wall_time: float = 0.0

    @property
    def iterations(self) -> int:
        return len(self.records)

    @property
    def inv_eta_sq_sum(self) -> float:
        """Sum of 1/eta_k^2 over the iterations."""
        return float(sum(1.0 / r.eta**2 for r in self.records))

    @property
    def total_grad_evals(self) -> int:
        """Gradient evaluations of the whole run: the column sum plus the
        stopping probe, which belongs to no iteration (the budget
        certificates use the column sum)."""
        return 1 + sum(r.grad_evals for r in self.records)

    def totals(self) -> dict:
        """Column sums of the trace counters, by column name."""
        return {
            name: sum(getattr(r, name) for r in self.records)
            for name in ("grad_evals", "ls_steps", "mv_linsolve", "mv_extevec")
        }

    def final_dist_sq(self, obj: Objective) -> Optional[float]:
        return obj.dist_sq(self.final_x)


def default_delta(mu: float, l1: float) -> float:
    """Oracle slack min(mu/(L1-mu), 1), clamped to 1 when L1 = mu."""
    if l1 <= mu:
        return 1.0
    return min(mu / (l1 - mu), 1.0)


def budget_log_term(value: float, beta: float) -> float:
    """log_{1/beta}(value), snapped to the nearest integer within 1e-9.

    The snap makes the theory-default budget terms exact: with
    sigma0 = 1/(4 L1) the gradient-budget term log_{1/beta}(4 sigma0 L1)
    is identically zero, which floating point cannot deliver on its own.
    """
    t = math.log(value) / math.log(1.0 / beta)
    nearest = round(t)
    if abs(t - nearest) < 1e-9:
        return float(nearest)
    return t


def check_band(mu: float, l1: float):
    """Raise InvalidSpectrum unless 0 < mu <= L1 < inf."""
    # chained and negated so that NaN, which fails every comparison, and
    # an infinite L1 are rejected too
    if not 0.0 < mu <= l1 < math.inf:
        raise InvalidSpectrum(f"need 0 < mu <= L1 < inf, got mu={mu}, L1={l1}")


def _check_b0(b0, mu: float, l1: float, d: int):
    if b0 is None:
        return
    if np.isscalar(b0):
        c = float(b0)
        if not (mu <= c <= l1):
            raise ParameterConflict(
                f"scaled-identity factor {c} outside [{mu}, {l1}]"
            )
        return
    try:
        mat = np.asarray(b0)
    except ValueError as exc:  # NumPy raises it on ragged nested lists
        raise ParameterConflict(
            f"b0 has an inhomogeneous shape, expected ({d}, {d})"
        ) from exc
    if mat.dtype.kind not in "fiu":
        raise ParameterConflict(
            f"b0 has dtype {mat.dtype}, expected real floating point or integer"
        )
    if mat.shape != (d, d):
        raise ParameterConflict(f"b0 has shape {mat.shape}, problem dimension is {d}")
    if not np.all(np.isfinite(mat)):
        raise ParameterConflict("explicit b0 has non-finite entries")
    # exactly: products read one triangle, the exact oracle the other
    if not np.array_equal(mat, mat.T):
        raise ParameterConflict("explicit b0 must be symmetric")
    eigs = np.linalg.eigvalsh(mat)
    slack = _SPECTRUM_SLACK * max(1.0, l1)
    if eigs[0] < mu - slack or eigs[-1] > l1 + slack:
        raise ParameterConflict(
            f"b0 spectrum [{eigs[0]:.6g}, {eigs[-1]:.6g}] outside [{mu}, {l1}]"
        )


def _check_types(cfg: SolverConfig):
    """Reject a value that its field's type cannot hold before any range
    check compares it: None in a field that is not Optional, a non-number
    or a bool in a numeric field, a non-integer in seed or max_iters.
    oracle_mode and an explicit b0 matrix are left to their own checks.
    Python's bool is an integer type, so without its own check True would
    pass as 1."""
    for name, kind in CONFIG_FIELDS.items():
        value = getattr(cfg, name)
        if value is None:
            if name not in _OPTIONAL:
                raise ParameterConflict(f"{name} must not be None")
            continue
        if kind is str or (name == "b0" and not np.isscalar(value)):
            continue
        if isinstance(value, bool):
            raise ParameterConflict(
                f"{name} must be a number, not a bool, got {value!r}"
            )
        if kind is int and not isinstance(value, numbers.Integral):
            raise ParameterConflict(f"{name} must be an integer, got {value!r}")
        if not isinstance(value, numbers.Real):
            raise ParameterConflict(f"{name} must be a real number, got {value!r}")


def validate_config(cfg: Optional[SolverConfig], obj: Objective) -> SolverConfig:
    """Fill in sigma0's default and check every configuration invariant;
    None stands for `SolverConfig()`.

    Idempotent: validating an already-validated config returns an equal one.

    Raises:
        InvalidSpectrum: L1 < mu, mu <= 0, or mu or L1 not finite.
        ParameterConflict: a value its field's type cannot hold, parameter
            range violations, alpha1 + alpha2 >= 1, a negative seed, a
            sigma0 that is not positive, lies below alpha2*beta/L1 or whose
            attempt budget overflows, (mu, L1) whose oracle slack
            min(mu/(L1-mu), 1) underflows to 0, an explicit b0 that is not
            a symmetric d x d matrix, or a b0 spectrum outside [mu, L1].
    """
    cfg = SolverConfig() if cfg is None else cfg
    mu, l1 = float(obj.mu), float(obj.l1)
    check_band(mu, l1)
    _check_types(cfg)

    alpha1, alpha2, beta = cfg.alpha1, cfg.alpha2, cfg.beta
    sigma0 = 1.0 / (4.0 * l1) if cfg.sigma0 is None else float(cfg.sigma0)

    if not (0.0 <= alpha1 < 1.0):
        raise ParameterConflict(f"alpha1 must be in [0, 1), got {alpha1}")
    if not (0.0 < alpha2 < 1.0):
        raise ParameterConflict(f"alpha2 must be in (0, 1), got {alpha2}")
    if alpha1 + alpha2 >= 1.0:
        raise ParameterConflict(
            f"alpha1 + alpha2 must be < 1, got {alpha1} + {alpha2}"
        )
    if not (0.0 < beta < 1.0):
        raise ParameterConflict(f"beta must be in (0, 1), got {beta}")
    if not 0.0 < cfg.rho < math.inf:
        raise ParameterConflict(f"rho must be in (0, inf), got {cfg.rho}")
    # the learner's oracle slack, which the Lanczos budget needs positive
    if not default_delta(mu, l1) > 0.0:
        raise ParameterConflict(
            f"oracle slack min(mu/(L1-mu), 1) underflows to 0 at mu={mu}, L1={l1}"
        )
    if not (0.0 < cfg.p < 1.0):
        raise ParameterConflict(f"p must be in (0, 1), got {cfg.p}")
    if cfg.oracle_mode not in ORACLE_MODES:
        raise ParameterConflict(f"unknown oracle_mode {cfg.oracle_mode!r}")
    # default_rng rejects a negative seed with a bare ValueError
    if cfg.seed < 0:
        raise ParameterConflict(f"seed must be >= 0, got {cfg.seed}")
    if cfg.max_iters < 1:
        raise ParameterConflict("max_iters must be >= 1")
    # negated so that NaN, which fails every comparison, is rejected too
    if not cfg.grad_tol >= 0.0:
        raise ParameterConflict(f"grad_tol must be >= 0, got {cfg.grad_tol}")
    if not sigma0 > 0.0:
        raise ParameterConflict(f"sigma0 must be positive, got {sigma0}")
    if sigma0 < alpha2 * beta / l1:
        raise ParameterConflict(
            f"sigma0={sigma0:.6g} below the step floor "
            f"alpha2*beta/L1={alpha2 * beta / l1:.6g}"
        )
    # the line search's attempt budget takes the log of sigma0*L1/(alpha2*beta),
    # and alpha2*beta can underflow to zero
    alpha2_beta = alpha2 * beta
    if not (alpha2_beta > 0.0 and math.isfinite(sigma0 * l1 / alpha2_beta)):
        raise ParameterConflict(
            f"sigma0={sigma0:.6g} makes sigma0*L1/(alpha2*beta) non-finite"
        )
    _check_b0(cfg.b0, mu, l1, obj.dim)

    return replace(cfg, sigma0=sigma0)


def resolve_initial_matrix(cfg: SolverConfig, obj: Objective) -> Array:
    """Materialize the initial curvature matrix from the b0 policy of a
    config that `validate_config` has checked against `obj`. This is the
    one decoder of b0: a run hands its result to the learner, and the
    certificates decode it again from the report's config."""
    d = obj.dim
    if cfg.b0 is None:
        return float(obj.l1) * np.eye(d)
    if np.isscalar(cfg.b0):
        return float(cfg.b0) * np.eye(d)
    return np.array(cfg.b0, dtype=float)


# --- config field table (the CLI config flags and the type check) ---


def _flat_type(hint) -> type:
    """The str, int or float that a field's CLI flag parses; b0's flag is
    its scaled-identity factor."""
    members = typing.get_args(hint) or (hint,)
    return next(kind for kind in (str, int, float) if kind in members)


_HINTS = typing.get_type_hints(SolverConfig)
#: field name -> flat value type, in field order; drives the CLI config
#: flags and the type check of `validate_config`
CONFIG_FIELDS = {f.name: _flat_type(_HINTS[f.name]) for f in fields(SolverConfig)}
#: the fields that may hold None
_OPTIONAL = {
    name for name, hint in _HINTS.items() if type(None) in typing.get_args(hint)
}

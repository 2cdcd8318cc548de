"""Exception taxonomy shared by all solver modules.

Every error carries a stable category name (the class name) that the CLI
reports verbatim, so scripts can dispatch on it. Each failure condition
has one class: a module that meets a condition raises the class whose
docstring names it, and a new condition joins the class it belongs to
instead of adding one.
"""


class SolverError(Exception):
    """Base class for all package errors."""

    @property
    def category(self) -> str:
        return type(self).__name__


# --- configuration validation ---

class ParameterConflict(SolverError):
    """Parameters violate their admissible ranges: a solver, learner or
    budget parameter out of range, a sigma0 below the alpha2*beta/L1 step
    floor, an explicit b0 that is not a finite, real, symmetric d x d
    matrix or whose spectrum leaves [mu, L1], or `qnpe verify` with
    --seeds < 1, --min-pass-rate outside (0, 1] or --regret-competitors
    < 0."""


# --- problem generation / ingestion ---

class InvalidSpectrum(SolverError):
    """The curvature band or a spectrum is empty or non-positive: (mu, L1)
    outside 0 < mu <= L1 < inf (NaN included), a spectral transform asked
    for with L1 <= mu, a matrix read from file with a non-positive
    eigenvalue, a logistic lambda outside (0, inf), or problem data that
    are not finite."""


class ParseError(SolverError):
    """Input file is not a readable Matrix Market matrix: unreadable, not
    square, or not symmetric."""


class MinimizerStall(SolverError):
    """A problem's reference minimizer could not be computed: the damped
    Newton iteration of a logistic problem ended above its gradient
    tolerance (step cap reached, no decrease left at working precision, or
    a Hessian that is not numerically positive definite), or a quadratic's
    matrix is singular at working precision: its LU factorization meets a
    zero pivot or its refined solve leaves a relative residual above
    64 kappa eps, clipped to [1e-13, 1e-8]."""


# --- linear solver ---

class IterationCapExceeded(SolverError):
    """Krylov solver hit its iteration cap; the operator likely violates
    the positive-definite precondition or the tolerance is unreachable."""


# --- eigenvalue oracle ---

class EigFailure(SolverError):
    """A LAPACK routine of the separation oracle reported failure: the
    tridiagonal reduction or the QR eigenvalues, which run only after
    bisection failed, raise from the oracle call; inverse iteration or the
    back-map raise at the first read of `SepOutcome.vector`."""


# --- online learner ---

class ZeroDisplacement(SolverError):
    """Loss sample has a zero displacement vector."""


class StateMismatch(SolverError):
    """Learner round update without a preceding prediction, or a product
    with a played matrix whose `stale` flag its owner has set (the learner
    sets it in `update_round`, after stepping its base in place)."""


# --- line search ---

class BacktrackCapExceeded(SolverError):
    """A line search exceeded its attempt budget. For qnpe the (mu, L1)
    metadata is likely invalid for the supplied objective; for BFGS the
    value oracle does not decrease along a descent direction within the
    Armijo halving cap."""


# --- main solver ---

class NonFiniteIterate(SolverError):
    """NaN or Inf appeared in the start point, an iterate or a gradient, or
    a BFGS value is NaN, -inf, or +inf at the iterate."""


class MissingGroundTruth(SolverError):
    """A certificate needs the minimizer or Hessian oracle."""


# --- inputs ---

class ProblemMismatch(SolverError):
    """An input does not fit the problem or lacks part of what the method
    needs: a malformed problem spec or method name, a dimension below 1, a
    start point or a gradient that is not a real ndarray of shape (d,), a
    BFGS run without a value oracle or with a value that is not a real
    scalar, problem data that are empty or of the wrong shape, or logistic
    labels other than +1 or -1."""

"""Exception taxonomy shared by all solver modules.

Every error carries a stable category name (the class name) that the CLI
reports verbatim, so scripts can dispatch on it.
"""


class SolverError(Exception):
    """Base class for all package errors."""

    @property
    def category(self) -> str:
        return type(self).__name__


# --- configuration validation ---

class ParameterConflict(SolverError):
    """Line-search / learner parameters violate their admissible ranges, or
    `qnpe verify` has --seeds < 1, --min-pass-rate outside (0, 1] or
    --regret-competitors < 0."""


class StepSeedTooSmall(SolverError):
    """Initial trial step size below the alpha2*beta/L1 floor."""


class SpectrumViolation(SolverError):
    """Initial curvature matrix has eigenvalues outside [mu, L1]."""


class DegenerateCurvature(SolverError):
    """Curvature metadata is inconsistent (L1 < mu, or mu <= 0)."""


# --- problem generation / ingestion ---

class InvalidSpectrum(SolverError):
    """Requested eigenvalue range is empty or non-positive, or problem data
    are not finite."""


class ParseError(SolverError):
    """Input file is not a readable Matrix Market matrix."""


class NotSymmetric(SolverError):
    """Matrix read from file is not symmetric."""


class NotPositiveDefinite(SolverError):
    """Matrix read from file has a non-positive eigenvalue."""


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
    """Line search exceeded its attempt budget; (mu, L1) metadata is
    likely invalid for the supplied objective."""


# --- main solver ---

class NonFiniteIterate(SolverError):
    """NaN or Inf appeared in the start point, an iterate or a gradient."""


class MissingGroundTruth(SolverError):
    """A requested certificate needs the minimizer or Hessian oracle."""


# --- baselines ---

class LineSearchFailure(SolverError):
    """Armijo backtracking failed to find a decrease step."""


# --- inputs ---

class ProblemMismatch(SolverError):
    """An input does not fit the problem: a malformed problem spec or
    method name, a start point of the wrong shape, a gradient oracle that
    returns anything but an ndarray of shape (d,) at the start point or in
    a later iteration, problem data that are empty or of the wrong shape,
    or logistic labels other than +1 or -1."""

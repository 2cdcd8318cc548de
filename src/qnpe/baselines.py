"""Reference methods for comparison: fixed-step gradient descent and
classical inverse-form BFGS with Armijo backtracking.

Both run in the main solver's loop (`solver.run_loop`), so they share its
stopping rules and trace schema and the compare command can align them
column by column.
"""

from __future__ import annotations

import math
import numbers
from typing import Optional

import numpy as np

from .core import (
    Objective,
    SolverConfig,
    SolverReport,
    check_vector,
    validate_config,
)
from .errors import BacktrackCapExceeded, NonFiniteIterate, ProblemMismatch
from .solver import run_loop

Array = np.ndarray

ARMIJO_C1 = 1e-4
ARMIJO_MAX_HALVINGS = 60


def _value(obj: Objective, x: Array, where: str) -> float:
    """f(x) as a float, from a value oracle that must return a real scalar
    (a Python or NumPy number, or a 0-d array of one) other than NaN
    or -inf."""
    value = obj.value(x)
    if isinstance(value, np.ndarray) and value.shape == ():
        value = value[()]
    if not isinstance(value, numbers.Real):
        raise ProblemMismatch(
            f"value at {where} is a {type(value).__name__}, expected a real scalar"
        )
    value = float(value)
    # negated so that NaN fails too; a mu-strongly convex f takes neither
    if not value > -math.inf:
        raise NonFiniteIterate(
            f"value at {where} is {'NaN' if math.isnan(value) else value}"
        )
    return value


def bfgs_step(x: Array, h: Array, g: Array, obj: Objective) -> tuple:
    """One BFGS update from iterate x with inverse curvature approximation h
    and gradient g, with Armijo backtracking; obj needs a value oracle,
    which `solve_bfgs` checks. A value of +inf at a trial point counts as
    no decrease.

    Returns (x_new, g_new, h_new, step size, armijo attempts). The inverse
    approximation update is skipped when the curvature pair is degenerate
    (<y, s> <= 1e-12 ||s|| ||y||), which keeps H positive definite.

    Raises:
        ProblemMismatch: the value at x or at an Armijo trial point is not
            a real scalar, or the gradient at the new iterate is not a real
            ndarray of shape (d,).
        BacktrackCapExceeded: no Armijo decrease within the halving cap.
        NonFiniteIterate: the value at x is not finite, or the value at an
            Armijo trial point is NaN or -inf.
    """
    direction = -(h @ g)
    slope = float(g @ direction)
    f0 = _value(obj, x, "the iterate")
    # +inf here would pass every Armijo test
    if f0 == math.inf:
        raise NonFiniteIterate(f"value at the iterate is {f0}")
    step = 1.0
    for attempts in range(1, ARMIJO_MAX_HALVINGS + 1):
        x_new = x + step * direction
        trial = _value(obj, x_new, f"the Armijo trial point of step {step!r}")
        if trial <= f0 + ARMIJO_C1 * step * slope:
            break
        step *= 0.5
    else:
        raise BacktrackCapExceeded("Armijo backtracking exhausted its cap")

    g_new = obj.grad(x_new)
    check_vector(g_new, x.shape[0], "gradient at the Armijo point")
    s = x_new - x
    y = g_new - g
    ys = float(y @ s)
    if ys > 1e-12 * np.linalg.norm(s) * np.linalg.norm(y):
        rho = 1.0 / ys
        d = x.shape[0]
        left = np.eye(d) - rho * np.outer(s, y)
        h = left @ h @ left.T + rho * np.outer(s, s)
    return x_new, g_new, h, step, attempts


def solve_gd(
    obj: Objective,
    cfg: Optional[SolverConfig] = None,
    x0: Optional[Array] = None,
) -> SolverReport:
    """Gradient descent with the 1/L1 step under the shared stopping rules."""
    cfg = validate_config(cfg, obj)
    eta = 1.0 / obj.l1

    def step(x, g):
        x_next = x - eta * g
        return x_next, obj.grad(x_next), dict(eta=eta)

    return run_loop("gd", obj, cfg, x0, step)


def solve_bfgs(
    obj: Objective,
    cfg: Optional[SolverConfig] = None,
    x0: Optional[Array] = None,
) -> SolverReport:
    """BFGS from H = I with Armijo backtracking, shared stopping rules;
    an objective without a value oracle raises ProblemMismatch."""
    cfg = validate_config(cfg, obj)
    if obj.value is None:
        raise ProblemMismatch("BFGS needs the objective value oracle")
    h = np.eye(obj.dim)

    def step(x, g):
        nonlocal h
        x_new, g_new, h, eta, attempts = bfgs_step(x, h, g, obj)
        return x_new, g_new, dict(eta=eta, backtracked=attempts > 1, ls_steps=attempts)

    return run_loop("bfgs", obj, cfg, x0, step)

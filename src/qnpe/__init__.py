"""Quasi-Newton proximal extragradient solver with an online-learned
curvature model, reference baselines, and a certificate-verification
harness.

The top level exports the README surface; every other name is importable
from its own module (`qnpe.linsolve.conjugate_residual`, ...)."""

from .baselines import solve_bfgs, solve_gd
from .core import Objective, SolverConfig, SolverReport
from .extevec import lanczos_budget
from .learner import HessianLearner
from .problems import load_matrix_market, make_logistic, make_quadratic
from .solver import solve
from .verify import transition, verify_trace

__all__ = [
    "HessianLearner",
    "Objective",
    "SolverConfig",
    "SolverReport",
    "lanczos_budget",
    "load_matrix_market",
    "make_logistic",
    "make_quadratic",
    "solve",
    "solve_bfgs",
    "solve_gd",
    "transition",
    "verify_trace",
]

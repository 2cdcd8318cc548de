"""Output checks and the environment record.

The accuracy check does not trust any minimizer the package supplies
(`make_logistic` bootstraps its own with the solver under test): the
reference is a damped Newton iteration built here from `obj.grad` and
`obj.hessian`. By strong convexity ||x - x*|| <= ||grad(x)|| / mu, so a run
stopped at `grad_tol` must lie within (grad_tol + ||grad(x_ref)||) / mu of
the reference.
"""

from __future__ import annotations

import os
import platform
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy

MAX_NEWTON_STEPS = 100
MIN_DAMPING = 1e-10


class ReferenceStall(RuntimeError):
    """The Newton reference did not reach the accuracy the check needs."""


def newton_reference(obj, tol: float):
    """Damped Newton from the origin until the gradient norm stops falling.

    Each step halves its length until ||grad|| decreases; the Newton
    direction always allows that, because it is a descent direction of
    ||grad||^2. Returns (x_ref, ||grad(x_ref)||).
    """
    x = np.zeros(obj.dim)
    g = obj.grad(x)
    g_norm = float(np.linalg.norm(g))
    for _ in range(MAX_NEWTON_STEPS):
        step = np.linalg.solve(obj.hessian(x), g)
        t = 1.0
        while t >= MIN_DAMPING:
            x_new = x - t * step
            g_new = obj.grad(x_new)
            g_new_norm = float(np.linalg.norm(g_new))
            if g_new_norm < g_norm:
                break
            t *= 0.5
        else:
            break  # no decrease left at working precision
        x, g, g_norm = x_new, g_new, g_new_norm
    if g_norm > tol:
        raise ReferenceStall(
            f"Newton reference stalled at ||grad|| = {g_norm:.3e} > {tol:.3e}"
        )
    return x, g_norm


@dataclass(frozen=True)
class Verdict:
    """Why an operation failed (None if it did not), and whether its output
    is wrong: converged by its own account but off the reference."""

    failure: Optional[str]
    wrong: bool


def judge(report, error, certs, obj, reference) -> Verdict:
    """Apply the failure rules to one operation, in order: a typed solver
    error, a stop other than `grad_tol`, an applicable certificate failing,
    the accuracy check failing."""
    if error is not None:
        return Verdict(f"error:{error.category}", False)
    cfg = report.config
    x_ref, ref_grad_norm = reference
    distance = float(np.linalg.norm(report.final_x - x_ref))
    accurate = distance <= (cfg.grad_tol + ref_grad_norm) / obj.mu
    converged = report.termination == "grad_tol"
    wrong = converged and (report.final_grad_norm > cfg.grad_tol or not accurate)
    if not converged:
        return Verdict(f"termination:{report.termination}", wrong)
    if certs is not None:
        broken = [c.name for c in certs.results if c.applicable and not c.passed]
        if broken:
            return Verdict("certificate:" + "+".join(broken), wrong)
    if not accurate:
        return Verdict(f"accuracy:{distance:.3e}", wrong)
    return Verdict(None, wrong)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
    }

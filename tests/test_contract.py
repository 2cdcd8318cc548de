"""The trace contract: a fixed spec, method and config give a byte-identical
`cli.trace_csv`, pinned here by its full SHA-256.

The digests depend on floating-point rounding, so a BLAS or LAPACK upgrade,
or an intended change of the arithmetic, may move them. Such a change
re-pins the values below and must say so, with the reason, in CHANGES.md.

They also depend on which kernels OpenBLAS picks for the CPU at run time.
They are pinned with NumPy linking scipy-openblas 0.3.31 and SciPy linking
scipy-openblas 0.3.30, both on OpenBLAS's `SkylakeX` kernels (an AVX-512
CPU). On the `Haswell` kernels, which AVX2-only and AMD CPUs get and which
`OPENBLAS_CORETYPE=Haswell` forces, all five digests move, and so does the
rounding that `test_baselines.py::TestBfgs::test_readme_compare_problem_stalls`
and `test_solver.py::TestRunLoop::test_steps_below_one_ulp_stall[qnpe]` rely
on. `OPENBLAS_NUM_THREADS` does not move them.

The logistic digest also depends on NumPy's `exp`, which computes the
logistic sigmoid and picks a SIMD loop for the CPU at run time like
OpenBLAS. `NPY_DISABLE_CPU_FEATURES=X86_V4`, NumPy 2.4's name for its
AVX-512 group, switches `exp` to another loop, and then the logistic
digest moves; so do the qnpe, gd and bfgs digests on the d=50 quadratic,
through NumPy loops other than `exp`. Naming a single feature such as
`AVX512F` there switches nothing off.
"""

import hashlib
import os

import numpy as np
import pytest
import scipy

from qnpe import SolverConfig
from qnpe.cli import parse_problem, run_method, trace_csv
from reference import blas_build

#: (method, problem spec, config fields, SHA-256 of the trace CSV)
PINNED = [
    (
        "qnpe", "quadratic:d=50,mu=1,l1=1000,seed=7", {},
        "4c983a35c2534455a56363659e49a215c8d6a097c72be653cf34fbf64fc81ebe",
    ),
    (
        "qnpe", "logistic:n=200,d=20,lambda=0.01,seed=3", {},
        "4988428a12cb113ea00ab416c4bc931a4f7448346193b465ab0ac5be03647ad1",
    ),
    (
        "qnpe", "quadratic:d=30,mu=1,l1=100,seed=0", {"oracle_mode": "exact"},
        "c03c9c31f1d33e2d2b2802f2d4f4f5b421606b8a47d9a2d019fac062dbac4160",
    ),
    (
        "gd", "quadratic:d=50,mu=1,l1=1000,seed=7", {},
        "2d7105bcacb8375a0ad4d24df548c62e779514aac4c56de2891840fe7619bcc9",
    ),
    (
        "bfgs", "quadratic:d=50,mu=1,l1=1000,seed=7", {},
        "82b3e43230536029c9eb12f6d36c5c497f1204c3b93d84ff048bbfeb37343340",
    ),
]


@pytest.mark.parametrize(
    "method, spec, fields, digest", PINNED,
    ids=[f"{m}@{spec}" + ("-exact" if f else "") for m, spec, f, _ in PINNED],
)
def test_trace_digest_is_pinned(method, spec, fields, digest):
    obj, _ = parse_problem(spec)
    report = run_method(method, obj, SolverConfig(**fields))
    assert hashlib.sha256(trace_csv(report).encode()).hexdigest() == digest, (
        blas_context()
    )


def blas_context() -> str:
    """What the digests depend on besides the code: each library's BLAS
    build and the OpenBLAS kernel override."""
    builds = []
    for lib in (np, scipy):
        blas = blas_build(lib)
        name = f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip()
        builds.append(f"{lib.__name__} {lib.__version__} links {name}")
    coretype = os.environ.get("OPENBLAS_CORETYPE", "unset")
    return (
        f"{'; '.join(builds)}; OPENBLAS_CORETYPE={coretype}. The digests are "
        "pinned on scipy-openblas with OpenBLAS's SkylakeX kernels"
    )

"""The trace contract: a fixed spec, method and config give a byte-identical
`cli.trace_csv`, pinned here by its full SHA-256.

The digests depend on floating-point rounding, so a BLAS or LAPACK upgrade,
or an intended change of the arithmetic, may move them. Such a change
re-pins the values below and must say so, with the reason, in CHANGES.md.
"""

import hashlib

import pytest

from qnpe import SolverConfig
from qnpe.cli import parse_problem, run_method, trace_csv

#: (method, problem spec, config fields, SHA-256 of the trace CSV)
PINNED = [
    (
        "qnpe", "quadratic:d=50,mu=1,l1=1000,seed=7", {},
        "ccd9841427dadcb243d94e27bba91a5f1b6845d8d42a29b64696311a475f2f72",
    ),
    (
        "qnpe", "logistic:n=200,d=20,lambda=0.01,seed=3", {},
        "57f664af055b8a79352e2e04bfcd04620c8c692be622ce1912493e0623311d25",
    ),
    (
        "qnpe", "quadratic:d=30,mu=1,l1=100,seed=0", {"oracle_mode": "exact"},
        "1ebc10788030815ad242c33ba41f7d5b65be57cfebc5f7d517538960bd0c1bbe",
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
    assert hashlib.sha256(trace_csv(report).encode()).hexdigest() == digest

"""`solve` in exact oracle mode against `textbook_qnpe`, the paper's loop
written densely in tests/reference.py.

Control flow must match exactly: per iteration the line-search attempts,
whether a learner round ran, and the accepted step eta, bit for bit. The
values follow within tolerances: ||x_k - x*||^2 and the round's loss.
Measured on the three runs below (100 iterations on the quadratics, the
whole 42-iteration run on logistic), under OpenBLAS's SkylakeX, Haswell and
Prescott kernels, control flow was identical, the relative deviation of
dist_sq was at most 3.2e-8 (d=30 quadratic) and that of the loss at most
2.5e-4 (d=50 quadratic). The tolerances below leave 30x and 40x headroom.

Unlike the trace digests, the comparison does not pin bytes: it holds on
all three kernels, survives a re-pin, and catches a defect that changes
the algorithm: each of the eight seeded defects in tests/test_defects.py
breaks it on all three runs.
"""

import pytest
from reference import cpu_has, rerun_under_kernel, textbook_qnpe

import qnpe.solver
from qnpe.core import SolverConfig
from qnpe.problems import make_logistic, make_quadratic

DIST_TOL = 1e-6
LOSS_TOL = 1e-2
ITERS = 100

#: spec -> (objective factory, iterations compared)
RUNS = {
    "logistic:n=200,d=20,lambda=0.01,seed=3": (
        lambda: make_logistic(200, 20, 0.01, 3), 42
    ),
    "quadratic:d=30,mu=1,l1=100,seed=0": (
        lambda: make_quadratic(30, 1.0, 100.0, 0), ITERS
    ),
    "quadratic:d=50,mu=1,l1=1000,seed=7": (
        lambda: make_quadratic(50, 1.0, 1000.0, 7), ITERS
    ),
}


def first_divergence(report, steps):
    """The first k at which the records of `report` leave the textbook
    steps, or None when every iteration agrees and both runs have the same
    length."""
    for rec, step in zip(report.records, steps):
        flow = (rec.ls_steps, rec.loss is None, rec.eta)
        if flow != (step.ls_steps, step.loss is None, step.eta):
            return rec.k
        if abs(rec.dist_sq - step.dist_sq) > DIST_TOL * step.dist_sq:
            return rec.k
        if step.loss is not None and abs(rec.loss - step.loss) > LOSS_TOL * step.loss:
            return rec.k
    if len(report.records) != len(steps):
        return min(len(report.records), len(steps))
    return None


def _compare(spec):
    make, length = RUNS[spec]
    obj = make()
    cfg = SolverConfig(oracle_mode="exact", max_iters=ITERS)
    report = qnpe.solver.solve(obj, cfg)
    steps = textbook_qnpe(obj, cfg, ITERS)
    assert len(steps) == length
    return first_divergence(report, steps)


@pytest.mark.parametrize("spec", RUNS)
def test_solve_follows_the_textbook_loop(spec):
    assert _compare(spec) is None


@pytest.mark.parametrize(
    "coretype",
    [
        pytest.param("Haswell", marks=pytest.mark.skipif(
            not cpu_has("avx2"), reason="Haswell kernels need AVX2"
        )),
        "Prescott",
    ],
)
def test_comparison_on_other_openblas_kernels(coretype):
    stdout = rerun_under_kernel(
        coretype, "tests/test_textbook.py", "tests/test_defects.py",
        "-k", "not other_openblas_kernels",
    )
    assert "27 passed" in stdout

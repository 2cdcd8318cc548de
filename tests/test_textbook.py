"""`solve` against `textbook_qnpe`, the paper's loop written densely in
tests/reference.py, in both oracle modes.

Control flow must match exactly: per iteration the line-search attempts,
whether a learner round ran, the accepted step eta, bit for bit, and the
Lanczos steps of the oracle call that chose the played matrix (0 in exact
mode). In Lanczos mode the textbook draws its start vectors from its own
`np.random.default_rng(cfg.seed)`, so equal step counts in call order pin
the generator order. The values follow within tolerances: ||x_k - x*||^2
and the round's loss.

Measured on the three runs below (100 iterations on the quadratics, the
whole 42-iteration run on logistic), under OpenBLAS's SkylakeX, Haswell and
Prescott kernels, control flow was identical in both modes. In exact mode
the relative deviation of dist_sq was at most 3.2e-8 (d=30 quadratic) and
that of the loss at most 2.5e-4 (d=50 quadratic); the tolerances below
leave 30x and 40x headroom. In Lanczos mode, where both loops make the
same 38, 76 and 80 oracle calls (38, 17 and 26 of them find W outside) and
agree on gamma to 9 digits in each, the worst relative deviations of
dist_sq and loss were 1.0e-9 and 3.8e-9 (SkylakeX), 3.3e-10 and 3.2e-9
(Haswell), 4.4e-10 and 5.0e-9 (Prescott), all on logistic.

Unlike the trace digests, the comparison does not pin bytes: it holds on
all three kernels, survives a re-pin, and catches a defect that changes
the algorithm: each of the eight seeded defects in tests/test_defects.py
breaks it on all three runs in both modes, at the same k in each mode.
"""

import pytest
from reference import cpu_has, rerun_under_kernel, textbook_qnpe

import qnpe.solver
from qnpe.core import SolverConfig
from qnpe.problems import make_logistic, make_quadratic

DIST_TOL = 1e-6
LOSS_TOL = 1e-2
ITERS = 100

#: oracle modes compared
MODES = ("exact", "lanczos")

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

#: (spec, oracle mode) of every comparison; an exact-mode case is named by
#: its spec alone
CASES = [
    pytest.param(spec, mode, id=spec if mode == "exact" else f"{spec}-{mode}")
    for mode in MODES
    for spec in RUNS
]


def first_divergence(report, steps):
    """The first k at which the records of `report` leave the textbook
    steps, or None when every iteration agrees and both runs have the same
    length."""
    for rec, step in zip(report.records, steps):
        flow = (rec.ls_steps, rec.loss is None, rec.eta, rec.mv_extevec)
        if flow != (step.ls_steps, step.loss is None, step.eta, step.mv_extevec):
            return rec.k
        if abs(rec.dist_sq - step.dist_sq) > DIST_TOL * step.dist_sq:
            return rec.k
        if step.loss is not None and abs(rec.loss - step.loss) > LOSS_TOL * step.loss:
            return rec.k
    if len(report.records) != len(steps):
        return min(len(report.records), len(steps))
    return None


def _compare(spec, mode):
    make, length = RUNS[spec]
    obj = make()
    cfg = SolverConfig(oracle_mode=mode, max_iters=ITERS)
    report = qnpe.solver.solve(obj, cfg)
    steps = textbook_qnpe(obj, cfg, ITERS)
    assert len(steps) == length
    return first_divergence(report, steps)


@pytest.mark.parametrize("spec, mode", CASES)
def test_solve_follows_the_textbook_loop(spec, mode):
    assert _compare(spec, mode) is None


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
    from test_defects import DEFECTS  # test_defects imports this module

    assert f"{len(CASES) * (1 + len(DEFECTS))} passed" in stdout

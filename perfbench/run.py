"""qnpe benchmark: seeded solve workloads with end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from `src/` and the
metric names and units come from `BENCHMARK.json`. One client in one
process runs operations back to back (a closed loop) with BLAS pinned to
one thread. An operation is one `qnpe.cli.parse_problem` plus one
`qnpe.cli.run_method` at the default `grad_tol`, followed for qnpe by
`qnpe.verify_trace`. A round runs one operation per method of the workload
on one instance; rounds cycle over the instances, whose seeds derive from
`--seed`, until every instance has run and `--seconds` have passed.

Before the rounds, each instance is generated once, untimed, to build its
Newton reference (`checks.py`). `setup_s` is the median over operations,
so each set-up is timed as users meet it: once, then a solve. A
back-to-back set-up loop would time warm caches instead, and on a shared
host its median moves between runs far more. An operation fails on a typed solver error, a stop
other than `grad_tol`, a failing certificate, or a failing accuracy check.
The run is incorrect if a solve that claims convergence is off the
reference, or if two solves of one instance give different traces.

`--trace 0` prints the end-to-end metrics. `--trace 1` prints the per-layer
ones: one round suffices, each operation runs untraced and then traced, and
the ratio of the two solve times gives `trace.overhead`. Per-layer values
are per traced solve, and the traced counts must equal the report's
counters (`ReconcileError` otherwise).

Lines starting with `#` describe the environment and every operation, with
the SHA-256 of its trace CSV; the last line is the JSON result.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter, defaultdict  # noqa: E402
from contextlib import contextmanager  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Optional  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not (SRC / "qnpe" / "__init__.py").is_file():
    sys.exit(f"error: qnpe sources not found under {SRC}")
sys.path.insert(0, str(SRC))

import checks  # noqa: E402
import spans  # noqa: E402
from numpy.random import SeedSequence  # noqa: E402
from qnpe import SolverConfig, cli, verify_trace  # noqa: E402
from qnpe.errors import SolverError  # noqa: E402

#: the Newton reference must reach this share of the checked tolerance
REFERENCE_TOL = 1e-2


@dataclass(frozen=True)
class Workload:
    problem: str  # problem spec without its seed
    methods: tuple
    oracle_mode: str
    instances: int  # distinct seeded instances per run
    #: instance seeds that do not follow --seed; the baselines pin the
    #: README's compare instance, because whether BFGS stalls changes from
    #: one instance to the next and would swing the solve time tenfold
    pinned: tuple = ()


#: Instance counts let one pass over the instances fit a 20 s window.
WORKLOADS = {
    "quad-exact": Workload("quadratic:d=100,mu=1,l1=1000", ("qnpe",), "exact", 5),
    "quad-lanczos": Workload("quadratic:d=400,mu=1,l1=100", ("qnpe",), "lanczos", 4),
    "logistic": Workload(
        "logistic:n=10000,d=100,lambda=1e-5", ("qnpe",), "lanczos", 6
    ),
    "baselines": Workload(
        "quadratic:d=50,mu=1,l1=1000", ("gd", "bfgs"), "lanczos", 1, pinned=(7,)
    ),
}

class ReconcileError(RuntimeError):
    """Traced layer counts disagree with the solver report's counters."""


@dataclass
class Op:
    """One operation's measurements and outcome. It keeps the report's
    counters, not the report, so memory does not grow with the run."""

    spec: str
    method: str
    setup_s: float
    solve_s: float
    failure: Optional[str]
    wrong: bool
    termination: str = "error"
    iters: Optional[int] = None  # None when the solver raised
    counts: dict = field(default_factory=dict)
    digest: str = "NA"
    layers: dict = field(default_factory=dict)  # root span name -> totals


class Bench:
    """One run of one workload: its instances, references and timings."""

    def __init__(self, workload: Workload, seed: int, traced: bool):
        self.workload = workload
        self.traced = traced
        seeds = workload.pinned or SeedSequence(seed).generate_state(
            workload.instances
        )
        self.specs = [f"{workload.problem},seed={s}" for s in seeds]
        self.configs = {
            spec: SolverConfig(oracle_mode=workload.oracle_mode, seed=int(s))
            for spec, s in zip(self.specs, seeds)
        }
        self.references = {}
        self.digests = {}
        self.tracer = spans.Tracer()

    def prepare(self):
        """Generate every instance once and build its reference."""
        for spec in self.specs:
            obj, _ = cli.parse_problem(spec)
            tol = REFERENCE_TOL * self.configs[spec].grad_tol
            self.references[spec] = checks.newton_reference(obj, tol)

    @contextmanager
    def _span(self, traced: bool, root: str):
        if not traced:
            yield
            return
        with spans.installed(self.tracer), self.tracer.span(root):
            yield

    def operation(self, spec: str, method: str, traced: bool) -> Op:
        start = time.perf_counter()
        with self._span(traced, "setup"):
            obj, _ = cli.parse_problem(spec)
        setup_s = time.perf_counter() - start

        run_obj = spans.traced_objective(obj, self.tracer) if traced else obj
        report = error = None
        start = time.perf_counter()
        try:
            with self._span(traced, "solver" if method == "qnpe" else "baselines"):
                report = cli.run_method(method, run_obj, self.configs[spec])
        except SolverError as exc:
            error = exc
        solve_s = time.perf_counter() - start

        certs = None
        if report is not None and method == "qnpe":
            with self._span(traced, "verify"):
                certs = verify_trace(report, obj)
        verdict = checks.judge(report, error, certs, obj, self.references[spec])
        op = Op(spec, method, setup_s, solve_s, verdict.failure, verdict.wrong,
                layers=spans.fold(self.tracer.take()))
        if report is not None:
            op.termination = report.termination
            op.iters = report.iterations
            op.counts = report.totals()
            op.digest = hashlib.sha256(cli.trace_csv(report).encode()).hexdigest()
            op.wrong |= self.digests.setdefault((spec, method), op.digest) != op.digest
            if traced and method == "qnpe":
                _reconcile(op, report)
        return op

    def rounds(self, seconds: float):
        """Closed loop: yield one round's ops at a time until `seconds` have
        passed and every instance has run (one round suffices when traced,
        where each operation runs untraced, then traced)."""
        min_rounds = 1 if self.traced else len(self.specs)
        start = time.perf_counter()
        n = 0
        while n < min_rounds or time.perf_counter() - start < seconds:
            spec = self.specs[n % len(self.specs)]
            ops = []
            for method in self.workload.methods:
                ops.append(self.operation(spec, method, traced=False))
                if self.traced:
                    ops.append(self.operation(spec, method, traced=True))
            yield ops
            n += 1


def _reconcile(op: Op, report):
    layer = op.layers["solver"]
    pairs = (
        ("linsolve.matvecs", layer["linsolve.matvecs"],
         "mv_linsolve", op.counts["mv_linsolve"]),
        ("problems.grad.calls", layer["problems.grad.calls"],
         "total_grad_evals", report.total_grad_evals),
        ("extevec.matvecs", layer["extevec.matvecs"],
         "mv_extevec", op.counts["mv_extevec"]),
        ("learner.rounds", layer["learner.update.calls"],
         "len(loss_samples)", len(report.loss_samples)),
    )
    for traced_name, traced, report_name, reported in pairs:
        if traced != reported:
            raise ReconcileError(
                f"{op.spec} {op.method}: traced {traced_name}={traced} but "
                f"report {report_name}={reported}"
            )


def _describe(op: Op) -> str:
    fields = [f"# op {op.spec} method={op.method} termination={op.termination}"]
    if op.iters is not None:
        fields.append(f"iters={op.iters}")
        fields += [f"{key}={value}" for key, value in op.counts.items()]
    fields += [
        f"setup_s={op.setup_s:.6f}",
        f"solve_s={op.solve_s:.6f}",
        f"sha256={op.digest}",
        f"status={'ok' if op.failure is None else 'failed:' + op.failure}",
    ]
    if op.wrong:
        fields.append("WRONG")
    return " ".join(fields)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def end_to_end(bench: Bench, rounds: list) -> dict:
    """Medians of the timings; counts per solve over the first pass, in
    which every instance runs once with every method."""
    ops = [op for round_ops in rounds for op in round_ops]
    first_pass = [op for round_ops in rounds[: len(bench.specs)]
                  for op in round_ops if op.iters is not None]
    counts = {
        key: statistics.mean(op.counts[key] for op in first_pass)
        for key in ("grad_evals", "mv_linsolve", "mv_extevec")
    }
    failed = sum(op.failure is not None for op in ops)
    print(f"# summary solves={len(ops)} rounds={len(rounds)} "
          f"fail_frac={failed / len(ops)!r} "
          f"mv_linsolve={counts['mv_linsolve']!r} "
          f"mv_extevec={counts['mv_extevec']!r}")
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": statistics.median(op.setup_s for op in ops),
        "solve_s": statistics.median(
            statistics.mean(op.solve_s for op in round_ops) for round_ops in rounds
        ),
        "iters": float(statistics.mean(op.iters for op in first_pass)),
        "grad_evals": float(counts["grad_evals"]),
        "peak_rss_mb": peak_kib / 1024.0,
    }


def per_layer(rounds: list) -> dict:
    """Layer metrics per traced solve; ratios are taken over their sums."""
    pairs = [pair for round_ops in rounds
             for pair in zip(round_ops[0::2], round_ops[1::2])]
    traced = [t for _, t in pairs]
    by_root = defaultdict(Counter)
    iters = Counter()
    for op in traced:
        for root, tally in op.layers.items():
            by_root[root].update(tally)
        iters[op.method == "qnpe"] += op.iters or 0
    layer = Counter(by_root["solver"])
    layer.update(by_root["baselines"])
    setup, verify = by_root["setup"], by_root["verify"]
    n = len(traced)
    return {
        "solver.self_s": layer["solver.self_s"] / n,
        "linesearch.calls": layer["linesearch.calls"] / n,
        "linesearch.self_s": layer["linesearch.self_s"] / n,
        "linesearch.accept_ratio": _ratio(
            layer["linesearch.calls"], layer["linesearch.attempts"]
        ),
        "linsolve.calls": layer["linsolve.calls"] / n,
        "linsolve.busy_s": layer["linsolve.busy_s"] / n,
        "linsolve.matvecs": layer["linsolve.matvecs"] / n,
        "extevec.calls": layer["extevec.calls"] / n,
        "extevec.busy_s": layer["extevec.busy_s"] / n,
        "extevec.matvecs": layer["extevec.matvecs"] / n,
        "extevec.outside_ratio": _ratio(
            layer["extevec.outside"], layer["extevec.calls"]
        ),
        "extevec.budget_use": _ratio(layer["extevec.steps"], layer["extevec.budget"]),
        "learner.rounds": layer["learner.update.calls"] / n,
        "learner.round_ratio": _ratio(layer["learner.update.calls"], iters[True]),
        "learner.predict_self_s": layer["learner.predict.self_s"] / n,
        "learner.update_s": layer["learner.update.busy_s"] / n,
        "problems.grad.calls": layer["problems.grad.calls"] / n,
        "problems.grad.busy_s": layer["problems.grad.busy_s"] / n,
        "problems.value.calls": layer["problems.value.calls"] / n,
        "problems.value.busy_s": layer["problems.value.busy_s"] / n,
        "baselines.self_s": layer["baselines.self_s"] / n,
        "baselines.value_per_iter": _ratio(
            by_root["baselines"]["problems.value.calls"], iters[False]
        ),
        "problems.bootstrap_s": setup["problems.bootstrap.busy_s"] / n,
        "verify.busy_s": _ratio(verify["verify.busy_s"], verify["verify.calls"]),
        "trace.overhead": statistics.median(
            t.solve_s / p.solve_s - 1.0 for p, t in pairs
        ),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    bench = Bench(WORKLOADS[args.workload], args.seed, bool(args.trace))
    print(f"# env {json.dumps(checks.environment(), sort_keys=True)}")
    bench.prepare()
    rounds = []
    for round_ops in bench.rounds(args.seconds):
        for op in round_ops:
            print(_describe(op), flush=True)
        rounds.append(round_ops)

    values = per_layer(rounds) if args.trace else end_to_end(bench, rounds)
    section = "per_layer" if args.trace else "end_to_end"
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[section]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}
    for name, entry in metrics.items():
        print(f"# metric {name} {entry['value']!r} {entry['unit']}")
    ops = [op for round_ops in rounds for op in round_ops]
    print(json.dumps({
        "correct": not any(op.wrong for op in ops),
        "attempted": len(ops),
        "failed": sum(op.failure is not None for op in ops),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

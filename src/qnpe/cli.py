"""Benchmark command line: run solvers on configured problems, verify the
per-run certificates, and compare methods.

Problem specs use the `name:key=val,...` micro-syntax
(`quadratic:d=50,mu=1,l1=1000,seed=7`, `logistic:n=200,d=20,lambda=0.1,seed=3`,
`mm:path/to/matrix.mtx`); generator seeds are mandatory. Traces are CSV with
the fixed header below, summaries and certificate reports are flat
`key=value` text. Identical spec and seed produce byte-identical traces.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from typing import Optional

from .baselines import solve_bfgs, solve_gd
from .core import (
    CONFIG_FIELDS,
    ORACLE_MODES,
    IterationRecord,
    Objective,
    SolverConfig,
    SolverReport,
)
from .errors import ParameterConflict, ProblemMismatch, SolverError
from .problems import load_matrix_market, make_logistic, make_quadratic
from .solver import solve
from .verify import transition, verify_trace

#: the trace CSV columns: every `IterationRecord` field but the last,
#: `hat_disp`, in field order
TRACE_COLUMNS = IterationRecord._fields[:-1]
CSV_HEADER = ",".join(TRACE_COLUMNS)

#: method name -> solver, bound at import: rebinding `qnpe.solver.solve`
#: later does not reach `run_method`
METHODS = {"qnpe": solve, "gd": solve_gd, "bfgs": solve_bfgs}


def _fmt(value) -> str:
    """Shortest round-trip decimal for floats, NA for missing."""
    if value is None:
        return "NA"
    return repr(float(value))


def _cell(value) -> str:
    """A trace cell: a flag as 1/0, a counter as itself, else `_fmt`."""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    return _fmt(value)


#: generator name -> (factory, its spec parameters in call order with their
#: types); the canonical key lists the parameters in this order
GENERATORS = {
    "quadratic": (make_quadratic, {"d": int, "mu": float, "l1": float, "seed": int}),
    "logistic": (make_logistic, {"n": int, "d": int, "lambda": float, "seed": int}),
}


def parse_problem(spec: str) -> tuple:
    """Resolve a problem spec string to (Objective, canonical key)."""
    name, _, rest = spec.partition(":")
    if name == "mm":
        if not rest:
            raise ProblemMismatch("mm spec needs a file path: mm:PATH")
        return load_matrix_market(rest), f"mm:{rest}"
    params = {}
    if rest:
        for item in rest.split(","):
            key, _, val = item.partition("=")
            if not val:
                raise ProblemMismatch(f"malformed problem parameter {item!r}")
            key, val = key.strip(), val.strip()
            if key in params:
                raise ProblemMismatch(f"problem parameter {key}={val!r} is repeated")
            params[key] = val
    if name not in GENERATORS:
        raise ProblemMismatch(f"unknown problem generator {name!r}")
    factory, kinds = GENERATORS[name]
    missing = [k for k in kinds if k not in params]
    if missing:
        raise ProblemMismatch(f"{spec!r} is missing {', '.join(missing)}")
    extra = [k for k in params if k not in kinds]
    if extra:
        raise ProblemMismatch(f"{spec!r} has unknown keys {', '.join(extra)}")
    values = {}
    for key, kind in kinds.items():
        try:
            values[key] = kind(params[key])
        except ValueError:
            raise ProblemMismatch(
                f"problem parameter {key}={params[key]!r} is not {kind.__name__}"
            ) from None
    obj = factory(*values.values())
    return obj, name + ":" + ",".join(f"{k}={params[k]}" for k in kinds)


def config_from_args(args) -> SolverConfig:
    overrides = {}
    for name in CONFIG_FIELDS:
        value = getattr(args, name, None)
        if value is not None:
            overrides[name] = value
    return SolverConfig(**overrides)


def run_method(method: str, obj: Objective, cfg: SolverConfig) -> SolverReport:
    if method not in METHODS:
        raise ProblemMismatch(f"unknown method {method!r}")
    return METHODS[method](obj, cfg)


def trace_csv(report: SolverReport) -> str:
    width = len(TRACE_COLUMNS)
    lines = [CSV_HEADER]
    for r in report.records:
        lines.append(",".join(map(_cell, r[:width])))
    return "\n".join(lines) + "\n"


def summary_kv(report: SolverReport, obj: Objective, problem_key: str) -> str:
    pairs = [
        ("method", report.method),
        ("problem", problem_key),
        ("termination", report.termination),
        ("iterations", str(report.iterations)),
        *((name, str(total)) for name, total in report.totals().items()),
        ("final_grad_norm", _fmt(report.final_grad_norm)),
        ("final_dist_sq", _fmt(report.final_dist_sq(obj))),
        ("inv_eta_sq_sum", _fmt(report.inv_eta_sq_sum)),
        ("n_tr", _fmt(transition(report, obj))),
        ("wall_time", _fmt(report.wall_time)),
    ]
    return "".join(f"{k}={v}\n" for k, v in pairs)


def _write(args, path: Optional[str], default_name: str, text: str) -> str:
    """Write `text` to `path`, by default to `default_name` in --out-dir;
    returns the path."""
    if not path:
        os.makedirs(args.out_dir, exist_ok=True)
        path = os.path.join(args.out_dir, default_name)
    with open(path, "w") as fh:
        fh.write(text)
    return path


def cmd_run(args) -> int:
    obj, key = parse_problem(args.problem)
    report = run_method(args.method, obj, config_from_args(args))
    trace_path = _write(args, args.trace, "trace.csv", trace_csv(report))
    summary_path = _write(
        args, args.summary, "summary.txt", summary_kv(report, obj, key)
    )
    print(f"{report.method} on {key}: {report.termination} "
          f"after {report.iterations} iterations")
    print(f"trace: {trace_path}")
    print(f"summary: {summary_path}")
    return 0


def cmd_verify(args) -> int:
    seeds, rate, competitors = args.seeds, args.min_pass_rate, args.regret_competitors
    for flag, value, allowed, ok in (
        ("--seeds", seeds, ">= 1", seeds >= 1),
        ("--min-pass-rate", rate, "in (0, 1]", 0.0 < rate <= 1.0),
        ("--regret-competitors", competitors, ">= 0", competitors >= 0),
    ):
        if not ok:
            raise ParameterConflict(f"{flag} must be {allowed}, got {value}")
    obj, key = parse_problem(args.problem)
    cfg = config_from_args(args)
    lines = ["method=qnpe", f"problem={key}"]
    passes = 0
    for seed in range(cfg.seed, cfg.seed + seeds):
        run = solve(obj, dataclasses.replace(cfg, seed=seed))
        certs = verify_trace(run, obj, regret_competitors=competitors)
        passes += certs.all_passed
        if seeds > 1:
            lines.append(f"seed_{seed}={'pass' if certs.all_passed else 'fail'}")
    if seeds == 1:
        for cert in certs.results:
            if not cert.applicable:
                lines.append(f"cert_{cert.name}=na")
                continue
            lines.append(f"cert_{cert.name}={'true' if cert.passed else 'false'}")
            lines.append(f"margin_{cert.name}={_fmt(cert.margin)}")
        lines.append(f"n_tr={_fmt(certs.n_tr)}")
        if certs.n_eps_bound is not None:
            lines.append(f"n_eps_bound={_fmt(certs.n_eps_bound)}")
        lines.append(f"all_passed={'true' if certs.all_passed else 'false'}")
    else:
        lines.append(f"pass_rate={_fmt(passes / seeds)}")

    text = "\n".join(lines) + "\n"
    _write(args, args.report, "certificates.txt", text)
    sys.stdout.write(text)
    return 0 if passes / seeds >= rate else 1


def cmd_compare(args) -> int:
    if len(args.method) < 2:
        raise ProblemMismatch("compare needs at least two --method flags")
    cfg = config_from_args(args)
    obj, key = parse_problem(args.problem)
    reports = [(method, run_method(method, obj, cfg)) for method in args.method]

    metric = "dist_sq" if obj.minimizer is not None else "grad_norm"
    columns = [
        [getattr(r, metric) for r in report.records] for _, report in reports
    ]
    depth = max(len(c) for c in columns)

    lines = [f"# problem {key}", f"# metric {metric}"]
    lines.append("# k " + " ".join(method for method, _ in reports))
    for k in range(depth):
        row = [str(k)]
        for col in columns:
            row.append(_fmt(col[k]) if k < len(col) else "NA")
        lines.append(" ".join(row))
    for method, report in reports:
        totals = report.totals()
        lines.append(
            f"# totals {method} iterations={report.iterations} "
            f"grad_evals={totals['grad_evals']} "
            f"mv_linsolve={totals['mv_linsolve']} "
            f"mv_extevec={totals['mv_extevec']}"
        )
    text = "\n".join(lines) + "\n"
    _write(args, args.out, "compare.dat", text)
    sys.stdout.write(text)
    return 0


def _add_config_flags(parser):
    for name, kind in CONFIG_FIELDS.items():
        choices = ORACLE_MODES if name == "oracle_mode" else None
        parser.add_argument(f"--{name.replace('_', '-')}", type=kind,
                            choices=choices, default=None)
    parser.add_argument("--out-dir", default=".", help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qnpe",
        description="quasi-Newton proximal extragradient benchmark harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="solve one problem and write trace/summary")
    run.add_argument("--problem", required=True)
    run.add_argument("--method", choices=tuple(METHODS), default="qnpe")
    run.add_argument("--trace", default=None)
    run.add_argument("--summary", default=None)
    _add_config_flags(run)
    run.set_defaults(func=cmd_run)

    verify = sub.add_parser("verify", help="run qnpe and machine-check certificates")
    verify.add_argument("--problem", required=True)
    verify.add_argument("--seeds", type=int, default=1,
                        help="number of consecutive seeds for statistical runs")
    verify.add_argument("--min-pass-rate", type=float, default=0.95)
    verify.add_argument("--regret-competitors", type=int, default=0)
    verify.add_argument("--report", default=None)
    _add_config_flags(verify)
    verify.set_defaults(func=cmd_verify)

    compare = sub.add_parser("compare", help="align runs on one problem")
    compare.add_argument("--problem", required=True)
    compare.add_argument("--method", choices=tuple(METHODS), action="append",
                         default=[])
    compare.add_argument("--out", default=None)
    _add_config_flags(compare)
    compare.set_defaults(func=cmd_compare)

    return parser


def main(argv: Optional[list] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (SolverError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

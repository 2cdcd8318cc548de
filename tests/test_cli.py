import argparse
import dataclasses
import math
import os
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

import qnpe.cli
import qnpe.problems
from qnpe.cli import CSV_HEADER, build_parser, main, parse_problem
from qnpe.core import IterationRecord, SolverConfig
from qnpe.solver import solve
from qnpe.verify import Certificate, TraceCertificates, verify_trace

QUAD = "quadratic:d=8,mu=1,l1=50,seed=3"
README = Path(__file__).resolve().parent.parent / "README.md"


def read(path):
    with open(path) as fh:
        return fh.read()


def run_cli(tmp_path, *argv):
    return main([*argv, "--out-dir", str(tmp_path)])


class TestRun:
    def test_writes_trace_and_summary(self, tmp_path):
        code = run_cli(
            tmp_path, "run", "--problem", QUAD, "--method", "qnpe",
            "--oracle-mode", "exact",
        )
        assert code == 0
        trace = read(tmp_path / "trace.csv").splitlines()
        assert trace[0] == CSV_HEADER
        assert len(trace) > 1
        summary = dict(
            line.split("=", 1) for line in read(tmp_path / "summary.txt").splitlines()
        )
        assert summary["termination"] == "grad_tol"
        assert summary["method"] == "qnpe"
        # trace self-consistency: totals equal column sums
        grad_col = [int(row.split(",")[4]) for row in trace[1:]]
        assert int(summary["grad_evals"]) == sum(grad_col)

    def test_na_for_unavailable_optionals(self, tmp_path):
        run_cli(
            tmp_path, "run", "--problem", QUAD, "--method", "gd",
            "--max-iters", "5", "--grad-tol", "1e-16",
        )
        rows = read(tmp_path / "trace.csv").splitlines()[1:]
        assert all(row.split(",")[7] == "NA" for row in rows)  # loss column

    def test_step_seed_too_small_exits_2(self, tmp_path, capsys):
        code = run_cli(
            tmp_path, "run", "--problem", "quadratic:d=4,mu=1,l1=1,seed=0",
            "--method", "qnpe", "--sigma0", "1e-9",
        )
        assert code == 2
        assert "error: ParameterConflict: sigma0=1e-09 below the step floor" in (
            capsys.readouterr().err
        )

    @pytest.mark.parametrize("flag", ["--grad-tol", "--dist-tol"])
    def test_nan_tolerance_exits_2(self, tmp_path, capsys, flag):
        code = run_cli(
            tmp_path, "run", "--problem", "quadratic:d=5,mu=1,l1=10,seed=0",
            "--method", "gd", flag, "nan", "--max-iters", "300",
        )
        assert code == 2
        assert "error: ParameterConflict" in capsys.readouterr().err
        assert not (tmp_path / "trace.csv").exists()

    @pytest.mark.parametrize(
        "argv, name",
        [
            (["--sigma0", "inf"], "sigma0"),
            (["--sigma0", "1e308"], "sigma0"),
            (["--seed", "-1"], "seed"),
            (["--seed", "-1", "--oracle-mode", "exact"], "seed"),
            (["--seed", "-1", "--method", "gd"], "seed"),
            (["--rho", "inf"], "rho"),
        ],
        ids=[
            "sigma0_inf", "sigma0_huge", "seed_lanczos", "seed_exact", "seed_gd",
            "rho_inf",
        ],
    )
    def test_config_out_of_range_exits_2(self, tmp_path, capsys, argv, name):
        code = run_cli(
            tmp_path, "run", "--problem", "quadratic:d=5,mu=1,l1=10,seed=1", *argv
        )
        assert code == 2
        err = capsys.readouterr().err
        assert f"error: ParameterConflict: {name}" in err
        assert "Traceback" not in err
        assert not (tmp_path / "trace.csv").exists()

    @pytest.mark.parametrize(
        "spec",
        [
            "quadratic:d=4,mu=1,l1=inf,seed=1",
            "quadratic:d=4,mu=nan,l1=10,seed=1",
            "logistic:n=20,d=4,lambda=nan,seed=1",
            "logistic:n=20,d=4,lambda=inf,seed=1",
        ],
        ids=["l1_inf", "mu_nan", "lambda_nan", "lambda_inf"],
    )
    def test_non_finite_constant_exits_2(self, tmp_path, capsys, spec):
        code = run_cli(tmp_path, "run", "--problem", spec)
        assert code == 2
        assert "error: InvalidSpectrum" in capsys.readouterr().err

    def test_minimizer_stall_exits_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(qnpe.problems, "NEWTON_MAX_STEPS", 1)
        code = run_cli(
            tmp_path, "run", "--problem", "logistic:n=40,d=6,lambda=0.1,seed=3",
        )
        assert code == 2
        assert "error: MinimizerStall" in capsys.readouterr().err

    def test_singular_quadratic_exits_2(self, tmp_path, capsys):
        # mu = 1e-300 is a valid spec, but A is singular at working precision
        code = run_cli(
            tmp_path, "run", "--problem", "quadratic:d=5,mu=1e-300,l1=1,seed=0",
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "error: MinimizerStall" in err
        assert "Traceback" not in err

    def test_delta_flag_is_gone(self, tmp_path, capsys):
        # the learner works out the oracle slack from (mu, L1)
        with pytest.raises(SystemExit) as exit_info:
            run_cli(tmp_path, "run", "--problem", QUAD, "--delta", "0.5")
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --delta 0.5" in capsys.readouterr().err
        assert not (tmp_path / "trace.csv").exists()

    def test_matrix_market_gd_two_iterations(self, tmp_path):
        mtx = tmp_path / "ident2.mtx"
        mtx.write_text(
            "%%MatrixMarket matrix coordinate real symmetric\n"
            "2 2 2\n1 1 1.0\n2 2 1.0\n"
        )
        code = run_cli(
            tmp_path, "run", "--problem", f"mm:{mtx}", "--method", "gd",
        )
        assert code == 0
        rows = read(tmp_path / "trace.csv").splitlines()[1:]
        assert len(rows) <= 2

    def test_gd_summary_reports_step_sums(self, tmp_path):
        code = run_cli(
            tmp_path, "run", "--problem", "quadratic:d=4,mu=1,l1=50,seed=0",
            "--method", "gd", "--max-iters", "7",
        )
        assert code == 0
        summary = dict(
            line.split("=", 1)
            for line in read(tmp_path / "summary.txt").splitlines()
        )
        assert summary["iterations"] == "7"
        assert float(summary["inv_eta_sq_sum"]) == pytest.approx(7 * 50.0**2)

    def test_b0_flag_selects_scaled_identity(self, tmp_path, capsys):
        ok = run_cli(
            tmp_path, "run", "--problem", "quadratic:d=4,mu=1,l1=50,seed=0",
            "--b0", "25", "--max-iters", "50",
        )
        assert ok == 0
        bad = run_cli(
            tmp_path, "run", "--problem", "quadratic:d=4,mu=1,l1=50,seed=0",
            "--b0", "200",
        )
        assert bad == 2
        assert "error: ParameterConflict: scaled-identity factor 200.0 outside" in (
            capsys.readouterr().err
        )

    @pytest.mark.parametrize(
        "spec",
        [
            "quadratic:d=abc,mu=1,l1=10,seed=1",
            "quadratic:d=4,mu=1,l1=10,seed=1.5",
            "quadratic:d=4,mu=1,l1=10,seed=-1",
            "logistic:n=20,d=4,lambda=x,seed=1",
            "quadratic:d=4,mu=1,l1=10,seed=1,seed=2",
            "quadratic:d=0,mu=1,l1=10,seed=1",
            "logistic:n=0,d=4,lambda=0.1,seed=1",
        ],
        ids=["d_abc", "seed_float", "seed_negative", "lambda_x", "seed_repeated",
             "d_zero", "n_zero"],
    )
    def test_malformed_spec_value_exits_2(self, tmp_path, capsys, spec):
        code = run_cli(tmp_path, "run", "--problem", spec)
        assert code == 2
        err = capsys.readouterr().err
        assert "error: ProblemMismatch" in err
        assert "Traceback" not in err
        assert not (tmp_path / "trace.csv").exists()

    def test_missing_seed_rejected(self, tmp_path, capsys):
        code = run_cli(
            tmp_path, "run", "--problem", "quadratic:d=4,mu=1,l1=2",
        )
        assert code == 2
        assert "ProblemMismatch" in capsys.readouterr().err

    def test_determinism_byte_identical(self, tmp_path):
        for sub in ("a", "b"):
            os.makedirs(tmp_path / sub, exist_ok=True)
            main([
                "run", "--problem", QUAD, "--seed", "11",
                "--trace", str(tmp_path / sub / "t.csv"),
                "--summary", str(tmp_path / sub / "s.txt"),
                "--out-dir", str(tmp_path / sub),
            ])
        assert read(tmp_path / "a/t.csv") == read(tmp_path / "b/t.csv")

    def test_benchmark_run_converges_with_defaults(self, tmp_path):
        # the documented benchmark invocation must reach the gradient
        # tolerance under the default configuration
        code = run_cli(
            tmp_path, "run", "--problem", "quadratic:d=50,mu=1,l1=1000,seed=7",
            "--method", "qnpe",
        )
        assert code == 0
        trace = read(tmp_path / "trace.csv").splitlines()
        assert trace[0] == CSV_HEADER
        summary = dict(
            line.split("=", 1) for line in read(tmp_path / "summary.txt").splitlines()
        )
        assert summary["termination"] == "grad_tol"
        assert float(summary["final_grad_norm"]) <= 1e-8
        assert int(summary["mv_extevec"]) > 0  # randomized oracle was used

    def test_unwritable_output_exits_2(self, tmp_path, capsys):
        missing = tmp_path / "no" / "such" / "t.csv"
        code = run_cli(
            tmp_path, "run", "--problem", QUAD, "--max-iters", "3",
            "--trace", str(missing),
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: FileNotFoundError: ")
        assert str(missing) in err

    def test_out_dir_env_var_is_ignored(self, tmp_path, monkeypatch):
        # --out-dir is the one output-directory setting; it defaults to the
        # working directory whatever the environment says
        monkeypatch.setenv("QNPE_OUT_DIR", str(tmp_path / "envout"))
        monkeypatch.chdir(tmp_path)
        code = main(["run", "--problem", QUAD, "--max-iters", "3"])
        assert code == 0
        assert (tmp_path / "trace.csv").exists()
        assert not (tmp_path / "envout").exists()


class TestVerify:
    def test_exact_mode_all_pass(self, tmp_path):
        code = run_cli(
            tmp_path, "verify", "--problem", QUAD, "--oracle-mode", "exact",
        )
        assert code == 0
        report = read(tmp_path / "certificates.txt")
        assert "all_passed=true" in report
        assert "cert_contraction=true" in report

    def test_n_eps_bound_takes_the_certified_rate(self, tmp_path, capsys):
        # at alpha2 = 1/8 the certified linear rate is 2 mu alpha2 beta / L1
        # = 1/800 here, not mu/(4 L1) = 1/400; the linear term is the smaller
        problem = "quadratic:d=30,mu=1,l1=100,seed=0"
        code = run_cli(
            tmp_path, "verify", "--problem", problem, "--oracle-mode", "exact",
            "--alpha2", "0.125", "--max-iters", "3",
        )
        assert code == 0
        report = dict(
            line.split("=", 1) for line in capsys.readouterr().out.splitlines()
        )
        obj, _ = parse_problem(problem)
        run = solve(obj, SolverConfig(oracle_mode="exact", alpha2=0.125, max_iters=3))
        target = math.log(obj.dist_sq(run.x0) / run.final_dist_sq(obj))
        assert float(report["n_eps_bound"]) == pytest.approx(
            target / math.log1p(1.0 / 800.0), rel=1e-12
        )

    def test_failed_run_creates_no_output_directory(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main([
            "verify", "--problem", QUAD, "--b0", "500", "--out-dir", str(out),
        ])
        assert code == 2
        assert "error: ParameterConflict: scaled-identity factor 500.0 outside" in (
            capsys.readouterr().err
        )
        assert not out.exists()

    def test_method_flag_is_gone(self, tmp_path, capsys):
        # verify certifies qnpe only; the baselines carry no certificates
        with pytest.raises(SystemExit) as exit_info:
            run_cli(tmp_path, "verify", "--problem", QUAD, "--method", "qnpe")
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --method qnpe" in capsys.readouterr().err
        assert not (tmp_path / "certificates.txt").exists()

    def test_multi_seed_statistical_pass_rate(self, tmp_path):
        # randomized oracle, small failure budget: 50 seeds must pass at
        # a rate of at least 98%
        code = run_cli(
            tmp_path, "verify", "--problem", QUAD, "--seeds", "50",
            "--p", "0.01", "--min-pass-rate", "0.98",
        )
        report = dict(
            line.split("=", 1)
            for line in read(tmp_path / "certificates.txt").splitlines()
        )
        assert float(report["pass_rate"]) >= 0.98
        assert code == 0

    # the single-seed exit status compares the pass rate with
    # --min-pass-rate, not with the linear rate the report also computes
    @pytest.mark.parametrize("margin, expected", [(-1.0, 1), (1.0, 0)])
    def test_single_seed_exit_status_follows_certificates(
        self, tmp_path, monkeypatch, margin, expected
    ):
        def stub(report, obj, **options):
            return TraceCertificates((Certificate("stub", margin),))

        monkeypatch.setattr(qnpe.cli, "verify_trace", stub)
        code = run_cli(
            tmp_path, "verify", "--problem", QUAD, "--oracle-mode", "exact",
            "--seeds", "1",
        )
        assert code == expected
        report = read(tmp_path / "certificates.txt")
        assert f"all_passed={'true' if margin > 0 else 'false'}" in report

    @pytest.mark.parametrize("seeds", ["1", "2"])
    def test_regret_competitors_reach_every_seed(
        self, tmp_path, monkeypatch, seeds
    ):
        seen = []

        def spy(report, obj, **options):
            seen.append(options.get("regret_competitors", 0))
            return verify_trace(report, obj, **options)

        monkeypatch.setattr(qnpe.cli, "verify_trace", spy)
        code = run_cli(
            tmp_path, "verify", "--problem", QUAD, "--oracle-mode", "exact",
            "--seeds", seeds, "--regret-competitors", "3",
        )
        assert code == 0
        assert seen == [3] * int(seeds)

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--seeds", "0"),
            ("--seeds", "-3"),
            ("--min-pass-rate", "7"),
            ("--min-pass-rate", "0"),
            ("--min-pass-rate", "nan"),
            ("--regret-competitors", "-4"),
        ],
        ids=["seeds_zero", "seeds_negative", "rate_above_one", "rate_zero",
             "rate_nan", "competitors_negative"],
    )
    def test_out_of_range_option_exits_2(self, tmp_path, capsys, flag, value):
        code = run_cli(tmp_path, "verify", "--problem", QUAD, flag, value)
        assert code == 2
        assert f"error: ParameterConflict: {flag} must be" in capsys.readouterr().err
        assert not (tmp_path / "certificates.txt").exists()

    @pytest.mark.parametrize(
        "seeds, keys",
        [
            ("1", [
                "method", "problem",
                *(f"{kind}_{name}" for name in (
                    "contraction", "linear_rate", "step_floor", "stepsize_sum",
                    "small_loss_regret", "displacement_sum",
                    "superlinear_envelope", "grad_eval_budget", "ls_step_budget",
                ) for kind in ("cert", "margin")),
                "n_tr", "n_eps_bound", "all_passed",
            ]),
            ("3", ["method", "problem", "seed_0", "seed_1", "seed_2", "pass_rate"]),
        ],
    )
    def test_report_keys_in_order(self, tmp_path, capsys, seeds, keys):
        code = run_cli(
            tmp_path, "verify", "--problem", QUAD, "--oracle-mode", "exact",
            "--seeds", seeds,
        )
        assert code == 0
        text = read(tmp_path / "certificates.txt")
        assert capsys.readouterr().out == text
        assert [line.split("=", 1)[0] for line in text.splitlines()] == keys

    def test_single_seed_off_the_regret_gate(self, tmp_path, capsys):
        # the small-loss regret bound, the superlinear envelope and N_tr are
        # derived for rho = 1/18 only: at any other rho they report na
        code = run_cli(
            tmp_path, "verify", "--problem", "quadratic:d=10,mu=1,l1=100,seed=1",
            "--oracle-mode", "exact", "--rho", "0.1",
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        for line in (
            "cert_small_loss_regret=na",
            "cert_superlinear_envelope=na",
            "n_tr=NA",
            "all_passed=true",
        ):
            assert line in lines
        keys = [line.split("=", 1)[0] for line in lines]
        assert "margin_small_loss_regret" not in keys
        assert "margin_superlinear_envelope" not in keys
        assert "n_eps_bound" not in keys


class TestCompare:
    def test_two_methods_align(self, tmp_path):
        code = run_cli(
            tmp_path, "compare", "--problem", QUAD,
            "--method", "qnpe", "--method", "gd", "--max-iters", "400",
        )
        assert code == 0
        lines = read(tmp_path / "compare.dat").splitlines()
        assert lines[2] == "# k qnpe gd"
        data = [ln for ln in lines if not ln.startswith("#")]
        assert len(data) > 1
        assert all(len(ln.split()) == 3 for ln in data)

    def test_fewer_iterations_than_gd_at_higher_cost(self, tmp_path):
        # on an ill-conditioned quadratic the learned-curvature method
        # reaches 1e-10 squared distance in fewer iterations than plain
        # gradient descent, paying more oracle work per iteration
        code = run_cli(
            tmp_path, "compare", "--problem", "quadratic:d=20,mu=1,l1=1000,seed=2",
            "--method", "qnpe", "--method", "gd",
            "--oracle-mode", "exact", "--grad-tol", "0",
            "--dist-tol", "1e-10", "--max-iters", "40000",
        )
        assert code == 0
        lines = read(tmp_path / "compare.dat").splitlines()
        totals = {}
        for line in lines:
            if line.startswith("# totals"):
                parts = line.split()
                totals[parts[2]] = dict(p.split("=") for p in parts[3:])
        assert int(totals["qnpe"]["iterations"]) < int(totals["gd"]["iterations"])
        assert int(totals["qnpe"]["mv_linsolve"]) > 0
        assert int(totals["gd"]["mv_linsolve"]) == 0

    def test_single_spec_mismatch(self, tmp_path, capsys):
        code = run_cli(tmp_path, "compare", "--problem", QUAD, "--method", "qnpe")
        assert code == 2
        assert "ProblemMismatch" in capsys.readouterr().err
        assert not (tmp_path / "compare.dat").exists()

    def test_run_flag_is_gone(self, tmp_path, capsys):
        # the problem is named once, so two spellings of it cannot be passed
        with pytest.raises(SystemExit) as exit_info:
            run_cli(
                tmp_path, "compare",
                "--problem", "quadratic:d=3,mu=1,l1=10,seed=1", "--method", "qnpe",
                "--run", "gd@quadratic:d=3,l1=10,mu=1,seed=1",
            )
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --run" in capsys.readouterr().err
        assert not (tmp_path / "compare.dat").exists()

    def test_reordered_spec_keys_name_the_canonical_problem(self, tmp_path):
        code = run_cli(
            tmp_path, "compare", "--problem", "quadratic:d=3,l1=10,mu=1,seed=1",
            "--method", "qnpe", "--method", "gd", "--max-iters", "5",
        )
        assert code == 0
        lines = read(tmp_path / "compare.dat").splitlines()
        assert lines[0] == "# problem quadratic:d=3,mu=1,l1=10,seed=1"

    def test_determinism(self, tmp_path):
        paths = []
        for sub in ("x", "y"):
            out = tmp_path / sub / "cmp.dat"
            os.makedirs(tmp_path / sub, exist_ok=True)
            main([
                "compare", "--problem", QUAD, "--method", "qnpe",
                "--method", "bfgs", "--seed", "5", "--max-iters", "300",
                "--out", str(out), "--out-dir", str(tmp_path / sub),
            ])
            paths.append(out)
        assert read(paths[0]) == read(paths[1])


class TestConfigFlags:
    #: flag name -> (type, choices) of every config flag
    FLAGS = {
        "alpha1": (float, None), "alpha2": (float, None),
        "beta": (float, None), "sigma0": (float, None),
        "rho": (float, None), "p": (float, None),
        "b0": (float, None), "oracle_mode": (str, ("lanczos", "exact")),
        "seed": (int, None), "max_iters": (int, None),
        "grad_tol": (float, None), "dist_tol": (float, None),
    }

    @pytest.mark.parametrize("command", ["run", "verify", "compare"])
    def test_flags_match_solver_config_fields(self, command):
        sub = next(
            action for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        ).choices[command]
        names = {f.name for f in dataclasses.fields(SolverConfig)}
        flags = {
            action.dest: (action.type, action.choices)
            for action in sub._actions if action.dest in names
        }
        assert set(flags) == names
        assert flags == self.FLAGS
        for name in names:
            assert f"--{name.replace('_', '-')}" in sub._option_string_actions


class TestParseProblem:
    def test_quadratic_round_trip(self):
        obj, key = parse_problem(QUAD)
        assert obj.dim == 8
        assert key == QUAD

    def test_unknown_generator(self):
        from qnpe.errors import ProblemMismatch

        with pytest.raises(ProblemMismatch):
            parse_problem("cubic:d=3,seed=0")

    def test_logistic_spec(self):
        obj, key = parse_problem("logistic:n=20,d=4,lambda=0.5,seed=1")
        assert obj.dim == 4
        assert obj.mu == 0.5
        assert np.linalg.norm(obj.grad(obj.minimizer)) <= 1e-12

    @pytest.mark.parametrize(
        "spec, key",
        [
            ("quadratic:d=abc,mu=1,l1=10,seed=1", "d"),
            ("quadratic:d=4,mu=1,l1=10,seed=1.5", "seed"),
            ("quadratic:d=4,mu=1,l1=10,seed=-1", "seed"),
            ("logistic:n=20,d=4,lambda=x,seed=1", "lambda"),
            ("quadratic:d=4,mu=1,l1=10,seed=1,seed=2", "seed"),
        ],
        ids=["d_abc", "seed_float", "seed_negative", "lambda_x", "seed_repeated"],
    )
    def test_malformed_value_names_its_key(self, spec, key):
        from qnpe.errors import ProblemMismatch

        with pytest.raises(ProblemMismatch, match=f"parameter {key}="):
            parse_problem(spec)

    @pytest.mark.parametrize(
        "spec",
        [
            "quadratic:d=4,mu=1,l1=inf,seed=1",
            "quadratic:d=4,mu=nan,l1=10,seed=1",
            "logistic:n=20,d=4,lambda=nan,seed=1",
            "logistic:n=20,d=4,lambda=inf,seed=1",
        ],
        ids=["l1_inf", "mu_nan", "lambda_nan", "lambda_inf"],
    )
    def test_non_finite_constant_is_invalid_spectrum(self, spec):
        from qnpe.errors import InvalidSpectrum

        with pytest.raises(InvalidSpectrum):
            parse_problem(spec)

    @pytest.mark.parametrize(
        "spec, found",
        [
            ("mm:", "needs a file path"),
            ("quadratic:d,mu=1,l1=10,seed=1", "malformed problem parameter 'd'"),
            ("quadratic:d=4,mu=1,l1=10,seed=1,foo=2", "unknown keys foo"),
        ],
        ids=["mm_without_path", "item_without_value", "unknown_key"],
    )
    def test_malformed_spec_raises(self, spec, found):
        from qnpe.errors import ProblemMismatch

        with pytest.raises(ProblemMismatch, match=found):
            parse_problem(spec)


def test_run_method_rejects_an_unknown_method():
    from qnpe.errors import ProblemMismatch

    obj, _ = parse_problem(QUAD)
    with pytest.raises(ProblemMismatch, match="unknown method 'newton'"):
        qnpe.cli.run_method("newton", obj, SolverConfig())


def test_trace_columns_are_the_record_fields():
    # the wire header is fixed; the record names each column as the header
    # does, in order, and the displacement kept for the certificates is its
    # only other field
    assert CSV_HEADER == (
        "k,eta,backtracked,ls_steps,grad_evals,mv_linsolve,mv_extevec,"
        "loss,dist_sq,grad_norm"
    )
    assert list(IterationRecord._fields) == CSV_HEADER.split(",") + ["hat_disp"]


def readme_commands():
    """Every `qnpe ...` command in the README's code blocks, continuation
    lines joined."""
    blocks = re.findall(r"^```[a-z]*\n(.*?)^```", README.read_text(), re.M | re.S)
    return [
        line
        for block in blocks
        for line in block.replace("\\\n", " ").splitlines()
        if line.startswith("qnpe ")
    ]


def test_readme_shows_every_subcommand():
    assert {cmd.split()[1] for cmd in readme_commands()} == {
        "run", "verify", "compare",
    }


@pytest.mark.parametrize(
    "command", readme_commands(),
    ids=[f"{i}-{cmd.split()[1]}" for i, cmd in enumerate(readme_commands())],
)
def test_readme_command_parses(command):
    # parse only: nothing runs and nothing is written
    argv = shlex.split(command)[1:]
    args = build_parser().parse_args(argv)
    assert args.command == argv[0]

"""The top-level API: `qnpe.__all__` is the README surface plus what the
benchmark imports, and code that only tests need stays out of the package
(its dense references live in tests/reference.py)."""

import ast
import dataclasses
import importlib
import inspect
import re
from pathlib import Path

import pytest

import qnpe
from qnpe.core import SolverReport
from qnpe.extevec import SepOutcome
from qnpe.verify import Certificate

PACKAGE = Path(qnpe.__file__).parent
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
README = Path(__file__).resolve().parent.parent / "README.md"

PUBLIC = {
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
}

#: names that the package no longer defines: wrappers that added nothing to
#: a solve, references or bookkeeping that only tests read, and error
#: classes whose condition another class names
REMOVED = [
    "LinearOperator",
    "from_matrix",
    "shifted_operator",
    "shifted",
    "residual_norms",
    "step_norms",
    "gd_step",
    "BfgsState",
    "cumulative_loss",
    "loss_gradient",
    "project_frobenius_ball",
    "separator",
    "separator_action",
    "RoundLog",
    "round_log",
    "learner_rounds",
    "_spectrum_ends",
    "_log_round",
    "transition_iteration",
    "_certificate",
    "_REGRET_RHO",
    "cr_iteration_cap",
    "max_backtracks_slack",
    "OUT_DIR_ENV",
    "config_to_kv",
    "config_from_kv",
    "check_real",
    "check_gradient",
    "StepSeedTooSmall",
    "SpectrumViolation",
    "DegenerateCurvature",
    "NotSymmetric",
    "NotPositiveDefinite",
    "LineSearchFailure",
]


def defined_names(path: Path) -> set:
    """Functions, classes, fields and attributes that a module defines."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
                elif isinstance(target, ast.Attribute):
                    names.add(target.attr)
    return names


def perfbench_imports() -> set:
    """Names that the benchmark scripts import `from qnpe`, submodules
    excluded."""
    names = set()
    for path in PERFBENCH.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module == "qnpe":
                names.update(alias.name for alias in node.names)
    return {name for name in names if not (PACKAGE / f"{name}.py").is_file()}


def test_all_is_the_documented_surface():
    assert sorted(qnpe.__all__) == sorted(PUBLIC)


@pytest.mark.parametrize("name", sorted(PUBLIC))
def test_every_public_name_resolves(name):
    assert getattr(qnpe, name) is not None


def readme_names() -> list:
    """The dotted `qnpe.…` names in the README's inline code spans, fenced
    blocks excluded."""
    text = re.sub(r"```.*?```", "", README.read_text(), flags=re.S)
    names = set()
    for span in re.findall(r"`([^`]+)`", text):
        names.update(re.findall(r"\bqnpe(?:\.\w+)+", span))
    return sorted(names)


def resolve(name: str):
    """Import the longest module prefix of `name`, then getattr the rest."""
    parts = name.split(".")
    for i in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:i]))
        except ModuleNotFoundError:
            continue
        break
    for part in parts[i:]:
        target = getattr(target, part)
    return target


def test_readme_scan_finds_names():
    names = readme_names()
    # a module, a name imported from one, and a name broken across lines
    expected = {"qnpe.cli", "qnpe.core.IterationRecord", "qnpe.verify.linear_rate"}
    assert expected <= set(names)


@pytest.mark.parametrize("name", readme_names())
def test_readme_names_resolve(name):
    # the README may not name what the package lacks
    resolve(name)


def test_readme_lists_every_error_class():
    # the CLI prints the class name as the error category
    listed = {name for name in readme_names() if name.startswith("qnpe.errors.")}
    defined = {
        node.name
        for node in ast.parse((PACKAGE / "errors.py").read_text()).body
        if isinstance(node, ast.ClassDef)
    }
    assert listed == {f"qnpe.errors.{name}" for name in defined}


def test_perfbench_imports_are_public():
    imported = perfbench_imports()
    # the scan must see the benchmark's imports at all
    assert {"SolverConfig", "verify_trace", "lanczos_budget"} <= imported
    assert imported <= set(qnpe.__all__)


def perfbench_hooks() -> list:
    """(owner, attr) source pairs of the names that `perfbench/spans.py`
    rebinds in `installed()`: the tuples of its patch list."""
    tree = ast.parse((PERFBENCH / "spans.py").read_text())
    installed = next(
        node for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "installed"
    )
    return [
        (ast.unparse(node.elts[0]), node.elts[1].value)
        for node in ast.walk(installed)
        if isinstance(node, ast.Tuple)
        and len(node.elts) == 4
        and isinstance(node.elts[1], ast.Constant)
    ]


def test_perfbench_hooks_resolve():
    # a hook that no longer resolves would leave its per-layer metric at zero
    hooks = perfbench_hooks()
    assert ("HessianLearner", "predict") in hooks
    assert ("qnpe.learner", "ext_evec_lanczos") in hooks
    for owner, attr in hooks:
        # an owner is a qnpe submodule or a name imported from qnpe
        if owner.startswith("qnpe."):
            target = importlib.import_module(owner)
        else:
            target = getattr(qnpe, owner)
        assert callable(getattr(target, attr, None)), f"{owner}.{attr}"


def test_removed_names_are_not_defined():
    for path in sorted(PACKAGE.glob("*.py")):
        leftover = defined_names(path) & set(REMOVED)
        assert not leftover, f"{path.name} defines {sorted(leftover)}"


def test_learner_takes_its_settings_from_the_config():
    params = inspect.signature(qnpe.HessianLearner).parameters
    assert list(params) == ["b0", "mu", "l1", "cfg"]
    assert all(p.default is inspect.Parameter.empty for p in params.values())


@pytest.mark.parametrize(
    "record, names",
    [
        (SepOutcome, ["lam_min", "lam_max", "matvecs", "_vector"]),
        (Certificate, ["name", "margin", "detail"]),
        (
            SolverReport,
            [
                "method", "records", "final_x", "final_grad_norm", "termination",
                "config", "x0", "loss_samples", "wall_time",
            ],
        ),
    ],
    ids=["SepOutcome", "Certificate", "SolverReport"],
)
def test_records_store_no_derived_fields(record, names):
    # gamma, sign, inside, passed and applicable are computed from these,
    # SepOutcome.vector by its stored function on first read, and a run's
    # B0 by `resolve_initial_matrix` from its config
    assert [f.name for f in dataclasses.fields(record)] == names

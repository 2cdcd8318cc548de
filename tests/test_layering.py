"""Import layering of the package: the solver and the problem generators
do not depend on the certificate checker, neither the generators nor the
checker depend on the solver, and the line search and the separation
oracle apply the played matrix without depending on the learner that
plays it."""

import ast
from pathlib import Path

import pytest

import qnpe

PACKAGE = Path(qnpe.__file__).parent

FORBIDDEN = [
    ("solver", "verify"),
    ("problems", "verify"),
    ("problems", "solver"),
    ("verify", "solver"),
    ("linesearch", "learner"),
    ("extevec", "learner"),
]


def imported_modules(module: str) -> set:
    """Names of the qnpe modules that `module` imports, at any depth."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1:
                if node.module:
                    names.add(node.module.split(".")[0])
                else:
                    names.update(alias.name for alias in node.names)
            elif node.module and node.module.startswith("qnpe."):
                names.add(node.module.split(".")[1])
            elif node.module == "qnpe":
                names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("qnpe."):
                    names.add(alias.name.split(".")[1])
    return names


@pytest.mark.parametrize(
    "importer, imported", FORBIDDEN, ids=[f"{a}-{b}" for a, b in FORBIDDEN]
)
def test_module_does_not_import(importer, imported):
    assert imported not in imported_modules(importer)


def test_scan_sees_relative_imports():
    assert {"core", "errors", "learner", "linesearch"} <= imported_modules("solver")

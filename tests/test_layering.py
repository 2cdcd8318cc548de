"""Import layering of the package: the solver and the problem generators
do not depend on the certificate checker, neither the generators nor the
checker depend on the solver, and the line search and the separation
oracle apply the played matrix without depending on the learner that
plays it. Only the binding module `_blas` decides where BLAS and LAPACK
come from, and every error the package raises is a class of `qnpe.errors`."""

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


#: the one module that may reach into `scipy.linalg`
BINDING = "_blas"


def scipy_linalg_uses(path: Path) -> list:
    """Imports of `scipy.linalg` in any form (a submodule, a name from it,
    `from scipy import linalg`, `import_module`) and identifiers or strings
    that name SciPy's compiled `_fblas` or `_flapack`, by line number."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        modules, names = [], []
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
            names = [alias.asname or "" for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            modules = [f"{node.module}.{alias.name}" for alias in node.names]
            names = [alias.asname or "" for alias in node.names]
        elif isinstance(node, ast.Call) and node.args:
            called = getattr(node.func, "attr", getattr(node.func, "id", ""))
            if called in ("import_module", "__import__"):
                modules = [str(getattr(node.args[0], "value", ""))]
        elif isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names = [node.value]
        if any(m == "scipy.linalg" or m.startswith("scipy.linalg.") for m in modules):
            found.append((node.lineno, "imports scipy.linalg"))
        if any(w in n for n in modules + names for w in ("_fblas", "_flapack")):
            found.append((node.lineno, "names _fblas or _flapack"))
    return found


def test_only_the_binding_module_reaches_scipy_linalg():
    paths = sorted(PACKAGE.glob("*.py"))
    offenders = {
        path.name: uses
        for path in paths
        if path.stem != BINDING and (uses := scipy_linalg_uses(path))
    }
    assert not offenders, offenders
    assert (PACKAGE / f"{BINDING}.py") in paths


@pytest.mark.parametrize(
    "source",
    [
        "import scipy.linalg",
        "import scipy.linalg.blas as b",
        "from scipy.linalg import blas",
        "from scipy.linalg.lapack import dpotrf",
        "from scipy import linalg",
        "importlib.import_module('scipy.linalg')",
        "m = sys.modules['x']._flapack",
        "m = sys.modules['scipy.linalg._fblas']",
    ],
)
def test_scan_sees_every_form(tmp_path, source):
    path = tmp_path / "probe.py"
    path.write_text(source + "\n")
    assert scipy_linalg_uses(path)


def test_scan_passes_other_scipy_imports(tmp_path):
    path = tmp_path / "probe.py"
    path.write_text("import scipy\nimport scipy.io\nfrom scipy.special import expit\n")
    assert scipy_linalg_uses(path) == []


#: raises that name no `qnpe.errors` class: the binding module's import
#: failure and the clean-up in `_load` that re-raises whatever loading the
#: extension raised, and the mapping protocol of `TraceCertificates`
FOREIGN_RAISES = {
    ("_blas", "ImportError"),
    ("_blas", "BaseException"),
    ("verify", "KeyError"),
}


def raised_names(path: Path) -> list:
    """(line, class name) of every `raise` in a module: the name a raise
    calls or names, the attribute of a dotted one (`errors.X`), and for a
    bare re-raise each type its `except` clause catches."""
    found = []

    def visit(node, caught):
        if isinstance(node, ast.ExceptHandler):
            kinds = node.type or ast.Name("BaseException")
            kinds = kinds.elts if isinstance(kinds, ast.Tuple) else [kinds]
            caught = [ast.unparse(kind).split(".")[-1] for kind in kinds]
        elif isinstance(node, ast.Raise):
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            names = caught if exc is None else [ast.unparse(exc).split(".")[-1]]
            found.extend((node.lineno, name) for name in names)
        for child in ast.iter_child_nodes(node):
            visit(child, caught)

    visit(ast.parse(path.read_text()), [])
    return found


def error_classes() -> set:
    return {
        node.name
        for node in ast.walk(ast.parse((PACKAGE / "errors.py").read_text()))
        if isinstance(node, ast.ClassDef)
    }


def test_every_raise_names_an_error_class():
    allowed = error_classes()
    offenders = [
        (path.stem, line, name)
        for path in sorted(PACKAGE.glob("*.py"))
        for line, name in raised_names(path)
        if name not in allowed and (path.stem, name) not in FOREIGN_RAISES
    ]
    assert not offenders, offenders


def test_every_error_class_is_raised():
    raised = {
        name for path in PACKAGE.glob("*.py") for _, name in raised_names(path)
    }
    assert error_classes() - {"SolverError"} <= raised, (
        sorted(error_classes() - {"SolverError"} - raised)
    )


@pytest.mark.parametrize(
    "source, names",
    [
        ("raise ValueError", ["ValueError"]),
        ("raise errors.ParseError('x')", ["ParseError"]),
        ("raise ValueError('x') from None", ["ValueError"]),
        ("try:\n    f()\nexcept (OSError, errors.ParseError):\n    raise",
         ["OSError", "ParseError"]),
        ("try:\n    f()\nexcept:\n    raise", ["BaseException"]),
    ],
    ids=["name", "dotted", "call", "re-raise", "bare-except"],
)
def test_raise_scan_sees_every_form(tmp_path, source, names):
    path = tmp_path / "probe.py"
    path.write_text(source + "\n")
    assert [name for _, name in raised_names(path)] == names

"""The BLAS and LAPACK routines qnpe calls are SciPy's own wrapper objects,
whichever of qnpe and `scipy.linalg` a process imports first, and loading
them leaves `scipy.linalg` usable."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

import qnpe
import qnpe._blas

PACKAGE = Path(qnpe.__file__).parent
ROOT = PACKAGE.parent.parent

#: every compiled routine qnpe calls
ROUTINES = {
    "ddot", "dscal", "dsymv", "dger",
    "dsytrd", "dstebz", "dsterf", "dstein", "dormqr", "dpotrf", "dpotrs",
}


def called_routines() -> set:
    """Routines the package reads off `blas` or `lapack`, imports by name
    from the binding module, or names to extevec's `_lapack` caller."""
    names = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in ("blas", "lapack")
            ):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and node.module == "_blas":
                names.update(alias.name for alias in node.names)
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "_lapack"
                and isinstance(node.args[0], ast.Constant)
            ):
                names.add(node.args[0].value)
    return names - {"blas", "lapack"}


def test_scan_finds_every_routine():
    assert called_routines() == ROUTINES


# Both orders run in a fresh interpreter: this suite's own process imports
# scipy.linalg before it runs any test. Every module-level name in qnpe that
# holds a routine must be the object SciPy's public modules hand out.
IDENTITY = f"""
import sys
sys.path.insert(0, {str(ROOT / 'src')!r})
{{first}}
{{second}}
import numpy as np
import scipy.linalg.blas, scipy.linalg.lapack
import qnpe._blas as b

def public(name):
    return getattr(scipy.linalg.blas, name, None) or getattr(scipy.linalg.lapack, name)

for name in {sorted(ROUTINES)!r}:
    ours = getattr(b.blas, name, None) or getattr(b.lapack, name)
    assert ours is public(name), name
bound = 0
for modname, module in list(sys.modules.items()):
    if modname.startswith("qnpe"):
        for name, value in vars(module).items():
            if type(value).__name__ == "fortran":
                assert value is public(name), (modname, name)
                bound += 1
assert bound >= 6, bound
assert sys.modules["scipy.linalg._fblas"] is b.blas
assert sys.modules["scipy.linalg._flapack"] is b.lapack
a = np.array([[4.0, 2.0], [2.0, 3.0]])
x = scipy.linalg.cho_solve(scipy.linalg.cho_factor(a), np.ones(2))
assert np.allclose(x, np.linalg.solve(a, np.ones(2)))
assert np.allclose(scipy.linalg.eigh(a, eigvals_only=True), np.linalg.eigvalsh(a))
print("ok")
"""


@pytest.mark.parametrize(
    "qnpe_first", [True, False], ids=["qnpe_first", "scipy_first"]
)
def test_routines_are_scipys_in_either_import_order(qnpe_first):
    first, second = "import qnpe.cli", "import scipy.linalg"
    if not qnpe_first:
        first, second = second, first
    child = subprocess.run(
        [sys.executable, "-c", IDENTITY.format(first=first, second=second)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert child.returncode == 0, child.stderr
    assert child.stdout.strip() == "ok"


def test_missing_extension_file_is_import_error_naming_the_path(
    monkeypatch, tmp_path
):
    monkeypatch.setattr(qnpe._blas, "_LINALG", tmp_path)
    with pytest.raises(ImportError, match=str(tmp_path / "_fblas_moved")):
        qnpe._blas._load("_fblas_moved")

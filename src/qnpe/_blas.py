"""Where qnpe's BLAS and LAPACK routines come from.

qnpe calls twelve compiled routines: ddot, dscal, dsymv, dger and dsyrk from
BLAS, and dsytrd, dstebz, dsterf, dstein, dormqr, dpotrf and dpotrs from
LAPACK. SciPy wraps them in two f2py extension modules,
`scipy.linalg._fblas` and `scipy.linalg._flapack`, which its public
`scipy.linalg.blas` and `scipy.linalg.lapack` re-export unchanged. Importing
either public module first runs the `scipy.linalg` package init, which loads
all of `scipy.linalg` and, through `scipy._lib._util`, array-API support
that pulls in `numpy.f2py` and `numpy.testing`: about 23 MB of resident
memory and 0.2 s per process, none of it used here.

This module loads the two extension modules from their files in SciPy's
install directory, under their canonical names, and registers them in
`sys.modules`; if `scipy.linalg` is already imported, it takes the ones
registered there. Either way `blas` and `lapack` are SciPy's own wrapper
modules, so every routine is the object `scipy.linalg.blas` or
`scipy.linalg.lapack` hands out (a later `import scipy.linalg` re-exports
the registered modules), and the code that runs is the same.

It relies on SciPy keeping the two files at `scipy/linalg/_fblas<suffix>`
and `scipy/linalg/_flapack<suffix>`; a release that moves them makes this
import raise ImportError naming the missing path.
"""

from __future__ import annotations

import sys
from importlib.machinery import EXTENSION_SUFFIXES
from importlib.util import module_from_spec, spec_from_file_location
from pathlib import Path

import scipy

_LINALG = Path(scipy.__file__).parent / "linalg"


def _load(name: str):
    """SciPy's compiled `scipy.linalg.<name>`, loaded once per process."""
    full = f"scipy.linalg.{name}"
    module = sys.modules.get(full)
    if module is not None:
        return module
    paths = [_LINALG / (name + suffix) for suffix in EXTENSION_SUFFIXES]
    path = next((p for p in paths if p.is_file()), None)
    if path is None:
        raise ImportError(
            f"SciPy's compiled {full} not found at {paths[0]}", name=full
        )
    spec = spec_from_file_location(full, path)
    module = module_from_spec(spec)
    sys.modules[full] = module
    try:
        spec.loader.exec_module(module)
    except BaseException:
        del sys.modules[full]
        raise
    return module


blas = _load("_fblas")
lapack = _load("_flapack")

#: the two BLAS-1 kernels the vector loops call by bare name
ddot = blas.ddot
dscal = blas.dscal

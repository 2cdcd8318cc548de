import gc
import os
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
import scipy.io
import scipy.optimize
from reference import logistic_data, logistic_single_pass

import qnpe.problems
import qnpe.solver
from qnpe import Objective
from qnpe.errors import (
    InvalidSpectrum,
    MinimizerStall,
    ParseError,
    ProblemMismatch,
)
from qnpe.linsolve import conjugate_residual
from qnpe.problems import (
    _newton_minimizer,
    load_matrix_market,
    logistic_objective,
    make_logistic,
    make_quadratic,
    quadratic_objective,
)


ROOT = Path(__file__).resolve().parent.parent


def _cpu_has(flag):
    try:
        with open("/proc/cpuinfo") as fh:
            return any(
                line.startswith("flags") and flag in line.split() for line in fh
            )
    except OSError:
        return False


def _traced_peak(call):
    """(result, peak bytes traced by tracemalloc while call() ran)."""
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestQuadratic:
    def test_scalar_case(self):
        obj = make_quadratic(1, 2.0, 2.0, seed=0)
        a = obj.hessian(np.zeros(1))[0, 0]
        assert a == pytest.approx(2.0)
        x = np.array([1.5])
        b = a * x - obj.grad(x)
        assert obj.minimizer[0] == pytest.approx(b[0] / a)

    def test_diagonal_closed_form(self):
        obj = quadratic_objective(
            np.diag([1.0, 10.0]), np.array([1.0, 10.0]), 1.0, 10.0
        )
        assert np.allclose(obj.minimizer, [1.0, 1.0], atol=1e-12)

    def test_minimizer_against_cr_solve(self):
        obj = make_quadratic(50, 1.0, 1e3, seed=7)
        a = obj.hessian(np.zeros(50))
        b = -obj.grad(np.zeros(50))  # grad(x) = A x - b
        residual = np.linalg.norm(a @ obj.minimizer - b)
        assert residual <= 1e-12 * np.linalg.norm(b)
        # independent route: tight-tolerance conjugate-residual solve
        cr = conjugate_residual(lambda v: a @ v, b, alpha=0.0, max_iters=2000)
        assert np.allclose(cr.s, obj.minimizer, rtol=1e-8, atol=1e-10)

    def test_spectrum_endpoints(self):
        obj = make_quadratic(20, 0.5, 50.0, seed=1)
        eigs = np.linalg.eigvalsh(obj.hessian(np.zeros(20)))
        assert eigs[0] == pytest.approx(0.5, rel=1e-10)
        assert eigs[-1] == pytest.approx(50.0, rel=1e-10)
        assert np.all(eigs >= 0.5 - 1e-10)
        assert np.all(eigs <= 50.0 + 1e-8)

    def test_invalid_spectrum(self):
        with pytest.raises(InvalidSpectrum):
            make_quadratic(5, 2.0, 1.0, seed=0)
        with pytest.raises(InvalidSpectrum):
            make_quadratic(5, 0.0, 1.0, seed=0)

    @pytest.mark.parametrize(
        "a, b",
        [
            (np.ones((2, 3)), np.ones(2)),
            (np.eye(3), np.ones(2)),
            (np.eye(2), np.ones((2, 1))),
            (np.ones(2), np.ones(2)),
            (np.zeros((0, 0)), np.zeros(0)),
        ],
        ids=["non_square", "b_short", "b_column", "a_vector", "empty"],
    )
    def test_bad_shapes_are_problem_mismatch(self, a, b):
        with pytest.raises(ProblemMismatch):
            quadratic_objective(a, b, 1.0, 1.0)

    def test_singular_matrix_is_minimizer_stall(self):
        # a valid spectrum whose mu vanishes next to L1 in working precision,
        # where the dense solve raises LinAlgError
        with pytest.raises(MinimizerStall, match="Singular matrix"):
            make_quadratic(5, 1e-300, 1.0, seed=0)
        with pytest.raises(MinimizerStall):
            quadratic_objective(np.zeros((2, 2)), np.ones(2), 1.0, 1.0)

    # A = I and b = e_1 with a solve that is off by a fixed vector e: each
    # refinement step solves A z = r to -e + e = 0, so x stays at x* + e
    # and the relative residual at ||e||, against 64 kappa eps clipped to
    # [1e-13, 1e-8]
    @pytest.mark.parametrize(
        "l1, offset, raises",
        [(10.0, 1e-11, True), (1e4, 1e-11, False),
         (1e12, 1e-9, False), (1e12, 1e-7, True)],
        ids=["kappa_10", "kappa_1e4", "kappa_1e12", "kappa_1e12_far"],
    )
    def test_refined_residual_tolerance_grows_with_kappa(
        self, monkeypatch, l1, offset, raises
    ):
        exact = np.linalg.solve
        monkeypatch.setattr(
            np.linalg, "solve", lambda a, b: exact(a, b) + np.array([offset, 0.0])
        )
        args = (np.eye(2), np.array([1.0, 0.0]), 1.0, l1)
        if raises:
            with pytest.raises(MinimizerStall, match="Singular matrix"):
                quadratic_objective(*args)
        else:
            assert quadratic_objective(*args).minimizer[0] == 1.0 + offset

    # OpenBLAS's Haswell kernels factor make_quadratic(5, 1e-300, 1, ...)
    # without meeting an exact zero pivot; only the residual check catches it
    @pytest.mark.skipif(not _cpu_has("avx2"), reason="Haswell kernels need AVX2")
    def test_singular_matrix_is_caught_on_haswell_kernels(self):
        ids = [
            "tests/test_problems.py::TestQuadratic"
            "::test_singular_matrix_is_minimizer_stall",
            "tests/test_cli.py::TestRun::test_singular_quadratic_exits_2",
        ]
        child = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *ids],
            cwd=ROOT,
            env={**os.environ, "OPENBLAS_CORETYPE": "Haswell"},
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert child.returncode == 0, child.stdout + child.stderr
        assert "2 passed" in child.stdout

    def test_model_error_identically_zero(self):
        # gradient differences are exactly A (x_tilde - x) for quadratics
        obj = make_quadratic(8, 1.0, 10.0, seed=3)
        a = obj.hessian(np.zeros(8))
        rng = np.random.default_rng(0)
        for _ in range(5):
            x, x_tilde = rng.standard_normal(8), rng.standard_normal(8)
            lhs = obj.grad(x_tilde) - obj.grad(x)
            assert np.allclose(lhs, a @ (x_tilde - x), atol=1e-12)

    def test_determinism(self):
        a = make_quadratic(10, 1.0, 10.0, seed=5)
        b = make_quadratic(10, 1.0, 10.0, seed=5)
        assert np.array_equal(a.minimizer, b.minimizer)
        x = np.linspace(0, 1, 10)
        assert np.array_equal(a.grad(x), b.grad(x))


@pytest.mark.parametrize(
    "make",
    [
        lambda: make_quadratic(3, 1.0, 10.0, seed=-1),
        lambda: make_logistic(5, 2, 0.1, seed=-1),
    ],
    ids=["quadratic", "logistic"],
)
def test_negative_seed_is_problem_mismatch(make):
    with pytest.raises(ProblemMismatch, match="parameter seed=-1 is negative"):
        make()


class TestSecondOrderConsistency:
    @pytest.mark.parametrize(
        "factory",
        [
            lambda: make_quadratic(10, 1.0, 30.0, seed=2),
            lambda: make_logistic(30, 6, 0.1, seed=2),
        ],
    )
    def test_gradient_matches_hessian_direction(self, factory):
        obj = factory()
        rng = np.random.default_rng(4)
        for _ in range(5):
            x = rng.standard_normal(obj.dim)
            h = 1e-6 * rng.standard_normal(obj.dim)
            lhs = obj.grad(x + h) - obj.grad(x)
            rhs = obj.hessian(x) @ h
            assert np.allclose(lhs, rhs, atol=5e-11 * max(1.0, obj.l1))


class TestLogistic:
    def test_zero_feature_kills_data_term(self):
        obj = logistic_objective(np.zeros((1, 1)), np.array([1.0]), lam=0.5)
        assert obj.value(np.zeros(1)) == pytest.approx(np.log(2.0))
        assert obj.grad(np.zeros(1))[0] == pytest.approx(0.0)
        x = np.array([2.0])
        assert obj.value(x) == pytest.approx(np.log(2.0) + 0.25 * 4.0)

    def test_all_zero_features_l1_equals_lambda(self):
        obj = logistic_objective(np.zeros((4, 3)), np.ones(4), lam=1.0)
        assert obj.l1 == 1.0

    @pytest.mark.parametrize("seed", range(3))
    def test_gradient_matches_finite_differences(self, seed):
        obj = make_logistic(25, 5, 0.2, seed=seed)
        rng = np.random.default_rng(seed + 10)
        for _ in range(4):
            x = rng.standard_normal(5)
            grad = obj.grad(x)
            for i in range(5):
                h = np.zeros(5)
                h[i] = 1e-6
                fd = (obj.value(x + h) - obj.value(x - h)) / 2e-6
                assert grad[i] == pytest.approx(fd, rel=1e-6, abs=1e-9)

    def test_hessian_spectrum_inside_band(self):
        obj = make_logistic(40, 6, 0.1, seed=1)
        rng = np.random.default_rng(2)
        for _ in range(5):
            eigs = np.linalg.eigvalsh(obj.hessian(rng.standard_normal(6)))
            assert eigs[0] >= obj.mu - 1e-12
            assert eigs[-1] <= obj.l1 + 1e-12

    # (n, d, lambda, seed): the original case, separable n < d, a single
    # sample, and lambda = 1e-6, where L1 / mu is about 2e4
    NEWTON_GRID = [
        (40, 6, 0.1, 3),
        (5, 20, 1e-3, 0),
        (30, 60, 1e-5, 0),
        (1, 1, 0.1, 0),
        (200, 20, 1e-6, 3),
    ]

    @pytest.mark.parametrize("n,d,lam,seed", NEWTON_GRID)
    def test_newton_minimizer_is_stationary(self, n, d, lam, seed):
        obj = make_logistic(n, d, lam, seed=seed)
        assert np.linalg.norm(obj.grad(obj.minimizer)) <= 1e-12

    @pytest.mark.parametrize("n,d,lam,seed", NEWTON_GRID)
    def test_newton_minimizer_matches_trust_region(self, n, d, lam, seed):
        obj = make_logistic(n, d, lam, seed=seed)
        ref = scipy.optimize.minimize(
            obj.value, np.zeros(d), jac=obj.grad, hess=obj.hessian,
            method="trust-exact", options={"gtol": 1e-10},
        )
        # strong convexity: both points lie within ||grad|| / mu of x*, so
        # the bound holds whether or not trust-exact reports success
        bound = (
            np.linalg.norm(obj.grad(obj.minimizer)) + np.linalg.norm(obj.grad(ref.x))
        ) / obj.mu
        assert np.linalg.norm(obj.minimizer - ref.x) <= bound

    def test_minimizer_does_not_run_the_solver(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("make_logistic ran the solver")

        monkeypatch.setattr(qnpe.solver, "solve", forbidden)
        obj = make_logistic(40, 6, 0.1, seed=3)
        assert np.linalg.norm(obj.grad(obj.minimizer)) <= 1e-12

    @pytest.mark.parametrize(
        "name,value", [("NEWTON_MAX_STEPS", 1), ("NEWTON_GRAD_TOL", 0.0)]
    )
    def test_newton_failure_is_typed(self, monkeypatch, name, value):
        monkeypatch.setattr(qnpe.problems, name, value)
        with pytest.raises(MinimizerStall):
            make_logistic(40, 6, 0.1, seed=3)

    @pytest.mark.parametrize(
        "diagonal, minor",
        [([-1.0, -1.0, -1.0], 1), ([2.0, 1.0, -1.0], 3), ([1.0, 0.0, 1.0], 2)],
        ids=["minus_identity", "last_negative", "singular"],
    )
    def test_hessian_not_positive_definite_is_minimizer_stall(
        self, diagonal, minor
    ):
        hessian = np.diag(diagonal)
        obj = Objective(3, lambda x: x + 1.0, 1.0, 1.0, hessian=lambda x: hessian)
        with pytest.raises(
            MinimizerStall, match=f"leading minor {minor} of the Hessian"
        ):
            _newton_minimizer(obj)

    def test_l2_bound_formula(self):
        features = np.array([[3.0, 4.0], [0.0, 1.0]])
        obj = logistic_objective(features, np.array([1.0, -1.0]), lam=0.1)
        assert obj.l2 == pytest.approx((5.0**3 + 1.0) / 12.0)

    def data(self, n, d, seed):
        """Gaussian features of mixed scale and +-1 labels."""
        rng = np.random.default_rng(seed)
        features = rng.standard_normal((n, d)) * rng.uniform(0.1, 3.0, (n, 1))
        labels = np.where(rng.standard_normal(n) < 0.0, -1.0, 1.0)
        return features, labels, rng

    @pytest.mark.parametrize("n,d", [(200, 20), (1, 1), (50, 5), (6553, 20)])
    def test_one_block_matches_single_pass_bitwise(self, n, d):
        # rows = 2**20 // (8 d) >= n: one block, the single-pass arithmetic
        features, labels, rng = self.data(n, d, seed=n)
        obj = logistic_objective(features, labels, lam=0.01)
        grad, hessian = logistic_single_pass(features, labels, 0.01)
        for _ in range(3):
            x = rng.standard_normal(d)
            assert np.array_equal(obj.grad(x), grad(x))
            assert np.array_equal(obj.hessian(x), hessian(x))

    # n = 50, d = 5: 320 bytes make blocks of 8 rows with a remainder of 2,
    # 1000 bytes 25 rows and no remainder, 1 byte one row per block
    @pytest.mark.parametrize("block_bytes", [320, 1000, 1])
    def test_blocks_match_single_pass(self, monkeypatch, block_bytes):
        monkeypatch.setattr(qnpe.problems, "_BLOCK_BYTES", block_bytes)
        features, labels, rng = self.data(50, 5, seed=4)
        obj = logistic_objective(features, labels, lam=0.01)
        grad, hessian = logistic_single_pass(features, labels, 0.01)
        for _ in range(3):
            x = rng.standard_normal(5)
            np.testing.assert_allclose(obj.grad(x), grad(x), rtol=1e-12, atol=0)
            np.testing.assert_allclose(
                obj.hessian(x), hessian(x), rtol=1e-12, atol=0
            )

    def test_blocked_hessian_matches_central_differences(self, monkeypatch):
        monkeypatch.setattr(qnpe.problems, "_BLOCK_BYTES", 320)
        features, labels, rng = self.data(50, 5, seed=5)
        obj = logistic_objective(features, labels, lam=0.01)
        x, step = rng.standard_normal(5), 1e-5
        fd = np.column_stack([
            (obj.grad(x + step * e) - obj.grad(x - step * e)) / (2.0 * step)
            for e in np.eye(5)
        ])
        np.testing.assert_allclose(obj.hessian(x), fd, rtol=1e-7, atol=1e-9)

    # 8 MB of rows in blocks of 1 MiB: the set-up held 3.04x the data
    # when it normalized, signed and took norms over the whole array
    def test_generator_peak_is_data_plus_one_block(self):
        n, d = 10000, 100
        _, peak = _traced_peak(lambda: make_logistic(n, d, 1e-5, seed=3))
        assert peak <= 1.25 * n * d * 8

    # blocks of 1310 rows: two full blocks and a remainder of 380
    @pytest.mark.parametrize("n,d", [(3000, 100), (200, 20)])
    def test_public_and_generator_paths_agree_bitwise(self, n, d):
        features, labels = logistic_data(n, d, seed=7)
        public = logistic_objective(features, labels, lam=1e-4)
        made = make_logistic(n, d, 1e-4, seed=7)
        assert (public.l1, public.l2) == (made.l1, made.l2)
        assert np.array_equal(_newton_minimizer(public), made.minimizer)
        x = np.random.default_rng(8).standard_normal(d)
        assert np.array_equal(public.grad(x), made.grad(x))
        assert np.array_equal(public.hessian(x), made.hessian(x))

    def test_objective_leaves_features_unchanged(self):
        features, labels, rng = self.data(30, 4, seed=6)
        before = features.tobytes()
        features.flags.writeable = False  # a write would raise
        obj = logistic_objective(features, labels, lam=0.1)
        assert features.tobytes() == before
        assert obj.grad(rng.standard_normal(4)).shape == (4,)

    def test_objective_keeps_no_reference_to_features(self):
        features, labels, _ = self.data(30, 4, seed=6)
        alive = weakref.ref(features)
        obj = logistic_objective(features, labels, lam=0.1)
        del features
        gc.collect()
        assert alive() is None
        assert obj.hessian(np.zeros(4)).shape == (4, 4)

    # the Hessian (A^T W A) / n holds only for y_i^2 = 1: with labels of 2
    # it contradicted central differences of the gradient
    @pytest.mark.parametrize(
        "labels",
        [np.full(4, 2.0), np.array([0.0, 1.0, 1.0, 0.0]),
         np.array([1.0, -1.0, np.nan, 1.0]), np.array([1.0, -1.0, 0.5, 1.0])],
        ids=["two", "zero_one", "nan", "half"],
    )
    def test_labels_other_than_plus_minus_one_are_rejected(self, labels):
        with pytest.raises(ProblemMismatch, match="labels"):
            logistic_objective(np.ones((4, 2)), labels, lam=0.1)

    @pytest.mark.parametrize(
        "features, labels",
        [
            (np.ones((4, 2)), np.ones(3)),
            (np.ones((4, 2)), np.ones((4, 1))),
            (np.ones(4), np.ones(4)),
            (np.ones((4, 2, 1)), np.ones(4)),
            (np.ones((0, 2)), np.ones(0)),
            (np.ones((4, 0)), np.ones(4)),
        ],
        ids=["labels_short", "labels_column", "features_1d", "features_3d",
             "n_zero", "d_zero"],
    )
    def test_bad_shapes_are_problem_mismatch(self, features, labels):
        with pytest.raises(ProblemMismatch):
            logistic_objective(features, labels, lam=0.1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_features_are_invalid_spectrum(self, bad):
        features = np.ones((4, 2))
        features[2, 1] = bad
        with pytest.raises(InvalidSpectrum, match="features"):
            logistic_objective(features, np.ones(4), lam=0.1)


#: SciPy modules that no quadratic or baseline run loads: qnpe binds BLAS
#: and LAPACK without running the `scipy.linalg` package init (which loads
#: `scipy._lib._util`), and `qnpe.problems` imports the last three on
#: first use
DEFERRED = (
    "scipy.linalg", "scipy._lib._util", "scipy.io", "scipy.sparse", "scipy.special"
)


def _deferred_loaded(code):
    """Deferred modules in sys.modules after `code` runs in a fresh
    interpreter: this suite's own process has long imported all of them."""
    child = subprocess.run(
        [
            sys.executable,
            "-c",
            f"import sys\nsys.path.insert(0, {str(ROOT / 'src')!r})\n{code}\n"
            f"print('loaded:', *(m for m in {DEFERRED!r} if m in sys.modules))",
        ],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert child.returncode == 0, child.stderr
    return set(child.stdout.rpartition("loaded:")[2].split())


class TestDeferredImports:
    def test_quadratic_and_baseline_runs_load_none(self):
        loaded = _deferred_loaded(
            "from qnpe import SolverConfig, cli, verify_trace\n"
            "obj, _ = cli.parse_problem('quadratic:d=20,mu=1,l1=100,seed=1')\n"
            "runs = [('qnpe', 'exact'), ('qnpe', 'lanczos'),\n"
            "        ('gd', 'lanczos'), ('bfgs', 'lanczos')]\n"
            "for method, mode in runs:\n"
            "    report = cli.run_method(method, obj, SolverConfig(oracle_mode=mode))\n"
            "    verify_trace(report, obj)\n"
            "    cli.trace_csv(report)"
        )
        assert not loaded, f"a quadratic run loaded {sorted(loaded)}"

    def test_logistic_loads_special_only(self):
        loaded = _deferred_loaded(
            "from qnpe import make_logistic\n"
            "make_logistic(50, 5, 0.1, seed=1)"
        )
        assert loaded == {"scipy.special"}, f"make_logistic loaded {sorted(loaded)}"

    def test_matrix_market_loads_io(self, tmp_path):
        path = tmp_path / "ident2.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real symmetric\n"
            "2 2 2\n1 1 1.0\n2 2 1.0\n"
        )
        loaded = _deferred_loaded(
            f"from qnpe import load_matrix_market\nload_matrix_market({str(path)!r})"
        )
        assert "scipy.io" in loaded, "load_matrix_market did not load scipy.io"


class TestMatrixMarket:
    def write(self, tmp_path, name, text):
        path = tmp_path / name
        path.write_text(text)
        return path

    def test_identity_coordinate(self, tmp_path):
        path = self.write(
            tmp_path,
            "ident2.mtx",
            "%%MatrixMarket matrix coordinate real symmetric\n"
            "2 2 2\n1 1 1.0\n2 2 1.0\n",
        )
        obj = load_matrix_market(path)
        assert obj.mu == 1.0
        assert obj.l1 == 1.0
        assert np.allclose(obj.minimizer, [1.0, 1.0], atol=1e-12)

    def test_symmetric_storage_convention(self, tmp_path):
        path = self.write(
            tmp_path,
            "upper.mtx",
            "%%MatrixMarket matrix coordinate real symmetric\n"
            "2 2 3\n1 1 2.0\n1 2 0.5\n2 2 2.0\n",
        )
        obj = load_matrix_market(path)
        assert np.allclose(
            obj.hessian(np.zeros(2)), [[2.0, 0.5], [0.5, 2.0]], atol=1e-15
        )

    def test_array_format(self, tmp_path):
        path = self.write(
            tmp_path,
            "arr.mtx",
            "%%MatrixMarket matrix array real general\n"
            "2 2\n2.0\n0.5\n0.5\n2.0\n",
        )
        obj = load_matrix_market(path)
        assert obj.mu == pytest.approx(1.5)
        assert obj.l1 == pytest.approx(2.5)

    def test_not_symmetric(self, tmp_path):
        path = self.write(
            tmp_path,
            "asym.mtx",
            "%%MatrixMarket matrix coordinate real general\n"
            "2 2 3\n1 1 1.0\n1 2 0.5\n2 2 1.0\n",
        )
        with pytest.raises(ParseError, match="asym.mtx: matrix is not symmetric$"):
            load_matrix_market(path)

    def test_not_positive_definite(self, tmp_path):
        path = self.write(
            tmp_path,
            "indef.mtx",
            "%%MatrixMarket matrix coordinate real symmetric\n"
            "2 2 2\n1 1 1.0\n2 2 -1.0\n",
        )
        with pytest.raises(
            InvalidSpectrum, match="indef.mtx: smallest eigenvalue -1 is not positive$"
        ):
            load_matrix_market(path)

    def test_parse_error(self, tmp_path):
        path = self.write(tmp_path, "junk.mtx", "this is not a matrix\n")
        with pytest.raises(ParseError):
            load_matrix_market(path)

    # the deferred imports sit outside the ParseError handler: a broken
    # SciPy install is not reported as a fault in the user's file
    def test_missing_scipy_io_is_import_error(self, tmp_path, monkeypatch):
        path = self.write(
            tmp_path,
            "ident2.mtx",
            "%%MatrixMarket matrix coordinate real symmetric\n"
            "2 2 2\n1 1 1.0\n2 2 1.0\n",
        )
        monkeypatch.setitem(sys.modules, "scipy.io", None)
        with pytest.raises(ImportError):
            load_matrix_market(path)

    def test_non_square_rejected(self, tmp_path):
        path = self.write(
            tmp_path,
            "rect.mtx",
            "%%MatrixMarket matrix array real general\n"
            "2 3\n1.0\n0.0\n0.0\n1.0\n0.0\n0.0\n",
        )
        with pytest.raises(ParseError):
            load_matrix_market(path)

    def test_custom_rhs(self, tmp_path):
        path = self.write(
            tmp_path,
            "ident3.mtx",
            "%%MatrixMarket matrix coordinate real symmetric\n"
            "2 2 2\n1 1 2.0\n2 2 2.0\n",
        )
        obj = load_matrix_market(path, b=np.array([4.0, 6.0]))
        assert np.allclose(obj.minimizer, [2.0, 3.0], atol=1e-12)

    # a dense d = 300 matrix that scipy.io.mmread returns as float64: the
    # load adopts it instead of copying it (the copy made the peak 2.24x)
    def test_dense_load_holds_one_copy(self, tmp_path):
        d = 300
        m = np.random.default_rng(0).standard_normal((d, d))
        path = tmp_path / "dense.mtx"
        scipy.io.mmwrite(path, m @ m.T / d + np.eye(d))
        obj, peak = _traced_peak(lambda: load_matrix_market(path))
        assert obj.dim == d
        assert peak <= 1.75 * d * d * 8

    def test_rhs_of_wrong_length_is_problem_mismatch(self, tmp_path):
        path = self.write(
            tmp_path,
            "ident2.mtx",
            "%%MatrixMarket matrix coordinate real symmetric\n"
            "2 2 2\n1 1 1.0\n2 2 1.0\n",
        )
        with pytest.raises(ProblemMismatch):
            load_matrix_market(path, b=np.ones(3))

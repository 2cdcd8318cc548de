import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from qnpe.baselines import solve_gd
from qnpe.core import (
    ORACLE_MODES,
    Objective,
    SolverConfig,
    budget_log_term,
    default_delta,
    resolve_initial_matrix,
    validate_config,
)
from qnpe.errors import InvalidSpectrum, ParameterConflict
from qnpe.learner import HessianLearner


def simple_objective(mu=1.0, l1=4.0, d=3):
    return Objective(dim=d, grad=lambda x: l1 * x, mu=mu, l1=l1)


def learner_delta(cfg, obj):
    """The oracle slack of the learner that `solve` builds from `cfg`."""
    b0 = resolve_initial_matrix(cfg, obj)
    return HessianLearner(b0, obj.mu, obj.l1, cfg).delta


class TestValidateConfig:
    def test_theory_defaults(self):
        obj = simple_objective(mu=1.0, l1=4.0)
        cfg = validate_config(SolverConfig(), obj)
        assert cfg.alpha1 == 0.25
        assert cfg.alpha2 == 0.25
        assert cfg.beta == 0.5
        assert cfg.sigma0 == 1.0 / 16.0
        assert cfg.rho == 1.0 / 18.0
        assert learner_delta(cfg, obj) == min(1.0 / 3.0, 1.0)

    def test_delta_default_caps_at_one(self):
        # mu/(L1 - mu) > 1 whenever mu > L1/2
        obj = simple_objective(mu=3.0, l1=4.0)
        assert learner_delta(validate_config(SolverConfig(), obj), obj) == 1.0

    def test_delta_clamps_when_mu_equals_l1(self):
        obj = simple_objective(mu=1.0, l1=1.0)
        cfg = validate_config(SolverConfig(), obj)
        assert learner_delta(cfg, obj) == 1.0

    def test_only_sigma0_is_filled(self):
        # every other default is a literal value of the field itself
        obj = simple_objective(mu=1.0, l1=4.0)
        assert SolverConfig().sigma0 is None
        assert validate_config(SolverConfig(), obj) == SolverConfig(sigma0=1.0 / 16.0)

    def test_underflowing_oracle_slack_conflicts(self):
        # mu / (L1 - mu) underflows to 0, and a zero slack leaves the
        # Lanczos budget undefined
        lam = np.array([1e-320, 1.0, 1e10])
        obj = Objective(dim=3, grad=lambda x: lam * x, mu=1e-320, l1=1e10)
        assert default_delta(obj.mu, obj.l1) == 0.0
        with pytest.raises(ParameterConflict, match="oracle slack"):
            validate_config(SolverConfig(), obj)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("alpha1", None), ("alpha2", None), ("beta", None), ("rho", None),
            ("p", None), ("seed", None), ("max_iters", None),
            ("grad_tol", None), ("oracle_mode", None),
            ("rho", "0.1"), ("grad_tol", "tight"), ("dist_tol", [0.0]),
            ("sigma0", "1"), ("b0", "2"),
            ("seed", 1.5), ("seed", 2.0), ("max_iters", 2.5),
            ("max_iters", math.inf),
        ],
    )
    def test_wrong_type_conflicts_naming_the_field(self, field, value):
        # unchecked, each of these ends in a bare TypeError or ValueError,
        # in the range checks or later in the run
        with pytest.raises(ParameterConflict, match=f"^{field} "):
            validate_config(SolverConfig(**{field: value}), simple_objective())

    def test_numpy_scalars_are_numbers(self):
        cfg = SolverConfig(
            rho=np.float64(0.1), seed=np.int64(3), max_iters=np.int32(5)
        )
        assert validate_config(cfg, simple_objective()).seed == 3

    def test_alpha_conflict(self):
        obj = simple_objective()
        with pytest.raises(ParameterConflict):
            validate_config(SolverConfig(alpha1=0.6, alpha2=0.5), obj)

    def test_alpha_ranges(self):
        obj = simple_objective()
        with pytest.raises(ParameterConflict):
            validate_config(SolverConfig(alpha1=-0.1), obj)
        with pytest.raises(ParameterConflict):
            validate_config(SolverConfig(alpha2=0.0), obj)
        with pytest.raises(ParameterConflict):
            validate_config(SolverConfig(beta=1.0), obj)

    def test_step_seed_too_small(self):
        obj = simple_objective(mu=1.0, l1=1.0)
        with pytest.raises(ParameterConflict, match="^sigma0=1e-09 below the step"):
            validate_config(SolverConfig(sigma0=1e-9), obj)

    def test_step_seed_floor_is_inclusive(self):
        obj = simple_objective(mu=1.0, l1=2.0)
        cfg = validate_config(SolverConfig(sigma0=0.25 * 0.5 / 2.0), obj)
        assert cfg.sigma0 == 0.0625

    def test_degenerate_curvature(self):
        obj = simple_objective(mu=2.0, l1=1.0)
        band = "^need 0 < mu <= L1 < inf"
        with pytest.raises(InvalidSpectrum, match=band):
            validate_config(SolverConfig(), obj)
        with pytest.raises(InvalidSpectrum, match=band):
            validate_config(SolverConfig(), simple_objective(mu=0.0))
        # NaN fails every comparison, so it must not pass as "not degenerate"
        for mu, l1 in [(math.nan, 4.0), (1.0, math.nan), (1.0, math.inf)]:
            with pytest.raises(InvalidSpectrum, match=band):
                validate_config(SolverConfig(), simple_objective(mu=mu, l1=l1))

    @pytest.mark.parametrize("sigma0", [math.inf, 1e308])
    def test_overflowing_sigma0_conflicts(self, sigma0):
        # the line search's attempt budget would take the log of infinity
        with pytest.raises(ParameterConflict, match="sigma0"):
            validate_config(SolverConfig(sigma0=sigma0), simple_objective())

    @pytest.mark.parametrize("rho", [0.0, -1.0, math.inf, math.nan])
    def test_rho_must_be_positive_and_finite(self, rho):
        # an infinite step overflows the learner's W, and the run would end
        # in a LAPACK failure instead of a typed config error
        with pytest.raises(ParameterConflict, match="rho"):
            validate_config(SolverConfig(rho=rho), simple_objective())

    def test_negative_seed_conflicts(self):
        with pytest.raises(ParameterConflict, match="seed"):
            validate_config(SolverConfig(seed=-1), simple_objective())
        assert validate_config(SolverConfig(seed=0), simple_objective()).seed == 0

    def test_b0_scalar_out_of_band(self):
        obj = simple_objective(mu=1.0, l1=4.0)
        for b0 in (8.0, 0.5):
            factor = f"^scaled-identity factor {b0} outside"
            with pytest.raises(ParameterConflict, match=factor):
                validate_config(SolverConfig(b0=b0), obj)

    def test_b0_matrix_out_of_band(self):
        obj = simple_objective(mu=1.0, l1=4.0, d=2)
        with pytest.raises(ParameterConflict, match=r"^b0 spectrum \[1, 5\] outside"):
            validate_config(SolverConfig(b0=np.diag([1.0, 5.0])), obj)

    def test_b0_matrix_must_be_symmetric(self):
        obj = simple_objective(mu=1.0, l1=4.0, d=2)
        with pytest.raises(ParameterConflict, match="^explicit b0 must be symmetric"):
            validate_config(SolverConfig(b0=np.array([[2.0, 1.0], [0.0, 2.0]])), obj)

    @pytest.mark.parametrize(
        "field, value",
        [("p", 0.0), ("p", 1.0), ("p", math.nan), ("max_iters", 0), ("max_iters", -3)],
    )
    def test_out_of_range_conflicts_naming_the_field(self, field, value):
        with pytest.raises(ParameterConflict, match=f"^{field} must be"):
            validate_config(SolverConfig(**{field: value}), simple_objective())

    @pytest.mark.parametrize("sigma0", [0.0, -1.0, math.nan])
    def test_sigma0_must_be_positive(self, sigma0):
        with pytest.raises(ParameterConflict, match="^sigma0 must be positive"):
            validate_config(SolverConfig(sigma0=sigma0), simple_objective())

    def test_b0_matrix_in_band(self):
        obj = simple_objective(mu=1.0, l1=4.0, d=2)
        cfg = validate_config(SolverConfig(b0=np.diag([1.0, 4.0])), obj)
        assert np.array_equal(cfg.b0, np.diag([1.0, 4.0]))

    def test_idempotent(self):
        obj = simple_objective(mu=1.0, l1=4.0)
        first = validate_config(SolverConfig(), obj)
        second = validate_config(first, obj)
        for field in dataclasses.fields(SolverConfig):
            assert getattr(first, field.name) == getattr(second, field.name)

    @given(data=st.data())
    def test_idempotent_property(self, data):
        # finite floats in each field's valid range, None where a field
        # may hold it; on mu = 1, L1 = 4 every alpha2 * beta / L1 < 1/4, so
        # an explicit sigma0 >= 1/4 is above the step floor
        def real(lo, hi, exclude_min=False, exclude_max=False):
            return st.floats(
                lo, hi, exclude_min=exclude_min, exclude_max=exclude_max,
                allow_nan=False, allow_infinity=False,
            )

        def optional(strategy):
            return data.draw(st.none() | strategy)

        cfg = SolverConfig(
            alpha1=data.draw(real(0.0, 0.5, exclude_max=True)),
            alpha2=data.draw(real(0.0, 0.5, exclude_min=True, exclude_max=True)),
            beta=data.draw(real(0.0, 1.0, exclude_min=True, exclude_max=True)),
            sigma0=optional(real(0.25, 1e300)),
            rho=data.draw(real(0.0, 1e300, exclude_min=True)),
            p=data.draw(real(0.0, 1.0, exclude_min=True, exclude_max=True)),
            b0=optional(real(1.0, 4.0)),
            oracle_mode=data.draw(st.sampled_from(ORACLE_MODES)),
            seed=data.draw(st.integers(0, 2**63 - 1)),
            max_iters=data.draw(st.integers(1, 10**9)),
            grad_tol=data.draw(real(0.0, 1e300)),
            dist_tol=optional(real(0.0, 1e300)),
        )
        # a valid config also keeps sigma0 * L1 / (alpha2 * beta) finite,
        # since the line search's attempt budget takes its log; a sigma0 of
        # None stands for the theory default 1/(4 L1), which lies below the
        # step floor once alpha2 * beta > 1/4
        sigma0 = 1.0 / 16.0 if cfg.sigma0 is None else cfg.sigma0
        alpha2_beta = cfg.alpha2 * cfg.beta
        assume(0.0 < alpha2_beta <= 4.0 * sigma0)
        assume(math.isfinite(sigma0 * 4.0 / alpha2_beta))
        obj = simple_objective(mu=1.0, l1=4.0)
        validated = validate_config(cfg, obj)
        assert validate_config(validated, obj) == validated

    @pytest.mark.parametrize("value", [float("nan"), -1.0, -0.5e-300])
    @pytest.mark.parametrize("field", ["grad_tol", "dist_tol"])
    def test_tolerances_must_be_nonnegative_numbers(self, field, value):
        # NaN fails every comparison, so it must not pass as "not negative"
        with pytest.raises(ParameterConflict, match=field):
            validate_config(SolverConfig(**{field: value}), simple_objective())

    def test_zero_tolerances_accepted(self):
        cfg = validate_config(
            SolverConfig(grad_tol=0.0, dist_tol=0.0), simple_objective()
        )
        assert (cfg.grad_tol, cfg.dist_tol) == (0.0, 0.0)

    def test_oracle_mode_checked(self):
        with pytest.raises(ParameterConflict):
            validate_config(SolverConfig(oracle_mode="magic"), simple_objective())


class TestBudgetLogTerm:
    def test_default_sigma0_zeroes_the_gradient_budget_term(self):
        # log_{1/beta}(4 sigma0 L1) with sigma0 = 1/(4 L1) is exactly zero
        for l1 in (1.0, 0.3, 1e3, 7.7):
            cfg = validate_config(SolverConfig(), simple_objective(mu=0.1, l1=l1))
            assert budget_log_term(4.0 * cfg.sigma0 * l1, cfg.beta) == 0.0

    def test_plain_values(self):
        assert budget_log_term(8.0, 0.5) == 3.0
        assert budget_log_term(10.0, 0.5) == pytest.approx(np.log2(10.0))


class TestInitialMatrix:
    def test_default_is_l1_identity(self):
        obj = simple_objective(mu=1.0, l1=4.0, d=3)
        assert np.array_equal(
            resolve_initial_matrix(SolverConfig(), obj), 4.0 * np.eye(3)
        )

    def test_scalar_policy(self):
        obj = simple_objective(mu=1.0, l1=4.0, d=2)
        assert np.array_equal(
            resolve_initial_matrix(SolverConfig(b0=2.0), obj), 2.0 * np.eye(2)
        )

    def test_dimension_mismatch(self):
        # the order is checked with the rest of b0, so a method that never
        # builds b0 rejects it too
        obj = simple_objective(d=3)
        cfg = SolverConfig(b0=np.eye(4))
        with pytest.raises(ParameterConflict, match="problem dimension is 3"):
            validate_config(cfg, obj)
        with pytest.raises(ParameterConflict, match="problem dimension is 3"):
            solve_gd(obj, cfg, x0=np.ones(3))


class TestDefaultDelta:
    def test_matches_formula(self):
        assert default_delta(1.0, 4.0) == pytest.approx(1.0 / 3.0)
        assert default_delta(1.0, 1.5) == 1.0
        assert default_delta(1.0, 1.0) == 1.0

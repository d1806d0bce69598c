"""Reflection coefficient tests.

Closed-form plug-ins (normal incidence, Brewster zeros, total internal
reflection) pin down each formula; property sweeps check the physical
invariants |r| <= 1, realness below the critical angle, and the TE
lower bound.
"""

import cmath
import math

import numpy as np
import pytest

from qsabine.reflectivity import (
    BREWSTER_WINDOW,
    GLANCING_CUTOFF,
    TOTAL_TRANSMISSION,
    BoundaryDamping,
    DeltaPotential,
    TransparentObstacle,
    branched_sqrt,
    brewster,
    is_total_transmission,
    log_reflectivity,
    reflect,
)


class TestBranchedSqrt:
    def test_square_recovers_input(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            z = complex(rng.uniform(-10, 10), rng.uniform(-10, 10))
            w = branched_sqrt(z)
            assert abs(w * w - z) <= 1e-14 * max(1.0, abs(z))

    def test_negative_reals_go_up(self):
        for x in (-4.0, -0.25, -9.0):
            w = branched_sqrt(x)
            assert abs(w - 1j * math.sqrt(-x)) < 1e-14
            assert w.imag >= 0.0

    def test_positive_reals_stay_real(self):
        assert branched_sqrt(9.0) == 3.0 + 0.0j
        assert branched_sqrt(0.0) == 0.0 + 0.0j

    def test_branch_cut_on_negative_imaginary_axis(self):
        # continuous when crossing the positive imaginary axis,
        # discontinuous across the negative one
        up = branched_sqrt(complex(-1e-12, 1.0)) - branched_sqrt(complex(1e-12, 1.0))
        down = branched_sqrt(complex(-1e-12, -1.0)) - branched_sqrt(complex(1e-12, -1.0))
        assert abs(up) < 1e-9
        assert abs(down) > 1.0


class TestModelValidation:
    def test_transparent_rejects_unit_speed(self):
        with pytest.raises(ValueError):
            TransparentObstacle(1.0, 1.0)
        with pytest.raises(ValueError):
            TransparentObstacle(-2.0, 1.0)
        with pytest.raises(ValueError):
            TransparentObstacle(2.0, 0.0)

    def test_delta_ranges(self):
        with pytest.raises(ValueError):
            DeltaPotential(-1.0)
        with pytest.raises(ValueError):
            DeltaPotential(1.0, alpha_exp=0.5)
        with pytest.raises(ValueError):
            DeltaPotential(1.0, alpha_exp=-1.5)
        with pytest.raises(ValueError):
            DeltaPotential(1.0, h=0.0)
        assert DeltaPotential(2.0, -0.5, 0.25).sigma() == 2.0 * 0.25 ** -0.5
        assert DeltaPotential(2.0, -0.5, 0.25).coupling() == 2.0 * 0.25 ** 0.5

    def test_damping_positive(self):
        with pytest.raises(ValueError):
            BoundaryDamping(0.0)
        with pytest.raises(ValueError):
            BoundaryDamping(lambda s: -1.0).damping_at(0.3)

    def test_non_finite_parameters_rejected(self):
        inf = float("inf")
        for c, alpha in ((inf, 1.0), (2.0, inf)):
            with pytest.raises(ValueError, match="finite"):
                TransparentObstacle(c, alpha)
        with pytest.raises(ValueError, match="finite"):
            BoundaryDamping(inf)
        # a callable profile is checked where it is evaluated
        assert BoundaryDamping(lambda s: 2.0).damping_at(0.3) == 2.0

    def test_te_tm_classification(self):
        assert TransparentObstacle(2.0, 1.0).is_te
        assert TransparentObstacle(0.5, 1.0).is_te
        assert TransparentObstacle(2.0, 0.4).is_tm
        assert TransparentObstacle(0.5, 4.0).is_tm

    def test_glancing_rejected(self):
        for model in (TransparentObstacle(2.0, 1.0), DeltaPotential(1.0), BoundaryDamping(2.0)):
            with pytest.raises(ValueError, match="glancing"):
                reflect(model, 1.0 - 1e-14)
            reflect(model, GLANCING_CUTOFF)  # boundary itself is allowed

    def test_unknown_model_rejected(self):
        with pytest.raises(TypeError):
            reflect(object(), 0.0)


class TestReflect:
    def test_transparent_normal_incidence(self):
        # (1 - alpha c) / (1 + alpha c) at xi = 0
        assert abs(reflect(TransparentObstacle(2.0, 1.0), 0.0) - (-1.0 / 3.0)) < 1e-15
        assert abs(reflect(TransparentObstacle(0.5, 1.0), 0.0) - (1.0 / 3.0)) < 1e-15

    def test_total_internal_reflection(self):
        # c = 0.5, xi = 0.9: c**2 - xi**2 < 0 puts the root on the
        # positive imaginary axis and |r| = 1
        r = reflect(TransparentObstacle(0.5, 1.0), 0.9)
        assert abs(abs(r) - 1.0) < 1e-14
        assert abs(r.imag) > 0.1

    def test_transparent_real_below_critical(self):
        model = TransparentObstacle(0.5, 1.0)
        for xi in (0.0, 0.2, 0.4, 0.49):
            assert reflect(model, xi).imag == 0.0
        model = TransparentObstacle(2.0, 0.7)
        for xi in np.linspace(0.0, 0.999, 20):
            assert reflect(model, float(xi)).imag == 0.0

    def test_transparent_continuous_at_critical(self):
        model = TransparentObstacle(0.5, 1.0)
        assert abs(reflect(model, 0.5 - 1e-8) - reflect(model, 0.5 + 1e-8)) < 1e-3

    def test_damping_perfect_absorption(self):
        assert reflect(BoundaryDamping(1.0), 0.0) == 0.0

    def test_damping_matched_profile_is_zero_not_pole(self):
        nu = math.sqrt(1.0 - 0.36)
        r = reflect(BoundaryDamping(lambda s: nu), 0.6)
        assert abs(r) < 1e-15

    def test_damping_position_profile(self):
        model = BoundaryDamping(lambda s: 2.0 + 0.5 * math.sin(s))
        assert reflect(model, 0.3, position=0.0) != reflect(model, 0.3, position=1.5)

    def test_delta_glancing_limit(self):
        # numerator = -denominator as sqrt(1 - xi**2) -> 0
        r = reflect(DeltaPotential(1.0, 0.0, 0.1), 1.0 - 1e-12)
        assert abs(r + 1.0) < 1e-4

    def test_delta_position_profile(self):
        model = DeltaPotential(lambda s: 1.0 + s, alpha_exp=-0.5, h=0.01)
        assert reflect(model, 0.2, position=0.0) != reflect(model, 0.2, position=1.0)

    def test_modulus_bounded_by_one(self):
        models = (
            TransparentObstacle(2.0, 1.0),
            TransparentObstacle(2.0, 0.4),
            TransparentObstacle(0.5, 1.0),
            TransparentObstacle(0.5, 4.0),
            DeltaPotential(2.0, -0.5, 0.01),
            DeltaPotential(0.3, 0.0, 1.0),
            BoundaryDamping(2.0),
            BoundaryDamping(0.3),
        )
        grid = np.linspace(0.0, GLANCING_CUTOFF, 2001)
        for model in models:
            mags = np.array([abs(reflect(model, float(xi))) for xi in grid])
            assert mags.max() <= 1.0 + 1e-12

    def test_te_lower_bound(self):
        # both TE pairs bottom out at normal incidence with |r| = 1/3
        grid = np.linspace(0.0, 1.0 - 1e-6, 2001)
        for c, alpha in ((2.0, 1.0), (0.5, 1.0)):
            model = TransparentObstacle(c, alpha)
            least = min(abs(reflect(model, float(xi))) for xi in grid)
            assert least > 0.33

    def test_symmetry_in_xi(self):
        for model in (TransparentObstacle(2.0, 0.4), DeltaPotential(1.0, -0.5, 0.1),
                      BoundaryDamping(2.0)):
            for xi in (0.2, 0.7):
                assert reflect(model, xi) == reflect(model, -xi)


class TestBrewster:
    def test_closed_form_tm(self):
        xi_b = brewster(TransparentObstacle(2.0, 0.4))
        assert abs(xi_b - 0.6546536707079771) < 1e-12
        assert abs(reflect(TransparentObstacle(2.0, 0.4), xi_b)) < 1e-12

    def test_second_tm_pair(self):
        xi_b = brewster(TransparentObstacle(0.5, 4.0))
        assert abs(xi_b - math.sqrt(0.2)) < 1e-12
        assert abs(reflect(TransparentObstacle(0.5, 4.0), xi_b)) < 1e-12

    def test_te_has_none(self):
        assert brewster(TransparentObstacle(2.0, 1.0)) is None
        assert brewster(TransparentObstacle(0.5, 1.0)) is None

    def test_wrong_model_type(self):
        with pytest.raises(TypeError):
            brewster(BoundaryDamping(1.0))


class TestLogReflectivity:
    def test_normal_incidence_value(self):
        got = log_reflectivity(TransparentObstacle(2.0, 1.0), 0.0)
        assert abs(got - 2.0 * math.log(1.0 / 3.0)) < 1e-12

    def test_tir_is_zero(self):
        assert abs(log_reflectivity(TransparentObstacle(0.5, 1.0), 0.9)) < 1e-14

    def test_never_positive(self):
        rng = np.random.default_rng(11)
        models = (TransparentObstacle(0.5, 1.0), TransparentObstacle(2.0, 0.4),
                  DeltaPotential(1.0, -0.5, 0.05), BoundaryDamping(0.7))
        for model in models:
            for xi in rng.uniform(0.0, GLANCING_CUTOFF, 200):
                assert log_reflectivity(model, float(xi)) <= 0.0

    def test_total_transmission_signal(self):
        val = log_reflectivity(BoundaryDamping(1.0), 0.0)
        assert val == TOTAL_TRANSMISSION
        assert is_total_transmission(val)
        assert not is_total_transmission(-1e300)
        assert not is_total_transmission(math.inf)
        assert is_total_transmission(log_reflectivity(DeltaPotential(0.0), 0.3))

    def test_brewster_window_constant(self):
        assert 0.0 < BREWSTER_WINDOW < 0.1

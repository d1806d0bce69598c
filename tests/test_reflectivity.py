"""Reflection coefficient tests.

Closed-form plug-ins (normal incidence, Brewster zeros, total internal
reflection) pin down each formula; property sweeps check the physical
invariants |r| <= 1, realness below the critical angle, and the TE
lower bound.  The array path, which the scalar functions are the
one-point case of, is held bit for bit to a per-point Python-complex
reference (oracles.reflection_point).
"""

import cmath
import dataclasses
import math

import numpy as np
import pytest

from oracles import log_reflection_point, reflection_point
from qsabine.reflectivity import (
    _log_reflectivities,
    _reflections,
    BREWSTER_WINDOW,
    GLANCING_CUTOFF,
    TOTAL_TRANSMISSION,
    BoundaryDamping,
    DeltaPotential,
    TransparentObstacle,
    branched_sqrt,
    brewster,
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
    def test_transparent_ranges(self):
        with pytest.raises(ValueError):
            TransparentObstacle(-2.0, 1.0)
        with pytest.raises(ValueError):
            TransparentObstacle(2.0, 0.0)
        # c = 1 reflects by the constant (1 - alpha)/(1 + alpha), and
        # c = alpha = 1 is free space; glancing_limit refuses c = 1
        for xi in (0.0, 0.6, 0.99):
            assert reflect(TransparentObstacle(1.0, 3.0), xi) == pytest.approx(-0.5, abs=1e-15)
            assert reflect(TransparentObstacle(1.0, 1.0), xi) == 0.0
        assert TransparentObstacle(1.0, 3.0).is_te and not TransparentObstacle(1.0, 1.0).is_te
        assert brewster(TransparentObstacle(1.0, 3.0)) is None

    def test_delta_ranges(self):
        with pytest.raises(ValueError):
            DeltaPotential(-1.0)
        with pytest.raises(ValueError, match=r"v_exponent must lie in \[0, 1\]"):
            DeltaPotential(1.0, v_exponent=-0.5)
        with pytest.raises(ValueError, match=r"v_exponent must lie in \[0, 1\]"):
            DeltaPotential(1.0, v_exponent=1.5)
        with pytest.raises(ValueError):
            DeltaPotential(1.0, h=0.0)
        assert DeltaPotential(2.0, 0.5, 0.25).sigma() == 2.0 * 0.25 ** -0.5
        assert DeltaPotential(2.0, 0.5, 0.25).coupling() == 2.0 * 0.25 ** 0.5
        assert DeltaPotential(3.0, 0.5).strength(4.0) == 6.0

    def test_negative_delta_profile_refused_where_evaluated(self):
        model = DeltaPotential(lambda p: -1.0)
        with pytest.raises(ValueError, match="nonnegative"):
            model.sigma()

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
        with pytest.raises(ValueError, match="finite"):
            DeltaPotential(inf)
        # a callable profile is checked where it is evaluated
        assert BoundaryDamping(lambda s: 2.0).damping_at(0.3) == 2.0

    def test_te_tm_classification(self):
        assert TransparentObstacle(2.0, 1.0).is_te
        assert TransparentObstacle(0.5, 1.0).is_te
        assert not TransparentObstacle(2.0, 0.4).is_te
        assert not TransparentObstacle(0.5, 4.0).is_te

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
        model = DeltaPotential(lambda s: 1.0 + s, v_exponent=0.5, h=0.01)
        assert reflect(model, 0.2, position=0.0) != reflect(model, 0.2, position=1.0)

    def test_modulus_bounded_by_one(self):
        models = (
            TransparentObstacle(2.0, 1.0),
            TransparentObstacle(2.0, 0.4),
            TransparentObstacle(0.5, 1.0),
            TransparentObstacle(0.5, 4.0),
            DeltaPotential(2.0, 0.5, 0.01),
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
        for model in (TransparentObstacle(2.0, 0.4), DeltaPotential(1.0, 0.5, 0.1),
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

    def test_angle_that_rounds_to_glancing_is_none(self):
        # a TM law whose xi_B**2 = (1 - alpha**2 c**2) / (1 - alpha**2)
        # rounds to 1: no zero of r in [0, 1)
        model = TransparentObstacle(2.0, 1e-9)
        assert not model.is_te and brewster(model) is None and model.zeros() == ()

    def test_wrong_model_type(self):
        with pytest.raises(TypeError):
            brewster(BoundaryDamping(1.0))


class TestLawFacts:
    """The interior wave speed, the xi-grid collar, the analytic zeros of
    r and the glancing rate that each law states about itself; no fact
    is a constructor parameter."""

    @pytest.mark.parametrize("model, c, collar, zeros, glancing", [
        (TransparentObstacle(2.0, 1.0), 2.0, 1e-6, (), -1.1547005383792517),
        (TransparentObstacle(1.5, 0.3), 1.5, 1e-6, (0.9361482929395462,), -4.47213595499958),
        (TransparentObstacle(0.5, 1.3), 0.5, 1e-6, (), 0.0),
        (BoundaryDamping(0.5), 1.0, 1e-6, (0.8660254037844386,), -2.0),
        (BoundaryDamping(1.0), 1.0, 1e-6, (0.0,), -1.0),
        (BoundaryDamping(2.0), 1.0, 1e-6, (), -0.5),
        (BoundaryDamping(lambda s: 0.5), 1.0, 1e-6, (), -2.0),
        (DeltaPotential(1.0, 0.5, 0.004), 1.0, 0.33144540173399867, (), 0.0),
        (DeltaPotential(1.0, 0.5, 1.0), 1.0, 0.5, (), 0.0),
        (DeltaPotential(1.0, 0.5, 1e-40), 1.0, 1e-6, (), 0.0),
    ], ids=["transparent 2 1", "transparent 1.5 0.3", "transparent 0.5 1.3", "damping 0.5",
            "damping 1", "damping 2", "damping profile", "delta h 0.004", "delta h 1",
            "delta h 1e-40"])
    def test_recorded_facts(self, model, c, collar, zeros, glancing):
        assert (model.c, model.collar, model.zeros()) == (c, collar, zeros)
        assert model.glancing() == glancing

    def test_damping_glancing_rate_follows_its_profile(self):
        model = BoundaryDamping(lambda s: 2.0 + s)
        assert (model.glancing(0.0), model.glancing(2.0)) == (-0.5, -0.25)
        with pytest.raises(ValueError, match="positive"):
            BoundaryDamping(lambda s: -1.0).glancing(0.3)

    def test_constructors_unchanged(self):
        assert [f.name for f in dataclasses.fields(TransparentObstacle)] == ["c", "alpha"]
        assert [f.name for f in dataclasses.fields(DeltaPotential)] == ["v0", "v_exponent", "h"]
        assert [f.name for f in dataclasses.fields(BoundaryDamping)] == ["a"]


class TestLogReflectivity:
    def test_normal_incidence_value(self):
        got = log_reflectivity(TransparentObstacle(2.0, 1.0), 0.0)
        assert abs(got - 2.0 * math.log(1.0 / 3.0)) < 1e-12

    def test_tir_is_zero(self):
        assert abs(log_reflectivity(TransparentObstacle(0.5, 1.0), 0.9)) < 1e-14

    def test_never_positive(self):
        rng = np.random.default_rng(11)
        models = (TransparentObstacle(0.5, 1.0), TransparentObstacle(2.0, 0.4),
                  DeltaPotential(1.0, 0.5, 0.05), BoundaryDamping(0.7))
        for model in models:
            for xi in rng.uniform(0.0, GLANCING_CUTOFF, 200):
                assert log_reflectivity(model, float(xi)) <= 0.0

    def test_total_transmission_signal(self):
        val = log_reflectivity(BoundaryDamping(1.0), 0.0)
        assert val == TOTAL_TRANSMISSION
        assert -1e300 != TOTAL_TRANSMISSION
        assert math.inf != TOTAL_TRANSMISSION
        assert log_reflectivity(DeltaPotential(0.0), 0.3) == TOTAL_TRANSMISSION

    def test_brewster_window_constant(self):
        assert 0.0 < BREWSTER_WINDOW < 0.1


def bits(z) -> tuple:
    """The exact bits of a complex or float, signed zeros and NaN included."""
    z = complex(z)
    return z.real.hex(), z.imag.hex()


class TestArrayReflectivity:
    # Every law on its branches: c < 1 (total internal reflection from
    # xi = c on, with w = 0 at xi = c), c = 1, c > 1 with an exact Brewster
    # zero, free space (r = 0 everywhere), a matched damping zero at
    # xi = 0, a vanishing delta potential, and position profiles.
    MODELS = (
        TransparentObstacle(2.0, 1.0),
        TransparentObstacle(2.0, 0.4),
        TransparentObstacle(0.5, 1.3),
        TransparentObstacle(0.5, 4.0),
        TransparentObstacle(1.0, 3.0),
        TransparentObstacle(1.0, 1.0),
        TransparentObstacle(1.5, 0.3),
        DeltaPotential(1.0, 5.0 / 6.0, 0.004),
        DeltaPotential(0.3),
        DeltaPotential(0.0),
        DeltaPotential(lambda s: 1.0 + 0.5 * math.sin(s), 0.5, 0.01),
        BoundaryDamping(2.0),
        BoundaryDamping(0.5),
        BoundaryDamping(1.0),
        BoundaryDamping(lambda s: 1.0 + 0.9 * math.cos(3.0 * s)),
    )

    @staticmethod
    def points(model):
        xi = np.linspace(-GLANCING_CUTOFF, GLANCING_CUTOFF, 4001)
        special = [0.0, -0.0, 0.5, 1.0 - 1e-6, GLANCING_CUTOFF, 1e-300, math.nan]
        special += [1.0 - 10.0 ** -k for k in range(1, 12)]
        if isinstance(model, TransparentObstacle) and brewster(model) is not None:
            special.append(brewster(model))
        xi = np.concatenate([xi, special, np.negative(special)])
        positions = np.linspace(-7.0, 7.0, xi.size)
        return xi, positions

    @pytest.mark.parametrize("model", MODELS, ids=repr)
    def test_array_path_matches_point_reference(self, model):
        xi, positions = self.points(model)
        re, im = _reflections(model, xi, positions)
        logs = _log_reflectivities(model, xi, positions)
        for k, (x, p) in enumerate(zip(xi.tolist(), positions.tolist())):
            expected = reflection_point(model, x, p)
            assert bits(complex(re[k], im[k])) == bits(expected), (x, p)
            assert bits(reflect(model, x, p)) == bits(expected), (x, p)
            expected_log = log_reflection_point(model, x, p)
            assert logs[k].hex() == expected_log.hex(), (x, p)
            assert log_reflectivity(model, x, p).hex() == expected_log.hex(), (x, p)

    def test_the_zeros_are_total_transmission(self):
        xi_b = brewster(TransparentObstacle(2.0, 0.4))
        cases = ((TransparentObstacle(2.0, 0.4), xi_b), (TransparentObstacle(1.0, 1.0), 0.3),
                 (BoundaryDamping(1.0), 0.0), (DeltaPotential(0.0), 0.7))
        for model, xi in cases:
            assert _log_reflectivities(model, [0.2, xi], [0.0, 0.0])[1] == TOTAL_TRANSMISSION

    @pytest.mark.parametrize("model", MODELS, ids=repr)
    def test_past_the_cutoff_is_the_point_error(self, model):
        for xi in (1.0 - 1e-14, -1.0, 1.5, math.inf):
            with pytest.raises(ValueError) as expected:
                reflection_point(model, xi)
            with pytest.raises(ValueError) as got:
                _reflections(model, [0.1, xi, 1.0 - 1e-13], [0.0, 0.0, 0.0])
            assert str(got.value) == str(expected.value)
            with pytest.raises(ValueError) as got:
                log_reflectivity(model, xi)
            assert str(got.value) == str(expected.value)

    def test_errors_come_in_point_order(self):
        # A profile that fails at position 1 raises before a later
        # glancing point, and after an earlier one, as one at a time.
        model = BoundaryDamping(lambda s: 1.0 - s)
        with pytest.raises(ValueError, match="damping profile must stay positive"):
            _reflections(model, [0.2, 0.3, 1.0], [0.0, 1.0, 0.0])
        with pytest.raises(ValueError, match="too close to glancing"):
            _reflections(model, [0.2, 1.0, 0.3], [0.0, 0.0, 1.0])
        with pytest.raises(ValueError, match="finite"):
            _reflections(DeltaPotential(1e308, 1.0, 0.5), [0.2, 1.0], [0.0, 0.0])
        with pytest.raises(ValueError, match="glancing"):
            _reflections(DeltaPotential(1e308, 1.0, 0.5), [1.0, 0.2], [0.0, 0.0])
        with pytest.raises(TypeError):
            _reflections(object(), [1.0], [0.0])

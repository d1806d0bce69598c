"""Tests for the Airy/Bessel core: series and mpmath oracles, identities, asymptotics."""
from __future__ import annotations

import cmath
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import hankel1, jv

from qsabine import specfun as sf

from oracles import (
    airy_series,
    airy_zero_bisect,
    bessel_h1_series,
    bessel_j_series,
)

AI_ZERO_1 = -2.338107410459767


class TestAiry:
    def test_value_at_first_zero(self):
        pair = sf.airy(AI_ZERO_1)
        assert abs(pair.value) < 1e-12
        # independent route: bisection on the Maclaurin series
        assert abs(airy_zero_bisect(1) - AI_ZERO_1) < 1e-10
        assert abs(airy_series(AI_ZERO_1)[0]) < 1e-11

    def test_against_series_real_axis(self):
        for x in np.linspace(-6.0, 2.0, 33):
            want, want_p = airy_series(x)
            got = sf.airy(x)
            assert_allclose(got.value, want.real, rtol=1e-10, atol=1e-13)
            assert_allclose(got.derivative, want_p.real, rtol=1e-10, atol=1e-13)

    def test_against_series_complex(self):
        rng = np.random.default_rng(7)
        pts = rng.uniform(-4, 4, (40, 2))
        for x, y in pts:
            z = complex(x, y)
            want, want_p = airy_series(z)
            got = sf.airy(z)
            assert abs(got.value - want) <= 1e-10 * abs(want) + 1e-13
            assert abs(got.derivative - want_p) <= 1e-10 * abs(want_p) + 1e-13

    def test_airy_minus_at_origin(self):
        pair = sf.airy_minus(0.0)
        assert abs(pair.value - 0.3550280538878172) < 1e-8
        rot = cmath.exp(2j * math.pi / 3)
        assert abs(pair.derivative - rot * (-0.25881940379280678)) < 1e-8

    def test_airy_minus_solves_airy_equation(self):
        # second derivative via the ODE must match a finite difference
        for z in [0.3 + 0.2j, -2.0 + 0j, 1.5 - 1.0j]:
            h = 1e-5
            pp = (sf.airy_minus(z + h).derivative - sf.airy_minus(z - h).derivative) / (2 * h)
            assert abs(pp - z * sf.airy_minus(z).value) < 1e-5

    def test_connection_formula(self):
        # Ai(s) = e^{-i pi/3} A_-(s) + e^{i pi/3} conj(A_-(s)) on the real axis
        for s in np.linspace(-20.0, 5.0, 200):
            ai = sf.airy(s).value
            am = sf.airy_minus(s).value
            rec = cmath.exp(-1j * math.pi / 3) * am + cmath.exp(1j * math.pi / 3) * am.conjugate()
            assert abs(ai - rec) < 1e-9

    def test_outgoing_projection_identity(self):
        # Im(e^{-5 i pi/6} A_-(s)) = -Ai(s)/2
        for s in np.linspace(-20.0, 5.0, 200):
            lhs = (cmath.exp(-5j * math.pi / 6) * sf.airy_minus(s).value).imag
            assert abs(lhs + sf.airy(s).value / 2.0) < 1e-9

    def test_phi_minus_asymptote(self):
        # Im Phi_-(s) approaches -sqrt(-s) from below as s -> -infinity
        defects = [abs(sf.phi_minus(s).imag + math.sqrt(-s)) for s in (-25.0, -100.0, -400.0)]
        assert defects[0] < 1e-4
        assert defects[2] < 1e-6
        assert defects[0] > defects[1] > defects[2]

    def test_overflow_is_flagged(self):
        with pytest.raises(sf.ScaledMagnitudeError) as info:
            sf.airy_minus(110.0)
        # log magnitude ~ (2/3) 110^{3/2} = 769
        assert 700 < info.value.log_magnitude < 800

    def test_ai_overflow_is_flagged(self):
        # Ai grows like e^{-(2/3) z^{3/2}} off the positive axis: at
        # 200 e^{2 pi i/3} that is e^{1886}
        with pytest.raises(sf.ScaledMagnitudeError, match="Ai overflows"):
            sf.airy(200.0 * cmath.exp(2j * math.pi / 3.0))

    def test_argument_guard(self):
        with pytest.raises(ValueError):
            sf.airy(2e4)
        with pytest.raises(ValueError):
            sf.airy_minus(-2e4 + 0j)


class TestAiryZeros:
    def test_length_is_the_count(self):
        assert len(sf.airy_zeros(5)) == 5

    def test_zeros_against_bisection(self):
        table = sf.airy_zeros(5)
        for j in range(1, 4):
            assert abs(table.zeros[j - 1] - airy_zero_bisect(j)) < 1e-10

    def test_zeros_are_airy_zeros(self):
        table = sf.airy_zeros(100)
        for z in table.zeros:
            assert abs(sf.airy(z).value) < 1e-10

    def test_bracket_spacing(self):
        # each zero lies within 0.5 of the asymptotic location
        table = sf.airy_zeros(100)
        for j, z in enumerate(table.zeros, start=1):
            t = -((3.0 * math.pi * (4 * j - 1) / 8.0) ** (2.0 / 3.0))
            assert abs(z - t) < 0.5

    def test_im_phi_closed_form(self):
        table = sf.airy_zeros(10)
        for z, imphi in zip(table.zeros, table.im_phi_minus):
            am = abs(sf.airy_minus(z).value)
            aip = abs(sf.airy(z).derivative)
            closed = -1.0 / (8.0 * math.pi ** 2 * am ** 3 * aip)
            assert abs(imphi - closed) < 1e-8 * abs(closed)

    def test_im_phi_wronskian_form(self):
        # equivalent route: Im Phi_-(zeta_j) = -pi Ai'(zeta_j)^2
        table = sf.airy_zeros(10)
        assert_allclose(table.im_phi_minus, -math.pi * table.ai_prime ** 2, rtol=1e-10)

    def test_count_guard(self):
        with pytest.raises(ValueError):
            sf.airy_zeros(0)
        with pytest.raises(ValueError):
            sf.airy_zeros(101)


class TestBesselQuad:
    def test_reference_point(self):
        q = sf.bessel_quad(0, 1.0)
        assert abs(q.j - 0.7651976865579666) < 1e-12
        assert abs(q.h1 - (0.7651976865579666 + 0.08825696421567696j)) < 1e-10

    def test_against_series_oracle(self):
        for n in (0, 1, 2, 5):
            for z in (1.3, 4.0 + 0j, 3.0 - 2.0j, 9.0 + 1.0j):
                q = sf.bessel_quad(n, z)
                jw = bessel_j_series(n, z)
                hw = bessel_h1_series(n, z)
                assert abs(q.j - jw) <= 1e-8 * abs(jw)
                assert abs(q.h1 - hw) <= 1e-8 * abs(hw)

    def test_derivative_relation(self):
        # f'_n = f_{n-1} - (n/z) f_n holds for both members by construction;
        # check against the series derivative instead: J_n' = (J_{n-1}-J_{n+1})/2
        for n in (1, 3):
            for z in (2.0, 5.0 - 1.0j):
                q = sf.bessel_quad(n, z)
                want = (bessel_j_series(n - 1, z) - bessel_j_series(n + 1, z)) / 2.0
                assert abs(q.j_prime - want) < 1e-9 * max(1.0, abs(want))

    def test_zero_order_uses_reflection(self):
        q = sf.bessel_quad(0, 10.0)
        want = -bessel_j_series(1, 10.0)
        assert abs(q.j_prime - want) < 1e-12

    def test_wronskian_random_box(self):
        rng = np.random.default_rng(2024)
        for _ in range(100):
            n = int(rng.integers(0, 5001))
            radius = float(np.exp(rng.uniform(np.log(1.0), np.log(5000.0))))
            im = float(rng.uniform(-50.0, 50.0))
            re = math.sqrt(max(radius * radius - im * im, 0.25))
            z = complex(re, im)
            if not 1.0 <= abs(z) <= 5000.0:
                continue
            try:
                q = sf.bessel_quad(n, z)
            except sf.ScaledMagnitudeError:
                continue  # order-dominated corner of the box
            assert q.wronskian_defect() < 1e-9

    def test_fixed_order_asymptotics(self):
        # J_n(z) sqrt(2 pi z) -> e^{i(z - n pi/2 - pi/4)} + e^{-i(...)},
        # with a first correction of relative size (4 n^2 - 1) / (8 |z|)
        for n in (0, 3, 7):
            for z in (500.0 + 0j, 500.0 - 3.0j):
                q = sf.bessel_quad(n, z)
                om = z - n * math.pi / 2 - math.pi / 4
                target = cmath.exp(1j * om) + cmath.exp(-1j * om)
                got = q.j * cmath.sqrt(2 * math.pi * z)
                bound = (4 * n * n + 1) / 4 * math.exp(abs(z.imag)) / abs(z)
                assert abs(got - target) < bound

    def test_uniform_airy_form(self):
        # large order, argument n z: 4 members against the Airy transition forms
        rot = cmath.exp(2j * math.pi / 3)
        for n in (100, 800):
            for zv in (0.7, 1.1, 2.0):
                zeta = sf.uniform_zeta(zv)
                u = n ** (2.0 / 3.0) * zeta
                pref = (4.0 * zeta / (1.0 - zv * zv)) ** 0.25
                ai = sf.airy(u)
                am = sf.airy_minus(u)
                q = sf.bessel_quad(n, n * zv)
                ju = pref * ai.value / n ** (1.0 / 3.0)
                hu = 2.0 * cmath.exp(-1j * math.pi / 3) * pref * am.value / n ** (1.0 / 3.0)
                jup = -(2.0 / zv) / pref * ai.derivative / n ** (2.0 / 3.0)
                hup = (4.0 * rot / zv) / pref * am.derivative / n ** (2.0 / 3.0)
                assert abs(q.j - ju) < 5e-3 * abs(q.j)
                assert abs(q.h1 - hu) < 5e-3 * abs(q.h1)
                assert abs(q.j_prime - jup) < 5e-2 * abs(q.j_prime)
                assert abs(q.h1_prime - hup) < 5e-2 * abs(q.h1_prime)

    def test_uniform_form_converges(self):
        zv = 1.1
        defects = []
        for n in (100, 800):
            zeta = sf.uniform_zeta(zv)
            u = n ** (2.0 / 3.0) * zeta
            pref = (4.0 * zeta / (1.0 - zv * zv)) ** 0.25
            q = sf.bessel_quad(n, n * zv)
            ju = pref * sf.airy(u).value / n ** (1.0 / 3.0)
            defects.append(abs(q.j - ju) / abs(q.j))
        assert defects[1] < defects[0]

    def test_order_dominated_regime_raises(self):
        with pytest.raises(sf.ScaledMagnitudeError) as info:
            sf.bessel_quad(500, 10.0)
        # log |H_500(10)| ~ 500 (log(100) - 1) ~ 1800
        assert 1500 < info.value.log_magnitude < 2100

    def test_domain_guards(self):
        with pytest.raises(ValueError):
            sf.bessel_quad(-1, 10.0)
        with pytest.raises(ValueError):
            sf.bessel_quad(3, 0.5)
        with pytest.raises(ValueError):
            sf.bessel_quad(3, 3e4)
        with pytest.raises(ValueError):
            sf.bessel_quad(3, 100.0 - 60.0j)
        with pytest.raises(ValueError):
            sf.bessel_quad(2.5, 10.0)


class TestBesselPairOracle:
    """bessel_pair, point and array, against mpmath at 30 digits.

    The points cover both signs of Im z = 50 at low and moderate order,
    the turning region n ~ |z| at n = 500 and 1000, an order-dominated
    point where J_1000 is ~1e-43, and the corners of the admitted box
    (|z| = 1 and |z| ~ 2e4).  mpmath forms H^(1) = J + i Y, which
    cancels by e^(-2 Im z) in the upper half plane, so H gets that many
    extra digits.  Orders stay at n <= 1000: mpmath needs seconds per
    Hankel value at higher order.  The largest defect measured is 6e-13.
    """

    POINTS = (
        (0, 5.0 + 0j), (1, 30.0 - 50j), (3, 1.0 + 0j), (7, 200.0 + 50j),
        (40, 19990.0 - 50j), (100, 3000.0 - 50j), (300, 350.0 + 50j),
        (400, 600.0 - 50j), (500, 500.0 - 1j), (1000, 1000.0 + 0j),
        (1000, 1003.0 - 3j), (1000, 990.0 - 0.5j), (1000, 800.0 - 5j),
    )

    @staticmethod
    def _mpmath_pair(kind, n, z):
        mpmath = pytest.importorskip("mpmath")
        extra = 5 + int(2.0 * max(z.imag, 0.0) / math.log(10.0)) if kind == "h" else 0
        with mpmath.workdps(30 + extra):
            w = mpmath.mpc(z.real, z.imag)
            jp = mpmath.besselj(n, w, 1)
            if kind == "j":
                return complex(mpmath.besselj(n, w)), complex(jp)
            return complex(mpmath.hankel1(n, w)), complex(jp + 1j * mpmath.bessely(n, w, 1))

    @pytest.mark.parametrize("kind, fn", [("j", jv), ("h", hankel1)])
    def test_against_mpmath(self, kind, fn):
        for n, z in self.POINTS:
            c, cp = sf.bessel_pair(fn, n, z)
            want, want_p = self._mpmath_pair(kind, n, z)
            assert abs(c - want) <= 1e-10 * abs(want), (n, z)
            assert abs(cp - want_p) <= 1e-10 * abs(want_p), (n, z)

    @pytest.mark.parametrize("fn", [jv, hankel1])
    def test_array_path_matches_point_path_bitwise(self, fn):
        for n in sorted({n for n, _ in self.POINTS}):
            zs = np.array([z for m, z in self.POINTS if m == n])
            c, cp = sf.bessel_pair(fn, n, zs)
            for k, z in enumerate(zs):
                assert (complex(c[k]), complex(cp[k])) == sf.bessel_pair(fn, n, complex(z))


class TestBesselRows:
    """bessel_rows against the point evaluation it batches: each row
    through one-element AMOS arrays and Python guards."""

    @staticmethod
    def one_point(fn, n, z):
        if not (n == int(n) and 0 <= n <= sf.BESSEL_ORDER_MAX
                and 1.0 <= abs(z) <= sf.BESSEL_ARG_MAX and abs(z.imag) <= sf.BESSEL_IM_MAX):
            return ValueError
        a = np.array([z])
        c = fn(n, a)
        c, cp = complex(c[0]), complex((fn(n - 1, a) - (n / a) * c)[0])
        if not (cmath.isfinite(c) and cmath.isfinite(cp)) or (c == 0 and n > abs(z)):
            return sf.ScaledMagnitudeError
        return c, cp

    @pytest.mark.parametrize("fn", [jv, hankel1])
    def test_rows_match_one_point_each_bitwise(self, fn):
        # orders and points mixed across the box: the turning region,
        # order-dominated rows that overflow (H) or underflow (J), and
        # rows outside the box, which must not disturb their neighbours
        rng = np.random.default_rng(11)
        orders = rng.integers(0, 400, 300).tolist() + [2000, 2000, 3, 2.5, -1, 20001]
        points = [complex(rng.uniform(100, 350), -rng.uniform(0, 3)) for _ in range(300)]
        points += [600 - 2j, 1700 - 1j, 100 - 60j, 10.0, 10.0, 10.0]
        rows = sf.bessel_rows(fn, orders, points)
        kinds = set()
        for n, z, got in zip(orders, points, rows):
            want = self.one_point(fn, n, z)
            if isinstance(want, tuple):
                assert got == want, (n, z)
            else:
                assert type(got) is want, (n, z)
                assert got.args == self.raised(fn, n, z).args
            kinds.add(type(got))
        assert kinds == {tuple, ValueError, sf.ScaledMagnitudeError}

    @staticmethod
    def raised(fn, n, z):
        with pytest.raises((ValueError, sf.ScaledMagnitudeError)) as info:
            sf.bessel_pair(fn, n, z)
        return info.value


class TestUniformZeta:
    def test_defining_identity_above_one(self):
        for z in np.concatenate([np.linspace(1.0005, 1.2, 25), np.linspace(1.2, 40.0, 25)]):
            zeta = sf.uniform_zeta(z)
            lhs = (2.0 / 3.0) * (-zeta) ** 1.5
            rhs = math.sqrt(z * z - 1.0) - math.acos(1.0 / z)
            assert abs(lhs - rhs) < 1e-12

    def test_defining_identity_below_one(self):
        for z in np.linspace(0.05, 0.9995, 50):
            zeta = sf.uniform_zeta(z)
            lhs = (2.0 / 3.0) * zeta ** 1.5
            rhs = math.log((1.0 + math.sqrt(1.0 - z * z)) / z) - math.sqrt(1.0 - z * z)
            assert abs(lhs - rhs) < 1e-12

    def test_seam_matches_closed_form(self):
        # series region boundary: both routes agree to near machine precision
        for z in (0.961, 0.9605, 1.0395, 1.039):
            zeta = sf.uniform_zeta(z)
            if z < 1:
                rhs = math.log((1.0 + math.sqrt(1.0 - z * z)) / z) - math.sqrt(1.0 - z * z)
                other = (1.5 * rhs) ** (2.0 / 3.0)
            else:
                rhs = math.sqrt(z * z - 1.0) - math.acos(1.0 / z)
                other = -((1.5 * rhs) ** (2.0 / 3.0))
            assert abs(zeta - other) < 1e-11 * max(abs(zeta), 1e-6)

    def test_monotone_decreasing(self):
        grid = np.unique(np.concatenate([np.linspace(1e-6, 0.9, 40), np.linspace(0.9, 1.1, 40), np.linspace(1.1, 1000.0, 40)]))
        vals = [sf.uniform_zeta(z) for z in grid]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_value_at_one(self):
        assert sf.uniform_zeta(1.0) == 0.0

    def test_glancing_normalization(self):
        # 4 zeta/(1-z^2) -> 2^{4/3} as z -> 1, which pins J_n(n) ~ 2^{1/3} Ai(0) n^{-1/3}
        for z in (0.999, 1.001, 0.99999, 1.00001):
            ratio = 4.0 * sf.uniform_zeta(z) / (1.0 - z * z)
            assert abs(ratio - 2.0 ** (4.0 / 3.0)) < 2e-2 * abs(1.0 - z) / 1e-3 + 1e-10
        for n in (200, 2000):
            q = sf.bessel_quad(n, float(n))
            want = 2.0 ** (1.0 / 3.0) * sf.airy(0.0).value / n ** (1.0 / 3.0)
            assert abs(q.j - want) < 0.2 * abs(want) / n ** (2.0 / 3.0) + 2e-3 * abs(want)

    def test_derivative_consistency(self):
        for z in (0.5, 0.97, 1.0, 1.03, 2.0):
            h = 1e-6
            fd = (sf.uniform_zeta(z + h) - sf.uniform_zeta(z - h)) / (2 * h)
            assert abs(sf.uniform_zeta_prime(z) - fd) < 1e-7

    def test_domain_guard(self):
        with pytest.raises(ValueError):
            sf.uniform_zeta(1e-7)
        with pytest.raises(ValueError):
            sf.uniform_zeta(2e3)


class TestFriedlanderSymbols:
    def test_single_layer_is_one_at_airy_zeros(self):
        table = sf.airy_zeros(10)
        for z in table.zeros:
            assert abs(sf.friedlander_symbols(z).single_layer - 1.0) < 1e-8

    def test_asymptotics_deep_in_oscillatory_region(self):
        s = sf.friedlander_symbols(-25.0)
        assert abs(s.single_layer - 1.0) < 0.01
        assert abs(s.double_layer - 25.0) < 0.01 * 25.0
        assert abs(s.mixed - 5.0j) < 0.01 * 5.0

    def test_nonnegative(self):
        for x in np.linspace(-30.0, 10.0, 81):
            s = sf.friedlander_symbols(x)
            assert s.single_layer >= 0.0
            assert s.double_layer >= 0.0

    def test_internal_consistency(self):
        # mixed = single_layer * conj(Phi_-), double = single * |Phi_-|^2
        for x in (-7.3, -1.0, 0.0, 2.0):
            s = sf.friedlander_symbols(x)
            phi = sf.phi_minus(x)
            assert abs(s.mixed - s.single_layer * phi.conjugate()) < 1e-10 * abs(s.mixed)
            assert abs(s.double_layer - s.single_layer * abs(phi) ** 2) < 1e-10 * abs(s.double_layer)

    def test_tail_factor_against_quadrature(self):
        from scipy.integrate import quad

        for x in (-5.0, 0.0, 2.0):
            ai = sf.airy(x)
            closed = ai.derivative ** 2 - x * ai.value ** 2
            val, err = quad(lambda t: sf.airy(t).value ** 2, x, 14.0, limit=300)
            assert abs(closed - val) < 1e-8 * abs(closed)

    def test_domain_guard(self):
        with pytest.raises(ValueError):
            sf.friedlander_symbols(-31.0)
        with pytest.raises(ValueError):
            sf.friedlander_symbols(11.0)

"""Billiard map tests.

Independent routes used here:
  * conic ray-trace exit (oracles.ellipse_ray_exit) against the bracketed
    root finder, on the disk and on an ellipse
  * scipy.special.ellipe for the ellipse perimeter against the
    Gauss-Legendre arclength tables
  * elementary chord geometry on the disk (closed forms)
  * the elliptic billiard first integral (oracles.foci_momentum_product)
  * finite differences for the generating-function partials and the
    symplectic Jacobian, also as hypothesis properties (with
    reversibility) on random ellipses and support-function domains
  * scipy.optimize.brentq for the row-wise Brent port, and the one-row
    billiard_step for the lockstep map, for orbit and for the batched
    glancing check, all bit for bit
"""

import dataclasses
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq
from scipy.special import ellipe

from qsabine import TransparentObstacle, billiards, sabine_bounds
from qsabine.billiards import (
    ConvexDomain,
    GLANCING_MARGIN,
    GlancingError,
    OrbitSegment,
    PhasePoint,
    billiard_step,
    glancing_expansion_check,
    mean_chord,
    orbit,
)
from qsabine.billiards import _GL_WEIGHTS, _billiard_steps, _brentq_rows, _orbits

from oracles import ellipse_ray_exit, foci_momentum_product


def sdiff(a, b, L):
    """Signed difference a - b reduced to (-L/2, L/2]."""
    d = (a - b) % L
    return d - L if d > 0.5 * L else d


def wavy_domain():
    # support function 1 + 0.1 cos(3 phi): radius of curvature in [0.2, 1.8]
    return ConvexDomain.from_support(
        lambda p: 1.0 + 0.1 * np.cos(3 * p),
        lambda p: -0.3 * np.sin(3 * p),
        lambda p: -0.9 * np.cos(3 * p),
        name="wavy",
    )


class TestConvexDomain:
    def test_repr_names_the_constructor(self):
        assert repr(ConvexDomain.disk()) == "ConvexDomain(disk(radius=1.0))"

    def test_disk_geometry(self):
        for r in (1.0, 2.5):
            dom = ConvexDomain.disk(r)
            assert abs(dom.perimeter - 2 * math.pi * r) < 1e-12 * r
            assert np.allclose(dom.position(0.0), [r, 0.0], atol=1e-13)
            assert np.allclose(dom.tangent(0.0), [0.0, 1.0], atol=1e-13)
            assert np.allclose(dom.inward_normal(0.0), [-1.0, 0.0], atol=1e-13)
            assert abs(dom.curvature(1.3) - 1.0 / r) < 1e-14
            assert abs(dom.kappa_min - 1.0 / r) < 1e-12

    def test_ellipse_perimeter_oracle(self):
        a, b = 1.5, 1.0
        dom = ConvexDomain.ellipse(a, b)
        expected = 4.0 * a * ellipe(1.0 - (b / a) ** 2)
        assert abs(dom.perimeter - expected) < 1e-10

    def test_ellipse_curvature_endpoints(self):
        a, b = 1.5, 1.0
        dom = ConvexDomain.ellipse(a, b)
        # s = 0 is the point (a, 0); a quarter perimeter later is (0, b)
        assert abs(dom.curvature(0.0) - a / b ** 2) < 1e-12
        assert abs(dom.curvature(0.25 * dom.perimeter) - b / a ** 2) < 1e-10
        assert np.allclose(dom.position(0.25 * dom.perimeter), [0.0, b], atol=1e-10)

    def test_arclength_parametrization(self):
        # |gamma'| = 1: central difference of position against the unit tangent
        h = 1e-5
        for dom in (ConvexDomain.disk(1.3), ConvexDomain.ellipse(1.5, 1.0), wavy_domain()):
            for s in np.linspace(0.1, dom.perimeter, 7):
                fd = (dom.position(s + h) - dom.position(s - h)) / (2 * h)
                assert np.allclose(fd, dom.tangent(s), atol=1e-9)
                assert abs(np.linalg.norm(dom.tangent(s)) - 1.0) < 1e-10

    def test_second_derivative_frenet(self):
        h = 1e-5
        for dom in (ConvexDomain.ellipse(1.5, 1.0), wavy_domain()):
            for s in (0.2, 1.7, 3.9):
                fd = (dom.tangent(s + h) - dom.tangent(s - h)) / (2 * h)
                assert np.allclose(fd, dom.second_derivative(s), atol=1e-6)

    def test_support_function_disk_matches(self):
        one = lambda p: np.ones_like(np.asarray(p, dtype=float))
        zero = lambda p: np.zeros_like(np.asarray(p, dtype=float))
        dom = ConvexDomain.from_support(one, zero, zero, name="unit")
        ref = ConvexDomain.disk(1.0)
        for s in (0.0, 1.1, 4.4):
            assert np.allclose(dom.position(s), ref.position(s), atol=1e-12)
        assert abs(dom.perimeter - 2 * math.pi) < 1e-12

    def test_support_function_wavy(self):
        dom = wavy_domain()
        assert abs(dom.kappa_min - 1.0 / 1.8) < 1e-6
        assert np.allclose(dom.position(dom.perimeter), dom.position(0.0), atol=1e-10)

    def test_nonconvex_support_rejected(self):
        with pytest.raises(ValueError, match="convex"):
            ConvexDomain.from_support(
                lambda p: 1.0 + 0.5 * np.cos(3 * p),
                lambda p: -1.5 * np.sin(3 * p),
                lambda p: -4.5 * np.cos(3 * p),
            )

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            ConvexDomain.disk(0.0)
        with pytest.raises(ValueError):
            ConvexDomain.ellipse(-1.0, 1.0)

    def test_vectorized_accessors(self):
        dom = ConvexDomain.ellipse(1.5, 1.0)
        s = np.array([0.1, 2.0, 5.5])
        assert dom.position(s).shape == (3, 2)
        assert dom.tangent(s).shape == (3, 2)
        assert dom.curvature(s).shape == (3,)
        assert np.allclose(dom.position(s)[1], dom.position(2.0))

    def test_array_accessors_stack_scalar_calls(self):
        # Each element of an array call is bit for bit its scalar call,
        # on an eccentric ellipse where the Newton inversion needs a
        # different number of steps from element to element.
        dom = ConvexDomain.ellipse(3.0, 1.0)
        s = np.random.default_rng(7).uniform(0.0, dom.perimeter, 600)
        for accessor in (dom.position, dom.tangent, dom.curvature):
            stacked = np.array([accessor(float(x)) for x in s])
            assert np.array_equal(accessor(s), stacked)

    def test_frame_is_position_and_tangent(self):
        # One chart inversion gives position and tangent bit for bit as
        # two inversions do: scalar and array s, inside and outside [0, L).
        for dom in (ConvexDomain.disk(1.3), ConvexDomain.ellipse(3.0, 1.0), wavy_domain()):
            L = dom.perimeter
            s = np.concatenate([np.random.default_rng(2).uniform(-2.0 * L, 3.0 * L, 200),
                                [0.0, -0.0, L, -L, 2.5 * L, -1e-300]])
            for arg in [float(x) for x in s[::20]] + [s[-6], s, s[::3]]:
                pos, tan = dom._frame(arg)
                assert np.array_equal(pos, dom.position(arg))
                assert np.array_equal(tan, dom.tangent(arg))
                assert np.shape(pos) == np.shape(dom.position(arg))

    def test_ray_and_second_derivative_keep_their_bits(self):
        # Each inverts s once; both equal their formulas built from the
        # separate accessors, bit for bit.
        for dom in (ConvexDomain.ellipse(1.5, 1.0), wavy_domain()):
            L = dom.perimeter
            for s, xi in ((0.3, 0.45), (-2.2, -0.7), (L + 0.9, 0.05), (3.0 * L, -0.99)):
                p0, d = dom.ray(PhasePoint(s, xi))
                s0 = s % L
                t0 = dom.tangent(s0)
                n0 = np.array([-t0[1], t0[0]])
                assert np.array_equal(p0, dom.position(s0))
                assert np.array_equal(d, xi * t0 + math.sqrt(1.0 - xi * xi) * n0)
            s = np.random.default_rng(4).uniform(-L, 2.0 * L, 50)
            expected = dom.curvature(s)[:, None] * dom.inward_normal(s)
            assert np.array_equal(dom.second_derivative(s), expected)
            assert np.array_equal(dom.second_derivative(float(s[0])), expected[0])

    @pytest.mark.parametrize("dom", [ConvexDomain.disk(), ConvexDomain.ellipse(1.5, 1.0),
                                     wavy_domain()], ids=lambda d: d.name)
    def test_second_derivative_is_curvature_times_normal(self, dom):
        # the Frenet relation gamma'' = kappa N, bit for bit, at a scalar
        # arclength and at an array of them
        for s in (1.3, np.linspace(-1.0, 2.0 * dom.perimeter, 23)):
            expected = np.asarray(dom.curvature(s))[..., None] * dom.inward_normal(s)
            got = dom.second_derivative(s)
            assert got.shape == expected.shape == np.shape(dom.position(s))
            assert got.tobytes() == expected.tobytes()

    def test_newton_rows_converging_apart_match_alone(self, monkeypatch):
        # On an eccentric ellipse the rows of one inversion leave the
        # Newton loop after different numbers of steps; each row still
        # equals its own one-element inversion.
        dom = ConvexDomain.ellipse(3.0, 1.0)
        s = np.random.default_rng(9).uniform(0.0, dom.perimeter, 300)
        sizes = []
        arc_and_speed = dom._arc_and_speed

        def recorded(theta):
            sizes.append(theta.size)
            return arc_and_speed(theta)

        monkeypatch.setattr(dom, "_arc_and_speed", recorded)
        batch = dom._theta_of_arc(s)
        assert sizes[0] == s.size and any(0 < n < s.size for n in sizes)
        alone = [dom._theta_of_arc(s[i:i + 1])[0] for i in range(s.size)]
        assert batch.tolist() == alone

    def test_row_dot_premise(self):
        # The arclength quadrature sums each row with a stacked matmul,
        # which must equal the one-row product that a scalar call makes
        # (a multi-row product may be summed in another order).
        A = np.random.default_rng(3).uniform(0.1, 5.0, (500, _GL_WEIGHTS.size))
        rows = np.matmul(A[:, None, :], _GL_WEIGHTS)[:, 0]
        single = np.array([(A[i:i + 1] @ _GL_WEIGHTS)[0] for i in range(len(A))])
        assert np.array_equal(rows, single)


class TestPhasePoint:
    def test_validation(self):
        with pytest.raises(ValueError):
            PhasePoint(0.0, 1.0)
        with pytest.raises(ValueError):
            PhasePoint(0.0, -1.0)
        with pytest.raises(ValueError):
            PhasePoint(math.nan, 0.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            PhasePoint(0.0, 0.5).xi = 0.2

    def test_orbit_segment_validation(self):
        q = PhasePoint(0.0, 0.0)
        with pytest.raises(ValueError):
            OrbitSegment((q, q), ())
        with pytest.raises(ValueError):
            OrbitSegment((q, q), (-1.0,))


class TestBilliardStep:
    def test_disk_diameter(self):
        q1, chord = billiard_step(ConvexDomain.disk(), PhasePoint(0.7, 0.0))
        assert abs(chord - 2.0) < 1e-12
        assert abs(sdiff(q1.s, 0.7 + math.pi, 2 * math.pi)) < 1e-12
        assert abs(q1.xi) < 1e-12

    def test_disk_chord_formula(self):
        q1, chord = billiard_step(ConvexDomain.disk(), PhasePoint(0.7, 0.6))
        assert abs(chord - 1.6) < 1e-12
        assert abs(q1.xi - 0.6) < 1e-12
        # scales with the radius
        q1, chord = billiard_step(ConvexDomain.disk(2.0), PhasePoint(0.7, 0.6))
        assert abs(chord - 3.2) < 1e-12

    def test_disk_angle_advance(self):
        # advance = 2 arccos(xi) in (0, 2 pi): xi > 0 advances by less
        # than pi, xi < 0 by more
        dom = ConvexDomain.disk()
        for xi in (-0.9, -0.5, -0.1, 0.2, 0.6, 0.95):
            q1, chord = billiard_step(dom, PhasePoint(1.1, xi))
            advance = (q1.s - 1.1) % (2 * math.pi)
            assert abs(advance - 2 * math.acos(xi)) < 1e-11
            assert abs(chord - 2 * math.sqrt(1 - xi * xi)) < 1e-12

    def test_ray_trace_oracle(self):
        rng = np.random.default_rng(42)
        cases = ((ConvexDomain.disk(), 1.0, 1.0), (ConvexDomain.ellipse(1.5, 1.0), 1.5, 1.0))
        for dom, a, b in cases:
            for _ in range(25):
                q = PhasePoint(rng.uniform(0, dom.perimeter), rng.uniform(-0.95, 0.95))
                p0, d = dom.ray(q)
                t = ellipse_ray_exit(a, b, (p0[0], p0[1]), (d[0], d[1]))
                q1, chord = billiard_step(dom, q)
                assert abs(chord - t) < 1e-10
                assert np.linalg.norm(dom.position(q1.s) - (p0 + t * d)) < 1e-9

    def test_generating_function_partials(self):
        # chord(u, v) = |gamma(v) - gamma(u)| generates the map:
        # d/du chord = -xi at the start, d/dv chord = +xi at the exit
        def dpartial(f, x, h=1e-3):
            d1 = (f(x + h) - f(x - h)) / (2 * h)
            d2 = (f(x + h / 2) - f(x - h / 2)) / h
            return (4 * d2 - d1) / 3

        for dom in (ConvexDomain.disk(), ConvexDomain.ellipse(1.5, 1.0)):
            for s, xi in ((0.3, 0.45), (2.2, -0.7), (4.0, 0.05)):
                q1, chord = billiard_step(dom, PhasePoint(s, xi))

                def chordfun(u, v):
                    return float(np.linalg.norm(dom.position(v) - dom.position(u)))

                assert abs(dpartial(lambda u: chordfun(u, q1.s), s) + xi) < 1e-8
                assert abs(dpartial(lambda v: chordfun(s, v), q1.s) - q1.xi) < 1e-8

    def test_reversibility(self):
        # xi -> -xi conjugates the map to its inverse
        for dom in (ConvexDomain.disk(), ConvexDomain.ellipse(1.5, 1.0), wavy_domain()):
            for s, xi in ((0.3, 0.45), (2.2, -0.7), (5.0, 0.9)):
                q = PhasePoint(s, xi)
                q1, c1 = billiard_step(dom, q)
                q2, c2 = billiard_step(dom, PhasePoint(q1.s, -q1.xi))
                assert abs(sdiff(q2.s, q.s, dom.perimeter)) < 1e-8
                assert abs(-q2.xi - q.xi) < 1e-8
                assert abs(c2 - c1) < 1e-8

    def test_jacobian_determinant(self):
        # area preservation in (s, xi): central-difference Jacobian at 50
        # random non-glancing points per domain
        rng = np.random.default_rng(7)
        for dom in (ConvexDomain.disk(), ConvexDomain.ellipse(1.5, 1.0)):
            L = dom.perimeter
            hs, hx = 1e-5 * L, 1e-5
            for _ in range(50):
                s, xi = rng.uniform(0, L), rng.uniform(-0.8, 0.8)
                qsp, _ = billiard_step(dom, PhasePoint(s + hs, xi))
                qsm, _ = billiard_step(dom, PhasePoint(s - hs, xi))
                qxp, _ = billiard_step(dom, PhasePoint(s, xi + hx))
                qxm, _ = billiard_step(dom, PhasePoint(s, xi - hx))
                det = (sdiff(qsp.s, qsm.s, L) / (2 * hs) * (qxp.xi - qxm.xi) / (2 * hx)
                       - (qsp.xi - qsm.xi) / (2 * hs) * sdiff(qxp.s, qxm.s, L) / (2 * hx))
                assert abs(det - 1.0) < 1e-6

    def test_glancing_guard(self):
        dom = ConvexDomain.disk()
        with pytest.raises(GlancingError):
            billiard_step(dom, PhasePoint(0.0, 1.0 - 5e-13))
        with pytest.raises(GlancingError):
            billiard_step(dom, PhasePoint(0.0, -(1.0 - 5e-13)))
        # just inside the cutoff is allowed
        billiard_step(dom, PhasePoint(0.0, 1.0 - 1e-9))


@st.composite
def domains(draw):
    """An ellipse with a in [1, 2], b = 1, or a support-function domain
    h = 1 + eps cos(m phi + phase), whose radius of curvature
    h + h'' = 1 - eps (m^2 - 1) cos(m phi + phase) stays >= 0.2."""
    if draw(st.booleans()):
        return ConvexDomain.ellipse(draw(st.floats(1.0, 2.0)), 1.0)
    m = draw(st.integers(2, 5))
    eps = draw(st.floats(0.0, 0.8 / (m * m - 1)))
    phase = draw(st.floats(0.0, 2.0 * math.pi))
    return ConvexDomain.from_support(
        lambda p: 1.0 + eps * np.cos(m * p + phase),
        lambda p: -m * eps * np.sin(m * p + phase),
        lambda p: -m * m * eps * np.cos(m * p + phase),
        name=f"support(m={m}, eps={eps!r}, phase={phase!r})",
    )


PHASE_POINTS = {
    "u": st.floats(0.0, 1.0, exclude_max=True),
    "xi": st.floats(-0.9, 0.9),
}


class TestMapProperties:
    """Reversibility and area preservation at random (s, xi), |xi| <= 0.9."""

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(dom=domains(), **PHASE_POINTS)
    def test_reversibility(self, dom, u, xi):
        q = PhasePoint(u * dom.perimeter, xi)
        q1, c1 = billiard_step(dom, q)
        q2, c2 = billiard_step(dom, PhasePoint(q1.s, -q1.xi))
        assert abs(sdiff(q2.s, q.s, dom.perimeter)) < 1e-8
        assert abs(-q2.xi - q.xi) < 1e-8
        assert abs(c2 - c1) < 1e-8

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(dom=domains(), **PHASE_POINTS)
    def test_jacobian_determinant(self, dom, u, xi):
        # Central differences with step 1e-6: the truncation error grows
        # like h^2 and reaches 5e-5 at h = 1e-5 L on the a = 2 ellipse's
        # hyperbolic diameter (u = xi = 0), while roundoff stays ~1e-8.
        L = dom.perimeter
        s = u * L
        hs = hx = 1e-6
        qsp, _ = billiard_step(dom, PhasePoint(s + hs, xi))
        qsm, _ = billiard_step(dom, PhasePoint(s - hs, xi))
        qxp, _ = billiard_step(dom, PhasePoint(s, xi + hx))
        qxm, _ = billiard_step(dom, PhasePoint(s, xi - hx))
        det = (sdiff(qsp.s, qsm.s, L) / (2 * hs) * (qxp.xi - qxm.xi) / (2 * hx)
               - (qsp.xi - qsm.xi) / (2 * hs) * sdiff(qxp.s, qxm.s, L) / (2 * hx))
        assert abs(det - 1.0) < 1e-6


class TestOrbit:
    def test_period_two_diameter(self):
        seg = orbit(ConvexDomain.disk(), PhasePoint(0.25, 0.0), 2)
        assert abs(sdiff(seg.points[2].s, 0.25, 2 * math.pi)) < 1e-11
        assert abs(seg.points[2].xi) < 1e-12
        assert all(abs(c - 2.0) < 1e-12 for c in seg.chords)

    def test_period_three_triangle(self):
        # arccos(xi) = pi/3 closes up an inscribed equilateral triangle
        seg = orbit(ConvexDomain.disk(), PhasePoint(0.25, 0.5), 3)
        assert abs(sdiff(seg.points[3].s, 0.25, 2 * math.pi)) < 1e-10
        assert all(abs(c - math.sqrt(3)) < 1e-12 for c in seg.chords)

    def test_ellipse_first_integral(self):
        # xi itself is not conserved off the disk, but the product of
        # angular momenta about the foci is
        dom = ConvexDomain.ellipse(1.5, 1.0)
        for s, xi in ((0.3, 0.45), (2.2, -0.7), (5.0, 0.85)):
            seg = orbit(dom, PhasePoint(s, xi), 25)
            xis = [p.xi for p in seg.points]
            assert max(xis) - min(xis) > 1e-3
            prods = []
            for qq in seg.points[:-1]:
                p, d = dom.ray(qq)
                prods.append(foci_momentum_product(1.5, 1.0, (p[0], p[1]), (d[0], d[1])))
            assert max(prods) - min(prods) < 1e-8

    def test_mean_chord_disk(self):
        assert abs(mean_chord(orbit(ConvexDomain.disk(), PhasePoint(0.0, 0.0), 4)) - 2.0) < 1e-12
        assert abs(mean_chord(orbit(ConvexDomain.disk(), PhasePoint(0.1, 0.6), 7)) - 1.6) < 1e-12

    def test_mean_chord_bounds(self):
        seg = orbit(ConvexDomain.ellipse(1.5, 1.0), PhasePoint(0.3, 0.45), 12)
        assert min(seg.chords) <= mean_chord(seg) <= max(seg.chords)

    def test_length_counts_steps(self):
        seg = orbit(ConvexDomain.disk(), PhasePoint(0.0, 0.3), 4)
        assert len(seg) == 4 and len(seg.points) == 5

    def test_mean_chord_of_one_point_refused(self):
        with pytest.raises(ValueError, match="no chords"):
            mean_chord(OrbitSegment((PhasePoint(0.0, 0.3),), ()))

    def test_orbit_validation(self):
        dom = ConvexDomain.disk()
        with pytest.raises(ValueError):
            orbit(dom, PhasePoint(0.0, 0.0), 0)
        with pytest.raises(ValueError):
            orbit(dom, PhasePoint(0.0, 0.0), 2.5)

    def test_orbit_determinism(self):
        dom = ConvexDomain.ellipse(1.5, 1.0)
        a = orbit(dom, PhasePoint(0.3, 0.45), 9)
        b = orbit(dom, PhasePoint(0.3, 0.45), 9)
        assert a.points == b.points
        assert a.chords == b.chords


def crossing_rows(dom, s, xi):
    """Exit-point crossing functions of billiard_step, scalar and batched."""
    qs = [PhasePoint(float(a), float(b)) for a, b in zip(s, xi)]
    rays = [dom.ray(q) for q in qs]
    p0 = np.array([r[0] for r in rays])
    d = np.array([r[1] for r in rays])

    def scalar(i):
        def f(x):
            r = dom.position(x) - p0[i]
            return d[i, 0] * r[1] - d[i, 1] * r[0]
        return f

    def batch(x, rows):
        r = dom.position(x) - p0[rows]
        return d[rows, 0] * r[:, 1] - d[rows, 1] * r[:, 0]

    L = dom.perimeter
    s0 = np.mod(s, L)
    return scalar, batch, s0 + 1e-9 * L, s0 + (1.0 - 1e-9) * L


class TestLockstepMap:
    DOMAINS = (ConvexDomain.disk(), ConvexDomain.ellipse(1.5, 1.0), wavy_domain())
    TOL = dict(xtol=1e-13, rtol=4.0 * np.finfo(float).eps)

    def test_brentq_rows_matches_scipy(self):
        rng = np.random.default_rng(11)
        for dom in self.DOMAINS:
            s = rng.uniform(0.0, dom.perimeter, 40)
            xi = rng.uniform(-0.999, 0.999, 40)
            scalar, batch, lo, hi = crossing_rows(dom, s, xi)
            roots = _brentq_rows(batch, lo, hi)
            expected = [brentq(scalar(i), lo[i], hi[i], **self.TOL) for i in range(40)]
            assert np.array_equal(roots, expected)

    def test_brentq_rows_exact_endpoint_zeros(self):
        # Rows whose function vanishes exactly at a or at b return that
        # end, as brentq does, while the other rows iterate.
        a = np.array([0.0, -1.0, 0.5, -2.0])
        b = np.array([2.0, 3.0, 1.5, 4.0])
        c = np.array([0.0, 3.0, 0.7, 1.0 / 3.0])
        roots = _brentq_rows(lambda x, rows: x ** 3 - c[rows] ** 3, a, b)
        expected = [brentq(lambda x, ci=ci: x ** 3 - ci ** 3, ai, bi, **self.TOL)
                    for ai, bi, ci in zip(a, b, c)]
        assert np.array_equal(roots, expected)
        assert roots[0] == 0.0 and roots[1] == 3.0
        # A batch in which every row ends at a bracket end, and one row.
        roots = _brentq_rows(lambda x, rows: x ** 3 - c[rows] ** 3, a[:2], b[:2])
        assert np.array_equal(roots, expected[:2])
        assert _brentq_rows(lambda x, rows: x, [0.0], [1.0])[0] == brentq(lambda x: x, 0.0, 1.0)
        root = _brentq_rows(lambda x, rows: x ** 3 - c[2] ** 3, [0.5], [1.5])
        assert root[0] == expected[2]

    def test_brentq_rows_rejects_bad_brackets(self):
        with pytest.raises(ValueError):
            brentq(lambda x: x * x + 1.0, -1.0, 1.0)
        with pytest.raises(ValueError):
            _brentq_rows(lambda x, rows: x - 5.0, [-1.0, 0.0], [1.0, 10.0])
        with pytest.raises(ValueError):
            _brentq_rows(lambda x, rows: np.full(x.shape, np.nan), [0.0], [1.0])

    def test_brentq_rows_iteration_cap(self, monkeypatch):
        # The port runs out of iterations exactly when brentq does.
        outcomes = []
        for maxiter in range(1, 12):
            monkeypatch.setattr(billiards, "_MAXITER", maxiter)
            try:
                expected = brentq(lambda x: np.exp(x) - 2.0, 0.0, 3.0,
                                  maxiter=maxiter, **self.TOL)
            except RuntimeError:
                with pytest.raises(RuntimeError):
                    _brentq_rows(lambda x, rows: np.exp(x) - 2.0, [0.0], [3.0])
                outcomes.append(False)
                continue
            root = _brentq_rows(lambda x, rows: np.exp(x) - 2.0, [0.0], [3.0])
            assert root[0] == expected
            outcomes.append(True)
        assert not outcomes[0] and outcomes[-1]

    def test_rows_equal_billiard_step(self):
        rng = np.random.default_rng(5)
        for dom in self.DOMAINS:
            n = 60
            s = rng.uniform(-dom.perimeter, 2.0 * dom.perimeter, n)
            xi = rng.uniform(-0.99, 0.99, n)
            xi[:5] = 1.0 - 10.0 ** rng.uniform(-11.5, -4, 5)
            xi[5:8] = (-1.0, 1.0 - 0.5 * GLANCING_MARGIN, math.nan)
            s1, xi1, chord = _billiard_steps(dom, s, xi)
            for i in range(n):
                if not abs(xi[i]) < 1.0 - GLANCING_MARGIN:
                    assert math.isnan(s1[i]) and math.isnan(xi1[i]) and math.isnan(chord[i])
                    continue
                q1, c1 = billiard_step(dom, PhasePoint(float(s[i]), float(xi[i])))
                assert (s1[i], xi1[i], chord[i]) == (q1.s, q1.xi, c1)

    def test_all_rows_glancing(self):
        s1, xi1, chord = _billiard_steps(ConvexDomain.disk(), [0.0, 1.0], [1.0, -1.0])
        assert np.isnan(s1).all() and np.isnan(xi1).all() and np.isnan(chord).all()

    def test_orbit_is_its_row_of_a_batch(self):
        # orbit is the one-row case of _orbits: from each start it gives
        # that start's row of one lockstep batch, and the points and
        # chords of a billiard_step loop, bit for bit.
        rng = np.random.default_rng(17)
        rows, n = 8, 7
        for dom in self.DOMAINS:
            s = rng.uniform(-dom.perimeter, 2.0 * dom.perimeter, rows)
            xi = rng.uniform(-0.97, 0.97, rows)
            batch_s, batch_xi, batch_chords = _orbits(dom, s, xi, n)
            for i in range(rows):
                q = PhasePoint(float(s[i]), float(xi[i]))
                seg = orbit(dom, q, n)
                points, chords = [q], []
                for _ in range(n):
                    q, chord = billiard_step(dom, q)
                    points.append(q)
                    chords.append(chord)
                assert seg.points == tuple(points) and seg.chords == tuple(chords)
                assert [(p.s, p.xi) for p in seg.points[1:]] == list(
                    zip(batch_s[i].tolist(), batch_xi[i].tolist()))
                assert list(seg.chords) == batch_chords[i].tolist()

    # Every point and chord of 8-step orbits from a 4 x 33 (s, xi) grid,
    # footpoint-major with |xi| up to 1 - 1e-6, on each domain, bit for
    # bit: one sha256 over repr of the three (rows, 8) arrays as lists.
    ORBITS_PINNED = "ead569806e0401bbd5a03c2bdfbc2d4c9f64cb40f2c3e9c0fe07b71bf8fc45f0"
    # repr of the (lower, upper) Sabine band of TransparentObstacle(2, 1)
    # on the disk and on the 1.5 x 1 ellipse, as the benchmark runs them.
    BANDS_PINNED = (
        ("-1.1547004100640297", "-1.0986122886681098"),
        ("-1.73178891874475", "-0.5133746635319174"),
    )

    def test_orbits_are_pinned(self):
        digest = hashlib.sha256()
        for dom in self.DOMAINS:
            s = np.repeat(np.linspace(0.0, dom.perimeter, 4, endpoint=False), 33)
            xi = np.tile(np.linspace(-1.0 + 1e-6, 1.0 - 1e-6, 33), 4)
            digest.update(repr([a.tolist() for a in _orbits(dom, s, xi, 8)]).encode())
        assert digest.hexdigest() == self.ORBITS_PINNED

    def test_band_endpoints_are_pinned(self):
        model = TransparentObstacle(2.0, 1.0)
        bands = [sabine_bounds(dom, model) for dom in self.DOMAINS[:2]]
        assert tuple((repr(b.lower), repr(b.upper)) for b in bands) == self.BANDS_PINNED

    def test_orbits_reject_the_first_bad_point(self, monkeypatch):
        # A computed point that is no PhasePoint raises the error that
        # building PhasePoints row by row raises first; glancing rows
        # (NaN chord) are not built.
        cases = [
            ([0.1, math.nan, 0.3], [0.2, 0.5, 1.5], [1.0, 1.0, 1.0]),
            ([0.1, 0.2, math.inf], [0.2, -1.0, 0.5], [1.0, 1.0, 1.0]),
            ([math.nan, 0.2, 0.3], [math.nan, 1.25, 0.5], [math.nan, 1.0, 1.0]),
            ([0.1, 0.2, 0.3], [0.2, 0.5, math.nan], [1.0, 1.0, 1.0]),
        ]
        for s, xi, chord in cases:
            with pytest.raises(ValueError) as expected:
                for i in range(3):
                    if not math.isnan(chord[i]):
                        PhasePoint(s[i], xi[i])
            monkeypatch.setattr(billiards, "_billiard_steps",
                                lambda dom, *_, out=(s, xi, chord): tuple(map(np.array, out)))
            with pytest.raises(ValueError) as got:
                _orbits(ConvexDomain.disk(), [0.0] * 3, [0.0] * 3, 2)
            assert str(got.value) == str(expected.value)

    def test_orbits_carry_the_exit_frame(self):
        # _orbits starts each step from the exit frame the step before
        # left; chained one-step calls invert the chart at every start.
        # Eight steps agree bit for bit, also on rows a few ulps below the
        # guard, some of which meet it mid-orbit, and on a NaN start.
        top = 1.0 - GLANCING_MARGIN
        near = [top - k * 2.0 ** -53 for k in range(1, 9)]
        xi_set = near + [-x for x in near] + [0.0, 0.3, -0.7, 0.99, top, math.nan]
        for dom in self.DOMAINS:
            s = np.repeat(np.linspace(0.0, dom.perimeter, 4, endpoint=False), len(xi_set))
            xi = np.tile(xi_set, 4)
            got = _orbits(dom, s, xi, 8)
            steps = []
            for _ in range(8):
                s, xi, chord = _billiard_steps(dom, s, xi)
                steps.append((s, xi, chord))
            expected = [np.stack(column, axis=1) for column in zip(*steps)]
            assert repr([a.tolist() for a in got]) == repr([a.tolist() for a in expected])
            chords = got[2]
            assert (np.isnan(chords[:, -1]) & ~np.isnan(chords[:, 0])).any()
            assert np.isnan(chords[:, 0]).sum() == 8  # two per footpoint

    def test_orbit_rows_at_the_glancing_guard(self):
        dom = ConvexDomain.disk()
        xi = [0.3, 1.0 - 0.5 * GLANCING_MARGIN, -0.6]
        s, xi1, chords = _orbits(dom, [0.0, 1.0, 2.0], xi, 3)
        assert np.isnan(s[1]).all() and np.isnan(xi1[1]).all() and np.isnan(chords[1]).all()
        assert np.isfinite(chords[[0, 2]]).all()
        with pytest.raises(GlancingError):
            orbit(dom, PhasePoint(1.0, xi[1]), 3)


class TestGlancingExpansion:
    def test_disk_exact(self):
        # on the disk both remainders vanish: xi is exactly conserved and
        # chord = 2 sqrt(1 - xi**2) exactly
        dom = ConvexDomain.disk()
        qs = [PhasePoint(0.37 * dom.perimeter, 1.0 - e) for e in np.logspace(-1, -4, 10)]
        rep = glancing_expansion_check(dom, qs)
        assert rep.normal_defect.max() < 1e-12
        assert rep.chord_defect.max() < 1e-12

    def test_ellipse_exponents(self):
        dom = ConvexDomain.ellipse(1.2, 1.0)
        qs = [PhasePoint(0.37 * dom.perimeter, 1.0 - e) for e in np.logspace(-1, -4, 10)]
        rep = glancing_expansion_check(dom, qs)
        assert rep.normal_exponent >= 0.9
        assert rep.chord_exponent >= 0.9
        # remainder ratios defect / eps stay bounded
        assert (rep.normal_defect / rep.eps).max() < 10.0
        assert (rep.chord_defect / rep.eps).max() < 10.0

    def test_arrays_match_stepping_each_point(self):
        # The check steps its points as one batch; recomputing each
        # defect from billiard_step gives the same arrays bit for bit.
        for dom in (ConvexDomain.ellipse(1.2, 1.0), wavy_domain()):
            qs = [PhasePoint(0.37 * dom.perimeter + 0.9 * k, (-1) ** k * (1.0 - e))
                  for k, e in enumerate(np.logspace(-1, -6, 12))]
            rep = glancing_expansion_check(dom, qs)
            eps, ndef, cdef = [], [], []
            for q in qs:
                q1, chord = billiard_step(dom, q)
                e = 1.0 - q.xi * q.xi
                nu0 = math.sqrt(e)
                kap = float(dom.curvature(q.s % dom.perimeter))
                eps.append(e)
                ndef.append(abs(math.sqrt(1.0 - q1.xi * q1.xi) - nu0))
                cdef.append(abs(chord - 2.0 * nu0 / kap))
            assert rep.eps.tolist() == eps
            assert rep.normal_defect.tolist() == ndef
            assert rep.chord_defect.tolist() == cdef

    def test_empty_sequence_rejected(self):
        with pytest.raises(ValueError):
            glancing_expansion_check(ConvexDomain.disk(), [])

    def test_glancing_point_rejected(self):
        qs = [PhasePoint(0.0, 0.5), PhasePoint(0.0, 1.0 - 0.5 * GLANCING_MARGIN)]
        with pytest.raises(GlancingError):
            glancing_expansion_check(ConvexDomain.disk(), qs)

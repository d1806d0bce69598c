"""Sabine band tests.

Independent routes used here:
  * closed-form one-bounce quotients on the unit disk
    (oracles.transparent_quotient, oracles.damping_quotient) on dense
    grids against the orbit-based band extremizer
  * normal-incidence anchors (c/2) log|(1 - alpha c)/(1 + alpha c)|
  * sabine_quotient of one disk orbit per tangent frequency against the
    batched one-bounce decay law, bit for bit
  * the glancing limit against Richardson extrapolation of the quotient
    at xi = 1 - 10^{-k}
  * the near-glancing band identity h^{2/3} Im z / ImPhi = B and the
    closed-form slopes in h
  * the benchmark's recorded band endpoints (perfbench/references.json),
    matched exactly, and the endpoints of disk, ellipse and support-
    function domains under four models, recorded once and matched exactly
  * a level-by-level reference that steps each grid level in its own
    batch, against sabine_bounds, which steps levels 0 and 1 together
"""

import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

from qsabine import sabine
from qsabine.billiards import GLANCING_MARGIN, ConvexDomain, GlancingError, PhasePoint
from qsabine.reflectivity import (
    BREWSTER_WINDOW,
    TOTAL_TRANSMISSION,
    BoundaryDamping,
    DeltaPotential,
    TransparentObstacle,
)
from qsabine.sabine import (
    GlancingBand,
    SabineBand,
    band_report,
    glancing_bands,
    glancing_limit,
    one_bounce_quotients,
    sabine_bounds,
    sabine_quotient,
)
from qsabine.specfun import airy_zeros

from oracles import damping_quotient, transparent_quotient
from test_billiards import wavy_domain

DISK = ConvexDomain.disk()
TE_FAST = TransparentObstacle(2.0, 1.0)
TM_FAST = TransparentObstacle(2.0, 0.4)
TE_SLOW = TransparentObstacle(0.5, 1.0)
TM_SLOW = TransparentObstacle(0.5, 4.0)
CBRT2 = 2.0 ** (1.0 / 3.0)


def normal_anchor(c, alpha):
    return (c / 2.0) * math.log(abs((1.0 - alpha * c) / (1.0 + alpha * c)))


def level_by_level(domain, model, n_max, xi_points):
    """(lower, upper, refinements) of sabine_bounds with one
    _prefix_quotients call per grid level, for the points no coarser
    level had."""
    collar = model.collar
    zeros = model.zeros()
    fiat_lower = any(z <= 1.0 - collar for z in zeros)
    seen = {}
    lower = upper = math.nan
    for level in range(sabine._MAX_REFINE + 1):
        full = np.linspace(0.0, 1.0 - collar, (xi_points - 1) * 2**level + 1)
        xi = [x for x in full.tolist() if all(abs(x - z) >= BREWSTER_WINDOW for z in zeros)]
        s = np.linspace(0.0, domain.perimeter, sabine._S_POINTS * 2**level, endpoint=False)
        keys = [(a, b) for a in s.tolist() for b in xi]
        new = [key for key in keys if key not in seen]
        seen.update(zip(new, sabine._prefix_quotients(domain, model, *np.array(new).T, n_max)))
        infs, sups = sabine._reduce_columns(np.array([seen[key] for key in keys]))
        prev_lower, prev_upper = lower, upper
        lower = -math.inf if fiat_lower else float(np.max(infs))
        upper = float(np.min(sups))
        if level and sabine._endpoints_close(lower, prev_lower, sabine._TOL) \
                and sabine._endpoints_close(upper, prev_upper, sabine._TOL):
            return lower, upper, level
    raise RuntimeError("no convergence")


class TestSabineQuotient:
    def test_normal_incidence_anchor(self):
        # Diameter orbit: every bounce sees xi = 0 and chord 2, so the
        # quotient equals (c/2) log|(1 - alpha c)/(1 + alpha c)| exactly.
        for model in (TE_FAST, TM_FAST, TE_SLOW, TM_SLOW):
            anchor = normal_anchor(model.c, model.alpha)
            for n in (1, 2, 5):
                q = sabine_quotient(DISK, model, PhasePoint(0.0, 0.0), n)
                assert q == pytest.approx(anchor, abs=1e-12)

    def test_te_fast_value_is_minus_log_3(self):
        q = sabine_quotient(DISK, TE_FAST, PhasePoint(0.0, 0.0), 1)
        assert q == pytest.approx(-math.log(3.0), abs=1e-13)

    def test_disk_quotient_independent_of_n_and_footpoint(self):
        vals = [
            sabine_quotient(DISK, TE_FAST, PhasePoint(s, 0.37), n)
            for n in (1, 3, 7)
            for s in (0.0, 1.1, 4.0)
        ]
        assert max(vals) - min(vals) < 1e-12

    def test_matches_closed_form_off_normal(self):
        for xi in (0.15, 0.5, 0.85):
            q = sabine_quotient(DISK, TE_FAST, PhasePoint(2.0, xi), 4)
            assert q == pytest.approx(transparent_quotient(2.0, 1.0, xi), abs=1e-11)

    def test_damping_diameter_value(self):
        q = sabine_quotient(DISK, BoundaryDamping(2.0), PhasePoint(0.0, 0.0), 1)
        assert q == pytest.approx(-math.log(3.0) / 2.0, abs=1e-13)
        assert BoundaryDamping(2.0).c == 1.0

    def test_total_internal_reflection_orbit_has_zero_quotient(self):
        # xi = 0.9 > c = 0.5 on every bounce of the disk orbit.
        q = sabine_quotient(DISK, TE_SLOW, PhasePoint(0.3, 0.9), 5)
        assert abs(q) < 1e-12

    def test_matched_damping_signals_total_transmission(self):
        q = sabine_quotient(DISK, BoundaryDamping(1.0), PhasePoint(0.0, 0.0), 3)
        assert q == TOTAL_TRANSMISSION

    def test_rejects_nonpositive_step_count(self):
        with pytest.raises(ValueError, match="positive"):
            sabine_quotient(DISK, TE_FAST, PhasePoint(0.0, 0.0), 0)
        with pytest.raises(ValueError, match="integer"):
            sabine_quotient(DISK, TE_FAST, PhasePoint(0.0, 0.0), 2.5)

    @pytest.mark.parametrize("xi", [1.0 - GLANCING_MARGIN, -(1.0 - GLANCING_MARGIN)])
    def test_glancing_start_refused(self, xi):
        with pytest.raises(GlancingError, match="glancing guard"):
            sabine_quotient(DISK, TE_FAST, PhasePoint(0.0, xi), 1)


class TestOneBounceQuotients:
    @pytest.mark.parametrize("model", [TE_FAST, TM_FAST, TransparentObstacle(0.5, 1.3),
                                       BoundaryDamping(2.0)], ids=repr)
    def test_matches_sabine_quotient(self, model):
        # The decay law at tangent frequency tf is the one-bounce quotient
        # of the disk orbit from xi = c tf, bit for bit, and NaN where xi
        # reaches the glancing guard.
        c = model.c
        tf = np.linspace(0.0, 1.0 / c, 200)
        tf[-3:-1] = (1.0 - 2.0 * GLANCING_MARGIN) / c, (1.0 - 0.5 * GLANCING_MARGIN) / c
        got = one_bounce_quotients(model, tf)
        assert got.shape == tf.shape
        for t, q in zip(tf.tolist(), got.tolist()):
            xi = c * t
            if abs(xi) < 1.0 - GLANCING_MARGIN:
                assert q == sabine_quotient(DISK, model, PhasePoint(0.0, xi), 1)
            else:
                assert math.isnan(q)
        assert np.isnan(got[-2:]).all() and not np.isnan(got[:-2]).any()


@pytest.mark.parametrize("call", [
    lambda m: sabine_bounds(DISK, m),
    lambda m: one_bounce_quotients(m, np.array([0.1, 0.2])),
    lambda m: sabine_quotient(DISK, m, PhasePoint(0.0, 0.3), 2),
    lambda m: glancing_limit(DISK, m, 0.0),
], ids=["sabine_bounds", "one_bounce_quotients", "sabine_quotient", "glancing_limit"])
def test_non_law_refused(call):
    with pytest.raises(TypeError, match="not a reflectivity model"):
        call(object())


class TestSabineBounds:
    def test_te_fast_band_matches_dense_oracle(self):
        band = sabine_bounds(DISK, TE_FAST, n_max=3)
        grid = np.linspace(0.0, 1.0 - band.collar, 10001)
        curve = np.array([transparent_quotient(2.0, 1.0, x) for x in grid])
        assert band.upper == pytest.approx(float(curve.max()), abs=1e-9)
        assert band.lower == pytest.approx(float(curve.min()), abs=1e-9)
        # Monotone curve: sup at normal incidence, inf at the collar edge.
        assert band.upper == pytest.approx(-math.log(3.0), abs=1e-12)
        assert band.lower == pytest.approx(-1.1547004101, abs=1e-8)
        assert not band.brewster_excluded
        assert band.lower <= band.upper <= 0.0

    def test_tm_fast_band_excises_brewster(self):
        band = sabine_bounds(DISK, TM_FAST, n_max=3)
        assert band.brewster_excluded
        assert math.isinf(band.lower) and band.lower < 0
        # Sup over the excised grid is still attained at normal incidence.
        assert band.upper == pytest.approx(-2.0 * math.log(3.0), abs=1e-12)

    def test_damping_band(self):
        band = sabine_bounds(DISK, BoundaryDamping(2.0), n_max=3)
        assert band.lower == pytest.approx(-math.log(3.0) / 2.0, abs=1e-12)
        # The quotient climbs to -1/a at glancing; the collar stops 1e-6 short.
        assert band.upper == pytest.approx(-0.5, abs=1e-5)
        assert not band.brewster_excluded

    def test_slow_obstacle_band_upper_collapses_to_zero(self):
        band = sabine_bounds(DISK, TE_SLOW, n_max=3)
        assert abs(band.upper) < 1e-12
        assert band.lower == pytest.approx(normal_anchor(0.5, 1.0), abs=1e-9)
        assert not band.brewster_excluded

    def test_slow_tm_band(self):
        band = sabine_bounds(DISK, TM_SLOW, n_max=3)
        assert band.brewster_excluded and math.isinf(band.lower)
        assert abs(band.upper) < 1e-12

    def test_matched_damping_band(self):
        band = sabine_bounds(DISK, BoundaryDamping(1.0), n_max=2)
        assert band.brewster_excluded and math.isinf(band.lower)
        assert -1.01 < band.upper < -0.999

    def test_ellipse_band_tracks_curvature_extremes(self):
        # On an ellipse the band endpoints sit at the glancing limits of
        # the curvature extremes, kappa in [b/a^2, a/b^2].
        ell = ConvexDomain.ellipse(1.2, 1.0)
        band = sabine_bounds(ell, TE_FAST, n_max=2, xi_points=17)
        lim = -2.0 / math.sqrt(3.0)
        assert band.lower == pytest.approx(lim * 1.2, abs=1e-3)
        assert band.upper == pytest.approx(lim / 1.44, abs=1e-3)

    def test_benchmark_endpoints_exact(self):
        # The bands workload's endpoints sit at the glancing edge of the
        # grid, where one ulp of an exit point moves them by ~1e-11; pin
        # every bit here so a drift shows in the tests, not only in the
        # benchmark's 1e-12 reference check.
        refs = json.loads(
            (Path(__file__).resolve().parents[1] / "perfbench" / "references.json").read_text()
        )["bands"]
        for name, domain in (("disk", DISK), ("ellipse", ConvexDomain.ellipse(1.5, 1.0))):
            band = sabine_bounds(domain, TE_FAST)
            assert (band.lower, band.upper) == (refs[name]["lower"], refs[name]["upper"])

    # A band's endpoints are the extremes sampled on the grid that
    # stabilized; every bit is pinned on three domains and four models,
    # default settings.  On the slow obstacles the sup is the total-
    # internal-reflection plateau 0.0, which no sample exceeds.
    @pytest.mark.parametrize("domain, model, lower, upper", [
        (DISK, TM_FAST, -math.inf, -2.1972245773362196),
        (DISK, TransparentObstacle(0.5, 1.3), -0.3876493531027917, 0.0),
        (DISK, TE_SLOW, -0.27465307216702745, 0.0),
        (DISK, BoundaryDamping(2.0), -0.5493061443340549, -0.5000000833106609),
        (DISK, BoundaryDamping(0.5), -math.inf, -0.5493061443340549),
        (DISK, DeltaPotential(1.0, 5.0 / 6.0, 0.004), -0.908929032425253,
         -0.8164247854237713),
        (ConvexDomain.ellipse(1.5, 1.0), TE_SLOW, -0.27465307216702745, 0.0),
        (ConvexDomain.ellipse(1.5, 1.0), BoundaryDamping(2.0), -0.7498868070908591,
         -0.2222978119040773),
        (wavy_domain(), TE_SLOW, -0.27465307216702745, 0.0),
    ], ids=["disk-tm-fast", "disk-slow-1.3", "disk-slow-1.0", "disk-damping-2",
            "disk-damping-0.5", "disk-delta", "ellipse-slow", "ellipse-damping",
            "wavy-slow"])
    def test_recorded_endpoints_exact(self, domain, model, lower, upper):
        band = sabine_bounds(domain, model)
        assert (band.lower, band.upper) == (lower, upper)

    def test_levels_0_and_1_are_one_batch(self, monkeypatch):
        # The benchmark's bands converge at level 1: one batch of the 65 x 8
        # level-1 points serves both levels.
        batches = []
        real = sabine._prefix_quotients

        def counting(domain, model, s, xi, n_max):
            batches.append(len(s))
            return real(domain, model, s, xi, n_max)

        monkeypatch.setattr(sabine, "_prefix_quotients", counting)
        for domain in (DISK, ConvexDomain.ellipse(1.5, 1.0)):
            batches.clear()
            band = sabine_bounds(domain, TE_FAST)
            assert band.refinements == 1 and batches == [65 * 8]

    @pytest.mark.parametrize("domain, model, n_max, xi_points, tol, refinements", [
        (DISK, TE_FAST, 2, 3, 5e-11, 2),
        (DISK, BoundaryDamping(lambda s: 1.5 + math.sin(s)), 2, 3, 1e-3, 3),
        (wavy_domain(), DeltaPotential(1.0, 0.5, 0.3), 2, 3, 0.018, 3),
        (wavy_domain(), DeltaPotential(1.0, 0.5, 0.3), 2, 3, 0.015, 4),
    ], ids=["disk-te-fast", "disk-damping-profile", "wavy-delta-3", "wavy-delta-4"])
    def test_finer_levels_match_a_level_by_level_reference(
            self, monkeypatch, domain, model, n_max, xi_points, tol, refinements):
        monkeypatch.setattr(sabine, "_TOL", tol)
        band = sabine_bounds(domain, model, n_max=n_max, xi_points=xi_points)
        expected = level_by_level(domain, model, n_max, xi_points)
        assert (band.lower, band.upper, band.refinements) == expected
        assert band.refinements == refinements

    @pytest.mark.parametrize("level_0, error, message", [
        ("glancing", RuntimeError, "every phase-space sample hit the glancing guard"),
        ("fine", ValueError, "a level-1 row fails"),
    ])
    def test_level_0_errors_come_first(self, monkeypatch, level_0, error, message):
        # A failing level-1 row does not preempt level 0's all-glancing
        # error, and still fails the band once level 0 has passed.
        real = sabine._prefix_quotients
        s_0 = np.linspace(0.0, DISK.perimeter, 4, endpoint=False)
        xi_0 = np.linspace(0.0, 1.0 - 1e-6, 3)

        def failing(domain, model, s, xi, n_max):
            if not (np.isin(s, s_0).all() and np.isin(xi, xi_0).all()):
                raise ValueError("a level-1 row fails")
            out = real(domain, model, s, xi, n_max)
            return np.full_like(out, np.nan) if level_0 == "glancing" else out

        monkeypatch.setattr(sabine, "_prefix_quotients", failing)
        with pytest.raises(error, match=message):
            sabine_bounds(DISK, TE_FAST, n_max=2, xi_points=3)

    def test_unstable_band_refused(self, monkeypatch):
        # with no grid doubling allowed, no level can confirm level 0
        monkeypatch.setattr(sabine, "_MAX_REFINE", 0)
        with pytest.raises(RuntimeError, match="did not stabilize"):
            sabine_bounds(DISK, TE_FAST, n_max=2, xi_points=9)

    def test_excision_of_the_whole_grid_refused(self, monkeypatch):
        # a = 0.5 has its zero at xi = sqrt(0.75); a window of half-width
        # 2 leaves no point of [0, 1 - collar]
        monkeypatch.setattr(sabine, "BREWSTER_WINDOW", 2.0)
        with pytest.raises(ValueError, match="covers the whole xi grid"):
            sabine_bounds(DISK, BoundaryDamping(0.5), n_max=2, xi_points=9)

    def test_determinism(self):
        a = sabine_bounds(DISK, TE_FAST, n_max=2, xi_points=17)
        b = sabine_bounds(DISK, TE_FAST, n_max=2, xi_points=17)
        assert a == b

    def test_degenerate_delta_rejected(self):
        with pytest.raises(ValueError, match="vanishes"):
            sabine_bounds(DISK, DeltaPotential(0.0), n_max=2)

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="positive"):
            sabine_bounds(DISK, TE_FAST, n_max=0)
        with pytest.raises(ValueError, match="grid"):
            sabine_bounds(DISK, TE_FAST, xi_points=2)
        with pytest.raises(ValueError, match="positive"):
            sabine_bounds(DISK, TE_FAST, n_max=2.5)
        with pytest.raises(ValueError, match="grid"):
            sabine_bounds(DISK, TE_FAST, xi_points=5.5)

    def test_band_invariants_enforced(self):
        with pytest.raises(ValueError, match="order"):
            SabineBand(-0.1, -0.2, 1, 3, 1, 1e-6, False, 0)
        with pytest.raises(ValueError, match="nonpositive"):
            SabineBand(-0.1, 0.2, 1, 3, 1, 1e-6, False, 0)
        band = sabine_bounds(DISK, TE_FAST, n_max=2, xi_points=17)
        with pytest.raises(dataclasses.FrozenInstanceError):
            band.lower = 0.0


class TestGlancingLimit:
    def test_disk_fast_obstacle(self):
        lim = glancing_limit(DISK, TE_FAST, 0.0)
        assert lim == pytest.approx(-2.0 / math.sqrt(3.0), abs=1e-15)

    def test_disk_fast_obstacle_bits(self):
        # the closed form -c kappa / (alpha sqrt(c**2 - 1)) at kappa = 1
        c, alpha, kappa = 2.0, 1.0, 1.0
        want = -c * kappa / (alpha * math.sqrt(c**2 - 1.0))
        assert glancing_limit(DISK, TE_FAST, 0.0).hex() == want.hex()

    def test_slow_obstacle_limit_vanishes(self):
        assert glancing_limit(DISK, TE_SLOW, 1.0) == 0.0

    def test_scales_with_curvature(self):
        ell = ConvexDomain.ellipse(1.5, 1.0)
        g_flat = glancing_limit(ell, TE_FAST, ell.perimeter / 4.0)
        g_sharp = glancing_limit(ell, TE_FAST, 0.0)
        # kappa(0) = a/b^2 = 1.5, kappa(quarter) = b/a^2 = 1/2.25.
        assert g_sharp / g_flat == pytest.approx(3.375, abs=1e-9)

    def test_agrees_with_quotient_extrapolation(self):
        lim = glancing_limit(DISK, TE_FAST, 0.0)
        vals = [
            sabine_quotient(DISK, TE_FAST, PhasePoint(0.0, 1.0 - 10.0**-k), 1)
            for k in range(2, 7)
        ]
        defects = [v - lim for v in vals]
        # The defect is linear in 1 - xi, so it shrinks tenfold per step
        # and one Richardson step removes it almost entirely.
        assert abs(defects[-1]) < 1e-6
        for a, b in zip(defects, defects[1:]):
            assert 8.0 < a / b < 12.0
        richardson = vals[-1] + (vals[-1] - vals[-2]) / 9.0
        assert richardson == pytest.approx(lim, abs=1e-9)

    def test_other_laws_and_unit_speed(self):
        assert glancing_limit(DISK, DeltaPotential(1.0), 0.0) == 0.0
        assert glancing_limit(DISK, BoundaryDamping(2.0), 0.0) == -0.5
        # c = 1: the loss per bounce does not vanish with the chord
        for alpha in (1.0, 3.0):
            with pytest.raises(ValueError, match="c = 1"):
                glancing_limit(DISK, TransparentObstacle(1.0, alpha), 0.0)

    def test_damping_agrees_with_quotient_extrapolation(self):
        model = BoundaryDamping(2.0)
        # -kappa / a: the loss -4 nu / a over twice the chord 2 nu / kappa
        lim = glancing_limit(DISK, model, 0.0)
        vals = [sabine_quotient(DISK, model, PhasePoint(0.0, 1.0 - 10.0**-k), 1)
                for k in (5, 6)]
        richardson = vals[-1] + (vals[-1] - vals[-2]) / 9.0
        assert lim == -0.5
        assert richardson == pytest.approx(lim, abs=1e-9)

    @pytest.mark.parametrize("model, mean", [
        (TE_FAST, -0.91459), (BoundaryDamping(2.0), -0.39603),
    ], ids=["transparent 2 1", "damping 2"])
    def test_ellipse_long_orbit_value(self, model, mean):
        # the curvature integrates to 2 pi, so the rate g averages to
        # g 2 pi / L along near-glancing orbits of the 1.5 x 1 ellipse
        ell = ConvexDomain.ellipse(1.5, 1.0)
        assert model.glancing() * 2.0 * math.pi / ell.perimeter == pytest.approx(mean, abs=5e-6)
        kappa = float(ell.curvature(0.0))
        assert glancing_limit(ell, model, 0.0) == model.glancing() * kappa


class TestGlancingBands:
    def test_disk_scale_factor_is_cbrt_2(self):
        # Q == 1 and sigma(V) == 1 on the unit disk at v_exponent = 0 and
        # unit amplitude, so B = 2^{1/3} on the nose.
        bands = glancing_bands(DeltaPotential(1.0, 0.0, h=0.01), m_bands=3)
        for b in bands:
            assert b.scale == pytest.approx(CBRT2, abs=1e-12)
            assert b.im_lambda == b.predicted_im_lambda(0.01)

    def test_band_identity(self):
        # h^{2/3} Im z / ImPhi_-(zeta_j) recovers B exactly, z = h lambda.
        model = DeltaPotential(1.0, 5.0 / 6.0, h=1e-3)
        for b in glancing_bands(model, m_bands=3):
            im_z = 1e-3 * b.predicted_im_lambda(1e-3)
            assert (1e-3) ** (2.0 / 3.0) * im_z / b.im_phi_j == pytest.approx(
                b.scale, rel=1e-10
            )

    def test_critical_exponent_freezes_band_height(self):
        # At v_exponent = 5/6 the h powers cancel: the band heights are
        # h-independent and equal 2^{1/3} ImPhi_-(zeta_j).
        model = DeltaPotential(1.0, 5.0 / 6.0, h=1e-3)
        bands = glancing_bands(model, m_bands=4)
        table = airy_zeros(4)
        for b, im_phi in zip(bands, table.im_phi_minus):
            assert b.predicted_im_lambda(1e-3) == pytest.approx(
                CBRT2 * im_phi, rel=1e-12
            )
            assert b.predicted_im_lambda(1e-4) == pytest.approx(
                CBRT2 * im_phi, rel=1e-12
            )

    def test_first_band_values_at_critical_exponent(self):
        bands = glancing_bands(DeltaPotential(1.0, 5.0 / 6.0, h=1e-3), m_bands=3)
        heights = [b.predicted_im_lambda(1e-3) for b in bands]
        assert heights == pytest.approx(
            [-1.9462132530, -2.5529643665, -2.9629905596], abs=1e-9
        )

    def test_height_slope_in_h(self):
        # |Im lambda| ~ h^{1/3 - 2 + 2 v_exponent}.
        model = DeltaPotential(1.0, 14.0 / 15.0, h=1e-3)
        b = glancing_bands(model, m_bands=1)[0]
        slope = math.log(
            abs(b.predicted_im_lambda(1e-4)) / abs(b.predicted_im_lambda(1e-3))
        ) / math.log(0.1)
        assert slope == pytest.approx(1.0 / 3.0 - 2.0 + 28.0 / 15.0, abs=1e-9)

    def test_bands_strictly_ordered(self):
        bands = glancing_bands(DeltaPotential(2.0, 0.5, h=1e-2), m_bands=5)
        for hi, lo in zip(bands, bands[1:]):
            assert lo.im_lambda < hi.im_lambda

    def test_validation(self):
        with pytest.raises(TypeError, match="delta"):
            glancing_bands(TE_FAST)
        with pytest.raises(TypeError, match="constant"):
            glancing_bands(DeltaPotential(lambda s: 1.0))
        with pytest.raises(ValueError, match="vanishing"):
            glancing_bands(DeltaPotential(0.0))
        with pytest.raises(ValueError, match="m_bands"):
            glancing_bands(DeltaPotential(1.0), m_bands=0)
        with pytest.raises(ValueError, match="m_bands"):
            glancing_bands(DeltaPotential(1.0), m_bands=2.7)
        with pytest.raises(ValueError, match="lower half-plane"):
            GlancingBand(1, -1.5, CBRT2, 0.5, 1.0, 0.0)
        with pytest.raises(ValueError, match="scale"):
            GlancingBand(1, -1.5, 0.0, -0.5, 1.0, 0.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            b = glancing_bands(DeltaPotential(1.0, 0.0, h=0.01), m_bands=1)[0]
            b.j = 2


class TestBandReport:
    def test_shape_and_infinity_mapping(self):
        band = sabine_bounds(DISK, TM_FAST, n_max=2, xi_points=17)
        glance = glancing_bands(DeltaPotential(1.0, 0.0, h=0.01), m_bands=2)
        rep = band_report("transparent", {"c": 2.0, "alpha": 0.4}, band, glance)
        assert sorted(rep.keys()) == [
            "bands",
            "grid",
            "lower",
            "n_max",
            "params",
            "problem",
            "upper",
        ]
        assert rep["lower"] is None
        assert rep["upper"] == band.upper
        assert rep["grid"]["brewster_excluded"] is True
        assert [b["j"] for b in rep["bands"]] == [1, 2]
        import json

        json.dumps(rep)

    def test_finite_band_passes_through(self):
        band = sabine_bounds(DISK, TE_FAST, n_max=2, xi_points=17)
        rep = band_report("transparent", {"c": 2.0, "alpha": 1.0}, band)
        assert rep["lower"] == band.lower
        assert rep["bands"] == []

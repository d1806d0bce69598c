"""Disk resonance tests.

Independent routes used here:
  * secular values reassembled from scipy.special Bessel/Hankel factors
  * the c = 1, alpha = 1 free-space reduction, where the transparent
    condition collapses to the exact Wronskian 2i / (pi lambda)
  * derivative of the secular function against central differences
  * the Dirichlet limit of the delta problem (V -> infinity pins the
    n = 0 root to the first zero of J_0)
  * one-bounce Sabine quotients for the heights of the chord seeds
  * argument-principle counts behind scan completeness (exercised
    through the public warning machinery, and directly against counts
    confirmed by scans and mpmath, and hypothesis properties: additive
    under cell splits, unchanged under n -> -n)
  * the same counter on random polynomials, sin and a rational function,
    whose zeros and poles are known in closed form
  * the count lattice: its recurrence columns against AMOS at the same
    nodes and against mpmath, and every mode's count from it against
    the per-node count
  * mpmath at 30 digits for the delta glancing roots, and the Airy
    reduction of the delta secular condition near the turning point
    (Maclaurin-series Airy functions)
"""

import cmath
import dataclasses
import functools
import hashlib
import io
import math
import pickle
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import hankel1, jv, jvp, h1vp

import qsabine.disk
from qsabine.billiards import ConvexDomain, PhasePoint
from qsabine.disk import (
    IncompleteScanWarning,
    NoConvergenceError,
    RESONANCE_CSV_HEADER,
    Resonance,
    check_scan_box,
    newton_refine,
    pool_size,
    scan,
    secular,
    seed_glancing,
    seed_normal,
    write_resonance_csv,
)
from qsabine.reflectivity import BoundaryDamping, DeltaPotential, TransparentObstacle
from qsabine.sabine import one_bounce_quotients, sabine_quotient
from qsabine.specfun import ScaledMagnitudeError, bessel_pair

from oracles import airy_series, airy_zero_bisect

DISK = ConvexDomain.disk()
TE_FAST = TransparentObstacle(2.0, 1.0)
TE_SLOW = TransparentObstacle(0.5, 1.0)
LOG3 = math.log(3.0)

# First three Airy roots of mode n = 1000 of DeltaPotential(1, 5/6).
DELTA_LADDER_1000 = (
    complex(1016.3424, -1.1193),
    complex(1030.7267, -1.2371),
    complex(1042.5207, -1.2674),
)


# Modes and cells for the count properties: inside the guarded
# special-function box, Re lambda above every wave speed c used, tangent
# frequency n / Re lambda below the scan cap, and deep enough to hold
# the normal-incidence zeros (Im -0.55 to -1.1) of these problems.
PROBLEMS = st.sampled_from(
    [TE_FAST, TransparentObstacle(0.5, 1.3), DeltaPotential(1.0, 5.0 / 6.0), BoundaryDamping(2.0)]
)


@st.composite
def mode_cells(draw):
    re_lo = draw(st.floats(20.0, 400.0))
    n = int(draw(st.floats(0.0, 1.2)) * re_lo)
    im_hi = -draw(st.floats(1e-6, 0.5))
    cell = (re_lo, re_lo + draw(st.floats(1.0, 30.0)),
            -draw(st.floats(1.2, 3.0)), im_hi)
    return n, cell


def residual(problem, n, lam):
    f, _ = secular(problem, n, lam)
    return abs(f)


def winding_number(problem, n, box, rows=None):
    """The count of mode n's zeros in the box, as a scan asks for it."""
    log_derivative = functools.partial(qsabine.disk._log_derivative, problem, n)
    return qsabine.disk._winding_number(log_derivative, box, rows)


class LookAlike:
    """The transparent law's tag and parameters on an object that is no law."""

    tag = "transparent"
    c = 2.0
    alpha = 1.0


class TestProblemTypes:
    def test_field_validation(self):
        with pytest.raises(ValueError):
            TransparentObstacle(0.0, 1.0)
        with pytest.raises(ValueError):
            TransparentObstacle(2.0, -1.0)
        with pytest.raises(ValueError):
            TransparentObstacle(math.inf, 1.0)
        with pytest.raises(ValueError):
            DeltaPotential(math.inf)
        with pytest.raises(ValueError):
            BoundaryDamping(-2.0)

    def test_tags_and_strength(self):
        assert TE_FAST.tag == "transparent"
        assert BoundaryDamping(2.0).tag == "damping"
        d = DeltaPotential(3.0, 0.5)
        assert d.tag == "delta"
        assert d.strength(4.0) == pytest.approx(6.0)
        assert DeltaPotential(3.0).strength(100.0) == pytest.approx(3.0)

    @pytest.mark.parametrize("call", [
        lambda p: secular(p, 3, 200.0 - 1.0j),
        lambda p: newton_refine(p, 3, 200.0 - 1.0j, 0.2),
        lambda p: qsabine.disk._secular_array(p, 3, [200.0 - 1.0j]),
    ], ids=["secular", "newton_refine", "_secular_array"])
    def test_non_law_refused(self, call):
        with pytest.raises(TypeError, match="not a disk problem"):
            call(object())

    @pytest.mark.parametrize("problem", [object(), LookAlike()], ids=["object", "look-alike"])
    def test_scan_box_refuses_a_non_law_first(self, problem):
        # every other setting is out of the box too: the law is checked first
        with pytest.raises(TypeError, match="not a disk problem"):
            check_scan_box(problem, (0.5, 0.1), 1.0, [-1])

    @pytest.mark.parametrize("call", [
        lambda p: secular(p, 3, 200.0 - 1.0j),
        lambda p: newton_refine(p, 3, 200.0 - 1.0j, 0.2),
        lambda p: scan(p, (200.0, 215.0), -3.0, [3]),
    ], ids=["secular", "newton_refine", "scan"])
    def test_look_alike_refused(self, call):
        # a law is one of the three classes, not whatever carries a law's tag
        with pytest.raises(TypeError, match="not a disk problem"):
            call(LookAlike())

    def test_resonance_validation(self):
        ok = Resonance(complex(10.0, -1.0), 2, 1e-12, "normal", "transparent")
        assert ok.tangent_freq == pytest.approx(0.2)
        with pytest.raises(ValueError):
            Resonance(complex(10.0, 1.0), 2, 1e-12, "normal", "transparent")
        with pytest.raises(ValueError):
            Resonance(complex(-10.0, -1.0), 2, 1e-12, "normal", "transparent")
        with pytest.raises(ValueError):
            Resonance(complex(10.0, -1.0), 2, 1e-6, "normal", "transparent")
        with pytest.raises(ValueError):
            Resonance(complex(10.0, -1.0), 2, 1e-12, "guesswork", "transparent")
        with pytest.raises(ValueError):
            Resonance(complex(10.0, -1.0), 200, 1e-12, "normal", "transparent")


class TestSecular:
    def test_transparent_against_scipy_assembly(self):
        # Same combination assembled from library Bessel evaluations.
        rng = np.random.default_rng(3)
        for _ in range(20):
            lam = complex(rng.uniform(5, 300), -rng.uniform(0.05, 3.0))
            n = int(rng.integers(0, 30))
            c, alpha = TE_FAST.c, TE_FAST.alpha
            w = lam / c
            direct = jvp(n, w) * hankel1(n, lam) / c - alpha * h1vp(n, lam) * jv(n, w)
            f, _ = secular(TE_FAST, n, lam)
            assert abs(f - direct) <= 1e-9 * max(abs(direct), 1e-30)

    def test_delta_against_scipy_assembly(self):
        rng = np.random.default_rng(4)
        prob = DeltaPotential(2.0, 0.5)
        for _ in range(20):
            lam = complex(rng.uniform(5, 300), -rng.uniform(0.05, 3.0))
            n = int(rng.integers(0, 30))
            v = 2.0 * lam**0.5
            direct = jv(n, lam) * hankel1(n, lam) - 2j / (math.pi * v)
            f, _ = secular(prob, n, lam)
            assert abs(f - direct) <= 1e-9 * max(abs(direct), 1e-30)

    def test_damping_against_scipy_assembly(self):
        rng = np.random.default_rng(5)
        prob = BoundaryDamping(2.0)
        for _ in range(20):
            lam = complex(rng.uniform(5, 300), -rng.uniform(0.05, 3.0))
            n = int(rng.integers(0, 30))
            direct = jvp(n, lam) - 2j * jv(n, lam)
            f, _ = secular(prob, n, lam)
            assert abs(f - direct) <= 1e-9 * max(abs(direct), 1e-30)

    def test_free_space_reduction_is_wronskian(self):
        # c = alpha = 1 makes inside and outside identical; the secular
        # function collapses to -W[J, H] = -2i / (pi lambda), which
        # never vanishes: free space has no resonances.
        free = TransparentObstacle(1.0, 1.0)
        rng = np.random.default_rng(6)
        for _ in range(25):
            lam = complex(rng.uniform(2, 500), -rng.uniform(0.01, 5.0))
            n = int(rng.integers(0, 40))
            f, _ = secular(free, n, lam)
            assert abs(f * math.pi * lam / (-2j) - 1.0) < 1e-9

    def test_derivative_against_central_difference(self):
        rng = np.random.default_rng(8)
        problems = (TE_FAST, TE_SLOW, DeltaPotential(1.0, 5.0 / 6.0), BoundaryDamping(2.0))
        h = 1e-5
        for _ in range(20):
            lam = complex(rng.uniform(10, 200), -rng.uniform(0.1, 2.0))
            n = int(rng.integers(0, 25))
            for prob in problems:
                _, fp = secular(prob, n, lam)
                f_hi, _ = secular(prob, n, lam + h)
                f_lo, _ = secular(prob, n, lam - h)
                fd = (f_hi - f_lo) / (2.0 * h)
                assert abs(fp - fd) <= 1e-6 * max(abs(fp), abs(fd), 1e-20)

    def test_point_and_array_paths_agree(self):
        # Newton evaluates one point at a time, contours and the guard
        # evaluate arrays; both must give the same f and f'.
        rng = np.random.default_rng(9)
        problems = (TE_FAST, TransparentObstacle(0.5, 1.3), DeltaPotential(2.0, 0.5), BoundaryDamping(2.0))
        lams = [complex(rng.uniform(200, 300), -rng.uniform(0.01, 3.0)) for _ in range(8)]
        for prob in problems:
            for n in (0, 1, 7, 150, 360):
                f_arr, fp_arr = qsabine.disk._secular_array(prob, n, np.array(lams))
                for lam, fa, fpa in zip(lams, f_arr, fp_arr):
                    f, fp = secular(prob, n, lam)
                    assert abs(f - fa) <= 1e-13 * abs(fa)
                    assert abs(fp - fpa) <= 1e-13 * abs(fpa)

    def test_point_path_guards(self):
        # J_2000(850 - 0.5i) underflows: the point path refuses it
        with pytest.raises(ScaledMagnitudeError):
            secular(TE_FAST, 2000, 1700.0 - 1.0j)
        with pytest.raises(ValueError):
            secular(TE_FAST, 10, 100.0 - 60.0j)
        with pytest.raises(ValueError):
            secular(BoundaryDamping(2.0), 10, 0.5 - 0.1j)
        f, fp = secular(BoundaryDamping(2.0), 2000, 1500.0 - 1.0j)
        assert cmath.isfinite(f) and cmath.isfinite(fp)

    def test_zero_v0_is_a_value_error(self):
        # f = J H - 2i / (pi V) divides by V = v0 lambda^v_exponent
        with pytest.raises(ValueError, match="v0 != 0"):
            secular(DeltaPotential(0.0), 3, 10.0 - 1.0j)

    LAWS = [TE_FAST, DeltaPotential(2.0, 0.5), BoundaryDamping(2.0)]

    @pytest.mark.parametrize("law", LAWS, ids=["transparent", "delta", "damping"])
    def test_point_is_the_one_row_case(self, law):
        # Newton evaluates rows of points; secular is one row, bit for bit
        rng = np.random.default_rng(10)
        for _ in range(20):
            lam = complex(rng.uniform(5, 300), -rng.uniform(0.05, 3.0))
            n = int(rng.integers(0, 30))
            (row,) = qsabine.disk._secular_rows(law, [(n, lam)])
            assert secular(law, n, lam) == row[:2]

    @pytest.mark.parametrize("law, n, lam", [
        (TE_FAST, 10, 100.0 - 60.0j),
        (BoundaryDamping(2.0), 10, 0.5 - 0.1j),
        (TE_FAST, 2000, 1700.0 - 1.0j),
        (DeltaPotential(0.0), 3, 10.0 - 1.0j),
    ], ids=["out-of-box", "small-argument", "overflowing-mode", "zero-v0"])
    def test_point_raises_the_error_of_its_row(self, law, n, lam):
        # a row holds its Bessel error unraised; a law error may raise
        try:
            (want,) = qsabine.disk._secular_rows(law, [(n, lam)])
        except ValueError as err:
            want = err
        assert isinstance(want, Exception)
        with pytest.raises(Exception) as got:
            secular(law, n, lam)
        assert type(got.value) is type(want) and str(got.value) == str(want)

    def test_mode_symmetry(self):
        # Bessel reflection sends every order-n factor to (-1)^n times
        # itself, so modes n and -n share zero sets and scans may keep to
        # n >= 0; comparing |f| drops the unimodular prefactor.
        rng = np.random.default_rng(7)
        problems = (TE_FAST, TE_SLOW, BoundaryDamping(2.0), DeltaPotential(1.0, 0.5))
        for _ in range(10):
            lam = complex(rng.uniform(50, 300), -rng.uniform(0.1, 3.0))
            n = int(rng.integers(1, 40))
            for prob in problems:
                (f_pos,), _ = qsabine.disk._secular_array(prob, n, [lam])
                (f_neg,), _ = qsabine.disk._secular_array(prob, -n, [lam])
                assert abs(abs(f_neg) - abs(f_pos)) < 1e-12 * abs(f_pos)


class TestSeedNormal:
    def test_first_start_point(self):
        # alpha c = 2 > 1 selects the sign-flip branch: k = n = 0 sits at
        # 3 pi / 2 with height log(1/3).
        s = seed_normal(TE_FAST, 0, 0)
        assert s.real == pytest.approx(1.5 * math.pi, abs=1e-12)
        assert s.imag == pytest.approx(-LOG3, abs=1e-12)

    def test_radial_step_is_c_pi(self):
        for n in (0, 2, 9):
            for k in (0, 5, 40):
                a = seed_normal(TE_FAST, n, k)
                b = seed_normal(TE_FAST, n, k + 1)
                assert b.real - a.real == pytest.approx(2.0 * math.pi, abs=1e-10)
                assert b.imag == a.imag

    def test_height_matches_normal_quotient(self):
        # Same number the one-bounce Sabine quotient of the diameter
        # orbit produces.
        for c, alpha in ((2.0, 1.0), (2.0, 0.4), (0.5, 1.0), (0.5, 4.0)):
            law = TransparentObstacle(c, alpha)
            q = sabine_quotient(DISK, law, PhasePoint(0.0, 0.0), 1)
            s = seed_normal(law, 3, 7)
            assert s.imag == pytest.approx(q, abs=1e-12)

    def test_matched_impedance_rejected(self):
        with pytest.raises(ValueError):
            seed_normal(TransparentObstacle(2.0, 0.5), 0, 0)

    def test_wrong_problem_rejected(self):
        with pytest.raises(TypeError, match="transparent problem only"):
            seed_normal(BoundaryDamping(2.0), 3, 1)


class TestSeedGlancing:
    def test_frozen_start_point(self):
        s = seed_glancing(DeltaPotential(1.0, 5.0 / 6.0), 1000, 1)
        assert s.real == pytest.approx(1015.5229167052904, abs=1e-8)
        assert s.imag == pytest.approx(-1.9462132530103904, abs=1e-8)

    def test_band_index_ordering(self):
        prob = DeltaPotential(1.0, 5.0 / 6.0)
        seeds = [seed_glancing(prob, 1000, j) for j in (1, 2, 3)]
        assert seeds[0].real < seeds[1].real < seeds[2].real
        assert seeds[0].imag > seeds[1].imag > seeds[2].imag

    def test_weak_potential_rejected(self):
        with pytest.raises(ValueError, match="too weak"):
            seed_glancing(DeltaPotential(1.0, 0.0), 100, 1)

    def test_wrong_problem_rejected(self):
        with pytest.raises(TypeError):
            seed_glancing(BoundaryDamping(2.0), 100, 1)

    def test_mode_zero_rejected(self):
        with pytest.raises(ValueError, match="n >= 1"):
            seed_glancing(DeltaPotential(1.0), 0, 1)

    def test_zero_v0_is_a_value_error(self):
        # delta1 = 2^(1/3) n^(2/3) / V divides by V = 0
        with pytest.raises(ValueError, match="v0 != 0"):
            seed_glancing(DeltaPotential(0.0), 100, 1)


class TestSeedPoints:
    PROBLEMS = [
        TE_FAST, TransparentObstacle(2.0, 0.4), TransparentObstacle(0.5, 1.3),
        BoundaryDamping(2.0), BoundaryDamping(0.5),
        DeltaPotential(1.0, 5.0 / 6.0), DeltaPotential(5.0, 5.0 / 6.0),
    ]

    # Every start point, tag and trust radius of the scan seed families
    # over a 200..300 window, bit for bit: one sha256 over
    # repr(_seed_table(p, [(n, 200, 300)])[0]) for n = 0..360.  Re-recorded
    # when normal-incidence starts past the interior turning point
    # (Re lambda_0 <= c n) were dropped; only the transparent lists moved
    # (TestTurningPointCut).
    PINNED = "32b08e91bcd9929fdd05e586f490e7eada2d946e5f3f0bee4f5f0556f77bb09a"

    @staticmethod
    def digest(lists):
        digest = hashlib.sha256()
        for seeds in lists:
            digest.update(repr(seeds).encode())
        return digest.hexdigest()

    def test_seed_lists_are_pinned(self):
        assert self.digest(
            qsabine.disk._seed_table(p, [(n, 200.0, 300.0)])[0]
            for p in self.PROBLEMS for n in range(361)
        ) == self.PINNED

    # The same pin at high frequency: one sha256 over repr(_seed_table)
    # of each of these (law, windows) tables in order, recorded before
    # the transparent and damping sweeps were started at the window.
    # Each window is (n, max(lo, n/1.2), hi), as a scan clips it; the
    # law (2, 0.5) has 1/c^2 = alpha^2.
    HIGH_FREQUENCY = "4e89bf8b92faaf0837f21920af3091a78d418b15e3a3135df1e09b3e2f9b47ee"

    def test_high_frequency_tables_are_pinned(self):
        def windows(lo, hi, modes):
            return [(n, max(lo, n / 1.2), hi) for n in modes]

        damping = [BoundaryDamping(a) for a in (2.0, 1.0, 0.5, math.sqrt(3.0) / 2.0)]
        tables = ([(p, windows(800.0, 900.0, range(976))) for p in damping]
                  + [(p, windows(3200.0, 3210.0, range(0, 3401, 32))) for p in damping]
                  + [(TransparentObstacle(c, alpha), windows(800.0, 810.0, range(973)))
                     for c, alpha in ((2.0, 1.0), (2.0, 0.5), (1.5, 0.3), (0.5, 1.3))])
        assert self.digest(
            qsabine.disk._seed_table(p, w) for p, w in tables
        ) == self.HIGH_FREQUENCY

    def test_airy_cluster_keeps_its_far_starts(self):
        # The fifth and sixth Airy starts sit 6.305 and 7.161 n^(1/3)
        # above c n.  A cut-off at c (n + 6 n^(1/3)) = 194.7 < 200 used
        # to drop mode 162's sixth start at 201.04 from the window.
        starts = qsabine.disk._airy_cluster(162, 1.0, -0.5, 200.0, 300.0,
                                            qsabine.disk._airy_magnitudes())
        assert [round(s.real, 3) for s, _, _ in starts] == [201.039]

    def test_batched_phase_inversion_matches_scalar_brent(self, monkeypatch):
        # Every phase target the seed tables of the pinned problems
        # invert, plus targets at and below 0, against scipy's scalar
        # brentq on the same bracket: the same radius to the last bit,
        # and NaN exactly where brentq raises.
        from scipy.optimize import brentq

        calls = [(1.0, [1e-3, 0.0, -1e-3, -1.0, -math.pi / 2.0 - 1.0, -3.0, -10.0])]
        invert = qsabine.disk._invert_phases

        def recorded(c, targets):
            calls.append((c, list(targets)))
            return invert(c, targets)

        monkeypatch.setattr(qsabine.disk, "_invert_phases", recorded)
        for p in self.PROBLEMS:
            qsabine.disk._seed_table(p, [(n, 200.0, 300.0) for n in range(361)])
        # The tables sweep only targets whose root can land in the window.
        # Over the same ranges, the oracle also takes every odd multiple of
        # pi / (4n) up to the padded window's top F(303 / n), n = 1..360, as
        # a sweep from the turning point would, at each interior speed of
        # the pinned problems (1 for the damping law).
        for c in (2.0, 0.5, 1.0):
            targets = []
            for n in range(1, 361):
                if 303.0 / n > c:
                    step = math.pi / (4 * n)
                    top = qsabine.disk._phase_integral(c, 303.0 / n)
                    targets += [j * step for j in range(1, int(top / step) + 1, 2)]
            calls.append((c, targets))
        assert sum(len(targets) for _, targets in calls) > 150_000

        def scalar(c, target):
            lo, hi = c * (1.0 + 1e-13), c * (target + math.pi / 2.0 + 1.0)
            try:
                return brentq(lambda r: qsabine.disk._phase_integral(c, r) - target,
                              lo, hi, xtol=1e-13)
            except ValueError:
                return math.nan

        unsolvable = 0
        for c, targets in calls:
            got = invert(c, targets).tolist()
            assert repr(got) == repr([scalar(c, t) for t in targets])
            unsolvable += sum(map(math.isnan, got))
        assert unsolvable > 200  # the delta bulk's fixed point leaves F's range

    def test_table_rows_match_single_modes(self):
        # A seed table's rows do not depend on the other rows: the whole
        # 0..360 table has the one-mode lists' pinned digest, and a
        # shuffled subset with per-row windows as a scan clips them
        # equals its one-mode lists.
        full = [(n, 200.0, 300.0) for n in range(361)]
        assert self.digest(
            seeds for p in self.PROBLEMS for seeds in qsabine.disk._seed_table(p, full)
        ) == self.PINNED
        subset = np.random.default_rng(0).permutation(361)[:60].tolist()
        clipped = [(n, max(200.0, n / 1.2), 300.0) for n in subset]
        for p in self.PROBLEMS:
            table = qsabine.disk._seed_table(p, clipped)
            assert repr(table) == repr([qsabine.disk._seed_table(p, [w])[0] for w in clipped])

    @pytest.mark.parametrize("law", [
        TE_FAST, TransparentObstacle(2.0, 0.4), TransparentObstacle(0.5, 1.3),
        BoundaryDamping(2.0), BoundaryDamping(0.5), BoundaryDamping(1.0),
    ], ids=repr)
    def test_chord_starts_sit_on_the_sabine_law(self, law):
        # Every transverse and continuation start, and every damping
        # bulk start (tag normal, n >= 1), is placed on a chord of
        # radius ratio r = Re lambda_0 / n: its height is the one-bounce
        # Sabine quotient q(c n / Re lambda_0) of that chord.
        windows = [(n, max(200.0, n / 1.2), 300.0) for n in range(361)]
        chord_tags = ("normal",) if isinstance(law, BoundaryDamping) else (
            "transverse", "continuation")
        starts = [(n, lam0)
                  for (n, _, _), seeds in zip(windows, qsabine.disk._seed_table(law, windows))
                  for lam0, tag, _ in seeds if tag in chord_tags and n >= 1]
        assert len(starts) > 1600
        q = one_bounce_quotients(law, [n / lam0.real for n, lam0 in starts])
        gap = np.abs(np.array([lam0.imag for _, lam0 in starts]) - q)
        assert gap.max() < 1e-11

    def test_free_space_law_has_no_starts(self):
        # c = alpha = 1: no reflection at normal incidence, and every
        # chord sits on the Brewster tangent nu = ww, where the
        # transverse reflection coefficient vanishes
        windows = [(n, max(200.0, n / 1.2), 300.0) for n in range(361)]
        table = qsabine.disk._seed_table(TransparentObstacle(1.0, 1.0), windows)
        assert table == [[] for _ in windows]


class TestDampingPhaseCondition:
    """The damping bulk's starts: e^{2 i theta} = (t + a r)/(t - a r)
    with t = sqrt(r^2 - 1), at the radii r the phase inversion gives."""

    @given(st.floats(1.0 + 1e-13, 1e4), st.floats(1e-3, 1e3))
    def test_ratio_is_finite_and_decays(self, r, a):
        # off the excised |t - a r| < 1e-12 a r, each start lies below
        # the real axis
        t = math.sqrt(r * r - 1.0)
        assume(abs(t - a * r) >= 1e-12 * a * r)
        ratio = (t + a * r) / (t - a * r)
        assert math.isfinite(ratio) and ratio != 0.0
        assert -r / (2.0 * t) * math.log(abs(ratio)) < 0.0

    @given(st.lists(st.floats(0.0, 1e3, exclude_min=True), min_size=1, max_size=20))
    def test_positive_targets_invert_above_one(self, targets):
        radii = qsabine.disk._invert_phases(1.0, targets)
        assert np.all(np.isfinite(radii)) and np.all(radii > 1.0)


class TestDeltaPhaseCondition:
    """The delta bulk's starts: e^{2 i theta} = rhs = 2 i t / V - 1 with
    V = V(Re lambda) and t in (0, Re lambda]."""

    @given(st.floats(1e-3, 1e12), st.floats(0.0, 1.0), st.floats(1.0, 2e4),
           st.floats(0.0, 1.0, exclude_min=True))
    def test_rhs_has_real_part_minus_one(self, v0, p, lam, frac):
        # CPython's complex pow of a positive real keeps its imaginary
        # part 0.0, so V is a positive real and rhs is never 0
        t = frac * lam
        rhs = 2j * t / DeltaPotential(v0, p).strength(lam) - 1.0
        assert rhs.real == -1.0

    def test_start_on_the_axis_is_dropped(self):
        # once 2 t / V is below ~1e-8, |rhs| rounds to 1 and the start
        # height -log|rhs| / (2 t / Re lambda) is 0: no start below the axis
        lam = t = 200.0
        rhs = 2j * t / DeltaPotential(1e12).strength(lam) - 1.0
        assert abs(rhs) == 1.0
        assert -0.5 * math.log(abs(rhs)) / (t / lam) >= 0.0

    def test_table_drops_every_start_on_the_axis(self):
        # at v0 = 1e12 every bulk start of the mode has Im = -0.0, and
        # mode 100 has no glancing start in the window; at v0 = 1 the
        # same mode keeps its continuation starts
        seeds = qsabine.disk._seed_table(DeltaPotential(1e12), [(100, 200.0, 300.0)])[0]
        assert seeds == []
        seeds = qsabine.disk._seed_table(DeltaPotential(1.0), [(100, 200.0, 300.0)])[0]
        assert len(seeds) == 31 and {tag for _, tag, _ in seeds} == {"continuation"}


class TestTurningPointCut:
    """Normal-incidence starts only inside the interior turning point:
    past c n = Re lambda the diameter chord does not exist, and no start
    the cut drops converges."""

    # (c, alpha) and Re window of four default-floor scans
    LAWS = [((2.0, 1.0), (200.0, 300.0)), ((2.0, 0.4), (200.0, 300.0)),
            ((1.5, 1.0), (100.0, 160.0)), ((3.0, 2.0), (50.0, 120.0))]

    @staticmethod
    def uncut(c, alpha, n, re_lo, re_hi):
        """Every normal start of mode n in the window, by the rule before
        the cut: Re lambda_0 > 0 only."""
        starts = (qsabine.disk._normal_start(c, alpha, n, k)
                  for k in range(-n - 1, math.ceil(re_hi / (c * math.pi)) + 1))
        return [s for s in starts if re_lo <= s.real <= re_hi and s.real > 0.0]

    def test_dropped_starts_all_fail(self, monkeypatch):
        # The seed table of each scan's mode windows, its _normal_seeds
        # calls recorded: each is the uncut list without Re lambda_0 <= c n,
        # entry for entry, and every dropped start fails in Newton.
        calls = []
        inner = qsabine.disk._normal_seeds

        def recorded(*args):
            seeds = inner(*args)
            calls.append((args, list(seeds)))
            return seeds

        monkeypatch.setattr(qsabine.disk, "_normal_seeds", recorded)
        dropped = 0
        for (c, alpha), (re_lo, re_hi) in self.LAWS:
            calls.clear()
            windows = [(n, max(re_lo, n / 1.2), re_hi)
                       for n in range(int(1.2 * re_hi) + 1) if n / 1.2 < re_hi]
            qsabine.disk._seed_table(TransparentObstacle(c, alpha), windows)
            assert len(calls) == len(windows)
            rows = []
            for (_, _, n, lo, hi), seeds in calls:
                old = self.uncut(c, alpha, n, lo, hi)
                assert seeds == [(s, "normal", 0.2) for s in old if s.real > c * n]
                rows.extend((n, s, "normal", 0.2) for s in old if s.real <= c * n)
            outcomes = qsabine.disk._newton_rows(TransparentObstacle(c, alpha), rows)
            assert all(isinstance(o, NoConvergenceError) for o in outcomes), (c, alpha)
            dropped += len(rows)
        assert dropped == 7507


class TestNewtonRefine:
    def test_transparent_normal_root(self):
        s = seed_normal(TE_FAST, 0, 32)
        r = newton_refine(TE_FAST, 0, s, 0.2, tag="normal")
        assert r.lam.real == pytest.approx(205.7767485078322, abs=1e-9)
        assert r.lam.imag == pytest.approx(-1.0986111243152326, abs=1e-9)
        assert r.residual < 1e-10
        assert r.guarded
        assert r.seed == "normal"

    def test_root_outside_the_quadrant_refused(self):
        # from the mirror image -conj(lambda) of a root, Newton converges
        # to the left half plane, near -202.86 - 1.24i
        (r, *_) = scan(TE_FAST, (200.0, 203.0), -3.0, [5])
        with pytest.raises(NoConvergenceError, match="outside the lower right quadrant"):
            newton_refine(TE_FAST, 5, -r.lam.conjugate(), 0.2)

    def test_refining_a_root_is_stationary(self):
        s = seed_normal(TE_FAST, 0, 32)
        r = newton_refine(TE_FAST, 0, s, 0.2)
        again = newton_refine(TE_FAST, 0, r.lam, 0.2)
        assert abs(again.lam - r.lam) < 1e-9
        # Once the residual is at the fixed-point floor the input is
        # returned untouched.
        third = newton_refine(TE_FAST, 0, again.lam, 0.2)
        if again.residual < 1e-12:
            assert third.lam == again.lam
        else:
            assert abs(third.lam - again.lam) < 1e-12

    def test_seed_error_decays_like_inverse_frequency(self):
        # Drift |root - seed| along the normal family; the log-log slope
        # against Re lambda is -1 to three decimals.
        for n in (0, 3):
            drift, res_re = [], []
            for k in range(10, 21, 2):
                s = seed_normal(TE_FAST, n, k)
                r = newton_refine(TE_FAST, n, s, 0.2, tag="normal")
                drift.append(abs(r.lam - s))
                res_re.append(r.lam.real)
            slope = np.polyfit(np.log(res_re), np.log(drift), 1)[0]
            assert slope < -0.8

    def test_divergence_reports_trace(self):
        with pytest.raises(NoConvergenceError) as err:
            newton_refine(TE_FAST, 0, complex(150.0, -0.5), 0.05)
        assert len(err.value.trace) >= 2
        assert all(isinstance(z, complex) for z in err.value.trace)

    def test_failed_refinement_skips_the_guard(self, monkeypatch):
        # The uniqueness guard runs only when Resonance.guarded is read,
        # so a diverging refinement, which returns no Resonance, never
        # reaches it.
        def guard(*args, **kwargs):
            raise AssertionError("guard evaluated for a failing refinement")

        monkeypatch.setattr(qsabine.disk, "_newton_guard", guard)
        with pytest.raises(NoConvergenceError):
            newton_refine(TransparentObstacle(2.0, 1.0), 0, complex(150.0, -0.5), 0.05)

    def test_dirichlet_limit_of_strong_delta(self):
        # V -> infinity pins the n = 0 root to the first zero of J_0
        # with an O(1/V) shift and width.
        r = newton_refine(DeltaPotential(1e6, 0.0), 0, complex(2.40, -0.001), 0.1)
        assert r.lam.real == pytest.approx(2.404825557695773, abs=3e-6)
        assert -1e-10 < r.lam.imag < 0.0

    def test_certification_floor_of_extreme_delta(self):
        # At V = 1e8 both secular terms are ~1e-8, so a 1e-10 relative
        # residual would need |f| below double precision; the refinement
        # honestly refuses to certify.
        with pytest.raises(NoConvergenceError):
            newton_refine(DeltaPotential(1e8, 0.0), 0, complex(2.40, -0.001), 0.1)

    def test_zero_v0_is_a_value_error(self):
        with pytest.raises(ValueError, match="v0 != 0"):
            newton_refine(DeltaPotential(0.0), 3, 10.0 - 1.0j, 0.2)

    def test_nonpositive_trust_radius_refused(self):
        with pytest.raises(ValueError, match="trust radius must be positive"):
            newton_refine(TE_FAST, 0, seed_normal(TE_FAST, 0, 32), 0.0)

    def test_glancing_seed_converges_unguarded(self):
        prob = DeltaPotential(1.0, 5.0 / 6.0)
        s = seed_glancing(prob, 1000, 1)
        r = newton_refine(prob, 1000, s, 1.2, tag="glancing")
        assert r.lam.real == pytest.approx(1016.3424, abs=1e-3)
        assert r.lam.imag == pytest.approx(-1.1193, abs=1e-3)
        assert not r.guarded


def _alone(problem, n, lam0, tag, eps):
    """newton_refine of one start: its Resonance or the error it raises."""
    try:
        return newton_refine(problem, n, lam0, eps, tag=tag)
    except (NoConvergenceError, ScaledMagnitudeError, ValueError) as err:
        return err


def _same_outcome(got, want):
    """Equal Resonances with the same residual, seed and certificate, or
    errors of one type with one message (and one trace)."""
    if isinstance(want, Resonance):
        return (got == want and repr(got.residual) == repr(want.residual)
                and repr(got.certificate) == repr(want.certificate))
    return (type(got) is type(want) and str(got) == str(want)
            and getattr(got, "trace", None) == getattr(want, "trace", None))


class TestNewtonRows:
    """_newton_rows refines many starts in lockstep, one AMOS array per
    cylinder function per round, each row as it would be refined alone."""

    @pytest.mark.parametrize("problem", [
        TE_FAST, DeltaPotential(1.0, 5.0 / 6.0), BoundaryDamping(2.0),
    ], ids=["transparent", "delta", "damping"])
    def test_rows_match_each_row_alone(self, problem):
        # every seed a default scan (Re 200..300, Im >= -3) refines for
        # these modes, rows of several modes in one lockstep
        rows = [(n, *seed)
                for n in (0, 1, 40, 200, 359)
                for seed in qsabine.disk._seed_table(
                    problem, [(n, max(200.0, n / 1.2), 300.0)])[0]
                if seed[0].imag >= -4.0]
        if problem is TE_FAST:
            # the normal starts past the turning point that scans no
            # longer refine, as failing rows (windows padded by 3, as the
            # seed table pads them)
            rows += [(n, s, "normal", 0.2) for n in (200, 359) for s in
                     TestTurningPointCut.uncut(2.0, 1.0, n, max(200.0, n / 1.2) - 3.0, 303.0)]
        outcomes = qsabine.disk._newton_rows(problem, rows)
        assert len(outcomes) == len(rows) > 40
        assert any(isinstance(o, Resonance) for o in outcomes)
        for (n, lam0, tag, trust), got in zip(rows, outcomes):
            assert _same_outcome(got, _alone(problem, n, lam0, tag, trust)), (n, lam0, tag)

    def test_failing_rows_leave_the_converging_row_its_bits(self):
        slow = TransparentObstacle(0.5, 1.0)
        whispering = complex(0.5 * (40 + 2.338 * 40 ** (1 / 3) / 2 ** (1 / 3)), -0.05)
        rows = [
            (10, 100.0 - 60.0j, "continuation", 0.2),        # leaves the Bessel box
            (0, seed_normal(slow, 0, 130), "normal", 0.2),   # converges
            (2000, 300.0 - 1.0j, "continuation", 0.2),       # J_2000(600 - 2i) underflows
            (40, whispering, "glancing", 1.0),               # converges past the tangent cap
            (0, 150.0 - 0.5j, "continuation", 0.05),         # diverges
        ]
        outcomes = qsabine.disk._newton_rows(slow, rows)
        assert [type(o) for o in outcomes] == [
            ValueError, Resonance, ScaledMagnitudeError, ValueError, NoConvergenceError]
        assert "Im z" in str(outcomes[0]) and "tangent frequency" in str(outcomes[3])
        for row, got in zip(rows, outcomes):
            assert _same_outcome(got, _alone(slow, *row))

    def test_no_rows(self):
        assert qsabine.disk._newton_rows(TE_FAST, []) == []


def _refuse_guard(*args, **kwargs):
    raise AssertionError("Newton guard evaluated")


class TestDeferredGuard:
    """Resonance.guarded runs the Newton uniqueness guard on first read."""

    # sha256 of bytes(r.guarded for r in the roots) of TE_FAST over
    # Re 200..300, Im >= -3, modes 0..60, recorded while newton_refine
    # still evaluated the guard itself: 929 roots, 199 unguarded.
    FLAGS_SHA256 = "01d2420218371cb12c077f70ff20b328c2a6a22d5963615309536037881b1753"

    def test_scan_does_not_evaluate_the_guard(self, monkeypatch):
        monkeypatch.setattr(qsabine.disk, "_newton_guard", _refuse_guard)
        roots = scan(TE_FAST, (200.0, 230.0), -3.0, range(0, 20))
        deferred = [r for r in roots if isinstance(r.certificate, tuple)]
        assert deferred
        with pytest.raises(AssertionError, match="guard evaluated"):
            deferred[0].guarded

    def test_flags_match_the_eager_guard(self):
        flags = [r.guarded for r in scan(TE_FAST, (200.0, 300.0), -3.0, range(61))]
        assert (len(flags), flags.count(False)) == (929, 199)
        assert hashlib.sha256(bytes(flags)).hexdigest() == self.FLAGS_SHA256

    def test_pool_gives_the_serial_flags(self):
        modes = range(0, 61, 4)
        serial = [r.guarded for r in scan(TE_FAST, (200.0, 260.0), -3.0, modes)]
        pooled = [r.guarded for r in scan(TE_FAST, (200.0, 260.0), -3.0, modes, workers=2)]
        assert pooled == serial
        assert True in serial and False in serial

    def test_certificate_is_cached_pickled_and_not_compared(self, monkeypatch):
        r = newton_refine(TE_FAST, 0, seed_normal(TE_FAST, 0, 32), 0.2, tag="normal")
        assert isinstance(r.certificate, tuple)
        assert "certificate" not in repr(r)
        assert r == dataclasses.replace(r, certificate=False)
        copy = pickle.loads(pickle.dumps(r))
        assert copy.guarded and r.guarded
        monkeypatch.setattr(qsabine.disk, "_newton_guard", _refuse_guard)
        assert r.guarded and pickle.loads(pickle.dumps(r)).guarded


class TestScan:
    def test_normal_family_window(self):
        res = scan(TE_FAST, (200.0, 230.0), -3.0, [0])
        assert len(res) == 4
        re = [r.lam.real for r in res]
        assert re[0] == pytest.approx(205.776749, abs=1e-5)
        for a, b in zip(re, re[1:]):
            assert b - a == pytest.approx(2.0 * math.pi, abs=1e-4)
        for r in res:
            assert r.lam.imag == pytest.approx(-LOG3, abs=1e-4)
            assert r.residual < 1e-8
            assert r.seed == "normal"

    def test_results_sorted_and_deduplicated(self):
        res = scan(TE_FAST, (200.0, 240.0), -3.0, range(0, 30, 3))
        key = [(r.lam.real, r.n) for r in res]
        assert key == sorted(key)
        by_mode = {}
        for r in res:
            by_mode.setdefault(r.n, []).append(r.lam)
        for lams in by_mode.values():
            for i, a in enumerate(lams):
                for b in lams[i + 1:]:
                    assert abs(a - b) > 1e-6

    def test_damping_strip(self):
        # Every generalized eigenvalue of the constant damping a = 2
        # lies between the normal height log(1/3)/2 and the glancing
        # height -1/2.
        res = scan(BoundaryDamping(2.0), (200.0, 212.0), -1.0, range(0, 30))
        assert len(res) == 115
        for r in res:
            assert -0.5494 < r.lam.imag < -0.5

    def test_delta_glancing_ladder(self):
        res = scan(DeltaPotential(1.0, 5.0 / 6.0), (1001.0, 1047.0), -4.0, [1000])
        assert len(res) == 3
        for r, w in zip(res, DELTA_LADDER_1000):
            assert abs(r.lam - w) < 1e-3

    def test_delta_glancing_ladder_roots_are_mpmath_zeros(self):
        # 30-digit J_n H_n - 2i / (pi V) and its derivative: one Newton
        # step from each scanned root must be negligible.
        mpmath = pytest.importorskip("mpmath")
        n = 1000
        res = scan(DeltaPotential(1.0, 5.0 / 6.0), (1001.0, 1047.0), -4.0, [n])
        assert len(res) == 3
        with mpmath.workdps(30):
            for r, w in zip(res, DELTA_LADDER_1000):
                assert abs(r.lam - w) < 1e-3
                lam = mpmath.mpc(r.lam.real, r.lam.imag)
                j = mpmath.besselj(n, lam)
                h = mpmath.hankel1(n, lam)
                jp = (mpmath.besselj(n - 1, lam) - mpmath.besselj(n + 1, lam)) / 2
                hp = (mpmath.hankel1(n - 1, lam) - mpmath.hankel1(n + 1, lam)) / 2
                e = mpmath.mpf(5) / 6
                f = j * h - 2j / (mpmath.pi * lam ** e)
                fp = jp * h + j * hp + (2j / mpmath.pi) * e * lam ** (-e - 1)
                assert abs(f / fp) < 1e-8

    def test_delta_glancing_ladder_matches_airy_reduction(self):
        # Near the turning point, lambda = n - 2^(-1/3) n^(1/3) s, the
        # secular condition reduces to Ai(s) A_-(s) = -e^(-i pi/6)
        # delta1 / (2 pi) with delta1 = 2^(1/3) n^(2/3) / V: exact in
        # delta1, leading order in n^(-2/3).  Solved by Newton on the
        # Maclaurin series from s = zeta_j + delta1, it reproduces each
        # pinned root's Im lambda to 1%, although delta1 ~ 0.4 puts the
        # roots far from their delta1 -> 0 bands.
        n = 1000
        delta1 = 2.0 ** (1.0 / 3.0) * n ** (2.0 / 3.0) / n ** (5.0 / 6.0)
        omega = cmath.exp(2j * math.pi / 3.0)
        rhs = -cmath.exp(-1j * math.pi / 6.0) * delta1 / (2.0 * math.pi)
        for j, want in enumerate(DELTA_LADDER_1000, start=1):
            s = complex(airy_zero_bisect(j) + delta1)
            for _ in range(50):
                ai, aip = airy_series(s)
                am, amp = airy_series(omega * s)
                step = (ai * am - rhs) / (aip * am + omega * ai * amp)
                s -= step
                if abs(step) < 1e-13:
                    break
            assert abs(step) < 1e-13
            assert abs(s) <= 6.0
            im = -(2.0 ** (-1.0 / 3.0)) * n ** (1.0 / 3.0) * s.imag
            assert im == pytest.approx(want.imag, rel=0.01)

    def test_slow_obstacle_approaches_real_axis(self):
        # c < 1: beyond the critical angle the outside wave is
        # evanescent and widths collapse toward zero.
        res = scan(TE_SLOW, (204.0, 208.0), -1.0, [0, 220])
        inner = [r for r in res if r.n == 0]
        tir = [r for r in res if r.n == 220]
        assert inner and tir
        for r in inner:
            assert r.lam.imag == pytest.approx(-0.2746530721670273, abs=1e-4)
        for r in tir:
            assert -0.01 < r.lam.imag < -1e-6

    def test_workers_match_serial(self):
        serial = scan(TE_FAST, (200.0, 220.0), -3.0, range(0, 40, 5))
        parallel = scan(TE_FAST, (200.0, 220.0), -3.0, range(0, 40, 5), workers=3)
        assert len(serial) == len(parallel)
        for a, b in zip(serial, parallel):
            assert a.lam == b.lam and a.n == b.n and a.seed == b.seed

    @pytest.fixture
    def inline_pool(self, monkeypatch):
        """Run pool tasks in process; the list records each pool's size."""
        built = []

        class InlinePool:
            def __init__(self, max_workers):
                built.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return list(map(fn, items))

        monkeypatch.setattr(qsabine.disk, "ProcessPoolExecutor", InlinePool)
        return built

    @pytest.mark.parametrize("workers, modes, expected", [
        (2, [5], []),
        (8, [5], []),
        (8, [0, 5, 10], [3]),
        (8, [0, 5, 5, 10], [3]),
        (2, [0, 5, 10], [2]),
        (1, [0, 5, 10], []),
    ])
    def test_pool_never_outnumbers_modes(self, inline_pool, workers, modes, expected):
        pooled = scan(TE_FAST, (200.0, 215.0), -3.0, modes, workers=workers)
        assert inline_pool == expected
        assert pool_size(workers, len(set(modes))) == (expected[0] if expected else 0)
        serial = scan(TE_FAST, (200.0, 215.0), -3.0, modes)
        assert [(r.lam, r.n) for r in pooled] == [(r.lam, r.n) for r in serial]

    @pytest.mark.parametrize("workers", [0, 2])
    @pytest.mark.parametrize("problem", [TE_FAST, DeltaPotential(1.0, 5.0 / 6.0),
                                         BoundaryDamping(2.0)], ids=lambda p: p.tag)
    def test_no_modes_no_pool(self, monkeypatch, problem, workers):
        def refuse(*args, **kwargs):
            raise AssertionError("a scan of no modes started a pool")

        monkeypatch.setattr(qsabine.disk, "ProcessPoolExecutor", refuse)
        assert scan(problem, (200.0, 215.0), -3.0, [], workers=workers) == []

    @pytest.mark.parametrize("problem", [BoundaryDamping(2.0), DeltaPotential(1.0, 5.0 / 6.0)])
    def test_pooled_scan_matches_serial(self, inline_pool, problem):
        # Each pool task carries its mode's rows of the scan's seed
        # table, glancing starts (modes 190..210) included.
        modes = [0, 7, 60, 150, 190, 200, 210]
        pooled = scan(problem, (200.0, 215.0), -3.0, modes, workers=2)
        assert inline_pool == [2]
        serial = scan(problem, (200.0, 215.0), -3.0, modes)
        key = [(r.lam, r.n, r.residual, r.seed) for r in serial]
        assert len(key) > 15 and {190, 200} <= {r.n for r in serial}
        assert [(r.lam, r.n, r.residual, r.seed) for r in pooled] == key

    @pytest.mark.parametrize("problem", [TE_FAST, BoundaryDamping(2.0),
                                         DeltaPotential(1.0, 5.0 / 6.0)])
    def test_blocks_with_gaps_scan_like_single_modes(self, inline_pool, problem):
        # Modes 10..60 step 3, 17 of them: serial blocks of 4 modes and a
        # last one of 1, on five workers blocks of 3 and a last one of 2;
        # the modes of a block are not consecutive.
        modes = range(10, 61, 3)
        csv = [self.csv(scan(problem, (200.0, 215.0), -3.0, modes, workers=w)) for w in (0, 5)]
        assert inline_pool == [5]
        alone = sorted((r for n in modes for r in scan(problem, (200.0, 215.0), -3.0, [n])),
                       key=lambda r: (r.lam.real, r.n))
        assert csv == [self.csv(alone)] * 2
        assert csv[0].count("\n") > 20

    @staticmethod
    def csv(roots):
        out = io.StringIO()
        write_resonance_csv(roots, out)
        return out.getvalue()

    def test_pool_map_keeps_two_chunks_alive(self):
        # A pool that runs each task when its result is collected, and a
        # task generator that counts: the next chunk is drawn before the
        # last is collected, and never more than two chunks are alive.
        parts, drawn, collected, alive = [], [], [], []

        class LazyPool:
            def map(self, fn, items):
                parts.append(len(items))
                return map(fn, items)

        def tasks():
            for i in range(23):
                drawn.append(i)
                alive.append(len(drawn) - len(collected))
                yield i

        def job(i):
            collected.append(i)
            return -i

        assert qsabine.disk._pool_map(LazyPool(), job, tasks(), 4) == [-i for i in range(23)]
        assert parts == [4, 4, 4, 4, 4, 3]
        assert max(alive) == 8 and alive[7] == 8

    def test_pool_is_fed_two_blocks_per_process(self, inline_pool, monkeypatch):
        # Chunks of two blocks per process, two chunks alive: at most
        # four blocks per process hold their lattice rows at once.
        chunks = []
        pool_map = qsabine.disk._pool_map

        def recorded(pool, job, tasks, chunk):
            chunks.append(chunk)
            return pool_map(pool, job, tasks, chunk)

        monkeypatch.setattr(qsabine.disk, "_pool_map", recorded)
        scan(TE_FAST, (200.0, 215.0), -3.0, range(40), workers=2)
        assert inline_pool == [2] and chunks == [4]

    def test_window_validation(self):
        with pytest.raises(ValueError):
            scan(TE_FAST, (0.5, 300.0), -3.0, [0])
        with pytest.raises(ValueError):
            scan(TE_FAST, (300.0, 200.0), -3.0, [0])
        with pytest.raises(ValueError, match="interior"):
            scan(TE_FAST, (1.5, 300.0), -3.0, [0])
        with pytest.raises(ValueError):
            scan(TE_FAST, (200.0, 300.0), 1.0, [0])
        with pytest.raises(ValueError):
            scan(TE_FAST, (200.0, 300.0), -60.0, [0])
        with pytest.raises(ValueError):
            scan(TE_FAST, (200.0, 300.0), -3.0, [-1])

    def test_interior_argument_bounded(self):
        # For c < 1 the interior argument lambda / c outruns lambda: at
        # Re 15010 it is about 30020, past the special-function box.
        slow = TransparentObstacle(0.5, 1.3)
        with pytest.raises(ValueError, match=r"re_window\[1\] / c = 30020 is above 19800"):
            scan(slow, (15000.0, 15010.0), -3.0, [0, 1, 2])
        with pytest.raises(ValueError, match="interior"):
            check_scan_box(slow, (9800.0, 9900.5), -3.0, [0])
        assert check_scan_box(slow, (9800.0, 9900.0), -3.0, [0])[1] == 9900.0
        assert check_scan_box(slow, (200.0, 210.0), -3.0, range(253))[1] == 210.0

    def test_unknown_problem_rejected(self):
        with pytest.raises(TypeError, match="not a disk problem"):
            scan(object(), (200.0, 300.0), -3.0, [0])

    @pytest.mark.parametrize("make", [
        lambda: DeltaPotential(lambda s: 1.0), lambda: BoundaryDamping(lambda s: 2.0),
        lambda: DeltaPotential(0.0), lambda: DeltaPotential(math.inf),
    ], ids=["delta profile", "damping profile", "zero v0", "infinite v0"])
    def test_amplitude_refused_before_the_pool(self, inline_pool, make):
        # The modes separate only for a constant amplitude, and a profile
        # would not pickle; v0 = 0 is a law, but not a disk problem.
        with pytest.raises(ValueError, match="positive constant|finite"):
            scan(make(), (200.0, 215.0), -3.0, range(4), workers=2)
        assert inline_pool == []

    def test_non_integer_mode_rejected(self):
        # int() would truncate 0.5 to mode 0 and scan that instead.
        with pytest.raises(ValueError, match="integers"):
            scan(TE_FAST, (200.0, 215.0), -3.0, [0.5])
        assert len(scan(TE_FAST, (200.0, 215.0), -3.0, [0.0])) == 2

    def test_duplicate_modes_collapse(self):
        once = scan(TE_FAST, (200.0, 215.0), -3.0, [0])
        twice = scan(TE_FAST, (200.0, 215.0), -3.0, [0, 0])
        assert [r.lam for r in twice] == [r.lam for r in once]

    def test_incomplete_cell_warns(self, monkeypatch):
        # With seeding and hunting disabled the box count cannot be
        # matched, and the unresolved cell is reported around the root.
        monkeypatch.setattr(qsabine.disk, "_seed_table",
                            lambda problem, windows: [[] for _ in windows])
        monkeypatch.setattr(qsabine.disk, "_hunt", lambda *a, **k: [])
        with pytest.warns(IncompleteScanWarning) as rec:
            res = scan(TE_FAST, (205.0, 207.0), -1.5, [0])
        assert res == []
        w = rec[0].message
        assert w.n == 0 and w.expected == 1 and w.found == 0
        assert w.box[0] < 205.7768 < w.box[1]

    @pytest.mark.parametrize("problem, window, n", [
        (TE_FAST, (3200.0, 3220.0), 3000),
        (BoundaryDamping(2.0), (15000.0, 15010.0), 17900),
    ])
    def test_unrepresentable_cell_fails_fast(self, monkeypatch, problem, window, n):
        # The unscaled array secular function underflows to 0 at every
        # contour node here, so no subdivision can resolve the count:
        # the cell is reported at once instead of split towards 1e-3.
        calls = []
        winding_number = qsabine.disk._winding_number

        def counted(*args):
            calls.append(args)
            if len(calls) > 50:
                raise AssertionError("more than 50 winding counts")
            return winding_number(*args)

        monkeypatch.setattr(qsabine.disk, "_winding_number", counted)
        with pytest.warns(IncompleteScanWarning) as rec:
            scan(problem, window, -3.0, [n])
        w = rec[0].message
        assert w.n == n and w.expected is None
        assert w.box == (window[0], window[1], -3.0, qsabine.disk._IM_CEILING)
        assert "underflows to 0" in w.cause and w.cause in str(w)


class TestWindingNumber:
    """The phase-tracked argument-principle count behind scan completeness."""

    FULL_BOX = (200.0, 300.0, -3.0, -1e-6)
    SLOW_BOX = (200.0, 210.0, -3.0, -1e-6)

    @pytest.mark.parametrize("n, zeros", [(119, 27), (122, 27), (147, 25), (208, 15)])
    def test_full_window_damping_counts(self, n, zeros):
        # A fixed Gauss-Legendre sum rounded within 0.2 of an integer
        # gave 26, 26, 26 and 16 here; these counts agree with a
        # 4096-node-per-edge sum and with the roots a scan returns.
        assert winding_number(BoundaryDamping(2.0), n, self.FULL_BOX) == zeros

    def test_close_pair_under_the_ceiling(self):
        # Two zeros ~0.003 below the top edge share one starting
        # segment; their 2 pi of phase aliases away unless segments are
        # cut to the Newton distance |f/f'|.
        slow = TransparentObstacle(0.5, 1.3)
        count = winding_number(slow, 217, self.SLOW_BOX)
        roots = scan(slow, self.SLOW_BOX[:2], -3.0, [217])
        assert count == len(roots) == 6
        want = complex(207.8772368734961, -0.0031251338707)  # mpmath, 30 digits
        assert min(abs(r.lam - want) for r in roots) < 1e-9

    def test_near_axis_cells_complete(self):
        # Zeros within 4e-7 of the ceiling (n = 221, 226), and zeros just
        # above it (n = 222, 223, 227, 228, Im -7e-7 to -9.9e-7 by
        # mpmath), leave no cell uncounted.
        with warnings.catch_warnings():
            warnings.simplefilter("error", IncompleteScanWarning)
            roots = scan(TransparentObstacle(0.5, 1.3), self.SLOW_BOX[:2], -3.0,
                         [221, 222, 223, 226, 227, 228])
        for n, want in ((221, complex(201.037486224476, -1.3775507e-6)),
                        (226, complex(205.875324314171, -1.362111e-6))):
            near = [r.lam for r in roots if r.n == n and abs(r.lam - want) < 1e-9]
            assert len(near) == 1
            assert near[0].imag == pytest.approx(want.imag, rel=1e-6)

    def test_unresolved_count_is_named_in_the_warning(self):
        w = IncompleteScanWarning(222, (201.6, 201.7, -1e-3, -1e-6), None, 0)
        assert w.expected is None
        assert "has an unresolved winding count but 0 roots" in str(w)
        w = IncompleteScanWarning(226, (205.8, 205.9, -1e-3, -1e-6), 2, 1)
        assert "has winding count 2 but 1 roots" in str(w)
        w = IncompleteScanWarning(3000, (3200.0, 3220.0, -3.0, -1e-6), None, 0, "f underflows")
        assert w.cause == "f underflows"
        assert "has no winding count (f underflows) but 0 roots" in str(w)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(problem=PROBLEMS, mode_cell=mode_cells(), depth=st.integers(0, 20))
    def test_count_is_additive_under_split(self, problem, mode_cell, depth):
        n, cell = mode_cell
        whole = winding_number(problem, n, cell)
        parts = [winding_number(problem, n, half)
                 for half in qsabine.disk._split(cell, n, depth)]
        if whole is not None and None not in parts:
            assert whole == sum(parts)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(problem=PROBLEMS, mode_cell=mode_cells())
    def test_count_is_symmetric_in_the_mode_sign(self, problem, mode_cell):
        n, cell = mode_cell
        assert (winding_number(problem, -n, cell)
                == winding_number(problem, n, cell))


class TestCountOracle:
    """The counter on functions whose zeros and poles are known: no
    Bessel function, so its answer rests on nothing it shares with the
    scan."""

    BOX = (200.0, 300.0, -3.0, -1e-6)

    @staticmethod
    def log_derivative(f, g):
        """z -> (f(z), f'/f = g(z)), refusing a node where f is 0 or not
        finite, as the disk's log derivative does."""
        def call(z):
            fz = f(z)
            if not np.all(np.isfinite(fz) & (fz != 0.0)):
                raise qsabine.disk._Unrepresentable("f is 0 or not finite at a node")
            return fz, np.broadcast_to(g(z), fz.shape)
        return call

    @classmethod
    def rational(cls, zeros, poles=()):
        """prod(z - zeros) / prod(z - poles)."""
        zeros, poles = np.asarray(zeros, dtype=complex), np.asarray(poles, dtype=complex)
        return cls.log_derivative(
            lambda z: np.prod(z[:, None] - zeros, axis=1) / np.prod(z[:, None] - poles, axis=1),
            lambda z: (np.sum(1.0 / (z[:, None] - zeros), axis=1)
                       - np.sum(1.0 / (z[:, None] - poles), axis=1)))

    def test_random_polynomials(self):
        # up to 39 zeros around and inside the box, some above the ceiling
        rng = np.random.default_rng(0)
        re_lo, re_hi, im_lo, im_hi = self.BOX
        for _ in range(200):
            k = int(rng.integers(0, 40))
            zeros = rng.uniform(190.0, 310.0, k) + 1j * rng.uniform(-4.0, 0.5, k)
            inside = np.sum((re_lo < zeros.real) & (zeros.real < re_hi)
                            & (im_lo < zeros.imag) & (zeros.imag < im_hi))
            assert qsabine.disk._winding_number(self.rational(zeros), self.BOX) == inside

    def test_close_pair(self):
        pair = self.rational([250.0 - 0.003j, 250.001 - 0.003j])
        assert qsabine.disk._winding_number(pair, self.BOX) == 2

    def test_sine(self):
        # the zeros k pi - i, 64 <= k <= 95, lie above a floor at -0.5
        sine = self.log_derivative(lambda z: np.sin(z + 1j), lambda z: 1.0 / np.tan(z + 1j))
        assert qsabine.disk._winding_number(sine, self.BOX) == 32
        assert qsabine.disk._winding_number(sine, (200.0, 300.0, -0.5, -1e-6)) == 0

    def test_zeros_minus_poles(self):
        f = self.rational([240.0 - 1.0j, 260.0 - 2.0j], [250.0 - 1.0j])
        assert qsabine.disk._winding_number(f, self.BOX) == 1
        # a negative total is no count of zeros
        assert qsabine.disk._winding_number(self.rational([], [250.0 - 1.0j]), self.BOX) is None

    def test_node_budget(self, monkeypatch):
        # |f'/f| = 20 needs segments of 0.05: 4,000 on the horizontal edges
        # of width 100, more than the _COUNT_NODES a count may add
        calls = []

        def exp(z):
            calls.append(z.size)
            return np.exp(20j * z)

        wave = self.log_derivative(exp, lambda z: 20j)
        assert qsabine.disk._winding_number(wave, self.BOX) is None
        assert sum(calls) == 3328 and len(calls) == 6
        assert qsabine.disk._winding_number(wave, (200.0, 210.0, -3.0, -1e-6)) == 0
        monkeypatch.setattr(qsabine.disk, "_COUNT_NODES", 10 ** 5)
        assert qsabine.disk._winding_number(wave, self.BOX) == 0

    def test_zero_on_an_edge(self):
        # no node meets it, so bisection never resolves the segment; the
        # retry on a contour a hair larger counts it
        f = self.rational([200.0 - 1.5j])
        assert qsabine.disk._winding_number(f, self.BOX) is None
        assert qsabine.disk._count_zeros(f, self.BOX) == 1

    def test_zero_on_a_node(self):
        f = self.rational([250.0 - 3.0j])
        with pytest.raises(qsabine.disk._Unrepresentable):
            qsabine.disk._winding_number(f, self.BOX)
        assert qsabine.disk._count_zeros(f, self.BOX) == 1

    def test_unrepresentable_on_both_contours(self):
        def never(z):
            raise qsabine.disk._Unrepresentable("never")

        with pytest.raises(qsabine.disk._Unrepresentable, match="never"):
            qsabine.disk._count_zeros(never, self.BOX)


class TestModeCounts:
    """The top-level count of every mode of four default scan windows.

    A CSV cannot catch a wrong count: subdivision repairs it at extra
    cost, and the roots come out the same.  So each mode's count of its
    whole scan box (Re max(200, n / 1.2)..re_hi, Im -3..-1e-6) is pinned
    here: one sha256 over the comma-joined counts of n = 0..360 per
    configuration, recorded with the per-node contour.  The counts sum to
    the roots the scans return.
    """

    CONFIGS = [
        (TE_FAST, 300.0, 1556, "22222adccc90c0e9"),
        (BoundaryDamping(2.0), 300.0, 6236, "02275e7d5f675367"),
        (DeltaPotential(1.0, 5.0 / 6.0), 300.0, 6261, "8b74ab267bf951f2"),
        (TransparentObstacle(0.5, 1.3), 210.0, 1354, "1b3e922b3058d46c"),
    ]

    @staticmethod
    def boxes(re_hi):
        cap = qsabine.disk.TANGENT_CAP
        return [(n, (max(200.0, n / cap), re_hi, -3.0, qsabine.disk._IM_CEILING))
                for n in range(361) if n / cap < re_hi]

    @staticmethod
    def digest(counts):
        return hashlib.sha256(",".join(map(str, counts)).encode()).hexdigest()[:16]

    @pytest.mark.parametrize("problem, re_hi, roots, pinned", CONFIGS)
    def test_per_node_counts_are_pinned(self, problem, re_hi, roots, pinned):
        counts = [winding_number(problem, n, box) for n, box in self.boxes(re_hi)]
        assert sum(counts) == roots
        assert self.digest(counts) == pinned

    @pytest.mark.parametrize("problem, re_hi, roots, pinned", CONFIGS)
    def test_lattice_counts_equal_per_node_counts(self, problem, re_hi, roots, pinned):
        # The scan's tasks carry every mode's lattice rows (one run of
        # consecutive modes, mode 0 included); each count that starts
        # from them must be the per-node count above, mode by mode.
        tasks = list(qsabine.disk._scan_tasks(problem, (200.0, re_hi), -3.0, range(361)))
        boxes = self.boxes(re_hi)
        assert [(n, box[:2]) for n, box in boxes] == [(n, (lo, hi)) for (n, lo, hi), _, _ in tasks]
        assert all(rows is not None for _, _, rows in tasks)
        counts = [winding_number(problem, n, box, rows)
                  for (n, box), (_, _, rows) in zip(boxes, tasks)]
        assert sum(counts) == roots
        assert self.digest(counts) == pinned


class TestCountLattice:
    """The Bessel columns a scan shares across its modes' contour counts."""

    CONFIGS = [(cfg[0], cfg[1]) for cfg in TestModeCounts.CONFIGS]
    CEILING = qsabine.disk._IM_CEILING

    @staticmethod
    def record_pairs(monkeypatch):
        """Every (run, fn, n, w, pair) the lattice hands to a law's terms."""
        seen = []
        pair = qsabine.disk._LatticeRun.pair

        def recorded(run, fn, n, w):
            out = pair(run, fn, n, w)
            seen.append((run, fn, n, w, out))
            return out

        monkeypatch.setattr(qsabine.disk._LatticeRun, "pair", recorded)
        return seen

    @pytest.mark.parametrize("problem, re_hi", CONFIGS)
    def test_columns_match_amos_at_the_lattice_nodes(self, monkeypatch, problem, re_hi):
        # Every fifth mode's pairs against AMOS at the same nodes.  Largest
        # defects measured: 6.6e-13 relative on the floor (Im -3); on the
        # ceiling (Im -1e-6) 3.7e-13 of |C| + |C'|, although J and J' alone
        # differ by up to 3e-8 relative where they pass near a real zero.
        seen = self.record_pairs(monkeypatch)
        list(qsabine.disk._scan_tasks(problem, (200.0, re_hi), -3.0, range(361)))
        assert {fn for _, fn, *_ in seen} == (
            {jv} if isinstance(problem, BoundaryDamping) else {jv, hankel1})
        for _, fn, n, w, (c, cp) in seen:
            if n % 5:
                continue
            want, want_p = bessel_pair(fn, n, w)
            scale = np.abs(want) + np.abs(want_p)
            assert np.all(np.abs(c - want) <= 2e-12 * scale), (fn, n)
            assert np.all(np.abs(cp - want_p) <= 2e-12 * scale), (fn, n)
            assert np.all(np.abs(c[0] - want[0]) <= 2e-12 * np.abs(want[0])), (fn, n)
            assert np.all(np.abs(cp[0] - want_p[0]) <= 2e-12 * np.abs(want_p[0])), (fn, n)

    @pytest.mark.parametrize("floor", [-8.0, -50.0])
    def test_deep_floors_drop_rows_that_lost_digits(self, monkeypatch, floor):
        # Far below the axis the upward H^(1) recurrence amplifies its
        # rounding errors by up to e^(2 |Im|): without the probe, Im -20
        # gives H^(1) columns off by a factor of 68.  Rows whose probe
        # exceeds the growth bound are dropped (modes from 203 at Im -8,
        # from 108 at Im -50); the kept rows match AMOS to 1e-9, and
        # every eighth mode's count equals the per-node count.
        seen = self.record_pairs(monkeypatch)
        tasks = list(qsabine.disk._scan_tasks(TE_FAST, (200.0, 300.0), floor, range(361)))
        kept = {n for (n, _, _), _, rows in tasks if rows is not None}
        assert 0 < len(kept) < len(tasks)
        for _, fn, n, w, (c, cp) in seen:
            if n in kept and n % 5 == 0:
                want, want_p = bessel_pair(fn, n, w)
                scale = np.abs(want) + np.abs(want_p)
                assert np.all(np.abs(c - want) <= 1e-9 * scale), (fn, n)
                assert np.all(np.abs(cp - want_p) <= 1e-9 * scale), (fn, n)
        for (n, lo, hi), _, rows in tasks[::8]:
            box = (lo, hi, floor, self.CEILING)
            assert (winding_number(TE_FAST, n, box, rows)
                    == winding_number(TE_FAST, n, box)), n

    # TestBesselPairOracle's points in the lower half plane with n <= 500.
    ORACLE_POINTS = (
        (1, 30.0 - 50j), (40, 19990.0 - 50j), (100, 3000.0 - 50j),
        (400, 600.0 - 50j), (500, 500.0 - 1j),
    )

    def test_recurrence_against_mpmath(self):
        # J comes 40 orders down from its seeds, H^(1) up to 40 orders up
        # from its seeds, at one node each; mpmath at 30 digits.  In the
        # lower half plane H^(1) = J + i Y does not cancel.  The largest
        # defect measured is 1.5e-11, H^(1)_400(600 - 50i) (AMOS: 4e-14);
        # the others are at most 4e-13.  At the default floor, Im -3, the
        # columns of the default scans keep 6.6e-13 (test above).
        mpmath = pytest.importorskip("mpmath")
        for n, z in self.ORACLE_POINTS:
            run = qsabine.disk._LatticeRun(np.array([n + 40]))
            w = np.array([z])
            for k in range(max(0, n - 40), n + 1):
                pairs = [run.pair(fn, k, w) for fn in (jv, hankel1)]
            with mpmath.workdps(30):
                m = mpmath.mpc(z.real, z.imag)
                jp = mpmath.besselj(n, m, 1)
                want = [(mpmath.besselj(n, m), jp),
                        (mpmath.hankel1(n, m), jp + 1j * mpmath.bessely(n, m, 1))]
            for (c, cp), (v, vp) in zip(pairs, want):
                assert abs(complex(c[0]) - complex(v)) <= 1e-10 * abs(complex(v)), (n, z)
                assert abs(complex(cp[0]) - complex(vp)) <= 1e-10 * abs(complex(vp)), (n, z)

    def test_unrepresentable_rows_fall_back_per_node(self, monkeypatch):
        # A row that is not finite leaves its mode to the per-node contour,
        # and the recurrence's overflow raises no numpy warning.
        pair = qsabine.disk._LatticeRun.pair

        def spoiled(run, fn, n, w):
            c, cp = pair(run, fn, n, w)
            return (c * np.inf, cp) if n == 5 else (c, cp)

        monkeypatch.setattr(qsabine.disk._LatticeRun, "pair", spoiled)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tasks = list(qsabine.disk._scan_tasks(TE_FAST, (200.0, 215.0), -3.0, range(10)))
        assert [rows is None for *_, rows in tasks] == [n == 5 for n in range(10)]

    @pytest.mark.parametrize("modes", [[0], [0, 1], range(4), range(0, 30)])
    def test_scan_does_not_depend_on_the_lattice(self, monkeypatch, modes):
        # Runs of fewer than four modes count per node; longer ones, mode 0
        # (order -1) included, start from the lattice.  The roots agree
        # with an all-per-node scan, residuals and seed tags included.
        tasks = list(qsabine.disk._scan_tasks(TE_FAST, (200.0, 215.0), -3.0, modes))
        assert all((rows is None) == (len(modes) < 4) for *_, rows in tasks)
        with_lattice = scan(TE_FAST, (200.0, 215.0), -3.0, modes)
        monkeypatch.setattr(qsabine.disk, "_LATTICE_RUN", 10 ** 9)
        assert scan(TE_FAST, (200.0, 215.0), -3.0, modes) == with_lattice
        assert with_lattice

    def test_top_modes_beyond_the_last_node(self, monkeypatch):
        # On Re 200..250.2 the last lattice node is 249.70, but mode 300's
        # window starts at 250.0: it has no lattice nodes, counts per node
        # and does not belong to the run of modes 100..299.  Every count
        # and the roots agree with an all-per-node scan.
        modes = range(100, 301)
        tasks = list(qsabine.disk._scan_tasks(TE_FAST, (200.0, 250.2), -3.0, modes))
        assert [rows is None for *_, rows in tasks] == [n == 300 for n in modes]
        for (n, lo, hi), _, rows in tasks:
            box = (lo, hi, -3.0, self.CEILING)
            assert (winding_number(TE_FAST, n, box, rows)
                    == winding_number(TE_FAST, n, box)), n
        with_lattice = scan(TE_FAST, (200.0, 250.2), -3.0, modes)
        monkeypatch.setattr(qsabine.disk, "_LATTICE_RUN", 10 ** 9)
        assert scan(TE_FAST, (200.0, 250.2), -3.0, modes) == with_lattice
        assert with_lattice

    def test_run_covers_only_its_windows(self, monkeypatch):
        # Modes 1000..1003 of Re 200..1400 start at Re 833.3.  At Re 200,
        # where none of them looks, H_1003 would overflow.  A recurrence
        # is set up at the nodes of its first request, which lie inside
        # the run's windows, and never goes elsewhere.
        seen = self.record_pairs(monkeypatch)
        tasks = list(qsabine.disk._scan_tasks(TE_FAST, (200.0, 1400.0), -3.0, range(1000, 1004)))
        assert min(w.real.min() for _, fn, _, w, _ in seen if fn is jv) > 833.3 / TE_FAST.c
        assert min(w.real.min() for _, fn, _, w, _ in seen if fn is hankel1) > 833.3
        for (n, lo, hi), _, rows in tasks:
            box = (lo, hi, -3.0, self.CEILING)
            assert rows is not None and rows[0][0] > lo
            assert (winding_number(TE_FAST, n, box, rows)
                    == winding_number(TE_FAST, n, box))

    def test_wide_window_counts(self):
        # At Re 200..1400 a lattice ring holds about 4,800 nodes, more than
        # the 3,840 bisection nodes a count may add; the ring is not charged
        # to that budget, so these counts equal the per-node ones.
        modes = [0, 1, 2, 3, 8, 9, 10, 11, 198, 199, 200, 201]
        tasks = list(qsabine.disk._scan_tasks(TE_FAST, (200.0, 1400.0), -3.0, modes))
        boxes = [(n, (lo, hi, -3.0, self.CEILING), rows) for (n, lo, hi), _, rows in tasks]
        counts = [winding_number(TE_FAST, n, box, rows) for n, box, rows in boxes]
        assert counts == [winding_number(TE_FAST, n, box) for n, box, _ in boxes]
        assert counts[6] == 191 and counts[10] == 132

    def test_short_runs_cost_no_more_amos(self, monkeypatch):
        # A lone mode keeps its per-node contour and so its AMOS cost; a
        # run of four shares its lattice and costs less than per node.
        elems = []

        def counted(fn):
            def call(*args):
                out = fn(*args)
                elems.append(np.size(out))
                return out
            return call

        for name in ("jv", "hankel1"):
            monkeypatch.setattr(qsabine.disk, name, counted(getattr(qsabine.disk, name)))

        def cost(modes, lattice):
            monkeypatch.setattr(qsabine.disk, "_LATTICE_RUN", 4 if lattice else 10 ** 9)
            elems.clear()
            scan(DeltaPotential(1.0, 5.0 / 6.0), (1001.0, 1047.0), -4.0, modes)
            return sum(elems)

        assert cost([1000], True) == cost([1000], False)
        assert cost(range(1000, 1004), True) < cost(range(1000, 1004), False)


class TestOneLawBothLayers:
    """One boundary-law object is the scan's problem and the reflectivity
    of the one-bounce decay law, which each root of mode n follows at
    tangent frequency n / Re lambda (up to O(lambda^-2))."""

    # At v_exponent = 1 the delta coupling h sigma = v0 is the same at
    # every h, so the law needs no window-dependent semiclassical parameter.
    @pytest.mark.parametrize("law, tol", [
        (TE_FAST, 1e-5), (DeltaPotential(3.0, 1.0), 1e-3), (BoundaryDamping(2.0), 1e-5),
    ], ids=["transparent", "delta", "damping"])
    def test_roots_sit_on_the_one_bounce_law(self, law, tol):
        roots = scan(law, (200.0, 215.0), -3.0, range(0, 200, 7))
        q = one_bounce_quotients(law, [r.tangent_freq for r in roots])
        assert len(roots) > 25 and {r.problem for r in roots} == {law.tag}
        assert max(abs(r.lam.imag - qr) for r, qr in zip(roots, q)) < tol


class TestTracerContract:
    """perfbench/tracing.py counts AMOS elements by wrapping disk.jv and
    disk.hankel1 by name, so the secular formulas must look both up on
    the module at call time, the lattice's J recurrence included."""

    @pytest.mark.parametrize("law", [TE_FAST, DeltaPotential(3.0, 1.0), BoundaryDamping(2.0)],
                             ids=["transparent", "delta", "damping"])
    def test_wrapped_cylinders_are_called(self, monkeypatch, law):
        # n 0..7 is one run on the count lattice
        want = scan(law, (200.0, 215.0), -3.0, range(8))
        calls = {}
        for name, fn in (("jv", jv), ("hankel1", hankel1)):
            def counted(*args, _fn=fn, _name=name, **kwargs):
                calls[_name] = calls.get(_name, 0) + 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(qsabine.disk, name, counted)
        assert scan(law, (200.0, 215.0), -3.0, range(8)) == want
        assert set(calls) == ({"jv"} if law.tag == "damping" else {"jv", "hankel1"})


class TestResonanceCsv:
    def test_round_trip(self):
        res = scan(TE_FAST, (200.0, 230.0), -3.0, [0])
        buf = io.StringIO()
        write_resonance_csv(res, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == ",".join(RESONANCE_CSV_HEADER)
        assert len(lines) == 1 + len(res)
        row = lines[1].split(",")
        assert row[0] == "transparent"
        assert int(row[1]) == 0
        assert float(row[2]) == res[0].lam.real
        assert float(row[3]) == res[0].lam.imag
        assert float(row[4]) == res[0].residual
        assert row[5] == "normal"
        assert float(row[6]) == res[0].tangent_freq

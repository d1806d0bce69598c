"""Acceptance suite: every advertised numerical property, measured.

Ten independent checks, one per headline claim of the package, each
returning a pass/fail verdict together with the measured numbers so a
failure report is actionable.  The checks recompute everything from the
public API; nothing is read from fixtures.  ``run_all`` executes them in
order and is what the ``qsabine verify`` command calls.

Four checks carry wall-time budgets (TIME_LIMITS).  The budgets are
not folded into the verdicts, so a slow machine cannot flip numerics to
FAIL; ``qsabine verify`` prints each check's elapsed time, and the test
suite asserts the budgets.
"""
from __future__ import annotations

import cmath
import dataclasses
import math
import time
from typing import Callable, List, Optional

import numpy as np

from . import specfun as sf
from .billiards import ConvexDomain, PhasePoint, _billiard_steps, glancing_expansion_check
from .disk import newton_refine, scan, seed_glancing, seed_normal
from .reflectivity import (
    BoundaryDamping,
    DeltaPotential,
    TransparentObstacle,
    brewster,
)
from .sabine import glancing_bands, one_bounce_quotients, sabine_bounds

__all__ = ["CriterionResult", "run_all", "TIME_LIMITS"]

TIME_LIMITS = {
    "airy-bessel-identities": 10.0,
    "billiard-map": 30.0,
    "seed-convergence-rate": 60.0,
    "transparent-band-membership": 600.0,
}


def _sdiff(a, b, period: float):
    """Signed difference a - b on a circle of the given period, elementwise."""
    d = np.mod(a - b, period)
    return np.where(d > period / 2.0, d - period, d)


@dataclasses.dataclass(frozen=True)
class CriterionResult:
    name: str
    passed: bool
    measured: str
    elapsed: float


def _check_airy_bessel_identities(workers: int) -> tuple:
    # Connection formula and the outgoing-projection identity on the
    # real axis, then the cross-order Wronskian on a random box.
    conn = proj = 0.0
    for s in np.linspace(-20.0, 5.0, 200):
        ai = sf.airy(s).value
        am = sf.airy_minus(s).value
        rec = cmath.exp(-1j * math.pi / 3) * am + cmath.exp(1j * math.pi / 3) * am.conjugate()
        conn = max(conn, abs(ai - rec))
        lhs = (cmath.exp(-5j * math.pi / 6) * am).imag
        proj = max(proj, abs(lhs + ai / 2.0))
    rng = np.random.default_rng(2024)
    worst = 0.0
    accepted = 0
    attempts = 0
    while accepted < 100 and attempts < 2000:
        attempts += 1
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
            continue
        worst = max(worst, q.wronskian_defect())
        accepted += 1
    ok = conn < 1e-9 and proj < 1e-9 and worst < 1e-9 and accepted == 100
    measured = (f"connection {conn:.1e}, projection {proj:.1e}, "
                f"wronskian {worst:.1e} over {accepted} samples (all < 1e-9)")
    return ok, measured


def _check_glancing_symbols(workers: int) -> tuple:
    table = sf.airy_zeros(10)
    worst_sl = max(abs(sf.friedlander_symbols(z).single_layer - 1.0)
                   for z in table.zeros)
    s = sf.friedlander_symbols(-25.0)
    r_sl = abs(s.single_layer - 1.0)
    r_dl = abs(s.double_layer / 25.0 - 1.0)
    r_mx = abs(abs(s.mixed) / 5.0 - 1.0)
    ok = worst_sl < 1e-8 and r_sl < 0.01 and r_dl < 0.01 and r_mx < 0.01
    measured = (f"single layer at zeros off by {worst_sl:.1e} (< 1e-8); "
                f"x=-25 ratios off by {r_sl:.1e}/{r_dl:.1e}/{r_mx:.1e} (< 1%)")
    return ok, measured


def _check_band_heights(workers: int) -> tuple:
    table = sf.airy_zeros(10)
    worst = 0.0
    for z, imphi in zip(table.zeros, table.im_phi_minus):
        am = abs(sf.airy_minus(z).value)
        aip = abs(sf.airy(z).derivative)
        closed = -1.0 / (8.0 * math.pi ** 2 * am ** 3 * aip)
        worst = max(worst, abs(imphi - closed) / abs(closed))
    ok = worst < 1e-8
    return ok, f"band height vs closed form, max rel {worst:.1e} (< 1e-8) over 10 zeros"


def _check_billiard_map(workers: int) -> tuple:
    disk = ConvexDomain.disk()
    rng = np.random.default_rng(7)
    s, xi = np.array([(rng.uniform(0.0, disk.perimeter), rng.uniform(-0.95, 0.95))
                      for _ in range(50)]).T
    _, xi1, chord = _billiard_steps(disk, s, xi)
    worst_chord = float(np.max(np.abs(chord - 2.0 * np.sqrt(1.0 - xi * xi))))
    worst_xi = float(np.max(np.abs(xi1 - xi)))
    worst_det = 0.0
    for dom in (disk, ConvexDomain.ellipse(1.5, 1.0)):
        L = dom.perimeter
        hs, hx = 1e-5 * L, 1e-5
        s, xi = np.array([(rng.uniform(0.0, L), rng.uniform(-0.8, 0.8))
                          for _ in range(50)]).T
        s1, xi1, _ = _billiard_steps(dom, np.concatenate([s + hs, s - hs, s, s]),
                                     np.concatenate([xi, xi, xi + hx, xi - hx]))
        (ssp, ssm, sxp, sxm), (xsp, xsm, xxp, xxm) = s1.reshape(4, 50), xi1.reshape(4, 50)
        det = (_sdiff(ssp, ssm, L) / (2 * hs) * (xxp - xxm) / (2 * hx)
               - (xsp - xsm) / (2 * hs) * _sdiff(sxp, sxm, L) / (2 * hx))
        worst_det = max(worst_det, float(np.max(np.abs(det - 1.0))))
    ell = ConvexDomain.ellipse(1.2, 1.0)
    qs = [PhasePoint(0.37 * ell.perimeter, 1.0 - e) for e in np.logspace(-1, -4, 10)]
    rep = glancing_expansion_check(ell, qs)
    ok = (worst_chord < 1e-12 and worst_xi < 1e-12 and worst_det < 1e-6
          and rep.normal_exponent >= 0.9 and rep.chord_exponent >= 0.9)
    measured = (f"disk chord/xi defects {worst_chord:.1e}/{worst_xi:.1e} (< 1e-12), "
                f"jacobian det off by {worst_det:.1e} (< 1e-6), glancing exponents "
                f"{rep.normal_exponent:.2f}/{rep.chord_exponent:.2f} (>= 0.9)")
    return ok, measured


def _check_seed_quotient(workers: int) -> tuple:
    worst = 0.0
    for c, alpha in ((2.0, 1.0), (2.0, 0.4), (0.5, 1.0), (0.5, 4.0)):
        law = TransparentObstacle(c, alpha)
        q = one_bounce_quotients(law, [0.0])[0]
        s = seed_normal(law, 3, 7)
        worst = max(worst, abs(s.imag - q))
    ok = worst < 1e-9
    return ok, f"seed height vs one-bounce quotient, max gap {worst:.1e} (< 1e-9), 4 parameter pairs"


def _check_seed_convergence(workers: int) -> tuple:
    problem = TransparentObstacle(2.0, 1.0)
    slopes = []
    for n in (0, 3):
        drift, res_re = [], []
        for k in range(10, 41, 3):
            s = seed_normal(problem, n, k)
            r = newton_refine(problem, n, s, 0.2, tag="normal")
            drift.append(abs(r.lam - s))
            res_re.append(r.lam.real)
        slopes.append(float(np.polyfit(np.log(res_re), np.log(drift), 1)[0]))
    ok = all(sl <= -0.8 for sl in slopes)
    return ok, f"seed-to-root drift slopes {slopes[0]:+.3f}, {slopes[1]:+.3f} (<= -0.8)"


def _band_membership(law, workers: int) -> tuple:
    """Scan Re 200..300, Im >= -3, n 0..360 and measure the fraction of
    roots inside the disk's Sabine band widened by 0.05 on each side.
    Returns (results, lo, hi, fraction)."""
    results = scan(law, (200.0, 300.0), -3.0, range(0, 361), workers=workers)
    band = sabine_bounds(ConvexDomain.disk(), law)
    lo, hi = band.lower - 0.05, band.upper + 0.05
    im = np.array([r.lam.imag for r in results])
    return results, lo, hi, float(np.mean((im >= lo) & (im <= hi)))


def _check_transparent_band(workers: int) -> tuple:
    model = TransparentObstacle(2.0, 1.0)
    results, _, _, inside = _band_membership(model, workers)
    # One-bounce decay curve through the low-angle cloud.
    tf = np.array([r.n / r.lam.real for r in results])
    cloud = tf <= 0.4
    pred = one_bounce_quotients(model, tf[cloud])
    im = np.array([r.lam.imag for r in results])
    worst_dev = float(np.max(np.abs(im[cloud] - pred), initial=0.0))
    ok = inside >= 0.95 and worst_dev <= 0.1
    measured = (f"{100 * inside:.2f}% of {len(results)} resonances in band +-0.05 "
                f"(>= 95%), low-angle cloud off curve by {worst_dev:.1e} (<= 0.1)")
    return ok, measured


def _check_brewster_contrast(workers: int) -> tuple:
    tm_law = TransparentObstacle(2.0, 0.4)
    xi_b = brewster(tm_law)
    tm = scan(tm_law, (200.0, 260.0), -8.0, range(50, 100), workers=workers)
    te = scan(TransparentObstacle(2.0, 1.0), (200.0, 260.0), -8.0, range(50, 100),
              workers=workers)
    te_floor = min(r.lam.imag for r in te)
    near = [r.lam.imag for r in tm if abs(2.0 * r.n / r.lam.real - xi_b) < 0.05]
    ok = bool(near) and all(v < 2.0 * te_floor for v in near)
    measured = (f"{len(near)} near-brewster resonances, Im <= {max(near):.3f} "
                f"vs doubled floor {2.0 * te_floor:.3f}" if near
                else "no resonances near the brewster tangency")
    return ok, measured


def _check_delta_glancing(workers: int) -> tuple:
    # The leading-order band is the delta1 -> 0 limit of the glancing
    # reduction, delta1 = 2^(1/3) n^(-1/6) / v0 (see seed_glancing).  At
    # v0 = 1 these modes give delta1 = 0.27-0.40 and |Im lambda| falls
    # 29-58% short of the band; v0 = 5 puts delta1 at 0.054-0.080, where the band
    # is the statement being tested.  Each window holds the first four
    # Airy roots of its mode: counted up from the turning point, the k-th
    # root belongs to band k and must be the root nearest its glancing
    # seed.  A root beyond the predicted bands fails the criterion.
    v0 = 5.0
    m_bands = 4
    rows = []
    delta1 = []
    for n in (1000, 1600, 2500, 4000, 6300, 9800):
        hi = n + 5.5 * n ** (1.0 / 3.0)
        h = 1.0 / n
        law = DeltaPotential(v0, 5.0 / 6.0, h)
        res = scan(law, (n + 0.5, hi), -4.0, [n], workers=workers)
        delta1.append(sf._CBRT2 * n ** (-1.0 / 6.0) / v0)
        bands = glancing_bands(law, m_bands)
        seeds = [seed_glancing(law, n, b.j) for b in bands]
        roots = sorted((r for r in res if 0.95 <= r.n / r.lam.real <= 1.0),
                       key=lambda r: r.lam.real)
        for k, r in enumerate(roots):
            if k >= m_bands:
                rows.append((r.lam.real, r.lam.imag, k, False))
                continue
            b = bands[k]
            nearest = int(np.argmin([abs(r.lam - s) for s in seeds]))
            val = h ** (2.0 / 3.0) * (r.lam * h).imag / b.im_phi_j
            rows.append((r.lam.real, r.lam.imag, k,
                         nearest == k and b.scale * 0.85 <= val <= b.scale * 1.15))
    frac = float(np.mean([r[3] for r in rows])) if rows else 0.0
    band1 = [(re, -im) for re, im, k, _ in rows if k == 0]
    if len(band1) >= 2:
        x = np.log([p[0] for p in band1])
        y = np.log([p[1] for p in band1])
        slope = float(np.polyfit(x, y, 1)[0])
    else:
        slope = math.nan
    ok = bool(rows) and frac == 1.0 and abs(slope) <= 0.05
    measured = (f"{sum(r[3] for r in rows)}/{len(rows)} in band ({100 * frac:.1f}%, "
                f"need 100%), band-1 growth exponent {slope:+.3f} (|.| <= 0.05), "
                f"v0 = {v0:g}, delta1 {min(delta1):.3f}-{max(delta1):.3f}")
    return ok, measured


def _check_damping_band(workers: int) -> tuple:
    results, lo, hi, inside = _band_membership(BoundaryDamping(2.0), workers)
    ok = inside == 1.0
    measured = (f"{100 * inside:.2f}% of {len(results)} eigenvalues in "
                f"[{lo:.4f}, {hi:.4f}] (need 100%)")
    return ok, measured


_CHECKS: List[tuple] = [
    ("airy-bessel-identities", _check_airy_bessel_identities),
    ("glancing-symbols", _check_glancing_symbols),
    ("airy-zero-band-heights", _check_band_heights),
    ("billiard-map", _check_billiard_map),
    ("seed-quotient-consistency", _check_seed_quotient),
    ("seed-convergence-rate", _check_seed_convergence),
    ("transparent-band-membership", _check_transparent_band),
    ("brewster-contrast", _check_brewster_contrast),
    ("delta-glancing-bands", _check_delta_glancing),
    ("damping-band-membership", _check_damping_band),
]


def run_one(name: str, workers: int = 0) -> CriterionResult:
    """Run a single named criterion."""
    body = dict(_CHECKS).get(name)
    if body is None:
        raise KeyError(f"unknown criterion {name!r}")
    start = time.monotonic()
    passed, measured = body(workers)
    return CriterionResult(name, bool(passed), measured, time.monotonic() - start)


def run_all(workers: int = 0) -> List[CriterionResult]:
    """Run every criterion and return the results in suite order."""
    return [run_one(name, workers) for name, _ in _CHECKS]

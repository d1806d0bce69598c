"""Scattering resonances of the unit disk for the three boundary laws.

For each angular mode n the outgoing solutions are governed by a secular
function f_n(lambda) built from Bessel and Hankel factors; resonances are
its zeros in the open lower half plane.  The problem is one of the
boundary laws of ``reflectivity``, the same object the Sabine band
takes, with constant parameters:

  TransparentObstacle(c, alpha)   wave-speed contrast c and coupling
                alpha across the circle:  f = c^-1 Jn'(lambda/c) Hn(lambda)
                                              - alpha Hn'(lambda) Jn(lambda/c)
  DeltaPotential(v0, v_exponent)  a frequency-scaled delta potential of
                strength V(lambda) = v0 lambda^v_exponent on the circle, in
                the Wronskian-reduced form  f = Jn Hn - 2i/(pi V)
  BoundaryDamping(a)              an absorbing boundary condition with
                damping a:  f = Jn' - i a Jn

Each law's formulas are one entry of a table keyed by its tag: its
cylinder functions, f with its derivative and the two terms whose
moduli normalize the residual, its seed table, and the amplitude a scan
needs constant.  The same formula serves point evaluation (Newton, with
guarded Bessel factors) and array evaluation (argument-principle
contours and the Newton guard).  The guard only tags roots, the counts
certify them, so it runs when Resonance.guarded is first read.

Zeros are located by a trust-region Newton iteration started from
asymptotic seed families (normal-incidence and transverse phase
conditions, Airy corrections for nearly glancing modes), many starts
in lockstep: one guarded AMOS array per cylinder function and round,
and each start's step in Python complex, bit for bit as alone.  The
normal-incidence family rides the diameter chord, so it is seeded only
inside the interior turning point c n < Re lambda.  It sees the
boundary only through r(0) = (1 - alpha c)/(1 + alpha c), so the
damping problem's n = 0 family is the transparent one at c = 1,
alpha = a.  A scan builds the seeds of all its modes first, as one
table: the chord phase conditions F(r) = target of every mode are
inverted together by the row-wise Brent solver of the billiard map
(Brent 1973), each row bit-identical to a scalar brentq.  Modes are
handed out in blocks of consecutive modes, one task per block, and a
task refines all of its block's seeds in one lockstep.
The result of a windowed scan is certified complete per mode by
argument-principle counts over the scan rectangle, with subdivision and
reseeding where the count disagrees with the roots in hand.  A count
tracks arg f node to node around the rectangle and bisects each boundary
segment until the phase is resolved on it (Delves & Lyness, Math.
Comp. 21, 1967), so it is an integer by construction or no count at
all.  The counter sees only a callable z -> (f, f'/f) on arrays, so it
counts any analytic f; a mode passes its secular function's.  Every
mode's box shares the scan's two horizontal edges, so a scan fills
their starting nodes once, on one lattice: the Bessel columns of each
run of consecutive modes come from the three-term order recurrence,
downward for J and upward for H^(1), seeded by AMOS (Gautschi, SIAM
Review 9, 1967), and each task carries its modes' edge rows of f, f'/f.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
import warnings
from collections import namedtuple
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from math import pi
from typing import Iterable, Union

import numpy as np
from scipy.special import hankel1, jv

from .billiards import _brentq_rows
from .reflectivity import BoundaryDamping, DeltaPotential, ReflectivityModel, TransparentObstacle
# bessel_quad is not called here: perfbench/tracing.py wraps it on this
# module by name.
from .specfun import BESSEL_ARG_MAX, BESSEL_IM_MAX, BESSEL_ORDER_MAX
from .specfun import (_CBRT2, ScaledMagnitudeError, _Downward, _Upward, airy_zeros, bessel_pair,
                      bessel_quad, bessel_rows, phi_minus)

__all__ = [
    "Resonance",
    "NoConvergenceError",
    "IncompleteScanWarning",
    "secular",
    "seed_normal",
    "seed_glancing",
    "newton_refine",
    "TANGENT_CAP",
    "check_scan_box",
    "pool_size",
    "scan",
    "RESONANCE_CSV_HEADER",
    "write_resonance_csv",
]

# Newton tolerances: a start point already this converged is a fixed
# point; iteration stops at the looser value; kept roots must beat the
# Resonance invariant.
_RESIDUAL_FIXED = 1e-12
_RESIDUAL_DONE = 1e-10

# Trust radius for normal/transverse family seeds.  Adjacent roots of
# one family are at least ~pi apart, and the uniqueness guard needs the
# trust disk small enough that the Hankel growth across it does not
# inflate the f'' bound; 0.2 passes the guard while still absorbing the
# O(1/Re lambda) seed error down to Re lambda ~ 10.
_SEED_TRUST = 0.2

# Airy-cluster starts carry larger model error (the expansion variable
# is only ~n^(-1/6) small), but neighboring cluster roots are at least
# ~1.4 n^(1/3) apart, so a wider trust disk is both needed and safe.
_GLANCING_TRUST = 1.5

# Scan plumbing: duplicate threshold, smallest cell worth splitting, and
# recursion cap for the completeness pass.
_DEDUP_TOL = 1e-6
_MIN_CELL = 1e-3
_MAX_DEPTH = 48

_SEED_TAGS = ("normal", "transverse", "glancing", "continuation")

# Fixed scan settings: the rectangle's ceiling just below the real axis;
# the largest tangent frequency n / Re lambda a scan admits (also a
# Resonance invariant); the largest reduced rotation denominator whose
# starts are tagged transverse; the glancing starts per delta mode; and
# the Airy-cluster starts per transparent or damping mode.
_IM_CEILING = -1e-6
TANGENT_CAP = 1.2
_Q_MAX = 12
_GLANCING_DEPTH = 4
_AIRY_STARTS = 6


class NoConvergenceError(RuntimeError):
    """Newton iteration failed; ``trace`` holds the visited points."""

    def __init__(self, message: str, trace: Iterable[complex]):
        super().__init__(message)
        self.trace = tuple(complex(z) for z in trace)


class IncompleteScanWarning(UserWarning):
    """Argument-principle count and located roots disagree in a cell.

    expected is the count, or None when it could not be resolved.  cause
    says why a cell was given up without subdivision: the secular
    function is not representable in double precision on its contour.
    """

    def __init__(self, n: int, box: tuple, expected, found: int, cause=None):
        self.n = int(n)
        self.box = tuple(float(b) for b in box)
        self.expected = expected
        self.found = int(found)
        self.cause = cause
        re_lo, re_hi, im_lo, im_hi = self.box
        if cause is not None:
            count = f"no winding count ({cause})"
        elif expected is None:
            count = "an unresolved winding count"
        else:
            count = f"winding count {expected}"
        super().__init__(
            f"mode n={n}: cell [{re_lo:.6f}, {re_hi:.6f}] x [{im_lo:.6f}, "
            f"{im_hi:.6f}] has {count} but {found} roots"
        )


@dataclass(frozen=True)
class Resonance:
    """One zero of the secular function in the lower half plane.

    residual is |f| at the zero relative to the local magnitude scale of
    the terms of f, so it stays meaningful under the exponential growth
    of the Hankel factor below the real axis.  seed names the start
    family of the refinement that was kept: when several starts of one
    mode converge to the same zero (within 1e-6), a scan keeps the one
    with the lowest residual, seed tag and guard flag included, so the
    tag need not be the first or the only family that reaches the zero.

    guarded is the trust-region certificate of the refinement
    (uniqueness of the zero in the start disk).  certificate holds it
    deferred: a bool when settled at refinement, else the arguments of
    the disk-uniqueness guard, which runs on the first read of guarded
    and is cached.  certificate takes no part in == or repr.
    """

    lam: complex
    n: int
    residual: float
    seed: str
    problem: str
    certificate: Union[bool, tuple] = field(default=True, compare=False, repr=False)

    def __post_init__(self):
        if not (self.lam.imag < 0.0 and self.lam.real > 0.0):
            raise ValueError(f"resonance must lie in the lower right quadrant: {self.lam!r}")
        if not (0.0 <= self.residual < 1e-8):
            raise ValueError(f"residual {self.residual!r} out of range")
        if self.n < 0:
            raise ValueError("mode index must be >= 0")
        if self.seed not in _SEED_TAGS:
            raise ValueError(f"unknown seed tag {self.seed!r}")
        if self.tangent_freq > TANGENT_CAP:
            raise ValueError(
                f"tangent frequency {self.tangent_freq!r} exceeds {TANGENT_CAP}:"
                " not a disk resonance"
            )

    @property
    def tangent_freq(self) -> float:
        """Mode index over real part, n / Re lambda."""
        return self.n / self.lam.real

    @functools.cached_property
    def guarded(self) -> bool:
        """The trust-region certificate, evaluated on first read."""
        if isinstance(self.certificate, tuple):
            return _newton_guard(*self.certificate)
        return self.certificate


# ---------------------------------------------------------------------------
# secular functions


def _second_derivative(n: int, z: complex, f: complex, fp: complex) -> complex:
    """f'' for any cylinder function via the Bessel equation."""
    return -(1.0 - (n * n) / (z * z)) * f - fp / z


def _check_v0(problem: DeltaPotential):
    """f and the glancing starts divide by V = v0 lambda^v_exponent."""
    if problem.v0 == 0:
        raise ValueError(f"the disk's delta problem needs v0 != 0, got {problem.v0!r}")


def _transparent_terms(problem: TransparentObstacle, n: int, z, pairs):
    (j, jp), (h, hp) = pairs
    c = problem.c
    alpha = problem.alpha
    w = z / c
    jpp = _second_derivative(n, w, j, jp)
    hpp = _second_derivative(n, z, h, hp)
    inner = jp * h / c
    outer = alpha * hp * j
    fp = jpp * h / (c * c) + jp * hp / c - alpha * (hpp * j + hp * jp / c)
    return inner - outer, fp, inner, outer


def _delta_terms(problem: DeltaPotential, n: int, z, pairs):
    _check_v0(problem)
    (j, jp), (h, hp) = pairs
    v = problem.v0 * z ** problem.v_exponent
    vp = problem.v0 * problem.v_exponent * z ** (problem.v_exponent - 1.0)
    jh = j * h
    f = jh - 2j / (pi * v)
    fp = jp * h + j * hp + (2j / pi) * vp / (v * v)
    return f, fp, jh, 2.0 / (pi * v)


def _damping_terms(problem: BoundaryDamping, n: int, z, pairs):
    ((j, jp),) = pairs
    jpp = _second_derivative(n, z, j, jp)
    f = jp - 1j * problem.a * j
    fp = jpp - 1j * problem.a * jp
    return f, fp, jp, problem.a * j


def _secular_rows(problem: ReflectivityModel, points) -> list:
    """(f, f', scale) at many (n, lambda) points, scale being the
    residual normalizer, or, unraised, the error of each point's first
    failing Bessel pair; one bessel_rows call per cylinder function."""
    law = _law(problem)
    orders = [n for n, _ in points]
    calls = zip(*(law.cylinders(problem, complex(lam)) for _, lam in points))
    columns = [bessel_rows(col[0][0], orders, [w for _, w in col]) for col in calls]
    rows = []
    for (n, lam), pairs in zip(points, zip(*columns)):
        error = next((p for p in pairs if isinstance(p, Exception)), None)
        if error is not None:
            rows.append(error)
            continue
        f, fp, a, b = law.terms(problem, n, complex(lam), pairs)
        scale = abs(a) + abs(b)
        rows.append((f, fp, scale if scale > 0.0 else 1.0))
    return rows


def secular(problem: ReflectivityModel, n: int, lam: complex) -> tuple:
    """Secular function and its lambda-derivative at one point.

    The derivative is analytic, assembled from the Bessel derivative
    recurrence and the Bessel differential equation; no differencing.
    The one-row case of _secular_rows.
    """
    (row,) = _secular_rows(problem, [(n, lam)])
    if isinstance(row, Exception):
        raise row
    return row[:2]


def _secular_array(problem: ReflectivityModel, n: int, z, pair=bessel_pair):
    """Vectorized (f, f') of the same formula, without Bessel guards."""
    law, z = _law(problem), np.asarray(z, dtype=complex)
    f, fp, _, _ = law.terms(problem, n, z, [pair(fn, n, w) for fn, w in law.cylinders(problem, z)])
    return f, fp


# ---------------------------------------------------------------------------
# asymptotic seeds


def seed_normal(problem: TransparentObstacle, n: int, k: int) -> complex:
    """Start point of the normal-incidence family of the transparent disk.

    Re lambda_0 = c (2 - sgn(1 - alpha c) + 2 n + 4 k) pi / 4 and
    Im lambda_0 = (c/2) log|(1 - alpha c)/(1 + alpha c)|, the reflection
    strength of a diameter-bouncing wave.
    """
    if not isinstance(problem, TransparentObstacle):
        raise TypeError("normal-incidence seeds exist for the transparent problem only")
    if abs(problem.alpha * problem.c - 1.0) < 1e-14:
        raise ValueError(
            "alpha c = 1 is degenerate: the normal reflection coefficient vanishes"
        )
    return _normal_start(problem.c, problem.alpha, n, k)


def _normal_sign(c: float, alpha: float) -> float:
    """sgn(1 - alpha c): the sign of the normal reflection coefficient."""
    return 1.0 if alpha * c < 1.0 else -1.0


def _normal_start(c: float, alpha: float, n: int, k: int) -> complex:
    """The start point of seed_normal, for any boundary with this r(0)."""
    ac = alpha * c
    re = c * (2.0 - _normal_sign(c, alpha) + 2.0 * n + 4.0 * k) * pi / 4.0
    im = 0.5 * c * math.log(abs((1.0 - ac) / (1.0 + ac)))
    return complex(re, im)


def _phase_integral(c: float, r: float) -> float:
    """F(r) = sqrt(r^2/c^2 - 1) - arcsec(r/c), increasing for r > c."""
    return math.sqrt(r * r / (c * c) - 1.0) - math.acos(c / r)


def _phase_integrals(c: float, r: np.ndarray) -> np.ndarray:
    """_phase_integral of every entry of r > c, bit for bit.

    Products, quotients, differences and square roots are single IEEE
    operations either way, but numpy's arccos is not math.acos to the
    last bit, so the arc secant is taken entry by entry.
    """
    arcsec = np.fromiter(map(math.acos, (c / r).tolist()), float, r.size)
    return np.sqrt(r * r / (c * c) - 1.0) - arcsec


def _invert_phases(c: float, targets) -> np.ndarray:
    """The r > c with F(r) = target for every target, in one Brent solve.

    Entry i is bit-identical to scipy's scalar brentq on F - targets[i]
    over [c (1 + 1e-13), c (targets[i] + pi/2 + 1)] with xtol 1e-13, and
    NaN where that call would raise: F - targets[i] keeps one sign over
    the bracket (a target <= 0), or the bracket ends at or below c, where
    it does so or F is undefined.
    """
    target = np.asarray(targets, dtype=float)
    lo = c * (1.0 + 1e-13)
    hi = c * (target + pi / 2.0 + 1.0)
    ok = hi > c
    f_lo = _phase_integral(c, lo) - target[ok]
    f_hi = _phase_integrals(c, hi[ok]) - target[ok]
    ok[ok] = (f_lo == 0.0) | (f_hi == 0.0) | (np.signbit(f_lo) != np.signbit(f_hi))
    radii = np.full(target.shape, np.nan)
    if ok.any():
        live = target[ok]
        radii[ok] = _brentq_rows(lambda r, rows: _phase_integrals(c, r) - live[rows],
                                 np.full(live.shape, lo), hi[ok])
    return radii


def _transverse_start(problem: TransparentObstacle, n: int, r: float):
    """(sgn, lambda_0) at radius ratio r = Re lambda / n > 1 on the
    transverse family: the sign of its reflection coefficient
    (nu - ww)/(nu + ww), and the start, None at the Brewster tangent
    nu = ww where the coefficient vanishes."""
    nu = math.sqrt(r * r / (problem.c * problem.c) - 1.0)
    ww = problem.alpha * math.sqrt(r * r - 1.0)
    sign = 1.0 if nu >= ww else -1.0
    if nu == ww:
        return sign, None
    return sign, complex(n * r, r / (2.0 * nu) * math.log(abs((nu - ww) / (nu + ww))))


def seed_glancing(problem: DeltaPotential, n: int, j: int) -> complex:
    """Start point of the j-th glancing resonance of the delta problem.

    Near lambda = n the mode sits an Airy length below the turning
    point; the potential shifts the j-th Airy zero by delta1 =
    2^(1/3) n^(2/3) / V and leaks at second order in delta1 through the
    outgoing log-derivative Phi_-.
    """
    if not isinstance(problem, DeltaPotential):
        raise TypeError("glancing seeds exist for the delta problem only")
    if n < 1 or j < 1:
        raise ValueError("need mode n >= 1 and band index j >= 1")
    return _glancing_start(problem, n, float(airy_zeros(j).zeros[j - 1]))


def _glancing_start(problem: DeltaPotential, n: int, zeta: float) -> complex:
    """seed_glancing at the Airy zero zeta."""
    _check_v0(problem)
    v = problem.v0 * float(n) ** problem.v_exponent
    n23 = float(n) ** (2.0 / 3.0)
    delta1 = _CBRT2 * n23 / v
    if delta1 > 0.75:
        raise ValueError(
            "potential too weak at this order for a glancing expansion "
            f"(first correction {delta1:.3g} is not small)"
        )
    u = zeta + delta1 - phi_minus(zeta) * delta1 * delta1
    return n * (1.0 - u / (_CBRT2 * n23))


# ---------------------------------------------------------------------------
# Newton refinement


def _newton_guard(problem, n, lam0, eps, a, b, scale0) -> bool:
    """Disk-uniqueness certificate a + d eps^2 < eps b < 1.

    a, b are |f|, |f'| at the center and d bounds |f''| on the trust
    disk, sampled through f' differences at eight boundary points; all
    three normalized by the center scale so the test is meaningful at
    any magnitude.
    """
    ring = lam0 + eps * np.exp(1j * np.arange(8) * (pi / 4.0))
    h = 1e-3 * eps
    _, fps = _secular_array(problem, n, np.concatenate([ring + h, ring - h]))
    if not np.all(np.isfinite(fps)):
        return False
    d = 1.5 * float(np.max(np.abs(fps[:8] - fps[8:]))) / (2.0 * h) / scale0
    return bool(a + d * eps * eps < eps * b < 1.0)


def newton_refine(
    problem: ReflectivityModel,
    n: int,
    lambda_0: complex,
    epsilon: float,
    *,
    tag: str = "continuation",
) -> Resonance:
    """Refine a start point to a resonance within trust radius epsilon.

    Stops once the scaled residual is below 1e-10.  A start point that
    is already below 1e-12 is returned unchanged.  The result is marked
    guarded when the zero lies inside the trust disk and the
    disk-uniqueness guard, built from |f|, |f'| and the scale at the
    start, passes.  The guard is not evaluated here: a zero inside the
    disk carries the guard's arguments as its certificate, and the guard
    runs when Resonance.guarded is first read, so refinements whose flag
    nobody reads never pay for it.

    Raises NoConvergenceError (with the visited points attached) on a
    vanishing derivative, three consecutive steps longer than epsilon,
    50 iterations without convergence, or convergence outside the open
    lower right quadrant.  The one-row case of _newton_rows.
    """
    (outcome,) = _newton_rows(problem, [(n, lambda_0, tag, epsilon)])
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


# What a refinement raises for its start alone; a scan drops the start.
_REFINE_ERRORS = (NoConvergenceError, ScaledMagnitudeError, ValueError)


def _newton_rows(problem: ReflectivityModel, rows) -> list:
    """newton_refine of many (n, lambda_0, tag, epsilon) rows in lockstep.

    Each round evaluates the live rows together (_secular_rows), then
    each row steps alone in Python complex (_newton_steps), so that its
    Resonance, or unraised error of _REFINE_ERRORS, keeps every bit.
    """
    outcomes = [None] * len(rows)
    live = [(i, row[0], _newton_steps(problem, *row)) for i, row in enumerate(rows)]
    values = [None] * len(live)
    while live:
        steps, live, points = live, [], []
        for (i, n, step), value in zip(steps, values):
            try:
                points.append((n, step.throw(value) if isinstance(value, Exception)
                               else step.send(value)))
                live.append((i, n, step))
            except StopIteration as done:
                outcomes[i] = done.value
            except _REFINE_ERRORS as err:
                outcomes[i] = err
        values = _secular_rows(problem, points)
    return outcomes


def _newton_steps(problem, n, lambda_0, tag, epsilon):
    """newton_refine of one row as a generator: it yields each point
    whose (f, f', scale) it is sent back, or thrown their error."""
    if not (math.isfinite(epsilon) and epsilon > 0.0):
        raise ValueError("trust radius must be positive")
    lam = complex(lambda_0)
    f, fp, scale = yield lam
    if not cmath.isfinite(f):
        raise NoConvergenceError("secular function not finite at the start point", (lam,))
    if abs(f) / scale < _RESIDUAL_FIXED:
        return Resonance(lam=lam, n=n, residual=abs(f) / scale, seed=tag, problem=problem.tag)
    lam0 = lam
    guard_args = (problem, n, lam0, epsilon, abs(f) / scale, abs(fp) / scale, scale)
    trace = [lam]
    oversize = 0
    for _ in range(50):
        if fp == 0:
            raise NoConvergenceError("derivative of the secular function vanished", trace)
        step = f / fp
        lam = lam - step
        trace.append(lam)
        if abs(step) > epsilon:
            oversize += 1
            if oversize >= 3:
                raise NoConvergenceError(
                    f"diverging from {lambda_0!r}: three consecutive steps "
                    "longer than the trust radius", trace,
                )
        else:
            oversize = 0
        f, fp, scale = yield lam
        if not cmath.isfinite(f):
            raise NoConvergenceError("secular function not finite during iteration", trace)
        if abs(f) / scale < _RESIDUAL_DONE:
            if not (lam.imag < 0.0 and lam.real > 0.0):
                raise NoConvergenceError(
                    f"converged to {lam!r}, outside the lower right quadrant", trace,
                )
            return Resonance(
                lam=lam, n=n, residual=abs(f) / scale, seed=tag, problem=problem.tag,
                certificate=guard_args if abs(lam - lam0) <= epsilon else False,
            )
    raise NoConvergenceError("no convergence within 50 iterations", trace)


# ---------------------------------------------------------------------------
# seed enumeration for scans


def _normal_seeds(c, alpha, n, re_lo, re_hi):
    """Normal-incidence starts of mode n with Re lambda_0 in [re_lo, re_hi].

    The boundary enters only through r(0) = (1 - alpha c)/(1 + alpha c);
    none exist at the matched impedance alpha c = 1.  The family rides
    the diameter chord, at interior tangent frequency c n / Re lambda
    = 0, and a chord exists only inside the interior turning point
    c n < Re lambda.  Past it J_n(lambda/c) no longer oscillates and is
    exponentially small (DLMF 10.19(ii), 10.20), so the family has no
    root there and the cut loses none; at n = 0 it is Re lambda_0 > 0.
    """
    if abs(alpha * c - 1.0) < 1e-14:
        return []
    base = 2.0 - _normal_sign(c, alpha) + 2.0 * n
    # from the first k inside the turning point, or the window if higher
    k_lo = math.ceil((4.0 * max(re_lo, c * n) / (c * pi) - base) / 4.0)
    k_hi = math.floor((4.0 * re_hi / (c * pi) - base) / 4.0)
    starts = (_normal_start(c, alpha, n, k) for k in range(k_lo, k_hi + 1))
    return [(lam0, "normal", _SEED_TRUST) for lam0 in starts if lam0.real > c * n]


def _transparent_table(problem, windows):
    """Normal, transverse and, for c > 1, Airy-cluster starts."""
    c, alpha = problem.c, problem.alpha
    sweeps = _transverse_sweeps(problem, windows)
    zetas = _airy_magnitudes()
    # the interior ray grazes the circle only for c > 1
    height = problem.glancing() if c > 1.0 else None
    out = []
    for (n, re_lo, re_hi), sweep in zip(windows, sweeps):
        seeds = _normal_seeds(c, alpha, n, re_lo, re_hi) + sweep
        if height is not None:
            seeds.extend(_airy_cluster(n, c, height, re_lo, re_hi, zetas))
        out.append(seeds)
    return out


def _transverse_sweeps(problem, windows):
    """Transverse starts of every (n, re_lo, re_hi) row with Re lambda_0 in it.

    Phase targets with reduced rotation denominator q <= _Q_MAX are the
    transverse family proper; the rest of the integer sweep reuses the
    same phase condition as plain continuation starts.  As in
    _delta_table, each mode's sweep starts at the window: a root radius
    below max(re_lo / n, 1) is never kept.  Each sign branch sigma is
    swept only on its side of the radius r_b where the reflection sign
    changes.  F is increasing, so both cuts bound the target, each
    widened by one target spacing pi / n; the checks after the solve
    still decide every start.
    """
    c, alpha = problem.c, problem.alpha
    # sgn(nu - ww) is that of nu^2 - ww^2 = slope r^2 - offset: it is
    # `outer` for r > r_b and the other sign inside r_b
    slope, offset = 1.0 / (c * c) - alpha * alpha, 1.0 - alpha * alpha
    if slope:
        outer, r_b = math.copysign(1.0, slope), math.sqrt(max(offset / slope, 0.0))
    else:
        outer, r_b = -math.copysign(1.0, offset), 0.0
    t_b = _phase_integral(c, max(r_b, c))
    rows = []
    for i, (n, re_lo, re_hi) in enumerate(windows):
        if n < 1 or re_hi / n <= c * (1.0 + 1e-9):
            continue
        step = pi / n
        t_hi = _phase_integral(c, re_hi / n)
        t_lo = _phase_integral(c, max(re_lo / n, 1.0, c)) - step
        for sigma in (1.0, -1.0):
            # F(r) = -(4k - sigma) pi / (4n) in (0, t_hi], and in [lo, hi]
            lo, hi = ((max(t_lo, t_b - step), t_hi) if sigma == outer
                      else (t_lo, min(t_b + step, t_hi)))
            k_lo = math.ceil(sigma / 4.0 - n * hi / pi)
            for k in range(k_lo, min(0, math.floor(sigma / 4.0 - n * lo / pi) + 1)):
                target = -(4.0 * k - sigma) * pi / (4.0 * n)
                if 0.0 < target <= t_hi:
                    rows.append((i, n, k, sigma, target))
    radii = _invert_phases(c, [row[-1] for row in rows]).tolist()
    out = [[] for _ in windows]
    for (i, n, k, sigma, _), r in zip(rows, radii):
        if not r > 1.0 + 1e-12:
            # Totally reflecting chord: the root hugs the real axis,
            # above any admissible scan ceiling.
            continue
        sign, lam0 = _transverse_start(problem, n, r)
        if sign != sigma or lam0 is None or lam0.real < windows[i][1]:
            continue
        q = n // math.gcd(n, -k)
        out[i].append((lam0, "transverse" if q <= _Q_MAX else "continuation", _SEED_TRUST))
    return out


def _airy_magnitudes():
    """|a_j| of the first _AIRY_STARTS zeros of Ai, the Airy-cluster table."""
    return [abs(float(zeta)) for zeta in airy_zeros(_AIRY_STARTS).zeros]


def _airy_cluster(n, c, im, re_lo, re_hi, zetas):
    """Airy-corrected starts where rays in a medium of speed c graze the circle.

    Near lambda = c n the order-n factor of argument lambda / c
    degenerates to an Airy function; its first zeros sit at lambda / c =
    n + |a_j| n^(1/3) / 2^(1/3), for the magnitudes |a_j| in zetas.  im
    is the start height, the law's glancing rate (the circle's curvature
    is 1).  Each start is tested against the window on its own: the sixth
    sits at 7.16 n^(1/3), beyond any fixed cut-off below it.
    """
    if n < 4:
        return []
    out = []
    for zeta in zetas:
        lam0 = complex(c * (n + zeta * n ** (1.0 / 3.0) / _CBRT2), im)
        if re_lo <= lam0.real <= re_hi:
            out.append((lam0, "glancing", _GLANCING_TRUST))
    return out


def _damping_table(problem, windows):
    """Phase-condition starts for the damping problem.

    The boundary phase theta = n F1(r) - pi/4 satisfies e^{2 i theta} =
    (t + a r)/(t - a r) with t = sqrt(r^2 - 1).  For n = 0 this is the
    exact normal-incidence family, the transparent one at c = 1,
    alpha = a; for n >= 1 it is the same condition at finite incidence.
    Nearly glancing modes get Airy starts instead:
    lambda = n + |a_j| n^(1/3)/2^(1/3) - i/a.  As in _delta_table, each
    mode's bulk sweep starts at the window, and each branch is swept
    only on its side of the radius where the sign of the ratio changes:
    bounds on the target widened by one spacing pi / n, as in
    _transverse_sweeps, with the checks after the solve deciding.
    """
    a = problem.a
    # ratio > 0, the plain phase's branch, holds where t > a r: outside
    # r = 1/sqrt(1 - a^2), at F = t_b, for a < 1, and nowhere for a >= 1
    t_b = _phase_integral(1.0, 1.0 / math.sqrt(1.0 - a * a)) if a < 1.0 else math.inf
    # bulk: solve Re theta = pi k (+ pi/2 on the overdamped branch)
    rows = []
    for i, (n, re_lo, re_hi) in enumerate(windows):
        if n == 0 or re_hi / n <= 1.0 + 1e-9:
            continue
        step = pi / n
        t_hi = _phase_integral(1.0, re_hi / n)
        t_lo = _phase_integral(1.0, max(re_lo / n, 1.0)) - step
        k_lo = max(0, math.floor((t_lo * n - pi / 4.0) / pi))
        k_hi = math.floor((t_hi * n - pi / 4.0) / pi) + 1
        for k in range(k_lo, k_hi + 1):
            for extra in (0.0, 0.5):
                target = (pi * (k + extra) + pi / 4.0) / n
                if t_lo <= target <= t_hi and (
                        target >= t_b - step if extra == 0.0 else target <= t_b + step):
                    rows.append((i, n, extra, target))
    radii = _invert_phases(1.0, [row[-1] for row in rows]).tolist()
    out = [[] for _ in windows]
    for (i, n, extra, _), r in zip(rows, radii):
        # r > 1, so t > 0 and |ratio| > 1: off the excised zero of
        # t - a r, ratio is finite and the start lies below the axis
        t = math.sqrt(r * r - 1.0)
        if abs(t - a * r) < 1e-12 * a * r:
            continue
        ratio = (t + a * r) / (t - a * r)
        # branch bookkeeping: ratio > 0 pairs with the plain
        # phase, ratio < 0 with the half-integer shift
        if (ratio > 0.0) != (extra == 0.0):
            continue
        lam0 = complex(n * r, -r / (2.0 * t) * math.log(abs(ratio)))
        if windows[i][1] <= lam0.real <= windows[i][2]:
            out[i].append((lam0, "normal", _SEED_TRUST))
    zetas, height = _airy_magnitudes(), problem.glancing()
    for (n, re_lo, re_hi), seeds in zip(windows, out):
        if n == 0:
            seeds.extend(_normal_seeds(1.0, a, 0, re_lo, re_hi))
        else:
            seeds.extend(_airy_cluster(n, 1.0, height, re_lo, re_hi, zetas))
    return out


def _delta_table(problem, windows):
    """Glancing Airy starts plus bulk phase-condition starts.

    The bulk solves e^{2 i theta} = 2 i lambda t / (r V) - 1 with theta =
    n F1 - pi/4 by two fixed-point passes Re theta = pi k + arg(rhs)/2,
    every row of the table in lockstep.
    """
    zetas = [float(zeta) for zeta in airy_zeros(_GLANCING_DEPTH).zeros]
    out = [[] for _ in windows]
    rows = []
    for i, (n, re_lo, re_hi) in enumerate(windows):
        if n >= 1:
            trust = max(0.5, 0.12 * float(n) ** (1.0 / 3.0))
            for zeta in zetas:
                try:
                    lam0 = _glancing_start(problem, n, zeta)
                except ValueError:
                    break
                if re_lo <= lam0.real <= re_hi:
                    out[i].append((lam0, "glancing", trust))
        if n == 0:
            t_lo, t_hi = re_lo - pi / 4.0, re_hi - pi / 4.0
        else:
            r_hi = re_hi / n
            if r_hi <= 1.0 + 1e-6:
                continue
            r_lo = max(re_lo / n, 1.0 + 1e-6)
            t_lo = n * _phase_integral(1.0, r_lo) - pi / 4.0
            t_hi = n * _phase_integral(1.0, r_hi) - pi / 4.0
        for k in range(math.ceil(t_lo / pi - 1.0), math.floor(t_hi / pi) + 2):
            rows.append((i, n, k, t_lo, t_hi))
    theta = [pi * k + pi / 2.0 for _, _, k, _, _ in rows]
    fixed = [None] * len(rows)  # (Re lambda, t, rhs) of the last pass
    live = range(len(rows))
    for _ in range(2):
        # a row whose theta leaves its range keeps its last pass
        live = [j for j in live if rows[j][3] - pi <= theta[j] <= rows[j][4] + pi]
        inverted = [j for j in live if rows[j][1] > 0]
        radii = _invert_phases(1.0, [(theta[j] + pi / 4.0) / rows[j][1] for j in inverted])
        radius = dict(zip(inverted, radii.tolist()))
        kept = []
        for j in live:
            n, k = rows[j][1], rows[j][2]
            lam_re = n * radius[j] if n else theta[j] + pi / 4.0
            fixed[j] = None
            if math.isnan(lam_re):
                continue
            t = math.sqrt(max(lam_re * lam_re - n * n, 0.0)) or lam_re
            rhs = 2j * t / problem.strength(lam_re) - 1.0
            fixed[j] = (lam_re, t, rhs)
            theta[j] = pi * k + 0.5 * cmath.phase(rhs)
            kept.append(j)
        live = kept
    for (i, *_), point in zip(rows, fixed):
        if point is None:
            continue
        lam_re, t, rhs = point
        im = -0.5 * math.log(abs(rhs)) / (t / lam_re)
        if im >= 0.0:
            continue
        lam0 = complex(lam_re, im)
        if windows[i][1] <= lam0.real <= windows[i][2]:
            out[i].append((lam0, "continuation", _SEED_TRUST))
    return out


# A law's disk formulas.  cylinders(problem, z) gives (fn, w) of each
# cylinder function of f, fn being this module's jv or hankel1 looked up
# at the call, so that wrapping either by name sees every call.
# terms(problem, n, z, pairs) gives f, f' and the two terms of f whose
# moduli sum to its scale, from the cylinders' pairs (C_n, C_n') at z, at
# a Python complex (the Newton path: guarded pairs and Python arithmetic,
# as numpy's complex abs and division differ in the last bit) or over an
# ndarray (contours and the Newton guard: unguarded, callers keep z inside
# the box).  amplitude names the parameter a scan needs constant, if any.
_Law = namedtuple("_Law", "cylinders terms seeds amplitude")
_LAWS = {
    TransparentObstacle.tag: _Law(lambda problem, z: ((jv, z / problem.c), (hankel1, z)),
                                  _transparent_terms, _transparent_table, None),
    DeltaPotential.tag: _Law(lambda problem, z: ((jv, z), (hankel1, z)),
                             _delta_terms, _delta_table, "v0"),
    BoundaryDamping.tag: _Law(lambda problem, z: ((jv, z),), _damping_terms, _damping_table, "a"),
}


def _law(problem) -> _Law:
    """The _LAWS entry of a boundary law; TypeError for anything else."""
    if not isinstance(problem, ReflectivityModel):
        raise TypeError(f"not a disk problem: {problem!r}")
    return _LAWS[problem.tag]


def _seed_table(problem, windows):
    """Seed lists of many modes, one (lambda_0, tag, trust) list per row.

    windows holds (n, re_lo, re_hi) rows; each window is widened by 3 on
    both sides.  The phase conditions of all rows are inverted together
    by one batched Brent solve (two for the delta problem's fixed-point
    passes), and the Airy zeros are computed once per table.
    """
    pad = 3.0
    table = _law(problem).seeds
    return table(problem, [(n, re_lo - pad, re_hi + pad) for n, re_lo, re_hi in windows])


# ---------------------------------------------------------------------------
# argument-principle completeness


# Phase-tracked count: starting node spacing along each edge, bisection
# rounds, and the budget of bisection nodes of one count (the starting
# ring is not counted, so a wide window is not refused by its ring
# alone).  A segment is resolved when arg f moves by less than _MAX_DARG
# across it, the trapezoid value of Im of the integral of f'/f agrees
# with that increment to _TRAPEZOID_TOL, and it is no longer than the
# Newton distance |f/f'| at either end, so no zero near the edge hides
# inside.
_COUNT_SPACING = 2.0
_COUNT_ROUNDS = 30
_COUNT_NODES = 3840
_MAX_DARG = pi / 2.0
_TRAPEZOID_TOL = pi / 4.0

# Count lattice: the Re spacing of the nodes a scan shares on its two
# horizontal edges, fine enough that most segments resolve unbisected;
# the fewest consecutive modes that share them (a run of up to three
# modes can pay more AMOS for the lattice's seeds than for its own
# rings, so such modes keep the per-node contour).  The recurrences
# themselves are specfun's _Downward and _Upward.
_LATTICE_SPACING = _COUNT_SPACING / 4.0
_LATTICE_RUN = 4

# The most modes one scan task (a block) carries.  A queued block is
# pickled with its lattice rows, about 15 kB a mode: blocks of 16 raised
# a default pooled scan's peak RSS by 1.1 MB, blocks of 4 did not.
_BLOCK_MODES = 4


class _Unrepresentable(ArithmeticError):
    """A count's f or f' is not finite, or f is exactly 0, at a node.

    Far outside the turning region the disk's unscaled array Bessel
    factors underflow or overflow, so no subdivision of the cell helps.
    """


def _winding_number(log_derivative, box, rows=None):
    """Zeros minus poles of f inside the box by the argument principle,
    or None.

    log_derivative maps an array of nodes to (f, f'/f) there, f analytic
    near the box but for poles, and raises _Unrepresentable where it
    cannot represent them.  arg f is tracked node to node around the
    boundary: each edge starts at spacing _COUNT_SPACING and every
    unresolved segment is bisected (one batched call per round) until it
    is resolved.  rows, (x, f, f'/f) at Re nodes x inside the two
    horizontal edges (see _lattice_rows), replace the starting nodes
    there; corners, vertical edges and midpoints are evaluated here.
    The count is the sum of the principal increments of arg f over the
    resolved segments divided by 2 pi, an integer by construction.  None
    when a segment is still unresolved after _COUNT_ROUNDS bisections or
    _COUNT_NODES bisection nodes (e.g. a zero on the edge), or the total
    is negative.
    """
    re_lo, re_hi, im_lo, im_hi = box
    corners = [
        complex(re_lo, im_lo), complex(re_hi, im_lo),
        complex(re_hi, im_hi), complex(re_lo, im_hi),
    ]
    edges = []
    for start, stop in zip(corners, corners[1:] + corners[:1]):
        m = max(1, math.ceil(abs(stop - start) / _COUNT_SPACING))
        edges.append(start + (stop - start) * (np.arange(m) / m))
    if rows is None:
        za = np.concatenate(edges)
        fa, ga = log_derivative(za)
    else:
        za, fa, ga = _lattice_ring(log_derivative, edges, rows)
    zb = np.roll(za, -1)
    fb, gb = np.roll(fa, -1), np.roll(ga, -1)
    nodes = 0
    total = 0.0
    for bisections in range(_COUNT_ROUNDS + 1):
        dz = zb - za
        darg = np.angle(fb / fa)
        resolved = (
            (np.abs(darg) < _MAX_DARG)
            & (np.abs(0.5 * ((ga + gb) * dz).imag - darg) < _TRAPEZOID_TOL)
            & (np.abs(dz) * np.maximum(np.abs(ga), np.abs(gb)) <= 1.0)
        )
        total += float(np.sum(darg[resolved]))
        if resolved.all():
            count = round(total / (2.0 * pi))
            return count if count >= 0 else None
        open_ = ~resolved
        za, zb, fa, fb, ga, gb = (v[open_] for v in (za, zb, fa, fb, ga, gb))
        nodes += za.size
        if bisections == _COUNT_ROUNDS or nodes > _COUNT_NODES:
            return None
        zm = 0.5 * (za + zb)
        fm, gm = log_derivative(zm)
        za, zb = np.concatenate([za, zm]), np.concatenate([zm, zb])
        fa, fb = np.concatenate([fa, fm]), np.concatenate([fm, fb])
        ga, gb = np.concatenate([ga, gm]), np.concatenate([gm, gb])


def _count_zeros(log_derivative, box, rows=None):
    """The box's count, retried once on a contour a hair larger.

    rows serve the first contour only.  None when unresolved; raises
    _Unrepresentable when both contours meet a node where f cannot be
    represented.
    """
    unrepresentable = False
    try:
        count = _winding_number(log_derivative, box, rows)
    except _Unrepresentable:
        count, unrepresentable = None, True
    if count is None:
        # a hair of slack moves the contour off any offending zero; the
        # in-box test stays on the original edges either way
        re_lo, re_hi, im_lo, im_hi = box
        dr = 1e-9 * (re_hi - re_lo)
        di = 1e-9 * (im_hi - im_lo)
        try:
            count = _winding_number(
                log_derivative, (re_lo - dr, re_hi + dr, im_lo - di, im_hi + di))
        except _Unrepresentable:
            if unrepresentable:
                raise
    return count


def _lattice_ring(log_derivative, edges, rows):
    """(z, f, f'/f) of a box's starting ring whose horizontal edges are
    lattice rows: each edge's first node (a corner) and the vertical
    edges are evaluated here, the rest comes from rows."""
    x, f, g = rows
    z = x + 1j * np.array([[edges[0][0].imag], [edges[2][0].imag]])
    own = [edges[0][:1], edges[1], edges[2][:1], edges[3]]
    cuts = np.cumsum([e.size for e in own])[:-1]
    z_own = np.concatenate(own)

    def ring(own_values, lattice):
        a, b, c, d = np.split(own_values, cuts)
        return np.concatenate([a, lattice[0], b, c, lattice[1, ::-1], d])

    return (ring(z_own, z),) + tuple(map(ring, log_derivative(z_own), (f, g)))


def _log_derivative(problem, n, z, pair=bessel_pair):
    """(f, f'/f) at the nodes z; _Unrepresentable unless f and f' are
    finite and f is nonzero at every node."""
    f, fp = _secular_array(problem, n, z, pair)
    if not (np.all(np.isfinite(f)) and np.all(np.isfinite(fp))):
        raise _Unrepresentable(f"f or f' of mode {n} is not finite at a contour node")
    if not np.all(f != 0.0):
        raise _Unrepresentable(f"f of mode {n} underflows to 0 at a contour node")
    return f, fp / f


class _LatticeRun:
    """Bessel columns of a run of consecutive modes on the count lattice.

    pair stands in for bessel_pair in a law's terms, so the lattice
    rows come from the one secular formula.  A cylinder function's first
    request, at the run's first mode and so at all of the run's nodes,
    sets up its recurrence: downward for J, upward for H^(1).  tops holds
    the highest mode of the run whose window contains each node.
    """

    def __init__(self, tops):
        self.tops = tops
        self.recurrences = {}

    def pair(self, fn, n, w):
        recurrence = self.recurrences.get(fn)
        if recurrence is None:
            recurrence = _Downward(fn, w, n, self.tops) if fn is jv else _Upward(fn, w, n)
            self.recurrences[fn] = recurrence
        columns = dict(zip((n - 1, n), recurrence.columns(n, w.shape[-1])))
        return bessel_pair(lambda order, _: columns[order], n, w)


def _lattice_rows(problem, re_window, im_floor, windows):
    """Each window's edge rows on the scan's count lattice, in order.

    The lattice puts nodes at spacing about _LATTICE_SPACING strictly
    inside re_window on the scan's two horizontal edges, Im = im_floor
    and the ceiling.  A window's rows are (x, f, f'/f): x the k lattice
    Re nodes inside the window, ascending, and f, f'/f of shape (2, k),
    row 0 on the floor and row 1 on the ceiling.  The Bessel columns
    of every run of at least _LATTICE_RUN consecutive modes with
    lattice nodes are filled by the order recurrence, seeded by AMOS per
    run (see _LatticeRun).  None stands for a window left to the
    per-node contour: in a shorter run, without lattice nodes (a window
    may start beyond the last node), or whose rows are not finite and
    nonzero everywhere (which includes H^(1) columns that lost their
    digits far below the axis, see _Upward).  A generator, so that rows
    are built as the tasks are handed out.
    """
    re_lo, re_hi = re_window
    m = math.ceil((re_hi - re_lo) / _LATTICE_SPACING)
    x = re_lo + (re_hi - re_lo) * (np.arange(1, m) / m)
    grid = x + 1j * np.array([[im_floor], [_IM_CEILING]])
    firsts = np.searchsorted(x, [lo for _, lo, _ in windows], side="right")
    i = 0
    while i < len(windows):
        j = i + 1
        while j < len(windows) and windows[j][0] == windows[j - 1][0] + 1:
            j += 1
        # the run's top modes may start beyond the last lattice node
        stop = i + int(np.searchsorted(firsts[i:j], x.size))
        if stop - i < _LATTICE_RUN:
            stop = i
        else:
            nodes = np.arange(firsts[i], x.size)
            run = _LatticeRun(windows[i][0] - 1 + np.searchsorted(firsts[i:stop], nodes, side="right"))
            for k in range(i, stop):
                yield _edge_rows(problem, windows[k][0], x[firsts[k]:], grid[:, firsts[k]:], run)
        yield from [None] * (j - stop)
        i = j


def _edge_rows(problem, n, x, z, run):
    """(x, f, f'/f) of mode n at the lattice nodes z, or None unless
    representable there by the test of _log_derivative."""
    with np.errstate(all="ignore"):
        try:
            f, g = _log_derivative(problem, n, z, run.pair)
        except _Unrepresentable:
            return None
    return x, f, g


def _in_box(lam: complex, box) -> bool:
    re_lo, re_hi, im_lo, im_hi = box
    return re_lo <= lam.real <= re_hi and im_lo <= lam.imag <= im_hi


def _absorb(roots: list, cand: Resonance, box) -> bool:
    """Keep cand if it lies in the scan box and is not a duplicate.

    A duplicate (within _DEDUP_TOL of a kept root) whose residual is
    lower replaces the kept root, seed tag and guard flag included; True
    only when cand adds a new root.
    """
    if not _in_box(cand.lam, box):
        return False
    for i, known in enumerate(roots):
        if abs(known.lam - cand.lam) <= _DEDUP_TOL:
            if cand.residual < known.residual:
                roots[i] = cand
            return False
    roots.append(cand)
    return True


def _split(box, n, depth):
    re_lo, re_hi, im_lo, im_hi = box
    jitter = ((n * 2654435761 + depth * 40503) % 9 - 4) / 4.0
    frac = 0.5 + 0.03 * jitter
    if (re_hi - re_lo) >= (im_hi - im_lo):
        mid = re_lo + frac * (re_hi - re_lo)
        return (re_lo, mid, im_lo, im_hi), (mid, re_hi, im_lo, im_hi)
    mid = im_lo + frac * (im_hi - im_lo)
    return (re_lo, re_hi, im_lo, mid), (re_lo, re_hi, mid, im_hi)


def _hunt(problem, n, box, roots, scan_box):
    """Newton casts from five interior points of a suspicious cell, in
    one lockstep."""
    re_lo, re_hi, im_lo, im_hi = box
    eps = max(10.0 * _MIN_CELL, math.hypot(re_hi - re_lo, im_hi - im_lo))
    starts = [
        (0.5, 0.5), (0.25, 0.25), (0.75, 0.25), (0.25, 0.75), (0.75, 0.75),
    ]
    casts = [(n, complex(re_lo + fx * (re_hi - re_lo), im_lo + fy * (im_hi - im_lo)),
              "continuation", eps) for fx, fy in starts]
    for cand in _newton_rows(problem, casts):
        if isinstance(cand, Resonance):
            _absorb(roots, cand, scan_box)


def _complete_cell(problem, n, box, roots, scan_box, incomplete, depth=0, rows=None):
    inside = sum(1 for r in roots if _in_box(r.lam, box))
    try:
        count = _count_zeros(functools.partial(_log_derivative, problem, n), box, rows)
    except _Unrepresentable as err:
        # splitting cannot cure it: report the cell at once
        incomplete.append((n, box, None, inside, str(err)))
        return
    if count is not None:
        if count == inside:
            return
        if count > inside and math.hypot(box[1] - box[0], box[3] - box[2]) < 2.0:
            _hunt(problem, n, box, roots, scan_box)
            inside = sum(1 for r in roots if _in_box(r.lam, box))
            if count == inside:
                return
    if depth < _MAX_DEPTH and max(box[1] - box[0], box[3] - box[2]) > _MIN_CELL:
        for child in _split(box, n, depth):
            _complete_cell(problem, n, child, roots, scan_box, incomplete, depth + 1)
        return
    incomplete.append((n, box, count, inside, None))


def _scan_block(problem, im_floor, block):
    """Each mode's resonances in its window and the cells it could not
    certify.  A task is a mode's (n, re_lo, re_hi) window, seed list and
    lattice edge rows (or None, see _lattice_rows); the seeds of all
    modes, but those below im_floor - 1, are refined in one lockstep."""
    seeds = [[(n, *seed) for seed in mode_seeds if not seed[0].imag < im_floor - 1.0]
             for (n, _, _), mode_seeds, _ in block]
    refined = iter(_newton_rows(problem, list(itertools.chain(*seeds))))
    out = []
    for ((n, re_lo, re_hi), _, rows), mode_seeds in zip(block, seeds):
        box = (re_lo, re_hi, im_floor, _IM_CEILING)
        roots: list = []
        for cand in itertools.islice(refined, len(mode_seeds)):
            if isinstance(cand, Resonance):
                _absorb(roots, cand, box)
        incomplete: list = []
        _complete_cell(problem, n, box, roots, box, incomplete, rows=rows)
        out.append((roots, incomplete))
    return out


def check_scan_box(problem: ReflectivityModel, re_window, im_floor: float, n_range):
    """Check a scan's window, floor and modes against the guarded box.

    Also checks what only the disk needs of the law: a delta or damping
    amplitude that is a positive constant.  Returns the window ends as
    floats and the sorted distinct modes.  Raises ValueError naming the
    bound a setting violates, and TypeError for an object that is not a
    boundary law.
    """
    law = _law(problem)
    re_lo, re_hi = float(re_window[0]), float(re_window[1])
    if not 1.0 < re_lo < re_hi:
        raise ValueError("need 1 < re_window[0] < re_window[1]")
    if re_hi > BESSEL_ARG_MAX - 200.0:
        raise ValueError("window exceeds the guarded special-function box")
    # the angular modes separate only for a constant amplitude, and a
    # profile would not pickle for the pool
    name = law.amplitude
    if name is not None:
        amplitude = getattr(problem, name)
        if callable(amplitude) or not amplitude > 0.0:
            raise ValueError(f"a disk scan needs a positive constant {name}, got {amplitude!r}")
    if re_lo < problem.c:
        raise ValueError(
            "window must start at or above c: the interior argument "
            "lambda / c would leave the guarded special-function box"
        )
    if re_hi / problem.c > BESSEL_ARG_MAX - 200.0:
        raise ValueError(
            f"window exceeds the guarded special-function box: the interior "
            f"argument re_window[1] / c = {re_hi / problem.c:.6g} is above "
            f"{BESSEL_ARG_MAX - 200.0:.6g}"
        )
    if not im_floor < _IM_CEILING:
        raise ValueError(f"need im_floor < {_IM_CEILING}")
    if im_floor < -BESSEL_IM_MAX:
        raise ValueError("im_floor below the guarded special-function box")
    requested = list(n_range)
    if any(n != int(n) for n in requested):
        raise ValueError("modes must be integers")
    modes = sorted({int(n) for n in requested})
    if modes and modes[0] < 0:
        raise ValueError("modes are indexed by n >= 0 (negative n is redundant)")
    if modes and modes[-1] > BESSEL_ORDER_MAX:
        raise ValueError("mode index beyond the guarded special-function box")
    return re_lo, re_hi, modes


def pool_size(workers: int, n_modes: int) -> int:
    """Processes a scan of n_modes distinct modes starts for ``workers``.

    At most one per mode; 0 means the scan runs serially, without a pool.
    """
    size = min(int(workers), int(n_modes))
    return size if size > 1 else 0


def _scan_tasks(problem, re_window, im_floor, modes):
    """The (window, seeds, lattice rows) task of every mode with a window.

    Each mode's window is clipped to tangent frequencies <= TANGENT_CAP.
    The seed table is built at once; the lattice rows as tasks are drawn.
    """
    re_lo, re_hi = re_window
    windows = [(n, max(re_lo, n / TANGENT_CAP), re_hi) for n in modes if n / TANGENT_CAP < re_hi]
    return zip(windows, _seed_table(problem, windows),
               _lattice_rows(problem, re_window, im_floor, windows))


def _chunks(items, size):
    """Lists of size consecutive items (the last may be shorter), drawn
    from the iterable as each list is asked for."""
    items = iter(items)
    while chunk := list(itertools.islice(items, size)):
        yield chunk


def _pool_map(pool, job, tasks, chunk):
    """pool.map over tasks in chunks of chunk tasks, in order.

    The next chunk is drawn and queued before the last one is collected,
    so the workers stay busy while at most two chunks of tasks, lattice
    rows included, are alive at once.
    """
    outcomes, pending = [], []
    for part in _chunks(tasks, chunk):
        queued = pool.map(job, part)
        outcomes.extend(pending)
        pending = queued
    outcomes.extend(pending)
    return outcomes


def scan(
    problem: ReflectivityModel,
    re_window,
    im_floor: float,
    n_range,
    *,
    workers: int = 0,
) -> list:
    """All resonances in a window, certified complete mode by mode.

    Every integer mode n in n_range is swept over the rectangle
    [re_window] x [im_floor, -1e-6], clipped per mode to tangent
    frequencies n / Re lambda <= 1.2.  Seeds of every
    applicable asymptotic family are refined by trust-region Newton,
    whose uniqueness guard runs only when Resonance.guarded is read
    (normal-incidence starts only inside the interior turning point
    c n < Re lambda, transverse starts tagged as such up to rotation
    denominator 12, and the first four glancing starts per delta mode); an
    argument-principle count over the rectangle then certifies the root
    list, with binary subdivision and fresh Newton casts wherever the
    count disagrees.  The seeds of all modes are built first, as one
    table, so that every phase condition of the scan is inverted in one
    batched Brent solve.  Each run of at least four consecutive modes
    starts its counts from rows on one lattice along the rectangle's two
    horizontal edges, filled by the order recurrence as the modes are
    handed out.  Cells whose count never reconciles are reported
    through IncompleteScanWarning, and so, at once and without
    subdivision, are cells on whose contour the secular function is not
    representable in double precision.

    Modes are handed out in ascending order, so the costly low modes
    start first, in blocks of up to four consecutive modes with their
    seeds and lattice rows; a block's seeds are refined in one lockstep.
    workers > 1 distributes the blocks over a process pool of
    pool_size(workers, modes) processes: never more than one per distinct
    mode, and none at all (a serial scan) when that leaves at most one.
    There are at least as many blocks as processes.  They are queued in
    chunks of two per process, each chunk drawn while the one before it
    runs, so a worker seldom waits for the lattice rows of its next
    block, and at most four blocks per process are alive at once.
    Results are merged in a stable (Re lambda, n) order either way, so
    the output is deterministic for a fixed configuration.
    """
    re_lo, re_hi, modes = check_scan_box(problem, re_window, im_floor, n_range)
    tasks = _scan_tasks(problem, (re_lo, re_hi), float(im_floor), modes)
    job = functools.partial(_scan_block, problem, float(im_floor))
    size = pool_size(workers, len(modes))
    blocks = _chunks(tasks, min(_BLOCK_MODES, len(modes) // size) if size else _BLOCK_MODES)
    if size:
        with ProcessPoolExecutor(max_workers=size) as pool:
            outcomes = _pool_map(pool, job, blocks, 2 * size)
    else:
        outcomes = map(job, blocks)
    found: list = []
    for mode_roots, incomplete in itertools.chain.from_iterable(outcomes):
        found.extend(mode_roots)
        for cell in incomplete:
            warnings.warn(IncompleteScanWarning(*cell))
    found.sort(key=lambda r: (r.lam.real, r.n))
    return found


# ---------------------------------------------------------------------------
# CSV emission


RESONANCE_CSV_HEADER = (
    "problem", "n", "re_lambda", "im_lambda", "residual", "seed", "tangent_freq",
)


def write_resonance_csv(resonances, stream) -> None:
    """Dump a resonance table as CSV.

    Floats are written with repr so the dump round-trips exactly and is
    byte-identical across runs of the same configuration.  No field
    needs quoting: the tags are words and the numbers are reprs.
    """
    stream.writelines(itertools.chain(
        [",".join(RESONANCE_CSV_HEADER) + "\n"],
        (f"{r.problem},{r.n},{r.lam.real!r},{r.lam.imag!r},{r.residual!r},{r.seed},"
         f"{r.tangent_freq!r}\n" for r in resonances),
    ))

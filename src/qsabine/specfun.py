"""Airy and Bessel building blocks for the resonance laboratory.

Everything downstream (reflectivity symbols, secular functions, glancing
bands) reduces to four kinds of evaluations collected here:

* the Airy function ``Ai`` and the outgoing combination
  ``A_-(z) = Ai(e^{2 pi i/3} z)``,
* the pairs ``(J_n, J_n')`` and ``(H^(1)_n, H^(1)_n')`` at complex
  argument, over guarded (order, point) rows or unguarded arrays, the
  quadruple of both, and their columns over consecutive orders by the
  three-term recurrence,
* the transition variable ``zeta(z)`` of the uniform large-order Bessel
  asymptotics,
* the glancing symbol functions built from ``Ai`` and ``A_-``.

Evaluation is delegated to scipy's AMOS routines; this module adds the
branch conventions, derivative recurrences, domain guards, and the
scaled-magnitude error protocol for arguments where the true value is not
representable in double precision.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
from scipy import special as _sp

__all__ = [
    "AiryPair",
    "BesselQuad",
    "AiryZeroTable",
    "FriedlanderSymbols",
    "ScaledMagnitudeError",
    "airy",
    "airy_minus",
    "phi_minus",
    "airy_zeros",
    "bessel_pair",
    "bessel_rows",
    "bessel_quad",
    "uniform_zeta",
    "uniform_zeta_prime",
    "friedlander_symbols",
]

# Rotation applied to the argument of A_-.
_ROT = cmath.exp(2j * math.pi / 3)

AIRY_ARG_MAX = 1.0e4
# Orders/arguments up to 5000 carry the documented accuracy guarantees
# (relative 1e-8, Wronskian defect 1e-9); the guard admits a wider box that
# AMOS still handles to better than 1e-9 in the regimes exercised here.
BESSEL_ORDER_MAX = 20000
BESSEL_ARG_MAX = 2.0e4
BESSEL_IM_MAX = 50.0

_ZETA_SEAM_HALF_WIDTH = 0.04
# zeta(z) = 2^(1/3) w (1 + sum c_k w^k), w = 1 - z.  Rational coefficients
# 3/10, 32/175, 1037/7875, ... derived symbolically from the closed form;
# truncation below 1e-19 relative inside the seam.
_ZETA_SEAM_COEFFS = (
    1.0,
    0.3,
    0.18285714285714286,
    0.13168253968253968,
    0.10263648732220161,
    0.08387863818720961,
    0.07077425964914401,
    0.06111505876706549,
    0.05371015637698648,
    0.047859685444150986,
    0.04312531454658283,
    0.03921863758555211,
    0.03594224534167755,
)
_CBRT2 = 2.0 ** (1.0 / 3.0)


class ScaledMagnitudeError(ArithmeticError):
    """The requested value over/underflows double precision.

    ``log_magnitude`` carries the estimated natural log of the dominant
    member's magnitude so callers can keep working at log scale.
    """

    def __init__(self, message: str, log_magnitude: float):
        super().__init__(message)
        self.log_magnitude = log_magnitude


@dataclass(frozen=True)
class AiryPair:
    """Value and derivative of an Airy-type solution at one point."""

    value: complex
    derivative: complex


@dataclass(frozen=True)
class BesselQuad:
    """J, H^(1) and their derivatives at fixed integer order.

    Derivatives follow the three-term relation f'_n = f_{n-1} - (n/z) f_n,
    so the quadruple is internally consistent by construction.
    """

    order: int
    argument: complex
    j: complex
    j_prime: complex
    h1: complex
    h1_prime: complex

    def wronskian_defect(self) -> float:
        """Defect of J_n H_n' - J_n' H_n against 2i/(pi z).

        Measured relative to the magnitude scale of the identity,
        max(|2i/(pi z)|, |J H'|, |J' H|).  For real arguments this equals
        the plain relative defect; for large |Im z| the products dwarf the
        right-hand side by e^{2 |Im z|} and cancellation beyond that scale
        is not representable in double precision.
        """
        target = 2j / (math.pi * self.argument)
        value = self.j * self.h1_prime - self.j_prime * self.h1
        scale = max(abs(target), abs(self.j * self.h1_prime), abs(self.j_prime * self.h1))
        return abs(value - target) / scale


@dataclass(frozen=True)
class AiryZeroTable:
    """First zeros of Ai with derivative values and Im Phi_- at each zero.

    ``zeros`` is decreasing (all negative), ``ai_prime[j]`` is Ai' at
    ``zeros[j]`` and ``im_phi_minus[j]`` is Im(A_-'/A_-) there.
    """

    zeros: np.ndarray
    ai_prime: np.ndarray
    im_phi_minus: np.ndarray

    def __len__(self) -> int:
        return len(self.zeros)


@dataclass(frozen=True)
class FriedlanderSymbols:
    """The three glancing symbol functions at a real argument.

    ``single_layer`` and ``double_layer`` are real and nonnegative;
    ``mixed`` is complex.  At Airy zeros ``single_layer`` equals 1, and as
    the argument x -> -infinity the three behave as 1, i sqrt(-x), -x.
    """

    single_layer: float
    mixed: complex
    double_layer: float


def _airy_log_magnitude(w: complex) -> float:
    """Estimated log |Ai(w)| from the leading exponential factor."""
    eta = (2.0 / 3.0) * w ** 1.5
    return -eta.real - 0.25 * math.log(abs(w)) - math.log(2.0 * math.sqrt(math.pi))


def airy(z: complex) -> AiryPair:
    """Evaluate Ai and Ai' at a complex point.

    Accurate to ~1e-10 relative for |z| <= 10 and ~1e-8 up to |z| = 1e4.
    Raises ScaledMagnitudeError when Ai overflows (arguments near the
    negative axis at large modulus), carrying the estimated log magnitude.
    """
    z = complex(z)
    if abs(z) > AIRY_ARG_MAX:
        raise ValueError(f"airy argument modulus {abs(z):.3g} exceeds {AIRY_ARG_MAX:.3g}")
    ai, aip, _, _ = _sp.airy(z)
    if not (cmath.isfinite(ai) and cmath.isfinite(aip)):
        raise ScaledMagnitudeError(
            f"Ai overflows double precision at z = {z}", _airy_log_magnitude(z)
        )
    if z.imag == 0.0:
        return AiryPair(complex(ai).real, complex(aip).real)
    return AiryPair(complex(ai), complex(aip))


def airy_minus(z: complex) -> AiryPair:
    """Evaluate A_-(z) = Ai(e^{2 pi i/3} z) and its z-derivative.

    The derivative includes the chain factor, so the pair solves the Airy
    equation in z.  A_- grows like e^{(2/3) z^{3/2}} on the positive axis
    and overflows near z ~ 104; that regime raises ScaledMagnitudeError.
    """
    z = complex(z)
    if abs(z) > AIRY_ARG_MAX:
        raise ValueError(f"airy_minus argument modulus {abs(z):.3g} exceeds {AIRY_ARG_MAX:.3g}")
    w = _ROT * z
    ai, aip, _, _ = _sp.airy(w)
    if not (cmath.isfinite(ai) and cmath.isfinite(aip)):
        raise ScaledMagnitudeError(
            f"A_- overflows double precision at z = {z}", _airy_log_magnitude(w)
        )
    return AiryPair(complex(ai), _ROT * complex(aip))


def phi_minus(s: complex) -> complex:
    """Logarithmic derivative Phi_-(s) = A_-'(s)/A_-(s)."""
    pair = airy_minus(s)
    if pair.value == 0:
        raise ZeroDivisionError(f"A_- vanishes at s = {s}")
    return pair.derivative / pair.value


def airy_zeros(count: int) -> AiryZeroTable:
    """Table of the first ``count`` (<= 100) zeros of Ai on the real axis.

    Zeros are accurate to 1e-10 absolute.  Im Phi_- at each zero is
    computed from the ratio A_-'/A_-; by the Wronskian of (Ai, A_-) it
    equals -pi Ai'(zeta_j)^2, which the test suite cross-checks.
    """
    if not 1 <= count <= 100:
        raise ValueError("count must be within 1..100")
    zeros, _, _, aip = _sp.ai_zeros(count)
    im_phi = np.array([phi_minus(float(x)).imag for x in zeros])
    return AiryZeroTable(zeros=zeros, ai_prime=aip, im_phi_minus=im_phi)


def _bessel_log_magnitude(n: int, z: complex) -> float:
    """log |H^(1)_n(z)| estimate in the order-dominated regime n > |z|."""
    x = abs(z) / n
    # exponent of the uniform asymptotics: n * ((2/3) zeta^{3/2}) at z/n = x
    phi = math.log((1.0 + math.sqrt(max(1.0 - x * x, 0.0))) / x) - math.sqrt(
        max(1.0 - x * x, 0.0)
    )
    return n * phi


def bessel_pair(fn, n: int, z):
    """(C_n, C_n') of the cylinder function C = fn at integer order n.

    ``fn`` is scipy's ``jv`` or ``hankel1``; the derivative follows the
    three-term relation C_n' = C_{n-1} - (n/z) C_n.  An ndarray ``z`` is
    evaluated without guards and non-finite entries propagate; ``n`` may
    then be an array of orders too.  Any other ``z`` is the one-row case
    of ``bessel_rows`` and raises the error that returns for its row.
    """
    if isinstance(z, np.ndarray):
        c = fn(n, z)
        return c, fn(n - 1, z) - (n / z) * c
    (pair,) = bessel_rows(fn, [n], [z])
    if isinstance(pair, Exception):
        raise pair
    return pair


def _box_point(n, z):
    """(int n, complex z), or ValueError outside the box of bessel_quad."""
    if n != int(n):
        raise ValueError("order must be an integer")
    n = int(n)
    if not 0 <= n <= BESSEL_ORDER_MAX:
        raise ValueError(f"order {n} outside 0..{BESSEL_ORDER_MAX}")
    z = complex(z)
    if not 1.0 <= abs(z) <= BESSEL_ARG_MAX:
        raise ValueError(f"argument modulus {abs(z):.3g} outside [1, {BESSEL_ARG_MAX:.3g}]")
    if abs(z.imag) > BESSEL_IM_MAX:
        raise ValueError(f"|Im z| = {abs(z.imag):.3g} exceeds {BESSEL_IM_MAX:.3g}")
    return n, z


def bessel_rows(fn, orders, points) -> list:
    """Guarded pairs (C_n, C_n') of fn at many (order, point) rows.

    The rows inside the box of ``bessel_quad`` are evaluated by one
    ndarray ``bessel_pair`` call; AMOS evaluates each element on its
    own, so every row keeps the bits it has alone.  Returns per row its
    pair as Python complex numbers or, unraised, its ValueError (outside
    the box) or ScaledMagnitudeError (C_n or C_n' overflows, or C_n
    underflows to zero where the order dominates).
    """
    out, rows = [], []
    for n, z in zip(orders, points):
        try:
            rows.append((len(out), *_box_point(n, z)))
            out.append(None)
        except ValueError as err:
            out.append(err)
    if rows:
        _, ns, zs = zip(*rows)
        c, cp = bessel_pair(fn, np.array(ns), np.array(zs, dtype=complex))
        for (i, n, z), ci, cpi in zip(rows, c.tolist(), cp.tolist()):
            out[i] = (ci, cpi)
            if not (cmath.isfinite(ci) and cmath.isfinite(cpi)):
                out[i] = ScaledMagnitudeError(
                    f"order-{n} cylinder function overflows double precision at z = {z}",
                    _bessel_log_magnitude(n, z))
            elif ci == 0 and n > abs(z):
                out[i] = ScaledMagnitudeError(
                    f"order-{n} cylinder function underflows double precision at z = {z}",
                    -_bessel_log_magnitude(n, z))
    return out


def bessel_quad(n: int, z: complex) -> BesselQuad:
    """Evaluate the quadruple (J_n, J_n', H^(1)_n, H^(1)_n') at complex z.

    Parameters
    ----------
    n : integer order, 0 <= n <= 20000 (accuracy guarantees documented for
        n <= 5000).
    z : complex argument with 1 <= |z| <= 2e4 and |Im z| <= 50.

    Raises
    ------
    ScaledMagnitudeError
        when the order so dominates the argument that H overflows (or J
        underflows) double precision; carries log |H| (or log |J|) at the
        failure.
    """
    h, hp = bessel_pair(_sp.hankel1, n, z)
    j, jp = bessel_pair(_sp.jv, n, z)
    return BesselQuad(order=int(n), argument=complex(z), j=j, j_prime=jp, h1=h, h1_prime=hp)


# ---------------------------------------------------------------------------
# Bessel columns by the three-term order recurrence, over a run of
# consecutive orders at fixed nodes (the disk scan's count lattice).  Each
# object hands out (C_(n-1), C_n) for ascending n, at the last ``size``
# nodes.  _LATTICE_BLOCK orders of J are recomputed and held at once; the
# upward H^(1) recurrence may let rounding errors grow by _LATTICE_GROWTH
# (about 3e-16 times it, measured, so at most ~3e-10 relative; Im -3
# incurs 202, Im -8 up to 7e6).
_LATTICE_BLOCK = 32
_LATTICE_GROWTH = 1e6


def _tail(v, size):
    """The last size nodes of a lattice row or row pair (size may be 0)."""
    return v[..., v.shape[-1] - size:]


class _Upward:
    """(C_(n-1), C_n) of H^(1), n ascending, by the upward recurrence.

    Seeded by AMOS at the run's first two orders, then C_(k+1) =
    (2k/w) C_k - C_(k-1) (Gautschi, SIAM Review 9, 1967; DLMF
    10.74(iv)).  Upward is stable where H^(1) dominates: beyond the
    turning point, k > |w|, and below it near the real axis.  Far below
    the axis H^(2) gains on H^(1) as k grows towards |w|, by up to
    e^(2 |Im w|), and so does the rounding error.  A probe, the solution
    started from (0, C_n), measures that gain node by node: once it
    exceeds _LATTICE_GROWTH the node's columns are NaN, and the disk's
    count lattice counts the mode per node instead.  Each step is taken
    only at the nodes the asking mode needs, so that H^(1) cannot
    overflow where no mode looks.
    """

    def __init__(self, fn, w, n):
        self.w, self.n = w, n
        prev, cur = fn(n - 1, w), fn(n, w)
        # row 0 carries the columns, row 1 the probe
        self.prev, self.cur = np.stack([prev, np.zeros_like(w)]), np.stack([cur, cur])
        self.lost = np.zeros(w.shape, bool)

    def columns(self, n, size):
        w, prev, cur, lost = (_tail(v, size) for v in (self.w, self.prev, self.cur, self.lost))
        for k in range(self.n, n):
            prev, cur = cur, (2.0 * k / w) * cur - prev
            lost = lost | (np.abs(cur[1]) > _LATTICE_GROWTH * np.abs(cur[0]))
        self.w, self.n, self.prev, self.cur, self.lost = w, n, prev, cur, lost
        return np.where(lost, np.nan, prev[0]), np.where(lost, np.nan, cur[0])


class _Downward:
    """(C_(n-1), C_n) of the minimal cylinder function J, n ascending.

    Each node is seeded by AMOS at the two highest orders a mode of the
    run needs there (tops, and tops - 1); the downward recurrence
    C_(k-1) = (2k/w) C_k - C_(k+1) fills the orders below.  It is stable
    for the minimal solution beyond the turning point, and below it, in
    the lower half plane, J follows H^(1), which gains on H^(2) as k
    falls (measured: within 6e-13 of AMOS on the default lattice at
    Im -3 and at Im -50).  One sweep from the top keeps the recurrence
    state at the top of every _LATTICE_BLOCK orders, and a block is swept
    again into stored columns when a mode first asks for it: one block of
    columns is held at a time, and AMOS is called only for the seeds.
    """

    def __init__(self, fn, w, n, tops):
        self.w, self.lo, self.tops = w, n, tops
        self.hi = int(tops.max())
        self.seeds = fn(tops, w), fn(tops - 1, w)
        self.marks = {}
        state = (np.zeros_like(w), np.zeros_like(w))
        for start in reversed(range(n, self.hi + 1, _LATTICE_BLOCK)):
            self.marks[start] = state
            state = self._sweep(start, state)
        self.block = (None, None)

    def _sweep(self, start, state, out=None):
        """Recur from the top of start's block down to order start - 1.

        state is (C_(k+1), C_k) at the block's top order k, zero at the
        nodes not yet seeded; out[i], when given, receives order
        start - 1 + i.  Returns the state at order start - 1.
        """
        upper, cur = state
        high, low = self.seeds
        for k in range(min(start + _LATTICE_BLOCK - 1, self.hi), start - 1, -1):
            seeded = self.tops == k
            cur = np.where(seeded, high, cur)
            if out is not None:
                out[k - start + 1] = cur
            upper, cur = cur, np.where(seeded, low, (2.0 * k / self.w) * cur - upper)
        if out is not None:
            out[0] = cur
        return upper, cur

    def columns(self, n, size):
        start = n - (n - self.lo) % _LATTICE_BLOCK
        if self.block[0] != start:
            out = np.empty((min(_LATTICE_BLOCK, self.hi - start + 1) + 1,) + self.w.shape, complex)
            self._sweep(start, self.marks[start], out)
            self.block = (start, out)
        out = self.block[1]
        return _tail(out[n - start], size), _tail(out[n - start + 1], size)



def _zeta_seam(w: float) -> float:
    acc = 0.0
    for c in reversed(_ZETA_SEAM_COEFFS):
        acc = acc * w + c
    return _CBRT2 * w * acc


def uniform_zeta(z: float) -> float:
    """Transition variable zeta(z) of the uniform large-order asymptotics.

    Defined by (2/3) zeta^{3/2} = log((1 + sqrt(1-z^2))/z) - sqrt(1-z^2)
    for 0 < z < 1 and (2/3) (-zeta)^{3/2} = sqrt(z^2-1) - arcsec(z) for
    z > 1.  Monotone decreasing, zeta(1) = 0.  Valid for 1e-6 <= z <= 1e3;
    a series expansion takes over near z = 1 where the closed forms cancel.
    """
    z = float(z)
    if not 1.0e-6 <= z <= 1.0e3:
        raise ValueError(f"z = {z:.3g} outside [1e-6, 1e3]")
    w = 1.0 - z
    if abs(w) <= _ZETA_SEAM_HALF_WIDTH:
        return _zeta_seam(w)
    if z < 1.0:
        rhs = math.log((1.0 + math.sqrt(1.0 - z * z)) / z) - math.sqrt(1.0 - z * z)
        return (1.5 * rhs) ** (2.0 / 3.0)
    rhs = math.sqrt(z * z - 1.0) - math.acos(1.0 / z)
    return -((1.5 * rhs) ** (2.0 / 3.0))


def uniform_zeta_prime(z: float) -> float:
    """Derivative d zeta/dz; satisfies (zeta')^2 = (1-z^2)/(zeta z^2)."""
    z = float(z)
    w = 1.0 - z
    if abs(w) <= _ZETA_SEAM_HALF_WIDTH:
        acc = 0.0
        for k in reversed(range(len(_ZETA_SEAM_COEFFS))):
            acc = acc * w + (k + 1) * _ZETA_SEAM_COEFFS[k]
        return -_CBRT2 * acc
    zeta = uniform_zeta(z)
    return -math.sqrt((1.0 - z * z) / (zeta * z * z))


def friedlander_symbols(x: float) -> FriedlanderSymbols:
    """Glancing symbol functions at real argument x in [-30, 10].

    All three share the factor integral(Ai^2) from x to infinity, evaluated
    in closed form as Ai'(x)^2 - x Ai(x)^2.
    """
    x = float(x)
    if not -30.0 <= x <= 10.0:
        raise ValueError(f"x = {x:.3g} outside [-30, 10]")
    ai, aip, _, _ = _sp.airy(x)
    tail = aip * aip - x * ai * ai
    minus = airy_minus(x)
    scale = 4.0 * math.pi ** 2 * tail
    return FriedlanderSymbols(
        single_layer=float(scale * abs(minus.value) ** 2),
        mixed=complex(scale * minus.value * minus.derivative.conjugate()),
        double_layer=float(scale * abs(minus.derivative) ** 2),
    )

"""The three boundary laws and their pointwise reflection coefficients.

Each law is one frozen dataclass that holds its parameters, checks them,
names its CSV tag and computes its reflection coefficient r(x', xi) at a
tangential frequency |xi| < 1 and a boundary position.  The same object
is passed to the Sabine band (``sabine``) and to the disk resonance scan
(``disk``), whose secular functions read the same parameters:

* ``TransparentObstacle``: a penetrable interface between interior wave
  speed c and exterior speed 1, with normal-derivative coupling alpha,

      r = (sqrt(1 - xi**2) - alpha * sqrt(c**2 - xi**2))
          / (alpha * sqrt(c**2 - xi**2) + sqrt(1 - xi**2)).

  When c**2 < xi**2 the square root is taken on the branch with
  argument in (-pi/2, 3pi/2], which puts it on the positive imaginary
  axis and forces |r| = 1: total internal reflection.  c = 1 gives the
  constant r = (1 - alpha)/(1 + alpha), and c = alpha = 1 is free space.

* ``DeltaPotential``: a delta sheet on the boundary.  The disk scan uses
  its frequency-scaled strength V(lambda) = v0 lambda**v_exponent; the
  reflectivity uses the semiclassical symbol sigma = v0 * h**-v_exponent
  at the parameter h,

      r = h*sigma / (2i*sqrt(1 - xi**2) - h*sigma).

* ``BoundaryDamping``: an absorbing boundary with damping a(x') > 0,

      r = (sqrt(1 - xi**2) - a) / (a + sqrt(1 - xi**2)).

All three satisfy |r| <= 1.  Zeros of r (the Brewster angle of a
transmitting interface, critically matched damping, v0 = 0) make
log |r|**2 diverge; ``log_reflectivity`` signals them with the
dedicated ``TOTAL_TRANSMISSION`` value instead of a silent infinity.
Amplitude profiles v0(position) and a(position) serve the reflectivity
only: the disk scan needs constants (see ``disk.check_scan_box``).

Each law also states four facts: ``c``, the interior wave speed (1 but
for the obstacle); ``collar``, the Sabine grid's gap to glancing (1e-6,
or h**0.2 clamped to [1e-6, 0.5] for the delta potential, uniform only
up to |xi| <= 1 - h**eps); ``zeros()``, the known xi in [0, 1) where
r = 0 (the Brewster angle, sqrt(1 - a**2) for a constant damping a <= 1);
and ``glancing(position)``, the rate g with which the Sabine quotient of
a grazing ray tends to g kappa, kappa the curvature: for an obstacle,
-c / (alpha sqrt(c**2 - 1)) if c > 1, 0 if c < 1 and none at c = 1; 0
for the delta potential; -1/a(position) for damping.

Each law writes its coefficient once, for arrays of points, in
CPython's complex arithmetic spelled out on floats (numpy's complex
ops differ from it in the last bit); ``reflect`` and
``log_reflectivity`` are the one-point case.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, ClassVar, Optional, Tuple, Union

import numpy as np

from .billiards import GLANCING_MARGIN

__all__ = [
    "GLANCING_CUTOFF",
    "TOTAL_TRANSMISSION",
    "BREWSTER_WINDOW",
    "TransparentObstacle",
    "DeltaPotential",
    "BoundaryDamping",
    "ReflectivityModel",
    "branched_sqrt",
    "reflect",
    "brewster",
    "log_reflectivity",
]

# Reflection coefficients degenerate at |xi| = 1 together with the
# billiard map; reject anything beyond the map's glancing guard.
GLANCING_CUTOFF = 1.0 - GLANCING_MARGIN

# Signal value of log_reflectivity at a zero of r.
TOTAL_TRANSMISSION = float("-inf")

# Default half-width (in xi) of the window that averaging callers should
# exclude around a Brewster zero.
BREWSTER_WINDOW = 1e-3


def _scalar_or_call(value, position):
    return float(value(position)) if callable(value) else float(value)


def _at(value_of, profile, positions: np.ndarray):
    """value_of at each position; once, as a scalar, for a constant profile."""
    if callable(profile):
        return np.array([value_of(p) for p in positions.tolist()], dtype=float)
    return value_of(0.0)


def _product(a, b):
    """CPython's complex product (``_Py_c_prod``) of (real, imag) pairs of
    float arrays.  A float x enters as (x, 0.0), as CPython promotes it."""
    return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]


def _quotient(a, b):
    """CPython's complex quotient (``_Py_c_quot``, Smith's method) of
    (real, imag) pairs, each element on its own branch.  b must not
    vanish."""
    (ar, ai), (br, bi) = a, b
    by_real = np.abs(br) >= np.abs(bi)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(by_real, bi / br, br / bi)
        denom = np.where(by_real, br + bi * ratio, br * ratio + bi)
        return (np.where(by_real, ar + ai * ratio, ar * ratio + ai) / denom,
                np.where(by_real, ai - ar * ratio, ai * ratio - ar) / denom)


@dataclass(frozen=True)
class TransparentObstacle:
    """Penetrable interface with interior speed c > 0 and coupling alpha > 0.

    On the disk the interior field is a combination of J_n(lambda/c), the
    exterior one of H_n(lambda); continuity of the field and of alpha
    times the normal derivative couples them.
    """

    c: float
    alpha: float
    tag: ClassVar[str] = "transparent"
    collar: ClassVar[float] = 1e-6

    def __post_init__(self):
        if not (math.isfinite(self.c) and self.c > 0.0):
            raise ValueError("interior speed c must be finite and positive")
        if not (math.isfinite(self.alpha) and self.alpha > 0.0):
            raise ValueError("coupling alpha must be finite and positive")

    @property
    def is_te(self) -> bool:
        """Transverse electric regime: |r| is bounded below on [0, 1)."""
        c, alpha = self.c, self.alpha
        return (c <= 1.0 and alpha < 1.0 / c) or (c >= 1.0 and alpha > 1.0 / c)

    def zeros(self) -> Tuple[float, ...]:
        xi_b = brewster(self)
        return () if xi_b is None else (xi_b,)

    def glancing(self, position: float = 0.0) -> float:
        c = self.c
        if c == 1.0:
            raise ValueError("no finite glancing limit at c = 1: the per-bounce loss "
                             "does not vanish with the chord")
        return -c / (self.alpha * math.sqrt(c * c - 1.0)) if c > 1.0 else 0.0

    def _coefficients(self, xi, nu, positions):
        x = self.c * self.c - xi * xi
        # branched_sqrt(x) of a real x: sqrt(|x|) times its value at +-1
        up = branched_sqrt(-1.0)
        w = _product((np.sqrt(np.abs(x)), 0.0),
                     (np.where(x < 0.0, up.real, 1.0), np.where(x < 0.0, up.imag, 0.0)))
        aw = _product((self.alpha, 0.0), w)
        return _quotient((nu - aw[0], 0.0 - aw[1]), (aw[0] + nu, aw[1] + 0.0))


@dataclass(frozen=True)
class DeltaPotential:
    """Delta sheet on the boundary: the field is continuous while its
    normal derivative jumps by -V times the trace.

    On the disk V(lambda) = v0 lambda**v_exponent (principal branch); the
    reflectivity takes the semiclassical strength sigma = v0 h**-v_exponent
    at h > 0.  v0 is a finite nonnegative scalar or a callable profile
    v0(position); v_exponent lies in [0, 1].
    """

    v0: Union[float, Callable]
    v_exponent: float = 0.0
    h: float = 1.0
    tag: ClassVar[str] = "delta"
    c: ClassVar[float] = 1.0

    def __post_init__(self):
        if not callable(self.v0) and not (math.isfinite(self.v0) and self.v0 >= 0.0):
            raise ValueError("amplitude v0 must be finite and nonnegative")
        if not 0.0 <= self.v_exponent <= 1.0:
            raise ValueError("v_exponent must lie in [0, 1]")
        if not self.h > 0.0:
            raise ValueError("semiclassical parameter h must be positive")

    @property
    def collar(self) -> float:
        return min(max(self.h**0.2, 1e-6), 0.5)

    def zeros(self) -> Tuple[float, ...]:
        return ()

    def glancing(self, position: float = 0.0) -> float:
        return 0.0

    def strength(self, lam: complex) -> complex:
        """V(lambda) = v0 lambda**v_exponent of a constant amplitude."""
        return self.v0 * complex(lam) ** self.v_exponent

    def sigma(self, position: float = 0.0) -> float:
        """Symbol value sigma = v0(x') * h**-v_exponent at the given position."""
        v = _scalar_or_call(self.v0, position)
        if not v >= 0.0:
            raise ValueError(f"amplitude profile must stay nonnegative, got {v!r}")
        return v * self.h ** -self.v_exponent

    def coupling(self, position: float = 0.0) -> float:
        """Effective boundary coupling h * sigma = v0 * h**(1 - v_exponent)."""
        coupling = self.h * self.sigma(position)
        if not math.isfinite(coupling):
            raise ValueError("delta coupling h * sigma must be finite")
        return coupling

    def _coefficients(self, xi, nu, positions):
        hw = _at(self.coupling, self.v0, positions)
        two_i_nu = _product((0.0, 2.0), (nu, 0.0))
        return _quotient((hw, 0.0), (two_i_nu[0] - hw, two_i_nu[1] - 0.0))


@dataclass(frozen=True)
class BoundaryDamping:
    """Absorbing boundary with damping a(x') >= a_0 > 0; on the disk the
    condition u_r = i a u.

    a may be a finite positive scalar or a callable profile a(position) that
    stays bounded away from zero.
    """

    a: Union[float, Callable]
    tag: ClassVar[str] = "damping"
    c: ClassVar[float] = 1.0
    collar: ClassVar[float] = 1e-6

    def __post_init__(self):
        if not callable(self.a) and not (math.isfinite(self.a) and self.a > 0.0):
            raise ValueError("damping a must be finite and positive")

    def zeros(self) -> Tuple[float, ...]:
        return () if callable(self.a) or self.a > 1.0 else (math.sqrt(1.0 - self.a * self.a),)

    def glancing(self, position: float = 0.0) -> float:
        return -1.0 / self.damping_at(position)

    def damping_at(self, position: float = 0.0) -> float:
        val = _scalar_or_call(self.a, position)
        if not val > 0.0:
            raise ValueError(f"damping profile must stay positive, got {val!r}")
        return val

    def _coefficients(self, xi, nu, positions):
        a = _at(self.damping_at, self.a, positions)
        # a = nu is a genuine zero of r, not a pole: the denominator
        # a + nu stays positive
        return (nu - a) / (a + nu), np.zeros_like(nu)


ReflectivityModel = Union[TransparentObstacle, DeltaPotential, BoundaryDamping]


def branched_sqrt(z: complex) -> complex:
    """Square root on the branch sqrt(z) = sqrt(|z|) e^{i Arg(z)/2} with
    Arg(z) in (-pi/2, 3pi/2].

    The cut sits on the negative imaginary axis, so negative real input
    lands on the positive imaginary axis: Im(sqrt) >= 0 there.
    """
    z = complex(z)
    if z == 0:
        return 0.0 + 0.0j
    theta = cmath.phase(z)
    if theta <= -0.5 * math.pi:
        theta += 2.0 * math.pi
    return math.sqrt(abs(z)) * cmath.exp(0.5j * theta)


def _law(model) -> ReflectivityModel:
    """model itself, or TypeError unless it is one of the three laws."""
    if not isinstance(model, (TransparentObstacle, DeltaPotential, BoundaryDamping)):
        raise TypeError(f"not a reflectivity model: {model!r}")
    return model


def _reflections(model: ReflectivityModel, xi, positions):
    """(Re r, Im r) at arrays of xi and positions, each element bit for
    bit ``reflect``; raises what the first failing point raises alone."""
    _law(model)
    xi = np.asarray(xi, dtype=float)
    positions = np.asarray(positions, dtype=float)
    glancing = np.flatnonzero(np.abs(xi) > GLANCING_CUTOFF)
    if glancing.size:
        k = glancing[0]
        if k:
            # a profile error before the first glancing point comes first
            _reflections(model, xi[:k], positions[:k])
        raise ValueError(f"|xi| = {abs(float(xi[k]))!r} is too close to glancing")
    return model._coefficients(xi, np.sqrt(1.0 - xi * xi), positions)


def reflect(model: ReflectivityModel, xi: float, position: float = 0.0) -> complex:
    """Reflection coefficient r(x', xi) of the given boundary model.

    Parameters
    ----------
    model : TransparentObstacle, DeltaPotential or BoundaryDamping
    xi : float
        Tangential frequency, |xi| <= 1 - 1e-12.
    position : float, optional
        Boundary position, consumed only by position-dependent profiles.

    Returns
    -------
    complex
        The reflection coefficient; |r| <= 1 always.  The transparent
        coefficient is real whenever c**2 >= xi**2.
    """
    re, im = _reflections(model, [xi], [position])
    return complex(re[0], im[0])


def brewster(model: TransparentObstacle) -> Optional[float]:
    """Brewster frequency xi_B in [0, 1) with r(xi_B) = 0, if it exists.

    Only the transverse magnetic regime has one: there
    xi_B**2 = (1 - alpha**2 c**2) / (1 - alpha**2).  Returns None in
    the TE regime and for the degenerate coupling alpha = 1.
    """
    if not isinstance(model, TransparentObstacle):
        raise TypeError("Brewster angles are defined for transparent obstacles only")
    if model.is_te or model.alpha == 1.0:
        return None
    c, alpha = model.c, model.alpha
    xi_sq = (1.0 - alpha * alpha * c * c) / (1.0 - alpha * alpha)
    if not 0.0 <= xi_sq < 1.0:
        return None
    return math.sqrt(xi_sq)


def log_reflectivity(model: ReflectivityModel, xi: float, position: float = 0.0) -> float:
    """log |r|**2, the summand of the averaged reflectivity.

    Returns TOTAL_TRANSMISSION (= -inf) when r vanishes exactly.
    Otherwise the value is finite and clamped at 0 to absorb roundoff at
    unit modulus (|r| <= 1 exactly for all three models).
    """
    return float(_log_reflectivities(model, [xi], [position])[0])


def _log_reflectivities(model: ReflectivityModel, xi, positions) -> np.ndarray:
    """log |r|**2 at arrays of points, each bit for bit log_reflectivity."""
    # hypot is CPython's complex abs; math.log per element, because
    # np.log differs from it in the last bit on a fraction of inputs
    magnitudes = np.hypot(*_reflections(model, xi, positions)).tolist()
    logs = [2.0 * math.log(m) if m else TOTAL_TRANSMISSION for m in magnitudes]
    return np.minimum(logs, 0.0)

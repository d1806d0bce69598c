"""Pointwise reflection coefficients for three transmission problems.

Three boundary models, each assigning a complex reflection coefficient
r(x', xi) to a tangential frequency |xi| < 1 and a boundary position:

* ``TransparentObstacle``: a penetrable interface between interior wave
  speed c and exterior speed 1, with normal-derivative coupling alpha,

      r = (sqrt(1 - xi**2) - alpha * sqrt(c**2 - xi**2))
          / (alpha * sqrt(c**2 - xi**2) + sqrt(1 - xi**2)).

  When c**2 < xi**2 the square root is taken on the branch with
  argument in (-pi/2, 3pi/2], which puts it on the positive imaginary
  axis and forces |r| = 1: total internal reflection.

* ``DeltaPotential``: a semiclassical delta sheet of strength
  sigma = v0 * h**alpha_exp on the boundary,

      r = h*sigma / (2i*sqrt(1 - xi**2) - h*sigma).

* ``BoundaryDamping``: an absorbing boundary with damping a(x') > 0,

      r = (sqrt(1 - xi**2) - a) / (a + sqrt(1 - xi**2)).

All three satisfy |r| <= 1.  Zeros of r (the Brewster angle of a
transmitting interface, critically matched damping, v0 = 0) make
log |r|**2 diverge; ``log_reflectivity`` signals them with the
dedicated ``TOTAL_TRANSMISSION`` value instead of a silent infinity.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Optional, Union

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
    "is_total_transmission",
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


@dataclass(frozen=True)
class TransparentObstacle:
    """Penetrable interface with interior speed c != 1 and coupling alpha > 0."""

    c: float
    alpha: float

    def __post_init__(self):
        if not (math.isfinite(self.c) and self.c > 0.0 and self.c != 1.0):
            raise ValueError("interior speed c must be finite, positive and != 1")
        if not (math.isfinite(self.alpha) and self.alpha > 0.0):
            raise ValueError("coupling alpha must be finite and positive")

    @property
    def is_te(self) -> bool:
        """Transverse electric regime: |r| is bounded below on [0, 1)."""
        c, alpha = self.c, self.alpha
        return (c < 1.0 and alpha < 1.0 / c) or (c > 1.0 and alpha > 1.0 / c)

    @property
    def is_tm(self) -> bool:
        """Transverse magnetic regime: r vanishes at the Brewster angle."""
        return not self.is_te


@dataclass(frozen=True)
class DeltaPotential:
    """Delta sheet of semiclassical strength v0 * h**alpha_exp.

    v0 may be a nonnegative scalar or a callable profile v0(position);
    alpha_exp lies in [-1, 0] and h > 0 is the semiclassical parameter.
    """

    v0: Union[float, Callable]
    alpha_exp: float = 0.0
    h: float = 1.0

    def __post_init__(self):
        if not callable(self.v0) and not self.v0 >= 0.0:
            raise ValueError("amplitude v0 must be nonnegative")
        if not -1.0 <= self.alpha_exp <= 0.0:
            raise ValueError("alpha_exp must lie in [-1, 0]")
        if not self.h > 0.0:
            raise ValueError("semiclassical parameter h must be positive")

    def sigma(self, position: float = 0.0) -> float:
        """Symbol value sigma = v0(x') * h**alpha_exp at the given position."""
        v = _scalar_or_call(self.v0, position)
        if not v >= 0.0:
            raise ValueError(f"amplitude profile must stay nonnegative, got {v!r}")
        return v * self.h ** self.alpha_exp

    def coupling(self, position: float = 0.0) -> float:
        """Effective boundary coupling h * sigma = v0 * h**(1 + alpha_exp)."""
        coupling = self.h * self.sigma(position)
        if not math.isfinite(coupling):
            raise ValueError("delta coupling h * sigma must be finite")
        return coupling


@dataclass(frozen=True)
class BoundaryDamping:
    """Absorbing boundary with damping a(x') >= a_0 > 0.

    a may be a finite positive scalar or a callable profile a(position) that
    stays bounded away from zero.
    """

    a: Union[float, Callable]

    def __post_init__(self):
        if not callable(self.a) and not (math.isfinite(self.a) and self.a > 0.0):
            raise ValueError("damping a must be finite and positive")

    def damping_at(self, position: float = 0.0) -> float:
        val = _scalar_or_call(self.a, position)
        if not val > 0.0:
            raise ValueError(f"damping profile must stay positive, got {val!r}")
        return val


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


def _normal_component(xi: float) -> float:
    xi = float(xi)
    if abs(xi) > GLANCING_CUTOFF:
        raise ValueError(f"|xi| = {abs(xi)!r} is too close to glancing")
    return math.sqrt(1.0 - xi * xi)


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
    nu = _normal_component(xi)
    if isinstance(model, TransparentObstacle):
        w = branched_sqrt(complex(model.c * model.c - xi * xi))
        return (nu - model.alpha * w) / (model.alpha * w + nu)
    if isinstance(model, DeltaPotential):
        hw = model.coupling(position)
        return hw / (2.0j * nu - hw)
    if isinstance(model, BoundaryDamping):
        a = model.damping_at(position)
        # a = nu is a genuine zero of r, not a pole: the denominator
        # a + nu stays positive
        return complex((nu - a) / (a + nu))
    raise TypeError(f"not a reflectivity model: {model!r}")


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

    Returns TOTAL_TRANSMISSION (= -inf) when r vanishes exactly; checks
    with :func:`is_total_transmission`.  Otherwise the value is finite
    and clamped at 0 to absorb roundoff at unit modulus (|r| <= 1
    exactly for all three models).
    """
    magnitude = abs(reflect(model, xi, position))
    if magnitude == 0.0:
        return TOTAL_TRANSMISSION
    return min(2.0 * math.log(magnitude), 0.0)


def is_total_transmission(value: float) -> bool:
    """True iff value is the total-transmission signal of log_reflectivity."""
    return math.isinf(value) and value < 0.0

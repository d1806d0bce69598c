"""Sabine-law resonance bands from billiard dynamics and boundary reflectivity.

The central object is the Sabine quotient of an N-step billiard orbit:
the accumulated log-reflectivity r_N = sum_k log|r(xi_k, s_k)|^2 divided
by twice the interior travel time, 2 c^{-1} l_N, of the chord sum l_N.
Extremizing the quotient over phase space bounds the imaginary parts of
scattering resonances from above and below.  This module computes the
quotient itself, its inf/sup band over a refining phase-space grid, its
glancing limit along the boundary, and the near-glancing Airy bands of
the delta-potential problem.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Sequence, Tuple

import numpy as np

from .billiards import (
    ConvexDomain,
    GlancingError,
    PhasePoint,
    _orbits,
    orbit,  # unused here; perfbench/tracing.py wraps sabine.orbit by name
)
from .reflectivity import (
    BREWSTER_WINDOW,
    TOTAL_TRANSMISSION,
    DeltaPotential,
    ReflectivityModel,
    _law,
    _log_reflectivities,
    log_reflectivity,  # unused here; perfbench/tracing.py wraps it by name
)
from .specfun import _CBRT2, airy_zeros

__all__ = [
    "GlancingBand",
    "SabineBand",
    "band_report",
    "glancing_bands",
    "glancing_limit",
    "one_bounce_quotients",
    "sabine_bounds",
    "sabine_quotient",
]

# Fixed band-extremizer settings: footpoints on the coarsest grid, the
# endpoint movement that counts as converged, and the grid doublings
# allowed before giving up.  Reflectivity zeros are excised by
# BREWSTER_WINDOW.
_S_POINTS = 4
_TOL = 1e-3
_MAX_REFINE = 6


def _prefix_quotients(
    domain: ConvexDomain,
    model: ReflectivityModel,
    s: np.ndarray,
    xi: np.ndarray,
    n_max: int,
) -> np.ndarray:
    """Sabine quotients of the first N = 1..n_max steps of many orbits.

    The orbits start at the rows of (s, xi) and are stepped together,
    and their points' reflectivity is one array.  Returns an array of
    shape (rows, n_max); the row of an orbit that meets the glancing
    guard is NaN and its points are not reflected.  Every computed
    point is validated as a PhasePoint.  A reflectivity zero anywhere
    on an orbit makes every quotient from that bounce onward -inf; -inf
    plus a finite float stays -inf under cumulative summation, so no
    special casing is needed.
    """
    pts_s, pts_xi, chords = _orbits(domain, s, xi, n_max)
    out = np.full(chords.shape, np.nan)
    whole = ~np.isnan(chords).any(axis=1)
    if whole.any():
        logs = _log_reflectivities(model, pts_xi[whole].ravel(), pts_s[whole].ravel())
        out[whole] = (model.c * np.cumsum(logs.reshape(-1, chords.shape[1]), axis=1)
                      / (2.0 * np.cumsum(chords[whole], axis=1)))
    return out


def sabine_quotient(
    domain: ConvexDomain,
    model: ReflectivityModel,
    start: PhasePoint,
    n_steps: int,
) -> float:
    """Sabine quotient r_N / (2 c^{-1} l_N) of the orbit from ``start``.

    r_N is the mean accumulated log-reflectivity sum log|r|^2 over the N
    bounces following ``start`` and l_N the mean chord length; the common
    1/N cancels.  Returns -inf when the orbit crosses a point of total
    transmission.  Raises GlancingError if the orbit leaves the domain of
    the billiard map, and ValueError for a non-positive step count.
    """
    quotients = _prefix_quotients(domain, model, [start.s], [start.xi], n_steps)[0]
    if np.isnan(quotients).any():
        raise GlancingError(f"orbit from {start!r} meets the glancing guard")
    return float(quotients[-1])


def one_bounce_quotients(model: ReflectivityModel, tangent_freq) -> np.ndarray:
    """The unit disk's one-bounce decay law q(xi) at xi = c * tangent_freq.

    A resonance of mode n sits near q(c n / Re lambda), c the wave speed
    of ``model``.  Takes a 1-d array; NaN where xi meets the glancing guard.
    """
    xi = _law(model).c * np.asarray(tangent_freq, dtype=float)
    return _prefix_quotients(ConvexDomain.disk(), model, np.zeros_like(xi), xi, 1)[:, 0]


@dataclasses.dataclass(frozen=True)
class SabineBand:
    """Inf/sup band of the Sabine quotient over a phase-space grid.

    ``lower`` is sup_N inf over the grid and ``upper`` is inf_N sup, so
    lower <= upper always.  ``lower`` is -inf when the model has a
    reachable reflectivity zero (Brewster angle or matched damping); the
    zero's neighborhood is excised from the grid before taking the sup,
    and ``brewster_excluded`` records that this happened.
    """

    lower: float
    upper: float
    n_max: int
    xi_points: int
    s_points: int
    collar: float
    brewster_excluded: bool
    refinements: int

    def __post_init__(self) -> None:
        if not self.lower <= self.upper:
            raise ValueError("band endpoints out of order")
        if self.upper > 0.0:
            raise ValueError("the Sabine quotient is nonpositive")


def _reduce_columns(vals: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Per-N inf and sup over the grid axis, ignoring glancing failures.

    A row of _prefix_quotients is NaN throughout or nowhere, and a -inf
    quotient stays -inf at every longer prefix, so each error below
    holds on every column or on none.
    """
    if np.isnan(vals).all(axis=0).any():
        raise RuntimeError(
            "every phase-space sample hit the glancing guard within "
            f"{vals.shape[1]} bounces"
        )
    finite = np.isfinite(vals)
    if not finite.any(axis=0).all():
        raise ValueError(
            "reflectivity vanishes on the whole sample grid "
            "(degenerate model); the sup side is undefined"
        )
    return np.nanmin(vals, axis=0), np.where(finite, vals, -np.inf).max(axis=0)


def sabine_bounds(
    domain: ConvexDomain,
    model: ReflectivityModel,
    n_max: int = 8,
    xi_points: int = 33,
) -> SabineBand:
    """Extremize the Sabine quotient over a refining (footpoint, xi) grid.

    The xi grid is uniform on [0, 1 - model.collar], with the zeros in
    model.zeros() excised by a window of half-width 1e-3; 4 footpoints
    are uniform on the boundary.  Both grids double until the band
    endpoints move by less than 1e-3.  The endpoints are the extreme
    sampled quotients.  Raises RuntimeError if the band fails to
    stabilize within 6 doublings, ValueError for a count that is not a
    whole number, and TypeError for a model that is no boundary law.

    Each level steps the orbits no coarser level had as one
    ``_prefix_quotients`` batch, levels 0 and 1 as one; the endpoints
    and errors are those of stepping level by level.
    """
    if int(n_max) < 1 or int(n_max) != n_max:
        raise ValueError("n_max must be a positive integer")
    if int(xi_points) < 3 or int(xi_points) != xi_points:
        raise ValueError("grid needs a whole number of at least 3 xi points")
    n_max, xi_points = int(n_max), int(xi_points)
    collar = _law(model).collar
    zeros = model.zeros()
    # A zero reachable inside the grid range makes the true inf -inf no
    # matter how the excision window is chosen.
    fiat_lower = any(z <= 1.0 - collar for z in zeros)

    cache: dict = {}
    perim = domain.perimeter

    def evaluate(xi_vals: np.ndarray, s_vals: np.ndarray) -> np.ndarray:
        # Rows in grid order (footpoint-major); the orbits not cached
        # from a coarser level are stepped as one batch.
        keys = [(float(s), float(xi)) for s in s_vals for xi in xi_vals]
        new = [key for key in keys if key not in cache]
        if new:
            starts = np.array(new)
            rows = _prefix_quotients(domain, model, starts[:, 0], starts[:, 1], n_max)
            cache.update(zip(new, rows))
        return np.array([cache[key] for key in keys])

    def masked_grid(level: int) -> Tuple[np.ndarray, np.ndarray]:
        p = (xi_points - 1) * 2**level + 1
        full = np.linspace(0.0, 1.0 - collar, p)
        keep = np.ones(p, dtype=bool)
        for z in zeros:
            keep &= np.abs(full - z) >= BREWSTER_WINDOW
        if not keep.any():
            raise ValueError(
                "the zero excision window covers the whole xi grid "
                "(degenerate model)"
            )
        s_vals = np.linspace(0.0, perim, _S_POINTS * 2**level, endpoint=False)
        return full[keep], s_vals

    try:
        # Convergence is first tested at level 1, whose points hold level 0's.
        evaluate(*masked_grid(1))
    except Exception:
        pass  # the loop repeats it level by level, raising what that order raises first

    lower = upper = math.nan
    xi_vals = s_vals = None
    level = 0
    converged = False
    for level in range(_MAX_REFINE + 1):
        prev_lower, prev_upper = lower, upper
        xi_vals, s_vals = masked_grid(level)
        infs, sups = _reduce_columns(evaluate(xi_vals, s_vals))
        lower = TOTAL_TRANSMISSION if fiat_lower else float(np.max(infs))
        upper = float(np.min(sups))
        if level > 0:
            # Finer grids only widen the bracket.
            assert lower <= prev_lower + 1e-9 and upper >= prev_upper - 1e-9
            if _endpoints_close(lower, prev_lower, _TOL) and _endpoints_close(
                upper, prev_upper, _TOL
            ):
                converged = True
                break
    if not converged:
        raise RuntimeError(
            f"Sabine band did not stabilize to {_TOL} within "
            f"{_MAX_REFINE} grid doublings"
        )

    return SabineBand(
        lower=lower,
        upper=upper,
        n_max=n_max,
        xi_points=len(xi_vals),
        s_points=len(s_vals),
        collar=collar,
        brewster_excluded=math.isinf(lower),
        refinements=level,
    )


def _endpoints_close(a: float, b: float, tol: float) -> bool:
    return a == b or abs(a - b) < tol


def glancing_limit(domain: ConvexDomain, model: ReflectivityModel, s: float) -> float:
    """Limit of the Sabine quotient along orbits from s as xi -> 1: the
    law's glancing rate times the boundary curvature at the footpoint.
    ValueError for an obstacle with c = 1, whose per-bounce loss does
    not vanish with the chord.
    """
    return _law(model).glancing(float(s)) * float(domain.curvature(float(s)))


@dataclasses.dataclass(frozen=True)
class GlancingBand:
    """One near-glancing resonance band of the delta-potential problem.

    Band j sits at Im lambda ~ (Q/|s_v|^2) (2 h Q)^{1/3} ImPhi_-(zeta_j)
    where s_v = v0 h^{1 - v_exponent} is the semiclassical coupling and
    zeta_j the j-th Airy zero.  On the unit disk the glancing factor Q is
    identically 1, so the band is the single value ``im_lambda`` at the
    model's h, and ``scale`` is the paper's B = 2^{1/3} / (v0 h^{-v_exponent})^2,
    the h-independent form h^{2/3} Im(h lambda) / ImPhi_-(zeta_j).
    """

    j: int
    im_phi_j: float
    scale: float
    im_lambda: float
    v0: float
    v_exponent: float

    def __post_init__(self) -> None:
        if not self.im_lambda < 0.0:
            raise ValueError("glancing band must lie in the lower half-plane")
        if not self.scale > 0.0:
            raise ValueError("band scale factor must be positive")

    def predicted_im_lambda(self, h: float) -> float:
        """Band prediction at semiclassical parameter h."""
        return _band_value(self.v0, self.v_exponent, float(h), self.im_phi_j)


def _band_value(v0: float, v_exponent: float, h: float, im_phi: float) -> float:
    sigma_hv = v0 * h ** (1.0 - v_exponent)
    return (1.0 / sigma_hv**2) * ((2.0 * h) ** (1.0 / 3.0) * im_phi)


def glancing_bands(model: DeltaPotential, m_bands: int = 3) -> Tuple[GlancingBand, ...]:
    """Predict the first ``m_bands`` near-glancing resonance bands.

    Each band is (1/|s_v|^2) (2 h)^{1/3} ImPhi_-(zeta_j), the unit-disk
    value Q = 1 of the glancing factor, at the model's semiclassical
    parameter h; the subprincipal corrections of generalized models are
    not included.  Requires a constant-amplitude potential; bands of a
    vanishing potential are undefined.  ``m_bands`` is a whole number in
    1..100.
    """
    if not isinstance(model, DeltaPotential):
        raise TypeError("glancing bands are defined for delta potentials")
    if callable(model.v0):
        raise TypeError("glancing bands need a constant potential amplitude")
    v0 = float(model.v0)
    if v0 <= 0.0:
        raise ValueError("glancing bands of a vanishing potential are undefined")
    m = int(m_bands)
    if not 1 <= m <= 100 or m != m_bands:
        raise ValueError("m_bands must be a whole number in 1..100")

    table = airy_zeros(m)
    sigma_v = model.sigma()
    bands = []
    for j in range(1, m + 1):
        im_phi = table.im_phi_minus[j - 1]
        band = GlancingBand(
            j=j,
            im_phi_j=float(im_phi),
            scale=_CBRT2 / sigma_v**2,
            im_lambda=float(_band_value(v0, model.v_exponent, model.h, im_phi)),
            v0=v0,
            v_exponent=model.v_exponent,
        )
        if bands:
            # The Airy zeros push successive bands strictly down.
            assert band.im_lambda < bands[-1].im_lambda
        bands.append(band)
    return tuple(bands)


def band_report(
    problem: str,
    params: dict,
    band: SabineBand,
    glancing: Sequence[GlancingBand] = (),
) -> dict:
    """JSON-ready summary of a Sabine band and optional glancing bands."""
    return {
        "problem": str(problem),
        "params": dict(params),
        "lower": None if math.isinf(band.lower) else band.lower,
        "upper": band.upper,
        "n_max": band.n_max,
        "grid": {
            "xi_points": band.xi_points,
            "s_points": band.s_points,
            "collar": band.collar,
            "brewster_excluded": band.brewster_excluded,
            "refinements": band.refinements,
        },
        "bands": [
            {
                "j": g.j,
                "im_lambda_min": g.im_lambda,
                "im_lambda_max": g.im_lambda,
            }
            for g in glancing
        ],
    }

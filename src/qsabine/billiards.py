"""Strictly convex planar billiards and the boundary ball map.

The boundary of a domain is a closed curve gamma(s) parametrized by
arclength s in [0, L) and traversed counterclockwise.  Phase points
live on the open coball bundle of the boundary: an arclength coordinate
together with a tangential frequency xi, |xi| < 1.  One application of
the billiard ball map lifts (s, xi) to the inward unit direction

    d = xi T(s) + sqrt(1 - xi**2) N(s),

follows the ray to its unique second boundary intersection, and reads
the new tangential frequency off the exit tangent.  The Euclidean
distance between the two footpoints is the chord length of the step.

The exit point is the root of a signed cross product on a bracket one
perimeter long, found by Brent's method.  The map is written once, for
arrays: every row of a batch of phase points is stepped in lockstep, and
``billiard_step`` is the one-row case.  ``_brentq_rows`` is a row-wise
port of scipy's ``brentq`` (its brentq.c, after Brent 1973): each row
takes the interpolation, extrapolation and bisection steps the scalar
solver would take, and converged rows drop out, so a row of a batch is
bit-identical to stepping that point alone.  This matters because band
endpoints computed near the glancing edge move at the 1e-11 level when
the last bit of an exit point moves.  The disk scans invert their chord
phase conditions with the same solver.

Domains are built from a smooth underlying parametrization.  Arclength
is accumulated with composite Gauss-Legendre quadrature and inverted by
a guarded Newton iteration, so positions, unit tangents and curvatures
are available directly in the arclength variable.  Array accessors are
exact stacks of the scalar ones: each element leaves the Newton loop on
its own residual, and each row's quadrature is summed by its own dot
product.  One inversion serves both the position and the unit tangent
of a footpoint, at the start of a step and at its exit, and the Newton
step's speed comes from the same evaluation of the parametrization as
the quadrature nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = [
    "GLANCING_MARGIN",
    "GlancingError",
    "PhasePoint",
    "OrbitSegment",
    "ConvexDomain",
    "billiard_step",
    "orbit",
    "mean_chord",
    "GlancingReport",
    "glancing_expansion_check",
]

# The map degenerates on the glancing set |xi| = 1; reject anything closer
# than this rather than extrapolate.
GLANCING_MARGIN = 1e-12

# Forward offset (in units of the perimeter) that excludes the starting
# footpoint from the exit-point bracket.
_START_OFFSET = 1e-9

# Exit-point solver settings: scipy's brentq defaults
# except the absolute tolerance.
_XTOL = 1e-13
_RTOL = 4.0 * np.finfo(float).eps
_MAXITER = 100

_ARC_PANELS = 64
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)


class GlancingError(ValueError):
    """Raised when the billiard map is evaluated too close to |xi| = 1."""


@dataclass(frozen=True)
class PhasePoint:
    """Point of the open coball bundle of the boundary.

    Attributes
    ----------
    s : float
        Arclength coordinate, interpreted mod the domain perimeter.
    xi : float
        Tangential frequency, |xi| < 1 strictly.  The normal component
        sqrt(1 - xi**2) is then well defined.
    """

    s: float
    xi: float

    def __post_init__(self):
        if not (math.isfinite(self.s) and math.isfinite(self.xi)):
            raise ValueError("phase point coordinates must be finite")
        if abs(self.xi) >= 1.0:
            raise ValueError(f"|xi| = {abs(self.xi)!r} must be < 1")


@dataclass(frozen=True)
class OrbitSegment:
    """Orbit q, beta(q), ..., beta^N(q) together with its N chords.

    chords[k] is the Euclidean distance between the footpoints of
    points[k] and points[k + 1], in domain units.
    """

    points: tuple
    chords: tuple

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(self.points))
        object.__setattr__(self, "chords", tuple(float(c) for c in self.chords))
        if len(self.points) != len(self.chords) + 1:
            raise ValueError("an orbit needs exactly one more point than chords")
        if any(not c > 0.0 for c in self.chords):
            raise ValueError("all chords must be positive")

    def __len__(self):
        return len(self.chords)


class ConvexDomain:
    """Strictly convex planar domain with an arclength boundary chart.

    Use the named constructors :meth:`disk`, :meth:`ellipse` or
    :meth:`from_support`.  The raw initializer wires a counterclockwise
    parametrization p(theta), theta in [0, theta_period), with speed
    |p'(theta)| > 0 and an analytic curvature callable into cumulative
    arclength tables; all public accessors then take arclength.  ``pos``
    and ``vel`` return p and p' as a pair (x, y) of arrays shaped like
    theta.

    Attributes
    ----------
    perimeter : float
        Total boundary length L.
    kappa_min : float
        Minimum curvature over a fine probe grid; construction fails
        unless it is strictly positive.
    """

    def __init__(self, pos: Callable, vel: Callable, kappa: Callable,
                 theta_period: float, name: str):
        self._pos = pos
        self._vel = vel
        self._kap = kappa
        self._period = float(theta_period)
        self.name = str(name)

        edges = np.linspace(0.0, self._period, _ARC_PANELS + 1)
        half = 0.5 * np.diff(edges)
        mids = 0.5 * (edges[:-1] + edges[1:])
        nodes = mids[:, None] + half[:, None] * _GL_NODES[None, :]
        speeds = self._speed(nodes.ravel()).reshape(nodes.shape)
        panel = half * (speeds @ _GL_WEIGHTS)
        self._theta_edges = edges
        self._arc_edges = np.concatenate([[0.0], np.cumsum(panel)])
        self.perimeter = float(self._arc_edges[-1])
        # Per panel: first theta, first arclength, theta width, arc length.
        # Column j is the panel that x lies in when searchsorted(edges, x,
        # "right") = j, clamped to the table at both ends.
        panels = np.array([edges[:-1], self._arc_edges[:-1],
                           np.diff(edges), np.diff(self._arc_edges)])
        self._panels = panels[:, np.r_[0, 0:_ARC_PANELS, _ARC_PANELS - 1]]

        probe = np.linspace(0.0, self._period, 4096, endpoint=False)
        with np.errstate(divide="ignore", invalid="ignore"):
            kmin = float(np.min(np.asarray(self._kap(probe), dtype=float)))
        if not (math.isfinite(kmin) and kmin > 0.0):
            raise ValueError(f"boundary is not strictly convex: min curvature {kmin!r}")
        self.kappa_min = kmin

    # -- named constructors ------------------------------------------------

    @classmethod
    def disk(cls, radius: float = 1.0) -> "ConvexDomain":
        """Disk of the given radius centered at the origin."""
        if not radius > 0.0:
            raise ValueError("radius must be positive")
        r = float(radius)

        def pos(th):
            return r * np.cos(th), r * np.sin(th)

        def vel(th):
            return r * -np.sin(th), r * np.cos(th)

        def kappa(th):
            return np.full_like(np.asarray(th, dtype=float), 1.0 / r)

        return cls(pos, vel, kappa, 2.0 * math.pi, f"disk(radius={r!r})")

    @classmethod
    def ellipse(cls, a: float, b: float) -> "ConvexDomain":
        """Axis-aligned ellipse x**2/a**2 + y**2/b**2 = 1."""
        if not (a > 0.0 and b > 0.0):
            raise ValueError("semi-axes must be positive")
        a, b = float(a), float(b)

        def pos(th):
            return a * np.cos(th), b * np.sin(th)

        def vel(th):
            return -a * np.sin(th), b * np.cos(th)

        def kappa(th):
            s, c = np.sin(th), np.cos(th)
            return a * b / (a * a * s * s + b * b * c * c) ** 1.5

        return cls(pos, vel, kappa, 2.0 * math.pi, f"ellipse(a={a!r}, b={b!r})")

    @classmethod
    def from_support(cls, h: Callable, hp: Callable, hpp: Callable,
                     name: str = "support") -> "ConvexDomain":
        """Domain from a support function h(phi) with derivatives hp, hpp.

        The boundary point with outward normal (cos phi, sin phi) is
        h*n + h'*t; the radius of curvature there is h + h'', which must
        stay strictly positive.  All three callables must accept numpy
        arrays.
        """

        def pos(phi):
            c, s = np.cos(phi), np.sin(phi)
            hv = np.asarray(h(phi), dtype=float)
            hpv = np.asarray(hp(phi), dtype=float)
            return hv * c + hpv * -s, hv * s + hpv * c

        def vel(phi):
            rho = np.asarray(h(phi), dtype=float) + np.asarray(hpp(phi), dtype=float)
            return rho * -np.sin(phi), rho * np.cos(phi)

        def kappa(phi):
            rho = np.asarray(h(phi), dtype=float) + np.asarray(hpp(phi), dtype=float)
            return 1.0 / rho

        return cls(pos, vel, kappa, 2.0 * math.pi, name)

    # -- arclength chart ---------------------------------------------------

    def _speed(self, theta):
        vx, vy = self._vel(theta)
        return np.sqrt(vx * vx + vy * vy)

    def _unit_tangent(self, theta):
        vx, vy = self._vel(theta)
        speed = np.sqrt(vx * vx + vy * vy)
        return vx / speed, vy / speed

    def _arc_and_speed(self, theta):
        """Cumulative arclength from theta = 0 and the speed at theta.

        Expects a 1-d array.  The speed at theta is evaluated in the same
        call of the parametrization as the quadrature nodes.
        """
        n = theta.size
        k = self._theta_edges.searchsorted(theta, side="right")
        a, sa = self._panels[:2].take(k, axis=1)
        half = 0.5 * (theta - a)
        nodes = (a + half)[:, None] + half[:, None] * _GL_NODES
        speeds = self._speed(np.concatenate([nodes.ravel(), theta]))
        # One dot product per row: a multi-row ``speeds @ w`` goes through
        # gemv, whose summation order differs from the one-row dot.
        quad = np.matmul(speeds[:nodes.size].reshape(n, 1, -1), _GL_WEIGHTS)[:, 0]
        return sa + half * quad, speeds[nodes.size:]

    def _theta_of_arc(self, s):
        """Invert the arclength map on a 1-d array, Newton to 1e-13.

        Each element stops iterating once its own residual is below the
        tolerance, as it would alone.  Until the first one does, the
        whole array iterates without indexing.
        """
        t = np.mod(np.asarray(s, dtype=float), self.perimeter)
        k = self._arc_edges.searchsorted(t, side="right")
        a, sa, width, length = self._panels.take(k, axis=1)
        theta = a + (t - sa) * width / length
        tol = 1e-13 * max(1.0, self.perimeter)
        todo = None  # indices of the elements still iterating, once some are done
        th, tt = theta, t
        for _ in range(40):
            arc, speed = self._arc_and_speed(th)
            res = arc - tt
            done = np.abs(res) < tol
            if done.all():
                return theta
            if done.any():
                live = ~done
                todo = np.flatnonzero(live) if todo is None else todo[live]
                th, tt, res, speed = th[live], tt[live], res[live], speed[live]
            th = th - res / speed
            if todo is None:
                theta = th
            else:
                theta[todo] = th
        raise RuntimeError("arclength inversion did not converge")

    @staticmethod
    def _match(out, s):
        return out[0] if np.ndim(s) == 0 else out

    def position(self, s):
        """Boundary point gamma(s), shape (2,) or (n, 2)."""
        return self._frame(s)[0]

    def tangent(self, s):
        """Unit tangent gamma'(s)."""
        return self._frame(s)[1]

    def _frame(self, s):
        """(position(s), tangent(s)) from one chart inversion."""
        th = self._theta_of_arc(np.atleast_1d(s))
        return (self._match(np.stack(self._pos(th), axis=-1), s),
                self._match(np.stack(self._unit_tangent(th), axis=-1), s))

    def inward_normal(self, s):
        """Unit inward normal, the counterclockwise rotation of the tangent."""
        tx, ty = self._unit_tangent(self._theta_of_arc(np.atleast_1d(s)))
        return self._match(np.stack([-ty, tx], axis=-1), s)

    def curvature(self, s):
        """Curvature kappa(s) > 0."""
        th = self._theta_of_arc(np.atleast_1d(s))
        return self._match(np.asarray(self._kap(th), dtype=float), s)

    def second_derivative(self, s):
        """gamma''(s) = kappa(s) * inward normal, by the Frenet relation."""
        return np.asarray(self.curvature(s))[..., None] * self.inward_normal(s)

    def ray(self, q: PhasePoint):
        """Footpoint and inward unit direction of the lift of q."""
        p0, t0 = self._frame(q.s % self.perimeter)
        n0 = np.array([-t0[1], t0[0]])
        d = q.xi * t0 + math.sqrt(1.0 - q.xi * q.xi) * n0
        return p0, d

    def __repr__(self):
        return f"ConvexDomain({self.name})"


def billiard_step(domain: ConvexDomain, q: PhasePoint):
    """One application of the billiard ball map.

    Parameters
    ----------
    domain : ConvexDomain
    q : PhasePoint
        Starting point; |xi| must stay below 1 - GLANCING_MARGIN.

    Returns
    -------
    q_next : PhasePoint
        Image of q under the map.
    chord : float
        Euclidean distance between the two footpoints.

    Notes
    -----
    The exit point is the unique zero of the signed cross product
    G(s) = d x (gamma(s) - gamma(s0)) on (s0, s0 + L): by strict
    convexity the full line meets the boundary only at the footpoint
    and the exit, and G < 0 just after s0, G > 0 just before s0 + L.
    This is the one-row case of ``_billiard_steps``.
    """
    if abs(q.xi) >= 1.0 - GLANCING_MARGIN:
        raise GlancingError(f"billiard map undefined this close to glancing: xi = {q.xi!r}")
    s1, xi1, chord = _billiard_steps(domain, [q.s], [q.xi])
    return PhasePoint(float(s1[0]), float(xi1[0])), float(chord[0])


def _billiard_steps(domain: ConvexDomain, s, xi, frame=None):
    """The billiard map on arrays of phase points, all rows in lockstep.

    Returns arrays (s1, xi1, chord) shaped like ``s``.  Row i is bit for
    bit what ``billiard_step`` gives for (s[i], xi[i]); a row with
    |xi| >= 1 - GLANCING_MARGIN (or NaN) comes back NaN instead of
    raising.  The next points are not validated as PhasePoints.

    A list ``frame`` is left holding the (position, tangent) arrays of
    the exit points (NaN where not stepped); passed back with them, it
    stands in for the chart inversion at the start, bit for bit.
    """
    s = np.asarray(s, dtype=float)
    xi = np.asarray(xi, dtype=float)
    s1, xi1, chord = (np.full(s.shape, np.nan) for _ in range(3))
    ok = np.abs(xi) < 1.0 - GLANCING_MARGIN
    if not ok.any():
        return s1, xi1, chord
    L = domain.perimeter
    s0 = np.mod(s[ok], L)
    x0 = xi[ok]
    p0, t0 = (a[ok] for a in frame) if frame else domain._frame(s0)
    n0 = np.stack([-t0[:, 1], t0[:, 0]], axis=-1)
    d = x0[:, None] * t0 + np.sqrt(1.0 - x0 * x0)[:, None] * n0
    # d and the footpoint as rows (dx, dy, px, py): one take per evaluation.
    ray = np.vstack([d.T, p0.T])

    def crossing(x, rows):
        qx, qy = domain._pos(domain._theta_of_arc(x))
        dx, dy, px, py = ray.take(rows, axis=1)
        return dx * (qy - py) - dy * (qx - px)

    lo = s0 + _START_OFFSET * L
    hi = s0 + (1.0 - _START_OFFSET) * L
    exit_s = np.mod(_brentq_rows(crossing, lo, hi), L)
    p1, t1 = domain._frame(exit_s)
    s1[ok] = exit_s
    chord[ok] = np.hypot(p1[:, 0] - p0[:, 0], p1[:, 1] - p0[:, 1])
    xi1[ok] = d[:, 0] * t1[:, 0] + d[:, 1] * t1[:, 1]
    if frame is not None:
        frame[:] = (np.full(s.shape + (2,), np.nan) for _ in range(2))
        frame[0][ok], frame[1][ok] = p1, t1
    return s1, xi1, chord


def _brentq_rows(f, a, b):
    """Brent's method on every row of a set of brackets [a, b] at once.

    A row-wise port of scipy's brentq (brentq.c; Brent 1973,
    ch. 4): each row takes the interpolation, extrapolation or bisection
    step the scalar solver takes, with the same settings (``_XTOL``,
    ``_RTOL``, ``_MAXITER``) and the same arithmetic, so its root is
    bit-identical to ``brentq`` on that row.
    ``f(x, rows)`` evaluates the function of the rows with indices
    ``rows`` at the abscissae ``x``; converged rows drop out of later
    calls.  Raises ValueError when f is NaN or a bracket does not change
    sign, and RuntimeError when a row has not converged after
    ``_MAXITER`` iterations.
    """

    def call(x, rows):
        fx = np.asarray(f(x, rows), dtype=float)
        if np.isnan(fx).any():
            bad = x[np.isnan(fx)][0]
            raise ValueError(f"the function value at x={bad!r} is NaN; solver cannot continue")
        return fx

    xpre = np.array(a, dtype=float)
    xcur = np.array(b, dtype=float)
    root = np.empty(xpre.shape)
    rows = np.arange(xpre.size)
    fpre = call(xpre, rows)
    fcur = call(xcur, rows)
    at_a = fpre == 0.0
    at_b = (fcur == 0.0) & ~at_a
    root[at_a] = xpre[at_a]
    root[at_b] = xcur[at_b]
    live = ~(at_a | at_b)
    if np.any(np.signbit(fpre[live]) == np.signbit(fcur[live])):
        raise ValueError("f(a) and f(b) must have different signs")
    if not live.any():
        return root
    rows, xpre, xcur, fpre, fcur = (v[live] for v in (rows, xpre, xcur, fpre, fcur))
    xblk, fblk, spre, scur = (np.zeros(rows.size) for _ in range(4))

    for _ in range(_MAXITER):
        # Keep the root bracketed by [xcur, xblk] ...  Here fpre is never
        # 0, and a row whose fcur is 0 stops below whatever this does; the
        # sign of a product is the xor of the signs, even on under- or
        # overflow.
        flip = np.signbit(fpre * fcur)
        width = xcur - xpre
        xblk = np.where(flip, xpre, xblk)
        fblk = np.where(flip, fpre, fblk)
        spre = np.where(flip, width, spre)
        scur = np.where(flip, width, scur)
        # ... with xcur the end of smaller |f|.
        swap = np.abs(fblk) < np.abs(fcur)
        xpre, xcur, xblk = (np.where(swap, xcur, xpre), np.where(swap, xblk, xcur),
                            np.where(swap, xcur, xblk))
        fpre, fcur, fblk = (np.where(swap, fcur, fpre), np.where(swap, fblk, fcur),
                            np.where(swap, fcur, fblk))

        delta = (_XTOL + _RTOL * np.abs(xcur)) / 2
        to_blk = xblk - xcur
        sbis = to_blk / 2
        abis = np.abs(sbis)
        done = (fcur == 0.0) | (abis < delta)
        if done.any():
            root[rows[done]] = xcur[done]
            keep = ~done
            if not keep.any():
                return root
            rows, xpre, xcur, xblk, fpre, fcur, fblk, spre, scur, delta, to_blk, sbis, abis = (
                v[keep] for v in (rows, xpre, xcur, xblk, fpre, fcur, fblk,
                                  spre, scur, delta, to_blk, sbis, abis))

        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            # Secant step when xpre is the bracket end, else inverse
            # quadratic extrapolation through the three points.
            nfcur = -fcur
            secant = nfcur * (xcur - xpre) / (fcur - fpre)
            dpre = (fpre - fcur) / (xpre - xcur)
            dblk = (fblk - fcur) / to_blk
            quadratic = nfcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
        stry = np.where(xpre == xblk, secant, quadratic)
        apre = np.abs(spre)
        short = ((apre > delta) & (np.abs(fcur) < np.abs(fpre))
                 & (2 * np.abs(stry) < np.minimum(apre, 3 * abis - delta)))
        spre = np.where(short, scur, sbis)
        scur = np.where(short, stry, sbis)

        xpre, fpre = xcur, fcur
        # sbis is never 0 here, so copysign gives +-delta as sbis > 0 would.
        xcur = xcur + np.where(np.abs(scur) > delta, scur, np.copysign(delta, sbis))
        # Free this iteration's arrays before f runs: with the ~20k rows
        # of a scan's seed table they hold megabytes.
        del flip, width, swap, delta, to_blk, sbis, abis, done
        del nfcur, secant, dpre, dblk, quadratic, stry, apre, short
        fcur = call(xcur, rows)
    raise RuntimeError(f"Brent's method did not converge after {_MAXITER} iterations")


def _orbits(domain: ConvexDomain, s, xi, n_steps: int):
    """Orbits of the starts (s[i], xi[i]), all rows stepped in lockstep.

    Returns (s, xi, chords), each (rows, n_steps): column k holds beta^(k+1)
    and the chord reaching it, NaN once a row meets the glancing guard.
    Every computed point is validated as a PhasePoint.
    """
    n = int(n_steps)
    if n < 1 or n != n_steps:
        raise ValueError("n_steps must be a positive integer")
    steps, frame = [], []
    for _ in range(n):
        # frame goes positionally, so stand-ins taking (domain, *args) fit
        s, xi, chord = _billiard_steps(domain, s, xi, frame)
        # The rows PhasePoint would reject; the first one raises its error.
        bad = ~np.isnan(chord) & ~(np.isfinite(s) & (np.abs(xi) < 1.0))
        if bad.any():
            i = int(np.argmax(bad))
            PhasePoint(float(s[i]), float(xi[i]))
        steps.append((s, xi, chord))
    return tuple(np.stack(column, axis=1) for column in zip(*steps))


def orbit(domain: ConvexDomain, q: PhasePoint, n_steps: int) -> OrbitSegment:
    """Iterate the billiard map n_steps times from q.

    The one-row case of ``_orbits``; raises GlancingError if the orbit
    meets the glancing guard.
    """
    s, xi, chords = (a[0] for a in _orbits(domain, [q.s], [q.xi], n_steps))
    if np.isnan(chords).any():
        raise GlancingError(f"orbit from {q!r} meets the glancing guard")
    points = [q] + list(map(PhasePoint, s.tolist(), xi.tolist()))
    return OrbitSegment(points, chords)


def mean_chord(segment: OrbitSegment) -> float:
    """Arithmetic mean of the chord lengths of an orbit segment."""
    if len(segment.chords) == 0:
        raise ValueError("orbit segment has no chords")
    return float(np.mean(segment.chords))


@dataclass(frozen=True)
class GlancingReport:
    """Empirical check of the near-glancing expansions.

    For each starting point with eps = 1 - xi**2 the report records the
    defect of the conserved normal component,
    |sqrt(1 - xi_next**2) - sqrt(1 - xi**2)|, and the defect of the
    curvature chord law, |chord - (2/kappa) sqrt(1 - xi**2)| with kappa
    at the starting footpoint.  Both defects should be O(eps); the
    exponents are log-log regression slopes against eps (math.inf when
    every defect is below 1e-13, i.e. exact to rounding).
    """

    eps: np.ndarray
    normal_defect: np.ndarray
    chord_defect: np.ndarray
    normal_exponent: float
    chord_exponent: float


def glancing_expansion_check(domain: ConvexDomain,
                             q_sequence: Iterable[PhasePoint]) -> GlancingReport:
    """Measure both near-glancing remainders along a sequence of points.

    The sequence should approach |xi| -> 1 (eps = 1 - xi**2 decreasing)
    for the fitted exponents to be meaningful.
    """
    qs = list(q_sequence)
    if not qs:
        raise ValueError("need at least one phase point")
    s, xi = np.array([q.s for q in qs]), np.array([q.xi for q in qs])
    _, xi1, chord = (a[:, 0] for a in _orbits(domain, s, xi, 1))
    if np.isnan(chord).any():
        raise GlancingError("a phase point of the sequence meets the glancing guard")
    eps = 1.0 - xi * xi
    nu0 = np.sqrt(eps)
    ndef = np.abs(np.sqrt(1.0 - xi1 * xi1) - nu0)
    cdef = np.abs(chord - 2.0 * nu0 / domain.curvature(np.mod(s, domain.perimeter)))

    def slope(defect):
        mask = defect > 1e-13
        if np.count_nonzero(mask) < 2:
            return math.inf
        return float(np.polyfit(np.log(eps[mask]), np.log(defect[mask]), 1)[0])

    return GlancingReport(eps, ndef, cdef, slope(ndef), slope(cdef))


"""Independent oracles used by the test suite.

Everything here is deliberately implemented from scratch (Maclaurin
series, classical log-series, bisection, analytic geometry) so the tests
compare two unrelated evaluation routes.  Accuracy is adequate on the
restricted domains the tests use, not in general.
"""
from __future__ import annotations

import cmath
import math

EULER_GAMMA = 0.5772156649015329


def airy_series(z: complex, terms: int = 160) -> tuple[complex, complex]:
    """(Ai, Ai') by the Maclaurin series.  Trustworthy for |z| <= 8."""
    z = complex(z)
    ai0 = 3.0 ** (-2.0 / 3.0) / math.gamma(2.0 / 3.0)
    aip0 = -(3.0 ** (-1.0 / 3.0)) / math.gamma(1.0 / 3.0)
    z3 = z * z * z
    # f = sum 3^k (1/3)_k z^{3k}/(3k)!,  g = sum 3^k (2/3)_k z^{3k+1}/(3k+1)!
    tf, tg = 1.0 + 0j, z
    f, g = tf, tg
    fp, gp = 0.0 + 0j, 1.0 + 0j
    for k in range(1, terms):
        tf = tf * z3 / ((3 * k) * (3 * k - 1))
        tg = tg * z3 / ((3 * k + 1) * (3 * k))
        f += tf
        g += tg
        if z != 0:
            fp += tf * (3 * k) / z
            gp += tg * (3 * k + 1) / z
        if abs(tf) < 1e-30 * (1.0 + abs(f)) and abs(tg) < 1e-30 * (1.0 + abs(g)):
            break
    return ai0 * f + aip0 * g, ai0 * fp + aip0 * gp


def airy_zero_bisect(j: int) -> float:
    """j-th zero of Ai by sign-change bisection on the series (j <= 5)."""
    t = -((3.0 * math.pi * (4 * j - 1) / 8.0) ** (2.0 / 3.0))
    lo, hi = t - 0.5, t + 0.5
    flo = airy_series(lo)[0].real
    fhi = airy_series(hi)[0].real
    if flo * fhi > 0:
        raise RuntimeError(f"bracket failed for zero {j}")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = airy_series(mid)[0].real
        if flo * fm <= 0:
            hi = mid
        else:
            lo, flo = mid, fm
        if hi - lo < 1e-14:
            break
    return 0.5 * (lo + hi)


def bessel_j_series(n: int, z: complex, terms: int = 120) -> complex:
    """J_n by the ascending series.  Trustworthy for n <= 10, |z| <= 25."""
    z = complex(z)
    half = z / 2.0
    term = half ** n / math.factorial(n)
    acc = term
    for k in range(1, terms):
        term = -term * half * half / (k * (n + k))
        acc += term
        if abs(term) < 1e-30 * (1.0 + abs(acc)):
            break
    return acc


def _psi(m: int) -> float:
    """Digamma at positive integer m: psi(m) = -gamma + H_{m-1}."""
    return -EULER_GAMMA + sum(1.0 / i for i in range(1, m))


def bessel_y_series(n: int, z: complex, terms: int = 120) -> complex:
    """Y_n by the classical log-series (principal branch), small n only."""
    z = complex(z)
    half = z / 2.0
    out = (2.0 / math.pi) * cmath.log(half) * bessel_j_series(n, z, terms)
    # finite sum of negative powers
    fin = 0.0 + 0j
    for k in range(n):
        fin += (
            math.factorial(n - k - 1)
            / math.factorial(k)
            * half ** (2 * k - n)
        )
    out -= fin / math.pi
    # psi-weighted ascending series
    term = half ** n / math.factorial(n)
    acc = (_psi(1) + _psi(n + 1)) * term
    for k in range(1, terms):
        term = -term * half * half / (k * (n + k))
        acc += (_psi(k + 1) + _psi(n + k + 1)) * term
        if abs(term) < 1e-30:
            break
    out -= acc / math.pi
    return out


def bessel_h1_series(n: int, z: complex) -> complex:
    """H^(1)_n = J_n + i Y_n from the two series above."""
    return bessel_j_series(n, z) + 1j * bessel_y_series(n, z)


# ---------------------------------------------------------------------------
# geometry oracles


def ellipse_ray_exit(a: float, b: float, p: tuple[float, float], d: tuple[float, float]) -> float:
    """Forward parameter t > 0 where p + t d leaves x^2/a^2 + y^2/b^2 = 1.

    p must lie on the ellipse and d point strictly inward; the quadratic
    then has roots 0 and t > 0.
    """
    px, py = p
    dx, dy = d
    qa = (dx / a) ** 2 + (dy / b) ** 2
    qb = 2.0 * (px * dx / a ** 2 + py * dy / b ** 2)
    # c = 0 on the ellipse, so the nonzero root is -qb/qa
    t = -qb / qa
    if t <= 0:
        raise RuntimeError("ray does not reenter the ellipse")
    return t


def foci_momentum_product(a: float, b: float, p: tuple[float, float], d: tuple[float, float]) -> float:
    """Product of angular momenta about the two foci, conserved by the
    ellipse billiard."""
    f = math.sqrt(abs(a * a - b * b))
    if a >= b:
        f1, f2 = (f, 0.0), (-f, 0.0)
    else:
        f1, f2 = (0.0, f), (0.0, -f)
    l1 = (p[0] - f1[0]) * d[1] - (p[1] - f1[1]) * d[0]
    l2 = (p[0] - f2[0]) * d[1] - (p[1] - f2[1]) * d[0]
    return l1 * l2


def transparent_quotient(c: float, alpha: float, xi: float) -> float:
    """One-bounce Sabine quotient on the unit disk, from scratch.

    Chord 2 sqrt(1 - xi^2), travel time c^{-1} chord, reflectivity
    (nu - alpha w)/(alpha w + nu) with nu = sqrt(1 - xi^2) and
    w = sqrt(c^2 - xi^2); above the critical angle (xi > c) the modulus
    is 1 and the quotient vanishes.
    """
    nu = math.sqrt(1.0 - xi * xi)
    if xi >= c:
        return 0.0
    w = math.sqrt(c * c - xi * xi)
    mod = abs((nu - alpha * w) / (alpha * w + nu))
    if mod == 0.0:
        return -math.inf
    return c * 2.0 * math.log(mod) / (4.0 * nu)


def damping_quotient(a: float, xi: float) -> float:
    """One-bounce damped-wave Sabine quotient on the unit disk."""
    nu = math.sqrt(1.0 - xi * xi)
    mod = abs((nu - a) / (a + nu))
    if mod == 0.0:
        return -math.inf
    return 2.0 * math.log(mod) / (4.0 * nu)


# ---------------------------------------------------------------------------
# reflectivity, one point at a time in Python complex


def _upper_sqrt(z: complex) -> complex:
    """sqrt(|z|) e^{i Arg(z)/2}, Arg(z) in (-pi/2, 3pi/2]."""
    if z == 0:
        return 0.0 + 0.0j
    theta = cmath.phase(z)
    if theta <= -0.5 * math.pi:
        theta += 2.0 * math.pi
    return math.sqrt(abs(z)) * cmath.exp(0.5j * theta)


def reflection_point(model, xi: float, position: float = 0.0) -> complex:
    """Reflection coefficient of one of the three boundary laws at one
    point, in CPython's complex arithmetic, formula by formula."""
    xi = float(xi)
    if abs(xi) > 1.0 - 1e-12:
        raise ValueError(f"|xi| = {abs(xi)!r} is too close to glancing")
    nu = math.sqrt(1.0 - xi * xi)
    if model.tag == "transparent":
        w = _upper_sqrt(complex(model.c * model.c - xi * xi))
        return (nu - model.alpha * w) / (model.alpha * w + nu)
    if model.tag == "delta":
        hw = model.coupling(position)
        return hw / (2.0j * nu - hw)
    a = model.damping_at(position)
    return complex((nu - a) / (a + nu))


def log_reflection_point(model, xi: float, position: float = 0.0) -> float:
    """log |r|**2 at one point, -inf at a zero, clamped at 0."""
    magnitude = abs(reflection_point(model, xi, position))
    if magnitude == 0.0:
        return -math.inf
    return min(2.0 * math.log(magnitude), 0.0)

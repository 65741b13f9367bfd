"""Gravitational self-energy of a displaced mass configuration, and the
collapse-time estimate t = hbar / E built on it.

Convention (recorded here once and used consistently everywhere, including
the CLI table output): the self-energy of the difference between two mass
densities rho_a, rho_b is

    E = G * integral d3r d3r' Drho(r) Drho(r') / |r - r'|,  Drho = rho_a - rho_b,

with no extra factor of 1/2 or 4 pi.  The Coulomb kernel is positive
definite, so E >= 0, vanishing exactly when the configurations coincide.
Expanding the square gives E = G (W_aa + W_bb - 2 W_ab) with the pair
terms W_xy = (1/G) * G-free double integral of rho_x rho_y / |r - r'|;
only the pair term is needed at each center separation because every
catalog distribution is spherically symmetric.

One array function, ``_energies``, forms E over an array of separations:
``separation_sweep`` passes its rows, ``delta_self_energy`` and
``collapse_time`` one row.  It takes each pair term from ``_pair_terms``,
the one place where kinds are told apart: a closed form for equal-radius
uniform spheres and for any pair of Gaussians, adaptive quadrature row by
row for every other pair (mixed kinds, unequal radii).  A kind carries its
own forms: ``radial()`` (density, potential and its integral, for the
quadrature route), ``kinks(d)`` (where that route's integrand changes
form, its starting breakpoints), ``outer_radius`` (where it stops) and
``sample(rng, n)`` (for the Monte-Carlo route); ``DISTRIBUTION_KINDS``
maps each ``kind`` key to its class.

``delta_self_energy_monte_carlo``, a fixed-seed Monte-Carlo double
integral, is kept independent of the closed forms and the quadrature: it is
the brute-force oracle they are tested against; ``n_samples`` must be an
int >= 1.  It samples each distribution once, from one PCG64 substream
per distribution, in chunks of 2^15 pairs: consecutive points of one
distribution are the pairs of its own term, aligned points of the two the
pairs of the cross term, so n pairs per term take about 2n draws.
Every energy and lifetime these functions return is a Python float.

No route needs scipy: the Gaussian forms take ``math.erf``, and the
quadrature route is the package's own adaptive 21-point Gauss-Kronrod rule,
``_gauss_kronrod``, the rule and error estimate of QUADPACK's ``qk21``.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, fields
from operator import mul

import numpy as np

from .errors import InfiniteLifetime, QlifError, QuadratureNonConvergence
from .spacetime import UnitSystem, _set_parameters

CONVENTION = "E = G * iint d3r d3r' drho(r) drho(r') / |r - r'|"


@dataclass(frozen=True)
class _Distribution:
    """Spherically symmetric density: its fields are a mass and a size, finite
    floats > 0, then a centre, a 3-tuple of finite floats.

    A kind sets ``kind`` (its ``collapse.distribution`` key) and carries its
    forms: ``radial()``, the (rho, V, I) closures of one float each (the
    density at radius r, the Coulomb potential at s and
    I(s) = int_0^s u V(u) du); ``kinks(d)``, the radii r at which its
    I(|d +- r|) changes form in a pair term at separation d;
    ``outer_radius``, where the quadrature route stops; and
    ``sample(rng, n)``, n points drawn from the density.
    """

    kind = ""

    def __post_init__(self):
        _set_parameters(self, fields(self))


@dataclass(frozen=True)
class UniformSphere(_Distribution):
    """Homogeneous ball of total mass ``mass`` and radius ``radius``."""

    kind = "uniform_sphere"
    mass: float
    radius: float
    center: tuple[float, float, float] = (0.0, 0.0, 0.0)

    def radial(self):
        M, R = self.mass, self.radius
        rho0 = M / (4.0 / 3.0 * np.pi * R**3)
        three_r2, two_r3, inner = 3.0 * R**2, 2.0 * R**3, 1.5 * R**2
        at_r = M * (inner * R**2 - 0.25 * R**4) / two_r3

        def rho(r):
            return rho0 if r <= R else 0.0

        def V(s):
            return M * (three_r2 - s * s) / two_r3 if s < R else M / s

        def I(s):
            if s < R:
                return M * (inner * s**2 - 0.25 * s**4) / two_r3
            return at_r + M * (s - R)

        return rho, V, I

    def kinks(self, d: float) -> tuple[float, ...]:
        # I(s) changes form at s = R: d + r = R and |d - r| = R
        return (abs(self.radius - d), self.radius + d)

    @property
    def outer_radius(self) -> float:
        return self.radius

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        v = rng.standard_normal((n, 3))
        v /= _row_norms(v)[:, None]
        v *= (self.radius * rng.random(n) ** (1.0 / 3.0))[:, None]
        v += self.center
        return v


@dataclass(frozen=True)
class Gaussian(_Distribution):
    """Isotropic Gaussian density of total mass ``mass`` and width ``width``.

    rho(r) = mass (2 pi width^2)^(-3/2) exp(-r^2 / (2 width^2)).
    """

    kind = "gaussian"
    mass: float
    width: float
    center: tuple[float, float, float] = (0.0, 0.0, 0.0)

    def radial(self):
        # math functions on Python floats: one call per point, no numpy scalars
        M, w, exp, erf = self.mass, self.width, math.exp, math.erf
        coef, two_w2 = M * (2.0 * math.pi * w**2) ** -1.5, 2.0 * w**2
        small, v0 = 1e-12 * w, M * math.sqrt(2.0 / math.pi) / w
        sw = math.sqrt(2.0) * w
        sw2, tail = sw * sw, sw / math.sqrt(math.pi)

        def rho(r):
            return coef * exp(-(r * r) / two_w2)

        def V(s):
            return v0 if s < small else M * erf(s / sw) / s

        def I(s):
            return M * (s * erf(s / sw) + tail * (exp(-(s * s) / sw2) - 1.0))

        return rho, V, I

    def kinks(self, d: float) -> tuple[float, ...]:
        return ()  # I is smooth

    @property
    def outer_radius(self) -> float:
        return 12.0 * self.width

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        # normal(scale=w) is 0 + w * standard_normal(): the same draws and bits, one pass fewer
        v = rng.standard_normal((n, 3))
        v *= self.width
        v += self.center
        return v


DISTRIBUTION_KINDS = {cls.kind: cls for cls in (UniformSphere, Gaussian)}


def _separation(a: _Distribution, b: _Distribution) -> float:
    return math.dist(a.center, b.center)  # scaled: no finite pair over- or underflows


def _row_norms(v: np.ndarray) -> np.ndarray:
    # np.linalg.norm(v, axis=1) bit for bit, without its (n, 3) square
    x, y, z = v.T
    return np.sqrt(x * x + y * y + z * z)


# ---------------------------------------------------------------------------
# Pair terms W_xy(d) = iint rho_x rho_y / |r - r'| (no G) over an array of d
# ---------------------------------------------------------------------------


def _pair_uniform_equal(m1: float, m2: float, R: float, d: np.ndarray) -> np.ndarray:
    # Overlapping equal spheres: piecewise quintic, C^1 at d = 2R, derived
    # by integrating the interior/exterior sphere potential against the
    # second density; checked against the Monte-Carlo route in the tests.
    # The far rows take one array pass and the quintic goes row by row:
    # Python's ** is libm pow, which numpy's array powers can miss by an ulp.
    def quintic(x):
        return (m1 * m2 / R) * (1.2 - 0.5 * x**2 + (3.0 / 16.0) * x**3 - x**5 / 160.0)

    w = m1 * m2 / np.maximum(d, 2.0 * R)
    near = d < 2.0 * R
    w[near] = [quintic(x) for x in (d[near] / R).tolist()]
    return w


def _pair_gaussian(m1: float, m2: float, w1: float, w2: float, d: np.ndarray) -> np.ndarray:
    # Two Gaussian clouds interact like a point and a cloud of combined
    # width sqrt(w1^2 + w2^2); d = 0 takes the limit.  erf goes row by row,
    # and erf(x) / d is formed first: m1 m2 erf(x) can leave the normal
    # range at tiny d where the quotient does not.
    s = np.sqrt(w1**2 + w2**2)
    erf = np.array([math.erf(x) for x in (d / (np.sqrt(2.0) * s)).tolist()])
    with np.errstate(divide="ignore", invalid="ignore"):
        w = m1 * m2 * (erf / d)
    return np.where(d == 0.0, m1 * m2 * np.sqrt(2.0 / np.pi) / s, w)


# Globally adaptive quadrature: QUADPACK's 21-point Gauss-Kronrod rule
# (qk21: the 10-point Gauss-Legendre rule and its Kronrod extension, with
# QUADPACK's error estimate), bisecting the interval of largest estimated
# error until the summed estimate meets the tolerance, as qag does.
# Nodes on [-1, 1] in descending order; the Gauss nodes are every other
# one, starting from the second (the centre is a Kronrod node only).

_GK21_X = (
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
)
_GK21_WK = (
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077208767098272, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
)
_GK21_WK0 = 0.149445554002916905664936468389821
_GK21_WG = (
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
)
_GK21_NODES = (*_GK21_X, 0.0, *(-x for x in reversed(_GK21_X)))
_GK21_KRONROD = (*_GK21_WK, _GK21_WK0, *reversed(_GK21_WK))
_GK21_GAUSS = (*_GK21_WG, *reversed(_GK21_WG))
_EPS, _TINY = 2.0**-52, 2.0**-1022  # QUADPACK's epmach and uflow


def _gk21(f, a: float, b: float) -> tuple[float, float]:
    """(integral, error estimate) of f over [a, b], a < b, by one 21-point Gauss-Kronrod rule."""
    c, h = 0.5 * (a + b), 0.5 * (b - a)
    fv = [f(c + h * x) for x in _GK21_NODES]
    resk = sum(map(mul, _GK21_KRONROD, fv))
    resg = sum(map(mul, _GK21_GAUSS, fv[1::2]))
    half = 0.5 * resk
    # sum w |f| is the Kronrod sum itself, term for term, when no value is negative
    resabs = h * (resk if min(fv) >= 0.0 else sum(map(mul, _GK21_KRONROD, map(abs, fv))))
    resasc = h * sum(map(mul, _GK21_KRONROD, [abs(v - half) for v in fv]))
    err = h * abs(resk - resg)
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    if resabs > _TINY / (50.0 * _EPS):
        err = max(50.0 * _EPS * resabs, err)
    return resk * h, err


def _gauss_kronrod(f, points, rtol: float, limit: int) -> tuple[float, float]:
    """(integral, error estimate) of the scalar function f over [points[0], points[-1]].

    ``points`` increase: the ends, and between them the integrand's kinks.
    Starts from one 21-point rule on each interval between consecutive
    points, as QUADPACK's qagp does, and bisects the interval with the
    largest error estimate while the summed estimate exceeds rtol |integral|
    and there are fewer than ``limit`` intervals.  Every interval costs 21
    calls of f.
    """
    pending = []
    for lo, hi in zip(points, points[1:]):
        val, err = _gk21(f, lo, hi)
        pending.append((-err, lo, hi, val))
    heapq.heapify(pending)
    total, errsum = math.fsum(p[3] for p in pending), math.fsum(-p[0] for p in pending)
    while errsum > rtol * abs(total) and len(pending) < limit:
        neg_err, lo, hi, v = heapq.heappop(pending)
        mid = 0.5 * (lo + hi)
        v1, e1 = _gk21(f, lo, mid)
        v2, e2 = _gk21(f, mid, hi)
        heapq.heappush(pending, (-e1, lo, mid, v1))
        heapq.heappush(pending, (-e2, mid, hi, v2))
        total += (v1 + v2) - v
        errsum += (e1 + e2) + neg_err
    return math.fsum(p[3] for p in pending), math.fsum(-p[0] for p in pending)


# W_xy(d) = (2 pi / d) * int_0^inf r rho_y(r) [ I_x(d + r) - I_x(|d - r|) ] dr
# with I_x(s) = int_0^s u V_x(u) du and V_x the Coulomb potential of x;
# for d = 0 the angular average collapses to W = int 4 pi r^2 rho_y V_x dr.
# The quadrature route starts from x's kinks and holds each pair term to
# _QUAD_RTOL within _QUAD_LIMIT intervals: left to the bisection, a kink
# inside one interval can pass its error estimate while the value is off
# by far more than the tolerance.

_QUAD_LIMIT = 200
_QUAD_RTOL = 1e-10


def _pair_quadrature(a: _Distribution, b: _Distribution, d: float) -> float:
    hi = b.outer_radius
    rho = b.radial()[0]
    _, V, I = a.radial()
    if d == 0.0:
        four_pi = 4.0 * np.pi

        def integrand(r):
            return four_pi * r**2 * rho(r) * V(r)

    else:
        scale = 2.0 * np.pi / d

        def integrand(r):
            return scale * r * rho(r) * (I(d + r) - I(abs(d - r)))

    points = (0.0, *sorted({r for r in a.kinks(d) if 0.0 < r < hi}), hi)
    val, abserr = _gauss_kronrod(integrand, points, _QUAD_RTOL, _QUAD_LIMIT)
    if abserr > max(_QUAD_RTOL * abs(val), 1e-300):
        raise QuadratureNonConvergence(
            f"pair term error estimate {abserr:.3e} exceeds tolerance for value {val:.6e}"
        )
    return float(val)


def _pair_terms(a: _Distribution, b: _Distribution, d: np.ndarray) -> np.ndarray:
    """W_ab at each separation in ``d``: closed form where the pair has one, quadrature row by row otherwise."""
    if isinstance(a, UniformSphere) and isinstance(b, UniformSphere) and a.radius == b.radius:
        return _pair_uniform_equal(a.mass, b.mass, a.radius, d)
    if isinstance(a, Gaussian) and isinstance(b, Gaussian):
        return _pair_gaussian(a.mass, b.mass, a.width, b.width, d)
    return np.array([_pair_quadrature(a, b, x) for x in d.tolist()])


def _energies(a: _Distribution, b: _Distribution, d: np.ndarray, units: UnitSystem) -> np.ndarray:
    """E = G max(W_aa + W_bb - 2 W_ab(d), 0) at each separation in ``d``, QlifError naming the pair
    where a term passes the float range; d = inf puts b out of reach of a: W_ab = 0."""
    at_zero = np.zeros(1)
    with np.errstate(over="ignore", invalid="ignore"):
        w_self = _pair_terms(a, a, at_zero) + _pair_terms(b, b, at_zero)
        e = units.G * np.maximum(w_self - 2.0 * _pair_terms(a, b, d), 0.0)
    if not np.all(np.isfinite(e)):
        raise QlifError(f"{a} and {b}: the difference self-energy is not finite (a term passes the float range)")
    return e


def delta_self_energy(a: _Distribution, b: _Distribution, units: UnitSystem) -> float:
    """Self-energy of the density difference (see module convention).

    Uses the closed-form pair terms where they exist and adaptive
    quadrature otherwise; exactly zero for identical configurations.
    Raises QuadratureNonConvergence if a quadrature pair term cannot reach
    its relative tolerance, 1e-10.
    """
    return float(_energies(a, b, np.array([_separation(a, b)]), units)[0])


# Monte-Carlo pairs per chunk: each chunk holds two batches of m + 1 points.
_MC_CHUNK = 1 << 15


def delta_self_energy_monte_carlo(
    a: _Distribution,
    b: _Distribution,
    units: UnitSystem,
    n_samples: int = 4_000_000,
    seed: int = 20405,
) -> float:
    """Brute-force Monte-Carlo route: E = G M^2 E[1/|r - r'|] termwise.

    Each distribution is sampled once, from its own PCG64 substream
    spawned from ``seed``, and all three pair terms read those points:
    W_aa pairs consecutive points of ``a`` (a_i, a_{i+1}), W_bb those of
    ``b``, and W_ab aligned points (a_i, b_i).  Every pair is two
    independent draws, so each term is an unbiased mean of ``n_samples``
    pair values.  The draws come in chunks of ``_MC_CHUNK`` pairs, each
    m + 1 points from either distribution, so the value is reproducible
    bit for bit.  ValueError unless ``n_samples`` is an int >= 1.
    """
    if not isinstance(n_samples, (int, np.integer)) or n_samples < 1:
        raise ValueError(f"n_samples must be an int >= 1, got {n_samples!r}")
    rng_a, rng_b = (np.random.default_rng(ss) for ss in np.random.SeedSequence(seed).spawn(2))
    w_aa = w_bb = w_ab = 0.0
    done = 0
    while done < n_samples:
        m = min(_MC_CHUNK, n_samples - done)
        pa = a.sample(rng_a, m + 1)
        pb = b.sample(rng_b, m + 1)
        w_aa += float(np.sum(1.0 / _row_norms(pa[1:] - pa[:-1])))
        w_bb += float(np.sum(1.0 / _row_norms(pb[1:] - pb[:-1])))
        w_ab += float(np.sum(1.0 / _row_norms(pa[:-1] - pb[:-1])))
        done += m
    total = a.mass**2 * w_aa + b.mass**2 * w_bb - 2.0 * a.mass * b.mass * w_ab
    return float(units.G * total / n_samples)


def collapse_time(a: _Distribution, b: _Distribution, units: UnitSystem) -> float:
    """hbar / E for the pair, in the unit system's time unit.

    Raises InfiniteLifetime when the difference self-energy vanishes
    (identical configurations never collapse).
    """
    e = delta_self_energy(a, b, units)
    if e == 0.0:
        raise InfiniteLifetime("identical mass configurations: zero difference self-energy")
    return units.hbar / e


def separation_sweep(
    template_a: _Distribution, separations, units: UnitSystem
) -> list[tuple[float, float, float | None]]:
    """(d, E, t) rows for ``template_a`` and a copy of it a distance d away.

    Every catalog distribution is spherically symmetric, so a row depends
    on d alone, not on the direction of the displacement.  ``t`` is None
    on rows with zero self-energy (the infinite-lifetime case, marked
    explicitly by the CLI).  Each row is evaluated at its requested d, all
    rows in one pass of ``_energies`` (a copy has the template's shape, so
    every row has a closed form); d = inf is the far-field row,
    E = G (W_aa + W_bb).  ValueError unless d >= 0 (NaN included).
    """
    separations = list(separations)
    for d in separations:
        if not d >= 0.0:
            raise ValueError(f"separations must be >= 0, got {d!r}")
    d = np.array(separations, dtype=float)
    e = _energies(template_a, template_a, d, units)
    with np.errstate(divide="ignore"):
        t = units.hbar / e
    return [(d, e, t if e > 0.0 else None) for d, e, t in zip(d.tolist(), e.tolist(), t.tolist())]

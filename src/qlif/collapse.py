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

Three evaluation routes are provided and kept deliberately independent:

* an analytic route (closed forms for equal-radius uniform spheres and for
  any pair of Gaussians),
* an adaptive-quadrature route for general spherically symmetric pairs
  (mixed kinds, unequal radii),
* a fixed-seed Monte-Carlo double integral, the brute-force oracle the
  faster routes are tested against.

scipy (``special.erf`` and ``integrate.quad``) is imported on first use,
once per process, by the Gaussian and quadrature routes only: equal-sphere
pairs, and so every sample config, never load it.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import InfiniteLifetime, QuadratureNonConvergence
from .spacetime import UnitSystem

CONVENTION = "E = G * iint d3r d3r' drho(r) drho(r') / |r - r'|"


@dataclass(frozen=True)
class _Distribution:
    """Spherically symmetric density: its fields are a mass and a size, finite
    floats > 0, then a centre, a 3-tuple of finite floats."""

    def __post_init__(self):
        mass, size, _ = self.__dataclass_fields__
        for name in (mass, size):
            v = float(getattr(self, name))
            if not 0.0 < v < math.inf:
                raise ValueError(f"{name} must be finite and > 0")
            object.__setattr__(self, name, v)
        center = tuple(float(c) for c in self.center)
        if len(center) != 3 or not all(map(math.isfinite, center)):
            raise ValueError("center must be a finite 3-vector")
        object.__setattr__(self, "center", center)


@dataclass(frozen=True)
class UniformSphere(_Distribution):
    """Homogeneous ball of total mass ``mass`` and radius ``radius``."""

    mass: float
    radius: float
    center: tuple[float, float, float] = (0.0, 0.0, 0.0)


@dataclass(frozen=True)
class Gaussian(_Distribution):
    """Isotropic Gaussian density of total mass ``mass`` and width ``width``.

    rho(r) = mass (2 pi width^2)^(-3/2) exp(-r^2 / (2 width^2)).
    """

    mass: float
    width: float
    center: tuple[float, float, float] = (0.0, 0.0, 0.0)


MassDistribution = UniformSphere | Gaussian


@functools.cache
def _scipy():
    """scipy with its ``special`` and ``integrate`` modules, imported once on first use."""
    import scipy.integrate
    import scipy.special

    return scipy


def _erf(x):
    return _scipy().special.erf(x)


def _separation(a: MassDistribution, b: MassDistribution) -> float:
    d = np.asarray(a.center) - np.asarray(b.center)
    return float(np.sqrt(d @ d))


# ---------------------------------------------------------------------------
# Analytic pair terms W_xy(d) = iint rho_x rho_y / |r - r'| (no G)
# ---------------------------------------------------------------------------


def _pair_uniform_equal(m1: float, m2: float, R: float, d: float) -> float:
    # Overlapping equal spheres: piecewise quintic, C^1 at d = 2R, derived
    # by integrating the interior/exterior sphere potential against the
    # second density; checked against the Monte-Carlo route in the tests.
    if d >= 2.0 * R:
        return m1 * m2 / d
    x = d / R
    return (m1 * m2 / R) * (1.2 - 0.5 * x**2 + (3.0 / 16.0) * x**3 - x**5 / 160.0)


def _pair_gaussian(m1: float, m2: float, w1: float, w2: float, d: float) -> float:
    # Two Gaussian clouds interact like a point and a cloud of combined
    # width sqrt(w1^2 + w2^2).
    s = np.sqrt(w1**2 + w2**2)
    if d == 0.0:
        return m1 * m2 * np.sqrt(2.0 / np.pi) / s
    return m1 * m2 * float(_erf(d / (np.sqrt(2.0) * s))) / d


def _pair_analytic(a: MassDistribution, b: MassDistribution, d: float) -> float | None:
    if isinstance(a, UniformSphere) and isinstance(b, UniformSphere):
        if a.radius == b.radius:
            return _pair_uniform_equal(a.mass, b.mass, a.radius, d)
        return None
    if isinstance(a, Gaussian) and isinstance(b, Gaussian):
        return _pair_gaussian(a.mass, b.mass, a.width, b.width, d)
    return None


# ---------------------------------------------------------------------------
# Quadrature pair term for general spherically symmetric pairs
# ---------------------------------------------------------------------------
#
# W_xy(d) = (2 pi / d) * int_0^inf r rho_y(r) [ I_x(d + r) - I_x(|d - r|) ] dr
# with I_x(s) = int_0^s u V_x(u) du and V_x the Coulomb potential of x;
# for d = 0 the angular average collapses to W = int 4 pi r^2 rho_y V_x dr.

_QUAD_LIMIT = 200


def _coulomb_potential(dist: MassDistribution, s: np.ndarray) -> np.ndarray:
    s = np.asarray(s, dtype=float)
    if isinstance(dist, UniformSphere):
        M, R = dist.mass, dist.radius
        inside = s < R
        out = np.empty_like(s)
        out[inside] = M * (3.0 * R**2 - s[inside] ** 2) / (2.0 * R**3)
        out[~inside] = M / s[~inside]
        return out
    M, w = dist.mass, dist.width
    out = np.empty_like(s)
    small = s < 1e-12 * w
    out[small] = M * np.sqrt(2.0 / np.pi) / w
    out[~small] = M * _erf(s[~small] / (np.sqrt(2.0) * w)) / s[~small]
    return out


def _potential_integral(dist: MassDistribution, s: np.ndarray) -> np.ndarray:
    """I(s) = int_0^s u V(u) du, closed form per kind."""
    s = np.asarray(s, dtype=float)
    if isinstance(dist, UniformSphere):
        M, R = dist.mass, dist.radius
        s_in = np.minimum(s, R)
        inner = M * (1.5 * R**2 * s_in**2 - 0.25 * s_in**4) / (2.0 * R**3)
        return inner + M * np.maximum(s - R, 0.0)
    M, w = dist.mass, dist.width
    sw = np.sqrt(2.0) * w
    return M * (s * _erf(s / sw) + sw / np.sqrt(np.pi) * (np.exp(-(s**2) / sw**2) - 1.0))


def _radial_density(dist: MassDistribution, r: np.ndarray) -> np.ndarray:
    r = np.asarray(r, dtype=float)
    if isinstance(dist, UniformSphere):
        rho0 = dist.mass / (4.0 / 3.0 * np.pi * dist.radius**3)
        return np.where(r <= dist.radius, rho0, 0.0)
    w = dist.width
    return dist.mass * (2.0 * np.pi * w**2) ** -1.5 * np.exp(-(r**2) / (2.0 * w**2))


def _outer_radius(dist: MassDistribution) -> float:
    return dist.radius if isinstance(dist, UniformSphere) else 12.0 * dist.width


def _pair_quadrature(
    a: MassDistribution, b: MassDistribution, d: float, rtol: float = 1e-10
) -> float:
    hi = _outer_radius(b)
    if d == 0.0:

        def integrand(r):
            return 4.0 * np.pi * r**2 * _radial_density(b, r) * _coulomb_potential(a, r)

    else:

        def integrand(r):
            shells = _potential_integral(a, d + r) - _potential_integral(a, abs(d - r))
            return (2.0 * np.pi / d) * r * _radial_density(b, r) * shells

    # quadpack refuses tolerances below machine precision; ask for what it
    # can deliver and hold the result to the caller's tolerance ourselves
    integrate = _scipy().integrate
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        val, abserr = integrate.quad(
            integrand, 0.0, hi, limit=_QUAD_LIMIT, epsrel=max(rtol, 1e-13), epsabs=0.0
        )
    if abserr > max(rtol * abs(val), 1e-300):
        raise QuadratureNonConvergence(
            f"pair term error estimate {abserr:.3e} exceeds tolerance for value {val:.6e}"
        )
    return float(val)


def _pair_term(a: MassDistribution, b: MassDistribution, d: float, rtol: float) -> float:
    w = _pair_analytic(a, b, d)
    if w is None:
        w = _pair_quadrature(a, b, d, rtol=rtol)
    return w


def delta_self_energy(
    a: MassDistribution,
    b: MassDistribution,
    units: UnitSystem,
    rtol: float = 1e-10,
) -> float:
    """Self-energy of the density difference (see module convention).

    Uses the analytic pair formulas where they exist and adaptive
    quadrature otherwise; exactly zero for identical configurations.
    Raises QuadratureNonConvergence if the fallback integral cannot reach
    ``rtol``.
    """
    return _delta_self_energy_at(a, b, _separation(a, b), units, rtol)


def _delta_self_energy_at(a, b, d, units, rtol=1e-10):
    # d = inf puts b out of reach of a: W_ab = 0
    w_aa = _pair_term(a, a, 0.0, rtol)
    w_bb = _pair_term(b, b, 0.0, rtol)
    w_ab = _pair_term(a, b, d, rtol)
    return units.G * max(w_aa + w_bb - 2.0 * w_ab, 0.0)


def delta_self_energy_monte_carlo(
    a: MassDistribution,
    b: MassDistribution,
    units: UnitSystem,
    n_samples: int = 4_000_000,
    seed: int = 20405,
) -> float:
    """Brute-force Monte-Carlo route: E = G M^2 E[1/|r - r'|] termwise.

    Each pair term draws ``n_samples`` independent point pairs from the two
    densities using its own PCG64 substream spawned from ``seed``, in fixed
    chunks, so the value is reproducible bit for bit.
    """
    streams = np.random.SeedSequence(seed).spawn(3)
    pairs = ((a, a), (b, b), (a, b))
    signs = (1.0, 1.0, -2.0)
    total = 0.0
    for ss, (x, y), sign in zip(streams, pairs, signs):
        rng = np.random.default_rng(ss)
        acc = 0.0
        done = 0
        chunk = 500_000
        while done < n_samples:
            m = min(chunk, n_samples - done)
            rx = _sample(x, rng, m)
            ry = _sample(y, rng, m)
            acc += float(np.sum(1.0 / np.linalg.norm(rx - ry, axis=1)))
            done += m
        total += sign * x.mass * y.mass * acc / n_samples
    return units.G * total


def _sample(dist: MassDistribution, rng: np.random.Generator, n: int) -> np.ndarray:
    center = np.asarray(dist.center)
    if isinstance(dist, UniformSphere):
        v = rng.normal(size=(n, 3))
        v /= np.linalg.norm(v, axis=1)[:, None]
        radii = dist.radius * rng.random(n) ** (1.0 / 3.0)
        return center + v * radii[:, None]
    return center + rng.normal(scale=dist.width, size=(n, 3))


def collapse_time(
    a: MassDistribution,
    b: MassDistribution,
    units: UnitSystem,
    rtol: float = 1e-10,
) -> float:
    """hbar / E for the pair, in the unit system's time unit.

    Raises InfiniteLifetime when the difference self-energy vanishes
    (identical configurations never collapse).
    """
    e = delta_self_energy(a, b, units, rtol=rtol)
    if e == 0.0:
        raise InfiniteLifetime("identical mass configurations: zero difference self-energy")
    return units.hbar / e


def separation_sweep(
    template_a: MassDistribution,
    separations,
    units: UnitSystem,
    axis=(0.0, 0.0, 1.0),
) -> list[tuple[float, float, float | None]]:
    """(d, E, t) rows for a copy of ``template_a`` displaced along ``axis``.

    ``t`` is None on rows with zero self-energy (the infinite-lifetime
    case, marked explicitly by the CLI).  d = inf is the far-field row,
    E = G (W_aa + W_bb), taken without a copy at infinity: a distribution's
    centre is finite.  ValueError unless d >= 0 (NaN included) and unless
    ``axis`` is a finite nonzero 3-vector.
    """
    axis = np.asarray(axis, dtype=float)
    norm = np.linalg.norm(axis) if axis.shape == (3,) else math.nan
    if not 0.0 < norm < math.inf:
        raise ValueError(f"axis must be a finite nonzero 3-vector, got {axis.tolist()!r}")
    axis = (axis / norm).tolist()
    rows = []
    for d in separations:
        if not d >= 0.0:
            raise ValueError(f"separations must be >= 0, got {d!r}")
        d = float(d)
        if d == math.inf:
            e = _delta_self_energy_at(template_a, template_a, d, units)
        else:
            moved = replace(template_a, center=tuple(c + d * a for c, a in zip(template_a.center, axis)))
            e = delta_self_energy(template_a, moved, units)
        t = units.hbar / e if e > 0.0 else None
        rows.append((d, e, t))
    return rows

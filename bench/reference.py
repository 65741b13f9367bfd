"""Reference values the benchmark checks qlif's outputs against.

Nothing here imports qlif.  Each function restates the physics from its
own formula (closed forms in numpy, or mpmath at high precision), so an
agreement with qlif is a real check and not qlif compared with itself.
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np

MP_DIGITS = 50


# ---------------------------------------------------------------------------
# Weak-field point mass, g_00 = -(1 + 2 phi), g_ij = (1 - 2 phi) delta_ij,
# phi = -G M / (c^2 sqrt(r^2 + soft^2))
# ---------------------------------------------------------------------------


def weak_field_phi(xyz: np.ndarray, mass: float, soft: float, center, G: float = 1.0, c: float = 1.0):
    """Dimensionless potential phi = Phi / c^2 at (..., 3) points."""
    d = np.asarray(xyz, dtype=float) - np.asarray(center, dtype=float)
    return -G * mass / np.sqrt(np.sum(d * d, axis=-1) + soft**2) / c**2


def weak_field_sqrt_neg_g(xyz, mass, soft, center, G=1.0, c=1.0):
    """sqrt(-det g) = sqrt((1 + 2 phi) (1 - 2 phi)^3)."""
    phi = weak_field_phi(xyz, mass, soft, center, G, c)
    return np.sqrt((1.0 + 2.0 * phi) * (1.0 - 2.0 * phi) ** 3)


def weak_field_metric_diag(xyz, mass, soft, center, G=1.0, c=1.0):
    """(g_00, g_ii) at (..., 3) points."""
    phi = weak_field_phi(xyz, mass, soft, center, G, c)
    return -(1.0 + 2.0 * phi), 1.0 - 2.0 * phi


def weak_field_acceleration(xyz, mass, soft, center, G=1.0):
    """Newtonian acceleration -grad Phi of the softened potential, by hand."""
    d = np.asarray(xyz, dtype=float) - np.asarray(center, dtype=float)
    r2 = float(d @ d)
    return -G * mass * d / (r2 + soft**2) ** 1.5


def gaussian_packet(xyz, center, sigma, momentum=None, hbar=1.0):
    """exp(-|x - c|^2 / (2 sigma^2)) exp(i p.x / hbar), unnormalized."""
    xyz = np.asarray(xyz, dtype=float)
    q = np.sum((xyz - np.asarray(center, dtype=float)) ** 2, axis=-1)
    psi = np.exp(-q / (2.0 * sigma**2)).astype(complex)
    if momentum is not None:
        psi = psi * np.exp(1j * (xyz @ np.asarray(momentum, dtype=float)) / hbar)
    return psi


def grid_points(lo, hi, n) -> np.ndarray:
    """C-ordered (n0, n1, n2, 3) coordinates of a uniform grid with inclusive bounds."""
    axes = [np.linspace(l, h, k) for l, h, k in zip(lo, hi, n)]
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)


# ---------------------------------------------------------------------------
# Schwarzschild, geometric units: g = diag(-f, 1/f, r^2, r^2 sin^2 theta)
# ---------------------------------------------------------------------------


def schwarzschild_invariants(mass: float, x: np.ndarray, u: np.ndarray):
    """(g(u, u), Killing energy -g_00 u^0, angular momentum g_33 u^3) per row."""
    r, th = x[:, 1], x[:, 2]
    f = 1.0 - 2.0 * mass / r
    g33 = (r * np.sin(th)) ** 2
    norm = -f * u[:, 0] ** 2 + u[:, 1] ** 2 / f + r**2 * u[:, 2] ** 2 + g33 * u[:, 3] ** 2
    return norm, f * u[:, 0], g33 * u[:, 3]


def circular_angular_velocity(mass: float, r0: float) -> float:
    """d(phi)/d(tau) of the circular orbit at r0: sqrt(M / r^3) / sqrt(1 - 3M/r)."""
    return math.sqrt(mass / r0**3) / math.sqrt(1.0 - 3.0 * mass / r0)


def radial_period_proper(mass: float, r0: float) -> float:
    """Proper-time radial (epicyclic) period near the circular orbit at r0."""
    omega_r = math.sqrt(mass / r0**3) * math.sqrt(1.0 - 6.0 * mass / r0)
    return 2.0 * math.pi / omega_r * math.sqrt(1.0 - 3.0 * mass / r0)


def periapsis_advance(mass: float, r0: float) -> float:
    """Advance per radial period of a near-circular orbit: 2 pi [(1 - 6M/r0)^(-1/2) - 1]."""
    return 2.0 * math.pi * (1.0 / math.sqrt(1.0 - 6.0 * mass / r0) - 1.0)


# ---------------------------------------------------------------------------
# Difference self-energy E = G iint drho drho' / |r - r'|
# ---------------------------------------------------------------------------


def equal_spheres_energy(G: float, m: float, R: float, d: float) -> float:
    """Two equal uniform spheres a distance d apart, at 50 digits.

    Overlapping (d < 2R): 2 G m^2 / R (x^2/2 - 3 x^3/16 + x^5/160), x = d/R,
    a polynomial with no constant term, so small d loses nothing.
    Apart: the shell-theorem form.
    """
    with mp.workdps(MP_DIGITS):
        G, m, R, d = mp.mpf(G), mp.mpf(m), mp.mpf(R), mp.mpf(d)
        if d >= 2 * R:
            return float(2 * G * m**2 * (mp.mpf(6) / (5 * R) - 1 / d))
        x = d / R
        return float(2 * G * m**2 / R * (x**2 / 2 - 3 * x**3 / 16 + x**5 / 160))


def equal_gaussians_energy(G: float, m: float, w: float, d: float) -> float:
    """Two equal Gaussian clouds of width w: 2 G m^2 [1/(w sqrt(pi)) - erf(d/2w)/d], at 50 digits."""
    if d == 0.0:
        return 0.0
    with mp.workdps(MP_DIGITS):
        G, m, w, d = mp.mpf(G), mp.mpf(m), mp.mpf(w), mp.mpf(d)
        return float(2 * G * m**2 * (1 / (w * mp.sqrt(mp.pi)) - mp.erf(d / (2 * w)) / d))


def shell_theorem_energy(G: float, m1: float, R1: float, m2: float, R2: float, d: float) -> float:
    """Non-overlapping uniform spheres (d >= R1 + R2): G (6 m1^2/5R1 + 6 m2^2/5R2 - 2 m1 m2 / d)."""
    if d < R1 + R2:
        raise ValueError("the shell-theorem form needs d >= R1 + R2")
    return G * (1.2 * m1**2 / R1 + 1.2 * m2**2 / R2 - 2.0 * m1 * m2 / d)


def _form_factor(kind: str, size, k):
    """Fourier transform of a unit-mass density at wavenumber k (mpmath)."""
    if kind == "sphere":
        kr = k * size
        if kr < mp.mpf("1e-4"):
            return 1 - kr**2 / 10
        return 3 * (mp.sin(kr) - kr * mp.cos(kr)) / kr**3
    return mp.exp(-((k * size) ** 2) / 2)


def self_pair(kind: str, m: float, size: float) -> float:
    """W_xx: 6 m^2 / (5 R) for a uniform sphere, m^2 / (w sqrt(pi)) for a Gaussian."""
    if kind == "sphere":
        return 1.2 * m * m / size
    return m * m / (size * math.sqrt(math.pi))


def fourier_pair(kind_a: str, m_a: float, size_a: float, kind_b: str, m_b: float, size_b: float, d: float) -> float:
    """W_ab = (2/pi) int_0^inf rho_a(k) rho_b(k) sin(kd)/(kd) dk by mpmath quadrature.

    The Fourier route shares no formula with qlif's real-space shells.
    The integrand is cut where a Gaussian factor drops below e^-50, or
    past the 400th zero of a sphere's form factor.
    """
    with mp.workdps(25):
        sa, sb, dd = mp.mpf(size_a), mp.mpf(size_b), mp.mpf(d)
        gaussians = [s for kind, s in ((kind_a, sa), (kind_b, sb)) if kind == "gaussian"]
        k_max = 10 / min(gaussians) if gaussians else 400 * mp.pi / min(sa, sb)
        spheres = [s for kind, s in ((kind_a, sa), (kind_b, sb)) if kind == "sphere"]
        # break points every half period of the fastest oscillation
        period = mp.pi / max(spheres + [dd, min(sa, sb)])
        pts = mp.linspace(0, k_max, int(k_max / period) + 2)

        def integrand(k):
            sinc = 1 - (k * dd) ** 2 / 6 if k * dd < mp.mpf("1e-4") else mp.sin(k * dd) / (k * dd)
            return _form_factor(kind_a, sa, k) * _form_factor(kind_b, sb, k) * sinc

        return float(2 / mp.pi * mp.quad(integrand, pts)) * m_a * m_b


def fourier_energy(G: float, kind_a: str, m_a: float, size_a: float, kind_b: str, m_b: float, size_b: float, d: float) -> float:
    """G (W_aa + W_bb - 2 W_ab) with closed-form self terms and the Fourier cross term."""
    cross = fourier_pair(kind_a, m_a, size_a, kind_b, m_b, size_b, d)
    return G * (self_pair(kind_a, m_a, size_a) + self_pair(kind_b, m_b, size_b) - 2.0 * cross)

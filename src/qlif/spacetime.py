"""Analytic spacetime metrics: evaluation, determinant, and Christoffel symbols.

Conventions used throughout the package:

* Signature is (-, +, +, +).
* The time coordinate is stored as x0 = c*t, so every component of a
  coordinate 4-vector carries length units.  In geometric units (c = G = 1)
  x0 coincides with t.  Minkowski is then diag(-1, 1, 1, 1) in any unit
  system.
* Christoffel arrays are indexed Gamma[mu, nu, rho] = Gamma^mu_{nu rho}
  (contravariant index first).
* The catalog is closed: flat space, a softened weak-field point mass in
  Cartesian coordinates, and Schwarzschild in its standard spherical chart.
  For Schwarzschild the spatial components of a FourVector are read as
  (r, theta, phi) in place of (x, y, z).

All functions here are pure; they hold no mutable state and are safe to
call concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SingularRegion, StepTooLarge

ETA = np.diag([-1.0, 1.0, 1.0, 1.0])

# Relative margin kept outside the Schwarzschild horizon, and the smallest
# |sin(theta)| accepted before the spherical chart is treated as singular.
HORIZON_MARGIN = 1e-9
POLAR_MARGIN = 1e-6


@dataclass(frozen=True)
class UnitSystem:
    """Physical constants defining the unit system of a scenario.

    ``geometric()`` sets c = G = hbar = 1; ``si()`` uses CODATA values.
    """

    c: float
    G: float
    hbar: float

    def __post_init__(self):
        for name in ("c", "G", "hbar"):
            v = getattr(self, name)
            if not (np.isfinite(v) and v > 0.0):
                raise ValueError(f"UnitSystem.{name} must be finite and > 0, got {v!r}")

    @classmethod
    def geometric(cls) -> "UnitSystem":
        return cls(c=1.0, G=1.0, hbar=1.0)

    @classmethod
    def si(cls) -> "UnitSystem":
        return cls(c=299792458.0, G=6.67430e-11, hbar=1.054571817e-34)

    # -- conversions into the geometric (all-lengths) system ---------------

    def mass_to_length(self, m: float) -> float:
        """G m / c^2."""
        return self.G * m / self.c**2

    def time_to_length(self, t: float) -> float:
        """c t."""
        return self.c * t

    def energy_to_length(self, e: float) -> float:
        """G E / c^4."""
        return self.G * e / self.c**4

    def hbar_geometric(self) -> float:
        """hbar expressed in the all-lengths system: (G hbar / c^3), units length^2."""
        return self.G * self.hbar / self.c**3


@dataclass(frozen=True)
class FourVector:
    """Spacetime coordinate or velocity with components ordered (t, x, y, z).

    The first component is x0 = c*t.  For metrics with a spherical chart
    (Schwarzschild) the spatial slots are read as (r, theta, phi).  All
    components must be finite.
    """

    t: float
    x: float
    y: float
    z: float

    def __post_init__(self):
        for name in ("t", "x", "y", "z"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"FourVector.{name} must be finite")

    @classmethod
    def from_array(cls, a) -> "FourVector":
        a = np.asarray(a, dtype=float)
        if a.shape != (4,):
            raise ValueError(f"expected 4 components, got shape {a.shape}")
        return cls(float(a[0]), float(a[1]), float(a[2]), float(a[3]))

    @property
    def array(self) -> np.ndarray:
        return np.array([self.t, self.x, self.y, self.z], dtype=float)

    @property
    def spatial(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z], dtype=float)

    def __add__(self, other: "FourVector") -> "FourVector":
        return FourVector.from_array(self.array + other.array)

    def __sub__(self, other: "FourVector") -> "FourVector":
        return FourVector.from_array(self.array - other.array)


class MetricField:
    """A fixed analytic metric g_munu(x) with signature (-, +, +, +).

    Subclasses implement the batched evaluator ``eval_batch`` and the
    validity mask ``valid_mask``; everything else (inverse, determinant,
    finite-difference Christoffels) is generic.  ``christoffel_batch`` may
    be overridden with an analytic fast path.
    """

    units: UnitSystem
    label: str

    def eval_batch(self, points: np.ndarray) -> np.ndarray:
        """(N, 4) points -> (N, 4, 4) metric components. No validity check."""
        raise NotImplementedError

    def valid_mask(self, points: np.ndarray) -> np.ndarray:
        """(N, 4) points -> (N,) bool, True where the point is outside the singular set."""
        raise NotImplementedError

    def christoffel_batch(self, points: np.ndarray):
        """Analytic Christoffels (N, 4, 4, 4) if available, else None."""
        return None

    def require_valid(self, points: np.ndarray) -> None:
        ok = self.valid_mask(points)
        if not np.all(ok):
            bad = np.asarray(points)[np.argmax(~ok)]
            raise SingularRegion(f"{self.label}: point {bad.tolist()} is in the singular set")

    def describe(self) -> dict:
        """JSON-friendly parameter record (used by the state container and CLI)."""
        raise NotImplementedError


class Minkowski(MetricField):
    """Flat spacetime, diag(-1, 1, 1, 1) everywhere."""

    def __init__(self, units: UnitSystem):
        self.units = units
        self.label = "minkowski"

    def eval_batch(self, points):
        points = np.asarray(points, dtype=float)
        n = points.shape[0]
        return np.broadcast_to(ETA, (n, 4, 4)).copy()

    def valid_mask(self, points):
        points = np.asarray(points, dtype=float)
        return np.ones(points.shape[0], dtype=bool)

    def christoffel_batch(self, points):
        points = np.asarray(points, dtype=float)
        return np.zeros((points.shape[0], 4, 4, 4))

    def describe(self):
        return {"kind": "minkowski"}


class WeakFieldPointMass(MetricField):
    """Softened point mass in the weak-field (linearized) form, Cartesian chart.

    g_00 = -(1 + 2 Phi/c^2), g_ij = (1 - 2 Phi/c^2) delta_ij with the
    softened Newtonian potential Phi(r) = -G M / sqrt(r^2 + soft^2), r the
    distance from ``center``.  The softening keeps grid points near the
    source finite; points where |2 Phi/c^2| >= 1 (signature loss) count as
    singular.
    """

    def __init__(self, units: UnitSystem, mass: float, soft: float, center=(0.0, 0.0, 0.0)):
        if not (mass > 0.0):
            raise ValueError("mass must be > 0")
        if not (soft > 0.0):
            raise ValueError("soft must be > 0")
        self.units = units
        self.mass = float(mass)
        self.soft = float(soft)
        self.center = np.asarray(center, dtype=float)
        if self.center.shape != (3,):
            raise ValueError("center must be a 3-vector")
        x, y, z = (float(v) for v in self.center)
        self.label = (
            f"weak_field_point_mass(mass={self.mass!r},soft={self.soft!r},"
            f"center=({x!r},{y!r},{z!r}))"
        )

    def potential(self, points: np.ndarray) -> np.ndarray:
        """Phi at the spatial part of (N, 4) points."""
        d = np.asarray(points, dtype=float)[:, 1:4] - self.center
        r2 = np.einsum("ni,ni->n", d, d)
        return -self.units.G * self.mass / np.sqrt(r2 + self.soft**2)

    def potential_gradient(self, points: np.ndarray) -> np.ndarray:
        """grad Phi, shape (N, 3)."""
        d = np.asarray(points, dtype=float)[:, 1:4] - self.center
        r2 = np.einsum("ni,ni->n", d, d)
        return self.units.G * self.mass * d / (r2 + self.soft**2)[:, None] ** 1.5

    def _phi_over_c2(self, points):
        return self.potential(points) / self.units.c**2

    def eval_batch(self, points):
        phi = self._phi_over_c2(points)
        n = phi.shape[0]
        g = np.zeros((n, 4, 4))
        g[:, 0, 0] = -(1.0 + 2.0 * phi)
        for i in (1, 2, 3):
            g[:, i, i] = 1.0 - 2.0 * phi
        return g

    def valid_mask(self, points):
        return np.abs(2.0 * self._phi_over_c2(points)) < 1.0 - 1e-12

    def describe(self):
        return {
            "kind": "weak_field_point_mass",
            "mass": self.mass,
            "soft": self.soft,
            "center": self.center.tolist(),
        }


class Schwarzschild(MetricField):
    """Schwarzschild exterior in the standard spherical chart (t, r, theta, phi).

    With f(r) = 1 - r_s/r and r_s = 2 G M / c^2:
        g = diag(-f, 1/f, r^2, r^2 sin^2 theta).
    Valid for r > r_s (plus a small margin) and away from the poles.
    """

    def __init__(self, units: UnitSystem, mass: float):
        if not (mass > 0.0):
            raise ValueError("mass must be > 0")
        self.units = units
        self.mass = float(mass)
        self.r_s = 2.0 * units.G * mass / units.c**2
        self.label = f"schwarzschild(mass={self.mass!r})"

    def eval_batch(self, points):
        points = np.asarray(points, dtype=float)
        r = points[:, 1]
        th = points[:, 2]
        f = 1.0 - self.r_s / r
        n = points.shape[0]
        g = np.zeros((n, 4, 4))
        g[:, 0, 0] = -f
        g[:, 1, 1] = 1.0 / f
        g[:, 2, 2] = r**2
        g[:, 3, 3] = r**2 * np.sin(th) ** 2
        return g

    def valid_mask(self, points):
        points = np.asarray(points, dtype=float)
        r = points[:, 1]
        th = points[:, 2]
        return (r > self.r_s * (1.0 + HORIZON_MARGIN)) & (np.abs(np.sin(th)) > POLAR_MARGIN)

    def christoffel_batch(self, points):
        points = np.asarray(points, dtype=float)
        r = points[:, 1]
        th = points[:, 2]
        rs = self.r_s
        f = 1.0 - rs / r
        sin, cos = np.sin(th), np.cos(th)
        n = points.shape[0]
        gam = np.zeros((n, 4, 4, 4))
        a = rs / (2.0 * r**2)
        gam[:, 0, 0, 1] = gam[:, 0, 1, 0] = a / f
        gam[:, 1, 0, 0] = a * f
        gam[:, 1, 1, 1] = -a / f
        gam[:, 1, 2, 2] = -(r - rs)
        gam[:, 1, 3, 3] = -(r - rs) * sin**2
        gam[:, 2, 1, 2] = gam[:, 2, 2, 1] = 1.0 / r
        gam[:, 2, 3, 3] = -sin * cos
        gam[:, 3, 1, 3] = gam[:, 3, 3, 1] = 1.0 / r
        gam[:, 3, 2, 3] = gam[:, 3, 3, 2] = cos / sin
        return gam

    def describe(self):
        return {"kind": "schwarzschild", "mass": self.mass}


def metric_from_dict(spec: dict, units: UnitSystem) -> MetricField:
    """Inverse of ``MetricField.describe`` (used by config and container loaders)."""
    kind = spec.get("kind")
    if kind == "minkowski":
        extra = set(spec) - {"kind"}
    elif kind == "weak_field_point_mass":
        extra = set(spec) - {"kind", "mass", "soft", "center"}
    elif kind == "schwarzschild":
        extra = set(spec) - {"kind", "mass"}
    else:
        raise ValueError(f"unknown metric kind {kind!r}")
    if extra:
        raise ValueError(f"unknown metric keys for {kind!r}: {sorted(extra)}")
    if kind == "minkowski":
        return Minkowski(units)
    if kind == "weak_field_point_mass":
        return WeakFieldPointMass(
            units, mass=spec["mass"], soft=spec["soft"], center=spec.get("center", (0.0, 0.0, 0.0))
        )
    return Schwarzschild(units, mass=spec["mass"])


# ---------------------------------------------------------------------------
# Point-wise operations
# ---------------------------------------------------------------------------


def metric_eval(field: MetricField, x: FourVector) -> np.ndarray:
    """g_munu at x as a symmetric (4, 4) array.

    Raises SingularRegion if x is inside the metric's singular set.
    """
    pts = x.array[None, :]
    field.require_valid(pts)
    return field.eval_batch(pts)[0]


def metric_inverse(field: MetricField, x: FourVector) -> np.ndarray:
    """g^munu at x."""
    return np.linalg.inv(metric_eval(field, x))


def metric_det_sqrt(field: MetricField, x: FourVector) -> float:
    """sqrt(-det g) = sqrt(|det g|) at x; SingularRegion inside the singular set."""
    pts = x.array[None, :]
    field.require_valid(pts)
    return float(sqrt_neg_det_batch(field, pts)[0])


def sqrt_neg_det_batch(field: MetricField, points: np.ndarray) -> np.ndarray:
    """sqrt(-det g) over (N, 4) points (assumed valid)."""
    return np.sqrt(-np.linalg.det(field.eval_batch(points)))


@dataclass(frozen=True)
class FdConfig:
    """Finite-difference policy for the generic Christoffel evaluator.

    ``rel_step`` scales per axis with max(1, |x_axis|); an explicit ``step``
    overrides it for every axis.  When ``richardson`` is on, the derivative
    is recomputed at half step and StepTooLarge is raised if the two
    results differ by more than ``richardson_tol`` (max-norm).
    """

    rel_step: float = 5e-3
    step: float | None = None
    richardson: bool = True
    richardson_tol: float = 1e-6

    def steps_at(self, x: np.ndarray) -> np.ndarray:
        if self.step is not None:
            if not (self.step > 0.0):
                raise ValueError("step must be > 0")
            return np.full(4, float(self.step))
        return self.rel_step * np.maximum(1.0, np.abs(np.asarray(x, dtype=float)))


def _metric_partials(field: MetricField, x: np.ndarray, steps: np.ndarray) -> np.ndarray:
    """dg[sigma, mu, nu] = d_sigma g_munu by 4th-order central differences."""
    offsets = np.zeros((16, 4))
    for ax in range(4):
        h = steps[ax]
        for j, mult in enumerate((-2.0, -1.0, 1.0, 2.0)):
            offsets[4 * ax + j, ax] = mult * h
    pts = x[None, :] + offsets
    field.require_valid(pts)
    g = field.eval_batch(pts).reshape(4, 4, 4, 4)  # axis, stencil, mu, nu
    # f'(x) = (f(x-2h) - 8 f(x-h) + 8 f(x+h) - f(x+2h)) / (12 h)
    dg = (g[:, 0] - 8.0 * g[:, 1] + 8.0 * g[:, 2] - g[:, 3]) / (12.0 * steps)[:, None, None]
    return dg


def _christoffel_from_partials(ginv: np.ndarray, dg: np.ndarray) -> np.ndarray:
    # Gamma^m_{nr} = 1/2 g^{ms} (d_n g_{sr} + d_r g_{sn} - d_s g_{nr});
    # a[s,n,r] collects the parenthesis, exactly symmetric in (n, r).
    a = dg.transpose(1, 0, 2) + dg.transpose(1, 2, 0) - dg
    return 0.5 * np.einsum("ms,snr->mnr", ginv, a)


def christoffel(
    field: MetricField,
    x: FourVector,
    fd: FdConfig = FdConfig(),
    method: str = "auto",
) -> np.ndarray:
    """Gamma^mu_{nu rho} at x, shape (4, 4, 4), symmetric in the lower pair.

    ``method`` is "auto" (analytic fast path when the metric provides one,
    else finite differences), "fd" (force finite differences), or
    "analytic" (require the fast path).

    Raises SingularRegion if x or any stencil point is invalid, and
    StepTooLarge if the Richardson half-step check fails (fd path only).
    """
    pts = x.array[None, :]
    field.require_valid(pts)
    if method not in ("auto", "fd", "analytic"):
        raise ValueError(f"unknown method {method!r}")
    if method in ("auto", "analytic"):
        fast = field.christoffel_batch(pts)
        if fast is not None:
            return fast[0]
        if method == "analytic":
            raise ValueError(f"{field.label} has no analytic Christoffel path")

    xv = x.array
    steps = fd.steps_at(xv)
    ginv = np.linalg.inv(field.eval_batch(pts)[0])
    gamma = _christoffel_from_partials(ginv, _metric_partials(field, xv, steps))
    if fd.richardson:
        gamma_half = _christoffel_from_partials(
            ginv, _metric_partials(field, xv, 0.5 * steps)
        )
        disagreement = float(np.max(np.abs(gamma - gamma_half)))
        if disagreement > fd.richardson_tol:
            raise StepTooLarge(
                f"Christoffel step check: |Gamma(h) - Gamma(h/2)| = {disagreement:.3e} "
                f"> {fd.richardson_tol:.3e}"
            )
        gamma = gamma_half
    return gamma

"""Analytic spacetime metrics: evaluation, determinant, Christoffel symbols and geodesic accelerations.

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

import functools
import math
from collections.abc import Callable, Mapping
from dataclasses import dataclass, fields

import numpy as np

from .errors import SingularRegion

# diag(eta), the flat metric and every local frame's metric
ETA_DIAGONAL = np.array([-1.0, 1.0, 1.0, 1.0])

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
        if not all(map(math.isfinite, (self.t, self.x, self.y, self.z))):
            name = next(n for n in ("t", "x", "y", "z") if not math.isfinite(getattr(self, n)))
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


def _set_parameters(value, params) -> None:
    """Coerce and check the dataclass fields ``params`` of the frozen ``value``
    in place: a ``float`` field must be finite and > 0, any other field is a
    point of 3-space, stored as a 3-tuple of finite floats."""
    for f in params:
        v = getattr(value, f.name)
        if f.type in ("float", float):
            v = float(v)
            if not (0.0 < v < math.inf):
                raise ValueError(f"{f.name} must be finite and > 0")
        else:
            a = np.asarray(v, dtype=float)
            if a.shape != (3,) or not np.all(np.isfinite(a)):
                raise ValueError(f"{f.name} must be a finite 3-vector")
            v = tuple(float(x) + 0.0 for x in a)  # -0.0 -> 0.0: one key, one label
        object.__setattr__(value, f.name, v)


@dataclass(frozen=True)
class MetricField:
    """A fixed analytic metric g_munu(x) with signature (-, +, +, +).

    A metric is a value: its unit system, then its parameters (finite
    floats > 0, or points of 3-space as 3-tuples of finite floats),
    compared and hashed field by field, so it serves as branch key,
    measure-cache key and, through ``describe()``, container record.
    Subclasses set ``kind``, declare their parameters and implement
    ``diagonal_batch``, ``valid_mask``, the analytic ``christoffel_batch``,
    the closed-form ``geodesic_acceleration`` the integrator runs on, and
    ``angular_momentum``.  Every catalog metric is diagonal in its chart, so
    the diagonal is the one evaluation a kind defines and the only form in
    which the package reads a metric (at one point, validated, through
    ``diagonal_at``): the determinant is the product of the diagonal and
    the inverse its reciprocal.
    """

    kind = ""
    units: UnitSystem

    def __post_init__(self):
        _set_parameters(self, fields(self)[1:])

    def describe(self) -> dict:
        """JSON-ready record: kind, then the parameters; ``metric_from_dict`` inverts it."""
        return {"kind": self.kind, **{f.name: getattr(self, f.name) for f in fields(self)[1:]}}

    @functools.cached_property
    def label(self) -> str:
        """Display form, e.g. ``schwarzschild(mass=1.0)``; units are not shown."""
        _, *params = self.describe().items()
        args = ",".join(f"{k}={v!r}".replace(" ", "") for k, v in params)
        return f"{self.kind}({args})" if params else self.kind

    def diagonal_batch(self, points: np.ndarray) -> np.ndarray:
        """(N, 4) points -> (N, 4) diagonal components g_00 .. g_33. No validity check."""
        raise NotImplementedError

    def valid_mask(self, points: np.ndarray) -> np.ndarray:
        """(N, 4) points -> (N,) bool, True where the point is outside the singular set."""
        raise NotImplementedError

    def christoffel_batch(self, points: np.ndarray) -> np.ndarray:
        """(N, 4) points -> (N, 4, 4, 4) Christoffel symbols. No validity check."""
        raise NotImplementedError

    def geodesic_acceleration(self) -> Callable[..., tuple[float, float, float, float]]:
        """a^mu = -Gamma^mu_{nu rho} u^nu u^rho in closed form, as a function of plain floats.

        The returned function maps (x0, x1, x2, x3, u0, u1, u2, u3) to
        (a0, a1, a2, a3).  The kind's constants are bound once, here, so an
        integrator builds it once per run and calls it at every stage.  It
        raises SingularRegion, with the message of ``require_valid``, at a
        point in the singular set, judged from the same evaluation.
        """
        raise NotImplementedError

    def angular_momentum(self, points: np.ndarray, velocities: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(L, r) at (N, 4) points and 4-velocities.

        L, shape (N, 3) or (N, 1), is the angular momentum the metric
        conserves along geodesics, about the kind's centre; r, shape (N,), is
        the distance from that centre.
        """
        raise NotImplementedError

    def require_valid(self, points: np.ndarray) -> None:
        ok = self.valid_mask(points)
        if not np.all(ok):
            raise _singular(self.label, np.asarray(points)[np.argmax(~ok)])

    def diagonal_at(self, x: FourVector) -> np.ndarray:
        """The (4,) diagonal at x; SingularRegion (``require_valid``) in the singular set."""
        pts = x.array[None, :]
        self.require_valid(pts)
        return self.diagonal_batch(pts)[0]


def _singular(label: str, point) -> SingularRegion:
    return SingularRegion(f"{label}: point {[float(v) for v in point]} is in the singular set")


@dataclass(frozen=True)
class Minkowski(MetricField):
    """Flat spacetime, diag(-1, 1, 1, 1) everywhere."""

    kind = "minkowski"

    def diagonal_batch(self, points):
        return np.broadcast_to(ETA_DIAGONAL, (len(points), 4)).copy()

    def valid_mask(self, points):
        return np.ones(len(points), dtype=bool)

    def christoffel_batch(self, points):
        return np.zeros((len(points), 4, 4, 4))

    def geodesic_acceleration(self):
        def accel(x0, x1, x2, x3, u0, u1, u2, u3):
            return 0.0, 0.0, 0.0, 0.0

        return accel

    def angular_momentum(self, points, velocities):
        x = np.asarray(points, dtype=float)[:, 1:]
        return np.cross(x, np.asarray(velocities, dtype=float)[:, 1:]), np.linalg.norm(x, axis=1)


@dataclass(frozen=True)
class WeakFieldPointMass(MetricField):
    """Softened point mass in the weak-field (linearized) form, Cartesian chart.

    g_00 = -(1 + 2 Phi/c^2), g_ij = (1 - 2 Phi/c^2) delta_ij with the
    softened Newtonian potential Phi(r) = -G M / sqrt(r^2 + soft^2), r the
    distance from ``center``.  The softening keeps grid points near the
    source finite; points where |2 Phi/c^2| >= 1 (signature loss) count as
    singular.
    """

    kind = "weak_field_point_mass"
    mass: float
    soft: float
    center: tuple[float, float, float] = (0.0, 0.0, 0.0)

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

    def diagonal_batch(self, points):
        phi = self._phi_over_c2(points)
        d = np.empty((len(phi), 4))
        d[:, 0] = -(1.0 + 2.0 * phi)
        d[:, 1:] = (1.0 - 2.0 * phi)[:, None]
        return d

    def valid_mask(self, points):
        with np.errstate(over="ignore"):  # a potential past the float range is past signature loss
            return np.abs(2.0 * self._phi_over_c2(points)) < 1.0 - 1e-12

    def christoffel_batch(self, points):
        # static and diagonal, with phi = Phi/c^2:
        #   Gamma^0_0i = d_i phi / (1 + 2 phi),  Gamma^i_00 = d_i phi / (1 - 2 phi),
        #   Gamma^i_jk = -(delta_ij d_k phi + delta_ik d_j phi - delta_jk d_i phi) / (1 - 2 phi)
        phi = self._phi_over_c2(points)[:, None]
        dphi = self.potential_gradient(points) / self.units.c**2
        a = dphi / (1.0 - 2.0 * phi)
        eye = np.eye(3)
        gam = np.zeros((len(phi), 4, 4, 4))
        gam[:, 0, 0, 1:] = gam[:, 0, 1:, 0] = dphi / (1.0 + 2.0 * phi)
        gam[:, 1:, 0, 0] = a
        gam[:, 1:, 1:, 1:] = -(
            eye[:, :, None] * a[:, None, None, :]
            + eye[:, None, :] * a[:, None, :, None]
            - eye * a[:, :, None, None]
        )
        return gam

    def geodesic_acceleration(self):
        # with A = grad phi / (1 - 2 phi), the Christoffels above contract to
        #   a^0 = -2 u^0 (grad phi . u) / (1 + 2 phi),  a^i = 2 u^i (A . u) - A_i ((u^0)^2 + |u|^2)
        gm = self.units.G * self.mass
        c2 = self.units.c**2
        soft2 = self.soft**2
        cx, cy, cz = self.center
        label = self.label

        def accel(x0, x1, x2, x3, u0, u1, u2, u3):
            dx, dy, dz = x1 - cx, x2 - cy, x3 - cz
            q = dx * dx + dy * dy + dz * dz + soft2
            phi = -gm / math.sqrt(q) / c2
            if not abs(2.0 * phi) < 1.0 - 1e-12:  # valid_mask's test
                raise _singular(label, (x0, x1, x2, x3))
            k = -phi / q  # grad phi = k (x - center)
            gu = k * (dx * u1 + dy * u2 + dz * u3)
            w = 1.0 / (1.0 - 2.0 * phi)
            s = 2.0 * w * gu
            t = w * k * (u0 * u0 + u1 * u1 + u2 * u2 + u3 * u3)
            return -2.0 * u0 * gu / (1.0 + 2.0 * phi), s * u1 - t * dx, s * u2 - t * dy, s * u3 - t * dz

        return accel

    def angular_momentum(self, points, velocities):
        # the rotations about the centre are Killing: L = g_ii (x - center) x u
        d = np.asarray(points, dtype=float)[:, 1:] - self.center
        lever = (1.0 - 2.0 * self._phi_over_c2(points))[:, None]
        return lever * np.cross(d, np.asarray(velocities, dtype=float)[:, 1:]), np.linalg.norm(d, axis=1)


@dataclass(frozen=True)
class Schwarzschild(MetricField):
    """Schwarzschild exterior in the standard spherical chart (t, r, theta, phi).

    With f(r) = 1 - r_s/r and r_s = 2 G M / c^2:
        g = diag(-f, 1/f, r^2, r^2 sin^2 theta).
    Valid for r > r_s (plus a small margin) and away from the poles.
    """

    kind = "schwarzschild"
    mass: float

    @property
    def r_s(self) -> float:
        return 2.0 * self.units.G * self.mass / self.units.c**2

    def diagonal_batch(self, points):
        points = np.asarray(points, dtype=float)
        r = points[:, 1]
        th = points[:, 2]
        f = 1.0 - self.r_s / r
        return np.stack([-f, 1.0 / f, r**2, r**2 * np.sin(th) ** 2], axis=-1)

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

    def geodesic_acceleration(self):
        rs = self.r_s
        r_min = rs * (1.0 + HORIZON_MARGIN)
        label = self.label

        def accel(x0, r, th, ph, u0, ur, uth, uph):
            sin = math.sin(th)
            if not (r > r_min and abs(sin) > POLAR_MARGIN):  # valid_mask's test
                raise _singular(label, (x0, r, th, ph))
            cos = math.cos(th)
            f = 1.0 - rs / r
            a = rs / (2.0 * (r * r))
            # the entries of christoffel_batch, each term (Gamma u^nu) u^rho and
            # the terms summed in (nu, rho) order: the einsum contraction bit for bit
            g0, g1 = a / f, 1.0 / r
            g22, g33 = -(r - rs), -(r - rs) * (sin * sin)
            g233, g323 = -sin * cos, cos / sin
            return (
                -(g0 * u0 * ur + g0 * ur * u0),
                -(a * f * u0 * u0 + -g0 * ur * ur + g22 * uth * uth + g33 * uph * uph),
                -(g1 * ur * uth + g1 * uth * ur + g233 * uph * uph),
                -(g1 * ur * uph + g323 * uth * uph + g1 * uph * ur + g323 * uph * uth),
            )

        return accel

    def angular_momentum(self, points, velocities):
        # L_z = g_33 u^phi, the Killing momentum of the azimuth
        points = np.asarray(points, dtype=float)
        r = points[:, 1]
        lz = r**2 * np.sin(points[:, 2]) ** 2 * np.asarray(velocities, dtype=float)[:, 3]
        return lz[:, None], r


METRIC_KINDS = {cls.kind: cls for cls in (Minkowski, WeakFieldPointMass, Schwarzschild)}


def metric_from_dict(spec, units: UnitSystem) -> MetricField:
    """Inverse of ``MetricField.describe`` (used by config and container loaders).

    ValueError for a non-mapping, an unknown kind or key; TypeError for a missing parameter.
    """
    if not isinstance(spec, Mapping):
        raise ValueError(f"metric spec must be a mapping, got {spec!r}")
    params = dict(spec)
    kind = params.pop("kind", None)
    cls = METRIC_KINDS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ValueError(f"unknown metric kind {kind!r}")
    extra = set(params) - {f.name for f in fields(cls)[1:]}
    if extra:
        raise ValueError(f"unknown metric keys for {kind!r}: {sorted(extra)}")
    return cls(units, **params)


# ---------------------------------------------------------------------------
# sqrt(-g) from diagonals; the Christoffel table at a point
# ---------------------------------------------------------------------------


def sqrt_neg_det_batch(field: MetricField, points: np.ndarray) -> np.ndarray:
    """sqrt(-det g) over (N, 4) points (assumed valid); kept for ``bench/spans.py``, which traces it."""
    return sqrt_neg_det_diagonal(field.diagonal_batch(points))


def sqrt_neg_det_diagonal(d: np.ndarray) -> np.ndarray:
    """sqrt(-det g) from (N, 4) diagonals: the square root of minus their product, left to right."""
    return np.sqrt(-(d[:, 0] * d[:, 1] * d[:, 2] * d[:, 3]))


def christoffel(field: MetricField, x: FourVector) -> np.ndarray:
    """Gamma^mu_{nu rho} at x, shape (4, 4, 4), symmetric in the lower pair.

    Raises SingularRegion if x is inside the metric's singular set.
    """
    pts = x.array[None, :]
    field.require_valid(pts)
    return field.christoffel_batch(pts)[0]

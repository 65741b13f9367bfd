"""Local orthonormal frames at a point of a Lorentzian metric.

A tetrad packages the dual pair (b, f) of the linear change to a locally
inertial frame anchored at a point x:

    xi^mu   = b[mu, alpha] (x' - x)^alpha      coordinates -> local frame
    x'^alpha = x^alpha + f[alpha, mu] xi^mu    local frame -> coordinates

with f^T g(x) f = eta and f b = b f = identity.  Every catalog metric is
diagonal in its chart with g_00 < 0 < g_ii at every valid point, so the
frame is built from the diagonal d alone and aligned with the chart:
f = diag(|d|^(-1/2)), b = diag(|d|^(1/2)), and f^T g f = diag(-1, 1, 1, 1).
This module is the only one that knows that rule.  Inside the package a
frame is its diagonals (``tetrad_arrays``), and its defect
max |f^T g f - eta| is the per-row max |f d f - eta| (``frame_deviation``;
at the frame's own anchor, ``diagonal_frame_deviation``, the QLIF
certificate and the selftest's ``tetrad_eta`` figure).  ``Tetrad`` is the
(4, 4) form, for the public point-wise API.  Local axis mu is coordinate
axis mu rescaled to unit length: (t, x, y, z), or (t, r, theta, phi) on
Schwarzschild, the same directions in every branch whatever its metric,
which is what lets a local-frame velocity or separation be compared
across branches.  The construction is deterministic; the residual local
Lorentz freedom (boosts and rotations preserving eta) is not factored
out, so this is one representative of the frame orbit.

Only the leading (linear) order is built here: the metric pulled back
through a tetrad deviates from eta linearly in the local distance, since
constant b, f cannot cancel the Christoffel terms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateMetric
from .spacetime import ETA_DIAGONAL, FourVector, MetricField

EIGENVALUE_FLOOR = 1e-12


@dataclass(frozen=True)
class Tetrad:
    """Frame-change pair anchored at a point of one metric branch, as diagonal (4, 4) matrices.

    b maps coordinate displacements to local-frame components; f is its
    inverse.
    """

    b: np.ndarray
    f: np.ndarray
    anchor: FourVector


def _spectrum_ok(d: np.ndarray) -> np.ndarray:
    """Per diagonal (last axis): every |d| >= 1e-12, d_0 < 0 and d_i > 0 (the points ``_check_spectrum`` passes)."""
    return np.all(np.abs(d) >= EIGENVALUE_FLOOR, axis=-1) & (d[..., 0] < 0.0) & np.all(d[..., 1:] > 0.0, axis=-1)


def _check_spectrum(d: np.ndarray) -> None:
    """Raise DegenerateMetric unless every diagonal is (-, +, +, +) above the floor."""
    if np.all(_spectrum_ok(d)):
        return
    if np.any(np.abs(d) < EIGENVALUE_FLOOR):
        raise DegenerateMetric(
            f"metric eigenvalue magnitude below {EIGENVALUE_FLOOR:g} (min "
            f"{np.min(np.abs(d)):.3e})"
        )
    raise DegenerateMetric("metric signature is not Lorentzian (-, +, +, +)")


def tetrad_arrays(d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Batched tetrad construction: (N, 4) metric diagonals -> the diagonals (b, f), each (N, 4).

    b = |d|^(1/2) and f = |d|^(-1/2), the chart-aligned frame.  Raises
    DegenerateMetric if any diagonal magnitude is below 1e-12 or the
    signature is not (-, +, +, +) in that slot order.
    """
    d = np.asarray(d, dtype=float)
    _check_spectrum(d)
    scale = np.sqrt(np.abs(d))
    return scale, 1.0 / scale


def frame_deviation(f: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Per-row max |f d f - eta| of frame diagonals f against metric diagonals d, shape (N,).

    f d f is the diagonal of f^T g f, so this is the matrix-product figure, bit for bit.
    """
    # f d f - eta in place, in one (N, 4) buffer besides f: the same operations, the same bits
    dev = f * d
    dev *= f
    dev -= ETA_DIAGONAL
    return np.max(np.abs(dev, out=dev), axis=-1)


def diagonal_frame_deviation(d: np.ndarray) -> np.ndarray:
    """``frame_deviation`` of the frames of (N, 4) diagonals at their own points, shape (N,).

    Points whose diagonal ``tetrad_arrays`` would reject get +inf.
    """
    ok = _spectrum_ok(d)
    f = np.abs(d)
    np.divide(1.0, np.sqrt(f, out=f), out=f)
    out = frame_deviation(f, d)
    out[~ok] = np.inf
    return out


def build_tetrad(field: MetricField, x: FourVector) -> Tetrad:
    """Chart-aligned tetrad of ``field`` at x.

    Deterministic: identical inputs give bit-identical matrices.  Raises
    SingularRegion if x is invalid and DegenerateMetric on a near-singular
    eigenvalue.
    """
    b, f = tetrad_arrays(field.diagonal_at(x)[None, :])
    return Tetrad(b=np.diag(b[0]), f=np.diag(f[0]), anchor=x)


def to_local(t: Tetrad, x_prime: FourVector) -> FourVector:
    """xi = b (x' - anchor); exactly zero at the anchor."""
    return FourVector.from_array(t.b @ (x_prime.array - t.anchor.array))


def from_local(t: Tetrad, xi: FourVector) -> FourVector:
    """x' = anchor + f xi; inverse of ``to_local`` up to roundoff."""
    return FourVector.from_array(t.anchor.array + t.f @ xi.array)

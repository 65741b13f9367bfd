"""Local orthonormal frames at a point of a Lorentzian metric.

A tetrad packages the dual matrix pair (b, f) of the linear change to a
locally inertial frame anchored at a point x:

    xi^mu   = b[mu, alpha] (x' - x)^alpha      coordinates -> local frame
    x'^alpha = x^alpha + f[alpha, mu] xi^mu    local frame -> coordinates

with f^T g(x) f = eta and f b = b f = identity.  Every catalog metric is
diagonal in its chart, so a frame is built from the diagonal d alone: a
stable sort puts the single negative entry in slot 0 and the positive ones
after it in ascending order, and f[order[k], k] = |w_k|^(-1/2),
b[k, order[k]] = |w_k|^(1/2) for the sorted entries w, every other entry 0.
This is the eigendecomposition g = O L O^T with O a permutation and the
largest component of each eigenvector positive, the form ``eigh`` returns
for a diagonal matrix after that sign fix, so f^T g f = diag(-1, 1, 1, 1).
The construction is deterministic; the residual local Lorentz freedom
(boosts and rotations preserving eta) is not factored out, so this is one
canonical representative of the frame orbit.  The frame's defect
max |f^T g f - eta| is read from the diagonal as well
(``diagonal_frame_deviation``): it is the QLIF certificate and the
selftest's ``tetrad_eta`` figure.

Only the leading (linear) order is built here: the metric pulled back
through a tetrad deviates from eta linearly in the local distance, since
constant b, f cannot cancel the Christoffel terms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateMetric
from .spacetime import FourVector, MetricField

EIGENVALUE_FLOOR = 1e-12


@dataclass(frozen=True)
class Tetrad:
    """Frame-change pair anchored at a point of one metric branch.

    b maps coordinate displacements to local-frame components; f is its
    inverse.
    """

    b: np.ndarray
    f: np.ndarray
    anchor: FourVector


def _spectrum_ok(w: np.ndarray) -> np.ndarray:
    """Per eigenvalue set (last axis): the points ``_check_spectrum`` passes."""
    return ~np.any(np.abs(w) < EIGENVALUE_FLOOR, axis=-1) & (np.count_nonzero(w < 0.0, axis=-1) == 1)


def _check_spectrum(w: np.ndarray) -> None:
    """Raise DegenerateMetric unless every eigenvalue set is (-, +, +, +) above the floor."""
    if np.any(np.abs(w) < EIGENVALUE_FLOOR):
        raise DegenerateMetric(
            f"metric eigenvalue magnitude below {EIGENVALUE_FLOOR:g} (min "
            f"{np.min(np.abs(w)):.3e})"
        )
    neg = np.count_nonzero(w < 0.0, axis=-1)
    if np.any(neg != 1):
        raise DegenerateMetric("metric signature is not Lorentzian (-, +, +, +)")


def tetrad_arrays(d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Batched tetrad construction: (N, 4) metric diagonals -> (b, f), each (N, 4, 4).

    Raises DegenerateMetric if any diagonal magnitude is below 1e-12 or the
    signature is not (-, +, +, +).
    """
    d = np.asarray(d, dtype=float)
    order = np.argsort(d, axis=-1, kind="stable")
    w = np.take_along_axis(d, order, axis=-1)
    _check_spectrum(w)
    scale = np.sqrt(np.abs(w))
    f = np.zeros(d.shape + (4,))
    b = np.zeros_like(f)
    np.put_along_axis(f, order[..., None, :], (1.0 / scale)[..., None, :], axis=-2)
    np.put_along_axis(b, order[..., :, None], scale[..., :, None], axis=-1)
    return b, f


def diagonal_frame_deviation(d: np.ndarray) -> np.ndarray:
    """Per-point max |f^T g f - eta| of the frames of (N, 4) diagonals, shape (N,).

    f^T g f is diagonal with entries f d f, f = |d|^(-1/2), which the frame
    only permutes onto eta's slots, so each is compared with sign(d): the
    figure the matrix product gives, bit for bit.  Points whose diagonal
    ``tetrad_arrays`` would reject get +inf.
    """
    ok = _spectrum_ok(d)
    # f d f - sign(d) in place, in two (N, 4) buffers: the same operations, the same bits
    f = np.abs(d)
    np.divide(1.0, np.sqrt(f, out=f), out=f)
    dev = f * d
    dev *= f
    dev -= np.sign(d, out=f)
    out = np.max(np.abs(dev, out=dev), axis=-1)
    out[~ok] = np.inf
    return out


def build_tetrad(field: MetricField, x: FourVector) -> Tetrad:
    """Canonical tetrad of ``field`` at x.

    Deterministic: identical inputs give bit-identical matrices.  Raises
    SingularRegion if x is invalid and DegenerateMetric on a near-singular
    eigenvalue.
    """
    pts = x.array[None, :]
    field.require_valid(pts)
    b, f = tetrad_arrays(field.diagonal_batch(pts))
    return Tetrad(b=b[0], f=f[0], anchor=x)


def to_local(t: Tetrad, x_prime: FourVector) -> FourVector:
    """xi = b (x' - anchor); exactly zero at the anchor."""
    return FourVector.from_array(t.b @ (x_prime.array - t.anchor.array))


def from_local(t: Tetrad, xi: FourVector) -> FourVector:
    """x' = anchor + f xi; inverse of ``to_local`` up to roundoff."""
    return FourVector.from_array(t.anchor.array + t.f @ xi.array)

"""Local orthonormal frames at a point of a Lorentzian metric.

A tetrad packages the dual matrix pair (b, f) of the linear change to a
locally inertial frame anchored at a point x:

    xi^mu   = b[mu, alpha] (x' - x)^alpha      coordinates -> local frame
    x'^alpha = x^alpha + f[alpha, mu] xi^mu    local frame -> coordinates

with f^T g(x) f = eta and f b = b f = identity.  Construction is by the
eigendecomposition g = O L O^T: f = O |L|^{-1/2}, b = |L|^{1/2} O^T, with
the single negative eigenvalue in slot 0 (eigenvalues ascending) so that
f^T g f = diag(-1, 1, 1, 1).  Eigenvector signs are fixed so the
largest-magnitude component of each column is positive, which makes the
construction deterministic; the residual local Lorentz freedom (boosts and
rotations preserving eta) is not factored out, so this is one canonical
representative of the frame orbit.

Every catalog metric is diagonal.  There O is a permutation: a stable sort
of the diagonal, each eigenvector a unit vector with entry +1 and the
eigenvalues the diagonal entries themselves.  A batch of diagonal metrics
is therefore sorted and square-rooted without ``eigh``, and the frames
come out identical bit for bit; any other input goes through ``eigh``.

Only the leading (linear) order is built here: the metric pulled back
through a tetrad deviates from eta linearly in the local distance, since
constant b, f cannot cancel the Christoffel terms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateMetric
from .spacetime import ETA, FourVector, MetricField

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


def tetrad_arrays(g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Batched tetrad construction: (N, 4, 4) metrics -> (b, f) arrays.

    A batch of diagonal metrics is sorted and square-rooted; any other
    batch goes through ``eigh``.  Both give the same frames bit for bit on
    diagonal input.  Raises DegenerateMetric if any eigenvalue magnitude
    is below 1e-12 or the signature is not (-, +, +, +).
    """
    g = np.asarray(g, dtype=float)
    d = np.diagonal(g, axis1=-2, axis2=-1)
    if np.count_nonzero(g) == np.count_nonzero(d):  # no off-diagonal entry
        # What eigh returns here: the diagonal in ascending order, ties in
        # index order, with unit eigenvectors; so f[order[k], k] =
        # 1 / scale[k] and b[k, order[k]] = scale[k], every other entry 0.
        order = np.argsort(d, axis=-1, kind="stable")
        w = np.take_along_axis(d, order, axis=-1)
        _check_spectrum(w)
        scale = np.sqrt(np.abs(w))
        f = np.zeros_like(g)
        b = np.zeros_like(g)
        np.put_along_axis(f, order[..., None, :], (1.0 / scale)[..., None, :], axis=-2)
        np.put_along_axis(b, order[..., :, None], scale[..., :, None], axis=-1)
        return b, f
    w, v = np.linalg.eigh(g)
    _check_spectrum(w)
    # Deterministic eigenvector signs: largest-|component| entry positive.
    lead = np.argmax(np.abs(v), axis=-2)
    signs = np.sign(np.take_along_axis(v, lead[..., None, :], axis=-2))[..., 0, :]
    v = v * signs[..., None, :]
    scale = np.sqrt(np.abs(w))
    f = v / scale[..., None, :]
    b = np.swapaxes(v * scale[..., None, :], -1, -2)
    return b, f


def build_tetrad(field: MetricField, x: FourVector) -> Tetrad:
    """Canonical tetrad of ``field`` at x.

    Deterministic: identical inputs give bit-identical matrices.  Raises
    SingularRegion if x is invalid and DegenerateMetric on a near-singular
    eigenvalue.
    """
    pts = x.array[None, :]
    field.require_valid(pts)
    b, f = tetrad_arrays(field.eval_batch(pts))
    return Tetrad(b=b[0], f=f[0], anchor=x)


def to_local(t: Tetrad, x_prime: FourVector) -> FourVector:
    """xi = b (x' - anchor); exactly zero at the anchor."""
    return FourVector.from_array(t.b @ (x_prime.array - t.anchor.array))


def from_local(t: Tetrad, xi: FourVector) -> FourVector:
    """x' = anchor + f xi; inverse of ``to_local`` up to roundoff."""
    return FourVector.from_array(t.anchor.array + t.f @ xi.array)


def frame_residual(t: Tetrad, g: np.ndarray) -> float:
    """max |f^T g f - eta|, the local Minkowskian defect of the frame."""
    return float(np.max(np.abs(t.f.T @ g @ t.f - ETA)))

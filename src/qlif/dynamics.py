"""Branch-wise geodesic motion and flat-space free evolution of states.

Geodesics are integrated in proper time with classic fixed-step RK4 on the
pair (x, u):

    dx^mu/dtau = u^mu,    du^mu/dtau = -Gamma^mu_{nu rho} u^nu u^rho,

using the metric catalog's Christoffel symbols (analytic where available,
4th-order finite differences otherwise).  Timelike normalization is
g_munu u^mu u^nu = -c^2, with u^0 = d(ct)/dtau.

The flat-space stationarity demo evolves the flat branches of a
``SuperposedState`` under H = P^2 / 2m by the spectral (FFT) method, each
grid axis taken as periodic.  On that grid ``translate_state`` is an index
roll, which the kinetic phase commutes with exactly, so evolving then
translating equals translating then evolving to machine precision; that
commutation is the operational content of "a translated superposition
accumulates no relative phase".
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import QlifError
from .qstate import SuperposedState, _freeze, branch_sqrt_neg_det, translate_state
from .spacetime import FdConfig, FourVector, MetricField, Minkowski, christoffel
from .tetrad import build_tetrad


@dataclass(frozen=True)
class GeodesicState:
    """Position, 4-velocity, and proper time along a world line."""

    x: FourVector
    u: FourVector
    tau: float


@dataclass(frozen=True)
class Trajectory:
    """Integrator output; ``error`` is set when the run hit a singular point."""

    states: tuple[GeodesicState, ...]
    error: QlifError | None = None

    @property
    def completed(self) -> bool:
        return self.error is None


def velocity_norm(field: MetricField, x: FourVector, u: FourVector) -> float:
    """g_munu u^mu u^nu (should be -c^2 on a timelike world line)."""
    g = field.eval_batch(x.array[None, :])[0]
    return float(u.array @ g @ u.array)


def timelike_velocity(field: MetricField, x: FourVector, u_spatial) -> FourVector:
    """Complete spatial components u^i = dx^i/dtau to a future-directed 4-velocity.

    Solves g_munu u^mu u^nu = -c^2 for u^0 > 0.
    """
    u_spatial = np.asarray(u_spatial, dtype=float)
    g = field.eval_batch(x.array[None, :])[0]
    c = field.units.c
    a = g[0, 0]
    b = 2.0 * g[0, 1:] @ u_spatial
    d = u_spatial @ g[1:, 1:] @ u_spatial + c**2
    disc = b**2 - 4.0 * a * d
    if disc < 0.0:
        raise ValueError("no timelike completion for the given spatial velocity")
    u0 = (-b - np.sqrt(disc)) / (2.0 * a)
    return FourVector(float(u0), *u_spatial)


def local_frame_velocity(field: MetricField, x: FourVector, v_local) -> FourVector:
    """4-velocity whose local-frame components are gamma (c, v_local).

    ``v_local`` is an ordinary 3-velocity (|v| < c) measured in the
    canonical tetrad frame at x; the result is automatically normalized
    because f^T g f = eta.
    """
    v = np.asarray(v_local, dtype=float)
    c = field.units.c
    beta_sq = float(v @ v) / c**2
    if beta_sq >= 1.0:
        raise ValueError("local speed must be below c")
    gamma = 1.0 / np.sqrt(1.0 - beta_sq)
    u_local = np.concatenate([[gamma * c], gamma * v])
    t = build_tetrad(field, x)
    return FourVector.from_array(t.f @ u_local)


def _gamma_evaluator(field: MetricField, fd: FdConfig, method: str):
    if method not in ("auto", "fd", "analytic"):
        raise ValueError(f"unknown method {method!r}")
    analytic = method in ("auto", "analytic") and (
        field.christoffel_batch(np.empty((0, 4))) is not None
    )
    if method == "analytic" and not analytic:
        raise ValueError(f"{field.label} has no analytic Christoffel path")
    if analytic:

        def gamma(xv: np.ndarray) -> np.ndarray:
            field.require_valid(xv[None, :])
            return field.christoffel_batch(xv[None, :])[0]

        return gamma

    def gamma(xv: np.ndarray) -> np.ndarray:
        return christoffel(field, FourVector.from_array(xv), fd=fd, method="fd")

    return gamma


def integrate_geodesic(
    field: MetricField,
    init: GeodesicState,
    dtau: float,
    n_steps: int,
    fd: FdConfig = FdConfig(richardson=False),
    method: str = "auto",
    norm_tol: float = 1e-6,
) -> Trajectory:
    """Integrate the geodesic equation from ``init`` for ``n_steps`` RK4 steps.

    Returns n_steps + 1 states (including the initial one).  The initial
    state must be timelike-normalized within ``norm_tol`` (relative to
    c^2) and at a valid point, else ValueError / SingularRegion is raised;
    a singular point hit mid-run stops the integration and returns the
    partial trajectory with ``error`` set.
    """
    if dtau <= 0.0:
        raise ValueError("dtau must be > 0")
    if n_steps < 0:
        raise ValueError("n_steps must be >= 0")
    field.require_valid(init.x.array[None, :])
    c = field.units.c
    miss = abs(velocity_norm(field, init.x, init.u) + c**2)
    if miss > norm_tol * c**2:
        raise ValueError(
            f"initial 4-velocity is not normalized: g u u + c^2 = {miss:.3e}"
        )

    gamma = _gamma_evaluator(field, fd, method)

    def rhs(y: np.ndarray) -> np.ndarray:
        gam = gamma(y[:4])
        u = y[4:]
        return np.concatenate([u, -np.einsum("mnr,n,r->m", gam, u, u)])

    y = np.concatenate([init.x.array, init.u.array])
    states = [replace(init, tau=float(init.tau))]
    error = None
    for k in range(n_steps):
        try:
            k1 = rhs(y)
            k2 = rhs(y + 0.5 * dtau * k1)
            k3 = rhs(y + 0.5 * dtau * k2)
            k4 = rhs(y + dtau * k3)
        except QlifError as exc:
            error = exc
            break
        y = y + (dtau / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.isfinite(y)):
            error = QlifError(f"non-finite state at step {k + 1}")
            break
        states.append(
            GeodesicState(
                x=FourVector.from_array(y[:4]),
                u=FourVector.from_array(y[4:]),
                tau=init.tau + (k + 1) * dtau,
            )
        )
    return Trajectory(states=tuple(states), error=error)


@dataclass(frozen=True)
class BranchTrajectory:
    """Geodesic of one metric branch."""

    mass_label: str
    metric_id: str
    trajectory: Trajectory


def branch_centroid(state: SuperposedState, branch_index: int) -> FourVector:
    """Measure-weighted mean position of a branch wavefunction on its slice."""
    branch = state.branches[branch_index]
    w = branch_sqrt_neg_det(branch, state.grid) * np.abs(branch.psi) ** 2
    total = float(np.sum(w))
    if total <= 0.0:
        raise ValueError("branch has zero weight")
    xx, yy, zz = state.grid.meshgrid()
    return FourVector(
        state.grid.t0,
        float(np.sum(w * xx) / total),
        float(np.sum(w * yy) / total),
        float(np.sum(w * zz) / total),
    )


def geodesic_superposition(
    state: SuperposedState,
    init_local_velocity,
    dtau: float,
    n_steps: int,
    fd: FdConfig = FdConfig(richardson=False),
) -> list[BranchTrajectory]:
    """One geodesic per branch, started at the branch's wavefunction centroid.

    ``init_local_velocity`` is the common initial 3-velocity in the local
    orthonormal frame at each branch's start point, so every branch starts
    with the same physical velocity even though the metrics differ.
    """
    out = []
    for i, branch in enumerate(state.branches):
        x0 = branch_centroid(state, i)
        u0 = local_frame_velocity(branch.metric, x0, init_local_velocity)
        traj = integrate_geodesic(
            branch.metric, GeodesicState(x=x0, u=u0, tau=0.0), dtau, n_steps, fd=fd
        )
        out.append(BranchTrajectory(branch.mass_label, branch.key[1], traj))
    return out


# ---------------------------------------------------------------------------
# Flat-space free evolution
# ---------------------------------------------------------------------------


def evolve_free(s: SuperposedState, t: float, mass: float) -> SuperposedState:
    """Evolve every branch under H = P^2 / (2 m) for time t >= 0 (spectral, unitary).

    Each axis is periodic with period n h (h the grid spacing), the
    convention under which ``translate_state`` is an exact roll; hbar comes
    from ``s.units``.  Every branch must be flat (metric ``Minkowski``, as
    are the P-frame registers ``to_qlif`` produces), else ValueError.
    """
    if t < 0.0:
        raise ValueError("t must be >= 0")
    if not mass > 0.0:
        raise ValueError("mass must be > 0")
    for b in s.branches:
        if not isinstance(b.metric, Minkowski):
            raise ValueError(f"branch {b.key}: free evolution needs a flat (Minkowski) branch")
    if t == 0.0:
        return s
    kx, ky, kz = (
        2.0 * np.pi * np.fft.fftfreq(n, d=h) for n, h in zip(s.grid.n, s.grid.spacing)
    )
    k2 = kx[:, None, None] ** 2 + ky[None, :, None] ** 2 + kz[None, None, :] ** 2
    phase = np.exp(-1j * s.units.hbar * k2 * t / (2.0 * mass))
    evolved = tuple(
        replace(b, psi=_freeze(np.fft.ifftn(np.fft.fftn(b.psi) * phase))) for b in s.branches
    )
    return replace(s, branches=evolved)


def translation_covariance_check(s: SuperposedState, d, t: float, mass: float) -> float:
    """L2 distance between evolve-then-translate and translate-then-evolve.

    Zero (to machine precision) for the periodic free Hamiltonian, because
    the kinetic phase is diagonal in the same Fourier basis that
    diagonalizes the roll; this is the operational stationarity statement
    for translated superpositions.  The distance is summed from the sample
    differences (flat branches have unit measure), not from norms and
    overlaps, which would cancel down to ~1e-8.
    """
    a = evolve_free(translate_state(s, d), t, mass)
    b = translate_state(evolve_free(s, t, mass), d)
    dist_sq = sum(
        abs(ba.amplitude) ** 2 * np.sum(np.abs(ba.psi - bb.psi) ** 2)
        for ba, bb in zip(a.branches, b.branches)
    )
    return float(np.sqrt(dist_sq * s.grid.dvol))

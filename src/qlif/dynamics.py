"""Branch-wise geodesic motion and flat-space free evolution of states.

Geodesics are integrated in proper time with classic fixed-step RK4 on the
pair (x, u):

    dx^mu/dtau = u^mu,    du^mu/dtau = -Gamma^mu_{nu rho} u^nu u^rho.

The loop runs on the 8 state components as plain Python floats: each stage
calls the closed-form acceleration of the metric kind
(``MetricField.geodesic_acceleration``, constants bound once per run),
which also judges the singular set, and the ``GeodesicState`` records are
built once, from the finished rows.  The (4, 4, 4) Christoffel tables
remain the public ``christoffel()`` and the tests' reference for that
acceleration.  Timelike normalization is g_munu u^mu u^nu = -c^2, with
u^0 = d(ct)/dtau; it, and the drift figures, are read from the metric
diagonal (``MetricField.diagonal_at`` at a point, ``diagonal_batch`` along
a trajectory), as every catalog metric is diagonal in its chart.

The flat-space stationarity demo evolves the flat branches of a
``SuperposedState`` under H = P^2 / 2m by the spectral (FFT) method, each
grid axis taken as periodic.  On that grid ``translate_state`` is an index
roll, which the kinetic phase commutes with exactly, so evolving then
translating equals translating then evolving to machine precision; that
commutation is the operational content of "a translated superposition
accumulates no relative phase".
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import QlifError
from .qstate import SuperposedState, _freeze, branch_sqrt_neg_det, translate_state
from .spacetime import FourVector, MetricField, Minkowski
from .tetrad import build_tetrad

# Relative miss |g(u, u) + c^2| / c^2 accepted in an initial 4-velocity.
NORM_TOL = 1e-6


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
    """g_munu u^mu u^nu (should be -c^2 on a timelike world line), from the metric diagonal.

    Raises SingularRegion if x is in the singular set.
    """
    d = field.diagonal_at(x)
    u = u.array
    return float((d * u) @ u)  # u g u is (d u) . u plus exact zeros: the same dot product, the same bits


def timelike_velocity(field: MetricField, x: FourVector, u_spatial) -> FourVector:
    """Complete spatial components u^i = dx^i/dtau to a future-directed 4-velocity.

    Solves g_munu u^mu u^nu = -c^2 for u^0 > 0.  The metric is diagonal
    with g_00 < 0 < g_ii at every valid point, so the quadratic has no cross
    term and always a root.  Raises SingularRegion if x is in the singular
    set.
    """
    u_s = np.asarray(u_spatial, dtype=float)
    d = field.diagonal_at(x)
    disc = -4.0 * d[0] * ((u_s * d[1:]) @ u_s + field.units.c**2)
    return FourVector(float(-np.sqrt(disc) / (2.0 * d[0])), *u_s.tolist())


def local_frame_velocity(field: MetricField, x: FourVector, v_local) -> FourVector:
    """4-velocity whose local-frame components are gamma (c, v_local).

    ``v_local`` is an ordinary 3-velocity (|v| < c) measured in the local
    orthonormal frame at x, whose axes run along the chart axes: (x, y, z),
    or (r, theta, phi) on Schwarzschild, the same directions in every
    branch (see module ``tetrad``).  So u = f u_local with the frame
    diagonal f = |d|^(-1/2): u^0 = gamma c / sqrt(-g_00) and
    u^i = gamma v_i / sqrt(g_ii), normalized because f^T g f = eta.
    """
    v = np.asarray(v_local, dtype=float)
    c = field.units.c
    beta_sq = float(v @ v) / c**2
    if beta_sq >= 1.0:
        raise ValueError("local speed must be below c")
    gamma = 1.0 / np.sqrt(1.0 - beta_sq)
    u_local = np.concatenate([[gamma * c], gamma * v])
    _, f = build_tetrad(field, x)
    return FourVector.from_array(f * u_local)


def integrate_geodesic(
    field: MetricField,
    init: GeodesicState,
    dtau: float,
    n_steps: int,
) -> Trajectory:
    """Integrate the geodesic equation from ``init`` for ``n_steps`` RK4 steps.

    Returns n_steps + 1 states (including the initial one).  The initial
    state must be timelike-normalized within ``NORM_TOL`` (relative to
    c^2) and at a valid point, else ValueError / SingularRegion is raised.
    A singular point hit mid-run, at any stage, stops the integration and
    returns the partial trajectory with ``error`` set; every state it holds
    lies outside the singular set, since each new state is judged (as the
    first stage of the next step) before it is kept.
    """
    if dtau <= 0.0:
        raise ValueError("dtau must be > 0")
    if n_steps < 0:
        raise ValueError("n_steps must be >= 0")
    c = field.units.c
    miss = abs(velocity_norm(field, init.x, init.u) + c**2)
    if miss > NORM_TOL * c**2:
        raise ValueError(
            f"initial 4-velocity is not normalized: g u u + c^2 = {miss:.3e}"
        )

    accel = field.geodesic_acceleration()
    h2, h6 = 0.5 * dtau, dtau / 6.0
    y = [float(v) for v in (*init.x.array, *init.u.array)]
    rows = []
    error = None
    try:
        k1 = (*y[4:], *accel(*y))
        for k in range(n_steps):
            y2 = [a + h2 * b for a, b in zip(y, k1)]
            k2 = (*y2[4:], *accel(*y2))
            y3 = [a + h2 * b for a, b in zip(y, k2)]
            k3 = (*y3[4:], *accel(*y3))
            y4 = [a + dtau * b for a, b in zip(y, k3)]
            k4 = (*y4[4:], *accel(*y4))
            y = [a + h6 * (b + 2.0 * p + 2.0 * q + e) for a, b, p, q, e in zip(y, k1, k2, k3, k4)]
            if not all(map(math.isfinite, y)):
                error = QlifError(f"non-finite state at step {k + 1}")
                break
            k1 = (*y[4:], *accel(*y))
            rows.append(y)
    except QlifError as exc:
        error = exc
    states = [replace(init, tau=float(init.tau))]
    states += (
        GeodesicState(x=FourVector(*row[:4]), u=FourVector(*row[4:]), tau=init.tau + (k + 1) * dtau)
        for k, row in enumerate(rows)
    )
    return Trajectory(states=tuple(states), error=error)


def drift_figures(field: MetricField, traj: Trajectory) -> tuple[float, float, float]:
    """(norm, energy, angular momentum) drift of a trajectory.

    The norm drift is max |g(u, u) + c^2| / c^2; the energy drift is
    max |E / E_0 - 1| of the Killing energy E = -g_00 u^0, conserved along
    a geodesic of a static diagonal metric (the whole catalog); the angular
    momentum drift is max |L - L_0| / (r_0 c) of the kind's conserved
    angular momentum (``MetricField.angular_momentum``), r_0 the start's
    distance from the kind's centre (for a start at the centre, where
    L_0 = 0, the largest distance reached).
    """
    x = np.array([st.x.array for st in traj.states])
    u = np.array([st.u.array for st in traj.states])
    d = field.diagonal_batch(x)
    c = field.units.c
    norm = np.sum(d * u * u, axis=1)  # in index order, as the (N, 4, 4) contraction summed it: the same bits
    energy = -d[:, 0] * u[:, 0]
    ang, r = field.angular_momentum(x, u)
    dl = np.max(np.linalg.norm(ang - ang[0], axis=1))
    return (
        float(np.max(np.abs(norm + c**2)) / c**2),
        float(np.max(np.abs(energy / energy[0] - 1.0))),
        float(dl / (c * (r[0] or np.max(r)))) if dl else 0.0,
    )


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
    x, y, z = state.grid.open_mesh()
    return FourVector(
        state.grid.t0,
        float(np.sum(w * x) / total),
        float(np.sum(w * y) / total),
        float(np.sum(w * z) / total),
    )


def geodesic_superposition(
    state: SuperposedState,
    init_local_velocity,
    dtau: float,
    n_steps: int,
) -> list[BranchTrajectory]:
    """One geodesic per branch, started at the branch's wavefunction centroid.

    ``init_local_velocity`` is the common initial 3-velocity in the local
    orthonormal frame at each branch's start point.  Its components run
    along the chart axes, (x, y, z) or (r, theta, phi) on Schwarzschild,
    which are the same directions in every branch, so every branch starts
    with the same physical velocity even though the metrics differ.
    """
    out = []
    for i, branch in enumerate(state.branches):
        x0 = branch_centroid(state, i)
        u0 = local_frame_velocity(branch.metric, x0, init_local_velocity)
        traj = integrate_geodesic(branch.metric, GeodesicState(x=x0, u=u0, tau=0.0), dtau, n_steps)
        out.append(BranchTrajectory(branch.mass_label, branch.key[1].label, traj))
    return out


# ---------------------------------------------------------------------------
# Flat-space free evolution
# ---------------------------------------------------------------------------


def evolve_free(s: SuperposedState, t: float, mass: float) -> SuperposedState:
    """Evolve every branch under H = P^2 / (2 m) for time t >= 0 (spectral, unitary).

    Each axis is periodic with period n h (h the grid spacing), the
    convention under which ``translate_state`` is an exact roll; hbar comes
    from ``s.units``.  Every branch must be flat (metric ``Minkowski``, as
    are the P-frame registers ``to_qlif`` produces), else ValueError, as for
    a t that is not finite and >= 0.
    """
    if not (math.isfinite(t) and t >= 0.0):
        raise ValueError(f"t must be finite and >= 0, got {t!r}")
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

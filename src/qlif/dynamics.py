"""Branch-wise geodesic motion and flat-space free evolution of states.

Geodesics are integrated in proper time with classic fixed-step RK4 on the
pair (x, u):

    dx^mu/dtau = u^mu,    du^mu/dtau = -Gamma^mu_{nu rho} u^nu u^rho.

The loop keeps the 8 state components and the 4 stage accelerations in
named local floats, so a step builds no list: each stage is one call of
the closed-form acceleration of the metric kind
(``MetricField.geodesic_acceleration``, constants bound once per run) on
expressions such as x0 + (dtau/2) u0, and the call also judges the
singular set.  Only the finished step is packed into a tuple, and the
finished rows go into a ``Trajectory``'s arrays once: no ``GeodesicState``
is built unless a caller reads one.  The (4, 4, 4) Christoffel tables
remain ``christoffel()`` and the tests' reference for that acceleration.
Timelike normalization is g_munu u^mu u^nu = -c^2, with u^0 = d(ct)/dtau;
it, and the drift figures, are read from the metric diagonal
(``MetricField.diagonal_at`` at a point, ``diagonal_batch`` along a
trajectory), as every catalog metric is diagonal in its chart.

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
from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np

from .errors import QlifError, WrongFrame
from .qstate import Frame, SuperposedState, _abs_sq, _freeze, _measure, translate_state
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


class _States(Sequence):
    def __init__(self, traj: Trajectory):
        self._traj = traj

    def __len__(self) -> int:
        return len(self._traj.tau)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(map(self.__getitem__, range(*i.indices(len(self)))))
        t = self._traj
        return GeodesicState(x=FourVector(*t.x[i].tolist()), u=FourVector(*t.u[i].tolist()), tau=float(t.tau[i]))


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Read-only float arrays ``tau (n,)``, ``x (n, 4)``, ``u (n, 4)``, row k after k steps, and the ``error``
    that stopped the run early; ``states`` views the rows as ``GeodesicState``s, built as they are read."""

    tau: np.ndarray
    x: np.ndarray
    u: np.ndarray
    error: QlifError | None = None
    states = property(_States)

    def __post_init__(self):
        for name in ("tau", "x", "u"):
            object.__setattr__(self, name, _freeze(np.asarray(getattr(self, name), dtype=float)))

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

    Returns n_steps + 1 rows (including the initial one).  The initial
    state must be timelike-normalized within ``NORM_TOL`` (relative to
    c^2) and at a valid point, else ValueError / SingularRegion is raised.
    The loop runs on named local floats (see the module docstring) and
    packs only each finished step into a row.  A singular point hit
    mid-run, at any stage, stops the integration and returns the partial
    trajectory with ``error`` set; every row it holds lies outside the
    singular set, since each new row is checked for finiteness and judged
    (as the first stage of the next step) before it is kept.  A non-finite
    row stops the run the same way, with a ``QlifError``.
    """
    if not 0.0 < dtau < math.inf:
        raise ValueError("dtau must be finite and > 0")
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
    # the state y = (x, u) and the stage slopes k1 = (u, a), k2 = (p, b), k3 = (q, c)
    # and k4 = (e, d) are named floats; stage i > 1 runs at y + h k_(i-1), h = h2, h2, dtau
    start = tuple(float(v) for v in (*init.x.array, *init.u.array))
    x0, x1, x2, x3, u0, u1, u2, u3 = row = start
    rows = []
    error = None
    try:
        a0, a1, a2, a3 = accel(*row)
        for k in range(n_steps):
            p0, p1, p2, p3 = u0 + h2 * a0, u1 + h2 * a1, u2 + h2 * a2, u3 + h2 * a3
            b0, b1, b2, b3 = accel(x0 + h2 * u0, x1 + h2 * u1, x2 + h2 * u2, x3 + h2 * u3, p0, p1, p2, p3)
            q0, q1, q2, q3 = u0 + h2 * b0, u1 + h2 * b1, u2 + h2 * b2, u3 + h2 * b3
            c0, c1, c2, c3 = accel(x0 + h2 * p0, x1 + h2 * p1, x2 + h2 * p2, x3 + h2 * p3, q0, q1, q2, q3)
            e0, e1, e2, e3 = u0 + dtau * c0, u1 + dtau * c1, u2 + dtau * c2, u3 + dtau * c3
            d0, d1, d2, d3 = accel(x0 + dtau * q0, x1 + dtau * q1, x2 + dtau * q2, x3 + dtau * q3, e0, e1, e2, e3)
            row = (
                x0 + h6 * (u0 + 2.0 * p0 + 2.0 * q0 + e0),
                x1 + h6 * (u1 + 2.0 * p1 + 2.0 * q1 + e1),
                x2 + h6 * (u2 + 2.0 * p2 + 2.0 * q2 + e2),
                x3 + h6 * (u3 + 2.0 * p3 + 2.0 * q3 + e3),
                u0 + h6 * (a0 + 2.0 * b0 + 2.0 * c0 + d0),
                u1 + h6 * (a1 + 2.0 * b1 + 2.0 * c1 + d1),
                u2 + h6 * (a2 + 2.0 * b2 + 2.0 * c2 + d2),
                u3 + h6 * (a3 + 2.0 * b3 + 2.0 * c3 + d3),
            )
            if not all(map(math.isfinite, row)):
                error = QlifError(f"non-finite state at step {k + 1}")
                break
            a0, a1, a2, a3 = accel(*row)
            rows.append(row)
            x0, x1, x2, x3, u0, u1, u2, u3 = row
    except QlifError as exc:
        error = exc
    rows = np.array([start, *rows])
    tau = np.concatenate(([init.tau], init.tau + np.arange(1, len(rows)) * dtau))  # row 0 is init.tau, even -0.0
    return Trajectory(tau, rows[:, :4], rows[:, 4:], error)


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
    c, x, u = field.units.c, traj.x, traj.u
    d = field.diagonal_batch(x)
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
    """Measure-weighted mean position of a branch wavefunction on its slice (flat weight in the P frame)."""
    branch = state.branches[branch_index]
    w = _abs_sq(branch.psi, _measure(branch, state.grid, state.frame))
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
    Raises WrongFrame unless ``state`` is R-frame: a P-frame grid holds
    relative coordinates, at which the branch metrics are not defined.
    """
    if state.frame != Frame.R:
        raise WrongFrame(f"geodesic_superposition needs an R-frame state, got {state.frame.value}-frame")
    out = []
    for i, branch in enumerate(state.branches):
        x0 = branch_centroid(state, i)
        u0 = local_frame_velocity(branch.metric, x0, init_local_velocity)
        traj = integrate_geodesic(branch.metric, GeodesicState(x=x0, u=u0, tau=0.0), dtau, n_steps)
        out.append(BranchTrajectory(branch.mass_label, branch.metric.label, traj))
    return out


# ---------------------------------------------------------------------------
# Flat-space free evolution
# ---------------------------------------------------------------------------


def evolve_free(s: SuperposedState, t: float, mass: float) -> SuperposedState:
    """Evolve every branch under H = P^2 / (2 m) for time t >= 0 (spectral, unitary).

    Each axis is periodic with period n h (h the grid spacing), the
    convention under which ``translate_state`` is an exact roll; hbar comes
    from ``s.units``.  The state must be flat, P-frame (the QLIF) or with
    every metric ``Minkowski``, else ValueError, as for a t that is not
    finite and >= 0 or a mass that is not finite and > 0.
    """
    if not (math.isfinite(t) and t >= 0.0):
        raise ValueError(f"t must be finite and >= 0, got {t!r}")
    if not 0.0 < mass < math.inf:
        raise ValueError(f"mass must be finite and > 0, got {mass!r}")
    for b in s.branches:
        if s.frame == Frame.R and not isinstance(b.metric, Minkowski):
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

import itertools
import math
from collections.abc import Sequence

import numpy as np
import pytest

from conftest import diagonal_cases, line_state, two_branch_state, x_width
from oracles import (
    free_gaussian_width,
    list_rk4,
    local_frame_u,
    matrix_timelike_u0,
    metric_matrices,
    newtonian_drop,
    perihelion_advance_epicyclic,
    perihelion_advance_weak_field,
    schwarzschild_chart_regular,
)
from qlif.dynamics import (
    GeodesicState,
    Trajectory,
    drift_figures,
    evolve_free,
    geodesic_superposition,
    integrate_geodesic,
    local_frame_velocity,
    timelike_velocity,
    translation_covariance_check,
    velocity_norm,
)
from qlif.errors import OffGridTranslation, QlifError, SingularRegion, WrongFrame
from qlif.qrf import to_qlif
from qlif.qstate import GridSpec, inner_product, state_norm, translate_state
from qlif.spacetime import (
    METRIC_KINDS,
    FourVector,
    MetricField,
    Minkowski,
    Schwarzschild,
    UnitSystem,
    WeakFieldPointMass,
)
from qlif.tetrad import build_tetrad


# ---------------------------------------------------------------------------
# geodesics
# ---------------------------------------------------------------------------


def test_minkowski_straight_line(units):
    mink = Minkowski(units)
    x0 = FourVector(0.0, 1.0, -1.0, 0.5)
    u0 = timelike_velocity(mink, x0, (0.12, -0.3, 0.05))
    traj = integrate_geodesic(mink, GeodesicState(x0, u0, 0.0), 0.25, 40)
    assert traj.completed and len(traj.states) == 41
    for st in traj.states:
        expected = x0.array + u0.array * st.tau
        assert np.max(np.abs(st.x.array - expected)) < 1e-12
        assert np.array_equal(st.u.array, u0.array)


def test_velocity_normalization_helpers(units, catalog):
    for field in catalog.values():
        x = FourVector(0.0, 6.0, 1.2, 0.4)
        u = timelike_velocity(field, x, (0.01, 0.002, -0.015))
        assert velocity_norm(field, x, u) == pytest.approx(-(units.c**2), abs=1e-12)
        v = local_frame_velocity(field, x, (0.05, -0.02, 0.01))
        assert velocity_norm(field, x, v) == pytest.approx(-(units.c**2), abs=1e-12)


def test_velocity_norm_and_completion_equal_the_matrix_route_bit_for_bit(catalog):
    rng = np.random.default_rng(61)
    for field, points in diagonal_cases(catalog, rng, 500):
        speed = 0.05 * field.units.c
        for x, g in zip(map(FourVector.from_array, points), metric_matrices(field, points)):
            u_s = rng.uniform(-speed, speed, 3)
            u = timelike_velocity(field, x, u_s)
            assert all(type(v) is float for v in (u.t, u.x, u.y, u.z))
            assert u.array.tobytes() == np.array([matrix_timelike_u0(g, u_s, field.units.c), *u_s]).tobytes()
            assert velocity_norm(field, x, u) == float(u.array @ g @ u.array), field.label
            w = FourVector.from_array(rng.normal(0.0, speed, 4))
            assert velocity_norm(field, x, w) == float(w.array @ g @ w.array), field.label


@pytest.mark.parametrize("r, theta", [(10.0, 0.0), (2.0, 1.0), (1.5, 1.0)], ids=["pole", "horizon", "inside"])
def test_timelike_velocity_rejects_the_singular_set(units, r, theta):
    sch = Schwarzschild(units, mass=1.0)
    x = FourVector(0.0, r, theta, 0.3)
    assert not schwarzschild_chart_regular(sch.r_s, r, theta)
    assert not sch.valid_mask(x.array[None, :])[0]
    with pytest.raises(SingularRegion) as from_mask:
        sch.require_valid(x.array[None, :])
    with pytest.raises(SingularRegion) as got:
        sch.diagonal_at(x)
    assert str(got.value) == str(from_mask.value)
    with pytest.raises(SingularRegion) as got:
        timelike_velocity(sch, x, (0.0, 0.0, 0.0))
    assert str(got.value) == str(from_mask.value)
    with pytest.raises(SingularRegion) as got:
        velocity_norm(sch, x, FourVector(1.0, 0.0, 0.0, 0.1))
    assert str(got.value) == str(from_mask.value)


@pytest.mark.parametrize("mass", [1.0, 0.5])
@pytest.mark.parametrize("theta", [np.pi / 2, 1.2])
def test_local_frame_velocity_runs_along_the_chart_axes(units, mass, theta):
    # a local x velocity is radial on Schwarzschild, whatever the mass and
    # the latitude, so it means the same direction in every branch
    sch = Schwarzschild(units, mass=mass)
    x = FourVector(0.0, 2.3, theta, 0.3)
    v = np.array([0.1, 0.0, 0.0])
    u = local_frame_velocity(sch, x, v)
    assert u.z == 0.0 and u.y == 0.0 and u.x > 0.0
    assert np.allclose(u.array, local_frame_u(metric_matrices(sch, x.array[None, :])[0], v, units.c), rtol=1e-15, atol=0.0)


def test_local_frame_velocity_equals_the_tetrad_product_bit_for_bit(catalog):
    rng = np.random.default_rng(63)
    for field, points in diagonal_cases(catalog, rng, 200):
        c = field.units.c
        for x in map(FourVector.from_array, points):
            v = rng.uniform(-0.3 * c, 0.3 * c, 3)
            gamma = 1.0 / np.sqrt(1.0 - float(v @ v) / c**2)
            u_local = np.concatenate([[gamma * c], gamma * v])
            got = local_frame_velocity(field, x, v).array
            assert got.tobytes() == (np.diag(build_tetrad(field, x)[1]) @ u_local).tobytes(), field.label


def test_drift_figures_equal_the_matrix_route_bit_for_bit(catalog):
    # 15 geodesics per kind, then one record of random points and random 4-velocities
    rng = np.random.default_rng(62)
    for field, points in diagonal_cases(catalog, rng, 15):
        speed = 0.05 * field.units.c
        dtau = 0.1 if field.units.c == 1.0 else 1e-3
        points = [FourVector.from_array(p) for p in points]
        starts = [GeodesicState(x, timelike_velocity(field, x, rng.uniform(-speed, speed, 3)), 0.0) for x in points]
        trajectories = [integrate_geodesic(field, start, dtau, 40) for start in starts]
        at = np.array([x.array for x in points])
        random_rows = Trajectory(np.zeros(len(at)), at, rng.normal(0.0, speed, at.shape))
        for traj in [*trajectories, random_rows]:
            xs, us = traj.x, traj.u
            g = metric_matrices(field, xs)
            norm, energy = np.einsum("nij,ni,nj->n", g, us, us), -g[:, 0, 0] * us[:, 0]
            c2 = field.units.c**2
            got = drift_figures(field, traj)
            assert got[0] == float(np.max(np.abs(norm + c2)) / c2), field.label
            assert got[1] == float(np.max(np.abs(energy / energy[0] - 1.0))), field.label


def test_unnormalized_initial_velocity_rejected(units):
    mink = Minkowski(units)
    bad = GeodesicState(FourVector(0, 0, 0, 0), FourVector(1.0, 0.5, 0, 0), 0.0)
    with pytest.raises(ValueError):
        integrate_geodesic(mink, bad, 0.1, 1)


@pytest.mark.parametrize("dtau", [0.0, -0.1, np.nan, np.inf])
def test_integrate_rejects_a_step_that_is_not_finite_and_positive(units, dtau):
    # a NaN or infinite step used to end in a one-state trajectory with an error
    start = GeodesicState(FourVector(0, 0, 0, 0), FourVector(1.0, 0, 0, 0), 0.0)
    with pytest.raises(ValueError, match="dtau must be finite and > 0"):
        integrate_geodesic(Minkowski(units), start, dtau, 1)


def test_weak_field_drop_matches_newtonian(units):
    # released from rest at z0; depth grows as g t^2 / 2 with g = GM/z0^2
    mass, z0 = 3e-7, 1.0
    wf = WeakFieldPointMass(units, mass=mass, soft=1e-6, center=(0, 0, 0))
    g_newton = mass / z0**2
    fall_time = np.sqrt(2.0 * 1e-6 * z0 / g_newton)
    x0 = FourVector(0.0, 0.0, 0.0, z0)
    u0 = timelike_velocity(wf, x0, (0.0, 0.0, 0.0))
    traj = integrate_geodesic(wf, GeodesicState(x0, u0, 0.0), fall_time / 400, 400)
    assert traj.completed
    worst = 0.0
    for st in traj.states[1:]:
        t_coord = st.x.t / units.c
        depth_oracle = z0 - newtonian_drop(z0, g_newton, t_coord)
        depth_num = z0 - st.x.z
        if depth_oracle > 0.0:
            worst = max(worst, abs(depth_num - depth_oracle) / depth_oracle)
    assert worst < 1e-5


def test_si_earth_drop_from_the_pole():
    # 1 s from rest at the pole of an Earth-mass source: the radial drop is
    # g t^2 / 2 up to the non-uniform-g and relativistic corrections (~3e-7)
    si = UnitSystem.si()
    mass, radius = 5.972e24, 6.371e6
    wf = WeakFieldPointMass(si, mass=mass, soft=1.0)
    x0 = FourVector(0.0, 0.0, 0.0, radius)
    u0 = timelike_velocity(wf, x0, (0.0, 0.0, 0.0))
    end = integrate_geodesic(wf, GeodesicState(x0, u0, 0.0), 0.01, 100).states[-1]
    depth = radius - np.linalg.norm(end.x.array[1:])
    oracle = radius - newtonian_drop(radius, si.G * mass / radius**2, end.x.t / si.c)
    assert depth == pytest.approx(oracle, rel=1e-6)


def _eccentric_orbit_ic(sch, r0, ecc_factor):
    u_phi_circ = np.sqrt(sch.mass / r0**3) / np.sqrt(1.0 - 3.0 * sch.mass / r0)
    x0 = FourVector(0.0, r0, np.pi / 2, 0.0)
    u0 = timelike_velocity(sch, x0, (0.0, 0.0, u_phi_circ * ecc_factor))
    return x0, u0


def _perihelion_advances(sch, r0, ecc_factor, steps_per_orbit, n_orbits):
    x0, u0 = _eccentric_orbit_ic(sch, r0, ecc_factor)
    t_orbit = 2.0 * np.pi * np.sqrt(r0**3 / sch.mass)
    n = int(steps_per_orbit * n_orbits)
    traj = integrate_geodesic(sch, GeodesicState(x0, u0, 0.0), n_orbits * t_orbit / n, n)
    assert traj.completed
    r = np.array([st.x.x for st in traj.states])
    phi = np.array([st.x.z for st in traj.states])
    minima_phi = []
    for i in range(1, len(r) - 1):
        if r[i] <= r[i - 1] and r[i] < r[i + 1]:
            denom = r[i - 1] - 2.0 * r[i] + r[i + 1]
            delta = 0.5 * (r[i - 1] - r[i + 1]) / denom if denom != 0.0 else 0.0
            minima_phi.append(phi[i] + delta * 0.5 * (phi[i + 1] - phi[i - 1]))
    a = 0.5 * (r.min() + r.max())
    e = (r.max() - r.min()) / (r.max() + r.min())
    return np.diff(minima_phi) - 2.0 * np.pi, a, e


def test_perihelion_advance_weak_field_formula(units):
    # wide orbit, where the leading-order closed form is valid to << 2%
    sch = Schwarzschild(units, mass=1.0)
    advances, a, e = _perihelion_advances(sch, 2000.0, 1.02, 4000, 2.2)
    assert len(advances) >= 1
    oracle = perihelion_advance_weak_field(sch.mass, a, e)
    assert advances[0] == pytest.approx(oracle, rel=0.02)


def test_perihelion_advance_strong_field_epicyclic(units):
    # at r0 = 10 r_s the weak-field formula is off by ~30 percent; the
    # exact small-eccentricity frequency ratio is the honest oracle there
    sch = Schwarzschild(units, mass=1.0)
    advances, a, e = _perihelion_advances(sch, 20.0, 1.01, 5000, 4.0)
    assert len(advances) >= 2
    oracle = perihelion_advance_epicyclic(sch.mass, a)
    assert advances[0] == pytest.approx(oracle, rel=0.01)
    weak = perihelion_advance_weak_field(sch.mass, a, e)
    assert abs(advances[0] - weak) / weak > 0.2  # and the naive formula really fails here


def test_rk4_order_by_step_halving(units):
    sch = Schwarzschild(units, mass=1.0)
    x0, u0 = _eccentric_orbit_ic(sch, 20.0, 1.02)
    span = 400.0

    def endpoint(n):
        traj = integrate_geodesic(sch, GeodesicState(x0, u0, 0.0), span / n, n)
        return np.concatenate([traj.states[-1].x.array, traj.states[-1].u.array])

    ref = endpoint(8192)
    ratio = np.linalg.norm(endpoint(128) - ref) / np.linalg.norm(endpoint(256) - ref)
    assert 12.0 <= ratio <= 20.0


def test_normalization_drift_1e4_steps(units):
    sch = Schwarzschild(units, mass=1.0)
    x0, u0 = _eccentric_orbit_ic(sch, 20.0, 1.02)
    t_orbit = 2.0 * np.pi * np.sqrt(20.0**3)
    traj = integrate_geodesic(sch, GeodesicState(x0, u0, 0.0), 4 * t_orbit / 10_000, 10_000)
    worst = 0.0
    for st in traj.states[::100]:
        worst = max(worst, abs(velocity_norm(sch, st.x, st.u) + units.c**2))
    assert worst < 1e-8


def test_conserved_quantities_drift_ten_orbits(units):
    sch = Schwarzschild(units, mass=1.0)
    x0, u0 = _eccentric_orbit_ic(sch, 20.0, 1.02)
    t_orbit = 2.0 * np.pi * np.sqrt(20.0**3)
    traj = integrate_geodesic(sch, GeodesicState(x0, u0, 0.0), 10 * t_orbit / 14_000, 14_000)
    assert traj.completed

    def energy_momentum(st):
        g = metric_matrices(sch, st.x.array[None, :])[0]
        return -g[0, 0] * st.u.t, g[3, 3] * st.u.array[3]

    e0, l0 = energy_momentum(traj.states[0])
    for st in traj.states[::200]:
        e, l = energy_momentum(st)
        assert abs(e / e0 - 1.0) < 1e-8
        assert abs(l / l0 - 1.0) < 1e-8


def test_zero_steps_returns_initial_condition(units):
    mink = Minkowski(units)
    x0 = FourVector(0, 0, 0, 0)
    u0 = timelike_velocity(mink, x0, (0, 0, 0))
    traj = integrate_geodesic(mink, GeodesicState(x0, u0, 0.0), 0.1, 0)
    assert len(traj.states) == 1 and traj.completed
    assert (traj.tau.shape, traj.x.shape, traj.u.shape) == ((1,), (1, 4), (1, 4))
    assert traj.x[0].tobytes() == x0.array.tobytes() and traj.u[0].tobytes() == u0.array.tobytes()


@pytest.mark.parametrize("n_steps", [0, 2])
def test_every_state_holds_floats_from_an_int_start(units, n_steps):
    # the first state is rebuilt from its float row, not kept as given with int components
    start = GeodesicState(FourVector(0, 0, 0, 0), FourVector(1, 0, 0, 0), 0)
    traj = integrate_geodesic(Minkowski(units), start, 0.1, n_steps)
    assert len(traj.states) == n_steps + 1
    for st in traj.states:
        assert {type(v) for v in (st.x.t, st.x.x, st.x.y, st.x.z, st.tau)} == {float}
        assert {type(v) for v in (st.u.t, st.u.x, st.u.y, st.u.z)} == {float}
    assert traj.states[0] == start


def test_states_view_equals_states_built_from_the_rows(units):
    sch = Schwarzschild(units, mass=1.0)
    x0, u0 = _eccentric_orbit_ic(sch, 20.0, 1.02)
    traj = integrate_geodesic(sch, GeodesicState(x0, u0, 1.5), 1.0, 300)
    by_hand = tuple(
        GeodesicState(FourVector(*x), FourVector(*u), tau)
        for tau, x, u in zip(traj.tau.tolist(), traj.x.tolist(), traj.u.tolist())
    )
    states = traj.states
    assert isinstance(states, Sequence) and len(states) == len(by_hand) == 301
    assert states[0] == by_hand[0] and states[-1] == by_hand[-1] and states[-301] == by_hand[0]
    assert states[::100] == by_hand[::100] and states[1:] == by_hand[1:] and states[5:2] == ()
    assert tuple(states) == tuple(iter(states)) == by_hand
    assert list(reversed(states)) == list(reversed(by_hand))
    assert {type(v) for st in states for v in (st.tau, st.x.t, st.x.z, st.u.t, st.u.z)} == {float}
    for i in (301, -302):
        with pytest.raises(IndexError):
            states[i]


def test_trajectory_arrays_are_read_only(units):
    mink = Minkowski(units)
    x0 = FourVector(0.0, 1.0, -1.0, 0.5)
    run = integrate_geodesic(mink, GeodesicState(x0, timelike_velocity(mink, x0, (0.1, 0.0, 0.0)), 0.0), 0.5, 3)
    by_hand = Trajectory([0.0, 1.0], np.zeros((2, 4)), np.ones((2, 4)))
    for traj in (run, by_hand):
        for a in (traj.tau, traj.x, traj.u):
            assert a.dtype == np.float64 and a.flags.c_contiguous and not a.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 7.0


def test_integration_builds_no_four_vector_per_step(catalog, monkeypatch):
    # every row stays in the arrays: the FourVector count does not grow with the step count
    starts = {}
    for name, field in catalog.items():
        x0 = FourVector(0.0, 8.0, 1.2, 0.3) if name == "schwarzschild" else FourVector(0.0, 1.0, 0.5, -0.4)
        starts[name] = GeodesicState(x0, timelike_velocity(field, x0, (0.01, 0.002, -0.003)), 0.0)
    calls = []
    post_init = FourVector.__post_init__
    monkeypatch.setattr(FourVector, "__post_init__", lambda self: calls.append(self) or post_init(self))
    for name, field in catalog.items():
        counts = []
        for n in (10, 1000):
            calls.clear()
            traj = integrate_geodesic(field, starts[name], 0.01, n)
            assert traj.completed and len(traj.states) == n + 1
            counts.append(len(calls))
        assert counts[0] == counts[1], name


def test_partial_trajectory_on_singularity(units):
    # infalling radial plunge hits the horizon margin mid-run
    sch = Schwarzschild(units, mass=1.0)
    x0 = FourVector(0.0, 3.0, np.pi / 2, 0.0)
    u0 = timelike_velocity(sch, x0, (-0.5, 0.0, 0.0))
    traj = integrate_geodesic(sch, GeodesicState(x0, u0, 0.0), 0.05, 200)
    assert not traj.completed
    assert 0 < len(traj.states) < 201
    assert traj.error is not None
    # only the kept rows: one length for all three arrays, every row finite and valid
    n = len(traj.states)
    assert (traj.tau.shape, traj.x.shape, traj.u.shape) == ((n,), (n, 4), (n, 4))
    assert np.all(np.isfinite(traj.x)) and np.all(np.isfinite(traj.u)) and np.all(sch.valid_mask(traj.x))


def test_weak_field_dive_into_signature_loss_keeps_a_valid_partial_trajectory(units):
    # |2 Phi / c^2| reaches 1 near r = 2 G M / c^2 = 2; the orbit spirals in from r = 6
    deep = WeakFieldPointMass(units, mass=1.0, soft=1e-4)
    x0 = FourVector(0.0, 6.0, 0.0, 0.0)
    u0 = local_frame_velocity(deep, x0, (0.0, 0.1, 0.0))
    traj = integrate_geodesic(deep, GeodesicState(x0, u0, 0.0), 0.05, 2000)
    assert isinstance(traj.error, SingularRegion)
    assert "is in the singular set" in str(traj.error)
    assert 1 < len(traj.states) < 2001
    x = np.array([st.x.array for st in traj.states])
    assert np.all(deep.valid_mask(x))
    assert np.linalg.norm(x[-1, 1:]) < 2.1


def _assert_matches_list_rk4(field, init, dtau, n_steps):
    traj = integrate_geodesic(field, init, dtau, n_steps)
    ref = list_rk4(field, init, dtau, n_steps)
    assert len(traj.states) == len(ref.states)
    for name in ("tau", "x", "u"):
        assert getattr(traj, name).tobytes() == getattr(ref, name).tobytes(), name
    assert type(traj.error) is type(ref.error)
    assert str(traj.error) == str(ref.error)
    return traj


def _rk4_cases(units):
    wf = WeakFieldPointMass(units, mass=3e-7, soft=1e-6)
    wf_off = WeakFieldPointMass(units, mass=1e-5, soft=1e-3, center=(0.3, -0.2, 0.1))
    sch = Schwarzschild(units, mass=1.0)
    mink = Minkowski(units)
    deep = WeakFieldPointMass(units, mass=1.0, soft=1e-4)
    at_rest = FourVector(0.0, 0.0, 0.0, 1.0)
    moving = FourVector(0.0, 1.0, 0.5, -0.4)
    orbit_x, orbit_u = _eccentric_orbit_ic(sch, 20.0, 1.02)
    line_x = FourVector(0.0, 1.0, -1.0, 0.5)
    plunge_x = FourVector(0.0, 3.0, np.pi / 2, 0.0)
    dive_x = FourVector(0.0, 6.0, 0.0, 0.0)
    return {
        "weak_field_from_rest": (wf, at_rest, timelike_velocity(wf, at_rest, (0.0, 0.0, 0.0)), 0.05, 400),
        "weak_field_moving": (wf_off, moving, local_frame_velocity(wf_off, moving, (1e-3, -2e-3, 5e-4)), 0.1, 400),
        "schwarzschild_orbit": (sch, orbit_x, orbit_u, 1.0, 2000),
        "minkowski": (mink, line_x, timelike_velocity(mink, line_x, (0.12, -0.3, 0.05)), 0.25, 40),
        "horizon_plunge": (sch, plunge_x, timelike_velocity(sch, plunge_x, (-0.5, 0.0, 0.0)), 0.05, 200),
        "signature_loss_dive": (deep, dive_x, local_frame_velocity(deep, dive_x, (0.0, 0.1, 0.0)), 0.05, 2000),
    }


@pytest.mark.parametrize(
    "case",
    [
        "weak_field_from_rest",
        "weak_field_moving",
        "schwarzschild_orbit",
        "minkowski",
        "horizon_plunge",
        "signature_loss_dive",
    ],
)
def test_integration_equals_the_list_rk4_bit_for_bit(units, case):
    field, x0, u0, dtau, n = _rk4_cases(units)[case]
    traj = _assert_matches_list_rk4(field, GeodesicState(x0, u0, 0.0), dtau, n)
    # the two partial runs stop early on the singular set, the others run to the end
    assert traj.completed == (case not in ("horizon_plunge", "signature_loss_dive"))


class _TurnsNonFinite(Minkowski):
    """Flat test double whose acceleration turns to ``bad`` after ``good`` calls."""

    def __init__(self, units, good, bad):
        super().__init__(units)
        object.__setattr__(self, "_after", (good, bad))

    def geodesic_acceleration(self):
        good, bad = self._after
        calls = itertools.count()
        return lambda *y: (bad if next(calls) >= good else 0.0, 0.0, 0.0, 0.0)


@pytest.mark.parametrize("bad", [math.inf, math.nan])
@pytest.mark.parametrize("good", range(9))
def test_non_finite_stop_equals_the_list_rk4(units, good, bad):
    # good = 0 .. 8 puts the first bad value at every stage of the first two
    # steps and at the first stage of the third
    field = _TurnsNonFinite(units, good, bad)
    x0 = FourVector(0.0, 1.0, -1.0, 0.5)
    traj = _assert_matches_list_rk4(field, GeodesicState(x0, timelike_velocity(field, x0, (0.1, 0.0, 0.0)), 0.0), 0.5, 5)
    assert type(traj.error) is QlifError
    assert str(traj.error) == f"non-finite state at step {good // 4 + 1}"
    assert len(traj.states) == good // 4 + 1
    # the non-finite row is not kept
    assert traj.x.shape == traj.u.shape == (good // 4 + 1, 4)
    assert np.all(np.isfinite(traj.x)) and np.all(np.isfinite(traj.u))


def test_integration_builds_no_christoffel_table(catalog, monkeypatch):
    # the loop runs on each kind's closed-form acceleration; the initial
    # validity and normalization checks may use np.einsum (the weak-field
    # potential sums r^2 with it), but no step adds a call
    starts = {}
    for name, field in catalog.items():
        x0 = FourVector(0.0, 8.0, 1.2, 0.3) if name == "schwarzschild" else FourVector(0.0, 1.0, 0.5, -0.4)
        starts[name] = GeodesicState(x0, timelike_velocity(field, x0, (0.01, 0.002, -0.003)), 0.0)

    def forbidden(*args, **kwargs):
        raise AssertionError("Christoffel table built during integration")

    monkeypatch.setattr(MetricField, "christoffel_batch", forbidden)
    for cls in METRIC_KINDS.values():
        monkeypatch.setattr(cls, "christoffel_batch", forbidden)
    calls = []
    einsum = np.einsum
    monkeypatch.setattr(np, "einsum", lambda *a, **k: calls.append(a[0]) or einsum(*a, **k))
    for name, field in catalog.items():
        counts = []
        for n in (0, 50):
            calls.clear()
            traj = integrate_geodesic(field, starts[name], 0.1, n)
            assert traj.completed and len(traj.states) == n + 1
            counts.append(len(calls))
        assert counts[0] == counts[1], name


def test_angular_momentum_drift_is_tiny_on_orbits(catalog):
    mink, wf, sch = catalog["minkowski"], catalog["weak_field"], catalog["schwarzschild"]
    x_mink = FourVector(0.0, 1.0, -2.0, 0.5)
    x_wf = FourVector(0.0, 1.3, -0.2, 0.1)  # unit distance from the centre, circular speed sqrt(G M / r)
    x_sch, u_sch = _eccentric_orbit_ic(sch, 20.0, 1.001)
    t_orbit = 2.0 * np.pi * np.sqrt(20.0**3)
    cases = [
        (mink, GeodesicState(x_mink, timelike_velocity(mink, x_mink, (0.1, 0.2, -0.05)), 0.0), 1.0, 200),
        (wf, GeodesicState(x_wf, local_frame_velocity(wf, x_wf, (0.0, np.sqrt(1e-5), 0.0)), 0.0), 5.0, 400),
        (sch, GeodesicState(x_sch, u_sch, 0.0), t_orbit / 500, 500),
    ]
    for field, init, dtau, n in cases:
        traj = integrate_geodesic(field, init, dtau, n)
        assert traj.completed
        ang, r = field.angular_momentum(np.array([init.x.array]), np.array([init.u.array]))
        assert np.linalg.norm(ang) > 1e-3 and r[0] > 0.5
        assert drift_figures(field, traj)[2] < 1e-12, field.kind
    # a start at the centre (L_0 = 0, r_0 = 0): the largest distance reached stands for r_0
    origin = FourVector(0.0, 0.0, 0.0, 0.0)
    radial = GeodesicState(origin, timelike_velocity(mink, origin, (0.1, 0.2, -0.05)), 0.0)
    assert 0.0 <= drift_figures(mink, integrate_geodesic(mink, radial, 1.0, 20))[2] < 1e-12
    # the figure is |L - L_0| / (r_0 c): a 1e-6 kick to the last u^phi reads L / r_0 * 1e-6
    kicked = traj.u.copy()
    kicked[-1, 3] *= 1.0 + 1e-6
    bumped = Trajectory(traj.tau, traj.x, kicked)
    lz = traj.x[-1, 1] ** 2 * traj.u[-1, 3]
    assert drift_figures(sch, bumped)[2] == pytest.approx(1e-6 * lz / 20.0, rel=1e-6)


def test_geodesic_superposition_flat_branches_identical(units):
    grid = GridSpec(lo=(-3, -3, -3), hi=(3, 3, 3), n=(15, 15, 15))
    from qlif.qstate import Branch, gaussian_psi, make_state

    psi = gaussian_psi(grid, (0, 0, 0.5), 0.5)
    s = make_state(
        [
            Branch(1.0, "L", FourVector(0, -1, 0, 0), Minkowski(units), psi),
            Branch(1.0, "R", FourVector(0, 1, 0, 0), Minkowski(units), psi.copy()),
        ],
        grid,
    )
    results = geodesic_superposition(s, (0.05, 0.0, 0.0), 0.2, 30)
    xs_l = np.array([st.x.array for st in results[0].trajectory.states])
    xs_r = np.array([st.x.array for st in results[1].trajectory.states])
    assert np.array_equal(xs_l, xs_r)


def test_geodesic_superposition_branches_bend_apart(units):
    s = two_branch_state(units, mass=1e-4)
    results = geodesic_superposition(s, (0.0, 0.0, 0.0), 1.0, 80)
    start_l = results[0].trajectory.states[0].x
    start_r = results[1].trajectory.states[0].x
    end_l = results[0].trajectory.states[-1].x
    end_r = results[1].trajectory.states[-1].x
    # near-common start (the sqrt(-g) weight pulls each branch centroid
    # toward its own mass by ~1e-5), then bending toward -x / +x
    assert abs(start_l.x - start_r.x) < 1e-4
    assert end_l.x < start_l.x - 1e-3
    assert end_r.x > start_r.x + 1e-3
    # branch deviation starts at the centroid offset and grows far past it
    dev = [
        np.linalg.norm(a.x.array - b.x.array)
        for a, b in zip(results[0].trajectory.states, results[1].trajectory.states)
    ]
    assert dev[-1] > 100 * dev[0]
    assert all(b >= a for a, b in zip(dev, dev[1:]))


def test_geodesic_superposition_rejects_a_p_frame_state(units):
    # P-frame coordinates are relative: the branch metrics do not hold there
    transformed, _ = to_qlif(two_branch_state(units))
    with pytest.raises(WrongFrame, match="R-frame"):
        geodesic_superposition(transformed, (0.0, 0.0, 0.0), 1.0, 10)


# ---------------------------------------------------------------------------
# flat-space free evolution
# ---------------------------------------------------------------------------

# gaussian_psi's sigma is the amplitude width; |psi|^2 has rms width sigma / sqrt(2)
SIGMA = np.sqrt(2.0)
RMS_WIDTH = SIGMA / np.sqrt(2.0)


@pytest.fixture
def line(units):
    return line_state(units, SIGMA)


def _shift(state, steps):
    return (steps * state.grid.spacing[0], 0.0, 0.0)


def test_evolve_zero_time_is_identity(line):
    assert np.array_equal(evolve_free(line, 0.0, 1.0).branches[0].psi, line.branches[0].psi)
    with pytest.raises(ValueError):
        evolve_free(line, -1.0, 1.0)
    with pytest.raises(ValueError):
        evolve_free(line, 1.0, 0.0)


@pytest.mark.parametrize("mass", [np.inf, np.nan, -1.0])
def test_evolve_rejects_a_mass_that_is_not_finite_and_positive(line, mass):
    # at mass = inf the kinetic phase would be 1 and the call an fft round trip
    with pytest.raises(ValueError, match="mass must be finite and > 0"):
        evolve_free(line, 1.0, mass)


@pytest.mark.parametrize("t", [np.nan, np.inf])
def test_evolve_rejects_a_non_finite_time(line, t):
    with pytest.raises(ValueError, match="t must be finite"):
        evolve_free(line, t, 1.0)
    with pytest.raises(ValueError, match="t must be finite"):
        translation_covariance_check(line, _shift(line, 1), t, 1.0)


def test_evolve_rejects_curved_branches(units):
    s = two_branch_state(units)
    for t in (0.0, 1.0):
        with pytest.raises(ValueError, match="Minkowski"):
            evolve_free(s, t, 1.0)


def test_evolve_accepts_qlif_frame_registers(units):
    transformed, _ = to_qlif(two_branch_state(units))
    evolved = evolve_free(transformed, 0.4, 1.0)
    assert state_norm(evolved) == pytest.approx(1.0, abs=1e-12)


def test_free_gaussian_spreading(line):
    for t in (0.5, 2.0, 5.0):
        evolved = evolve_free(line, t, 1.0)
        oracle = free_gaussian_width(RMS_WIDTH, t, mass=1.0, hbar=1.0)
        assert x_width(evolved) == pytest.approx(oracle, rel=1e-6)


def test_evolution_is_unitary(line):
    evolved = evolve_free(line, 7.3, 1.0)
    assert state_norm(evolved) == pytest.approx(1.0, abs=1e-12)


def test_evolution_composes(line):
    a = evolve_free(evolve_free(line, 1.3, 1.0), 0.9, 1.0)
    b = evolve_free(line, 2.2, 1.0)
    assert np.max(np.abs(a.branches[0].psi - b.branches[0].psi)) < 1e-12


def test_translation_covariance_zero_shift(line):
    assert translation_covariance_check(line, (0.0, 0.0, 0.0), 2.0, 1.0) == 0.0


def test_translation_covariance_on_grid(line):
    for steps in (1, 8, 21):
        for t in (0.3, 1.7, 6.0):
            assert translation_covariance_check(line, _shift(line, steps), t, 1.0) < 1e-10


def test_translation_off_grid_rejected(line):
    with pytest.raises(OffGridTranslation):
        translate_state(line, _shift(line, 0.5))
    with pytest.raises(OffGridTranslation):
        translation_covariance_check(line, _shift(line, 1.4999), 1.0, 1.0)


def test_branch_overlap_constant_under_common_evolution(line):
    # the two amplitudes of a translated superposition evolve under the
    # same free Hamiltonian, so their mutual overlap never changes:
    # |<T_d psi(t) | psi(t)>| = |<T_d psi | psi>| by commutation + unitarity
    d = _shift(line, 8)
    ref = abs(inner_product(translate_state(line, d), line))
    for t in (0.5, 1.0, 3.0, 10.0):
        evolved = evolve_free(line, t, 1.0)
        val = abs(inner_product(translate_state(evolved, d), evolved))
        assert val == pytest.approx(ref, abs=1e-8)


def test_translated_packet_is_phase_shifted_in_momentum(line):
    # sanity on the translation itself: probability profile moves rigidly
    moved = translate_state(line, _shift(line, 16))
    assert x_width(moved) == pytest.approx(x_width(line), rel=1e-12)
    assert abs(inner_product(moved, line)) < 1.0

import numpy as np
import pytest

from conftest import line_state, two_branch_state, x_width
from oracles import (
    free_gaussian_width,
    newtonian_drop,
    perihelion_advance_epicyclic,
    perihelion_advance_weak_field,
)
from qlif.dynamics import (
    GeodesicState,
    evolve_free,
    geodesic_superposition,
    integrate_geodesic,
    local_frame_velocity,
    timelike_velocity,
    translation_covariance_check,
    velocity_norm,
)
from qlif.errors import OffGridTranslation
from qlif.qrf import to_qlif
from qlif.qstate import GridSpec, inner_product, state_norm, translate_state
from qlif.spacetime import FdConfig, FourVector, Minkowski, Schwarzschild, WeakFieldPointMass


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


def test_unnormalized_initial_velocity_rejected(units):
    mink = Minkowski(units)
    bad = GeodesicState(FourVector(0, 0, 0, 0), FourVector(1.0, 0.5, 0, 0), 0.0)
    with pytest.raises(ValueError):
        integrate_geodesic(mink, bad, 0.1, 1)


def test_weak_field_drop_matches_newtonian(units):
    # released from rest at z0; depth grows as g t^2 / 2 with g = GM/z0^2
    mass, z0 = 3e-7, 1.0
    wf = WeakFieldPointMass(units, mass=mass, soft=1e-6, center=(0, 0, 0))
    g_newton = mass / z0**2
    fall_time = np.sqrt(2.0 * 1e-6 * z0 / g_newton)
    x0 = FourVector(0.0, 0.0, 0.0, z0)
    u0 = timelike_velocity(wf, x0, (0.0, 0.0, 0.0))
    traj = integrate_geodesic(
        wf,
        GeodesicState(x0, u0, 0.0),
        fall_time / 400,
        400,
        fd=FdConfig(step=0.01, richardson=False),
    )
    assert traj.completed
    worst = 0.0
    for st in traj.states[1:]:
        t_coord = st.x.t / units.c
        depth_oracle = z0 - newtonian_drop(z0, g_newton, t_coord)
        depth_num = z0 - st.x.z
        if depth_oracle > 0.0:
            worst = max(worst, abs(depth_num - depth_oracle) / depth_oracle)
    assert worst < 1e-5


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
        g = sch.eval_batch(st.x.array[None, :])[0]
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


def test_partial_trajectory_on_singularity(units):
    # infalling radial plunge hits the horizon margin mid-run
    sch = Schwarzschild(units, mass=1.0)
    x0 = FourVector(0.0, 3.0, np.pi / 2, 0.0)
    u0 = timelike_velocity(sch, x0, (-0.5, 0.0, 0.0))
    traj = integrate_geodesic(sch, GeodesicState(x0, u0, 0.0), 0.05, 200)
    assert not traj.completed
    assert 0 < len(traj.states) < 201
    assert traj.error is not None


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

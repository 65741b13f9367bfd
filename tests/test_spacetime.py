import dataclasses

import numpy as np
import pytest

from oracles import det_sqrt_neg_g, fd_christoffel, metric_matrices, schwarzschild_christoffel
from conftest import diagonal_cases, random_point
from qlif.dynamics import timelike_velocity
from qlif.errors import SingularRegion
from qlif.spacetime import (
    ETA_DIAGONAL,
    METRIC_KINDS,
    FourVector,
    MetricField,
    Minkowski,
    Schwarzschild,
    UnitSystem,
    WeakFieldPointMass,
    christoffel,
    metric_from_dict,
    sqrt_neg_det_batch,
    sqrt_neg_det_diagonal,
)


def det_sqrt(field, x):
    """sqrt(-g) at one point, read through ``diagonal_at`` (which checks the singular set)."""
    return float(sqrt_neg_det_diagonal(field.diagonal_at(x)[None, :])[0])


def test_fourvector_rejects_nonfinite():
    with pytest.raises(ValueError):
        FourVector(0.0, np.nan, 0.0, 0.0)
    with pytest.raises(ValueError):
        FourVector.from_array([0.0, np.inf, 0.0, 0.0])


def test_unit_system_presets():
    g = UnitSystem.geometric()
    assert (g.c, g.G, g.hbar) == (1.0, 1.0, 1.0)
    si = UnitSystem.si()
    assert si.c == 299792458.0
    with pytest.raises(ValueError):
        UnitSystem(c=-1.0, G=1.0, hbar=1.0)


def test_minkowski_is_flat(units):
    x = FourVector(0.2, 1.0, -2.0, 3.0)
    assert np.array_equal(Minkowski(units).diagonal_at(x), ETA_DIAGONAL)
    assert det_sqrt(Minkowski(units), x) == 1.0
    assert np.all(christoffel(Minkowski(units), x) == 0.0)


def test_weak_field_asymptotic_flatness(units):
    wf = WeakFieldPointMass(units, mass=1e-6, soft=1e-3)
    far = FourVector(0.0, 1e9, 0.0, 0.0)
    assert np.max(np.abs(wf.diagonal_at(far) - ETA_DIAGONAL)) < 1e-12


def test_weak_field_label_formats_plain_floats(units):
    # numpy scalars must not leak their repr (np.float64(...)) into the labels reports print
    wf = WeakFieldPointMass(units, np.float64(1e-6), 1e-3, np.array([-1.5, 0, 0]))
    assert wf.label == "weak_field_point_mass(mass=1e-06,soft=0.001,center=(-1.5,0.0,0.0))"


def test_signed_zero_center_has_one_label(units):
    a = WeakFieldPointMass(units, 1.0, 1.0, (-0.0, 0.0, -0.0))
    b = WeakFieldPointMass(units, 1.0, 1.0, (0.0, 0.0, 0.0))
    assert a == b and a.label == b.label == "weak_field_point_mass(mass=1.0,soft=1.0,center=(0.0,0.0,0.0))"


def test_labels_of_every_kind(units):
    assert Minkowski(units).label == "minkowski"
    assert WeakFieldPointMass(units, 2, 0.5).label == "weak_field_point_mass(mass=2.0,soft=0.5,center=(0.0,0.0,0.0))"
    assert Schwarzschild(units, mass=1).label == "schwarzschild(mass=1.0)"


def test_metrics_are_values(units):
    a = WeakFieldPointMass(units, 1, 1e-3, [0.5, 0, 0])
    b = WeakFieldPointMass(units, 1.0, 1e-3, (0.5, 0.0, 0.0))
    assert a == b and hash(a) == hash(b)
    assert a.center == (0.5, 0.0, 0.0) and type(a.mass) is float
    assert a != WeakFieldPointMass(UnitSystem(c=2.0, G=1.0, hbar=1.0), 1.0, 1e-3, (0.5, 0.0, 0.0))
    assert Schwarzschild(units, 1.0) != WeakFieldPointMass(units, 1.0, 1.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        a.mass = 2.0
    for bad in (
        {"mass": 0.0, "soft": 1.0},
        {"mass": 1.0, "soft": -1.0},
        {"mass": 1.0, "soft": 1.0, "center": (0, 1)},
        {"mass": np.inf, "soft": 1.0},
        {"mass": 1.0, "soft": np.nan},
        {"mass": 1.0, "soft": 1.0, "center": (0, np.inf, 0)},
    ):
        with pytest.raises(ValueError):
            WeakFieldPointMass(units, **bad)
    assert Schwarzschild(units, mass=3.0).r_s == 6.0


def test_weak_field_metric_components(units):
    wf = WeakFieldPointMass(units, mass=1e-5, soft=1e-4, center=(0.5, 0.0, 0.0))
    x = FourVector(0.0, 2.0, 1.0, -0.7)
    d = wf.diagonal_at(x)
    r = np.linalg.norm(x.array[1:] - np.array([0.5, 0.0, 0.0]))
    phi = -1e-5 / np.sqrt(r**2 + (1e-4) ** 2)
    assert d[0] == pytest.approx(-(1.0 + 2.0 * phi), abs=1e-15)
    for i in (1, 2, 3):
        assert d[i] == pytest.approx(1.0 - 2.0 * phi, abs=1e-15)


def test_weak_field_det_closed_form(units):
    wf = WeakFieldPointMass(units, mass=1e-5, soft=1e-4)
    x = FourVector(0.0, 1.3, -0.4, 0.9)
    phi = wf.potential(x.array[None, :])[0]
    expected = (1.0 - 2.0 * phi) ** 1.5 * (1.0 + 2.0 * phi) ** 0.5
    assert det_sqrt(wf, x) == pytest.approx(expected, rel=1e-12)


def test_schwarzschild_line_element(units):
    sch = Schwarzschild(units, mass=1.0)
    # r = 10 * 2GM/c^2: g_00 = -(1 - 0.1)
    x = FourVector(0.0, 10.0 * sch.r_s, 1.1, 0.4)
    d = sch.diagonal_at(x)
    assert d[0] == pytest.approx(-0.9, rel=1e-14)
    assert d[1] == pytest.approx(1.0 / 0.9, rel=1e-14)
    assert d[2] == pytest.approx(x.x**2, rel=1e-14)
    assert d[3] == pytest.approx(x.x**2 * np.sin(1.1) ** 2, rel=1e-14)


def test_schwarzschild_det_includes_spherical_factor(units):
    sch = Schwarzschild(units, mass=1.0)
    # r = 4GM/c^2 = 2 r_s in the spherical chart: sqrt(-g) = r^2 sin(theta)
    r, th = 2.0 * sch.r_s, 0.8
    x = FourVector(0.0, r, th, 2.0)
    assert det_sqrt(sch, x) == pytest.approx(r**2 * np.sin(th), rel=1e-12)


def test_lorentzian_signature_everywhere(catalog):
    rng = np.random.default_rng(42)
    for field in catalog.values():
        for _ in range(100):
            g = metric_matrices(field, random_point(field, rng).array[None, :])[0]
            w = np.linalg.eigvalsh(g)
            assert np.count_nonzero(w < 0) == 1
            assert np.linalg.det(g) < 0


def test_fd_christoffel_matches_analytic_table(units):
    sch = Schwarzschild(units, mass=1.0)
    rng = np.random.default_rng(3)
    for _ in range(5):
        x = FourVector(0.0, rng.uniform(5.0, 15.0), rng.uniform(0.7, 2.4), rng.uniform(0, 2 * np.pi))
        gam_fd = fd_christoffel(sch, x, rel_step=6e-3)
        gam_oracle = schwarzschild_christoffel(sch.r_s, x.x, x.y)
        assert np.max(np.abs(gam_fd - gam_oracle)) < 1e-8


def test_analytic_fast_path_matches_table(units):
    sch = Schwarzschild(units, mass=2.5)
    x = FourVector(0.0, 31.0, 1.3, 4.0)
    gam = christoffel(sch, x)
    assert np.max(np.abs(gam - schwarzschild_christoffel(sch.r_s, 31.0, 1.3))) < 1e-15


def test_weak_field_gamma_i00_is_potential_gradient(units):
    wf = WeakFieldPointMass(units, mass=1e-7, soft=1e-6)
    for spatial in ([1.8, 0.4, -0.6], [2.5, -1.0, 0.8], [0.0, 0.0, 2.2]):
        x = FourVector(0.0, *spatial)
        gam = christoffel(wf, x)
        grad = wf.potential_gradient(x.array[None, :])[0] / units.c**2
        rel = np.linalg.norm(gam[1:, 0, 0] - grad) / np.linalg.norm(grad)
        assert rel < 1e-6


def test_christoffel_lower_index_symmetry_is_exact(units, catalog):
    rng = np.random.default_rng(11)
    for field in catalog.values():
        x = random_point(field, rng)
        gam = christoffel(field, x)
        assert np.array_equal(gam, gam.transpose(0, 2, 1))


def test_fd_convergence_is_fourth_order(units):
    sch = Schwarzschild(units, mass=1.0)
    x = FourVector(0.0, 16.0, 1.0, 0.5)
    oracle = schwarzschild_christoffel(sch.r_s, 16.0, 1.0)

    def err(h):
        gam = fd_christoffel(sch, x, step=h)
        return np.max(np.abs(gam - oracle))

    ratio = err(0.8) / err(0.4)
    assert 8.0 < ratio < 32.0  # 16x within a factor of 2


def test_singular_region(units):
    sch = Schwarzschild(units, mass=1.0)
    with pytest.raises(SingularRegion):
        sch.diagonal_at(FourVector(0.0, 0.5 * sch.r_s, 1.0, 0.0))
    with pytest.raises(SingularRegion):
        sch.diagonal_at(FourVector(0.0, sch.r_s * (1.0 + 1e-12), 1.0, 0.0))
    with pytest.raises(SingularRegion):  # polar axis
        sch.diagonal_at(FourVector(0.0, 10.0, 0.0, 0.0))
    deep = WeakFieldPointMass(units, mass=1.0, soft=1e-4)
    with pytest.raises(SingularRegion):  # potential deep enough to flip the signature
        deep.diagonal_at(FourVector(0.0, 1e-3, 0.0, 0.0))


def test_christoffel_raises_in_the_singular_set(units):
    # Minkowski has no singular set; each other kind is probed inside its own
    sch = Schwarzschild(units, mass=1.0)
    deep = WeakFieldPointMass(units, mass=1.0, soft=1e-4)
    for field, x in (
        (sch, FourVector(0.0, 0.5 * sch.r_s, 1.0, 0.0)),
        (sch, FourVector(0.0, 10.0, 0.0, 0.0)),
        (deep, FourVector(0.0, 1e-3, 0.0, 0.0)),
    ):
        with pytest.raises(SingularRegion):
            christoffel(field, x)


def test_every_kind_has_its_own_analytic_christoffels():
    for cls in METRIC_KINDS.values():
        assert "christoffel_batch" in cls.__dict__, cls.kind


def test_every_kind_has_its_own_geodesic_acceleration_and_angular_momentum():
    for cls in METRIC_KINDS.values():
        assert "geodesic_acceleration" in cls.__dict__, cls.kind
        assert "angular_momentum" in cls.__dict__, cls.kind


def _contraction(gam, u):
    """-Gamma^m_nr u^n u^r, and the sum of its terms' magnitudes (the scale of its rounding)."""
    return -np.einsum("mnr,n,r->m", gam, u, u), np.einsum("mnr,n,r->m", np.abs(gam), np.abs(u), np.abs(u))


def test_geodesic_acceleration_matches_the_christoffel_contraction(catalog):
    rng = np.random.default_rng(11)
    for field in catalog.values():
        accel = field.geodesic_acceleration()
        for _ in range(50):
            x = random_point(field, rng)
            u = timelike_velocity(field, x, rng.uniform(-0.05, 0.05, 3)).array
            want, scale = _contraction(field.christoffel_batch(x.array[None, :])[0], u)
            got = np.array(accel(*x.array, *u))
            assert np.all(np.abs(got - want) <= 1e-14 * scale), field.kind
            if field.kind != "weak_field_point_mass":  # summed in the contraction's order
                assert np.array_equal(got, want), field.kind


def test_weak_field_acceleration_matches_fd_oracle(units):
    wf = WeakFieldPointMass(units, mass=2e-2, soft=0.2, center=(0.3, -0.2, 0.1))
    accel = wf.geodesic_acceleration()
    rng = np.random.default_rng(12)
    for _ in range(50):
        x = random_point(wf, rng)
        u = timelike_velocity(wf, x, rng.uniform(-0.3, 0.3, 3)).array
        want, _ = _contraction(fd_christoffel(wf, x, step=1e-3), u)
        assert np.max(np.abs(np.array(accel(*x.array, *u)) - want)) < 1e-9 * np.max(np.abs(want))


def test_geodesic_acceleration_raises_in_the_singular_set(units):
    sch = Schwarzschild(units, mass=1.0)
    deep = WeakFieldPointMass(units, mass=1.0, soft=1e-4)
    u = (1.0, 0.0, 0.0, 0.0)
    for field, x in (
        (sch, FourVector(0.0, 0.5 * sch.r_s, 1.0, 0.0)),
        (sch, FourVector(0.0, 10.0, 0.0, 0.0)),
        (deep, FourVector(0.0, 1e-3, 0.0, 0.0)),
    ):
        with pytest.raises(SingularRegion) as from_mask:
            field.require_valid(x.array[None, :])
        with pytest.raises(SingularRegion) as from_accel:
            field.geodesic_acceleration()(*x.array, *u)
        assert str(from_accel.value) == str(from_mask.value)


def test_diagonal_at_is_the_batch_row_bit_for_bit(catalog):
    rng = np.random.default_rng(67)
    for field, points in diagonal_cases(catalog, rng, 100):
        for x in map(FourVector.from_array, points):
            assert field.diagonal_at(x).tobytes() == field.diagonal_batch(x.array[None, :])[0].tobytes(), field.label


def test_every_kind_defines_only_its_diagonal():
    for cls in METRIC_KINDS.values():
        assert "diagonal_batch" in cls.__dict__, cls.kind
    assert not hasattr(MetricField, "eval_batch")


def test_weak_field_christoffel_matches_fd_oracle(units):
    # mass 2e-2: a 1e-6 field would lose its digits to differencing 1 +- 1e-6
    wf = WeakFieldPointMass(units, mass=2e-2, soft=0.2, center=(0.3, -0.2, 0.1))
    rng = np.random.default_rng(8)
    for _ in range(5):
        x = random_point(wf, rng)
        gam = christoffel(wf, x)
        oracle = fd_christoffel(wf, x, step=1e-3)
        assert np.max(np.abs(gam - oracle)) < 1e-9 * np.max(np.abs(oracle))


def test_metric_round_trip_via_describe(units, catalog):
    for field in catalog.values():
        clone = metric_from_dict(field.describe(), units)
        assert clone == field and clone.label == field.label
    with pytest.raises(ValueError):
        metric_from_dict({"kind": "schwarzschild", "mass": 1.0, "spin": 0.5}, units)
    with pytest.raises(ValueError):
        metric_from_dict({"kind": "kerr", "mass": 1.0}, units)
    with pytest.raises(ValueError, match="mapping"):
        metric_from_dict(5, units)


def test_measure_matches_the_det_route_within_4_ulp(units, catalog):
    rng = np.random.default_rng(43)
    fields = [*catalog.values(), WeakFieldPointMass(units, mass=0.3, soft=0.1), Schwarzschild(units, mass=1e-3)]
    for field in fields:
        pts = np.array([random_point(field, rng).array for _ in range(500)])
        pts = pts[field.valid_mask(pts)]
        got = sqrt_neg_det_batch(field, pts)
        want = det_sqrt_neg_g(metric_matrices(field, pts))
        assert np.all(np.abs(got - want) <= 4 * np.spacing(want)), field.label
        assert det_sqrt(field, FourVector.from_array(pts[0])) == got[0]

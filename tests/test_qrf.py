import tracemalloc

import numpy as np
import pytest

from conftest import derived_b_xi, two_branch_state
from oracles import grid_mesh, grid_points, loop_qlif_metric_rows, matmul_certificate, metric_matrices
from qlif import qrf
from qlif.errors import DegenerateMetric, MissingSourceMetric, SingularRegion, WrongFrame
from qlif.qrf import QrfTransformReport, _heaviest, check_qlif_metric, from_qlif, to_qlif
from qlif.qstate import (
    Branch,
    Frame,
    GridSpec,
    branch_sqrt_neg_det,
    gaussian_psi,
    inner_product,
    load_state,
    make_state,
    metric_on_grid,
    save_state,
    state_norm,
)
from qlif.spacetime import FourVector, Minkowski, Schwarzschild, WeakFieldPointMass
from qlif.tetrad import build_tetrad


def test_report_rejects_bad_fields():
    with pytest.raises(ValueError):
        QrfTransformReport(norm_before=1.0, norm_after=-0.1, max_metric_deviation_at_origin=0.0, roundtrip_error=0.0)


def test_minkowski_branch_is_relational_relabeling(units):
    grid = GridSpec(lo=(-3, -3, -3), hi=(3, 3, 3), n=(19, 19, 19))
    mass_pos = FourVector(0.0, 0.8, -0.2, 0.4)
    s = make_state(
        [Branch(1.0, "M", mass_pos, Minkowski(units), gaussian_psi(grid, (0.3, 0, 0), 0.6))],
        grid,
    )
    out, report = to_qlif(s)
    assert out.frame == Frame.P
    # flat metric: measure factor 1, so psi'(y) = psi(-y) exactly
    psi_in = np.asarray(s.branches[0].psi)
    psi_out = np.asarray(out.branches[0].psi)
    assert np.array_equal(psi_out, psi_in[::-1, ::-1, ::-1])
    # mass local coordinate is mass_position - x at every grid point (b = identity)
    _, xi = derived_b_xi(out.branches[0], out.grid.negated())
    expected_xi = mass_pos.array[None, :] - grid_points(grid)
    assert np.max(np.abs(xi - expected_xi)) == 0.0
    # metric register is flat
    assert out.branches[0].metric.label == "minkowski"
    assert abs(report.norm_after - report.norm_before) < 1e-12
    assert report.max_metric_deviation_at_origin < 1e-12


def test_two_branch_weak_field_qlif_deviation(units):
    s = two_branch_state(units)
    out, report = to_qlif(s)
    assert report.max_metric_deviation_at_origin < 1e-10
    assert len(report.branches) == 2
    for rec in report.branches:
        assert rec.max_metric_deviation_at_origin < 1e-10  # both branches simultaneously
    assert report.norm_before == pytest.approx(1.0, abs=1e-10)
    assert report.norm_after == pytest.approx(1.0, abs=1e-8)


def test_round_trip_many_random_states(units):
    rng = np.random.default_rng(101)
    for _ in range(20):
        s = two_branch_state(units, rng=rng)
        out, report = to_qlif(s)
        back = from_qlif(out)
        assert abs(inner_product(s, back) - 1.0) < 1e-8
        assert report.roundtrip_error < 1e-8


def test_unitarity_inner_products_preserved(units):
    rng = np.random.default_rng(55)
    states = [two_branch_state(units, rng=rng) for _ in range(6)]
    transformed = [to_qlif(s)[0] for s in states]
    for i in range(len(states)):
        for j in range(i, len(states)):
            lhs = inner_product(transformed[i], transformed[j])
            rhs = inner_product(states[i], states[j])
            assert abs(lhs - rhs) < 1e-8


def test_norms_preserved_both_directions(units):
    rng = np.random.default_rng(77)
    s = two_branch_state(units, rng=rng)
    out, _ = to_qlif(s)
    assert abs(state_norm(out) - state_norm(s)) < 1e-10
    back = from_qlif(out)
    assert abs(state_norm(back) - state_norm(out)) < 1e-10


def test_single_branch_matches_classical_tetrad_map(units):
    grid = GridSpec(lo=(-2, -2, -2), hi=(2, 2, 2), n=(13, 13, 13))
    s = two_branch_state(units, grid=grid)
    single = make_state([s.branches[0]], grid, units=units)
    out, _ = to_qlif(single)
    assert out.branches[0].source_metric is single.branches[0].metric
    b, xi_all = derived_b_xi(out.branches[0], out.grid.negated())
    field = single.branches[0].metric
    mass_pos = single.branches[0].mass_position
    pts = grid_points(grid)
    rng = np.random.default_rng(4)
    for p in rng.choice(pts.shape[0], size=60, replace=False):
        # the classical tetrad map xi = b (x_S - x), b as a matrix
        b_p, _ = build_tetrad(field, FourVector.from_array(pts[p]))
        xi = np.diag(b_p) @ (mass_pos.array - pts[p])
        assert np.max(np.abs(b[p] - b_p)) < 1e-12
        assert np.max(np.abs(xi_all[p] - xi)) < 1e-12


def test_transform_never_mixes_branches(units):
    grid = GridSpec(lo=(-3, -3, -3), hi=(3, 3, 3), n=(15, 15, 15))
    s = two_branch_state(units, grid=grid)
    # states supported on a single (different) branch each stay orthogonal
    only_l = make_state([s.branches[0]], grid, units=units)
    only_r = make_state([s.branches[1]], grid, units=units)
    tl, _ = to_qlif(only_l)
    tr, _ = to_qlif(only_r)
    assert inner_product(tl, tr) == 0j
    # and the transformed two-branch state keeps its branch keys
    out, _ = to_qlif(s)
    assert [b.key for b in out.branches] == [b.key for b in s.branches]


def test_relational_amplitude_profile(units):
    s = two_branch_state(units)
    out, _ = to_qlif(s)
    for b_in, b_out in zip(s.branches, out.branches):
        lhs = np.abs(np.asarray(b_out.psi)[::-1, ::-1, ::-1])
        rhs = np.abs(b_in.psi) * np.sqrt(branch_sqrt_neg_det(b_in, s.grid))
        assert np.max(np.abs(lhs - rhs)) < 1e-15


def test_check_qlif_metric_flat_branch_zero(units):
    grid = GridSpec(lo=(-2, -2, -2), hi=(2, 2, 2), n=(9, 9, 9))
    s = make_state(
        [Branch(1.0, "M", FourVector(0, 0, 0, 0), Minkowski(units), gaussian_psi(grid, (0, 0, 0), 0.5))],
        grid,
    )
    out, _ = to_qlif(s)
    for radius in (0.0, 0.1, 1.0):
        rows = check_qlif_metric(out, radius)
        assert rows[0].max_deviation == 0.0


def test_check_qlif_metric_linear_growth(units):
    s = two_branch_state(units, mass=1e-4)
    out, _ = to_qlif(s)
    at_origin = check_qlif_metric(out, 0.0)
    for row in at_origin:
        assert row.max_deviation < 1e-10
    r1 = check_qlif_metric(out, 0.05)
    r2 = check_qlif_metric(out, 0.10)
    for a, b in zip(r1, r2):
        assert a.max_deviation > 0.0
        assert b.max_deviation / a.max_deviation == pytest.approx(2.0, rel=0.2)


@pytest.mark.parametrize("radius", [np.nan, np.inf, -0.1])
def test_check_qlif_metric_rejects_a_radius_that_is_not_finite_and_non_negative(units, radius):
    out, _ = to_qlif(two_branch_state(units))
    with pytest.raises(ValueError, match="radius"):
        check_qlif_metric(out, radius)


def test_wrong_frame_rejected(units):
    s = two_branch_state(units)
    out, _ = to_qlif(s)
    with pytest.raises(WrongFrame):
        to_qlif(out)
    with pytest.raises(WrongFrame):
        from_qlif(s)
    with pytest.raises(WrongFrame):
        check_qlif_metric(s, 0.1)


def test_reloaded_state_inverts(units, tmp_path):
    # the container keeps each branch's source metric, so the transform
    # stays invertible across save_state / load_state
    s = two_branch_state(units, rng=np.random.default_rng(21))
    out, _ = to_qlif(s)
    path = tmp_path / "p.qst"
    save_state(out, path)
    reloaded = load_state(path)
    assert [b.source_metric for b in reloaded.branches] == [b.metric for b in s.branches]
    assert [b.key for b in reloaded.branches] == [b.key for b in s.branches]
    assert abs(inner_product(s, from_qlif(reloaded)) - 1.0) < 1e-8
    for radius in (0.0, 0.05):
        assert check_qlif_metric(reloaded, radius) == check_qlif_metric(out, radius)


def test_p_frame_branch_built_by_hand_cannot_invert(units):
    grid = GridSpec(lo=(-2, -2, -2), hi=(2, 2, 2), n=(9, 9, 9))
    psi = gaussian_psi(grid, (0, 0, 0), 0.5)
    s = make_state([Branch(1.0, "M", FourVector(0, 0, 0, 0), Minkowski(units), psi)], grid, frame=Frame.P)
    with pytest.raises(MissingSourceMetric):
        from_qlif(s)
    with pytest.raises(MissingSourceMetric):
        check_qlif_metric(s, 0.1)


def _first_singular_support_point(s):
    b = s.branches[0]
    pts = grid_points(s.grid)
    bad = (b.psi.reshape(-1) != 0) & ~b.metric.valid_mask(pts)
    return f"branch {b.key}: support point {pts[np.argmax(bad)].tolist()} is in the singular set of {b.metric.label}"


def test_singular_support_rejected(units):
    # spherical-chart grid straddling the horizon with a wavefunction that
    # is nonzero there
    sch = Schwarzschild(units, mass=1.0)
    grid = GridSpec(lo=(1.0, 0.6, 0.1), hi=(8.0, 2.5, 5.0), n=(15, 7, 7))
    psi = gaussian_psi(grid, (5.0, 1.5, 2.5), 1.0)
    s = make_state([Branch(1.0, "S", FourVector(0, 5.0, 1.5, 2.5), sch, psi)], grid)
    with pytest.raises(SingularRegion) as err:
        to_qlif(s)
    assert str(err.value) == _first_singular_support_point(s)
    # a weak field deep enough to lose its signature (|2 Phi/c^2| >= 1) at the packet
    deep = WeakFieldPointMass(units, mass=0.3, soft=0.1)
    grid = GridSpec(lo=(-3, -3, -3), hi=(3, 3, 3), n=(13, 13, 13))
    s = make_state([Branch(1.0, "D", FourVector(0, 0, 0, 0), deep, gaussian_psi(grid, (0, 0, 0), 0.5))], grid)
    with pytest.raises(SingularRegion) as err:
        to_qlif(s)
    assert str(err.value) == _first_singular_support_point(s)


def test_round_trip_with_singular_points_on_the_grid(units):
    # the grid straddles the horizon; psi is exactly 0 on every invalid point
    sch = Schwarzschild(units, mass=1.0)
    grid = GridSpec(lo=(1.0, 0.6, 0.1), hi=(8.0, 2.5, 5.0), n=(15, 7, 7))
    valid = sch.valid_mask(grid_points(grid)).reshape(grid.shape)
    assert not np.all(valid)
    psi = np.where(valid, gaussian_psi(grid, (5.0, 1.5, 2.5), 1.0), 0.0)
    s = make_state([Branch(1.0, "S", FourVector(0, 5.0, 1.5, 2.5), sch, psi)], grid)
    out, report = to_qlif(s)
    back = from_qlif(out)
    psi_back = np.asarray(back.branches[0].psi)
    assert np.all(np.isfinite(psi_back))
    assert np.all(psi_back[~valid] == 0.0)
    assert abs(inner_product(s, back) - 1.0) < 1e-8
    assert report.roundtrip_error < 1e-8


def _schwarzschild_state(units):
    sch = Schwarzschild(units, mass=1.0)
    grid = GridSpec(lo=(4.0, 0.8, 0.5), hi=(10.0, 2.2, 4.5), n=(13, 7, 7))
    psi = gaussian_psi(grid, (7.0, 1.5, 2.5), 0.8)
    return make_state([Branch(1.0, "S", FourVector(0, 7.0, 1.5, 2.5), sch, psi)], grid)


def _minkowski_state(units):
    grid = GridSpec(lo=(-3, -3, -3), hi=(3, 3, 3), n=(11, 11, 11))
    psi = gaussian_psi(grid, (0.3, 0, 0), 0.6)
    return make_state([Branch(1.0, "M", FourVector(0, 0.8, -0.2, 0.4), Minkowski(units), psi)], grid)


def _boxed_state(metric, grid, center, sigma, zero, singular_points=False):
    """One branch of ``metric`` whose psi is 0 where ``zero(xx, yy, zz)`` holds."""
    assert (not np.all(metric.valid_mask(grid_points(grid)))) == singular_points
    psi = gaussian_psi(grid, center, sigma)
    psi[zero(*grid_mesh(grid))] = 0.0
    return make_state([Branch(1.0, "M", FourVector(0, *center), metric, psi)], grid)


_CUBE = GridSpec(lo=(-3, -3, -3), hi=(3, 3, 3), n=(15, 15, 15))


def _weak_field_sub_box(units):
    metric = WeakFieldPointMass(units, mass=1e-4, soft=1e-3, center=(0.5, 0.0, 0.0))
    return _boxed_state(metric, _CUBE, (0.2, 0.1, 0.0), 0.9, lambda x, y, z: (x > 0.5) & (np.abs(y) < 1.5))


def _weak_field_singular_centre(units):
    metric = WeakFieldPointMass(units, mass=0.3, soft=0.1)  # loses its signature near the centre
    box = lambda x, y, z: (np.abs(x) < 1.2) & (np.abs(y) < 1.2) & (np.abs(z) < 1.2)  # noqa: E731
    return _boxed_state(metric, _CUBE, (1.5, 0.0, 0.0), 0.9, box, singular_points=True)


def _schwarzschild_sub_box(units):
    grid = GridSpec(lo=(4.0, 0.8, 0.5), hi=(10.0, 2.2, 4.5), n=(13, 7, 7))
    box = lambda r, th, ph: (r > 8.0) | (th < 1.0)  # noqa: E731
    return _boxed_state(Schwarzschild(units, mass=1.0), grid, (7.0, 1.5, 2.5), 0.8, box)


def _schwarzschild_through_horizon_and_pole(units):
    grid = GridSpec(lo=(1.0, 0.0, 0.5), hi=(9.0, 2.0, 4.5), n=(17, 9, 7))
    box = lambda r, th, ph: (r < 4.0) | (th < 0.7)  # noqa: E731
    return _boxed_state(Schwarzschild(units, mass=1.0), grid, (6.0, 1.4, 2.5), 1.0, box, singular_points=True)


@pytest.mark.parametrize(
    "make",
    [
        two_branch_state,
        _schwarzschild_state,
        _minkowski_state,
        _weak_field_sub_box,
        _weak_field_singular_centre,
        _schwarzschild_sub_box,
        _schwarzschild_through_horizon_and_pole,
    ],
)
def test_certificate_equals_the_matmul_route_bit_for_bit(units, make):
    # the certificate covers the support only: singular points elsewhere do not raise
    s = make(units)
    _, report = to_qlif(s)
    pts = grid_points(s.grid)
    for branch, rec in zip(s.branches, report.branches):
        support = np.asarray(branch.psi).reshape(-1) != 0
        assert not np.any(support & ~branch.metric.valid_mask(pts))
        g = metric_matrices(branch.metric, pts[support])
        assert rec.max_metric_deviation_at_origin == matmul_certificate(g)
        if isinstance(branch.metric, Schwarzschild):
            # r^2 sin^2(theta) < r^2: the oracle's eigh frame swaps the two angular
            # slots that the chart-aligned frame keeps, and the max is the same
            d = np.diagonal(g, axis1=1, axis2=2)
            assert np.all(np.argsort(d, axis=1, kind="stable")[:, 2:] == [3, 2])


def test_degenerate_support_point_raises_with_the_spectrum_message(units):
    # r^2 sin^2(theta) < 1e-12 at theta = 1.5e-6, r < 0.67: valid (|sin| > 1e-6) but without a frame
    sch = Schwarzschild(units, mass=0.01)
    grid = GridSpec(lo=(0.4, 1.5e-6, 0.5), hi=(0.6, 1.0, 1.5), n=(5, 5, 5))
    s = _boxed_state(sch, grid, (0.5, 0.5, 1.0), 0.5, lambda r, th, ph: np.zeros(r.shape, bool))
    pts = grid_points(grid)
    d = sch.diagonal_batch(pts)
    assert np.all(sch.valid_mask(pts)) and np.any(np.abs(d) < 1e-12)
    with pytest.raises(DegenerateMetric) as exc:
        to_qlif(s)
    assert str(exc.value) == f"metric eigenvalue magnitude below 1e-12 (min {np.min(np.abs(d)):.3e})"
    # the same points outside the support are never read
    s = _boxed_state(sch, grid, (0.5, 0.5, 1.0), 0.5, lambda r, th, ph: th < 1e-3)
    _, report = to_qlif(s)
    assert np.isinf(metric_on_grid(sch, grid).deviation).any()
    assert report.max_metric_deviation_at_origin < 1e-10


def test_to_qlif_on_a_warm_cache_evaluates_no_source_metric(units, monkeypatch):
    s = two_branch_state(units)

    def no_eval(*args, **kwargs):
        raise AssertionError("source metric evaluated")

    monkeypatch.setattr(WeakFieldPointMass, "diagonal_batch", no_eval)
    monkeypatch.setattr(WeakFieldPointMass, "valid_mask", no_eval)
    out, report = to_qlif(s)
    assert report.roundtrip_error < 1e-8


@pytest.mark.parametrize("make", [two_branch_state, _schwarzschild_state, _minkowski_state])
def test_check_qlif_metric_rows_equal_the_loop_route_bit_for_bit(units, make):
    out, _ = to_qlif(make(units))
    for radius in (0.0, 0.05, 0.1, 6.0):  # at 6.0 some Schwarzschild targets fall inside the horizon
        rows = [tuple(vars(r).values()) for r in check_qlif_metric(out, radius)]
        assert rows == loop_qlif_metric_rows(out, radius)


def _momentum_state(units):
    return two_branch_state(units, rng=np.random.default_rng(17))


def _three_branch_state(units):
    grid = GridSpec(lo=(-3, -3, -3), hi=(3, 3, 3), n=(15, 13, 11))
    branches = [
        Branch(
            complex(a, b),
            label,
            FourVector(0, x, 0, 0),
            WeakFieldPointMass(units, mass=1e-4, soft=1e-3, center=(x, 0, 0)),
            gaussian_psi(grid, (0.1 * x, 0.2, -0.3), 0.5 + 0.1 * x, momentum=(0.3, -0.2 * x, 0.1)),
        )
        for label, x, a, b in (("L", -1.0, 1.0, 0.5), ("C", 0.0, -0.4, 0.8), ("R", 1.0, 0.7, -0.2))
    ]
    return make_state(branches, grid, units=units)


@pytest.mark.parametrize(
    "make",
    [two_branch_state, _momentum_state, _three_branch_state, _schwarzschild_sub_box, _schwarzschild_through_horizon_and_pole],
)
def test_roundtrip_error_equals_the_inverse_state_route_bit_for_bit(units, make):
    s = make(units)
    out, report = to_qlif(s)
    assert report.roundtrip_error == abs(inner_product(s, from_qlif(out)) - 1.0)


def test_to_qlif_builds_no_inverse_state(units, monkeypatch):
    def no_inverse(*args, **kwargs):
        raise AssertionError("from_qlif called")

    monkeypatch.setattr(qrf, "from_qlif", no_inverse)
    _, report = to_qlif(_three_branch_state(units))
    assert report.roundtrip_error < 1e-8


def test_check_qlif_metric_takes_every_radius_in_one_call(units, monkeypatch):
    out, _ = to_qlif(_three_branch_state(units))
    assert check_qlif_metric(out, 0.05, 0.1) == check_qlif_metric(out, 0.05) + check_qlif_metric(out, 0.1)
    assert check_qlif_metric(out) == []
    # the anchors are chosen once per branch, whatever the number of radii
    calls = []
    monkeypatch.setattr(qrf, "_heaviest", lambda *a: calls.append(a) or _heaviest(*a))
    rows = check_qlif_metric(out, 0.0, 0.05, 0.1)
    assert len(calls) == len(out.branches)
    assert [(r.radius, r.mass_label) for r in rows] == [(r, b) for r in (0.0, 0.05, 0.1) for b in "LCR"]
    with pytest.raises(ValueError):
        check_qlif_metric(out, 0.05, np.nan)


def test_to_qlif_peak_memory_is_linear_in_the_grid(units):
    # with a warm measure cache the peak stays below 256 bytes a point;
    # one (N, 4, 4) float array alone takes 128
    n = 32
    s = two_branch_state(units, grid=GridSpec(lo=(-4, -4, -4), hi=(4, 4, 4), n=(n, n, n)))
    to_qlif(s)
    tracemalloc.start()
    try:
        to_qlif(s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n**3 * 256


def test_schwarzschild_support_outside_horizon_passes(units):
    out, report = to_qlif(_schwarzschild_state(units))
    assert report.max_metric_deviation_at_origin < 1e-10
    assert report.roundtrip_error < 1e-8


def test_sample_selection_keeps_stable_order_on_ties():
    rng = np.random.default_rng(5)
    weight = rng.choice([0.0, 0.25, 0.5, 1.0], size=4096)
    for k in (1, 7, 16, 600, np.count_nonzero(weight)):
        expected = np.argsort(-weight, kind="stable")[:k]
        assert np.array_equal(_heaviest(weight, k), expected)
    assert _heaviest(weight, 0).size == 0


def test_catalog_metrics_never_call_eigh(units, monkeypatch):
    # Every catalog metric is diagonal, so its tetrads need no eigh.
    def no_eigh(*args, **kwargs):
        raise AssertionError("eigh called on a catalog metric")

    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    for s in (two_branch_state(units, mass=1e-4), _schwarzschild_state(units)):
        out, report = to_qlif(s)
        assert report.max_metric_deviation_at_origin < 1e-10
        for row in check_qlif_metric(out, 0.05):
            assert row.max_deviation > 0.0

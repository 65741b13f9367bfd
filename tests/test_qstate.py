import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from conftest import two_branch_state
from oracles import (
    gaussian_translate_overlap,
    grid_points,
    matmul_deviation,
    meshgrid_gaussian_psi,
    metric_matrices,
    whole_grid_metric_on_grid,
)
from qlif.dynamics import branch_centroid
from qlif.errors import (
    BadContainer,
    GridMismatch,
    OffGridTranslation,
    WrongFrame,
    ZeroNorm,
)
from qlif.qrf import to_qlif
from qlif.qstate import (
    _BLOCK,
    FORMAT,
    Branch,
    Frame,
    GridSpec,
    _overlap_sum,
    branch_sqrt_neg_det,
    gaussian_psi,
    inner_product,
    load_state,
    make_state,
    metric_on_grid,
    save_state,
    state_norm,
    translate_state,
)
from qlif.spacetime import FourVector, Minkowski, UnitSystem, WeakFieldPointMass, sqrt_neg_det_batch


@pytest.fixture
def grid():
    return GridSpec(lo=(-4, -4, -4), hi=(4, 4, 4), n=(25, 25, 25))


def flat_branch(units, grid, label="A", center=(0, 0, 0), sigma=0.7, amplitude=1.0, momentum=None):
    return Branch(
        amplitude=amplitude,
        mass_label=label,
        mass_position=FourVector(0, 0, 0, 0),
        metric=Minkowski(units),
        psi=gaussian_psi(grid, center, sigma, momentum=momentum),
    )


def test_grid_spec_basics():
    g = GridSpec(lo=(-1, -2, 0), hi=(1, 2, 3), n=(5, 9, 4))
    assert g.spacing == (0.5, 0.5, 1.0)
    assert g.dvol == 0.25
    neg = g.negated()
    assert neg.lo == (-1.0, -2.0, -3.0) and neg.hi == (1.0, 2.0, 0.0)
    with pytest.raises(ValueError):
        GridSpec(lo=(0, 0, 0), hi=(1, 1, 1), n=(1, 4, 4))
    for bad in (np.inf, -np.inf, np.nan):
        with pytest.raises(ValueError, match="lo must be finite"):
            GridSpec(lo=(bad, 0, 0), hi=(1, 1, 1), n=(4, 4, 4))
        with pytest.raises(ValueError, match="hi must be finite"):
            GridSpec(lo=(0, 0, 0), hi=(1, bad, 1), n=(4, 4, 4))


def test_points4_at_equals_the_meshgrid_points_bit_for_bit():
    g = GridSpec(lo=(-1.3, -2, 0.1), hi=(1, 2.7, 3), n=(5, 9, 4), t0=0.75)
    pts = g.points4_at(np.arange(5 * 9 * 4))
    assert pts.shape == (5 * 9 * 4, 4)
    assert pts.tobytes() == grid_points(g).tobytes()


def test_two_branch_norm_and_amplitudes(units):
    s = two_branch_state(units)
    assert state_norm(s) == pytest.approx(1.0, abs=1e-8)
    assert sum(abs(b.amplitude) ** 2 for b in s.branches) == pytest.approx(1.0, abs=1e-10)
    assert abs(s.branches[0].amplitude) == pytest.approx(abs(s.branches[1].amplitude), rel=1e-9)


def test_single_branch_norm(units, grid):
    s = make_state([flat_branch(units, grid)], grid)
    assert state_norm(s) == pytest.approx(1.0, abs=1e-10)
    assert s.branches[0].amplitude == pytest.approx(1.0)


def test_two_amplitude_norm(units, grid):
    lam, mu = 0.6, 0.8  # |lam|^2 + |mu|^2 = 1
    s = make_state(
        [
            flat_branch(units, grid, "A", amplitude=lam),
            flat_branch(units, grid, "B", amplitude=mu, center=(1, 0, 0)),
        ],
        grid,
    )
    assert state_norm(s) == pytest.approx(1.0, abs=1e-8)
    # the raw discrete Gaussian norms differ at the grid-resolution level,
    # so the amplitudes survive only to that accuracy
    assert abs(s.branches[0].amplitude) == pytest.approx(lam, rel=1e-9)
    assert abs(s.branches[1].amplitude) == pytest.approx(mu, rel=1e-9)


def test_branch_measure_normalization(units, grid):
    s = two_branch_state(units)
    for b in s.branches:
        w = branch_sqrt_neg_det(b, s.grid)
        norm = np.sum(w * np.abs(b.psi) ** 2) * s.grid.dvol
        assert norm == pytest.approx(1.0, abs=1e-8)


def _weak_branch(units, grid):
    metric = WeakFieldPointMass(units, mass=1e-4, soft=1e-3, center=(0.5, 0.0, 0.0))
    return Branch(1.0, "M", FourVector(0, 0.5, 0, 0), metric, gaussian_psi(grid, (0, 0, 0), 0.7))


def test_measure_cache_shares_equal_metrics(units, grid):
    w1 = branch_sqrt_neg_det(_weak_branch(units, grid), grid)
    w2 = branch_sqrt_neg_det(_weak_branch(units, grid), grid)
    assert w2 is w1
    assert w1.shape == grid.shape and not w1.flags.writeable


def test_equal_metrics_built_separately_share_one_key_and_weight(units, grid):
    psi = gaussian_psi(grid, (0, 0, 0), 0.7)
    a = WeakFieldPointMass(units, mass=1, soft=1e-3, center=[0.5, 0, 0])
    b = WeakFieldPointMass(units, mass=1.0, soft=0.001, center=(0.5, 0.0, 0.0))
    assert a == b and hash(a) == hash(b) and a is not b
    ba = Branch(1.0, "M", FourVector(0, 0.5, 0, 0), a, psi)
    bb = Branch(1.0, "M", FourVector(0, 0.5, 0, 0), b, psi)
    assert ba.key == bb.key and hash(ba.key) == hash(bb.key)
    assert branch_sqrt_neg_det(bb, grid) is branch_sqrt_neg_det(ba, grid)
    assert metric_on_grid(b, grid) is metric_on_grid(a, grid)  # the certificate too
    assert inner_product(make_state([ba], grid), make_state([bb], grid)) == pytest.approx(1.0, abs=1e-12)


def test_different_units_give_unequal_keys(units, grid):
    other = UnitSystem(c=2.0, G=1.0, hbar=1.0)
    a = _weak_branch(units, grid)
    b = _weak_branch(other, grid)
    assert a.metric.label == b.metric.label  # the display form omits units
    assert a.key != b.key
    assert inner_product(make_state([a], grid), make_state([b], grid)) == 0j
    # a state holds metrics of its own units only, which its container records once
    with pytest.raises(ValueError, match="units"):
        make_state([b], grid, units=units)
    with pytest.raises(ValueError, match="units"):
        make_state([a, replace(b, mass_label="N")], grid)


def test_measure_cache_keys_on_units_and_grid(units, grid):
    metric = _weak_branch(units, grid).metric
    w, dev = metric_on_grid(metric, grid)
    other_units = UnitSystem(c=2.0, G=1.0, hbar=1.0)
    w_units, dev_units = metric_on_grid(_weak_branch(other_units, grid).metric, grid)
    assert w_units is not w and dev_units is not dev
    assert not np.array_equal(w_units, w)
    other_grid = GridSpec(lo=grid.lo, hi=grid.hi, n=(25, 25, 24))
    w_grid, dev_grid = metric_on_grid(metric, other_grid)
    assert w_grid is not w and dev_grid is not dev
    assert w_grid.shape == dev_grid.shape == other_grid.shape


def _grid_cases(units, catalog):
    """(metric, grid, whether the grid has singular points) for every catalog kind."""
    cube = GridSpec(lo=(-3, -3, -3), hi=(3, 3, 3), n=(13, 13, 13))
    return [
        (catalog["minkowski"], cube, False),
        (catalog["weak_field"], cube, False),
        (WeakFieldPointMass(units, mass=0.3, soft=0.1), cube, True),  # loses its signature near the centre
        (catalog["schwarzschild"], GridSpec(lo=(1.0, 0.6, 0.1), hi=(8.0, 2.5, 5.0), n=(15, 7, 7)), True),
        (catalog["schwarzschild"], GridSpec(lo=(2.0, 0.0, 0.0), hi=(9.0, np.pi, 6.0), n=(8, 9, 5)), True),  # poles
    ]


def test_measure_is_zero_exactly_on_the_singular_set(units, catalog):
    # to_qlif finds singular support points from the cached measure alone
    for metric, grid, has_singular_points in _grid_cases(units, catalog):
        w = branch_sqrt_neg_det(Branch(1.0, "M", FourVector(0, 0, 0, 0), metric, np.ones(grid.shape)), grid)
        valid = metric.valid_mask(grid_points(grid))
        assert np.array_equal(w.reshape(-1) > 0, valid), metric.label
        assert np.all(w.reshape(-1)[~valid] == 0.0)
        assert (not np.all(valid)) == has_singular_points


def test_cached_figures_equal_the_pointwise_routes(units, catalog):
    # the measure bit for bit with sqrt_neg_det_batch, the certificate with
    # the matrix product f^T g f - eta, +inf on the singular set
    for metric, grid, _ in _grid_cases(units, catalog):
        measure, deviation = metric_on_grid(metric, grid)
        pts = grid_points(grid)
        valid = metric.valid_mask(pts)
        assert measure.reshape(-1)[valid].tobytes() == sqrt_neg_det_batch(metric, pts[valid]).tobytes()
        assert np.array_equal(deviation.reshape(-1)[valid], matmul_deviation(metric_matrices(metric, pts[valid])))
        assert np.all(np.isinf(deviation.reshape(-1)[~valid]))


def test_slab_evaluation_equals_the_whole_grid_route_bit_for_bit(units, catalog):
    # non-cubic grids, +inf certificates on the singular set (signature loss, horizon, poles)
    for metric, grid, has_singular_points in _grid_cases(units, catalog):
        measure, deviation = metric_on_grid(metric, grid)
        want_measure, want_deviation = whole_grid_metric_on_grid(metric, grid)
        assert np.array_equal(measure, want_measure), metric.label
        assert np.array_equal(deviation, want_deviation), metric.label
        assert np.any(np.isinf(deviation)) == has_singular_points


@pytest.mark.parametrize("kind", ["weak_field", "schwarzschild"])
def test_cold_metric_on_grid_peak_memory_is_a_few_output_arrays(catalog, kind):
    # no whole-grid point array: the peak stays within 3x the two outputs (12.6 MB at 64^3)
    box = {"weak_field": ((-4.01,) * 3, (4.01,) * 3), "schwarzschild": ((3.0, 0.5, 0.0), (9.0, 2.5, 6.0))}[kind]
    grid = GridSpec(lo=box[0], hi=box[1], n=(64, 64, 64))  # a grid no other test evaluates: a cold cache
    tracemalloc.start()
    try:
        measure, deviation = metric_on_grid(catalog[kind], grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * (measure.nbytes + deviation.nbytes)


def test_gaussian_psi_equals_the_meshgrid_route_bit_for_bit():
    grid = GridSpec(lo=(-2.0, -1.5, -3.0), hi=(2.5, 1.5, 3.0), n=(9, 6, 11))
    for sigma in (0.7, (0.5, 0.9, 1.3)):
        for momentum, hbar in ((None, 1.0), ((0.4, -1.1, 2.3), 1.0), ((0.4, -1.1, 2.3), 0.37)):
            psi = gaussian_psi(grid, (0.2, -0.3, 0.5), sigma, momentum, hbar)
            assert np.array_equal(psi, meshgrid_gaussian_psi(grid, (0.2, -0.3, 0.5), sigma, momentum, hbar))
            assert psi.dtype == complex and psi.shape == grid.shape


@pytest.mark.parametrize(
    "center, sigma, momentum, match",
    [
        ((0.0, 0.0, 0.0), 0.0, None, "sigma must be finite and > 0"),
        ((0.0, 0.0, 0.0), np.nan, None, "sigma must be finite and > 0"),
        ((0.0, 0.0, 0.0), np.inf, None, "sigma must be finite and > 0"),
        ((0.0, 0.0, 0.0), (0.5, np.nan, 0.5), None, "sigma must be finite and > 0"),
        ((np.nan, 0.0, 0.0), 0.5, None, "center must be finite"),
        ((0.0, 0.0, 0.0), 0.5, (np.inf, 0.0, 0.0), "momentum must be finite"),
    ],
    ids=["zero-sigma", "nan-sigma", "inf-sigma", "nan-axis-sigma", "nan-center", "inf-momentum"],
)
def test_gaussian_psi_rejects_non_finite_parameters(center, sigma, momentum, match):
    # each gave NaN samples (an infinite width a constant) instead of an error
    grid = GridSpec(lo=(-1.0,) * 3, hi=(1.0,) * 3, n=(4, 4, 4))
    with pytest.raises(ValueError, match=match):
        gaussian_psi(grid, center, sigma, momentum)


def test_grid_routes_build_no_whole_grid_point_arrays(units, monkeypatch):
    meshgrid = np.meshgrid

    def open_only(*args, **kwargs):
        if not kwargs.get("sparse", False):
            raise AssertionError("whole-grid coordinate array built")
        return meshgrid(*args, **kwargs)

    monkeypatch.setattr(np, "meshgrid", open_only)
    grid = GridSpec(lo=(-3.01, -3, -3), hi=(3, 3, 3), n=(12, 10, 8))  # a cold measure cache
    s = two_branch_state(units, grid=grid, rng=np.random.default_rng(3))
    branch_centroid(s, 0)
    to_qlif(s)


def test_measure_cache_returns_read_only_arrays(units, grid):
    for w in metric_on_grid(_weak_branch(units, grid).metric, grid):
        with pytest.raises(ValueError):
            w[0, 0, 0] = 1.0


def test_make_state_errors(units, grid):
    with pytest.raises(ZeroNorm):
        make_state(
            [Branch(1.0, "A", FourVector(0, 0, 0, 0), Minkowski(units), np.zeros(grid.shape, complex))],
            grid,
        )
    with pytest.raises(GridMismatch):
        make_state(
            [Branch(1.0, "A", FourVector(0, 0, 0, 0), Minkowski(units), np.ones((3, 3, 3), complex))],
            grid,
        )
    with pytest.raises(ValueError):  # duplicate (label, metric) pair
        make_state([flat_branch(units, grid), flat_branch(units, grid, center=(1, 0, 0))], grid)
    for amplitude in (np.inf, np.nan, complex(1.0, np.inf)):
        with pytest.raises(ValueError, match="amplitude"):
            make_state([flat_branch(units, grid, amplitude=amplitude), flat_branch(units, grid, label="B")], grid)


@pytest.mark.parametrize("scale", [1e200, 1e-160, 1e-200, 1e300, 1e-300])
def test_make_state_normalizes_samples_whose_squares_leave_the_float_range(units, scale):
    # |psi|^2 overflows to inf, or underflows to subnormals (1e-160) or to 0;
    # the state must still be the unscaled one
    grid = GridSpec(lo=(-2, -2, -2), hi=(2, 2, 2), n=(9, 9, 9))
    branches = [
        flat_branch(units, grid, label="A", sigma=1.0),
        replace(_weak_branch(units, grid), amplitude=0.5j),
    ]
    want = make_state(branches, grid)
    got = make_state([replace(b, psi=b.psi * scale) for b in branches], grid)
    for g, w in zip(got.branches, want.branches, strict=True):
        np.testing.assert_allclose(g.psi, w.psi, rtol=1e-15, atol=0)
        assert np.isfinite(g.amplitude)
        assert g.amplitude == pytest.approx(w.amplitude, rel=1e-15)
    assert state_norm(got) == pytest.approx(1.0, abs=1e-14)


def test_make_state_rejects_norms_beyond_the_float_range(units):
    # samples of 1e308 at 729 points of volume 0.125: the norm, 9.5e308, is past the largest float
    grid = GridSpec(lo=(-2, -2, -2), hi=(2, 2, 2), n=(9, 9, 9))
    with pytest.raises(ValueError, match="exceed the float range"):
        make_state([replace(flat_branch(units, grid), psi=np.full(grid.shape, 1e308, complex))], grid)


def test_inner_product_conjugate_symmetry(units):
    rng = np.random.default_rng(8)
    a = two_branch_state(units, rng=rng)
    b = two_branch_state(units, rng=rng)
    assert inner_product(a, b) == pytest.approx(np.conj(inner_product(b, a)), abs=1e-15)


def test_inner_product_positive_definite(units):
    rng = np.random.default_rng(9)
    for _ in range(5):
        s = two_branch_state(units, rng=rng)
        v = inner_product(s, s)
        assert v.real > 0.0
        assert abs(v.imag) < 1e-14


def test_branches_with_different_metrics_are_orthogonal(units, grid):
    psi = gaussian_psi(grid, (0, 0, 0), 0.7)
    m1 = WeakFieldPointMass(units, mass=1e-6, soft=1e-3, center=(-1, 0, 0))
    m2 = WeakFieldPointMass(units, mass=1e-6, soft=1e-3, center=(1, 0, 0))
    a = make_state([Branch(1.0, "A", FourVector(0, 0, 0, 0), m1, psi)], grid)
    b = make_state([Branch(1.0, "A", FourVector(0, 0, 0, 0), m2, psi)], grid)
    assert inner_product(a, b) == 0j


def test_inner_product_grid_and_frame_guards(units, grid):
    a = make_state([flat_branch(units, grid)], grid)
    other = GridSpec(lo=(-4, -4, -4), hi=(4, 4, 4), n=(24, 24, 24))
    b = make_state([flat_branch(units, other)], other)
    with pytest.raises(GridMismatch):
        inner_product(a, b)
    c = make_state([flat_branch(units, grid)], grid, frame=Frame.P)
    with pytest.raises(WrongFrame):
        inner_product(a, c)


def test_grid_delta_normalization(units, grid):
    psi = np.zeros(grid.shape, complex)
    psi[10, 12, 3] = 1.0
    s = make_state([Branch(1.0, "A", FourVector(0, 0, 0, 0), Minkowski(units), psi)], grid)
    # normalized delta amplitude squares to 1 / (sqrt(-g) dV); flat: 1/dV
    assert abs(s.branches[0].psi[10, 12, 3]) ** 2 == pytest.approx(1.0 / grid.dvol, rel=1e-12)
    assert state_norm(s) == pytest.approx(1.0, abs=1e-12)


def test_translate_identity(units, grid):
    s = make_state([flat_branch(units, grid)], grid)
    t = translate_state(s, (0.0, 0.0, 0.0))
    assert np.array_equal(t.branches[0].psi, s.branches[0].psi)


def test_translate_gaussian_overlap(units, grid):
    sigma = 0.75
    s = make_state([flat_branch(units, grid, sigma=sigma)], grid)
    h = grid.spacing[0]
    moved = translate_state(s, (2 * h, 0.0, 0.0))
    overlap = inner_product(s, moved).real
    assert overlap == pytest.approx(gaussian_translate_overlap(2 * h, sigma), abs=1e-6)


def test_translate_round_trip_exact(units, grid):
    s = make_state([flat_branch(units, grid, center=(0.5, -0.3, 0.2))], grid)
    h = grid.spacing
    there = translate_state(s, (3 * h[0], -2 * h[1], 5 * h[2]))
    back = translate_state(there, (-3 * h[0], 2 * h[1], -5 * h[2]))
    assert np.array_equal(back.branches[0].psi, s.branches[0].psi)


def test_translate_preserves_norm_on_flat_branches(units, grid):
    s = make_state([flat_branch(units, grid)], grid)
    t = translate_state(s, (grid.spacing[0] * 5, 0, 0))
    # the roll permutes samples bit-exactly; only the summation order in
    # the norm can differ, at the last-ulp level
    assert state_norm(t) == pytest.approx(state_norm(s), abs=1e-15)
    assert sorted(np.abs(s.branches[0].psi).ravel()) == sorted(np.abs(t.branches[0].psi).ravel())


def test_translate_off_grid_rejected(units, grid):
    s = make_state([flat_branch(units, grid)], grid)
    with pytest.raises(OffGridTranslation):
        translate_state(s, (0.4999 * grid.spacing[0], 0.0, 0.0))


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_translate_rejects_a_non_finite_shift(units, grid, bad):
    s = make_state([flat_branch(units, grid)], grid)
    with pytest.raises(ValueError, match="translation must be finite"):
        translate_state(s, (0.0, bad, 0.0))


def test_save_load_round_trip(units, tmp_path):
    rng = np.random.default_rng(12)
    s = two_branch_state(units, rng=rng)
    path = tmp_path / "state.qst"
    save_state(s, path)
    loaded = load_state(path)
    assert loaded.frame == s.frame
    assert loaded.grid == s.grid
    assert [b.key for b in loaded.branches] == [b.key for b in s.branches]
    assert inner_product(s, loaded) == pytest.approx(1.0, abs=1e-12)
    assert state_norm(loaded) == pytest.approx(1.0, abs=1e-10)


def _assert_reloads_equal(s, path):
    loaded = load_state(path)
    assert (loaded.grid, loaded.frame, loaded.units) == (s.grid, s.frame, s.units)
    for got, want in zip(loaded.branches, s.branches, strict=True):
        assert (got.amplitude, got.key, got.mass_position) == (want.amplitude, want.key, want.mass_position)
        assert np.array_equal(got.psi, want.psi)


def test_save_state_replaces_a_larger_file(units, tmp_path):
    s = two_branch_state(units)
    path = tmp_path / "state.qst"
    path.write_bytes(b"\xff" * (3 * 16 * 17**3))  # longer than the container
    save_state(s, path)
    _assert_reloads_equal(s, path)  # load_state refuses trailing bytes


def test_save_state_replaces_a_symlink_and_leaves_its_target(units, tmp_path):
    s = two_branch_state(units)
    target = tmp_path / "target.bin"
    target.write_bytes(b"not a container")
    link = tmp_path / "state.qst"
    link.symlink_to(target)
    save_state(s, link)
    assert not link.is_symlink()
    assert target.read_bytes() == b"not a container"
    _assert_reloads_equal(s, link)


def _random_fields(shape, seed):
    rng = np.random.default_rng(seed)
    a, b = (rng.normal(size=shape) + 1j * rng.normal(size=shape) for _ in range(2))
    return a, b, rng.uniform(0.5, 1.5, shape)


@pytest.mark.parametrize("shape", [(9, 6, 11), (16, 16, 16), (17, 17, 17), (20, 20, 20)])
def test_overlap_sum_is_the_whole_array_sum_within_one_block(shape):
    assert np.prod(shape) <= _BLOCK
    a, b, w = _random_fields(shape, 3)
    assert _overlap_sum(a, b, w) == np.sum(np.conj(a) * b * w)
    assert _overlap_sum(a, b) == np.sum(np.conj(a) * b)


@pytest.mark.parametrize("shape", [(40, 40, 40), (33, 35, 37), (64, 64, 64)])
def test_overlap_sum_over_many_blocks_is_within_4_ulp_of_the_whole_array_sum(shape):
    # the same terms summed in two pairwise orders differ by a few roundings of
    # sum |term|; the kernel splits as np.sum does, so here it is closer still
    assert np.prod(shape) > _BLOCK
    a, b, w = _random_fields(shape, 4)
    for weight in (w, None):
        terms = np.conj(a) * b * (1.0 if weight is None else weight)
        bound = 4 * np.finfo(float).eps * float(np.sum(np.abs(terms)))
        assert abs(_overlap_sum(a, b, weight) - np.sum(terms)) <= bound


def test_inner_product_makes_no_whole_grid_temporary(units):
    grid = GridSpec(lo=(-4, -4, -4), hi=(4, 4, 4), n=(40, 40, 40))
    s = two_branch_state(units, grid=grid)
    assert state_norm(s) == pytest.approx(1.0, abs=1e-12)  # warms the measure cache
    tracemalloc.start()
    try:
        inner_product(s, s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one whole-grid complex product is 16 bytes a point; the block buffer and
    # the ufunc's cast buffer for the weight take 128 KB each
    assert peak < 16 * 40**3 / 2


def test_gaussian_psi_equals_the_meshgrid_route_bit_for_bit_on_larger_grids():
    # odd lengths leave SIMD tails in every in-place step
    grid = GridSpec(lo=(-3.0, -2.5, -2.0), hi=(2.5, 3.0, 3.5), n=(33, 35, 37))
    for momentum, hbar in ((None, 1.0), ((0.4, -1.1, 2.3), 0.37)):
        psi = gaussian_psi(grid, (0.2, -0.3, 0.5), (0.5, 0.9, 1.3), momentum, hbar)
        assert np.array_equal(psi, meshgrid_gaussian_psi(grid, (0.2, -0.3, 0.5), (0.5, 0.9, 1.3), momentum, hbar))


def test_save_is_deterministic(units, tmp_path):
    s = two_branch_state(units)
    p1, p2 = tmp_path / "a.qst", tmp_path / "b.qst"
    save_state(s, p1)
    save_state(s, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_load_rejects_other_files(tmp_path):
    bad = tmp_path / "junk.qst"
    bad.write_bytes(b"NOTASTATE" + b"\x00" * 32)
    with pytest.raises(ValueError):
        load_state(bad)


def _saved_bytes(units, tmp_path, frame=Frame.R):
    s = two_branch_state(units)
    if frame == Frame.P:
        s = to_qlif(s)[0]
    path = tmp_path / "good.qst"
    save_state(s, path)
    return path.read_bytes()


def _load_bytes(tmp_path, data):
    path = tmp_path / "bad.qst"
    path.write_bytes(data)
    return load_state(path)


def test_load_rejects_wrong_magic(units, tmp_path):
    data = _saved_bytes(units, tmp_path)
    with pytest.raises(BadContainer, match="magic"):
        _load_bytes(tmp_path, b"QLIFSTA0" + data[8:])


def test_load_rejects_short_header(units, tmp_path):
    data = _saved_bytes(units, tmp_path)
    with pytest.raises(BadContainer, match="short header"):
        _load_bytes(tmp_path, data[:12])
    hlen = int.from_bytes(data[8:16], "little")
    with pytest.raises(BadContainer, match="short header"):
        _load_bytes(tmp_path, data[: 16 + hlen // 2])


def test_load_rejects_truncated_payload(units, tmp_path):
    data = _saved_bytes(units, tmp_path)
    with pytest.raises(BadContainer, match="truncated payload"):
        _load_bytes(tmp_path, data[:-16])


def test_load_rejects_trailing_bytes(units, tmp_path):
    data = _saved_bytes(units, tmp_path)
    with pytest.raises(BadContainer, match="trailing bytes"):
        _load_bytes(tmp_path, data + b"\x00")


def test_load_rejects_unreadable_header(units, tmp_path):
    data = _saved_bytes(units, tmp_path)
    hlen = int.from_bytes(data[8:16], "little")
    for header in (b"\xff" * hlen, b"[" * hlen, b"[1]".ljust(hlen)):
        with pytest.raises(BadContainer, match="unreadable header"):
            _load_bytes(tmp_path, data[:16] + header + data[16 + hlen :])


def test_load_rejects_unknown_format(units, tmp_path):
    data = _saved_bytes(units, tmp_path)
    hlen = int.from_bytes(data[8:16], "little")
    header = data[16 : 16 + hlen].replace(f'"format": {FORMAT}'.encode(), b'"format": 9')
    assert header != data[16 : 16 + hlen] and len(header) == hlen
    with pytest.raises(BadContainer, match="format 9"):
        _load_bytes(tmp_path, data[:16] + header + data[16 + hlen :])


def test_load_rejects_format_1_with_a_hint(units, tmp_path):
    # formats 1 and 2 stored the P-frame metric differently and format 3 a
    # constant that nothing read; all three are regenerated
    data = _saved_bytes(units, tmp_path)
    hlen = int.from_bytes(data[8:16], "little")
    for version in (1, 2, 3):
        header = data[16 : 16 + hlen].replace(f'"format": {FORMAT}'.encode(), f'"format": {version}'.encode())
        assert header != data[16 : 16 + hlen]
        with pytest.raises(BadContainer, match=f"format {version} is no longer read; regenerate"):
            _load_bytes(tmp_path, data[:16] + header + data[16 + hlen :])


def _edited_header(data, edit):
    """(new header bytes, payload bytes) of a saved container after edit(header)."""
    hlen = int.from_bytes(data[8:16], "little")
    header = json.loads(data[16 : 16 + hlen])
    edit(header)
    raw = json.dumps(header).encode("utf-8")
    return data[:8] + len(raw).to_bytes(8, "little") + raw, data[16 + hlen :]


@pytest.mark.parametrize(
    "frame, edit",
    [
        (Frame.R, lambda h: h.pop("units")),
        (Frame.R, lambda h: h.pop("grid")),
        (Frame.R, lambda h: h["grid"].pop("n")),
        (Frame.R, lambda h: h["branches"][0].pop("metric")),
        (Frame.R, lambda h: h.update(frame="Q")),
        (Frame.R, lambda h: h["branches"][0]["metric"].update(kind="kerr")),
        (Frame.R, lambda h: h["branches"][0].update(metric="minkowski")),
        (Frame.R, lambda h: h["units"].update(c=-1.0)),
        (Frame.R, lambda h: h["branches"][1].update(amplitude=[0.5, 0.0, 0.1])),
        (Frame.P, lambda h: h["branches"][0]["metric"].update(mass=-1.0)),
        # each of these escaped as another error or loaded
        (Frame.R, lambda h: h["branches"][0].update(mass_label=[])),  # TypeError: unhashable
        (Frame.R, lambda h: h["grid"].update(n=[float("inf"), 4, 4])),  # OverflowError
        (Frame.R, lambda h: h["branches"][1].update(amplitude="")),  # loaded as 0j
        (Frame.R, lambda h: h["branches"][1].update(amplitude=[])),  # loaded as 0j
        (Frame.R, lambda h: h["branches"][1].update(amplitude=[True, 0.0])),  # loaded as 1
    ],
    ids=[
        "no-units", "no-grid", "no-grid-n", "no-metric", "frame-Q",
        "unknown-kind", "metric-not-mapping", "negative-c", "3-amplitude",
        "p-frame-negative-mass", "list-mass-label", "infinite-grid-n",
        "empty-string-amplitude", "empty-list-amplitude", "bool-amplitude",
    ],
)
def test_load_rejects_bad_header_fields(units, tmp_path, frame, edit):
    head, payload = _edited_header(_saved_bytes(units, tmp_path, frame), edit)
    with pytest.raises(BadContainer, match="bad header field") as info:
        _load_bytes(tmp_path, head + payload)
    assert isinstance(info.value.__cause__, (KeyError, ValueError, TypeError, AttributeError))


def test_load_names_a_metric_kind_that_is_not_a_string(units, tmp_path):
    head, payload = _edited_header(
        _saved_bytes(units, tmp_path), lambda h: h["branches"][0]["metric"].update(kind=["a"])
    )
    with pytest.raises(BadContainer, match=r"bad header field: .*unknown metric kind \['a'\]"):
        _load_bytes(tmp_path, head + payload)


@pytest.mark.parametrize("frame", [Frame.R, Frame.P])
def test_saved_records_hold_each_branch_metric_once(units, tmp_path, frame):
    s = two_branch_state(units)
    data = _saved_bytes(units, tmp_path, frame)
    hlen = int.from_bytes(data[8:16], "little")
    header = json.loads(data[16 : 16 + hlen])
    assert set(header) == {"format", "grid", "units", "frame", "branches"}
    assert header["frame"] == frame.value
    for rec, b in zip(header["branches"], s.branches, strict=True):
        assert rec["metric"] == json.loads(json.dumps(b.metric.describe()))
        assert set(rec) == {"amplitude", "mass_label", "mass_position", "metric"}


def test_load_rejects_a_non_finite_amplitude(units, tmp_path):
    # json reads the token NaN; make_state refuses the same amplitude
    head, payload = _edited_header(
        _saved_bytes(units, tmp_path), lambda h: h["branches"][1].update(amplitude=[np.nan, 0.0])
    )
    with pytest.raises(BadContainer, match=r"branch \('R', .*amplitude \(nan\+0j\) is not finite"):
        _load_bytes(tmp_path, head + payload)


def test_load_rejects_a_non_finite_sample(units, tmp_path):
    data = bytearray(_saved_bytes(units, tmp_path))
    data[-16:-8] = np.array(np.nan, "<f8").tobytes()  # the real part of the last sample of the last branch
    with pytest.raises(BadContainer, match=r"branch \('R', .*psi has non-finite samples"):
        _load_bytes(tmp_path, bytes(data))


def test_load_rejects_an_empty_branch_table(units, tmp_path):
    # it loaded as a state without branches, on which to_qlif raised from max() of nothing
    head, _ = _edited_header(_saved_bytes(units, tmp_path), lambda h: h.update(branches=[]))
    with pytest.raises(BadContainer, match="state needs at least one branch"):
        _load_bytes(tmp_path, head)


def test_load_rejects_amplitudes_that_are_all_zero(units, tmp_path):
    # they loaded as a state of norm 0
    def zero(header):
        for rec in header["branches"]:
            rec["amplitude"] = [0.0, 0.0]

    head, payload = _edited_header(_saved_bytes(units, tmp_path), zero)
    with pytest.raises(BadContainer, match="all branch amplitudes are zero"):
        _load_bytes(tmp_path, head + payload)


def test_load_rejects_a_branch_record_listed_twice(units, tmp_path):
    head, payload = _edited_header(
        _saved_bytes(units, tmp_path), lambda h: h["branches"].__setitem__(1, h["branches"][0])
    )
    with pytest.raises(BadContainer, match=r"duplicate branch keys: branches\[0\] and branches\[1\] .* mass label 'L'"):
        _load_bytes(tmp_path, head + payload)


def test_load_rejects_grid_whose_point_count_overflows_int64(units, tmp_path):
    # 2**22 * 2**22 * 2**20 = 2**64 wraps to 0 in int64 arithmetic
    head, _ = _edited_header(
        _saved_bytes(units, tmp_path), lambda h: h["grid"].update(n=[2**22, 2**22, 2**20])
    )
    with pytest.raises(BadContainer, match="truncated payload"):
        _load_bytes(tmp_path, head)

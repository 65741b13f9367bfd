import numpy as np
import pytest

from conftest import diagonal_cases, random_point
from oracles import eigh_tetrad, frame_defect, metric_matrices
from qlif.errors import DegenerateMetric
from qlif.spacetime import FourVector, Minkowski, metric_eval
from qlif.tetrad import Tetrad, build_tetrad, diagonal_frame_deviation, from_local, tetrad_arrays, to_local


def test_minkowski_tetrad_is_identity(units):
    t = build_tetrad(Minkowski(units), FourVector(0.0, 1.0, 2.0, 3.0))
    assert np.array_equal(t.b, np.eye(4))
    assert np.array_equal(t.f, np.eye(4))


def test_synthetic_diagonal_rescaling():
    b, f = tetrad_arrays(np.array([[-4.0, 1.0, 1.0, 1.0]]))
    assert b.shape == f.shape == (1, 4)
    assert np.array_equal(f, [[0.5, 1.0, 1.0, 1.0]])
    assert np.array_equal(b, [[2.0, 1.0, 1.0, 1.0]])


def test_frame_invariants_random_points(catalog):
    rng = np.random.default_rng(17)
    for field in catalog.values():
        for _ in range(100):
            x = random_point(field, rng)
            t = build_tetrad(field, x)
            g = metric_matrices(field, x.array[None, :])[0]
            assert frame_defect(t.f, g) < 1e-10
            assert np.max(np.abs(t.f @ t.b - np.eye(4))) < 1e-12
            assert np.max(np.abs(t.b @ t.f - np.eye(4))) < 1e-12


def test_diagonal_frame_deviation_equals_the_matrix_route_bit_for_bit(catalog):
    rng = np.random.default_rng(19)
    for field, pts in diagonal_cases(catalog, rng, 300):
        got = diagonal_frame_deviation(field.diagonal_batch(pts))
        g = metric_matrices(field, pts)
        want = [frame_defect(build_tetrad(field, FourVector.from_array(p)).f, gp) for p, gp in zip(pts, g)]
        assert got.tolist() == want, field.label


def test_to_local_at_anchor_is_zero(catalog):
    rng = np.random.default_rng(2)
    for field in catalog.values():
        x = random_point(field, rng)
        t = build_tetrad(field, x)
        assert np.array_equal(to_local(t, x).array, np.zeros(4))
        assert np.array_equal(from_local(t, FourVector(0, 0, 0, 0)).array, x.array)


def test_minkowski_frame_is_plain_translation(units):
    a = FourVector(0.5, 1.0, -2.0, 0.25)
    t = build_tetrad(Minkowski(units), a)
    xp = FourVector(1.5, 3.0, 0.0, -1.0)
    assert np.array_equal(to_local(t, xp).array, xp.array - a.array)
    xi = FourVector(0.1, 0.2, 0.3, 0.4)
    assert np.array_equal(from_local(t, xi).array, a.array + xi.array)


def test_synthetic_tetrad_action():
    b, f = tetrad_arrays(np.array([[-4.0, 1.0, 1.0, 1.0]]))
    t = Tetrad(b=np.diag(b[0]), f=np.diag(f[0]), anchor=FourVector(0, 0, 0, 0))
    out = to_local(t, FourVector(1.0, 0.0, 0.0, 0.0))
    assert np.array_equal(out.array, np.array([2.0, 0.0, 0.0, 0.0]))


def test_round_trip_many_points(catalog):
    rng = np.random.default_rng(23)
    for field in catalog.values():
        x = random_point(field, rng)
        t = build_tetrad(field, x)
        for _ in range(1000):
            xp = FourVector.from_array(x.array + rng.normal(0.0, 0.2, 4))
            back = from_local(t, to_local(t, xp))
            assert np.max(np.abs(back.array - xp.array)) < 1e-12


def test_determinism_bit_identical(catalog):
    rng = np.random.default_rng(31)
    for field in catalog.values():
        x = random_point(field, rng)
        t1 = build_tetrad(field, x)
        t2 = build_tetrad(field, x)
        assert np.array_equal(t1.b, t2.b)
        assert np.array_equal(t1.f, t2.f)


def test_degenerate_metric_rejected():
    with pytest.raises(DegenerateMetric):
        tetrad_arrays(np.array([[1e-13, 1.0, 1.0, 1.0]]))
    with pytest.raises(DegenerateMetric):  # two timelike directions
        tetrad_arrays(np.array([[-1.0, -1.0, 1.0, 1.0]]))
    with pytest.raises(DegenerateMetric):  # the timelike direction outside slot 0
        tetrad_arrays(np.array([[1.0, -1.0, 1.0, 1.0]]))


def test_diagonal_branch_matches_eigh_bit_for_bit(catalog):
    # eigh orders its frame by eigenvalue; put each column of f (row of b)
    # back in the chart slot of its eigenvector's leading index, and compare
    # with the diagonals embedded as (N, 4, 4) matrices
    rng = np.random.default_rng(41)
    for field in catalog.values():
        pts = np.array([random_point(field, rng).array for _ in range(500)])
        b, f = (a[:, :, None] * np.eye(4) for a in tetrad_arrays(field.diagonal_batch(pts)))
        b_ref, f_ref = eigh_tetrad(metric_matrices(field, pts))
        order = np.argsort(np.argmax(np.abs(f_ref), axis=-2), axis=-1)
        assert np.array_equal(b, np.take_along_axis(b_ref, order[:, :, None], axis=-2))
        assert np.array_equal(f, np.take_along_axis(f_ref, order[:, None, :], axis=-1))


def _boost_rotation(rapidity, angle):
    boost = np.eye(4)
    boost[0, 0] = boost[1, 1] = np.cosh(rapidity)
    boost[0, 1] = boost[1, 0] = np.sinh(rapidity)
    rot = np.eye(4)
    rot[2, 2] = rot[3, 3] = np.cos(angle)
    rot[2, 3], rot[3, 2] = -np.sin(angle), np.sin(angle)
    return boost @ rot


def test_non_diagonal_lorentzian_metric_uses_full_construction():
    # tetrad_arrays takes diagonals only; a general metric is the eigh oracle's
    lam = _boost_rotation(0.4, 0.7)
    g = lam.T @ np.diag([-1.3, 0.8, 1.1, 2.5]) @ lam
    assert np.count_nonzero(g - np.diag(np.diag(g))) > 0
    b, f = eigh_tetrad(g[None])
    t = Tetrad(b=b[0], f=f[0], anchor=FourVector(0, 0, 0, 0))
    assert frame_defect(t.f, g) < 1e-12
    assert np.max(np.abs(t.f @ t.b - np.eye(4))) < 1e-12


def test_non_diagonal_degenerate_metric_rejected():
    # the spectrum check is basis-free: the eigenvalues of a rotated
    # degenerate metric, fed to tetrad_arrays as a diagonal, are rejected
    lam = _boost_rotation(0.3, 0.5)
    with pytest.raises(DegenerateMetric):  # rank 3: one zero eigenvalue
        tetrad_arrays(np.linalg.eigvalsh((lam.T @ np.diag([-1.0, 0.0, 1.0, 1.0]) @ lam)[None]))
    with pytest.raises(DegenerateMetric):  # two timelike directions
        tetrad_arrays(np.linalg.eigvalsh((lam.T @ np.diag([-1.0, -1.0, 1.0, 1.0]) @ lam)[None]))


def _pullback_deviation(field, t, radius):
    worst = 0.0
    for mu in range(4):
        for sign in (-1.0, 1.0):
            xi = np.zeros(4)
            xi[mu] = sign * radius
            xp = from_local(t, FourVector.from_array(xi))
            g = metric_eval(field, xp)
            worst = max(worst, frame_defect(t.f, g))
    return worst


def test_leading_order_deviation_grows_linearly(catalog):
    # Constant tetrads cannot cancel the connection, so the pulled-back
    # metric deviates from eta linearly in the local distance.
    rng = np.random.default_rng(7)
    for name in ("weak_field", "schwarzschild"):
        field = catalog[name]
        x = random_point(field, rng)
        t = build_tetrad(field, x)
        d1 = _pullback_deviation(field, t, 0.01)
        d2 = _pullback_deviation(field, t, 0.02)
        assert d1 > 0.0
        assert d2 / d1 == pytest.approx(2.0, rel=0.2)

import numpy as np
import pytest

from conftest import diagonal_cases, random_point
from oracles import eigh_tetrad, frame_defect, metric_matrices
from qlif.errors import DegenerateMetric
from qlif.spacetime import FourVector, Minkowski
from qlif.tetrad import build_tetrad, diagonal_frame_deviation, frame_deviation, tetrad_arrays


def test_minkowski_tetrad_is_identity(units):
    b, f = build_tetrad(Minkowski(units), FourVector(0.0, 1.0, 2.0, 3.0))
    assert b.shape == f.shape == (4,)
    assert np.array_equal(b, np.ones(4))
    assert np.array_equal(f, np.ones(4))


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
            b, f = build_tetrad(field, x)
            g = metric_matrices(field, x.array[None, :])[0]
            assert frame_defect(np.diag(f), g) < 1e-10
            assert np.max(np.abs(np.diag(f) @ np.diag(b) - np.eye(4))) < 1e-12


def test_diagonal_frame_deviation_equals_the_matrix_route_bit_for_bit(catalog):
    rng = np.random.default_rng(19)
    for field, pts in diagonal_cases(catalog, rng, 300):
        got = diagonal_frame_deviation(field.diagonal_batch(pts))
        g = metric_matrices(field, pts)
        want = [frame_defect(np.diag(build_tetrad(field, FourVector.from_array(p))[1]), gp) for p, gp in zip(pts, g)]
        assert got.tolist() == want, field.label


def test_determinism_bit_identical(catalog):
    rng = np.random.default_rng(31)
    for field in catalog.values():
        x = random_point(field, rng)
        (b1, f1), (b2, f2) = build_tetrad(field, x), build_tetrad(field, x)
        assert b1.tobytes() == b2.tobytes()
        assert f1.tobytes() == f2.tobytes()


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
    assert frame_defect(f[0], g) < 1e-12
    assert np.max(np.abs(f[0] @ b[0] - np.eye(4))) < 1e-12


def test_non_diagonal_degenerate_metric_rejected():
    # the spectrum check is basis-free: the eigenvalues of a rotated
    # degenerate metric, fed to tetrad_arrays as a diagonal, are rejected
    lam = _boost_rotation(0.3, 0.5)
    with pytest.raises(DegenerateMetric):  # rank 3: one zero eigenvalue
        tetrad_arrays(np.linalg.eigvalsh((lam.T @ np.diag([-1.0, 0.0, 1.0, 1.0]) @ lam)[None]))
    with pytest.raises(DegenerateMetric):  # two timelike directions
        tetrad_arrays(np.linalg.eigvalsh((lam.T @ np.diag([-1.0, -1.0, 1.0, 1.0]) @ lam)[None]))


def _pullback_deviation(field, x, f, radius):
    # targets x +- radius f_mu e_mu, one local step along each axis
    worst = 0.0
    for mu in range(4):
        for sign in (-1.0, 1.0):
            xp = x.array.copy()
            xp[mu] += sign * radius * f[mu]
            d = field.diagonal_at(FourVector.from_array(xp))
            worst = max(worst, float(frame_deviation(f[None, :], d[None, :])[0]))
    return worst


def test_leading_order_deviation_grows_linearly(catalog):
    # Constant tetrads cannot cancel the connection, so the pulled-back
    # metric deviates from eta linearly in the local distance.
    rng = np.random.default_rng(7)
    for name in ("weak_field", "schwarzschild"):
        field = catalog[name]
        x = random_point(field, rng)
        _, f = build_tetrad(field, x)
        d1 = _pullback_deviation(field, x, f, 0.01)
        d2 = _pullback_deviation(field, x, f, 0.02)
        assert d1 > 0.0
        assert d2 / d1 == pytest.approx(2.0, rel=0.2)

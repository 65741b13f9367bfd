import numpy as np
import pytest

from oracles import grid_points
from qlif.qstate import Branch, GridSpec, gaussian_psi, make_state
from qlif.spacetime import FourVector, Minkowski, Schwarzschild, UnitSystem, WeakFieldPointMass
from qlif.tetrad import tetrad_arrays


@pytest.fixture(scope="session")
def units():
    return UnitSystem.geometric()


@pytest.fixture(scope="session")
def catalog(units):
    """One instance of each metric kind, at scales the tests share."""
    return {
        "minkowski": Minkowski(units),
        "weak_field": WeakFieldPointMass(units, mass=1e-5, soft=1e-3, center=(0.3, -0.2, 0.1)),
        "schwarzschild": Schwarzschild(units, mass=1.0),
    }


def random_point(field, rng):
    """A random point in the metric's valid region."""
    if isinstance(field, Schwarzschild):
        return FourVector(
            rng.uniform(-1.0, 1.0),
            rng.uniform(5.0, 15.0),
            rng.uniform(0.6, 2.5),
            rng.uniform(0.0, 2.0 * np.pi),
        )
    return FourVector(rng.uniform(-1.0, 1.0), *rng.uniform(-2.0, 2.0, 3))


def diagonal_cases(catalog, rng, n):
    """(field, (n, 4) valid points) for each catalog kind, and for an SI weak field of Earth's mass at Earth scale."""
    si = WeakFieldPointMass(UnitSystem.si(), mass=5.972e24, soft=1.0)
    cases = [*((f, 1.0) for f in catalog.values()), (si, 6.371e6)]
    return [(f, np.array([random_point(f, rng).array * scale for _ in range(n)])) for f, scale in cases]


def two_branch_state(
    units,
    grid=None,
    rng=None,
    mass=1e-6,
    half_separation=1.5,
    amplitudes=(1.0, 1.0),
):
    """The canonical L/R weak-field scenario; randomized packets when rng given."""
    if grid is None:
        grid = GridSpec(lo=(-3, -3, -3), hi=(3, 3, 3), n=(17, 17, 17))
    gl = WeakFieldPointMass(units, mass=mass, soft=1e-3, center=(-half_separation, 0, 0))
    gr = WeakFieldPointMass(units, mass=mass, soft=1e-3, center=(half_separation, 0, 0))
    if rng is None:
        centers = [(0.0, 0.0, 0.5), (0.0, 0.0, 0.5)]
        sigmas = [0.6, 0.6]
        momenta = [None, None]
    else:
        centers = [rng.uniform(-0.5, 0.5, 3) for _ in range(2)]
        sigmas = [rng.uniform(0.4, 0.8) for _ in range(2)]
        momenta = [rng.uniform(-0.5, 0.5, 3) for _ in range(2)]
    branches = [
        Branch(
            amplitude=amplitudes[0],
            mass_label="L",
            mass_position=FourVector(grid.t0, -half_separation, 0.0, 0.0),
            metric=gl,
            psi=gaussian_psi(grid, centers[0], sigmas[0], momentum=momenta[0]),
        ),
        Branch(
            amplitude=amplitudes[1],
            mass_label="R",
            mass_position=FourVector(grid.t0, half_separation, 0.0, 0.0),
            metric=gr,
            psi=gaussian_psi(grid, centers[1], sigmas[1], momentum=momenta[1]),
        ),
    ]
    return make_state(branches, grid, units=units)


def derived_b_xi(branch, grid):
    """Tetrad diagonals b and local mass coordinates xi = b (x_S - x) of a P-frame branch over its source grid."""
    pts = grid_points(grid)
    b, _ = tetrad_arrays(branch.source_metric.diagonal_batch(pts))
    xi = b * (branch.mass_position.array[None, :] - pts)
    return b, xi


def line_state(units, sigma, n=2048, half_width=30.0):
    """One flat branch on an (n, 2, 2) grid over x in [-half_width, half_width].

    ``sigma`` is ``gaussian_psi``'s amplitude width along x, so |psi|^2 has
    rms width sigma / sqrt(2) there.  The packet is centred between the two
    samples of the thin y and z axes, so it is constant across them and
    free evolution moves it along x alone.
    """
    grid = GridSpec(lo=(-half_width, -1.0, -1.0), hi=(half_width, 1.0, 1.0), n=(n, 2, 2))
    psi = gaussian_psi(grid, (0.0, 0.0, 0.0), (sigma, 1.0, 1.0))
    branch = Branch(1.0, "free", FourVector(grid.t0, 0.0, 0.0, 0.0), Minkowski(units), psi)
    return make_state([branch], grid, units=units)


def x_width(state):
    """rms width along x of |psi|^2 of a one-branch state."""
    prob = np.sum(np.abs(state.branches[0].psi) ** 2, axis=(1, 2))
    x = state.grid.axis(0)
    mean = np.sum(x * prob) / np.sum(prob)
    return float(np.sqrt(np.sum((x - mean) ** 2 * prob) / np.sum(prob)))

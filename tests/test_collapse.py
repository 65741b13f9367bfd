import dataclasses
import math
import warnings

import numpy as np
import pytest
import scipy.integrate
import scipy.special

from oracles import (
    array_coulomb_potential,
    array_pair_quadrature,
    array_potential_integral,
    array_radial_density,
    decimal_distance,
    gaussian_delta_energy,
    gaussian_delta_energy_series,
    pair_kinks,
    scipy_pair_quadrature,
    uniform_sphere_delta_energy,
)
from qlif.collapse import (
    DISTRIBUTION_KINDS,
    Gaussian,
    UniformSphere,
    collapse_time,
    delta_self_energy,
    delta_self_energy_monte_carlo,
    separation_sweep,
)
from qlif import collapse
from qlif.collapse import (  # internal cross-checks
    _GK21_GAUSS,
    _GK21_KRONROD,
    _GK21_NODES,
    _pair_quadrature,
    _pair_uniform_equal,
    _row_norms,
    _separation,
)
from qlif.errors import InfiniteLifetime, QlifError, QuadratureNonConvergence
from qlif.spacetime import UnitSystem


@pytest.fixture(scope="module")
def spheres(units):
    a = UniformSphere(mass=2.0, radius=1.0)
    b = UniformSphere(mass=2.0, radius=1.0, center=(0.0, 0.0, 1.5))
    return a, b


def test_identical_distributions_give_exact_zero(units, spheres):
    a, _ = spheres
    assert delta_self_energy(a, a, units) == 0.0
    g = Gaussian(mass=1.0, width=0.3, center=(1.0, 2.0, 3.0))
    assert delta_self_energy(g, g, units) == 0.0


def test_collapse_time_infinite_for_identical(units, spheres):
    a, _ = spheres
    with pytest.raises(InfiniteLifetime):
        collapse_time(a, a, units)


def test_analytic_matches_monte_carlo_gaussians(units):
    a = Gaussian(mass=2.0, width=0.7)
    b = Gaussian(mass=2.0, width=0.7, center=(0.0, 0.0, 2.0))
    analytic = delta_self_energy(a, b, units)
    mc = delta_self_energy_monte_carlo(a, b, units, n_samples=4_000_000, seed=99)
    assert abs(analytic - mc) / analytic < 0.005


def test_monte_carlo_is_reproducible(units, spheres):
    a, b = spheres
    v1 = delta_self_energy_monte_carlo(a, b, units, n_samples=200_000, seed=5)
    v2 = delta_self_energy_monte_carlo(a, b, units, n_samples=200_000, seed=5)
    assert v1 == v2
    v3 = delta_self_energy_monte_carlo(a, b, units, n_samples=200_000, seed=6)
    assert v1 != v3


def test_monte_carlo_value_is_frozen(units, spheres):
    # the draws, their order and their chunking are part of the value
    a, b = spheres
    assert delta_self_energy_monte_carlo(a, b, units, n_samples=200_000, seed=5) == 4.332663211684094


@pytest.mark.parametrize("n_samples", [1, 2**15 + 1])  # two points; one pair past a chunk
def test_monte_carlo_edge_counts_give_repeatable_finite_floats(units, n_samples):
    a = UniformSphere(mass=2.0, radius=1.0)
    g = Gaussian(mass=1.5, width=0.5, center=(0.0, 0.0, 0.8))
    v1 = delta_self_energy_monte_carlo(a, g, units, n_samples=n_samples, seed=11)
    v2 = delta_self_energy_monte_carlo(a, g, units, n_samples=n_samples, seed=11)
    assert type(v1) is float and math.isfinite(v1)
    assert v1.hex() == v2.hex()


def test_monte_carlo_samples_each_distribution_once_per_chunk(units, monkeypatch):
    # n pairs per term in chunks of 2^15: m + 1 points of each distribution a chunk
    calls = []
    sample = UniformSphere.sample

    def counted(self, rng, n):
        calls.append((self.center, n))
        return sample(self, rng, n)

    monkeypatch.setattr(UniformSphere, "sample", counted)
    a = UniformSphere(mass=2.0, radius=1.0)
    b = UniformSphere(mass=2.0, radius=1.0, center=(0.0, 0.0, 1.5))
    delta_self_energy_monte_carlo(a, b, units, n_samples=2**15 + 1, seed=3)
    assert calls == [(a.center, 2**15 + 1), (b.center, 2**15 + 1), (a.center, 2), (b.center, 2)]


@pytest.mark.parametrize("pair", ["equal spheres", "sphere and gaussian"])
def test_monte_carlo_mean_over_seeds_is_unbiased(units, pair):
    a = UniformSphere(mass=2.0, radius=1.0)
    b = dataclasses.replace(a, center=(0.0, 0.0, 1.5)) if pair == "equal spheres" else Gaussian(1.5, 0.5, (0.0, 0.0, 0.8))
    exact = delta_self_energy(a, b, units)
    values = np.array([delta_self_energy_monte_carlo(a, b, units, n_samples=20_000, seed=s) for s in range(16)])
    stderr = values.std(ddof=1) / math.sqrt(len(values))
    assert abs(values.mean() - exact) < 3.0 * stderr


@pytest.mark.parametrize("n_samples", [-5, 0, 2.5, "100"])
def test_monte_carlo_rejects_a_sample_count_that_is_not_a_positive_int(units, spheres, n_samples):
    # -5 returned 0.0, 0 divided by zero and 2.5 failed inside numpy
    with pytest.raises(ValueError, match="n_samples must be an int >= 1"):
        delta_self_energy_monte_carlo(*spheres, units, n_samples=n_samples)


@pytest.mark.parametrize("kind", ["sphere", "gaussian"])
def test_every_collapse_value_is_a_float(units, kind):
    a = UniformSphere(2.0, 1.0) if kind == "sphere" else Gaussian(2.0, 0.7)
    b = dataclasses.replace(a, center=(0.0, 0.0, 1.5))
    values = [
        delta_self_energy(a, b, units),
        collapse_time(a, b, units),
        delta_self_energy_monte_carlo(a, b, units, n_samples=1000, seed=1),
        *(v for row in separation_sweep(a, [0.0, 1.5, np.inf], units) for v in row if v is not None),
    ]
    assert {type(v) for v in values} == {float}


def test_matches_independent_piecewise_polynomial(units, spheres):
    a, _ = spheres
    for d in (0.0, 0.3, 1.0, 1.7, 2.0, 3.5):
        b = dataclasses.replace(a, center=(0.0, 0.0, d))
        oracle = uniform_sphere_delta_energy(units.G, a.mass, a.radius, d)
        assert delta_self_energy(a, b, units) == pytest.approx(oracle, rel=1e-12, abs=1e-15)
    g = Gaussian(mass=1.3, width=0.4)
    for d in (0.0, 0.2, 1.0, 4.0):
        h = dataclasses.replace(g, center=(0.0, 0.0, d))
        oracle = gaussian_delta_energy(units.G, g.mass, g.width, d)
        assert delta_self_energy(g, h, units) == pytest.approx(oracle, rel=1e-12, abs=1e-15)


def test_large_separation_limit_is_twice_self_term(units, spheres):
    a, _ = spheres
    far = dataclasses.replace(a, center=(0.0, 0.0, 1e12))
    # E -> 2 * (6/5) G M^2 / R under this convention
    assert delta_self_energy(a, far, units) == pytest.approx(
        2.0 * 1.2 * units.G * a.mass**2 / a.radius, rel=1e-10
    )


@pytest.mark.parametrize("center", [(0.0, 0.0, 1e300), (1e300, -1e300, 1e300)])
def test_spheres_1e300_apart_give_the_far_field_form_without_a_warning(units, spheres, center):
    a, _ = spheres
    far = dataclasses.replace(a, center=center)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        e = delta_self_energy(a, far, units)
    # 2 G m^2 (6 / (5 R) - 1 / d)
    oracle = uniform_sphere_delta_energy(units.G, a.mass, a.radius, decimal_distance(a.center, center))
    assert e == pytest.approx(oracle, rel=1e-15, abs=0.0)


def test_centres_1e_300_apart_are_1e_300_apart():
    a = UniformSphere(mass=1.0, radius=1.0)
    assert _separation(a, dataclasses.replace(a, center=(0.0, 0.0, 1e-300))) == 1e-300


@pytest.mark.parametrize("center", [(3e-300, -4e-300, 0.0), (1e-300, 1e-300, 1e-300), (-1e300, 1e300, 1e300)])
def test_separation_neither_overflows_nor_underflows(center):
    a = UniformSphere(mass=1.0, radius=1.0, center=(0.0, 0.0, 0.0))
    assert _separation(a, dataclasses.replace(a, center=center)) == pytest.approx(
        decimal_distance(a.center, center), rel=1e-15, abs=0.0
    )


def test_monotone_in_separation(units, spheres):
    a, _ = spheres
    rows = separation_sweep(a, np.linspace(0.0, 4.0 * a.radius, 33), units)
    energies = [e for _, e, _ in rows]
    assert energies[0] == 0.0
    assert all(e2 >= e1 for e1, e2 in zip(energies, energies[1:]))
    assert rows[0][2] is None  # infinite lifetime marker


@pytest.mark.parametrize("kind", ["sphere", "gaussian"])
def test_sweep_rows_equal_the_displaced_copy_bit_for_bit(units, kind):
    # on the z axis from the origin |c - (c + d z)| is d, so one array pass
    # at the requested d must give each row the bits of its own copy
    a = UniformSphere(2.0, 1.0) if kind == "sphere" else Gaussian(1.3, 1.0)
    # the listed d/R and the benchmark's 949 rows from 1e-9 to 3
    xs = [0.0, 1e-9, 1e-3, 1.937, 2.0, 3.0, *np.logspace(-9.0, np.log10(3.0), 949).tolist()]
    rows = separation_sweep(a, xs + [np.inf], units)
    assert len(rows) == len(xs) + 1
    # a copy at 1e150 R has a cross term far below an ulp of the self terms: the d = inf value
    for (d, e, t), x in zip(rows, xs + [1e150]):
        assert d == (x if x < 1e150 else np.inf)
        copy = dataclasses.replace(a, center=(0.0, 0.0, x))
        assert e == delta_self_energy(a, copy, units)
        assert t == (None if e == 0.0 else collapse_time(a, copy, units))


def test_sweep_keeps_its_edge_cases(units, spheres):
    a, _ = spheres
    assert separation_sweep(a, [], units) == []
    # any iterable of numbers >= 0, checked before any row is evaluated
    assert separation_sweep(a, (d for d in [2, 0]), units) == separation_sweep(a, [2.0, 0.0], units)
    with pytest.raises(ValueError, match=r"separations must be >= 0, got np.float64\(-1.0\)"):
        separation_sweep(a, np.array([0.5, -1.0]), units)


@pytest.mark.parametrize("dist", [UniformSphere(2.0, 1.3), Gaussian(1.5, 0.6)], ids=["sphere", "gaussian"])
def test_radial_closures_equal_the_array_closed_forms(dist):
    # a quadrature value can hide an ulp of one integrand call; the integrands cannot
    rho, V, I = dist.radial()
    s = np.concatenate([[0.0, 1e-14, 1.3, 0.6], np.random.default_rng(3).uniform(0.0, 4.0, 2000)])
    for f, oracle in ((rho, array_radial_density), (V, array_coulomb_potential), (I, array_potential_integral)):
        assert [f(x) for x in s.tolist()] == [oracle(dist, x) for x in s.tolist()]


def test_row_norms_equal_linalg_norm():
    v = np.random.default_rng(4).normal(size=(100_000, 3)) * [1.0, 3.0, 1e-3]
    assert np.array_equal(_row_norms(v), np.linalg.norm(v, axis=1))


def _quadrature_case(kinds, where):
    make = {"sphere": UniformSphere, "gaussian": Gaussian}
    first, second = kinds.split("-")
    a, b = make[first](2.0, 1.0), make[second](1.5, 0.6)
    d = {"zero": 0.0, "inside": 0.45, "touching": 1.6, "apart": 4.8}[where]
    return a, dataclasses.replace(b, center=(0.0, 0.0, d)), d


QUADRATURE_KINDS = ["sphere-gaussian", "gaussian-sphere", "sphere-sphere", "gaussian-gaussian"]
QUADRATURE_WHERE = ["zero", "inside", "touching", "apart"]


@pytest.mark.parametrize("kinds", QUADRATURE_KINDS)
@pytest.mark.parametrize("where", QUADRATURE_WHERE)
def test_quadrature_equals_the_array_integrand_route(kinds, where):
    a, b, d = _quadrature_case(kinds, where)
    assert _pair_quadrature(a, b, d) == array_pair_quadrature(a, b, d)
    assert _pair_quadrature(b, a, d) == array_pair_quadrature(b, a, d)


@pytest.mark.parametrize("kinds", QUADRATURE_KINDS)
@pytest.mark.parametrize("where", QUADRATURE_WHERE)
def test_quadrature_agrees_with_quadpack(kinds, where):
    # scipy's quad (QUADPACK qagse) on the array integrand: another
    # implementation of the rule, with extrapolation, on other code
    a, b, d = _quadrature_case(kinds, where)
    assert _pair_quadrature(a, b, d) == pytest.approx(scipy_pair_quadrature(a, b, d), rel=1e-12, abs=0.0)
    assert _pair_quadrature(b, a, d) == pytest.approx(scipy_pair_quadrature(b, a, d), rel=1e-12, abs=0.0)


def test_sphere_gaussian_row_meets_its_tolerance():
    # a collapse_sweep row (seed 3106) that the bisection alone, blind to the
    # sphere's kinks, returned 3.7e-8 off while reporting convergence to 1e-10
    a = UniformSphere(mass=1.4349213916362625e-14, radius=1.1541352324105535e-07)
    b = Gaussian(mass=1.904331130579297e-14, width=9.851580755947985e-08, center=(0.0, 0.0, 1.3476573104527998e-07))
    d = b.center[2]
    assert pair_kinks(a, b, d) == [d - a.radius, a.radius + d]
    assert _pair_quadrature(a, b, d) == pytest.approx(scipy_pair_quadrature(a, b, d), rel=1e-12, abs=0.0)
    # E against the 50-digit Fourier-space reference of bench/reference.py (fourier_energy)
    assert delta_self_energy(a, b, UnitSystem.si()) == pytest.approx(7.223856580140417e-32, rel=1e-12, abs=0.0)


def test_gauss_kronrod_rule_integrates_polynomials_exactly():
    # the 10-point Gauss rule is exact to degree 19 and its 21-point Kronrod
    # extension to degree 31: a wrong digit in a node or weight shows here
    gauss_nodes = _GK21_NODES[1::2]
    assert np.allclose(sorted(gauss_nodes), np.polynomial.legendre.leggauss(10)[0], rtol=0.0, atol=1e-15)
    for k in range(32):
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        kronrod = math.fsum(w * x**k for w, x in zip(_GK21_KRONROD, _GK21_NODES))
        assert kronrod == pytest.approx(exact, rel=0.0, abs=1e-15)
        if k < 20:
            gauss = math.fsum(w * x**k for w, x in zip(_GK21_GAUSS, gauss_nodes))
            assert gauss == pytest.approx(exact, rel=0.0, abs=1e-15)


def test_math_erf_agrees_with_scipy_erf():
    # the Gaussian forms take math.erf; scipy's cephes erf is an independent implementation
    x = np.logspace(-310.0, 1.0, 3111)
    ours, theirs = [math.erf(v) for v in x.tolist()], scipy.special.erf(x).tolist()
    assert max(abs(p - q) / math.ulp(q) for p, q in zip(ours, theirs)) <= 2.0


def test_gaussian_sweep_at_tiny_separations_keeps_the_cross_term_normal():
    # m1 m2 erf(x) / d left to right underflowed m1 m2 erf(x) to a subnormal
    # and read 1.7e-3 and 1.0 times the far-field E at d = 1e-300 and 1e-310
    si = UnitSystem.si()
    g = Gaussian(1e-14, 1e-7)
    rows = separation_sweep(g, [1e-300, 1e-310, np.inf], si)
    far = rows[-1][1]
    for d, e, _ in rows[:2]:
        assert abs(e - gaussian_delta_energy_series(si.G, g.mass, g.width, d)) <= 1e-15 * far


_HEAVY = {
    "spheres": (UniformSphere(1e153, 1e-7), UniformSphere(1e153, 1e-7, center=(0.0, 0.0, 5e-8))),
    "gaussians": (Gaussian(1e153, 1e-7), Gaussian(1e153, 1e-7, center=(0.0, 0.0, 5e-8))),
    "mixed": (UniformSphere(1e153, 1e-7), Gaussian(1e153, 1e-7, center=(0.0, 0.0, 5e-8))),
}


@pytest.mark.parametrize("pair", sorted(_HEAVY))
def test_an_overflowing_pair_term_is_an_error_that_names_the_pair(pair):
    # G m^2 / R past the float range made E = inf - inf = nan, with RuntimeWarnings
    a, b = _HEAVY[pair]
    with pytest.raises(QlifError, match="not finite") as err:
        delta_self_energy(a, b, UnitSystem.si())
    assert repr(a) in str(err.value) and repr(b) in str(err.value)


@pytest.mark.parametrize("pair", ["spheres", "gaussians"])
def test_an_overflowing_sweep_is_an_error_not_a_row_that_never_collapses(pair):
    # every row read E = nan, which the sweep maps to t = None: "never collapses"
    template = _HEAVY[pair][0]
    with pytest.raises(QlifError, match="not finite") as err:
        separation_sweep(template, [0.0, 5e-8, 1e-6, np.inf], UnitSystem.si())
    assert repr(template) in str(err.value)


@pytest.mark.parametrize("d", [-1.0, np.nan])
def test_sweep_rejects_a_separation_that_is_not_nonnegative(units, spheres, d):
    with pytest.raises(ValueError, match="separations must be >= 0"):
        separation_sweep(spheres[0], [d], units)


@pytest.mark.parametrize(
    "make, match",
    [
        (lambda: Gaussian(1.0, np.inf), "width must be finite and > 0"),
        (lambda: Gaussian(np.nan, 1.0), "mass must be finite and > 0"),
        (lambda: UniformSphere(np.inf, 1.0), "mass must be finite and > 0"),
        (lambda: UniformSphere(1.0, 0.0), "radius must be finite and > 0"),
        (lambda: UniformSphere(1.0, 1.0, (np.nan, 0.0, 0.0)), "center must be a finite 3-vector"),
        (lambda: Gaussian(1.0, 1.0, (0.0, 0.0)), "center must be a finite 3-vector"),
        (lambda: Gaussian(1.0, 1.0, 5.0), "center must be a finite 3-vector"),
        (lambda: UniformSphere(1.0, 1.0, [[0.0, 0.0, 1.0]]), "center must be a finite 3-vector"),
    ],
    ids=[
        "gaussian-inf-width", "gaussian-nan-mass", "sphere-inf-mass", "sphere-zero-radius", "nan-center", "2-center",
        "scalar-center", "nested-center",
    ],
)
def test_distributions_reject_parameters_that_are_not_finite(make, match):
    # an infinite width swept to E = 0 (an infinite lifetime), an infinite
    # mass or a NaN centre to E = nan
    with pytest.raises(ValueError, match=match):
        make()


def test_distributions_store_floats():
    a = UniformSphere(2, 1, center=np.array([0, 0, 1]))
    assert a == UniformSphere(2.0, 1.0, (0.0, 0.0, 1.0))
    assert all(type(v) is float for v in (a.mass, a.radius, *a.center))
    # the rule metrics follow: -0.0 is stored as 0.0
    assert str(Gaussian(1.0, 1.0, (-0.0, 0.0, -0.0)).center) == "(0.0, 0.0, 0.0)"


@pytest.mark.parametrize("kind", sorted(DISTRIBUTION_KINDS))
def test_each_kind_carries_its_forms(kind):
    dist = DISTRIBUTION_KINDS[kind](2.0, 0.5, (1.0, -1.0, 0.5))
    assert dist.kind == kind
    rho, V, _ = dist.radial()
    # the density holds the mass inside the outer radius, and the potential is M / s outside it
    mass, _ = scipy.integrate.quad(lambda r: 4.0 * np.pi * r * r * rho(r), 0.0, dist.outer_radius, epsabs=0.0)
    assert mass == pytest.approx(dist.mass, rel=1e-10)
    assert V(2.0 * dist.outer_radius) == pytest.approx(dist.mass / (2.0 * dist.outer_radius), rel=1e-15)
    points = dist.sample(np.random.default_rng(1), 20_000)
    assert np.max(_row_norms(points - dist.center)) <= dist.outer_radius
    assert np.allclose(np.mean(points, axis=0), dist.center, rtol=0.0, atol=0.02)


def test_sweep_far_field_row_is_the_sum_of_the_self_energies(units, spheres):
    a, _ = spheres
    ((d, e, t),) = separation_sweep(a, [np.inf], units)
    assert d == np.inf
    assert e == units.G * 2.0 * _pair_uniform_equal(a.mass, a.mass, a.radius, np.zeros(1))[0]
    assert t == units.hbar / e


def test_mass_scaling_quadratic(units, spheres):
    a, b = spheres
    base = delta_self_energy(a, b, units)
    for lam in (2.0, 3.0, 10.0):
        scaled = delta_self_energy(
            dataclasses.replace(a, mass=lam * a.mass),
            dataclasses.replace(b, mass=lam * b.mass),
            units,
        )
        assert abs(scaled / lam**2 - base) / base < 1e-10


def test_symmetric_in_arguments(units, spheres):
    a, b = spheres
    assert delta_self_energy(a, b, units) == delta_self_energy(b, a, units)
    g = Gaussian(mass=1.5, width=0.5, center=(0.0, 0.0, 0.8))
    e1 = delta_self_energy(a, g, units)
    e2 = delta_self_energy(g, a, units)
    assert e1 == pytest.approx(e2, rel=1e-9)


def test_translation_invariance(units, spheres):
    a, b = spheres
    base = delta_self_energy(a, b, units)
    shift = np.array([3.5, -2.0, 1.0])
    a2 = dataclasses.replace(a, center=tuple(np.asarray(a.center) + shift))
    b2 = dataclasses.replace(b, center=tuple(np.asarray(b.center) + shift))
    assert delta_self_energy(a2, b2, units) == pytest.approx(base, rel=1e-12)


def test_quadrature_route_matches_analytic(units):
    a = UniformSphere(mass=2.0, radius=1.0)
    for d in (0.0, 0.7, 1.9, 3.0):
        quad = _pair_quadrature(a, dataclasses.replace(a, center=(0, 0, d)), d)
        assert quad == pytest.approx(_pair_uniform_equal(2.0, 2.0, 1.0, np.array([d]))[0], rel=1e-9)


def test_mixed_pair_uses_quadrature_and_matches_monte_carlo(units):
    a = UniformSphere(mass=2.0, radius=1.0)
    g = Gaussian(mass=1.5, width=0.5, center=(0.0, 0.0, 0.8))
    e = delta_self_energy(a, g, units)
    assert e > 0.0
    mc = delta_self_energy_monte_carlo(a, g, units, n_samples=2_000_000, seed=7)
    assert abs(e - mc) / e < 0.005
    # unequal radii also go through quadrature
    b = UniformSphere(mass=2.0, radius=0.5, center=(0.0, 0.0, 1.2))
    e2 = delta_self_energy(a, b, units)
    mc2 = delta_self_energy_monte_carlo(a, b, units, n_samples=2_000_000, seed=8)
    assert abs(e2 - mc2) / e2 < 0.005


def test_quadrature_nonconvergence_signal(units, monkeypatch):
    a = UniformSphere(mass=2.0, radius=1.0)
    g = Gaussian(mass=1.5, width=0.5, center=(0.0, 0.0, 0.8))
    monkeypatch.setattr(collapse, "_QUAD_RTOL", 1e-30)
    with pytest.raises(QuadratureNonConvergence):
        delta_self_energy(a, g, units)


def test_collapse_time_definition(units, spheres):
    a, b = spheres
    e = delta_self_energy(a, b, units)
    t = collapse_time(a, b, units)
    assert t == units.hbar / e  # the defining relation, bit for bit
    assert t * e == pytest.approx(units.hbar, rel=4e-16)


def test_collapse_time_quarter_on_mass_doubling(units, spheres):
    a, b = spheres
    t1 = collapse_time(a, b, units)
    t2 = collapse_time(
        dataclasses.replace(a, mass=2 * a.mass), dataclasses.replace(b, mass=2 * b.mass), units
    )
    assert t2 == pytest.approx(t1 / 4.0, rel=1e-10)


def test_si_and_geometric_unit_consistency():
    si = UnitSystem.si()
    a = UniformSphere(mass=1e-14, radius=1e-7)
    b = UniformSphere(mass=1e-14, radius=1e-7, center=(0.0, 0.0, 2e-7))
    e_si = delta_self_energy(a, b, si)
    t_si = collapse_time(a, b, si)
    # geometric run: lengths stay in meters, masses become G m / c^2,
    # hbar becomes G hbar / c^3 (dimension length^2)
    geo = UnitSystem(c=1.0, G=1.0, hbar=si.hbar_geometric())
    a_g = dataclasses.replace(a, mass=si.mass_to_length(a.mass))
    b_g = dataclasses.replace(b, mass=si.mass_to_length(b.mass))
    e_geo = delta_self_energy(a_g, b_g, geo)
    t_geo = collapse_time(a_g, b_g, geo)
    assert e_geo == pytest.approx(si.energy_to_length(e_si), rel=1e-10)
    assert t_geo == pytest.approx(si.time_to_length(t_si), rel=1e-10)

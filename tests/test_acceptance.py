"""Acceptance suite: one test per release criterion, printed as it passes.

Run with ``pytest -s tests/test_acceptance.py`` to see the one-line
verdicts.  Every tolerance is fixed here, not calibrated at runtime.
"""

import hashlib
import json
import os
import time
from pathlib import Path

import numpy as np
import pytest
import yaml

from conftest import derived_b_xi, line_state, random_point, two_branch_state, x_width
from oracles import (
    frame_defect,
    free_gaussian_width,
    grid_points,
    metric_matrices,
    newtonian_drop,
    perihelion_advance_weak_field,
    uniform_sphere_delta_energy,
)
from qlif.cli import main as cli_main
from qlif.collapse import UniformSphere, collapse_time, delta_self_energy, delta_self_energy_monte_carlo
from qlif.dynamics import (
    GeodesicState,
    evolve_free,
    integrate_geodesic,
    timelike_velocity,
    translation_covariance_check,
)
from qlif.qrf import from_qlif, to_qlif
from qlif.qstate import GridSpec, inner_product, make_state
from qlif.spacetime import FourVector, Schwarzschild, WeakFieldPointMass
from qlif.tetrad import build_tetrad


def _report(name, detail):
    print(f"ACCEPTANCE {name}: {detail} ... PASS")


def test_criterion_1_qlif_existence_64_cubed(units):
    grid = GridSpec(lo=(-4, -4, -4), hi=(4, 4, 4), n=(64, 64, 64))
    state = two_branch_state(units, grid=grid)
    start = time.perf_counter()
    _, report = to_qlif(state)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"transform took {elapsed:.2f}s on a 64^3 grid"
    assert len(report.branches) == 2
    for branch in report.branches:
        assert branch.max_metric_deviation_at_origin < 1e-10
    _report(
        "1 (QLIF existence)",
        f"max|g'(0)-eta| = {report.max_metric_deviation_at_origin:.3e} in both branches, "
        f"{elapsed:.2f}s on 64^3",
    )


def test_criterion_2_unitarity_20_random_states(units):
    rng = np.random.default_rng(2024)
    states = [two_branch_state(units, rng=rng) for _ in range(20)]
    transformed = [to_qlif(s)[0] for s in states]
    worst_pair = 0.0
    for i in range(20):
        j = (i + 7) % 20
        gap = abs(
            inner_product(transformed[i], transformed[j]) - inner_product(states[i], states[j])
        )
        worst_pair = max(worst_pair, gap)
        assert gap < 1e-8
    worst_rt = 0.0
    for s, t in zip(states, transformed):
        rt = abs(inner_product(s, from_qlif(t)) - 1.0)
        worst_rt = max(worst_rt, rt)
        assert rt < 1e-8
    _report("2 (unitarity)", f"max overlap defect {worst_pair:.3e}, max round trip {worst_rt:.3e}")


def test_criterion_3_branch_classicality(units):
    grid = GridSpec(lo=(-2.5, -2.5, -2.5), hi=(2.5, 2.5, 2.5), n=(15, 15, 15))
    state = two_branch_state(units, grid=grid)
    single = make_state([state.branches[0]], grid, units=units)
    out, _ = to_qlif(single)
    field = out.branches[0].source_metric
    mass_pos = single.branches[0].mass_position
    pts = grid_points(grid)
    b, xi = derived_b_xi(out.branches[0], out.grid.negated())
    psi_in = np.asarray(single.branches[0].psi).reshape(-1)
    psi_out_flat = np.asarray(out.branches[0].psi)[::-1, ::-1, ::-1].reshape(-1)
    rng = np.random.default_rng(30)
    worst = 0.0
    for p in rng.choice(pts.shape[0], size=200, replace=False):
        # the classical tetrad map xi = b (x_S - x), b as a matrix
        b_p, _ = build_tetrad(field, FourVector.from_array(pts[p]))
        worst = max(worst, float(np.max(np.abs(b[p] - b_p))))
        worst = max(worst, float(np.max(np.abs(xi[p] - np.diag(b_p) @ (mass_pos.array - pts[p])))))
        # transformed sample = classical measure-weighted sample
        g = metric_matrices(field, pts[p][None, :])[0]
        classical = psi_in[p] * (-np.linalg.det(g)) ** 0.25
        worst = max(worst, abs(psi_out_flat[p] - classical))
    assert worst < 1e-12
    _report("3 (branch classicality)", f"max pointwise gap to the tetrad map {worst:.3e}")


def test_criterion_4_tetrad_correctness(units, catalog):
    rng = np.random.default_rng(44)
    worst_eta, worst_dual = 0.0, 0.0
    for field in catalog.values():
        for _ in range(100):
            x = random_point(field, rng)
            b, f = build_tetrad(field, x)
            g = metric_matrices(field, x.array[None, :])[0]
            worst_eta = max(worst_eta, frame_defect(np.diag(f), g))
            worst_dual = max(worst_dual, float(np.max(np.abs(np.diag(f) @ np.diag(b) - np.eye(4)))))
    assert worst_eta < 1e-10
    assert worst_dual < 1e-12

    # first-order remainder: doubling the local radius doubles the deviation
    field = catalog["weak_field"]
    x = FourVector(0.0, 1.4, 0.3, -0.2)
    _, f = build_tetrad(field, x)

    def deviation(radius):
        # targets x +- radius f_mu e_mu, one local step along each axis
        worst = 0.0
        for mu in range(4):
            for sign in (-1.0, 1.0):
                xp = x.array.copy()
                xp[mu] += sign * radius * f[mu]
                g = metric_matrices(field, xp[None, :])[0]
                worst = max(worst, frame_defect(np.diag(f), g))
        return worst

    ratio = deviation(0.02) / deviation(0.01)
    assert ratio == pytest.approx(2.0, rel=0.2)
    _report(
        "4 (tetrad correctness)",
        f"max|f^T g f - eta| = {worst_eta:.3e}, max|f b - 1| = {worst_dual:.3e}, "
        f"remainder ratio {ratio:.3f}",
    )


def test_criterion_5_equivalence_principle_per_branch(units):
    # (a) weak-field drop against the Newtonian closed form
    mass, z0 = 3e-7, 1.0
    wf = WeakFieldPointMass(units, mass=mass, soft=1e-6, center=(0, 0, 0))
    g_newton = mass / z0**2
    fall_time = np.sqrt(2.0 * 1e-6 * z0 / g_newton)
    x0 = FourVector(0.0, 0.0, 0.0, z0)
    u0 = timelike_velocity(wf, x0, (0.0, 0.0, 0.0))
    traj = integrate_geodesic(wf, GeodesicState(x0, u0, 0.0), fall_time / 400, 400)
    drop_err = 0.0
    for st in traj.states[1:]:
        t_coord = st.x.t / units.c
        depth_oracle = z0 - newtonian_drop(z0, g_newton, t_coord)
        if depth_oracle > 0.0:
            drop_err = max(drop_err, abs((z0 - st.x.z) - depth_oracle) / depth_oracle)
    assert drop_err < 1e-5

    # (b) perihelion advance against 6 pi G M / (c^2 a (1 - e^2))
    sch = Schwarzschild(units, mass=1.0)
    r0 = 2000.0
    u_phi = np.sqrt(sch.mass / r0**3) / np.sqrt(1.0 - 3.0 * sch.mass / r0) * 1.02
    xp0 = FourVector(0.0, r0, np.pi / 2, 0.0)
    up0 = timelike_velocity(sch, xp0, (0.0, 0.0, u_phi))
    t_orbit = 2.0 * np.pi * np.sqrt(r0**3 / sch.mass)
    n = int(4000 * 2.2)
    orbit = integrate_geodesic(sch, GeodesicState(xp0, up0, 0.0), 2.2 * t_orbit / n, n)
    r = np.array([st.x.x for st in orbit.states])
    phi = np.array([st.x.z for st in orbit.states])
    minima = []
    for i in range(1, len(r) - 1):
        if r[i] <= r[i - 1] and r[i] < r[i + 1]:
            denom = r[i - 1] - 2.0 * r[i] + r[i + 1]
            delta = 0.5 * (r[i - 1] - r[i + 1]) / denom if denom != 0.0 else 0.0
            minima.append(phi[i] + delta * 0.5 * (phi[i + 1] - phi[i - 1]))
    advance = minima[0] - 2.0 * np.pi if len(minima) == 1 else np.diff(minima)[0] - 2.0 * np.pi
    a = 0.5 * (r.min() + r.max())
    e = (r.max() - r.min()) / (r.max() + r.min())
    oracle = perihelion_advance_weak_field(sch.mass, a, e, c=units.c)
    peri_rel = abs(advance - oracle) / oracle
    assert peri_rel < 0.02

    # (c) RK4 order by step halving, on a tight orbit with real curvature
    r_tight = 20.0
    xt0 = FourVector(0.0, r_tight, np.pi / 2, 0.0)
    ut0 = timelike_velocity(
        sch, xt0, (0.0, 0.0, np.sqrt(sch.mass / r_tight**3) / np.sqrt(1.0 - 3.0 / r_tight) * 1.02)
    )

    def endpoint(steps):
        tr = integrate_geodesic(sch, GeodesicState(xt0, ut0, 0.0), 400.0 / steps, steps)
        return np.concatenate([tr.states[-1].x.array, tr.states[-1].u.array])

    ref = endpoint(8192)
    ratio = np.linalg.norm(endpoint(128) - ref) / np.linalg.norm(endpoint(256) - ref)
    assert 12.0 <= ratio <= 20.0
    _report(
        "5 (equivalence principle)",
        f"drop err {drop_err:.2e}, perihelion rel {peri_rel:.4f}, RK4 ratio {ratio:.2f}",
    )


def test_criterion_6_flat_space_stationarity(units):
    # gaussian_psi's sigma is the amplitude width: |psi|^2 has rms width 1 along x
    sigma = np.sqrt(2.0)
    state = line_state(units, sigma)
    h = state.grid.spacing[0]
    worst_comm = 0.0
    for steps in (1, 8, 21):
        for t in (0.3, 1.7, 6.0):
            worst_comm = max(
                worst_comm, translation_covariance_check(state, (steps * h, 0.0, 0.0), t, 1.0)
            )
    assert worst_comm < 1e-10
    worst_width = 0.0
    for t in (0.5, 2.0, 5.0):
        width = x_width(evolve_free(state, t, 1.0))
        oracle = free_gaussian_width(sigma / np.sqrt(2.0), t, mass=1.0)
        worst_width = max(worst_width, abs(width - oracle) / oracle)
    assert worst_width < 1e-6
    _report(
        "6 (flat-space stationarity)",
        f"commutator {worst_comm:.3e}, spreading rel err {worst_width:.3e}",
    )


def test_criterion_7_collapse_module(units):
    a = UniformSphere(mass=2.0, radius=1.0)
    b = UniformSphere(mass=2.0, radius=1.0, center=(0.0, 0.0, 1.5))
    analytic = delta_self_energy(a, b, units)
    mc = delta_self_energy_monte_carlo(a, b, units, n_samples=4_000_000, seed=20405)
    mc_rel = abs(analytic - mc) / analytic
    assert mc_rel < 0.005
    assert delta_self_energy(a, a, units) == 0.0
    big = delta_self_energy(
        UniformSphere(mass=6.0, radius=1.0),
        UniformSphere(mass=6.0, radius=1.0, center=(0.0, 0.0, 1.5)),
        units,
    )
    scaling = abs(big / 9.0 - analytic) / analytic
    assert scaling < 1e-10
    t = collapse_time(a, b, units)
    assert t == units.hbar / analytic
    assert t * analytic == pytest.approx(units.hbar, rel=4e-16)
    # and the closed form itself against the independent oracle
    assert analytic == pytest.approx(
        uniform_sphere_delta_energy(units.G, 2.0, 1.0, 1.5), rel=1e-12
    )
    _report(
        "7 (collapse module)",
        f"MC gap {mc_rel:.2e}, E(0) = 0, scaling defect {scaling:.2e}, t = hbar/E",
    )


# SHA-256 of every file the determinism run and the sample-config runs
# write, one section each; QLIF_UPDATE_GOLDEN=1 rewrites a test's section
# after an intended change of output bits.
GOLDEN_CLI = Path(__file__).with_name("golden_cli.json")


def _match_golden(section: str, digests: dict) -> None:
    golden = json.loads(GOLDEN_CLI.read_text(encoding="utf-8"))
    if os.environ.get("QLIF_UPDATE_GOLDEN"):
        golden[section] = digests
        GOLDEN_CLI.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    assert digests == golden.get(section)


def _digests(base: Path) -> dict:
    return {
        p.relative_to(base).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(base.rglob("*"))
        if p.is_file()
    }


def test_criterion_8_determinism(tmp_path):
    config = {
        "units": "geometric",
        "seed": 9,
        "metrics": {
            "g_left": {"kind": "weak_field_point_mass", "mass": 1e-6, "soft": 1e-3, "center": [-1.5, 0, 0]},
            "g_right": {"kind": "weak_field_point_mass", "mass": 1e-6, "soft": 1e-3, "center": [1.5, 0, 0]},
        },
        "grid": {"lo": [-3, -3, -3], "hi": [3, 3, 3], "n": [16, 16, 16]},
        "branches": [
            {"label": "L", "metric": "g_left", "mass_position": [0, -1.5, 0, 0],
             "packet": {"center": [0, 0, 0.5], "sigma": 0.5}},
            {"label": "R", "metric": "g_right", "mass_position": [0, 1.5, 0, 0],
             "packet": {"center": [0, 0, 0.5], "sigma": 0.5}},
        ],
        "transform": {"check_radii": [0.05]},
        "geodesics": {"dtau": 1.0, "steps": 20},
        "collapse": {
            "distribution": {"kind": "uniform_sphere", "mass": 2.0, "radius": 1.0},
            "separations": [0.0, 0.5, 1.0, 2.0],
        },
    }
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(yaml.safe_dump(config), encoding="utf-8")
    outputs = {}
    for run in ("r1", "r2"):
        base = tmp_path / run
        assert cli_main(["transform", "--config", str(cfg), "--out", str(base / "t")]) == 0
        assert cli_main(["geodesics", "--config", str(cfg), "--out", str(base / "g")]) == 0
        assert cli_main(["collapse", "--config", str(cfg), "--out", str(base / "c")]) == 0
        outputs[run] = {
            p.relative_to(base): p.read_bytes() for p in sorted(base.rglob("*")) if p.is_file()
        }
    assert set(outputs["r1"]) == set(outputs["r2"])
    for name in outputs["r1"]:
        assert outputs["r1"][name] == outputs["r2"][name], f"{name} differs between runs"
    _match_golden("determinism", _digests(tmp_path / "r1"))
    _report(
        "8 (determinism)",
        f"{len(outputs['r1'])} output files byte-identical across two runs and to {GOLDEN_CLI.name}",
    )


CONFIGS = Path(__file__).resolve().parents[1] / "configs"
# Every subcommand on the sample config that has its section, as in the README.
SAMPLE_RUNS = [
    ("transform", "two_branch_weakfield"),
    ("geodesics", "two_branch_weakfield"),
    ("collapse", "collapse_si"),
    ("selftest", "selftest"),
]


def _run_sample_configs(base: Path, capsys) -> dict:
    assert {cfg for _, cfg in SAMPLE_RUNS} == {p.stem for p in CONFIGS.glob("*.yaml")}
    for command, cfg in SAMPLE_RUNS:
        out = base / f"{cfg}.{command}"
        assert cli_main([command, "--config", str(CONFIGS / f"{cfg}.yaml"), "--out", str(out)]) == 0
    capsys.readouterr()  # the selftest's verdict lines
    return _digests(base)


def test_sample_configs_match_golden_outputs(tmp_path, capsys):
    _match_golden("sample_configs", _run_sample_configs(tmp_path, capsys))


def test_sample_configs_need_no_dense_linear_algebra(tmp_path, capsys, monkeypatch):
    # every catalog metric is diagonal, so no subcommand needs a determinant,
    # an inverse or an eigendecomposition: with all three gone the outputs
    # keep their golden bits
    def forbidden(*args, **kwargs):
        raise AssertionError("dense linear algebra on a diagonal metric")

    for name in ("det", "inv", "eigh"):
        monkeypatch.setattr(np.linalg, name, forbidden)
    digests = _run_sample_configs(tmp_path, capsys)
    assert digests == json.loads(GOLDEN_CLI.read_text(encoding="utf-8"))["sample_configs"]

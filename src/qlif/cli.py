"""Command-line entry point: transform | geodesics | collapse | selftest.

Configs are YAML, parsed strictly (unknown keys are errors: a silently
ignored typo in a physics config produces wrong science).  All outputs are
plain structured text (JSON reports, CSV tables, the binary state
container) with deterministic formatting: running the same config and seed
twice produces byte-identical files.

Exit codes: 0 success, 1 tolerance failure, 2 precondition/config error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np
import yaml

from . import collapse as collapse_mod
from .collapse import CONVENTION, Gaussian, UniformSphere, delta_self_energy
from .dynamics import (
    GeodesicState,
    drift_figures,
    geodesic_superposition,
    integrate_geodesic,
    timelike_velocity,
    translation_covariance_check,
)
from .errors import QlifError
from .qrf import check_qlif_metric, from_qlif, to_qlif
from .qstate import (
    Branch,
    GridSpec,
    SuperposedState,
    gaussian_psi,
    inner_product,
    make_state,
    save_state,
)
from .spacetime import (
    FourVector,
    MetricField,
    Minkowski,
    Schwarzschild,
    UnitSystem,
    WeakFieldPointMass,
    metric_from_dict,
)
from .tetrad import build_tetrad, diagonal_frame_deviation


class ConfigError(Exception):
    """Configuration file problem (strict parsing)."""


def _check_keys(mapping, allowed, required, where):
    if not isinstance(mapping, dict):
        raise ConfigError(f"{where}: expected a mapping")
    unknown = set(mapping) - set(allowed)
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
    missing = set(required) - set(mapping)
    if missing:
        raise ConfigError(f"{where}: missing keys {sorted(missing)}")


def _convert(where: str, convert, value):
    """convert(value), any failure to convert reported as a ConfigError at ``where``."""
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _vector(value, n: int = 3) -> tuple[float, ...]:
    a = np.asarray(value, dtype=float)
    if a.shape != (n,) or not np.all(np.isfinite(a)):
        raise ValueError(f"expected {n} finite numbers, got {value!r}")
    return tuple(float(v) for v in a)


def _positive(value) -> float:
    v = float(value)
    if not (v > 0.0 and np.isfinite(v)):
        raise ValueError(f"expected a finite number > 0, got {value!r}")
    return v


def _widths(value) -> tuple[float, ...]:
    """One width > 0 for every axis, or one per axis."""
    return tuple(_positive(v) for v in ((value,) * 3 if np.ndim(value) == 0 else _vector(value)))


def _distances(value) -> tuple[float, ...]:
    """A list of numbers >= 0 (.inf allowed)."""
    a = np.asarray(value, dtype=float)
    if a.ndim != 1 or not np.all(a >= 0.0):
        raise ValueError(f"expected a list of numbers >= 0, got {value!r}")
    return tuple(float(v) for v in a)


def _count(value) -> int:
    n = int(value)
    if n != float(value) or n < 0:
        raise ValueError(f"expected a whole number >= 0, got {value!r}")
    return n


def _amplitude(value) -> complex:
    """A finite number or [re, im]."""
    a = complex(value) if np.ndim(value) == 0 else complex(*_vector(value, 2))
    if not np.isfinite(a):
        raise ValueError(f"expected a finite number, got {value!r}")
    return a


def _parse_units(spec) -> UnitSystem:
    if spec == "geometric":
        return UnitSystem.geometric()
    if spec == "si":
        return UnitSystem.si()
    if isinstance(spec, dict):
        _check_keys(spec, {"c", "G", "hbar"}, {"c", "G", "hbar"}, "units")
        return _convert("units", lambda u: UnitSystem(**{k: float(v) for k, v in u.items()}), spec)
    raise ConfigError(f"units: expected 'geometric', 'si', or a mapping, got {spec!r}")


def _tolerance(value) -> float:
    v = float(value)
    if not (v >= 0.0 and np.isfinite(v)):
        raise ValueError(f"expected a finite number >= 0, got {value!r}")
    return v


def _parse_tolerances(section: dict, defaults: dict, where: str) -> dict:
    given = section.get("tolerances") or {}
    _check_keys(given, defaults, set(), where)
    return {**defaults, **{k: _convert(f"{where}.{k}", _tolerance, v) for k, v in given.items()}}


TOP_KEYS = {"units", "seed", "metrics", "grid", "branches", "transform", "geodesics", "collapse", "selftest"}

# Default tolerances; a config may override any of these keys and no other.
TRANSFORM_TOLERANCES = {"metric_deviation": 1e-10, "roundtrip": 1e-8, "norm_drift": 1e-8}
SELFTEST_TOLERANCES = {
    "tetrad_eta": 1e-10,
    "tetrad_duality": 1e-12,
    "unitarity": 1e-8,
    "roundtrip": 1e-8,
    "rk4_ratio_lo": 12.0,
    "rk4_ratio_hi": 20.0,
    "scaling": 1e-10,
}


@dataclass(frozen=True)
class BranchSpec:
    """One configured branch; its wavefunction is a ``gaussian_psi`` packet."""

    label: str
    amplitude: complex
    metric: MetricField
    mass_position: FourVector
    center: tuple[float, float, float]
    sigma: tuple[float, float, float]
    momentum: tuple[float, float, float] | None


class Scenario:
    """Validated configuration: every value is converted here, once.

    Any key or value problem raises ConfigError; the subcommands read only
    the typed attributes.
    """

    def __init__(self, raw: dict):
        _check_keys(raw, TOP_KEYS, {"units"}, "config")
        self.units = _parse_units(raw["units"])
        self.seed = _convert("seed", _count, raw.get("seed", 0))
        metrics = raw.get("metrics") or {}
        if not isinstance(metrics, dict):
            raise ConfigError("metrics: expected a mapping")
        self.metrics = {
            str(mid): _convert(f"metrics.{mid}", lambda spec: metric_from_dict(spec, self.units), spec)
            for mid, spec in metrics.items()
        }
        self.grid = None
        if "grid" in raw:
            _check_keys(raw["grid"], {"lo", "hi", "n", "t0"}, {"lo", "hi", "n"}, "grid")
            self.grid = _convert("grid", lambda g: GridSpec(**{**g, "t0": float(g.get("t0", 0.0))}), raw["grid"])
        branches = raw.get("branches") or []
        if not isinstance(branches, list):
            raise ConfigError("branches: expected a list")
        self.branches = [self._branch(i, b) for i, b in enumerate(branches)]

        transform = raw.get("transform", {})
        _check_keys(transform, {"tolerances", "check_radii"}, set(), "transform")
        self.transform_tolerances = _parse_tolerances(transform, TRANSFORM_TOLERANCES, "transform.tolerances")
        self.check_radii = _convert("transform.check_radii", _distances, transform.get("check_radii") or [])
        if not np.all(np.isfinite(self.check_radii)):
            raise ConfigError(f"transform.check_radii: expected finite radii, got {list(self.check_radii)!r}")

        geodesics = raw.get("geodesics", {})
        _check_keys(geodesics, {"local_velocity", "dtau", "steps"}, set(), "geodesics")
        self.local_velocity = _convert("geodesics.local_velocity", _vector, geodesics.get("local_velocity", (0.0,) * 3))
        if np.dot(self.local_velocity, self.local_velocity) >= self.units.c**2:
            raise ConfigError("geodesics.local_velocity: speed must be below c")
        self.dtau = _convert("geodesics.dtau", _positive, geodesics["dtau"]) if "dtau" in geodesics else None
        self.steps = _convert("geodesics.steps", _count, geodesics["steps"]) if "steps" in geodesics else None

        # the distribution record as written is echoed in the collapse summary
        collapse = raw.get("collapse")
        self.distribution = self.distribution_spec = self.separations = self.axis = None
        if collapse is not None:
            _check_keys(collapse, {"distribution", "separations", "axis"}, {"distribution", "separations"}, "collapse")
            self.distribution_spec = collapse["distribution"]
            self.distribution = _parse_distribution(self.distribution_spec)
            self.separations = _convert("collapse.separations", _distances, collapse["separations"])
            self.axis = _convert("collapse.axis", _vector, collapse.get("axis", (0.0, 0.0, 1.0)))
            if not any(self.axis):
                raise ConfigError("collapse.axis: must not be zero")

        selftest = raw.get("selftest", {})
        _check_keys(selftest, {"tolerances"}, set(), "selftest")
        self.selftest_tolerances = _parse_tolerances(selftest, SELFTEST_TOLERANCES, "selftest.tolerances")

    def _branch(self, i: int, b) -> BranchSpec:
        where = f"branches[{i}]"
        required = {"label", "metric", "mass_position", "packet"}
        _check_keys(b, required | {"amplitude"}, required, where)
        metric = self.metrics.get(str(b["metric"]))
        if metric is None:
            raise ConfigError(f"{where}: metric id {b['metric']!r} not defined")
        pk = b["packet"]
        _check_keys(pk, {"center", "sigma", "momentum"}, {"center", "sigma"}, f"{where}.packet")
        return BranchSpec(
            label=str(b["label"]),
            amplitude=_convert(f"{where}.amplitude", _amplitude, b.get("amplitude", 1.0)),
            metric=metric,
            mass_position=_convert(f"{where}.mass_position", FourVector.from_array, b["mass_position"]),
            center=_convert(f"{where}.packet.center", _vector, pk["center"]),
            sigma=_convert(f"{where}.packet.sigma", _widths, pk["sigma"]),
            momentum=_convert(f"{where}.packet.momentum", lambda m: m if m is None else _vector(m), pk.get("momentum")),
        )

    def build_state(self) -> SuperposedState:
        if self.grid is None or not self.branches:
            raise ConfigError("this command needs 'grid' and 'branches' sections")
        psi = [gaussian_psi(self.grid, b.center, b.sigma, b.momentum, self.units.hbar) for b in self.branches]
        branches = [Branch(b.amplitude, b.label, b.mass_position, b.metric, p) for b, p in zip(self.branches, psi)]
        return make_state(branches, self.grid, units=self.units)


# collapse.distribution kinds: (class, name of the size parameter)
DISTRIBUTIONS = {"uniform_sphere": (UniformSphere, "radius"), "gaussian": (Gaussian, "width")}


def _parse_distribution(spec):
    where = "collapse.distribution"
    kind = spec.get("kind") if isinstance(spec, dict) else None
    if kind not in DISTRIBUTIONS:
        raise ConfigError(f"{where}: unknown kind {kind!r}")
    cls, size = DISTRIBUTIONS[kind]
    _check_keys(spec, {"kind", "mass", size, "center"}, {"kind", "mass", size}, where)
    mass = _convert(f"{where}.mass", _positive, spec["mass"])
    extent = _convert(f"{where}.{size}", _positive, spec[size])
    center = _convert(f"{where}.center", _vector, spec.get("center", (0.0, 0.0, 0.0)))
    return cls(mass, extent, center=center)


def _fmt(x) -> str:
    """Shortest round-trip decimal for a float; deterministic."""
    return repr(float(x))


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def _write_csv(path: Path, header: list[str], rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(cell if isinstance(cell, str) else _fmt(cell) for cell in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_transform(scn: Scenario, out: Path) -> int:
    tol = scn.transform_tolerances
    state = scn.build_state()
    transformed, report = to_qlif(state)
    save_state(transformed, out / "state_qlif.qst")

    checks = {
        "metric_deviation": report.max_metric_deviation_at_origin <= tol["metric_deviation"],
        "roundtrip": report.roundtrip_error <= tol["roundtrip"],
        "norm_drift": abs(report.norm_after - report.norm_before) <= tol["norm_drift"],
    }
    payload = {
        "report": asdict(report),
        "local_deviation_table": [asdict(row) for row in check_qlif_metric(transformed, *scn.check_radii)],
        "tolerances": tol,
        "checks": checks,
        "passed": all(checks.values()),
        "seed": scn.seed,
    }
    _write_json(out / "transform_report.json", payload)
    return 0 if payload["passed"] else 1


def cmd_geodesics(scn: Scenario, out: Path) -> int:
    if scn.dtau is None or scn.steps is None:
        raise ConfigError("geodesics: 'dtau' and 'steps' are required")
    state = scn.build_state()
    results = geodesic_superposition(state, scn.local_velocity, scn.dtau, scn.steps)
    c = scn.units.c

    summary = []
    for idx, (branch, bt) in enumerate(zip(state.branches, results)):
        name = f"geodesic_{idx}_{bt.mass_label}.csv"
        rows = []
        for st in bt.trajectory.states:
            a = st.x.array
            uv = st.u.array
            rows.append([st.tau, a[0] / c, a[1], a[2], a[3], uv[0], uv[1], uv[2], uv[3]])
        _write_csv(out / name, ["tau", "t", "x", "y", "z", "u0", "u1", "u2", "u3"], rows)
        norm_drift, energy_drift, angular_momentum_drift = drift_figures(branch.metric, bt.trajectory)
        summary.append(
            {
                "file": name,
                "mass_label": bt.mass_label,
                "metric_id": bt.metric_id,
                "states": len(bt.trajectory.states),
                "completed": bt.trajectory.completed,
                "norm_drift": norm_drift,
                "energy_drift": energy_drift,
                "angular_momentum_drift": angular_momentum_drift,
                "warning": None if bt.trajectory.completed else str(bt.trajectory.error),
            }
        )
    _write_json(out / "geodesics_summary.json", {"branches": summary, "seed": scn.seed})
    return 0


def cmd_collapse(scn: Scenario, out: Path) -> int:
    if scn.distribution is None:
        raise ConfigError("this command needs a 'collapse' section")
    rows = collapse_mod.separation_sweep(scn.distribution, scn.separations, scn.units, axis=scn.axis)

    u = scn.units
    table = []
    for d, e, t in rows:
        d_geo = d  # lengths are the geometric base unit
        e_geo = u.energy_to_length(e)
        t_geo = u.time_to_length(t) if t is not None else None
        table.append(
            [
                d,
                e,
                "inf" if t is None else t,
                d_geo,
                e_geo,
                "inf" if t_geo is None else t_geo,
            ]
        )
    _write_csv(
        out / "collapse_table.csv",
        ["d", "E_delta", "t_delta", "d_geom", "E_delta_geom", "t_delta_geom"],
        table,
    )
    _write_json(
        out / "collapse_summary.json",
        {
            "convention": CONVENTION,
            "distribution": scn.distribution_spec,
            "rows": len(table),
            "seed": scn.seed,
        },
    )
    return 0


def _selftest_checks(scn: Scenario):
    """(name, value, threshold, passed) rows for the built-in invariant suite."""
    tol = scn.selftest_tolerances
    u = UnitSystem.geometric()
    rng = np.random.default_rng(scn.seed)
    rows = []

    # Frame invariants over the catalog.
    fields = [
        WeakFieldPointMass(u, mass=1e-5, soft=1e-3, center=(0.3, -0.2, 0.1)),
        Schwarzschild(u, mass=1.0),
    ]
    worst_eta, worst_dual = 0.0, 0.0
    for field in fields:
        for _ in range(25):
            if isinstance(field, Schwarzschild):
                x = FourVector(0.0, rng.uniform(5.0, 15.0), rng.uniform(0.6, 2.5), rng.uniform(0, 2 * np.pi))
            else:
                x = FourVector(0.0, *rng.uniform(-2.0, 2.0, 3))
            b, f = build_tetrad(field, x)
            worst_eta = max(worst_eta, float(diagonal_frame_deviation(field.diagonal_at(x)[None, :])[0]))
            worst_dual = max(worst_dual, float(np.max(np.abs(f * b - 1.0))))
    rows.append(("tetrad_eta", worst_eta, tol["tetrad_eta"], worst_eta < tol["tetrad_eta"]))
    rows.append(("tetrad_duality", worst_dual, tol["tetrad_duality"], worst_dual < tol["tetrad_duality"]))

    # QLIF unitarity and round trip on a small two-branch state.
    # Metrics are values: the ones built for the second state are the keys
    # (and the cached measures) of the first.
    grid = GridSpec(lo=(-3, -3, -3), hi=(3, 3, 3), n=(17, 17, 17))

    def rand_state():
        branches = [
            Branch(
                complex(rng.normal(), rng.normal()),
                label,
                FourVector(0, x, 0, 0),
                WeakFieldPointMass(u, mass=1e-6, soft=1e-3, center=(x, 0, 0)),
                gaussian_psi(grid, rng.uniform(-0.5, 0.5, 3), rng.uniform(0.4, 0.8)),
            )
            for label, x in (("L", -1.0), ("R", 1.0))
        ]
        return make_state(branches, grid, units=u)

    a, b = rand_state(), rand_state()
    ta, _ = to_qlif(a)
    tb, rep = to_qlif(b)
    unit_err = abs(inner_product(ta, tb) - inner_product(a, b))
    rows.append(("unitarity", unit_err, tol["unitarity"], unit_err < tol["unitarity"]))
    rt = abs(inner_product(b, from_qlif(tb)) - 1.0)
    rows.append(("roundtrip", rt, tol["roundtrip"], rt < tol["roundtrip"]))

    # RK4 convergence order on a Schwarzschild arc.
    sch = Schwarzschild(u, mass=1.0)
    x0 = FourVector(0.0, 20.0, np.pi / 2, 0.0)
    u0 = timelike_velocity(sch, x0, (0.0, 0.0, np.sqrt(1.0 / 20.0**3) / np.sqrt(1 - 3 / 20.0) * 1.02))
    span = 200.0

    def endpoint(n):
        tr = integrate_geodesic(sch, GeodesicState(x0, u0, 0.0), span / n, n)
        return np.concatenate([tr.states[-1].x.array, tr.states[-1].u.array])

    ref = endpoint(4096)
    ratio = np.linalg.norm(endpoint(64) - ref) / np.linalg.norm(endpoint(128) - ref)
    rows.append(
        (
            "rk4_order_ratio",
            float(ratio),
            (tol["rk4_ratio_lo"], tol["rk4_ratio_hi"]),
            tol["rk4_ratio_lo"] <= ratio <= tol["rk4_ratio_hi"],
        )
    )

    # Quadratic mass scaling of the difference self-energy.
    s1 = UniformSphere(mass=2.0, radius=1.0)
    s2 = UniformSphere(mass=2.0, radius=1.0, center=(0, 0, 1.5))
    e1 = delta_self_energy(s1, s2, u)
    e4 = delta_self_energy(
        UniformSphere(mass=4.0, radius=1.0), UniformSphere(mass=4.0, radius=1.0, center=(0, 0, 1.5)), u
    )
    scal = abs(e4 / 4.0 - e1) / e1
    rows.append(("energy_mass_scaling", scal, tol["scaling"], scal < tol["scaling"]))

    # Translation-evolution commutation (flat-space stationarity core) on a
    # one-branch flat state, thin in y and z; |psi|^2 has rms width 1 along x.
    line = GridSpec(lo=(-20, -1, -1), hi=(20, 1, 1), n=(512, 2, 2))
    psi = gaussian_psi(line, (0.0, 0.0, 0.0), (np.sqrt(2.0), 1.0, 1.0))
    flat = make_state([Branch(1.0, "free", FourVector(0, 0, 0, 0), Minkowski(u), psi)], line, units=u)
    comm = translation_covariance_check(flat, (5 * line.spacing[0], 0.0, 0.0), 2.0, 1.0)
    rows.append(("translation_commutator", comm, 1e-10, comm < 1e-10))
    return rows


def cmd_selftest(scn: Scenario, out: Path) -> int:
    rows = _selftest_checks(scn)
    ok = True
    report = []
    for name, value, threshold, passed in rows:
        ok &= passed
        print(f"[{'PASS' if passed else 'FAIL'}] {name}: {value!r} (threshold {threshold!r})")
        report.append(
            {
                "check": name,
                "value": float(value),
                "threshold": list(threshold) if isinstance(threshold, tuple) else float(threshold),
                "passed": bool(passed),
            }
        )
    _write_json(out / "selftest_report.json", {"checks": report, "passed": bool(ok), "seed": scn.seed})
    return 0 if ok else 1


COMMANDS = {"transform": cmd_transform, "geodesics": cmd_geodesics, "collapse": cmd_collapse, "selftest": cmd_selftest}


# ---------------------------------------------------------------------------


def _error_record(out: Path | None, kind: str, message: str) -> None:
    record = {"error": {"kind": kind, "message": message}}
    sys.stderr.write(json.dumps(record, sort_keys=True) + "\n")
    if out is not None:
        try:
            _write_json(out / "error.json", record)
        except OSError:
            pass


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="qlif",
        description="Superposed-spacetime state transforms, geodesics, and collapse tables.",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="YAML scenario file")
    parser.add_argument("--out", required=True, help="output directory (created if missing)")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    args = parser.parse_args(argv)

    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        _error_record(None, "config", f"cannot create output directory: {exc}")
        return 2

    try:
        # the safe constructor, from libyaml where it is built in
        loader = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
        raw = yaml.load(Path(args.config).read_text(encoding="utf-8"), Loader=loader)
    except OSError as exc:
        _error_record(out, "config", f"cannot read config: {exc}")
        return 2
    except yaml.YAMLError as exc:
        _error_record(out, "config", f"invalid YAML: {exc}")
        return 2

    try:
        scn = Scenario(raw if raw is not None else {})
        if args.seed is not None:
            scn.seed = _convert("--seed", _count, args.seed)
        return COMMANDS[args.command](scn, out)
    except ConfigError as exc:
        _error_record(out, "config", str(exc))
        return 2
    except QlifError as exc:
        _error_record(out, type(exc).__name__, str(exc))
        return 2


if __name__ == "__main__":
    sys.exit(main())

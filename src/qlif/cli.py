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
from pathlib import Path

import numpy as np
import yaml

from . import collapse as collapse_mod
from .collapse import CONVENTION, Gaussian, UniformSphere, delta_self_energy
from .dynamics import (
    GeodesicState,
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
from .spacetime import FourVector, Minkowski, Schwarzschild, UnitSystem, WeakFieldPointMass, metric_from_dict
from .tetrad import build_tetrad, frame_residual


class ConfigError(Exception):
    """Configuration file problem (strict parsing)."""


def _check_keys(mapping, allowed, required, where):
    if not isinstance(mapping, dict):
        raise ConfigError(f"{where}: expected a mapping")
    unknown = set(mapping) - set(allowed)
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
    _require_keys(mapping, required, where)


def _require_keys(mapping, required, where):
    missing = set(required) - set(mapping)
    if missing:
        raise ConfigError(f"{where}: missing keys {sorted(missing)}")


def _parse_units(spec) -> UnitSystem:
    if spec == "geometric":
        return UnitSystem.geometric()
    if spec == "si":
        return UnitSystem.si()
    if isinstance(spec, dict):
        _check_keys(spec, {"c", "G", "hbar"}, {"c", "G", "hbar"}, "units")
        return UnitSystem(c=float(spec["c"]), G=float(spec["G"]), hbar=float(spec["hbar"]))
    raise ConfigError(f"units: expected 'geometric', 'si', or a mapping, got {spec!r}")


def _parse_tolerances(section: dict, defaults: dict, where: str) -> dict:
    given = section.get("tolerances") or {}
    _check_keys(given, defaults, set(), where)
    try:
        return {**defaults, **{k: float(v) for k, v in given.items()}}
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _parse_amplitude(v) -> complex:
    if isinstance(v, (int, float)):
        return complex(v)
    if isinstance(v, list) and len(v) == 2:
        return complex(float(v[0]), float(v[1]))
    raise ConfigError(f"amplitude must be a number or [re, im], got {v!r}")


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


class Scenario:
    """Validated configuration, ready to build physics objects from."""

    def __init__(self, raw: dict):
        _check_keys(raw, TOP_KEYS, {"units"}, "config")
        self.units = _parse_units(raw["units"])
        self.seed = int(raw.get("seed", 0))
        self.metrics = {}
        for mid, spec in (raw.get("metrics") or {}).items():
            try:
                self.metrics[str(mid)] = metric_from_dict(spec, self.units)
            except (ValueError, KeyError, TypeError) as exc:
                raise ConfigError(f"metrics.{mid}: {exc}") from exc
        self.grid = None
        if "grid" in raw:
            g = raw["grid"]
            _check_keys(g, {"lo", "hi", "n", "t0"}, {"lo", "hi", "n"}, "grid")
            try:
                self.grid = GridSpec(
                    lo=tuple(g["lo"]), hi=tuple(g["hi"]), n=tuple(g["n"]), t0=float(g.get("t0", 0.0))
                )
            except (ValueError, TypeError) as exc:
                raise ConfigError(f"grid: {exc}") from exc
        self.branches = raw.get("branches")
        if self.branches is not None:
            for i, b in enumerate(self.branches):
                _check_keys(
                    b,
                    {"label", "amplitude", "metric", "mass_position", "packet"},
                    {"label", "metric", "mass_position", "packet"},
                    f"branches[{i}]",
                )
                if b["metric"] not in self.metrics:
                    raise ConfigError(f"branches[{i}]: metric id {b['metric']!r} not defined")
                _check_keys(
                    b["packet"], {"center", "sigma", "momentum"}, {"center", "sigma"}, f"branches[{i}].packet"
                )
        self.transform = raw.get("transform", {})
        _check_keys(self.transform, {"tolerances", "check_radii"}, set(), "transform")
        self.transform_tolerances = _parse_tolerances(self.transform, TRANSFORM_TOLERANCES, "transform.tolerances")
        self.geodesics = raw.get("geodesics", {})
        _check_keys(self.geodesics, {"local_velocity", "dtau", "steps"}, set(), "geodesics")
        self.collapse = raw.get("collapse")
        if self.collapse is not None:
            _check_keys(
                self.collapse, {"distribution", "separations", "axis"}, {"distribution", "separations"}, "collapse"
            )
        self.selftest = raw.get("selftest", {})
        _check_keys(self.selftest, {"tolerances"}, set(), "selftest")
        self.selftest_tolerances = _parse_tolerances(self.selftest, SELFTEST_TOLERANCES, "selftest.tolerances")

    def build_state(self) -> SuperposedState:
        if self.grid is None or not self.branches:
            raise ConfigError("this command needs 'grid' and 'branches' sections")
        branches = []
        for b in self.branches:
            pk = b["packet"]
            psi = gaussian_psi(
                self.grid,
                center=pk["center"],
                sigma=pk["sigma"],
                momentum=pk.get("momentum"),
                hbar=self.units.hbar,
            )
            branches.append(
                Branch(
                    amplitude=_parse_amplitude(b.get("amplitude", 1.0)),
                    mass_label=str(b["label"]),
                    mass_position=FourVector.from_array(b["mass_position"]),
                    metric=self.metrics[b["metric"]],
                    psi=psi,
                )
            )
        return make_state(branches, self.grid, units=self.units)

    def build_distribution(self):
        spec = self.collapse["distribution"]
        kind = spec.get("kind") if isinstance(spec, dict) else None
        if kind == "uniform_sphere":
            _check_keys(spec, {"kind", "mass", "radius", "center"}, {"kind", "mass", "radius"}, "collapse.distribution")
            cls, size_key = UniformSphere, "radius"
        elif kind == "gaussian":
            _check_keys(spec, {"kind", "mass", "width", "center"}, {"kind", "mass", "width"}, "collapse.distribution")
            cls, size_key = Gaussian, "width"
        else:
            raise ConfigError(f"collapse.distribution: unknown kind {kind!r}")
        try:
            return cls(
                spec["mass"], spec[size_key], center=tuple(spec.get("center", (0.0, 0.0, 0.0)))
            )
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"collapse.distribution: {exc}") from exc


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
    radii = scn.transform.get("check_radii") or []

    state = scn.build_state()
    transformed, report = to_qlif(state)
    save_state(transformed, out / "state_qlif.qst")

    deviation_rows = []
    for r in radii:
        for row in check_qlif_metric(transformed, float(r)):
            deviation_rows.append(
                {
                    "mass_label": row.mass_label,
                    "metric_id": row.metric_id,
                    "radius": float(row.radius),
                    "max_deviation": float(row.max_deviation),
                }
            )

    checks = {
        "metric_deviation": report.max_metric_deviation_at_origin <= tol["metric_deviation"],
        "roundtrip": report.roundtrip_error <= tol["roundtrip"],
        "norm_drift": abs(report.norm_after - report.norm_before) <= tol["norm_drift"],
    }
    payload = {
        "report": {
            "norm_before": float(report.norm_before),
            "norm_after": float(report.norm_after),
            "max_metric_deviation_at_origin": float(report.max_metric_deviation_at_origin),
            "roundtrip_error": float(report.roundtrip_error),
            "branches": [
                {
                    "mass_label": b.mass_label,
                    "metric_id": b.metric_id,
                    "max_metric_deviation_at_origin": float(b.max_metric_deviation_at_origin),
                }
                for b in report.branches
            ],
        },
        "local_deviation_table": deviation_rows,
        "tolerances": {k: float(v) for k, v in tol.items()},
        "checks": checks,
        "passed": all(checks.values()),
        "seed": scn.seed,
    }
    _write_json(out / "transform_report.json", payload)
    return 0 if payload["passed"] else 1


def cmd_geodesics(scn: Scenario, out: Path) -> int:
    _require_keys(scn.geodesics, {"dtau", "steps"}, "geodesics")
    v = scn.geodesics.get("local_velocity", [0.0, 0.0, 0.0])
    dtau = float(scn.geodesics["dtau"])
    steps = int(scn.geodesics["steps"])
    state = scn.build_state()
    results = geodesic_superposition(state, v, dtau, steps)
    c = scn.units.c

    summary = []
    for idx, bt in enumerate(results):
        name = f"geodesic_{idx}_{bt.mass_label}.csv"
        rows = []
        for st in bt.trajectory.states:
            a = st.x.array
            uv = st.u.array
            rows.append([st.tau, a[0] / c, a[1], a[2], a[3], uv[0], uv[1], uv[2], uv[3]])
        _write_csv(out / name, ["tau", "t", "x", "y", "z", "u0", "u1", "u2", "u3"], rows)
        summary.append(
            {
                "file": name,
                "mass_label": bt.mass_label,
                "metric_id": bt.metric_id,
                "states": len(bt.trajectory.states),
                "completed": bt.trajectory.completed,
                "warning": None if bt.trajectory.completed else str(bt.trajectory.error),
            }
        )
    _write_json(out / "geodesics_summary.json", {"branches": summary, "seed": scn.seed})
    return 0


def cmd_collapse(scn: Scenario, out: Path) -> int:
    if scn.collapse is None:
        raise ConfigError("this command needs a 'collapse' section")
    dist = scn.build_distribution()
    seps = [float(d) for d in scn.collapse["separations"]]
    axis = scn.collapse.get("axis", (0.0, 0.0, 1.0))
    rows = collapse_mod.separation_sweep(dist, seps, scn.units, axis=axis)

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
            "distribution": scn.collapse["distribution"],
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

    # Tetrad invariants over the catalog.
    fields = [
        WeakFieldPointMass(u, mass=1e-5, soft=1e-3, center=(0.3, -0.2, 0.1)),
        Schwarzschild(u, mass=1.0),
    ]
    worst_eta, worst_dual = 0.0, 0.0
    for f in fields:
        for _ in range(25):
            if isinstance(f, Schwarzschild):
                x = FourVector(0.0, rng.uniform(5.0, 15.0), rng.uniform(0.6, 2.5), rng.uniform(0, 2 * np.pi))
            else:
                x = FourVector(0.0, *rng.uniform(-2.0, 2.0, 3))
            t = build_tetrad(f, x)
            g = f.eval_batch(x.array[None, :])[0]
            worst_eta = max(worst_eta, frame_residual(t, g))
            worst_dual = max(worst_dual, float(np.max(np.abs(t.f @ t.b - np.eye(4)))))
    rows.append(("tetrad_eta", worst_eta, tol["tetrad_eta"], worst_eta < tol["tetrad_eta"]))
    rows.append(("tetrad_duality", worst_dual, tol["tetrad_duality"], worst_dual < tol["tetrad_duality"]))

    # QLIF unitarity and round trip on a small two-branch state.
    grid = GridSpec(lo=(-3, -3, -3), hi=(3, 3, 3), n=(17, 17, 17))
    gl = WeakFieldPointMass(u, mass=1e-6, soft=1e-3, center=(-1.0, 0, 0))
    gr = WeakFieldPointMass(u, mass=1e-6, soft=1e-3, center=(1.0, 0, 0))

    def rand_state():
        return make_state(
            [
                Branch(
                    complex(rng.normal(), rng.normal()),
                    "L",
                    FourVector(0, -1.0, 0, 0),
                    gl,
                    gaussian_psi(grid, rng.uniform(-0.5, 0.5, 3), rng.uniform(0.4, 0.8)),
                ),
                Branch(
                    complex(rng.normal(), rng.normal()),
                    "R",
                    FourVector(0, 1.0, 0, 0),
                    gr,
                    gaussian_psi(grid, rng.uniform(-0.5, 0.5, 3), rng.uniform(0.4, 0.8)),
                ),
            ],
            grid,
            units=u,
        )

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
    parser.add_argument("command", choices=["transform", "geodesics", "collapse", "selftest"])
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
        raw = yaml.safe_load(Path(args.config).read_text(encoding="utf-8"))
    except OSError as exc:
        _error_record(out, "config", f"cannot read config: {exc}")
        return 2
    except yaml.YAMLError as exc:
        _error_record(out, "config", f"invalid YAML: {exc}")
        return 2

    try:
        scn = Scenario(raw if raw is not None else {})
        if args.seed is not None:
            scn.seed = args.seed
        handler = {
            "transform": cmd_transform,
            "geodesics": cmd_geodesics,
            "collapse": cmd_collapse,
            "selftest": cmd_selftest,
        }[args.command]
        return handler(scn, out)
    except ConfigError as exc:
        _error_record(out, "config", str(exc))
        return 2
    except QlifError as exc:
        _error_record(out, type(exc).__name__, str(exc))
        return 2


if __name__ == "__main__":
    sys.exit(main())

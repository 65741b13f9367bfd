"""Command-line entry point: transform | geodesics | collapse | selftest.

Configs are YAML, parsed strictly (unknown keys are errors: a silently
ignored typo in a physics config produces wrong science).  All outputs are
plain structured text (JSON reports, CSV tables, the binary state
container) with deterministic formatting: the config file is a run's whole
input (its ``seed`` included), so running it twice produces byte-identical
files.

Exit codes: 0 success, 1 tolerance failure, 2 precondition/config error
(an output file that cannot be written included).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import yaml

from . import collapse as collapse_mod
from .collapse import CONVENTION, DISTRIBUTION_KINDS, UniformSphere, delta_self_energy
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
    gaussian_psi,
    inner_product,
    make_state,
    save_state,
)
from .spacetime import (
    FourVector,
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


def _reject_booleans(raw) -> None:
    """No config key takes a boolean, which float() and int() would read as 1 or 0.
    The walk keeps its own stack: YAML nests deeper than Python recurses."""
    stack = [("", raw)]
    while stack:
        where, node = stack.pop()
        items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
        for key, value in items:
            path = f"{where}[{key}]" if isinstance(node, list) else f"{where}.{key}" if where else str(key)
            if isinstance(key, bool) or isinstance(value, bool):
                raise ConfigError(f"{path}: no key takes a boolean (YAML reads yes/no, on/off, true/false as one)")
            stack.append((path, value))


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


TOP_KEYS = {"units", "seed", "metrics", "grid", "branches", "transform", "geodesics", "collapse"}

# Default tolerances; a config may override any of these keys and no other.
TRANSFORM_TOLERANCES = {"metric_deviation": 1e-10, "roundtrip": 1e-8, "norm_drift": 1e-8}

# The selftest's fixed bounds, by row: a value passes below its bound, or
# inside its (lo, hi) range, end points included.
SELFTEST_BOUNDS = {
    "tetrad_eta": 1e-10,
    "tetrad_duality": 1e-12,
    "unitarity": 1e-8,
    "roundtrip": 1e-8,
    "rk4_order_ratio": (12.0, 20.0),
    "energy_mass_scaling": 1e-10,
    "translation_commutator": 1e-10,
}


class Scenario:
    """Validated configuration: every value is converted here, once.

    Any key or value problem raises ConfigError; the subcommands read only
    the typed attributes.  ``state`` is the normalized ``SuperposedState``
    of the branches, or None when the config has none.
    """

    def __init__(self, raw: dict):
        _check_keys(raw, TOP_KEYS, {"units"}, "config")
        _reject_booleans(raw)
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
        if branches and self.grid is None:
            raise ConfigError("branches: the packets need a 'grid' section")
        branches = [self._branch(i, b) for i, b in enumerate(branches)]
        self.state = None
        if branches:
            self.state = _convert("branches", lambda bs: make_state(bs, self.grid, units=self.units), branches)

        transform = raw.get("transform", {})
        _check_keys(transform, {"tolerances", "check_radii"}, set(), "transform")
        tolerances = transform.get("tolerances") or {}
        _check_keys(tolerances, TRANSFORM_TOLERANCES, set(), "transform.tolerances")
        given = {k: _convert(f"transform.tolerances.{k}", _tolerance, v) for k, v in tolerances.items()}
        self.transform_tolerances = {**TRANSFORM_TOLERANCES, **given}
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
        self.distribution = self.distribution_spec = self.separations = None
        if collapse is not None:
            _check_keys(collapse, {"distribution", "separations"}, {"distribution", "separations"}, "collapse")
            self.distribution_spec = collapse["distribution"]
            self.distribution = _parse_distribution(self.distribution_spec)
            self.separations = _convert("collapse.separations", _distances, collapse["separations"])

    def _branch(self, i: int, b) -> Branch:
        """One configured branch; its wavefunction is a ``gaussian_psi`` packet on the grid."""
        where = f"branches[{i}]"
        required = {"label", "metric", "mass_position", "packet"}
        _check_keys(b, required | {"amplitude"}, required, where)
        metric = self.metrics.get(str(b["metric"]))
        if metric is None:
            raise ConfigError(f"{where}: metric id {b['metric']!r} not defined")
        pk = b["packet"]
        _check_keys(pk, {"center", "sigma", "momentum"}, {"center", "sigma"}, f"{where}.packet")
        center = _convert(f"{where}.packet.center", _vector, pk["center"])
        sigma = _convert(f"{where}.packet.sigma", _widths, pk["sigma"])
        momentum = _convert(f"{where}.packet.momentum", lambda m: m if m is None else _vector(m), pk.get("momentum"))
        # the packet's values are checked above: what fails here is a point count past numpy's size limit
        psi = _convert("grid.n", lambda g: gaussian_psi(g, center, sigma, momentum, self.units.hbar), self.grid)
        if not np.any(psi):
            raise ConfigError(f"{where}.packet: zero at every grid point (center {list(center)} lies off the grid)")
        return Branch(
            amplitude=_convert(f"{where}.amplitude", _amplitude, b.get("amplitude", 1.0)),
            mass_label=str(b["label"]),
            mass_position=_convert(f"{where}.mass_position", FourVector.from_array, b["mass_position"]),
            metric=metric,
            psi=psi,
        )


def _parse_distribution(spec):
    where = "collapse.distribution"
    kind = spec.get("kind") if isinstance(spec, dict) else None
    cls = DISTRIBUTION_KINDS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ConfigError(f"{where}: unknown kind {kind!r}")
    _, size, _ = cls.__dataclass_fields__  # mass, size, center
    _check_keys(spec, {"kind", "mass", size}, {"kind", "mass", size}, where)
    mass = _convert(f"{where}.mass", _positive, spec["mass"])
    extent = _convert(f"{where}.{size}", _positive, spec[size])
    return cls(mass, extent)


def _fmt(x) -> str:
    """Shortest round-trip decimal for a float; deterministic."""
    return repr(float(x))


def _write_artifact(path: Path, write) -> None:
    """``write(path)``; an OSError while writing the file is a config error that names it."""
    try:
        write(path)
    except OSError as exc:
        raise ConfigError(f"cannot write output file {path}: {exc}") from exc


def _write_json(path: Path, payload) -> None:
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    _write_artifact(path, lambda p: p.write_text(text, encoding="utf-8"))


def _write_csv(path: Path, header: list[str], rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(cell if isinstance(cell, str) else _fmt(cell) for cell in row))
    text = "\n".join(lines) + "\n"
    _write_artifact(path, lambda p: p.write_text(text, encoding="utf-8", newline="\n"))


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_transform(scn: Scenario, out: Path) -> int:
    tol = scn.transform_tolerances
    if scn.state is None:
        raise ConfigError("this command needs 'grid' and 'branches' sections")
    transformed, report = to_qlif(scn.state)
    _write_artifact(out / "state_qlif.qst", lambda p: save_state(transformed, p))

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
    if scn.state is None:
        raise ConfigError("this command needs 'grid' and 'branches' sections")
    results = geodesic_superposition(scn.state, scn.local_velocity, scn.dtau, scn.steps)
    c = scn.units.c

    summary = []
    for idx, (branch, bt) in enumerate(zip(scn.state.branches, results)):
        name = f"geodesic_{idx}_{bt.mass_label}.csv"
        tr = bt.trajectory
        rows = np.column_stack([tr.tau, tr.x[:, 0] / c, tr.x[:, 1:], tr.u]).tolist()
        _write_csv(out / name, ["tau", "t", "x", "y", "z", "u0", "u1", "u2", "u3"], rows)
        norm_drift, energy_drift, angular_momentum_drift = drift_figures(branch.metric, tr)
        summary.append(
            {
                "file": name,
                "mass_label": bt.mass_label,
                "metric_id": bt.metric_id,
                "states": len(tr.tau),
                "completed": tr.completed,
                "norm_drift": norm_drift,
                "energy_drift": energy_drift,
                "angular_momentum_drift": angular_momentum_drift,
                "warning": None if tr.completed else str(tr.error),
            }
        )
    _write_json(out / "geodesics_summary.json", {"branches": summary, "seed": scn.seed})
    return 0


def cmd_collapse(scn: Scenario, out: Path) -> int:
    if scn.distribution is None:
        raise ConfigError("this command needs a 'collapse' section")
    rows = collapse_mod.separation_sweep(scn.distribution, scn.separations, scn.units)

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


def _selftest_checks(seed: int):
    """Yield the (name, value) rows of the built-in invariant suite; ``SELFTEST_BOUNDS`` judges them."""
    u = UnitSystem.geometric()
    rng = np.random.default_rng(seed)

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
    yield "tetrad_eta", worst_eta
    yield "tetrad_duality", worst_dual

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
    yield "unitarity", abs(inner_product(ta, tb) - inner_product(a, b))
    yield "roundtrip", abs(inner_product(b, from_qlif(tb)) - 1.0)

    # RK4 convergence order on a Schwarzschild arc.
    sch = Schwarzschild(u, mass=1.0)
    x0 = FourVector(0.0, 20.0, np.pi / 2, 0.0)
    u0 = timelike_velocity(sch, x0, (0.0, 0.0, np.sqrt(1.0 / 20.0**3) / np.sqrt(1 - 3 / 20.0) * 1.02))
    span = 200.0

    def endpoint(n):
        tr = integrate_geodesic(sch, GeodesicState(x0, u0, 0.0), span / n, n)
        return np.concatenate([tr.x[-1], tr.u[-1]])

    ref = endpoint(4096)
    ratio = np.linalg.norm(endpoint(64) - ref) / np.linalg.norm(endpoint(128) - ref)
    yield "rk4_order_ratio", float(ratio)

    # Quadratic mass scaling of the difference self-energy.
    s1 = UniformSphere(mass=2.0, radius=1.0)
    s2 = UniformSphere(mass=2.0, radius=1.0, center=(0, 0, 1.5))
    e1 = delta_self_energy(s1, s2, u)
    e4 = delta_self_energy(
        UniformSphere(mass=4.0, radius=1.0), UniformSphere(mass=4.0, radius=1.0, center=(0, 0, 1.5)), u
    )
    yield "energy_mass_scaling", abs(e4 / 4.0 - e1) / e1

    # Translation-evolution commutation (flat-space stationarity core) on a
    # one-branch flat state, thin in y and z; |psi|^2 has rms width 1 along x.
    line = GridSpec(lo=(-20, -1, -1), hi=(20, 1, 1), n=(512, 2, 2))
    psi = gaussian_psi(line, (0.0, 0.0, 0.0), (np.sqrt(2.0), 1.0, 1.0))
    flat = make_state([Branch(1.0, "free", FourVector(0, 0, 0, 0), Minkowski(u), psi)], line, units=u)
    comm = translation_covariance_check(flat, (5 * line.spacing[0], 0.0, 0.0), 2.0, 1.0)
    yield "translation_commutator", comm


def cmd_selftest(scn: Scenario, out: Path) -> int:
    report = []
    for name, value in _selftest_checks(scn.seed):
        threshold = SELFTEST_BOUNDS[name]
        passed = threshold[0] <= value <= threshold[1] if isinstance(threshold, tuple) else value < threshold
        print(f"[{'PASS' if passed else 'FAIL'}] {name}: {value!r} (threshold {threshold!r})")
        report.append(
            {
                "check": name,
                "value": float(value),
                "threshold": threshold,
                "passed": bool(passed),
            }
        )
    ok = all(row["passed"] for row in report)
    _write_json(out / "selftest_report.json", {"checks": report, "passed": ok, "seed": scn.seed})
    return 0 if ok else 1


COMMANDS = {"transform": cmd_transform, "geodesics": cmd_geodesics, "collapse": cmd_collapse, "selftest": cmd_selftest}


# ---------------------------------------------------------------------------


def _error_record(out: Path | None, kind: str, message: str) -> None:
    record = {"error": {"kind": kind, "message": message}}
    sys.stderr.write(json.dumps(record, sort_keys=True) + "\n")
    if out is not None:
        try:
            _write_json(out / "error.json", record)
        except ConfigError:
            pass


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="qlif",
        description="Superposed-spacetime state transforms, geodesics, and collapse tables.",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="YAML scenario file")
    parser.add_argument("--out", required=True, help="output directory (created if missing)")
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
        return COMMANDS[args.command](Scenario(raw if raw is not None else {}), out)
    except ConfigError as exc:
        _error_record(out, "config", str(exc))
        return 2
    except QlifError as exc:
        _error_record(out, type(exc).__name__, str(exc))
        return 2


if __name__ == "__main__":
    sys.exit(main())

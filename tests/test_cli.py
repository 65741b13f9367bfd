import csv
import json
from pathlib import Path

import numpy as np
import pytest
import yaml

from oracles import frame_defect, metric_matrices
from qlif import cli, qrf
from qlif.cli import main
from qlif.tetrad import build_tetrad

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def write_config(tmp_path, payload, name="config.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(payload), encoding="utf-8")
    return str(path)


def two_branch_config(n=16, metric_kind="weak_field_point_mass", mass=1e-6):
    metric_l = {"kind": metric_kind, "mass": mass, "soft": 1e-3, "center": [-1.5, 0.0, 0.0]}
    metric_r = {"kind": metric_kind, "mass": mass, "soft": 1e-3, "center": [1.5, 0.0, 0.0]}
    return {
        "units": "geometric",
        "seed": 11,
        "metrics": {"g_left": metric_l, "g_right": metric_r},
        "grid": {"lo": [-3.0, -3.0, -3.0], "hi": [3.0, 3.0, 3.0], "n": [n, n, n], "t0": 0.0},
        "branches": [
            {
                "label": "L",
                "amplitude": [1.0, 0.0],
                "metric": "g_left",
                "mass_position": [0.0, -1.5, 0.0, 0.0],
                "packet": {"center": [0.0, 0.0, 0.5], "sigma": 0.5},
            },
            {
                "label": "R",
                "amplitude": [1.0, 0.0],
                "metric": "g_right",
                "mass_position": [0.0, 1.5, 0.0, 0.0],
                "packet": {"center": [0.0, 0.0, 0.5], "sigma": 0.5},
            },
        ],
        "transform": {"check_radii": [0.05, 0.1]},
    }


def test_transform_two_branch_passes(tmp_path):
    cfg = write_config(tmp_path, two_branch_config())
    out = tmp_path / "out"
    assert main(["transform", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "transform_report.json").read_text())
    assert report["passed"] is True
    assert report["report"]["max_metric_deviation_at_origin"] < 1e-10
    assert report["report"]["roundtrip_error"] < 1e-8
    assert len(report["report"]["branches"]) == 2
    assert (out / "state_qlif.qst").exists()
    # deviation table covers both branches at both radii
    assert len(report["local_deviation_table"]) == 4


def test_transform_minkowski_only(tmp_path):
    payload = {
        "units": "geometric",
        "metrics": {"flat": {"kind": "minkowski"}},
        "grid": {"lo": [-2, -2, -2], "hi": [2, 2, 2], "n": [12, 12, 12]},
        "branches": [
            {
                "label": "M",
                "metric": "flat",
                "mass_position": [0.0, 0.5, 0.0, 0.0],
                "packet": {"center": [0.0, 0.0, 0.0], "sigma": 0.4},
            }
        ],
    }
    out = tmp_path / "out"
    assert main(["transform", "--config", write_config(tmp_path, payload), "--out", str(out)]) == 0
    report = json.loads((out / "transform_report.json").read_text())
    assert report["report"]["max_metric_deviation_at_origin"] == 0.0


def test_transform_horizon_support_exits_2(tmp_path):
    payload = {
        "units": "geometric",
        "metrics": {"bh": {"kind": "schwarzschild", "mass": 1.0}},
        # spherical chart grid dipping inside r_s = 2
        "grid": {"lo": [1.0, 0.6, 0.1], "hi": [8.0, 2.5, 5.0], "n": [12, 6, 6]},
        "branches": [
            {
                "label": "S",
                "metric": "bh",
                "mass_position": [0.0, 5.0, 1.5, 2.5],
                "packet": {"center": [5.0, 1.5, 2.5], "sigma": 1.0},
            }
        ],
    }
    out = tmp_path / "out"
    code = main(["transform", "--config", write_config(tmp_path, payload), "--out", str(out)])
    assert code == 2
    record = json.loads((out / "error.json").read_text())
    assert record["error"]["kind"] == "SingularRegion"


def test_transform_tolerance_failure_exits_1(tmp_path):
    cfg = two_branch_config()
    cfg["transform"]["tolerances"] = {"metric_deviation": 0.0}
    out = tmp_path / "out"
    assert main(["transform", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 1
    report = json.loads((out / "transform_report.json").read_text())
    assert report["passed"] is False


def test_geodesics_branches_and_bending(tmp_path):
    cfg = two_branch_config(n=14, mass=1e-4)
    cfg["geodesics"] = {"local_velocity": [0.0, 0.0, 0.0], "dtau": 1.0, "steps": 60}
    out = tmp_path / "out"
    assert main(["geodesics", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
    rows_l = list(csv.DictReader(open(out / "geodesic_0_L.csv")))
    rows_r = list(csv.DictReader(open(out / "geodesic_1_R.csv")))
    assert len(rows_l) == 61
    assert float(rows_l[-1]["x"]) < float(rows_l[0]["x"])
    assert float(rows_r[-1]["x"]) > float(rows_r[0]["x"])
    summary = json.loads((out / "geodesics_summary.json").read_text())
    assert all(b["completed"] for b in summary["branches"])


def test_geodesics_summary_reports_drift_figures(tmp_path):
    cfg = Path(__file__).resolve().parents[1] / "configs" / "two_branch_weakfield.yaml"
    out = tmp_path / "out"
    assert main(["geodesics", "--config", str(cfg), "--out", str(out)]) == 0
    branches = json.loads((out / "geodesics_summary.json").read_text())["branches"]
    assert len(branches) == 2
    for b in branches:
        assert 0.0 <= b["norm_drift"] < 1e-12
        assert 0.0 <= b["energy_drift"] < 1e-12
        assert 0.0 <= b["angular_momentum_drift"] < 1e-12


def test_geodesics_flat_branches_identical_files(tmp_path):
    cfg = two_branch_config(n=12)
    cfg["metrics"] = {"g_left": {"kind": "minkowski"}, "g_right": {"kind": "minkowski"}}
    cfg["geodesics"] = {"local_velocity": [0.01, 0.0, 0.0], "dtau": 0.5, "steps": 20}
    del cfg["transform"]
    out = tmp_path / "out"
    assert main(["geodesics", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
    body_l = (out / "geodesic_0_L.csv").read_text().splitlines()
    body_r = (out / "geodesic_1_R.csv").read_text().splitlines()
    assert body_l == body_r


def test_geodesics_zero_steps(tmp_path):
    cfg = two_branch_config(n=12)
    cfg["geodesics"] = {"dtau": 0.5, "steps": 0}
    out = tmp_path / "out"
    assert main(["geodesics", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
    rows = list(csv.DictReader(open(out / "geodesic_0_L.csv")))
    assert len(rows) == 1


def collapse_config():
    return {
        "units": "si",
        "collapse": {
            "distribution": {"kind": "uniform_sphere", "mass": 1e-14, "radius": 1e-7},
            "separations": [0.0, 5e-8, 1e-7, 2e-7, 4e-7],
        },
    }


def test_collapse_table(tmp_path):
    out = tmp_path / "out"
    assert main(["collapse", "--config", write_config(tmp_path, collapse_config()), "--out", str(out)]) == 0
    rows = list(csv.DictReader(open(out / "collapse_table.csv")))
    assert rows[0]["t_delta"] == "inf" and rows[0]["t_delta_geom"] == "inf"
    assert float(rows[0]["E_delta"]) == 0.0
    energies = [float(r["E_delta"]) for r in rows]
    assert all(b >= a for a, b in zip(energies, energies[1:]))
    # unit algebra between the SI and geometric columns
    c, G = 299792458.0, 6.6743e-11
    for r in rows[1:]:
        e_si, e_geo = float(r["E_delta"]), float(r["E_delta_geom"])
        assert abs(e_geo - e_si * G / c**4) / e_geo < 1e-10
        t_si, t_geo = float(r["t_delta"]), float(r["t_delta_geom"])
        assert abs(t_geo - t_si * c) / t_geo < 1e-10


def test_selftest_passes(tmp_path, capsys):
    payload = {"units": "geometric", "seed": 0}
    out = tmp_path / "out"
    assert main(["selftest", "--config", write_config(tmp_path, payload), "--out", str(out)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) >= 6
    assert all(line.startswith("[PASS]") for line in lines)
    report = json.loads((out / "selftest_report.json").read_text())
    assert report["passed"] is True


def test_selftest_tetrad_eta_equals_the_matrix_route_bit_for_bit(tmp_path, capsys, monkeypatch):
    # the check reads each frame's defect from the metric diagonal; the oracle
    # forms max |f^T g f - eta| over the same frames by matrix products
    frames = []

    def recording(field, x):
        frames.append((field, x, build_tetrad(field, x)))
        return frames[-1][2]

    monkeypatch.setattr(cli, "build_tetrad", recording)
    out = tmp_path / "out"
    assert main(["selftest", "--config", str(CONFIGS / "selftest.yaml"), "--out", str(out)]) == 0
    capsys.readouterr()
    checks = json.loads((out / "selftest_report.json").read_text())["checks"]
    value = next(c["value"] for c in checks if c["check"] == "tetrad_eta")
    assert len(frames) == 50
    assert value == max(frame_defect(np.diag(bf[1]), metric_matrices(f, x.array[None, :])[0]) for f, x, bf in frames)


def test_selftest_injected_zero_tolerance_fails(tmp_path):
    payload = {"units": "geometric", "selftest": {"tolerances": {"unitarity": 0.0}}}
    out = tmp_path / "out"
    assert main(["selftest", "--config", write_config(tmp_path, payload), "--out", str(out)]) == 1


def test_missing_config_is_usage_error(tmp_path):
    out = tmp_path / "out"
    assert main(["selftest", "--config", str(tmp_path / "nope.yaml"), "--out", str(out)]) == 2
    record = json.loads((out / "error.json").read_text())
    assert record["error"]["kind"] == "config"


def test_unknown_keys_rejected(tmp_path):
    out = tmp_path / "out"
    payload = {"units": "geometric", "bogus": 1}
    assert main(["transform", "--config", write_config(tmp_path, payload), "--out", str(out)]) == 2
    payload = two_branch_config()
    payload["branches"][0]["typo_key"] = 3
    assert main(["transform", "--config", write_config(tmp_path, payload), "--out", str(out)]) == 2
    payload = two_branch_config()
    payload["metrics"]["g_left"]["spin"] = 0.5
    assert main(["transform", "--config", write_config(tmp_path, payload), "--out", str(out)]) == 2
    payload = two_branch_config()
    payload["transform"]["tolerances"] = {"roundtip": 1.0e-3}
    assert main(["transform", "--config", write_config(tmp_path, payload), "--out", str(out)]) == 2
    assert "roundtip" in json.loads((out / "error.json").read_text())["error"]["message"]
    assert not (out / "transform_report.json").exists()
    payload = {"units": "geometric", "selftest": {"tolerances": {"unitarty": 0.0}}}
    assert main(["selftest", "--config", write_config(tmp_path, payload), "--out", str(out)]) == 2
    assert "unitarty" in json.loads((out / "error.json").read_text())["error"]["message"]


def test_non_numeric_tolerances_rejected(tmp_path):
    out = tmp_path / "out"
    payload = two_branch_config()
    payload["transform"]["tolerances"] = {"roundtrip": None}
    assert main(["transform", "--config", write_config(tmp_path, payload), "--out", str(out)]) == 2
    payload = {"units": "geometric", "selftest": {"tolerances": {"unitarity": "tight"}}}
    assert main(["selftest", "--config", write_config(tmp_path, payload), "--out", str(out)]) == 2
    assert json.loads((out / "error.json").read_text())["error"]["kind"] == "config"


def _full_config():
    payload = two_branch_config()
    payload["transform"]["tolerances"] = {"roundtrip": 1e-8}
    payload["selftest"] = {"tolerances": {"unitarity": 1e-8}}
    payload["geodesics"] = {"local_velocity": [0.0, 0.0, 0.0], "dtau": 0.5, "steps": 2}
    payload["collapse"] = {
        "distribution": {"kind": "uniform_sphere", "mass": 1.0, "radius": 1.0},
        "separations": [0.0, 0.5],
        "axis": [0.0, 0.0, 1.0],
    }
    return payload


# (subcommand, key path into the config, malformed value)
MALFORMED = [
    ("transform", ("branches", 0, "packet", "sigma"), "wide"),
    ("transform", ("branches", 0, "packet", "sigma"), -0.5),
    ("transform", ("branches", 0, "packet", "center"), "origin"),
    ("transform", ("branches", 0, "packet", "momentum"), [1.0, "east", 0.0]),
    ("transform", ("branches", 0, "mass_position"), [0, 1]),
    ("transform", ("branches", 0, "amplitude"), [1.0, "i"]),
    ("transform", ("transform", "check_radii"), ["fast"]),
    ("transform", ("transform", "check_radii"), [-0.1]),
    ("transform", ("seed",), "x"),
    ("transform", ("seed",), 1.5),
    ("transform", ("grid", "n"), [16.7, 16, 16]),
    ("transform", ("metrics", "g"), 5),
    ("transform", ("units",), {"c": "fast", "G": 1.0, "hbar": 1.0}),
    ("geodesics", ("geodesics", "dtau"), "short"),
    ("geodesics", ("geodesics", "dtau"), 0.0),
    ("geodesics", ("geodesics", "steps"), "many"),
    ("geodesics", ("geodesics", "steps"), 2.5),
    ("geodesics", ("geodesics", "steps"), float("inf")),
    ("geodesics", ("geodesics", "local_velocity"), "still"),
    ("geodesics", ("geodesics", "local_velocity"), [1.0, 0.0, 0.0]),
    ("collapse", ("collapse", "separations"), ["near"]),
    ("collapse", ("collapse", "separations"), [-1.0]),
    ("collapse", ("collapse", "axis"), [0, 0]),
    ("collapse", ("collapse", "axis"), [0, 0, 0]),
    # non-finite numbers
    ("transform", ("metrics", "g_left", "soft"), float("inf")),
    ("transform", ("grid", "lo"), [float("-inf"), -3.0, -3.0]),
    ("transform", ("grid", "hi"), [3.0, float("inf"), 3.0]),
    ("transform", ("branches", 0, "packet", "momentum"), [float("inf"), 0.0, 0.0]),
    ("transform", ("branches", 0, "packet", "sigma"), float("inf")),
    ("transform", ("branches", 0, "amplitude"), float("inf")),
    ("transform", ("branches", 0, "amplitude"), float("nan")),
    ("transform", ("transform", "check_radii"), [float("inf")]),
    ("geodesics", ("geodesics", "local_velocity"), [float("nan"), 0.0, 0.0]),
    ("geodesics", ("geodesics", "dtau"), float("inf")),
    ("collapse", ("collapse", "axis"), [0, 0, float("inf")]),
    # tolerances: finite and >= 0 (nan would fail every check, inf would switch one off)
    ("transform", ("transform", "tolerances", "roundtrip"), float("nan")),
    ("transform", ("transform", "tolerances", "roundtrip"), float("inf")),
    ("transform", ("transform", "tolerances", "roundtrip"), -1.0),
    ("selftest", ("selftest", "tolerances", "unitarity"), float("nan")),
    ("selftest", ("selftest", "tolerances", "unitarity"), float("-inf")),
    ("selftest", ("selftest", "tolerances", "unitarity"), -1.0),
]


@pytest.mark.parametrize(
    "command, path, value",
    MALFORMED,
    ids=[f"{'.'.join(map(str, path))}={value!r}" for _, path, value in MALFORMED],
)
def test_malformed_values_are_config_errors(tmp_path, command, path, value):
    payload = _full_config()
    target = payload
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    out = tmp_path / "out"
    assert main([command, "--config", write_config(tmp_path, payload), "--out", str(out)]) == 2
    record = json.loads((out / "error.json").read_text())
    assert record["error"]["kind"] == "config"
    assert str(path[-1]) in record["error"]["message"]


@pytest.mark.parametrize("key, value", [("mass", float("inf")), ("mass", -1.0), ("radius", float("nan")), ("radius", 0.0)])
def test_distribution_errors_name_the_key(tmp_path, key, value):
    payload = collapse_config()
    payload["collapse"]["distribution"][key] = value
    out = tmp_path / "out"
    assert main(["collapse", "--config", write_config(tmp_path, payload), "--out", str(out)]) == 2
    record = json.loads((out / "error.json").read_text())
    assert record["error"]["kind"] == "config"
    assert record["error"]["message"].startswith(f"collapse.distribution.{key}: ")


@pytest.mark.parametrize(
    "text",
    ["units: [geometric\n", "units: !!python/object/apply:os.system ['echo unsafe']\n"],
    ids=["unparsable", "python-tag"],
)
def test_config_yaml_is_parsed_safely(tmp_path, text):
    cfg = tmp_path / "config.yaml"
    cfg.write_text(text, encoding="utf-8")
    out = tmp_path / "out"
    assert main(["selftest", "--config", str(cfg), "--out", str(out)]) == 2
    record = json.loads((out / "error.json").read_text())
    assert record["error"]["kind"] == "config"
    assert record["error"]["message"].startswith("invalid YAML: ")


def test_transform_chooses_the_anchors_once_per_branch(tmp_path, monkeypatch):
    calls = []
    heaviest = qrf._heaviest
    monkeypatch.setattr(qrf, "_heaviest", lambda *a: calls.append(a) or heaviest(*a))
    payload = two_branch_config()
    assert len(payload["transform"]["check_radii"]) == 2
    out = tmp_path / "out"
    assert main(["transform", "--config", write_config(tmp_path, payload), "--out", str(out)]) == 0
    assert len(calls) == 2
    table = json.loads((out / "transform_report.json").read_text())["local_deviation_table"]
    assert [(row["radius"], row["mass_label"]) for row in table] == [(0.05, "L"), (0.05, "R"), (0.1, "L"), (0.1, "R")]


def test_undefined_metric_id_rejected(tmp_path):
    out = tmp_path / "out"
    payload = two_branch_config()
    payload["branches"][0]["metric"] = "missing_id"
    assert main(["transform", "--config", write_config(tmp_path, payload), "--out", str(out)]) == 2


def test_runs_are_byte_identical(tmp_path):
    cfg = write_config(tmp_path, two_branch_config(n=14))
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["transform", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["transform", "--config", cfg, "--out", str(out2)]) == 0
    for name in ("transform_report.json", "state_qlif.qst"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    ccfg = write_config(tmp_path, collapse_config(), name="collapse.yaml")
    out3, out4 = tmp_path / "o3", tmp_path / "o4"
    assert main(["collapse", "--config", ccfg, "--out", str(out3)]) == 0
    assert main(["collapse", "--config", ccfg, "--out", str(out4)]) == 0
    assert (out3 / "collapse_table.csv").read_bytes() == (out4 / "collapse_table.csv").read_bytes()


def test_seed_flag_overrides_config(tmp_path):
    cfg = write_config(tmp_path, {"units": "geometric", "seed": 1})
    out = tmp_path / "out"
    assert main(["selftest", "--config", cfg, "--out", str(out), "--seed", "42"]) == 0
    report = json.loads((out / "selftest_report.json").read_text())
    assert report["seed"] == 42


def test_negative_seed_flag_is_config_error(tmp_path):
    cfg = write_config(tmp_path, {"units": "geometric", "seed": 1})
    out = tmp_path / "out"
    assert main(["selftest", "--config", cfg, "--out", str(out), "--seed", "-1"]) == 2
    record = json.loads((out / "error.json").read_text())
    assert record["error"]["kind"] == "config"
    assert "--seed" in record["error"]["message"]
    assert not (out / "selftest_report.json").exists()

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from oracles import frame_defect, metric_matrices
from qlif import cli, qrf
from qlif.cli import main
from qlif.collapse import Gaussian, separation_sweep
from qlif.spacetime import UnitSystem
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


GAUSSIAN = {"kind": "gaussian", "mass": 1e-14, "width": 1e-7}


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


def test_gaussian_collapse_table_rows_equal_the_sweep(tmp_path):
    payload = collapse_config()
    payload["collapse"]["distribution"] = dict(GAUSSIAN)
    separations = [0.0, 1e-9, 5e-8, 1e-7, 2e-7, 4e-7, float("inf")]
    payload["collapse"]["separations"] = separations
    out = tmp_path / "out"
    assert main(["collapse", "--config", write_config(tmp_path, payload), "--out", str(out)]) == 0
    _, *rows = csv.reader(open(out / "collapse_table.csv"))
    # the table prints each float by its shortest round-trip repr and an infinite lifetime as inf
    got = [(float(d), float(e), None if t == "inf" else float(t)) for d, e, t, *_ in rows]
    assert got == separation_sweep(Gaussian(1e-14, 1e-7), separations, UnitSystem.si())
    assert json.loads((out / "collapse_summary.json").read_text())["distribution"]["kind"] == "gaussian"


def test_collapse_far_field_row_is_the_sum_of_the_self_energies(tmp_path):
    # d = inf moves the copy out of reach: E = G (W_aa + W_bb) = 2.4 G m^2 / R for a sphere
    payload = collapse_config()
    payload["collapse"]["separations"] = [1e-7, float("inf")]
    out = tmp_path / "out"
    assert main(["collapse", "--config", write_config(tmp_path, payload), "--out", str(out)]) == 0
    near, far = csv.DictReader(open(out / "collapse_table.csv"))
    G, hbar = 6.6743e-11, 1.054571817e-34
    assert far["d"] == "inf"
    assert float(far["E_delta"]) == pytest.approx(2.4 * G * 1e-14**2 / 1e-7, rel=1e-12)
    assert float(far["t_delta"]) == pytest.approx(hbar / float(far["E_delta"]), rel=1e-12)
    assert float(far["E_delta"]) > float(near["E_delta"])


def test_selftest_passes(tmp_path, capsys):
    payload = {"units": "geometric", "seed": 0}
    out = tmp_path / "out"
    assert main(["selftest", "--config", write_config(tmp_path, payload), "--out", str(out)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) >= 6
    assert all(line.startswith("[PASS]") for line in lines)
    report = json.loads((out / "selftest_report.json").read_text())
    assert report["passed"] is True
    # every row the suite yields has a bound, and every bound judges a row
    assert [check["check"] for check in report["checks"]] == list(cli.SELFTEST_BOUNDS)


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


def test_selftest_injected_zero_tolerance_fails(tmp_path, capsys, monkeypatch):
    monkeypatch.setitem(cli.SELFTEST_BOUNDS, "unitarity", 0.0)
    out = tmp_path / "out"
    assert main(["selftest", "--config", write_config(tmp_path, {"units": "geometric"}), "--out", str(out)]) == 1
    assert "[FAIL] unitarity: " in capsys.readouterr().out


def test_selftest_range_passes_its_end_points(tmp_path, capsys, monkeypatch):
    rows = [("at_lo", 12.0), ("at_hi", 20.0), ("below", 11.5), ("above", 20.5), ("at_bound", 1e-10)]
    monkeypatch.setattr(cli, "_selftest_checks", lambda seed: iter(rows))
    bounds = {"at_lo": (12.0, 20.0), "at_hi": (12.0, 20.0), "below": (12.0, 20.0), "above": (12.0, 20.0)}
    monkeypatch.setattr(cli, "SELFTEST_BOUNDS", {**bounds, "at_bound": 1e-10})
    out = tmp_path / "out"
    assert main(["selftest", "--config", write_config(tmp_path, {"units": "geometric"}), "--out", str(out)]) == 1
    capsys.readouterr()
    checks = json.loads((out / "selftest_report.json").read_text())["checks"]
    assert {c["check"]: c["passed"] for c in checks} == {
        "at_lo": True, "at_hi": True, "below": False, "above": False, "at_bound": False,
    }
    assert checks[0]["threshold"] == [12.0, 20.0]


@pytest.mark.parametrize(
    "section, edit, key",
    [
        ("selftest", lambda p: p.update(selftest={"tolerances": {"unitarity": 1e-8}}), "selftest"),
        ("collapse", lambda p: p["collapse"]["distribution"].update(center=[0.0, 0.0, 0.0]), "center"),
    ],
    ids=["selftest-section", "distribution-center"],
)
def test_removed_keys_are_config_errors(tmp_path, section, edit, key):
    payload = collapse_config()
    edit(payload)
    out = tmp_path / "out"
    assert main([section, "--config", write_config(tmp_path, payload), "--out", str(out)]) == 2
    error = json.loads((out / "error.json").read_text())["error"]
    assert error["kind"] == "config" and key in error["message"]
    assert sorted(p.name for p in out.iterdir()) == ["error.json"]


def test_seed_flag_is_a_usage_error(tmp_path, capsys):
    cfg = write_config(tmp_path, {"units": "geometric"})
    with pytest.raises(SystemExit) as info:
        main(["selftest", "--config", cfg, "--out", str(tmp_path / "out"), "--seed", "1"])
    assert info.value.code == 2
    assert "--seed" in capsys.readouterr().err


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


def test_non_numeric_tolerances_rejected(tmp_path):
    out = tmp_path / "out"
    payload = two_branch_config()
    payload["transform"]["tolerances"] = {"roundtrip": None}
    assert main(["transform", "--config", write_config(tmp_path, payload), "--out", str(out)]) == 2
    assert json.loads((out / "error.json").read_text())["error"]["kind"] == "config"


def _full_config():
    payload = two_branch_config()
    payload["transform"]["tolerances"] = {"roundtrip": 1e-8}
    payload["geodesics"] = {"local_velocity": [0.0, 0.0, 0.0], "dtau": 0.5, "steps": 2}
    payload["collapse"] = {
        "distribution": {"kind": "uniform_sphere", "mass": 1.0, "radius": 1.0},
        "separations": [0.0, 0.5],
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
    ("transform", ("grid", "n"), [2**70, 8, 8]),  # past numpy's size limit: a traceback with exit 1
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
    ("collapse", ("collapse", "distribution", "kind"), ["uniform_sphere"]),  # unhashable: a TypeError escaped
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
    # tolerances: finite and >= 0 (nan would fail every check, inf would switch one off)
    ("transform", ("transform", "tolerances", "roundtrip"), float("nan")),
    ("transform", ("transform", "tolerances", "roundtrip"), float("inf")),
    ("transform", ("transform", "tolerances", "roundtrip"), -1.0),
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


def test_a_metric_kind_that_is_not_a_string_is_unknown(tmp_path):
    # a YAML list as the kind used to surface as "unhashable type: 'list'"
    payload = _full_config()
    payload["metrics"]["g_left"]["kind"] = ["a"]
    out = tmp_path / "out"
    assert main(["transform", "--config", write_config(tmp_path, payload), "--out", str(out)]) == 2
    record = json.loads((out / "error.json").read_text())
    assert record["error"] == {"kind": "config", "message": "metrics.g_left: unknown metric kind ['a']"}


def _error(out):
    return json.loads((out / "error.json").read_text())["error"]


@pytest.mark.parametrize("name", ["state_qlif.qst", "transform_report.json"])
def test_an_output_file_that_cannot_be_written_is_a_config_error(tmp_path, name):
    # a directory in the artifact's place: the write used to end in a traceback and exit 1
    out = tmp_path / "out"
    (out / name).mkdir(parents=True)
    assert main(["transform", "--config", write_config(tmp_path, two_branch_config()), "--out", str(out)]) == 2
    error = _error(out)
    assert error["kind"] == "config"
    assert error["message"].startswith(f"cannot write output file {out / name}: ")


@pytest.mark.parametrize("command", ["transform", "geodesics"])
@pytest.mark.parametrize("spoil", ["same-label-and-metric", "all-amplitudes-zero"])
def test_branches_no_state_can_hold_are_config_errors(tmp_path, command, spoil):
    # make_state's ValueError used to escape the config guard: exit 1 with a traceback and no error.json
    payload = _full_config()
    if spoil == "same-label-and-metric":
        payload["branches"][1].update(label="L", metric="g_left")
    else:
        for branch in payload["branches"]:
            branch["amplitude"] = 0
    out = tmp_path / "out"
    assert main([command, "--config", write_config(tmp_path, payload), "--out", str(out)]) == 2
    error = _error(out)
    assert error["kind"] == "config"
    assert error["message"].startswith("branches: ")


def test_duplicate_branch_keys_name_the_colliding_branches(tmp_path):
    # the message used to list every key with each metric's full repr and name no branch
    payload = _full_config()
    payload["branches"][1].update(label="L", metric="g_left")
    out = tmp_path / "out"
    assert main(["transform", "--config", write_config(tmp_path, payload), "--out", str(out)]) == 2
    error = _error(out)
    assert error["kind"] == "config"
    assert error["message"].startswith("branches: duplicate branch keys: branches[0] and branches[1] ")
    assert "'L'" in error["message"] and "weak_field_point_mass" in error["message"]
    assert "WeakFieldPointMass(" not in error["message"]


@pytest.mark.parametrize("command", ["transform", "geodesics"])
def test_a_packet_off_the_grid_is_a_config_error(tmp_path, command):
    # a packet that underflows to zero on every grid point used to exit 2 with kind ZeroNorm
    payload = _full_config()
    payload["branches"][1]["packet"]["center"] = [1e6, 0.0, 0.0]
    out = tmp_path / "out"
    assert main([command, "--config", write_config(tmp_path, payload), "--out", str(out)]) == 2
    error = _error(out)
    assert error["kind"] == "config"
    assert error["message"].startswith("branches[1].packet: ")


@pytest.mark.parametrize("command", sorted(cli.COMMANDS))
def test_branches_without_a_grid_are_a_config_error_for_every_command(tmp_path, command):
    payload = _full_config()
    del payload["grid"]
    out = tmp_path / "out"
    assert main([command, "--config", write_config(tmp_path, payload), "--out", str(out)]) == 2
    error = _error(out)
    assert error["kind"] == "config"
    assert "grid" in error["message"]


# (subcommand, key path, a YAML 1.1 spelling of a boolean); each was read as 1 or 0
BOOLEANS = [
    ("geodesics", ("metrics", "g_left", "mass"), "true"),
    ("geodesics", ("geodesics", "steps"), "yes"),
    ("geodesics", ("seed",), "on"),
    ("geodesics", ("branches", 0, "packet", "center", 0), "off"),
    ("collapse", ("collapse", "distribution", "mass"), "True"),
]


@pytest.mark.parametrize("command, path, word", BOOLEANS, ids=[f"{'.'.join(map(str, p))}={w}" for _, p, w in BOOLEANS])
def test_booleans_are_config_errors_that_name_the_key_path(tmp_path, command, path, word):
    payload = _full_config()
    target = payload
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = "BOOLEAN"
    text = yaml.safe_dump(payload).replace("BOOLEAN", word)
    node = yaml.safe_load(text)
    for key in path:
        node = node[key]
    assert isinstance(node, bool)
    cfg = tmp_path / "config.yaml"
    cfg.write_text(text, encoding="utf-8")
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    where = "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path)[1:]
    error = _error(out)
    assert error["kind"] == "config"
    assert error["message"].startswith(f"{where}: ")


@pytest.mark.skipif(not hasattr(yaml, "CSafeLoader"), reason="the pure-Python YAML composer recurses per level")
def test_a_value_nested_deeper_than_python_recurses_is_a_config_error(tmp_path):
    cfg = tmp_path / "config.yaml"
    cfg.write_text("units: geometric\nseed: " + "[" * 5000 + "]" * 5000 + "\n", encoding="utf-8")
    out = tmp_path / "out"
    assert main(["selftest", "--config", str(cfg), "--out", str(out)]) == 2
    error = _error(out)
    assert error["kind"] == "config"
    assert error["message"].startswith("seed: ")


@pytest.mark.parametrize(
    "key, value",
    [
        ("mass", float("inf")), ("mass", -1.0), ("radius", float("nan")), ("radius", 0.0),
        ("width", float("inf")), ("width", 0.0),
    ],
)
def test_distribution_errors_name_the_key(tmp_path, key, value):
    payload = collapse_config()
    if key == "width":
        payload["collapse"]["distribution"] = dict(GAUSSIAN)
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


_SAMPLE_RUNS_IN_A_FRESH_PROCESS = """
import json, sys
from pathlib import Path

loaded = {}
import qlif
loaded["import qlif"] = "scipy" in sys.modules
import qlif.cli
loaded["import qlif.cli"] = "scipy" in sys.modules
configs, out = Path(sys.argv[1]), Path(sys.argv[2])
for command, cfg in [("transform", "two_branch_weakfield"), ("geodesics", "two_branch_weakfield"),
                     ("collapse", "collapse_si"), ("selftest", "selftest")]:
    code = qlif.cli.main([command, "--config", str(configs / f"{cfg}.yaml"), "--out", str(out / command)])
    loaded[command] = code if code else "scipy" in sys.modules
print(json.dumps(loaded))
"""


def _run_fresh(code: str, *args) -> dict:
    """The JSON that ``code`` prints last, run with ``args`` in a fresh interpreter on this package."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-c", code, *map(str, args)],
        capture_output=True, text=True, env=env, timeout=300, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_sample_runs_leave_scipy_unimported(tmp_path):
    # scipy is a test oracle only; importing it took most of each run's start-up
    loaded = _run_fresh(_SAMPLE_RUNS_IN_A_FRESH_PROCESS, CONFIGS, tmp_path)
    assert loaded == dict.fromkeys(
        ["import qlif", "import qlif.cli", "transform", "geodesics", "collapse", "selftest"], False
    )


_COLLAPSE_ROUTES_WITH_SCIPY_BLOCKED = """
import importlib.abc, json, sys


class NoScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "scipy":
            raise ImportError(f"import of {name} is blocked")
        return None


sys.meta_path.insert(0, NoScipy())
import qlif.cli
from qlif.collapse import Gaussian, UniformSphere, delta_self_energy, delta_self_energy_monte_carlo
from qlif.spacetime import UnitSystem

units = UnitSystem.geometric()
sphere, gaussian = UniformSphere(2.0, 1.0), Gaussian(1.5, 0.5, (0.0, 0.0, 0.8))
done = {
    "collapse": qlif.cli.main(["collapse", "--config", sys.argv[1], "--out", sys.argv[2]]),
    "unequal spheres": delta_self_energy(sphere, UniformSphere(2.0, 0.5, (0.0, 0.0, 1.2)), units) > 0.0,
    "sphere / gaussian": delta_self_energy(sphere, gaussian, units) > 0.0,
    "monte carlo": delta_self_energy_monte_carlo(sphere, gaussian, units, n_samples=1000, seed=1) > 0.0,
}
done["scipy loaded"] = "scipy" in sys.modules
print(json.dumps(done))
"""


def test_every_collapse_route_runs_with_scipy_blocked(tmp_path):
    # the Gaussian forms and the quadrature route once imported scipy on first use
    payload = collapse_config()
    payload["collapse"]["distribution"] = GAUSSIAN
    done = _run_fresh(_COLLAPSE_ROUTES_WITH_SCIPY_BLOCKED, write_config(tmp_path, payload), tmp_path / "out")
    assert done == {
        "collapse": 0, "unequal spheres": True, "sphere / gaussian": True, "monte carlo": True, "scipy loaded": False,
    }

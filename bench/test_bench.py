"""Checks on the benchmark itself.

    python3 -m pytest bench

The references must agree with each other where two of them apply, the
span wrappers must leave qlif's artifacts byte for byte as they were, the
failing collapse rows must not depend on the seed, and the benchmark must
refuse to run without the program.
"""

import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import qlif  # noqa: E402
import qlif.cli  # noqa: E402
import reference  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

G = 6.67430e-11
M, R = 1.0e-14, 1.0e-7


@pytest.mark.parametrize("x", [0.5, 1.0, 1.7])
def test_equal_spheres_closed_form_matches_fourier_route(x):
    want = reference.equal_spheres_energy(G, M, R, x * R)
    got = reference.fourier_energy(G, "sphere", M, R, "sphere", M, R, x * R)
    assert got == pytest.approx(want, rel=1e-6)


@pytest.mark.parametrize("x", [1e-3, 0.3, 1.0, 4.0])
def test_equal_gaussians_closed_form_matches_fourier_route(x):
    want = reference.equal_gaussians_energy(G, M, R, x * R)
    got = reference.fourier_energy(G, "gaussian", M, R, "gaussian", M, R, x * R)
    assert got == pytest.approx(want, rel=1e-8)


@pytest.mark.parametrize("x", [2.0, 2.5, 4.0])
def test_equal_spheres_closed_form_matches_shell_theorem(x):
    want = reference.shell_theorem_energy(G, M, R, M, R, x * R)
    assert reference.equal_spheres_energy(G, M, R, x * R) == pytest.approx(want, rel=1e-14)


def test_overlap_polynomial_meets_shell_theorem_at_contact():
    below = reference.equal_spheres_energy(G, M, R, 2.0 * R * (1.0 - 1e-12))
    assert below == pytest.approx(reference.shell_theorem_energy(G, M, R, M, R, 2.0 * R), rel=1e-10)


@pytest.mark.parametrize("r2,d", [(0.6, 1.6), (1.8, 3.0)])
def test_unequal_spheres_shell_theorem_matches_fourier_route(r2, d):
    want = reference.shell_theorem_energy(G, M, R, 2.0 * M, r2 * R, d * R)
    got = reference.fourier_energy(G, "sphere", M, R, "sphere", 2.0 * M, r2 * R, d * R)
    assert got == pytest.approx(want, rel=1e-6)


def test_self_time_excludes_child_spans():
    rec = spans.Recorder()
    with rec.span("round"):
        with rec.span("outer"):
            with rec.span("inner"):
                time.sleep(0.02)
            time.sleep(0.01)
    sums, _ = rec.totals()
    t = sums[rec.roots("round")[0]]
    assert t["outer.self_s"] == pytest.approx(t["outer.s"] - t["inner.s"])
    assert 0.009 < t["outer.self_s"] < t["inner.s"]
    assert t["outer.calls"] == t["inner.calls"] == 1


def test_rounds_are_rescaled_by_the_gauge():
    import calibration
    import run

    wl = workloads.CollapseSweep
    quiet = calibration.QUIET_S[wl.gauge]

    def rnd(round_s, work_s, gauge_s):
        return (round_s, 10, work_s, "", gauge_s)

    # a round that the host slows to half speed reads as the same round at full speed
    rounds = [rnd(3.0, 2.0, quiet), rnd(6.0, 4.0, 2 * quiet), rnd(3.0, 2.0, quiet)]
    run_s, work_per_s = run._rescaled(wl, rounds)
    assert run_s == pytest.approx(3.0)
    assert work_per_s == pytest.approx(10 / 2.0)


def test_traced_transform_writes_identical_artifacts(tmp_path):
    wl = workloads.Transform64(3, tmp_path)
    original = qlif.cli.main

    def run(out: Path) -> dict:
        assert qlif.cli.main(wl.argv(out)) == 0
        return {p.name: p.read_bytes() for p in sorted(out.iterdir())}

    plain = run(tmp_path / "plain")
    rec = spans.Recorder()
    with spans.Tracer(rec).installed(), rec.span("round"):
        traced = run(tmp_path / "traced")
    assert qlif.cli.main is original
    assert sorted(plain) == ["state_qlif.qst", "transform_report.json"]
    assert plain == traced

    metrics = spans.layer_metrics(rec)
    assert metrics["qrf.to_qlif.calls"] == 1
    assert metrics["tetrad.tetrad_arrays.frames"] == 2 * 64**3
    assert metrics["qstate.save_state.bytes"] == len(plain["state_qlif.qst"])
    assert 0 < metrics["qrf.to_qlif.self_s"] < metrics["qrf.to_qlif.s"] < metrics["cli.main.s"]
    assert metrics["qrf.to_qlif.peak_mb"] > 0
    assert metrics["spacetime.christoffel.calls"] == 0


def test_traced_routes_follow_the_callees(tmp_path):
    rec = spans.Recorder()
    geo = workloads.GeodesicBundle(1, tmp_path)
    sweep = workloads.CollapseSweep(1, tmp_path)
    with spans.Tracer(rec).installed(), rec.span("round"):
        geo.run_round()
        sweep.run_round()
    m = spans.layer_metrics(rec)
    weak = workloads.CENTROID_STEPS * 2 + workloads.BUNDLE_STEPS * len(geo.starts)
    assert m["dynamics.rk4_steps.fd"] == weak
    assert m["dynamics.rk4_steps.analytic"] == workloads.ORBIT_STEPS * workloads.ORBITS
    assert m["collapse.rows.analytic"] == 2 * len(workloads.SWEEP_X)
    assert m["collapse.rows.quadrature"] == workloads.UNEQUAL_ROWS + workloads.MIXED_ROWS
    assert m["collapse.rows.monte_carlo"] == len(sweep.mc)


def test_collapse_failures_do_not_depend_on_seed(tmp_path):
    seen = set()
    for seed in (1, 2):
        wl = workloads.CollapseSweep(seed, tmp_path)
        verdict = wl.check(wl.run_round().outputs)
        assert verdict.problems == []
        seen.add((verdict.attempted, verdict.failed))
    assert len(seen) == 1
    ((attempted, failed),) = seen
    assert 0 < failed < attempted


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    argv = ["--workload", "collapse_sweep", "--seed", "1", "--seconds", "1", "--trace", "0"]
    done = subprocess.run(
        [sys.executable, "bench/run.py", *argv], cwd=tmp_path, capture_output=True, text=True, timeout=120
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout

"""Every benchmark workload must build and run one round on the package, so a
removed name or a changed signature that ``bench/workloads.py`` uses fails
here and not only when the benchmark runs.  The references need mpmath."""

import importlib
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
NAMES = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
# collapse_sweep's 50-digit mpmath references take seconds, so only its round runs
CHECKED = {"transform_64", "overlap_batch", "geodesic_bundle"}


@pytest.fixture(scope="module")
def workloads():
    pytest.importorskip("mpmath")
    bench = str(ROOT / "bench")
    sys.path.insert(0, bench)  # as ``bench/run.py`` does: the workloads import their sibling ``reference``
    try:
        return importlib.import_module("workloads")
    finally:
        sys.path.remove(bench)


@pytest.mark.parametrize("name", NAMES)
def test_workload_builds_and_runs_a_round(workloads, name, tmp_path):
    workload = workloads.WORKLOADS[name](1, tmp_path)
    done = workload.run_round()
    assert done.work > 0
    assert len(workload.digest(done.outputs)) == 64
    if name in CHECKED:
        verdict = workload.check(done.outputs)
        assert (verdict.failed, verdict.problems) == (0, [])

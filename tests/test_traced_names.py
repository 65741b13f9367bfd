"""The traced benchmark's wrappers and hooks must fit the package, so a removed name or a changed argument fails here and not only under ``bench/``."""

import importlib.util
from pathlib import Path

from conftest import two_branch_state
from qlif import qrf, qstate

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_every_traced_name_and_restores_it():
    spans = _load_spans()
    originals = {name: getattr(home, attr) for name, (home, attr, _) in spans.FUNCTIONS.items()}
    tracer = spans.Tracer(spans.Recorder())
    tracer.install()
    try:
        for name, (home, attr, _) in spans.FUNCTIONS.items():
            assert getattr(home, attr) is not originals[name], name
    finally:
        tracer.uninstall()
    for name, (home, attr, _) in spans.FUNCTIONS.items():
        assert getattr(home, attr) is originals[name], name


def test_hooks_read_the_arguments_of_a_traced_round(units, tmp_path):
    # the hooks read arguments by position (a state, a path, a branch and a
    # grid), so running each wrapped layer once inside a round checks them;
    # the layers are called through their modules, where the tracer puts its wrappers
    spans = _load_spans()
    rec = spans.Recorder()
    grid = qstate.GridSpec(lo=(-3, -3, -3), hi=(3, 3, 3), n=(9, 9, 9))
    branches = two_branch_state(units, grid=grid).branches
    path = tmp_path / "p.qst"
    with spans.Tracer(rec).installed(), rec.span("round"):
        s = qstate.make_state(branches, grid, units=units)
        out, _ = qrf.to_qlif(s)
        qstate.save_state(out, path)
        back = qrf.from_qlif(qstate.load_state(path))
        assert abs(qstate.inner_product(s, back) - 1.0) < 1e-8
    metrics = spans.layer_metrics(rec)
    assert metrics["qrf.to_qlif.calls"] == 1
    assert metrics["qstate.save_state.bytes"] == metrics["qstate.load_state.bytes"] == path.stat().st_size
    assert metrics["qstate.branch_sqrt_neg_det.calls"] > 0

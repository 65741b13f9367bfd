"""Every package name the traced benchmark wraps must exist, so removing one fails here and not only under ``bench/``."""

import importlib.util
from pathlib import Path

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

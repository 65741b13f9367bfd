"""Span recorder for the traced benchmark run, attached to qlif from outside.

``Tracer.install`` replaces qlif's public functions, in every qlif module
namespace that holds them, and the metric classes' batch methods, with
wrappers that open a span around the call.  Callers inside qlif look
these names up in their own module at call time, so the spans cover
calls made by qlif itself (the CLI calling ``to_qlif``, ``state_norm``
calling ``inner_product``) as well as the benchmark's own.
``Tracer.uninstall`` puts the originals back.

A span is (name, start, end, parent, tag, counts).  Self time is a
span's duration minus that of its direct children.  Counts (points,
frames, bytes, RK4 steps) are taken at the same boundaries.  Spans stay
in memory until ``write`` dumps them as one JSON file.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

import qlif
from qlif import cli, collapse, dynamics, qrf, qstate, spacetime, tetrad

MODULES = (qlif, cli, collapse, dynamics, qrf, qstate, spacetime, tetrad)
METRIC_CLASSES = (spacetime.Minkowski, spacetime.WeakFieldPointMass, spacetime.Schwarzschild)

NAME, START, END, PARENT, ROOT, TAG, COUNTS, NESTED = range(8)


class Recorder:
    """In-memory spans; a span with no parent is a root (setup or one round)."""

    def __init__(self):
        self.origin = time.perf_counter()
        self.spans: list[list] = []
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        nested = any(self.spans[i][NAME] == name for i in self._stack)
        parent = self._stack[-1] if self._stack else -1
        root = self._stack[0] if self._stack else idx
        self.spans.append([name, time.perf_counter(), None, parent, root, None, None, nested])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][END] = time.perf_counter()
        self._stack.pop()

    def note(self, idx: int, key: str, value) -> None:
        span = self.spans[idx]
        if span[COUNTS] is None:
            span[COUNTS] = {}
        span[COUNTS][key] = span[COUNTS].get(key, 0) + value

    @contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield idx
        finally:
            self.close(idx)

    def roots(self, name: str) -> list[int]:
        return [i for i, s in enumerate(self.spans) if s[PARENT] == -1 and s[NAME] == name]

    def totals(self) -> tuple[dict[int, dict[str, float]], dict[int, dict[str, set]]]:
        """Per-root sums over the spans below each root, and per-root tag sets by span name.

        Sum keys: ``<name>.s`` (outermost spans of that name),
        ``<name>.calls`` and ``<name>.self_s``, and every noted count under
        its own key (``peak`` keys keep the maximum, the rest add up).
        """
        child_time: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s[PARENT] != -1:
                child_time[s[PARENT]] += s[END] - s[START]
        sums: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        tags: dict[int, dict[str, set]] = defaultdict(lambda: defaultdict(set))
        for i, s in enumerate(self.spans):
            if s[PARENT] == -1:
                continue
            out, name, dur = sums[s[ROOT]], s[NAME], s[END] - s[START]
            if s[COUNTS]:
                for key, value in s[COUNTS].items():
                    out[key] = max(out[key], value) if "peak" in key else out[key] + value
            if s[NESTED]:
                continue
            out[f"{name}.s"] += dur
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += dur - child_time[i]
            if s[TAG] is not None:
                tags[s[ROOT]][name].add(s[TAG])
        return sums, tags

    def write(self, path, meta: dict) -> None:
        rows = [
            [s[NAME], round(s[START] - self.origin, 7), round(s[END] - self.origin, 7), s[PARENT], s[TAG], s[COUNTS]]
            for s in self.spans
        ]
        payload = {"meta": meta, "fields": ["name", "start_s", "end_s", "parent", "tag", "counts"], "spans": rows}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, separators=(",", ":"))


# Hooks: (recorder, span index, args, kwargs, result) -> None, run after the call.


def _rows(key, index):
    def hook(rec, idx, args, kwargs, result):
        rec.note(idx, key, int(np.shape(args[index])[0]))

    return hook


def _to_qlif(rec, idx, args, kwargs, result):
    s = args[0]
    rec.note(idx, "qrf.to_qlif.points", int(np.prod(s.grid.n)) * len(s.branches))


def _file_bytes(key, path_index):
    def hook(rec, idx, args, kwargs, result):
        rec.note(idx, key, os.path.getsize(args[path_index]))

    return hook


def _weight_key(rec, idx, args, kwargs, result):
    rec.spans[idx][TAG] = f"{args[0].metric.label}|{args[1]!r}"


def _ran_inside(rec, idx, name) -> bool:
    """Whether a span called ``name`` ran inside span ``idx``: its descendants are the spans after it."""
    return any(rec.spans[i][NAME] == name for i in range(idx + 1, len(rec.spans)))


def _duration(rec, idx) -> float:
    return rec.spans[idx][END] - rec.spans[idx][START]


def _integrate(rec, idx, args, kwargs, result):
    # the analytic path is the one on which the metric's own christoffel_batch ran
    path = "analytic" if _ran_inside(rec, idx, "spacetime.christoffel_batch") else "fd"
    rec.note(idx, f"dynamics.rk4_steps.{path}", len(result.states) - 1)
    rec.note(idx, f"dynamics.rk4_s.{path}", _duration(rec, idx))


ROW_SPANS = ("collapse.separation_sweep", "collapse.delta_self_energy")


def _collapse_rows(count):
    """Rows returned by the outermost sweep or self-energy call, by route.

    The route is quadrature when ``_pair_quadrature`` ran inside the call.
    """

    def hook(rec, idx, args, kwargs, result):
        if any(rec.spans[i][NAME] in ROW_SPANS for i in rec._stack):
            return
        route = "quadrature" if _ran_inside(rec, idx, "collapse._pair_quadrature") else "analytic"
        rec.note(idx, f"collapse.rows.{route}", count(result))
        rec.note(idx, f"collapse.rows_s.{route}", _duration(rec, idx))

    return hook


_MC_DEFAULT_SAMPLES = collapse.delta_self_energy_monte_carlo.__defaults__[0]


def _monte_carlo(rec, idx, args, kwargs, result):
    n = kwargs.get("n_samples", args[3] if len(args) > 3 else _MC_DEFAULT_SAMPLES)
    rec.note(idx, "collapse.mc_pairs", 3 * int(n))

FUNCTIONS = {
    "spacetime.sqrt_neg_det_batch": (spacetime, "sqrt_neg_det_batch", _rows("spacetime.sqrt_neg_det_batch.points", 1)),
    "spacetime.christoffel": (spacetime, "christoffel", None),
    "tetrad.tetrad_arrays": (tetrad, "tetrad_arrays", _rows("tetrad.tetrad_arrays.frames", 0)),
    "tetrad.build_tetrad": (tetrad, "build_tetrad", None),
    "qstate.make_state": (qstate, "make_state", None),
    "qstate.inner_product": (qstate, "inner_product", None),
    "qstate.branch_sqrt_neg_det": (qstate, "branch_sqrt_neg_det", _weight_key),
    "qstate.save_state": (qstate, "save_state", _file_bytes("qstate.save_state.bytes", 1)),
    "qstate.load_state": (qstate, "load_state", _file_bytes("qstate.load_state.bytes", 0)),
    "qrf.to_qlif": (qrf, "to_qlif", _to_qlif),
    "qrf.from_qlif": (qrf, "from_qlif", None),
    "qrf.check_qlif_metric": (qrf, "check_qlif_metric", None),
    "dynamics.integrate_geodesic": (dynamics, "integrate_geodesic", _integrate),
    "dynamics.branch_centroid": (dynamics, "branch_centroid", None),
    "dynamics.local_frame_velocity": (dynamics, "local_frame_velocity", None),
    "collapse.separation_sweep": (collapse, "separation_sweep", _collapse_rows(len)),
    "collapse.delta_self_energy": (collapse, "delta_self_energy", _collapse_rows(lambda e: 1)),
    "collapse._pair_quadrature": (collapse, "_pair_quadrature", None),
    "collapse.delta_self_energy_monte_carlo": (collapse, "delta_self_energy_monte_carlo", _monte_carlo),
    "cli.main": (cli, "main", None),
}

METHODS = {
    "eval_batch": ("spacetime.eval_batch", _rows("spacetime.eval_batch.points", 1)),
    "valid_mask": ("spacetime.valid_mask", None),
    "christoffel_batch": ("spacetime.christoffel_batch", None),
}

# tracemalloc runs only inside these spans, for their peak allocation
MEMORY_SPANS = {"qrf.to_qlif": "qrf.to_qlif.peak_bytes"}


class Tracer:
    """Installs and removes the span wrappers around qlif's layers."""

    def __init__(self, recorder: Recorder):
        self.rec = recorder
        self._undo: list[tuple[object, str, object]] = []

    def _wrapper(self, name, fn, hook):
        rec = self.rec
        peak_key = MEMORY_SPANS.get(name)

        def traced(*args, **kwargs):
            idx = rec.open(name)
            if peak_key:
                tracemalloc.start()
            try:
                result = fn(*args, **kwargs)
            finally:
                if peak_key:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    rec.note(idx, peak_key, peak)
                rec.close(idx)
            if hook is not None:
                hook(rec, idx, args, kwargs, result)
            return result

        return functools.wraps(fn)(traced)

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        for name, (home, attr, hook) in FUNCTIONS.items():
            original = getattr(home, attr)
            wrapped = self._wrapper(name, original, hook)
            for module in MODULES:
                if module.__dict__.get(attr) is original:
                    self._undo.append((module, attr, original))
                    setattr(module, attr, wrapped)
        for cls in METRIC_CLASSES:
            for attr, (name, hook) in METHODS.items():
                if attr in cls.__dict__:
                    original = cls.__dict__[attr]
                    self._undo.append((cls, attr, original))
                    setattr(cls, attr, self._wrapper(name, original, hook))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


# per-layer metrics read straight from the span totals
DIRECT = (
    "spacetime.eval_batch.calls",
    "spacetime.eval_batch.points",
    "spacetime.eval_batch.s",
    "spacetime.valid_mask.s",
    "spacetime.sqrt_neg_det_batch.points",
    "spacetime.sqrt_neg_det_batch.s",
    "spacetime.christoffel.calls",
    "spacetime.christoffel.s",
    "spacetime.christoffel_batch.calls",
    "spacetime.christoffel_batch.s",
    "tetrad.tetrad_arrays.frames",
    "tetrad.tetrad_arrays.s",
    "tetrad.build_tetrad.calls",
    "qrf.to_qlif.calls",
    "qrf.to_qlif.s",
    "qrf.to_qlif.self_s",
    "qrf.from_qlif.s",
    "qrf.check_qlif_metric.s",
    "qstate.inner_product.calls",
    "qstate.inner_product.s",
    "qstate.branch_sqrt_neg_det.calls",
    "qstate.branch_sqrt_neg_det.s",
    "qstate.make_state.s",
    "qstate.save_state.bytes",
    "qstate.save_state.s",
    "qstate.load_state.bytes",
    "qstate.load_state.s",
    "dynamics.integrate_geodesic.calls",
    "dynamics.integrate_geodesic.s",
    "dynamics.integrate_geodesic.self_s",
    "dynamics.branch_centroid.s",
    "dynamics.local_frame_velocity.s",
    "cli.main.s",
    "cli.main.self_s",
)


def layer_metrics(rec: Recorder) -> dict[str, float]:
    """Per-layer figures: the set-up's total plus the median over rounds of a round's total."""
    sums, tags = rec.totals()
    setup = rec.roots("setup")
    rounds = rec.roots("round")
    t: dict[str, float] = defaultdict(float)
    for key in set().union(*(sums[i] for i in setup + rounds)):
        combine = max if "peak" in key else sum
        per_round = statistics.median(sums[i].get(key, 0.0) for i in rounds) if rounds else 0.0
        t[key] = combine([*(sums[i].get(key, 0.0) for i in setup), per_round])
    m = {key: t[key] for key in DIRECT}
    m["qrf.to_qlif.peak_mb"] = t["qrf.to_qlif.peak_bytes"] / 1e6
    m["qrf.to_qlif.points_per_s"] = _ratio(t["qrf.to_qlif.points"], t["qrf.to_qlif.s"])
    weight_keys = set().union(*(tags[i]["qstate.branch_sqrt_neg_det"] for i in setup + rounds[:1]))
    m["qstate.weight_useful_ratio"] = _ratio(len(weight_keys), t["qstate.branch_sqrt_neg_det.calls"])
    for path in ("analytic", "fd"):
        m[f"dynamics.rk4_steps.{path}"] = t[f"dynamics.rk4_steps.{path}"]
        m[f"dynamics.rk4_steps_per_s.{path}"] = _ratio(t[f"dynamics.rk4_steps.{path}"], t[f"dynamics.rk4_s.{path}"])
    for route in ("analytic", "quadrature"):
        m[f"collapse.rows.{route}"] = t[f"collapse.rows.{route}"]
        m[f"collapse.rows_per_s.{route}"] = _ratio(t[f"collapse.rows.{route}"], t[f"collapse.rows_s.{route}"])
    m["collapse.rows.monte_carlo"] = t["collapse.delta_self_energy_monte_carlo.calls"]
    m["collapse.mc_pairs_per_s"] = _ratio(t["collapse.mc_pairs"], t["collapse.delta_self_energy_monte_carlo.s"])
    return m

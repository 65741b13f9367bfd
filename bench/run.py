#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  qlif is imported from the checkout's
``src/``; without it the command fails before printing a result.

With ``--trace 0`` the run measures the end-to-end metrics of
BENCHMARK.json: ``setup_s`` is the fastest of SETUP_SAMPLES fresh
processes (this one included) importing qlif and building the workload's
inputs.  The host shares its cores, and other tenants slow this process
by up to 2x for tens of seconds at a time, so every round is rescaled to
a quiet host by ``calibration``'s gauge for the workload, read before and
after it:
``run_s`` is the median over rounds of a round's wall time times the
gauge's quiet reading over its reading around the round, and
``work_per_s`` the median of the workload's headline work per second,
rescaled alike (README.md has the figures).
``peak_rss_mb`` is this process's peak resident set when the last round
ends, before the outputs are checked.

With ``--trace 1`` the run measures the per-layer metrics instead: it
builds the inputs under the span recorder, runs untraced rounds for half
the time and traced rounds for the other half, and writes every span to
``.bench_out/spans-<workload>-seed<n>.json``.

Every round repeats the same operations.  The outputs of the first round
are checked against ``reference``; every later round must reproduce them
bit for bit.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import os

# one worker thread: BLAS and OpenMP pools would otherwise take both cores
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 60


def _import_workloads():
    """Import qlif from this checkout's src/ (never an installed copy), then the workloads."""
    src = ROOT / "src"
    sys.path[:0] = [str(BENCH), str(src)]
    import qlif

    if Path(qlif.__file__).resolve().parent != src / "qlif":
        raise ImportError(f"qlif was imported from {qlif.__file__}, not from {src}")
    import workloads

    return workloads


def _setup(name: str, seed: int, workdir: Path, traced: bool = False):
    """Import qlif and build the workload's inputs; return (seconds, workload, tracer or None)."""
    import mpmath  # noqa: F401  (the references' dependency, not qlif's: kept out of the timing)

    t0 = time.perf_counter()
    workloads = _import_workloads()
    if not traced:
        return time.perf_counter() - t0, workloads.WORKLOADS[name](seed, workdir), None
    import spans

    rec = spans.Recorder()
    tracer = spans.Tracer(rec)
    with tracer.installed(), rec.span("setup"):
        wl = workloads.WORKLOADS[name](seed, workdir)
    return time.perf_counter() - t0, wl, tracer


def _setup_in_child(args) -> float:
    cmd = [sys.executable, str(BENCH / "run.py"), "--setup-only", "--workload", args.workload, "--seed", str(args.seed)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"set-up process failed ({done.returncode}):\n{done.stderr}")
    return float(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])


def _measure(wl, seconds: float, rec=None):
    """Run whole rounds for ``seconds``; return [(round_s, work, work_s, digest, gauge_s)], first outputs.

    The workload's gauge is read before the first round and after every
    round; a round's ``gauge_s`` is the mean of the readings on either side
    of it.  A round starts only if a round as long as the last one still
    ends in time.
    """
    import calibration  # here, not at the top: setup_s includes importing numpy

    rounds, first = [], None
    start = time.perf_counter()
    before = calibration.gauge_s(wl.gauge)
    while not rounds or time.perf_counter() - start + rounds[-1][0] <= seconds:
        t0 = time.perf_counter()
        if rec is None:
            r = wl.run_round()
        else:
            with rec.span("round"):
                r = wl.run_round()
        elapsed = time.perf_counter() - t0
        done = (elapsed, r.work, r.work_s, wl.digest(r.outputs))
        if first is None:
            first = r.outputs
        del r  # the next round runs with only the first round's outputs kept
        after = calibration.gauge_s(wl.gauge)
        rounds.append((*done, 0.5 * (before + after)))
        before = after
    return rounds, first


def _verdict(wl, rounds, first):
    v = wl.check(first)
    problems = list(v.problems)
    if len({r[3] for r in rounds}) != 1:
        problems.append("rounds did not reproduce the first round's outputs")
    for p in problems:
        print(f"# check: {p}")
    return not problems, v.attempted * len(rounds), v.failed * len(rounds)


def _rescaled(wl, rounds) -> tuple[float, float]:
    """(run_s, work_per_s): medians over rounds, each rescaled to a quiet host.

    A round's wall time and its work rate are scaled by the quiet reading
    of the workload's gauge over the reading around the round.
    """
    import calibration

    quiet = calibration.QUIET_S[wl.gauge]
    run_s = statistics.median(round_s * quiet / g for round_s, _, _, _, g in rounds)
    work_per_s = statistics.median(work / work_s * g / quiet for _, work, work_s, _, g in rounds)
    return run_s, work_per_s


def _emit(spec_metrics, values: dict, correct: bool, attempted: int, failed: int) -> None:
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec_metrics}
    for name, m in metrics.items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))


def run_plain(args, spec, workdir: Path) -> None:
    samples = [_setup_in_child(args) for _ in range(SETUP_SAMPLES - 1)]
    setup_s, wl, _ = _setup(args.workload, args.seed, workdir)
    samples.append(setup_s)
    rounds, first = _measure(wl, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    correct, attempted, failed = _verdict(wl, rounds, first)
    run_s, work_per_s = _rescaled(wl, rounds)
    values = {"setup_s": min(samples), "run_s": run_s, "work_per_s": work_per_s, "peak_rss_mb": peak_rss_mb}
    print(f"# round seconds: {[round(r[0], 4) for r in rounds]}")
    print(f"# {wl.gauge} gauge seconds: {[round(r[4], 5) for r in rounds]}")
    print(f"# work_per_s is {wl.work_name} for {wl.name}")
    _emit(spec["end_to_end"], values, correct, attempted, failed)


def run_traced(args, spec, workdir: Path) -> None:
    _, wl, tracer = _setup(args.workload, args.seed, workdir, traced=True)
    import spans

    plain, first = _measure(wl, args.seconds / 2)
    with tracer.installed():
        traced, _ = _measure(wl, args.seconds / 2, tracer.rec)
    rounds = plain + traced
    correct, attempted, failed = _verdict(wl, rounds, first)

    values = spans.layer_metrics(tracer.rec)
    plain_s = _rescaled(wl, plain)[0]
    values["trace.run_s"] = _rescaled(wl, traced)[0]
    values["trace.overhead_s"] = values["trace.run_s"] - plain_s
    values["trace.overhead_ratio"] = values["trace.overhead_s"] / plain_s
    values["trace.spans"] = len(tracer.rec.spans)
    span_file = OUT / f"spans-{args.workload}-seed{args.seed}.json"
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "rounds_untraced": len(plain),
        "rounds_traced": len(traced),
        "untraced_run_s": plain_s,
        "traced_run_s": values["trace.run_s"],
    }
    tracer.rec.write(span_file, meta)
    print(f"# spans written to {span_file.relative_to(ROOT)}; {len(plain)} untraced and {len(traced)} traced rounds")
    _emit(spec["per_layer"], values, correct, attempted, failed)


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")

    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        if args.setup_only:
            setup_s, _, _ = _setup(args.workload, args.seed, workdir)
            print(json.dumps({"setup_s": setup_s}))
        elif args.trace:
            run_traced(args, spec, workdir)
        else:
            run_plain(args, spec, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

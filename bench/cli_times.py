#!/usr/bin/env python3
"""Reference figures for the README: each CLI subcommand on its sample config.

    python3 bench/cli_times.py

Runs ``qlif <command> --config configs/<file>`` REPEATS times, each in a
fresh process, one at a time, and prints the median wall time and the
largest peak resident set per command.  Outputs go to a scratch directory
under ``.bench_out/`` that is removed afterwards.  This is not part of the
benchmark's measured runs.
"""

import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
COMMANDS = [
    ("transform", "two_branch_weakfield.yaml"),
    ("geodesics", "two_branch_weakfield.yaml"),
    ("collapse", "collapse_si.yaml"),
    ("selftest", "selftest.yaml"),
]
REPEATS = 3
LAUNCH = "import sys; from qlif.cli import main; sys.exit(main())"


def run_once(command: str, config: str, out: Path) -> tuple[float, float]:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    argv = [sys.executable, "-c", LAUNCH, command, "--config", str(ROOT / "configs" / config), "--out", str(out)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    elapsed = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise RuntimeError(f"qlif {command} exited {proc.returncode}")
    return elapsed, usage.ru_maxrss * 1024 / 1e6


def main() -> int:
    scratch = ROOT / ".bench_out" / f"cli-{os.getpid()}"
    try:
        print("| command | config | wall s (median) | peak RSS MB |")
        print("|---|---|---|---|")
        for command, config in COMMANDS:
            runs = [run_once(command, config, scratch / command) for _ in range(REPEATS)]
            wall = statistics.median(r[0] for r in runs)
            rss = max(r[1] for r in runs)
            print(f"| `{command}` | `{config}` | {wall:.2f} | {rss:.0f} |")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

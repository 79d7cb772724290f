"""Time a specinv command and read its own peak resident set size.

    python tools/peak_rss.py --src SRC_DIR [--src SRC_DIR ...] [--runs 7] -- ARGS ...

Each run starts ``python -m specinv.cli ARGS`` in a fresh process, with one BLAS
thread and ``SRC_DIR`` on ``PYTHONPATH``, from the current directory, and reads the
child's peak and minor page faults from ``os.wait4``: the benchmark launches and
measures a command the same way.  A child that ``subprocess`` starts by vfork and
exec carries the starter's high-water mark into its ``ru_maxrss``, so this tool
imports no numpy and stays near 10 MB, far below any command's peak.  With several
``--src`` directories the runs alternate between them, round by round, so a drift
of the host weighs on each alike.

For each ``SRC_DIR`` the tool prints the median wall time in ms (from the start
of the process to its exit, the interpreter's start included), the median peak
in MB, the median count of minor faults, and each run's peak.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path


def run_once(src: Path, args: list[str]) -> tuple[float, float, int]:
    """Wall time in ms, the process's own peak in MB of 2**20 bytes, as the benchmark's
    ``peak_rss_mb`` counts them (``ru_maxrss`` is in kB), and its minor page faults."""
    env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1",
           "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "specinv.cli", *args], env=env,
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    with proc.stderr:
        stderr = proc.stderr.read()
    _, status, usage = os.wait4(proc.pid, 0)
    wall_ms = (time.perf_counter() - start) * 1e3
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        sys.exit(f"error: {src}: exited {proc.returncode}: {stderr}")
    return wall_ms, usage.ru_maxrss / 1024, usage.ru_minflt


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, action="append", required=True,
                        help="directory holding the specinv package; repeat to alternate")
    parser.add_argument("--runs", type=int, default=7, help="runs per --src (default 7)")
    parser.add_argument("args", nargs=argparse.REMAINDER, help="-- then the command's arguments")
    opts = parser.parse_args()
    args = opts.args[1:] if opts.args[:1] == ["--"] else opts.args
    if not args or opts.runs < 1:
        parser.error("give at least one run and the command's arguments after --")
    results: dict[Path, list[tuple[float, float, int]]] = {src: [] for src in opts.src}
    for i in range(opts.runs):
        order = opts.src if i % 2 == 0 else opts.src[::-1]
        for src in order:
            results[src].append(run_once(src.resolve(), args))
    for src, runs in results.items():
        walls, peaks, faults = zip(*runs)
        print(f"{src}: wall {statistics.median(walls):.0f} ms, "
              f"peak {statistics.median(peaks):.1f} MB, "
              f"{statistics.median(faults):.0f} minor faults (median of {len(runs)}); "
              f"peaks {', '.join(f'{p:.1f}' for p in peaks)} MB")


if __name__ == "__main__":
    main()

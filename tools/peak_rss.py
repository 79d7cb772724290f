"""Time a specinv command and read its own peak resident set size.

    python tools/peak_rss.py --src SRC_DIR [--src SRC_DIR ...] [--runs 7] -- ARGS ...

Each run starts ``python -m specinv.cli ARGS`` in a fresh process, with one BLAS
thread and ``SRC_DIR`` on ``PYTHONPATH``, from the current directory.  At exit the
process reads its own high-water mark, ``VmHWM`` in ``/proc/self/status`` (Linux
only), so the figure is the command's own peak and not that of the process that
started it.  With several ``--src`` directories the runs alternate between them,
round by round, so a drift of the host weighs on each alike.

For each ``SRC_DIR`` the tool prints the median wall time in ms (from the start
of the process to its exit, the interpreter's start included), the median peak
in MB, and each run's peak.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# runs the command as ``python -m specinv.cli`` does, then writes VmHWM to argv[1]
CHILD = """
import atexit, runpy, sys
def report(path=sys.argv.pop(1)):
    with open('/proc/self/status') as status, open(path, 'w') as out:
        out.write(next(line for line in status if line.startswith('VmHWM:')))
atexit.register(report)
runpy.run_module('specinv.cli', run_name='__main__', alter_sys=True)
"""


def run_once(src: Path, args: list[str], report: Path) -> tuple[float, float]:
    """Wall time in ms and the process's own peak in MB of 2**20 bytes, as the benchmark's
    ``peak_rss_mb`` counts them (VmHWM is in kB)."""
    env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1",
           "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    report.unlink(missing_ok=True)  # a run that writes no report must not read the last one's
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", CHILD, str(report), *args], env=env,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    wall_ms = (time.perf_counter() - start) * 1e3
    if proc.returncode != 0:
        sys.exit(f"error: {src}: exited {proc.returncode}: {proc.stderr}")
    return wall_ms, int(report.read_text().split()[1]) / 1024


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
    results: dict[Path, list[tuple[float, float]]] = {src: [] for src in opts.src}
    with tempfile.TemporaryDirectory() as tmp:
        report = Path(tmp) / "vmhwm"
        for i in range(opts.runs):
            order = opts.src if i % 2 == 0 else opts.src[::-1]
            for src in order:
                results[src].append(run_once(src.resolve(), args, report))
    for src, runs in results.items():
        walls, peaks = zip(*runs)
        print(f"{src}: wall {statistics.median(walls):.0f} ms, "
              f"VmHWM {statistics.median(peaks):.1f} MB (median of {len(runs)}); "
              f"peaks {', '.join(f'{p:.1f}' for p in peaks)} MB")


if __name__ == "__main__":
    main()

"""Compare two checkouts on the benchmark in alternating pairs of runs.

    python tools/bench_pairs.py --parent PARENT_DIR --change CHANGE_DIR \
        [--workload W ...] [--pairs 10]

Pair ``i``, for ``i`` from 1 to N (``--pairs``, by default 10: the fewest a claim
needs, and fewer let a noisy metric such as sweep_ae's ``setup_s`` read a change to
other code as beyond its bound), runs
``python3 bench/run.py --workload W --seed i --seconds S --trace 0`` in each
checkout, where ``S`` is ``BENCHMARK.json``'s ``run_seconds``; odd pairs run the
parent first and even pairs the change, so a drift of the host weighs on both sides
alike.  Without ``--workload`` every workload of ``BENCHMARK.json`` runs.

For each end-to-end metric of ``BENCHMARK.json`` and each workload the tool prints
the parent's and the change's medians, the interquartile range of the parent's
runs, how many pairs the change won (ties count for neither side), whether the
change's median is worse than the parent's by more than the metric's bound (a
fraction of the parent's median), and whether a gain could be claimed: at least
ten pairs, a win in at least nine pairs of ten and a median gap wider than the
parent's interquartile range; with fewer than ten pairs the claim column reads
``n/a``.  The last column is the median of the paired differences (change minus
parent): pairing cancels a drift of the host that the two medians keep.  Failed
and attempted ops are summed per side.  The tool reads only
``BENCHMARK.json`` and ``bench/`` of each checkout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The result object, the last line of ``bench/run.py``'s standard output."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        sys.exit(f"error: {checkout}: bench/run.py exited {proc.returncode}: {proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(metric: dict, parent: list[float], change: list[float]) -> dict:
    """One table row: medians, the parent's interquartile range, wins, verdicts and the
    median paired difference."""
    sign = 1.0 if metric["better"] == "lower" else -1.0  # sign * (value) falls as it improves
    p_med, c_med = statistics.median(parent), statistics.median(change)
    q1, _, q3 = statistics.quantiles(parent, n=4)
    wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    worse = sign * (c_med - p_med) > metric["bound"] * abs(p_med)
    claim = None  # n/a: a claim needs at least ten pairs
    if len(parent) >= 10:
        claim = wins >= 0.9 * len(parent) and sign * (p_med - c_med) > q3 - q1
    return {"parent": p_med, "change": c_med, "parent_iqr": q3 - q1, "wins": wins,
            "worse_than_bound": worse, "claim": claim,
            "paired_diff": statistics.median(c - p for p, c in zip(parent, change))}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="the parent's checkout")
    parser.add_argument("--change", type=Path, required=True, help="the change's checkout")
    parser.add_argument("--workload", action="append", help="default: every workload")
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2, for an interquartile range")
    spec = json.loads((args.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    for workload in workloads:
        runs = {"parent": [], "change": []}
        for seed in range(1, args.pairs + 1):
            order = ("parent", "change") if seed % 2 == 1 else ("change", "parent")
            for side in order:
                runs[side].append(run_once(getattr(args, side), workload, seed, seconds))
            print(f"# {workload} seed {seed}: done", file=sys.stderr, flush=True)
        print(f"{workload}: {args.pairs} pairs, seeds 1..{args.pairs}, {seconds:g} s runs")
        for side, results in runs.items():
            print(f"  {side}: {sum(r['failed'] for r in results)} of "
                  f"{sum(r['attempted'] for r in results)} ops failed")
        print(f"  {'metric':<12} {'parent':>12} {'change':>12} {'parent IQR':>12} "
              f"{'wins':>6} {'worse>bound':>12} {'claim':>6} {'paired diff':>12}")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            row = summarize(metric, *([r["metrics"][name]["value"] for r in runs[side]]
                                      for side in ("parent", "change")))
            print(f"  {name:<12} {row['parent']:>12.6g} {row['change']:>12.6g} "
                  f"{row['parent_iqr']:>12.4g} {row['wins']:>3}/{args.pairs:<2} "
                  f"{'yes' if row['worse_than_bound'] else 'no':>12} "
                  f"{ {True: 'yes', False: 'no', None: 'n/a'}[row['claim']]:>6} "
                  f"{row['paired_diff']:>12.4g}")
        print(json.dumps({"workload": workload, "runs": runs}), file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Smoke test of the benchmark harness at a tiny size (a few minutes).

Usage, from the repository root:  python3 bench/smoke.py

Checks, on every workload:
  * an untraced run emits every end-to-end metric of BENCHMARK.json with its
    unit, with no failed op;
  * a traced run emits every per-layer metric with its unit, every span the
    workload should exercise has calls > 0 (which catches a wrapper installed
    on the wrong name, such as a missed ``from``-import), every span nests
    inside its parent, and the backward GFLOP are twice the training forward
    GFLOP (every training forward, the autoencoder's too, is named as one);
  * a deliberately corrupted output is counted as a failed op.
It also checks that the harness exits nonzero without a result line where no
specinv sources exist.
Exits 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SEED = 11

# spans each workload must exercise: per-op spans, then set-up spans
OP_SWEEP = [
    "cli.import", "cli.main", "dataset.load_dataset",
    "nncore.forward.train", "nncore.forward.eval", "nncore.backward", "nncore.adam_step",
    "nncore.snapshot_params", "nncore.restore_params", "nncore.save_checkpoint",
    "mdn.batch_nll_and_grads", "mdn.batch_nll", "mdn.save_mdn",
    "train.train_mdn", "transfer.sweep", "transfer.grow", "transfer.perturb_new_component",
]
SETUP_DATA = ["dataset.generate_designs", "dataset.surrogate_spectra"]
SETUP_MODEL = SETUP_DATA + ["train.train_mdn", "mdn.save_mdn", "mdn.load_mdn"]
OP_INFER = [
    "nncore.forward.single", "mdn.mixture_for", "mdn.predict_modes", "dataset.surrogate_spectra",
]
EXPECTED = {
    "sweep_ae": (OP_SWEEP + ["autoencoder.train_ae", "autoencoder.encode", "autoencoder.decode"],
                 SETUP_DATA + ["dataset.save_dataset"]),
    "predict_cli": (OP_INFER + ["cli.import", "cli.main", "nncore.load_checkpoint", "mdn.load_mdn"],
                    SETUP_MODEL),
}

failures: list[str] = []


def check(ok: bool, what: str) -> None:
    print(("ok    " if ok else "FAIL  ") + what, flush=True)
    if not ok:
        failures.append(what)


def bench(workload: str, *flags: str, cwd: Path = ROOT, seconds: str = "1"):
    """Run the harness; returns (exit code, last-line result, context, stdout)."""
    argv = [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload,
            "--seed", str(SEED), "--seconds", seconds, *flags]
    proc = subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = context = None
    if proc.returncode == 0 and len(lines) >= 2:
        result = json.loads(lines[-1])
        context = json.loads(lines[-2])["context"]
    else:
        print(proc.stderr[-2000:], file=sys.stderr)
    return proc.returncode, result, context, proc.stdout


def units(result) -> dict:
    return {k: v["unit"] for k, v in result["metrics"].items()}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    check([w["name"] for w in spec["workloads"]] == list(EXPECTED), "workloads match BENCHMARK.json")

    for workload, (op_spans, setup_spans) in EXPECTED.items():
        code, result, ctx, _ = bench(workload, "--trace", "0", "--tiny")
        check(code == 0 and result is not None, f"{workload}: untraced run exits 0 with a result")
        if result is None:
            continue
        check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
              f"{workload}: correct, {result['attempted']} attempted, {result['failed']} failed")
        check(units(result) == end_to_end, f"{workload}: every end-to-end metric with its unit")
        check(all(v["value"] > 0 for v in result["metrics"].values()),
              f"{workload}: end-to-end metrics are nonzero")
        code, result, ctx, _ = bench(workload, "--trace", "1", "--tiny")
        check(code == 0 and result is not None, f"{workload}: traced run exits 0 with a result")
        if result is None:
            continue
        check(result["correct"] and result["failed"] == 0,
              f"{workload}: traced and untraced ops agree and pass their checks")
        check(units(result) == per_layer, f"{workload}: every per-layer metric with its unit")
        values = {k: v["value"] for k, v in result["metrics"].items()}
        silent = [s for s in op_spans if not values[f"{s}.calls"] > 0]
        silent += [f"setup.{s}" for s in setup_spans if not values[f"setup.{s}.calls"] > 0]
        check(not silent, f"{workload}: expected spans recorded calls (silent: {silent})")
        check(ctx["spans_outside_parent"] == 0, f"{workload}: every span nests in its parent")
        fwd, bwd = values["nncore.forward.train.gflop"], values["nncore.backward.gflop"]
        check(abs(bwd - 2 * fwd) <= 1e-9 * bwd,
              f"{workload}: every training forward has its backward ({fwd:.4g} vs {bwd:.4g} GFLOP)")
        print(f"      tracing overhead {values['trace.overhead_pct']:.2f}% "
              f"of a {values['trace.op_ms_untraced']:.3f} ms untraced op", flush=True)

        code, result, _, _ = bench(workload, "--trace", "0", "--tiny", "--corrupt-first")
        check(code == 0 and result is not None and result["failed"] >= 1 and not result["correct"],
              f"{workload}: a corrupted output counts as a failed op")

    bare = ROOT / ".bench_work" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    code, _, _, stdout = bench("predict_cli", "--trace", "0", cwd=bare)
    check(code != 0 and not stdout.strip(), "without specinv sources: nonzero exit, no result")
    shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

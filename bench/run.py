"""The specinv benchmark: two checked, closed-loop workloads and one result line.

Usage, from the repository root:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (one client, closed loop: the next op starts when the last ends):

    sweep_ae     a fresh ``specinv sweep --autoencoder --strategy tl1 --k-max 2``
                 process on a 1000-sample dataset made in set-up, with a fixed
                 epoch count: autoencoder, then a tl1 sweep on its latents
    predict_cli  a fresh ``python -m specinv.cli predict --top 4`` process, one
                 generated spectrum per op, against a K=10 checkpoint

The epoch count is fixed by passing ``--patience`` equal to ``--max-epochs``,
so early stopping never changes the amount of work.  Every input comes from
``--seed``: the sweep dataset, and the query spectra of predict_cli (its
checkpoint is trained in set-up from a fixed seed, so seeds vary the questions
asked of one model).  Every op's output is checked, and an op that exits
nonzero, prints a traceback or fails its check counts as failed.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it holds the
context facts (machine, versions, BLAS, seed, src line count, tail latency).

With ``--trace 0`` the metrics are the end-to-end ones of ``BENCHMARK.json``.
With ``--trace 1``, set-up and every other op run under ``tracer.py``; the
per-layer metrics come from the traced ops, and the difference between traced
and untraced ops is reported as the tracing overhead.  A table of every span
(calls, total, self and per-call median milliseconds) precedes the context.

``--tiny`` shrinks every workload for ``smoke.py``; ``--corrupt-first`` damages
the first op's output before it is checked, to prove that the checks count it.

The BLAS thread count is fixed at one before numpy loads, for the harness and
every process it starts, and recorded with the result.
"""

from __future__ import annotations

import os

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import csv  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

WORKLOADS = ("sweep_ae", "predict_cli")
# set-ups per untraced run, spread over the run; setup_s is their median
SETUP_REPEATS = 7
OP_TIMEOUT_S = 150.0
TOP = 4
MODEL_SEED = 20240601  # data and training seed of predict_cli's checkpoint


@dataclass(frozen=True)
class Size:
    samples: int  # dataset records, 80% of them train rows
    sweep_k_max: int
    sweep_epochs: int  # for the autoencoder and for each K
    model_k: int  # predict_cli's checkpoint
    model_epochs: int
    pool: int  # held-out query spectra: resim_rmse averages over them
    predict_files: int  # the first of them, written as files and cycled by predict_cli


# A sweep at the CLI's default patience of 50 trains at least 51 epochs per K, so
# training dwarfs the fixed costs (import, one checkpoint write per model).  A
# run needs several ops for a steady median, so an op is a short sweep: K=1..2
# and 8 fixed epochs for each model (BASELINE.md has its time split).
FULL = Size(1000, 2, 8, 10, 2, 256, 64)
TINY = Size(200, 2, 1, 4, 1, 16, 8)

# per-layer span names, by module
SPANS = [
    "cli.import", "cli.main",
    "dataset.generate_designs", "dataset.surrogate_spectra",
    "dataset.save_dataset", "dataset.load_dataset",
    "nncore.forward.train", "nncore.forward.eval", "nncore.forward.single",
    "nncore.backward", "nncore.adam_step", "nncore.snapshot_params",
    "nncore.restore_params", "nncore.save_checkpoint", "nncore.load_checkpoint",
    "mdn.batch_nll_and_grads", "mdn.batch_nll", "mdn.mixture_for",
    "mdn.predict_modes", "mdn.save_mdn", "mdn.load_mdn",
    "train.train_mdn",
    "transfer.sweep", "transfer.grow", "transfer.perturb_new_component",
    "autoencoder.train_ae", "autoencoder.encode", "autoencoder.decode",
]
# spans whose share of set-up time is reported (inclusive of their children)
SETUP_SPANS = [
    "dataset.generate_designs", "dataset.surrogate_spectra", "dataset.save_dataset",
    "train.train_mdn", "mdn.save_mdn", "mdn.load_mdn",
]


# --- small helpers ----------------------------------------------------------------


def fmt(x: float) -> str:
    return format(float(x), ".17g")


def median(values) -> float:
    return float(statistics.median(values))


def tail(values_ms: list[float]) -> dict:
    """Highest percentile with at least ten samples beyond it, with the sample count."""
    n = len(values_ms)
    if n < 11:
        return {"samples": n, "percentile": None, "ms": None}
    j = n - 11
    return {"samples": n, "percentile": 100.0 * (j + 1) / n, "ms": sorted(values_ms)[j]}


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def csv_text(rows: list[list]) -> bytes:
    buf = io.StringIO(newline="")
    csv.writer(buf).writerows(rows)
    return buf.getvalue().encode("utf-8")


@dataclass
class Child:
    code: int
    seconds: float
    rss_mb: float
    stderr: str


def run_child(argv: list[str], log_dir: Path) -> Child:
    """Run one process to completion; wall time, peak RSS and stderr of that process."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("SPECINV_OUT_DIR", None)
    log_dir.mkdir(parents=True, exist_ok=True)
    with open(log_dir / "stdout.txt", "wb") as out, open(log_dir / "stderr.txt", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        watchdog = threading.Timer(OP_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        seconds = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(
        code=proc.returncode,
        seconds=seconds,
        rss_mb=usage.ru_maxrss / 1024.0,
        stderr=(log_dir / "stderr.txt").read_text(encoding="utf-8", errors="replace"),
    )


def child_failure(child: Child) -> str | None:
    if child.code != 0:
        return f"exit code {child.code}: {child.stderr.strip()[-400:]}"
    if "Traceback" in child.stderr:
        return "traceback on stderr"
    return None


# --- the library path that predict's outputs and resim_rmse are checked against ------


def rank_and_resimulate(model, x, spectrum):
    """What ``specinv predict`` computes: mixture, top modes clipped, re-simulated
    (the top ``TOP``, or all components of a smaller model)."""
    import numpy as np
    from specinv import dataset, mdn

    mix = mdn.mixture_for(model, x)
    modes = mdn.predict_modes(mix, min(TOP, mix.n_components))
    pis = [pi for pi, _ in modes]
    units = np.clip(np.array([mu for _, mu in modes]), 0.0, 1.0)
    designs = dataset.denormalize_designs(units)
    resim = dataset.surrogate_spectra(designs)
    rmse = [float(np.sqrt(np.mean((r - spectrum) ** 2))) for r in resim]
    return mix, pis, designs, rmse


def mean_best_rmse(model, inputs, spectra) -> float:
    """Mean over spectra of the best re-simulation RMSE among the top candidates."""
    best = [min(rank_and_resimulate(model, x, s)[3]) for x, s in zip(inputs, spectra)]
    return float(sum(best) / len(best))


def predict_reference(model, spectrum) -> tuple[bytes, bytes]:
    """predictions.csv and mixture.csv as ``predict`` must write them."""
    from specinv.dataset import PARAM_NAMES

    mix, pis, designs, rmse = rank_and_resimulate(model, spectrum, spectrum)
    pred = [["rank", "pi"] + list(PARAM_NAMES) + ["rmse"]]
    for rank, (pi, design, r) in enumerate(zip(pis, designs, rmse), start=1):
        pred.append([rank, fmt(pi)] + [fmt(v) for v in design] + [fmt(r)])
    n = mix.n_targets
    mixture = [
        ["component", "pi"] + [f"mu_{c + 1}" for c in range(n)] + [f"sigma_{c + 1}" for c in range(n)]
    ]
    for i in range(mix.n_components):
        mixture.append(
            [i + 1, fmt(mix.pi[i])] + [fmt(v) for v in mix.mu[i]] + [fmt(v) for v in mix.sigma[i]]
        )
    return csv_text(pred), csv_text(mixture)


# --- workloads ------------------------------------------------------------------


@dataclass
class OpResult:
    seconds: float
    rss_mb: float
    error: str | None = None


class Workload:
    """Set-up, one op and the quality figure of one named workload."""

    def __init__(self, seed: int, size: Size, tracer=None):
        self.seed, self.size, self.tracer = seed, size, tracer
        self.corrupt_next = False
        self.n_ops = 0

    def run_cli(self, args: list[str], op_dir: Path) -> Child:
        """One CLI process; in a traced op, the traced driver inside an ``op`` span."""
        if self.tracer is None or self.tracer.op is None:
            return run_child([sys.executable, "-m", "specinv.cli"] + args, op_dir / "log")
        trace_path = op_dir / "trace.json"
        argv = [sys.executable, str(BENCH / "traced_cli.py"), str(trace_path), self.tracer.op]
        root = self.tracer.begin("op")
        child = run_child(argv + args, op_dir / "log")
        self.tracer.end(root)
        if trace_path.exists():
            merge_child_trace(self.tracer, trace_path, root)
        return child

    def query_spectra(self):
        """Held-out spectra from their own Sobol stream, apart from any training data."""
        import numpy as np
        from specinv import dataset

        designs = dataset.generate_designs(self.size.pool, seed=self.seed + 1)
        return dataset.surrogate_spectra(np.array([d.to_array() for d in designs]))


class SweepWorkload(Workload):
    def __init__(self, seed: int, size: Size, tracer=None):
        super().__init__(seed, size, tracer)
        self.k_max, self.epochs = size.sweep_k_max, size.sweep_epochs
        self.reference_hashes = None
        self.first_out = None

    def setup(self, setup_dir: Path) -> None:
        from specinv import dataset

        ds = dataset.generate_dataset(self.size.samples, seed=self.seed)
        self.data_path = setup_dir / "desk.csv"
        dataset.save_dataset(self.data_path, ds, seed=self.seed)

    def op(self, op_dir: Path) -> OpResult:
        out = op_dir / "run"
        args = ["sweep", "--dataset", str(self.data_path), "--strategy", "tl1",
                "--k-max", str(self.k_max), "--max-epochs", str(self.epochs),
                "--patience", str(self.epochs), "--seed", str(self.seed), "--out", str(out),
                "--autoencoder"]
        child = self.run_cli(args, op_dir)
        result = OpResult(seconds=child.seconds, rss_mb=child.rss_mb, error=child_failure(child))
        if result.error is None:
            if self.corrupt_next:
                (out / "sweep_results.csv").write_text("K,epochs\n1,nan\n", encoding="utf-8")
            result.error = self.check(out)
        if self.first_out is None and result.error is None:
            self.first_out = out
        else:
            shutil.rmtree(out, ignore_errors=True)
        return result

    def check(self, out: Path) -> str | None:
        """Finite, fixed-epoch and byte-identical to the run's first op."""
        ks = range(1, self.k_max + 1)
        names = ["sweep_results.csv"] + [f"mdn_k{k:02d}.json" for k in ks]
        names += [f"log_k{k:02d}.csv" for k in ks] + ["ae.json", "ae_log.csv"]
        missing = [n for n in names if not (out / n).exists()]
        if missing:
            return f"missing outputs {missing}"
        try:
            with open(out / "sweep_results.csv", newline="", encoding="utf-8") as fh:
                rows = list(csv.DictReader(fh))
            values = [float(r[c]) for r in rows for c in ("train_nll", "val_nll", "test_nll")]
            epochs = [int(r["epochs"]) for r in rows]
        except (KeyError, ValueError) as exc:
            return f"sweep_results.csv unreadable: {exc!r}"
        if not all(math.isfinite(v) for v in values):
            return "non-finite value in sweep_results.csv"
        if epochs != [self.epochs] * self.k_max:
            return f"epochs {epochs} break the fixed-epoch rule"
        for n in names:
            if n.endswith(".json"):
                text = (out / n).read_bytes()
                if b"NaN" in text or b"Infinity" in text:
                    return f"non-finite value in {n}"
        with open(out / "ae_log.csv", newline="", encoding="utf-8") as fh:
            ae_epochs = sum(1 for _ in fh) - 1
        if ae_epochs != self.epochs:
            return f"autoencoder ran {ae_epochs} epochs, expected {self.epochs}"
        hashes = {n: sha256_file(out / n) for n in names}
        if self.reference_hashes is None:
            self.reference_hashes = hashes
        differ = [n for n in names if hashes[n] != self.reference_hashes[n]]
        if differ:
            return f"outputs differ from the first op: {differ}"
        return None

    def quality(self) -> float:
        """Mean best-candidate re-simulation RMSE of the sweep's largest model."""
        from specinv import autoencoder, mdn

        if self.first_out is None:
            return float("nan")
        spectra = self.query_spectra()
        inputs = autoencoder.encode(autoencoder.load_ae(self.first_out / "ae.json"), spectra)
        model = mdn.load_mdn(self.first_out / f"mdn_k{self.k_max:02d}.json")
        return mean_best_rmse(model, inputs, spectra)


class PredictWorkload(Workload):
    def setup(self, setup_dir: Path) -> None:
        from specinv import dataset, mdn, train
        from specinv.train import TrainConfig, child_rng

        s = self.size
        arrays = train.arrays_from_dataset(dataset.generate_dataset(s.samples, seed=MODEL_SEED))
        model = mdn.build_mdn(arrays.input_width, s.model_k, child_rng(MODEL_SEED, 1))
        config = TrainConfig(max_epochs=s.model_epochs, patience=s.model_epochs, seed=MODEL_SEED)
        train.train_mdn(
            model, arrays, config,
            shuffle_rng=child_rng(MODEL_SEED, 2), dropout_rng=child_rng(MODEL_SEED, 3),
        )
        self.checkpoint = setup_dir / f"mdn_k{s.model_k:02d}.json"
        mdn.save_mdn(self.checkpoint, model)
        self.model = mdn.load_mdn(self.checkpoint)
        self.spectra = self.query_spectra()
        self.spectrum_files, self.references = [], []
        for i, spectrum in enumerate(self.spectra[: s.predict_files]):
            path = setup_dir / f"spectrum_{i:03d}.txt"
            path.write_text("\n".join(fmt(v) for v in spectrum) + "\n", encoding="utf-8")
            self.spectrum_files.append(path)
            self.references.append(predict_reference(self.model, spectrum))

    def op(self, op_dir: Path) -> OpResult:
        i = self.n_ops % len(self.spectrum_files)
        out = op_dir / "prediction"
        args = ["predict", "--checkpoint", str(self.checkpoint),
                "--spectrum-file", str(self.spectrum_files[i]), "--top", str(TOP), "--out", str(out)]
        child = self.run_cli(args, op_dir)
        result = OpResult(seconds=child.seconds, rss_mb=child.rss_mb, error=child_failure(child))
        if result.error is None:
            if self.corrupt_next:
                with open(out / "predictions.csv", "ab") as fh:
                    fh.write(b"5,0,0,0,0,0,0,0\r\n")
            for name, expected in zip(("predictions.csv", "mixture.csv"), self.references[i]):
                path = out / name
                if not path.exists() or path.read_bytes() != expected:
                    result.error = f"{name} differs from the library reference (spectrum {i})"
        shutil.rmtree(op_dir, ignore_errors=True)
        return result

    def quality(self) -> float:
        return mean_best_rmse(self.model, self.spectra, self.spectra)


WORKLOAD_CLASSES = {
    "sweep_ae": SweepWorkload,
    "predict_cli": PredictWorkload,
}


# --- tracing glue -----------------------------------------------------------------


def merge_child_trace(tracer, trace_path: Path, root: int) -> None:
    """Append a child's spans, hanging its top-level spans under the op span ``root``."""
    from tracer import PARENT

    payload = json.loads(trace_path.read_text(encoding="utf-8"))
    base = len(tracer.spans)
    for span in payload["spans"]:
        span[PARENT] = root if span[PARENT] < 0 else span[PARENT] + base
        tracer.spans.append(span)
    for op, key, n in payload["counts"]:
        tracer.counts[(op, key)] = tracer.counts.get((op, key), 0) + n
    trace_path.unlink()


def layer_metrics(tracer, traced_ops: set, overhead: dict):
    """Per-layer metrics, a human-readable per-span table, and the count of spans
    that do not nest inside their parent (nonzero means the clocks disagree)."""
    from tracer import END, INFO, NAME, OP, PARENT, START

    spans = tracer.spans
    covered = [0] * len(spans)
    outside = 0
    for s in spans:
        if s[PARENT] >= 0:
            parent = spans[s[PARENT]]
            covered[s[PARENT]] += s[END] - s[START]
            outside += s[START] < parent[START] or s[END] > parent[END]
    by_name: dict[str, dict] = {}
    op_wall = setup_wall = 0
    for i, s in enumerate(spans):
        phase = "op" if s[OP] in traced_ops else "setup" if s[OP] == "setup" else None
        if phase is None:
            continue
        dur = s[END] - s[START]
        if s[NAME] == phase:  # the root span of an op or of set-up
            op_wall += dur if phase == "op" else 0
            setup_wall += dur if phase == "setup" else 0
        d = by_name.setdefault(s[NAME], {"op": [], "setup": [], "self": 0, "info": []})
        d[phase].append(dur)
        if phase == "op":
            d["self"] += dur - covered[i]
        if s[INFO] is not None:
            d["info"].append((phase, s[INFO], dur))
    n_ops = len(traced_ops)
    empty = {"op": [], "setup": [], "self": 0, "info": []}
    m: dict[str, tuple[float, str]] = {}
    for name in ["op"] + SPANS:
        d = by_name.get(name, empty)
        m[f"{name}.calls"] = (len(d["op"]) / n_ops, "count")
        m[f"{name}.self_pct"] = (100.0 * d["self"] / op_wall, "%")
    for name in SETUP_SPANS:
        d = by_name.get(name, empty)
        m[f"setup.{name}.calls"] = (float(len(d["setup"])), "count")
        m[f"setup.{name}.pct"] = (100.0 * sum(d["setup"]) / setup_wall, "%")

    def rate(name):
        info = by_name.get(name, empty)["info"]
        busy = sum(dur for _, _, dur in info)
        return sum(v for _, v, _ in info) / (busy / 1e9) if busy else 0.0

    m["train.rows_per_s"] = (rate("train.train_mdn"), "1/s")
    m["autoencoder.rows_per_s"] = (rate("autoencoder.train_ae"), "1/s")
    snaps = sum(n for (_, key), n in tracer.counts.items() if key == "snapshots")
    kept = sum(n for (_, key), n in tracer.counts.items() if key == "snapshots_kept")
    m["train.snapshot_kept_ratio"] = (kept / snaps if snaps else 0.0, "fraction")
    for name in ("nncore.save_checkpoint", "nncore.load_checkpoint"):
        info = by_name.get(name, empty)["info"]
        m[f"{name}.bytes"] = (sum(v for _, v, _ in info) / len(info) if info else 0.0, "bytes")
    for name in ("nncore.forward.train", "nncore.backward"):
        flop = sum(v for phase, v, _ in by_name.get(name, empty)["info"] if phase == "op")
        m[f"{name}.gflop"] = (flop / n_ops / 1e9, "GFLOP")
    m["trace.op_ms_untraced"] = (overhead["untraced_ms"], "ms")
    m["trace.op_ms_traced"] = (overhead["traced_ms"], "ms")
    m["trace.overhead_pct"] = (overhead["pct"], "%")

    table = []
    for name in ["setup", "op"] + SPANS:
        d = by_name.get(name, empty)
        calls = d["op"] + d["setup"]
        table.append({
            "span": name,
            "op_calls": len(d["op"]),
            "setup_calls": len(d["setup"]),
            "total_ms": sum(calls) / 1e6,
            "self_ms_per_op": d["self"] / 1e6 / n_ops,
            "ms_p50": median(calls) / 1e6 if calls else None,
        })
    return m, table, outside


# --- the run --------------------------------------------------------------------


def git_commit() -> str | None:
    """HEAD of the checkout; None outside git.  GIT_DIR keeps git from searching
    the directories above the checkout."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, env=dict(os.environ, GIT_DIR=str(ROOT / ".git")))
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def context(args) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src_lines = sum(
        len(p.read_text(encoding="utf-8").splitlines()) for p in sorted((SRC / "specinv").glob("*.py"))
    )
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": "tiny" if args.tiny else "full",
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_commit": git_commit(),
        "src_lines": src_lines,
    }


def measure(args, work: Path) -> tuple[dict, dict, list]:
    tracer = None
    if args.trace:
        from tracer import Tracer, install

        tracer = Tracer()
    wl = WORKLOAD_CLASSES[args.workload](args.seed % 2**32, TINY if args.tiny else FULL, tracer)

    setup_s: list[float] = []

    def set_up() -> None:
        setup_dir = work / f"setup{len(setup_s)}"
        setup_dir.mkdir()
        if tracer is not None:
            install(tracer)
            tracer.op = "setup"
            root = tracer.begin("setup")
        t0 = time.perf_counter()
        wl.setup(setup_dir)
        setup_s.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.end(root)
            tracer.uninstall()
            tracer.op = None

    # Set-up runs once before the ops and, untraced, again at even steps of
    # op time through the run, so that setup_s samples the same stretch of the
    # host's load as the ops do.  Its time does not count against the run.
    repeats = 1 if tracer else SETUP_REPEATS
    set_up()
    # a traced run alternates untraced and traced ops, starting untraced
    results: list[OpResult] = []
    traced_ops: set[str] = set()
    wl.corrupt_next = args.corrupt_first
    deadline = time.perf_counter() + args.seconds
    while True:
        op_id = f"op{wl.n_ops}"
        traced = tracer is not None and wl.n_ops % 2 == 1
        if traced:
            tracer.op = op_id
            traced_ops.add(op_id)
        results.append(wl.op(work / op_id))
        if traced:
            tracer.op = None
        wl.corrupt_next = False
        wl.n_ops += 1
        op_time = sum(r.seconds for r in results)
        if len(setup_s) < repeats and op_time >= len(setup_s) * args.seconds / repeats:
            t0 = time.perf_counter()
            set_up()
            deadline += time.perf_counter() - t0
        # start no op that would end past the deadline, judged by the last one
        if len(results) >= (2 if tracer else 1) and time.perf_counter() + results[-1].seconds > deadline:
            break
    while len(setup_s) < repeats:
        set_up()

    failed = [r for r in results if r.error is not None]
    op_ms = [r.seconds * 1e3 for r in results]
    quality = wl.quality()
    info = context(args)
    info.update(
        ops=len(results),
        error_rate=len(failed) / len(results),
        first_errors=[r.error for r in failed[:3]],
        op_ms_tail=tail(op_ms),
        op_ms_each=op_ms[:40],
        setup_s_each=setup_s,
        resim_rmse=quality,
    )
    table = []
    if tracer is None:
        metrics = {
            "setup_s": (median(setup_s), "s"),
            "op_ms_p50": (median(op_ms), "ms"),
            "peak_rss_mb": (median([r.rss_mb for r in results]), "MB"),
            "resim_rmse": (quality, "absorbance"),
        }
    else:
        untraced = median([ms for i, ms in enumerate(op_ms) if f"op{i}" not in traced_ops])
        traced = median([ms for i, ms in enumerate(op_ms) if f"op{i}" in traced_ops])
        overhead = {"untraced_ms": untraced, "traced_ms": traced,
                    "pct": 100.0 * (traced - untraced) / untraced}
        info["tracing_overhead"] = dict(overhead, base="median untraced op of this run")
        metrics, table, info["spans_outside_parent"] = layer_metrics(tracer, traced_ops, overhead)
    result = {
        "correct": not failed and math.isfinite(quality),
        "attempted": len(results),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, info, table


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small sizes, for smoke.py")
    parser.add_argument("--corrupt-first", action="store_true",
                        help="damage the first op's output before its check, for smoke.py")
    args = parser.parse_args(argv)
    if not (SRC / "specinv" / "cli.py").is_file():
        print(f"error: no specinv sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import specinv.cli  # noqa: F401  the harness's own import is not set-up time

    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        result, info, table = measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for row in table:
        print(json.dumps({"span": row}))
    print(json.dumps({"context": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

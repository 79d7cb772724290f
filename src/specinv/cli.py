"""Command-line driver tying the pieces together.

Subcommands: gen-data, train, sweep, predict, report.  Every train or sweep run
directory holds one run's config.txt: its command and that command's settings, which
is enough to reproduce all numeric outputs bit-identically on the same platform.

Exit codes: 0 success, 2 argument errors, 3 I/O or file-format errors,
4 training divergence.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import autoencoder, dataset, mdn, svgplot, transfer
from .dataset import DatasetFormatError, PARAM_LOWER, PARAM_NAMES, PARAM_UPPER
from .nncore import (
    CheckpointFormatError,
    TrainingDivergedError,
    finite_float,
    read_csv,
    read_text,
    write_csv,
)
from .train import (TrainConfig, TrainResult, ae_streams, arrays_from_dataset, model_streams,
                    train_mdn)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_DIVERGED = 4

AE_FILE = "ae.json"  # an --autoencoder sweep's autoencoder, beside the models of its latents


@dataclass
class RunConfig(TrainConfig):
    """Everything a run needs: the training hyperparameters plus what to run on."""

    dataset: str = ""
    k: int = 1
    k_max: int = 10
    strategy: str = field(default="none", metadata={"choices": transfer.STRATEGIES})
    autoencoder: bool = field(default=False, metadata={
        "help": "train an autoencoder first and sweep on 10-dim latents"})
    out: str = "run"

    def __post_init__(self):
        super().__post_init__()
        for name in ("k", "k_max"):
            self._require(name, getattr(self, name) >= 1, ">= 1")
        self._require("strategy", self.strategy in transfer.STRATEGIES,
                      f"one of {', '.join(transfer.STRATEGIES)}")


_FIELDS = [f.name for f in dataclasses.fields(RunConfig)]
# each command's settings: the RunConfig fields its flags set, the only keys its --config
# file may hold, and the lines its config.txt writes
SETTINGS = {
    "gen-data": ["seed"],
    "train": [name for name in _FIELDS if name not in ("k_max", "strategy", "autoencoder")],
    "sweep": [name for name in _FIELDS if name != "k"],
}

_BOOL_TRUE = {"1", "true", "yes", "on"}
_BOOL_FALSE = {"0", "false", "no", "off"}


def parse_config_file(path: str | Path, command: str) -> dict:
    """key = value lines; each key is one of ``command``'s settings.

    A line whose first non-blank character is '#' is a comment; a '#' anywhere
    else belongs to the value.

    A ``command`` line, which ``write_config`` records, must name ``command``,
    the subcommand being run, so a run's own config.txt replays it.  No key repeats.
    """
    types = {f.name: type(f.default) for f in dataclasses.fields(RunConfig)
             if f.name in SETTINGS[command]}
    values, key_lines = {}, {}
    try:
        text = read_text(path)
    except DatasetFormatError as exc:  # a bad --config is a usage error, as below
        raise ValueError(str(exc)) from None
    except OSError as exc:  # missing, a directory, unreadable: FILE: reason, as main prints
        raise ValueError(f"{path}: {exc.strerror}") from None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}: line {lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key in key_lines:
            raise ValueError(f"{path}: line {lineno}: {key} was set on line {key_lines[key]}")
        key_lines[key] = lineno
        if key == "command":
            if value != command:
                raise ValueError(f"{path}: line {lineno}: command {value!r} is not {command!r}")
            continue
        if key not in types:
            raise ValueError(f"{path}: line {lineno}: {command} takes no setting {key!r}")
        ty = types[key]
        if ty is bool:
            low = value.lower()
            if low in _BOOL_TRUE:
                values[key] = True
            elif low in _BOOL_FALSE:
                values[key] = False
            else:
                raise ValueError(f"{path}: line {lineno}: bad boolean {value!r}")
        else:
            try:
                values[key] = ty(value)
            except ValueError:
                raise ValueError(
                    f"{path}: line {lineno}: {key} must be "
                    f"{'an int' if ty is int else 'a float'}, got {value!r}"
                ) from None
    return values


def write_config(path: str | Path, cfg: RunConfig, command: str) -> None:
    lines = [f"command = {command}"]
    lines += [f"{name} = {getattr(cfg, name)}" for name in sorted(SETTINGS[command])]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def build_config(args: argparse.Namespace) -> RunConfig:
    """Defaults, overridden by --config file values, overridden by CLI flags."""
    values = {}
    if getattr(args, "config", None):
        values.update(parse_config_file(args.config, args.command))
    for name in SETTINGS[args.command]:
        if (flag := getattr(args, name)) is not None:
            values[name] = flag
    return RunConfig(**values)


SWEEP_RESULTS_COLUMNS = {
    "K": int, "strategy": str, "epochs": int,
    "train_nll": finite_float, "val_nll": finite_float, "test_nll": finite_float,
}


def log_columns(loss: str) -> dict:
    """The columns of a training log of ``loss`` (nll or mse) per epoch."""
    return {"epoch": int, f"train_{loss}": finite_float, f"val_{loss}": finite_float}


def _write_log_csv(path: Path, log: list[tuple[float, float]], loss: str) -> None:
    rows = ([epoch, train, val] for epoch, (train, val) in enumerate(log, start=1))
    write_csv(path, log_columns(loss), rows)


def _model_paths(run_dir: Path, k: int) -> tuple[Path, Path]:
    """The checkpoint and the training log of a run's K-component model."""
    return run_dir / f"mdn_k{k:02d}.json", run_dir / f"log_k{k:02d}.csv"


def _write_model(out_dir: Path, k: int, fit: TrainResult) -> None:
    checkpoint, log = _model_paths(out_dir, k)
    mdn.save_mdn(checkpoint, fit.model)
    _write_log_csv(log, fit.log, "nll")


def write_sweep_files(out_dir: Path, entries: list[transfer.SweepEntry], strategy: str,
                      ae_fit: TrainResult | None) -> None:
    """sweep_results.csv, byte-reproducible for a fixed seed, and sweep_timing.csv, the
    wall-clock seconds of each fit (``ae_fit`` is the autoencoder's, if one trained)."""
    results = ([e.k, strategy, e.epochs, e.train_nll, e.best_val_loss, e.test_nll] for e in entries)
    write_csv(out_dir / "sweep_results.csv", SWEEP_RESULTS_COLUMNS, results)
    rows = [] if ae_fit is None else [["ae_train", "-", ae_fit.seconds]]
    rows += [[f"k={e.k}", strategy, e.seconds] for e in entries]
    rows.append(["total", strategy, sum(row[2] for row in rows)])
    write_csv(out_dir / "sweep_timing.csv", {"stage": str, "strategy": str, "seconds": float},
              rows)


def read_spectrum_file(path: str | Path) -> np.ndarray:
    """A spectrum is 101 numbers separated by commas and/or whitespace."""
    tokens = read_text(path).replace(",", " ").split()
    try:
        values = [float(t) for t in tokens]
    except ValueError as exc:
        raise DatasetFormatError(f"{path}: {exc}") from None
    if len(values) != dataset.N_WAVELENGTHS:
        raise DatasetFormatError(
            f"{path}: expected {dataset.N_WAVELENGTHS} absorbance values, got {len(values)}"
        )
    spectrum = np.array(values)
    if not dataset.valid_absorbance(spectrum):
        raise DatasetFormatError(f"{path}: absorbance values must be finite and within [0, 1]")
    return spectrum


# --- subcommands ---------------------------------------------------------------


def _out_path(value: str) -> Path:
    """An --out given on the command line; "" would write into the working directory."""
    if not value:
        raise ValueError("--out must not be empty")
    return Path(value)


def cmd_gen_data(args: argparse.Namespace) -> int:
    out = _out_path(args.out_file)
    cfg = build_config(args)
    samples = args.samples
    if samples < dataset.MIN_RECORDS:
        raise ValueError(f"--samples must be >= {dataset.MIN_RECORDS}, got {samples}")
    out.parent.mkdir(parents=True, exist_ok=True)
    ds = dataset.generate_dataset(samples, seed=cfg.seed)
    dataset.save_dataset(out, ds, seed=cfg.seed)
    counts = ds.counts()
    print(
        f"wrote {len(ds)} records to {out} "
        f"(train/val/test = {counts['train']}/{counts['val']}/{counts['test']})"
    )
    return EXIT_OK


def _load_dataset(path: str, splits: tuple[str, ...]) -> dataset.LabeledDataset:
    """The dataset at ``path``; one of ``splits`` without rows is a format error."""
    ds = dataset.load_dataset(path)
    empty = [split for split in splits if ds.counts()[split] == 0]
    if empty:
        raise DatasetFormatError(f"{path}: no {' or '.join(empty)} rows")
    return ds


def _start_run(args: argparse.Namespace):
    """The settings, dataset, split matrices and output directory of a train or sweep run;
    every setting is checked before the dataset is read, and the dataset before --out is made."""
    cfg = build_config(args)
    for name in ("dataset", "out"):  # "" would read or write the working directory
        if not getattr(cfg, name):
            raise ValueError(f"--{name} (or a --config line '{name} =') must not be empty")
    out_dir = Path(cfg.out)
    if (out_dir / "config.txt").exists():  # another run's files would pass as this run's
        raise ValueError(f"--out {out_dir} already holds a run's config.txt; "
                         "each run needs a new directory")
    ds = _load_dataset(cfg.dataset, ("train", "val", "test"))
    arrays = arrays_from_dataset(ds)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_config(out_dir / "config.txt", cfg, args.command)
    return cfg, ds, arrays, out_dir


def cmd_train(args: argparse.Namespace) -> int:
    cfg, _, arrays, out_dir = _start_run(args)
    init_rng, shuffle_rng, dropout_rng = model_streams(cfg.seed, cfg.k)
    model = mdn.build_mdn(arrays.input_width, cfg.k, init_rng)
    fit = train_mdn(model, arrays, cfg, shuffle_rng=shuffle_rng, dropout_rng=dropout_rng)
    _write_model(out_dir, cfg.k, fit)
    print(f"K={cfg.k}: {fit.epochs} epochs, best val NLL {fit.best_val_loss:.6f}")
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    cfg, ds, arrays, out_dir = _start_run(args)
    ae_fit = None
    if cfg.autoencoder:
        shuffle_rng, rng = ae_streams(cfg.seed)
        ae_fit = autoencoder.train_ae(
            arrays.train_x, arrays.val_x, cfg, shuffle_rng=shuffle_rng, rng=rng
        )
        autoencoder.save_ae(out_dir / AE_FILE, ae_fit.model)
        _write_log_csv(out_dir / "ae_log.csv", ae_fit.log, "mse")
        latents = autoencoder.encode(ae_fit.model, ds.spectra)
        arrays = arrays_from_dataset(ds, x_matrix=latents)
        # diagnostic only: how close encode(decode(z)) comes to fixing the latents
        roundtrip = autoencoder.encode(
            ae_fit.model, autoencoder.decode(ae_fit.model, arrays.train_x)
        )
        latent_mse = float(np.mean((roundtrip - arrays.train_x) ** 2))
        print(
            f"autoencoder: {ae_fit.epochs} epochs, "
            f"val reconstruction MSE {ae_fit.best_val_loss:.3e}, "
            f"latent round-trip MSE {latent_mse:.3e}"
        )

    entries = transfer.sweep(arrays, cfg.k_max, cfg.strategy, cfg,
                             on_trained=lambda entry: _write_model(out_dir, entry.k, entry))
    write_sweep_files(out_dir, entries, cfg.strategy, ae_fit)
    for entry in entries:
        print(
            f"K={entry.k}: {entry.epochs} epochs, "
            f"val NLL {entry.best_val_loss:.6f}, test NLL {entry.test_nll:.6f}"
        )
    return EXIT_OK


def _spectrum_mixture(model: mdn.MdnModel, checkpoint, spectrum: np.ndarray) -> mdn.MixtureParams:
    """The mixture of ``model``, loaded from ``checkpoint``, for one spectrum, through the
    autoencoder its sweep wrote beside ``checkpoint`` if the model takes latents, not spectra.

    An autoencoder whose latents are not as wide as the model's inputs is a format error
    naming both files.  Saturated weights, which can pass every format check yet give
    non-finite latents, or a mixture with a non-finite value, or a peak density
    ``pi / (sqrt(2 pi) sigma)`` or a span of ``mu +/- 8 sigma`` beyond float64, are a format
    error of the file that holds them."""
    x = spectrum
    if model.input_width != dataset.N_WAVELENGTHS:
        ae_path = Path(checkpoint).parent / AE_FILE
        ae = autoencoder.load_ae(ae_path)
        if (width := ae.encoder.output_width) != model.input_width:
            raise CheckpointFormatError(f"{ae_path}: the encoder gives {width}-wide latents, "
                                        f"but {checkpoint} takes {model.input_width} inputs")
        x = autoencoder.encode(ae, spectrum)
        if not np.isfinite(x).all():
            raise CheckpointFormatError(f"{ae_path}: the latents of this spectrum are not finite")
    mix = mdn.mixture_for(model, x)
    peaks = mix.pi[:, None] / (np.sqrt(2.0 * np.pi) * mix.sigma)  # inf for a sigma of 0
    bounds = mix.mu + np.multiply.outer([-8.0, 8.0], mix.sigma)  # what marginal_grid spans
    spans = np.ptp(bounds, axis=(0, 1))  # NaN or inf if any bound is
    if not (np.isfinite(peaks).all() and np.isfinite(spans).all()):
        raise CheckpointFormatError(f"{checkpoint}: the mixture for this spectrum has non-finite "
                                    f"values, or a peak density or span beyond float64")
    return mix


def cmd_predict(args: argparse.Namespace) -> int:
    out_dir = _out_path(args.out)
    model = mdn.load_mdn(args.checkpoint)
    if not 1 <= args.top <= model.n_components:
        raise ValueError(f"--top {args.top} out of range [1, {model.n_components}]")
    spectrum = read_spectrum_file(args.spectrum_file)
    mix = _spectrum_mixture(model, args.checkpoint, spectrum)
    found = mdn.rank_candidates(mix, spectrum, args.top)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_csv(
        out_dir / "predictions.csv",
        {"rank": int, "pi": float, **dict.fromkeys(PARAM_NAMES, float), "rmse": float},
        ([rank, pi, *design, rmse] for rank, (pi, design, rmse)
         in enumerate(zip(found.pi, found.designs, found.rmse), start=1)),
    )
    write_csv(
        out_dir / "resimulated.csv",
        {"rank": int, **dataset.ABSORBANCE_COLUMNS},
        ([rank, *s] for rank, s in enumerate(found.resimulated, start=1)),
    )
    n = mix.n_targets
    write_csv(
        out_dir / "mixture.csv",
        {"component": int, "pi": float,
         **dict.fromkeys((f"{name}_{c + 1}" for name in ("mu", "sigma") for c in range(n)), float)},
        ([i, pi, *mu, *sigma]
         for i, (pi, mu, sigma) in enumerate(zip(mix.pi, mix.mu, mix.sigma), start=1)),
    )
    for rank, fault in enumerate(found.faults, start=1):
        if fault:
            print(f"warning: candidate {rank}: {fault}", file=sys.stderr)
    print(f"wrote {len(found.pi)} candidates to {out_dir} "
          f"(best re-simulation RMSE {found.rmse.min():.4f})")
    return EXIT_OK


def cmd_report(args: argparse.Namespace) -> int:
    run_dir = Path(args.run_dir)
    out_dir = run_dir / "report" if args.out is None else _out_path(args.out)
    results_path = run_dir / "sweep_results.csv"
    if not results_path.exists():
        raise FileNotFoundError(f"{results_path} not found; run 'sweep' first")
    results, _ = read_csv(results_path, SWEEP_RESULTS_COLUMNS)
    ks = results["K"]
    if args.k is not None and args.k not in ks:
        raise ValueError(f"--k {args.k} is not a K of {results_path} ({ks})")
    # every file is read and checked before any figure is written
    log_paths = {k: _model_paths(run_dir, k)[1] for k in ks}
    logs = {k: read_csv(path, log_columns("nll"))[0] for k, path in log_paths.items()
            if path.exists()}
    marginals = _test_record_mixture(args, run_dir, ks) if args.dataset else None
    out_dir.mkdir(parents=True, exist_ok=True)

    strategy = results["strategy"][0]
    for k, log in logs.items():
        svg = svgplot.line_chart(
            [
                ("train NLL", log["epoch"], log["train_nll"]),
                ("validation NLL", log["epoch"], log["val_nll"]),
            ],
            title=f"Loss curves, K={k} ({strategy})",
            x_label="epoch",
            y_label="NLL",
        )
        (out_dir / f"loss_curves_k{k:02d}.svg").write_text(svg, encoding="utf-8")

    svg = svgplot.line_chart(
        [
            ("train", ks, results["train_nll"]),
            ("validation", ks, results["val_nll"]),
            ("test", ks, results["test_nll"]),
        ],
        title=f"NLL vs number of components ({strategy})",
        x_label="K",
        y_label="NLL",
    )
    (out_dir / "nll_vs_k.svg").write_text(svg, encoding="utf-8")

    if marginals is not None:
        _write_marginals(out_dir, *marginals)
    print(f"report written to {out_dir}")
    return EXIT_OK


def _test_record_mixture(args, run_dir: Path, ks: list[int]):
    """K, the K-component mixture for one test record, and that record's true design."""
    ds = _load_dataset(args.dataset, ("test",))
    test_idx = ds.indices("test")
    if not 0 <= args.test_index < len(test_idx):
        raise ValueError(f"--test-index {args.test_index} out of range [0, {len(test_idx)})")
    k = args.k if args.k is not None else max(ks)
    checkpoint, _ = _model_paths(run_dir, k)
    model = mdn.load_mdn(checkpoint)
    record = test_idx[args.test_index]
    mix = _spectrum_mixture(model, checkpoint, ds.spectra[record])
    return k, mix, ds.designs[record]


def _write_marginals(out_dir: Path, k: int, mix: mdn.MixtureParams, truth: np.ndarray) -> None:
    """Mixture-weighted marginal density of each design parameter for one test record."""
    spans = PARAM_UPPER - PARAM_LOWER
    for c, name in enumerate(PARAM_NAMES):
        grid = mdn.marginal_grid(mix, c)
        dens = mdn.weighted_marginal_pdf(mix, c, grid)
        # physical axis: value = lower + span*u, density rescaled to per-nm
        value_nm = PARAM_LOWER[c] + spans[c] * grid
        dens_nm = dens / spans[c]
        write_csv(out_dir / f"marginal_{name}.csv", {f"{name}_nm": float, "density_per_nm": float},
                  zip(value_nm, dens_nm))
        svg = svgplot.line_chart(
            [("weighted marginal pdf", value_nm, dens_nm)],
            title=f"Marginal density of {name} (K={k})",
            x_label=f"{name} [nm]",
            y_label="density [1/nm]",
            vlines=[(f"true {name} = {truth[c]:.1f}", float(truth[c]))],
        )
        (out_dir / f"marginal_{name}.svg").write_text(svg, encoding="utf-8")


# --- argument parsing -------------------------------------------------------------


# the one RunConfig field whose flag is not "--" plus its name with dashes
FLAG_SPELLINGS = {"dropout_rate": "--dropout"}


def _add_setting_flags(p: argparse.ArgumentParser, command: str) -> None:
    """``--config`` plus one flag per setting of ``command``; a flag not given is None."""
    p.add_argument("--config", help="key = value config file; flags override it")
    for f in dataclasses.fields(RunConfig):
        if f.name in SETTINGS[command]:
            # type(f.default): under postponed annotations f.type is a string
            kind = ({"action": "store_const", "const": True} if type(f.default) is bool
                    else {"type": type(f.default)})
            p.add_argument(FLAG_SPELLINGS.get(f.name, "--" + f.name.replace("_", "-")),
                           dest=f.name, default=None, **kind, **f.metadata)


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="specinv",
        description="Inverse design of spectral responses with mixture density networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate the synthetic labeled dataset")
    p.add_argument("--samples", type=int, default=dataset.DEFAULT_SAMPLE_COUNT)
    _add_setting_flags(p, "gen-data")
    p.add_argument("--out", dest="out_file", default="dataset.csv")
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="train a single K-component model from scratch")
    _add_setting_flags(p, "train")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("sweep", help="train models for K = 1..k_max")
    _add_setting_flags(p, "sweep")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("predict", help="rank candidate designs for a spectrum")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--spectrum-file", dest="spectrum_file", required=True)
    p.add_argument("--top", type=int, default=4)
    p.add_argument("--out", default="prediction")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("report", help="emit SVG/CSV figures from a finished run")
    p.add_argument("--run-dir", dest="run_dir", required=True)
    p.add_argument("--dataset", help="dataset CSV; enables the marginal-density figures")
    p.add_argument("--k", type=int,
                   help="a K of sweep_results.csv to use for marginals (default: the largest)")
    p.add_argument("--test-index", dest="test_index", type=int, default=0)
    p.add_argument("--out", help="report directory (default: <run-dir>/report)")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    if sys.platform == "linux":  # keep 16 MB of freed heap: an autoencoder step frees ~9 MB
        ctypes.CDLL(None).mallopt(-2, 16 << 20)  # M_TOP_PAD, or glibc faults it in each step
    try:
        # divergence is checked explicitly: a diverged run prints one line, no float warnings
        with np.errstate(all="ignore"):
            return args.func(args)
    except TrainingDivergedError as exc:
        print(f"error: training diverged: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except (DatasetFormatError, CheckpointFormatError, OSError) as exc:
        # FILE: reason, the form every other file error takes
        if isinstance(exc, OSError) and exc.filename is not None:
            exc = f"{exc.filename}: {exc.strerror}"
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

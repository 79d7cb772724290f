"""Command-line driver tying the pieces together.

Subcommands: gen-data, train, sweep, predict, report.  Every run directory
receives a config.txt capturing the seed and hyperparameters, which is enough
to reproduce all numeric outputs bit-identically on the same platform.

Exit codes: 0 success, 2 argument errors, 3 I/O or file-format errors,
4 training divergence.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import time
from dataclasses import dataclass
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
from .train import TrainConfig, ae_streams, arrays_from_dataset, model_streams, train_mdn

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_DIVERGED = 4


@dataclass
class RunConfig(TrainConfig):
    """Everything a run needs: the training hyperparameters plus what to run on."""

    dataset: str = ""
    k: int = 1
    k_max: int = 10
    strategy: str = "none"
    autoencoder: bool = False
    out: str = "run"

    def __post_init__(self):
        super().__post_init__()
        for name in ("k", "k_max"):
            self._require(name, getattr(self, name) >= 1, ">= 1")
        self._require("strategy", self.strategy in transfer.STRATEGIES,
                      f"one of {', '.join(transfer.STRATEGIES)}")


_BOOL_TRUE = {"1", "true", "yes", "on"}
_BOOL_FALSE = {"0", "false", "no", "off"}


def parse_config_file(path: str | Path, command: str) -> dict:
    """key = value lines; keys match RunConfig fields.

    A line whose first non-blank character is '#' is a comment; a '#' anywhere
    else belongs to the value.

    A ``command`` line, which ``write_config`` records, must name ``command``,
    the subcommand being run, so a run's own config.txt replays it.
    """
    defaults = RunConfig()
    types = {f.name: type(getattr(defaults, f.name)) for f in dataclasses.fields(RunConfig)}
    values = {}
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
        if key == "command":
            if value != command:
                raise ValueError(f"{path}: line {lineno}: command {value!r} is not {command!r}")
            continue
        if key not in types:
            raise ValueError(f"{path}: line {lineno}: unknown key {key!r}")
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
    for f in sorted(dataclasses.fields(RunConfig), key=lambda f: f.name):
        lines.append(f"{f.name} = {getattr(cfg, f.name)}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def build_config(args: argparse.Namespace) -> RunConfig:
    """Defaults, overridden by --config file values, overridden by CLI flags."""
    values = {}
    if getattr(args, "config", None):
        values.update(parse_config_file(args.config, args.command))
    for f in dataclasses.fields(RunConfig):
        flag = getattr(args, f.name, None)
        if flag is not None:
            values[f.name] = flag
    return RunConfig(**values)


def _write_log_csv(path: Path, log: list[tuple[float, float]], loss: str) -> None:
    rows = ([epoch, train, val] for epoch, (train, val) in enumerate(log, start=1))
    write_csv(path, log_columns(loss), rows)


def log_columns(loss: str) -> dict:
    """The columns of a training log of ``loss`` (nll or mse) per epoch."""
    return {"epoch": int, f"train_{loss}": finite_float, f"val_{loss}": finite_float}


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


def cmd_gen_data(args: argparse.Namespace) -> int:
    cfg = build_config(args)
    samples = args.samples
    if samples < 1:
        raise ValueError("--samples must be >= 1")
    out = args.out_file
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


def _load_arrays(cfg: RunConfig):
    """The dataset and its split matrices; a split without rows is a format error."""
    if not cfg.dataset:  # "" would open the working directory
        raise ValueError("--dataset is required (or a 'dataset =' line in --config)")
    ds = _load_dataset(cfg.dataset, ("train", "val", "test"))
    return ds, arrays_from_dataset(ds)


def cmd_train(args: argparse.Namespace) -> int:
    cfg = build_config(args)
    if cfg.strategy != transfer.STRATEGY_NONE:
        raise ValueError("train fits a single model from scratch; use 'sweep' for tl1/tl2")
    ds, arrays = _load_arrays(cfg)
    out_dir = Path(cfg.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    k = cfg.k
    init_rng, shuffle_rng, dropout_rng = model_streams(cfg.seed, k)
    model = mdn.build_mdn(arrays.input_width, k, init_rng)
    fit = train_mdn(model, arrays, cfg, shuffle_rng=shuffle_rng, dropout_rng=dropout_rng)
    mdn.save_mdn(out_dir / f"mdn_k{k:02d}.json", model)
    _write_log_csv(out_dir / f"log_k{k:02d}.csv", fit.log, "nll")
    write_config(out_dir / "config.txt", cfg, "train")
    print(f"K={k}: {fit.epochs} epochs, best val NLL {fit.best_val_loss:.6f}")
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    cfg = build_config(args)
    ds, arrays = _load_arrays(cfg)
    out_dir = Path(cfg.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    ae_seconds = None
    if cfg.autoencoder:
        t0 = time.perf_counter()
        shuffle_rng, rng = ae_streams(cfg.seed)
        ae_fit = autoencoder.train_ae(
            ds.spectra_for("train"), ds.spectra_for("val"), cfg, shuffle_rng=shuffle_rng, rng=rng
        )
        ae_seconds = time.perf_counter() - t0
        autoencoder.save_ae(out_dir / "ae.json", ae_fit.model)
        _write_log_csv(out_dir / "ae_log.csv", ae_fit.log, "mse")
        latents = autoencoder.encode(ae_fit.model, ds.spectra)
        arrays = arrays_from_dataset(ds, x_matrix=latents)
        # diagnostic only: how close encode(decode(z)) comes to fixing the latents
        train_latents = latents[ds.indices("train")]
        roundtrip = autoencoder.encode(
            ae_fit.model, autoencoder.decode(ae_fit.model, train_latents)
        )
        latent_mse = float(np.mean((roundtrip - train_latents) ** 2))
        print(
            f"autoencoder: {ae_fit.epochs} epochs, "
            f"val reconstruction MSE {ae_fit.best_val_loss:.3e}, "
            f"latent round-trip MSE {latent_mse:.3e}"
        )

    def on_trained(entry: transfer.SweepEntry) -> None:
        mdn.save_mdn(out_dir / f"mdn_k{entry.k:02d}.json", entry.model)
        _write_log_csv(out_dir / f"log_k{entry.k:02d}.csv", entry.log, "nll")

    result = transfer.sweep(arrays, cfg.k_max, cfg.strategy, cfg, on_trained=on_trained)
    transfer.write_sweep_results(out_dir / "sweep_results.csv", result)
    transfer.write_sweep_timing(out_dir / "sweep_timing.csv", result, ae_seconds=ae_seconds)
    write_config(out_dir / "config.txt", cfg, "sweep")
    for entry in result.entries:
        print(
            f"K={entry.k}: {entry.epochs} epochs, "
            f"val NLL {entry.val_nll:.6f}, test NLL {entry.test_nll:.6f}"
        )
    return EXIT_OK


def _spectrum_mixture(model: mdn.MdnModel, checkpoint, spectrum: np.ndarray,
                      ae_path) -> mdn.MixtureParams:
    """The mixture of ``model``, loaded from ``checkpoint``, for one spectrum, through the
    autoencoder at ``ae_path`` if any.

    Saturated weights can pass every format check yet give non-finite latents, or a mixture
    with a non-finite value, a deviation of 0 or ``mu +/- 8 sigma`` beyond float64: a format
    error of the checkpoint that gave it."""
    if ae_path and model.input_width == spectrum.shape[-1]:
        raise ValueError("this checkpoint takes spectra and needs no --ae")
    with np.errstate(all="ignore"):
        x = autoencoder.encode(autoencoder.load_ae(ae_path), spectrum) if ae_path else spectrum
        if ae_path and not np.isfinite(x).all():
            raise CheckpointFormatError(f"{ae_path}: the latents of this spectrum are not finite")
        if model.input_width != x.shape[-1]:
            raise ValueError(f"checkpoint expects input width {model.input_width}, got "
                             f"{x.shape[-1]}; models trained on latents need their autoencoder")
        mix = mdn.mixture_for(model, x)
        bounds = mix.mu + np.multiply.outer([-8.0, 8.0], mix.sigma)  # what marginal_grid spans
    if not (np.isfinite(mix.pi).all() and np.isfinite(bounds).all() and mix.sigma.all()):
        raise CheckpointFormatError(f"{checkpoint}: the mixture for this spectrum has non-finite "
                                    f"values, a deviation of 0 or a span beyond float64")
    return mix


def cmd_predict(args: argparse.Namespace) -> int:
    model = mdn.load_mdn(args.checkpoint)
    if not 1 <= args.top <= model.n_components:
        raise ValueError(f"--top {args.top} out of range [1, {model.n_components}]")
    spectrum = read_spectrum_file(args.spectrum_file)
    mix = _spectrum_mixture(model, args.checkpoint, spectrum, args.ae)
    found = mdn.rank_candidates(mix, spectrum, args.top)
    out_dir = args.out
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
    results_path = run_dir / "sweep_results.csv"
    if not results_path.exists():
        raise FileNotFoundError(f"{results_path} not found; run 'sweep' first")
    rows = read_csv(results_path, transfer.SWEEP_RESULTS_COLUMNS)
    ks = [row["K"] for row in rows]
    if args.k is not None and args.k not in ks:
        raise ValueError(f"--k {args.k} is not a K of {results_path} ({ks})")
    # every file is read and checked before any figure is written
    log_paths = {k: run_dir / f"log_k{k:02d}.csv" for k in ks}
    logs = {k: read_csv(path, log_columns("nll")) for k, path in log_paths.items() if path.exists()}
    marginals = _test_record_mixture(args, run_dir, ks) if args.dataset else None
    out_dir = Path(args.out) if args.out else run_dir / "report"
    out_dir.mkdir(parents=True, exist_ok=True)

    strategy = rows[0]["strategy"]
    for k, log in logs.items():
        epochs = [r["epoch"] for r in log]
        svg = svgplot.line_chart(
            [
                ("train NLL", epochs, [r["train_nll"] for r in log]),
                ("validation NLL", epochs, [r["val_nll"] for r in log]),
            ],
            title=f"Loss curves, K={k} ({strategy})",
            x_label="epoch",
            y_label="NLL",
        )
        svgplot.write_svg(out_dir / f"loss_curves_k{k:02d}.svg", svg)

    svg = svgplot.line_chart(
        [
            ("train", ks, [row["train_nll"] for row in rows]),
            ("validation", ks, [row["val_nll"] for row in rows]),
            ("test", ks, [row["test_nll"] for row in rows]),
        ],
        title=f"NLL vs number of components ({strategy})",
        x_label="K",
        y_label="NLL",
    )
    svgplot.write_svg(out_dir / "nll_vs_k.svg", svg)

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
    checkpoint = run_dir / f"mdn_k{k:02d}.json"
    model = mdn.load_mdn(checkpoint)
    record = test_idx[args.test_index]
    ae_path = run_dir / "ae.json"
    mix = _spectrum_mixture(model, checkpoint, ds.spectra[record],
                            ae_path if ae_path.exists() else None)
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
        svgplot.write_svg(out_dir / f"marginal_{name}.svg", svg)


# --- argument parsing -------------------------------------------------------------


def _add_common_train_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="key = value config file; flags override it")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--batch-size", dest="batch_size", type=int, default=None)
    p.add_argument("--learning-rate", dest="learning_rate", type=float, default=None)
    p.add_argument("--max-epochs", dest="max_epochs", type=int, default=None)
    p.add_argument("--patience", type=int, default=None)
    p.add_argument("--min-delta", dest="min_delta", type=float, default=None)
    p.add_argument("--dropout", dest="dropout_rate", type=float, default=None)
    p.add_argument(
        "--warm-start-jitter", dest="warm_start_jitter", type=float, default=None,
        help="seeded perturbation scale for a freshly cloned component",
    )


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="specinv",
        description="Inverse design of spectral responses with mixture density networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate the synthetic labeled dataset")
    p.add_argument("--samples", type=int, default=dataset.DEFAULT_SAMPLE_COUNT)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--config", help="key = value config file; flags override it")
    p.add_argument("--out", dest="out_file", type=Path, default=Path("dataset.csv"))
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="train a single K-component model from scratch")
    p.add_argument("--dataset", default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--out", default=None)
    _add_common_train_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("sweep", help="train models for K = 1..k_max")
    p.add_argument("--dataset", default=None)
    p.add_argument("--k-max", dest="k_max", type=int, default=None)
    p.add_argument("--strategy", choices=transfer.STRATEGIES, default=None)
    p.add_argument(
        "--autoencoder", action="store_const", const=True, default=None,
        help="train an autoencoder first and sweep on 10-dim latents",
    )
    p.add_argument("--out", default=None)
    _add_common_train_flags(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("predict", help="rank candidate designs for a spectrum")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--spectrum-file", dest="spectrum_file", required=True)
    p.add_argument("--top", type=int, default=4)
    p.add_argument("--ae", help="autoencoder checkpoint for latent-input models")
    p.add_argument("--out", type=Path, default=Path("prediction"))
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
    try:
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

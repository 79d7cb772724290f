"""End-to-end command-line behavior on tiny datasets."""

import argparse
import csv
import dataclasses
import json
import math
import os
import string
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from specinv import autoencoder, cli, dataset, mdn, nncore, transfer
from specinv.cli import EXIT_DIVERGED, EXIT_IO, EXIT_OK, EXIT_USAGE, main
from specinv.nncore import write_csv
from specinv.train import TrainResult
from util import assert_no_child_left, load_metadata, small_mdn


def run(*argv) -> int:
    return main([str(a) for a in argv])


@pytest.fixture()
def tiny_dataset(tmp_path):
    path = tmp_path / "data.csv"
    assert run("gen-data", "--samples", 60, "--seed", 3, "--out", path) == EXIT_OK
    return path


# config values are single-line; paths drawn from these characters are
PATH_TEXT = st.text(string.ascii_letters + string.digits + "/._-#", max_size=30)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def assert_sweep_config_written(out, argv):
    """``out``/config.txt reads back as the settings of the sweep run with ``argv``."""
    written = cli.parse_config_file(Path(out) / "config.txt", "sweep")
    given = cli.build_config(cli.make_parser().parse_args([str(a) for a in argv]))
    assert cli.RunConfig(**written) == given


class TestGenData:
    def test_small_dataset_split(self, tmp_path):
        out = tmp_path / "d.csv"
        assert run("gen-data", "--samples", 10, "--seed", 1, "--out", out) == EXIT_OK
        ds = dataset.load_dataset(out)
        assert ds.counts() == {"train": 8, "val": 1, "test": 1}
        meta = load_metadata(out)
        assert meta["samples"] == 10 and meta["seed"] == 1

    def test_byte_identical_for_same_seed(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run("gen-data", "--samples", 25, "--seed", 9, "--out", a)
        run("gen-data", "--samples", 25, "--seed", 9, "--out", b)
        assert a.read_bytes() == b.read_bytes()
        assert (tmp_path / "a.csv.meta.json").read_bytes() == \
            (tmp_path / "b.csv.meta.json").read_bytes()

    @pytest.mark.parametrize("samples", [0, dataset.MIN_RECORDS - 1])
    def test_too_few_samples_rejected_before_any_write(self, samples, tmp_path, capsys):
        new = tmp_path / "new"
        assert run("gen-data", "--samples", samples, "--out", new / "data.csv") == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: --samples ") and err.count("\n") == 1
        assert not new.exists()

    def test_default_sample_count(self):
        parser = cli.make_parser()
        args = parser.parse_args(["gen-data"])
        assert args.samples == 3848

    def test_full_scale_generation(self, tmp_path):
        out = tmp_path / "full.csv"
        assert run("gen-data", "--seed", 0, "--out", out) == EXIT_OK
        meta = load_metadata(out)
        assert meta["samples"] == 3848
        assert meta["split_counts"] == {"train": 3078, "val": 384, "test": 386}
        with open(out) as fh:
            assert sum(1 for _ in fh) == 3849  # header + records


class TestTrain:
    def test_single_model_run(self, tiny_dataset, tmp_path):
        out = tmp_path / "run1"
        code = run(
            "train", "--dataset", tiny_dataset, "--k", 1, "--out", out,
            "--seed", 5, "--max-epochs", 25, "--batch-size", 16,
        )
        assert code == EXIT_OK
        log = read_csv(out / "log_k01.csv")
        assert len(log) == 25  # one row per completed epoch
        assert float(log[-1]["train_nll"]) < float(log[0]["train_nll"])
        assert (out / "config.txt").exists()

    def test_checkpoint_reproduces_logged_val_loss(self, tiny_dataset, tmp_path):
        out = tmp_path / "run2"
        run(
            "train", "--dataset", tiny_dataset, "--k", 2, "--out", out,
            "--seed", 5, "--max-epochs", 15, "--batch-size", 16,
        )
        model = mdn.load_mdn(out / "mdn_k02.json")
        ds = dataset.load_dataset(tiny_dataset)
        from specinv.train import arrays_from_dataset

        arrays = arrays_from_dataset(ds)
        recomputed = mdn.batch_nll(model, arrays.val_x, arrays.val_y)
        best_logged = min(float(r["val_nll"]) for r in read_csv(out / "log_k02.csv"))
        assert recomputed == pytest.approx(best_logged, abs=1e-9)

    def test_trains_the_none_sweep_model_of_its_k(self, tiny_dataset, tmp_path):
        """train --k K draws the same random streams as model K of a none sweep."""
        flags = ["--dataset", tiny_dataset, "--seed", 9, "--max-epochs", 5, "--batch-size", 16]
        assert run("train", "--k", 2, "--out", tmp_path / "train", *flags) == EXIT_OK
        assert run("sweep", "--strategy", "none", "--k-max", 2, "--out", tmp_path / "sweep",
                   *flags) == EXIT_OK
        for name in ("mdn_k02.json", "log_k02.csv"):
            assert (tmp_path / "train" / name).read_bytes() == \
                (tmp_path / "sweep" / name).read_bytes()

    def test_tl_strategy_rejected(self, tiny_dataset, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run("train", "--dataset", tiny_dataset, "--k", 1, "--strategy", "tl1",
                "--out", tmp_path / "x")
        assert exc.value.code == EXIT_USAGE

    @pytest.mark.parametrize("line", ["autoencoder = true", "strategy = tl1"])
    def test_sweep_setting_in_config_rejected(self, line, tiny_dataset, tmp_path, capsys):
        """Only sweep grows models or trains an autoencoder; train refuses a config file
        that asks for either, before it reads the dataset or makes --out."""
        cfg = tmp_path / "c.cfg"
        cfg.write_text(line + "\n")
        out = tmp_path / "run"
        code = run("train", "--config", cfg, "--dataset", tiny_dataset, "--out", out,
                   "--max-epochs", 2)
        err = capsys.readouterr().err
        assert code == EXIT_USAGE
        assert err.startswith("error: train fits a single model") and err.count("\n") == 1
        assert not out.exists()


class TestSweep:
    def test_k_max_one(self, tiny_dataset, tmp_path):
        out = tmp_path / "sweep1"
        code = run(
            "sweep", "--dataset", tiny_dataset, "--k-max", 1, "--strategy", "none",
            "--out", out, "--seed", 4, "--max-epochs", 8, "--batch-size", 16,
        )
        assert code == EXIT_OK
        rows = read_csv(out / "sweep_results.csv")
        assert len(rows) == 1 and rows[0]["K"] == "1"

    def test_tl1_emits_per_k_artifacts(self, tiny_dataset, tmp_path):
        out = tmp_path / "sweep2"
        code = run(
            "sweep", "--dataset", tiny_dataset, "--k-max", 2, "--strategy", "tl1",
            "--out", out, "--seed", 4, "--max-epochs", 8, "--batch-size", 16,
        )
        assert code == EXIT_OK
        assert (out / "mdn_k01.json").exists() and (out / "mdn_k02.json").exists()
        assert (out / "log_k01.csv").exists() and (out / "log_k02.csv").exists()
        header = (out / "sweep_results.csv").read_text().splitlines()[0]
        assert header == "K,strategy,epochs,train_nll,val_nll,test_nll"
        timing = (out / "sweep_timing.csv").read_text().splitlines()
        assert timing[0] == "stage,strategy,seconds"

    def test_autoencoder_sweep(self, tiny_dataset, tmp_path):
        out = tmp_path / "sweep3"
        code = run(
            "sweep", "--dataset", tiny_dataset, "--k-max", 1, "--strategy", "tl1",
            "--autoencoder", "--out", out, "--seed", 4, "--max-epochs", 5,
            "--batch-size", 16,
        )
        assert code == EXIT_OK
        ae = autoencoder.load_ae(out / "ae.json")
        model = mdn.load_mdn(out / "mdn_k01.json")
        assert model.input_width == 10
        assert autoencoder.encode(ae, np.zeros(101)).shape == (10,)
        stages = [line.split(",")[0] for line in (out / "sweep_timing.csv").read_text().splitlines()[1:]]
        assert stages[0] == "ae_train"
        # the autoencoder's log holds reconstruction MSE, not mixture NLL
        assert (out / "ae_log.csv").read_text().splitlines()[0] == "epoch,train_mse,val_mse"
        assert (out / "log_k01.csv").read_text().splitlines()[0] == "epoch,train_nll,val_nll"

    def test_divergence_exit_code(self, tiny_dataset, tmp_path):
        argv = ["sweep", "--dataset", tiny_dataset, "--k-max", 1, "--strategy", "none",
                "--out", tmp_path / "sweepdiv", "--seed", 4, "--max-epochs", 30,
                "--batch-size", 16, "--learning-rate", "1e12"]
        code = run(*argv)
        assert code == EXIT_DIVERGED
        assert_sweep_config_written(tmp_path / "sweepdiv", argv)  # written before training


class TestSweepWrites:
    """Each checkpoint is written in-process as soon as its model has trained."""

    SWEEP = ["sweep", "--k-max", 3, "--strategy", "tl1", "--autoencoder", "--seed", 4,
             "--max-epochs", 2, "--batch-size", 16, "--out", "run"]

    CHECKPOINTS = ["ae.json", "mdn_k01.json", "mdn_k02.json", "mdn_k03.json"]

    @pytest.mark.parametrize("name", ["ae.json", "mdn_k01.json", "mdn_k03.json"])
    def test_failed_write_exits_3(self, name, tiny_dataset, tmp_path, monkeypatch, capsys):
        """A failed write stops the sweep at once: no later model trains or is written."""
        monkeypatch.chdir(tmp_path)
        (tmp_path / "run" / name).mkdir(parents=True)
        code = run(*self.SWEEP, "--dataset", tiny_dataset)
        err = capsys.readouterr().err
        assert code == EXIT_IO
        assert err == f"error: {Path('run') / name}: Is a directory\n"
        assert_no_child_left()
        later = self.CHECKPOINTS[self.CHECKPOINTS.index(name) + 1:]
        assert not any((tmp_path / "run" / n).exists() for n in later)
        assert not (tmp_path / "run" / "sweep_results.csv").exists()
        assert_sweep_config_written(tmp_path / "run", [*self.SWEEP, "--dataset", tiny_dataset])

    @pytest.mark.parametrize("error,code", [
        (cli.TrainingDivergedError("loss nan"), EXIT_DIVERGED), (KeyboardInterrupt(), None),
    ], ids=["divergence", "ctrl_c"])
    def test_no_child_left_when_training_stops(self, error, code, tiny_dataset, tmp_path,
                                               monkeypatch):
        """K=2 stops training; the checkpoints of the models trained before it load."""
        trained, train_mdn_of_k1 = [], transfer.train_mdn

        def train_mdn(*args, **kwargs):
            if trained:
                raise error
            trained.append(train_mdn_of_k1(*args, **kwargs))
            return trained[-1]

        monkeypatch.setattr(transfer, "train_mdn", train_mdn)
        monkeypatch.chdir(tmp_path)
        if code is None:
            with pytest.raises(KeyboardInterrupt):
                run(*self.SWEEP, "--dataset", tiny_dataset)
        else:
            assert run(*self.SWEEP, "--dataset", tiny_dataset) == code
        assert_no_child_left()
        assert mdn.load_mdn(tmp_path / "run" / "mdn_k01.json").n_components == 1
        autoencoder.load_ae(tmp_path / "run" / "ae.json")

    def test_no_child_left_after_success(self, tiny_dataset, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run(*self.SWEEP, "--dataset", tiny_dataset) == EXIT_OK
        assert_no_child_left()


class TestSweepFiles:
    """sweep_results.csv and sweep_timing.csv, written from a sweep's entries."""

    ENTRIES = [
        transfer.SweepEntry(model=None, epochs=epochs, log=[], best_val_loss=val_nll,
                            seconds=seconds, k=k, train_nll=val_nll / 3, test_nll=val_nll + 0.1)
        for k, epochs, val_nll, seconds in [(1, 5, 0.1 + 0.2, 0.25), (2, 3, -1 / 3, 1 / 7)]
    ]
    TIMING_COLUMNS = {"stage": str, "strategy": str, "seconds": float}

    def test_results_csv_round_trip(self, tmp_path):
        cli.write_sweep_files(tmp_path, self.ENTRIES, "tl1", None)
        path = tmp_path / "sweep_results.csv"
        results, _ = nncore.read_csv(path, cli.SWEEP_RESULTS_COLUMNS)
        assert results["K"] == [1, 2]
        assert results["strategy"] == ["tl1", "tl1"]
        assert results["epochs"] == [5, 3]
        for column, name in [("train_nll", "train_nll"), ("val_nll", "best_val_loss"),
                             ("test_nll", "test_nll")]:
            assert list(results[column]) == [getattr(e, name) for e in self.ENTRIES]
        header = path.read_text().splitlines()[0]
        assert "seconds" not in header  # timing lives in its own file
        timing, _ = nncore.read_csv(tmp_path / "sweep_timing.csv", self.TIMING_COLUMNS)
        assert timing["stage"] == ["k=1", "k=2", "total"]  # no autoencoder, no ae_train

    def test_timing_csv(self, tmp_path):
        """sweep_timing.csv writes exactly each fit's seconds, and their sum."""
        ae_fit = TrainResult(model=None, epochs=0, log=[], best_val_loss=math.nan, seconds=1.5)
        cli.write_sweep_files(tmp_path, self.ENTRIES, "none", ae_fit)
        path = tmp_path / "sweep_timing.csv"
        lines = path.read_text().splitlines()
        assert lines[0] == "stage,strategy,seconds"
        assert lines[1] == "ae_train,-,1.5"
        timing, _ = nncore.read_csv(path, self.TIMING_COLUMNS)
        assert timing["stage"] == ["ae_train", "k=1", "k=2", "total"]
        assert timing["strategy"] == ["-", "none", "none", "none"]
        seconds = [1.5, 0.25, 1 / 7]
        assert list(timing["seconds"]) == [*seconds, sum(seconds)]


class TestPredict:
    @pytest.fixture()
    def trained_run(self, tiny_dataset, tmp_path):
        out = tmp_path / "run_for_predict"
        run(
            "sweep", "--dataset", tiny_dataset, "--k-max", 2, "--strategy", "tl2",
            "--out", out, "--seed", 11, "--max-epochs", 10, "--batch-size", 16,
        )
        return out

    @pytest.fixture()
    def spectrum_file(self, tiny_dataset, tmp_path):
        ds = dataset.load_dataset(tiny_dataset)
        path = tmp_path / "spectrum.csv"
        path.write_text(",".join(f"{v:.17g}" for v in ds.spectra[0]))
        return path

    def test_single_candidate(self, trained_run, spectrum_file, tmp_path):
        out = tmp_path / "pred1"
        code = run(
            "predict", "--checkpoint", trained_run / "mdn_k01.json",
            "--spectrum-file", spectrum_file, "--top", 1, "--out", out,
        )
        assert code == EXIT_OK
        rows = read_csv(out / "predictions.csv")
        assert len(rows) == 1

    def test_candidates_sorted_and_rmse_consistent(self, trained_run, spectrum_file, tmp_path):
        out = tmp_path / "pred2"
        code = run(
            "predict", "--checkpoint", trained_run / "mdn_k02.json",
            "--spectrum-file", spectrum_file, "--top", 2, "--out", out,
        )
        assert code == EXIT_OK
        rows = read_csv(out / "predictions.csv")
        pis = [float(r["pi"]) for r in rows]
        assert pis == sorted(pis, reverse=True)
        spectrum = cli.read_spectrum_file(spectrum_file)
        for row in rows:
            design = np.array([float(row[k]) for k in ("p", "w", "h1", "h2", "h3")])
            resim = dataset.surrogate_spectra(design[None, :])[0]
            want = float(np.sqrt(np.mean((resim - spectrum) ** 2)))
            assert float(row["rmse"]) == pytest.approx(want, abs=1e-12)
        mix_rows = read_csv(out / "mixture.csv")
        assert len(mix_rows) == 2
        assert set(mix_rows[0]) == {"component", "pi"} \
            | {f"mu_{i}" for i in range(1, 6)} | {f"sigma_{i}" for i in range(1, 6)}

    def test_top_exceeding_k_is_usage_error(self, trained_run, spectrum_file, tmp_path):
        code = run(
            "predict", "--checkpoint", trained_run / "mdn_k01.json",
            "--spectrum-file", spectrum_file, "--top", 5, "--out", tmp_path / "p",
        )
        assert code == EXIT_USAGE

    def test_latent_model_needs_ae(self, tiny_dataset, spectrum_file, tmp_path):
        """A latent sweep's checkpoint is predicted through the ae.json its sweep wrote
        beside it: the mixture written is, bit for bit, the model's on that encoder's latents."""
        out = tmp_path / "ae_run"
        run(
            "sweep", "--dataset", tiny_dataset, "--k-max", 1, "--strategy", "tl1",
            "--autoencoder", "--out", out, "--seed", 2, "--max-epochs", 4,
            "--batch-size", 16,
        )
        code = run(
            "predict", "--checkpoint", out / "mdn_k01.json",
            "--spectrum-file", spectrum_file, "--top", 1, "--out", tmp_path / "p",
        )
        assert code == EXIT_OK
        latents = autoencoder.encode(autoencoder.load_ae(out / "ae.json"),
                                     cli.read_spectrum_file(spectrum_file))
        mix = mdn.mixture_for(mdn.load_mdn(out / "mdn_k01.json"), latents)
        (row,) = read_csv(tmp_path / "p" / "mixture.csv")
        assert [float(v) for v in row.values()] == [1, *mix.pi, *mix.mu[0], *mix.sigma[0]]

    def test_malformed_spectrum_file(self, trained_run, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("0.5, 0.25, 1.0")
        code = run(
            "predict", "--checkpoint", trained_run / "mdn_k01.json",
            "--spectrum-file", bad, "--top", 1, "--out", tmp_path / "p4",
        )
        assert code == EXIT_IO

    def test_infeasible_candidate_is_warned(self, spectrum_file, tmp_path, capsys):
        """A clipped mean at p = 305, w = 190 breaks p - w >= 200: predict still writes
        it, and says so on stderr, one line per such candidate."""
        model = mdn.build_mdn(101, 2, np.random.default_rng(0))
        head = model.head
        head.pi_w[:] = 0.0
        head.pi_b[:] = [1.0, 0.0]
        head.mu_w[:] = 0.0
        head.mu_b[:] = [-0.5, 1.5, 0.5, 0.5, 0.5, 1.0, 0.0, 0.5, 0.5, 0.5]
        checkpoint = tmp_path / "infeasible.json"
        mdn.save_mdn(checkpoint, model)
        out = tmp_path / "pred_infeasible"
        code = run("predict", "--checkpoint", checkpoint, "--spectrum-file", spectrum_file,
                   "--top", 2, "--out", out)
        captured = capsys.readouterr()
        assert code == EXIT_OK
        assert captured.err == "warning: candidate 1: p - w = 115 violates the 200.0 nm gap\n"
        assert captured.out.startswith(f"wrote 2 candidates to {out} ")
        rows = read_csv(out / "predictions.csv")
        assert [(float(r["p"]), float(r["w"])) for r in rows] == [(305.0, 190.0), (415.0, 45.0)]


def _edit_json(edit):
    def apply(text):
        data = json.loads(text)
        edit(data)
        return json.dumps(data)

    return apply


def _format_1(text):
    """The same model as a format 1 file, whose arrays are JSON numbers (a matrix by rows)."""
    data = mdn.mdn_to_dict(mdn.mdn_from_dict(json.loads(text)))
    data["format_version"] = 1
    return json.dumps(data, default=np.ndarray.tolist)


def _short_by_one_row(d):
    """mu_w without its last row: 16 hex digits per float, one float per trunk feature."""
    features = d["trunk"]["layer_widths"][-1]
    d["head"]["mu_w"] = d["head"]["mu_w"][: -16 * features]


# each defect, and the start of the reason its one error line gives after the file name
CHECKPOINT_DEFECTS = {
    "truncated": (lambda text: text[: len(text) // 2], "not a JSON checkpoint"),
    "format_version_1": (_format_1, "unsupported format_version 1\n"),
    "format_version_99": (_edit_json(lambda d: d.update(format_version=99)),
                          "unsupported format_version 99\n"),
    "missing_head_pi_b": (_edit_json(lambda d: d["head"].pop("pi_b")),
                          "head is missing pi_b\n"),
    "mu_w_short_by_one_row": (_edit_json(_short_by_one_row),
                              "head.mu_w has 33600 hex digits, expected 36000 for shape (15, 150)\n"),
    "non_hex_digit": (_edit_json(lambda d: d["head"].update(pi_b="g" + d["head"]["pi_b"][1:])),
                      "head.pi_b holds a character that is not a hex digit\n"),
    "nan_bit_pattern": (
        _edit_json(lambda d: d["head"].update(pi_b=np.full(3, np.nan).tobytes().hex())),
        "head.pi_b has non-finite values\n"),
    "list_instead_of_hex": (_edit_json(lambda d: d["head"].update(
        pi_b=np.frombuffer(bytes.fromhex(d["head"]["pi_b"])).tolist())),
        "head.pi_b is not a hex string\n"),
}


class TestBadInputs:
    """Malformed files exit with the file-format code and one message line, no traceback."""

    @pytest.fixture()
    def checkpoint(self, tmp_path):
        path = tmp_path / "mdn.json"
        mdn.save_mdn(path, mdn.build_mdn(101, 3, np.random.default_rng(0)))
        return path

    def predict(self, checkpoint, values, out, *flags):
        spectrum = out.parent / "spectrum.txt"
        spectrum.write_text(" ".join(values))
        return run("predict", "--checkpoint", checkpoint, "--spectrum-file", spectrum,
                   "--top", 1, "--out", out, *flags)

    @pytest.mark.parametrize("defect", sorted(CHECKPOINT_DEFECTS))
    def test_malformed_checkpoint(self, defect, checkpoint, tmp_path, capsys):
        edit, reason = CHECKPOINT_DEFECTS[defect]
        checkpoint.write_text(edit(checkpoint.read_text()))
        code = self.predict(checkpoint, ["0.5"] * 101, tmp_path / "pred")
        err = capsys.readouterr().err
        assert code == EXIT_IO
        assert err.startswith(f"error: {checkpoint}: {reason}") and err.count("\n") == 1
        assert not (tmp_path / "pred").exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-0.25", "1.5"])
    def test_absorbance_outside_unit_interval(self, value, checkpoint, tmp_path):
        code = self.predict(checkpoint, ["0.5"] * 100 + [value], tmp_path / "pred")
        assert code == EXIT_IO
        assert not (tmp_path / "pred").exists()

    @pytest.mark.parametrize("command", ["train", "sweep --autoencoder"])
    @pytest.mark.parametrize("split", ["train", "val", "test"])
    def test_empty_split_rejected_before_any_work(self, split, command, tiny_dataset, tmp_path,
                                                  capsys):
        ds = dataset.load_dataset(tiny_dataset)
        ds.split_tags[ds.split_tags == split] = "train" if split != "train" else "val"
        path = tmp_path / f"no_{split}.csv"
        dataset.save_dataset(path, ds)
        out = tmp_path / "run"
        code = run(*command.split(), "--dataset", path, "--out", out, "--max-epochs", 2)
        err = capsys.readouterr().err
        assert code == EXIT_IO
        assert err == f"error: {path}: no {split} rows\n"
        assert not out.exists()

    def test_report_on_a_dataset_without_test_rows(self, tiny_dataset, tmp_path, capsys):
        ds = dataset.load_dataset(tiny_dataset)
        ds.split_tags[ds.split_tags == "test"] = "train"
        path = tmp_path / "no_test.csv"
        dataset.save_dataset(path, ds)
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        write_csv(run_dir / "sweep_results.csv", cli.SWEEP_RESULTS_COLUMNS,
                  [[1, "none", 2, 0.5, 0.5, 0.5]])
        code = run("report", "--run-dir", run_dir, "--dataset", path)
        assert code == EXIT_IO
        assert capsys.readouterr().err == f"error: {path}: no test rows\n"
        assert not (run_dir / "report").exists()

    @pytest.mark.parametrize("top", [0, 5])
    def test_top_outside_one_to_k(self, top, checkpoint, tmp_path, capsys):
        code = self.predict(checkpoint, ["0.5"] * 101, tmp_path / "pred", "--top", top)
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == f"error: --top {top} out of range [1, 3]\n"
        assert not (tmp_path / "pred").exists()

    def test_ae_given_to_a_spectrum_model(self, checkpoint, tmp_path):
        """A spectrum model never reads the ae.json beside it, not even a malformed one."""
        assert self.predict(checkpoint, ["0.5"] * 101, tmp_path / "plain") == EXIT_OK
        (tmp_path / cli.AE_FILE).write_text("not json")
        assert self.predict(checkpoint, ["0.5"] * 101, tmp_path / "pred") == EXIT_OK
        for name in ("predictions", "resimulated", "mixture"):
            assert ((tmp_path / "pred" / f"{name}.csv").read_bytes()
                    == (tmp_path / "plain" / f"{name}.csv").read_bytes())


def _saturate(mlp):
    """Every weight of ``mlp`` to 1e300 with its sign: its outputs go NaN."""
    for w in mlp.weights:
        w[:] = np.copysign(1e300, w)


# K=2 spectrum models whose weights pass every format check but saturate the mixture
SATURATED_CHECKPOINTS = {
    "sigma_b_plus_1000": lambda model: model.head.sigma_b.fill(1000.0),  # sigma = inf
    "sigma_b_minus_1000": lambda model: model.head.sigma_b.fill(-1000.0),  # sigma = 0
    "sigma_b_708": lambda model: model.head.sigma_b.fill(708.0),  # mu +/- 8 sigma overflows
    "sigma_b_707_5": lambda model: model.head.sigma_b.fill(707.5),  # hi - lo overflows
    "sigma_b_minus_744": lambda model: model.head.sigma_b.fill(-744.0),  # pi / sigma overflows
    "trunk_weights_1e300": lambda model: _saturate(model.trunk),  # NaN features
}


def run_on(run_dir, command, tiny_dataset, capsys):
    """``command`` on ``run_dir``'s mdn_k02.json: the exit code, stderr, and the output
    directory it was given."""
    if command == "predict":
        spectrum = run_dir.parent / "spectrum.txt"
        spectrum.write_text(" ".join(map(str, dataset.load_dataset(tiny_dataset).spectra[0])))
        out = run_dir.parent / "pred"
        argv = ["predict", "--checkpoint", run_dir / "mdn_k02.json", "--spectrum-file",
                spectrum, "--top", 2, "--out", out]
    else:
        write_csv(run_dir / "sweep_results.csv", cli.SWEEP_RESULTS_COLUMNS,
                  [[2, "none", 2, 0.5, 0.5, 0.5]])
        out = run_dir / "report"
        argv = ["report", "--run-dir", run_dir, "--dataset", tiny_dataset]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run(*argv)
    return code, capsys.readouterr().err, out


class TestSaturatedCheckpoint:
    """Saturated weights that give non-finite latents, or a mixture with a non-finite value,
    a deviation of 0 or a span beyond float64, are a format error of the checkpoint that
    gave them: exit 3, one line naming that file, no warning and nothing written."""

    @pytest.mark.parametrize("command", ["predict", "report"])
    @pytest.mark.parametrize("saturate", sorted(SATURATED_CHECKPOINTS))
    def test_exits_3(self, saturate, command, tiny_dataset, tmp_path, capsys):
        model = mdn.build_mdn(101, 2, np.random.default_rng(0))
        SATURATED_CHECKPOINTS[saturate](model)
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        checkpoint = run_dir / "mdn_k02.json"
        mdn.save_mdn(checkpoint, model)
        code, err, out = run_on(run_dir, command, tiny_dataset, capsys)
        assert code == EXIT_IO
        assert err.startswith(f"error: {checkpoint}: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("command", ["predict", "report"])
    def test_saturated_autoencoder_named(self, command, tiny_dataset, tmp_path, capsys):
        """A latent model behind an encoder of +/-1e300 weights: the latents are NaN, and
        the error names ae.json, not the mixture checkpoint."""
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        ae = autoencoder.init_ae(np.random.default_rng(0))
        _saturate(ae.encoder)
        autoencoder.save_ae(run_dir / "ae.json", ae)
        model = mdn.build_mdn(autoencoder.ENCODER_WIDTHS[-1], 2, np.random.default_rng(1))
        mdn.save_mdn(run_dir / "mdn_k02.json", model)
        code, err, out = run_on(run_dir, command, tiny_dataset, capsys)
        assert code == EXIT_IO
        assert err.startswith(f"error: {run_dir / 'ae.json'}: ") and err.count("\n") == 1
        assert not out.exists()

    def test_sigmas_far_apart_give_finite_marginals(self, tiny_dataset, tmp_path, capsys):
        """Sigmas of about 2e-300 and 5e299 are each finite, with a finite peak density and
        span: the marginals are written on the grid's full 8,192 points."""
        model = mdn.build_mdn(101, 2, np.random.default_rng(0))
        model.head.sigma_w.fill(0.0)
        model.head.sigma_b.reshape(2, -1)[:] = [[-690.0], [690.0]]
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        mdn.save_mdn(run_dir / "mdn_k02.json", model)
        code, err, out = run_on(run_dir, "report", tiny_dataset, capsys)
        assert (code, err) == (EXIT_OK, "")
        for name in dataset.PARAM_NAMES:
            table = np.loadtxt(out / f"marginal_{name}.csv", delimiter=",", skiprows=1)
            assert table.shape == (8192, 2) and np.isfinite(table).all()


class TestModelShape:
    """Well-formed checkpoints of models this system does not build: exit 3, one line naming
    the file, and nothing written."""

    @pytest.mark.parametrize("command", ["predict", "report"])
    @pytest.mark.parametrize("n_targets", [2, 7])
    def test_mixture_not_over_the_design_parameters(self, n_targets, command, tiny_dataset,
                                                    tmp_path, capsys):
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        checkpoint = run_dir / "mdn_k02.json"
        mdn.save_mdn(checkpoint, small_mdn([101, 8], 2, n_targets, np.random.default_rng(0)))
        code, err, out = run_on(run_dir, command, tiny_dataset, capsys)
        assert code == EXIT_IO
        assert err == (f"error: {checkpoint}: a mixture over {n_targets} targets, "
                       f"not the 5 design parameters\n")
        assert not out.exists()

    # the autoencoder's layer widths, and the error line that names its file
    AUTOENCODERS = {
        "encoder_takes_50": ([50, 8, 10], [10, 8, 50], "the encoder takes 50 inputs, "
                                                      "not a spectrum's 101"),
        "decoder_gives_7": ([101, 8, 10], [10, 8, 7],
                            "the decoder does not give back the encoder's inputs"),
    }

    @pytest.mark.parametrize("command", ["predict", "report"])
    @pytest.mark.parametrize("case", sorted(AUTOENCODERS))
    def test_autoencoder_that_does_not_fit_spectra(self, case, command, tiny_dataset, tmp_path,
                                                   capsys):
        encoder, decoder, reason = self.AUTOENCODERS[case]
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        rng = np.random.default_rng(0)
        autoencoder.save_ae(run_dir / "ae.json", autoencoder.AeModel(
            nncore.init_mlp(encoder, rng), nncore.init_mlp(decoder, rng)))
        mdn.save_mdn(run_dir / "mdn_k02.json", small_mdn([10, 8], 2, 5, rng))
        code, err, out = run_on(run_dir, command, tiny_dataset, capsys)
        assert code == EXIT_IO
        assert err == f"error: {run_dir / 'ae.json'}: {reason}\n"
        assert not out.exists()


class TestLatentPair:
    """A checkpoint that takes 10-wide latents needs the autoencoder beside it, in ae.json,
    to give them: for predict and report alike, exit 3, one stderr line naming the files,
    and nothing written."""

    CASES = {
        "without_ae_json": (None, "{ae}: No such file or directory"),
        "ae_of_another_latent_width": ([101, 8, 7], "{ae}: the encoder gives 7-wide latents, "
                                                    "but {checkpoint} takes 10 inputs"),
    }

    PAIRS = [(command, case) for case in CASES for command in ("report", "predict")]

    @pytest.mark.parametrize("command,case", PAIRS, ids=[f"{c}_{case}" for c, case in PAIRS])
    def test_latent_checkpoint(self, command, case, tiny_dataset, tmp_path, capsys):
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        ae, checkpoint = run_dir / "ae.json", run_dir / "mdn_k02.json"
        encoder, reason = self.CASES[case]
        rng = np.random.default_rng(0)
        if encoder:
            autoencoder.save_ae(ae, autoencoder.AeModel(
                nncore.init_mlp(encoder, rng), nncore.init_mlp(encoder[::-1], rng)))
        mdn.save_mdn(checkpoint, small_mdn([10, 8], 2, 5, rng))
        got, err, out = run_on(run_dir, command, tiny_dataset, capsys)
        assert (got, err) == (EXIT_IO, f"error: {reason.format(ae=ae, checkpoint=checkpoint)}\n")
        assert not out.exists()


class TestReport:
    SWEEP_FLAGS = ("--k-max", 2, "--strategy", "tl2", "--seed", 11, "--max-epochs", 10,
                   "--batch-size", 16)

    @pytest.fixture()
    def finished_run(self, tiny_dataset, tmp_path):
        out = tmp_path / "run_report"
        run("sweep", "--dataset", tiny_dataset, "--out", out, *self.SWEEP_FLAGS)
        return out

    def test_artifacts(self, tiny_dataset, finished_run):
        code = run("report", "--run-dir", finished_run, "--dataset", tiny_dataset)
        assert code == EXIT_OK
        report = finished_run / "report"
        assert (report / "nll_vs_k.svg").exists()
        assert (report / "loss_curves_k01.svg").exists()
        assert (report / "loss_curves_k02.svg").exists()
        for name in dataset.PARAM_NAMES:
            assert (report / f"marginal_{name}.svg").exists()

    def test_marginals_integrate_to_one(self, tiny_dataset, finished_run):
        run("report", "--run-dir", finished_run, "--dataset", tiny_dataset)
        for name in dataset.PARAM_NAMES:
            rows = read_csv(finished_run / "report" / f"marginal_{name}.csv")
            x = np.array([float(r[f"{name}_nm"]) for r in rows])
            d = np.array([float(r["density_per_nm"]) for r in rows])
            assert np.trapezoid(d, x) == pytest.approx(1.0, abs=1e-3)

    def test_true_value_markers(self, tiny_dataset, finished_run):
        run("report", "--run-dir", finished_run, "--dataset", tiny_dataset, "--test-index", 0)
        ds = dataset.load_dataset(tiny_dataset)
        truth = ds.designs[ds.indices("test")[0]]
        for c, name in enumerate(dataset.PARAM_NAMES):
            svg = (finished_run / "report" / f"marginal_{name}.svg").read_text()
            assert f"true {name} = {truth[c]:.1f}" in svg

    def test_idempotent(self, tiny_dataset, finished_run):
        run("report", "--run-dir", finished_run, "--dataset", tiny_dataset)
        first = {
            p.name: p.read_bytes() for p in (finished_run / "report").iterdir()
        }
        run("report", "--run-dir", finished_run, "--dataset", tiny_dataset)
        second = {
            p.name: p.read_bytes() for p in (finished_run / "report").iterdir()
        }
        assert first == second

    def test_stale_ae_json_is_ignored(self, tiny_dataset, finished_run, tmp_path):
        """A spectrum sweep into an --autoencoder sweep's directory keeps that sweep's
        ae.json; the report, and a predict from its checkpoint, are those of the same run
        without it."""
        stale = tmp_path / "stale"
        flags = ("--dataset", tiny_dataset, "--out", stale, *self.SWEEP_FLAGS)
        assert run("sweep", *flags, "--autoencoder") == EXIT_OK
        assert run("sweep", *flags) == EXIT_OK
        assert (stale / "ae.json").exists()
        spectrum = tmp_path / "spectrum.txt"
        spectrum.write_text(" ".join(map(str, dataset.load_dataset(tiny_dataset).spectra[0])))
        for run_dir in (finished_run, stale):
            assert run("report", "--run-dir", run_dir, "--dataset", tiny_dataset) == EXIT_OK
            assert run("predict", "--checkpoint", run_dir / "mdn_k02.json", "--spectrum-file",
                       spectrum, "--top", 2, "--out", run_dir / "pred") == EXIT_OK
        written = [f"report/marginal_{name}.{ext}" for name in dataset.PARAM_NAMES
                   for ext in ("csv", "svg")]
        written += [f"pred/{name}.csv" for name in ("predictions", "resimulated", "mixture")]
        for name in written:
            assert (stale / name).read_bytes() == (finished_run / name).read_bytes()

    def test_missing_run_dir(self, tmp_path):
        code = run("report", "--run-dir", tmp_path / "nope")
        assert code == EXIT_IO

    @pytest.mark.parametrize("name,edit,where", [
        ("sweep_results.csv",
         lambda lines: [line.split(",", 1)[1] for line in lines],
         "line 1: column 1 is 'strategy', expected K"),
        ("log_k01.csv",
         lambda lines: [lines[0].replace("_nll", "_mse")] + lines[1:],
         "line 1: column 2 is 'train_mse', expected train_nll"),
        ("log_k01.csv",
         lambda lines: lines[:1] + ["1,abc," + lines[1].split(",")[2]] + lines[2:],
         "line 2: cannot read train_nll from 'abc'"),
        ("sweep_results.csv", lambda lines: lines[:1], "no rows after the header"),
        ("sweep_results.csv", lambda lines: lines[:2] + [lines[2].rsplit(",", 1)[0] + ",nan"],
         "line 3: cannot read test_nll from 'nan'"),
        ("log_k01.csv",
         lambda lines: lines[:1] + [lines[1].rsplit(",", 1)[0] + ",-inf"] + lines[2:],
         "line 2: cannot read val_nll from '-inf'"),
        ("sweep_results.csv",  # the strategy cell of K=1 holds a line break: lines 2-3
         lambda lines: lines[:1] + [lines[1].replace(",tl2,", ',"tl2\n",').rsplit(",", 1)[0]
                                    + ",abc"] + lines[2:],
         "line 2: cannot read test_nll from 'abc'"),
    ], ids=["results_without_K", "log_with_mse_columns", "non_numeric_train_nll",
            "header_only_results", "nan_test_nll", "infinite_val_nll",
            "bad_nll_in_a_two_line_record"])
    def test_malformed_run_file(self, name, edit, where, tiny_dataset, finished_run, capsys):
        path = finished_run / name
        path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
        code = run("report", "--run-dir", finished_run, "--dataset", tiny_dataset)
        err = capsys.readouterr().err
        assert code == EXIT_IO
        assert err == f"error: {path}: {where}\n"
        assert not (finished_run / "report").exists()

    @pytest.mark.parametrize("flag,value", [("--k", 0), ("--k", 7), ("--test-index", 99)])
    def test_bad_choice_writes_nothing(self, flag, value, tiny_dataset, finished_run, capsys):
        code = run("report", "--run-dir", finished_run, "--dataset", tiny_dataset, flag, value)
        err = capsys.readouterr().err
        assert code == EXIT_USAGE
        assert err.startswith(f"error: {flag} {value} ") and err.count("\n") == 1
        assert not (finished_run / "report").exists()


class TestConfigFile:
    def test_precedence(self, tmp_path, tiny_dataset):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "seed = 5\nmax_epochs = 6\nbatch_size = 16\n"
            f"dataset = {tiny_dataset}\n# comment line\n"
        )
        out = tmp_path / "cfgrun"
        code = run(
            "train", "--config", cfg, "--k", 1, "--out", out, "--max-epochs", 4,
        )
        assert code == EXIT_OK
        text = (out / "config.txt").read_text()
        assert "max_epochs = 4" in text  # flag wins over file
        assert "seed = 5" in text  # file wins over default
        assert len(read_csv(out / "log_k01.csv")) == 4

    @pytest.mark.parametrize("text,message", [
        ("seed = 1\n# again\nseed = 2\n", "line 3: seed was set on line 1"),
        ("command = train\nseed = 1\ncommand = train\n", "line 3: command was set on line 1"),
    ], ids=["seed", "command"])
    def test_repeated_key_rejected(self, text, message, tmp_path, capsys):
        """A key given twice is a mistake, not an override; config.txt never repeats one."""
        cfg = tmp_path / "c.txt"
        cfg.write_text(text)
        code = run("train", "--config", cfg, "--out", tmp_path / "x")
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == f"error: {cfg}: {message}\n"
        assert not (tmp_path / "x").exists()

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("not_a_key = 1\n")
        code = run("train", "--config", cfg, "--k", 1, "--out", tmp_path / "x")
        assert code == EXIT_USAGE

    def test_hash_inside_a_value_is_kept(self, tmp_path):
        data = tmp_path / "d#1" / "data.csv"
        assert run("gen-data", "--samples", 60, "--seed", 3, "--out", data) == EXIT_OK
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"  # a comment line\ndataset = {data}\nmax_epochs = 2\n")
        out = tmp_path / "run#2"
        assert run("train", "--config", cfg, "--k", 1, "--out", out) == EXIT_OK
        assert f"dataset = {data}\n" in (out / "config.txt").read_text()

    @pytest.mark.parametrize("line,message", [
        ("seed = abc", "seed must be an int, got 'abc'"),
        ("seed = 1.5", "seed must be an int, got '1.5'"),
        ("learning_rate = fast", "learning_rate must be a float, got 'fast'"),
    ], ids=["int-word", "int-decimal", "float-word"])
    def test_value_that_does_not_convert(self, line, message, tmp_path, capsys):
        cfg = tmp_path / "c.txt"
        cfg.write_text(f"{line}\n")
        code = run("train", "--config", cfg, "--out", tmp_path / "x")
        err = capsys.readouterr().err
        assert code == EXIT_USAGE
        assert err == f"error: {cfg}: line 1: {message}\n"
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("command", ["train", "sweep"])
    @pytest.mark.parametrize("kind,reason", [("missing", "No such file or directory"),
                                             ("directory", "Is a directory")])
    def test_config_that_cannot_be_read(self, kind, reason, command, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        if kind == "directory":
            cfg.mkdir()
        assert run(command, "--config", cfg) == EXIT_USAGE
        assert capsys.readouterr().err == f"error: {cfg}: {reason}\n"

    def test_config_that_is_not_utf8(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_bytes(b"seed = 1\n# caf\xe9\n")
        assert run("train", "--config", cfg) == EXIT_USAGE
        assert capsys.readouterr().err == f"error: {cfg}: line 2: not UTF-8 text\n"

    def test_unknown_strategy_rejected_before_any_work(self, tiny_dataset, tmp_path, capsys):
        cfg = tmp_path / "c.txt"
        cfg.write_text("strategy = tl9\nautoencoder = true\n")
        out = tmp_path / "run"
        code = run("sweep", "--config", cfg, "--dataset", tiny_dataset, "--out", out,
                   "--max-epochs", 2, "--k-max", 1)
        err = capsys.readouterr().err
        assert code == EXIT_USAGE
        assert err.startswith("error: strategy must be") and err.count("\n") == 1
        assert not out.exists()

    def test_boolean_values(self, tmp_path):
        cfg = tmp_path / "b.cfg"
        cfg.write_text("autoencoder = yes\n")
        values = cli.parse_config_file(cfg, "sweep")
        assert values["autoencoder"] is True

    def test_run_config_replays(self, tiny_dataset, tmp_path):
        first, second = tmp_path / "r1", tmp_path / "r2"
        code = run(
            "train", "--dataset", tiny_dataset, "--k", 1, "--out", first, "--seed", 5,
            "--max-epochs", 6, "--batch-size", 16, "--learning-rate", 0.003, "--dropout", 0.1,
        )
        assert code == EXIT_OK
        assert run("train", "--config", first / "config.txt", "--out", second) == EXIT_OK
        for name in ("mdn_k01.json", "log_k01.csv"):
            assert (first / name).read_bytes() == (second / name).read_bytes()

    def test_config_of_another_command_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "config.txt"
        cfg.write_text("command = sweep\nseed = 1\n")
        code = run("train", "--config", cfg, "--out", tmp_path / "x")
        err = capsys.readouterr().err
        assert code == EXIT_USAGE
        assert "line 1" in err and err.count("\n") == 1
        assert not (tmp_path / "x").exists()

    @settings(max_examples=200, deadline=None, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(cfg=st.builds(
        cli.RunConfig,
        seed=st.integers(0, 2**63 - 1),
        dataset=PATH_TEXT,
        out=PATH_TEXT,
        k=st.integers(1, 10**6),
        k_max=st.integers(1, 10**6),
        strategy=st.sampled_from(transfer.STRATEGIES),
        autoencoder=st.booleans(),
        batch_size=st.integers(1, 10**6),
        max_epochs=st.integers(1, 10**6),
        patience=st.integers(1, 10**6),
        learning_rate=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
        min_delta=st.floats(min_value=0.0, allow_infinity=False),
        dropout_rate=st.floats(0.0, 1.0, exclude_max=True),
        warm_start_jitter=st.floats(min_value=0.0, allow_infinity=False),
    ))
    def test_write_then_parse_round_trips(self, cfg, tmp_path):
        path = tmp_path / "config.txt"
        cli.write_config(path, cfg, "sweep")
        values = cli.parse_config_file(path, "sweep")
        assert set(values) == {f.name for f in dataclasses.fields(cli.RunConfig)}
        assert cli.RunConfig(**values) == cfg


# one case per out-of-range setting; each must stop before any output is written
BAD_SETTINGS = [
    ("train", "--k", "0"),
    ("train", "--batch-size", "-5"),
    ("train", "--dropout", "-0.5"),
    ("train", "--dropout", "1"),
    ("train", "--learning-rate", "nan"),
    ("train", "--max-epochs", "0"),
    ("train", "--patience", "0"),
    ("train", "--min-delta", "nan"),
    ("train", "--warm-start-jitter", "-0.1"),
    ("train", "--seed", "-1"),
    ("sweep", "--k-max", "0"),
]


class TestSettings:
    @pytest.mark.parametrize("command,flag,value", BAD_SETTINGS,
                             ids=[f"{c}{f}={v}" for c, f, v in BAD_SETTINGS])
    def test_out_of_range_setting_is_usage_error(self, command, flag, value, tiny_dataset,
                                                 tmp_path, capsys):
        out = tmp_path / "run"
        code = run(command, "--dataset", tiny_dataset, "--out", out, "--max-epochs", 2,
                   "--batch-size", 16, flag, value)
        err = capsys.readouterr().err
        assert code == EXIT_USAGE
        assert err.startswith("error: ") and "must be" in err and err.count("\n") == 1
        assert not out.exists()


SETTING_NAMES = {f.name for f in dataclasses.fields(cli.RunConfig)}
# the flags that train and sweep share, spelled as they have always been
TRAIN_FLAGS = {"--config", "--seed", "--batch-size", "--learning-rate", "--max-epochs",
               "--patience", "--min-delta", "--dropout", "--warm-start-jitter", "--dataset",
               "--out"}
FLAG_INVENTORY = [
    ("sweep", SETTING_NAMES - {"k"} | {"config"},
     TRAIN_FLAGS | {"--k-max", "--strategy", "--autoencoder"}),
    ("train", SETTING_NAMES - {"k_max", "strategy", "autoencoder"} | {"config"},
     TRAIN_FLAGS | {"--k"}),
    ("gen-data", {"seed", "config", "samples", "out_file"},
     {"--seed", "--config", "--samples", "--out"}),
    ("predict", {"checkpoint", "spectrum_file", "top", "out"},
     {"--checkpoint", "--spectrum-file", "--top", "--out"}),
    ("report", {"run_dir", "dataset", "k", "test_index", "out"},
     {"--run-dir", "--dataset", "--k", "--test-index", "--out"}),
]


def _subparser(command: str) -> argparse.ArgumentParser:
    parser = cli.make_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices[command]


class TestFlagInventory:
    @pytest.mark.parametrize("command,dests,flags", FLAG_INVENTORY,
                             ids=[c for c, _, _ in FLAG_INVENTORY])
    def test_options_of_each_command(self, command, dests, flags):
        options = [a for a in _subparser(command)._actions if a.dest != "help"]
        assert {a.dest for a in options} == dests
        assert {s for a in options for s in a.option_strings} == flags
        assert all(len(a.option_strings) == 1 for a in options)
        if "dropout_rate" in dests:
            dropout = next(a for a in options if a.dest == "dropout_rate")
            assert dropout.option_strings == ["--dropout"]

    def test_sweep_help_keeps_choices_and_help_texts(self):
        text = " ".join(_subparser("sweep").format_help().split())
        assert "--strategy {none,tl1,tl2}" in text
        assert "--autoencoder train an autoencoder first and sweep on 10-dim latents" in text
        assert ("--warm-start-jitter WARM_START_JITTER seeded perturbation scale for a freshly "
                "cloned component") in text


class TestExitCodes:
    def test_missing_dataset_is_io_error(self, tmp_path):
        code = run(
            "train", "--dataset", tmp_path / "missing.csv", "--k", 1,
            "--out", tmp_path / "r",
        )
        assert code == EXIT_IO

    @pytest.mark.parametrize("command", ["train", "sweep"])
    def test_no_dataset_is_usage_error(self, command, tmp_path, capsys):
        """Neither --dataset nor a 'dataset =' config line: "" must not open as '.'."""
        config = tmp_path / "run.txt"
        config.write_text("seed = 3\n", encoding="utf-8")
        code = run(command, "--config", config, "--out", tmp_path / "r")
        err = capsys.readouterr().err
        assert code == EXIT_USAGE
        assert err.count("\n") == 1 and "--dataset" in err
        assert not (tmp_path / "r").exists()

    # each command's arguments but --out; every file they name but run.txt is missing
    EMPTY_OUT_ARGV = {
        "gen-data": ["--config", "run.txt"],
        "train": ["--config", "run.txt", "--dataset", "missing.csv"],
        "sweep": ["--config", "run.txt", "--dataset", "missing.csv"],
        "predict": ["--checkpoint", "missing.json", "--spectrum-file", "missing.txt"],
        "report": ["--run-dir", "missing", "--dataset", "missing.csv"],
    }

    @pytest.mark.parametrize("given,command", [("flag", c) for c in EMPTY_OUT_ARGV]
                             + [("config", "train"), ("config", "sweep")])
    def test_empty_out_is_usage_error(self, given, command, tmp_path, monkeypatch, capsys):
        """An empty --out, or an empty 'out =' config line, would write into the working
        directory: it exits 2 before any file, here a missing one, is read."""
        monkeypatch.chdir(tmp_path)
        (tmp_path / "run.txt").write_text("out =\n" if given == "config" else "seed = 3\n",
                                          encoding="utf-8")
        code = run(command, *self.EMPTY_OUT_ARGV[command],
                   *(["--out", ""] if given == "flag" else []))
        err = capsys.readouterr().err
        assert code == EXIT_USAGE
        assert err.count("\n") == 1 and "--out" in err
        assert [p.name for p in tmp_path.iterdir()] == ["run.txt"]

    def test_bad_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            run("sweep", "--strategy", "magic")
        assert exc.value.code == EXIT_USAGE

    @pytest.mark.parametrize("command", [["train"], ["sweep", "--autoencoder", "--k-max", 2]],
                             ids=["train", "sweep_autoencoder"])
    def test_diverged_run_prints_one_line(self, command, tiny_dataset, tmp_path, capsys,
                                          recwarn):
        """A run that overflows into a NaN loss exits 4 with its one error line, and none
        of the overflow and invalid-value warnings of the steps that led there."""
        code = run(*command, "--dataset", tiny_dataset, "--learning-rate", "1e308",
                   "--max-epochs", 2, "--batch-size", 16, "--out", tmp_path / "r")
        err = capsys.readouterr().err
        assert code == EXIT_DIVERGED
        assert err.startswith("error: training diverged: ") and err.count("\n") == 1
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


SRC = Path(__file__).resolve().parent.parent / "src"


def test_generate_dataset_loads_no_scipy():
    """Sobol sampling is specinv's own: gen-data's whole pipeline runs without scipy,
    whose import costs more than a predict costs to run."""
    probe = (
        "import sys\n"
        "import specinv.cli\n"
        "specinv.dataset.generate_dataset(40, seed=0)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    assert done.stdout.strip() == "[]"


def test_cli_import_loads_no_scipy():
    """No command needs scipy. Sweep writes its checkpoints in-process, so no process-pool
    module loads either."""
    probe = (
        "import sys\n"
        "import specinv.cli\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m.split('.')[0] in ('scipy', 'multiprocessing', 'concurrent')))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    assert done.stdout.strip() == "[]"

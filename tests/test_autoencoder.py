"""Autoencoder shapes, training behavior, and persistence."""

import numpy as np
import pytest

from specinv import autoencoder, dataset, mdn, nncore
from specinv.autoencoder import (
    DECODER_WIDTHS,
    ENCODER_WIDTHS,
    decode,
    encode,
    init_ae,
    load_ae,
    reconstruction_mse,
    save_ae,
    train_ae,
)
from specinv.train import TrainConfig
from util import finite_difference_grads, max_rel_error, mean_baseline_mse, small_mdn


class TestShapes:
    def test_fixed_widths(self):
        ae = init_ae(np.random.default_rng(0))
        assert ae.encoder.layer_widths == ENCODER_WIDTHS == [101, 128, 256, 512, 256, 10]
        assert ae.decoder.layer_widths == DECODER_WIDTHS == [10, 256, 512, 256, 128, 101]

    def test_encode_decode_chain(self):
        ae = init_ae(np.random.default_rng(1))
        spectrum = np.random.default_rng(2).random(101)
        latent = encode(ae, spectrum)
        assert latent.shape == (10,)
        recon = decode(ae, latent)
        assert recon.shape == (101,)

    def test_batch_shapes(self):
        ae = init_ae(np.random.default_rng(3))
        spectra = np.random.default_rng(4).random((7, 101))
        latents = encode(ae, spectra)
        assert latents.shape == (7, 10)
        assert decode(ae, latents).shape == (7, 101)

    def test_wrong_input_width(self):
        ae = init_ae(np.random.default_rng(5))
        with pytest.raises(ValueError, match="input shape"):
            encode(ae, np.zeros(100))
        with pytest.raises(ValueError, match="input shape"):
            decode(ae, np.zeros(11))

    def test_decoder_output_layer_is_affine(self):
        ae = init_ae(np.random.default_rng(6))
        assert ae.decoder.activations[-1] == nncore.ACT_IDENTITY
        assert all(a == nncore.ACT_SILU for a in ae.decoder.activations[:-1])
        assert all(a == nncore.ACT_SILU for a in ae.encoder.activations)


class TestEncodeDecode:
    def test_zero_weight_encoder_gives_zero_latent(self):
        ae = init_ae(np.random.default_rng(7))
        for w, b in zip(ae.encoder.weights, ae.encoder.biases):
            w[:] = 0.0
            b[:] = 0.0
        np.testing.assert_array_equal(encode(ae, np.random.default_rng(8).random(101)),
                                      np.zeros(10))

    def test_encode_deterministic(self):
        ae = init_ae(np.random.default_rng(9))
        spectrum = np.random.default_rng(10).random(101)
        np.testing.assert_array_equal(encode(ae, spectrum), encode(ae, spectrum))


class TestTraining:
    def test_identical_spectra_reach_numerical_floor(self):
        """A constant target is memorized to (near) machine precision."""
        design = dataset.generate_designs(1, seed=0)[0]
        spectrum = dataset.surrogate_spectra(design.to_array()[None])[0]
        spectra = np.tile(spectrum, (8, 1))
        cfg = TrainConfig(batch_size=8, learning_rate=1e-2, max_epochs=800,
                          patience=800, min_delta=0.0, seed=0)
        fit = train_ae(spectra, spectra, cfg,
                       shuffle_rng=np.random.default_rng(1),
                       rng=np.random.default_rng(2))
        assert fit.best_val_loss <= 1e-6

    def test_beats_mean_baseline(self):
        ds = dataset.generate_dataset(80, seed=5)
        train = ds.spectra[ds.indices("train")]
        val = ds.spectra[ds.indices("val")]
        cfg = TrainConfig(batch_size=32, learning_rate=3e-3, max_epochs=60,
                          patience=60, seed=0)
        fit = train_ae(train, val, cfg,
                       shuffle_rng=np.random.default_rng(3),
                       rng=np.random.default_rng(4))
        assert fit.best_val_loss < mean_baseline_mse(train, val)

    def test_best_val_tracks_log_minimum(self):
        ds = dataset.generate_dataset(40, seed=6)
        cfg = TrainConfig(batch_size=16, max_epochs=12, patience=12, seed=0)
        fit = train_ae(ds.spectra[ds.indices("train")], ds.spectra[ds.indices("val")], cfg,
                       shuffle_rng=np.random.default_rng(5),
                       rng=np.random.default_rng(6))
        vals = [v for _, v in fit.log]
        assert fit.best_val_loss == min(vals)
        assert fit.epochs == len(fit.log)
        # restored model reproduces the best logged value
        assert reconstruction_mse(fit.model, ds.spectra[ds.indices("val")]) == pytest.approx(
            fit.best_val_loss, abs=1e-12
        )

    def test_latent_width_fixed_regardless_of_config(self):
        ds = dataset.generate_dataset(20, seed=7)
        cfg = TrainConfig(batch_size=64, max_epochs=2, patience=5, seed=0)
        fit = train_ae(ds.spectra[ds.indices("train")], ds.spectra[ds.indices("val")], cfg,
                       shuffle_rng=np.random.default_rng(7),
                       rng=np.random.default_rng(8))
        assert encode(fit.model, ds.spectra[0]).shape == (10,)

    def test_step_gradient_matches_finite_differences(self, monkeypatch):
        """The training step's gradient, encoder and decoder alike and across the latent
        junction, is the derivative of the batch's reconstruction MSE, ordered like
        ``parameters()``."""
        monkeypatch.setattr(autoencoder, "ENCODER_WIDTHS", [6, 5, 3])
        monkeypatch.setattr(autoencoder, "DECODER_WIDTHS", [3, 4, 6])
        steps = []
        monkeypatch.setattr(autoencoder, "fit",
                            lambda model, n, step, *rest: steps.append((model, step)))
        spectra = np.random.default_rng(11).random((9, 6))
        train_ae(spectra, spectra, TrainConfig(), shuffle_rng=np.random.default_rng(12),
                 rng=np.random.default_rng(13))
        (model, step), = steps
        idx = np.array([7, 2, 4, 0])
        loss, grads = step(idx)
        assert loss == reconstruction_mse(model, spectra[idx])
        numeric = finite_difference_grads(lambda: reconstruction_mse(model, spectra[idx]),
                                          model.parameters())
        assert max_rel_error(grads, numeric) <= 1e-4

    def test_divergence_detected(self):
        ds = dataset.generate_dataset(20, seed=8)
        spectra = ds.spectra[ds.indices("train")].copy()
        spectra[0, 0] = np.nan  # poisons the reconstruction loss
        cfg = TrainConfig(batch_size=16, max_epochs=30, patience=30, seed=0)
        with pytest.raises(nncore.TrainingDivergedError):
            train_ae(spectra, ds.spectra[ds.indices("val")], cfg,
                     shuffle_rng=np.random.default_rng(9),
                     rng=np.random.default_rng(10))


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        ae = init_ae(np.random.default_rng(11))
        path = tmp_path / "ae.json"
        save_ae(path, ae)
        loaded = load_ae(path)
        for a, b in zip(ae.parameters(), loaded.parameters()):
            np.testing.assert_array_equal(a, b)
        x = np.random.default_rng(12).random(101)
        np.testing.assert_array_equal(encode(ae, x), encode(loaded, x))

    def test_wrapper_marks_halves(self, tmp_path):
        ae = init_ae(np.random.default_rng(13))
        path = tmp_path / "ae.json"
        save_ae(path, ae)
        data = nncore.load_checkpoint(path)
        assert data["kind"] == "autoencoder"
        assert set(data) >= {"encoder", "decoder", "format_version"}

    def test_wrong_kind_rejected(self, tmp_path):
        rng = np.random.default_rng(14)
        path = tmp_path / "mdn.json"
        mdn.save_mdn(path, small_mdn([4, 3], 1, 2, rng))
        with pytest.raises(ValueError, match="autoencoder"):
            load_ae(path)

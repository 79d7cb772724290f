"""Spectrum autoencoder: 101 absorbance samples down to a 10-dim latent and back.

Trained on mean squared reconstruction error with Adam and early stopping; the
encoder is then frozen and its latents feed the reduced-input mixture model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import nncore
from .nncore import ACT_IDENTITY, ACT_SILU, MlpModel, TrainingDivergedError
from .train import TrainConfig, TrainResult, fit

ENCODER_WIDTHS = [101, 128, 256, 512, 256, 10]
DECODER_WIDTHS = ENCODER_WIDTHS[::-1]


@dataclass
class AeModel:
    encoder: MlpModel
    decoder: MlpModel

    def parameters(self) -> list[np.ndarray]:
        return self.encoder.parameters() + self.decoder.parameters()


def init_ae(rng: np.random.Generator) -> AeModel:
    """Fresh autoencoder; SiLU throughout except the affine reconstruction layer."""
    encoder = nncore.init_mlp(ENCODER_WIDTHS, rng)
    dec_acts = [ACT_SILU] * (len(DECODER_WIDTHS) - 2) + [ACT_IDENTITY]
    decoder = nncore.init_mlp(DECODER_WIDTHS, rng, activations=dec_acts)
    return AeModel(encoder=encoder, decoder=decoder)


def encode(ae: AeModel, spectrum: np.ndarray) -> np.ndarray:
    """Latent vector(s) for one spectrum (101,) or a batch (n, 101); eval mode."""
    out, _ = nncore.forward(ae.encoder, spectrum)
    return out


def decode(ae: AeModel, latent: np.ndarray) -> np.ndarray:
    """Reconstructed spectrum; unclamped (clip to [0,1] only for display)."""
    out, _ = nncore.forward(ae.decoder, latent)
    return out


def reconstruction_mse(ae: AeModel, spectra: np.ndarray) -> float:
    recon = decode(ae, encode(ae, spectra))
    return float(np.mean((recon - spectra) ** 2))


def train_ae(
    train_spectra: np.ndarray,
    val_spectra: np.ndarray,
    config: TrainConfig,
    shuffle_rng: np.random.Generator,
    rng: np.random.Generator,
) -> TrainResult:
    """Minimize reconstruction MSE from ``init_ae(rng)``; returns the best-validation model."""
    model = init_ae(rng)
    enc, dec = model.encoder, model.decoder  # trained as one network, encoder first
    joint = MlpModel(enc.layer_widths + dec.layer_widths[1:], enc.weights + dec.weights,
                     enc.biases + dec.biases, enc.activations + dec.activations)

    def batch_loss_and_grads(idx):
        batch = train_spectra[idx]
        # no layer drops out: the train flag only keeps the tape
        recon, tape = nncore.forward(joint, batch, train=True)
        err = recon - batch
        loss = float(np.mean(err * err))
        if not math.isfinite(loss):
            raise TrainingDivergedError(f"non-finite reconstruction loss {loss!r}")
        return loss, nncore.backward(joint, tape, 2.0 * err / err.size)

    return fit(
        model, train_spectra.shape[0], batch_loss_and_grads,
        lambda: reconstruction_mse(model, val_spectra), config, shuffle_rng,
    )


# --- checkpoint io --------------------------------------------------------------


def ae_to_dict(ae: AeModel) -> dict:
    return {
        "format_version": nncore.CHECKPOINT_FORMAT_VERSION,
        "kind": "autoencoder",
        "encoder": nncore.mlp_to_dict(ae.encoder),
        "decoder": nncore.mlp_to_dict(ae.decoder),
    }


def ae_from_dict(data: dict) -> AeModel:
    nncore.check_header(data, "autoencoder", ("encoder", "decoder"))
    ae = AeModel(
        encoder=nncore.mlp_from_dict(data["encoder"], "encoder"),
        decoder=nncore.mlp_from_dict(data["decoder"], "decoder"),
    )
    if ae.encoder.input_width != ENCODER_WIDTHS[0]:
        raise nncore.CheckpointFormatError(f"the encoder takes {ae.encoder.input_width} inputs, "
                                           f"not a spectrum's {ENCODER_WIDTHS[0]}")
    if ae.encoder.output_width != ae.decoder.input_width:
        raise nncore.CheckpointFormatError("encoder/decoder latent widths disagree")
    if ae.decoder.output_width != ae.encoder.input_width:
        raise nncore.CheckpointFormatError("the decoder does not give back the encoder's inputs")
    return ae


def save_ae(path, ae: AeModel) -> None:
    nncore.save_checkpoint(path, ae_to_dict(ae))


def load_ae(path) -> AeModel:
    return nncore.load_model(path, ae_from_dict)

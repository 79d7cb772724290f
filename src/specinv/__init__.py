"""Inverse design of spectral responses with mixture density networks.

A 101-sample absorbance spectrum goes in; a Gaussian mixture over the five
design parameters that could have produced it comes out.  Includes the
stabilized mixture likelihood loss, transfer-learning warm starts that grow a
trained model from K-1 to K components, an optional autoencoder front end, a
fully reproducible synthetic data pipeline, and a CLI for end-to-end runs.
"""

from .autoencoder import AeModel, decode, encode, load_ae, save_ae, train_ae
from .dataset import (
    DesignParams,
    LabeledDataset,
    generate_dataset,
    load_dataset,
    save_dataset,
)
from .mdn import (
    LOSS_CEILING,
    MdnModel,
    MixtureParams,
    batch_nll,
    build_mdn,
    load_mdn,
    mixture_for,
    predict_modes,
    save_mdn,
    weighted_marginal_pdf,
)
from .nncore import AdamState, EarlyStopping, MlpModel, TrainingDivergedError
from .train import TrainConfig, arrays_from_dataset, train_mdn
from .transfer import grow, sweep

__version__ = "0.1.0"

__all__ = [
    "AdamState",
    "AeModel",
    "DesignParams",
    "EarlyStopping",
    "LOSS_CEILING",
    "LabeledDataset",
    "MdnModel",
    "MixtureParams",
    "MlpModel",
    "TrainConfig",
    "TrainingDivergedError",
    "arrays_from_dataset",
    "batch_nll",
    "build_mdn",
    "decode",
    "encode",
    "generate_dataset",
    "grow",
    "load_ae",
    "load_dataset",
    "load_mdn",
    "mixture_for",
    "predict_modes",
    "save_ae",
    "save_dataset",
    "save_mdn",
    "sweep",
    "train_ae",
    "train_mdn",
    "weighted_marginal_pdf",
]

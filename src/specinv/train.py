"""The one training loop, ``fit``, shared by the mixture models and the autoencoder."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

import numpy as np

from . import dataset as dataset_mod
from . import mdn, nncore
from .mdn import MdnModel
from .nncore import EarlyStopping, TrainingDivergedError

if TYPE_CHECKING:
    from .autoencoder import AeModel

# sub-stream roles so one run seed drives every independent random choice
ROLE_INIT = 1
ROLE_DROPOUT = 2
ROLE_SHUFFLE = 3
ROLE_DONOR = 4
ROLE_AE_INIT = 5
ROLE_AE_SHUFFLE = 6
ROLE_WARM_JITTER = 7

# A mean validation NLL within this of ``mdn.LOSS_CEILING`` means the model has collapsed
COLLAPSE_MARGIN = 1e-9


def child_rng(*entropy: int) -> np.random.Generator:
    """Deterministic generator derived from integer entropy words."""
    return np.random.default_rng(np.random.SeedSequence([int(e) for e in entropy]))


def model_streams(seed: int, k: int) -> tuple[np.random.Generator, ...]:
    """The initialization, shuffle and dropout streams of a run's K-component model.

    Initialization re-seeds per K (seed + k), so the from-scratch models of a
    sweep are independent and ``train --k K`` trains the sweep's model K.
    """
    return (child_rng(seed + k, ROLE_INIT), child_rng(seed, k, ROLE_SHUFFLE),
            child_rng(seed, k, ROLE_DROPOUT))


def ae_streams(seed: int) -> tuple[np.random.Generator, np.random.Generator]:
    """The autoencoder's shuffle and initialization streams: ``train_ae``'s
    ``(shuffle_rng, rng)``."""
    return child_rng(seed, ROLE_AE_SHUFFLE), child_rng(seed, ROLE_AE_INIT)


@dataclass
class TrainConfig:
    """Hyperparameters shared by every training run.

    ``warm_start_jitter`` is the scale of the seeded perturbation applied to a
    freshly cloned component before its first update.  An exact clone receives
    bit-identical gradients to its donor forever and the pair never
    differentiates; the jitter is the explicit escape from that symmetry
    (growth itself stays bit-exact).
    """

    batch_size: int = 64
    learning_rate: float = 1e-3
    max_epochs: int = 1000
    patience: int = 50
    min_delta: float = 1e-4
    dropout_rate: float = 0.2
    seed: int = 0
    warm_start_jitter: float = field(default=0.1, metadata={
        "help": "seeded perturbation scale for a freshly cloned component"})

    def __post_init__(self):
        for name in ("batch_size", "max_epochs", "patience"):
            self._require(name, getattr(self, name) >= 1, ">= 1")
        self._require("dropout_rate", 0.0 <= self.dropout_rate < 1.0, "in [0, 1)")
        lr = self.learning_rate
        self._require("learning_rate", math.isfinite(lr) and lr > 0.0, "finite and > 0")
        for name in ("min_delta", "warm_start_jitter"):
            value = getattr(self, name)
            self._require(name, math.isfinite(value) and value >= 0.0, "finite and >= 0")
        self._require("seed", self.seed >= 0, ">= 0")

    def _require(self, name: str, ok: bool, rule: str) -> None:
        if not ok:
            raise ValueError(f"{name} must be {rule}, got {getattr(self, name)!r}")


@dataclass
class SupervisedArrays:
    """Train/val/test matrices ready for the loop; x rows pair with y rows."""

    train_x: np.ndarray
    train_y: np.ndarray
    val_x: np.ndarray
    val_y: np.ndarray
    test_x: np.ndarray
    test_y: np.ndarray

    @property
    def input_width(self) -> int:
        return self.train_x.shape[1]


@dataclass
class TrainResult:
    model: MdnModel | AeModel
    epochs: int
    log: list[tuple[float, float]]  # (train_loss, val_loss)
    best_val_loss: float
    seconds: float


def arrays_from_dataset(ds, x_matrix: np.ndarray | None = None) -> SupervisedArrays:
    """Split a labeled dataset into training matrices.

    ``x_matrix`` substitutes alternative inputs aligned row-for-row with the
    dataset records (e.g. encoder latents); targets are always the normalized
    designs.
    """
    x = ds.spectra if x_matrix is None else np.asarray(x_matrix, dtype=np.float64)
    if x.shape[0] != len(ds):
        raise ValueError(f"{x.shape[0]} input rows for {len(ds)} records")
    y = dataset_mod.normalize_designs(ds.designs)
    parts = []
    for split in ("train", "val", "test"):
        idx = ds.indices(split)
        parts += [x[idx], y[idx]]
    return SupervisedArrays(*parts)


def fit(
    model: MdnModel | AeModel,
    n_train: int,
    batch_loss_and_grads: Callable[[np.ndarray], tuple[float, list[np.ndarray]]],
    val_loss: Callable[[], float],
    config: TrainConfig,
    shuffle_rng: np.random.Generator,
) -> TrainResult:
    """Adam on shuffled minibatches until early stopping; restores the best weights.

    ``batch_loss_and_grads(idx)`` gives the mean loss over training rows ``idx``
    and gradients ordered like ``model.parameters()``.  Returns a ``TrainResult``: the model
    at its best-validation weights, the epochs run, the (mean train loss, validation loss) of
    each epoch, the best validation loss, and the wall time of this call in seconds.
    """
    t0 = time.perf_counter()
    params = model.parameters()
    adam = nncore.adam_init(params, learning_rate=config.learning_rate)
    stopper = EarlyStopping(
        patience=config.patience, min_delta=config.min_delta, max_epochs=config.max_epochs
    )
    log: list[tuple[float, float]] = []
    while True:
        perm = shuffle_rng.permutation(n_train)
        total = 0.0
        for start in range(0, n_train, config.batch_size):
            idx = perm[start : start + config.batch_size]
            loss, grads = batch_loss_and_grads(idx)
            nncore.adam_step(grads, adam)
            del grads  # applied: free them before the next step builds its own
            total += loss * len(idx)
        val = val_loss()
        log.append((total / n_train, val))
        checkpoint = None
        if stopper.improves(val):  # one best-weights buffer per fit, rewritten on improvement
            checkpoint = nncore.snapshot_params(params, stopper.best_checkpoint)
        if stopper.update(val, checkpoint):
            break
    nncore.restore_params(params, stopper.best_checkpoint)
    return TrainResult(model, stopper.epoch, log, stopper.best_val_loss, time.perf_counter() - t0)


def train_mdn(
    model: MdnModel,
    data: SupervisedArrays,
    config: TrainConfig,
    shuffle_rng: np.random.Generator,
    dropout_rng: np.random.Generator,
) -> TrainResult:
    """Train in place until early stopping, then restore the best-validation weights.

    The logged train loss is the running minibatch mean (dropout active); the
    logged validation loss is recomputed in eval mode, so reloading the best
    checkpoint reproduces it exactly.
    """
    def batch_loss_and_grads(idx):
        return mdn.batch_nll_and_grads(
            model, data.train_x[idx], data.train_y[idx],
            dropout_rate=config.dropout_rate, rng=dropout_rng,
        )

    def val_loss():
        loss = mdn.batch_nll(model, data.val_x, data.val_y)
        # this close to the ceiling, every validation density is below the floor, and with
        # no density left no gradient is left either: training cannot recover
        if loss > mdn.LOSS_CEILING - COLLAPSE_MARGIN:
            raise TrainingDivergedError(f"validation loss {loss!r} is at the loss ceiling")
        return loss

    return fit(model, data.train_x.shape[0], batch_loss_and_grads, val_loss, config, shuffle_rng)

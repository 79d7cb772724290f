"""Session-scoped fixtures: one shared desk-scale dataset and its trained sweeps.

These are the expensive artifacts the acceptance tests evaluate; everything is
seeded so reruns are bit-identical.
"""

import time
from dataclasses import dataclass

import pytest

from specinv import autoencoder, dataset, transfer
from specinv.train import TrainConfig, TrainResult, ae_streams, arrays_from_dataset

ACCEPT_SEED = 7
DESK_SAMPLES = 1000
DESK_DATA_SEED = 20240601

# frozen after the first measured run (observed 9.0e-4 on the desk dataset)
AE_VAL_MSE_THRESHOLD = 2e-3


def accept_config(**overrides) -> TrainConfig:
    cfg = dict(seed=ACCEPT_SEED)
    cfg.update(overrides)
    return TrainConfig(**cfg)


@dataclass
class TimedSweep:
    result: list[transfer.SweepEntry]
    wall_seconds: float


@pytest.fixture(scope="session")
def desk_dataset():
    return dataset.generate_dataset(DESK_SAMPLES, seed=DESK_DATA_SEED)


@pytest.fixture(scope="session")
def desk_arrays(desk_dataset):
    return arrays_from_dataset(desk_dataset)


def _timed_sweep(arrays, k_max, kind) -> TimedSweep:
    t0 = time.perf_counter()
    result = transfer.sweep(arrays, k_max, kind, accept_config())
    return TimedSweep(result=result, wall_seconds=time.perf_counter() - t0)


@pytest.fixture(scope="session")
def none_sweep(desk_arrays) -> TimedSweep:
    return _timed_sweep(desk_arrays, 5, transfer.STRATEGY_NONE)


@pytest.fixture(scope="session")
def tl1_sweep(desk_arrays) -> TimedSweep:
    return _timed_sweep(desk_arrays, 10, transfer.STRATEGY_TL1)


@pytest.fixture(scope="session")
def trained_ae(desk_dataset) -> TrainResult:
    shuffle_rng, rng = ae_streams(ACCEPT_SEED)
    return autoencoder.train_ae(
        desk_dataset.spectra[desk_dataset.indices("train")],
        desk_dataset.spectra[desk_dataset.indices("val")],
        accept_config(),
        shuffle_rng=shuffle_rng,
        rng=rng,
    )


@pytest.fixture(scope="session")
def ae_sweep(desk_dataset, trained_ae) -> TimedSweep:
    latents = autoencoder.encode(trained_ae.model, desk_dataset.spectra)
    arrays = arrays_from_dataset(desk_dataset, x_matrix=latents)
    return _timed_sweep(arrays, 5, transfer.STRATEGY_TL1)

"""The traced benchmark (bench/tracer.py) wraps specinv functions by attribute name.

If a refactor drops, moves or stops calling one of those names, the benchmark's
per-layer numbers silently go to zero; these tests fail first.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

from specinv import autoencoder, cli, dataset, mdn, nncore, train, transfer
from specinv.train import SupervisedArrays, TrainConfig

BENCH = Path(__file__).resolve().parents[1] / "bench"
MODULES = (autoencoder, cli, dataset, mdn, nncore, train, transfer)


@pytest.fixture()
def tracer_module(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ untouched
    import tracer

    return tracer


def _bindings():
    names = {(m.__name__, k): v for m in MODULES for k, v in vars(m).items()}
    names[("EarlyStopping", "update")] = nncore.EarlyStopping.update
    return names


def test_install_then_uninstall_restores_every_name(tracer_module):
    before = _bindings()
    tracer = tracer_module.Tracer()
    tracer_module.install(tracer)  # AttributeError here: a patched name is gone
    try:
        assert _bindings() != before
    finally:
        tracer.uninstall()
    assert _bindings() == before


def test_training_goes_through_the_traced_names(tracer_module, monkeypatch):
    monkeypatch.setitem(mdn.TRUNK_WIDTHS, 6, [6, 8])  # a test-sized trunk for 6-wide inputs
    rng = np.random.default_rng(0)
    arrays = SupervisedArrays(*(rng.random((n, w)) for n in (32, 8, 8) for w in (6, 5)))
    spectra = dataset.surrogate_spectra(
        np.array([d.to_array() for d in dataset.generate_designs(12, seed=0)])
    )
    config = TrainConfig(batch_size=8, max_epochs=2, patience=2, seed=1)
    tracer = tracer_module.Tracer()
    tracer_module.install(tracer)
    try:
        transfer.sweep(arrays, 2, "tl1", config)
        autoencoder.train_ae(spectra[:8], spectra[8:], config,
                             shuffle_rng=np.random.default_rng(1), rng=np.random.default_rng(2))
    finally:
        tracer.uninstall()
    name, info = tracer_module.NAME, tracer_module.INFO
    calls = {}
    for span in tracer.spans:
        calls[span[name]] = calls.get(span[name], 0) + 1
    for expected in ("transfer.sweep", "transfer.grow", "train.train_mdn",
                     "mdn.batch_nll_and_grads", "mdn.batch_nll", "autoencoder.train_ae",
                     "autoencoder.encode", "autoencoder.decode", "nncore.forward.train",
                     "nncore.backward", "nncore.adam_step", "nncore.snapshot_params",
                     "nncore.restore_params"):
        assert calls.get(expected, 0) > 0, expected
    assert calls["train.train_mdn"] == 2 and calls["autoencoder.train_ae"] == 1
    # every training forward, the autoencoder's included, is paired with its backward
    flop = {"nncore.forward.train": 0, "nncore.backward": 0}
    for span in tracer.spans:
        if span[name] in flop:
            flop[span[name]] += span[info]
    assert flop["nncore.backward"] == 2 * flop["nncore.forward.train"]
    assert tracer.counts[(None, "snapshots")] == 2 * 2 + 2

"""What ``train.fit`` holds between steps and epochs: one gradient set, one best-weights buffer."""

import weakref
from types import SimpleNamespace

import numpy as np

from specinv import nncore
from specinv.train import TrainConfig, fit

N_TRAIN = 8


def stub_model():
    params = [np.zeros((3, 2)), np.zeros(3)]
    return SimpleNamespace(parameters=lambda: params), params


def random_grads(params, rng):
    def batch_loss_and_grads(idx):
        return 1.0, [rng.standard_normal(p.shape) for p in params]

    return batch_loss_and_grads


def test_fit_frees_each_steps_gradients_before_the_next():
    model, params = stub_model()
    rng = np.random.default_rng(0)
    last_step: list[weakref.ref] = []

    def batch_loss_and_grads(idx):
        alive = sum(ref() is not None for ref in last_step)
        assert alive == 0, f"{alive} gradient arrays of the last step are still alive"
        grads = [rng.standard_normal(p.shape) for p in params]
        last_step[:] = [weakref.ref(g) for g in grads]
        return 1.0, grads

    config = TrainConfig(batch_size=2, max_epochs=3, patience=3)
    result = fit(model, N_TRAIN, batch_loss_and_grads, lambda: 1.0, config,
                 np.random.default_rng(1))
    assert result.epochs == 3


def test_one_best_weights_buffer(monkeypatch):
    """Improving epochs rewrite one buffer; a worse last epoch restores the best weights."""
    model, params = stub_model()
    snapshots = []

    def recording_snapshot(params, into=None):
        snapshots.append(original(params, into))
        return snapshots[-1]

    original = nncore.snapshot_params
    monkeypatch.setattr(nncore, "snapshot_params", recording_snapshot)
    val_losses = iter([3.0, 2.0, 1.0, 1.5, 2.5])
    weights_at = []

    def val_loss():
        weights_at.append([p.copy() for p in params])
        return next(val_losses)

    config = TrainConfig(batch_size=4, max_epochs=5, patience=5, min_delta=0.0)
    result = fit(model, N_TRAIN, random_grads(params, np.random.default_rng(2)), val_loss,
                 config, np.random.default_rng(3))
    assert result.epochs == 5 and result.best_val_loss == 1.0
    assert len(snapshots) == 3  # the three improving epochs
    assert all(s is snapshots[0] for s in snapshots)
    assert not np.array_equal(weights_at[2][0], weights_at[4][0])
    for p, best in zip(params, weights_at[2]):
        np.testing.assert_array_equal(p, best)

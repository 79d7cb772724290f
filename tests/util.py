"""Shared helpers for the test suite: oracles and gradient checking."""

import csv
import io
import json
import math
import os
from pathlib import Path

import numpy as np
import pytest


def csv_writer_bytes(header, rows):
    """The bytes ``nncore.write_csv`` wrote before its row templates: ``csv.writer``, each
    float cell, Python or numpy, through ``format(v, ".17g")`` and every other one through
    ``str``.  The writer's oracle."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(
        [format(v, ".17g") if isinstance(v, (float, np.floating)) else str(v) for v in row]
        for row in rows
    )
    return buf.getvalue().encode("utf-8")


def finite_difference_grads(loss_fn, params, h=1e-5):
    """Central differences over every coordinate of every parameter array."""
    grads = []
    for p in params:
        g = np.zeros_like(p)
        it = np.nditer(p, flags=["multi_index"])
        for _ in it:
            i = it.multi_index
            orig = p[i]
            p[i] = orig + h
            lp = loss_fn()
            p[i] = orig - h
            lm = loss_fn()
            p[i] = orig
            g[i] = (lp - lm) / (2.0 * h)
        grads.append(g)
    return grads


def max_rel_error(analytic, numeric):
    worst = 0.0
    for a, n in zip(analytic, numeric):
        denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-8)
        worst = max(worst, float(np.max(np.abs(a - n) / denom)))
    return worst


def reference_adam_step(params, grads, first, second, t, learning_rate):
    """Step ``t`` of Kingma and Ba's bias-corrected Adam, in place on ``params`` and on the
    moments ``first`` and ``second``, which hold ``m`` and ``v`` as the paper defines them.

    The textbook order, 13 passes per array: the oracle of ``nncore.adam_step``, which keeps
    its moments as running sums and folds the bias corrections into two scalars.
    """
    from specinv.nncore import ADAM_EPSILON, MOMENT1_DECAY, MOMENT2_DECAY

    bc1 = 1.0 - MOMENT1_DECAY**t
    bc2 = 1.0 - MOMENT2_DECAY**t
    for p, g, m, v in zip(params, grads, first, second):
        work = np.empty_like(p)
        m *= MOMENT1_DECAY
        np.multiply(g, 1.0 - MOMENT1_DECAY, out=work)
        m += work
        v *= MOMENT2_DECAY
        np.multiply(g, g, out=work)
        work *= 1.0 - MOMENT2_DECAY
        v += work
        # p -= lr * (m / bc1) / (sqrt(v / bc2) + eps)
        np.divide(v, bc2, out=work)
        np.sqrt(work, out=work)
        work += ADAM_EPSILON
        np.divide(m, work, out=work)
        work *= learning_rate / bc1
        p -= work


def scalar_mixture_nll(pi, mu, sigma, y):
    """Directly coded stabilized loss: plain Python floats, no vectorization.

    Independent of the library path: computes the per-component products
    explicitly, shifts each standard deviation by 1e-5, sums the weighted
    densities, adds 1e-5, and takes -log.
    """
    dens = 0.0
    for k in range(len(pi)):
        prod = 1.0
        for c in range(len(y)):
            s = sigma[k][c] + 1e-5
            z = (y[c] - mu[k][c]) / (math.sqrt(2.0) * s)
            prod *= math.exp(-z * z) / (math.sqrt(2.0 * math.pi) * s)
        dens += pi[k] * prod
    return -math.log(dens + 1e-5)


def random_mixture(rng, k=None, n=5, mu_scale=2.0):
    """A valid random MixtureParams-shaped triple (pi, mu, sigma)."""
    from specinv.mdn import MixtureParams

    if k is None:
        k = int(rng.integers(1, 9))
    logits = rng.normal(size=k)
    e = np.exp(logits - logits.max())
    pi = e / e.sum()
    mu = rng.normal(scale=mu_scale, size=(k, n))
    sigma = np.exp(rng.normal(scale=0.8, size=(k, n)))
    return MixtureParams(pi=pi, mu=mu, sigma=sigma)


def small_mdn(trunk_widths, n_components, n_targets, rng):
    """The model ``build_mdn`` builds, from the same draws of ``rng`` in the same order, but
    on a test-sized trunk of ``trunk_widths`` and with ``n_targets`` targets."""
    from specinv import mdn, nncore

    trunk = nncore.init_mlp(trunk_widths, rng,
                            dropout_after=nncore.max_width_dropout_layers(trunk_widths))
    return mdn.MdnModel(trunk, mdn.init_mdn_head(trunk_widths[-1], n_components, n_targets, rng))


def nll_of(mix, y):
    """The library's stabilized loss of one target vector under one mixture: criterion 2's
    wrapper around the very functions that ``mdn.batch_nll`` and training evaluate."""
    from specinv import mdn

    y = np.asarray(y, dtype=np.float64)
    with np.errstate(divide="ignore"):  # pi underflowing to 0 gives log 0 = -inf
        log_pi = np.log(mix.pi)
    log_phi = mdn._log_component_pdfs(y[None, :], mix.mu[None, :, :], mix.sigma[None, :, :])
    losses, _ = mdn._per_sample_nll(log_pi[None, :], log_phi)
    return float(losses[0])


_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


def component_pdf(y, mu_k, sigma_k):
    """Diagonal Gaussian density of y under one component (no epsilon shifts)."""
    y = np.asarray(y, dtype=np.float64)
    mu_k = np.asarray(mu_k, dtype=np.float64)
    sigma_k = np.asarray(sigma_k, dtype=np.float64)
    if np.any(sigma_k <= 0.0):
        raise ValueError(f"standard deviations must be positive, got {sigma_k}")
    z = (y - mu_k) / sigma_k
    log_pdf = np.sum(-0.5 * z * z - np.log(sigma_k) - _HALF_LOG_2PI)
    return float(np.exp(log_pdf))


def witness_pair():
    """Two far-apart designs with near-identical spectra.

    The pair differs only in the normalized fourth parameter, placed
    symmetrically about 0.25 so the second resonance center is identical; the
    remaining coordinates stack all three resonances at that center with enough
    amplitude that clipping hides the residual amplitude difference.
    """
    from specinv.dataset import DesignParams, denormalize_designs

    u4_a, u4_b = 0.148, 0.5 - 0.148
    c2 = 550.0 + 90.0 * math.sin(2.0 * math.pi * u4_a)
    u1 = (c2 - 430.0) / 240.0
    u2 = 0.95
    u3 = ((c2 - 400.0) / 300.0 - u2) % 1.0
    u5 = 1.0
    mk = lambda u4: DesignParams(*denormalize_designs(np.array([u1, u2, u3, u4, u5])).tolist())
    return mk(u4_a), mk(u4_b)


def mean_baseline_mse(train_spectra, eval_spectra):
    """MSE of always predicting the training-set mean spectrum: the autoencoder's baseline."""
    mean = train_spectra.mean(axis=0)
    return float(np.mean((eval_spectra - mean) ** 2))


def load_metadata(path):
    """The sidecar JSON that ``save_dataset`` writes next to a dataset CSV."""
    path = Path(path)
    meta_path = path.with_suffix(path.suffix + ".meta.json")
    return json.loads(meta_path.read_text(encoding="utf-8"))


def assert_no_child_left():
    """Every child process of this one has been reaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)

"""Gaussian mixture density head and its stabilized negative log likelihood.

The network predicts, for each input, K mixing coefficients (softmax), K*N
component means, and K*N standard deviations (exp of the raw logits, so
strictly positive).  The training loss is

    -log[ (sum_k pi_k * phi_k(y; mu_k, sigma_k + 1e-5)) + 1e-5 ]

where phi_k is a diagonal Gaussian pdf.  The two 1e-5 terms keep the loss
finite for every finite input: the sigma shift bounds each component density
and the outer shift floors the mixture density, capping the loss at
-ln(1e-5) ~= 11.5129.  The inner sum is evaluated with log-sum-exp before the
outer shift is applied.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import dataset, nncore
from .nncore import MlpModel, TrainingDivergedError

DENSITY_EPS = 1e-5  # added to the mixture density inside the log
SIGMA_EPS = 1e-5  # added to every standard deviation inside the component pdfs
_LOG_DENSITY_EPS = math.log(DENSITY_EPS)
LOSS_CEILING = -_LOG_DENSITY_EPS  # 11.512925464970229

N_DESIGN_PARAMS = 5
# the trunk for each input width: 101-sample spectra and the autoencoder's 10-dim latents
TRUNK_WIDTHS = {101: [101, 150, 240, 300, 300, 150], 10: [10, 100, 200, 300, 300, 150]}

_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


@dataclass
class MixtureParams:
    """Mixture weights pi (K,), means mu (K, N), standard deviations sigma (K, N)."""

    pi: np.ndarray
    mu: np.ndarray
    sigma: np.ndarray

    @property
    def n_components(self) -> int:
        return self.pi.shape[0]

    @property
    def n_targets(self) -> int:
        return self.mu.shape[1]


@dataclass
class MdnHead:
    """Three affine output layers sharing one feature vector: pi, mu, sigma logits."""

    pi_w: np.ndarray  # (K, F)
    pi_b: np.ndarray  # (K,)
    mu_w: np.ndarray  # (K*N, F)
    mu_b: np.ndarray  # (K*N,)
    sigma_w: np.ndarray  # (K*N, F)
    sigma_b: np.ndarray  # (K*N,)

    @property
    def n_components(self) -> int:
        return self.pi_w.shape[0]

    @property
    def n_targets(self) -> int:
        return self.mu_w.shape[0] // self.pi_w.shape[0]

    @property
    def feature_width(self) -> int:
        return self.pi_w.shape[1]

    def parameters(self) -> list[np.ndarray]:
        return [self.pi_w, self.pi_b, self.mu_w, self.mu_b, self.sigma_w, self.sigma_b]


@dataclass
class MdnModel:
    """Hidden-layer trunk plus mixture head; the trained inverse model."""

    trunk: MlpModel
    head: MdnHead

    @property
    def n_components(self) -> int:
        return self.head.n_components

    @property
    def input_width(self) -> int:
        return self.trunk.input_width

    def parameters(self) -> list[np.ndarray]:
        return self.trunk.parameters() + self.head.parameters()


def init_mdn_head(
    feature_width: int, n_components: int, n_targets: int, rng: np.random.Generator
) -> MdnHead:
    pi_w, pi_b = nncore.glorot(feature_width, n_components, rng)
    mu_w, mu_b = nncore.glorot(feature_width, n_components * n_targets, rng)
    sigma_w, sigma_b = nncore.glorot(feature_width, n_components * n_targets, rng)
    return MdnHead(pi_w, pi_b, mu_w, mu_b, sigma_w, sigma_b)


def build_mdn(input_width: int, n_components: int, rng: np.random.Generator) -> MdnModel:
    """Fresh model with the standard trunk for 101-sample spectra or 10-dim latents."""
    if input_width not in TRUNK_WIDTHS:
        raise ValueError(f"no trunk for input width {input_width}; "
                         f"widths {sorted(TRUNK_WIDTHS)} have one")
    widths = TRUNK_WIDTHS[input_width]
    trunk = nncore.init_mlp(widths, rng, dropout_after=nncore.max_width_dropout_layers(widths))
    return MdnModel(trunk, init_mdn_head(widths[-1], n_components, N_DESIGN_PARAMS, rng))


# --- forward ------------------------------------------------------------------


def _component_affine(features: np.ndarray, w: np.ndarray, b: np.ndarray, k: int, n: int):
    # One fixed-shape matmul per component: the results for a component do not
    # depend on how many other components exist, so warm-started models
    # reproduce their parent's outputs bit-exactly (BLAS blocking would not).
    out = np.empty((features.shape[0], k, n))
    for i in range(k):
        rows = slice(i * n, (i + 1) * n)
        out[:, i, :] = features @ w[rows].T + b[rows]
    return out


def _head_raw(head: MdnHead, features: np.ndarray):
    """Batched raw head outputs: pi logits (B,K), mu (B,K,N), sigma logits (B,K,N)."""
    k, n = head.n_components, head.n_targets
    pi_logits = features @ head.pi_w.T + head.pi_b
    mu = _component_affine(features, head.mu_w, head.mu_b, k, n)
    sigma_logits = _component_affine(features, head.sigma_w, head.sigma_b, k, n)
    return pi_logits, mu, sigma_logits


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def _logsumexp_rows(w: np.ndarray) -> np.ndarray:
    """Row-wise log-sum-exp tolerating rows that are entirely -inf.

    Such a row is shifted by 0, not by its -inf maximum, so it sums to 0 and
    its log is -inf.  NaNs must propagate so diverged training is detected,
    not masked.
    """
    m = w.max(axis=1)
    m = np.where(np.isneginf(m), 0.0, m)
    with np.errstate(divide="ignore"):
        return m + np.log(np.exp(w - m[:, None]).sum(axis=1))


def mixture_for(model: MdnModel, x: np.ndarray) -> MixtureParams:
    """Eval-mode mixture prediction for a single input vector."""
    features, _ = nncore.forward(model.trunk, np.asarray(x, dtype=np.float64))
    # one row: the features of a batch input fail the head's matmuls
    pi_logits, mu, sigma_logits = _head_raw(model.head, features.reshape(1, -1))
    # direct softmax keeps the all-zero-logits case exactly uniform
    e = np.exp(pi_logits[0] - np.max(pi_logits[0]))
    return MixtureParams(pi=e / e.sum(), mu=mu[0], sigma=np.exp(sigma_logits[0]))


# --- loss ---------------------------------------------------------------------


def _log_component_pdfs(y: np.ndarray, mu: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """log phi_k(y; mu_k, sigma_k + SIGMA_EPS) for a batch: (B, K)."""
    s = sigma + SIGMA_EPS
    z = (y[:, None, :] - mu) / s
    return (-0.5 * z * z - np.log(s) - _HALF_LOG_2PI).sum(axis=-1)


def _per_sample_nll(log_pi: np.ndarray, log_phi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-sample losses and the mixture log density, both (B,)."""
    log_mix = _logsumexp_rows(log_pi + log_phi)
    with np.errstate(invalid="ignore"):  # NaN here is reported as divergence by callers
        losses = -np.logaddexp(log_mix, _LOG_DENSITY_EPS)
    return losses, log_mix


def _batch_losses(model: MdnModel, x: np.ndarray, y: np.ndarray, train: bool = False,
                  dropout_rate: float = 0.0, rng: np.random.Generator | None = None):
    """Per-sample losses, then the intermediates the gradient reuses."""
    features, tape = nncore.forward(model.trunk, x, train=train, dropout_rate=dropout_rate, rng=rng)
    pi_logits, mu, sigma_logits = _head_raw(model.head, features)
    log_pi = _log_softmax(pi_logits)
    with np.errstate(over="ignore"):  # saturated sigma logits become inf, then -inf log_phi
        sigma = np.exp(sigma_logits)
    log_phi = _log_component_pdfs(y, mu, sigma)
    losses, log_mix = _per_sample_nll(log_pi, log_phi)
    if np.isnan(losses).any():
        idx = int(np.flatnonzero(np.isnan(losses))[0])
        raise TrainingDivergedError(f"NaN loss at batch sample {idx}")
    return losses, (features, tape, log_pi, mu, sigma, log_phi, log_mix)


def batch_nll(model: MdnModel, x: np.ndarray, y: np.ndarray) -> float:
    """Eval-mode mean loss over a batch."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape[0] == 0:
        raise ValueError("empty batch")
    losses, _ = _batch_losses(model, x, y)
    return float(np.mean(losses))


def batch_nll_and_grads(
    model: MdnModel,
    x: np.ndarray,
    y: np.ndarray,
    dropout_rate: float = 0.0,
    rng: np.random.Generator | None = None,
) -> tuple[float, list[np.ndarray]]:
    """Mean loss over input rows ``x`` and their target rows ``y`` (float64, at least one
    row) plus gradients ordered like ``model.parameters()``.

    The gradient flows through the log-sum-exp mixture density, the exp/softmax
    output transforms, and the trunk (with dropout masks, drawn from ``rng`` when
    ``dropout_rate`` is positive, replayed from the forward tape).
    """
    # an eval pass keeps no tape, so even a gradient without dropout takes a train pass
    losses, (features, tape, log_pi, mu, sigma, log_phi, log_mix) = _batch_losses(
        model, x, y, train=True, dropout_rate=dropout_rate, rng=rng
    )
    b, k, n = len(x), model.head.n_components, model.head.n_targets

    # rho = d/dS of the density S through the outer shift: S / (S + eps),
    # written as a sigmoid of log S - log eps for stability.
    rho = nncore.sigmoid(log_mix - _LOG_DENSITY_EPS)
    w = log_pi + log_phi
    finite = np.isfinite(log_mix)
    resp = np.zeros_like(w)
    if finite.any():
        resp[finite] = np.exp(w[finite] - log_mix[finite, None])

    pi = np.exp(log_pi)
    scale = rho / b
    g_pi_logits = scale[:, None] * (pi - resp)  # (B, K)

    s_shift = sigma + SIGMA_EPS
    diff = y[:, None, :] - mu
    coeff = (-scale[:, None] * resp)[:, :, None]  # (B, K, 1)
    with np.errstate(invalid="ignore", over="ignore"):
        g_mu = coeff * diff / (s_shift * s_shift)
        g_sigma_logits = coeff * (diff * diff / s_shift**3 - 1.0 / s_shift) * sigma
    # a saturated logit's sigma is inf, its responsibility 0 and its gradient 0, not 0 * inf
    g_sigma_logits[np.isinf(sigma)] = 0.0

    head = model.head
    g_mu_flat = g_mu.reshape(b, k * n)
    g_sig_flat = g_sigma_logits.reshape(b, k * n)
    head_grads = [
        g_pi_logits.T @ features,
        g_pi_logits.sum(axis=0),
        g_mu_flat.T @ features,
        g_mu_flat.sum(axis=0),
        g_sig_flat.T @ features,
        g_sig_flat.sum(axis=0),
    ]
    g_features = g_pi_logits @ head.pi_w + g_mu_flat @ head.mu_w + g_sig_flat @ head.sigma_w
    trunk_grads, _ = nncore.backward(model.trunk, tape, g_features, input_gradient=False)
    return float(np.mean(losses)), trunk_grads + head_grads


# --- prediction utilities -------------------------------------------------------


def predict_modes(mix: MixtureParams, top_m: int) -> list[tuple[float, np.ndarray]]:
    """Top components as (pi, mu) pairs, sorted by pi descending, index breaking ties."""
    if top_m > mix.n_components:
        raise ValueError(f"top_m={top_m} exceeds K={mix.n_components}")
    if top_m < 1:
        raise ValueError("top_m must be positive")
    order = np.argsort(-mix.pi, kind="stable")[:top_m]
    return [(float(mix.pi[i]), mix.mu[i].copy()) for i in order]


@dataclass
class Candidates:
    """The top-N component means as designs, ranked by pi, each re-simulated."""

    pi: np.ndarray  # (N,)
    designs: np.ndarray  # (N, 5) physical nm, means clipped into the intervals
    resimulated: np.ndarray  # (N, 101) surrogate spectra of the designs
    rmse: np.ndarray  # (N,) of each re-simulation against the query spectrum
    faults: np.ndarray  # (N,) why a design breaks the design rule, '' if it holds


def rank_candidates(mix: MixtureParams, spectrum: np.ndarray, top: int) -> Candidates:
    """The inverse step: the ``top`` heaviest means of ``mix`` clipped into [0, 1],
    denormalized, re-simulated and scored against the query ``spectrum``."""
    modes = predict_modes(mix, top)
    designs = dataset.denormalize_designs(np.clip(np.array([mu for _, mu in modes]), 0.0, 1.0))
    resimulated = dataset.surrogate_spectra(designs)
    rmse = np.array([np.sqrt(np.mean((s - spectrum) ** 2)) for s in resimulated])
    return Candidates(np.array([pi for pi, _ in modes]), designs, resimulated, rmse,
                      dataset.design_faults(designs))


def weighted_marginal_pdf(mix: MixtureParams, param_index: int, grid: np.ndarray) -> np.ndarray:
    """Mixture-weighted 1-D marginal density of one target on a grid of points."""
    if not 0 <= param_index < mix.n_targets:
        raise ValueError(f"param_index {param_index} out of range [0, {mix.n_targets})")
    t = np.asarray(grid, dtype=np.float64)[:, None]
    mu = mix.mu[None, :, param_index]
    sigma = mix.sigma[None, :, param_index]
    with np.errstate(over="ignore"):  # z of inf, far out in a narrow component, gives 0
        z = (t - mu) / sigma
        comps = np.exp(-0.5 * z * z) / (math.sqrt(2.0 * math.pi) * sigma)
    return comps @ mix.pi


def marginal_grid(mix: MixtureParams, param_index: int) -> np.ndarray:
    """Grid spanning mu +/- 8 sigma over all components, fine enough to integrate."""
    mu = mix.mu[:, param_index]
    sigma = mix.sigma[:, param_index]
    lo = float(np.min(mu - 8.0 * sigma))
    hi = float(np.max(mu + 8.0 * sigma))
    step = float(np.min(sigma)) / 8.0
    # compare first: (hi - lo) / step overflows, or divides by 0, when sigmas span float64
    cells = 8191 if hi - lo >= 8191 * step else math.ceil((hi - lo) / step)
    return np.linspace(lo, hi, min(8192, max(1001, cells + 1)))


# --- checkpoint io ---------------------------------------------------------------


def mdn_to_dict(model: MdnModel) -> dict:
    head = model.head
    return {
        "format_version": nncore.CHECKPOINT_FORMAT_VERSION,
        "kind": "mdn",
        "n_components": head.n_components,
        "n_targets": head.n_targets,
        "trunk": nncore.mlp_to_dict(model.trunk),
        "head": dict(vars(head)),  # MdnHead's fields, in their declared order
    }


def mdn_from_dict(data: dict) -> MdnModel:
    nncore.check_header(data, "mdn", ("n_components", "n_targets", "trunk", "head"))
    trunk = nncore.mlp_from_dict(data["trunk"], "trunk")
    k = nncore.checkpoint_count(data["n_components"], "n_components")
    n = nncore.checkpoint_count(data["n_targets"], "n_targets")
    if n != N_DESIGN_PARAMS:
        raise nncore.CheckpointFormatError(
            f"a mixture over {n} targets, not the {N_DESIGN_PARAMS} design parameters")
    f = trunk.output_width
    shapes = {
        "pi_w": (k, f), "pi_b": (k,),
        "mu_w": (k * n, f), "mu_b": (k * n,),
        "sigma_w": (k * n, f), "sigma_b": (k * n,),
    }
    nncore.require_keys(data["head"], shapes, "head")
    return MdnModel(trunk=trunk, head=MdnHead(**{
        key: nncore.checkpoint_array(data["head"][key], shape, f"head.{key}")
        for key, shape in shapes.items()
    }))


def save_mdn(path, model: MdnModel) -> None:
    nncore.save_checkpoint(path, mdn_to_dict(model))


def load_mdn(path) -> MdnModel:
    return nncore.load_model(path, mdn_from_dict)

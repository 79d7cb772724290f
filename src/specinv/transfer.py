"""Growing a trained mixture model from K-1 to K components, and the K-sweep driver.

Growth keeps the hidden layers bit-exact, zeroes the mixing-coefficient head
(softmax of zeros gives every component weight 1/K, so old and new components
start with equal opportunity), and copies the mean/deviation head rows of the
surviving components.  The new component clones the rows of either a randomly
chosen donor component ("tl1", exploration) or component 1 ("tl2",
deterministic).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import mdn
from .mdn import MdnHead, MdnModel
from .nncore import TrainingDivergedError
from .train import (
    ROLE_DONOR,
    ROLE_WARM_JITTER,
    SupervisedArrays,
    TrainConfig,
    TrainResult,
    child_rng,
    model_streams,
    train_mdn,
)

STRATEGY_NONE = "none"
STRATEGY_TL1 = "tl1"
STRATEGY_TL2 = "tl2"
STRATEGIES = (STRATEGY_NONE, STRATEGY_TL1, STRATEGY_TL2)


def choose_donor(strategy: str, seed: int, k: int) -> int:
    """Index of the component that ``grow`` clones into component k: tl2 takes
    component 1, tl1 draws one from the run seed's donor stream for this K."""
    if strategy == STRATEGY_TL2:
        return 0
    donor_seed = int(child_rng(seed, k, ROLE_DONOR).integers(np.iinfo(np.int64).max))
    return int(child_rng(donor_seed).integers(k - 1))


def grow(model_prev: MdnModel, donor: int) -> MdnModel:
    """Untrained K-component model initialized from a trained (K-1)-component one."""
    head_prev = model_prev.head
    k_prev, n = head_prev.n_components, head_prev.n_targets
    if not 0 <= donor < k_prev:
        raise ValueError(f"donor {donor} out of range [0, {k_prev})")
    rows = slice(donor * n, (donor + 1) * n)  # the donor's rows of mu_w, mu_b, sigma_w, sigma_b
    head = MdnHead(np.zeros((k_prev + 1, head_prev.feature_width)), np.zeros(k_prev + 1),
                   *(np.concatenate([a, a[rows]]) for a in head_prev.parameters()[2:]))
    return MdnModel(trunk=copy.deepcopy(model_prev.trunk), head=head)


def perturb_new_component(model: MdnModel, rng: np.random.Generator, scale: float) -> None:
    """Seeded noise on the newest component's mean/deviation head rows.

    A grown model's clone is bit-identical to its donor, so every gradient,
    moment, and update it receives is bit-identical too: the pair can never
    split into distinct solutions.  Real trainings escape through rounding
    noise; here the escape is explicit, tiny, and reproducible.  Called by the
    sweep driver after growth, never by ``grow`` itself, so initialization
    exactness is preserved.
    """
    if scale <= 0.0:
        return
    head = model.head
    rows = slice((head.n_components - 1) * head.n_targets, None)
    for arr in (head.mu_w, head.sigma_w, head.mu_b, head.sigma_b):
        arr[rows] += scale * rng.standard_normal(arr[rows].shape)


@dataclass
class SweepEntry(TrainResult):
    """One K of a sweep: its fit (``best_val_loss`` is the val NLL) and its train/test NLL."""

    k: int
    train_nll: float
    test_nll: float


def sweep(
    data: SupervisedArrays,
    k_max: int,
    strategy: str,
    config: TrainConfig,
    on_trained: Callable[[SweepEntry], None] | None = None,
) -> list[SweepEntry]:
    """Train models for K = 1..k_max, warm-starting each K from K-1 under tl1/tl2.

    Returns one entry per K, in K order.  K=1 always trains from scratch.  The
    fresh-init baseline re-seeds per K (base seed + K) so its runs are
    independent; transfer runs are sequential by construction.  ``on_trained``
    gets each K's entry as soon as its model is final, before the next K trains.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")
    entries: list[SweepEntry] = []
    prev_model: MdnModel | None = None
    for k in range(1, k_max + 1):
        init_rng, shuffle_rng, dropout_rng = model_streams(config.seed, k)
        if k == 1 or strategy == STRATEGY_NONE:
            model = mdn.build_mdn(data.input_width, k, init_rng)
        else:
            model = grow(prev_model, choose_donor(strategy, config.seed, k))
            perturb_new_component(
                model, child_rng(config.seed, k, ROLE_WARM_JITTER), config.warm_start_jitter
            )
        try:
            fit = train_mdn(model, data, config, shuffle_rng=shuffle_rng, dropout_rng=dropout_rng)
        except TrainingDivergedError as exc:
            raise TrainingDivergedError(f"K={k}: {exc}") from exc
        entry = SweepEntry(**vars(fit), k=k,
                           train_nll=mdn.batch_nll(model, data.train_x, data.train_y),
                           test_nll=mdn.batch_nll(model, data.test_x, data.test_y))
        entries.append(entry)
        if on_trained is not None:
            on_trained(entry)
        prev_model = model
    return entries


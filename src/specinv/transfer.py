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
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from . import mdn
from .mdn import MdnHead, MdnModel
from .nncore import TrainingDivergedError, finite_float, write_csv
from .train import (
    ROLE_DONOR,
    ROLE_WARM_JITTER,
    SupervisedArrays,
    TrainConfig,
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
    if head_prev.feature_width != model_prev.trunk.output_width:
        raise ValueError("head feature width does not match trunk output width")
    k_prev = head_prev.n_components
    if not 0 <= donor < k_prev:
        raise ValueError(f"donor {donor} out of range [0, {k_prev})")
    n = head_prev.n_targets
    f = head_prev.feature_width
    k_new = k_prev + 1

    def extend(w: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        rows = slice(donor * n, (donor + 1) * n)
        return (
            np.vstack([w, w[rows].copy()]),
            np.concatenate([b, b[rows].copy()]),
        )

    mu_w, mu_b = extend(head_prev.mu_w, head_prev.mu_b)
    sigma_w, sigma_b = extend(head_prev.sigma_w, head_prev.sigma_b)
    head = MdnHead(
        pi_w=np.zeros((k_new, f)),
        pi_b=np.zeros(k_new),
        mu_w=mu_w,
        mu_b=mu_b,
        sigma_w=sigma_w,
        sigma_b=sigma_b,
    )
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
    n = model.head.n_targets
    rows = slice((model.head.n_components - 1) * n, model.head.n_components * n)
    for arr in (model.head.mu_w, model.head.sigma_w):
        arr[rows, :] += scale * rng.standard_normal(arr[rows, :].shape)
    for arr in (model.head.mu_b, model.head.sigma_b):
        arr[rows] += scale * rng.standard_normal(arr[rows].shape)


@dataclass
class SweepEntry:
    k: int
    strategy: str
    epochs: int
    seconds: float
    train_nll: float
    val_nll: float
    test_nll: float
    model: MdnModel
    log: list[tuple[float, float]] = field(default_factory=list)


@dataclass
class SweepResult:
    entries: list[SweepEntry] = field(default_factory=list)  # K = 1, 2, ... in order


def sweep(
    data: SupervisedArrays,
    k_max: int,
    strategy: str,
    config: TrainConfig,
    trunk_widths: list[int] | None = None,
    n_targets: int = mdn.N_DESIGN_PARAMS,
    on_trained: Callable[[SweepEntry], None] | None = None,
) -> SweepResult:
    """Train models for K = 1..k_max, warm-starting each K from K-1 under tl1/tl2.

    K=1 always trains from scratch.  The fresh-init baseline re-seeds per K
    (base seed + K) so its runs are independent; transfer runs are sequential
    by construction.  ``on_trained`` gets each K's entry as soon as its model is
    final, before the next K trains.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")
    result = SweepResult()
    prev_model: MdnModel | None = None
    for k in range(1, k_max + 1):
        init_rng, shuffle_rng, dropout_rng = model_streams(config.seed, k)
        if k == 1 or strategy == STRATEGY_NONE:
            model = mdn.build_mdn(
                data.input_width, k, init_rng, n_targets=n_targets, trunk_widths=trunk_widths
            )
        else:
            model = grow(prev_model, choose_donor(strategy, config.seed, k))
            perturb_new_component(
                model, child_rng(config.seed, k, ROLE_WARM_JITTER), config.warm_start_jitter
            )
        t0 = time.perf_counter()
        try:
            fit = train_mdn(model, data, config, shuffle_rng=shuffle_rng, dropout_rng=dropout_rng)
        except TrainingDivergedError as exc:
            raise TrainingDivergedError(f"K={k}: {exc}") from exc
        seconds = time.perf_counter() - t0
        entry = SweepEntry(
            k=k,
            strategy=strategy,
            epochs=fit.epochs,
            seconds=seconds,
            train_nll=mdn.batch_nll(model, data.train_x, data.train_y),
            val_nll=fit.best_val_loss,
            test_nll=mdn.batch_nll(model, data.test_x, data.test_y),
            model=model,
            log=fit.log,
        )
        result.entries.append(entry)
        if on_trained is not None:
            on_trained(entry)
        prev_model = model
    return result


# --- CSV emission ----------------------------------------------------------------
#
# Loss/epoch results are split from wall-clock timing so the result file is
# byte-reproducible for a fixed seed; timing lives in its own sidecar CSV.


SWEEP_RESULTS_COLUMNS = {
    "K": int, "strategy": str, "epochs": int,
    "train_nll": finite_float, "val_nll": finite_float, "test_nll": finite_float,
}


def write_sweep_results(path: str | Path, result: SweepResult) -> None:
    rows = ([e.k, e.strategy, e.epochs, e.train_nll, e.val_nll, e.test_nll] for e in result.entries)
    write_csv(path, SWEEP_RESULTS_COLUMNS, rows)


def write_sweep_timing(
    path: str | Path, result: SweepResult, ae_seconds: float | None = None
) -> None:
    rows = [] if ae_seconds is None else [["ae_train", "-", ae_seconds]]
    rows += [[f"k={e.k}", e.strategy, e.seconds] for e in result.entries]
    strategy = result.entries[0].strategy if result.entries else "-"
    rows.append(["total", strategy, sum(row[2] for row in rows)])
    write_csv(path, {"stage": str, "strategy": str, "seconds": float}, rows)


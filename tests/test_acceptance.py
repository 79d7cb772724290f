"""Acceptance gate: every criterion at its stated tolerance, one line per verdict.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS/FAIL lines.
The expensive trained artifacts come from session fixtures in conftest.py.
"""

import time

import numpy as np

from specinv import dataset, mdn, transfer
from specinv.mdn import LOSS_CEILING
from util import (
    finite_difference_grads,
    max_rel_error,
    mean_baseline_mse,
    nll_of,
    random_mixture,
    scalar_mixture_nll,
    witness_pair,
)

from conftest import ACCEPT_SEED, AE_VAL_MSE_THRESHOLD


def verdict(num: int, ok: bool, description: str, detail: str = "") -> None:
    line = f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {description}"
    if detail:
        line += f" ({detail})"
    print(line, flush=True)
    assert ok, line


def floor_distance(nll: float) -> float:
    return LOSS_CEILING - nll


def test_criterion_1_gradient_correctness():
    """Full-model gradients vs central finite differences on a toy trunk."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(20):
        model = mdn.build_mdn(6, 2, rng, n_targets=2, trunk_widths=[6, 8])
        x = rng.normal(size=(2, 6))
        y = rng.normal(size=(2, 2))
        _, grads = mdn.batch_nll_and_grads(model, x, y)
        numeric = finite_difference_grads(
            lambda: mdn.batch_nll(model, x, y), model.parameters()
        )
        worst = max(worst, max_rel_error(grads, numeric))
    elapsed = time.perf_counter() - t0
    verdict(
        1,
        worst <= 1e-4 and elapsed < 10.0,
        "gradients match central finite differences",
        f"max rel err {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_loss_oracle():
    """Library loss vs a directly coded scalar evaluation, plus the hard ceiling."""
    rng = np.random.default_rng(202)
    worst = 0.0
    ceiling_ok = True
    for _ in range(1000):
        mix = random_mixture(rng)
        y = rng.normal(scale=3.0, size=mix.n_targets)
        got = nll_of(mix, y)
        want = scalar_mixture_nll(mix.pi, mix.mu, mix.sigma, y)
        worst = max(worst, abs(got - want))
        ceiling_ok &= got <= LOSS_CEILING + 1e-12
    verdict(
        2,
        worst <= 1e-10 and ceiling_ok,
        "stabilized loss matches the scalar oracle and never exceeds -ln(1e-5)",
        f"max abs diff {worst:.2e}",
    )


def test_criterion_3_growth_exactness(tl1_sweep):
    """Uniform mixing weights, bit-exact inheritance, bit-exact tl2 cloning."""
    parent = tl1_sweep.result.entries[2].model
    rng = np.random.default_rng(303)
    uniform_ok = True
    inherit_ok = True
    for kind in ("tl1", "tl2"):
        child = transfer.grow(parent, transfer.choose_donor(kind, ACCEPT_SEED, 4))
        for _ in range(100):
            x = rng.random(101)
            mix_c = mdn.mixture_for(child, x)
            mix_p = mdn.mixture_for(parent, x)
            uniform_ok &= bool(np.max(np.abs(mix_c.pi - 0.25)) <= 1e-15)
            inherit_ok &= np.array_equal(mix_c.mu[:3], mix_p.mu)
            inherit_ok &= np.array_equal(mix_c.sigma[:3], mix_p.sigma)
    tl2_child = transfer.grow(parent, transfer.choose_donor("tl2", ACCEPT_SEED, 4))
    n = parent.head.n_targets
    clone_ok = (
        np.array_equal(tl2_child.head.mu_w[3 * n :], parent.head.mu_w[:n])
        and np.array_equal(tl2_child.head.mu_b[3 * n :], parent.head.mu_b[:n])
        and np.array_equal(tl2_child.head.sigma_w[3 * n :], parent.head.sigma_w[:n])
        and np.array_equal(tl2_child.head.sigma_b[3 * n :], parent.head.sigma_b[:n])
    )
    verdict(
        3,
        uniform_ok and inherit_ok and clone_ok,
        "growth gives uniform weights, bit-exact inheritance, bit-exact tl2 clone",
        f"uniform={uniform_ok} inherit={inherit_ok} clone={clone_ok}",
    )


def test_criterion_4_transfer_speedup(none_sweep, tl1_sweep):
    """Warm starts reach the from-scratch validation quality in far fewer epochs.

    "Within 5%" is measured on the floor-distance scale (ceiling minus NLL),
    which stays well defined when the NLL goes negative.
    """
    total_none = sum(e.epochs for e in none_sweep.result.entries)
    total_tl = 0
    reached_all = True
    details = []
    for k in range(1, 6):
        target = 0.95 * floor_distance(none_sweep.result.entries[k - 1].val_nll)
        log = tl1_sweep.result.entries[k - 1].log
        reach = next(
            (i for i, (_, v) in enumerate(log, start=1) if floor_distance(v) >= target), None
        )
        if reach is None:
            reached_all = False
            reach = len(log)
        total_tl += reach
        details.append(f"K{k}:{reach}/{none_sweep.result.entries[k - 1].epochs}")
    ratio = total_tl / total_none
    tl_wall_k5 = sum(e.seconds for e in tl1_sweep.result.entries[:5])
    wall = none_sweep.wall_seconds + tl_wall_k5
    verdict(
        4,
        reached_all and ratio <= 0.70 and wall < 1800.0,
        "tl1 reaches from-scratch validation quality with >= 30% fewer epochs",
        f"epochs {' '.join(details)}, ratio {ratio:.2f}, wall {wall:.0f}s",
    )


def _inverse_quality(model, single_model, ds):
    """Criterion 5's gate and verdict detail for a K=10 model against a K=1 one.

    Both are scored by ``mdn.rank_candidates``, the inverse step ``predict``
    ships, on the first 50 test spectra: the K=10 model's best of its top 4, the
    K=1 model's one mean.  The mixture must beat the single-solution inverse in
    the mean and on more than half of the spectra.  The spectral
    nearest-training-neighbor lookup is reported as context only.
    """

    def best_rmse(m, spectrum, top):
        return mdn.rank_candidates(mdn.mixture_for(m, spectrum), spectrum, top).rmse.min()

    test_idx = ds.indices("test")[:50]
    train_spectra = ds.spectra_for("train")
    best, single, base = [], [], []
    for i in test_idx:
        spectrum = ds.spectra[i]
        best.append(best_rmse(model, spectrum, 4))
        single.append(best_rmse(single_model, spectrum, 1))
        base.append(
            float(np.sqrt(np.mean((train_spectra - spectrum) ** 2, axis=1)).min())
        )
    best = np.array(best)
    single = np.array(single)
    base = np.array(base)
    lower = float(np.mean(best < single))
    ok = best.mean() < single.mean() and lower > 0.5
    detail = (
        f"mean {best.mean():.4f} vs K=1 {single.mean():.4f}, lower on {lower:.0%}; "
        f"neighbor {base.mean():.4f}, ratio {best.mean() / base.mean():.2f}, "
        f"wins {np.mean(best < base):.0%}"
    )
    return ok, detail


def test_criterion_5_inverse_quality(desk_dataset, tl1_sweep):
    """Best-of-top-4 re-simulation of the K=10 mixture beats the K=1 inverse."""
    ok, detail = _inverse_quality(
        tl1_sweep.result.entries[9].model, tl1_sweep.result.entries[0].model, desk_dataset
    )
    verdict(
        5,
        ok,
        "K=10 tl1 best-of-top-4 re-simulates better than the K=1 single solution",
        detail,
    )


def test_criterion_5_fails_on_locked_clones(desk_dataset):
    """Ten bit-exact tl2 clones of an untrained K=1 model must fail criterion 5.

    Without jitter every grown component equals component 1, so the top-4
    means are the K=1 mean and the mixture cannot beat the single solution.
    """
    single = mdn.build_mdn(101, 1, np.random.default_rng(505))
    model = single
    for _ in range(9):
        model = transfer.grow(model, 0)
    spectrum = desk_dataset.spectra[desk_dataset.indices("test")[0]]
    assert np.array_equal(
        mdn.mixture_for(model, spectrum).mu,
        np.repeat(mdn.mixture_for(single, spectrum).mu, 10, axis=0),
    )
    ok, detail = _inverse_quality(model, single, desk_dataset)
    assert not ok, detail


def test_criterion_6_multi_valued_recovery(tl1_sweep):
    """A trained K>=4 model hedges across both branches of the sin symmetry."""
    witness_a, _ = witness_pair()
    spectrum = dataset.surrogate_spectra(witness_a.to_array()[None])[0]
    found = None
    for k in range(4, 11):
        mix = mdn.mixture_for(tl1_sweep.result.entries[k - 1].model, spectrum)
        u4 = mix.mu[mix.pi >= 0.05, 3]
        if (u4 < 0.25).any() and (u4 > 0.25).any():
            found = k
            break
    verdict(
        6,
        found is not None,
        "significant components sit on both sides of the symmetric branch point",
        f"first bimodal K = {found}",
    )


def test_criterion_7_autoencoder(desk_dataset, trained_ae, tl1_sweep, ae_sweep):
    """The latent pipeline stays functional: bounded degradation per K."""
    fit = trained_ae.fit
    baseline = mean_baseline_mse(
        desk_dataset.spectra_for("train"), desk_dataset.spectra_for("val")
    )
    recon_ok = fit.best_val_loss < baseline and fit.best_val_loss <= AE_VAL_MSE_THRESHOLD
    degradation_ok = True
    details = []
    for k in range(1, 6):
        fd_ae = floor_distance(ae_sweep.result.entries[k - 1].test_nll)
        fd_plain = floor_distance(tl1_sweep.result.entries[k - 1].test_nll)
        degradation_ok &= fd_ae >= 0.75 * fd_plain
        details.append(f"K{k}:{fd_ae / fd_plain:.2f}")
    verdict(
        7,
        recon_ok and degradation_ok,
        "autoencoder beats the mean baseline; latent sweep within 25% per K",
        f"val MSE {fit.best_val_loss:.2e} vs baseline {baseline:.2e}; fd ratios {' '.join(details)}",
    )


def test_criterion_8_marginal_normalization():
    """Weighted marginals are proper densities (trapezoid over mu +/- 8 sigma)."""
    rng = np.random.default_rng(808)
    worst = 0.0
    for _ in range(100):
        mix = random_mixture(rng)
        for c in range(mix.n_targets):
            grid = mdn.marginal_grid(mix, c)
            dens = mdn.weighted_marginal_pdf(mix, c, grid)
            worst = max(worst, abs(float(np.trapezoid(dens, grid)) - 1.0))
    verdict(8, worst <= 1e-3, "marginal densities integrate to 1", f"worst |err| {worst:.1e}")


def test_criterion_9_reproducibility(tmp_path, monkeypatch):
    """Identical seeds make cmd_sweep byte-identical, checkpoints included.

    Each run gets its own working directory with the same relative output
    path, so even config.txt must match byte for byte.
    """
    from specinv.cli import main

    data_path = tmp_path / "repro.csv"
    assert main(["gen-data", "--samples", "120", "--seed", "5", "--out", str(data_path)]) == 0
    outputs = []
    for name in ("side_a", "side_b"):
        cwd = tmp_path / name
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        code = main(
            [
                "sweep", "--dataset", str(data_path), "--k-max", "2",
                "--strategy", "tl1", "--out", "run", "--seed", str(ACCEPT_SEED),
                "--max-epochs", "20", "--batch-size", "32",
            ]
        )
        assert code == 0
        outputs.append(cwd / "run")
    a, b = outputs
    compared = []
    identical = True
    for name in ("sweep_results.csv", "log_k01.csv", "log_k02.csv",
                 "mdn_k01.json", "mdn_k02.json", "config.txt"):
        same = (a / name).read_bytes() == (b / name).read_bytes()
        identical &= same
        compared.append(f"{name}:{'=' if same else '!'}")
    verdict(9, identical, "paired sweeps are byte-identical", " ".join(compared))

"""Warm-start growth from K-1 to K components and the sweep driver."""

import math

import numpy as np
import pytest

from specinv import mdn, nncore, transfer
from specinv.mdn import build_mdn, mixture_for
from specinv.nncore import TrainingDivergedError
from specinv.train import SupervisedArrays, TrainConfig, train_mdn
from specinv.transfer import choose_donor, grow, sweep
from util import component_pdf, nll_of


def toy_model(k, seed=0):
    rng = np.random.default_rng(seed)
    return build_mdn(6, k, rng, n_targets=2, trunk_widths=[6, 8])


def toy_arrays(seed=0, n=64):
    rng = np.random.default_rng(seed)

    def block(m):
        x = rng.random((m, 6))
        y = rng.random((m, 2))
        return x, y

    tx, ty = block(n)
    vx, vy = block(12)
    sx, sy = block(12)
    return SupervisedArrays(tx, ty, vx, vy, sx, sy)


class TestGrow:
    def test_donor_out_of_range_rejected(self):
        for donor in (-1, 3):
            with pytest.raises(ValueError, match="donor"):
                grow(toy_model(3), donor)

    def test_pi_uniform_after_growth(self):
        model = toy_model(3, seed=1)
        rng = np.random.default_rng(2)
        for donor in range(3):
            child = grow(model, donor)
            for _ in range(100):
                mix = mixture_for(child, rng.random(6))
                assert np.max(np.abs(mix.pi - 0.25)) <= 1e-15

    def test_k1_to_k2_copies_the_only_donor(self):
        model = toy_model(1, seed=3)
        for kind in ("tl1", "tl2"):
            assert choose_donor(kind, 11, 2) == 0
            child = grow(model, choose_donor(kind, 11, 2))
            np.testing.assert_array_equal(child.head.mu_w[:2], model.head.mu_w)
            np.testing.assert_array_equal(child.head.mu_w[2:], model.head.mu_w)
            np.testing.assert_array_equal(child.head.sigma_w[:2], model.head.sigma_w)
            np.testing.assert_array_equal(child.head.sigma_w[2:], model.head.sigma_w)
            np.testing.assert_array_equal(child.head.mu_b[2:], model.head.mu_b)
            mix = mixture_for(child, np.random.default_rng(0).random(6))
            np.testing.assert_array_equal(mix.pi, [0.5, 0.5])

    def test_k1_to_k2_strategies_agree(self):
        model = toy_model(1, seed=4)
        a = grow(model, choose_donor("tl1", 123, 2))
        b = grow(model, choose_donor("tl2", 123, 2))
        for pa, pb in zip(a.parameters(), b.parameters()):
            np.testing.assert_array_equal(pa, pb)

    def test_tl2_clones_first_component(self):
        model = toy_model(3, seed=5)
        assert choose_donor("tl2", 5, 4) == 0
        child = grow(model, choose_donor("tl2", 5, 4))
        n = 2
        np.testing.assert_array_equal(child.head.mu_w[3 * n :], model.head.mu_w[:n])
        np.testing.assert_array_equal(child.head.mu_b[3 * n :], model.head.mu_b[:n])
        np.testing.assert_array_equal(child.head.sigma_w[3 * n :], model.head.sigma_w[:n])
        np.testing.assert_array_equal(child.head.sigma_b[3 * n :], model.head.sigma_b[:n])

    def test_tl1_deterministic_per_seed(self):
        model = toy_model(4, seed=6)
        assert choose_donor("tl1", 77, 5) == choose_donor("tl1", 77, 5)
        a = grow(model, choose_donor("tl1", 77, 5))
        b = grow(model, choose_donor("tl1", 77, 5))
        for pa, pb in zip(a.parameters(), b.parameters()):
            np.testing.assert_array_equal(pa, pb)

    def test_tl1_explores_different_donors(self):
        model = toy_model(4, seed=6)
        donors = set()
        for seed in range(24):
            child = grow(model, choose_donor("tl1", seed, 5))
            new_rows = child.head.mu_w[8:]
            for j in range(4):
                if np.array_equal(new_rows, model.head.mu_w[2 * j : 2 * j + 2]):
                    donors.add(j)
        assert len(donors) >= 2

    def test_trunk_copied_not_shared(self):
        model = toy_model(2, seed=7)
        child = grow(model, 0)
        child.trunk.weights[0][0, 0] += 1.0
        assert model.trunk.weights[0][0, 0] != child.trunk.weights[0][0, 0]

    def test_hidden_layers_bit_exact(self):
        model = toy_model(2, seed=8)
        child = grow(model, 1)
        for wa, wb in zip(model.trunk.parameters(), child.trunk.parameters()):
            np.testing.assert_array_equal(wa, wb)

    def test_inheritance_of_component_outputs(self):
        """First K-1 components produce bit-identical mixture parameters."""
        model = toy_model(3, seed=9)
        child = grow(model, choose_donor("tl1", 3, 4))
        rng = np.random.default_rng(10)
        for _ in range(100):
            x = rng.random(6)
            mp, mc = mixture_for(model, x), mixture_for(child, x)
            np.testing.assert_array_equal(mc.mu[:3], mp.mu)
            np.testing.assert_array_equal(mc.sigma[:3], mp.sigma)


class TestGrownDensity:
    def test_density_is_uniform_mean_of_duplicated_components(self):
        """Grown mixture density = (1/K) * sum of old component densities
        with the donor's density counted twice."""
        model = toy_model(3, seed=11)
        child = grow(model, 0)
        rng = np.random.default_rng(12)
        for _ in range(50):
            x = rng.random(6)
            y = rng.random(2)
            mp = mixture_for(model, x)
            phis = [
                component_pdf(y, mp.mu[j], mp.sigma[j] + mdn.SIGMA_EPS) for j in range(3)
            ]
            duplicated = phis + [phis[0]]  # tl2 donor is component 1
            want = sum(duplicated) / 4.0
            mc = mixture_for(child, x)
            got = sum(
                mc.pi[j] * component_pdf(y, mc.mu[j], mc.sigma[j] + mdn.SIGMA_EPS)
                for j in range(4)
            )
            assert got == pytest.approx(want, rel=1e-12)

    def test_k2_growth_preserves_loss_exactly(self):
        """K=1 -> 2: the duplicated component keeps the mixture density identical."""
        model = toy_model(1, seed=13)
        child = grow(model, 0)
        rng = np.random.default_rng(14)
        for _ in range(50):
            x = rng.random(6)
            y = rng.random(2)
            lp = nll_of(mixture_for(model, x), y)
            lc = nll_of(mixture_for(child, x), y)
            assert lc == pytest.approx(lp, abs=1e-12)

    def test_uniform_parent_growth_loss_bound(self):
        """From a uniform-weight parent, growth changes the loss by at most log(K/(K-1))."""
        model = toy_model(2, seed=15)
        model.head.pi_w[:] = 0.0
        model.head.pi_b[:] = 0.0
        child = grow(model, choose_donor("tl1", 4, 3))
        bound = math.log(3.0 / 2.0) + 1e-9
        rng = np.random.default_rng(16)
        for _ in range(100):
            x = rng.random(6)
            y = rng.random(2)
            lp = nll_of(mixture_for(model, x), y)
            lc = nll_of(mixture_for(child, x), y)
            assert abs(lc - lp) <= bound


class TestSweep:
    def _cfg(self, **kw):
        defaults = dict(batch_size=16, max_epochs=8, patience=50, seed=21)
        defaults.update(kw)
        return TrainConfig(**defaults)

    def test_k_max_one_identical_across_strategies(self):
        arrays = toy_arrays(seed=1)
        results = {}
        for kind in ("none", "tl1", "tl2"):
            res = sweep(arrays, 1, kind, self._cfg(),
                        trunk_widths=[6, 8], n_targets=2)
            results[kind] = res.entries[0]
        for kind in ("tl1", "tl2"):
            assert results[kind].val_nll == results["none"].val_nll
            assert results[kind].epochs == results["none"].epochs
            for pa, pb in zip(results[kind].model.parameters(), results["none"].model.parameters()):
                np.testing.assert_array_equal(pa, pb)

    def test_entries_strictly_increasing_k(self):
        arrays = toy_arrays(seed=2)
        res = sweep(arrays, 3, "tl1", self._cfg(),
                    trunk_widths=[6, 8], n_targets=2)
        assert [e.k for e in res.entries] == [1, 2, 3]
        for e in res.entries:
            assert e.epochs == len(e.log)
            assert e.epochs <= 8
            assert e.model.n_components == e.k

    def test_transfer_uses_previous_model(self):
        """Under tl the K=2 trunk starts from the trained K=1 trunk, so after a
        0-epoch-free warm start the K=2 initial val loss is close to K=1's final."""
        arrays = toy_arrays(seed=3)
        res = sweep(arrays, 2, "tl2", self._cfg(max_epochs=12),
                    trunk_widths=[6, 8], n_targets=2)
        k1_final_val = res.entries[0].log[-1][1]
        k2_first_val = res.entries[1].log[0][1]
        assert abs(k2_first_val - k1_final_val) < 1.0

    def test_invalid_k_max(self):
        with pytest.raises(ValueError, match="k_max"):
            sweep(toy_arrays(), 0, "none", self._cfg())

    def test_divergence_reports_offending_k(self):
        arrays = toy_arrays(seed=6)
        arrays.train_x[0, 0] = np.nan
        with pytest.raises(TrainingDivergedError, match="K=1"):
            sweep(arrays, 2, "tl1", self._cfg(),
                  trunk_widths=[6, 8], n_targets=2)

    def test_collapse_to_the_loss_ceiling_is_a_divergence(self):
        """sigma = exp(800) is inf for every component: every density is 0, every
        gradient 0, and the run can never leave the ceiling."""
        model = toy_model(2, seed=4)
        model.head.sigma_b[:] = 800.0
        cfg = self._cfg()
        with pytest.raises(TrainingDivergedError, match="ceiling"):
            train_mdn(model, toy_arrays(seed=4), cfg, np.random.default_rng(cfg.seed),
                      np.random.default_rng(cfg.seed + 1))

    def test_val_nll_is_the_restored_models_val_loss(self):
        """SweepEntry.val_nll is the loop's best_val_loss, bit for bit the restored model's."""
        arrays = toy_arrays(seed=7)
        for kind in ("none", "tl1"):
            res = sweep(arrays, 3, kind, self._cfg(max_epochs=10, patience=3),
                        trunk_widths=[6, 8], n_targets=2)
            for e in res.entries:
                assert e.val_nll == mdn.batch_nll(e.model, arrays.val_x, arrays.val_y)

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError, match="strategy"):
            sweep(toy_arrays(), 1, "tl3", self._cfg())


class TestSweepCsv:
    def test_results_csv_round_trip(self, tmp_path):
        arrays = toy_arrays(seed=4)
        res = sweep(arrays, 2, "tl1",
                    TrainConfig(batch_size=16, max_epochs=5, seed=3),
                    trunk_widths=[6, 8], n_targets=2)
        path = tmp_path / "sweep_results.csv"
        transfer.write_sweep_results(path, res)
        rows = nncore.read_csv(path, transfer.SWEEP_RESULTS_COLUMNS)
        assert [r["K"] for r in rows] == [1, 2]
        for row, entry in zip(rows, res.entries):
            assert row["epochs"] == entry.epochs
            assert row["val_nll"] == entry.val_nll
        header = path.read_text().splitlines()[0]
        assert "seconds" not in header  # timing lives in its own file

    def test_timing_csv(self, tmp_path):
        arrays = toy_arrays(seed=5)
        res = sweep(arrays, 2, "none",
                    TrainConfig(batch_size=16, max_epochs=4, seed=3),
                    trunk_widths=[6, 8], n_targets=2)
        path = tmp_path / "sweep_timing.csv"
        transfer.write_sweep_timing(path, res, ae_seconds=1.5)
        lines = path.read_text().splitlines()
        assert lines[0] == "stage,strategy,seconds"
        stages = [line.split(",")[0] for line in lines[1:]]
        assert stages == ["ae_train", "k=1", "k=2", "total"]

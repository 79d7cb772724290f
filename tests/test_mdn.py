"""Mixture head, stabilized loss, and prediction utilities."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from specinv import dataset, mdn, nncore
from specinv.mdn import (
    LOSS_CEILING,
    MdnHead,
    MixtureParams,
    batch_nll,
    batch_nll_and_grads,
    build_mdn,
    init_mdn_head,
    mixture_for,
    predict_modes,
    weighted_marginal_pdf,
)
from util import (
    component_pdf,
    finite_difference_grads,
    max_rel_error,
    nll_of,
    random_mixture,
    scalar_mixture_nll,
    small_mdn,
    witness_pair,
)


def zero_head(k, n, f):
    return MdnHead(
        pi_w=np.zeros((k, f)),
        pi_b=np.zeros(k),
        mu_w=np.zeros((k * n, f)),
        mu_b=np.zeros(k * n),
        sigma_w=np.zeros((k * n, f)),
        sigma_b=np.zeros(k * n),
    )


def small_model(head, rng):
    """A one-layer trunk as wide as the head's features, in front of ``head``."""
    f = head.feature_width
    return mdn.MdnModel(trunk=nncore.init_mlp([f, f], rng), head=head)


class TestHeadForward:
    """The head's transforms, seen through ``mixture_for`` on a small trunk."""

    def test_zero_pi_head_is_uniform(self):
        rng = np.random.default_rng(0)
        mix = mixture_for(small_model(zero_head(k=4, n=5, f=8), rng), rng.normal(size=8))
        np.testing.assert_array_equal(mix.pi, np.full(4, 0.25))

    def test_zero_sigma_head_gives_unit_sigma(self):
        rng = np.random.default_rng(1)
        mix = mixture_for(small_model(zero_head(k=3, n=5, f=8), rng), rng.normal(size=8))
        np.testing.assert_array_equal(mix.sigma, np.ones((3, 5)))

    def test_softmax_oracle(self):
        """pi logits [ln 3, 0] must produce weights [0.75, 0.25]."""
        head = zero_head(k=2, n=5, f=4)
        head.pi_b[:] = [math.log(3.0), 0.0]
        mix = mixture_for(small_model(head, np.random.default_rng(2)), np.zeros(4))
        np.testing.assert_allclose(mix.pi, [0.75, 0.25], rtol=0, atol=1e-12)

    def test_sigma_strictly_positive(self):
        rng = np.random.default_rng(2)
        model = small_model(init_mdn_head(16, 5, 5, rng), rng)
        for _ in range(50):
            mix = mixture_for(model, rng.normal(scale=3.0, size=16))
            assert np.all(mix.sigma > 0.0)

    def test_pi_normalized(self):
        rng = np.random.default_rng(3)
        model = small_model(init_mdn_head(16, 7, 5, rng), rng)
        for _ in range(50):
            mix = mixture_for(model, rng.normal(scale=3.0, size=16))
            assert abs(mix.pi.sum() - 1.0) <= 1e-9
            assert np.all(mix.pi > 0.0)


class TestComponentPdf:
    def test_standard_normal_peak(self):
        # 1/sqrt(2 pi)
        got = component_pdf(np.array([0.5]), np.array([0.5]), np.array([1.0]))
        assert abs(got - 0.3989422804014327) < 1e-9

    def test_two_dim_peak(self):
        got = component_pdf(np.zeros(2), np.zeros(2), np.ones(2))
        assert abs(got - 0.15915494309189535) < 1e-9

    def test_doubling_sigma_divides_by_two_pow_n(self):
        rng = np.random.default_rng(4)
        for n in (1, 2, 5):
            mu = rng.normal(size=n)
            sigma = np.exp(rng.normal(size=n))
            at_peak = component_pdf(mu, mu, sigma)
            widened = component_pdf(mu, mu, 2.0 * sigma)
            assert widened == pytest.approx(at_peak / 2.0**n, rel=1e-12)

    def test_non_positive_sigma_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            component_pdf(np.zeros(2), np.zeros(2), np.array([1.0, 0.0]))


class TestNllLoss:
    def test_single_component_oracle(self):
        """K=1, N=1, y=mu, sigma=1: the frozen value of the directly coded loss."""
        mix = MixtureParams(pi=np.array([1.0]), mu=np.array([[0.0]]), sigma=np.array([[1.0]]))
        want = -math.log(1.0 / (math.sqrt(2.0 * math.pi) * (1.0 + 1e-5)) + 1e-5)
        assert want == pytest.approx(0.9189234669354241, abs=1e-12)
        assert nll_of(mix, np.array([0.0])) == pytest.approx(want, abs=1e-12)

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            mix = random_mixture(rng)
            y = rng.normal(scale=2.0, size=mix.n_targets)
            want = scalar_mixture_nll(mix.pi, mix.mu, mix.sigma, y)
            assert nll_of(mix, y) == pytest.approx(want, abs=1e-10)

    def test_far_target_hits_floor(self):
        mix = MixtureParams(
            pi=np.array([0.5, 0.5]), mu=np.zeros((2, 3)), sigma=np.ones((2, 3))
        )
        loss = nll_of(mix, np.full(3, 1e8))
        assert loss == pytest.approx(LOSS_CEILING, abs=1e-6)

    def test_never_exceeds_ceiling(self):
        rng = np.random.default_rng(6)
        for _ in range(300):
            mix = random_mixture(rng)
            y = rng.normal(scale=50.0, size=mix.n_targets)
            assert nll_of(mix, y) <= LOSS_CEILING + 1e-12

    def test_bounded_by_each_component_term(self):
        """loss <= -log(pi_j phi_j + 1e-5) for every j: dropping terms only grows it."""
        rng = np.random.default_rng(7)
        for _ in range(100):
            mix = random_mixture(rng)
            y = rng.normal(size=mix.n_targets)
            loss = nll_of(mix, y)
            for j in range(mix.n_components):
                phi_j = component_pdf(y, mix.mu[j], mix.sigma[j] + mdn.SIGMA_EPS)
                assert loss <= -math.log(mix.pi[j] * phi_j + 1e-5) + 1e-12

    def test_permutation_invariance(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            mix = random_mixture(rng, k=6)
            y = rng.normal(size=5)
            base = nll_of(mix, y)
            perm = rng.permutation(6)
            shuffled = MixtureParams(pi=mix.pi[perm], mu=mix.mu[perm], sigma=mix.sigma[perm])
            assert nll_of(shuffled, y) == pytest.approx(base, abs=1e-12)

    def test_k1_closed_form(self):
        """With one component the loss is the shifted diagonal-Gaussian NLL."""
        rng = np.random.default_rng(9)
        for _ in range(50):
            mu = rng.normal(size=(1, 5))
            sigma = np.exp(rng.normal(size=(1, 5)))
            y = rng.normal(size=5)
            mix = MixtureParams(pi=np.array([1.0]), mu=mu, sigma=sigma)
            s = sigma[0] + 1e-5
            log_phi = float(np.sum(-0.5 * ((y - mu[0]) / s) ** 2 - np.log(s))) \
                - 2.5 * math.log(2.0 * math.pi)
            want = -math.log(math.exp(log_phi) + 1e-5)
            assert nll_of(mix, y) == pytest.approx(want, rel=1e-12)


class TestBatchLoss:
    def _toy(self, k=2):
        rng = np.random.default_rng(10)
        return small_mdn([6, 8], k, 2, rng), rng

    def test_batch_of_one_equals_single(self):
        model, rng = self._toy()
        x = rng.normal(size=6)
        y = rng.normal(size=2)
        mix = mixture_for(model, x)
        assert batch_nll(model, x[None, :], y[None, :]) == pytest.approx(
            nll_of(mix, y), abs=1e-12
        )

    def test_duplicate_sample_keeps_mean(self):
        model, rng = self._toy()
        x = rng.normal(size=(1, 6))
        y = rng.normal(size=(1, 2))
        once = batch_nll(model, x, y)
        twice = batch_nll(model, np.vstack([x, x]), np.vstack([y, y]))
        assert twice == pytest.approx(once, abs=1e-12)

    def test_gradients_match_finite_differences(self):
        model, rng = self._toy()
        x = rng.normal(size=(4, 6))
        y = rng.normal(size=(4, 2))
        _, grads = batch_nll_and_grads(model, x, y)
        numeric = finite_difference_grads(
            lambda: batch_nll(model, x, y), model.parameters()
        )
        assert max_rel_error(grads, numeric) <= 1e-4

    def test_empty_batch_rejected(self):
        model, _ = self._toy()
        with pytest.raises(ValueError, match="empty"):
            batch_nll(model, np.zeros((0, 6)), np.zeros((0, 2)))

    def test_nan_reports_sample_index(self):
        model, rng = self._toy()
        x = rng.normal(size=(3, 6))
        y = rng.normal(size=(3, 2))
        x[1, 0] = np.nan
        with pytest.raises(nncore.TrainingDivergedError, match="sample 1"):
            batch_nll(model, x, y)


# saturated head logits: far past where exp overflows or underflows, and ordinary values
SATURATED = st.sampled_from([800.0, -800.0, 1e4, -1e4, 0.0]) | st.floats(-1e4, 1e4)


class TestSaturatedLogits:
    """The loss stays capped and its gradients finite however far the head saturates."""

    @settings(max_examples=150, deadline=None, database=None)
    @given(
        pi_b=st.lists(SATURATED, min_size=3, max_size=3),
        sigma_b=st.lists(SATURATED, min_size=6, max_size=6),
        targets=st.lists(st.floats(-1e6, 1e6), min_size=4, max_size=4),
    )
    @example(pi_b=[0.0, 0.0, 0.0], sigma_b=[800.0] * 6, targets=[0.5, 0.5, 0.5, 0.5])
    @example(pi_b=[1e4, -1e4, 800.0], sigma_b=[800.0, -800.0, 1e4, -1e4, 0.0, 1.0],
             targets=[1e6, -1e6, 0.0, 3.0])
    def test_loss_capped_and_gradients_finite(self, pi_b, sigma_b, targets):
        model = small_mdn([6, 8], 3, 2, np.random.default_rng(12))
        model.head.pi_b[:] = pi_b
        model.head.sigma_b[:] = sigma_b
        x = np.random.default_rng(13).normal(size=(2, 6))
        y = np.array(targets).reshape(2, 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            loss, grads = batch_nll_and_grads(model, x, y)
        assert loss <= LOSS_CEILING
        for g in grads:
            assert np.isfinite(g).all()

    def test_infinite_sigma_gets_zero_gradient(self):
        """sigma = exp(800) overflows: that component takes no responsibility and no step."""
        model = small_mdn([6, 8], 2, 2, np.random.default_rng(14))
        model.head.sigma_b[:2] = 800.0
        x = np.random.default_rng(15).normal(size=(3, 6))
        y = np.full((3, 2), 0.5)
        _, grads = batch_nll_and_grads(model, x, y)
        g_sigma_w, g_sigma_b = grads[-2], grads[-1]
        assert not g_sigma_b[:2].any() and not g_sigma_w[:2].any()
        assert g_sigma_b[2:].any()


def two_path_logsumexp_rows(w):
    """The former log-sum-exp: a fast path, and a masked one once some row is all -inf."""
    m = w.max(axis=1)
    neg = np.isneginf(m)
    if not neg.any():
        return m + np.log(np.exp(w - m[:, None]).sum(axis=1))
    out = np.full(w.shape[0], -np.inf)
    keep = ~neg
    if keep.any():
        ws, ms = w[keep], m[keep]
        out[keep] = ms + np.log(np.exp(ws - ms[:, None]).sum(axis=1))
    return out


LSE_ENTRIES = st.sampled_from([-np.inf, np.inf, np.nan, 0.0, 800.0, -800.0]) | st.floats(-1e3, 1e3)


def lse_batches(k):
    """(rows, k) batches mixing ordinary rows, NaN and infinite entries, and all -inf rows."""
    row = st.lists(LSE_ENTRIES, min_size=k, max_size=k) | st.just([-np.inf] * k)
    return st.lists(row, min_size=1, max_size=6)


class TestLogsumexpRows:
    @settings(max_examples=300, deadline=None, database=None)
    @given(rows=st.integers(1, 4).flatmap(lse_batches))
    @example(rows=[[-np.inf, -np.inf], [0.5, -np.inf], [np.nan, -np.inf]])
    def test_matches_the_two_path_formula_bit_for_bit(self, rows):
        w = np.array(rows)
        with np.errstate(all="ignore"):
            want = two_path_logsumexp_rows(w)
            got = mdn._logsumexp_rows(w)
        nan = np.isnan(want)
        np.testing.assert_array_equal(np.isnan(got), nan)
        np.testing.assert_array_equal(got[~nan].view(np.uint64), want[~nan].view(np.uint64))


class TestPredictModes:
    def test_single_component(self):
        mix = MixtureParams(pi=np.array([1.0]), mu=np.array([[1.0, 2.0]]),
                            sigma=np.ones((1, 2)))
        modes = predict_modes(mix, 1)
        assert len(modes) == 1
        np.testing.assert_array_equal(modes[0][1], [1.0, 2.0])

    def test_sorted_by_weight(self):
        mix = MixtureParams(
            pi=np.array([0.2, 0.5, 0.3]),
            mu=np.array([[0.0], [1.0], [2.0]]),
            sigma=np.ones((3, 1)),
        )
        modes = predict_modes(mix, 2)
        assert [m[1][0] for m in modes] == [1.0, 2.0]

    def test_tie_broken_by_index(self):
        mix = MixtureParams(
            pi=np.array([0.5, 0.5]), mu=np.array([[10.0], [20.0]]), sigma=np.ones((2, 1))
        )
        modes = predict_modes(mix, 2)
        assert modes[0][1][0] == 10.0

    def test_top_m_exceeding_k_rejected(self):
        mix = MixtureParams(pi=np.array([1.0]), mu=np.zeros((1, 2)), sigma=np.ones((1, 2)))
        with pytest.raises(ValueError, match="top_m"):
            predict_modes(mix, 2)


class TestRankCandidates:
    def test_clipped_ranked_rescored_and_flagged(self):
        mix = MixtureParams(
            pi=np.array([0.2, 0.5, 0.3]),
            mu=np.array([[1.0, 0.0, 0.5, 0.5, 0.5],
                         [-0.5, 1.5, 0.5, 0.5, 0.5],
                         [0.5, 0.5, 0.5, 0.5, 2.0]]),
            sigma=np.ones((3, 5)),
        )
        spectrum = dataset.surrogate_spectra(witness_pair()[0].to_array()[None])[0]
        found = mdn.rank_candidates(mix, spectrum, 2)
        np.testing.assert_array_equal(found.pi, [0.5, 0.3])
        np.testing.assert_array_equal(
            found.designs, dataset.denormalize_designs([[0.0, 1.0, 0.5, 0.5, 0.5],
                                                        [0.5, 0.5, 0.5, 0.5, 1.0]])
        )
        np.testing.assert_array_equal(found.resimulated, dataset.surrogate_spectra(found.designs))
        for resim, rmse in zip(found.resimulated, found.rmse):
            assert rmse == math.sqrt(np.mean((resim - spectrum) ** 2))
        # p = 305, w = 190 breaks the gap; p = 360, w = 117.5 keeps it
        assert found.faults[0] == "p - w = 115 violates the 200.0 nm gap"
        assert found.faults[1] == ""


class TestWeightedMarginal:
    def test_single_component_is_plain_gaussian(self):
        mix = MixtureParams(pi=np.array([1.0]), mu=np.array([[0.3, -1.0]]),
                            sigma=np.array([[0.5, 2.0]]))
        grid = np.linspace(-3, 3, 301)
        dens = weighted_marginal_pdf(mix, 0, grid)
        want = np.exp(-0.5 * ((grid - 0.3) / 0.5) ** 2) / (math.sqrt(2 * math.pi) * 0.5)
        np.testing.assert_allclose(dens, want, rtol=1e-12)

    def test_integrates_to_one(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            mix = random_mixture(rng, k=4)
            for c in range(5):
                grid = mdn.marginal_grid(mix, c)
                dens = weighted_marginal_pdf(mix, c, grid)
                integral = np.trapezoid(dens, grid)
                assert integral == pytest.approx(1.0, abs=1e-3)

    def test_dominant_component_limit(self):
        eps = 1e-12
        mix = MixtureParams(
            pi=np.array([1.0 - eps, eps]),
            mu=np.array([[0.0], [5.0]]),
            sigma=np.array([[1.0], [0.1]]),
        )
        grid = np.linspace(-4, 4, 401)
        dens = weighted_marginal_pdf(mix, 0, grid)
        want = np.exp(-0.5 * grid**2) / math.sqrt(2 * math.pi)
        np.testing.assert_allclose(dens, want, atol=1e-9)

    @pytest.mark.parametrize("sigmas", [(3e-300, 3e299), (5e-324, 1.0)],
                             ids=["sigmas_spanning_float64", "sigma_of_5e-324"])
    def test_grid_capped_when_sigmas_lie_far_apart(self, sigmas):
        """Over 8,191 steps of the smallest sigma / 8 between the ends caps the grid at
        8,192 points, also where that ratio overflows or the step underflows to 0."""
        mix = MixtureParams(pi=np.array([0.5, 0.5]), mu=np.array([[0.25], [0.75]]),
                            sigma=np.array(sigmas)[:, None])
        grid = mdn.marginal_grid(mix, 0)
        ends = mix.mu[:, 0] + np.multiply.outer([-8.0, 8.0], mix.sigma[:, 0])
        assert len(grid) == 8192 and np.isfinite(grid).all()
        assert (grid[0], grid[-1]) == (ends[0].min(), ends[1].max())

    def test_density_of_sigmas_spanning_float64_is_finite(self):
        """A z beyond float64, far out in the narrow component, adds 0 and warns nothing."""
        mix = MixtureParams(pi=np.array([0.5, 0.5]), mu=np.array([[0.25], [0.75]]),
                            sigma=np.array([[3e-300], [3e299]]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            dens = weighted_marginal_pdf(mix, 0, mdn.marginal_grid(mix, 0))
        assert np.isfinite(dens).all() and dens.max() > 0.0

    def test_bad_param_index(self):
        mix = MixtureParams(pi=np.array([1.0]), mu=np.zeros((1, 2)), sigma=np.ones((1, 2)))
        with pytest.raises(ValueError, match="param_index"):
            weighted_marginal_pdf(mix, 2, np.linspace(0, 1, 10))


class TestMdnCheckpoint:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(12)
        model = small_mdn([6, 8], 3, mdn.N_DESIGN_PARAMS, rng)
        path = tmp_path / "mdn.json"
        mdn.save_mdn(path, model)
        loaded = mdn.load_mdn(path)
        for a, b in zip(model.parameters(), loaded.parameters()):
            np.testing.assert_array_equal(a, b)
        x = rng.normal(size=6)
        m1, m2 = mixture_for(model, x), mixture_for(loaded, x)
        np.testing.assert_array_equal(m1.pi, m2.pi)
        np.testing.assert_array_equal(m1.mu, m2.mu)
        np.testing.assert_array_equal(m1.sigma, m2.sigma)

    def test_standard_trunks(self):
        rng = np.random.default_rng(13)
        model = build_mdn(101, 2, rng)
        assert model.trunk.layer_widths == [101, 150, 240, 300, 300, 150]
        assert model.trunk.dropout_after == {2, 3}
        assert model.head.pi_w.shape == (2, 150)
        assert model.head.mu_w.shape == (10, 150)
        latent_model = build_mdn(10, 2, rng)
        assert latent_model.trunk.layer_widths == [10, 100, 200, 300, 300, 150]

    def test_unknown_input_width_rejected(self):
        with pytest.raises(ValueError, match=r"input width 6; widths \[10, 101\] have one"):
            build_mdn(6, 2, np.random.default_rng(0))

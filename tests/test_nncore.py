"""Engine-level tests: activations, forward/backward, Adam, early stopping, checkpoints."""

import json
import math
import re
import string
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.special import expit

from specinv import autoencoder, mdn, nncore
from specinv.nncore import (
    ACT_IDENTITY,
    ACT_SILU,
    DatasetFormatError,
    EarlyStopping,
    MlpModel,
    TrainingDivergedError,
    adam_init,
    adam_step,
    backward,
    forward,
    init_mlp,
)
from specinv.train import TrainConfig
from util import (
    csv_writer_bytes,
    finite_difference_grads,
    max_rel_error,
    reference_adam_step,
    small_mdn,
)

SCHEMA = json.loads((Path(__file__).resolve().parent.parent / "docs" / "checkpoint.schema.json")
                    .read_text(encoding="utf-8"))


def silu(v):
    """The SiLU that ``forward`` applies, on one identity-weight layer as wide as ``v``."""
    v = np.asarray(v, dtype=np.float64)
    layer = MlpModel(
        layer_widths=[v.size, v.size],
        weights=[np.eye(v.size)],
        biases=[np.zeros(v.size)],
        activations=[ACT_SILU],
    )
    return forward(layer, v)[0]


class TestSilu:
    def test_zero(self):
        assert silu(np.array([0.0]))[0] == 0.0

    def test_saturation(self):
        assert abs(silu(np.array([100.0]))[0] - 100.0) < 1e-9

    def test_unit_value(self):
        # scalar oracle: 1 * 1/(1 + e^-1)
        want = 1.0 / (1.0 + math.exp(-1.0))
        assert abs(silu(np.array([1.0]))[0] - want) < 1e-9

    def test_elementwise(self):
        v = np.array([-2.0, -0.5, 0.0, 0.5, 2.0])
        out = silu(v)
        for i, x in enumerate(v):
            assert out[i] == pytest.approx(x / (1.0 + math.exp(-x)), abs=1e-12)


def ulp_distance(a, b):
    """Units in the last place between nonnegative doubles, elementwise."""
    return np.abs(a.view(np.int64) - b.view(np.int64))


class TestSigmoid:
    """scipy's expit is the oracle; scipy is a test dependency only."""

    @settings(max_examples=300, deadline=None, database=None)
    @given(z=st.lists(st.floats(), min_size=1, max_size=40))
    @example(z=[math.inf, -math.inf, 1e308, -1e308, -745.0, 5e-324, -5e-324, math.nan])
    @example(z=[-720.0, -709.79, -709.78, 0.0, -0.0, 36.0, -36.0, 1.0, 0.5, -0.5])
    def test_within_four_ulp_of_expit(self, z):
        z = np.array(z)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = nncore.sigmoid(z)
        want = expit(z)
        nan = np.isnan(z)
        assert np.isnan(got[nan]).all()
        assert (ulp_distance(got[~nan], want[~nan]) <= 4).all()

    def test_dense_grid_through_the_overflow_range(self):
        z = np.linspace(-760.0, 60.0, 200_001)
        assert ulp_distance(nncore.sigmoid(z), expit(z)).max() <= 4

    def test_leaves_its_input_unchanged(self):
        z = np.array([-800.0, -1.0, 0.0, 2.0])
        got = nncore.sigmoid(z)
        assert got is not z
        np.testing.assert_array_equal(z, [-800.0, -1.0, 0.0, 2.0])


class TestForward:
    def test_zero_weights_give_zero_output(self):
        model = MlpModel(
            layer_widths=[4, 3, 2],
            weights=[np.zeros((3, 4)), np.zeros((2, 3))],
            biases=[np.zeros(3), np.zeros(2)],
            activations=[ACT_SILU, ACT_SILU],
        )
        out, _ = forward(model, np.array([1.0, -2.0, 3.0, 4.0]))
        np.testing.assert_array_equal(out, np.zeros(2))

    def test_identity_weight_layer_is_silu(self):
        v = np.array([-1.0, 0.3, 2.0])
        np.testing.assert_allclose(silu(v), v * nncore.sigmoid(v), rtol=0, atol=0)

    def test_eval_mode_ignores_rng(self):
        rng = np.random.default_rng(0)
        model = init_mlp([5, 7, 2], rng, dropout_after={0})
        x = rng.normal(size=5)
        out1, _ = forward(model, x, rng=np.random.default_rng(1))
        out2, _ = forward(model, x, rng=np.random.default_rng(2))
        np.testing.assert_array_equal(out1, out2)

    def test_shape_mismatch_raises(self):
        model = init_mlp([5, 2], np.random.default_rng(0))
        with pytest.raises(ValueError, match="input shape"):
            forward(model, np.zeros(4))

    def test_batch_matches_single(self):
        # batched and single paths may differ by BLAS summation order only
        rng = np.random.default_rng(3)
        model = init_mlp([6, 4, 3], rng)
        xs = rng.normal(size=(5, 6))
        batch_out, _ = forward(model, xs)
        for i in range(5):
            single, _ = forward(model, xs[i])
            np.testing.assert_allclose(batch_out[i], single, rtol=1e-12, atol=1e-15)

    def test_eval_pass_holds_three_layer_arrays(self):
        """A SiLU layer's activation overwrites its pre-activation and the sigmoid goes
        before the next layer, so an eval pass peaks at a layer's input, its
        pre-activation and its sigmoid: three layer-sized arrays."""
        rng = np.random.default_rng(0)
        model = init_mlp([8, 400, 400, 400, 8], rng)
        x = rng.normal(size=(2000, 8))
        tracemalloc.start()
        try:
            forward(model, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / (2000 * 400 * 8) <= 3.2


class TestDropout:
    def test_train_mode_mean_matches_eval(self):
        """Inverted scaling keeps the expected activation equal to the eval value."""
        rng = np.random.default_rng(0)
        model = init_mlp([4, 6], rng, dropout_after={0})
        x = np.abs(rng.normal(size=4)) + 0.5
        eval_out, _ = forward(model, x)
        n = 10_000
        batch = np.tile(x, (n, 1))
        rate = 0.3
        out, _ = forward(model, batch, train=True, dropout_rate=rate,
                         rng=np.random.default_rng(99))
        mean = out.mean(axis=0)
        se = out.std(axis=0, ddof=1) / math.sqrt(n)
        assert np.all(np.abs(mean - eval_out) <= 3.0 * se + 1e-12)

    def test_dropout_requires_rng(self):
        model = init_mlp([4, 4], np.random.default_rng(0), dropout_after={0})
        with pytest.raises(ValueError, match="rng"):
            forward(model, np.zeros(4), train=True, dropout_rate=0.5)


class TestBackward:
    def test_zero_output_gradient(self):
        rng = np.random.default_rng(1)
        model = init_mlp([3, 4, 2], rng)
        _, tape = forward(model, rng.normal(size=3), train=True)
        grads = backward(model, tape, np.zeros((1, 2)))
        for g in grads:
            assert not g.any()

    def test_single_linear_layer_weight_gradient_is_input(self):
        """For loss = scalar output of one affine layer, dL/dW_ij = x_j."""
        model = MlpModel(
            layer_widths=[3, 1],
            weights=[np.array([[0.2, -0.4, 0.6]])],
            biases=[np.zeros(1)],
            activations=[ACT_IDENTITY],
        )
        x = np.array([1.5, -2.0, 0.25])
        _, tape = forward(model, x, train=True)
        grads = backward(model, tape, np.ones((1, 1)))
        np.testing.assert_array_equal(grads[0], x[None, :])
        np.testing.assert_array_equal(grads[1], np.ones(1))

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        model = init_mlp([3, 4, 2], rng)
        x = rng.normal(size=3)
        w = rng.normal(size=2)  # fixed projection makes the loss scalar

        def loss():
            out, _ = forward(model, x)
            return float(out @ w)

        _, tape = forward(model, x, train=True)
        grads = backward(model, tape, w[None, :])
        numeric = finite_difference_grads(loss, model.parameters())
        assert max_rel_error(grads, numeric) <= 1e-4

    def test_dropout_mask_replayed(self):
        """With the rng re-seeded per evaluation the masked loss is deterministic,
        so finite differences check the train-mode (masked) gradient."""
        rng = np.random.default_rng(5)
        model = init_mlp([3, 5, 2], rng, dropout_after={0})
        x = rng.normal(size=3)
        w = rng.normal(size=2)

        def loss():
            out, _ = forward(model, x, train=True, dropout_rate=0.4,
                             rng=np.random.default_rng(123))
            return float(out @ w)

        _, tape = forward(model, x, train=True, dropout_rate=0.4,
                          rng=np.random.default_rng(123))
        grads = backward(model, tape, w[None, :])
        numeric = finite_difference_grads(loss, model.parameters())
        assert max_rel_error(grads, numeric) <= 1e-4

    def test_tape_records_freed_as_used(self):
        """``backward`` drops each layer's record, so the tape holds none of the pass's
        arrays afterwards; its batch size, which a tracer reads then, stays."""
        rng = np.random.default_rng(3)
        model = init_mlp([3, 6, 5, 2], rng, dropout_after={1})
        _, tape = forward(model, rng.normal(size=(8, 3)), train=True, dropout_rate=0.3, rng=rng)
        grads = backward(model, tape, rng.normal(size=(8, 2)))
        assert [g.shape for g in grads] == [p.shape for p in model.parameters()]
        assert tape.records == [None] * 3
        assert tape.batch_size == 8

    def test_tape_model_mismatch_raises(self):
        rng = np.random.default_rng(0)
        model = init_mlp([3, 4, 2], rng)
        other = init_mlp([3, 2], rng)
        _, tape = forward(model, np.zeros(3), train=True)
        with pytest.raises(ValueError):
            backward(other, tape, np.zeros(2))


class TestAdam:
    def test_zero_gradients_leave_parameters_unchanged(self):
        rng = np.random.default_rng(0)
        params = [rng.normal(size=(3, 2)), rng.normal(size=3)]
        before = [p.copy() for p in params]
        state = adam_init(params, learning_rate=1e-3)
        for _ in range(25):
            adam_step([np.zeros_like(p) for p in params], state)
        for p, b in zip(params, before):
            np.testing.assert_array_equal(p, b)

    def test_first_step_oracle(self):
        """After one update, delta = -lr * g / (|g| + eps) exactly (bias-corrected)."""
        g = np.array([0.3, -2.0, 1e-6])
        params = [np.zeros(3)]
        state = adam_init(params, learning_rate=1e-3)
        adam_step([g], state)
        want = -1e-3 * g / (np.abs(g) + 1e-8)
        np.testing.assert_allclose(params[0], want, rtol=1e-12)

    def test_step_count(self):
        params = [np.ones(2)]
        state = adam_init(params, learning_rate=1e-3)
        for n in range(1, 6):
            adam_step([np.ones(2)], state)
            assert state.step_count == n

    def test_shape_mismatch_raises(self):
        params = [np.ones((2, 2))]
        state = adam_init(params, learning_rate=1e-3)
        with pytest.raises(ValueError):
            adam_step([np.ones(3)], state)

    def test_one_element_gradient_raises(self):
        """Broadcast over its parameter's block, it would update every element alike."""
        params = [np.ones((2, 2))]
        state = adam_init(params, learning_rate=1e-3)
        with pytest.raises(ValueError):
            adam_step([np.ones(1)], state)

    @settings(max_examples=30, deadline=None, database=None)
    @given(
        extra_shapes=st.lists(st.tuples(st.integers(1, 4), st.integers(1, 20)), max_size=3),
        seed=st.integers(0, 2**32 - 1),
        log_scale=st.floats(-10.0, 3.0),
        learning_rate=st.sampled_from([1e-4, 1e-3, 1e-2]),
    )
    def test_matches_the_textbook_update(self, extra_shapes, seed, log_scale, learning_rate):
        """60 steps, each array within 16 ulps of its accumulated update ``sum_t |u_t|``.

        With 8-element blocks the arrays span less than one block, exactly one (1-D and
        2-D), three whole blocks, and several with a short last one.  Parameters start at
        zero, so no rounding at a larger scale hides a wrong step; gradients span 17
        decades, from well below ``ADAM_EPSILON``, and an array sometimes gets none.
        """
        shapes = [(3,), (8,), (2, 4), (3, 8), (5, 7), *extra_shapes]
        params, want, path, first, second = ([np.zeros(s) for s in shapes] for _ in range(5))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(nncore, "ADAM_BLOCK", 8)
            state = adam_init(params, learning_rate=learning_rate)
        rng = np.random.default_rng(seed)
        for t in range(1, 61):
            grads = [10.0 ** (log_scale + rng.uniform(-2.0, 2.0, size=s)) * rng.normal(size=s)
                     * (rng.random() > 0.1) for s in shapes]
            adam_step(grads, state)
            before = [w.copy() for w in want]
            reference_adam_step(want, grads, first, second, t, learning_rate)
            for acc, w, b in zip(path, want, before):
                acc += np.abs(w - b)
        for got, w, acc in zip(params, want, path):
            assert (np.abs(got - w) <= 16 * np.spacing(acc)).all()

    def test_non_contiguous_parameter_raises(self):
        """A transposed array would be updated through a copy, leaving the model unchanged."""
        params = [np.ones((3, 2)), np.ones((2, 3)).T]
        with pytest.raises(ValueError, match="C-contiguous"):
            adam_init(params, learning_rate=1e-3)

    def test_defaults(self):
        assert nncore.MOMENT1_DECAY == 0.9
        assert nncore.MOMENT2_DECAY == 0.999
        assert nncore.ADAM_EPSILON == 1e-8
        assert TrainConfig().learning_rate == 1e-3


class TestEarlyStopping:
    def test_decreasing_losses_never_stop_early(self):
        stop = EarlyStopping(patience=5, min_delta=0.0, max_epochs=100)
        for i in range(99):
            assert not stop.update(100.0 - i, checkpoint=i)
        assert stop.update(0.5, checkpoint=99)  # max_epochs reached
        assert stop.epoch == 100

    def test_constant_loss_stops_after_patience(self):
        stop = EarlyStopping(patience=50, min_delta=1e-4, max_epochs=1000)
        stopped_at = None
        for epoch in range(1, 1000):
            if stop.update(2.0, checkpoint=epoch):
                stopped_at = epoch
                break
        assert stopped_at == 51

    def test_best_checkpoint_retained(self):
        stop = EarlyStopping(patience=50, min_delta=1e-4, max_epochs=1000)
        for epoch, loss in enumerate([3.0, 2.0, 2.5, 2.4, 2.3, 2.2], start=1):
            stop.update(loss, checkpoint=f"epoch-{epoch}")
        assert stop.best_checkpoint == "epoch-2"
        assert stop.best_val_loss == 2.0

    def test_best_val_loss_non_increasing(self):
        rng = np.random.default_rng(0)
        stop = EarlyStopping(patience=1000, min_delta=1e-4, max_epochs=2000)
        prev = math.inf
        for loss in rng.uniform(0.0, 5.0, size=200):
            stop.update(float(loss), checkpoint=None)
            assert stop.best_val_loss <= prev
            prev = stop.best_val_loss

    def test_nan_loss_raises(self):
        stop = EarlyStopping(patience=50, min_delta=1e-4, max_epochs=1000)
        with pytest.raises(TrainingDivergedError):
            stop.update(float("nan"), checkpoint=None)

    def test_improves_agrees_with_update(self):
        """An epoch improves when it beats the best by more than ``min_delta``; exactly
        ``min_delta`` does not, and NaN never does (``update`` raises on it)."""
        stop = EarlyStopping(patience=50, min_delta=0.25, max_epochs=1000)
        for loss, improves in [(2.0, True), (1.75, False), (1.5, True), (1.25, False),
                               (1.0, True), (1.0, False)]:
            assert stop.improves(loss) is improves
            checkpoint = object()
            stop.update(loss, checkpoint)
            assert (stop.best_checkpoint is checkpoint) is improves
        assert stop.improves(float("nan")) is False
        with pytest.raises(TrainingDivergedError):
            stop.update(float("nan"), checkpoint=None)


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(11)
        model = init_mlp([7, 5, 3], rng, dropout_after={0})
        path = tmp_path / "model.json"
        nncore.save_checkpoint(path, {"mlp": nncore.mlp_to_dict(model)})
        loaded = nncore.mlp_from_dict(nncore.load_checkpoint(path)["mlp"])
        assert loaded.layer_widths == model.layer_widths
        assert loaded.activations == model.activations
        assert loaded.dropout_after == model.dropout_after
        for a, b in zip(model.parameters(), loaded.parameters()):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("kind", ["mdn", "autoencoder"])
    def test_writers_follow_the_schema(self, tmp_path, kind):
        """docs/checkpoint.schema.json describes what the writers save: each object holds
        exactly its required and described keys, the constants hold, every activation is in
        the enum and every array is a floatarray string."""
        rng = np.random.default_rng(17)
        path = tmp_path / "model.json"
        if kind == "mdn":
            mdn.save_mdn(path, small_mdn([6, 8], 2, 5, rng))
        else:
            decoder = init_mlp([3, 4, 101], rng, activations=[ACT_SILU, ACT_IDENTITY])
            autoencoder.save_ae(path, autoencoder.AeModel(init_mlp([101, 4, 3], rng), decoder))
        saved = json.loads(path.read_text(encoding="utf-8"))
        branch = next(b for b in SCHEMA["oneOf"] if b["properties"]["kind"]["const"] == kind)
        mlp_schema = SCHEMA["definitions"]["mlp"]

        def assert_keys(obj, *schemas):
            required = {key for schema in schemas for key in schema["required"]}
            described = {key for schema in schemas for key in schema["properties"]}
            assert set(obj) == required == described

        assert_keys(saved, SCHEMA, branch)
        described = {**SCHEMA["properties"], **branch["properties"]}
        for key, schema in described.items():
            if "const" in schema:
                assert saved[key] == schema["const"], key
        arrays = []
        for key, schema in branch["properties"].items():
            if schema.get("$ref") == "#/definitions/mlp":
                mlp = saved[key]
                assert_keys(mlp, mlp_schema)
                assert set(mlp["activations"]) <= set(
                    mlp_schema["properties"]["activations"]["items"]["enum"])
                arrays += mlp["weights"] + mlp["biases"]
            elif "properties" in schema:  # the mixture head
                assert_keys(saved[key], schema)
                arrays += saved[key].values()
        assert len(arrays) == 8  # a one-layer trunk and six head arrays, or two two-layer nets
        pattern = SCHEMA["definitions"]["floatarray"]["pattern"]
        assert [a for a in arrays if not re.search(pattern, a)] == []

    def test_wrong_kind_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        nncore.save_checkpoint(
            path, {"format_version": nncore.CHECKPOINT_FORMAT_VERSION, "kind": "something-else"}
        )
        with pytest.raises(ValueError, match="kind"):
            mdn.load_mdn(path)

    def test_non_finite_values_rejected(self, tmp_path):
        """A float scalar, finite or not, is no checkpoint value, and neither is None."""
        for value in (float("inf"), 0.1, None):
            with pytest.raises(TypeError):
                nncore.save_checkpoint(tmp_path / "x.json", {"x": value})

    def test_non_finite_array_entry_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="non-finite"):
            nncore.save_checkpoint(tmp_path / "w.json",
                                   {"w": np.array([[1.0, 2.0], [np.inf, 0.0]])})

    def test_rejected_payload_leaves_no_file(self, tmp_path):
        path = tmp_path / "model.json"
        with pytest.raises(TypeError):
            nncore.save_checkpoint(path, {"w": np.array([1.0]), "rate": 0.5})
        with pytest.raises(ValueError, match="non-finite"):
            nncore.save_checkpoint(path, {"w": np.array([[1.0, 2.0], [np.nan, 0.0]])})
        assert not path.exists()

    def test_text_layout_pinned(self, tmp_path):
        """The kinds checkpoints hold: dicts, lists, 1-D and 2-D float arrays, ints, strs.
        A float array is the hex of its little-endian float64 bytes, row after row."""
        payload = {
            "format_version": 2,
            "kind": "pin",
            "layer_widths": [7, 5, 3],
            "activations": ["silu", "identity"],
            "dropout_after": [],
            "nested": {
                "vector": np.array([0.1, -2.5, 1e-300]),
                "matrix": np.array([[1.0, 2.0], [3.0, 0.30000000000000004]]),
                "inner": {"count": 2, "records": [{"a": 1}]},
            },
            "layers": [np.array([0.5]), np.array([[-1.0, 1e20]])],
        }
        expected = (
            "{\n"
            '  "format_version": 2,\n'
            '  "kind": "pin",\n'
            '  "layer_widths": [7, 5, 3],\n'
            '  "activations": ["silu", "identity"],\n'
            '  "dropout_after": [],\n'
            '  "nested": {\n'
            '    "vector": "9a9999999999b93f00000000000004c059f3f8c21f6ea501",\n'
            '    "matrix": "000000000000f03f00000000000000400000000000000840343333333333d33f",\n'
            '    "inner": {\n'
            '      "count": 2,\n'
            '      "records": [{\n'
            '          "a": 1\n'
            "        }]\n"
            "    }\n"
            "  },\n"
            '  "layers": ["000000000000e03f", "000000000000f0bf408cb5781daf1544"]\n'
            "}\n"
        )
        path = tmp_path / "pin.json"
        nncore.save_checkpoint(path, payload)
        assert path.read_bytes() == expected.encode("utf-8")

    # signed zero, the smallest subnormal and the largest finite doubles
    EDGE_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308]

    @settings(max_examples=200, deadline=None, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(arr=hnp.arrays(
        np.float64, hnp.array_shapes(min_dims=1, max_dims=2, min_side=1, max_side=40),
        elements=st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                           st.sampled_from(EDGE_FLOATS)),
    ))
    @example(arr=np.array(EDGE_FLOATS))
    @example(arr=np.array([EDGE_FLOATS, EDGE_FLOATS[::-1]]))
    def test_round_trip_keeps_every_bit(self, arr, tmp_path):
        """Any finite array, and its transpose (not C-contiguous), comes back bit for bit."""
        path = tmp_path / "a.json"
        nncore.save_checkpoint(path, {"a": arr, "t": arr.T})
        data = nncore.load_checkpoint(path)
        for key, expected in (("a", arr), ("t", arr.T)):
            back = nncore.checkpoint_array(data[key], expected.shape, key)
            assert back.dtype == np.float64 and back.shape == expected.shape
            assert back.tobytes() == expected.tobytes()

    # test_cli's CHECKPOINT_DEFECTS holds a list, a short string, a non-hex digit and a NaN
    @pytest.mark.parametrize("value,reason", [
        ("000000000000f03f000000000000f03f00", "has 34 hex digits, expected 32 for shape (2,)"),
        ("000000000000f03f 00000000000f03f", "holds a character that is not a hex digit"),
        ("000000000000f03f00000000000000é0", "holds a character that is not a hex digit"),
        ("000000000000f03f000000000000f07f", "has non-finite values"),  # +inf
    ], ids=["long", "whitespace", "non_ascii", "inf"])
    def test_malformed_array_rejected(self, value, reason):
        with pytest.raises(nncore.CheckpointFormatError, match="^w " + re.escape(reason)):
            nncore.checkpoint_array(value, (2,), "w")


# signed zero, the smallest subnormals, the largest finite doubles and the non-finite ones
CSV_EDGE_FLOATS = [-0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
                   math.nan, math.inf, -math.inf]
CSV_COLUMNS = {"rank": int, "tag": str, "x": float, "y": nncore.finite_float}
# what a CSV writer's str cells hold: split tags, strategies, stages such as "k=3"
IDENTIFIER = st.text(string.ascii_letters + string.digits + "_-=.", min_size=1, max_size=8)
ANY_FLOAT = st.one_of(st.floats(), st.floats().map(np.float64), st.sampled_from(CSV_EDGE_FLOATS))
CSV_ROWS = st.lists(st.tuples(
    st.one_of(st.integers(), st.integers(-2**63, 2**63 - 1).map(np.int64)),
    IDENTIFIER, ANY_FLOAT, ANY_FLOAT,
), min_size=1, max_size=12)


class TestWriteCsv:
    @settings(max_examples=300, deadline=None, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(rows=CSV_ROWS)
    @example(rows=[(i, "train", x, np.float64(-x)) for i, x in enumerate(CSV_EDGE_FLOATS)])
    def test_bytes_match_the_csv_writer_oracle(self, rows, tmp_path):
        path = tmp_path / "t.csv"
        nncore.write_csv(path, CSV_COLUMNS, rows)
        assert path.read_bytes() == csv_writer_bytes(list(CSV_COLUMNS), rows)

    @settings(max_examples=300, deadline=None, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(rows=CSV_ROWS)
    @example(rows=[(i, "val", x, np.float64(x)) for i, x in enumerate(CSV_EDGE_FLOATS)])
    def test_read_csv_gives_back_every_bit(self, rows, tmp_path):
        """Each float comes back with its float64 bits; a NaN, whose sign and payload the
        text does not hold, comes back as a NaN."""
        path = tmp_path / "t.csv"
        nncore.write_csv(path, CSV_COLUMNS, rows)
        back, starts = nncore.read_csv(path, {"rank": int, "tag": str, "x": float, "y": float})
        assert starts == list(range(2, len(rows) + 2))
        for row, *got in zip(rows, back["rank"], back["tag"], back["x"], back["y"], strict=True):
            assert got[:2] == [row[0], row[1]]
            for want, value in zip(row[2:], got[2:]):
                assert type(value) is float
                if math.isnan(want):
                    assert math.isnan(value)
                else:
                    assert np.float64(value).tobytes() == np.float64(want).tobytes()

    @pytest.mark.parametrize("char", [",", '"', "\r", "\n"], ids=["comma", "quote", "cr", "lf"])
    def test_cell_that_would_need_quoting_rejected(self, char, tmp_path):
        rows = [(1, "train", 0.5, 0.5), (2, f"a{char}b", 0.5, 0.5)]
        with pytest.raises(ValueError, match="column tag: "):
            nncore.write_csv(tmp_path / "t.csv", CSV_COLUMNS, rows)

    @pytest.mark.parametrize("quoted_lines", [1, 2], ids=["one_line_cells", "two_line_cell"])
    def test_bad_cell_past_the_first_block_names_its_line_and_text(self, quoted_lines,
                                                                    tmp_path):
        """Record 200 of 300 is in the reader's second block of records; its cell is named
        by its own line and text, also after a quoted cell spanning two lines."""
        records = [f"{i},t,{i}.25,0.5" for i in range(1, 301)]
        records[149] = '150,"two' + "\n" * (quoted_lines - 1) + ' lines",150.25,0.5'
        records[199] = "200,t,oops,0.5"
        path = tmp_path / "t.csv"
        path.write_text("\n".join(["rank,tag,x,y", *records]) + "\n", encoding="utf-8")
        with pytest.raises(DatasetFormatError) as err:
            nncore.read_csv(path, CSV_COLUMNS)
        assert str(err.value) == f"{path}: line {200 + quoted_lines}: cannot read x from 'oops'"

    def test_first_bad_record_in_file_order_is_named(self, tmp_path):
        """Whichever check a record fails, the message names the file's first bad record,
        though the reader converts a block of records column by column."""
        faults = [(4, "3,t,oops,0.5", "cannot read x from 'oops'"),
                  (11, "ten,t,10.25,0.5", "cannot read rank from 'ten'"),
                  (16, "15,t,15.25", "expected 4 columns, got 3")]
        path = tmp_path / "t.csv"
        for i, (line, _, message) in enumerate(faults):
            records = [f"{r},t,{r}.25,0.5" for r in range(1, 21)]
            for bad_line, text, _ in faults[i:]:
                records[bad_line - 2] = text
            path.write_text("\n".join(["rank,tag,x,y", *records]) + "\n", encoding="utf-8")
            with pytest.raises(DatasetFormatError) as err:
                nncore.read_csv(path, CSV_COLUMNS)
            assert str(err.value) == f"{path}: line {line}: {message}"

    @pytest.mark.parametrize("line", [2, 2000], ids=["first_record", "past_the_first_read"])
    def test_bytes_that_are_not_utf8_name_their_line(self, line, tmp_path):
        """Also when the reader has converted blocks of records before it meets them."""
        records = [f"{i},t,{i}.25,0.5".encode() for i in range(1, 3001)]
        records[line - 2] = b"0,t\xff,0.5,0.5"
        path = tmp_path / "t.csv"
        path.write_bytes(b"\n".join([b"rank,tag,x,y", *records]) + b"\n")
        with pytest.raises(DatasetFormatError) as err:
            nncore.read_csv(path, CSV_COLUMNS)
        assert str(err.value) == f"{path}: line {line}: not UTF-8 text"


class TestDeterminism:
    def test_identical_seeds_identical_trajectories(self):
        """Same seeds, same data: parameter trajectories are bit-identical."""

        def run():
            rng = np.random.default_rng(42)
            model = init_mlp([4, 8, 2], rng, dropout_after={0})
            data_rng = np.random.default_rng(1)
            x = data_rng.normal(size=(16, 4))
            t = data_rng.normal(size=(16, 2))
            params = model.parameters()
            state = adam_init(params, learning_rate=1e-3)
            drop_rng = np.random.default_rng(9)
            for _ in range(20):
                out, tape = forward(model, x, train=True, dropout_rate=0.2, rng=drop_rng)
                g_out = 2.0 * (out - t) / out.size
                grads = backward(model, tape, g_out)
                adam_step(grads, state)
            return [p.copy() for p in params]

        for a, b in zip(run(), run()):
            np.testing.assert_array_equal(a, b)

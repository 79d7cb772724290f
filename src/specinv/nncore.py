"""Minimal dense-network engine.

Plain-numpy multilayer perceptrons with SiLU activations, inverted dropout,
reverse-mode gradients replayed from an activation tape, an Adam optimizer,
early stopping, and a bit-exact JSON checkpoint format.  All arithmetic is
64-bit.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

CHECKPOINT_FORMAT_VERSION = 2

ACT_SILU = "silu"
ACT_IDENTITY = "identity"


class TrainingDivergedError(RuntimeError):
    """Raised when a training loss turns NaN/infinite instead of silently continuing."""


class CheckpointFormatError(ValueError):
    """Malformed or unsupported checkpoint: bad JSON, version, kind, keys or shapes."""


class DatasetFormatError(ValueError):
    """Malformed data file (dataset, spectrum or run CSV); names the file and any line."""


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Elementwise 1 / (1 + exp(-z)).

    Where exp(-z) overflows (z below -709.78) the result is 0, as scipy's
    ``expit`` gives there; NaN stays NaN.  No floating-point warning is raised.
    """
    t = np.negative(z)
    with np.errstate(over="ignore"):
        np.exp(t, out=t)
    t += 1.0
    return np.divide(1.0, t, out=t)


def _silu_grad(z: np.ndarray, sig: np.ndarray) -> np.ndarray:
    # d/dz [z * sigmoid(z)] = sigmoid(z) * (1 + z * (1 - sigmoid(z)))
    t = np.subtract(1.0, sig)
    np.multiply(z, t, out=t)
    np.add(1.0, t, out=t)
    return np.multiply(sig, t, out=t)


def _interleave(weights: list[np.ndarray], biases: list[np.ndarray]) -> list[np.ndarray]:
    """The parameter order: each layer's weight, then its bias."""
    return [a for pair in zip(weights, biases) for a in pair]


@dataclass
class MlpModel:
    """A stack of affine layers with per-layer activation markers.

    weights[l] has shape (layer_widths[l+1], layer_widths[l]); biases[l] has
    length layer_widths[l+1].  ``dropout_after`` lists the (0-based) layer
    indices whose post-activation output is dropped out in train mode.
    """

    layer_widths: list[int]
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    activations: list[str]
    dropout_after: frozenset[int] = field(default_factory=frozenset)

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    @property
    def input_width(self) -> int:
        return self.layer_widths[0]

    @property
    def output_width(self) -> int:
        return self.layer_widths[-1]

    def parameters(self) -> list[np.ndarray]:
        """Weight/bias arrays interleaved per layer; views, not copies."""
        return _interleave(self.weights, self.biases)


def init_mlp(
    layer_widths: list[int],
    rng: np.random.Generator,
    activations: list[str] | None = None,
    dropout_after: frozenset[int] | set[int] = frozenset(),
) -> MlpModel:
    """Glorot-uniform weights, zero biases; SiLU everywhere unless overridden."""
    if len(layer_widths) < 2:
        raise ValueError(f"need at least input and output widths, got {layer_widths}")
    if any(w <= 0 for w in layer_widths):
        raise ValueError(f"layer widths must be positive, got {layer_widths}")
    n_layers = len(layer_widths) - 1
    if activations is None:
        activations = [ACT_SILU] * n_layers
    if len(activations) != n_layers:
        raise ValueError(f"expected {n_layers} activation markers, got {len(activations)}")
    weights, biases = [], []
    for fan_in, fan_out in zip(layer_widths[:-1], layer_widths[1:]):
        limit = math.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-limit, limit, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return MlpModel(
        layer_widths=list(layer_widths),
        weights=weights,
        biases=biases,
        activations=list(activations),
        dropout_after=frozenset(dropout_after),
    )


def max_width_dropout_layers(layer_widths: list[int]) -> frozenset[int]:
    """Indices of the widest hidden layers; dropout goes after these."""
    hidden = layer_widths[1:]
    widest = max(hidden)
    return frozenset(i for i, w in enumerate(hidden) if w == widest)


@dataclass
class _LayerRecord:
    inputs: np.ndarray
    pre_act: np.ndarray
    sig: np.ndarray | None
    mask: np.ndarray | None


@dataclass
class Tape:
    """Activation record from one forward pass; replays dropout masks exactly."""

    records: list[_LayerRecord]

    @property
    def batch_size(self) -> int:
        return self.records[0].inputs.shape[0]


def forward(
    model: MlpModel,
    x: np.ndarray,
    train: bool = False,
    dropout_rate: float = 0.0,
    rng: np.random.Generator | None = None,
) -> tuple[np.ndarray, Tape]:
    """Run the network on a vector or a (batch, width) matrix.

    In train mode, inverted dropout (scale by 1/(1-rate)) is applied after the
    activation of every layer in ``dropout_after``; in eval mode dropout is the
    identity and the output does not depend on ``rng``.  The tape always holds
    a batch: a vector's tape takes a (1, output_width) gradient.
    """
    a = np.asarray(x, dtype=np.float64)
    single = a.ndim == 1
    if single:
        a = a[None, :]
    if a.ndim != 2 or a.shape[1] != model.input_width:
        raise ValueError(
            f"input shape {np.shape(x)} incompatible with input width {model.input_width}"
        )
    use_dropout = train and dropout_rate > 0.0
    if use_dropout and model.dropout_after and rng is None:
        raise ValueError("train-mode dropout needs an rng")
    records = []
    for l in range(model.n_layers):
        z = a @ model.weights[l].T
        z += model.biases[l]
        if model.activations[l] == ACT_SILU:
            sig = sigmoid(z)
            h = z * sig
        else:
            sig = None
            h = z
        mask = None
        if use_dropout and l in model.dropout_after:
            keep = 1.0 - dropout_rate
            # the draws of rng.random(h.shape), then 1/keep where a draw is below keep, else 0
            mask = rng.random(h.shape)
            np.less(mask, keep, out=mask)
            mask /= keep
            h = h * mask
        records.append(_LayerRecord(inputs=a, pre_act=z, sig=sig, mask=mask))
        a = h
    out = a[0] if single else a
    return out, Tape(records)


def backward(
    model: MlpModel, tape: Tape, output_gradient: np.ndarray, input_gradient: bool = True
) -> tuple[list[np.ndarray], np.ndarray | None]:
    """Gradients of a scalar loss w.r.t. every weight and bias, plus the input.

    ``output_gradient`` is dLoss/dOutput, one row per sample of the tape's
    batch (any 1/batch factors belong to the caller).  Returns
    (param_grads, input_grad) with param_grads ordered like
    ``model.parameters()``; input_grad is None, and its matmul skipped, when
    ``input_gradient`` is false.
    """
    if len(tape.records) != model.n_layers:
        raise ValueError(
            f"tape has {len(tape.records)} layers, model has {model.n_layers}"
        )
    g = np.asarray(output_gradient, dtype=np.float64)
    n = tape.batch_size
    if g.shape != (n, model.output_width):
        raise ValueError(
            f"output gradient shape {np.shape(output_gradient)} does not match "
            f"forward output ({n}, {model.output_width})"
        )
    grad_w: list[np.ndarray] = [np.empty(0)] * model.n_layers
    grad_b: list[np.ndarray] = [np.empty(0)] * model.n_layers
    for l in reversed(range(model.n_layers)):
        rec = tape.records[l]
        if rec.inputs.shape[1] != model.weights[l].shape[1]:
            raise ValueError(f"tape layer {l} does not match model weights")
        if rec.mask is not None:
            g = g * rec.mask
        if model.activations[l] == ACT_SILU:
            g = g * _silu_grad(rec.pre_act, rec.sig)
        grad_w[l] = g.T @ rec.inputs
        grad_b[l] = np.sum(g, axis=0)
        if l == 0 and not input_gradient:
            return _interleave(grad_w, grad_b), None
        g = g @ model.weights[l]
    return _interleave(grad_w, grad_b), g


MOMENT1_DECAY = 0.9
MOMENT2_DECAY = 0.999
ADAM_EPSILON = 1e-8


@dataclass
class AdamState:
    """Adam moments matching a parameter list element-for-element."""

    first_moment: list[np.ndarray]
    second_moment: list[np.ndarray]
    learning_rate: float
    step_count: int = 0
    # reused work buffers, never part of the optimizer's logical state
    _scratch: list[np.ndarray] | None = field(default=None, repr=False, compare=False)


def adam_init(params: list[np.ndarray], learning_rate: float) -> AdamState:
    return AdamState(
        first_moment=[np.zeros_like(p) for p in params],
        second_moment=[np.zeros_like(p) for p in params],
        learning_rate=learning_rate,
    )


def adam_step(
    params: list[np.ndarray], grads: list[np.ndarray], state: AdamState
) -> tuple[list[np.ndarray], AdamState]:
    """One bias-corrected Adam update, applied in place to ``params``."""
    if not (len(params) == len(grads) == len(state.first_moment)):
        raise ValueError(
            f"parameter/gradient/moment counts differ: "
            f"{len(params)}/{len(grads)}/{len(state.first_moment)}"
        )
    if state._scratch is None:
        state._scratch = [np.empty_like(p) for p in params]
    state.step_count += 1
    t = state.step_count
    bc1 = 1.0 - MOMENT1_DECAY**t
    bc2 = 1.0 - MOMENT2_DECAY**t
    for p, g, m, v, work in zip(
        params, grads, state.first_moment, state.second_moment, state._scratch
    ):
        if p.shape != g.shape or p.shape != m.shape:
            raise ValueError(f"shape mismatch: param {p.shape} vs grad {g.shape}")
        m *= MOMENT1_DECAY
        np.multiply(g, 1.0 - MOMENT1_DECAY, out=work)
        m += work
        v *= MOMENT2_DECAY
        np.multiply(g, g, out=work)
        work *= 1.0 - MOMENT2_DECAY
        v += work
        # p -= lr * (m / bc1) / (sqrt(v / bc2) + eps), built in the work buffer
        np.divide(v, bc2, out=work)
        np.sqrt(work, out=work)
        work += ADAM_EPSILON
        np.divide(m, work, out=work)
        work *= state.learning_rate / bc1
        p -= work
    return params, state


@dataclass
class EarlyStopping:
    """Patience-based stopper that retains the best-validation checkpoint.

    ``update`` must be called once per epoch; it returns True when training
    should stop (patience exhausted or the epoch cap reached).
    """

    patience: int
    min_delta: float
    max_epochs: int
    best_val_loss: float = math.inf
    best_checkpoint: object = None
    epochs_since_improvement: int = 0
    epoch: int = 0

    def update(self, epoch_val_loss: float, checkpoint: object) -> bool:
        if not math.isfinite(epoch_val_loss):
            raise TrainingDivergedError(
                f"validation loss {epoch_val_loss!r} at epoch {self.epoch + 1}"
            )
        self.epoch += 1
        if epoch_val_loss < self.best_val_loss - self.min_delta:
            self.best_val_loss = epoch_val_loss
            self.best_checkpoint = checkpoint
            self.epochs_since_improvement = 0
        else:
            self.epochs_since_improvement += 1
        return self.epochs_since_improvement >= self.patience or self.epoch >= self.max_epochs


# --- text output ---------------------------------------------------------------
#
# Each CSV file is declared once, as the ``{name: type}`` dict of its columns that both
# ``write_csv`` and ``read_csv`` take.  Checkpoints are plain JSON read back by the stock
# json parser, each float array one hex string of its float64 bytes; see
# docs/checkpoint.schema.json for the layout.


def write_csv(path: str | Path, columns: dict[str, Callable], rows) -> None:
    """One CSV file of ``columns`` through one row template with CRLF line ends: ``%d``
    for an ``int`` column, ``%s`` for a ``str`` one, and for any other ``%.17g``, which
    round-trips a float64 bit-exactly.  A ``str`` cell holding a comma, a double quote,
    CR or LF, which would need quoting, raises ``ValueError`` naming its column."""
    cells = [{int: "%d", str: "%s"}.get(kind, "%.17g") for kind in columns.values()]
    row_format = ",".join(cells) + "\r\n"
    text_columns = [(i, name) for i, (name, kind) in enumerate(columns.items()) if kind is str]
    needs_quoting = frozenset(',"\r\n')
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(columns) + "\r\n")
        for row in rows:
            for i, name in text_columns:
                if not needs_quoting.isdisjoint(str(row[i])):
                    raise ValueError(f"{path}: column {name}: {row[i]!r} would need quoting")
            fh.write(row_format % tuple(row))


def read_text(path: str | Path) -> str:
    """The UTF-8 text of ``path``; bytes that do not decode raise ``DatasetFormatError``
    naming the file and the line that holds them."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise DatasetFormatError(f"{path}: line {line}: not UTF-8 text") from None


def finite_float(text: str) -> float:
    """``float`` of a cell that must hold a finite number: nan and inf raise ``ValueError``."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not finite")
    return value


def read_csv(path: str | Path, columns: dict[str, Callable[[str], object]]) -> list[dict]:
    """The rows of a ``write_csv`` file as dicts of ``columns``, each cell converted
    by its column's function.  Text that is not UTF-8 or not CSV, a missing column, a
    cell that does not convert, or a file without rows raises ``DatasetFormatError``
    naming the file and line."""
    reader = csv.DictReader(io.StringIO(read_text(path), newline=""))
    try:
        missing = [name for name in columns if name not in (reader.fieldnames or ())]
        if missing:
            raise DatasetFormatError(f"{path}: line 1: missing column {', '.join(missing)}")
        rows = []
        for row in reader:
            rows.append({})
            for name, convert in columns.items():
                try:
                    rows[-1][name] = convert(row[name])
                except (TypeError, ValueError):  # a short row holds None
                    raise DatasetFormatError(
                        f"{path}: line {reader.line_num}: cannot read {name} from {row[name]!r}"
                    ) from None
    except csv.Error as exc:  # a field over the csv module's size limit, say
        # the DictReader's own line_num moves only once a row is read
        raise DatasetFormatError(f"{path}: line {reader.reader.line_num}: {exc}") from None
    if not rows:
        raise DatasetFormatError(f"{path}: no rows after the header")
    return rows


def _json_fragments(obj, out: list[str], indent: int) -> None:
    """What checkpoints hold: dicts, lists, 1-D and 2-D float arrays, ints, strs.

    A float array is one string: the hex of its little-endian float64 bytes in
    row-major order, 16 digits per element; ``checkpoint_array`` reads it back."""
    pad = "  " * indent
    if isinstance(obj, np.ndarray) and obj.dtype.kind == "f" and obj.ndim in (1, 2):
        if not np.isfinite(obj).all():
            bad = float(obj[~np.isfinite(obj)][0])
            raise ValueError(f"non-finite value {bad!r} cannot be checkpointed")
        out.append('"' + np.ascontiguousarray(obj, "<f8").tobytes().hex() + '"')
    elif isinstance(obj, dict):
        out.append("{\n")
        for i, (key, value) in enumerate(obj.items()):
            out.append(f'{pad}  {json.dumps(str(key))}: ')
            _json_fragments(value, out, indent + 1)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(pad + "}")
    elif isinstance(obj, list):
        out.append("[")
        for i, value in enumerate(obj):
            if i:
                out.append(", ")
            _json_fragments(value, out, indent + 1)
        out.append("]")
    elif isinstance(obj, (int, str)):
        out.append(json.dumps(obj))
    else:  # floats only ever reach a checkpoint inside a float array
        raise TypeError(f"cannot checkpoint a {type(obj).__name__} value")


def dump_checkpoint_text(payload: dict) -> str:
    out: list[str] = []
    _json_fragments(payload, out, 0)
    out.append("\n")
    return "".join(out)


def save_checkpoint(path: str | Path, payload: dict) -> None:
    Path(path).write_text(dump_checkpoint_text(payload), encoding="utf-8")


def load_checkpoint(path: str | Path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:  # bad JSON, bad UTF-8 or nesting too deep
            raise CheckpointFormatError(f"{path}: not a JSON checkpoint: {exc}") from None


def load_model(path: str | Path, from_dict):
    """``from_dict`` of the checkpoint at ``path``; a format error names the file."""
    data = load_checkpoint(path)
    try:
        return from_dict(data)
    except CheckpointFormatError as exc:
        raise CheckpointFormatError(f"{path}: {exc}") from None


def check_header(data, kind: str, keys: tuple[str, ...]) -> None:
    """Require a current-version checkpoint of ``kind`` holding every key of ``keys``."""
    require_keys(data, ("format_version", "kind"), "checkpoint")
    if data["format_version"] != CHECKPOINT_FORMAT_VERSION:
        raise CheckpointFormatError(f"unsupported format_version {data['format_version']!r}")
    if data["kind"] != kind:
        raise CheckpointFormatError(f"expected an {kind} checkpoint, got kind={data['kind']!r}")
    require_keys(data, keys, "checkpoint")


def require_keys(data, keys, name: str) -> None:
    if not isinstance(data, dict):
        raise CheckpointFormatError(f"{name} is not a JSON object")
    missing = [k for k in keys if k not in data]
    if missing:
        raise CheckpointFormatError(f"{name} is missing {', '.join(missing)}")


def checkpoint_count(value, name: str) -> int:
    if type(value) is not int or value < 1:
        raise CheckpointFormatError(f"{name} must be a positive integer, got {value!r}")
    return value


def checkpoint_array(value, shape: tuple[int, ...], name: str) -> np.ndarray:
    """The finite float64 array of exactly ``shape`` that a checkpoint's hex string holds."""
    if not isinstance(value, str):
        raise CheckpointFormatError(f"{name} is not a hex string")
    size = math.prod(shape)
    if len(value) != 16 * size:
        raise CheckpointFormatError(
            f"{name} has {len(value)} hex digits, expected {16 * size} for shape {shape}")
    try:
        raw = bytearray.fromhex(value)
    except ValueError:
        raw = b""
    if len(raw) != 8 * size:  # ``fromhex`` skips whitespace: a right-length text can hold some
        raise CheckpointFormatError(f"{name} holds a character that is not a hex digit")
    arr = np.frombuffer(raw, "<f8").reshape(shape)
    if not np.isfinite(arr).all():
        raise CheckpointFormatError(f"{name} has non-finite values")
    return arr


def mlp_to_dict(model: MlpModel) -> dict:
    return {
        "layer_widths": [int(w) for w in model.layer_widths],
        "activations": list(model.activations),
        "dropout_after": sorted(int(i) for i in model.dropout_after),
        "weights": [w for w in model.weights],
        "biases": [b for b in model.biases],
    }


def mlp_from_dict(data: dict, name: str = "mlp") -> MlpModel:
    require_keys(data, ("layer_widths", "activations", "dropout_after", "weights", "biases"), name)
    widths = data["layer_widths"]
    if not isinstance(widths, list) or len(widths) < 2:
        raise CheckpointFormatError(f"{name}.layer_widths must list at least two widths")
    widths = [checkpoint_count(w, f"{name}.layer_widths") for w in widths]
    n_layers = len(widths) - 1
    for key in ("activations", "weights", "biases"):
        if not isinstance(data[key], list) or len(data[key]) != n_layers:
            raise CheckpointFormatError(f"{name}.{key} must list one entry per layer ({n_layers})")
    if any(a not in (ACT_SILU, ACT_IDENTITY) for a in data["activations"]):
        raise CheckpointFormatError(f"{name}.activations has an unknown marker")
    dropout_after = data["dropout_after"]
    if not isinstance(dropout_after, list) or any(i not in range(n_layers) for i in dropout_after):
        raise CheckpointFormatError(f"{name}.dropout_after must list layer indices")
    weights, biases = [], []
    for l, (w, b) in enumerate(zip(data["weights"], data["biases"])):
        weights.append(checkpoint_array(w, (widths[l + 1], widths[l]), f"{name}.weights[{l}]"))
        biases.append(checkpoint_array(b, (widths[l + 1],), f"{name}.biases[{l}]"))
    return MlpModel(widths, weights, biases, list(data["activations"]), frozenset(dropout_after))


def snapshot_params(params: list[np.ndarray]) -> list[np.ndarray]:
    return [p.copy() for p in params]


def restore_params(params: list[np.ndarray], snapshot: list[np.ndarray]) -> None:
    if len(params) != len(snapshot):
        raise ValueError("snapshot does not match parameter list")
    for p, s in zip(params, snapshot):
        p[...] = s

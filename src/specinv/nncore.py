"""Minimal dense-network engine.

Plain-numpy multilayer perceptrons with SiLU activations, inverted dropout,
reverse-mode gradients replayed from an activation tape, an Adam optimizer,
early stopping, and a bit-exact JSON checkpoint format.  All arithmetic is
64-bit.
"""

from __future__ import annotations

import csv
import json
import math
from array import array
from dataclasses import dataclass, field
from itertools import islice, zip_longest
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


def glorot(fan_in: int, fan_out: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """One affine layer's Glorot-uniform (fan_out, fan_in) weights and zero biases."""
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_out, fan_in)), np.zeros(fan_out)


def init_mlp(
    layer_widths: list[int],
    rng: np.random.Generator,
    activations: list[str] | None = None,
    dropout_after: frozenset[int] | set[int] = frozenset(),
) -> MlpModel:
    """Glorot-uniform weights, zero biases; SiLU everywhere unless overridden."""
    if activations is None:
        activations = [ACT_SILU] * (len(layer_widths) - 1)
    weights, biases = zip(*(glorot(a, b, rng) for a, b in zip(layer_widths, layer_widths[1:])))
    return MlpModel(
        layer_widths=list(layer_widths),
        weights=list(weights),
        biases=list(biases),
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
    act_grad: np.ndarray | None  # the activation's derivative at the layer's pre-activation
    mask: np.ndarray | None


@dataclass
class Tape:
    """Activation record from one train-mode forward pass; replays dropout masks exactly."""

    records: list[_LayerRecord | None]
    batch_size: int


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
    identity and the output does not depend on ``rng``.  Only train mode
    records the tape ``backward`` needs, always for a batch: a vector's tape
    takes a (1, output_width) gradient.  An eval tape is empty, so each layer's
    activations are freed as the pass goes.
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
            act_grad = _silu_grad(z, sig) if train else None
            h = np.multiply(z, sig, out=z)
            del sig  # or it lingers beside the next layer's arrays
        else:
            h, act_grad = z, None
        mask = None
        if use_dropout and l in model.dropout_after:
            keep = 1.0 - dropout_rate
            # the draws of rng.random(h.shape), then 1/keep where a draw is below keep, else 0
            mask = rng.random(h.shape)
            np.less(mask, keep, out=mask)
            mask /= keep
            h = h * mask
        if train:
            records.append(_LayerRecord(inputs=a, act_grad=act_grad, mask=mask))
        a = h
    out = a[0] if single else a
    return out, Tape(records, a.shape[0])


def backward(model: MlpModel, tape: Tape, output_gradient: np.ndarray) -> list[np.ndarray]:
    """Gradients of a scalar loss w.r.t. every weight and bias, ordered like
    ``model.parameters()``.

    ``output_gradient`` is dLoss/dOutput, one row per sample of the tape's batch (any
    1/batch factors belong to the caller).  Each layer's record leaves the tape once its
    gradients exist, so a tape is replayed once and freed as the pass goes.
    """
    g = np.asarray(output_gradient, dtype=np.float64)
    grads: list[np.ndarray] = []
    for l in reversed(range(model.n_layers)):
        rec, tape.records[l] = tape.records[l], None
        if rec.mask is not None:
            g = g * rec.mask
        if rec.act_grad is not None:
            g = g * rec.act_grad
        grads[:0] = g.T @ rec.inputs, np.sum(g, axis=0)  # layer l's weight, then its bias
        if l:  # no caller reads the input's gradient
            g = g @ model.weights[l]
    return grads


MOMENT1_DECAY = 0.9
MOMENT2_DECAY = 0.999
ADAM_EPSILON = 1e-8
# elements per Adam block: five 256 KiB slices (parameter, gradient, moments, work) fit 2 MiB L2
ADAM_BLOCK = 32768


@dataclass
class AdamState:
    """Adam over the arrays ``adam_init`` was given, with moments as running sums
    ``M = m/(1-β1)``, ``V = v/(1-β2)`` that only the block views below hold."""

    learning_rate: float
    step_count: int = 0
    # (array index, slice, parameter view, M view, V view, work view) per block
    _blocks: list[tuple] = field(default_factory=list, repr=False, compare=False)


def adam_init(params: list[np.ndarray], learning_rate: float) -> AdamState:
    """Zero moments for ``params``; ``adam_step`` updates these very arrays through views."""
    if not all(p.flags.c_contiguous for p in params):
        raise ValueError("Adam parameters must be C-contiguous, or a copy's updates miss the model")
    state = AdamState(learning_rate)
    work = np.empty(min(ADAM_BLOCK, max((p.size for p in params), default=0)))
    for i, p in enumerate(params):
        p = p.reshape(-1)
        m, v = np.zeros_like(p), np.zeros_like(p)
        for s in (slice(lo, lo + ADAM_BLOCK) for lo in range(0, p.size, ADAM_BLOCK)):
            state._blocks.append((i, s, p[s], m[s], v[s], work[: len(p[s])]))
    return state


def adam_step(grads: list[np.ndarray], state: AdamState) -> None:
    """One bias-corrected Adam update in place on the state's parameters, in ten passes
    per block; ``grads`` are ordered and sized like them.

    Kingma and Ba's ``lr m̂ / (sqrt(v̂) + ε)`` is ``c M / (sqrt(V) + ε / r)``, with
    ``r = sqrt((1 - β2) / (1 - β2^t))`` and ``c = lr (1 - β1) / ((1 - β1^t) r)``.
    """
    state.step_count += 1
    t = state.step_count
    r = math.sqrt((1.0 - MOMENT2_DECAY) / (1.0 - MOMENT2_DECAY**t))
    c = state.learning_rate * (1.0 - MOMENT1_DECAY) / ((1.0 - MOMENT1_DECAY**t) * r)
    eps = ADAM_EPSILON / r
    flat = [g.reshape(-1) for g in grads]
    for i, s, p, m, v, work in state._blocks:
        g = flat[i][s].reshape(p.shape)  # raises on a wrong-sized gradient, which could broadcast
        m *= MOMENT1_DECAY
        m += g
        v *= MOMENT2_DECAY
        np.multiply(g, g, out=work)
        v += work
        np.sqrt(v, out=work)
        work += eps
        np.divide(m, work, out=work)
        work *= c
        p -= work


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

    def improves(self, epoch_val_loss: float) -> bool:  # whether update keeps its checkpoint
        return epoch_val_loss < self.best_val_loss - self.min_delta  # False for NaN

    def update(self, epoch_val_loss: float, checkpoint: object) -> bool:
        if not math.isfinite(epoch_val_loss):
            raise TrainingDivergedError(
                f"validation loss {epoch_val_loss!r} at epoch {self.epoch + 1}"
            )
        self.epoch += 1
        if self.improves(epoch_val_loss):
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


_CSV_BLOCK = 128  # records converted at a time, while their cells are still in cache


def read_csv(path: str | Path, columns: dict[str, Callable[[str], object]]
             ) -> tuple[dict[str, list | array], list[int]]:
    """A ``write_csv`` file of ``columns``: each column's cells, converted by the column's
    function, and the line each record starts on (a quoted cell may span lines).  An
    ``int`` or ``str`` column is a list; any other, which ``write_csv`` formats with
    ``%.17g``, is an ``array('d')``, 8 bytes a cell.  The header must be exactly
    ``columns``.  Text that is not UTF-8 or not CSV, a header that differs (naming the
    first column that does), a record of another length, a cell that does not convert, or
    a file without rows raises ``DatasetFormatError`` naming the file and the line the
    record starts on."""
    names = list(columns)
    table = {name: [] if kind in (int, str) else array("d") for name, kind in columns.items()}
    starts, start = [], 1

    def records():
        nonlocal start
        for record in reader:
            starts.append(start)
            start = reader.line_num + 1
            yield record

    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, [])
            if header != names:
                i, got, want = next((i, got, want) for i, (got, want)
                                    in enumerate(zip_longest(header, names)) if got != want)
                raise DatasetFormatError(
                    f"{path}: line 1: column {i + 1} is {'missing' if got is None else repr(got)}, "
                    f"expected {want or 'the header to end'}")
            start = reader.line_num + 1
            rest = records()
            while block := list(islice(rest, _CSV_BLOCK)):
                try:  # the strict zips fail on a record of another length
                    for (name, convert), cells in zip(columns.items(), zip(*block, strict=True),
                                                      strict=True):
                        table[name].extend(map(convert, cells))
                except ValueError:  # name the block's first bad record
                    for line, record in zip(starts[-len(block):], block):
                        try:
                            for (name, convert), cell in zip(columns.items(), record, strict=True):
                                convert(cell)
                        except ValueError:
                            raise DatasetFormatError(f"{path}: line {line}: " + (
                                f"expected {len(names)} columns, got {len(record)}"
                                if len(record) != len(names) else
                                f"cannot read {name} from {cell!r}")) from None
                    raise
        except csv.Error as exc:  # a field over the csv module's size limit, say
            raise DatasetFormatError(f"{path}: line {start}: {exc}") from None
        except UnicodeDecodeError:
            read_text(path)  # raises, naming the line that holds the bytes
            raise
    if not starts:
        raise DatasetFormatError(f"{path}: no rows after the header")
    return table, starts


def _json_fragments(obj, write: Callable[[str], object], indent: int) -> None:
    """What checkpoints hold: dicts, lists, 1-D and 2-D float arrays, ints, strs.

    A float array is one string: the hex of its little-endian float64 bytes in
    row-major order, 16 digits per element; ``checkpoint_array`` reads it back."""
    pad = "  " * indent
    if isinstance(obj, np.ndarray) and obj.dtype.kind == "f" and obj.ndim in (1, 2):
        if not np.isfinite(obj).all():
            bad = float(obj[~np.isfinite(obj)][0])
            raise ValueError(f"non-finite value {bad!r} cannot be checkpointed")
        write('"' + np.ascontiguousarray(obj, "<f8").tobytes().hex() + '"')
    elif isinstance(obj, dict):
        write("{\n")
        for i, (key, value) in enumerate(obj.items()):
            write(f'{pad}  {json.dumps(str(key))}: ')
            _json_fragments(value, write, indent + 1)
            write(",\n" if i < len(obj) - 1 else "\n")
        write(pad + "}")
    elif isinstance(obj, list):
        write("[")
        for i, value in enumerate(obj):
            if i:
                write(", ")
            _json_fragments(value, write, indent + 1)
        write("]")
    elif isinstance(obj, (int, str)):
        write(json.dumps(obj))
    else:  # floats only ever reach a checkpoint inside a float array
        raise TypeError(f"cannot checkpoint a {type(obj).__name__} value")


def save_checkpoint(path: str | Path, payload: dict) -> None:
    """Encode ``payload`` into ``path`` fragment by fragment; a rejected one leaves no file."""
    with open(path, "w", encoding="utf-8") as fh:
        try:
            _json_fragments(payload, fh.write, 0)
            fh.write("\n")
        except BaseException:
            fh.close()
            Path(path).unlink()
            raise


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


def snapshot_params(params: list[np.ndarray], into: list | None = None) -> list[np.ndarray]:
    """``params`` copied into ``into``, an earlier snapshot's arrays, or into new arrays."""
    into = [np.empty_like(p) for p in params] if into is None else into
    for s, p in zip(into, params):
        s[...] = p
    return into


def restore_params(params: list[np.ndarray], snapshot: list[np.ndarray]) -> None:
    for p, s in zip(params, snapshot):
        p[...] = s

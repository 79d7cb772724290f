"""Span recording for the specinv benchmark, installed from outside the package.

The tracer replaces module attributes of specinv with wrappers that record one
span per call: name, start and end (``time.perf_counter_ns``, which reads the
system-wide monotonic clock, so spans from child processes line up with the
harness), the index of the enclosing span, and the op id.  Spans stay in
memory and are written out once, at the end.

A name bound with ``from ... import`` is a second reference to the function,
so it is patched where it is looked up (``train_mdn`` in ``transfer`` and
``cli``).  ``EarlyStopping.update`` is patched on its class, which both
training loops share; it counts snapshots and the improving epochs that keep
them instead of recording a span.
"""

from __future__ import annotations

import functools
import json
import os
import time

# span fields: name, start_ns, end_ns, parent index (-1 for none), op id, info
NAME, START, END, PARENT, OP, INFO = range(6)


def _mlp_matmul_flop(model, rows: int) -> int:
    """2 * rows * sum(in * out): multiply-adds of one pass over the affine layers."""
    widths = model.layer_widths
    return 2 * rows * sum(a * b for a, b in zip(widths[:-1], widths[1:]))


class Tracer:
    """In-memory span list plus the patches that feed it; ``uninstall`` restores."""

    def __init__(self, op=None):
        self.spans: list[list] = []
        self.counts: dict[tuple, int] = {}
        self.op = op
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # --- recording -------------------------------------------------------------

    def begin(self, name: str) -> int:
        """Open a span around code that is not a wrapped call; returns its index."""
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self.op, None])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def end(self, idx: int) -> None:
        self.spans[idx][END] = time.perf_counter_ns()
        self._stack.pop()

    def count(self, key: str) -> None:
        k = (self.op, key)
        self.counts[k] = self.counts.get(k, 0) + 1

    def wrap(self, fn, name, info=None):
        """Wrapper recording a span named ``name``, or ``name(args, kwargs, parent)``
        where ``parent`` is the name of the enclosing span (None at top level)."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        fixed = isinstance(name, str)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            label = name if fixed else name(args, kwargs, spans[parent][NAME] if stack else None)
            idx = len(spans)
            spans.append([label, clock(), 0, parent, self.op, None])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][END] = clock()
            if info is not None:
                spans[idx][INFO] = info(args, kwargs, result)
            return result

        return wrapper

    def patch(self, owners, attr: str, name, info=None) -> None:
        """Replace ``attr`` on every owner with one shared wrapper of the first owner's."""
        original = getattr(owners[0], attr)
        wrapper = self.wrap(original, name, info)
        for owner in owners:
            self._patches.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # --- persistence -----------------------------------------------------------

    def dump(self, path) -> None:
        payload = {
            "spans": self.spans,
            "counts": [[op, key, n] for (op, key), n in self.counts.items()],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)


def _arg(args, kwargs, pos: int, key: str):
    return args[pos] if len(args) > pos else kwargs[key]


def _forward_name(args, kwargs, parent) -> str:
    # train_ae runs its training forwards without the train flag (no dropout);
    # its validation passes go through the wrapped encode and decode instead
    if kwargs.get("train", args[2] if len(args) > 2 else False) or parent == "autoencoder.train_ae":
        return "nncore.forward.train"
    x = _arg(args, kwargs, 1, "x")
    return "nncore.forward.single" if getattr(x, "ndim", 2) == 1 else "nncore.forward.eval"


def _forward_flop(args, kwargs, result):
    out, _ = result
    rows = 1 if out.ndim == 1 else out.shape[0]
    return _mlp_matmul_flop(_arg(args, kwargs, 0, "model"), rows)


def _backward_flop(args, kwargs, result):
    # weight gradient plus input gradient: two matmuls per layer
    tape = _arg(args, kwargs, 1, "tape")
    return 2 * _mlp_matmul_flop(_arg(args, kwargs, 0, "model"), tape.batch_size)


def _file_bytes(args, kwargs, result):
    return os.path.getsize(_arg(args, kwargs, 0, "path"))


def _train_rows(args, kwargs, result):
    data = _arg(args, kwargs, 1, "data")
    return result.epochs * data.train_x.shape[0]


def _ae_rows(args, kwargs, result):
    return result.epochs * _arg(args, kwargs, 0, "train_spectra").shape[0]


def install(tracer: Tracer) -> None:
    """Patch every benchmarked specinv function so calls land in ``tracer``."""
    from specinv import autoencoder, cli, dataset, mdn, nncore, train, transfer

    tracer.patch([cli], "main", "cli.main")
    for fn in ("generate_designs", "surrogate_spectra", "save_dataset", "load_dataset"):
        tracer.patch([dataset], fn, f"dataset.{fn}")
    tracer.patch([nncore], "forward", _forward_name, _forward_flop)
    tracer.patch([nncore], "backward", "nncore.backward", _backward_flop)
    for fn in ("adam_step", "snapshot_params", "restore_params"):
        tracer.patch([nncore], fn, f"nncore.{fn}")
    tracer.patch([nncore], "save_checkpoint", "nncore.save_checkpoint", _file_bytes)
    tracer.patch([nncore], "load_checkpoint", "nncore.load_checkpoint", _file_bytes)
    for fn in ("batch_nll_and_grads", "batch_nll", "mixture_for", "predict_modes",
               "save_mdn", "load_mdn"):
        tracer.patch([mdn], fn, f"mdn.{fn}")
    tracer.patch([train, transfer, cli], "train_mdn", "train.train_mdn", _train_rows)
    for fn in ("sweep", "grow", "perturb_new_component"):
        tracer.patch([transfer], fn, f"transfer.{fn}")
    tracer.patch([autoencoder], "train_ae", "autoencoder.train_ae", _ae_rows)
    for fn in ("encode", "decode"):
        tracer.patch([autoencoder], fn, f"autoencoder.{fn}")

    original_update = nncore.EarlyStopping.update

    @functools.wraps(original_update)
    def update(self, epoch_val_loss, checkpoint):
        stop = original_update(self, epoch_val_loss, checkpoint)
        tracer.count("snapshots")
        if self.best_checkpoint is checkpoint:
            tracer.count("snapshots_kept")
        return stop

    tracer._patches.append((nncore.EarlyStopping, "update", original_update))
    nncore.EarlyStopping.update = update

"""Desk-scale differentiable classifier: a D -> H -> K MLP with tanh hidden
activation and softmax output, trained by plain SGD with momentum.

Two losses are supported: cross-entropy against integer labels, and KL
divergence from caller-supplied target distributions to the model output
(the target is the left argument).  Everything runs in float64 and is
bitwise deterministic for a fixed seed with single-threaded BLAS.  The SGD
loop runs on the calling thread; fine-tuning evaluates each epoch's snapshot
on one helper thread, one epoch behind, on a copy of the weights, so the
overlap changes no result.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, LayoutError, ShapeError, UsageError
from .probmatrix import FLOOR, ProbMatrix, kl_rows

_CKPT_MAGIC = b"UNLMDL01"
_CKPT_VERSION = 1


@dataclass(frozen=True)
class ModelLayout:
    d_in: int
    hidden: int
    n_classes: int

    def __post_init__(self):
        if min(self.d_in, self.hidden, self.n_classes) < 1:
            raise LayoutError(f"all dimensions must be >= 1, got {self}")


@dataclass
class ModelParams:
    """Weights of the classifier plus the layout and init seed."""

    layout: ModelLayout
    seed: int
    w1: np.ndarray  # (D, H)
    b1: np.ndarray  # (H,)
    w2: np.ndarray  # (H, K)
    b2: np.ndarray  # (K,)

    def copy(self) -> "ModelParams":
        return ModelParams(
            self.layout, self.seed,
            self.w1.copy(), self.b1.copy(), self.w2.copy(), self.b2.copy(),
        )

    def tensors(self):
        return (self.w1, self.b1, self.w2, self.b2)


@dataclass
class TrainConfig:
    """Hyperparameters for SGD training / fine-tuning.

    ``loss`` is "cross-entropy" or "kl".  An epoch count of 0 is allowed and
    makes training the identity.
    """

    lr: float
    epochs: int
    batch_size: int = 32
    momentum: float = 0.9
    seed: int = 0
    loss: str = "cross-entropy"

    def __post_init__(self):
        if self.lr <= 0:
            raise UsageError(f"learning rate must be > 0, got {self.lr}")
        if self.epochs < 0:
            raise UsageError(f"epoch count must be >= 0, got {self.epochs}")
        if self.batch_size < 1:
            raise UsageError(f"batch size must be >= 1, got {self.batch_size}")
        if not 0.0 <= self.momentum < 1.0:
            raise UsageError(f"momentum must be in [0, 1), got {self.momentum}")
        if self.loss not in ("cross-entropy", "kl"):
            raise UsageError(f"unknown loss kind {self.loss!r}")


@dataclass
class CheckpointEntry:
    epoch: int
    params: ModelParams
    metrics: dict = field(default_factory=dict)


@dataclass
class CheckpointSet:
    """Per-epoch snapshots from a fine-tuning run, epoch indices increasing."""

    entries: list
    initial_loss: float = float("nan")

    def __post_init__(self):
        epochs = [e.epoch for e in self.entries]
        if any(b <= a for a, b in zip(epochs, epochs[1:])):
            raise UsageError(f"epoch indices must strictly increase: {epochs}")

    def __len__(self):
        return len(self.entries)


def init_model(layout: ModelLayout, seed: int) -> ModelParams:
    """Seeded uniform init in [-s, s] with s = 1/sqrt(fan-in), per layer."""
    rng = np.random.default_rng(seed)
    s1 = 1.0 / np.sqrt(layout.d_in)
    s2 = 1.0 / np.sqrt(layout.hidden)
    return ModelParams(
        layout=layout,
        seed=seed,
        w1=rng.uniform(-s1, s1, (layout.d_in, layout.hidden)),
        b1=rng.uniform(-s1, s1, layout.hidden),
        w2=rng.uniform(-s2, s2, (layout.hidden, layout.n_classes)),
        b2=rng.uniform(-s2, s2, layout.n_classes),
    )


def _softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def _forward(params: ModelParams, X: np.ndarray, out=None):
    """Hidden activations and logits.  ``out`` is an optional pair of
    (n, hidden) and (n, K) arrays that receive them with the same arithmetic,
    so that repeated passes over the same rows allocate nothing."""
    if out is None:
        a1 = np.tanh(X @ params.w1 + params.b1)
        logits = a1 @ params.w2 + params.b2
        return a1, logits
    a1, logits = out
    np.matmul(X, params.w1, out=a1)
    a1 += params.b1
    np.tanh(a1, out=a1)
    np.matmul(a1, params.w2, out=logits)
    logits += params.b2
    return a1, logits


def _check_inputs(params: ModelParams, X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != params.layout.d_in:
        raise ShapeError(
            f"inputs of shape {X.shape} do not match input width "
            f"{params.layout.d_in}"
        )
    return X


def forward_probs(params: ModelParams, X, row_ids=None) -> ProbMatrix:
    """Class-probability matrix for a batch of inputs (floored, normalized)."""
    X = _check_inputs(params, X)
    _, logits = _forward(params, X)
    return ProbMatrix(_softmax(logits), row_ids=row_ids)


def predict_labels(params: ModelParams, X) -> np.ndarray:
    X = _check_inputs(params, X)
    _, logits = _forward(params, X)
    return logits.argmax(axis=1)


def _normalized_weights(n, row_weights):
    if row_weights is None:
        return np.full(n, 1.0 / n)
    return row_weights / row_weights.sum()


def _mean_loss(probs, T, w, kind):
    """Loss of model outputs ``probs`` against targets ``T``, averaged with
    row weights ``w`` that sum to one."""
    if kind == "cross-entropy":
        # T is one-hot here; CE = -log p_label.
        p_true = np.maximum((probs * T).sum(axis=1), FLOOR)
        return float(-(w * np.log(p_true)).sum())
    P = np.maximum(probs, FLOOR)
    return float((w * np.sum(T * np.log(T / P), axis=1)).sum())


def _loss_and_grads(params, X, y_onehot_or_targets, kind, row_weights=None):
    """Weighted-mean loss plus gradients w.r.t. every parameter tensor.

    The loss is the weighted mean over the given rows (weights normalized
    here), so learning-rate semantics match plain mini-batch SGD.  For both
    losses the logit gradient is (probs - target) scaled by the normalized
    weight, because the targets are proper distributions.
    """
    a1, logits = _forward(params, X)
    probs = _softmax(logits)
    T = y_onehot_or_targets
    w = _normalized_weights(X.shape[0], row_weights)
    loss = _mean_loss(probs, T, w, kind)
    dlogits = w[:, None] * (probs - T)
    dw2 = a1.T @ dlogits
    db2 = dlogits.sum(axis=0)
    da1 = dlogits @ params.w2.T
    dz1 = da1 * (1.0 - a1 * a1)
    dw1 = X.T @ dz1
    db1 = dz1.sum(axis=0)
    return loss, (dw1, db1, dw2, db2)


def _momentum_step(params, vel, grads, cfg) -> None:
    """One SGD-with-momentum update of ``params`` and the velocities ``vel``,
    in place: v <- momentum * v - lr * g, then w <- w + v."""
    for i, (t, g) in enumerate(zip(params.tensors(), grads)):
        vel[i] = cfg.momentum * vel[i] - cfg.lr * g
        t += vel[i]


def _sgd_epochs(params, X, T, cfg, kind, row_weights, after_epoch=None):
    """Shared mini-batch SGD loop; calls ``after_epoch(epoch, params)``."""
    params = params.copy()
    rng = np.random.default_rng(cfg.seed)
    vel = [np.zeros_like(t) for t in params.tensors()]
    n = X.shape[0]
    for epoch in range(1, cfg.epochs + 1):
        order = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            rows = order[start:start + cfg.batch_size]
            bw = None if row_weights is None else row_weights[rows]
            _, grads = _loss_and_grads(params, X[rows], T[rows], kind, bw)
            _momentum_step(params, vel, grads, cfg)
        if after_epoch is not None:
            after_epoch(epoch, params)
    return params


def train_ce(params: ModelParams, inputs, labels, cfg: TrainConfig) -> ModelParams:
    """Cross-entropy training; returns new params, input left untouched."""
    if cfg.loss != "cross-entropy":
        raise UsageError(f"train_ce requires loss='cross-entropy', got {cfg.loss!r}")
    X = _check_inputs(params, inputs)
    y = np.asarray(labels, dtype=np.int64)
    K = params.layout.n_classes
    if y.ndim != 1 or y.shape[0] != X.shape[0]:
        raise ShapeError(f"labels of shape {y.shape} do not match {X.shape[0]} rows")
    if y.size and (y.min() < 0 or y.max() >= K):
        raise DataError(f"labels must lie in [0, {K}), got range "
                        f"[{y.min()}, {y.max()}]")
    T = np.zeros((X.shape[0], K))
    T[np.arange(X.shape[0]), y] = 1.0
    return _sgd_epochs(params, X, T, cfg, "cross-entropy", None)


def kl_loss(params: ModelParams, inputs, targets: ProbMatrix,
            row_weights=None) -> float:
    """Weighted mean KL(target || model output) over all rows (forward pass
    only; the same value ``_loss_and_grads`` returns)."""
    X = _check_inputs(params, inputs)
    _, logits = _forward(params, X)
    return _mean_loss(_softmax(logits), targets.values,
                      _normalized_weights(X.shape[0], row_weights), "kl")


def _eval_rows(params: ModelParams, rows, n: int) -> np.ndarray:
    """An eval subset's rows: 1-D positions into the inputs, or an input
    matrix of its own."""
    rows = np.asarray(rows)
    if rows.ndim != 1:
        return _check_inputs(params, rows)
    if rows.size and (rows.dtype.kind not in "iu" or rows.min() < 0
                      or rows.max() >= n):
        raise ShapeError(f"eval positions must be integers in [0, {n})")
    return rows


def finetune_kl(params: ModelParams, inputs, targets, cfg: TrainConfig,
                eval_sets=None, row_weights=None) -> CheckpointSet:
    """Fine-tune toward target distributions, snapshotting every epoch.

    Args:
        targets: ProbMatrix (or array of stochastic rows) aligned with inputs.
        eval_sets: optional {name: (rows, y)}, where ``rows`` is a 1-D array
            of positions into ``inputs`` or an input matrix of its own, and
            ``y`` holds one label per row.  Each snapshot records the error
            percentage on every named subset; with ``y=None`` it records
            instead the mean KL divergence of the snapshot's outputs on those
            rows from the outputs of ``params``.
        row_weights: optional per-row positive weights for the loss (used to
            weight retain rows by lambda); normalized internally.

    A snapshot runs one forward pass over ``inputs`` and no backward pass:
    its ``kl_loss`` and the metrics of every positional subset come from
    those logits, so only a subset given as an input matrix costs a forward
    pass of its own.  The reference outputs for ``y=None`` subsets come from
    the same kind of pass over ``params``, made once before training.  Each
    snapshot is evaluated on one helper thread while the calling thread runs
    the next epoch's SGD; entries are completed on the calling thread, in
    epoch order.

    Returns a CheckpointSet with one entry per epoch; ``initial_loss`` holds
    the full-data loss before any update.
    """
    if cfg.loss != "kl":
        raise UsageError(f"finetune_kl requires loss='kl', got {cfg.loss!r}")
    X = _check_inputs(params, inputs)
    if not isinstance(targets, ProbMatrix):
        targets = ProbMatrix(targets)
    if targets.n_rows != X.shape[0]:
        raise ShapeError(
            f"{targets.n_rows} target rows for {X.shape[0]} inputs"
        )
    if targets.n_classes != params.layout.n_classes:
        raise ShapeError(
            f"targets have {targets.n_classes} classes, model has "
            f"{params.layout.n_classes}"
        )
    if row_weights is not None:
        row_weights = np.asarray(row_weights, dtype=np.float64)
        if row_weights.shape != (X.shape[0],):
            raise ShapeError("row_weights must have one entry per input row")
        if row_weights.min() <= 0:
            raise UsageError("row_weights must be positive")
    sets = {}
    for name, (rows, y) in (eval_sets or {}).items():
        rows = _eval_rows(params, rows, X.shape[0])
        if y is not None:
            y = np.asarray(y)
            if y.shape != rows.shape[:1]:
                raise ShapeError(f"eval set {name!r}: labels of shape "
                                 f"{y.shape} for {rows.shape[0]} rows")
        sets[name] = (rows, y)

    T = targets.values
    w = _normalized_weights(X.shape[0], row_weights)

    # every snapshot's passes write into the same buffers: fresh arrays of
    # this size would each be mapped from the OS and fault their pages in
    def buffers(rows):
        return (np.empty((rows.shape[0], params.layout.hidden)),
                np.empty((rows.shape[0], params.layout.n_classes)))
    x_pass = buffers(X)
    passes = {name: buffers(rows) for name, (rows, _) in sets.items()
              if rows.ndim != 1}

    def subset_logits(p, logits, name):
        rows = sets[name][0]
        if rows.ndim == 1:
            return logits[rows]
        return _forward(p, rows, passes[name])[1]

    def measure(p, names):
        """Loss plus the logits of the named eval subsets, from one pass;
        logits of an input-matrix subset stay valid until the next call."""
        _, logits = _forward(p, X, x_pass)
        return (_mean_loss(_softmax(logits), T, w, "kl"),
                {name: subset_logits(p, logits, name) for name in names})

    drift = [name for name, (_, y) in sets.items() if y is None]
    initial_loss, start = measure(params, drift)
    refs = {name: ProbMatrix(_softmax(start[name])) for name in drift}

    def evaluate(p):
        """A snapshot's metrics, with each drift subset's outputs in place of
        its divergence; nothing returned refers to the reused pass buffers."""
        # call nothing perfbench/spans.py wraps; spans from here would misnest
        loss, logits = measure(p, sets)
        metrics = {"kl_loss": loss}
        for name, (_, y) in sets.items():
            if y is None:
                metrics[name] = ProbMatrix(_softmax(logits[name]))
            else:
                wrong = logits[name].argmax(axis=1) != y
                metrics[name] = 100.0 * float(np.mean(wrong))
        return metrics

    entries = []

    def finish(epoch, p, evaluation):
        metrics = evaluation.result()
        for name in drift:
            metrics[name] = float(kl_rows(metrics[name], refs[name]).mean())
        entries.append(CheckpointEntry(epoch, p, metrics))

    # imported here, not at the top: it loads logging, which would add to
    # the import time of every ppunlearn process
    from concurrent.futures import ThreadPoolExecutor

    # the next epoch's SGD overlaps the evaluation of this one's snapshot;
    # leaving the block joins the worker, also when either thread raised
    with ThreadPoolExecutor(max_workers=1) as pool:
        pending = []

        def snapshot(epoch, p):
            p = p.copy()
            pending.append((epoch, p, pool.submit(evaluate, p)))
            if len(pending) > 1:
                finish(*pending.pop(0))

        _sgd_epochs(params, X, T, cfg, "kl", row_weights, snapshot)
        for item in pending:
            finish(*item)
    return CheckpointSet(entries, initial_loss=initial_loss)


def save_model(params: ModelParams, path, epoch=None, error_rates=None) -> None:
    """Write the versioned binary checkpoint plus its JSON sidecar.

    Layout: 8-byte magic, u32 version, u32 D/H/K, then w1, b1, w2, b2 as
    little-endian float64 in row-major order.  The sidecar (``path`` +
    ".json") records seed, epoch and error rates.
    """
    lay = params.layout
    with open(path, "wb") as fh:
        fh.write(_CKPT_MAGIC)
        fh.write(struct.pack("<IIII", _CKPT_VERSION, lay.d_in, lay.hidden,
                             lay.n_classes))
        for t in params.tensors():
            fh.write(np.ascontiguousarray(t, dtype="<f8").tobytes())
    sidecar = {
        "seed": int(params.seed),
        "epoch": epoch,
        "error_rates": error_rates or {},
    }
    with open(str(path) + ".json", "w", encoding="utf-8") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)


def load_model(path):
    """Read a checkpoint; returns (ModelParams, sidecar dict).

    The file must hold exactly the header and the four tensors it sizes,
    with every weight finite; anything else raises DataError.
    """
    with open(path, "rb") as fh:
        magic = fh.read(8)
        if magic != _CKPT_MAGIC:
            raise DataError(f"{path}: bad magic {magic!r}")
        header = fh.read(16)
        if len(header) != 16:
            raise DataError(f"{path}: truncated checkpoint")
        version, d, h, k = struct.unpack("<IIII", header)
        if version != _CKPT_VERSION:
            raise DataError(f"{path}: unsupported checkpoint version {version}")
        layout = ModelLayout(d, h, k)
        shapes = [(d, h), (h,), (h, k), (k,)]
        tensors = []
        for shape in shapes:
            count = int(np.prod(shape))
            raw = fh.read(count * 8)
            if len(raw) != count * 8:
                raise DataError(f"{path}: truncated checkpoint")
            tensors.append(
                np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(shape)
            )
        if fh.read(1):
            raise DataError(f"{path}: trailing bytes after the weights")
    if not all(np.isfinite(t).all() for t in tensors):
        raise DataError(f"{path}: non-finite weight")
    try:
        with open(str(path) + ".json", "r", encoding="utf-8") as fh:
            sidecar = json.load(fh)
    except FileNotFoundError:
        sidecar = {}
    except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
        raise DataError(f"{path}.json: not valid JSON: {exc}") from exc
    params = ModelParams(layout, int(sidecar.get("seed", -1)), *tensors)
    return params, sidecar

"""Desk-scale differentiable classifier: a D -> H -> K MLP with tanh hidden
activation and softmax output, trained by plain SGD with momentum.

Two losses are supported: cross-entropy against integer labels, and KL
divergence from caller-supplied target distributions to the model output
(the target is the left argument).  Everything runs in float64 and is
bitwise deterministic for a fixed seed with single-threaded BLAS.  The SGD
loop is an iterator that trains the weights in place on the calling thread.
The parameters are one flat vector in checkpoint order, the weight tensors
being views of it, so a snapshot is one copy and a checkpoint one block.
Both SGD loops, this module's and NegGrad+'s, keep their velocity and
gradients in vectors parallel to it and update every weight with one
momentum step.  The inputs carry a trailing column of ones, so b1 rides in
the first layer's GEMMs: the forward pass multiplies by the block [w1; b1]
and one GEMM writes [dw1; db1].  That is bitwise identical to separate bias
terms while the GEMM sums its inner dimension (the input width + 1 forward,
the batch rows for db1) in one block.  Each epoch gathers its shuffled rows
once into epoch buffers; a step reads a contiguous slice of them and writes
its activations and gradients into one workspace, so it allocates no array
and computes no loss.  One function, ``measure``, evaluates a model on
chosen rows with one forward pass.  Fine-tuning trains and measures
nothing: it hands each epoch's weight copy to its caller's consumer, which
measures it, on the calling thread, before the next epoch starts.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, LayoutError, ShapeError, UsageError
from .fileio import atomic_open, read_json, write_json
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

    @property
    def shapes(self):
        """The shapes of w1, b1, w2 and b2, in checkpoint order."""
        d, h, k = self.d_in, self.hidden, self.n_classes
        return ((d, h), (h,), (h, k), (k,))


@dataclass
class ModelParams:
    """The classifier's weights, one vector ``flat`` in checkpoint order
    whose parts w1, b1, w2 and b2 are views, plus the layout and init seed.
    ``w1b1`` views w1 and b1 as one block, w1's rows then b1."""

    layout: ModelLayout
    seed: int
    flat: np.ndarray

    def __post_init__(self):
        shapes = self.layout.shapes
        ends = np.cumsum([math.prod(shape) for shape in shapes])
        if self.flat.shape != (ends[-1],) or self.flat.dtype != np.float64:
            raise ShapeError(f"{self.layout} needs ({ends[-1]},) float64 "
                             f"weights, not {self.flat.shape} {self.flat.dtype}")
        self.w1, self.b1, self.w2, self.b2 = (
            part.reshape(shape)
            for part, shape in zip(np.split(self.flat, ends[:-1]), shapes))
        self.w1b1 = self.flat[:ends[1]].reshape(-1, self.layout.hidden)

    def copy(self) -> "ModelParams":
        return ModelParams(self.layout, self.seed, self.flat.copy())

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
        if not 0 < self.lr < math.inf:
            raise UsageError(f"lr: must be finite and > 0, got {self.lr}")
        if self.epochs < 0:
            raise UsageError(f"epochs: must be >= 0, got {self.epochs}")
        if self.seed < 0:
            raise UsageError(f"seed: must be >= 0, got {self.seed}")
        if self.batch_size < 1:
            raise UsageError(f"batch_size: must be >= 1, got {self.batch_size}")
        if not 0.0 <= self.momentum < 1.0:
            raise UsageError(f"momentum: must be in [0, 1), got {self.momentum}")
        if self.loss not in ("cross-entropy", "kl"):
            raise UsageError(f"loss: unknown kind {self.loss!r}")


@dataclass
class CheckpointEntry:
    epoch: int
    params: ModelParams
    metrics: dict = field(default_factory=dict)


@dataclass
class CheckpointSet:
    """Snapshots from a fine-tuning run, epoch indices increasing: every
    epoch's from ``finetune_kl`` by default, or the ones a caller kept."""

    entries: list

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
    return ModelParams(layout, seed, np.concatenate([
        rng.uniform(-s, s, math.prod(shape))
        for s, shape in zip((s1, s1, s2, s2), layout.shapes)]))


def _softmax(logits: np.ndarray, out=None, col=None) -> np.ndarray:
    """Row-wise softmax.  ``out`` (which may be ``logits`` itself) receives
    the result, and ``col``, an (n, 1) array, the row maxima and then the row
    sums, so that a caller passing both allocates nothing."""
    # the ufunc reductions np.max and np.sum dispatch to, minus their
    # Python-level wrappers
    col = np.maximum.reduce(logits, axis=1, keepdims=True, out=col)
    e = np.subtract(logits, col, out=out)
    np.exp(e, out=e)
    e /= np.add.reduce(e, axis=1, keepdims=True, out=col)
    return e


def _with_ones(params: ModelParams, X: np.ndarray) -> np.ndarray:
    """The rows of X in a copy with a trailing column of ones, which
    multiplies b1 in the first layer's GEMMs; inputs that already carry it
    come back as they are."""
    if X.shape[1] != params.layout.d_in:
        return X
    Xa = np.empty((X.shape[0], X.shape[1] + 1))
    Xa[:, :-1] = X
    Xa[:, -1] = 1.0
    return Xa


def _forward(params: ModelParams, X: np.ndarray, out=None):
    """Hidden activations and logits, written in place into ``out``, a pair
    of (n, hidden) and (n, K) arrays, or into a fresh pair; passing the same
    pair to repeated passes over the same rows allocates nothing, once the
    inputs carry their column of ones."""
    X = _with_ones(params, X)
    a1, logits = out or (np.empty((X.shape[0], params.layout.hidden)),
                         np.empty((X.shape[0], params.layout.n_classes)))
    np.matmul(X, params.w1b1, out=a1)
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


def _normalized_weights(n, row_weights, out=None):
    """Row weights scaled to sum to one; equal weights are the scalar 1/n."""
    if row_weights is None:
        return 1.0 / n
    return np.divide(row_weights, np.add.reduce(row_weights), out=out)


def _mean_loss(probs, T, w, kind):
    """Loss of model outputs ``probs`` against targets ``T``, averaged with
    row weights ``w`` that sum to one."""
    if kind == "cross-entropy":
        # T is one-hot here; CE = -log p_label.
        p_true = np.maximum((probs * T).sum(axis=1), FLOOR)
        return float(-(w * np.log(p_true)).sum())
    P = np.maximum(probs, FLOOR)
    return float((w * np.sum(T * np.log(T / P), axis=1)).sum())


class _Workspace:
    """The buffers one training run's SGD steps write into, for batches of
    up to ``rows`` rows; a shorter batch uses their leading rows.  The four
    gradient buffers ``grads`` are views of one flat vector ``g``, and
    ``dw1b1`` views dw1 and db1 as one block, as ``ModelParams.w1b1`` does."""

    def __init__(self, params: ModelParams, rows: int):
        h, k = params.layout.hidden, params.layout.n_classes
        self.w = np.empty(rows)             # normalized row weights
        self.a1 = np.empty((rows, h))       # activations, then 1 - a1 * a1
        self.da1 = np.empty((rows, h))      # da1, then dz1
        self.logits = np.empty((rows, k))   # logits, probs, then dlogits
        self.col = np.empty((rows, 1))      # row maxima, then row sums
        self.g = np.empty_like(params.flat)
        grads = ModelParams(params.layout, params.seed, self.g)
        self.grads, self.dw1b1 = grads.tensors(), grads.w1b1


def _loss_and_grads(params, X, y_onehot_or_targets, kind, row_weights=None,
                    ws=None):
    """Gradients w.r.t. every parameter tensor of the weighted-mean loss.

    The loss is the weighted mean over the given rows (weights normalized
    here), so learning-rate semantics match plain mini-batch SGD.  For both
    losses the logit gradient is (probs - target) scaled by the normalized
    weight, because the targets are proper distributions.

    With a workspace ``ws`` (the SGD step), every intermediate and the
    gradients are written into its buffers, and the loss is not computed:
    the first item of the result is None.  Without one, the call allocates
    its own buffers and returns ``(loss, grads)``.  Raw inputs, NegGrad+'s
    batches, get their column of ones in a copy; the SGD loop's carry it.
    """
    X = _with_ones(params, X)
    n = X.shape[0]
    with_loss = ws is None
    if with_loss:
        ws = _Workspace(params, n)
    a1, logits = _forward(params, X, (ws.a1[:n], ws.logits[:n]))
    probs = _softmax(logits, out=logits, col=ws.col[:n])
    T = y_onehot_or_targets
    w = _normalized_weights(n, row_weights, out=ws.w[:n])
    loss = _mean_loss(probs, T, w, kind) if with_loss else None
    dlogits = np.subtract(probs, T, out=probs)
    dlogits *= w if row_weights is None else w[:, None]
    _, _, dw2, db2 = ws.grads
    np.matmul(a1.T, dlogits, out=dw2)
    np.add.reduce(dlogits, axis=0, out=db2)
    dz1 = np.matmul(dlogits, params.w2.T, out=ws.da1[:n])
    np.multiply(a1, a1, out=a1)
    dz1 *= np.subtract(1.0, a1, out=a1)
    # the ones column sums dz1 over the rows into db1
    np.matmul(X.T, dz1, out=ws.dw1b1)
    return loss, ws.grads


def _momentum_step(flat, vel, g, cfg) -> None:
    """One SGD-with-momentum update, in place, of every weight in ``flat``
    and its velocity ``vel``: v <- momentum * v - lr * g, then w <- w + v,
    with the gradient ``g`` overwritten by lr * g."""
    vel *= cfg.momentum
    vel -= np.multiply(g, cfg.lr, out=g)
    flat += vel


def _sgd_epochs(params, X, T, cfg, kind, row_weights):
    """Mini-batch SGD on ``params``, in place; yields each finished epoch.

    Each step makes one momentum update of ``params.flat``.  The raw inputs
    get their column of ones once per run.  Each epoch gathers its shuffled
    inputs, targets and row weights once into epoch buffers, and each step
    reads a contiguous slice of them and writes into one workspace that the
    run allocates up front.
    """
    vel = np.zeros_like(params.flat)
    rng = np.random.default_rng(cfg.seed)
    X = _with_ones(params, X)
    n = X.shape[0]
    ws = _Workspace(params, min(cfg.batch_size, n))
    xs, ts = np.empty(X.shape), np.empty(T.shape)
    rws = None if row_weights is None else np.empty(n)
    for epoch in range(1, cfg.epochs + 1):
        order = rng.permutation(n)
        # "clip" never applies to a permutation's positions, and unlike
        # "raise" it gathers straight into ``out``
        np.take(X, order, axis=0, out=xs, mode="clip")
        np.take(T, order, axis=0, out=ts, mode="clip")
        if row_weights is not None:
            np.take(row_weights, order, out=rws, mode="clip")
        for start in range(0, n, cfg.batch_size):
            batch = slice(start, start + cfg.batch_size)
            bw = None if row_weights is None else rws[batch]
            _loss_and_grads(params, xs[batch], ts[batch], kind, bw, ws)
            _momentum_step(params.flat, vel, ws.g, cfg)
        yield epoch


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
    params = params.copy()
    for _ in _sgd_epochs(params, X, T, cfg, "cross-entropy", None):
        pass
    return params


def measure(params: ModelParams, X, subsets, loss=None) -> dict:
    """``params``' metrics on the inputs ``X`` from one forward pass, whose
    activations are freed before any metric is read.

    ``subsets`` maps names to ``(rows, ref)``: ``rows`` are positions into
    ``X``, and ``ref`` their labels, for the error percentage, or a
    ProbMatrix of reference outputs, for the mean KL divergence of the
    outputs from it.  ``loss``, a pair of a target ProbMatrix and row
    weights for every row, adds ``kl_loss``, as ``_loss_and_grads`` has it.
    """
    logits = _forward(params, X)[1]
    metrics = {}
    if loss is not None:
        targets, row_weights = loss
        metrics["kl_loss"] = _mean_loss(
            _softmax(logits), targets.values,
            _normalized_weights(logits.shape[0], row_weights), "kl")
    for name, (rows, ref) in subsets.items():
        if isinstance(ref, ProbMatrix):
            out = ProbMatrix(_softmax(logits[rows]))
            metrics[name] = float(kl_rows(out, ref).mean())
        else:
            wrong = logits[rows].argmax(axis=1) != ref
            metrics[name] = 100.0 * float(np.mean(wrong))
    return metrics


def kl_loss(params: ModelParams, inputs, targets: ProbMatrix,
            row_weights=None) -> float:
    """Weighted mean KL(target || model output) over all rows (forward pass
    only; the same value ``_loss_and_grads`` returns)."""
    X = _check_inputs(params, inputs)
    return measure(params, X, {}, (targets, row_weights))["kl_loss"]


def finetune_kl(params: ModelParams, inputs, targets, cfg: TrainConfig,
                row_weights=None, on_entry=None) -> CheckpointSet:
    """Fine-tune toward target distributions, snapshotting every epoch.

    Args:
        targets: ProbMatrix (or array of stochastic rows) aligned with inputs.
        row_weights: optional per-row positive weights for the loss (used to
            weight retain rows by lambda); normalized internally.
        on_entry: called with each epoch's CheckpointEntry, a copy of the
            weights whose empty ``metrics`` the consumer may fill, in epoch
            order and before the next epoch starts; the default appends it
            to the returned set.  A consumer that keeps only the entries it
            needs bounds the weight copies held to a few, whatever the
            epoch count.

    Fine-tuning measures nothing.  Returns a CheckpointSet holding the
    entries the default ``on_entry`` collected, one per epoch (none with a
    consumer of the caller's own).
    """
    if cfg.loss != "kl":
        raise UsageError(f"finetune_kl requires loss='kl', got {cfg.loss!r}")
    X = _check_inputs(params, inputs)
    n = X.shape[0]
    if n == 0:
        raise ShapeError(f"inputs of shape {X.shape} hold no row to "
                         "fine-tune on")
    if not isinstance(targets, ProbMatrix):
        targets = ProbMatrix(targets)
    if targets.n_rows != n:
        raise ShapeError(f"{targets.n_rows} target rows for {n} inputs")
    if targets.n_classes != params.layout.n_classes:
        raise ShapeError(
            f"targets have {targets.n_classes} classes, model has "
            f"{params.layout.n_classes}"
        )
    if row_weights is not None:
        row_weights = np.asarray(row_weights, dtype=np.float64)
        if row_weights.shape != (n,):
            raise ShapeError("row_weights must have one entry per input row")
        if not (row_weights.min() > 0 and row_weights.max() < math.inf):
            raise UsageError("row_weights must be finite and positive")
    entries = []
    if on_entry is None:
        on_entry = entries.append
    params = params.copy()
    for epoch in _sgd_epochs(params, X, targets.values, cfg, "kl",
                             row_weights):
        on_entry(CheckpointEntry(epoch, params.copy()))
    return CheckpointSet(entries)


def save_model(params: ModelParams, path, epoch=None, error_rates=None) -> None:
    """Write the versioned binary checkpoint plus its JSON sidecar.

    Layout: 8-byte magic, u32 version, u32 D/H/K, then w1, b1, w2, b2 as
    little-endian float64 in row-major order.  The sidecar (``path`` +
    ".json") records seed, epoch and error rates.
    """
    lay = params.layout
    with atomic_open(path, "wb") as fh:
        fh.write(_CKPT_MAGIC)
        fh.write(struct.pack("<IIII", _CKPT_VERSION, lay.d_in, lay.hidden,
                             lay.n_classes))
        fh.write(params.flat.astype("<f8", copy=False).tobytes())
    sidecar = {
        "seed": int(params.seed),
        "epoch": epoch,
        "error_rates": error_rates or {},
    }
    write_json(str(path) + ".json", sidecar)


def load_model(path):
    """Read a checkpoint; returns (ModelParams, sidecar dict).

    The file must hold exactly the header and the weights it sizes,
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
        raw = fh.read()
    size = 8 * sum(map(math.prod, layout.shapes))
    if len(raw) != size:
        raise DataError(f"{path}: " + ("truncated checkpoint" if len(raw) < size
                                       else "trailing bytes after the weights"))
    flat = np.frombuffer(raw, dtype="<f8").astype(np.float64)
    if not np.isfinite(flat).all():
        raise DataError(f"{path}: non-finite weight")
    sidecar_path = f"{path}.json"
    try:
        sidecar = read_json(sidecar_path)
    except FileNotFoundError:
        sidecar = {}
    if not isinstance(sidecar, dict):
        raise DataError(f"{sidecar_path}: must hold a JSON object, not "
                        f"{type(sidecar).__name__}")
    seed = sidecar.get("seed", -1)
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise DataError(f"{sidecar_path}: seed must be an integer, not "
                        f"{seed!r}")
    return ModelParams(layout, seed, flat), sidecar

"""Error-rate evaluation, the loss-based membership-inference attack, and
wall-clock timing of pipeline stages.

The attacker is a 1-D logistic regression on per-example cross-entropy
losses, fit exactly (Newton's method, or a midpoint threshold where the two
sides do not overlap): forget-set losses are labeled "in", test-set losses
"out", the sets are balanced by seeded subsampling, and accuracy is measured
on a held-out stratified 20% over several split seeds.  50% accuracy means
the attacker cannot tell the forget set from unseen data.
"""

from __future__ import annotations

import platform
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import InsufficientDataError, ShapeError, UsageError
from .model import ModelParams, forward_probs, predict_labels
from .probmatrix import FLOOR


@dataclass
class EvalReport:
    """Test / retain / forget error percentages plus the subset sizes."""

    test_error: float
    retain_error: float
    forget_error: float
    counts: dict = field(default_factory=dict)


MIA_TRAIN_FRAC = 0.8  # share of each attack side that fits the attacker


@dataclass
class MiaConfig:
    repetitions: int = 5
    seed: int = 0

    def __post_init__(self):
        if self.repetitions < 1:
            raise UsageError(
                f"repetitions: must be >= 1, got {self.repetitions}")


@dataclass
class MiaReport:
    mean_accuracy: float
    std_accuracy: float
    repetitions: int
    accuracies: list
    attacker: str = "logistic-regression on per-example loss"
    split_seed: int = 0


@dataclass
class TimingRecord:
    label: str
    samples: list
    mean: float
    std_error: float
    host: str = field(default_factory=platform.node)


def error_rate(params: ModelParams, inputs, labels) -> float:
    """Misclassification percentage (100 * error) under argmax prediction."""
    inputs = np.asarray(inputs, dtype=np.float64)
    if inputs.shape[0] == 0:
        raise UsageError("error_rate needs a non-empty subset")
    labels = _labels_for(inputs, labels)
    return 100.0 * float(np.mean(predict_labels(params, inputs) != labels))


def _labels_for(inputs, labels) -> np.ndarray:
    """``labels`` as an array, checked to hold one label per input row."""
    labels = np.asarray(labels)
    if labels.shape != np.shape(inputs)[:1]:
        raise ShapeError(f"labels of shape {labels.shape} for "
                         f"{np.shape(inputs)[0]} input rows")
    return labels


def evaluate_model(params: ModelParams, ds, split) -> EvalReport:
    """Standard three-way report: test split, retain rows, forget rows."""
    xt, yt = ds.split_arrays("test")
    xr, yr = ds.arrays_at(split.retain_idx)
    xf, yf = ds.arrays_at(split.forget_idx)
    return EvalReport(
        test_error=error_rate(params, xt, yt),
        retain_error=error_rate(params, xr, yr),
        forget_error=error_rate(params, xf, yf),
        counts={"test": len(yt), "retain": len(yr), "forget": len(yf)},
    )


def example_losses(params: ModelParams, inputs, labels) -> np.ndarray:
    """Per-example cross-entropy of the true label."""
    probs = forward_probs(params, inputs).values
    labels = _labels_for(probs, labels).astype(np.int64)
    p_true = np.maximum(probs[np.arange(len(labels)), labels], FLOOR)
    return -np.log(p_true)


NEWTON_MAX_ITERS = 100  # cap on Newton steps; the fits seen take <= 26
NEWTON_TOL = 1e-8       # step, relative to 1 + |parameter|, that ends a fit


def _fit_logistic_1d(z: np.ndarray, y: np.ndarray):
    """The maximum-likelihood fit of ``P(in) = sigmoid(w z + b)``, one per
    row of ``z`` (shape (fits, m)) against the shared labels ``y`` (1 for
    "in"); returns the arrays ``(w, b)``.

    Where a row's "in" values all lie at or below its "out" values, or all
    at or above, no maximum exists; gradient descent tends to the max-margin
    separator (Soudry et al. 2018), here the midpoint between the closest
    "in" and "out" values, which such a row gets (``|w| = 1``).  The other
    rows take undamped Newton steps from (0, 0), all at once, each row
    stopping after its first step below ``NEWTON_TOL``.
    """
    zi, zo = z[:, y == 1], z[:, y == 0]
    below = zi.max(axis=1) <= zo.min(axis=1)
    rows = ~below & (zi.min(axis=1) < zo.max(axis=1))     # overlapping
    w = np.where(below, -1.0, 1.0)
    b = -w * np.where(below, zi.max(axis=1) + zo.min(axis=1),
                      zi.min(axis=1) + zo.max(axis=1)) / 2.0
    z = z[rows]
    theta = np.zeros((len(z), 2))
    done = np.zeros(len(z), dtype=bool)
    for _ in range(NEWTON_MAX_ITERS):
        if done.all():
            break
        with np.errstate(over="ignore"):       # exp(-u) = inf gives p = 0
            p = 1.0 / (1.0 + np.exp(-(theta[:, :1] * z + theta[:, 1:])))
        r, s = p - y, p * (1.0 - p)
        gw, gb = (r * z).sum(1), r.sum(1)
        hww, hwb, hbb = (s * z * z).sum(1), (s * z).sum(1), s.sum(1)
        step = np.stack([hbb * gw - hwb * gb, hww * gb - hwb * gw], axis=1)
        step /= (hww * hbb - hwb * hwb)[:, None]
        step[done] = 0.0
        theta -= step
        done |= (np.abs(step) <= NEWTON_TOL * (1 + np.abs(theta))).all(1)
    w[rows], b[rows] = theta[:, 0], theta[:, 1]
    return w, b


def _stratified_split(n_per_side: int, seed: int):
    """One permutation reused for both sides, so equal-size classes stay
    paired position-for-position (this makes the identical-distribution case
    come out at exactly 50%)."""
    perm = np.random.default_rng(seed).permutation(n_per_side)
    n_train = int(MIA_TRAIN_FRAC * n_per_side)
    return perm[:n_train], perm[n_train:]


def mia_attack(params: ModelParams, forget_set, test_set,
               cfg: MiaConfig | None = None) -> MiaReport:
    """Loss-based membership inference against ``params``.

    Args:
        forget_set, test_set: (inputs, labels) pairs; the attacker tries to
            tell forget examples ("in") from test examples ("out").

    Returns holdout accuracy mean and standard deviation over the configured
    repetitions, each with its own split seed.
    """
    cfg = cfg or MiaConfig()
    xf, yf = forget_set
    xt, yt = test_set
    if len(yf) == 0 or len(yt) == 0:
        raise UsageError("both subsets must be non-empty")
    losses_in = example_losses(params, xf, yf)
    losses_out = example_losses(params, xt, yt)

    # Balance by subsampling the larger side.
    n = min(len(losses_in), len(losses_out))
    if n < 10:
        raise InsufficientDataError(
            f"only {n} examples per side after balancing; need >= 10"
        )
    rng = np.random.default_rng(cfg.seed)
    if len(losses_in) > n:
        losses_in = losses_in[rng.permutation(len(losses_in))[:n]]
    if len(losses_out) > n:
        losses_out = losses_out[rng.permutation(len(losses_out))[:n]]

    z_train, z_hold = [], []
    for rep in range(cfg.repetitions):
        tr, ho = _stratified_split(n, cfg.seed + rep)
        z_tr = np.concatenate([losses_in[tr], losses_out[tr]])
        mu, sd = z_tr.mean(), z_tr.std()
        if sd == 0.0:
            sd = 1.0
        z_train.append((z_tr - mu) / sd)
        z_hold.append((np.concatenate([losses_in[ho], losses_out[ho]]) - mu)
                      / sd)
    y_tr = np.concatenate([np.ones(len(tr)), np.zeros(len(tr))])
    w, b = _fit_logistic_1d(np.array(z_train), y_tr)
    y_ho = np.concatenate([np.ones(len(ho)), np.zeros(len(ho))])
    pred = (w[:, None] * np.array(z_hold) + b[:, None] >= 0.0)
    accuracies = [100.0 * float(np.mean(row == (y_ho == 1.0))) for row in pred]

    acc = np.asarray(accuracies)
    std = float(acc.std(ddof=1)) if len(acc) > 1 else 0.0
    return MiaReport(
        mean_accuracy=float(acc.mean()),
        std_accuracy=std,
        repetitions=cfg.repetitions,
        accuracies=accuracies,
        split_seed=cfg.seed,
    )


def time_stage(label: str, thunk, repetitions: int = 1) -> TimingRecord:
    """Run ``thunk`` under a monotonic clock; mean and standard error."""
    if repetitions < 1:
        raise UsageError(f"repetitions: must be >= 1, got {repetitions}")
    samples = []
    for _ in range(repetitions):
        t0 = time.perf_counter()
        thunk()
        samples.append(time.perf_counter() - t0)
    arr = np.asarray(samples)
    stderr = float(arr.std(ddof=1) / np.sqrt(len(arr))) if len(arr) > 1 else 0.0
    return TimingRecord(label=label, samples=samples, mean=float(arr.mean()),
                        std_error=stderr)

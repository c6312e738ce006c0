"""End-to-end unlearning pipelines.

Both modes share the same skeleton: extract output probabilities for the
train rows, substitute pseudo-probabilities on the forget rows, optionally
refine the whole matrix under class-mass constraints, then fine-tune the
weights toward the targets with the KL loss.  Bias mode keeps the raw
substituted targets and the final epoch; privacy mode refines first and
selects the checkpoint whose forget error best matches a retrain-like
reference.  Adaptive mode runs either variant seeded from a predecessor
model's outputs instead of the original's.  Fine-tuning only trains: the
pipeline measures each epoch's snapshot as it arrives, on the rows its
selection reads, and the selected snapshot once more when training ends.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset, SplitResult
from .errors import UsageError
from .evaluate import error_rate
from .model import (CheckpointSet, ModelParams, TrainConfig, _with_ones,
                    finetune_kl, forward_probs, measure)
from .probmatrix import PseudoScheme, pseudo_generate, replace_rows
from .refine import RefineConfig, problem_from_outputs, refine

# the method name a run in each mode reports, as configs spell it
METHOD_NAMES = {"bias": "ppu-bias", "privacy": "ppu-privacy",
                "adaptive": "adaptive"}
MODES = tuple(METHOD_NAMES)
CRITERIA = ("forget-error-proxy", "output-distance")
# trajectory metrics that are error percentages on labelled subsets; the
# others (``kl_loss``, ``retain_kl``) are divergences
ERROR_METRICS = ("forget", "retain", "test")


@dataclass
class UnlearnTask:
    """Configuration of one unlearning request."""

    dataset: Dataset
    split: SplitResult
    mode: str
    scheme: PseudoScheme
    finetune: TrainConfig
    lam: float = 1.0
    refine_cfg: RefineConfig | None = None
    selection: str = "forget-error-proxy"
    adaptive_style: str = "bias"   # which variant adaptive mode runs

    ADAPTIVE_STYLES = ("bias", "privacy")

    def __post_init__(self):
        if self.mode not in MODES:
            raise UsageError(f"unknown mode {self.mode!r}")
        if self.selection not in CRITERIA:
            raise UsageError(f"unknown selection criterion {self.selection!r}")
        if self.adaptive_style not in self.ADAPTIVE_STYLES:
            raise UsageError(f"unknown adaptive style {self.adaptive_style!r}")
        if not 0 < self.lam < np.inf:
            raise UsageError(f"lambda must be finite and > 0, got {self.lam}")
        if self.finetune.loss != "kl":
            raise UsageError("fine-tuning config must use the KL loss")
        if self.style == "privacy" and self.refine_cfg is None:
            raise UsageError("privacy mode requires a refinement config")

    @property
    def style(self) -> str:
        """The variant that runs: the mode, or adaptive mode's style."""
        return self.adaptive_style if self.mode == "adaptive" else self.mode


@dataclass
class UnlearnReport:
    """Outcome of a pipeline run: final weights plus the full trail.

    ``trajectory`` holds one record per epoch: its ``epoch`` and what its
    snapshot measured, the ``forget`` error and, under output-distance,
    ``retain_kl``.  The selected epoch's record also holds ``kl_loss``, the
    ``retain`` and ``test`` errors and, in privacy mode, ``retain_kl``.
    ``checkpoints`` holds the selected epoch's snapshot alone, so a run
    keeps a few weight copies whatever its epoch count; a caller that
    persists every epoch's snapshot takes them from ``on_checkpoint`` as
    they complete.  ``refine_result`` carries the refined target matrix.
    """

    params: ModelParams
    selected_epoch: int | None
    trajectory: list
    refine_summary: dict | None
    timings: dict
    flags: dict = field(default_factory=dict)
    method: str = ""
    checkpoints: CheckpointSet | None = None
    refine_result: object = None        # RefineResult when refinement ran

    def deterministic_fields(self) -> dict:
        """Everything except wall-clock times, for determinism checks."""
        return {
            "selected_epoch": self.selected_epoch,
            "trajectory": self.trajectory,
            "refine_summary": self.refine_summary,
            "flags": self.flags,
            "method": self.method,
        }


def _selection_score(criterion: str, reference: float):
    """The score ``select_checkpoint`` minimizes, as a function of a
    checkpoint's metrics."""
    if criterion == "forget-error-proxy":
        return lambda metrics: abs(metrics["forget"] - reference)
    if criterion != "output-distance":
        raise UsageError(f"unknown selection criterion {criterion!r}")

    def distance(metrics):
        try:
            return metrics["retain_kl"]
        except KeyError:
            raise UsageError(
                "output-distance selection needs a 'retain_kl' metric on "
                "every checkpoint"
            ) from None
    return distance


def select_checkpoint(cps: CheckpointSet, criterion: str = "forget-error-proxy",
                      reference: float = 0.0):
    """Pick the checkpoint matching the criterion; ties go to the earliest.

    forget-error-proxy minimizes |forget error - reference|; output-distance
    minimizes the recorded mean KL to the original outputs on the retain set
    (metric key "retain_kl").
    """
    if len(cps) == 0:
        raise UsageError("cannot select from an empty checkpoint set")
    selection = _RunningSelection(_selection_score(criterion, reference))
    for entry in cps.entries:
        selection.offer(entry)
    return selection.entry.epoch, selection.entry.params


class _RunningSelection:
    """The selected checkpoint of the entries seen so far, one at a time:
    the first minimum of the score, a NaN counting as the minimum as it does
    for ``np.argmin``; without a score, the latest entry."""

    def __init__(self, score=None):
        self.score, self.entry, self.best = score, None, None

    def offer(self, entry):
        if self.score is None:
            self.entry = entry
            return
        s = self.score(entry.metrics)
        # NaN != NaN: a held NaN stays, a new NaN displaces any number
        if self.entry is None or (self.best == self.best
                                  and (s < self.best or s != s)):
            self.entry, self.best = entry, s


def _train_positions(ds: Dataset, split: SplitResult):
    """Positions of forget/retain rows inside the train-split row order."""
    train = ds.splits["train"]
    # each dataset row's train position, -1 off the train split; the extra
    # last entry answers the rows outside the dataset
    inverse = np.full(ds.n + 1, -1, dtype=np.int64)
    inverse[train] = np.arange(train.size)
    rows = np.concatenate([split.forget_idx, split.retain_idx])
    pos = inverse[np.where((rows >= 0) & (rows < ds.n), rows, -1)]
    stray = rows[pos < 0]
    if stray.size:
        raise UsageError(f"{stray.size} split rows lie outside the train "
                         f"split: {stray[:10].tolist()}")
    return train, pos[:split.n_forget], pos[split.n_forget:]


def _run_ppu(source: ModelParams, task: UnlearnTask,
             on_checkpoint=None) -> UnlearnReport:
    ds, split = task.dataset, task.split
    style, method = task.style, METHOD_NAMES[task.mode]
    train_idx, fpos, rpos = _train_positions(ds, split)
    X = ds.inputs[train_idx]
    timings, flags = {}, {}

    t0 = time.perf_counter()
    outputs = forward_probs(source, X, row_ids=train_idx)
    pseudo = pseudo_generate(len(fpos), ds.n_classes, task.scheme) \
        if len(fpos) else None
    targets = outputs if pseudo is None else replace_rows(outputs, fpos, pseudo)
    timings["extract"] = time.perf_counter() - t0

    refine_summary = None
    refine_result = None
    if style == "privacy":
        t0 = time.perf_counter()
        problem = problem_from_outputs(outputs, targets, fpos, rpos, task.lam)
        refine_result = refine(problem, task.refine_cfg)
        targets = refine_result.matrix
        timings["refine"] = time.perf_counter() - t0
        refine_summary = {
            "converged": refine_result.converged,
            "iterations": refine_result.iterations,
            "objective": refine_result.objective,
            # the returned matrix is the lowest-residual iterate
            "final_residual": min(refine_result.dual.residuals),
        }
        if not refine_result.converged:
            # the problem is convex, so the iteration budget ran out; flag
            # for auditing and continue with the best iterate
            flags["refine_not_converged"] = True

    if task.finetune.epochs == 0:
        return UnlearnReport(
            params=source.copy(), selected_epoch=None, trajectory=[],
            refine_summary=refine_summary, timings=timings, flags=flags,
            method=method, refine_result=refine_result,
        )

    # each snapshot measures only what the selection reads, on rows gathered
    # once with the column of ones; the selected one's other metrics are
    # measured once it is known
    gathered = fpos
    sets = {"forget": (np.arange(len(fpos)), ds.labels[split.forget_idx])}
    subsets = {"retain": (rpos, ds.labels[split.retain_idx])}
    if style == "privacy":
        subsets["retain_kl"] = (rpos, outputs.take(rpos))
        if task.selection == "output-distance":
            gathered = np.concatenate([fpos, rpos])
            sets["retain_kl"] = (np.arange(len(fpos), len(gathered)),
                                 subsets["retain_kl"][1])
    snapshot_rows = _with_ones(source, X[gathered])
    weights = np.ones(len(train_idx))
    weights[rpos] = task.lam

    # the reference depends on the source model alone, so the selection can
    # run as the checkpoints complete, holding only the one it would pick;
    # "select" times the reference, and each pick runs inside "finetune"
    t0 = time.perf_counter()
    score = None
    if style == "privacy":
        reference = _forget_class_test_error(source, ds, split)
        score = _selection_score(task.selection, reference)
        flags["selection_reference"] = reference
    selection = _RunningSelection(score)
    timings["select"] = time.perf_counter() - t0
    trajectory = []

    def keep(entry):
        entry.metrics = measure(entry.params, snapshot_rows, sets)
        trajectory.append(dict(entry.metrics, epoch=entry.epoch))
        if on_checkpoint is not None:
            on_checkpoint(entry)
        selection.offer(entry)

    t0 = time.perf_counter()
    finetune_kl(source, X, targets, task.finetune, row_weights=weights,
                on_entry=keep)
    # one pass over the train rows, then one over the test rows
    entry = selection.entry
    record = trajectory[entry.epoch - 1]
    record.update(measure(entry.params, X, subsets, (targets, weights)))
    xt, yt = ds.split_arrays("test")
    record.update(measure(entry.params, xt, {"test": (np.arange(len(yt)), yt)}))
    timings["finetune"] = time.perf_counter() - t0
    return UnlearnReport(
        params=entry.params, selected_epoch=entry.epoch,
        trajectory=trajectory, refine_summary=refine_summary,
        timings=timings, flags=flags, method=method,
        checkpoints=CheckpointSet([entry]),
        refine_result=refine_result,
    )


def _forget_class_test_error(source: ModelParams, ds: Dataset,
                             split: SplitResult) -> float:
    """Held-out test error on the forgotten class(es), evaluated with the
    source model: a proxy for the forget error a retrained model would show.
    """
    classes = np.unique(ds.labels[split.forget_idx])
    test = ds.splits["test"]
    rows = test[np.isin(ds.labels[test], classes)]
    if rows.size == 0:
        raise UsageError("no test examples of the forgotten class(es)")
    return error_rate(source, ds.inputs[rows], ds.labels[rows])


def ppu_bias(model: ModelParams, task: UnlearnTask,
             on_checkpoint=None) -> UnlearnReport:
    """Bias-removal unlearning: direct substitution, no refinement.
    ``on_checkpoint`` (here and in the other modes) is called with every
    epoch's CheckpointEntry as it completes, in epoch order."""
    if task.mode != "bias":
        raise UsageError(f"task mode is {task.mode!r}, expected 'bias'")
    return _run_ppu(model, task, on_checkpoint)


def ppu_privacy(model: ModelParams, task: UnlearnTask,
                on_checkpoint=None) -> UnlearnReport:
    """Privacy-preserving unlearning: refinement plus checkpoint selection."""
    if task.mode != "privacy":
        raise UsageError(f"task mode is {task.mode!r}, expected 'privacy'")
    return _run_ppu(model, task, on_checkpoint)


def adaptive_post(predecessor: ModelParams, task: UnlearnTask,
                  on_checkpoint=None) -> UnlearnReport:
    """Post-process any unlearned/fine-tuned model with either PPU variant,
    seeding targets from the predecessor's outputs."""
    if task.mode != "adaptive":
        raise UsageError(f"task mode is {task.mode!r}, expected 'adaptive'")
    return _run_ppu(predecessor, task, on_checkpoint)

"""Reference unlearning methods: Retrain, Original, Finetune, NegGrad+.

Each method is exposed both as a bare operation and through ``run_baseline``,
which emits the same ``UnlearnReport`` shape as the PPU pipelines so the
harness can evaluate everything uniformly.  Retrain never sees forget rows:
it receives only retain indices.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .data import Dataset, SplitResult
from .errors import SpecError, UsageError
from .model import (ModelLayout, ModelParams, TrainConfig, _forward,
                    _loss_and_grads, _momentum_step, _with_ones, _Workspace,
                    init_model, train_ce)
from .pipeline import UnlearnReport

KINDS = ("retrain", "original", "finetune", "neggrad-plus")


@dataclass
class BaselineSpec:
    kind: str
    train: TrainConfig
    neggrad_iters: int = 500

    def __post_init__(self):
        if self.kind not in KINDS:
            raise SpecError(f"unknown baseline kind {self.kind!r}")
        if self.kind == "neggrad-plus" and self.neggrad_iters < 1:
            raise SpecError("neggrad-plus needs at least one iteration")


@dataclass
class NegGradResult:
    params: ModelParams
    diverged: bool
    steps: int


def retrain(data: Dataset, split: SplitResult, cfg: TrainConfig,
            layout: ModelLayout) -> ModelParams:
    """Gold standard: fresh init, cross-entropy training on retain rows only."""
    if split.n_retain == 0:
        raise SpecError("retrain requires a non-empty retain set")
    xr, yr = data.arrays_at(split.retain_idx)
    fresh = init_model(layout, seed=cfg.seed)
    return train_ce(fresh, xr, yr, cfg)


def finetune_retain(model: ModelParams, data: Dataset, split: SplitResult,
                    cfg: TrainConfig) -> ModelParams:
    """Continue cross-entropy training on the retain rows; no forgetting
    mechanism at all."""
    if split.n_retain == 0:
        raise SpecError("finetune requires a non-empty retain set")
    xr, yr = data.arrays_at(split.retain_idx)
    return train_ce(model, xr, yr, cfg)


def _raw_ce(params: ModelParams, X, y) -> float:
    """Unfloored cross-entropy via log-sum-exp; unbounded, so usable as a
    divergence signal (the training loss saturates at -log(floor))."""
    _, logits = _forward(params, X)
    lse = np.log(np.sum(np.exp(logits - logits.max(axis=1, keepdims=True)),
                        axis=1)) + logits.max(axis=1)
    return float(np.mean(lse - logits[np.arange(len(y)), y]))


def neggrad_plus(model: ModelParams, data: Dataset, split: SplitResult,
                 cfg: TrainConfig, iters: int = 500,
                 ascent_weight: float = 0.5) -> NegGradResult:
    """Joint descent/ascent: each step minimizes
    CE(retain batch) - ascent_weight * CE(forget batch).

    Stops early and flags divergence when the retain training loss
    (unfloored) exceeds 1e3.
    """
    if split.n_forget == 0 or split.n_retain == 0:
        raise SpecError("neggrad-plus needs non-empty forget and retain sets")
    xr, yr = data.arrays_at(split.retain_idx)
    xf, yf = data.arrays_at(split.forget_idx)
    xr, xf = _with_ones(model, xr), _with_ones(model, xf)
    K = model.layout.n_classes
    Tr = np.zeros((len(yr), K))
    Tr[np.arange(len(yr)), yr] = 1.0
    Tf = np.zeros((len(yf), K))
    Tf[np.arange(len(yf)), yf] = 1.0

    params = model.copy()
    rng = np.random.default_rng(cfg.seed)
    vel = np.zeros_like(params.flat)
    ws_r = _Workspace(params, min(cfg.batch_size, len(yr)))
    ws_f = _Workspace(params, min(cfg.batch_size, len(yf)))
    for step in range(1, iters + 1):
        br = rng.choice(len(yr), size=min(cfg.batch_size, len(yr)), replace=False)
        bf = rng.choice(len(yf), size=min(cfg.batch_size, len(yf)), replace=False)
        if _raw_ce(params, xr[br], yr[br]) > 1e3:
            return NegGradResult(params, diverged=True, steps=step)
        _loss_and_grads(params, xr[br], Tr[br], "cross-entropy", ws=ws_r)
        _loss_and_grads(params, xf[bf], Tf[bf], "cross-entropy", ws=ws_f)
        ws_f.g *= ascent_weight
        ws_r.g -= ws_f.g
        _momentum_step(params.flat, vel, ws_r.g, cfg)
    return NegGradResult(params, diverged=False, steps=iters)


def run_baseline(spec: BaselineSpec, data: Dataset, split: SplitResult,
                 original: ModelParams | None = None) -> UnlearnReport:
    """Run one baseline and wrap the outcome in the uniform report shape.
    Every baseline needs the original model; Retrain takes its layout."""
    if original is None:
        raise UsageError(f"the {spec.kind} baseline needs the original model")
    flags = {}
    t0 = time.perf_counter()
    if spec.kind == "retrain":
        params = retrain(data, split, spec.train, original.layout)
    elif spec.kind == "original":
        params = original.copy()
    elif spec.kind == "finetune":
        params = finetune_retain(original, data, split, spec.train)
    else:
        result = neggrad_plus(original, data, split, spec.train,
                              spec.neggrad_iters)
        params = result.params
        if result.diverged:
            flags["neggrad_diverged"] = True
        flags["neggrad_steps"] = result.steps
    elapsed = time.perf_counter() - t0
    return UnlearnReport(
        params=params, selected_epoch=None, trajectory=[],
        refine_summary=None, timings={"train": elapsed}, flags=flags,
        method=f"baseline:{spec.kind}",
    )

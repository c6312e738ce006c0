"""Desk-scale pseudo-probability machine unlearning.

Pipelines replace a trained classifier's output probabilities on a forget
set with pseudo-probabilities, optionally refine them under class-mass
constraints, and fine-tune the weights toward the result.  Includes
baselines (retrain / finetune / NegGrad+), a loss-based membership-inference
attack, stage timing, and a reproducible experiment harness.

``PPUNLEARN_THREADS`` caps the BLAS threads.  It is read here, before any
import: BLAS sizes its thread pool once, when NumPy first loads.
"""

import os as _os

_threads = _os.environ.get("PPUNLEARN_THREADS")
if _threads:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        _os.environ.setdefault(_var, _threads)

from .data import (Dataset, ForgetSpec, SplitResult, gen_blobs, load_csv,
                   load_dataset, make_forget_split, save_dataset)
from .errors import UnlearnError
from .evaluate import (EvalReport, MiaConfig, MiaReport, TimingRecord,
                       error_rate, evaluate_model, mia_attack, time_stage)
from .model import (CheckpointSet, ModelLayout, ModelParams, TrainConfig,
                    finetune_kl, forward_probs, init_model, load_model,
                    predict_labels, save_model, train_ce)
from .pipeline import (UnlearnReport, UnlearnTask, adaptive_post, ppu_bias,
                       ppu_privacy, select_checkpoint)
from .probmatrix import (ProbMatrix, PseudoScheme, class_mass, dump_probmatrix,
                         kl_div, load_probmatrix, pseudo_generate,
                         replace_rows)
from .refine import (DualState, RefineConfig, RefineProblem, RefineResult,
                     dual_step, objective, primal_update, refine,
                     save_refine_result)

__version__ = "0.1.0"

__all__ = [
    "Dataset", "ForgetSpec", "SplitResult", "gen_blobs", "load_csv",
    "load_dataset", "make_forget_split", "save_dataset", "UnlearnError",
    "EvalReport", "MiaConfig", "MiaReport", "TimingRecord", "error_rate",
    "evaluate_model", "mia_attack", "time_stage", "CheckpointSet",
    "ModelLayout", "ModelParams", "TrainConfig", "finetune_kl",
    "forward_probs", "init_model", "load_model", "predict_labels",
    "save_model", "train_ce", "UnlearnReport", "UnlearnTask", "adaptive_post",
    "ppu_bias", "ppu_privacy", "select_checkpoint", "ProbMatrix",
    "PseudoScheme", "class_mass", "dump_probmatrix", "kl_div",
    "load_probmatrix", "pseudo_generate", "replace_rows", "DualState",
    "RefineConfig", "RefineProblem", "RefineResult", "dual_step", "objective",
    "primal_update", "refine", "save_refine_result", "__version__",
]

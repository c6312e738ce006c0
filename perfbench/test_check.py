"""The output checker accepts real outputs and rejects corrupted ones.

    python3 -m pytest -q perfbench/test_check.py

Runs a small privacy request and a small run directory (fresh, then
resumed), checks them as the benchmark does, then corrupts one output at a
time and requires the checker to reject it.
"""

from __future__ import annotations

import copy
import json
import shutil
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import ppunlearn as pl  # noqa: E402
from ppunlearn import harness  # noqa: E402

import check  # noqa: E402
from check import CheckFailed  # noqa: E402
from workloads import weights  # noqa: E402

SEED = 3


@pytest.fixture(scope="module")
def small():
    ds = pl.gen_blobs(5, 8, 125, 0.6, SEED)
    split = pl.make_forget_split(ds, pl.ForgetSpec("selective", 0, 25,
                                                   seed=SEED + 100))
    layout = pl.ModelLayout(8, 16, 5)
    original = pl.train_ce(pl.init_model(layout, seed=SEED + 1),
                           *ds.split_arrays("train"),
                           pl.TrainConfig(lr=0.05, epochs=10, seed=SEED + 2))
    n_train = len(ds.splits["train"])
    task = pl.UnlearnTask(
        ds, split, "privacy", pl.PseudoScheme("random-softmax", seed=SEED + 7),
        pl.TrainConfig(lr=0.05, epochs=6, seed=SEED + 5, loss="kl"),
        refine_cfg=pl.RefineConfig(eta=4.0 / n_train, max_iters=5000))
    sub = check.Subsets.from_arrays(ds.inputs, ds.labels, ds.splits["train"],
                                    ds.splits["test"], split.forget_idx,
                                    split.retain_idx)
    return {"ds": ds, "sub": sub, "original": original,
            "report": pl.ppu_privacy(original, task)}


def check_request(small, trajectory=None, refined=None):
    """The benchmark's checks of one privacy request."""
    rep, sub = small["report"], small["sub"]
    source = weights(small["original"])
    trajectory = rep.trajectory if trajectory is None else trajectory
    refined = rep.refine_result.matrix.values if refined is None else refined
    check.check_trajectory_entry(weights(rep.params), trajectory,
                                 rep.selected_epoch, sub)
    ref = check.check_reference(source, sub,
                                rep.flags["selection_reference"])
    check.check_selection(trajectory, rep.selected_epoch, ref)
    check.check_residual(check.mass_residual(refined, source, sub),
                         rep.refine_summary["final_residual"])


def test_real_request_passes(small):
    check_request(small)


@pytest.mark.parametrize("how", ["move mass within the row",
                                 "break the row sum", "negative entry"])
def test_perturbed_refined_row_rejected(small, how):
    q = np.array(small["report"].refine_result.matrix.values)
    if how == "move mass within the row":
        q[0, 0] -= 1e-3
        q[0, 1] += 1e-3
    elif how == "break the row sum":
        q[0, 0] += 1e-6
    else:
        q[0, 0], q[0, 1] = -1e-3, q[0, 1] + q[0, 0] + 1e-3
    with pytest.raises(CheckFailed):
        check_request(small, refined=q)


@pytest.mark.parametrize("field", ["forget", "retain", "test", "epoch"])
def test_wrong_trajectory_entry_rejected(small, field):
    traj = copy.deepcopy(small["report"].trajectory)
    traj[small["report"].selected_epoch - 1][field] += 1
    with pytest.raises(CheckFailed):
        check_request(small, trajectory=traj)


def test_wrong_selection_rejected():
    # the first epoch closest to the reference must be the one selected
    traj = [{"forget": 10.0}, {"forget": 4.0}, {"forget": 6.0}]
    check.check_selection(traj, 2, 5.0)
    for wrong in (1, 3):
        with pytest.raises(CheckFailed):
            check.check_selection(traj, wrong, 5.0)


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    cfg = harness.ExperimentConfig(
        dataset={"kind": "blobs", "n_classes": 5, "dim": 8,
                 "n_per_class": 125, "spread": 0.6},
        forget={"mode": "selective", "target_class": 0, "count": 25,
                "seed": SEED + 100},
        method="ppu-privacy", out_dir=str(out),
        scheme={"kind": "random-softmax", "seed": SEED + 7},
        model={"hidden": 16, "epochs": 10, "lr": 0.05, "batch_size": 32},
        finetune={"epochs": 6, "lr": 0.05, "batch_size": 32},
        refine={"eta": "4.0/n", "max_iters": 5000},
        evals={"errors": True, "mia": True, "timing": False},
        seeds={"data": SEED, "model": SEED + 1, "protocol": SEED + 2})
    fresh = asdict(harness.run_experiment(cfg))
    resumed = asdict(harness.run_experiment(cfg))
    ds = pl.gen_blobs(5, 8, 125, 0.6, SEED)
    split = pl.make_forget_split(ds, pl.ForgetSpec("selective", 0, 25,
                                                   seed=SEED + 100))
    sub = check.Subsets.from_arrays(ds.inputs, ds.labels, ds.splits["train"],
                                    ds.splits["test"], split.forget_idx,
                                    split.retain_idx)
    return {"dir": out, "fresh": fresh, "resumed": resumed, "sub": sub}


def test_real_run_dir_passes(run_dir):
    info = check.check_run_dir(run_dir["dir"], run_dir["sub"], 5, 5)
    assert info["files"] > 0 and info["snapshots"] == 6
    on_disk = json.loads((run_dir["dir"] / "summary.json").read_text())
    check.check_resume(run_dir["fresh"], run_dir["resumed"], on_disk)


@pytest.mark.parametrize("tamper", ["eval_report", "refine_diagnostics",
                                    "selected_epoch", "on_disk"])
def test_tampered_resumed_summary_rejected(run_dir, tamper):
    resumed = copy.deepcopy(run_dir["resumed"])
    on_disk = json.loads((run_dir["dir"] / "summary.json").read_text())
    if tamper == "eval_report":
        resumed["eval_report"]["test_error"] += 0.5
    elif tamper == "refine_diagnostics":
        resumed["refine_diagnostics"]["final_residual"] *= 1.5
    elif tamper == "selected_epoch":
        resumed["selected_epoch"] += 1
    else:
        on_disk["mia_report"]["mean_accuracy"] += 1.0
    with pytest.raises(CheckFailed):
        check.check_resume(run_dir["fresh"], resumed, on_disk)


def test_trailing_checkpoint_bytes_rejected(run_dir, tmp_path):
    copy_dir = tmp_path / "run"
    shutil.copytree(run_dir["dir"], copy_dir)
    with open(copy_dir / "unlearned.ckpt", "ab") as fh:
        fh.write(b"\0")
    with pytest.raises(CheckFailed):
        check.check_run_dir(copy_dir, run_dir["sub"], 5, 5)


def test_impossible_mia_accuracy_rejected():
    # 25 forget rows -> 5 holdout rows per side -> multiples of 10%
    good = {"accuracies": [50.0, 60.0], "mean_accuracy": 55.0}
    assert check.check_mia(good, 25, 100, 2) == 55.0
    for bad in ({"accuracies": [50.0, 61.0], "mean_accuracy": 55.5},
                {"accuracies": [50.0, 60.0], "mean_accuracy": 56.0},
                {"accuracies": [50.0], "mean_accuracy": 50.0}):
        with pytest.raises(CheckFailed):
            check.check_mia(bad, 25, 100, 2)


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))

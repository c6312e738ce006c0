"""The benchmark's workloads: set-up, the operations of one cycle, and the
independent check of each operation's output.

Every program seed derives from the workload seed the benchmark is given
(data ``s``, forget split ``s+100``, original init ``s+1``, original SGD
``s+2``, fine-tune ``s+5``, pseudo rows ``s+7``, MIA ``s+9``; the harness
config uses data ``s``, model ``s+1``, protocol ``s+2``), mirroring the
acceptance suite, so a seed reproduces the same inputs and outputs.
"""

from __future__ import annotations

import json
import shutil
import tempfile
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable

import numpy as np
import ppunlearn as pl
from ppunlearn import baselines, harness

import check


@dataclass
class Op:
    """One timed operation and the untimed check of its output."""

    name: str
    run: Callable
    check: Callable      # output -> info dict; raises check.CheckFailed
    calls: int = 1       # program calls one run makes; a sample is per call


def weights(params):
    return (params.w1, params.b1, params.w2, params.b2)


def reference_training(X, y, n_classes, hidden, cfg):
    """The benchmark's fixed unit of work: plain NumPy momentum SGD of a
    tanh MLP with softmax cross-entropy, at Retrain's model and budget.

    It never calls the program, so the program's times divided by this one,
    measured in the same cycle, cancel the machine's speed drift and keep
    the program's own speed.
    """
    rng = np.random.default_rng(cfg.seed)
    s1, s2 = 1.0 / np.sqrt(X.shape[1]), 1.0 / np.sqrt(hidden)
    w = [rng.uniform(-s1, s1, (X.shape[1], hidden)),
         rng.uniform(-s1, s1, hidden),
         rng.uniform(-s2, s2, (hidden, n_classes)),
         rng.uniform(-s2, s2, n_classes)]
    vel = [np.zeros_like(t) for t in w]
    T = np.eye(n_classes)[y]
    for _ in range(cfg.epochs):
        order = rng.permutation(len(y))
        for start in range(0, len(y), cfg.batch_size):
            rows = order[start:start + cfg.batch_size]
            xb = X[rows]
            a1 = np.tanh(xb @ w[0] + w[1])
            z = a1 @ w[2] + w[3]
            p = np.exp(z - z.max(axis=1, keepdims=True))
            dz = (p / p.sum(axis=1, keepdims=True) - T[rows]) / len(rows)
            dz1 = (dz @ w[2].T) * (1.0 - a1 * a1)
            grads = (xb.T @ dz1, dz1.sum(axis=0), a1.T @ dz, dz.sum(axis=0))
            for i, g in enumerate(grads):
                vel[i] = cfg.momentum * vel[i] - cfg.lr * g
                w[i] += vel[i]
    return tuple(w)


class Workload:
    name = ""
    retrain_reps = 2      # Retrain runs per cycle, half before the request

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed
        self.work_dir = work_dir

    def setup(self):
        raise NotImplementedError

    def ops(self) -> list:
        raise NotImplementedError

    def end_cycle(self):
        """Release what one cycle left behind."""

    def _split(self, ds, count):
        s = self.seed
        split = pl.make_forget_split(ds, pl.ForgetSpec("selective", 0, count,
                                                       seed=s + 100))
        self.sub = check.Subsets.from_arrays(
            ds.inputs, ds.labels, ds.splits["train"], ds.splits["test"],
            split.forget_idx, split.retain_idx)
        return split

    def _train_original(self, ds, hidden, cfg, init_seed):
        self.layout = pl.ModelLayout(ds.dim, hidden, ds.n_classes)
        self.original = pl.train_ce(pl.init_model(self.layout, seed=init_seed),
                                    *ds.split_arrays("train"), cfg)
        self.source_w = weights(self.original)

    def _around_retrains(self, cfg, ops):
        """``ops`` between blocks of Retrain and reference-training runs.

        Retrain is short and a shared host's speed can flip between a fast
        and a slow state every few seconds, so a single run lands in one state
        and a median of single runs jumps between the two.  A sample is the
        mean over a block of runs, one block before and one after ``ops``;
        the reference blocks sit outermost, bracketing the cycle's work.
        """
        calls = self.retrain_reps // 2
        xr, yr = self.sub.retain

        def run_retrain():
            return [baselines.retrain(self.ds, self.split, cfg, self.layout)
                    for _ in range(calls)]

        def check_retrain(outputs):
            digests = []
            for params in outputs:
                w = weights(params)
                check.check_weights(w, self.ds.dim, self.ds.n_classes)
                digests.append(check.digest(w))
            return {"errors": check.errors(w, self.sub), "digests": digests}

        def run_reference():
            return [reference_training(xr, yr, self.ds.n_classes,
                                       self.layout.hidden, cfg)
                    for _ in range(calls)]

        def check_reference(outputs):
            for w in outputs:
                check.check_weights(w, self.ds.dim, self.ds.n_classes)
            return {}
        retrain = Op("retrain", run_retrain, check_retrain, calls)
        reference = Op("reference", run_reference, check_reference, calls)
        return [reference, retrain, *ops, retrain, reference]


class Privacy7k(Workload):
    name = "privacy-7k"
    retrain_reps = 4

    def setup(self):
        s = self.seed
        self.ds = pl.gen_blobs(5, 48, 2000, 6.5, s)
        self.split = self._split(self.ds, 500)
        self.orig_cfg = pl.TrainConfig(lr=0.03, epochs=6, batch_size=64,
                                       seed=s + 2)
        self._train_original(self.ds, 512, self.orig_cfg, s + 1)
        n_train = len(self.ds.splits["train"])
        self.task = pl.UnlearnTask(
            self.ds, self.split, "privacy",
            pl.PseudoScheme("random-softmax", seed=s + 7),
            pl.TrainConfig(lr=0.014, epochs=25, batch_size=64, momentum=0.2,
                           seed=s + 5, loss="kl"),
            lam=0.5,
            refine_cfg=pl.RefineConfig(eta=4.0 / n_train, max_iters=60_000))
        self.mia_cfg = pl.MiaConfig(repetitions=5, seed=s + 9)
        self.unlearned = None

    def ops(self):
        return self._around_retrains(self.orig_cfg, [
            Op("unlearn", lambda: pl.ppu_privacy(self.original, self.task),
               self._check_unlearn),
            Op("mia", self._run_mia, self._check_mia)])

    def _check_unlearn(self, rep):
        w = weights(rep.params)
        check.check_weights(w, self.ds.dim, self.ds.n_classes)
        traj = rep.trajectory
        check.require(len(traj) == self.task.finetune.epochs,
                      f"{len(traj)} trajectory entries for "
                      f"{self.task.finetune.epochs} epochs")
        got = check.check_trajectory_entry(w, traj, rep.selected_epoch,
                                           self.sub)
        reference = check.check_reference(
            self.source_w, self.sub, rep.flags.get("selection_reference"))
        check.check_selection(traj, rep.selected_epoch, reference)
        result = rep.refine_result
        residual = check.mass_residual(result.matrix.values, self.source_w,
                                       self.sub)
        check.check_residual(residual, rep.refine_summary["final_residual"])
        self.unlearned = rep.params
        return {
            "errors": got,
            "selection_gap": abs(got["forget"] - reference),
            "mass_residual": residual,
            "converged": bool(rep.refine_summary["converged"]),
            "iterations": int(rep.refine_summary["iterations"]),
            "step_halvings": len(result.eta_schedule) - 1,
            "snapshots": len(traj),
            "checkpoints_held": len(rep.checkpoints),
            "digest": check.digest(w),
        }

    def _run_mia(self):
        check.require(self.unlearned is not None, "no unlearned model to attack")
        return pl.mia_attack(self.unlearned,
                             self.ds.arrays_at(self.split.forget_idx),
                             self.ds.split_arrays("test"), self.mia_cfg)

    def _check_mia(self, rep):
        acc = check.check_mia(
            {"accuracies": list(rep.accuracies),
             "mean_accuracy": rep.mean_accuracy},
            len(self.sub.forget[1]), len(self.sub.test[1]),
            self.mia_cfg.repetitions)
        return {"mia_accuracy": acc}

    def end_cycle(self):
        self.unlearned = None


class Bias437(Workload):
    name = "bias-437"
    retrain_reps = 4

    def setup(self):
        s = self.seed
        self.ds = pl.gen_blobs(5, 48, 125, 0.6, s)
        self.split = self._split(self.ds, 25)
        self._train_original(
            self.ds, 512,
            pl.TrainConfig(lr=0.05, epochs=40, batch_size=32, seed=s + 2),
            s + 1)
        self.task = pl.UnlearnTask(
            self.ds, self.split, "bias",
            pl.PseudoScheme("random-softmax", seed=s + 7),
            pl.TrainConfig(lr=0.05, epochs=250, batch_size=32, seed=s + 5,
                           loss="kl"))
        # the acceptance timing criterion's retrain budget
        self.retrain_cfg = pl.TrainConfig(lr=0.05, epochs=100, batch_size=32,
                                          seed=s + 2)
        self.forget_before = check.error_pct(self.source_w, self.sub.forget)

    def ops(self):
        return self._around_retrains(self.retrain_cfg, [
            Op("unlearn", lambda: pl.ppu_bias(self.original, self.task),
               self._check_unlearn)])

    def _check_unlearn(self, rep):
        w = weights(rep.params)
        check.check_weights(w, self.ds.dim, self.ds.n_classes)
        traj = rep.trajectory
        epochs = self.task.finetune.epochs
        check.require(len(traj) == epochs and rep.selected_epoch == epochs,
                      f"bias mode must keep the last of {epochs} epochs, "
                      f"kept {rep.selected_epoch} of {len(traj)}")
        got = check.check_trajectory_entry(w, traj, rep.selected_epoch,
                                           self.sub)
        check.require(rep.refine_result is None, "bias mode ran refinement")
        return {
            "errors": got,
            "forget_gain": got["forget"] - self.forget_before,
            "snapshots": len(traj),
            "checkpoints_held": len(rep.checkpoints),
            "digest": check.digest(w),
        }


class RunDir437(Workload):
    name = "rundir-437"
    retrain_reps = 6

    MIA_REPS = 5

    def setup(self):
        s = self.seed
        self.ds = pl.gen_blobs(5, 48, 125, 0.6, s)
        self.split = self._split(self.ds, 25)
        model = {"hidden": 512, "epochs": 40, "lr": 0.05, "batch_size": 32,
                 "momentum": 0.9}
        self.config = {
            "dataset": {"kind": "blobs", "n_classes": 5, "dim": 48,
                        "n_per_class": 125, "spread": 0.6},
            "forget": {"mode": "selective", "target_class": 0, "count": 25,
                       "seed": s + 100},
            "method": "ppu-privacy",
            "scheme": {"kind": "random-softmax", "seed": s + 7},
            "lam": 1.0,
            "model": model,
            "finetune": {"epochs": 25, "lr": 0.05, "batch_size": 32,
                         "momentum": 0.9},
            "refine": {"eta": "4.0/n", "max_iters": 60_000},
            "evals": {"errors": True, "mia": True, "timing": False},
            "mia": {"repetitions": self.MIA_REPS},
            "seeds": {"data": s, "model": s + 1, "protocol": s + 2},
        }
        # the original model the config names, at the original's budget;
        # retrain runs at the same budget
        self.retrain_cfg = pl.TrainConfig(
            lr=model["lr"], epochs=model["epochs"],
            batch_size=model["batch_size"], momentum=model["momentum"],
            seed=s + 1)
        self._train_original(self.ds, model["hidden"], self.retrain_cfg, s + 1)
        self.run_dir = None
        self.fresh = None

    def _experiment(self):
        cfg = harness.ExperimentConfig(**self.config, out_dir=str(self.run_dir))
        return harness.run_experiment(cfg)

    def _run_fresh(self):
        self.run_dir = Path(tempfile.mkdtemp(prefix="run-", dir=self.work_dir))
        return self._experiment()

    def _run_resume(self):
        check.require(self.fresh is not None, "no completed run to resume")
        return self._experiment()

    def ops(self):
        return self._around_retrains(self.retrain_cfg, [
            Op("unlearn", self._run_fresh, self._check_fresh),
            Op("resume", self._run_resume, self._check_resume)])

    def _check_fresh(self, summary):
        info = check.check_run_dir(self.run_dir, self.sub, self.ds.n_classes,
                                   self.MIA_REPS)
        self.fresh = asdict(summary)
        return info

    def _check_resume(self, summary):
        on_disk = json.loads((self.run_dir / "summary.json").read_text())
        check.check_resume(self.fresh, asdict(summary), on_disk)
        return {}

    def end_cycle(self):
        if self.run_dir is not None:
            shutil.rmtree(self.run_dir, ignore_errors=True)
        self.run_dir = None
        self.fresh = None


WORKLOADS = {w.name: w for w in (Privacy7k, Bias437, RunDir437)}
